"""Span recorder that wraps the gaussmin layers from outside the package.

`Tracer.install()` replaces every public function of the traced modules,
every alias another gaussmin module imported with ``from ... import``, the
values of module-level dispatch dicts, and the kernel classes' covariance
methods with thin wrappers.  Each call records one span

    [name, start, end, parent, command_id, info]

in memory; `uninstall()` puts the originals back.  Self time of a span is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np
from workloads import rel_se_max

MODULES = (
    "config",
    "kernels",
    "measures",
    "energy",
    "audits",
    "solver",
    "montecarlo",
    "output",
    "cli",
)
KERNEL_METHODS = ("cov", "gamma", "variance", "increment", "increment_d1", "increment_d2")
# runs once per CSV cell: a span per call would be most of the tracing cost
UNTRACED = {"output.format_value"}

NAME, START, END, PARENT, CMD, INFO = range(6)


# what each span keeps from its call, read after the span has ended
_INFO = {
    "cli.main": lambda args, kw, out: out,
    "solver.solve": lambda args, kw, out: (out.iterations, out.equilibrium_gap),
    "solver.discretize": lambda args, kw, out: out.matrix.size,
    "kernels.cov": lambda args, kw, out: int(np.size(out)),
    "montecarlo.normal_block": lambda args, kw, out: out.size,
    "montecarlo.factorize": lambda args, kw, out: out[1],
    "montecarlo.ldp_curve": lambda args, kw, out: rel_se_max(out.hits, out.trials),
}
for _audit in ("nonneg_increments", "increment_monotone", "first_case", "second_case", "converse"):
    _INFO[f"audits.audit_{_audit}"] = lambda args, kw, out: out.samples


class Tracer:
    def __init__(self):
        self.spans = []
        self.command = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"gaussmin.{m}") for m in MODULES}
        wrapped = {}  # original function -> wrapper
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    callable(fn)
                    and not isinstance(fn, type)
                    and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == mod.__name__
                    and f"{short}.{attr}" not in UNTRACED
                ):
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        # every binding a layer is called through: module attributes,
        # from-imports under any alias, and dispatch tables
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if _hashable(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if _hashable(item) and item in wrapped:
                            self._set(value, key, wrapped[item])
        kernels = mods["kernels"]
        for cls in vars(kernels).values():
            if isinstance(cls, type) and issubclass(cls, kernels.Kernel):
                for meth in KERNEL_METHODS:
                    if meth in vars(cls):
                        self._set(cls, meth, self._wrap(f"kernels.{meth}", vars(cls)[meth]))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def self_times(spans):
    """Duration minus direct children's durations, per span."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _outermost(spans, match):
    """Spans that match with no matching ancestor, so nesting is counted once."""
    picked = []
    for s in spans:
        if not match(s[NAME]):
            continue
        p = s[PARENT]
        while p >= 0 and not match(spans[p][NAME]):
            p = spans[p][PARENT]
        if p < 0:
            picked.append(s)
    return picked


def unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", "_us")):
        return name.rsplit("_", 1)[1]
    if name.endswith("_max"):
        return "1"
    return "bytes" if name == "output.bytes" else "count"


def layer_metrics(spans, passes, wall_s, untraced_wall_s, out_bytes, sigma_sq_err_max):
    """Per-layer figures per traced pass, from the spans of `passes` passes."""
    own = self_times(spans)

    def incl(*prefixes):
        hit = _outermost(spans, lambda n: n.startswith(prefixes))
        return sum(s[END] - s[START] for s in hit) / passes

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def per_pass(x):
        return x / passes

    def self_of(prefix):
        return sum(o for s, o in zip(spans, own) if s[NAME].startswith(prefix + ".")) / passes

    solves = named("solver.solve")
    iterations = sum(s[INFO][0] for s in solves)
    solve_s = incl("solver.solve")
    normal_s = incl("montecarlo.normal_block")
    normals = sum(s[INFO] for s in named("montecarlo.normal_block"))
    ldp = named("montecarlo.ldp_curve")
    ldp_self = sum(o for s, o in zip(spans, own) if s[NAME] == "montecarlo.ldp_curve")
    writes = [s for s in spans if s[NAME].startswith(("output.write_", "measures.save_measure"))]
    mains = named("cli.main")
    main_total = sum(s[END] - s[START] for s in mains)
    m = {
        "solver.solve_s": solve_s,
        "solver.iterations": per_pass(iterations),
        "solver.iter_us": 1e6 * solve_s * passes / iterations if iterations else 0.0,
        "solver.gap_max": max((s[INFO][1] for s in solves), default=0.0),
        "solver.sigma_sq_err_max": sigma_sq_err_max,
        "solver.extract_measure_s": incl("solver.extract_measure"),
        "solver.discretize_s": incl("solver.discretize"),
        "solver.discretize_points": per_pass(sum(s[INFO] for s in named("solver.discretize"))),
        "kernels.cov_s": incl("kernels.cov"),
        "kernels.cov_calls": per_pass(len(named("kernels.cov"))),
        "kernels.cov_points": per_pass(sum(s[INFO] for s in _outermost(spans, lambda n: n == "kernels.cov"))),
        "kernels.gamma_s": incl("kernels.gamma"),
        "kernels.increment_s": incl("kernels.increment"),
        "montecarlo.normal_block_s": normal_s,
        "montecarlo.normals": per_pass(normals),
        "montecarlo.normals_per_s": normals / (normal_s * passes) if normal_s else 0.0,
        "montecarlo.paths_self_s": per_pass(ldp_self),
        "montecarlo.ldp_curve_s": incl("montecarlo.ldp_curve"),
        "montecarlo.rel_se_max": max((s[INFO] for s in ldp), default=0.0),
        "montecarlo.factorize_s": incl("montecarlo.factorize"),
        "montecarlo.jitter_max": max((s[INFO] for s in named("montecarlo.factorize")), default=0.0),
        "audits.nonneg_increments_s": incl("audits.audit_nonneg_increments"),
        "audits.converse_s": incl("audits.audit_converse"),
        "audits.increment_monotone_s": incl("audits.audit_increment_monotone"),
        "audits.first_case_s": incl("audits.audit_first_case"),
        "audits.second_case_s": incl("audits.audit_second_case"),
        "audits.samples": per_pass(
            sum(s[INFO] for s in spans if s[NAME].startswith("audits.audit_") and s[INFO])
        ),
        "energy.check_optimality_s": incl("energy.check_optimality"),
        "energy.check_optimality_calls": per_pass(len(named("energy.check_optimality"))),
        "energy.potential_s": incl("energy.potential"),
        "energy.energy_s": incl("energy.energy"),
        "measures.c_star_s": incl("measures.c_star"),
        "measures.measure_io_s": incl("measures.save_measure", "measures.load_measure"),
        "config.load_config_s": incl("config.load_config"),
        "config.build_kernel_s": incl("config.build_kernel"),
        "config.build_kernel_calls": per_pass(len(named("config.build_kernel"))),
        "config.load_tabulated_matrix_s": incl("config.load_tabulated_matrix"),
        "output.write_s": incl("output.write_"),
        "output.files": per_pass(len(writes)),
        "output.bytes": per_pass(out_bytes),
        "cli.main_s": per_pass(main_total),
        "cli.commands": per_pass(len(mains)),
    }
    for code in (0, 2, 3):
        m[f"cli.exit_{code}"] = per_pass(sum(1 for s in mains if s[INFO] == code))
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_of(mod)
    m["bench.harness_s"] = wall_s - per_pass(main_total)
    m["trace.wall_s"] = wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    m["trace.spans"] = per_pass(len(spans))
    return m
