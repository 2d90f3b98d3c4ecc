"""Workload generation and answer checks for the gaussmin benchmark.

Each workload is a fixed list of `Command`s built from the benchmark seed.
Run files are written once into a work directory; a pass executes every
command through `gaussmin.cli.main` from inside its own pass directory, so
relative paths (and therefore stdout) are identical from pass to pass.

Reference values come from this file's own covariance formulas, not from
the package:

    bm      R(s, t) = min(s, t)
    fbm     R(s, t) = (s^2H + t^2H - |t - s|^2H) / 2
    fgn     Gamma(tau) = (|tau - h|^2H - 2 |tau|^2H + |tau + h|^2H) / 2

and `increment` kernels over bm / fbm(H) equal fgn with H = 1/2 / H.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# relative tolerance for a closed-form energy against this file's formula
ENERGY_RTOL = 1e-10
# rounding slack on the solver certificate  sigma_sq - closed_form <= gap
CERT_SLACK = 1e-12
# Monte Carlo hits must lie within this many binomial standard errors of
# trials * p_oracle
MC_SIGMAS = 5.0
VALID_EXITS = (0, 2, 3, 4, 5)

SIZES = {
    "full": {
        "solve_n": 401,
        "solve_big_n": 1601,
        "max_iter": 200_000,
        "sim_cases": ((200, 200_000, (1.0, 1.5, 2.0, 2.5)), (1000, 25_000, (1.0, 1.5, 2.0))),
        "sweep_commands": 500,
        "tab_n": 201,
        "tab_kernels": 4,
    },
    "tiny": {
        "solve_n": 41,
        "solve_big_n": 81,
        "max_iter": 2_000,
        "sim_cases": ((20, 4_000, (1.0, 1.5)), (50, 2_000, (1.0, 1.5))),
        "sweep_commands": 60,
        "tab_n": 21,
        "tab_kernels": 2,
    },
}


@dataclass
class Command:
    kind: str  # gaussmin subcommand
    cfg: str  # run file name inside the work directory's cfg/
    spec: dict  # kernel, interval and grid as this file understands them
    source: int | None = None  # verify: index of the rate that wrote the measure
    tabulated: bool = False
    extra: dict = field(default_factory=dict)

    def argv(self, index):
        args = [self.kind, "--config", f"../cfg/{self.cfg}", "--out", f"c{index}"]
        if self.kind == "verify":
            args += ["--measure", f"c{self.source}/measure.csv"]
        return args


# ---------------------------------------------------------------- formulas


def _pinned_cov(H, s, t):
    if H == 0.5:
        return min(s, t)
    e = 2.0 * H
    return 0.5 * (s**e + t**e - abs(t - s) ** e)


def _gamma(H, h, tau):
    e = 2.0 * H
    return 0.5 * (abs(tau - h) ** e - 2.0 * abs(tau) ** e + abs(tau + h) ** e)


def _hurst_of(spec):
    return spec.get("H", 0.5)


def cov(spec, s, t):
    if spec["kind"] in ("bm", "fbm", "tabulated"):
        return _pinned_cov(_hurst_of(spec), s, t)
    return _gamma(_hurst_of(spec), spec["h"], t - s)


def c_star(spec):
    H, h = _hurst_of(spec), spec["h"]
    g0, gh, g2h = _gamma(H, h, 0.0), _gamma(H, h, h), _gamma(H, h, 2.0 * h)
    return 1.0 + (gh - g2h) / (gh - g0)


def closed_form(spec):
    """(template, sigma_sq, certain) for the configured problem.

    `certain` marks templates the theory guarantees; the three-point form
    also depends on a sampled audit, so rate may decline it.  Returns
    (None, None, True) when no template can apply.
    """
    a, b = spec["a"], spec["b"]
    if spec["kind"] in ("bm", "fbm"):
        if _hurst_of(spec) >= 0.5:
            return "left_endpoint", cov(spec, a, a), True
        return None, None, True
    H, h = _hurst_of(spec), spec["h"]
    width = b - a
    tol = 1e-12 * max(1.0, abs(a), abs(b), h)
    if width <= h + tol:
        return "two_point", 0.5 * (_gamma(H, h, 0.0) + _gamma(H, h, width)), True
    if abs(width - 2.0 * h) <= tol:
        c = c_star(spec)
        g0, gh, g2h = _gamma(H, h, 0.0), _gamma(H, h, h), _gamma(H, h, 2.0 * h)
        e = ((2.0 + c * c) * g0 + 4.0 * c * gh + 2.0 * g2h) / (2.0 + c) ** 2
        return "three_point", e, False
    return None, None, True


# ---------------------------------------------------------------- run files


def ini(spec, max_iter=None, mc=None):
    lines = ["[kernel]", f"kind = {spec['kind']}"]
    for key in ("base", "H", "h", "path"):
        if key in spec:
            lines.append(f"{key} = {spec[key]!r}" if key in ("H", "h") else f"{key} = {spec[key]}")
    lines += ["", "[interval]", f"a = {spec['a']!r}", f"b = {spec['b']!r}", "", "[grid]", f"n = {spec['n']}"]
    if max_iter is not None:
        lines += ["", "[solver]", "tol = 1e-9", f"max_iter = {max_iter}"]
    if mc is not None:
        u_list = ", ".join(repr(u) for u in mc["u_list"])
        lines += ["", "[mc]", f"u_list = {u_list}", f"trials = {mc['trials']}", f"seed = {mc['seed']}"]
    lines += ["", "[output]", "formats = csv, svg", ""]
    return "\n".join(lines)


def tabulated_csv(spec):
    """(i, j, value) rows of the pinned kernel on the n-node grid."""
    a, b, n = spec["a"], spec["b"], spec["n"]
    nodes = [a + (b - a) * k / (n - 1) for k in range(n)]
    nodes[-1] = b
    rows = ["i,j,value"]
    for i, s in enumerate(nodes):
        for j, t in enumerate(nodes):
            # symmetric by construction: evaluate on the ordered pair
            rows.append(f"{i},{j},{cov(spec, min(s, t), max(s, t))!r}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------- workloads


def solve_workload(seed, size):
    """Five fixed run files; the seed does not change them."""
    z = SIZES[size]
    n, big = z["solve_n"], z["solve_big_n"]
    specs = [
        {"kind": "fgn", "H": 0.75, "h": 1.0, "a": 0.0, "b": 2.0, "n": n},
        {"kind": "fgn", "H": 0.75, "h": 1.0, "a": 0.0, "b": 1.0, "n": n},
        {"kind": "fgn", "H": 0.3, "h": 1.0, "a": 0.0, "b": 3.0, "n": n},
        {"kind": "fbm", "H": 0.75, "a": 1.0, "b": 2.0, "n": big},
        {"kind": "fgn", "H": 0.75, "h": 1.0, "a": 0.0, "b": 2.0, "n": big},
    ]
    files = {f"solve{i}.ini": ini(s, max_iter=z["max_iter"]) for i, s in enumerate(specs)}
    cmds = [Command("solve", f"solve{i}.ini", s) for i, s in enumerate(specs)]
    return cmds, files, {}


def simulate_workload(seed, size):
    """Brownian motion on [1, 2] at a short and a long path length."""
    cmds, files = [], {}
    for i, (n, trials, levels) in enumerate(SIZES[size]["sim_cases"]):
        spec = {"kind": "bm", "a": 1.0, "b": 2.0, "n": n}
        mc = {"u_list": levels, "trials": trials, "seed": seed * 2 + i}
        files[f"sim{i}.ini"] = ini(spec, mc=mc)
        cmds.append(Command("simulate", f"sim{i}.ini", spec, extra=mc))
    return cmds, files, {}


def _round(x):
    return round(x, 4)


# The sweep is stratified: the k-th kernel of each command kind takes its
# family, Hurst range, width case and grid size from k, and only the
# continuous parameters and the command order come from the seed, so every
# seed does about the same work.
_GRID_SIZES = (101, 201, 401)

# The command mix.  Verifies on a tabulated kernel file are 1% of the
# commands.  The other commands are split so that each kind gets the same
# share of the pass time: a kind's count is proportional to 1 / its mean
# latency below.  Each kind leans on its own layers (rate: energy and the
# optimality check; assumptions: audits; verify: measure reads; figures:
# c* and most of the output), so each of those layers weighs about a quarter
# of the untabulated time and no one kind dominates wall_s.  Mean ms per
# command, measured with the 500-command sweep of seed 1 over three passes
# at commit 50ff45c on a 2-vCPU Xeon with GAUSSMIN_THREADS=2.  The shares
# need only be roughly right, so the constants stay fixed and the command
# list stays the same when the program gets faster.
TABULATED_SHARE = 0.01
COMMAND_MS = {"rate": 4.49, "assumptions": 4.50, "verify": 4.19, "figures": 26.17}


def _draw_hurst(rng, k):
    return _round(rng.uniform(0.05, 0.5) if k % 2 == 0 else rng.uniform(0.5, 0.95))


def _pinned_spec(rng, k, n=None):
    a = _round(rng.uniform(0.1, 2.0))
    spec = {"a": a, "b": _round(a + rng.uniform(0.1, 3.0)), "n": n or _GRID_SIZES[k % 3]}
    if k % 5 == 4:
        return {"kind": "bm", **spec}
    return {"kind": "fbm", "H": _draw_hurst(rng, k), **spec}


def _stationary_spec(rng, k):
    h = _round(rng.uniform(0.25, 2.0))
    a = 0.0 if k % 2 == 0 else _round(rng.uniform(0.0, 2.0))
    width = (
        h,
        h * rng.uniform(0.2, 1.0),
        2.0 * h,
        h * rng.uniform(1.05, 1.95),
    )[k % 4]
    spec = {"h": h, "a": a, "b": a + width, "n": _GRID_SIZES[k % 3]}
    family = (k // 4) % 5
    if family == 3:
        return {"kind": "increment", "base": "bm", **spec}
    H = _draw_hurst(rng, k // 20)
    if family == 4:
        return {"kind": "increment", "base": "fbm", "H": H, **spec}
    return {"kind": "fgn", "H": H, **spec}


def sweep_workload(seed, size):
    """Many small rate / assumptions / verify / figures commands."""
    z = SIZES[size]
    rng = random.Random(seed)
    cmds, files, tab_files = [], {}, {}

    def add(kind, spec, **kw):
        name = f"k{len(cmds)}.ini"
        files[name] = ini(spec)
        cmds.append(Command(kind, name, spec, **kw))

    # each tabulated kernel gets a rate on its analytic twin, whose
    # left-endpoint measure the tabulated verifies read
    tab_sources = []
    for t in range(z["tab_kernels"]):
        spec = _pinned_spec(rng, 2 * t + 1, n=z["tab_n"])  # odd k: bm or fbm with H >= 0.5
        tab_files[f"tab{t}.csv"] = tabulated_csv(spec)
        tab_sources.append(len(cmds))
        add("rate", spec)
    total = z["sweep_commands"]
    plan = {"tabulated": max(1, round(TABULATED_SHARE * total))}
    rest = total - len(cmds) - plan["tabulated"]
    weight = {kind: 1.0 / ms for kind, ms in COMMAND_MS.items()}
    for kind in ("figures", "verify", "assumptions"):
        plan[kind] = round(rest * weight[kind] / sum(weight.values()))
    plan["rate"] = total - len(cmds) - sum(plan.values())
    order = [kind for kind, count in plan.items() for _ in range(count)]
    rng.shuffle(order)
    seen = dict.fromkeys(plan, 0)
    verifiable = list(tab_sources)
    for kind in order:
        k = seen[kind]
        seen[kind] += 1
        if kind == "tabulated":
            t = k % len(tab_sources)
            src = cmds[tab_sources[t]].spec
            spec = {"kind": "tabulated", "path": f"../tab/tab{t}.csv", "a": src["a"], "b": src["b"], "n": src["n"]}
            add("verify", spec, source=tab_sources[t], tabulated=True)
        elif kind == "verify":
            src = rng.choice(verifiable[-50:])
            add("verify", cmds[src].spec, source=src)
        elif kind == "figures":
            add("figures", _stationary_spec(rng, k))
        else:
            spec = _pinned_spec(rng, k // 2) if k % 2 == 0 else _stationary_spec(rng, k // 2)
            name, _, certain = closed_form(spec)
            if kind == "rate" and name and certain:
                verifiable.append(len(cmds))
            add(kind, spec)
    return cmds, files, {f"tab/{k}": v for k, v in tab_files.items()}


WORKLOADS = {"solve": solve_workload, "simulate": simulate_workload, "sweep": sweep_workload}


# ---------------------------------------------------------------- checks


def rel_se_max(hits, trials):
    """Largest relative standard error sqrt((1 - p) / (p trials)) over levels with a hit."""
    p = [h / trials for h in hits if h]
    return max(((1.0 - q) / (q * trials)) ** 0.5 for q in p) if p else 0.0


def ldp_hits(ldp_csv):
    """(level, hits) rows of a simulate ldp.csv."""
    rows = [line.split(",") for line in ldp_csv.decode().splitlines()[1:]]
    return [(float(r[0]), int(r[2])) for r in rows]


def parse_pairs(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _close(x, ref, rtol):
    return abs(x - ref) <= rtol * max(1.0, abs(ref))


class Checker:
    """Decides whether one command's outcome is a failure.

    `check(index, cmd, code, stdout, files, results)` returns None for a
    valid answer or a one-line reason.  `results` maps earlier command
    indexes of the same pass to their parsed stdout.  Counts of each check
    that ran are kept in `ran`, so a run can prove none was bypassed.
    """

    def __init__(self, oracle=None):
        self.oracle = oracle or {}  # (n, u) -> P(grid min > u)
        self.ran = {}
        self.sigma_sq_err_max = 0.0

    def count(self, name):
        self.ran[name] = self.ran.get(name, 0) + 1

    def check(self, cmd, code, out, files, results):
        if code == "exception":
            return "exception escaped main"
        if code not in VALID_EXITS:
            return f"exit code {code} outside {VALID_EXITS}"
        if code in (4, 5):
            return f"exit {code} on a generated-valid run file"
        try:
            return getattr(self, f"_{cmd.kind}")(cmd, code, parse_pairs(out), files, results)
        except (KeyError, ValueError, IndexError) as exc:
            # an output line, a file or a field the check needs is missing or malformed
            return f"{cmd.kind} output incomplete: {type(exc).__name__} {exc}"

    def _rate(self, cmd, code, kv, files, results):
        self.count("rate_closed_form")
        name, ref, certain = closed_form(cmd.spec)
        if code == 3:
            if name is not None and certain:
                return f"rate found no closed form but {name} applies"
            return None
        if name is None:
            return f"rate reported {kv.get('closed_form')} where no template applies"
        if kv.get("closed_form") != name:
            return f"rate picked {kv.get('closed_form')}, expected {name}"
        if not _close(float(kv["sigma_sq"]), ref, ENERGY_RTOL):
            return f"rate sigma_sq {kv['sigma_sq']} != closed form {ref!r}"
        if (code == 0) != (kv.get("verified") == "True") or "measure.csv" not in files:
            return "rate exit code, verified flag and measure file disagree"
        return None

    def _verify(self, cmd, code, kv, files, results):
        self.count("verify_tabulated" if cmd.tabulated else "verify_against_rate")
        src = results.get(cmd.source)
        if src is None:
            return "verify ran without the rate that wrote its measure"
        if not _close(float(kv["sigma_sq"]), float(src["sigma_sq"]), 1e-12):
            return f"verify sigma_sq {kv['sigma_sq']} != rate's {src['sigma_sq']}"
        expected = "True" if cmd.tabulated else src.get("verified")
        if kv.get("verified") != expected or (code == 0) != (expected == "True"):
            return f"verify verified={kv.get('verified')} exit {code}, expected {expected}"
        return None

    def _assumptions(self, cmd, code, kv, files, results):
        self.count("assumptions")
        passed = kv.get("all_passed")
        if (code == 0) != (passed == "True"):
            return "assumptions exit code and all_passed disagree"
        if cmd.spec["kind"] in ("bm", "fbm"):
            expect = "True" if _hurst_of(cmd.spec) >= 0.5 else "False"
            if kv.get("applicable_audits") != "2" or passed != expect:
                return f"pinned-kernel audits gave all_passed={passed}, expected {expect}"
        elif kv.get("applicable_audits") != "3":
            return "increment kernel did not run its three audits"
        return None

    def _figures(self, cmd, code, kv, files, results):
        self.count("figures")
        if code != 0:
            return f"figures exit {code}"
        if not _close(float(kv["interior_weight"]), c_star(cmd.spec), 1e-12):
            return f"figures interior_weight {kv['interior_weight']} != {c_star(cmd.spec)!r}"
        listed = kv.get("files", "").split(";")
        if len(listed) != 12 or not set(listed) <= set(files):
            return "figures did not write its twelve CSV/SVG files"
        return None

    def _solve(self, cmd, code, kv, files, results):
        self.count("solve")
        converged = kv.get("converged") == "True"
        if (code == 0) != converged:
            return "solve exit code and converged flag disagree"
        sigma_sq, gap = float(kv["sigma_sq"]), float(kv["equilibrium_gap"])
        name, ref, _ = closed_form(cmd.spec)
        if name is None:
            # no closed form: a Dirac is feasible, so the energy cannot exceed the variance
            return None if 0.0 < sigma_sq <= cov(cmd.spec, cmd.spec["a"], cmd.spec["a"]) else "solve energy out of range"
        self.count("solve_certificate")
        err = sigma_sq - ref
        self.sigma_sq_err_max = max(self.sigma_sq_err_max, abs(err))
        slack = CERT_SLACK * max(1.0, abs(ref))
        if not -slack <= err <= gap + slack:
            return f"certificate broken: sigma_sq - closed_form = {err!r}, gap = {gap!r}"
        return None

    def _simulate(self, cmd, code, kv, files, results):
        if code != 0:
            return f"simulate exit {code}"
        trials = cmd.extra["trials"]
        for u, hits in ldp_hits(files["ldp.csv"]):
            p = self.oracle[(cmd.spec["n"], u)]
            self.count("mc_oracle")
            sd = math.sqrt(trials * p * (1.0 - p))
            if abs(hits - trials * p) > MC_SIGMAS * sd:
                return f"u={u}: {hits} hits, oracle expects {trials * p:.1f} +- {sd:.1f}"
        return None
