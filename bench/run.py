"""End-to-end benchmark for gaussmin.

    python3 bench/run.py --workload {solve,simulate,sweep} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout.  Every command goes through
`gaussmin.cli.main(argv)` in this process, one after the other (a closed
loop with one client).  A pass runs the workload's whole command list; passes
repeat until about S seconds are measured, with at least two, and every pass
after the first must reproduce the first byte for byte.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones: passes alternate between untraced and traced
with every layer wrapped (see tracing.py), and the difference of their mean
pass times is the tracing overhead.

Run files, tables and --out directories live in a scratch directory under
.bench_work/ in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import SIZES, WORKLOADS, Checker, ldp_hits, parse_pairs, rel_se_max

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up is timed SETUP_FIRST times before the first pass and SETUP_EACH
# times after each pass, SETUP_MAX in all, so its median spans the host's
# slow and fast spells
SETUP_FIRST, SETUP_EACH, SETUP_MAX = 5, 3, 15
# what a fresh interpreter does before its first command can start
SETUP_CODE = """
import gaussmin.cli
from gaussmin.kernels import BrownianMotion
from gaussmin.measures import Grid
from gaussmin.montecarlo import factorize
from gaussmin.solver import discretize
factorize(discretize(BrownianMotion(), Grid(1.0, 2.0, 64)))
"""
SINGLE_THREAD_CODE = """
import sys, time
from gaussmin.cli import main
t = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - t, code)
"""
REQUIRED_CHECKS = {
    "solve": ("solve", "solve_certificate", "determinism"),
    "simulate": ("mc_oracle", "determinism"),
    "sweep": (
        "rate_closed_form",
        "verify_against_rate",
        "verify_tabulated",
        "assumptions",
        "figures",
        "determinism",
    ),
}


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cap_threads():
    """GAUSSMIN_THREADS no higher than nproc, set before numpy loads."""
    nproc = _nproc()
    try:
        cap = int(os.environ.get("GAUSSMIN_THREADS", nproc))
    except ValueError:
        cap = nproc
    os.environ["GAUSSMIN_THREADS"] = str(max(1, min(cap, nproc)))
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    sys.path[:0] = [SRC, TESTS, HERE]


def _child_env(threads=None):
    env = dict(os.environ)
    if threads is not None:
        for var in BLAS_VARS:
            env.pop(var, None)
        env["GAUSSMIN_THREADS"] = str(threads)
    return env


def _git_commit():
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # stop at the checkout, so a repository around it is not reported
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment(args, sizes):
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    return {
        "cpu": cpu,
        "nproc": _nproc(),
        "GAUSSMIN_THREADS": os.environ["GAUSSMIN_THREADS"],
        **{var: os.environ.get(var, "") for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "sizes": sizes,
    }


def measure_setup(repeats):
    """Wall times of fresh interpreters importing gaussmin and making a first BLAS call."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), check=True, timeout=120)
        times.append(time.perf_counter() - t)
    return times


def _read_outputs(directory):
    files = {}
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as f:
                files[name] = f.read()
    return files


class Runner:
    """Runs passes over one command list and checks every answer."""

    def __init__(self, cli, cmds, work, checker):
        self.cli, self.cmds, self.work, self.checker = cli, cmds, work, checker
        self.passes = []  # per pass: {"wall", "lat", "codes", "traced"}
        self.reference = None  # pass 0: per command (stdout, {file: digest})
        self.failures = []
        self.attempted = 0
        self.out_bytes = []
        self.mc_rel_se = []

    def run_pass(self, tracer=None):
        index = len(self.passes)
        pass_dir = os.path.join(self.work, f"pass{index}")
        os.makedirs(pass_dir)
        records = []
        cwd = os.getcwd()
        os.chdir(pass_dir)
        start = time.perf_counter()
        try:
            for i, cmd in enumerate(self.cmds):
                out, err = io.StringIO(), io.StringIO()
                if tracer is not None:
                    tracer.command = i
                t = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = self.cli.main(cmd.argv(i))
                except Exception as exc:  # noqa: BLE001 - an escape is a measured failure
                    code = "exception"
                    err.write(repr(exc))
                records.append((time.perf_counter() - t, code, out.getvalue(), err.getvalue()))
        finally:
            wall = time.perf_counter() - start
            os.chdir(cwd)
        self._check_pass(index, pass_dir, records)
        shutil.rmtree(pass_dir)
        self.passes.append(
            {"wall": wall, "lat": [r[0] for r in records], "codes": [r[1] for r in records], "traced": tracer is not None}
        )
        return wall

    def _check_pass(self, index, pass_dir, records):
        parsed, digests, nbytes = {}, [], 0
        for i, (cmd, (_, code, out, err)) in enumerate(zip(self.cmds, records)):
            self.attempted += 1
            files = _read_outputs(os.path.join(pass_dir, f"c{i}"))
            nbytes += sum(len(v) for v in files.values())
            digest = (out, {k: hashlib.sha256(v).hexdigest() for k, v in files.items()})
            digests.append(digest)
            reason = self.checker.check(cmd, code, out, files, parsed)
            if reason is None and self.reference is not None:
                self.checker.count("determinism")
                if digest != self.reference[i]:
                    reason = "output differs from the first pass"
            if reason is not None:
                self.failures.append(f"pass {index} command {i} ({cmd.kind} {cmd.cfg}): {reason}; {err.strip()[:200]}")
            parsed[i] = parse_pairs(out)
            if cmd.kind == "simulate" and reason is None:
                hits = [h for _, h in ldp_hits(files["ldp.csv"])]
                self.mc_rel_se.append((index, i, rel_se_max(hits, cmd.extra["trials"])))
        if self.reference is None:
            self.reference = digests
        self.out_bytes.append(nbytes)

    def loop(self, seconds, tracer=None, between=None):
        """Passes until the measured time is nearest `seconds`, at least two.

        With a tracer every second pass runs traced, so traced and untraced
        passes see the same drift in host speed.  `between` runs untimed
        after each pass.
        """
        spent = 0.0
        while len(self.passes) < 2 or spent + 0.5 * spent / len(self.passes) <= seconds:
            traced = tracer is not None and len(self.passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                spent += self.run_pass(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if between is not None:
                between()
        return spent


def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    None below twenty samples, where that percentile would sit under the median.
    """
    lat = sorted(latencies)
    if len(lat) < 20:
        return None
    k = len(lat) - 11
    return {"value_ms": 1e3 * lat[k], "percentile": 100.0 * (k + 1) / len(lat), "samples": len(lat)}


def end_to_end(runner, cmds, setup_s):
    """(metrics BENCHMARK.json names, every end-to-end figure as name -> (value, unit), detail)."""
    untraced = [p for p in runner.passes if not p["traced"]]
    lat = [x for p in untraced for x in p["lat"]]
    codes = [c for p in untraced for c in p["codes"]]
    spent = sum(p["wall"] for p in untraced)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p["wall"] for p in untraced), "s"),
        "ok_frac": (codes.count(0) / len(codes), "ratio"),
    }
    report = {
        "setup_s": metrics["setup_s"],
        "wall_s": metrics["wall_s"],
        "fail_frac": (len(runner.failures) / runner.attempted, "ratio"),
        "cmds_per_s": (len(lat) / spent, "1/s"),
        "cmd_p50_ms": (1e3 * statistics.median(lat), "ms"),
    }
    detail = {
        "passes": len(untraced),
        "commands_per_pass": len(cmds),
        "pass_walls_s": [p["wall"] for p in untraced],
        "exit_codes": {str(c): codes.count(c) for c in sorted(set(codes), key=str)},
    }
    worst = tail(lat)
    if worst is not None:
        report["cmd_tail_ms"] = (worst["value_ms"], "ms")
        detail["cmd_tail"] = worst
    if cmds[0].kind == "solve":
        report["solved_frac"] = metrics["ok_frac"]
    if cmds[0].kind == "simulate":
        nodes = sum(c.extra["trials"] * c.spec["n"] for c in cmds)
        report["mc_nodes_per_s"] = (nodes * len(untraced) / spent, "1/s")
        cost = {}
        for index, i, rel_se in runner.mc_rel_se:
            if not runner.passes[index]["traced"]:
                cost[index] = cost.get(index, 0.0) + runner.passes[index]["lat"][i] * (rel_se / 0.01) ** 2
        report["mc_s_to_1pct"] = (statistics.median(cost.values()), "s")
    return metrics, report, detail


def oracle_values(cmds):
    import oracles

    values = {}
    for cmd in cmds:
        for u in cmd.extra["u_list"]:
            key = (cmd.spec["n"], float(u))
            if key not in values:
                values[key] = oracles.discrete_min_tail(cmd.spec["a"], cmd.spec["b"], cmd.spec["n"], u)
    return values


def single_thread_simulate(work, cfg):
    """One simulate at GAUSSMIN_THREADS=1 in a fresh interpreter."""
    out = os.path.join(work, "single-thread")
    argv = ["simulate", "--config", os.path.join(work, "cfg", cfg), "--out", out]
    res = subprocess.run(
        [sys.executable, "-c", SINGLE_THREAD_CODE, *argv],
        env=_child_env(threads=1),
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    seconds, code = res.stdout.split()[-2:]
    return {"config": cfg, "seconds": float(seconds), "exit": int(code)}


def layer_table(metrics):
    from tracing import MODULES

    wall = metrics["trace.wall_s"]
    rows = [f"{'layer':<12}{'self_s':>12}{'share':>9}"]
    for name in [*MODULES, "bench"]:
        key = "bench.harness_s" if name == "bench" else f"{name}.self_s"
        rows.append(f"{name:<12}{metrics[key]:>12.6f}{metrics[key] / wall:>9.1%}")
    rows.append(f"traced wall_s {wall:.6f} (the self times above add up to it)")
    rows.append(f"tracing overhead {metrics['trace.overhead_s']:+.6f} s per pass (untraced wall_s {metrics['trace.untraced_wall_s']:.6f})")
    return "\n".join(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REQUIRED_CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "gaussmin", "cli.py")) or not os.path.exists(
        os.path.join(TESTS, "oracles.py")
    ):
        print(f"error: no gaussmin sources (src/gaussmin, tests/oracles.py) under {ROOT}", file=sys.stderr)
        return 2

    _cap_threads()
    import gaussmin.cli  # noqa: F401  applies the thread caps before numpy loads
    from tracing import Tracer, layer_metrics, unit  # imports numpy, so after the caps

    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base, prefix=f"{args.workload}-")
    try:
        cmds, files, extra_files = WORKLOADS[args.workload](args.seed, args.size)
        for rel, text in [*((f"cfg/{k}", v) for k, v in files.items()), *extra_files.items()]:
            path = os.path.join(work, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(text)
        oracle = oracle_values(cmds) if args.workload == "simulate" else {}
        checker = Checker(oracle)
        runner = Runner(gaussmin.cli, cmds, work, checker)
        env = environment(args, SIZES[args.size])
        if args.trace:
            tracer = Tracer()
            runner.loop(args.seconds, tracer=tracer)
            traced = [p for p in runner.passes if p["traced"]]
            layers = layer_metrics(
                tracer.spans,
                len(traced),
                statistics.mean(p["wall"] for p in traced),
                statistics.mean(p["wall"] for p in runner.passes if not p["traced"]),
                statistics.mean(b for b, p in zip(runner.out_bytes, runner.passes) if p["traced"]),
                checker.sigma_sq_err_max,
            )
            if args.workload == "simulate":
                env["single_thread_simulate"] = single_thread_simulate(work, cmds[0].cfg)
                env["single_thread_simulate"]["threaded_seconds"] = statistics.median(
                    p["lat"][0] for p in runner.passes if not p["traced"]
                )
            metrics = {k: (v, unit(k)) for k, v in layers.items()}
        else:
            setup = measure_setup(SETUP_FIRST)
            runner.loop(
                args.seconds,
                between=lambda: setup.extend(measure_setup(min(SETUP_EACH, SETUP_MAX - len(setup)))),
            )
            env["setup_runs_s"] = setup
            metrics, report, detail = end_to_end(runner, cmds, statistics.median(setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)

    missing = [c for c in REQUIRED_CHECKS[args.workload] if not checker.ran.get(c)]
    print("environment " + json.dumps(env))
    print("checks " + json.dumps(checker.ran, sort_keys=True) + (f" missing {missing}" if missing else ""))
    for failure in runner.failures[:20]:
        print("FAILED " + failure)
    if args.trace:
        print(layer_table(layers))
    else:
        print("detail " + json.dumps(detail))
        for name, (value, unit) in report.items():
            print(f"{name:<16} {value:.6g} {unit}")
    result = {
        "correct": not runner.failures and not missing,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
