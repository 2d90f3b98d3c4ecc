"""Every command maps every run file to a documented exit code.

Random run files, tables, measures and flags go through `cli.main` for all
six commands.  Most draws are valid run files, so the numerical paths run
(closed forms, the solver, the audits, Monte Carlo, the figures); the rest
carry one defect: a malformed or out-of-range value, a missing section, an
unknown key, a bad table or measure file, or a bad flag.  Endpoints and
the lag also take extreme values (infinite, nan, or finite near the top of
the float range, where covariances overflow).  The contract: the exit code
is one of 0, 2, 3, 4, 5, and no exception escapes.  Sizes stay small
(n <= 41, trials <= 200, max_iter <= 2000) so the sweep takes seconds.
"""

import contextlib
import copy
import io
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmin.cli import main

COMMANDS = ("rate", "solve", "verify", "assumptions", "simulate", "figures")
EXIT_CODES = {0, 2, 3, 4, 5}

# malformed or out-of-range replacements for any one value of a run file
BAD_VALUES = ("", "abc", "-1", "0", "2", "nan", "inf", "1e400", "pdf")
# endpoint and lag values at or past the edge of the float range
EXTREMES = (float("inf"), float("-inf"), float("nan"), 1e300, 1e308, -1e308)


def _kernel_section(draw, kind, H, h):
    if kind == "bm":
        return {"kind": kind}
    if kind == "fbm":
        return {"kind": kind, "H": H}
    if kind == "fgn":
        return {"kind": kind, "H": H, "h": h}
    if kind == "increment":
        base = draw(st.sampled_from(["bm", "fbm"]))
        return {"kind": kind, "base": base, "h": h} | ({"H": H} if base == "fbm" else {})
    return {"kind": kind, "path": "table.csv"}


def _table(draw, size):
    """An i,j,value table on `size` nodes: usually a covariance, sometimes not."""
    kind = draw(st.sampled_from(["psd", "psd", "zero", "indefinite", "short", "garbage"]))
    if kind == "garbage":
        return "i,j,value\n0,0,x\n"
    rows = ["i,j,value"]
    for i in range(size):
        for j in range(size):
            if kind == "short" and i == j == size - 1:
                continue
            value = {
                "psd": 0.7 ** abs(i - j),
                "zero": 0.0,
                "indefinite": -1.0 if i == j else 0.0,
                "short": 1.0 if i == j else 0.0,
            }[kind]
            rows.append(f"{i},{j},{value!r}")
    return "\n".join(rows) + "\n"


def _measure(draw, a, b):
    kind = draw(st.sampled_from(["inside", "inside", "outside", "unnormalized", "garbage"]))
    if kind == "garbage":
        return draw(st.sampled_from(["", "x\n", "location,weight\n1\n", "location,weight\n0,0\n"]))
    atoms = draw(st.integers(1, 3))
    # an interval the run file rejects still gets a measure file
    span = st.floats(a, b) if math.isfinite(a) and math.isfinite(b) and a <= b else st.just(a)
    locs = [draw(span) for _ in range(atoms)]
    if kind == "outside":
        locs[0] = b + 1.0
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(atoms)]
    total = sum(weights) if kind != "unnormalized" else 1.0
    return "location,weight\n" + "".join(
        f"{x!r},{w / total!r}\n" for x, w in zip(locs, weights)
    )


@st.composite
def invocations(draw):
    """One run file per kernel kind around shared draws, plus the other files."""
    H = draw(st.one_of(st.sampled_from([0.3, 0.5, 0.75]), st.floats(0.05, 0.95)))
    h = draw(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.1, 2.0), st.sampled_from(EXTREMES)))
    a = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 3.0), st.sampled_from(EXTREMES)))
    # widths of h and 2h are where the two- and three-point closed forms apply
    width = draw(st.one_of(st.sampled_from([h, 2.0 * h, 0.5 * h]), st.floats(0.1, 3.0)))
    b = draw(st.one_of(st.just(a + width), st.just(2.0 * a), st.sampled_from(EXTREMES)))
    n = draw(st.integers(2, 41))
    sections = {
        "kernel": {},
        "interval": {"a": a, "b": b},
        "grid": {"n": n},
        "solver": {
            "tol": draw(st.sampled_from([1e-9, 1e-6, 1e-3])),
            "max_iter": draw(st.integers(1, 2000)),
            "prune": draw(st.sampled_from([0.0, 1e-4, 0.01])),
        },
        "audit": {
            "samples": draw(st.integers(1, 200)),
            "seed": draw(st.integers(0, 5)),
            "b_samples": draw(st.integers(1, 5)),
        },
        "mc": {
            "u_list": draw(st.sampled_from(["1.0", "0.5, 1.0, 1.5"])),
            "trials": draw(st.integers(1, 200)),
            "seed": draw(st.integers(0, 5)),
        },
        "output": {"formats": draw(st.sampled_from(["csv", "csv, svg"]))},
    }
    if draw(st.booleans()):
        sections["mc"]["sigma_sq"] = draw(st.floats(0.1, 2.0))
    for name in ("solver", "audit", "output"):
        if draw(st.booleans()):
            del sections[name]

    runs = []
    for kind in ("bm", "fbm", "fgn", "increment", "tabulated"):
        sections["kernel"] = _kernel_section(draw, kind, H, h)
        runs.append(copy.deepcopy(sections))
    defect = draw(st.sampled_from(["none", "value", "section", "unknown", "flag"]))
    for run in runs:
        if defect == "value":
            name = draw(st.sampled_from(sorted(run)))
            key = draw(st.sampled_from(sorted(run[name])))
            run[name][key] = draw(st.sampled_from(BAD_VALUES))
        elif defect == "section":
            del run[draw(st.sampled_from(sorted(run)))]
        elif defect == "unknown":
            run.setdefault(draw(st.sampled_from(["grid", "extra"])), {})["step"] = 0.1

    texts = [
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
            for name, body in run.items()
        )
        for run in runs
    ]
    files = {"table.csv": _table(draw, n), "mu.csv": _measure(draw, a, b)}
    extra = ["--out", "out"] if draw(st.booleans()) else []
    if defect == "flag":
        extra += draw(st.sampled_from([["--bogus"], ["--measure"], ["--tol", "1"]]))
    tol = draw(st.sampled_from([[], ["--tol", "0.01"], ["--tol", "-1"], ["--tol", "0"], ["--tol", "nan"]]))
    return texts, files, extra, tol


@settings(max_examples=100, derandomize=True, deadline=None)
@given(invocations())
def test_every_input_gets_a_documented_exit_code(invocation):
    texts, files, extra, tol = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as handle:
                handle.write(text)
        config = os.path.join(tmp, "run.ini")
        for text in texts:
            with open(config, "w") as handle:
                handle.write(text)
            for command in COMMANDS:
                argv = [command, "--config", config]
                if command == "verify":
                    argv += ["--measure", os.path.join(tmp, "mu.csv")] + tol
                argv += [os.path.join(tmp, x) if x == "out" else x for x in extra]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                    io.StringIO()
                ):
                    code = main(argv)
                assert code in EXIT_CODES, (argv, text, code)
