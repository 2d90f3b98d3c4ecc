"""Run configuration: INI-style sections, strict keys, validated ranges.

A run file looks like:

    [kernel]
    kind = fgn
    H = 0.75
    h = 1.0

    [interval]
    a = 0.0
    b = 2.0

    [grid]
    n = 401

    [solver]
    tol = 1e-9
    max_iter = 200000

    [audit]
    samples = 10000
    seed = 0
    b_samples = 11

    [mc]
    u_list = 1.0, 1.5, 2.0
    trials = 1000000
    seed = 0

    [output]
    dir = out
    formats = csv, svg

Unknown sections or keys are rejected, every numeric field must be finite
and is range checked at load, and any referenced file must exist.
Commands requiring a section that is absent fail with ConfigError at
dispatch.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .kernels import (
    BrownianMotion,
    FractionalBM,
    FractionalGaussianNoise,
    IncrementOf,
    Tabulated,
)

__all__ = ["RunConfig", "load_config"]

_SCHEMA = {
    "kernel": {"kind", "H", "h", "base", "path"},
    "interval": {"a", "b"},
    "grid": {"n"},
    "solver": {"tol", "max_iter", "prune"},
    "audit": {"samples", "seed", "b_samples"},
    "mc": {"u_list", "trials", "seed", "sigma_sq"},
    "output": {"dir", "formats"},
}
_KERNEL_KINDS = {
    "bm": "bm",
    "brownianmotion": "bm",
    "fbm": "fbm",
    "fractionalbm": "fbm",
    "fgn": "fgn",
    "fractionalgaussiannoise": "fgn",
    "increment": "increment",
    "incrementof": "increment",
    "tabulated": "tabulated",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated settings; optional groups are None when their section is absent.

    `kernel` is the kernel built from `kernel_kind` and `kernel_params`;
    load_config sets it, so commands never build (or read a table) twice.
    """

    kernel_kind: str
    kernel_params: dict
    a: float | None
    b: float | None
    n: int
    tol: float
    max_iter: int
    prune: float
    audit_samples: int
    audit_seed: int
    b_samples: int
    u_list: tuple | None
    trials: int | None
    mc_seed: int
    mc_sigma_sq: float | None
    out_dir: str | None
    formats: tuple = ("csv",)
    base_dir: str = "."
    kernel: object = field(default=None, compare=False, repr=False)

    def interval(self):
        if self.a is None or self.b is None:
            raise ConfigError("this command needs an [interval] section with a and b")
        return self.a, self.b


def _parse_float(section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {value}")
    return value


def _parse_int(section, key, raw):
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from None
    return value


def load_config(path):
    """Parse and validate a run file; raises ConfigError on any defect."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive so H (index) and h (lag) coexist
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}] of {path}")

    base_dir = os.path.dirname(os.path.abspath(path))

    if not parser.has_section("kernel") or "kind" not in parser["kernel"]:
        raise ConfigError(f"{path}: [kernel] section with 'kind' is required")
    raw_kind = parser["kernel"]["kind"].strip().lower()
    if raw_kind not in _KERNEL_KINDS:
        raise ConfigError(f"unknown kernel kind {raw_kind!r}")
    kind = _KERNEL_KINDS[raw_kind]

    params = {}
    ksec = parser["kernel"]
    if "H" in ksec:
        params["H"] = _parse_float("kernel", "H", ksec["H"])
    if "h" in ksec:
        params["h"] = _parse_float("kernel", "h", ksec["h"])
    if "base" in ksec:
        params["base"] = ksec["base"].strip().lower()
    if "path" in ksec:
        params["path"] = os.path.join(base_dir, ksec["path"].strip())

    a = b = None
    if parser.has_section("interval"):
        isec = parser["interval"]
        if "a" not in isec or "b" not in isec:
            raise ConfigError(f"{path}: [interval] needs both a and b")
        a = _parse_float("interval", "a", isec["a"])
        b = _parse_float("interval", "b", isec["b"])
        if not a < b:
            raise ConfigError(f"[interval] needs a < b, got [{a}, {b}]")
        if not math.isfinite(b - a):
            raise ConfigError(f"[interval] width b - a overflows, got [{a}, {b}]")

    n = 401
    if parser.has_section("grid") and "n" in parser["grid"]:
        n = _parse_int("grid", "n", parser["grid"]["n"])
        if n < 2:
            raise ConfigError(f"[grid] n must be at least 2, got {n}")

    tol, max_iter, prune = 1e-9, 200_000, 1e-4
    if parser.has_section("solver"):
        ssec = parser["solver"]
        if "tol" in ssec:
            tol = _parse_float("solver", "tol", ssec["tol"])
            if tol <= 0.0:
                raise ConfigError(f"[solver] tol must be positive, got {tol}")
        if "max_iter" in ssec:
            max_iter = _parse_int("solver", "max_iter", ssec["max_iter"])
            if max_iter < 1:
                raise ConfigError(f"[solver] max_iter must be positive, got {max_iter}")
        if "prune" in ssec:
            prune = _parse_float("solver", "prune", ssec["prune"])
            if not 0.0 <= prune <= 0.01:
                raise ConfigError(f"[solver] prune must lie in [0, 0.01], got {prune}")

    audit_samples, audit_seed, b_samples = 10_000, 0, 11
    if parser.has_section("audit"):
        asec = parser["audit"]
        if "samples" in asec:
            audit_samples = _parse_int("audit", "samples", asec["samples"])
            if audit_samples < 1:
                raise ConfigError("[audit] samples must be positive")
        if "seed" in asec:
            audit_seed = _parse_int("audit", "seed", asec["seed"])
            if audit_seed < 0:
                raise ConfigError("[audit] seed must be nonnegative")
        if "b_samples" in asec:
            b_samples = _parse_int("audit", "b_samples", asec["b_samples"])
            if b_samples < 1:
                raise ConfigError("[audit] b_samples must be positive")

    u_list, trials, mc_seed, mc_sigma_sq = None, None, 0, None
    if parser.has_section("mc"):
        msec = parser["mc"]
        if "sigma_sq" in msec:
            mc_sigma_sq = _parse_float("mc", "sigma_sq", msec["sigma_sq"])
            if mc_sigma_sq <= 0.0:
                raise ConfigError("[mc] sigma_sq must be positive")
        if "u_list" in msec:
            try:
                u_list = tuple(float(tok) for tok in msec["u_list"].split(",") if tok.strip())
            except ValueError:
                raise ConfigError("[mc] u_list must be comma-separated numbers") from None
            if not u_list:
                raise ConfigError("[mc] u_list must not be empty")
            if not all(map(math.isfinite, u_list)):
                raise ConfigError("[mc] u_list must be finite")
            if any(u <= 0 for u in u_list) or any(
                y <= x for x, y in zip(u_list, u_list[1:])
            ):
                raise ConfigError("[mc] u_list must be positive and strictly increasing")
        if "trials" in msec:
            trials = _parse_int("mc", "trials", msec["trials"])
            if trials < 1:
                raise ConfigError("[mc] trials must be positive")
        if "seed" in msec:
            mc_seed = _parse_int("mc", "seed", msec["seed"])
            if mc_seed < 0:
                raise ConfigError("[mc] seed must be nonnegative")

    out_dir, formats = None, ("csv",)
    if parser.has_section("output"):
        osec = parser["output"]
        if "dir" in osec:
            out_dir = os.path.join(base_dir, osec["dir"].strip())
        if "formats" in osec:
            formats = tuple(
                tok.strip().lower() for tok in osec["formats"].split(",") if tok.strip()
            )
            bad = set(formats) - {"csv", "svg"}
            if bad:
                raise ConfigError(f"[output] unknown formats: {sorted(bad)}")

    cfg = RunConfig(
        kernel_kind=kind,
        kernel_params=params,
        a=a,
        b=b,
        n=n,
        tol=tol,
        max_iter=max_iter,
        prune=prune,
        audit_samples=audit_samples,
        audit_seed=audit_seed,
        b_samples=b_samples,
        u_list=u_list,
        trials=trials,
        mc_seed=mc_seed,
        mc_sigma_sq=mc_sigma_sq,
        out_dir=out_dir,
        formats=formats,
        base_dir=base_dir,
    )
    # fail fast on bad kernel parameters or missing files, and keep the kernel
    return replace(cfg, kernel=build_kernel(cfg))


def _require(params, kind, *names):
    for name in names:
        if name not in params:
            raise ConfigError(f"kernel kind {kind!r} needs parameter {name!r}")


def _reject_extras(params, kind, *allowed):
    extras = set(params) - set(allowed)
    if extras:
        raise ConfigError(f"kernel kind {kind!r} does not take {sorted(extras)}")


def build_kernel(cfg):
    """Instantiate the configured kernel; ConfigError on any parameter defect."""
    kind, params = cfg.kernel_kind, cfg.kernel_params
    try:
        if kind == "bm":
            _reject_extras(params, kind)
            return BrownianMotion()
        if kind == "fbm":
            _require(params, kind, "H")
            _reject_extras(params, kind, "H")
            return FractionalBM(params["H"])
        if kind == "fgn":
            _require(params, kind, "H", "h")
            _reject_extras(params, kind, "H", "h")
            return FractionalGaussianNoise(params["H"], params["h"])
        if kind == "increment":
            _require(params, kind, "base", "h")
            base_name = params["base"]
            if base_name == "bm":
                _reject_extras(params, kind, "base", "h")
                base = BrownianMotion()
            elif base_name == "fbm":
                _require(params, kind, "H")
                _reject_extras(params, kind, "base", "h", "H")
                base = FractionalBM(params["H"])
            else:
                raise ConfigError(
                    f"increment base must be bm or fbm, got {base_name!r}"
                )
            return IncrementOf(base, params["h"])
        # tabulated
        _require(params, kind, "path")
        _reject_extras(params, kind, "path")
        if cfg.a is None:
            raise ConfigError("tabulated kernels need an [interval] section")
        nodes = np.linspace(cfg.a, cfg.b, cfg.n)
        matrix = load_tabulated_matrix(params["path"], cfg.n)
        return Tabulated(nodes, matrix)
    except ValueError as exc:
        raise ConfigError(f"invalid kernel parameters: {exc}") from exc


# one (i, j, value) row of a tabulated kernel file
_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("value", float)])


def _read_rows(rows):
    # every row, in one np.loadtxt pass; ValueError if it rejects any
    if not rows:
        return np.empty(0, _ROW)
    return np.loadtxt(rows, delimiter=",", dtype=_ROW, comments=None, ndmin=1)


def _rejected(row, n):
    # why np.loadtxt rejected a row; Python's int reads an index past int64,
    # which is then reported as written
    fields = row.split(",")
    if len(fields) != 3:
        return "expected three fields"
    try:
        i, j, _ = int(fields[0]), int(fields[1]), float(fields[2])
    except ValueError:
        return "malformed row"
    if 0 <= i < n and 0 <= j < n:
        return "malformed row"  # digit-group underscores or non-ASCII digits
    return f"index ({i}, {j}) outside 0..{n - 1}"


def load_tabulated_matrix(path, n):
    """Read an (i, j, value) CSV into a dense n x n matrix.

    Every pair must appear exactly once; indexes are 0-based.  A nan value
    leaves its pair unset.  The first defective line in file order is the
    one reported.  Fields are plain numerals as np.loadtxt reads them, so a
    quoted field, digit-group underscores or non-ASCII digits make a
    malformed row.
    """
    if not os.path.exists(path):
        raise ConfigError(f"tabulated kernel file not found: {path}")
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read tabulated kernel file {path}: {exc}") from exc
    if "\0" in text:
        raise ConfigError(f"cannot read tabulated kernel file {path}: line contains NUL")
    header, _, body = text.partition("\n")
    if [c.strip() for c in header.split(",")] != ["i", "j", "value"]:
        raise ConfigError(f"{path}: expected header 'i,j,value'")
    lines = body.split("\n")
    rows = list(filter(None, lines))
    # read up to the first row np.loadtxt rejects, found by bisection when
    # there is one (a range or duplicate defect on an earlier line still wins)
    parsed = len(rows)
    try:
        table = _read_rows(rows)
    except ValueError:
        parsed, rejected = 0, len(rows)  # rows[:parsed] read, rows[:rejected] not
        while rejected - parsed > 1:
            mid = (parsed + rejected) // 2
            try:
                _read_rows(rows[:mid])
                parsed = mid
            except ValueError:
                rejected = mid
        table = _read_rows(rows[:parsed])

    def line(r):
        # file line of row r: the header is line 1 and blank lines count
        return f"{path}:{np.flatnonzero(list(map(bool, lines)))[r] + 2}"

    i, j, values = table["i"], table["j"], table["value"]
    outside = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n))
    stop = int(outside[0]) if outside.size else parsed
    keys = i[:stop] * n + j[:stop]
    values = values[:stop]
    isset = ~np.isnan(values)
    # a row repeats its pair when an earlier row of the pair set a value:
    # sort rows by pair (stable, so file order within a pair) and count the
    # value-setting rows ahead of each one in its run of equal pairs
    order = np.argsort(keys, kind="stable")
    set_sorted = isset[order]
    set_before = np.cumsum(set_sorted) - set_sorted
    run_start = np.diff(keys[order], prepend=-1) != 0
    first = np.maximum.accumulate(np.where(run_start, np.arange(stop), 0))
    repeats = order[set_before > set_before[first]]
    if repeats.size:
        k = int(repeats.min())
        raise ConfigError(f"{line(k)}: duplicate entry ({i[k]}, {j[k]})")
    if outside.size:
        raise ConfigError(f"{line(stop)}: index ({i[stop]}, {j[stop]}) outside 0..{n - 1}")
    if parsed < len(rows):
        raise ConfigError(f"{line(parsed)}: {_rejected(rows[parsed], n)}")
    matrix = np.full((n, n), np.nan)
    matrix.flat[keys[isset]] = values[isset]  # unique pairs, so no write order
    if np.any(np.isnan(matrix)):
        i, j = np.argwhere(np.isnan(matrix))[0]
        raise ConfigError(f"{path}: missing entry ({i}, {j})")
    return matrix
