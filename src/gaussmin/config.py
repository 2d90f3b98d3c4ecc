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

One table, _KEYS, names each section and key a run file may hold, with
the RunConfig field it sets and the parser that converts and range checks
it.  Other sections and keys are rejected, the table is walked in order
(the first defect in that order is reported), and an omitted key keeps its
RunConfig default.  [kernel] keys other than kind fill kernel_params, and
_PARAMS names those each kernel kind takes.  Every numeric field must be
finite and any referenced file must exist.  Commands requiring a section
that is absent fail with ConfigError at dispatch.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .kernels import FractionalBM, IncrementOf, Tabulated
from .measures import Grid

__all__ = ["RunConfig", "build_kernel", "load_config"]

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
# the parameters each kernel kind takes, in the order a missing one is
# reported; an increment kernel also takes those of its base, bm or fbm
_PARAMS = {"bm": (), "fbm": ("H",), "fgn": ("H", "h"),
           "increment": ("base", "h"), "tabulated": ("path",)}


@dataclass(frozen=True)
class RunConfig:
    """Validated settings; optional groups are None when their section is absent.

    `kernel` is the kernel built from `kernel_kind` and `kernel_params`;
    load_config sets it, so commands never build (or read a table) twice.
    """

    kernel_kind: str
    kernel_params: dict
    a: float | None = None
    b: float | None = None
    n: int = 401
    tol: float = 1e-9
    max_iter: int = 200_000
    prune: float = 1e-4
    audit_samples: int = 10_000
    audit_seed: int = 0
    b_samples: int = 11
    u_list: tuple | None = None
    trials: int | None = None
    mc_seed: int = 0
    mc_sigma_sq: float | None = None
    out_dir: str | None = None
    formats: tuple = ("csv",)
    kernel: object = field(default=None, compare=False, repr=False)

    def interval(self):
        if self.a is None or self.b is None:
            raise ConfigError("this command needs an [interval] section with a and b")
        return self.a, self.b


def _number(convert, requirement=None, ok=None):
    """Parser of one numeric key: convert, require finite, then require ok(value)."""
    noun = "a number" if convert is float else "an integer"

    def parse(name, raw, base_dir):
        try:
            value = convert(raw)
        except ValueError:
            raise ConfigError(f"{name} = {raw!r} is not {noun}") from None
        if convert is float and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if ok is not None and not ok(value):
            raise ConfigError(f"{name} must {requirement}, got {value}")
        return value

    return parse


_REAL = _number(float)
_COUNT = _number(int, "be positive", lambda v: v > 0)
_SEED = _number(int, "be nonnegative", lambda v: v >= 0)


def _kind(name, raw, base_dir):
    kind = raw.strip().lower()
    if kind not in _KERNEL_KINDS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    return _KERNEL_KINDS[kind]


def _path(name, raw, base_dir):
    # relative paths resolve against the run file's directory
    return os.path.join(base_dir, raw.strip())


def _levels(name, raw, base_dir):
    try:
        levels = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated numbers") from None
    if not levels:
        raise ConfigError(f"{name} must not be empty")
    if not all(map(math.isfinite, levels)):
        raise ConfigError(f"{name} must be finite")
    if any(u <= 0 for u in levels) or any(y <= x for x, y in zip(levels, levels[1:])):
        raise ConfigError(f"{name} must be positive and strictly increasing")
    return levels


def _formats(name, raw, base_dir):
    formats = tuple(tok.strip().lower() for tok in raw.split(",") if tok.strip())
    bad = set(formats) - {"csv", "svg"}
    if bad:
        raise ConfigError(f"[output] unknown formats: {sorted(bad)}")
    return formats


# section -> key -> (RunConfig field, parser), in check order; a parser takes
# the name "[section] key", the raw text and the run file's directory.  A
# field of None puts the value in kernel_params under the key's own name
_KEYS = {
    "kernel": {
        "kind": ("kernel_kind", _kind),
        "H": (None, _REAL),
        "h": (None, _REAL),
        "base": (None, lambda name, raw, base_dir: raw.strip().lower()),
        "path": (None, _path),
    },
    "interval": {"a": ("a", _REAL), "b": ("b", _REAL)},
    "grid": {"n": ("n", _number(int, "be at least 2", lambda v: v >= 2))},
    "solver": {
        "tol": ("tol", _number(float, "be positive", lambda v: v > 0.0)),
        "max_iter": ("max_iter", _COUNT),
        "prune": ("prune", _number(float, "lie in [0, 0.01]", lambda v: 0.0 <= v <= 0.01)),
    },
    "audit": {
        "samples": ("audit_samples", _COUNT),
        "seed": ("audit_seed", _SEED),
        "b_samples": ("b_samples", _COUNT),
    },
    "mc": {
        "sigma_sq": ("mc_sigma_sq", _number(float, "be positive", lambda v: v > 0.0)),
        "u_list": ("u_list", _levels),
        "trials": ("trials", _COUNT),
        "seed": ("mc_seed", _SEED),
    },
    "output": {"dir": ("out_dir", _path), "formats": ("formats", _formats)},
}


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

    given = {}  # section -> the keys the file sets in it
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        given[section] = parser.options(section)
        for key in given[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}] of {path}")
    if "kind" not in given.get("kernel", ()):
        raise ConfigError(f"{path}: [kernel] section with 'kind' is required")

    base_dir = os.path.dirname(os.path.abspath(path))
    fields, params = {}, {}
    for section, keys in _KEYS.items():
        names = given.get(section)
        if names is None:
            continue
        if section == "interval" and not ("a" in names and "b" in names):
            raise ConfigError(f"{path}: [interval] needs both a and b")
        for key, (name, parse) in keys.items():
            if key in names:
                try:
                    raw = parser.get(section, key)
                except configparser.Error as exc:  # a bad %-interpolation
                    raise ConfigError(f"cannot read [{section}] {key} of {path}: {exc}") from exc
                value = parse(f"[{section}] {key}", raw, base_dir)
                (fields if name else params)[name or key] = value
        if section == "interval":
            a, b = fields["a"], fields["b"]
            if not a < b:
                raise ConfigError(f"[interval] needs a < b, got [{a}, {b}]")
            if not math.isfinite(b - a):
                raise ConfigError(f"[interval] width b - a overflows, got [{a}, {b}]")

    cfg = RunConfig(kernel_params=params, **fields)
    # fail fast on bad kernel parameters or missing files, and keep the kernel
    return replace(cfg, kernel=build_kernel(cfg))


def build_kernel(cfg):
    """Instantiate the configured kernel; ConfigError on any parameter defect."""
    kind, params = cfg.kernel_kind, cfg.kernel_params
    takes = _PARAMS[kind]
    if kind == "increment" and {"base", "h"} <= params.keys():
        if params["base"] not in ("bm", "fbm"):
            raise ConfigError(f"increment base must be bm or fbm, got {params['base']!r}")
        takes += _PARAMS[params["base"]]
    missing = [name for name in takes if name not in params]
    if missing:
        raise ConfigError(f"kernel kind {kind!r} needs parameter {missing[0]!r}")
    extras = set(params) - set(takes)
    if extras:
        raise ConfigError(f"kernel kind {kind!r} does not take {sorted(extras)}")
    try:
        if kind == "tabulated":
            if cfg.a is None:
                raise ConfigError("tabulated kernels need an [interval] section")
            nodes = Grid(cfg.a, cfg.b, cfg.n).nodes
            return Tabulated(nodes, load_tabulated_matrix(params["path"], cfg.n))
        # bm is fBm with H = 1/2; fgn and increment are lag-h increments of fBm
        base = FractionalBM(params.get("H", 0.5))
        return IncrementOf(base, params["h"]) if "h" in params else base
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
