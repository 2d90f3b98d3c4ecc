"""Run-file parsing: schema enforcement, defaults, kernel construction."""

import configparser
import csv
import dataclasses
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmin import (
    BrownianMotion,
    ConfigError,
    FractionalBM,
    FractionalGaussianNoise,
    IncrementOf,
    Tabulated,
    build_kernel,
    load_config,
)
from gaussmin import config
from gaussmin.config import load_tabulated_matrix

FULL = """
[kernel]
kind = fgn
H = 0.75
h = 1.0

[interval]
a = 0.0
b = 2.0

[grid]
n = 201

[solver]
tol = 1e-7
max_iter = 50000
prune = 0.001

[audit]
samples = 500
seed = 3
b_samples = 7

[mc]
u_list = 1.0, 1.5, 2.0
trials = 1000
seed = 9
sigma_sq = 0.6

[output]
dir = results
formats = csv, svg
"""


def _readme_run_file():
    """The ini block under README's "A full run file", parsed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as handle:
        readme = handle.read()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read_string(re.search(r"A full run file:\n\n```ini\n(.*?)```", readme, re.S).group(1))
    return parser


def _text(parser):
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _readme_numeric_keys():
    keys = []
    for section, body in _readme_run_file().items():
        for key, value in body.items():
            try:
                float(value)
            except ValueError:
                continue  # kind, u_list, dir, formats
            keys.append((section, key, value.isdigit()))
    return keys


def _write_matrix_csv(path, matrix):
    lines = ["i,j,value"]
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            lines.append(f"{i},{j},{float(matrix[i, j])!r}")
    path.write_text("\n".join(lines) + "\n")


class TestHappyPath:
    def test_full_file(self, write_ini):
        path = write_ini("run.ini", FULL)
        cfg = load_config(path)
        assert cfg.kernel_kind == "fgn"
        assert cfg.kernel_params == {"H": 0.75, "h": 1.0}
        assert cfg.interval() == (0.0, 2.0)
        assert cfg.n == 201
        assert cfg.tol == 1e-7
        assert cfg.max_iter == 50000
        assert cfg.prune == 0.001
        assert (cfg.audit_samples, cfg.audit_seed, cfg.b_samples) == (500, 3, 7)
        assert cfg.u_list == (1.0, 1.5, 2.0)
        assert cfg.trials == 1000
        assert cfg.mc_seed == 9
        assert cfg.mc_sigma_sq == 0.6
        assert cfg.formats == ("csv", "svg")
        # relative paths resolve against the config file's directory
        assert cfg.out_dir == os.path.join(os.path.dirname(path), "results")

    def test_defaults(self, write_ini):
        cfg = load_config(write_ini("min.ini", "[kernel]\nkind = bm\n"))
        assert cfg.kernel_kind == "bm"
        assert cfg.a is None and cfg.b is None
        assert cfg.n == 401
        assert cfg.tol == 1e-9
        assert cfg.max_iter == 200_000
        assert cfg.prune == 1e-4
        assert (cfg.audit_samples, cfg.audit_seed, cfg.b_samples) == (10_000, 0, 11)
        assert cfg.u_list is None and cfg.trials is None
        assert cfg.mc_seed == 0 and cfg.mc_sigma_sq is None
        assert cfg.out_dir is None
        assert cfg.formats == ("csv",)
        with pytest.raises(ConfigError, match="interval"):
            cfg.interval()

    def test_inline_comments_stripped(self, write_ini):
        cfg = load_config(write_ini("c.ini", (
            "[kernel]\nkind = bm  # pinned\n[interval]\na = 1.0 ; left\nb = 2.0\n"
        )))
        assert cfg.interval() == (1.0, 2.0)

    @pytest.mark.parametrize(("alias", "kind"), [
        ("bm", "bm"), ("BrownianMotion", "bm"),
        ("fbm", "fbm"), ("FractionalBM", "fbm"),
        ("fgn", "fgn"), ("FractionalGaussianNoise", "fgn"),
        ("increment", "increment"), ("IncrementOf", "increment"),
    ])
    def test_kind_aliases(self, write_ini, alias, kind):
        extra = ""
        if kind == "fbm":
            extra = "H = 0.75\n"
        elif kind == "fgn":
            extra = "H = 0.75\nh = 1.0\n"
        elif kind == "increment":
            extra = "base = bm\nh = 1.0\n"
        cfg = load_config(write_ini("k.ini", f"[kernel]\nkind = {alias}\n{extra}"))
        assert cfg.kernel_kind == kind

    def test_hurst_and_lag_keys_are_distinct(self, write_ini):
        # single-letter keys differing only by case must not collide
        cfg = load_config(write_ini("hh.ini", "[kernel]\nkind = fgn\nH = 0.9\nh = 0.25\n"))
        assert cfg.kernel_params["H"] == 0.9
        assert cfg.kernel_params["h"] == 0.25


class TestSchemaErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.ini"))

    def test_unparseable_file(self, write_ini):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(write_ini("bad.ini", "kind = bm\n"))  # key before any section

    def test_unknown_section(self, write_ini):
        with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
            load_config(write_ini("s.ini", "[kernel]\nkind = bm\n[extra]\nx = 1\n"))

    def test_unknown_key(self, write_ini):
        with pytest.raises(ConfigError, match="unknown key 'hurst'"):
            load_config(write_ini("k.ini", "[kernel]\nkind = fbm\nhurst = 0.75\n"))

    def test_kernel_section_required(self, write_ini):
        with pytest.raises(ConfigError, match="kind"):
            load_config(write_ini("n.ini", "[interval]\na = 0.0\nb = 1.0\n"))

    def test_unknown_kind(self, write_ini):
        with pytest.raises(ConfigError, match="unknown kernel kind"):
            load_config(write_ini("u.ini", "[kernel]\nkind = ou\n"))

    @pytest.mark.parametrize("value", ["0.5%", "%(x)s", "%(H)s"],
                             ids=["syntax", "missing", "depth"])
    def test_bad_interpolation_rejected(self, write_ini, value):
        # configparser's %-interpolation fails on the value read, not the parse
        body = f"[kernel]\nkind = fbm\nH = {value}\n"
        with pytest.raises(ConfigError, match=r"cannot read \[kernel\] H of "):
            load_config(write_ini("p.ini", body))

    def test_interpolation_references_still_resolve(self, write_ini):
        body = "[kernel]\nkind = bm\n[interval]\na = 1.0\nb = %(a)s5\n"
        assert load_config(write_ini("r.ini", body)).interval() == (1.0, 1.05)


class TestRangeErrors:
    BASE = "[kernel]\nkind = bm\n"

    @pytest.mark.parametrize(("body", "msg"), [
        ("[interval]\na = 2.0\nb = 1.0\n", "a < b"),
        ("[interval]\na = 1.0\n", "both a and b"),
        ("[interval]\na = x\nb = 2.0\n", "not a number"),
        ("[grid]\nn = 1\n", "at least 2"),
        ("[grid]\nn = 3.5\n", "not an integer"),
        ("[solver]\ntol = 0\n", "tol must be positive"),
        ("[solver]\ntol = -1e-9\n", "tol must be positive"),
        ("[solver]\nmax_iter = 0\n", "max_iter must be positive"),
        ("[solver]\nprune = 0.2\n", "prune"),
        ("[audit]\nsamples = 0\n", "samples must be positive"),
        ("[audit]\nseed = -1\n", "seed must be nonnegative"),
        ("[audit]\nb_samples = 0\n", "b_samples"),
        ("[mc]\nu_list = 1.0, 0.5\n", "strictly increasing"),
        ("[mc]\nu_list = 0.0, 1.0\n", "positive and strictly increasing"),
        ("[mc]\nu_list = ,\n", "must not be empty"),
        ("[mc]\nu_list = 1.0, two\n", "comma-separated numbers"),
        ("[mc]\ntrials = 0\n", "trials must be positive"),
        ("[mc]\nseed = -2\n", "seed must be nonnegative"),
        ("[mc]\nsigma_sq = 0\n", "sigma_sq must be positive"),
        ("[interval]\na = 0.0\nb = inf\n", r"\[interval\] b must be finite"),
        ("[interval]\na = -inf\nb = 1.0\n", r"\[interval\] a must be finite"),
        ("[interval]\na = nan\nb = 1.0\n", r"\[interval\] a must be finite"),
        ("[interval]\na = -1e308\nb = 1e308\n", r"\[interval\] width b - a overflows"),
        ("[solver]\ntol = nan\n", "tol must be finite"),
        ("[solver]\ntol = inf\n", "tol must be finite"),
        ("[mc]\nsigma_sq = inf\n", "sigma_sq must be finite"),
        ("[mc]\nsigma_sq = nan\n", "sigma_sq must be finite"),
        ("[mc]\nu_list = 1.0, inf\n", "u_list must be finite"),
        ("[mc]\nu_list = nan\n", "u_list must be finite"),
        ("[output]\nformats = csv, pdf\n", "unknown formats"),
    ])
    def test_rejected(self, write_ini, body, msg):
        with pytest.raises(ConfigError, match=msg):
            load_config(write_ini("r.ini", self.BASE + body))


class TestReadmeRunFile:
    @pytest.mark.parametrize(("section", "key", "integer"), _readme_numeric_keys())
    def test_every_numeric_key_is_checked(self, write_ini, section, key, integer):
        def load(value):
            parser = _readme_run_file()
            parser[section][key] = str(value)
            return load_config(write_ini("readme.ini", _text(parser)))

        noun = "an integer" if integer else "a number"
        with pytest.raises(ConfigError) as info:
            load("x")
        assert str(info.value) == f"[{section}] {key} = 'x' is not {noun}"
        # every integer key is a count or a seed; inf is out of range for any float
        with pytest.raises(ConfigError) as info:
            load(-1 if integer else "inf")
        assert str(info.value).startswith(f"[{section}] {key} must")

    def test_shown_values_are_the_defaults(self, write_ini):
        shown = load_config(write_ini("readme.ini", _text(_readme_run_file())))
        default = load_config(write_ini("min.ini", "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n"))
        for name in ("n", "tol", "max_iter", "prune", "audit_samples", "audit_seed", "b_samples"):
            assert getattr(shown, name) == getattr(default, name), name
        assert shown.mc_seed == default.mc_seed


class TestPrecedence:
    @pytest.mark.parametrize(("body", "msg"), [
        ("[kernel]\nkind = ou\n[grid]\nn = 0\n", "unknown kernel kind 'ou'"),
        (
            "[kernel]\nkind = bm\n[interval]\na = 2.0\nb = 1.0\n[grid]\nn = 0\n",
            r"[interval] needs a < b, got [2.0, 1.0]",
        ),
        (
            "[kernel]\nkind = increment\nbase = fgn\nh = 1.0\nH = 0.75\n",
            "increment base must be bm or fbm, got 'fgn'",
        ),
    ], ids=["kind_before_grid", "interval_before_grid", "base_before_extras"])
    def test_two_defects_report_the_first(self, write_ini, body, msg):
        with pytest.raises(ConfigError) as info:
            load_config(write_ini("p.ini", body))
        assert str(info.value) == msg


class TestKernelConstruction:
    def test_bm(self, write_ini):
        cfg = load_config(write_ini("a.ini", "[kernel]\nkind = bm\n"))
        assert build_kernel(cfg) == FractionalBM(0.5) == BrownianMotion()

    def test_fbm(self, write_ini):
        cfg = load_config(write_ini("b.ini", "[kernel]\nkind = fbm\nH = 0.6\n"))
        kernel = build_kernel(cfg)
        assert isinstance(kernel, FractionalBM)
        assert kernel.H == 0.6

    def test_fgn(self, write_ini):
        cfg = load_config(write_ini("c.ini", "[kernel]\nkind = fgn\nH = 0.75\nh = 0.5\n"))
        kernel = build_kernel(cfg)
        assert kernel == IncrementOf(FractionalBM(0.75), 0.5)
        assert kernel == FractionalGaussianNoise(0.75, 0.5)

    def test_increment_of_bm(self, write_ini):
        cfg = load_config(write_ini("d.ini", "[kernel]\nkind = increment\nbase = bm\nh = 1.0\n"))
        kernel = build_kernel(cfg)
        assert isinstance(kernel, IncrementOf)
        assert kernel.base == BrownianMotion()

    def test_increment_of_fbm(self, write_ini):
        cfg = load_config(write_ini(
            "e.ini", "[kernel]\nkind = increment\nbase = fbm\nH = 0.75\nh = 0.5\n"
        ))
        kernel = build_kernel(cfg)
        assert isinstance(kernel.base, FractionalBM)
        assert kernel.h == 0.5

    @pytest.mark.parametrize(("body", "msg"), [
        ("kind = fbm\n", "needs parameter 'H'"),
        ("kind = fgn\nH = 0.75\n", "needs parameter 'h'"),
        ("kind = bm\nH = 0.5\n", "does not take"),
        ("kind = fbm\nH = 0.75\nh = 1.0\n", "does not take"),
        ("kind = increment\nh = 1.0\n", "needs parameter 'base'"),
        ("kind = increment\nbase = fgn\nh = 1.0\n", "must be bm or fbm"),
        ("kind = increment\nbase = fbm\nh = 1.0\n", "needs parameter 'H'"),
        ("kind = fbm\nH = 1.5\n", "invalid kernel parameters"),
        ("kind = fgn\nH = 0.75\nh = -1.0\n", "invalid kernel parameters"),
        ("kind = tabulated\n", "needs parameter 'path'"),
        ("kind = fgn\nH = 0.75\nh = inf\n", r"\[kernel\] h must be finite"),
        ("kind = fbm\nH = nan\n", r"\[kernel\] H must be finite"),
    ])
    def test_bad_kernel_blocks_load(self, write_ini, body, msg):
        # load_config builds the kernel once to fail fast
        with pytest.raises(ConfigError, match=msg):
            load_config(write_ini("f.ini", "[kernel]\n" + body))


class TestKernelKept:
    def test_config_carries_its_kernel(self, write_ini):
        cfg = load_config(write_ini("c.ini", "[kernel]\nkind = fgn\nH = 0.75\nh = 0.5\n"))
        assert cfg.kernel == build_kernel(cfg) == FractionalGaussianNoise(0.75, 0.5)
        # the kernel is derived from the other fields, so equality ignores it
        assert cfg == dataclasses.replace(cfg, kernel=None)


def _reference_load(path, n):
    """The row-by-row loader load_tabulated_matrix replaced, as the reference."""
    matrix = np.full((n, n), np.nan)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or [c.strip() for c in rows[0]] != ["i", "j", "value"]:
        raise ConfigError(f"{path}: expected header 'i,j,value'")
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ConfigError(f"{path}:{lineno}: expected three fields")
        try:
            i, j, value = int(row[0]), int(row[1]), float(row[2])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed row") from None
        if not (0 <= i < n and 0 <= j < n):
            raise ConfigError(f"{path}:{lineno}: index ({i}, {j}) outside 0..{n - 1}")
        if not np.isnan(matrix[i, j]):
            raise ConfigError(f"{path}:{lineno}: duplicate entry ({i}, {j})")
        matrix[i, j] = value
    if np.any(np.isnan(matrix)):
        i, j = np.argwhere(np.isnan(matrix))[0]
        raise ConfigError(f"{path}: missing entry ({i}, {j})")
    return matrix


def _outcome(load, path, n):
    try:
        return load(path, n).tobytes()
    except ConfigError as exc:
        return str(exc)


INDEXES = ["0", "1", "2", "-1", " 1", "\u00a01", "1\u2003", "99999999999999999999", "1.0", "x"]
VALUES = ["0.5", "-0.0", "nan", "inf", "1e-320", "0.5\u00a0", "x", ""]


@st.composite
def tables(draw):
    """A full 2 x 2 table in any order, with a few rows added or dropped."""
    rows = draw(st.permutations([f"{i},{j},{0.25 * (1 + i + j)!r}" for i in range(2) for j in range(2)]))
    for _ in range(draw(st.integers(0, 3))):
        fields = [draw(st.sampled_from(INDEXES)), draw(st.sampled_from(INDEXES)), draw(st.sampled_from(VALUES))]
        row = ",".join(fields[: draw(st.sampled_from([3, 3, 3, 2, 4]))]) if draw(st.integers(0, 5)) else ""
        rows.insert(draw(st.integers(0, len(rows))), row)
    if draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    return "i,j,value\n" + "\n".join(rows) + "\n"


class TestTabulated:
    def _config(self, tmp_path, write_ini, n=3):
        matrix = np.minimum.outer(np.arange(1, n + 1.0), np.arange(1, n + 1.0))
        _write_matrix_csv(tmp_path / "m.csv", matrix)
        body = f"[kernel]\nkind = tabulated\npath = m.csv\n[interval]\na = 0.0\nb = 1.0\n[grid]\nn = {n}\n"
        return write_ini("t.ini", body), matrix

    def test_loads_matrix(self, tmp_path, write_ini):
        path, matrix = self._config(tmp_path, write_ini)
        kernel = build_kernel(load_config(path))
        assert isinstance(kernel, Tabulated)
        np.testing.assert_array_equal(
            kernel.cov(kernel.nodes[:, None], kernel.nodes[None, :]), matrix
        )

    def test_interval_required(self, tmp_path, write_ini):
        _write_matrix_csv(tmp_path / "m.csv", np.eye(2))
        with pytest.raises(ConfigError, match="interval"):
            load_config(write_ini("t.ini", "[kernel]\nkind = tabulated\npath = m.csv\n[grid]\nn = 2\n"))

    def test_file_missing(self, write_ini):
        body = "[kernel]\nkind = tabulated\npath = nope.csv\n[interval]\na = 0\nb = 1\n[grid]\nn = 2\n"
        with pytest.raises(ConfigError, match="not found"):
            load_config(write_ini("t.ini", body))

    @pytest.mark.parametrize(("rows", "msg"), [
        ("x,y,value\n0,0,1.0\n", "header"),
        ("i,j,value\n0,0,1.0\n0,0,1.0\n", "duplicate"),
        ("i,j,value\n0,0,1.0\n0,1,0.0\n1,0,0.0\n", r"missing entry \(1, 1\)"),
        ("i,j,value\n0,0,1.0\n0,5,1.0\n", "outside"),
        ("i,j,value\n0,0\n", "three fields"),
        ("i,j,value\n0,0,abc\n", "malformed"),
    ])
    def test_malformed_csv(self, tmp_path, rows, msg):
        path = tmp_path / "bad.csv"
        path.write_text(rows)
        with pytest.raises(ConfigError, match=msg):
            load_tabulated_matrix(str(path), 2)

    @pytest.mark.parametrize(("rows", "msg"), [
        # two defects: the earlier line decides
        ("i,j,value\n0,0,1.0\n0,0,1.0\n0,5,1.0\n", r"bad\.csv:3: duplicate entry \(0, 0\)"),
        ("i,j,value\n0,5,1.0\n0,0,1.0\n0,0,1.0\n", r"bad\.csv:2: index \(0, 5\) outside 0\.\.1"),
        ("i,j,value\n0,0,1.0\n0,0,1.0\n0,1,abc\n", r"bad\.csv:3: duplicate entry \(0, 0\)"),
        ("i,j,value\n0,0,1.0\n0,1\n0,0,1.0\n", r"bad\.csv:3: expected three fields"),
        # a nan value leaves its pair unset, so a later row may set it
        ("i,j,value\n0,0,nan\n0,0,1.0\n0,1,0.0\n1,0,0.0\n1,1,nan\n", r"missing entry \(1, 1\)$"),
        ("i,j,value\n0,0,1.0\n0,0,nan\n", r"bad\.csv:3: duplicate entry \(0, 0\)"),
        ("i,j,value\n0,0,1.0\n0,1,0.0\n1,0,0.0\n1,1,nan\n", r"missing entry \(1, 1\)$"),
        # blank lines count toward line numbers
        ("i,j,value\n\n0,0,1.0\n0,0,1.0\n", r"bad\.csv:4: duplicate entry \(0, 0\)"),
        # an index past int64 is reported as written
        ("i,j,value\n0,0,1.0\n99999999999999999999,0,1.0\n", r"bad\.csv:3: index \(99999999999999999999, 0\)"),
        ("i,j,value\n", r"missing entry \(0, 0\)$"),
        ("i,j,value\n1,2,1.0\n", r"bad\.csv:2: index \(1, 2\) outside"),
        # np.loadtxt strips non-ASCII spaces, so this row sets (0, 0)
        ("i,j,value\n\u00a00,0,1.0\n0,0,1.0\n", r"bad\.csv:3: duplicate entry \(0, 0\)"),
    ], ids=[
        "duplicate_before_range", "range_before_duplicate", "duplicate_before_malformed",
        "arity_before_duplicate", "nan_leaves_unset", "nan_repeats_set", "nan_in_every_pair_once",
        "blank_line", "huge_index", "header_only", "first_row_outside", "nbsp_padded_index",
    ])
    def test_first_defect_in_file_order_wins(self, tmp_path, rows, msg):
        path = tmp_path / "bad.csv"
        path.write_text(rows)
        with pytest.raises(ConfigError, match=msg):
            load_tabulated_matrix(str(path), 2)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"i,j,value\n\xff\xfe,0,1.0\n")
        with pytest.raises(ConfigError, match="cannot read tabulated kernel file"):
            load_tabulated_matrix(str(path), 2)
        with pytest.raises(ConfigError, match="cannot read tabulated kernel file"):
            load_tabulated_matrix(str(tmp_path), 2)

    def test_n201_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((201, 201)) * np.pi
        matrix[0, 1], matrix[2, 3], matrix[4, 5] = -0.0, 5e-324, 1.7976931348623157e308
        rows = [f"{i},{j},{float(matrix[i, j])!r}" for i in range(201) for j in range(201)]
        rng.shuffle(rows)  # row order does not matter
        path = tmp_path / "m.csv"
        path.write_text("i,j,value\n" + "\n".join(rows) + "\n")
        assert load_tabulated_matrix(str(path), 201).tobytes() == matrix.tobytes()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(tables())
    def test_matches_row_by_row_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            with open(path, "w") as handle:
                handle.write(text)
            assert _outcome(load_tabulated_matrix, path, 2) == _outcome(_reference_load, path, 2)

    def test_path_resolves_against_config_dir(self, tmp_path, write_ini):
        sub = tmp_path / "sub"
        sub.mkdir()
        _write_matrix_csv(sub / "m.csv", np.eye(2))
        body = "[kernel]\nkind = tabulated\npath = m.csv\n[interval]\na = 0\nb = 1\n[grid]\nn = 2\n"
        cfg_path = sub / "run.ini"
        cfg_path.write_text(body)
        cfg = load_config(str(cfg_path))
        # kept as written, so the printed kernel does not name the run
        # file's directory; the table is opened from that directory
        assert cfg.kernel_params["path"] == "m.csv"
        assert cfg.base_dir == str(sub)
        nodes = cfg.kernel.nodes
        np.testing.assert_array_equal(cfg.kernel.cov(nodes[:, None], nodes), np.eye(2))


class TestTabulatedRows:
    """The one-pass table read against the row-by-row reference."""

    @pytest.mark.parametrize("defect", [
        "0,1", "0,1,x", "0,1,1.0,", "300,1,1.0", "0,1,1.0", " ", "99999999999999999999,1,1.0",
        "0,1,nan",
    ])
    @pytest.mark.parametrize("where", [0, 1, 20_000, 40_400])
    def test_a_defect_deep_in_a_full_table(self, tmp_path, defect, where):
        # the row loop reports the first defective line; blank lines count
        rows = [f"{i},{j},{0.5 * (i + j)!r}" for i in range(201) for j in range(201)]
        rows[where + 1 :] = ["", *rows[where + 1 :]]
        rows.insert(where, defect)
        path = tmp_path / "big.csv"
        path.write_text("i,j,value\n" + "\n".join(rows) + "\n")
        want = _outcome(_reference_load, str(path), 201)
        if defect == "0,1,nan" and where <= 1:
            assert isinstance(want, bytes)  # before its pair's row, a nan row sets nothing
        else:
            assert "big.csv:" in want
        assert _outcome(load_tabulated_matrix, str(path), 201) == want

    def test_well_formed_table_skips_the_row_loop(self, tmp_path, monkeypatch):
        def row(*args):
            raise AssertionError("row loop entered on a well-formed table")

        rows = [f"{i},{j},{0.5 * (i + j)!r}" for i in range(201) for j in range(201)]
        path = tmp_path / "big.csv"
        path.write_text("i,j,value\n" + "\n".join(rows) + "\n")
        want = _reference_load(str(path), 201).tobytes()
        with monkeypatch.context() as patch:
            patch.setattr(config, "_row", row)
            assert load_tabulated_matrix(str(path), 201).tobytes() == want
        # a nan row leaves its pair unset, so the row loop reads this table
        path.write_text("i,j,value\n" + "\n".join(["0,1,nan", *rows]) + "\n")
        got = load_tabulated_matrix(str(path), 201).tobytes()
        assert got == _reference_load(str(path), 201).tobytes() == want

    @pytest.mark.parametrize("row", ['"0",0,1.0', "0,0,1_0", "0_0,0,1.0"])
    def test_python_only_spellings_are_malformed(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"i,j,value\n{row}\n0,1,0.0\n1,0,0.0\n1,1,1.0\n")
        with pytest.raises(ConfigError, match=r"t\.csv:2: malformed row$"):
            load_tabulated_matrix(str(path), 2)

    def test_nul_is_unreadable(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("i,j,value\n0,0,1.0\x00\n")
        with pytest.raises(ConfigError, match="cannot read tabulated kernel file"):
            load_tabulated_matrix(str(path), 2)

    def test_crlf_and_surrounding_spaces_read_as_before(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b" i , j ,value\r\n0, 0 ,1.5\r\n\r\n0,1,-0.0\r\n1,0,0.25\r\n +1,1,inf\r\n")
        got = load_tabulated_matrix(str(path), 2)
        assert got.tobytes() == _reference_load(str(path), 2).tobytes()
