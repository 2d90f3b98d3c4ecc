"""Writers: cell formatting, CSV tables, SVG data coordinates to pixels."""

import re

import numpy as np
import pytest

from gaussmin.output import format_value, write_csv, write_svg


def _pixels(path):
    points = re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1)
    return [tuple(map(float, p.split(","))) for p in points.split()]


@pytest.mark.parametrize("c", [0.0, 0.5744706733790146, -3.0e6])
def test_curve_flat_up_to_rounding_is_drawn_flat(tmp_path, c):
    y = c + np.array([0.0, 1e-16, -1e-16, 2e-16, 0.0]) * max(1.0, abs(c))
    path = write_svg(tmp_path / "flat.svg", np.arange(5.0), y, "flat")
    assert len({py for _, py in _pixels(path)}) == 1


def test_curve_spans_the_plot_height(tmp_path):
    path = write_svg(tmp_path / "line.svg", [0.0, 1.0, 2.0], [1.0, 1.5, 2.0], "line")
    assert [py for _, py in _pixels(path)] == [440.0, 250.0, 60.0]


@pytest.mark.parametrize(("value", "text"), [
    (0.1, "0.1"),
    (np.float64(0.1), "0.1"),
    (np.float32(0.5), "0.5"),
    (-0.0, "-0.0"),
    (float("-inf"), "-inf"),
    (True, "True"),
    (np.bool_(False), "False"),
    (7, "7"),
    (np.int64(-3), "-3"),
    ("left_endpoint", "left_endpoint"),
])
def test_format_value(value, text):
    assert format_value(value) == text


def test_csv_columns_render_by_dtype(tmp_path):
    columns = (
        np.array([1.5, 0.1, -0.0]),
        np.array([2, 3, -4]),
        np.array([True, False, True]),
        np.array(["x", "y", "z"]),
        np.array([0.5, 0.25, np.inf], dtype=np.float32),
    )
    path = write_csv(tmp_path / "t.csv", ("a", "b", "c", "d", "e"), columns)
    assert path.read_text() == (
        "a,b,c,d,e\n1.5,2,True,x,0.5\n0.1,3,False,y,0.25\n-0.0,-4,True,z,inf\n"
    )
