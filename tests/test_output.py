"""SVG writer: data coordinates to pixels."""

import re

import numpy as np
import pytest

from gaussmin.output import write_svg


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
