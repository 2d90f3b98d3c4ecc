"""Measure model: construction invariants, closed-form templates, file I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmin import (
    AssumptionError,
    ConfigError,
    DegenerateKernelError,
    DiscreteMeasure,
    EmptyMeasureError,
    FractionalGaussianNoise,
    Grid,
    GridError,
    IntervalError,
    c_star,
    cli,
    dirac,
    load_measure,
    save_measure,
    three_point,
    two_point,
)

# 40-digit anchors for the center weight ratio at lag 1
CSTAR = {
    0.5: 1.0,
    0.6: 0.90896451801457623,
    0.75: 0.75321300310123562,
    0.9: 0.57139113664299046,
    0.95: 0.50434638293644196,
}


class TestGrid:
    def test_nodes(self):
        g = Grid(0.0, 2.0, 5)
        assert np.array_equal(g.nodes, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        assert g.step == 0.5
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0

    def test_validation(self):
        with pytest.raises(GridError):
            Grid(1.0, 1.0, 5)
        with pytest.raises(GridError):
            Grid(2.0, 1.0, 5)
        with pytest.raises(GridError):
            Grid(0.0, 1.0, 1)

    def test_nodes_read_only(self):
        g = Grid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            g.nodes[0] = 7.0


class TestDiscreteMeasure:
    def test_sorts_atoms(self):
        mu = DiscreteMeasure(np.array([2.0, 0.0, 1.0]), np.array([0.2, 0.5, 0.3]))
        assert np.array_equal(mu.locations, np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(mu.weights, np.array([0.5, 0.3, 0.2]))

    def test_merges_near_duplicates(self):
        eps = 1e-14
        mu = DiscreteMeasure(
            np.array([0.0, 1.0, 1.0 + eps]), np.array([0.5, 0.25, 0.25])
        )
        assert len(mu) == 2
        # merged at the weighted centroid
        assert mu.locations[1] == pytest.approx(1.0 + eps / 2.0, abs=1e-15)
        assert mu.weights[1] == pytest.approx(0.5, abs=1e-15)

    def test_prunes_zero_weights(self):
        mu = DiscreteMeasure(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.0, 0.5]))
        assert np.array_equal(mu.locations, np.array([0.0, 1.0]))

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
        # tiny imbalance is renormalized away
        w = np.array([1.0 / 3.0] * 3)
        mu = DiscreteMeasure(np.array([0.0, 1.0, 2.0]), w)
        assert float(np.sum(mu.weights)) == pytest.approx(1.0, abs=1e-16)

    def test_rejects_bad_input(self):
        with pytest.raises(EmptyMeasureError):
            DiscreteMeasure(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0]), np.array([np.nan]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0]))

    def test_arrays_read_only(self):
        mu = dirac(1.0)
        with pytest.raises(ValueError):
            mu.weights[0] = 0.5

    def test_repr(self):
        assert repr(dirac(1.0)) == "DiscreteMeasure(1:1)"


class TestTemplates:
    def test_dirac(self):
        mu = dirac(2.5)
        assert len(mu) == 1
        assert mu.locations[0] == 2.5 and mu.weights[0] == 1.0

    def test_two_point(self):
        mu = two_point(0.0, 1.0)
        assert np.array_equal(mu.locations, np.array([0.0, 1.0]))
        assert np.array_equal(mu.weights, np.array([0.5, 0.5]))
        with pytest.raises(IntervalError):
            two_point(1.0, 1.0)

    def test_three_point_weights(self):
        c = 0.75
        mu = three_point(0.0, 1.0, c)
        assert np.array_equal(mu.locations, np.array([0.0, 1.0, 2.0]))
        assert mu.weights[0] == pytest.approx(1.0 / 2.75, rel=1e-15)
        assert mu.weights[1] == pytest.approx(0.75 / 2.75, rel=1e-15)
        assert mu.weights[0] == mu.weights[2]

    def test_three_point_validation(self):
        with pytest.raises(AssumptionError):
            three_point(0.0, 1.0, 0.0)
        with pytest.raises(AssumptionError):
            three_point(0.0, 1.0, -0.3)
        with pytest.raises(IntervalError):
            three_point(0.0, 0.0, 0.5)


class TestCStar:
    @pytest.mark.parametrize("H,expected", sorted(CSTAR.items()))
    def test_frozen_values(self, H, expected):
        k = FractionalGaussianNoise(H, 1.0)
        assert c_star(k, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_lag_scale_invariance(self):
        # cstar depends on H only: Gamma scales by h^(2H) throughout
        a = c_star(FractionalGaussianNoise(0.7, 1.0), 1.0)
        b = c_star(FractionalGaussianNoise(0.7, 0.25), 0.25)
        assert a == pytest.approx(b, rel=1e-12)

    def test_degenerate_kernel(self):
        class Flat:
            stationary = True

            def gamma(self, tau):
                return np.ones_like(np.asarray(tau, dtype=float))

        with pytest.raises(DegenerateKernelError):
            c_star(Flat(), 1.0)


def _per_atom_measure(locations, weights):
    """DiscreteMeasure's sort, merge, prune and renormalization as it was
    written before the merge loop was skipped: one atom at a time."""
    order = np.argsort(locations, kind="stable")
    loc, w = locations[order], weights[order]
    tol = 1e-12 * (loc[-1] - loc[0])
    merged_loc, merged_w = [], []
    for x, wx in zip(loc, w):
        if merged_loc and x - merged_loc[-1] <= tol:
            tot = merged_w[-1] + wx
            if tot > 0.0:
                merged_loc[-1] = (merged_loc[-1] * merged_w[-1] + x * wx) / tot
            merged_w[-1] = tot
        else:
            merged_loc.append(x)
            merged_w.append(wx)
    loc, w = np.array(merged_loc), np.array(merged_w)
    keep = w > 1e-12
    return loc[keep], w[keep] / float(np.sum(w[keep]))


def _per_atom_text(mu):
    """save_measure's text and the CLI's atom strings, formatted one atom at a time."""
    lines = ["location,weight"]
    for x, w in zip(mu.locations, mu.weights):
        lines.append(f"{x:.17g},{w:.17g}")
    return (
        "\n".join(lines) + "\n",
        ";".join(repr(float(x)) for x in mu.locations),
        ";".join(repr(float(w)) for w in mu.weights),
    )


def _random_weights(size, seed):
    w = np.random.default_rng(seed).random(size)
    return w / w.sum()


class TestDenseMeasures:
    # the vectorized paths against the per-atom code they replaced

    @pytest.mark.parametrize(
        "locations, atoms",
        [
            (Grid(0.0, 3.0, 401).nodes[::-1], 401),
            (np.array([0.0, 0.5, 0.5 + 5e-13, 1.0]), 3),
        ],
        ids=["grid-401", "pair-inside-merge-tol"],
    )
    def test_constructor_matches_the_per_atom_merge(self, locations, atoms):
        weights = _random_weights(locations.size, 7)
        mu = DiscreteMeasure(locations, weights)
        loc, w = _per_atom_measure(locations, weights)
        assert len(mu) == loc.size == atoms
        assert mu.locations.tobytes() == loc.tobytes()
        assert mu.weights.tobytes() == w.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 401),
        st.integers(0, 2**32 - 1),
        st.floats(-1e6, 1e6),
        st.floats(1e-6, 1e6),
    )
    def test_text_matches_the_per_atom_format(self, tmp_path_factory, size, seed, a, width):
        nodes = np.linspace(a, a + width, size) if size > 1 else np.array([a])
        mu = DiscreteMeasure(nodes, _random_weights(size, seed))
        path = tmp_path_factory.mktemp("measure") / "m.csv"
        save_measure(mu, str(path))
        text, locations, weights = _per_atom_text(mu)
        with open(path, newline="") as handle:
            assert handle.read() == text
        pairs = dict(cli._measure_pairs(mu))
        assert pairs["atom_locations"] == locations
        assert pairs["atom_weights"] == weights


class TestMeasureIO:
    def test_round_trip_exact(self, tmp_path):
        mu = three_point(0.0, 1.0, 0.75321300310123562)
        path = tmp_path / "m.csv"
        save_measure(mu, str(path))
        back = load_measure(str(path))
        assert np.array_equal(back.locations, mu.locations)
        assert np.array_equal(back.weights, mu.weights)

    def test_header(self, tmp_path):
        path = tmp_path / "m.csv"
        save_measure(dirac(1.0), str(path))
        assert path.read_text().splitlines()[0] == "location,weight"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_measure(str(tmp_path / "nope.csv"))

    @pytest.mark.parametrize(
        "body",
        [
            "location\n1.0\n",
            "location,weight\nx,1.0\n",
            "location,weight\n1.0,0.7\n2.0,0.7\n",
            "location,weight\n",
            "weight,location\n1.0,1.0\n",
            "location,weight\n1.0\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_measure(str(path))

    def test_grid_contains_interval_nodes(self):
        # feeds the verify flow: grid endpoints equal the interval ends
        g = Grid(0.25, 0.75, 3)
        assert g.nodes[0] == 0.25 and g.nodes[-1] == 0.75
