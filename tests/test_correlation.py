import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import rougewe
from rougewe.correlation import (
    CorrelationTriple,
    UndefinedCorrelationError,
    _average_ranks,
    correlation_triple,
    kendall,
    pearson,
    spearman,
)


class TestPearson:
    def test_perfect_linearity(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_inverse(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == -1.0

    def test_closed_form_example(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8

    def test_constant_input_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 2, 3], [5, 5, 5])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1], [2])

    def test_overflowing_products_raise_not_clamp(self):
        # xc.dot(yc) and the norm product both overflow to inf, so the
        # quotient is NaN, which must not be clamped to -1.
        big = [1e200, -1e200, 0.0]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                UndefinedCorrelationError, match="not a number"):
            pearson(big, big)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_inputs_rejected(self, bad):
        for fn in (pearson, spearman, kendall):
            with pytest.raises(ValueError, match="finite"):
                fn([1.0, bad, 3.0], [1.0, 2.0, 3.0])
            with pytest.raises(ValueError, match="finite"):
                fn([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


class TestSpearman:
    def test_co_monotone(self):
        assert spearman([1, 5, 9], [2, 100, 3000]) == 1.0

    def test_closed_form_example(self):
        assert spearman([1, 2, 3], [1, 3, 2]) == 0.5

    def test_all_tied_side_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1, 2, 3], [7, 7, 7])

    def test_tie_handling_uses_average_ranks(self):
        got = spearman([1, 1, 2], [1, 2, 3])
        ranks_x = scipy.stats.rankdata([1, 1, 2])
        ranks_y = scipy.stats.rankdata([1, 2, 3])
        assert got == pytest.approx(pearson(ranks_x, ranks_y), abs=1e-15)

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 4).map(float) | st.floats(-1e6, 1e6), min_size=1,
                    max_size=40))
    def test_average_ranks_equal_scipy(self, values):
        v = np.asarray(values, dtype=np.float64)
        expected = scipy.stats.rankdata(v)
        got = _average_ranks(v)
        assert got.dtype == expected.dtype
        assert (got == expected).all()

    def test_cli_import_leaves_scipy_unloaded(self):
        probe = ("import sys, rougewe.cli; "
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(Path(rougewe.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env=env, check=True)
        assert result.stdout.strip() == "[]"


class TestKendall:
    def test_reversal(self):
        assert kendall([1, 2, 3], [3, 2, 1]) == -1.0

    def test_closed_form_example(self):
        assert kendall([1, 2, 3], [1, 3, 2]) == 1 / 3

    def test_tie_correction(self):
        # pairs: (1,2) tied in x; (1,3) concordant; (2,3) concordant
        # tau-b = 2 / sqrt((3-1)(3-0))
        assert kendall([1, 1, 2], [1, 2, 3]) == 2 / np.sqrt(6)

    def test_fully_tied_side_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            kendall([4, 4, 4], [1, 2, 3])


def _brute_force_tau_b(x, y):
    n = len(x)
    con_minus_dis = 0
    tied_x = tied_y = 0
    n0 = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            dx = int(x[i] > x[j]) - int(x[i] < x[j])
            dy = int(y[i] > y[j]) - int(y[i] < y[j])
            con_minus_dis += dx * dy
            tied_x += dx == 0
            tied_y += dy == 0
    tau = con_minus_dis / np.sqrt((n0 - tied_x) * (n0 - tied_y))
    return max(-1.0, min(1.0, tau))  # tau-b is in [-1, 1] by definition


class TestOracles:
    def test_kendall_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert kendall(x, y) == _brute_force_tau_b(x, y)

    def test_against_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            x = np.round(rng.normal(size=n), 1)
            y = np.round(rng.normal(size=n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y).statistic, abs=1e-12)
            assert spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y).statistic, abs=1e-12)
            assert kendall(x, y) == pytest.approx(
                scipy.stats.kendalltau(x, y, variant="b").statistic, abs=1e-12
            )


vectors = st.integers(3, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
    )
)


def _varying(v):
    return len(set(v)) > 1


class TestProperties:
    @settings(max_examples=150)
    @given(vectors)
    def test_bounds_and_antisymmetry(self, xy):
        x, y = xy
        if not (_varying(x) and _varying(y)):
            return
        neg_y = [-v for v in y]
        for coef in (pearson, spearman, kendall):
            value = coef(x, y)
            assert -1.0 <= value <= 1.0
            assert coef(x, neg_y) == -value

    @settings(max_examples=100)
    @given(vectors, st.integers(1, 9), st.integers(-20, 20))
    def test_affine_and_monotone_invariance(self, xy, scale, shift):
        x, y = xy
        if not (_varying(x) and _varying(y)):
            return
        x_affine = [scale * v + shift for v in x]
        assert pearson(x_affine, y) == pytest.approx(pearson(x, y), abs=1e-9)
        # any strictly increasing transform preserves ranks and sign patterns
        x_monotone = [v**3 + 2 * v for v in x]
        assert spearman(x_monotone, y) == spearman(x, y)
        assert kendall(x_monotone, y) == kendall(x, y)

    @settings(max_examples=100)
    @given(vectors)
    def test_spearman_is_pearson_on_ranks(self, xy):
        x, y = xy
        if not (_varying(x) and _varying(y)):
            return
        expected = pearson(scipy.stats.rankdata(x), scipy.stats.rankdata(y))
        assert spearman(x, y) == expected


class TestCorrelationTriple:
    def test_triple(self):
        triple = correlation_triple([1, 2, 3, 4], [1, 3, 2, 4])
        assert isinstance(triple, CorrelationTriple)
        assert triple.pearson == 0.8
