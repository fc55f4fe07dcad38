import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from techcycle.regress import OlsFit, _f_tail, ols_simple, significance_stars, t_p_value


def t_density(x, df):
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def two_sided_by_quadrature(t, df):
    """Independent oracle: integrate the central body, subtract from 1."""
    body, _ = integrate.quad(t_density, -abs(t), abs(t), args=(df,),
                             epsabs=1e-12, epsrel=1e-12)
    return 1.0 - body


def normal_equation_fit(xs, ys):
    """Independent oracle: solve X'X beta = X'y directly."""
    x = np.column_stack([np.ones(len(xs)), np.asarray(xs)])
    y = np.asarray(ys)
    beta = np.linalg.solve(x.T @ x, x.T @ y)
    resid = y - x @ beta
    sse = float(resid @ resid)
    syy = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - sse / syy if syy > 0 else 1.0
    return float(beta[0]), float(beta[1]), r2


class TestOlsSimple:
    def test_exact_line(self):
        fit = ols_simple([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.se_estimate == pytest.approx(0.0, abs=1e-12)
        assert fit.p_slope == 0.0

    def test_seven_point_normal_equation_oracle(self):
        rng = np.random.RandomState(7)
        xs = list(rng.uniform(-3, 3, size=7))
        ys = [2.5 * x - 1.0 + e for x, e in zip(xs, rng.normal(0, 0.4, size=7))]
        fit = ols_simple(xs, ys)
        b0, b1, r2 = normal_equation_fit(xs, ys)
        assert fit.intercept == pytest.approx(b0, rel=1e-10)
        assert fit.slope == pytest.approx(b1, rel=1e-10)
        assert fit.r2 == pytest.approx(r2, abs=1e-9)

    def test_diagnostic_fields(self):
        rng = np.random.RandomState(3)
        xs = list(rng.uniform(0, 10, size=12))
        ys = [0.7 * x + 2 + e for x, e in zip(xs, rng.normal(0, 1, size=12))]
        fit = ols_simple(xs, ys)
        assert fit.n == 12 and fit.df == 10
        assert fit.f_stat == pytest.approx(fit.t_slope**2, rel=1e-9)
        assert fit.p_f == pytest.approx(fit.p_slope, abs=1e-9)
        assert fit.r2_adj == pytest.approx(1 - (1 - fit.r2) * 11 / 10, rel=1e-12)
        assert 0.0 <= fit.r2 <= 1.0 and fit.r2_adj <= fit.r2

    def test_p_values_are_computed_from_the_statistics(self):
        rng = np.random.RandomState(5)
        xs = list(rng.uniform(0, 10, size=9))
        ys = [0.3 * x + 1 + e for x, e in zip(xs, rng.normal(0, 1, size=9))]
        fit = ols_simple(xs, ys)
        assert fit.p_intercept == t_p_value(fit.t_intercept, fit.df)
        assert fit.p_slope == t_p_value(fit.t_slope, fit.df)
        assert fit.p_f == _f_tail(fit.f_stat, fit.df)
        # the p-values are read from the statistics, never stored beside them
        stats = {name: getattr(fit, name) for name in (
            "intercept", "slope", "se_intercept", "se_slope", "t_intercept", "t_slope",
            "r2", "r2_adj", "se_estimate", "f_stat", "n", "df")}
        assert OlsFit(**stats) == fit
        for name in ("p_intercept", "p_slope", "p_f"):
            with pytest.raises(TypeError, match=name):
                OlsFit(**stats, **{name: 0.5})

    @given(
        st.lists(st.floats(-50, 50), min_size=4, max_size=20, unique=True),
        st.floats(-3, 3),
        st.floats(-10, 10),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, xs, slope, intercept, seed):
        assume(max(xs) - min(xs) > 1e-3)  # regressor numerically non-degenerate
        rng = np.random.RandomState(seed)
        noise = rng.normal(0, 1, size=len(xs))
        ys = [slope * x + intercept + e for x, e in zip(xs, noise)]
        fit = ols_simple(xs, ys)

        residuals = [y - fit.intercept - fit.slope * x for x, y in zip(xs, ys)]
        scale = max(1.0, max(abs(y) for y in ys))
        assert abs(math.fsum(residuals)) < 1e-9 * scale * len(xs)
        assert abs(math.fsum(r * x for r, x in zip(residuals, xs))) < 1e-7 * scale * (
            1 + max(abs(x) for x in xs)) * len(xs)
        assert 0.0 <= fit.r2 <= 1.0
        assert fit.r2_adj <= fit.r2 + 1e-12
        if math.isfinite(fit.f_stat):
            assert fit.f_stat == pytest.approx(fit.t_slope**2, rel=1e-9, abs=1e-12)

    @given(st.floats(0.1, 10), st.floats(-5, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, c, d, seed):
        rng = np.random.RandomState(seed)
        xs = list(rng.uniform(-5, 5, size=10))
        ys = list(1.5 * np.asarray(xs) + rng.normal(0, 1, size=10))
        base = ols_simple(xs, ys)
        moved = ols_simple([c * x + d for x in xs], ys)
        assert moved.slope == pytest.approx(base.slope / c, rel=1e-9)
        assert moved.r2 == pytest.approx(base.r2, abs=1e-9)
        assert moved.f_stat == pytest.approx(base.f_stat, rel=1e-6)
        assert moved.p_slope == pytest.approx(base.p_slope, abs=1e-9)


class TestTPValue:
    def test_center_is_one(self):
        for df in (1, 5, 50):
            assert t_p_value(0.0, df) == 1.0

    def test_cauchy_quartile(self):
        # df=1 is Cauchy: |T| > 1 has probability exactly 1/2.
        assert t_p_value(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 5, 13, 23, 100])
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0, 3.8, 10.0])
    def test_oracle_grid(self, t, df):
        assert t_p_value(t, df) == pytest.approx(two_sided_by_quadrature(t, df), abs=1e-8)

    def test_symmetry_in_t(self):
        assert t_p_value(-2.2, 9) == pytest.approx(t_p_value(2.2, 9), abs=1e-14)

    # t values 1 ulp apart can share one double p, so the pair differs by a
    # factor of at least 1 + 1e-9, which p resolves at double precision
    @given(st.integers(1, 200), st.floats(0.01, 50), st.floats(1e-9, 1.0))
    @settings(max_examples=200)
    def test_monotone_decreasing_in_abs_t(self, df, t, gap):
        assert t_p_value(t, df) > t_p_value(t * (1.0 + gap), df)

    def test_decreasing_in_df_at_fixed_t(self):
        for t in (0.5, 1.0, 2.0, 3.8):
            ps = [t_p_value(t, df) for df in (1, 5, 13, 23, 100)]
            assert all(a > b for a, b in zip(ps, ps[1:]))


class TestStars:
    @pytest.mark.parametrize(
        "p,stars",
        [(0.005, "***"), (0.01, "***"), (0.03, "**"), (0.05, "**"),
         (0.07, "*"), (0.10, "*"), (0.2, "")],
    )
    def test_thresholds(self, p, stars):
        assert significance_stars(p) == stars
