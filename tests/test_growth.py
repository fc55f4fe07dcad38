import hashlib
import math
import random
import statistics

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techcycle import growth
from techcycle.cycle import detect_events
from techcycle.errors import InsufficientDataError, TechCycleError
from techcycle.growth import (
    LogisticParams,
    Regime,
    allometric_coefficients,
    classify_regime,
    fit_logistic,
    fit_substitution,
    implied_exponent,
    log_odds,
    logistic_value,
    odds_relation,
)
from techcycle.market_data import RevenueSeries
from techcycle.synthlab import SyntheticScenario, generate_scenario, recovery_experiment


def series(points, name="x"):
    return RevenueSeries(technology=name, base_year=2018, points=points)


def rescaled(s, factor):
    return RevenueSeries(s.technology, s.base_year,
                         {year: value * factor for year, value in s.points.items()})


def logistic_series(params, years, name="x"):
    return series({t: logistic_value(params, float(t)) for t in years}, name)


params_strategy = st.builds(
    LogisticParams,
    k=st.floats(1.0, 1e4),
    a=st.floats(-20.0, 20.0),
    b=st.floats(0.05, 3.0),
)


def golden_section_fit(s):
    """fit_logistic's former search, as (k, sse, degenerate): the same profile
    SSE, scanned at 48 evenly spaced u values, then a golden-section search
    of the bracket around the best scan point down to |du| <= 1e-9."""
    points = [(t, v) for t, v in s.points.items() if v > 0.0]
    n, vmax = len(points), max(v for _, v in points)
    scaled = [v / vmax for _, v in points]
    t_mean = math.fsum(t for t, _ in points) / n
    centred = [t - t_mean for t, _ in points]
    sxx = math.fsum(x * x for x in centred)
    evaluated = []

    def profile(u):
        k = min(1.0 + math.exp(u), 5.0)
        ys = [math.log((k - w) / w) for w in scaled]
        y_mean = math.fsum(ys) / n
        slope = math.fsum(x * y for x, y in zip(centred, ys)) / sxx
        residuals = [
            w - k / (1.0 + math.exp(z)) if (z := y_mean + slope * x) < 700.0 else w
            for x, w in zip(centred, scaled)
        ]
        sse = math.fsum(r * r for r in residuals)
        evaluated.append((sse, k, -slope))
        return sse

    u_lo, u_hi, inv_phi = math.log(1e-6), math.log(4.0), (math.sqrt(5.0) - 1.0) / 2.0
    scan = [u_lo + (u_hi - u_lo) * i / 47 for i in range(48)]
    sses = [profile(u) for u in scan]
    i = sses.index(min(sses))
    lo, hi = scan[max(i - 1, 0)], scan[min(i + 1, 47)]
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = profile(c), profile(d)
    while hi - lo > 1e-9:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = profile(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = profile(d)
    sse, k, b = min(evaluated, key=lambda candidate: candidate[0])
    return k * vmax, sse * vmax * vmax, not (b > 1e-12)


def seeded_scenarios(count, seed=2024, noise=(0.01, 0.1)):
    """``count`` seeded dual-logistic scenarios: 20-120 years, relative noise
    drawn from the ``noise`` range, rate ratio 0.5-4, each curve at 10% of
    capacity 25-40% of the way through."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        length = rng.randint(20, 120)
        b_old = 12.0 / length * rng.uniform(0.8, 1.25)
        params = []
        for b in (b_old, b_old * 0.5 * 8.0 ** rng.random()):
            inflection = length * rng.uniform(0.25, 0.4) + math.log(9.0) / b
            params.append(LogisticParams(k=rng.uniform(500.0, 5000.0), a=b * inflection, b=b))
        out.append(SyntheticScenario(p_old=params[0], p_new=params[1], years=(0, length - 1),
                                     noise_rel=rng.uniform(*noise), seed=index))
    return out


def scenario_series(count, seed=2024, noise=(0.01, 0.1)):
    """Both series of each of ``seeded_scenarios(count, seed, noise)``, each
    with its true parameters, as ``(series, params)``."""
    return [pair for s in seeded_scenarios(count, seed, noise)
            for pair in zip(generate_scenario(s), (s.p_old, s.p_new))]


def search_corpus(dataset):
    """112 series: both series of 50 noisy scenarios, and each bundled
    technology whole and up to its peak."""
    corpus = [s for s, _ in scenario_series(50)]
    for whole in dataset.series.values():
        peak = detect_events(whole).m_year or whole.last_year
        up = {t: v for t, v in whole.points.items() if t <= peak}
        corpus += [whole, series(up, whole.technology)]
    assert len(corpus) == 112
    return corpus


class TestLogisticValue:
    def test_inflection_is_half_capacity(self):
        p = LogisticParams(k=100.0, a=0.0, b=1.0)
        assert logistic_value(p, 0.0) == pytest.approx(50.0, abs=1e-12)

    def test_analytic_three_quarters(self):
        p = LogisticParams(k=100.0, a=0.0, b=1.0)
        assert logistic_value(p, math.log(3.0)) == pytest.approx(75.0, rel=1e-12)

    def test_extended_precision_oracle(self):
        p = LogisticParams(k=2000.0, a=8.0, b=0.4)
        with mpmath.workdps(50):
            expected = float(mpmath.mpf(2000) / (1 + mpmath.e ** (8 - mpmath.mpf("0.4") * 20)))
        assert logistic_value(p, 20.0) == pytest.approx(expected, rel=1e-14)

    def test_extreme_arguments_saturate_without_overflow(self):
        p = LogisticParams(k=5.0, a=0.0, b=2.0)
        assert logistic_value(p, -1e6) == 0.0
        assert logistic_value(p, 1e6) == 5.0

    @given(params_strategy, st.floats(-100, 100), st.floats(0.01, 30))
    @settings(max_examples=200)
    def test_increasing_and_symmetric(self, p, t, d):
        assert logistic_value(p, t) <= logistic_value(p, t + d)
        t_star = p.inflection
        total = logistic_value(p, t_star + d) + logistic_value(p, t_star - d)
        assert total == pytest.approx(p.k, rel=1e-9)

    def test_params_validation(self):
        with pytest.raises(TechCycleError, match="equilibrium level must be positive"):
            LogisticParams(k=-1.0, a=0.0, b=1.0)
        with pytest.raises(TechCycleError, match="growth rate must be positive"):
            LogisticParams(k=1.0, a=0.0, b=0.0)
        for a in (math.nan, math.inf):
            with pytest.raises(TechCycleError, match=f"location constant must be finite, got {a}"):
                LogisticParams(k=1.0, a=a, b=1.0)


class TestFitLogistic:
    def test_recovers_noise_free_curve(self):
        truth = LogisticParams(k=1000.0, a=6.0, b=0.5)
        fit = fit_logistic(logistic_series(truth, range(0, 21)))
        assert not fit.degenerate
        assert fit.k == pytest.approx(truth.k, rel=0.01)
        assert fit.a == pytest.approx(truth.a, rel=0.01)
        assert fit.b == pytest.approx(truth.b, rel=0.01)

    def test_saturated_constant_series_degenerate(self):
        fit = fit_logistic(series({t: 400.0 for t in range(2000, 2010)}))
        assert fit.degenerate
        assert fit.k == pytest.approx(400.0, rel=0.02)

    def test_time_shift_changes_only_location(self):
        truth = LogisticParams(k=800.0, a=4.0, b=0.35)
        base = fit_logistic(logistic_series(truth, range(0, 18)))
        shifted = fit_logistic(
            series({t + 10: logistic_value(truth, float(t)) for t in range(0, 18)})
        )
        assert shifted.k == pytest.approx(base.k, abs=1e-6 * base.k)
        assert shifted.b == pytest.approx(base.b, abs=1e-6)
        assert shifted.a == pytest.approx(base.a + 10 * base.b, rel=1e-6)

    def test_needs_four_positive_points(self):
        with pytest.raises(InsufficientDataError):
            fit_logistic(series({2000: 1.0, 2001: 2.0, 2002: 3.0}))

    @pytest.mark.parametrize("scale", [1e-300, 1e-3, 1e3, 1e300])
    def test_scale_changes_only_equilibrium(self, scale):
        truth = LogisticParams(k=800.0, a=4.0, b=0.35)
        noisy = series({
            t: logistic_value(truth, float(t)) * (1.0 + 0.05 * math.sin(1.7 * t))
            for t in range(0, 18)
        })
        base = fit_logistic(noisy)
        scaled = fit_logistic(rescaled(noisy, scale))
        assert scaled.k == pytest.approx(base.k * scale, rel=1e-6)
        assert scaled.a == pytest.approx(base.a, rel=1e-6)
        assert scaled.b == pytest.approx(base.b, rel=1e-6)

    @given(
        params_strategy,
        st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_equilibrium_within_documented_range(self, p, noise):
        points = {
            t: logistic_value(p, float(t)) * (1.0 + eps) for t, eps in enumerate(noise)
        }
        vmax = max(points.values())
        fit = fit_logistic(series(points))
        assert vmax < fit.k <= 5 * vmax

    @pytest.mark.parametrize("name, points", [
        ("noisy logistic", {
            t: logistic_value(LogisticParams(k=1000.0, a=6.0, b=0.5), float(t))
            * (1.0 + 0.05 * math.sin(1.7 * t))
            for t in range(0, 21)
        }),
        ("unsaturated growth, optimum at 5 * max", {t: 10.0 * 1.3**t for t in range(0, 16)}),
        ("rise and fall, optimum next to max", {
            t: 100.0 * math.exp(-(((t - 12) / 5.0) ** 2)) for t in range(0, 25)
        }),
        ("noisy plateau", {t: 400.0 + 3.0 * math.sin(2.3 * t) for t in range(0, 12)}),
        ("noisy saturated logistic, optimum at max * (1 + 1e-6)", {
            t: logistic_value(LogisticParams(k=1000.0, a=6.0, b=0.5), float(t))
            * (1.0 + 0.02 * math.sin(2.9 * t))
            for t in range(0, 31)
        }),
    ])
    def test_matches_dense_profile_grid(self, name, points):
        # The profile SSE at k, evaluated directly on a dense grid of
        # u = log((k - max) / max) over the documented range of k.
        vmax = max(points.values())
        ts = [float(t) for t in points]
        t_mean = math.fsum(ts) / len(ts)

        def profile_sse(k):
            ys = [math.log((k - v) / v) for v in points.values()]
            y_mean = math.fsum(ys) / len(ys)
            slope = math.fsum((t - t_mean) * y for t, y in zip(ts, ys)) / math.fsum(
                (t - t_mean) ** 2 for t in ts
            )
            return math.fsum(
                (v - k / (1.0 + math.exp(y_mean + slope * (t - t_mean)))) ** 2
                for t, v in zip(ts, points.values())
            )

        u_lo, u_hi = math.log(1e-6), math.log(4.0)
        grid_min = min(
            profile_sse(vmax * (1.0 + math.exp(u_lo + (u_hi - u_lo) * j / 3999)))
            for j in range(4000)
        )
        fit = fit_logistic(series(points, name))
        assert fit.sse <= (1.0 + 1e-9) * grid_min

    def test_matches_golden_section_search(self, dataset):
        for s in search_corpus(dataset):
            ref_k, ref_sse, ref_degenerate = golden_section_fit(s)
            fit = fit_logistic(s)
            assert fit.degenerate == ref_degenerate
            assert abs(fit.k - ref_k) <= 1e-6 * ref_k
            assert fit.sse <= ref_sse * (1.0 + 1e-9)

    @pytest.mark.parametrize("corpus, digest", [
        ("search", "012f3d995fa90195de83de07dfe27edf3716deffcf43d925348995fdfa5ee20a"),
        ("noise-free", "44265f329c11ccc70082dae698c69f66bbc12c98f1ddf9dd28eb3785f3be1f8c"),
    ])
    def test_fits_are_pinned(self, dataset, corpus, digest):
        # Every bit of every fit: a change to the search that moves any
        # result, even in its last place, changes the digest.
        if corpus == "search":
            fits = [fit_logistic(s) for s in search_corpus(dataset)]
        else:
            fits = [fit_logistic(s) for s, _ in scenario_series(50, seed=1, noise=(0.0, 0.0))]
        lines = "".join(
            f"{fit.k.hex()} {fit.a.hex()} {fit.b.hex()} {fit.sse.hex()} {fit.degenerate}\n"
            for fit in fits
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed, noise, digest", [
        (2024, (0.01, 0.1), "4a797b731081911373dbe4d00dbcf9c0e7556d6905b783fd9a1931235c83ca3a"),
        (1, (0.0, 0.0), "7cc792e99833e5240f3f9107f76b56726e79d5f41f128e1805279c52dddb3c8e"),
    ])
    def test_recovery_sweep_is_pinned(self, seed, noise, digest):
        # Every bit of every realized value and of every recovery report of a
        # synth-lab sweep (four early fractions and one explicit window), or
        # the error it raises: a change to the realization, the early window
        # or the substitution fit that moves any result changes the digest.
        lines = []
        for s in seeded_scenarios(50, seed, noise):
            for series in generate_scenario(s):
                lines += [f"{t} {value.hex()}" for t, value in series.points.items()]
            runs = [{"early_fraction": f} for f in (0.05, 0.1, 0.2, 0.3)]
            runs.append({"window": (0, s.years[1] // 2)})
            for kwargs in runs:
                try:
                    r = recovery_experiment(s, **kwargs)
                except TechCycleError as exc:
                    lines.append(f"{type(exc).__name__}: {exc}")
                    continue
                lines.append(" ".join([
                    r.b_theoretical.hex(), r.b_fitted.hex(), r.abs_gap.hex(),
                    str(r.window_used), r.saturation_level.hex()]))
        text = "".join(line + "\n" for line in lines)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_brent_evaluations_per_fit(self, dataset, monkeypatch):
        # Brent stops at a k-resolution relative to k, and a fit whose best scan
        # point is an end of the range stops after one probe: about 5.6
        # evaluations per fit here, where walking from the ends too took 14.25.
        calls = 0
        brent_min = growth._brent_min

        def counted(f, *args):
            def f_counted(u):
                nonlocal calls
                calls += 1
                return f(u)
            brent_min(f_counted, *args)

        monkeypatch.setattr(growth, "_brent_min", counted)
        corpus = search_corpus(dataset)
        for s in corpus:
            fit_logistic(s)
        assert calls / len(corpus) <= 7.0

    def test_end_fit_makes_one_evaluation(self, monkeypatch):
        # A fit whose best scan point is an end of the search range probes one
        # step inward and, finding it no lower, makes no Brent step; an
        # interior fit walks as before.
        counts = []
        brent_min = growth._brent_min

        def counted(f, *args):
            counts.append(0)

            def f_counted(u):
                counts[-1] += 1
                return f(u)
            brent_min(f_counted, *args)

        monkeypatch.setattr(growth, "_brent_min", counted)
        truth = LogisticParams(k=1000.0, a=6.0, b=0.5)
        saturated = {t: logistic_value(truth, float(t)) * (1.0 + 0.02 * math.sin(2.9 * t))
                     for t in range(0, 31)}
        unsaturated = {t: 10.0 * 1.3**t for t in range(0, 16)}
        interior = {t: logistic_value(truth, float(t)) * (1.0 + 0.05 * math.sin(1.7 * t))
                    for t in range(0, 21)}
        k_over_max = [fit_logistic(series(points)).k / max(points.values())
                      for points in (saturated, unsaturated, interior)]
        assert k_over_max[:2] == [pytest.approx(1.0 + 1e-6, rel=1e-12),
                                  pytest.approx(5.0, rel=1e-12)]
        assert 1.01 < k_over_max[2] < 4.99
        assert counts[:2] == [1, 1]
        assert counts[2] > 1

    def test_noise_free_growth_rate_precision(self):
        # 17 of these 100 truths have k within 1e-6 of the series maximum,
        # below the search's lower end, and so a b error of 2-39%; the median
        # fit resolves b to about 1e-11.
        errors = [abs(fit_logistic(s).b - p.b) / p.b
                  for s, p in scenario_series(50, seed=1, noise=(0.0, 0.0))]
        assert statistics.median(errors) <= 1e-10


class TestOddsRelation:
    def test_identical_curves(self):
        p = LogisticParams(k=100.0, a=2.0, b=0.5)
        relation = odds_relation(p, p)
        assert relation.log_c1 == pytest.approx(0.0, abs=1e-12)
        assert relation.exponent == pytest.approx(1.0, abs=1e-12)

    def test_hand_evaluated_closed_form(self):
        p1 = LogisticParams(k=100.0, a=2.0, b=0.5)
        p2 = LogisticParams(k=400.0, a=3.0, b=1.0)
        relation = odds_relation(p1, p2)
        assert relation.log_c1 == pytest.approx(0.5 * (3.0 / 1.0 - 2.0 / 0.5), rel=1e-12)
        assert relation.exponent == pytest.approx(0.5, abs=1e-12)

    def test_log_odds_matches_direct_ratio_at_moderate_args(self):
        p = LogisticParams(k=250.0, a=3.0, b=0.4)
        for t in range(-10, 30):
            v = logistic_value(p, float(t))
            assert log_odds(p, float(t)) == pytest.approx(
                math.log(v / (p.k - v)), abs=1e-9
            )

    @given(params_strategy, params_strategy, st.floats(-20.0, 20.0))
    @settings(max_examples=300)
    def test_identity_exact_across_time(self, p1, p2, offset):
        relation = odds_relation(p1, p2)
        t = p1.inflection + offset
        lhs = log_odds(p1, t)
        rhs = relation.log_c1 + relation.exponent * log_odds(p2, t)
        assert abs(lhs - rhs) < 1e-9

    def test_implied_exponent(self):
        p_old = LogisticParams(k=1.0, a=0.0, b=0.5)
        p_new = LogisticParams(k=1.0, a=0.0, b=1.0)
        assert implied_exponent(p_old, p_new) == pytest.approx(2.0)
        assert implied_exponent(p_old, p_old) == pytest.approx(1.0)

    def test_allometric_coefficients_match_deep_early_phase(self):
        p_old = LogisticParams(k=1000.0, a=12.0, b=0.3)
        p_new = LogisticParams(k=3000.0, a=24.0, b=0.6)
        log_a, b_ratio = allometric_coefficients(p_old, p_new)
        assert b_ratio == pytest.approx(2.0)
        for t in (0.0, 1.0, 2.0):
            v = logistic_value(p_old, t)
            ki = logistic_value(p_new, t)
            assert math.log(ki) == pytest.approx(log_a + b_ratio * math.log(v), abs=1e-4)


class TestFitSubstitution:
    def test_exact_power_law(self):
        old = series({t: 10.0 * 1.3 ** (t - 2000) for t in range(2000, 2010)}, "old")
        new = series({t: 2.0 * old.points[t] ** 1.5 for t in range(2000, 2010)}, "new")
        fit = fit_substitution(new, old)
        assert fit.b_exponent == pytest.approx(1.5, abs=1e-10)
        assert fit.log_a == pytest.approx(math.log(2.0), abs=1e-9)
        assert fit.fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.window == (2000, 2009)

    @given(st.floats(0.1, 50),
           st.floats(-3.0, 3.0).filter(lambda b: abs(b) > 0.1))
    @settings(max_examples=100)
    def test_power_law_recovery(self, a_coef, b_exp):
        old = series({t: 5.0 * 1.4 ** (t - 2000) for t in range(2000, 2012)}, "old")
        new = series({t: a_coef * old.points[t] ** b_exp for t in range(2000, 2012)}, "new")
        fit = fit_substitution(new, old)
        assert abs(fit.b_exponent - b_exp) < 1e-10
        assert fit.fit.r2 == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(0.01, 100), st.floats(0.01, 100))
    @settings(max_examples=100)
    def test_scale_invariance(self, c_old, c_new):
        old = series({t: 10.0 * 1.3 ** (t - 2000) for t in range(2000, 2010)}, "old")
        new = series({t: 2.0 * old.points[t] ** 1.5 for t in range(2000, 2010)}, "new")
        fit = fit_substitution(new, old)
        scaled = fit_substitution(rescaled(new, c_new), rescaled(old, c_old))
        assert scaled.b_exponent == pytest.approx(fit.b_exponent, abs=1e-9)
        assert scaled.regime is fit.regime
        expected_shift = math.log(c_new) - fit.b_exponent * math.log(c_old)
        assert scaled.log_a - fit.log_a == pytest.approx(expected_shift, abs=1e-7)

    def test_explicit_window_domain_error_names_year(self):
        old = series({2000: 1.0, 2001: 0.0, 2002: 1.0, 2003: 1.0}, "old")
        new = series({t: 1.0 for t in range(2000, 2004)}, "new")
        with pytest.raises(TechCycleError, match="2001"):
            fit_substitution(new, old, window=(2000, 2003))

    def test_window_too_small(self):
        old = series({2000: 1.0, 2001: 2.0}, "old")
        new = series({2000: 1.0, 2001: 2.0}, "new")
        with pytest.raises(InsufficientDataError):
            fit_substitution(new, old, window=(2000, 2001))

    def test_no_overlap(self):
        old = series({2000: 1.0, 2001: 1.0}, "old")
        new = series({2005: 1.0, 2006: 1.0}, "new")
        with pytest.raises(InsufficientDataError):
            fit_substitution(new, old)

    def test_early_window_approximation_gap_grows_with_saturation(self):
        # On exact dual-logistic data the log-log exponent matches the rate
        # ratio only before saturation; pushing the window past the
        # inflections must widen the gap.
        p_old = LogisticParams(k=1000.0, a=8.0, b=0.4)
        p_new = LogisticParams(k=2000.0, a=16.0, b=0.8)
        years = range(0, 41)
        old = logistic_series(p_old, years, "old")
        new = logistic_series(p_new, years, "new")
        truth = implied_exponent(p_old, p_new)

        # both curves below 10% of capacity: t < (a - ln 9)/b for each
        early_end = min(
            int((p.a - math.log(9.0)) / p.b) for p in (p_old, p_new)
        )
        early = fit_substitution(new, old, window=(0, early_end))
        wide = fit_substitution(new, old, window=(0, 30))  # past both inflections
        early_gap = abs(early.b_exponent - truth)
        wide_gap = abs(wide.b_exponent - truth)
        assert early_gap < 0.05
        assert wide_gap > early_gap


class TestClassifyRegime:
    def test_acceleration(self):
        assert classify_regime(2.1) is Regime.ACCELERATION

    def test_exact_proportional_boundary(self):
        assert classify_regime(1.0) is Regime.PROPORTIONAL
        assert classify_regime(1.04) is Regime.PROPORTIONAL
        assert classify_regime(0.96) is Regime.PROPORTIONAL

    def test_negative_coupling(self):
        assert classify_regime(-1.28) is Regime.NEGATIVE_COUPLING

    def test_low_growth(self):
        assert classify_regime(0.4) is Regime.LOW_GROWTH
        assert classify_regime(0.0) is Regime.LOW_GROWTH

    @pytest.mark.parametrize("b, regime", [
        (math.nextafter(0.95, 0.0), Regime.LOW_GROWTH),
        (0.95, Regime.PROPORTIONAL),
        (math.nextafter(0.95, 1.0), Regime.PROPORTIONAL),
        (math.nextafter(1.05, 1.0), Regime.PROPORTIONAL),
        (1.05, Regime.PROPORTIONAL),
        (math.nextafter(1.05, 2.0), Regime.ACCELERATION),
    ])
    def test_band_is_closed(self, b, regime):
        # |0.95 - 1| is 0.05000000000000004 in floating point; 0.95 is still inside
        assert classify_regime(b) is regime

    @given(st.floats(-10, 10), st.floats(0.01, 100))
    def test_invariant_under_series_rescaling(self, b, scale):
        # regime depends only on the exponent, which is scale-free
        old = series({2000 + i: math.exp(0.1 * i) for i in range(6)}, "old")
        fits = [
            fit_substitution(series({y: c * v ** b for y, v in old.points.items()}, "new"), old)
            for c in (1.0, scale)
        ]
        assert fits[0].b_exponent == pytest.approx(fits[1].b_exponent, abs=1e-9)
        assert all(fit.regime is classify_regime(fit.b_exponent) for fit in fits)
