import math
import random
from collections import Counter

import pytest

from techcycle.errors import TechCycleError, WindowError
from techcycle.growth import LogisticParams, fit_substitution, logistic_value
from techcycle.market_data import RevenueSeries
import techcycle.synthlab as synthlab
from techcycle.synthlab import (
    SyntheticScenario,
    generate_scenario,
    recovery_experiment,
    scenario_from_mapping,
)


def scenario(b1=0.4, b2=0.8, noise=0.0, seed=42, years=(0, 40), t1=25.0, t2=28.0):
    return SyntheticScenario(
        p_old=LogisticParams(k=1000.0, a=b1 * t1, b=b1),
        p_new=LogisticParams(k=2500.0, a=b2 * t2, b=b2),
        years=years,
        noise_rel=noise,
        seed=seed,
    )


def scanned_saturation(s, window):
    """Reference: the highest level/capacity of either curve in any year of the window."""
    return max(
        max(logistic_value(p, float(t)) / p.k for p in (s.p_old, s.p_new))
        for t in range(window[0], window[1] + 1)
    )


class TestGenerateScenario:
    def test_noise_free_equals_pointwise_logistic(self, monkeypatch):
        # level * (1 + 0 * eps) is level, so a noise-free scenario draws nothing
        draws = Counter()
        uniform = synthlab._uniform_pm1

        def counted(index, seed):
            draws[index] += 1
            return uniform(index, seed)

        synthlab._realized.cache_clear()
        monkeypatch.setattr(synthlab, "_uniform_pm1", counted)
        s = scenario(noise=0.0)
        old, new = generate_scenario(s)
        for t in range(s.years[0], s.years[1] + 1):
            assert old.points[t] == logistic_value(s.p_old, float(t))
            assert new.points[t] == logistic_value(s.p_new, float(t))
        assert not draws

    def test_same_seed_is_bit_identical(self):
        s = scenario(noise=0.2, seed=42)
        first = generate_scenario(s)
        second = generate_scenario(s)
        assert dict(first[0].points) == dict(second[0].points)
        assert dict(first[1].points) == dict(second[1].points)

    def test_different_seeds_differ(self):
        old42, _ = generate_scenario(scenario(noise=0.2, seed=42))
        old43, _ = generate_scenario(scenario(noise=0.2, seed=43))
        assert dict(old42.points) != dict(old43.points)

    def test_noise_bounded_and_nonnegative(self):
        s = scenario(noise=0.5, seed=7)
        old, new = generate_scenario(s)
        for seriez, params in ((old, s.p_old), (new, s.p_new)):
            for t, value in seriez.points.items():
                level = logistic_value(params, float(t))
                assert 0.0 <= value <= level * 1.5 + 1e-12

    def test_year_range_capped_at_ten_thousand_years(self):
        # one year more is rejected, as the error corpus pins
        assert scenario(years=(0, 9_999)).years == (0, 9_999)

    def test_years_at_a_million_accepted(self):
        assert scenario(years=(-1_000_000, -999_990)).years == (-1_000_000, -999_990)
        assert scenario(years=(999_990, 1_000_000)).years == (999_990, 1_000_000)


class TestRecoveryExperiment:
    def test_ratio_two_early_window(self):
        report = recovery_experiment(scenario(b1=0.4, b2=0.8))
        assert report.b_theoretical == pytest.approx(2.0)
        assert report.abs_gap < 0.05
        assert 0.0 < report.saturation_level < 0.1

    def test_identical_curves_give_unit_exponent(self):
        s = SyntheticScenario(
            p_old=LogisticParams(k=1000.0, a=10.0, b=0.4),
            p_new=LogisticParams(k=1000.0, a=10.0, b=0.4),
            years=(0, 40),
        )
        report = recovery_experiment(s)
        assert report.b_fitted == pytest.approx(1.0, abs=0.05)

    def test_window_past_inflections_increases_gap(self):
        s = scenario(b1=0.4, b2=0.8)
        early = recovery_experiment(s, early_fraction=0.1)
        wide = recovery_experiment(s, window=(0, 35))  # both inflections inside
        assert wide.abs_gap > early.abs_gap

    def test_monotone_degradation_as_window_saturates(self):
        s = scenario(b1=0.4, b2=0.8)
        gaps = [recovery_experiment(s, early_fraction=f).abs_gap
                for f in (0.1, 0.3, 0.5, 0.9)]
        assert all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_determinism_of_reports(self):
        s = scenario(noise=0.3, seed=99)
        assert recovery_experiment(s) == recovery_experiment(s)

    @pytest.mark.parametrize("seed", [1, 7, 99])
    @pytest.mark.parametrize("fraction, window", [
        (0.05, None), (0.1, None), (0.2, None), (0.3, None), (0.1, (2007, 2031)),
    ])
    def test_equals_fit_of_window_cut_from_full_series(self, seed, fraction, window):
        s = scenario(noise=0.08, seed=seed, years=(2000, 2040), t1=2025.0, t2=2028.0)
        report = recovery_experiment(s, early_fraction=fraction, window=window)
        first, last = report.window_used
        assert window in (None, (first, last))
        old, new = (
            RevenueSeries(full.technology, full.base_year,
                          {t: v for t, v in full.points.items() if first <= t <= last})
            for full in generate_scenario(s)
        )
        fit = fit_substitution(new, old, window=(first, last))
        assert report.b_fitted == fit.b_exponent
        assert report.abs_gap == abs(fit.b_exponent - report.b_theoretical)

    def test_internal_fault_is_not_reported_as_unfittable(self, monkeypatch):
        import techcycle.synthlab as synthlab

        def broken(*args, **kwargs):
            raise ZeroDivisionError("internal fault")

        monkeypatch.setattr(synthlab, "fit_substitution", broken)
        with pytest.raises(ZeroDivisionError):
            recovery_experiment(scenario(), window=(0, 10))


def sweep(s):
    """The early fractions and the window of a synth-lab op, then the full series."""
    reports = [recovery_experiment(s, early_fraction=f) for f in (0.05, 0.1, 0.2, 0.3)]
    reports.append(recovery_experiment(s, window=(2007, 2031)))
    return reports, generate_scenario(s)


def swept_scenario():
    return scenario(noise=0.08, seed=7, years=(2000, 2040), t1=2025.0, t2=2028.0)


class TestRealizedOnce:
    def test_each_draw_is_computed_once_per_sweep(self, monkeypatch):
        draws = Counter()
        uniform = synthlab._uniform_pm1

        def counted(index, seed):
            draws[index] += 1
            return uniform(index, seed)

        synthlab._realized.cache_clear()
        monkeypatch.setattr(synthlab, "_uniform_pm1", counted)
        s = swept_scenario()
        sweep(s)
        years = s.years[1] - s.years[0] + 1
        assert draws == Counter(range(2 * years))

    def test_early_windows_read_the_realized_levels(self, monkeypatch):
        # Each curve is evaluated once per year when the scenario is realized;
        # after that no report evaluates a curve, not even for its saturation level.
        calls = 0

        def counted(p, t):
            nonlocal calls
            calls += 1
            return logistic_value(p, t)

        synthlab._realized.cache_clear()
        monkeypatch.setattr(synthlab, "logistic_value", counted)
        s = swept_scenario()
        sweep(s)
        years = s.years[1] - s.years[0] + 1
        assert calls == 2 * years

    def test_equal_distinct_scenarios_give_equal_results(self):
        first, second = swept_scenario(), swept_scenario()
        assert first == second and first is not second
        synthlab._realized.cache_clear()
        reports, series = sweep(first)
        synthlab._realized.cache_clear()
        assert sweep(second) == (reports, series)
        # the cache is keyed by equality: an equal record reads the same realization
        assert generate_scenario(first) is generate_scenario(second)


class TestSaturationLevel:
    @pytest.mark.parametrize("seed", [1, 7, 71])
    def test_equals_scan_over_the_window(self, seed):
        rng = random.Random(seed)
        checked = 0
        for _ in range(100):
            first, span = rng.randint(-50, 2000), rng.randint(20, 120)
            b1 = rng.uniform(0.05, 0.8)
            b2 = b1 * rng.uniform(0.5, 4.0)
            s = SyntheticScenario(
                p_old=LogisticParams(k=rng.uniform(1.0, 1e4), b=b1,
                                     a=b1 * (first + rng.uniform(0.2, 0.8) * span)),
                p_new=LogisticParams(k=rng.uniform(1.0, 1e4), b=b2,
                                     a=b2 * (first + rng.uniform(0.2, 0.8) * span)),
                years=(first, first + span),
                noise_rel=rng.uniform(0.0, 0.1),
                seed=rng.getrandbits(64),
            )
            inflections = sorted((s.p_old.inflection, s.p_new.inflection))
            runs = [{"early_fraction": f} for f in (0.05, 0.1, 0.5, 0.9)] + [
                {"window": s.years},  # both inflections inside
                {"window": (math.floor(inflections[0]) - 2, math.ceil(inflections[1]) + 2)},
            ]
            for kwargs in runs:
                try:
                    report = recovery_experiment(s, **kwargs)
                except WindowError:
                    continue
                assert report.saturation_level == scanned_saturation(s, report.window_used)
                checked += 1
        assert checked >= 400


class TestScenarioConfig:
    VALUES = {
        "k1": "1000", "a1": "6", "b1": "0.3",
        "k2": "2500", "a2": "9", "b2": "0.6",
        "year_start": "0", "year_end": "40",
        "noise_rel": "0.1", "seed": "42",
    }

    def test_from_mapping(self):
        s = scenario_from_mapping(self.VALUES)
        assert s.p_old.k == 1000.0 and s.p_new.b == 0.6
        assert s.years == (0, 40) and s.seed == 42

    @pytest.mark.parametrize("key", list(VALUES))
    def test_malformed_value_names_its_key(self, key):
        with pytest.raises(TechCycleError) as exc:
            scenario_from_mapping({**self.VALUES, key: "x"})
        assert str(exc.value).startswith(f"{key}: ")

    def test_unknown_key_rejected(self):
        # the first unknown key in file order, not in alphabetical order
        with pytest.raises(TechCycleError) as exc:
            scenario_from_mapping({"k1": "1", "a1": "0", "b1": "1",
                                   "k2": "1", "a2": "0", "b2": "1",
                                   "year_start": "0", "year_end": "10",
                                   "noise": "0.05", "drift": "1"})
        assert str(exc.value) == "unknown key 'noise'"

    def test_bundled_demo_scenario(self, data_dir):
        from techcycle.config import read_kv_file

        s = scenario_from_mapping(read_kv_file(data_dir / "scenarios" / "dual_logistic_demo.cfg"))
        report = recovery_experiment(s)
        assert report.b_theoretical == pytest.approx(2.0)
        assert report.abs_gap < 0.05

