import pytest

from techcycle.errors import ValidationError, WindowError
from techcycle.growth import LogisticParams, logistic_value
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


class TestGenerateScenario:
    def test_noise_free_equals_pointwise_logistic(self):
        s = scenario(noise=0.0)
        old, new = generate_scenario(s)
        for t in range(s.years[0], s.years[1] + 1):
            assert old.value(t) == logistic_value(s.p_old, float(t))
            assert new.value(t) == logistic_value(s.p_new, float(t))

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

    def test_noise_rel_bounds_validated(self):
        with pytest.raises(ValidationError):
            scenario(noise=1.0)

    def test_empty_year_range_rejected(self):
        with pytest.raises(ValidationError):
            scenario(years=(10, 0))

    def test_year_range_capped_at_ten_thousand_years(self):
        assert scenario(years=(0, 9_999)).years == (0, 9_999)
        with pytest.raises(ValidationError, match="10000"):
            scenario(years=(0, 10_000))
        with pytest.raises(ValidationError):
            scenario(years=(0, 100_000_000))


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

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 4.0])
    def test_rate_ratio_sweep(self, ratio):
        import math

        b1 = 0.2
        b2 = ratio * b1
        # inflections placed so the 10% exit falls mid-year on both curves
        t1 = (math.log(9) + 0.5 * b1) / b1 + 30
        t2 = (math.log(9) + 0.5 * b2) / b2 + 32
        s = SyntheticScenario(
            p_old=LogisticParams(k=1000.0, a=b1 * t1, b=b1),
            p_new=LogisticParams(k=2500.0, a=b2 * t2, b=b2),
            years=(0, 60),
        )
        report = recovery_experiment(s, early_fraction=0.1)
        assert report.abs_gap < 0.05

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

    def test_empty_early_window_raises(self):
        # curves already near saturation at the first sampled year
        s = SyntheticScenario(
            p_old=LogisticParams(k=1000.0, a=-5.0, b=0.5),
            p_new=LogisticParams(k=1000.0, a=-5.0, b=0.5),
            years=(0, 20),
        )
        with pytest.raises(WindowError, match="fraction"):
            recovery_experiment(s, early_fraction=0.1)

    def test_determinism_of_reports(self):
        s = scenario(noise=0.3, seed=99)
        assert recovery_experiment(s) == recovery_experiment(s)


class TestScenarioConfig:
    def test_from_mapping(self):
        s = scenario_from_mapping({
            "k1": "1000", "a1": "6", "b1": "0.3",
            "k2": "2500", "a2": "9", "b2": "0.6",
            "year_start": "0", "year_end": "40",
            "noise_rel": "0.1", "seed": "42",
        })
        assert s.p_old.k == 1000.0 and s.p_new.b == 0.6
        assert s.years == (0, 40) and s.seed == 42

    def test_missing_key_named(self):
        with pytest.raises(ValidationError, match="b2"):
            scenario_from_mapping({"k1": "1", "a1": "0", "b1": "1",
                                   "k2": "1", "a2": "0",
                                   "year_start": "0", "year_end": "10"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key 'noise'"):
            scenario_from_mapping({"k1": "1", "a1": "0", "b1": "1",
                                   "k2": "1", "a2": "0", "b2": "1",
                                   "year_start": "0", "year_end": "10", "noise": "0.05"})

    def test_bundled_demo_scenario(self, data_dir):
        from techcycle.config import read_kv_file

        s = scenario_from_mapping(read_kv_file(data_dir / "scenarios" / "dual_logistic_demo.cfg"))
        report = recovery_experiment(s)
        assert report.b_theoretical == pytest.approx(2.0)
        assert report.abs_gap < 0.05
