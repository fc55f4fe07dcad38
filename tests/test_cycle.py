import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techcycle.cycle import (
    CrossoverResult,
    CycleEvents,
    aggregate_cycles,
    crossover_year,
    cycle_metrics,
    detect_events,
)
from techcycle.errors import InsufficientDataError, TechCycleError
from techcycle.market_data import RevenueSeries


def series(points, name="x"):
    return RevenueSeries(technology=name, base_year=2018, points=points)


def rescaled(s, factor):
    return RevenueSeries(s.technology, s.base_year,
                         {year: value * factor for year, value in s.points.items()})


def events(tech, a, m, z, censored=False):
    return CycleEvents(technology=tech, a_year=a, m_year=m, z_year=z, censored=censored)


# Reference lifecycle rows: (technology, A, M, Z); None = still in progress.
REFERENCE_ROWS = [
    ("vinyl", 1930, 1979, 2019),
    ("8-track", 1965, 1978, 1982),
    ("cassette", 1964, 1990, 2005),
    ("cd", 1983, 2001, 2019),
    ("download", 2004, 2012, None),
]


class TestDetectEvents:
    def test_bundled_8_track(self, dataset):
        ev = detect_events(dataset.series["8-track"], a_override=1965)
        assert (ev.a_year, ev.m_year, ev.z_year) == (1965, 1978, 1982)

    def test_triangular_series(self):
        ev = detect_events(series({2000: 0.0, 2001: 5.0, 2002: 9.0, 2003: 4.0, 2004: 0.0}))
        assert (ev.a_year, ev.m_year, ev.z_year) == (2001, 2002, 2004)
        assert not ev.censored

    def test_rising_to_boundary_marks_peak_ongoing(self):
        ev = detect_events(series({t: float(t - 1999) for t in range(2000, 2010)}))
        assert ev.m_year is None and ev.z_year is None

    def test_peak_tie_breaks_to_earliest(self):
        ev = detect_events(series({2000: 1.0, 2001: 9.0, 2002: 9.0, 2003: 1.0, 2004: 0.0}))
        assert ev.m_year == 2001

    def test_censored_when_tail_stays_above_threshold(self):
        ev = detect_events(series({2000: 1.0, 2001: 10.0, 2002: 5.0}))
        assert ev.z_year == 2002 and ev.censored

    def test_override_sets_begin_year(self):
        s = series({2000: 1.0, 2001: 2.0, 2002: 1.0, 2003: 0.001})
        assert detect_events(s, a_override=1990).a_year == 1990
        with pytest.raises(TechCycleError, match="x: begin 2001 after its first revenue year 2000"):
            detect_events(s, a_override=2001)

    def test_threshold_validation(self):
        with pytest.raises(TechCycleError, match="end threshold must be in"):
            detect_events(series({2000: 1.0}), end_threshold_rel=0.0)

    @given(st.floats(0.001, 1000.0))
    @settings(max_examples=100)
    def test_invariant_under_positive_rescaling(self, factor):
        base = series({2000: 1.0, 2001: 8.0, 2002: 3.0, 2003: 0.05, 2004: 0.01})
        scaled = rescaled(base, factor)
        ev_base = detect_events(base)
        ev_scaled = detect_events(scaled)
        assert (ev_base.a_year, ev_base.m_year, ev_base.z_year, ev_base.censored) == (
            ev_scaled.a_year, ev_scaled.m_year, ev_scaled.z_year, ev_scaled.censored
        )


class TestCycleMetrics:
    def test_vinyl_row(self):
        summary = cycle_metrics(events("vinyl", 1930, 1979, 2019))
        assert (summary.am, summary.mz, summary.az) == (49, 40, 89)
        assert summary.up_share == pytest.approx(55.06, abs=0.005)
        assert summary.down_share == pytest.approx(44.94, abs=0.005)

    def test_cd_row_splits_evenly(self):
        summary = cycle_metrics(events("cd", 1983, 2001, 2019))
        assert (summary.am, summary.mz, summary.az) == (18, 18, 36)
        assert summary.up_share == pytest.approx(50.0)
        assert summary.down_share == pytest.approx(50.0)

    def test_peak_at_birth_edge(self):
        summary = cycle_metrics(events("x", 2000, 2000, 2010))
        assert (summary.am, summary.mz, summary.az) == (0, 10, 10)
        assert summary.up_share == pytest.approx(0.0)
        assert summary.down_share == pytest.approx(100.0)

    def test_ongoing_peak_leaves_fields_absent(self):
        summary = cycle_metrics(events("streaming", 2005, None, None))
        assert summary.am is None and summary.mz is None and summary.az is None
        assert summary.up_share is None

    def test_shares_always_sum_to_hundred(self):
        summary = cycle_metrics(events("x", 1970, 1999, 2010))
        assert summary.up_share + summary.down_share == pytest.approx(100.0, abs=1e-9)
        assert summary.am + summary.mz == summary.az

    def test_zero_length_cycle_rejected(self):
        with pytest.raises(TechCycleError, match="zero-length cycle"):
            cycle_metrics(events("x", 2000, 2000, 2000))

    def test_event_ordering_validated(self):
        with pytest.raises(TechCycleError, match="begin 2005 after peak 2001"):
            events("x", 2005, 2001, 2010)


class TestDisruptionPeriod:
    """The disruption period is the down wave MZ of ``cycle_metrics``."""

    def test_cassette_reference_years(self):
        assert cycle_metrics(events("cassette", 1964, 1990, 2008)).mz == 18

    def test_8_track_reference_years(self):
        assert cycle_metrics(events("8-track", 1965, 1978, 1982)).mz == 4

    def test_peak_equals_end(self):
        assert cycle_metrics(events("x", 2000, 2005, 2005)).mz == 0

    def test_ongoing_has_none(self):
        assert cycle_metrics(events("streaming", 2005, None, None)).mz is None


class TestCrossover:
    def test_bundled_8_track_vs_cassette(self, dataset):
        result = crossover_year(dataset.series["8-track"], dataset.series["cassette"])
        assert result.year == 1980
        assert result.established_share == pytest.approx(42.80, abs=1.5)
        assert not result.boundary

    def test_bundled_cassette_vs_cd(self, dataset):
        result = crossover_year(dataset.series["cassette"], dataset.series["cd"])
        assert result.year == 1991
        assert result.established_share == pytest.approx(41.00, abs=1.5)

    def test_hand_arithmetic(self):
        old = series({2000: 10.0, 2001: 10.0}, "old")
        new = series({2000: 5.0, 2001: 15.0}, "new")
        result = crossover_year(old, new)
        assert result.year == 2001
        assert result.established_share == pytest.approx(40.0, abs=1e-12)

    def test_no_crossover_is_none(self):
        old = series({2000: 10.0, 2001: 10.0}, "old")
        new = series({2000: 1.0, 2001: 2.0}, "new")
        assert crossover_year(old, new) is None

    def test_no_comparable_year_is_none(self):
        old = series({2000: 1.0}, "old")
        new = series({2005: 1.0}, "new")
        assert crossover_year(old, new) is None

    def test_boundary_flag_when_crossed_from_the_start(self):
        old = series({2000: 1.0, 2001: 1.0}, "old")
        new = series({2000: 9.0, 2001: 9.0}, "new")
        result = crossover_year(old, new)
        assert result.year == 2000 and result.boundary

    def test_incomparable_years_are_skipped(self):
        # 2001 has no combined revenue and 2002 no established value
        old = series({2000: 10.0, 2001: 0.0, 2003: 4.0}, "old")
        new = series({2000: 1.0, 2001: 0.0, 2002: 5.0, 2003: 6.0}, "new")
        assert crossover_year(old, new) == CrossoverResult(2003, 40.0, boundary=False)

    @given(st.floats(0.001, 1000.0))
    @settings(max_examples=50)
    def test_stable_under_joint_rescaling(self, factor):
        old = series({2000: 10.0, 2001: 8.0, 2002: 4.0}, "old")
        new = series({2000: 2.0, 2001: 6.0, 2002: 9.0}, "new")
        base = crossover_year(old, new)
        scaled = crossover_year(rescaled(old, factor), rescaled(new, factor))
        assert scaled.year == base.year
        assert scaled.established_share == pytest.approx(base.established_share, rel=1e-9)

    def test_returned_year_is_minimal(self, dataset):
        # exhaustive re-scan over the overlap confirms minimality
        old = dataset.series["cassette"]
        new = dataset.series["cd"]
        result = crossover_year(old, new)
        for year in range(max(old.first_year, new.first_year), result.year):
            o, n = old.points.get(year), new.points.get(year)
            if o is None or n is None or o + n <= 0:
                continue
            assert 100.0 * o / (o + n) >= 50.0


class TestAggregateCycles:
    def reference_summaries(self):
        return [
            cycle_metrics(events(tech, a, m, z))
            for tech, a, m, z in REFERENCE_ROWS
        ]

    def test_reference_rows_aggregate(self):
        agg = aggregate_cycles(self.reference_summaries())
        assert agg.mean["am"] == pytest.approx(22.80, abs=0.005)
        assert agg.mean["mz"] == pytest.approx(19.25, abs=0.005)
        assert agg.mean["az"] == pytest.approx(45.75, abs=0.005)
        assert agg.sd["am"] == pytest.approx(16.08, abs=0.005)
        assert agg.sd["mz"] == pytest.approx(15.09, abs=0.005)
        assert agg.sd["az"] == pytest.approx(30.63, abs=0.005)
        assert agg.mean["up_share"] == pytest.approx(61.24, abs=0.005)
        assert agg.mean["down_share"] == pytest.approx(38.76, abs=0.005)
        assert agg.n == {"am": 5, "mz": 4, "az": 4, "up_share": 4, "down_share": 4}

    def test_sample_sd_convention(self):
        # the five up-wave lengths pin the n-1 divisor
        values = [49.0, 13.0, 26.0, 18.0, 8.0]
        assert statistics.stdev(values) == pytest.approx(16.08, abs=0.005)

    def test_single_summary(self):
        agg = aggregate_cycles([cycle_metrics(events("x", 2000, 2004, 2010))])
        assert agg.mean["am"] == 4.0
        assert agg.sd["am"] is None and agg.sd["az"] is None

    def test_matches_two_pass_oracle_on_random_rows(self):
        import random

        rng = random.Random(20240817)
        summaries = []
        for _ in range(1000):
            a = rng.randint(1900, 2000)
            m = a + rng.randint(1, 40)
            z = m + rng.randint(1, 40)
            summaries.append(cycle_metrics(events("x", a, m, z)))
        agg = aggregate_cycles(summaries)

        ams = [s.am for s in summaries]
        assert agg.mean["am"] == pytest.approx(statistics.fmean(ams), abs=1e-9)
        assert agg.sd["am"] == pytest.approx(statistics.stdev(ams), abs=1e-9)
        azs = [s.az for s in summaries]
        assert agg.mean["az"] == pytest.approx(statistics.fmean(azs), abs=1e-9)
        assert agg.sd["az"] == pytest.approx(statistics.stdev(azs), abs=1e-9)
        ups = [s.up_share for s in summaries]
        assert agg.mean["up_share"] == pytest.approx(statistics.fmean(ups), abs=1e-9)
        assert agg.mean["up_share"] + agg.mean["down_share"] == pytest.approx(100.0, abs=1e-9)

    def test_permutation_invariance(self):
        import random

        summaries = self.reference_summaries()
        shuffled = summaries[:]
        random.Random(5).shuffle(shuffled)
        assert aggregate_cycles(summaries) == aggregate_cycles(shuffled)


@pytest.mark.parametrize("call, error, message", [
    (lambda: events("x", 2000, 2010, 2005), TechCycleError, "x: peak 2010 after end 2005"),
    (lambda: events("x", 2000, None, 2005), TechCycleError, "x: end year without a peak year"),
    (lambda: aggregate_cycles([]), InsufficientDataError,
     "aggregate_cycles needs at least one summary"),
    (lambda: CrossoverResult(year=2000, established_share=50.0), TechCycleError,
     "crossover share must be below 50, got 50.0"),
], ids=["peak-after-end", "end-without-peak", "aggregate-no-summary", "crossover-share-50"])
def test_library_checks(call, error, message):
    with pytest.raises(TechCycleError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
