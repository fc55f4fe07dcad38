import json
import math
import statistics

import pytest

from techcycle.config import load_reference
from techcycle.errors import TechCycleError
from techcycle.growth import fit_substitution
from techcycle.market_data import RevenueSeries
from techcycle.report import (
    build_report,
    fit_to_mapping,
    pair_to_mapping,
    render_fit_text,
    render_table3_text,
)


@pytest.fixture(scope="module")
def market(dataset, reference):
    return build_report(dataset, reference)


class TestTable3Rows:
    def test_pair_order_follows_config(self, market):
        pairs = [(r.established, r.disruptive) for r in market.table3]
        assert pairs == [
            ("vinyl", "8-track"),
            ("8-track", "cassette"),
            ("cassette", "cd"),
            ("cd", "download"),
            ("cd", "download+streaming"),
            ("download", "streaming"),
        ]

    def test_boundary_crossover_gets_no_dp(self, market):
        vinyl = market.table3[0]
        assert vinyl.crossover is not None and vinyl.crossover.boundary
        assert vinyl.disruption_period is None

    def test_dp_reported_once_per_established(self, market):
        cd_rows = [r for r in market.table3 if r.established == "cd"]
        assert [r.disruption_period for r in cd_rows] == [19, None]

    def test_in_progress_decline_gets_no_dp(self, market):
        download = next(r for r in market.table3 if r.established == "download")
        assert download.crossover is not None
        assert download.disruption_period is None  # still at ~25% of peak

    def test_dp_values_and_mean(self, market):
        dps = [r.disruption_period for r in market.table3 if r.disruption_period]
        assert dps == [4, 15, 19]
        agg = market.table3_aggregate
        assert agg.mean["dp"] == pytest.approx(sum(dps) / 3)
        assert agg.sd["dp"] == pytest.approx(statistics.stdev(dps))
        assert agg.n["dp"] == 3

    def test_share_stats_exclude_boundary_rows(self, market):
        shares = [
            r.crossover.established_share
            for r in market.table3
            if r.crossover is not None and not r.crossover.boundary
        ]
        assert len(shares) == 5
        agg = market.table3_aggregate
        assert agg.mean["share"] == pytest.approx(sum(shares) / 5)
        assert agg.sd["share"] == pytest.approx(statistics.stdev(shares))
        assert agg.n["share"] == 5

    def test_rows_serialize_with_nulls(self, market):
        vinyl = pair_to_mapping(market.table3[0])
        assert vinyl["disruption_period_years"] is None
        assert vinyl["crossover_at_boundary"] is True
        text = render_table3_text(market)
        assert "n.a." in text and "Mean disruption period" in text


@pytest.mark.parametrize("line, message", [
    ("a_override.cdd = 1983", "a_override.cdd: unknown technology 'cdd'; known: "
                              "8-track, cassette, cd, download, streaming, vinyl"),
    ("a_override.cd = 2000", "a_override.cd: cd: begin 2000 after its first revenue year 1984"),
])
def test_build_report_checks_the_begin_year_overrides(dataset, data_dir, tmp_path, line,
                                                      message):
    path = tmp_path / "r.cfg"
    path.write_text((data_dir / "reference.cfg").read_text().replace("a_override.cd = 1983", line))
    with pytest.raises(TechCycleError) as exc:
        build_report(dataset, load_reference(path))
    assert str(exc.value) == message


class TestFitRendering:
    def test_mapping_round_trips_through_json(self, market):
        payload = json.loads(json.dumps(fit_to_mapping(market.table2)))
        assert payload["regime"] == "NegativeCoupling"
        assert payload["n"] == 15

    def test_exact_fit_renders_infinite_f(self):
        same = RevenueSeries(technology="t", base_year=2018,
                             points={y: 2.0 ** (y - 2000) for y in range(2000, 2006)})
        fit = fit_substitution(same, same)
        text = render_fit_text(fit)
        assert "F = inf" in text
        assert math.isinf(fit.fit.f_stat)

    def test_labels_present(self, market):
        assert market.table1.label == "cd vs cassette"
        assert market.table2.label == "streaming vs cd"
