import math
import statistics

import pytest

from techcycle.config import load_reference
from techcycle.errors import TechCycleError
from techcycle.growth import fit_substitution
from techcycle.report import (
    build_report,
    cycle_events,
    cycle_table,
    load_dataset,
    mapping_to_csv,
    pair_to_mapping,
    render_fit_text,
    render_table3_text,
    render_table4_text,
    write_report,
)

from builders import dataset_files, series, write_files


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


def test_write_report_unknown_format_creates_nothing(market, dataset, tmp_path):
    out = tmp_path / "x"
    with pytest.raises(TechCycleError):
        write_report(market, dataset, out, "xml")
    assert list(tmp_path.iterdir()) == []


class TestFitRendering:
    def test_exact_fit_renders_infinite_f(self):
        same = series({y: 2.0 ** (y - 2000) for y in range(2000, 2006)}, "t")
        fit = fit_substitution(same, same)
        text = render_fit_text(fit)
        assert text == (
            "Substitution fit: t vs t\n"
            "Window: 2000:2005  (n=6, natural logs)\n"
            "\n"
            "term            estimate     std err         t         p  sig\n"
            "log A               0.00        0.00       inf     0.000  ***\n"
            "B                   1.00        0.00       inf     0.000  ***\n"
            "\n"
            "R2 = 1.00   R2 adj. = 1.00   s.e. of estimate = 0.00\n"
            "F = inf (p = 0.000)\n"
            "Regime: Proportional\n"
        )
        assert math.isinf(fit.fit.f_stat)


class TestRenderedBytes:
    """Whole renderer outputs, pinned byte for byte, on inputs that reach the
    branches the bundled data do not: no crossover, an established side with
    no peak, and a column with a single entry."""

    SERIES = {
        "Old": (2000, [1.0, 4.0, 9.0, 6.0, 3.0, 1.0, 0.5, 0.05, 0.01]),
        "Mid": (2002, [1.0, 3.0, 8.0, 12.0, 9.0, 5.0, 4.0]),
        "New": (2005, [1.0, 3.0, 6.0, 10.0]),
        "Fast": (2006, [0.5, 5.0, 20.0]),
        "Solo": (1990, [2.0, 5.0, 3.0, 0.01]),
    }

    @pytest.fixture()
    def small(self, tmp_path):
        rows = "".join(f"{first + i},{fmt},,{value!r},\n" for fmt, (first, values)
                       in self.SERIES.items() for i, value in enumerate(values))
        write_files(tmp_path, {
            **dataset_files(rows, cpi="year,index\n2018,100\n",
                            groups="old = Old\nmid = Mid\nnew = New\nfast = Fast\nsolo = Solo\n"),
            "reference.cfg": "table1_old = old\ntable1_new = mid\n"
                             "table2_old = mid\ntable2_new = new\n"
                             "table3_pairs = old:mid; mid:new; new:fast; solo:old; fast:new\n",
        })
        dataset = load_dataset(tmp_path / "data.csv", tmp_path / "cpi.csv", tmp_path / "groups.cfg")
        return dataset, load_reference(tmp_path / "reference.cfg")

    def test_table3_text(self, small):
        assert render_table3_text(build_report(*small)) == (
            "Crossovers and disruption periods\n"
            "established   disruptive             crossover  share %   peak    end   DP\n"
            "old           mid                         2004    27.27   2002   2007    5\n"
            "mid           new                         2007    45.45   2005  2008*     \n"
            "new           fast                        2008    33.33                   \n"
            "solo          old                         none            1991   1993     \n"
            "fast          new                         n.a.  (14.29)                   \n"
            "\n"
            "Mean established share at crossover: 35.35%  (SD 9.26)\n"
            "Mean disruption period: 5.00 years\n"
            "n.a. = crossover already in force at the first comparable year\n"
            "*   = final data year, revenues still above the end threshold\n"
        )

    def test_table4_text(self, small):
        market = build_report(*small)
        assert render_table4_text(market.table4, market.table4_aggregate) == (
            "Technology cycles\n"
            "technology       A      M      Z      AM      MZ      AZ     up %   down %\n"
            "old           2000   2002   2007       2       5       7    28.57    71.43\n"
            "mid           2002   2005  2008*       3       3       6    50.00    50.00\n"
            "new           2005      *      *       *       *       *        *        *\n"
            "fast          2006      *      *       *       *       *        *        *\n"
            "solo          1990   1991   1993       1       2       3    33.33    66.67\n"
            "\n"
            "mean                                2.00    3.33    5.33    37.30    62.70\n"
            "SD                                  1.00    1.53    2.08                  \n"
            "\n"
            "* = event still in progress at the end of the data\n"
        )

    def test_table4_text_with_single_entry_columns(self, small):
        events = cycle_events(*small)
        assert render_table4_text(*cycle_table({k: events[k] for k in ("old", "new")})) == (
            "Technology cycles\n"
            "technology       A      M      Z      AM      MZ      AZ     up %   down %\n"
            "old           2000   2002   2007       2       5       7    28.57    71.43\n"
            "new           2005      *      *       *       *       *        *        *\n"
            "\n"
            "mean                                2.00    5.00    7.00    28.57    71.43\n"
            "SD                                                                        \n"
            "\n"
            "* = event still in progress at the end of the data\n"
        )

    def test_mapping_to_csv(self):
        mapping = {
            "rows": [{"name": "a,b", "flag": True, "value": None},
                     {"name": 'say "hi"', "flag": False, "value": -0.0}],
            "none": None, "yes": True, "no": False, "count": 7, "top": math.inf,
            "bottom": -math.inf, "zero": -0.0, "third": 1 / 3, "comma": "x,y",
            "quote": 'a "b" c', "outer": {"inner": {"deep": 1.5, "label": "p,q"}, "flat": None},
        }
        assert mapping_to_csv(mapping) == (
            "name,flag,value\n"
            '"a,b",true,\n'
            '"say ""hi""",false,-0.0\n'
            "\n"
            "key,value\n"
            "none,\n"
            "yes,true\n"
            "no,false\n"
            "count,7\n"
            "top,inf\n"
            "bottom,-inf\n"
            "zero,-0.0\n"
            "third,0.3333333333333333\n"
            'comma,"x,y"\n'
            'quote,"a ""b"" c"\n'
            "outer.inner.deep,1.5\n"
            'outer.inner.label,"p,q"\n'
            "outer.flat,\n"
        )
