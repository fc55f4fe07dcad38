import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techcycle.config import load_cpi_csv
from techcycle.errors import TechCycleError
from techcycle.market_data import (
    BASE_YEAR,
    CpiTable,
    RevenueRecord,
    RevenueSeries,
    TechnologyGroup,
    adjust_inflation,
    aggregate_group,
    parse_revenue_table,
    merge_series,
    positive_overlap_window,
)

HEADER = "year,format,revenue_nominal_musd,revenue_real_musd,units_m"


def csv_text(records):
    """Revenue CSV text of ``records``, with absent values as empty cells."""
    def cell(value):
        return "" if value is None else repr(value)

    rows = [
        f"{r.year},{r.format},{cell(r.revenue_nominal)},{cell(r.revenue_real)},{cell(r.units)}"
        for r in records
    ]
    return "\n".join([HEADER, *rows]) + "\n"


def make_series(points, technology="x", base_year=2018):
    return RevenueSeries(technology=technology, base_year=base_year, points=points)


class TestParse:
    def test_single_row(self):
        records = parse_revenue_table(HEADER + "\n2018,CD,698.4,698.4,52.0\n")
        assert records == [
            RevenueRecord(year=2018, format="CD", revenue_nominal=698.4,
                          revenue_real=698.4, units=52.0)
        ]

    def test_empty_data_section(self):
        assert parse_revenue_table(HEADER + "\n") == []

    def test_blank_cells_become_absent(self):
        (record,) = parse_revenue_table(HEADER + "\n1999,Cassette,,1600.0,\n")
        assert record.revenue_nominal is None
        assert record.revenue_real == 1600.0
        assert record.units is None

    def test_round_trip_three_rows(self):
        text = (
            HEADER + "\n"
            "1979,Vinyl Single,102.2,353.6,212.0\n"
            "1980,Vinyl Single,,331.0,\n"
            "1981,8-Track,309.0,,\n"
        )
        records = [
            RevenueRecord(1979, "Vinyl Single", 102.2, 353.6, 212.0),
            RevenueRecord(1980, "Vinyl Single", None, 331.0, None),
            RevenueRecord(1981, "8-Track", 309.0, None, None),
        ]
        assert csv_text(records) == text
        assert parse_revenue_table(text) == records

    def test_malformed_number_names_row_and_column(self):
        with pytest.raises(TechCycleError, match=r"row 2, column revenue_nominal_musd"):
            parse_revenue_table(HEADER + "\n2000,CD,1.0,,\n2001,CD,oops,,\n")

    def test_missing_both_revenues_rejected(self):
        with pytest.raises(TechCycleError, match="both revenue columns"):
            parse_revenue_table(HEADER + "\n2000,CD,,,10.0\n")

    def test_duplicate_year_format_rejected(self):
        with pytest.raises(TechCycleError, match=r"\(2000, 'CD'\)"):
            parse_revenue_table(HEADER + "\n2000,CD,1.0,,\n2000,CD,2.0,,\n")

    def test_blank_rows_are_skipped_and_still_numbered(self):
        rows = ["2000,CD,1.0,,", "2001,CD,2.0,,"]
        padded = "\n".join([HEADER, "", rows[0], ",,,,", rows[1], " , ,, , "]) + "\n"
        assert parse_revenue_table(padded) == parse_revenue_table(csv_text(
            [RevenueRecord(2000, "CD", 1.0), RevenueRecord(2001, "CD", 2.0)]))
        # the two skipped rows still count: the duplicate is the sixth physical row
        with pytest.raises(TechCycleError, match=r"^row 6: duplicate entry for \(2001, 'CD'\)$"):
            parse_revenue_table(padded + "2001,CD,3.0,,\n")

    def test_wrong_header_rejected(self):
        with pytest.raises(TechCycleError, match="header"):
            parse_revenue_table("a,b,c\n1,2,3\n")

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1900, max_value=2100),
                st.sampled_from(["CD", "Cassette", "Vinyl Single"]),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.booleans(),
            ),
            max_size=20,
        )
    )
    def test_round_trip_is_identity(self, rows):
        records = []
        seen = set()
        for year, fmt, value, with_units in rows:
            if (year, fmt) in seen:
                continue
            seen.add((year, fmt))
            records.append(
                RevenueRecord(year=year, format=fmt, revenue_nominal=value,
                              revenue_real=value * 1.5,
                              units=value / 10 if with_units else None)
            )
        assert parse_revenue_table(csv_text(records)) == records


class TestRecordValidation:
    def test_needs_one_revenue(self):
        with pytest.raises(TechCycleError, match="at least one revenue column required"):
            RevenueRecord(year=2000, format="CD")

    def test_year_bounds(self):
        with pytest.raises(TechCycleError, match=r"year 1800 outside \[1900, 2100\]"):
            RevenueRecord(year=1800, format="CD", revenue_real=1.0)

    def test_negative_rejected(self):
        with pytest.raises(TechCycleError, match="revenue_real must be >= 0"):
            RevenueRecord(year=2000, format="CD", revenue_real=-1.0)


class TestAdjustInflation:
    cpi = CpiTable(entries={1999: 50.0, 2000: 100.0, 2018: 100.0})

    def test_base_year_is_identity(self):
        records = [RevenueRecord(year=2018, format="CD", revenue_nominal=100.0)]
        (out,) = adjust_inflation(records, self.cpi)
        assert out.revenue_real == 100.0

    def test_ratio_arithmetic(self):
        records = [RevenueRecord(year=1999, format="CD", revenue_nominal=100.0)]
        (out,) = adjust_inflation(records, self.cpi)
        assert out.revenue_real == pytest.approx(200.0)

    def test_existing_real_passes_through(self):
        records = [RevenueRecord(year=1999, format="CD", revenue_nominal=100.0,
                                 revenue_real=123.0)]
        assert adjust_inflation(records, self.cpi) == records

    def test_missing_cpi_year_named(self):
        records = [RevenueRecord(year=1970, format="CD", revenue_nominal=1.0)]
        with pytest.raises(TechCycleError, match="1970"):
            adjust_inflation(records, self.cpi)

    def test_bundled_vinyl_single_1979(self, dataset, data_dir):
        # Deflating the bundled 1979 nominal value must land on the known
        # constant-dollar peak within 2%.
        nominal = next(
            r.revenue_nominal for r in dataset.records
            if r.year == 1979 and r.format == "Vinyl Single"
        )
        stripped = [RevenueRecord(year=1979, format="Vinyl Single",
                                  revenue_nominal=nominal)]
        (out,) = adjust_inflation(stripped, load_cpi_csv(data_dir / "cpi.csv"))
        assert out.revenue_real == pytest.approx(353.6, rel=0.02)

    def test_bundled_real_column_is_in_base_year_dollars(self, dataset, data_dir):
        # BASE_YEAR is a fact of the data: deflating the bundled nominal column
        # to it reproduces the bundled real column, row by row.
        assert BASE_YEAR == 2018
        cpi = load_cpi_csv(data_dir / "cpi.csv")
        gaps = [
            abs(r.revenue_nominal * cpi.deflator(r.year) / r.revenue_real - 1.0)
            for r in dataset.records
            if r.revenue_nominal is not None and r.revenue_real
        ]
        assert len(gaps) == 326
        assert statistics.median(gaps) < 1e-3
        assert sum(gap <= 0.01 for gap in gaps) >= 320

    def test_order_independence_of_deflation_and_summation(self):
        # Deflate-then-sum equals sum-then-deflate for same-year records.
        records = [
            RevenueRecord(year=1999, format="CD", revenue_nominal=120.0),
            RevenueRecord(year=1999, format="CD Single", revenue_nominal=80.0),
        ]
        group = TechnologyGroup(name="cd", formats=("CD", "CD Single"))
        adjusted = adjust_inflation(records, self.cpi)
        series = aggregate_group(adjusted, group)
        direct = (120.0 + 80.0) * self.cpi.deflator(1999)
        assert series.points[1999] == pytest.approx(direct, rel=1e-9)


class TestAggregateGroup:
    def adjusted(self, rows):
        return [RevenueRecord(year=y, format=f, revenue_real=v) for y, f, v in rows]

    def test_additivity(self):
        records = self.adjusted([(2000, "CD", 500.0), (2000, "CD Single", 50.0)])
        group = TechnologyGroup(name="cd", formats=("CD", "CD Single"))
        series = aggregate_group(records, group)
        assert dict(series.points) == {2000: 550.0}

    def test_singleton_identity(self):
        records = self.adjusted([(2000, "CD", 500.0), (2001, "CD", 400.0),
                                 (2000, "Cassette", 99.0)])
        group = TechnologyGroup(name="cd", formats=("CD",))
        series = aggregate_group(records, group)
        assert dict(series.points) == {2000: 500.0, 2001: 400.0}

    def test_years_without_members_absent(self):
        records = self.adjusted([(2000, "CD", 1.0), (2002, "CD", 2.0)])
        group = TechnologyGroup(name="cd", formats=("CD",))
        series = aggregate_group(records, group)
        assert series.points.get(2001) is None
        assert series.gap_years == (2001,)

    def test_empty_group_rejected(self):
        records = self.adjusted([(2000, "CD", 1.0)])
        with pytest.raises(TechCycleError, match="8-track"):
            aggregate_group(records, TechnologyGroup(name="8-track", formats=("8-Track",)))

    def test_permutation_invariance(self):
        rows = [(2000, "CD", 1.0), (2001, "CD", 2.0), (2000, "CD Single", 3.0),
                (2002, "CD Single", 4.0)]
        group = TechnologyGroup(name="cd", formats=("CD", "CD Single"))
        forward = aggregate_group(self.adjusted(rows), group)
        backward = aggregate_group(self.adjusted(rows[::-1]), group)
        assert dict(forward.points) == dict(backward.points)

    def test_bundled_streaming_2015(self, dataset):
        # Five streaming modes summed: the year streaming overtook CD.
        assert dataset.series["streaming"].points[2015] == pytest.approx(2400, rel=0.03)


class TestPositiveOverlapWindow:
    def test_reference_spans(self):
        a = make_series({y: 1.0 for y in range(1984, 2009)})
        b = make_series({y: 1.0 for y in range(1973, 2009)})
        assert positive_overlap_window(a, b) == (1984, 2008)

    def test_disjoint_supports(self):
        a = make_series({2000: 1.0, 2001: 1.0})
        b = make_series({2005: 1.0})
        assert positive_overlap_window(a, b) is None

    def test_zero_breaks_run(self):
        a = make_series({2000: 1.0, 2001: 0.0, 2002: 1.0, 2003: 1.0})
        b = make_series({y: 1.0 for y in range(2000, 2004)})
        assert positive_overlap_window(a, b) == (2002, 2003)

    @given(
        st.dictionaries(st.integers(1990, 2010), st.floats(0, 10, allow_nan=False),
                        min_size=1),
        st.dictionaries(st.integers(1990, 2010), st.floats(0, 10, allow_nan=False),
                        min_size=1),
    )
    @settings(max_examples=200)
    def test_matches_exhaustive_scan_and_symmetry(self, pa, pb):
        if all(v == 0 for v in pa.values()) or all(v == 0 for v in pb.values()):
            return
        a, b = make_series(pa), make_series(pb, technology="y")

        best, run = None, None
        for year in range(1985, 2016):
            ok = (pa.get(year, 0) > 0) and (pb.get(year, 0) > 0)
            if ok:
                run = (run or (year, year))[0], year
            else:
                if run and (best is None or run[1] - run[0] > best[1] - best[0]):
                    best = run
                run = None
        if run and (best is None or run[1] - run[0] > best[1] - best[0]):
            best = run

        assert positive_overlap_window(a, b) == best
        assert positive_overlap_window(b, a) == positive_overlap_window(a, b)


class TestSeriesValidation:
    def test_all_zero_rejected(self):
        with pytest.raises(TechCycleError, match="positive"):
            make_series({2000: 0.0, 2001: 0.0})

    def test_negative_rejected(self):
        with pytest.raises(TechCycleError, match="value for 2000 must be >= 0"):
            make_series({2000: -1.0})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(TechCycleError, match="^x: value for 2000 is not finite$"):
            make_series({2000: value, 2001: 1.0})

    def test_points_sorted_and_immutable(self):
        series = make_series({2002: 1.0, 2000: 2.0, 2001: 3.0})
        assert tuple(series.points) == (2000, 2001, 2002)
        with pytest.raises(TypeError):
            series.points[2003] = 4.0


class TestCpiTable:
    def test_base_year_must_be_present(self):
        with pytest.raises(TechCycleError, match="base year"):
            CpiTable(entries={2000: 100.0})

    def test_nonpositive_index_rejected(self):
        with pytest.raises(TechCycleError, match="CPI index for 2018 must be positive"):
            CpiTable(entries={2018: 0.0})


@pytest.mark.parametrize("call, message", [
    (lambda: aggregate_group([RevenueRecord(2000, "CD", revenue_nominal=1.0)],
                             TechnologyGroup("cd", ("CD",))),
     "2000 'CD': missing real revenue; run adjust_inflation first"),
    (lambda: TechnologyGroup("cd", ()), "group 'cd' has no formats"),
    (lambda: RevenueSeries("cd", BASE_YEAR, {}), "cd: series has no observations"),
    (lambda: merge_series("cd+download", []), "merge_series needs at least one series"),
], ids=["aggregate-undeflated", "group-no-formats", "series-no-points", "merge-nothing"])
def test_library_checks(call, message):
    with pytest.raises(TechCycleError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (TechCycleError, message)
