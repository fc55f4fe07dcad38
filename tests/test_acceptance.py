"""Acceptance suite: the package's headline guarantees, one test per
criterion, each printing a PASS line with the measured values.

Targets marked "reference" are the published figures the bundled dataset
and pinned configuration are expected to reproduce; tolerances are fixed
here, not tuned.
"""

import hashlib
import math
import statistics
import time

import numpy as np
import pytest
from scipy import integrate

from techcycle.cli import main as cli_main
from techcycle.cycle import (
    CycleEvents,
    aggregate_cycles,
    crossover_year,
    cycle_metrics,
)
from techcycle.growth import (
    LogisticParams,
    Regime,
    fit_substitution,
    log_odds,
    odds_relation,
)
from techcycle.regress import ols_simple, t_p_value
from techcycle.report import build_report
from techcycle.synthlab import SyntheticScenario, recovery_experiment


def report_line(name, detail):
    print(f"\nACCEPTANCE {name}: PASS  ({detail})")


def events(tech, a, m, z):
    return CycleEvents(technology=tech, a_year=a, m_year=m, z_year=z)


REFERENCE_TRIPLES = [
    ("vinyl", 1930, 1979, 2019),
    ("8-track", 1965, 1978, 1982),
    ("cassette", 1964, 1990, 2005),
    ("cd", 1983, 2001, 2019),
    ("download", 2004, 2012, None),
]

REFERENCE_ROW_VALUES = {
    "vinyl": (49, 40, 89, 55.06, 44.94),
    "8-track": (13, 4, 17, 76.47, 23.53),
    "cassette": (26, 15, 41, 63.41, 36.59),
    "cd": (18, 18, 36, 50.00, 50.00),
    "download": (8, None, None, None, None),
}


def test_criterion_1_cycle_table_arithmetic():
    """Wave lengths, means, SDs and the 61.24/38.76 split, exactly."""
    triples = [events(t, a, m, z) for t, a, m, z in REFERENCE_TRIPLES]

    def compute():
        summaries = [cycle_metrics(ev) for ev in triples]
        return summaries, aggregate_cycles(summaries)

    compute()  # warm-up outside the timed run
    start = time.perf_counter()
    summaries, agg = compute()
    elapsed = time.perf_counter() - start

    for summary in summaries:
        am, mz, az, up, down = REFERENCE_ROW_VALUES[summary.events.technology]
        assert summary.am == am
        assert summary.mz == mz
        assert summary.az == az
        if up is None:
            assert summary.up_share is None
        else:
            assert summary.up_share == pytest.approx(up, abs=0.005)
            assert summary.down_share == pytest.approx(down, abs=0.005)

    assert agg.mean["am"] == pytest.approx(22.80, abs=0.005)
    assert agg.mean["mz"] == pytest.approx(19.25, abs=0.005)
    assert agg.mean["az"] == pytest.approx(45.75, abs=0.005)
    assert agg.sd["am"] == pytest.approx(16.08, abs=0.005)
    assert agg.sd["mz"] == pytest.approx(15.09, abs=0.005)
    assert agg.sd["az"] == pytest.approx(30.63, abs=0.005)
    assert agg.mean["up_share"] == pytest.approx(61.24, abs=0.005)
    assert agg.mean["down_share"] == pytest.approx(38.76, abs=0.005)
    assert elapsed < 1e-3
    report_line(
        "1 cycle-table arithmetic",
        f"means {agg.mean['am']:.2f}/{agg.mean['mz']:.2f}/{agg.mean['az']:.2f}, "
        f"shares {agg.mean['up_share']:.2f}/{agg.mean['down_share']:.2f}, "
        f"{elapsed * 1e6:.0f}us",
    )


def test_criterion_2_disruption_table_arithmetic():
    """DPs from given peak/end years; share-column mean and SD."""
    dps = [
        cycle_metrics(events("8-track", 1965, 1978, 1982)).mz,
        cycle_metrics(events("cassette", 1964, 1990, 2008)).mz,
        cycle_metrics(events("cd", 1983, 2000, 2018)).mz,
    ]
    assert dps == [4, 18, 18]

    shares = [42.80, 41.00, 45.20, 46.60, 49.98]
    assert statistics.fmean(shares) == pytest.approx(45.12, abs=0.005)
    assert statistics.stdev(shares) == pytest.approx(3.47, abs=0.005)

    # The published DP spread (8.8) does not follow from these three values;
    # the sample SD is the accepted output.
    dp_sd = statistics.stdev(dps)
    assert dp_sd == pytest.approx(8.0829, abs=0.005)
    report_line(
        "2 disruption-table arithmetic",
        f"DPs {dps}, share mean {statistics.fmean(shares):.2f} "
        f"SD {statistics.stdev(shares):.2f}, DP SD {dp_sd:.4f}",
    )


def test_criterion_3_regression_targets(dataset, reference):
    """Substitution exponents on the bundled data at the pinned windows."""
    start = time.perf_counter()
    cd_fit = fit_substitution(
        dataset.series_for(reference.table1_new),
        dataset.series_for(reference.table1_old),
        window=reference.table1_window,
    )
    stream_fit = fit_substitution(
        dataset.series_for(reference.table2_new),
        dataset.series_for(reference.table2_old),
        window=reference.table2_window,
    )
    elapsed = time.perf_counter() - start

    assert 1.8 <= cd_fit.b_exponent <= 2.4  # reference value 2.1
    assert cd_fit.regime is Regime.ACCELERATION
    assert -1.45 <= stream_fit.b_exponent <= -1.10  # reference value -1.28
    assert stream_fit.fit.r2_adj >= 0.90  # reference value 0.95
    assert abs(stream_fit.fit.f_stat - 240.01) <= 0.20 * 240.01
    assert elapsed < 1.0
    report_line(
        "3 regression targets",
        f"cd/cassette B={cd_fit.b_exponent:.3f} ({cd_fit.regime.value}), "
        f"streaming/cd B={stream_fit.b_exponent:.3f} "
        f"r2adj={stream_fit.fit.r2_adj:.3f} F={stream_fit.fit.f_stat:.1f}",
    )


def test_criterion_4_crossover_targets(dataset, reference):
    """Crossover years/shares and the mean disruption period near 13."""
    pairs = [
        ("8-track", "cassette", 1980, 42.80),
        ("cassette", "cd", 1991, 41.00),
        ("download", "streaming", 2015, 49.98),
    ]
    details = []
    for old, new, year, share in pairs:
        result = crossover_year(dataset.series[old], dataset.series[new])
        assert result is not None and not result.boundary
        assert result.year == year
        assert result.established_share == pytest.approx(share, abs=1.5)
        details.append(f"{old}->{new} {result.year} {result.established_share:.2f}%")

    market = build_report(dataset, reference)
    assert market.table3_aggregate.mean["dp"] == pytest.approx(13.0, abs=1.0)
    details.append(f"mean DP {market.table3_aggregate.mean['dp']:.2f}y")
    report_line("4 crossover targets", ", ".join(details))


def test_criterion_5_ols_oracle_equivalence():
    """200 random datasets against a direct normal-equation solve."""
    rng = np.random.RandomState(20240817)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.randint(3, 51))
        xs = rng.uniform(-10, 10, size=n)
        while np.ptp(xs) == 0.0:
            xs = rng.uniform(-10, 10, size=n)
        beta0, beta1 = rng.uniform(-5, 5, size=2)
        ys = beta0 + beta1 * xs + rng.normal(0, rng.uniform(0.01, 2.0), size=n)

        fit = ols_simple(list(xs), list(ys))
        x = np.column_stack([np.ones(n), xs])
        solution = np.linalg.solve(x.T @ x, x.T @ ys)
        resid = ys - x @ solution
        sse = float(resid @ resid)
        syy = float(((ys - ys.mean()) ** 2).sum())
        r2 = 1.0 - sse / syy if syy > 0 else 1.0

        assert math.isclose(fit.intercept, solution[0], rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(fit.slope, solution[1], rel_tol=1e-10, abs_tol=1e-12)
        assert abs(fit.r2 - r2) < 1e-9
        if math.isfinite(fit.f_stat):
            assert math.isclose(fit.f_stat, fit.t_slope**2, rel_tol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_line("5 ols oracle equivalence", f"200 datasets, {elapsed:.3f}s")


def test_criterion_6_odds_identity_exactness():
    """Exact log-odds coupling on 1000 random curve pairs, 41 times each."""
    rng = np.random.RandomState(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p1 = LogisticParams(k=float(rng.uniform(1, 1e4)),
                            a=float(rng.uniform(-20, 20)),
                            b=float(rng.uniform(0.05, 3.0)))
        p2 = LogisticParams(k=float(rng.uniform(1, 1e4)),
                            a=float(rng.uniform(-20, 20)),
                            b=float(rng.uniform(0.05, 3.0)))
        relation = odds_relation(p1, p2)
        for t in np.linspace(p1.inflection - 20.0, p1.inflection + 20.0, 41):
            lhs = log_odds(p1, float(t))
            rhs = relation.log_c1 + relation.exponent * log_odds(p2, float(t))
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    report_line("6 odds identity", f"max residual {worst:.2e}, {elapsed:.3f}s")


def test_criterion_7_derivation_recovery():
    """Early-window fits recover the rate ratio; saturation widens the gap."""
    start = time.perf_counter()
    details = []
    for ratio in (0.5, 1.0, 2.0, 4.0):
        b1 = 0.2
        b2 = ratio * b1
        t1 = (math.log(9) + 0.5 * b1) / b1 + 30
        t2 = (math.log(9) + 0.5 * b2) / b2 + 32
        scenario = SyntheticScenario(
            p_old=LogisticParams(k=1000.0, a=b1 * t1, b=b1),
            p_new=LogisticParams(k=2500.0, a=b2 * t2, b=b2),
            years=(0, 60),
        )
        early = recovery_experiment(scenario, early_fraction=0.1)
        assert early.abs_gap < 0.05
        # widen past both inflection points, staying inside the sampled years
        wide_end = min(
            scenario.years[1],
            int(max(scenario.p_old.inflection, scenario.p_new.inflection)) + 10,
        )
        wide = recovery_experiment(scenario, window=(0, wide_end))
        assert wide.abs_gap > early.abs_gap
        details.append(f"{ratio}: {early.abs_gap:.3f}<{wide.abs_gap:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_line("7 derivation recovery", "; ".join(details) + f", {elapsed:.3f}s")


def test_criterion_8_t_distribution_accuracy():
    """Tail probabilities against adaptive quadrature of the density."""

    def density(x, df):
        c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        return c * (1 + x * x / df) ** (-(df + 1) / 2)

    worst = 0.0
    for df in (1, 5, 13, 23, 100):
        for t in (0.0, 0.5, 1.0, 2.0, 3.8, 10.0):
            if t == 0.0:
                expected = 1.0
            else:
                body, _ = integrate.quad(density, -t, t, args=(df,),
                                         epsabs=1e-12, epsrel=1e-12)
                expected = 1.0 - body
            worst = max(worst, abs(t_p_value(t, df) - expected))
    assert worst < 1e-8
    assert abs(t_p_value(1.0, 1) - 0.5) < 1e-10
    report_line("8 t-distribution accuracy",
                f"max abs error {worst:.2e}, Cauchy quartile exact")


def test_criterion_9_determinism(tmp_path, capsys, data_dir):
    """Byte-identical outputs for repeated report and simulate runs."""

    def tree_digest(root):
        digest = hashlib.sha256()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()

    report_digests = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert cli_main(["report", "--out", str(out)]) == 0
        report_digests.append(tree_digest(out))
    assert report_digests[0] == report_digests[1]

    scenario = str(data_dir / "scenarios" / "dual_logistic_demo.cfg")
    sim_digests = []
    for sub in ("s1", "s2"):
        out = tmp_path / sub
        assert cli_main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        sim_digests.append(tree_digest(out))
    assert sim_digests[0] == sim_digests[1]
    capsys.readouterr()  # swallow the CLI chatter before the summary line
    report_line("9 determinism",
                f"report sha {report_digests[0][:12]}, sim sha {sim_digests[0][:12]}")
