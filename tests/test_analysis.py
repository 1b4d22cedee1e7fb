"""Tests for :mod:`repro.analysis` — sweeps, convergence and experiment tables."""

from __future__ import annotations

import math

import pytest

from repro.analysis.convergence import horizon_convergence
from repro.analysis.sweep import (
    interesting_grid,
    sweep_optimal_strategies,
    sweep_random_faults,
    sweep_strategy_family,
)
from repro.analysis import tables
from repro.core.bounds import crash_ray_ratio
from repro.core.problem import line_problem, ray_problem
from repro.service import ScenarioScheduler, montecarlo_grid_specs
from repro.strategies.geometric import RoundRobinGeometricStrategy
from repro.strategies.single_robot import DoublingLineStrategy


class TestInterestingGrid:
    def test_grid_respects_regime(self):
        for m, k, f in interesting_grid(max_rays=5, max_robots=8, max_faulty=3):
            assert f < k < m * (f + 1)

    def test_grid_contains_headline_cases(self):
        grid = interesting_grid(max_rays=4, max_robots=6, max_faulty=2)
        assert (2, 3, 1) in grid
        assert (3, 2, 0) in grid

    def test_grid_respects_caps(self):
        for m, k, f in interesting_grid(max_rays=3, max_robots=4, max_faulty=1):
            assert m <= 3 and k <= 4 and f <= 1


class TestSweeps:
    def test_optimal_sweep_rows(self):
        rows = sweep_optimal_strategies([(2, 3, 1), (3, 2, 0)], horizon=500.0)
        assert len(rows) == 2
        for row in rows:
            assert row.measured <= row.theoretical + 1e-6
            assert 0 <= row.relative_gap < 0.05
            assert row.theoretical == pytest.approx(
                crash_ray_ratio(row.num_rays, row.num_robots, row.num_faulty)
            )

    def test_family_sweep_handles_unknown_guarantee(self):
        strategies = [
            DoublingLineStrategy(),
            RoundRobinGeometricStrategy(line_problem(3, 1)),
        ]
        rows = sweep_strategy_family(strategies, horizon=200.0)
        assert len(rows) == 2
        assert all(math.isfinite(row.measured) for row in rows)

    def test_random_fault_sweep_rows(self):
        rows = sweep_random_faults(
            [(2, 3, 1), (3, 2, 0)], horizon=150.0, num_trials=64, seed=5
        )
        assert len(rows) == 2
        for row in rows:
            # Random faults can never beat the adversarial assignment.
            assert row.max_ratio <= row.adversarial + 1e-9
            assert row.mean_ratio <= row.max_ratio + 1e-9
            assert row.slack > 0.0
            assert row.std_error > 0.0
            assert row.mean_ratio <= row.quantile_95 + 1e-9 or row.num_trials < 20
            assert row.num_trials == 64

    def test_random_fault_sweep_deterministic_across_workers(self):
        # A parallel grid runs through the scheduler's process pool; its
        # rows are bit-identical to the serial sweep's.
        grid = [(2, 3, 1), (2, 5, 2), (3, 4, 1)]
        serial = sweep_random_faults(grid, horizon=120.0, num_trials=32, seed=0)
        scheduler = ScenarioScheduler()
        try:
            batch = scheduler.run_batch(
                montecarlo_grid_specs(grid, horizon=120.0, num_trials=32, seed=0),
                max_workers=3,
                shard_size=1,
            )
        finally:
            scheduler.close()
        parallel = [
            (
                payload["spec"]["seed"],
                payload["adversarial_ratio"],
                payload["mean_ratio"],
                payload["std_error"],
                payload["quantile_95"],
                payload["max_ratio"],
                payload["num_trials"],
            )
            for payload in batch.results
        ]
        assert parallel == [
            (
                row.seed,
                row.adversarial,
                row.mean_ratio,
                row.std_error,
                row.quantile_95,
                row.max_ratio,
                row.num_trials,
            )
            for row in serial
        ]
        # Per-row child seeds are distinct, so rows are independent streams.
        assert len({row.seed for row in serial}) == len(grid)

    def test_relative_gap_nan_for_unknown_theoretical(self):
        from repro.analysis.sweep import SweepRow

        row = SweepRow(2, 1, 0, "x", theoretical=math.nan, measured=3.0, horizon=10.0)
        assert math.isnan(row.relative_gap)


class TestConvergence:
    def test_measured_ratio_monotone_in_horizon(self):
        strategy = DoublingLineStrategy()
        study = horizon_convergence(strategy, horizons=[10.0, 100.0, 1000.0, 10000.0])
        assert study.is_monotone_nondecreasing
        assert study.points[-1].measured <= 9.0 + 1e-9

    def test_gap_shrinks_with_horizon(self):
        strategy = RoundRobinGeometricStrategy(line_problem(3, 1))
        study = horizon_convergence(strategy, horizons=[10.0, 1000.0])
        gaps = study.gaps()
        assert gaps[-1] <= gaps[0] + 1e-9
        assert study.final_gap >= -1e-9


class TestExperimentTables:
    def test_e1_rows_match_bound(self):
        table = tables.e1_theorem1_line(horizon=300.0, max_faulty=1)
        assert table.experiment_id == "E1"
        for row in table.rows:
            k, f = row[0], row[1]
            paper, measured = row[3], row[4]
            assert paper == pytest.approx(crash_ray_ratio(2, k, f), rel=1e-6)
            assert measured <= paper + 1e-6

    def test_e2_trivial_rows_have_ratio_one(self):
        table = tables.e2_trivial_regimes(horizon=100.0)
        for row in table.rows:
            regime, paper, measured = row[3], row[4], row[5]
            if regime == "trivial":
                assert measured == pytest.approx(1.0)
            else:
                assert measured == math.inf

    def test_e3_contains_headline(self):
        table = tables.e3_byzantine_bounds()
        headline = [row for row in table.rows if row[0] == 3 and row[1] == 1]
        assert len(headline) == 1
        assert headline[0][2] == pytest.approx(5.2331, abs=1e-3)

    def test_e5_cyclic_and_geometric_agree(self):
        table = tables.e5_parallel_rays(horizon=500.0, max_rays=4)
        for row in table.rows:
            paper, cyclic, geometric = row[2], row[3], row[4]
            assert cyclic <= paper + 1e-6
            assert geometric <= paper + 1e-6
            assert cyclic == pytest.approx(geometric, rel=0.02)

    def test_e8_all_lemmas_hold(self):
        table = tables.e8_lemmas()
        for row in table.rows:
            assert row[4] is True
            assert row[5] is True
            assert row[3] > 1.0  # delta below the critical mu

    def test_e9_classics(self):
        table = tables.e9_classics(horizon=1e4, max_rays=4)
        cow = table.rows[0]
        assert cow[2] == pytest.approx(9.0)
        assert cow[3] <= 9.0 + 1e-9

    def test_e10_optimum_is_best_in_sweep(self):
        table = tables.e10_alpha_ablation(horizon=500.0)
        geometric_rows = [row for row in table.rows if str(row[0]).startswith("geometric")]
        at_optimum = [row for row in geometric_rows if row[1] == 1.0]
        assert len(at_optimum) == 1
        best_measured = min(row[3] for row in geometric_rows)
        assert at_optimum[0][3] <= best_measured + 1e-6

    def test_e11_identities(self):
        table = tables.e11_connections(horizon=1e4, cases=((2, 1), (3, 2)))
        for row in table.rows:
            search, via_contract, acc_measured, hybrid_formula, hybrid_measured = (
                row[2],
                row[3],
                row[4],
                row[5],
                row[6],
            )
            assert search == pytest.approx(via_contract, rel=1e-9)
            assert hybrid_measured <= hybrid_formula + 1e-6

    def test_e12_randomized_and_average_case(self):
        table = tables.e12_randomized_and_average_case(horizon=200.0, num_trials=40)
        randomized = [row for row in table.rows if row[0].startswith("randomized")]
        injected = [row for row in table.rows if row[0].startswith("random crash")]
        assert randomized and injected
        for row in randomized:
            assert row[3] < row[2]
        for row in injected:
            assert row[3] < row[2]

    def test_column_accessor(self):
        table = tables.e3_byzantine_bounds()
        assert len(table.column("k")) == len(table.rows)
        with pytest.raises(ValueError):
            table.column("no-such-column")
