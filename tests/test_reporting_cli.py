"""Tests for :mod:`repro.reporting` and :mod:`repro.cli`."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.analysis.tables import ExperimentTable
from repro.cli import build_parser, main, render_top
from repro.reporting import (
    decode_float,
    encode_float,
    format_value,
    render_experiment,
    render_json,
    render_table,
    to_jsonable,
)


class TestFormatValue:
    def test_floats_rounded(self):
        assert format_value(3.14159, precision=2) == "3.14"

    def test_infinities(self):
        assert format_value(math.inf) == "inf"
        assert format_value(-math.inf) == "-inf"

    def test_nan(self):
        assert format_value(math.nan) == "nan"

    def test_booleans(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_strings_and_ints(self):
        assert format_value("abc") == "abc"
        assert format_value(42) == "42"

    def test_numpy_scalars_match_python_scalars(self):
        # Regression: numpy scalars used to fall through to str(), skipping
        # the inf/nan spelling and the float rounding entirely.
        assert format_value(np.float64(math.inf)) == "inf"
        assert format_value(np.float64(-math.inf)) == "-inf"
        assert format_value(np.float32(math.nan)) == "nan"
        assert format_value(np.float32(3.14159), precision=2) == "3.14"
        assert format_value(np.float64(3.14159)) == format_value(3.14159)
        assert format_value(np.int64(42)) == "42"
        assert format_value(np.bool_(True)) == "yes"
        assert format_value(np.bool_(False)) == "no"

    def test_numpy_values_render_in_tables(self):
        text = render_table(["x"], [[np.float64(math.inf)], [np.int32(7)]])
        assert "inf" in text and "7" in text


class TestJsonHelpers:
    def test_encode_decode_floats(self):
        assert encode_float(1.5) == 1.5
        assert encode_float(math.inf) == "inf"
        assert encode_float(-math.inf) == "-inf"
        assert encode_float(math.nan) == "nan"
        assert decode_float("inf") == math.inf
        assert decode_float("-inf") == -math.inf
        assert math.isnan(decode_float("nan"))
        assert decode_float(2.25) == 2.25
        with pytest.raises(ValueError):
            decode_float("three")

    def test_to_jsonable_handles_numpy_and_inf(self):
        payload = {
            "ratio": np.float64(math.inf),
            "count": np.int64(3),
            "flag": np.bool_(True),
            "values": np.array([1.0, math.nan]),
            "nested": ({"q": math.inf},),
        }
        converted = to_jsonable(payload)
        assert converted == {
            "ratio": "inf",
            "count": 3,
            "flag": True,
            "values": [1.0, "nan"],
            "nested": [{"q": "inf"}],
        }
        # Strict JSON: serialisable with allow_nan=False.
        json.dumps(converted, allow_nan=False)

    def test_to_jsonable_preserves_finite_floats_exactly(self):
        value = 0.1 + 0.2
        assert to_jsonable(value) == value

    def test_render_json_is_sorted_and_parses(self):
        text = render_json({"b": math.inf, "a": 1})
        parsed = json.loads(text)
        assert parsed == {"a": 1, "b": "inf"}
        assert text.index('"a"') < text.index('"b"')


class TestRenderTable:
    def test_alignment_and_separator(self):
        text = render_table(["name", "value"], [["a", 1.5], ["bc", 22.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1].replace("  ", " ").strip()) <= {"-", " "}
        # All lines are equally wide (right-justified columns).
        assert len({len(line) for line in lines}) == 1

    def test_header_growth(self):
        text = render_table(["very long header"], [[1]])
        assert "very long header" in text

    def test_render_experiment_includes_id_and_title(self):
        table = ExperimentTable(
            experiment_id="E99", title="demo", headers=["x"], rows=[[1]]
        )
        text = render_experiment(table)
        assert text.startswith("[E99] demo")


class TestCliParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bounds_defaults(self):
        args = build_parser().parse_args(["bounds", "-k", "3", "-f", "1"])
        assert args.rays == 2
        assert args.robots == 3
        assert args.faulty == 1

    def test_experiments_only_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--only", "E99"])

    def test_serve_has_no_wire_opt_out(self):
        # Worker links speak JSON only, so there is no binary wire to turn off.
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--no-wire"])


class TestCliCommands:
    def test_bounds_command(self, capsys):
        assert main(["bounds", "-k", "3", "-f", "1"]) == 0
        output = capsys.readouterr().out
        assert "5.2331" in output
        assert "alpha*" in output

    def test_bounds_trivial_regime_has_no_alpha(self, capsys):
        assert main(["bounds", "-k", "4", "-f", "1"]) == 0
        output = capsys.readouterr().out
        assert "1.0000" in output
        assert "alpha*" not in output

    def test_simulate_command(self, capsys):
        assert main(["simulate", "-k", "3", "-f", "1", "--horizon", "200"]) == 0
        output = capsys.readouterr().out
        assert "measured ratio" in output
        assert "theoretical ratio" in output

    def test_experiments_single(self, capsys):
        assert main(["experiments", "--only", "E3"]) == 0
        output = capsys.readouterr().out
        assert "[E3]" in output
        assert "5.2331" in output

    def test_montecarlo_faults_command(self, capsys):
        assert (
            main(
                [
                    "montecarlo",
                    "-k",
                    "3",
                    "-f",
                    "1",
                    "--trials",
                    "200",
                    "--seed",
                    "3",
                    "--horizon",
                    "200",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "mean ratio" in output
        assert "std error" in output
        assert "adversarial ratio" in output
        assert "vectorized" in output

    def test_montecarlo_faults_seeded_runs_identical(self, capsys):
        argv = ["montecarlo", "-k", "3", "-f", "1", "--trials", "100", "--seed", "9",
                "--horizon", "150"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_montecarlo_randomized_command(self, capsys):
        assert (
            main(
                [
                    "montecarlo",
                    "--workload",
                    "randomized",
                    "-m",
                    "2",
                    "--trials",
                    "2000",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "closed-form expected ratio" in output
        assert "monte-carlo estimate" in output
        assert "within 3 std errors" in output
        assert "yes" in output

    def test_montecarlo_scalar_engine(self, capsys):
        assert (
            main(
                [
                    "montecarlo",
                    "-k",
                    "2",
                    "-f",
                    "1",
                    "--trials",
                    "20",
                    "--engine",
                    "scalar",
                    "--horizon",
                    "50",
                ]
            )
            == 0
        )
        assert "scalar" in capsys.readouterr().out

    def test_montecarlo_randomized_tiny_horizon(self, capsys):
        # Horizons below the smallest stock target must clamp the fallback
        # target instead of crashing on the plan's horizon validation.
        argv = ["montecarlo", "--workload", "randomized", "-m", "2",
                "--trials", "50", "--horizon", "1.2"]
        assert main(argv) == 0
        assert "monte-carlo estimate" in capsys.readouterr().out

    def test_montecarlo_engine_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["montecarlo", "--engine", "quantum"])

    def test_bounds_json(self, capsys):
        assert main(["bounds", "-k", "3", "-f", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "bounds"
        assert payload["ratio"] == pytest.approx(5.2331, abs=5e-5)
        assert payload["spec"] == {
            "kind": "bounds", "num_rays": 2, "num_robots": 3, "num_faulty": 1,
        }

    def test_simulate_json(self, capsys):
        assert (
            main(["simulate", "-k", "3", "-f", "1", "--horizon", "100", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "simulate"
        assert payload["theoretical"] == pytest.approx(5.2331, abs=5e-5)
        assert payload["measured"] <= payload["theoretical"]
        assert payload["within_guarantee"] is True

    def test_experiments_json(self, capsys):
        assert main(["experiments", "--only", "E3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["experiment_id"] == "E3"
        assert payload[0]["headers"]

    def test_montecarlo_faults_json_is_seeded(self, capsys):
        argv = ["montecarlo", "-k", "3", "-f", "1", "--trials", "100",
                "--seed", "9", "--horizon", "150", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["kind"] == "montecarlo_faults"
        assert first["statistics"]["num_trials"] == 100

    def test_montecarlo_randomized_json(self, capsys):
        argv = ["montecarlo", "--workload", "randomized", "-m", "2",
                "--trials", "500", "--seed", "1", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "montecarlo_randomized"
        assert payload["closed_form"] == pytest.approx(4.5911, abs=5e-5)

    def test_timeline_json(self, capsys):
        argv = ["timeline", "-k", "2", "-m", "3", "--target-distance", "5",
                "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "timeline"
        assert payload["detected"] is True
        assert payload["events"][-1]["kind"] == "confirm"
        assert payload["num_events"] == len(payload["events"])

    def test_batch_command(self, tmp_path, capsys):
        scenarios = [
            {"kind": "bounds", "num_robots": 3, "num_faulty": 1},
            {"kind": "bounds", "num_robots": 3, "num_faulty": 1},
            {"kind": "bounds", "num_robots": 1},
        ]
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(scenarios))
        assert main(["batch", "--file", str(path), "--max-workers", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["num_scenarios"] == 3
        assert payload["stats"]["num_unique"] == 2
        assert payload["results"][0]["ratio"] == pytest.approx(5.2331, abs=5e-5)
        assert payload["results"][2]["ratio"] == 9.0

    def test_batch_command_table_output(self, tmp_path, capsys):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"scenarios": [{"kind": "bounds",
                                                   "num_robots": 1}]}))
        assert main(["batch", "--file", str(path), "--max-workers", "1"]) == 0
        output = capsys.readouterr().out
        assert "num_scenarios" in output and "evaluated" in output

    def test_batch_command_rejects_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["batch", "--file", str(path)]) == 2

    def test_batch_command_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["batch", "--file", str(tmp_path / "nope.json")]) == 2
        assert "cannot read scenarios" in capsys.readouterr().err

    def test_batch_command_invalid_spec_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"kind": "bounds", "num_robots": 0}]))
        assert main(["batch", "--file", str(path)]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_batch_command_malformed_targets_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad_targets.json"
        path.write_text(
            json.dumps([{"kind": "montecarlo_randomized", "targets": [[0]]}])
        )
        assert main(["batch", "--file", str(path)]) == 2
        assert "target" in capsys.readouterr().err

    def test_batch_command_bad_shard_size_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps([{"kind": "bounds", "num_robots": 1}]))
        assert main(["batch", "--file", str(path), "--shard-size", "0"]) == 2
        assert "shard_size" in capsys.readouterr().err

    def test_timeline_json_accepts_sub_unit_distance(self, capsys):
        # The --json path must accept everything the table path accepts.
        argv = ["timeline", "-k", "1", "--target-distance", "0.5", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["detected"] is True

    def test_serve_command_binds_and_prints_banner(self, monkeypatch, capsys):
        import repro.service.server as server_module

        captured = {}

        def fake_run_server(server):
            captured["url"] = server.url
            server.server_close()

        monkeypatch.setattr(server_module, "run_server", fake_run_server)
        assert main(["serve", "--port", "0"]) == 0
        banner = capsys.readouterr().out.strip()
        assert banner == f"serving on {captured['url']}"
        assert banner.startswith("serving on http://127.0.0.1:")

    def test_timeline_command(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    "-k",
                    "2",
                    "-m",
                    "3",
                    "--target-distance",
                    "5",
                    "--limit",
                    "100",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "detection time" in output
        assert "confirm" in output


class TestDistributedCli:
    """CLI surface of the multi-node dispatch: --workers, --async, serve."""

    @staticmethod
    def _scenario_file(tmp_path, count=6):
        scenarios = [
            {"kind": "simulate", "num_rays": 2, "num_robots": 1,
             "num_faulty": 0, "horizon": float(horizon)}
            for horizon in range(20, 20 + count)
        ]
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(scenarios))
        return path, scenarios

    def test_batch_async_flag_completes_with_progress(self, tmp_path, capsys):
        path, scenarios = self._scenario_file(tmp_path)
        argv = ["batch", "--file", str(path), "--max-workers", "1",
                "--async", "--json"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["stats"]["num_scenarios"] == len(scenarios)
        assert len(payload["results"]) == len(scenarios)
        assert "submitted" in captured.err  # progress chatter goes to stderr

    def test_batch_async_matches_sync_results(self, tmp_path, capsys):
        path, _scenarios = self._scenario_file(tmp_path)
        assert main(["batch", "--file", str(path), "--max-workers", "1",
                     "--json"]) == 0
        sync = json.loads(capsys.readouterr().out)
        assert main(["batch", "--file", str(path), "--max-workers", "1",
                     "--async", "--json"]) == 0
        from_job = json.loads(capsys.readouterr().out)
        assert from_job["results"] == sync["results"]  # bit-identical

    def test_batch_workers_flag_dispatches_remotely(self, tmp_path, capsys):
        import threading

        from repro.service.server import create_server

        worker = create_server(host="127.0.0.1", port=0)
        thread = threading.Thread(target=worker.serve_forever, daemon=True)
        thread.start()
        try:
            path, scenarios = self._scenario_file(tmp_path, count=8)
            argv = ["batch", "--file", str(path), "--max-workers", "1",
                    "--shard-size", "2", "--workers", worker.url, "--json"]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["stats"]["num_remote_workers"] == 1
            assert payload["stats"]["remote_evaluated"] > 0
            assert len(payload["results"]) == len(scenarios)
            assert payload["results"][0]["theoretical"] == 9.0
        finally:
            worker.shutdown()
            worker.server_close()
            thread.join(timeout=10)

    def test_batch_workers_unreachable_falls_back_to_local(self, tmp_path, capsys):
        path, scenarios = self._scenario_file(tmp_path, count=3)
        argv = ["batch", "--file", str(path), "--max-workers", "1",
                "--workers", "http://127.0.0.1:9,", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["num_remote_workers"] == 0
        assert len(payload["results"]) == len(scenarios)

    def test_serve_workers_flag_builds_coordinator(self, monkeypatch, capsys):
        import repro.service.server as server_module

        captured = {}

        def fake_run_server(server):
            captured["pool"] = server.scheduler.worker_pool
            server.server_close()

        monkeypatch.setattr(server_module, "run_server", fake_run_server)
        argv = ["serve", "--port", "0", "--workers",
                "http://127.0.0.1:9001,http://127.0.0.1:9002"]
        assert main(argv) == 0
        pool = captured["pool"]
        assert pool is not None and len(pool) == 2
        assert [worker.url for worker in pool.workers] == [
            "http://127.0.0.1:9001", "http://127.0.0.1:9002"
        ]


class TestTopIntervalValidation:
    """`repro top --interval` rejects sub-clamp values."""

    @pytest.mark.parametrize("value", ["0.05", "0", "-1", "nan", "abc"])
    def test_rejects_invalid_intervals(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["top", "--interval", value])
        assert excinfo.value.code == 2
        assert "interval" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.1", "2", "30.5"])
    def test_accepts_valid_intervals(self, value):
        args = build_parser().parse_args(["top", "--interval", value])
        assert args.interval == float(value)

    def test_throughput_line_guarded_against_zero_elapsed(self):
        def snapshot(total):
            return {
                "since": 0,
                "counters": [
                    {
                        "name": "repro_scenarios_total",
                        "labels": {"outcome": "computed"},
                        "value": total,
                    }
                ],
                "gauges": [],
                "histograms": [],
            }

        # A normal refresh shows the rate...
        frame = render_top(snapshot(100), previous=snapshot(40), elapsed=2.0)
        assert "30.0 scenarios/s" in frame
        # ... a zero-elapsed refresh must not divide by zero ...
        frame = render_top(snapshot(100), previous=snapshot(40), elapsed=0.0)
        assert "scenarios/s" not in frame
        # ... and a counter that moved backwards (server restart) is
        # omitted rather than shown as a negative rate.
        frame = render_top(snapshot(10), previous=snapshot(40), elapsed=2.0)
        assert "scenarios/s" not in frame
        # No previous frame at all (the first paint) renders fine too.
        assert render_top(snapshot(100)).startswith("repro top")
