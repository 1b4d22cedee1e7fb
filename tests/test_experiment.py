"""Tests for the experiment-builder DSL (:mod:`repro.experiment`)."""

from __future__ import annotations

import json
import math
import threading
import urllib.error
import urllib.request

import pytest

from repro.exceptions import InvalidProblemError
from repro.experiment import Experiment, extract_metric
from repro.service.cache import ResultCache
from repro.service.scheduler import ScenarioScheduler
from repro.service.server import create_server


def _small_experiment(name="exp", seed=0):
    return (
        Experiment(name, seed=seed)
        .add_generator("tiny", [{"num_rays": 2}, {"num_rays": 3}])
        .add_strategy("closed-form", "bounds")
        .add_strategy("measured", "simulate", horizon=60.0)
        .add_metric("ratio")
        .add_metric("measured")
    )


class TestBuilder:
    def test_chaining_returns_self(self):
        experiment = Experiment("chain")
        assert experiment.add_generator("g", [{}]) is experiment
        assert experiment.add_strategy("s", "bounds") is experiment
        assert experiment.add_metric("m", "ratio") is experiment

    def test_duplicate_names_rejected(self):
        experiment = _small_experiment()
        with pytest.raises(InvalidProblemError, match="duplicate generator"):
            experiment.add_generator("tiny", [{}])
        with pytest.raises(InvalidProblemError, match="duplicate strategy"):
            experiment.add_strategy("measured", "bounds")
        with pytest.raises(InvalidProblemError, match="duplicate metric"):
            experiment.add_metric("ratio")

    def test_unknown_kind_fails_at_build_time(self):
        with pytest.raises(InvalidProblemError, match="unknown scenario kind"):
            Experiment().add_strategy("s", "quantum")

    def test_unknown_strategy_field_fails_at_build_time(self):
        with pytest.raises(InvalidProblemError, match="unknown field 'warp'"):
            Experiment().add_strategy("s", "bounds", warp=9)

    def test_invalid_name_and_seed(self):
        with pytest.raises(InvalidProblemError):
            Experiment("")
        with pytest.raises(InvalidProblemError):
            Experiment("x", seed=-1)

    def test_compile_requires_all_three_parts(self):
        with pytest.raises(InvalidProblemError, match="at least one generator"):
            Experiment().compile()
        with pytest.raises(InvalidProblemError, match="at least one strategy"):
            Experiment().add_generator("g", [{}]).compile()
        with pytest.raises(InvalidProblemError, match="at least one metric"):
            (
                Experiment()
                .add_generator("g", [{}])
                .add_strategy("s", "bounds")
                .compile()
            )


class TestCompile:
    def test_grid_order_and_size(self):
        plan = _small_experiment().compile()
        assert len(plan.cells) == 4  # 2 rows x 2 strategies
        assert [cell.strategy for cell in plan.cells] == [
            "closed-form", "measured", "closed-form", "measured",
        ]
        assert [cell.index for cell in plan.cells] == [0, 1, 2, 3]

    def test_row_fields_project_onto_each_kind(self):
        # num_rays exists on bounds/simulate but not on contract; the same
        # row must drive both without leaking unknown fields.
        plan = (
            Experiment()
            .add_generator("g", [{"num_rays": 3}])
            .add_strategy("bounds", "bounds")
            .add_strategy("contract", "contract", horizon=50.0)
            .add_metric("ratio")
            .compile()
        )
        assert plan.cells[0].spec.num_rays == 3
        assert plan.cells[1].spec.kind == "contract"

    def test_orphan_row_field_is_a_build_error(self):
        with pytest.raises(InvalidProblemError, match="not understood by any"):
            (
                Experiment()
                .add_generator("g", [{"warp_factor": 9}])
                .add_strategy("s", "bounds")
                .add_metric("ratio")
                .compile()
            )

    def test_bad_cell_error_names_generator_and_strategy(self):
        with pytest.raises(InvalidProblemError, match="'g' × strategy 's'"):
            (
                Experiment()
                .add_generator("g", [{"num_robots": 0}])
                .add_strategy("s", "bounds")
                .add_metric("ratio")
                .compile()
            )

    def test_seed_injection_is_deterministic_and_distinct(self):
        experiment = (
            Experiment("seeded", seed=11)
            .add_generator("g", [{"num_trials": 5}, {"num_trials": 6}])
            .add_strategy("mc", "montecarlo_faults", num_robots=2, num_faulty=1,
                          horizon=30.0)
            .add_metric("mean", "statistics.mean")
        )
        plan_a = experiment.compile()
        plan_b = experiment.compile()
        seeds = [cell.spec.seed for cell in plan_a.cells]
        assert seeds == [cell.spec.seed for cell in plan_b.cells]
        assert len(set(seeds)) == len(seeds)  # independent streams

    def test_explicit_seed_wins_over_injection(self):
        plan = (
            Experiment("seeded", seed=11)
            .add_generator("g", [{"num_trials": 5, "seed": 123}])
            .add_strategy("mc", "montecarlo_faults", num_robots=2, num_faulty=1,
                          horizon=30.0)
            .add_metric("mean", "statistics.mean")
            .compile()
        )
        assert plan.cells[0].spec.seed == 123

    def test_kinds_without_seed_field_untouched(self):
        plan = _small_experiment().compile()
        for cell in plan.cells:
            assert not hasattr(cell.spec, "seed")

    def test_callable_generator_receives_experiment_seed(self):
        seen = []

        def rows(seed):
            seen.append(seed)
            return [{"num_rays": 2 + seed % 2}]

        plan = (
            Experiment("call", seed=5)
            .add_generator("g", rows)
            .add_strategy("s", "bounds")
            .add_metric("ratio")
            .compile()
        )
        assert seen == [5]
        assert plan.cells[0].spec.num_rays == 3


class TestContentHash:
    def test_stable_across_compiles(self):
        assert (
            _small_experiment().compile().content_hash()
            == _small_experiment().compile().content_hash()
        )

    def test_sensitive_to_every_ingredient(self):
        base = _small_experiment().compile().content_hash()
        assert _small_experiment(name="other").compile().content_hash() != base
        assert _small_experiment(seed=1).compile().content_hash() != base
        renamed_metric = (
            Experiment("exp", seed=0)
            .add_generator("tiny", [{"num_rays": 2}, {"num_rays": 3}])
            .add_strategy("closed-form", "bounds")
            .add_strategy("measured", "simulate", horizon=60.0)
            .add_metric("ratio")
            .add_metric("other_name", "measured")
        )
        assert renamed_metric.compile().content_hash() != base

    def test_spec_round_trip_preserves_hash(self):
        experiment = _small_experiment()
        clone = Experiment.from_spec(
            json.loads(json.dumps(experiment.to_spec()))
        )
        assert clone.compile().content_hash() == experiment.compile().content_hash()


class TestSpecSerialisation:
    def test_to_spec_rejects_callable_metric(self):
        experiment = (
            Experiment()
            .add_generator("g", [{}])
            .add_strategy("s", "bounds")
            .add_metric("m", lambda payload: 1)
        )
        with pytest.raises(InvalidProblemError, match="callable"):
            experiment.to_spec()

    def test_from_spec_rejects_unknown_top_level_keys(self):
        with pytest.raises(InvalidProblemError, match="unknown experiment fields"):
            Experiment.from_spec({"name": "x", "surprise": 1})

    @pytest.mark.parametrize(
        "mutation",
        [
            {"generators": []},
            {"generators": "nope"},
            {"strategies": []},
            {"metrics": []},
            {"strategies": [{"name": "s"}]},
            {"generators": [{"cells": []}]},
        ],
    )
    def test_from_spec_rejects_malformed_sections(self, mutation):
        spec = _small_experiment().to_spec()
        spec.update(mutation)
        with pytest.raises(InvalidProblemError):
            Experiment.from_spec(spec)

    def test_metric_shorthand_string(self):
        spec = _small_experiment().to_spec()
        spec["metrics"] = ["ratio"]
        plan = Experiment.from_spec(spec).compile()
        assert plan.columns[-1] == "ratio"


class TestExtractMetric:
    def test_dotted_path_and_list_index(self):
        payload = {"statistics": {"quantiles": [1.0, 2.5]}}
        assert extract_metric("statistics.quantiles.1", payload) == 2.5

    def test_missing_path_is_none(self):
        assert extract_metric("nope.deeper", {"other": 1}) is None
        assert extract_metric("items.9", {"items": []}) is None

    def test_encoded_inf_is_decoded(self):
        assert extract_metric("x", {"x": "inf"}) == math.inf
        assert extract_metric("x", {"x": "-inf"}) == -math.inf
        assert math.isnan(extract_metric("x", {"x": "nan"}))

    def test_plain_strings_pass_through(self):
        assert extract_metric("x", {"x": "vectorized"}) == "vectorized"

    def test_callable_extractor(self):
        assert extract_metric(lambda payload: payload["a"] + 1, {"a": 1}) == 2


class TestRunAndPersist:
    def test_run_rows_and_rerun_from_cache(self, tmp_path):
        scheduler = ScenarioScheduler(
            cache=ResultCache(disk_path=str(tmp_path / "cache"))
        )
        plan = _small_experiment().compile()
        result = plan.run(scheduler=scheduler)
        assert len(result.rows) == 4
        assert result.stats["evaluated"] > 0
        by_cell = {row[0]: row for row in result.rows}
        # bounds rows carry ratio, simulate rows carry measured too.
        assert by_cell[0][5] == 9.0 and by_cell[0][6] is None
        assert by_cell[1][6] == pytest.approx(9.0, rel=0.05)

        # The identical plan re-run against the same cache: 0 evaluations,
        # identical table.
        rerun = _small_experiment().compile().run(scheduler=scheduler)
        assert rerun.stats["evaluated"] == 0
        assert rerun.stats["cache_hits"] > 0
        assert rerun.rows == result.rows

    def test_run_job_spills_with_unchanged_rows(self):
        plan = _small_experiment().compile()
        scheduler = ScenarioScheduler(cache=ResultCache())
        batch = ScenarioScheduler(cache=ResultCache()).run_batch(
            [cell.spec for cell in plan.cells], max_workers=1
        )
        expected = [
            plan._table_row(cell, payload, scheduler.engine_version)
            for cell, payload in zip(plan.cells, batch.results)
        ]
        result = plan.run(scheduler=scheduler)
        (job,) = scheduler.jobs()
        # The finished experiment job pins no payload copies.
        assert job.spilled is True
        assert result.rows == expected

    def test_persist_writes_json_and_csv(self, tmp_path):
        plan = _small_experiment().compile()
        result = plan.run(
            scheduler=ScenarioScheduler(cache=ResultCache())
        )
        paths = result.persist(str(tmp_path / "out"))
        assert plan.content_hash()[:12] in paths["directory"]
        with open(paths["json"], encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["experiment"]["content_hash"] == plan.content_hash()
        assert document["columns"] == plan.columns
        assert len(document["rows"]) == 4
        with open(paths["csv"], encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == ",".join(plan.columns)
        assert len(lines) == 1 + 4

    def test_inf_metric_survives_to_csv(self, tmp_path):
        result = (
            Experiment("inf")
            .add_generator("g", [{"min_interruption": 0.0}])
            .add_strategy("contract", "contract", num_problems=2, horizon=50.0)
            .add_metric("acc", "measured_acceleration")
            .compile()
            .run(scheduler=ScenarioScheduler(cache=ResultCache()))
        )
        assert result.rows[0][-1] == math.inf
        paths = result.persist(str(tmp_path))
        with open(paths["csv"], encoding="utf-8") as handle:
            assert handle.read().splitlines()[1].endswith(",inf")
        with open(paths["json"], encoding="utf-8") as handle:
            assert json.load(handle)["rows"][0][-1] == "inf"


class TestHttpEndpoint:
    @pytest.fixture(scope="class")
    def server_url(self):
        server = create_server(host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.url
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    @staticmethod
    def _post(url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_post_experiments_runs_grid(self, server_url):
        experiment = _small_experiment("http-exp")
        status, body = self._post(
            server_url + "/experiments", experiment.to_spec()
        )
        assert status == 200, body
        assert body["experiment"]["num_cells"] == 4
        assert body["experiment"]["content_hash"] == (
            experiment.compile().content_hash()
        )
        assert body["columns"] == experiment.compile().columns

        # Same grid again: served entirely from the server's cache.
        _status, again = self._post(
            server_url + "/experiments", experiment.to_spec()
        )
        assert again["stats"]["evaluated"] == 0
        assert again["rows"] == body["rows"]

    def test_post_experiments_bad_spec_is_400(self, server_url):
        status, body = self._post(server_url + "/experiments", {"name": "x"})
        assert status == 400
        assert "generators" in body["error"]

    def test_post_experiments_unknown_kind_is_400(self, server_url):
        spec = _small_experiment().to_spec()
        spec["strategies"][0]["kind"] = "quantum"
        status, body = self._post(server_url + "/experiments", spec)
        assert status == 400
        assert "unknown scenario kind" in body["error"]


class TestCli:
    def test_experiment_run_twice_shares_cache(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_small_experiment("cli").to_spec()))
        args = [
            "experiment", "run", str(spec_path),
            "--output-dir", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "artifacts:" in first
        directory = first.rsplit("artifacts:", 1)[1].strip()
        assert (tmp_path / "out").exists()
        with open(f"{directory}/table.json", encoding="utf-8") as handle:
            assert len(json.load(handle)["rows"]) == 4

        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["evaluated"] == 0  # all disk-cache hits
        assert payload["stats"]["cache_hits"] == 4

    def test_experiment_run_bad_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["experiment", "run", str(tmp_path / "missing.json")]) == 2
        assert "cannot read experiment spec" in capsys.readouterr().err

    def test_experiment_run_invalid_spec_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"name": "x"}))
        assert main(["experiment", "run", str(spec_path)]) == 2
        assert "invalid experiment spec" in capsys.readouterr().err
