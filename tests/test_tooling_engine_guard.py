"""Unit tests for the ENGINE_VERSION CI guard (scripts/check_engine_version.py).

The decision core is pure (``evaluate``), so the rule is tested without
any git plumbing; one end-to-end run against this repository's own HEAD
exercises the plumbing (HEAD vs HEAD — no diff, always ok).
"""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_engine_version.py"
)


def _load():
    spec = importlib.util.spec_from_file_location("check_engine_version", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


guard = _load()


class TestIsEngineRelevant:
    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/simulation/engine.py",
            "src/repro/geometry/compiled.py",
            "src/repro/core/bounds.py",
            "src/repro/strategies/optimal.py",
            "src/repro/faults/injection.py",
            "src/repro/related/orc.py",
            "src/repro/analysis/sweep.py",
            "src/repro/service/spec.py",
            "src/repro/service/execute.py",
            "src/repro/experiment.py",
            # The wire codec serialises result payloads: an encoding change
            # can alter result bytes, so it guards like an engine (with
            # [engine-version-unchanged] as the pure-transport escape).
            "src/repro/service/wire.py",
            # to_jsonable/encode_float shape every payload byte.
            "src/repro/reporting.py",
        ],
    )
    def test_engine_paths_match(self, path):
        assert guard.is_engine_relevant(path)

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/service/scheduler.py",
            "src/repro/service/server.py",
            "src/repro/service/remote.py",
            "src/repro/service/cache.py",
            "src/repro/cli.py",
            "src/repro/analysis/tables.py",
            "tests/test_service_recovery.py",
            "benchmarks/bench_remote.py",
            "PERFORMANCE.md",
            "src/repro/simulation",  # the bare directory path is not a file
        ],
    )
    def test_plumbing_and_docs_exempt(self, path):
        assert not guard.is_engine_relevant(path)


class TestEvaluate:
    def test_no_engine_files_is_ok(self):
        ok, message = guard.evaluate(
            ["src/repro/service/server.py", "README.md"], False, False
        )
        assert ok
        assert "no engine-relevant" in message

    def test_engine_change_without_bump_fails(self):
        ok, message = guard.evaluate(
            ["src/repro/simulation/engine.py"], False, False
        )
        assert not ok
        assert "without an ENGINE_VERSION bump" in message
        assert "src/repro/simulation/engine.py" in message
        assert guard.OVERRIDE_MARKER in message  # tells the author the escape

    def test_engine_change_with_bump_passes(self):
        ok, message = guard.evaluate(["src/repro/geometry/visits.py"], True, False)
        assert ok
        assert "bumped" in message

    def test_override_marker_downgrades_to_notice(self):
        ok, message = guard.evaluate(["src/repro/core/lemmas.py"], False, True)
        assert ok
        assert guard.OVERRIDE_MARKER in message

    def test_mixed_change_lists_only_engine_files(self):
        ok, message = guard.evaluate(
            ["src/repro/cli.py", "src/repro/faults/models.py"], False, False
        )
        assert not ok
        assert "src/repro/faults/models.py" in message
        assert "src/repro/cli.py" not in message


class TestVersionMarkers:
    def test_extracts_both_assignments(self):
        engine, dunder = guard.extract_version_markers(
            'X = 1\nENGINE_VERSION = f"repro/{__version__}+engine.1"\n',
            '__version__ = "0.4.0"\n',
        )
        assert engine == 'f"repro/{__version__}+engine.1"'
        assert dunder == '"0.4.0"'

    def test_missing_assignments_are_empty(self):
        assert guard.extract_version_markers("", "") == ("", "")

    def test_either_file_changing_counts_as_bump(self):
        base = guard.extract_version_markers(
            'ENGINE_VERSION = "repro/0.4+engine.1"', '__version__ = "0.4.0"'
        )
        engine_bump = guard.extract_version_markers(
            'ENGINE_VERSION = "repro/0.4+engine.2"', '__version__ = "0.4.0"'
        )
        release_bump = guard.extract_version_markers(
            'ENGINE_VERSION = "repro/0.4+engine.1"', '__version__ = "0.5.0"'
        )
        assert base != engine_bump
        assert base != release_bump


class TestEndToEnd:
    def test_head_vs_head_passes(self):
        # Merge-base of HEAD with itself: empty diff, guard must pass.
        result = subprocess.run(
            [sys.executable, str(_SCRIPT), "--base", "HEAD"],
            capture_output=True,
            text=True,
            cwd=str(_SCRIPT.parent.parent),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "no engine-relevant" in result.stdout
