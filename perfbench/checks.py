"""Correctness checks applied to every operation's rows.

A row is wrong when it is missing, belongs to another scenario, or breaks
a golden value; a seeded sample of rows must also be byte-identical, in
canonical JSON, to a direct ``execute_spec`` result.  Each check returns a
list of problems; an operation with any problem counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.service import ScenarioSpec, execute_spec

from .inputs import B31, LINE

#: Golden values and the tolerance each is quoted to.
LINE_RATIO = 9.0
B31_RATIO = 5.2331
RANDOMIZED_LINE_RATIO = 4.5911
QUOTED_TOLERANCE = 5e-5


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _problem(spec: ScenarioSpec):
    return (
        getattr(spec, "num_rays", None),
        getattr(spec, "num_robots", None),
        getattr(spec, "num_faulty", None),
    )


def golden_problems(spec: ScenarioSpec, payload: Dict[str, Any]) -> List[str]:
    """Golden-value checks for the scenarios that carry one."""
    problems = []
    if spec.kind == "simulate" and _problem(spec) == LINE:
        if payload.get("theoretical") != LINE_RATIO:
            problems.append(f"line ratio {payload.get('theoretical')!r} != 9")
    elif spec.kind == "simulate" and _problem(spec) == B31:
        value = payload.get("theoretical")
        if not isinstance(value, float) or abs(value - B31_RATIO) > QUOTED_TOLERANCE:
            problems.append(f"B(3,1) {value!r} != {B31_RATIO}")
    elif spec.kind == "montecarlo_randomized" and spec.num_rays == 2:
        value = payload.get("closed_form")
        if (
            not isinstance(value, float)
            or abs(value - RANDOMIZED_LINE_RATIO) > QUOTED_TOLERANCE
        ):
            problems.append(f"randomized line ratio {value!r} != 4.5911")
    return problems


def row_problems(
    specs: Sequence[ScenarioSpec], payloads: Sequence[Optional[Dict[str, Any]]]
) -> List[str]:
    """Every row present, for its own scenario, and golden where it applies."""
    problems = []
    if len(payloads) != len(specs):
        problems.append(f"{len(payloads)} rows for {len(specs)} scenarios")
    for index, (spec, payload) in enumerate(zip(specs, payloads)):
        if not isinstance(payload, dict):
            problems.append(f"row {index} missing")
            continue
        if payload.get("kind") != spec.kind or payload.get("spec") != spec.to_dict():
            problems.append(f"row {index} is not the result of its scenario")
            continue
        problems.extend(f"row {index}: {p}" for p in golden_problems(spec, payload))
    return problems


class IdentityChecker:
    """Byte-identity of sampled rows against direct ``execute_spec``.

    Direct results are memoised by canonical spec, so a scenario drawn
    again (the warm workload replays a fixed working set) is executed
    directly only once.  The memo keeps SHA-256 digests of the canonical
    JSON, not the JSON itself, so it does not grow the benchmark's memory
    with the number of operations a run makes.
    """

    def __init__(self) -> None:
        self._direct: Dict[str, bytes] = {}

    def problems(self, spec: ScenarioSpec, payload: Dict[str, Any]) -> List[str]:
        key = spec.canonical_json()
        direct = self._direct.get(key)
        if direct is None:
            direct = self._direct[key] = _digest(execute_spec(spec))
        if _digest(payload) != direct:
            return [f"{spec.kind} payload differs from direct execute_spec"]
        return []


def _digest(payload: Any) -> bytes:
    return hashlib.sha256(canonical(payload).encode("utf-8")).digest()
