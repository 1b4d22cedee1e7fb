"""Execute a :class:`~repro.service.spec.ScenarioSpec` into a JSON payload.

This is the single place where specs meet the engines.  Every handler
returns a strict-JSON-safe dict (via :func:`repro.reporting.to_jsonable`):
finite floats pass through bit-exactly, so a payload computed here, cached
to disk and served over HTTP carries exactly the numbers a direct call to
the underlying engine (or to :mod:`repro.analysis.sweep`) produces.

The module is import-light at the top level and every handler is a plain
top-level function, so :func:`execute_spec` pickles cleanly into the
process-pool fan-out used by :mod:`repro.service.scheduler`.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Iterable, Tuple, Type

from ..core.bounds import crash_ray_ratio, optimal_geometric_base
from ..core.problem import ray_problem
from ..exceptions import RegistryError
from ..geometry.rays import RayPoint
from ..reporting import to_jsonable
from ..simulation.competitive import evaluate_strategy
from ..simulation.timeline import build_timeline
from ..strategies.optimal import optimal_strategy
from .spec import (
    BoundsSpec,
    CertificateSpec,
    ContractSpec,
    FamilySpec,
    FractionalSpec,
    HybridSpec,
    LemmasSpec,
    MonteCarloFaultsSpec,
    MonteCarloRandomizedSpec,
    OrcSpec,
    ScenarioSpec,
    SimulateSpec,
    TimelineSpec,
    spec_kinds,
)

__all__ = [
    "check_registry_parity",
    "ensure_executable",
    "execute_spec",
    "execute_shard",
    "execute_shard_timed",
    "executor_for",
    "executor_kinds",
    "observe_pool_shard",
]

_HANDLERS: Dict[str, Callable[[ScenarioSpec], dict]] = {}


def _executes(
    spec_cls: Type[ScenarioSpec],
) -> Callable[[Callable[[ScenarioSpec], dict]], Callable[[ScenarioSpec], dict]]:
    """Bind a handler to a spec class — the executor half of kind registration.

    Every ``@_register``-ed kind in :mod:`repro.service.spec` must have
    exactly one ``@_executes(...)`` handler here;
    :func:`check_registry_parity` enforces the contract at import time so
    the two registries cannot silently drift.
    """

    def register(handler: Callable[[ScenarioSpec], dict]) -> Callable[[ScenarioSpec], dict]:
        if spec_cls.kind in _HANDLERS:
            raise RegistryError(
                f"duplicate executor for scenario kind {spec_cls.kind!r}"
            )
        _HANDLERS[spec_cls.kind] = handler
        return handler

    return register


def executor_kinds() -> Tuple[str, ...]:
    """The scenario kinds with a registered executor, sorted."""
    return tuple(sorted(_HANDLERS))


def executor_for(kind: str) -> Callable[[ScenarioSpec], dict]:
    """The executor for ``kind``; raises a structured error when missing.

    Use this to pre-validate a batch *before* accepting it: a registered
    kind without a handler fails here with :class:`RegistryError` instead
    of a background ``TypeError`` after a 202.
    """
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise RegistryError(
            f"scenario kind {kind!r} has no registered executor; "
            f"executable kinds: {list(executor_kinds())}"
        )
    return handler


def ensure_executable(specs: Iterable[ScenarioSpec]) -> None:
    """Raise :class:`RegistryError` unless every spec's kind has an executor."""
    for spec in specs:
        executor_for(spec.kind)


def check_registry_parity() -> None:
    """Assert the spec registry and the executor registry name the same kinds.

    Called at import time (and from the parity tests): a kind registered in
    :mod:`repro.service.spec` without an executor here — or vice versa — is
    a programming error that must fail loudly, not a background 500 on the
    first unlucky request.
    """
    registered = set(spec_kinds())
    handled = set(_HANDLERS)
    missing_executor = sorted(registered - handled)
    missing_spec = sorted(handled - registered)
    problems = []
    if missing_executor:
        problems.append(f"kinds without an executor: {missing_executor}")
    if missing_spec:
        problems.append(f"executors without a registered kind: {missing_spec}")
    if problems:
        raise RegistryError(
            "scenario kind registry and executor registry drifted — "
            + "; ".join(problems)
        )


def _problem_payload(problem) -> dict:
    return {
        "num_rays": problem.num_rays,
        "num_robots": problem.num_robots,
        "num_faulty": problem.num_faulty,
        "regime": problem.regime.value,
        "description": problem.describe(),
    }


@_executes(BoundsSpec)
def _execute_bounds(spec: BoundsSpec) -> dict:
    problem = ray_problem(spec.num_rays, spec.num_robots, spec.num_faulty)
    ratio = crash_ray_ratio(spec.num_rays, spec.num_robots, spec.num_faulty)
    payload = {
        "problem": _problem_payload(problem),
        "ratio": ratio,
    }
    if problem.regime.value == "interesting":
        payload["alpha_star"] = optimal_geometric_base(
            spec.num_rays, spec.num_robots, spec.num_faulty
        )
    return payload


def _build_family_strategy(spec: FamilySpec):
    problem = ray_problem(spec.num_rays, spec.num_robots, spec.num_faulty)
    if spec.family == "optimal":
        return optimal_strategy(problem)
    from ..strategies.naive import (
        PartitionStrategy,
        ReplicationStrategy,
        TrivialStraightStrategy,
    )

    builders = {
        "trivial": TrivialStraightStrategy,
        "replication": ReplicationStrategy,
        "partition": PartitionStrategy,
    }
    return builders[spec.family](problem)


def _evaluation_payload(spec, strategy, theoretical: float) -> dict:
    result = evaluate_strategy(strategy, spec.horizon, engine=spec.engine)
    payload = result.to_dict()
    payload.update(
        {
            "problem": _problem_payload(strategy.problem),
            "strategy_name": strategy.name,
            "theoretical": theoretical,
            "measured": result.ratio,
            "engine": spec.engine,
        }
    )
    return payload


@_executes(SimulateSpec)
def _execute_simulate(spec: SimulateSpec) -> dict:
    problem = ray_problem(spec.num_rays, spec.num_robots, spec.num_faulty)
    strategy = optimal_strategy(problem)
    return _evaluation_payload(
        spec, strategy, crash_ray_ratio(spec.num_rays, spec.num_robots, spec.num_faulty)
    )


@_executes(FamilySpec)
def _execute_family(spec: FamilySpec) -> dict:
    strategy = _build_family_strategy(spec)
    theoretical = strategy.theoretical_ratio()
    payload = _evaluation_payload(
        spec, strategy, theoretical if theoretical is not None else math.nan
    )
    payload["family"] = spec.family
    return payload


#: ``repro_mc_trials_total{outcome=used|saved}`` instruments, bound on first use.
_MC_TRIALS: dict = {}


def _count_mc_trials(spec, trials_used: int) -> None:
    """Account a finished Monte-Carlo run against the trials counter.

    ``used`` is what was actually evaluated; ``saved`` is the head-room an
    adaptive run left in its budget (``max_trials`` when set, else the
    fixed trial count, so 0 for fixed-count runs) — the two series
    together quantify what sequential estimation buys.
    """
    from .telemetry import METRICS

    budget = spec.max_trials
    if budget is None:
        budget = (
            spec.num_samples
            if isinstance(spec, MonteCarloRandomizedSpec)
            else spec.num_trials
        )
    for outcome, amount in (
        ("used", trials_used),
        ("saved", max(0, budget - trials_used)),
    ):
        counter = _MC_TRIALS.get(outcome)
        if counter is None:
            counter = _MC_TRIALS[outcome] = METRICS.counter(
                "repro_mc_trials_total",
                {"outcome": outcome},
                help="Monte-Carlo trials evaluated (used) vs left unspent by "
                "adaptive early stopping (saved).",
            )
        counter.inc(amount)


def _chunk_span_recorder(kind: str):
    """An ``on_chunk`` callback recording one span per estimation chunk.

    Chunks are timed back to back (the engine calls the hook right after
    each chunk completes) and attached to whatever span is open on this
    thread — inside ``POST /evaluate`` or a serial shard that is the
    request/shard span; in a process-pool subprocess there is none and the
    hook degrades to a no-op.
    """
    from ..reporting import encode_float
    from .telemetry import TRACER

    state = {"last": time.monotonic()}

    def on_chunk(index: int, size: int, trials_used: int, std_error: float) -> None:
        now = time.monotonic()
        parent = TRACER.current_span()
        if parent is not None:
            TRACER.record_span(
                "repro.mc.chunk",
                parent.trace_id,
                state["last"],
                now - state["last"],
                parent=parent,
                attrs={
                    "kind": kind,
                    "chunk": index,
                    "chunk_trials": size,
                    "trials_used": trials_used,
                    "std_error": encode_float(float(std_error)),
                },
            )
        state["last"] = now

    return on_chunk


@_executes(MonteCarloFaultsSpec)
def _execute_montecarlo_faults(spec: MonteCarloFaultsSpec) -> dict:
    from ..faults.injection import simulate_random_faults

    problem = ray_problem(spec.num_rays, spec.num_robots, spec.num_faulty)
    strategy = optimal_strategy(problem)
    report = simulate_random_faults(
        strategy,
        spec.horizon,
        num_trials=spec.num_trials,
        seed=spec.seed,
        engine=spec.engine,
        crash_model=spec.crash_model,
        target_se=spec.target_se,
        max_trials=spec.max_trials,
        chunk_trials=spec.chunk_trials,
        on_chunk=_chunk_span_recorder(spec.kind),
    )
    payload = report.to_dict()
    _count_mc_trials(spec, payload["trials_used"])
    payload.update(
        {
            "problem": _problem_payload(problem),
            "strategy_name": strategy.name,
            "horizon": spec.horizon,
            "seed": spec.seed,
        }
    )
    return payload


@_executes(MonteCarloRandomizedSpec)
def _execute_montecarlo_randomized(spec: MonteCarloRandomizedSpec) -> dict:
    from ..strategies.randomized import (
        RandomizedSingleRobotRayStrategy,
        monte_carlo_ratio_report,
    )

    strategy = RandomizedSingleRobotRayStrategy(spec.num_rays, base=spec.base)
    report = monte_carlo_ratio_report(
        strategy,
        spec.resolved_targets(),
        num_samples=spec.num_samples,
        seed=spec.seed,
        horizon=spec.horizon,
        engine=spec.engine,
        target_se=spec.target_se,
        max_trials=spec.max_trials,
        chunk_trials=spec.chunk_trials,
        on_chunk=_chunk_span_recorder(spec.kind),
    )
    payload = report.to_dict()
    _count_mc_trials(spec, payload["trials_used"])
    payload.update(
        {
            "num_rays": spec.num_rays,
            "base": strategy.base,
            "deterministic_ratio": strategy.deterministic_ratio(),
            "horizon": spec.horizon,
        }
    )
    return payload


@_executes(TimelineSpec)
def _execute_timeline(spec: TimelineSpec) -> dict:
    problem = ray_problem(spec.num_rays, spec.num_robots, spec.num_faulty)
    strategy = optimal_strategy(problem)
    horizon = max(spec.target_distance * 4.0, 10.0)
    trajectories = strategy.trajectories(horizon)
    target = RayPoint(ray=spec.target_ray, distance=spec.target_distance)
    timeline = build_timeline(trajectories, target, problem)
    payload = timeline.to_dict()
    payload.update(
        {
            "problem": _problem_payload(problem),
            "strategy_name": strategy.name,
            "target": {"ray": target.ray, "distance": target.distance},
        }
    )
    return payload


@_executes(ContractSpec)
def _execute_contract(spec: ContractSpec) -> dict:
    from ..related.contract import evaluate_contract_workload

    result = evaluate_contract_workload(
        spec.num_problems,
        spec.num_processors,
        spec.horizon,
        base=spec.base,
        min_interruption=spec.min_interruption,
    )
    return result.to_dict()


@_executes(HybridSpec)
def _execute_hybrid(spec: HybridSpec) -> dict:
    from ..related.hybrid import evaluate_hybrid_workload

    result = evaluate_hybrid_workload(
        spec.num_algorithms, spec.num_areas, spec.horizon, base=spec.base
    )
    return result.to_dict()


@_executes(OrcSpec)
def _execute_orc(spec: OrcSpec) -> dict:
    from ..related.orc import evaluate_orc_workload

    result = evaluate_orc_workload(
        spec.num_robots, spec.fold, spec.horizon, alpha=spec.alpha
    )
    return result.to_dict()


@_executes(FractionalSpec)
def _execute_fractional(spec: FractionalSpec) -> dict:
    from ..related.fractional import evaluate_fractional_workload

    result = evaluate_fractional_workload(
        spec.eta, spec.num_robots, spec.horizon, alpha=spec.alpha
    )
    return result.to_dict()


@_executes(LemmasSpec)
def _execute_lemmas(spec: LemmasSpec) -> dict:
    from ..core.lemmas import critical_mu, delta, verify_lemma4, verify_lemma5

    k, s = spec.num_robots, spec.shortfall
    mu = spec.resolved_mu()
    lemma4 = verify_lemma4(mu, k, s, grid_points=spec.grid_points)
    lemma5 = verify_lemma5(
        mu,
        k,
        s,
        grid_points=spec.grid_points,
        mu_star_samples=spec.mu_star_samples,
    )
    return {
        "num_robots": k,
        "shortfall": s,
        "mu": mu,
        "critical_mu": critical_mu(k, s),
        "delta": delta(mu, k, s),
        "lemma4": lemma4.to_dict(),
        "lemma5": lemma5.to_dict(),
        "holds": lemma4.holds and lemma5.holds,
    }


@_executes(CertificateSpec)
def _execute_certificate(spec: CertificateSpec) -> dict:
    from ..core.certificates import certify_line_strategy, certify_orc_strategy

    claimed = spec.claimed_ratio()
    # The strategies are built out to ``horizon`` while the certificate only
    # has to refute the claim over ``[1, horizon/5]``: the potential-budget
    # branch needs the cover to be locally valid well past the probed range.
    cover_horizon = spec.horizon / 5.0
    if spec.setting == "line":
        from ..core.problem import line_problem
        from ..strategies.geometric import ZigzagGeometricLineStrategy

        strategy = ZigzagGeometricLineStrategy(
            line_problem(spec.num_robots, spec.num_faulty)
        )
        sequences = [
            strategy.turning_points(robot, spec.horizon)
            for robot in range(spec.num_robots)
        ]
        certificate = certify_line_strategy(
            sequences,
            claimed_ratio=claimed,
            num_faulty=spec.num_faulty,
            horizon=cover_horizon,
        )
    else:
        from ..related.orc import geometric_orc_strategy

        orc = geometric_orc_strategy(spec.num_robots, spec.fold, spec.horizon)
        certificate = certify_orc_strategy(
            [list(robot_radii) for robot_radii in orc.radii],
            claimed_ratio=claimed,
            fold=spec.fold,
            horizon=cover_horizon,
        )
    payload = certificate.to_dict()
    payload.update(
        {
            "setting": spec.setting,
            "num_robots": spec.num_robots,
            "summary": certificate.summary(),
        }
    )
    return payload


check_registry_parity()

#: ``repro_execute_seconds{kind=...}`` instruments, bound on first use.
_EXECUTE_SECONDS: dict = {}


def _observe_execute_seconds(kind: str, seconds: float) -> None:
    """Record one evaluation's time in ``repro_execute_seconds{kind=...}``."""
    histogram = _EXECUTE_SECONDS.get(kind)
    if histogram is None:
        # One registry lookup per kind per process: label canonicalisation
        # under the registry lock is measurable when every spec in a shard
        # passes through here.
        from .telemetry import METRICS

        histogram = _EXECUTE_SECONDS[kind] = METRICS.histogram(
            "repro_execute_seconds",
            {"kind": kind},
            help="Engine-evaluation time per scenario, by spec kind "
            "(pool-computed shards are observed by the process that "
            "dispatched them).",
        )
    histogram.observe(seconds)


def _evaluate(spec: ScenarioSpec) -> Tuple[dict, float]:
    """One scenario's payload and its engine-evaluation time in seconds."""
    start = time.monotonic()
    payload = executor_for(spec.kind)(spec)
    seconds = time.monotonic() - start
    payload["kind"] = spec.kind
    payload["spec"] = spec.to_dict()
    return to_jsonable(payload), seconds


def execute_spec(spec: ScenarioSpec) -> dict:
    """Evaluate one scenario and return its strict-JSON-safe result payload.

    The payload always carries ``kind`` and the canonical ``spec`` dict, so
    a cached result is self-describing.

    Each evaluation is timed into ``repro_execute_seconds{kind=...}`` of
    the process that runs it.  Shards a scheduler sends to its process
    pool run :func:`execute_shard_timed` instead, which hands the times
    back with the payloads so the dispatching process observes them (a
    pool child's registry never reaches ``GET /metrics``).  Timing never
    touches the payload, so results stay bit-identical with telemetry on
    or off.
    """
    payload, seconds = _evaluate(spec)
    _observe_execute_seconds(spec.kind, seconds)
    return payload


def execute_shard(shard) -> list:
    """Evaluate one shard (an iterable of specs) serially, in order.

    Top-level so it pickles into the scheduler's process-pool fan-out; also
    the local fallback the remote dispatcher uses when a worker dies
    mid-batch.
    """
    return [execute_spec(spec) for spec in shard]


def execute_shard_timed(shard) -> Tuple[list, list]:
    """:func:`execute_shard` for a process pool: payloads plus per-spec seconds.

    Nothing is observed here; the dispatching process records the seconds
    and trials with :func:`observe_pool_shard`, so each evaluation lands in
    exactly one ``GET /metrics``.
    """
    payloads, seconds = [], []
    for spec in shard:
        payload, elapsed = _evaluate(spec)
        payloads.append(payload)
        seconds.append(elapsed)
    return payloads, seconds


def observe_pool_shard(shard, result: Tuple[list, list]) -> list:
    """Record a pool-computed shard in this process; return its payloads.

    ``result`` is what :func:`execute_shard_timed` returned in the pool
    child.  A child's registry never reaches ``GET /metrics``, so the
    dispatching process observes each evaluation's seconds and counts
    each Monte-Carlo payload's trials here, exactly as
    :func:`execute_spec` would have in-process.
    """
    payloads, seconds = result
    for spec, payload, elapsed in zip(shard, payloads, seconds):
        _observe_execute_seconds(spec.kind, elapsed)
        if isinstance(spec, (MonteCarloFaultsSpec, MonteCarloRandomizedSpec)):
            _count_mc_trials(spec, payload["trials_used"])
    return payloads
