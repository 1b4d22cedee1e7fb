"""Canonical scenario specifications.

A :class:`ScenarioSpec` is a frozen, validated, JSON-round-trippable
description of one evaluation the library can perform.  Every existing
workload has a spec type:

==============================  ==========================================
:class:`BoundsSpec`             closed-form bound ``A(m, k, f)`` (+ alpha*)
:class:`SimulateSpec`           deterministic optimal-strategy measurement
:class:`FamilySpec`             a named baseline/ablation strategy
:class:`MonteCarloFaultsSpec`   seeded random crash-fault campaign
:class:`MonteCarloRandomizedSpec`  seeded randomized-offset ray search
:class:`TimelineSpec`           event timeline of one execution
:class:`ContractSpec`           contract-scheduling acceleration ratio
:class:`HybridSpec`             hybrid-algorithm schedule measurement
:class:`OrcSpec`                ORC covering strategy measurement
:class:`FractionalSpec`         fractional one-ray retrieval (Eq. 11)
:class:`LemmasSpec`             Lemma 4/5 numeric verification
:class:`CertificateSpec`        lower-bound certificate construction
==============================  ==========================================

Canonical serialisation
-----------------------
``to_dict`` normalises every field (ints coerced with ``int``, floats with
``float``, target lists to sorted-shape tuples) and ``canonical_json``
dumps the dict with sorted keys and no whitespace, so two specs describing
the same scenario — however they were constructed (keyword order, JSON key
order, ``3`` versus ``3.0`` horizons) — produce byte-identical JSON.
:meth:`ScenarioSpec.cache_key` hashes that JSON together with the engine
version string, giving the content-addressed key used by
:mod:`repro.service.cache`; any semantic field change or an engine bump
changes the key.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, FrozenSet, Mapping, Optional, Tuple, Type

from .. import __version__
from ..exceptions import InvalidProblemError
from ..simulation.engine import DEFAULT_ENGINE, validate_engine

__all__ = [
    "ENGINE_VERSION",
    "ScenarioSpec",
    "BoundsSpec",
    "SimulateSpec",
    "FamilySpec",
    "MonteCarloFaultsSpec",
    "MonteCarloRandomizedSpec",
    "TimelineSpec",
    "ContractSpec",
    "HybridSpec",
    "OrcSpec",
    "FractionalSpec",
    "LemmasSpec",
    "CertificateSpec",
    "spec_from_dict",
    "spec_class",
    "spec_fields",
    "spec_kinds",
]

#: Version string folded into every cache key.  Bump the suffix whenever an
#: engine change may alter numeric results for an unchanged spec — every
#: previously cached entry is then invalidated automatically.
ENGINE_VERSION = f"repro/{__version__}+engine.4"

_SPEC_KINDS: Dict[str, Type["ScenarioSpec"]] = {}

#: The canonical encoder, built once: ``json.dumps`` with these options
#: would construct a new encoder on every call.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


@functools.lru_cache(maxsize=None)
def _field_names(cls: Type["ScenarioSpec"]) -> Tuple[str, ...]:
    """A spec class's dataclass field names, in declaration order."""
    return tuple(field.name for field in fields(cls))


def _register(cls: Type["ScenarioSpec"]) -> Type["ScenarioSpec"]:
    _SPEC_KINDS[cls.kind] = cls
    return cls


def spec_kinds() -> Tuple[str, ...]:
    """The registered scenario kinds, sorted."""
    return tuple(sorted(_SPEC_KINDS))


def spec_class(kind: str) -> Type["ScenarioSpec"]:
    """The registered spec class for ``kind`` (raises on unknown kinds)."""
    try:
        return _SPEC_KINDS[kind]
    except KeyError:
        raise InvalidProblemError(
            f"unknown scenario kind {kind!r}; expected one of {list(spec_kinds())}"
        ) from None


def spec_fields(kind: str) -> Tuple[str, ...]:
    """Field names accepted by a registered scenario kind."""
    return _field_names(spec_class(kind))


def _require_positive_int(name: str, value: object, minimum: int = 1) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidProblemError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )


def _require_finite(name: str, value: object, minimum: float) -> None:
    if not isinstance(value, float) or not math.isfinite(value) or value < minimum:
        raise InvalidProblemError(
            f"{name} must be a finite number >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """Base class: canonicalisation, validation and content addressing.

    Subclasses declare ``_INT_FIELDS`` / ``_FLOAT_FIELDS`` so construction
    normalises numeric types before hashing (``horizon=100`` and
    ``horizon=100.0`` are the same scenario), then implement
    :meth:`validate`.
    """

    kind: ClassVar[str] = "abstract"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset()
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset()
    #: Optional fields omitted from the canonical dict while unset — adding
    #: such a field to a kind leaves every existing spec's canonical JSON
    #: (and hence its cache key, modulo the engine-version salt) unchanged.
    _OMIT_WHEN_NONE: ClassVar[FrozenSet[str]] = frozenset()

    def __post_init__(self) -> None:
        for name in self._INT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                if isinstance(value, bool) or (
                    isinstance(value, float) and not value.is_integer()
                ):
                    raise InvalidProblemError(
                        f"{self.kind}.{name} must be an integer, got {value!r}"
                    )
                try:
                    object.__setattr__(self, name, int(value))
                except (TypeError, ValueError):
                    raise InvalidProblemError(
                        f"{self.kind}.{name} must be an integer, got {value!r}"
                    ) from None
        for name in self._FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                try:
                    object.__setattr__(self, name, float(value))
                except (TypeError, ValueError):
                    raise InvalidProblemError(
                        f"{self.kind}.{name} must be a number, got {value!r}"
                    ) from None
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.exceptions.InvalidProblemError` when invalid."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Normalised plain-dict form, including the ``kind`` discriminator."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if value is None and name in self._OMIT_WHEN_NONE:
                continue
            if isinstance(value, tuple):
                value = [list(item) if isinstance(item, tuple) else item for item in value]
            payload[name] = value
        return payload

    def canonical_json(self) -> str:
        """Deterministic compact JSON: sorted keys, normalised numbers."""
        return _CANONICAL_ENCODER.encode(self.to_dict())

    def cache_key(self, engine_version: str = ENGINE_VERSION) -> str:
        """SHA-256 of the canonical JSON plus the engine version."""
        digest = hashlib.sha256()
        digest.update(engine_version.encode("utf-8"))
        digest.update(b"\n")
        digest.update(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    def _validate_precision(self) -> None:
        """Shared validation of the optional adaptive-precision fields.

        Each field is valid on its own: ``target_se`` alone stops at the
        target (budget defaults to the fixed trial count), ``max_trials``
        alone caps the run, ``chunk_trials`` alone merely chunks it.
        """
        if self.target_se is not None:
            _require_finite(f"{self.kind}.target_se", self.target_se, 0.0)
            if self.target_se <= 0.0:
                raise InvalidProblemError(
                    f"{self.kind}.target_se must be positive, got {self.target_se!r}"
                )
        if self.max_trials is not None:
            _require_positive_int(f"{self.kind}.max_trials", self.max_trials, 1)
        if self.chunk_trials is not None:
            _require_positive_int(f"{self.kind}.chunk_trials", self.chunk_trials, 1)

    def _validate_problem(self) -> None:
        _require_positive_int(f"{self.kind}.num_rays", self.num_rays, 1)
        _require_positive_int(f"{self.kind}.num_robots", self.num_robots, 1)
        _require_positive_int(f"{self.kind}.num_faulty", self.num_faulty, 0)
        if self.num_faulty > self.num_robots:  # type: ignore[operator]
            raise InvalidProblemError(
                f"{self.kind}: num_faulty {self.num_faulty} exceeds "
                f"num_robots {self.num_robots}"
            )


@_register
@dataclass(frozen=True)
class BoundsSpec(ScenarioSpec):
    """The closed-form tight bound ``A(m, k, f)`` (and alpha* when defined)."""

    kind: ClassVar[str] = "bounds"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_rays", "num_robots", "num_faulty"}
    )

    num_robots: int = 1
    num_rays: int = 2
    num_faulty: int = 0

    def validate(self) -> None:
        self._validate_problem()


@dataclass(frozen=True)
class _EvaluationSpec(ScenarioSpec):
    """Shared shape of the deterministic evaluation workloads."""

    num_robots: int = 1
    num_rays: int = 2
    num_faulty: int = 0
    horizon: float = 1e4
    engine: str = DEFAULT_ENGINE

    def validate(self) -> None:
        self._validate_problem()
        _require_finite(f"{self.kind}.horizon", self.horizon, 1.0)
        object.__setattr__(self, "engine", validate_engine(self.engine))
        if self.num_robots == self.num_faulty:
            raise InvalidProblemError(
                f"{self.kind}: all robots faulty (k == f == {self.num_robots}) "
                "— the target can never be confirmed"
            )


@_register
@dataclass(frozen=True)
class SimulateSpec(_EvaluationSpec):
    """Measure the optimal strategy against the closed form on a horizon."""

    kind: ClassVar[str] = "simulate"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_rays", "num_robots", "num_faulty"}
    )
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"horizon"})


#: Strategy families servable by :class:`FamilySpec`; resolved lazily in
#: :mod:`repro.service.execute` to avoid import cycles.
FAMILY_NAMES = ("optimal", "trivial", "replication", "partition")


@_register
@dataclass(frozen=True)
class FamilySpec(_EvaluationSpec):
    """Measure a named baseline/ablation strategy family member."""

    kind: ClassVar[str] = "family"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_rays", "num_robots", "num_faulty"}
    )
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"horizon"})

    family: str = "optimal"

    def validate(self) -> None:
        super().validate()
        if self.family not in FAMILY_NAMES:
            raise InvalidProblemError(
                f"unknown strategy family {self.family!r}; "
                f"expected one of {sorted(FAMILY_NAMES)}"
            )
        # PartitionStrategy's own preconditions, checked here so a batch
        # is refused up front instead of failing inside a shard.
        if self.family == "partition" and self.num_faulty > 0:
            raise InvalidProblemError(
                "family 'partition' is only correct for fault-free robots, "
                f"got num_faulty={self.num_faulty}"
            )
        if self.family == "partition" and self.num_robots > self.num_rays:
            raise InvalidProblemError(
                "family 'partition' expects at most one robot per ray, got "
                f"num_robots={self.num_robots} > num_rays={self.num_rays}"
            )


@_register
@dataclass(frozen=True)
class MonteCarloFaultsSpec(ScenarioSpec):
    """Seeded Monte-Carlo campaign of uniformly random crash faults.

    The optional adaptive-precision fields (``target_se``, ``max_trials``,
    ``chunk_trials``) switch the campaign to sequential estimation in
    seeded chunks; any of them set changes the cache key (they change what
    is computed), while leaving all three unset reproduces the legacy
    fixed-count run — and, being omitted from the canonical dict, the
    legacy canonical JSON byte for byte.
    """

    kind: ClassVar[str] = "montecarlo_faults"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_rays", "num_robots", "num_faulty", "num_trials", "seed",
         "max_trials", "chunk_trials"}
    )
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"horizon", "target_se"})
    _OMIT_WHEN_NONE: ClassVar[FrozenSet[str]] = frozenset(
        {"target_se", "max_trials", "chunk_trials"}
    )

    num_robots: int = 1
    num_rays: int = 2
    num_faulty: int = 0
    num_trials: int = 200
    seed: int = 0
    horizon: float = 1e3
    engine: str = DEFAULT_ENGINE
    crash_model: str = "silent"
    target_se: Optional[float] = None
    max_trials: Optional[int] = None
    chunk_trials: Optional[int] = None

    def validate(self) -> None:
        self._validate_problem()
        _require_positive_int(f"{self.kind}.num_trials", self.num_trials, 1)
        _require_positive_int(f"{self.kind}.seed", self.seed, 0)
        _require_finite(f"{self.kind}.horizon", self.horizon, 1.0)
        self._validate_precision()
        object.__setattr__(self, "engine", validate_engine(self.engine))
        if self.crash_model not in ("silent", "uniform"):
            raise InvalidProblemError(
                f"unknown crash model {self.crash_model!r}; "
                "expected 'silent' or 'uniform'"
            )
        if self.num_robots == self.num_faulty:
            raise InvalidProblemError(
                f"{self.kind}: all robots faulty (k == f == {self.num_robots})"
            )


@_register
@dataclass(frozen=True)
class MonteCarloRandomizedSpec(ScenarioSpec):
    """Seeded Monte-Carlo estimate of the randomized cyclic ray search.

    ``targets`` is a tuple of ``(ray, distance)`` pairs; ``None`` derives
    the same default pool the CLI uses (geometric spread clipped to the
    horizon).  ``base=None`` selects the optimal randomized base.
    """

    kind: ClassVar[str] = "montecarlo_randomized"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_rays", "num_samples", "seed", "max_trials", "chunk_trials"}
    )
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"horizon", "base", "target_se"}
    )
    _OMIT_WHEN_NONE: ClassVar[FrozenSet[str]] = frozenset(
        {"target_se", "max_trials", "chunk_trials"}
    )

    num_rays: int = 2
    num_samples: int = 200
    seed: int = 0
    horizon: float = 1e3
    base: Optional[float] = None
    engine: str = DEFAULT_ENGINE
    targets: Optional[Tuple[Tuple[int, float], ...]] = None
    target_se: Optional[float] = None
    max_trials: Optional[int] = None
    chunk_trials: Optional[int] = None

    def validate(self) -> None:
        if not isinstance(self.num_rays, int) or self.num_rays < 2:
            raise InvalidProblemError(
                f"{self.kind}.num_rays must be an integer >= 2, got {self.num_rays!r}"
            )
        _require_positive_int(f"{self.kind}.num_samples", self.num_samples, 1)
        _require_positive_int(f"{self.kind}.seed", self.seed, 0)
        _require_finite(f"{self.kind}.horizon", self.horizon, 1.0)
        self._validate_precision()
        if self.base is not None and self.base <= 1.0:
            raise InvalidProblemError(
                f"{self.kind}.base must exceed 1, got {self.base!r}"
            )
        object.__setattr__(self, "engine", validate_engine(self.engine))
        if self.targets is not None:
            normalised = []
            for pair in self.targets:
                try:
                    ray, distance = pair
                    ray, distance = int(ray), float(distance)
                except (TypeError, ValueError):
                    raise InvalidProblemError(
                        f"{self.kind}: each target must be a (ray, distance) "
                        f"pair of numbers, got {pair!r}"
                    ) from None
                if not 0 <= ray < self.num_rays:
                    raise InvalidProblemError(
                        f"{self.kind}: target ray {ray} outside [0, {self.num_rays})"
                    )
                if not math.isfinite(distance) or distance <= 0:
                    raise InvalidProblemError(
                        f"{self.kind}: target distance must be positive and "
                        f"finite, got {distance!r}"
                    )
                normalised.append((ray, distance))
            object.__setattr__(self, "targets", tuple(normalised))

    def resolved_targets(self) -> Tuple[Tuple[int, float], ...]:
        """The explicit targets, or the CLI's default horizon-clipped pool."""
        if self.targets is not None:
            return self.targets
        distances = [d for d in (1.7, 13.0, 97.0) if d <= self.horizon] or [
            min(1.5, self.horizon)
        ]
        return tuple(
            (index % self.num_rays, float(d)) for index, d in enumerate(distances)
        )


@_register
@dataclass(frozen=True)
class TimelineSpec(ScenarioSpec):
    """The event timeline of the optimal strategy against one target."""

    kind: ClassVar[str] = "timeline"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_rays", "num_robots", "num_faulty", "target_ray"}
    )
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"target_distance"})

    num_robots: int = 1
    num_rays: int = 2
    num_faulty: int = 0
    target_ray: int = 0
    target_distance: float = 10.0

    def validate(self) -> None:
        self._validate_problem()
        _require_positive_int(f"{self.kind}.target_ray", self.target_ray, 0)
        if self.target_ray >= self.num_rays:
            raise InvalidProblemError(
                f"{self.kind}: target ray {self.target_ray} outside "
                f"[0, {self.num_rays})"
            )
        # The timeline engine handles targets below the paper's unit
        # normalisation, and the plain CLI accepts them — so does the spec.
        if (
            not isinstance(self.target_distance, float)
            or not math.isfinite(self.target_distance)
            or self.target_distance <= 0.0
        ):
            raise InvalidProblemError(
                f"{self.kind}.target_distance must be a positive finite "
                f"number, got {self.target_distance!r}"
            )
        if self.num_robots == self.num_faulty:
            raise InvalidProblemError(
                f"{self.kind}: all robots faulty (k == f == {self.num_robots})"
            )


@_register
@dataclass(frozen=True)
class ContractSpec(ScenarioSpec):
    """Contract scheduling: geometric schedule + exact acceleration ratio.

    ``min_interruption=0.0`` lets the adversary interrupt before anything
    has completed, so the measured acceleration ratio is ``inf`` — the
    payload stays strict-JSON via ``encode_float``.
    """

    kind: ClassVar[str] = "contract"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_problems", "num_processors"}
    )
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"horizon", "base", "min_interruption"}
    )

    num_problems: int = 1
    num_processors: int = 1
    horizon: float = 1e4
    base: Optional[float] = None
    min_interruption: Optional[float] = None

    def validate(self) -> None:
        _require_positive_int(f"{self.kind}.num_problems", self.num_problems, 1)
        _require_positive_int(f"{self.kind}.num_processors", self.num_processors, 1)
        _require_finite(f"{self.kind}.horizon", self.horizon, 1.0)
        if self.horizon <= 1.0:
            raise InvalidProblemError(
                f"{self.kind}.horizon must exceed 1, got {self.horizon!r}"
            )
        if self.base is not None:
            _require_finite(f"{self.kind}.base", self.base, 1.0)
            if self.base <= 1.0:
                raise InvalidProblemError(
                    f"{self.kind}.base must exceed 1, got {self.base!r}"
                )
        if self.min_interruption is not None:
            _require_finite(f"{self.kind}.min_interruption", self.min_interruption, 0.0)


@_register
@dataclass(frozen=True)
class HybridSpec(ScenarioSpec):
    """Hybrid on-line algorithms: geometric schedule + measured ratio."""

    kind: ClassVar[str] = "hybrid"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_algorithms", "num_areas"}
    )
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"horizon", "base"})

    num_algorithms: int = 2
    num_areas: int = 1
    horizon: float = 1e4
    base: Optional[float] = None

    def validate(self) -> None:
        _require_positive_int(f"{self.kind}.num_algorithms", self.num_algorithms, 1)
        _require_positive_int(f"{self.kind}.num_areas", self.num_areas, 1)
        if self.num_areas >= self.num_algorithms:
            raise InvalidProblemError(
                f"{self.kind}: needs fewer memory areas than algorithms "
                f"(k < m), got m={self.num_algorithms}, k={self.num_areas}"
            )
        _require_finite(f"{self.kind}.horizon", self.horizon, 1.0)
        if self.horizon <= 1.0:
            raise InvalidProblemError(
                f"{self.kind}.horizon must exceed 1, got {self.horizon!r}"
            )
        if self.base is not None:
            _require_finite(f"{self.kind}.base", self.base, 1.0)
            if self.base <= 1.0:
                raise InvalidProblemError(
                    f"{self.kind}.base must exceed 1, got {self.base!r}"
                )


@_register
@dataclass(frozen=True)
class OrcSpec(ScenarioSpec):
    """ORC covering: geometric ``(k, q)`` strategy + measured covering ratio."""

    kind: ClassVar[str] = "orc"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"num_robots", "fold"})
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"horizon", "alpha"})

    num_robots: int = 1
    fold: int = 2
    horizon: float = 1e4
    alpha: Optional[float] = None

    def validate(self) -> None:
        _require_positive_int(f"{self.kind}.num_robots", self.num_robots, 1)
        _require_positive_int(f"{self.kind}.fold", self.fold, 1)
        if self.fold <= self.num_robots:
            raise InvalidProblemError(
                f"{self.kind}: needs covering multiplicity q > k, got "
                f"k={self.num_robots}, q={self.fold}"
            )
        _require_finite(f"{self.kind}.horizon", self.horizon, 1.0)
        if self.alpha is not None:
            _require_finite(f"{self.kind}.alpha", self.alpha, 1.0)
            if self.alpha <= 1.0:
                raise InvalidProblemError(
                    f"{self.kind}.alpha must exceed 1, got {self.alpha!r}"
                )


@_register
@dataclass(frozen=True)
class FractionalSpec(ScenarioSpec):
    """Fractional one-ray retrieval via the rational-approximation strategy."""

    kind: ClassVar[str] = "fractional"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"num_robots"})
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"eta", "horizon", "alpha"})

    eta: float = 2.0
    num_robots: int = 1
    horizon: float = 1e4
    alpha: Optional[float] = None

    def validate(self) -> None:
        _require_finite(f"{self.kind}.eta", self.eta, 1.0)
        if self.eta <= 1.0:
            raise InvalidProblemError(
                f"{self.kind}.eta must exceed 1, got {self.eta!r}"
            )
        _require_positive_int(f"{self.kind}.num_robots", self.num_robots, 1)
        _require_finite(f"{self.kind}.horizon", self.horizon, 1.0)
        if self.alpha is not None:
            _require_finite(f"{self.kind}.alpha", self.alpha, 1.0)
            if self.alpha <= 1.0:
                raise InvalidProblemError(
                    f"{self.kind}.alpha must exceed 1, got {self.alpha!r}"
                )


@_register
@dataclass(frozen=True)
class LemmasSpec(ScenarioSpec):
    """Numeric verification of Lemmas 4 and 5 at ``(k, s, mu)``.

    ``mu=None`` resolves to ``0.97 * critical_mu(k, s)`` — safely inside the
    regime where Lemma 5 yields ``delta > 1``.
    """

    kind: ClassVar[str] = "lemmas"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_robots", "shortfall", "grid_points", "mu_star_samples"}
    )
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"mu"})

    num_robots: int = 1
    shortfall: int = 1
    mu: Optional[float] = None
    grid_points: int = 2001
    mu_star_samples: int = 25

    def validate(self) -> None:
        _require_positive_int(f"{self.kind}.num_robots", self.num_robots, 1)
        _require_positive_int(f"{self.kind}.shortfall", self.shortfall, 1)
        _require_positive_int(f"{self.kind}.grid_points", self.grid_points, 3)
        _require_positive_int(f"{self.kind}.mu_star_samples", self.mu_star_samples, 1)
        if self.mu is not None:
            _require_finite(f"{self.kind}.mu", self.mu, 0.0)
            if self.mu <= 0.0:
                raise InvalidProblemError(
                    f"{self.kind}.mu must be positive, got {self.mu!r}"
                )

    def resolved_mu(self) -> float:
        """The explicit ``mu``, or ``0.97 * critical_mu(k, s)``."""
        if self.mu is not None:
            return self.mu
        from ..core.lemmas import critical_mu

        return 0.97 * critical_mu(self.num_robots, self.shortfall)


@_register
@dataclass(frozen=True)
class CertificateSpec(ScenarioSpec):
    """Construct a lower-bound certificate for a below-bound ratio claim.

    ``setting="line"`` refutes ``claim_fraction * A(k, f)`` for the zigzag
    geometric line strategy; ``setting="orc"`` refutes
    ``claim_fraction * C(k, q)`` for the geometric ORC strategy.  The claim
    must land strictly between 1 and the tight bound, which constrains
    ``claim_fraction`` from below for small bounds.
    """

    kind: ClassVar[str] = "certificate"
    _INT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"num_robots", "num_faulty", "fold"}
    )
    _FLOAT_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"claim_fraction", "horizon"}
    )

    setting: str = "line"
    num_robots: int = 3
    num_faulty: int = 1
    fold: int = 4
    claim_fraction: float = 0.95
    horizon: float = 2000.0

    def validate(self) -> None:
        if self.setting not in ("line", "orc"):
            raise InvalidProblemError(
                f"{self.kind}.setting must be 'line' or 'orc', got {self.setting!r}"
            )
        _require_positive_int(f"{self.kind}.num_robots", self.num_robots, 1)
        _require_positive_int(f"{self.kind}.num_faulty", self.num_faulty, 0)
        _require_positive_int(f"{self.kind}.fold", self.fold, 1)
        _require_finite(f"{self.kind}.claim_fraction", self.claim_fraction, 0.0)
        if not 0.0 < self.claim_fraction < 1.0:
            raise InvalidProblemError(
                f"{self.kind}.claim_fraction must lie strictly between 0 and 1, "
                f"got {self.claim_fraction!r}"
            )
        _require_finite(f"{self.kind}.horizon", self.horizon, 10.0)
        if self.tight_bound() * self.claim_fraction <= 1.0:
            raise InvalidProblemError(
                f"{self.kind}: claimed ratio "
                f"{self.tight_bound() * self.claim_fraction!r} is not above 1 — "
                "nothing to refute"
            )

    def tight_bound(self) -> float:
        """The paper's tight bound the claim is measured against."""
        from ..core.bounds import crash_line_ratio, orc_covering_ratio

        if self.setting == "line":
            if self.num_faulty >= self.num_robots:
                raise InvalidProblemError(
                    f"{self.kind}: line setting needs num_faulty < num_robots, "
                    f"got k={self.num_robots}, f={self.num_faulty}"
                )
            if 2 * (self.num_faulty + 1) - self.num_robots < 1:
                raise InvalidProblemError(
                    f"{self.kind}: with k >= 2(f+1) the ratio 1 is achievable "
                    f"(k={self.num_robots}, f={self.num_faulty}); nothing to refute"
                )
            return crash_line_ratio(self.num_robots, self.num_faulty)
        if self.fold <= self.num_robots:
            raise InvalidProblemError(
                f"{self.kind}: orc setting needs fold > num_robots, got "
                f"k={self.num_robots}, q={self.fold}"
            )
        return orc_covering_ratio(self.num_robots, self.fold)

    def claimed_ratio(self) -> float:
        """The concrete below-bound ratio the certificate refutes."""
        return self.claim_fraction * self.tight_bound()


def spec_from_dict(payload: Mapping[str, Any]) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from its dict/JSON form.

    The inverse of :meth:`ScenarioSpec.to_dict`; key order does not matter,
    unknown kinds and unknown fields raise
    :class:`~repro.exceptions.InvalidProblemError` (they would otherwise
    silently change what the cache key means).
    """
    if not isinstance(payload, Mapping):
        raise InvalidProblemError(
            f"scenario must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise InvalidProblemError(
            f"unknown scenario kind {kind!r}; expected one of {list(spec_kinds())}"
        )
    cls = _SPEC_KINDS[kind]
    known = _field_names(cls)
    kwargs: Dict[str, Any] = {}
    for key, value in payload.items():
        if key == "kind":
            continue
        if key not in known:
            raise InvalidProblemError(
                f"unknown field {key!r} for scenario kind {kind!r}; "
                f"expected a subset of {sorted(known)}"
            )
        if key == "targets" and value is not None:
            try:
                value = tuple(tuple(pair) for pair in value)
            except TypeError:
                raise InvalidProblemError(
                    f"targets must be a list of (ray, distance) pairs, "
                    f"got {value!r}"
                ) from None
        kwargs[key] = value
    return cls(**kwargs)
