"""Experiment-builder DSL: generator × strategy × metric grids.

The service layer evaluates *one* scenario at a time (or a flat batch); a
paper-style experiment is a structured grid — a set of scenario
*generators* (parameter rows), crossed with a set of *strategies* (spec
kinds + fixed fields), projected through named *metrics*.  This module
provides the chained builder the related evaluation repos use::

    experiment = (
        Experiment("bounds-vs-measured", seed=7)
        .add_generator("small", [{"num_rays": 2}, {"num_rays": 3}])
        .add_strategy("closed-form", "bounds")
        .add_strategy("measured", "simulate", horizon=1e3)
        .add_metric("ratio", "ratio")
        .add_metric("measured", "measured")
    )
    result = experiment.compile().run()
    result.persist("experiments-out")

``compile`` crosses every generator row with every strategy, builds the
canonical :class:`~repro.service.spec.ScenarioSpec` for each cell and
derives a per-cell seed from one ``SeedSequence`` spawn (cells that carry
an explicit ``seed`` keep it; kinds without a ``seed`` field are left
untouched).  ``run`` submits the whole grid as *one* deduped background
batch through a :class:`~repro.service.scheduler.ScenarioScheduler`, so
experiments inherit content-key caching, dedup, sharded (possibly remote)
dispatch and journaling for free.  ``persist`` writes the artifact table as
``table.json`` + ``table.csv`` under a directory keyed by the experiment's
own content hash.

The whole experiment is content-addressed: :meth:`ExperimentPlan.content_hash`
is the SHA-256 of the canonical JSON of (name, seed, ENGINE_VERSION, every
cell's canonical spec, the metric names) — two runs of an identical plan
land in the same artifact directory, and the second one is served entirely
from cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .exceptions import InvalidProblemError
from .reporting import decode_float, render_csv, render_json
from .service.scheduler import ScenarioScheduler
from .service.spec import ENGINE_VERSION, ScenarioSpec, spec_fields, spec_from_dict
from .simulation.monte_carlo import spawn_seeds

__all__ = [
    "Cell",
    "CsvRowStream",
    "Experiment",
    "ExperimentPlan",
    "ExperimentResult",
    "extract_metric",
]

#: Type of a metric extractor: a dotted path into the payload or a callable.
MetricExtractor = Union[str, Callable[[Mapping[str, Any]], Any]]

#: Type of a generator source: explicit rows, or a callable deriving rows
#: from the experiment seed.
GeneratorSource = Union[
    Sequence[Mapping[str, Any]],
    Callable[[int], Sequence[Mapping[str, Any]]],
]


def extract_metric(extractor: MetricExtractor, payload: Mapping[str, Any]) -> Any:
    """Apply one metric extractor to a result payload.

    A string extractor is a dotted path (``"statistics.mean"``,
    ``"lemma4.holds"``); list elements are addressed by integer segments.
    Missing paths yield ``None`` — heterogeneous grids (different kinds per
    strategy) produce sparse columns rather than errors.  Encoded
    ``"inf"``/``"-inf"``/``"nan"`` strings are decoded back to floats.
    """
    if callable(extractor):
        return extractor(payload)
    value: Any = payload
    for segment in extractor.split("."):
        if isinstance(value, Mapping):
            if segment not in value:
                return None
            value = value[segment]
        elif isinstance(value, (list, tuple)):
            try:
                value = value[int(segment)]
            except (IndexError, ValueError):
                return None
        else:
            return None
    if isinstance(value, str):
        try:
            return decode_float(value)
        except ValueError:
            return value
    return value


@dataclass(frozen=True)
class Cell:
    """One compiled grid cell: a generator row crossed with a strategy."""

    index: int
    generator: str
    strategy: str
    spec: ScenarioSpec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "generator": self.generator,
            "strategy": self.strategy,
            "spec": self.spec.to_dict(),
        }


class Experiment:
    """Chained builder for a generator × strategy × metric experiment grid.

    Every ``add_*`` method validates its arguments, rejects duplicate
    names and returns ``self`` for chaining.  Nothing is evaluated until
    :meth:`compile`/:meth:`run`.
    """

    def __init__(self, name: str = "experiment", seed: int = 0) -> None:
        if not isinstance(name, str) or not name:
            raise InvalidProblemError(f"experiment name must be a non-empty string, got {name!r}")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise InvalidProblemError(f"experiment seed must be an integer >= 0, got {seed!r}")
        self.name = name
        self.seed = seed
        self._generators: List[Tuple[str, GeneratorSource]] = []
        self._strategies: List[Tuple[str, str, Dict[str, Any]]] = []
        self._metrics: List[Tuple[str, MetricExtractor]] = []

    # ------------------------------------------------------------------
    def _check_name(self, label: str, name: str, existing: Sequence[str]) -> None:
        if not isinstance(name, str) or not name:
            raise InvalidProblemError(f"{label} name must be a non-empty string, got {name!r}")
        if name in existing:
            raise InvalidProblemError(f"duplicate {label} name {name!r}")

    def add_generator(self, name: str, cells: GeneratorSource) -> "Experiment":
        """Add a named scenario generator.

        ``cells`` is either an explicit sequence of field dicts (each later
        merged with every strategy's fields) or a callable taking the
        experiment seed and returning such a sequence.
        """
        self._check_name("generator", name, [g for g, _source in self._generators])
        if not callable(cells):
            cells = [dict(row) for row in cells]
            for row in cells:
                if not isinstance(row, dict):
                    raise InvalidProblemError(
                        f"generator {name!r}: every cell must be a mapping, got {row!r}"
                    )
        self._generators.append((name, cells))
        return self

    def add_strategy(self, name: str, kind: str, **spec_kwargs: Any) -> "Experiment":
        """Add a named strategy: a scenario ``kind`` plus fixed spec fields.

        The kind (and its field names) are validated immediately against the
        spec registry, so a typo fails at build time rather than mid-grid.
        """
        self._check_name("strategy", name, [s for s, _kind, _fields in self._strategies])
        known = spec_fields(kind)
        for key in spec_kwargs:
            if key not in known:
                raise InvalidProblemError(
                    f"strategy {name!r}: unknown field {key!r} for scenario "
                    f"kind {kind!r}; expected a subset of {sorted(known)}"
                )
        self._strategies.append((name, kind, dict(spec_kwargs)))
        return self

    def add_metric(self, name: str, extractor: Optional[MetricExtractor] = None) -> "Experiment":
        """Add a named metric: a dotted payload path or a callable.

        ``extractor`` defaults to the metric name itself (a top-level
        payload field).
        """
        self._check_name("metric", name, [m for m, _extractor in self._metrics])
        if extractor is None:
            extractor = name
        if not callable(extractor) and not isinstance(extractor, str):
            raise InvalidProblemError(
                f"metric {name!r}: extractor must be a dotted path or a "
                f"callable, got {extractor!r}"
            )
        self._metrics.append((name, extractor))
        return self

    # ------------------------------------------------------------------
    def compile(self) -> "ExperimentPlan":
        """Cross generators × strategies into a seeded, validated plan.

        Cell order is deterministic: generators in insertion order, rows
        within a generator in order, strategies innermost.  A generator row
        only contributes the fields its strategy's kind declares, so one
        row can drive strategies of different kinds (e.g. ``bounds`` vs
        ``simulate``); a row field no strategy understands is a build-time
        error.  Per-cell seeds
        are spawned from one ``SeedSequence(experiment seed)``, so the same
        experiment always produces the same specs (and hence cache keys),
        while distinct cells get statistically independent streams.  A cell
        whose kind has no ``seed`` field, or that sets ``seed`` explicitly,
        is left alone.
        """
        if not self._generators:
            raise InvalidProblemError("experiment needs at least one generator")
        if not self._strategies:
            raise InvalidProblemError("experiment needs at least one strategy")
        if not self._metrics:
            raise InvalidProblemError("experiment needs at least one metric")
        usable = set()
        for _name, kind, _fields in self._strategies:
            usable.update(spec_fields(kind))
        grid: List[Tuple[str, Dict[str, Any], str, str, Dict[str, Any]]] = []
        for generator_name, source in self._generators:
            rows = source(self.seed) if callable(source) else source
            for row in rows:
                if not isinstance(row, Mapping):
                    raise InvalidProblemError(
                        f"generator {generator_name!r}: every cell must be a "
                        f"mapping, got {row!r}"
                    )
                orphans = sorted(set(row) - usable)
                if orphans:
                    raise InvalidProblemError(
                        f"generator {generator_name!r}: fields {orphans} are "
                        f"not understood by any strategy kind"
                    )
                for strategy_name, kind, spec_kwargs in self._strategies:
                    grid.append(
                        (generator_name, dict(row), strategy_name, kind, spec_kwargs)
                    )
        seeds = spawn_seeds(self.seed, len(grid))
        cells: List[Cell] = []
        for index, (generator_name, row, strategy_name, kind, spec_kwargs) in enumerate(grid):
            known = spec_fields(kind)
            merged: Dict[str, Any] = {
                key: value for key, value in row.items() if key in known
            }
            merged.update(spec_kwargs)
            merged["kind"] = kind
            if "seed" in spec_fields(kind) and "seed" not in merged:
                merged["seed"] = int(seeds[index])
            try:
                spec = spec_from_dict(merged)
            except InvalidProblemError as error:
                raise InvalidProblemError(
                    f"cell {index} (generator {generator_name!r} × strategy "
                    f"{strategy_name!r}): {error}"
                ) from error
            cells.append(
                Cell(
                    index=index,
                    generator=generator_name,
                    strategy=strategy_name,
                    spec=spec,
                )
            )
        return ExperimentPlan(
            name=self.name,
            seed=self.seed,
            cells=tuple(cells),
            metrics=tuple(self._metrics),
        )

    def run(
        self,
        scheduler: Optional[ScenarioScheduler] = None,
        max_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> "ExperimentResult":
        """Shorthand for ``compile().run(...)``."""
        return self.compile().run(
            scheduler=scheduler, max_workers=max_workers, shard_size=shard_size
        )

    # ------------------------------------------------------------------
    def to_spec(self) -> Dict[str, Any]:
        """The JSON form consumed by ``repro experiment run`` / ``POST /experiments``.

        Callable generators are materialised (they are deterministic in the
        experiment seed); callable metrics cannot be serialised and raise.
        """
        generators = []
        for name, source in self._generators:
            rows = source(self.seed) if callable(source) else source
            generators.append({"name": name, "cells": [dict(row) for row in rows]})
        metrics = []
        for name, extractor in self._metrics:
            if callable(extractor):
                raise InvalidProblemError(
                    f"metric {name!r} uses a callable extractor and cannot be "
                    "serialised; use a dotted payload path"
                )
            metrics.append({"name": name, "path": extractor})
        return {
            "name": self.name,
            "seed": self.seed,
            "generators": generators,
            "strategies": [
                {"name": name, "kind": kind, "fields": dict(fields_)}
                for name, kind, fields_ in self._strategies
            ],
            "metrics": metrics,
        }

    @classmethod
    def from_spec(cls, payload: Mapping[str, Any]) -> "Experiment":
        """Rebuild an :class:`Experiment` from its JSON form (inverse of
        :meth:`to_spec`); unknown top-level keys raise, like
        :func:`~repro.service.spec.spec_from_dict` does for scenarios."""
        if not isinstance(payload, Mapping):
            raise InvalidProblemError(
                f"experiment spec must be a JSON object, got {type(payload).__name__}"
            )
        known = {"name", "seed", "generators", "strategies", "metrics"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidProblemError(
                f"unknown experiment fields {unknown}; expected a subset of {sorted(known)}"
            )
        experiment = cls(
            name=payload.get("name", "experiment"),
            seed=payload.get("seed", 0),
        )
        generators = payload.get("generators")
        if not isinstance(generators, list) or not generators:
            raise InvalidProblemError("'generators' must be a non-empty list")
        for entry in generators:
            if not isinstance(entry, Mapping) or "name" not in entry:
                raise InvalidProblemError(
                    f"each generator must be an object with 'name' and 'cells', got {entry!r}"
                )
            cells = entry.get("cells")
            if not isinstance(cells, list):
                raise InvalidProblemError(
                    f"generator {entry.get('name')!r}: 'cells' must be a list"
                )
            experiment.add_generator(entry["name"], cells)
        strategies = payload.get("strategies")
        if not isinstance(strategies, list) or not strategies:
            raise InvalidProblemError("'strategies' must be a non-empty list")
        for entry in strategies:
            if not isinstance(entry, Mapping) or "name" not in entry or "kind" not in entry:
                raise InvalidProblemError(
                    f"each strategy must be an object with 'name' and 'kind', got {entry!r}"
                )
            fields_ = entry.get("fields", {})
            if not isinstance(fields_, Mapping):
                raise InvalidProblemError(
                    f"strategy {entry.get('name')!r}: 'fields' must be an object"
                )
            experiment.add_strategy(entry["name"], entry["kind"], **dict(fields_))
        metrics = payload.get("metrics")
        if not isinstance(metrics, list) or not metrics:
            raise InvalidProblemError("'metrics' must be a non-empty list")
        for entry in metrics:
            if isinstance(entry, str):
                experiment.add_metric(entry)
                continue
            if not isinstance(entry, Mapping) or "name" not in entry:
                raise InvalidProblemError(
                    f"each metric must be a name or an object with 'name' (+ "
                    f"optional 'path'), got {entry!r}"
                )
            experiment.add_metric(entry["name"], entry.get("path"))
        return experiment


@dataclass(frozen=True)
class ExperimentPlan:
    """A compiled experiment: ordered cells + metrics, content-addressed."""

    name: str
    seed: int
    cells: Tuple[Cell, ...]
    metrics: Tuple[Tuple[str, MetricExtractor], ...]

    @property
    def columns(self) -> List[str]:
        """Artifact-table column names (cell identity first, then metrics)."""
        return ["cell", "generator", "strategy", "kind", "key"] + [
            name for name, _extractor in self.metrics
        ]

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON of the full plan.

        Includes ``ENGINE_VERSION``, every cell's canonical spec dict and
        the metric names — any change that could change the artifact table
        changes the hash (and therefore the artifact directory).
        """
        document = {
            "name": self.name,
            "seed": self.seed,
            "engine_version": ENGINE_VERSION,
            "metrics": [name for name, _extractor in self.metrics],
            "cells": [
                {
                    "generator": cell.generator,
                    "strategy": cell.strategy,
                    "spec": cell.spec.to_dict(),
                }
                for cell in self.cells
            ],
        }
        canonical = json.dumps(
            document, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def artifact_directory(self, output_dir: str) -> str:
        """The hash-keyed directory :meth:`ExperimentResult.persist` writes to.

        Exposed on the *plan* so streaming consumers can open
        ``table.csv`` for incremental writing before the first row exists.
        """
        return os.path.join(output_dir, f"{self.name}-{self.content_hash()[:12]}")

    def _table_row(
        self, cell: Cell, payload: Mapping[str, Any], engine_version: str
    ) -> List[Any]:
        """Project one evaluated cell into its artifact-table row."""
        row: List[Any] = [
            cell.index,
            cell.generator,
            cell.strategy,
            cell.spec.kind,
            cell.spec.cache_key(engine_version),
        ]
        for _name, extractor in self.metrics:
            row.append(extract_metric(extractor, payload))
        return row

    def run(
        self,
        scheduler: Optional[ScenarioScheduler] = None,
        max_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        on_row: Optional[Callable[[List[Any]], None]] = None,
    ) -> "ExperimentResult":
        """Evaluate the grid as one deduped batch and project the metrics.

        The batch goes through :meth:`ScenarioScheduler.submit_job`, so a
        journaled scheduler records the experiment like any other job and
        remote workers participate in the fan-out.  Without a
        ``scheduler`` the run builds its own and closes it (and its
        process pool) before returning.

        Rows are read from the job's ordered row stream
        (:meth:`~repro.service.scheduler.BatchJob.iter_rows`); given
        ``on_row``, each finished table row is also passed to the callback
        the moment its shard lands — the first row typically long before
        the batch completes.  The returned :class:`ExperimentResult` is the
        same either way (same rows, same order, same payloads).
        """
        if scheduler is None:
            scheduler = ScenarioScheduler()
            try:
                return self.run(scheduler, max_workers, shard_size, on_row)
            finally:
                scheduler.close()
        job = scheduler.submit_job(
            [cell.spec for cell in self.cells],
            max_workers=max_workers,
            shard_size=shard_size,
        )
        rows: List[List[Any]] = []
        for index, _key, payload in job.iter_rows():
            row = self._table_row(self.cells[index], payload, scheduler.engine_version)
            rows.append(row)
            if on_row is not None:
                on_row(row)
        batch = job.result()
        return ExperimentResult(
            plan=self,
            rows=rows,
            stats=batch.to_dict(),
            cache=scheduler.cache.stats().to_dict(),
        )


class CsvRowStream:
    """Incremental ``table.csv`` writer for streamed experiment rows.

    Opens the file eagerly (header line first) and appends one CSV line
    per :meth:`write`, flushing each so a tailing reader sees rows as
    they land.  Every line is rendered through
    :func:`~repro.reporting.render_csv` itself, so the finished file is
    byte-identical to the one :meth:`ExperimentResult.persist` writes —
    re-persisting after a streamed run overwrites it with the same bytes.
    Usable as a context manager.
    """

    def __init__(self, path: str, columns: Sequence[str]) -> None:
        self.path = path
        self.columns = list(columns)
        self._handle = open(path, "w", encoding="utf-8")
        self._handle.write(render_csv(self.columns, []))
        self._handle.flush()

    def write(self, row: Sequence[Any]) -> None:
        """Append one table row (render_csv dialect, immediately flushed)."""
        # Render a one-row table and drop its header: exactly the bytes
        # render_csv would emit for this row in the full table.
        text = render_csv(self.columns, [row])
        self._handle.write(text.split("\n", 1)[1])
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "CsvRowStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class ExperimentResult:
    """The artifact table of one experiment run."""

    plan: ExperimentPlan
    rows: List[List[Any]]
    stats: Dict[str, Any]
    cache: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON artifact payload (also the ``POST /experiments`` body)."""
        return {
            "experiment": {
                "name": self.plan.name,
                "seed": self.plan.seed,
                "engine_version": ENGINE_VERSION,
                "content_hash": self.plan.content_hash(),
                "num_cells": len(self.plan.cells),
            },
            "columns": self.plan.columns,
            "rows": self.rows,
            "stats": self.stats,
            "cache": self.cache,
        }

    def persist(self, output_dir: str) -> Dict[str, str]:
        """Write ``table.json`` + ``table.csv`` under a hash-keyed directory.

        The directory is ``<output_dir>/<name>-<hash12>``; re-running the
        identical experiment overwrites the same artifacts in place (the
        table contents are deterministic, only the cache counters differ).
        Returns the artifact paths.
        """
        directory = self.plan.artifact_directory(output_dir)
        os.makedirs(directory, exist_ok=True)
        json_path = os.path.join(directory, "table.json")
        csv_path = os.path.join(directory, "table.csv")
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(render_json(self.to_dict()))
            handle.write("\n")
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(render_csv(self.plan.columns, self.rows))
        return {"directory": directory, "json": json_path, "csv": csv_path}
