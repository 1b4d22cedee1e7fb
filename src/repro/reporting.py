"""Plain-text and JSON rendering of experiment tables and results.

The library has no plotting dependency by design (the paper has no figures
to redraw); instead every experiment is reported as an aligned plain-text
table that benches print and EXPERIMENTS.md embeds.

The service layer (:mod:`repro.service`) and the CLI ``--json`` flags share
the JSON path: :func:`to_jsonable` converts any result payload into strict
JSON (``inf``/``nan`` become the strings ``"inf"``/``"-inf"``/``"nan"``,
numpy scalars become plain Python numbers) and :func:`decode_float` parses
those strings back, so cached payloads round-trip losslessly even when
they contain infinite quantiles.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json
import math
from typing import Any, Iterable, List, Sequence

import numpy as np

__all__ = [
    "format_value",
    "render_table",
    "render_experiment",
    "to_jsonable",
    "encode_float",
    "decode_float",
    "render_json",
    "render_csv",
]


def format_value(value: object, precision: int = 4) -> str:
    """Render a single cell: floats rounded, infinities spelled out.

    NumPy scalars are unwrapped first, so ``np.float64(inf)`` renders as
    ``"inf"``, ``np.int64(42)`` as ``"42"`` and ``np.bool_(True)`` as
    ``"yes"`` — identical to their plain Python counterparts.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.{precision}f}"
    return str(value)


def encode_float(value: float) -> object:
    """Encode one float for strict JSON: finite values pass through unchanged,
    non-finite ones become the strings ``"inf"``, ``"-inf"`` or ``"nan"``."""
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return value

_FLOAT_STRINGS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def decode_float(value: object) -> float:
    """Inverse of :func:`encode_float`: accept a number or an inf/nan string."""
    if isinstance(value, str):
        try:
            return _FLOAT_STRINGS[value]
        except KeyError:
            raise ValueError(f"not an encoded float: {value!r}") from None
    return float(value)  # type: ignore[arg-type]


def to_jsonable(value: Any) -> Any:
    """Convert an arbitrary result payload into strict-JSON-safe data.

    Handles nested dicts/lists/tuples, dataclasses, enums, numpy scalars and
    arrays; floats go through :func:`encode_float` so the output serialises
    with ``json.dumps(..., allow_nan=False)``.  Finite numbers are preserved
    exactly (no rounding), which is what lets cached payloads stay
    bit-identical to freshly computed ones.
    """
    # Fast path for the exact built-in types a payload is mostly made of;
    # subclasses (IntEnum, OrderedDict, ...) take the general path below.
    kind = type(value)
    if kind is dict:
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if kind is float:
        return value if math.isfinite(value) else encode_float(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is list or kind is tuple:
        return [to_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return encode_float(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        to_dict = getattr(value, "to_dict", None)
        if callable(to_dict):
            return to_jsonable(to_dict())
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    return str(value)


def render_json(payload: Any, indent: int = 2) -> str:
    """Render a payload as deterministic strict JSON (sorted keys, inf-safe)."""
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=indent, allow_nan=False)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 4,
) -> str:
    """Render an aligned plain-text table with a header separator line."""
    text_rows: List[List[str]] = [
        [format_value(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    output = [line(list(headers)), line(["-" * width for width in widths])]
    output.extend(line(row) for row in text_rows)
    return "\n".join(output)


def _csv_cell(value: object) -> str:
    """One CSV cell: full-precision floats, ``inf``/``nan`` spelled out.

    Unlike :func:`format_value` nothing is rounded — ``repr`` round-trips
    every finite float exactly, so a CSV artifact carries the same numbers
    as the JSON one.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def render_csv(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a table as RFC-4180 CSV text (header line + one line per row)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return buffer.getvalue()


def render_experiment(table, precision: int = 4) -> str:
    """Render an :class:`~repro.analysis.tables.ExperimentTable` with its title."""
    header = f"[{table.experiment_id}] {table.title}"
    body = render_table(table.headers, table.rows, precision)
    return f"{header}\n{body}"
