"""Structured-text (JSON) reading and writing of the value types.

Two kinds of document share one schema family, tagged by ``kind``:

``circle-diffeo``
    ``{"schema_version": 1, "kind": "circle-diffeo", "shift": s,
    "cos": [a1, ...], "sin": [b1, ...]}`` for the lift
    ``theta + s + sum a_n cos(n theta) + b_n sin(n theta)``.

``orbit-point``
    A quadratic differential stored losslessly through the discrete Fourier
    coefficients of its sample grid (``const``/``cos``/``sin``/``nyquist``
    plus the even ``grid`` size) together with the central ``charge``.

Numbers are written as plain JSON floats, which round-trip float64 exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any, TextIO

import numpy as np

from .circle import CircleDiffeo
from .numerics import PeriodicSamples, TrigSeries, split_spectrum
from .orbits import OrbitPoint
from .schwarzian import QuadraticDifferential

SCHEMA_VERSION = 1

# JSON spellings of the float ``repr``s that are not JSON numbers.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Separators of the items of a top-level list of an ``indent=2`` document
# (depth 2) and of the items of a list inside it (depth 3).
_ITEM_SEP = ",\n    "
_CELL_SEP = ",\n      "


class SerializationError(ValueError):
    """Malformed or unsupported document content."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SerializationError(message)


def _finite_floats(values: list, key: str, what: str) -> np.ndarray:
    # JSON numbers load as int or float (bool is an int subclass, not a
    # number here); an integer too large for a float is not finite.
    _require(set(map(type, values)) <= {int, float}, f"field {key!r} must be {what}")
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:
        arr = np.array([math.inf])
    _require(bool(np.isfinite(arr).all()), f"field {key!r} must be finite")
    return arr


def _finite_scalar(doc: dict, key: str) -> float:
    _require(key in doc, f"missing field {key!r}")
    return float(_finite_floats([doc[key]], key, "a number")[0])


def _finite_array(doc: dict, key: str) -> np.ndarray:
    _require(key in doc, f"missing field {key!r}")
    value = doc[key]
    _require(isinstance(value, list), f"field {key!r} must be an array")
    return _finite_floats(value, key, "an array of numbers")


def _check_header(doc: Any, kind: str) -> dict:
    _require(isinstance(doc, dict), "document must be a JSON object")
    _require("schema_version" in doc, "missing field 'schema_version'")
    version = doc["schema_version"]
    _require(version == SCHEMA_VERSION and not isinstance(version, bool),
             f"unsupported schema_version {version!r}")
    _require(doc.get("kind") == kind,
             f"expected kind {kind!r}, got {doc.get('kind')!r}")
    return doc


# -- document <-> object ------------------------------------------------------


def _series_to_doc(kind: str, key: str, series) -> dict:
    """The document of a finite Fourier series (a ``TrigSeries``), its
    constant under ``key``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        key: float(series.const),
        "cos": [float(v) for v in series.cos],
        "sin": [float(v) for v in series.sin],
    }


def _series_from_doc(doc: Any, kind: str, key: str) -> tuple:
    """The constant (under ``key``), ``cos`` and ``sin`` of a document of
    ``kind``, checked in that order after the header."""
    doc = _check_header(doc, kind)
    return _finite_scalar(doc, key), _finite_array(doc, "cos"), _finite_array(doc, "sin")


def diffeo_to_doc(d: CircleDiffeo) -> dict:
    return _series_to_doc("circle-diffeo", "shift", d.series)


def diffeo_from_doc(doc: Any) -> CircleDiffeo:
    return CircleDiffeo(*_series_from_doc(doc, "circle-diffeo", "shift"))


def orbit_point_to_doc(p: OrbitPoint) -> dict:
    """The series document of the momentum's sample spectrum (modes below
    the Nyquist mode), plus ``charge``, ``grid`` and ``nyquist``."""
    const, cos, sin, nyquist = split_spectrum(p.q.samples.spectrum())
    doc = _series_to_doc("orbit-point", "const", TrigSeries(const, cos, sin))
    return {**doc, "charge": float(p.charge), "grid": p.q.samples.size, "nyquist": float(nyquist)}


def orbit_point_from_doc(doc: Any) -> OrbitPoint:
    const, cos, sin = _series_from_doc(doc, "orbit-point", "const")
    charge = _finite_scalar(doc, "charge")
    _require("grid" in doc, "missing field 'grid'")
    grid = doc["grid"]
    _require(isinstance(grid, int) and not isinstance(grid, bool),
             "field 'grid' must be an integer")
    _require(grid >= 8 and grid % 2 == 0, "field 'grid' must be even and >= 8")
    nyquist = _finite_scalar(doc, "nyquist")
    _require(cos.size == sin.size, "fields 'cos' and 'sin' must match in length")
    _require(cos.size == grid // 2 - 1,
             "coefficient count must be grid/2 - 1 to restore the sample grid")
    spectrum = np.empty(grid // 2 + 1, dtype=complex)
    spectrum[0] = const
    spectrum[1:-1] = 0.5 * (cos - 1j * sin)
    spectrum[-1] = nyquist
    values = np.fft.irfft(spectrum * grid)
    return OrbitPoint(QuadraticDifferential(PeriodicSamples(values)), charge)


# -- writing ------------------------------------------------------------------


def _float_texts(values, fmt: str = "json") -> list:
    """The texts of a list or array of floats, as ``json.dumps`` (``fmt``
    "json") or ``csv.writer`` (``fmt`` "csv") writes each one: its
    ``repr``, except that JSON spells the non-finite ones ``NaN``,
    ``Infinity`` and ``-Infinity``. One ``repr`` pass over the values."""
    arr = np.asarray(values, dtype=float)
    texts = list(map(repr, arr.tolist()))
    if fmt == "json" and not np.all(np.isfinite(arr)):
        texts = [_JSON_NONFINITE.get(s, s) for s in texts]
    return texts


def _json_rows(block: list) -> str:
    """A non-empty block of rows of cell texts laid out as ``indent=2``
    lays out the items of a top-level list of lists."""
    return "    [\n      " + "\n    ],\n    [\n      ".join(map(_CELL_SEP.join, block)) + "\n    ]"


def _write_json(doc: dict, fp: TextIO, lists: dict) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline,
    with the value of each key of ``lists`` the top-level list whose items
    ``lists[key]`` yields as chunks of text, each one or more items laid
    out and joined as ``indent=2`` does (``doc``'s own value there is not
    read). The chunks are written as they come, so a long list is never
    held whole; only the rest goes through the json module, whose encoder
    with ``indent`` set is its pure-Python one. The command line writes its
    tables through it too."""
    marks = {key: "\x00" + key for key in lists}
    rest = json.dumps({**doc, **marks}, indent=2, sort_keys=True)
    for key in sorted(lists):
        head, _, rest = rest.partition(json.dumps(marks[key]))
        fp.write(head)
        sep = "["
        for chunk in lists[key]:
            fp.write(sep + "\n" + chunk)
            sep = ","
        fp.write("[]" if sep == "[" else "\n  ]")
    fp.write(rest + "\n")


def dump_document(doc: dict, fp: TextIO) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline,
    its non-empty top-level lists of floats (the coefficients) laid out by
    ``_write_json`` from ``_float_texts``."""
    lists = {
        key: ["    " + _ITEM_SEP.join(_float_texts(value))]
        for key, value in doc.items()
        if isinstance(value, list) and value and set(map(type, value)) == {float}
    }
    _write_json(doc, fp, lists)


# -- file helpers -------------------------------------------------------------


def load_document(fp: TextIO) -> Any:
    try:
        return json.load(fp)
    except ValueError as exc:  # also integers past the digit limit of int()
        raise SerializationError(f"invalid JSON: {exc}") from None


def load_diffeo(path: str) -> CircleDiffeo:
    with open(path, "r", encoding="utf-8") as fp:
        return diffeo_from_doc(load_document(fp))
