"""Instance files: one JSON document describing a state, a Hamiltonian, and
optional named measurements and post-processing matrices.

Complex numbers are two-element arrays [re, im] (a bare number is accepted on
input and read as real); matrices are row-major nested arrays. Validation
errors carry the path of the offending field, e.g. ``state[1][0]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ErgokitError, NonFinite, ParseError, PreconditionFailed, ValidationError
from .linalg import unchecked
from .measurement import Povm, StochasticMatrix
from .states import DensityMatrix, Hamiltonian, is_integer, require_int


@dataclass(frozen=True, eq=False)
class Instance:
    dimension: int
    hamiltonian: Hamiltonian
    state: DensityMatrix
    measurements: dict
    post_processing: dict


def _matrix(node, path: str, dim: int | None = None) -> np.ndarray:
    """A dim x dim complex field (each cell a number or an [re, im] pair) or, if dim is None, a non-empty real
    rectangle. Passes run in order: rows, exact cell types (so no bool), float range, finiteness."""
    if dim is None:
        if not isinstance(node, list) or not node:
            raise ValidationError(f"{path}: expected a non-empty list of rows")
    elif not isinstance(node, list) or len(node) != dim:
        raise ValidationError(f"{path}: expected {dim} rows")
    for r, row in enumerate(node):
        if dim is not None and (not isinstance(row, list) or len(row) != dim):
            raise ValidationError(f"{path}[{r}]: expected {dim} entries")
        if not isinstance(row, list) or not row:
            raise ValidationError(f"{path}[{r}]: expected a non-empty row")
        if len(row) != len(node[0]):
            raise ValidationError(f"{path}[{r}]: expected {len(node[0])} entries, got {len(row)}")
    width, cells = len(node[0]), [v for row in node for v in row]
    num, k = (int, float), 1 if dim is None else 2  # k: parts per cell
    parts = cells if dim is None else [v if type(v) is list else (v, 0) for v in cells]
    bad = ([type(v) not in num for v in cells] if dim is None else
           [len(p) != 2 or type(p[0]) not in num or type(p[1]) not in num for p in parts])
    if any(bad):
        i = bad.index(True)
        got = "a boolean" if dim is not None and type(cells[i]) is bool else repr(cells[i])
        expected = "a real number" if dim is None else "a number or [re, im] pair"
        raise ValidationError(f"{path}[{i // width}][{i % width}]: expected {expected}, got {got}")
    try:
        values = np.array(parts, dtype=float)
    except OverflowError:  # a JSON integer past the float range: 2**1024 - 2**970 is the least that float() rejects
        flat = np.array(parts, dtype=object).ravel()
        i = next(j for j, v in enumerate(flat) if type(v) is int and abs(v) >= 2 ** 1024 - 2 ** 970) // k
        raise NonFinite(f"{path}[{i // width}][{i % width}]: integer too large for a float") from None
    if not np.isfinite(values).all():  # NaN, Infinity, or a literal such as 1e400 that json reads as inf
        j = np.flatnonzero(~np.isfinite(values))[0]
        i, value = j // k, values.flat[j].item()
        raise NonFinite(f"{path}[{i // width}][{i % width}]: expected a finite number, got {value!r}")
    # view(complex) keeps a -0.0 real part, which re + 1j * im would turn into 0.0
    return values.reshape(len(node), width) if dim is None else values.view(complex).reshape(dim, dim)


def _domain(path: str, build, parsed):
    """Run a domain constructor on parsed input, re-tagging its domain and eigensolver errors with the field path."""
    try:
        return build(parsed)
    except (ErgokitError, np.linalg.LinAlgError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _povm(node, path: str, dim: int) -> Povm:
    if not isinstance(node, list) or not node:
        raise ValidationError(f"{path}: expected a non-empty list of POVM elements")
    return _domain(path, Povm, tuple(_matrix(el, f"{path}[{k}]", dim) for k, el in enumerate(node)))


# The optional fields, each an object of named entries (null reads as absent), and the reader of one entry.
_SECTIONS = {"measurements": _povm,
             "post_processing": lambda node, path, dim: _domain(path, StochasticMatrix, _matrix(node, path))}


def instance_from_dict(doc, source: str = "instance") -> Instance:
    if not isinstance(doc, dict):
        raise ValidationError(f"{source}: top level must be a JSON object")
    if "dimension" not in doc:
        raise ValidationError("dimension: missing required field")
    dim = require_int(doc["dimension"], "dimension", 1)
    for key in ("hamiltonian", "state"):
        if key not in doc:
            raise ValidationError(f"{key}: missing required field")
    for key in doc:
        if key not in ("dimension", "hamiltonian", "state", *_SECTIONS):
            raise ValidationError(f"{key}: unknown field")

    hamiltonian = _domain("hamiltonian", Hamiltonian, _matrix(doc["hamiltonian"], "hamiltonian", dim))
    state = _domain("state", DensityMatrix, _matrix(doc["state"], "state", dim))
    sections = {}
    for key, read in _SECTIONS.items():
        section = {} if doc.get(key) is None else doc[key]
        if not isinstance(section, dict):
            raise ValidationError(f"{key}: expected an object mapping names to entries")
        sections[key] = {name: read(node, f"{key}.{name}", dim) for name, node in section.items()}
    return Instance(dim, hamiltonian, state, **sections)


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is an error, not a silent overwrite."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return dict(pairs)


def load_instance(path) -> Instance:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, past int's digit limit, too deep, or a repeated key
        raise ParseError(f"{path}: {exc}") from exc
    return instance_from_dict(doc, source=str(path))


def matrix_to_json(m: np.ndarray) -> list:
    """A complex matrix (or a stack of them) as nested lists ending in [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def povm_to_json(p: Povm) -> list:
    return matrix_to_json(p.elements)


# --- post-processing families for parameter sweeps ------------------------

# name -> n -> endpoints (F0, F1) of the path (1 - t) F0 + t F1: merge folds outcome 2 into 1, mix relabels uniformly
FAMILIES = {"merge": lambda n: (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])),
            "mix": lambda n: (np.eye(n), np.full((n, n), 1.0 / n))}


def family_matrices(name: str, grid: list, n_outcomes: int):
    """Check the name, the outcome count and every parameter in ``grid``, in that order, then return a generator of
    the family's matrix at each, built as it is read from ``float(t)`` (numpy 2 takes ``1 - t`` of a float32 in
    float32, whose columns miss 1 by ~2e-8): column-stochastic by construction, so not validated again."""
    if name not in FAMILIES:
        raise PreconditionFailed(f"unknown family {name!r} (expected one of: {', '.join(FAMILIES)})")
    f0, f1 = FAMILIES[name](require_int(n_outcomes, "outcome count", 1))
    if f0.shape[1] != n_outcomes:
        raise PreconditionFailed(f"family {name!r} needs a {f0.shape[1]}-outcome measurement, got {n_outcomes} outcomes")
    for param in grid:
        if not (isinstance(param, (float, np.floating)) or is_integer(param)) or not 0.0 <= param <= 1.0:
            raise PreconditionFailed(f"family {name!r} needs parameters in [0, 1], got {param!r}")
    return (unchecked(StochasticMatrix, entries=(1.0 - t) * f0 + t * f1) for t in map(float, grid))


def parse_grid(spec: str) -> list:
    """Grid: either 'start:stop:count' or a comma-separated list of values."""
    spec = spec.strip()
    if not spec:
        raise PreconditionFailed("empty grid specification")
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:count")
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
            if count < 1:
                raise ValueError("count must be at least 1")
            if not np.isfinite(stop - start):  # also NaN or infinite when start or stop is
                raise ValueError("start, stop and stop - start must be finite")
            return [float(v) for v in np.linspace(start, stop, count)]
        return [float(v) for v in spec.split(",")]
    except ValueError as exc:
        raise PreconditionFailed(f"cannot parse grid {spec!r}: {exc}") from exc


__all__ = [
    "FAMILIES",
    "Instance",
    "family_matrices",
    "instance_from_dict",
    "load_instance",
    "matrix_to_json",
    "parse_grid",
    "povm_to_json",
]
