"""Matrix file format and deterministic report serialisation.

One input format: a JSON object with a field code, optional field
parameters, and a square array of scalar strings.

    {"field": "q",   "rows": [["1", "0"], ["1", "1"]]}
    {"field": "qi",  "rows": [["3/5+4/5i"]]}
    {"field": "gf",  "p": 3, "k": 2, "rows": [["x+1", "0"], ["0", "2"]]}
    {"field": "c64", "tol": 1e-9, "rows": [["1.25-0.5i"]]}

Reports are JSON with sorted keys and no timestamps, so identical inputs
and parameters produce byte-identical output.  The printed text is exactly
`json.dumps(body, sort_keys=True, indent=2, ensure_ascii=True)` followed by
"\n"; report_hash is the sha256 of the compact canonical form
(`canonical_json`, the hash field itself excluded), not of the printed text.
json writes an indented document only through its pure-Python encoder,
which costs a command more than the compact C pass does, so the indented
text comes from `_pretty` instead: the same bytes, with strings escaped by
json's C `encode_basestring_ascii`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .errors import NoStockModulus, NotPrime, OrbitrefError, ParseError
from .fields import (
    DEFAULT_TOL,
    KIND_COMPLEX,
    KIND_FINITE,
    KIND_GAUSSIAN,
    KIND_RATIONALS,
    QI,
    QQ,
    ComplexFloats,
    Field,
    FiniteField,
    parse_gf_modulus,
)
from .linalg import Matrix, embed_matrix

FIELD_CODES = (KIND_RATIONALS, KIND_GAUSSIAN, KIND_FINITE, KIND_COMPLEX)


@dataclass(frozen=True)
class MatrixFile:
    field: Field
    matrix: Matrix
    raw: dict

    @property
    def sha256(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def _complex_field(tol: Optional[float]) -> ComplexFloats:
    try:
        return ComplexFloats(tol if tol is not None else DEFAULT_TOL)
    except ValueError as exc:  # tol outside (0, 1), NaN included
        raise ParseError(str(exc)) from exc


def _build_field(code: str, p: Optional[int], k: Optional[int],
                 tol: Optional[float], modulus: Optional[str]) -> Field:
    if code == KIND_RATIONALS:
        return QQ
    if code == KIND_GAUSSIAN:
        return QI
    if code == KIND_COMPLEX:
        return _complex_field(tol)
    if code == KIND_FINITE:
        if p is None:
            raise ParseError("finite-field input needs p")
        kk = k if k is not None else 1
        # JSON true and false are ints to Python
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (p, kk)):
            raise ParseError(f"p and k must be integers, not {p!r} and {kk!r}")
        if not isinstance(modulus, (str, type(None))):
            raise ParseError(f"modulus must be a polynomial string, not {modulus!r}")
        mod = parse_gf_modulus(p, modulus) if modulus else None
        try:
            return FiniteField(p, kk, mod)
        except NoStockModulus as exc:
            raise ParseError(f"no stock irreducible polynomial for GF({p}^{kk}); "
                             'give one in the file\'s "modulus" key') from exc
        except (NotPrime, ValueError) as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field code {code!r}; use one of {FIELD_CODES}")


def load_matrix_data(data: dict) -> MatrixFile:
    if not isinstance(data, dict):
        raise ParseError("matrix file must be a JSON object")
    code = data.get("field")
    if code not in FIELD_CODES:
        raise ParseError(f"missing or unknown field code {code!r}")
    rows = data.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix file needs a nonempty rows array")
    n = len(rows)
    for r in rows:
        if not isinstance(r, list) or len(r) != n:
            raise ParseError("rows must form a square array")
        if any(isinstance(v, bool) for v in r):
            raise ParseError("matrix entries may not be true or false")
    tol = data.get("tol")
    if tol is not None:
        try:
            tol = float(tol)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad tol {tol!r}") from exc
        if not 0 < tol < 1:  # NaN included
            raise ParseError("tol must lie strictly between 0 and 1")
    field = _build_field(code, data.get("p"), data.get("k"), tol,
                         data.get("modulus"))
    try:
        matrix = Matrix.from_values(field, rows)
    except OrbitrefError as exc:
        raise ParseError(f"bad matrix entries: {exc}") from exc
    except TypeError as exc:
        raise ParseError(f"bad matrix entries: {exc}") from exc
    echo = {**field.describe(), "rows": [[str(v) for v in r] for r in rows]}
    return MatrixFile(field=field, matrix=matrix, raw=echo)


def load_matrix_file(path: str) -> MatrixFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return load_matrix_data(data)


def escalate_field(mf: MatrixFile, target_code: str,
                   tol: Optional[float] = None) -> MatrixFile:
    """Reinterpret a loaded matrix over a wider field (q -> qi -> c64)."""
    if target_code == mf.field.kind:
        return mf
    if target_code not in mf.field.wider:
        raise ParseError(
            f"cannot reinterpret a {mf.field.kind} matrix as {target_code}")
    field = _build_field(target_code, None, None, tol, None)
    matrix = embed_matrix(mf.matrix, field)
    return MatrixFile(field=field, matrix=matrix, raw={**mf.raw, **field.describe()})


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def render_report(report: dict) -> str:
    """Canonical pretty JSON with the self-excluding report hash filled in."""
    body = dict(report)
    body.pop("report_hash", None)
    body["report_hash"] = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    return _pretty(body, "") + "\n"


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the text of each JSON leaf, keyed by exact type
_LEAVES = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _pretty(value, pad: str) -> str:
    """`value` as json.dumps(sort_keys=True, indent=2, ensure_ascii=True)
    writes it nested at indent `pad`.  Types outside `_LEAVES` take json's
    own rules: subclasses of str, int and float render as their base type,
    any list or tuple as an array, any dict as an object; anything else
    raises TypeError, as json does."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = pad + "  "
    parts = []
    if isinstance(value, dict):
        if not value:
            return "{}"
        for k, v in sorted(value.items()):
            leaf = _LEAVES.get(type(v))
            parts.append((_quote(k) if type(k) is str else _key(k)) + ": "
                         + (leaf(v) if leaf is not None else _pretty(v, inner)))
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        for v in value:
            leaf = _LEAVES.get(type(v))
            parts.append(leaf(v) if leaf is not None else _pretty(v, inner))
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    for base in (str, int, float):
        if isinstance(value, base):
            return _LEAVES[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    """json's text for a dict key that is not exactly a str: a str subclass
    as itself, a number, bool or None as its JSON text in quotes."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(_pretty(key, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")
