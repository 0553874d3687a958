"""Single-document JSON serialization for codes.

Files are self-describing: the field modulus is stored explicitly, all
values are integers, and the generator round-trips losslessly. A cached
weight distribution may be embedded; it is checked against the first walk
that counts weights, and a mismatch is a ``CodeError``.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .gf import GF, Matrix
from .linear import CodeError, LinearCode, WeightDistribution

FORMAT_NAME = "linear-code"
_KEYS = {"format", "field", "n", "k", "label", "generator",
         "weight_distribution"}
_FIELD_KEYS = {"p", "e", "modulus"}


def code_to_dict(code: LinearCode, with_distribution: bool = False) -> dict:
    doc = {
        "format": FORMAT_NAME,
        "field": {
            "p": code.field.p,
            "e": code.field.e,
            "modulus": list(code.field.modulus),
        },
        "n": code.n,
        "k": code.k,
        "label": code.label,
        "generator": [list(row) for row in code.generator.rows],
    }
    if with_distribution:
        doc["weight_distribution"] = code.weight_distribution().to_dict()
    return doc


def _typed(doc: dict, key: str, kind: type, where: str):
    """doc[key], checked to be a ``kind`` (a bool never counts as an int)."""
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise CodeError(f"{where} needs {kind.__name__} {key!r}, got {value!r}")
    return value


def _unknown_keys(doc: dict, known: set, where: str):
    unknown = sorted(set(doc) - known, key=str)
    if unknown:
        raise CodeError(f"{where} has unknown keys {unknown}")


@lru_cache(maxsize=16)      # a field holds O(q) tables, ~MBs at q = 2^16
def _shared_field(p: int, e: int, modulus: tuple) -> GF:
    return GF(p, e, modulus=list(modulus))


def _field(fld: dict) -> GF:
    """The field of a code file, shared by every load with the same p, e
    and modulus. A coefficient that is not a plain int goes straight to GF
    to be rejected: True == 1, so a cache lookup would find a field."""
    p, e = _typed(fld, "p", int, "field"), _typed(fld, "e", int, "field")
    modulus = _typed(fld, "modulus", list, "field")
    if all(type(c) is int for c in modulus):
        return _shared_field(p, e, tuple(modulus))
    return GF(p, e, modulus=modulus)


def code_from_dict(doc: dict) -> LinearCode:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CodeError(f"not a {FORMAT_NAME} document")
    _unknown_keys(doc, _KEYS, "code file")
    fld = _typed(doc, "field", dict, "code file")
    _unknown_keys(fld, _FIELD_KEYS, "field")
    field = _field(fld)
    rows = _typed(doc, "generator", list, "code file")
    if not all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows):
        raise CodeError("generator must be a list of equal-length rows")
    n, k = _typed(doc, "n", int, "code file"), _typed(doc, "k", int, "code file")
    label = _typed(doc, "label", str, "code file") if "label" in doc else ""
    code = LinearCode(field, Matrix(field, rows), label=label)
    if code.n != n or code.k != k:
        raise CodeError(
            f"declared [{n},{k}] but generator is [{code.n},{code.k}]")
    cached = doc.get("weight_distribution")
    if cached is not None:
        # a key longer than n's is no weight, and int() may refuse it
        width = len(str(code.n))
        if not isinstance(cached, dict) or not all(
                isinstance(w, str) and w.isascii() and w.isdigit()
                and len(w) <= width and type(c) is int
                for w, c in cached.items()):
            raise CodeError("weight_distribution must map weights to counts")
        # a claim: the first walk that counts weights checks it
        code._claim = WeightDistribution(
            field.q, code.n, code.k, {int(w): c for w, c in cached.items()})
    return code


def save_code(code: LinearCode, path, with_distribution: bool = True):
    with open(path, "w") as fh:
        json.dump(code_to_dict(code, with_distribution), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def load_code(path) -> LinearCode:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, too long an integer
            raise CodeError(f"{path}: not a JSON document: {exc}") from exc
    return code_from_dict(doc)
