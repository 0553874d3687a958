"""Single-document JSON serialization for codes, and the input schemas.

Files are self-describing: the field modulus is stored explicitly, all
values are integers, and the generator round-trips losslessly. A written
file embeds its weight distribution; a file read may hold one, which is
checked against the first walk that counts weights, and a mismatch is a
``CodeError``.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .gf import GF, Matrix
from .linear import CodeError, LinearCode, WeightDistribution, decimal_limit

FORMAT_NAME = "linear-code"

# A schema is a dict key -> (kind, required) that refuses any other key,
# or a pair (tag, {value: schema}) whose key ``tag`` picks the schema. A
# kind is a schema, a type (matched exactly: a bool is never an int) or
# one of the names below, each tested by its ``_KINDS`` entry.
INTS = "a list of integers"
ROWS = "a list of lists"            # whose entries ``Matrix`` checks
COUNTS = "a map of weights, in ASCII digits that int() reads, to integers"


def _is_counts(value) -> bool:
    limit = decimal_limit()
    return type(value) is dict and set(map(type, value.values())) <= {int} \
        and all(type(w) is str and w.isascii() and w.isdigit()
                and len(w) <= limit for w in value)


# a list's test scans its items' types at C speed
_KINDS = {
    INTS: lambda v: type(v) is list and set(map(type, v)) <= {int},
    ROWS: lambda v: type(v) is list and set(map(type, v)) <= {list},
    COUNTS: _is_counts,
}
_NAMES = {int: "an integer", str: "a string", bool: "true or false",
          list: "a list"}


def _check(value, schema, where, error=CodeError, path=""):
    """Raise ``error`` unless ``value`` fits ``schema``, in one line that
    names the offending key by its path under ``where``."""
    if type(value) is not dict:
        raise error(f"{where}{': ' + path[:-1] if path else ''} must be an "
                    "object")
    if type(schema) is tuple:
        tag, schemas = schema
        choice = value.get(tag)
        schema = schemas.get(choice) if type(choice) is str else None
        if schema is None:
            raise error(f"{where}: {path}{tag} must be one of "
                        f"{', '.join(schemas)}")
    for key, item in value.items():
        spec = schema.get(key)
        if spec is None:
            raise error(f"{where}: unknown key {path}{key}")
        kind = spec[0]
        if type(item) is kind:
            continue
        if type(kind) in (dict, tuple):
            _check(item, kind, where, error, f"{path}{key}.")
        elif type(kind) is type or not _KINDS[kind](item):
            raise error(f"{where}: {path}{key} must be "
                        f"{_NAMES.get(kind, kind)}")
    if len(value) < len(schema):
        for key, (_, required) in schema.items():
            if required and key not in value:
                raise error(f"{where}: {path}{key} is required")


_CODE = ("format", {FORMAT_NAME: {
    "format": (str, True),
    "field": ({"p": (int, True), "e": (int, True), "modulus": (list, True)},
              True),
    "n": (int, True),
    "k": (int, True),
    "label": (str, False),
    "generator": (ROWS, True),
    "weight_distribution": (COUNTS, False),
}})


def _read_json(path, error):
    """The JSON document in the file ``path``. Bad JSON or UTF-8, too long
    an integer or too deep a nesting is one ``error``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not a JSON document: {exc}") from None


def code_to_dict(code: LinearCode) -> dict:
    """The code file of ``code``, its weight distribution embedded."""
    return {
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
        "weight_distribution": code.weight_distribution().to_dict(),
    }


@lru_cache(maxsize=16)      # a field holds O(q) tables, ~MBs at q = 2^16
def _shared_field(p: int, e: int, modulus: tuple) -> GF:
    return GF(p, e, modulus=list(modulus))


def _field(fld: dict) -> GF:
    """The field of a checked code file, shared by every load with the same
    p, e and modulus. A coefficient that is not a plain int goes straight
    to GF to be rejected: True == 1, so a cache lookup would find a field."""
    p, e, modulus = fld["p"], fld["e"], fld["modulus"]
    if all(type(c) is int for c in modulus):
        return _shared_field(p, e, tuple(modulus))
    return GF(p, e, modulus=modulus)


def code_from_dict(doc: dict) -> LinearCode:
    _check(doc, _CODE, "code file")
    field = _field(doc["field"])
    code = LinearCode(field, Matrix(field, doc["generator"]),
                      label=doc.get("label", ""))
    if code.n != doc["n"] or code.k != doc["k"]:
        raise CodeError(f"declared [{doc['n']},{doc['k']}] but generator is "
                        f"[{code.n},{code.k}]")
    if "weight_distribution" in doc:
        # a claim: the first walk that counts weights checks it
        code._claim = WeightDistribution(field.q, code.n, code.k, {
            int(w): c for w, c in doc["weight_distribution"].items()})
    return code


# the byte of each code 0..9 -> its ASCII digit
_ASCII = bytes.maketrans(bytes(range(10)), b"0123456789")


def _write_json(value, fh, indent="\n"):
    """Write ``value`` to ``fh`` as ``json.dump(value, fh, indent=2,
    sort_keys=True)`` does, for dicts keyed by strings, lists and scalars,
    but each list of plain ints in one ``join`` (json's own encoder makes
    a Python call per item), of the list's digits when its ints are all
    0..9; no more than one such list is held as text."""
    inner = indent + "  "
    if type(value) is dict and value:
        fh.write("{")
        for i, key in enumerate(sorted(value)):
            fh.write(f"{',' if i else ''}{inner}{json.dumps(key)}: ")
            _write_json(value[key], fh, inner)
        fh.write(indent + "}")
    elif type(value) is list and value and set(map(type, value)) <= {int}:
        items = (bytearray(value).translate(_ASCII).decode()
                 if min(value) >= 0 and max(value) <= 9 else map(str, value))
        fh.write(f"[{inner}{(',' + inner).join(items)}{indent}]")
    elif type(value) is list and value:
        fh.write("[")
        for i, item in enumerate(value):
            fh.write("," + inner if i else inner)
            _write_json(item, fh, inner)
        fh.write(indent + "]")
    else:
        fh.write(json.dumps(value))


def save_code(code: LinearCode, path):
    with open(path, "w") as fh:
        _write_json(code_to_dict(code), fh)
        fh.write("\n")


def load_code(path) -> LinearCode:
    return code_from_dict(_read_json(path, CodeError))
