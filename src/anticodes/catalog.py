"""Regression catalog: a bundled manifest of expected code parameters and
weight distributions, each entry rebuilt (or transformed) and compared
against the recorded values by exact integer equality.

Two verification modes:
  construct_and_enumerate - build the code, enumerate, compare; when the
      entry is a complement, additionally check that the distribution
      transform of the base code reproduces the enumerated distribution.
  transform_only - the base code comes from an external construction that
      is out of scope; its typed weight distribution is transformed and
      compared against the recorded complement distribution.

A row is the dict the manifest holds, checked once when it is loaded; its
result is the dict ``catalog verify`` prints. Entries flagged
``known_discrepancy`` are reported but never fail a run; a row that raises
gets the ``error`` verdict and fails it.
"""

from __future__ import annotations

import inspect
import json
from importlib import resources

from . import constructions as cons
from .bounds import antigriesmer
from .gf import FieldError
from .linear import (CapExceeded, CodeError, LinearCode, WeightDistribution,
                     decimal_limit)


class ManifestError(ValueError):
    pass


# ----------------------------------------------------------------------
# construction dispatch
# ----------------------------------------------------------------------

# The lambdas look each builder up when they are called, so a rebinding of
# a ``constructions`` function (perfbench's tracing) or of ``FAMILIES`` (the
# tests) reaches every build, the CLI's included.
FAMILIES = {
    "simplex": lambda q, k: cons.simplex(q, k),
    "rs": lambda q, k: cons.rs_code(q, k),
    "comp-rs": lambda q, k, h=0: cons.complementary_rs(q, k, h),
    "comp-mds": lambda q, k, h=0: cons.complementary_mds_trivial(q, k, h),
    "fixed-weight": lambda k, w: cons.fixed_weight_anticode(k, w),
    "two-subspace": lambda q: cons.two_subspace_code(q),
    "ovoid": lambda q: cons.ovoid_code(q),
    "dual-bch": lambda m: cons.dual_bch_code(m),
    "kasami": lambda m: cons.kasami_code(m),
    "concat-ovoid": lambda s: cons.concatenate_with_simplex(
        cons.ovoid_code(2 ** s)),
    "concat-two-subspace": lambda s: cons.concatenate_with_simplex(
        cons.two_subspace_code(2 ** s)),
}

# each family's parameters, read once from its builder; every build's
# params must bind to them
SIGNATURES = {family: inspect.signature(builder)
              for family, builder in FAMILIES.items()}

# every parameter name of every family, in the order first declared
PARAMS = list(dict.fromkeys(
    name for signature in SIGNATURES.values()
    for name in signature.parameters))

_BUILD_KEYS = {"family", "params", "complement_at"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_build(build) -> None:
    """ManifestError unless ``build`` names a known family, its params are
    integers that bind to that family's builder, and its complement_at
    (when present) is an integer."""
    if not isinstance(build, dict):
        raise ManifestError("build must be an object")
    if set(build) - _BUILD_KEYS:
        raise ManifestError(
            f"unknown build keys {sorted(set(build) - _BUILD_KEYS)}")
    family, params = build.get("family"), build.get("params", {})
    if family not in FAMILIES:
        raise ManifestError(f"unknown family {family!r}")
    if not isinstance(params, dict):
        raise ManifestError("params must be an object")
    try:
        SIGNATURES[family].bind(**params)
    except TypeError as exc:
        raise ManifestError(f"bad params for {family}: {exc}") from None
    if not all(_is_int(value) for value in params.values()):
        raise ManifestError(f"params for {family} must be integers")
    if "complement_at" in build and not _is_int(build["complement_at"]):
        raise ManifestError("complement_at must be an integer")


def _build_keys(build: dict) -> tuple:
    """Memo keys of a build description: one for its (family, params),
    then one for its complement if it has one."""
    key = json.dumps([build["family"], build.get("params", {})],
                     sort_keys=True)
    K = build.get("complement_at")
    return (key,) if K is None else (key, (key, json.dumps(K)))


def _built(build: dict, builds: dict):
    """(base code, code) of a checked build description, each made once
    per ``builds`` dict."""
    keys = _build_keys(build)
    if keys[0] not in builds:
        builds[keys[0]] = FAMILIES[build["family"]](**build.get("params", {}))
    if keys[-1] not in builds:
        builds[keys[-1]] = cons.complement(builds[keys[0]],
                                           K=build["complement_at"])
    return builds[keys[0]], builds[keys[-1]]


def build_code(build: dict) -> LinearCode:
    """Construct the code described by a manifest build entry."""
    check_build(build)
    return _built(build, {})[1]


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def _typed_wd(d: dict) -> WeightDistribution:
    counts = {int(w): c for w, c in d["counts"].items()}
    counts.setdefault(0, 1)
    return WeightDistribution(d["q"], d["n"], d["k"], counts)


def verify_entry(entry: dict, builds: dict | None = None) -> dict:
    """Check one row: its ``id``, ``verdict``, ``mismatches`` and ``note``.
    ``builds`` lets the rows of one catalog pass share the codes they
    build (and their cached distributions); every row still runs all of
    its own checks. A CodeError, FieldError or CapExceeded ends the row
    with the ``error`` verdict and the exception's message."""
    try:
        mismatches = _mismatches(entry, {} if builds is None else builds)
    except (CodeError, FieldError, CapExceeded) as exc:
        mismatches, verdict = [str(exc)], "error"
    else:
        verdict = ("pass" if not mismatches else "known-discrepancy"
                   if entry.get("known_discrepancy") else "FAIL")
    return {"id": entry["id"], "verdict": verdict, "mismatches": mismatches,
            "note": entry.get("note", "")}


def _mismatches(entry: dict, builds: dict) -> list:
    """Run the row's checks: one line for each that does not hold."""
    exp = entry["expect"]
    built = entry["mode"] == "construct_and_enumerate"
    if built:
        base, code = _built(entry["build"], builds)
        wd = code.weight_distribution()
    else:
        wd = cons.transform_wd(_typed_wd(entry["base"]), entry["K"])
    checks = [(name, got, exp.get(name)) for name, got in [
        ("q", wd.q), ("n", wd.n), ("k", wd.k), ("d", wd.min_weight),
        ("weights", wd.nonzero_weights())]]
    if "counts" in exp:
        want = {int(w): c for w, c in exp["counts"].items()}
        checks.append(("counts", dict(wd.counts), {0: 1, **want}))
    if built and "antigriesmer_defect" in exp:
        _, defect, _ = antigriesmer(wd.q, wd.k, wd.max_weight, wd.n)
        checks.append(("antigriesmer_defect", defect,
                       exp["antigriesmer_defect"]))
    if built and "complement_at" in entry["build"]:
        K = entry["build"]["complement_at"]
        predicted = cons.transform_wd(base.weight_distribution(), K)
        checks.append(("transform-vs-enumeration",
                       dict(wd.counts), dict(predicted.counts)))
    return [f"{name}: got {got}, expected {want}"
            for name, got, want in checks if want is not None and got != want]


_REQUIRED = {"id", "mode", "expect"}
_KEYS = {"id", "mode", "expect", "build", "base", "K", "source", "note",
         "known_discrepancy"}
_MODES = ("construct_and_enumerate", "transform_only")


def _check_counts(counts, name: str):
    """ManifestError unless counts maps weights, written in at most
    ``decimal_limit()`` ASCII digits so that ``int`` reads them, to ints."""
    limit = decimal_limit()
    if not isinstance(counts, dict) or not all(
            isinstance(w, str) and w.isascii() and w.isdigit()
            and len(w) <= limit and _is_int(c)
            for w, c in counts.items()):
        raise ManifestError(f"{name} must map weights written in at most "
                            f"{limit} digits to integers")


def _check_row(row: dict):
    """ManifestError unless the row has the keys, the mode and the field
    types its checks read; a built row's build is ``check_build``'s."""
    unknown, missing = sorted(set(row) - _KEYS), sorted(_REQUIRED - set(row))
    if unknown:
        raise ManifestError(f"unknown keys {unknown}")
    if missing:
        raise ManifestError(f"missing keys {missing}")
    if not isinstance(row["id"], str):
        raise ManifestError("id must be a string")
    if row["mode"] not in _MODES:
        raise ManifestError(f"unknown mode {row['mode']!r}")
    if not isinstance(row["expect"], dict):
        raise ManifestError("expect must be an object")
    if not isinstance(row.get("known_discrepancy", False), bool):
        raise ManifestError("known_discrepancy must be true or false")
    if "counts" in row["expect"]:
        _check_counts(row["expect"]["counts"], "expect.counts")
    if row["mode"] == "construct_and_enumerate":
        check_build(row.get("build"))
        return
    if not _is_int(row.get("K")):
        raise ManifestError("K must be an integer")
    base = row.get("base")
    if not isinstance(base, dict) or not all(_is_int(base.get(key))
                                             for key in ("q", "n", "k")):
        raise ManifestError("base must be an object with integer q, n and k")
    _check_counts(base.get("counts"), "base.counts")


def _entry(item) -> dict:
    """One manifest row, checked (``_check_row``)."""
    if not isinstance(item, dict):
        raise ManifestError(f"manifest entry {item!r} is not an object")
    try:
        _check_row(item)
    except ManifestError as exc:
        raise ManifestError(
            f"manifest entry {item.get('id')!r}: {exc}") from None
    return item


def load_manifest(path=None) -> list:
    """Entries of the bundled manifest, or of an explicit JSON file."""
    try:
        if path is None:
            text = resources.files("anticodes.data").joinpath(
                "manifest.json").read_text()
        else:
            with open(path) as fh:
                text = fh.read()
        raw = json.loads(text)
    except ValueError as exc:  # bad JSON, bad UTF-8, too long an integer
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
        raise ManifestError("manifest needs a list of 'entries'")
    entries = []
    seen = set()
    for item in raw["entries"]:
        entry = _entry(item)
        if entry["id"] in seen:
            raise ManifestError(f"duplicate entry id {entry['id']!r}")
        seen.add(entry["id"])
        entries.append(entry)
    return entries


def verify_catalog(entries=None):
    """(results, summary); summary['failed'] counts the rows that FAIL and
    the rows that raised an error. The rows run one after another."""
    if entries is None:
        entries = load_manifest()
    # each distinct build and complement is made once in this pass and
    # dropped after the last row that uses it, so no pass reuses another's
    last_row = {}
    for i, entry in enumerate(entries):
        if entry["mode"] == "construct_and_enumerate":
            last_row.update(dict.fromkeys(_build_keys(entry["build"]), i))
    builds, results = {}, []
    for i, entry in enumerate(entries):
        results.append(verify_entry(entry, builds))
        for key in [key for key in builds if last_row[key] == i]:
            del builds[key]
    verdicts = [r["verdict"] for r in results]
    summary = {
        "total": len(results),
        "passed": verdicts.count("pass"),
        "failed": verdicts.count("FAIL") + verdicts.count("error"),
        "known_discrepancy": verdicts.count("known-discrepancy"),
    }
    return results, summary
