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

Entries flagged ``known_discrepancy`` are reported but never fail a run;
a row that raises gets the ``error`` verdict and fails it.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources

from . import constructions as cons
from .bounds import antigriesmer
from .gf import FieldError
from .linear import CapExceeded, CodeError, LinearCode, WeightDistribution


class ManifestError(ValueError):
    pass


@dataclass
class CatalogEntry:
    id: str
    mode: str                     # construct_and_enumerate | transform_only
    expect: dict                  # q, n, k, d, weights, optional counts
    build: dict | None = None     # family, params, optional complement_at
    base: dict | None = None      # typed base distribution (transform_only)
    K: int | None = None
    source: str = ""
    note: str = ""
    known_discrepancy: bool = False


@dataclass
class EntryResult:
    id: str
    ok: bool
    known_discrepancy: bool
    mismatches: list = field(default_factory=list)
    note: str = ""
    error: bool = False           # the row raised; its message is a mismatch

    @property
    def verdict(self) -> str:
        if self.ok:
            return "pass"
        if self.error:
            return "error"
        return "known-discrepancy" if self.known_discrepancy else "FAIL"


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


def check_build(build) -> None:
    """ManifestError unless ``build`` names a known family and its params
    bind to that family's builder."""
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


def base_code(build: dict) -> LinearCode:
    """The pre-complement code of a build description."""
    check_build(build)
    return FAMILIES[build["family"]](**build.get("params", {}))


def _build_keys(build: dict) -> tuple:
    """Memo keys of a build description: one for its (family, params),
    then one for its complement if it has one."""
    key = json.dumps([build["family"], build.get("params", {})],
                     sort_keys=True)
    K = build.get("complement_at")
    return (key,) if K is None else (key, (key, json.dumps(K)))


def _built(build: dict, builds: dict):
    """(base code, code) of a build description, each made once per
    ``builds`` dict."""
    keys = _build_keys(build)
    if keys[0] not in builds:
        builds[keys[0]] = base_code(build)
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


def _compare(result: EntryResult, name: str, got, want):
    if want is not None and got != want:
        result.ok = False
        result.mismatches.append(f"{name}: got {got}, expected {want}")


def verify_entry(entry: CatalogEntry,
                 builds: dict | None = None) -> EntryResult:
    """Check one row. ``builds`` lets the rows of one catalog pass share
    the codes they build (and their cached distributions); every row still
    runs all of its own checks. A CodeError, FieldError or CapExceeded
    ends the row with the ``error`` verdict and the exception's message."""
    result = EntryResult(entry.id, ok=True,
                         known_discrepancy=entry.known_discrepancy,
                         note=entry.note)
    try:
        _check_entry(entry, result, {} if builds is None else builds)
    except (CodeError, FieldError, CapExceeded) as exc:
        result.ok, result.error = False, True
        result.mismatches.append(str(exc))
    return result


def _check_entry(entry: CatalogEntry, result: EntryResult, builds: dict):
    """Run the row's checks, recording each mismatch in ``result``."""
    exp = entry.expect
    if entry.mode == "construct_and_enumerate":
        base, code = _built(entry.build, builds)
        wd = code.weight_distribution()
    elif entry.mode == "transform_only":
        wd = cons.transform_wd(_typed_wd(entry.base), entry.K)
    else:
        raise ManifestError(f"unknown mode {entry.mode!r} in {entry.id}")
    for name, got in [("q", wd.q), ("n", wd.n), ("k", wd.k),
                      ("d", wd.min_weight), ("weights", wd.nonzero_weights())]:
        _compare(result, name, got, exp.get(name))
    if "counts" in exp:
        want = {int(w): c for w, c in exp["counts"].items()}
        _compare(result, "counts", dict(wd.counts), {0: 1, **want})
    if entry.mode == "transform_only":
        return
    if "antigriesmer_defect" in exp:
        _, defect, _ = antigriesmer(wd.q, wd.k, wd.max_weight, wd.n)
        _compare(result, "antigriesmer_defect", defect,
                 exp["antigriesmer_defect"])
    K = entry.build.get("complement_at")
    if K is not None:
        predicted = cons.transform_wd(base.weight_distribution(), K)
        _compare(result, "transform-vs-enumeration",
                 dict(wd.counts), dict(predicted.counts))


_KEYS = {f.name for f in fields(CatalogEntry)}
_REQUIRED = {f.name for f in fields(CatalogEntry) if f.default is MISSING}
_MODES = ("construct_and_enumerate", "transform_only")


def _entry(item) -> CatalogEntry:
    """One manifest row, checked: its keys, its mode, and for a built row
    its build (``check_build``)."""
    if not isinstance(item, dict):
        raise ManifestError(f"manifest entry {item!r} is not an object")
    where = f"manifest entry {item.get('id')!r}"
    unknown, missing = sorted(set(item) - _KEYS), sorted(_REQUIRED - set(item))
    if unknown:
        raise ManifestError(f"{where}: unknown keys {unknown}")
    if missing:
        raise ManifestError(f"{where}: missing keys {missing}")
    entry = CatalogEntry(**item)
    if entry.mode not in _MODES:
        raise ManifestError(f"{where}: unknown mode {entry.mode!r}")
    if entry.mode == "construct_and_enumerate":
        try:
            check_build(entry.build)
        except ManifestError as exc:
            raise ManifestError(f"{where}: {exc}") from None
    return entry


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
        if entry.id in seen:
            raise ManifestError(f"duplicate entry id {entry.id!r}")
        seen.add(entry.id)
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
        if entry.mode == "construct_and_enumerate":
            last_row.update(dict.fromkeys(_build_keys(entry.build), i))
    builds, results = {}, []
    for i, entry in enumerate(entries):
        results.append(verify_entry(entry, builds))
        for key in [key for key in builds if last_row[key] == i]:
            del builds[key]
    verdicts = [r.verdict for r in results]
    summary = {
        "total": len(results),
        "passed": verdicts.count("pass"),
        "failed": verdicts.count("FAIL") + verdicts.count("error"),
        "known_discrepancy": verdicts.count("known-discrepancy"),
    }
    return results, summary
