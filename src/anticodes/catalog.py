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

from . import constructions as cons
from .bounds import antigriesmer
from .codefile import COUNTS, INTS, _check, _read_json
from .gf import FieldError
from .linear import CapExceeded, CodeError, LinearCode, WeightDistribution


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
    # the outer GF(2^s) is checked against the size cap before 2^s is formed
    "concat-ovoid": lambda s: cons.concatenate_with_simplex(
        cons.ovoid_code(cons.field_make(2, s).q)),
    "concat-two-subspace": lambda s: cons.concatenate_with_simplex(
        cons.two_subspace_code(cons.field_make(2, s).q)),
}


def _parameters(builder) -> dict:
    """{name: required} of a builder's parameters in order, read from its
    code object: the last len(__defaults__) of them have defaults."""
    code = builder.__code__
    names = code.co_varnames[:code.co_argcount]
    required = len(names) - len(builder.__defaults__ or ())
    return {name: i < required for i, name in enumerate(names)}


# each family's parameters, read once from its builder; every build's
# params must bind to them
SIGNATURES = {family: _parameters(builder)
              for family, builder in FAMILIES.items()}

# every parameter name of every family, in the order first declared
PARAMS = list(dict.fromkeys(
    name for parameters in SIGNATURES.values() for name in parameters))

# each family's build: its params are integers named by its builder's
# parameters, required where the builder has no default
_BUILD = ("family", {family: {
    "family": (str, True),
    "params": ({name: (int, required)
                for name, required in parameters.items()}, True),
    "complement_at": (int, False),
} for family, parameters in SIGNATURES.items()})


def check_build(build) -> None:
    """ManifestError unless ``build`` fits ``_BUILD``."""
    _check(build, _BUILD, "build", ManifestError)


def _build_keys(build: dict) -> tuple:
    """Memo keys of a build description: one for its (family, params),
    then one for its complement if it has one."""
    key = build["family"], tuple(sorted(build["params"].items()))
    K = build.get("complement_at")
    return (key,) if K is None else (key, (key, K))


def _built(build: dict, builds: dict):
    """(base code, code) of a checked build description, each made once
    per ``builds`` dict."""
    keys = _build_keys(build)
    if keys[0] not in builds:
        builds[keys[0]] = FAMILIES[build["family"]](**build["params"])
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
    if "antigriesmer_defect" in exp:
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


_EXPECT = {"q": (int, False), "n": (int, False), "k": (int, False),
           "d": (int, False), "weights": (INTS, False),
           "counts": (COUNTS, False), "antigriesmer_defect": (int, False)}
_ROW = {"id": (str, True), "mode": (str, True), "expect": (_EXPECT, True),
        "source": (str, False), "note": (str, False),
        "known_discrepancy": (bool, False)}
# each mode's row: a built row has a build, a transformed one a base and K
_ENTRY = ("mode", {
    "construct_and_enumerate": {**_ROW, "build": (_BUILD, True)},
    "transform_only": {**_ROW, "K": (int, True), "base": ({
        "q": (int, True), "n": (int, True), "k": (int, True),
        "counts": (COUNTS, True)}, True)},
})


def load_manifest(path=None) -> list:
    """Entries of the bundled manifest, or of an explicit JSON file, each
    checked against its mode's schema when it is read."""
    if path is None:        # a package installed as files, not zipped
        from importlib import resources     # here, to keep start-up light
        path = resources.files("anticodes.data").joinpath("manifest.json")
    raw = _read_json(path, ManifestError)
    _check(raw, {"entries": (list, True)}, "manifest", ManifestError)
    seen = set()
    for item in raw["entries"]:
        _check(item, _ENTRY, "manifest entry "
               f"{item.get('id') if type(item) is dict else item!r}",
               ManifestError)
        if item["id"] in seen:
            raise ManifestError(f"duplicate entry id {item['id']!r}")
        seen.add(item["id"])
    return raw["entries"]


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
