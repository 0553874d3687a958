"""Bundled manifest loading and catalog verification."""

import json
from collections import Counter

import pytest

from anticodes import catalog as cat
from anticodes import constructions as cons
from anticodes import linear


@pytest.fixture(scope="module")
def entries():
    return cat.load_manifest()


def test_manifest_loads(entries):
    assert len(entries) >= 70
    ids = [e["id"] for e in entries]
    assert len(set(ids)) == len(ids)
    modes = {e["mode"] for e in entries}
    assert modes == {"construct_and_enumerate", "transform_only"}


def test_duplicate_ids_rejected(tmp_path):
    row = {"id": "a", "mode": "transform_only", "expect": {}, "K": 3,
           "base": TINY_BASE}
    doc = {"entries": [row, row]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cat.ManifestError, match="duplicate entry id 'a'"):
        cat.load_manifest(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(cat.ManifestError):
        cat.load_manifest(path)


SIMPLEX_ROW = {"id": "s", "mode": "construct_and_enumerate",
               "expect": {"q": 2, "n": 7, "k": 3},
               "build": {"family": "simplex", "params": {"q": 2, "k": 3}}}

TINY_BASE = {"q": 2, "n": 7, "k": 3, "counts": {"4": 7}}
TRANSFORM_ROW = {"id": "t", "mode": "transform_only", "base": TINY_BASE,
                 "K": 4, "expect": {"q": 2, "n": 8, "k": 4, "d": 4,
                                    "counts": {"4": 14, "8": 1}}}


LONG_KEY = "4" * (linear.decimal_limit() + 1)


def without(row, key):
    return {name: value for name, value in row.items() if name != key}


# one manifest row per load-time defect: each is a ManifestError, raised
# when the manifest is read, before any row runs
BAD_ROWS = {
    "unknown-key": {**SIMPLEX_ROW, "id": "bad", "colour": "red"},
    "missing-key": {"id": "bad", "mode": "construct_and_enumerate",
                    "build": SIMPLEX_ROW["build"]},
    "extra-param": {**SIMPLEX_ROW, "id": "bad", "build": {
        "family": "simplex", "params": {"q": 2, "k": 3, "m": 3}}},
    "missing-param": {**SIMPLEX_ROW, "id": "bad", "build": {
        "family": "simplex", "params": {"q": 2}}},
    "unknown-mode": {**SIMPLEX_ROW, "id": "bad", "mode": "enumerate"},
    "unknown-build-key": {**SIMPLEX_ROW, "id": "bad", "build": {
        **SIMPLEX_ROW["build"], "complement": 4}},
    "build-not-object": {**SIMPLEX_ROW, "id": "bad", "build": "simplex"},
    "param-a-string": {**SIMPLEX_ROW, "id": "bad", "build": {
        "family": "simplex", "params": {"q": "2", "k": 3}}},
    "param-a-float": {**SIMPLEX_ROW, "id": "bad", "build": {
        "family": "simplex", "params": {"q": 2, "k": 2.0}}},
    "param-a-bool": {**SIMPLEX_ROW, "id": "bad", "build": {
        "family": "simplex", "params": {"q": True, "k": 3}}},
    "complement-at-a-string": {**SIMPLEX_ROW, "id": "bad", "build": {
        **SIMPLEX_ROW["build"], "complement_at": "5"}},
    "expect-not-object": {**SIMPLEX_ROW, "id": "bad", "expect": [2, 7, 3]},
    "expect-count-key-not-digits": {**SIMPLEX_ROW, "id": "bad", "expect": {
        "q": 2, "n": 7, "k": 3, "counts": {"x": 7}}},
    "expect-count-not-int": {**SIMPLEX_ROW, "id": "bad", "expect": {
        "q": 2, "n": 7, "k": 3, "counts": {"4": "7"}}},
    "id-not-string": {**SIMPLEX_ROW, "id": 5},
    "transform-no-K": without({**TRANSFORM_ROW, "id": "bad"}, "K"),
    "transform-K-a-string": {**TRANSFORM_ROW, "id": "bad", "K": "7"},
    "transform-no-base": without({**TRANSFORM_ROW, "id": "bad"}, "base"),
    "transform-base-no-counts": {**TRANSFORM_ROW, "id": "bad", "base": {
        "q": 2, "n": 7, "k": 3}},
    "transform-base-q-a-string": {**TRANSFORM_ROW, "id": "bad", "base": {
        **TINY_BASE, "q": "2"}},
    # int() refuses a key this long
    "expect-count-key-too-long": {**SIMPLEX_ROW, "id": "bad", "expect": {
        "q": 2, "n": 7, "k": 3, "counts": {LONG_KEY: 7}}},
    "transform-base-count-key-too-long": {**TRANSFORM_ROW, "id": "bad",
                                          "base": {**TINY_BASE,
                                                   "counts": {LONG_KEY: 7}}},
    "known-discrepancy-a-string": {**SIMPLEX_ROW, "id": "bad",
                                   "known_discrepancy": "no"},
    "known-discrepancy-an-int": {**SIMPLEX_ROW, "id": "bad",
                                 "known_discrepancy": 1},
    # an expect value is typed, and its keys are a closed set
    "expect-scalar-a-string": {**SIMPLEX_ROW, "id": "bad", "expect": {
        "q": 2, "n": 7, "k": 3, "d": "4"}},
    "expect-scalar-a-bool": {**SIMPLEX_ROW, "id": "bad", "expect": {
        "q": 2, "n": True, "k": 3}},
    "expect-weights-not-ints": {**SIMPLEX_ROW, "id": "bad", "expect": {
        "weights": ["4"]}},
    "expect-unknown-key": {**SIMPLEX_ROW, "id": "bad", "expect": {
        "q": 2, "min_distance": 999}},
    "transform-base-unknown-key": {**TRANSFORM_ROW, "id": "bad", "base": {
        **TINY_BASE, "d": 4}},
    # each mode refuses the other mode's keys
    "transform-with-build": {**TRANSFORM_ROW, "id": "bad",
                             "build": SIMPLEX_ROW["build"]},
    "construct-with-base": {**SIMPLEX_ROW, "id": "bad", "base": TINY_BASE},
    "construct-with-K": {**SIMPLEX_ROW, "id": "bad", "K": 4},
    "note-not-string": {**SIMPLEX_ROW, "id": "bad", "note": 5},
    "source-not-string": {**SIMPLEX_ROW, "id": "bad", "source": ["paper"]},
    "build-without-params": {**SIMPLEX_ROW, "id": "bad",
                             "build": {"family": "simplex"}},
}


def write_manifest(tmp_path, *rows):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": list(rows)}))
    return path


def test_good_row_loads(tmp_path):
    entries = cat.load_manifest(
        write_manifest(tmp_path, SIMPLEX_ROW, TRANSFORM_ROW))
    assert [cat.verify_entry(e)["verdict"] for e in entries] == ["pass"] * 2


def test_a_base_that_does_not_sum_is_an_error_at_run_time(tmp_path):
    # only the shape of a base is checked at load
    row = {**TRANSFORM_ROW, "base": {**TINY_BASE, "counts": {"4": 6}}}
    [entry] = cat.load_manifest(write_manifest(tmp_path, row))
    assert cat.verify_entry(entry)["verdict"] == "error"


@pytest.mark.parametrize("defect", sorted(BAD_ROWS))
def test_bad_row_rejected_at_load(tmp_path, defect):
    path = write_manifest(tmp_path, SIMPLEX_ROW, BAD_ROWS[defect])
    with pytest.raises(cat.ManifestError):
        cat.load_manifest(path)


def test_a_bad_row_names_its_key_in_one_line(tmp_path):
    path = write_manifest(tmp_path, {**SIMPLEX_ROW, "expect": {"d": "4"}})
    with pytest.raises(cat.ManifestError) as info:
        cat.load_manifest(path)
    assert str(info.value) == "manifest entry 's': expect.d must be an integer"
    path = write_manifest(tmp_path, {**SIMPLEX_ROW, "build": {
        "family": "simplex", "params": {"q": 2, "k": 3, "m": 3}}})
    with pytest.raises(cat.ManifestError, match=r"^manifest entry 's': "
                       r"unknown key build\.params\.m$"):
        cat.load_manifest(path)


@pytest.mark.parametrize("text", [
    "[" * 200000,                       # too deep for the decoder
    '{"entries": [], "version": 2}',    # a key no manifest has
])
def test_a_manifest_that_is_no_manifest_is_refused(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(cat.ManifestError):
        cat.load_manifest(path)


def test_a_transform_row_checks_its_antigriesmer_defect(tmp_path):
    # the transformed [8, 4] code has delta = 8: 8 + 4 + 2 + 1 - 8 = 7
    wrong = {**TRANSFORM_ROW, "expect": {**TRANSFORM_ROW["expect"],
                                         "antigriesmer_defect": 0}}
    right = {**wrong, "id": "t2", "expect": {**TRANSFORM_ROW["expect"],
                                             "antigriesmer_defect": 7}}
    entries = cat.load_manifest(write_manifest(tmp_path, wrong, right))
    assert [cat.verify_entry(e)["mismatches"] for e in entries] == [
        ["antigriesmer_defect: got 7, expected 0"], []]


def test_build_code_unknown_family():
    with pytest.raises(cat.ManifestError):
        cat.build_code({"family": "nope", "params": {}})


@pytest.mark.parametrize("build", [
    {"family": "simplex", "params": {"q": 2}},
    {"family": "simplex", "params": {"q": 2, "k": 3, "m": 9}},
    {"family": "simplex", "params": [2, 3]},
    {"family": "simplex", "params": {"q": 2, "k": 3}, "complement": 4},
    "simplex",
    {"family": "simplex", "params": {"q": "2", "k": 3}},
    {"family": "simplex", "params": {"q": 2, "k": 3}, "complement_at": "5"},
    {"family": "simplex", "params": {"q": 2, "k": 3}, "complement_at": True},
    {"family": ["simplex"], "params": {"q": 2, "k": 3}},
])
def test_build_code_checks_its_build(build):
    # the same check as a manifest row's, at build time
    with pytest.raises(cat.ManifestError):
        cat.build_code(build)


def test_params_are_every_builders_parameters():
    # one CLI construct flag each
    assert set(cat.PARAMS) == {"q", "k", "h", "w", "m", "s"}


def test_verify_entry_detects_mismatch():
    entry = {"id": "bad-simplex", "mode": "construct_and_enumerate",
             "expect": {"q": 2, "n": 7, "k": 3, "d": 5},
             "build": {"family": "simplex", "params": {"q": 2, "k": 3}}}
    result = cat.verify_entry(entry)
    assert result["verdict"] == "FAIL"
    assert any("d:" in m for m in result["mismatches"])


def test_a_row_over_the_length_cap_is_an_error(monkeypatch):
    monkeypatch.setattr(cons, "LENGTH_CAP", 16)
    entry = {"id": "long", "mode": "construct_and_enumerate",
             "expect": {"q": 2, "n": 24, "k": 5, "d": 12},
             "build": {"family": "simplex", "params": {"q": 2, "k": 3},
                       "complement_at": 5}}
    results, summary = cat.verify_catalog([entry])
    assert results[0]["verdict"] == "error"
    assert results[0]["mismatches"] == [
        "complement(simplex(2,3), K=5) length 24 over the cap"]
    assert summary["failed"] == 1


def test_verify_entry_turns_a_cap_into_an_error(monkeypatch):
    # an error fails the run even on a flagged row
    monkeypatch.setattr(linear, "ENUM_CAP", 8)
    entry = {"id": "over-cap", "mode": "construct_and_enumerate",
             "expect": {"q": 2, "n": 15, "k": 4, "d": 8},
             "known_discrepancy": True,
             "build": {"family": "simplex", "params": {"q": 2, "k": 4}}}
    results, summary = cat.verify_catalog([entry])
    assert results[0]["verdict"] == "error"
    assert results[0]["mismatches"] == ["q^k = 16 exceeds enumeration cap"]
    assert summary == {"total": 1, "passed": 0, "failed": 1,
                       "known_discrepancy": 0}


def test_verify_entry_transform_only():
    entry = {"id": "tiny", "mode": "transform_only",
             "base": {"q": 2, "n": 7, "k": 3, "counts": {"4": 7}},
             "K": 4,
             "expect": {"q": 2, "n": 8, "k": 4, "d": 4,
                        "counts": {"4": 14, "8": 1}}}
    assert cat.verify_entry(entry)["verdict"] == "pass"


def test_full_catalog_verifies(entries):
    results, summary = cat.verify_catalog(entries)
    assert summary["total"] == len(entries)
    assert summary["failed"] == 0
    not_ok = [r for r in results if r["verdict"] != "pass"]
    assert all(r["verdict"] == "known-discrepancy" for r in not_ok)
    assert {r["id"] for r in not_ok} <= {"comp-rs-2-5-antigriesmer"}


def test_flagged_rows_reported_not_failed(entries):
    flagged = [e for e in entries if e["known_discrepancy"]]
    assert {e["id"] for e in flagged} == {
        "comp-rs-2-5-antigriesmer", "eight-weight-q2m2-comp-6"}
    for e in flagged:
        result = cat.verify_entry(e)
        assert result["verdict"] in ("pass", "known-discrepancy")


def test_catalog_pass_builds_each_code_once(entries, monkeypatch):
    builds, complements, checks = Counter(), Counter(), Counter()
    made = {}       # id of a family's code -> (code, build key); kept alive

    def counted(family, builder):
        def build(**params):
            code = builder(**params)
            key = (family, tuple(sorted(params.items())))
            builds[key] += 1
            made[id(code)] = (code, key)
            return code
        return build

    original = cons.complement

    def complement(source, K):
        if id(source) in made:    # not a family's own internal complement
            complements[made[id(source)][1], K] += 1
        return original(source, K=K)

    monkeypatch.setattr(cat, "FAMILIES", {
        family: counted(family, builder)
        for family, builder in cat.FAMILIES.items()})
    monkeypatch.setattr(cons, "complement", complement)
    check = cat._check

    def counted_check(value, schema, where, *args):
        checks[where] += 1
        return check(value, schema, where, *args)

    # a row is checked once, when the manifest is loaded, and never again
    monkeypatch.setattr(cat, "_check", counted_check)
    assert cat.load_manifest() == entries
    assert checks == Counter(["manifest", *(f"manifest entry {e['id']!r}"
                                             for e in entries)])
    checks.clear()
    rows = [e["build"] for e in entries
            if e["mode"] == "construct_and_enumerate"]
    keys = {(b["family"], tuple(sorted(b.get("params", {}).items())))
            for b in rows}
    comp_keys = {((b["family"], tuple(sorted(b["params"].items()))),
                  b["complement_at"]) for b in rows if "complement_at" in b}
    assert len(keys) < len(rows) and len(comp_keys) > 1
    for passes in (1, 2):       # nothing carries over from one pass
        results, _ = cat.verify_catalog(entries)
        assert builds == Counter(dict.fromkeys(keys, passes))
        assert complements == Counter(dict.fromkeys(comp_keys, passes))
    assert results == [cat.verify_entry(e) for e in entries]
    assert checks == Counter()
