"""CLI subcommands, formats, exit codes, and file round-trips."""

import inspect
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from anticodes import catalog as cat
from anticodes import cli
from anticodes import codefile
from anticodes import constructions as cons
from anticodes import linear
from anticodes.cli import build_parser, main
from anticodes.gf import FieldError, field_make
from test_catalog import BAD_ROWS, SIMPLEX_ROW


def run(argv):
    return main(argv)


@pytest.fixture()
def code_file(tmp_path):
    path = tmp_path / "code.json"
    codefile.save_code(cons.simplex(2, 3), path)
    return path


def _dumped(doc):
    out = io.StringIO()
    codefile._write_json(doc, out)
    return out.getvalue()


def test_the_code_writer_writes_what_json_dumps_writes():
    # every manifest build, one code per field, and a label json escapes
    codes = [cat.build_code(row["build"]) for row in cat.load_manifest()
             if "build" in row]
    codes += [cons.simplex(q, 2) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)]
    for code in codes:
        doc = codefile.code_to_dict(code)
        for label in (doc["label"], "", 'caf\u00e9 "1" \\ \n'):
            doc = {**doc, "label": label}
            assert _dumped(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert _dumped({"a": [], "b": {}, "c": [[1], []]}) == json.dumps(
        {"a": [], "b": {}, "c": [[1], []]}, indent=2, sort_keys=True)
    # rows of the digits 0..9 are written as one string of digits; rows
    # with a code >= 10, a negative, a huge or a bool entry are not
    rows = [[0, 9, 3], [9, 10], [10, 0], [15, 255, 256], [-1, 0, 9],
            [1 << 70, 1], [True, 1], [0], [7]]
    for doc in ({"generator": rows}, {f"r{i}": row for i, row in enumerate(rows)},
                codefile.code_to_dict(cons.simplex(16, 2))):
        assert _dumped(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_saved_and_printed_code_files_are_json_dumps_text(tmp_path, capsys):
    code = cons.kasami_code(3)
    want = json.dumps(codefile.code_to_dict(code),
                      indent=2, sort_keys=True) + "\n"
    codefile.save_code(code, tmp_path / "k3.json")
    assert (tmp_path / "k3.json").read_text() == want
    assert run(["construct", "kasami", "--m", "3"]) == 0
    assert capsys.readouterr().out == want


def test_construct_writes_code_file(tmp_path):
    out = tmp_path / "simplex.json"
    assert run(["construct", "simplex", "--q", "2", "--k", "3",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "linear-code"
    assert (doc["n"], doc["k"]) == (7, 3)
    assert doc["weight_distribution"] == {"0": 1, "4": 7}


def test_construct_with_complement(tmp_path):
    out = tmp_path / "c.json"
    assert run(["construct", "dual-bch", "--m", "3", "--K", "6",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["n"], doc["k"]) == (56, 6)


def test_construct_missing_parameter():
    assert run(["construct", "simplex", "--k", "3"]) == 2


@pytest.mark.parametrize("params", [
    ["--q", "2", "--k", "3", "--m", "9"],     # simplex takes no m
    ["--q", "2", "--k", "0"],
], ids=["extra-param", "k-0"])
def test_construct_bad_params_exit_2(capsys, params):
    assert run(["construct", "simplex", *params]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_construct_over_the_length_cap_exits_2(capsys, monkeypatch):
    # the cap is checked from the parameters, so a lift of any size is
    # refused before a column is built
    monkeypatch.setattr(cons, "LENGTH_CAP", 16)
    assert run(["construct", "simplex", "--q", "2", "--k", "3",
                "--K", "5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: complement(simplex(2,3), K=5) length 24 "
                   "over the cap"]
    # a length with more digits than Python prints is shown by its size
    assert run(["construct", "simplex", "--q", "2", "--k", "20000"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: simplex(2,20000) length 2^19999+ over the cap"]
    # a lift past the cap for every q is refused from K alone
    assert run(["construct", "simplex", "--q", "3", "--k", "3",
                "--K", str(10 ** 6)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: complement(simplex(3,3), K=1000000) "
                   "length 2^999999+ over the cap"]


def test_construct_comp_rs_over_the_length_cap_exits_2_at_once(capsys):
    # K = 21 passes the lift check for every q, so the moment-curve
    # complement is refused from its parameters before its q points are
    # built (1.2 s when they were built first)
    start = time.perf_counter()
    assert run(["construct", "comp-rs", "--q", "65536", "--k", "21"]) == 2
    assert time.perf_counter() - start < 0.2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: comp-rs(65536,21,h=0) length 2^320+ over the cap"]


def _distinct_builds():
    builds = []
    for entry in cat.load_manifest():
        if entry["mode"] == "construct_and_enumerate" \
                and entry["build"] not in builds:
            builds.append(entry["build"])
    return builds


def _construct_argv(build):
    argv = ["construct", build["family"]]
    for name, value in build.get("params", {}).items():
        argv += [f"--{name}", str(value)]
    if "complement_at" in build:
        argv += ["--K", str(build["complement_at"])]
    return argv


@pytest.mark.parametrize("build", _distinct_builds(),
                         ids=lambda b: " ".join(_construct_argv(b)[1:]))
def test_construct_agrees_with_the_catalog(tmp_path, build):
    out = tmp_path / "c.json"
    assert run(_construct_argv(build) + ["--out", str(out)]) == 0
    assert json.loads(out.read_text()) == codefile.code_to_dict(
        cat.build_code(build))


def test_construct_lift_is_h(tmp_path):
    out = tmp_path / "c.json"
    assert run(["construct", "comp-rs", "--q", "4", "--k", "3", "--h", "1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["n"], doc["k"]) == (81, 4)
    assert doc == codefile.code_to_dict(cons.complementary_rs(4, 3, h=1))


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_analyze_roundtrip(tmp_path, code_file, capsys):
    assert run(["analyze", str(code_file), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["n"], report["k"], report["d"]) == (7, 3, 4)
    assert report["projective"] is True
    assert report["distribution"] == {"0": 1, "4": 7}


def test_analyze_reports_a_repeated_column_not_projective(tmp_path, capsys,
                                                          monkeypatch):
    path = tmp_path / "repeated.json"
    codefile.save_code(linear.LinearCode.from_generator(
        field_make(2, 1), [[1, 1, 0], [0, 0, 1]]), path)
    # from the counted distribution, then under the cap from the columns
    for cap in (None, "1"):
        if cap:
            monkeypatch.setenv("ANTICODES_ENUM_CAP", cap)
        assert run(["analyze", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["projective"] is False


def test_analyze_formats(tmp_path, code_file, capsys):
    for fmt in ("csv", "text"):
        assert run(["analyze", str(code_file), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "griesmer" in out


# the printed layouts, byte for byte: keys in report order, nested keys
# dotted; text aligns the values two spaces after the longest key, csv
# ends rows in \r\n (the csv module's default) and writes None as ""
ANALYZE_S23_TEXT = """\
n                               7
k                               3
q                               2
d                               4
delta                           4
t                               1
weights                         [4]
distribution.0                  1
distribution.4                  7
projective                      True
minimal_exact                   True
minimal_witness                 None
ab_criterion                    True
bounds.q                        2
bounds.n                        7
bounds.k                        3
bounds.d                        4
bounds.delta                    4
bounds.griesmer_sum             7
bounds.griesmer_defect          0
bounds.antigriesmer_sum         7
bounds.antigriesmer_defect      0
bounds.antigriesmer_holds       True
bounds.antigriesmer_applicable  False
bounds.plotkin_anticode_floor   4
bounds.ek_bound                 29
bounds.prop_delta_ge_k          True
optimality.status               unknown
label                           simplex(2,3)
"""
ANALYZE_S23_CSV = "".join(f"{row}\r\n" for row in [
    "key,value", "n,7", "k,3", "q,2", "d,4", "delta,4", "t,1",
    "weights,[4]", "distribution.0,1", "distribution.4,7",
    "projective,True", "minimal_exact,True", "minimal_witness,",
    "ab_criterion,True", "bounds.q,2", "bounds.n,7", "bounds.k,3",
    "bounds.d,4", "bounds.delta,4", "bounds.griesmer_sum,7",
    "bounds.griesmer_defect,0", "bounds.antigriesmer_sum,7",
    "bounds.antigriesmer_defect,0", "bounds.antigriesmer_holds,True",
    "bounds.antigriesmer_applicable,False",
    "bounds.plotkin_anticode_floor,4", "bounds.ek_bound,29",
    "bounds.prop_delta_ge_k,True", "optimality.status,unknown",
    'label,"simplex(2,3)"'])
SWRG_C56_L3_TEXT = """\
l                      3
n                      56
k                      6
weights                [26, 28, 30]
spectrum.56            1
spectrum.4             7
spectrum.0             35
spectrum.-4            21
conditions_weight_sum  True
conditions_middle      True
walk_counts            (2746, 2730, 2730)
analytic_l3            (2746, 2730, 2730)
root_equation_holds    True
verdict                is_l_swrg
witness                None
"""


def test_printed_layouts(tmp_path, code_file, capsys):
    # simplex(2,3) is [7,3,4]_2 with A_4 = 7: every Griesmer and
    # antiGriesmer sum is 4 + 2 + 1, the Erdos-Kleitman bound 1 + 7 + 21
    assert run(["analyze", str(code_file), "--format", "text"]) == 0
    assert capsys.readouterr().out == ANALYZE_S23_TEXT
    assert run(["analyze", str(code_file), "--format", "csv"]) == 0
    assert capsys.readouterr().out == ANALYZE_S23_CSV
    comp = tmp_path / "c56.json"
    codefile.save_code(cons.complement(cons.dual_bch_code(3), K=6), comp)
    assert run(["swrg-verify", str(comp), "--format", "text"]) == 0
    assert capsys.readouterr().out == SWRG_C56_L3_TEXT


def test_parser_keeps_no_state_between_calls(tmp_path, code_file, capsys):
    assert build_parser() is build_parser()      # built once per process
    text = tmp_path / "report.txt"
    assert run(["analyze", str(code_file), "--format", "text",
                "--out", str(text)]) == 0
    assert run(["analyze", str(code_file)]) == 0
    report = json.loads(capsys.readouterr().out)  # default format, to stdout
    assert report["distribution"] == {"0": 1, "4": 7}
    assert text.read_text().split()[:2] == ["n", "7"]   # the text table

    comp = tmp_path / "c56.json"
    codefile.save_code(cons.complement(cons.dual_bch_code(3), K=6), comp)
    assert run(["swrg-verify", str(comp), "--l", "5"]) == 0
    assert run(["swrg-verify", str(comp)]) == 0
    first, second = capsys.readouterr().out.split("\n}\n", 1)
    assert json.loads(first + "}")["l"] == 5
    assert json.loads(second)["l"] == 3


def test_swrg_verify_huge_l_hits_the_cap(tmp_path, capsys):
    comp = tmp_path / "c56.json"
    codefile.save_code(cons.complement(cons.dual_bch_code(3), K=6), comp)
    assert run(["swrg-verify", str(comp), "--l", str(10 ** 9 + 1)]) == 3
    assert "over the cap" in capsys.readouterr().err


def test_swrg_verify_refuses_counts_too_long_to_print(tmp_path, capsys,
                                                     monkeypatch):
    # 56^2501 has more than the 4300 decimal digits Python prints
    comp = tmp_path / "c56.json"
    codefile.save_code(cons.complement(cons.dual_bch_code(3), K=6), comp)
    counted = []
    real = linear.LinearCode.weight_distribution
    monkeypatch.setattr(linear.LinearCode, "weight_distribution",
                        lambda self: counted.append(self) or real(self))
    for fmt in ("json", "csv", "text"):
        assert run(["swrg-verify", str(comp), "--l", "2501",
                    "--format", fmt]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not counted                         # refused before the walk
    # just under the limit, the counts print and parse back
    assert run(["swrg-verify", str(comp), "--l", "2457"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["l"] == 2457 and len(str(doc["walk_counts"][0])) > 4000


def test_swrg_verify_reports_a_bad_code_before_the_print_limit(tmp_path,
                                                              capsys):
    # what is wrong with the code is reported whatever l is
    for name, code in (("ternary", cons.simplex(3, 3)),
                       ("repeated", linear.LinearCode.from_columns(
                           field_make(2, 1),
                           [(1, 0), (1, 0), (0, 1), (1, 1)]))):
        path = tmp_path / f"{name}.json"
        codefile.save_code(code, path)
        assert run(["swrg-verify", str(path), "--l", "2501"]) == 2
        assert "coset graph needs" in capsys.readouterr().err


def test_swrg_verify_refuses_an_unchecked_distribution(tmp_path, capsys,
                                                       monkeypatch):
    # over the enumeration cap the file's distribution would go unchecked
    comp = tmp_path / "c56.json"
    codefile.save_code(cons.complement(cons.dual_bch_code(3), K=6), comp)
    monkeypatch.setattr(linear, "ENUM_CAP", 8)
    assert run(["swrg-verify", str(comp)]) == 3
    assert capsys.readouterr().out == ""


def test_analyze_missing_file(tmp_path):
    assert run(["analyze", str(tmp_path / "absent.json")]) == 2


def test_analyze_corrupt_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run(["analyze", str(path)]) == 2


@pytest.mark.parametrize("code, forged", [
    (cons.simplex(3, 2), {"0": 1, "1": 8}),     # minimal: its walk checks
    (cons.rs_code(4, 3), {"0": 1, "1": 63}),    # not minimal
], ids=["minimal", "not-minimal"])
def test_analyze_forged_distribution_is_usage_error(tmp_path, capsys, code,
                                                    forged):
    path = tmp_path / "code.json"
    doc = codefile.code_to_dict(code)
    doc["weight_distribution"] = forged
    path.write_text(json.dumps(doc))
    _assert_usage_error(path, capsys)


def test_cached_distribution_over_the_cap_stands(monkeypatch):
    # over the enumeration cap nothing can check a claim, so it is used
    doc = codefile.code_to_dict(cons.simplex(2, 4))
    monkeypatch.setattr(linear, "ENUM_CAP", 8)
    code = codefile.code_from_dict(doc)
    assert code.weight_distribution().to_dict() == doc["weight_distribution"]


@pytest.mark.parametrize("argv", [["analyze"], ["wd-transform", "--K", "4"]],
                         ids=lambda argv: argv[0])
def test_an_unchecked_claim_says_so(tmp_path, capsys, monkeypatch, argv):
    # simplex(2, 3) is {0: 1, 4: 7}; over the cap a false claim stands
    doc = codefile.code_to_dict(cons.simplex(2, 3))
    forged = _write_doc(tmp_path, {**doc, "weight_distribution": {
        "0": 1, "3": 7}})
    monkeypatch.setenv("ANTICODES_ENUM_CAP", "4")
    assert run([argv[0], str(forged), *argv[1:]]) == 0
    assert json.loads(capsys.readouterr().out)["distribution_verified"] \
        is False
    # under the cap the distribution is counted, and nothing is added
    monkeypatch.delenv("ANTICODES_ENUM_CAP")
    for fmt in ("json", "text"):
        path = _write_doc(tmp_path, doc)
        assert run([argv[0], str(path), *argv[1:], "--format", fmt]) == 0
        assert "distribution_verified" not in capsys.readouterr().out


def test_complement_subcommand(tmp_path, code_file):
    out = tmp_path / "comp.json"
    assert run(["complement", str(code_file), "--K", "4",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["n"], doc["k"]) == (8, 4)


def test_save_load_roundtrip_is_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    codefile.save_code(cons.rs_code(4, 3), a)
    codefile.save_code(codefile.load_code(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_wd_transform(tmp_path, code_file, capsys):
    assert run(["wd-transform", str(code_file), "--K", "4",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["k"], doc["d"]) == (8, 4, 4)
    assert doc["counts"] == {"0": 1, "4": 14, "8": 1}


def test_swrg_verify_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    codefile.save_code(cons.complement(cons.dual_bch_code(3), K=6), good)
    assert run(["swrg-verify", str(good), "--l", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "is_l_swrg"
    bad = tmp_path / "bad.json"
    codefile.save_code(cons.kasami_code(2), bad)
    assert run(["swrg-verify", str(bad), "--l", "3"]) == 1


def test_catalog_verify(capsys):
    assert run(["catalog", "verify", "--jobs", "8"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_catalog_verify_has_no_csv_format(capsys):
    # its rows print as text or JSON only
    with pytest.raises(SystemExit) as exc:
        run(["catalog", "verify", "--format", "csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'csv'" in err


def test_catalog_verify_failing_manifest(tmp_path, capsys):
    doc = {"entries": [{
        "id": "wrong", "mode": "construct_and_enumerate",
        "expect": {"q": 2, "n": 7, "k": 3, "d": 5},
        "build": {"family": "simplex", "params": {"q": 2, "k": 3}}}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run(["catalog", "verify", "--manifest", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_catalog_verify_empty_manifest(tmp_path, capsys):
    # no rows: the text format prints the summary line alone
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": []}))
    assert run(["catalog", "verify", "--manifest", str(path)]) == 0
    assert capsys.readouterr().out == \
        "0/0 passed, 0 failed, 0 known-discrepancy\n"
    assert run(["catalog", "verify", "--manifest", str(path),
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "summary": {"total": 0, "passed": 0, "failed": 0,
                    "known_discrepancy": 0},
        "results": []}


def test_analyze_prints_null_for_an_unprintable_ek_bound(tmp_path, capsys):
    # the [4095, 12] simplex's Erdos-Kleitman bound has about 1000 digits
    path = tmp_path / "s12.json"
    codefile.save_code(cons.simplex(2, 12), path)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run(["analyze", str(path)]) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    report = json.loads(capsys.readouterr().out)
    assert report["bounds"]["ek_bound"] is None
    assert (report["n"], report["k"], report["d"]) == (4095, 12, 2048)


def test_catalog_runs_every_row_after_an_error(tmp_path, capsys):
    # a row whose build raises no longer stops the rows after it
    doc = {"entries": [
        {"id": "simplex-6", "mode": "construct_and_enumerate",
         "expect": {"q": 6, "n": 7, "k": 2, "d": 6},
         "build": {"family": "simplex", "params": {"q": 6, "k": 2}}},
        {"id": "simplex-2-3", "mode": "construct_and_enumerate",
         "expect": {"q": 2, "n": 7, "k": 3, "d": 4},
         "build": {"family": "simplex", "params": {"q": 2, "k": 3}}}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run(["catalog", "verify", "--manifest", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "simplex-6    error  (6 is not a prime power)",
        "simplex-2-3  pass",
        "",
        "1/2 passed, 1 failed, 0 known-discrepancy"]
    assert err == ""
    assert run(["catalog", "verify", "--manifest", str(path),
                "--format", "json"]) == 1
    got = json.loads(capsys.readouterr().out)
    assert got["summary"] == {"total": 2, "passed": 1, "failed": 1,
                              "known_discrepancy": 0}
    assert [(r["id"], r["verdict"], r["mismatches"]) for r in got["results"]] \
        == [("simplex-6", "error", ["6 is not a prime power"]),
            ("simplex-2-3", "pass", [])]


# every bad row, plus manifests that are not JSON at all
BAD_MANIFESTS = {
    **{defect: json.dumps({"entries": [row]}).encode()
       for defect, row in BAD_ROWS.items()},
    "not-json": b"{not json",
    "long-integer": b'{"entries": [' + b"9" * 5000 + b"]}",
    "not-utf-8": b'{"entries": ["\xff"]}',
    "too-deep": b"[" * 200000,
}


@pytest.mark.parametrize("defect", sorted(BAD_MANIFESTS))
def test_catalog_bad_manifest_row_exits_2(tmp_path, capsys, defect):
    path = tmp_path / "m.json"
    path.write_bytes(BAD_MANIFESTS[defect])
    assert run(["catalog", "verify", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_enum_cap_env_override_exit_code(tmp_path):
    doc = codefile.code_to_dict(cons.simplex(2, 4))
    del doc["weight_distribution"]          # no claim to stand over the cap
    path = _write_doc(tmp_path, doc)
    env = dict(os.environ, ANTICODES_ENUM_CAP="8")
    proc = subprocess.run(
        [sys.executable, "-m", "anticodes.cli", "analyze", str(path)],
        capture_output=True, env=env)
    assert proc.returncode == 3


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "anticodes.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "construct" in proc.stdout


def test_importing_the_cli_loads_no_inspect_or_csv():
    # a fresh process, since pytest has loaded these modules already
    src = Path(__file__).resolve().parents[1] / "src"
    # -S: no site module, which may load importlib.resources itself
    probe = ("import sys, anticodes.cli; print(sorted({'inspect', 'ast', "
             "'dis', 'csv', 'importlib.resources'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_a_bad_cap_override_is_read_at_use_not_import():
    # the import and --help work; a command then exits 2 in one line
    env = dict(os.environ, ANTICODES_ENUM_CAP="abc")
    argv = [sys.executable, "-m", "anticodes.cli"]
    proc = subprocess.run([*argv, "--help"], capture_output=True, env=env)
    assert proc.returncode == 0
    proc = subprocess.run([*argv, "catalog", "verify"], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: ANTICODES_ENUM_CAP must be an integer "
                           ">= 1, got 'abc'\n")


def test_a_cap_override_applies_when_it_is_set(tmp_path, capsys,
                                                monkeypatch):
    # simplex(2, 4) has q^k = 16 messages
    doc = codefile.code_to_dict(cons.simplex(2, 4))
    del doc["weight_distribution"]          # no claim to stand over the cap
    path = _write_doc(tmp_path, doc)
    monkeypatch.setenv("ANTICODES_ENUM_CAP", "8")
    assert run(["analyze", str(path)]) == 3
    monkeypatch.setenv("ANTICODES_ENUM_CAP", "16")
    assert run(["analyze", str(path)]) == 0


def _write_doc(tmp_path, doc):
    """``doc`` as JSON, or as it is when it is bytes."""
    path = tmp_path / "code.json"
    path.write_bytes(doc if isinstance(doc, bytes)
                     else json.dumps(doc).encode())
    return path


def _doc(**overrides):
    """A valid one-row binary code document; an override of None drops
    the key."""
    doc = {"format": "linear-code",
           "field": {"p": 2, "e": 1, "modulus": [0, 1]},
           "n": 3, "k": 1, "label": "", "generator": [[1, 1, 1]]}
    doc.update(overrides)
    return {key: value for key, value in doc.items() if value is not None}


def _assert_usage_error(path, capsys):
    assert run(["analyze", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("modulus", [[1, 0, 1], [1] + [0] * 9 + [1]])
def test_analyze_reducible_modulus_is_usage_error(tmp_path, capsys, modulus):
    # x^2 + 1 = (x + 1)^2 and x^10 + 1 = (x^5 + 1)^2 over GF(2)
    e = len(modulus) - 1
    path = _write_doc(tmp_path, _doc(field={"p": 2, "e": e,
                                            "modulus": modulus}))
    _assert_usage_error(path, capsys)


@pytest.mark.parametrize("change", [
    {"field": None},
    {"field": {"e": 1, "modulus": [0, 1]}},
    {"field": {"p": 2, "e": "1", "modulus": [0, 1]}},
    {"field": {"p": 3, "e": 100000, "modulus": [0, 1]}},
    {"field": {"p": 2, "e": 1}},
    {"generator": None},
    {"generator": [1, 1, 1]},
    {"generator": [[1, 1, 1], [0, 1]]},
    {"n": None},
    {"k": True},
    {"weight_distribution": {"0": 1, "3": "1"}},
    {"field": {"p": 2, "e": 1, "modulus": [0, [1]]}},
    {"field": {"p": 2, "e": 1, "modulus": [0, True]}},
    {"label": {"x": [1, 2]}},
    {"label": 7},
    {"weight_distribution": {"0": 1, "3" * 5000: 1}},   # too long for int()
])
def test_analyze_malformed_code_file_is_usage_error(tmp_path, capsys, change):
    _assert_usage_error(_write_doc(tmp_path, _doc(**change)), capsys)


@pytest.mark.parametrize("change", [
    {"colour": "red"},
    {"field": {"p": 2, "e": 1, "modulus": [0, 1], "name": "GF(2)"}},
])
def test_analyze_unknown_code_file_key_is_usage_error(tmp_path, capsys,
                                                      change):
    _assert_usage_error(_write_doc(tmp_path, _doc(**change)), capsys)


def test_code_file_loads_share_one_field(tmp_path):
    field = {"p": 2, "e": 4, "modulus": [1, 1, 0, 0, 1]}
    docs = [_doc(field=field, n=1, generator=[[g]]) for g in (1, 2)]
    a, b = (codefile.code_from_dict(doc) for doc in docs)
    assert a.field is b.field
    # True == 1 and hashes alike, yet must not find the cached field
    with pytest.raises(FieldError):
        codefile.code_from_dict(_doc(field={**field, "modulus": [
            True, 1, 0, 0, 1]}, n=1, generator=[[1]]))


def test_analyze_hand_written_document(tmp_path, capsys):
    assert run(["analyze", str(_write_doc(tmp_path, _doc())),
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 3


def test_a_code_file_without_a_label_has_the_empty_label(tmp_path):
    code = codefile.load_code(_write_doc(tmp_path, _doc(
        label=None, n=2, k=2, generator=[[1, 0], [0, 1]])))
    assert code.label == ""
    assert cons.complement(code, K=3).label == "complement(points, K=3)"


def test_analyze_oversized_integer_is_usage_error(tmp_path, capsys):
    # json rejects an integer literal of more than 4300 digits with a bare
    # ValueError; without that limit the declared n is simply wrong
    text = json.dumps(_doc()).replace('"n": 3', '"n": ' + "9" * 5000)
    path = tmp_path / "code.json"
    path.write_text(text)
    _assert_usage_error(path, capsys)


# a file every command accepts (complement at K = 7), and crafted bad
# copies of it, each refused on load by every command that reads one
GOOD = codefile.code_to_dict(cons.complement(cons.dual_bch_code(3), K=6))
ROWS, WD = GOOD["generator"], GOOD["weight_distribution"]
BAD_INPUTS = {
    "weight-key": {**GOOD, "weight_distribution": {**WD, "\u00b2": 0}},
    "bool-count": {**GOOD, "weight_distribution": {**WD, "0": True}},
    "ragged-rows": {**GOOD, "generator": [ROWS[0][:-1], *ROWS[1:]]},
    "bad-element": {**GOOD, "generator": [[2, *ROWS[0][1:]], *ROWS[1:]]},
    "non-monic-modulus": {**GOOD, "field": {"p": 2, "e": 1,
                                            "modulus": [1, 0]}},
    "rank-deficient": {**GOOD, "generator": [ROWS[1], *ROWS[1:]]},
    "unknown-key": {**GOOD, "colour": "red"},
    "bool-element": {**GOOD, "generator": [[x == 1 or x for x in ROWS[0]],
                                           *ROWS[1:]]},
    "too-deep": b"[" * 200000,
}
COMMANDS = [["analyze"], ["wd-transform"], ["swrg-verify"],
            ["complement", "--K", "7"]]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_every_command_accepts_the_good_file(tmp_path, capsys, argv):
    assert run([argv[0], str(_write_doc(tmp_path, GOOD)), *argv[1:]]) == 0


MANIFEST = ["catalog", "verify", "--manifest"]
BAD_CAPS = [{f"ANTICODES_{cap}": value}
            for cap in ("ENUM_CAP", "MINIMAL_CAP")
            for value in ("abc", "", "1e3", "-5", "0")]


@pytest.mark.parametrize("argv, doc, env", [
    *[(argv, BAD_INPUTS[bad], {}) for argv in COMMANDS for bad in BAD_INPUTS],
    (["wd-transform", "--K", "10000"],
     codefile.code_to_dict(cons.simplex(3, 3)), {}),
    *[(MANIFEST, {"entries": [BAD_ROWS[bad]]}, {})
      for bad in ("expect-scalar-a-string", "expect-unknown-key")],
    (MANIFEST, b"[" * 200000, {}),
    *[(argv, GOOD, env) for argv in COMMANDS for env in BAD_CAPS],
    *[(MANIFEST, {"entries": [SIMPLEX_ROW]}, env) for env in BAD_CAPS],
], ids=[*(f"{argv[0]}-{bad}" for argv in COMMANDS for bad in BAD_INPUTS),
        "wd-transform-huge-K", "catalog-expect-scalar-a-string",
        "catalog-expect-unknown-key", "catalog-too-deep",
        *(f"{argv[0]}-{name}={value or 'empty'}"
          for argv in [*COMMANDS, MANIFEST]
          for env in BAD_CAPS for name, value in env.items())])
def test_a_bad_input_is_one_error_line(tmp_path, capsys, monkeypatch, argv,
                                       doc, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    path = str(_write_doc(tmp_path, doc))
    argv = [*argv, path] if argv == MANIFEST else [argv[0], path, *argv[1:]]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_wd_transform_prints_up_to_the_decimal_limit(tmp_path, capsys):
    # 3^9000 has 4295 digits, under the default limit of 4300; at 640 it
    # is refused, and the largest K left is the last with 3^K < 10^640
    path = _write_doc(tmp_path, codefile.code_to_dict(cons.simplex(3, 3)))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert run(["wd-transform", str(path), "--K", "9000"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 9000
        sys.set_int_max_str_digits(640)
        top = max(K for K in range(1400) if 3 ** K < 10 ** 640)
        assert run(["wd-transform", str(path), "--K", str(top)]) == 0
        capsys.readouterr()
        assert run(["wd-transform", str(path), "--K", str(top + 1)]) == 2
    finally:
        sys.set_int_max_str_digits(limit)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title):
    text = README.read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    block = _readme_section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.startswith("anticodes ")]
    assert any(line.startswith("anticodes swrg-verify") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        # exit 0 everywhere; for swrg-verify, that is the certificate
        assert run(shlex.split(line)[1:]) == 0, line


def test_readme_family_table_is_the_registry():
    # inspect is the oracle; the package reads code objects
    signatures = {family: inspect.signature(builder).parameters.values()
                  for family, builder in cat.FAMILIES.items()}
    rows = [line.split(" | ")[:2] for line in
            _readme_section("CLI").splitlines() if line.startswith("| `")]
    table = {family.strip("| `"): flags.strip("`") for family, flags in rows}
    assert table == {
        family: " ".join(f"--{p.name}" if p.default is p.empty
                         else f"[--{p.name}]" for p in parameters)
        for family, parameters in signatures.items()}
    # the same names, in the same order, required where there is no default
    assert {family: list(parameters.items())
            for family, parameters in cat.SIGNATURES.items()} == {
        family: [(p.name, p.default is p.empty) for p in parameters]
        for family, parameters in signatures.items()}


def test_readme_manifest_table_is_the_schema():
    # every key path of a row, whether it is required, and in which modes
    tag, modes = cat._ENTRY
    want = {}

    def walk(schema, prefix, mode):
        if type(schema) is tuple:   # a build: every family has these keys
            schema = next(iter(schema[1].values()))
        for key, (kind, required) in schema.items():
            want.setdefault((prefix + key, required), set()).add(mode)
            if type(kind) in (dict, tuple) and prefix + key != "build.params":
                walk(kind, f"{prefix}{key}.", mode)

    for mode, schema in modes.items():
        walk(schema, "", mode)
    rows = [line.split(" | ") for line in _readme_section(
        "What it does").splitlines() if line.startswith("| `")]
    table = {(key.strip("| `"), required == "yes"):
             set(modes) if mode.strip(" |") == "both" else {mode.strip(" |`")}
             for key, _, required, mode in rows}
    assert table == want
