"""Self-tests of the benchmark: the checks catch altered outputs, a tiny job
list runs end to end in seconds, and a tree without the program is refused.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
import worker

sys.path.insert(0, run.SRC)
from anticodes import cli  # noqa: E402

# Fast jobs only: each workload keeps its cross-checked chains whole.
SMOKE = {
    "anticode-qary": lambda key: key.endswith(("q3", "q5")),
    "binary-certify": lambda key: not any(
        s in key for s in ("kasami-4", "kasami-5", "k17", "k18")),
    "catalog": lambda key: True,
}


def smoke_round(name, tmp_path):
    """(jobs, outputs, round_dir) of one round of the workload's fast jobs."""
    input_dir, round_dir = tmp_path / "inputs", tmp_path / "r0"
    input_dir.mkdir()
    round_dir.mkdir()
    jobs = [j for j in wl.WORKLOADS[name].jobs(7, str(input_dir))
            if SMOKE[name](j.key)]
    outputs = {}
    for i, job in enumerate(jobs):
        argv = [a.replace("{round}", str(round_dir)) for a in job.argv]
        rc, _, stdout, error = worker.run_job(cli, argv)
        outputs[i] = wl.JobOutput(rc, stdout, error)
    return jobs, outputs, str(round_dir)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_round_passes_every_check(name, tmp_path):
    jobs, outputs, round_dir = smoke_round(name, tmp_path)
    assert jobs
    assert wl.check_round(jobs, outputs, round_dir) == {}


def altered(outputs, i, **change):
    out = dict(outputs)
    out[i] = wl.JobOutput(**{**vars(outputs[i]), **change})
    return out


def index_of(jobs, prefix):
    return next(i for i, j in enumerate(jobs) if j.key.startswith(prefix))


def test_count_off_by_one_fails(tmp_path):
    jobs, outputs, round_dir = smoke_round("anticode-qary", tmp_path)
    i = index_of(jobs, "wd-S-q3")
    doc = json.loads(outputs[i].stdout)
    w = max(doc["counts"], key=int)
    doc["counts"][w] += 1
    bad = altered(outputs, i, stdout=json.dumps(doc))
    assert set(wl.check_round(jobs, bad, round_dir)) >= {i}


def test_complement_file_with_changed_distribution_fails(tmp_path):
    jobs, outputs, round_dir = smoke_round("anticode-qary", tmp_path)
    i = index_of(jobs, "complement-q5")
    path = os.path.join(round_dir, "C5.json")
    with open(path) as fh:
        doc = json.load(fh)
    # move one codeword between weights: sums still hold, moments do not
    counts = doc["weight_distribution"]
    low, high = sorted((w for w in counts if w != "0"), key=int)[:2]
    counts[low] -= 4
    counts[high] += 4
    with open(path, "w") as fh:
        json.dump(doc, fh)
    failures = wl.check_round(jobs, outputs, round_dir)
    assert i in failures
    # the analyze job that reads the file depends on it and fails too
    assert index_of(jobs, "analyze-C-q5") in failures


def test_wrong_exit_code_fails(tmp_path):
    jobs, outputs, round_dir = smoke_round("binary-certify", tmp_path)
    i = index_of(jobs, "swrg-eq-kasami-2")     # expected exit 1
    assert jobs[i].rc == 1
    bad = altered(outputs, i, rc=0)
    assert set(wl.check_round(jobs, bad, round_dir)) == {i}


def test_swapped_swrg_verdict_fails(tmp_path):
    jobs, outputs, round_dir = smoke_round("binary-certify", tmp_path)
    i = index_of(jobs, "swrg-comp-dual-bch-3")
    doc = json.loads(outputs[i].stdout)
    doc["verdict"] = "not_l_swrg"
    bad = altered(outputs, i, stdout=json.dumps(doc))
    assert set(wl.check_round(jobs, bad, round_dir)) == {i}


def test_swapped_minimality_verdict_fails(tmp_path):
    jobs, outputs, round_dir = smoke_round("binary-certify", tmp_path)
    i = index_of(jobs, "analyze-eq-dual-bch-3")
    doc = json.loads(outputs[i].stdout)
    assert doc["minimal_exact"] is False
    doc["minimal_exact"], doc["minimal_witness"] = True, None
    bad = altered(outputs, i, stdout=json.dumps(doc))
    assert set(wl.check_round(jobs, bad, round_dir)) == {i}


def test_swapped_catalog_verdict_fails(tmp_path):
    jobs, outputs, round_dir = smoke_round("catalog", tmp_path)
    doc = json.loads(outputs[0].stdout)
    row = next(r for r in doc["results"] if r["verdict"] == "pass")
    row["verdict"] = "known-discrepancy"
    bad = altered(outputs, 0, stdout=json.dumps(doc))
    assert set(wl.check_round(jobs, bad, round_dir)) == {0}


def test_exception_in_main_fails(tmp_path):
    jobs, outputs, round_dir = smoke_round("catalog", tmp_path)
    bad = altered(outputs, 0, rc=None, error="Traceback: boom")
    assert set(wl.check_round(jobs, bad, round_dir)) == {0}


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == sorted(wl.WORKLOADS)


def test_same_seed_same_inputs(tmp_path):
    for name, workload in wl.WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        workload.jobs(3, str(a))
        workload.jobs(3, str(b))
        for f in os.listdir(a):
            assert (a / f).read_bytes() == (b / f).read_bytes()


def test_tail_percentile_has_ten_samples_beyond():
    assert run.tail(list(range(9))) is None
    assert run.tail(list(range(40))) == (75, 29, 10)
    assert run.tail(list(range(100))) == (90, 89, 10)


def test_costs_divide_out_a_slow_phase():
    # the same job at half the host's speed costs the same reference loops
    fast = [{"job": 0, "wall_s": 1.0, "ref_s": 0.002}]
    slow = [{"job": 0, "wall_s": 2.0, "ref_s": 0.004}]
    assert run.job_costs(fast) == run.job_costs(slow) == {0: 500.0}
    rounds = [{"job": j, "wall_s": w, "ref_s": 0.001}
              for j, w in ((0, 0.3), (1, 0.5), (0, 0.2), (1, 0.6), (0, 0.9))]
    assert run.job_costs(rounds) == {0: pytest.approx(300),
                                     1: pytest.approx(550)}
    # set-up: 50 and 100 reference loops, median 75, at the nominal loop
    assert run.setup_seconds([0.1, 0.4], [0.002, 0.004]) == \
        pytest.approx(75 * run.REF_NOMINAL_S)


def result_line(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_catalog_run_end_to_end(trace):
    proc, lines = result_line(["--workload", "catalog", "--seed", "5",
                               "--seconds", "0.1", "--trace", trace], run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = result_line(["--workload", "catalog", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
