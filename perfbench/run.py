"""anticodes benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``.

One run generates the workload's inputs from the seed, then starts one
workload process (``worker.py``) that sets up and runs the workload's job
list in whole rounds, in a closed loop with one client, until ``--seconds``
have passed. Every job's exit code and output is checked exactly
(``workloads.py``).

``--trace 0`` reports the end-to-end metrics that ``BENCHMARK.json``
lists (names and units are read from there):

- ``setup_s``: start of a workload process until it is ready for its first
  job (interpreter start, ``import anticodes``, ``gf.field_make`` for each
  field the jobs use), from set-up-only processes spread over the run, at
  a fixed host speed (see ``setup_seconds``).
- ``peak_rss_mib``: peak resident memory of the workload process.
- ``job_cost``: the geometric mean over the job list of each job's time
  in units of a fixed reference loop timed next to it (see ``job_costs``).
  Every job weighs the same, whether it takes 2 ms or 5 s.

It also prints, not gated (see README.md for why): ``jobs_per_s``,
``job_s.p50`` and ``job_s.tail`` over every run of every job, and
``fail_ratio`` (failed over attempted jobs, also in the result line as
``failed`` and ``attempted``).

``--trace 1`` alternates untraced and traced rounds in one process and
reports the per-layer metrics that ``BENCHMARK.json`` lists, per traced
round, and writes the spans to ``perfbench/out/trace-<workload>.jsonl``.

The last line of stdout is the JSON result. Exit status is 0 when a
result was produced, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time

import workloads as wl
from worker import start_worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 11                # set-up-only processes spread over a run,
SETUP_BUDGET_S = 5                # or more if they fit in this many seconds
REF_WINDOW = 2                    # reference loops on each side of a job
REF_NOMINAL_S = 0.004             # typical reference-loop time on the host
                                  # the benchmark was defined on (2 cores)
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
HARD_LIMIT_S = 120                # the worker starts no job after this
RUN_LIMIT_S = 170                 # the worker is killed after this


def load_spec():
    """BENCHMARK.json: the metric names and units of both kinds of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tail(sorted_values):
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least TAIL_BEYOND samples beyond it, or None. The value is the
    order statistic at that percentile."""
    best = None
    n = len(sorted_values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= TAIL_BEYOND:
            best = (pct, sorted_values[rank - 1], n - rank)
    return best


def job_costs(records):
    """{job: its median time over the run's rounds, in reference loops}.

    Each run of a job is divided by the median reference-loop time of the
    runs around it (REF_WINDOW before and after), so a slow phase of the
    host slows the job and its yardstick alike. The host switches between
    a fast and a slow state for seconds at a time, so the median over the
    rounds is steadier than the best, which depends on whether a fast
    phase happened to occur."""
    refs = [rec["ref_s"] for rec in records]
    costs = {}
    for g, rec in enumerate(records):
        ref = statistics.median(refs[max(0, g - REF_WINDOW):g + REF_WINDOW + 1])
        costs.setdefault(rec["job"], []).append(rec["wall_s"] / ref)
    return {job: statistics.median(c) for job, c in costs.items()}


def setup_seconds(setups, refs):
    """Set-up time on a host where the reference loop takes REF_NOMINAL_S:
    the median over the samples of set-up time divided by the reference
    loop timed around it, times REF_NOMINAL_S."""
    return statistics.median(s / r for s, r in zip(setups, refs)) * REF_NOMINAL_S


def worker_cmd(workload, *extra):
    fields = ",".join(f"{p}:{e}" for p, e in workload.fields)
    return [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
            "--fields", fields, *extra]


def finish(proc, deadline):
    """Wait for a worker; returns its rusage. Kills it past the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}")
            return usage
        if time.perf_counter() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker ran past the run limit")
        time.sleep(0.02)


def check_outputs(jobs, records, run_dir):
    """{(round, job): reason} for every job that is not correct."""
    by_round = {}
    for rec in records:
        by_round.setdefault(rec["round"], {})[rec["job"]] = rec
    failures = {}
    for r, recs in sorted(by_round.items()):
        round_dir = os.path.join(run_dir, f"r{r}")
        outputs = {}
        for i, rec in recs.items():
            with open(os.path.join(round_dir, f"job{i}.out")) as fh:
                outputs[i] = wl.JobOutput(rec["rc"], fh.read(), rec["error"])
        for i, reason in wl.check_round(jobs, outputs, round_dir).items():
            failures[r, i] = reason
    return failures


def run(workload, seed, seconds, trace, run_dir, spec):
    """Generate, run and check one workload; returns (result dict, lines)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    input_dir = os.path.join(run_dir, "inputs")
    os.makedirs(input_dir)
    jobs = workload.jobs(seed, input_dir)
    plan = {"jobs": [j.argv for j in jobs], "run_dir": run_dir,
            "seconds": seconds, "hard_limit_s": HARD_LIMIT_S, "trace": trace,
            "setup_samples": 0 if trace else SETUP_SAMPLES,
            "setup_budget_s": 0 if trace else SETUP_BUDGET_S,
            "trace_out": os.path.join(OUT, f"trace-{workload.name}.jsonl"),
            "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)

    proc, ready = start_worker(worker_cmd(workload, "--plan", plan_path), ROOT)
    try:
        usage = finish(proc, deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    with open(os.path.join(run_dir, "worker.json")) as fh:
        result = json.load(fh)

    records = result["jobs"]
    if not records:
        raise RuntimeError("the workload process ran no job")
    failures = check_outputs(jobs, records, run_dir)
    attempted, failed = len(records), len(failures)
    lines = [f"workload {workload.name}  seed {seed}  seconds {seconds}  "
             f"trace {trace}  rounds {len(result['rounds'])}  "
             f"jobs/round {len(jobs)}"]
    for (r, i), reason in sorted(failures.items())[:20]:
        lines.append(f"FAILED round {r} job {i} ({jobs[i].key}): "
                     f"{reason[:300]}")
    lines.append(f"fail_ratio     {failed / attempted:<12.6g} "
                 f"({failed} failed / {attempted} attempted)")

    if trace:
        layers = result["layers"]
        metrics = layers["metrics"]
        lines.append(f"per-layer metrics, per traced round "
                     f"({layers['per_round_of']} traced rounds):")
        for name, m in metrics.items():
            base = layers["bases"].get(name)
            lines.append(f"  {name:36s} {m['value']:<14.6g} {m['unit']}"
                         + (f"  ({base})" if base else ""))
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}, lines

    setups, setup_refs = result["setups"], result["setup_refs"]
    walls = sorted(rec["wall_s"] for rec in records)
    costs = job_costs(records)
    reps = min(sum(rec["job"] == j for rec in records) for j in costs)
    refs = [rec["ref_s"] for rec in records]
    pct, tail_value, beyond = tail(walls) or (100, walls[-1], 0)
    values = {
        "setup_s": (setup_seconds(setups, setup_refs), "s",
                    f"{len(setups)} set-ups spread over the run, at a "
                    f"reference loop of {REF_NOMINAL_S * 1e3:g} ms; as timed, "
                    f"median {statistics.median(setups):.4f} s, workload "
                    f"process {ready:.4f} s"),
        "peak_rss_mib": (usage.ru_maxrss / 1024, "MiB",
                         "workload process ru_maxrss"),
        "job_cost": (statistics.geometric_mean(costs.values()), "ref",
                     f"geometric mean over {len(costs)} jobs, each the "
                     f"median of >= {reps} runs; reference loop median "
                     f"{statistics.median(refs) * 1e3:.3f} ms, "
                     f"{len(refs)} samples"),
        "jobs_per_s": (len(walls) / sum(walls), "1/s",
                       f"{len(walls)} jobs in {sum(walls):.3f} s"),
        "job_s.p50": (statistics.median(walls), "s", f"{len(walls)} samples"),
        "job_s.tail": (tail_value, "s", f"p{pct}, {len(walls)} samples, "
                                        f"{beyond} beyond"),
    }
    gated = {m["name"] for m in spec["end_to_end"]}
    for name, (value, unit, detail) in values.items():
        note = "" if name in gated else "not gated; "
        lines.append(f"{name:14s} {value:<12.6g} {unit:4s} ({note}{detail})")
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "anticodes", "__init__.py")):
        print(f"error: no anticodes package under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        result, lines = run(wl.WORKLOADS[args.workload], args.seed,
                            args.seconds, args.trace, run_dir, spec)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
