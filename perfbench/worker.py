"""Workload process: set up, report readiness, then run rounds of CLI jobs.

Set-up is what every CLI command pays: interpreter start, ``import
anticodes`` and ``gf.field_make`` for each field the workload uses. The
process prints ``ready`` on stdout when set-up is done; the parent times
start-to-ready. Jobs then run in a closed loop (one client, the next job
starts when the previous one returns), each through ``anticodes.cli.main``
in this process with stdout captured in memory. A job's stdout is saved
to the round directory after its timer stops, for the parent to check.

Before each job the process times ``reference_work``, a fixed pure-Python
loop, so the parent can express job times in units of the host's speed at
that moment. When the plan asks for set-up samples, the process also
starts set-up-only processes at evenly spaced times of the run, between
jobs, and times each from start to ready while it waits.

Usage (started by run.py):
    worker.py --src SRC --fields 2:1,2:8 --setup-only
    worker.py --src SRC --fields 2:1,2:8 --plan PLAN.json
"""

import argparse
import contextlib
import io
import json
import math
import os
import select
import subprocess
import sys
import time
import traceback


SETUP_LIMIT_S = 60                # a worker not ready by then is killed
SETUP_MAX = 50                    # set-up samples at most in one run
REF_ITERATIONS = 20000            # 3 to 4.5 ms of pure-Python work
REF_TABLE = tuple((i * 7919) % 65521 for i in range(256))


def reference_work(n=REF_ITERATIONS):
    """A fixed loop of the interpreter work the program does: integer
    arithmetic, tuple indexing, a branch."""
    t, acc = REF_TABLE, 1
    for i in range(n):
        acc = (acc * 31 + t[(acc ^ i) & 255]) % 65521
        if acc & 1:
            acc += i
    return acc


def time_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def start_worker(cmd, cwd=None):
    """Start a worker; returns (process, seconds from start to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=cwd, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], SETUP_LIMIT_S)
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def time_setup(cmd):
    """Run a set-up-only worker; returns seconds from start to ready."""
    proc, ready = start_worker(cmd)
    proc.wait()
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return ready


class SetupSampler:
    """Takes set-up samples at evenly spaced points of the run's clock, each
    with the mean of a reference loop timed just before and just after it.

    It takes ``count`` samples, or more when set-up is quick: as many as
    fill ``budget_s`` at the first sample's speed, up to ``SETUP_MAX``.
    The run's clock leaves out the time spent sampling, so the jobs get
    the same ``seconds`` whatever set-up costs."""

    def __init__(self, cmd, count, budget_s, seconds):
        self.cmd, self.count, self.budget_s = cmd, count, budget_s
        self.seconds = seconds
        self.start = time.perf_counter()
        self.spent = 0.0
        self.samples = []
        self.refs = []

    def elapsed(self):
        return time.perf_counter() - self.start - self.spent

    def sample(self):
        t0 = time.perf_counter()
        before = time_reference()
        self.samples.append(time_setup(self.cmd))
        self.refs.append((before + time_reference()) / 2)
        self.spent += time.perf_counter() - t0
        if len(self.samples) == 1:
            fit = math.ceil(self.budget_s / self.samples[0])
            self.count = max(self.count, min(fit, SETUP_MAX))

    def maybe_sample(self):
        step = self.seconds / max(self.count, 1)
        if len(self.samples) < self.count and \
                self.elapsed() >= len(self.samples) * step:
            self.sample()

    def finish(self):
        while len(self.samples) < self.count:
            self.sample()


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--fields", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--plan")
    return ap.parse_args()


def set_up(args, tracer=None):
    sys.path.insert(0, args.src)
    import anticodes.cli
    from anticodes import gf
    if not os.path.abspath(anticodes.cli.__file__).startswith(
            os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"anticodes imported from outside {args.src}")
    if tracer is not None:
        tracer.install("span")
    for pe in args.fields.split(","):
        p, e = pe.split(":")
        gf.field_make(int(p), int(e))
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    return anticodes.cli, gf


def run_job(cli, argv):
    """(exit code or None, wall seconds, stdout, traceback or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc, error = None, traceback.format_exc()
    return rc, time.perf_counter() - t0, out.getvalue(), error


def run_round(cli, plan, r, hard_stop, sampler, tracer=None):
    """Run the job list once; returns the job records."""
    round_dir = os.path.join(plan["run_dir"], f"r{r}")
    os.makedirs(round_dir)
    records = []
    for i, argv in enumerate(plan["jobs"]):
        if time.perf_counter() > hard_stop:
            break
        argv = [a.replace("{round}", round_dir) for a in argv]
        sampler.maybe_sample()
        ref = time_reference()
        if tracer is not None:
            tracer.job = f"r{r}.j{i}"
        rc, wall, stdout, error = run_job(cli, argv)
        with open(os.path.join(round_dir, f"job{i}.out"), "w") as fh:
            fh.write(stdout)
        records.append({"round": r, "job": i, "rc": rc, "wall_s": wall,
                        "ref_s": ref, "error": error})
    return records


def round_mode(r, tracing):
    """Untraced, or with tracing: an untraced warm-up round, one round
    counting GF operations, then span and untraced rounds in turn, so
    spans and their untraced comparison both run with warm caches."""
    if not tracing or r == 0 or (r >= 2 and r % 2 == 1):
        return "untraced"
    return "count" if r == 1 else "span"


def main():
    args = parse_args()
    if args.setup_only:
        set_up(args)
        return 0
    with open(args.plan) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer(plan["trace_out"])
    cli, gf = set_up(args, tracer)

    setup_cmd = [sys.executable, os.path.abspath(__file__), "--src", args.src,
                 "--fields", args.fields, "--setup-only"]
    sampler = SetupSampler(setup_cmd, plan["setup_samples"],
                           plan["setup_budget_s"], plan["seconds"])
    hard_stop = sampler.start + plan["hard_limit_s"]
    records, rounds = [], []
    r = 0
    while True:
        mode = round_mode(r, tracer is not None)
        active = tracer if mode != "untraced" else None
        if active is not None:
            active.install(mode)
        try:
            recs = run_round(cli, plan, r, hard_stop, sampler, active)
        finally:
            if active is not None:
                active.uninstall()
        records += recs
        # the round's job time in reference loops, for trace.overhead_ratio
        rounds.append({"mode": mode,
                       "cost": sum(rec["wall_s"] / rec["ref_s"] for rec in recs),
                       "complete": len(recs) == len(plan["jobs"])})
        r += 1
        if time.perf_counter() > hard_stop:
            break
        if sampler.elapsed() >= plan["seconds"] and (
                tracer is None or (r >= 4 and mode == "untraced")):
            break

    sampler.finish()
    result = {"jobs": records, "rounds": rounds, "setups": sampler.samples,
              "setup_refs": sampler.refs}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(rounds, gf, plan["per_layer"])
        tracer.write()
    with open(os.path.join(plan["run_dir"], "worker.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
