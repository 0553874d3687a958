"""The benchmark's workloads: seeded inputs, job lists and exact checks.

A workload is a fixed list of CLI commands (one *round*). Its inputs are
files generated here from the seed; the program sees only those files.
Each job carries an exact check of its output, against the references in
``reference.py`` or against earlier jobs of the same round.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))


class Mismatch(Exception):
    """An output differs from what the check expects."""


def expect(cond, message: str):
    if not cond:
        raise Mismatch(message)


@dataclass
class Job:
    """One CLI command. ``{round}`` in argv is the round's working directory.

    ``check(stdout, round_dir, values)`` raises Mismatch or returns a value
    that later jobs of the round read from ``values[key]``.
    """
    key: str
    argv: list
    rc: int
    check: Callable


@dataclass
class JobOutput:
    rc: object          # int exit code, or None when main() raised
    stdout: str
    error: str | None   # traceback of an exception escaping main()


def check_round(jobs, outputs, round_dir) -> dict:
    """{job index: reason} for every job of one round that is not correct.

    ``outputs`` maps job index to JobOutput for the jobs that ran.
    """
    failures, values = {}, {}
    for i, job in enumerate(jobs):
        out = outputs.get(i)
        if out is None:
            continue
        try:
            expect(out.error is None, f"exception: {out.error}")
            expect(out.rc == job.rc, f"exit code {out.rc}, expected {job.rc}")
            values[job.key] = job.check(out.stdout, round_dir, values)
        except Mismatch as exc:
            failures[i] = str(exc)
        except Exception as exc:  # malformed output: a failed job, not a crash
            failures[i] = f"{type(exc).__name__}: {exc}"
    return failures


def needed(values: dict, key: str):
    expect(key in values, f"reference job {key} did not pass")
    return values[key]


def int_counts(d: dict) -> dict:
    return dict(sorted((int(w), c) for w, c in d.items()))


def write_code(path, p, e, modulus, rows, label):
    doc = {"format": "linear-code",
           "field": {"p": p, "e": e, "modulus": modulus},
           "n": len(rows[0]), "k": len(rows), "label": label,
           "generator": rows}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_json_file(path):
    expect(os.path.exists(path), f"{os.path.basename(path)} was not written")
    with open(path) as fh:
        return json.load(fh)


def check_report(rep, q, n, k, counts=None, minimal=None) -> dict:
    """Consistency of an ``analyze`` report; returns its distribution."""
    expect((rep["q"], rep["n"], rep["k"]) == (q, n, k),
           f"report is [{rep['n']},{rep['k']}]_{rep['q']}, "
           f"expected [{n},{k}]_{q}")
    dist = int_counts(rep["distribution"])
    errors = ref.moment_errors(dist, q, n, k)
    expect(not errors, "; ".join(errors))
    if counts is not None:
        expect(dist == counts, f"distribution {dist} != reference {counts}")
    weights = [w for w in dist if w]
    expect(rep["weights"] == weights, "weights disagree with distribution")
    expect((rep["d"], rep["delta"], rep["t"])
           == (weights[0], weights[-1], len(weights)), "d/delta/t wrong")
    expect(rep["projective"] is True, "projective code reported non-projective")
    ab = q * weights[0] > (q - 1) * weights[-1]
    expect(rep["ab_criterion"] is ab, "ab_criterion wrong")
    verdict = rep["minimal_exact"]
    expect(verdict in (True, False), f"minimal_exact is {verdict!r}")
    expect(verdict or not ab, "q*d > (q-1)*delta but reported non-minimal")
    if minimal is not None:
        expect(verdict is minimal, f"minimal_exact {verdict}, expected {minimal}")
    if verdict is False:
        small, big = rep["minimal_witness"]
        expect(len(small) == len(big) == n, "witness length")
        expect(all(b for a, b in zip(small, big) if a),
               "witness supports are not nested")
    return dist


def permuted_and_mixed(rows, n, rng) -> list:
    """An equivalent binary code: random column permutation, then an
    invertible random row mix. Rows are bitmasks; returns 0/1 lists."""
    k = len(rows)
    cols = ref.columns_of(rows, n)
    rng.shuffle(cols)
    rows = ref.rows_of(cols, k)
    while True:
        mix = [rng.getrandbits(k) for _ in range(k)]
        if len(ref.row_basis(mix)) == k:
            break
    mixed = []
    for m in mix:
        r = 0
        for i in range(k):
            if m >> i & 1:
                r ^= rows[i]
        mixed.append(r)
    return [[(r >> j) & 1 for j in range(n)] for r in mixed]


class Workload:
    name = ""
    fields: list = []          # (p, e) pairs the jobs use; made during set-up

    def jobs(self, seed: int, input_dir: str) -> list:
        raise NotImplementedError


# ----------------------------------------------------------------------

class AnticodeQary(Workload):
    name = "anticode-qary"
    # (q, p, e, canonical modulus, k of S, lift K, |S|): q^K <= 4096 and
    # complement length <= ~400 keep every job near or under a second.
    INSTANCES = [
        (3, 3, 1, [0, 1], 5, 6, 40),
        (4, 2, 2, [1, 1, 1], 4, 5, 30),
        (5, 5, 1, [0, 1], 3, 4, 15),
        (7, 7, 1, [0, 1], 3, 4, 20),
        (8, 2, 3, [1, 0, 1, 1], 3, 3, 10),
        (9, 3, 2, [1, 0, 1], 3, 3, 12),
    ]
    fields = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]

    @staticmethod
    def point_set(rng, q, k, size) -> list:
        """``size`` distinct canonical points of PG(k-1, q) that span it:
        the k unit vectors plus random points (first nonzero entry 1)."""
        pts = {tuple(int(i == j) for i in range(k)) for j in range(k)}
        while len(pts) < size:
            lead = rng.randrange(k)
            pts.add(tuple([0] * lead + [1] +
                          [rng.randrange(q) for _ in range(k - lead - 1)]))
        pts = sorted(pts)
        rng.shuffle(pts)
        return pts

    def jobs(self, seed, input_dir):
        rng = random.Random(seed)
        jobs = []
        for q, p, e, modulus, k, K, size in self.INSTANCES:
            pts = self.point_set(rng, q, k, size)
            src = os.path.join(input_dir, f"S{q}.json")
            write_code(src, p, e, modulus,
                       [[pt[i] for pt in pts] for i in range(k)],
                       f"points(q={q},k={k})")
            comp = os.path.join("{round}", f"C{q}.json")
            jobs += self.instance_jobs(q, k, K, size, src, comp)
        return jobs

    @staticmethod
    def instance_jobs(q, k, K, size, src, comp):
        n_comp = (q ** K - 1) // (q - 1) - size
        tag = f"q{q}"

        def analyze_s(stdout, round_dir, values):
            return check_report(json.loads(stdout), q, size, k)

        def wd_transform(stdout, round_dir, values):
            data = json.loads(stdout)
            counts = int_counts(data["counts"])
            want_n, want = ref.transform(needed(values, f"analyze-S-{tag}"),
                                         q, size, k, K)
            expect((data["q"], data["n"], data["k"]) == (q, want_n, K),
                   "wd-transform parameters")
            expect(counts == want, f"transform {counts} != {want}")
            expect(data["d"] == min(w for w in counts if w), "wd-transform d")
            errors = ref.moment_errors(counts, q, n_comp, K)
            expect(not errors, "; ".join(errors))
            return counts

        def complement(stdout, round_dir, values):
            doc = load_json_file(comp.replace("{round}", round_dir))
            expect(doc["format"] == "linear-code", "complement format")
            expect((doc["n"], doc["k"]) == (n_comp, K),
                   f"complement is [{doc['n']},{doc['k']}], "
                   f"expected [{n_comp},{K}]")
            expect(len(doc["generator"]) == K and
                   all(len(r) == n_comp for r in doc["generator"]),
                   "complement generator shape")
            counts = int_counts(doc["weight_distribution"])
            errors = ref.moment_errors(counts, q, n_comp, K)
            expect(not errors, "; ".join(errors))
            expect(counts == needed(values, f"wd-S-{tag}"),
                   "complement distribution != wd-transform")
            return counts

        def analyze_c(stdout, round_dir, values):
            return check_report(json.loads(stdout), q, n_comp, K,
                                counts=needed(values, f"complement-{tag}"))

        return [
            Job(f"analyze-S-{tag}", ["analyze", src], 0, analyze_s),
            Job(f"wd-S-{tag}", ["wd-transform", src, "--K", str(K)], 0,
                wd_transform),
            Job(f"complement-{tag}", ["complement", src, "--K", str(K),
                                      "--out", comp], 0, complement),
            Job(f"analyze-C-{tag}", ["analyze", comp], 0, analyze_c),
        ]


# ----------------------------------------------------------------------

class BinaryCertify(Workload):
    name = "binary-certify"
    fields = [(2, 1), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 10)]
    BUILDS = [("dual-bch", 5), ("dual-bch", 7), ("kasami", 3), ("kasami", 4),
              ("kasami", 5)]
    EQUIVALENT = [("dual-bch", 3), ("dual-bch", 5), ("kasami", 2),
                  ("kasami", 3), ("kasami", 4)]
    # complements (K = k of the base) that certify, with the walk lengths
    CERTIFY = [(("dual-bch", 3), (3, 5, 7)), (("kasami", 2), (3, 5, 7)),
               (("kasami", 3), (3,)), (("dual-bch", 5), (3,))]
    RANDOM_K = (16, 17, 18)
    RANDOM_N = 40

    @staticmethod
    def reference_code(family, m):
        return ref.dual_bch_rows(m) if family == "dual-bch" \
            else ref.kasami_rows(m)

    def jobs(self, seed, input_dir):
        rng = random.Random(seed)
        codes = {fm: self.reference_code(*fm)
                 for fm in set(self.BUILDS) | set(self.EQUIVALENT)}
        dists = {fm: ref.binary_distribution(rows)
                 for fm, (n, rows) in codes.items()}
        jobs = []
        for family, m in self.BUILDS:
            jobs.append(self.construct_job(family, m, *codes[family, m],
                                           dists[family, m]))
        eq_files = {}
        for family, m in self.EQUIVALENT:
            n, rows = codes[family, m]
            path = os.path.join(input_dir, f"eq-{family}-{m}.json")
            write_code(path, 2, 1, [0, 1], permuted_and_mixed(rows, n, rng),
                       f"equivalent {family}({m})")
            eq_files[family, m] = path
            jobs.append(self.analyze_job(path, n, len(rows), dists[family, m],
                                         ref.binary_minimal(rows,
                                                            dists[family, m])))
        for (family, m), walk_lengths in self.CERTIFY:
            n, rows = codes[family, m]
            k = len(rows)
            used = set(ref.columns_of(rows, n))
            comp_cols = [v for v in range(1, 1 << k) if v not in used]
            comp_rows = ref.rows_of(comp_cols, k)
            path = os.path.join(input_dir, f"comp-{family}-{m}.json")
            write_code(path, 2, 1, [0, 1],
                       permuted_and_mixed(comp_rows, len(comp_cols), rng),
                       f"complement {family}({m})")
            dist = ref.binary_distribution(comp_rows)
            for l in walk_lengths:
                walks = ref.walk_counts(comp_cols, k, l) if k <= 6 else None
                jobs.append(self.swrg_job(path, len(comp_cols), k, l, dist,
                                          walks, "is_l_swrg", 0))
        n, rows = codes["kasami", 2]
        jobs.append(self.swrg_job(eq_files["kasami", 2], n, len(rows), 3,
                                  dists["kasami", 2],
                                  ref.walk_counts(ref.columns_of(rows, n),
                                                  len(rows), 3),
                                  "not_l_swrg", 1))
        for k in self.RANDOM_K:
            n = self.RANDOM_N
            while True:
                cols = rng.sample(range(1, 1 << k), n)
                rows = ref.rows_of(cols, k)
                if len(ref.row_basis(rows)) == k:
                    break
            path = os.path.join(input_dir, f"random-k{k}.json")
            write_code(path, 2, 1, [0, 1],
                       [[(r >> j) & 1 for j in range(n)] for r in rows],
                       f"random binary k={k}")
            jobs.append(self.wd_job(path, n, k, ref.binary_distribution(rows)))
        return jobs

    @staticmethod
    def construct_job(family, m, n, rows, dist):
        k = len(rows)
        out = os.path.join("{round}", f"{family}-{m}.json")

        def check(stdout, round_dir, values):
            doc = load_json_file(out.replace("{round}", round_dir))
            expect(doc["field"]["p"] == 2 and doc["field"]["e"] == 1,
                   "construct field")
            expect((doc["n"], doc["k"]) == (n, k),
                   f"[{doc['n']},{doc['k']}] != [{n},{k}]")
            expect(len(doc["generator"]) == k, "generator rows")
            counts = int_counts(doc["weight_distribution"])
            expect(counts == dist, f"distribution {counts} != {dist}")
            return counts

        return Job(f"construct-{family}-{m}",
                   ["construct", family, "--m", str(m), "--out", out], 0, check)

    @staticmethod
    def analyze_job(path, n, k, dist, minimal):
        def check(stdout, round_dir, values):
            return check_report(json.loads(stdout), 2, n, k, counts=dist,
                                minimal=minimal)
        return Job(f"analyze-{os.path.basename(path)}", ["analyze", path], 0,
                   check)

    @staticmethod
    def swrg_job(path, n, k, l, dist, walks, verdict, rc):
        weights = [w for w in dist if w]

        def check(stdout, round_dir, values):
            cert = json.loads(stdout)
            expect(cert["verdict"] == verdict,
                   f"verdict {cert['verdict']}, expected {verdict}")
            expect((cert["n"], cert["k"], cert["l"]) == (n, k, l),
                   "certificate parameters")
            expect(cert["weights"] == weights, "certificate weights")
            counts = cert["walk_counts"]
            if walks is not None:
                expect(counts == (list(walks) if walks else None),
                       f"walk counts {counts} != {walks}")
            if verdict == "is_l_swrg":
                expect(cert["root_equation_holds"] is True, "root equation")
                if l == 3:
                    want = list(ref.analytic_l3(n, k, weights[0]))
                    expect(cert["analytic_l3"] == want,
                           f"analytic_l3 {cert['analytic_l3']} != {want}")
                    expect(counts == want, f"walk counts {counts} != {want}")
            return cert["verdict"]
        return Job(f"swrg-{os.path.basename(path)}-l{l}",
                   ["swrg-verify", path, "--l", str(l)], rc, check)

    @staticmethod
    def wd_job(path, n, k, dist):
        want_n, want = ref.transform(dist, 2, n, k, k)

        def check(stdout, round_dir, values):
            data = json.loads(stdout)
            counts = int_counts(data["counts"])
            expect((data["q"], data["n"], data["k"]) == (2, want_n, k),
                   "wd-transform parameters")
            expect(counts == want, f"transform {counts} != {want}")
            expect(data["d"] == min(w for w in want if w), "wd-transform d")
            return counts
        return Job(f"wd-{os.path.basename(path)}",
                   ["wd-transform", path, "--K", str(k)], 0, check)


# ----------------------------------------------------------------------

class Catalog(Workload):
    name = "catalog"
    fields = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 1), (5, 1)]
    MANIFEST = os.path.join(HERE, "data", "catalog_manifest.json")
    JOBS = 2
    # verdicts at the commit that defined this benchmark: every other id passes
    NOT_PASSING = {"comp-rs-2-5-antigriesmer": "known-discrepancy"}

    def jobs(self, seed, input_dir):
        with open(self.MANIFEST) as fh:
            entries = json.load(fh)["entries"]
        random.Random(seed).shuffle(entries)
        path = os.path.join(input_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump({"entries": entries}, fh)
        ids = [e["id"] for e in entries]
        want = {i: self.NOT_PASSING.get(i, "pass") for i in ids}
        summary = {"total": len(ids), "failed": 0,
                   "passed": sum(v == "pass" for v in want.values()),
                   "known_discrepancy": sum(v == "known-discrepancy"
                                            for v in want.values())}

        def check(stdout, round_dir, values):
            doc = json.loads(stdout)
            expect(doc["summary"] == summary,
                   f"summary {doc['summary']} != {summary}")
            got = [(r["id"], r["verdict"]) for r in doc["results"]]
            expect([i for i, _ in got] == ids, "results not in manifest order")
            bad = [(i, v) for i, v in got if v != want[i]]
            expect(not bad, f"verdicts differ: {bad}")
            return summary
        return [Job("catalog-verify",
                    ["catalog", "verify", "--jobs", str(self.JOBS),
                     "--format", "json", "--manifest", path], 0, check)]


WORKLOADS = {w.name: w for w in (AnticodeQary(), BinaryCertify(), Catalog())}
