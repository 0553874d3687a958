"""Full per-code analysis report: parameters, distribution, bound defects,
projectivity and minimality verdicts, and optimality classification.

Exact minimality over its cap (``MINIMAL_CAP``) is reported as the string
"skipped" rather than failing the whole report. The distribution has no
such fallback: over ``ENUM_CAP`` it raises ``CapExceeded``, unless the
code came from a code file with a cached distribution, which is then
reported with ``distribution_verified`` False.
"""

from __future__ import annotations

from .bounds import bounds_report, classify_optimality
from .linear import CapExceeded, LinearCode

SKIPPED = "skipped"


def code_report(code: LinearCode) -> dict:
    """The report of ``code`` as printed, in this key order: n, k, q, d,
    delta, the number of nonzero weights t, the nonzero ``weights``, the
    ``distribution`` {str(w): A_w}, ``projective``, ``minimal_exact``
    (True, False or "skipped"), ``minimal_witness`` (None, or the
    covered and the covering codeword as two lists),
    ``ab_criterion``, ``bounds`` (``bounds_report``), ``optimality``
    (``classify_optimality``), ``label`` (and ``distribution_verified``
    False, for a claim over the enumeration cap)."""
    try:
        minimal, witness = code.is_minimal_exact()
    except CapExceeded:
        minimal, witness = SKIPPED, None
    wd = code.weight_distribution()
    d, delta = wd.min_weight, wd.max_weight
    q = code.field.q
    report = {
        "n": code.n, "k": code.k, "q": q,
        "d": d, "delta": delta, "t": wd.num_weights,
        "weights": wd.nonzero_weights(),
        "distribution": {str(w): c for w, c in wd.counts.items()},
        "projective": code.is_projective(),
        "minimal_exact": minimal,
        "minimal_witness": None if witness is None
                           else [list(c) for c in witness],
        "ab_criterion": code.ab_criterion(),
        "bounds": bounds_report(q, code.n, code.k, d, delta),
        "optimality": classify_optimality(code.n, code.k, q, d),
        "label": code.label,
    }
    if not code.distribution_verified:
        report["distribution_verified"] = False
    return report
