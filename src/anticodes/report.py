"""Full per-code analysis report: parameters, distribution, bound defects,
projectivity and minimality verdicts, and optimality classification.

Anything blocked by an enumeration cap is reported as the string "skipped"
rather than failing the whole report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BoundsReport, bounds_report, classify_optimality
from .linear import CapExceeded, LinearCode

SKIPPED = "skipped"


@dataclass
class CodeReport:
    n: int
    k: int
    q: int
    d: int
    delta: int
    t: int
    weights: list
    distribution: dict
    projective: bool
    minimal_exact: object        # bool | "skipped"
    minimal_witness: tuple | None
    ab_criterion: bool
    bounds: BoundsReport
    optimality: dict
    label: str = ""

    def to_dict(self):
        d = dict(self.__dict__)
        d["distribution"] = {str(w): c for w, c in self.distribution.items()}
        d["bounds"] = self.bounds.to_dict()
        if self.minimal_witness is not None:
            d["minimal_witness"] = [list(c) for c in self.minimal_witness]
        return d


def code_report(code: LinearCode, best_known=None) -> CodeReport:
    try:
        minimal, witness = code.is_minimal_exact()
    except CapExceeded:
        minimal, witness = SKIPPED, None
    wd = code.weight_distribution()
    d, delta = wd.min_weight, wd.max_weight
    opt = classify_optimality(code.n, code.k, code.field.q, d, table=best_known)
    return CodeReport(
        n=code.n, k=code.k, q=code.field.q,
        d=d, delta=delta, t=wd.num_weights,
        weights=wd.nonzero_weights(),
        distribution=dict(wd.counts),
        projective=code.is_projective(),
        minimal_exact=minimal,
        minimal_witness=witness,
        ab_criterion=code.ab_criterion(),
        bounds=bounds_report(code.field.q, code.n, code.k, d, delta),
        optimality=opt.to_dict(),
        label=code.label,
    )
