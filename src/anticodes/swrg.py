"""Coset graphs of binary projective codes and strong walk-regularity.

The graph is realized as the Cayley graph on the k-dimensional binary
message space with the generator columns as connection set; for projective
codes this is isomorphic to the coset graph of the dual code, without
materializing 2^n cosets. Walk counts come from its characters: the
Walsh-Hadamard transform of the connection set's indicator gives every
eigenvalue, and the inverse transform of their l-th powers gives the
number of length-l walks from 0 to every vertex, in O(k 2^k) exact
integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .linear import CapExceeded, CodeError, LinearCode, WeightDistribution

VERTEX_CAP = 1 << 16
# bits of the walk-count transform: 2^k entries of about l * log2(n) bits
WALK_CAP = 1 << 24


class CosetGraph:
    """Cayley graph on F_2^k with the generator columns as connection set."""

    def __init__(self, code: LinearCode):
        if code.field.q != 2:
            raise CodeError("coset graph needs a binary code")
        if not code.is_projective():
            raise CodeError("coset graph needs a projective code")
        if 1 << code.k > VERTEX_CAP:
            raise CapExceeded(f"2^{code.k} vertices over the cap")
        self.code = code
        self.k = code.k
        self.vertex_count = 1 << code.k
        self.degree = code.n
        cols = code.generator.columns()
        self.connection_set = sorted(
            sum(x << i for i, x in enumerate(col)) for col in cols)
        if len(set(self.connection_set)) != code.n or 0 in self.connection_set:
            raise CodeError("connection set is not n distinct nonzero vectors")


def spectrum_from_wd(wd: WeightDistribution) -> dict:
    """{eigenvalue n - 2w: multiplicity A_w}, including w = 0."""
    if wd.q != 2:
        raise CodeError("spectrum formula is for binary codes")
    return {wd.n - 2 * w: c for w, c in sorted(wd.counts.items())}


def walk_counts(graph: CosetGraph, l: int):
    """((lambda_l, mu_l, nu_l), witness): counts of length-l walks between
    adjacent / non-adjacent / identical vertex pairs.

    The graph is vertex-transitive, so row 0 of A^l determines all pairs;
    witness is a pair of vertices with differing counts when the three
    classes are not constant, in which case the count triple is None.
    """
    if l < 3 or l % 2 == 0:
        raise CodeError(f"need odd l >= 3, got {l}")
    size = graph.vertex_count * l * graph.degree.bit_length()
    if size > WALK_CAP:
        raise CapExceeded(
            f"walk-count transform of {size} bits (2^k * l * bits of n) "
            f"over the cap")
    spectrum = [0] * graph.vertex_count
    for s in graph.connection_set:
        spectrum[s] = 1
    spectrum = [x ** l for x in _walsh_hadamard(spectrum)]
    w = _walsh_hadamard(spectrum)           # 2^k times the walk counts
    assert not any(x & graph.vertex_count - 1 for x in w), "inexact division"
    w = [x >> graph.k for x in w]
    conn = set(graph.connection_set)
    lam = {w[v] for v in conn}
    mu = {w[v] for v in range(1, graph.vertex_count) if v not in conn}
    nu = w[0]
    if len(lam) > 1 or len(mu) > 1:
        bad = lam if len(lam) > 1 else mu
        pool = conn if len(lam) > 1 else set(range(1, graph.vertex_count)) - conn
        picks = sorted(v for v in pool if w[v] in bad)[:2]
        return None, (picks[0], picks[1])
    return (lam.pop(), mu.pop() if mu else 0, nu), None


def _walsh_hadamard(values):
    """sum_x values[x] (-1)^(x.y) for every y, exactly.

    Each pass takes the butterfly over the top index bit and interleaves
    the halves, which moves that bit to the bottom; k passes treat every bit
    once and restore the order.
    """
    half = len(values) // 2
    out = list(values)
    for _ in range(half.bit_length()):
        low, high = out[:half], out[half:]
        out[::2] = map(add, low, high)
        out[1::2] = map(sub, low, high)
    return out


@dataclass
class SwrgCertificate:
    l: int
    n: int
    k: int
    weights: list
    spectrum: dict
    conditions_weight_sum: bool   # w1 + w2 + w3 = 3n/2
    conditions_middle: bool       # w2 = n/2
    walk_counts: tuple | None     # (lambda_l, mu_l, nu_l) by transform
    analytic_l3: tuple | None     # closed form, l = 3 only
    root_equation_holds: bool | None
    verdict: str                  # is_l_swrg | not_l_swrg | conditions_unmet
    witness: tuple | None = None

    def to_dict(self):
        d = dict(self.__dict__)
        d["spectrum"] = {str(ev): m for ev, m in self.spectrum.items()}
        return d


def analytic_parameters_l3(n: int, k: int, w1: int):
    """(lambda_3, mu_3, nu_3) closed forms for the w2 = n/2 family."""
    mu = 4 * n * w1 * (n - w1)
    if mu % (1 << k):
        raise CodeError("analytic mu_3 is not an integer for these parameters")
    mu //= 1 << k
    return mu + (n - 2 * w1) ** 2, mu, mu


def verify_swrg(code: LinearCode, l: int = 3) -> SwrgCertificate:
    """Certify l-strong-walk-regularity of the coset graph of a binary
    three-weight projective code, analytically and by brute force."""
    wd = code.weight_distribution()
    weights = wd.nonzero_weights()
    if len(weights) != 3:
        raise CodeError(f"need a three-weight code, got {len(weights)} weights")
    w1, w2, w3 = weights
    n, k = code.n, code.k
    graph = CosetGraph(code)
    counts, witness = walk_counts(graph, l)
    cond_sum = 2 * (w1 + w2 + w3) == 3 * n
    cond_mid = 2 * w2 == n

    analytic = None
    if l == 3 and cond_sum:
        analytic = analytic_parameters_l3(n, k, w1)

    root_eq = None
    if counts is not None:
        lam, mu, nu = counts
        root_eq = all(
            x ** l + (mu - lam) * x + (mu - nu) == 0
            for x in (n - 2 * w1, n - 2 * w2, n - 2 * w3))

    if counts is None:
        verdict = "not_l_swrg"
    elif l == 3 and analytic is not None and counts != analytic:
        verdict = "not_l_swrg"
    elif not cond_sum and not cond_mid:
        # constant counts found anyway; record but flag the unmet conditions
        verdict = "conditions_unmet"
    else:
        verdict = "is_l_swrg"

    return SwrgCertificate(
        l=l, n=n, k=k, weights=weights,
        spectrum=spectrum_from_wd(wd),
        conditions_weight_sum=cond_sum,
        conditions_middle=cond_mid,
        walk_counts=counts,
        analytic_l3=analytic,
        root_equation_holds=root_eq,
        verdict=verdict,
        witness=witness,
    )
