"""Strong walk-regularity of coset graphs, certified from a weight
distribution.

The coset graph of the dual of a binary projective [n, k] code is the
Cayley graph on F_2^k with the generator columns as connection set. Its
eigenvalues are n - 2 wt(c) over the codewords c, so a three-weight code
with weights w1 < w2 < w3 gives four: n > theta1 > theta2 > theta3 with
theta_i = n - 2 w_i. Such a connected regular graph is l-strongly
walk-regular (the number of length-l walks between two vertices depends
only on whether they are equal, adjacent or neither) iff the three points
(theta_i, theta_i^l) are collinear (van Dam-Omidi, "Strongly walk-regular
graphs", JCTA 120, 2013; Shi-Sole, "Three-weight codes, triple sum sets,
and strongly walk regular graphs", DCC 87, 2019). The test and the walk
counts cost O(1) big-integer operations.
"""

from __future__ import annotations

from . import linear
from .linear import CapExceeded, CodeError, LinearCode, WeightDistribution

# bits of n^l, the largest power the certificate takes
WALK_CAP = 1 << 24


def _check_walk_length(l: int, n: int):
    if l < 3 or l % 2 == 0:
        raise CodeError(f"need odd l >= 3, got {l}")
    size = l * n.bit_length()
    if size > WALK_CAP:
        raise CapExceeded(f"n^l of {size} bits (l * bits of n) over the cap")


def _check_printable(n: int, l: int):
    """CapExceeded when a number of the l-certificate of a length-n code
    could have more decimal digits than ``linear.decimal_limit()``, so the
    certificate could not be written out, or not in reasonable time.

    Each |theta_i| is at most n, so every walk count and the collinearity
    determinant is below 8 n^(l+1).
    """
    if not linear.prints_in_decimal(n, l + 1, 3):
        raise CapExceeded(
            f"walk counts for l={l}, n={n} could exceed "
            f"{linear.decimal_limit()} decimal digits, over the cap of "
            "integer printing (PYTHONINTMAXSTRDIGITS)")


def spectrum_from_wd(wd: WeightDistribution) -> dict:
    """{eigenvalue n - 2w: multiplicity A_w}, including w = 0."""
    if wd.q != 2:
        raise CodeError("spectrum formula is for binary codes")
    return {wd.n - 2 * w: c for w, c in sorted(wd.counts.items())}


def certificate(wd: WeightDistribution, l: int) -> dict:
    """The l-SWRG certificate of the coset graph of a binary projective
    three-weight [n, k] code with distribution ``wd``.

    The graph is connected because a ``LinearCode`` refuses a rank-deficient
    generator, so its columns span F_2^k. With e_i = theta_i = n - 2 w_i,
    the points (e_i, e_i^l) are collinear iff
    D = (e2 - e3) e1^l + (e3 - e1) e2^l + (e1 - e2) e3^l is 0. Then
    e^l = s e + t on the three, A^l - sA - tI vanishes off the all-ones
    eigenvector and equals mu J with mu = (n^l - s n - t) / 2^k, and the
    walk counts between adjacent, non-adjacent and identical vertices are
    (s + mu, mu, t + mu).

    The certificate, in its printed key order: l, n, k, the nonzero
    ``weights``, the ``spectrum`` {str(n - 2w): A_w},
    ``conditions_weight_sum`` (w1 + w2 + w3 = 3n/2), ``conditions_middle``
    (w2 = n/2), ``walk_counts`` (lambda_l, mu_l, nu_l) or None,
    ``analytic_l3`` (the walk counts when l = 3, else None),
    ``root_equation_holds``, the ``verdict`` (is_l_swrg, not_l_swrg, or
    conditions_unmet when the counts are constant but neither condition
    holds) and the ``witness``, the collinearity determinant D when it is
    nonzero, else None.
    """
    if wd.q != 2:
        raise CodeError("coset graph needs a binary code")
    _check_walk_length(l, wd.n)
    weights = wd.nonzero_weights()
    if len(weights) != 3:
        raise CodeError(f"need a three-weight code, got {len(weights)} weights")
    n, k = wd.n, wd.k
    thetas = [n - 2 * w for w in weights]
    powers = [e ** l for e in thetas]
    (e1, e2, e3), (p1, p2, p3) = thetas, powers
    det = (e2 - e3) * p1 + (e3 - e1) * p2 + (e1 - e2) * p3
    counts = root_eq = None
    if det == 0:
        s = (p1 - p2) // (e1 - e2)
        t = p1 - s * e1
        mu, rem = divmod(n ** l - s * n - t, 1 << k)
        if rem:
            raise CodeError(f"mu_{l} is not an integer: {wd!r} is not the "
                            "distribution of a projective code")
        counts = (s + mu, mu, t + mu)
        root_eq = all(p - s * e - t == 0 for e, p in zip(thetas, powers))
    cond_sum = 2 * sum(weights) == 3 * n
    cond_mid = 2 * weights[1] == n

    if counts is None:
        verdict = "not_l_swrg"
    elif not cond_sum and not cond_mid:
        verdict = "conditions_unmet"
    else:
        verdict = "is_l_swrg"

    return {
        "l": l, "n": n, "k": k, "weights": weights,
        "spectrum": {str(ev): m for ev, m in spectrum_from_wd(wd).items()},
        "conditions_weight_sum": cond_sum,
        "conditions_middle": cond_mid,
        "walk_counts": counts,
        "analytic_l3": counts if l == 3 else None,
        "root_equation_holds": root_eq,
        "verdict": verdict,
        "witness": det or None,
    }


def verify_swrg(code: LinearCode, l: int = 3) -> dict:
    """Certify l-strong-walk-regularity of the coset graph of a binary
    three-weight projective code from its counted weight distribution.

    Over the enumeration cap nothing would check a distribution cached in
    a code file, so the code must be under it. The field, ``l``, printing
    and cap checks are made before the distribution is counted; then
    projectivity is read off the counted distribution, so a non-projective
    code is refused after the walk, which the cap bounds.
    """
    if code.field.q != 2:
        raise CodeError("coset graph needs a binary code")
    _check_walk_length(l, code.n)
    _check_printable(code.n, l)
    if 2 ** code.k > linear._cap("ENUM_CAP"):
        raise CapExceeded(f"q^k = {2 ** code.k} exceeds enumeration cap, "
                          "so the weight distribution cannot be counted")
    if not code.is_projective():
        raise CodeError("coset graph needs a projective code")
    return certificate(code.weight_distribution(), l)
