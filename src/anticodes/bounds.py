"""Bound arithmetic: Griesmer sums, the floor-sum lower bound on diameters
of projective codes, Kleitman's binary anticode bound, and optimality
lookup.

Everything is exact integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

from functools import cache

from .linear import decimal_limit, prints_in_decimal


def griesmer_sum(q: int, k: int, d: int) -> int:
    """g_q(k, d) = sum of ceil(d / q^i) for i = 0..k-1."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    return sum(-(-d // q ** i) for i in range(k))


def griesmer(q: int, k: int, d: int, n: int):
    """(sum, defect): defect = n - g_q(k, d), >= 0 for any actual code."""
    s = griesmer_sum(q, k, d)
    return s, n - s


def antigriesmer_sum(q: int, k: int, delta: int) -> int:
    """Sum of floor(delta / q^i) for i = 0..k-1."""
    return sum(delta // q ** i for i in range(k))


def antigriesmer(q: int, k: int, delta: int, n: int):
    """(sum, defect, holds): the diameter floor-sum bound for projective
    codes with n < q^(k-1); computed regardless, flagged by the caller."""
    s = antigriesmer_sum(q, k, delta)
    return s, s - n, s >= n


def plotkin_anticode_floor(q: int, n: int) -> int:
    """ceil((1 - 1/q) * n): every projective anticode diameter reaches it."""
    return -(-(q - 1) * n // q)


def erdos_kleitman(n: int, delta: int) -> int | None:
    """Kleitman's bound on a binary anticode of length n and diameter delta
    (JCT 1, 1966): for delta < n, the sum of C(n, i), i <= delta/2, if
    delta is even and twice that of C(n-1, i), i <= (delta-1)/2, if it is
    odd; 2^n for delta = n. Each binomial comes from the last. None once a
    sum has more decimal digits than a result may (``decimal_limit``)."""
    if not 0 <= delta <= n:
        raise ValueError("need 0 <= delta <= n")
    if delta == n:
        return 1 << n if prints_in_decimal(2, n) else None
    cap = 10 ** decimal_limit()
    m, term = (n, 1) if delta % 2 == 0 else (n - 1, 2)
    total = 0
    for i in range(delta // 2 + 1):
        total += term
        if total >= cap:
            return None
        term = term * (m - i) // (i + 1)
    return total


def bounds_report(q: int, n: int, k: int, d: int, delta: int) -> dict:
    """The bounds of an [n, k, d]_q code of diameter delta, as printed:
    the Griesmer and antiGriesmer sums and defects; whether the
    antiGriesmer bound ``antigriesmer_holds`` and applies
    (``antigriesmer_applicable``: n < q^(k-1)); the Plotkin anticode
    floor; the Erdos-Kleitman bound ``ek_bound`` (binary only, None
    otherwise and past the decimal limit); and ``prop_delta_ge_k``."""
    ek = erdos_kleitman(n, delta) if q == 2 else None
    gs, gd = griesmer(q, k, d, n)
    ags, agd, holds = antigriesmer(q, k, delta, n)
    return {
        "q": q, "n": n, "k": k, "d": d, "delta": delta,
        "griesmer_sum": gs, "griesmer_defect": gd,
        "antigriesmer_sum": ags, "antigriesmer_defect": agd,
        "antigriesmer_holds": holds,
        "antigriesmer_applicable": n < q ** (k - 1),
        "plotkin_anticode_floor": plotkin_anticode_floor(q, n),
        "ek_bound": ek,
        "prop_delta_ge_k": delta >= k,
    }


# ----------------------------------------------------------------------
# best-known minimum distances (static, literature-cited entries only)
# ----------------------------------------------------------------------

@cache
def best_known_table() -> dict:
    """{(q, n, k): d_best} loaded from the bundled data file, once."""
    from importlib import resources         # here, to keep start-up light
    table = {}
    text = resources.files("anticodes.data").joinpath("best_known.csv").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        q, n, k, d_best, tag = line.split(",")
        key = (int(q), int(n), int(k))
        val = int(d_best)
        if key in table and table[key] != val:
            raise ValueError(f"conflicting best-known entries for {key}")
        table[key] = val
    return table


def classify_optimality(n: int, k: int, q: int, d: int) -> dict:
    """{"status": "optimal" | "almost_optimal" | "distance_to_best" |
    "unknown", "best": d_best, "distance_to_best": d_best - d}, holding
    only the entries the status has. Never guesses: unknown when the
    table has no entry for (q, n, k)."""
    best = best_known_table().get((q, n, k))
    if best is None:
        return {"status": "unknown"}
    if d == best:
        return {"status": "optimal", "best": best}
    if d == best - 1:
        return {"status": "almost_optimal", "best": best}
    return {"status": "distance_to_best", "best": best,
            "distance_to_best": best - d}
