"""Independent reference results for the benchmark's output checks.

Nothing here imports ``anticodes``: the binary trace codes are rebuilt
from their definitions with this module's own GF(2^m) tables (a different
modulus and column order than the program's, so the codes are equivalent,
not identical), and every distribution is enumerated with plain integer
bitmasks. All arithmetic is exact.
"""

from __future__ import annotations

# Primitive polynomials over GF(2), bit i = coefficient of x^i.
PRIMITIVE = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    10: 0b10000001001,
}


class BinaryField:
    """GF(2^m) as the powers alpha^i of a root of a primitive polynomial,
    with the absolute trace of each power."""

    def __init__(self, m: int):
        q = 1 << m
        exp = []
        x = 1
        for _ in range(q - 1):
            exp.append(x)
            x <<= 1
            if x & q:
                x ^= PRIMITIVE[m]
        if x != 1 or len(set(exp)) != q - 1:
            raise ValueError(f"polynomial for m={m} is not primitive")
        self.order = q - 1
        self.exp = exp
        # absolute trace of alpha^i: sum of alpha^(i * 2^j), j < m
        self.trace_of_power = []
        for i in range(q - 1):
            t = 0
            for j in range(m):
                t ^= exp[(i << j) % (q - 1)]
            if t not in (0, 1):
                raise ValueError("trace left the prime field")
            self.trace_of_power.append(t)

    def trace_row(self, j: int, e: int) -> int:
        """Bitmask over the columns x = alpha^i of Tr(alpha^j * x^e)."""
        tr, order = self.trace_of_power, self.order
        mask = 0
        for i in range(order):
            if tr[(j + e * i) % order]:
                mask |= 1 << i
        return mask


def row_basis(rows) -> list:
    """Echelon basis (top-bit pivots, descending) of the span of bitmask rows."""
    basis = []
    for r in rows:
        for b in basis:
            if r >> (b.bit_length() - 1) & 1:
                r ^= b
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return basis


def dual_bch_rows(m: int) -> tuple:
    """(n, rows) of the [2^m - 1, 2m] code Tr(a x + b x^3)."""
    f = BinaryField(m)
    rows = [f.trace_row(j, 1) for j in range(m)] + \
           [f.trace_row(j, 3) for j in range(m)]
    return f.order, row_basis(rows)


def kasami_rows(m: int) -> tuple:
    """(n, rows) of the [2^(2m) - 1, 3m] code Tr(b x) + Tr_m(a x^(2^m + 1)).

    Tr_2m(c y) over c in GF(2^2m) gives every Tr_m(a y) for y in the
    subfield, so the second block is spanned by Tr_2m(alpha^j x^(2^m+1)).
    """
    f = BinaryField(2 * m)
    rows = [f.trace_row(j, 1) for j in range(2 * m)] + \
           [f.trace_row(j, (1 << m) + 1) for j in range(2 * m)]
    basis = row_basis(rows)
    if len(basis) != 3 * m:
        raise ValueError(f"kasami({m}) reference has rank {len(basis)}")
    return f.order, basis


def columns_of(rows, n: int) -> list:
    """Column j as the integer sum of bit j of row i, shifted by i."""
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows))
            for j in range(n)]


def rows_of(columns, k: int) -> list:
    return [sum(((c >> i) & 1) << j for j, c in enumerate(columns))
            for i in range(k)]


def binary_distribution(rows) -> dict:
    """Exact weight distribution by a Gray-code walk over all messages."""
    counts = {0: 1}
    word = 0
    for msg in range(1, 1 << len(rows)):
        word ^= rows[(msg & -msg).bit_length() - 1]
        w = word.bit_count()
        counts[w] = counts.get(w, 0) + 1
    return dict(sorted(counts.items()))


def binary_minimal(rows, counts) -> bool:
    """Minimality verdict: the q*d > (q-1)*delta criterion when it holds,
    otherwise a pairwise support check (only for small codes)."""
    weights = [w for w in counts if w]
    if 2 * min(weights) > max(weights):
        return True
    if len(rows) > 8:
        raise ValueError("pairwise minimality reference limited to k <= 8")
    words = [0]
    for r in rows:
        words += [w ^ r for w in words]
    words = [w for w in words if w]
    return not any(a != b and a & b == a for a in words for b in words)


def transform(counts: dict, q: int, n: int, k: int, K: int) -> tuple:
    """(n', counts') of the complement in dimension K, from the base alone."""
    full = q ** (K - 1)
    out = {0: 1}
    for w, c in counts.items():
        if w:
            out[full - w] = out.get(full - w, 0) + q ** (K - k) * c
    if K > k:
        out[full] = out.get(full, 0) + q ** (K - k) - 1
    return (q ** K - 1) // (q - 1) - n, dict(sorted(out.items()))


def moment_errors(counts: dict, q: int, n: int, k: int) -> list:
    """Identities every projective [n, k]_q distribution satisfies."""
    errors = []
    if sum(counts.values()) != q ** k:
        errors.append(f"sum A_w = {sum(counts.values())} != q^k = {q ** k}")
    if counts.get(0) != 1:
        errors.append(f"A_0 = {counts.get(0)} != 1")
    bad = [w for w, c in counts.items() if w and c % (q - 1)]
    if bad:
        errors.append(f"(q-1) does not divide A_w for w in {bad}")
    if any(w < 0 or w > n for w in counts):
        errors.append("weight outside [0, n]")
    first = sum(w * c for w, c in counts.items())
    if first != n * (q - 1) * q ** (k - 1):
        errors.append(f"sum w A_w = {first} != n(q-1)q^(k-1)")
    if k >= 2:
        second = sum(w * w * c for w, c in counts.items())
        want = (n * (q - 1) * q ** (k - 1)
                + n * (n - 1) * (q - 1) ** 2 * q ** (k - 2))
        if second != want:
            errors.append(f"sum w^2 A_w = {second} != {want} (projective)")
    return errors


def walk_counts(columns, k: int, l: int):
    """(lambda, mu, nu) of length-l walks in the Cayley graph on F_2^k with
    the columns as connection set, or None when they are not constant."""
    size = 1 << k
    w = [0] * size
    w[0] = 1
    for _ in range(l):
        nxt = [0] * size
        for v, c in enumerate(w):
            if c:
                for s in columns:
                    nxt[v ^ s] += c
        w = nxt
    conn = set(columns)
    lam = {w[v] for v in conn}
    mu = {w[v] for v in range(1, size) if v not in conn}
    if len(lam) != 1 or len(mu) > 1:
        return None
    return lam.pop(), (mu.pop() if mu else 0), w[0]


def analytic_l3(n: int, k: int, w1: int) -> tuple:
    """Closed-form (lambda_3, mu_3, nu_3) for three-weight codes with
    middle weight n/2."""
    mu, rem = divmod(4 * n * w1 * (n - w1), 1 << k)
    if rem:
        raise ValueError("analytic mu_3 is not an integer")
    return mu + (n - 2 * w1) ** 2, mu, mu
