"""Explicit generator-matrix constructions: simplex codes and the codes
obtained by deleting a projective column set from them, moment-curve and
trivial-MDS complements, fixed-weight column codes, two-subspace and
elliptic-quadric codes, the two trace-code families, and concatenation
with the binary simplex inner code.

Column orderings are fixed everywhere so every construction is
byte-reproducible. The points of PG(K-1, q) are in the order of
``gf.simplex_columns``, and ``gf.point_position`` finds a point in it.
"""

from __future__ import annotations

from itertools import chain, combinations

from .gf import (GF, FieldError, _evaluate, _size, field_make,
                 field_of_order, simplex_columns)
from .linear import (CodeError, LinearCode, WeightDistribution,
                     decimal_limit, point_positions, prints_in_decimal)

LENGTH_CAP = 1 << 20


def _check_length(n: int, what: str) -> None:
    """CodeError for a code of length n over ``LENGTH_CAP``: each builder
    calls it with the length its parameters give, before any column."""
    if n > LENGTH_CAP:
        raise CodeError(f"{what} length {_size(n)} over the cap")


# ----------------------------------------------------------------------
# simplex and complements
# ----------------------------------------------------------------------

def _check_lift(K: int, what: str) -> None:
    """CodeError for a K over ``LENGTH_CAP`` whatever q is, before any
    power of q is formed: PG(K-1, q) less fewer than q^(K-1) of its points
    keeps at least 1 + 2 + ... + 2^(K-2) + 1 = 2^(K-1) of them."""
    if K > LENGTH_CAP.bit_length():
        raise CodeError(f"{what} length 2^{K - 1}+ over the cap")


def _simplex_cut(field: GF, K: int, deleted, label: str) -> LinearCode:
    """The code on the points of PG(K-1, q) less the sorted positions
    ``deleted``, length-checked first."""
    _check_lift(K, label)
    _check_length((field.q ** K - 1) // (field.q - 1) - len(deleted), label)
    return LinearCode.from_column_matrix(
        field, simplex_columns(field, K, deleted), label=label)


def simplex(q: int, k: int) -> LinearCode:
    if k < 1:
        raise CodeError(f"simplex needs k >= 1, got k={k}")
    return _simplex_cut(field_of_order(q), k, (), f"simplex({q},{k})")


def complement(source: LinearCode, K: int) -> LinearCode:
    """Delete the source's column set from the dimension-K simplex columns.

    A point set is the code on those columns (``LinearCode.from_columns``).
    For K above the source's ambient dimension the points are embedded by
    prefixing zeros, which keeps their positions.
    """
    field = source.field
    ambient = source.column_points
    if ambient is None or ambient[0] > K >= source.k:
        # no ambient columns, or redundant ambient coordinates: use
        # coordinates in the row-space basis instead
        ambient = source.k, zip(*source.generator.rows)
    dim, columns = ambient
    positions = point_positions(field, columns)
    if K < dim:
        raise CodeError(f"lift dimension {K} below ambient dimension {dim}")
    label = f"complement({source.label or 'points'}, K={K})"
    _check_lift(K, label)
    n = len(positions)
    if n >= field.q ** (K - 1):
        raise CodeError(f"complement needs n < q^(K-1), got n={n}, K={K}")
    code = _simplex_cut(field, K, sorted(positions), label)
    if code.k != K:
        raise CodeError(f"complement rank {code.k} != {K}")
    return code


def transform_wd(base: WeightDistribution, K: int) -> WeightDistribution:
    """Weight distribution of the complement, lifted to dimension K, from
    the base distribution alone: each nonzero base weight w contributes
    q^(K-k) * A_w at weight q^(K-1) - w, plus q^(K-k) - 1 full-weight
    codewords when K > k. Every number of the result is below q^K, which
    is checked against the decimal limit before any power is formed."""
    q, k = base.q, base.k
    if K < k:
        raise CodeError(f"K={K} below base dimension {k}")
    if not prints_in_decimal(q, K):
        raise CodeError(
            f"K={K}: counts up to {q}^{K} could exceed {decimal_limit()} decimal "
            "digits, over the cap of integer printing (PYTHONINTMAXSTRDIGITS)")
    full = q ** (K - 1)
    counts = {0: 1}
    for w, c in base.counts.items():
        if w == 0:
            continue
        counts[full - w] = counts.get(full - w, 0) + q ** (K - k) * c
    if K > k:
        counts[full] = counts.get(full, 0) + q ** (K - k) - 1
    n = (q ** K - 1) // (q - 1) - base.n
    return WeightDistribution(q, n, K, counts)


# ----------------------------------------------------------------------
# moment-curve (Reed-Solomon) and trivial MDS complements
# ----------------------------------------------------------------------

def moment_curve_points(q: int, k: int) -> LinearCode:
    """The code on the q points (1, a, a^2, ..., a^(k-1)), a in GF(q).

    The set always has q points and spans min(k, q) dimensions: for k > q
    it lies in a proper subspace of PG(k-1, q).
    """
    if k < 2:
        raise CodeError("need k >= 2 for a projective point set")
    field = field_of_order(q)
    pts = [tuple(field.pow(a, i) for i in range(k)) for a in range(q)]
    return LinearCode.from_columns(field, pts)


def rs_code(q: int, k: int) -> LinearCode:
    """[q, k, q+1-k]_q evaluation code on the moment curve."""
    if not 2 <= k <= q:
        raise CodeError(f"rs_code needs 2 <= k <= q, got k={k}, q={q}")
    code = moment_curve_points(q, k)
    if code.k != k:
        raise CodeError("moment-curve matrix lost rank")
    code.label = f"rs({q},{k})"
    return code


def complementary_rs(q: int, k: int, h: int = 0) -> LinearCode:
    """Simplex minus the moment curve: [(q^(k+h)-1)/(q-1) - q, k+h]_q.

    For k <= q (and h = 0) the weights are {q^(k-1) - w : q-k+1 <= w <= q},
    the RS complement weight set. k > q is allowed, but then the curve has
    only q points spanning q dimensions and that set does not apply: every
    weight is q^(k-1) minus the number of curve points off a hyperplane.
    """
    if h < 0:
        raise CodeError("lift h must be >= 0")
    label = f"comp-rs({q},{k},h={h})"
    _check_lift(k + h, label)
    if k >= 2:          # else moment_curve_points refuses k, before q
        field_of_order(q)
        # the length from the parameters, before the q points are built
        _check_length((q ** (k + h) - 1) // (q - 1) - q, label)
    code = complement(moment_curve_points(q, k), K=k + h)
    code.label = label
    return code


def complementary_mds_trivial(q: int, k: int, h: int = 0) -> LinearCode:
    """Simplex minus the k identity columns (the trivial [k,k,1]_q code)."""
    if k < 2:
        raise CodeError("need k >= 2")
    label = f"comp-mds({q},{k},h={h})"
    _check_lift(k + h, label)
    field = field_of_order(q)
    ident = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    code = complement(LinearCode.from_columns(field, ident), K=k + h)
    code.label = label
    return code


# ----------------------------------------------------------------------
# fixed-weight binary columns
# ----------------------------------------------------------------------

def fixed_weight_anticode(k: int, w: int) -> LinearCode:
    """Binary code generated by all weight-w columns of length k, in
    lexicographic order. Rank is k-1 for even w and k for odd w."""
    if not 2 <= w <= k - 1:
        raise CodeError(f"need 2 <= w <= k-1, got w={w}, k={k}")
    label = f"fixed-weight({k},{w})"
    # C(k, j + 1) = C(k, j)(k - j)/(j + 1) up to j = w, or to j = 65 only:
    # C(k, 65) >= 2^65 when 65 <= k/2, and ``_check_length`` prints a
    # length past 64 bits as a power of 2 below it
    n = 1
    for j in range(min(w, k - w, 65)):
        n = n * (k - j) // (j + 1)
    _check_length(n, label)
    cols = sorted(tuple(1 if i in pos else 0 for i in range(k))
                  for pos in combinations(range(k), w))
    return LinearCode.from_columns(field_make(2, 1), cols, label=label)


# ----------------------------------------------------------------------
# two-subspace and elliptic-quadric codes in dimension 4
# ----------------------------------------------------------------------

def two_subspace_code(q: int) -> LinearCode:
    """Columns = projective points of the two complementary planes
    (*,*,0,0) and (0,0,*,*): a [2q+2, 4, q]_q two-weight code."""
    field = field_of_order(q)
    line = [(0, 1)] + [(1, a) for a in range(q)]       # the points of PG(1, q)
    points = [(0, 0) + p for p in line] + [p + (0, 0) for p in line]
    code = LinearCode.from_columns(field, sorted(points),
                                   label=f"two-subspace({q})")
    if code.k != 4:
        raise CodeError("two-subspace rank != 4")
    return code


def smallest_irreducible_quadratic(field: GF):
    """(c0, c1) with x^2 + c1*x + c0 irreducible over the field, minimal in
    the (c0, c1) ordering; tested by exhaustive root check."""
    for c0 in range(field.q):
        for c1 in range(field.q):
            if all(_evaluate(field, (c0, c1, 1), x) for x in range(field.q)):
                return c0, c1
    raise FieldError("no irreducible quadratic found")


def ovoid_code(q: int) -> LinearCode:
    """Columns = the q^2+1 points of the elliptic quadric
    x0*x1 = f(x2, x3) with f an irreducible binary quadratic form."""
    field = field_of_order(q)
    _check_length(q * q + 1, f"ovoid({q})")
    c0, c1 = smallest_irreducible_quadratic(field)

    def norm_form(a, b):
        return field.add(
            field.add(field.mul(a, a), field.mul(c1, field.mul(a, b))),
            field.mul(c0, field.mul(b, b)))

    # f has no zero but (0, 0), so a point with x0 = 0 is (0, 1, 0, 0); the
    # others are (1, f(a, b), a, b)
    points = [(0, 1, 0, 0)] + [(1, norm_form(a, b), a, b)
                               for a in range(q) for b in range(q)]
    code = LinearCode.from_columns(field, sorted(points),
                                   label=f"ovoid({q})")
    if code.k != 4:
        raise CodeError("ovoid rank != 4")
    return code


# ----------------------------------------------------------------------
# trace-code families
# ----------------------------------------------------------------------

def _trace(field: GF, x: int, m: int) -> int:
    """x + x^p + ... + x^(p^(m-1)) in field. For x in the degree-m
    subfield this is that subfield's absolute trace, a prime-field code."""
    t = 0
    for _ in range(m):
        t = field.add(t, x)
        x = field.pow(x, field.p)
    return t


def _trace_masks(field: GF):
    """Masks of the absolute trace of GF(2^e) on its polynomial basis:
    bit i of mask j is Tr(x^j * x^i). The trace is GF(2)-linear, so
    Tr(x^j * y) is the parity of y & mask j for every element code y."""
    return [sum(_trace(field, field.mul(1 << j, 1 << i), field.e) << i
                for i in range(field.e))
            for j in range(field.e)]


def _trace_rows(masks, values):
    """One row per mask: the traces Tr(x^j * y) over the values y."""
    return [[(y & mask).bit_count() & 1 for y in values] for mask in masks]


def dual_bch_code(m: int) -> LinearCode:
    """[2^m - 1, 2m]_2 code with coordinates Tr(a*x + b*x^3) over the
    nonzero field elements x; m must be odd."""
    if m < 3 or m % 2 == 0:
        raise CodeError(f"need odd m >= 3, got {m}")
    amb = field_make(2, m)
    xs = range(1, amb.q)
    cubes = [amb.pow(x, 3) for x in xs]
    masks = _trace_masks(amb)
    # a = x^j, b = 0; then a = 0, b = x^j
    rows = _trace_rows(masks, xs) + _trace_rows(masks, cubes)
    return LinearCode.from_generator(field_make(2, 1), rows,
                                     label=f"dual-bch(m={m})")


def kasami_code(m: int) -> LinearCode:
    """[2^(2m) - 1, 3m]_2 code with coordinates
    Tr(b*x) + Tr_m(a * x^(2^m + 1)), x over the nonzero ambient elements,
    b ranging over GF(2^(2m)) and a over its GF(2^m) subfield.

    GF(2^m) is built only for its modulus. The subfield is its image
    that sends x to beta, the smallest root of that modulus in
    GF(2^(2m)), so its basis element x^j is beta^j. The norm
    x^(2^m + 1) lies in the subfield, and so does beta^j times it, whose
    Tr_m is ``_trace(amb, ., m)``."""
    if m < 2:
        raise CodeError(f"need m >= 2, got {m}")
    amb = field_make(2, 2 * m)
    xs = range(1, amb.q)
    modulus = field_make(2, m).modulus
    beta = next(x for x in xs if not _evaluate(amb, modulus, x))
    basis = [amb.pow(beta, j) for j in range(m)]
    # the norm takes 2^m - 1 values, each traced once
    norms = [amb.pow(x, (1 << m) + 1) for x in xs]
    traces = {v: [_trace(amb, amb.mul(b, v), m) for b in basis]
              for v in set(norms)}
    # b = x^j, a = 0; then b = 0, a = x^j in the subfield
    rows = _trace_rows(_trace_masks(amb), xs) \
        + [[traces[v][j] for v in norms] for j in range(m)]
    code = LinearCode.from_generator(field_make(2, 1), rows,
                                     label=f"kasami(m={m})")
    if code.k != 3 * m:
        raise CodeError(f"kasami rank {code.k} != {3 * m}")
    return code


# ----------------------------------------------------------------------
# concatenation with the binary simplex inner code
# ----------------------------------------------------------------------

def concatenate_with_simplex(outer: LinearCode) -> LinearCode:
    """Replace each GF(2^s) symbol of the outer code by the inner simplex
    [2^s - 1, s, 2^(s-1)]_2 codeword of its polynomial-basis coordinates."""
    of = outer.field
    if of.p != 2:
        raise CodeError("outer field must have characteristic 2")
    s = of.e
    _check_length(outer.n * ((1 << s) - 1), f"concat-simplex({outer.label})")
    inner_rows = simplex(2, s).generator.rows if s > 1 else [(1,)]
    # the inner codeword of every symbol value, encoded once
    words = []
    for sym in range(of.q):
        word = [0] * len(inner_rows[0])
        for c, row in zip(of.coords(sym), inner_rows):
            if c:
                word = [a ^ b for a, b in zip(word, row)]
        words.append(word)
    # row j of a scaled copy: the codeword of x^j * sym for each symbol
    scaled = [[words[of.mul(1 << j, sym)] for sym in range(of.q)]
              for j in range(s)]
    rows = [list(chain.from_iterable(map(table.__getitem__, outer_row)))
            for outer_row in outer.generator.rows for table in scaled]
    return LinearCode.from_generator(
        field_make(2, 1), rows, label=f"concat-simplex({outer.label})")
