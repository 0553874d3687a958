"""Field arithmetic, canonical moduli, traces, and linear algebra."""

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticodes import catalog as cat
from anticodes.constructions import _trace
from anticodes.gf import (
    BYTES_Q, GF, FieldError, Matrix, _digits, _evaluate, _is_irreducible,
    _lane_tables, _Packing, _undigits, field_make, field_of_order, is_prime,
    simplex_columns, smallest_irreducible,
)

FIELDS = [field_make(2, 1), field_make(3, 1), field_make(2, 2),
          field_make(2, 3), field_make(3, 2), field_make(2, 4),
          field_make(5, 2), field_make(2, 10), field_make(3, 6)]


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


def test_canonical_moduli():
    # constant term first; minimal in (c0, c1, ...) lexicographic order
    assert field_make(2, 2).modulus == [1, 1, 1]        # x^2 + x + 1
    assert field_make(3, 2).modulus == [1, 0, 1]        # x^2 + 1
    assert smallest_irreducible(2, 1) == [0, 1]
    for field in FIELDS:
        assert len(field.modulus) == field.e + 1
        assert field.modulus[-1] == 1


def test_prime_field_matches_modular_arithmetic():
    F = field_make(5, 1)
    for a in range(5):
        for b in range(5):
            assert F.add(a, b) == (a + b) % 5
            assert F.mul(a, b) == (a * b) % 5


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_field_axioms(field, data):
    q = field.q
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, b) == field.mul(b, a)
    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    assert field.mul(a, field.add(b, c)) == \
        field.add(field.mul(a, b), field.mul(a, c))
    assert field.add(a, field.neg(a)) == 0
    if a:
        assert field.mul(a, field.inv(a)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(FieldError):
        field_make(2, 2).inv(0)


def test_pow():
    F = field_make(2, 3)
    for a in range(1, 8):
        assert F.pow(a, 7) == 1      # multiplicative order divides q - 1
        assert F.pow(a, 0) == 1


def test_coords_roundtrip():
    F = field_make(3, 2)
    for a in range(9):
        digs = F.coords(a)
        assert len(digs) == 2
        assert F.from_coords(digs) == a


def test_size_cap():
    with pytest.raises(FieldError):
        GF(2, 17)
    with pytest.raises(FieldError):
        GF(3, 100000)   # q has too many digits to print in the message
    with pytest.raises(FieldError):
        GF(4, 1)   # not prime


def test_embedding_is_a_field_homomorphism():
    # the embedding kasami_code relies on: GF(p^m) into GF(p^(2m)) by
    # sending x to the smallest root of the GF(p^m) modulus
    for p, m in [(2, 2), (2, 3), (3, 2)]:
        sub, amb = field_make(p, m), field_make(p, 2 * m)
        beta = next(x for x in range(amb.q)
                    if not _evaluate(amb, sub.modulus, x))
        image = [_evaluate(amb, sub.coords(a), beta) for a in range(sub.q)]
        assert len(set(image)) == sub.q
        for a in range(sub.q):
            for b in range(sub.q):
                assert image[sub.add(a, b)] == amb.add(image[a], image[b])
                assert image[sub.mul(a, b)] == amb.mul(image[a], image[b])


@pytest.mark.parametrize("p, e", [(2, e) for e in range(1, 9)] + [(3, 2)])
def test_trace_is_linear_onto_and_balanced(p, e):
    F = field_make(p, e)
    values = [_trace(F, x, e) for x in range(F.q)]
    # onto the prime field, each value q/p times
    assert sorted(set(values)) == list(range(p))
    assert all(values.count(t) == F.q // p for t in range(p))
    # additive on every sum with a basis element, so GF(p)-linear
    for x in range(F.q):
        for y in (p ** i for i in range(e)):           # the codes of x^i
            assert values[F.add(x, y)] == (values[x] + values[y]) % p


def test_trace_tower_consistency():
    # Tr over 2m degrees = the degree-m trace of x + x^(p^m), which lies
    # in the degree-m subfield
    for p, m in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)]:
        amb = field_make(p, 2 * m)
        for x in range(amb.q):
            mid = amb.add(x, amb.pow(x, p ** m))
            assert _trace(amb, x, 2 * m) == _trace(amb, mid, m) < p


def test_matrix_rank_and_kernel():
    F = field_make(2, 1)
    m = Matrix(F, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]])
    r = m.rank()
    ker = m.kernel()
    assert r + ker.nrows == 4
    # every kernel row is annihilated by the matrix
    for kr in ker.rows:
        for row in m.rows:
            assert sum(a * b for a, b in zip(row, kr)) % 2 == 0


def _pivots(rows):
    """Each row's first nonzero column."""
    return [next(c for c, x in enumerate(r) if x) for r in rows]


def test_rref_pivots():
    F = field_make(3, 1)
    m = Matrix(F, [[2, 1, 0], [1, 1, 1]])
    rows = m.echelon().rows
    pivots = _pivots(rows)
    assert len(pivots) == m.rank() == 2
    for r, p in zip(rows, pivots):
        assert rows[pivots.index(p)][p] == 1


# ----------------------------------------------------------------------
# an independent oracle: schoolbook polynomial arithmetic on digit lists
# ----------------------------------------------------------------------

class Oracle:
    """Schoolbook GF(p^e) arithmetic on coefficient lists, constant term
    first, with no tables: the reference the table-driven GF must match."""

    def __init__(self, p, e, modulus):
        self.p, self.e, self.modulus = p, e, modulus
        self.digits = [[a // p ** i % p for i in range(e)] for a in range(p ** e)]

    def code(self, digs):
        return sum(d * self.p ** i for i, d in enumerate(digs))

    def add(self, a, b):
        return self.code([(x + y) % self.p for x, y in
                          zip(self.digits[a], self.digits[b])])

    def neg(self, a):
        return self.code([-x % self.p for x in self.digits[a]])

    def mul(self, a, b):
        """Multiply the residue polynomials, then reduce by the monic
        modulus from the top degree down."""
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits[a]):
            if x:
                for j, y in enumerate(self.digits[b]):
                    prod[i + j] += x * y
        for top in range(2 * e - 2, e - 1, -1):
            c = prod[top] % p
            if c:
                for i, m in enumerate(self.modulus):
                    prod[top - e + i] -= c * m
        return self.code([x % p for x in prod[:e]])

    def pow(self, a, n):
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a, n = self.mul(a, a), n >> 1
        return out


def _check_against_oracle(field, operands):
    ref = Oracle(field.p, field.e, field.modulus)
    q = field.q
    for a in operands:
        assert field.neg(a) == ref.neg(a)
        if a:
            assert ref.mul(a, field.inv(a)) == 1
        for n in (0, 1, 2, 3, q - 2, q - 1, q, q + 1):
            assert field.pow(a, n) == ref.pow(a, n)
        for b in operands:
            assert field.add(a, b) == ref.add(a, b)
            assert field.mul(a, b) == ref.mul(a, b)


SMALL_FIELDS = [(p, e) for p in range(2, 257) if is_prime(p)
                for e in range(1, 9) if p ** e <= 256]


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_arithmetic_matches_oracle_exhaustively(p, e):
    field = GF(p, e)
    _check_against_oracle(field, range(field.q))


@pytest.mark.parametrize("p,e", [(2, 9), (2, 10), (3, 6)])
def test_arithmetic_matches_oracle_sampled(p, e):
    field = GF(p, e)
    rng = random.Random(p ** e)
    _check_against_oracle(field, [0, 1, field.q - 1] +
                          rng.sample(range(2, field.q - 1), 40))


@pytest.mark.parametrize("p,e,modulus", [
    (2, 2, [1, 0, 1]),              # (x + 1)^2
    (2, 10, [1] + [0] * 9 + [1]),   # x^10 + 1 = (x^5 + 1)^2
    (3, 2, [2, 0, 1]),              # (x + 1)(x + 2)
    (2, 4, [1, 0, 1, 0, 1]),        # (x^2 + x + 1)^2
    (3, 4, [1, 0, 2, 0, 1]),        # (x^2 + 1)^2
    (5, 3, [4, 0, 0, 1]),           # x^3 - 1
    (2, 16, [1] + [0] * 15 + [1]),  # x^16 + 1 = (x + 1)^16, at the size cap
])
def test_reducible_modulus_rejected(p, e, modulus):
    with pytest.raises(FieldError, match="reducible"):
        GF(p, e, modulus)


@pytest.mark.parametrize("modulus", [
    [1, 3, 1],        # coefficient outside [0, p)
    [1, -1, 1],
    [1, "1", 1],      # non-integer entries
    [1, 1.0, 1],
    [1, True, 1],
])
def test_malformed_modulus_rejected(modulus):
    with pytest.raises(FieldError):
        GF(2, 2, modulus)


def test_user_modulus_gives_a_field():
    # x^2 + x + 2 is irreducible but not the canonical x^2 + 1 over GF(3)
    field = GF(3, 2, [2, 1, 1])
    _check_against_oracle(field, range(9))
    _check_tables(field)


# ----------------------------------------------------------------------
# the field tables against the generator search and trial division
# ----------------------------------------------------------------------

def _poly_mod(a, b, p):
    """Remainder of a divided by the monic b over GF(p)."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    while len(a) >= len(b):
        shift, factor = len(a) - len(b), a[-1]
        for i, bc in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * bc) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def irreducible_by_trial_division(poly, p):
    """No monic divisor of degree 1 to deg/2: the oracle for
    ``_is_irreducible``."""
    deg = len(poly) - 1
    return all(_poly_mod(poly, _digits(code, p, d) + [1], p)
               for d in range(1, deg // 2 + 1) for code in range(p ** d))


def generator_powers(p, e, modulus):
    """[1, g, ..., g^(q-2)] for the first code g of multiplicative order
    q - 1, found by walking the powers of each candidate by schoolbook
    multiplication on digit lists; FieldError if none has that order, i.e.
    if the modulus is reducible. The oracle for the order test and the
    table walk that build ``GF``'s tables.

    A walk that returns to 1 early marks its powers, which have smaller
    order too; in a field every nonzero g has g^(q-1) = 1.
    """
    q = p ** e
    low = [(i, -c) for i, c in enumerate(modulus[:e]) if c]  # x^e = -(low)
    seen = bytearray(q)
    for g in range(1, q):
        if seen[g]:
            continue
        gd = [(i, c) for i, c in enumerate(_digits(g, p, e)) if c]
        powers, cur = [1], [1] + [0] * (e - 1)
        while True:
            prod = [0] * (e + gd[-1][0])
            for i, c in gd:
                for j, x in enumerate(cur):
                    prod[i + j] += c * x
            for t in range(len(prod) - 1, e - 1, -1):
                top = prod[t] % p
                for i, c in low:
                    prod[t - e + i] += top * c
            cur = [x % p for x in prod[:e]]
            code = _undigits(cur, p)
            if code == 1:
                break
            if len(powers) == q - 1:
                raise FieldError(f"modulus {modulus} is reducible over GF({p})")
            powers.append(code)
        if len(powers) == q - 1:
            return powers
        for a in powers:
            seen[a] = 1
    raise FieldError(f"modulus {modulus} is reducible over GF({p})")


def _check_tables(field):
    """exp, log and Zech tables against the generator search and
    ``Oracle`` addition."""
    p, e, q = field.p, field.e, field.q
    powers = generator_powers(p, e, field.modulus)
    assert field._exp == powers + powers
    log = [0] * q
    for i, a in enumerate(powers):
        log[a] = i
    assert field._log == log
    if p > 2 and e > 1:
        ref = Oracle(p, e, field.modulus)
        assert field._zech == [log[ref.add(1, a)] if ref.add(1, a) else -1
                               for a in powers]


TABLE_FIELDS = [(p, e) for p in range(2, 1 << 10) if is_prime(p)
                for e in range(1, 11) if p ** e <= 1 << 10]


@pytest.mark.parametrize("p,e", TABLE_FIELDS)
def test_tables_match_the_generator_search(p, e):
    field = GF(p, e)
    first = next(list(t) + [1] for t in product(range(p), repeat=e)
                 if irreducible_by_trial_division(list(t) + [1], p))
    assert field.modulus == smallest_irreducible(p, e) == first
    _check_tables(field)


@pytest.mark.parametrize("p,e", [(2, e) for e in range(1, 9)]
                         + [(3, e) for e in range(1, 6)]
                         + [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2)])
def test_irreducibility_matches_trial_division(p, e):
    # every monic polynomial of degree e; e = 4, 6, 8 have factors of
    # degrees that divide e, which only the x^(p^(e/r)) - x unit test rejects
    for tail in product(range(p), repeat=e):
        poly = list(tail) + [1]
        assert _is_irreducible(poly, p) == \
            irreducible_by_trial_division(poly, p), poly


# ----------------------------------------------------------------------
# lane tables: one set per (p, e), whatever the modulus
# ----------------------------------------------------------------------

def lane_tables_by_loops(p, e):
    """The per-field builder the lane tables replaced, run on (p, e):
    digit d of element a at bits [d*w, (d+1)*w), and unbits keyed by the
    lane strings reversed, low bit first."""
    w = 1 if p == 2 else (2 * p - 2).bit_length() + 1
    W = e * w + (p == 2 and e > 1)
    if p == 2 or e == 1:
        lanes = unlane = range(p ** e)
    else:
        lanes = [0]
        for d in range(e):
            lanes = [x | c << d * w for c in range(p) for x in lanes]
        unlane = {x: a for a, x in enumerate(lanes)}
    bits = [format(x, f"0{W}b") for x in lanes]
    unbits = {b[::-1]: a for a, b in enumerate(bits)}
    return w, W, lanes, unlane, bits, unbits


@pytest.mark.parametrize("p,e", TABLE_FIELDS)
def test_lane_tables_match_the_nested_loops(p, e):
    w, W, lanes, unlane, bits, unbits = _lane_tables(p, e)
    want = lane_tables_by_loops(p, e)
    assert (w, W, list(lanes), bits) == (*want[:2], list(want[2]), want[4])
    assert [unlane[x] for x in lanes] == [want[3][x] for x in want[2]]
    # one string per element: unbits is keyed by the strings pack joins
    assert unbits == {b[::-1]: a for b, a in want[5].items()}
    assert all(b is k for b, k in zip(bits, unbits))
    layout, rng = _Packing(field_make(p, e), 7), random.Random(p ** e)
    for _ in range(20):
        vec = tuple(rng.randrange(p ** e) for _ in range(7))
        assert layout.unpack(layout.pack(vec)) == vec


def test_lane_tables_are_shared_by_every_modulus():
    # the canonical and a user modulus of GF(2^4) and of GF(3^2)
    fields = [field_make(2, 4), GF(2, 4, [1, 0, 0, 1, 1]),
              field_make(3, 2), GF(3, 2, [2, 1, 1])]
    _lane_tables.cache_clear()
    layouts = [_Packing(field, 3) for field in fields]
    assert _lane_tables.cache_info().currsize == 2
    assert layouts[0].lanes is layouts[1].lanes
    assert layouts[2].unlane is layouts[3].unlane


def join_pack(layout, vec):
    """The lane-string join that packed every row before the bytes route:
    the oracle for q <= 256."""
    bits = _lane_tables(layout.p, layout.field.e)[4]
    return int("".join(bits[a] for a in reversed(vec)) or "0", 2)


def join_unpack(layout, v):
    """The W-bit slices of v's bit string, each read back through
    ``unbits``: the unpacking that went with ``join_pack``."""
    _, W, _, _, _, unbits = _lane_tables(layout.p, layout.field.e)
    n = layout.length
    if not n:
        return ()
    s = format(v, f"0{n * W}b")
    return tuple(unbits[s[i:i + W]] for i in range(0, n * W, W))[::-1]


BYTE_ORDERS = [q for q in range(2, BYTES_Q + 1)
               if len({p for p in range(2, q + 1) if q % p == 0 and is_prime(p)})
               == 1]


@pytest.mark.parametrize("q", BYTE_ORDERS)
def test_bytes_packing_matches_the_join(q):
    # every field the bytes route serves, hence every lane width W it meets
    field, rng = field_of_order(q), random.Random(q)
    for n in range(13):
        layout = _Packing(field, n)
        assert layout._bytes is not None
        vecs = [(0,) * n, (q - 1,) * n]
        vecs += [tuple(rng.randrange(q) for _ in range(n)) for _ in range(6)]
        for vec in vecs:
            v = layout.pack(vec)
            assert v == join_pack(layout, vec)
            assert layout.pack(layout.checked(vec)) == v
            assert layout.unpack(v) == join_unpack(layout, v) == vec


def test_bytes_orders_are_every_prime_power_to_256():
    assert len(BYTE_ORDERS) == 70 and BYTE_ORDERS[-3:] == [243, 251, 256]
    assert all(_Packing(field_of_order(q), 2)._bytes is None
               for q in (257, 512, 729))


def test_the_first_packing_over_gf_2_16_stays_small():
    # 12.4 MiB with a reversed copy of every lane string
    field = field_make(2, 16)
    _lane_tables.cache_clear()
    tracemalloc.start()
    try:
        _Packing(field, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * (1 << 20)


# ----------------------------------------------------------------------
# packed linear algebra against the schoolbook elimination
# ----------------------------------------------------------------------

def schoolbook_rref(F, rows, ncols):
    """(reduced rows, pivots) by Gauss-Jordan elimination on element lists,
    column by column with the first usable row as pivot: the oracle for
    the packed elimination in ``Matrix``."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.add(x, F.neg(F.mul(f, y)))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(rows[i]) for i in range(r)], pivots


def schoolbook_kernel(F, reduced, pivots, ncols):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = F.neg(reduced[ri][fc])
        basis.append(tuple(v))
    return basis


LINALG_FIELDS = [field_make(2, 1), field_make(3, 1), field_make(2, 2),
                 field_make(5, 1), field_make(7, 1), field_make(2, 3),
                 field_make(3, 2), field_make(2, 4), field_make(5, 2),
                 field_make(3, 3)]


@st.composite
def matrices(draw):
    """(field, ncols, rows): sparse random rows, some of them zero, some
    repeated and some combinations of others, so ranks fall short."""
    F = draw(st.sampled_from(LINALG_FIELDS))
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(0, F.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.integers(0, F.q - 1)), draw(st.integers(0, F.q - 1))
        rows.insert(draw(st.integers(0, len(rows))),
                    [F.add(F.mul(s, x), F.mul(t, y)) for x, y in zip(a, b)])
    return F, ncols, rows


def _check_linalg(F, ncols, rows):
    m = Matrix(F, rows)
    want_rows, want_pivots = schoolbook_rref(F, rows, ncols)
    got_rows = m.echelon().rows
    assert (got_rows, _pivots(got_rows)) == (want_rows, want_pivots)
    assert m.rank() == len(want_rows)
    kernel = m.kernel()
    assert kernel.ncols == ncols
    assert list(kernel.rows) == \
        schoolbook_kernel(F, want_rows, want_pivots, ncols)
    assert list(m.rows) == [tuple(r) for r in rows]


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_rref_rank_kernel_match_schoolbook(case):
    _check_linalg(*case)


@pytest.mark.parametrize("q,rows", [
    (5, [[0, 0, 0], [0, 0, 0]]),                  # all zero
    (4, [[0, 0, 0, 0]]),
    (3, [[2], [1], [0]]),                         # one column
    (2, [[1], [1]]),
    (7, [[0, 3, 5], [0, 0, 0], [0, 6, 3]]),       # zero row, repeated multiple
    (9, [[4, 7, 1, 0], [4, 7, 1, 0], [0, 0, 5, 8]]),   # repeated row
    (25, [[0, 13, 2, 24], [17, 3, 0, 9], [17, 16, 2, 8]]),  # rank deficient
    (27, [[26, 1, 14], [5, 0, 20], [0, 7, 7], [11, 11, 0]]),  # pivots != 1
    (16, [[0, 9, 15, 3, 0], [0, 0, 0, 0, 0], [6, 1, 0, 12, 7]]),
    (8, [[3, 5, 6, 7], [6, 1, 7, 5]]),
    (3, [[1, 0], [0, 1]]),                        # full column rank
])
def test_rref_edge_cases_match_schoolbook(q, rows):
    _check_linalg(field_of_order(q), len(rows[0]), rows)


@pytest.mark.parametrize("bad", [-1, "q", 1.0, "1", 1 << 80, None, True,
                                 False])
@pytest.mark.parametrize("q", [2, 4, 9])
def test_matrix_rejects_what_check_rejects(bad, q):
    F = field_of_order(q)
    x = F.q if bad == "q" else bad
    with pytest.raises(FieldError):
        F.check(x)
    for rows in ([[x]], [[0, 1, x]], [[1, 0], [x, 0]]):
        with pytest.raises(FieldError):
            Matrix(F, rows)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([field_of_order(q) for q in (2, 3, 4, 9, 13, 256)]),
       st.lists(st.lists(st.one_of(st.integers(-2, 5), st.integers(7, 14),
                                   st.booleans(), st.just(1.0), st.just("1"),
                                   st.just(1 << 70),
                                   st.sampled_from([255, 256, -1, True, 1.0,
                                                    1 << 80])),
                         min_size=2, max_size=2), min_size=1, max_size=3))
def test_matrix_accepts_exactly_what_check_accepts(F, rows):
    def refusal(x):
        try:
            F.check(x)
        except FieldError as exc:
            return str(exc)
        return None
    refused = [refusal(x) for r in rows for x in r if refusal(x)]
    if not refused:
        assert list(Matrix(F, rows).rows) == [tuple(r) for r in rows]
    else:
        # the first entry that check refuses, in check's own words
        with pytest.raises(FieldError) as info:
            Matrix(F, rows)
        assert str(info.value) == refused[0]


def simplex_rows_by_reversal(field, K, deleted=()):
    """The packed rows of ``simplex_columns`` as its earlier builder made
    them: from every lane string reversed, low bit first, on each call,
    cut in column order and read back reversed. The oracle for the
    builder that cuts the unreversed strings by mirrored spans."""
    q = field.q
    _, W, _, _, bits, _ = _lane_tables(field.p, field.e)
    lane = [b[::-1] for b in bits]
    total = (q ** K - 1) // (q - 1)
    kept = zip([0] + [c + 1 for c in deleted], list(deleted) + [total])
    spans = [(a * W, b * W) for a, b in kept if a < b]
    rows = []
    for i in range(K):
        r = q ** (K - 1 - i)
        row = lane[0] * ((r - 1) // (q - 1)) + lane[1] * r
        if i:
            row += ("".join(lane[v] * r for v in range(q))
                    * ((q ** i - 1) // (q - 1)))
        rows.append(int("".join([row[a:b] for a, b in spans])[::-1] or "0", 2))
    return tuple(rows)


@pytest.mark.parametrize("q,K", [(2, 1), (2, 6), (3, 4), (4, 3), (5, 3),
                                 (7, 2), (8, 3), (9, 3), (16, 2), (25, 2),
                                 (27, 2), (256, 2), (65536, 1), (65536, 2)])
def test_simplex_columns_match_the_reversing_builder(q, K):
    field, rng = field_of_order(q), random.Random(q * K)
    total = (q ** K - 1) // (q - 1)
    cuts = [(), (0,), (total - 1,), tuple(range(total - 1)),
            tuple(sorted(rng.sample(range(total), min(total, 5)))),
            tuple(sorted(rng.sample(range(total), total // 2)))]
    for deleted in cuts:
        got = simplex_columns(field, K, deleted)
        assert got.packed == simplex_rows_by_reversal(field, K, deleted)
        assert got.ncols == total - len(deleted)


def test_simplex_columns_over_gf_2_16_copy_no_lane_table():
    # with every lane string reversed on each call, K = 1 took 58 ms and
    # 4.66 MiB traced; the one point of PG(0, q) needs neither
    field = field_of_order(1 << 16)
    _lane_tables(2, 16)
    tracemalloc.start()
    try:
        columns = simplex_columns(field, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns.packed == (1,) and peak < 64 << 10


def projective_points(field, k):
    """All canonical projective points of F_q^k (first nonzero coord = 1),
    sorted by integer encoding, most-significant coordinate first: the
    later the leading 1, the smaller the point, and the coordinates after
    it count up in base q. The oracle for the packed simplex columns."""
    pts = []
    for lead in range(k - 1, -1, -1):
        head = (0,) * lead + (1,)
        tails = product(range(field.q), repeat=k - lead - 1)
        pts.extend(map(head.__add__, tails))
    return pts


def _sorted_projective_points(field, k):
    """Every canonical point, built and then sorted by its integer code,
    the most significant coordinate first."""
    pts = []
    for lead in range(k):
        for code in range(field.q ** (k - lead - 1)):
            tail = [code // field.q ** i % field.q
                    for i in range(k - lead - 1)]
            pts.append(tuple([0] * lead + [1] + tail[::-1]))

    def key(pt):
        out = 0
        for x in pt:
            out = out * field.q + x
        return out
    return sorted(pts, key=key)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 5), (3, 1), (3, 3), (4, 3),
                                 (5, 2), (7, 3), (8, 2), (9, 2)])
def test_projective_points_are_sorted(q, k):
    field = field_of_order(q)
    assert projective_points(field, k) == _sorted_projective_points(field, k)


def test_catalog_generators_are_the_schoolbook_rref():
    checked = 0
    for entry in cat.load_manifest():
        if entry["mode"] != "construct_and_enumerate":
            continue
        build = entry["build"]
        base = {key: value for key, value in build.items()
                if key != "complement_at"}
        for code in (cat.build_code(base), cat.build_code(build)):
            if code.column_points is None:       # built from explicit rows
                continue
            dim, columns = code.column_points
            want, _ = schoolbook_rref(code.field, list(zip(*columns)),
                                      len(columns))
            assert list(code.generator.rows) == want, entry["id"]
            checked += 1
    assert checked >= 60
