"""Field arithmetic, canonical moduli, embeddings, and linear algebra."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticodes.gf import (
    GF, FieldError, Matrix, embed, field_make, is_prime, project_to_subfield,
    relative_trace, smallest_irreducible,
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
    assert field.sub(a, b) == field.add(a, field.neg(b))
    if a:
        assert field.mul(a, field.inv(a)) == 1
        assert field.div(b, a) == field.mul(b, field.inv(a))


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
    sub, amb = field_make(2, 2), field_make(2, 4)
    for a in range(4):
        for b in range(4):
            assert embed(sub.add(a, b), sub, amb) == \
                amb.add(embed(a, sub, amb), embed(b, sub, amb))
            assert embed(sub.mul(a, b), sub, amb) == \
                amb.mul(embed(a, sub, amb), embed(b, sub, amb))
    for a in range(4):
        assert project_to_subfield(embed(a, sub, amb), sub, amb) == a


@pytest.mark.parametrize("sub, amb", [
    (field_make(2, 2), GF(2, 4, [1, 1, 0, 0, 1])),   # x^4 + x + 1
    (GF(3, 2, [2, 1, 1]), field_make(3, 4)),          # x^2 + x + 2
])
def test_embedding_uses_the_given_moduli(sub, amb):
    assert sub.modulus != field_make(sub.p, sub.e).modulus or \
        amb.modulus != field_make(amb.p, amb.e).modulus
    image = [embed(a, sub, amb) for a in range(sub.q)]
    for a in range(sub.q):
        for b in range(sub.q):
            assert image[sub.add(a, b)] == amb.add(image[a], image[b])
            assert image[sub.mul(a, b)] == amb.mul(image[a], image[b])
        assert project_to_subfield(image[a], sub, amb) == a
    traces = {relative_trace(x, amb, sub) for x in range(amb.q)}
    assert traces == set(range(sub.q))


def test_project_outside_subfield_raises():
    sub, amb = field_make(2, 2), field_make(2, 4)
    images = {embed(a, sub, amb) for a in range(4)}
    outside = next(x for x in range(16) if x not in images)
    with pytest.raises(FieldError):
        project_to_subfield(outside, sub, amb)


def test_relative_trace_is_linear_and_onto():
    sub, amb = field_make(2, 1), field_make(2, 4)
    values = [relative_trace(x, amb, sub) for x in range(16)]
    assert set(values) == {0, 1}
    assert values.count(0) == 8        # balanced: kernel has q/p elements
    for a in range(16):
        for b in range(16):
            assert relative_trace(amb.add(a, b), amb, sub) == \
                sub.add(values[a], values[b])


def test_trace_tower_consistency():
    # Tr_{16->2} = Tr_{4->2} o Tr_{16->4}
    f2, f4, f16 = field_make(2, 1), field_make(2, 2), field_make(2, 4)
    for x in range(16):
        mid = relative_trace(x, f16, f4)
        assert relative_trace(x, f16, f2) == relative_trace(mid, f4, f2)


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


def test_rref_pivots():
    F = field_make(3, 1)
    m = Matrix(F, [[2, 1, 0], [1, 1, 1]])
    rows, pivots = m.rref()
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
