"""Exact arithmetic over small prime-power fields GF(p^e).

Elements are integers in [0, q-1] encoding the coefficient vector of the
residue polynomial in base p (least-significant digit = constant term).
Unless one is given, the modulus is the lexicographically smallest monic
irreducible polynomial of degree e over GF(p), comparing coefficient lists
from the constant term upward, so field construction is deterministic.
"""

from __future__ import annotations

from functools import lru_cache

SIZE_CAP = 1 << 16


class FieldError(ValueError):
    pass


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ----------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists, index i = coeff of x^i
# ----------------------------------------------------------------------

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, b, p):
    """Remainder of a divided by the monic b over GF(p)."""
    a = list(a)
    _poly_trim(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = a[-1]
        for i, bc in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * bc) % p
        _poly_trim(a)
    return a


def _is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2 (deg >= 2)."""
    deg = len(poly) - 1
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            divisor = _digits(code, p, d) + [1]
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def _digits(code: int, p: int, length: int):
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return out


def _undigits(digs, p: int) -> int:
    code = 0
    for d in reversed(digs):
        code = code * p + d
    return code


def smallest_irreducible(p: int, e: int):
    """Monic irreducible of degree e over GF(p), minimal in the ordering
    that compares coefficient lists (c0, c1, ...) lexicographically."""
    if e == 1:
        return [0, 1]
    from itertools import product
    for tail in product(range(p), repeat=e):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise FieldError(f"no irreducible polynomial of degree {e} over GF({p})")


def _generator_powers(p: int, e: int, modulus):
    """[1, g, ..., g^(q-2)] for the first code g of multiplicative order
    q - 1; FieldError if none exists, i.e. if the modulus is reducible.

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


class GF:
    """The field GF(p^e) with canonical modulus and integer-coded elements.

    Arithmetic is table lookup: exp[i] = g^i for a generator g (stored
    twice over, so a sum of two logs needs no reduction) and log[g^i] = i.
    Addition is XOR for p = 2, mod p for e = 1, and otherwise uses Zech
    logarithms zech[k] = log(1 + g^k), -1 where 1 + g^k = 0.
    """

    def __init__(self, p: int, e: int, modulus=None):
        if e < 1:
            raise FieldError(f"extension degree must be >= 1, got {e}")
        # a larger e exceeds the cap for every prime: no huge power is formed
        q = p ** min(e, SIZE_CAP.bit_length())
        if q > SIZE_CAP:
            raise FieldError(f"field size {p}^{e} exceeds cap {SIZE_CAP}")
        if not is_prime(p):
            raise FieldError(f"p={p} is not prime")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = list(modulus) if modulus is not None else smallest_irreducible(p, e)
        if any(isinstance(c, bool) or not isinstance(c, int) or not 0 <= c < p
               for c in self.modulus):
            raise FieldError(f"modulus coefficients must be integers in [0, {p})")
        if len(self.modulus) != e + 1 or self.modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree e")
        powers = _generator_powers(p, e, self.modulus)
        self._exp = powers + powers
        self._log = [0] * q
        for i, a in enumerate(powers):
            self._log[a] = i
        self._half = (q - 1) // 2 if p > 2 else 0  # -1 = g^half
        if p > 2 and e > 1:
            # 1 + g^k differs from g^k in digit 0 only
            self._zech = [-1] * (q - 1)
            for k, a in enumerate(powers):
                b = a - p + 1 if a % p == p - 1 else a + 1
                if b:
                    self._zech[k] = self._log[b]

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (isinstance(other, GF)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, tuple(self.modulus)))

    def elements(self):
        return range(self.q)

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise FieldError(f"{a!r} is not a valid element code for {self}")
        return a

    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        if not a or not b:
            return a or b
        i = self._log[a]
        # a + b = g^i (1 + g^(j-i)); a negative j - i indexes mod q - 1
        z = self._zech[self._log[b] - i]
        return self._exp[i + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._half] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError(f"division by zero in {self}")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            raise FieldError("pow exponent must be nonnegative")
        if not a:
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.q - 1)]

    # ------------------------------------------------------------------
    def coords(self, a: int):
        """Coefficient vector of a over the prime field, constant term first."""
        return _digits(a, self.p, self.e)

    def from_coords(self, digs) -> int:
        return _undigits(list(digs), self.p)


@lru_cache(maxsize=None)
def field_make(p: int, e: int) -> GF:
    """The canonical GF(p^e); cached so repeated lookups share tables."""
    return GF(p, e)


# ----------------------------------------------------------------------
# subfield embeddings and relative traces
# ----------------------------------------------------------------------

def _evaluate(field: GF, coeffs, x: int) -> int:
    """sum of coeffs[i] * x^i in field, by Horner's rule; coefficients are
    prime-field codes, which are the same in every extension."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


@lru_cache(maxsize=None)
def _embedding_maps(sub: GF, amb: GF):
    """Embedding sub -> amb as (forward list, inverse dict), for the moduli
    of the two fields given (equal fields hash alike, so they share maps).

    Realized by mapping the subfield generator x to the smallest root of
    the subfield modulus inside the ambient field.
    """
    beta = next((c for c in range(amb.q)
                 if _evaluate(amb, sub.modulus, c) == 0), None)
    if beta is None:
        raise FieldError("subfield modulus has no root in ambient field")
    fwd = [_evaluate(amb, sub.coords(a), beta) for a in range(sub.q)]
    inv = {img: a for a, img in enumerate(fwd)}
    if len(inv) != sub.q:
        raise FieldError("subfield embedding is not injective")
    return tuple(fwd), inv


def _subfield_maps(sub: GF, amb: GF):
    if sub.p != amb.p or amb.e % sub.e:
        raise FieldError(f"{sub} is not a subfield of {amb}")
    return _embedding_maps(sub, amb)


def embed(x: int, sub: GF, amb: GF) -> int:
    """Image of the GF(p^e) element x inside the ambient field."""
    return _subfield_maps(sub, amb)[0][x]


def project_to_subfield(x: int, sub: GF, amb: GF) -> int:
    """Subfield code of an ambient element known to lie in the subfield."""
    inv = _subfield_maps(sub, amb)[1]
    if x not in inv:
        raise FieldError(f"element {x} is not in the {sub} subfield of {amb}")
    return inv[x]


def relative_trace(x: int, amb: GF, sub: GF) -> int:
    """Tr(x) = sum of x^(p^(e*i)) over i < amb.e/sub.e, as a subfield code."""
    inv = _subfield_maps(sub, amb)[1]
    m = amb.e // sub.e
    t = 0
    term = x
    for _ in range(m):
        t = amb.add(t, term)
        term = amb.pow(term, sub.q)
    if t not in inv:
        raise FieldError("trace value escaped the subfield (embedding bug)")
    return inv[t]


# ----------------------------------------------------------------------
# linear algebra over GF
# ----------------------------------------------------------------------

class Matrix:
    """Dense row-major matrix over a GF; rows are tuples of element codes."""

    def __init__(self, field: GF, rows):
        self.field = field
        self.rows = [tuple(field.check(x) for x in r) for r in rows]
        if self.rows:
            n = len(self.rows[0])
            if any(len(r) != n for r in self.rows):
                raise ValueError("ragged matrix")
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0

    def columns(self):
        return [tuple(r[j] for r in self.rows) for j in range(self.ncols)]

    def rref(self):
        """(reduced rows, pivot column list); reduced rows exclude zero rows."""
        F = self.field
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = F.inv(rows[r][c])
            rows[r] = [F.mul(inv, x) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return [tuple(rows[i]) for i in range(r)], pivots

    def rank(self) -> int:
        return len(self.rref()[0])

    def kernel(self):
        """Basis matrix of the right null space; rank + nullity = ncols."""
        F = self.field
        reduced, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [0] * self.ncols
            v[fc] = 1
            for ri, pc in enumerate(pivots):
                v[pc] = F.neg(reduced[ri][fc])
            basis.append(tuple(v))
        return Matrix(F, basis) if basis else Matrix(F, [])
