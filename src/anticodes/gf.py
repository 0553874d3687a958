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


def _primes(n: int):
    """The distinct prime divisors of n, smallest first; none for n < 2."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_prime(p: int) -> bool:
    return _primes(p) == [p]


def _size(n: int):
    """n for a message, or past 64 bits a power of 2 that |n| reaches:
    str() of a huge int raises."""
    sign = "-" * (n < 0)
    return n if n.bit_length() <= 64 else f"{sign}2^{n.bit_length() - 1}+"


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


# ----------------------------------------------------------------------
# GF(p)[x] modulo a monic polynomial, in integers
# ----------------------------------------------------------------------

def _ring(p: int, poly):
    """(W, mul) for GF(p)[x]/(poly), deg poly = e >= 2.

    A residue is one int with coefficient i in bits [iW, (i+1)W), each
    < p. A product is one integer product (Kronecker substitution): the
    lanes hold sums below L = bit length of 2e(p-1)^2 bits and never
    carry. ``red`` takes every lane mod p at once, as t - p*floor(t*M/2^s)
    with M = ceil(2^s/p) (for p = 2, t & 1), and the quotient by poly is
    Barrett's, exact for polynomials: floor(floor(c/x^e) * mu / x^(e-2))
    with mu = floor(x^(2e-2)/poly).
    """
    e = len(poly) - 1
    L = (2 * e * (p - 1) ** 2).bit_length()
    s = L + p.bit_length()
    M = -((-1 << s) // p)
    W = L if p == 2 else L + M.bit_length()
    ones = ((1 << (2 * e - 1) * W) - 1) // ((1 << W) - 1)  # bit 0 of each lane
    low = (1 << e * W) - 1
    rem, mu = [0] * (2 * e - 2) + [1], [0] * (e - 1)
    for t in range(2 * e - 2, e - 1, -1):
        mu[t - e] = c = rem[t] % p
        for i, f in enumerate(poly):
            rem[t - e + i] -= c * f
    mu = sum(c << i * W for i, c in enumerate(mu))
    neg = sum(-c % p << i * W for i, c in enumerate(poly))
    shift, back = e * W, (e - 2) * W
    if p == 2:
        def mul(a, b):
            c = a * b & ones
            q = (c >> shift) * mu & ones
            return (c ^ (q >> back) * neg) & low & ones
        return W, mul
    quot = ones * ((1 << W - s) - 1)

    def red(c):
        return c - p * (c * M >> s & quot)

    def mul(a, b):
        c = red(a * b)
        q = red((c >> shift) * mu) >> back
        return red((c & low) + (q * neg & low))
    return W, mul


def _power(mul, a, n: int):
    """a^n (n >= 1) by squaring and multiplying."""
    r = a
    for bit in bin(n)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, a)
    return r


def _is_irreducible(poly, p: int) -> bool:
    """Whether the monic poly of degree e is irreducible over GF(p).

    Degree 1 always is; otherwise a root in GF(p) is a linear factor, and
    for e <= 3 the only possible one. For e >= 4 this is Rabin's test
    without a gcd: x^(p^e) = x mod poly makes poly square-free with every
    factor of a degree d | e, and then x^(p^(e/r)) - x is a unit, i.e. has
    order dividing p^e - 1, for every prime r | e exactly when no factor
    has d | e/r, i.e. when poly is one factor of degree e.
    """
    e = len(poly) - 1
    if e == 1:
        return True
    prime = field_make(p, 1)
    if not all(_evaluate(prime, poly, a) for a in range(p)):
        return False
    if e < 4:
        return True
    W, mul = _ring(p, poly)
    x = 1 << W

    def frobenius(v, k):            # v^(p^k)
        for _ in range(k):
            v = _power(mul, v, p)
        return v
    if frobenius(x, e) != x:
        return False
    for r in _primes(e):
        h = frobenius(x, e // r)
        h += (-1 if h >> W & (1 << W) - 1 else p - 1) << W      # h - x
        if not h or _power(mul, h, p ** e - 1) != 1:
            return False
    return True


def smallest_irreducible(p: int, e: int):
    """Monic irreducible of degree e over GF(p), minimal in the ordering
    that compares coefficient lists (c0, c1, ...) lexicographically; for
    e >= 2, c0 = 0 would be a factor x."""
    if e == 1:
        return [0, 1]
    from itertools import product
    for tail in product(range(1, p), *[range(p)] * (e - 1)):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise FieldError(f"no irreducible polynomial of degree {e} over GF({p})")


def _digit_width(p: int) -> int:
    """Bits of a lane digit: 1 for p = 2, else sums to 2p - 2 and a guard."""
    return 1 if p == 2 else (2 * p - 2).bit_length() + 1


def _guard(p: int, w: int, lanes: int):
    """(guard, bump) of the guard-bit addition of ``_Packing`` over
    ``lanes`` lanes of w bits."""
    guard = ((1 << lanes * w) - 1) // ((1 << w) - 1) << w - 1
    return guard, (guard >> w - 1) * ((1 << w - 1) - p)


def _span(vecs, p: int, w: int, lanes: int):
    """[sum of d_i * vecs[i] over the base-p digits d_i of c, for every
    c < p^len(vecs)], of packed digit vectors of ``lanes`` w-bit lanes:
    XOR for p = 2, and for odd p the guard-bit addition."""
    out = [0]
    if p == 2:
        for v in vecs:
            out += [t ^ v for t in out]
        return out
    guard, bump = _guard(p, w, lanes)
    for v in vecs:
        mults = [0]
        for _ in range(p - 1):
            s = mults[-1] + v
            mults.append(s - ((s + bump & guard) >> w - 1) * p)
        out = [s - ((s + bump & guard) >> w - 1) * p
               for m in mults for t in out for s in (t + m,)]
    return out


def _generator_walk(p: int, e: int, modulus):
    """[1, g, ..., g^(q-2)] for the first code g of multiplicative order
    q - 1 modulo the irreducible ``modulus``.

    g is the first code to pass the order test g^((q-1)/r) != 1 for every
    prime r | q - 1 (for e >= 2 from code p on: a constant's order divides
    p - 1). The table of g * c for every code c is ``_span`` of the
    g * x^i, read back as codes for odd p (for p = 2 the lanes are the
    code's bits); then each of the q - 2 steps of the walk is one lookup.
    """
    q = p ** e
    if e == 1:
        g = next(g for g in range(1, p)
                 if all(pow(g, (p - 1) // r, p) != 1 for r in _primes(p - 1)))
        out = [1]
        for _ in range(p - 2):
            out.append(out[-1] * g % p)
        return out
    W, mul = _ring(p, modulus)
    orders = [(q - 1) // r for r in _primes(q - 1)]
    for g in range(p, q):
        G = sum(d << i * W for i, d in enumerate(_digits(g, p, e)))
        if all(_power(mul, G, n) != 1 for n in orders):
            break
    w = _digit_width(p)
    bases = []                                 # g * x^i in w-bit lanes
    for _ in range(e):
        bases.append(sum((G >> i * W & (1 << W) - 1) << i * w
                         for i in range(e)))
        G = mul(G, 1 << W)
    times_g = _span(bases, p, w, e)
    if p > 2:                   # the low k digits and the high e - k apart
        k = e // 2
        units = [1 << i * w for i in range(e)]
        low = dict(zip(_span(units[:k], p, w, e), range(p ** k)))
        high = dict(zip(_span(units[:e - k], p, w, e), range(0, q, p ** k)))
        mask = (1 << k * w) - 1
        times_g = [low[v & mask] + high[v >> k * w] for v in times_g]
    v, out = 1, [1]
    for _ in range(q - 2):
        v = times_g[v]
        out.append(v)
    return out


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
        # the canonical modulus passed this test when it was chosen
        if modulus is not None and not _is_irreducible(self.modulus, p):
            raise FieldError(f"modulus {self.modulus} is reducible over GF({p})")
        powers = _generator_walk(p, e, self.modulus)
        self._exp = powers + powers
        self._log = log = [0] * q
        for i, a in enumerate(powers):
            log[a] = i
        self._half = (q - 1) // 2 if p > 2 else 0  # -1 = g^half
        if p > 2 and e > 1:
            # 1 + g^k differs from g^k in digit 0 only, and is 0 at k = half
            self._zech = [log[a - p + 1 if a % p == p - 1 else a + 1]
                          for a in powers]
            self._zech[self._half] = -1

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (isinstance(other, GF)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, tuple(self.modulus)))

    def check(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.q:
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

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError(f"division by zero in {self}")
        return self._exp[self.q - 1 - self._log[a]]

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


def field_of_order(q: int) -> GF:
    """The canonical field of order q, or one FieldError. The size cap is
    checked first, so the trial division stays below 2^8 and e below 17."""
    if not 2 <= q <= SIZE_CAP:
        raise FieldError(f"field order {_size(q)} is not in [2, {SIZE_CAP}]")
    p, *others = _primes(q)
    if others:
        raise FieldError(f"{q} is not a prime power")
    return field_make(p, next(e for e in range(1, 17) if p ** e == q))


def _evaluate(field: GF, coeffs, x: int) -> int:
    """sum of coeffs[i] * x^i in field, by Horner's rule; coefficients are
    prime-field codes, which are the same in every extension."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


# ----------------------------------------------------------------------
# packed vectors
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lane_tables(p: int, e: int):
    """(w, W, lanes, unlane, bits, unbits) of the lane layout of GF(p^e),
    which the modulus does not change: lanes[a] is the lane value of
    element a, unlane its inverse, bits[a] the lane as a W-bit string
    (most significant bit first) and unbits the inverse of bits."""
    w = _digit_width(p)
    W = e * w + (p == 2 and e > 1)
    if p == 2 or e == 1:                 # a lane holds the element code
        lanes = unlane = range(p ** e)
    else:                                # the digits of a, one per w bits
        lanes = _span([1 << d * w for d in range(e)], p, w, e)
        unlane = dict(zip(lanes, range(p ** e)))
    bits = [format(x, f"0{W}b") for x in lanes]
    return w, W, lanes, unlane, bits, dict(zip(bits, range(p ** e)))


# the largest field whose element codes are bytes; a row over such a field
# is checked, packed and unpacked through ``bytes``
BYTES_Q = 256
# int() reads base 2^d, d <= 5, from these digits, in linear time
_DIGITS = b"0123456789abcdefghijklmnopqrstuv"
# and the digits ``format`` writes for b, o and x back to their values
_VALUE = bytes.maketrans(_DIGITS[:16], bytes(range(16)))


@lru_cache(maxsize=None)
def _byte_tables(p: int, e: int):
    """(codes, d, tables) of the bytes route of GF(p^e), q <= ``BYTES_Q``,
    built on first use: codes is the bytes of every element code, which
    deleted from a row's bytes must leave nothing (``checked``); a lane
    of W bits is read as W/d base-2^d digits, d <= 5 the largest divisor
    of W, and tables[t] takes a code to the ASCII digit t of its lane,
    the most significant first."""
    _, W, lanes, _, _, _ = _lane_tables(p, e)
    d = next(d for d in (5, 4, 3, 2, 1) if W % d == 0)
    m = W // d
    tables = tuple(
        bytes(_DIGITS[lanes[a] >> (m - 1 - t) * d & (1 << d) - 1]
              for a in range(p ** e)).ljust(256, b"0")
        for t in range(m))
    return bytes(range(p ** e)), d, tables


class _Packing:
    """The lane layout of packed vectors of one length over GF(p^e).

    A vector is one int with a lane of W bits per coordinate, coordinate 0
    in the lowest lane; digit d of coordinate i sits at bit i*W + d*w. For
    p = 2 digits add by XOR (w = 1). For odd p a w-bit digit holds sums up
    to 2p - 2 below its guard bit, and a sum is reduced by subtracting p
    where it reaches p: s - (((s + bump) & guard) >> w - 1) * p. A lane's
    top bit stays 0 (for p = 2, e > 1 it is one extra bit), so
    (v + low) & high has one bit, the lane's top bit, for each nonzero
    coordinate; for GF(2) a vector is its own mask.

    Scalar multiples are whole-vector operations too: x * v shifts every
    lane up one digit and folds the top digit back through the modulus,
    and a * v sums c * x^d * v over the base-p digits c of a.
    """

    def __init__(self, field: GF, length: int):
        p, e = field.p, field.e
        w, W, self.lanes, self.unlane, self._bits, self._unbits = \
            _lane_tables(p, e)
        every = ((1 << length * W) - 1) // ((1 << W) - 1)   # bit 0 of every lane
        self.field, self.length, self.p, self.w, self.W = field, length, p, w, W
        self.lane = (1 << W) - 1
        self.low, self.high = ((1 << W - 1) - 1) * every, (1 << W - 1) * every
        self.guard, self.bump = _guard(p, w, length * e)
        self.digit0 = ((1 << w) - 1) * every             # digit 0 of every lane
        # x^e modulo the modulus: for p = 2 as lane bits, for odd p as
        # (bit offset of digit d, its coefficient)
        self.wrap = sum(c << d for d, c in enumerate(field.modulus[:e]))
        self.fold = [(d * w, -c % p) for d, c in enumerate(field.modulus[:e])
                     if c]
        self._bytes = _byte_tables(p, e) if field.q <= BYTES_Q else None

    def checked(self, row):
        """``field.check`` on every entry of a row, at C speed, and the row
        ready for ``pack``: for q <= ``BYTES_Q`` a bytearray of its codes. On
        a row that fails, ``field.check`` itself raises the FieldError."""
        # every entry's type is int, so a bool is refused here
        if list(map(type, row)).count(int) == len(row):
            if self._bytes is None:
                if not row or (min(row) >= 0 and max(row) < self.field.q):
                    return row
            else:
                try:
                    codes = bytearray(row)       # refuses all but 0..255
                except ValueError:
                    pass
                else:                            # nothing left: all below q
                    if not codes.translate(None, self._bytes[0]):
                        return codes
        for x in row:
            self.field.check(x)
        return row

    def pack(self, vec) -> int:
        if self._bytes is None:
            return int("".join(map(self._bits.__getitem__, reversed(vec)))
                       or "0", 2)
        # one translate per lane digit, interleaved, read by one int()
        _, d, tables = self._bytes
        codes, m = bytearray(vec)[::-1], len(tables)  # coordinate n - 1 first
        if m == 1:
            text = codes.translate(tables[0])
        else:
            text = bytearray(len(codes) * m)
            for t, table in enumerate(tables):
                text[t::m] = codes.translate(table)
        return int(text or b"0", 1 << d)

    def unpack(self, v: int):
        """The tuple of element codes that ``pack`` maps to v."""
        n, W = self.length, self.W
        if not n:
            return ()
        if self._bytes is None:
            s = format(v, f"0{n * W}b")             # coordinate n - 1 first
            if W > 1:
                s = [s[i:i + W] for i in range(0, n * W, W)]
            return tuple(map(self._unbits.__getitem__, s))[::-1]
        return tuple(self._code_bytes(v))

    def _code_bytes(self, v: int) -> bytes:
        """The element codes of the packed v as bytes, q <= ``BYTES_Q``.

        For odd p and e > 1 the digits of each lane are first summed into
        the code they stand for, which is below 2^W; then every lane holds
        its code, and its low byte is read by ``format`` or ``to_bytes``.
        """
        n, W, p, e = self.length, self.W, self.p, self.field.e
        if p > 2 and e > 1:
            w = self.w
            v = sum(p ** d * (v >> d * w & self.digit0) for d in range(e))
        if W == 8:
            return v.to_bytes(n, "little")
        if W in (1, 3, 4):                       # one digit a lane
            spec = f"0{n}{'b' if W == 1 else 'o' if W == 3 else 'x'}"
            return format(v, spec).encode().translate(_VALUE)[::-1]
        bits, m = format(v, f"0{n * W}b").encode(), min(W, 8)
        spread = bytearray(b"0") * (8 * n)      # the low m bits, a byte each
        for j in range(m):
            spread[8 - m + j::8] = bits[W - m + j::W]
        return int(spread, 2).to_bytes(n, "little")

    def add(self, u: int, v: int) -> int:
        if self.p == 2:
            return u ^ v
        s = u + v
        return s - (((s + self.bump) & self.guard) >> self.w - 1) * self.p

    def _times(self, v: int, c: int) -> int:
        """c * v for an integer 0 <= c < p, by doubling and adding."""
        acc = 0
        while c:
            if c & 1:
                acc = self.add(acc, v)
            c >>= 1
            if c:
                v = self.add(v, v)
        return acc

    def _times_x(self, v: int) -> int:
        """x * v (e > 1): every lane moves up one digit, and its top digit
        t comes back as t * x^e."""
        e, w = self.field.e, self.w
        if self.p == 2:
            top = self.high >> 1                         # digit e - 1 of a lane
            carry = (v & top) >> e - 1                   # bit 0 of lanes that wrap
            return (v ^ v & top) << 1 ^ carry * self.wrap
        t = v >> (e - 1) * w & self.digit0
        v = (v - (t << (e - 1) * w)) << w
        for shift, c in self.fold:
            v = self.add(v, self._times(t, c) << shift)
        return v

    def powers(self, v: int):
        """[x^d * v for d < e], the terms that ``scale`` sums."""
        out = [v]
        for _ in range(self.field.e - 1):
            out.append(self._times_x(out[-1]))
        return out

    def scale(self, powers, a: int) -> int:
        """a * v, packed, from ``powers(v)``."""
        if a == 1:
            return powers[0]
        acc, p = 0, self.p
        for u in powers:
            if a % p:
                acc = self.add(acc, self._times(u, a % p))
            a //= p
        return acc


class _Reducer:
    """Incremental row reduction in one ``_Packing`` layout.

    ``reduce`` clears a vector's lowest nonzero lane by the kept vector
    pivoted there, v - c * b = v + scale(powers(b), -c), until the vector
    is zero or has a pivot no kept vector has; then it is scaled to make
    that pivot 1 and kept beside its ``powers``. A pivot is keyed by the
    top bit of its lane: (v + low) & high has that bit for each nonzero
    lane, and mask & -mask is the lowest.
    """

    def __init__(self, layout: _Packing):
        self.layout = layout
        self.kept = {}          # top bit of a pivot lane -> (vector, powers)

    def reduce(self, v: int) -> int:
        """Reduce v by the kept vectors, keep what is left, and return the
        rank of every vector reduced so far."""
        lay, kept = self.layout, self.kept
        F, W, low, high = lay.field, lay.W, lay.low, lay.high
        while v:
            mask = (v + low) & high
            top = (mask & -mask).bit_length()
            c = lay.unlane[v >> top - W & lay.lane]
            b = kept.get(top)
            if b is None:
                if c != 1:
                    v = lay.scale(lay.powers(v), F.inv(c))
                kept[top] = v, lay.powers(v)
                break
            v = lay.add(v, lay.scale(b[1], F.neg(c)))
        return len(kept)

    def span(self) -> "Matrix":
        """The kept vectors as the rows of a packed matrix."""
        return Matrix._of_packed(self.layout.field, self.layout,
                                 tuple(v for v, _ in self.kept.values()))


# ----------------------------------------------------------------------
# linear algebra over GF
# ----------------------------------------------------------------------

class Matrix:
    """Dense matrix over a GF.

    Each row is held packed, one int in the lane layout of ``layout`` (a
    ``_Packing``). Rows given as element codes are checked against the
    field and kept as given; a matrix made by elimination holds only its
    packed rows.
    """

    def __init__(self, field: GF, rows):
        rows = tuple(map(tuple, rows))
        ncols = len(rows[0]) if rows else 0
        layout = _Packing(field, ncols)
        codes = list(map(layout.checked, rows))
        if any(len(r) != ncols for r in rows):
            raise FieldError("ragged matrix")
        self._set(field, layout, tuple(map(layout.pack, codes)), rows)

    def _set(self, field, layout, packed, given, echelon=None):
        self.field, self.layout, self.packed = field, layout, packed
        self.nrows, self.ncols = len(packed), layout.length
        self._given, self._echelon = given, echelon

    @classmethod
    def _of_packed(cls, field: GF, layout, packed, echelon=None):
        m = cls.__new__(cls)
        m._set(field, layout, packed, None, echelon)
        return m

    @property
    def rows(self):
        """The rows as a list of tuples of element codes: the given rows,
        or else the packed rows unpacked anew on each read."""
        if self._given is not None:
            return list(self._given)
        return list(map(self.layout.unpack, self.packed))

    def columns(self):
        if not self.nrows:
            return [()] * self.ncols
        return list(zip(*self.rows))

    def _eliminate(self):
        """(packed rows of the RREF, their pivot columns), computed once.

        Each row goes through a ``_Reducer``, which keeps it with its
        pivot, its lowest nonzero lane, scaled to 1 when it has a pivot no
        earlier row has. Back substitution then clears each kept row's
        entries at the higher pivots, lowest first, by the kept rows as
        they are: a kept row is zero below its pivot, so clearing one pivot
        column leaves the lower ones clear. The RREF of a row space is
        unique, so this is the schoolbook elimination's result.
        """
        if self._echelon is None:
            F, lay = self.field, self.layout
            W, lane, unlane = lay.W, lay.lane, lay.unlane
            reducer = _Reducer(lay)
            for v in self.packed:
                reducer.reduce(v)
            kept = reducer.kept
            tops = sorted(kept)
            rows = []
            for i, t in enumerate(tops):
                v = kept[t][0]
                for top in tops[i + 1:]:
                    c = unlane[v >> top - W & lane]
                    if c:
                        v = lay.add(v, lay.scale(kept[top][1], F.neg(c)))
                rows.append(v)
            self._echelon = tuple(rows), tuple(t // W - 1 for t in tops)
        return self._echelon

    def echelon(self) -> "Matrix":
        """The RREF's nonzero rows as a matrix, packed, its rank known."""
        echelon = self._eliminate()
        return Matrix._of_packed(self.field, self.layout, echelon[0], echelon)

    def rank(self) -> int:
        return len(self._eliminate()[0])

    def kernel(self):
        """Basis matrix of the right null space; rank + nullity = ncols."""
        F, lay = self.field, self.layout
        packed, pivots = self._eliminate()
        W, lane, lanes, unlane = lay.W, lay.lane, lay.lanes, lay.unlane
        basis = []
        for fc in sorted(set(range(self.ncols)).difference(pivots)):
            v = lanes[1] << fc * W
            for row, pc in zip(packed, pivots):
                c = unlane[row >> fc * W & lane]
                if c:
                    v |= lanes[F.neg(c)] << pc * W
            basis.append(v)
        return Matrix._of_packed(F, lay, tuple(basis))


# ----------------------------------------------------------------------
# the columns of PG(K-1, q), packed
# ----------------------------------------------------------------------

def point_position(field: GF, vec):
    """The position of vec's projective point among the columns of
    ``simplex_columns(field, len(vec))``; None for the zero vector.

    The point scaled to a leading 1, with t coordinates after it, is at
    (q^t - 1)/(q - 1) plus those t coordinates read in base q. Leading
    zeros, which pad a point to a larger dimension, do not change it.
    """
    for lead, x in enumerate(vec):
        if x:
            break
    else:
        return None
    tail, q = vec[lead + 1:], field.q
    if x != 1:
        inv = field.inv(x)
        tail = [field.mul(inv, y) for y in tail]
    index = 0
    for y in tail:
        index = index * q + y
    return index + (q ** len(tail) - 1) // (q - 1)


def simplex_columns(field: GF, K: int, deleted=()) -> Matrix:
    """The K-row matrix whose columns are the canonical points of
    PG(K-1, q) (first nonzero coordinate 1), sorted by their integer
    encoding with the topmost coordinate most significant, less the
    columns at the sorted distinct positions ``deleted``
    (``point_position`` gives a point's position).

    The block of points with their leading 1 at coordinate lead starts at
    (q^(K-1-lead) - 1)/(q - 1). In it row i is 0 for i < lead and 1 for
    i = lead. For i > lead it runs through 0, ..., q - 1, each value
    repeated r = q^(K-1-i) times, and repeats that period of q * r
    points, which divides the block. So the whole row i is
    (q^(K-1-i) - 1)/(q - 1) zeros, r ones, and the period repeated
    (q^i - 1)/(q - 1) times. It is made by string repetition as the
    packed int's bit string: the last column first, each lane's bit
    string (``_lane_tables``) as it is, most significant bit first. The
    deleted columns are cut out of it with len(deleted) + 1 slices, the
    kept span of columns [a, b) being the text from (total - b) * W to
    (total - a) * W, and the rest is read as one int, so nothing is done
    per point of PG(K-1, q).
    """
    q = field.q
    _, W, _, _, bits, _ = _lane_tables(field.p, field.e)
    total = (q ** K - 1) // (q - 1)
    kept = zip([0] + [c + 1 for c in deleted], list(deleted) + [total])
    spans = [((total - b) * W, (total - a) * W) for a, b in kept if a < b]
    spans.reverse()
    rows = []
    for i in range(K):
        r = q ** (K - 1 - i)
        row = bits[1] * r + bits[0] * ((r - 1) // (q - 1))
        if i:                       # row 0 has no period, which would be q^K long
            row = ("".join([b * r for b in reversed(bits)])
                   * ((q ** i - 1) // (q - 1))) + row
        rows.append(int("".join([row[a:b] for a, b in spans]) or "0", 2))
    return Matrix._of_packed(field, _Packing(field, total - len(deleted)),
                             tuple(rows))
