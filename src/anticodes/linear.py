"""Linear codes: exact weight distributions, projectivity, minimality.

Weight counts and minimality verdicts come from one walk, ``_classes``,
over the projective classes of nonzero messages: one message per class of
q - 1 scalar multiples, which share one support. The walk holds each
codeword packed in a single int, so a step is one word-wide addition and a
weight is one popcount. It runs in blocks of at most 256 codewords (p
for a prime p > 256), each one pass over its lead's first block, so its
memory is O(256 * n * e) whatever q^k is. Minimality is checked one class
at a time: the columns where the class vanishes must span its hyperplane
(``_short_span``). That rank test feeds the columns, packed
as vectors of length k, to the row reducer ``Matrix`` elimination runs on
(``gf._Reducer``), in every field alike. It runs on a second walk, and only
on classes heavy enough to cover another (Ashikhmin-Barg), which the
distribution names.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from functools import lru_cache
from itertools import chain

from .gf import GF, Matrix, _Packing, _Reducer, point_position

# the caps' defaults; the environment may override each (``_cap``)
ENUM_CAP = 1 << 24
MINIMAL_CAP = 1 << 20


class CapExceeded(RuntimeError):
    pass


class CodeError(ValueError):
    pass


def _cap(name: str) -> int:
    """The cap ``name`` now: the integer >= 1 in ANTICODES_<name>, read at
    each use, or else this module's default; any other value, a CodeError."""
    text = os.environ.get(f"ANTICODES_{name}")
    if text is None:
        return globals()[name]
    cap = int(text) if text.isascii() and text.isdigit() and len(
        text) <= decimal_limit() else 0     # int() reads no longer text
    if cap < 1:
        raise CodeError(f"ANTICODES_{name} must be an integer >= 1, "
                        f"got {text!r}")
    return cap


# the most decimal digits printed even when Python's limit is lifted:
# int-to-text is quadratic, and str() of a 5*10^4-digit int takes 0.04 s
# (10^5 digits 0.18 s, 10^6 digits 17 s; Python 3.11, 2-core x86-64)
DECIMAL_CEILING = 50_000


def decimal_limit() -> int:
    """The most decimal digits an int of a result may have: Python's limit
    on int-to-text conversion (PYTHONINTMAXSTRDIGITS), but at most
    ``DECIMAL_CEILING``, which also stands for no limit (0, or a Python
    without one)."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(digits or DECIMAL_CEILING, DECIMAL_CEILING)


def prints_in_decimal(base: int, exp: int, shift: int = 0) -> bool:
    """Whether base^exp * 2^shift is below 10^``decimal_limit()``, so that
    every nonnegative int below it converts to text. The power is formed
    only when bit lengths cannot settle it: 2^(3d) < 10^d < 2^(4d)."""
    digits = decimal_limit()
    bits = base.bit_length()
    if exp * bits + shift <= 3 * digits:
        return True
    if exp * (bits - 1) + shift >= 4 * digits:
        return False
    return base ** exp << shift < 10 ** digits


class WeightDistribution:
    """Exact weight -> count table for a linear code."""

    def __init__(self, q: int, n: int, k: int, counts: dict):
        self.q = q
        self.n = n
        self.k = k
        self.counts = {w: c for w, c in sorted(counts.items()) if c}
        total = sum(self.counts.values())
        if total != q ** k:
            raise CodeError(f"weight counts sum to {total}, expected q^k = {q ** k}")
        if self.counts.get(0) != 1:
            raise CodeError("A_0 must equal 1")
        if any(w < 0 or w > n for w in self.counts):
            raise CodeError("weight outside [0, n]")

    def nonzero_weights(self):
        return [w for w in self.counts if w > 0]

    @property
    def min_weight(self) -> int:
        return min(self.nonzero_weights())

    @property
    def max_weight(self) -> int:
        return max(self.nonzero_weights())

    @property
    def num_weights(self) -> int:
        return len(self.nonzero_weights())

    def __eq__(self, other):
        return (isinstance(other, WeightDistribution)
                and (self.q, self.n, self.k, self.counts)
                == (other.q, other.n, other.k, other.counts))

    def __repr__(self):
        return f"WeightDistribution(q={self.q}, n={self.n}, k={self.k}, {self.counts})"

    def to_dict(self):
        return {str(w): c for w, c in self.counts.items()}


class LinearCode:
    """An [n, k]_q code held as a full-rank k x n generator matrix.

    A code built from columns keeps their matrix in its ambient dimension
    (which may exceed k when that matrix was rank-deficient);
    ``column_points`` reads it as column tuples, and the complement
    construction consumes it.
    """

    def __init__(self, field: GF, generator: Matrix, label: str = "",
                 points: Matrix | None = None):
        if generator.nrows == 0 or generator.ncols == 0:
            raise CodeError("zero-size generator")
        r = generator.rank()
        if r != generator.nrows:
            raise CodeError(
                f"generator is rank-deficient: rank {r} < {generator.nrows} rows")
        self.field = field
        self.generator = generator
        self.n = generator.ncols
        self.k = generator.nrows
        self.label = label
        self._points = points
        self._wd = None
        self._claim = None        # a distribution read from a code file

    @classmethod
    def from_generator(cls, field: GF, rows, label: str = "") -> "LinearCode":
        return cls(field, Matrix(field, rows), label=label)

    @classmethod
    def from_columns(cls, field: GF, columns, label: str = "") -> "LinearCode":
        """Code spanned by the rows of the matrix with the given columns,
        which may repeat or be rank-deficient but not differ in length."""
        try:
            rows = list(zip(*columns, strict=True))
        except ValueError as exc:       # zip() argument i: the i-th column
            raise CodeError(f"ragged columns: {exc}") from None
        return cls.from_column_matrix(field, Matrix(field, rows), label=label)

    @classmethod
    def from_column_matrix(cls, field: GF, points: Matrix,
                           label: str = "") -> "LinearCode":
        """Code spanned by the rows of ``points``, whose columns it keeps.
        Its generator is the RREF of ``points``, with its rank known."""
        return cls(field, points.echelon(), label=label, points=points)

    @property
    def column_points(self):
        """(ambient dimension, column tuples) of the matrix the code was
        built from, read anew each time; None for a code built from its
        generator rows."""
        if self._points is None:
            return None
        return self._points.nrows, self._points.columns()

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}]_{self.field.q}, {self.label!r})"

    # ------------------------------------------------------------------
    @property
    def distribution_verified(self) -> bool:
        """False while ``weight_distribution`` returns a code file's claim
        that no walk can check, the code being over the enumeration cap."""
        return not (self._wd is None and self._claim is not None
                    and self.field.q ** self.k > _cap("ENUM_CAP"))

    def weight_distribution(self) -> WeightDistribution:
        """Counts from one codeword per projective class, each times q - 1.
        Over the enumeration cap a claimed distribution stands unverified."""
        if self._wd is None:
            q = self.field.q
            if q ** self.k > _cap("ENUM_CAP"):
                if self._claim is not None:
                    return self._claim
                raise CapExceeded(
                    f"q^k = {q ** self.k} exceeds enumeration cap")
            classes = Counter(map(int.bit_count,
                                  _classes(self.generator)))
            wd = WeightDistribution(q, self.n, self.k, {
                0: 1, **{w: c * (q - 1) for w, c in classes.items()}})
            if self._claim is not None and wd != self._claim:
                raise CodeError("the cached weight_distribution is not the "
                                f"generator's: counted {wd.to_dict()}")
            self._wd = wd
        return self._wd

    def min_distance(self) -> int:
        return self.weight_distribution().min_weight

    # ------------------------------------------------------------------
    def is_projective(self) -> bool:
        """No zero column and no two columns scalar multiples, i.e. no dual
        codeword of weight 1 or 2. Under the enumeration cap that is
        B_1 = B_2 = 0 in the counted distribution (``low_dual_counts``);
        over it, where a code file's distribution is an unchecked claim,
        it is the column test of ``point_positions``."""
        if self.field.q ** self.k <= _cap("ENUM_CAP"):
            return low_dual_counts(self.weight_distribution()) == (0, 0)
        try:
            point_positions(self.field, zip(*self.generator.rows))
        except CodeError:
            return False
        return True

    # ------------------------------------------------------------------
    def is_minimal_exact(self):
        """(True, None) or (False, (covered, covering)) witness codeword pair.

        Minimal means: support containment between nonzero codewords only
        happens between scalar multiples. That holds iff the columns form a
        cutting blocking set (Alfarano-Borello-Neri, arXiv:1911.11738):
        for every nonzero message u, the columns where uG vanishes span the
        hyperplane u^perp. If they span only V' < u^perp, any u' != u in
        the null space of V' vanishes wherever u does, so supp(u'G) lies
        inside supp(uG). Only a heavy class, (q - 1) wt >= q d, can cover
        another (Ashikhmin-Barg, IEEE Trans. IT 44(5), 1998): some nonzero
        c' - lambda c weighs at most wt(c') - wt(c) / (q - 1). So the
        counted distribution prunes the rank test to heavy classes, and
        clears a code with none. The witness comes from the first class
        that fails, the same class an unpruned walk stops at.
        """
        F, q, k = self.field, self.field.q, self.k
        if q ** k > _cap("MINIMAL_CAP"):
            raise CapExceeded(f"q^k = {q ** k} exceeds the minimality cap")
        heavy = 0               # over the enumeration cap a claim clears nothing
        if q ** k <= _cap("ENUM_CAP"):
            if self.ab_criterion():
                return True, None
            heavy = -(-q * self.min_distance() // (q - 1))
        # the builders list columns in sorted order, whose first columns in a
        # hyperplane lie in a small subspace; a fixed shuffle reaches rank
        # k - 1 after a few more than k - 1 columns
        order = list(range(self.n))
        random.Random(0).shuffle(order)
        shuffled = Matrix(F, [[row[i] for i in order]
                              for row in self.generator.rows])
        short = _short_span(shuffled)
        for index, mask in enumerate(_classes(shuffled)):
            if mask.bit_count() >= heavy:
                basis = short(mask)
                if basis is not None:
                    return False, self._witness(_class_message(F, k, index), basis)
        return True, None

    def _witness(self, u, basis):
        """(u'G, uG) for a u' that vanishes on the rows of the matrix
        ``basis``, not a multiple of u."""
        F = self.field
        null = basis.kernel()
        point = point_position(F, u)
        other = next(x for x in null.rows if point_position(F, x) != point)
        return self._codeword(other), self._codeword(u)

    def _codeword(self, message):
        """uG as a tuple: the sum of the packed scaled rows, unpacked."""
        lay, word = self.generator.layout, 0
        for m, row in zip(message, self.generator.packed):
            if m:
                word = lay.add(word, lay.scale(lay.powers(row), m))
        return lay.unpack(word)

    def ab_criterion(self) -> bool:
        """Sufficient minimality condition: q*d > (q-1)*delta, exactly."""
        wd = self.weight_distribution()
        return self.field.q * wd.min_weight > (self.field.q - 1) * wd.max_weight


def low_dual_counts(wd: WeightDistribution):
    """(B_1, B_2), the dual code's words of weight 1 and 2, from the code's
    distribution by the MacWilliams identities q^k B_j = sum_w A_w K_j(w),
    with the Krawtchouk polynomials K_1(w) = (q - 1) n - q w and
    K_2(w) = (q - 1)^2 C(n - w, 2) - (q - 1)(n - w) w + C(w, 2)
    (MacWilliams-Sloane, ch. 5), in exact integers. A zero column makes
    B_1 > 0 and two proportional columns make B_2 > 0."""
    q, n = wd.q, wd.n
    s1 = s2 = 0
    for w, a in wd.counts.items():
        u = n - w
        s1 += a * ((q - 1) * n - q * w)
        s2 += a * ((q - 1) ** 2 * (u * (u - 1) // 2) - (q - 1) * u * w
                   + w * (w - 1) // 2)
    return s1 // q ** wd.k, s2 // q ** wd.k


def point_positions(field: GF, columns):
    """The position (``gf.point_position``) of each column's projective
    point; CodeError if a column is zero or two share a point."""
    positions, seen = [], set()
    for col in columns:
        position = point_position(field, col)
        if position is None:
            raise CodeError("zero column in a projective point set")
        if position in seen:
            raise CodeError(f"repeated projective point {tuple(col)}")
        seen.add(position)
        positions.append(position)
    return positions


# ----------------------------------------------------------------------
# the class walk
#
# A message whose first nonzero coordinate is 1 stands for its projective
# class. Below the leading 1 the message has e * t digits over GF(p), t the
# number of later rows: digit j is the coefficient of beta_d = x^d (the
# element code p^d) in coordinate lead + 1 + j // e, d = j % e. The walk
# counts s = 0, 1, ... in base p and at each step adds 1 to digit v_p(s),
# the number of trailing zero digits of s (a modular p-ary Gray code), so a
# step adds one precomputed codeword beta_d * row. After s steps digit j is
# (s_j - s_(j+1)) mod p, where s_j is the j-th base-p digit of s.
#
# The walk runs in blocks of p^a steps, a the most digits with p^a <=
# _BLOCK (at least one). With s = h * p^a + r, digit j < a - 1 depends on r
# alone, digit a - 1 is (r_(a-1) - h_0) mod p and the digits above depend
# on h alone. So block h is the first block T0 plus one codeword d_h, and
# d_h - d_(h-1) is the row of digit a + v_p(h) minus the row of digit
# a - 1: each block after T0 is one comprehension over T0.
# ----------------------------------------------------------------------

# the most codewords in one block of the class walk
_BLOCK = 256


@lru_cache(maxsize=None)      # one tuple per prime p in use
def _ruler(p: int, block: int):
    """(a, v_p(s) for s = 1 .. p^a - 1), a the most digits, at least one,
    with p^a <= block: the digit each step of a block's walk adds 1 to.
    The first p^j - 1 entries are the ruler of a walk over j digits."""
    a, ruler = 1, (0,) * (p - 1)
    while p ** (a + 1) <= block:
        ruler = ((*ruler, a) * p)[:-1]
        a += 1
    return a, ruler


def _classes(generator: Matrix):
    """Iterate one support mask per projective class of nonzero messages.

    Codewords are the generator's packed rows summed in its layout, and a
    mask is (cw + low) & high. Its bits sit at lane positions, not
    coordinate positions, but its bit_count is the weight and supports
    nest exactly when masks do.
    """
    return chain.from_iterable(_blocks(generator))


def _blocks(generator: Matrix):
    """The masks of ``_classes``, one list of p^a at a time (fewer for a
    lead with fewer than a digits)."""
    p, e = generator.field.p, generator.field.e
    lay = generator.layout
    w1, low, high = lay.w - 1, lay.low, lay.high
    guard, bump = lay.guard, lay.bump
    a, ruler = _ruler(p, _BLOCK)
    scaled = [lay.powers(v) for v in generator.packed]    # beta_d * row
    for lead, multiples in enumerate(scaled):
        cw = multiples[0]                                 # beta_0 = 1
        tail = [v for later in scaled[lead + 1:] for v in later]
        inner, table = tail[:a], [cw]
        append, steps = table.append, ruler[:p ** len(inner) - 1]
        if p == 2:
            for j in steps:
                cw ^= inner[j]
                append(cw)
        else:
            for j in steps:
                cw += inner[j]
                cw -= (((cw + bump) & guard) >> w1) * p
                append(cw)
        yield table if p == 2 and e == 1 else [x + low & high for x in table]
        if len(tail) <= a:
            continue
        minus = lay._times(tail[a - 1], p - 1)
        outer = [lay.add(v, minus) for v in tail[a:]]
        d, top, h_digits = 0, p - 1, [0] * len(outer)
        for _ in range(p ** len(outer) - 1):
            j = 0
            while h_digits[j] == top:
                h_digits[j] = 0
                j += 1
            h_digits[j] += 1
            d = lay.add(d, outer[j])
            if p != 2:
                yield [((s := d + x) - (((s + bump) & guard) >> w1) * p + low)
                       & high for x in table]
            elif e == 1:
                yield [d ^ x for x in table]
            else:
                yield [(d ^ x) + low & high for x in table]


def _class_message(field: GF, k: int, index: int):
    """The message of the index-th class that ``_classes`` yields."""
    p, e, q = field.p, field.e, field.q
    lead = 0
    while index >= q ** (k - lead - 1):
        index -= q ** (k - lead - 1)
        lead += 1
    t = k - lead - 1
    gray = [(index // p ** j - index // p ** (j + 1)) % p for j in range(e * t)]
    return [0] * lead + [1] + [field.from_coords(gray[i * e:(i + 1) * e])
                               for i in range(t)]


def _short_span(generator: Matrix):
    """The cutting-blocking-set test, one class at a time.

    ``generator`` is the matrix the class walk runs on. The returned function
    takes a class's support mask and feeds the columns where the class
    vanishes, lowest lane first, to a fresh ``_Reducer`` until they reach
    rank k - 1: then they span the class's hyperplane and it returns None.
    If they fall short it returns their span as a packed matrix of
    message-space vectors. Each column is packed once, as a vector of
    length k.
    """
    field, k, n = generator.field, generator.nrows, generator.ncols
    if k == 1:                       # the hyperplane is {0}
        return lambda mask: None
    lay = _Packing(field, k)
    W, target = lay.W, k - 1
    at = [0] * ((n + 1) * W)         # mask bit length -> column
    at[W::W] = map(lay.pack, generator.columns())
    zero_lanes = generator.layout.high

    def short(mask):
        zeros = zero_lanes ^ mask
        reducer = _Reducer(lay)
        while zeros:
            bit = zeros & -zeros
            zeros ^= bit
            if reducer.reduce(at[bit.bit_length()]) == target:
                return None
        return reducer.span()
    return short
