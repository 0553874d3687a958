"""Linear codes: exact weight distributions, duals, projectivity, minimality.

Weight counts and minimality verdicts come from one walk, ``_classes``,
over the projective classes of nonzero messages: one message per class of
q - 1 scalar multiples, which share one support. The walk holds each
codeword packed in a single int, so a step is one word-wide addition and a
weight is one popcount; memory is O(n * e) whatever q^k is.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import Counter

from .gf import GF, Matrix

ENUM_CAP = int(os.environ.get("ANTICODES_ENUM_CAP", 1 << 24))
MINIMAL_CAP = int(os.environ.get("ANTICODES_MINIMAL_CAP", 1 << 20))


class CapExceeded(RuntimeError):
    pass


class CodeError(ValueError):
    pass


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

    ``column_points`` optionally retains the originating column multiset in
    its ambient dimension (which may exceed k when the defining matrix was
    rank-deficient); the complement construction consumes it.
    """

    def __init__(self, field: GF, generator: Matrix, label: str = "",
                 column_points=None):
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
        self.column_points = column_points
        self._wd = None

    @classmethod
    def from_generator(cls, field: GF, rows, label: str = "") -> "LinearCode":
        return cls(field, Matrix(field, rows), label=label)

    @classmethod
    def from_columns(cls, field: GF, columns, label: str = "") -> "LinearCode":
        """Code spanned by the rows of the matrix with the given columns.

        The matrix may be rank-deficient; a row basis becomes the generator
        and the full column list is kept for the complement construction.
        """
        ambient = len(columns[0])
        m = Matrix(field, [[col[i] for col in columns] for i in range(ambient)])
        basis, _ = m.rref()
        return cls(field, Matrix(field, basis), label=label,
                   column_points=(ambient, [tuple(c) for c in columns]))

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}]_{self.field.q}, {self.label!r})"

    # ------------------------------------------------------------------
    def _check_cap(self):
        if self.field.q ** self.k > ENUM_CAP:
            raise CapExceeded(
                f"q^k = {self.field.q ** self.k} exceeds enumeration cap")

    def weight_distribution(self) -> WeightDistribution:
        """Counts from one codeword per projective class, each times q - 1."""
        if self._wd is None:
            self._check_cap()
            q = self.field.q
            classes = Counter(map(int.bit_count,
                                  _classes(self.field, self.generator.rows)))
            counts = {0: 1}
            counts.update((w, c * (q - 1)) for w, c in classes.items())
            self._wd = WeightDistribution(q, self.n, self.k, counts)
        return self._wd

    def min_distance(self) -> int:
        return self.weight_distribution().min_weight

    def max_weight(self) -> int:
        return self.weight_distribution().max_weight

    # ------------------------------------------------------------------
    def dual_code(self) -> "LinearCode":
        ker = self.generator.kernel()
        if ker.nrows == 0:
            raise CodeError(f"[{self.n},{self.k}] code has a trivial dual")
        return LinearCode(self.field, ker, label=f"dual({self.label})")

    def dual_distance(self):
        """Exact dual minimum distance when the dual is enumerable, else None."""
        if self.n == self.k:
            return None
        dual = self.dual_code()
        if self.field.q ** dual.k > ENUM_CAP:
            return None
        return dual.min_distance()

    def is_projective(self) -> bool:
        """Column test: no zero column, no two columns scalar multiples."""
        F = self.field
        seen = set()
        for col in self.generator.columns():
            canon = canonical_point(F, col)
            if canon is None or canon in seen:
                return False
            seen.add(canon)
        return True

    # ------------------------------------------------------------------
    def is_minimal_exact(self):
        """(True, None) or (False, (covered, covering)) witness codeword pair.

        Minimal means: support containment between nonzero codewords only
        happens between scalar multiples. The q - 1 multiples in a
        projective class share one support, so two classes with the same
        support, or one support strictly inside another, are a witness.
        (Equal supports also imply a strict one, u - c*v for the c that
        cancels a coordinate; the first check just stops the walk early.)
        """
        if self.field.q ** self.k > MINIMAL_CAP:
            raise CapExceeded("pairwise support check over the cap")
        first = {}  # support mask -> index of the first class that has it
        for index, mask in enumerate(_classes(self.field, self.generator.rows)):
            other = first.setdefault(mask, index)
            if other != index:
                return False, (self._class_codeword(other),
                               self._class_codeword(index))
        masks = sorted(first, key=int.bit_count)
        weights = [m.bit_count() for m in masks]
        for small, weight in zip(masks, weights):
            # only a heavier support can strictly contain this one
            rest = masks[bisect_right(weights, weight):]
            meets = list(map(small.__and__, rest))
            if small in meets:
                big = rest[meets.index(small)]
                return False, (self._class_codeword(first[small]),
                               self._class_codeword(first[big]))
        return True, None

    def _class_codeword(self, index: int):
        """The codeword of the index-th class that ``_classes`` yields."""
        F = self.field
        word = [0] * self.n
        for m, row in zip(_class_message(F, self.k, index), self.generator.rows):
            if m:
                word = [F.add(a, F.mul(m, b)) for a, b in zip(word, row)]
        return tuple(word)

    def ab_criterion(self) -> bool:
        """Sufficient minimality condition: q*d > (q-1)*delta, exactly."""
        wd = self.weight_distribution()
        return self.field.q * wd.min_weight > (self.field.q - 1) * wd.max_weight


def canonical_point(field: GF, vec):
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    for x in vec:
        if x:
            inv = field.inv(x)
            return tuple(field.mul(inv, y) for y in vec)
    return None


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
# ----------------------------------------------------------------------

def _classes(field: GF, rows):
    """Yield one support mask per projective class of nonzero messages.

    Codewords are packed into one int with a lane of W bits per coordinate;
    digit d of coordinate i sits at bit i*W + d*w. For p = 2 digits add by
    XOR (w = 1). For odd p a w-bit digit holds sums up to 2p - 2 below its
    guard bit, and a sum is reduced by subtracting p where it reaches p.
    A lane's top bit stays 0 (for p = 2, e > 1 it is one extra bit), so
    (cw + low) & high has one bit for each nonzero coordinate; for GF(2)
    the codeword is its own mask. A mask's
    bits sit at lane positions, not coordinate positions, but its
    bit_count is the weight and supports nest exactly when masks do.
    """
    p, e, n = field.p, field.e, len(rows[0])
    w = 1 if p == 2 else (2 * p - 2).bit_length() + 1
    W = e * w + (p == 2 and e > 1)
    every = ((1 << n * W) - 1) // ((1 << W) - 1)     # bit 0 of every lane
    low, high = ((1 << W - 1) - 1) * every, (1 << W - 1) * every

    lanes = [0]                                   # lanes[a]: a's digits
    for d in range(e):
        lanes = [x | c << d * w for c in range(p) for x in lanes]

    def pack(vec):
        cw = 0
        for x in reversed(vec):
            cw = cw << W | lanes[x]
        return cw

    scaled = [[pack([field.mul(p ** d, x) for x in row]) for d in range(e)]
              for row in rows]
    plain = p == 2 and e == 1
    if p > 2:
        digit = ((1 << n * e * w) - 1) // ((1 << w) - 1)  # bit 0 of every digit
        guard, bump = (1 << w - 1) * digit, ((1 << w - 1) - p) * digit
    for lead, multiples in enumerate(scaled):
        cw = multiples[0]                                 # beta_0 = 1
        tail = [v for later in scaled[lead + 1:] for v in later]
        yield cw if plain else (cw + low) & high
        if p == 2:
            for s in range(1, 1 << len(tail)):
                cw ^= tail[(s & -s).bit_length() - 1]
                yield cw if plain else (cw + low) & high
            continue
        top, s_digits = p - 1, [0] * len(tail)
        for _ in range(p ** len(tail) - 1):
            j = 0
            while s_digits[j] == top:
                s_digits[j] = 0
                j += 1
            s_digits[j] += 1
            cw += tail[j]
            cw -= (((cw + bump) & guard) >> w - 1) * p
            yield (cw + low) & high


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
