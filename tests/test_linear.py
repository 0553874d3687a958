"""Weight distributions, duals, projectivity, and minimality.

The class walk is checked against ``span``, a naive enumeration of all q^k
codewords, and against a literal pairwise minimality check on its output.
"""

import gc
import os
import random
import sys
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anticodes import codefile, linear
from anticodes.gf import Matrix, field_make, field_of_order
from anticodes.linear import (
    CapExceeded, CodeError, LinearCode, WeightDistribution, low_dual_counts,
    point_positions,
)
from anticodes.constructions import (
    complement, complementary_mds_trivial, complementary_rs, dual_bch_code,
    fixed_weight_anticode, kasami_code, rs_code, simplex,
)
from anticodes.report import code_report
from test_gf import schoolbook_rref

F2 = field_make(2, 1)
ORACLE_CAP = 1 << 12


def span(code):
    """All q^k codewords as tuples, by adding every multiple of each row."""
    F = code.field
    assert F.q ** code.k <= ORACLE_CAP, "oracle limited to q^k <= 2^12"
    words = [tuple([0] * code.n)]
    for row in code.generator.rows:
        scaled = [tuple(F.mul(lam, x) for x in row) for lam in range(F.q)]
        words = [tuple(F.add(a, b) for a, b in zip(w, s))
                 for w in words for s in scaled]
    return words


def dual_code(code):
    """The dual code, from the generator's kernel."""
    return LinearCode(code.field, code.generator.kernel(),
                      label=f"dual({code.label})")


def span_distribution(code):
    return WeightDistribution(code.field.q, code.n, code.k,
                              Counter(sum(1 for x in w if x)
                                      for w in span(code)))


def support(word):
    return frozenset(i for i, x in enumerate(word) if x)


def proportional(field, u, v):
    return any(tuple(field.mul(c, y) for y in v) == u for c in range(1, field.q))


def pairwise_minimal(code, words):
    """Literal definition: supp(u) inside supp(v) only for u, v proportional.
    Words are grouped by support, so only nested groups are compared."""
    groups = {}
    for w in words:
        if any(w):
            groups.setdefault(support(w), []).append(w)
    return not any(small <= big and not proportional(code.field, u, v)
                   for small in groups for big in groups
                   for u in groups[small] for v in groups[big])


def test_weight_distribution_validation():
    WeightDistribution(2, 7, 3, {0: 1, 4: 7})
    with pytest.raises(CodeError):
        WeightDistribution(2, 7, 3, {0: 1, 4: 6})       # bad total
    with pytest.raises(CodeError):
        WeightDistribution(2, 7, 3, {0: 2, 4: 6})       # A_0 != 1
    with pytest.raises(CodeError):
        WeightDistribution(2, 7, 3, {0: 1, 9: 7})       # weight > n


def test_distribution_accessors():
    wd = WeightDistribution(2, 7, 3, {0: 1, 3: 4, 4: 3})
    assert wd.nonzero_weights() == [3, 4]
    assert (wd.min_weight, wd.max_weight, wd.num_weights) == (3, 4, 2)
    assert wd.to_dict() == {"0": 1, "3": 4, "4": 3}


def test_generator_must_be_full_rank():
    with pytest.raises(CodeError):
        LinearCode.from_generator(F2, [[1, 0, 1], [1, 0, 1]])


def test_simplex_distribution():
    wd = simplex(2, 3).weight_distribution()
    assert wd.counts == {0: 1, 4: 7}
    wd = simplex(3, 3).weight_distribution()
    assert wd.counts == {0: 1, 9: 26}


@pytest.mark.parametrize("code", [
    simplex(2, 4), simplex(3, 3), rs_code(4, 3), rs_code(5, 4),
    fixed_weight_anticode(7, 4),
])
def test_two_enumeration_routes_agree(code):
    assert code.weight_distribution() == span_distribution(code)


def test_codeword_count():
    code = rs_code(4, 2)
    words = span(code)
    assert len(set(words)) == len(words) == 16
    # the 15 nonzero codewords fall into 5 classes of q - 1 = 3 multiples
    assert sum(1 for _ in linear._classes(code.generator)) == 5


def test_dual_of_simplex_is_hamming():
    code = simplex(2, 3)
    dual = dual_code(code)
    assert (dual.n, dual.k) == (7, 4)
    assert dual.min_distance() == 3
    assert dual_code(dual).weight_distribution() == code.weight_distribution()
    assert code.is_projective()


def test_dual_distance_of_a_high_rate_code():
    # the [31,26]_2 Hamming code: q^k = 2^26 is over the cap, but the dual
    # is the 5-dimensional simplex code, all of whose nonzero words weigh 16
    hamming = dual_code(simplex(2, 5))
    assert linear.ENUM_CAP < 2 ** hamming.k
    assert dual_code(hamming).min_distance() == 16


def test_projectivity_column_test():
    # repeated column
    code = LinearCode.from_generator(F2, [[1, 1, 0], [0, 0, 1]])
    assert not code.is_projective()
    # scalar-multiple columns over GF(3)
    F3 = field_make(3, 1)
    code = LinearCode.from_generator(F3, [[1, 2, 0], [0, 0, 1]])
    assert not code.is_projective()


@st.composite
def columns_with_repeats(draw):
    """(field, columns): random columns, then zero columns and nonzero
    multiples of them, and the unit columns, which give full rank."""
    q = draw(st.sampled_from(ORACLE_FIELDS))
    field = field_of_order(q)
    k = draw(st.integers(1, 4))
    base = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * k),
                         min_size=1, max_size=6))
    extra = draw(st.lists(st.tuples(st.integers(0, len(base)),
                                    st.integers(1, q - 1)), max_size=4))
    pool = base + [(0,) * k]                     # the last is the zero column
    copies = [tuple(field.mul(c, x) for x in pool[i]) for i, c in extra]
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return field, draw(st.permutations(base + copies + units))


@settings(max_examples=200, deadline=None)
@given(columns_with_repeats())
def test_projectivity_against_pairwise_oracle(case):
    field, columns = case
    code = LinearCode.from_generator(field, list(zip(*columns)))
    want = all(any(c) for c in columns) and not any(
        proportional(field, u, v) for u, v in combinations(columns, 2))
    assert code.is_projective() == want


@st.composite
def planted_columns(draw):
    """(field, columns): the unit columns, which give full rank, random
    columns, and planted zero, repeated and proportional columns."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    field = field_of_order(q)
    k = draw(st.integers(1, 4))
    pool = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    pool += draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * k),
                          max_size=6))
    columns = list(pool)
    for plant in draw(st.lists(st.sampled_from(["zero", "repeat", "multiple"]),
                               max_size=3)):
        if plant == "zero":
            columns.append((0,) * k)
            continue
        column = draw(st.sampled_from(pool))
        c = 1 if plant == "repeat" else draw(st.integers(1, q - 1))
        columns.append(tuple(field.mul(c, x) for x in column))
    return field, draw(st.permutations(columns))


def column_test(field, columns):
    """The projectivity verdict of ``point_positions``, the oracle."""
    try:
        point_positions(field, columns)
    except CodeError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(planted_columns())
def test_projectivity_from_the_distribution_is_the_column_test(case):
    field, columns = case
    q = field.q
    code = LinearCode.from_generator(field, list(zip(*columns)))
    assert code.is_projective() == column_test(field, columns)
    # B_1 counts (q - 1) words per zero column, and B_2 (q - 1) per pair of
    # proportional nonzero columns and (q - 1)^2 per pair of zero columns
    zeros = sum(1 for c in columns if not any(c))
    pairs = sum(1 for u, v in combinations(columns, 2)
                if any(u) and any(v) and proportional(field, u, v))
    assert low_dual_counts(code.weight_distribution()) == (
        (q - 1) * zeros, (q - 1) * pairs + (q - 1) ** 2 * zeros * (zeros - 1) // 2)
    # over the cap the file's distribution is an unchecked claim: the
    # column test decides, and nothing is counted
    claimed = codefile.code_from_dict(codefile.code_to_dict(code))
    with mock.patch.dict(os.environ, {"ANTICODES_ENUM_CAP": "1"}):
        assert not claimed.distribution_verified
        assert claimed.is_projective() == column_test(field, columns)
    assert claimed._wd is None


def test_projectivity_of_a_long_code_stays_small():
    # the [65528, 16] complement of dual-BCH(3): a canonical tuple per
    # column peaked at 31 MiB traced, the unpacked rows included
    code = complement(dual_bch_code(3), K=16)
    tracemalloc.start()
    try:
        projective = code.is_projective()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert projective
    assert peak < 16 << 20


def test_a_long_code_holds_no_unpacked_copy():
    # the [4088, 12] complement of dual-BCH(3): after counting, the column
    # test and a read of its columns, only small results stay held (a
    # cached tuple copy of the rows and columns held 1347 KiB)
    code = complement(dual_bch_code(3), K=12)
    assert (code.n, code.k) == (4088, 12)
    gc.collect()
    tracemalloc.start()
    try:
        code.weight_distribution()
        assert code.is_projective()
        dim, columns = code.column_points
        assert (dim, len(columns)) == (12, 4088)
        del columns
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 << 10


def test_minimality_witness():
    # support of (0,0,1) is strictly inside the support of (1,1,1)
    code = LinearCode.from_generator(F2, [[1, 1, 0], [0, 0, 1]])
    ok, witness = code.is_minimal_exact()
    assert not ok
    covered, covering = witness
    small = {i for i, x in enumerate(covered) if x}
    large = {i for i, x in enumerate(covering) if x}
    assert small < large


def test_ab_criterion_implies_minimal():
    for code in (simplex(2, 4), simplex(3, 3), rs_code(4, 3)):
        if code.ab_criterion():
            ok, witness = code.is_minimal_exact()
            assert ok and witness is None


def test_enumeration_cap(monkeypatch):
    code = simplex(2, 4)
    monkeypatch.setattr(linear, "ENUM_CAP", 8)
    with pytest.raises(CapExceeded):
        code.weight_distribution()


def test_minimality_cap(monkeypatch):
    monkeypatch.setattr(linear, "MINIMAL_CAP", 8)
    with pytest.raises(CapExceeded):
        simplex(2, 4).is_minimal_exact()


def test_decimal_limit_is_pythons_under_a_ceiling():
    limit = sys.get_int_max_str_digits()
    try:
        for digits, want in ((640, 640), (0, linear.DECIMAL_CEILING),
                             (10 ** 6, linear.DECIMAL_CEILING)):
            sys.set_int_max_str_digits(digits)
            assert linear.decimal_limit() == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_from_columns_records_ambient_points():
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    code = LinearCode.from_columns(F2, cols)
    assert code.n == 3
    assert code.k == 2                      # rank, not ambient dimension
    dim, pts = code.column_points
    assert dim == 3 and list(pts) == cols


# q^k <= 729 keeps the literal pairwise check on every codeword quick
ORACLE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]


@st.composite
def full_rank_codes(draw):
    q = draw(st.sampled_from(ORACLE_FIELDS))
    field = field_of_order(q)
    k = draw(st.integers(1, max(j for j in range(1, 10) if q ** j <= 729)))
    n = draw(st.integers(k, k + 5))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=k, max_size=k))
    try:
        return LinearCode.from_generator(field, rows)
    except CodeError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(full_rank_codes())
def test_class_walk_against_oracle(code):
    F, q = code.field, code.field.q
    words = span(code)
    assert code.weight_distribution() == span_distribution(code)

    # class i's codeword has the i-th mask's weight, and the q - 1 multiples
    # of the class codewords are the nonzero codewords, each once
    masks = list(linear._classes(code.generator))
    reps = [code._codeword(linear._class_message(F, code.k, i))
            for i in range(len(masks))]
    assert [m.bit_count() for m in masks] == [len(support(r)) for r in reps]
    multiples = [tuple(F.mul(c, x) for x in r) for r in reps for c in range(1, q)]
    assert sorted(multiples) == sorted(w for w in words if any(w))

    check_minimality(code, words)


@pytest.mark.parametrize("q,k", [(2, 7), (3, 4), (4, 4), (5, 4), (7, 4),
                                 (8, 3), (9, 3)])
def test_blocked_walk_keeps_the_gray_order(q, k, monkeypatch):
    # blocks of at most 4 codewords (of p for p > 4) give the first leads
    # outer steps, with carries between outer digits; the order must be
    # the one a single block per lead walks, class i _class_message's i
    F, rng = field_of_order(q), random.Random(q)
    while True:
        rows = [[rng.randrange(q) for _ in range(k + 3)] for _ in range(k)]
        try:
            code = LinearCode.from_generator(F, rows)
            break
        except CodeError:
            pass
    G, lay = code.generator, code.generator.layout
    monkeypatch.setattr(linear, "_BLOCK", q ** k)
    whole = list(linear._classes(G))
    verdict = LinearCode.from_generator(F, rows).is_minimal_exact()
    monkeypatch.setattr(linear, "_BLOCK", 4)
    assert len(list(linear._blocks(G))) > k + 1       # outer steps
    assert list(linear._classes(G)) == whole
    assert whole == [lay.pack(code._codeword(linear._class_message(F, k, i)))
                     + lay.low & lay.high for i in range(len(whole))]
    assert LinearCode.from_generator(F, rows).is_minimal_exact() == verdict


def elementwise_codeword(code, message):
    """uG summed one element at a time over the unpacked rows."""
    F = code.field
    word = [0] * code.n
    for m, row in zip(message, code.generator.rows):
        if m:
            word = [F.add(a, F.mul(m, b)) for a, b in zip(word, row)]
    return tuple(word)


@settings(max_examples=150, deadline=None)
@given(full_rank_codes(), st.data())
def test_packed_codeword_against_elementwise_sum(code, data):
    q = code.field.q
    message = data.draw(st.lists(st.integers(0, q - 1), min_size=code.k,
                                 max_size=code.k))
    assert code._codeword(message) == elementwise_codeword(code, message)
    # and the class representatives the witnesses come from
    for i in range(min(20, (q ** code.k - 1) // (q - 1))):
        u = linear._class_message(code.field, code.k, i)
        assert code._codeword(u) == elementwise_codeword(code, u)


def check_minimality(code, words):
    """The verdict agrees with the literal pairwise check, and a witness is
    two non-proportional codewords with nested supports."""
    ok, witness = code.is_minimal_exact()
    assert ok == pairwise_minimal(code, words)
    if ok:
        assert witness is None
    else:
        covered, covering = witness
        assert covered in words and covering in words
        assert support(covered) <= support(covering)
        assert any(covered) and not proportional(code.field, covered, covering)


# the builders' own sorted column order, where the first columns of a
# hyperplane lie in a small subspace
@pytest.mark.parametrize("code", [
    complementary_mds_trivial(3, 3, 0), complementary_rs(4, 3, 0),
    complement(simplex(2, 3), K=4), complement(simplex(3, 2), K=3),
    complement(simplex(2, 2), K=4), complement(simplex(4, 2), K=3),
    simplex(2, 5), rs_code(5, 3), fixed_weight_anticode(7, 3),
], ids=lambda code: code.label)
def test_minimality_in_natural_column_order(code):
    check_minimality(code, span(code))


def unpruned_minimality(code):
    """(verdict, witness, index of the first failing class or None) from the
    rank test on every class, over the columns shuffled as
    ``is_minimal_exact`` shuffles them."""
    F = code.field
    order = list(range(code.n))
    random.Random(0).shuffle(order)
    shuffled = Matrix(F, [[row[i] for i in order]
                          for row in code.generator.rows])
    short = linear._short_span(shuffled)
    for index, mask in enumerate(linear._classes(shuffled)):
        basis = short(mask)
        if basis is not None:
            u = linear._class_message(F, code.k, index)
            return False, code._witness(u, basis), index
    return True, None, None


def count_short_calls(monkeypatch):
    """Wrap ``_short_span``: the weights of the masks its tests are called
    on, in order."""
    weights, make = [], linear._short_span

    def counted(*args):
        short = make(*args)

        def test(mask):
            weights.append(mask.bit_count())
            return short(mask)
        return test
    monkeypatch.setattr(linear, "_short_span", counted)
    return weights


@settings(max_examples=150, deadline=None)
@given(full_rank_codes())
def test_pruned_minimality_against_the_unpruned_walk(code):
    ok, witness, first = unpruned_minimality(code)
    with pytest.MonkeyPatch.context() as mp:
        weights = count_short_calls(mp)
        assert code.is_minimal_exact() == (ok, witness)
    # the rank test runs on the heavy classes, (q - 1) wt >= q d, in walk
    # order up to the first that fails, and on no other
    F, q, d = code.field, code.field.q, code.min_distance()
    walk = [m.bit_count() for m in linear._classes(code.generator)]
    stop = len(walk) if ok else first + 1
    assert weights == [w for w in walk[:stop] if (q - 1) * w >= q * d]


@settings(max_examples=150, deadline=None)
@given(full_rank_codes())
def test_rank_test_against_the_schoolbook_rank(code):
    # for every class, short(mask) is None exactly when the columns where
    # the class vanishes have rank k - 1, and otherwise spans those columns
    F, k = code.field, code.k
    short = linear._short_span(code.generator)
    columns = code.generator.columns()
    for index, mask in enumerate(linear._classes(code.generator)):
        u = linear._class_message(F, k, index)
        zeros = [col for col in columns
                 if not reduce(F.add, map(F.mul, u, col), 0)]
        want, _ = schoolbook_rref(F, zeros, k)
        basis = short(mask)
        if len(want) == k - 1:
            assert basis is None
        else:
            assert schoolbook_rref(F, basis.rows, k)[0] == want


def test_kasami_4_is_minimal(monkeypatch):
    code = kasami_code(4)
    assert (code.n, code.k) == (255, 12)
    weights = count_short_calls(monkeypatch)
    assert code.is_minimal_exact() == (True, None)
    # q*d > (q-1)*delta: the counted distribution clears every class
    assert weights == []
    assert code._wd == kasami_code(4).weight_distribution()


def test_a_minimal_code_tests_only_its_heavy_classes(monkeypatch):
    # weights 4, 5, 5, 5, 6, 7, 8: only the class of weight 8 >= 2 * 4 can
    # cover another codeword
    code = LinearCode.from_generator(F2, [[1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1],
                                          [0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1],
                                          [0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1]])
    assert not code.ab_criterion()
    weights = count_short_calls(monkeypatch)
    assert code.is_minimal_exact() == (True, None)
    assert weights == [8]


@pytest.mark.parametrize("code", [
    kasami_code(3), complement(dual_bch_code(3), K=6),
    complementary_mds_trivial(3, 3, 0), complementary_rs(4, 3, 0),
], ids=lambda code: code.label)
def test_rank_test_passes_every_class_of_an_ab_code(code):
    # the pruning never runs the rank test on these, so run it directly
    assert code.ab_criterion()
    F = code.field
    short = linear._short_span(code.generator)
    assert all(short(mask) is None
               for mask in linear._classes(code.generator))


def test_long_complement_minimality_walks_once(monkeypatch):
    # the [65528, 16] complement of dual-BCH(3): the counting walk, and
    # then no rank test on any of its 65535 classes
    code = complement(dual_bch_code(3), K=16)
    walked, classes = [0], linear._classes

    def counted(*args):
        walked[0] += 1
        return classes(*args)
    monkeypatch.setattr(linear, "_classes", counted)
    weights = count_short_calls(monkeypatch)
    assert code.is_minimal_exact() == (True, None)
    assert walked[0] == 1 and weights == []


@pytest.mark.parametrize("p,e,rows", [
    (2, 1, [[1, 1, 0], [0, 0, 1]]),
    (3, 1, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 0, 0]]),
    (2, 2, [[1, 0, 1, 2], [0, 1, 1, 3], [0, 0, 0, 1]]),
], ids=["q2", "q3", "q4"])
def test_analyze_counts_then_rank_walks_to_the_first_failure(p, e, rows,
                                                             monkeypatch):
    F = field_make(p, e)
    code = LinearCode.from_generator(F, rows)
    ok, witness, first = unpruned_minimality(code)
    assert not ok
    walked = [0]
    classes = linear._classes

    def counted(*args):
        for mask in classes(*args):
            walked[0] += 1
            yield mask
    monkeypatch.setattr(linear, "_classes", counted)
    report = code_report(code)
    assert report["minimal_exact"] is False
    # one counting walk over every class, then the rank walk up to and
    # including the first class that fails
    assert walked[0] == (F.q ** code.k - 1) // (F.q - 1) + first + 1
    assert code.weight_distribution() == span_distribution(code)
    # the witness is the first failing class's, as when nothing is pruned
    monkeypatch.setattr(linear, "ENUM_CAP", 1)
    fresh = LinearCode.from_generator(F, rows)
    assert fresh.is_minimal_exact() == (False, witness)
    assert report["minimal_witness"] == [list(c) for c in witness]
    assert fresh._wd is None


def test_a_claimed_distribution_clears_no_class(monkeypatch):
    # over the enumeration cap nothing checks a code file's distribution;
    # the claim {0: 1, 2: 3} passes q*d > (q-1)*delta, but the code has
    # supp(001) inside supp(111)
    code = LinearCode.from_generator(F2, [[1, 1, 0], [0, 0, 1]])
    ok, witness, _ = unpruned_minimality(code)
    doc = codefile.code_to_dict(code)
    doc["weight_distribution"] = {"0": 1, "2": 3}
    monkeypatch.setattr(linear, "ENUM_CAP", 2)
    claimed = codefile.code_from_dict(doc)
    assert claimed.ab_criterion()
    assert claimed.is_minimal_exact() == (ok, witness) != (True, None)


def test_minimality_stores_no_distribution_over_the_enum_cap(monkeypatch):
    code = simplex(2, 4)
    monkeypatch.setattr(linear, "ENUM_CAP", 8)
    assert code.is_minimal_exact() == (True, None)
    with pytest.raises(CapExceeded):
        code.weight_distribution()
