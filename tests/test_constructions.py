"""Construction families, complements, and the distribution transform."""

import re
import sys
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticodes import catalog as cat
from anticodes import constructions as cons
from anticodes import gf
from anticodes.gf import GF, FieldError, field_make
from anticodes.linear import CodeError, LinearCode, WeightDistribution
from test_gf import projective_points, schoolbook_rref


def test_projective_points_count_and_canonical_form():
    F = field_make(3, 1)
    pts = projective_points(F, 3)
    assert len(pts) == 13
    assert len(set(pts)) == 13
    for p in pts:
        assert next(x for x in p if x) == 1             # first nonzero is 1


def test_simplex_parameters():
    for q, k in [(2, 3), (2, 4), (3, 3), (4, 2), (5, 3)]:
        code = cons.simplex(q, k)
        n = (q ** k - 1) // (q - 1)
        assert (code.n, code.k) == (n, k)
        assert code.is_projective()
        wd = code.weight_distribution()
        assert wd.counts == {0: 1, q ** (k - 1): q ** k - 1}


def test_complement_of_subspace_points():
    # delete a line's 3 points from the 15-point space: [12,4,6]_2
    line = LinearCode.from_columns(
        field_make(2, 1), [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
    code = cons.complement(line, K=4)
    assert (code.n, code.k, code.min_distance()) == (12, 4, 6)


def test_complement_requires_small_source():
    with pytest.raises(CodeError):
        cons.complement(cons.simplex(2, 3), K=3)        # 7 >= 2^2


@pytest.mark.parametrize("build,what", [
    (lambda: cons.simplex(2, 5), "simplex(2,5) length 31"),
    (lambda: cons.complement(cons.simplex(2, 3), K=5),
     "complement(simplex(2,3), K=5) length 24"),
    (lambda: cons.complementary_mds_trivial(3, 3, 1),
     "complement(points, K=4) length 37"),
    (lambda: cons.fixed_weight_anticode(7, 3), "fixed-weight(7,3) length 35"),
    (lambda: cons.ovoid_code(4), "ovoid(4) length 17"),
    (lambda: cons.concatenate_with_simplex(cons.two_subspace_code(4)),
     "concat-simplex(two-subspace(4)) length 30"),
], ids=["simplex", "complement", "comp-mds", "fixed-weight", "ovoid",
        "concat"])
def test_every_builder_checks_the_length_cap(monkeypatch, build, what):
    monkeypatch.setattr(cons, "LENGTH_CAP", 16)
    with pytest.raises(CodeError, match=rf"^{re.escape(what)} over the cap$"):
        build()
    # at the cap and under it the builders still build
    assert cons.simplex(2, 4).n == 15
    assert cons.complement(cons.simplex(2, 3), K=4).n == 8
    monkeypatch.setattr(cons, "LENGTH_CAP", 17)
    assert cons.ovoid_code(4).n == 17


def test_a_lift_past_the_cap_is_refused_from_k_alone(monkeypatch):
    # the fewest points a lift to K keeps, PG(K-1, q) less q^(K-1) - 1 of
    # them, is at least 2^(K-1): over a cap of b bits once K > b
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        for K in range(1, 40):
            assert (q ** K - 1) // (q - 1) - (q ** (K - 1) - 1) \
                >= 2 ** (K - 1)
    monkeypatch.setattr(cons, "LENGTH_CAP", 16)
    with pytest.raises(CodeError, match=r"^simplex\(2,6\) length 2\^5\+ "):
        cons.simplex(2, 6)
    with pytest.raises(CodeError, match=r"^complement\(simplex\(2,3\), "
                                        r"K=6\) length 2\^5\+ "):
        cons.complement(cons.simplex(2, 3), K=6)


def test_complement_reduces_redundant_ambient():
    # columns span a 5-dim space inside a 6-dim ambient
    code = cons.fixed_weight_anticode(6, 2)
    assert (code.n, code.k) == (15, 5)
    comp = cons.complement(code, K=5)
    assert (comp.n, comp.k, comp.min_distance()) == (16, 5, 7)


def test_transform_matches_enumeration():
    base = cons.fixed_weight_anticode(7, 4)
    for K in (7, 8):
        comp = cons.complement(base, K=K)
        assert comp.weight_distribution() == \
            cons.transform_wd(base.weight_distribution(), K)


def test_transform_involution():
    wd = cons.fixed_weight_anticode(7, 4).weight_distribution()
    assert cons.transform_wd(cons.transform_wd(wd, wd.k), wd.k) == wd


def test_transform_rejects_small_K():
    wd = WeightDistribution(2, 7, 3, {0: 1, 4: 7})
    with pytest.raises(CodeError):
        cons.transform_wd(wd, 2)


def test_transform_keeps_the_print_ceiling_when_the_limit_is_lifted():
    # with Python's limit lifted (0), counts up to 3^100000 (47713 digits)
    # still print, and 3^200000 (95425 digits) is over the ceiling
    wd = cons.simplex(3, 3).weight_distribution()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cons.transform_wd(wd, 100000).k == 100000
        with pytest.raises(CodeError):
            cons.transform_wd(wd, 200000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_rs_code_is_mds():
    for q, k in [(4, 2), (4, 3), (5, 3), (7, 4)]:
        code = cons.rs_code(q, k)
        assert (code.n, code.k) == (q, k)
        assert code.min_distance() == code.n - code.k + 1
    with pytest.raises(CodeError):
        cons.rs_code(4, 5)                              # needs k <= q


def test_complementary_rs_and_mds():
    code = cons.complementary_rs(4, 3)
    assert (code.n, code.k, code.min_distance()) == (17, 3, 12)
    code = cons.complementary_mds_trivial(4, 3)
    assert (code.n, code.k, code.min_distance()) == (18, 3, 13)
    lifted = cons.complementary_rs(4, 3, h=1)
    assert (lifted.n, lifted.k) == (81, 4)


def test_fixed_weight_rank_parity():
    assert cons.fixed_weight_anticode(7, 4).k == 6      # even w: rank k-1
    assert cons.fixed_weight_anticode(7, 3).k == 7      # odd w: rank k
    with pytest.raises(CodeError):
        cons.fixed_weight_anticode(5, 1)


def test_two_subspace_code():
    code = cons.two_subspace_code(3)
    assert (code.n, code.k) == (8, 4)
    assert code.weight_distribution().counts == {0: 1, 3: 16, 6: 64}


def test_ovoid_code():
    code = cons.ovoid_code(3)
    assert (code.n, code.k) == (10, 4)
    assert code.weight_distribution().counts == {0: 1, 6: 60, 9: 20}
    code4 = cons.ovoid_code(4)
    assert code4.weight_distribution().counts == {0: 1, 12: 204, 16: 51}


def test_dual_bch_code():
    code = cons.dual_bch_code(3)
    assert (code.n, code.k) == (7, 6)
    assert code.weight_distribution().counts == {0: 1, 2: 21, 4: 35, 6: 7}
    with pytest.raises(CodeError):
        cons.dual_bch_code(4)                           # odd m only


def test_kasami_code():
    code = cons.kasami_code(2)
    assert (code.n, code.k) == (15, 6)
    assert code.weight_distribution().counts == {0: 1, 6: 30, 8: 15, 10: 18}


def test_concatenation_with_simplex():
    outer = cons.ovoid_code(4)
    code = cons.concatenate_with_simplex(outer)
    assert code.field.q == 2
    assert (code.n, code.k) == (51, 8)
    assert code.weight_distribution().counts == {0: 1, 24: 204, 32: 51}


def test_point_set_rejects_duplicates_and_zero():
    # a point set is the code on its columns; its complement places them
    F = field_make(2, 1)
    with pytest.raises(CodeError, match="repeated projective point"):
        cons.complement(LinearCode.from_columns(F, [(1, 0), (1, 0)]), K=3)
    with pytest.raises(CodeError, match="zero column"):
        cons.complement(LinearCode.from_columns(F, [(1, 0), (0, 0)]), K=3)


def test_point_set_checks_its_coordinates():
    F = field_make(2, 2)
    for bad in [(1, 0, -1), (1, 0, 5), (1, 0, 1.0), (2, "1", 0)]:
        with pytest.raises(FieldError):
            LinearCode.from_columns(F, [(1, 0, 0), bad])
    for short in [(1, 0), (0, 1, 0, 0)]:
        with pytest.raises(CodeError, match="ragged columns"):
            LinearCode.from_columns(F, [(1, 0, 0), short])
    # a valid point is kept as given, and its complement deletes the
    # position of (0, 1, 2)
    points = LinearCode.from_columns(F, [(0, 2, 3)])
    assert points.column_points == (3, [(0, 2, 3)])
    space = projective_points(F, 3)
    assert cons.complement(points, K=3).column_points == \
        (3, [p for p in space if p != (0, 1, 2)])
    # below its ambient dimension a rank-deficient set, like any code,
    # takes coordinates in its row-space basis: here the one point (1)
    assert cons.complement(points, K=2).column_points == \
        (2, [p for p in projective_points(F, 2) if p != (0, 1)])


def test_field_of_order_rejects_non_prime_power():
    with pytest.raises(Exception):
        gf.field_of_order(6)


def prime_power(q):
    """(p, e) with q = p^e, or raise: the trial division field_of_order
    replaced, which runs up to q's smallest prime factor whatever q is."""
    if q < 2:
        raise FieldError(f"{q} is not a prime power")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise FieldError(f"{q} is not a prime power")
    return p, e


def _made(make, q):
    """make(q), or None where it raises a FieldError."""
    try:
        return make(q)
    except FieldError:
        return None


def test_field_of_order_matches_prime_power(monkeypatch):
    for q in [2, 4, 9, 65521, 3 ** 10, gf.SIZE_CAP]:
        assert gf.field_of_order(q) is field_make(*prime_power(q))
    # the rest with field_make as (p, e), so that no field is built; GF
    # refuses every order over its size cap
    monkeypatch.setattr(gf, "field_make", lambda p, e: (p, e))
    for q in [*range(-3, 1 << 12), gf.SIZE_CAP - 1, gf.SIZE_CAP,
              gf.SIZE_CAP + 1, 65521, 3 ** 10]:
        want = _made(prime_power, q) if q <= gf.SIZE_CAP else None
        assert _made(gf.field_of_order, q) == want, q


@pytest.mark.parametrize("q", [0, 1, -5, 12, 4294967311, 1000000007,
                               2 ** 300000],
                         ids=["0", "1", "-5", "12", "4294967311",
                              "1000000007", "2^300000"])
def test_field_of_order_refuses_at_once_in_one_line(q):
    start = time.perf_counter()
    with pytest.raises(FieldError) as info:
        gf.field_of_order(q)
    assert time.perf_counter() - start < 0.5
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("build", [
    lambda: cons.complementary_mds_trivial(2, 20000),
    lambda: cons.complementary_rs(2, 2000000),
    lambda: cons.fixed_weight_anticode(1000000, 500000),
    lambda: cat.FAMILIES["concat-ovoid"](s=100000000000),
    lambda: cat.FAMILIES["concat-two-subspace"](s=300000),
], ids=["comp-mds", "comp-rs", "fixed-weight", "concat-ovoid",
        "concat-two-subspace"])
def test_a_builder_refuses_before_it_works(build):
    start = time.perf_counter()
    with pytest.raises((CodeError, FieldError)):
        build()
    assert time.perf_counter() - start < 0.5


# ----------------------------------------------------------------------
# oracles: the builders' per-coordinate definitions, one trace or one
# inner encoding per coordinate
# ----------------------------------------------------------------------

def frobenius_trace(F, y):
    """The absolute trace y + y^p + ... + y^(p^(e-1)), computed in F."""
    t = 0
    for _ in range(F.e):
        t = F.add(t, y)
        y = F.pow(y, F.p)
    return t


def dual_bch_rows(m):
    amb = field_make(2, m)
    xs = list(range(1, amb.q))
    cubes = [amb.pow(x, 3) for x in xs]
    return ([[frobenius_trace(amb, amb.mul(1 << j, x)) for x in xs]
             for j in range(m)]
            + [[frobenius_trace(amb, amb.mul(1 << j, y)) for y in cubes]
               for j in range(m)])


def kasami_rows(m):
    amb, sub = field_make(2, 2 * m), field_make(2, m)
    xs = list(range(1, amb.q))

    def value(coeffs, x):
        """sum of coeffs[i] * x^i in amb, term by term."""
        t = 0
        for i, c in enumerate(coeffs):
            if c:
                t = amb.add(t, amb.pow(x, i))
        return t
    # GF(2^m) into amb, sending x to the smallest root of its modulus
    beta = next(b for b in range(amb.q) if not value(sub.modulus, b))
    project = {value(sub.coords(a), beta): a for a in range(sub.q)}
    assert len(project) == sub.q
    norms = [project[amb.pow(x, (1 << m) + 1)] for x in xs]
    return ([[frobenius_trace(amb, amb.mul(1 << j, x)) for x in xs]
             for j in range(2 * m)]
            + [[frobenius_trace(sub, sub.mul(1 << j, y)) for y in norms]
               for j in range(m)])


def concat_rows(outer):
    of = outer.field
    s = of.e
    inner = cons.simplex(2, s).generator.rows if s > 1 else [(1,)]

    def inner_encode(sym):
        word = [0] * len(inner[0])
        for c, row in zip(of.coords(sym), inner):
            if c:
                word = [a ^ b for a, b in zip(word, row)]
        return word

    rows = []
    for outer_row in outer.generator.rows:
        for j in range(s):
            row = []
            for sym in outer_row:
                row.extend(inner_encode(of.mul(1 << j, sym)))
            rows.append(row)
    return rows


def generator_of(rows):
    return LinearCode.from_generator(field_make(2, 1), rows).generator.rows


@pytest.mark.parametrize("m", [3, 5, 7])
def test_dual_bch_matches_per_coordinate_traces(m):
    assert cons.dual_bch_code(m).generator.rows == \
        generator_of(dual_bch_rows(m))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_kasami_matches_per_coordinate_traces(m):
    assert cons.kasami_code(m).generator.rows == generator_of(kasami_rows(m))


@pytest.mark.parametrize("outer", [
    lambda: cons.ovoid_code(4), lambda: cons.ovoid_code(8),
    lambda: cons.two_subspace_code(4)],
    ids=["concat-ovoid-2", "concat-ovoid-3", "concat-two-subspace-2"])
def test_concatenation_matches_per_symbol_encoding(outer):
    code = outer()
    assert cons.concatenate_with_simplex(code).generator.rows == \
        generator_of(concat_rows(code))


# ----------------------------------------------------------------------
# oracles for the columns cut from the packed simplex: the points of
# PG(K-1, q) built as tuples and filtered, then ``from_columns``
# ----------------------------------------------------------------------

SELECTION_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]


def assert_tuple_route(code, field, columns):
    """``code`` has the given columns and the generator that the tuple
    route and the schoolbook RREF give them."""
    want = LinearCode.from_columns(field, columns)
    assert code.column_points == (len(columns[0]), columns)
    assert code.generator.rows == want.generator.rows
    reduced, _ = schoolbook_rref(field, list(zip(*columns)), len(columns))
    assert list(code.generator.rows) == reduced


def _dimension(q, data, most=800):
    """A K >= 2 whose simplex has at most ``most`` points."""
    top = 2
    while (q ** (top + 1) - 1) // (q - 1) <= most:
        top += 1
    return data.draw(st.integers(2, top), label="K")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_complement_and_simplex_match_the_tuple_route(data):
    q = data.draw(st.sampled_from(SELECTION_FIELDS), label="q")
    field = gf.field_of_order(q)
    K = _dimension(q, data)
    assert_tuple_route(cons.simplex(q, K), field, projective_points(field, K))
    dim = data.draw(st.integers(1, K), label="dim")      # dim < K pads S
    space = projective_points(field, dim)
    S = data.draw(st.lists(st.sampled_from(space), min_size=1,
                           max_size=min(len(space), q ** (K - 1) - 1),
                           unique=True), label="S")
    # S given scaled by nonzero scalars, in any order
    scales = data.draw(st.lists(st.integers(1, q - 1), min_size=len(S),
                                max_size=len(S)), label="scales")
    given_points = [tuple(field.mul(c, x) for x in p)
                    for c, p in zip(scales, S)]
    deleted = {(0,) * (K - dim) + p for p in S}
    kept = [p for p in projective_points(field, K) if p not in deleted]
    want_rank = LinearCode.from_columns(field, kept).k
    points = LinearCode.from_columns(field, given_points)
    if want_rank != K:
        with pytest.raises(CodeError, match="rank"):
            cons.complement(points, K=K)
        return
    assert_tuple_route(cons.complement(points, K=K), field, kept)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_simplex_columns_less_any_positions(data):
    q = data.draw(st.sampled_from(SELECTION_FIELDS), label="q")
    field = gf.field_of_order(q)
    K = _dimension(q, data, most=4000)
    points = projective_points(field, K)
    deleted = sorted(data.draw(st.sets(st.integers(0, len(points) - 1)),
                               label="deleted"))
    got = gf.simplex_columns(field, K, deleted)
    assert got.ncols == len(points) - len(deleted)
    assert got.columns() == [p for i, p in enumerate(points)
                             if i not in deleted]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_point_position_is_the_sorted_position(data):
    q = data.draw(st.sampled_from(SELECTION_FIELDS), label="q")
    field = gf.field_of_order(q)
    K = data.draw(st.integers(1, max(K for K in range(1, 12)
                                     if q ** K <= 2001)), label="K")
    pad = (0,) * data.draw(st.integers(0, 3), label="pad")
    for i, p in enumerate(projective_points(field, K)):
        for c in range(1, q):
            scaled = pad + tuple(field.mul(c, x) for x in p)
            assert gf.point_position(field, scaled) == i


def test_point_position_scales_and_reads_bools():
    F4 = field_make(2, 2)
    points = projective_points(F4, 3)
    for vec, want in [((0, 2, 3), (0, 1, F4.mul(3, F4.inv(2)))),
                      ((0, 1, 3), (0, 1, 3)),
                      ((True, False, True), (1, 0, 1))]:
        got = gf.point_position(F4, vec)
        assert got == points.index(want) and type(got) is int
    assert gf.point_position(F4, (0, 0, 0)) is None
    assert gf.point_position(F4, ()) is None


@pytest.mark.parametrize("k,w", [(4, 2), (5, 3), (6, 2), (6, 3), (7, 4),
                                 (8, 4), (9, 2), (10, 5), (14, 2), (16, 3)])
def test_fixed_weight_matches_the_tuple_route(k, w):
    field = field_make(2, 1)
    columns = sorted(tuple(1 if i in pos else 0 for i in range(k))
                     for pos in combinations(range(k), w))
    code = cons.fixed_weight_anticode(k, w)
    assert code.k == (k - 1 if w % 2 == 0 else k)   # even w: rank-deficient
    assert_tuple_route(code, field, columns)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_two_subspace_matches_the_tuple_route(q):
    field = gf.field_of_order(q)
    columns = [p for p in projective_points(field, 4)
               if (p[2] == p[3] == 0) or (p[0] == p[1] == 0)]
    assert_tuple_route(cons.two_subspace_code(q), field, columns)


def ovoid_by_filter(q):
    """The quadric's points as the builder once found them: every point
    of PG(3, q) tested against x0 * x1 = f(x2, x3)."""
    field = gf.field_of_order(q)
    c0, c1 = cons.smallest_irreducible_quadratic(field)

    def norm_form(a, b):
        return field.add(
            field.add(field.mul(a, a), field.mul(c1, field.mul(a, b))),
            field.mul(c0, field.mul(b, b)))
    return [p for p in projective_points(field, 4)
            if field.mul(p[0], p[1]) == norm_form(p[2], p[3])]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_ovoid_solving_matches_the_filter(q):
    columns = ovoid_by_filter(q)
    assert len(columns) == q * q + 1
    assert_tuple_route(cons.ovoid_code(q), gf.field_of_order(q), columns)


@pytest.mark.parametrize("q", [3, 9])
def test_ovoid_evaluates_the_norm_form_once_per_point(q, monkeypatch):
    # five products per evaluation of f, at the q^2 points (a, b), and
    # none per point of PG(3, q)
    calls = [0]
    mul = GF.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)
    monkeypatch.setattr(GF, "mul", counted)
    cons.smallest_irreducible_quadratic(gf.field_of_order(q))
    search, calls[0] = calls[0], 0
    cons.ovoid_code(q)
    assert calls[0] - search == 5 * q * q


def test_complement_memory_stays_small():
    # the [65528, 16] complement; the tuple route peaked at 23 MiB
    tracemalloc.start()
    try:
        code = cons.complement(cons.dual_bch_code(3), K=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code.n, code.k) == (65528, 16)
    assert peak < 6 << 20
