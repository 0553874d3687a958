"""Construction families, complements, and the distribution transform."""

import pytest

from anticodes import constructions as cons
from anticodes.gf import field_make, project_to_subfield, relative_trace
from anticodes.linear import CodeError, LinearCode, WeightDistribution


def test_projective_points_count_and_canonical_form():
    F = field_make(3, 1)
    pts = cons.projective_points(F, 3)
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
    line = cons.ProjectivePointSet(
        field_make(2, 1), 4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
    code = cons.complement(line, K=4)
    assert (code.n, code.k, code.min_distance()) == (12, 4, 6)


def test_complement_requires_small_source():
    with pytest.raises(CodeError):
        cons.complement(cons.simplex(2, 3), K=3)        # 7 >= 2^2


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
    F = field_make(2, 1)
    with pytest.raises(CodeError):
        cons.ProjectivePointSet(F, 2, [(1, 0), (1, 0)])
    with pytest.raises(CodeError):
        cons.ProjectivePointSet(F, 2, [(0, 0)])


def test_field_of_order_rejects_non_prime_power():
    with pytest.raises(Exception):
        cons.field_of_order(6)


# ----------------------------------------------------------------------
# oracles: the builders' per-coordinate definitions, one trace or one
# inner encoding per coordinate
# ----------------------------------------------------------------------

def dual_bch_rows(m):
    amb, gf2 = field_make(2, m), field_make(2, 1)
    xs = list(range(1, amb.q))
    cubes = [amb.pow(x, 3) for x in xs]
    return ([[relative_trace(amb.mul(1 << j, x), amb, gf2) for x in xs]
             for j in range(m)]
            + [[relative_trace(amb.mul(1 << j, y), amb, gf2) for y in cubes]
               for j in range(m)])


def kasami_rows(m):
    amb, sub, gf2 = field_make(2, 2 * m), field_make(2, m), field_make(2, 1)
    xs = list(range(1, amb.q))
    norms = [project_to_subfield(amb.pow(x, (1 << m) + 1), sub, amb)
             for x in xs]
    return ([[relative_trace(amb.mul(1 << j, x), amb, gf2) for x in xs]
             for j in range(2 * m)]
            + [[relative_trace(sub.mul(1 << j, y), sub, gf2) for y in norms]
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


@pytest.mark.parametrize("m", [2, 3, 4])
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
