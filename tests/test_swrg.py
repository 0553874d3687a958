"""Spectra and strong-walk-regularity certificates.

The certificate is computed from the weight distribution alone. It is
checked against two oracles kept here, both on the coset graph built from
the generator columns: ``transform_walk_counts``, which takes the
Walsh-Hadamard transform of the connection set's indicator (every
eigenvalue), raises each entry to the l-th power and transforms back
(2^k times the number of length-l walks from vertex 0 to every vertex),
and ``bfs_walk_counts``, an l-step walk over every vertex.
"""

import random
import sys
from collections import Counter
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticodes import codefile, linear
from anticodes import constructions as cons
from anticodes import swrg
from anticodes.gf import field_make
from anticodes.linear import (
    CapExceeded, CodeError, LinearCode, WeightDistribution,
)
from anticodes.swrg import certificate, spectrum_from_wd, verify_swrg

F2 = field_make(2, 1)


def connection_set(code):
    """The generator columns as integers: the Cayley graph on F_2^k with
    this connection set is the coset graph of the dual code."""
    return sorted(sum(x << i for i, x in enumerate(col))
                  for col in code.generator.columns())


def walsh_hadamard(values):
    """sum_x values[x] (-1)^(x.y) for every y, exactly.

    Each pass takes the butterfly over the top index bit and interleaves
    the halves, which moves that bit to the bottom; k passes treat every bit
    once and restore the order.
    """
    half = len(values) // 2
    out = list(values)
    for _ in range(half.bit_length()):
        low, high = out[:half], out[half:]
        out[::2] = map(add, low, high)
        out[1::2] = map(sub, low, high)
    return out


def constant_classes(walks, conn):
    """(lambda, mu, nu) from the walk counts from vertex 0 to every vertex,
    or None when they are not constant on the adjacent or on the
    non-adjacent vertices."""
    lam = {walks[v] for v in conn}
    mu = {walks[v] for v in range(1, len(walks)) if v not in conn}
    if len(lam) > 1 or len(mu) > 1:
        return None
    return lam.pop(), mu.pop() if mu else 0, walks[0]


def indicator(code):
    row = [0] * (1 << code.k)
    for s in connection_set(code):
        row[s] = 1
    return row


def transform_walk_counts(code, l):
    """Walk counts by the transform of the connection set's indicator."""
    w = walsh_hadamard([x ** l for x in walsh_hadamard(indicator(code))])
    assert not any(x % len(w) for x in w), "inexact division"
    return constant_classes([x >> code.k for x in w],
                            set(connection_set(code)))


def bfs_walk_counts(code, l):
    """Walk counts by l steps from vertex 0 along every edge."""
    conn = connection_set(code)
    w = [0] * (1 << code.k)
    w[0] = 1
    for _ in range(l):
        nxt = [0] * len(w)
        for v, count in enumerate(w):
            if count:
                for s in conn:
                    nxt[v ^ s] += count
        w = nxt
    return constant_classes(w, set(conn))


def random_projective_code(rng, k):
    units = [1 << i for i in range(k)]
    others = rng.sample(range(1, 1 << k), rng.randint(0, (1 << k) - 1))
    columns = units + [c for c in others if c not in units]
    rows = [[c >> i & 1 for c in columns] for i in range(k)]
    return LinearCode.from_generator(F2, rows)


def closed_form_l3(n, k, w1):
    """(lambda_3, mu_3, nu_3) for a three-weight code with w2 = n/2."""
    mu, rem = divmod(4 * n * w1 * (n - w1), 1 << k)
    assert rem == 0
    return mu + (n - 2 * w1) ** 2, mu, mu


@pytest.fixture(scope="module")
def code_56():
    return cons.complement(cons.dual_bch_code(3), K=6)


def test_coset_graph_basics(code_56):
    conn = connection_set(code_56)
    assert len(set(conn)) == 56 and 0 not in conn
    assert sum(indicator(code_56)) == 56
    eigenvalues = Counter(walsh_hadamard(indicator(code_56)))
    assert eigenvalues == spectrum_from_wd(code_56.weight_distribution())


def test_coset_graph_rejects_nonbinary_and_nonprojective():
    with pytest.raises(CodeError):
        verify_swrg(cons.simplex(3, 3))
    repeated = LinearCode.from_generator(F2, [[1, 1, 0], [0, 0, 1]])
    with pytest.raises(CodeError):
        verify_swrg(repeated)


def test_l_printing_and_the_cap_are_checked_before_projectivity(monkeypatch):
    # projectivity is read off the counted distribution, so every check
    # that needs no walk comes first
    repeated = LinearCode.from_generator(F2, [[1, 1, 0], [0, 0, 1]])
    with pytest.raises(CodeError, match="odd l"):
        verify_swrg(repeated, 4)
    monkeypatch.setattr(linear, "ENUM_CAP", 2)
    with pytest.raises(CapExceeded):
        verify_swrg(repeated)
    assert repeated._wd is None
    monkeypatch.setattr(linear, "ENUM_CAP", 4)
    with pytest.raises(CodeError, match="projective"):
        verify_swrg(repeated)


def test_spectrum_from_wd(code_56):
    spec = spectrum_from_wd(code_56.weight_distribution())
    assert spec == {56: 1, 4: 7, 0: 35, -4: 21}
    assert sum(spec.values()) == 64


def test_walk_counts_need_odd_l(code_56):
    for l in (4, 1):
        with pytest.raises(CodeError):
            verify_swrg(code_56, l)
        with pytest.raises(CodeError):
            certificate(code_56.weight_distribution(), l)


def test_analytic_l3_closed_form(code_56):
    assert closed_form_l3(56, 6, 26) == (2746, 2730, 2730)
    cert = certificate(code_56.weight_distribution(), 3)
    assert cert["analytic_l3"] == cert["walk_counts"] == (2746, 2730, 2730)
    assert verify_swrg(code_56, l=5)["analytic_l3"] is None


def test_certify_l3(code_56):
    cert = verify_swrg(code_56, l=3)
    assert cert["verdict"] == "is_l_swrg"
    assert cert["walk_counts"] == (2746, 2730, 2730)
    assert cert["analytic_l3"] == cert["walk_counts"]
    assert cert["conditions_weight_sum"] and cert["conditions_middle"]
    assert cert["root_equation_holds"]
    assert cert["spectrum"] == {"56": 1, "4": 7, "0": 35, "-4": 21}
    assert cert["witness"] is None


def test_certify_l5(code_56):
    cert = verify_swrg(code_56, l=5)
    assert cert["verdict"] == "is_l_swrg"
    lam, mu, nu = cert["walk_counts"]
    assert mu == nu and lam - mu == 256
    assert cert["root_equation_holds"]


def test_certify_kasami_complement():
    code = cons.complement(cons.kasami_code(2), K=6)    # [48,6,22]
    cert = verify_swrg(code, l=3)
    assert cert["verdict"] == "is_l_swrg"
    assert cert["walk_counts"] == closed_form_l3(48, 6, 22)
    assert cert["walk_counts"] == transform_walk_counts(code, 3)


def test_non_swrg_has_witness():
    code = cons.kasami_code(2)                          # [15,6] base code
    cert = verify_swrg(code, l=3)
    assert cert["verdict"] == "not_l_swrg"
    assert cert["walk_counts"] is None
    assert cert["analytic_l3"] is None and cert["root_equation_holds"] is None
    assert cert["weights"] == [6, 8, 10]                # thetas 3, -1, -5
    assert cert["witness"] == -(3 + 1) * (-1 + 5) * (-5 - 3) * (3 - 1 - 5)
    assert transform_walk_counts(code, 3) is None


def test_requires_three_weights():
    with pytest.raises(CodeError):
        verify_swrg(cons.simplex(2, 4))                 # one weight
    with pytest.raises(CodeError):
        verify_swrg(cons.fixed_weight_anticode(7, 4))   # two weights


def test_certificate_serialization(code_56):
    d = verify_swrg(code_56, l=3)
    assert d["verdict"] == "is_l_swrg"
    assert d["spectrum"]["-4"] == 21                    # string keys


def test_walk_cap_counts_bits_of_n_to_the_l(code_56, monkeypatch):
    size = 3 * (56).bit_length()            # l * bits of n
    monkeypatch.setattr(swrg, "WALK_CAP", size)
    assert verify_swrg(code_56, 3)["walk_counts"] == (2746, 2730, 2730)
    monkeypatch.setattr(swrg, "WALK_CAP", size - 1)
    with pytest.raises(CapExceeded):
        verify_swrg(code_56, 3)
    with pytest.raises(CapExceeded):
        certificate(code_56.weight_distribution(), 3)


def test_huge_l_refused_before_any_work(code_56, monkeypatch):
    def walked(self):
        raise AssertionError("the weight distribution was computed")
    monkeypatch.setattr(LinearCode, "weight_distribution", walked)
    with pytest.raises(CapExceeded):
        verify_swrg(code_56, 10 ** 9 + 1)


def test_lifted_limit_keeps_the_print_ceiling(code_56, monkeypatch):
    # l = 2796201 passes WALK_CAP at n = 56, but its walk counts have
    # about 4.9 million digits
    def walked(self):
        raise AssertionError("the weight distribution was computed")
    monkeypatch.setattr(LinearCode, "weight_distribution", walked)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(CapExceeded):
            verify_swrg(code_56, 2796201)
    finally:
        sys.set_int_max_str_digits(limit)


def test_cached_distribution_over_the_enum_cap_is_refused(code_56,
                                                          monkeypatch):
    # over the cap nothing checks a code file's claim, so nothing certifies
    doc = codefile.code_to_dict(code_56)
    monkeypatch.setattr(linear, "ENUM_CAP", 8)
    code = codefile.code_from_dict(doc)
    assert code.weight_distribution().to_dict() == doc["weight_distribution"]
    with pytest.raises(CapExceeded):
        verify_swrg(code, 3)


def test_dual_bch9_complement_beyond_the_old_caps():
    # the [261632, 18] complement of dual-BCH(9): 2^18 vertices
    base = cons.dual_bch_code(9).weight_distribution()
    wd = cons.transform_wd(base, 18)
    assert (wd.n, wd.k) == (261632, 18)
    assert wd.nonzero_weights() == [130800, 130816, 130832]
    for l in (3, 5, 7, 9):
        cert = certificate(wd, l)
        assert cert["verdict"] == "is_l_swrg", l
        assert cert["root_equation_holds"]
        # the walks from one vertex number n^l, and the closed ones are
        # the trace of A^l over the vertex count
        lam, mu, nu = cert["walk_counts"]
        assert nu + wd.n * lam + ((1 << 18) - 1 - wd.n) * mu == wd.n ** l
        trace = sum(m * int(ev) ** l for ev, m in cert["spectrum"].items())
        assert trace == nu << 18
    assert certificate(wd, 3)["walk_counts"] == \
        closed_form_l3(261632, 18, 130800)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 199),
       st.sampled_from(range(3, 52, 2)))
def test_middle_zero_and_opposite_eigenvalues_give_every_odd_l(half, a, l):
    # theta2 = 0 and theta1 = -theta3 = 2a: collinear for every odd l
    n = 2 * half + 2 * a
    wd = WeightDistribution(2, n, 2, {0: 1, half: 1, n // 2: 1, n - half: 1})
    cert = certificate(wd, l)
    assert cert["verdict"] == "is_l_swrg" and cert["witness"] is None


def test_inexact_mu_is_refused():
    # collinear, but mu_3 = 4 (4^2 - 2^2) / 2^5 is not an integer: no
    # projective [4, 5] code has this distribution
    wd = WeightDistribution(2, 4, 5, {0: 1, 1: 1, 2: 29, 3: 1})
    with pytest.raises(CodeError):
        certificate(wd, 3)


@pytest.mark.parametrize("code", [
    cons.dual_bch_code(3),
    cons.kasami_code(2),
    cons.complement(cons.dual_bch_code(3), K=6),
    cons.complement(cons.kasami_code(2), K=6),
], ids=["dual-bch-3", "kasami-2", "comp-dual-bch-3", "comp-kasami-2"])
@pytest.mark.parametrize("l", [3, 5, 7, 9])
def test_families_match_both_oracles(code, l):
    cert = verify_swrg(code, l)
    assert cert["walk_counts"] == transform_walk_counts(code, l) \
        == bfs_walk_counts(code, l)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 7),
       st.sampled_from([3, 5, 7, 9]))
def test_transform_walks_match_bfs(rng, k, l):
    code = random_projective_code(rng, k)
    walks = transform_walk_counts(code, l)
    assert walks == bfs_walk_counts(code, l)
    if code.weight_distribution().num_weights == 3:
        assert verify_swrg(code, l)["walk_counts"] == walks


def test_certificate_matches_the_transform_on_random_codes():
    # at l = 3, D = -(t1 - t2)(t2 - t3)(t3 - t1)(t1 + t2 + t3): 3-SWRG iff
    # w1 + w2 + w3 = 3n/2, and then nu - mu = t1 t2 t3
    rng = random.Random(5)
    seen = Counter()
    while sum(seen.values()) < 50:
        code = random_projective_code(rng, rng.randint(3, 6))
        if code.weight_distribution().num_weights != 3:
            continue
        for l in (3, 5, 7, 9):
            cert = verify_swrg(code, l)
            assert cert["walk_counts"] == transform_walk_counts(code, l)
        cert = verify_swrg(code, 3)
        t1, t2, t3 = (code.n - 2 * w for w in cert["weights"])
        seen[cert["conditions_weight_sum"]] += 1
        if cert["conditions_weight_sum"]:
            lam, mu, nu = cert["walk_counts"]
            assert nu - mu == t1 * t2 * t3
        else:
            assert cert["witness"] == -(t1 - t2) * (t2 - t3) * (t3 - t1) * (
                t1 + t2 + t3)
    assert seen[True] and seen[False]
