"""Coset graphs, spectra, and strong-walk-regularity certificates.

The transform walk counts are checked against ``bfs_walk_counts``, an
l-step walk over every vertex kept here as the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticodes import constructions as cons
from anticodes import swrg
from anticodes.gf import field_make
from anticodes.linear import CapExceeded, CodeError, LinearCode
from anticodes.swrg import (
    CosetGraph, analytic_parameters_l3, spectrum_from_wd, verify_swrg,
    walk_counts,
)

F2 = field_make(2, 1)


def adjacency_row(graph, u):
    row = [0] * graph.vertex_count
    for s in graph.connection_set:
        row[u ^ s] = 1
    return row


def bfs_walk_counts(graph, l):
    """walk_counts by l steps from vertex 0 along every edge."""
    w = [0] * graph.vertex_count
    w[0] = 1
    for _ in range(l):
        nxt = [0] * graph.vertex_count
        for v, count in enumerate(w):
            if count:
                for s in graph.connection_set:
                    nxt[v ^ s] += count
        w = nxt
    conn = set(graph.connection_set)
    lam = {w[v] for v in conn}
    mu = {w[v] for v in range(1, graph.vertex_count) if v not in conn}
    if len(lam) > 1 or len(mu) > 1:
        bad = lam if len(lam) > 1 else mu
        pool = conn if len(lam) > 1 else set(range(1, graph.vertex_count)) - conn
        picks = sorted(v for v in pool if w[v] in bad)[:2]
        return None, (picks[0], picks[1])
    return (lam.pop(), mu.pop() if mu else 0, w[0]), None


@pytest.fixture(scope="module")
def code_56():
    return cons.complement(cons.dual_bch_code(3), K=6)


def test_coset_graph_basics(code_56):
    g = CosetGraph(code_56)
    assert g.vertex_count == 64
    assert g.degree == 56
    assert len(g.connection_set) == 56
    row = adjacency_row(g, 0)
    assert sum(row) == 56 and row[0] == 0


def test_coset_graph_rejects_nonbinary_and_nonprojective():
    with pytest.raises(CodeError):
        CosetGraph(cons.simplex(3, 3))
    F2 = field_make(2, 1)
    repeated = LinearCode.from_generator(F2, [[1, 1, 0], [0, 0, 1]])
    with pytest.raises(CodeError):
        CosetGraph(repeated)


def test_spectrum_from_wd(code_56):
    spec = spectrum_from_wd(code_56.weight_distribution())
    assert spec == {56: 1, 4: 7, 0: 35, -4: 21}
    assert sum(spec.values()) == 64


def test_walk_counts_need_odd_l(code_56):
    g = CosetGraph(code_56)
    with pytest.raises(CodeError):
        walk_counts(g, 4)
    with pytest.raises(CodeError):
        walk_counts(g, 1)


def test_analytic_l3_closed_form():
    assert analytic_parameters_l3(56, 6, 26) == (2746, 2730, 2730)


def test_certify_l3(code_56):
    cert = verify_swrg(code_56, l=3)
    assert cert.verdict == "is_l_swrg"
    assert cert.walk_counts == (2746, 2730, 2730)
    assert cert.analytic_l3 == cert.walk_counts
    assert cert.conditions_weight_sum and cert.conditions_middle
    assert cert.root_equation_holds
    assert cert.spectrum == {56: 1, 4: 7, 0: 35, -4: 21}
    assert cert.witness is None


def test_certify_l5(code_56):
    cert = verify_swrg(code_56, l=5)
    assert cert.verdict == "is_l_swrg"
    lam, mu, nu = cert.walk_counts
    assert mu == nu and lam - mu == 256
    assert cert.root_equation_holds


def test_certify_kasami_complement():
    code = cons.complement(cons.kasami_code(2), K=6)    # [48,6,22]
    cert = verify_swrg(code, l=3)
    assert cert.verdict == "is_l_swrg"
    assert cert.walk_counts == analytic_parameters_l3(48, 6, 22)


def test_non_swrg_has_witness():
    code = cons.kasami_code(2)                          # [15,6] base code
    cert = verify_swrg(code, l=3)
    assert cert.verdict == "not_l_swrg"
    assert cert.walk_counts is None
    assert cert.witness is not None
    u, v = cert.witness
    assert u != v


def test_requires_three_weights():
    with pytest.raises(CodeError):
        verify_swrg(cons.simplex(2, 4))                 # one weight
    with pytest.raises(CodeError):
        verify_swrg(cons.fixed_weight_anticode(7, 4))   # two weights


def test_certificate_serialization(code_56):
    d = verify_swrg(code_56, l=3).to_dict()
    assert d["verdict"] == "is_l_swrg"
    assert d["spectrum"]["-4"] == 21                    # string keys


def test_vertex_cap(monkeypatch):
    import anticodes.swrg as swrg
    monkeypatch.setattr(swrg, "VERTEX_CAP", 8)
    with pytest.raises(CapExceeded):
        CosetGraph(cons.complement(cons.dual_bch_code(3), K=6))


def test_walk_cap_counts_transform_bits(code_56, monkeypatch):
    g = CosetGraph(code_56)
    size = 64 * 3 * (56).bit_length()       # 2^k * l * bits of n
    monkeypatch.setattr(swrg, "WALK_CAP", size)
    assert walk_counts(g, 3) == ((2746, 2730, 2730), None)
    monkeypatch.setattr(swrg, "WALK_CAP", size - 1)
    with pytest.raises(CapExceeded):
        walk_counts(g, 3)


def test_huge_l_refused_before_any_work(code_56):
    with pytest.raises(CapExceeded):
        walk_counts(CosetGraph(code_56), 10 ** 9 + 1)


@st.composite
def projective_binary_codes(draw):
    k = draw(st.integers(2, 7))
    units = [1 << i for i in range(k)]
    others = draw(st.lists(st.integers(1, (1 << k) - 1), unique=True,
                           max_size=min(30, (1 << k) - 1 - k)))
    columns = units + [c for c in others if c not in units]
    rows = [[c >> i & 1 for c in columns] for i in range(k)]
    return LinearCode.from_generator(F2, rows)


@settings(max_examples=60, deadline=None)
@given(projective_binary_codes(), st.sampled_from([3, 5, 7, 9]))
def test_transform_walks_match_bfs(code, l):
    g = CosetGraph(code)
    assert walk_counts(g, l) == bfs_walk_counts(g, l)
