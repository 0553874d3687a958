"""Bound arithmetic and the best-known-distance table."""

import json
import math
import sys
from functools import cache
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticodes.bounds import (
    antigriesmer, antigriesmer_sum, best_known_table, bounds_report,
    classify_optimality, erdos_kleitman, griesmer, griesmer_sum,
    plotkin_anticode_floor,
)
from anticodes.gf import field_make
from anticodes.linear import LinearCode


def test_griesmer_sum_known_values():
    assert griesmer_sum(2, 3, 4) == 4 + 2 + 1           # simplex [7,3,4]
    assert griesmer_sum(2, 6, 26) == 26 + 13 + 7 + 4 + 2 + 1
    assert griesmer_sum(3, 3, 9) == 9 + 3 + 1


def test_griesmer_defect():
    assert griesmer(2, 3, 4, 7) == (7, 0)               # a Griesmer code
    assert griesmer(2, 5, 14, 29) == (28, 1)            # almost Griesmer
    assert griesmer(2, 6, 26, 56) == (53, 3)
    with pytest.raises(ValueError):
        griesmer_sum(2, 0, 4)


def test_antigriesmer():
    assert antigriesmer_sum(2, 6, 30) == 30 + 15 + 7 + 3 + 1 + 0
    s, defect, holds = antigriesmer(2, 6, 30, 56)
    assert (s, defect, holds) == (56, 0, True)
    s, defect, holds = antigriesmer(2, 5, 16, 29)
    assert (s, defect, holds) == (31, 2, True)


def test_plotkin_anticode_floor():
    assert plotkin_anticode_floor(2, 56) == 28
    assert plotkin_anticode_floor(3, 32) == 22          # ceil(64/3)
    assert plotkin_anticode_floor(4, 17) == 13          # ceil(51/4)


def largest_anticode(n, delta):
    """The most binary words of length n with pairwise distance at most
    delta, by exhaustive search: a largest clique of the graph joining
    words at distance <= delta, including or excluding the lowest
    candidate word in turn."""
    near = [sum(1 << v for v in range(1 << n) if (u ^ v).bit_count() <= delta)
            for u in range(1 << n)]

    @cache
    def largest(candidates):
        if not candidates:
            return 0
        low = candidates & -candidates
        u = low.bit_length() - 1
        return max(1 + largest(candidates & near[u] & ~low),
                   largest(candidates & ~low))
    return largest((1 << (1 << n)) - 1)


def test_erdos_kleitman():
    # Kleitman (JCT 1, 1966): a sum of C(n, i) for even delta < n, twice a
    # sum of C(n - 1, i) for odd delta < n, and 2^n at delta = n; the
    # exhaustive search confirms all three for n <= 4
    assert [largest_anticode(n, delta) for n, delta in
            [(3, 3), (4, 2), (4, 3), (4, 4)]] == [8, 5, 8, 16]
    for n in range(1, 5):
        for delta in range(n + 1):
            assert erdos_kleitman(n, delta) == largest_anticode(n, delta)
    assert erdos_kleitman(7, 4) == 1 + 7 + 21
    assert erdos_kleitman(7, 5) == 2 * (1 + 6 + 15)
    with pytest.raises(ValueError):
        erdos_kleitman(4, 5)

    def kleitman(n, delta):
        if delta == n:
            return 2 ** n
        if delta % 2 == 0:
            return sum(math.comb(n, i) for i in range(delta // 2 + 1))
        return 2 * sum(math.comb(n - 1, i) for i in range(delta // 2 + 1))
    assert all(erdos_kleitman(n, delta) == kleitman(n, delta)
               for n in range(30) for delta in range(n + 1))


@st.composite
def binary_projective_codes(draw):
    """A binary projective [n, k] code: the k unit columns and distinct
    other nonzero columns, n at most 2k, where odd delta and delta = n
    are common."""
    k = draw(st.integers(2, 7), label="k")
    others = [c for c in range(1, 1 << k) if c & (c - 1)]
    extra = draw(st.lists(st.sampled_from(others), unique=True,
                          max_size=k), label="extra")
    columns = [1 << i for i in range(k)] + extra
    return LinearCode.from_columns(
        field_make(2, 1), [tuple(c >> i & 1 for i in range(k))
                           for c in columns])


@settings(max_examples=150, deadline=None)
@given(binary_projective_codes())
def test_ek_bound_holds_for_binary_projective_codes(code):
    # the 2^k codewords are an anticode of diameter delta
    wd = code.weight_distribution()
    report = bounds_report(2, code.n, code.k, wd.min_weight, wd.max_weight)
    assert 2 ** code.k <= report["ek_bound"]


def test_ek_bound_is_null_past_the_decimal_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)                     # the least allowed
    try:
        # the [4095, 12] simplex: the bound has about 1000 digits
        big = bounds_report(2, 4095, 12, 2048, 2048)
        # below the limit the bound prints as before
        small = bounds_report(2, 2000, 11, 1000, 1000)
        assert json.loads(json.dumps(big))["ek_bound"] is None
        assert json.loads(json.dumps(small))["ek_bound"] \
            == erdos_kleitman(2000, 1000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_ek_bound_at_the_decimal_limit():
    # for n = 4095 the sum first reaches 10^640 at i = 479
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        below = bounds_report(2, 4095, 12, 2048, 956)
        above = bounds_report(2, 4095, 12, 2048, 958)
        printed = json.loads(json.dumps(below))["ek_bound"]
        assert json.loads(json.dumps(above))["ek_bound"] is None
    finally:
        sys.set_int_max_str_digits(limit)
    assert printed == sum(math.comb(4095, i) for i in range(479))
    assert len(str(printed)) == 640


def test_bounds_report_fields():
    r = bounds_report(2, 56, 6, 26, 30)
    assert r["griesmer_defect"] == 3
    assert r["antigriesmer_defect"] == 0 and r["antigriesmer_holds"]
    assert not r["antigriesmer_applicable"]             # 56 >= 2^5
    assert r["plotkin_anticode_floor"] == 28
    assert r["prop_delta_ge_k"]
    assert r["ek_bound"] is not None
    r3 = bounds_report(3, 32, 4, 21, 24)
    assert r3["ek_bound"] is None                       # binary only
    assert not r3["antigriesmer_applicable"]            # 32 >= 3^3
    assert bounds_report(3, 8, 4, 3, 6)["antigriesmer_applicable"]
    assert r3["q"] == 3


def test_best_known_table_loads():
    table = best_known_table()
    assert table[(2, 29, 5)] == 14
    assert table[(2, 46, 6)] == 22
    assert table[(4, 68, 4)] == 50
    assert all(len(key) == 3 for key in table)


def test_best_known_rows_meet_the_griesmer_bound():
    # no [n, k]_q code has g_q(k, d) > n, so a row's d_best is at most
    # d_G = max{d : g_q(k, d) <= n}; a row above it is a data error
    text = resources.files("anticodes.data").joinpath("best_known.csv").read_text()
    rows = [tuple(map(int, line.split(",")[:4])) for line in text.splitlines()
            if line.strip() and not line.startswith("#")]
    assert len(rows) == 104
    for q, n, k, d_best in rows:
        d_g = 0
        while griesmer_sum(q, k, d_g + 1) <= n:
            d_g += 1
        assert d_best <= d_g, (q, n, k, d_best, d_g)


def test_classify_optimality():
    assert classify_optimality(29, 5, 2, 14)["status"] == "optimal"
    almost = classify_optimality(46, 6, 2, 21)
    assert (almost["status"], almost["best"]) == ("almost_optimal", 22)
    gap = classify_optimality(46, 6, 2, 20)
    assert (gap["status"], gap["distance_to_best"]) == ("distance_to_best", 2)
    assert classify_optimality(9999, 5, 2, 3)["status"] == "unknown"
    assert classify_optimality(29, 5, 2, 14) == \
        {"status": "optimal", "best": 14}
