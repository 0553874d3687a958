"""Bound arithmetic and the best-known-distance table."""

import json
import math
import sys
from importlib import resources

import pytest

from anticodes.bounds import (
    antigriesmer, antigriesmer_sum, best_known_table, bounds_report,
    classify_optimality, code_anticode_check, erdos_kleitman, griesmer,
    griesmer_sum, plotkin_anticode_floor,
)


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


def test_erdos_kleitman():
    # sum of C(n, i) for i <= floor(delta/2)
    assert erdos_kleitman(4, 2) == 1 + 4
    assert erdos_kleitman(7, 4) == 1 + 7 + 21
    with pytest.raises(ValueError):
        erdos_kleitman(4, 5)
    assert all(erdos_kleitman(n, delta)
               == sum(math.comb(n, i) for i in range(delta // 2 + 1))
               for n in range(30) for delta in range(n + 1))


def test_ek_bound_is_null_past_the_decimal_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)                     # the least allowed
    try:
        # the [4095, 12] simplex: the bound has about 1000 digits
        big = bounds_report(2, 4095, 12, 2048, 2048).to_dict()
        # below the limit the bound prints as before
        small = bounds_report(2, 2000, 11, 1000, 1000).to_dict()
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
        below = bounds_report(2, 4095, 12, 2048, 956).to_dict()
        above = bounds_report(2, 4095, 12, 2048, 958).to_dict()
        printed = json.loads(json.dumps(below))["ek_bound"]
        assert json.loads(json.dumps(above))["ek_bound"] is None
    finally:
        sys.set_int_max_str_digits(limit)
    assert printed == sum(math.comb(4095, i) for i in range(479))
    assert len(str(printed)) == 640


def test_code_anticode_check():
    # |C| * |A| <= q^n
    assert code_anticode_check(2 ** 4, 2 ** 3, 2, 7)
    assert not code_anticode_check(2 ** 4, 2 ** 4, 2, 7)


def test_bounds_report_fields():
    r = bounds_report(2, 56, 6, 26, 30)
    assert r.griesmer_defect == 3
    assert r.antigriesmer_defect == 0 and r.antigriesmer_holds
    assert not r.antigriesmer_applicable                # 56 >= 2^5
    assert r.plotkin_anticode_floor == 28
    assert r.prop_delta_ge_k
    assert r.ek_bound is not None
    r3 = bounds_report(3, 32, 4, 21, 24)
    assert r3.ek_bound is None                          # binary only
    assert not r3.antigriesmer_applicable               # 32 >= 3^3
    assert bounds_report(3, 8, 4, 3, 6).antigriesmer_applicable
    assert r3.to_dict()["q"] == 3


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
    assert classify_optimality(29, 5, 2, 14).status == "optimal"
    almost = classify_optimality(46, 6, 2, 21)
    assert (almost.status, almost.best) == ("almost_optimal", 22)
    gap = classify_optimality(46, 6, 2, 20)
    assert (gap.status, gap.distance_to_best) == ("distance_to_best", 2)
    assert classify_optimality(9999, 5, 2, 3).status == "unknown"
    assert classify_optimality(29, 5, 2, 14).to_dict() == \
        {"status": "optimal", "best": 14}
