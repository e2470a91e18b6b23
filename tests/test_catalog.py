import pytest

from maxcurves import catalog
from maxcurves.catalog import (CatalogError, alternating_power_sum,
                               lemmino_scan, mh_orders, order_excluded,
                               primovalore_scan, psu3_order, quattordici_scan)


def pgu3_order(q):
    """|PGU(3, q)| = q^3 (q^2 - 1)(q^3 + 1)."""
    return q**3 * (q * q - 1) * (q**3 + 1)


def test_group_orders():
    assert pgu3_order(2) == 8 * 3 * 9
    assert psu3_order(2) == 72
    assert psu3_order(5) == 126000
    assert psu3_order(4) == pgu3_order(4)  # gcd(3, 5) = 1


def test_case_orders_spot_values():
    by_label = {}
    for e in mh_orders(5):
        by_label.setdefault(e.label, []).append(e.order)
    assert by_label["i"] == [1000]     # 125 * 24 / 3
    assert 720 in by_label["xi"] and 2520 in by_label["xii"]
    e8 = {e.label: e.order for e in mh_orders(8)}
    assert e8["iv"] == 57              # 3 (q^2 - q + 1) / 3
    assert {e.label: e.order for e in mh_orders(2)}["xv"] == 36


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 32])
def test_every_order_divides_psu3(q):
    total = psu3_order(q)
    for e in mh_orders(q):
        assert total % e.order == 0, (q, e.label, e.order)


def test_subfield_cases_present():
    labels64 = [e.label for e in mh_orders(64)]
    assert "xiii" in labels64      # PSU(3, 4) with 6/2 = 3 an odd prime
    assert "xiv" not in labels64   # 64 = 2^6 and 6/3 = 2 is even
    labels512 = {e.label for e in mh_orders(2**9)}
    assert "xiii" in labels512 and "xiv" in labels512


def test_order_excluded_survivors():
    s1 = sorted({e.label for e in order_excluded(21, 64, 1)})
    assert s1 == ["i", "ii"]
    s3 = sorted({e.label for e in order_excluded(21, 64, 3)})
    assert s3 == ["i", "ii"]
    s5 = sorted({e.label for e in order_excluded(31, 125, 1)})
    assert s5 == ["i", "ii", "v"]
    assert len(order_excluded(1, 8)) == len(mh_orders(8))  # m = 1: all survive


def test_lemmino_spot_values():
    assert alternating_power_sum(3, 5) == 1 - 32 + 1024 == 993
    assert 993 > 3 * 33
    assert (2**5 + 1) // 3 == 11
    assert (2**5 + 1) // 3 > 2**2 - 2 + 1 == 3


def test_lemmino_scan_clean():
    assert lemmino_scan(20) == []


def test_lemmino_rejects_small_bound():
    with pytest.raises(CatalogError):
        lemmino_scan(2)


def test_quattordici_unique_survivor():
    table = quattordici_scan(20)
    assert {m for m, s in table.items() if s} == {3}
    assert table[3] == ["iv"]
    assert all(m % 2 == 1 for m in table)
    # the survival reason: 2^m + 1 divides 9 only at m = 3
    assert [m for m in table if 9 % (2**m + 1) == 0] == [3]


def test_primovalore_scan():
    hits = primovalore_scan(2000)
    assert hits == [1, 2, 3, 10]
    # the scan splits at q_max // 2: 2000 puts the hit q = 10 well inside
    # the lower half, 20 and 21 at its top, 19 at the bottom of the upper
    # half, 11 inside it and 10 at its top
    for q_max in (10, 11, 19, 20, 21):
        assert primovalore_scan(q_max) == [1, 2, 3, 10], q_max
    assert (2128 * 10 - 1568) % 112 == 0
    assert (2128 * 4 - 1568) % 22 != 0
    assert 2128 * 10 - 1568 == 112 * 176


def test_primovalore_scan_matches_big_integer_divisibility():
    # the definition itself, in exact integers with no modular shortcut
    assert primovalore_scan(10**4) == [
        q for q in range(1, 10**4 + 1)
        if q**9 * (q**9 + 1) * (q**6 - 1) % (q * q + q + 2) == 0]


def test_primovalore_remainder_is_the_polynomial_remainder():
    # q^9 (q^9 + 1)(q^6 - 1) = q^24 - q^18 + q^15 - q^9, divided by the
    # monic q^2 + q + 2 in Z[q], top degree first
    rem = [0] * 25
    rem[24], rem[18], rem[15], rem[9] = 1, -1, 1, -1
    for d in range(24, 1, -1):
        c, rem[d] = rem[d], 0
        rem[d - 1] -= c
        rem[d - 2] -= 2 * c
    assert (rem[1], rem[0]) == catalog.PRIMOVALORE_REMAINDER


def test_primovalore_scan_raises_when_the_methods_disagree(monkeypatch):
    # at q = 1, m = 4 divides 1 * 2 * 0 directly, but not 2128 - 1567
    monkeypatch.setattr(catalog, "PRIMOVALORE_REMAINDER", (2128, -1567))
    with pytest.raises(CatalogError, match="disagree at q = 1"):
        primovalore_scan(10)


def test_primovalore_direct_divisibility_q10():
    q = 10
    assert (q**9 * (q**9 + 1) * (q**6 - 1)) % (q * q + q + 2) == 0


def test_catalog_rejects_non_prime_powers():
    with pytest.raises(CatalogError):
        mh_orders(6)
