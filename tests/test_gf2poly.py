"""gf2poly against small independent oracles (trial division, schoolbook mod)."""

import random

import pytest

from permpoly.gf2poly import (ONE, ZERO, X, BitPoly, bp_find_irreducible, bp_gcd,
                              bp_is_irreducible, proof_gcd_case1, proof_gcd_case2)


def _deg(bits):
    return bits.bit_length() - 1


def _naive_mod(a, m):
    # schoolbook long division over GF(2), ints as coefficient bitmasks
    dm = _deg(m)
    while a and _deg(a) >= dm:
        a ^= m << (_deg(a) - dm)
    return a


def _naive_irreducible(bits):
    # trial division by every polynomial of degree 1..deg/2
    deg = _deg(bits)
    if deg < 1:
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if _deg(d) >= 1 and _naive_mod(bits, d) == 0:
            return False
    return True


def test_parse_and_str_round_trip():
    for text in ["0", "1", "x", "x+1", "x^6+x^2+1", "x^12+x^3+1"]:
        assert str(BitPoly.from_string(text)) == text
    assert BitPoly.from_string("x^2 + x + 1").bits == 0b111
    with pytest.raises(ValueError):
        BitPoly.from_string("x^2+y")


def test_degree_and_zero():
    assert ZERO.is_zero and not ONE.is_zero
    assert ONE.degree == 0 and X.degree == 1
    with pytest.raises(ValueError):
        _ = ZERO.degree


def test_add_is_xor():
    a = BitPoly.from_string("x^3+x+1")
    b = BitPoly.from_string("x^3+x^2")
    assert a + b == BitPoly.from_string("x^2+x+1")
    assert a + a == ZERO


def test_mul_known_values():
    # (x+1)^2 = x^2+1 in characteristic 2
    assert BitPoly(0b11) * BitPoly(0b11) == BitPoly(0b101)
    # (x^2+x+1)(x+1) = x^3+1
    assert BitPoly(0b111) * BitPoly(0b11) == BitPoly(0b1001)
    assert ZERO * X == ZERO


def test_divmod_against_schoolbook():
    rng = random.Random(1)
    for _ in range(300):
        a = BitPoly(rng.getrandbits(20))
        b = BitPoly(rng.getrandbits(10) | (1 << 9))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree
        assert r.bits == _naive_mod(a.bits, b.bits)
        assert a % b == r and a // b == q


def test_irreducibility_matches_trial_division_up_to_degree_10():
    for bits in range(2, 1 << 11):
        assert bp_is_irreducible(BitPoly(bits)) == _naive_irreducible(bits), bin(bits)


def test_gcd_against_common_divisor_scan():
    rng = random.Random(2)
    for _ in range(60):
        a = BitPoly(rng.getrandbits(9))
        b = BitPoly(rng.getrandbits(8))
        if a.is_zero and b.is_zero:
            continue
        g = bp_gcd(a, b)
        best = 1
        for d in range(2, 1 << 9):
            if (a.is_zero or _naive_mod(a.bits, d) == 0) and \
               (b.is_zero or _naive_mod(b.bits, d) == 0):
                if _deg(d) > _deg(best):
                    best = d
        assert g.bits == best
    with pytest.raises(ValueError):
        bp_gcd(ZERO, ZERO)


def test_gcd_divides_and_is_common():
    rng = random.Random(3)
    for _ in range(100):
        a = BitPoly(rng.getrandbits(24))
        b = BitPoly(rng.getrandbits(16) | 1)
        g = bp_gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero


def test_find_irreducible_first_in_order():
    # the chosen modulus is the least irreducible of its degree
    for m in range(1, 13):
        found = bp_find_irreducible(m)
        assert found.degree == m and bp_is_irreducible(found)
        for bits in range(1 << m, found.bits):
            assert not _naive_irreducible(bits)
    assert bp_find_irreducible(2) == BitPoly(0b111)
    assert str(bp_find_irreducible(12)) == "x^12+x^3+1"


def test_proof_gcd_case1_values():
    # ones polynomial 1+x+...+x^(k-2) against x^k+1
    assert str(proof_gcd_case1(2)) == "1"
    assert str(proof_gcd_case1(3)) == "x+1"
    assert str(proof_gcd_case1(4)) == "1"
    for k in (2, 4, 6, 8, 10, 12):
        assert proof_gcd_case1(k) == ONE
    for k in (3, 5, 7, 9, 11):
        assert proof_gcd_case1(k) == BitPoly(0b11)
    with pytest.raises(ValueError):
        proof_gcd_case1(1)


def test_proof_gcd_case2_values():
    assert str(proof_gcd_case2(2)) == "x^2+1"
    for k in range(1, 13):
        assert proof_gcd_case2(k) == BitPoly((1 << k) | 1)
    with pytest.raises(ValueError):
        proof_gcd_case2(0)
