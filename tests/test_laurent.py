"""Exact Laurent arithmetic: canonical forms, gcd/lcm, factorization."""

import random
import time
from fractions import Fraction

import pytest

from leavitt.errors import LaurentError
from leavitt.laurent import (
    GF,
    QQ,
    LaurentPoly,
    divides,
    factor,
    field_from_string,
    is_irreducible,
    parse_poly,
    poly_gcd,
    poly_lcm,
    squarefree_core,
)

F2, F3, F5 = GF(2), GF(3), GF(5)


def q(text):
    return parse_poly(QQ, text)


def test_canon_examples():
    f = q("3x^2+3x^3").canon()
    assert f.shift == 2 and f.coeffs == (Fraction(1), Fraction(1))
    g = q("x^-1+1").canon()
    assert g.shift == -1 and g.coeffs == (Fraction(1), Fraction(1))
    assert q("0").is_zero and q("0").canon().is_zero


def test_canon_is_idempotent():
    rng = random.Random(5)
    for _ in range(100):
        f = LaurentPoly.from_coeffs(QQ, [rng.randint(-4, 4) for _ in range(5)], rng.randint(-3, 3))
        assert f.canon().canon() == f.canon()


def test_divides():
    one_x, one_x2 = q("1+x"), q("1+x^2")
    assert divides(one_x, one_x * one_x2)
    assert not divides(one_x, one_x2)
    assert divides(one_x, one_x)
    assert divides(q("x+x^2"), q("1+x"))  # units are invisible
    with pytest.raises(LaurentError, match="field mismatch"):
        divides(one_x, parse_poly(F2, "1+x"))


def test_gcd_lcm_examples():
    one_x, one_x2 = q("1+x"), q("1+x^2")
    assert poly_gcd(one_x, one_x2) == LaurentPoly.one(QQ)
    assert poly_lcm(one_x, one_x2) == (one_x * one_x2).unit_free()
    f = q("3x^2+3x^3")
    assert poly_gcd(f, q("0")) == f.canon()
    with pytest.raises(LaurentError, match="undefined"):
        poly_gcd(q("0"), q("0"))
    assert poly_lcm(one_x, q("0")).is_zero


def test_gcd_times_lcm_is_the_product():
    rng = random.Random(11)
    for fld in (QQ, F5):
        for _ in range(250):
            f = LaurentPoly.from_coeffs(fld, [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
            g = LaurentPoly.from_coeffs(fld, [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
            if f.is_zero or g.is_zero:
                continue
            left = poly_gcd(f, g) * poly_lcm(f, g)
            assert left.unit_free() == (f * g).unit_free()


def test_factor_examples():
    one_x, one_x2 = q("1+x"), q("1+x^2")
    fac = factor(one_x * one_x * one_x2)
    assert fac == {one_x: 2, one_x2: 1}
    assert factor(q("x^5")) == {}
    assert factor(parse_poly(F2, "1+x^2")) == {parse_poly(F2, "1+x"): 2}
    with pytest.raises(LaurentError):
        factor(q("0"))


def test_factor_reconstructs_input():
    rng = random.Random(23)
    for fld in (QQ, F3):
        for _ in range(120):
            coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(2, 6))]
            f = LaurentPoly.from_coeffs(fld, coeffs, rng.randint(-2, 2))
            if f.is_zero or f.canon().is_unit:
                continue
            prod = LaurentPoly.one(fld)
            for g, mult in factor(f).items():
                assert g.is_canonical and g.shift == 0
                prod = prod * g**mult
            assert prod == f.unit_free()


def test_degree_bound_over_q():
    f = LaurentPoly.from_coeffs(QQ, [1] + [0] * 8 + [1])  # degree 9
    with pytest.raises(LaurentError, match="degree 9 exceeds"):
        factor(f)


def test_factor_is_memoized_and_read_only(monkeypatch):
    from leavitt import laurent

    for fld, text in ((QQ, "3+x+4x^2+x^5"), (F5, "2+x+3x^2+x^4")):
        f = parse_poly(fld, text) * parse_poly(fld, "1+x") ** 2
        first = factor(f)

        def unreachable(*args):
            raise AssertionError("a repeated factor call reached the factoring pipeline")

        with monkeypatch.context() as m:
            m.setattr(laurent, "_q_factor", unreachable)
            m.setattr(laurent, "_fp_factor", unreachable)
            # an associate of f: another scalar and monomial unit
            again = factor(f * LaurentPoly.from_coeffs(fld, [3], shift=-2))
        assert again == first
        with pytest.raises(TypeError):
            again[parse_poly(fld, "1+x")] = 7
        assert factor(f) == first


def test_factor_memo_is_bounded():
    from leavitt import laurent

    for k in range(laurent._FACTOR_MEMO_SIZE + 20):
        factor(LaurentPoly.from_coeffs(QQ, [k + 1, 1]))
    assert len(laurent._factor_memo) == laurent._FACTOR_MEMO_SIZE


def test_factor_products_of_quartics():
    """Quartic pairs whose products have large values at small integers, so a
    divisor-interpolation search would face about a million candidates."""
    pairs = (
        ("8+6x+3x^2-5x^3+x^4", "-2-5x+7x^2+3x^3+x^4"),
        ("6+3x+4x^2+3x^3+x^4", "9+5x-5x^2+2x^3+x^4"),
    )
    for a, b in pairs:
        start = time.process_time()
        assert factor(q(a) * q(b)) == {q(a): 1, q(b): 1}
    assert time.process_time() - start < 1.0


def test_factor_over_q_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(1729)
    for _ in range(320):
        # a product of up to three random monic polynomials, degree <= 8 in all
        f = LaurentPoly.one(QQ)
        for _ in range(rng.randint(1, 3)):
            if f.degree < 8:
                d = rng.randint(1, 8 - f.degree)
                f = f * LaurentPoly.from_coeffs(QQ, [rng.randint(-7, 7) for _ in range(d)] + [1])
        want = {}
        for g, mult in sympy.factor_list(sympy.Poly([int(c) for c in f.coeffs[::-1]], x))[1]:
            h = LaurentPoly.from_coeffs(QQ, [int(c) for c in g.all_coeffs()[::-1]]).unit_free()
            if not h.is_unit:
                want[h] = mult
        assert factor(f) == want, str(f)


def test_is_irreducible():
    assert is_irreducible(q("1+x"))
    assert not is_irreducible(q("1+2x+x^2"))
    assert is_irreducible(parse_poly(F2, "1+x+x^2"))
    assert not is_irreducible(q("x"))  # x is a unit
    assert not is_irreducible(q("5"))
    assert is_irreducible(q("1+x^2"))
    assert not is_irreducible(q("1+x^3"))


def test_squarefree_core():
    one_x, one_x2 = q("1+x"), q("1+x^2")
    assert squarefree_core(one_x * one_x) == one_x
    assert squarefree_core(one_x) == one_x
    assert squarefree_core(one_x * one_x * one_x2) == (one_x * one_x2).unit_free()
    assert squarefree_core(parse_poly(F2, "1+x^2")) == parse_poly(F2, "1+x")


def test_squarefree_core_of_powers():
    rng = random.Random(31)
    for fld in (QQ, F5):
        for _ in range(40):
            f = LaurentPoly.from_coeffs(fld, [rng.randint(-2, 2) for _ in range(rng.randint(2, 4))])
            if f.is_zero or f.canon().is_unit:
                continue
            core = squarefree_core(f)
            for n in range(2, 6):
                assert squarefree_core(f**n) == core


def test_parse_and_render_round_trip():
    rng = random.Random(41)
    for fld in (QQ, F3):
        for _ in range(150):
            f = LaurentPoly.from_coeffs(
                fld, [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))], rng.randint(-3, 3)
            )
            assert parse_poly(fld, str(f)) == f
    assert parse_poly(QQ, "1/2+x") == LaurentPoly.from_coeffs(QQ, [Fraction(1, 2), 1])
    assert str(parse_poly(QQ, "1/2+x")) == "1/2+x"
    with pytest.raises(LaurentError):
        parse_poly(QQ, "1+y")
    with pytest.raises(LaurentError):
        parse_poly(QQ, "")


def test_fields():
    assert field_from_string("Q") is QQ
    assert field_from_string("Fp:5") == F5
    with pytest.raises(LaurentError):
        field_from_string("Fp:6")
    with pytest.raises(LaurentError):
        field_from_string("R")
    assert F5.coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5


def test_divisibility_is_a_partial_order_on_canonical_values():
    rng = random.Random(53)
    polys = []
    for _ in range(25):
        f = LaurentPoly.from_coeffs(QQ, [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))])
        if not f.is_zero:
            polys.append(f.unit_free())
    for f in polys:
        assert divides(f, f)
        for g in polys:
            if divides(f, g) and divides(g, f):
                assert f == g
            for h in polys:
                if divides(f, g) and divides(g, h):
                    assert divides(f, h)


def test_large_prime_field():
    big = GF(2**31 - 1)
    f = parse_poly(big, "1+x^2")
    fac = factor(f)
    prod = LaurentPoly.one(big)
    for g, m in fac.items():
        prod = prod * g**m
    assert prod == f.unit_free()
