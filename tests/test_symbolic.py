import operator
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sytknap import certificates, degrees
from sytknap.certificates import (
    certify_all,
    certify_argument_rotation,
    certify_boundary_merge,
    certify_three_to_two,
    fat_hook_form,
    three_row_form,
)
from sytknap.degrees import (
    degree,
    degree_fat_hook,
    degree_three_row,
    fat_hook_value,
    syt_enumerate,
    three_row_value,
)
from sytknap.partitions import fat_hook
from sytknap.polynomials import (
    FactorialMismatch,
    FactorialProduct,
    Poly,
    RationalFn,
    cross_diff,
    poly_ring,
)

coeffs = st.integers(-6, 6)


def small_poly(vars=("k", "m")):
    gens = poly_ring(*vars)

    def build(cs):
        p = Poly.constant(vars, cs[0])
        for c, g in zip(cs[1:], gens):
            p = p + c * g
        return p + cs[-1] * gens[0] * gens[-1]

    return st.lists(coeffs, min_size=4, max_size=4).map(build)


class TestPoly:
    def test_arithmetic(self):
        (k, m) = poly_ring("k", "m")
        assert (k + m) * (k - m) == k**2 - m**2
        assert (k + 1) ** 2 == k**2 + 2 * k + 1
        assert repr(k - m) == "k - m"
        assert repr(Poly.constant(("k", "m"), 0)) == "0"

    def test_evaluate_and_subst(self):
        (k, m) = poly_ring("k", "m")
        p = (k - m + 1) * (k + m)
        assert p.evaluate({"k": 3, "m": 2}) == 2 * 5
        assert p.subst("k", m + 1).evaluate({"k": 99, "m": 4}) == (4 + 1 - 4 + 1) * (5 + 4)

    def test_mixed_vars_rejected(self):
        (k, m) = poly_ring("k", "m")
        (x,) = poly_ring("x")
        with pytest.raises(ValueError):
            _ = k + x

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_foreign_operand_raises(self, op):
        (k, m) = poly_ring("k", "m")
        with pytest.raises(TypeError, match=r"^str is not a polynomial over \('k', 'm'\)$"):
            op(k, "x")

    def test_lead_coeff_and_primitive(self):
        (k, m) = poly_ring("k", "m")
        assert Poly.constant(("k", "m"), 0).lead_coeff() == 0
        p = 4 * m - 6 * k**2 - 2
        assert (p.lead_coeff(), p.content()) == (-6, 2)
        assert p.primitive() == 3 * k**2 - 2 * m + 1

    def test_negative_power_rejected(self):
        (k, m) = poly_ring("k", "m")
        assert (k + m) ** 0 == 1
        with pytest.raises(ValueError, match="^negative polynomial powers are not defined$"):
            _ = (k + m) ** -1

    @settings(max_examples=60)
    @given(small_poly(), small_poly(), small_poly())
    def test_ring_laws(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a

    @settings(max_examples=60)
    @given(small_poly(), small_poly(), st.integers(-9, 9), st.integers(-9, 9))
    def test_product_evaluates_to_the_product_of_values(self, a, b, k, m):
        point = {"k": k, "m": m}
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


class TestRationalFn:
    def test_equality_by_cross_multiplication(self):
        (k, m) = poly_ring("k", "m")
        a = RationalFn(k**2 - m**2, k - m)
        b = RationalFn(k + m)
        assert a == b
        assert cross_diff(a, b).is_zero()

    @settings(max_examples=60)
    @given(small_poly(), small_poly())
    def test_scaling_invariance(self, num, den):
        if den.is_zero():
            return
        a = RationalFn(num, den)
        scaled = RationalFn(num * (3 * den + 1), den * (3 * den + 1))
        assert a == scaled

    def test_zero_denominator_rejected(self):
        (k, m) = poly_ring("k", "m")
        with pytest.raises(ZeroDivisionError):
            RationalFn(k, Poly.constant(("k", "m"), 0))

    def test_division_by_zero_rejected(self):
        (k, m) = poly_ring("k", "m")
        with pytest.raises(ZeroDivisionError, match="^division by the zero rational function$"):
            _ = RationalFn(k, m) / RationalFn(k - k)

    def test_evaluate_where_the_denominator_vanishes(self):
        (k, m) = poly_ring("k", "m")
        f = RationalFn(k + 1, k - m)
        assert f.evaluate({"k": 3, "m": 1}) == Fraction(2)
        with pytest.raises(ZeroDivisionError, match="^denominator vanishes at"):
            f.evaluate({"k": 2, "m": 2})

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_foreign_operand_raises(self, op):
        (k, m) = poly_ring("k", "m")
        with pytest.raises(TypeError, match=r"^str is not a polynomial over \('k', 'm'\)$"):
            op(RationalFn(k, m), "x")

    def test_equality_with_a_non_number_is_false(self):
        (k, m) = poly_ring("k", "m")
        assert (RationalFn(k) == "x") is False
        assert RationalFn(k) != "x"

    def test_one_equality_rule_for_the_carrier(self):
        # a value over another variable set is unequal in either class and
        # from either side; a Poly equals its RationalFn from either side
        (k, m) = poly_ring("k", "m")
        (x,) = poly_ring("x")
        for a, b in [(k, x), (RationalFn(k), RationalFn(x)), (RationalFn(k), x), (k, RationalFn(x))]:
            assert (a == b) is False and (b == a) is False
            assert a != b and b != a
        three = Poly.constant(("k", "m"), 3)
        for a, b in [(k + m, RationalFn(k + m)), (k, RationalFn(2 * k, 2)), (three, 3), (RationalFn(three), 3)]:
            assert (a == b) is True and (b == a) is True
        assert (k == "k") is False and k != "k"

    def test_arithmetic(self):
        (k, m) = poly_ring("k", "m")
        a = RationalFn(1, k)
        b = RationalFn(1, m)
        assert a + b == RationalFn(k + m, k * m)
        assert a / b == RationalFn(m, k)
        assert (a - a).is_zero()


class TestFactorialProduct:
    def test_shift_reduction_symbolic(self):
        # (L + c)! / L! reduces to the product of the c shifted forms
        for base_coeffs in ((1, 0), (1, 1), (2, 1)):
            (k, m) = poly_ring("k", "m")
            L = base_coeffs[0] * k + base_coeffs[1] * m
            for c in range(7):
                fp = FactorialProduct([(L + c, 1), (L, -1)])
                assert not fp.factors
                expected = Poly.constant(("k", "m"), 1)
                for i in range(1, c + 1):
                    expected = expected * (L + i)
                assert fp.poly_part == RationalFn(expected)

    def test_shift_reduction_numeric(self):
        (k, m) = poly_ring("k", "m")
        L = 2 * k + m
        for c in range(7):
            fp = FactorialProduct([(L + c, 1), (L, -1)])
            for point in range(20):
                values = {"k": point, "m": point + 1}
                v = L.evaluate(values)
                assert fp.poly_part.evaluate(values) == Fraction(
                    factorial(v + c), factorial(v)
                )

    def test_constant_factorials_fold(self):
        (k, m) = poly_ring("k", "m")
        c9 = Poly.constant(("k", "m"), 9)
        zero = Poly.constant(("k", "m"), 0)
        form = three_row_form(c9, zero, zero)
        assert not form.factors
        assert form.poly_part == 1

    def test_negative_constant_factorial_rejected(self):
        (k, m) = poly_ring("k", "m")
        with pytest.raises(ValueError):
            FactorialProduct([(Poly.constant(("k", "m"), -2), 1)])

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError, match="^a factorial product needs at least one factorial$"):
            FactorialProduct([])

    def test_exponent_other_than_plus_minus_one_rejected(self):
        (k, m) = poly_ring("k", "m")
        for exp in (0, 2, -2):
            with pytest.raises(ValueError, match=r"^factorial exponents must be \+1 or -1$"):
                FactorialProduct([(k, exp)])

    def test_evaluate_at_a_negative_argument_rejected(self):
        (k, m) = poly_ring("k", "m")
        fp = FactorialProduct([(k - m, 1), (m, -1)])
        assert fp.evaluate({"k": 5, "m": 2}) == Fraction(factorial(3), factorial(2))
        with pytest.raises(ValueError, match="^factorial of negative integer -1 at"):
            fp.evaluate({"k": 1, "m": 2})

    def test_nonlinear_argument_rejected(self):
        (k, m) = poly_ring("k", "m")
        with pytest.raises(ValueError):
            FactorialProduct([(k * m, 1)])

    def test_mismatched_content_raises(self):
        (k, m) = poly_ring("k", "m")
        with pytest.raises(FactorialMismatch):
            fat_hook_form(k, k, m).ratio(fat_hook_form(m, m, k))

    def test_construction_is_order_independent(self):
        (k, m) = poly_ring("k", "m")
        factorials = [(2 * k + m, 1), (k, -1), (k - 1, -1), (m, -1)]
        a = FactorialProduct(factorials)
        b = FactorialProduct(list(reversed(factorials)))
        assert a.factors == b.factors and a.poly_part == b.poly_part

    def test_pairing_choice_does_not_matter(self):
        # (k+3)! k! / ((k+1)! (k-1)!) reduces the same way no matter how the
        # numerator and denominator factorials are paired up
        (k, m) = poly_ring("k", "m")
        fp = FactorialProduct([(k + 3, 1), (k, 1), (k + 1, -1), (k - 1, -1)])
        assert not fp.factors
        want = RationalFn((k + 2) * (k + 3) * k)
        assert fp.poly_part == want
        for point in range(1, 15):
            values = {"k": point, "m": 0}
            lhs = Fraction(
                factorial(point + 3) * factorial(point),
                factorial(point + 1) * factorial(point - 1),
            )
            assert fp.poly_part.evaluate(values) == lhs

    def test_ratio_of_products_without_factorials(self):
        # (k+3)!/(k+1)! and (m+1)!/m! keep no factorial once built
        (k, m) = poly_ring("k", "m")
        a = FactorialProduct([(k + 3, 1), (k + 1, -1)])
        b = FactorialProduct([(m + 1, 1), (m, -1)])
        assert not a.factors and not b.factors
        assert a.ratio(b) == RationalFn((k + 2) * (k + 3), m + 1)

    def test_identity_ratio(self):
        (k, m) = poly_ring("k", "m")
        f = fat_hook_form(k, k, m)
        assert f.ratio(f) == 1

    def test_ladder_step_ratio(self):
        (k, m) = poly_ring("k", "m")
        got = fat_hook_form(k + 2, k, m - 2).ratio(fat_hook_form(k, k, m))
        want = RationalFn(3 * (k + m) * (m - 1) * m, (k + 1) * (k + 2) * (k + m - 2))
        assert got == want

    def test_four_hook_step_ratio(self):
        (l, k, m) = poly_ring("l", "k", "m")
        got = fat_hook_form(l, k, m).ratio(three_row_form(l, k, m))
        want = RationalFn(
            (l + 1) * (l + 2) * k * (k + 1),
            (k + m) * (l + m + 1) * (l - m + 2) * (k - m + 1),
        )
        assert got == want


class TestCertificates:
    def test_all_pass_with_zero_difference(self):
        for report in certify_all():
            assert report.passed, report
            for label, diff in report.checks:
                assert diff == "0", (report.name, label, diff)

    def test_report_json_shape(self):
        rep = certify_three_to_two().to_json()
        assert rep["id"] == "certify-three-to-two"
        assert rep["pass"] is True
        assert all(c["difference"] == "0" for c in rep["checks"])

    def test_report_defaults_and_equality(self):
        report = certificates.CertificateReport("x", True)
        assert report.checks == [] and report == certificates.CertificateReport("x", True, [])
        other = certificates.CertificateReport("x", True)
        other.checks.append(("label", "0"))
        assert report.checks == [] and report != other
        assert certify_all() == certify_all()
        assert repr(report) == "CertificateReport(name='x', passed=True, checks=[])"


class TestCertificateNumericConsistency:
    """Each passing certificate also holds numerically at 50 random integer
    points inside its validity region, with degrees from the hook route."""

    def test_three_to_two(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randint(2, 40)
            m = rng.randint(4, 40)
            lhs = (
                degree(fat_hook(k, k, m))
                + degree(fat_hook(k + 1, k + 1, m - 2))
                + degree(fat_hook(k + 2, k + 2, m - 4))
            )
            kernel = Fraction(
                factorial(2 * k + m) * (k - m + 1) * (k - m + 2),
                factorial(k + 1) * factorial(k + 2) * factorial(m),
            )
            assert lhs - degree(fat_hook(k + 2, k, m - 2)) == kernel

    def test_boundary_merge(self):
        rng = random.Random(12)
        for _ in range(50):
            m = rng.randint(2, 40)
            k = m + rng.choice((-1, 1))
            if k < 1:
                continue
            lhs = degree(fat_hook(k, k, m))
            second = fat_hook(k + 1, k + 1, m - 2)
            if second is not None:
                lhs += degree(second)
            assert lhs == degree(fat_hook(k + 1, k, m - 1))

    def test_four_hook_exchange(self):
        rng = random.Random(13)
        for _ in range(50):
            m = rng.randint(4, 15)
            k = rng.randint(m, m + 12)
            l = k + 2 + rng.randint(0, 12)
            assert degree((l, k, m)) == (
                degree(fat_hook(l, k, m))
                - degree(fat_hook(l, k + 2, m - 2))
                - degree(fat_hook(l + 2, k, m - 2))
                + degree(fat_hook(l + 2, k + 2, m - 4))
            )

    def test_four_hook_exchange_boundary(self):
        # l = k + 2 with k = 5, m = 4
        k, m, l = 5, 4, 7
        assert degree((l, k, m)) == (
            degree(fat_hook(l, k, m))
            - degree(fat_hook(l, k + 2, m - 2))
            - degree(fat_hook(l + 2, k, m - 2))
            + degree(fat_hook(l + 2, k + 2, m - 4))
        )

    def test_argument_rotation(self):
        rng = random.Random(14)
        checked = 0
        while checked < 50:
            x, y, z = (rng.randint(-5, 20) for _ in range(3))
            if x + y + z < 0:
                continue
            assert three_row_value(x, y, z) == three_row_value(z - 2, x + 1, y + 1)
            checked += 1

    def test_argument_rotation_shifted_instance(self):
        # the shifted instance with k=2, m=10, r=1, j=0
        assert three_row_value(4, 2, 8) == three_row_value(6, 5, 3)

    def test_summand_antisymmetry(self):
        rng = random.Random(15)
        for _ in range(50):
            m = rng.randint(2, 20)
            k = m + 2 * rng.randint(1, 10)
            u = (k - m) // 2
            for j in range(u):
                s_j = three_row_value(m + 2 * j, k, k - 2 * j)
                s_ref = three_row_value(
                    m + 2 * (u - 1 - j), k, k - 2 * (u - 1 - j)
                )
                assert s_ref == -s_j

    def test_summand_examples(self):
        # k=8, m=4: the two analytic summands cancel
        assert three_row_value(4, 8, 8) + three_row_value(6, 8, 6) == 0
        # k=5, m=3: the single analytic summand vanishes outright
        assert three_row_value(3, 5, 5) == 0


class TestOneSpecPerClosedForm:
    """The integer, partition and symbolic evaluators share one spec per
    closed form; the hook product and enumeration stay independent of it."""

    def test_three_row_symbolic_matches_integer(self):
        x, y, z = poly_ring("x", "y", "z")
        form = three_row_form(x, y, z)
        for r in range(9):
            for s in range(r + 1):
                for t in range(s + 1):
                    value = form.evaluate({"x": r, "y": s, "z": t})
                    assert value == three_row_value(r, s, t) == degree_three_row(r, s, t)
                    assert value == degree((r, s, t))

    def test_fat_hook_symbolic_matches_integer(self):
        x, y, r = poly_ring("x", "y", "r")
        form = fat_hook_form(x, y, r)
        for a in range(1, 9):
            for b in range(1, a + 1):
                for t in range(9):
                    value = form.evaluate({"x": a, "y": b, "r": t})
                    assert value == fat_hook_value(a, b, t) == degree_fat_hook(a, b, t)
                    assert value == degree(fat_hook(a, b, t))

    @pytest.mark.parametrize(
        "spec_name, typo, closed_form, shape, certificate",
        [
            (
                "_three_row_spec",
                # (x-z+2) mistyped as (x-z+3)
                lambda x, y, z: (
                    [(x + y + z, 1), (x + 2, -1), (y + 1, -1), (z, -1)],
                    (x - y + 1) * (x - z + 3) * (y - z + 1),
                    1,
                ),
                degree_three_row,
                (3, 2, 1),
                certify_argument_rotation,
            ),
            (
                "_fat_hook_spec",
                # (x-y+1) mistyped as (x-y+2)
                lambda x, y, r: (
                    [(x + y + r, 1), (x, -1), (y - 1, -1), (r, -1)],
                    x - y + 2,
                    (x + r + 1) * (y + r),
                ),
                degree_fat_hook,
                (3, 1, 1),
                certify_boundary_merge,
            ),
        ],
    )
    def test_wrong_spec_is_caught_by_the_oracles(
        self, monkeypatch, spec_name, typo, closed_form, shape, certificate
    ):
        for module in (degrees, certificates):
            monkeypatch.setattr(module, spec_name, typo)
        wrong = closed_form(*shape)
        assert wrong != degree(shape)
        assert wrong != syt_enumerate(shape)
        assert degree(shape) == syt_enumerate(shape)
        assert certificate().passed is False
