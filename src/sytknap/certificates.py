"""Machine-checked certificates for the fixed-length degree identities.

Each certificate rebuilds the relevant closed forms as factorial products,
takes exact ratios, and reduces the claimed identity to a polynomial
difference that must be identically zero.  Failure is reported, never
raised, and every check's reduced difference polynomial is kept in the
report.
"""

from .degrees import _fat_hook_spec, _three_row_spec
from .identities import _ladder_args, _ladder_lead
from .polynomials import FactorialProduct, Poly, RationalFn, cross_diff, poly_ring


def _symbolic(spec, *args: Poly) -> FactorialProduct:
    factorials, num, den = spec(*args)
    return FactorialProduct(factorials, RationalFn(num, den))


def fat_hook_form(a: Poly, b: Poly, t: Poly) -> FactorialProduct:
    """Symbolic closed form of the degree of (a, b, 1^t), from the same spec
    as degrees.degree_fat_hook."""
    return _symbolic(_fat_hook_spec, a, b, t)


def three_row_form(r: Poly, s: Poly, t: Poly) -> FactorialProduct:
    """Symbolic closed form of the degree of (r, s, t), from the same spec
    as degrees.degree_three_row."""
    return _symbolic(_three_row_spec, r, s, t)


class CertificateReport:
    """Outcome of one symbolic certificate.  Two reports are equal when all
    their fields are; `checks` defaults to a fresh list."""

    __slots__ = ("name", "passed", "checks")

    def __init__(self, name: str, passed: bool, checks: list[tuple[str, str]] | None = None):
        self.name, self.passed = name, passed
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.passed, self.checks) == (other.name, other.passed, other.checks)

    def __repr__(self):
        return f"CertificateReport(name={self.name!r}, passed={self.passed!r}, checks={self.checks!r})"

    def to_json(self) -> dict:
        return {
            "id": f"certify-{self.name}",
            "params": {},
            "lhs": "0",
            "rhs": "0",
            "pass": self.passed,
            "regime": "symbolic",
            "terms": [],
            "checks": [{"label": label, "difference": diff} for label, diff in self.checks],
        }

    def expect(self, label: str, value, target) -> None:
        """Record the reduced difference of value and target; a nonzero one
        fails the report."""
        diff = cross_diff(value, target)
        self.checks.append((label, repr(diff)))
        if not diff.is_zero():
            self.passed = False


def certify_three_to_two() -> CertificateReport:
    """The three-term fat-hook ladder collapses to two terms.

    With F0 = f(k,k,1^m), the combination
    (F0 + f(k+1,k+1,1^(m-2)) + f(k+2,k+2,1^(m-4)) - f(k+2,k,1^(m-2))) / F0
    factors as (k-m+1)(k-m+2)(k+m)(k+m+1) / (k (k+1)^2 (k+2)), and the
    resulting difference equals both case closed forms f(k,k,m) and
    f(m-2,k+1,k+1) wherever those are shapes.  The ladder and its lead
    f(k+2,k,1^(m-2)) are the numeric verifiers' own triples, from
    identities._ladder_args and identities._ladder_lead at d = 1.
    """
    (k, m) = poly_ring("k", "m")
    report = CertificateReport("three-to-two", True)
    f0, f1, f2 = (fat_hook_form(*args) for args in _ladder_args(k, m, 3))
    r1, r2 = f1.ratio(f0), f2.ratio(f0)
    rg = fat_hook_form(*_ladder_lead(1, k, m)).ratio(f0)
    report.expect(
        "step ratio f(k+2,k,1^(m-2))/f(k,k,1^m)",
        rg,
        RationalFn(3 * (k + m) * (m - 1) * m, (k + 1) * (k + 2) * (k + m - 2)),
    )
    target = RationalFn(
        (k - m + 1) * (k - m + 2) * (k + m) * (k + m + 1),
        k * (k + 1) ** 2 * (k + 2),
    )
    report.expect("difference ratio factorization", 1 + r1 + r2 - rg, target)
    kernel = FactorialProduct(
        [(2 * k + m, 1), (k + 1, -1), (k + 2, -1), (m, -1)],
        RationalFn((k - m + 1) * (k - m + 2)),
    )
    report.expect("kernel / f(k,k,1^m) matches the factorization", kernel.ratio(f0), target)
    report.expect("low-tail case f(k,k,m) equals the kernel",
                  three_row_form(k, k, m).ratio(kernel), 1)
    report.expect("high-tail case f(m-2,k+1,k+1) equals the kernel",
                  three_row_form(m - 2, k + 1, k + 1).ratio(kernel), 1)
    return report


def certify_boundary_merge() -> CertificateReport:
    """f(k,k,1^m) + f(k+1,k+1,1^(m-2)) - f(k+1,k,1^(m-1)) reduces to a
    closed form whose polynomial factor (k-m-1)(k-m+1) vanishes at k = m+-1,
    so at those parameters the pair merges into the single middle hook."""
    (k, m) = poly_ring("k", "m")
    report = CertificateReport("boundary-merge", True)
    target = FactorialProduct(
        [(2 * k + m, 1), (k + 1, -1), (k, -1), (m, -1)],
        RationalFn((k - m - 1) * (k - m + 1), (k + m - 1) * (k + m + 1)),
    )
    combo = (
        fat_hook_form(k, k, m).ratio(target)
        + fat_hook_form(k + 1, k + 1, m - 2).ratio(target)
        - fat_hook_form(k + 1, k, m - 1).ratio(target)
    )
    report.expect("combination equals the closed form", combo, 1)
    report.expect("vanishing at k = m+1", target.poly_part.num.subst("k", m + 1), 0)
    report.expect("vanishing at k = m-1", target.poly_part.num.subst("k", m - 1), 0)
    return report


def certify_four_hook_exchange() -> CertificateReport:
    """A three-row degree as an alternating four-term fat-hook combination:
    f(l,k,m) = f(l,k,1^m) - f(l,k+2,1^(m-2)) - f(l+2,k,1^(m-2))
               + f(l+2,k+2,1^(m-4))."""
    (l, k, m) = poly_ring("l", "k", "m")
    report = CertificateReport("four-hook-exchange", True)
    base = three_row_form(l, k, m)
    r1 = fat_hook_form(l, k, m).ratio(base)
    report.expect(
        "step ratio f(l,k,1^m)/f(l,k,m)",
        r1,
        RationalFn(
            (l + 1) * (l + 2) * k * (k + 1),
            (k + m) * (l + m + 1) * (l - m + 2) * (k - m + 1),
        ),
    )
    combo = (
        r1
        - fat_hook_form(l, k + 2, m - 2).ratio(base)
        - fat_hook_form(l + 2, k, m - 2).ratio(base)
        + fat_hook_form(l + 2, k + 2, m - 4).ratio(base)
    )
    report.expect("four ratios sum to 1", combo, 1)
    return report


def certify_argument_rotation() -> CertificateReport:
    """The three-row closed form is invariant under the argument rotation
    (x, y, z) -> (z-2, x+1, y+1): the factorial content is identical and the
    two sign flips in the polynomial factor cancel."""
    (x, y, z) = poly_ring("x", "y", "z")
    report = CertificateReport("argument-rotation", True)
    ratio = three_row_form(x, y, z).ratio(three_row_form(z - 2, x + 1, y + 1))
    report.expect("rotated form ratio is 1", ratio, 1)
    return report


def certify_summand_antisymmetry() -> CertificateReport:
    """The expansion summand s(j) = three-row value at (m+2j, k, k-2j) is
    antisymmetric under j -> (k-m)/2 - 1 - j when k - m = 2u is even.

    Working over (u, m, j) with k = m + 2u keeps all coefficients integral;
    the reflected argument triple is (m+2u-2j-2, m+2u, m+2j+2).
    """
    (u, m, j) = poly_ring("u", "m", "j")
    report = CertificateReport("summand-antisymmetry", True)
    k = m + 2 * u
    s_here = three_row_form(m + 2 * j, k, k - 2 * j)
    s_reflected = three_row_form(m + 2 * u - 2 * j - 2, k, m + 2 * j + 2)
    stated = FactorialProduct(
        [(3 * m + 4 * u, 1), (m + 2 * j + 2, -1), (k + 1, -1), (k - 2 * j, -1)],
        RationalFn((2 * j - 2 * u + 1) * (4 * j - 2 * u + 2) * (2 * j + 1)),
    )
    report.expect("summand matches its product representation", stated.ratio(s_here), 1)
    report.expect("reflection negates the summand", s_reflected.ratio(s_here), -1)
    return report


CERTIFICATES = {
    "three-to-two": certify_three_to_two,
    "boundary-merge": certify_boundary_merge,
    "four-hook-exchange": certify_four_hook_exchange,
    "argument-rotation": certify_argument_rotation,
    "summand-antisymmetry": certify_summand_antisymmetry,
}


def certify_all() -> list[CertificateReport]:
    """Run every certificate, in the fixed CERTIFICATES order."""
    return [certify() for certify in CERTIFICATES.values()]
