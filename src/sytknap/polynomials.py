"""Exact multivariate polynomials, rational functions and factorial products.

This is the carrier for symbolic certificates: integer-coefficient
polynomials in a small fixed variable set (dense exponent-map
representation), rational functions compared by cross-multiplication, and
products of factorials of linear forms that reduce shift differences into
polynomial factors.  Degrees stay tiny, so clarity beats cleverness.
"""

from fractions import Fraction
from math import factorial, gcd
from operator import add


class FactorialMismatch(ValueError):
    """Raised when a factorial quotient cannot cancel its factorial content."""


def _monomial_key(exponents: tuple[int, ...]):
    return (sum(exponents), exponents)


class Poly:
    """Integer-coefficient polynomial over a fixed ordered variable tuple."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars: tuple[str, ...], coeffs: dict[tuple[int, ...], int]):
        self.vars = vars
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}

    @classmethod
    def constant(cls, vars: tuple[str, ...], value: int) -> "Poly":
        zero = (0,) * len(vars)
        return cls(vars, {zero: value} if value else {})

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "Poly":
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): 1})

    def __add__(self, other):
        other = _poly(other, self.vars)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_poly(other, self.vars))

    def __mul__(self, other):
        other = _poly(other, self.vars)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Poly.constant(self.vars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, (Poly, int)):
            return NotImplemented
        return getattr(other, "vars", self.vars) == self.vars and self.coeffs == _poly(other, self.vars).coeffs

    def key(self) -> tuple:
        """Canonical hashable form (sorted exponent/coefficient pairs)."""
        return tuple(sorted(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def content(self) -> int:
        return gcd(*self.coeffs.values())

    def lead_coeff(self) -> int:
        if not self.coeffs:
            return 0
        lead = max(self.coeffs, key=_monomial_key)
        return self.coeffs[lead]

    def primitive(self) -> "Poly":
        """Content divided out and leading coefficient made positive."""
        if not self.coeffs:
            return self
        g = self.content()
        if self.lead_coeff() < 0:
            g = -g
        return Poly(self.vars, {e: c // g for e, c in self.coeffs.items()})

    def evaluate(self, values: dict[str, int]) -> int:
        total = 0
        point = [values[v] for v in self.vars]
        for e, c in self.coeffs.items():
            term = c
            for base, exp in zip(point, e):
                term *= base**exp
            total += term
        return total

    def subst(self, name: str, replacement: "Poly") -> "Poly":
        """Substitute a polynomial for one variable (same variable set)."""
        idx = self.vars.index(name)
        out = Poly.constant(self.vars, 0)
        for e, c in self.coeffs.items():
            rest = list(e)
            power = rest[idx]
            rest[idx] = 0
            term = Poly(self.vars, {tuple(rest): c}) * replacement**power
            out = out + term
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for e in sorted(self.coeffs, key=_monomial_key, reverse=True):
            c = self.coeffs[e]
            factors = [
                v if p == 1 else f"{v}^{p}" for v, p in zip(self.vars, e) if p
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            pieces.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _poly(value, vars: tuple[str, ...]) -> Poly:
    """The one coercion into Poly: an int becomes a constant over vars, and a
    Poly must already be over vars."""
    if isinstance(value, Poly):
        if value.vars != vars:
            raise ValueError(f"mixed variable sets {vars} and {value.vars}")
        return value
    if isinstance(value, int):
        return Poly.constant(vars, value)
    raise TypeError(f"{type(value).__name__} is not a polynomial over {vars}")


def poly_ring(*names: str) -> tuple[Poly, ...]:
    """Generators for a polynomial ring in the given variables."""
    vars = tuple(names)
    return tuple(Poly.variable(vars, name) for name in names)


class RationalFn:
    """Quotient of two Polys, normalized by integer content and sign only.

    Equality is decided by cross-multiplication, never by sampling; a value
    over another variable set is unequal, as it is for Poly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        vars = (den if isinstance(num, int) else num).vars
        num, den = _poly(num, vars), _poly(den, vars)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = gcd(num.content(), den.content())
        if den.lead_coeff() < 0:
            g = -g
        if g not in (0, 1):
            num = Poly(num.vars, {e: c // g for e, c in num.coeffs.items()})
            den = Poly(den.vars, {e: c // g for e, c in den.coeffs.items()})
        self.num = num
        self.den = den

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def __add__(self, other):
        other = _rational(other, self.vars)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_rational(other, self.vars))

    def __mul__(self, other):
        other = _rational(other, self.vars)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _rational(other, self.vars)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if not isinstance(other, (RationalFn, Poly, int)):
            return NotImplemented
        if getattr(other, "vars", self.vars) != self.vars:
            return False
        other = _rational(other, self.vars)
        return (self.num * other.den - other.num * self.den).is_zero()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def evaluate(self, values: dict[str, int]) -> Fraction:
        den = self.den.evaluate(values)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at {values}")
        return Fraction(self.num.evaluate(values), den)


def _rational(value, vars: tuple[str, ...]) -> RationalFn:
    """The one coercion into RationalFn: a RationalFn as it is, anything else
    through _poly."""
    return value if isinstance(value, RationalFn) else RationalFn(_poly(value, vars))


def cross_diff(a, b) -> Poly:
    """Reduced difference polynomial num(a)*den(b) - num(b)*den(a).

    Identically zero exactly when a = b as rational functions.  Nonzero
    differences are returned in primitive (content-free, sign-fixed) form.
    """
    vars = (b if isinstance(a, int) else a).vars
    a, b = _rational(a, vars), _rational(b, vars)
    return (a.num * b.den - b.num * a.den).primitive()


def _split_linear(argument: Poly) -> tuple[Poly, int]:
    """Split a linear form into (constant-free base, integer shift)."""
    if argument.total_degree() > 1:
        raise ValueError(f"factorial argument must be linear: {argument}")
    zero = (0,) * len(argument.vars)
    shift = argument.coeffs.get(zero, 0)
    base = Poly(argument.vars, {e: c for e, c in argument.coeffs.items() if e != zero})
    return base, shift


class FactorialProduct:
    """Product/quotient of factorials of linear forms times a rational part.

    Construction folds constant factorials into the rational part and
    reduces any +/- pair of factorials with the same linear base into the
    polynomial product of the shifts between them, e.g.
    (x + 3)!/(x + 1)! -> (x + 2)(x + 3).
    """

    __slots__ = ("vars", "factors", "poly_part")

    def __init__(self, factorials, poly_part=1):
        factorials = list(factorials)
        if not factorials:
            raise ValueError("a factorial product needs at least one factorial")
        self.vars = factorials[0][0].vars
        part = _rational(poly_part, self.vars)

        grouped: dict[tuple, tuple[Poly, list[int], list[int]]] = {}
        for argument, exp in factorials:
            if exp not in (1, -1):
                raise ValueError("factorial exponents must be +1 or -1")
            base, shift = _split_linear(argument)
            if base.is_zero():
                if shift < 0:
                    raise ValueError(f"factorial of negative constant {shift}")
                part = part * factorial(shift) if exp == 1 else part / factorial(shift)
                continue
            _, plus, minus = grouped.setdefault(base.key(), (base, [], []))
            (plus if exp == 1 else minus).append(shift)

        remaining: list[tuple[Poly, int, int]] = []
        for key in sorted(grouped):
            base, plus, minus = grouped[key]
            plus.sort(reverse=True)
            minus.sort(reverse=True)
            for c_num, c_den in zip(plus, minus):  # largest with largest
                part = part * _shift_ratio(base, c_num, c_den)
            remaining += [(base, c, 1) for c in plus[len(minus):]]
            remaining += [(base, c, -1) for c in minus[len(plus):]]
        self.factors = tuple(sorted(remaining, key=lambda f: (f[0].key(), f[1], f[2])))
        self.poly_part = part

    def ratio(self, other: "FactorialProduct") -> RationalFn:
        """Exact quotient self/other; all factorial content must cancel."""
        combined = [(base + shift, exp) for base, shift, exp in self.factors]
        combined += [(base + shift, -exp) for base, shift, exp in other.factors]
        if not combined:
            return self.poly_part / other.poly_part
        merged = FactorialProduct(combined, self.poly_part / other.poly_part)
        if merged.factors:
            leftover = ", ".join(
                f"({base + shift!r})!^{exp:+d}" for base, shift, exp in merged.factors
            )
            raise FactorialMismatch(f"unmatched factorial content: {leftover}")
        return merged.poly_part

    def evaluate(self, values: dict[str, int]) -> Fraction:
        result = self.poly_part.evaluate(values)
        for base, shift, exp in self.factors:
            arg = base.evaluate(values) + shift
            if arg < 0:
                raise ValueError(f"factorial of negative integer {arg} at {values}")
            result = result * factorial(arg) if exp == 1 else result / factorial(arg)
        return result


def _shift_ratio(base: Poly, c_num: int, c_den: int) -> RationalFn:
    """(base + c_num)! / (base + c_den)! as a rational function."""
    prod = Poly.constant(base.vars, 1)
    for i in range(min(c_num, c_den) + 1, max(c_num, c_den) + 1):
        prod = prod * (base + i)
    return RationalFn(prod) if c_num >= c_den else RationalFn(1, prod)
