"""Polynomials over GF(2), stored as integer bitmasks.

Bit i of the mask is the coefficient of x^i.  These polynomials are the
natural representation for BCH codewords and generator polynomials:
multiplication is a carry-less product and reduction is long division
with XOR.  The class is immutable and hashable so polynomials can be
used as dict keys (e.g. caching minimal polynomials).
"""

from __future__ import annotations


class Poly2:
    """An immutable polynomial over GF(2).

    Construct from an integer bitmask or from an iterable of coefficient
    indices::

        Poly2(0b1011)            # x^3 + x + 1
        Poly2.from_terms([3, 1, 0])
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int) -> None:
        if mask < 0:
            raise ValueError("polynomial mask must be non-negative")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly2 is immutable")

    @classmethod
    def from_terms(cls, exponents: list[int]) -> "Poly2":
        """Build a polynomial from a list of exponents with coefficient 1."""
        mask = 0
        for e in exponents:
            mask ^= 1 << e
        return cls(mask)

    @classmethod
    def zero(cls) -> "Poly2":
        return cls(0)

    @classmethod
    def one(cls) -> "Poly2":
        return cls(1)

    @classmethod
    def x(cls) -> "Poly2":
        return cls(2)

    # ------------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return self.mask.bit_length() - 1

    @property
    def weight(self) -> int:
        """Hamming weight (number of nonzero coefficients)."""
        return bin(self.mask).count("1")

    def coefficient(self, i: int) -> int:
        """Coefficient of x^i (0 or 1)."""
        return (self.mask >> i) & 1

    def terms(self) -> list[int]:
        """Exponents with nonzero coefficients, ascending."""
        return [i for i in range(self.mask.bit_length()) if (self.mask >> i) & 1]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2(self.mask ^ other.mask)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly2") -> "Poly2":
        """Carry-less multiplication."""
        a, b = self.mask, other.mask
        result = 0
        shift = 0
        while b:
            if b & 1:
                result ^= a << shift
            b >>= 1
            shift += 1
        return Poly2(result)

    def __lshift__(self, n: int) -> "Poly2":
        """Multiply by x^n."""
        return Poly2(self.mask << n)

    def divmod(self, divisor: "Poly2") -> tuple["Poly2", "Poly2"]:
        """Polynomial long division: returns (quotient, remainder)."""
        if divisor.mask == 0:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = self.mask
        quotient = 0
        dividend_degree = remainder.bit_length() - 1
        divisor_degree = divisor.degree
        for shift in range(dividend_degree - divisor_degree, -1, -1):
            if remainder & (1 << (shift + divisor_degree)):
                remainder ^= divisor.mask << shift
                quotient |= 1 << shift
        return Poly2(quotient), Poly2(remainder)

    def __mod__(self, divisor: "Poly2") -> "Poly2":
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor: "Poly2") -> "Poly2":
        return self.divmod(divisor)[0]

    def gcd(self, other: "Poly2") -> "Poly2":
        """Greatest common divisor by the Euclidean algorithm."""
        a, b = self, other
        while b.mask:
            a, b = b, a % b
        return a

    def eval_gf2(self, point: int) -> int:
        """Evaluate at a GF(2) point (0 or 1)."""
        if point == 0:
            return self.mask & 1
        return self.weight & 1

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly2) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(("Poly2", self.mask))

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self) -> str:
        if self.mask == 0:
            return "Poly2(0)"
        terms = []
        for e in reversed(self.terms()):
            if e == 0:
                terms.append("1")
            elif e == 1:
                terms.append("x")
            else:
                terms.append(f"x^{e}")
        return f"Poly2({' + '.join(terms)})"
