"""Dense polynomials with coefficients in GF(2^m).

Used by the BCH decoders for syndrome polynomials, error-locator
polynomials (Berlekamp--Massey) and their evaluation (Chien search /
Horner).  Coefficients are stored low-degree-first in a plain list of
ints (vector representation of :class:`repro.gf.field.GF2m` elements).
"""

from __future__ import annotations

from repro.gf.field import GF2m


class PolyGF:
    """A polynomial over GF(2^m), low-degree-first coefficient list."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF2m, coeffs: list[int] | None = None) -> None:
        self.field = field
        coeffs = list(coeffs or [])
        # normalize: strip trailing zeros
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not 0 <= c < field.order:
                raise ValueError(f"coefficient {c} outside GF(2^{field.m})")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field: GF2m) -> "PolyGF":
        return cls(field, [])

    @classmethod
    def one(cls, field: GF2m) -> "PolyGF":
        return cls(field, [1])

    @classmethod
    def monomial(cls, field: GF2m, degree: int, coeff: int = 1) -> "PolyGF":
        """coeff * x^degree."""
        return cls(field, [0] * degree + [coeff])

    # ------------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        """Coefficient of x^i (0 if beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self.coeffs

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _require_same_field(self, other: "PolyGF") -> None:
        if self.field != other.field:
            raise ValueError("polynomials belong to different fields")

    def __add__(self, other: "PolyGF") -> "PolyGF":
        self._require_same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = [self.coefficient(i) ^ other.coefficient(i) for i in range(n)]
        return PolyGF(self.field, out)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "PolyGF") -> "PolyGF":
        self._require_same_field(other)
        if self.is_zero() or other.is_zero():
            return PolyGF.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        mul = self.field.mul
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= mul(a, b)
        return PolyGF(self.field, out)

    def scale(self, scalar: int) -> "PolyGF":
        """Multiply every coefficient by a field scalar."""
        mul = self.field.mul
        return PolyGF(self.field, [mul(c, scalar) for c in self.coeffs])

    def shift(self, n: int) -> "PolyGF":
        """Multiply by x^n."""
        if self.is_zero():
            return PolyGF.zero(self.field)
        return PolyGF(self.field, [0] * n + self.coeffs)

    def eval(self, point: int) -> int:
        """Evaluate at a field point using Horner's rule."""
        mul = self.field.mul
        acc = 0
        for c in reversed(self.coeffs):
            acc = mul(acc, point) ^ c
        return acc

    def eval_powers(self, base: int, count: int, start: int = 0) -> list[int]:
        """Evaluate at alpha^start, alpha^(start+1), ..., for ``count`` points.

        ``base`` must be a primitive element power index source, i.e. the
        evaluation points are ``field.alpha_pow(start + i)``.  Returns the
        list of evaluations (used by naive Chien-search checks in tests).
        """
        field = self.field
        return [
            self.eval(field.alpha_pow(start + i))
            for i in range(count)
        ]

    def derivative(self) -> "PolyGF":
        """Formal derivative: in characteristic 2, even-degree terms vanish."""
        out = [0] * max(len(self.coeffs) - 1, 0)
        for i in range(1, len(self.coeffs)):
            if i % 2 == 1:  # i * c = c when i odd, 0 when i even (char 2)
                out[i - 1] = self.coeffs[i]
        return PolyGF(self.field, out)

    def roots(self) -> list[int]:
        """All roots in the field, by exhaustive evaluation (test helper)."""
        return [p for p in range(self.field.order) if self.eval(p) == 0]

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyGF)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(self.coeffs)))

    def __repr__(self) -> str:
        return f"PolyGF(GF(2^{self.field.m}), {self.coeffs})"
