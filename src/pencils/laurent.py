"""Integer-coefficient Laurent polynomials in one variable.

Sparse exponent-map representation: exponents may be negative, zero
coefficients are never stored.
"""

from __future__ import annotations

from .errors import DomainError

__all__ = ["LaurentPolynomial", "p_poly", "constant_term", "pairing"]


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial, terms: exponent -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        clean = {e: c for e, c in (terms or {}).items() if c != 0}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPolynomial is immutable")

    def coefficient(self, e: int) -> int:
        return self.terms.get(e, 0)

    def support(self) -> list[int]:
        return sorted(self.terms)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                bits.append(f"{c}")
            else:
                bits.append(f"{c}*q^{e}")
        return " + ".join(bits)


def p_poly(r: int) -> LaurentPolynomial:
    """Antisymmetric building block with coefficient e at each exponent e.

    Support is {-r, -r+2, ..., r}; for r = 0 the polynomial is 0 (the
    exponent-0 coefficient vanishes), which makes downstream products
    return 0 automatically whenever an order-1 index appears.
    """
    if r < 0:
        raise DomainError(f"p_poly: index must be >= 0, got {r}")
    return LaurentPolynomial({e: e for e in range(-r, r + 1, 2)})


def constant_term(p: LaurentPolynomial) -> int:
    """Coefficient of the zeroth power (0 if absent)."""
    return p.coefficient(0)


def pairing(p1: LaurentPolynomial, p2: LaurentPolynomial) -> int:
    """Constant term of p1 * p2 without the product: one lookup per term of p1."""
    other = p2.terms
    return sum(c * other.get(-e, 0) for e, c in p1.terms.items())
