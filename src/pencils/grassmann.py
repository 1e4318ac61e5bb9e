"""Two-row Schubert calculus on the Grassmannian Gr(2, N) of pencils.

Classes are integer combinations of basis classes s(a, b) indexed by
partitions N-2 >= a >= b >= 0.  Multiplication reduces to the Pieri rule
through the specialization s(c, e) = s(1,1)^e * s(c-e, 0); two-row
structure constants are all 0 or 1, so nothing more general is needed.
Partitions leaving the (N-2) x 2 box are dropped as zero (the quotient
ring convention), which several closed forms below rely on.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .exactmath import syt_count

__all__ = [
    "SchubertClass",
    "sigma",
    "unit",
    "zero",
    "pieri_mul",
    "mul",
    "pairing",
    "integrate",
    "sigma1_power",
    "fourfold_integral",
    "magic_integral",
]

Partition = tuple[int, int]


class SchubertClass:
    """Immutable integer combination of basis classes on a fixed Gr(2, N).

    ``terms`` maps (a, b) with a >= b >= 0 to a nonzero coefficient; an
    absent key means coefficient 0.  Terms with a > N - 2 vanish on
    Gr(2, N) and are dropped at construction.
    """

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: int, terms: dict[Partition, int] | None = None):
        if ambient < 2:
            raise DomainError(f"Gr(2, N) requires N >= 2, got N={ambient}")
        clean: dict[Partition, int] = {}
        for (a, b), c in (terms or {}).items():
            if not a >= b >= 0:
                raise DomainError(f"({a}, {b}) is not a two-row partition")
            if c != 0 and a <= ambient - 2:
                clean[(a, b)] = c
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, ambient: int, terms: dict[Partition, int]) -> "SchubertClass":
        """An arithmetic result: its keys are in the box already, so only
        zero coefficients are dropped.  Keeps ``terms``, which every
        caller builds fresh."""
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        out = object.__new__(cls)
        object.__setattr__(out, "ambient", ambient)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SchubertClass is immutable")

    def coefficient(self, a: int, b: int) -> int:
        return self.terms.get((a, b), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_ambient(self, other: "SchubertClass") -> None:
        if self.ambient != other.ambient:
            raise DomainError(
                f"ambient mismatch: Gr(2,{self.ambient}) vs Gr(2,{other.ambient})"
            )

    def __add__(self, other: "SchubertClass") -> "SchubertClass":
        self._check_ambient(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return SchubertClass._of(self.ambient, out)

    def __neg__(self) -> "SchubertClass":
        return SchubertClass._of(self.ambient, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "SchubertClass") -> "SchubertClass":
        return self + (-other)

    def __mul__(self, other: "SchubertClass | int") -> "SchubertClass":
        if isinstance(other, int):
            return SchubertClass._of(
                self.ambient, {k: c * other for k, c in self.terms.items()}
            )
        return mul(self, other)

    def __rmul__(self, other: int) -> "SchubertClass":
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchubertClass):
            return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"0 on Gr(2,{self.ambient})"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            lead = "" if c == 1 else f"{c}*"
            bits.append(f"{lead}s({a},{b})")
        return " + ".join(bits) + f" on Gr(2,{self.ambient})"


def zero(ambient: int) -> SchubertClass:
    return SchubertClass(ambient)


def unit(ambient: int) -> SchubertClass:
    return SchubertClass(ambient, {(0, 0): 1})


def sigma(a: int, b: int, ambient: int) -> SchubertClass:
    """Basis class s(a, b), or the zero class when it leaves the box; the
    constructor refuses a pair that is not a two-row partition."""
    return SchubertClass(ambient, {(a, b): 1})


def _pieri_into(
    out: dict[Partition, int], top: int, a: int, b: int, coeff: int, k: int
) -> None:
    """Add coeff * s(a,b) * s(k,0) into ``out``, dropping rows above ``top``.

    Pieri rule: the sum of s(a', b') over a' + b' = a + b + k with
    a' >= a >= b' >= b.  The bounds on b' give a' >= b' >= 0 and
    a' <= top, so every key added is a partition in the box.
    """
    for bp in range(max(b, a + b + k - top), min(a, b + k) + 1):
        key = (a + b + k - bp, bp)
        out[key] = out.get(key, 0) + coeff


def pieri_mul(c: SchubertClass, k: int) -> SchubertClass:
    """Multiply by the special class s(k, 0), truncated to the box."""
    if k < 0:
        raise DomainError(f"pieri_mul: special class index must be >= 0, got {k}")
    out: dict[Partition, int] = {}
    top = c.ambient - 2
    for (a, b), coeff in c.terms.items():
        _pieri_into(out, top, a, b, coeff, k)
    return SchubertClass._of(c.ambient, out)


def mul(c1: SchubertClass, c2: SchubertClass) -> SchubertClass:
    """Product in the Chow ring, via s(c, e) = s(1,1)^e * s(c-e, 0).

    Every term accumulates into one dict, so a product builds one class.
    """
    c1._check_ambient(c2)
    out: dict[Partition, int] = {}
    top = c1.ambient - 2
    for (c, e), q in c2.terms.items():
        # multiplying by s(1,1)^e shifts both rows up by e
        for (a, b), coeff in c1.terms.items():
            if a + e <= top:
                _pieri_into(out, top, a + e, b + e, coeff * q, c - e)
    return SchubertClass._of(c1.ambient, out)


def pairing(c1: SchubertClass, c2: SchubertClass) -> int:
    """The integral of c1 * c2, read off by duality without the product.

    s(a, b) pairs to 1 with s(N-2-b, N-2-a) and to 0 with every other
    basis class, so the cost is one lookup per term of c1.
    """
    c1._check_ambient(c2)
    top = c1.ambient - 2
    other = c2.terms
    return sum(q * other.get((top - b, top - a), 0) for (a, b), q in c1.terms.items())


def integrate(c: SchubertClass) -> int:
    """Coefficient of the point class s(N-2, N-2)."""
    top = c.ambient - 2
    return c.coefficient(top, top)


@lru_cache(maxsize=128)
def sigma1_power(k: int, ambient: int) -> SchubertClass:
    """k-th power of s(1, 0): syt(k-b, b) at each s(k-b, b) in the box, as each
    Pieri step adds one box and every path to a shape in the box stays in it.

    Keyed by the exponent and the ambient; callers only read the class.
    The verify property that checks this closed form against Pieri steps
    reads each key once, more keys than the bound holds; the bound keeps
    those the consolidation sweep reads again and again.  An entry is at
    most ~240 KB on Gr(2, 1501), at genus 0's degree bound (tracemalloc, k
    near 1501), so 128 entries hold at most ~30 MB.  Op-count groups:
    ``gate-sigma1-powers``, ``consolidation-sigma1-powers``, ``level-13-held``.
    """
    if k < 0:
        raise DomainError(f"sigma1_power: exponent must be >= 0, got {k}")
    return SchubertClass(ambient, {
        (k - b, b): syt_count(k - b, b) for b in range(max(0, k - ambient + 2), k // 2 + 1)
    })


def _sorted_checked(
    n1: int, n2: int, n3: int, n4: int, expected_sum: int, what: str
) -> tuple[int, int, int, int]:
    ns = sorted((n1, n2, n3, n4), reverse=True)
    if ns[3] < 0:
        raise DomainError(f"{what}: indices must be nonnegative, got {ns}")
    if sum(ns) != expected_sum:
        raise DomainError(
            f"{what}: off-shell, indices must sum to {expected_sum}, got {sum(ns)}"
        )
    return ns[0], ns[1], ns[2], ns[3]


def fourfold_integral(n1: int, n2: int, n3: int, n4: int, ambient: int) -> int:
    """Integral of four special classes on Gr(2, N), N = ambient.

    Closed form min(N - n1 - 1, n4 + 1) after sorting descending, clamped
    at 0 (negative values occur exactly when the top class vanishes).
    Indices must sum to 2N - 4, the dimension of Gr(2, N).
    """
    n1, n2, n3, n4 = _sorted_checked(
        n1, n2, n3, n4, 2 * ambient - 4, "fourfold_integral"
    )
    return max(0, min(ambient - n1 - 1, n4 + 1))


def magic_integral(n1: int, n2: int, n3: int, n4: int, ambient: int) -> int:
    """Integral of four special classes against 8*s(1,1) - 2*s(1,0)^2.

    Ambient is Gr(2, d+1) with d = ambient - 1; the four indices must sum
    to 2d - 4.  The value depends only on the coincidence pattern of the
    sorted indices.
    """
    d = ambient - 1
    n1, n2, n3, n4 = _sorted_checked(n1, n2, n3, n4, 2 * d - 4, "magic_integral")
    if n1 == n2 == n3 == n4:
        return 6
    if n1 == n2 and n3 == n4:
        return 4
    if n1 + n4 == n2 + n3 and n1 != n2:
        return 2
    if n1 == n2 + n3 + n4 + 2:
        return -2
    return 0
