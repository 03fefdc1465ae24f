"""Exact rational arithmetic of the shape invariant and its index bounds."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CapExceeded, InvalidInput, PrimeTooSmall, ZeroArea
from .group_core import prime_power_base

MAX_DEGREE_WINDOW = 1 << 20  # most degrees the fixed-surface window may list
MAX_PRIME = 1 << 40  # the primality test trial-divides up to sqrt(p): about 2^20 steps here


@dataclass(frozen=True)
class SymplecticShape:
    """Pair of exact areas (alpha, beta); both must be nonzero."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        a, b = Fraction(self.alpha), Fraction(self.beta)
        if a == 0 or b == 0:
            raise ZeroArea("both areas must be nonzero")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def parse_rational(text: str) -> Fraction:
    """Accept "p/q" or a plain integer string."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"not a rational number: {text!r}") from None


def shape(alpha, beta) -> SymplecticShape:
    return SymplecticShape(Fraction(alpha), Fraction(beta))


def lambda_of(s: SymplecticShape) -> int:
    """Largest even integer strictly below |2 alpha / beta|, with fallback 1.

    Exact rational comparison; the boundary where the ratio is itself an
    even integer falls strictly outside, so e.g. alpha=4, beta=1 gives 6.
    """
    t = abs(2 * s.alpha / s.beta)
    below = (t.numerator - 1) // t.denominator  # largest integer < t
    even = below if below % 2 == 0 else below - 1
    return even if even >= 2 else 1


def jordan_bound(s: SymplecticShape) -> int:
    """Uniform abelian-index bound for the shape: max(144, 6 * lambda)."""
    return max(144, 6 * lambda_of(s))


@dataclass(frozen=True)
class PAdmissibility:
    p: int
    lam: int
    admissible: bool
    witness_group: Optional[str] = None
    witness_presentation: Optional[str] = None


def nonabelian_p_admissible(s: SymplecticShape, p: int) -> PAdmissibility:
    """Whether a nonabelian p-group can occur for this shape (p > 3 prime).

    Admissible exactly when 2p <= lambda; the witness is the mod-2p
    Heisenberg group, whose Sylow-p subgroup has the extraspecial
    exponent-p presentation.  CapExceeded for p >= ``MAX_PRIME``.
    """
    if p >= MAX_PRIME:
        raise CapExceeded(f"primes are tested below {MAX_PRIME}, not {p}")
    if p < 2 or prime_power_base(p) != p:
        raise InvalidInput(f"{p} is not prime")
    if p <= 3:
        raise PrimeTooSmall("the criterion concerns primes above 3")
    lam = lambda_of(s)
    ok = 2 * p <= lam
    if not ok:
        return PAdmissibility(p, lam, False)
    pres = (
        f"<X,Y,Z | X^{p}=Y^{p}=Z^{p}=[X,Z]=[Y,Z]=1, [X,Y]=Z>"
    )
    return PAdmissibility(p, lam, True, f"Gamma_{2 * p}", pres)


def admissible_fixed_surface_degrees(s: SymplecticShape) -> list[int]:
    """Even degrees d with |d| strictly below |2 alpha / beta|, ascending;
    CapExceeded, before the list is built, when they number more than
    ``MAX_DEGREE_WINDOW``."""
    lam = lambda_of(s)
    top = lam if lam % 2 == 0 else 0
    if top + 1 > MAX_DEGREE_WINDOW:
        raise CapExceeded(f"the degree window holds {top + 1} degrees, "
                          f"above the {MAX_DEGREE_WINDOW} listed at most")
    return list(range(-top, top + 1, 2))
