"""Exact rational arithmetic of the shape invariant and its index bounds."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvalidInput, LambdaTooSmall, PrimeTooSmall, ZeroArea
from .group_core import DEFAULT_ORDER_CAP, min_abelian_index, prime_power_base
from .heisenberg import hat_gamma_n


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

    def __str__(self) -> str:
        return f"({self.alpha},{self.beta})"


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
    exponent-p presentation.
    """
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
    """Even degrees d with |d| strictly below |2 alpha / beta|, ascending."""
    lam = lambda_of(s)
    top = lam if lam % 2 == 0 else 0
    return list(range(-top, top + 1, 2))


@dataclass
class SharpnessReport:
    n: int
    claimed_lower_bound: int
    computed_min_index: int
    group_order: int
    theta_kernel_order: int
    passed: bool


def sharpness_witness(
    s: SymplecticShape,
    budget_s: Optional[float] = None,
    cap: int = DEFAULT_ORDER_CAP,
) -> SharpnessReport:
    """Build the extended group at n = lambda and check its index floor.

    Requires lambda >= 8 (then lambda is even); reports the computed group
    order and projection-kernel order alongside the claimed bound 6n.
    """
    lam = lambda_of(s)
    if lam < 8:
        raise LambdaTooSmall(f"need lambda >= 8, got {lam}")
    hat = hat_gamma_n(lam, cap=cap)
    result = min_abelian_index(hat.table, budget_s=budget_s)
    claimed = 6 * lam
    return SharpnessReport(
        n=lam,
        claimed_lower_bound=claimed,
        computed_min_index=result.index,
        group_order=hat.order,
        theta_kernel_order=hat.theta_kernel_order,
        passed=result.index >= claimed,
    )


@dataclass
class IntervalGroup:
    lam: int
    shapes: list[str] = field(default_factory=list)


@dataclass
class Separation:
    """A licensed conclusion that two invariant values differ in their groups."""

    lower_lam: int
    higher_lam: int
    witness_index_floor: int   # every abelian subgroup of the witness has index >= this
    excluded_by_bound: int     # the uniform bound at the lower value


@dataclass
class PartitionReport:
    groups: list[IntervalGroup]
    separations: list[Separation]


def interval_partition(shapes: Sequence[SymplecticShape]) -> PartitionReport:
    """Group shapes by their invariant and list provable separations.

    Two groups are separated when the higher invariant admits an extended
    Heisenberg witness whose index floor exceeds the uniform bound at the
    lower invariant; nothing stronger than that comparison is claimed.
    """
    by_lam: dict[int, IntervalGroup] = {}
    for s in shapes:
        lam = lambda_of(s)
        by_lam.setdefault(lam, IntervalGroup(lam)).shapes.append(str(s))
    groups = [by_lam[k] for k in sorted(by_lam)]
    seps: list[Separation] = []
    lams = sorted(by_lam)
    for i, lo in enumerate(lams):
        for hi in lams[i + 1 :]:
            if hi >= 8 and 6 * hi > max(144, 6 * lo):
                seps.append(Separation(lo, hi, 6 * hi, max(144, 6 * lo)))
    return PartitionReport(groups, seps)
