"""Exact domain types and fairness metrics for online allocation of indivisible goods.

All values are arbitrary-precision rationals (``fractions.Fraction``) at the
API; there is no floating point anywhere in the metric or allocation paths.
Each value vector also carries its values as integer weights over one common
denominator (the lcm of the value denominators), and the metrics here and the
offline and online setup paths compute on those Python ints, building a
``Fraction`` only for a result.  Irrational thresholds (the golden-ratio and
sqrt(3) cut-offs) are decided through squared integer comparisons, never
approximated.

Every type here is immutable after construction, so instances are safe to
share between threads; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[Fraction, int, str]


class NormalizationError(ValueError):
    """A value vector that must sum to one does not."""


class PartitionError(ValueError):
    """Bundles that must partition the goods do not."""


def rat(x: RationalLike) -> Fraction:
    """Coerce an int, a ``"p/q"`` string, or a Fraction to an exact rational.

    Floats are rejected on purpose: they would silently break exactness.
    A plain ASCII ``p/q`` or ``-p/q`` (the wire format) is split and built from
    two ints; every other string goes through ``Fraction(str)``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if (slash and digits.isascii() and digits.isdigit()
                and den.isascii() and den.isdigit()):
            return Fraction(int(num), int(den))
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as ``"numerator/denominator"`` (wire format)."""
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: Fraction, places: int = 3) -> str:
    """Render a nonnegative rational as a fixed-point decimal, rounding half up."""
    if x < 0:
        raise ValueError("decimal_str expects a nonnegative rational")
    scale = 10 ** places
    q, r = divmod(x.numerator * scale, x.denominator)
    if 2 * r >= x.denominator:
        q += 1
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


# ---------------------------------------------------------------------------
# Exact comparisons against irrational thresholds
# ---------------------------------------------------------------------------

def cmp_golden(x: Fraction) -> int:
    """Exact order of ``x`` relative to (sqrt(5)-1)/2, as -1/0/+1.

    Uses sign((2x+1)^2 - 5), valid for x > -1/2; equality never occurs for
    rational x.  Note (2x+1)^2 - 5 = 4(x^2 + x - 1), so ``cmp_golden(a) > 0``
    is exactly the test a^2 + a - 1 > 0.
    """
    t = (2 * x + 1) ** 2 - 5
    return (t > 0) - (t < 0)


def cmp_sqrt3(x: Fraction) -> int:
    """Exact order of ``x`` relative to sqrt(3)-1, via sign((x+1)^2 - 3)."""
    t = (x + 1) ** 2 - 3
    return (t > 0) - (t < 0)


def bracket_threshold(cmp, lo: Fraction = ZERO, hi: Fraction = ONE,
                      width: Fraction = Fraction(1, 2 ** 64)) -> tuple[Fraction, Fraction]:
    """Rational bracket (lo, hi) around an irrational threshold.

    ``cmp`` is an exact comparator returning <0 below the threshold and >0
    above it (never 0 for rational input).  Plain bisection; 64 halvings of
    the unit interval reach width 2^-64.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not (cmp(lo) < 0 < cmp(hi)):
        raise ValueError("initial bracket does not straddle the threshold")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if cmp(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Value vectors, profiles, instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValuationVector:
    """An additive valuation over goods 0..T-1.

    ``normalized`` vectors must sum exactly to one; there is no tolerance knob.
    Construction also sets two plain attributes, outside the dataclass fields:
    ``den``, the lcm of the value denominators, and ``weights``, one int per
    good with ``values[g] == Fraction(weights[g], den)``.
    """

    values: tuple[Fraction, ...]
    normalized: bool = True

    def __post_init__(self) -> None:
        vals = tuple(rat(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("a valuation vector needs at least one good")
        den = lcm(*{v.denominator for v in vals})
        weights = tuple(v.numerator * (den // v.denominator) for v in vals)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "weights", weights)
        if min(weights) < 0:
            raise ValueError("good values must be nonnegative")
        if self.normalized and sum(weights) != den:
            raise NormalizationError(
                f"values sum to {Fraction(sum(weights), den)}, expected 1")

    @property
    def horizon(self) -> int:
        return len(self.values)

    def weight(self, bundle: Iterable[int]) -> int:
        """The bundle's value times ``den``, an int."""
        w = self.weights
        return sum([w[g] for g in bundle])

    def value(self, bundle: Iterable[int]) -> Fraction:
        return Fraction(self.weight(bundle), self.den)

    def __getitem__(self, g: int) -> Fraction:
        return self.values[g]


@dataclass(frozen=True)
class ValuationProfile:
    """One valuation vector per agent, all with the same horizon."""

    vectors: tuple[ValuationVector, ...]
    identical: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", tuple(self.vectors))
        if len(self.vectors) < 1:
            raise ValueError("profile needs at least one agent")
        horizons = {v.horizon for v in self.vectors}
        if len(horizons) != 1:
            raise ValueError(f"vectors disagree on horizon: {sorted(horizons)}")
        if any(not v.normalized for v in self.vectors):
            raise NormalizationError("profile vectors must be normalized")
        if self.identical and any(v.values != self.vectors[0].values for v in self.vectors):
            raise ValueError("profile flagged identical but vectors differ")

    @classmethod
    def identical_from(cls, vector: ValuationVector, n: int) -> "ValuationProfile":
        return cls(vectors=(vector,) * n, identical=True)

    @property
    def agents(self) -> int:
        return len(self.vectors)

    @property
    def horizon(self) -> int:
        return self.vectors[0].horizon

    def vector(self, agent: int) -> ValuationVector:
        return self.vectors[agent]


@dataclass(frozen=True)
class Allocation:
    """A partition of goods 0..num_goods-1 into per-agent bundles."""

    bundles: tuple[frozenset[int], ...]
    num_goods: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bundles", tuple(frozenset(b) for b in self.bundles))
        seen: set[int] = set()
        total = 0
        for b in self.bundles:
            if seen & b:
                raise PartitionError(f"goods {sorted(seen & b)} appear in two bundles")
            seen |= b
            total += len(b)
        if seen != set(range(self.num_goods)) or total != self.num_goods:
            raise PartitionError("bundles do not partition the good ids")

    @classmethod
    def of(cls, bundles: Sequence[Iterable[int]], num_goods: Optional[int] = None) -> "Allocation":
        bs = tuple(frozenset(b) for b in bundles)
        if num_goods is None:
            num_goods = sum(len(b) for b in bs)
        return cls(bundles=bs, num_goods=num_goods)

    @property
    def agents(self) -> int:
        return len(self.bundles)

    def as_lists(self) -> list[list[int]]:
        return [sorted(b) for b in self.bundles]


@dataclass(frozen=True)
class Instance:
    """Predictions plus realized truths, with a declared per-agent accuracy.

    The declared accuracy must be a valid lower bound on the realized accuracy
    1 - TV(p_i, v_i); this is validated post hoc on construction.
    """

    predictions: ValuationProfile
    truths: ValuationProfile
    declared_accuracy: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "declared_accuracy",
                           tuple(rat(a) for a in self.declared_accuracy))
        n = self.predictions.agents
        if self.truths.agents != n:
            raise ValueError("predictions and truths disagree on the agent count")
        if len(self.declared_accuracy) != n:
            raise ValueError("need one declared accuracy per agent")
        for i, acc in enumerate(self.declared_accuracy):
            if not (0 <= acc <= 1):
                raise ValueError(f"accuracy of agent {i} outside [0, 1]")
            realized = 1 - tv_distance(self.predictions.vector(i), self.truths.vector(i))
            if realized < acc:
                raise ValueError(
                    f"agent {i}: declared accuracy {acc} exceeds realized {realized}")

    @property
    def agents(self) -> int:
        return self.predictions.agents

    def to_json_dict(self) -> dict:
        return {
            "n": self.agents,
            "identical": self.truths.identical,
            "predictions": [[rat_str(v) for v in vec.values] for vec in self.predictions.vectors],
            "truths": [[rat_str(v) for v in vec.values] for vec in self.truths.vectors],
            "accuracy": [rat_str(a) for a in self.declared_accuracy],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Instance":
        n = int(d["n"])
        identical = bool(d.get("identical", False))

        def profile(rows) -> ValuationProfile:
            vecs = tuple(ValuationVector(tuple(rat(x) for x in row)) for row in rows)
            if len(vecs) != n:
                raise ValueError(f"expected {n} agent rows, got {len(vecs)}")
            return ValuationProfile(vecs, identical=identical)

        return cls(
            predictions=profile(d["predictions"]),
            truths=profile(d["truths"]),
            declared_accuracy=tuple(rat(a) for a in d["accuracy"]),
        )


# ---------------------------------------------------------------------------
# Bundle surgery and distance
# ---------------------------------------------------------------------------

def xset(bundle: Iterable[int], f: ValuationVector) -> frozenset[int]:
    """The bundle minus one minimum-valued good (ties: lowest good id).

    Removing a minimum good leaves the most valuable remainder, which is the
    set an envious agent compares against under envy-freeness up to any good.
    Empty in, empty out.
    """
    b = frozenset(bundle)
    if not b:
        return b
    w = f.weights
    g = min(b, key=lambda i: (w[i], i))
    return b - {g}


def oset(bundle: Iterable[int], f: ValuationVector) -> frozenset[int]:
    """The bundle minus one maximum-valued good (ties: lowest good id)."""
    b = frozenset(bundle)
    if not b:
        return b
    w = f.weights
    g = min(b, key=lambda i: (-w[i], i))
    return b - {g}


def tv_distance(p: ValuationVector, v: ValuationVector) -> Fraction:
    """Total variation distance between two normalized vectors.

    Half the l1 distance, with the shorter vector zero-padded so both cover
    max(T, T') dummy-extended time-steps.  Appending zero-valued goods to
    either side leaves the result unchanged.  Both weight vectors are scaled
    to the lcm of the two denominators and summed as ints.
    """
    if not (p.normalized and v.normalized):
        raise NormalizationError("tv_distance requires normalized vectors")
    den = lcm(p.den, v.den)
    sp, sv = den // p.den, den // v.den
    wp, wv = p.weights, v.weights
    common = min(len(wp), len(wv))
    total = sum([abs(a * sp - b * sv) for a, b in zip(wp, wv)])
    total += sum(wp[common:]) * sp + sum(wv[common:]) * sv  # zero-padded tail
    return Fraction(total, 2 * den)


# ---------------------------------------------------------------------------
# Fairness metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FairnessReport:
    """Multiplicative envy factors of an allocation.

    ``efx_factor`` is the largest a for which nobody a-envies anyone else up
    to *any* good; ``ef1_factor`` the analogue up to *one* good.  Vacuous
    comparisons (empty or singleton opposing bundle) contribute 1, and all
    entries are clamped into [0, 1].
    """

    efx_factor: Fraction
    ef1_factor: Fraction
    per_pair_efx: tuple[tuple[Fraction, ...], ...]
    binding_pair: Optional[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.efx_factor > self.ef1_factor:
            raise ValueError("removing the max good cannot be harder than the min")


def _check_alloc(alloc: Allocation, profile: ValuationProfile) -> None:
    if alloc.agents != profile.agents:
        raise ValueError("allocation and profile disagree on the agent count")
    if alloc.num_goods > profile.horizon:
        raise PartitionError("allocation mentions goods beyond the profile horizon")


def fairness_report(alloc: Allocation, profile: ValuationProfile) -> FairnessReport:
    """Compute both envy factors; prefix allocations (fewer goods) are allowed.

    Each bundle is reduced to its (sum, min, max) weight under each agent's
    vector.  Removing a minimum (maximum) good leaves ``sum - min``
    (``sum - max``), and the common denominator cancels in ``own / (sum - min)``,
    so a ratio is built as a Fraction only when it is below 1.
    """
    _check_alloc(alloc, profile)
    n = profile.agents
    per_pair = [[ONE] * n for _ in range(n)]
    efx = ONE
    ef1 = ONE
    binding: Optional[tuple[int, int]] = None
    for i in range(n):
        w = profile.vector(i).weights
        stats = []
        for b in alloc.bundles:
            ws = [w[g] for g in b]
            stats.append((sum(ws), min(ws), max(ws)) if ws else (0, 0, 0))
        own = stats[i][0]
        for j in range(n):
            if j == i:
                continue
            s, lo, hi = stats[j]
            den_x = s - lo
            r_x = ONE if own >= den_x else Fraction(own, den_x)
            per_pair[i][j] = r_x
            if r_x < efx:
                efx = r_x
                binding = (i, j)
            den_o = s - hi
            if own < den_o:
                r_o = Fraction(own, den_o)
                if r_o < ef1:
                    ef1 = r_o
    return FairnessReport(
        efx_factor=efx,
        ef1_factor=ef1,
        per_pair_efx=tuple(tuple(row) for row in per_pair),
        binding_pair=binding if efx < 1 else None,
    )


def efx_factor(alloc: Allocation, profile: ValuationProfile) -> Fraction:
    return fairness_report(alloc, profile).efx_factor


def ef1_factor(alloc: Allocation, profile: ValuationProfile) -> Fraction:
    return fairness_report(alloc, profile).ef1_factor
