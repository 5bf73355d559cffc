"""Exact domain types and fairness metrics for online allocation of indivisible goods.

All values are arbitrary-precision rationals (``fractions.Fraction``) at the
API; there is no floating point anywhere in the metric or allocation paths.
A value vector is integer weights over one common denominator (the lcm of the
value denominators), its ``Fraction`` values built only when read, and the
metrics here, the offline paths and the online allocators' setup compute on
those Python ints, building a ``Fraction`` only for a result.  One scorer,
``envy_factor``, serves the fairness report and both oracles: it keeps its
minimum as an int pair, compared by cross-multiplication, and a report holds
just the two factors.  The instance loader parses each
distinct value string once, straight to an int pair, and the writer encodes
each distinct weight once.  The online allocators step on ints too, over a
denominator of their own, fixed before the first good: a run takes the lcm
of the true vectors' denominators, and a duel the construction's ``den``,
which the construction fixes when it is built (see ``online``).  The two
irrational thresholds, phi-1 and sqrt(3)-1, are never approximated: an order
test against either is a squared integer comparison (for phi-1 after linear
tests against its 2^-65 bracket), and each threshold's bracket at 2^-k is one
integer square root.

Every type here is immutable after construction, so instances are safe to
share between threads; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[Fraction, int, str]


class NormalizationError(ValueError):
    """A value vector does not sum to one."""


class PartitionError(ValueError):
    """Bundles that must partition the goods do not."""


def rat(x: RationalLike) -> Fraction:
    """Coerce an int, a ``"p/q"`` string, or a Fraction to an exact rational.

    Floats are rejected on purpose: they would silently break exactness.
    A string is read by ``ratio``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(*ratio(x))
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def ratio(s: str) -> tuple[int, int]:
    """A rational string as a reduced int pair ``(p, q)``, ``q > 0``: a plain ASCII
    ``p/q`` or ``-p/q`` (the wire format) through two ints and their gcd, any
    other string, a zero denominator included, through ``Fraction(str)``."""
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if (slash and digits.isascii() and digits.isdigit() and den.isascii()
            and den.isdigit() and (q := int(den))):
        p = int(num)
        g = gcd(p, q)
        return p // g, q // g
    return Fraction(s).as_integer_ratio()


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
# Irrational thresholds: integer brackets and exact comparisons
# ---------------------------------------------------------------------------

def golden_floor(k: int) -> int:
    """floor(2^k (phi-1)): (lo, lo+1) / 2^k brackets phi-1 = (sqrt(5)-1)/2."""
    return (isqrt(5 << 2 * k) - (1 << k)) >> 1


def sqrt3_floor(k: int) -> int:
    """floor(2^k (sqrt(3)-1)): (lo, lo+1) / 2^k brackets sqrt(3)-1."""
    return isqrt(3 << 2 * k) - (1 << k)


_GOLDEN_LO = golden_floor(65)
_GOLDEN_HI = _GOLDEN_LO + 1


def cmp_golden_int(num: int, den: int) -> int:
    """Exact order of ``num/den`` relative to (sqrt(5)-1)/2, as -1/0/+1.

    The sign of (2 num + den)^2 - 5 den^2, valid for den > 0 and
    num/den > -1/2; equality never occurs for ints.  A value outside the
    bracket (_GOLDEN_LO, _GOLDEN_HI) / 2^65 is decided by one linear test, so
    a denominator of thousands of bits is squared only inside it.
    """
    x = num << 65
    if x >= _GOLDEN_HI * den:
        return 1
    if 0 <= x <= _GOLDEN_LO * den:
        return -1
    t = (2 * num + den) ** 2 - 5 * den * den
    return (t > 0) - (t < 0)


def cmp_golden(x: Fraction) -> int:
    """Exact order of ``x`` relative to (sqrt(5)-1)/2, as -1/0/+1.

    The sign of (2x+1)^2 - 5, through ``cmp_golden_int``.  Note
    (2x+1)^2 - 5 = 4(x^2 + x - 1), so ``cmp_golden(a) > 0`` is exactly the
    test a^2 + a - 1 > 0.
    """
    return cmp_golden_int(x.numerator, x.denominator)


def cmp_sqrt3(x: Fraction) -> int:
    """Exact order of ``x`` relative to sqrt(3)-1 for x > -1: the sign of (x+1)^2 - 3."""
    t = (x + 1) ** 2 - 3
    return (t > 0) - (t < 0)


# ---------------------------------------------------------------------------
# Value vectors, profiles, instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, repr=False)
class ValuationVector:
    """An additive valuation over goods 0..T-1 that sums exactly to one.

    There is no tolerance knob.  A vector is its int ``weights``, one per good,
    over ``den``, the lcm of the reduced value denominators, so
    ``values[g] == Fraction(weights[g], den)``; equality and hashing read
    ``(den, weights)``, which is canonical.  ``ValuationVector(values)`` builds
    it from rationals and ``from_weights`` from the pair; the ``values`` tuple
    of Fractions is built on first read, so a vector that is only stepped,
    measured and written never holds one.
    """

    den: int
    weights: tuple[int, ...]

    def __init__(self, values: Iterable[RationalLike]) -> None:
        vals = self.__dict__["values"] = tuple(map(rat, values))
        den = lcm(*{v.denominator for v in vals})
        self.__post_init__(den, tuple([v.numerator * (den // v.denominator) for v in vals]))

    @classmethod
    def from_weights(cls, den: int, weights: tuple[int, ...]) -> "ValuationVector":
        """The vector ``weights / den``, the pair reduced by ``gcd(den, *weights)``."""
        self = cls.__new__(cls)
        g = gcd(den, *weights)
        if g > 1:
            den, weights = den // g, tuple([w // g for w in weights])
        self.__post_init__(den, weights)
        return self

    def __post_init__(self, den: int, weights: tuple[int, ...]) -> None:
        """Set ``den`` and ``weights`` and check them; both constructors end here."""
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise ValueError("a valuation vector needs at least one good")
        if min(weights) < 0:
            raise ValueError("good values must be nonnegative")
        if sum(weights) != den or not den:  # den 0: every weight is 0
            raise NormalizationError(f"values sum to {Fraction(sum(weights), den or 1)}, expected 1")

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(w, den) for w in self.weights])

    def __repr__(self) -> str:
        return f"ValuationVector(values={self.values!r})"

    @property
    def horizon(self) -> int:
        return len(self.weights)

    def weight(self, bundle: Iterable[int]) -> int:
        """The bundle's value times ``den``, an int."""
        w = self.weights
        return sum([w[g] for g in bundle])

    def value(self, bundle: Iterable[int]) -> Fraction:
        return Fraction(self.weight(bundle), self.den)

    def __getitem__(self, g: int) -> Fraction:
        return self.values[g]

    def wire_strs(self) -> dict[int, str]:
        """Each distinct weight mapped to its value in the ``"p/q"`` wire format,
        as ``rat_str`` writes it, each encoded once from ints."""
        den = self.den
        text = {}
        for w in set(self.weights):
            g = gcd(w, den)
            text[w] = f"{w // g}/{den // g}"
        return text


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
        if self.identical and any(v.weights != self.vectors[0].weights for v in self.vectors):
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
    1 - TV(p_i, v_i); this is validated post hoc on construction, by
    cross-multiplying each accuracy's int pair against the distance's, which
    is computed once per distinct pair of vector objects, so agents sharing
    both vectors share one distance.  The distances are kept as a plain
    attribute, outside the dataclass fields: ``realized_error``, with
    ``realized_error[i] == TV(p_i, v_i)``.
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
        errors = []
        distances: dict[tuple[int, int], Fraction] = {}
        for i, acc in enumerate(self.declared_accuracy):
            an, ad = acc.numerator, acc.denominator
            if not 0 <= an <= ad:
                raise ValueError(f"accuracy of agent {i} outside [0, 1]")
            p, v = self.predictions.vector(i), self.truths.vector(i)
            error = distances.get((id(p), id(v)))
            if error is None:
                error = distances[id(p), id(v)] = tv_distance(p, v)
            en, ed = error.numerator, error.denominator
            if (ed - en) * ad < an * ed:  # realized accuracy 1 - error below acc
                raise ValueError(
                    f"agent {i}: declared accuracy {acc} exceeds realized {1 - error}")
            errors.append(error)
        object.__setattr__(self, "realized_error", tuple(errors))

    @property
    def agents(self) -> int:
        return self.predictions.agents

    def to_json_dict(self) -> dict:
        """The wire format; each row is written from its int weights."""
        def rows(profile: ValuationProfile) -> list[list[str]]:
            return [list(map(vec.wire_strs().__getitem__, vec.weights))
                    for vec in profile.vectors]

        return {
            "n": self.agents,
            "identical": self.truths.identical,
            "predictions": rows(self.predictions),
            "truths": rows(self.truths),
            "accuracy": [rat_str(a) for a in self.declared_accuracy],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Instance":
        """Parse the wire format; a missing key or a wrong JSON type is a ValueError.

        Each distinct value string is parsed once per call, by ``ratio``; a row of
        strings takes its weights over its lcm from one map of its strings, with
        no Fraction per good, and any other row is read entry by entry.  In a
        profile flagged identical, a later row equal to an all-string first row
        shares the first row's vector.
        """
        if not isinstance(d, dict):
            raise ValueError(f"an instance is a JSON object, got a {type(d).__name__}")

        def field(key: str, kind: type, noun: str):
            if key not in d:
                raise ValueError(f"instance has no {key!r} key")
            value = d[key]
            # a JSON true/false loads as a bool, which Python also counts as an int
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(f"instance key {key!r} is not {noun}")
            return value

        def value(x) -> Fraction:
            if isinstance(x, bool):
                raise ValueError("expected a list of p/q strings, got a bool")
            try:
                return rat(x)
            except TypeError as exc:  # a float, null, list or object value
                raise ValueError(f"expected a list of p/q strings: {exc}") from None

        def values(seq) -> tuple[Fraction, ...]:
            if not isinstance(seq, list):
                raise ValueError(f"expected a list of p/q strings, got a {type(seq).__name__}")
            return tuple(map(value, seq))

        pairs: dict[str, tuple[int, int]] = {}

        def strings(row) -> bool:
            # types first: 1, True and 1.0 hash alike, and a list does not hash
            return isinstance(row, list) and set(map(type, row)) == {str}

        def vector(row) -> ValuationVector:
            if not strings(row):
                return ValuationVector(values(row))
            distinct = dict.fromkeys(row)  # first occurrences, in row order
            for s in distinct:
                distinct[s] = pairs[s] = pairs.get(s) or ratio(s)
            den = lcm(*{q for _, q in distinct.values()})
            weight = {s: p * (den // q) for s, (p, q) in distinct.items()}
            return ValuationVector.from_weights(den, tuple(map(weight.__getitem__, row)))

        n = field("n", int, "an int")
        identical = "identical" in d and field("identical", bool, "a bool")

        def profile(key: str) -> ValuationProfile:
            rows = field(key, list, "a list")
            # a string equals only a string, so a row equal to an all-string
            # first row is that row; rows are compared one at a time
            first = rows[0] if identical and rows and strings(rows[0]) else None
            shared = first and vector(first)
            vecs = tuple([shared if shared and row == first else vector(row) for row in rows])
            if len(vecs) != n:
                raise ValueError(f"expected {n} agent rows, got {len(vecs)}")
            return ValuationProfile(vecs, identical=identical)

        return cls(
            predictions=profile("predictions"),
            truths=profile("truths"),
            declared_accuracy=values(field("accuracy", list, "a list")),
        )


def make_instance(predictions: ValuationProfile, truths: ValuationProfile) -> Instance:
    """An instance declaring each agent's realized accuracy 1 - TV(p_i, v_i).

    It is checked at accuracy zero, which every instance meets, and then
    declares one minus each distance that check computed, built from the
    distance's int pair, so each distance is computed once per distinct
    prediction/truth pair: once in all on an identical profile's shared vectors.
    """
    instance = Instance(predictions, truths, (ZERO,) * predictions.agents)
    object.__setattr__(instance, "declared_accuracy", tuple([
        Fraction(e.denominator - e.numerator, e.denominator) for e in instance.realized_error]))
    return instance


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------

def tv_distance(p: ValuationVector, v: ValuationVector) -> Fraction:
    """Total variation distance between two value vectors.

    Half the l1 distance, with the shorter vector zero-padded so both cover
    max(T, T') dummy-extended time-steps.  Appending zero-valued goods to
    either side leaves the result unchanged.  Both weight vectors are scaled
    to the lcm of the two denominators and summed as ints.
    """
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
    comparisons (empty or singleton opposing bundle) contribute 1, as does a
    pair whose ratio would exceed 1, so both factors lie in [0, 1].

    The convention is EFX₀: the envier removes the other bundle's
    least-valued good even when that good is worth zero to it.  This is
    stronger than EFX⁺, which removes only goods the envier values above zero.

    ``efx_factor <= ef1_factor`` always: per observer, ``sum - max <=
    sum - min``, so each EF1 top is at most the EFX top, and the smallest
    ratio ``envy_factor`` takes can only rise.
    """

    efx_factor: Fraction
    ef1_factor: Fraction


def _check_alloc(alloc: Allocation, profile: ValuationProfile) -> None:
    if alloc.agents != profile.agents:
        raise ValueError("allocation and profile disagree on the agent count")
    if alloc.num_goods > profile.horizon:
        raise PartitionError("allocation mentions goods beyond the profile horizon")


def envy_factor(sums, tops, seats) -> tuple[int, int]:
    """Smallest envy ratio over the ``seats``, as an int pair (num, den).

    An *observer* is an int weight vector, and a *seat* an (agent, observer)
    pair: agent i seated at o values every bundle by o's weights.
    ``sums[i][o]`` is agent i's bundle sum under o, and ``tops[o]`` the
    largest drop under o over the nonempty bundles, 0 if none: ``sum - min``
    for EFX₀ (the least-valued good goes even when it is worth zero to o) and
    ``sum - max`` for EF1.  A ratio compares two sums under one
    observer, so the scale cancels: it is an int pair, ratios compare by
    cross-multiplication, and a ratio above 1 counts as 1.

    Only the largest drop per observer matters.  An agent's own drop never
    exceeds its own sum, so when i holds the largest drop it envies nobody and
    its ratio, at least 1, changes nothing; otherwise its smallest ratio is
    the one against that drop.  An empty bundle has sum 0, so it scores 0
    against any positive drop with no test of its own.
    """
    fn = fd = 1
    for i, o in seats:
        top = tops[o]
        if top:
            s = sums[i][o]
            if s * fd < fn * top:
                fn, fd = s, top
    return fn, fd


def fairness_report(alloc: Allocation, profile: ValuationProfile) -> FairnessReport:
    """Compute both envy factors; prefix allocations (fewer goods) are allowed.

    Each distinct vector object is one observer of ``envy_factor``, so an
    identical profile, built by ``identical_from`` or loaded with its rows
    written alike, reduces its bundles once: to each bundle's sum and the two
    tops, the largest ``sum - min`` and ``sum - max`` over the nonempty
    bundles.  Each factor is then one ``envy_factor`` call over the agents,
    and a Fraction is built only for the two factors.
    """
    _check_alloc(alloc, profile)
    observers: dict[int, int] = {}  # vector id -> its index in cols and the tops
    seats, cols, tops_x, tops_1 = [], [], [], []
    for i, vector in enumerate(profile.vectors):
        o = observers.get(id(vector))
        if o is None:
            o = observers[id(vector)] = len(cols)
            w = vector.weights
            col = []
            top_x = top_1 = 0
            for b in alloc.bundles:
                ws = [w[g] for g in b]
                s = sum(ws)
                col.append(s)
                if ws:
                    if (d := s - min(ws)) > top_x:
                        top_x = d
                    if (d := s - max(ws)) > top_1:
                        top_1 = d
            cols.append(col)
            tops_x.append(top_x)
            tops_1.append(top_1)
        seats.append((i, o))
    sums = list(zip(*cols))  # sums[i][o]: bundle i's sum under observer o
    xn, xd = envy_factor(sums, tops_x, seats)
    on, od = envy_factor(sums, tops_1, seats)
    return FairnessReport(efx_factor=ONE if xn == xd else Fraction(xn, xd),
                          ef1_factor=ONE if on == od else Fraction(on, od))
