"""Offline allocation building blocks and verification oracles.

The offline procedures (largest-value-first, cut-and-choose, envy-cycle
elimination) feed the online followers; the brute-force and game-tree oracles
certify claims at desk scale.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Allocation,
    ONE,
    ValuationProfile,
    ValuationVector,
    ZERO,
)


class BudgetExceededError(RuntimeError):
    """An oracle refused an instance above its enumeration budget."""


# ---------------------------------------------------------------------------
# Largest-value-first and cut-and-choose
# ---------------------------------------------------------------------------

def lpt(f: ValuationVector, n: int) -> Allocation:
    """Assign goods in non-ascending value to the currently least-valued bundle.

    Ties in the value ordering break by ascending good id, ties among minimum
    bundles by lowest agent id, so the output is deterministic.  For identical
    additive valuations the result is exactly envy-free up to any good.
    Runs in O(T log(nT)) on the vector's integer weights.
    """
    if n < 2:
        raise ValueError("need at least two agents")
    w = f.weights
    # a stable sort by descending weight keeps equal weights in ascending id order
    order = sorted(range(f.horizon), key=w.__getitem__, reverse=True)
    bundles: list[set[int]] = [set() for _ in range(n)]
    heap: list[tuple[int, int]] = [(0, i) for i in range(n)]
    for g in order:
        total, i = heap[0]
        bundles[i].add(g)
        heapq.heapreplace(heap, (total + w[g], i))
    return Allocation.of(bundles, num_goods=f.horizon)


def cut_and_choose(p1: ValuationVector, p2: ValuationVector) -> Allocation:
    """Two-agent split: balance under p1, let agent 1 pick its preferred half.

    The output is exactly envy-free up to any good under *both* input vectors.
    On a p2 tie the chooser keeps the second bundle.
    """
    if p1.horizon != p2.horizon:
        raise ValueError("both vectors must cover the same goods")
    base = lpt(p1, 2)
    b0, b1 = base.bundles
    chooser_takes_b0 = p2.weight(b0) > p2.weight(b1)
    if chooser_takes_b0:
        return Allocation.of([b1, b0], num_goods=p1.horizon)
    return Allocation.of([b0, b1], num_goods=p1.horizon)


# ---------------------------------------------------------------------------
# Envy graph machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvyGraph:
    """Directed envy relation: edge (i, j) means i values j's bundle above its own."""

    agents: int
    edges: frozenset[tuple[int, int]]

    def sources(self) -> list[int]:
        envied = {j for (_, j) in self.edges}
        return [i for i in range(self.agents) if i not in envied]


def envy_graph(alloc: Allocation, profile: ValuationProfile) -> EnvyGraph:
    n = profile.agents
    edges = set()
    for i in range(n):
        vi = profile.vector(i)
        own = vi.weight(alloc.bundles[i])
        for j in range(n):
            if i != j and own < vi.weight(alloc.bundles[j]):
                edges.add((i, j))
    return EnvyGraph(agents=n, edges=frozenset(edges))


def _find_cycle(graph: EnvyGraph) -> Optional[list[int]]:
    """First directed cycle in lowest-agent-id DFS order, or None."""
    adj: dict[int, list[int]] = {i: [] for i in range(graph.agents)}
    for i, j in sorted(graph.edges):
        adj[i].append(j)
    color = {i: 0 for i in range(graph.agents)}  # 0 new, 1 on stack, 2 done
    for root in range(graph.agents):
        if color[root] != 0:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        path: list[int] = []
        color[root] = 1
        path.append(root)
        while stack:
            node, idx = stack[-1]
            if idx < len(adj[node]):
                stack[-1] = (node, idx + 1)
                nxt = adj[node][idx]
                if color[nxt] == 1:
                    return path[path.index(nxt):]
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                path.pop()
                stack.pop()
    return None


def eliminate_envy_cycles(alloc: Allocation, profile: ValuationProfile) -> Allocation:
    """Rotate bundles along envy cycles until the envy graph is acyclic.

    Each agent on a cycle receives the bundle of the agent it envies; bundle
    contents never change, only ownership.  Every rotation strictly reduces
    the edge count, so at most n(n-1)/2 rotations happen.
    """
    bundles = list(alloc.bundles)
    current = alloc
    for _ in range(profile.agents * (profile.agents - 1) // 2 + 1):
        cycle = _find_cycle(envy_graph(current, profile))
        if cycle is None:
            return current
        rotated = bundles[:]
        for pos, agent in enumerate(cycle):
            rotated[agent] = bundles[cycle[(pos + 1) % len(cycle)]]
        bundles = rotated
        current = Allocation.of(bundles, num_goods=alloc.num_goods)
    raise RuntimeError("cycle elimination failed to terminate")  # pragma: no cover


def unenvied_agent(alloc: Allocation, profile: ValuationProfile) -> int:
    """Lowest-id agent that nobody envies; requires an acyclic envy graph."""
    sources = envy_graph(alloc, profile).sources()
    if not sources:
        raise ValueError("envy graph has a cycle; eliminate cycles first")
    return min(sources)


# ---------------------------------------------------------------------------
# Shared oracle machinery: bundle statistics, envy scorer, enumerator
# ---------------------------------------------------------------------------
#
# A bundle is tracked by its (sum, min) value under each *observer*, a
# distinct value vector; ``min`` is None while the bundle is empty.  A *view*
# maps each agent of one valuation profile to its observer.

def _bundle_update(bstates, agent: int, values: tuple[Fraction, ...]):
    """Add a good with per-observer values to one bundle's (sum, min) stats."""
    updated = []
    for b, obs in enumerate(bstates):
        if b != agent:
            updated.append(obs)
            continue
        new_obs = []
        for o, (s, m) in enumerate(obs):
            w = values[o]
            new_obs.append((s + w, w if m is None or w < m else m))
        updated.append(tuple(new_obs))
    return tuple(updated)


def _empty_bundles(n: int, observers: int):
    return (((ZERO, None),) * observers,) * n


def _envy_factor(bstates, views) -> Fraction:
    """Smallest envy-up-to-any-good ratio over every agent of every view.

    Agent i with observer o compares its own sum against ``sum - min`` of the
    other bundles under o, so only the largest such drop per observer
    matters.  Its own drop never exceeds its own sum, so when i holds the
    largest drop it envies nobody and the ratio, at least 1, changes nothing.
    """
    tops = []
    for o in range(len(bstates[0])):
        top = ZERO
        for obs in bstates:
            s, m = obs[o]
            if m is not None:
                d = s - m
                if d and (not top or d > top):  # zero drops skip the compare
                    top = d
        tops.append(top)
    for view in views:
        for i, o in enumerate(view):
            if bstates[i][o][1] is None and tops[o]:
                return ZERO  # an empty bundle envies any positive remainder
    factor = ONE
    for view in views:
        for i, o in enumerate(view):
            if tops[o]:
                r = bstates[i][o][0] / tops[o]
                if r < factor:
                    factor = r
    return factor


def _best_assignment(profiles) -> tuple[Fraction, list[int]]:
    """Lexicographically first good->bundle assignment maximizing the worst
    envy factor across ``profiles``, with that factor.

    Depth-first in lexicographic order; bundle labels are interchangeable
    (restricted-growth labelling) when every profile values all agents alike.
    Stops at the first exact assignment, since no factor exceeds 1.
    """
    observers: dict[tuple[Fraction, ...], int] = {}  # distinct value vectors
    views = tuple(tuple(observers.setdefault(v.values, len(observers)) for v in p.vectors)
                  for p in profiles)
    n = len(views[0])
    goods = list(zip(*observers))  # per good, its value to each observer
    symmetric = all(len(set(view)) == 1 for view in views)
    t_total = len(goods)
    best = ZERO - 1
    best_assign: list[int] = []
    assign = [0] * t_total

    def rec(t: int, used: int, bstates) -> bool:
        nonlocal best, best_assign
        if t == t_total:
            f = _envy_factor(bstates, views)
            if f > best:
                best, best_assign = f, assign[:]
            return best == 1
        for b in range(min(used + 1, n) if symmetric else n):
            assign[t] = b
            if rec(t + 1, max(used, b + 1), _bundle_update(bstates, b, goods[t])):
                return True
        return False

    rec(0, 0, _empty_bundles(n, len(observers)))
    return best, best_assign


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_best_factor(profile: ValuationProfile, budget: int = 10 ** 7
                            ) -> tuple[Fraction, Allocation]:
    """Exhaustive maximum envy factor with a witness allocation.

    Refuses instances whose n^T search space exceeds ``budget``.
    """
    n, t_total = profile.agents, profile.horizon
    if n ** t_total > budget:
        raise BudgetExceededError(
            f"{n}^{t_total} allocations exceed the enumeration budget {budget}")
    best, assign = _best_assignment((profile,))
    witness = Allocation.of(
        [[g for g in range(t_total) if assign[g] == i] for i in range(n)],
        num_goods=t_total)
    return best, witness


# ---------------------------------------------------------------------------
# Minimax game-tree oracle
# ---------------------------------------------------------------------------

def minimax_online_factor(adversary, node_budget: int = 10 ** 6) -> Fraction:
    """Best envy factor any deterministic online algorithm can force.

    Against an adaptive opponent (a branching program over the algorithm's
    decision history) this is plain backward induction with memoization on
    (opponent state, bundle statistics).  Opponents that instead fix a family
    of complete value assignments up front (the truth-oblivious benchmark)
    are scored as max over assignment sequences of the min over the family;
    that enumeration is refused up front when its n^horizon leaves exceed
    ``node_budget``.
    """
    n = adversary.n
    horizon = adversary.horizon
    family = getattr(adversary, "oblivious_family", None)
    if family is not None:
        if n ** horizon > node_budget:
            raise BudgetExceededError(
                f"{n}^{horizon} assignments exceed the node budget {node_budget}")
        return _best_assignment(family)[0]

    views = (range(n),)
    memo: dict = {}
    nodes = 0

    def rec(astate, bstates, t: int) -> Fraction:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"minimax search exceeded {node_budget} nodes")
        if t == horizon:
            return _envy_factor(bstates, views)
        key = (astate, bstates, t)
        if key in memo:
            return memo[key]
        values = adversary.reveal(astate)
        best = ZERO - 1
        for d in range(n):
            val = rec(adversary.advance(astate, d), _bundle_update(bstates, d, values), t + 1)
            if val > best:
                best = val
        memo[key] = best
        return best

    return rec(adversary.start(), _empty_bundles(n, n), 0)
