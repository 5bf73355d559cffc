"""Offline allocation building blocks and verification oracles.

The offline procedures (largest-value-first, cut-and-choose, envy-cycle
elimination) feed the online followers; the brute-force and game-tree oracles
certify claims at desk scale.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Optional

from .core import Allocation, ValuationProfile, ValuationVector, envy_factor


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
# Envy-cycle elimination
# ---------------------------------------------------------------------------

def eliminate_envy_cycles(alloc: Allocation, profile: ValuationProfile
                          ) -> tuple[Allocation, int]:
    """Rotate bundles along envy cycles until some agent is unenvied.

    Returns the allocation and its lowest-id unenvied agent; agent i envies j
    when i values j's bundle above its own.  While every agent is envied, the
    walk from agent 0 to each agent's lowest-id envier repeats an agent and so
    closes a cycle, on which each agent takes the bundle it envies.  That
    raises the own value of every agent on the cycle and changes no other
    agent's, so no allocation repeats and the loop ends.  Bundle contents
    never change, only ownership.
    """
    n = profile.agents
    while True:
        bundles = alloc.bundles
        envier: list[Optional[int]] = [None] * n  # lowest-id envier of each bundle
        for i in range(n):
            vi = profile.vector(i)
            own = vi.weight(bundles[i])
            for j in range(n):
                if envier[j] is None and own < vi.weight(bundles[j]):
                    envier[j] = i
        if None in envier:
            return alloc, envier.index(None)
        walk: list[int] = []
        agent = 0
        while agent not in walk:
            walk.append(agent)
            agent = envier[agent]
        cycle = walk[walk.index(agent):]  # each agent envies the one before it
        rotated = list(bundles)
        for k, a in enumerate(cycle):
            rotated[a] = bundles[cycle[k - 1]]
        alloc = Allocation.of(rotated, num_goods=alloc.num_goods)


# ---------------------------------------------------------------------------
# Oracle bundle statistics
# ---------------------------------------------------------------------------
#
# Both oracles score a leaf with ``core.envy_factor`` on ints, so ``Fraction``
# appears only in the value an oracle returns.  Each distinct weight vector is
# one observer; a *view* maps each agent of one profile to its observer, and
# the seats are the distinct (agent, observer) pairs of the views.  A bundle is
# tracked by its sum and min weight under each observer; an empty bundle's min
# is an int above every weight, so its first good replaces it and its ``sum -
# min`` is negative.  The brute force keeps the sums and mins in lists that it
# updates and undoes in place; the game tree, whose memo needs hashable states
# that it can sort, keeps each bundle's (sum, min) pairs in tuples.

def _bundle_update(bstates, agent: int, values: tuple[int, ...]):
    """Add a good with per-observer weights to one bundle's (sum, min) stats."""
    updated = []
    for b, obs in enumerate(bstates):
        if b != agent:
            updated.append(obs)
            continue
        new_obs = []
        for o, (s, m) in enumerate(obs):
            w = values[o]
            new_obs.append((s + w, w if w < m else m))
        updated.append(tuple(new_obs))
    return tuple(updated)


def _sums_tops(bstates) -> tuple[list[list[int]], list[int]]:
    """Each bundle's sum per observer, and per observer the largest
    ``sum - min`` over the nonempty bundles (0 if none), in one pass; an empty
    bundle's ``sum - min`` is negative."""
    sums = []
    tops = [0] * len(bstates[0])
    for obs in bstates:
        row = []
        for o, (s, m) in enumerate(obs):
            row.append(s)
            if s - m > tops[o]:
                tops[o] = s - m
        sums.append(row)
    return sums, tops


def _best_assignment(profiles) -> tuple[Fraction, list[int]]:
    """Lexicographically first good->bundle assignment maximizing the worst
    envy factor across ``profiles``, with that factor.

    Depth-first in lexicographic order; bundle labels are interchangeable
    (restricted-growth labelling: good t goes to one of the ``used`` bundles
    opened so far or opens the next) when every profile values all agents
    alike.  The search holds every bundle's sum and min under each observer in
    lists: placing a good adds its weights to one bundle's sums in place and
    gives that bundle a new list of mins, and backtracking subtracts the
    weights and puts the saved mins back.  A bundle's
    ``sum - min`` never falls as goods are added, so each node's ``tops`` is
    its parent's with the one grown bundle's drop max'd in.

    Two passes run the same search.  The *exact pass* looks for a leaf that
    scores 1 and stops at the first; no factor exceeds 1, and its cuts drop
    only subtrees with no such leaf, so that leaf is the lexicographically
    first maximiser.  Only if it finds none does the *maximisation* run, from
    a best of -1, keeping each leaf that strictly beats the best.  Exact EFX
    allocations exist for identical additive valuations and for three
    additive agents (Chaudhury, Garg, Mehlhorn 2020), so on a single profile
    the maximisation is rarely reached; a family of profiles, as the
    truth-oblivious opponents give, can stay below 1 and reach it.

    Three cuts skip a node with no leaf that reaches 1 (exact pass) or
    strictly beats the best found (maximisation, once the best is positive),
    so the witness stays the lexicographically first maximiser:

    * when some agent i, with observer o, cannot: when (own sum of i + weight
      under o of the goods left) / ``tops[o]`` is below 1, or at most the
      best, since i's own sum grows by at most the goods left and ``tops[o]``
      never falls;
    * under restricted-growth labelling, once the best is at least 0 (from
      the root in the exact pass, after the first scored leaf in the
      maximisation), when more bundles are unopened than goods are left and
      some top is positive; when exactly as many are, only the child that
      opens a bundle is tried.  A bundle that ends empty scores 0 against the
      positive top of its own observer: every view seats all its agents at
      one observer, and each observer is some view's.  Tops never fall, so
      every leaf below with an empty bundle scores 0;
    * in the exact pass, when a good raises some ``tops[o]`` above ``cap[o]``,
      the total weight under o floor-divided by the number k_o of agents
      seated at o: an exact leaf needs each of those k_o agents' own sum under
      o to reach ``tops[o]``, their k_o bundles are distinct and hold at most
      the total together, and tops never fall.  With k_o = 1 the cap is the
      total, as it is for every observer in the maximisation: no top exceeds it.
    """
    observers: dict[tuple[int, ...], int] = {}  # distinct weight vectors
    views = tuple(tuple(observers.setdefault(v.weights, len(observers)) for v in p.vectors)
                  for p in profiles)
    n = len(views[0])
    goods = list(zip(*observers))  # per good, its weight to each observer
    symmetric = all(len(set(view)) == 1 for view in views)
    t_total = len(goods)
    seats = tuple(dict.fromkeys((i, o) for view in views for i, o in enumerate(view)))
    rest = [(0,) * len(observers)]  # rest[t][o]: the weight of goods t.. under o
    for values in reversed(goods):
        rest.append(tuple(r + w for r, w in zip(rest[-1], values)))
    rest.reverse()
    sums = [[0] * len(observers) for _ in range(n)]
    # an empty bundle's min is above every weight, so its first good replaces it
    mins = [[r + 1 for r in rest[0]] for _ in range(n)]
    best_assign: list[int] = []
    assign = [0] * t_total

    def rec(t: int, used: int, tops: list[int]) -> bool:
        nonlocal best, best_assign
        bn, bd = best
        first = 0
        if symmetric and bn >= 0 and n - used >= t_total - t and any(tops):
            if n - used > t_total - t:
                return False
            first = used  # each good left must open a bundle
        if t == t_total:
            fn, fd = envy_factor(sums, tops, seats)
            if fn * bd >= bn * fd + beat:
                best, best_assign = (fn, fd), assign[:]
                return fn == fd
            return False
        if bn > 0:
            left = rest[t]
            for i, o in seats:
                top = tops[o]
                if top and (sums[i][o] + left[o]) * bd < bn * top + beat:
                    return False
        values = goods[t]
        for b in range(first, min(used + 1, n) if symmetric else n):
            assign[t] = b
            bsums, saved = sums[b], mins[b]
            bmins = mins[b] = []
            child = tops[:]
            over = False
            for o, w in enumerate(values):
                s = bsums[o] = bsums[o] + w
                m = saved[o]
                if w < m:
                    m = w
                bmins.append(m)
                if s - m > child[o]:
                    child[o] = s - m
                    over = over or s - m > cap[o]
            found = not over and rec(t + 1, max(used, b + 1), child)
            mins[b] = saved
            for o, w in enumerate(values):
                bsums[o] -= w
            if found:
                return True
        return False

    seated = [0] * len(observers)  # k_o: the distinct agents seated at o
    for _, o in seats:
        seated[o] += 1
    cap = [r // k for r, k in zip(rest[0], seated)]
    best, beat = (1, 1), 0  # the exact pass: a leaf must reach 1
    if not rec(0, 0, [0] * len(observers)):
        cap = rest[0]  # no drop exceeds its observer's total
        best, beat = (-1, 1), 1  # the maximisation: a leaf must beat the best
        rec(0, 0, [0] * len(observers))
    return Fraction(*best), best_assign


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_best_factor(profile: ValuationProfile, budget: int = 10 ** 7
                            ) -> tuple[Fraction, Allocation]:
    """Exhaustive maximum envy factor with a witness allocation.

    Refuses instances whose n^T search space exceeds ``budget``.
    """
    n, t_total = profile.agents, profile.horizon
    if n < 2:
        raise ValueError("need at least two agents")
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

def _compile_opponent(adversary, node_budget: int):
    """Compile the opponent's reachable canonical states into int tables.

    An identical construction with a ``relabel`` hook commutes with renaming
    the agents, so only its *canonical* states are numbered: each successor
    is relabelled so that its ``counts`` do not increase from agent to agent.
    Agents of a state with equal counts form a *run*.  Any other opponent is
    compiled as it stands, each agent its own run.

    States are numbered breadth-first with one visited set, in the order they
    expand.  Each state first reached before the horizon is revealed once and
    advanced once per decision.  Returns, per expanded state, its revealed
    row as one int weight per observer, as the opponent revealed it over its
    ``den``, per decision its successor id and ``sort_keys``, and per agent
    whether it continues the run of the agent before; plus each agent's
    observer.  An identical construction broadcasts every row, so its agents
    share observer 0 and a row keeps one weight; any other opponent seats
    each agent at its own observer.  Each numbered state costs the search at
    least one node, so counting them against ``node_budget`` refuses only
    what the search would refuse.
    """
    n = adversary.n
    agents = list(range(n))
    symmetric = getattr(adversary, "identical", False) and hasattr(adversary, "relabel")

    def counts_of(state):
        return adversary.counts(state) if symmetric else agents[::-1]  # all distinct

    def sort_keys(counts):
        """How the search orders a child's bundles, given the child's counts
        before relabelling: None keeps the order, () sorts the bundles, and
        counts sort them by (count, stats), all non-increasing."""
        if list(counts) == sorted(set(counts), reverse=True):
            return None
        return () if len(set(counts)) == 1 else tuple(counts)

    ids = {adversary.start(): 0}  # every count zero: canonical
    frontier = list(ids)
    revealed: list[tuple[int, ...]] = []
    successors: list[list[tuple[int, Optional[tuple[int, ...]]]]] = []
    runs: list[tuple[bool, ...]] = []
    for _ in range(adversary.horizon):
        reached = []
        for state in frontier:  # ids are handed out in the order states expand
            revealed.append(adversary.reveal(state)[:1 if symmetric else n])
            counts = counts_of(state)
            runs.append(tuple(d > 0 and counts[d] == counts[d - 1] for d in agents))
            row = []
            for d in agents:
                nxt = adversary.advance(state, d)
                keys = counts_of(nxt)
                order = sorted(agents, key=keys.__getitem__, reverse=True)
                if order != agents:  # relabel to the canonical state
                    nxt = adversary.relabel(nxt, order)
                size = len(ids)
                k = ids.setdefault(nxt, size)  # one hash of the state
                if k == size:
                    if k >= node_budget:
                        raise BudgetExceededError(
                            f"minimax search exceeded {node_budget} nodes")
                    reached.append(nxt)
                row.append((k, sort_keys(keys)))
            successors.append(row)
        frontier = reached
    view = (0,) * n if symmetric else tuple(agents)
    return revealed, successors, runs, view


def minimax_online_factor(adversary, node_budget: int = 10 ** 6) -> Fraction:
    """Best envy factor any deterministic online algorithm can force.

    Against an adaptive opponent (a branching program over the algorithm's
    decision history) this is plain backward induction with memoization on
    (opponent state, bundle statistics, round), over the opponent's state
    graph compiled once to int tables.  Opponents that instead fix a family
    of complete value assignments up front (the truth-oblivious benchmark)
    are scored as max over assignment sequences of the min over the family;
    that enumeration is refused when its n^horizon leaves exceed
    ``node_budget``, before ``oblivious_family()`` builds the family.

    The search visits canonical states only (see ``_compile_opponent``) and
    sorts each child's bundles with its state by (count before relabelling,
    stats), both non-increasing.  A node tries one decision per run of equal
    (count, stats), since the others reach mirror images.  An identical
    construction values every agent alike, so relabelling keeps every factor.

    A *sink* is a state that reveals zeros and advances to itself, as a
    construction does once its queue runs out.  The search moves a sink
    reached before the last round to the last round, so it is settled in one
    step: its value is the best leaf score over the bundles j of one zero
    good placed in j.  A zero good changes only its bundle's min, to 0, and
    no sum, and the factor does not increase as any bundle's ``sum - min``
    grows; so putting every zero good left into one bundle is never worse
    than spreading them out, and after the first, the others in that bundle
    change nothing.  ``node_budget`` counts the nodes this search visits, one
    per canonical child.  The search keeps its own stack, so the
    interpreter's recursion limit does not bound the horizon.
    """
    n = adversary.n
    horizon = adversary.horizon
    family = getattr(adversary, "oblivious_family", None)
    if family is not None:
        if n ** horizon > node_budget:
            raise BudgetExceededError(
                f"{n}^{horizon} assignments exceed the node budget {node_budget}")
        return _best_assignment(family())[0]

    rows, successors, runs, view = _compile_opponent(adversary, node_budget)
    seats = tuple(enumerate(view))
    sink = [not any(row) and all(nxt == k for nxt, _ in successors[k])
            for k, row in enumerate(rows)]
    settled = horizon - 1  # where a sink's zero goods are placed: all in one bundle
    memo: dict = {}
    nodes = 0

    def visit(k: int, bstates, t: int):
        """Count one node; return its value, or None once it is pushed to expand."""
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"minimax search exceeded {node_budget} nodes")
        if t < settled and sink[k]:
            t = settled
        if t == horizon:
            return envy_factor(*_sums_tops(bstates), seats)
        key = (k, bstates, t)
        value = memo.get(key)
        if value is None:
            stack.append([key, 0, (-1, 1)])
        return value

    stack: list = []  # per node being expanded: [key, next decision, best so far]
    above = max(map(max, rows)) + 1  # an empty bundle's min: above every weight
    value = visit(0, (((0, above),) * (max(view) + 1),) * n, 0)
    while stack:
        frame = stack[-1]
        (k, bstates, t), d, best = frame
        if value is not None:  # the last decision tried scored
            if value[0] * best[1] > best[0] * value[1]:
                frame[2] = best = value
        run = runs[k]
        while d < n and run[d] and bstates[d] == bstates[d - 1]:
            d += 1  # the same (count, stats) as the agent before: a mirror image
        if d == n:
            memo[frame[0]] = value = best
            stack.pop()
            continue
        frame[1] = d + 1
        nxt, keys = successors[k][d]
        child = _bundle_update(bstates, d, rows[k])
        if keys == ():
            child = tuple(sorted(child, reverse=True))
        elif keys:
            child = tuple(b for _, b in sorted(zip(keys, child), reverse=True))
        value = visit(nxt, child, t + 1)
    return Fraction(*value)
