"""Span recorder for the traced run.

The tracer wraps the package's public functions at every place they are looked
up: each module global that is bound to a tracked function (``fairness_report``
is looked up as ``offline.fairness_report``, ``harness.fairness_report`` and
``core.fairness_report``), plus class attributes for methods and dataclass
``__post_init__`` hooks.  ``install`` swaps the wrappers in, ``uninstall``
restores the originals, so untraced rounds run the unmodified program.

Spans (name, id, parent, op, start, end) are kept in memory while a round runs
and folded into per-layer totals by ``collect`` once the round has finished.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _allocator_label(allocator) -> str:
    """Allocator name plus its offline base: ``PredictionFollower.name`` is
    ``"follower"`` for both the lpt and the cut-and-choose base."""
    base = getattr(allocator, "base", None)
    name = type(allocator).name
    return f"{name}-{base}" if base else name


class _CountingAdversary:
    """Forwarding proxy that counts the minimax oracle's node expansions.

    The oracle calls ``reveal`` once for every node it expands (leaves and
    memo hits do not reveal), so the count is the number of expansions.
    """

    def __init__(self, adversary, tracer: "Tracer"):
        self._adversary = adversary
        self._tracer = tracer

    def reveal(self, state):
        self._tracer.expansions += 1
        return self._adversary.reveal(state)

    def __getattr__(self, name):
        return getattr(self._adversary, name)


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self, pkg):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.op = -1
        self.expansions = 0
        self._in_init: set[int] = set()
        self._patches = self._plan(pkg)

    # -- naming ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    # -- span recording -------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self.next_id
        self.next_id = sid + 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _close(self, nid: int, sid: int, parent: int, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans.append((nid, sid, parent, self.op, start, end))

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(nid, sid, parent, start)
        return traced

    def _wrap_minimax(self, fn):
        tracer = self

        @functools.wraps(fn)
        def minimax(adversary, *args, **kwargs):
            return fn(_CountingAdversary(adversary, tracer), *args, **kwargs)
        return self._wrap("offline.minimax", minimax)

    def _wrap_step(self, fn):
        tracer = self
        labels: dict[str, int] = {}

        @functools.wraps(fn)
        def step(allocator, *args, **kwargs):
            label = _allocator_label(allocator)
            nid = labels.get(label)
            if nid is None:
                nid = labels[label] = tracer._id(f"online.{label}.step")
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                return fn(allocator, *args, **kwargs)
            finally:
                tracer._close(nid, sid, parent, start)
        return step

    def _wrap_init(self, fn):
        """Allocator construction; only the outermost ``__init__`` of an object
        opens a span, so ``super().__init__`` chains count once."""
        tracer = self

        @functools.wraps(fn)
        def init(allocator, *args, **kwargs):
            key = id(allocator)
            if key in tracer._in_init:
                return fn(allocator, *args, **kwargs)
            tracer._in_init.add(key)
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                return fn(allocator, *args, **kwargs)
            finally:
                tracer._in_init.discard(key)
                label = _allocator_label(allocator)
                tracer._close(tracer._id(f"online.{label}.setup"), sid, parent, start)
        return init

    def op_span(self, op: int, kind: str, fn):
        """Run one benchmark op as the root span that every layer span descends from."""
        self.op = op
        return self._wrap(f"op.{kind}", fn)()

    # -- patch plan -----------------------------------------------------------

    def _plan(self, pkg) -> list[tuple[object, str, object, object]]:
        core, offline, online = pkg.core, pkg.offline, pkg.online
        adversaries, bounds, harness = pkg.adversaries, pkg.bounds, pkg.harness
        verify, cli = pkg.verify, pkg.cli

        functions = (
            (core, "fairness_report", "core.fairness_report"),
            (core, "tv_distance", "core.tv_distance"),
            (offline, "lpt", "offline.lpt"),
            (offline, "cut_and_choose", "offline.cut_and_choose"),
            (offline, "eliminate_envy_cycles", "offline.envy_cycles"),
            (offline, "brute_force_best_factor", "offline.brute_force"),
            (adversaries, "build_adversary", "adversaries.build"),
            (bounds, "eval_bound", "bounds.eval"),
            (bounds, "invert_bound", "bounds.invert"),
            (bounds, "sweep_curves", "bounds.sweep"),
            (harness, "gen_random_instance", "harness.gen"),
            (harness, "perturb", "harness.perturb"),
            (harness, "make_instance", "harness.make_instance"),
            (harness, "run_instance", "harness.run_instance"),
            (harness, "run_duel", "harness.duel"),
            (harness, "random_walk_duel", "harness.duel"),
            (cli, "_load_instance", "cli.load"),
            (cli, "_emit", "cli.emit"),
        )
        # A name a later version of the package drops is skipped; its layer
        # then reads zero in the table instead of breaking the traced run.
        wrappers = {fn: self._wrap(name, fn) for module, attr, name in functions
                    if (fn := getattr(module, attr, None)) is not None}
        wrappers[offline.minimax_online_factor] = self._wrap_minimax(
            offline.minimax_online_factor)

        patches = []
        modules = [m for name, m in sys.modules.items()
                   if name == "onlinefair" or name.startswith("onlinefair.")]
        for module in modules:
            for attr, value in vars(module).items():
                if callable(value) and value in wrappers:
                    patches.append((module, attr, value, wrappers[value]))

        def method(cls, attr, wrapped):
            patches.append((cls, attr, cls.__dict__[attr], wrapped))

        for cls, name in ((core.Allocation, "core.allocation_init"),
                          (core.ValuationVector, "core.vector_init"),
                          (core.Instance, "core.instance_init")):
            method(cls, "__post_init__", self._wrap(name, cls.__post_init__))
        method(harness.GameTranscript, "to_json",
               self._wrap("harness.to_json", harness.GameTranscript.to_json))

        base = online.OnlineAllocator
        method(base, "step", self._wrap_step(base.step))
        for cls in vars(online).values():
            if isinstance(cls, type) and issubclass(cls, base) and "__init__" in cls.__dict__:
                method(cls, "__init__", self._wrap_init(cls.__dict__["__init__"]))

        for cls in set(getattr(adversaries, "_BUILDERS", {}).values()):
            for attr in ("start", "reveal", "advance"):
                if attr in cls.__dict__:
                    method(cls, attr, self._wrap(f"adversaries.{attr}", cls.__dict__[attr]))

        suites = getattr(verify, "_SUITES", {})
        for suite, (criterion, fn) in list(suites.items()):
            patches.append((suites, suite, (criterion, fn),
                            (criterion, self._wrap(f"verify.{suite}", fn))))
        return patches

    def install(self) -> None:
        for holder, attr, _, wrapped in self._patches:
            _assign(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            _assign(holder, attr, original)

    # -- aggregation ----------------------------------------------------------

    def collect(self) -> dict[str, float]:
        """Fold the recorded spans into per-layer totals and start afresh.

        Returns ``<span>.calls``, ``<span>.incl_s`` and ``<span>.self_s`` for
        every span name, where self time is the span's duration minus the
        durations of its direct children, plus the brute-force leaf count
        (``fairness_report`` calls made directly by the brute force), the
        inclusive time of the brute-force calls that scored leaves, and the
        minimax expansion count.
        """
        names = self._names
        name_of: dict[int, int] = {}
        duration: dict[int, float] = {}
        child_time: dict[int, float] = {}
        for nid, sid, parent, _, start, end in self.spans:
            name_of[sid] = nid
            duration[sid] = end - start
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)

        out: dict[str, float] = {}
        for name in names:  # layers the round never reached read zero
            out.update({f"{name}.calls": 0, f"{name}.incl_s": 0.0, f"{name}.self_s": 0.0})
        brute = self._ids.get("offline.brute_force", -1)
        leaf = self._ids.get("core.fairness_report", -1)
        leaf_parents: set[int] = set()
        leaves = 0
        for nid, sid, parent, _, _, _ in self.spans:
            name = names[nid]
            dur = duration[sid]
            out[f"{name}.calls"] += 1
            out[f"{name}.incl_s"] += dur
            out[f"{name}.self_s"] += dur - child_time.get(sid, 0.0)
            if nid == leaf and parent >= 0 and name_of.get(parent) == brute:
                leaves += 1
                leaf_parents.add(parent)
        out["offline.brute_force.leaves"] = leaves
        out["offline.brute_force.leaf_search_s"] = sum(duration[s] for s in leaf_parents)
        out["offline.minimax.expansions"] = self.expansions

        self.spans = []
        self.expansions = 0
        return out


def _assign(holder, attr, value) -> None:
    if isinstance(holder, dict):
        holder[attr] = value
    else:
        setattr(holder, attr, value)
