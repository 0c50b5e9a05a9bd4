"""Memoized per-robot snapshot and rule-match computation.

Rule matching is the hot inner loop of every engine consumer: evaluating a
robot's rules means building its radius-``phi`` snapshot and testing every
``(rule, symmetry)`` pair (up to ``|rules| * 8`` guard evaluations over 5 or
13 cells).  But a snapshot only depends on the *local neighbourhood* — the
robot's node plus the positions/colors of robots within distance ``phi`` —
and during a simulation or state-space exploration the same local patterns
recur constantly (a robot sweeping an empty row sees the same neighbourhood
at every column).

:class:`LocalMatcher` memoizes five tables on that observation, keyed on
a *translation-invariant* neighbourhood description (phi-capped boundary
distances plus relative robot offsets), so the sweeping robot above really
does hit the cache at every interior column:

* ``(walls, relative neighbourhood) -> frozen snapshot``  (snapshot
  construction; the ASYNC Look stores this tuple as it is),
* ``(color, walls, relative neighbourhood) -> matches``  (rule evaluation),
* ``(color, walls, relative neighbourhood) -> distinct actions``  (the
  synchronous kernel's branching),
* ``(color, frozen snapshot) -> matches``  (re-evaluation of stored ASYNC
  snapshots during Compute),
* ``(color, frozen snapshot) -> distinct actions``  (the ASYNC Compute
  step's branching).

Because the keys are translation invariant *and* cap boundary distances at
``phi``, they do not mention the grid dimensions at all: the entries are
valid for the same algorithm on **any** grid.  :class:`MatcherCache`
exploits this to share one set of memo tables (plus hit/miss statistics)
between matchers for the same algorithm at different grid sizes — which is
what lets a grid sweep or a scaling run pay the rule-evaluation cost once
for every interior pattern instead of once per size.

A robot's key is read off a per-node table of its grid
(:class:`NodeTable`): the node's capped wall distances and a map from
every grid position within distance ``phi`` to its offset, so building a
key costs one dictionary probe per robot.  The tables fill on lookup and
are shared per ``(phi, m, n)``, like the grid symmetries' node tables
(:mod:`repro.engine.symmetry`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.algorithm import Action, Algorithm, Match
from ..core.grid import Grid, Node
from ..core.views import Offset, Snapshot, ball_offsets
from .states import FrozenSnapshot

__all__ = ["LocalMatcher", "MatcherStats", "MatcherCache", "NodeTable", "node_table"]

#: A canonical, *position-independent* description of a robot's local
#: neighbourhood: the wall pattern (its distances to the four grid
#: boundaries, each capped at ``phi``) plus the sorted relative
#: ``(offset, color)`` pairs within distance ``phi``.  Two robots whose
#: neighbourhoods coincide up to translation share one key — this is what
#: lets a robot sweeping an empty row hit the cache at every column.
LocalKey = Tuple[Tuple[int, int, int, int], Tuple[Tuple[Node, str], ...]]


class NodeTable(dict):
    """Node -> ``(walls, ball)`` for one ``(phi, m, n)``, filled on lookup.

    ``walls`` are the node's distances to the four grid boundaries, each
    capped at ``phi``; ``ball`` maps every grid position within distance
    ``phi`` of the node to its offset from the node.  The first lookup of a
    node builds its entry, so a table holds only the nodes looked up so
    far: its size follows the states explored, not the grid.
    """

    __slots__ = ("phi", "m", "n")

    def __init__(self, phi: int, m: int, n: int) -> None:
        super().__init__()
        self.phi = phi
        self.m = m
        self.n = n

    def __missing__(self, node: Node) -> Tuple[Tuple[int, int, int, int], Dict[Node, Offset]]:
        # Threads sharing a table may both miss a node; they store equal
        # entries, so the race needs no lock.
        phi, m, n = self.phi, self.m, self.n
        i, j = node
        walls = (min(i, phi), min(m - 1 - i, phi), min(j, phi), min(n - 1 - j, phi))
        ball = {}
        for offset in ball_offsets(phi):
            position = (i + offset[0], j + offset[1])
            if 0 <= position[0] < m and 0 <= position[1] < n:
                ball[position] = offset
        entry = self[node] = (walls, ball)
        return entry


@lru_cache(maxsize=256)
def node_table(phi: int, m: int, n: int) -> NodeTable:
    """The shared :class:`NodeTable` of radius ``phi`` on the ``m x n`` grid."""
    return NodeTable(phi, m, n)


def _new_tables() -> Tuple[dict, dict, dict, dict, dict]:
    """One empty set of the five memo tables (see the module docstring)."""
    return ({}, {}, {}, {}, {})


class MatcherStats:
    """Hit/miss counters for the matcher's memo tables.

    A *hit* is any snapshot/match/action lookup served from a memo table; a
    *miss* is a lookup that had to run the underlying guard evaluation.
    ``evictions`` counts memo entries dropped by a bounded
    :class:`MatcherCache` enforcing its ``max_entries`` cap.  The
    counters are cumulative over the lifetime of the object, which may span
    many matchers when the stats belong to a shared :class:`MatcherCache`.
    """

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self, hits: int = 0, misses: int = 0, evictions: int = 0) -> None:
        self.hits = hits
        self.misses = misses
        self.evictions = evictions

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "MatcherStats") -> "MatcherStats":
        """Accumulate another counter pair into this one (returns self)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        return self

    def delta_since(self, snapshot: "MatcherStats") -> "MatcherStats":
        """The counters accumulated since ``snapshot`` was taken."""
        return MatcherStats(
            self.hits - snapshot.hits,
            self.misses - snapshot.misses,
            self.evictions - snapshot.evictions,
        )

    def snapshot(self) -> "MatcherStats":
        return MatcherStats(self.hits, self.misses, self.evictions)

    def as_dict(self) -> Dict[str, float]:
        # ``evictions`` deliberately stays off the dict: the dict rides on
        # results whose equality the routes must preserve, and eviction
        # counts depend on how full a particular route's cache happened to
        # run.  Read them from :attr:`MatcherCache.stats` instead.
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatcherStats(hits={self.hits}, misses={self.misses}, evictions={self.evictions})"


class LocalMatcher:
    """Snapshot/match computation for one ``(algorithm, grid)`` pair, memoized.

    The memo tables default to private per-matcher dictionaries; a
    :class:`MatcherCache` may instead hand several matchers for the same
    algorithm *shared* tables (see :meth:`MatcherCache.matcher_for`), which
    is safe because the keys never mention absolute positions or the grid
    shape.  ``stats`` counts hits and misses across all five table layers.
    ``nodes`` is the grid's shared :class:`NodeTable` for the algorithm's
    ``phi``.
    """

    __slots__ = (
        "algorithm",
        "grid",
        "stats",
        "nodes",
        "_snapshots",
        "_matches",
        "_actions",
        "_frozen_matches",
        "_frozen_actions",
    )

    def __init__(
        self,
        algorithm: Algorithm,
        grid: Grid,
        *,
        tables: Optional[Tuple[dict, dict, dict, dict, dict]] = None,
        stats: Optional[MatcherStats] = None,
    ) -> None:
        self.algorithm = algorithm
        self.grid = grid
        self.stats = stats if stats is not None else MatcherStats()
        self.nodes = node_table(algorithm.phi, grid.m, grid.n)
        if tables is None:
            tables = _new_tables()
        self._snapshots, self._matches, self._actions, self._frozen_matches, self._frozen_actions = tables

    # ------------------------------------------------------------------
    # Local neighbourhood keys
    # ------------------------------------------------------------------
    def local_key(self, robots: Iterable, center: Node) -> LocalKey:
        """The memoization key for a robot at ``center``.

        ``robots`` is any iterable of objects with ``pos`` and ``color``
        attributes (live :class:`~repro.core.robot.Robot` instances or the
        frozen records of a canonical state), all on the grid.  The key is
        translation invariant: only boundary distances capped at ``phi`` and
        *relative* robot offsets enter it, so identical local patterns at
        different grid positions — or on different grids — share one cache
        entry.  Both come from ``center``'s :class:`NodeTable` entry, so
        each robot costs one dictionary probe.
        """
        walls, ball = self.nodes[center]
        offset_of = ball.get
        near = [(offset, robot.color) for robot in robots if (offset := offset_of(robot.pos)) is not None]
        near.sort()
        return (walls, tuple(near))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, robots: Iterable, center: Node) -> Snapshot:
        """The snapshot a robot at ``center`` takes, as a fresh dictionary."""
        return dict(self.frozen_snapshot_for_key(self.local_key(robots, center)))

    def frozen_snapshot_for_key(self, key: LocalKey) -> FrozenSnapshot:
        """The (shared) frozen snapshot of an already-computed local key.

        Equal to :func:`~repro.engine.states.freeze_snapshot` of the
        snapshot dictionary: cells come out in :func:`ball_offsets` order,
        which is sorted.  The ASYNC Look stores it as it is.
        """
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            self.stats.misses += 1
            (north, south, west, east), near = key
            per_cell: Dict[Node, list] = {}
            for offset, color in near:  # near is sorted, so color lists come out sorted
                per_cell.setdefault(offset, []).append(color)
            cells = []
            for offset in ball_offsets(self.algorithm.phi):
                di, dj = offset
                # The cell exists iff the (phi-capped) boundary distances
                # admit it; |di|, |dj| <= phi, so the caps lose nothing.
                if di < -north or di > south or dj < -west or dj > east:
                    cells.append((offset, None))
                else:
                    cells.append((offset, tuple(per_cell.get(offset, ()))))
            snapshot = self._snapshots[key] = tuple(cells)
        else:
            self.stats.hits += 1
        return snapshot

    # ------------------------------------------------------------------
    # Matches and actions
    # ------------------------------------------------------------------
    def matches(self, robots: Iterable, center: Node, color: str) -> Tuple[Match, ...]:
        """All (rule, symmetry) matches for a robot at ``center`` with light ``color``."""
        return self.matches_for_key(self.local_key(robots, center), color)

    def matches_for_key(self, key: LocalKey, color: str) -> Tuple[Match, ...]:
        """Matches for an already-computed local key."""
        cache_key = (color, key)
        cached = self._matches.get(cache_key)
        if cached is None:
            self.stats.misses += 1
            snapshot = dict(self.frozen_snapshot_for_key(key))
            cached = tuple(self.algorithm.matches_for_snapshot(snapshot, color))
            self._matches[cache_key] = cached
        else:
            self.stats.hits += 1
        return cached

    def actions(self, robots: Iterable, center: Node, color: str) -> Tuple[Action, ...]:
        """The distinct enabled actions for a robot at ``center`` with light ``color``."""
        return self.actions_for_key(self.local_key(robots, center), color)

    def actions_for_key(self, key: LocalKey, color: str) -> Tuple[Action, ...]:
        """Distinct actions for an already-computed local key."""
        cache_key = (color, key)
        cached = self._actions.get(cache_key)
        if cached is None:
            self.stats.misses += 1
            cached = tuple(self.algorithm.distinct_actions(self.matches_for_key(key, color)))
            self._actions[cache_key] = cached
        else:
            self.stats.hits += 1
        return cached

    def matches_for_frozen(self, frozen: FrozenSnapshot, color: str) -> Tuple[Match, ...]:
        """Matches against a stored (frozen) ASYNC snapshot."""
        cache_key = (color, frozen)
        cached = self._frozen_matches.get(cache_key)
        if cached is None:
            self.stats.misses += 1
            cached = tuple(self.algorithm.matches_for_snapshot(dict(frozen), color))
            self._frozen_matches[cache_key] = cached
        else:
            self.stats.hits += 1
        return cached

    def actions_for_frozen(self, frozen: FrozenSnapshot, color: str) -> Tuple[Action, ...]:
        """Distinct actions against a stored (frozen) ASYNC snapshot: the Compute step's choices."""
        cache_key = (color, frozen)
        cached = self._frozen_actions.get(cache_key)
        if cached is None:
            self.stats.misses += 1
            cached = tuple(self.algorithm.distinct_actions(self.matches_for_frozen(frozen, color)))
            self._frozen_actions[cache_key] = cached
        else:
            self.stats.hits += 1
        return cached

    # ------------------------------------------------------------------
    # Batched matching (one synchronous round)
    # ------------------------------------------------------------------
    def batched_matches(self, robots: Sequence) -> List[Tuple[object, Tuple[Match, ...]]]:
        """``(robot, matches)`` for every robot, in one pass.

        Each robot's key reads its walls and ball from the node table, so a
        round costs one probe per pair of robots; the keys — and therefore
        the matches — are identical to per-robot :meth:`matches` calls.  The
        synchronous walk evaluates a whole round with this one call.
        """
        local_key = self.local_key
        matches_for_key = self.matches_for_key
        return [(robot, matches_for_key(local_key(robots, robot.pos), robot.color)) for robot in robots]


class MatcherCache:
    """Persistent snapshot/match memo tables, shareable across grid sizes.

    The matcher's keys are translation invariant and cap boundary distances
    at ``phi``, so an entry learned on one grid is valid for the same
    algorithm on *every* grid: only the algorithm's rules, colors and
    ``phi`` enter the cached computation.  This object owns one set of memo
    tables (plus one :class:`MatcherStats`) per algorithm and hands out
    :class:`LocalMatcher` views onto them via :meth:`matcher_for` — thread
    it through repeated checks (a grid sweep, a scaling run, a campaign) and
    every size after the first starts warm on all interior patterns.

    Sharing is keyed on the algorithm's content
    :attr:`~repro.core.algorithm.Algorithm.digest`, not its name or
    identity: two algorithms that share a name but differ in content never
    see each other's entries, while equal copies — such as the unpickled
    copy every campaign task ships to a pool worker — share one set of
    tables.  Matching runs on the *first* copy of each digest the cache
    saw, so an algorithm's guards are compiled once per cache however many
    copies arrive.  The cache is designed for reuse within one process;
    the parallel campaign engine keeps one per worker process instead of
    shipping it across the boundary.

    ``max_entries`` bounds the total memo entries across all algorithms
    and table layers.  The bound is enforced at :meth:`matcher_for` time
    (matchers append to the shared tables without telling the cache, so a
    burst within one exploration can overshoot until the next handout):
    oldest-inserted entries go first — dict order approximates LRU well
    here because long-running workloads re-insert nothing and the oldest
    patterns belong to the coldest grids — and every evicted entry counts
    on the owning algorithm's ``stats.evictions``.  The default cap is
    high: a process-lifetime campaign cache stays bounded without any
    realistic workload ever touching it.
    """

    def __init__(self, max_entries: int = 1_000_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._tables: Dict[str, Tuple[dict, dict, dict, dict, dict]] = {}
        self._first: Dict[str, Algorithm] = {}
        self._stats: Dict[str, MatcherStats] = {}

    def _register(self, algorithm: Algorithm) -> str:
        """Record the first copy of ``algorithm``'s digest and its stats."""
        key = algorithm.digest
        if key not in self._stats:
            self._first[key] = algorithm
            self._stats[key] = MatcherStats()
        return key

    def matcher_for(self, algorithm: Algorithm, grid: Grid) -> LocalMatcher:
        """A matcher for ``(algorithm, grid)`` backed by the shared tables.

        The matcher runs on the first copy of ``algorithm``'s digest this
        cache saw (equal in content), whose compiled guards are warm.
        """
        key = self._register(algorithm)
        tables = self._tables.get(key)
        if tables is None:
            tables = self._tables[key] = _new_tables()
        self._trim()
        return LocalMatcher(self._first[key], grid, tables=tables, stats=self._stats[key])

    def _trim(self) -> None:
        """Evict oldest-inserted entries until the cache fits its bound."""
        excess = self.entry_count() - self.max_entries
        if excess <= 0:
            return
        for key, tables in self._tables.items():
            stats = self._stats[key]
            for table in tables:
                while excess > 0 and table:
                    del table[next(iter(table))]
                    stats.evictions += 1
                    excess -= 1
            if excess <= 0:
                break

    def stats_for(self, algorithm: Algorithm) -> MatcherStats:
        """The live counters for one algorithm.

        Registers the algorithm on first request, so the returned object is
        always the same :class:`MatcherStats` instance later matchers from
        :meth:`matcher_for` will increment — callers may hold it before any
        matcher exists and never miss a count.
        """
        return self._stats[self._register(algorithm)]

    @property
    def stats(self) -> MatcherStats:
        """Aggregate counters over every algorithm in the cache."""
        total = MatcherStats()
        for stats in self._stats.values():
            total.merge(stats)
        return total

    def entry_count(self) -> int:
        """Total number of memoized entries across all algorithms and tables."""
        return sum(len(table) for tables in self._tables.values() for table in tables)
