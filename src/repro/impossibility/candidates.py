"""Candidate two-robot phi = 1 algorithms used to demonstrate Theorem 1.

Theorem 1 is a statement about *all* algorithms with ``k = 2`` and
``phi = 1`` under SSYNC.  The refuter of :mod:`repro.impossibility.refuter`
is exact for any single candidate; this module provides a small library of
natural candidates to feed it:

* the paper's own Algorithm 3 (``fsync_phi1_l3_chir_k2``) — a correct
  FSYNC algorithm whose guarantees Theorem 1 says cannot survive an SSYNC
  scheduler;
* a "greedy pair" sweep that tries to reproduce Algorithm 1's behaviour
  with visibility one only;
* a naive "follower" algorithm in which one robot walks and the other
  chases it.

None of these (nor any other candidate) can achieve terminating
exploration under SSYNC; the demonstration in
:mod:`repro.impossibility.theorem1` runs the refuter on each.
"""

from __future__ import annotations

from typing import Dict, List

from ..algorithms import get
from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["candidate_two_robot_algorithms"]


def _greedy_pair() -> Algorithm:
    """A 2-robot, phi = 1, 2-color sweep attempt (leader/follower pair)."""
    rules = (
        Rule("R1", W, Guard.build(1, W=occ(G), E=EMPTY), W, "E"),
        Rule("R2", G, Guard.build(1, E=occ(W)), G, "E"),
        Rule("R3", W, Guard.build(1, W=occ(G), E=WALL, S=EMPTY), W, "S"),
        Rule("R4", G, Guard.build(1, N=occ(W), E=WALL, W=EMPTY), G, "W"),
        Rule("R5", W, Guard.build(1, E=occ(G), W=EMPTY), W, "W"),
        Rule("R6", G, Guard.build(1, W=occ(W)), G, "W"),
        Rule("R7", W, Guard.build(1, E=occ(G), W=WALL, S=EMPTY), W, "S"),
        Rule("R8", G, Guard.build(1, N=occ(W), W=WALL, E=EMPTY), G, "E"),
    )
    return Algorithm(
        name="candidate_greedy_pair_phi1_k2",
        synchrony=Synchrony.SSYNC,
        phi=1,
        colors=(G, W),
        chirality=True,
        k=2,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W)),
        min_m=2,
        min_n=3,
        paper_section="3 (candidate)",
        description="Candidate 2-robot phi=1 sweep used to illustrate Theorem 1",
    )


def _chaser() -> Algorithm:
    """A naive 2-robot candidate: a walker and a chaser."""
    rules = (
        Rule("R1", G, Guard.build(1, E=occ(W), W=EMPTY), G, "W"),
        Rule("R2", G, Guard.build(1, S=occ(W), N=EMPTY), G, "N"),
        Rule("R3", W, Guard.build(1, W=occ(G), E=EMPTY), W, "E"),
        Rule("R4", W, Guard.build(1, N=occ(G), S=EMPTY), W, "S"),
    )
    return Algorithm(
        name="candidate_chaser_phi1_k2",
        synchrony=Synchrony.SSYNC,
        phi=1,
        colors=(G, W),
        chirality=True,
        k=2,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W)),
        min_m=2,
        min_n=3,
        paper_section="3 (candidate)",
        description="Naive walker/chaser candidate used to illustrate Theorem 1",
    )


def candidate_two_robot_algorithms() -> Dict[str, Algorithm]:
    """The candidate library, keyed by name."""
    candidates: List[Algorithm] = [
        get("fsync_phi1_l3_chir_k2"),
        _greedy_pair(),
        _chaser(),
    ]
    return {algorithm.name: algorithm for algorithm in candidates}
