#!/usr/bin/env python3
"""Define a new exploration algorithm with the rule DSL and model-check it.

This example shows the full workflow a user of the library would follow to
study their own myopic-luminous-robot algorithm:

1. write the rules with the guard DSL (here using the ASCII guard art);
2. wrap them into an :class:`repro.core.Algorithm`;
3. simulate it under FSYNC;
4. exhaustively model-check it under the SSYNC adversary on a small grid —
   which, for this deliberately FSYNC-only design, finds the adversarial
   schedule that breaks it, illustrating why the paper needs the dedicated
   Section 4.3 algorithms for SSYNC/ASYNC.

Usage::

    python examples/custom_algorithm.py
"""

from __future__ import annotations

from repro import core
from repro.checking import check_terminating_exploration
from repro.core import Algorithm, G, Grid, Rule, Synchrony, W, parse_guard_art


def build_custom_algorithm() -> Algorithm:
    """A two-robot sweep written with the ASCII guard syntax.

    The robots reproduce Algorithm 1's behaviour but with visibility one,
    so (by Theorem 1) no amount of tweaking can make them SSYNC-correct.
    """
    rules = (
        Rule("follow_east", W, parse_guard_art(1, """
            _ . _
            G * o
            _ . _
        """), W, "E"),
        Rule("lead_east", G, parse_guard_art(1, """
            _ . _
            . * W
            _ . _
        """), G, "E"),
        Rule("drop_south", W, parse_guard_art(1, """
            _ . _
            G * #
            _ o _
        """), W, "S"),
        Rule("turn_west", G, parse_guard_art(1, """
            _ . _
            o * #
            _ W _
        """), G, "W"),
        Rule("follow_west", W, parse_guard_art(1, """
            _ . _
            o * G
            _ . _
        """), W, "W"),
        Rule("lead_west", G, parse_guard_art(1, """
            _ . _
            W * .
            _ . _
        """), G, "W"),
        Rule("drop_south_w", W, parse_guard_art(1, """
            _ . _
            # * G
            _ o _
        """), W, "S"),
        Rule("turn_east", G, parse_guard_art(1, """
            _ . _
            # * o
            _ W _
        """), G, "E"),
    )
    return Algorithm(
        name="custom_phi1_pair_sweep",
        synchrony=Synchrony.FSYNC,
        phi=1,
        colors=(G, W),
        chirality=True,
        k=2,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W)),
        min_m=2,
        min_n=3,
        description="User-defined 2-robot phi=1 sweep (FSYNC only, per Theorem 1)",
    )


def main() -> int:
    algorithm = build_custom_algorithm()
    print(f"Custom algorithm: {algorithm.summary()}")
    for rule in algorithm.rules:
        print(f"  {rule}")

    print("\n--- FSYNC simulation on 4x5 ---")
    result = core.run_fsync(algorithm, Grid(4, 5), tie_break="first")
    print(result.summary())

    print("\n--- Exhaustive SSYNC model checking on 3x4 ---")
    check = check_terminating_exploration(algorithm, Grid(3, 4), model="SSYNC")
    print(check.summary())
    if not check.ok:
        print(
            "\nAs predicted by Theorem 1 (two robots, visibility one), an adversarial"
            "\nsemi-synchronous scheduler defeats this algorithm even though the fully"
            "\nsynchronous run above succeeds.  Compare with the paper's k=3 algorithm:"
        )
        from repro.algorithms import get

        control = check_terminating_exploration(get("async_phi1_l3_chir_k3"), Grid(3, 4), model="SSYNC")
        print(control.summary())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
