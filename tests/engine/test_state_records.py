"""Records and states are tuples: their order, pickles, views and frozenness.

An :class:`AsyncRobotState` is the tuple ``(pos, color, phase, snapshot,
pending_color, pending_move)`` with ``()``, ``""`` and ``(9, 9)`` standing
for absent fields, and a :class:`SchedulerState` is the tuple of its sorted
records.  :func:`old_key` below is the sort key records had before they
were tuples, spelled out from the constructor's arguments: tuple order
must agree with it on every kind of record, so every state number, orbit
representative and witness stays what it was.
"""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.algorithms import get
from repro.core import Grid
from repro.core.views import ball_offsets
from repro.engine import AlgorithmTransitionSystem, canonicalize, grid_symmetries, initial_state
from repro.engine.states import AsyncRobotState, SchedulerState
from repro.engine.store import iter_records

GRID = Grid(4, 4)
COLORS = ("B", "G", "W")
PHASES = ("idle", "looked", "computed")
MOVES = ((0, 1), (1, 0), (0, -1), (-1, 0))


def old_key(fields: dict) -> tuple:
    """The pre-tuple ``AsyncRobotState.key()``, from the constructor's arguments."""
    return (
        fields["pos"],
        fields["color"],
        fields["phase"],
        fields["snapshot"] if fields["snapshot"] is not None else (),
        fields["pending_color"] or "",
        fields["pending_move"] if fields["pending_move"] is not None else (9, 9),
    )


@st.composite
def record_fields(draw) -> dict:
    """Constructor arguments for any record: every phase, each field present or absent.

    A snapshot's wall cells (``None``) follow from its position, as the
    kernel's do, so two snapshots that tie up to them never compare a wall
    with a colour tuple.
    """
    pos = draw(st.sampled_from(list(GRID.nodes())))
    snapshot = None
    if draw(st.booleans()):
        cells = []
        for di, dj in ball_offsets(1):
            if GRID.contains((pos[0] + di, pos[1] + dj)):
                cells.append(((di, dj), tuple(sorted(draw(st.lists(st.sampled_from(COLORS), max_size=2))))))
            else:
                cells.append(((di, dj), None))
        snapshot = tuple(cells)
    return {
        "pos": pos,
        "color": draw(st.sampled_from(COLORS)),
        "phase": draw(st.sampled_from(PHASES)),
        "snapshot": snapshot,
        "pending_color": draw(st.none() | st.sampled_from(COLORS)),
        "pending_move": draw(st.none() | st.sampled_from(MOVES)),
    }


class TestTupleOrder:
    @given(st.lists(record_fields(), max_size=8))
    def test_tuple_order_is_the_old_key_order(self, drawn):
        records = [AsyncRobotState(**fields) for fields in drawn]
        by_old_key = [record for _, record in sorted(zip(drawn, records), key=lambda pair: old_key(pair[0]))]
        assert sorted(records) == by_old_key
        assert SchedulerState.from_records(records) == tuple(by_old_key)
        for fields, record in zip(drawn, records):
            assert tuple(record) == old_key(fields)
        for a, b in zip(drawn, drawn[1:]):
            assert (AsyncRobotState(**a) < AsyncRobotState(**b)) == (old_key(a) < old_key(b))

    @given(record_fields())
    def test_views_read_the_constructor_arguments(self, fields):
        record = AsyncRobotState(**fields)
        assert {name: getattr(record, name) for name in fields} == fields

    def test_equality_is_value_equality(self):
        a = AsyncRobotState(pos=(1, 2), color="B")
        b = AsyncRobotState(pos=(1, 2), color="B")
        c = AsyncRobotState(pos=(1, 2), color="W")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a.__eq__(object()) is NotImplemented

    def test_absent_fields_read_none(self):
        record = AsyncRobotState(pos=(1, 2), color="B")
        assert (record.phase, record.snapshot, record.pending_color, record.pending_move) == (
            "idle", None, None, None,
        )
        assert tuple(record) == ((1, 2), "B", "idle", (), "", (9, 9))


def _async_states(count: int = 40):
    """States an ASYNC exploration reaches, looked and computed records included."""
    algorithm = get("async_phi2_l3_chir_k2")
    ts = AlgorithmTransitionSystem(algorithm, Grid(3, 4), "ASYNC")
    states, frontier = [], [ts.initial()]
    while frontier and len(states) < count:
        state = frontier.pop(0)
        states.append(state)
        frontier.extend(ts.successors(state))
    return states


class TestPickles:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_records_and_states_round_trip(self, protocol):
        states = _async_states()
        assert {record.phase for state in states for record in state} == set(PHASES)
        for state in states:
            clone = pickle.loads(pickle.dumps(state, protocol=protocol))
            assert type(clone) is SchedulerState
            assert clone == state and hash(clone) == hash(state)
            for record, copied in zip(state, clone):
                assert type(copied) is AsyncRobotState
                assert copied == record and hash(copied) == hash(record)

    def test_the_zero_argument_path_builds_inert_values(self):
        # A pre-tuple pickle: NEWOBJ with no argument, then BUILD with the
        # old state, which the tuple cannot take and drops.
        record = AsyncRobotState()
        record.__setstate__(((1, 2), "B", "idle", None, None, None))
        state = SchedulerState()
        state.__setstate__((AsyncRobotState(pos=(1, 2), color="B"),))
        assert (record, state) == ((), ())

    def test_a_pre_tuple_exploration_decodes_with_inert_states(self):
        segment = Path(__file__).with_name("data") / "store_before_symmetry_tables" / "seg-0.log"
        [(_, exploration, _)] = list(iter_records(segment.read_bytes()))
        assert exploration.num_states == 8
        assert all(type(state) is SchedulerState and state == () for state in exploration.states)


class TestFrozen:
    def test_records_and_states_are_frozen_without_dict(self):
        state = initial_state(get("fsync_phi2_l2_chir_k2"), Grid(3, 3))
        record = state[0]
        for value, field in ((record, "pos"), (state, "robots")):
            assert not hasattr(value, "__dict__")
            with pytest.raises(FrozenInstanceError):
                setattr(value, field, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, field)
            with pytest.raises(FrozenInstanceError):
                value.not_a_field = 1

    def test_robots_is_the_state(self):
        state = initial_state(get("fsync_phi2_l2_chir_k2"), Grid(3, 3))
        assert state.robots is state
        assert state.sort_key() is state


class TestKernelOutputs:
    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    def test_successors_are_states_of_records(self, model):
        algorithm = get("async_phi2_l3_chir_k2")
        ts = AlgorithmTransitionSystem(algorithm, Grid(3, 4), model)
        frontier, seen = [ts.initial()], 0
        while frontier and seen < 30:
            for successor in ts.successors(frontier.pop(0)):
                assert type(successor) is SchedulerState
                assert all(type(record) is AsyncRobotState for record in successor)
                assert list(successor) == sorted(successor)
                frontier.append(successor)
                seen += 1
        assert seen

    def test_canonicalize_returns_states_of_records(self):
        symmetries = grid_symmetries(Grid(3, 4), chirality=False)
        moved = 0
        for state in _async_states():
            rep, h = canonicalize(state, symmetries)
            assert type(rep) is SchedulerState
            assert all(type(record) is AsyncRobotState for record in rep)
            moved += h is not None
        assert moved
