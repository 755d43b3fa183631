"""Register file wrapping semantics and scoreboard hazard tracking."""

import numpy as np
from hypothesis import given, strategies as st

from repro.sim.registers import RegisterFile, wrap_i32
from repro.sim.scoreboard import Scoreboard

# ---------------------------------------------------------------- wrap


def test_wrap_positive_in_range():
    values = np.array([0, 1, 2**31 - 1], dtype=np.int64)
    assert (wrap_i32(values) == values).all()


def test_wrap_overflow():
    values = np.array([2**31, 2**32 - 1, 2**32], dtype=np.int64)
    assert wrap_i32(values).tolist() == [-(2**31), -1, 0]


def test_wrap_negative():
    values = np.array([-1, -(2**31)], dtype=np.int64)
    assert wrap_i32(values).tolist() == [-1, -(2**31)]


@given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=32))
def test_wrap_matches_python_two_complement(values):
    wrapped = wrap_i32(np.array(values, dtype=np.int64))
    for raw, got in zip(values, wrapped):
        expected = ((raw + 2**31) % 2**32) - 2**31
        assert int(got) == expected


@given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=8))
def test_wrap_is_idempotent(values):
    arr = np.array(values, dtype=np.int64)
    assert (wrap_i32(wrap_i32(arr)) == wrap_i32(arr)).all()


# ---------------------------------------------------------- register file


def test_register_masked_write():
    rf = RegisterFile(4, ["r1"], ["p1"])
    mask = np.array([True, False, True, False])
    rf.write("r1", np.array([5, 6, 7, 8]), mask)
    assert rf.read("r1").tolist() == [5, 0, 7, 0]


def test_predicate_masked_write():
    rf = RegisterFile(4, ["r1"], ["p1"])
    mask = np.array([False, True, True, False])
    rf.write_pred("p1", np.array([True, True, False, True]), mask)
    assert rf.read_pred("p1").tolist() == [False, True, False, False]


def test_register_write_wraps():
    rf = RegisterFile(2, ["r1"], [])
    rf.write("r1", np.array([2**31, -1]), np.array([True, True]))
    assert rf.read("r1").tolist() == [-(2**31), -1]


# -------------------------------------------------------------- scoreboard


def test_scoreboard_empty_is_ready():
    sb = Scoreboard()
    assert sb.ready(["r:r1", "p:p1"], now=0)


def test_scoreboard_blocks_until_release():
    sb = Scoreboard()
    sb.reserve(["r:r1"], release_cycle=10)
    assert not sb.ready(["r:r1"], now=5)
    assert sb.ready(["r:r1"], now=10)
    assert sb.ready(["r:r2"], now=5)


def test_scoreboard_keeps_latest_release():
    sb = Scoreboard()
    sb.reserve(["r:r1"], 10)
    sb.reserve(["r:r1"], 5)  # earlier reservation must not shrink it
    assert not sb.ready(["r:r1"], 7)
    sb.reserve(["r:r1"], 20)
    assert not sb.ready(["r:r1"], 15)


def test_next_release():
    sb = Scoreboard()
    sb.reserve(["r:r1"], 10)
    sb.reserve(["r:r2"], 30)
    assert sb.next_release(["r:r1"], 0) == 10
    assert sb.next_release(["r:r1", "r:r2"], 0) == 30
    assert sb.next_release(["r:r3"], 0) is None
    assert sb.next_release(["r:r1"], 15) is None


@given(
    reservations=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 100)),
        max_size=20,
    ),
    query_time=st.integers(0, 120),
)
def test_scoreboard_ready_iff_all_released(reservations, query_time):
    sb = Scoreboard()
    latest = {}
    for name, release in reservations:
        sb.reserve([name], release)
        latest[name] = max(latest.get(name, 0), release)
    for name in ("a", "b", "c"):
        expected = latest.get(name, 0) <= query_time
        assert sb.ready([name], query_time) == expected
