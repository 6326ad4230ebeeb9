"""``build_tensor`` and ``parse_tensor_text`` check entries as arrays and
still decide exactly as the per-entry loop did.

That loop is kept here as the reference: one entry at a time, arity, then
range, finiteness, sign and duplicates, so the first offending entry in
input order decides the error.  On valid input the stored arrays must
match it byte for byte, layout and flags included; on invalid input the
exception type and message must match.  The text parser gets the same
entries as lines and must raise the same type (a format error where the
loop saw a bad arity), naming the offending line.  The property runs at
the ``max_examples`` of the loaded hypothesis profile (``tests/conftest.py``).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeigen import Tensor, build_tensor, parse_tensor_text
from zeigen.errors import (
    BadArity,
    DuplicateIndexTuple,
    IndexOutOfRange,
    NegativeEntry,
    TensorFormatError,
    ZeigenError,
)


def reference_build(m: int, n: int, entries) -> Tensor:
    entries = list(entries)
    idx = np.zeros((len(entries), m), dtype=np.intp, order="F")
    vals = np.zeros(len(entries))
    seen: set[tuple[int, ...]] = set()
    for row, (tup, value) in enumerate(entries):
        tup = tuple(int(i) for i in tup)
        if len(tup) != m:
            raise BadArity(f"index tuple {tup} has {len(tup)} indices, expected {m}")
        if any(i < 1 or i > n for i in tup):
            raise IndexOutOfRange(f"index tuple {tup} out of range [1, {n}]")
        value = float(value)
        if not np.isfinite(value):
            raise NegativeEntry(f"entry {tup} has non-finite value {value}")
        if value < 0:
            raise NegativeEntry(f"entry {tup} has negative value {value}")
        if tup in seen:
            raise DuplicateIndexTuple(f"index tuple {tup} appears more than once")
        seen.add(tup)
        idx[row] = [i - 1 for i in tup]
        vals[row] = value

    idx.setflags(write=False)
    vals.setflags(write=False)
    return Tensor(m=int(m), n=int(n), indices=idx, values=vals)


def reference_outcome(m: int, n: int, entries):
    """``(tensor, None)``, or ``(None, (error type, message, k))`` where
    entry ``k`` is the one the loop stopped at: the last of the shortest
    failing prefix."""
    for k in range(len(entries)):
        try:
            reference_build(m, n, entries[: k + 1])
        except ZeigenError as exc:
            return None, (type(exc), str(exc), k)
    return reference_build(m, n, entries), None


FLAGS = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED", "WRITEBACKIFCOPY")


def assert_same_array(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert [actual.flags[f] for f in FLAGS] == [expected.flags[f] for f in FLAGS]
    assert actual.tobytes() == expected.tobytes()


def assert_same_tensor(actual: Tensor, expected: Tensor) -> None:
    assert (actual.m, actual.n) == (expected.m, expected.n)
    assert_same_array(actual.indices, expected.indices)
    assert_same_array(actual.values, expected.values)


BAD_VALUES = [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")]


@st.composite
def entry_lists(draw):
    """Valid entries with up to four faults put in anywhere: a tuple one
    index short or long, an index 0 or n + 1, a negative or non-finite
    value, or a repeat of an earlier tuple."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 8))
    tup = st.tuples(*[st.integers(1, n)] * m)
    value = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, -0.0]))
    entries = draw(st.lists(st.tuples(tup, value), max_size=30, unique_by=lambda e: e[0]))
    for _ in range(draw(st.integers(0, 4)) if entries else 0):
        k = draw(st.integers(0, len(entries) - 1))
        t, v = entries[k]
        fault = draw(st.sampled_from(["arity", "range", "value", "repeat"]))
        if fault == "arity":
            entries[k] = (t[:-1] if draw(st.booleans()) else t + (1,), v)
        elif fault == "range":
            j = draw(st.integers(0, m - 1))
            entries[k] = (t[:j] + (draw(st.sampled_from([0, n + 1])),) + t[j + 1 :], v)
        elif fault == "value":
            entries[k] = (t, draw(st.sampled_from(BAD_VALUES)))
        else:
            entries.insert(draw(st.integers(k + 1, len(entries))), (t, draw(value)))
    return m, n, entries


def render(m: int, n: int, entries) -> str:
    lines = [f"{m} {n}"]
    for tup, value in entries:
        lines.append(" ".join(str(i) for i in tup) + f" {value!r}")
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(entry_lists())
def test_build_and_parse_decide_like_the_reference_loop(case):
    m, n, entries = case
    expected, error = reference_outcome(m, n, entries)
    text = render(m, n, entries)

    if error is None:
        assert_same_tensor(build_tensor(m, n, entries), expected)
        assert_same_tensor(parse_tensor_text(text), expected)
        return

    kind, message, k = error
    with pytest.raises(kind) as built:
        build_tensor(m, n, entries)
    assert (type(built.value), str(built.value)) == (kind, message)

    # a line of the wrong length is a format error; the header is line 1,
    # so entry k is line k + 2
    with pytest.raises(ZeigenError) as parsed:
        parse_tensor_text(text, source="t.tns")
    assert type(parsed.value) is (TensorFormatError if kind is BadArity else kind)
    assert str(parsed.value).startswith(f"t.tns:{k + 2}: ")
    if isinstance(parsed.value, DuplicateIndexTuple):
        tup = tuple(int(i) for i in entries[k][0])
        first = next(j for j, (t, _) in enumerate(entries) if t == tup)
        assert str(parsed.value).endswith(f"already defined on line {first + 2}")


@settings(deadline=None)
@given(entry_lists(), st.floats(0.0, 0.999))
def test_float_indices_truncate_like_int(case, frac):
    m, n, entries = case
    shifted = [(tuple(i + frac for i in tup), value) for tup, value in entries]
    expected, error = reference_outcome(m, n, shifted)
    if error is None:
        assert_same_tensor(build_tensor(m, n, shifted), expected)
    else:
        with pytest.raises(ZeigenError) as built:
            build_tensor(m, n, shifted)
        assert (type(built.value), str(built.value)) == error[:2]


def test_empty_and_single_entry_layouts():
    # a (0, m) or (1, m) array is C- and F-contiguous at once; the strides
    # must still be those of the loop's Fortran-order array
    for m in range(2, 6):
        for entries in ([], [((1,) * m, 2.5)]):
            expected = reference_build(m, 3, entries)
            assert_same_tensor(build_tensor(m, 3, entries), expected)
            assert_same_tensor(parse_tensor_text(render(m, 3, entries)), expected)


def test_message_names_the_tuple_as_int_reads_it():
    with pytest.raises(IndexOutOfRange, match=re.escape("index tuple (1, 9) out of range [1, 2]")):
        build_tensor(2, 2, [((1.7, 9.2), 1.0)])
