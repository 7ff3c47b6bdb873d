"""Property: the masked gap-repair kernel equals the run loop bit for bit.

:func:`repro.data.preprocessing.repair_gaps` repairs a whole
(rows × slots) matrix in one masked pass.  The oracle below is the
per-row run loop it replaced, kept verbatim: it walks each NaN run and
fills it with :func:`numpy.interp` (interior), the right neighbour
(leading) or the left neighbour (trailing) when the run is at most
``max_gap`` long.  Rows are drawn as segments of readings and NaN runs,
so leading, trailing and interior runs, runs longer than ``max_gap`` and
all-NaN rows all occur; equality is checked on the raw bit patterns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.preprocessing import interpolate_gaps, repair_gaps


def _run_loop(series: np.ndarray, max_gap: int) -> np.ndarray:
    """The scalar repair: one pass over each NaN run of one row."""
    arr = np.asarray(series, dtype=float).ravel().copy()
    isnan = np.isnan(arr)
    if not isnan.any() or isnan.all():
        return arr
    run_start = None
    for i in range(arr.size + 1):
        missing = i < arr.size and isnan[i]
        if missing and run_start is None:
            run_start = i
        elif not missing and run_start is not None:
            run_len = i - run_start
            if run_len <= max_gap:
                left = run_start - 1
                right = i if i < arr.size else None
                if left < 0 and right is not None:
                    arr[run_start:i] = arr[right]
                elif right is None and left >= 0:
                    arr[run_start:i] = arr[left]
                elif left >= 0 and right is not None:
                    arr[run_start:i] = np.interp(
                        np.arange(run_start, i),
                        [left, right],
                        [arr[left], arr[right]],
                    )
            run_start = None
    return arr


_READING = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
) | st.sampled_from([0.0, -0.0, 1e-300, 5e-324])

#: A row is a sequence of segments: a run of readings or a NaN run.
_SEGMENT = st.one_of(
    st.lists(_READING, min_size=1, max_size=6),
    st.integers(min_value=1, max_value=12).map(lambda n: [np.nan] * n),
)


@st.composite
def _rows(draw, width: int):
    segments = draw(st.lists(_SEGMENT, min_size=1, max_size=12))
    row = [value for segment in segments for value in segment][:width]
    return row + [np.nan] * (width - len(row))


@st.composite
def _matrices(draw):
    width = draw(st.integers(min_value=1, max_value=40))
    rows = draw(st.lists(_rows(width), min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.append([np.nan] * width)
    return np.array(rows, dtype=float)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


@settings(max_examples=300, deadline=None)
@given(matrix=_matrices(), max_gap=st.integers(min_value=1, max_value=8))
def test_matrix_repair_is_bit_identical_to_the_run_loop(matrix, max_gap):
    before = matrix.copy()
    repaired = repair_gaps(matrix, max_gap)
    expected = np.array([_run_loop(row, max_gap) for row in before])
    assert np.array_equal(_bits(repaired), _bits(expected))
    assert np.array_equal(_bits(matrix), _bits(before))  # input untouched


@settings(max_examples=200, deadline=None)
@given(
    row=st.integers(min_value=1, max_value=40).flatmap(_rows),
    max_gap=st.integers(min_value=1, max_value=8),
)
def test_one_row_case_matches_the_run_loop(row, max_gap):
    series = np.array(row, dtype=float)
    if np.isnan(series).all():
        return  # interpolate_gaps refuses an all-missing series
    assert np.array_equal(
        _bits(interpolate_gaps(series, max_gap)),
        _bits(_run_loop(series, max_gap)),
    )
