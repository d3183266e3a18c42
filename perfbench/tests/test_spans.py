"""Self-time arithmetic and span recording."""

import pytest

from perfbench.spans import Patches, SpanRecorder, self_times


def test_self_time_subtracts_children_and_excluded_intervals():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9].
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    excluded = [(2.2, 2.4), (9.5, 9.8), (11.0, 12.0)]  # in C, in A only, outside
    assert self_times(starts, ends, parents, excluded) == pytest.approx([2.7, 2.0, 0.8, 4.0])


def test_excluded_interval_after_a_sibling_goes_to_the_parent():
    starts, ends, parents = [0.0, 1.0], [10.0, 2.0], [-1, 0]
    assert self_times(starts, ends, parents, [(3.0, 4.0)]) == pytest.approx([8.0, 1.0])


class _Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return sum(range(n))


def test_recorder_nests_spans_and_patches_restore():
    original_outer, original_inner = _Toy.__dict__["outer"], _Toy.__dict__["inner"]
    recorder = SpanRecorder()
    patches = Patches()
    patches.wrap_method(_Toy, "outer", lambda fn: recorder.wrapper(fn, "Toy.outer", "ftl", new_request=True))
    patches.wrap_method(_Toy, "inner", lambda fn: recorder.wrapper(fn, "Toy.inner", "nand"))
    try:
        assert _Toy().outer(1000) == sum(range(1000)) + 1
        assert _Toy().outer(10) == 46
    finally:
        patches.restore()
    assert _Toy.__dict__["outer"] is original_outer and _Toy.__dict__["inner"] is original_inner
    assert list(recorder.parent) == [-1, 0, -1, 2]
    assert list(recorder.request) == [0, 0, 1, 1]
    assert recorder.calls() == {"Toy.outer": 2, "Toy.inner": 2}
    (totals,) = recorder.layer_self_seconds([(recorder.start[0], recorder.end[-1])])
    covered = (recorder.end[0] - recorder.start[0]) + (recorder.end[2] - recorder.start[2])
    assert totals["ftl"] + totals["nand"] == pytest.approx(covered)
    assert totals["nand"] > 0 and totals["exp"] == 0.0
