import pytest

from perfbench import stats


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(200))
    pct, value, count = stats.tail_percentile(values)
    assert (pct, count) == (95.0, 200)
    assert value == pytest.approx(stats.percentile(values, 95.0))
    assert stats.beyond(200, 95.0) == 10


@pytest.mark.parametrize(
    "count, expected",
    [(199, 90.0), (1000, 99.0), (100, 90.0), (99, 75.0), (20, 50.0)],
)
def test_tail_percentile_steps_down_when_samples_are_short(count, expected):
    pct, _, reported = stats.tail_percentile([float(i) for i in range(count)])
    assert pct == expected
    assert reported == count
    assert stats.beyond(count, pct) >= stats.TAIL_MIN_BEYOND


def test_tail_percentile_none_below_twenty_samples():
    assert stats.tail_percentile(list(range(19))) is None


def test_percentile_matches_linear_interpolation():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert stats.percentile([5.0], 95.0) == 5.0
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


def test_self_time_counts_overlapping_children_once():
    # Parent [0, 10]; children [1, 4] and [3, 6] overlap on [3, 4].
    assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0


def test_self_time_clips_children_to_the_parent():
    assert stats.self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 8.0


def test_self_time_nested_and_disjoint_children():
    children = [(2.0, 8.0), (3.0, 4.0), (8.5, 9.0)]
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(3.5)
    assert stats.self_time(0.0, 10.0, []) == 10.0
