"""Order statistics, span self times and the bench-diff verdicts."""

import pytest

from compare import judge
from measure import beyond, percentile, self_times, supported


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.5) == pytest.approx(50.5)
    assert percentile(values, 0.9) == pytest.approx(90.1)
    assert percentile(list(reversed(values)), 0.0) == 1
    assert percentile(values, 1.0) == 100
    assert percentile([], 0.9) == 0.0


def test_a_percentile_needs_ten_samples_beyond_it():
    assert beyond(100, 0.9) == 10 and supported(100, 0.9)
    assert beyond(99, 0.9) == 9 and not supported(99, 0.9)
    assert not supported(999, 0.99) and supported(1000, 0.99)
    assert supported(35, 0.5) and not supported(35, 0.9)  # sim-large, pooled


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent}


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        _span(0, "op", 0, 100),
        _span(1, "runtime.run", 10, 90, parent=0),
        _span(2, "backends.counts", 20, 40, parent=1),
        _span(3, "backends.transition", 30, 60, parent=1),  # overlaps 2
        _span(4, "network.to_csr", 85, 95, parent=1),  # ends past its parent
    ]
    own = self_times(spans)
    assert own == {0: 20, 1: 80 - 40 - 5, 2: 20, 3: 30, 4: 10}
    # nested, non-overlapping spans telescope to the root's duration
    nested = [spans[0], spans[1], spans[2], _span(3, "x", 50, 60, parent=1)]
    assert sum(self_times(nested).values()) == 100


def test_a_claim_needs_nine_tenths_of_pairs_and_more_than_the_spread():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [90, 91, 89, 90, 92, 88, 90, 91, 89, 90]
    assert judge(parent, faster, "lower", 0.1, True)[0] == "improved"
    # nine wins of ten still counts; eight does not
    nine = faster[:9] + [105]
    assert judge(parent, nine, "lower", 0.1, True)[0] == "improved"
    eight = faster[:8] + [105, 105]
    assert judge(parent, eight, "lower", 0.1, True)[0] == "claim not met"
    # winning every pair by less than the parent's own spread is no claim
    barely = [p - 0.5 for p in parent]
    assert judge(parent, barely, "lower", 0.1, True)[0] == "claim not met"
    # nor is winning fewer than ten pairs
    assert judge(parent[:9], faster[:9], "lower", 0.1, True)[0] == "claim not met"


def test_unclaimed_metrics_are_held_to_their_bound():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert judge(parent, [105] * 10, "lower", 0.1, False)[0] == "ok"
    assert judge(parent, [120] * 10, "lower", 0.1, False)[0] == "REGRESSION"
    assert judge(parent, [80] * 10, "higher", 0.1, False)[0] == "REGRESSION"
    noisy = [50, 150, 60, 140, 100, 70, 130, 90, 110, 100]
    assert judge(noisy, [105] * 10, "lower", 0.1, False)[0] == "unresolved"
    assert judge(noisy, [40] * 10, "lower", 0.1, False)[0] == "better"
