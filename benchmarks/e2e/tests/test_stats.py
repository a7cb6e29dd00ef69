import pytest

from benchmarks.e2e.stats import percentile, quartiles, relative_spread


def test_nearest_rank_on_small_arrays():
    assert percentile([4, 1, 3, 2], 50) == 2
    assert percentile([4, 1, 3, 2], 25) == 1
    assert percentile([4, 1, 3, 2], 75) == 3
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile([7.5], 1) == 7.5
    assert percentile([7.5], 95) == 7.5


def test_percentile_is_always_a_sample():
    values = [0.5, 10.0, 20.0]
    assert percentile(values, 50) == 10.0
    assert percentile(values, 34) == 10.0
    assert percentile(values, 33) == 0.5


def test_p95_leaves_five_percent_of_samples_above():
    values = list(range(1, 1001))
    p95 = percentile(values, 95)
    assert p95 == 950
    assert sum(v > p95 for v in values) == 50


@pytest.mark.parametrize("q", [0, -1, 100.5])
def test_percentile_rejects_bad_q(q):
    with pytest.raises(ValueError):
        percentile([1, 2], q)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_and_spread():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, med, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert med == 5.5
    assert (q1, q3) == (2.75, 8.25)
    assert relative_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)
