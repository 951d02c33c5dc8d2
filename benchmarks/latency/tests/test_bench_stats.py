import pytest

from stats import mean, percentile, quartiles, spread


def test_percentile_is_nearest_rank_never_interpolated():
    values = [52.0, 51.0, 58.0, 110.0, 230.0]
    assert percentile(values, 50) == 58.0
    assert percentile(values, 90) == 230.0
    assert percentile(values, 20) == 51.0
    assert percentile(values, 21) == 52.0
    assert percentile(values, 100) == 230.0
    assert percentile([7.0], 90) == 7.0


def test_percentile_of_ten_samples_takes_the_ninth():
    assert percentile(list(range(1, 11)), 90) == 9
    assert percentile(list(range(1, 11)), 50) == 5


def test_percentile_rejects_a_rank_outside_the_samples():
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_no_samples_read_zero():
    assert percentile([], 50) == 0.0
    assert mean([]) == 0.0
    assert spread([]) == 0.0


def test_spread_is_the_interquartile_distance_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == (11.75, 14.5, 17.25)
    assert spread(values) == pytest.approx(5.5 / 14.5)


def test_spread_of_identical_runs_is_zero():
    assert spread([1.0] * 10) == 0.0
