import pytest

from machine import NOMINAL_SPIN_MS, spin_ms, to_nominal


def test_a_box_at_nominal_speed_leaves_times_alone():
    assert to_nominal(NOMINAL_SPIN_MS, NOMINAL_SPIN_MS) == 1.0


def test_a_slow_stretch_is_scaled_back_to_nominal():
    # the kernel took 20 % longer either side of the round, so did the
    # round
    factor = to_nominal(1.2 * NOMINAL_SPIN_MS, 1.2 * NOMINAL_SPIN_MS)
    assert 120.0 * factor == pytest.approx(100.0)
    # a box that changed speed under the round: the middle of the two
    assert to_nominal(NOMINAL_SPIN_MS, 1.2 * NOMINAL_SPIN_MS) == \
        pytest.approx(1 / 1.1)


def test_the_kernel_reads_near_nominal_on_this_box():
    # a sanity band, not a gate: the constant must belong to this
    # kernel, within the box's own swings
    assert 0.4 * NOMINAL_SPIN_MS < spin_ms() < 2.5 * NOMINAL_SPIN_MS
