import pytest

from workloads import (APPS, POOL, REPEAT_WINDOW, REPEATS,
                       ROUNDS_PER_SECOND, WORKLOADS, input_seed, plan,
                       pool_specs, rounds_for)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_specs_groups_and_order(workload):
    assert plan(workload, 7, 3) == plan(workload, 7, 3)
    assert plan(workload, 7, 3) != plan(workload, 8, 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_round_holds_each_app_once_per_new_key(workload):
    steps = plan(workload, 3, 4)
    new = [op.app for step in steps for op in step if op.kind == "new"]
    assert new == list(APPS) * 4


def test_neighbouring_seeds_share_no_input():
    a = {op.seed for step in plan("fleet_target", 5, 40) for op in step}
    b = {op.seed for step in plan("fleet_target", 6, 40) for op in step}
    assert not a & b


def test_fleet_target_sends_every_key_once_one_at_a_time():
    steps = plan("fleet_target", 1, 5)
    assert all(len(step) == 1 for step in steps)
    keys = [(step[0].app, step[0].seed) for step in steps]
    assert len(set(keys)) == len(keys) == 25


def test_fleet_shared_groups_of_ten():
    steps = plan("fleet_shared", 1, 4)
    per_group = 1 + REPEATS
    assert len(steps) == 4 * len(APPS) * per_group
    seen = []
    for g in range(0, len(steps), per_group):
        first, repeats = steps[g], steps[g + 1:g + per_group]
        # a new key and its duplicate go out back to back ...
        assert [op.kind for op in first] == ["new", "dup"]
        assert (first[0].app, first[0].seed) == (first[1].app,
                                                first[1].seed)
        seen.append((first[0].app, first[0].seed))
        # ... then eight single repeats of the latest sixteen keys
        assert all(len(step) == 1 and step[0].kind == "repeat"
                   for step in repeats)
        for step in repeats:
            assert (step[0].app, step[0].seed) in seen[-REPEAT_WINDOW:]


def test_exec_workloads_cycle_over_the_same_small_pool():
    pool = pool_specs(9)
    assert len(pool) == POOL * len(APPS)
    for workload in ("exec_threaded", "exec_process"):
        ops = [op for step in plan(workload, 9, 2 * POOL) for op in step]
        assert set(ops) == set(pool)
    assert plan("exec_threaded", 9, 4) == plan("exec_process", 9, 4)


def test_warm_up_and_probe_plans_share_no_key_with_the_timed_plan():
    timed = {(op.app, op.seed) for step in plan("fleet_target", 2, 60)
             for op in step}
    other = {(op.app, op.seed)
             for step in plan("fleet_target", 2, 2, first_index=500_000)
             for op in step}
    assert not timed & other


def test_rounds_are_whole_and_a_traced_run_takes_a_quarter():
    for workload in WORKLOADS:
        full = rounds_for(workload, 20)
        assert isinstance(full, int) and full >= 4
        assert rounds_for(workload, 20, traced=True) == \
            max(1, round(ROUNDS_PER_SECOND[workload] * 5))
        assert rounds_for(workload, 0.01) == 1
    assert input_seed(3, 0) != input_seed(4, 0)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        plan("fleet_open_loop", 1, 1)
