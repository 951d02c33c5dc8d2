"""The four workloads: what is sent, in which order, how many times.

A workload is a fixed amount of work, not a fixed time: worker memory
grows with every distinct request (``worker_main.calibrations``,
``fleet._spec_keys`` and ``AnytimeServer._finished`` are never
evicted), so under a fixed time faster code would serve more requests
and read as a memory regression.  ``--seconds`` therefore selects a
whole number of rounds, sized so the code this benchmark was defined on
runs for about that long; the same seed and seconds give the same
specs, in the same order, the same number of times.

Every round holds the five figure apps once each, so the mix — and
with it every mean — is the same whichever number of rounds runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["APPS", "SIZE", "TARGET_DB", "WORKLOADS", "LIMIT_MS", "POOL",
           "Op", "rounds_for", "input_seed", "plan", "pool_specs"]

APPS = ("2dconv", "histeq", "dwt53", "debayer", "kmeans")
SIZE = 256
#: the SLO of ``fleet_target`` and the quality at which any answer
#: counts as useful
TARGET_DB = 20.0
#: inputs per app in the ``exec_*`` pool.  When a run first holds the
#: useful quality is the input's own (kmeans: version 7 to 26 of 29,
#: 40 to 95 ms on the threaded executor) and the pool changes with the
#: seed, so ``useful_mean_ms`` moves with the pool's luck; twenty
#: inputs per app halve the variance ten left and cost three seconds
#: of references a run.
POOL = 20

WORKLOADS = ("fleet_target", "fleet_shared", "exec_threaded",
             "exec_process")

#: whole rounds per second of ``--seconds``, measured on the commit that
#: defined the benchmark (2 cores); a round is five ops, fifty on
#: ``fleet_shared`` (five groups of ten)
ROUNDS_PER_SECOND = {
    "fleet_target": 1.45,
    "fleet_shared": 0.33,
    "exec_threaded": 2.00,
    "exec_process": 1.30,
}

#: latency limit per op: three times the p90 of the baseline the
#: benchmark was first measured on, to the nearest 10 ms.  A constant of
#: the instrument from then on: the fleet's p90 moves in 50 ms steps
#: (202 or 160 ms on ``fleet_shared``), and a limit that followed a
#: re-measured baseline down would sit on the costliest ops of the mix.
#: A self-test holds it between 2.5 and 4 times the p90 in
#: ``baseline.json``.
LIMIT_MS = {
    "fleet_target": 820.0,
    "fleet_shared": 610.0,
    "exec_threaded": 370.0,
    "exec_process": 570.0,
}

#: ``fleet_shared``: repeats per group and how far back they reach
REPEATS = 8
REPEAT_WINDOW = 16


@dataclass(frozen=True)
class Op:
    """One request (fleet) or one run (exec)."""

    app: str
    seed: int       # input seed of the spec ``(app, SIZE, seed)``
    kind: str       # "new", or on fleet_shared also "dup" / "repeat"


def rounds_for(workload: str, seconds: float, traced: bool = False) -> int:
    """Whole rounds in one run; a traced run takes a quarter."""
    rounds = ROUNDS_PER_SECOND[workload] * seconds
    if traced:
        rounds /= 4.0
    return max(1, round(rounds))


def input_seed(seed: int, index: int) -> int:
    """Input seed of the ``index``-th distinct spec of a run.  Runs
    with neighbouring ``--seed`` values share no input."""
    return (seed * 1_000_003 + index) % (2 ** 31)


def pool_specs(seed: int) -> list[Op]:
    """The ``exec_*`` input pool: ``POOL`` inputs of every app."""
    return [Op(app, input_seed(seed, k), "new")
            for k in range(POOL) for app in APPS]


def plan(workload: str, seed: int, rounds: int,
         first_index: int = 0) -> list[list[Op]]:
    """The run as a list of steps; the ops of one step are sent back to
    back and awaited together, steps follow one another.

    ``first_index`` offsets the input seeds, so warm-up and probe plans
    share no key with the timed plan of the same ``seed``.
    """
    if workload == "fleet_target":
        return [[Op(app, input_seed(seed, first_index + r), "new")]
                for r in range(rounds) for app in APPS]
    if workload == "fleet_shared":
        rng = random.Random(seed * 7919 + first_index)
        steps: list[list[Op]] = []
        recent: list[Op] = []
        for r in range(rounds):
            for app in APPS:
                new = Op(app, input_seed(seed, first_index + r), "new")
                # the duplicate goes out while the first still runs: it
                # coalesces onto that run or hits the worker's memo
                steps.append([new, Op(app, new.seed, "dup")])
                recent = (recent + [new])[-REPEAT_WINDOW:]
                for _ in range(REPEATS):
                    again = rng.choice(recent)
                    steps.append([Op(again.app, again.seed, "repeat")])
        return steps
    if workload in ("exec_threaded", "exec_process"):
        pool = pool_specs(seed)
        return [[pool[(r % POOL) * len(APPS) + a]]
                for r in range(rounds) for a in range(len(APPS))]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
