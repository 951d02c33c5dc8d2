"""Leftover counting: only what the program under test could have made."""

import os

import pytest

from hygiene import SEGMENT_PREFIX, Hygiene


@pytest.fixture
def hygiene(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))     # restored afterwards
    return Hygiene(str(tmp_path / "out"))


@pytest.fixture
def segment():
    """Make ``/dev/shm`` entries the way another process would: not
    through this process's resource tracker."""
    made = []

    def make(name: str) -> str:
        path = os.path.join("/dev/shm", name)
        with open(path, "xb") as fh:
            fh.write(b"\0" * 64)
        made.append(path)
        return path

    yield make
    for path in made:
        if os.path.exists(path):
            os.unlink(path)


def test_a_foreign_segment_survives_and_is_not_counted(hygiene, segment):
    foreign = segment(f"psm_selftest{os.getpid():x}")
    semaphore = segment(f"sem.selftest{os.getpid():x}")
    assert hygiene.leaked_segments() == 0
    assert hygiene.close(grace_s=0.1)["segments"] == 0
    assert os.path.exists(foreign) and os.path.exists(semaphore)


def test_a_segment_of_the_program_is_counted_and_removed(hygiene, segment):
    leaked = segment(f"{SEGMENT_PREFIX}selftest{os.getpid():x}")
    assert hygiene.leaked_segments() == 1
    assert hygiene.close(grace_s=0.1)["segments"] == 1
    assert not os.path.exists(leaked)


def test_a_segment_from_before_the_run_is_not_the_runs(segment, tmp_path,
                                                       monkeypatch):
    old = segment(f"{SEGMENT_PREFIX}older{os.getpid():x}")
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    hygiene = Hygiene(str(tmp_path / "out"))
    assert hygiene.close(grace_s=0.1)["segments"] == 0
    assert os.path.exists(old)


def test_a_stray_temp_file_is_counted_and_removed(hygiene):
    with open(os.path.join(hygiene.tmp_dir, "stray.rck"), "w") as fh:
        fh.write("x")
    leftovers = hygiene.close(grace_s=0.1)
    assert leftovers == {"processes": 0, "segments": 0, "files": 1}
    assert not os.path.exists(hygiene.tmp_dir)
