"""repro.ckpt — checkpoint, restore, and cross-executor migration.

A checkpoint is a live run's reply log: every publish, every input
version a wait or poll returned, every channel emit and receive, every
fault-policy action — names and numbers, never array values.  Taking
one copies the log under the kernel's log lock, so no stage pauses, and
the file is a few KiB at any image size.  Restoring rebuilds the graph
from its app spec and re-drives the pure stage generators through that
log on *any* executor — simulated, threaded, or process — continuing
the output ladder bit-exactly.  This is the anytime model's
interruptibility guarantee made durable: the output buffer always holds
a valid approximation, so a run can also always be *moved*.

Entry points:

* ``RunHandle.checkpoint(path)`` on a launched threaded or process run
  (see :mod:`repro.core.executor` / :mod:`repro.core.procexec`);
* ``checkpoint_at_stop=path`` on the simulated executor;
* ``AnytimeAutomaton.restore(path)`` to rebuild an automaton from a
  checkpoint and ``run``/``launch`` it on any backend;
* ``repro ckpt inspect`` / ``repro check --restore`` on the CLI.
"""

from .format import (CheckpointError, FORMAT_VERSION, MAGIC,
                     load_checkpoint, read_header, write_checkpoint)
from .state import (ResumeInfo, capture_stop, check_payload, replay,
                    restore_stop, save_checkpoint)

__all__ = [
    "CheckpointError", "FORMAT_VERSION", "MAGIC",
    "load_checkpoint", "read_header", "write_checkpoint",
    "ResumeInfo", "capture_stop", "check_payload", "replay",
    "restore_stop", "save_checkpoint",
]
