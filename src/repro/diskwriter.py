"""One background thread for the file writes on the request path.

A 1-trial ``simulate()`` creates two files: its result-cache entry and
its trace's JSONL sink file.  On a busy disk a single file creation
can block for hundreds of microseconds, longer than the simulation
itself.  So callers build their bytes on their own thread and hand
only the file-system work (open, write, rename) to :func:`submit`; one
daemon thread runs those writes in submission order while the caller
returns.

* :func:`drain` returns once every write submitted so far has run.
  Code that reads a file which may still be queued calls it first.
* A normal interpreter exit drains the queue (``atexit``).
* The queue is bounded: a stalled disk blocks :func:`submit` instead
  of growing memory.
* A forked child writes inline.  ``multiprocessing`` workers leave
  through ``os._exit``, which skips ``atexit``, so a child must never
  leave a write queued.

The trade-off: a process killed outright loses the writes still
queued, at most the last few milliseconds of them.

A write must not call :func:`drain` itself (it would wait for itself).
"""

from __future__ import annotations

import atexit
import os
import queue
import threading
from typing import Callable, Optional

__all__ = ["drain", "submit"]

#: Writes queued beyond this block the submitter until the disk
#: catches up.
_MAX_QUEUED = 64


class _Writer:
    def __init__(self, inline: bool = False) -> None:
        self.inline = inline
        self.queue: "queue.Queue[Callable[[], None]]" = queue.Queue(_MAX_QUEUED)
        self.thread: Optional[threading.Thread] = None
        self.lock = threading.Lock()


_WRITER = _Writer()


def submit(write: Callable[[], None]) -> None:
    """Run ``write()`` on the writer thread (inline in a forked child)."""
    writer = _WRITER
    if writer.inline:
        write()
        return
    if writer.thread is None:
        with writer.lock:
            if writer.thread is None:
                writer.thread = threading.Thread(
                    target=_run,
                    args=(writer.queue,),
                    name="repro-disk-writer",
                    daemon=True,
                )
                writer.thread.start()
    writer.queue.put(write)


def drain() -> None:
    """Block until every write submitted so far has run."""
    _WRITER.queue.join()


def _run(pending: "queue.Queue[Callable[[], None]]") -> None:
    while True:
        write = pending.get()
        try:
            write()
        except Exception:  # noqa: BLE001 — one failed write must not stop the rest
            pass
        finally:
            pending.task_done()


def _write_inline_in_child() -> None:
    global _WRITER
    _WRITER = _Writer(inline=True)


os.register_at_fork(after_in_child=_write_inline_in_child)
atexit.register(drain)
