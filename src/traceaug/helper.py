"""One forked helper process on the second core, and the contract kept by the
view worker (``training._views_ahead``) and the ``.ttrace`` split
(``traces._in_two``): a helper only saves its caller work.

* ``start`` reports no helper where ``os.fork`` is missing or raises
  OSError. The caller then does all of the work itself, as it does what a
  helper that fails, dies or stalls leaves undone, so an error in the work
  raises in the caller's own call.
* The helper runs with the cyclic garbage collector off, running no
  finalizer of the caller's objects, and leaves through ``os._exit(0)``
  however it ends, flushing none of the caller's buffers.
* Each side closes the other's pipe ends, so each reads end of file once
  the other has left.
* ``stop`` kills (SIGKILL) and reaps the helper and closes the caller's
  ends; the caller calls it however its work ends, helper or not.

The protocol over the pipes, and any policy of its own, is the caller's.
"""

import gc
import os
import signal


def start(run, mine: tuple, theirs: tuple) -> int | None:
    """The pid of a forked helper that runs ``run(*theirs)``, or None. The
    helper closes the caller's pipe ends ``mine``; the caller closes
    ``theirs`` here, helper or not."""
    try:  # os.fork is looked up now: it may be patched or deleted
        pid = os.fork() if hasattr(os, "fork") else None
    except OSError:  # no helper, as when the fork is refused
        pid = None
    if pid == 0:
        try:
            gc.disable()
            for fd in mine:
                os.close(fd)
            run(*theirs)
        finally:  # whatever ended the helper: the caller does what is left
            os._exit(0)
    for fd in theirs:
        os.close(fd)
    return pid


def stop(pid: int | None, mine: tuple) -> None:
    """Kill and reap helper ``pid``, if any, and close the caller's ends."""
    if pid is not None:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    for fd in mine:
        os.close(fd)
