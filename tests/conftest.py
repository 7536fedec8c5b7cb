"""Scaffolding shared by the tests of the forked helper (``traceaug.helper``)
and its two uses, the view worker and the .ttrace split: a refused fork,
and checks that no child process or file descriptor is left behind."""

import errno
import os

import pytest


def refused_fork():
    """os.fork as it fails when the system is out of processes."""
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))
