import gc
import os

import pytest

from conftest import assert_no_child_left
from traceaug import helper


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_helper_runs_with_the_collector_off_and_without_the_callers_end():
    read_fd, write_fd = os.pipe()

    def run(fd):
        try:
            os.fstat(read_fd)
            held = True
        except OSError:
            held = False
        os.write(fd, bytes([gc.isenabled(), held]))

    pid = helper.start(run, (read_fd,), (write_fd,))
    try:
        assert os.read(read_fd, 2) == bytes([False, False])
        # end of file: the helper has left, and this process holds no write end
        assert os.read(read_fd, 1) == b""
    finally:
        helper.stop(pid, (read_fd,))
    assert gc.isenabled()
    assert_no_child_left()

