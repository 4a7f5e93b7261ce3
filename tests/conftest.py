import os

import pytest


@pytest.fixture(autouse=True)
def no_worker_left():
    """Every test leaves no child process behind, reaped or running: a
    census pass from n = 21 on a host of two CPUs or more forks a worker,
    which census must reap whatever the pass does."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
