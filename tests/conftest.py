import ast
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


@pytest.fixture
def open_fds():
    """A function giving this process's open file descriptors, or None where
    /proc has none: a test compares them before and after a split pass, so
    that no end of a worker's pipe is left open."""
    return lambda: set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class ProcessLog:
    """Values that every process of a test appends to one file, the
    census's forked workers included: a worker's memory is its own, so a
    list in the test's memory would miss what a worker records.  Each
    value is one line, its repr, written in one append."""

    def __init__(self, path):
        self.path = path

    def __call__(self, value):
        with open(self.path, "a") as log:
            log.write(f"{value!r}\n")

    def read(self) -> list:
        """The values in the order they were written."""
        if not self.path.exists():
            return []
        return [ast.literal_eval(line) for line in self.path.read_text().splitlines()]


@pytest.fixture
def process_log(tmp_path):
    return ProcessLog(tmp_path / "process.log")
