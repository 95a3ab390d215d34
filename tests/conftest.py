"""Fixtures shared by the test modules."""

import errno

import pytest

from usp.transport import tcp_listen


class _FlakySocket:
    """A listening socket whose first ``failures`` accepts fail with EMFILE."""

    def __init__(self, sock, failures):
        self._sock = sock
        self.failures = failures

    def accept(self):
        if self.failures:
            self.failures -= 1
            raise OSError(errno.EMFILE, "Too many open files")
        return self._sock.accept()

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture
def flaky_listener():
    """Factory: a loopback TcpListener whose first ``failures`` accepts fail."""
    made = []

    def make(failures):
        listener = tcp_listen("127.0.0.1", 0)
        listener._sock = _FlakySocket(listener._sock, failures)
        made.append(listener)
        return listener

    yield make
    for listener in made:
        listener.close()
