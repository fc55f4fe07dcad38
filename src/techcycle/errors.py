"""Exception types shared across the package: one per CLI exit code.

Library callers can sort failures the way the CLI does:

* ``TechCycleError``: the input is malformed, inconsistent or outside the
  domain of the computation (exit code 2).  The message names the fault.
* ``InsufficientDataError``: the input is well formed but has too few
  usable observations for the requested estimate (exit code 3).
"""

from contextlib import contextmanager


class TechCycleError(Exception):
    """Base class for all errors raised by this package; a bad input."""


class InsufficientDataError(TechCycleError):
    """Too few observations for the requested estimate."""


class WindowError(InsufficientDataError):
    """A fitting window is empty or contains unusable observations."""


@contextmanager
def located(where):
    """Prefix the message of a package error raised inside with ``where``
    (a file, a config key), keeping its class and so its exit code."""
    try:
        yield
    except TechCycleError as exc:
        raise type(exc)(f"{where}: {exc}") from None
