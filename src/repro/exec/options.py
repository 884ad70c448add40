"""Ambient execution options: workers, cache directory, task policy.

The figure/table entry points have stable, paper-shaped signatures
(``figure11_comd(n_ranks)``); execution policy — how many workers, which
cache directory — is orthogonal to *what* is computed.  Rather than
threading ``workers=``/``cache=`` through every exhibit function, the CLI
(or a test) installs an :class:`ExecutionOptions` for the current
context, and the sweep layer picks it up as its default.  Explicit
keyword arguments always override the ambient options.

The default options (serial, no cache) reproduce the pre-subsystem
behavior exactly, which keeps the benchmark harness measuring the
uncached path.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

from .cache import SolverCache

__all__ = [
    "ExecutionOptions",
    "get_execution_options",
    "set_execution_options",
    "execution_options",
]


@dataclass(frozen=True)
class ExecutionOptions:
    """How sweep-shaped experiments execute (not what they compute)."""

    workers: int = 1
    cache_dir: str | None = None
    use_cache: bool = True
    task_timeout_s: float | None = None
    task_retries: int = 1
    task_backoff_s: float = 0.05

    def make_cache(self) -> SolverCache | None:
        """A cache handle per these options (None when caching is off)."""
        if self.cache_dir is None or not self.use_cache:
            return None
        return SolverCache(self.cache_dir)


_current: ContextVar[ExecutionOptions] = ContextVar(
    "repro_execution_options", default=ExecutionOptions()
)


def get_execution_options() -> ExecutionOptions:
    """The options active in this context (defaults: serial, uncached)."""
    return _current.get()


def set_execution_options(options: ExecutionOptions) -> None:
    """Install options for the rest of this context (the CLI's entry path)."""
    _current.set(options)


@contextmanager
def execution_options(**overrides):
    """Temporarily override fields of the active options (tests, scripts)."""
    token = _current.set(replace(_current.get(), **overrides))
    try:
        yield _current.get()
    finally:
        _current.reset(token)
