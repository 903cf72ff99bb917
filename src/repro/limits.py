"""Process-global resource limits, managed without leaking.

Both the SSA renaming walk (one frame per dominator-tree node) and
generated-code execution (one Python frame per MiniJ call) can exceed
CPython's default recursion limit on deep inputs.  Raising
``sys.setrecursionlimit`` is a *global* side effect, so it must always be
paired with a restore — this context manager is the single place that
pattern lives.

The same reasoning applies to ``SIGALRM``: the fuzz oracle, the benchmark
suite, and ad-hoc scripts all need a hard wall-clock ceiling around one
unit of work, and an alarm handler/timer left installed is a global leak
exactly like a raised recursion limit.  :func:`hard_deadline` is the
single implementation; it is deliberately *not* used by the compile
service supervisor, whose deadlines must outlive a hung worker
subprocess (``SIGALRM`` does not compose with a multi-process server —
it fires in whichever process armed it, not in the one that hung).
"""

from __future__ import annotations

import contextlib
import signal
import sys
import threading
from typing import Callable, Iterator, Optional


@contextlib.contextmanager
def recursion_headroom(needed: int) -> Iterator[None]:
    """Temporarily ensure the recursion limit is at least ``needed``.

    The previous limit is restored on exit even when the body raises, so
    the (interpreter-wide) setting never leaks past the work that needed
    it.  A limit already at or above ``needed`` is left untouched.
    """
    old_limit = sys.getrecursionlimit()
    if old_limit < needed:
        sys.setrecursionlimit(needed)
    try:
        yield
    finally:
        sys.setrecursionlimit(old_limit)


#: Interval at which a fired :func:`hard_deadline` fires again until the
#: context exits.  An alarm landing in a gc callback or ``__del__`` is
#: reported as unraisable and lost; the re-fire bounds the body anyway.
#: Unwinding a delivered deadline takes far less, so no re-fire cuts a
#: ``finally`` in the body short.
_REFIRE_SECONDS = 0.05


class HardDeadlineExceeded(BaseException):
    """The :func:`hard_deadline` wall-clock ceiling fired.

    A ``BaseException`` (like :class:`KeyboardInterrupt`) so the
    containment layers that may be running *under* the deadline — the
    pass guard's ``except Exception`` rollback in particular — cannot
    swallow it.  A contained deadline would be recorded as a pass
    rollback, and the body would run on until the next re-fire.  Catch
    it explicitly at the layer that armed the deadline, never via a
    blanket ``except Exception``."""


@contextlib.contextmanager
def hard_deadline(
    seconds: Optional[float],
    make_error: Optional[Callable[[], BaseException]] = None,
) -> Iterator[None]:
    """Bound the body with a ``SIGALRM`` wall-clock ceiling.

    When the timer fires, the exception produced by ``make_error``
    (default: :class:`HardDeadlineExceeded`) is raised *inside* the body,
    and again every :data:`_REFIRE_SECONDS` until the body exits, so a
    swallowed deadline is not a spent one.  Exit disarms the timer first,
    then restores the previous handler and any previously armed itimer,
    so nested deadlines and surrounding alarms are preserved.

    This is a **main-thread-only** guard: ``SIGALRM`` can only be
    delivered to the main thread, and only one itimer exists per process.
    Off the main thread, on platforms without ``SIGALRM``, or with a
    non-positive/absent ``seconds`` the context manager is a no-op — any
    fuel or step budgets the caller layered underneath still apply.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def on_timeout(signum, frame):
        if make_error is not None:
            raise make_error()
        raise HardDeadlineExceeded(
            f"exceeded {seconds:g}s wall-clock deadline"
        )

    previous_handler = signal.signal(signal.SIGALRM, on_timeout)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, seconds, _REFIRE_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)


def address_space_cap(max_bytes: int) -> bool:
    """Cap this process's address space (``RLIMIT_AS``) at ``max_bytes``.

    Used by compile-service workers so a runaway allocation inside an
    optimization pass surfaces as a contained :class:`MemoryError` (or at
    worst kills only the worker) instead of driving the whole machine
    into swap.  Returns ``True`` when the cap was applied; platforms
    without the ``resource`` module (or where lowering the limit is
    refused) return ``False`` and run uncapped — the supervisor-side
    deadline still bounds the damage.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-posix platforms
        return False
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        ceiling = hard if hard != resource.RLIM_INFINITY else max_bytes
        resource.setrlimit(resource.RLIMIT_AS, (min(max_bytes, ceiling), hard))
        return True
    except (ValueError, OSError):  # pragma: no cover - refused by kernel
        return False
