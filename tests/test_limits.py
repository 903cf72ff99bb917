"""Tests for the consolidated resource-limit helpers in ``repro.limits``.

``hard_deadline`` is the one SIGALRM implementation shared by the fuzz
oracle and the benchmark timeout fixture; these tests pin the contract
both sites rely on: the body is interrupted with the caller's exception,
the previous handler/timer always come back, and the guard degrades to a
no-op anywhere SIGALRM cannot work.
"""

from __future__ import annotations

import gc
import signal
import threading
import time

import pytest

from repro.limits import HardDeadlineExceeded, hard_deadline, recursion_headroom


posix_only = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="requires SIGALRM"
)


@posix_only
def test_hard_deadline_fires_default_error():
    with pytest.raises(HardDeadlineExceeded):
        with hard_deadline(0.05):
            time.sleep(5)


@posix_only
def test_hard_deadline_fires_custom_error():
    class Custom(Exception):
        pass

    with pytest.raises(Custom, match="boom"):
        with hard_deadline(0.05, lambda: Custom("boom")):
            time.sleep(5)


@posix_only
def test_hard_deadline_error_escapes_blanket_exception_handlers():
    """The deadline error must not be containable as ``Exception``.

    The pass guard rolls back any pass that raises ``Exception``; if the
    deadline error were one, an alarm firing mid-pass would be recorded
    as a pass rollback and the (one-shot) timer would be spent — the
    rest of the request would run with no wall-clock bound at all."""
    with pytest.raises(HardDeadlineExceeded):
        try:
            with hard_deadline(0.05):
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    pass
        except Exception:  # the containment layers' blanket clause
            pytest.fail("HardDeadlineExceeded was swallowed as Exception")


@posix_only
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_hard_deadline_fires_again_after_a_gc_callback_swallows_it():
    """An alarm that lands inside a gc callback raises there, and CPython
    reports that exception as unraisable and carries on.  The deadline
    must fire again rather than leave the body unbounded."""
    def slow_callback(phase, info):
        until = time.monotonic() + 0.2
        while time.monotonic() < until:
            pass

    gc.callbacks.append(slow_callback)
    started = time.monotonic()
    try:
        with pytest.raises(HardDeadlineExceeded):
            with hard_deadline(0.05):
                gc.collect()
                time.sleep(2)
    finally:
        gc.callbacks.remove(slow_callback)
    assert time.monotonic() - started < 1.0
    remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
    assert remaining == 0


@posix_only
def test_hard_deadline_message_prints_a_small_budget():
    with pytest.raises(HardDeadlineExceeded, match=r"exceeded 0\.001s"):
        with hard_deadline(0.001):
            time.sleep(1)


@posix_only
def test_hard_deadline_noop_when_fast_enough():
    with hard_deadline(5.0):
        value = sum(range(10))
    assert value == 45


def test_hard_deadline_none_is_noop():
    with hard_deadline(None):
        pass
    with hard_deadline(0):
        pass
    with hard_deadline(-1.0):
        pass


@posix_only
def test_hard_deadline_restores_previous_handler_and_timer():
    previous_handler = signal.getsignal(signal.SIGALRM)
    with hard_deadline(30.0):
        assert signal.getsignal(signal.SIGALRM) is not previous_handler
    assert signal.getsignal(signal.SIGALRM) is previous_handler
    # No timer left armed.
    remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
    assert remaining == 0


@posix_only
def test_hard_deadline_restores_after_body_raises():
    previous_handler = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ValueError):
        with hard_deadline(30.0):
            raise ValueError("body error")
    assert signal.getsignal(signal.SIGALRM) is previous_handler
    remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
    assert remaining == 0


@posix_only
def test_hard_deadline_nested_inner_fires_first():
    with pytest.raises(HardDeadlineExceeded):
        with hard_deadline(30.0):
            with hard_deadline(0.05):
                time.sleep(5)
    remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
    assert remaining == 0


@posix_only
def test_hard_deadline_noop_off_main_thread():
    outcome = {}

    def body():
        try:
            with hard_deadline(0.01):
                time.sleep(0.1)
            outcome["ok"] = True
        except BaseException as exc:  # pragma: no cover - failure path
            outcome["error"] = exc

    worker = threading.Thread(target=body)
    worker.start()
    worker.join()
    assert outcome.get("ok") is True


def test_recursion_headroom_restores():
    import sys

    before = sys.getrecursionlimit()
    with recursion_headroom(before + 500):
        assert sys.getrecursionlimit() == before + 500
    assert sys.getrecursionlimit() == before
