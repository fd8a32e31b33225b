"""Lanes: deals nested inside deals, on a free or a busy pool."""

import gc
import os
import threading
from collections import Counter
from concurrent.futures import wait

import pytest

from uqtsc.nncore import lanes


class Boom(Exception):
    pass


class Payload:
    """Something only the inner work refers to."""


def _nested_deal(runs, outer_items, inner_items, fail_at=None):
    """Deal outer_items items, each of which deals inner_items items and
    counts each run in runs; the inner work alone refers to a Payload."""
    lock, payload = threading.Lock(), Payload()

    def outer(i):
        def inner(j):
            assert isinstance(payload, Payload)
            with lock:
                runs[i, j] += 1
            if (i, j) == fail_at:
                raise Boom(i, j)
        lanes.deal(inner, inner_items)

    lanes.deal(outer, outer_items)


def _payloads_alive():
    gc.collect()
    return sum(isinstance(o, Payload) for o in gc.get_objects())


def _pool_blocked():
    """Occupy every pool thread until the returned event is set."""
    release = threading.Event()
    blockers = [lanes._pool.submit(release.wait)
                for _ in range(os.cpu_count() or 1)]
    return release, blockers


@pytest.mark.parametrize("busy", (False, True), ids=("free", "busy"))
@pytest.mark.parametrize("cores", (2, 3))
def test_nested_deal_runs_every_item_once(cores, busy, monkeypatch):
    """4 outer items of 5 inner items each run exactly once, whether pool
    threads take helper lanes or every pool thread is busy and each
    caller runs its own; on a busy pool no cancelled helper keeps the
    call's work alive."""
    monkeypatch.setattr(lanes, "usable_cores", lambda: cores)
    release, blockers = _pool_blocked() if busy else (None, [])
    try:
        runs = Counter()
        _nested_deal(runs, 4, 5)
        assert runs == {(i, j): 1 for i in range(4) for j in range(5)}
        assert _payloads_alive() == 0
    finally:
        if release is not None:
            release.set()
        wait(blockers)


@pytest.mark.parametrize("busy", (False, True), ids=("free", "busy"))
@pytest.mark.parametrize("cores", (2, 3))
def test_nested_deal_raises_inner_exception(cores, busy, monkeypatch):
    """Inner item 3 of outer item 1 runs on inner lane 1 (of 2) or 0 (of
    3), on outer lane 1; its exception reaches the outer caller as its
    own class, no item runs twice, and nothing left queued keeps the
    call's work alive."""
    monkeypatch.setattr(lanes, "usable_cores", lambda: cores)
    release, blockers = _pool_blocked() if busy else (None, [])
    try:
        runs = Counter()
        with pytest.raises(Boom) as caught:
            _nested_deal(runs, 4, 5, fail_at=(1, 3))
        assert caught.value.args == (1, 3)
        assert runs[1, 3] == 1 and set(runs.values()) == {1}
        del caught
        assert _payloads_alive() == 0
    finally:
        if release is not None:
            release.set()
        wait(blockers)
