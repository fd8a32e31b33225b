"""Lanes: the independent pieces of one call, run on several cores at once.

`deal(work, n)` runs work(0) ... work(n-1), dealt round-robin to one lane
per usable core, at most one per item.  Lane 0 runs in the calling
thread; the other lanes are submitted to one persistent pool of
usable-cores - 1 threads, shared by every caller in the process, whose
threads start on first use.  When the caller has run its own lane, it
cancels every helper lane that no pool thread has started yet and runs
it itself, so a call never waits on work queued behind other callers'
lanes: concurrent searches and posteriors each make progress however
busy the pool is.  For the same reason deals nest: work(i) may itself
deal (a posterior chunk deals its tiles), and an inner helper that
finds every pool thread busy, its outer lane's among them, is run by
its own caller.  A cancelled helper stays in the pool's queue until a
pool thread drops it, but by the time its call returns it refers to
none of that call's work.

`run_steps(steps)` runs several generators in lockstep on those lanes:
each one yields a request at every point where it needs a value computed
from all of them (a batch statistic, say), and one reduction per request
answers every generator at once.  Items are dealt by index, not by lane,
so the bytes a caller gets do not depend on the lane count.

Callers hold OpenBLAS to one thread (`blas.one_thread`) while lanes run,
so every product runs in its lane's thread; where no OpenBLAS is found
they pass parallel=False and one lane runs everything.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the system
    has one (Linux), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_sum(parts: list):
    """parts[0] + parts[1] + ..., added in list order; parts[0] itself when
    it is the only one."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _new_pool() -> ThreadPoolExecutor:
    # the caller runs lane 0 itself; a thread more than the other lanes
    # need only adds a malloc arena
    return ThreadPoolExecutor(max(usable_cores() - 1, 1),
                              thread_name_prefix="uqtsc-lane")


_pool = _new_pool()


def _fresh_pool():
    # a forked child has none of its parent's pool threads
    global _pool
    _pool = _new_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_pool)


def _run_lane(held: list, k: int):
    held[0](k)


def deal(work, n_items: int, parallel: bool = True) -> None:
    """Run work(i) for every i < n_items on min(usable cores, n_items)
    lanes, one lane with parallel=False; lane k runs items k, k + lanes,
    ... in order.  Every lane has finished when this returns or raises.
    A lane's exception is raised here, the lowest lane's first, and the
    other lanes stop before their next item.  work may deal in turn:
    every lane of the inner call has finished, on a pool thread or in
    the thread that called it, before its item does."""
    lanes = min(usable_cores(), n_items) if parallel else 1
    if lanes <= 1:
        for i in range(n_items):
            work(i)
        return
    failed = threading.Event()

    def lane(k):
        try:
            for i in range(k, n_items, lanes):
                if failed.is_set():
                    return
                work(i)
        except BaseException:
            failed.set()
            raise

    def run_here(k):
        try:
            lane(k)
        except BaseException as exc:  # raised below, in lane order
            return exc
        return None

    # emptied on return, so a helper left cancelled in the pool's queue
    # keeps none of this call's work alive
    held = [lane]
    helpers = [_pool.submit(_run_lane, held, k) for k in range(1, lanes)]
    errors = [run_here(0)]
    # a helper no pool thread has started is cancelled and run here
    errors += [run_here(k) if share.cancel() else share.exception()
               for k, share in enumerate(helpers, 1)]
    held.clear()
    for exc in errors:
        if exc is not None:
            raise exc


def run_steps(steps: list, rng=None, parallel: bool = True) -> list:
    """Run generators in lockstep on lanes; return their return values.

    Each round resumes every generator, dealt to lanes by index, until its
    next yield.  Generators stay in step: each yields a request
    `(reduce, payload)`, and `reduce(payloads, rng)` runs once, in this
    thread, with the payloads in generator order; its value is sent to
    every generator.  The reduce of generator 0 is the one called, so a
    reduce must not depend on which generator yielded it.  A reduce may
    draw from rng, the one stream all generators share.  On an exception
    every generator is closed and the exception is raised here.
    """
    n = len(steps)
    out = [None] * n
    finished = [False] * n
    reply = None

    def resume(c):
        try:
            out[c] = steps[c].send(reply)
        except StopIteration as stop:
            finished[c] = True
            out[c] = stop.value

    try:
        while True:
            deal(resume, n, parallel)
            if all(finished):
                return out
            if any(finished):
                raise RuntimeError("lockstep generators fell out of step")
            reply = out[0][0]([payload for _, payload in out], rng)
    finally:
        for gen in steps:
            gen.close()
