"""Speculative execution of the next MCIMR round.

MCIMR rounds are strictly sequential in the paper's Algorithm 1: round
``i`` scores every remaining candidate, runs the responsibility stopping
criterion on the winner, and only then may round ``i + 1`` begin.  But the
two phases touch disjoint state: the responsibility test is a permutation
test over the *plain* fused conditioning codes (the counts source's
plain-code cache), while the next round's
:func:`~repro.core.mcimr.next_best_attribute` evaluates CMI /
pairwise-MI terms over the missing-as-category caches (the problem's
``_cmi_cache`` / ``_mi_cache`` and the source's missing-as-category
cache).  Both sides are pure, memoised functions of the (immutable)
encoded frame, so running them concurrently changes wall-clock, never
values.

:class:`Speculation` runs one such computation on a daemon thread.  The
search loop starts a speculation for round ``i + 1`` (assuming the
current winner will be accepted) right before round ``i``'s
responsibility test, then either *consumes* the result — the accept path,
where round ``i + 1``'s scoring has already happened under the test's
wall-clock — or *discards* it when the stopping criterion fires.  Either
way the thread is joined before the loop proceeds, so no speculative
work ever outlives the search and results are bit-identical to the
sequential schedule.

On a row-sharded problem the speculative scoring scatters count jobs to
the shard pool concurrently with the test's permutation rounds; the
pool's per-worker locks serialize requests per shard, and both job
streams are pure functions of their payloads, so interleaving is equally
safe there.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, Optional, TypeVar

T = TypeVar("T")


class Speculation(Generic[T]):
    """One in-flight speculative computation on a daemon worker thread.

    The computation starts immediately.  Exactly one of :meth:`result`
    (consume) or :meth:`discard` (drop) must be called; both join the
    thread, so the speculation never outlives its caller's round.
    """

    __slots__ = ("_thread", "_value", "_error")

    def __init__(self, compute: Callable[[], T]):
        self._value: Optional[T] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, args=(compute,),
            name="mcimr-speculation", daemon=True)
        self._thread.start()

    def _run(self, compute: Callable[[], T]) -> None:
        try:
            self._value = compute()
        except BaseException as error:  # re-raised on the consuming thread
            self._error = error

    def result(self) -> T:
        """Wait for the computation and return (or re-raise) its outcome."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._value

    def discard(self) -> None:
        """Wait for the computation and drop its outcome (stop-path)."""
        self._thread.join()
        self._error = None
        self._value = None


def speculate(compute: Callable[[], T]) -> Speculation[T]:
    """Start ``compute`` on a speculation thread and return its handle."""
    return Speculation(compute)
