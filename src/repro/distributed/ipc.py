"""The worker substrate shared by both data planes.

:class:`~repro.distributed.replicas.ReplicaPool` (key-routed engine
replicas) and :class:`~repro.distributed.coordinator.ShardPool` (row
shards) run their workers as :mod:`multiprocessing` processes over pipes,
and this module owns everything about those workers that the two pools
share:

* **transport** — one outstanding request per worker (a parent-side lock
  serialises the round-trips), replies framed as ``("ok", payload)`` or
  ``("error", (type_name, args))``, liveness-aware waits, and library
  exceptions rebuilt by type in the parent;
* **lifecycle** — start-method resolution (:func:`resolve_start_method`),
  starting a worker (:func:`start_worker`), replacing a dead one
  (:func:`respawn`), the graceful-then-firm :func:`shutdown`, and the
  stale-tolerant ``stats`` probe (:func:`probe_stats`).

The owning pools keep only their own hooks around these: what a fresh
worker must be told, and what a dead one's state folds into.  Both sit
behind the one serving front,
:class:`~repro.serving.service.ExplanationService`.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro import exceptions as _exceptions
from repro.exceptions import ConfigurationError, ReproError
from repro.obs import trace


class WorkerDiedError(ReproError):
    """A worker went away mid-request (crash / kill / closed pipe).

    Deliberately *not* an :class:`ExplanationError`: that family means "the
    request was bad" (HTTP 400 on the serving path), while a dead worker is
    a server fault (500) — and one the owning pool usually heals by
    restarting the worker and retrying before any caller sees this.
    """


class WorkerFaultError(ReproError):
    """A worker raised an exception type the parent cannot reconstruct.

    Covers internal bugs (``KeyError``, ``LinAlgError``, ``MemoryError``,
    ...) whose types do not live in :mod:`repro.exceptions`.  Like
    :class:`WorkerDiedError` this is a *server* fault (HTTP 500) — it must
    never be folded into the client-error family, or switching from one
    process to a worker pool would reclassify crashes as bad requests.
    Unlike a died worker it is not retried: the process is healthy, the
    request deterministically fails.
    """


def rebuild_error(type_name: str, args: Tuple) -> Exception:
    """Reconstruct a worker-side exception in the parent process.

    Library exceptions rebuild as their own type (so 400/404/422 HTTP
    mappings and caller ``except`` clauses behave exactly as in-process);
    everything else is a worker-internal fault and surfaces as
    :class:`WorkerFaultError`.
    """
    error_class = getattr(_exceptions, type_name, None)
    if error_class is None or not isinstance(error_class, type) \
            or not issubclass(error_class, Exception):
        return WorkerFaultError(
            f"worker failed with {type_name}: "
            + "; ".join(str(arg) for arg in args))
    try:
        return error_class(*args)
    except TypeError:
        return WorkerFaultError(f"worker failed with {type_name}: {args}")


def serve_pipe(conn, serve_one, span_prefix: str = "worker") -> None:
    """The worker-side request/response loop shared by both pools.

    ``serve_one(op, payload)`` computes one reply; exceptions cross the
    pipe as ``("error", (type_name, args))`` and are rebuilt by
    :func:`rebuild_error` on the parent side.  A ``"shutdown"`` op is
    acknowledged and ends the loop; a closed pipe ends it silently.

    Requests framed as ``(op, payload, trace_context)`` join the
    caller's distributed trace: the loop activates a process-local
    collecting tracer, serves the op under a ``{span_prefix}.{op}``
    span, and ships every span the op recorded back in a three-field
    ``("ok", result, spans)`` reply for the parent to stitch in.
    Two-field frames keep the historical untraced protocol exactly.
    """
    collector = trace.Tracer(max_traces=64, tier=span_prefix)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if len(message) == 3:
            op, payload, trace_context = message
        else:
            op, payload = message
            trace_context = None
        if op == "shutdown":
            conn.send(("ok", None))
            break
        if trace_context is None:
            try:
                conn.send(("ok", serve_one(op, payload)))
            except Exception as error:
                conn.send(("error", (type(error).__name__, error.args)))
            continue
        token = trace.activate(collector, trace_context["trace_id"],
                               trace_context.get("parent_span_id"))
        try:
            with trace.span(f"{span_prefix}.{op}"):
                result = serve_one(op, payload)
            conn.send(("ok", result,
                       collector.pop_spans(trace_context["trace_id"])))
        except Exception as error:
            collector.pop_spans(trace_context["trace_id"])
            conn.send(("error", (type(error).__name__, error.args)))
        finally:
            trace.deactivate(token)


@dataclass
class PipeWorkerHandle:
    """Parent-side view of one worker: process, pipe, request lock."""

    index: int
    process: Any
    conn: Any
    #: Serialises request/response round-trips on the pipe.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Bumped on every restart; lets a failing thread detect that another
    #: thread already replaced the process it observed dying.
    generation: int = 0
    restarts: int = 0
    #: Last successful ``stats`` snapshot (served when the worker is busy).
    last_stats: Optional[Dict[str, Any]] = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


def poll_reply(handle: PipeWorkerHandle, op: str, timeout: float) -> None:
    """Wait for a reply, failing fast when the worker process dies.

    A SIGKILLed worker closes its pipe end, which ``poll`` surfaces — but
    a worker that never came up (or is wedged before its accept loop)
    would otherwise block for the full request timeout, so the wait is
    sliced and the process liveness re-checked between slices.
    """
    slice_seconds = 0.2
    waited = 0.0
    while waited < timeout:
        if handle.conn.poll(min(slice_seconds, timeout - waited)):
            return
        waited += slice_seconds
        if not handle.process.is_alive():
            # One final poll: the reply may have raced the exit.
            if handle.conn.poll(0):
                return
            raise WorkerDiedError(
                f"worker {handle.index} exited while handling {op!r}")
    # The worker still owes this reply; the next request on the pipe would
    # read it as its own answer.  Kill the worker and drop our pipe end, so
    # that request fails as a dead worker and the owner's restart-and-retry
    # replaces it.
    handle.process.kill()
    handle.conn.close()
    raise WorkerDiedError(
        f"worker {handle.index} did not answer {op!r} within {timeout}s")


def request_locked(handle: PipeWorkerHandle, op: str, payload,
                   timeout: float) -> Any:
    """One round-trip body; the caller must hold ``handle.lock``.

    When a trace is active on the calling thread the round-trip runs
    under an ``rpc.{op}`` span whose context rides the request frame —
    the worker's spans come back in the reply and are stitched under
    the rpc span, so one trace id spans both processes.
    """
    with trace.span(f"rpc.{op}", worker=handle.index):
        trace_context = trace.current_context()
        try:
            if trace_context is None:
                handle.conn.send((op, payload))
            else:
                handle.conn.send((op, payload, trace_context))
            poll_reply(handle, op, timeout)
            reply = handle.conn.recv()
        except WorkerDiedError:
            raise
        except (EOFError, OSError, BrokenPipeError, ValueError) as error:
            raise WorkerDiedError(
                f"worker {handle.index} died during {op!r}: "
                f"{type(error).__name__}: {error}") from error
        if len(reply) == 3:
            verdict, result, remote_spans = reply
            if remote_spans:
                trace.absorb(remote_spans)
        else:
            verdict, result = reply
        if verdict == "error":
            raise rebuild_error(*result)
        return result


def request(handle: PipeWorkerHandle, op: str, payload,
            timeout: float) -> Any:
    """One request/response round-trip (raises worker-side errors)."""
    with handle.lock:
        return request_locked(handle, op, payload, timeout)


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #
def resolve_start_method(start_method: Optional[str]) -> str:
    """``"fork"`` where the platform has it, else ``"spawn"``; validated."""
    if start_method is None:
        available = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in available else "spawn"
    if start_method not in ("fork", "spawn"):
        raise ConfigurationError(
            f"start_method must be 'fork' or 'spawn', got {start_method!r}")
    return start_method


def start_worker(start_method: str, index: int, target: Callable,
                 args: Tuple, name: str) -> PipeWorkerHandle:
    """Start ``target(conn, *args)`` in a daemon process over a fresh pipe.

    Under ``fork`` the arguments are inherited, never pickled, so large
    payloads (whole tables) cross for free; under ``spawn`` they are
    pickled into the worker exactly once, at start.
    """
    context = multiprocessing.get_context(start_method)
    parent_conn, child_conn = context.Pipe(duplex=True)
    process = context.Process(target=target, args=(child_conn, *args),
                              name=name, daemon=True)
    process.start()
    child_conn.close()  # the parent keeps only its end
    return PipeWorkerHandle(index=index, process=process, conn=parent_conn)


def respawn(handle: PipeWorkerHandle, observed_generation: int,
            spawn: Callable[[int], PipeWorkerHandle], closed: bool) -> bool:
    """Replace a dead worker's process, once per observed death.

    The caller holds ``handle.lock``.  Returns ``False`` when another
    thread already replaced the process the caller saw die.  The old
    process is stopped, ``spawn(index)`` starts its replacement, and the
    handle's ``generation`` and ``restarts`` advance; ``last_stats``
    belonged to the dead process and is cleared (read it first to keep
    it).
    """
    if handle.generation != observed_generation:
        return False
    if closed:
        raise WorkerDiedError(
            f"worker {handle.index} died and its owner is closed")
    try:
        handle.conn.close()
    except OSError:  # pragma: no cover - already closed
        pass
    if handle.process is not None and handle.process.is_alive():
        handle.process.terminate()
    if handle.process is not None:
        handle.process.join(timeout=5.0)
    fresh = spawn(handle.index)
    handle.process = fresh.process
    handle.conn = fresh.conn
    handle.generation += 1
    handle.restarts += 1
    handle.last_stats = None
    return True


def shutdown(handles: Sequence[PipeWorkerHandle]) -> None:
    """Shut workers down gracefully, then firmly.

    The graceful half waits only briefly for each worker's pipe lock — a
    worker mid-way through a long request holds it for the whole
    round-trip, and shutdown must not stall behind request traffic; an
    unreachable worker is simply terminated below.
    """
    for handle in handles:
        if not handle.lock.acquire(timeout=2.0):
            continue  # busy worker: skip graceful, terminate below
        try:
            handle.conn.send(("shutdown", None))
            handle.conn.poll(2.0)
        except (OSError, ValueError, BrokenPipeError):
            pass
        finally:
            handle.lock.release()
    for handle in handles:
        if handle.process is not None:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=2.0)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def probe_stats(handles: Sequence[PipeWorkerHandle], timeout: float,
                fallback: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every worker's ``stats`` snapshot, keyed by its index as a string.

    A worker busy with a long request holds its pipe lock for the whole
    round-trip; observability must answer *now*, so each probe waits
    briefly and falls back to the worker's last known snapshot (or
    ``fallback``) marked ``stale`` instead of queueing behind the request.
    The bounded wait happens on the lock, before sending — abandoning a
    sent request would desynchronise the pipe.  Probes run concurrently,
    so the stall is about 2 s in total, not per busy worker.  A failed
    probe reports ``fallback`` plus an ``error`` string.
    """
    def probe(handle: PipeWorkerHandle) -> Dict[str, Any]:
        if not handle.lock.acquire(timeout=2.0):
            stale = dict(handle.last_stats or fallback)
            stale["stale"] = True
            return stale
        try:
            snapshot = request_locked(handle, "stats", None, timeout)
            handle.last_stats = snapshot
            return snapshot
        except Exception as error:
            return dict(fallback, error=f"{type(error).__name__}: {error}")
        finally:
            handle.lock.release()

    if len(handles) <= 1:
        snapshots = [probe(handle) for handle in handles]
    else:
        with ThreadPoolExecutor(max_workers=len(handles)) as executor:
            snapshots = list(executor.map(probe, handles))
    return {str(handle.index): snapshot
            for handle, snapshot in zip(handles, snapshots)}
