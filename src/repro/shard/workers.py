"""Process-parallel shard workers over per-shard snapshot files.

The thread-pool query waves of :mod:`repro.endpoint.simulation` hit the
GIL ceiling: latency sleeps overlap, but the CPU-bound per-shard join
pipelines serialise on one core.  This module lifts evaluation out of a
single interpreter.  A :class:`ProcessShardExecutor` spawns one worker
process per shard (a smaller ``pool_size`` makes workers serve several
shards each); every worker **mmap-opens** its shard's snapshot columns
plus the shared lazy dictionary straight from the snapshot directory —
no store is pickled across the process boundary and nothing is
re-interned, so worker-side dictionary IDs are byte-for-byte the
parent's and binding batches can travel as plain integers.

Protocol (one task queue and one result queue per worker, plus a control
queue):

* parent → worker: ``("eval", task_id, shard_index, work, initial,
  fold, project, distinct, page, trace_ts)`` — evaluate ``work`` (a
  pickled :class:`~repro.sparql.ast.GroupGraphPattern` or
  :class:`~repro.sparql.distjoin.ShipPlan`) against the shard's local
  evaluator.  With a ``fold`` spec the worker reduces its stream to one
  partial aggregate message; otherwise it streams solution batches,
  optionally restricted to the ``project`` variables (and locally
  deduplicated when ``distinct``).  With a ``page`` — this shard's
  ``(offset, limit)`` slice of a LIMIT/OFFSET page — ``work`` is the
  :class:`~repro.sparql.ast.SelectQuery` itself and the worker answers
  just that slice (in ID columns when the kernels run) in one ``page``
  message.  ``("ping", task_id)`` — health probe;
  ``("stall", task_id, seconds)`` — hold the worker busy (fault-injection
  and cancellation tests); ``("stop",)`` — exit.
* parent → worker (control queue): ``("cancel", task_id)`` aborts an
  in-flight task between batches; ``("ack", task_id, n)`` grants ``n``
  result-window credits.  **Credit-based flow control**: each eval task
  starts with ``result_window`` credits, every ``rows`` batch costs one,
  and a worker out of credits blocks (polling the control queue) until
  the parent acks a consumed batch or cancels the task — so a trailing
  shard can buffer at most ``result_window`` batches in the parent, and
  ASK/LIMIT cancellation frees its credits immediately.  The default
  window comes from the ``REPRO_RESULT_WINDOW`` environment variable.
* worker → parent: ``(task_id, "rows", batch)`` (a batch is a list of
  serialized bindings: tuples of ``(variable_name, id_or_term)`` pairs),
  ``(task_id, "page", names, rows)`` (a page slice: ID tuples aligned
  with the variable ``names``; it costs no credit and counts as one row
  batch in the ledger), ``(task_id, "agg", partial)`` (one fold partial,
  not terminal),
  ``(task_id, "done", row_count, cancelled, trace)``, ``(task_id,
  "error", type_name, message, traceback, trace)``, ``(task_id, "pong",
  info)``.

**Tracing piggyback**: when the parent's query is being traced
(``endpoint.profile`` / ``REPRO_TRACE``), ``trace_ts`` carries the
dispatch ``time.monotonic()`` and the worker measures its own
``worker:exec`` span — queue wait (monotonic clocks are comparable
across processes on Linux), shard, pid, rows — which rides back as the
``trace`` payload of the terminal ``done``/``error`` message and is
re-parented into the caller's span tree.  Untraced queries pay one
``is None`` check; the payload slot stays ``None``.

Crash handling: a per-worker collector thread in the parent routes result
messages to per-task buffers and watches the worker process.  When a
worker dies mid-task (crash, OOM kill, SIGKILL) every in-flight task on
it fails with :class:`~repro.errors.WorkerCrashError` — an
:class:`~repro.errors.EndpointError`, so the endpoint simulation captures
it per query and refunds the budget slot — and the executor respawns the
worker (fresh process, fresh queues) so the next wave runs at full
strength.

Start methods: the executor accepts ``start_method="fork" | "spawn" |
"forkserver"`` (default: the platform's multiprocessing default).  All
task payloads are picklable by construction — query ASTs are trees of
frozen dataclasses over :class:`~repro.rdf.terms.Term` and
:class:`~repro.sparql.bindings.Variable`, which define ``__reduce__`` —
and respawned workers always get fresh queues, so the executor is safe
under every start method.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import repro.errors as _errors
from repro.errors import ReproError, StoreError, WorkerCrashError
from repro.obs import config as _config
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, recorder
from repro.sparql.bindings import IdBinding, Variable

#: Rows per result batch: large enough to amortise one queue round-trip
#: over many solutions, small enough to keep cancellation responsive.
DEFAULT_BATCH_ROWS = 256

#: Result-window credits per eval task: how many ``rows`` batches a worker
#: may have outstanding (sent but not yet consumed by the parent) before
#: it blocks awaiting an ack.  Bounds parent-side buffering per task at
#: ``result_window * batch_rows`` rows.
DEFAULT_RESULT_WINDOW = _config.DEFAULT_RESULT_WINDOW


def _default_result_window() -> int:
    """The configured result window (``REPRO_RESULT_WINDOW`` override)."""
    return _config.result_window()

#: How often collector threads wake to check worker liveness (seconds).
_POLL_INTERVAL = 0.05

#: Task ID used by workers for task-independent fatal reports.
_FATAL_ID = -1

#: Worker-side cache of unpickled group ASTs, keyed by payload bytes —
#: wave workloads re-issue the same query shapes, and the local plan
#: cache already hits on structurally equal groups.
_GROUP_CACHE_LIMIT = 512

#: Consecutive boot failures (a worker that reports a fatal error while
#: opening its snapshot and dies) after which a pool slot stops being
#: respawned.  Deterministic boot failures — a corrupt shard file, an
#: unreadable directory — would otherwise fork doomed processes forever.
_MAX_BOOT_FAILURES = 3

#: Terminal result-message kinds (the task is finished after them).
_TERMINAL = ("done", "error", "pong")

#: Result-message kinds that carry solution rows (counted by the ledger).
_ROW_KINDS = ("rows", "page")


# --------------------------------------------------------------------- #
# Binding serialisation
# --------------------------------------------------------------------- #
def encode_binding(binding: IdBinding) -> Tuple[Tuple[str, object], ...]:
    """Serialize an :class:`IdBinding` for the worker protocol.

    Values are dictionary IDs (plain ints — valid in every process
    because all workers open the same dictionary file) or, for constants
    unknown to the dictionary (VALUES rows), the Term itself.
    """
    return tuple((var.name, value) for var, value in binding.items())


def decode_binding(
    payload: Sequence[Tuple[str, object]], memo: Dict[str, Variable]
) -> IdBinding:
    """Rebuild an :class:`IdBinding`; ``memo`` shares Variable instances."""
    data = {}
    for name, value in payload:
        var = memo.get(name)
        if var is None:
            var = memo[name] = Variable(name)
        data[var] = value
    return IdBinding(data)


# --------------------------------------------------------------------- #
# Process-parallel batch helper (shard builds)
# --------------------------------------------------------------------- #
def map_in_processes(
    function,
    payloads,
    processes: int,
    start_method: Optional[str] = None,
):
    """``[function(*payload) for payload in payloads]`` on a process pool.

    The build-time sibling of :class:`ProcessShardExecutor`: the sharded
    store's :meth:`~repro.shard.sharded_store.ShardedTripleStore.from_id_columns`
    runs the per-shard partition sorts through this so shard CSR builds
    overlap on multi-core hosts.  ``function`` must be a module-level
    callable and payloads tuples of picklable arguments (flat column
    bytes, in the shard-build case).  Falls back to an inline loop when
    only one process is requested.
    """
    items = list(payloads)
    processes = min(processes, len(items))
    if processes <= 1:
        return [function(*payload) for payload in items]
    ctx = multiprocessing.get_context(start_method)
    with ctx.Pool(processes=processes) as pool:
        return pool.starmap(function, items)


# --------------------------------------------------------------------- #
# Worker process main
# --------------------------------------------------------------------- #
def _apply_control(message, cancelled: set, acks: Dict[int, int]) -> None:
    if message[0] == "cancel":
        cancelled.add(message[1])
    else:  # ("ack", task_id, n)
        task_id = message[1]
        acks[task_id] = acks.get(task_id, 0) + message[2]


def _drain_control(control_queue, cancelled: set, acks: Dict[int, int]) -> None:
    while True:
        try:
            message = control_queue.get_nowait()
        except queue.Empty:
            return
        _apply_control(message, cancelled, acks)


def _await_credit(
    control_queue, cancelled: set, acks: Dict[int, int], task_id: int
) -> int:
    """Block until the parent grants credits for ``task_id`` (or cancels).

    Returns the granted credit count, 0 when the task was cancelled while
    waiting — cancellation frees a starved task immediately instead of
    leaving the worker parked on a window the consumer will never drain.
    """
    while True:
        if task_id in cancelled:
            return 0
        granted = acks.pop(task_id, 0)
        if granted:
            return granted
        try:
            message = control_queue.get(timeout=_POLL_INTERVAL)
        except queue.Empty:
            continue
        _apply_control(message, cancelled, acks)
        _drain_control(control_queue, cancelled, acks)


def _restrict_solutions(
    solutions, names: Tuple[str, ...], distinct: bool, memo: Dict[str, Variable]
):
    """Worker-side projection pushdown: keep only the projected variables.

    With ``distinct`` the worker deduplicates the restricted rows locally
    before they hit the wire — the parent still deduplicates globally, so
    this only shrinks the transfer (restriction makes parent projection a
    bijection on these rows, hence local dedup never changes the result).
    """
    variables = []
    for name in names:
        variable = memo.get(name)
        if variable is None:
            variable = memo[name] = Variable(name)
        variables.append(variable)
    seen = set() if distinct else None
    for solution in solutions:
        data = {}
        for variable in variables:
            value = solution.get(variable)
            if value is not None:
                data[variable] = value
        row = IdBinding(data)
        if seen is not None:
            if row in seen:
                continue
            seen.add(row)
        yield row


def _worker_diagnostics(worker_index, stores, dictionary, tasks_served) -> dict:
    """The payload of a ``pong`` reply: liveness plus the invariants the
    no-re-intern property tests assert (lazy dictionary never promoted,
    no shard index holding unfolded mutations)."""
    return {
        "pid": os.getpid(),
        "worker": worker_index,
        "shards": sorted(stores),
        "triples": {index: len(store) for index, store in stores.items()},
        "promoted": bool(getattr(dictionary, "is_promoted", True)),
        "frozen": {index: store.is_frozen for index, store in stores.items()},
        "tasks_served": tasks_served,
    }


def shard_worker_main(
    worker_index: int,
    shard_indices: Sequence[int],
    directory: str,
    task_queue,
    result_queue,
    control_queue,
    verify: bool,
    batch_rows: int,
    result_window: int = DEFAULT_RESULT_WINDOW,
) -> None:
    """Entry point of one shard worker process.

    Module-level (not a closure) so it is importable under the ``spawn``
    and ``forkserver`` start methods.
    """
    from repro.sparql.distjoin import ShipPlan, execute_ship_plan
    from repro.sparql.evaluate import QueryEvaluator
    from repro.sparql.fold import fold_local
    from repro.store.persist import open_shard_stores

    try:
        stores, dictionary, _ = open_shard_stores(
            directory, shard_indices, mmap=True, verify=verify
        )
        evaluators = {
            index: QueryEvaluator(store) for index, store in stores.items()
        }
    except BaseException as error:  # report, then die: parent raises crash
        result_queue.put(
            (_FATAL_ID, "error", type(error).__name__, str(error),
             traceback.format_exc())
        )
        return

    cancelled: set = set()
    acks: Dict[int, int] = {}
    work_cache: Dict[bytes, object] = {}
    tasks_served = 0

    def cached_payload(payload_bytes: bytes):
        cached = work_cache.get(payload_bytes)
        if cached is None:
            if len(work_cache) >= _GROUP_CACHE_LIMIT:
                work_cache.clear()
            cached = work_cache[payload_bytes] = pickle.loads(payload_bytes)
        return cached

    while True:
        message = task_queue.get()
        received = time.monotonic()
        kind = message[0]
        if kind == "stop":
            return
        task_id = message[1]
        tasks_served += 1
        _drain_control(control_queue, cancelled, acks)
        # Task IDs reach a worker in increasing order, so cancel marks and
        # credit acks below the current task can never match again — prune.
        cancelled = {tid for tid in cancelled if tid >= task_id}
        acks = {tid: n for tid, n in acks.items() if tid >= task_id}
        if kind == "ping":
            result_queue.put(
                (task_id, "pong",
                 _worker_diagnostics(worker_index, stores, dictionary,
                                     tasks_served))
            )
            continue
        if kind == "stall":
            deadline = time.monotonic() + message[2]
            was_cancelled = False
            while time.monotonic() < deadline:
                time.sleep(0.01)
                _drain_control(control_queue, cancelled, acks)
                if task_id in cancelled:
                    was_cancelled = True
                    break
            result_queue.put((task_id, "done", 0, was_cancelled, None))
            continue
        if kind != "eval":
            result_queue.put(
                (task_id, "error", "WorkerCrashError",
                 f"unknown task kind {kind!r}", "", None)
            )
            continue
        (_, _, shard_index, work_bytes, initial_payload, fold_bytes, project,
         distinct, page, trace_ts) = message
        if task_id in cancelled:
            result_queue.put((task_id, "done", 0, True, None))
            continue
        # Worker-side tracing: the parent stamped its dispatch monotonic
        # time, so queue wait is directly measurable here; the finished
        # span rides home on the terminal message.
        span: Optional[Span] = None
        if trace_ts is not None:
            span = Span(
                "worker:exec",
                {
                    "shard": shard_index,
                    "worker": worker_index,
                    "pid": os.getpid(),
                    "queue_wait_ms": round(
                        max(0.0, received - trace_ts) * 1000, 3
                    ),
                },
                process="worker",
            )

        def span_payload(status="ok", error=None, **attributes):
            if span is None:
                return None
            span.annotate(**attributes)
            span.finish(status=status, error=error)
            return span.to_dict()

        try:
            work = cached_payload(work_bytes)
            evaluator = evaluators[shard_index]
            if page is not None:
                # Page pushdown: ``work`` is the SELECT query and ``page``
                # this shard's (offset, limit) slice of it, answered in
                # one message — in ID columns when the kernels run.
                bound, rows = evaluator._page_ids(work, *page)
                result_queue.put(
                    (task_id, "page", tuple(v.name for v in bound), rows)
                )
                result_queue.put(
                    (task_id, "done", len(rows), False,
                     span_payload(mode="page", rows=len(rows)))
                )
                continue
            memo: Dict[str, Variable] = {}
            initial = decode_binding(initial_payload, memo)
            if isinstance(work, ShipPlan):
                solutions = execute_ship_plan(evaluator, work, initial)
            else:
                solutions = evaluator._evaluate_group(work, initial)

            if fold_bytes is not None:
                # Aggregate pushdown: reduce the whole stream to one
                # partial; transfer is O(groups), not O(solutions).
                spec = cached_payload(fold_bytes)

                def fold_stopped() -> bool:
                    _drain_control(control_queue, cancelled, acks)
                    return task_id in cancelled

                partial = fold_local(solutions, spec, fold_stopped)
                if partial is None:
                    result_queue.put(
                        (task_id, "done", 0, True,
                         span_payload(mode="fold", cancelled=True))
                    )
                else:
                    result_queue.put((task_id, "agg", partial))
                    result_queue.put(
                        (task_id, "done", len(partial), False,
                         span_payload(mode="fold", groups=len(partial)))
                    )
                continue

            if project is not None:
                solutions = _restrict_solutions(
                    solutions, project, bool(distinct), memo
                )

            batch: List[Tuple[Tuple[str, object], ...]] = []
            count = 0
            was_cancelled = False
            credits = result_window
            for binding in solutions:
                batch.append(encode_binding(binding))
                count += 1
                if len(batch) >= batch_rows:
                    _drain_control(control_queue, cancelled, acks)
                    credits += acks.pop(task_id, 0)
                    if task_id in cancelled:
                        was_cancelled = True
                        break
                    if credits <= 0:
                        credits = _await_credit(
                            control_queue, cancelled, acks, task_id
                        )
                        if not credits:
                            was_cancelled = True
                            break
                    result_queue.put((task_id, "rows", batch))
                    credits -= 1
                    batch = []
            if batch and not was_cancelled:
                credits += acks.pop(task_id, 0)
                if credits <= 0:
                    credits = _await_credit(
                        control_queue, cancelled, acks, task_id
                    )
                if credits:
                    result_queue.put((task_id, "rows", batch))
                else:
                    was_cancelled = True
            result_queue.put(
                (task_id, "done", count, was_cancelled,
                 span_payload(rows=count, cancelled=was_cancelled))
            )
        except BaseException as error:
            result_queue.put(
                (task_id, "error", type(error).__name__, str(error),
                 traceback.format_exc(),
                 span_payload(status="error", error=error))
            )


# --------------------------------------------------------------------- #
# Parent-side plumbing
# --------------------------------------------------------------------- #
class _TaskStream:
    """Parent-side buffer for one in-flight task's result messages.

    ``pending`` counts buffered-but-unconsumed ``rows`` batches (guarded
    by the executor's stats lock); cancellation refunds them from the
    global buffered gauge at cancel-enqueue time.
    """

    __slots__ = ("task_id", "handle", "shard_index", "finished", "pending",
                 "cancelled", "_buffer")

    def __init__(
        self, task_id: int, handle: "_WorkerHandle", shard_index: int = -1
    ):
        self.task_id = task_id
        self.handle = handle
        self.shard_index = shard_index
        self.finished = False
        self.pending = 0
        self.cancelled = False
        self._buffer: "queue.SimpleQueue" = queue.SimpleQueue()

    def push(self, item) -> None:
        self._buffer.put(item)

    def next_message(self, timeout: Optional[float]):
        return self._buffer.get(timeout=timeout)


class _WorkerHandle:
    """One worker process plus its queues, collector and in-flight tasks."""

    __slots__ = (
        "index", "shard_indices", "process", "task_queue", "result_queue",
        "control_queue", "inflight", "lock", "dead", "fatal_info", "collector",
        "next_task_id",
    )

    def __init__(self, index, shard_indices, process, task_queue,
                 result_queue, control_queue):
        self.index = index
        self.shard_indices = shard_indices
        self.process = process
        self.task_queue = task_queue
        self.result_queue = result_queue
        self.control_queue = control_queue
        self.inflight: Dict[int, _TaskStream] = {}
        self.lock = threading.Lock()
        self.dead = False
        self.fatal_info: Optional[Tuple[str, str, str]] = None
        self.collector: Optional[threading.Thread] = None
        # Task IDs are per worker, and allocation + registration + the
        # queue put happen under one lock so the IDs a worker receives
        # are strictly increasing — the invariant its cancel-mark prune
        # relies on.
        self.next_task_id = 0

    def close_queues(self) -> None:
        for q in (self.task_queue, self.result_queue, self.control_queue):
            try:
                q.close()
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass


class ProcessShardExecutor:
    """Serves a sharded snapshot directory from a pool of shard workers.

    Parameters
    ----------
    directory:
        A snapshot directory written by
        :meth:`~repro.shard.sharded_store.ShardedTripleStore.save` (the
        usual entry point is
        :meth:`~repro.shard.sharded_store.ShardedTripleStore.serve`,
        which snapshots first when the store is dirty).
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; ``None`` uses the
        platform default.
    pool_size:
        Worker processes to spawn; defaults to one per shard.  With
        fewer workers than shards, shard ``i`` is served by worker
        ``i % pool_size``.
    verify:
        Forwarded to the snapshot open in each worker (per-section CRC
        pass).
    batch_rows:
        Solutions per result batch (protocol granularity: throughput vs
        cancellation latency).
    result_window:
        Credits per eval task — how many ``rows`` batches a worker may
        have in flight before it blocks for an ack.  Bounds parent-side
        buffering per task at ``result_window * batch_rows`` rows.
        ``None`` reads ``REPRO_RESULT_WINDOW`` (default
        :data:`DEFAULT_RESULT_WINDOW`).

    The executor is a context manager; :meth:`close` stops the workers.
    """

    def __init__(
        self,
        directory,
        start_method: Optional[str] = None,
        pool_size: Optional[int] = None,
        verify: bool = True,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        result_window: Optional[int] = None,
    ):
        from repro.store.persist import _read_manifest

        self._directory = Path(directory)
        manifest = _read_manifest(self._directory)
        self._num_shards: int = manifest["num_shards"]
        if pool_size is None:
            pool_size = self._num_shards
        if pool_size < 1:
            raise StoreError(f"pool_size must be >= 1, got {pool_size}")
        if result_window is None:
            result_window = _default_result_window()
        if result_window < 1:
            raise StoreError(f"result_window must be >= 1, got {result_window}")
        self._num_workers = min(pool_size, self._num_shards)
        self._ctx = multiprocessing.get_context(start_method)
        self._verify = verify
        self._batch_rows = batch_rows
        self._result_window = int(result_window)
        self._lock = threading.Lock()
        self._closed = False
        #: Per-executor instruments; :meth:`protocol_stats` mirrors the
        #: ledger into it as ``worker.protocol.*`` gauges.
        self.metrics = MetricsRegistry()
        # Protocol accounting: every counter mutation happens under one
        # stats lock so the ledger balances exactly at quiescence
        # (dispatched == completed + cancelled + failed + crashed) and the
        # buffered-batches gauge reflects live parent-side buffering.
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = {
            "dispatched": 0,
            "completed": 0,
            "cancelled": 0,
            "failed": 0,
            "crashed": 0,
            "row_batches": 0,
            "rows": 0,
            "agg_partials": 0,
            "acks": 0,
            "dropped_batches": 0,
            "buffered_batches": 0,
            "max_buffered_batches": 0,
        }
        # Consecutive fatal boot failures per pool slot; at
        # _MAX_BOOT_FAILURES the slot is abandoned (dispatch fails fast
        # with the worker's reported error instead of respawn-looping).
        self._boot_failures: List[int] = [0] * self._num_workers
        self._abandoned: List[Optional[str]] = [None] * self._num_workers
        self._handles: List[_WorkerHandle] = [
            self._spawn_handle(index) for index in range(self._num_workers)
        ]

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        """The served snapshot directory."""
        return self._directory

    @property
    def num_shards(self) -> int:
        """Shards in the served snapshot."""
        return self._num_shards

    @property
    def num_workers(self) -> int:
        """Worker processes in the pool."""
        return self._num_workers

    def worker_for_shard(self, shard_index: int) -> int:
        """The pool slot serving ``shard_index``."""
        if not 0 <= shard_index < self._num_shards:
            raise StoreError(
                f"shard index {shard_index} out of range for "
                f"{self._num_shards} shards"
            )
        return shard_index % self._num_workers

    def worker_pids(self) -> List[Optional[int]]:
        """Current worker PIDs, by pool slot."""
        with self._lock:
            return [handle.process.pid for handle in self._handles]

    @property
    def result_window(self) -> int:
        """Credits per eval task (see :data:`DEFAULT_RESULT_WINDOW`)."""
        return self._result_window

    def protocol_stats(self) -> Dict[str, int]:
        """A snapshot of the executor's protocol ledger.

        Task counters (``dispatched`` / ``completed`` / ``cancelled`` /
        ``failed`` / ``crashed``) balance exactly once all streams reach a
        terminal state; ``buffered_batches`` is the live gauge of result
        batches held in parent-side buffers and ``max_buffered_batches``
        its high-water mark — with flow control it stays within
        ``result_window`` per concurrently in-flight task.  Each snapshot
        also folds the ledger into :attr:`metrics` as
        ``worker.protocol.<counter>`` gauges.
        """
        with self._stats_lock:
            snapshot = dict(self._stats)
        for key, value in snapshot.items():
            self.metrics.gauge("worker.protocol." + key).set(value)
        return snapshot

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until no task is in flight on any worker.

        The handover primitive: a retiring executor keeps answering the
        queries it already accepted (its workers serve their snapshot
        from their own mmaps, unaffected by parent-side mutation) and is
        closed only once this returns.  Returns ``True`` at quiescence,
        ``False`` when ``timeout`` elapsed with tasks still in flight —
        the ledger still balances either way once the streams terminate.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                handles = list(self._handles)
            busy = 0
            for handle in handles:
                with handle.lock:
                    busy += len(handle.inflight)
            if not busy:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_INTERVAL)

    def close(self, timeout: float = 5.0) -> None:
        """Stop all workers and release their queues (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        for handle in handles:
            try:
                handle.task_queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - dead queue
                pass
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        for handle in handles:
            if handle.collector is not None:
                handle.collector.join(timeout=1.0)
            handle.close_queues()

    # ------------------------------------------------------------------ #
    # Spawning / crash handling
    # ------------------------------------------------------------------ #
    def _shards_of(self, worker_index: int) -> Tuple[int, ...]:
        return tuple(
            range(worker_index, self._num_shards, self._num_workers)
        )

    def _spawn_handle(self, worker_index: int) -> _WorkerHandle:
        ctx = self._ctx
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        control_queue = ctx.Queue()
        process = ctx.Process(
            target=shard_worker_main,
            args=(
                worker_index,
                self._shards_of(worker_index),
                str(self._directory),
                task_queue,
                result_queue,
                control_queue,
                self._verify,
                self._batch_rows,
                self._result_window,
            ),
            name=f"repro-shard-worker-{worker_index}",
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(
            worker_index, self._shards_of(worker_index), process,
            task_queue, result_queue, control_queue,
        )
        collector = threading.Thread(
            target=self._collect,
            args=(handle,),
            name=f"repro-shard-collector-{worker_index}",
            daemon=True,
        )
        handle.collector = collector
        collector.start()
        return handle

    def _collect(self, handle: _WorkerHandle) -> None:
        """Route one worker's result messages; detect death; respawn."""
        while True:
            try:
                message = handle.result_queue.get(timeout=_POLL_INTERVAL)
            except queue.Empty:
                if handle.process.is_alive():
                    continue
                self._reap(handle)
                return
            except (EOFError, OSError):  # pragma: no cover - teardown race
                self._reap(handle)
                return
            self._route(handle, message)

    def _route(self, handle: _WorkerHandle, message) -> None:
        task_id = message[0]
        if task_id == _FATAL_ID:
            handle.fatal_info = message[2:5]
            return
        kind = message[1]
        with handle.lock:
            stream = handle.inflight.get(task_id)
            if stream is None:  # cancelled and forgotten
                if kind in _ROW_KINDS:
                    with self._stats_lock:
                        self._stats["dropped_batches"] += 1
                return
            if kind in _TERMINAL:
                del handle.inflight[task_id]
        with self._stats_lock:
            if kind in _ROW_KINDS:
                if stream.cancelled:
                    # _cancel already refunded this stream's buffers; a
                    # batch the worker had in the pipe must not re-enter
                    # the gauge (it will never be consumed).
                    self._stats["dropped_batches"] += 1
                    return
                self._stats["row_batches"] += 1
                self._stats["rows"] += len(message[-1])
            if kind == "rows":
                # Only credit-controlled batches count as buffered: a page
                # is one message per task, bounded by its LIMIT.
                stream.pending += 1
                buffered = self._stats["buffered_batches"] + 1
                self._stats["buffered_batches"] = buffered
                if buffered > self._stats["max_buffered_batches"]:
                    self._stats["max_buffered_batches"] = buffered
            elif kind == "agg":
                self._stats["agg_partials"] += 1
            elif kind == "done" or kind == "pong":
                self._stats["completed"] += 1
            elif kind == "error":
                self._stats["failed"] += 1
        stream.push(message[1:])

    def _reap(self, handle: _WorkerHandle) -> None:
        """The worker died: drain, fail its in-flight tasks, respawn."""
        while True:  # messages already in the pipe still count
            try:
                self._route(handle, handle.result_queue.get_nowait())
            except (queue.Empty, EOFError, OSError):
                break
        with handle.lock:
            handle.dead = True
            streams = list(handle.inflight.values())
            handle.inflight.clear()
        detail = ""
        if handle.fatal_info is not None:
            name, text, _ = handle.fatal_info
            detail = f" (worker reported {name}: {text})"
        error = WorkerCrashError(
            f"shard worker {handle.index} (pid {handle.process.pid}) died "
            f"with {len(streams)} task(s) in flight{detail}"
        )
        with self._stats_lock:
            for stream in streams:
                self._stats["crashed"] += 1
                if stream.pending:
                    self._stats["buffered_batches"] -= stream.pending
                    stream.pending = 0
        for stream in streams:
            stream.push(("crashed", error))
        handle.close_queues()
        with self._lock:
            if handle.fatal_info is not None:
                self._boot_failures[handle.index] += 1
                if self._boot_failures[handle.index] >= _MAX_BOOT_FAILURES:
                    # Deterministically doomed (corrupt snapshot, ...):
                    # abandon the slot instead of fork-looping forever.
                    self._abandoned[handle.index] = detail.strip() or str(error)
            else:
                self._boot_failures[handle.index] = 0
            respawn = (
                not self._closed
                and self._abandoned[handle.index] is None
                and self._handles[handle.index] is handle
            )
        if respawn:
            replacement = self._spawn_handle(handle.index)
            with self._lock:
                if self._closed:  # pragma: no cover - close raced the respawn
                    respawn = False
                else:
                    self._handles[handle.index] = replacement
            if not respawn:  # pragma: no cover - close raced the respawn
                replacement.process.terminate()

    # ------------------------------------------------------------------ #
    # Dispatch / gather
    # ------------------------------------------------------------------ #
    def _dispatch(self, shard_index: int, kind: str, *extra) -> _TaskStream:
        worker_index = self.worker_for_shard(shard_index)
        deadline = time.monotonic() + 2.0
        while True:
            with self._lock:
                if self._closed:
                    raise StoreError("ProcessShardExecutor is closed")
                abandoned = self._abandoned[worker_index]
                handle = self._handles[worker_index]
            if abandoned is not None:
                raise WorkerCrashError(
                    f"shard worker {worker_index} gave up respawning after "
                    f"{_MAX_BOOT_FAILURES} consecutive boot failures "
                    f"{abandoned}"
                )
            stream = None
            with handle.lock:
                if not handle.dead:
                    # ID allocation, registration and the queue put share
                    # the handle lock: the worker therefore sees strictly
                    # increasing task IDs (its cancel-mark prune depends
                    # on that ordering).
                    task_id = handle.next_task_id
                    handle.next_task_id += 1
                    stream = _TaskStream(task_id, handle, shard_index)
                    handle.inflight[task_id] = stream
                    if kind == "eval":
                        message = ("eval", task_id, shard_index) + extra
                    else:
                        message = (kind, task_id) + extra
                    dispatched = True
                    try:
                        handle.task_queue.put(message)
                    except (OSError, ValueError):  # pragma: no cover - race
                        dispatched = False
                        handle.inflight.pop(task_id, None)
                        stream.push(("crashed", WorkerCrashError(
                            f"shard worker {worker_index} queue closed "
                            "mid-dispatch"
                        )))
            if stream is not None:
                if dispatched:
                    with self._stats_lock:
                        self._stats["dispatched"] += 1
                return stream
            # The handle died and is being respawned; wait briefly for the
            # replacement instead of failing a query the fresh worker
            # could serve.
            if time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"shard worker {worker_index} did not respawn in time"
                )
            time.sleep(_POLL_INTERVAL)

    def _cancel(self, stream: _TaskStream) -> None:
        handle = stream.handle
        with handle.lock:
            forgotten = handle.inflight.pop(stream.task_id, None)
        with self._stats_lock:
            # Refund the stream's buffered-but-unconsumed batches at
            # cancel-enqueue time: the gauge (and anything budgeted on
            # it) must not wait for the worker to drain the cancel.
            stream.cancelled = True
            if stream.pending:
                self._stats["buffered_batches"] -= stream.pending
                stream.pending = 0
            if forgotten is not None:
                self._stats["cancelled"] += 1
        if forgotten is None:
            return
        try:
            handle.control_queue.put(("cancel", stream.task_id))
        except (OSError, ValueError):  # pragma: no cover - dead queue
            pass

    def _rebuild_error(self, type_name: str, message: str, tb: str):
        cls = getattr(_errors, type_name, None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            return cls(message)
        return WorkerCrashError(
            f"worker task failed: {type_name}: {message}\n{tb}"
        )

    def _dispatch_eval(
        self,
        shard_indices: Sequence[int],
        work,
        initial: Optional[IdBinding],
        fold_spec,
        project: Optional[Sequence[str]],
        distinct: bool,
        traced: bool = False,
        pages: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> List[_TaskStream]:
        """Fan one eval payload out to every routed shard's worker.

        The work object (group AST, ship plan — broadcast tables
        included — or, for pages, the SELECT query) and the fold spec are
        each pickled once per query, not once per shard task; workers
        memoise the unpickled objects per payload bytes.  ``pages`` gives
        each shard its ``(offset, limit)`` slice.  With ``traced`` each
        task carries the dispatch monotonic timestamp so workers can
        measure queue wait and ship a ``worker:exec`` span back on their
        terminal message.
        """
        payload = encode_binding(initial if initial is not None else IdBinding.EMPTY)
        work_bytes = pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL)
        fold_bytes = (
            None
            if fold_spec is None
            else pickle.dumps(fold_spec, protocol=pickle.HIGHEST_PROTOCOL)
        )
        project_names = None if project is None else tuple(project)
        streams: List[_TaskStream] = []
        try:
            for position, shard_index in enumerate(shard_indices):
                page = None if pages is None else pages[position]
                trace_ts = time.monotonic() if traced else None
                streams.append(
                    self._dispatch(
                        shard_index, "eval", work_bytes, payload,
                        fold_bytes, project_names, bool(distinct), page,
                        trace_ts,
                    )
                )
        except BaseException:
            for stream in streams:
                self._cancel(stream)
            raise
        return streams

    def _merge_span(self, streams: List[_TaskStream], trace_parent):
        """The ``parent:merge/decode`` span for a traced scatter, or None."""
        tracer = recorder()
        if trace_parent is None and not tracer.active:
            return None
        return tracer.stream_span(
            "parent:merge/decode", parent=trace_parent, shards=len(streams)
        )

    @staticmethod
    def _attach_worker_span(span, payload) -> None:
        if span is not None and payload is not None:
            span.children.append(Span.from_payload(payload))

    @staticmethod
    def _attach_crash_span(span, stream: _TaskStream, error) -> None:
        """Synthesize the worker:exec span a crashed worker never sent."""
        if span is None:
            return
        child = Span(
            "worker:exec",
            {"shard": stream.shard_index, "crashed": True},
            process="worker",
        )
        child.finish(status="error", error=error)
        span.children.append(child)

    def run_group(
        self,
        shard_indices: Sequence[int],
        work,
        initial: Optional[IdBinding] = None,
        project: Optional[Sequence[str]] = None,
        distinct: bool = False,
        trace_parent=None,
    ) -> Iterator[IdBinding]:
        """Scatter one group (or ship plan) over its shards' workers.

        All per-shard tasks are dispatched up front (a single query fans
        out over the pool and the per-shard pipelines run genuinely in
        parallel), then gathered lazily in shard order.  Closing the
        returned iterator early — ASK's first solution, a filled LIMIT
        page — sends cancel messages for every unfinished task.

        Parent-side buffering is bounded by the credit protocol: each
        task may have at most ``result_window`` row batches buffered, so
        a trailing shard waits for the consumer instead of materialising
        its whole result in the parent.  ``project`` (variable names) and
        ``distinct`` push the final projection down to the workers for
        plain SELECT queries.

        ``trace_parent`` (a :class:`~repro.obs.trace.Span`) re-parents
        the scatter's ``parent:merge/decode`` span — and the worker-side
        ``worker:exec`` spans shipped back on terminal messages — under
        the caller's trace even though the returned iterator is consumed
        after the calling frame has unwound.
        """
        traced = trace_parent is not None or recorder().active
        streams = self._dispatch_eval(
            shard_indices, work, initial, None, project, distinct,
            traced=traced,
        )
        span = self._merge_span(streams, trace_parent) if traced else None
        return self._gather(streams, span=span)

    def run_fold(
        self,
        shard_indices: Sequence[int],
        work,
        fold_spec,
        initial: Optional[IdBinding] = None,
        trace_parent=None,
    ) -> Dict:
        """Scatter an aggregate query and merge worker-side fold partials.

        Each routed worker reduces its shard's solution stream with
        ``fold_spec`` and ships exactly one partial message — transfer is
        O(shards · groups), never O(solutions).  Returns the merged
        partial dict for :func:`repro.sparql.fold.finalize`.
        """
        from repro.sparql.fold import merge_partial

        traced = trace_parent is not None or recorder().active
        streams = self._dispatch_eval(
            shard_indices, work, initial, fold_spec, None, False,
            traced=traced,
        )
        span = self._merge_span(streams, trace_parent) if traced else None
        merged: Dict = {}
        try:
            for _, item in self._replies(streams, span):
                merge_partial(fold_spec, merged, item[1])
        finally:
            self._settle(streams, span)
        return merged

    def run_page(
        self,
        pages: Sequence[Tuple[int, int, int]],
        query,
        trace_parent=None,
    ) -> List[Tuple[List[Variable], List[tuple]]]:
        """Fetch one SELECT page from the shards that hold it.

        ``pages`` lists ``(shard, offset, limit)`` slices; each routed
        worker answers its slice with
        :meth:`~repro.sparql.evaluate.QueryEvaluator._page_ids` in one
        ``page`` message, so exactly the page's rows cross the process
        boundary.  Returns one ``(bound variables, ID rows)`` pair per
        slice, in ``pages`` order.
        """
        traced = trace_parent is not None or recorder().active
        streams = self._dispatch_eval(
            [shard for shard, _, _ in pages], query, None, None, None, False,
            traced=traced,
            pages=[(offset, limit) for _, offset, limit in pages],
        )
        span = self._merge_span(streams, trace_parent) if traced else None
        parts = []
        try:
            for _, item in self._replies(streams, span):
                parts.append(([Variable(name) for name in item[1]], item[2]))
        finally:
            self._settle(streams, span)
        return parts

    def _ack(self, stream: _TaskStream) -> None:
        """Account one consumed rows batch and grant the worker a credit."""
        with self._stats_lock:
            if stream.pending > 0:
                stream.pending -= 1
                self._stats["buffered_batches"] -= 1
            self._stats["acks"] += 1
        try:
            stream.handle.control_queue.put(("ack", stream.task_id, 1))
        except (OSError, ValueError):  # pragma: no cover - dead queue
            pass

    def _replies(self, streams: List[_TaskStream], span=None):
        """``(stream, message)`` for every non-terminal reply, stream by
        stream in order.

        A stream ends at its ``done`` message (whose worker span joins
        ``span``); a crashed or failed task marks ``span`` and raises.
        """
        for stream in streams:
            while True:
                try:
                    item = stream.next_message(timeout=1.0)
                except queue.Empty:
                    # Defensive: the collector pushes a crash sentinel on
                    # worker death, so a silent stall here means the task
                    # is genuinely still running.
                    continue
                kind = item[0]
                if kind == "done":
                    stream.finished = True
                    self._attach_worker_span(span, item[3])
                    break
                if kind == "crashed":
                    stream.finished = True
                    self._attach_crash_span(span, stream, item[1])
                    if span is not None:
                        span.finish(status="error", error=item[1])
                    raise item[1]
                if kind == "error":
                    stream.finished = True
                    self._attach_worker_span(span, item[4])
                    error = self._rebuild_error(item[1], item[2], item[3])
                    if span is not None:
                        span.finish(status="error", error=error)
                    raise error
                yield stream, item

    def _settle(self, streams: List[_TaskStream], span=None, **attributes) -> None:
        """Cancel every unfinished stream and close the merge span."""
        cancelled = 0
        for stream in streams:
            if not stream.finished:
                self._cancel(stream)
                cancelled += 1
        if span is not None:
            if cancelled:
                attributes["cancelled_tasks"] = cancelled
            span.annotate(**attributes)
            span.finish()

    def _gather(
        self, streams: List[_TaskStream], span=None
    ) -> Iterator[IdBinding]:
        memo: Dict[str, Variable] = {}
        rows_out = 0
        try:
            for stream, item in self._replies(streams, span):
                for row in item[1]:
                    rows_out += 1
                    yield decode_binding(row, memo)
                # Ack only after the batch is fully consumed: a consumer
                # that closes the generator mid-batch skips the ack and
                # the finally-cancel refunds the worker instead.
                self._ack(stream)
        finally:
            # GeneratorExit (a satisfied ASK / filled LIMIT page) lands
            # here too: a clean early close, not an error.
            self._settle(streams, span, rows=rows_out)

    # ------------------------------------------------------------------ #
    # Diagnostics / fault injection
    # ------------------------------------------------------------------ #
    def ping(self, shard_index: int = 0, timeout: float = 10.0) -> dict:
        """Round-trip a health probe through the worker owning a shard.

        Returns the worker's diagnostics: pid, served shards, per-shard
        triple counts, whether its lazy dictionary was ever promoted and
        whether each shard's indexes are still frozen (no unfolded
        mutations; a healthy read-only worker stays unpromoted and
        frozen).
        """
        stream = self._dispatch(shard_index, "ping")
        deadline = time.monotonic() + timeout
        while True:
            try:
                item = stream.next_message(
                    timeout=max(0.01, deadline - time.monotonic())
                )
            except queue.Empty:
                self._cancel(stream)
                raise WorkerCrashError(
                    f"ping to shard {shard_index}'s worker timed out"
                ) from None
            if item[0] == "pong":
                return item[1]
            if item[0] == "crashed":
                raise item[1]
            if item[0] == "error":
                raise self._rebuild_error(item[1], item[2], item[3])

    def ping_all(self, timeout: float = 10.0) -> List[dict]:
        """:meth:`ping` every pool slot (by its lowest-numbered shard)."""
        return [
            self.ping(worker_index, timeout=timeout)
            for worker_index in range(self._num_workers)
        ]

    def stall(self, shard_index: int, seconds: float) -> _TaskStream:
        """Occupy a worker with a cancellable busy-wait task.

        A fault-injection aid for tests: it pins the worker in a known
        in-task state so a SIGKILL lands deterministically mid-task.
        Returns the task's stream; completion can be awaited through it.
        """
        return self._dispatch(shard_index, "stall", seconds)
