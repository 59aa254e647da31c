"""Measurement from outside the program: patched entry points, a reference
clock against host drift, stage timers, layer spans, a timing pool and
memory peaks.

Every probe wraps public functions of ``batchfair`` modules for the length of
a ``with`` block and puts the originals back afterwards. A function imported
by name into other modules is replaced in every ``batchfair`` namespace that
holds it, so calls from any caller go through the probe.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import statistics
import sys
import threading
from contextlib import contextmanager
from time import perf_counter


# -- patching --------------------------------------------------------------------------


def _resolve(path: str):
    """``"dagsim.Simulator.run"`` -> (owner, attribute, is_method)."""
    parts = path.split(".")
    module = sys.modules[f"batchfair.{parts[0]}"]
    if len(parts) == 3:
        return getattr(module, parts[1]), parts[2], True
    return module, parts[1], False


@contextmanager
def patched(paths, wrapper_for):
    """Wrap each named function with ``wrapper_for(path)`` inside the block."""
    undo: list[tuple[object, str, object]] = []
    try:
        for path in paths:
            owner, attr, is_method = _resolve(path)
            orig = owner.__dict__[attr] if is_method else getattr(owner, attr)
            wrapped = wrapper_for(path)(orig)
            if is_method:
                targets = [(owner, attr)]
            else:
                targets = [
                    (mod, key)
                    for name, mod in list(sys.modules.items()) if name.startswith("batchfair")
                    for key, value in list(vars(mod).items()) if value is orig
                ]
            for target, key in targets:
                undo.append((target, key, orig))
                setattr(target, key, wrapped)
        yield
    finally:
        while undo:
            target, key, orig = undo.pop()
            setattr(target, key, orig)


# -- reference clock -------------------------------------------------------------------

# Median reference-loop time on the host the README's figures come from.
REF_NOMINAL_S = 0.0042


def _ref_work(keys: list[str]) -> int:
    # dict, sort and integer work like the program's pure-Python paths; it
    # allocates almost no gc-tracked objects, so it moves no collection
    table: dict[str, int] = {}
    for i, key in enumerate(keys):
        table[key] = table.get(key, 0) + (i & 7)
    acc = 0
    for value in sorted(table.values()):
        acc += value * 3
    return acc


class RefClock:
    """Samples a fixed pure-Python loop between stages.

    The median of a run's samples tracks how fast the host ran during that
    run. Times are reported multiplied by ``factor()``, that is in seconds of
    a host whose reference loop takes REF_NOMINAL_S, which removes most of
    the host's slow drift from one run to the next (see README)."""

    REPS = 3

    def __init__(self) -> None:
        self.keys = [f"k{(i * 7919) % 12007}" for i in range(12000)]
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(self.REPS):
            t0 = perf_counter()
            _ref_work(self.keys)
            self.samples.append(perf_counter() - t0)

    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.samples)


# -- stage timers (end-to-end runs) -----------------------------------------------------

ORACLE_CALLS = (
    "oracle.serial_reference",
    "oracle.check_batch_of",
    "oracle.check_single_graph",
    "oracle.check_loi_monotone",
    "oracle.check_crashed_prefix_monotone",
    "oracle.dist_histogram",
)
STAGES = ("dagsim.Simulator.run", "pipeline.FairnessPipeline.replay_concurrent", *ORACLE_CALLS)
KEEP = "pipeline.FairnessPipeline.replay_concurrent"  # result the checks need


class StageTimer:
    """Times the stages inside ``execute_scenario``, each after a reference
    sample; ``records`` holds (stage, raw seconds) in call order."""

    def __init__(self, clock: RefClock) -> None:
        self.clock = clock
        self.records: list[tuple[str, float]] = []
        self.kept = None

    def _wrap(self, path: str):
        def wrapper(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                result = self.time(path, fn, *args, **kwargs)
                if path == KEEP:
                    self.kept = result
                return result
            return timed
        return wrapper

    def time(self, path: str, fn, *args, **kwargs):
        self.clock.sample()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.records.append((path, perf_counter() - t0))
        return result

    def installed(self):
        return patched(STAGES, self._wrap)

    def total(self, *paths: str) -> float:
        return sum(s for path, s in self.records if path in paths)

    def median(self, *paths: str) -> float:
        return statistics.median(s for path, s in self.records if path in paths)


# -- layer spans (traced runs) ----------------------------------------------------------

# public functions of each module, timed as spans
SPANNED = (
    "harness.execute_scenario",
    "dagsim.Simulator.run",
    "dagsim.Simulator.advance_round",
    "dagsim.Simulator.try_commit",
    "worker.WorkerState.on_fair_propose",
    "worker.WorkerState.build_batch",
    "graph.extract_snapshot",
    "graph.phase1_weights",
    "graph.phase2_build_graph",
    "graph.phase3_anchor",
    "graph.apply_result",
    "finalize.route_votes",
    "finalize.apply_fair_update",
    "finalize.finalize_order",
    "finalize.mark_ready",
    "finalize.emit",
    "pipeline.FairnessPipeline.on_commit",
    "pipeline.FairnessPipeline.replay_concurrent",
    "pipeline.FairnessPipeline.finish",
    *ORACLE_CALLS,
    "trace.RunTrace.receive_orders",
    "trace.RunTrace.reported_orders",
    "trace.RunTrace.committed_lois",
    "trace.RunTrace.retained_sets",
    "trace.RunTrace.fault_roles",
    "trace.RunTrace.correct_replicas",
    "trace.RunTrace.n_replicas",
)
# called hundreds of thousands of times: aggregated, no span record each
HOT = ("worker.WorkerState.observe_client", "worker.WorkerState.observe_remote")
COUNTED = ("params.quorum_size",)  # call count only, time stays with the caller


def _short(path: str) -> str:
    parts = path.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """Spans with self times. A span's self time is its duration minus the
    time its child spans cover; the self times of every span under a root add
    up to the root's duration."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, start, end
        self._child: list[float] = [0.0]
        self._open: list[int] = [-1]
        self.kept = None

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def _enter(self, name: str, record: bool) -> int:
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append((name, self._open[-1], 0.0, 0.0))
            self._open.append(index)
        self._child.append(0.0)
        return index

    def _exit(self, name: str, index: int, t0: float, t1: float) -> None:
        dt = t1 - t0
        child = self._child.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + dt - child
        self.calls[name] = self.calls.get(name, 0) + 1
        self._child[-1] += dt
        if index >= 0:
            self._open.pop()
            self.spans[index] = (name, self.spans[index][1], t0, t1)

    @contextmanager
    def span(self, name: str, record: bool = True):
        index = self._enter(name, record)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(name, index, t0, perf_counter())

    def _wrap(self, path: str):
        name = _short(path)
        record = path not in HOT
        hook = _COUNT_HOOKS.get(name)
        enter, leave = self._enter, self._exit

        def wrapper(fn):
            if path in COUNTED:
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    self.calls[name] = self.calls.get(name, 0) + 1
                    return fn(*args, **kwargs)
                return counted

            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                index = enter(name, record)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(name, index, t0, perf_counter())
                if hook is not None:
                    hook(self, result)
                if path == KEEP:
                    self.kept = result
                return result
            return spanned
        return wrapper

    def installed(self):
        return patched((*SPANNED, *HOT, *COUNTED), self._wrap)


def _phase1_counts(tracer: Tracer, report) -> None:
    m = len(report.admitted)
    tracer.count("graph.admitted_txs", m)
    tracer.count("graph.weight_cells", m * m)


_COUNT_HOOKS = {
    "graph.phase1_weights": _phase1_counts,
    "graph.phase2_build_graph": lambda t, g: t.count("graph.missing_pairs", len(g.missing)),
    "finalize.apply_fair_update": lambda t, order: t.count(
        "finalize.tallies_resolved", order is not None),
    "oracle.check_batch_of": lambda t, rep: t.count("oracle.pairs_checked", rep.pairs_checked),
}


class TimingPool:
    """Executor passed through ``pool=``: times each submit and each wait for
    a result on the coordinator, and sizes what crosses the process boundary."""

    def __init__(self, pool, tracer: Tracer) -> None:
        self._pool = pool
        self._tracer = tracer

    def submit(self, fn, *args, **kwargs):
        tracer = self._tracer
        with tracer.span("pipeline.pool_submit"):
            fut = self._pool.submit(fn, *args, **kwargs)
        with tracer.span("bench.probe", record=False):
            tracer.count("pipeline.pool_tasks")
            tracer.count("pipeline.pool_pickled_bytes", len(pickle.dumps((fn, args, kwargs))))
        return _TimedFuture(fut, tracer)


class _TimedFuture:
    def __init__(self, fut, tracer: Tracer) -> None:
        self._fut = fut
        self._tracer = tracer
        self._sized = False

    def done(self) -> bool:
        return self._fut.done()

    def result(self, timeout=None):
        with self._tracer.span("pipeline.pool_wait"):
            value = self._fut.result(timeout)
        if not self._sized:
            self._sized = True
            with self._tracer.span("bench.probe", record=False):
                self._tracer.count("pipeline.pool_pickled_bytes", len(pickle.dumps(value)))
        return value


# -- memory peaks ---------------------------------------------------------------------

MEMORY_GROUPS = {
    "dagsim.Simulator.run": "mem.sim_peak_mib",
    "pipeline.FairnessPipeline.replay_concurrent": "mem.replay_peak_mib",
    **{path: "mem.oracle_peak_mib" for path in ORACLE_CALLS},
}


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


class MemoryWatch:
    """Growth of this process's resident set during each stage, above its
    level at the stage's start. A thread samples the resident set every few
    milliseconds; freed heap goes back to the system before each stage, so
    the growth counts what the stage itself holds. The watch's own work is
    billed to the ``bench.probe`` span."""

    INTERVAL_S = 0.002

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.peaks_mib: dict[str, float] = {}
        self._trim = _malloc_trim()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._peak = 0
        self._stop = threading.Event()

    def _rss(self) -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._page

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            rss = self._rss()
            with self._lock:
                self._peak = max(self._peak, rss)

    def _wrap(self, path: str):
        group = MEMORY_GROUPS[path]

        def wrapper(fn):
            @functools.wraps(fn)
            def watched(*args, **kwargs):
                with self.tracer.span("bench.probe", record=False):
                    if self._trim is not None:
                        self._trim(0)
                    start = self._rss()
                    with self._lock:
                        self._peak = start
                try:
                    return fn(*args, **kwargs)
                finally:
                    with self.tracer.span("bench.probe", record=False):
                        rss = self._rss()
                        with self._lock:
                            peak = max(self._peak, rss)
                        mib = (peak - start) / 2**20
                        self.peaks_mib[group] = max(self.peaks_mib.get(group, 0.0), mib)
            return watched
        return wrapper

    @contextmanager
    def installed(self):
        """Install after the tracer's probes, so the watch wraps them."""
        thread = threading.Thread(target=self._sample, daemon=True)
        thread.start()
        try:
            with patched(tuple(MEMORY_GROUPS), self._wrap):
                yield
        finally:
            self._stop.set()
            thread.join()
