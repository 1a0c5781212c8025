"""Measurement plumbing: spans, per-op deadlines, the Ray cluster's life.

Spans are recorded by the benchmark around its calls into ck_ray's public
functions; nothing inside ``ck_ray`` is instrumented.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import os
import queue
import re
import signal
import threading
import time
import uuid
from contextlib import contextmanager

_PHASE_LINE = re.compile(r"\[build\] (\w+): ([0-9.]+)s")


class Tracer:
    """Spans kept in memory and written out once, at exit.

    A span is (id, parent, req, name, start, end, attrs). ``req`` is the id
    of the top-level span, shared by every span of one request.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "req": parent["req"] if parent else len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def add_child(self, name: str, start: float, end: float) -> None:
        """A span reported after the fact (a ``[build]`` phase line), as a
        child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        self.spans.append({
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "req": parent["req"] if parent else len(self.spans),
            "name": name, "start": start, "end": end,
        })

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children cover."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(kids.get(s["id"], [])):
                lo, hi = max(lo, s["start"]), min(hi, s["end"])
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def find(self, name: str, parent_name: str | None = None, **attrs) -> list[dict]:
        by_id = {s["id"]: s for s in self.spans}
        return [
            s for s in self.spans
            if s["name"] == name and s["end"] is not None
            and (parent_name is None or (
                s["parent"] is not None and by_id[s["parent"]]["name"] == parent_name))
            and all(s.get(k) == v for k, v in attrs.items())
        ]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": selfs.get(s["id"])}) + "\n")


class PhaseStream(io.TextIOBase):
    """Stands in for ``sys.stdout`` during a run. ``[build] <phase>: <s>s``
    lines become child spans of the innermost open span; all other output
    goes to ``out``, so stdout carries only the result line.

    ``build_index`` prints each phase line when the phase ends, and its
    phases follow each other from the start of the call. A phase span so
    runs from the previous phase line of the same parent span to this
    line, measured here to the clock's precision; the line rounds to 10
    ms. The first phase starts at the parent's start, or, when the parent
    did other work before calling ``build_index`` (an incremental update),
    no earlier than the line's rounded time before it."""

    def __init__(self, tracer: Tracer, out):
        self.tracer = tracer
        self.out = out
        self._buf = ""
        self._last: tuple[int, float] | None = None  # (parent id, line time)

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        now = time.perf_counter()
        self._buf += s
        *lines, self._buf = self._buf.split("\n")
        for line in lines:
            m = _PHASE_LINE.fullmatch(line.strip())
            parent = self.tracer._open[-1] if self.tracer._open else None
            if m and parent is not None:
                if self._last is not None and self._last[0] == parent["id"]:
                    start = self._last[1]
                else:
                    start = max(parent["start"], now - float(m[2]) - 0.005)
                self.tracer.add_child("build." + m[1], start, now)
                self._last = (parent["id"], now)
            elif not m:
                self.out.write(line + "\n")
        return len(s)

    def flush(self) -> None:
        self.out.flush()


class StealClock:
    """The share of the machine's CPU time the hypervisor took while the
    CPUs had work, over the run (``/proc/stat``).

    On a virtual machine whose host is busy, every timing of a run slows
    together, by up to 2x for minutes at a time. A vCPU that has work runs
    or is stolen; an idle one is neither. So ``steal / (busy + steal)`` is
    the share of the time the benchmark's work waited for the host. A
    thread samples the counters every ``PERIOD_S``; ``available(start,
    end)`` is one minus that share around ``[start, end]``, so that
    ``seconds * available(...)`` is the time the op would have taken had
    its CPU not been taken away. The window reaches to the nearest samples
    outside ``[start, end]`` widened to ``MIN_WINDOW_S``. Steal comes in
    bursts shorter than a second, so short windows find the ops no burst
    hit; the counters tick every 10 ms per CPU, which bounds how short.
    """

    PERIOD_S = 0.05
    MIN_WINDOW_S = 0.05

    def __init__(self):
        self.samples = [(time.perf_counter(), *self._read())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-steal")
        self._thread.start()

    @staticmethod
    def _read() -> tuple[int, int]:
        """(steal, busy + steal) ticks of all CPUs."""
        with open("/proc/stat") as fh:
            user, nice, system, _idle, _iowait, irq, softirq, steal = (
                int(x) for x in fh.readline().split()[1:9])
        return steal, user + nice + system + irq + softirq + steal

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.samples.append((time.perf_counter(), *self._read()))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), *self._read()))
        self._times = [s[0] for s in self.samples]

    def available(self, start: float, end: float) -> float:
        """Call after ``stop``."""
        half = max(end - start, self.MIN_WINDOW_S) / 2
        mid = (start + end) / 2
        i = max(bisect.bisect_right(self._times, mid - half) - 1, 0)
        j = min(bisect.bisect_left(self._times, mid + half), len(self._times) - 1)
        steal = self.samples[j][1] - self.samples[i][1]
        wanted = self.samples[j][2] - self.samples[i][2]
        return 1.0 - steal / wanted if wanted else 1.0

    def share(self) -> float:
        """Stolen share over the whole run."""
        return 1.0 - self.available(self.samples[0][0], self.samples[-1][0])


class OpTimeout(Exception):
    pass


class OpRunner:
    """Runs each op on one daemon thread and waits at most ``deadline_s``.

    A hung op cannot be cancelled; after a timeout the runner refuses
    further ops, so the run ends and the hang is counted as a failure."""

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s
        self.broken = False
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._loop, daemon=True, name="perfbench-op").start()

    def _loop(self) -> None:
        while True:
            fn, box, done = self._jobs.get()
            t0 = time.perf_counter()
            try:
                box["value"] = fn()
            except Exception as e:  # handed to the caller
                box["error"] = e
            box["end"] = time.perf_counter()
            box["seconds"] = box["end"] - t0
            done.set()

    def call(self, fn) -> tuple[object, float, float]:
        """(value, seconds, end time) of ``fn()``; raises what it raised."""
        if self.broken:
            raise OpTimeout("an earlier op is still running")
        box: dict = {}
        done = threading.Event()
        self._jobs.put((fn, box, done))
        if not done.wait(self.deadline_s):
            self.broken = True
            raise OpTimeout(f"op exceeded its {self.deadline_s:.0f} s deadline")
        if "error" in box:
            raise box["error"]
        return box["value"], box["seconds"], box["end"]


# ------------------------------------------------------------ Ray cluster

SHARD_CPU = 0.5  # ck_ray.query.DocShard's num_cpus reservation


def nproc() -> int:
    """What ``nproc`` prints: ``OMP_NUM_THREADS`` if set, else the CPUs
    this process may run on."""
    cpus = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return min(int(omp), cpus) if omp.isdigit() and int(omp) > 0 else cpus


def ray_cpus(n_shards: int) -> int:
    """Logical CPUs for Ray: ``nproc`` plus the shards' half-CPU
    reservations, counted twice because a reload holds the old and the new
    shards at once. One whole CPU is then always left for Ray Data tasks.

    With ``num_cpus=1`` and any engine open, ``incremental_update`` waits
    forever for a CPU its first Ray Data read task never gets; with exactly
    one generation of shards counted, the auto-reload after an update can
    wait forever for its new shards (NOTES.md).
    """
    return nproc() + math.ceil(2 * SHARD_CPU * n_shards)


class Cluster:
    """A private local Ray instance. Every process it starts carries a
    marker in its environment (``PERFBENCH_RUN``, taken from this process's
    environment when set), so ``stop`` can wait until all are gone."""

    def __init__(self, temp_dir: str, n_shards: int):
        self.marker = os.environ.get("PERFBENCH_RUN") or uuid.uuid4().hex
        self.n_shards = n_shards
        self.num_cpus = ray_cpus(n_shards)
        self.temp_dir = temp_dir

    def start(self) -> None:
        import logging

        import ray
        from ray.data import DataContext

        os.environ["PERFBENCH_RUN"] = self.marker
        kw = {}
        # Ray's unix sockets live under the temp dir; keep their paths
        # under the 107-byte limit or fall back to Ray's default location.
        if len(os.path.abspath(self.temp_dir)) <= 42:
            os.makedirs(self.temp_dir, exist_ok=True)
            kw["_temp_dir"] = os.path.abspath(self.temp_dir)
        ray.init(
            address="local", num_cpus=self.num_cpus, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False,
            object_store_memory=256 * 1024 * 1024, **kw,
            # Keep idle workers, as a long-lived cluster does. By default
            # Ray kills idle workers beyond num_cpus after 1 s, and the
            # shard actors count towards that limit, so each Ray Data job
            # after a pause started its workers again: about 1 s per job
            # on one core, paid by some runs and not others.
            _system_config={
                "num_workers_soft_limit": self.num_cpus + 2 * self.n_shards,
                "idle_worker_killing_time_threshold_ms": 3_600_000,
            },
        )
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        _keep_leftover_tasks()

    def _shard_pids(self) -> list[int]:
        """The newest ``n_shards`` live ``ray::LocalIndex`` actors: the
        serving generation, without old shards a reload has not finished
        killing."""
        started = {}
        for pid in marked_pids(self.marker, "ray::LocalIndex"):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    # field 22, counted after the parenthesised command name
                    started[pid] = int(fh.read().rsplit(")", 1)[1].split()[19])
            except (OSError, IndexError, ValueError):
                continue
        return sorted(started, key=started.get, reverse=True)[: self.n_shards]

    def reset_peak_rss(self) -> None:
        """Resets the serving shards' VmHWM to their current RSS. An actor
        may run in a pooled worker process that earlier ran Ray Data tasks,
        whose peak would otherwise count as the shard's."""
        for pid in self._shard_pids():
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as fh:
                    fh.write("5")
            except OSError:
                continue

    def shard_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the serving shards since the last
        ``reset_peak_rss``."""
        peak_kb = 0
        for pid in self._shard_pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    peak_kb += next(int(line.split()[1]) for line in fh
                                    if line.startswith("VmHWM:"))
            except (OSError, StopIteration, ValueError):
                continue
        return peak_kb / 1024.0

    def stop(self) -> None:
        import ray

        ray.shutdown()
        stop_marked(self.marker, wait_s=0.5)


def _keep_leftover_tasks() -> None:
    """Stops Ray Data from cancelling a finished dataset's leftover tasks.

    When a dataset's output is consumed, Ray Data shuts its executor down
    and cancels every task it still counts as active. A dataset with
    ``limit`` (``estimate_hot_terms``) leaves such tasks, about two per
    build or update. If a cancel reaches a task whose arguments the core
    worker is still resolving, Ray 2.49 aborts the whole driver process
    (``reference_count.cc``: ``submitted_task_ref_count > 0``), about once
    in twenty to fifty runs. Without the cancel, the leftover tasks finish
    on their own and their outputs are dropped."""
    from ray.data._internal.execution.interfaces.physical_operator import OpTask

    OpTask._cancel = lambda self, force: None


def marked_pids(marker: str, title_prefix: str | None = None) -> list[int]:
    """Processes other than this one whose environment carries ``marker``,
    optionally only those whose command line starts with ``title_prefix``."""
    me = os.getpid()
    needle = f"PERFBENCH_RUN={marker}".encode()
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == me:
            continue
        try:
            with open(f"/proc/{d}/environ", "rb") as fh:
                if needle not in fh.read().split(b"\0"):
                    continue
            if title_prefix is not None:
                with open(f"/proc/{d}/cmdline", "rb") as fh:
                    if not fh.read().startswith(title_prefix.encode()):
                        continue
        except OSError:
            continue
        out.append(int(d))
    return out


def stop_marked(marker: str, wait_s: float = 20.0) -> None:
    """Waits up to ``wait_s`` for the marked processes to exit, kills the
    rest, and waits until they are gone."""
    deadline = time.monotonic() + wait_s
    while marked_pids(marker) and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in marked_pids(marker):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while marked_pids(marker) and time.monotonic() < deadline:
        time.sleep(0.1)
