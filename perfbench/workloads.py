"""The two workloads and the metrics they report.

Every run sets up twice (generate the corpus, build the index, open
the engine), then runs its workload's closed loop for ``--seconds``: one
client thread, each request sent when the previous one returned.

- ``serve``: a warm engine over a single-epoch index answering a Zipf-skewed
  mix of query shapes, aggregations and batches. A short tail of update
  cycles then gives it the update metrics, so it reports every metric.
- ``update_serve``: additive incremental updates alternating with query
  bursts on mostly unseen terms, compacting after every burst.

With ``--trace 1`` the run also records spans and ends with a probe that
times each layer's public functions in-process (``probe.layer_probe``).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import gen
from harness import Cluster, OpRunner, OpTimeout, PhaseStream, StealClock, Tracer

N_SHARDS = 2
NUM_PARTS = 4
SETUP_REPEATS = 2
OP_DEADLINE_S = 60.0
CHECK_SHARE = 0.04  # share of served answers checked against the oracle
BURST_OPS = 200
QUIET_STEAL = 0.05  # see Run.times
MIN_UPDATES = 4  # update_serve runs at least this many cycles
TAIL_UPDATES = 2

WORKLOADS = ("serve", "update_serve")

# (name, unit); BENCHMARK.json's end_to_end list holds the same names.
END_TO_END = [
    ("setup_s", "s"),
    ("build_files_per_s", "files/s"),
    ("index_bytes_per_input_byte", "ratio"),
    ("query_p50_ms", "ms"),
    ("expand_query_p50_ms", "ms"),
    ("agg_p50_ms", "ms"),
    ("batch_qps", "queries/s"),
    ("update_p50_s", "s"),
    ("freshness_p50_ms", "ms"),
    ("shard_rss_mb", "MB"),
]


def _median(xs):
    return statistics.median(xs) if xs else None


def _p(xs, q):
    return float(np.percentile(xs, q)) if xs else None


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, fs in os.walk(path) for f in fs
    )


def _token_lists(column) -> list[list[tuple[str, int]]]:
    """Per row of ``column``, its (term, position) list, from one batched
    ``tokenize_array`` pass."""
    from ck_ray.tokenizer import tokenize_array

    tb = tokenize_array(column)
    pairs = list(zip(tb.term.to_pylist(), tb.position.tolist()))
    ends = np.cumsum(tb.doc_len)
    return [pairs[lo:hi] for lo, hi in zip(ends - tb.doc_len, ends)]


def build_oracle(table):
    """``BM25Oracle`` over ``table``. The oracle tokenizes row by row, and
    each one-row call compiles the tokenizer's regex again (about 2 ms), so
    its per-row calls are answered from one batched ``tokenize_array`` pass
    over the same kernel, which yields the same (term, position) lists."""
    import ck_ray.oracle as orc

    per_text = {}
    for col in ("content", "path"):
        per_text.update(zip(table[col].to_pylist(), _token_lists(table[col])))
    one_row = orc.tokenize_text_with_positions
    orc.tokenize_text_with_positions = lambda text: (
        per_text[text] if text in per_text else one_row(text)
    )
    try:
        return orc.BM25Oracle(table)
    finally:
        orc.tokenize_text_with_positions = one_row


def replace_docs(oracle, old, new) -> None:
    """Turn ``oracle`` into the oracle of its corpus with the rows ``old``
    replaced by ``new``, the same docs edited. Rebuilding it takes 2.4 s on
    2,006 docs; this touches only the edited docs' postings."""
    from ck_ray.ids import doc_id_for

    for fid, col in ((0, "content"), (1, "path")):
        post, dl = oracle.postings[fid], oracle.dl[fid]
        for row, toks in zip(old.to_pylist(), _token_lists(old[col])):
            did = doc_id_for(row["repo"], row["path"], row["commit"])
            for t in {t for t, _ in toks}:
                del post[t][did]
                if not post[t]:
                    del post[t]
        for row, toks in zip(new.to_pylist(), _token_lists(new[col])):
            did = doc_id_for(row["repo"], row["path"], row["commit"])
            dl[did] = len(toks)
            per_term: dict[str, list[int]] = {}
            for t, p in toks:
                per_term.setdefault(t, []).append(p)
            for t, ps in per_term.items():
                post.setdefault(t, {})[did] = (len(ps), ps)
    oracle.avgdl = [sum(oracle.dl[f].values()) / oracle.n_docs for f in (0, 1)]


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: str):
        from ck_ray.build import IndexConfig

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.tracer = Tracer(trace)
        self.runner = OpRunner(OP_DEADLINE_S)
        self.cluster = Cluster(os.path.join(os.path.dirname(work), "ray"), N_SHARDS)
        self.cfg = lambda: IndexConfig(  # noqa: E731
            num_parts=NUM_PARTS, exchange_root=os.path.join(work, "exchange")
        )
        self.rng = np.random.RandomState([seed, 1])
        self.stream = gen.OpStream(seed)
        self.attempted = 0
        self.failed = 0
        self.s: dict[str, list] = {}  # samples by metric
        self.checks: list[tuple] = []  # served answers to verify
        self.n_dirs = 0
        self.n_updates = 0
        self.n_searches = 0
        self.epochs_seen = 1
        self.changed_docs = 0
        self.check_s = 0.0  # spent keeping the oracle current and checking
        self.t_start = time.perf_counter()

    # --------------------------------------------------------------- ops

    def add(self, key: str, value) -> None:
        self.s.setdefault(key, []).append(value)

    def add_time(self, key: str, seconds: float, end: float) -> None:
        self.add(key, (seconds, end))

    def times(self, key: str) -> list[float]:
        """The ``add_time`` samples of ``key`` in seconds, each without the
        share of its CPU time the hypervisor took (``StealClock``).

        The host steals in bursts, so a stolen op is slowed far more than
        its window's share says, and removing the share cannot mend a
        percentile. So samples taken while the host took more than
        ``QUIET_STEAL`` are left out, unless that would leave fewer than
        half of them; then the less stolen half is kept."""
        samples = [(secs, self.clock.available(end - secs, end))
                   for secs, end in self.s.get(key, [])]
        if not samples:
            return []
        cut = min(1.0 - QUIET_STEAL, statistics.median(a for _, a in samples))
        return [secs * a for secs, a in samples if a >= cut]

    def log(self, what: str) -> None:
        print(f"[perfbench] {time.perf_counter() - self.t_start:7.2f}s {what}",
              file=sys.stderr)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"[perfbench] failed: {what}", file=sys.stderr)

    def op(self, name: str, fn, traced: bool = True, **attrs):
        """Run one timed op under the deadline. Returns (value, seconds,
        end) or None when it failed."""
        self.attempted += 1

        def call():
            with self.tracer.span(name, **attrs) if traced else nullcontext():
                return fn()

        try:
            return self.runner.call(call)
        except OpTimeout as e:
            self.fail(f"{name}: {e}")
        except Exception:
            self.fail(f"{name}: {traceback.format_exc()}")
        return None

    def new_dir(self, kind: str) -> str:
        self.n_dirs += 1
        return os.path.join(self.work, f"{kind}{self.n_dirs}")

    # ------------------------------------------------------------- setup

    def write_corpus(self, table) -> str:
        d = self.new_dir("corpus")
        os.makedirs(d)
        pq.write_table(table, os.path.join(d, "part-0.parquet"))
        return d

    def build(self, corpus_dir: str, n_rows: int):
        from ck_ray.build import build_index, index_stats

        idx = self.new_dir("index")
        r = self.op("build", lambda: build_index(corpus_dir, idx, self.cfg()))
        if r is None:
            return None
        if r[0]["num_docs"] != n_rows:
            self.fail(f"build committed {r[0]['num_docs']} docs of {n_rows}")
        self.add_time("build_s", r[1], r[2])
        self.last_stats = index_stats(idx)
        return idx

    def open_engine(self):
        from ck_ray.query import BM25Engine

        r = self.op("engine.open", lambda: BM25Engine(self.index, num_shards=N_SHARDS))
        return None if r is None else r[0]

    def setup(self) -> bool:
        """Generate, build and open ``SETUP_REPEATS`` times; keeps the last.
        The oracle is built afterwards, outside the set-up time."""
        self.engine = None
        for _ in range(SETUP_REPEATS):
            if self.engine is not None:
                self.engine.close()
                self.engine = None
            t0 = time.perf_counter()
            table = gen.corpus(self.seed)
            corpus_dir = self.write_corpus(table)
            self.index = self.build(corpus_dir, table.num_rows)
            if self.index is None:
                return False
            self.engine = self.open_engine()
            if self.engine is None:
                return False
            end = time.perf_counter()
            self.add_time("setup_s", end - t0, end)
            self.log(f"set-up {len(self.s['setup_s'])}: {end - t0:.2f} s, "
                     f"build {self.s['build_s'][-1][0]:.2f} s")
        self.base = table
        self.n_rows = table.num_rows
        self.add("index_ratio", _dir_bytes(self.index) / gen.content_bytes(table))
        return True

    # ------------------------------------------------------------ serving

    def serve_op(self, op: tuple, check: bool, traced: bool = True) -> None:
        eng = self.engine
        kind = op[0]
        if kind == "search":
            _, fam, q = op
            self.n_searches += 1
            r = self.op("search", lambda: eng.search(q, top_k=gen.TOP_K),
                        traced=traced, family=fam)
            if r is None:
                return
            traced = traced and self.tracer.enabled
            self.add_time("query_traced" if traced else "query", r[1], r[2])
            if fam in gen.EXPAND_FAMILIES and not traced:
                self.add_time("expand_query", r[1], r[2])
            if traced:
                self.tracer.spans[-1]["fanout_rows"] = eng.last_fanout_rows
            if check:
                df = r[0]
                self.checks.append(("search", q, df["doc_id"].to_numpy().astype(np.uint64),
                                    df["score"].to_numpy()))
        elif kind == "agg":
            _, agg, arg, q = op
            if agg == "facets":
                fn = lambda: eng.search_facets(q, arg)  # noqa: E731
            else:
                fn = lambda: eng.search_aggregate(q, arg)  # noqa: E731
            r = self.op("agg", fn, kind=agg)
            if r is None:
                return
            self.add_time("agg", r[1], r[2])
            if check:
                self.checks.append(("agg", q, arg, r[0]))
        else:
            qs = op[1]
            r = self.op("batch", lambda: eng.search_many(qs, top_k=gen.TOP_K))
            if r is None:
                return
            self.add_time("batch", r[1], r[2])
            if check:
                for q, (d, sc) in zip(qs, r[0]):
                    self.checks.append(("search", q, d, sc))

    def serve_loop(self, n_ops: int | None, until: float | None, fresh: bool,
                   check: bool) -> None:
        # the shards' peak memory while they serve this loop only
        self.cluster.reset_peak_rss()
        i = 0
        while not self.runner.broken:
            if n_ops is not None and i >= n_ops:
                break
            if until is not None and time.perf_counter() >= until:
                break
            op = self.stream.next_op(fresh=fresh)
            # in a traced run every other search is untraced, so the run
            # measures its own tracing overhead
            traced = not (self.tracer.enabled and self.n_searches % 2)
            self.serve_op(op, check=check and self.rng.rand() < CHECK_SHARE,
                          traced=traced)
            i += 1
        if self.engine is not None:
            self.add("shard_rss_mb", self.cluster.shard_rss_mb())

    def warm_up(self) -> None:
        """Touch every catalogue query, so the posting working set is in
        the shard caches before timing. Not counted as ops."""
        for qs in self.stream.catalogue.values():
            self.engine.search_many(qs, top_k=gen.TOP_K)
            for q in qs:
                self.engine.search(q, top_k=gen.TOP_K)

    def warm_cluster(self) -> None:
        """One untimed build, engine load, update and reload before set-up,
        so that Ray's worker processes are up and have run every kind of
        task the workload sends, as on a long-lived cluster. With only a
        small build here, the first set-up and the first update cycle of a
        run were up to 40% slower than the rest. Not counted in any
        metric."""
        from ck_ray.build import build_index
        from ck_ray.incremental import incremental_update
        from ck_ray.query import BM25Engine

        table = gen.corpus(self.seed)
        idx = self.new_dir("index")
        build_index(self.write_corpus(table), idx, self.cfg())
        eng = BM25Engine(idx, num_shards=N_SHARDS)
        token, _, edited = gen.edit_batch(table, self.seed, 0)
        incremental_update(self.write_corpus(edited), idx, self.cfg(), additive=True)
        eng.search(token, top_k=gen.TOP_K)
        eng.close()

    # ------------------------------------------------------------ updates

    def apply_edit(self, rows, edited) -> None:
        """Bring the live corpus and its oracle up to a committed edit."""
        t0 = time.perf_counter()
        content = self.live["content"].to_pylist()
        for i, text in zip(rows.tolist(), edited["content"].to_pylist()):
            content[i] = text
        replace_docs(self.oracle, self.live.take(rows), edited)
        col = self.live.schema.get_field_index("content")
        self.live = self.live.set_column(
            col, "content", pa.array(content, self.live.schema.field(col).type))
        self.check_s += time.perf_counter() - t0

    def update_cycle(self, burst_ops: int) -> None:
        from ck_ray.compact import compact_index
        from ck_ray.ids import doc_id_column
        from ck_ray.incremental import incremental_update

        self.n_updates += 1
        token, rows, edited = gen.edit_batch(self.base, self.seed, self.n_updates)
        edit_dir = self.write_corpus(edited)
        expected = set(doc_id_column(edited["repo"], edited["path"],
                                     edited["commit"]).to_numpy().tolist())
        with self.tracer.span("update_cycle"):
            r = self.op("incremental", lambda: incremental_update(
                edit_dir, self.index, self.cfg(), additive=True))
            if r is None:
                return
            man, secs, committed = r
            self.add_time("update_s", secs, committed)
            self.changed_docs += int(man.get("n_changed", 0))
            self.epochs_seen = max(self.epochs_seen, len(man["epochs"]))
            if self.tracer.enabled:
                # the same reload the first search would do, timed alone
                self.op("engine.refresh", self.engine.refresh)
            eng = self.engine
            r = self.op("fresh_query", lambda: eng.search(token, top_k=2 * gen.EDIT_FILES))
            # after the fresh query, so freshness does not include it
            self.apply_edit(rows, edited)
            if r is None:
                return
            self.add_time("freshness_s", r[2] - committed, r[2])
            got = set(r[0]["doc_id"].to_numpy().astype(np.uint64).tolist())
            if got != expected:
                self.fail(f"token {token}: {len(got)} docs, expected {len(expected)}")
        self.log(f"update {self.n_updates}: {secs:.3f} s, "
                 f"fresh {self.s['freshness_s'][-1][0] * 1000:.0f} ms")
        self.serve_loop(n_ops=burst_ops, until=None, fresh=True, check=True)
        t0 = time.perf_counter()
        self.verify(self.oracle)
        self.check_s += time.perf_counter() - t0
        # Compacting after every burst keeps the state stationary: each
        # update meets a 1-epoch index and each burst a 2-epoch one.
        self.op("compact", lambda: compact_index(self.index, self.cfg()))

    # ---------------------------------------------------------- workloads

    def check_build_counts(self, table) -> bool:
        """n_terms and n_postings of the last build equal the distinct
        (field, term) and (field, term, doc) counts of the corpus."""
        from ck_ray.tokenizer import tokenize_array

        n_terms = n_postings = 0
        for col in ("content", "path"):
            tb = tokenize_array(table[col])
            pairs = pa.table({"t": tb.term, "r": pa.array(tb.row_index)})
            n_terms += len(pa.compute.unique(tb.term))
            n_postings += pairs.group_by(["t", "r"]).aggregate([]).num_rows
        return (self.last_stats["n_terms"], self.last_stats["n_postings"]) == (
            n_terms, n_postings)

    def run(self) -> None:
        self.warm_cluster()
        self.log("cluster up and warm")
        if not self.setup():
            return
        self.log("set-up done")
        if not self.check_build_counts(self.base):
            self.fail("build term/posting counts differ from the tokenizer's")
        self.setup_stats = self.last_stats
        self.live, self.oracle = self.base, build_oracle(self.base)
        if self.workload == "serve":
            self.warm_up()
            self.log("oracle and warm-up done")
            self.serve_loop(n_ops=None, until=time.perf_counter() + self.seconds,
                            fresh=False, check=True)
            self.log("workload loop done")
            self.verify(self.oracle)
            self.log("verify done")
            for _ in range(TAIL_UPDATES):
                if self.runner.broken:
                    break
                self.update_cycle(0)
            self.log("tail updates done")
        else:
            self.log("oracle done")
            # the window leaves out the time spent checking answers
            until = time.perf_counter() + self.seconds
            while not self.runner.broken and (
                    time.perf_counter() < until + self.check_s
                    or self.n_updates < MIN_UPDATES):
                self.update_cycle(BURST_OPS)
            self.log("workload loop done")
        if self.tracer.enabled and not self.runner.broken:
            from probe import layer_probe

            layer_probe(self)
            self.log("layer probe done")
        if not self.runner.broken:
            self.engine.close()

    # -------------------------------------------------------------- checks

    def verify(self, oracle) -> None:
        """Rank identity of the sampled answers against the brute-force
        oracle; a mismatch counts as a failed op. The skewed stream repeats
        queries, so each distinct one is searched in the oracle once."""
        cache = {}

        def search(q, k):
            if (q, k) not in cache:
                cache[q, k] = oracle.search_raw(q, k)
            return cache[q, k]

        for c in self.checks:
            if c[0] == "search":
                _, q, docs, scores = c
                od, os_ = search(q, gen.TOP_K)
                if docs.tolist() != od.tolist() or not np.array_equal(
                        np.asarray(scores, dtype=os_.dtype), os_):
                    self.fail(f"rank identity: {q!r}")
            else:
                _, q, arg, res = c
                n = len(search(q, 1 << 30)[0])
                if arg == "lang":
                    got = res[0] if sum(res[1].values()) == res[0] else -1
                elif arg["kind"] == "stats":
                    got = res["count"]
                else:
                    got = sum(res["buckets"].values())
                if got != n:
                    self.fail(f"aggregation {arg!r} on {q!r}: {got} != {n}")
        self.checks = []

    # ------------------------------------------------------------- metrics

    def end_to_end(self) -> dict:
        s = self.s
        ms = lambda x: None if x is None else x * 1000  # noqa: E731
        values = {
            "setup_s": _median(self.times("setup_s")),
            "build_files_per_s": _median([self.n_rows / t for t in self.times("build_s")]),
            "index_bytes_per_input_byte": _median(s.get("index_ratio", [])),
            "query_p50_ms": ms(_p(self.times("query"), 50)),
            "expand_query_p50_ms": ms(_p(self.times("expand_query"), 50)),
            "agg_p50_ms": ms(_p(self.times("agg"), 50)),
            "batch_qps": _median([gen.BATCH_QUERIES / t for t in self.times("batch")]),
            "update_p50_s": _median(self.times("update_s")),
            "freshness_p50_ms": ms(_median(self.times("freshness_s"))),
            "shard_rss_mb": max(s.get("shard_rss_mb", [0.0])) or None,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def counts(self) -> str:
        return (f"queries={len(self.s.get('query', []))} aggs={len(self.s.get('agg', []))} "
                f"batches={len(self.s.get('batch', []))} builds={len(self.s.get('build_s', []))} "
                f"updates={len(self.s.get('update_s', []))}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: str) -> None:
    """Runs one attempt and prints its result line on stdout."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(workload, seed, seconds, trace, work)
    shutil.rmtree(run.cluster.temp_dir, ignore_errors=True)
    run.clock = StealClock()
    real_stdout = sys.stdout
    sys.stdout = PhaseStream(run.tracer, sys.stderr)
    if trace:
        os.environ["CK_BUILD_VERBOSE"] = "1"
    run.cluster.start()
    try:
        try:
            run.run()
        finally:
            sys.stdout = real_stdout
        run.clock.stop()
        if trace:
            from probe import per_layer

            metrics = per_layer(run)
            run.tracer.write(os.path.join(os.path.dirname(work), "spans",
                                          f"{workload}-seed{seed}.jsonl"))
        else:
            metrics = run.end_to_end()
        raw = [secs for secs, _ in run.s.get("query", [])]
        print(f"[perfbench] {workload} seed={seed}: {run.counts()}, host steal "
              f"{run.clock.share():.1%} of busy CPU time, unadjusted query "
              f"p50 {_p(raw, 50) * 1000 if raw else 0:.3f} ms", file=sys.stderr)
        # the result goes out before Ray stops, so a hang in its shutdown
        # still leaves it for run.py
        print(json.dumps({
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }), flush=True)
    finally:
        run.cluster.stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(run.cluster.temp_dir, ignore_errors=True)


if __name__ == "__main__":
    # one attempt of a run, started by run.py: workload seed seconds trace
    workload, seed, seconds, trace = sys.argv[1:5]
    run_workload(workload, int(seed), float(seconds), trace == "1",
                 os.path.join(os.getcwd(), ".pbwork", "run"))
