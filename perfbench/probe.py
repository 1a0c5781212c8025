"""Per-layer metrics of a traced run.

``layer_probe`` runs after the workload, with the engine still open, and
times each layer's public functions in-process: the tokenizer, the posting
codec, the query parser and a ``LocalIndex`` over one shard's buckets.
``per_layer`` turns the run's spans and counters into the metrics.
"""

from __future__ import annotations

import os
import statistics

import pyarrow.parquet as pq

import gen

PROBE_REPEATS = 3

# (name, unit); BENCHMARK.json's per_layer list holds the same names.
PER_LAYER = [
    ("tokenizer.tokenize_ms_per_mb", "ms/MB"),
    ("tokenizer.tokens", "count"),
    ("build.hot_estimate_s", "s"),
    ("build.tokenize_spill_s", "s"),
    ("build.encode_segments_s", "s"),
    ("build.hot_merge_s", "s"),
    ("build.serving_docs_s", "s"),
    ("build.commit_s", "s"),
    ("build.segment_bytes", "bytes"),
    ("build.n_terms", "count"),
    ("build.n_postings", "count"),
    ("codec.decode_ms_per_mb", "ms/MB"),
    ("query.parse_ms", "ms"),
    ("query.engine_load_s", "s"),
    ("query.refresh_s", "s"),
    ("query.fanout_rows", "rows"),
    ("query.driver_overhead_ms", "ms"),
    *[(f"query.shape.{f}.p50_ms", "ms") for f in gen.FAMILIES],
    ("shard.load_s", "s"),
    ("shard.plan_expand_ms", "ms"),
    ("shard.local_dfs_ms", "ms"),
    ("shard.topk_cold_ms", "ms"),
    ("shard.topk_warm_ms", "ms"),
    ("shard.meta_ms", "ms"),
    ("shard.agg_ms", "ms"),
    ("incremental.changed_docs", "docs"),
    ("incremental.epochs", "count"),
    ("incremental.self_s", "s"),
    ("compact.compact_s", "s"),
    ("trace.overhead_ms", "ms"),
]


def _median(xs):
    return statistics.median(xs) if xs else None


def _dur(spans) -> list[float]:
    return [s["end"] - s["start"] for s in spans]


def _expansion_specs(tree):
    from ck_ray.query import collect_clauses

    cs = collect_clauses(tree) if tree is not None else []
    return (
        [(c.field, c.terms[-1]) for c in cs if c.prefix],
        [(c.field, c.terms[0], c.fuzzy, c.fuzzy_transpose) for c in cs if c.fuzzy],
        [(c.field, c.regex_spec) for c in cs if c.regex_spec is not None],
    )


def _df_keys(tree):
    from ck_ray.query import FIELD_IDS, collect_clauses

    cs = collect_clauses(tree) if tree is not None else []
    return [
        (FIELD_IDS[c.field], t) for c in cs
        if not (c.prefix or c.fuzzy or c.const_score or c.regex_spec is not None)
        for t in c.terms
    ]


def layer_probe(run) -> None:
    from ck_ray import codec
    from ck_ray.build import load_manifest
    from ck_ray.query import LocalIndex, parse_query
    from ck_ray.tokenizer import tokenize_array
    from workloads import N_SHARDS

    tr = run.tracer
    # tokenizer over the corpus in 256-row batches
    content = run.base["content"]
    n_tok = 0
    with tr.span("tokenizer", mb=gen.content_bytes(run.base) / 1e6) as sp:
        for off in range(0, len(content), 256):
            n_tok += len(tokenize_array(content.slice(off, 256)).term)
    sp["tokens"] = n_tok

    # codec: every serving posting blob of the first epoch
    man = load_manifest(run.index)
    post = os.path.join(run.index, man["epochs"][0], "serving", "post")
    blobs = [
        b for d, _, fs in os.walk(post) for f in fs if f.endswith(".parquet")
        for b in pq.read_table(os.path.join(d, f), columns=["postings"])["postings"].to_pylist()
    ]
    with tr.span("codec.decode", mb=sum(map(len, blobs)) / 1e6):
        for b in blobs:
            codec.decode_posting_list(b)

    # driver-side parse, uncached
    for qs in run.stream.catalogue.values():
        for q in qs:
            with tr.span("query.parse"):
                parse_query(q)

    # shard 0's buckets in-process, as the engine assigns them; the other
    # shards' buckets only for the driver overhead
    shard_buckets = [
        [b for b in range(man["num_serving_buckets"]) if b % N_SHARDS == s]
        for s in range(N_SHARDS)
    ]
    buckets = shard_buckets[0]
    probes = [(f, q, parse_query(q)) for f, q in run.stream.probe_queries()]
    with tr.span("shard.load"):
        li = LocalIndex(run.index, buckets)
    others = [LocalIndex(run.index, bs) for bs in shard_buckets[1:]]
    for fam, _, t in probes:
        with tr.span("shard.topk_cold", family=fam):
            li.query_topk(t, gen.TOP_K)
        for other in others:
            other.query_topk_meta(t, gen.TOP_K)
    for _ in range(PROBE_REPEATS):
        for fam, q, t in probes:
            with tr.span("shard.topk_warm", family=fam):
                li.query_topk(t, gen.TOP_K)
            with tr.span("shard.topk_meta", family=fam):
                li.query_topk_meta(t, gen.TOP_K)
            for s, other in enumerate(others, 1):
                with tr.span("probe.topk_meta", family=fam, shard=s):
                    other.query_topk_meta(t, gen.TOP_K)
            with tr.span("probe.search", family=fam):
                run.engine.search(q, top_k=gen.TOP_K)
        term_tree = probes[0][2]
        for _, arg in gen.AGG_SPECS:
            with tr.span("shard.agg"):
                if arg == "lang":
                    li.query_facets(term_tree, arg)
                else:
                    li.query_aggregate(term_tree, arg)
    # a second load with cold views: the df round, then the plan round
    with tr.span("shard.load"):
        li = LocalIndex(run.index, buckets)
    for fam, _, t in probes:
        keys = _df_keys(t)
        if keys:
            with tr.span("shard.local_dfs", family=fam):
                li.local_dfs(keys)
    for fam, _, t in probes:
        pref, fz, rx = _expansion_specs(t)
        if pref or fz or rx:
            with tr.span("shard.plan_expand", family=fam):
                li.expand_prefixes(pref)
                li.expand_fuzzies(fz)
                li.expand_regexes(rx)


def per_layer(run) -> dict:
    tr = run.tracer
    selfs = tr.self_times()
    ms = lambda xs: None if xs is None else xs * 1000  # noqa: E731
    med_ms = lambda name, **kw: ms(_median(_dur(tr.find(name, **kw))))  # noqa: E731

    def driver_overhead():
        """Engine search minus every shard's in-process query_topk_meta,
        per family, median, in ms. With fewer CPUs than shards the shard
        actors run one after another, so their times add up; otherwise the
        slowest one sets the time."""
        from harness import nproc
        from workloads import N_SHARDS

        combine = sum if nproc() < N_SHARDS else max
        diffs = []
        for f in gen.FAMILIES:
            search = _dur(tr.find("probe.search", family=f))
            shards = [_dur(tr.find("shard.topk_meta", family=f))] + [
                _dur(tr.find("probe.topk_meta", family=f, shard=s))
                for s in range(1, N_SHARDS)
            ]
            if search and all(shards):
                diffs.append(_median(search) - combine(_median(d) for d in shards))
        return ms(_median(diffs))

    def per_family_diff(a: str, b: str):
        """Median over families of (median a - median b), in ms."""
        diffs = []
        for f in gen.FAMILIES:
            da, db = _dur(tr.find(a, family=f)), _dur(tr.find(b, family=f))
            if da and db:
                diffs.append(_median(da) - _median(db))
        return ms(_median(diffs))

    tok = tr.find("tokenizer")
    dec = tr.find("codec.decode")
    st = getattr(run, "setup_stats", {})
    searches = tr.find("search")
    q_traced, q_plain = run.times("query_traced"), run.times("query")
    values = {
        "tokenizer.tokenize_ms_per_mb": ms(_median([(s["end"] - s["start"]) / s["mb"] for s in tok])),
        "tokenizer.tokens": tok[-1]["tokens"] if tok else None,
        "build.commit_s": _median([selfs[s["id"]] for s in tr.find("build")]),
        "build.segment_bytes": st.get("segment_bytes"),
        "build.n_terms": st.get("n_terms"),
        "build.n_postings": st.get("n_postings"),
        "codec.decode_ms_per_mb": ms(_median([(s["end"] - s["start"]) / s["mb"] for s in dec])),
        "query.parse_ms": med_ms("query.parse"),
        "query.engine_load_s": _median(_dur(tr.find("engine.open"))),
        "query.refresh_s": _median(_dur(tr.find("engine.refresh"))),
        "query.fanout_rows": _median([s["fanout_rows"] for s in searches if "fanout_rows" in s]),
        "query.driver_overhead_ms": driver_overhead(),
        "shard.load_s": _median(_dur(tr.find("shard.load"))),
        "shard.plan_expand_ms": med_ms("shard.plan_expand"),
        "shard.local_dfs_ms": med_ms("shard.local_dfs"),
        "shard.topk_cold_ms": med_ms("shard.topk_cold"),
        "shard.topk_warm_ms": med_ms("shard.topk_warm"),
        "shard.meta_ms": per_family_diff("shard.topk_meta", "shard.topk_warm"),
        "shard.agg_ms": med_ms("shard.agg"),
        "incremental.changed_docs": run.changed_docs,
        "incremental.epochs": run.epochs_seen,
        "incremental.self_s": _median([selfs[s["id"]] for s in tr.find("incremental")]),
        "compact.compact_s": _median(_dur(tr.find("compact"))),
        "trace.overhead_ms": (
            ms(_median(q_traced) - _median(q_plain)) if q_traced and q_plain else None
        ),
    }
    for phase in ("hot_estimate", "tokenize_spill", "encode_segments", "hot_merge", "serving_docs"):
        values[f"build.{phase}_s"] = _median(_dur(tr.find(f"build.{phase}", parent_name="build")))
    for f in gen.FAMILIES:
        spans = tr.find("search", family=f) or tr.find("probe.search", family=f)
        values[f"query.shape.{f}.p50_ms"] = ms(_median(_dur(spans)))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
