"""Incremental epoch updates: query-identical to a full rebuild."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ck_ray.build as ckb
from ck_ray.incremental import incremental_update
from ck_ray.oracle import BM25Oracle
from ck_ray.query import BM25Engine


def _mutate(corpus: pa.Table) -> pa.Table:
    """~5% modified, ~2% added, ~2% deleted (FIXTURES.md §4)."""
    rows = corpus.to_pylist()
    rng = np.random.RandomState(7)
    n = len(rows)
    mod = set(rng.choice(n, n // 20, replace=False).tolist())
    dele = set(rng.choice(sorted(set(range(n)) - mod), n // 50, replace=False).tolist())
    out = []
    for i, r in enumerate(rows):
        if i in dele:
            continue
        if i in mod:
            r = dict(r, content=r["content"] + "\nmodified_sentinel extra merge line\n")
        out.append(r)
    for j in range(n // 50):
        out.append(
            {
                "repo": "org0/repo0",
                "path": f"src/new/added{j:04d}.py",
                "commit": "f" * 40,
                "lang": "python",
                "content": f"def added_fn_{j} the merge window\nreturn uqadded{j:05d}marker\n",
            }
        )
    out.sort(key=lambda r: (r["repo"], r["path"]))
    cols = list(zip(*[(r["repo"], r["path"], r["commit"], r["lang"], r["content"]) for r in out]))
    return pa.table(
        {
            "repo": pa.array(cols[0]), "path": pa.array(cols[1]),
            "commit": pa.array(cols[2]), "lang": pa.array(cols[3]),
            "content": pa.array(cols[4]),
        }
    )


QUERIES = [
    "merge", "def", "modified_sentinel", "uqadded00003marker",
    "snake_case", "the merge window", "uq0000042marker",
]


def _parquet_path(t: pa.Table, d) -> str:
    """``t`` as a one-file parquet dir: a small path input, which
    ``incremental_update`` runs on the in-process executor."""
    d.mkdir()
    pq.write_table(t, str(d / "part-0.parquet"))
    return str(d)


def test_incremental_equals_full_rebuild(ray_session, tiny_corpus, tmp_path):
    import ray.data

    _check_incremental_equals_full_rebuild(
        tiny_corpus, tmp_path, ray.data.from_arrow
    )


def test_incremental_equals_full_rebuild_path_input(
    ray_session, tiny_corpus, tmp_path
):
    _check_incremental_equals_full_rebuild(
        tiny_corpus, tmp_path, lambda t: _parquet_path(t, tmp_path / "v2")
    )


def _check_incremental_equals_full_rebuild(tiny_corpus, tmp_path, as_input):
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    v2 = _mutate(tiny_corpus)

    d_inc = str(tmp_path / "inc")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d_inc, cfg)
    man = incremental_update(as_input(v2), d_inc, cfg)
    assert man["n_changed"] > 0 and man["n_deleted"] > 0
    assert len(man["epochs"]) == 2
    assert man["num_docs"] == v2.num_rows

    d_full = str(tmp_path / "full")
    ckb.build_index(ray.data.from_arrow(v2), d_full, cfg)
    man_full = ckb.load_manifest(d_full)
    # exact global stats equality
    for f in ("content", "path"):
        assert man["fields"][f]["total_tokens"] == man_full["fields"][f]["total_tokens"]

    eng_inc = BM25Engine(d_inc, num_shards=2)
    eng_full = BM25Engine(d_full, num_shards=2)
    oracle = BM25Oracle(v2)
    try:
        for q in QUERIES:
            di, si = eng_inc.search_raw(q, 50)
            df_, sf = eng_full.search_raw(q, 50)
            assert di.tolist() == df_.tolist(), f"{q}: docs differ"
            assert np.array_equal(si, sf), f"{q}: scores differ"
            do, so = oracle.search_raw(q, 50)
            assert di.tolist() == do.tolist(), f"{q}: oracle docs differ"
            assert np.array_equal(si, so), f"{q}: oracle scores differ"
    finally:
        eng_inc.close()
        eng_full.close()


def test_incremental_noop(ray_session, tiny_corpus, tmp_path):
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    man1 = ckb.load_manifest(d)
    man2 = incremental_update(ray.data.from_arrow(tiny_corpus), d, cfg)
    assert man2.get("epochs") == man1.get("epochs")  # unchanged -> no new epoch


def test_delete_then_readd(ray_session, tiny_corpus, tmp_path):
    """A doc deleted in epoch N and re-added in epoch N+1 must be live:
    deletions are epoch-scoped, not applied to later epochs (ADVICE r1)."""
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    v2 = tiny_corpus.slice(5)  # drop first 5 docs -> deletion epoch
    incremental_update(ray.data.from_arrow(v2), d, cfg)
    # re-add the originals (identical content) -> new epoch re-adds them
    man = incremental_update(ray.data.from_arrow(tiny_corpus), d, cfg)
    assert man["n_changed"] == 5 and man["n_deleted"] == 0
    assert man["num_docs"] == tiny_corpus.num_rows
    eng = BM25Engine(d, num_shards=2)
    oracle = BM25Oracle(tiny_corpus)
    try:
        for q in ("merge", "def", "the merge window"):
            di, si = eng.search_raw(q, 50)
            do, so = oracle.search_raw(q, 50)
            assert di.tolist() == do.tolist(), f"{q}: docs differ after re-add"
            assert np.array_equal(si, so), f"{q}: scores differ after re-add"
    finally:
        eng.close()
    # a further no-op update must not re-classify the re-added docs
    man2 = incremental_update(ray.data.from_arrow(tiny_corpus), d, cfg)
    assert man2.get("epochs") == man.get("epochs")


def test_delete_by_query(ray_session, tiny_corpus, tmp_path):
    """delete_by_query (ES _delete_by_query): after tombstoning every
    doc matching the query, the index is QUERY-IDENTICAL to a
    from-scratch build over the corpus minus those docs (num_docs,
    avgdl and live dfs all adjust) — rank and f32 scores verified
    against the brute-force oracle on the filtered corpus. A
    no-match delete is a manifest no-op; a later incremental_update
    re-adds deleted docs (epoch-scoped deletions)."""
    import ray.data

    from ck_ray.incremental import delete_by_query
    from ck_ray.tokenizer import tokenize_text

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)

    man0 = ckb.load_manifest(d)
    assert delete_by_query(d, "zzznosuchterm") == man0  # no-op
    assert ckb.load_manifest(d).get("epochs", None) == man0.get(
        "epochs", None
    )

    # delete a boolean match set: docs with 'merge' but not 'stream'
    q_del = "merge -stream"
    keep_mask = []
    for c in tiny_corpus["content"].to_pylist():
        toks = set(tokenize_text(c))
        keep_mask.append(not ("merge" in toks and "stream" not in toks))
    kept = tiny_corpus.filter(pa.array(keep_mask))
    n_deleted = tiny_corpus.num_rows - kept.num_rows
    assert n_deleted > 0  # the corpus must exercise a real deletion

    man = delete_by_query(d, q_del)
    assert man["n_deleted"] == n_deleted
    assert man["num_docs"] == kept.num_rows

    eng = BM25Engine(d, num_shards=2)
    oracle = BM25Oracle(kept)
    try:
        # the deleted docs are gone from their own match set
        assert len(eng.search_raw(q_del, 50)[0]) == 0
        for q in ("merge", "stream", "def", "the merge window"):
            di, si = eng.search_raw(q, 50)
            do, so = oracle.search_raw(q, 50)
            assert di.tolist() == do.tolist(), f"{q}: docs differ"
            assert np.array_equal(si, so), f"{q}: scores differ"
    finally:
        eng.close()

    # re-adding the full corpus restores the deleted docs
    man2 = incremental_update(ray.data.from_arrow(tiny_corpus), d, cfg)
    assert man2["n_changed"] == n_deleted
    assert man2["num_docs"] == tiny_corpus.num_rows
    eng = BM25Engine(d, num_shards=2)
    full_oracle = BM25Oracle(tiny_corpus)
    try:
        di, si = eng.search_raw(q_del, 50)
        do, so = full_oracle.search_raw(q_del, 50)
        assert di.tolist() == do.tolist()
        assert np.array_equal(si, so)
    finally:
        eng.close()


def test_delete_by_query_after_compaction(ray_session, tiny_corpus, tmp_path):
    """A compaction's one epoch carries the highest epoch number, so a
    delete_by_query after it commits under a new epoch name (a reused
    live name would land the tombstones inside the compacted epoch) and
    the index stays equal to the oracle over the kept docs."""
    import ray.data

    from ck_ray.compact import compact_index
    from ck_ray.incremental import delete_by_query
    from ck_ray.tokenizer import tokenize_text

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    assert compact_index(d, cfg)["epochs"] == ["epoch-0002"]
    man = delete_by_query(d, "stream")
    assert man["epochs"] == ["epoch-0002", "epoch-0003"]
    kept = tiny_corpus.filter(pa.array([
        "stream" not in set(tokenize_text(c))
        for c in tiny_corpus["content"].to_pylist()
    ]))
    assert man["num_docs"] == kept.num_rows < tiny_corpus.num_rows
    eng = BM25Engine(d, num_shards=2)
    oracle = BM25Oracle(kept)
    try:
        for q in ("merge", "stream", "the merge window"):
            di, si = eng.search_raw(q, 50)
            do, so = oracle.search_raw(q, 50)
            assert di.tolist() == do.tolist(), q
            assert np.array_equal(si, so), q
    finally:
        eng.close()


def test_engine_auto_reload_after_update(ray_session, tiny_corpus, tmp_path):
    """An open BM25Engine must not serve a stale epoch set: after an
    incremental_update commits a new manifest, the next search on the SAME
    engine transparently reloads the shard pool (auto_reload=True default);
    auto_reload=False pins the loaded epoch until an explicit refresh()."""
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    eng = BM25Engine(d, num_shards=2)
    pinned = BM25Engine(d, num_shards=2, auto_reload=False)
    try:
        q = "uqadded00003marker"  # only exists in the mutated corpus
        assert len(eng.search_raw(q, 10)[0]) == 0
        assert len(pinned.search_raw(q, 10)[0]) == 0

        v2 = _mutate(tiny_corpus)
        incremental_update(ray.data.from_arrow(v2), d, cfg)

        # auto-reloading engine sees the new epoch, scores bitwise-equal
        # to a freshly opened engine and the oracle over v2
        di, si = eng.search_raw(q, 10)
        oracle = BM25Oracle(v2)
        do, so = oracle.search_raw(q, 10)
        assert len(di) > 0
        assert di.tolist() == do.tolist()
        assert np.array_equal(si, so)

        # pinned engine still serves the original epoch...
        assert len(pinned.search_raw(q, 10)[0]) == 0
        # ...until an explicit refresh, which reports the reload
        assert pinned.refresh() is True
        dp, sp = pinned.search_raw(q, 10)
        assert dp.tolist() == do.tolist()
        assert np.array_equal(sp, so)
        # second refresh with no new commit is a no-op
        assert pinned.refresh() is False
        assert eng.refresh() is False
    finally:
        eng.close()
        pinned.close()


def test_clean_orphans_mode(ray_session, tiny_corpus, tmp_path):
    """deletions_only=True (reference --clean-orphans): docs absent from
    the corpus are tombstoned, but content changes in still-present docs
    are IGNORED — nothing is reindexed."""
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)

    rows = tiny_corpus.to_pylist()
    survivors = rows[10:]  # first 10 become orphans
    v2 = [dict(r) for r in survivors]
    v2[0]["content"] += "\norphanmode_sentinel line\n"  # change ignored
    v2.append(  # brand-new doc: also ignored in deletions_only mode
        dict(rows[0], path="src/new/fresh.py",
             content="def fresh(): orphanmode_sentinel\n")
    )
    v2_t = pa.Table.from_pylist(v2)

    man = incremental_update(
        ray.data.from_arrow(v2_t), d, cfg, deletions_only=True
    )
    assert man["n_deleted"] == 10 and man["n_changed"] == 0
    assert man["num_docs"] == len(survivors)

    # queries behave exactly like the OLD content restricted to survivors
    old_survivors = pa.Table.from_pylist(survivors)
    eng = BM25Engine(d, num_shards=2)
    oracle = BM25Oracle(old_survivors)
    try:
        assert len(eng.search_raw("orphanmode_sentinel", 10)[0]) == 0
        for q in ("merge", "def"):
            di, si = eng.search_raw(q, 30)
            do, so = oracle.search_raw(q, 30)
            assert di.tolist() == do.tolist()
            assert np.array_equal(si, so)
    finally:
        eng.close()

    with pytest.raises(ValueError, match="mutually exclusive"):
        incremental_update(
            ray.data.from_arrow(v2_t), d, cfg,
            additive=True, deletions_only=True,
        )


def test_deletion_only_update(ray_session, tiny_corpus, tmp_path):
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    v2 = tiny_corpus.slice(10)  # drop first 10 docs
    man = incremental_update(ray.data.from_arrow(v2), d, cfg)
    assert man["n_deleted"] == 10 and man["n_changed"] == 0
    eng = BM25Engine(d, num_shards=2)
    oracle = BM25Oracle(v2)
    try:
        for q in ("merge", "def"):
            di, si = eng.search_raw(q, 30)
            do, so = oracle.search_raw(q, 30)
            assert di.tolist() == do.tolist()
            assert np.array_equal(si, so)
    finally:
        eng.close()


# ---------------------------------------------------------------------------
# in-place reload: a commit reloads the open engine's shard actors in place

RELOAD_QUERIES = [*QUERIES, "merg*", "path:src", "+merge -stream"]


def _actor_ids(eng) -> list[str]:
    return [s._actor_id.hex() for rep in eng.replicas for s in rep]


def _assert_matches_fresh(eng, d: str, num_shards: int) -> None:
    """(doc_id, f32 score) of every query, and a facet count, equal a
    freshly opened engine's; every replica of ``eng`` answers (the split
    batch path sends queries to each)."""
    fresh = BM25Engine(d, num_shards=num_shards)
    try:
        want = [fresh.search_raw(q, 50) for q in RELOAD_QUERIES]
        for q, (wd, ws) in zip(RELOAD_QUERIES, want):
            di, si = eng.search_raw(q, 50)
            assert di.tolist() == wd.tolist(), q
            assert np.array_equal(si, ws), q
        batch = eng.search_many(RELOAD_QUERIES * 2, top_k=50)
        for i, (di, si) in enumerate(batch):
            wd, ws = want[i % len(RELOAD_QUERIES)]
            assert di.tolist() == wd.tolist()
            assert np.array_equal(si, ws)
        assert eng.search_facets("merge", "lang") == fresh.search_facets(
            "merge", "lang"
        )
    finally:
        fresh.close()


def test_refresh_reloads_shards_in_place(ray_session, tiny_corpus, tmp_path):
    """refresh() after an additive update, a delete_by_query and a
    compaction keeps every shard actor (same ids: nothing is spawned) and
    answers bit-identically to a freshly opened engine, with 1 and with
    2 replicas (shard counts kept small: the engines' 0.5-CPU shards must
    leave the commits' Ray Data tasks a CPU of the 4-CPU test session)."""
    import ray.data

    from ck_ray.compact import compact_index
    from ck_ray.incremental import delete_by_query

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    engines = [
        BM25Engine(d, num_shards=2, auto_reload=False),
        BM25Engine(d, num_shards=1, auto_reload=False, num_replicas=2),
    ]
    ids = [_actor_ids(e) for e in engines]
    commits = [
        lambda: incremental_update(
            ray.data.from_arrow(_mutate(tiny_corpus)), d, cfg, additive=True
        ),
        lambda: delete_by_query(d, "merge -stream"),
        lambda: compact_index(d, cfg),
    ]
    try:
        assert [e.reloads for e in engines] == [0, 0]
        assert engines[0].last_reload_s is None
        for n, commit in enumerate(commits, 1):
            commit()
            for e, before in zip(engines, ids):
                assert e.refresh() is True
                assert e.refresh() is False
                assert _actor_ids(e) == before
                assert e.reloads == n and e.last_reload_s > 0
                _assert_matches_fresh(e, d, num_shards=2)
    finally:
        for e in engines:
            e.close()


def test_compact_to_other_bucket_count_under_open_engine(
    ray_session, tiny_corpus, tmp_path
):
    """A compaction that changes num_serving_buckets reloads the open
    engine in place too: shard i of n re-derives its buckets (b % n == i)
    from the manifest it loads, so results equal a freshly opened
    engine's — when the count grows past the buckets assigned at open
    (2 shards opened on 2 buckets, then 8) and when it leaves a shard
    no bucket at all (1)."""
    import ray.data

    from ck_ray.compact import compact_index

    d = str(tmp_path / "idx")
    ckb.build_index(
        ray.data.from_arrow(tiny_corpus), d,
        ckb.IndexConfig(num_parts=4, batch_size=64, serving_buckets=2),
    )
    eng = BM25Engine(d, num_shards=4)
    ids = _actor_ids(eng)
    assert len(ids) == 2
    try:
        for buckets in (8, 1):
            compact_index(d, ckb.IndexConfig(
                num_parts=4, batch_size=64, serving_buckets=buckets
            ))
            assert ckb.load_manifest(d)["num_serving_buckets"] == buckets
            _assert_matches_fresh(eng, d, num_shards=4)  # auto-reloads
            assert _actor_ids(eng) == ids
    finally:
        eng.close()


def test_local_index_reload_missing_epoch_keeps_state(tiny_index):
    """A reload onto an epoch set with a missing epoch dir (one a
    concurrent compaction removed) raises, and the shard keeps serving
    its old state."""
    from ck_ray.query import LocalIndex

    li = LocalIndex(tiny_index, shard=(0, 2))
    man = ckb.load_manifest(tiny_index)
    epochs = list(li.epochs)
    before = [li.query_topk(q, 20) for q in RELOAD_QUERIES]
    with pytest.raises(FileNotFoundError, match="epoch-9999"):
        li.reload(dict(man, epochs=[*epochs, "epoch-9999"]))
    assert li.epochs == epochs
    for q, (bd, bs) in zip(RELOAD_QUERIES, before):
        d, s = li.query_topk(q, 20)
        assert d.tolist() == bd.tolist() and np.array_equal(s, bs), q
    li.reload(man)  # a later good reload works
    d, _ = li.query_topk(RELOAD_QUERIES[0], 20)
    assert d.tolist() == before[0][0].tolist()


def test_engine_keeps_old_state_when_reload_fails(
    ray_session, tiny_corpus, tmp_path
):
    """When the shards cannot load the committed manifest, the engine
    keeps its old manifest and stamp: refresh() raises, a search serves
    the loaded epoch set, and the next search after a loadable commit
    reloads."""
    import json
    import os

    import ray.data

    d = str(tmp_path / "idx")
    ckb.build_index(
        ray.data.from_arrow(tiny_corpus), d,
        ckb.IndexConfig(num_parts=4, batch_size=64),
    )
    path = os.path.join(d, "manifest.json")
    good = ckb.load_manifest(d)

    def commit(man):
        with open(path + ".tmp", "w") as fh:
            json.dump(man, fh)
        os.replace(path + ".tmp", path)

    eng = BM25Engine(d, num_shards=2)
    try:
        want = [eng.search_raw(q, 20) for q in RELOAD_QUERIES]
        stamp = eng._stamp
        epochs = good.get("epochs", [good["epoch_dir"]])
        commit(dict(good, epochs=[*epochs, "epoch-9999"]))
        with pytest.raises(FileNotFoundError):
            eng.refresh()
        assert eng._stamp == stamp and eng.reloads == 0
        for q, (wd, ws) in zip(RELOAD_QUERIES, want):  # auto-reload fails
            di, si = eng.search_raw(q, 20)
            assert di.tolist() == wd.tolist() and np.array_equal(si, ws), q
        commit(good)
        eng.search_raw(RELOAD_QUERIES[0], 20)
        assert eng.reloads == 1 and eng._stamp != stamp
        _assert_matches_fresh(eng, d, num_shards=2)
    finally:
        eng.close()


def test_reloads_keep_local_index_rss_flat(tiny_index):
    """Five in-place reloads keep a LocalIndex's RSS within a few MB of
    its first load: the dropped generation's heap goes back to the OS."""
    import os

    from ck_ray.query import LocalIndex

    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux /proc")

    def rss_mb() -> float:
        with open("/proc/self/status") as fh:
            return next(
                int(line.split()[1]) for line in fh
                if line.startswith("VmRSS:")
            ) / 1024

    li = LocalIndex(tiny_index)
    li.query_topk("merge window", 10)
    first = rss_mb()
    for _ in range(5):
        li.reload()
        li.query_topk("merge window", 10)
    # about +1 MB here; a reload that kept its old generation alive
    # would add about 1 MB per reload on this index
    assert rss_mb() - first < 3.0


# ---------------------------------------------------------------------------
# every public query method sees a commit on its first call after it

STALE_PROBE = "zzstaleprobe"
STALE_DOCS = [
    {
        "repo": "org0/repo0",
        "path": f"src/stale/probe{i}.py",
        "commit": "e" * 40,
        "lang": "python",
        "content": f"zzstaleprobe zzstalenear window {'pad ' * i}\n",
    }
    for i in range(5)
]
_NO = "zznosuchtermqq"
_STATS = {"kind": "stats", "field": "n_bytes"}


def _stale_doc_id() -> int:
    from ck_ray.ids import doc_id_for

    d = STALE_DOCS[0]
    return doc_id_for(d["repo"], d["path"], d["commit"])


# public method -> call that is truthy only when it sees the 5 new docs
STALE_CHECKS = {
    "search": lambda e: len(e.search(STALE_PROBE)) == 5,
    "search_raw": lambda e: len(e.search_raw(STALE_PROBE)[0]) == 5,
    "search_after": lambda e: len(e.search_after(STALE_PROBE)[0]) == 5,
    "search_many": lambda e: len(e.search_many([STALE_PROBE])[0][0]) == 5,
    "search_dismax": lambda e: len(
        e.search_dismax([STALE_PROBE, _NO])["doc_ids"]) == 5,
    "explain": lambda e: e.explain(STALE_PROBE, _stale_doc_id()) is not None,
    "search_suggest": lambda e: STALE_PROBE in [
        r["text"] for r in e.search_suggest("zzstaleprobx")],
    "search_rescore": lambda e: len(
        e.search_rescore(STALE_PROBE, "window")["doc_ids"]) == 5,
    "search_boosting": lambda e: len(
        e.search_boosting(STALE_PROBE, _NO)["doc_ids"]) == 5,
    "search_function_score": lambda e: len(
        e.search_function_score(STALE_PROBE, "n_bytes")["doc_ids"]) == 5,
    "search_min_should": lambda e: len(
        e.search_min_should([STALE_PROBE, _NO], 1)["doc_ids"]) == 5,
    "suggest_complete": lambda e: e.suggest_complete("zzstalep") == [
        (STALE_PROBE, 5)],
    "search_composite_agg": lambda e: e.search_composite_agg(
        STALE_PROBE, [{"field": "lang", "type": "terms"}]
    )[0]["n_docs"].sum() == 5,
    "search_span_near": lambda e: len(e.search_span_near(
        [STALE_PROBE, "zzstalenear"], in_order=True)) == 5,
    "search_facets": lambda e: e.search_facets(STALE_PROBE)[0] == 5,
    "search_significant_terms": lambda e: e.search_significant_terms(
        STALE_PROBE)["fg_total"] == 5,
    "search_significant_text": lambda e: e.search_significant_text(
        STALE_PROBE, sample_size=3)["fg_total"] == 3,
    "search_distance_feature": lambda e: len(e.search_distance_feature(
        STALE_PROBE, "n_bytes", 0, 100)["doc_ids"]) == 5,
    "search_pinned": lambda e: e.search_pinned(
        STALE_PROBE, [STALE_DOCS[0]["path"]])["pinned"].tolist() == [
        True, False, False, False, False],
    "search_span_first": lambda e: len(
        e.search_span_first(STALE_PROBE, 3)["doc_ids"]) == 5,
    "search_span_not": lambda e: len(
        e.search_span_not(STALE_PROBE, _NO)["doc_ids"]) == 5,
    "search_matrix_stats": lambda e: e.search_matrix_stats(
        STALE_PROBE)["count"] == 5,
    "search_weighted_avg": lambda e: e.search_weighted_avg(
        STALE_PROBE)["count"] == 5,
    "search_t_test": lambda e: e.search_t_test(
        STALE_PROBE, "window")["n_a"] == 5,
    "search_mad": lambda e: e.search_mad(STALE_PROBE)["count"] == 5,
    "search_percentile_ranks": lambda e: e.search_percentile_ranks(
        STALE_PROBE, values=(1,))["count"] == 5,
    "search_rare_terms": lambda e: {"term": STALE_PROBE, "df": 5} in (
        e.search_rare_terms(5, size=10**6)),
    "search_phrase_suggest": lambda e: "zzstaleprobe zzstalenear" in [
        r["phrase"] for r in e.search_phrase_suggest(
            "zzstaleprobx zzstalenear")],
    "search_best_passages": lambda e: len(
        e.search_best_passages(STALE_PROBE)["doc_ids"]) == 5,
    "search_aggregate": lambda e: e.search_aggregate(
        STALE_PROBE, _STATS)["count"] == 5,
    "search_filters_agg": lambda e: e.search_filters_agg(
        {"p": STALE_PROBE}, _STATS)["p"]["count"] == 5,
    "search_adjacency_matrix": lambda e: e.search_adjacency_matrix(
        {"p": STALE_PROBE, "w": "window"}).get("p") == 5,
    "search_aggregate_multi": lambda e: e.search_aggregate_multi(
        STALE_PROBE, {"s": _STATS})["s"]["count"] == 5,
    "search_sort_by_field": lambda e: len(e.search_sort_by_field(
        STALE_PROBE, "n_bytes")["doc_ids"]) == 5,
    "search_collapse": lambda e: len(
        e.search_collapse(STALE_PROBE, "lang")) == 1,
    "search_boxplot": lambda e: e.search_boxplot(STALE_PROBE)["count"] == 5,
    "search_top_metrics": lambda e: len(
        e.search_top_metrics(STALE_PROBE)) == 5,
    "search_string_stats": lambda e: e.search_string_stats(
        STALE_PROBE)["count"] == 5,
    "search_facet_stats": lambda e: e.search_facet_stats(
        STALE_PROBE).get("python", {}).get("count") == 5,
    "search_top_hits": lambda e: sum(
        len(d) for d, _, _ in e.search_top_hits(
            STALE_PROBE, top_k=5).values()) == 5,
    "select_like_terms": lambda e: STALE_PROBE in e.select_like_terms(
        f"{STALE_PROBE} {STALE_PROBE}"),
    "more_like_this": lambda e: len(e.more_like_this(STALE_PROBE)) == 5,
}


@pytest.fixture(scope="module")
def stale_index(ray_session, tiny_corpus, tmp_path_factory):
    """An index and the text of two of its committed root manifests:
    ``before`` (the tiny corpus) and ``after`` (plus STALE_DOCS)."""
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path_factory.mktemp("stale"))
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    path = f"{d}/manifest.json"
    with open(path) as fh:
        before = fh.read()
    incremental_update(
        ray.data.from_arrow(pa.Table.from_pylist(STALE_DOCS)), d, cfg,
        additive=True,
    )
    with open(path) as fh:
        after = fh.read()
    return d, before, after


@pytest.fixture(scope="module")
def stale_engine(stale_index):
    """One auto-reloading engine for the whole table (these tests close
    the module, so its shards never hold CPUs a commit above needs)."""
    eng = BM25Engine(stale_index[0], num_shards=2)
    yield eng
    eng.close()


def _commit_text(d: str, text: str) -> None:
    import os

    path = os.path.join(d, "manifest.json")
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def test_stale_checks_cover_every_public_query_method():
    public = {
        n for n, f in vars(BM25Engine).items()
        if not n.startswith("_") and callable(f)
    }
    assert public - {"refresh", "close"} == set(STALE_CHECKS)


@pytest.mark.parametrize("method", sorted(STALE_CHECKS))
def test_first_call_after_commit_sees_new_docs(
    stale_index, stale_engine, method
):
    """A commit landing between two calls is visible to the very first
    call after it, for every public query method: each call runs one
    auto-reload check before any shard round."""
    d, before, after = stale_index
    check = STALE_CHECKS[method]
    _commit_text(d, before)
    stale_engine.refresh()
    assert not check(stale_engine)
    _commit_text(d, after)
    assert check(stale_engine)
