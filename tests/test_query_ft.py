"""Serving fault tolerance: DocShard actors restart after a worker
death. A LocalIndex's state is a pure function of index_dir and the
epoch list it loaded (queries never mutate it; an in-place ``reload``
swaps in another committed epoch list), so ``max_restarts=-1,
max_task_retries=-1`` lets Ray respawn a killed shard — its constructor
loads the committed manifest with the buckets of its ``shard=(i, n)``
slot — and transparently retry the idempotent query method. On a real
cluster one lost node must not brick an open engine (reference keeps its
tantivy searcher in-process; the distributed analogue is shard respawn)."""

import pytest
import ray

from ck_ray.query import BM25Engine

QUERIES = [
    "merge_posting_runs",
    "tokenize stream",
    '"def merge_posting_runs"',
    "+parse -stream",
]


def _snapshot(eng, q):
    ids, scores = eng.search_raw(q, top_k=10)
    return list(ids), [float(s) for s in scores]


def test_shard_killed_then_queries_identical(ray_session, tiny_index):
    eng = BM25Engine(tiny_index, num_shards=3, auto_reload=False)
    try:
        before = [_snapshot(eng, q) for q in QUERIES]
        # simulate a worker/node death for ONE shard; no_restart=False
        # leaves Ray's restart policy (max_restarts=-1) in charge
        ray.kill(eng.shards[0], no_restart=False)
        after = [_snapshot(eng, q) for q in QUERIES]
        assert after == before
        # kill a DIFFERENT shard between two queries of a batch path too
        ray.kill(eng.shards[-1], no_restart=False)
        df = eng.search(QUERIES[0], top_k=10)
        assert df["doc_id"].tolist() == before[0][0]
    finally:
        eng.close()


def test_shard_killed_after_in_place_reload_restarts_current(
    ray_session, tiny_corpus, tmp_path
):
    """A shard killed after in-place reloads (an additive update, then a
    compaction to another bucket count) restarts onto the CURRENT
    manifest and its slot's buckets: answers equal a fresh engine's."""
    import numpy as np
    import ray.data

    import ck_ray.build as ckb
    from ck_ray.compact import compact_index
    from ck_ray.incremental import incremental_update

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus.slice(20)), d, cfg)
    eng = BM25Engine(d, num_shards=3, auto_reload=False)
    try:
        incremental_update(
            ray.data.from_arrow(tiny_corpus.slice(0, 20)), d, cfg,
            additive=True,
        )
        assert eng.refresh() is True
        compact_index(d, ckb.IndexConfig(
            num_parts=4, batch_size=64, serving_buckets=4
        ))
        assert eng.refresh() is True
        fresh = BM25Engine(d, num_shards=3, auto_reload=False)
        try:
            want = [fresh.search_raw(q, 10) for q in QUERIES]
        finally:
            fresh.close()
        for victim in (eng.shards[0], eng.shards[-1]):
            ray.kill(victim, no_restart=False)
            for q, (wd, ws) in zip(QUERIES, want):
                di, si = eng.search_raw(q, 10)
                assert list(di) == list(wd) and np.array_equal(si, ws), q
    finally:
        eng.close()


def test_all_shards_killed_then_query_recovers(ray_session, tiny_index):
    eng = BM25Engine(tiny_index, num_shards=2, auto_reload=False)
    try:
        before = _snapshot(eng, QUERIES[0])
        for s in eng.shards:
            ray.kill(s, no_restart=False)
        assert _snapshot(eng, QUERIES[0]) == before
    finally:
        eng.close()


def test_replicas_identical_and_batch_split(ray_session, tiny_index):
    """num_replicas=2: sticky single-query routing and the split batch
    path return exactly what the unreplicated engine returns, in order;
    a repeated query always lands on the SAME replica (cache affinity)."""
    base = BM25Engine(tiny_index, num_shards=2, auto_reload=False)
    rep = BM25Engine(
        tiny_index, num_shards=2, auto_reload=False, num_replicas=2
    )
    try:
        want = [base.search_raw(q, 10) for q in QUERIES]
        for _ in range(2):
            for q, (wd, ws) in zip(QUERIES, want):
                d, s = rep.search_raw(q, 10)
                assert list(d) == list(wd) and list(s) == list(ws)
        # sticky: the routed replica for a query is stable across calls
        for q in QUERIES:
            assert rep._next_replica(q) is rep._next_replica(q)
        batch = rep.search_many(QUERIES * 3, top_k=10)
        assert len(batch) == len(QUERIES) * 3
        for i, (d, s) in enumerate(batch):
            wd, ws = want[i % len(QUERIES)]
            assert list(d) == list(wd) and list(s) == list(ws)
        # a killed shard in the replica a query routes TO restarts
        # transparently mid-serving
        victim = rep._next_replica(QUERIES[0])[0]
        ray.kill(victim, no_restart=False)
        for _ in range(2):
            d, s = rep.search_raw(QUERIES[0], 10)
            assert list(d) == list(want[0][0])
    finally:
        rep.close()
        base.close()


def test_offset_pagination_matches_full_list(ray_session, tiny_index):
    """offset=N must equal slicing the full ranked list — raw and
    DataFrame paths, incl. normalization by the GLOBAL rank-1 score
    (page 2's normalized scores equal page 1's for the same docs)."""
    import numpy as np
    import pandas as pd
    import pytest

    eng = BM25Engine(tiny_index, num_shards=3, auto_reload=False)
    q = "merge stream tokenize"
    try:
        full_d, full_s = eng.search_raw(q, top_k=200)
        for off in (0, 3, 7, len(full_d) - 2, len(full_d) + 50):
            d, s = eng.search_raw(q, top_k=5, offset=off)
            assert list(d) == list(full_d[off:off + 5]), off
            assert list(s) == list(full_s[off:off + 5]), off
        df_all = eng.search(q, top_k=200)
        df2 = eng.search(q, top_k=5, offset=5)
        pd.testing.assert_frame_equal(
            df2, df_all.iloc[5:10].reset_index(drop=True)
        )
        assert np.array_equal(
            df2["normalized_score"].to_numpy(),
            df_all["normalized_score"].to_numpy()[5:10],
        )
        # offset past the match set: empty, stable schema
        df = eng.search(q, top_k=5, offset=10**6)
        assert len(df) == 0 and list(df.columns) == list(df_all.columns)
        with pytest.raises(ValueError):
            eng.search_raw(q, top_k=5, offset=-1)
        with pytest.raises(ValueError):
            eng.search(q, top_k=5, offset=-1)
    finally:
        eng.close()


def test_search_after_cursor_walk(ray_session, tiny_index):
    """Cursor pagination (ES search_after): walking pages with the raw
    (score, doc_id) cursor reconstructs the full ranked list exactly,
    and — the scale point — a DEEP page's shard traffic stays O(k),
    unlike the offset path whose fetch grows O(offset + k)."""
    eng = BM25Engine(tiny_index, num_shards=3, auto_reload=False)
    q = "merge stream tokenize"
    k = 4
    try:
        full_d, full_s = eng.search_raw(q, top_k=200)
        walked_d, walked_s = [], []
        cursor = None
        while True:
            d, s = eng.search_after(q, after=cursor, top_k=k)
            # deep pages cost what page 1 costs: <= shards * k rows
            assert eng.last_fanout_rows <= 3 * k
            if len(d) == 0:
                break
            walked_d.extend(d.tolist())
            walked_s.extend(s.tolist())
            cursor = (float(s[-1]), int(d[-1]))
        assert walked_d == list(full_d)
        assert walked_s == list(full_s)
        # after=None is page 1
        d0, s0 = eng.search_after(q, top_k=k)
        assert list(d0) == list(full_d[:k])
        # cursor past the end: empty page, never an error
        d, s = eng.search_after(q, after=(0.0, 2**63), top_k=k)
        assert len(d) == 0 and len(s) == 0
    finally:
        eng.close()


def test_dismax_tie_breaker_invariants(ray_session, tiny_index):
    """dis_max degenerate cases pin the combine semantics: tie=1 equals
    the boolean OR's sum over the same clauses; tie=0 equals the
    per-doc max of the clause scores (brute-forced from the full
    per-clause match lists)."""
    import numpy as np

    eng = BM25Engine(tiny_index, num_shards=3, dtype=np.float64,
                     auto_reload=False)
    clauses = ["merge stream", "tokenize"]
    try:
        per = {}
        for c in clauses:
            d, s = eng.search_raw(c, top_k=10**6, pruning=False)
            per[c] = dict(zip(d.tolist(), s.tolist()))
        union = sorted(set().union(*[p.keys() for p in per.values()]))
        best = {d: max(p.get(d, 0.0) for p in per.values()) for d in union}
        total = {d: sum(p.get(d, 0.0) for p in per.values()) for d in union}

        res0 = eng.search_dismax(clauses, tie=0.0, top_k=10**6)
        got0 = dict(zip(res0["doc_ids"].tolist(), res0["scores"].tolist()))
        assert set(got0) == set(union)
        for d in union:
            assert got0[d] == best[d], d

        res1 = eng.search_dismax(clauses, tie=1.0, top_k=10**6)
        got1 = dict(zip(res1["doc_ids"].tolist(), res1["scores"].tolist()))
        for d in union:
            # best + 1.0 * (total - best), bit-for-bit
            assert got1[d] == best[d] + 1.0 * (total[d] - best[d]), d

        # paths carry stored metadata for every hit
        assert all(p is not None for p in res0["paths"])
        # ordering contract: score desc, doc_id asc
        s = res0["scores"]
        d = res0["doc_ids"]
        for i in range(1, len(s)):
            assert s[i] < s[i - 1] or (
                s[i] == s[i - 1] and d[i] > d[i - 1]
            )
        # clause absent from every doc: harmless zero contribution
        res = eng.search_dismax(["merge stream", "zzznosuchterm"],
                                tie=0.5, top_k=10)
        assert len(res["doc_ids"]) > 0
        # all clauses empty: empty result, stable shapes
        res = eng.search_dismax(["zzznosuchterm"], tie=0.5, top_k=10)
        assert len(res["doc_ids"]) == 0 and len(res["paths"]) == 0
    finally:
        eng.close()


def test_function_score_field_value_factor(ray_session, tiny_index):
    """function_score + field_value_factor invariants: the combine is
    exactly ``bm25 <boost_mode> modifier(factor * dl_content)`` in
    float64 (cross-checked against search_raw scores and the fast-field
    values from the order-by-field collector); sum/factor=0/none is
    bitwise the plain query; bad modifier / boost_mode / field fail
    loudly."""
    import numpy as np

    eng = BM25Engine(tiny_index, num_shards=3, dtype=np.float64,
                     auto_reload=False)
    q, field = "merge stream", "dl_content"
    try:
        d_raw, s_raw = eng.search_raw(q, top_k=10**6, pruning=False)
        bm25 = dict(zip(d_raw.tolist(), s_raw.tolist()))
        byf = eng.search_sort_by_field(q, field, top_k=10**6)
        dl = dict(zip(byf["doc_ids"].tolist(), byf["values"].tolist()))
        assert set(dl) == set(bm25)  # every match carries the field

        # boost_mode=sum with factor=0, modifier=none: fvf == 0 ->
        # scores are the plain BM25 scores, bit-for-bit
        r0 = eng.search_function_score(q, field, factor=0.0,
                                       modifier="none", boost_mode="sum",
                                       top_k=10**6)
        got0 = dict(zip(r0["doc_ids"].tolist(), r0["scores"].tolist()))
        assert got0 == bm25

        # multiply/none/factor=1: score == bm25 * dl exactly
        r1 = eng.search_function_score(q, field, factor=1.0,
                                       modifier="none", top_k=10**6)
        got1 = dict(zip(r1["doc_ids"].tolist(), r1["scores"].tolist()))
        assert set(got1) == set(bm25)
        for d, s in got1.items():
            assert s == bm25[d] * np.float64(dl[d]), d

        # multiply/log1p/factor=0.5: one multiply into log1p, bitwise
        r2 = eng.search_function_score(q, field, factor=0.5,
                                       modifier="log1p", top_k=10**6)
        for d, s in zip(r2["doc_ids"].tolist(), r2["scores"].tolist()):
            assert s == bm25[d] * np.log1p(np.float64(0.5)
                                           * np.float64(dl[d])), d

        # sum/sqrt: bm25 + sqrt(dl), bitwise
        r3 = eng.search_function_score(q, field, factor=1.0,
                                       modifier="sqrt", boost_mode="sum",
                                       top_k=10**6)
        for d, s in zip(r3["doc_ids"].tolist(), r3["scores"].tolist()):
            assert s == bm25[d] + np.sqrt(np.float64(dl[d])), d

        # ordering contract: score desc, doc_id asc
        s_arr, d_arr = r2["scores"], r2["doc_ids"]
        for i in range(1, len(s_arr)):
            assert s_arr[i] < s_arr[i - 1] or (
                s_arr[i] == s_arr[i - 1] and d_arr[i] > d_arr[i - 1]
            )
        assert all(p is not None for p in r2["paths"])

        import pytest as _pytest

        with _pytest.raises(Exception, match="unknown modifier"):
            eng.search_function_score(q, field, modifier="exp")
        with _pytest.raises(Exception, match="unknown boost_mode"):
            eng.search_function_score(q, field, boost_mode="max")
        with _pytest.raises(Exception, match="fast field"):
            eng.search_function_score(q, "nofield")
        # empty match set: stable empty shapes
        r = eng.search_function_score("zzznosuchterm", field, top_k=5)
        assert len(r["doc_ids"]) == 0 and len(r["paths"]) == 0
    finally:
        eng.close()


def test_synonym_blended_scoring(ray_session, tiny_index, tiny_corpus):
    """Query-time synonyms (Lucene SynonymQuery): an engine built with
    synonyms={'merge': ['stream']} scores 'merge' as ONE blended term —
    union docs, summed tf, max-member df — rank+f32-identical to the
    brute oracle under the same map; phrases and boolean structure are
    untouched; pruned and exhaustive paths agree."""
    import numpy as np

    from ck_ray import scoring
    from ck_ray.oracle import BM25Oracle

    syn = {"merge": ["stream"]}
    eng = BM25Engine(tiny_index, num_shards=3, synonyms=syn,
                     auto_reload=False)
    plain = BM25Engine(tiny_index, num_shards=3, auto_reload=False)
    oracle = BM25Oracle(tiny_corpus, synonyms=syn)
    try:
        for q in (
            "merge",
            "merge tokenize",
            "merge AND tokenize",
            "+merge -tokenize",
            "merge^2 tokenize",
            '"merge stream" merge',  # phrase NOT rewritten; term is
        ):
            de, se = eng.search_raw(q, 50)
            do, so = oracle.search_raw(q, 50)
            assert de.tolist() == do.tolist(), f"{q}: docs differ"
            assert np.array_equal(se, so), f"{q}: scores differ"
            dp, sp = eng.search_raw(q, 50, pruning=False)
            assert de.tolist() == dp.tolist() and np.array_equal(se, sp)

        # match set = union of the member terms' match sets
        db, _ = eng.search_raw("merge", 10**6)
        dm, _ = plain.search_raw("merge", 10**6)
        ds, _ = plain.search_raw("stream", 10**6)
        assert set(db.tolist()) == set(dm.tolist()) | set(ds.tolist())
        assert set(db.tolist()) > set(dm.tolist())  # really widened

        # blended formula spot-check: summed tf, max-member df
        fid0 = 0
        pm = oracle.postings[fid0]["merge"]
        ps = oracle.postings[fid0]["stream"]
        df_b = max(len(pm), len(ps))
        d0 = int(db[0])
        tf = pm.get(d0, (0, []))[0] + ps.get(d0, (0, []))[0]
        want = scoring.term_scores(
            tf, oracle.dl[fid0][d0], df_b, oracle.n_docs,
            oracle.avgdl[fid0], dtype=np.float32,
        )
        got = dict(zip(*[x.tolist() for x in eng.search_raw("merge", 5)]))
        assert got[d0] == float(want)

        # the phrase leg is bitwise IDENTICAL to the synonym-free engine
        pe = plain.search_raw('"merge stream"', 50)
        se_ = eng.search_raw('"merge stream"', 50)
        assert pe[0].tolist() == se_[0].tolist()
        assert np.array_equal(pe[1], se_[1])
    finally:
        eng.close()
        plain.close()


def test_term_suggester(ray_session, tiny_index, tiny_corpus):
    """Term suggester == brute force over the corpus dictionary:
    candidates within max_edits, ranked (distance asc, df desc, term
    asc), input excluded, analyzer-normalized input, exact dfs."""
    import numpy as np

    from ck_ray.strdist import edit_distance
    from ck_ray.tokenizer import tokenize_text

    eng = BM25Engine(tiny_index, num_shards=3, auto_reload=False)
    try:
        # brute-force dictionary + df from the corpus
        df: dict[str, int] = {}
        for c in tiny_corpus["content"].to_pylist():
            for t in set(tokenize_text(c)):
                df[t] = df.get(t, 0) + 1
        for typo in ("mergw", "strem", "tokenzie"):
            want = sorted(
                (
                    (edit_distance(typo, t), -n, t)
                    for t, n in df.items()
                    if t != typo and edit_distance(typo, t) <= 2
                ),
            )[:5]
            got = eng.search_suggest(typo, size=5)
            assert [
                (g["distance"], -g["df"], g["text"]) for g in got
            ] == want, typo
        # the obvious correction ranks first
        top = eng.search_suggest("mergw", size=3)
        assert top[0]["text"] == "merge" and top[0]["distance"] == 1
        # analyzer normalization: case-insensitive input
        assert eng.search_suggest("MerGW") == eng.search_suggest("mergw")
        # degenerate inputs
        assert eng.search_suggest("") == []
        # the input term is never suggested back, even when it exists
        assert all(
            g["text"] != "merge"
            for g in eng.search_suggest("merge", size=10)
        )
    finally:
        eng.close()


def test_rescore_two_phase(ray_session, tiny_index):
    """rescore invariants: weights (1,0) with a full-coverage window is
    the plain primary ranking; every combined score equals
    qw*primary + rw*secondary hand-computed bitwise from two full
    evaluations; a small window confines results to the primary top-w;
    docs outside the rescore query's match set keep secondary == 0."""
    import numpy as np

    eng = BM25Engine(tiny_index, num_shards=3, dtype=np.float64,
                     auto_reload=False)
    q, rq = "merge stream", '"merge stream" tokenize'
    try:
        d_p, s_p = eng.search_raw(q, top_k=10**6, pruning=False)
        prim = dict(zip(d_p.tolist(), s_p.tolist()))
        d_s, s_s = eng.search_raw(rq, top_k=10**6, pruning=False)
        sec = dict(zip(d_s.tolist(), s_s.tolist()))

        # full-coverage window, secondary weight 0 -> primary ranking
        r = eng.search_rescore(q, rq, window_size=10**6,
                               query_weight=1.0,
                               rescore_query_weight=0.0, top_k=10)
        assert r["doc_ids"].tolist() == d_p[:10].tolist()
        assert np.array_equal(r["scores"], s_p[:10])

        # combined = 0.5*p + 2*s, bitwise, over the whole match set
        qw, rw = 0.5, 2.0
        r = eng.search_rescore(q, rq, window_size=10**6,
                               query_weight=qw,
                               rescore_query_weight=rw, top_k=10**6)
        assert set(r["doc_ids"].tolist()) == set(prim)  # window = all
        hit_secondary = 0
        for d, s, p0, s0 in zip(r["doc_ids"].tolist(),
                                r["scores"].tolist(),
                                r["primary"].tolist(),
                                r["secondary"].tolist()):
            assert p0 == prim[d]
            assert s0 == sec.get(d, 0.0)
            assert s == np.float64(qw) * np.float64(p0) + np.float64(
                rw
            ) * np.float64(s0), d
            hit_secondary += s0 > 0
        assert 0 < hit_secondary < len(prim)  # both cases exercised

        # a small window confines the re-rank to the primary top-w
        w = 5
        topw = set(d_p[:w].tolist())
        r = eng.search_rescore(q, rq, window_size=w, top_k=w)
        assert set(r["doc_ids"].tolist()) <= topw
        # ordering contract on the combined score
        s_arr, d_arr = r["scores"], r["doc_ids"]
        for i in range(1, len(s_arr)):
            assert s_arr[i] < s_arr[i - 1] or (
                s_arr[i] == s_arr[i - 1] and d_arr[i] > d_arr[i - 1]
            )
        # empty primary -> stable empty shapes
        r = eng.search_rescore("zzznosuchterm", rq, top_k=5)
        assert len(r["doc_ids"]) == 0 and len(r["secondary"]) == 0
    finally:
        eng.close()


def test_explain_breakdown(ray_session, tiny_index, tiny_corpus):
    """explain(): the total is bit-identical to the ranked path's score;
    matched leaf contributions sum to it (leaf order) for unboosted
    trees; the per-term evidence (df/tf/dl/idf) reconstructs each term
    score from the BM25 formula exactly; df agrees with the brute-force
    oracle's postings."""
    import numpy as np

    import ck_ray.build as ckb
    from ck_ray import scoring
    from ck_ray.oracle import BM25Oracle

    eng = BM25Engine(tiny_index, num_shards=3, dtype=np.float64,
                     auto_reload=False)
    oracle = BM25Oracle(tiny_corpus)
    man = ckb.load_manifest(tiny_index)
    avgdl = man["fields"]["content"]["avgdl"]
    n = man["num_docs"]
    try:
        for q in (
            "merge stream",
            "merge AND stream -tokenize",
            '"merge stream" tokenize',
            "merge^2 stream",
        ):
            d, s = eng.search_raw(q, 10, pruning=False)
            assert len(d), q
            ex = eng.explain(q, int(d[0]))
            assert ex is not None and ex["matched"]
            assert ex["total"] == s[0], q  # bitwise vs the ranked path
            acc = np.float64(0.0)
            for leaf in ex["leaves"]:
                if leaf["matched"]:
                    acc = acc + np.float64(leaf["score"])
                for det in leaf["details"]:
                    # df agrees with the oracle's corpus-global postings
                    assert det["df"] == len(
                        oracle.postings[0][det["term"]]
                    ), det
                    if leaf["kind"] == "term" and leaf["matched"]:
                        want = np.float64(
                            scoring.idf(det["df"], n, dtype=np.float64)
                        ) * scoring.tf_factor(
                            np.float64(det["tf"]), np.float64(det["dl"]),
                            avgdl, dtype=np.float64,
                        )
                        if leaf["boost"] != 1.0:
                            want = want * np.float64(leaf["boost"])
                        assert float(want) == leaf["score"], det
                        assert det["idf"] == float(
                            scoring.idf(det["df"], n, dtype=np.float64)
                        )
            assert float(acc) == ex["total"], q  # leaf sums reconstruct

        # a doc outside the match set (or the index) explains to None
        assert eng.explain("merge stream", 2**63) is None
        nm, _ = eng.search_raw("-merge *", 10**6)  # docs WITHOUT merge
        assert eng.explain("merge", int(nm[0])) is None
    finally:
        eng.close()


def test_significant_terms_jlh(ray_session, tiny_index):
    """significant_terms == JLH hand-computed from the facet collectors:
    foreground counts are the query's facet counts, background counts
    are the match-all facet counts, score = (fg% - bg%) * (fg% / bg%),
    positive-only, score-desc/value-asc order, size cut."""
    import numpy as np

    eng = BM25Engine(tiny_index, num_shards=3, dtype=np.float64,
                     auto_reload=False)
    q, field = "merge stream", "lang"
    try:
        fg_total, fg = eng.search_facets(q, field)
        bg_total, bg = eng.search_facets("*", field)
        want = []
        for v in sorted(fg):
            fgp, bgp = fg[v] / fg_total, bg[v] / bg_total
            score = (fgp - bgp) * (fgp / bgp)
            if score > 0:
                want.append((v, fg[v], bg[v], score))
        want.sort(key=lambda r: (-r[3], r[0]))
        assert want  # the corpus must yield a non-trivial case

        res = eng.search_significant_terms(q, field, size=100)
        assert res["fg_total"] == fg_total
        assert res["bg_total"] == bg_total
        got = [
            (r["value"], r["fg_count"], r["bg_count"], r["score"])
            for r in res["buckets"]
        ]
        assert got == want  # bit-for-bit, including the float64 scores

        # size cut keeps the top bucket of the same ordering
        res1 = eng.search_significant_terms(q, field, size=1)
        assert [(r["value"], r["score"]) for r in res1["buckets"]] == [
            (want[0][0], want[0][3])
        ]

        # no matches -> no buckets, totals still exact
        res0 = eng.search_significant_terms("zzznosuchterm", field)
        assert res0["buckets"] == [] and res0["bg_total"] == bg_total
        # unknown field fails loudly
        import pytest as _pytest

        with _pytest.raises(Exception, match="no such facet field"):
            eng.search_significant_terms(q, "nofield")
    finally:
        eng.close()


def test_boosting_query_invariants(ray_session, tiny_index):
    """Boosting-query degenerate cases pin the semantics:
    negative_boost=1 is bitwise the positive query alone; demoted docs
    are exactly the positive ∩ negative match-set intersection, each
    scoring positive_score * negative_boost (one float64 multiply);
    docs outside the negative set keep their positive score bit-for-bit;
    the negative side never adds or removes docs."""
    import numpy as np

    eng = BM25Engine(tiny_index, num_shards=3, dtype=np.float64,
                     auto_reload=False)
    positive, negative = "merge stream", "tokenize"
    try:
        d_pos, s_pos = eng.search_raw(positive, top_k=10**6, pruning=False)
        pos_score = dict(zip(d_pos.tolist(), s_pos.tolist()))
        d_neg, _ = eng.search_raw(negative, top_k=10**6, pruning=False)
        neg_set = set(d_neg.tolist())
        # the intersection must be non-trivial or the test proves nothing
        assert set(d_pos.tolist()) & neg_set

        res1 = eng.search_boosting(positive, negative, 1.0, top_k=10**6)
        assert sorted(res1["doc_ids"].tolist()) == sorted(d_pos.tolist())
        got1 = dict(zip(res1["doc_ids"].tolist(), res1["scores"].tolist()))
        for d in pos_score:
            assert got1[d] == pos_score[d], d

        nb = 0.25
        res = eng.search_boosting(positive, negative, nb, top_k=10**6)
        got = dict(zip(res["doc_ids"].tolist(), res["scores"].tolist()))
        assert set(got) == set(pos_score)  # membership never changes
        for d, s in got.items():
            want = pos_score[d] * nb if d in neg_set else pos_score[d]
            assert s == want, d

        # negative_boost=0 zeroes demoted docs (they rank last)
        res0 = eng.search_boosting(positive, negative, 0.0, top_k=10**6)
        got0 = dict(zip(res0["doc_ids"].tolist(), res0["scores"].tolist()))
        for d in pos_score:
            assert got0[d] == (0.0 if d in neg_set else pos_score[d])

        # ordering contract: score desc, doc_id asc
        s_arr, d_arr = res["scores"], res["doc_ids"]
        for i in range(1, len(s_arr)):
            assert s_arr[i] < s_arr[i - 1] or (
                s_arr[i] == s_arr[i - 1] and d_arr[i] > d_arr[i - 1]
            )
        assert all(p is not None for p in res["paths"])
        # absent negative: harmless no-op; absent positive: empty
        r = eng.search_boosting(positive, "zzznosuchterm", 0.5, top_k=10)
        assert len(r["doc_ids"]) > 0
        r = eng.search_boosting("zzznosuchterm", negative, 0.5, top_k=10)
        assert len(r["doc_ids"]) == 0 and len(r["paths"]) == 0
    finally:
        eng.close()


def test_min_should_match_invariants(ray_session, tiny_index):
    """minimum_should_match degenerate cases pin the semantics: m=1 is
    the plain boolean OR; m=N is the AND over the same clauses (both
    score the sum of matching clause scores in clause order); m>N is
    empty; docs below the floor are excluded, the rest keep the OR sum."""
    import numpy as np

    eng = BM25Engine(tiny_index, num_shards=3, dtype=np.float64,
                     auto_reload=False)
    terms = ["merge", "stream", "tokenize"]
    try:
        d_or, s_or = eng.search_raw(" ".join(terms), top_k=10**6,
                                    pruning=False)
        res1 = eng.search_min_should(terms, 1, top_k=10**6)
        assert res1["doc_ids"].tolist() == d_or.tolist()
        assert np.array_equal(res1["scores"], s_or)

        d_and, s_and = eng.search_raw(" AND ".join(terms), top_k=10**6,
                                      pruning=False)
        res3 = eng.search_min_should(terms, 3, top_k=10**6)
        assert res3["doc_ids"].tolist() == d_and.tolist()
        assert np.array_equal(res3["scores"], s_and)

        # m=2 sits between: subset of OR docs, superset of AND docs,
        # and each kept doc keeps its OR score
        res2 = eng.search_min_should(terms, 2, top_k=10**6)
        got2 = set(res2["doc_ids"].tolist())
        assert got2 <= set(d_or.tolist())
        assert set(d_and.tolist()) <= got2
        or_score = dict(zip(d_or.tolist(), s_or.tolist()))
        for doc, s in zip(res2["doc_ids"].tolist(),
                          res2["scores"].tolist()):
            assert s == or_score[doc]
        # brute-force the floor itself: count matching clauses per doc
        per = [set(eng.search_raw(t, top_k=10**6)[0].tolist())
               for t in terms]
        expect2 = {d for d in or_score
                   if sum(d in p for p in per) >= 2}
        assert got2 == expect2

        assert len(eng.search_min_should(terms, 4, top_k=5)["doc_ids"]) == 0
        assert all(p is not None for p in res2["paths"])
    finally:
        eng.close()


class TestSpanNear:
    """Lucene SpanNearQuery / ES span_near: minimal-window proximity."""

    @pytest.fixture(scope="class")
    def span_idx(self, ray_session, tmp_path_factory):
        import pyarrow as pa
        import ray.data

        from ck_ray.build import IndexConfig, build_index

        docs = [
            "merge window now",            # 0: adjacent (win 2)
            "merge then a window",         # 1: ordered gap (win 4)
            "window stuff merge",          # 2: reversed (win 3)
            "merge alone here",            # 3: one term only
            "window merge window merge",   # 4: interleaved (win 2)
            "merge x x x x x x window",    # 5: far apart (win 8)
        ]
        t = pa.table(
            {
                "repo": ["r"] * len(docs),
                "path": [str(i) for i in range(len(docs))],
                "commit": ["0"] * len(docs),
                "lang": ["text"] * len(docs),
                "content": pa.array(docs),
            }
        )
        d = str(tmp_path_factory.mktemp("span") / "idx")
        build_index(ray.data.from_arrow(t), d, IndexConfig(num_parts=2))
        return d

    def _run(self, idx, **kw):
        import numpy as np

        from ck_ray.query import BM25Engine

        eng = BM25Engine(idx, num_shards=2)
        try:
            df = eng.search_span_near(["merge", "window"], with_meta=True, **kw)
        finally:
            eng.close()
        return dict(zip(df["path"], df["min_window"]))

    def test_unordered_windows(self, span_idx):
        got = self._run(span_idx, slop=6)
        assert got == {"0": 2, "1": 4, "2": 3, "4": 2, "5": 8}

    def test_slop_cuts(self, span_idx):
        assert set(self._run(span_idx, slop=0)) == {"0", "4"}
        assert set(self._run(span_idx, slop=1)) == {"0", "2", "4"}
        assert set(self._run(span_idx, slop=2)) == {"0", "1", "2", "4"}

    def test_in_order_excludes_reversed(self, span_idx):
        got = self._run(span_idx, slop=6, in_order=True)
        assert "2" not in got             # only window-before-merge
        assert got["0"] == 2 and got["1"] == 4 and got["4"] == 2

    def test_rank_is_proximity(self, span_idx):
        import numpy as np

        from ck_ray.query import BM25Engine

        eng = BM25Engine(span_idx, num_shards=2)
        try:
            df = eng.search_span_near(["merge", "window"], slop=6)
            assert df["min_window"].is_monotonic_increasing
            top2 = eng.search_span_near(["merge", "window"], slop=6, top_k=2)
            assert list(top2["min_window"]) == [2, 2]
        finally:
            eng.close()

    def test_absent_term_matches_nothing(self, span_idx):
        assert self._run(span_idx, slop=6, in_order=False) != {} \
            and self._run.__name__  # sanity
        from ck_ray.query import BM25Engine

        eng = BM25Engine(span_idx, num_shards=2)
        try:
            df = eng.search_span_near(["merge", "zzznope"], slop=9)
            assert len(df) == 0
        finally:
            eng.close()

    def test_duplicate_terms_rejected_unordered(self, span_idx):
        import pytest as _pytest

        from ck_ray.query import LocalIndex

        with _pytest.raises(Exception, match="distinct"):
            import json

            man = json.load(open(span_idx + "/manifest.json"))
            li = LocalIndex(span_idx, list(range(man["num_serving_buckets"])))
            li.query_span_near(["merge", "merge"], slop=2, in_order=False)

    def test_ordered_duplicates_ok(self, span_idx):
        import json

        from ck_ray.query import LocalIndex

        man = json.load(open(span_idx + "/manifest.json"))
        li = LocalIndex(span_idx, list(range(man["num_serving_buckets"])))
        out = li.query_span_near(["window", "merge", "window"], slop=0,
                                 in_order=True)
        # doc 4: window(0) merge(1) window(2) -> window 3 == n+0
        assert len(out["doc_id"]) == 1 and out["min_window"][0] == 3


def test_round4_paths_survive_shard_kill(ray_session, tiny_index):
    """The round-4 serving paths (span_near, composite agg, adjacency,
    completion, batch trees) recover transparently from a killed shard
    — same max_restarts/idempotent-retry contract as query_topk."""
    eng = BM25Engine(tiny_index, num_shards=2)
    try:
        sources = [
            {"field": "lang", "type": "terms"},
            {"field": "n_bytes", "type": "histogram", "interval": 256},
        ]
        before = (
            eng.search_span_near(["merge", "window"], slop=8, top_k=10),
            eng.search_composite_agg("merge", sources, size=10**6)[0],
            eng.search_adjacency_matrix({"a": "merge", "b": "window"}),
            eng.suggest_complete("mer", 5),
            [  # batch path ships pre-parsed trees
                (list(d), list(s))
                for d, s in eng.search_many(["merge", "def"] * 3, top_k=5)
            ],
        )
        ray.kill(eng.shards[0], no_restart=False)
        after = (
            eng.search_span_near(["merge", "window"], slop=8, top_k=10),
            eng.search_composite_agg("merge", sources, size=10**6)[0],
            eng.search_adjacency_matrix({"a": "merge", "b": "window"}),
            eng.suggest_complete("mer", 5),
            [
                (list(d), list(s))
                for d, s in eng.search_many(["merge", "def"] * 3, top_k=5)
            ],
        )
        assert before[0].equals(after[0])
        assert before[1].equals(after[1])
        assert before[2] == after[2]
        assert before[3] == after[3]
        assert before[4] == after[4]
    finally:
        eng.close()


def test_span_near_fuzz_vs_bruteforce(ray_session, tmp_path_factory):
    """Randomized differential: the engine's anchor-scan minimal
    windows equal a brute-force itertools search over every per-term
    position tuple, ordered and unordered, across 40 random corpora
    slices x 3 term counts."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray.data

    from ck_ray.build import IndexConfig, build_index
    from ck_ray.query import BM25Engine
    from ck_ray.tokenizer import tokenize_text

    rng = np.random.RandomState(11)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]
    docs = [
        " ".join(rng.choice(vocab, rng.randint(3, 30)))
        for _ in range(60)
    ]
    t = pa.table(
        {
            "repo": ["r"] * len(docs),
            "path": [str(i) for i in range(len(docs))],
            "commit": ["0"] * len(docs),
            "lang": ["text"] * len(docs),
            "content": pa.array(docs),
        }
    )
    d = str(tmp_path_factory.mktemp("spanfuzz") / "idx")
    build_index(ray.data.from_arrow(t), d, IndexConfig(num_parts=2))

    def brute(doc, terms, slop, in_order):
        toks = tokenize_text(doc)
        pos = [
            [i for i, tk in enumerate(toks) if tk == term]
            for term in terms
        ]
        if any(not p for p in pos):
            return None
        best = None
        for combo in itertools.product(*pos):
            if in_order:
                if not all(a < b for a, b in zip(combo, combo[1:])):
                    continue
            elif len(set(combo)) != len(combo):
                continue
            w = max(combo) - min(combo) + 1
            best = w if best is None else min(best, w)
        if best is None or best - len(terms) > slop:
            return None
        return best

    eng = BM25Engine(d, num_shards=2)
    try:
        checked = 0
        for trial in range(40):
            n_terms = int(rng.randint(2, 4))
            terms = list(rng.choice(vocab, n_terms, replace=False))
            slop = int(rng.randint(0, 6))
            in_order = bool(rng.randint(0, 2))
            df = eng.search_span_near(
                terms, slop=slop, in_order=in_order, top_k=None,
                with_meta=True,
            )
            got = {p: w for p, w in zip(df["path"], df["min_window"])}
            want = {}
            for i, doc in enumerate(docs):
                w = brute(doc, terms, slop, in_order)
                if w is not None:
                    want[str(i)] = w
            assert got == want, (terms, slop, in_order)
            checked += len(want)
        assert checked > 100  # the corpora actually exercised matches
    finally:
        eng.close()


# --- round-4 additions: rare_terms / significant_text / phrase suggest /
# best passage — each differentially tested against a brute-force model
# built straight from the corpus tokens (no index involvement), plus
# shard-count parity.


def _corpus_tokens(tiny_corpus):
    """{path: [(term, pos), ...]} with the engine's own analyzer."""
    from ck_ray.tokenizer import tokenize_text_with_positions

    return {
        p: tokenize_text_with_positions(c)
        for p, c in zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["content"].to_pylist(),
        )
    }


def test_rare_terms_exact_vs_bruteforce(
    ray_session, tiny_index, tiny_corpus
):
    toks = _corpus_tokens(tiny_corpus)
    df: dict[str, set] = {}
    for p, tl in toks.items():
        for t, _ in tl:
            df.setdefault(t, set()).add(p)
    cap, size = 3, 25
    want = sorted(
        ((len(d), t) for t, d in df.items() if len(d) <= cap),
    )[:size]
    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            got = eng.search_rare_terms(cap, size=size)
        finally:
            eng.close()
        assert [(r["df"], r["term"]) for r in got] == want
    assert want  # non-trivial case


def test_rare_terms_candidate_path_matches_exact(
    ray_session, tiny_index
):
    """The incremental-index fallback (live local counts + global df
    round) must select the same terms as the serving-df fast path."""
    from ck_ray.query import LocalIndex

    li = LocalIndex(tiny_index)
    cap = 3
    exact = li.query_rare_terms(cap, "content", True)
    cand = li.query_rare_terms(cap, "content", False)
    # one process holding ALL buckets: local live df == global df
    assert cand == exact


def test_significant_text_vs_bruteforce(
    ray_session, tiny_index, tiny_corpus
):
    import numpy as np

    toks = _corpus_tokens(tiny_corpus)
    qa, qb = "merge", "stream"
    match = {
        p
        for p, tl in toks.items()
        if {qa, qb} <= {t for t, _ in tl}
    }
    assert match  # non-trivial
    fg: dict[str, int] = {}
    bg: dict[str, int] = {}
    for p, tl in toks.items():
        for t in {t for t, _ in tl}:
            bg[t] = bg.get(t, 0) + 1
            if p in match:
                fg[t] = fg.get(t, 0) + 1
    ft, bt = len(match), len(toks)
    min_fg = 2
    want = []
    for t in sorted(fg):
        if fg[t] < min_fg or t in (qa, qb):
            continue
        fgp, bgp = fg[t] / ft, bg[t] / bt
        score = (fgp - bgp) * (fgp / bgp)
        if score > 0:
            want.append((t, fg[t], bg[t], score))
    want.sort(key=lambda r: (-r[3], r[0]))
    want = want[:10]
    assert want
    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            res = eng.search_significant_text(
                f"{qa} AND {qb}", size=10, min_doc_count=min_fg
            )
        finally:
            eng.close()
        got = [
            (b["term"], b["fg_count"], b["bg_count"], b["score"])
            for b in res["buckets"]
        ]
        assert [g[:3] for g in got] == [w[:3] for w in want]
        assert np.allclose(
            [g[3] for g in got], [w[3] for w in want], rtol=0, atol=1e-12
        )
        assert res["fg_total"] == ft and res["bg_total"] == bt


def test_phrase_suggest_vs_bruteforce(
    ray_session, tiny_index, tiny_corpus
):
    """End-to-end differential: the engine's candidate generation
    (lev<=1, cf-ranked top-5) and interpolated-bigram-LM chain scoring
    must equal the same model built from raw corpus tokens."""
    import itertools

    import numpy as np

    from ck_ray.strdist import edit_distance

    toks = _corpus_tokens(tiny_corpus)
    cf: dict[str, int] = {}
    big: dict[tuple[str, str], int] = {}
    T = 0
    for tl in toks.values():
        T += len(tl)
        for t, _ in tl:
            cf[t] = cf.get(t, 0) + 1
        for (a, pa_), (b, pb_) in zip(tl, tl[1:]):
            if pb_ == pa_ + 1:
                big[(a, b)] = big.get((a, b), 0) + 1
    # most frequent adjacent bigram -> typo its halves
    (wa, wb), _ = max(big.items(), key=lambda kv: (kv[1], kv[0]))
    typo = f"{wa[:-1]}q {wb[:-1]}q"
    tok_in = typo.split()

    def cands(q):
        pool = [t for t in cf if edit_distance(q, t) <= 1]
        pool.sort(key=lambda t: (-cf[t], t))
        return pool[:5]

    c1, c2 = cands(tok_in[0]), cands(tok_in[1])
    assert wa in c1 and wb in c2
    want = []
    for a, b in itertools.product(c1, c2):
        s = float(np.log(cf[a] / T)) + float(
            np.log((0.7 * big.get((a, b), 0)) / cf[a] + (0.3 * cf[b]) / T)
        )
        want.append((a + " " + b, s))
    want.sort(key=lambda r: (-r[1], r[0]))
    want = want[:5]
    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            got = eng.search_phrase_suggest(
                typo, size=5, max_edits=1, num_candidates=5
            )
        finally:
            eng.close()
        assert [r["phrase"] for r in got] == [w[0] for w in want]
        assert np.allclose(
            [r["score"] for r in got], [w[1] for w in want],
            rtol=0, atol=1e-12,
        )
    # the corrected bigram must be the top suggestion
    assert got[0]["phrase"] == f"{wa} {wb}"


def test_best_passage_vs_bruteforce(
    ray_session, tiny_index, tiny_corpus
):
    import numpy as np

    from ck_ray.scoring import round_half_away

    toks = _corpus_tokens(tiny_corpus)
    qa, qb = "merge", "stream"
    n_docs = len(toks)
    df = {
        q: sum(1 for tl in toks.values() if q in {t for t, _ in tl})
        for q in (qa, qb)
    }
    wt = {
        q: float(np.log1p((n_docs - d + 0.5) / (d + 0.5)))
        for q, d in df.items()
    }
    window = 6
    want = {}
    for p, tl in toks.items():
        occ = sorted(
            (pos, wt[t]) for t, pos in tl if t in (qa, qb)
        )
        terms_here = {t for t, _ in tl}
        if not ({qa, qb} <= terms_here):
            continue
        best = None
        for i, (start, _) in enumerate(occ):
            s = sum(w for q_, w in occ if start <= q_ < start + window)
            s = float(round_half_away(np.float64(s), 4))
            if best is None or s > best[1]:
                best = (start, s)
        want[p] = best
    assert want
    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            res = eng.search_best_passages(
                f"{qa} AND {qb}", window=window
            )
        finally:
            eng.close()
        got = {
            p: (int(st), float(sc))
            for p, st, sc in zip(
                res["paths"], res["starts"], res["scores"]
            )
        }
        assert got == want


def test_term_vectors_realtime(ray_session, tmp_path_factory):
    """ES termvectors (realtime): tf from re-analyzing the stored
    source, df live from the index dictionary — differential against a
    pure-Python count over the same parquet."""
    import os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ck_ray.pipelines import docsearch
    from ck_ray.tokenizer import tokenize_text

    d = str(tmp_path_factory.mktemp("tvsf"))
    texts = [
        "merge the window merge",
        "window stream",
        "stream parse stream stream",
        "merge only here",
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["py"] * 4, pa.string()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    got = docsearch.bm25_term_vectors(d, doc_ids=(0, 2))
    toks = [tokenize_text(t) for t in texts]
    df_all = {}
    for tl in toks:
        for t in set(tl):
            df_all[t] = df_all.get(t, 0) + 1
    want = []
    for i in (0, 2):
        for t in sorted(set(toks[i])):
            want.append((i, t, toks[i].count(t), df_all[t]))
    assert list(map(tuple, got.to_records(index=False))) == want


def test_new_fulltext_paths_survive_shard_kill(ray_session, tiny_index):
    """rare_terms / significant_text / phrase suggest / best passage
    recover transparently from a killed shard — same restart contract
    as every other serving path."""
    import numpy as np

    eng = BM25Engine(tiny_index, num_shards=2)

    def snap():
        bp = eng.search_best_passages("merge AND stream", window=6)
        return (
            eng.search_rare_terms(3, size=10),
            eng.search_significant_text(
                "merge AND stream", size=5, min_doc_count=2
            ),
            eng.search_phrase_suggest("mergw streag", size=3),
            (
                list(bp["paths"]),
                bp["starts"].tolist(),
                bp["scores"].tolist(),
            ),
        )

    try:
        before = snap()
        ray.kill(eng.shards[0], no_restart=False)
        after = snap()
        assert before == after
    finally:
        eng.close()


def test_matrix_stats_vs_bruteforce(ray_session, tiny_index, tiny_corpus):
    import numpy as np

    toks = _corpus_tokens(tiny_corpus)
    nb = {
        p: len(c.encode())
        for p, c in zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["content"].to_pylist(),
        )
    }
    qa, qb = "merge", "window"
    match = [
        p
        for p, tl in toks.items()
        if {qa, qb} & {t for t, _ in tl}
    ]
    xs = [nb[p] for p in match]
    ys = [len(toks[p]) for p in match]
    n = len(match)
    assert n >= 3
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    syy = sum(y * y for y in ys)
    vx = (float(sxx) - float(sx * sx) / n) / (n - 1)
    cxy = (float(sxy) - float(sx * sy) / n) / (n - 1)
    vy = (float(syy) - float(sy * sy) / n) / (n - 1)
    want = [
        ("n_bytes", "n_bytes", vx, vx / float(np.sqrt(vx * vx))),
        ("n_bytes", "dl_content", cxy, cxy / float(np.sqrt(vx * vy))),
        ("dl_content", "dl_content", vy, vy / float(np.sqrt(vy * vy))),
    ]
    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            res = eng.search_matrix_stats(f"{qa} OR {qb}")
        finally:
            eng.close()
        assert res["count"] == n
        got = [
            (c["field_a"], c["field_b"], c["covariance"],
             c["correlation"])
            for c in res["cells"]
        ]
        assert [g[:2] for g in got] == [w[:2] for w in want]
        assert np.allclose(
            [g[2] for g in got], [w[2] for w in want],
            rtol=1e-12, atol=0,
        )
        assert np.allclose(
            [g[3] for g in got], [w[3] for w in want],
            rtol=1e-12, atol=0,
        )


def test_significant_text_sampler(ray_session, tiny_index, tiny_corpus):
    """sample_size >= #matches must reproduce the exact collector
    (the sample IS the match set); a small sample bounds fg_total; and
    the O(sample) fast path (re-analysis fg + serving-df bg via the
    ``source`` seam) must bit-match the posting-pass sampled collector
    at every sample size."""
    text_of = dict(
        zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["content"].to_pylist(),
        )
    )

    def src(paths):
        return {p: text_of[p] for p in paths}

    eng = BM25Engine(tiny_index, num_shards=2, auto_reload=False)
    try:
        q = "merge AND stream"
        full = eng.search_significant_text(q, size=8, min_doc_count=2)
        same = eng.search_significant_text(
            q, size=8, min_doc_count=2,
            sample_size=full["fg_total"] + 1000,
        )
        assert same == full
        fast_same = eng.search_significant_text(
            q, size=8, min_doc_count=2,
            sample_size=full["fg_total"] + 1000, source=src,
        )
        assert fast_same == full
        small = eng.search_significant_text(
            q, size=8, min_doc_count=2, sample_size=5
        )
        assert small["fg_total"] == 5
        assert all(b["fg_count"] <= 5 for b in small["buckets"])
        fast_small = eng.search_significant_text(
            q, size=8, min_doc_count=2, sample_size=5, source=src
        )
        assert fast_small == small
        # min_doc_count=1 widens the bucket set — the paths must still
        # agree when near-every sampled term qualifies
        for n in (3, 11):
            a = eng.search_significant_text(
                q, size=20, min_doc_count=1, sample_size=n
            )
            b = eng.search_significant_text(
                q, size=20, min_doc_count=1, sample_size=n, source=src
            )
            assert a == b
    finally:
        eng.close()


def test_passage_and_bigram_fuzz_vs_bruteforce(
    ray_session, tmp_path_factory
):
    """Randomized differential fuzz of the two position-heavy shard
    primitives: best-passage window scoring and adjacent-bigram counts,
    against brute force over a random small-vocab corpus (seeded)."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ck_ray.build import IndexConfig, build_index
    from ck_ray.scoring import round_half_away
    from ck_ray.tokenizer import tokenize_text_with_positions

    rng = np.random.default_rng(20260820)
    vocab = [f"w{i}" for i in range(12)]
    n_docs = 40
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(3, 60))))
        for _ in range(n_docs)
    ]
    corpus = pa.table(
        {
            "repo": pa.array(["r"] * n_docs),
            "path": pa.array([f"d{i}" for i in range(n_docs)]),
            "commit": pa.array(["0"] * n_docs),
            "lang": pa.array(["x"] * n_docs),
            "content": pa.array(texts),
        }
    )
    d = str(tmp_path_factory.mktemp("fuzzidx"))
    build_index(rd.from_arrow(corpus), d, IndexConfig(num_parts=2))
    toks = {
        f"d{i}": tokenize_text_with_positions(t)
        for i, t in enumerate(texts)
    }
    eng = BM25Engine(d, num_shards=3)
    try:
        # --- bigram counts: every ordered vocab pair, via the phrase
        # suggester's shard primitive (fan the pairs at the shards the
        # way the engine does)
        pairs = list(itertools.product(vocab[:6], vocab[:6]))
        parts = ray.get(
            [
                s.local_bigram_counts.remote(pairs, "content")
                for s in eng.shards
            ]
        )
        got = np.sum(np.asarray(parts, dtype=np.int64), axis=0)
        want = []
        for a, b in pairs:
            c = 0
            for tl in toks.values():
                for (t1, p1), (t2, p2) in zip(tl, tl[1:]):
                    c += t1 == a and t2 == b and p2 == p1 + 1
            want.append(c)
        assert got.tolist() == want
        assert sum(want) > 0
        # --- best passages: random 2-term AND queries, random windows
        n_corpus = len(toks)
        for _ in range(12):
            qa, qb = rng.choice(vocab, size=2, replace=False)
            window = int(rng.integers(2, 12))
            df = {
                q: sum(
                    1 for tl in toks.values()
                    if q in {t for t, _ in tl}
                )
                for q in (qa, qb)
            }
            wt = {
                q: float(
                    np.log1p((n_corpus - f + 0.5) / (f + 0.5))
                )
                for q, f in df.items()
            }
            want_bp = {}
            for p, tl in toks.items():
                if not ({qa, qb} <= {t for t, _ in tl}):
                    continue
                occ = sorted(
                    (pos, wt[t]) for t, pos in tl if t in (qa, qb)
                )
                best = None
                for start, _ in occ:
                    sc = sum(
                        w for q_, w in occ
                        if start <= q_ < start + window
                    )
                    sc = float(round_half_away(np.float64(sc), 4))
                    if best is None or sc > best[1]:
                        best = (start, sc)
                want_bp[p] = best
            res = eng.search_best_passages(
                f"{qa} AND {qb}", window=window
            )
            got_bp = {
                p: (int(st), float(sc))
                for p, st, sc in zip(
                    res["paths"], res["starts"], res["scores"]
                )
            }
            assert got_bp == want_bp, (qa, qb, window)
    finally:
        eng.close()


def test_best_passage_highlights_prefix_expansions(
    ray_session, tiny_index, tiny_corpus
):
    """A dictionary-expanded leaf (prefix query) highlights its
    expansion terms' occurrences, not nothing."""
    eng = BM25Engine(tiny_index, num_shards=2, auto_reload=False)
    try:
        res = eng.search_best_passages("mer*", window=6)
    finally:
        eng.close()
    assert len(res["doc_ids"]) > 0
    assert (res["scores"] > 0).all()


def test_distance_feature_vs_bruteforce(
    ray_session, tiny_index, tiny_corpus
):
    """bm25 + boost*pivot/(pivot+|n_bytes-origin|): the additive boost
    must equal the hand-computed feature at every returned doc, and a
    doc exactly at origin gets the full boost."""
    import numpy as np

    eng = BM25Engine(tiny_index, num_shards=2, dtype=np.float64,
                     auto_reload=False)
    nb = {
        p: len(c.encode())
        for p, c in zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["content"].to_pylist(),
        )
    }
    try:
        origin, pivot, boost = 500, 64, 3.0
        plain = eng.search_raw("merge window", top_k=10**6)
        res = eng.search_distance_feature(
            "merge window", "n_bytes", origin=origin, pivot=pivot,
            boost=boost, top_k=10**6,
        )
        base = {int(d): float(s) for d, s in zip(*plain)}
        for d, sc, p in zip(res["doc_ids"], res["scores"], res["paths"]):
            feat = (boost * np.float64(pivot)) / (
                np.float64(pivot) + abs(np.float64(nb[p]) - origin)
            )
            assert sc == base[int(d)] + feat
        # ranking is by the boosted score
        s = res["scores"]
        assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))
    finally:
        eng.close()


def test_pinned_query_semantics(ray_session, tiny_index):
    """ES pinned: found pins first in the given order (matching or
    not), organic follows with pins excluded, unknown ids drop, and
    the total respects top_k."""
    import numpy as np

    eng = BM25Engine(tiny_index, num_shards=2, auto_reload=False)
    try:
        organic = eng.search("merge window", top_k=10)
        some_path = organic["path"].iloc[3]
        all_matches = eng.search("merge window", top_k=10**6)
        alldocs = eng.search("*", top_k=10**6)
        pool = [
            p for p in alldocs["path"]
            if p not in set(all_matches["path"])
        ]
        promo = pool[0]  # exists, matches the query NOWHERE
        pins = [promo, "no/such/path.py", some_path]
        res = eng.search_pinned("merge window", pins, top_k=8)
        assert list(res["paths"][:2]) == [promo, some_path]
        assert list(res["pinned"][:2]) == [True, True]
        assert np.isnan(res["scores"][0])  # pure promotion: no score
        assert not np.isnan(res["scores"][1])  # pinned AND matching
        # a MATCHING pin ranked beyond the page still gets its real
        # organic score (the deep-probe path)
        deep_path = all_matches["path"].iloc[-1]
        res2 = eng.search_pinned("merge window", [deep_path], top_k=3)
        assert res2["paths"][0] == deep_path and res2["pinned"][0]
        want = float(
            all_matches.loc[
                all_matches["path"] == deep_path, "score"
            ].iloc[0]
        )
        assert res2["scores"][0] == want
        assert len(res["paths"]) == 8
        assert not res["pinned"][2:].any()
        assert promo not in set(res["paths"][2:])
        assert some_path not in set(res["paths"][2:])
    finally:
        eng.close()


def test_highlight_fragments_greedy_vs_bruteforce(
    ray_session, tmp_path_factory
):
    """Multi-fragment greedy selection (non-overlap |s_i - s_j| >=
    window, best-first on rounded score / start) vs per-doc brute
    force over a random corpus — up to 3 fragments, random windows."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ck_ray.build import IndexConfig, build_index
    from ck_ray.scoring import round_half_away
    from ck_ray.tokenizer import tokenize_text_with_positions

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(10)]
    n_docs = 30
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(10, 80))))
        for _ in range(n_docs)
    ]
    corpus = pa.table(
        {
            "repo": pa.array(["r"] * n_docs),
            "path": pa.array([f"d{i}" for i in range(n_docs)]),
            "commit": pa.array(["0"] * n_docs),
            "lang": pa.array(["x"] * n_docs),
            "content": pa.array(texts),
        }
    )
    d = str(tmp_path_factory.mktemp("fragidx"))
    build_index(rd.from_arrow(corpus), d, IndexConfig(num_parts=2))
    toks = {
        f"d{i}": tokenize_text_with_positions(t)
        for i, t in enumerate(texts)
    }
    eng = BM25Engine(d, num_shards=2)
    try:
        for trial in range(6):
            qa, qb = rng.choice(vocab, size=2, replace=False)
            window = int(rng.integers(2, 9))
            nf = int(rng.integers(2, 4))
            df = {
                q: sum(
                    1 for tl in toks.values()
                    if q in {t for t, _ in tl}
                )
                for q in (qa, qb)
            }
            wt = {
                q: float(np.log1p((n_docs - f_ + 0.5) / (f_ + 0.5)))
                for q, f_ in df.items()
            }
            want = {}
            for pth, tl in toks.items():
                if not ({qa, qb} <= {t for t, _ in tl}):
                    continue
                occ = sorted(
                    (pos, wt[t]) for t, pos in tl if t in (qa, qb)
                )
                wins = []
                for start, _ in occ:
                    sc = sum(
                        w for q_, w in occ
                        if start <= q_ < start + window
                    )
                    wins.append(
                        (start,
                         float(round_half_away(np.float64(sc), 4)))
                    )
                chosen = []
                for _ in range(nf):
                    cands = [
                        (st, sc) for st, sc in wins
                        if all(
                            abs(st - cs) >= window for cs, _ in chosen
                        )
                    ]
                    if not cands:
                        break
                    cands.sort(key=lambda r: (-r[1], r[0]))
                    chosen.append(cands[0])
                want[pth] = chosen
            res = eng.search_best_passages(
                f"{qa} AND {qb}", window=window, num_fragments=nf
            )
            got: dict = {}
            for pth, st, sc, fr in zip(
                res["paths"], res["starts"], res["scores"],
                res["frags"],
            ):
                got.setdefault(pth, []).append(
                    (int(fr), int(st), float(sc))
                )
            for pth in got:
                got[pth].sort()
            want_shaped = {
                pth: [
                    (i + 1, st, sc)
                    for i, (st, sc) in enumerate(ch)
                ]
                for pth, ch in want.items()
                if ch
            }
            assert got == want_shaped, (qa, qb, window, nf, trial)
    finally:
        eng.close()


def test_span_first_vs_bruteforce(ray_session, tiny_index, tiny_corpus):
    toks = _corpus_tokens(tiny_corpus)
    term, end = "merge", 10
    want = sorted(
        p for p, tl in toks.items()
        if any(t == term and pos < end for t, pos in tl)
    )
    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            res = eng.search_span_first(term, end)
        finally:
            eng.close()
        assert sorted(res["paths"]) == want
    assert want and len(want) < sum(
        1 for tl in toks.values() if term in {t for t, _ in tl}
    )  # the position filter actually excludes someone


def test_sweep_ops_do_not_pin_view_cache(ray_session, tiny_index):
    """Full-dictionary sweeps (significant_text / rare_terms fallback)
    must evict what they load: a long-lived serving actor's view cache
    stays sized to query working sets, never O(index)."""
    from ck_ray.query import LocalIndex

    li = LocalIndex(tiny_index)
    before = len(li._cache)
    li.query_significant_text("merge AND stream")
    after_sig = len(li._cache)
    li.query_rare_terms(3, "content", False)
    after_rare = len(li._cache)
    # only the query's own terms may remain cached
    assert after_sig - before <= 4
    assert after_rare - before <= 4
    assert len(li._field_dictionary("content")) > 50  # sweep was real


def test_weighted_avg_and_t_test_vs_bruteforce(
    ray_session, tiny_index, tiny_corpus
):
    import numpy as np

    toks = _corpus_tokens(tiny_corpus)
    nb = {
        p: len(c.encode())
        for p, c in zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["content"].to_pylist(),
        )
    }
    dl = {p: len(tl) for p, tl in toks.items()}
    members = lambda q: [
        p for p, tl in toks.items() if q in {t for t, _ in tl}
    ]
    eng = BM25Engine(tiny_index, num_shards=3, auto_reload=False)
    try:
        # weighted_avg over 'merge OR stream'
        m = sorted(set(members("merge")) | set(members("stream")))
        sw = sum(dl[p] for p in m)
        svw = sum(nb[p] * dl[p] for p in m)
        res = eng.search_weighted_avg(
            "merge OR stream", "n_bytes", "dl_content"
        )
        assert res["count"] == len(m)
        assert res["weight_total"] == sw
        assert res["weighted_avg"] == float(svw) / float(sw)
        # Welch t between 'merge' and 'stream' doc lengths
        res = eng.search_t_test("merge", "stream", "dl_content")
        stats = {}
        for tag, q in (("a", "merge"), ("b", "stream")):
            xs = [dl[p] for p in members(q)]
            n = len(xs)
            sx, sxx = sum(xs), sum(x * x for x in xs)
            stats[tag] = (
                n, float(sx) / n,
                (float(sxx) - float(sx * sx) / n) / (n - 1),
            )
        (na, ma, va), (nbb, mb, vb) = stats["a"], stats["b"]
        t = (ma - mb) / float(np.sqrt(va / na + vb / nbb))
        assert (res["n_a"], res["n_b"]) == (na, nbb)
        assert res["mean_a"] == ma and res["mean_b"] == mb
        assert abs(res["t"] - t) < 1e-12
    finally:
        eng.close()


def test_mad_vs_bruteforce(ray_session, tiny_index, tiny_corpus):
    """Exact MAD on the pinned lower-median rule vs a hand count,
    including an even-count population (where interpolating medians
    would diverge) and shard parity."""
    toks = _corpus_tokens(tiny_corpus)
    dl = {p: len(tl) for p, tl in toks.items()}
    m = sorted(
        p for p, tl in toks.items()
        if {"merge", "stream"} & {t for t, _ in tl}
    )
    xs = sorted(dl[p] for p in m)
    n = len(xs)

    def lower_median(sorted_vals):
        return sorted_vals[(len(sorted_vals) + 1) // 2 - 1]

    med = lower_median(xs)
    mad = lower_median(sorted(abs(x - med) for x in xs))
    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            res = eng.search_mad("merge OR stream")
        finally:
            eng.close()
        assert res == {"count": n, "median": med, "mad": mad}


def test_percentile_ranks_vs_bruteforce(
    ray_session, tiny_index, tiny_corpus
):
    toks = _corpus_tokens(tiny_corpus)
    dl = {p: len(tl) for p, tl in toks.items()}
    m = [
        p for p, tl in toks.items()
        if {"merge", "stream"} & {t for t, _ in tl}
    ]
    xs = [dl[p] for p in m]
    vals = (min(xs), sorted(xs)[len(xs) // 2], max(xs), max(xs) + 10)
    eng = BM25Engine(tiny_index, num_shards=3, auto_reload=False)
    try:
        res = eng.search_percentile_ranks(
            "merge OR stream", "dl_content", vals
        )
    finally:
        eng.close()
    assert res["count"] == len(xs)
    for v in vals:
        le = sum(1 for x in xs if x <= v)
        assert res["ranks"][int(v)] == (100.0 * le) / len(xs)
    assert res["ranks"][int(max(xs))] == 100.0


def test_t_test_side_without_matches_is_nan(ray_session, tiny_index):
    """A side with no matches has no mean and no variance: ``t`` is NaN
    (as for a zero denominator), never a ZeroDivisionError."""
    import math

    eng = BM25Engine(tiny_index, num_shards=2, auto_reload=False)
    try:
        for a, b in (
            ("nosuchtermxyz", "merge"),
            ("merge", "nosuchtermxyz"),
            ("nosuchtermxyz", "nosuchtermabc"),
        ):
            res = eng.search_t_test(a, b)
            assert list(res) == ["n_a", "mean_a", "n_b", "mean_b", "t"]
            assert math.isnan(res["t"]), (a, b)
        res = eng.search_t_test("nosuchtermxyz", "merge")
        assert res["n_a"] == 0 and math.isnan(res["mean_a"])
        assert res["n_b"] > 1 and not math.isnan(res["mean_b"])
    finally:
        eng.close()


def test_latest_agg_paths_survive_shard_kill(ray_session, tiny_index):
    """weighted_avg / t_test / mad / percentile_ranks / span_first
    recover transparently from a killed shard — same restart contract
    as every serving path."""
    eng = BM25Engine(tiny_index, num_shards=2)

    def snap():
        return (
            eng.search_weighted_avg("merge"),
            eng.search_t_test("merge", "stream"),
            eng.search_mad("merge OR stream"),
            eng.search_percentile_ranks(
                "merge", "dl_content", (300, 400)
            ),
            (
                list(eng.search_span_first("merge", 10)["paths"]),
            ),
        )

    try:
        before = snap()
        ray.kill(eng.shards[0], no_restart=False)
        after = snap()
        assert before == after
    finally:
        eng.close()


def test_boxplot_vs_bruteforce(ray_session, tiny_index, tiny_corpus):
    """Exact quartiles under the shared ceil-rank rule + int min/max,
    against a brute force over the analyzer token counts."""
    import math

    toks = _corpus_tokens(tiny_corpus)
    qa, qb = "merge", "window"
    vals = sorted(
        len(tl)
        for tl in (
            toks[p]
            for p, tl2 in toks.items()
            if {qa, qb} & {t for t, _ in toks[p]}
        )
    )
    n = len(vals)
    assert n >= 3

    def q_at(q):
        return vals[max(1, math.ceil(q * n)) - 1]

    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            res = eng.search_boxplot(f"{qa} OR {qb}", "dl_content")
        finally:
            eng.close()
        assert res == {
            "count": n,
            "min": vals[0],
            "q1": q_at(0.25),
            "q2": q_at(0.5),
            "q3": q_at(0.75),
            "max": vals[-1],
            "iqr": q_at(0.75) - q_at(0.25),
        }


def test_top_metrics_vs_bruteforce(ray_session, tiny_index, tiny_corpus):
    """The metric values of the top-k docs by sort field match a brute
    force under the engine's exact (value, doc_id asc) total order; the
    metric gather returns exactly the sorted cut's ids."""
    toks = _corpus_tokens(tiny_corpus)
    nb = {
        p: len(c.encode())
        for p, c in zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["content"].to_pylist(),
        )
    }
    match = {
        p: len(tl)
        for p, tl in toks.items()
        if {"merge", "window"} & {t for t, _ in tl}
    }
    assert len(match) >= 5
    eng = BM25Engine(tiny_index, num_shards=2, auto_reload=False)
    try:
        rows = eng.search_top_metrics(
            "merge window", "dl_content", ("n_bytes",), k=5
        )
    finally:
        eng.close()
    assert len(rows) == 5
    want_vals = sorted(match.values(), reverse=True)[:5]
    assert [r["sort_value"] for r in rows] == want_vals
    for r in rows:
        assert match[r["path"]] == r["sort_value"]
        assert nb[r["path"]] == r["n_bytes"]


def test_string_stats_vs_bruteforce(
    ray_session, tiny_index, tiny_corpus
):
    """count / min / max / avg length and the character entropy over
    the match set's lang values, against a pure-Python brute force in
    the engine's documented operation order."""
    import math

    toks = _corpus_tokens(tiny_corpus)
    lang = dict(
        zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["lang"].to_pylist(),
        )
    )
    match = [
        lang[p]
        for p, tl in toks.items()
        if {"merge", "window"} & {t for t, _ in tl}
    ]
    assert match
    total_len = sum(len(v) for v in match)
    chars: dict[str, int] = {}
    for v in match:
        for ch in v:
            chars[ch] = chars.get(ch, 0) + 1
    ent = 0.0
    for ch in sorted(chars):
        pr = chars[ch] / total_len
        ent -= pr * math.log2(pr)
    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            res = eng.search_string_stats("merge window", "lang")
        finally:
            eng.close()
        assert res["count"] == len(match)
        assert res["min_length"] == min(len(v) for v in match)
        assert res["max_length"] == max(len(v) for v in match)
        assert res["avg_length"] == float(total_len) / len(match)
        assert res["entropy"] == ent


def test_span_not_vs_bruteforce(ray_session, tiny_index, tiny_corpus):
    """span_not membership vs a pure-Python brute force over the
    analyzer token streams, across several (pre, post) windows and
    shard counts — including the degenerate exclude-everywhere and
    exclude-absent cases."""
    toks = _corpus_tokens(tiny_corpus)

    def brute(inc, exc, pre, post):
        out = []
        for p, tl in toks.items():
            a = [i for t, i in tl if t == inc]
            b = {i for t, i in tl if t == exc}
            if any(
                not any(x - pre <= y <= x + post for y in b)
                for x in a
            ):
                out.append(p)
        return sorted(out)

    cases = [
        ("merge", "window", 2, 2),
        ("merge", "window", 0, 0),
        ("merge", "window", 0, 5),
        ("merge", "zzznosuchterm", 3, 3),  # exclude absent -> all docs
        ("stream", "merge", 1, 4),
    ]
    for shards in (1, 3):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False)
        try:
            for inc, exc, pre, post in cases:
                res = eng.search_span_not(inc, exc, pre, post)
                assert sorted(res["paths"]) == brute(
                    inc, exc, pre, post
                ), (inc, exc, pre, post, shards)
        finally:
            eng.close()


def test_diversified_sampler(ray_session, tiny_index, tiny_corpus):
    """diversified_sampler semantics: a huge per-value cap reproduces
    the plain sampler exactly; a binding cap yields a sample whose
    per-lang composition respects the cap (verified via a brute-force
    ranked walk over the engine's own ranked stream)."""
    text_of = dict(
        zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["content"].to_pylist(),
        )
    )
    lang_of = dict(
        zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["lang"].to_pylist(),
        )
    )

    def src(paths):
        return {p: text_of[p] for p in paths}

    eng = BM25Engine(tiny_index, num_shards=2, auto_reload=False,
                     dtype=__import__("numpy").float64)
    try:
        q = "merge window"
        plain = eng.search_significant_text(
            q, size=10, min_doc_count=2, sample_size=20, source=src
        )
        loose = eng.search_significant_text(
            q, size=10, min_doc_count=2, sample_size=20, source=src,
            diversify_field="lang", max_docs_per_value=10**9,
        )
        assert loose == plain
        # a binding cap: brute-force the expected sample from the
        # engine's own full ranked list, then compare bucket-for-bucket
        import numpy as np

        from ck_ray.scoring import round_half_away

        full = eng.search(q, top_k=100000, with_metadata=True)
        sc = round_half_away(
            full["score"].to_numpy(np.float64), 4
        )
        order = np.lexsort((full["doc_id"].to_numpy(), -sc))
        cap, k = 3, 12
        seen: dict = {}
        keep = []
        for i in order:
            lg = lang_of[full["path"].iloc[i]]
            if seen.get(lg, 0) < cap:
                seen[lg] = seen.get(lg, 0) + 1
                keep.append(full["path"].iloc[i])
            if len(keep) == k:
                break
        got = eng.search_significant_text(
            q, size=10, min_doc_count=1, sample_size=k, source=src,
            diversify_field="lang", max_docs_per_value=cap,
        )
        assert got["fg_total"] == len(keep)
        # per-term fg over the brute-force sample must match
        from ck_ray.tokenizer import tokenize_text

        fg: dict = {}
        for p in keep:
            for t in set(tokenize_text(text_of[p])):
                fg[t] = fg.get(t, 0) + 1
        for b in got["buckets"]:
            assert fg[b["term"]] == b["fg_count"]
    finally:
        eng.close()


def test_collapse_vs_bruteforce(ray_session, tiny_index, tiny_corpus):
    """Field collapsing: the top-k group winners match a brute-force
    walk of the engine's own ranked list keeping the first hit per
    lang; every winner is its lang's best-ranked doc."""
    import numpy as np

    from ck_ray.scoring import round_half_away

    lang_of = dict(
        zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["lang"].to_pylist(),
        )
    )
    eng = BM25Engine(tiny_index, num_shards=2, auto_reload=False,
                     dtype=np.float64)
    try:
        q = "merge window"
        full = eng.search(q, top_k=100000, with_metadata=True)
        sc = round_half_away(full["score"].to_numpy(np.float64), 4)
        order = np.lexsort((full["doc_id"].to_numpy(), -sc))
        seen: set = set()
        want = []
        for i in order:
            lg = lang_of[full["path"].iloc[i]]
            if lg not in seen:
                seen.add(lg)
                want.append((lg, full["path"].iloc[i], float(sc[i])))
            if len(want) == 4:
                break
        got = eng.search_collapse(q, "lang", k=4)
        assert [
            (r["lang"], r["path"], r["score"]) for r in got
        ] == want
        # each lang appears at most once across a bigger cut
        wide = eng.search_collapse(q, "lang", k=100)
        langs = [r["lang"] for r in wide]
        assert len(langs) == len(set(langs))
    finally:
        eng.close()


def test_collapse_and_diversified_shard_invariance(
    ray_session, tiny_index, tiny_corpus
):
    """The diversified walk's prefix-closure rule must make collapse
    and the diversified sampler independent of shard count — including
    when rounded-score ties straddle fetch boundaries."""
    import numpy as np

    text_of = dict(
        zip(
            tiny_corpus["path"].to_pylist(),
            tiny_corpus["content"].to_pylist(),
        )
    )

    def src(paths):
        return {p: text_of[p] for p in paths}

    results = []
    for shards in (1, 2, 4):
        eng = BM25Engine(tiny_index, num_shards=shards,
                         auto_reload=False, dtype=np.float64)
        try:
            col = eng.search_collapse("merge window", "lang", k=6)
            div = eng.search_significant_text(
                "merge window", size=10, min_doc_count=1,
                sample_size=15, source=src,
                diversify_field="lang", max_docs_per_value=4,
            )
        finally:
            eng.close()
        results.append((col, div))
    for col, div in results[1:]:
        assert col == results[0][0]
        assert div == results[0][1]
