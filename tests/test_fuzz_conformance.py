"""Randomized conformance: engine vs oracle on random corpora + queries.

Seeded (deterministic in CI) but structurally random: random vocab mixes,
random query shapes incl. phrases, unicode, absent terms, tiny top_k.
Catches edge interactions the curated suite misses.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ck_ray.build as ckb
from ck_ray.oracle import BM25Oracle
from ck_ray.incremental import incremental_update
from ck_ray.query import BM25Engine, LocalIndex

VOCAB = (
    "merge query window batch stream delta posting café naïve 数据 x2 "
    "foo_bar getUser the a of zz1 zz2 qq"
).split()


def _random_corpus(rng: np.random.RandomState, n_docs: int) -> pa.Table:
    rows = []
    for i in range(n_docs):
        n_tok = int(rng.randint(0, 60))  # includes empty docs
        words = [VOCAB[j] for j in rng.randint(0, len(VOCAB), n_tok)]
        rows.append(
            {
                "repo": f"r{int(rng.randint(2))}",
                "path": f"src/{'sub/' if rng.rand() < 0.3 else ''}f{i:04d}.py",
                "commit": "c" * 40,
                "lang": "python",
                "content": " ".join(words),
            }
        )
    rows.sort(key=lambda r: (r["repo"], r["path"]))
    return pa.Table.from_pylist(rows)


def _random_queries(rng: np.random.RandomState, k: int) -> list[str]:
    out = []
    for _ in range(k):
        shape = rng.randint(16)
        if shape == 0:
            out.append(VOCAB[rng.randint(len(VOCAB))])
        elif shape == 1:
            out.append(" ".join(VOCAB[j] for j in rng.randint(0, len(VOCAB), 3)))
        elif shape == 2:
            a, b = rng.randint(0, len(VOCAB), 2)
            out.append(f'"{VOCAB[a]} {VOCAB[b]}"')  # random phrase
        elif shape == 3:
            out.append("foo_bar")  # multi-token word -> phrase
        elif shape == 4:
            out.append("absent_zzz path:sub")
        elif shape == 5:
            a, b = rng.randint(0, len(VOCAB), 2)
            out.append(f"{VOCAB[a]} AND {VOCAB[b]}")  # conjunction
        elif shape == 6:
            a, b, c = rng.randint(0, len(VOCAB), 3)
            out.append(f"{VOCAB[a]} -{VOCAB[b]} OR {VOCAB[c]}")  # mixed bool
        elif shape == 7:
            a, b, c = rng.randint(0, len(VOCAB), 3)
            out.append(f"({VOCAB[a]} OR {VOCAB[b]}) AND {VOCAB[c]}")  # parens
        elif shape == 8:
            # sloppy phrase (engine greedy chain vs oracle brute force)
            n = 2 + int(rng.randint(2))
            ws = " ".join(VOCAB[j] for j in rng.randint(0, len(VOCAB), n))
            out.append(f'"{ws}"~{int(rng.randint(0, 5))}')
        elif shape == 9:
            # prefix query, alone or inside a boolean (shard-local
            # dictionary expansion vs oracle global expansion)
            w = VOCAB[int(rng.randint(len(VOCAB)))]
            cut = 1 + int(rng.randint(max(1, len(w) - 1)))
            p = f"{w[:cut]}*"
            if rng.rand() < 0.5:
                p = f"{p} AND {VOCAB[int(rng.randint(len(VOCAB)))]}"
            out.append(p)
        elif shape == 10:
            # phrase-prefix "a b"* (optionally sloppy)
            a = VOCAB[int(rng.randint(len(VOCAB)))]
            w = VOCAB[int(rng.randint(len(VOCAB)))]
            cut = 1 + int(rng.randint(max(1, len(w) - 1)))
            suf = f"~{int(rng.randint(1, 4))}" if rng.rand() < 0.3 else ""
            out.append(f'"{a} {w[:cut]}"*{suf}')
        elif shape == 11:
            # const-score RANGE query (random bracket styles, open sides,
            # possibly empty/inverted intervals); alone or in a boolean
            a, b = sorted(
                VOCAB[j] for j in rng.randint(0, len(VOCAB), 2)
            )
            if rng.rand() < 0.2:
                a, b = b, a  # inverted -> empty interval
            lo = "*" if rng.rand() < 0.15 else a
            hi = "*" if rng.rand() < 0.15 else b
            o = "[" if rng.rand() < 0.5 else "{"
            c = "]" if rng.rand() < 0.5 else "}"
            q = f"{o}{lo} TO {hi}{c}"
            if rng.rand() < 0.4:
                q = f"{q} AND {VOCAB[int(rng.randint(len(VOCAB)))]}"
            out.append(q)
        elif shape == 12:
            # const-score TERM SET (IN [...]), some members absent
            n = 1 + int(rng.randint(3))
            ws = [VOCAB[j] for j in rng.randint(0, len(VOCAB), n)]
            if rng.rand() < 0.3:
                ws.append("absent_zzz")
            out.append(f"IN [{' '.join(ws)}]")
        elif shape == 13:
            # match-all, alone or excluding a term
            if rng.rand() < 0.5:
                out.append("*")
            else:
                out.append(f"* -{VOCAB[int(rng.randint(len(VOCAB)))]}")
        elif shape == 14:
            # WILDCARD term (Lucene WildcardQuery -> regex rewrite,
            # const-score): punch `?`/`*` holes into a vocab word at
            # random positions; alone or inside a boolean
            w = VOCAB[int(rng.randint(len(VOCAB)))]
            chars = list(w)
            for _ in range(1 + int(rng.randint(2))):
                i = int(rng.randint(len(chars)))
                chars[i] = "?" if rng.rand() < 0.6 else "*"
            q = "".join(chars)
            if q.strip("*?") == "":
                q = f"?{w[1:]}"  # keep at least one literal char
            if rng.rand() < 0.4:
                q = f"{q} AND {VOCAB[int(rng.randint(len(VOCAB)))]}"
            out.append(q)
        elif shape == 15:
            # REGEX term (anchored dictionary expansion, const-score):
            # prefix/suffix/infix shapes over a vocab word, char class,
            # or alternation of two words; alone or inside a boolean

            w = VOCAB[int(rng.randint(len(VOCAB)))]
            style = rng.randint(4)
            if style == 0:
                pat = f"{w[: max(1, len(w) // 2)]}.*"
            elif style == 1:
                pat = f".*{w[len(w) // 2:]}"
            elif style == 2:
                pat = f"{w}|{VOCAB[int(rng.randint(len(VOCAB)))]}"
            else:
                pat = "[a-z]q+[0-9]?" if rng.rand() < 0.5 else "zz[0-9]"
            q = f"/{pat}/"
            if rng.rand() < 0.4:
                q = f"{q} AND {VOCAB[int(rng.randint(len(VOCAB)))]}"
            out.append(q)
        else:
            # FUZZY term (const-score dictionary expansion): sometimes a
            # vocab term, sometimes a mutation of one (typo shape),
            # random distance incl. the bare-~ default; alone or boolean
            w = VOCAB[int(rng.randint(len(VOCAB)))]
            if rng.rand() < 0.5 and len(w) >= 3:
                i = int(rng.randint(len(w) - 1))
                w = w[:i] + w[i + 1] + w[i] + w[i + 2:]  # swap two chars
            suf = "~" if rng.rand() < 0.2 else f"~{int(rng.randint(0, 3))}"
            q = f"{w}{suf}"
            if rng.rand() < 0.4:
                q = f"{q} AND {VOCAB[int(rng.randint(len(VOCAB)))]}"
            elif rng.rand() < 0.3:
                q = f"-{q} {VOCAB[int(rng.randint(len(VOCAB)))]}"
            out.append(q)
    return out


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_random_corpus_rank_identity(ray_session, tmp_path, seed):
    import ray.data

    rng = np.random.RandomState(seed)
    corpus = _random_corpus(rng, int(rng.randint(30, 120)))
    d = str(tmp_path / f"idx{seed}")
    ckb.build_index(
        ray.data.from_arrow(corpus), d,
        ckb.IndexConfig(num_parts=int(rng.choice([2, 4, 8])), batch_size=16),
    )
    eng = BM25Engine(d, num_shards=2)
    oracle = BM25Oracle(corpus)
    try:
        for q in _random_queries(rng, 12):
            k = int(rng.choice([1, 3, 10, 100]))
            de, se = eng.search_raw(q, k, pruning=False)  # exhaustive TAAT
            do, so = oracle.search_raw(q, k)
            assert de.tolist() == do.tolist(), f"seed={seed} q={q!r} docs differ"
            assert np.array_equal(se, so), f"seed={seed} q={q!r} scores differ"
            # MaxScore-pruned path agrees with the exhaustive path too
            dp, sp = eng.search_raw(q, k, pruning=True)
            assert dp.tolist() == de.tolist() and np.array_equal(sp, se)
    finally:
        eng.close()


# ---------------------------------------------------------------- bool trees


def _random_bool_tree(rng: np.random.RandomState, depth: int) -> str:
    """Random boolean query TREE (the shapes above stop at depth 1):
    nested parens, AND/OR at every level, occur prefixes on leaves AND
    on whole groups (+/-/NOT), phrase and path: leaves mixed in, and
    tantivy ^boosts on leaves, phrases, and whole groups."""
    if depth == 0 or rng.rand() < 0.3:
        r = rng.randint(11)
        if r == 0:
            a, b = rng.randint(0, len(VOCAB), 2)
            return f'"{VOCAB[a]} {VOCAB[b]}"'
        if r == 1:
            return "path:sub"
        if r == 2:
            return "-" + VOCAB[rng.randint(len(VOCAB))]
        if r == 3:
            return "+" + VOCAB[rng.randint(len(VOCAB))]
        if r == 4:
            b = rng.choice(["2", "0.5", "3.25"])
            return f"{VOCAB[rng.randint(len(VOCAB))]}^{b}"
        if r == 5:
            a, b = rng.randint(0, len(VOCAB), 2)
            return f'"{VOCAB[a]} {VOCAB[b]}"^2'
        if r == 6:
            # const-score range leaf (sometimes boosted)
            a, b = sorted(VOCAB[j] for j in rng.randint(0, len(VOCAB), 2))
            suf = "^2" if rng.rand() < 0.3 else ""
            o = "[" if rng.rand() < 0.5 else "{"
            c = "]" if rng.rand() < 0.5 else "}"
            return f"{o}{a} TO {b}{c}{suf}"
        if r == 7:
            # const-score term-set leaf
            a, b = rng.randint(0, len(VOCAB), 2)
            return f"IN [{VOCAB[a]} {VOCAB[b]}]"
        if r == 8:
            return "*"  # match-all leaf (incl. inside NOT/+ groups)
        return VOCAB[rng.randint(len(VOCAB))]
    op = "AND" if rng.rand() < 0.5 else "OR"
    a = _random_bool_tree(rng, depth - 1)
    b = _random_bool_tree(rng, depth - 1)
    grp = f"({a} {op} {b})"
    z = rng.rand()
    if z < 0.15:
        return "+" + grp
    if z < 0.25:
        return "NOT " + grp
    if z < 0.35:
        return grp + "^2"
    return grp


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_random_bool_tree_rank_identity(ray_session, tmp_path, seed):
    import ray.data

    rng = np.random.RandomState(seed)
    corpus = _random_corpus(rng, int(rng.randint(40, 100)))
    d = str(tmp_path / f"bidx{seed}")
    ckb.build_index(
        ray.data.from_arrow(corpus), d,
        ckb.IndexConfig(num_parts=4, batch_size=16),
    )
    eng = BM25Engine(d, num_shards=3)
    oracle = BM25Oracle(corpus)
    try:
        for _ in range(20):
            q = _random_bool_tree(rng, int(rng.randint(1, 4)))
            k = int(rng.choice([1, 5, 50]))
            de, se = eng.search_raw(q, k, pruning=False)
            do, so = oracle.search_raw(q, k)
            assert de.tolist() == do.tolist(), f"seed={seed} q={q!r}"
            assert np.array_equal(se, so), f"seed={seed} q={q!r} scores"
            dp, sp = eng.search_raw(q, k, pruning=True)
            assert dp.tolist() == de.tolist() and np.array_equal(sp, se), (
                f"seed={seed} q={q!r} pruned path diverged"
            )
    finally:
        eng.close()


def test_prefix_cap_is_global_across_shards(ray_session, tmp_path):
    """MAX_PREFIX_EXPANSIONS is a GLOBAL limit (Lucene maxClauseCount
    counts the rewritten disjunction; the oracle expands against the
    corpus-global dictionary). A corpus whose prefix expansion is under
    the cap per shard but over it globally must raise on the engine
    exactly like it does on the oracle."""
    import ray
    import ray.data

    from ck_ray.query import MAX_PREFIX_EXPANSIONS

    n = MAX_PREFIX_EXPANSIONS + 76
    rows = [
        {
            "repo": "r0",
            "path": f"src/f{i:04d}.py",
            "commit": "c" * 40,
            "lang": "python",
            "content": f"pa{i:04d}",
        }
        for i in range(n)
    ]
    corpus = pa.Table.from_pylist(rows)
    d = str(tmp_path / "capidx")
    ckb.build_index(
        ray.data.from_arrow(corpus), d,
        ckb.IndexConfig(num_parts=4, batch_size=256),
    )
    eng = BM25Engine(d, num_shards=2)
    try:
        # each shard's LOCAL dictionary stays under the cap...
        per = ray.get(
            [s.expand_prefixes.remote([("content", "pa")])
             for s in eng.shards]
        )
        assert all(0 < len(p[0]) <= MAX_PREFIX_EXPANSIONS for p in per)
        # ...but the engine enforces the cap on the shard UNION, and the
        # first leaf over it names the error in kind order (prefix,
        # range, fuzzy, regex), then in leaf order
        msgs = {
            "pa*": f"prefix 'pa*' expands to {n} terms",
            "/pa.*/ OR pa*": f"prefix 'pa*' expands to {n} terms",
            "/pa0.*/ OR [pa0 TO pa2}": (
                f"range [pa0 TO pa2] expands to {n} terms"
            ),
            "pa0~2 OR /pa.*/": f"regex /pa.*/ expands to {n} terms",
        }
        for q, msg in msgs.items():
            with pytest.raises(ValueError) as e:
                eng.search_raw(q, 10)
            assert str(e.value) == f"{msg} (max {MAX_PREFIX_EXPANSIONS})", q
        assert len(eng.search_raw("merge OR pa1*", 10)[0]) == 10
        # a second epoch: the prefix cap is checked on the df round
        delta = tmp_path / "delta"
        delta.mkdir()
        pq.write_table(
            pa.Table.from_pylist(
                [{**rows[0], "path": "src/x.py", "content": "pa9999 pa1"}]
            ),
            str(delta / "part-0.parquet"),
        )
        incremental_update(
            str(delta), d, ckb.IndexConfig(num_parts=4, batch_size=256),
            additive=True,
        )
        for q, want in (("/pa.*/ OR pa*", "prefix 'pa*'"),
                        ("pa0~2 OR /pa.*/", "regex /pa.*/")):
            with pytest.raises(ValueError) as e:
                eng.search_raw(q, 10)
            assert str(e.value) == (
                f"{want} expands to {n + 2} terms "
                f"(max {MAX_PREFIX_EXPANSIONS})"
            ), q
    finally:
        eng.close()
    with pytest.raises(ValueError, match="expands to"):
        BM25Oracle(corpus).search_raw("pa*", 10)
    # standalone LocalIndex (local == global) still raises by itself
    with pytest.raises(ValueError, match=f"expands to {n + 2} terms"):
        LocalIndex(d).query_topk("pa*", 10)


# ------------------------------------------------- dis_max + search_after


@pytest.mark.parametrize("seed", [404, 505])
def test_random_dismax_and_cursor_identity(ray_session, tmp_path, seed):
    """dis_max with random clause sets and tie-breakers must equal the
    oracle combine (best + tie * (total - best), float64, clause-list
    accumulation order — every clause is itself a random query shape);
    search_after cursor walks at random page sizes must reconstruct the
    oracle's full ranking bitwise."""
    import ray.data

    rng = np.random.RandomState(seed)
    corpus = _random_corpus(rng, int(rng.randint(40, 100)))
    d = str(tmp_path / f"idxdm{seed}")
    ckb.build_index(
        ray.data.from_arrow(corpus), d,
        ckb.IndexConfig(num_parts=4, batch_size=16),
    )
    eng = BM25Engine(d, num_shards=2)
    oracle = BM25Oracle(corpus)
    BIG = 10**6
    try:
        for _ in range(8):
            n_cl = 2 + int(rng.randint(3))
            clauses = _random_queries(rng, n_cl)
            tie = float(rng.choice([0.0, 0.1, 0.3, 0.7, 1.0]))
            per = []
            for c in clauses:
                do, so = oracle.search_raw(c, BIG)
                per.append(
                    dict(
                        zip(
                            do.tolist(),
                            np.asarray(so, np.float64).tolist(),
                        )
                    )
                )
            union = sorted(set().union(*[p.keys() for p in per]))
            truth = {}
            for doc in union:
                ss = [p.get(doc, 0.0) for p in per]
                best = max(ss)
                total = 0.0
                for s in ss:  # clause-list order, like the engine
                    total += s
                truth[doc] = best + tie * (total - best)
            res = eng.search_dismax(clauses, tie=tie, top_k=BIG)
            got = dict(
                zip(res["doc_ids"].tolist(), res["scores"].tolist())
            )
            assert got == truth, (
                f"seed={seed} clauses={clauses!r} tie={tie}"
            )

            q = _random_queries(rng, 1)[0]
            do, so = oracle.search_raw(q, BIG)
            walked_d: list = []
            walked_s: list = []
            cursor = None
            ksz = int(rng.choice([1, 2, 5]))
            pages = 0
            while True:
                dd, ss = eng.search_after(q, after=cursor, top_k=ksz)
                if len(dd) == 0:
                    break
                walked_d.extend(dd.tolist())
                walked_s.extend(ss.tolist())
                cursor = (float(ss[-1]), int(dd[-1]))
                pages += 1
                assert pages <= len(do) + 2, "cursor failed to advance"
            assert walked_d == do.tolist(), f"seed={seed} q={q!r}"
            assert np.array_equal(
                np.asarray(walked_s, dtype=so.dtype), so
            ), f"seed={seed} q={q!r}"
    finally:
        eng.close()


@pytest.mark.parametrize("seed", [606])
def test_random_min_should_identity(ray_session, tmp_path, seed):
    """minimum_should_match at random m over random clause sets must
    equal the brute-force floor: count per-clause membership from the
    oracle's match lists, keep docs at >= m, score = left-to-right
    clause-order float64 sum."""
    import ray.data

    rng = np.random.RandomState(seed)
    corpus = _random_corpus(rng, int(rng.randint(40, 100)))
    d = str(tmp_path / f"idxms{seed}")
    ckb.build_index(
        ray.data.from_arrow(corpus), d,
        ckb.IndexConfig(num_parts=4, batch_size=16),
    )
    eng = BM25Engine(d, num_shards=2)
    oracle = BM25Oracle(corpus)
    BIG = 10**6
    try:
        for _ in range(6):
            n_cl = 2 + int(rng.randint(3))
            clauses = _random_queries(rng, n_cl)
            m = 1 + int(rng.randint(n_cl))
            per = []
            for c in clauses:
                do, so = oracle.search_raw(c, BIG)
                per.append(
                    dict(
                        zip(
                            do.tolist(),
                            np.asarray(so, np.float64).tolist(),
                        )
                    )
                )
            truth = {}
            for doc in sorted(set().union(*[p.keys() for p in per])):
                hits = [p[doc] for p in per if doc in p]
                if len(hits) < m:
                    continue
                s = 0.0
                for h in hits:  # clause-list order, like the engine
                    s += h
                truth[doc] = s
            res = eng.search_min_should(clauses, m, top_k=BIG)
            got = dict(
                zip(res["doc_ids"].tolist(), res["scores"].tolist())
            )
            assert got == truth, (
                f"seed={seed} clauses={clauses!r} m={m}"
            )
    finally:
        eng.close()
