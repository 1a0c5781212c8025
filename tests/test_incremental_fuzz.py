"""Fuzz the epoch chain: a seeded random sequence of add/modify/delete
updates (with a compaction interleaved at a random step) must stay
query-identical — docs AND scores — to a clean rebuild of the final
corpus state and to the pure-python oracle.

Single-step identity is covered by test_incremental.py; this drives the
MULTI-step interactions the reference exercises in practice (ck-index's
update loop): a doc modified twice, deleted then re-added with different
content, tombstones from epoch k applied against epoch j<k, compaction
mid-chain followed by further updates on the compacted base.
"""

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ck_ray.build as ckb
from ck_ray.compact import compact_index
from ck_ray.incremental import incremental_update
from ck_ray.oracle import BM25Oracle
from ck_ray.query import BM25Engine

VOCAB = [
    "merge", "window", "posting", "segment", "varint", "delta",
    "tokenize", "shard", "epoch", "tombstone", "lexical", "hybrid",
]


def _rows(corpus: pa.Table) -> list[dict]:
    return corpus.to_pylist()


def _table(rows: list[dict]) -> pa.Table:
    rows = sorted(rows, key=lambda r: (r["repo"], r["path"]))
    return pa.table(
        {
            k: pa.array([r[k] for r in rows])
            for k in ("repo", "path", "commit", "lang", "content")
        }
    )


def _mutate_step(rows: list[dict], rng: np.random.RandomState, step: int) -> list[dict]:
    """Random delete/modify/add; every class tagged with a per-step
    sentinel token so queries can prove which epoch a doc came from."""
    n = len(rows)
    n_del = rng.randint(1, max(2, n // 8))
    n_mod = rng.randint(1, max(2, n // 6))
    n_add = rng.randint(1, max(2, n // 8))
    idx = rng.permutation(n)
    dele = set(idx[:n_del].tolist())
    mod = set(idx[n_del:n_del + n_mod].tolist())
    out = []
    for i, r in enumerate(rows):
        if i in dele:
            continue
        if i in mod:
            extra = " ".join(
                rng.choice(VOCAB, size=rng.randint(2, 6)).tolist()
            )
            r = dict(
                r,
                content=r["content"]
                + f"\nfz_e{step}_tok {extra} shared_fuzz_tok\n",
            )
        out.append(r)
    for j in range(n_add):
        body = " ".join(rng.choice(VOCAB, size=rng.randint(4, 12)).tolist())
        out.append(
            {
                "repo": "org0/repo0",
                "path": f"src/fuzz/e{step}_added{j:03d}.py",
                "commit": "e" * 40,
                "lang": "python",
                "content": (
                    f"def fuzz_added_e{step}_{j}():\n"
                    f"    return '{body} fz_e{step}_tok"
                    f" uqfz{step}x{j:03d}marker'\n"
                ),
            }
        )
    return out


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_random_epoch_chain_equals_rebuild(ray_session, tmp_path, seed):
    import ray.data

    _check_epoch_chain(tmp_path, seed, ray.data.from_arrow)


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_random_epoch_chain_equals_rebuild_path_input(
    ray_session, tmp_path, seed
):
    """Every step's corpus as a small parquet path: the updates run on
    the in-process executor."""

    steps = itertools.count(1)

    def as_path(t: pa.Table) -> str:
        d = tmp_path / f"v{next(steps)}"
        d.mkdir()
        pq.write_table(t, str(d / "part-0.parquet"))
        return str(d)

    _check_epoch_chain(tmp_path, seed, as_path)


def _check_epoch_chain(tmp_path, seed, as_input):
    import ray.data

    from ck_ray.corpus import generate_corpus

    rng = np.random.RandomState(seed)
    n_steps = 4
    compact_at = int(rng.randint(1, n_steps))  # compact mid-chain
    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)

    rows = _rows(generate_corpus(n_files=120, seed=100 + seed))
    d_inc = str(tmp_path / "inc")
    ckb.build_index(ray.data.from_arrow(_table(rows)), d_inc, cfg)

    for step in range(1, n_steps + 1):
        rows = _mutate_step(rows, rng, step)
        man = incremental_update(as_input(_table(rows)), d_inc, cfg)
        assert man["num_docs"] == len(rows), f"step {step}: num_docs"
        if step == compact_at:
            man = compact_index(d_inc, cfg)
            assert len(man["epochs"]) == 1, "compaction left a chain"

    final = _table(rows)
    d_full = str(tmp_path / "full")
    ckb.build_index(ray.data.from_arrow(final), d_full, cfg)
    man_inc = ckb.load_manifest(d_inc)
    man_full = ckb.load_manifest(d_full)
    assert man_inc["num_docs"] == man_full["num_docs"]
    for f in ("content", "path"):
        assert (
            man_inc["fields"][f]["total_tokens"]
            == man_full["fields"][f]["total_tokens"]
        ), f"global {f} stats drifted through the chain"

    queries = (
        ["merge", "def", "posting segment", "the merge window",
         "shared_fuzz_tok", "path:fuzz", '"fuzz_added_e2_0"']
        + [f"fz_e{s}_tok" for s in range(1, n_steps + 1)]
        + [f"uqfz{n_steps}x000marker"]
    )
    eng_inc = BM25Engine(d_inc, num_shards=2)
    eng_full = BM25Engine(d_full, num_shards=2)
    oracle = BM25Oracle(final)
    try:
        for q in queries:
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
