"""Incremental index updates: content-hash diff -> epoch append.

Mirrors the reference's incremental protocol (manifest probe + hash
compare, ``ck-index/src/lib.rs:851-906``) at index granularity:

1. one pass over the new corpus computes (doc_id, sha256) of its text
   rows (the build's binary sniff, ``drop_binary_rows``, applies here
   too, so a skipped binary row is never counted as a changed doc);
2. anti-join against the previous epochs' live doc set (broadcast of
   (id, sha) pairs at this scale; a shuffle anti-join on sha at 10^12 —
   the diff itself is the same);
3. only changed/new docs are tokenized and built into a NEW epoch via the
   normal ``build_index`` path; deletions are recorded in the new epoch's
   ``deleted.parquet``;
4. global stats (N, total tokens -> avgdl) are adjusted exactly using the
   per-doc ``dl_*`` columns of the superseded entries, so an incremental
   index is **query-identical to a full rebuild** (tested).

Steps 1 and 3 run on one of ``build_index``'s two executors. A delta
given as a parquet path whose footers hold at most
``IN_PROCESS_MAX_BYTES`` (1 MiB) of uncompressed data is read once; the
id/sha pass and the changed-row filter run in this process, and the
filtered table goes to ``build_index``'s in-process loop. Larger paths
and Dataset inputs run both steps as Ray Data jobs (the filter is a
``map_batches`` over a broadcast changed-id array), which tokenize in
parallel and bound each task's memory.

The bound is measured, not derived from a Ray setting (Ray Data splits
even a 20-row read into up to ``2 x CPUs`` blocks). On one vCPU with Ray
at 3 CPUs, a 20-doc additive delta took 0.20-0.30 s in process against
1.37-1.40 s on Ray Data, nearly all of it the fixed per-stage cost; a
1.07 MiB (600-doc) delta took 0.68-0.81 s in process, still below that
fixed cost, so more cores could not make Ray Data faster there unless
they also cut its fixed cost. At 3.9 MiB the two were even (CHANGES.md
has the table). The bound also caps what the in-process loop holds in
memory at once.

Supersede rule at query time: a posting for doc d from epoch e is live
iff no later epoch's docs table contains d and d is not deleted.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data

from .build import (
    IndexConfig,
    build_index,
    commit_manifest,
    drop_binary_rows,
    load_manifest,
    manifest_fields,
    next_epoch,
)
from .ids import doc_id_column, sha256_hex_column


# Largest parquet input, in uncompressed footer bytes, that
# ``incremental_update`` runs in process (module docstring).
IN_PROCESS_MAX_BYTES = 1 << 20


def _footer_bytes(dset: pq.ParquetDataset, limit: int) -> int:
    """Uncompressed size in ``dset``'s parquet footers, read through the
    dataset's own filesystem (so URIs such as ``s3://`` work); counting
    stops once it passes ``limit``."""
    size = 0
    for f in dset.files:
        md = pq.read_metadata(f, filesystem=dset.filesystem)
        size += sum(
            md.row_group(i).total_byte_size for i in range(md.num_row_groups)
        )
        if size > limit:
            break
    return size


def _small_table(corpus) -> pa.Table | None:
    """``corpus`` as one Arrow table when it is a parquet path of at most
    ``IN_PROCESS_MAX_BYTES``; None sends it to Ray Data."""
    if not isinstance(corpus, str):
        return None
    dset = pq.ParquetDataset(corpus)
    if _footer_bytes(dset, IN_PROCESS_MAX_BYTES) > IN_PROCESS_MAX_BYTES:
        return None
    return dset.read()


def _keep_ids(t: pa.Table, ids_sorted: np.ndarray) -> pa.Table:
    """Rows of ``t`` whose doc id is in the sorted array ``ids_sorted``."""
    ids = doc_id_column(t["repo"], t["path"], t["commit"]).to_numpy()
    idx = np.clip(np.searchsorted(ids_sorted, ids), 0, len(ids_sorted) - 1)
    return t.filter(pa.array(ids_sorted[idx] == ids))


def _commit_epoch(
    index_dir: str, man: dict, epoch: str, n_docs: int,
    totals: dict[str, int], n_changed: int, n_deleted: int,
) -> dict:
    """Append ``epoch`` to the chain in one atomic root-manifest swap."""
    epochs = man.get("epochs", [man["epoch_dir"]])
    root = dict(man)
    root.update(
        {
            "epoch": epoch,
            "epoch_dir": man["epoch_dir"],  # first epoch stays the anchor
            "epochs": [*epochs, epoch],
            "num_docs": n_docs,
            "fields": manifest_fields(totals, n_docs),
            "n_changed": n_changed,
            "n_deleted": n_deleted,
        }
    )
    commit_manifest(index_dir, root)
    return root


def _live_prev_docs(index_dir: str, man: dict) -> pd.DataFrame:
    """(doc_id, content_sha256, dl_content, dl_path) of live prev docs."""
    frames = []
    for i, e in enumerate(man.get("epochs", [man["epoch_dir"]])):
        ddir = os.path.join(index_dir, e, "docs")
        if os.path.isdir(ddir):
            t = pads.dataset(ddir).to_table(
                columns=["doc_id", "content_sha256", "dl_content", "dl_path"]
            )
            df = t.to_pandas()
            df["epoch_i"] = i
            frames.append(df)
    docs = pd.concat(frames, ignore_index=True)
    # later epoch supersedes earlier
    docs = docs.sort_values("epoch_i").drop_duplicates("doc_id", keep="last")
    # Deletions are epoch-scoped: a deletion recorded in epoch j applies
    # only to docs whose surviving entry is from an EARLIER epoch — a doc
    # deleted at j and re-added at j+1 is live (regression-tested).
    del_frames = []
    for i, e in enumerate(man.get("epochs", [man["epoch_dir"]])):
        dfile = os.path.join(index_dir, e, "deleted.parquet")
        if os.path.exists(dfile):
            d = pq.read_table(dfile).to_pandas()
            d["del_epoch"] = i
            del_frames.append(d)
    if del_frames:
        dels = (
            pd.concat(del_frames, ignore_index=True)
            .groupby("doc_id", as_index=False)["del_epoch"].max()
        )
        docs = docs.merge(dels, on="doc_id", how="left")
        docs = docs[~(docs["del_epoch"] > docs["epoch_i"])]
        docs = docs.drop(columns=["del_epoch"])
    return docs.drop(columns=["epoch_i"])


def incremental_update(
    corpus: str | ray.data.Dataset,
    index_dir: str,
    config: IndexConfig | None = None,
    *,
    additive: bool = False,
    deletions_only: bool = False,
) -> dict:
    """Diff the new corpus against the live index and commit one epoch.

    ``additive=True`` is the reference's ``--add`` semantics
    (ck-cli/src/main.rs:311): rows present in ``corpus`` are
    added/updated, but docs absent from it are NOT treated as deletions
    — so a single file (or a shard) can be upserted without shipping
    the whole corpus.

    ``deletions_only=True`` is the reference's ``--clean-orphans``
    (ck-cli/src/main.rs:285): index docs absent from ``corpus`` are
    tombstoned, but nothing is (re)indexed — content changes in
    still-present docs are ignored. Mutually exclusive with
    ``additive`` (which never deletes)."""
    if additive and deletions_only:
        raise ValueError("additive and deletions_only are mutually exclusive")
    man = load_manifest(index_dir)
    cfg = config or IndexConfig(
        num_parts=man["num_parts"], store_positions=man["store_positions"]
    )
    assert cfg.num_parts == man["num_parts"], "partition count is fixed per index"
    # serving bucket count is fixed per index (shards map buckets to ranges)
    cfg.serving_buckets = man.get("num_serving_buckets", cfg.serving_buckets)

    # pass 1: (doc_id, sha) of the new corpus's text rows (ids+hashes
    # only to driver)
    def id_sha(t: pa.Table) -> pa.Table:
        t = drop_binary_rows(t, cfg.skip_binary)
        return pa.table(
            {
                "doc_id": doc_id_column(t["repo"], t["path"], t["commit"]),
                "content_sha256": sha256_hex_column(t["content"]),
            }
        )

    # ``ds`` is an Arrow table on the in-process executor, else a Dataset
    ds = _small_table(corpus)
    if ds is not None:
        new_info = id_sha(ds).to_pandas()
    else:
        ds = ray.data.read_parquet(corpus) if isinstance(corpus, str) else corpus
        new_info = ds.map_batches(id_sha, batch_format="pyarrow").to_pandas()
    if new_info["doc_id"].nunique() != len(new_info):
        raise RuntimeError(
            "duplicate (repo, path, commit) rows in the new corpus — "
            "doc identity must be unique for incremental updates"
        )
    prev = _live_prev_docs(index_dir, man)
    prev_map = dict(zip(prev["doc_id"], prev["content_sha256"]))
    new_ids = set(new_info["doc_id"])
    if deletions_only:
        changed = []
    else:
        changed = [
            int(r.doc_id)
            for r in new_info.itertuples()
            if prev_map.get(r.doc_id) != r.content_sha256
        ]
    deleted = [] if additive else sorted(set(prev_map) - new_ids)
    if not changed and not deleted:
        return man

    epoch = next_epoch(index_dir, man)
    totals = {
        f: man["fields"][f]["total_tokens"] for f in ("content", "path")
    }
    # retire superseded + deleted token counts
    stale = prev[prev["doc_id"].isin(set(changed) | set(deleted))]
    totals["content"] -= int(stale["dl_content"].sum())
    totals["path"] -= int(stale["dl_path"].sum())

    if changed:
        changed_arr = np.sort(np.array(changed, dtype=np.int64))
        if isinstance(ds, pa.Table):
            sub = _keep_ids(ds, changed_arr)
        else:
            import ray as _ray

            cref = _ray.put(changed_arr)
            sub = ds.map_batches(
                lambda t: _keep_ids(t, _ray.get(cref)), batch_format="pyarrow"
            )
        # commit_root=False: the old root manifest stays valid until the
        # merged multi-epoch manifest lands atomically below
        sub_man = build_index(sub, index_dir, cfg, epoch=epoch, commit_root=False)
        for f in ("content", "path"):
            totals[f] += sub_man["fields"][f]["total_tokens"]
    else:
        os.makedirs(os.path.join(index_dir, epoch), exist_ok=True)

    if deleted:
        pq.write_table(
            pa.table({"doc_id": pa.array(deleted, pa.int64())}),
            os.path.join(index_dir, epoch, "deleted.parquet"),
        )

    # live docs after this epoch: full-corpus mode replaces the universe
    # with the new corpus; additive mode only adds genuinely-new ids;
    # deletions_only keeps exactly the still-present previously-indexed set
    if additive:
        n_docs = len(set(prev_map) | new_ids)
    elif deletions_only:
        n_docs = len(set(prev_map) & new_ids)
    else:
        n_docs = len(new_info)
    return _commit_epoch(
        index_dir, man, epoch, n_docs, totals, len(changed), len(deleted)
    )


def delete_by_query(
    index_dir: str, query: str, num_shards: int = 2
) -> dict:
    """DELETE-BY-QUERY (the ES ``_delete_by_query`` maintenance op):
    tombstone every live doc matching a full query-language expression —
    boolean trees, phrases, prefix/fuzzy/regex/wildcard included — in
    ONE new epoch, without touching a single posting byte.

    The match set is evaluated exactly (TAAT) by doc-partitioned shards;
    what reaches the driver is the matched doc_id list — O(deleted),
    never O(corpus), and irreducible: the tombstone file IS that list.
    Global stats (num_docs, total tokens -> avgdl) are adjusted exactly
    from the per-doc ``dl_*`` columns, so post-delete BM25 scores equal
    a from-scratch index without the docs (the same contract
    ``incremental_update`` keeps, tested). The deletion epoch is LATER
    than every surviving doc entry, so the epoch-scoped supersede rule
    applies it to all of them; a doc re-added by a later
    ``incremental_update`` is live again (regression-tested for epoch
    deletions generally). No matches -> no epoch, manifest unchanged.
    Returns the updated manifest."""
    from .query import BM25Engine

    man = load_manifest(index_dir)
    eng = BM25Engine(index_dir, num_shards=num_shards, auto_reload=False)
    try:
        # top_k = num_docs drains the full match set (every shard's
        # local top-k is capped by its live doc count)
        docs, _ = eng.search_raw(
            query, top_k=max(1, int(man["num_docs"])), pruning=False
        )
    finally:
        eng.close()
    if not len(docs):
        return man
    deleted = np.sort(docs.astype(np.int64))

    epoch = next_epoch(index_dir, man)
    prev = _live_prev_docs(index_dir, man)
    stale = prev[prev["doc_id"].isin(set(deleted.tolist()))]
    totals = {
        "content": man["fields"]["content"]["total_tokens"]
        - int(stale["dl_content"].sum()),
        "path": man["fields"]["path"]["total_tokens"]
        - int(stale["dl_path"].sum()),
    }
    n_docs = int(man["num_docs"]) - len(deleted)

    os.makedirs(os.path.join(index_dir, epoch), exist_ok=True)
    pq.write_table(
        pa.table({"doc_id": pa.array(deleted, pa.int64())}),
        os.path.join(index_dir, epoch, "deleted.parquet"),
    )
    return _commit_epoch(
        index_dir, man, epoch, n_docs, totals, 0, int(len(deleted))
    )
