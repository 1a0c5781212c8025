"""Epoch compaction: fold an index's epoch chain back into ONE epoch.

The reference gets segment merging for free from tantivy (its
``IndexWriter`` merges segments in the background; ck-engine
``ck-engine/src/lib.rs`` just writes through it). Here incremental
updates append epochs (``incremental.py``) and the query path filters
superseded/deleted postings at read; compaction removes that read
amplification by merging every epoch's posting lists — at the posting
level, no corpus access — into a fresh epoch that is layout-identical
to a clean ``build_index`` output.

Distributed shape (Ray-Data-first):

1. driver: the live winner map (doc_id -> winning epoch index) from the
   epochs' docs tables + epoch-scoped deletions — the same supersede
   rule the query path applies (``query.py`` epoch filtering). Broadcast
   once via ``ray.put``; at 10^12 docs this becomes a hash semi-join
   between decoded triples and the docs tables on the same exchange.
2. ``map_batches`` over EVERY epoch's segment rows
   (``include_paths=True`` tells us each row's epoch): whole-batch
   vectorized decode — one varint pass over the batch's concatenated
   posting blobs with cumsum resets at term boundaries, the exact
   inverse of ``codec.encode_partition`` — then keep postings whose
   (doc_id, epoch) wins, and spill surviving triples through the
   standard fs/actor exchange keyed ``fnv64(field, term) % P``.
3. per-partition ``_SegmentEncoder`` (the build's own encode stage, with
   inline serving emission), so compacted segments and serving buckets
   are produced by the same code path as a fresh build's.
4. live doc metadata rows become the new epoch's ``docs/`` + serving doc
   buckets; stats (N, total tokens, avgdl) are recomputed exactly.
5. atomic commit: staging -> epoch dir, root manifest swap, THEN the old
   epoch dirs are deleted. A crash before the swap leaves the old chain
   fully live; after it, the new epoch is fully live.

Hot-term salting is not re-applied: salting exists to spread the
tokenize-shuffle of a giant term over doc ranges, but compaction moves
already-encoded per-term payloads, so a hot term is one fat row handled
by one encode task (the same skew story as the build's hot merge).

Query identity pre/post compaction is the test gate
(``tests/test_compact.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data

from . import codec
from .build import (
    MANIFEST_NAME,
    IndexConfig,
    _build_serving_docs,
    _SegmentEncoder,
    commit_manifest,
    load_manifest,
    manifest_fields,
    next_epoch,
)
from .exchange import spill_partitioned
from .ids import term_hash

_DOC_COLS = [
    "doc_id", "repo", "path", "commit", "lang", "content_sha256",
    "n_bytes", "dl_content", "dl_path",
]


def _live_docs_full(index_dir: str, man: dict) -> pd.DataFrame:
    """All live doc rows (full metadata) + the epoch index each one wins
    from — supersede + epoch-scoped-deletion semantics identical to
    ``incremental._live_prev_docs`` / the query path."""
    epochs = man.get("epochs", [man["epoch_dir"]])
    frames = []
    for i, e in enumerate(epochs):
        ddir = os.path.join(index_dir, e, "docs")
        if os.path.isdir(ddir):
            df = pads.dataset(ddir).to_table(columns=_DOC_COLS).to_pandas()
            df["epoch_i"] = i
            frames.append(df)
    docs = pd.concat(frames, ignore_index=True)
    docs = docs.sort_values("epoch_i").drop_duplicates("doc_id", keep="last")
    del_frames = []
    for i, e in enumerate(epochs):
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
    return docs.reset_index(drop=True)


def _ragged_keep(
    flat: np.ndarray, counts: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """Keep the flat-array segments of the rows selected by ``keep``.

    ``counts[i]`` is row i's segment length; vectorized gather."""
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ks, kc = starts[keep], counts[keep]
    if len(ks) == 0:
        return flat[:0]
    # index expansion: for each kept row, [ks, ks+kc)
    out_off = np.concatenate(([0], np.cumsum(kc)[:-1]))
    idx = np.repeat(ks - out_off, kc) + np.arange(int(kc.sum()))
    return flat[idx]


class _CompactDecoder:
    """Segment rows -> live posting triples -> exchange spill.

    The whole batch decodes in ONE varint pass: posting blobs are
    concatenated, term boundaries come from the ``df`` column, doc_id
    cumsum resets via the base-subtraction scan (same trick as
    ``codec.decode_positions``)."""

    def __init__(self, live_ref, epoch_of_dir: dict[str, int],
                 num_parts: int, store_positions: bool, backend):
        self.live_ref = live_ref
        self.epoch_of_dir = epoch_of_dir
        self.num_parts = num_parts
        self.store_positions = store_positions
        self.backend = backend
        self._live = None

    def _epoch_i(self, file_path: str) -> int:
        # keys are ABSOLUTE epoch-dir prefixes (ending in os.sep): two
        # merge sources both have an "epoch-0001", so a bare dir-name
        # match would mis-attribute postings across indexes
        p = os.path.abspath(file_path)
        for prefix, i in self.epoch_of_dir.items():
            if p.startswith(prefix):
                return i
        raise ValueError(f"no epoch dir in {file_path}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._live is None:
            self._live = ray.get(self.live_ref)
        live_ids, live_win = self._live

        man_part: list[int] = []
        man_run: list[str] = []
        # group rows by source epoch (few distinct values per batch)
        srcs = batch["path"].to_pylist()
        epoch_is = np.array([self._epoch_i(s) for s in srcs], np.int32)
        pieces = []
        for ei in np.unique(epoch_is):
            t = batch.filter(pa.array(epoch_is == ei))
            dfs = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
            blobs = t["postings"].to_pylist()
            vals = codec.decode_varints(b"".join(blobs))
            tfs = vals[1::3].astype(np.int32)
            dls = vals[2::3].astype(np.int32)
            docs = np.cumsum(vals[0::3], dtype=np.uint64)
            tstarts = np.concatenate(([0], np.cumsum(dfs)[:-1]))
            if len(tstarts) > 1:
                # per-term base broadcast (NOT a max-scan: signed doc ids
                # cast to uint64 make deltas wrap mod 2^64, so the global
                # cumsum is not monotone; wraparound subtraction is exact)
                bases = np.concatenate(
                    (np.zeros(1, np.uint64), docs[tstarts[1:] - 1])
                )
                docs = docs - np.repeat(bases, dfs)
            doc_i64 = docs.view(np.int64)
            # live lookup: (doc, this epoch) must be the winner
            pos_idx = np.searchsorted(live_ids, doc_i64)
            pos_idx_c = np.minimum(pos_idx, len(live_ids) - 1)
            keep = (live_ids[pos_idx_c] == doc_i64) & (
                live_win[pos_idx_c] == ei
            ) if len(live_ids) else np.zeros(len(doc_i64), bool)

            fields = np.repeat(
                t["field"].to_numpy(zero_copy_only=False).astype(np.int8),
                dfs,
            )
            term_rep = t["term"].combine_chunks().take(
                pa.array(np.repeat(np.arange(len(dfs)), dfs), pa.int64())
            )
            cols = {
                "field": pa.array(fields[keep]),
                "term": term_rep.filter(pa.array(keep)),
                "doc_id": pa.array(doc_i64[keep], pa.int64()),
                "tf": pa.array(tfs[keep], pa.int32()),
                "dl": pa.array(dls[keep], pa.int32()),
            }
            if self.store_positions:
                pos_flat, _ = codec.decode_positions(
                    b"".join(t["positions"].to_pylist()), tfs
                )
                kept_flat = _ragged_keep(
                    pos_flat, tfs.astype(np.int64), keep
                ).astype(np.int32)
                offs = np.concatenate(
                    ([0], np.cumsum(tfs[keep], dtype=np.int64))
                )
                cols["positions"] = pa.ListArray.from_arrays(
                    pa.array(offs, pa.int32()), pa.array(kept_flat)
                )
            pieces.append(pa.table(cols))
        out = pa.concat_tables(pieces) if pieces else None
        if out is not None and out.num_rows:
            h = term_hash(
                out["term"],
                out["field"].to_numpy(zero_copy_only=False),
            )
            part = (h % np.uint64(self.num_parts)).astype(np.int32)
            for p, r in spill_partitioned(out, part, self.backend):
                man_part.append(p)
                man_run.append(r)
        return pa.table({
            "part": pa.array(man_part, pa.int32()),
            "run": pa.array(man_run, pa.string()),
        })


def _seg_files_of(index_dir: str, epochs: list[str]) -> list[str]:
    out = []
    for e in epochs:
        sroot = os.path.join(index_dir, e, "segments")
        if not os.path.isdir(sroot):
            continue
        for pdir, _, files in os.walk(sroot):
            out += [
                os.path.join(pdir, f)
                for f in files
                if f.endswith(".parquet")
            ]
    return out


def _rewrite_epochs(
    live: pd.DataFrame,
    epoch_of_dir: dict[str, int],
    seg_files: list[str],
    staging: str,
    cfg: IndexConfig,
) -> tuple[list[dict], int, int, int]:
    """The shared compact/merge core: decode every source segment, keep
    each posting iff its (doc, source epoch) wins the live map, exchange
    by term hash, re-encode with the build's own stage, write docs +
    serving docs + exact stats into ``staging``. Returns
    (lineage, n_docs, total_content, total_path)."""
    seg_dir = os.path.join(staging, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    launch = uuid.uuid4().hex[:8]
    backend, hot_backend = cfg.make_backends(staging, launch)

    order = np.argsort(live["doc_id"].to_numpy())
    live = live.iloc[order].reset_index(drop=True)
    live_ref = ray.put((
        live["doc_id"].to_numpy(),
        live["epoch_i"].to_numpy().astype(np.int32),
    ))
    man_df = (
        ray.data.read_parquet(seg_files, include_paths=True)
        .map_batches(
            _CompactDecoder(
                live_ref, epoch_of_dir, cfg.num_parts,
                cfg.store_positions, backend,
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )

    # ---- 3. per-partition encode (build's own stage; all parts cold)
    runs_by_part = (
        {int(p): g["run"].tolist() for p, g in man_df.groupby("part")}
        if len(man_df)
        else {}
    )
    lineage: list[dict] = []
    if runs_by_part:
        items = ray.data.from_items(
            [{"part": p, "runs": rs} for p, rs in sorted(runs_by_part.items())],
            override_num_blocks=len(runs_by_part),
        )
        lineage = (
            items.map_batches(
                _SegmentEncoder(
                    backend, seg_dir, hot_backend,
                    cfg.store_positions, cfg.num_parts,
                    srv_post_dir=os.path.join(staging, "serving", "post"),
                    n_buckets=cfg.serving_buckets,
                ),
                batch_format="pyarrow", batch_size=1,
            )
            .to_pandas()
            .to_dict("records")
        )
    backend.cleanup()
    hot_backend.cleanup()

    # ---- docs + serving docs + exact stats
    docs_dir = os.path.join(staging, "docs")
    os.makedirs(docs_dir, exist_ok=True)
    docs_t = pa.Table.from_pandas(
        live[_DOC_COLS], preserve_index=False
    )
    # partitioned output (resume/scale contract: never one giant file)
    rows_per_file = 262_144
    for fi in range(0, max(docs_t.num_rows, 1), rows_per_file):
        pq.write_table(
            docs_t.slice(fi, rows_per_file),
            os.path.join(docs_dir, f"docs-compact-{fi // rows_per_file:05d}.parquet"),
        )
    _build_serving_docs(staging, docs_dir, cfg)
    return (
        lineage, len(live), int(live["dl_content"].sum()),
        int(live["dl_path"].sum()),
    )


def _epoch_manifest(
    new_epoch: str, cfg: IndexConfig, lineage: list[dict],
    n_docs: int, total_content: int, total_path: int,
) -> dict:
    return {
        "version": 1,
        "epoch": new_epoch,
        "num_docs": n_docs,
        "num_parts": cfg.num_parts,
        "num_serving_buckets": cfg.serving_buckets,
        "store_positions": cfg.store_positions,
        "fields": manifest_fields(
            {"content": total_content, "path": total_path}, n_docs
        ),
        "parts": sorted(
            lineage, key=lambda r: (r["part"], r.get("kind", "cold"))
        ),
        "hot_terms": [],
        "epochs": [new_epoch],
    }


def compact_index(index_dir: str, config: IndexConfig | None = None) -> dict:
    """Merge all epochs into one; returns the new root manifest."""
    man = load_manifest(index_dir)
    epochs = man.get("epochs", [man["epoch_dir"]])
    cfg = config or IndexConfig(
        num_parts=man["num_parts"],
        store_positions=man["store_positions"],
        serving_buckets=man["num_serving_buckets"],
    )
    new_epoch = next_epoch(index_dir, man)
    staging = os.path.join(index_dir, f"_staging-{new_epoch}")
    final_dir = os.path.join(index_dir, new_epoch)
    if os.path.exists(staging):
        shutil.rmtree(staging)

    live = _live_docs_full(index_dir, man)
    epoch_of_dir = {
        os.path.abspath(os.path.join(index_dir, e)) + os.sep: i
        for i, e in enumerate(epochs)
    }
    lineage, n_docs, total_content, total_path = _rewrite_epochs(
        live, epoch_of_dir, _seg_files_of(index_dir, epochs), staging, cfg
    )

    manifest = _epoch_manifest(
        new_epoch, cfg, lineage, n_docs, total_content, total_path
    )
    manifest["compacted_from"] = list(epochs)
    with open(os.path.join(staging, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=1)
    # ---- atomic commit, then old-chain cleanup
    os.replace(staging, final_dir)
    root = dict(manifest, epoch_dir=new_epoch)
    commit_manifest(index_dir, root)
    for e in epochs:
        shutil.rmtree(os.path.join(index_dir, e), ignore_errors=True)
    return root


def merge_indexes(
    index_dirs: list[str], out_dir: str,
    config: IndexConfig | None = None,
) -> dict:
    """Merge N INDEPENDENT indexes into one fresh index (Lucene's
    cross-index ``IndexWriter.addIndexes`` / ES shrink-style segment
    merge): decode every source's live postings at the posting level —
    no corpus access — re-exchange by term hash, and re-encode through
    the build's own stage, so the output is layout-identical to a clean
    ``build_index`` and QUERY-IDENTICAL to building over the
    concatenated corpora (the test gate).

    Conflict rule: content-addressed doc_ids collide only when the SAME
    (repo, path, commit) doc was indexed in several sources; the
    RIGHT-MOST index in ``index_dirs`` wins, exactly like a later epoch
    supersedes an earlier one (each source's internal epoch chain is
    resolved first by its own supersede+deletion rule). Sources may
    disagree on num_parts / serving_buckets — postings are
    re-partitioned anyway — but must agree on ``store_positions``
    (mixed position availability cannot be reconciled at merge time).
    Output stats (N, total tokens, avgdl) are recomputed exactly from
    the surviving docs. The merge never mutates a source; the output
    commits atomically (staging dir -> rename)."""
    if not index_dirs:
        raise ValueError("merge_indexes needs at least one source index")
    if os.path.exists(os.path.join(out_dir, MANIFEST_NAME)):
        raise FileExistsError(f"{out_dir} already holds an index")
    mans = [load_manifest(d) for d in index_dirs]
    positions = {m["store_positions"] for m in mans}
    if len(positions) != 1:
        raise ValueError(
            "sources disagree on store_positions; rebuild one side"
        )
    cfg = config or IndexConfig(
        num_parts=mans[0]["num_parts"],
        store_positions=mans[0]["store_positions"],
        serving_buckets=mans[0]["num_serving_buckets"],
    )
    cfg.store_positions = mans[0]["store_positions"]

    # global epoch order: sources left to right, each source's own
    # chain in its own order -> right-most source wins doc conflicts
    frames, epoch_of_dir, seg_files = [], {}, []
    offset = 0
    for d, m in zip(index_dirs, mans):
        epochs = m.get("epochs", [m["epoch_dir"]])
        live = _live_docs_full(d, m)
        live["epoch_i"] = live["epoch_i"] + offset
        frames.append(live)
        for i, e in enumerate(epochs):
            epoch_of_dir[
                os.path.abspath(os.path.join(d, e)) + os.sep
            ] = offset + i
        seg_files += _seg_files_of(d, epochs)
        offset += len(epochs)
    live = (
        pd.concat(frames, ignore_index=True)
        .sort_values("epoch_i")
        .drop_duplicates("doc_id", keep="last")
        .reset_index(drop=True)
    )

    new_epoch = "epoch-0001"
    os.makedirs(out_dir, exist_ok=True)
    staging = os.path.join(out_dir, f"_staging-{new_epoch}")
    if os.path.exists(staging):
        shutil.rmtree(staging)
    lineage, n_docs, total_content, total_path = _rewrite_epochs(
        live, epoch_of_dir, seg_files, staging, cfg
    )
    manifest = _epoch_manifest(
        new_epoch, cfg, lineage, n_docs, total_content, total_path
    )
    manifest["merged_from"] = [os.path.abspath(d) for d in index_dirs]
    with open(os.path.join(staging, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=1)
    os.replace(staging, os.path.join(out_dir, new_epoch))
    root = dict(manifest, epoch_dir=new_epoch)
    commit_manifest(out_dir, root)
    return root
