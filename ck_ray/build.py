"""SPIMI-style inverted-index build as a Ray Data pipeline.

Pipeline shape (SURVEY.md §7.2; replaces the reference's tantivy builder,
reference ``ck-engine/src/lib.rs:847-890``, which indexes one doc per file
with fields ``content`` and ``path``):

    read_parquet(corpus)                     (repo,path,commit,lang,content)
      └─ map_batches(tokenize+spill)  ONE pass emits BOTH the doc table
         (doc_id, sha256, dl_*, metadata) AND per-partition SPIMI run
         files — the physical form of the groupby(term-partition) shuffle
      └─ map_batches over partitions: read runs -> vectorized encode ->
         atomic segment parquet + lineage row
      └─ map_batches over hot final-partitions: merge salted runs

- ``part = fnv64(field, term) % num_parts`` so a term's full posting list
  lands in exactly one partition — global df falls out of the group, no
  separate stats shuffle. Doc lengths are stored inline per posting, so
  no global doc_id->dl map is ever built.
- The exchange is run files (object-store-speed /dev/shm locally, node
  SSD / shared scratch on a cluster) rather than Ray's sort operator,
  which was measured serializing on few-rows/fat-payload shapes; the
  groupby SEMANTICS are identical and the run files double as shuffle
  checkpoints.
- Hot-term skew (``def``/``return``/``the`` …): terms whose estimated df
  exceeds ``hot_df_threshold`` are salted by doc_id *range* bucket
  (monotone in doc_id, so per-salt runs concatenate into a valid
  delta-encoded list); a second, small merge stage rebuilds the full list.
  Output is byte-identical to the unsalted path (tested).
- Corpus-level stats (total tokens per field) are folded into the lineage
  rows each partition returns — no extra pass over the data.
- Resumability: every partition writes its segment atomically
  (tmp + rename) plus a ``_lineage-{part}.json`` marker into a staging
  epoch dir; a resumed build skips completed partitions (anti-join on the
  marker set, applied BEFORE the shuffle) and the final manifest commit is
  a single atomic rename + manifest write — mirroring the reference's
  atomic sidecar/manifest protocol (``ck-index/src/lib.rs:1504-1523``).

Two executors run these same stage callables (``_map_stage``). A parquet
path or a Ray Dataset runs each stage as a Ray Data job. An Arrow table
runs them in a plain loop in this process, over ``batch_size`` slices:
same phases, same staging layout, same atomic commit, and the same
segment and serving bytes. A Ray Data stage costs a few hundred ms of
scheduling whatever its input size, so ``incremental_update`` hands a
delta over as a table when its parquet footers hold at most
``incremental.IN_PROCESS_MAX_BYTES`` (1 MiB) of uncompressed data. That
bound is measured: below it the whole in-process update finished before
Ray Data's fixed per-update cost alone (``incremental`` module
docstring). Full builds, Dataset inputs and larger deltas stay on Ray
Data, which tokenizes in parallel and bounds each task's memory; the
in-process loop holds its whole input at once.

Nothing here calls ``ray.init()``; the caller owns the session.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import uuid
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from . import codec
from .exchange import ActorExchange, FsExchange, spill_partitioned
from .ids import doc_id_column, sha256_hex_column, term_hash
from .tokenizer import term_frequencies

FIELDS = ("content", "path")  # field_id = index; reference indexes both
MANIFEST_NAME = "manifest.json"


@dataclass
class IndexConfig:
    num_parts: int = 8
    store_positions: bool = True
    # docs per tokenize batch; None = one batch per input block, which also
    # means one spill file per (task, partition) — the right default
    batch_size: int | None = None
    # Skew handling: terms with estimated df >= threshold get salted into
    # doc_id-range buckets. "auto" (the default) is PROPORTIONAL to
    # corpus size: a term is hot when it appears in >=10% of sampled
    # docs — the same rule as an absolute threshold of n_docs/10, but
    # derived from the sample alone (no extra full count pass over a
    # mapped Dataset); it engages once the sample reaches >=2000 docs,
    # so small test corpora build unsalted and identical to before.
    # An int is an explicit absolute df threshold; None disables
    # salting entirely (fine till ~10M docs/part). Salted and unsalted
    # builds are byte-identical after the merge (tested), so this only
    # steers shuffle skew, never output.
    hot_df_threshold: int | None | str = "auto"
    salt_buckets: int = 8
    df_sample_docs: int = 2048  # docs sampled to estimate hot terms
    dedupe_keep_latest: bool = False
    # Doc-range buckets of the SERVING layout (doc-partitioned projection
    # of the term-partitioned segments; power of two). Query shards each
    # own a set of buckets and score their doc ranges locally, so per-query
    # driver traffic is O(shards * k), never O(postings).
    serving_buckets: int = 16
    # Where the transient shuffle run files live. They are consumed within
    # one build (resume restarts from segment lineage markers, never from
    # runs), so fast volatile storage is correct: default /dev/shm when
    # present (single node), else the staging dir. On a cluster this is
    # each node's local SSD / the shared scratch tier.
    exchange_root: str | None = None
    # Exchange transport: "fs" (run files on a filesystem both sides see;
    # single node or shared-scratch cluster) or "actor" (shared-nothing:
    # rows travel via Ray RPC to SPREAD partition-owner actors holding
    # node-local disk — no path shared between processes). None = the
    # CK_EXCHANGE_BACKEND env var, default "fs".
    exchange_backend: str | None = None
    exchange_num_owners: int = 8
    # Test hook: explicit per-owner roots for the actor backend, to prove
    # disjoint-locality correctness (each simulates one node's local disk).
    exchange_roots: list[str] | None = None
    # Reference binary sniff (is_text_file, ck-index/src/lib.rs:1598-1625):
    # rows whose first 8 KiB contain a NUL byte are skipped at index time.
    skip_binary: bool = True

    def resolve_exchange_root(self, staging: str) -> str:
        if self.exchange_root:
            return self.exchange_root
        if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
            return "/dev/shm/ck_ray_exchange"
        return staging

    def make_backends(self, staging: str, launch: str, local: bool = False):
        """(triples backend, hot-runs backend) for this build attempt.
        The in-process executor (``local``) always takes the fs backend:
        nothing crosses a process there, so the actor backend's
        partition owners would only add their start-up."""
        kind = "fs" if local else self.exchange_backend or os.environ.get(
            "CK_EXCHANGE_BACKEND", "fs"
        )
        if kind == "fs":
            root = self.resolve_exchange_root(staging)
            return (
                FsExchange(root=root, tag=f"exchange-{launch}"),
                FsExchange(root=root, tag=f"hotruns-{launch}"),
            )
        if kind == "actor":
            sub = lambda name: (  # noqa: E731
                [os.path.join(r, name) for r in self.exchange_roots]
                if self.exchange_roots
                else None
            )
            return (
                ActorExchange(self.exchange_num_owners, roots=sub("exchange")),
                ActorExchange(self.exchange_num_owners, roots=sub("hotruns")),
            )
        raise ValueError(f"unknown exchange backend {kind!r}")


# ------------------------------------------------------------ executors


def _map_stage(fn, src, batch_size: int | None = None) -> pd.DataFrame:
    """Run one stage callable over ``src`` and gather its output rows.

    A Ray Dataset goes through ``map_batches``. An Arrow table is the
    in-process executor: the same callable runs in a plain loop over
    ``batch_size`` slices (one slice when None)."""
    if not isinstance(src, pa.Table):
        return src.map_batches(
            fn, batch_format="pyarrow", batch_size=batch_size
        ).to_pandas()
    step = batch_size or max(src.num_rows, 1)
    outs = [fn(src.slice(i, step)) for i in range(0, src.num_rows, step)]
    if not outs:
        return pd.DataFrame()
    return pa.concat_tables(outs, promote_options="default").to_pandas()


def _task_items(rows: list[dict], local: bool):
    """One input row per encode / merge task, for either executor."""
    if local:
        return pa.Table.from_pylist(rows)
    return ray.data.from_items(rows, override_num_blocks=len(rows))


# ------------------------------------------------------------ triples stage


def drop_binary_rows(batch: pa.Table, skip_binary: bool) -> pa.Table:
    """Drop the rows the reference's binary sniff marks binary
    (``corpus.text_rows_mask``). The tokenize stage and the incremental
    diff both apply it, so they agree on which docs exist."""
    if skip_binary:
        from .corpus import text_rows_mask

        mask = text_rows_mask(batch["content"])
        if not pc.all(mask).as_py():
            batch = batch.filter(mask)
    return batch


class _TriplesBatcher:
    """Tokenize a corpus batch into posting triples and spill them as
    per-partition SPIMI run files (stateless task; config via closure).

    The physical exchange is run files in the staging dir rather than a
    Ray ``sort``: Ray's sort-based groupby was measured serializing on
    this shape (few rows, fat payloads), while run files keep the whole
    tokenize->spill pass embarrassingly parallel. On a multi-node cluster
    the staging dir is shared storage — the standard layout for index
    builds, and it doubles as the resume checkpoint. The groupby(term)
    SEMANTICS are unchanged: a term's postings all land in partition
    ``fnv64(field, term) % P``."""

    def __init__(self, num_parts: int, store_positions: bool,
                 hot_terms: frozenset[str] | None, salt_buckets: int,
                 backend=None,
                 skip_parts: frozenset[int] = frozenset(),
                 docs_dir: str | None = None,
                 skip_binary: bool = True):
        self.num_parts = num_parts
        self.store_positions = store_positions
        self.hot_terms = hot_terms
        self.salt_buckets = salt_buckets
        self.backend = backend
        self.skip_parts = skip_parts
        self.docs_dir = docs_dir
        self.skip_binary = skip_binary

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = drop_binary_rows(batch, self.skip_binary)
        from .corpus import preview_column

        doc_ids = doc_id_column(batch["repo"], batch["path"], batch["commit"])
        doc_ids_np = doc_ids.to_numpy()
        pieces = []
        dl_per_field = {}
        for fid, fname in enumerate(FIELDS):
            tf_t, _dl = term_frequencies(
                batch[fname], with_positions=self.store_positions
            )
            dl_per_field[fname] = _dl
            rows = tf_t["row"].to_numpy()
            dl_of_row = _dl  # int32 per batch row
            n = len(rows)
            field_arr = np.full(n, fid, dtype=np.int8)
            cols = {
                "field": pa.array(field_arr),
                "term": tf_t["term"],
                "doc_id": pa.array(doc_ids_np[rows], type=pa.int64()),
                "tf": tf_t["tf"].cast(pa.int32()),
                "dl": pa.array(dl_of_row[rows], type=pa.int32()),
            }
            if self.store_positions:
                cols["positions"] = tf_t["positions"].cast(pa.list_(pa.int32()))
            h = term_hash(tf_t["term"], field_arr)
            part = (h % np.uint64(self.num_parts)).astype(np.int32)
            if self.hot_terms:
                hot = pc.is_in(
                    tf_t["term"], value_set=pa.array(sorted(self.hot_terms))
                ).to_numpy(zero_copy_only=False)
                # salt = doc_id RANGE bucket (top bits, power-of-two count) so
                # each salt covers a contiguous doc_id range and per-salt runs
                # concatenate back into a sorted list. Monotone in doc_id.
                bits = max(1, self.salt_buckets.bit_length() - 1)
                salt = (
                    doc_ids_np[rows].astype(np.uint64) >> np.uint64(63 - bits)
                ).astype(np.uint64)
                h_salt = ((h ^ (salt * np.uint64(0x9E3779B97F4A7C15)))
                          % np.uint64(self.num_parts))
                part = np.where(
                    hot, (self.num_parts + h_salt).astype(np.int32), part
                )
                cols["salt"] = pa.array(
                    np.where(hot, salt, 0).astype(np.int32)
                )
            cols["part"] = pa.array(part)
            pieces.append(pa.table(cols))
        man_part: list[int] = []
        man_run: list[str] = []
        if self.docs_dir is not None:
            # doc table rows fall out of the same pass (dl_* reuse the
            # tokenize results; no second corpus read)
            docs = pa.table(
                {
                    "doc_id": doc_ids,
                    "repo": batch["repo"],
                    "path": batch["path"],
                    "commit": batch["commit"],
                    "lang": batch["lang"],
                    "content_sha256": sha256_hex_column(batch["content"]),
                    # stored snippet field: the reference serves a 3-line
                    # preview with every lexical hit (ck-engine/src/
                    # lib.rs:794-798) — emitted here so queries never
                    # touch the corpus
                    "preview": preview_column(batch["content"]),
                    "n_bytes": pc.binary_length(batch["content"]).cast(pa.int64()),
                    "dl_content": pa.array(
                        dl_per_field["content"].astype(np.int64)
                    ),
                    "dl_path": pa.array(dl_per_field["path"].astype(np.int64)),
                }
            )
            os.makedirs(self.docs_dir, exist_ok=True)
            name = f"docs-{uuid.uuid4().hex}.parquet"
            tmp = os.path.join(self.docs_dir, f".{name}.tmp")
            pq.write_table(docs, tmp)
            os.replace(tmp, os.path.join(self.docs_dir, name))
            # docs files ride the same manifest (part=-1): the build
            # promotes ONLY manifested docs files, so a crashed attempt's
            # orphans can never duplicate doc-metadata rows.
            man_part.append(-1)
            man_run.append(name)
        t = pa.concat_tables(pieces)
        if t.num_rows:
            part = t["part"].to_numpy(zero_copy_only=False)
            for p, r in spill_partitioned(
                t, part, self.backend,
                skip_parts=self.skip_parts, drop_part_col=True,
            ):
                man_part.append(p)
                man_run.append(r)
        return pa.table(
            {
                "part": pa.array(man_part, pa.int32()),
                "run": pa.array(man_run, pa.string()),
            }
        )


# ------------------------------------------------------------ segment stage


def _term_runs(
    sorted_t: pa.Table, salts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run boundaries of (field, term[, salt]) over a sorted table.

    ``salt`` is monotone in doc_id, so a (field, term, doc_id) sort already
    groups salts contiguously — it only needs to contribute to the change
    mask, not the sort."""
    fields = sorted_t["field"].to_numpy(zero_copy_only=False)
    term_idx = pc.dictionary_encode(
        sorted_t["term"].combine_chunks()
    ).indices.to_numpy(zero_copy_only=False)
    n = len(fields)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.logical_or(
        fields[1:] != fields[:-1], term_idx[1:] != term_idx[:-1], out=change[1:]
    )
    if salts is not None:
        change[1:] |= salts[1:] != salts[:-1]
    starts = np.nonzero(change)[0]
    ends = np.concatenate((starts[1:], [n]))
    return starts, ends


def _serving_rows_from_arrays(
    fields: np.ndarray,
    terms: pa.Array,
    df_global: np.ndarray,
    docs: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    n_buckets: int,
    pos_flat: np.ndarray | None = None,
    pos_offsets: np.ndarray | None = None,
) -> tuple[pa.Table, np.ndarray]:
    """Doc-range-bucketed serving rows straight from DECODED posting
    arrays (``starts``/``ends`` delimit each term) — one vectorized
    re-encode over (term x bucket) run boundaries, no blob decode pass.
    Returns (rows, bucket_of_row); ``df`` on every row is the term's
    global df."""
    n = len(docs)
    if n == 0:
        cols = {
            "field": pa.array([], pa.int8()),
            "term": pa.array([], pa.string()),
            "df": pa.array([], pa.int64()),
            "postings": pa.array([], pa.large_binary()),
            "skips": pa.array([], pa.large_binary()),
        }
        if pos_flat is not None:
            cols["positions"] = pa.array([], pa.large_binary())
        return pa.table(cols), np.empty(0, np.int32)
    df = (ends - starts).astype(np.int64)
    bucket = doc_bucket_of(docs, n_buckets)
    term_id = np.repeat(np.arange(len(starts), dtype=np.int64), df)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.logical_or(
        term_id[1:] != term_id[:-1], bucket[1:] != bucket[:-1],
        out=change[1:],
    )
    rstarts = np.nonzero(change)[0]
    rends = np.concatenate((rstarts[1:], [n]))
    pblobs, sblobs, posblobs = codec.encode_partition(
        docs, tfs, dls, rstarts, rends,
        pos_flat=pos_flat, pos_offsets=pos_offsets,
    )
    run_term = term_id[rstarts]
    take = pa.array(run_term, type=pa.int64())
    cols = {
        "field": pa.array(fields[run_term].astype(np.int8)),
        "term": terms.take(take),
        "df": pa.array(df_global[run_term], type=pa.int64()),
        "postings": pa.array(pblobs, pa.large_binary()),
        "skips": pa.array(sblobs, pa.large_binary()),
    }
    if posblobs is not None:
        cols["positions"] = pa.array(posblobs, pa.large_binary())
    return pa.table(cols), bucket[rstarts]


def _write_serving_buckets(
    rows: pa.Table, bucket_of_row: np.ndarray, srv_post_dir: str, tag: str
) -> None:
    """``tag`` must be deterministic per source partition so a retried
    task OVERWRITES its own files (atomic rename) instead of duplicating
    serving rows."""
    for b in np.unique(bucket_of_row):
        bdir = os.path.join(srv_post_dir, f"bucket={int(b)}")
        os.makedirs(bdir, exist_ok=True)
        _atomic_write_parquet(
            rows.filter(pa.array(bucket_of_row == b)),
            os.path.join(bdir, f"post-{tag}.parquet"),
        )


def _build_segment_table(
    group: pa.Table, store_positions: bool, keep_salt: bool = False,
    serving: tuple[str, int, str] | None = None,
) -> tuple[pa.Table, dict]:
    """Encode one shuffle partition's triples into segment rows + stats.

    With ``serving=(srv_post_dir, n_buckets, tag)``, ALSO emits the partition's
    doc-range-bucketed serving rows from the same decoded arrays — no
    second decode pass over the segment blobs."""
    sort_keys = [("field", "ascending"), ("term", "ascending"), ("doc_id", "ascending")]
    t = group.sort_by(sort_keys).combine_chunks()
    salts = (
        t["salt"].to_numpy(zero_copy_only=False)
        if keep_salt and "salt" in t.column_names
        else None
    )
    starts, ends = _term_runs(t, salts)
    fields = t["field"].to_numpy(zero_copy_only=False)
    terms = t["term"]
    docs = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    tfs = t["tf"].to_numpy(zero_copy_only=False)
    dls = t["dl"].to_numpy(zero_copy_only=False)
    pos_vals = pos_offs = None
    if store_positions and "positions" in t.column_names:
        plist = t["positions"].combine_chunks()
        pos_vals = plist.values.to_numpy(zero_copy_only=False)
        pos_offs = plist.offsets.to_numpy(zero_copy_only=False).astype(np.int64)

    postings_blobs, skips_blobs, pos_blobs = codec.encode_partition(
        docs, tfs, dls, starts, ends,
        pos_flat=pos_vals, pos_offsets=pos_offs,
    )
    if serving is not None:
        srv_dir, n_buckets, tag = serving
        term_take = pa.array(starts, type=pa.int64())
        rows, brow = _serving_rows_from_arrays(
            fields[starts], terms.take(term_take),
            (ends - starts).astype(np.int64),
            docs, tfs, dls, starts, ends, n_buckets,
            pos_flat=pos_vals, pos_offsets=pos_offs,
        )
        _write_serving_buckets(rows, brow, srv_dir, tag)
    # cf per term: segmented sum of tf (vectorized)
    cf = np.add.reduceat(tfs.astype(np.int64), starts)
    seg_cols = {
        "field": pa.array(fields[starts].astype(np.int8)),
        "term": terms.take(pa.array(starts, type=pa.int64())),
        "df": pa.array((ends - starts).astype(np.int64)),
        "cf": pa.array(cf, type=pa.int64()),
        "postings": pa.array(postings_blobs, type=pa.large_binary()),
        "skips": pa.array(skips_blobs, type=pa.large_binary()),
    }
    if pos_blobs is not None:
        seg_cols["positions"] = pa.array(pos_blobs, type=pa.large_binary())
    if keep_salt:
        seg_cols["first_doc"] = pa.array(
            docs[starts].astype(np.int64), type=pa.int64()
        )
    stats = {
        "n_terms": len(starts),
        "n_postings": int(len(docs)),
        "sum_tf_content": int(tfs[fields == 0].sum()),
        "sum_tf_path": int(tfs[fields == 1].sum()),
    }
    return pa.table(seg_cols), stats


def _atomic_write_parquet(table: pa.Table, final_path: str) -> str:
    """Serialize in memory (hash the bytes once, no read-back), then one
    write + atomic rename. Varint blobs don't benefit from page
    compression, so blob columns go uncompressed — halves write CPU."""
    sink = pa.BufferOutputStream()
    pq.write_table(table, sink, compression="none")
    buf = sink.getvalue()
    sha = hashlib.sha256(memoryview(buf)).hexdigest()
    tmp = f"{final_path}.tmp-{uuid.uuid4().hex}"
    with open(tmp, "wb") as fh:
        fh.write(memoryview(buf))
    os.replace(tmp, final_path)
    return sha


_LINEAGE_KEYS = (
    "part", "file", "sha256", "kind", "n_terms", "n_postings",
    "sum_tf_content", "sum_tf_path",
)


def _lineage_table(rows: list[dict]) -> pa.Table:
    return pa.table(
        {k: pa.array([r[k] for r in rows]) for k in _LINEAGE_KEYS}
    )


class _SegmentEncoder:
    """Per-partition encode task: read the partition's run files, build
    the segment, write it atomically.

    Parts < num_parts are final ("cold") segments. Parts >= num_parts are
    salted hot-term partitions: their per-(term, salt) posting runs are
    re-spilled through the hot-runs backend keyed by TERM GROUP, so the
    merge stage reads only its own terms' runs. Hot-run names are
    deterministic per (group, source part), so a retried encode task
    overwrites its own output instead of duplicating it."""

    def __init__(self, backend, seg_dir: str, hot_backend,
                 store_positions: bool, num_parts: int,
                 srv_post_dir: str | None = None, n_buckets: int = 16):
        self.backend = backend
        self.seg_dir = seg_dir
        self.hot_backend = hot_backend
        self.store_positions = store_positions
        self.num_parts = num_parts
        self.srv_post_dir = srv_post_dir
        self.n_buckets = n_buckets

    def __call__(self, items: pa.Table) -> pa.Table:
        out = []
        for item in items.to_pylist():
            part = int(item["part"])
            triples = self.backend.read_runs(part, item["runs"])
            is_run = part >= self.num_parts
            # cold parts emit serving slices from the same decoded arrays;
            # hot (salted) parts defer to the merge stage's full lists
            serving = (
                (self.srv_post_dir, self.n_buckets, f"cold{part}")
                if (self.srv_post_dir and not is_run)
                else None
            )
            table, stats = _build_segment_table(
                triples, self.store_positions, keep_salt=is_run,
                serving=serving,
            )
            if is_run:
                # re-spill keyed by TERM GROUP (4*num_parts groups), not by
                # final partition: hot terms are few and enormous, so
                # final-partition merge tasks were skew-bound (a partition
                # holding 2-3 giant terms set the stage's critical path).
                # Term-group tasks spread giants over independent workers.
                fid = table["field"].to_numpy(zero_copy_only=False)
                th = term_hash(table["term"].combine_chunks(), fid)
                groups = (th % np.uint64(4 * self.num_parts)).astype(np.int64)
                ug = np.unique(groups)
                pairs = [
                    (int(g_), table.filter(pa.array(groups == g_)))
                    for g_ in ug
                ]
                man = self.hot_backend.write_many(
                    pairs,
                    names=[f"runs-{part}-g{int(g_)}.arrow" for g_ in ug],
                )
                # "hotrun" rows carry the (group, run) manifest so the
                # merge stage reads exactly the successful attempts' runs
                for g_, run in man:
                    out.append(
                        {"part": int(g_), "file": run, "sha256": "",
                         "kind": "hotrun", "n_terms": 0, "n_postings": 0,
                         "sum_tf_content": 0, "sum_tf_path": 0}
                    )
                out.append(
                    {"part": part, "file": "", "sha256": "", "kind": "run", **stats}
                )
            else:
                pdir = os.path.join(self.seg_dir, f"part={part}")
                os.makedirs(pdir, exist_ok=True)
                fname = "seg-cold.parquet"
                sha = _atomic_write_parquet(table, os.path.join(pdir, fname))
                lineage = {"part": part, "file": fname, "sha256": sha,
                           "kind": "cold", **stats}
                with open(os.path.join(pdir, "_lineage-cold.json"), "w") as fh:
                    json.dump(lineage, fh)
                out.append(lineage)
        return _lineage_table(out)


class _HotMerger:
    """Per-term-group merge task: concatenate each hot term's doc-range-
    ordered runs back into one posting list (byte-identical to the
    unsalted encoding) and write each term into its FINAL partition's
    seg-hot-g{group} file (several group files per partition compose the
    partition's hot terms)."""

    def __init__(self, hot_backend, seg_dir: str, store_positions: bool,
                 num_parts: int,
                 srv_post_dir: str | None = None, n_buckets: int = 16):
        self.hot_backend = hot_backend
        self.seg_dir = seg_dir
        self.store_positions = store_positions
        self.num_parts = num_parts
        self.srv_post_dir = srv_post_dir
        self.n_buckets = n_buckets

    def _merge_term(self, g: pa.Table):
        g = g.sort_by([("first_doc", "ascending")])
        docs_l, tfs_l, pos_l, dls_l = [], [], [], []
        for i in range(g.num_rows):
            d, f, l = codec.decode_posting_list(g["postings"][i].as_py())
            docs_l.append(d)
            tfs_l.append(f)
            dls_l.append(l)
            if self.store_positions:
                flat, _ = codec.decode_positions(g["positions"][i].as_py(), f)
                pos_l.append(flat)
        docs = np.concatenate(docs_l)
        tfs = np.concatenate(tfs_l)
        dls = np.concatenate(dls_l)
        blob, skips = codec.encode_posting_list(docs, tfs, dls)
        row = {
            "field": int(g["field"][0].as_py()),
            "term": g["term"][0].as_py(),
            "df": len(docs),
            "cf": int(tfs.sum()),
            "postings": blob,
            "skips": skips,
        }
        pos_flat = None
        if self.store_positions:
            pos_flat = np.concatenate(pos_l)
            row["positions"] = codec.encode_positions(pos_flat, tfs)
        return row, docs, tfs, dls, pos_flat

    def __call__(self, items: pa.Table) -> pa.Table:
        out = []
        for item in items.to_pylist():
            group = int(item["group"])
            runs = self.hot_backend.read_runs(group, item["runs"])
            runs = runs.sort_by([("field", "ascending"), ("term", "ascending")])
            fields = runs["field"].to_numpy(zero_copy_only=False)
            tidx = pc.dictionary_encode(
                runs["term"].combine_chunks()
            ).indices.to_numpy(zero_copy_only=False)
            n = len(fields)
            change = np.empty(n, dtype=bool)
            change[0] = True
            np.logical_or(fields[1:] != fields[:-1], tidx[1:] != tidx[:-1],
                          out=change[1:])
            starts = np.nonzero(change)[0]
            ends = np.concatenate((starts[1:], [n]))
            merged = [self._merge_term(runs.slice(s, e - s)) for s, e in zip(starts, ends)]
            rows = [m[0] for m in merged]
            if self.srv_post_dir and merged:
                # serving slices straight from the merged arrays
                docs_all = np.concatenate([m[1] for m in merged])
                tfs_all = np.concatenate([m[2] for m in merged])
                dls_all = np.concatenate([m[3] for m in merged])
                dfs = np.array([len(m[1]) for m in merged], np.int64)
                tstarts = np.concatenate(([0], np.cumsum(dfs)))[:-1]
                tends = tstarts + dfs
                pos_flat = pos_offs = None
                if self.store_positions:
                    pos_flat = np.concatenate([m[4] for m in merged])
                    pos_offs = np.concatenate(
                        ([0], np.cumsum(tfs_all.astype(np.int64)))
                    )
                srv_rows, brow = _serving_rows_from_arrays(
                    np.array([r["field"] for r in rows], np.int64),
                    pa.array([r["term"] for r in rows], pa.string()),
                    dfs,
                    docs_all, tfs_all, dls_all, tstarts, tends,
                    self.n_buckets,
                    pos_flat=pos_flat, pos_offsets=pos_offs,
                )
                _write_serving_buckets(
                    srv_rows, brow, self.srv_post_dir, f"hot{group}"
                )
            cols = {
                "field": pa.array(np.array([r["field"] for r in rows], np.int8)),
                "term": pa.array([r["term"] for r in rows], pa.string()),
                "df": pa.array([r["df"] for r in rows], pa.int64()),
                "cf": pa.array([r["cf"] for r in rows], pa.int64()),
                "postings": pa.array([r["postings"] for r in rows], pa.large_binary()),
                "skips": pa.array([r["skips"] for r in rows], pa.large_binary()),
            }
            if self.store_positions:
                cols["positions"] = pa.array(
                    [r["positions"] for r in rows], pa.large_binary()
                )
            table = pa.table(cols)
            # each term lands in its FINAL partition's dir; one file per
            # (group, final)
            fidv = table["field"].to_numpy(zero_copy_only=False)
            thv = term_hash(table["term"].combine_chunks(), fidv)
            finals = (thv % np.uint64(self.num_parts)).astype(np.int64)
            fname = f"seg-hot-g{group}.parquet"
            for f_ in np.unique(finals):
                sub = table.filter(pa.array(finals == f_))
                pdir = os.path.join(self.seg_dir, f"part={int(f_)}")
                os.makedirs(pdir, exist_ok=True)
                sha = _atomic_write_parquet(sub, os.path.join(pdir, fname))
                out.append(
                    {
                        "part": int(f_), "file": fname, "sha256": sha,
                        "kind": "hot", "n_terms": sub.num_rows,
                        "n_postings": int(pc.sum(sub["df"]).as_py() or 0),
                        "sum_tf_content": int(pc.sum(
                            pc.if_else(pc.equal(sub["field"], 0), sub["cf"], 0)
                        ).as_py() or 0),
                        "sum_tf_path": int(pc.sum(
                            pc.if_else(pc.equal(sub["field"], 1), sub["cf"], 0)
                        ).as_py() or 0),
                    }
                )
        return _lineage_table(out)


# --------------------------------------------------------- serving layout


def doc_bucket_of(doc_ids: np.ndarray, n_buckets: int) -> np.ndarray:
    """Doc-range bucket of each doc_id: top bits of the 63-bit uniform
    content-addressed id (monotone in doc_id, so posting-list slices per
    bucket are contiguous runs)."""
    bits = n_buckets.bit_length() - 1
    return (doc_ids.astype(np.uint64) >> np.uint64(63 - bits)).astype(np.int32)


def _bucket_docs_batch(t: pa.Table, out_dir: str, n_buckets: int) -> pa.Table:
    """Spill a docs batch into per-bucket parquet files (serving doc
    metadata: shards read only their buckets). File tag is content-
    derived so a retried task overwrites rather than duplicates."""
    if t.num_rows == 0:
        return pa.table({"rows": pa.array([], pa.int64())})
    ids = t["doc_id"].to_numpy().astype(np.uint64)
    bucket = doc_bucket_of(ids, n_buckets)
    order = np.argsort(bucket, kind="stable")
    t = t.take(pa.array(order, type=pa.int64()))
    bs = bucket[order]
    starts = np.nonzero(np.concatenate(([True], bs[1:] != bs[:-1])))[0]
    ends = np.concatenate((starts[1:], [len(bs)]))
    tag = hashlib.sha256(ids.tobytes()).hexdigest()[:12]
    for s, e in zip(starts, ends):
        bdir = os.path.join(out_dir, f"bucket={int(bs[s])}")
        os.makedirs(bdir, exist_ok=True)
        _atomic_write_parquet(
            t.slice(s, e - s), os.path.join(bdir, f"docs-{tag}-{int(bs[s])}.parquet")
        )
    return pa.table({"rows": pa.array([t.num_rows], pa.int64())})


def _prune_stale_serving(staging: str, done_parts: set[int]) -> None:
    """Delete serving files this attempt will regenerate: every hot tag
    (all hot groups re-merge each attempt, and the grouping can shift
    with the sampled hot-term set), cold tags of parts NOT in
    ``done_parts``, and the whole serving/docs dir (rebuilt wholesale by
    ``_build_serving_docs``). Without this a crashed attempt's
    differently-tagged files survive alongside the rerun's and duplicate
    serving rows (ADVICE r2)."""
    import shutil

    post = os.path.join(staging, "serving", "post")
    if os.path.isdir(post):
        for b in os.listdir(post):
            bdir = os.path.join(post, b)
            if not os.path.isdir(bdir):
                continue
            for f in os.listdir(bdir):
                if not (f.startswith("post-") and f.endswith(".parquet")):
                    continue
                tag = f[len("post-"):-len(".parquet")]
                keep = (
                    tag.startswith("cold")
                    and tag[4:].isdigit()
                    and int(tag[4:]) in done_parts
                )
                if not keep:
                    try:
                        os.unlink(os.path.join(bdir, f))
                    except OSError:
                        pass
    shutil.rmtree(os.path.join(staging, "serving", "docs"), ignore_errors=True)


def _build_serving_docs(
    staging: str, docs_dir: str, cfg: IndexConfig, local: bool = False
) -> None:
    """Bucket the doc-metadata table for serving (posting slices are
    emitted inline by the segment-encode / hot-merge stages)."""
    B = cfg.serving_buckets
    assert B & (B - 1) == 0, "serving_buckets must be a power of two"
    if os.path.isdir(docs_dir):
        docs_out = os.path.join(staging, "serving", "docs")
        _map_stage(
            lambda t: _bucket_docs_batch(t, docs_out, B),
            pq.read_table(docs_dir) if local
            else ray.data.read_parquet(docs_dir),
        )


# ------------------------------------------------------------------- build


def sample_dfs(t: pa.Table) -> pa.Table:
    """Per-term doc counts of one sample batch, plus its doc count."""
    pieces = []
    for fname in FIELDS:
        tf_t, _ = term_frequencies(t[fname], with_positions=False)
        g = pa.TableGroupBy(tf_t, ["term"], use_threads=False).aggregate(
            [("row", "count")]
        )
        pieces.append(
            pa.table({"term": g["term"], "df": g["row_count"]})
        )
    out = pa.concat_tables(pieces)
    out = out.append_column(
        "n_docs", pa.array([t.num_rows] + [0] * (out.num_rows - 1), pa.int64())
        if out.num_rows
        else pa.array([], pa.int64()),
    )
    return out


def estimate_hot_terms(
    ds: ray.data.Dataset | pa.Table, threshold: int | None, sample_docs: int
) -> frozenset[str]:
    """Estimate terms whose corpus df will exceed ``threshold`` from a doc
    sample (selection only steers salting; any set yields identical output).

    An Arrow table samples its first ``sample_docs`` rows in process; a
    Dataset samples through a ``limit`` pipeline."""
    if isinstance(ds, pa.Table):
        tbls = [sample_dfs(ds.slice(0, sample_docs))]
    else:
        partials = (
            ds.limit(sample_docs)
            .map_batches(sample_dfs, batch_format="pyarrow")
            .to_arrow_refs()
        )
        import ray as _ray

        tbls = [_ray.get(r) for r in partials]
    # empty upstream blocks pass through map_batches schema-less
    # (zero columns) — drop them before the concat
    tbls = [t for t in tbls if t.num_rows and t.num_columns]
    if not tbls:
        return frozenset()
    tbl = pa.concat_tables(tbls)
    if tbl.num_rows == 0:
        return frozenset()
    n_seen = int(pc.sum(tbl["n_docs"]).as_py() or 0)
    g = pa.TableGroupBy(tbl, ["term"]).aggregate([("df", "sum")])
    dfs = g["df_sum"].to_numpy()
    if threshold is None:
        # AUTO rule ("auto" config): hot = appears in >=10% of sampled
        # docs == absolute threshold n_docs/10 without a count pass.
        # Guard: only engage once the sample is FULL (>= the configured
        # sample size, capped at 2000), so tiny corpora (tests, toy
        # builds) stay unsalted while a tuned-down df_sample_docs still
        # salts — the guard scales with the knob instead of silently
        # disabling auto salting below a fixed constant.
        if n_seen < min(2000, sample_docs):
            return frozenset()
        hot = g["term"].filter(pa.array(dfs >= 0.1 * n_seen))
        return frozenset(hot.to_pylist())
    total = ds.num_rows if isinstance(ds, pa.Table) else ds.count()
    scale = max(1.0, total / max(n_seen, 1))
    hot = g["term"].filter(pa.array(dfs * scale >= threshold))
    return frozenset(hot.to_pylist())


def build_index(
    corpus: str | ray.data.Dataset | pa.Table,
    index_dir: str,
    config: IndexConfig | None = None,
    *,
    resume: bool = False,
    epoch: str | None = None,
    commit_root: bool = True,
) -> dict:
    """Build (or resume building) the index; returns the committed manifest.

    ``corpus`` is a parquet path, a Ray Dataset or an Arrow table. A
    table runs every stage in this process (module docstring)."""
    import time as _time

    _t0 = _time.perf_counter()
    _phase = {}

    def _mark(name):
        _phase[name] = round(_time.perf_counter() - _t0 - sum(_phase.values()), 2)
        if os.environ.get("CK_BUILD_VERBOSE"):
            print(f"[build] {name}: {_phase[name]}s", flush=True)

    cfg = config or IndexConfig()
    local = isinstance(corpus, pa.Table)
    ds = (
        ray.data.read_parquet(corpus)
        if isinstance(corpus, str)
        else corpus
    )
    os.makedirs(index_dir, exist_ok=True)
    epoch = epoch or "epoch-0001"
    staging = os.path.join(index_dir, f"_staging-{epoch}")
    final_dir = os.path.join(index_dir, epoch)
    if os.path.exists(final_dir) and not resume:
        raise FileExistsError(f"{final_dir} already committed")
    os.makedirs(staging, exist_ok=True)
    seg_dir = os.path.join(staging, "segments")
    os.makedirs(seg_dir, exist_ok=True)

    # ---- hot-term estimate (optional)
    hot_terms: frozenset[str] | None = None
    if cfg.hot_df_threshold is not None:
        thr = (
            None if cfg.hot_df_threshold == "auto"
            else cfg.hot_df_threshold
        )
        hot_terms = estimate_hot_terms(ds, thr, cfg.df_sample_docs)
    _mark("hot_estimate")

    # ---- resume bookkeeping: parts already on disk are skipped pre-shuffle
    done_parts: set[int] = set()
    if resume:
        for d in os.listdir(seg_dir) if os.path.exists(seg_dir) else []:
            lj = os.path.join(seg_dir, d, "_lineage-cold.json")
            if os.path.exists(lj):
                rec = json.load(open(lj))
                f = os.path.join(seg_dir, d, rec["file"])
                if os.path.exists(f) and hashlib.sha256(
                    open(f, "rb").read()
                ).hexdigest() == rec["sha256"]:
                    done_parts.add(rec["part"])

    # ---- groupby(term-partition) via the SPIMI run exchange: tokenize
    # tasks spill per-partition runs through the exchange backend and
    # return a (part, run) manifest; the encode stage reads EXACTLY the
    # manifested runs, so a Ray-retried task's orphan runs (first attempt
    # crashed mid-spill) are never read, let alone double-counted.
    launch = uuid.uuid4().hex[:8]
    backend, hot_backend = cfg.make_backends(staging, launch, local)
    docs_launch_dir = os.path.join(staging, f"docs-{launch}")
    # drop serving files this attempt will regenerate (crashed attempts
    # leave differently-tagged files behind otherwise)
    _prune_stale_serving(staging, done_parts)
    man = _map_stage(
        _TriplesBatcher(
            cfg.num_parts, cfg.store_positions, hot_terms, cfg.salt_buckets,
            backend, frozenset(done_parts), docs_launch_dir,
            skip_binary=cfg.skip_binary,
        ),
        ds,
        cfg.batch_size,
    )
    # promote ONLY manifested docs files: a crashed attempt's orphan
    # docs-*.parquet can never duplicate doc-metadata rows
    docs_files = (
        man.loc[man["part"] == -1, "run"].tolist() if len(man) else []
    )
    docs_dir = os.path.join(staging, "docs")
    import shutil as _sh

    if os.path.exists(docs_dir):
        _sh.rmtree(docs_dir)
    os.makedirs(docs_dir)
    for f in docs_files:
        os.replace(
            os.path.join(docs_launch_dir, f), os.path.join(docs_dir, f)
        )
    n_docs = sum(
        pq.read_metadata(os.path.join(docs_dir, f)).num_rows
        for f in docs_files
    )
    _mark("tokenize_spill")
    if n_docs <= 2_000_000:  # content-addressed id uniqueness (cheap at test scale)
        import pyarrow.dataset as pads

        idcol = pads.dataset(docs_dir).to_table(columns=["doc_id"])["doc_id"]
        if len(pc.unique(idcol)) != n_docs:
            raise RuntimeError("doc_id collision — content-addressed ids not unique")

    runs_man = man[man["part"] >= 0] if len(man) else man
    runs_by_part: dict[int, list[str]] = (
        {int(p): g["run"].tolist() for p, g in runs_man.groupby("part")}
        if len(runs_man)
        else {}
    )
    lineage: list[dict] = []
    hotrun_by_group: dict[int, list[str]] = {}
    if runs_by_part:
        items = _task_items(
            [
                {"part": p, "runs": rs}
                for p, rs in sorted(runs_by_part.items())
            ],
            local,
        )
        enc_rows = _map_stage(
            _SegmentEncoder(
                backend, seg_dir, hot_backend,
                cfg.store_positions, cfg.num_parts,
                srv_post_dir=os.path.join(staging, "serving", "post"),
                n_buckets=cfg.serving_buckets,
            ),
            items, 1,
        ).to_dict("records")
        lineage += [r for r in enc_rows if r["kind"] == "cold"]
        for r in enc_rows:
            if r["kind"] == "hotrun":
                hotrun_by_group.setdefault(int(r["part"]), []).append(
                    r["file"]
                )
    _mark("encode_segments")

    if hotrun_by_group:
        fitems = _task_items(
            [
                {"group": g, "runs": rs}
                for g, rs in sorted(hotrun_by_group.items())
            ],
            local,
        )
        lineage += _map_stage(
            _HotMerger(
                hot_backend, seg_dir, cfg.store_positions,
                cfg.num_parts,
                srv_post_dir=os.path.join(staging, "serving", "post"),
                n_buckets=cfg.serving_buckets,
            ),
            fitems, 1,
        ).to_dict("records")
    _mark("hot_merge")
    # ---- serving doc metadata (posting slices were emitted inline by
    # the encode/merge stages straight from their decoded arrays)
    _build_serving_docs(staging, docs_dir, cfg, local)
    _mark("serving_docs")
    backend.cleanup()
    hot_backend.cleanup()
    import shutil

    for d in os.listdir(staging):
        if d.startswith("docs-"):
            shutil.rmtree(os.path.join(staging, d), ignore_errors=True)
    # previously-done parts re-enter the manifest from their markers
    for p in sorted(done_parts):
        lineage.append(json.load(open(os.path.join(seg_dir, f"part={p}", "_lineage-cold.json"))))

    total_content = int(sum(r["sum_tf_content"] for r in lineage))
    total_path = int(sum(r["sum_tf_path"] for r in lineage))
    manifest = {
        "version": 1,
        "epoch": epoch,
        "num_docs": n_docs,
        "num_parts": cfg.num_parts,
        "num_serving_buckets": cfg.serving_buckets,
        "doc_preview": True,
        "store_positions": cfg.store_positions,
        "fields": manifest_fields(
            {"content": total_content, "path": total_path}, n_docs
        ),
        "parts": sorted(lineage, key=lambda r: (r["part"], r.get("kind", "cold"))),
        "hot_terms": sorted(hot_terms) if hot_terms else [],
        # epoch-versioned segment sets: incremental updates append epochs;
        # a doc's live posting lives in the LAST epoch whose docs table
        # contains it (earlier entries are superseded), deletions are
        # recorded per update in <epoch>/deleted.parquet
        "epochs": [epoch],
    }
    _mark("tail")
    with open(os.path.join(staging, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=1)
    # ---- atomic commit: staging dir -> epoch dir, then root manifest
    os.replace(staging, final_dir)
    root_manifest = dict(manifest, epoch_dir=epoch)
    if commit_root:
        commit_manifest(index_dir, root_manifest)
    return root_manifest


def manifest_fields(totals: dict[str, int], n_docs: int) -> dict:
    """The manifest's ``fields`` block: total tokens and avgdl per field,
    from ``totals`` (field name -> total tokens)."""
    return {
        f: {
            "field_id": fid,
            "total_tokens": totals[f],
            "avgdl": (totals[f] / n_docs) if n_docs else 0.0,
        }
        for fid, f in enumerate(FIELDS)
    }


def commit_manifest(index_dir: str, manifest: dict) -> None:
    """Atomically replace the index's root manifest: write a tmp file,
    then ``os.replace`` it over ``manifest.json``."""
    tmp = os.path.join(index_dir, f".{MANIFEST_NAME}.tmp-{uuid.uuid4().hex}")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1)
    os.replace(tmp, os.path.join(index_dir, MANIFEST_NAME))


def load_manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, MANIFEST_NAME)) as fh:
        return json.load(fh)


def next_epoch(index_dir: str, manifest: dict) -> str:
    """The index's next epoch name, ``epoch-NNNN``: one past the highest
    number among the manifest's epochs and the ``epoch-*`` dirs on disk.
    A name is never reused, also after a compaction, whose one epoch
    carries the highest number while the older dirs are removed."""
    names = [
        *manifest.get("epochs", [manifest["epoch_dir"]]),
        *os.listdir(index_dir),
    ]
    nums = [int(m[1]) for n in names if (m := re.match(r"epoch-(\d+)", n))]
    return f"epoch-{max(nums, default=0) + 1:04d}"


def index_stats(index_dir: str) -> dict:
    """Corpus/index statistics (the reference's ``get_index_stats``,
    ``ck-index/src/lib.rs:655-708``), from manifest + lineage — no data
    scan."""
    man = load_manifest(index_dir)
    seg_bytes = 0
    n_terms = 0
    n_postings = 0
    for e in man.get("epochs", [man["epoch_dir"]]):
        seg_root = os.path.join(index_dir, e, "segments")
        if not os.path.isdir(seg_root):
            continue
        for pdir, _, files in os.walk(seg_root):
            for f in files:
                if f.endswith(".parquet"):
                    seg_bytes += os.path.getsize(os.path.join(pdir, f))
    for r in man.get("parts", []):
        if r.get("kind") in ("cold", "hot"):
            n_terms += r["n_terms"]
            n_postings += r["n_postings"]
    return {
        "num_docs": man["num_docs"],
        "num_epochs": len(man.get("epochs", [man["epoch_dir"]])),
        "total_tokens_content": man["fields"]["content"]["total_tokens"],
        "total_tokens_path": man["fields"]["path"]["total_tokens"],
        "avgdl_content": man["fields"]["content"]["avgdl"],
        "n_terms": n_terms,
        "n_postings": n_postings,
        "segment_bytes": seg_bytes,
        "num_parts": man["num_parts"],
        "hot_terms": len(man.get("hot_terms", [])),
    }
