"""Small deltas: ``incremental_update`` of a parquet path of at most
``IN_PROCESS_MAX_BYTES`` runs ``build_index``'s stages in this process.

- The in-process and Ray Data executors commit identical epochs.
- Such a delta starts no Ray Data job, so it also commits when no CPU is
  left for a Ray Data task (one logical CPU, an engine open).
- Binary rows, which the build skips, are skipped by the diff too: a
  same-corpus update is a no-op and incremental == rebuild holds.
"""

import hashlib
import itertools
import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ck_ray.build as ckb
import ck_ray.incremental as inc
from ck_ray.ids import doc_id_column
from ck_ray.incremental import incremental_update
from ck_ray.query import BM25Engine

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FRESH = "fresh_delta_tok"


def _to_path(t: pa.Table, d) -> str:
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, os.path.join(d, "part-0.parquet"))
    return str(d)


def _delta(corpus: pa.Table, n: int = 20) -> pa.Table:
    """The first ``n`` rows, each edited to carry ``FRESH``."""
    rows = corpus.slice(0, n)
    col = rows.schema.get_field_index("content")
    edited = [c + f"\n{FRESH} merge window\n" for c in rows["content"].to_pylist()]
    return rows.set_column(col, "content", pa.array(edited))


def _ids(t: pa.Table) -> set[int]:
    return set(doc_id_column(t["repo"], t["path"], t["commit"]).to_numpy().tolist())


def _file_shas(epoch_dir: str, sub: str) -> dict[str, str]:
    root = os.path.join(epoch_dir, sub)
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _row_set(epoch_dir: str, sub: str) -> list[tuple]:
    t = pq.read_table(os.path.join(epoch_dir, sub))
    return sorted(tuple(r.values()) for r in t.to_pylist())


@pytest.mark.parametrize("backend", ["fs", "actor"])
def test_executors_commit_identical_epochs(
    ray_session, tiny_corpus, tmp_path, backend
):
    import ray.data

    cfg = lambda: ckb.IndexConfig(  # noqa: E731
        num_parts=4, exchange_backend=backend, exchange_num_owners=2
    )
    base = str(tmp_path / "base")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), base, cfg())
    delta = _to_path(_delta(tiny_corpus), tmp_path / "delta")
    d_local, d_ray = str(tmp_path / "local"), str(tmp_path / "ray")
    shutil.copytree(base, d_local)
    shutil.copytree(base, d_ray)

    man_local = incremental_update(delta, d_local, cfg(), additive=True)
    man_ray = incremental_update(
        ray.data.read_parquet(delta), d_ray, cfg(), additive=True
    )
    assert man_local["n_changed"] == 20
    assert man_local == man_ray
    e_local = os.path.join(d_local, "epoch-0002")
    e_ray = os.path.join(d_ray, "epoch-0002")
    assert ckb.load_manifest(e_local) == ckb.load_manifest(e_ray)
    for sub in ("segments", "serving/post"):
        shas = _file_shas(e_local, sub)
        assert shas and shas == _file_shas(e_ray, sub), sub
    for sub in ("docs", "serving/docs"):
        rows = _row_set(e_local, sub)
        assert len(rows) == 20 and rows == _row_set(e_ray, sub), sub


def test_small_path_delta_starts_no_ray_data_job(
    ray_session, tiny_corpus, tmp_path, monkeypatch
):
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    delta_t = _delta(tiny_corpus)
    delta = _to_path(delta_t, tmp_path / "delta")

    def no_ray_data(*args, **kwargs):
        raise AssertionError("a small path delta started a Ray Data job")

    eng = BM25Engine(d, num_shards=2)
    try:
        monkeypatch.setattr(ray.data, "read_parquet", no_ray_data)
        monkeypatch.setattr(ray.data, "from_items", no_ray_data)
        monkeypatch.setattr(ray.data.Dataset, "map_batches", no_ray_data)
        monkeypatch.setattr(ray.data.Dataset, "limit", no_ray_data)
        man = incremental_update(delta, d, cfg, additive=True)
        assert man["n_changed"] == 20 and len(man["epochs"]) == 2
        docs, _ = eng.search_raw(FRESH, 50)
        assert set(docs.tolist()) == _ids(delta_t)
    finally:
        eng.close()


def test_small_delta_on_actor_backend_starts_no_owner_actors(
    ray_session, tiny_corpus, tmp_path, monkeypatch
):
    """The in-process executor exchanges through the fs backend whatever
    the configured backend: it starts no partition-owner actors."""
    import ray.data

    cfg = ckb.IndexConfig(
        num_parts=4, exchange_backend="actor", exchange_num_owners=2
    )
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    delta_t = _delta(tiny_corpus)
    delta = _to_path(delta_t, tmp_path / "delta")

    def no_actors(*args, **kwargs):
        raise AssertionError("a small path delta built an ActorExchange")

    monkeypatch.setattr(ckb, "ActorExchange", no_actors)
    man = incremental_update(delta, d, cfg, additive=True)
    assert man["n_changed"] == 20 and len(man["epochs"]) == 2
    eng = BM25Engine(d, num_shards=2)
    try:
        docs, _ = eng.search_raw(FRESH, 50)
        assert set(docs.tolist()) == _ids(delta_t)
    finally:
        eng.close()


def test_in_process_bound_is_inclusive(tiny_corpus, tmp_path, monkeypatch):
    delta = _to_path(_delta(tiny_corpus), tmp_path / "delta")
    size = inc._footer_bytes(pq.ParquetDataset(delta), 1 << 40)
    assert 0 < size <= inc.IN_PROCESS_MAX_BYTES
    monkeypatch.setattr(inc, "IN_PROCESS_MAX_BYTES", size)
    assert inc._small_table(delta).equals(pq.read_table(delta))
    monkeypatch.setattr(inc, "IN_PROCESS_MAX_BYTES", size - 1)
    assert inc._small_table(delta) is None
    assert inc._small_table(ckb.build_index) is None  # not a path


def test_small_delta_on_non_local_filesystem(
    ray_session, tiny_corpus, tmp_path, monkeypatch
):
    """A corpus URI resolves to a filesystem whose file paths mean nothing
    to the local one (``s3://bucket/dir`` gives ``bucket/dir/...``). A
    subtree filesystem fakes that: its paths are relative to its root, so
    the footers commit only if they are read through the dataset's own
    filesystem."""
    import pyarrow.fs as pafs
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    d = str(tmp_path / "idx")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d, cfg)
    delta_t = _delta(tiny_corpus)
    _to_path(delta_t, tmp_path / "remote" / "delta")
    fs = pafs.SubTreeFileSystem(str(tmp_path / "remote"), pafs.LocalFileSystem())
    real = pq.ParquetDataset
    monkeypatch.setattr(
        pq, "ParquetDataset", lambda p, **kw: real(p, filesystem=fs, **kw)
    )
    monkeypatch.chdir(tmp_path)  # "delta" must not resolve locally
    man = incremental_update("delta", d, cfg, additive=True)
    assert man["n_changed"] == 20 and len(man["epochs"]) == 2
    eng = BM25Engine(d, num_shards=1)
    try:
        docs, _ = eng.search_raw(FRESH, 50)
        assert set(docs.tolist()) == _ids(delta_t)
    finally:
        eng.close()


_ONE_CPU_SCRIPT = r"""
import os, sys
import pyarrow as pa, pyarrow.parquet as pq, ray, ray.data
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
ray.data.DataContext.get_current().enable_progress_bars = False
import ck_ray.build as ckb
from ck_ray.corpus import generate_corpus
from ck_ray.incremental import incremental_update
from ck_ray.query import BM25Engine

work = sys.argv[1]
corpus = generate_corpus(n_files=60, seed=11)
cfg = ckb.IndexConfig(num_parts=2, exchange_backend="fs",
                      exchange_root=os.path.join(work, "exchange"))
idx = os.path.join(work, "idx")
ckb.build_index(ray.data.from_arrow(corpus), idx, cfg)
eng = BM25Engine(idx, num_shards=1)  # holds half of the one CPU
rows = corpus.slice(0, 5)
col = rows.schema.get_field_index("content")
rows = rows.set_column(col, "content", pa.array(
    [c + "\nonecpu_fresh_tok\n" for c in rows["content"].to_pylist()]))
pq.write_table(rows, os.path.join(work, "delta.parquet"))
man = incremental_update(os.path.join(work, "delta.parquet"), idx, cfg,
                         additive=True)
docs, _ = eng.search_raw("onecpu_fresh_tok", 10)
print("RESULT", man["n_changed"], len(docs), flush=True)
eng.close()
ray.shutdown()
"""


def test_small_delta_commits_with_one_logical_cpu(tmp_path):
    """With ``num_cpus=1`` and a 1-shard engine open, a Ray Data task never
    gets a CPU, so a delta on the Ray Data executor waits forever. A small
    path delta starts no task and commits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCRIPT, str(tmp_path)],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("small delta did not commit within 300 s on one CPU")
    assert proc.returncode == 0, err[-3000:]
    assert "RESULT 5 5" in out, out + err[-3000:]


# --------------------------------------------------------- binary rows

BINARY_ROW = {
    "repo": "org0/repo0", "path": "assets/blob.bin", "commit": "b" * 40,
    "lang": "unknown", "content": "\x00\x01\x02 merge window binary payload",
}


def _with_binary(t: pa.Table) -> pa.Table:
    return pa.concat_tables(
        [t, pa.Table.from_pylist([BINARY_ROW], schema=t.schema)]
    )


def _edit(t: pa.Table, rows: list[int], suffix: str) -> pa.Table:
    content = t["content"].to_pylist()
    for i in rows:
        content[i] += suffix
    col = t.schema.get_field_index("content")
    return t.set_column(col, "content", pa.array(content))


def _inputs(kind: str, tmp_path):
    """Turns a table into the update's input: a Dataset (Ray Data
    executor) or a small parquet path (in-process executor)."""
    import ray.data

    if kind == "dataset":
        return ray.data.from_arrow
    n = itertools.count()
    return lambda t: _to_path(t, tmp_path / f"in{next(n)}")


@pytest.mark.parametrize("kind", ["path", "dataset"])
def test_binary_row_same_corpus_update_is_noop(
    ray_session, tiny_corpus, tmp_path, kind
):
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    corpus = _with_binary(tiny_corpus)
    d = str(tmp_path / "idx")
    man = ckb.build_index(ray.data.from_arrow(corpus), d, cfg)
    assert man["num_docs"] == tiny_corpus.num_rows
    before = ckb.load_manifest(d)
    as_input = _inputs(kind, tmp_path)
    assert incremental_update(as_input(corpus), d, cfg) == before
    assert incremental_update(as_input(corpus), d, cfg, additive=True) == before
    assert ckb.load_manifest(d) == before


@pytest.mark.parametrize("kind", ["path", "dataset"])
@pytest.mark.parametrize("mode", ["full", "additive", "deletions_only"])
def test_binary_row_incremental_equals_rebuild(
    ray_session, tiny_corpus, tmp_path, mode, kind
):
    """The update's input carries a binary row; the rebuild's corpus too."""
    import ray.data

    cfg = ckb.IndexConfig(num_parts=4, batch_size=64)
    as_input = _inputs(kind, tmp_path)
    d_inc = str(tmp_path / "inc")
    ckb.build_index(ray.data.from_arrow(tiny_corpus), d_inc, cfg)
    edited = _edit(tiny_corpus, list(range(0, 20, 4)), "\nbin_mode_tok merge\n")
    if mode == "full":
        update, final = edited.slice(5), edited.slice(5)
        kw = {}
    elif mode == "additive":
        update, final = edited.slice(0, 20), edited
        kw = {"additive": True}
    else:
        update, final = tiny_corpus.slice(7), tiny_corpus.slice(7)
        kw = {"deletions_only": True}
    man = incremental_update(as_input(_with_binary(update)), d_inc, cfg, **kw)
    assert len(man["epochs"]) == 2

    d_full = str(tmp_path / "full")
    man_full = ckb.build_index(ray.data.from_arrow(_with_binary(final)), d_full, cfg)
    assert man["num_docs"] == man_full["num_docs"] == final.num_rows
    assert man["fields"] == man_full["fields"]
    eng_inc = BM25Engine(d_inc, num_shards=2)
    eng_full = BM25Engine(d_full, num_shards=2)
    try:
        for q in ("merge", "bin_mode_tok", "the merge window", "path:src"):
            di, si = eng_inc.search_raw(q, 50)
            df_, sf = eng_full.search_raw(q, 50)
            assert di.tolist() == df_.tolist(), f"{q}: docs differ"
            assert np.array_equal(si, sf), f"{q}: scores differ"
    finally:
        eng_inc.close()
        eng_full.close()
