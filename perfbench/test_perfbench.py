"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import io
import json
import os
import re
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

import gen  # noqa: E402
import harness  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _ops(seed: int, fresh: bool, n: int = 400) -> list:
    s = gen.OpStream(seed)
    return [s.next_op(fresh=fresh) for _ in range(n)]


@pytest.mark.parametrize("fresh", [False, True])
def test_same_seed_same_query_stream(fresh):
    assert _ops(7, fresh) == _ops(7, fresh)
    assert _ops(7, fresh) != _ops(8, fresh)


def test_streams_cover_every_family_and_op_kind():
    ops = _ops(3, fresh=False, n=2000)
    assert {o[1] for o in ops if o[0] == "search"} == set(gen.FAMILIES)
    assert {o[0] for o in ops} == {"search", "agg", "batch"}


def test_fresh_stream_mostly_unseen_terms():
    ops = [o for o in _ops(5, fresh=True, n=1000) if o[0] == "search"]
    fresh = [o for o in ops if o[1] not in ("phrase", "sloppy", "phrase_prefix")]
    assert len(fresh) > len(ops) / 2


def test_same_seed_same_edits():
    base = gen.corpus(4, n_files=100)
    t1, r1, e1 = gen.edit_batch(base, 4, 1)
    t2, r2, e2 = gen.edit_batch(base, 4, 1)
    assert (t1, r1.tolist(), e1.to_pylist()) == (t2, r2.tolist(), e2.to_pylist())
    t3, _, e3 = gen.edit_batch(base, 4, 2)
    assert t3 != t1 and e3.num_rows == gen.EDIT_FILES
    assert all(t1 in c for c in e1["content"].to_pylist())
    assert base.take(r1)["path"].to_pylist() == e1["path"].to_pylist()


def test_replaced_oracle_equals_rebuilt_oracle():
    import pyarrow as pa

    base = gen.corpus(5, n_files=150)
    oracle = workloads.build_oracle(base)
    live = base.to_pylist()
    for cycle in (1, 2):
        _, rows, edited = gen.edit_batch(base, 5, cycle, n_edit=40)
        old = pa.Table.from_pylist([live[i] for i in rows], schema=base.schema)
        workloads.replace_docs(oracle, old, edited)
        for i, row in zip(rows.tolist(), edited.to_pylist()):
            live[i] = row
    fresh = workloads.build_oracle(pa.Table.from_pylist(live, schema=base.schema))
    assert oracle.postings == fresh.postings
    assert oracle.dl == fresh.dl and oracle.avgdl == fresh.avgdl
    for q in ("merge", "uq0000010marker", "path:core", "edtok5x2", "mer*"):
        d1, s1 = oracle.search_raw(q, 10)
        d2, s2 = fresh.search_raw(q, 10)
        assert d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()


def test_metric_names_and_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == workloads.END_TO_END
    assert layer == probe.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [n for n, _ in e2e + layer]
    assert len(set(names)) == len(names)
    for n in names:
        assert NAME.fullmatch(n), n


def test_self_time_subtracts_covered_child_time():
    tr = harness.Tracer(True)
    tr.spans = [
        {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "name": "c", "start": 3.0, "end": 5.0},
        {"id": 3, "parent": 0, "name": "d", "start": 9.0, "end": 12.0},
    ]
    st = tr.self_times()
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[1] == pytest.approx(3.0)


def test_phase_lines_become_consecutive_child_spans():
    tr = harness.Tracer(True)
    out = io.StringIO()
    stream = harness.PhaseStream(tr, out)
    with tr.span("build") as build:
        stream.write("[build] hot_estimate: 0.01s\nother line\n")
        stream.write("[build] tokenize_spill: 0.5s\n")
    assert out.getvalue() == "other line\n"
    (first,) = tr.find("build.hot_estimate", parent_name="build")
    (second,) = tr.find("build.tokenize_spill", parent_name="build")
    assert first["start"] == build["start"]
    assert second["start"] == first["end"] <= second["end"] <= build["end"]


def test_first_phase_of_a_later_build_starts_near_its_line():
    """In an incremental update the sub-build starts after the diff work,
    which stays the update span's self time."""
    tr = harness.Tracer(True)
    stream = harness.PhaseStream(tr, io.StringIO())
    with tr.span("incremental") as inc:
        inc["start"] -= 5.0  # 5 s of diff work before the sub-build
        stream.write("[build] hot_estimate: 0.5s\n")
    (phase,) = tr.find("build.hot_estimate", parent_name="incremental")
    assert phase["end"] - phase["start"] == pytest.approx(0.505, abs=1e-3)
    assert tr.self_times()[inc["id"]] == pytest.approx(4.5, abs=0.01)


class _Child:
    """Stands in for the workload process in run.py."""

    def __init__(self, out, code):
        self.out, self.returncode = out, code

    def communicate(self, timeout=None):
        return self.out, None

    def kill(self):
        pass

    def poll(self):
        return self.returncode


def test_dead_attempts_count_as_failed_ops(monkeypatch, capsys):
    import run

    line = json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {}})
    children = iter([_Child("", -6), _Child(line + "\n", 0)])
    monkeypatch.setattr(run.subprocess, "Popen", lambda *a, **kw: next(children))
    monkeypatch.setattr(harness, "stop_marked", lambda *a, **kw: None)
    assert run.main(["--workload", "serve", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["attempted"], result["failed"]) == (11, 1)


class _Clock:
    """Stands in for StealClock: the available share by op end time."""

    def __init__(self, available):
        self.by_end = available

    def available(self, start, end):
        return self.by_end[end]


@pytest.mark.parametrize("available, kept", [
    ([1.0, 0.99, 0.5, 0.98], [1.0, 0.99, 0.98]),  # one stolen window left out
    ([0.6, 0.7, 0.8, 0.9], [0.8, 0.9]),  # mostly stolen: the quieter half
])
def test_times_remove_steal_and_keep_quiet_windows(tmp_path, available, kept):
    run = workloads.Run("serve", 1, 1.0, False, str(tmp_path))
    run.clock = _Clock({float(i): a for i, a in enumerate(available)})
    for i in range(len(available)):
        run.add_time("query", 2.0, float(i))
    assert run.times("query") == pytest.approx([2.0 * a for a in kept])


def test_ray_cpus_leave_a_whole_cpu_for_ray_data():
    for shards in (1, 2, 3, 8):
        assert harness.ray_cpus(shards) - 0.5 * shards >= 1


def test_stop_marked_kills_marked_processes():
    marker = f"test-{os.getpid()}"
    child = subprocess.Popen(["sleep", "60"], env=dict(os.environ, PERFBENCH_RUN=marker))
    try:
        assert harness.marked_pids(marker) == [child.pid]
        harness.stop_marked(marker, wait_s=0.1)
        assert child.wait(timeout=5) == -signal.SIGKILL
        assert harness.marked_pids(marker) == []
    finally:
        child.kill()
        child.wait(timeout=5)


def test_same_seed_same_counts(tmp_path):
    """Two builds of one seed give the same index size ratio and posting
    count, and the same query stream gives the same fan-out rows."""
    from ck_ray.build import IndexConfig, build_index, index_stats
    from ck_ray.query import BM25Engine

    cluster = harness.Cluster(str(tmp_path / "ray"), 2)
    cluster.start()
    try:
        seen = []
        for i in range(2):
            table = gen.corpus(9, n_files=200)
            src = tmp_path / f"c{i}"
            src.mkdir()
            import pyarrow.parquet as pq

            pq.write_table(table, str(src / "part-0.parquet"))
            idx = str(tmp_path / f"i{i}")
            build_index(str(src), idx, IndexConfig(num_parts=4, exchange_root=str(tmp_path / "x")))
            ratio = workloads._dir_bytes(idx) / gen.content_bytes(table)
            eng = BM25Engine(idx, num_shards=2)
            stream = gen.OpStream(9, n_files=200)
            rows = []
            for _ in range(40):
                op = stream.next_op()
                if op[0] == "search":
                    eng.search(op[2], top_k=gen.TOP_K)
                    rows.append(eng.last_fanout_rows)
            eng.close()
            seen.append((ratio, index_stats(idx)["n_postings"], rows))
        assert seen[0] == seen[1]
    finally:
        cluster.stop()
