"""The BM25Engine request path: every public call plans once
(``_plan``: one auto-reload check, one replica) and reaches the shards
only through ``_fanout``, which ships driver-parsed trees, never query
strings."""

import ast
import inspect
import math

import numpy as np
import pytest

from ck_ray import query as query_mod
from ck_ray.query import BM25Engine


def _engine_attr_calls():
    """(enclosing BM25Engine method, called attribute node) for every
    ``x.attr(...)`` call in the class, nested functions included."""
    cls = next(
        n for n in ast.parse(inspect.getsource(query_mod)).body
        if isinstance(n, ast.ClassDef) and n.name == "BM25Engine"
    )
    for m in cls.body:
        if isinstance(m, ast.FunctionDef):
            for n in ast.walk(m):
                if isinstance(n, ast.Call) and isinstance(
                    n.func, ast.Attribute
                ):
                    yield m.name, n.func


def test_fanout_is_the_only_shard_round_trip():
    """``ray.get`` and actor ``.remote`` calls live only in ``_fanout``
    and the shard (re)loader, and ``_maybe_reload`` only in ``_plan`` —
    a hand-written fan-out anywhere else fails here."""
    calls = list(_engine_attr_calls())
    gets = {
        m for m, f in calls
        if f.attr == "get" and isinstance(f.value, ast.Name)
        and f.value.id == "ray"
    }
    assert gets == {"_fanout", "_load_shards"}
    assert {m for m, f in calls if f.attr == "remote"} == {
        "_fanout", "_load_shards"
    }
    assert {m for m, f in calls if f.attr == "_maybe_reload"} == {"_plan"}


# multi-word queries: never a single analyzed token, so one of them in a
# shipped argument can only be a raw query string
Q, Q2 = "merge window", "stream tokenize"
STATS = {"kind": "stats", "field": "n_bytes"}
MULTI_ROUND = {
    "rescore": lambda e, pins: e.search_rescore(Q, Q2, window_size=20),
    "pinned": lambda e, pins: e.search_pinned(Q, pins, top_k=8),
    "t_test": lambda e, pins: e.search_t_test(Q, Q2),
    "significant_text_sampled": lambda e, pins: e.search_significant_text(
        Q, sample_size=20),
    "significant_text_diversified": lambda e, pins: (
        e.search_significant_text(
            Q, sample_size=20, diversify_field="lang",
            max_docs_per_value=3,
        )
    ),
    "collapse": lambda e, pins: e.search_collapse(Q, "lang", k=4),
    "top_metrics": lambda e, pins: e.search_top_metrics(Q, k=5),
}
SINGLE_ROUND = {
    "search": lambda e: e.search(Q, top_k=5),
    "search_raw": lambda e: e.search_raw(Q, 5),
    "search_after": lambda e: e.search_after(Q, top_k=5),
    "search_many": lambda e: e.search_many([Q, Q2], top_k=5),
    "dismax": lambda e: e.search_dismax([Q, Q2], top_k=5),
    "boosting": lambda e: e.search_boosting(Q, Q2),
    "function_score": lambda e: e.search_function_score(Q, "n_bytes"),
    "min_should": lambda e: e.search_min_should([Q, Q2], 1),
    "composite": lambda e: e.search_composite_agg(
        Q, [{"field": "lang", "type": "terms"}]),
    "facets": lambda e: e.search_facets(Q),
    "significant_terms": lambda e: e.search_significant_terms(Q),
    "significant_text": lambda e: e.search_significant_text(Q),
    "distance_feature": lambda e: e.search_distance_feature(
        Q, "n_bytes", 0, 100),
    "matrix_stats": lambda e: e.search_matrix_stats(Q),
    "weighted_avg": lambda e: e.search_weighted_avg(Q),
    "mad": lambda e: e.search_mad(Q),
    "percentile_ranks": lambda e: e.search_percentile_ranks(
        Q, values=(100,)),
    "best_passages": lambda e: e.search_best_passages(Q),
    "aggregate": lambda e: e.search_aggregate(Q, STATS),
    "filters_agg": lambda e: e.search_filters_agg({"a": Q, "b": Q2}, STATS),
    "adjacency": lambda e: e.search_adjacency_matrix({"a": Q, "b": Q2}),
    "aggregate_multi": lambda e: e.search_aggregate_multi(Q, {"s": STATS}),
    "sort_by_field": lambda e: e.search_sort_by_field(Q, "n_bytes"),
    "boxplot": lambda e: e.search_boxplot(Q),
    "string_stats": lambda e: e.search_string_stats(Q),
    "facet_stats": lambda e: e.search_facet_stats(Q),
    "top_hits": lambda e: e.search_top_hits(Q),
}


def _strings(x):
    if isinstance(x, str):
        yield x
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _strings(y)
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _strings(k)
            yield from _strings(v)


def _canon(x):
    """Comparable form of a public result (arrays to lists, NaN to a
    marker, DataFrames to records)."""
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.ndarray):
        return _canon(x.tolist())
    if hasattr(x, "to_dict"):
        return _canon(x.to_dict("records"))
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return x


@pytest.fixture(scope="module")
def engines(ray_session, tiny_index, tiny_corpus):
    """(1-replica engine, 2-replica engine, pinned paths: one shallow
    match, one deep, one absent)."""
    one = BM25Engine(tiny_index, num_shards=2, auto_reload=False)
    two = BM25Engine(
        tiny_index, num_shards=2, auto_reload=False, num_replicas=2
    )
    ranked = list(one.search(Q, top_k=10**6)["path"])
    pins = [ranked[-1], "src/no/such/file.py", ranked[2]]
    yield one, two, pins
    one.close()
    two.close()


def _spy(eng, monkeypatch) -> list:
    """Record (op, replica, args) of every shard call ``eng`` makes."""
    seen = []
    real = eng._fanout

    def spy(plan, op, *args, **kw):
        for name, a, *rep in (op if isinstance(op, list) else [(op, args)]):
            seen.append((name, rep[0] if rep else plan.replica, a, kw))
        return real(plan, op, *args, **kw)

    monkeypatch.setattr(eng, "_fanout", spy)
    return seen


@pytest.mark.parametrize("name", sorted(MULTI_ROUND))
def test_multi_round_calls_use_one_replica(engines, monkeypatch, name):
    """With 2 replicas a multi-round call returns what the 1-replica
    engine returns, and every round of it goes to the same replica."""
    one, two, pins = engines
    call = MULTI_ROUND[name]
    want = _canon(call(one, pins))
    seen = _spy(two, monkeypatch)
    for _ in range(3):
        seen.clear()
        assert _canon(call(two, pins)) == want
        assert len({id(rep) for _, rep, _, _ in seen}) == 1, [
            op for op, *_ in seen
        ]
        assert len(seen) >= 2  # really multi-round
        assert any(seen[0][1] is r for r in two.replicas)


@pytest.mark.parametrize(
    "name", sorted(SINGLE_ROUND) + sorted(f"multi:{n}" for n in MULTI_ROUND)
)
def test_shards_never_receive_query_strings(engines, monkeypatch, name):
    """Every shard call carries the driver-parsed tree: no raw query
    string appears anywhere in a shipped argument."""
    one, _, pins = engines
    seen = _spy(one, monkeypatch)
    if name.startswith("multi:"):
        MULTI_ROUND[name[len("multi:"):]](one, pins)
    else:
        SINGLE_ROUND[name](one)
    assert seen
    for op, _, args, kw in seen:
        shipped = set(_strings(list(args))) | set(_strings(kw))
        assert not shipped & {Q, Q2}, op
