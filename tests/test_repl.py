"""Line-oriented REPL (the reference TUI's role): commands drive one
open engine; the session survives bad input."""

import io

import pytest


def _session(tiny_index, commands, corpus=None):
    from ck_ray.repl import run_repl

    out = io.StringIO()
    rc = run_repl(
        tiny_index,
        corpus=corpus,
        inp=io.StringIO("\n".join(commands) + "\n"),
        out=out,
    )
    assert rc == 0
    return out.getvalue()


def test_query_and_commands(ray_session, tiny_index):
    text = _session(
        tiny_index,
        [
            "merge",
            "/topk 3",
            "/complete mer",
            "/facet merge lang",
            "/stats",
            "/quit",
        ],
    )
    assert "path" in text and "normalized_score" in text
    assert "top_k = 3" in text
    assert "(df " in text              # completion rows
    assert "total " in text            # facet total
    assert "num_docs" in text          # stats keys
    assert "reloads: 0" in text        # engine counters beside them
    assert "last_reload_s: None" in text


def test_span_and_suggest(ray_session, tiny_index):
    text = _session(
        tiny_index,
        ["/span merge window slop=8", "/suggest mergw", "/quit"],
    )
    assert "min_window" in text


def test_errors_do_not_kill_session(ray_session, tiny_index):
    text = _session(
        tiny_index,
        [
            "/nosuchcmd",
            "path:((broken",           # parse error
            "/regex foo",              # no corpus wired
            "merge",                   # still works after the errors
            "/quit",
        ],
    )
    assert "unknown command" in text
    assert "/regex unavailable" in text
    assert "normalized_score" in text  # the last query still ran


def test_regex_and_hybrid_with_corpus(ray_session, tiny_corpus, tiny_index, tmp_path):
    import pyarrow.parquet as pq

    c = str(tmp_path / "corpus")
    import os

    os.makedirs(c, exist_ok=True)
    pq.write_table(tiny_corpus, os.path.join(c, "part.parquet"))
    text = _session(
        tiny_index, ["/regex merge", "/hybrid merge window", "/quit"],
        corpus=c,
    )
    assert ":" in text  # path:line: regex hits
    assert "0.0" in text  # rrf scores


def test_explain_command(ray_session, tiny_index):
    # find a doc id via a query, then explain it
    from ck_ray.query import BM25Engine

    eng = BM25Engine(tiny_index, num_shards=2)
    try:
        df = eng.search("merge", top_k=1)
        doc = int(df["doc_id"].iloc[0])
    finally:
        eng.close()
    text = _session(tiny_index, [f"/explain merge window {doc}", "/quit"])
    assert "df=" in text and "tf=" in text


def test_review_fixes(ray_session, tiny_corpus, tiny_index, tmp_path):
    """The review findings stay fixed: bare 'q' searches instead of
    quitting, numeric span terms survive, field= facet syntax, /regex
    prints real line numbers, phrase /explain shows df-only leaves."""
    import os

    import pyarrow.parquet as pq

    c = str(tmp_path / "corpus")
    os.makedirs(c, exist_ok=True)
    pq.write_table(tiny_corpus, os.path.join(c, "part.parquet"))
    text = _session(
        tiny_index,
        [
            "q",                               # searches, doesn't quit
            "/span merge window slop=8",
            "/facet field=lang merge AND window",
            "/regex merge",
            '/explain "merge window" 1',       # phrase leaf: df only
            "/quit",
        ],
        corpus=c,
    )
    assert "(no hits)" in text or "normalized_score" in text  # 'q' ran
    assert "min_window" in text
    assert "total " in text
    assert "error:" not in text.split("/regex")[0]  # no KeyErrors before
    # regex hits carry path:line_no:
    import re

    assert re.search(r"\S+:\d+: ", text)


def test_round4_fulltext_commands(ray_session, tiny_index):
    text = _session(
        tiny_index,
        [
            "/didyoumean mergw streag",
            "/rare 3",
            "/sigtext merge AND stream",
            "/passages merge AND stream",
            "/quit",
        ],
    )
    assert "merge stream" in text          # corrected phrase surfaced
    assert "(df " in text                  # rare rows carry dfs
    assert "fg " in text and "bg " in text # JLH buckets annotated
    assert "@tok " in text                 # passage rows carry starts


def test_round5_agg_commands(ray_session, tiny_index):
    text = _session(
        tiny_index,
        [
            "/boxplot merge",
            "/topmetrics merge",
            "/strstats merge",
            "/spannot merge stream pre=1 post=1",
            "/spannot onlyoneterm",
            "/quit",
        ],
    )
    assert "q1=" in text and "iqr=" in text      # boxplot line
    assert "n_bytes=" in text                    # top_metrics rows
    assert "entropy=" in text                    # string_stats line
    assert "usage: /spannot" in text             # arg validation
