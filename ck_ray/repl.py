"""Interactive search REPL — the reference TUI's role (``ck-tui/src``,
2.7k LoC of ratatui) re-expressed terminal-light: one process, one open
``BM25Engine``, line-oriented input/output so it works over ssh, inside
pipes, and under tests (feed any file object as stdin).

    python -m ck_ray.repl --index-dir IDX [--corpus PARQUET]

Commands (anything else is a BM25 query):

    QUERY                 BM25 top-k (supports the full query language)
    /regex PATTERN        regex line search over the corpus
    /hybrid QUERY         RRF fusion of the regex and BM25 legs
    /span T1 T2 [slop=N]  proximity search ranked by minimal window
    /complete PREFIX      dictionary autocomplete (df-ranked)
    /suggest TERM         spell-correction candidates
    /didyoumean PHRASE    phrase suggester (bigram-LM ranked)
    /rare [N]             long-tail dictionary terms (df <= N, def. 5)
    /sigtext QUERY        significant co-occurring terms (JLH)
    /boxplot QUERY        exact boxplot of dl_content over the matches
    /topmetrics QUERY     n_bytes of the top-k docs by dl_content
    /strstats QUERY       lang length stats + char entropy (string_stats)
    /spannot A B [pre= post=]  A-occurrences with no B in the window
    /passages QUERY       best highlight window per matching doc
    /facet [field=F] Q    full-match-set facet counts (default lang)
    /explain QUERY DOC    per-term BM25 evidence for one doc
    /topk N               set result count (default 10)
    /stats                index statistics + engine reload counters
    /help                 this text
    /quit                 exit

The engine stays open across commands (sticky shard routing keeps
caches warm), exactly how the reference TUI holds its searcher.
"""

from __future__ import annotations

import argparse
import sys

_HELP = __doc__.split("Commands", 1)[1]


def _fmt_row(vals, widths):
    return "  ".join(str(v)[:w].ljust(w) for v, w in zip(vals, widths))


def _print_hits(df, out, cols=("path", "normalized_score", "doc_id")):
    if len(df) == 0:
        print("(no hits)", file=out)
        return
    have = [c for c in cols if c in df.columns]
    widths = [48, 16, 20][: len(have)]
    print(_fmt_row(have, widths), file=out)
    for _, r in df.iterrows():
        vals = [
            f"{r[c]:.4f}" if c == "normalized_score" else r[c]
            for c in have
        ]
        print(_fmt_row(vals, widths), file=out)


def run_repl(
    index_dir: str,
    corpus: str | None = None,
    inp=None,
    out=None,
    num_shards: int = 4,
) -> int:
    from .query import BM25Engine

    inp = inp or sys.stdin
    out = out or sys.stdout
    eng = BM25Engine(index_dir, num_shards=num_shards)
    top_k = 10
    interactive = hasattr(inp, "isatty") and inp.isatty()
    try:
        while True:
            if interactive:
                print("ck> ", end="", file=out, flush=True)
            line = inp.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                if line in ("/quit", "/exit"):
                    break
                elif line == "/help":
                    print("Commands" + _HELP, file=out)
                elif line == "/stats":
                    from .build import index_stats

                    for k, v in index_stats(index_dir).items():
                        print(f"  {k}: {v}", file=out)
                    print(f"  reloads: {eng.reloads}", file=out)
                    print(f"  last_reload_s: {eng.last_reload_s}", file=out)
                elif line.startswith("/topk "):
                    top_k = int(line.split()[1])
                    print(f"top_k = {top_k}", file=out)
                elif line.startswith("/complete "):
                    for t, d in eng.suggest_complete(
                        line.split(None, 1)[1], size=top_k
                    ):
                        print(f"  {t}  (df {d})", file=out)
                elif line.startswith("/suggest "):
                    for s in eng.search_suggest(
                        line.split(None, 1)[1], top_k
                    ):
                        print(f"  {s}", file=out)
                elif line.startswith("/didyoumean "):
                    for s in eng.search_phrase_suggest(
                        line.split(None, 1)[1], size=top_k
                    ):
                        print(
                            f"  {s['score']:10.4f}  {s['phrase']}",
                            file=out,
                        )
                elif line == "/rare" or line.startswith("/rare "):
                    parts = line.split()
                    cap = int(parts[1]) if len(parts) > 1 else 5
                    for r in eng.search_rare_terms(cap, size=top_k):
                        print(f"  {r['term']}  (df {r['df']})", file=out)
                elif line.startswith("/sigtext "):
                    res = eng.search_significant_text(
                        line.split(None, 1)[1], size=top_k
                    )
                    for b in res["buckets"]:
                        print(
                            f"  {b['score']:8.4f}  {b['term']}"
                            f"  (fg {b['fg_count']}/{res['fg_total']}"
                            f" bg {b['bg_count']}/{res['bg_total']})",
                            file=out,
                        )
                elif line.startswith("/boxplot "):
                    b = eng.search_boxplot(line.split(None, 1)[1])
                    print(
                        f"  n={b['count']} min={b['min']} q1={b['q1']}"
                        f" q2={b['q2']} q3={b['q3']} max={b['max']}"
                        f" iqr={b['iqr']}",
                        file=out,
                    )
                elif line.startswith("/topmetrics "):
                    for r in eng.search_top_metrics(
                        line.split(None, 1)[1], k=top_k
                    ):
                        print(
                            f"  {r['path']}  dl={r['sort_value']}"
                            f"  n_bytes={r['n_bytes']}",
                            file=out,
                        )
                elif line.startswith("/strstats "):
                    s = eng.search_string_stats(line.split(None, 1)[1])
                    print(
                        f"  n={s['count']} len {s['min_length']}"
                        f"..{s['max_length']}"
                        f" avg={s['avg_length']:.4f}"
                        f" entropy={s['entropy']:.4f}"
                        if s["count"]
                        else "  (no matches)",
                        file=out,
                    )
                elif line.startswith("/spannot "):
                    # /spannot INCLUDE EXCLUDE [pre=N] [post=N]
                    parts = line.split()[1:]
                    pre = post = 0
                    terms = []
                    for tok in parts:
                        if tok.startswith("pre="):
                            pre = int(tok[len("pre="):])
                        elif tok.startswith("post="):
                            post = int(tok[len("post="):])
                        else:
                            terms.append(tok)
                    if len(terms) != 2:
                        print(
                            "usage: /spannot INCLUDE EXCLUDE "
                            "[pre=N] [post=N]",
                            file=out,
                        )
                    else:
                        r = eng.search_span_not(
                            terms[0], terms[1], pre, post
                        )
                        n = len(r["paths"])
                        for p in r["paths"][:top_k]:
                            print(f"  {p}", file=out)
                        if n > top_k:
                            print(f"  ... {n - top_k} more", file=out)
                elif line.startswith("/passages "):
                    bp = eng.search_best_passages(
                        line.split(None, 1)[1]
                    )
                    n = len(bp["doc_ids"])
                    for i in range(min(n, top_k)):
                        print(
                            f"  {bp['paths'][i]}  @tok {bp['starts'][i]}"
                            f"  (w {bp['scores'][i]:.4f})",
                            file=out,
                        )
                    if n > top_k:
                        print(f"  ... {n - top_k} more", file=out)
                elif line.startswith("/facet "):
                    # /facet [field=F] QUERY...  (query may be multi-term)
                    rest = line.split(None, 1)[1]
                    field = "lang"
                    if rest.startswith("field="):
                        fspec, rest = rest.split(None, 1)
                        field = fspec[len("field="):]
                    total, facets = eng.search_facets(rest, field)
                    print(f"total {total}", file=out)
                    for v in sorted(facets, key=facets.get, reverse=True):
                        print(f"  {v}: {facets[v]}", file=out)
                elif line.startswith("/span "):
                    # /span T1 T2 ... [slop=N] — explicit marker so a
                    # numeric TERM ('404') is never eaten as the slop
                    parts = line.split()[1:]
                    slop = 0
                    terms = []
                    for tok in parts:
                        if tok.startswith("slop="):
                            slop = int(tok[len("slop="):])
                        else:
                            terms.append(tok)
                    df = eng.search_span_near(
                        terms, slop=slop, top_k=top_k, with_meta=True
                    )
                    _print_hits(df, out, ("path", "min_window", "doc_id"))
                elif line.startswith("/explain "):
                    head, doc = line.rsplit(None, 1)
                    q = head.split(None, 1)[1]
                    ex = eng.explain(q, int(doc))
                    if ex is None or not ex.get("matched", True):
                        print("(no match)", file=out)
                    else:
                        for leaf in ex["leaves"]:
                            for d in leaf.get("details", []):
                                bits = " ".join(
                                    f"{kk}={d[kk]}"
                                    for kk in ("df", "tf", "dl")
                                    if kk in d  # phrase leaves: df only
                                )
                                print(f"  {d['term']}: {bits}", file=out)
                elif line.startswith("/regex "):
                    if not corpus:
                        print("(no --corpus; /regex unavailable)", file=out)
                        continue
                    from .regex_search import regex_search

                    df = regex_search(corpus, line.split(None, 1)[1])
                    for _, r in df.head(top_k).iterrows():
                        print(
                            f"  {r['path']}:{r['line_no']}: "
                            f"{r['line'][:100]}",
                            file=out,
                        )
                    if len(df) > top_k:
                        print(f"  ... {len(df) - top_k} more", file=out)
                elif line.startswith("/hybrid "):
                    if not corpus:
                        print("(no --corpus; /hybrid unavailable)", file=out)
                        continue
                    from .regex_search import regex_search

                    from .pipelines.docsearch import rrf_fuse

                    q = line.split(None, 1)[1]
                    lex = eng.search(q, top_k=100)
                    rex = regex_search(corpus, ".*".join(q.split()))
                    fused = rrf_fuse(
                        [
                            lex["path"].tolist(),
                            rex["path"].drop_duplicates().tolist(),
                        ],
                        k=top_k, key="path",
                    )
                    for _, r in fused.iterrows():
                        print(
                            f"  {r['rrf_score']:.6f}  {r['path']}",
                            file=out,
                        )
                elif line.startswith("/"):
                    print(f"unknown command {line.split()[0]!r} "
                          "(/help lists them)", file=out)
                else:
                    _print_hits(eng.search(line, top_k=top_k), out)
            except Exception as e:  # keep the session alive on errors
                print(f"error: {e}", file=out)
    finally:
        eng.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m ck_ray.repl")
    p.add_argument("--index-dir", required=True)
    p.add_argument("--corpus", help="corpus parquet (enables /regex, /hybrid)")
    p.add_argument("--shards", type=int, default=4)
    args = p.parse_args(argv)
    import ray

    owns = not ray.is_initialized()
    if owns:
        ray.init(
            address="local", include_dashboard=False,
            logging_level="ERROR",
        )
    try:
        return run_repl(
            args.index_dir, args.corpus, num_shards=args.shards
        )
    finally:
        if owns:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
