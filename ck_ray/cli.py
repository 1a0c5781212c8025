"""ck-compatible CLI over the Ray-Data engine.

Mirrors the reference's observable flag surface (``ck-cli/src/main.rs:111-408``,
subset listed in SURVEY.md Appendix B) with a Parquet corpus instead of a
directory tree:

    python -m ck_ray.cli --index --corpus corpus_dir --index-dir idx
    python -m ck_ray.cli "pattern" --corpus corpus_dir            # regex mode
    python -m ck_ray.cli --lex "query" --index-dir idx            # BM25
    python -m ck_ray.cli --sem "query" --corpus corpus_dir        # semantic
    python -m ck_ray.cli --hybrid "query" --corpus ... --index-dir idx

Flags: -i/-w/-F (case/word/fixed), -A/-B/-C context, -l files-with-matches,
-L files-without-match, --exclude glob (repeatable), --topk, --threshold,
--json (array) / --jsonl (one object per line), --full-section, --status,
--clean, --inspect FILE, --dump-chunks FILE.
Exit codes are grep-like: 0 = matches found, 1 = none, 2 = error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ck_ray", description=__doc__)
    p.add_argument("pattern", nargs="?", help="query / regex pattern")
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to search (reference positional "
             "PATH args: with no --corpus* source they are walked as "
             "the corpus; with one they filter the corpus by path "
             "prefix)",
    )
    p.add_argument("--corpus", help="corpus parquet dir (repo,path,commit,lang,content)")
    p.add_argument(
        "--corpus-dir", metavar="DIR",
        help="use a source tree as the corpus (gitignore-aware walk, "
             "binary sniff, extension lang detection — reference "
             "collect_files)",
    )
    p.add_argument(
        "--corpus-jsonl", metavar="FILE",
        help="use a newline-delimited-JSON corpus (path/content rows)",
    )
    p.add_argument("--index-dir", help="index directory")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--lex", action="store_true", help="BM25 lexical search")
    mode.add_argument("--sem", action="store_true", help="semantic search")
    mode.add_argument("--hybrid", action="store_true", help="RRF fusion of regex+semantic")
    mode.add_argument("--regex", action="store_true", help="regex search (default)")
    p.add_argument("--index", action="store_true", help="build the index")
    p.add_argument("--status", action="store_true", help="print index stats")
    p.add_argument("-i", "--ignore-case", action="store_true")
    # long names match the reference CLI (ck-cli/src/main.rs): -w is
    # --word-regexp, -F is --fixed-strings; --word/--fixed-string kept
    # as hidden aliases for scripts written against earlier versions
    p.add_argument("-w", "--word-regexp", "--word",
                   action="store_true", dest="word")
    p.add_argument("-F", "--fixed-strings", "--fixed-string",
                   action="store_true", dest="fixed_string")
    p.add_argument("-A", "--after-context",
                   type=int, default=0, metavar="N", dest="after")
    p.add_argument("-B", "--before-context",
                   type=int, default=0, metavar="N", dest="before")
    p.add_argument("-C", "--context",
                   type=int, default=0, metavar="N", dest="context")
    p.add_argument("-l", "--files-with-matches", action="store_true")
    p.add_argument(
        "-L", "--files-without-matches", "--files-without-match",
        action="store_true", dest="files_without_match",
        help="print files with NO match (grep -L)",
    )
    p.add_argument("--topk", "--limit", type=int, default=None,
                   dest="topk")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument(
        "--json", action="store_const", const="json", dest="as_json",
        help="emit one JSON array",
    )
    p.add_argument(
        "--jsonl", action="store_const", const="jsonl", dest="as_json",
        help="emit one JSON object per line",
    )
    p.add_argument(
        "--json-v1", action="store_const", const="json_v1", dest="as_json",
        help='emit {"version": 1, "results": [...]} (legacy envelope)',
    )
    p.add_argument(
        "--no-snippet", action="store_true",
        help="exclude the 3-line snippet from lexical JSON/JSONL output",
    )
    p.add_argument(
        "--scores", action="store_true",
        help="include raw BM25 scores in lexical text output",
    )
    p.add_argument(
        "--exclude", action="append", default=[], metavar="GLOB",
        help="exclude paths matching the glob (repeatable)",
    )
    p.add_argument("--full-section", action="store_true")
    p.add_argument(
        "--heatmap", action="store_true",
        help="ANSI-colour matched lines by per-token similarity",
    )
    p.add_argument(
        "--model", default=None,
        help="embedding model alias/name (ck_ray.models registry)",
    )
    p.add_argument(
        "--list-models", action="store_true",
        help="print the embedding-model registry and exit",
    )
    p.add_argument("--num-parts", type=int, default=16)
    p.add_argument("--no-positions", action="store_true")
    p.add_argument(
        "--clean", action="store_true",
        help="remove the index directory (refuses non-index dirs)",
    )
    p.add_argument(
        "--compact", action="store_true",
        help="merge the index's epoch chain into one epoch (posting-level"
             " merge; drops superseded/deleted postings)",
    )
    p.add_argument(
        "--inspect", metavar="FILE",
        help="print one corpus file's doc metadata + token stats",
    )
    p.add_argument(
        "--dump-chunks", metavar="FILE",
        help="print the structural chunk table of one corpus file",
    )
    p.add_argument(
        "--add", metavar="FILE",
        help="upsert ONE corpus file into an existing index (no deletions)",
    )
    p.add_argument(
        "--reindex", action="store_true",
        help="incremental update of the index from --corpus before anything else",
    )
    p.add_argument(
        "--clean-orphans", action="store_true", dest="clean_orphans",
        help="tombstone index docs absent from --corpus without reindexing "
             "anything (reference --clean-orphans)",
    )
    p.add_argument(
        "--no-ignore", action="store_true", dest="no_ignore",
        help="ignore .gitignore files when walking --corpus-dir",
    )
    p.add_argument(
        "--no-ckignore", action="store_true", dest="no_ckignore",
        help="ignore .ckignore files when walking --corpus-dir",
    )
    p.add_argument(
        "--no-default-excludes", action="store_true", dest="no_default_excludes",
        help="descend into .git/node_modules/target/… when walking --corpus-dir",
    )
    p.add_argument(
        "--switch-model", metavar="NAME", dest="switch_model",
        help="persist a different embedding model for this index "
             "(validated against the registry; semantic mode reads it)",
    )
    p.add_argument(
        "--status-json", action="store_true",
        help="index stats as JSON (alias of --status, which is JSON here)",
    )
    p.add_argument(
        "--status-verbose", action="store_true",
        help="index stats plus per-partition lineage rows",
    )
    p.add_argument(
        "-n", "--line-number", action="store_true",
        help="show line numbers (default on; kept for grep compatibility)",
    )
    p.add_argument(
        "-H", dest="with_filename", action="store_true",
        help="always print filenames (default on)",
    )
    p.add_argument(
        "--no-filename", action="store_true",
        help="suppress filenames in regex output",
    )
    p.add_argument(
        "-R", "--recursive", action="store_true",
        help="accepted for grep compatibility (a parquet corpus is "
             "already the recursive walk's output)",
    )
    p.add_argument(
        "--rerank", action="store_true",
        help="rerank semantic top-k with the cross-encoder stage",
    )
    p.add_argument(
        "--rerank-model", default=None, metavar="ALIAS",
        help="rerank model alias or full name (see --list-models)",
    )
    p.add_argument(
        "--force", action="store_true",
        help="with --index: wipe an existing index dir and rebuild "
             "(reference --force full rebuild)",
    )
    p.add_argument(
        "--serve", action="store_true",
        help="run the MCP JSON-RPC server over stdio "
             "(needs --corpus and --index-dir)",
    )
    p.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress status messages (results still print; reference "
             "--quiet semantics)",
    )
    p.add_argument(
        "--print-default-ckignore", action="store_true",
        help="print the default ignore patterns (reference "
             "--print-default-ckignore) and exit",
    )
    p.add_argument(
        "--percolate", metavar="QUERIES_JSON",
        help="reverse search (ES percolate): match the corpus stream "
             "against a stored-query registry file (JSON object "
             "{name: query}, the engine's query language); prints "
             "(query_name, path) match pairs",
    )
    return p


# Default ignore patterns for a FILESYSTEM corpus walk (--corpus-dir).
# Same role as the reference's get_default_ckignore_content
# (ck-core/src/lib.rs:456): binary/media payloads the tokenizer can't
# use plus build junk. Directory names mirror sources.DEFAULT_EXCLUDE_DIRS
# so the printed file and the walk's built-in behavior agree.
def _default_ckignore_content() -> str:
    from .sources import DEFAULT_EXCLUDE_DIRS

    groups = [
        ("images", ["*.png", "*.jpg", "*.jpeg", "*.gif", "*.bmp", "*.svg",
                    "*.ico", "*.webp", "*.tiff"]),
        ("audio/video", ["*.mp3", "*.wav", "*.ogg", "*.flac", "*.mp4",
                         "*.avi", "*.mov", "*.mkv", "*.webm"]),
        ("archives", ["*.zip", "*.tar", "*.gz", "*.bz2", "*.xz", "*.7z",
                      "*.rar"]),
        ("compiled", ["*.o", "*.so", "*.a", "*.dylib", "*.dll", "*.exe",
                      "*.class", "*.pyc", "*.wasm"]),
        ("data blobs", ["*.parquet", "*.arrow", "*.sqlite", "*.db",
                        "*.bin", "*.pdf"]),
        # reference 0.5.3: config noise excluded from indexing by default
        ("config noise", ["*.json", "*.yaml", "*.yml", "*.lock"]),
        ("build dirs", [f"{d}/" for d in sorted(DEFAULT_EXCLUDE_DIRS)]),
    ]
    lines = [
        "# .ckignore — default patterns (gitignore syntax; ! negates)",
        "# binary payloads and build junk skipped by the corpus walk",
    ]
    for title, pats in groups:
        lines.append(f"\n# {title}")
        lines.extend(pats)
    return "\n".join(lines) + "\n"


def _ref_record(rec: dict) -> dict:
    """Reshape one result row to the reference's documented JSON contract
    (docs-site/reference/output-formats.md: ``file`` path string,
    ``line`` 1-indexed int, ``content`` text, ``score`` float) while
    keeping our richer columns. ``path``/``snippet``/``span`` mirror the
    serde structs (ck-core/src/lib.rs:252-276 JsonSearchResult /
    JsonlSearchResult) so both documented spellings parse."""
    out = dict(rec)
    text = out.pop("line", None)  # our regex frames: 'line' = TEXT
    if text is not None:
        out["content"] = text
    if "preview" in out:
        out.setdefault("content", out["preview"])
    if "content" in out:
        out.setdefault("snippet", out["content"])
    if "line_no" in out:
        n = out.pop("line_no")
        out["line"] = n
        out.setdefault("span", {"line_start": n, "line_end": n})
    if "path" in out:
        out.setdefault("file", out["path"])
    if "score" not in out:
        for alt in ("normalized_score", "rrf_score"):
            if alt in out:
                out["score"] = out[alt]
                break
    return out


def _emit(df, as_json: str | None, cols: list[str]) -> None:
    if as_json == "json":
        print(json.dumps(
            [_ref_record(r) for r in df.to_dict("records")], default=str
        ))
    elif as_json == "json_v1":
        print(json.dumps(
            {
                "version": 1,
                "results": [_ref_record(r) for r in df.to_dict("records")],
            },
            default=str,
        ))
    elif as_json == "jsonl":
        for rec in df.to_dict("records"):
            print(json.dumps(_ref_record(rec), default=str))
    else:
        for rec in df.to_dict("records"):
            print(":".join(str(rec[c]) for c in cols if c in rec))


def _glob_to_re2(glob: str) -> str:
    """Glob -> RE2-safe anchored regex (* spans path separators like the
    reference's globset; fnmatch.translate's \\Z is not RE2)."""
    import re

    parts = []
    for ch in glob:
        if ch == "*":
            parts.append(".*")
        elif ch == "?":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return "^" + "".join(parts) + "$"


def _corpus_ds(corpus, excludes: list[str]):
    """Corpus dataset with --exclude globs applied as an Arrow predicate
    at the read (pruning before any other work). Accepts a parquet path
    or an already-built Dataset (--corpus-dir / --corpus-jsonl)."""
    import pyarrow.compute as pc
    import ray.data

    ds = (
        corpus if isinstance(corpus, ray.data.Dataset)
        else ray.data.read_parquet(corpus)
    )
    if excludes:
        pats = [_glob_to_re2(g) for g in excludes]

        def drop(t):
            keep = None
            for rx in pats:
                m = pc.match_substring_regex(t["path"], rx)
                keep = m if keep is None else pc.or_(keep, m)
            return t.filter(pc.invert(keep))

        ds = ds.map_batches(drop, batch_format="pyarrow")
    return ds


def main(argv: list[str] | None = None) -> int:
    # parse_intermixed_args: the reference's `ck "pattern" src/` puts
    # positional PATHs after optionals — plain parse_args can't split
    # pattern/paths across option boundaries
    args = _build_parser().parse_intermixed_args(argv)
    if args.context:
        args.before = args.after = args.context
    if args.rerank_model:
        # --rerank-model implies --rerank (silently ignoring the model
        # would run an unreranked search the user didn't ask for)
        args.rerank = True
    if args.print_default_ckignore:
        # pure print — no Ray session needed
        print(_default_ckignore_content(), end="")
        return 0

    def status(msg: str) -> None:
        """Post-mutation confirmations ('indexed N docs...'); --quiet
        suppresses these but never search results or errors."""
        if not args.quiet:
            print(msg)

    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(
            address="local", include_dashboard=False, logging_level="ERROR"
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False

    # Alternate corpus sources resolve to a Dataset; every downstream
    # consumer accepts str | Dataset. Exactly one source may be given —
    # silently preferring one would index the wrong corpus.
    n_sources = sum(
        1 for v in (args.corpus, args.corpus_dir, args.corpus_jsonl) if v
    )
    if n_sources > 1:
        print("give exactly one of --corpus / --corpus-dir / "
              "--corpus-jsonl", file=sys.stderr)
        if owns_ray:
            ray.shutdown()
        return 2
    if args.corpus_dir:
        from .sources import read_code_dir

        ck_ignore = os.path.join(args.corpus_dir, ".ckignore")
        if (
            args.index and not args.no_ckignore
            and os.path.isdir(args.corpus_dir)
            and not os.path.exists(ck_ignore)
        ):
            # reference 0.5.3: first index of a tree creates .ckignore
            # with the defaults, so exclusions persist across searches
            # without repeating --exclude flags
            with open(ck_ignore, "w") as fh:
                fh.write(_default_ckignore_content())
            status(f"created {ck_ignore} (defaults; edit to taste)")
        args.corpus = read_code_dir(
            args.corpus_dir,
            respect_gitignore=not args.no_ignore,
            respect_ckignore=not args.no_ckignore,
            default_excludes=not args.no_default_excludes,
            extra_excludes=tuple(args.exclude),
        )
        # the walk applied --exclude with gitignore semantics (* and ?
        # never cross '/'); re-filtering with the glob->RE2 predicate
        # would over-exclude (its wildcards DO cross '/') and pay a
        # redundant pass
        args.exclude = []
    elif args.corpus_jsonl:
        from .sources import read_corpus_jsonl

        args.corpus = read_corpus_jsonl(args.corpus_jsonl)

    if args.paths and n_sources == 0:
        # reference positional PATHs with no corpus source: walk them.
        # `ck "pattern" src/ lib/` == union of the trees' corpora; a
        # FILE positional narrows its parent's walk to that one file.
        import pyarrow.compute as pc

        from .sources import read_code_dir

        parts = []
        for pth in args.paths:
            if os.path.isdir(pth):
                parts.append(read_code_dir(
                    pth,
                    respect_gitignore=not args.no_ignore,
                    respect_ckignore=not args.no_ckignore,
                    default_excludes=not args.no_default_excludes,
                    extra_excludes=tuple(args.exclude),
                ))
            elif os.path.isfile(pth):
                rel = os.path.basename(pth)
                one = read_code_dir(
                    os.path.dirname(os.path.abspath(pth)) or ".",
                    respect_gitignore=False, respect_ckignore=False,
                    default_excludes=False,
                )
                parts.append(one.map_batches(
                    lambda t, rel=rel: t.filter(pc.equal(t["path"], rel)),
                    batch_format="pyarrow",
                ))
            else:
                print(f"no such file or directory: {pth}",
                      file=sys.stderr)
                if owns_ray and ray.is_initialized():
                    ray.shutdown()
                return 2
        args.corpus = parts[0] if len(parts) == 1 else parts[0].union(
            *parts[1:]
        )
        args.exclude = []
    elif args.paths:
        # positional PATHs WITH a corpus source: path-prefix filters on
        # the corpus `path` column (prune before any other work)
        import pyarrow.compute as pc
        import ray.data

        prefixes = [p.rstrip("/") for p in args.paths]
        base = (
            args.corpus if isinstance(args.corpus, ray.data.Dataset)
            else ray.data.read_parquet(args.corpus)
        )

        def keep_paths(t):
            keep = None
            for pref in prefixes:
                m = pc.or_(
                    pc.equal(t["path"], pref),
                    pc.starts_with(t["path"], pref + "/"),
                )
                keep = m if keep is None else pc.or_(keep, m)
            return t.filter(keep)

        args.corpus = base.map_batches(keep_paths, batch_format="pyarrow")

    try:
        if args.list_models:
            from dataclasses import asdict

            from .models import ModelRegistry, RerankModelRegistry

            reg, rreg = ModelRegistry(), RerankModelRegistry()
            print(json.dumps(
                {
                    "embedding": {
                        a: asdict(reg.models[a]) for a in reg.aliases()
                    },
                    "rerank": {
                        a: asdict(rreg.models[a]) for a in rreg.aliases()
                    },
                },
                indent=1,
            ))
            return 0

        if args.serve:
            from .mcp import serve_stdio

            if not (args.corpus and args.index_dir):
                print("--serve needs --corpus and --index-dir",
                      file=sys.stderr)
                return 2
            serve_stdio(args.corpus, args.index_dir)
            return 0

        if args.switch_model:
            from .build import commit_manifest, load_manifest
            from .models import ModelRegistry

            if not args.index_dir:
                print("--switch-model needs --index-dir", file=sys.stderr)
                return 2
            alias, spec = ModelRegistry().resolve(args.switch_model)
            man = load_manifest(args.index_dir)
            man["model"] = alias
            commit_manifest(args.index_dir, man)
            status(
                f"switched model to {alias} "
                f"({spec.dimensions}d, {spec.provider})"
            )
            return 0

        if args.status or args.status_json or args.status_verbose:
            from .build import index_stats, load_manifest

            if not args.index_dir:
                print("--status needs --index-dir", file=sys.stderr)
                return 2
            st = index_stats(args.index_dir)
            man = load_manifest(args.index_dir)
            if "model" in man:
                st["model"] = man["model"]
            if args.status_verbose:
                st["parts"] = man.get("parts", [])
                st["epochs"] = man.get("epochs", [])
                st["hot_terms"] = man.get("hot_terms", [])
            print(json.dumps(st, indent=1))
            return 0

        if args.add or args.reindex or args.clean_orphans:
            from .incremental import incremental_update

            if not (args.corpus and args.index_dir):
                print("--add/--reindex/--clean-orphans need --corpus and "
                      "--index-dir", file=sys.stderr)
                return 2
            ds = _corpus_ds(args.corpus, args.exclude)
            if args.add:
                import pyarrow.compute as pc

                target = args.add
                ds = ds.map_batches(
                    lambda t: t.filter(pc.equal(t["path"], target)),
                    batch_format="pyarrow",
                )
                if ds.count() == 0:
                    print(f"no corpus row with path {target!r}",
                          file=sys.stderr)
                    return 1
            man = incremental_update(
                ds, args.index_dir,
                additive=bool(args.add),
                deletions_only=args.clean_orphans,
            )
            status(
                f"index now at {man['epoch_dir']} "
                f"({man['num_docs']} docs, {len(man.get('epochs', []))} epochs)"
            )
            if not args.pattern:
                return 0

        if args.compact:
            from .compact import compact_index

            if not args.index_dir:
                print("--compact needs --index-dir", file=sys.stderr)
                return 2
            root = compact_index(args.index_dir)
            status(
                f"compacted {len(root['compacted_from'])} epoch(s) -> "
                f"{root['epoch']} ({root['num_docs']} docs)"
            )
            return 0

        if args.clean:
            import shutil

            if not args.index_dir:
                print("--clean needs --index-dir", file=sys.stderr)
                return 2
            if not os.path.exists(os.path.join(args.index_dir, "manifest.json")):
                print(
                    f"refusing to clean {args.index_dir}: no manifest.json "
                    "(not an index directory)", file=sys.stderr,
                )
                return 2
            shutil.rmtree(args.index_dir)
            status(f"removed {args.index_dir}")
            return 0

        if args.inspect or args.dump_chunks:
            import pyarrow.compute as pc

            if not args.corpus:
                print("--inspect/--dump-chunks need --corpus", file=sys.stderr)
                return 2
            target = args.inspect or args.dump_chunks
            sub = (
                _corpus_ds(args.corpus, args.exclude)
                .map_batches(
                    lambda t: t.filter(pc.equal(t["path"], target)),
                    batch_format="pyarrow",
                )
                .take_all()
            )
            if not sub:
                print(f"no corpus row with path {target!r}", file=sys.stderr)
                return 1
            import pyarrow as pa

            row_t = pa.Table.from_pylist(sub)
            if args.dump_chunks:
                from .chunker import ast_chunk_batch

                df = ast_chunk_batch(row_t).to_pandas().drop(columns=["text"])
                _emit(df, args.as_json, [
                    "path", "chunk_id", "chunk_type", "breadcrumb",
                    "line_start", "line_end",
                ])
                return 0
            from .ids import doc_id_for, sha256_hex_column
            from .tokenizer import tokenize_text

            r = sub[0]
            info = {
                "repo": r["repo"], "path": r["path"], "commit": r["commit"],
                "lang": r["lang"],
                "doc_id": doc_id_for(r["repo"], r["path"], r["commit"]),
                "content_sha256": sha256_hex_column(
                    pa.array([r["content"]])
                )[0].as_py(),
                "n_bytes": len(r["content"].encode("utf-8")),
                "n_lines": len(r["content"].splitlines()),
                "n_tokens": len(tokenize_text(r["content"])),
            }
            print(json.dumps(info, indent=1))
            return 0

        if args.index:
            import shutil

            from .build import IndexConfig, build_index

            if not (args.corpus and args.index_dir):
                print("--index needs --corpus and --index-dir", file=sys.stderr)
                return 2
            if args.force and os.path.isdir(args.index_dir):
                # reference --force: clean_index + full index_directory
                # (ck-index/src/lib.rs:770-776). Guard: only wipe a dir
                # that LOOKS like an index — a committed manifest OR a
                # partially-committed build (epoch-*/staging left by a
                # crash between epoch commit and manifest write), which
                # is exactly the wedged state --force must recover from
                import glob

                looks_like_index = (
                    os.path.exists(os.path.join(args.index_dir,
                                                "manifest.json"))
                    or glob.glob(os.path.join(args.index_dir, "epoch-*"))
                    or glob.glob(os.path.join(args.index_dir,
                                              "_staging-epoch-*"))
                )
                if looks_like_index:
                    shutil.rmtree(args.index_dir)
                else:
                    print(
                        f"refusing to --force-wipe {args.index_dir}: not "
                        "an index directory", file=sys.stderr,
                    )
                    return 2
            man = build_index(
                args.corpus,
                args.index_dir,
                IndexConfig(
                    num_parts=args.num_parts,
                    store_positions=not args.no_positions,
                ),
            )
            status(
                f"indexed {man['num_docs']} docs into {args.index_dir} "
                f"({man['num_parts']} partitions)"
            )
            return 0

        if args.percolate:
            import json as _json

            from .ops.percolate import percolate

            if args.corpus is None:
                print("--percolate needs a corpus source", file=sys.stderr)
                return 2
            with open(args.percolate) as fh:
                registry = _json.load(fh)
            # same corpus resolution as every other mode: --exclude
            # globs prune at the read
            ds = _corpus_ds(args.corpus, args.exclude)
            df = percolate(
                ds, registry, text_col="content", id_col="path"
            )
            _emit(df, args.as_json, ["query_name", "path"])
            return 0 if len(df) else 1

        if args.pattern is None:
            print("missing pattern/query", file=sys.stderr)
            return 2

        if args.lex:
            from .query import BM25Engine

            if not args.index_dir:
                print("--lex needs --index-dir", file=sys.stderr)
                return 2
            eng = BM25Engine(args.index_dir)
            try:
                df = eng.search(
                    args.pattern, top_k=args.topk, threshold=args.threshold
                )
            finally:
                eng.close()
            # snippet rides JSON outputs by default (reference
            # JsonlSearchResult.snippet); --no-snippet drops it
            if args.no_snippet and "preview" in df.columns:
                df = df.drop(columns=["preview"])
            cols = ["path", "normalized_score", "doc_id"]
            if args.scores:
                cols.insert(2, "score")
            _emit(df, args.as_json, cols)
            return 0 if len(df) else 1

        if args.sem or args.hybrid:
            from .semantic import build_chunk_embeddings, semantic_search

            if not args.corpus:
                print("needs --corpus", file=sys.stderr)
                return 2
            model = args.model
            if args.index_dir:
                # --switch-model persists the choice in the manifest
                try:
                    from .build import load_manifest

                    persisted = load_manifest(args.index_dir).get("model")
                except OSError:
                    persisted = None
                if model is None:
                    model = persisted
                elif persisted is not None and model != persisted:
                    # reference model-compatibility enforcement
                    # (changelog 0.7.0): mixing models silently corrupts
                    # similarity scores — refuse with recovery guidance
                    from .models import ModelRegistry

                    alias = ModelRegistry().resolve(model)[0]
                    if alias != persisted:
                        print(
                            f"model mismatch: index {args.index_dir} was "
                            f"built with {persisted!r} but --model asks "
                            f"for {alias!r}; run --switch-model {alias} "
                            "(and reindex embeddings) or drop --model",
                            file=sys.stderr,
                        )
                        return 2
            emb = build_chunk_embeddings(
                args.corpus, model=model
            ).materialize()
            sem = semantic_search(
                emb, args.pattern,
                top_k=args.topk or 10, threshold=args.threshold,
                model=model, rerank=args.rerank,
                rerank_model=args.rerank_model,
                keep_text=args.full_section,
            )
            if args.sem:
                cols = ["doc_id", "line_start", "score"]
                if args.full_section and "text" in sem.columns:
                    # reference `--sem --full-section`: the hit's whole
                    # section (its chunk) instead of a one-line preview
                    sem = sem.rename(columns={"text": "section"})
                    cols.append("section")
                _emit(sem, args.as_json, cols)
                return 0 if len(sem) else 1
            # hybrid: RRF(regex leg, semantic leg) — reference semantics
            from .regex_search import regex_search

            rex = regex_search(
                args.corpus, args.pattern,
                fixed_string=args.fixed_string, whole_word=args.word,
                case_insensitive=args.ignore_case,
            )
            ranks: dict = {}
            reps: dict = {}
            # reference fusion key = "file:line" for both legs
            sem_keys = list(
                zip(sem["path"].tolist(), sem["line_start"].tolist())
            )
            rex_keys = list(zip(rex["path"].tolist(), rex["line_no"].tolist()))
            for lst in (rex_keys, sem_keys):
                for r, key in enumerate(lst, start=1):
                    ranks[key] = ranks.get(key, 0.0) + 1.0 / (60 + r)
            import pandas as pd

            out = pd.DataFrame(
                {"key": [str(k) for k in ranks], "rrf_score": list(ranks.values())}
            ).sort_values(["rrf_score", "key"], ascending=[False, True]).head(
                args.topk or 10
            )
            _emit(out, args.as_json, ["key", "rrf_score"])
            return 0 if len(out) else 1

        # default: regex mode
        from .regex_search import files_with_matches, full_sections, regex_search

        if not args.corpus:
            print("regex mode needs --corpus", file=sys.stderr)
            return 2
        corpus = (
            _corpus_ds(args.corpus, args.exclude)
            if args.exclude
            else args.corpus
        )
        if args.files_with_matches or args.files_without_match:
            df = files_with_matches(
                corpus, args.pattern,
                invert=args.files_without_match,
                fixed_string=args.fixed_string, whole_word=args.word,
                case_insensitive=args.ignore_case,
            )
            _emit(df, args.as_json, ["path"])
            return 0 if len(df) else 1
        df = regex_search(
            corpus, args.pattern,
            fixed_string=args.fixed_string, whole_word=args.word,
            case_insensitive=args.ignore_case, top_k=args.topk,
            before=args.before, after=args.after,
        )
        if args.full_section and len(df):
            df = full_sections(args.corpus, df)
            _emit(df, args.as_json, ["path", "line_no", "section"])
        else:
            if args.heatmap and len(df) and not args.as_json:
                from .heatmap import highlight_ansi

                df = df.copy()
                df["line"] = [
                    highlight_ansi(ln, args.pattern) for ln in df["line"]
                ]
            cols = ["path", "line_no", "line"]
            if args.no_filename:
                cols.remove("path")
            _emit(df, args.as_json, cols)
        return 0 if len(df) else 1
    except Exception as e:  # grep-like: errors exit 2
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        import ray

        # shut down only a Ray session WE started: in-process callers
        # (tests, library embedding) keep their own session alive
        if owns_ray and ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
