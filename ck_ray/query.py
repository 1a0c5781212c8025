"""BM25 top-k query engine: stateful actor pool over index partitions.

Mirrors the observable semantics of the reference's lexical search path
(``ck-engine/src/lib.rs:729-845``):

- query parsed with tantivy ``QueryParser`` defaults: clauses are OR'd
  (scores of matching clauses sum); a query *word* that tokenizes to
  multiple tokens (``snake_case``) becomes a **phrase** query; quoted
  spans are phrases; ``path:`` prefixes a clause onto the path field
  (default field = content only, reference ``ck-engine/src/lib.rs:765``);
- default ``top_k`` 100 when unset (``:774``);
- scores normalized by the max score, threshold applied AFTER
  normalization (``:820-844``);
- ties broken doc_id-ascending (deterministic replacement for the
  reference's unstable sort, ``:1049-1053``).

Physical layout: DOCUMENT-partitioned serving. Each ``DocShard`` actor
owns a set of doc-range buckets of the serving projection (built by
``build.py::_ServingEncoder``) and holds, for every term, the slice of
its posting list falling in those ranges plus the ranges' doc metadata.
A query fans out to every shard; ALL scoring — term-at-a-time vectorized
numpy, MaxScore/block-max pruning over the shard's skip metadata, phrase
adjacency, boolean evaluation — happens inside the shard (a doc's whole
score is shard-local), and only each shard's top-k rows return to the
driver for a concatenate-and-sort merge: per-query driver traffic is
O(shards * k), never O(postings). f32 scores match the oracle
bit-for-bit (tested).
"""

from __future__ import annotations

import copy
import ctypes
import hashlib
import inspect
import os
import re
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from . import codec, scoring
from .build import load_manifest
from .strdist import edit_distance, edit_within
from .tokenizer import tokenize_text

FIELD_IDS = {"content": 0, "path": 1}

try:  # glibc's, from the symbols already loaded into the process
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except AttributeError:  # not glibc
    _malloc_trim = None


def _release_heap() -> None:
    """Return the freed pages of a dropped index generation to the OS.
    Arrow's allocator and glibc's malloc both keep freed memory for
    reuse, so without this a long-lived shard's RSS keeps the high-water
    mark of every reload's old-beside-new peak."""
    pa.default_memory_pool().release_unused()
    if _malloc_trim is not None:
        _malloc_trim(0)


def _parquet_files(d: str) -> list[str]:
    return [
        os.path.join(d, f) for f in sorted(os.listdir(d))
        if f.endswith(".parquet") and not f.startswith((".", "_"))
    ]


def _read_parquet(path: str, columns: list[str] | None = None) -> pa.Table:
    """One parquet file, read on the calling thread; ``columns`` the file
    lacks are left out. A serving shard reloads for as long as it lives,
    and reads on Arrow's thread pools leave memory in Arrow's jemalloc
    arenas that ``release_unused`` does not return: over 10 reloads of a
    2,006-doc shard (8 of 16 buckets) RSS grew 1-5 MB per reload with
    threaded reads, and stays flat with these."""
    with pq.ParquetFile(path) as pf:
        if columns is not None:
            have = set(pf.schema_arrow.names)
            columns = [c for c in columns if c in have]
        return pf.read(columns=columns, use_threads=False)


def _unique_inverse(docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(return_inverse=True) via a STABLE sort — numpy uses radix
    sort for integer stable sorts (O(n)), much faster than np.unique's
    quicksort on the multi-million-posting concatenations of hot-term OR
    queries. Identical output."""
    order = np.argsort(docs, kind="stable")
    sd = docs[order]
    new_grp = np.empty(len(sd), dtype=bool)
    if len(sd):
        new_grp[0] = True
        np.not_equal(sd[1:], sd[:-1], out=new_grp[1:])
    uniq = sd[new_grp]
    inv = np.empty(len(sd), dtype=np.int64)
    inv[order] = np.cumsum(new_grp) - 1
    return uniq, inv


@dataclass
class Clause:
    field: str  # "content" | "path"
    terms: list[str]  # len 1 = term query, >1 = phrase query
    boost: float = 1.0  # tantivy `term^2` / `"phrase"^2` boost
    # tantivy ``"a b"~N`` sloppy phrase. Semantics (documented spec, the
    # reference's own suite never exercises slop): a first-term occurrence
    # p0 matches iff SOME in-order occurrence tuple (p0 < p1 < … < p_last)
    # of the remaining terms has total extra gap p_last − p0 − (n−1)
    # <= slop; tf = number of matching p0. Evaluated by chaining each term
    # greedily to its smallest position after the previous link — greedy
    # minimizes p_last for a fixed p0, so greedy-accept == exists-accept.
    # slop=0 == exact adjacency.
    slop: int = 0
    # trailing-star prefix query (``mer*``): expanded against the term
    # dictionary into a SHOULD disjunction before evaluation (Lucene
    # SCORING_BOOLEAN_REWRITE, uncapped up to MAX_PREFIX_EXPANSIONS).
    # Expansion happens per shard over the LOCAL dictionary — equal to
    # global expansion because a term absent from a shard's dictionary
    # contributes to none of that shard's docs, and idf always comes
    # from the GLOBAL df on the serving rows.
    prefix: bool = False
    # CONST-SCORE multi-term queries (the tantivy/Lucene constant-score
    # family — TermSetQuery ``field: IN [a b c]``, RangeQuery
    # ``field:[a TO b]`` / ``{a TO b}``, AllQuery ``*``): a matching doc
    # contributes exactly ``boost * 1.0`` (f32) regardless of tf/idf,
    # mirroring tantivy's ConstScorer for these query types.
    #   const_score=True, terms=[t...]  -> doc matches if it contains ANY
    #                                      listed term (set membership)
    #   match_all=True                  -> every live doc matches
    #   range_spec=(lo, hi, il, ih)     -> rewritten during expansion into
    #                                      a const-score term set from the
    #                                      dictionary terms in the bound
    #                                      interval (None bound = open;
    #                                      il/ih: inclusive lo/hi from
    #                                      ``[``/``]`` vs ``{``/``}``)
    const_score: bool = False
    match_all: bool = False
    range_spec: tuple | None = None
    # fuzzy term query ``term~N`` (tantivy FuzzyTermQuery, reference
    # query surface): expanded against the term dictionary into the set
    # of terms within edit distance N (N clamped to 2, the automaton
    # family's max), then evaluated as a CONST-SCORE term set — tantivy's
    # AutomatonWeight scores every match with ConstScorer(boost), no
    # tf/idf. ``fuzzy_transpose`` selects the OSA metric (adjacent
    # transposition costs 1 — FuzzyTermQuery's transposition_cost_one);
    # the parser default is plain Levenshtein, which the driver's DuckDB
    # oracle reproduces bit-exactly with ``levenshtein()``.
    fuzzy: int = 0
    fuzzy_transpose: bool = False
    # regex term query ``/pat/`` (Lucene QueryParser syntax; tantivy
    # RegexQuery semantics): the pattern matches WHOLE dictionary terms
    # (anchored, like the tantivy-fst regex automaton), expands into the
    # matching term set and evaluates CONST-SCORE — same AutomatonWeight
    # -> ConstScorer family as fuzzy. Invalid patterns raise ValueError.
    regex_spec: str | None = None
    # BLENDED synonym clause (Lucene SynonymQuery, what ES's query-time
    # ``synonym`` filter produces for single-token synonyms): ``terms``
    # are scored AS ONE TERM — per doc tf = Σ member tfs, idf from the
    # blended df = max member df — so a doc saying "quick" twice and
    # "fast" once scores like tf=3 of one pseudo-term, NOT like a
    # boolean OR (which would sum three separate BM25 scores and
    # over-reward synonym diversity). Produced by ``rewrite_synonyms``,
    # never by the parser (synonyms are analyzer config, not syntax).
    blended: bool = False

    @property
    def is_phrase(self) -> bool:
        return (
            len(self.terms) > 1
            and not self.const_score
            and not self.blended
        )


# Occur flags (Lucene/tantivy BooleanQuery semantics)
SHOULD, MUST, MUST_NOT = 0, 1, 2


@dataclass
class BoolNode:
    """Boolean query node: a list of (occur, child) like tantivy's
    ``BooleanQuery`` (child = Clause leaf or nested BoolNode).

    Match rule (Lucene/tantivy): every MUST child matches, no MUST_NOT
    child matches, and — when there is no MUST child — at least one SHOULD
    child matches. A node with only MUST_NOT children matches nothing.
    Score = sum of matching MUST/SHOULD children's scores, accumulated in
    child order (f32, bit-compatible with the oracle). ``boost``
    multiplies the node's accumulated score (tantivy ``(...)^2``)."""

    children: list[tuple[int, object]]
    boost: float = 1.0


# ------------------------------------------------------------------ lexer


def _lex(query: str) -> list[tuple[str, object]]:
    """Tokens: ('lp',)/('rp',) parens, ('and'|'or'|'not',) operators,
    ('plus'|'minus',) occur prefixes, ('word', (field, text, quoted)),
    plus the const-score family: ('brack', (field|None, incl_lo, incl_hi,
    parts)) for ``[...]``/``{...}`` groups, ('inset', field|None) for the
    ``IN`` keyword, ('all',) for a bare ``*``, and ('fieldmark', field)
    for a ``field:`` prefix detached from its operand (``path: IN [..]``,
    ``path:[a TO b]``) — folded by ``_bind_fields``."""
    out: list[tuple[str, object]] = []
    i, n = 0, len(query)

    def read_brack(j: int) -> tuple[tuple, int]:
        """``[`` / ``{`` group up to the first ``]`` / ``}`` (lenient:
        unclosed runs to end and counts as inclusive)."""
        o = query[j]
        k = j + 1
        while k < n and query[k] not in "]}":
            k += 1
        incl_hi = True if k >= n else query[k] == "]"
        return (None, o == "[", incl_hi, query[j + 1 : k].split()), min(
            k + 1, n
        )

    def read_quoted(j: int) -> tuple[str, int]:
        k = query.find('"', j + 1)
        if k == -1:
            k = n
        return query[j + 1 : k], min(k + 1, n)

    def read_slop(j: int) -> tuple[int | None, int]:
        """tantivy ``"…"~N`` suffix right after a closing quote; a bare
        ``~`` with no digits is left for the word scanner (lenient)."""
        if j < n and query[j] == "~":
            k = j + 1
            while k < n and query[k].isdigit():
                k += 1
            if k > j + 1:
                return int(query[j + 1 : k]), k
        return None, j

    while i < n:
        c = query[i]
        if c.isspace():
            i += 1
        elif c == "(":
            out.append(("lp", None))
            i += 1
        elif c == ")":
            out.append(("rp", None))
            i += 1
        elif c in "[{":
            val, i = read_brack(i)
            out.append(("brack", val))
        elif c in "]}":
            i += 1  # stray closer — drop leniently
        elif c in "+-" and i + 1 < n and not query[i + 1].isspace():
            # occur prefix: always at token start here (whitespace was
            # skipped); mid-word hyphens never reach this branch because
            # the word scanner consumes them
            out.append(("plus" if c == "+" else "minus", None))
            i += 1
        elif c == "/":
            # Lucene `/regex/` at token-boundary position: scan to the
            # closing unescaped '/' (whitespace allowed inside). An
            # unclosed pattern runs to end-of-query, leniently.
            k = i + 1
            while k < n and query[k] != "/":
                k += 2 if query[k] == "\\" else 1
            out.append(("regexp", ("content", query[i + 1 : min(k, n)])))
            i = min(k + 1, n)
        elif c == '"':
            text, i = read_quoted(i)
            out.append(("word", ("content", text, True)))
            if i < n and query[i] == "*":  # tantivy `"a b"*` phrase-prefix
                out.append(("star", None))
                i += 1
            s, i = read_slop(i)
            if s is not None:
                out.append(("slop", s))
        else:
            wstart = i
            j = i
            while (
                j < n
                and not query[j].isspace()
                and query[j] not in '()"[]{}'
            ):
                j += 1
            word = query[i:j]
            i = j
            # field prefix BEFORE the quote check, so path:"foo bar" is a
            # phrase on the path field (tantivy QueryParser behavior)
            field = None
            for fname in FIELD_IDS:
                if word.startswith(fname + ":"):
                    field = fname
                    word = word[len(fname) + 1 :]
                    break
            if field is not None and word == "" and i < n and query[i] == '"':
                text, i = read_quoted(i)
                out.append(("word", (field, text, True)))
                if i < n and query[i] == "*":
                    out.append(("star", None))
                    i += 1
                s, i = read_slop(i)
                if s is not None:
                    out.append(("slop", s))
                continue
            if field is not None and word.startswith("/"):
                # field-prefixed regex ``path:/core[0-9]+/``: the word
                # scan stops at stop-chars a pattern may legally contain
                # ('[', '(' …), so rescan from the opening slash to the
                # closing unescaped '/' like the bare-``/pat/`` branch
                p = wstart + len(field) + 2  # past "field:/"
                k = p
                while k < n and query[k] != "/":
                    k += 2 if query[k] == "\\" else 1
                out.append(("regexp", (field, query[p : min(k, n)])))
                i = min(k + 1, n)
                continue
            if field is not None and word == "":
                # ``field:`` detached from its operand — ``path:[a TO b]``
                # (bracket is a stop char) or ``path: IN [a b]``; bound by
                # ``_bind_fields``, dropped leniently if nothing follows
                out.append(("fieldmark", field))
                continue
            if word == "IN":
                # tantivy TermSetQuery keyword (``field: IN [a b c]``);
                # degrades to the plain term ``in`` when no bracket
                # group follows (_bind_fields)
                out.append(("inset", field))
                continue
            if field is None and word in ("AND", "OR", "NOT"):
                out.append((word.lower(), None))
                continue
            # trailing ^<number> = tantivy boost; also reached as a bare
            # "^2" word right after a closing quote or paren. Stacked
            # suffixes ("merge^2^3") strip right-to-left and multiply.
            # trailing ~N = fuzzy (Lucene `term~1`; bare `term~` = the
            # Lucene default distance 2); ^ and ~ suffixes strip in any
            # order ("merge~1^2" == "merge^2~1").
            boost = None
            fuzzy = None
            while True:
                if "^" in word:
                    base, _, suf = word.rpartition("^")
                    try:
                        v = float(suf)
                    except ValueError:
                        pass
                    else:
                        boost = v if boost is None else boost * v
                        word = base
                        continue
                if "~" in word:
                    base, _, suf = word.rpartition("~")
                    if base and (suf == "" or suf.isdigit()):
                        fuzzy = int(suf) if suf else 2
                        word = base
                        continue
                break
            if word == "*":
                out.append(("all", None))  # tantivy AllQuery
            elif word and (
                "?" in word or "*" in word.rstrip("*")
                or (word.endswith("*") and len(word.rstrip("*")) == 0)
            ):
                # Lucene WildcardQuery (`te?t`, `m*ge`, `*fix`): any `?`,
                # or a `*` anywhere but a pure trailing run. A single
                # trailing `*` stays the PREFIX query below (Lucene's
                # QueryParser makes the same split: `te*` -> PrefixQuery,
                # `te*t` -> WildcardQuery); a bare run of stars matches
                # every term (match-any wildcard).
                out.append(("wildcard", (field or "content", word)))
            elif word:
                out.append(("word", (field or "content", word, False)))
            if fuzzy is not None:
                out.append(("fuzzyd", fuzzy))
            if boost is not None:
                out.append(("boost", boost))
    return out


def _bind_fields(toks: list[tuple[str, object]]) -> list[tuple[str, object]]:
    """Fold ``fieldmark``/``inset`` markers onto the bracket group they
    qualify: ``path: IN [a b]`` and ``path:[a TO b]`` bind the path field.
    A dangling ``IN`` (no bracket follows) degrades to the plain term
    ``in`` and a dangling fieldmark drops — both leniently."""
    toks = list(toks)
    out: list[tuple[str, object]] = []
    i = 0
    while i < len(toks):
        kind, val = toks[i]
        nxt = toks[i + 1] if i + 1 < len(toks) else (None, None)
        if kind == "fieldmark":
            if nxt[0] == "inset":
                toks[i + 1] = ("inset", nxt[1] or val)
            elif nxt[0] == "brack":
                _f, il, ih, parts = nxt[1]
                toks[i + 1] = ("brack", (val, il, ih, parts))
            i += 1
            continue
        if kind == "inset":
            if nxt[0] == "brack":
                f, il, ih, parts = nxt[1]
                toks[i + 1] = ("brack", (val or f, il, ih, parts))
            else:
                out.append(("word", (val or "content", "IN", False)))
            i += 1
            continue
        out.append(toks[i])
        i += 1
    return out


def _wildcard_to_regex(pat: str) -> str:
    """Lucene WildcardQuery pattern -> anchored regex over the term
    dictionary: ``*`` = any char run (incl. empty), ``?`` = exactly one
    char, everything else literal (lowercased first, mirroring the
    analyzer's LowerCaser — dictionary terms are always lowercase).
    The translation makes wildcard a pure REWRITE onto the regex-query
    machinery (same AutomatonWeight -> ConstScorer family, same
    expansion cap): Lucene's own WildcardQuery compiles to exactly this
    automaton. On the alnum-only dictionary the SQL ``LIKE`` translation
    (``*``->``%``, ``?``->``_``) is equivalent, which is what the
    driver's oracle uses."""
    import re

    out = []
    for ch in pat.lower():
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


# ----------------------------------------------------------------- parser


class _Parser:
    """Recursive descent over the token stream.

    Grammar (documented tantivy-QueryParser-compatible subset):

        query := seq (OR seq)*          OR groups become SHOULD children
        seq   := item+                  juxtaposed items default to SHOULD;
                                        an explicit AND between two items
                                        promotes both to MUST
        item  := [+ | - | NOT] atom     + = MUST, - / NOT = MUST_NOT
        atom  := WORD | PHRASE | '(' query ')'

    Lenient: dangling operators / unbalanced parens never raise."""

    def __init__(self, toks: list[tuple[str, object]]):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def parse_or(self):
        groups = [self.parse_seq()]
        while self.peek() == "or":
            self.i += 1
            groups.append(self.parse_seq())
        groups = [g for g in groups if g is not None]
        if not groups:
            return None
        if len(groups) == 1:
            return groups[0]
        return BoolNode([(SHOULD, g) for g in groups])

    def parse_seq(self):
        items: list[tuple[int, object]] = []
        pending_and = False
        while True:
            t = self.peek()
            if t in (None, "rp", "or"):
                break
            if t == "and":
                self.i += 1
                if items and items[-1][0] == SHOULD:
                    items[-1] = (MUST, items[-1][1])
                pending_and = True
                continue
            occur = SHOULD
            if t in ("not", "minus"):
                self.i += 1
                occur = MUST_NOT
            elif t == "plus":
                self.i += 1
                occur = MUST
            atom = self.parse_atom()
            if atom is None:
                continue
            if pending_and and occur == SHOULD:
                occur = MUST
            pending_and = False
            items.append((occur, atom))
        if not items:
            return None
        if len(items) == 1 and items[0][0] == SHOULD:
            return items[0][1]
        return BoolNode(items)

    def parse_atom(self):
        t = self.peek()
        if t == "lp":
            self.i += 1
            node = self.parse_or()
            if self.peek() == "rp":
                self.i += 1
            return self._apply_boost(node)
        if t == "all":
            self.i += 1
            return self._apply_boost(
                Clause("content", [], const_score=True, match_all=True)
            )
        if t == "regexp":
            field, pat = self.toks[self.i][1]
            self.i += 1
            return self._apply_boost(
                Clause(field, [], const_score=True, regex_spec=pat)
            )
        if t == "wildcard":
            # Lucene WildcardQuery — rewritten onto the regex clause at
            # parse time (identical expansion + const-score semantics)
            field, pat = self.toks[self.i][1]
            self.i += 1
            return self._apply_boost(
                Clause(
                    field, [], const_score=True,
                    regex_spec=_wildcard_to_regex(pat),
                )
            )
        if t == "brack":
            field, il, ih, parts = self.toks[self.i][1]
            self.i += 1
            field = field or "content"
            if "TO" in parts:
                # range ``[lo TO hi]`` — ``*`` or a missing side = open
                j = parts.index("TO")

                def bound(raw: str | None) -> str | None:
                    if raw is None or raw == "*":
                        return None
                    tk = tokenize_text(raw)
                    return tk[0] if tk else None

                lo = bound(parts[j - 1] if j > 0 else None)
                hi = bound(parts[j + 1] if j + 1 < len(parts) else None)
                return self._apply_boost(
                    Clause(
                        field, [], const_score=True,
                        range_spec=(lo, hi, il, ih),
                    )
                )
            # term set (``IN [a b c]`` or a bare bracket group): order
            # never matters — a doc matching ANY member contributes the
            # clause's const score exactly once
            terms = sorted({tk for p in parts for tk in tokenize_text(p)})
            return self._apply_boost(
                Clause(field, terms or [_NEVER_TERM], const_score=True)
            )
        if t == "word":
            field, text, quoted = self.toks[self.i][1]
            self.i += 1
            # trailing ``*`` on an UNQUOTED single-token word = prefix
            # query (Lucene `te*` shape); a star elsewhere, after a
            # multi-token word, or not touching an alnum char is dropped
            # by the tokenizer's split — all leniently
            is_prefix = (not quoted) and text.endswith("*")
            if is_prefix:
                text = text.rstrip("*")
            toks = tokenize_text(text)
            if not toks:
                self._apply_boost(None)  # consume a dangling boost token
                return None
            del quoted  # single-token quoted spans behave like term queries
            if is_prefix and len(toks) == 1 and text and text[-1].isalnum():
                return self._apply_boost(Clause(field, toks, prefix=True))
            return self._apply_boost(Clause(field, toks))
        # operator in atom position (dangling) — skip it leniently
        if t is not None:
            self.i += 1
            return None
        return None

    def _apply_boost(self, node):
        """Fold any ``boost``/``slop``/``star``/``fuzzyd`` tokens
        following an atom into it (tantivy ``literal^2`` / ``"a b"~2`` /
        ``"a b"*`` / Lucene ``term~1``); stacked boosts multiply, slop on
        a non-phrase atom, star on a non-Clause, and fuzzy on anything
        but a plain single-term clause are ignored — all leniently."""
        while self.peek() in ("boost", "slop", "star", "fuzzyd"):
            kind, v = self.toks[self.i]
            self.i += 1
            if node is None:
                continue
            if kind == "boost":
                node.boost = float(node.boost) * float(v)
            elif kind == "star":
                if isinstance(node, Clause) and not node.const_score:
                    node.prefix = True
            elif kind == "fuzzyd":
                if (
                    isinstance(node, Clause)
                    and not node.const_score
                    and not node.prefix
                    and len(node.terms) == 1
                ):
                    # distance clamps to the Levenshtein-automaton
                    # family's max of 2 (Lucene/tantivy both cap there);
                    # ~0 degrades to the exact term query
                    node.fuzzy = min(int(v), 2)
            elif isinstance(node, Clause) and node.is_phrase:
                node.slop = int(v)
        return node


def parse_query(query: str):
    """tantivy-QueryParser-compatible subset -> Clause | BoolNode | None.

    Whitespace words are OR'd (SHOULD), quoted spans and multi-token words
    become phrases, ``path:`` targets the path field (incl. quoted:
    ``path:"foo bar"``), ``AND``/``OR``/``NOT``/``+``/``-``/parens build a
    boolean tree (reference parser entry ``ck-engine/src/lib.rs:765-769``).
    The const-score family — ``*`` (AllQuery), ``field: IN [a b c]``
    (TermSetQuery), ``field:[a TO b]`` / ``{a TO b}`` (RangeQuery, mixed
    bounds and ``*`` sides allowed) — parses to const-score Clauses.
    Unknown/empty words drop out; empty query -> None."""
    return _Parser(_bind_fields(_lex(query))).parse_or()


def collect_clauses(node) -> list[Clause]:
    """All leaf clauses of a parse tree, in evaluation order."""
    if node is None:
        return []
    if isinstance(node, Clause):
        return [node]
    out: list[Clause] = []
    for _, child in node.children:
        out.extend(collect_clauses(child))
    return out


def rewrite_synonyms(node, synmap: dict):
    """Apply a query-time synonym map (term -> [synonym, ...]) to a
    parse tree: every eligible single-term scored leaf whose term has
    synonyms becomes a BLENDED clause over {term} ∪ synonyms (Lucene
    SynonymQuery — one scorer, summed tf, max-df idf; boost preserved).
    Phrases, const-score family, prefix/fuzzy/regex leaves are left
    alone (Lucene's graph filter has richer phrase handling; out of
    scope and documented). The map's keys/values must already be
    analyzer tokens (``BM25Engine`` normalizes them)."""
    if node is None or not synmap:
        return node
    if isinstance(node, Clause):
        if (
            not node.const_score
            and not node.prefix
            and not node.fuzzy
            and node.regex_spec is None
            and not node.blended
            and len(node.terms) == 1
            and node.terms[0] in synmap
        ):
            t = node.terms[0]
            members = [t, *[s for s in synmap[t] if s != t]]
            return Clause(
                node.field, members, boost=node.boost, blended=True
            )
        return node
    node.children = [
        (o, rewrite_synonyms(c, synmap)) for o, c in node.children
    ]
    return node


MAX_PREFIX_EXPANSIONS = 1024  # Lucene BooleanQuery.maxClauseCount
_PARSE_MISS = object()  # parse-cache sentinel (None is a valid tree)
_NEVER_TERM = "\x00∅"  # unmatchable: real tokens are alnum-only


def expand_prefix_tree(
    node, expand, expand_range=None, expand_fuzzy=None, expand_regex=None,
    max_expansions=MAX_PREFIX_EXPANSIONS,
):
    """Rewrite prefix Clauses into SHOULD disjunctions of dictionary
    terms (Lucene SCORING_BOOLEAN_REWRITE). ``expand(field, prefix) ->
    sorted list[str]`` supplies the dictionary — shard-local in
    ``LocalIndex``, corpus-global in ``BM25Oracle``; both yield identical
    results because a term absent from a shard's dictionary scores none
    of that shard's docs. An empty expansion becomes an unmatchable term
    clause so MUST/MUST_NOT semantics match an absent term exactly.
    Range Clauses rewrite via ``expand_range(field, lo, hi, il, ih)``
    into const-score TERM SETS (Lucene CONSTANT_SCORE rewrite — set
    membership, not a scored disjunction), under the same cap. Fuzzy
    Clauses rewrite via ``expand_fuzzy(field, term, dist, transpose)``
    into the same const-score shape (tantivy AutomatonWeight →
    ConstScorer). Raises ValueError past ``max_expansions``
    (default MAX_PREFIX_EXPANSIONS, Lucene's maxClauseCount — the cap
    bounds SCORED disjunction width; ``max_expansions=None`` disables it
    for match-only consumers like the percolator)."""
    if node is None or (
        isinstance(node, Clause)
        and not node.prefix
        and not node.fuzzy
        and node.range_spec is None
        and node.regex_spec is None
    ):
        return node
    if isinstance(node, Clause):
        if node.regex_spec is not None:
            if expand_regex is None:
                raise ValueError("regex expansion needs a dictionary")
            terms = list(expand_regex(node.field, node.regex_spec))
            if max_expansions is not None and len(terms) > max_expansions:
                raise ValueError(
                    f"regex /{node.regex_spec}/ expands to {len(terms)} "
                    f"terms (max {max_expansions})"
                )
            return Clause(
                node.field, terms or [_NEVER_TERM],
                boost=node.boost, const_score=True,
            )
        if node.fuzzy:
            if expand_fuzzy is None:
                raise ValueError("fuzzy expansion needs a dictionary")
            terms = list(
                expand_fuzzy(
                    node.field, node.terms[0], node.fuzzy,
                    node.fuzzy_transpose,
                )
            )
            if max_expansions is not None and len(terms) > max_expansions:
                raise ValueError(
                    f"fuzzy '{node.terms[0]}~{node.fuzzy}' expands to "
                    f"{len(terms)} terms (max {max_expansions})"
                )
            return Clause(
                node.field, terms or [_NEVER_TERM],
                boost=node.boost, const_score=True,
            )
        if node.range_spec is not None:
            lo, hi, il, ih = node.range_spec
            if expand_range is None:
                raise ValueError("range expansion needs a dictionary")
            terms = list(expand_range(node.field, lo, hi, il, ih))
            if max_expansions is not None and len(terms) > max_expansions:
                raise ValueError(
                    f"range [{lo} TO {hi}] expands to {len(terms)} terms "
                    f"(max {max_expansions})"
                )
            return Clause(
                node.field, terms or [_NEVER_TERM],
                boost=node.boost, const_score=True,
            )
        # term prefix (`te*`) expands its only term; PHRASE prefix
        # (`"a b"*`, tantivy PhrasePrefixQuery) expands the LAST term
        # into a disjunction of exact phrases sharing the head (slop
        # carries into each expanded phrase)
        head = node.terms[:-1]
        terms = expand(node.field, node.terms[-1])
        if max_expansions is not None and len(terms) > max_expansions:
            raise ValueError(
                f"prefix '{node.terms[-1]}*' expands to {len(terms)} terms "
                f"(max {max_expansions})"
            )
        if not terms:
            return Clause(node.field, [_NEVER_TERM], boost=node.boost)
        if len(terms) == 1:
            return Clause(
                node.field, head + [terms[0]],
                boost=node.boost, slop=node.slop,
            )
        # boost rides the disjunction node (multiplies the f32 sum),
        # identically on engine and oracle sides
        return BoolNode(
            [
                (SHOULD, Clause(node.field, head + [t], slop=node.slop))
                for t in terms
            ],
            boost=node.boost,
        )
    return BoolNode(
        [
            (
                o,
                expand_prefix_tree(
                    c, expand, expand_range, expand_fuzzy, expand_regex,
                    max_expansions,
                ),
            )
            for o, c in node.children
        ],
        boost=node.boost,
    )


# (the physical layer lives below _PostingView: LocalIndex holds a set of
# doc-range buckets of the serving layout, DocShard wraps it as an actor)


class _PostingView:
    """Live postings of one (field, term) merged across epochs: dead docs
    (superseded by a later epoch, or deleted) filtered out, doc-sorted.
    Positions decode lazily (phrase queries only)."""

    __slots__ = (
        "_docs", "_tfs", "_dls", "_entries", "_dead", "_src_epoch",
        "_src_idx", "_pos_cache",
    )

    def __init__(self, entries: list[dict], dead_per_epoch: list[np.ndarray]):
        self._entries = entries
        self._dead = dead_per_epoch
        self._docs = None
        self._pos_cache = {}

    @property
    def docs(self):
        if self._docs is None:
            self._load()
        return self._docs

    @property
    def tfs(self):
        if self._docs is None:
            self._load()
        return self._tfs

    @property
    def dls(self):
        if self._docs is None:
            self._load()
        return self._dls

    def _load(self):
        entries, dead_per_epoch = self._entries, self._dead
        if len(entries) == 1 and len(dead_per_epoch[entries[0]["epoch"]]) == 0:
            d, t, l = codec.decode_posting_list(entries[0]["postings"])
            self._docs, self._tfs, self._dls = d, t, l
            self._src_epoch = np.zeros(len(d), dtype=np.int32)
            self._src_idx = np.arange(len(d), dtype=np.int64)
            return
        docs_l, tfs_l, dls_l, se_l, si_l = [], [], [], [], []
        for k, e in enumerate(entries):
            d, t, l = codec.decode_posting_list(e["postings"])
            dead = dead_per_epoch[e["epoch"]]
            if len(dead):
                idx = np.searchsorted(dead, d)
                idx_c = np.clip(idx, 0, len(dead) - 1)
                keep = dead[idx_c] != d
            else:
                keep = np.ones(len(d), dtype=bool)
            kept_idx = np.nonzero(keep)[0]
            docs_l.append(d[kept_idx])
            tfs_l.append(t[kept_idx])
            dls_l.append(l[kept_idx])
            se_l.append(np.full(len(kept_idx), k, dtype=np.int32))
            si_l.append(kept_idx)
        docs = np.concatenate(docs_l)
        order = np.argsort(docs, kind="stable")
        self._docs = docs[order]
        self._tfs = np.concatenate(tfs_l)[order]
        self._dls = np.concatenate(dls_l)[order]
        self._src_epoch = np.concatenate(se_l)[order]
        self._src_idx = np.concatenate(si_l)[order]

    @property
    def df(self) -> int:
        return len(self.docs)

    def positions_for(self, merged_idx: int) -> np.ndarray:
        """Token positions of the posting at merged index i."""
        from . import codec

        k = int(self._src_epoch[merged_idx])
        e = self._entries[k]
        if e["positions"] is None:
            raise RuntimeError("phrase query on an index built without positions")
        if k not in self._pos_cache:
            _, t, _ = codec.decode_posting_list(e["postings"])
            flat, starts = codec.decode_positions(e["positions"], t)
            self._pos_cache[k] = (flat, starts, t)
        flat, starts, t = self._pos_cache[k]
        i = int(self._src_idx[merged_idx])
        return flat[starts[i] : starts[i] + t[i]]

    def positions_for_many(
        self, merged_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(flat positions, per-posting lens) for many postings at once —
        a single vectorized ragged gather per source epoch."""
        from . import codec

        lens = np.empty(len(merged_idx), dtype=np.int64)
        pieces = [None] * len(merged_idx)
        src_e = self._src_epoch[merged_idx]
        src_i = self._src_idx[merged_idx]
        out_parts = []
        order_parts = []
        for k in np.unique(src_e):
            e = self._entries[int(k)]
            if e["positions"] is None:
                raise RuntimeError("phrase query on an index built without positions")
            if int(k) not in self._pos_cache:
                _, t, _ = codec.decode_posting_list(e["postings"])
                flat, starts = codec.decode_positions(e["positions"], t)
                self._pos_cache[int(k)] = (flat, starts, t)
            flat, starts, t = self._pos_cache[int(k)]
            sel = np.nonzero(src_e == k)[0]
            idxs = src_i[sel]
            l = t[idxs].astype(np.int64)
            lens[sel] = l
            offs = np.concatenate(([0], np.cumsum(l)))
            gather = np.repeat(starts[idxs], l) + (
                np.arange(offs[-1]) - np.repeat(offs[:-1], l)
            )
            out_parts.append(flat[gather])
            order_parts.append(sel)
        # reassemble in merged_idx order
        out_off = np.concatenate(([0], np.cumsum(lens)))
        total = out_off[-1]
        flat_out = np.empty(total, dtype=np.int64)
        for sel, vals in zip(order_parts, out_parts):
            l = lens[sel]
            o = np.concatenate(([0], np.cumsum(l)))
            dest = np.repeat(out_off[sel], l) + (np.arange(o[-1]) - np.repeat(o[:-1], l))
            flat_out[dest] = vals
        return flat_out, lens



class LocalIndex:
    """Scoring core over a set of doc-range BUCKETS of the serving layout.

    The index's serving projection is document-partitioned (``build.py``
    ``_ServingEncoder``): every bucket holds, for EVERY term, the slice of
    its posting list whose doc_ids fall in the bucket's range, plus the
    bucket's doc metadata. A LocalIndex therefore scores any query fully
    locally for its doc ranges — BM25 contributions for a doc never span
    processes — and returns only its top-k. This is the standard
    distributed-search layout: per-query traffic out of a shard is O(k),
    never O(postings) (asserted in tests via ``BM25Engine.last_fanout_rows``).

    Statistics: N and avgdl are global (manifest); ``df`` on every serving
    row is the term's global df at build time, exact for a single-epoch
    index. With incremental epochs or deletions the driver supplies exact
    global live dfs via ``df_map`` (one tiny int-only round, summing the
    shards' local live counts).

    ``buckets=None`` loads ALL buckets — a complete single-process engine
    (used by tests and the CLI's embedded mode). ``shard=(i, n)`` instead
    takes the buckets ``b % n == i`` of the bucket count of the manifest
    being loaded, so construction, ``reload`` and a restart all pick the
    same buckets even after a compaction changed that count.
    """

    def __init__(self, index_dir: str, buckets: list[int] | None = None,
                 dtype=np.float32, synonyms: dict | None = None,
                 shard: tuple[int, int] | None = None):
        self.index_dir = index_dir
        self._synonyms = synonyms or {}
        self.dtype = dtype
        self._fixed_buckets = buckets
        self._shard = shard
        self.reload()

    # ------------------------------------------------------------- loading

    def reload(self, manifest: dict | None = None) -> None:
        """Load the epoch set of ``manifest`` (default: the committed
        root manifest) in place, the reader-reopen of Lucene's
        ``DirectoryReader.openIfChanged``. The new state is built beside
        the old one and swapped in only once fully loaded: a failed load
        (e.g. an epoch a concurrent compaction removed) raises and leaves
        the shard serving its old state. A caller fanning one reload over
        many shards passes the manifest it read, so all of them serve the
        same epoch set and statistics."""
        man = load_manifest(self.index_dir) if manifest is None else manifest
        if "num_serving_buckets" not in man:
            raise RuntimeError(
                "index predates the serving layout — rebuild it"
            )
        # caches first: they are derived state, and dropping them before
        # the load lowers the old-beside-new peak and lets the new state
        # reuse their memory (a failed load serves on with cold caches)
        self._cache: dict[tuple[int, str], _PostingView | None] = {}
        self._field_dict_cache: dict[int, np.ndarray] = {}
        new = copy.copy(self)
        new.manifest = man
        new.n_buckets = man["num_serving_buckets"]
        if self._shard is not None:
            i, n = self._shard
            new.buckets = list(range(i, new.n_buckets, n))
        else:
            new.buckets = sorted(
                range(new.n_buckets) if self._fixed_buckets is None
                else self._fixed_buckets
            )
        new.epochs = man.get("epochs", [man["epoch_dir"]])
        new._load_tables()
        new._dead = new._load_dead_sets()
        new._load_meta()
        # an epoch dir missing now was missing or removed during the load
        # (its bucket dirs were then skipped as empty): refuse the state
        for e in new.epochs:
            if not os.path.isdir(os.path.join(self.index_dir, e)):
                raise FileNotFoundError(
                    f"epoch {e!r} of {self.index_dir!r} is gone"
                )
        vars(self).update(vars(new))
        del new
        _release_heap()

    def _load_tables(self) -> None:
        """Read the buckets' serving posting tables; build a SORTED key
        array ("fid:term" -> (table, row)) — one vectorized Arrow concat +
        one argsort, no per-row Python, blobs stay in Arrow until queried."""
        self._tables: list[pa.Table] = []
        self._tbl_epoch: list[int] = []
        key_parts, ti_parts, ri_parts = [], [], []
        for ei, e in enumerate(self.epochs):
            post_root = os.path.join(self.index_dir, e, "serving", "post")
            for b in self.buckets:
                bdir = os.path.join(post_root, f"bucket={b}")
                if not os.path.isdir(bdir):
                    continue
                for path in _parquet_files(bdir):
                    t = _read_parquet(path)
                    if t.num_rows == 0:
                        continue
                    ti = len(self._tables)
                    self._tables.append(t)
                    self._tbl_epoch.append(ei)
                    combo = pc.binary_join_element_wise(
                        pc.cast(t["field"], pa.string()),
                        t["term"],
                        ":",
                    )
                    key_parts.append(combo.to_numpy(zero_copy_only=False))
                    ti_parts.append(np.full(t.num_rows, ti, np.int32))
                    ri_parts.append(np.arange(t.num_rows, dtype=np.int64))
        if key_parts:
            keys = np.concatenate(key_parts)
            # stable: entries of one key keep (epoch, bucket) append order
            order = np.argsort(keys, kind="stable")
            self._keys = keys[order]
            self._key_ti = np.concatenate(ti_parts)[order]
            self._key_ri = np.concatenate(ri_parts)[order]
        else:
            self._keys = np.empty(0, dtype=object)
            self._key_ti = np.empty(0, np.int32)
            self._key_ri = np.empty(0, np.int64)

    def _epoch_doc_ids(self, ei: int) -> np.ndarray:
        droot = os.path.join(
            self.index_dir, self.epochs[ei], "serving", "docs"
        )
        arrs = []
        for b in self.buckets:
            bdir = os.path.join(droot, f"bucket={b}")
            if os.path.isdir(bdir):
                arrs.extend(
                    _read_parquet(path, ["doc_id"])["doc_id"]
                    .to_numpy()
                    .astype(np.uint64)
                    for path in _parquet_files(bdir)
                )
        return np.concatenate(arrs) if arrs else np.empty(0, np.uint64)

    def _load_dead_sets(self) -> list[np.ndarray]:
        """dead[i] = this shard's doc_ids whose epoch-i postings are
        superseded by a LATER epoch or deleted at a LATER epoch (deletions
        are epoch-scoped — delete-then-re-add stays live, tested)."""
        from .build import doc_bucket_of

        n = len(self.epochs)
        ids = [self._epoch_doc_ids(i) for i in range(n)]
        dels: list[np.ndarray] = []
        my_buckets = np.array(self.buckets, dtype=np.int32)
        for e in self.epochs:
            dfile = os.path.join(self.index_dir, e, "deleted.parquet")
            if os.path.exists(dfile):
                d = (
                    _read_parquet(dfile, ["doc_id"])["doc_id"]
                    .to_numpy()
                    .astype(np.uint64)
                )
                if len(self.buckets) != self.n_buckets:
                    d = d[np.isin(doc_bucket_of(d, self.n_buckets), my_buckets)]
                dels.append(d)
            else:
                dels.append(np.empty(0, np.uint64))
        dead = []
        for i in range(n):
            later = ids[i + 1 :] + dels[i + 1 :]
            dead.append(
                np.unique(np.concatenate(later))
                if later
                else np.empty(0, np.uint64)
            )
        return dead

    _META_COLS = ("repo", "path", "lang", "content_sha256", "preview")
    # Numeric FAST FIELDS (tantivy's columnar per-doc values): emitted by
    # the build into the serving docs projection, used by the aggregation
    # collectors (histogram/range/stats). Docs from epochs that predate a
    # field load as null and are skipped by aggregations (tantivy
    # missing-fast-field semantics).
    _META_NUM_COLS = ("n_bytes", "dl_content")

    def _load_meta(self) -> None:
        """Live doc metadata of this shard's buckets, sorted by doc_id —
        top-k metadata lookups are a local searchsorted, no table scan.
        Columns absent from an epoch's layout (e.g. ``preview`` on an
        index built before the stored-snippet field) load as nulls."""
        id_parts, tabs = [], []
        all_cols = (*self._META_COLS, *self._META_NUM_COLS)
        for ei, e in enumerate(self.epochs):
            droot = os.path.join(self.index_dir, e, "serving", "docs")
            epoch_tabs = []
            for b in self.buckets:
                bdir = os.path.join(droot, f"bucket={b}")
                if not os.path.isdir(bdir):
                    continue
                for path in _parquet_files(bdir):
                    t = _read_parquet(path, ["doc_id", *all_cols])
                    for c in self._META_COLS:
                        if c not in t.column_names:
                            t = t.append_column(
                                c, pa.nulls(t.num_rows, pa.string())
                            )
                    for c in self._META_NUM_COLS:
                        if c not in t.column_names:
                            t = t.append_column(
                                c, pa.nulls(t.num_rows, pa.int64())
                            )
                    epoch_tabs.append(t.select(["doc_id", *all_cols]))
            if not epoch_tabs:
                continue
            t = pa.concat_tables(epoch_tabs)
            ids = t["doc_id"].to_numpy().astype(np.uint64)
            dead = self._dead[ei]
            if len(dead):
                idx = np.clip(np.searchsorted(dead, ids), 0, len(dead) - 1)
                keep = dead[idx] != ids
                t = t.filter(pa.array(keep))
                ids = ids[keep]
            id_parts.append(ids)
            tabs.append(t)
        if id_parts:
            ids = np.concatenate(id_parts)
            t = pa.concat_tables(tabs)
            order = np.argsort(ids)
            self._meta_ids = ids[order]
            self._meta = {
                c: t[c].to_numpy(zero_copy_only=False)[order]
                for c in self._META_COLS
            }
            self._meta_num, self._meta_num_ok = {}, {}
            for c in self._META_NUM_COLS:
                col = t[c]
                self._meta_num[c] = (
                    pc.fill_null(col, -1)
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)[order]
                )
                self._meta_num_ok[c] = (
                    pc.is_valid(col).to_numpy(zero_copy_only=False)[order]
                )
        else:
            self._meta_ids = np.empty(0, np.uint64)
            self._meta = {c: np.empty(0, object) for c in self._META_COLS}
            self._meta_num = {
                c: np.empty(0, np.int64) for c in self._META_NUM_COLS
            }
            self._meta_num_ok = {
                c: np.empty(0, bool) for c in self._META_NUM_COLS
            }

    # -------------------------------------------------------------- lookup

    def _view(self, key: tuple[int, str]) -> _PostingView | None:
        if key in self._cache:
            return self._cache[key]
        s = f"{key[0]}:{key[1]}"
        lo = int(np.searchsorted(self._keys, s, side="left"))
        hi = int(np.searchsorted(self._keys, s, side="right"))
        if hi == lo:
            self._cache[key] = None
            return None
        entries = []
        for j in range(lo, hi):
            ti = int(self._key_ti[j])
            ri = int(self._key_ri[j])
            t = self._tables[ti]
            entries.append(
                {
                    "epoch": self._tbl_epoch[ti],
                    "df": int(t["df"][ri].as_py()),
                    "postings": t["postings"][ri].as_py(),
                    "skips": t["skips"][ri].as_py(),
                    "positions": (
                        t["positions"][ri].as_py()
                        if "positions" in t.column_names
                        else None
                    ),
                }
            )
        view = _PostingView(entries, self._dead)
        self._cache[key] = view
        return view

    def _rows_for(self, keys) -> dict:
        return {k: self._view(k) for k in keys}

    def _expand_prefix(self, field: str, prefix: str) -> list[str]:
        """Local-dictionary terms starting with ``prefix`` (sorted,
        deduped across epochs) — one searchsorted range scan."""
        fid = FIELD_IDS[field]
        lo = f"{fid}:{prefix}"
        a = int(np.searchsorted(self._keys, lo, side="left"))
        b = int(
            np.searchsorted(self._keys, lo + "\U0010ffff", side="right")
        )
        cut = len(f"{fid}:")
        return sorted({str(s)[cut:] for s in self._keys[a:b]})

    def expand_prefixes(
        self, pairs: list[tuple[str, str]]
    ) -> list[list[str]]:
        """Batch form for the engine's global-df round."""
        return [self._expand_prefix(f, p) for f, p in pairs]

    def _expand_range(
        self, field: str, lo: str | None, hi: str | None,
        incl_lo: bool, incl_hi: bool,
    ) -> list[str]:
        """Local-dictionary terms inside the lexicographic interval
        (tantivy RangeQuery bound semantics; ``None`` = open side) —
        two searchsorted probes on the sorted key array."""
        fid = FIELD_IDS[field]
        pre = f"{fid}:"
        if lo is None:
            a = int(np.searchsorted(self._keys, pre, side="left"))
        else:
            a = int(
                np.searchsorted(
                    self._keys, pre + lo,
                    side="left" if incl_lo else "right",
                )
            )
        if hi is None:
            b = int(
                np.searchsorted(
                    self._keys, pre + "\U0010ffff", side="right"
                )
            )
        else:
            b = int(
                np.searchsorted(
                    self._keys, pre + hi,
                    side="right" if incl_hi else "left",
                )
            )
        cut = len(pre)
        return sorted({str(s)[cut:] for s in self._keys[a:b]})

    def expand_ranges(self, specs: list[tuple]) -> list[list[str]]:
        """Batch form for the engine's global cap-enforcement round."""
        return [self._expand_range(*s) for s in specs]

    def _field_dictionary(self, field: str) -> np.ndarray:
        """Sorted unique LOCAL term dictionary of one field (epoch-deduped,
        field prefix stripped), cached — the fuzzy scan's input. Derived
        once from the sorted key array via one searchsorted range."""
        fid = FIELD_IDS[field]
        cached = self._field_dict_cache.get(fid)
        if cached is not None:
            return cached
        pre = f"{fid}:"
        a = int(np.searchsorted(self._keys, pre, side="left"))
        b = int(
            np.searchsorted(self._keys, pre + "\U0010ffff", side="right")
        )
        cut = len(pre)
        terms = np.array(
            sorted({str(s)[cut:] for s in self._keys[a:b]}), dtype=object
        )
        self._field_dict_cache[fid] = terms
        return terms

    def _expand_fuzzy(
        self, field: str, term: str, dist: int, transpose: bool = False
    ) -> list[str]:
        """Local-dictionary terms within edit distance ``dist`` of
        ``term`` (sorted) — one vectorized DP over the field dictionary
        (``strdist.edit_within``; plain Levenshtein, or OSA when
        ``transpose``). At 10^12-file dictionary scale this swaps to a
        Levenshtein automaton walked over the sorted dictionary; the
        call sites only see the ``expand`` signature."""
        terms = self._field_dictionary(field)
        mask = edit_within(term, terms, int(dist), transpose=transpose)
        return [str(t) for t in terms[mask]]

    def expand_fuzzies(self, specs: list[tuple]) -> list[list[str]]:
        """Batch form for the engine's global cap-enforcement round."""
        return [self._expand_fuzzy(*s) for s in specs]

    def _expand_regex(self, field: str, pattern: str) -> list[str]:
        """Local-dictionary terms the anchored pattern matches in FULL
        (tantivy RegexQuery / Lucene RegexpQuery whole-term semantics).
        Invalid patterns raise ValueError (tantivy errors too). The scan
        is a compiled ``re.fullmatch`` over the cached field dictionary;
        at 10^12-file dictionary scale this becomes a regex automaton
        intersected with the term FST — same ``expand`` signature."""
        import re

        try:
            rx = re.compile(pattern)
        except re.error as e:
            raise ValueError(f"bad regex /{pattern}/: {e}") from None
        terms = self._field_dictionary(field)
        return [str(t) for t in terms if rx.fullmatch(str(t))]

    def expand_regexes(self, specs: list[tuple]) -> list[list[str]]:
        """Batch form for the engine's global cap-enforcement round."""
        return [self._expand_regex(*s) for s in specs]

    def local_dfs(self, keys: list[tuple[int, str]]) -> list[int]:
        """LIVE local df per key (loads + dead-filters the views; they
        stay cached for the scoring round that follows)."""
        out = []
        for k in keys:
            v = self._view(tuple(k))
            out.append(0 if v is None else v.df)
        return out

    # ------------------------------------------------------------- scoring

    def _df_of(self, key, view, df_map) -> int:
        """GLOBAL df for idf: exact from the serving row (single-epoch) or
        from the driver-summed live-df map (multi-epoch / deletions)."""
        if df_map is not None:
            return df_map.get(key, 0)
        return view._entries[0]["df"]

    def _clause_contrib(
        self, clause: Clause, rows: dict, df_map=None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(doc_ids u64, contributions dtype) of one clause, or None."""
        man = self.manifest
        fid = FIELD_IDS[clause.field]
        if clause.match_all:
            # tantivy AllQuery: every live doc of this shard's buckets,
            # const score boost*1.0 (ConstScorer)
            docs = self._meta_ids
            if len(docs) == 0:
                return None
            return docs, np.full(len(docs), self.dtype(clause.boost))
        if clause.const_score:
            # TermSetQuery / expanded RangeQuery: docs containing ANY
            # member term, const score boost*1.0 each (no tf/idf)
            parts = [
                v.docs
                for t in clause.terms
                if (v := rows.get((fid, t))) is not None and v.df > 0
            ]
            if not parts:
                return None
            docs = (
                parts[0]
                if len(parts) == 1
                else np.unique(np.concatenate(parts))
            )
            return docs, np.full(len(docs), self.dtype(clause.boost))
        n_docs = man["num_docs"]
        avgdl = man["fields"][clause.field]["avgdl"]
        keys = [(fid, t) for t in clause.terms]
        views = [rows.get(k) for k in keys]
        if clause.blended:
            # Lucene SynonymQuery: members score AS ONE TERM — union
            # the docs, SUM the tfs, idf from the blended df = max
            # member GLOBAL df. A missing member just contributes
            # nothing (unlike phrases, which require every term).
            live = [
                (k, v) for k, v in zip(keys, views)
                if v is not None and v.df > 0
            ]
            if not live:
                return None
            uniq, _ = _unique_inverse(
                np.concatenate([v.docs for _, v in live])
            )
            tf_sum = np.zeros(len(uniq), np.int64)
            dl = np.zeros(len(uniq), np.int64)
            for _, v in live:
                pos = np.searchsorted(uniq, v.docs)
                tf_sum[pos] += v.tfs
                dl[pos] = v.dls  # same doc -> same dl from any member
            df_b = max(self._df_of(k, v, df_map) for k, v in live)
            contrib = scoring.term_scores(
                tf_sum, dl, df_b, n_docs, avgdl, dtype=self.dtype
            )
            if clause.boost != 1.0:
                contrib = contrib * self.dtype(clause.boost)
            return uniq, contrib
        if any(v is None or v.df == 0 for v in views):
            return None
        if not clause.is_phrase:
            v = views[0]
            contrib = scoring.term_scores(
                v.tfs, v.dls, self._df_of(keys[0], v, df_map),
                n_docs, avgdl, dtype=self.dtype,
            )
            if clause.boost != 1.0:
                contrib = contrib * self.dtype(clause.boost)
            return v.docs, contrib
        # phrase: intersect docs, count adjacency runs via positions
        common = views[0].docs
        for v in views[1:]:
            common = common[np.isin(common, v.docs, assume_unique=True)]
        if len(common) == 0:
            return None
        idx_per_term = [np.searchsorted(v.docs, common) for v in views]
        dl_common = views[0].dls[idx_per_term[0]]
        # vectorized phrase counting: pack (doc_rank, position) into one
        # u64 key per occurrence; adjacency check = sorted membership of
        # key+j in term j's keys (positions < 2^32, so +j never crosses a
        # doc boundary). No per-doc Python loop.
        keys_per_term = []
        for j, v in enumerate(views):
            flat, lens = v.positions_for_many(idx_per_term[j])
            doc_rank = np.repeat(
                np.arange(len(common), dtype=np.uint64), lens
            )
            keys_per_term.append(
                (doc_rank << np.uint64(32)) | flat.astype(np.uint64)
            )
        cand = keys_per_term[0]
        if clause.slop == 0:
            for j in range(1, len(clause.terms)):
                kj = keys_per_term[j]
                shifted = cand + np.uint64(j)
                pos = np.searchsorted(kj, shifted)
                pos_c = np.clip(pos, 0, len(kj) - 1)
                cand = cand[kj[pos_c] == shifted]
                if len(cand) == 0:
                    break
        else:
            # sloppy phrase (Clause.slop doc): greedy in-order chain —
            # per first-term occurrence, each next term takes its
            # smallest position after the previous link (searchsorted on
            # the same packed keys), then one total-gap check. Still no
            # per-doc Python loop; cost is the same O(occ·log) as exact.
            prev = cand
            ok = np.ones(len(cand), bool)
            for j in range(1, len(clause.terms)):
                kj = keys_per_term[j]
                pos = np.searchsorted(kj, prev + np.uint64(1))
                valid = pos < len(kj)
                nxt = kj[np.clip(pos, 0, max(len(kj) - 1, 0))]
                valid &= (nxt >> np.uint64(32)) == (prev >> np.uint64(32))
                ok &= valid
                prev = np.where(ok, nxt, prev)
                if not ok.any():
                    break
            gap = (prev - cand).astype(np.int64)  # == position span on ok lanes
            ok &= gap - (len(clause.terms) - 1) <= clause.slop
            cand = cand[ok]
        pfreqs = np.bincount(
            (cand >> np.uint64(32)).astype(np.int64), minlength=len(common)
        )
        match = pfreqs > 0
        if not match.any():
            return None
        # phrase idf = sum of member-term idfs (tantivy Bm25Weight::for_terms)
        w = scoring.phrase_weight(
            [self._df_of(k, v, df_map) for k, v in zip(keys, views)],
            n_docs, dtype=self.dtype,
        )
        contrib = w * scoring.tf_factor(
            pfreqs[match], dl_common[match], avgdl, dtype=self.dtype
        )
        if clause.boost != 1.0:
            contrib = contrib * self.dtype(clause.boost)
        return common[match], contrib

    # ----------------------------------------------------- boolean evaluation

    def _eval_node(self, node, rows, df_map=None):
        """Evaluate a parse tree -> (docs sorted u64, scores) or None.

        Lucene/tantivy BooleanQuery semantics; per-doc accumulation runs
        in child order (f32), bit-compatible with the oracle's. Fully
        doc-local: every contribution for a doc lives in this shard."""
        if isinstance(node, Clause):
            return self._clause_contrib(node, rows, df_map)
        results = [
            (o, self._eval_node(c, rows, df_map)) for o, c in node.children
        ]
        must = [r for o, r in results if o == MUST]
        if any(r is None for r in must):
            return None
        mnot = [r for o, r in results if o == MUST_NOT and r is not None]
        if must:
            cand = must[0][0]
            for d, _ in must[1:]:
                cand = cand[np.isin(cand, d, assume_unique=True)]
        else:
            s_docs = [r[0] for o, r in results if o == SHOULD and r is not None]
            if not s_docs:
                return None
            cand = np.unique(np.concatenate(s_docs))
        if mnot:
            neg = np.unique(np.concatenate([r[0] for r in mnot]))
            cand = cand[~np.isin(cand, neg, assume_unique=True)]
        if len(cand) == 0:
            return None
        acc = np.zeros(len(cand), dtype=self.dtype)
        for occur, r in results:  # child order == accumulation order
            if occur == MUST_NOT or r is None:
                continue
            d, s = r
            pos = np.searchsorted(cand, d)
            pos_c = np.clip(pos, 0, max(len(cand) - 1, 0))
            m = cand[pos_c] == d
            acc[pos_c[m]] += s[m]  # unique indices per child -> fancy add
        if node.boost != 1.0:
            acc = acc * self.dtype(node.boost)
        return cand, acc

    @staticmethod
    def _flat_should_clauses(tree) -> list[Clause] | None:
        """The clause list when the tree is a flat all-SHOULD disjunction
        of leaves (the MaxScore-prunable shape); else None. A node boost
        can't flatten: it multiplies the f32 SUM (s*b), which is not
        bit-identical to boosting each clause (a*b + b*b), so boosted
        groups take the exact TAAT path."""
        if isinstance(tree, Clause):
            return [tree]
        if (
            isinstance(tree, BoolNode)
            and tree.boost == 1.0
            and all(
                o == SHOULD and isinstance(c, Clause)
                for o, c in tree.children
            )
        ):
            return [c for _, c in tree.children]
        return None

    def _can_prune(self, clauses: list[Clause]) -> bool:
        """MaxScore pruning is wired for the common case: single epoch, no
        dead docs, plain term clauses (phrases take the full path)."""
        return (
            len(self.epochs) == 1
            and all(len(d) == 0 for d in self._dead)
            and all(not c.is_phrase for c in clauses)
            and all(c.boost >= 0.0 for c in clauses)  # U stays an upper bound
            # const-score leaves (term sets / match-all) take exact TAAT
            and all(not c.const_score for c in clauses)
            # blended synonym clauses score a UNION with summed tfs —
            # the per-term posting caches can't bound them; exact TAAT
            and all(not c.blended for c in clauses)
            and len(clauses) > 1
        )

    def _search_maxscore(
        self, clauses: list[Clause], rows: dict, k: int, df_map=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """MaxScore / block-max pruned top-k over this shard's skip
        metadata (blocks of each serving entry, bucket-ascending so the
        concatenation stays doc-sorted).

        Terms are processed in descending score upper bound
        ``U_t = idf_t * tf_factor(max(block max_tf), min(block min_dl))``;
        once the remaining terms' bound sum drops below the provisional
        k-th score, only blocks whose doc range intersects current
        candidates are decoded (``codec.decode_posting_blocks``).
        Survivors are re-accumulated in CLAUSE order at the end, so the
        returned scores are bit-identical to the exhaustive TAAT path —
        pruning changes what gets decoded, never the result (tested)."""
        man = self.manifest
        n_docs = man["num_docs"]
        infos = []
        for ci, c in enumerate(clauses):
            key = (FIELD_IDS[c.field], c.terms[0])
            view = rows.get(key)
            if view is None:
                continue
            entries = view._entries
            skips_list = [codec.decode_skips(e["skips"]) for e in entries]
            df_g = self._df_of(key, view, df_map)
            avgdl = man["fields"][c.field]["avgdl"]
            u = float(
                scoring.idf(df_g, n_docs, dtype=self.dtype)
                * scoring.tf_factor(
                    int(max(sk["max_tf"].max() for sk in skips_list)),
                    int(min(sk["min_dl"].min() for sk in skips_list)),
                    avgdl, dtype=self.dtype,
                )
            ) * float(c.boost)
            infos.append(
                {"ci": ci, "entries": entries, "view": view,
                 "skips_list": skips_list, "U": u, "df": df_g,
                 "avgdl": avgdl, "boost": float(c.boost)}
            )
        if not infos:
            return np.empty(0, np.uint64), np.empty(0, self.dtype)
        infos.sort(key=lambda x: -x["U"])
        suffix = np.cumsum([x["U"] for x in infos][::-1])[::-1]
        contribs: list[tuple[int, np.ndarray, np.ndarray]] = []
        acc_docs = np.empty(0, np.uint64)
        acc_scores = np.empty(0, np.float64)
        theta = -np.inf
        for i, info in enumerate(infos):
            refine = (
                i > 0
                and len(acc_docs) >= k
                and suffix[i] < theta * (1.0 - 1e-6)
            )
            if not refine:
                # cached decode: in the prunable case (single epoch, no
                # dead docs) the view's arrays == the raw posting decode
                v = info["view"]
                docs, tfs, dls = v.docs, v.tfs, v.dls
            else:
                # decode only blocks whose doc range can touch a candidate
                # (per serving entry; entries are bucket-ascending)
                masks = []
                any_hit = False
                all_full = True
                for e, sk in zip(info["entries"], info["skips_list"]):
                    lo = np.concatenate(
                        ([np.uint64(0)], sk["last_doc"][:-1] + np.uint64(1))
                    )
                    hi = sk["last_doc"]
                    li = np.searchsorted(acc_docs, lo, side="left")
                    ri = np.searchsorted(acc_docs, hi, side="right")
                    mask = ri > li
                    masks.append(mask)
                    any_hit |= bool(mask.any())
                    all_full &= bool(mask.all())
                if not any_hit:
                    continue
                if all_full:
                    # candidates touch EVERY block (common-term OR
                    # shapes): re-decoding all blocks per query costs
                    # more than it saves — reuse the view's CACHED
                    # full decode (identical bytes in the prunable
                    # single-epoch/no-dead regime) and fall through to
                    # the same candidate filter
                    v = info["view"]
                    docs, tfs, dls = v.docs, v.tfs, v.dls
                else:
                    d_l, t_l, l_l = [], [], []
                    for e, mask in zip(info["entries"], masks):
                        if not mask.any():
                            continue
                        d_, t_, l_ = codec.decode_posting_blocks(
                            e["postings"], e["skips"], mask
                        )
                        d_l.append(d_)
                        t_l.append(t_)
                        l_l.append(l_)
                    docs = np.concatenate(d_l)
                    tfs = np.concatenate(t_l)
                    dls = np.concatenate(l_l)
                keep_idx = np.searchsorted(acc_docs, docs)
                keep_idx = np.clip(keep_idx, 0, len(acc_docs) - 1)
                keep = acc_docs[keep_idx] == docs
                docs, tfs, dls = docs[keep], tfs[keep], dls[keep]
                if len(docs) == 0:
                    continue
            contrib = scoring.term_scores(
                tfs, dls, info["df"], n_docs, info["avgdl"], dtype=self.dtype
            )
            if info["boost"] != 1.0:
                contrib = contrib * self.dtype(info["boost"])
            contribs.append((info["ci"], docs, contrib))
            # provisional accumulate (float64; steers pruning only)
            merged = np.concatenate((acc_docs, docs))
            uniq, inv = _unique_inverse(merged)
            ns = np.zeros(len(uniq), np.float64)
            np.add.at(ns, inv[: len(acc_docs)], acc_scores)
            np.add.at(ns, inv[len(acc_docs):], contrib.astype(np.float64))
            acc_docs, acc_scores = uniq, ns
            if len(acc_scores) >= k:
                theta = float(np.partition(acc_scores, -k)[-k])
        # exact re-accumulation in clause order (bitwise == TAAT)
        contribs.sort(key=lambda x: x[0])
        all_docs = np.concatenate([c[1] for c in contribs])
        uniq, inv = _unique_inverse(all_docs)
        acc = np.zeros(len(uniq), dtype=self.dtype)
        off = 0
        for _, docs, contrib in contribs:
            np.add.at(acc, inv[off : off + len(docs)], contrib)
            off += len(docs)
        order = np.lexsort((uniq, -acc.astype(np.float64)))[:k]
        return uniq[order], acc[order]

    # ------------------------------------------------------------ querying

    def _parse(self, query):
        """parse + query-time synonym rewrite (every query entry point
        funnels through here so the synonym map applies uniformly).
        Non-string input is a PRE-PARSED tree shipped by the engine
        (parsed + synonym-rewritten ONCE on the driver, then fanned
        out): the per-(query, shard) parse was the serving path's one
        fixed cost that grew with shard count, so the tree — not the
        string — crosses the wire. The engine's synonym map is the one
        every shard was constructed with, so a driver-side rewrite is
        bit-identical to a shard-side one."""
        if not isinstance(query, str):
            return query
        return rewrite_synonyms(parse_query(query), self._synonyms)

    def _expanded(self, query):
        """The front of every query evaluation: parse (or take the
        driver's tree), rewrite the dictionary-expanded leaves (prefix,
        fuzzy, range, regex) against this shard's dictionary — they
        then score/highlight as their EXPANSIONS, as Lucene rewrites
        them — and gather the rows of every leaf term. Returns
        ``(tree, rows)``, or None for the empty query."""
        tree = self._parse(query)
        if tree is None:
            return None
        if any(
            c.prefix
            or c.fuzzy
            or c.range_spec is not None
            or c.regex_spec is not None
            for c in collect_clauses(tree)
        ):
            tree = expand_prefix_tree(
                tree, self._expand_prefix, self._expand_range,
                self._expand_fuzzy, self._expand_regex,
            )
        keys = dict.fromkeys(
            (FIELD_IDS[c.field], t)
            for c in collect_clauses(tree)
            for t in c.terms
        )
        return tree, self._rows_for(keys)

    def query_topk(
        self, query: str, k: int = 100, pruning: bool = True, df_map=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """This shard's top-k (doc_ids, raw scores) for the query."""
        prep = self._expanded(query)
        if prep is None:
            return np.empty(0, np.uint64), np.empty(0, self.dtype)
        tree, rows = prep
        flat = self._flat_should_clauses(tree)
        if pruning and flat is not None and self._can_prune(flat):
            return self._search_maxscore(flat, rows, k, df_map)
        res = self._eval_node(tree, rows, df_map)
        if res is None:
            return np.empty(0, np.uint64), np.empty(0, self.dtype)
        docs, acc = res
        order = np.lexsort((docs, -acc.astype(np.float64)))[:k]
        return docs[order], acc[order]

    def _attach_meta(self, out: dict, docs: np.ndarray) -> dict:
        """Attach this shard's metadata columns for ``docs`` (O(k)
        searchsorted; absent metadata yields None cells)."""
        if len(docs):
            pos = np.clip(
                np.searchsorted(self._meta_ids, docs),
                0, max(len(self._meta_ids) - 1, 0),
            )
            found = (
                self._meta_ids[pos] == docs
                if len(self._meta_ids)
                else np.zeros(len(docs), bool)
            )
            for c in self._META_COLS:
                vals = np.full(len(docs), None, dtype=object)
                vals[found] = self._meta[c][pos[found]]
                out[c] = vals
        else:
            for c in self._META_COLS:
                out[c] = np.empty(0, dtype=object)
        return out

    def query_topk_meta(
        self, query: str, k: int = 100, pruning: bool = True, df_map=None
    ) -> dict:
        """Top-k plus this shard's doc metadata (O(k) searchsorted)."""
        docs, scores = self.query_topk(query, k, pruning, df_map)
        return self._attach_meta({"doc_id": docs, "score": scores}, docs)

    def query_many(
        self, queries: list[str], k: int = 100, pruning: bool = True,
        df_map=None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        return [self.query_topk(q, k, pruning, df_map) for q in queries]

    def query_span_near(
        self, terms: list[str], slop: int = 0, in_order: bool = False,
        k: int | None = None, field: str = "content",
        with_meta: bool = False,
    ) -> dict:
        """Proximity matching (Lucene SpanNearQuery / ES ``span_near``):
        this shard's docs where some per-term position tuple fits in a
        window of <= len(terms)+slop positions; ``in_order=True``
        additionally requires the tuple to ascend in query order
        (Lucene's in-order spans). Returns ``{"doc_id", "min_window"
        [, meta cols]}`` ranked (min_window asc, doc_id asc), cut to
        ``k`` — min_window is the doc's smallest covering window, the
        classic proximity-rank key.

        Vectorized like the phrase matcher: occurrences pack into
        (doc_rank << 32 | position) keys; every occurrence anchors a
        candidate window whose other ends come from one searchsorted
        per term (a minimal window's left edge is always some term
        occurrence, so anchoring at every occurrence is exact);
        per-doc minima via ``np.minimum.at``. No per-doc Python loop.
        Repeated terms are rejected for the unordered form (Lucene's
        non-overlap rule needs distinct positions)."""
        n = len(terms)
        empty = {
            "doc_id": np.empty(0, np.uint64),
            "min_window": np.empty(0, np.int64),
        }
        if with_meta:
            for c in self._META_COLS:
                empty[c] = np.empty(0, dtype=object)
        if n == 0:
            return empty
        if not in_order and len(set(terms)) != n:
            raise ValueError(
                "unordered span_near needs distinct terms"
            )
        views = [self._view((FIELD_IDS[field], t)) for t in terms]
        if any(v is None or v.df == 0 for v in views):
            return empty
        common = views[0].docs
        for v in views[1:]:
            common = common[np.isin(common, v.docs, assume_unique=True)]
        if len(common) == 0:
            return empty
        keys_per_term = []
        for j, v in enumerate(views):
            flat, lens = v.positions_for_many(
                np.searchsorted(v.docs, common)
            )
            doc_rank = np.repeat(
                np.arange(len(common), dtype=np.uint64), lens
            )
            keys_per_term.append(
                (doc_rank << np.uint64(32)) | flat.astype(np.uint64)
            )
        best = np.full(len(common), np.int64(1) << 60, np.int64)
        if in_order:
            cand = keys_per_term[0]
            prev = cand
            ok = np.ones(len(cand), bool)
            for j in range(1, n):
                kj = keys_per_term[j]
                pos = np.searchsorted(kj, prev + np.uint64(1))
                valid = pos < len(kj)
                nxt = kj[np.clip(pos, 0, max(len(kj) - 1, 0))]
                valid &= (nxt >> np.uint64(32)) == (prev >> np.uint64(32))
                ok &= valid
                prev = np.where(ok, nxt, prev)
                if not ok.any():
                    break
            win = (prev - cand + np.uint64(1)).astype(np.int64)
            d = (cand >> np.uint64(32)).astype(np.int64)
            np.minimum.at(best, d[ok], win[ok])
        else:
            anchors = np.unique(np.concatenate(keys_per_term))
            ends = anchors.copy()
            ok = np.ones(len(anchors), bool)
            for kj in keys_per_term:
                pos = np.searchsorted(kj, anchors)  # first >= anchor
                valid = pos < len(kj)
                nxt = kj[np.clip(pos, 0, max(len(kj) - 1, 0))]
                valid &= (nxt >> np.uint64(32)) == (
                    anchors >> np.uint64(32)
                )
                ok &= valid
                ends = np.where(ok, np.maximum(ends, nxt), ends)
            win = (ends - anchors + np.uint64(1)).astype(np.int64)
            d = (anchors >> np.uint64(32)).astype(np.int64)
            np.minimum.at(best, d[ok], win[ok])
        match = best - n <= slop
        docs, wins = common[match], best[match]
        order = np.lexsort((docs, wins))
        if k is not None:
            order = order[:k]
        out = {"doc_id": docs[order], "min_window": wins[order]}
        if with_meta:
            self._attach_meta(out, out["doc_id"])
        return out

    def _match_set(self, query: str, df_map=None):
        """(doc_ids, scores) of this shard's FULL match set. Collectors
        that visit every match (Count / TermsAggregation / numeric
        aggregations / per-bucket top hits) share this path; it is
        always the exact TAAT evaluation — MaxScore pruning only helps
        ranked cuts, never full-set collection."""
        prep = self._expanded(query)
        res = None if prep is None else self._eval_node(*prep, df_map)
        if res is None:
            return np.empty(0, np.uint64), np.empty(0, self.dtype)
        return res

    def _facet_values(self, docs: np.ndarray, facet_field: str):
        """Facet value per matched doc from shard-local metadata
        (O(matches) searchsorted), never the corpus."""
        if facet_field not in self._meta:
            raise ValueError(f"no such facet field: {facet_field!r}")
        pos = np.searchsorted(self._meta_ids, docs)
        return np.asarray(self._meta[facet_field])[pos]

    def query_facets(
        self, query: str, facet_field: str = "lang", df_map=None
    ) -> tuple[int, dict]:
        """(match count, {facet value -> matching-doc count}) over this
        shard's FULL match set (tantivy Count / TermsAggregation
        collector pair)."""
        docs, _ = self._match_set(query, df_map)
        if not len(docs):
            # still validate the field so bad names fail loudly
            self._facet_values(docs, facet_field)
            return 0, {}
        vals = self._facet_values(docs, facet_field)
        uniq, counts = np.unique(vals, return_counts=True)
        return int(len(docs)), {
            str(v): int(c) for v, c in zip(uniq, counts)
        }

    def query_significant(
        self, query: str, field: str = "lang", df_map=None
    ) -> dict:
        """Shard-local state for a SIGNIFICANT-TERMS aggregation (the ES
        ``significant_terms`` bucket agg over a keyword field): exact
        integer value counts of the FOREGROUND (this shard's match set)
        and the BACKGROUND (this shard's full live doc set, the ES
        default background). Both maps are O(field cardinality), never
        O(matches); the background counts are over the dead-filtered
        metadata, so deletions shift significance exactly as they shift
        the facet counts. All scoring happens on the driver AFTER the
        integer merge — shards ship no floats, so the cross-shard merge
        is associative and drift-free."""
        docs, _ = self._match_set(query, df_map)
        vals = self._facet_values(docs, field)  # also validates field
        fg_u, fg_c = (
            np.unique(vals, return_counts=True)
            if len(vals)
            else (np.empty(0, object), np.empty(0, np.int64))
        )
        bg_u, bg_c = np.unique(
            np.asarray(self._meta[field]), return_counts=True
        )
        return {
            "fg_total": int(len(docs)),
            "bg_total": int(len(self._meta_ids)),
            "fg": {str(v): int(c) for v, c in zip(fg_u, fg_c)},
            "bg": {str(v): int(c) for v, c in zip(bg_u, bg_c)},
        }

    def query_aggregate(self, query: str, spec: dict, df_map=None) -> dict:
        """Shard-local tantivy-style numeric AGGREGATION over the FULL
        match set (tantivy's ES-compatible aggregation module:
        ``histogram`` / ``range`` / ``stats`` / ``percentiles`` /
        ``cardinality``). Values come from the shard's numeric
        fast-field columns (``_META_NUM_COLS``); matched docs whose
        epoch predates the field are skipped (tantivy
        missing-fast-field semantics). Only O(buckets) / O(distinct
        values) integer state returns to the driver — sums are exact
        int64, so the cross-shard merge is associative with no float
        drift."""
        docs, _ = self._match_set(query, df_map)
        return self._agg_over(docs, spec)

    def query_aggregate_multi(
        self, query: str, specs: dict, df_map=None
    ) -> dict:
        """N named aggregations over ONE match-set evaluation (the ES
        multi-agg request body): the TAAT pass — the expensive part —
        runs once, each spec then reduces the same doc array."""
        docs, _ = self._match_set(query, df_map)
        return {name: self._agg_over(docs, s) for name, s in specs.items()}

    def query_composite(
        self, query, sources: list[dict], df_map=None
    ) -> dict:
        """Shard-local state for an ES COMPOSITE aggregation: exact
        integer counts per composite key tuple over this shard's FULL
        match set. Each source is ``{"field", "type": "terms" |
        "histogram" [, "interval"]}`` — terms sources read keyword
        metadata, histogram sources bucket a numeric fast field by
        ``floor(v/interval)*interval``; docs missing any source value
        drop (ES's default missing-bucket behavior). State is
        O(composite cardinality), never O(matches); counting is
        vectorized (per-source np.unique codes combined into one
        bincount key — no per-doc Python)."""
        docs, _ = self._match_set(query, df_map)
        if not len(docs):
            return {"keys": [], "counts": []}
        pos = np.searchsorted(self._meta_ids, docs)
        cols = []
        valid = np.ones(len(docs), bool)
        for s in sources:
            f = s["field"]
            if s.get("type", "terms") == "histogram":
                if f not in self._meta_num:
                    raise ValueError(f"no such numeric fast field: {f!r}")
                iv = int(s["interval"])
                vals = (self._meta_num[f][pos] // iv) * iv
                valid &= self._meta_num_ok[f][pos]
                cols.append(vals)
            else:
                if f not in self._meta:
                    raise ValueError(f"no such field: {f!r}")
                vals = np.asarray(self._meta[f], dtype=object)[pos]
                valid &= np.not_equal(vals, None)
                cols.append(vals)
        # combine per-source code columns into one bincount key
        codes = np.zeros(int(valid.sum()), np.int64)
        uniqs = []
        for c in cols:
            u, inv = np.unique(c[valid], return_inverse=True)
            uniqs.append(u)
            codes = codes * np.int64(len(u)) + inv.astype(np.int64)
        kk, counts = np.unique(codes, return_counts=True)
        # decode combined codes back to per-source values
        keys = []
        parts = []
        rem = kk
        for u in reversed(uniqs):
            parts.append(u[rem % len(u)])
            rem = rem // len(u)
        for i in range(len(kk)):
            keys.append(
                tuple(p[i].item() if hasattr(p[i], "item") else p[i]
                      for p in reversed(parts))
            )
        return {"keys": keys, "counts": [int(c) for c in counts]}

    def _agg_over(self, docs: np.ndarray, spec: dict) -> dict:
        kind = spec["kind"]
        if kind == "cardinality":
            vals = self._facet_values(docs, spec["field"])
            return {
                "matches": int(len(docs)),
                "values": sorted(str(v) for v in np.unique(vals)),
            }
        field = spec["field"]
        if field not in self._meta_num:
            raise ValueError(f"no such numeric fast field: {field!r}")
        if len(docs):
            pos = np.searchsorted(self._meta_ids, docs)
            ok = self._meta_num_ok[field][pos]
            v = self._meta_num[field][pos][ok]
        else:
            v = np.empty(0, np.int64)
        if kind == "stats":
            return {
                "count": int(len(v)),
                "min": int(v.min()) if len(v) else None,
                "max": int(v.max()) if len(v) else None,
                "sum": int(v.sum()),
            }
        if kind == "extended_stats":
            # exact big-int moments via the value->count map: numpy
            # int64 sum(v^2) overflows long before the doc counts this
            # engine targets, Python ints never do; the loop is
            # O(distinct values), not O(matches)
            uk, cnt = np.unique(v, return_counts=True)
            ssum = 0
            ssq = 0
            for kk, cc in zip(uk.tolist(), cnt.tolist()):
                ssum += cc * kk
                ssq += cc * kk * kk
            return {
                "count": int(len(v)),
                "min": int(v.min()) if len(v) else None,
                "max": int(v.max()) if len(v) else None,
                "sum": ssum,
                "sum_sq": ssq,
            }
        if kind == "histogram":
            interval = int(spec["interval"])
            if interval <= 0:
                raise ValueError("histogram interval must be positive")
            keys = (v // interval) * interval  # floor division: ES keys
            uk, cnt = np.unique(keys, return_counts=True)
            return {
                "buckets": {int(kk): int(cc) for kk, cc in zip(uk, cnt)}
            }
        if kind == "percentiles":
            # exact where ES would sketch: the shard ships its VALUE ->
            # COUNT map (O(distinct values) — bounded for doc-stat
            # fields like token counts; a t-digest is the scale path
            # for unbounded-cardinality fields)
            uk, cnt = np.unique(v, return_counts=True)
            return {
                "value_counts": {
                    int(kk): int(cc) for kk, cc in zip(uk, cnt)
                }
            }
        if kind == "range":
            edges = [int(e) for e in spec["edges"]]
            if edges != sorted(edges) or len(set(edges)) != len(edges):
                raise ValueError("range edges must be strictly increasing")
            # ES range semantics: bucket i = [edges[i-1], edges[i])
            idx = np.searchsorted(np.asarray(edges, np.int64), v, "right")
            cnt = np.bincount(idx, minlength=len(edges) + 1)
            bounds = ["*", *map(str, edges), "*"]
            return {
                "ranges": {
                    f"{bounds[i]}-{bounds[i + 1]}": int(cnt[i])
                    for i in range(len(edges) + 1)
                }
            }
        raise ValueError(f"unknown aggregation kind: {kind!r}")

    def query_filters_agg(
        self, filters: dict, spec: dict, df_map=None
    ) -> dict:
        """FILTERS bucket aggregation (the ES ``filters`` agg): N NAMED
        filter queries — each a full query-language expression — each
        reduced under the same sub-aggregation spec, all in ONE shard
        visit. The driver pays one fan-out for the whole request; each
        bucket's state is the usual O(buckets)/O(distinct) exact-int
        payload, so the cross-shard merge per name is the standard
        associative aggregation merge."""
        return {
            name: self._agg_over(self._match_set(q, df_map)[0], spec)
            for name, q in filters.items()
        }

    def query_adjacency(self, filters: dict, df_map=None) -> dict:
        """ADJACENCY-MATRIX aggregation (the ES ``adjacency_matrix``
        bucket agg): N named filter queries evaluated once each, then
        exact integer counts for every singleton (``a``) and pairwise
        intersection (``a&b``, ES key order: name1 < name2) over this
        shard's docs. Doc partitioning makes the cross-shard merge a
        plain integer sum; state is O(N^2) ints, never O(matches)."""
        names = sorted(filters)
        sets = {
            n: self._match_set(filters[n], df_map)[0] for n in names
        }
        out: dict[str, int] = {}
        for i, a in enumerate(names):
            out[a] = int(len(sets[a]))
            for b in names[i + 1:]:
                out[f"{a}&{b}"] = int(
                    len(np.intersect1d(sets[a], sets[b],
                                       assume_unique=True))
                )
        return out

    def query_topk_by_field(
        self, query: str, field: str, k: int, ascending: bool = False,
        df_map=None,
    ) -> dict:
        """Top-k of the match set ordered by a NUMERIC FAST FIELD
        instead of the BM25 score (tantivy ``TopDocs::order_by_u64_field``).
        Exact-int comparisons, (value, doc_id asc) order; docs missing
        the field are skipped. Returns this shard's local top-k — the
        cross-shard merge re-applies the same total order."""
        docs, _ = self._match_set(query, df_map)
        if field not in self._meta_num:
            raise ValueError(f"no such numeric fast field: {field!r}")
        if len(docs):
            pos = np.searchsorted(self._meta_ids, docs)
            ok = self._meta_num_ok[field][pos]
            docs, pos = docs[ok], pos[ok]
            vals = self._meta_num[field][pos]
            paths = np.asarray(self._meta["path"])[pos]
        else:
            vals = np.empty(0, np.int64)
            paths = np.empty(0, object)
        order = np.lexsort((docs, vals if ascending else -vals))[:k]
        return {
            "values": vals[order],
            "doc_ids": docs[order],
            "paths": paths[order],
        }

    def query_facet_stats(
        self, query: str, facet_field: str, value_field: str, df_map=None
    ) -> dict:
        """SUB-AGGREGATION (ES terms bucket + nested stats): per facet
        value, exact (count, min, max, sum) of a numeric fast field
        over this shard's match set. One argsort-split groups the
        matched values — O(matches log matches) at any facet
        cardinality; O(distinct values) integer rows return."""
        docs, _ = self._match_set(query, df_map)
        if value_field not in self._meta_num:
            raise ValueError(f"no such numeric fast field: {value_field!r}")
        vals = self._facet_values(docs, facet_field)
        if not len(docs):
            return {}
        pos = np.searchsorted(self._meta_ids, docs)
        ok = self._meta_num_ok[value_field][pos]
        vals = vals[ok]
        nums = self._meta_num[value_field][pos][ok]
        grp = np.argsort(vals, kind="stable")
        uniq, starts = np.unique(vals[grp], return_index=True)
        bounds = np.append(starts, len(grp))
        out = {}
        for i, u in enumerate(uniq):
            seg = nums[grp[bounds[i]:bounds[i + 1]]]
            out[str(u)] = (
                int(len(seg)), int(seg.min()), int(seg.max()),
                int(seg.sum()),
            )
        return out

    def query_bucket_topk(
        self, query: str, facet_field: str, k: int, df_map=None
    ) -> dict:
        """Per-facet-bucket top-k (the ES ``terms`` + ``top_hits``
        composite): every match is scored exactly (TAAT), bucketed by
        its shard-local facet value, and each bucket keeps its local
        top-k by (score desc, doc_id asc). O(distinct values * k) rows
        return to the driver. Bucketing is one stable argsort over the
        score-ordered rows + boundary split — O(matches log matches)
        regardless of facet cardinality (a per-value boolean mask would
        be O(matches * values), quadratic on high-cardinality facets
        like repo/path prefixes)."""
        docs, acc = self._match_set(query, df_map)
        if not len(docs):
            self._facet_values(docs, facet_field)
            return {}
        vals = self._facet_values(docs, facet_field)
        pos = np.searchsorted(self._meta_ids, docs)
        paths = np.asarray(self._meta["path"])[pos]
        order = np.lexsort((docs, -acc.astype(np.float64)))
        docs, acc = docs[order], acc[order]
        vals, paths = vals[order], paths[order]
        # stable sort by value preserves the score order within groups
        grp = np.argsort(vals, kind="stable")
        uniq, starts = np.unique(vals[grp], return_index=True)
        bounds = np.append(starts, len(grp))
        out = {}
        for i, u in enumerate(uniq):
            sel = grp[bounds[i]:min(bounds[i] + k, bounds[i + 1])]
            out[str(u)] = (docs[sel], acc[sel], paths[sel])
        return out

    def query_dismax(
        self, queries: list[str], tie: float = 0.0, k: int = 100,
        df_map=None,
    ) -> dict:
        """DisjunctionMax over N sub-queries (Lucene/ES ``dis_max``,
        tantivy ``DisjunctionMaxQuery``): a doc matching ANY clause
        scores ``best + tie * (sum_of_other_clauses)`` where ``best``
        is its highest clause score. Each clause is a full
        query-language expression evaluated exactly (TAAT) over this
        shard's match set; the combine runs in float64 with a FIXED
        operation order — ``best + tie * (total - best)`` — so the SQL
        oracle can reproduce it bit-for-bit. Returns this shard's local
        top-k (score desc, doc_id asc) with stored ``path`` metadata."""
        per = [self._match_set(q, df_map) for q in queries]
        nonempty = [d for d, _ in per if len(d)]
        if not nonempty:
            return {
                "doc_ids": np.empty(0, np.uint64),
                "scores": np.empty(0, np.float64),
                "paths": np.empty(0, object),
            }
        all_docs = np.unique(np.concatenate(nonempty))
        best = np.zeros(len(all_docs), np.float64)
        total = np.zeros(len(all_docs), np.float64)
        for docs, acc in per:
            if not len(docs):
                continue
            pos = np.searchsorted(all_docs, docs)
            s = acc.astype(np.float64)
            # a clause's doc ids are unique, so fancy indexing is safe
            # here (and much faster than the unbuffered np.maximum.at)
            total[pos] += s
            best[pos] = np.maximum(best[pos], s)
        scores = best + tie * (total - best)
        order = np.lexsort((all_docs, -scores))[:k]
        docs, scores = all_docs[order], scores[order]
        paths = np.full(len(docs), None, dtype=object)
        if len(docs) and len(self._meta_ids):
            pos = np.clip(
                np.searchsorted(self._meta_ids, docs),
                0, len(self._meta_ids) - 1,
            )
            found = self._meta_ids[pos] == docs
            paths[found] = np.asarray(self._meta["path"])[pos[found]]
        return {"doc_ids": docs, "scores": scores, "paths": paths}

    def query_min_should(
        self, clauses: list[str], m: int, k: int = 100, df_map=None,
    ) -> dict:
        """Boolean OR with a MINIMUM_SHOULD_MATCH floor (the Lucene/ES
        ``minimum_should_match`` parameter; tantivy
        ``BooleanQuery::with_minimum_required_clauses``): a doc scores
        the SUM of its matching clause scores, but only qualifies when
        it matches at least ``m`` of the N should-clauses. ``m=1`` is
        the plain OR; ``m=N`` is the AND over the same clauses (both
        pinned BITWISE by pytest — the accumulator adds clause scores
        left-to-right in clause-list order, the identical association
        the boolean evaluator uses; np.add.reduceat would associate
        right-to-left and drift an ulp on 3+ clause docs)."""
        per = [self._match_set(q, df_map) for q in clauses]
        nonempty = [(d, a) for d, a in per if len(d)]
        if not nonempty or m > len(clauses):
            return {
                "doc_ids": np.empty(0, np.uint64),
                "scores": np.empty(0, np.float64),
                "paths": np.empty(0, object),
            }
        uniq = np.unique(np.concatenate([d for d, _ in nonempty]))
        sums = np.zeros(len(uniq), np.float64)
        counts = np.zeros(len(uniq), np.int32)
        for d, a in nonempty:
            pos = np.searchsorted(uniq, d)
            sums[pos] += a.astype(np.float64)
            counts[pos] += 1
        keep = counts >= max(1, int(m))
        uniq, sums = uniq[keep], sums[keep]
        cut = np.lexsort((uniq, -sums))[:k]
        docs, sums = uniq[cut], sums[cut]
        paths = np.full(len(docs), None, dtype=object)
        if len(docs) and len(self._meta_ids):
            pos = np.clip(
                np.searchsorted(self._meta_ids, docs),
                0, len(self._meta_ids) - 1,
            )
            found = self._meta_ids[pos] == docs
            paths[found] = np.asarray(self._meta["path"])[pos[found]]
        return {"doc_ids": docs, "scores": sums, "paths": paths}

    def query_boosting(
        self, positive: str, negative: str, negative_boost: float,
        k: int = 100, df_map=None,
    ) -> dict:
        """BOOSTING query (the Lucene/ES ``boosting`` compound): the
        match set and scores are the POSITIVE query's alone; a doc that
        ALSO matches the negative query stays in the match set but has
        its score demoted by ONE float64 multiply with ``negative_boost``
        (and re-ranks accordingly)
        (Lucene's BoostingQuery contract — the negative side never
        matches or excludes by itself, unlike MUST_NOT). Both sides are
        full query-language expressions evaluated exactly (TAAT) on this
        shard; ``negative_boost=1`` is bitwise the positive query alone
        and ``negative_boost=0`` zeroes demoted docs (both pinned by
        pytest). Returns this shard's local top-k (score desc, doc_id
        asc) with stored ``path`` metadata."""
        docs, acc = self._match_set(positive, df_map)
        if not len(docs):
            return {
                "doc_ids": np.empty(0, np.uint64),
                "scores": np.empty(0, np.float64),
                "paths": np.empty(0, object),
            }
        scores = acc.astype(np.float64)
        neg_docs, _ = self._match_set(negative, df_map)
        if len(neg_docs):
            # positive-match docs are unique and both arrays are doc_id
            # sets, so a sorted-membership test suffices (O(n log m))
            neg_sorted = np.sort(neg_docs)
            pos = np.clip(
                np.searchsorted(neg_sorted, docs), 0, len(neg_sorted) - 1
            )
            demote = neg_sorted[pos] == docs
            scores[demote] *= np.float64(negative_boost)
        order = np.lexsort((docs, -scores))[:k]
        docs, scores = docs[order], scores[order]
        paths = np.full(len(docs), None, dtype=object)
        if len(docs) and len(self._meta_ids):
            pos = np.clip(
                np.searchsorted(self._meta_ids, docs),
                0, len(self._meta_ids) - 1,
            )
            found = self._meta_ids[pos] == docs
            paths[found] = np.asarray(self._meta["path"])[pos[found]]
        return {"doc_ids": docs, "scores": scores, "paths": paths}

    def query_function_score(
        self, query: str, field: str, factor: float = 1.0,
        modifier: str = "log1p", boost_mode: str = "multiply",
        missing: float = 1.0, k: int = 100, df_map=None,
    ) -> dict:
        """FUNCTION-SCORE query with a FIELD-VALUE-FACTOR (the ES
        ``function_score`` + ``field_value_factor`` pair): every match
        keeps its exact BM25 score, then combines it with a function of
        a numeric fast field —

            fvf   = modifier(factor * field_value)   (float64)
            score = bm25 <boost_mode> fvf

        ``modifier`` in {'none', 'log1p', 'sqrt'}, ``boost_mode`` in
        {'multiply', 'sum'}; docs from epochs that predate the field use
        ``missing`` as their field value (the ES ``missing`` parameter).
        The operation order is FIXED — one multiply into the modifier,
        one combine — so a SQL oracle reproduces the doubles from the
        same integer field values (modulo the documented log1p-vs-ln(1+x)
        ulp, absorbed by the shared rounded cut). Returns this shard's
        local top-k (score desc, doc_id asc) with stored ``path``."""
        if modifier not in ("none", "log1p", "sqrt"):
            raise ValueError(f"unknown modifier: {modifier!r}")
        if boost_mode not in ("multiply", "sum"):
            raise ValueError(f"unknown boost_mode: {boost_mode!r}")
        if field not in self._meta_num:
            raise ValueError(f"no such numeric fast field: {field!r}")
        docs, acc = self._match_set(query, df_map)
        if not len(docs):
            return {
                "doc_ids": np.empty(0, np.uint64),
                "scores": np.empty(0, np.float64),
                "paths": np.empty(0, object),
            }
        pos = np.searchsorted(self._meta_ids, docs)
        ok = self._meta_num_ok[field][pos]
        v = np.where(
            ok,
            self._meta_num[field][pos].astype(np.float64),
            np.float64(missing),
        )
        x = np.float64(factor) * v
        if modifier == "log1p":
            fvf = np.log1p(x)
        elif modifier == "sqrt":
            fvf = np.sqrt(x)
        else:
            fvf = x
        s = acc.astype(np.float64)
        scores = s * fvf if boost_mode == "multiply" else s + fvf
        order = np.lexsort((docs, -scores))[:k]
        docs, scores = docs[order], scores[order]
        paths = np.full(len(docs), None, dtype=object)
        if len(docs) and len(self._meta_ids):
            mpos = np.clip(
                np.searchsorted(self._meta_ids, docs),
                0, len(self._meta_ids) - 1,
            )
            found = self._meta_ids[mpos] == docs
            paths[found] = np.asarray(self._meta["path"])[mpos[found]]
        return {"doc_ids": docs, "scores": scores, "paths": paths}

    def query_explain(
        self, query: str, doc_id: int, df_map=None
    ) -> dict | None:
        """EXPLAIN for one doc (the Lucene ``explain()`` / ES
        ``_explain`` API): did ``doc_id`` match, what is its exact
        score, and how does each leaf clause contribute? Returns None
        when the doc doesn't match — or lives in another shard (doc
        partitioning: exactly one shard answers, the driver keeps the
        non-None response).

        Payload: ``total`` is bit-identical to the score the ranked
        path returns (same ``_eval_node``); ``leaves`` carries one row
        per leaf clause in evaluation order — kind (term / phrase /
        const), matched flag, the leaf's f-dtype contribution, and for
        scored term leaves the full BM25 evidence: global df, the
        doc's tf and dl, and the idf weight, each re-derivable by
        hand (``score = idf * tf*(k1+1)/(tf + k1*(1-b+b*dl/avgdl))``).
        For unboosted trees the contributions of matched non-MUST_NOT
        leaves sum to ``total`` in leaf order (pinned by pytest)."""
        doc = np.uint64(doc_id)
        prep = self._expanded(query)
        if prep is None:
            return None
        tree, rows = prep
        leaves = collect_clauses(tree)
        res = self._eval_node(tree, rows, df_map)
        if res is None:
            return None
        docs, acc = res
        pos = int(np.searchsorted(docs, doc))
        if pos >= len(docs) or docs[pos] != doc:
            return None
        man = self.manifest
        out_leaves = []
        for c in leaves:
            fid = FIELD_IDS[c.field]
            r = self._clause_contrib(c, rows, df_map)
            matched, score = False, 0.0
            if r is not None:
                d, s = r
                p = int(np.searchsorted(d, doc))
                if p < len(d) and d[p] == doc:
                    matched, score = True, float(s[p])
            kind = (
                "const" if c.const_score or c.match_all
                else (
                    "synonym" if c.blended
                    else ("phrase" if c.is_phrase else "term")
                )
            )
            details = []
            if kind == "term":
                v = rows.get((fid, c.terms[0]))
                if v is not None and v.df > 0:
                    df = int(self._df_of((fid, c.terms[0]), v, df_map))
                    p = int(np.searchsorted(v.docs, doc))
                    hit = p < len(v.docs) and v.docs[p] == doc
                    details.append(
                        {
                            "term": c.terms[0],
                            "df": df,
                            "tf": int(v.tfs[p]) if hit else 0,
                            "dl": int(v.dls[p]) if hit else None,
                            "idf": float(
                                scoring.idf(
                                    df, man["num_docs"], dtype=self.dtype
                                )
                            ),
                        }
                    )
            elif kind in ("phrase", "synonym"):
                for t in c.terms:
                    v = rows.get((fid, t))
                    if v is not None and v.df > 0:
                        details.append(
                            {
                                "term": t,
                                "df": int(
                                    self._df_of((fid, t), v, df_map)
                                ),
                            }
                        )
            out_leaves.append(
                {
                    "field": c.field,
                    "terms": list(c.terms),
                    "kind": kind,
                    "boost": float(c.boost),
                    "matched": matched,
                    "score": score,
                    "details": details,
                }
            )
        return {
            "doc_id": int(doc_id),
            "matched": True,
            "total": float(acc[pos]),
            "leaves": out_leaves,
        }

    def query_suggest(
        self, term: str, max_edits: int = 2, field: str = "content"
    ) -> dict:
        """Shard-local state for a TERM SUGGESTER (the ES ``term``
        suggest / Lucene DirectSpellChecker shape): every LOCAL
        dictionary term within ``max_edits`` Levenshtein edits of the
        input, each with its LIVE local doc frequency. Doc partitioning
        makes the driver's df merge an exact integer sum (global live
        df = Σ shard dfs); candidates absent from a shard's dictionary
        simply contribute nothing there. O(candidates) integers
        return — never postings."""
        cands = self._expand_fuzzy(field, term, int(max_edits))
        fid = FIELD_IDS[field]
        dfs = self.local_dfs([(fid, t) for t in cands])
        return {t: int(d) for t, d in zip(cands, dfs) if d > 0}

    def query_scores_at(
        self, query: str, doc_ids: np.ndarray, df_map=None
    ) -> np.ndarray:
        """Exact float64 scores of ``query`` at the GIVEN doc ids —
        0.0 where the doc doesn't match or isn't owned by this shard
        (doc partitioning: summing the aligned arrays across shards
        yields each doc's single owner's value). The window primitive
        behind rescoring: O(window) returns, one TAAT evaluation."""
        ids = np.asarray(doc_ids, dtype=np.uint64)
        out = np.zeros(len(ids), np.float64)
        docs, acc = self._match_set(query, df_map)
        if not len(docs) or not len(ids):
            return out
        pos = np.clip(np.searchsorted(docs, ids), 0, len(docs) - 1)
        hit = docs[pos] == ids
        out[hit] = acc.astype(np.float64)[pos[hit]]
        return out

    def query_topk_after(
        self, query: str, k: int, after: tuple | None = None,
        df_map=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k strictly AFTER the cursor ``(score, doc_id)`` in
        (score desc, doc_id asc) rank order — the ES ``search_after``
        deep-pagination shape. Unlike offset paging, per-shard heap and
        driver traffic stay O(k) regardless of page DEPTH: the cursor
        itself bounds the page, so page 1000 costs what page 1 does.
        The filter compares raw float64 scores exactly; the cursor is
        the previous page's last raw (score, doc_id), produced by this
        same deterministic evaluation, so equality is bit-identical."""
        docs, acc = self._match_set(query, df_map)
        if not len(docs):
            return np.empty(0, np.uint64), np.empty(0, self.dtype)
        if after is not None:
            a_s, a_d = float(after[0]), int(after[1])
            s64 = acc.astype(np.float64)
            keep = (s64 < a_s) | ((s64 == a_s) & (docs > a_d))
            docs, acc = docs[keep], acc[keep]
        order = np.lexsort((docs, -acc.astype(np.float64)))[:k]
        return docs[order], acc[order]

    def query_distance_feature(
        self, query: str, field: str, origin: int, pivot: int,
        boost: float = 1.0, k: int = 100, df_map=None,
    ) -> dict:
        """DISTANCE-FEATURE query (ES ``distance_feature`` on a numeric
        field — the standard recency/proximity booster): every match
        keeps its exact BM25 score and ADDS

            boost * pivot / (pivot + |field_value - origin|)

        (float64, that operation order), so docs nearer ``origin`` on
        the fast field rank higher without excluding anyone — the
        additive counterpart of function_score's multiplicative prior.
        Docs missing the field get NO boost contribution (ES skips
        them). Shard-local complete under doc partitioning; returns the
        local top-k (score desc, doc_id asc) with stored ``path``."""
        if field not in self._meta_num:
            raise ValueError(f"no such numeric fast field: {field!r}")
        docs, acc = self._match_set(query, df_map)
        if not len(docs):
            return {
                "doc_ids": np.empty(0, np.uint64),
                "scores": np.empty(0, np.float64),
                "paths": np.empty(0, object),
            }
        pos = np.searchsorted(self._meta_ids, docs)
        ok = self._meta_num_ok[field][pos]
        dist = np.abs(
            self._meta_num[field][pos].astype(np.float64)
            - np.float64(origin)
        )
        feat = np.where(
            ok,
            (np.float64(boost) * np.float64(pivot))
            / (np.float64(pivot) + dist),
            np.float64(0.0),
        )
        scores = acc.astype(np.float64) + feat
        order = np.lexsort((docs, -scores))[:k]
        docs, scores = docs[order], scores[order]
        paths = np.full(len(docs), None, dtype=object)
        if len(docs) and len(self._meta_ids):
            mpos = np.clip(
                np.searchsorted(self._meta_ids, docs),
                0, len(self._meta_ids) - 1,
            )
            found = self._meta_ids[mpos] == docs
            paths[found] = self._meta["path"][mpos[found]]
        return {"doc_ids": docs, "scores": scores, "paths": paths}

    def query_span_first(
        self, term: str, end: int, field: str = "content"
    ) -> np.ndarray:
        """SPAN-FIRST query (Lucene SpanFirstQuery, match-only): live
        docs where ``term`` occurs at a position BEFORE ``end`` — "in
        the first N tokens", the title/lead-paragraph filter. One
        posting decode + one vectorized min-position-per-posting check;
        returns this shard's matching doc ids (const-score membership,
        like range/term-set queries)."""
        fid = FIELD_IDS[field]
        v = self._view((fid, term))
        if v is None or v.df == 0:
            return self._attach_meta(
                {"doc_ids": np.empty(0, np.uint64)},
                np.empty(0, np.uint64),
            )
        idx = np.arange(v.df, dtype=np.int64)
        pos, lens = v.positions_for_many(idx)
        # first (minimum) position of each posting: positions are
        # ascending per posting, so it's the segment head
        heads = np.concatenate(([0], np.cumsum(lens)))[:-1]
        first_pos = pos[heads]
        docs = v.docs[first_pos < int(end)].astype(np.uint64)
        return self._attach_meta({"doc_ids": docs}, docs)

    def query_span_not(
        self, include: str, exclude: str, pre: int, post: int,
        field: str = "content",
    ) -> dict:
        """SPAN-NOT query (Lucene SpanNotQuery, match-only): live docs
        with at least one occurrence of ``include`` that has NO
        ``exclude`` occurrence within ``pre`` positions before through
        ``post`` after it — "merge, but not near window". Two posting
        decodes + one packed-key searchsorted window count per include
        occurrence (the span_near kernel's (doc_rank << 32) | position
        algebra; position offsets can't cross doc boundaries because
        real positions are far below 2^32). Const-score membership,
        doc-partitioned, so the driver merge is concatenation."""
        fid = FIELD_IDS[field]
        empty = self._attach_meta(
            {"doc_ids": np.empty(0, np.uint64)}, np.empty(0, np.uint64)
        )
        va = self._view((fid, include))
        if va is None or va.df == 0:
            return empty
        idx_a = np.arange(va.df, dtype=np.int64)
        pos_a, lens_a = va.positions_for_many(idx_a)
        rank_a = np.repeat(np.arange(va.df, dtype=np.int64), lens_a)
        vb = self._view((fid, exclude))
        base = np.int64(1) << np.int64(32)
        if vb is not None and vb.df:
            # exclude postings restricted to include's docs, mapped to
            # include's doc ranks so both sides share one key space
            ib = np.clip(
                np.searchsorted(va.docs, vb.docs), 0, va.df - 1
            )
            sel_b = np.nonzero(va.docs[ib] == vb.docs)[0]
        else:
            sel_b = np.empty(0, np.int64)
        if len(sel_b):
            pos_b, lens_b = vb.positions_for_many(sel_b)
            rank_b = np.repeat(ib[sel_b].astype(np.int64), lens_b)
            keys_b = rank_b * base + pos_b.astype(np.int64)
            keys_a = rank_a * base + pos_a.astype(np.int64)
            hits = np.searchsorted(
                keys_b, keys_a + np.int64(int(post)), side="right"
            ) - np.searchsorted(
                keys_b, keys_a - np.int64(int(pre)), side="left"
            )
            clean = hits == 0
        else:
            clean = np.ones(len(rank_a), bool)
        docs = va.docs[np.unique(rank_a[clean])].astype(np.uint64)
        return self._attach_meta({"doc_ids": docs}, docs)

    def query_value_counts(
        self, query, field: str, df_map=None
    ) -> dict:
        """Shard-local exact VALUE HISTOGRAM of a numeric fast field
        over the match set: ``{value: doc count}`` — O(distinct values)
        integers, the merge across doc-partitioned shards is a plain
        counter add. The exact-quantile primitive (median / MAD /
        percentile ranks) — where ES ships TDigest sketches, a bounded
        fast-field domain lets this engine stay exact."""
        if field not in self._meta_num:
            raise ValueError(f"no such numeric fast field: {field!r}")
        docs, _ = self._match_set(query, df_map)
        if not len(docs):
            return {}
        pos = np.searchsorted(self._meta_ids, docs)
        ok = self._meta_num_ok[field][pos]
        vals = self._meta_num[field][pos[ok]]
        u, c = np.unique(vals, return_counts=True)
        return {int(v): int(k) for v, k in zip(u, c)}

    def lookup_paths(self, paths: list[str]) -> dict:
        """{path -> doc_id} for the given stored paths OWNED by this
        shard (one vectorized isin over the metadata; doc partitioning
        makes the driver's dict-merge disjoint). The pinned query's
        existence probe — pinned docs surface even when they don't
        match the organic query, so they need an id lookup, not a
        search."""
        arr = np.asarray(self._meta["path"], dtype=object)
        if not len(arr) or not paths:
            return {}
        mask = np.isin(arr, np.asarray(list(paths), dtype=object))
        idx = np.nonzero(mask)[0]
        return {
            str(arr[i]): int(self._meta_ids[i]) for i in idx
        }

    def query_matrix_stats(
        self, query: str, fields: tuple, df_map=None
    ) -> dict:
        """Shard-local state for a MATRIX-STATS aggregation (the ES
        ``matrix_stats`` bucket agg over numeric fast fields): exact
        integer moment sums — n, Σx per field, and the full Σx·y
        product matrix — over the match-set docs that carry EVERY
        requested field (ES skips docs missing any field). Sums are
        arbitrary-precision Python ints, so the cross-shard merge is an
        exact associative add at any corpus scale (an int64 Σx² already
        overflows around 10^9 large docs); all float math happens once
        on the driver."""
        docs, _ = self._match_set(query, df_map)
        for f in fields:
            if f not in self._meta_num:
                raise ValueError(f"no numeric fast field {f!r}")
        if len(docs):
            pos = np.clip(
                np.searchsorted(self._meta_ids, docs),
                0, max(len(self._meta_ids) - 1, 0),
            )
            ok = (
                self._meta_ids[pos] == docs
                if len(self._meta_ids)
                else np.zeros(len(docs), bool)
            )
            for f in fields:
                ok &= self._meta_num_ok[f][pos]
            rows = pos[ok]
        else:
            rows = np.empty(0, np.int64)
        cols = {
            f: [int(v) for v in self._meta_num[f][rows].tolist()]
            for f in fields
        }
        out = {
            "n": int(len(rows)),
            "s": {f: sum(cols[f]) for f in fields},
            "sp": {},
        }
        for i, a in enumerate(fields):
            for b in fields[i:]:
                out["sp"][f"{a}|{b}"] = sum(
                    x * y for x, y in zip(cols[a], cols[b])
                )
        return out

    def query_rare_terms(
        self, max_doc_count: int, field: str = "content",
        exact_global: bool = True,
    ) -> dict:
        """Shard-local state for a RARE-TERMS aggregation (the ES
        ``rare_terms`` bucket agg — "give me the long tail": terms whose
        doc count is AT MOST ``max_doc_count``; ES approximates with a
        CuckooFilter, this engine is exact over the index dictionary).

        Two regimes:

        - ``exact_global=True`` (single-epoch index, no deletions): every
          serving row already carries the term's exact GLOBAL df, so the
          scan is one vectorized gather over the serving tables' ``df``
          column — no posting decode, no second round. Rows whose global
          df exceeds the cap are dropped here, so O(rare terms) strings
          leave the shard.
        - ``exact_global=False`` (incremental epochs / deletions): build
          dfs are stale, so the shard returns its LIVE LOCAL doc counts
          for terms with local count <= cap (a term with local count
          above the cap cannot be globally rare — dfs only add across
          doc-partitioned shards — so pruning is lossless); the driver
          then runs one exact global live-df round over the candidate
          union and re-filters.
        """
        fid = FIELD_IDS[field]
        pre = f"{fid}:"
        a = int(np.searchsorted(self._keys, pre, side="left"))
        b = int(
            np.searchsorted(self._keys, pre + "\U0010ffff", side="right")
        )
        if b == a:
            return {}
        cut = len(pre)
        cap = int(max_doc_count)
        if exact_global:
            tis = self._key_ti[a:b]
            ris = self._key_ri[a:b]
            dfs = np.empty(b - a, np.int64)
            for ti in np.unique(tis):
                sel = np.nonzero(tis == ti)[0]
                col = self._tables[int(ti)]["df"].to_numpy(
                    zero_copy_only=False
                )
                dfs[sel] = col[ris[sel]]
            keep = np.nonzero(dfs <= cap)[0]
            # a term postings-split across buckets repeats its global df
            # on every row; dict assignment dedupes
            return {
                str(self._keys[a + i])[cut:]: int(dfs[i]) for i in keep
            }
        out = {}
        cached_before = set(self._cache)
        for s in {str(k)[cut:] for k in self._keys[a:b]}:
            v = self._view((fid, s))
            if v is not None and 0 < v.df <= cap:
                out[s] = int(v.df)
        for k in set(self._cache) - cached_before:  # sweep eviction
            del self._cache[k]
        return out

    def query_bulk_dfs(
        self, terms: list[str], field: str = "content"
    ) -> dict:
        """Exact GLOBAL df per candidate term from the serving ``df``
        column — one vectorized searchsorted probe over the sorted key
        array plus one df-column gather per serving table, ZERO posting
        decodes (the same exact-global regime as
        ``query_rare_terms(exact_global=True)``: valid for single-epoch
        indexes with no deletions, where every serving row already
        carries the term's build-time global df; a postings-split term
        repeats it on every row, so the first row suffices). Terms
        absent from this shard's dictionary are simply omitted — the
        driver merges shards' dicts (identical values wherever
        present), so traffic is O(candidate terms) strings+ints."""
        n = len(self._keys)
        if n == 0 or not terms:
            return {}
        fid = FIELD_IDS[field]
        keys = np.array([f"{fid}:{t}" for t in terms], dtype=object)
        lo = np.clip(
            np.searchsorted(self._keys, keys, side="left"), 0, n - 1
        )
        idx = np.nonzero(self._keys[lo] == keys)[0]
        if len(idx) == 0:
            return {}
        tis = self._key_ti[lo[idx]]
        ris = self._key_ri[lo[idx]]
        dfs = np.empty(len(idx), np.int64)
        for ti in np.unique(tis):
            sel = np.nonzero(tis == ti)[0]
            col = self._tables[int(ti)]["df"].to_numpy(
                zero_copy_only=False
            )
            dfs[sel] = col[ris[sel]]
        return {terms[int(i)]: int(d) for i, d in zip(idx, dfs)}

    def paths_for_docs(self, docs) -> tuple[list, list]:
        """Resolve this shard's OWNED subset of ``docs`` to their stored
        ``path`` metadata (one vectorized searchsorted over the sorted
        live-doc ids). Doc partitioning assigns every live doc exactly
        one owner, so the driver's union over shards covers each input
        id at most once. Returns ``(owned_doc_ids, paths)``."""
        sd = np.asarray(docs, dtype=np.uint64)
        if len(self._meta_ids) == 0 or len(sd) == 0:
            return [], []
        pos = np.clip(
            np.searchsorted(self._meta_ids, sd),
            0, len(self._meta_ids) - 1,
        )
        ok = self._meta_ids[pos] == sd
        return (
            [int(d) for d in sd[ok]],
            [str(p) for p in self._meta["path"][pos[ok]]],
        )

    def metrics_for_docs(self, docs, fields: list[str]) -> dict:
        """{doc_id: {field: value}} for this shard's OWNED subset of
        ``docs`` — the metric lookup of the top_metrics aggregation:
        one vectorized searchsorted over the sorted live ids, then a
        per-field gather from the fast-field arrays (numeric) or the
        keyword metadata (strings). ``docs`` is a top-k cut, so the
        assembly loop is O(k), not O(corpus)."""
        sd = np.asarray(docs, dtype=np.uint64)
        if len(self._meta_ids) == 0 or len(sd) == 0:
            return {}
        pos = np.clip(
            np.searchsorted(self._meta_ids, sd),
            0, len(self._meta_ids) - 1,
        )
        ok = self._meta_ids[pos] == sd
        out: dict[int, dict] = {}
        for d, p in zip(sd[ok], pos[ok]):
            row = {}
            for f in fields:
                if f in self._meta_num:
                    row[f] = (
                        int(self._meta_num[f][p])
                        if self._meta_num_ok[f][p]
                        else None
                    )
                elif f in self._meta:
                    v = self._meta[f][p]
                    row[f] = None if v is None else str(v)
                else:
                    raise ValueError(f"no metadata field {f!r}")
            out[int(d)] = row
        return out

    def query_significant_text(
        self, query: str, field: str = "content", df_map=None,
        sample_docs: np.ndarray | None = None,
    ) -> dict:
        """Shard-local state for a SIGNIFICANT-TEXT aggregation (ES
        ``significant_text``): for EVERY dictionary term, the exact
        integer (foreground, background) doc counts — foreground = docs
        of this shard's match set containing the term, background = this
        shard's live docs containing it. Doc partitioning makes both
        plain integer sums across shards, so the driver's JLH scoring
        runs on exact corpus-wide counts.

        Cost is one pass over the shard's postings (every list decoded
        once) — the exact-collector shape, right for offline corpus
        analysis at the driver-entry scales. At 100 TB you front this
        with a sampler (ES does the same: ``significant_text`` is
        documented to run under a ``sampler`` agg re-tokenizing only the
        top hits); the sampled variant changes only the match-set input,
        not this shard contract.

        ``sample_docs`` is that sampler input: when given (the driver's
        top-N cut, global doc ids), the foreground is the OWNED subset
        of the sample instead of this shard's full match set — fg and
        fg_total still merge as plain integer sums because doc
        partitioning assigns every sample doc exactly one owner."""
        if sample_docs is not None:
            sd = np.asarray(sample_docs, dtype=np.uint64)
            pos = np.clip(
                np.searchsorted(self._meta_ids, sd),
                0, max(len(self._meta_ids) - 1, 0),
            )
            owned = (
                self._meta_ids[pos] == sd
                if len(self._meta_ids)
                else np.zeros(len(sd), bool)
            )
            docs = np.sort(sd[owned])
        else:
            docs, _ = self._match_set(query, df_map)
            docs = np.sort(np.asarray(docs, dtype=np.uint64))
        fid = FIELD_IDS[field]
        pre = f"{fid}:"
        a = int(np.searchsorted(self._keys, pre, side="left"))
        b = int(
            np.searchsorted(self._keys, pre + "\U0010ffff", side="right")
        )
        cut = len(pre)
        counts: dict[str, tuple[int, int]] = {}
        # full-dictionary sweep: evict what IT loads afterwards — the
        # per-query view cache is sized for query-term working sets,
        # and pinning every decoded posting list would grow a serving
        # actor by O(index) after one significant_text call
        cached_before = set(self._cache)
        for s in {str(k)[cut:] for k in self._keys[a:b]}:
            v = self._view((fid, s))
            if v is None or v.df == 0:
                continue
            pd_ = v.docs
            if len(docs):
                idx = np.clip(
                    np.searchsorted(docs, pd_), 0, len(docs) - 1
                )
                fg = int(np.count_nonzero(docs[idx] == pd_))
            else:
                fg = 0
            counts[s] = (fg, int(v.df))
        for k in set(self._cache) - cached_before:
            del self._cache[k]
        return {
            "fg_total": int(len(docs)),
            "bg_total": int(len(self._meta_ids)),
            "counts": counts,
        }

    def local_cfs(self, keys: list[tuple[int, str]]) -> list[int]:
        """LIVE local collection frequency (total occurrences, Σtf) per
        key — the unigram statistic of the phrase-suggester language
        model. Doc partitioning makes the global cf an exact integer sum
        of these."""
        out = []
        for k in keys:
            v = self._view(tuple(k))
            out.append(0 if v is None else int(v.tfs.sum()))
        return out

    def local_token_total(self, field: str = "content") -> int:
        """LIVE local token count (Σ doc length over this shard's live
        docs) — the LM normalizer; exact global total = Σ shards."""
        col = f"dl_{field}"
        if col not in self._meta_num:
            raise ValueError(f"no length fast-field for {field!r}")
        ok = self._meta_num_ok[col]
        return int(self._meta_num[col][ok].sum())

    def local_bigram_counts(
        self, pairs: list[tuple[str, str]], field: str = "content"
    ) -> list[int]:
        """LIVE local occurrence count of each ADJACENT bigram (a, b):
        positions where ``pos(b) == pos(a) + 1`` within one doc, summed
        over this shard's live postings — the bigram statistic of the
        phrase-suggester LM (ES builds it from a shingle subfield; this
        engine reads it off the positional postings it already has).
        Occurrences never span docs, so the global count is an exact
        integer sum across doc-partitioned shards."""
        fid = FIELD_IDS[field]
        base = np.int64(1) << np.int64(32)
        out = []
        for a, b in pairs:
            va = self._view((fid, a))
            vb = self._view((fid, b))
            if va is None or vb is None:
                out.append(0)
                continue
            da, db = va.docs, vb.docs
            # postings of each term restricted to their COMMON docs
            ia = np.clip(np.searchsorted(db, da), 0, max(len(db) - 1, 0))
            common_a = np.nonzero(
                (db[ia] == da) if len(db) else np.zeros(len(da), bool)
            )[0]
            if len(common_a) == 0:
                out.append(0)
                continue
            ib = np.clip(np.searchsorted(da, db), 0, len(da) - 1)
            common_b = np.nonzero(da[ib] == db)[0]
            pa_, la = va.positions_for_many(common_a)
            pb_, lb = vb.positions_for_many(common_b)
            # pack (common-doc rank, position); ranks align because both
            # restrictions enumerate the same doc set in doc order
            ra = np.repeat(np.arange(len(common_a), dtype=np.int64), la)
            rb = np.repeat(np.arange(len(common_b), dtype=np.int64), lb)
            ka = ra * base + pa_.astype(np.int64) + 1
            kb = rb * base + pb_.astype(np.int64)
            out.append(int(np.count_nonzero(np.isin(kb, ka))))
        return out

    def query_best_passage(
        self, query: str, window: int = 8, df_map=None,
        num_fragments: int = 1,
    ) -> dict:
        """Best highlight passage per matched doc (the Lucene/ES
        UNIFIED HIGHLIGHTER passage scorer, token-window form): for
        every doc of this shard's match set, the start position whose
        window ``[start, start + window)`` maximizes the sum of BM25-idf
        weights of query-term occurrences inside it; ties break to the
        SMALLEST start. Scoring state is one flat (doc, pos, weight)
        array off the positional postings — no stored text is touched,
        and O(matched docs) rows leave the shard.

        Term-query leaves only (highlighting a phrase highlights its
        terms — Lucene does the same flattening).

        ``num_fragments`` > 1 returns up to that many NON-OVERLAPPING
        windows per doc (ES ``number_of_fragments``), chosen greedily
        best-first — after each round, occurrences whose window would
        overlap a chosen one are masked by one vectorized interval-
        coverage sweep (searchsorted + prefix-sum), so the loop is
        O(num_fragments · occ), never per-doc Python. Fragment rank
        (1-based, score-desc greedy order) rides the ``frag`` column;
        docs with fewer distinct regions yield fewer fragments."""
        empty = self._attach_meta(
            {
                "doc_ids": np.empty(0, np.uint64),
                "starts": np.empty(0, np.int64),
                "scores": np.empty(0, np.float64),
                "frags": np.empty(0, np.int64),
            },
            np.empty(0, np.uint64),
        )
        prep = self._expanded(query)
        if prep is None:
            return empty
        # evaluate the ALREADY-expanded tree directly — re-entering
        # _match_set would rerun the O(dictionary) expansion scans
        tree, rows = prep
        res_m = self._eval_node(tree, rows, df_map)
        docs = (
            np.empty(0, np.uint64)
            if res_m is None
            else np.asarray(res_m[0], dtype=np.uint64)
        )
        docs = np.sort(docs)
        man = self.manifest
        n_docs = man["num_docs"]
        parts_d, parts_p, parts_w = [], [], []
        seen = set()
        for c in collect_clauses(tree):
            for t in c.terms:
                key = (FIELD_IDS[c.field], t)
                if key in seen:
                    continue
                seen.add(key)
                v = self._view(key)
                if v is None:
                    continue
                # expansion terms of fuzzy/regex/range leaves are not
                # in the driver's df_map (const-score scoring never
                # needs their idf); weight them from the serving row's
                # build-time global df — identical on every shard, so
                # passage selection stays deterministic — instead of
                # letting the df_map miss read as df=0 (maximal idf)
                df_g = (
                    df_map.get(key) if df_map is not None else None
                )
                if df_g is None:
                    df_g = v._entries[0]["df"]
                w = float(scoring.idf(df_g, n_docs, dtype=np.float64))
                pd_ = v.docs
                idx = (
                    np.clip(np.searchsorted(docs, pd_), 0, len(docs) - 1)
                    if len(docs)
                    else np.zeros(len(pd_), np.int64)
                )
                hit = (
                    np.nonzero(docs[idx] == pd_)[0]
                    if len(docs)
                    else np.empty(0, np.int64)
                )
                if len(hit) == 0:
                    continue
                pos, lens = v.positions_for_many(hit)
                parts_d.append(
                    np.repeat(pd_[hit].astype(np.int64), lens)
                )
                parts_p.append(pos.astype(np.int64))
                parts_w.append(np.full(len(pos), w, np.float64))
        if not parts_d:
            return empty
        d = np.concatenate(parts_d)
        p = np.concatenate(parts_p)
        w = np.concatenate(parts_w)
        # pack (match-set RANK, position), never the raw doc id: ids
        # are sha-derived uint64s, so id*2^40 would wrap int64 and
        # collide docs congruent mod 2^24 (the phrase matcher and
        # local_bigram_counts pack ranks for the same reason)
        rk = np.searchsorted(docs, d.astype(np.uint64)).astype(
            np.uint64
        )
        key = (rk << np.uint64(32)) | p.astype(np.uint64)
        order = np.argsort(key, kind="stable")
        key, d, p, w = key[order], d[order], p[order], w[order]
        # each occurrence anchors a candidate window at its own position
        ends = np.searchsorted(
            key, key + np.uint64(window), side="left"
        )
        cw = np.concatenate(([0.0], np.cumsum(w)))
        scores = cw[ends] - cw[np.arange(len(key))]
        # window sums are float64 in POSITION order; an oracle summing
        # the same weights in another order can differ by ulps, so the
        # best-window selection (and the returned score) use the shared
        # 4dp rounding — ties then break to the smallest start
        # identically on both sides
        scores = scoring.round_half_away(scores, 4)
        F = max(1, int(num_fragments))
        alive = np.ones(len(key), dtype=bool)
        od, ost, osc, ofr = [], [], [], []
        for f in range(F):
            sc_f = np.where(alive, scores, -np.inf)
            sel = np.lexsort((p, -sc_f, d))
            dd = d[sel]
            first = np.nonzero(
                np.concatenate(([True], dd[1:] != dd[:-1]))
            )[0]
            rows = sel[first]
            rows = rows[alive[rows]]  # docs with no window left drop
            if len(rows) == 0:
                break
            od.append(d[rows].astype(np.uint64))
            ost.append(p[rows])
            osc.append(scores[rows])
            ofr.append(np.full(len(rows), f + 1, np.int64))
            if f + 1 == F:
                break
            # mask every occurrence whose window overlaps a chosen one
            # (|p - s| < window) with one interval-coverage sweep over
            # the SORTED packed keys
            ck_ = key[rows]
            # low bound clamps at the doc's position 0: subtracting
            # past it would borrow into the rank bits and bleed the
            # mask into the PREVIOUS doc's key range
            ps = p[rows]
            lo_key = (ck_ - ps.astype(np.uint64)) + np.maximum(
                ps - np.int64(window - 1), 0
            ).astype(np.uint64)
            lo = np.searchsorted(key, lo_key, side="left")
            hi = np.searchsorted(
                key, ck_ + np.uint64(window - 1), side="right"
            )
            diff = np.zeros(len(key) + 1, np.int64)
            np.add.at(diff, lo, 1)
            np.add.at(diff, hi, -1)
            alive &= np.cumsum(diff[:-1]) == 0
        if not od:
            return empty
        out_docs = np.concatenate(od)
        out = {
            "doc_ids": out_docs,
            "starts": np.concatenate(ost),
            "scores": np.concatenate(osc),
            "frags": np.concatenate(ofr),
        }
        return self._attach_meta(out, out_docs)

    def ready(self) -> bool:
        return True


# Serving shards reserve HALF a CPU each: they burst during queries but
# idle between them, and a full-CPU reservation can starve Ray Data jobs
# running while an engine stays open (e.g. the MCP server's hybrid tool
# on a small cluster — deadlock without this).
#
# Restart policy: a LocalIndex's state is a pure function of index_dir
# and the epoch list it loaded — queries never mutate it, and ``reload``
# only swaps in the state of another committed epoch list — so when a
# node dies on a real cluster Ray can transparently respawn the shard
# elsewhere (the constructor loads the committed manifest, with the
# buckets of its ``shard=(i, n)`` slot) and re-run the idempotent method
# (max_restarts/max_task_retries=-1). Without this, one lost worker
# bricks an open engine. Verified by tests/test_query_ft.py (ray.kill
# mid-session, also after an in-place reload).
DocShard = ray.remote(
    num_cpus=0.5, max_restarts=-1, max_task_retries=-1
)(LocalIndex)

# the shard methods that evaluate a query tree: ``BM25Engine._fanout``
# hands each of them the plan's global df map
_DF_OPS = frozenset(
    name for name, fn in vars(LocalIndex).items()
    if not name.startswith("_") and callable(fn)
    and "df_map" in inspect.signature(fn).parameters
)


class _Plan(NamedTuple):
    """One public call's request state (``BM25Engine._plan``): the
    driver-parsed trees of its queries, their global df map (None when
    the serving rows' dfs are exact) and the one replica every round of
    the call goes to."""

    trees: list
    df_map: dict | None
    replica: list

    @property
    def tree(self):
        return self.trees[0]


def parquet_field_source(
    parquet_path: str, key_col: str, text_col: str
):
    """Build a ``source`` callable for the O(sample) sampled
    ``search_significant_text`` path: fetch N docs' stored field text
    by their index ``path`` key from a parquet file/dir, with the key
    filter pushed INTO the scan (row-group pruning when the key column
    is clustered — e.g. a sorted ``doc_id`` — so only the sampled
    docs' groups leave storage; the multithreaded Arrow scanner covers
    the unclustered case). Index paths are strings; the key column may
    be any castable type (``doc_id`` int64 for the documents corpus)."""

    state: dict = {}

    def fetch(paths: list[str]) -> dict[str, str]:
        if "dset" not in state:
            state["dset"] = pads.dataset(parquet_path, format="parquet")
        dset = state["dset"]
        keys = pa.array(paths, pa.string()).cast(
            dset.schema.field(key_col).type
        )
        # the scan is a driver-side blocking call, so widen Arrow's
        # CPU/IO pools for its duration (the ambient OMP_NUM_THREADS=1
        # that Ray sets for workers would otherwise serialize the
        # per-fragment decode), then restore
        old_cpu, old_io = pa.cpu_count(), pa.io_thread_count()
        n = min(16, os.cpu_count() or 1)
        pa.set_cpu_count(max(old_cpu, n))
        pa.set_io_thread_count(max(old_io, n))
        try:
            t = dset.to_table(
                columns=[key_col, text_col],
                filter=pads.field(key_col).isin(keys),
            )
        finally:
            pa.set_cpu_count(old_cpu)
            pa.set_io_thread_count(old_io)
        return {
            str(k): ("" if v is None else str(v))
            for k, v in zip(
                t[key_col].to_pylist(), t[text_col].to_pylist()
            )
        }

    return fetch


class BM25Engine:
    """Driver-side coordinator over a pool of ``DocShard`` actors, each
    owning a disjoint set of doc-range buckets (document-partitioned
    serving; SURVEY.md §7.2 step 7).

    Every public call takes one request path, plan -> fanout -> merge:

    - ``_plan(queries, key)`` runs ONCE per call: the call's one
      auto-reload check, the cached driver-side parse, the expansion-cap
      and df rounds, and the sticky pick of ONE replica. Multi-round
      calls (rescore, pinned, t_test, sampled significant_text, collapse,
      top_metrics) reuse the plan, so every round hits one replica and
      one epoch set; only ``search_many`` spreads a batch over replicas.
    - ``_fanout(plan, op, *args)`` calls shard method ``op`` on every
      shard of the plan's replica with one ``ray.get``. Shards receive
      driver-parsed TREES, never query strings, plus the plan's df map.
    - The merge is small: a doc's whole score is shard-local, so each
      shard returns only its exact top-k or exact-int collector state; a
      ranked merge sorts <= shards * k rows. ``last_fanout_rows`` records
      the latest ranked merge's row traffic (tested O(s*k)).

    Global df statistics: exact from serving rows for single-epoch
    indexes; with incremental epochs/deletions the plan first sums the
    shards' local live dfs (ints only) and passes the exact global df map
    into the scoring round — the classic two-phase distributed-IR shape.
    """

    def __init__(
        self,
        index_dir: str,
        num_shards: int = 4,
        dtype=np.float32,
        auto_reload: bool = True,
        num_replicas: int = 1,
        synonyms: dict | None = None,
    ):
        self.index_dir = index_dir
        self.dtype = dtype
        self._requested_shards = num_shards
        # query-time synonym map (ES synonym filter / Lucene
        # SynonymQuery): normalized through the analyzer so config like
        # {"Fast": ["QUICK"]} behaves like its lowercase tokens; only
        # single-token keys/values participate (multi-token synonym
        # graphs are out of scope, documented in rewrite_synonyms)
        self._synonyms = {}
        for k, vs in (synonyms or {}).items():
            kt = tokenize_text(k)
            vts = [t for v in vs for t in tokenize_text(v)]
            if len(kt) == 1 and vts:
                self._synonyms[kt[0]] = sorted(dict.fromkeys(vts))
        # num_replicas: R independent full shard sets. Latency of ONE
        # query is bounded by in-shard work (more shards); THROUGHPUT of
        # many concurrent queries is bounded by each shard processing
        # its stream sequentially — replicas multiply that (and survive
        # the loss of a whole replica's worth of workers). Single-query
        # searches round-robin; search_many splits the batch.
        self._requested_replicas = max(1, int(num_replicas))
        self._rr = 0
        # auto_reload: every search stats the root manifest (one syscall,
        # ~1us vs ~10ms queries) and reloads the live shards in place
        # when an incremental_update / compaction / reindex committed a
        # new epoch set — an open engine never serves a stale epoch set
        # silently.
        self.auto_reload = auto_reload
        self.shards: list = []
        self.replicas: list[list] = []
        # in-place reloads since open, and the wall time of the latest
        self.reloads = 0
        self.last_reload_s: float | None = None
        # driver-side parse cache: query string -> synonym-rewritten
        # tree (parse is pure string work, so index reloads don't
        # invalidate it; bounded by _PARSE_CACHE_MAX)
        self._parse_cache: dict[str, object] = {}
        self._load()

    def _manifest_stamp(self) -> tuple[int, int]:
        st = os.stat(os.path.join(self.index_dir, "manifest.json"))
        return (st.st_mtime_ns, st.st_size)

    def _load(self) -> None:
        """Bring every shard of every replica to the committed manifest.
        The first call spawns the actors; every later one reloads them in
        place with the one manifest read here, so all shards serve the
        same epoch set. On failure the old ``manifest`` and ``_stamp``
        stay, so the next search retries."""
        t0, first = time.perf_counter(), not self.replicas
        while True:
            # stamp first: a commit racing the read only costs a reload
            stamp = self._manifest_stamp()
            manifest = load_manifest(self.index_dir)
            if "num_serving_buckets" not in manifest:
                raise RuntimeError(
                    "index predates the serving layout — rebuild it"
                )
            try:
                self._load_shards(manifest)
                break
            except FileNotFoundError:
                # a newer commit (a compaction) removed epochs of the
                # manifest read above: reload onto the newer one
                if self._manifest_stamp() == stamp:
                    raise
        if not first:
            self.reloads += 1
            self.last_reload_s = time.perf_counter() - t0
        self.manifest, self._stamp = manifest, stamp
        self.epochs = manifest.get("epochs", [manifest["epoch_dir"]])
        self._needs_df_round = len(self.epochs) > 1 or any(
            os.path.exists(os.path.join(self.index_dir, e, "deleted.parquet"))
            for e in self.epochs
        )
        self._df_cache: dict[tuple[int, str], int] = {}
        self.last_fanout_rows = 0

    def _load_shards(self, manifest: dict) -> None:
        if self.replicas:
            ray.get([
                s.reload.remote(manifest)
                for rep in self.replicas for s in rep
            ])
            return
        n = max(1, min(self._requested_shards,
                       manifest["num_serving_buckets"]))
        self.replicas = [
            [
                DocShard.remote(
                    self.index_dir, dtype=self.dtype,
                    synonyms=self._synonyms, shard=(i, n),
                )
                for i in range(n)
            ]
            for _ in range(self._requested_replicas)
        ]
        self.shards = self.replicas[0]
        ray.get([s.ready.remote() for rep in self.replicas for s in rep])

    def refresh(self) -> bool:
        """Reload the shards in place if the committed manifest changed
        since the last load; returns True when a reload happened. The
        actors stay the same: each one swaps in the new epoch set."""
        if self._manifest_stamp() == self._stamp:
            return False
        self._load()
        return True

    def _maybe_reload(self) -> None:
        if self.auto_reload:
            try:
                self.refresh()
            except FileNotFoundError:
                # mid-commit rename window, or a shard whose reload failed:
                # serve the loaded epoch set; the kept stamp retries next
                pass

    # ---------------------------------------------------- the request path

    def _plan(self, queries=(), key: str | None = None) -> _Plan:
        """The planning step of a public call: its one auto-reload
        check, then ``_prepare`` on the replica ``key`` routes to."""
        self._maybe_reload()
        return self._prepare(list(queries), self._next_replica(key))

    def _prepare(self, queries: list[str], replica: list) -> _Plan:
        """Parse ``queries`` (cached), run their expansion-cap rounds and
        df round on ``replica``, and return the plan that every shard
        round of the call shares."""
        plan = _Plan([self._parse_global(q) for q in queries], None, replica)
        return plan._replace(df_map=self._df_map_for(plan))

    def _fanout(self, plan: _Plan, op, *args, **kw) -> list:
        """The engine's one shard round trip: call shard method ``op``
        on every shard of the plan's replica and gather the replies (in
        shard order) with ONE ``ray.get``; ops that evaluate a query tree
        also get the plan's ``df_map``. ``op`` may instead be a list of
        ``(op, args[, replica])`` calls, all submitted before the gather,
        which then returns one reply list per call."""
        many = isinstance(op, list)
        calls = [
            (name, a, rep[0] if rep else plan.replica)
            for name, a, *rep in (op if many else [(op, args)])
        ]
        flat = ray.get([
            getattr(s, name).remote(
                *a,
                **({**kw, "df_map": plan.df_map} if name in _DF_OPS else kw),
            )
            for name, a, shards in calls
            for s in shards
        ])
        replies = iter(flat)
        out = [[next(replies) for _ in shards] for _, _, shards in calls]
        return out if many else out[0]

    # ---------------------------------------------------- global statistics

    def _global_dfs(
        self, keys: list[tuple[int, str]], plan: _Plan | None = None
    ) -> dict:
        if plan is None:
            plan = self._plan()
        missing = [k for k in keys if k not in self._df_cache]
        if missing:
            self._df_cache.update(
                self._sum_aligned(plan, "local_dfs", missing)
            )
        return {k: self._df_cache[k] for k in keys}

    def _sum_aligned(self, plan: _Plan, op: str, keys: list, *args) -> dict:
        """Exact LIVE global count per key: shard op ``op`` answers one
        int per key (aligned with ``keys``), and doc-partitioned
        postings make the global value their sum."""
        per = np.asarray(self._fanout(plan, op, keys, *args), np.int64)
        return {k: int(c) for k, c in zip(keys, np.sum(per, axis=0))}

    _PARSE_CACHE_MAX = 65536

    def _parse_global(self, query: str):
        """Driver-side parse + synonym rewrite, cached by query string.
        ``_plan`` parses every query of a call here and the shards get
        the TREE, never the string, so each distinct query is parsed
        once per engine rather than once per (query, shard) — the
        repeated parse (~1-4 ms of pure-Python lexing) was the only
        serving-path fixed cost that grew with shard count (r3's
        qps-scaling gap)."""
        tree = self._parse_cache.get(query, _PARSE_MISS)
        if tree is not _PARSE_MISS:
            return tree
        tree = rewrite_synonyms(parse_query(query), self._synonyms)
        if len(self._parse_cache) >= self._PARSE_CACHE_MAX:
            self._parse_cache.clear()
        self._parse_cache[query] = tree
        return tree

    # the dictionary-expanded leaf kinds, in cap-check order: (shard op,
    # clause -> expansion spec or None, spec -> cap-error label)
    _EXPANSIONS = (
        ("expand_prefixes",
         lambda c: (c.field, c.terms[-1]) if c.prefix else None,
         lambda s: f"prefix '{s[1]}*'"),
        ("expand_ranges",
         lambda c: None if c.range_spec is None else (c.field, *c.range_spec),
         lambda s: f"range [{s[1]} TO {s[2]}]"),
        ("expand_fuzzies",
         lambda c: (
             (c.field, c.terms[0], c.fuzzy, c.fuzzy_transpose)
             if c.fuzzy else None
         ),
         lambda s: f"fuzzy '{s[1]}~{s[2]}'"),
        ("expand_regexes",
         lambda c: None if c.regex_spec is None else (c.field, c.regex_spec),
         lambda s: f"regex /{s[1]}/"),
    )

    def _df_map_for(self, plan: _Plan) -> dict | None:
        # repeated queries (batch workloads) share one cached tree, so
        # dedupe the trees before collecting clauses
        clauses = [
            c
            for t in {id(t): t for t in plan.trees}.values()
            for c in collect_clauses(t)
        ]
        # dictionary-expanded leaves: the expansion set is
        # dictionary-dependent, so union the shards' local expansions
        # (terms only — tiny), every kind in one concurrent round.
        # MAX_PREFIX_EXPANSIONS is a GLOBAL limit (Lucene's
        # maxClauseCount counts the rewritten disjunction, and the
        # oracle expands against the corpus-global dictionary), so it is
        # enforced here on the UNION — the shard-local raise in
        # ``expand_prefix_tree`` is only a backstop for standalone
        # single-shard use, where local == global. Ranges, fuzzies and
        # regexes are const-score, so only the prefix unions feed the df
        # round.
        specs = {
            op: list(dict.fromkeys(
                s for s in map(spec_of, clauses) if s is not None
            ))
            for op, spec_of, _ in self._EXPANSIONS
        }
        for _f, pat in specs["expand_regexes"]:
            try:  # a clean driver-side error before any RPC
                re.compile(pat)
            except re.error as e:
                raise ValueError(f"bad regex /{pat}/: {e}") from None
        rounds = [(op, lab) for op, _, lab in self._EXPANSIONS if specs[op]]
        replies = self._fanout(
            plan, [(op, (specs[op],)) for op, _ in rounds]
        ) if rounds else []
        expanded: dict[tuple[str, str], list[str]] = {}
        for (op, label), per in zip(rounds, replies):
            for i, spec in enumerate(specs[op]):
                union = {t for sh in per for t in sh[i]}
                if len(union) > MAX_PREFIX_EXPANSIONS:
                    raise ValueError(
                        f"{label(spec)} expands to {len(union)} terms "
                        f"(max {MAX_PREFIX_EXPANSIONS})"
                    )
                if op == "expand_prefixes":
                    expanded[spec] = sorted(union)
        if not self._needs_df_round:
            return None
        keys = dict.fromkeys(
            (FIELD_IDS[c.field], t)
            for c in clauses
            # a prefix clause's last term is the prefix (expanded above);
            # its head terms (phrase-prefix) need dfs like any others.
            # const-score leaves (incl. fuzzy/regex, which REWRITE to
            # const-score) score without statistics — no df needed
            if not c.const_score and not c.fuzzy
            for t in (c.terms[:-1] if c.prefix else c.terms)
        )
        # df-sum the expanded prefix terms like any other term
        for (f, _p), union in expanded.items():
            for t in union:
                keys[(FIELD_IDS[f], t)] = None
        return self._global_dfs(list(keys), plan)

    # ---------------------------------------------------------- merging

    @staticmethod
    def _concat(parts: list, cols) -> dict:
        """Column-wise concatenation of the shards' reply arrays."""
        return {c: np.concatenate([p[c] for p in parts]) for c in cols}

    @staticmethod
    def _sum_counts(maps) -> dict:
        """Key-wise sum of the shards' exact-int count maps (doc
        partitioning counts every doc in exactly one shard)."""
        total: dict = {}
        for m in maps:
            for v, c in m.items():
                total[v] = total.get(v, 0) + c
        return total

    def _merge_hits(
        self, parts: list[dict], k: int,
        cols=("doc_ids", "scores", "paths"),
    ) -> dict:
        """The standard O(shards * k) ranked merge of per-shard hit
        columns (``cols[0]`` doc ids, ``cols[1]`` scores): concatenate
        and cut the (score desc, doc_id asc) top ``k``."""
        self.last_fanout_rows = int(sum(len(p[cols[0]]) for p in parts))
        out = self._concat(parts, cols)
        order = np.lexsort(
            (out[cols[0]], -out[cols[1]].astype(np.float64))
        )[:k]
        return {c: v[order] for c, v in out.items()}

    # ------------------------------------------------------------ searching

    def search_raw(
        self, query: str, top_k: int | None = None, *,
        pruning: bool = True, offset: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (doc_ids, raw scores), sorted score desc / doc_id asc.
        ``offset`` skips the first N ranked hits (tantivy
        ``TopDocs::and_offset``, the deep-pagination shape): each shard
        returns its top (offset+k) — a shard cannot know how many of
        another shard's hits outrank its own — and the driver's merge
        discards the first ``offset`` rows. Traffic stays
        O(shards * (offset + k)); cursor-style pagination (the MCP
        session path) is the right tool once offsets grow large."""
        k = top_k if top_k is not None else 100
        if offset < 0:
            raise ValueError("offset must be >= 0")
        fetch = k + offset
        plan = self._plan([query], query)
        hits = self._merge_hits(
            self._fanout(plan, "query_topk", plan.tree, fetch, pruning),
            fetch, (0, 1),
        )
        return hits[0][offset:], hits[1][offset:]

    def search_after(
        self, query: str, after: tuple | None = None,
        top_k: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cursor pagination (the ES ``search_after`` shape): returns
        the top-k ranked strictly after the ``(score, doc_id)`` cursor,
        which is the last row of the previous page. Unlike ``offset``
        paging — whose per-shard fetch and driver merge grow
        O(offset + k) with page depth — the cursor bounds the page, so
        every page costs O(shards * k) traffic no matter how deep. The
        cursor carries RAW float64 scores: both pages come from the
        same deterministic shard evaluation, so the strict-after filter
        compares bit-identical values."""
        k = top_k if top_k is not None else 100
        plan = self._plan([query], query)
        parts = self._fanout(plan, "query_topk_after", plan.tree, k, after)
        return tuple(self._merge_hits(parts, k, (0, 1)).values())

    def search_dismax(
        self, queries: list[str], tie: float = 0.0,
        top_k: int | None = None,
    ) -> dict:
        """DisjunctionMax over N sub-queries (Lucene/ES ``dis_max``,
        tantivy ``DisjunctionMaxQuery``): per doc,
        ``best_clause_score + tie * (sum_of_other_clause_scores)``.
        ``tie=0`` is the pure "best field wins" max; ``tie=1`` degrades
        to the boolean OR's sum (both tested invariants). Doc
        partitioning keeps every clause score exact and shard-local;
        the merge is the standard O(shards * k) (score desc, doc_id
        asc) cut. Returns ``{"doc_ids", "scores", "paths"}``."""
        k = top_k if top_k is not None else 100
        qs = list(queries)
        plan = self._plan(qs, "\x00".join(qs))
        return self._merge_hits(
            self._fanout(plan, "query_dismax", plan.trees, tie, k), k
        )

    def explain(self, query: str, doc_id: int) -> dict | None:
        """Lucene ``explain()`` / ES ``_explain``: the full score
        breakdown for ONE (query, doc) pair — exact total (bit-identical
        to the ranked path), per-leaf contributions in evaluation order,
        and the BM25 evidence (df/tf/dl/idf) behind every scored term.
        Doc partitioning means exactly one shard holds the doc; the
        fan-out keeps the single non-None answer. None = no match."""
        plan = self._plan([query], query)
        parts = self._fanout(plan, "query_explain", plan.tree, int(doc_id))
        hits = [p for p in parts if p is not None]
        assert len(hits) <= 1, "doc partitioning violated: doc in 2 shards"
        return hits[0] if hits else None

    def search_suggest(
        self, term: str, size: int = 5, max_edits: int = 2,
        field: str = "content",
    ) -> list[dict]:
        """TERM SUGGESTER (ES ``term`` suggest / Lucene
        DirectSpellChecker): spell-correction candidates for a
        possibly-misspelled term — dictionary terms within ``max_edits``
        Levenshtein edits, ranked the ES way: distance asc (closer is
        better), doc frequency desc (more common is better), term asc
        tiebreak; the input term itself is excluded (ES
        ``suggest_mode`` never suggests the input back). The input is
        analyzer-normalized first, so ``MerGW`` suggests like
        ``mergw``. All moving state is integers: shards ship their
        local (candidate, live df) maps, the driver sums dfs and
        recomputes the distances. Returns
        ``[{"text", "distance", "df"}, ...]``."""
        toks = tokenize_text(term)
        if not toks:
            return []
        t0 = toks[0]
        plan = self._plan([], f"#suggest:{t0}")
        df = self._sum_counts(
            self._fanout(plan, "query_suggest", t0, int(max_edits), field)
        )
        df.pop(t0, None)
        out = [
            {"text": t, "distance": int(edit_distance(t0, t)), "df": c}
            for t, c in df.items()
        ]
        out.sort(key=lambda r: (r["distance"], -r["df"], r["text"]))
        return out[: max(0, int(size))]

    def search_rescore(
        self, query: str, rescore_query: str, window_size: int = 50,
        query_weight: float = 1.0, rescore_query_weight: float = 1.0,
        top_k: int | None = None,
    ) -> dict:
        """RESCORE (the ES ``rescore`` request): rank the cheap primary
        query, take its top ``window_size`` docs, score the (usually
        more expensive) ``rescore_query`` ONLY at those docs, and
        re-rank the window by

            query_weight * primary + rescore_query_weight * secondary

        (ES ``score_mode: total``, the default) — the classic two-phase
        retrieval shape: a fast recall pass, a precise re-rank confined
        to O(window). The window cut uses the primary (raw float64
        score desc, doc_id asc) order; the secondary pass ships only
        the window's doc ids to the shards and gets one aligned float64
        array back per shard (each doc scored by its single owner).
        Both combine multiplies and the add run in float64 in that
        fixed order, so a SQL oracle reproduces every double. Returns
        the re-ranked window's top-k as ``{"doc_ids", "scores",
        "primary", "secondary"}``."""
        k = top_k if top_k is not None else 10
        w = max(int(window_size), 1)
        plan = self._plan(
            [query, rescore_query], f"{query}\x00{rescore_query}"
        )
        # phase 1: primary top-window (standard O(shards * w) merge)
        win = self._merge_hits(
            self._fanout(plan, "query_topk", plan.trees[0], w, True),
            w, (0, 1),
        )
        docs, prim = win[0], win[1].astype(np.float64)
        # phase 2: secondary scores at exactly the window's ids (one
        # owner per doc -> the sum has no overlap)
        sec = np.sum(
            self._fanout(plan, "query_scores_at", plan.trees[1], docs),
            axis=0,
        ) if len(docs) else np.empty(0, np.float64)
        scores = (
            np.float64(query_weight) * prim
            + np.float64(rescore_query_weight) * sec
        )
        cut = np.lexsort((docs, -scores))[:k]
        return {
            "doc_ids": docs[cut],
            "scores": scores[cut],
            "primary": prim[cut],
            "secondary": sec[cut],
        }

    def search_boosting(
        self, positive: str, negative: str, negative_boost: float = 0.5,
        top_k: int | None = None,
    ) -> dict:
        """BOOSTING query (Lucene/ES ``boosting``): rank by the positive
        query's scores, demoting — never excluding — docs that also
        match the negative query by one float64 multiply with
        ``negative_boost``. The soft counterpart of ``-term``: a
        relevance penalty instead of a hard NOT. Doc partitioning keeps
        both match sets shard-local and exact; the merge is the standard
        O(shards * k) (score desc, doc_id asc) cut. Returns
        ``{"doc_ids", "scores", "paths"}``."""
        k = top_k if top_k is not None else 100
        plan = self._plan([positive, negative], f"{positive}\x00{negative}")
        return self._merge_hits(
            self._fanout(
                plan, "query_boosting", *plan.trees, negative_boost, k
            ),
            k,
        )

    def search_function_score(
        self, query: str, field: str, factor: float = 1.0,
        modifier: str = "log1p", boost_mode: str = "multiply",
        missing: float = 1.0, top_k: int | None = None,
    ) -> dict:
        """FUNCTION-SCORE with a FIELD-VALUE-FACTOR (ES
        ``function_score`` + ``field_value_factor``): rank by
        ``bm25 <boost_mode> modifier(factor * fast_field)`` — the
        standard "relevance x document-prior" shape (e.g. demote tiny
        files, boost long ones) without reindexing. Fast-field lookup is
        a shard-local searchsorted over doc-partitioned metadata; the
        merge is the standard O(shards * k) (score desc, doc_id asc)
        cut. Returns ``{"doc_ids", "scores", "paths"}``."""
        k = top_k if top_k is not None else 100
        plan = self._plan([query], f"{query}\x00#fvf:{field}")
        parts = self._fanout(
            plan, "query_function_score", plan.tree, field, factor,
            modifier, boost_mode, missing, k,
        )
        return self._merge_hits(parts, k)

    def search_min_should(
        self, clauses: list[str], m: int, top_k: int | None = None,
    ) -> dict:
        """Boolean OR over N should-clauses with a
        ``minimum_should_match`` floor (Lucene/ES parameter, tantivy
        ``BooleanQuery::with_minimum_required_clauses``): docs matching
        fewer than ``m`` clauses are excluded, qualifying docs score
        the sum of their matching clause scores. Shard-local counting
        is exact under doc partitioning; the merge is the standard
        O(shards * k) cut. Returns ``{"doc_ids", "scores", "paths"}``."""
        k = top_k if top_k is not None else 100
        qs = list(clauses)
        plan = self._plan(qs, "\x00".join(qs) + f"#{m}")
        return self._merge_hits(
            self._fanout(plan, "query_min_should", plan.trees, m, k), k
        )

    def suggest_complete(
        self, prefix: str, size: int = 10, field: str = "content"
    ) -> list[tuple[str, int]]:
        """COMPLETION suggester (the ES completion / prefix-autocomplete
        shape, served from the index dictionary instead of a separate
        FST): dictionary terms starting with ``prefix``, ranked by
        document frequency (popularity) desc then term asc. One
        dictionary-expansion fan-out (terms only) plus one int-only df
        round — traffic O(matching terms), never O(postings). The
        prefix runs through the analyzer first (lowercase etc.); with
        multi-token input the LAST token is completed (the
        search-as-you-type convention)."""
        toks = tokenize_text(prefix)
        if not toks:
            return []
        prefix = toks[-1]
        plan = self._plan([], f"#complete:{field}:{prefix}")
        per = self._fanout(plan, "expand_prefixes", [(field, prefix)])
        union = sorted({t for sh in per for t in sh[0]})
        if not union:
            return []
        fid = FIELD_IDS[field]
        dfs = self._global_dfs([(fid, t) for t in union], plan)
        ranked = sorted(union, key=lambda t: (-dfs[(fid, t)], t))
        return [(t, int(dfs[(fid, t)])) for t in ranked[:size]]

    def search_composite_agg(
        self,
        query: str,
        sources: list[dict],
        size: int = 10,
        after: tuple | None = None,
    ):
        """ES COMPOSITE aggregation: multi-source bucket keys
        (terms / histogram), paginated by ``after_key`` — the
        scale-correct way to enumerate a large bucket space (every page
        costs one fan-out of O(cardinality) integers; deep pages never
        re-ship earlier buckets, unlike from+size bucket paging).
        Sources may set ``"order": "desc"`` (default asc). Returns
        ``(buckets, after_key)``: buckets a DataFrame of source fields
        + ``n_docs`` in composite key order, after_key the tuple to
        pass back for the next page (None when the space is
        exhausted)."""
        import pandas as pd

        plan = self._plan([query], query + "\x00#composite")
        total = self._sum_counts(
            dict(zip(p["keys"], p["counts"]))
            for p in self._fanout(plan, "query_composite", plan.tree, sources)
        )
        keys = list(total)
        # multi-level sort honoring per-source direction (stable sorts
        # applied last-source-first)
        for i in range(len(sources) - 1, -1, -1):
            keys.sort(
                key=lambda k: k[i],
                reverse=sources[i].get("order", "asc") == "desc",
            )
        if after is not None:
            after = tuple(after)

            def _gt(k: tuple) -> bool:
                # k > after in composite order (per-level direction)
                for i, s in enumerate(sources):
                    if k[i] == after[i]:
                        continue
                    up = k[i] > after[i]
                    return up != (s.get("order", "asc") == "desc")
                return False

            keys = [k for k in keys if _gt(k)]
        page = keys[:size]
        cols: dict[str, list] = {s["field"]: [] for s in sources}
        for k in page:
            for s, v in zip(sources, k):
                cols[s["field"]].append(v)
        cols["n_docs"] = [total[k] for k in page]
        buckets = pd.DataFrame(cols)
        after_key = tuple(page[-1]) if page else None
        return buckets, after_key

    def _next_replica(self, query: str | None = None) -> list:
        """Replica routing. Single queries route STICKY by query hash:
        a repeated query always lands on the replica whose posting cache
        already holds its terms (cache affinity — round-robin here made
        every repeat a cold decode on the next replica set, measured 4x
        p50 regression at 4 replicas). Batch splitting (search_many) and
        anonymous callers still rotate via round-robin for load spread."""
        if query is not None and len(self.replicas) > 1:
            h = int.from_bytes(
                hashlib.md5(query.encode("utf-8")).digest()[:4], "little"
            )
            return self.replicas[h % len(self.replicas)]
        rep = self.replicas[self._rr % len(self.replicas)]
        self._rr += 1
        return rep

    def search(
        self,
        query: str,
        top_k: int | None = None,
        threshold: float | None = None,
        with_metadata: bool = True,
        offset: int = 0,
    ):
        """Full reference semantics: normalize by max score, then threshold
        (``ck-engine/src/lib.rs:820-844``). Returns a pandas DataFrame.
        Metadata comes back WITH each shard's top-k (doc-range-local
        lookup) — no driver-side doc-table scan. ``with_metadata=False``
        skips the shard-side metadata fetch entirely and returns only
        doc_id/score/normalized_score. ``offset`` pages past the first N
        ranked hits (see ``search_raw``); normalization still uses the
        GLOBAL rank-1 score, which the offset+k overfetch always
        contains, so page 2's normalized scores equal page 1's for the
        same docs."""
        k = top_k if top_k is not None else 100
        if offset < 0:
            raise ValueError("offset must be >= 0")
        return self._search_frame(
            self._plan([query], query), k, offset, threshold, with_metadata
        )

    def _search_frame(
        self, plan: _Plan, k: int, offset: int = 0,
        threshold: float | None = None, with_metadata: bool = True,
    ):
        """``search``'s ranked round and DataFrame for ``plan.tree``."""
        import pandas as pd

        fetch = k + offset
        meta_cols = list(LocalIndex._META_COLS) if with_metadata else []
        out_cols = ["doc_id", "score", "normalized_score", *meta_cols]
        if plan.tree is None:  # the empty query matches nothing
            return pd.DataFrame(columns=out_cols)
        if with_metadata:
            parts = self._fanout(
                plan, "query_topk_meta", plan.tree, fetch, True
            )
        else:
            parts = [
                {"doc_id": d, "score": s}
                for d, s in self._fanout(
                    plan, "query_topk", plan.tree, fetch, True
                )
            ]
        hits = self._merge_hits(
            parts, fetch, ("doc_id", "score", *meta_cols)
        )
        scores = hits["score"]
        if len(scores) <= offset:
            return pd.DataFrame(columns=out_cols)
        max_s = scores[0] if scores[0] > 0 else self.dtype(1.0)
        cols = {
            "doc_id": hits["doc_id"][offset:].astype(np.int64),
            "score": scores[offset:],
            "normalized_score": scores[offset:] / max_s,
        }
        for c in meta_cols:
            cols[c] = hits[c][offset:]
        df = pd.DataFrame(cols)
        if threshold is not None:
            df = df[df["normalized_score"] >= threshold].reset_index(
                drop=True
            )
        return df[out_cols]

    def search_many(
        self, queries: list[str], top_k: int | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batch query evaluation: ONE round trip per shard for the whole
        batch (plus one int-only df round when epochs/deletions exist).
        With replicas the batch splits into contiguous slices, one per
        replica, all in flight at once — in-shard work parallelizes
        across replica sets instead of serializing in one."""
        k = top_k if top_k is not None else 100
        # one parse per DISTINCT query for the whole batch (cache-warm:
        # zero); shards receive trees and never parse
        plan = self._plan(queries)
        R = min(len(self.replicas), max(1, len(queries)))
        bounds = np.linspace(0, len(queries), R + 1).astype(int)
        slices = [
            (self.replicas[r], plan.trees[bounds[r]:bounds[r + 1]])
            for r in range(R)
            if bounds[r] < bounds[r + 1]
        ]
        per_slice = self._fanout(
            plan, [("query_many", (qs, k, True), rep) for rep, qs in slices]
        )
        return [
            tuple(self._merge_hits(
                [ps[qi] for ps in per_shard], k, (0, 1)
            ).values())
            for (_, qs), per_shard in zip(slices, per_slice)
            for qi in range(len(qs))
        ]

    def search_span_near(
        self, terms: list[str], slop: int = 0, in_order: bool = False,
        top_k: int | None = None, with_meta: bool = False,
    ):
        """Proximity search (Lucene SpanNearQuery / ES ``span_near``):
        docs where the terms co-occur within a window of
        <= len(terms)+slop positions (``in_order`` restricts to
        query-order tuples), ranked by the doc's MINIMAL covering
        window (asc), doc_id asc — proximity as the rank key. Terms
        run through the analyzer. Doc partitioning makes the merge a
        concatenate of per-shard top-k; traffic O(shards * k)."""
        import pandas as pd

        toks = [t for term in terms for t in tokenize_text(term)]
        plan = self._plan(
            [], "span:" + " ".join(toks) + f"#{slop}#{in_order}"
        )
        parts = self._fanout(
            plan, "query_span_near", toks, slop, in_order, top_k,
            with_meta=with_meta,
        )
        self.last_fanout_rows = int(sum(len(p["doc_id"]) for p in parts))
        cols = self._concat(parts, (
            "doc_id", "min_window",
            *(LocalIndex._META_COLS if with_meta else ()),
        ))
        order = np.lexsort((cols["doc_id"], cols["min_window"]))[:top_k]
        cols["doc_id"] = cols["doc_id"].astype(np.int64)
        return pd.DataFrame({c: v[order] for c, v in cols.items()})

    def search_facets(
        self, query: str, facet_field: str = "lang"
    ) -> tuple[int, "dict[str, int]"]:
        """(total match count, per-facet match counts) across the whole
        index — the tantivy Count + TermsAggregation collector pair.
        Doc-partitioned shards make the merge a plain integer sum (every
        doc is counted by exactly one shard); the facet table that moves
        is O(distinct facet values), never O(matches)."""
        plan = self._plan([query], query)
        parts = self._fanout(plan, "query_facets", plan.tree, facet_field)
        return sum(p[0] for p in parts), self._sum_counts(
            f for _, f in parts
        )

    def search_significant_terms(
        self, query: str, field: str = "lang", size: int = 10
    ) -> dict:
        """SIGNIFICANT-TERMS aggregation (the ES ``significant_terms``
        bucket agg, JLH heuristic) over a keyword metadata field: which
        field values are anomalously frequent in the query's match set
        (foreground) relative to the whole index (background)?

        Doc partitioning makes both count families exact-int and
        shard-local; the driver merges O(shards * cardinality) integers,
        then scores each foreground value ONCE in float64 with ES's JLH:
        ``(fg% - bg%) * (fg% / bg%)`` — absolute lift times relative
        lift. Only values with positive score (fg% > bg%) qualify
        (ES's filter); buckets sort score desc, value asc, cut to
        ``size``. The fixed operation order — two divides, a subtract, a
        divide, a multiply — lets a SQL oracle reproduce every double
        bit-for-bit from the same integer counts. Returns ``{"fg_total",
        "bg_total", "buckets": [{"value", "fg_count", "bg_count",
        "score"}, ...]}``."""
        plan = self._plan([query], query + "\x00#significant")
        parts = self._fanout(plan, "query_significant", plan.tree, field)
        fg_total = sum(p["fg_total"] for p in parts)
        bg_total = sum(p["bg_total"] for p in parts)
        fg = self._sum_counts(p["fg"] for p in parts)
        bg = self._sum_counts(p["bg"] for p in parts)
        return self._jlh(fg, bg, fg_total, bg_total, size, "value")

    @staticmethod
    def _jlh(fg, bg, fg_total, bg_total, size, name, keep=None) -> dict:
        """ES's JLH significance over merged exact-int counts: each
        foreground key (``keep(key)`` true) scores ONCE in float64
        ``(fg% - bg%) * (fg% / bg%)``; positive scores bucket, sorted
        score desc, key asc, cut to ``size``. A foreground key always
        exists in the background: matched docs are live docs of the
        same shards."""
        buckets = []
        if fg_total and bg_total:
            for v in sorted(fg):
                if keep is not None and not keep(v):
                    continue
                fgp = fg[v] / fg_total
                bgp = bg[v] / bg_total
                score = (fgp - bgp) * (fgp / bgp)
                if score > 0:
                    buckets.append(
                        {
                            name: v,
                            "fg_count": fg[v],
                            "bg_count": bg[v],
                            "score": score,
                        }
                    )
        buckets.sort(key=lambda r: (-r["score"], r[name]))
        return {
            "fg_total": fg_total,
            "bg_total": bg_total,
            "buckets": buckets[: max(0, int(size))],
        }

    def search_significant_text(
        self, query: str, size: int = 10, min_doc_count: int = 3,
        exclude_query_terms: bool = True, field: str = "content",
        sample_size: int | None = None,
        source=None,
        diversify_field: str | None = None,
        max_docs_per_value: int | None = None,
    ) -> dict:
        """SIGNIFICANT-TEXT aggregation (ES ``significant_text``): which
        free-text TERMS are anomalously frequent in the query's matching
        docs vs the whole corpus — "what words co-occur with this
        query?". Same JLH scorer as ``search_significant_terms``, but
        foreground/background counts come from the INVERTED INDEX itself
        (one posting pass per shard, ``query_significant_text``) instead
        of a keyword fast field, so any indexed term can surface.

        The driver merges exact integer (fg, bg) sums across
        doc-partitioned shards, drops terms under ``min_doc_count``
        foreground docs (ES parameter), optionally drops the query's own
        terms (they trivially top the list: fg% = 100%), scores once in
        float64 and cuts (score desc, term asc). Exact-collector cost
        note: see ``query_significant_text``.

        ``sample_size=N`` is the SCALE path (how ES documents running
        ``significant_text`` under a ``sampler`` agg): the foreground is
        the top-N BM25 docs instead of the full match set (4dp-rounded
        score cut, doc_id-asc ties — the shared ranked-cut rule).

        With ``source`` also given — a callable
        ``source(paths: list[str]) -> dict[path, field_text]``, e.g.
        :func:`parquet_field_source` — the sampled collector is
        genuinely **O(sample), not O(index)** (what makes ES's sampler
        cheap): foreground counts come from RE-ANALYZING the N sampled
        docs' stored text with the index tokenizer (one vectorized
        ``term_frequencies`` kernel — a term absent from the sample has
        fg = 0 and can never bucket, so only the sample's own terms are
        candidates), and background dfs come from one vectorized
        serving-``df`` column gather over those candidates
        (``query_bulk_dfs``) — zero posting decodes end to end. That
        exact-global df shortcut needs a single-epoch index with no
        deletions (the same regime as ``rare_terms`` exact_global);
        incremental/deleted indexes, or ``source=None``, fall back to
        the exact posting-pass collector restricted to the sample ids —
        identical results, per-query cost O(shard postings).

        ``diversify_field`` + ``max_docs_per_value`` turn the sampler
        into ES's ``diversified_sampler``: the ranked stream is walked
        in order and docs whose field value already has
        ``max_docs_per_value`` accepted docs are skipped (without
        consuming the cap), so no single value dominates the
        foreground; the sample is the first ``sample_size`` accepted
        docs."""
        plan = self._plan([query], query + "\x00#sigtext")
        sample = None
        if sample_size is not None and diversify_field is not None:
            # DIVERSIFIED sampler (ES ``diversified_sampler``) — see
            # _diversified_cut for the walk + closure rule.
            sample, _, _ = self._diversified_cut(
                plan, int(sample_size), diversify_field,
                max(1, int(max_docs_per_value or 1)),
            )
        elif sample_size is not None:
            # the cut is on ROUNDED scores, so per-shard raw top-k is
            # not enough: overfetch until the closed ranked prefix holds
            # k rows (or every shard is exhausted) — the same closure
            # rule as the entry-level rounded cut
            k = int(sample_size)
            fetch = k + 64
            while True:
                head, _, done = self._closed_prefix(plan, fetch)
                if done or len(head) >= k:
                    break
                fetch *= 4
            sample = head[:k]
        if sample is not None and source is not None \
                and not self._needs_df_round:
            # O(sample) sampled collector — see the docstring. fg_total
            # and bg_total need no fan-out: every sampled doc has
            # exactly one owner, and single-epoch + no deletions means
            # the manifest doc count IS the live count.
            from .tokenizer import term_frequencies

            fg = {}
            bg = {}
            if len(sample):
                path_of = {}
                for ds_, ps_ in self._fanout(plan, "paths_for_docs", sample):
                    path_of.update(zip(ds_, ps_))
                paths = [path_of[int(d)] for d in sample]
                texts = source(paths)
                missing = [p for p in paths if p not in texts]
                if missing:
                    raise ValueError(
                        "significant_text source returned no text for "
                        f"{len(missing)} sampled path(s), e.g. "
                        f"{missing[0]!r} — the source must cover every "
                        "indexed doc (wrong key column or stale corpus?)"
                    )
                tf_tab, _ = term_frequencies(
                    pa.array([texts[p] for p in paths], pa.string()),
                    with_positions=False,
                )
                # one row per (doc, term): the term's row count IS its
                # foreground doc count
                vc = pc.value_counts(tf_tab["term"])
                fg = {
                    str(v): int(c)
                    for v, c in zip(
                        vc.field("values").to_pylist(),
                        vc.field("counts").to_pylist(),
                    )
                }
                for p in self._fanout(
                    plan, "query_bulk_dfs", sorted(fg), field
                ):
                    bg.update(p)
                orphans = [t for t in fg if t not in bg]
                if orphans:
                    # every re-analyzed term of an indexed doc must be
                    # in the dictionary; an orphan means the source
                    # text doesn't match what was indexed
                    raise ValueError(
                        f"{len(orphans)} sampled term(s) absent from "
                        f"the {field!r} dictionary, e.g. "
                        f"{orphans[0]!r} — the source text does not "
                        "match the indexed field (wrong text column?)"
                    )
            fg_total = int(len(sample))
            bg_total = int(self.manifest["num_docs"])
        else:
            parts = self._fanout(
                plan, "query_significant_text", plan.tree, field,
                sample_docs=sample,
            )
            fg_total = sum(p["fg_total"] for p in parts)
            bg_total = sum(p["bg_total"] for p in parts)
            fg = self._sum_counts(
                {t: f for t, (f, _) in p["counts"].items()} for p in parts
            )
            bg = self._sum_counts(
                {t: b for t, (_, b) in p["counts"].items()} for p in parts
            )
        skip: set[str] = set()
        if exclude_query_terms:
            skip = {t for c in collect_clauses(plan.tree) for t in c.terms}
        return self._jlh(
            fg, bg, fg_total, bg_total, size, "term",
            lambda t: fg[t] >= int(min_doc_count) and t not in skip,
        )

    def search_distance_feature(
        self, query: str, field: str, origin: int, pivot: int,
        boost: float = 1.0, top_k: int | None = None,
    ) -> dict:
        """DISTANCE-FEATURE query (ES ``distance_feature``): rank by
        ``bm25 + boost * pivot / (pivot + |field - origin|)`` — the
        recency/proximity boost shape (e.g. prefer docs near a target
        size or timestamp) without filtering. Shard-local exact under
        doc partitioning; standard O(shards * k) merge. Returns
        ``{"doc_ids", "scores", "paths"}``."""
        k = top_k if top_k is not None else 100
        plan = self._plan(
            [query], query + f"\x00#distfeat:{field}:{origin}:{pivot}"
        )
        parts = self._fanout(
            plan, "query_distance_feature", plan.tree, field, int(origin),
            int(pivot), float(boost), k,
        )
        return self._merge_hits(parts, k)

    def search_pinned(
        self, query: str, pinned_paths: list[str],
        top_k: int | None = None,
    ) -> dict:
        """PINNED query (ES ``pinned``): the given docs rank FIRST, in
        the order given — whether or not they match — followed by the
        organic matches (pinned excluded) in score order; total size is
        ``top_k``. Pinned ids that don't exist in the index are dropped
        (ES behavior). One id-lookup fan-out (O(pins) integers) plus
        the standard ranked search; organic scores stay exact, pinned
        rows carry their organic score when they match and NaN when
        they're pure promotions. Returns ``{"paths", "doc_ids",
        "scores", "pinned"}`` aligned arrays."""
        k = top_k if top_k is not None else 100
        plan = self._plan([query], query)
        pins = list(dict.fromkeys(pinned_paths))  # dedupe, keep order
        found: dict[str, int] = {}
        for part in self._fanout(plan, "lookup_paths", pins):
            found.update(part)
        pins = [p for p in pins if p in found][:k]
        df = self._search_frame(plan, k + len(pins))
        by_path = {
            p: (int(d), float(sc))
            for p, d, sc in zip(df["path"], df["doc_id"], df["score"])
        }
        # pins ranked deeper than the fetched page still deserve their
        # real organic score (ES returns it): one exact O(pins) score
        # probe at their ids — score 0.0 there means "does not match"
        # (every true match scores > 0), which maps to NaN
        deep = [p for p in pins if p not in by_path]
        if deep:
            ids = np.asarray([found[p] for p in deep], dtype=np.uint64)
            probed = np.sum(
                self._fanout(plan, "query_scores_at", plan.tree, ids),
                axis=0,
            )
            for p, sc in zip(deep, probed):
                by_path[p] = (
                    found[p],
                    float(sc) if sc > 0 else float("nan"),
                )
        pinset = set(pins)
        organic = [p for p in df["path"] if p not in pinset]
        rows = pins + organic[: max(0, k - len(pins))]
        hits = [
            (found[p], by_path[p][1]) if p in pinset else by_path[p]
            for p in rows
        ]
        return {
            "paths": np.asarray(rows, dtype=object),
            "doc_ids": np.asarray([d for d, _ in hits], dtype=np.uint64),
            "scores": np.asarray([sc for _, sc in hits], dtype=np.float64),
            "pinned": np.arange(len(rows)) < len(pins),
        }

    def search_span_first(
        self, term: str, end: int, field: str = "content"
    ) -> dict:
        """SPAN-FIRST (Lucene SpanFirstQuery): docs whose first
        occurrence of the analyzer-normalized ``term`` falls before
        position ``end``. Const-score membership (doc_id order), doc-
        partitioned so the merge is concatenation. Returns
        ``{"doc_ids", "paths"}`` sorted by doc_id."""
        toks = tokenize_text(term)
        if not toks:
            return {
                "doc_ids": np.empty(0, np.uint64),
                "paths": np.empty(0, object),
            }
        if len(toks) > 1:
            raise ValueError(
                f"span_first takes ONE term; {term!r} tokenizes to "
                f"{toks} (wrap phrases in span_near instead)"
            )
        plan = self._plan([], f"#spanfirst:{toks[0]}:{end}")
        return self._by_doc(self._fanout(
            plan, "query_span_first", toks[0], int(end), field
        ))

    def search_span_not(
        self, include: str, exclude: str, pre: int = 0, post: int = 0,
        field: str = "content",
    ) -> dict:
        """SPAN-NOT (Lucene SpanNotQuery): docs with at least one
        ``include`` occurrence having no ``exclude`` occurrence within
        ``pre`` positions before through ``post`` after — the
        negative-context filter ("merge, but not near window").
        Const-score membership like span_first; doc-partitioned, so
        the merge is concatenation. Both terms are analyzer-normalized
        single tokens. Returns ``{"doc_ids", "paths"}`` (doc_id asc)."""
        toks_i = tokenize_text(include)
        toks_e = tokenize_text(exclude)
        if len(toks_i) != 1 or len(toks_e) != 1:
            raise ValueError(
                "span_not takes ONE include and ONE exclude term; got "
                f"{toks_i} / {toks_e}"
            )
        plan = self._plan(
            [], f"#spannot:{toks_i[0]}:{toks_e[0]}:{pre}:{post}"
        )
        return self._by_doc(self._fanout(
            plan, "query_span_not", toks_i[0], toks_e[0], int(pre),
            int(post), field,
        ))

    def _by_doc(self, parts: list[dict]) -> dict:
        """The const-score membership merge: concatenate, doc_id asc."""
        c = self._concat(parts, ("doc_ids", "path"))
        order = np.argsort(c["doc_ids"])
        return {"doc_ids": c["doc_ids"][order], "paths": c["path"][order]}

    def search_matrix_stats(
        self, query: str, fields: tuple = ("n_bytes", "dl_content")
    ) -> dict:
        """MATRIX-STATS aggregation (ES ``matrix_stats``) over numeric
        fast fields of the match set: per field-pair covariance and
        correlation (sample form, n-1), diagonal = variance / 1.0. The
        shards ship exact arbitrary-precision integer moment sums
        (associative merge — no float drift at any scale); every double
        is computed ONCE here in a fixed operation order —

            cov(a,b)  = (Σab - (Σa·Σb)/n) / (n-1)
            corr(a,b) = cov(a,b) / sqrt(var(a) * var(b))

        with each Σ an exact int converted to float64 — so a SQL oracle
        (HUGEINT sums, the same expression) reproduces the doubles.
        Returns ``{"count", "cells": [{"field_a", "field_b",
        "covariance", "correlation"}, ...]}`` (field-name order)."""
        m = self._moments(query, fields, "#matrix")
        n, s, sp = m["n"], m["s"], m["sp"]
        cells = []
        if n >= 2:
            def _cov(a, b):
                key = f"{a}|{b}" if f"{a}|{b}" in sp else f"{b}|{a}"
                return (
                    float(sp[key]) - float(s[a] * s[b]) / n
                ) / (n - 1)

            var = {f: _cov(f, f) for f in fields}
            for i, a in enumerate(fields):
                for b in fields[i:]:
                    c = _cov(a, b)
                    denom = float(np.sqrt(var[a] * var[b]))
                    cells.append(
                        {
                            "field_a": a,
                            "field_b": b,
                            "covariance": c,
                            "correlation": (
                                c / denom if denom > 0 else float("nan")
                            ),
                        }
                    )
        return {"count": n, "cells": cells}

    def _moments(self, query: str, fields: tuple, tag: str) -> dict:
        """Merged exact integer moment sums of ``query``'s match set
        over ``fields`` (the matrix_stats shard contract, reused by
        weighted_avg)."""
        plan = self._plan([query], f"{query}\x00{tag}")
        return self._sum_moments(self._fanout(
            plan, "query_matrix_stats", plan.tree, tuple(fields)
        ), fields)

    @staticmethod
    def _sum_moments(parts: list[dict], fields: tuple) -> dict:
        return {
            "n": sum(p["n"] for p in parts),
            "s": {
                f: sum(p["s"][f] for p in parts) for f in fields
            },
            "sp": {
                k: sum(p["sp"][k] for p in parts)
                for k in parts[0]["sp"]
            } if parts else {},
        }

    def search_weighted_avg(
        self, query: str, value_field: str = "n_bytes",
        weight_field: str = "dl_content",
    ) -> dict:
        """WEIGHTED-AVG aggregation (ES ``weighted_avg``): the value
        fast field averaged with per-doc weights from another fast
        field over the FULL match set — Σ(v·w) / Σw, both sums exact
        arbitrary-precision integers merged across doc-partitioned
        shards, the one divide in float64 driver-side. Returns
        ``{"count", "weighted_avg", "weight_total"}``."""
        m = self._moments(query, (value_field, weight_field), "#moments")
        key = f"{value_field}|{weight_field}"
        sw = m["s"][weight_field]
        return {
            "count": m["n"],
            "weight_total": int(sw),
            "weighted_avg": (
                float(m["sp"][key]) / float(sw) if sw else float("nan")
            ),
        }

    def search_t_test(
        self, query_a: str, query_b: str, field: str = "dl_content"
    ) -> dict:
        """T-TEST aggregation (ES ``t_test``, unpaired heteroscedastic
        = Welch's t): is the field's mean genuinely different between
        two query populations? Each side's moment sums are exact
        integers off one matrix_stats fan-out; the statistic

            t = (mean_a - mean_b) / sqrt(var_a/n_a + var_b/n_b)

        (sample variances, n-1) is computed once in float64 in that
        operation order, so a SQL oracle reproduces the double from the
        same HUGEINT sums. Returns ``{"n_a", "n_b", "mean_a", "mean_b",
        "t"}``; ``t`` is NaN when a side has fewer than 2 matches."""
        plan = self._plan(
            [query_a, query_b], f"{query_a}\x00{query_b}\x00#ttest"
        )
        sides = self._fanout(plan, [
            ("query_matrix_stats", (tree, (field,))) for tree in plan.trees
        ])
        out, se2 = {}, []
        for tag, parts in zip("ab", sides):
            m = self._sum_moments(parts, (field,))
            n = m["n"]
            sx = m["s"][field]
            sxx = m["sp"][f"{field}|{field}"]
            out[f"n_{tag}"] = n
            out[f"mean_{tag}"] = float(sx) / n if n else float("nan")
            var = (
                (float(sxx) - float(sx * sx) / n) / (n - 1)
                if n >= 2
                else float("nan")
            )
            se2.append(var / n if n else float("nan"))
        denom = float(np.sqrt(se2[0] + se2[1]))
        out["t"] = (
            (out["mean_a"] - out["mean_b"]) / denom
            if denom > 0
            else float("nan")
        )
        return out

    def search_mad(
        self, query: str, field: str = "dl_content"
    ) -> dict:
        """MEDIAN-ABSOLUTE-DEVIATION aggregation (ES
        ``median_absolute_deviation`` — which documents TDigest
        APPROXIMATION; this engine is exact): median of
        ``|x - median(x)|`` over the match set's fast-field values.
        Shards ship exact value histograms (O(distinct values) ints);
        both medians use the pinned LOWER-median rule — the smallest
        value whose cumulative count reaches ceil(n/2) — which a SQL
        oracle replicates with a windowed cumulative sum (DuckDB's
        ``median()`` interpolates even counts, so the rule is pinned
        instead of borrowed). Returns ``{"count", "median", "mad"}``
        (integers)."""
        counts = self._value_counts(query, field, "mad")
        n = sum(counts.values())
        if n == 0:
            return {"count": 0, "median": None, "mad": None}

        def lower_median(cmap: dict[int, int], total: int) -> int:
            need = (total + 1) // 2  # ceil(n/2)
            cum = 0
            for v in sorted(cmap):
                cum += cmap[v]
                if cum >= need:
                    return v
            raise AssertionError("unreachable")

        med = lower_median(counts, n)
        dev: dict[int, int] = {}
        for v, c in counts.items():
            d = abs(v - med)
            dev[d] = dev.get(d, 0) + c
        return {
            "count": n,
            "median": int(med),
            "mad": int(lower_median(dev, n)),
        }

    def search_percentile_ranks(
        self, query: str, field: str = "dl_content",
        values: tuple = (), 
    ) -> dict:
        """PERCENTILE-RANKS aggregation (ES ``percentile_ranks``,
        exact): for each given value v, the percentage of matched docs
        whose fast-field value is <= v — computed from the same exact
        merged value histogram as ``search_mad`` (ES ships TDigest
        here too). One float64 multiply-divide per requested value, in
        a fixed order the SQL oracle replicates:
        ``100.0 * count_le / n``. Returns ``{"count", "ranks":
        {value: pct}}``."""
        counts = self._value_counts(query, field, "pctrank")
        n = sum(counts.values())
        ranks: dict[int, float] = {}
        if n:
            ks = np.array(sorted(counts), dtype=np.int64)
            cum = np.cumsum([counts[int(k)] for k in ks])
            for v in values:
                i = int(np.searchsorted(ks, int(v), side="right"))
                le = int(cum[i - 1]) if i else 0
                ranks[int(v)] = (100.0 * le) / n
        return {"count": n, "ranks": ranks}

    def _value_counts(self, query: str, field: str, tag: str) -> dict:
        """The merged exact value -> match count map of ``field`` over
        ``query``'s match set (behind mad and percentile_ranks)."""
        plan = self._plan([query], query + f"\x00#{tag}:{field}")
        return self._sum_counts(
            self._fanout(plan, "query_value_counts", plan.tree, field)
        )

    def search_rare_terms(
        self, max_doc_count: int, size: int = 10, field: str = "content"
    ) -> list[dict]:
        """RARE-TERMS aggregation (ES ``rare_terms``, exact): dictionary
        terms whose LIVE global doc count is <= ``max_doc_count``,
        ranked df asc then term asc — the long-tail counterpart of
        ``terms``/``completion`` (ES approximates set membership with a
        CuckooFilter and documents false positives; this engine is exact
        over the index dictionary).

        Single-epoch, no deletions: one vectorized scan of each shard's
        serving ``df`` column (exact global dfs are already on the
        rows), zero posting decodes, zero extra rounds. Incremental /
        deleted indexes: shards prune by LIVE LOCAL count (lossless —
        local count above the cap implies global above the cap), then
        ONE exact global live-df round over the candidate union
        re-filters. Traffic is O(rare terms) either way."""
        plan = self._plan([], f"#rare:{field}:{max_doc_count}")
        exact = not self._needs_df_round
        parts = self._fanout(
            plan, "query_rare_terms", int(max_doc_count), field, exact
        )
        if exact:
            merged = {t: d for p in parts for t, d in p.items()}
        else:
            union = sorted({t for p in parts for t in p})
            fid = FIELD_IDS[field]
            dfs = self._global_dfs([(fid, t) for t in union], plan)
            merged = {
                t: int(dfs[(fid, t)])
                for t in union
                if 0 < dfs[(fid, t)] <= int(max_doc_count)
            }
        ranked = sorted(merged.items(), key=lambda kv: (kv[1], kv[0]))
        return [
            {"term": t, "df": d}
            for t, d in ranked[: max(0, int(size))]
        ]

    def search_phrase_suggest(
        self, text: str, size: int = 5, max_edits: int = 1,
        num_candidates: int = 5, field: str = "content",
    ) -> list[dict]:
        """PHRASE SUGGESTER — "did you mean" (the ES ``phrase`` suggest:
        candidate generation per token + a word language model ranking
        whole corrected phrases, so corrections respect CONTEXT: for
        "mergw windoq" the bigram model prefers "merge window" over any
        per-token-frequency pick). ES builds its LM from a shingle
        subfield; this engine reads unigram statistics (cf = Σtf) off
        the postings and bigram counts off the positional postings it
        already stores — no extra index.

        Per input token: dictionary candidates within ``max_edits``
        Levenshtein edits (one fuzzy-expansion fan-out), kept to the top
        ``num_candidates`` by (cf desc, term asc) — zero-cf candidates
        never rank. Candidate chains (the cartesian product) score

            ln(cf(w1)/T) + Σ_i ln( (0.7·big(wᵢ₋₁,wᵢ))/cf(wᵢ₋₁)
                                   + (0.3·cf(wᵢ))/T )

        — an interpolated bigram LM (λ=0.7) over exact LIVE counts:
        cf from one int fan-out, adjacent-bigram occurrence counts from
        one positional fan-out over only the candidate pairs, T = total
        live tokens. All floats driver-side in a fixed operation order,
        so a SQL oracle over the token table reproduces every double.
        Returns [{"phrase", "score"}] (score desc, phrase asc)."""
        import itertools

        toks = tokenize_text(text)
        if not toks:
            return []
        if len(toks) > 6:
            # candidate chains are the per-token cartesian product, so
            # the cost is num_candidates**len(toks); fail loudly rather
            # than look like "no suggestions" (ES phrase suggest also
            # bounds input, via shingle size)
            raise ValueError(
                f"phrase_suggest caps input at 6 tokens, got "
                f"{len(toks)}"
            )
        fid = FIELD_IDS[field]
        plan = self._plan([], f"#phrase:{field}:{' '.join(toks)}")
        # one fuzzy-expansion round for every input token
        specs = [(field, t, int(max_edits), False) for t in toks]
        per = self._fanout(plan, "expand_fuzzies", specs)
        cand_union = [
            sorted({t for sh in per for t in sh[i]})
            for i in range(len(toks))
        ]
        # one cf round over the union of all candidates
        all_terms = sorted({t for c in cand_union for t in c})
        if not all_terms:
            return []
        cfs = self._sum_aligned(
            plan, "local_cfs", [(fid, t) for t in all_terms]
        )
        cands = []
        for c in cand_union:
            ranked = sorted(
                (t for t in c if cfs[(fid, t)] > 0),
                key=lambda t: (-cfs[(fid, t)], t),
            )[: max(1, int(num_candidates))]
            if not ranked:
                return []  # a token with no viable candidates
            cands.append(ranked)
        T = sum(self._fanout(plan, "local_token_total", field))
        if T <= 0:
            return []
        # one bigram round over only the adjacent candidate pairs
        pairs = sorted(
            {
                (a, b)
                for i in range(len(cands) - 1)
                for a in cands[i]
                for b in cands[i + 1]
            }
        )
        big = self._sum_aligned(
            plan, "local_bigram_counts", pairs, field
        ) if pairs else {}
        out = []
        for chain in itertools.product(*cands):
            cf1 = cfs[(fid, chain[0])]
            score = float(np.log(cf1 / T))
            for i in range(1, len(chain)):
                bc = big.get((chain[i - 1], chain[i]), 0)
                cfp = cfs[(fid, chain[i - 1])]
                cfi = cfs[(fid, chain[i])]
                score += float(
                    np.log((0.7 * bc) / cfp + (0.3 * cfi) / T)
                )
            out.append({"phrase": " ".join(chain), "score": score})
        out.sort(key=lambda r: (-r["score"], r["phrase"]))
        return out[: max(0, int(size))]

    def search_best_passages(
        self, query: str, window: int = 8, num_fragments: int = 1
    ) -> dict:
        """Best highlight passage for EVERY matching doc (unified-
        highlighter passage scorer over a filter query — the "highlight
        all hits" collector): per doc, the token window of ``window``
        positions maximizing the summed BM25-idf weight of query-term
        occurrences, ties to the smallest start. Passage selection is
        shard-local off the positional postings (no stored text);
        O(matched docs) rows merge at the driver (doc-partitioned, so
        plain concatenation — no doc spans shards). Returns
        ``{"doc_ids", "starts", "scores"}`` sorted by doc_id."""
        plan = self._plan(
            [query], query + f"\x00#passage:{window}:{num_fragments}"
        )
        parts = self._fanout(
            plan, "query_best_passage", plan.tree, int(window),
            num_fragments=int(num_fragments),
        )
        self.last_fanout_rows = int(
            sum(len(p["doc_ids"]) for p in parts)
        )
        out = self._concat(
            parts, ("doc_ids", "starts", "scores", "frags", "path")
        )
        out["paths"] = out.pop("path")
        order = np.lexsort((out["frags"], out["doc_ids"]))
        return {c: v[order] for c, v in out.items()}

    def search_aggregate(self, query: str, spec: dict) -> dict:
        """Tantivy-style aggregation over the whole index's match set
        (the ES-compatible aggregation module: ``histogram`` / ``range``
        / ``stats`` / ``cardinality``). Doc partitioning makes every
        merge exact and integer-only: histogram/range counts sum,
        stats merge as (sum count, min min, max max, sum sum) with avg
        derived once at the end, cardinality unions the shards'
        distinct-value sets (bounded by field cardinality, never by
        matches)."""
        plan = self._plan([query], query)
        return self._merge_agg(
            spec, self._fanout(plan, "query_aggregate", plan.tree, spec)
        )

    def search_filters_agg(self, filters: dict, spec: dict) -> dict:
        """FILTERS bucket aggregation (ES ``filters``): N named filter
        queries, each reduced under the same sub-aggregation ``spec``,
        in ONE fan-out — the dual of ``search_aggregate_multi`` (N specs
        over one query there; one spec over N queries here). Returns
        ``{name: merged aggregation}``."""
        names = list(filters)
        qs = [filters[n] for n in names]
        plan = self._plan(qs, "\x00".join(qs))
        parts = self._fanout(
            plan, "query_filters_agg", dict(zip(names, plan.trees)), spec
        )
        return {
            name: self._merge_agg(spec, [p[name] for p in parts])
            for name in names
        }

    def search_adjacency_matrix(self, filters: dict) -> dict:
        """ADJACENCY-MATRIX aggregation (ES ``adjacency_matrix``):
        exact doc counts for every named filter and every pairwise
        intersection (key ``a&b``, names sorted) — the co-occurrence
        collector behind overlap heatmaps. One fan-out; shards return
        O(N^2) integers and the driver sums them (doc partitioning
        makes intersections shard-local and the merge associative).
        Empty buckets are omitted, matching ES."""
        plan = self._plan(
            list(filters.values()),
            "\x00".join(sorted(filters.values())) + "#adjacency",
        )
        total = self._sum_counts(self._fanout(
            plan, "query_adjacency", dict(zip(filters, plan.trees))
        ))
        return {k: v for k, v in total.items() if v > 0}

    def search_aggregate_multi(self, query: str, specs: dict) -> dict:
        """N named aggregations in ONE pass (the ES multi-agg request):
        every shard evaluates the match set once and reduces it under
        each spec, so the driver pays one fan-out and the shards one
        TAAT evaluation regardless of how many aggregations ride it."""
        plan = self._plan([query], query)
        parts = self._fanout(plan, "query_aggregate_multi", plan.tree, specs)
        return {
            name: self._merge_agg(spec, [p[name] for p in parts])
            for name, spec in specs.items()
        }

    def _merge_agg(self, spec: dict, parts: list) -> dict:
        kind = spec["kind"]
        if kind == "cardinality":
            vals = sorted({v for p in parts for v in p["values"]})
            return {
                "matches": sum(p["matches"] for p in parts),
                "cardinality": len(vals),
                "values": vals,
            }
        if kind in ("stats", "extended_stats"):
            import math

            count = sum(p["count"] for p in parts)
            mins = [p["min"] for p in parts if p["min"] is not None]
            maxs = [p["max"] for p in parts if p["max"] is not None]
            total = sum(p["sum"] for p in parts)
            out = {
                "count": count,
                "min": min(mins) if mins else None,
                "max": max(maxs) if maxs else None,
                "sum": total,
            }
            # exact-int operands -> one IEEE divide, SQL-replicable
            avg = (float(total) / float(count)) if count else None
            if kind == "stats":
                return {**out, "avg": avg}
            ssq = sum(p["sum_sq"] for p in parts)
            if count:
                # population variance from exact integer moments:
                # n*ssq - sum^2 >= 0 by Cauchy-Schwarz, so the single
                # float divide can never produce a negative variance
                # and sqrt is always safe — the SQL oracle performs the
                # identical HUGEINT->DOUBLE conversion and divide, so
                # variance and std match bit-for-bit (ES extended_stats
                # semantics, exact where ES accumulates in doubles)
                var = float(count * ssq - total * total) / (
                    float(count) * float(count)
                )
                std = math.sqrt(var)
            else:
                var = std = None
            return {
                **out, "sum_sq": ssq, "avg": avg, "variance": var,
                "std_deviation": std,
            }
        if kind == "histogram":
            buckets = self._sum_counts(p["buckets"] for p in parts)
            return {"buckets": dict(sorted(buckets.items()))}
        if kind == "percentiles":
            import math

            vc = self._sum_counts(p["value_counts"] for p in parts)
            n = sum(vc.values())
            qs = [float(q) for q in spec.get("qs", (0.25, 0.5, 0.75, 0.99))]
            out: dict[float, int | None] = {}
            if n:
                keys = sorted(vc)
                cum = np.cumsum([vc[kk] for kk in keys])
                for q in qs:
                    # discrete quantile: the ceil(q*n)-th smallest value
                    # (1-indexed) — the same double multiply + ceil the
                    # SQL oracle performs, so the rank is bit-identical
                    rank = max(1, math.ceil(q * n))
                    out[q] = int(keys[int(np.searchsorted(cum, rank))])
            else:
                out = {q: None for q in qs}
            return {"count": n, "percentiles": out}
        if kind == "range":
            return {"ranges": self._sum_counts(p["ranges"] for p in parts)}
        raise ValueError(f"unknown aggregation kind: {kind!r}")

    def search_sort_by_field(
        self, query: str, field: str, top_k: int = 100,
        ascending: bool = False,
    ) -> dict:
        """Top-k of the whole index's match set ordered by a numeric
        fast field (tantivy ``TopDocs::order_by_u64_field``): each shard
        returns its local top-k by exact-int (value, doc_id asc) order,
        the driver merges <= shards * k rows under the same total order.
        Returns ``{"values", "doc_ids", "paths"}`` arrays."""
        return self._sort_by_field(
            self._plan([query], query), field, top_k, ascending
        )

    def _sort_by_field(
        self, plan: _Plan, field: str, top_k: int, ascending: bool
    ) -> dict:
        parts = self._fanout(
            plan, "query_topk_by_field", plan.tree, field, top_k, ascending
        )
        out = self._concat(parts, ("values", "doc_ids", "paths"))
        vals = out["values"]
        order = np.lexsort(
            (out["doc_ids"], vals if ascending else -vals)
        )[:top_k]
        return {c: v[order] for c, v in out.items()}

    def _closed_prefix(self, plan: _Plan, fetch: int):
        """One ranked round of ``plan.tree`` (top ``fetch`` per shard)
        merged under the shared rounded-score order: 4dp-rounded score
        desc, doc_id asc. Only the prefix strictly ABOVE every
        non-exhausted shard's last rounded score is complete (rounding
        is monotone, so nothing deeper in such a shard can reach it).
        Returns ``(prefix doc ids, their rounded scores, every shard
        exhausted)``; callers refetch deeper until the prefix holds
        what they need."""
        tops = self._fanout(plan, "query_topk", plan.tree, fetch, True)
        docs = np.concatenate([t[0] for t in tops])
        sc = scoring.round_half_away(
            np.concatenate([t[1] for t in tops]).astype(np.float64), 4
        )
        order = np.lexsort((docs, -sc))
        docs, sc = docs[order], sc[order]
        open_last = [
            float(scoring.round_half_away(np.float64(t[1][-1]), 4))
            for t in tops
            if len(t[0]) >= fetch
        ]
        if open_last:
            n = int(np.searchsorted(-sc, -max(open_last), side="left"))
            docs, sc = docs[:n], sc[:n]
        return docs, sc, not open_last

    def _diversified_cut(
        self, plan: _Plan, k: int, field: str, cap: int
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Walk the rounded-cut ranked stream in order, SKIP docs whose
        ``field`` value already has ``cap`` accepted docs (skipped docs
        do not consume the cap), stop at ``k`` accepted. Only the
        prefix of the global ranked list strictly ABOVE every
        non-exhausted shard's last rounded score is complete; accept
        only from that prefix and refetch until k are accepted (or
        every shard is exhausted). Equivalent SQL: per-value
        row_number over the ranked list <= cap, ORDER BY rank LIMIT k.
        Returns ``(accepted doc ids (rank order), their rounded
        scores, {doc_id: {field: value}})`` — the shared walk behind
        the diversified sampler (cap = N) and field collapsing
        (cap = 1)."""
        fetch = 4 * k + 64
        while True:
            head, sc, done = self._closed_prefix(plan, fetch)
            # gather the stored path alongside the diversify value so
            # callers that surface hits (collapse) need no second fan-out
            vals = {
                d: v
                for p in self._fanout(
                    plan, "metrics_for_docs", head,
                    list(dict.fromkeys([field, "path"])),
                )
                for d, v in p.items()
            } if len(head) else {}
            seen: dict = {}
            accepted: list[int] = []
            acc_sc: list[float] = []
            for d, s_ in zip(head, sc):
                v = vals[int(d)][field]
                c = seen.get(v, 0)
                if c < cap:
                    seen[v] = c + 1
                    accepted.append(int(d))
                    acc_sc.append(float(s_))
                if len(accepted) == k:
                    break
            if len(accepted) == k or done:
                return (
                    np.asarray(accepted, dtype=np.uint64),
                    np.asarray(acc_sc, dtype=np.float64),
                    vals,
                )
            fetch *= 4

    def search_collapse(
        self, query: str, field: str = "lang", k: int = 10
    ) -> list[dict]:
        """FIELD COLLAPSING (the ES ``collapse`` search option): the
        ranked hit list de-duplicated by ``field`` — only the BEST hit
        of each field value surfaces, and the result is the top-``k``
        of those group winners in rank order ("best doc per
        language"). Exactly the diversified walk with cap = 1, so the
        same prefix-closure rule makes the cut exact under the shared
        rounded-score ranking. Returns ``[{"doc_id", "path", "score",
        field}, ...]`` in rank order."""
        plan = self._plan([query], query + "\x00#collapse:" + field)
        docs, sc, vals = self._diversified_cut(plan, int(k), field, 1)
        return [
            {
                "doc_id": int(d),
                "path": vals[int(d)]["path"],
                "score": float(s_),
                field: vals[int(d)][field],
            }
            for d, s_ in zip(docs, sc)
        ]

    def search_boxplot(
        self, query: str, field: str = "dl_content"
    ) -> dict:
        """BOXPLOT aggregation (ES ``boxplot``) over a numeric fast
        field of the full match set: min, q1, q2 (median), q3, max and
        IQR — EXACT where ES documents TDigest: the quartiles come from
        the shards' merged VALUE -> COUNT maps under the shared
        discrete-quantile rule (the ceil(q*n)-th smallest, 1-indexed —
        the same double multiply + ceil the percentiles oracle
        replicates over a row_number ranking), min/max from exact-int
        stats. ONE fan-out: both reductions ride the multi-agg pass, so
        the shards evaluate the match set once. All-integer output."""
        res = self.search_aggregate_multi(
            query,
            {
                "pct": {
                    "kind": "percentiles", "field": field,
                    "qs": (0.25, 0.5, 0.75),
                },
                "st": {"kind": "stats", "field": field},
            },
        )
        p, st = res["pct"], res["st"]
        q1 = p["percentiles"][0.25]
        q2 = p["percentiles"][0.5]
        q3 = p["percentiles"][0.75]
        return {
            "count": p["count"],
            "min": st["min"],
            "q1": q1,
            "q2": q2,
            "q3": q3,
            "max": st["max"],
            "iqr": (q3 - q1) if q1 is not None else None,
        }

    def search_top_metrics(
        self, query: str, sort_field: str = "dl_content",
        metric_fields: tuple = ("n_bytes",), k: int = 10,
        ascending: bool = False,
    ) -> list[dict]:
        """TOP-METRICS aggregation (ES ``top_metrics``): the metric
        values carried by the ``k`` match-set docs with the largest
        (or smallest) ``sort_field`` — "what are the byte sizes of the
        10 longest matching docs?" without a second query. Two int-only
        fan-outs: the existing sort-by-field top-k cut (exact
        (value, doc_id asc) total order, O(shards*k) merge) then one
        ``metrics_for_docs`` gather over exactly those k ids. Returns
        ``[{"doc_id", "sort_value", <metric>: ...}, ...]`` in rank
        order — every value an exact int, so the SQL oracle is a plain
        ORDER BY ... LIMIT join."""
        plan = self._plan([query], query)
        res = self._sort_by_field(plan, sort_field, k, ascending)
        docs = res["doc_ids"]
        met: dict[int, dict] = {}
        for p in self._fanout(
            plan, "metrics_for_docs", docs, list(metric_fields)
        ):
            met.update(p)
        return [
            {
                "doc_id": int(d),
                "path": str(pth),
                "sort_value": int(v),
                **met[int(d)],
            }
            for d, pth, v in zip(docs, res["paths"], res["values"])
        ]

    def search_string_stats(
        self, query: str, field: str = "lang"
    ) -> dict:
        """STRING-STATS aggregation (ES ``string_stats``) over a
        keyword metadata field of the full match set: value count,
        min/max/avg length, and the Shannon entropy (log2) of the
        character distribution across all matched values. Shards ship
        the same exact-int per-value doc counts the significant-terms
        foreground uses (O(cardinality) integers); all float math
        happens once driver-side — avg_length is one IEEE divide of
        exact ints, entropy accumulates the per-character
        ``-(p * log2 p)`` terms in sorted character order, so a SQL
        oracle reproduces both doubles to the shared 4dp rounding."""
        import math

        plan = self._plan([query], query + "\x00#strstats")
        fg = self._sum_counts(
            p["fg"]
            for p in self._fanout(plan, "query_significant", plan.tree, field)
        )
        count = sum(fg.values())
        if not count:
            return {
                "count": 0, "min_length": None, "max_length": None,
                "avg_length": None, "entropy": None,
            }
        total_len = sum(len(v) * c for v, c in fg.items())
        chars: dict[str, int] = {}
        for v, c in fg.items():
            for ch in v:
                chars[ch] = chars.get(ch, 0) + c
        ent = 0.0
        for ch in sorted(chars):
            pr = chars[ch] / total_len
            ent -= pr * math.log2(pr)
        return {
            "count": count,
            "min_length": min(len(v) for v in fg),
            "max_length": max(len(v) for v in fg),
            "avg_length": float(total_len) / float(count),
            "entropy": ent,
        }

    def search_facet_stats(
        self, query: str, facet_field: str = "lang",
        value_field: str = "dl_content",
    ) -> dict:
        """Per-facet-bucket stats of a numeric fast field over the full
        match set (ES terms + nested stats sub-aggregation). Shards
        return O(distinct values) exact-int rows; the merge is
        associative (sum count/sum, min min, max max) with avg derived
        once — no float drift. Returns
        ``{facet: {count, min, max, sum, avg}}``."""
        plan = self._plan([query], query)
        parts = self._fanout(
            plan, "query_facet_stats", plan.tree, facet_field, value_field
        )
        per: dict[str, list] = {}
        for p in parts:
            for v, (c, mn, mx, sm) in p.items():
                per.setdefault(v, []).append(
                    {"count": c, "min": mn, "max": mx, "sum": sm}
                )
        return {
            v: self._merge_agg({"kind": "stats"}, ps)
            for v, ps in per.items()
        }

    def search_top_hits(
        self, query: str, facet_field: str = "lang", top_k: int = 3
    ) -> dict:
        """Per-facet-bucket top-k over the full match set (the ES
        ``terms`` + ``top_hits`` composite): each shard returns its
        local per-bucket top-k, the driver merges per bucket — traffic
        is O(shards * distinct values * k). Returns
        ``{facet: (doc_ids, scores, paths)}`` sorted (score desc,
        doc_id asc) within each bucket; ``paths`` is the stored ``path``
        metadata per hit."""
        plan = self._plan([query], query)
        parts = self._fanout(
            plan, "query_bucket_topk", plan.tree, facet_field, top_k
        )
        merged: dict[str, list] = {}
        for p in parts:
            for v, chunk in p.items():
                merged.setdefault(v, []).append(chunk)
        out = {}
        for v, chunks in merged.items():
            d, s, pth = self._concat(chunks, (0, 1, 2)).values()
            order = np.lexsort((d, -s.astype(np.float64)))[:top_k]
            out[v] = (d[order], s[order], pth[order])
        return out

    def select_like_terms(
        self,
        text: str,
        max_query_terms: int = 25,
        min_term_freq: int = 1,
        min_doc_freq: int = 2,
    ) -> list[str]:
        """MORE-LIKE-THIS term selection (the tantivy/Lucene
        MoreLikeThisQuery shape): tokenize ``text`` with the index
        analyzer, keep terms with tf >= min_term_freq and LIVE global
        df >= min_doc_freq, rank by tf * idf(df) (the engine's own BM25
        idf — deterministic, SQL-replicable) descending with term-asc
        tiebreak, and return the top ``max_query_terms``. dfs come from
        the shards' exact live counts (one int-only fan-out), so
        selection respects deletions/epochs like scoring does."""
        return self._like_terms(
            self._plan([], f"#mlt:{text}"), text, max_query_terms,
            min_term_freq, min_doc_freq,
        )

    def _like_terms(
        self, plan: _Plan, text: str, max_query_terms: int,
        min_term_freq: int, min_doc_freq: int,
    ) -> list[str]:
        toks = tokenize_text(text)
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        cand = sorted(t for t, c in tf.items() if c >= min_term_freq)
        if not cand:
            return []
        fid = FIELD_IDS["content"]
        dfs = self._global_dfs([(fid, t) for t in cand], plan)
        n_docs = self.manifest["num_docs"]
        scored = [
            (float(tf[t]) * float(scoring.idf(df, n_docs, np.float64)), t)
            for t in cand
            if (df := dfs[(fid, t)]) >= min_doc_freq
        ]
        scored.sort(key=lambda p: (-p[0], p[1]))
        return [t for _, t in scored[:max_query_terms]]

    def more_like_this(
        self,
        text: str,
        top_k: int | None = None,
        max_query_terms: int = 25,
        min_term_freq: int = 1,
        min_doc_freq: int = 2,
        with_metadata: bool = True,
    ):
        """Find documents similar to ``text``: MLT term selection, then
        one ordinary BM25 SHOULD-disjunction search over the selected
        terms — so scoring, pruning, sharding and metadata behave exactly
        like ``search`` (the rewrite is transparent: the query string IS
        the selected terms)."""
        plan = self._plan([], f"#mlt:{text}")
        terms = self._like_terms(
            plan, text, max_query_terms, min_term_freq, min_doc_freq
        )
        return self._search_frame(
            self._prepare([" ".join(terms)], plan.replica),
            top_k if top_k is not None else 100,
            with_metadata=with_metadata,
        )

    def close(self):
        for rep in (self.replicas or [self.shards]):
            for s in rep:
                ray.kill(s)
        self.shards = []
        self.replicas = []
