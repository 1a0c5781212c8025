"""Seeded inputs of the benchmark: corpus, query streams and edit batches.

Everything here is a pure function of the seed, so two runs with the same
``--seed`` send the engine identical inputs. Nothing here touches Ray.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ck_ray.corpus import CAMEL_IDS, HOT_TERMS, MID_TERMS, PKGS, SNAKE_IDS, generate_corpus

N_FILES = 2000  # generate_corpus adds 6 edge rows on top
TOP_K = 10
# Assumed traffic values; no measured query log of this engine exists.
# NOTES.md lists which values are assumed and where the others come from.
BATCH_QUERIES = 16
BATCH_SHARE = 0.05  # search_many batches of BATCH_QUERIES queries
AGG_SHARE = 0.10  # dashboard aggregations, about 1 request in 10
ZIPF_S = 1.0  # classic Zipf exponent
# 1% of the corpus per update, the share of 200 edited files in 20,006
EDIT_FILES = (N_FILES + 6) // 100

# Query shape families of bench.py's suite, by Zipf rank: the order in which
# the suite first uses each shape, so the cheap single-term shapes are the
# most frequent and the dictionary-scan shapes the rarest. The family is a
# Zipf draw over these ranks, and the query a uniform draw from the family's
# catalogue: a Zipf draw there made a few queries of each family stand for
# it, and how costly those few were varied with the seed.
FAMILIES = ("term", "or", "path", "rare", "phrase", "sloppy", "prefix",
            "phrase_prefix", "fuzzy", "regex")
PER_FAMILY = 40
# The shapes whose plan expands over the term dictionary: the costliest
# ones, which ``expand_query_p50_ms`` follows.
EXPAND_FAMILIES = ("prefix", "phrase_prefix", "fuzzy", "regex")
AGG_SPECS = (
    ("facets", "lang"),
    ("aggregate", {"kind": "histogram", "field": "n_bytes", "interval": 256}),
    ("aggregate", {"kind": "stats", "field": "dl_content"}),
)


def corpus(seed: int, n_files: int = N_FILES) -> pa.Table:
    return generate_corpus(n_files, seed)


def content_bytes(table: pa.Table) -> int:
    return int(pc.sum(pc.binary_length(table["content"])).as_py() or 0)


def _marker(n: int) -> str:
    return f"uq{n:07d}marker"


def _typo(rng: np.random.RandomState, word: str) -> str:
    """One substitution inside the word, so ``word~1`` matches it again."""
    i = int(rng.randint(1, len(word) - 1))
    c = "z" if word[i] != "z" else "y"
    return word[:i] + c + word[i + 1:]


def _query(family: str, rng: np.random.RandomState, n_files: int,
           fresh: int | None = None) -> str:
    """One query of ``family``. ``fresh`` is a file number whose marker and
    file name no earlier query used; families that can, build on it."""
    pick = lambda seq: seq[int(rng.randint(len(seq)))]  # noqa: E731
    word = lambda: pick(HOT_TERMS + MID_TERMS)  # noqa: E731
    n = int(rng.randint(n_files)) if fresh is None else fresh
    if family == "term":
        return _marker(n) if fresh is not None else pick(
            MID_TERMS + [c.lower() for c in CAMEL_IDS]
        )
    if family == "or":
        words = [word() for _ in range(int(rng.randint(2, 4)))]
        if fresh is not None:
            words[0] = _marker(n)
        return " ".join(words)
    if family == "phrase":
        return '"' + pick(SNAKE_IDS).replace("_", " ") + '"'
    if family == "sloppy":
        return f'"{pick(HOT_TERMS)} {pick(MID_TERMS)}"~{int(rng.randint(1, 4))}'
    if family == "prefix":
        if fresh is not None:
            return f"uq{n // 10:06d}*"
        return pick(MID_TERMS)[: int(rng.randint(3, 5))] + "*"
    if family == "phrase_prefix":
        return f'"{pick(HOT_TERMS)} {pick(MID_TERMS)[:2]}"*'
    if family == "fuzzy":
        if fresh is not None:
            return _typo(rng, _marker(n)) + "~1"
        return _typo(rng, pick(MID_TERMS + [c.lower() for c in CAMEL_IDS])) + "~1"
    if family == "regex":
        if fresh is not None:
            return f"/uq{n // 10:06d}[0-9]marker/"
        w = pick(MID_TERMS + [c.lower() for c in CAMEL_IDS])
        return f"/{w[:3]}[a-z]*{w[-2:]}/"
    if family == "path":
        if fresh is not None:
            return f"path:file{n:06d}"
        return "path:" + pick(PKGS)
    if family == "rare":
        return _marker(n)
    raise ValueError(f"unknown query family {family!r}")


def _zipf(n: int) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_S
    return ranks / ranks.sum()


class OpStream:
    """Closed-loop request stream.

    ``next_op()`` draws the warm serving mix: a Zipf-ranked family, then
    one of its ``PER_FAMILY`` catalogue queries. ``next_op(fresh=True)``
    draws the update workload's mix: every family that can takes a
    file number no earlier query used, so most terms miss the shard cache.

    Each op is ``("search", family, query)``, ``("agg", kind, arg, query)``
    or ``("batch", [queries])``.
    """

    def __init__(self, seed: int, n_files: int = N_FILES):
        self.rng = np.random.RandomState(seed)
        self.n_files = n_files
        self.catalogue = {
            f: [_query(f, self.rng, n_files) for _ in range(PER_FAMILY)]
            for f in FAMILIES
        }
        self._fam_p = _zipf(len(FAMILIES))
        self._unseen = iter(self.rng.permutation(n_files).tolist())

    def _hot(self) -> tuple[str, str]:
        fam = FAMILIES[int(self.rng.choice(len(FAMILIES), p=self._fam_p))]
        return fam, self.catalogue[fam][int(self.rng.randint(PER_FAMILY))]

    def _fresh(self, fam: str | None = None) -> tuple[str, str]:
        if fam is None:
            fam = FAMILIES[int(self.rng.choice(len(FAMILIES), p=self._fam_p))]
        if fam in ("phrase", "sloppy", "phrase_prefix"):
            return fam, self.catalogue[fam][int(self.rng.randint(PER_FAMILY))]
        n = next(self._unseen, None)
        if n is None:  # every file used: start over on a new permutation
            self._unseen = iter(self.rng.permutation(self.n_files).tolist())
            n = next(self._unseen)
        return fam, _query(fam, self.rng, self.n_files, fresh=n)

    def next_op(self, fresh: bool = False) -> tuple:
        draw = self._fresh if fresh else self._hot
        u = self.rng.rand()
        if u < AGG_SHARE:
            kind, arg = AGG_SPECS[int(self.rng.randint(len(AGG_SPECS)))]
            # always a term query, so aggregation latency does not depend
            # on which query shape was drawn
            q = self._fresh("term")[1] if fresh else self.catalogue["term"][
                int(self.rng.randint(PER_FAMILY))]
            return ("agg", kind, arg, q)
        if u < AGG_SHARE + BATCH_SHARE:
            return ("batch", [draw()[1] for _ in range(BATCH_QUERIES)])
        fam, q = draw()
        return ("search", fam, q)

    def probe_queries(self) -> list[tuple[str, str]]:
        """The first catalogue query of every family."""
        return [(f, self.catalogue[f][0]) for f in FAMILIES]


def edit_token(seed: int, cycle: int) -> str:
    """A token that occurs nowhere in any generated corpus."""
    return f"edtok{seed}x{cycle}"


def edit_batch(base: pa.Table, seed: int, cycle: int,
               n_edit: int = EDIT_FILES) -> tuple[str, np.ndarray, pa.Table]:
    """``n_edit`` rows of ``base`` with a fresh token appended to content.
    Returns (token, row numbers in ``base``, edited rows); doc identity
    (repo, path, commit) is unchanged, so an additive incremental update
    supersedes those docs."""
    rng = np.random.RandomState([seed, cycle])
    rows = np.sort(rng.choice(base.num_rows, size=n_edit, replace=False))
    sub = base.take(pa.array(rows))
    token = edit_token(seed, cycle)
    content = pc.binary_join_element_wise(
        sub["content"], pa.array([f"\n// {token}\n"] * n_edit), ""
    )
    return token, rows, sub.set_column(
        sub.schema.get_field_index("content"), "content", content
    )
