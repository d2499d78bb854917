"""Seeded workload generator and ground truth for the dedup benchmark.

Every corpus is written as Parquet in the transcript input schema
(``conv_id, turn_idx, role, text, tool, ts``); the program under test
receives only those files. The truth is derived from the generator's own
family structure, never from the program:

- corpus words are vocabulary words (normalised once through the engine's
  frozen tokenizer) or generated tokens that end in a digit, which the
  tokenizer leaves unchanged. A document's token stream is therefore
  known without tokenizing it, and its shingle set is the set of its
  3-word windows;
- duplicate families are groups of 8 rows: members 0-1 are verbatim, and
  member m >= 2 carries m - 1 word edits. Every family carries its own
  salt tokens, so no shingle is shared across families (uniform corpus),
  or only the shingles of one global template (boilerplate families of the
  skewed corpus), which keeps every cross-family Jaccard far below the
  0.8 threshold;
- exact shingle Jaccard is computed for every within-family pair, so the
  true pair set, exact-duplicate representatives and clusters follow.

``perfbench/test_truth.py`` cross-checks this truth against the
brute-force all-pairs oracle in ``testing/oracle.py`` at a small size.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

THRESHOLD = 0.8          # DedupConfig.jaccard_dup_threshold
SHINGLE_WORDS = 3        # DedupConfig.minhash_shingle_words
FAMILY = 8
TURNS_PER_CONV = 12
_EPOCH_US = 1735689600000000
_FORMAT = 2              # bump when a corpus or its truth changes

# Workload sizes, chosen so one pass fits a few seconds on one core.
WORKLOADS = {
    "flagship_dedup": {"families": 1250, "length": (60, 100),
                       "boiler_share": 0.0, "files": 4},
    "hot_bucket_dedup": {"families": 1000, "length": (40, 65),
                         "boiler_share": 0.5, "files": 4,
                         "template_words": 20, "noise_words": 36},
}


# ---------------------------------------------------------------- words --

def _vocabulary() -> tuple[list[str], np.ndarray]:
    """Fixed pseudo-English vocabulary (independent of the seed) and a
    Zipf-like sampling distribution over it."""
    rng = np.random.default_rng(20240601)
    cons = list("bdfgklmnprstvz")
    vow = list("aeiou")
    words: set[str] = set()
    while len(words) < 4000:
        n = int(rng.integers(2, 4))
        words.add("".join(str(rng.choice(cons)) + str(rng.choice(vow))
                          for _ in range(n)))
    vocab = sorted(words)
    p = 1.0 / (np.arange(len(vocab)) + 10.0)
    return vocab, p / p.sum()


_VOCAB, _VOCAB_P = _vocabulary()


@functools.cache
def _norm_map() -> dict[str, str | None]:
    """vocabulary word → its token after the engine's tokenizer (None when
    the tokenizer drops it as a stopword)."""
    from raydedup.textnorm import full_tokenize

    return {w: next(iter(full_tokenize(w)), None) for w in _VOCAB}


def tokens_of(words: list[str]) -> list[str]:
    """The engine tokenizer's output for ``" ".join(words)``: generated
    tokens end in a digit and pass through unchanged."""
    norm = _norm_map()
    out = []
    for w in words:
        t = w if w[-1].isdigit() else norm[w]
        if t is not None:
            out.append(t)
    return out


def shingles_of(tokens: list[str]) -> frozenset:
    w = SHINGLE_WORDS
    if len(tokens) <= w:
        return frozenset([tuple(tokens)]) if tokens else frozenset()
    return frozenset(tuple(tokens[i:i + w])
                     for i in range(len(tokens) - w + 1))


def jaccard(a: frozenset, b: frozenset) -> float:
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def _salted(rng: np.random.Generator, tag: str, n: int) -> list[str]:
    """n vocabulary words with every third word a ``tag``-unique token, so
    every 3-word shingle holds a token no other family uses."""
    body = rng.choice(len(_VOCAB), size=n, p=_VOCAB_P)
    return [f"{tag}p{k}0" if k % 3 == 0 else _VOCAB[int(body[k])]
            for k in range(n)]


def _edit(rng: np.random.Generator, words: list[str], n_edits: int,
          tag: str) -> list[str]:
    w = list(words)
    pos = rng.choice(len(w), size=n_edits, replace=False)
    for e, p in enumerate(pos):
        w[int(p)] = f"ed{tag}x{e}"
    return w


# --------------------------------------------------------- transcripts --

def _transcript_table(texts: list[str], conv_prefix: str,
                      order: np.ndarray) -> tuple[pa.Table, list[str]]:
    """rows in ``order`` → transcript table and the row keys
    (``conv_id:turn_idx``, the engine's row_key) of ``texts`` by index."""
    n = len(texts)
    conv = [""] * n
    turn = np.empty(n, np.int32)
    keys = [""] * n
    for j, i in enumerate(order.tolist()):
        c, t = f"{conv_prefix}{j // TURNS_PER_CONV:06d}", j % TURNS_PER_CONV
        conv[j], turn[j] = c, t
        keys[i] = f"{c}:{t}"
    roles = np.array(["user", "assistant", "tool"], dtype=object)[turn % 3]
    tbl = pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(turn, pa.int32()),
        "role": pa.array(roles.tolist(), pa.string()),
        "text": pa.array([texts[i] for i in order.tolist()], pa.string()),
        "tool": pa.array(np.where(turn % 3 == 2, "search", "").tolist(),
                         pa.string()),
        "ts": pa.array(_EPOCH_US + np.arange(n, dtype=np.int64) * 60_000_000,
                       pa.timestamp("us")),
    })
    return tbl, keys


def _write_files(tbl: pa.Table, out_dir: str, n_files: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-tbl.num_rows // n_files)
    for f in range(n_files):
        pq.write_table(tbl.slice(f * per, per),
                       os.path.join(out_dir, f"part-{f:03d}.parquet"))


def dedup_corpus(seed: int, families: int, boiler_share: float = 0.0,
                 template_words: int = 24, noise_words: int = 12,
                 length: tuple[int, int] = (40, 65)):
    """→ (transcript table, truth dict). Truth: ``rows`` (row_key →
    (rep_key, cluster_id)) and ``pairs`` ((a_key, b_key) → jaccard)."""
    rng = np.random.default_rng(seed)
    template = [f"tw{k}a0" for k in range(template_words)]
    # a fixed number of boilerplate families, whose noise tokens depend on
    # their ordinal only: the hot-bucket structure (and so the LSH load)
    # is the same for every seed; edits and the other families vary
    n_boiler = round(boiler_share * families)
    boiler_of = np.full(families, -1)
    boiler_of[rng.permutation(families)[:n_boiler]] = np.arange(n_boiler)
    texts: list[str] = []
    fam_words: list[list[list[str]]] = []
    for f in range(families):
        b = int(boiler_of[f])
        if b >= 0:
            base = template + [f"n{b}w{j}0" for j in range(noise_words)]
        else:
            base = _salted(rng, f"z{f}", int(rng.integers(*length)))
        members = []
        for m in range(FAMILY):
            words = base if m <= 1 else _edit(rng, base, m - 1, f"{f}m{m}")
            members.append(words)
            texts.append(" ".join(words))
        fam_words.append(members)
    order = rng.permutation(len(texts))
    tbl, keys = _transcript_table(texts, f"c{seed}-", order)

    rows: dict[str, tuple[str, str]] = {}
    pairs: dict[tuple[str, str], float] = {}
    for f, members in enumerate(fam_words):
        mkeys = keys[f * FAMILY:(f + 1) * FAMILY]
        # exact groups by text; representative = min key
        by_text: dict[str, list[str]] = {}
        for words, k in zip(members, mkeys):
            by_text.setdefault(" ".join(words), []).append(k)
        reps = {t: min(ks) for t, ks in by_text.items()}
        rep_sh = {reps[t]: shingles_of(tokens_of(t.split()))
                  for t in by_text}
        parent = {r: r for r in rep_sh}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rk = sorted(rep_sh)
        for i, a in enumerate(rk):
            for b in rk[i + 1:]:
                j = jaccard(rep_sh[a], rep_sh[b])
                if j >= THRESHOLD:
                    pairs[(a, b)] = j
                    ra, rb = find(a), find(b)
                    parent[max(ra, rb)] = min(ra, rb)
        for t, ks in by_text.items():
            cluster = find(reps[t])
            for k in ks:
                rows[k] = (reps[t], cluster)
    # find() roots are component minima because unions keep the min root
    return tbl, {"rows": rows, "pairs": pairs}


# ---------------------------------------------------------------- cache --

def _dump_truth(path: str, truth: dict) -> None:
    """→ {"rows": [[key, rep, cluster]], "pairs": [[a, b, jaccard]]}."""
    with open(path, "w") as fh:
        json.dump({"rows": [[k, *v] for k, v in truth["rows"].items()],
                   "pairs": [[*k, v] for k, v in truth["pairs"].items()]},
                  fh)


def load_truth(path: str):
    with open(path) as fh:
        return json.load(fh)


def materialize(workload: str, seed: int, root: str) -> str:
    """Write the workload's inputs and truth for ``seed`` under ``root``
    once; later calls with the same seed reuse them. Returns the dir."""
    spec = WORKLOADS[workload]
    tag = hashlib.sha256(json.dumps([_FORMAT, spec], sort_keys=True)
                         .encode()).hexdigest()[:8]
    out = os.path.join(root, f"{workload}-s{seed}-{tag}")
    if os.path.exists(os.path.join(out, "done")):
        return out
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    tbl, truth = dedup_corpus(seed, **{k: v for k, v in spec.items()
                                       if k != "files"})
    _write_files(tbl, os.path.join(tmp, "input"), spec["files"])
    _dump_truth(os.path.join(tmp, "truth.json"), truth)
    open(os.path.join(tmp, "done"), "w").close()
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out

