"""Independent reference computations the benchmark checks sidkit against.

Nothing here imports sidkit: each function restates a documented contract
(lenient BIO spans, span matching, greedy WordPiece, average-tie ranks, the
normalization fixpoint, MAV) in the most direct form.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

CONSONANTS = frozenset("bcdfghjklmnpqrstvwxz")


def round_half_up(fraction: float, n: int) -> int:
    """floor(f*n + 1/2) in exact arithmetic, as the noise model specifies."""
    return math.floor(Fraction(str(fraction)) * n + Fraction(1, 2))


# ---------------------------------------------------------------------------
# Corpus files
# ---------------------------------------------------------------------------


def parse_conll(text: str) -> list[dict]:
    """Blocks of '# key: value' comments and token<TAB>tag lines."""
    utterances = []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        u: dict = {"tokens": [], "tags": []}
        for line in block.strip("\n").split("\n"):
            if line.startswith("# "):
                key, _, value = line[2:].partition(":")
                u[key.strip()] = value.strip()
            else:
                token, tag = line.split("\t")[:2]
                u["tokens"].append(token)
                u["tags"].append(tag)
        utterances.append(u)
    return utterances


def scan_bio(tags: list[str]) -> tuple[list[tuple[int, int, str]], Counter]:
    """Lenient spans and violation counts by kind.

    A violating I-X opens a new span; a malformed tag closes the open span
    and otherwise counts as O.
    """
    spans: list[tuple[int, int, str]] = []
    kinds: Counter = Counter()
    start, label = None, None
    for i, tag in enumerate(tags):
        bi = len(tag) > 2 and tag[0] in "BI" and tag[1] == "-"
        if bi and tag[0] == "I" and label == tag[2:]:
            continue
        if bi and tag[0] == "I":
            kinds["I-without-B" if label is None else "I-label-mismatch"] += 1
        elif not bi and tag != "O":
            kinds["malformed-tag"] += 1
        if start is not None:
            spans.append((start, i, label))
        start, label = (i, tag[2:]) if bi else (None, None)
    if start is not None:
        spans.append((start, len(tags), label))
    return spans, kinds


def _sweep(preds: list[tuple], golds: list[tuple]) -> int:
    """Maximum matching between two start-sorted lists of disjoint intervals
    under "shares a token": matching the first overlapping pair is always
    part of some maximum matching."""
    i = j = matched = 0
    while i < len(preds) and j < len(golds):
        p, g = preds[i], golds[j]
        if p[0] < g[1] and g[0] < p[1]:
            matched += 1
            i += 1
            j += 1
        elif p[1] <= g[1]:
            i += 1
        else:
            j += 1
    return matched


def match(preds: list[tuple], golds: list[tuple], mode: str) -> int:
    if mode == "strict":
        return len(set(preds) & set(golds))
    if mode == "unlabelled":
        return len({p[:2] for p in preds} & {g[:2] for g in golds})
    if mode == "loose-unlabelled":
        return _sweep(preds, golds)
    labels = {p[2] for p in preds} & {g[2] for g in golds}
    return sum(
        _sweep([p for p in preds if p[2] == lab], [g for g in golds if g[2] == lab]) for lab in labels
    )


def span_counts(gold: list[dict], pred: list[dict], modes: tuple[str, ...]) -> dict:
    """{group: {"utterances", "intent_matches", mode: (matched, predicted, gold)}}
    with the whole corpus under "all" and each gold variety under its name."""
    pred_by_id = {p["id"]: p for p in pred}
    out: dict = {}
    for g in gold:
        p = pred_by_id[g["id"]]
        gs, _ = scan_bio(g["tags"])
        ps, _ = scan_bio(p["tags"])
        for group in ("all", g.get("variety") or "unknown"):
            acc = out.setdefault(group, {"utterances": 0, "intent_matches": 0})
            acc["utterances"] += 1
            acc["intent_matches"] += g["intent"] == p["intent"]
            for mode in modes:
                m, np_, ng = acc.get(mode, (0, 0, 0))
                acc[mode] = (m + match(ps, gs, mode), np_ + len(ps), ng + len(gs))
    return out


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------


def rule3_pending(token: str) -> bool:
    """True if the doubled-consonant rule would still rewrite the token."""
    low = token.lower()
    for i in range(len(low) - 2):
        a, b, c = low[i], low[i + 1], low[i + 2]
        if a in CONSONANTS and a == b and c in CONSONANTS:
            if low[i : i + 4] in ("ssjt", "ssjk") or low[i : i + 3] not in ("ssj", "kkj"):
                return True
    return False


def normalized_fixpoint(token: str) -> bool:
    """No rule applies any more: no thick L, no apostrophe, no C1C1C2."""
    return "L" not in token and "'" not in token and "’" not in token and not rule3_pending(token)


def wordpiece_pieces(vocab: set[str], word: str) -> int:
    """Greedy longest-match pieces of a word; 0 when it is unsegmentable."""
    start, pieces = 0, 0
    while start < len(word):
        end = len(word)
        while end > start and (word[start:end] if start == 0 else "##" + word[start:end]) not in vocab:
            end -= 1
        if end == start:
            return 0
        pieces += 1
        start = end
    return pieces


def split_ratio(vocab: set[str], words: list[str]) -> float:
    return sum(wordpiece_pieces(vocab, w) != 1 for w in words) / len(words)


def pearson(x: list[float], y: list[float]) -> float:
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def ranks(values: list[float]) -> list[float]:
    """1-based ranks, ties sharing the mean rank."""
    return [
        sum(v < w for w in values) + (sum(v == w for w in values) + 1) / 2 for v in values
    ]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def tensor_group(name: str) -> str:
    """MAV group key of a tensor under sidkit's default naming scheme."""
    if name.startswith("embeddings."):
        return "embeddings"
    if name.startswith("classifier."):
        return "heads"
    if name.startswith("encoder.layer."):
        return "layer " + name.split(".")[2]
    return "other"


def mav(path_a, path_b, data_start: int, offsets: dict) -> tuple[dict, dict, float]:
    """Per-group mean |a - b|, per-group counts and the population variance
    of a - b, from F16 data in float64 (two-pass variance)."""
    import numpy as np

    a = np.memmap(path_a, dtype="<f2", mode="r", offset=data_start)
    b = np.memmap(path_b, dtype="<f2", mode="r", offset=data_start)
    sums: dict = {}
    counts: dict = {}
    total = 0.0
    for name, (begin, end) in offsets.items():
        d = a[begin // 2 : end // 2].astype(np.float64) - b[begin // 2 : end // 2].astype(np.float64)
        key = tensor_group(name)
        sums[key] = sums.get(key, 0.0) + float(np.abs(d).sum())
        counts[key] = counts.get(key, 0) + d.size
        total += float(d.sum())
    n = sum(counts.values())
    mean = total / n
    sq = 0.0
    for begin, end in offsets.values():
        d = a[begin // 2 : end // 2].astype(np.float64) - b[begin // 2 : end // 2].astype(np.float64)
        sq += float(((d - mean) ** 2).sum())
    return {k: sums[k] / counts[k] for k in sums}, counts, sq / n
