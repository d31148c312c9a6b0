"""Seeded synthetic inputs for the sidkit benchmark.

Every file the program reads is made here from the workload seed alone, so
one seed always gives the same bytes. The text looks like Norwegian dialect
transcription: purely alphabetic words (so noise selects them), doubled
consonants before a consonant, uppercase ``L`` and apostrophes (so every
normalization rule fires), ``<group>-<variety>`` ids (so the grouped split
has groups to keep whole) and a subword vocabulary that covers only the
frequent words (so the split-word ratio is neither 0 nor 1).
"""

from __future__ import annotations

import json
import random
import re
import struct
from pathlib import Path

ONSETS = (
    "b", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v",
    "bl", "br", "dr", "fj", "fl", "fr", "gj", "gr", "hv", "kj", "kl", "kr", "kv",
    "pl", "pr", "sj", "skj", "sk", "sl", "sm", "sn", "sp", "st", "str", "sv", "tr",
)
VOWELS = ("a", "e", "i", "o", "u", "y", "æ", "ø", "å", "ei", "au", "øy")
CODAS = (
    "", "", "", "n", "r", "l", "t", "k", "s", "m", "g", "d", "nd", "ng", "st", "rt",
    "llt", "nnt", "ttn", "kks", "mmt", "ssjt", "ssjk", "kkj", "llm", "ppl", "nnd",
)
VARIETIES = ("north", "west", "trondelag", "east", "south", "bergen", "oslo", "stavanger")
SLOT_LABELS = (
    "datetime", "location", "reminder/todo", "weather/attribute", "reference",
    "recurring_datetime", "negation", "alarm/alarm_modifier", "condition_temperature",
    "condition_description", "timer/attributes", "music_item", "artist", "playlist",
)
INTENTS = (
    "alarm/set_alarm", "alarm/cancel_alarm", "alarm/show_alarms", "reminder/set_reminder",
    "reminder/show_reminders", "reminder/cancel_reminder", "weather/find", "timer/set_timer",
    "music/play", "music/pause", "general/greet", "general/thanks",
)
LEXICON_SIZE = 4000
NOISE_FRACTIONS = (0.1, 0.2, 0.3)

# Corpus sizes: a few seconds of work per pass on a 2-core machine.
SCORE_UTTERANCES = 4000
SWEEP_UTTERANCES = 3000
SWEEP_TRANSCRIPT_LINES = 3000

# A 12-layer BERT-style encoder with MiniLM-L12-H384 shapes (BERT-base
# names, layer count and vocabulary; hidden 384), stored as F16: about 33M
# parameters, 67 MB per file. BERT-base (219 MB) made one surgery run take
# about a minute, too long for the benchmark's run budget.
LAYERS, HIDDEN, FFN, VOCAB, POSITIONS, LABELS = 12, 384, 1536, 30522, 512, 3
CHECKPOINT_METADATA = {"format": "pt", "origin": "sidkit-bench"}


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------


class Language:
    """A seeded lexicon with Zipf-like word frequencies."""

    def __init__(self, rng: random.Random) -> None:
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < LEXICON_SIZE:
            word = "".join(
                rng.choice(ONSETS) + rng.choice(VOWELS) + rng.choice(CODAS)
                for _ in range(rng.choice((1, 1, 2, 2, 2, 3)))
            )
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        total, cum = 0.0, []
        for rank in range(len(words)):
            total += 1.0 / (rank + 1)
            cum.append(total)
        self.cum_weights = cum

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=k)


def _token(lang: Language, rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.03:
        return str(rng.randint(1, 2400))  # never noised: not alphabetic
    if roll < 0.05:
        return "kl" + str(rng.randint(1, 12))
    word = lang.sample(rng, 1)[0]
    if "l" in word and rng.random() < 0.15:
        word = word.replace("l", "L", 1)  # thick-l transcription symbol
    return word


def _bio_tags(rng: random.Random, n: int) -> list[str]:
    """A well-formed, dense BIO sequence."""
    tags: list[str] = []
    label = None
    for _ in range(n):
        roll = rng.random()
        if label is not None and roll < 0.45:
            tags.append("I-" + label)
        elif roll < 0.80:
            label = rng.choice(SLOT_LABELS)
            tags.append("B-" + label)
        else:
            label = None
            tags.append("O")
    return tags


def make_corpus(lang: Language, rng: random.Random, size: int) -> list[dict]:
    """Utterances grouped by source sentence, one per variety in the group."""
    utterances: list[dict] = []
    group = 0
    while len(utterances) < size:
        for variety in rng.sample(VARIETIES, rng.randint(1, len(VARIETIES))):
            n = rng.randint(3, 30)
            tokens = [_token(lang, rng) for _ in range(n)]
            utterances.append({
                "id": f"g{group}-{variety}",
                "intent": rng.choice(INTENTS),
                "variety": variety,
                "tokens": tokens,
                "tags": _bio_tags(rng, n),
            })
        group += 1
    return utterances[:size]


def _lenient_spans(tags: list[str]) -> list[tuple[int, int, str]]:
    spans, start, label = [], None, None
    for i, tag in enumerate(tags + ["O"]):
        if tag.startswith("I-") and label == tag[2:]:
            continue
        if start is not None:
            spans.append((start, i, label))
        start, label = (i, tag[2:]) if tag[:2] in ("B-", "I-") else (None, None)
    return spans


def perturb(utt: dict, rng: random.Random) -> dict:
    """A prediction: boundary shifts, label swaps, drops, stray I- tags."""
    n = len(utt["tokens"])
    spans = []
    for start, end, label in _lenient_spans(utt["tags"]):
        roll = rng.random()
        if roll < 0.08:
            continue
        if roll < 0.18:
            label = rng.choice(SLOT_LABELS)
        elif roll < 0.32:
            if rng.random() < 0.5:
                start = min(max(0, start + rng.choice((-1, 1))), n - 1)
            else:
                end = min(n, end + rng.choice((-1, 1)))
            if end <= start:
                end = start + 1
        spans.append((start, end, label))
    tags = ["O"] * n
    for start, end, label in sorted(spans):
        if any(t != "O" for t in tags[start:end]):
            continue  # a shifted span ran into its neighbour; keep the first
        tags[start:end] = ["B-" + label] + ["I-" + label] * (end - start - 1)
    for i in range(n):
        roll = rng.random()
        if roll < 0.02 and tags[i] == "O":
            tags[i] = "I-" + rng.choice(SLOT_LABELS)  # I-without-B
        elif roll < 0.03 and tags[i].startswith("I-"):
            tags[i] = "I-" + rng.choice(SLOT_LABELS)  # usually I-label-mismatch
        elif roll < 0.035:
            tags[i] = "b-" + rng.choice(SLOT_LABELS)  # malformed
    intent = utt["intent"] if rng.random() < 0.85 else rng.choice(INTENTS)
    return dict(utt, tags=tags, intent=intent)


def conll(utterances: list[dict]) -> str:
    blocks = []
    for u in utterances:
        lines = [
            f"# id: {u['id']}",
            f"# text: {' '.join(u['tokens'])}",
            f"# intent: {u['intent']}",
            f"# variety: {u['variety']}",
        ]
        lines.extend(f"{tok}\t{tag}" for tok, tag in zip(u["tokens"], u["tags"]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def transcript(lang: Language, rng: random.Random, lines: int) -> str:
    """Dialect transcription: thick L, syllabic apostrophes, long clusters."""
    out = []
    for _ in range(lines):
        words = []
        for word in lang.sample(rng, rng.randint(4, 24)):
            roll = rng.random()
            if roll < 0.15:
                word = word.replace("l", "L")
            elif roll < 0.25 and len(word) > 2:
                word = word[:-1] + "'" + word[-1]
            if rng.random() < 0.05:
                word = word.capitalize()
            words.append(word)
        out.append(" ".join(words))
    return "\n".join(out) + "\n"


def vocab(lang: Language) -> str:
    """Frequent whole words, every onset, and continuation letters.

    Letters outside the lexicon (digits, letters noise draws from the
    normalized transcript) have no continuation piece, so some words come
    out as the unknown token.
    """
    letters = sorted({ch for w in lang.words for ch in w.lower()})
    pieces = ["[UNK]"] + lang.words[: LEXICON_SIZE // 5] + sorted(set(ONSETS) | set(VOWELS))
    pieces += ["##" + ch for ch in letters if ch not in "yå"]
    pieces += ["##" + v for v in VOWELS] + ["##" + c for c in CODAS if c]
    return "\n".join(dict.fromkeys(pieces)) + "\n"


def correlation_table(rng: random.Random) -> str:
    """Nine settings of (ratio difference, accuracy), negatively related."""
    rows = ["setting\tratio_difference\taccuracy"]
    for i in range(9):
        diff = 0.01 * (i + 1) + rng.uniform(0.0, 0.004)
        rows.append(f"s{i}\t{diff:.6f}\t{0.9 - 2.5 * diff + rng.uniform(-0.05, 0.05):.6f}")
    return "\n".join(rows) + "\n"


def write_score(root: Path, seed: int) -> dict:
    rng = random.Random(f"score:{seed}")
    gold = make_corpus(Language(rng), rng, SCORE_UTTERANCES)
    pred = [perturb(u, rng) for u in gold]
    (root / "gold.conll").write_text(conll(gold), encoding="utf-8")
    (root / "pred.conll").write_text(conll(pred), encoding="utf-8")
    return {"gold": gold, "pred": pred}


def write_sweep(root: Path, seed: int) -> dict:
    rng = random.Random(f"text-sweep:{seed}")
    lang = Language(rng)
    corpus = make_corpus(lang, rng, SWEEP_UTTERANCES)
    (root / "corpus.conll").write_text(conll(corpus), encoding="utf-8")
    (root / "transcript.txt").write_text(transcript(lang, rng, SWEEP_TRANSCRIPT_LINES), encoding="utf-8")
    (root / "vocab.txt").write_text(vocab(lang), encoding="utf-8")
    (root / "table.tsv").write_text(correlation_table(rng), encoding="utf-8")
    return {"corpus": corpus}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_layout() -> list[tuple[str, tuple[int, ...]]]:
    """BERT-style tensor names and shapes, sorted as a canonical file stores them."""
    specs = [
        ("embeddings.word_embeddings.weight", (VOCAB, HIDDEN)),
        ("embeddings.position_embeddings.weight", (POSITIONS, HIDDEN)),
        ("embeddings.token_type_embeddings.weight", (2, HIDDEN)),
        ("embeddings.LayerNorm.weight", (HIDDEN,)),
        ("embeddings.LayerNorm.bias", (HIDDEN,)),
        ("pooler.dense.weight", (HIDDEN, HIDDEN)),
        ("pooler.dense.bias", (HIDDEN,)),
        ("classifier.weight", (LABELS, HIDDEN)),
        ("classifier.bias", (LABELS,)),
    ]
    for i in range(LAYERS):
        p = f"encoder.layer.{i}."
        for proj in ("query", "key", "value"):
            specs += [(p + f"attention.self.{proj}.weight", (HIDDEN, HIDDEN)),
                      (p + f"attention.self.{proj}.bias", (HIDDEN,))]
        specs += [
            (p + "attention.output.dense.weight", (HIDDEN, HIDDEN)),
            (p + "attention.output.dense.bias", (HIDDEN,)),
            (p + "attention.output.LayerNorm.weight", (HIDDEN,)),
            (p + "attention.output.LayerNorm.bias", (HIDDEN,)),
            (p + "intermediate.dense.weight", (FFN, HIDDEN)),
            (p + "intermediate.dense.bias", (FFN,)),
            (p + "output.dense.weight", (HIDDEN, FFN)),
            (p + "output.dense.bias", (HIDDEN,)),
            (p + "output.LayerNorm.weight", (HIDDEN,)),
            (p + "output.LayerNorm.bias", (HIDDEN,)),
        ]
    return sorted(specs)


def checkpoint_header(layout: list[tuple[str, tuple[int, ...]]]) -> tuple[bytes, dict]:
    """Canonical F16 header bytes (length prefix included) and the offsets."""
    header: dict = {"__metadata__": dict(sorted(CHECKPOINT_METADATA.items()))}
    offsets, offset = {}, 0
    for name, shape in layout:
        size = 2
        for dim in shape:
            size *= dim
        offsets[name] = (offset, offset + size)
        header[name] = {"dtype": "F16", "shape": list(shape), "data_offsets": [offset, offset + size]}
        offset += size
    raw = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw, offsets


def write_surgery(root: Path, seed: int) -> dict:
    """A pretrained checkpoint and a fine-tuned one a small step away from it.

    Values are drawn as F16 bit patterns (sign, exponent 8..11, random
    mantissa; magnitudes 0.008 to 0.25), which is several times faster than
    drawing normals. The fine-tuned copy flips low mantissa bits, more of
    them in later layers, so every MAV group differs.
    """
    import numpy as np

    layout = checkpoint_layout()
    header, offsets = checkpoint_header(layout)
    rng = np.random.default_rng(seed % 2**64)  # numpy takes no negative seed
    with open(root / "pretrained.safetensors", "wb") as fb, open(root / "finetuned.safetensors", "wb") as fa:
        fb.write(header)
        fa.write(header)
        for name, shape in layout:
            base = (rng.integers(0, 1 << 16, shape, dtype=np.uint16) & 0x8FFF) | 0x2000
            layer = re.match(r"encoder\.layer\.(\d+)\.", name)
            mask = (1 << (2 + int(layer.group(1)) % 5 if layer else 3)) - 1
            step = rng.integers(0, 1 << 16, shape, dtype=np.uint16) & mask
            fb.write(base.astype("<u2").tobytes())
            fa.write((base ^ step).astype("<u2").tobytes())
    params = sum(int(np.prod(shape)) for _, shape in layout)
    return {"layout": layout, "header": header, "offsets": offsets, "parameters": params}

