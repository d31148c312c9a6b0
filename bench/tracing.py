"""In-process tracing of sidkit's layers, from the benchmark's own code.

The traced run imports sidkit and replaces the functions that ``sidkit.cli``
and ``sidkit.pipeline`` call (plus a few module internals, such as the BIO
scan and the checkpoint index reader, that the per-layer metrics need) with
wrappers that record one span per call: name, start, end, parent span and a
few counts taken from the call's arguments and result. Spans stay in memory;
the per-layer metrics are computed from them once the pass has ended. A
layer's self time is its span's duration minus that of its child spans.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from time import perf_counter


def _size(path) -> int:
    return os.path.getsize(path)


def _tokens(dataset) -> int:
    return sum(len(u.tokens) for u in dataset.utterances)


def _normalize_counts(args, kwargs, result):
    before, after = args[0].split(), result.split()
    return {
        "tokens": len(before),
        "rewritten": sum(a != b for a, b in zip(before, after)),
        "bytes": len(args[0].encode("utf-8")),
    }


def _noise_counts(args, kwargs, result):
    edited = sum(
        a != b
        for u, v in zip(args[0].utterances, result.utterances)
        for a, b in zip(u.tokens, v.tokens)
    )
    return {"edited": edited, "tokens": _tokens(args[0])}


def _ratio_counts(args, kwargs, result):
    corpus = args[1]
    words = len(corpus.split()) if isinstance(corpus, str) else _tokens(corpus)
    return {"words": words, "split": round(result * words)}


# (module, attribute, span name, counts from (args, kwargs, result))
PROBES = (
    ("sidkit.cli", "main", "cli.main", lambda a, k, r: {"command": a[0][0]}),
    ("sidkit.cli", "run_pipeline", "pipeline.run", None),
    ("sidkit.pipeline", "sha256_file", "pipeline.hash", lambda a, k, r: {"bytes": _size(a[0])}),
    ("sidkit.cli", "load_dataset", "corpus.parse", lambda a, k, r: {"bytes": _size(a[0])}),
    ("sidkit.cli", "save_dataset", "corpus.write", lambda a, k, r: {"bytes": _size(a[1])}),
    ("sidkit.corpus", "_scan_tags", "corpus.bio_scan", None),
    ("sidkit.cli", "validate_bio", "corpus.validate", lambda a, k, r: {"violations": len(r)}),
    ("sidkit.cli", "split_dataset", "corpus.split", None),
    ("sidkit.cli", "label_inventory", "corpus.inventory", None),
    ("sidkit.cli", "unseen_label_report", "corpus.inventory", None),
    ("sidkit.cli", "evaluate", "evaluate.evaluate",
     lambda a, k, r: {"pairs": len(a[0]), "grouped": k.get("group_by") == "variety"}),
    ("sidkit.evaluate", "span_f1", "evaluate.match", lambda a, k, r: {"mode": a[2], "spans": r.predicted + r.gold}),
    ("sidkit.cli", "span_f1", "evaluate.match", lambda a, k, r: {"mode": a[2], "spans": r.predicted + r.gold}),
    ("sidkit.cli", "noise_dataset", "noise.noise", _noise_counts),
    ("sidkit.cli", "load_alphabet", "noise.alphabet", None),
    ("sidkit.cli", "normalize_text", "normalize.normalize", _normalize_counts),
    ("sidkit.cli", "trace_token", "normalize.trace", None),
    ("sidkit.normalize", "trace_token", "normalize.token", None),
    ("sidkit.subword", "SubwordVocab.from_file", "subword.vocab_load", None),
    ("sidkit.cli", "split_word_ratio", "subword.ratio", _ratio_counts),
    ("sidkit.cli", "pearson", "correlation.pearson", None),
    ("sidkit.cli", "spearman", "correlation.spearman", lambda a, k, r: {"exact": k.get("method") == "exact"}),
    ("sidkit.cli", "correlate", "correlation.correlate", None),
    ("sidkit.surgery", "read_checkpoint", "surgery.read_index", None),
    ("sidkit.surgery", "Checkpoint.tensor_bytes", "surgery.tensor_read", None),
    ("sidkit.cli", "revert_layers", "surgery.splice", lambda a, k, r: {"bytes": _size(a[4])}),
    ("sidkit.cli", "swap_layers", "surgery.splice", lambda a, k, r: {"bytes": _size(a[4])}),
    ("sidkit.cli", "mav_report", "surgery.mav", lambda a, k, r: {"bytes": _size(a[0]) + _size(a[1])}),
)

class Tracer:
    """Installs the probes on entry and removes them on exit."""

    def __init__(self) -> None:
        # One list per span: [name, start, end, parent index or -1, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        import importlib

        for module_name, attr, span_name, counts in PROBES:
            owner = importlib.import_module(module_name)
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(getattr(owner, attr), span_name, counts))
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, target, name: str, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counts is not None:
                record[4] = counts(args, kwargs, result)
            return result

        return traced


def layer_calls(spans: list[list], prefix: str) -> int:
    """Number of spans in a layer ("corpus") or of one kind ("corpus.write")."""
    return sum(s[0] == prefix or s[0].startswith(prefix + ".") for s in spans)


def layer_metrics(spans: list[list], extra: dict) -> dict:
    """Every per-layer metric from one traced pass plus the measured extras."""
    duration = [s[2] - s[1] for s in spans]
    children = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[3] >= 0:
            children[s[3]] += duration[i]

    def pick(name, **match):
        """Indices of the spans with this name whose counts hold ``match``."""
        return [
            i for i in by_name.get(name, [])
            if all((spans[i][4] or {}).get(k) == v for k, v in match.items())
        ]

    def total(name, **match):
        return sum(duration[i] for i in pick(name, **match))

    def self_time(name):
        return sum(duration[i] - children[i] for i in pick(name))

    def count(name, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in pick(name))

    def ratio(a, b):
        return a / b if b else 0.0

    def command(i):
        while i >= 0 and spans[i][0] != "cli.main":
            i = spans[i][3]
        return (spans[i][4] or {}).get("command") if i >= 0 else None

    grouped = [duration[i] for i in pick("evaluate.evaluate", grouped=True)]
    ungrouped = [duration[i] for i in pick("evaluate.evaluate", grouped=False)]
    eval_scans = sum(1 for i in pick("corpus.bio_scan") if command(i) == "evaluate")
    match_s = total("evaluate.match")
    m = dict(extra)
    m.update({
        "corpus.parse_s": total("corpus.parse"),
        "corpus.parse_calls": len(pick("corpus.parse")),
        "corpus.parse_mb_s": ratio(count("corpus.parse", "bytes") / 1e6, total("corpus.parse")),
        "corpus.write_s": total("corpus.write"),
        "corpus.write_mb_s": ratio(count("corpus.write", "bytes") / 1e6, total("corpus.write")),
        "corpus.bio_scan_s": total("corpus.bio_scan"),
        "corpus.bio_scan_calls": len(pick("corpus.bio_scan")),
        "corpus.violations": count("corpus.validate", "violations"),
        "corpus.split_s": total("corpus.split"),
        "corpus.inventory_s": total("corpus.inventory"),
        "evaluate.evaluate_s": self_time("evaluate.evaluate"),
        "evaluate.spans": count("evaluate.match", "spans"),
        "evaluate.spans_per_s": ratio(count("evaluate.match", "spans"), match_s),
        "evaluate.grouped_over_ungrouped": ratio(
            statistics.mean(grouped) if grouped else 0.0, statistics.mean(ungrouped) if ungrouped else 0.0
        ),
        "evaluate.bio_scans_per_pair": ratio(eval_scans, count("evaluate.evaluate", "pairs")),
        "noise.noise_s": total("noise.noise"),
        "noise.words_edited": count("noise.noise", "edited"),
        "noise.words_per_s": ratio(count("noise.noise", "tokens"), total("noise.noise")),
        "noise.alphabet_s": total("noise.alphabet"),
        "normalize.normalize_s": total("normalize.normalize"),
        "normalize.trace_s": total("normalize.trace"),
        "normalize.tokens": count("normalize.normalize", "tokens"),
        "normalize.tokens_rewritten": count("normalize.normalize", "rewritten"),
        "normalize.mb_s": ratio(count("normalize.normalize", "bytes") / 1e6, total("normalize.normalize")),
        "normalize.trace_calls_per_token": ratio(
            len(pick("normalize.trace")) + len(pick("normalize.token")), count("normalize.normalize", "tokens")
        ),
        "subword.ratio_s": total("subword.ratio"),
        "subword.vocab_load_s": total("subword.vocab_load"),
        "subword.words": count("subword.ratio", "words"),
        "subword.split_words": count("subword.ratio", "split"),
        "subword.words_per_s": ratio(count("subword.ratio", "words"), total("subword.ratio")),
        "correlation.spearman_exact_s": total("correlation.spearman", exact=True),
        "correlation.correlate_s": sum(total(n) for n in by_name if n.startswith("correlation.")),
        "pipeline.hash_s": total("pipeline.hash"),
        "pipeline.hash_mb": count("pipeline.hash", "bytes") / 1e6,
        "pipeline.steps": sum(1 for i in pick("cli.main") if spans[i][3] >= 0),
        "pipeline.dispatch_s": self_time("pipeline.run"),
        "surgery.read_index_s": total("surgery.read_index"),
        "surgery.splice_s": total("surgery.splice"),
        "surgery.splice_mb_s": ratio(count("surgery.splice", "bytes") / 1e6, total("surgery.splice")),
        "surgery.bytes_written": count("surgery.splice", "bytes"),
        "surgery.tensor_reads": len(pick("surgery.tensor_read")),
        "surgery.mav_s": total("surgery.mav"),
        "surgery.mav_mb_s": ratio(count("surgery.mav", "bytes") / 1e6, total("surgery.mav")),
    })
    for mode in ("strict", "loose", "unlabelled", "loose-unlabelled"):
        m[f"evaluate.match_{mode.replace('-', '_')}_s"] = total("evaluate.match", mode=mode)
    return m


def mav_peak_alloc_mb(a: Path, b: Path) -> float:
    """tracemalloc peak of one MAV report; numpy reports its buffers to it."""
    import tracemalloc

    from sidkit.surgery import NamingScheme, mav_report

    tracemalloc.start()
    try:
        mav_report(a, b, NamingScheme())
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
