"""The names the benchmark's tracer wraps must exist where it looks them up.

``bench/tracing.py`` replaces functions by name (``PROBES``), reading each
one from its owner's ``__dict__``. A rename or a dropped import in sidkit
would otherwise surface only when the traced benchmark runs.
"""

import importlib
import json

import sidkit.cli
from conftest import load_bench
from sidkit.cli import main


def test_every_probe_target_resolves():
    missing = []
    for module_name, attr, _, _ in load_bench("tracing").PROBES:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if name not in owner.__dict__:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


CORPUS = "".join(
    f"# id: {g}-{k}\n# intent: alarm/set\nvekk\tO\nmæ\tO\nkl{g}\tB-datetime\nhalv\tI-datetime\n\n"
    for g in range(6) for k in range(2)
)
TRACED_STEPS = [
    {"command": "normalize", "args": {"in": "transcript.txt", "out": "norm.txt"}},
    {"command": "split", "args": {"in": "corpus.conll", "ratio": 0.5, "seed": 1, "strategy": "grouped",
                                  "out1": "train.conll", "out2": "heldout.conll"}},
    {"command": "noise", "args": {"in": "train.conll", "out": "noised.conll", "fraction": 0.5,
                                  "alphabet-from": "norm.txt", "seed": 1}},
    {"command": "subword-ratio", "args": {"vocab": "vocab.txt", "in": "noised.conll", "compare": "heldout.conll",
                                          "format": "conll", "out": "ratio.json"}},
]


def test_a_traced_pipeline_records_every_text_layer(tmp_path, monkeypatch):
    """The spans the traced benchmark reads fire on a small text pipeline."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.conll").write_text(CORPUS, encoding="utf-8")
    (tmp_path / "transcript.txt").write_text("æ e itj kjem ikkje\nka du sei\n", encoding="utf-8")
    (tmp_path / "vocab.txt").write_text("[UNK]\nvekk\nmæ\nkl\n##1\nhalv\n", encoding="utf-8")
    (tmp_path / "pipe.json").write_text(json.dumps({"steps": TRACED_STEPS}), encoding="utf-8")
    tracing = load_bench("tracing")
    with tracing.Tracer() as tracer:
        assert main(["pipeline", "--config", "pipe.json", "--manifest", "manifest.json"]) == 0
    names = {span[0] for span in tracer.spans}
    assert {"subword.ratio", "noise.noise", "corpus.write", "normalize.normalize"} <= names
    metrics = tracing.layer_metrics(tracer.spans, {})
    assert metrics["noise.words_edited"] > 0
    assert metrics["subword.words"] > 0 and metrics["normalize.tokens"] > 0
    assert metrics["pipeline.steps"] == len(TRACED_STEPS)


def _scored_corpus(stray_i: bool) -> str:
    tag = "I-datetime" if stray_i else "B-datetime"
    return "".join(
        f"# id: {k}\n# intent: alarm/set\n# variety: {variety}\nvekk\tO\nkl{k}\t{tag}\nhalv\tI-datetime\n\n"
        for k, variety in enumerate(["north", "west", "north", "east"])
    )


def test_traced_scoring_keeps_every_score_probe_busy(tmp_path, monkeypatch):
    """The spans behind the score workload's busy metrics fire on a small gold/pred pair."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.conll").write_text(_scored_corpus(stray_i=False), encoding="utf-8")
    (tmp_path / "pred.conll").write_text(_scored_corpus(stray_i=True), encoding="utf-8")
    tracing = load_bench("tracing")
    with tracing.Tracer() as tracer:
        # through the module, so the traced main records which command each scan served
        assert sidkit.cli.main(["evaluate", "--gold", "gold.conll", "--pred", "pred.conll",
                                "--group-by", "variety", "--report", "json", "--out", "eval.json"]) == 0
        assert sidkit.cli.main(["parse-check", "--in", "pred.conll", "--out", "check.json"]) == 1
    modes = {span[4]["mode"] for span in tracer.spans if span[0] == "evaluate.match"}
    assert modes == {"strict", "loose", "unlabelled", "loose-unlabelled"}
    metrics = tracing.layer_metrics(tracer.spans, {})
    assert metrics["evaluate.match_loose_s"] > 0
    assert metrics["evaluate.bio_scans_per_pair"] == 2
    assert metrics["evaluate.spans"] > 0
    assert metrics["corpus.bio_scan_calls"] > 0 and metrics["corpus.violations"] == 4
