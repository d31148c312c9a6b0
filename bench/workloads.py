"""The benchmark's workloads: the sidkit invocations of one pass and the
checks their outputs must pass.

A workload writes its seeded inputs into a work directory, lists the calls
of one pass (argv, expected exit code, output files) and checks each call's
outputs against the independent reference in ``reference.py``. Checks run
in full on the first pass; later passes must reproduce the same bytes.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import inputs
import reference as ref

Check = Callable[[Path], list[str]]


@dataclass
class Call:
    argv: list[str]
    outputs: tuple[str, ...]
    check: Check
    expect: int = 0
    discard: bool = False  # delete the outputs once checked (large checkpoints)


@dataclass
class Workload:
    name: str
    why: str
    sizes: dict = field(default_factory=dict)
    # Trace assertions: per-layer metrics that must be positive, and layers
    # (or span kinds such as "corpus.write") this workload must never call.
    busy: tuple[str, ...] = ()
    idle: tuple[str, ...] = ()

    def generate(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# score: evaluate and parse-check on a perturbed gold/pred pair
# ---------------------------------------------------------------------------


class Score(Workload):
    MODES = ("strict", "loose", "unlabelled", "loose-unlabelled")

    def __init__(self) -> None:
        super().__init__(
            "score",
            "corpus parse, BIO scan and span matching do the work; noise, normalize, subword "
            "and surgery do none, and the grouped report scores every pair twice",
            busy=("corpus.parse_calls", "corpus.bio_scan_calls", "corpus.violations",
                  "evaluate.spans", "evaluate.match_loose_s"),
            idle=("corpus.write", "corpus.split", "noise", "normalize", "subword", "correlation",
                  "pipeline", "surgery"),
        )

    def generate(self, work: Path, seed: int) -> None:
        self.data = inputs.write_score(work, seed)
        self.utterances = len(self.data["gold"])
        self.sizes = {
            "utterances": self.utterances,
            "bytes": sum((work / f).stat().st_size for f in ("gold.conll", "pred.conll")),
        }

    @cached_property
    def expected(self) -> dict:
        return ref.span_counts(self.data["gold"], self.data["pred"], self.MODES)

    @cached_property
    def violations(self) -> Counter:
        return sum((ref.scan_bio(p["tags"])[1] for p in self.data["pred"]), start=Counter())

    def calls(self) -> list[Call]:
        pair = ["--gold", "gold.conll", "--pred", "pred.conll"]
        return [
            Call(["evaluate", *pair, "--group-by", "variety", "--report", "json",
                  "--out", "eval_grouped.json"], ("eval_grouped.json",), self._check_grouped),
            Call(["evaluate", *pair, "--mode", "loose-unlabelled", "--report", "json",
                  "--out", "eval_loose_unlabelled.json"], ("eval_loose_unlabelled.json",),
                 self._check_loose_unlabelled),
            Call(["parse-check", "--in", "pred.conll", "--out", "parse_check.json"],
                 ("parse_check.json",), self._check_parse, expect=1),
        ]

    def _compare(self, where: str, got: dict, want: dict, modes: tuple[str, ...]) -> list[str]:
        problems = []
        if got["utterances"] != want["utterances"]:
            problems.append(f"{where}: {got['utterances']} utterances, expected {want['utterances']}")
        if not _close(got["intent_accuracy"], want["intent_matches"] / want["utterances"]):
            problems.append(f"{where}: intent accuracy {got['intent_accuracy']}")
        for mode in modes:
            counts = (got[mode]["matched"], got[mode]["predicted"], got[mode]["gold"])
            if counts != want[mode]:
                problems.append(f"{where}: {mode} counts {counts}, expected {want[mode]}")
        return problems

    def _check_grouped(self, work: Path) -> list[str]:
        report = json.loads((work / "eval_grouped.json").read_text(encoding="utf-8"))
        modes = ("strict", "loose", "unlabelled")
        problems = self._compare("all", report, self.expected["all"], modes)
        groups = report["per_group"]
        if sorted(groups) != sorted(k for k in self.expected if k != "all"):
            problems.append(f"groups {sorted(groups)}")
            return problems
        for name, scores in groups.items():
            problems += self._compare(name, scores, self.expected[name], modes)
        for mode in modes:
            total = [sum(g[mode][k] for g in groups.values()) for k in ("matched", "predicted", "gold")]
            if total != [report[mode][k] for k in ("matched", "predicted", "gold")]:
                problems.append(f"per-group {mode} counts do not sum to the overall counts")
        strict, loose, unl = (report[m]["matched"] for m in modes)
        if not strict <= loose or not strict <= unl:
            problems.append(f"strict {strict} exceeds loose {loose} or unlabelled {unl}")
        if loose == strict:
            problems.append("loose equals strict: the predictions exercise no loose matching")
        return problems

    def _check_loose_unlabelled(self, work: Path) -> list[str]:
        report = json.loads((work / "eval_loose_unlabelled.json").read_text(encoding="utf-8"))
        want = dict(self.expected["all"], utterances=self.utterances)
        report["utterances"] = self.utterances  # the single-mode report omits it
        return self._compare("loose-unlabelled", report, want, ("loose-unlabelled",))

    def _check_parse(self, work: Path) -> list[str]:
        report = json.loads((work / "parse_check.json").read_text(encoding="utf-8"))
        kinds = Counter(d["kind"] for d in report["details"])
        problems = []
        if report["utterances"] != self.utterances:
            problems.append(f"parse-check saw {report['utterances']} utterances")
        if report["violations"] != sum(self.violations.values()) or kinds != self.violations:
            problems.append(f"violations {dict(kinds)}, expected {dict(self.violations)}")
        if not self.violations:
            problems.append("the predictions hold no BIO violations")
        return problems


# ---------------------------------------------------------------------------
# text-sweep: one pipeline run of the noise experiment
# ---------------------------------------------------------------------------


class TextSweep(Workload):
    RATIO = 0.8

    def __init__(self) -> None:
        super().__init__(
            "text-sweep",
            "normalize, noise, subword, corpus writes, pipeline hashing and correlation do "
            "the work in one pipeline process; evaluate and surgery do none",
            busy=("noise.words_edited", "normalize.tokens_rewritten", "corpus.write_s",
                  "corpus.split_s", "subword.split_words", "pipeline.steps",
                  "correlation.spearman_exact_s"),
            idle=("corpus.bio_scan", "evaluate", "surgery"),
        )

    def generate(self, work: Path, seed: int) -> None:
        data = inputs.write_sweep(work, seed)
        self.corpus = data["corpus"]
        steps = [
            {"name": "normalize", "command": "normalize",
             "args": {"in": "transcript.txt", "out": "norm.txt", "trace": "norm_trace.jsonl"}},
            {"name": "split", "command": "split",
             "args": {"in": "corpus.conll", "ratio": self.RATIO, "seed": seed, "strategy": "grouped",
                      "out1": "train.conll", "out2": "heldout.conll"}},
        ]
        for f in inputs.NOISE_FRACTIONS:
            pct = round(f * 100)
            steps.append({"name": f"noise{pct}", "command": "noise",
                          "args": {"in": "train.conll", "out": f"train_noise{pct}.conll", "fraction": f,
                                   "alphabet-from": "norm.txt", "seed": seed}})
        for f in inputs.NOISE_FRACTIONS:
            pct = round(f * 100)
            steps.append({"name": f"subword{pct}", "command": "subword-ratio",
                          "args": {"vocab": "vocab.txt", "in": f"train_noise{pct}.conll",
                                   "compare": "heldout.conll", "format": "conll",
                                   "out": f"ratio{pct}.json"}})
        steps.append({"name": "unseen", "command": "stats",
                      "args": {"in": "heldout.conll", "unseen-from": "train.conll", "out": "stats.json"}})
        steps.append({"name": "correlate", "command": "correlate",
                      "args": {"in": "table.tsv", "x": "ratio_difference", "y": "accuracy",
                               "method": "exact", "out": "corr.json"}})
        self.steps = steps
        (work / "pipe.json").write_text(json.dumps({"steps": steps}, indent=2), encoding="utf-8")
        files = ("corpus.conll", "transcript.txt", "vocab.txt", "table.tsv")
        self.sizes = {
            "utterances": len(self.corpus),
            "transcript_tokens": len((work / "transcript.txt").read_text(encoding="utf-8").split()),
            "bytes": sum((work / f).stat().st_size for f in files),
        }

    def calls(self) -> list[Call]:
        outputs = ["manifest.json"] + sorted(
            v for s in self.steps for k, v in s["args"].items()
            if k in ("out", "out1", "out2", "trace")
        )
        return [Call(["pipeline", "--config", "pipe.json", "--manifest", "manifest.json"],
                     tuple(outputs), self._check)]

    def _check(self, work: Path) -> list[str]:
        def read(name: str) -> str:
            return (work / name).read_text(encoding="utf-8")

        problems = []
        manifest = json.loads(read("manifest.json"))
        statuses = [s["status"] for s in manifest["steps"]]
        if manifest["status"] != "ok" or statuses != ["ok"] * len(self.steps):
            problems.append(f"pipeline status {manifest['status']}, steps {statuses}")
            return problems
        problems += self._check_normalize(read("transcript.txt"), read("norm.txt"), read("norm_trace.jsonl"))
        train = ref.parse_conll(read("train.conll"))
        heldout = ref.parse_conll(read("heldout.conll"))
        problems += self._check_split(train, heldout)
        alphabet = {ch for ch in read("norm.txt") if ch.isalpha()}
        vocab = set(read("vocab.txt").split())
        held_words = [t for u in heldout for t in u["tokens"]]
        for f in inputs.NOISE_FRACTIONS:
            pct = round(f * 100)
            noised = ref.parse_conll(read(f"train_noise{pct}.conll"))
            problems += self._check_noise(train, noised, f, alphabet)
            got = json.loads(read(f"ratio{pct}.json"))
            want = ref.split_ratio(vocab, [t for u in noised for t in u["tokens"]])
            want_cmp = ref.split_ratio(vocab, held_words)
            if not (_close(got["split_word_ratio"], want) and _close(got["compare_ratio"], want_cmp)
                    and _close(got["ratio_difference"], abs(want - want_cmp))):
                problems.append(f"ratio{pct}.json: {got}, expected {want} and {want_cmp}")
            if not 0.05 < want < 0.95:
                problems.append(f"split ratio {want} is trivial")
        stats = json.loads(read("stats.json"))
        if stats["inventory"]["utterances"] != len(heldout) or "unseen" not in stats:
            problems.append("stats.json does not describe the held-out part")
        problems += self._check_correlation(read("table.tsv"), json.loads(read("corr.json")))
        return problems

    @staticmethod
    def _check_normalize(text: str, out: str, trace: str) -> list[str]:
        before, after = text.split(), out.split()
        if len(before) != len(after) or text.count("\n") != out.count("\n"):
            return ["normalize changed the token or line structure"]
        changed = sum(a != b for a, b in zip(before, after))
        problems = []
        if not all(ref.normalized_fixpoint(t) for t in after):
            problems.append("normalized text is not a fixpoint of the rules (not idempotent)")
        if changed == 0:
            problems.append("normalize rewrote no token")
        if len(trace.splitlines()) != changed:
            problems.append(f"{len(trace.splitlines())} trace lines for {changed} rewritten tokens")
        return problems

    def _check_split(self, train: list[dict], heldout: list[dict]) -> list[str]:
        ids = [u["id"] for u in self.corpus]
        got = [u["id"] for u in train] + [u["id"] for u in heldout]
        if sorted(got) != sorted(ids):
            return ["split parts are not a partition of the corpus"]
        problems = []
        order = {i: n for n, i in enumerate(ids)}
        for part in (train, heldout):
            if [order[u["id"]] for u in part] != sorted(order[u["id"]] for u in part):
                problems.append("split part does not keep corpus order")
        if {u["id"].split("-")[0] for u in train} & {u["id"].split("-")[0] for u in heldout}:
            problems.append("a group straddles the grouped split")
        if not 0 < len(train) <= ref.round_half_up(self.RATIO, len(ids)):
            problems.append(f"train part has {len(train)} of {len(ids)} utterances")
        return problems

    @staticmethod
    def _check_noise(train: list[dict], noised: list[dict], f: float, alphabet: set) -> list[str]:
        if len(train) != len(noised):
            return [f"noise {f}: {len(noised)} utterances, expected {len(train)}"]
        edited = 0
        for a, b in zip(train, noised):
            if (a["id"], a["tags"], a["intent"], a["variety"], len(a["tokens"])) != (
                b["id"], b["tags"], b["intent"], b["variety"], len(b["tokens"])
            ):
                return [f"noise {f}: utterance {a['id']} changed ids, tags or token count"]
            diffs = [(x, y) for x, y in zip(a["tokens"], b["tokens"]) if x != y]
            alpha = sum(t.isalpha() for t in a["tokens"])
            if len(diffs) != ref.round_half_up(f, alpha) or any(
                not x.isalpha() or abs(len(x) - len(y)) > 1 or not set(y) - set(x) <= alphabet
                for x, y in diffs
            ):
                return [f"noise {f}: utterance {a['id']} has {len(diffs)} edits for {alpha} words"]
            edited += len(diffs)
        return [] if edited else [f"noise {f} edited no word"]

    @staticmethod
    def _check_correlation(table: str, got: dict) -> list[str]:
        rows = [line.split("\t") for line in table.splitlines()[1:] if line]
        x = [float(r[1]) for r in rows]
        y = [float(r[2]) for r in rows]
        rho = ref.pearson(ref.ranks(x), ref.ranks(y))
        if got["n"] != len(rows) or not _close(got["r"], ref.pearson(x, y)) or not _close(got["rho"], rho):
            return [f"corr.json {got}: expected r {ref.pearson(x, y)}, rho {rho}"]
        if not (0.0 <= got["p_r"] <= 1.0 and 0.0 < got["p_rho"] <= 1.0):
            return [f"corr.json p-values out of range: {got}"]
        return []


# ---------------------------------------------------------------------------
# surgery: the layer-revert sweep, one swap and one MAV report
# ---------------------------------------------------------------------------


class Surgery(Workload):
    A, B = "finetuned.safetensors", "pretrained.safetensors"

    def __init__(self) -> None:
        super().__init__(
            "surgery",
            "checkpoint reads, splices and writes plus MAV do the work in 13 short CLI "
            "processes, so interpreter and import start-up weigh in; corpus does none",
            busy=("surgery.read_index_s", "surgery.splice_s", "surgery.bytes_written",
                  "surgery.tensor_reads", "surgery.mav_s"),
            idle=("corpus", "evaluate", "noise", "normalize", "subword", "correlation", "pipeline"),
        )

    def generate(self, work: Path, seed: int) -> None:
        self.layout = inputs.write_surgery(work, seed)
        self.sizes = {
            "parameters": self.layout["parameters"],
            "bytes": sum((work / f).stat().st_size for f in (self.A, self.B)),
        }

    def calls(self) -> list[Call]:
        calls = []
        for i in range(inputs.LAYERS - 1):
            chosen = (f"encoder.layer.{i}.", f"encoder.layer.{i + 1}.")
            calls.append(Call(
                ["surgery", "revert", "--a", self.A, "--b", self.B, "--layers", f"{i},{i + 1}",
                 "--out", "reverted.safetensors"],
                ("reverted.safetensors",), self._splice_check("reverted.safetensors", chosen),
                discard=True,
            ))
        calls.append(Call(
            ["surgery", "swap", "--a", self.A, "--b", self.B, "--layers", "0,1", "--embeddings",
             "--out", "swapped.safetensors"],
            ("swapped.safetensors",),
            self._splice_check("swapped.safetensors", ("encoder.layer.0.", "encoder.layer.1.", "embeddings.")),
            discard=True,
        ))
        calls.append(Call(["surgery", "mav", "--a", self.A, "--b", self.B, "--out", "mav.json"],
                          ("mav.json",), self._check_mav))
        return calls

    def _splice_check(self, out_name: str, donor_prefixes: tuple[str, ...]) -> Check:
        """Output = canonical header of the inputs, then per tensor the
        donor's (--b) bytes for the chosen groups and the base's otherwise."""
        import numpy as np

        def check(work: Path) -> list[str]:
            header = self.layout["header"]
            out = np.memmap(work / out_name, dtype=np.uint8, mode="r")
            base = np.memmap(work / self.A, dtype=np.uint8, mode="r")
            donor = np.memmap(work / self.B, dtype=np.uint8, mode="r")
            if out.size != base.size or bytes(out[: len(header)]) != header:
                return [f"{out_name}: not the canonical layout of the inputs"]
            taken = 0
            for name, (begin, end) in self.layout["offsets"].items():
                from_donor = name.startswith(donor_prefixes)
                src = donor if from_donor else base
                lo, hi = len(header) + begin, len(header) + end
                if not np.array_equal(out[lo:hi], src[lo:hi]):
                    return [f"{out_name}: tensor {name} does not hold the "
                            f"{'donor' if from_donor else 'base'} bytes"]
                taken += from_donor
            return [] if taken else [f"{out_name}: no tensor was taken from the donor"]

        return check

    def _check_mav(self, work: Path) -> list[str]:
        got = json.loads((work / "mav.json").read_text(encoding="utf-8"))
        per_group, counts, variance = ref.mav(
            work / self.A, work / self.B, len(self.layout["header"]), self.layout["offsets"]
        )
        problems = []
        if got["per_group_counts"] != counts or got["parameter_count"] != self.layout["parameters"]:
            problems.append("mav.json parameter counts differ from the layout")
        if sorted(got["per_group"]) != sorted(per_group) or not all(
            _close(got["per_group"][k], v) for k, v in per_group.items()
        ):
            problems.append("mav.json per-group MAV differs from the numpy recomputation")
        if not _close(got["global_variance"], variance, rel=1e-6):
            problems.append(f"mav.json variance {got['global_variance']}, recomputed {variance}")
        return problems


WORKLOADS: dict[str, type[Workload]] = {"score": Score, "text-sweep": TextSweep, "surgery": Surgery}
