"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 7 lives in test_external_data.py because it needs local
copies of public datasets; it is skipped, not failed, when they are absent.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
from scipy import integrate

from conftest import checkpoint_tensor_specs, exact_share, make_checkpoint, random_bio_tags
from sidkit.corpus import Dataset, Span, Utterance, extract_spans, write_dataset
from sidkit.correlation import p_from_correlation, pearson, spearman, two_tailed_p
from sidkit.evaluate import MODES, PRF, span_f1
from sidkit.noise import NoiseConfig, build_alphabet, noise_dataset
from sidkit.normalize import normalize_token
from sidkit.pipeline import run_pipeline, sha256_file
from sidkit.surgery import (
    NamingScheme,
    layer_group,
    mav_report,
    read_checkpoint,
    revert_layers,
    swap_layers,
    write_checkpoint,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


# ---------------------------------------------------------------------------
# 1. Span-F1 oracle equivalence
# ---------------------------------------------------------------------------


def _bruteforce_matched(preds, golds, mode):
    def overlap(p, g):
        return p.start < g.end and g.start < p.end

    predicate = {
        "strict": lambda p, g: p == g,
        "loose": lambda p, g: p.label == g.label and overlap(p, g),
        "unlabelled": lambda p, g: (p.start, p.end) == (g.start, g.end),
    }[mode]
    best = 0

    def recurse(i, used, count):
        nonlocal best
        best = max(best, count)
        if i == len(preds):
            return
        recurse(i + 1, used, count)
        for j, gold in enumerate(golds):
            if j not in used and predicate(preds[i], gold):
                recurse(i + 1, used | {j}, count + 1)

    recurse(0, frozenset(), 0)
    return best


def test_criterion_1_span_f1_oracle_equivalence():
    with criterion(1, "strict/loose/unlabelled PRFs equal the exhaustive-matching oracle"):
        rng = random.Random(2024)
        labels = ["a", "b", "c"]
        started = time.perf_counter()
        pairs = []
        for _ in range(1000):
            n = rng.randint(1, 10)
            gold = extract_spans(random_bio_tags(rng, n, labels))
            pred = extract_spans(random_bio_tags(rng, n, labels))
            pairs.append((gold, pred))
        for mode in MODES:
            ours = span_f1([g for g, _ in pairs], [p for _, p in pairs], mode)
            oracle_matched = sum(_bruteforce_matched(p, g, mode) for g, p in pairs)
            oracle = PRF(
                matched=oracle_matched,
                predicted=sum(len(p) for _, p in pairs),
                gold=sum(len(g) for g, _ in pairs),
            )
            assert ours == oracle
            assert (ours.precision, ours.recall, ours.f1) == (
                oracle.precision, oracle.recall, oracle.f1,
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. F1-variant ordering
# ---------------------------------------------------------------------------


def test_criterion_2_f1_variant_ordering():
    with criterion(2, "strict F1 <= loose and unlabelled; both loose/unlabelled orders occur"):
        rng = random.Random(7)
        labels = ["a", "b", "c"]
        for _ in range(200):
            size = rng.randint(1, 20)
            gold, pred = [], []
            for _ in range(size):
                n = rng.randint(1, 10)
                gold.append(extract_spans(random_bio_tags(rng, n, labels)))
                pred.append(extract_spans(random_bio_tags(rng, n, labels)))
            strict = span_f1(gold, pred, "strict").f1
            loose = span_f1(gold, pred, "loose").f1
            unlabelled = span_f1(gold, pred, "unlabelled").f1
            assert strict <= loose + 1e-15
            assert strict <= unlabelled + 1e-15

        # Misprojected boundaries, right labels: loose rescues, unlabelled cannot.
        gold = [[Span(0, 3, "datetime")]]
        pred = [[Span(1, 3, "datetime")]]
        assert span_f1(gold, pred, "loose").f1 > span_f1(gold, pred, "unlabelled").f1

        # Right boundaries, wrong labels: unlabelled rescues, loose cannot.
        gold = [[Span(0, 2, "datetime")]]
        pred = [[Span(0, 2, "reminder")]]
        assert span_f1(gold, pred, "unlabelled").f1 > span_f1(gold, pred, "loose").f1


# ---------------------------------------------------------------------------
# 3. Noise statistics
# ---------------------------------------------------------------------------


def _levenshtein(a, b):
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def _noise_corpus(n_sentences=1000, seed=0):
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyzæøå"
    utterances = []
    for i in range(n_sentences):
        tokens = ["".join(rng.choice(letters) for _ in range(rng.randint(2, 9)))
                  for _ in range(rng.randint(8, 12))]
        for extra in ("3", "pm.", "!"):
            if rng.random() < 0.4:
                tokens.insert(rng.randint(0, len(tokens)), extra)
        utterances.append(
            Utterance(id=str(i), tokens=tuple(tokens),
                      slot_tags=("O",) * len(tokens), intent="intent/x")
        )
    return Dataset(name="synthetic", utterances=tuple(utterances))


def test_criterion_3_noise_statistics():
    with criterion(3, "exact per-sentence edit counts; shape and determinism preserved"):
        corpus = _noise_corpus()
        alphabet = build_alphabet("abcdefghijklmnopqrstuvwxyzæøå")
        started = time.perf_counter()
        for fraction in (0.1, 0.2, 0.3):
            cfg = NoiseConfig(word_fraction=fraction, alphabet=alphabet, seed=42)
            noised = noise_dataset(corpus, cfg)

            total_alpha = 0
            total_modified = 0
            for before, after in zip(corpus.utterances, noised.utterances):
                assert before.slot_tags == after.slot_tags
                assert len(before.tokens) == len(after.tokens)
                assert before.intent == after.intent
                n_alpha = sum(t.isalpha() for t in before.tokens)
                modified = [
                    (x, y) for x, y in zip(before.tokens, after.tokens) if x != y
                ]
                assert len(modified) == exact_share(fraction, n_alpha)
                for x, y in modified:
                    assert abs(len(y) - len(x)) <= 1
                    assert _levenshtein(x, y) == 1
                total_alpha += n_alpha
                total_modified += len(modified)
            assert abs(total_modified / total_alpha - fraction) <= 0.01

            again = noise_dataset(corpus, cfg)
            assert write_dataset(again).encode() == write_dataset(noised).encode()
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"noise statistics took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. Normalizer rule table and idempotence
# ---------------------------------------------------------------------------


def test_criterion_4_normalizer_rules_and_idempotence():
    with criterion(4, "spelling-rule fixtures pass; idempotent on 10,000 random strings"):
        fixtures = {
            "soL": "sol",
            "vat'n": "vatn",
            "bakkst": "bakst",
            "fossjk": "forsk",
            "hassjt": "harst",
            "issjn": "issjn",
            "kattne": "katne",
        }
        for source, expected in fixtures.items():
            assert normalize_token(source) == expected, source

        alphabet = "abcdefghijklmnopqrstuvwxyzæøåABCDEFGHIJKLMNOPQRSTUVWXYZÆØÅ'"
        rng = random.Random(77)
        for _ in range(10_000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            once = normalize_token(s)
            assert normalize_token(once) == once, s


# ---------------------------------------------------------------------------
# 5. Correlation reproduction
# ---------------------------------------------------------------------------


def test_criterion_5_correlation_reproduction():
    with criterion(5, "published p-values to 2 decimals; oracle agreement at 1e-12/1e-8"):
        assert round(p_from_correlation(-0.51, 12), 2) == 0.09
        assert round(p_from_correlation(-0.60, 12), 2) == 0.04

        rng = random.Random(55)
        for _ in range(100):
            x = [rng.uniform(-3, 3) for _ in range(8)]
            y = [rng.uniform(-3, 3) for _ in range(8)]
            n = len(x)
            sx, sy = sum(x), sum(y)
            sxx = sum(v * v for v in x)
            syy = sum(v * v for v in y)
            sxy = sum(a * b for a, b in zip(x, y))
            oracle_r = (n * sxy - sx * sy) / math.sqrt(
                (n * sxx - sx * sx) * (n * syy - sy * sy)
            )
            assert abs(pearson(x, y)[0] - oracle_r) <= 1e-12

            def rank(values):
                order = sorted(range(len(values)), key=lambda i: values[i])
                out = [0.0] * len(values)
                for pos, idx in enumerate(order, start=1):
                    out[idx] = float(pos)
                return out

            rx, ry = rank(x), rank(y)  # continuous draws: ties are negligible
            n = len(rx)
            srx, sry = sum(rx), sum(ry)
            sxx = sum(v * v for v in rx)
            syy = sum(v * v for v in ry)
            sxy = sum(a * b for a, b in zip(rx, ry))
            oracle_rho = (n * sxy - srx * sry) / math.sqrt(
                (n * sxx - srx * srx) * (n * syy - sry * sry)
            )
            assert abs(spearman(x, y)[0] - oracle_rho) <= 1e-12

        def t_pdf(u, df):
            return (
                math.gamma((df + 1) / 2)
                / (math.sqrt(df * math.pi) * math.gamma(df / 2))
                * (1 + u * u / df) ** (-(df + 1) / 2)
            )

        for df in range(1, 31):
            for t in (-4.0, -1.0, 0.0, 0.7, 1.875, 3.5):
                tail, _ = integrate.quad(
                    t_pdf, abs(t), math.inf, args=(df,), epsabs=1e-12, epsrel=1e-12
                )
                assert abs(two_tailed_p(t, df) - 2 * tail) <= 1e-8


# ---------------------------------------------------------------------------
# 6. Surgery byte-exactness
# ---------------------------------------------------------------------------


def test_criterion_6_surgery_byte_exactness(tmp_path):
    with criterion(6, "round trips, swap inverse, full revert, MAV zero/linearity, frame rule"):
        scheme = NamingScheme()
        finetuned = make_checkpoint(tmp_path / "ft.safetensors", seed=1, dtype="F64")
        pretrained = make_checkpoint(tmp_path / "pt.safetensors", seed=2, dtype="F64")

        # (a) read -> write round trip is byte-identical
        rewritten = tmp_path / "rewritten.safetensors"
        with read_checkpoint(finetuned) as cp:
            write_checkpoint(
                rewritten,
                {e.name: (e.dtype, e.shape, cp.tensor_bytes(e.name)) for e in cp.entries},
                metadata=cp.metadata,
            )
        assert rewritten.read_bytes() == finetuned.read_bytes()

        # (b) swap then swap back restores the original file
        ab = tmp_path / "ab.safetensors"
        back = tmp_path / "back.safetensors"
        swap_layers(finetuned, pretrained, [0, 1], scheme, ab, include_embeddings=True)
        swap_layers(ab, finetuned, [0, 1], scheme, back, include_embeddings=True)
        assert back.read_bytes() == finetuned.read_bytes()

        # (c) reverting every group yields the pretrained file
        full = tmp_path / "full.safetensors"
        revert_layers(finetuned, pretrained, ["embeddings", "heads", *range(12)], scheme, full)
        assert full.read_bytes() == pretrained.read_bytes()

        # (d) MAV(a, a) = 0 and MAV linearity to 1e-12 relative
        self_report = mav_report(finetuned, finetuned, scheme)
        assert self_report.global_variance == 0.0
        assert all(v == 0.0 for v in self_report.per_group.values())
        base_report = mav_report(finetuned, pretrained, scheme)
        doubled_path = tmp_path / "doubled.safetensors"
        with read_checkpoint(finetuned) as a_cp, read_checkpoint(pretrained) as b_cp:
            doubled_tensors = {}
            for entry in a_cp.entries:
                va = np.frombuffer(a_cp.tensor_bytes(entry.name), dtype="<f8")
                vb = np.frombuffer(b_cp.tensor_bytes(entry.name), dtype="<f8")
                doubled_tensors[entry.name] = ("F64", entry.shape, (va + 2.0 * (vb - va)).tobytes())
            write_checkpoint(doubled_path, doubled_tensors, metadata=a_cp.metadata)
        doubled_report = mav_report(finetuned, doubled_path, scheme)
        for key, value in base_report.per_group.items():
            assert math.isclose(doubled_report.per_group[key], 2 * value, rel_tol=1e-12)
        assert math.isclose(
            doubled_report.global_variance, 4 * base_report.global_variance, rel_tol=1e-12
        )

        # (e) tensors outside the selected groups are untouched (byte audit)
        out = tmp_path / "partial.safetensors"
        swap_layers(finetuned, pretrained, [4, 5], scheme, out)
        swapped = set()
        with read_checkpoint(finetuned) as cp, read_checkpoint(out) as result, read_checkpoint(pretrained) as donor:
            for g in (4, 5):
                swapped |= layer_group(scheme, g, cp.names())
            for name, _, _ in checkpoint_tensor_specs():
                expected = donor.tensor_bytes(name) if name in swapped else cp.tensor_bytes(name)
                assert result.tensor_bytes(name) == expected, name


# ---------------------------------------------------------------------------
# 8. End-to-end determinism of a pipeline run
# ---------------------------------------------------------------------------


def test_criterion_8_pipeline_determinism(tmp_path, monkeypatch):
    with criterion(8, "normalize -> noise -> evaluate rerun reproduces manifest and digests"):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "transcript.txt").write_text("vat'n  soL hassjt\n", encoding="utf-8")
        gold = Dataset(
            name="gold",
            utterances=tuple(
                Utterance(
                    id=f"s{i}-v{j}",
                    tokens=("minn", "mæ", "på", "møtet", f"kl{i}"),
                    slot_tags=("O", "O", "O", "B-reminder/todo", "B-datetime"),
                    intent="reminder/set_reminder",
                    variety="north" if j else "bokmål",
                )
                for i in range(10)
                for j in range(2)
            ),
        )
        (tmp_path / "gold.conll").write_text(write_dataset(gold), encoding="utf-8")
        config = {
            "steps": [
                {"name": "clean", "command": "normalize",
                 "args": {"in": "transcript.txt", "out": "clean.txt"}},
                {"name": "noise", "command": "noise",
                 "args": {"in": "gold.conll", "out": "noised.conll",
                          "fraction": 0.2, "alphabet-from": "clean.txt", "seed": 17}},
                {"name": "score", "command": "evaluate",
                 "args": {"gold": "gold.conll", "pred": "noised.conll",
                          "group-by": "variety", "out": "report.json"}},
            ]
        }
        (tmp_path / "pipe.json").write_text(json.dumps(config, indent=2), encoding="utf-8")

        assert run_pipeline(tmp_path / "pipe.json", tmp_path / "manifest.json") == 0
        first_manifest = (tmp_path / "manifest.json").read_bytes()
        first_digests = {
            name: sha256_file(tmp_path / name)
            for name in ("clean.txt", "noised.conll", "report.json")
        }

        assert run_pipeline(tmp_path / "pipe.json", tmp_path / "manifest.json") == 0
        assert (tmp_path / "manifest.json").read_bytes() == first_manifest
        for name, digest in first_digests.items():
            assert sha256_file(tmp_path / name) == digest, name

        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["intent_accuracy"] == 1.0  # noise never touches intents
        assert set(report["per_group"]) == {"bokmål", "north"}
