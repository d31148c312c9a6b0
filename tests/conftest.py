"""Shared helpers that make synthetic datasets and checkpoints, and a check that no test leaves a temp file."""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sidkit.corpus import Dataset, Utterance
from sidkit.surgery import write_checkpoint

NUMPY_DTYPES = {"F64": "<f8", "F32": "<f4", "F16": "<f2"}
BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(autouse=True)
def no_temp_file_left(tmp_path):
    """Fail a test that leaves a writer's temp file (``.<name>.<hex>.tmp``) under its ``tmp_path``.

    ``tmp_path`` is requested before the test runs: looking it up only at teardown is an error.
    """
    yield
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob(".*.tmp")) == []


def load_bench(name: str):
    """``bench/<name>.py`` loaded as module ``bench_<name>``, for tests that check sidkit against it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def exact_share(fraction: float, n: int) -> int:
    """Oracle for a noise or split count: ``fraction`` as written, times ``n``, rounded half up."""
    return math.floor(Fraction(str(fraction)) * n + Fraction(1, 2))


def make_utterance(i, tokens, tags, intent="intent/none", variety=None):
    return Utterance(
        id=str(i), tokens=tuple(tokens), slot_tags=tuple(tags), intent=intent, variety=variety
    )


def random_bio_tags(rng: random.Random, length: int, labels: list[str]) -> list[str]:
    """A well-formed BIO sequence drawn by a simple random walk."""
    tags = []
    open_label = None
    for _ in range(length):
        roll = rng.random()
        if open_label is not None and roll < 0.35:
            tags.append(f"I-{open_label}")
            continue
        if roll < 0.55:
            tags.append("O")
            open_label = None
        else:
            open_label = rng.choice(labels)
            tags.append(f"B-{open_label}")
    return tags


def random_corpus(
    rng: random.Random,
    size: int,
    labels: list[str],
    max_tokens: int = 10,
    varieties: list[str] | None = None,
) -> Dataset:
    utterances = []
    for i in range(size):
        n = rng.randint(1, max_tokens)
        tokens = ["tok%d" % rng.randint(0, 20) for _ in range(n)]
        utterances.append(
            Utterance(
                id=str(i),
                tokens=tuple(tokens),
                slot_tags=tuple(random_bio_tags(rng, n, labels)),
                intent=rng.choice(["intent/a", "intent/b"]),
                variety=rng.choice(varieties) if varieties else None,
            )
        )
    return Dataset(name="synthetic", utterances=tuple(utterances))


def checkpoint_tensor_specs(num_layers: int = 12, hidden: int = 4, dtype: str = "F32"):
    """Tensor (name, shape, dtype) layout of a small 12-layer encoder."""
    specs = [
        ("embeddings.word.weight", (8, hidden), dtype),
        ("embeddings.norm.bias", (hidden,), dtype),
    ]
    for i in range(num_layers):
        specs.append((f"encoder.layer.{i}.attention.weight", (hidden, hidden), dtype))
        specs.append((f"encoder.layer.{i}.ffn.weight", (hidden, 2 * hidden), dtype))
        specs.append((f"encoder.layer.{i}.norm.bias", (hidden,), dtype))
    specs.append(("classifier.weight", (3, hidden), dtype))
    specs.append(("classifier.bias", (3,), dtype))
    return specs


def make_checkpoint(path, seed: int, num_layers: int = 12, hidden: int = 4, dtype: str = "F32"):
    """Write a synthetic encoder checkpoint with seeded random parameters."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape, dt in checkpoint_tensor_specs(num_layers, hidden, dtype):
        data = rng.standard_normal(shape).astype(NUMPY_DTYPES[dt]).tobytes()
        tensors[name] = (dt, shape, data)
    write_checkpoint(path, tensors, metadata={"origin": "synthetic"})
    return path
