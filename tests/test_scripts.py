"""Smoke tests: the example sweep scripts run end to end against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_noise_sweep_writes_corpora_and_table(tmp_path):
    result = run_script("noise_sweep.py", "--sentences", "30", "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "clean.conll", "noised_00.conll", "noised_10.conll", "noised_20.conll",
        "noised_30.conll", "sweep.tsv",
    ]
    rows = (tmp_path / "sweep.tsv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "fraction\tmodified_rate\tsplit_word_ratio\tratio_difference"
    assert len(rows) == 5


def test_revert_sweep_writes_one_checkpoint_per_layer_pair(tmp_path):
    result = run_script("revert_sweep.py", "--hidden", "4", "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    expected = {"pretrained.safetensors", "finetuned.safetensors"}
    expected |= {f"reverted_{i}_{i + 1}.safetensors" for i in range(11)}
    assert {p.name for p in tmp_path.iterdir()} == expected
