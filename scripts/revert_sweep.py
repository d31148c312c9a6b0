#!/usr/bin/env python3
"""Sequential-pair layer reverting on synthetic checkpoints, with MAV output.

Builds a synthetic "pretrained" 12-layer encoder checkpoint and a "fine-tuned"
one derived from it by perturbing each layer with a different magnitude. It
then produces one reverted checkpoint per sequential layer pair (0,1), (1,2),
..., (10,11) - the ablation used to pick swappable layers - and prints the
per-group mean absolute parameter change so the magnitudes can be eyeballed
against the sweep.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from sidkit.surgery import (
    NamingScheme,
    mav_report,
    read_checkpoint,
    revert_layers,
    write_checkpoint,
)


def build_pair(out_dir: Path, seed: int, num_layers: int, hidden: int):
    rng = np.random.default_rng(seed)
    pretrained = {}

    def add(name, shape):
        pretrained[name] = ("F32", shape, rng.standard_normal(shape).astype("<f4").tobytes())

    add("embeddings.word.weight", (32, hidden))
    add("embeddings.norm.bias", (hidden,))
    for i in range(num_layers):
        add(f"encoder.layer.{i}.attention.weight", (hidden, hidden))
        add(f"encoder.layer.{i}.ffn.weight", (hidden, 4 * hidden))
        add(f"encoder.layer.{i}.norm.bias", (hidden,))
    add("classifier.weight", (8, hidden))
    add("classifier.bias", (8,))

    pretrained_path = out_dir / "pretrained.safetensors"
    write_checkpoint(pretrained_path, pretrained)

    # fine-tuning drift: deeper layers move more, heads most of all
    finetuned = {}
    for name, (dtype, shape, data) in pretrained.items():
        values = np.frombuffer(data, dtype="<f4").copy()
        if name.startswith("encoder.layer."):
            layer = int(name.split(".")[2])
            scale = 0.01 * (layer + 1)
        elif name.startswith("classifier."):
            scale = 0.2
        else:
            scale = 0.005
        values += rng.standard_normal(values.shape).astype("<f4") * scale
        finetuned[name] = (dtype, shape, values.tobytes())
    finetuned_path = out_dir / "finetuned.safetensors"
    write_checkpoint(finetuned_path, finetuned)
    return pretrained_path, finetuned_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--num-layers", type=int, default=12)
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--out-dir", default="revert_sweep_out")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scheme = NamingScheme(num_layers=args.num_layers)

    pretrained, finetuned = build_pair(out_dir, args.seed, args.num_layers, args.hidden)
    report = mav_report(finetuned, pretrained, scheme)
    print("mean absolute change through fine-tuning, per group:")
    for key in sorted(report.per_group, key=lambda k: (len(k), k)):
        print(f"  {key:<12} {report.per_group[key]:.6f}")
    print(f"variance of parameter change: {report.global_variance:.3e}")
    print(f"parameters: {report.parameter_count}")

    print("\nreverting sequential layer pairs:")
    with read_checkpoint(pretrained) as original:
        for low in range(args.num_layers - 1):
            pair = (low, low + 1)
            out_path = out_dir / f"reverted_{low}_{low + 1}.safetensors"
            revert_layers(finetuned, original, list(pair), scheme, out_path)
            # reverted layers now match the pretrained bytes; spot-check one tensor
            name = f"encoder.layer.{low}.attention.weight"
            with read_checkpoint(out_path) as reverted:
                assert reverted.tensor_bytes(name) == original.tensor_bytes(name)
            print(f"  layers {pair} -> {out_path.name}")
    print("done.")


if __name__ == "__main__":
    main()
