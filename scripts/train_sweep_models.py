#!/usr/bin/env python3
"""Train the paired regularized/unregularized VAEs for the measurement sweep.

Both models share the architecture (8, 32, 64), the synthetic training set,
and the training seed; the only difference is the coherence regularizer
(weight 1e4, lambda 1) on the decoder's final layer, taken against the DCT.
Models land in out/desk/models/ and are referenced by configs/sweep_desk.json.
"""

import argparse
import os

import numpy as np

from gcs import coherence, training, transforms

ARCH = [8, 32, 64]
DATA_SEED = 5
TRAIN_SEED = 2
EPOCHS = 8


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/desk/models")
    args = ap.parse_args()

    u = transforms.dct2_operator(ARCH[-1])
    data = training.synth_dataset(ARCH[-1], 4, 2000, DATA_SEED)
    cfg = training.TrainConfig(epochs=EPOCHS, seed=TRAIN_SEED, d_op=u)

    os.makedirs(args.out_dir, exist_ok=True)
    for name, regularized in [("unreg", False), ("reg", True)]:
        model = training.train_vae(data, ARCH, "none", cfg, regularized=regularized)
        path = os.path.join(args.out_dir, f"{name}.json")
        training.save_vae(model, path)
        alpha = coherence.network_coherence_heuristic(model.decoder, u)
        print(f"{name}: final loss {model.loss_trace[-1]:.5g}, "
              f"heuristic coherence {alpha:.4f}, saved {path}")


if __name__ == "__main__":
    main()
