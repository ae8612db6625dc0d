#!/usr/bin/env python3
"""Generate the desk-scale weight pair for the phase-portrait experiment.

Produces one shared inner layer and two final layers over (k, k1, n) =
(4, 16, 64):

  * w_low  -- orthonormal Gaussian columns, spread out under the DCT
              (heuristic coherence ~0.64);
  * w_high -- the first 16 DCT basis vectors as columns, maximally aligned
              with the measurement rows (heuristic coherence 1.0).

Interpolating between them sweeps the coherence axis of the phase portrait.
Files land in out/desk/weights/ and are referenced by configs/phase_desk.json.
"""

import argparse
import os

import numpy as np

from gcs import coherence, gnn, sampling, transforms
from gcs.linops import qr_thin, save_matrix

K, K1, N = 4, 16, 64
SEED = 11


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/desk/weights")
    args = ap.parse_args()

    rng = sampling.derive_rng(SEED, 0)
    w1 = rng.standard_normal((K1, K)) / 2.0
    w_low = qr_thin(rng.standard_normal((N, K1)))
    u = transforms.dct2_operator(N)
    w_high = u.rows(np.arange(K1)).T.real.copy()

    os.makedirs(args.out_dir, exist_ok=True)
    for name, w in [("w1", w1), ("w_low", w_low), ("w_high", w_high)]:
        save_matrix(w, os.path.join(args.out_dir, f"{name}.json"))

    for name, w in [("w_low", w_low), ("w_high", w_high)]:
        net = gnn.GenerativeNetwork(weights=[w1, w])
        gnn.save_network(net, os.path.join(args.out_dir, f"g_{name}.json"))
        alpha = coherence.network_coherence_heuristic(net, u)
        print(f"{name}: heuristic coherence {alpha:.4f}")
    print(f"wrote {args.out_dir}/{{w1,w_low,w_high,g_w_low,g_w_high}}.json")


if __name__ == "__main__":
    main()
