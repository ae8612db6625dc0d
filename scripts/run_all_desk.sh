#!/bin/sh
# Run every desk-scale experiment end to end. Artifacts land in out/.
# Pass --paper-scale through to use the full-size m grids instead.
set -e

python3 scripts/make_phase_weights.py
python3 scripts/train_sweep_models.py

gcs --seed 11 --out-dir out/phase "$@" phase --config configs/phase_desk.json
gcs --seed 3 --out-dir out/sweep "$@" sweep --config configs/sweep_desk.json
gcs --seed 0 --out-dir out/subspace_rip "$@" subspace-rip \
    --unitary dct --n 256 --k 4 --m-list 32,64,128 --delta 0.4 --trials 300
gcs --seed 0 --out-dir out/rip "$@" rip \
    --weights out/desk/weights/g_w_low.json --unitary dct \
    --m-list 16,32,48,64 --delta 0.5 --chord-samples 200 --trials 100

echo "all desk experiments written under out/"
