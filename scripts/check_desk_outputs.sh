#!/bin/sh
# Check that the committed desk artifacts reproduce byte for byte.
#
# Regenerates the phase weights (scripts/make_phase_weights.py), retrains the
# sweep models (scripts/train_sweep_models.py) and reruns the phase, sweep,
# subspace-rip and rip lines of scripts/run_all_desk.sh into a temporary
# directory, then compares every weight file, model, CSV and SVG with out/.
# The phase line reads the regenerated weights and the sweep the retrained
# models, not the committed ones. Exits nonzero on any missing or differing
# file; out/ is never written.
# Run it from anywhere in a checkout; it uses the checkout's src/.
set -e

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
gcs() { python3 -m gcs.cli "$@"; }

python3 scripts/make_phase_weights.py --out-dir "$tmp/desk/weights" >/dev/null
python3 scripts/train_sweep_models.py --out-dir "$tmp/desk/models" >/dev/null
python3 - "$tmp" <<'EOF'
import json, sys
tmp = sys.argv[1]


def moved(path):
    return f"{tmp}/{path.removeprefix('out/')}"


with open("configs/phase_desk.json") as f:
    phase = json.load(f)
phase["inner_weights"] = [moved(p) for p in phase["inner_weights"]]
phase["w_high"], phase["w_low"] = moved(phase["w_high"]), moved(phase["w_low"])
with open("configs/sweep_desk.json") as f:
    sweep = json.load(f)
sweep["models"] = {k: moved(p) for k, p in sweep["models"].items()}
for name, cfg in [("phase_desk", phase), ("sweep_desk", sweep)]:
    with open(f"{tmp}/{name}.json", "w") as f:
        json.dump(cfg, f)
EOF

gcs --seed 11 --out-dir "$tmp/phase" phase --config "$tmp/phase_desk.json" >/dev/null
gcs --seed 3 --out-dir "$tmp/sweep" sweep --config "$tmp/sweep_desk.json" >/dev/null
gcs --seed 0 --out-dir "$tmp/subspace_rip" subspace-rip \
    --unitary dct --n 256 --k 4 --m-list 32,64,128 --delta 0.4 --trials 300 >/dev/null
gcs --seed 0 --out-dir "$tmp/rip" rip \
    --weights out/desk/weights/g_w_low.json --unitary dct \
    --m-list 16,32,48,64 --delta 0.5 --chord-samples 200 --trials 100 >/dev/null

status=0
for f in out/desk/weights/*.json out/desk/models/*.json out/phase/* out/sweep/* \
        out/subspace_rip/* out/rip/*; do
    if cmp "$f" "$tmp/${f#out/}"; then
        echo "same: $f"
    else
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "all desk outputs reproduce"
exit "$status"
