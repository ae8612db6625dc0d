#!/bin/sh
# Paired benchmark runs of two checkouts of this repository.
#
#   sh scripts/bench_pairs.sh PARENT CHANGE WORKLOAD FIRST LAST
#
# For each seed S from FIRST to LAST, runs
#   python3 perfbench/run.py --workload WORKLOAD --seed S --seconds 30 --trace 0
# in the checkout PARENT and in the checkout CHANGE. The parent runs first on
# even seeds and the change on odd ones, so that a host whose speed drifts
# over minutes slows both sides alike. When all have run, prints per seed
# both sides' wall_s, setup_s, peak_rss_mb, failed_frac (failed over
# attempted operations) and success_frac, then per metric the medians, the
# parent's interquartile range and the number of pairs in which the change
# is lower. Calls nothing but perfbench.
set -e

if [ $# -ne 5 ]; then
    echo "usage: sh scripts/bench_pairs.sh PARENT CHANGE WORKLOAD FIRST LAST" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 first=$4 last=$5
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

# run SIDE DIR SEED: one perfbench run; appends "SEED SIDE <last JSON line>".
run() {
    line=$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds 30 --trace 0 | tail -n 1)
    echo "$3 $1 $line" >> "$rows"
}

for seed in $(seq "$first" "$last"); do
    if [ $((seed % 2)) -eq 0 ]; then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
done

python3 - "$rows" <<'EOF'
import json, statistics, sys
from collections import defaultdict

names = ("wall_s", "setup_s", "peak_rss_mb", "failed_frac", "success_frac")
runs = defaultdict(dict)
with open(sys.argv[1]) as f:
    for line in f:
        seed, side, out = line.split(" ", 2)
        out = json.loads(out)
        m = {k: v["value"] for k, v in out["metrics"].items()}
        m["failed_frac"] = out["failed"] / out["attempted"] if out["attempted"] else 1.0
        runs[seed][side] = m
seeds = sorted(runs, key=int)
for s in seeds:
    print(f"seed {s}: " + " | ".join(
        side + "".join(f" {name} {runs[s][side][name]:.6g}" for name in names)
        for side in ("parent", "change")))
for name in names:
    parent = [runs[s]["parent"][name] for s in seeds]
    change = [runs[s]["change"][name] for s in seeds]
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
                 else parent * 3)
    wins = sum(c < p for p, c in zip(parent, change))
    print(f"{name}: parent median {statistics.median(parent):.4g} [IQR {q1:.4g}-{q3:.4g}], "
          f"change median {statistics.median(change):.4g}, change lower in {wins}/{len(seeds)}")
EOF
