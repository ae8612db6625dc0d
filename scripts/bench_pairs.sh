#!/bin/sh
# Paired benchmark runs of two checkouts of this repository.
#
#   sh scripts/bench_pairs.sh PARENT CHANGE WORKLOAD FIRST LAST
#
# For each seed S from FIRST to LAST, runs
#   python3 perfbench/run.py --workload WORKLOAD --seed S --seconds 30 --trace 0
# in the checkout PARENT and in the checkout CHANGE. The parent runs first on
# even seeds and the change on odd ones, so that a host whose speed drifts
# over minutes slows both sides alike. The end-to-end metrics, each with the
# direction in which it is better and its bound, are read from this
# checkout's BENCHMARK.json. When all have run, prints per seed both sides'
# value of each, and then, as its last line, one JSON object:
#   {"workload": WORKLOAD, "metrics": {NAME: {...}, ...}}
# Per metric it holds both medians ("parent_median", "change_median"), the
# parent's quartiles ("parent_q1", "parent_q3"; q3 - q1 is its interquartile
# range, IQR), the number of pairs in which the change is better ("wins")
# and the pair count ("pairs"), and three verdicts. "claim", for a claim
# that the change improves the metric: true when the change is better in at
# least nine tenths of the pairs (9 of 10 seeds) and its median is better
# than the parent's by more than the parent's IQR. "no_regression": true
# when the change's median is worse than the parent's by at most bound x the
# parent's median, and null (unresolved) when the parent's IQR exceeds that
# allowance, as the runs then spread too widely to tell. "separation": true
# when every change run is better than every parent run, which still shows
# a real change where the runs spread wider than the bound. Calls nothing
# but perfbench.
# A run that exits nonzero, or whose last line is not a JSON object with
# metrics, stops the script with status 1 before any summary.
set -e

if [ $# -ne 5 ]; then
    echo "usage: sh scripts/bench_pairs.sh PARENT CHANGE WORKLOAD FIRST LAST" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 first=$4 last=$5
spec="$(dirname "$0")/../BENCHMARK.json"
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

# run SIDE DIR SEED: one perfbench run; appends "SEED SIDE <last JSON line>".
run() {
    out=$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds 30 --trace 0) || failed "$@"
    line=$(printf '%s\n' "$out" | tail -n 1)
    printf '%s\n' "$line" |
        python3 -c 'import json, sys; json.load(sys.stdin)["metrics"].items()' 2>/dev/null ||
        failed "$@"
    echo "$3 $1 $line" >> "$rows"
}

failed() { echo "bench_pairs: $1 run in $2 failed at seed $3" >&2; exit 1; }

for seed in $(seq "$first" "$last"); do
    if [ $((seed % 2)) -eq 0 ]; then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
done

python3 - "$rows" "$spec" "$workload" <<'EOF'
import json, math, statistics, sys
from collections import defaultdict

with open(sys.argv[2]) as f:
    metrics = json.load(f)["end_to_end"]
runs = defaultdict(dict)
with open(sys.argv[1]) as f:
    for line in f:
        seed, side, out = line.split(" ", 2)
        runs[seed][side] = {k: v["value"] for k, v in json.loads(out)["metrics"].items()}
seeds = sorted(runs, key=int)
for s in seeds:
    print(f"seed {s}: " + " | ".join(
        side + "".join(f" {m['name']} {runs[s][side][m['name']]:.6g}" for m in metrics)
        for side in ("parent", "change")))
need = math.ceil(0.9 * len(seeds))
verdicts = {}
for m in metrics:
    name, bound = m["name"], m["bound"]
    sign = 1 if m["better"] == "lower" else -1  # the change is better where sign * (c - p) < 0
    parent = [runs[s]["parent"][name] for s in seeds]
    change = [runs[s]["change"][name] for s in seeds]
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
                 else parent * 3)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    allowed = bound * abs(p_med)
    c_worst, p_best = (max if sign > 0 else min)(change), (min if sign > 0 else max)(parent)
    verdicts[name] = {
        "parent_median": p_med, "change_median": c_med, "parent_q1": q1, "parent_q3": q3,
        "wins": wins, "pairs": len(seeds),
        "claim": wins >= need and sign * (p_med - c_med) > q3 - q1,
        "no_regression": None if q3 - q1 > allowed else sign * (c_med - p_med) <= allowed,
        "separation": sign * (c_worst - p_best) < 0,
    }
print(json.dumps({"workload": sys.argv[3], "metrics": verdicts}))
EOF
