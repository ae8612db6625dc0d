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
# value of each, then per metric the medians, the parent's interquartile
# range (IQR) and the number of pairs in which the change is better.
#
# Last come three verdict lines per metric. The claim line, for a claim that
# the change improves the metric: whether the change is better in at least
# nine tenths of the pairs (9 of 10 seeds), and whether its median is better
# than the parent's by more than the parent's IQR; both must read "yes" for
# the claim to hold. The no-regression line: whether the change's median is
# worse than the parent's by at most bound x the parent's median; it reads
# "unresolved" when the parent's IQR over its median exceeds the bound, as
# the runs then spread too widely to tell. The separation line: whether
# every change run is better than every parent run, which still shows a
# real change where the runs spread wider than the bound. Calls nothing but
# perfbench.
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

python3 - "$rows" "$spec" <<'EOF'
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
verdicts = []
for m in metrics:
    name, bound = m["name"], m["bound"]
    sign = 1 if m["better"] == "lower" else -1  # the change is better where sign * (c - p) < 0
    parent = [runs[s]["parent"][name] for s in seeds]
    change = [runs[s]["change"][name] for s in seeds]
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
                 else parent * 3)
    p_med, c_med, iqr = statistics.median(parent), statistics.median(change), q3 - q1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    print(f"{name} ({m['better']} is better): parent median {p_med:.4g} "
          f"[IQR {q1:.4g}-{q3:.4g}], change median {c_med:.4g}, "
          f"change better in {wins}/{len(seeds)}")
    # + 0.0 prints a tie as 0, not -0.
    gain, worse = sign * (p_med - c_med) + 0.0, sign * (c_med - p_med) + 0.0
    verdicts.append(f"claim {name}: better in >= {need}/{len(seeds)} pairs: "
                    f"{'yes' if wins >= need else 'no'} ({wins}); median gain {gain:.4g} "
                    f"> parent IQR {iqr:.4g}: {'yes' if gain > iqr else 'no'}")
    allowed = bound * abs(p_med)
    held = "unresolved" if iqr > allowed else "yes" if worse <= allowed else "no"
    verdicts.append(f"no-regression {name}: median worse by {worse:.4g} <= {bound:g} x parent "
                    f"median {allowed:.4g}: {held}")
    c_worst, p_best = (max if sign > 0 else min)(change), (min if sign > 0 else max)(parent)
    verdicts.append(f"separation {name}: every change run better than every parent run "
                    f"(worst change {c_worst:.4g}, best parent {p_best:.4g}): "
                    f"{'yes' if sign * (c_worst - p_best) < 0 else 'no'}")
print("\n".join(verdicts))
EOF
