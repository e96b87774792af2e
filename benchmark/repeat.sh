#!/usr/bin/env bash
# benchmark/repeat.sh N [--quick] — runs the full benchmark (every
# workload, untraced) N times back to back, each time with another
# seed, and prints per end-to-end metric × workload: min / median /
# max, the relative spread (interquartile range over median, as
# statistics.quantiles(values, n=4) gives it) and the metric's bound
# from BENCHMARK.json. Use N=5 or more to set or re-check the bounds:
# a spread above a third of its bound is flagged.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
n=${1:?usage: benchmark/repeat.sh N [--quick]}
shift
mkdir -p "$here/out"
log="$here/out/repeat-$$.jsonl"
: >"$log"
for i in $(seq 1 "$n"); do
    seed=$((2002 + 101 * i))
    for workload in $(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))"); do
        echo "repeat $i/$n: $workload seed $seed" >&2
        line=$(bash "$here/run.sh" --workload "$workload" --seed "$seed" --trace 0 "$@" 2>/dev/null | tail -1)
        echo "{\"workload\": \"$workload\", \"seed\": $seed, \"result\": $line}" >>"$log"
    done
done
python3 - "$root/BENCHMARK.json" "$log" <<'PY'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
runs = [json.loads(l) for l in open(sys.argv[2])]
print(f"{'workload':<14} {'metric':<16} {'min':>12} {'median':>12} {'max':>12} {'spread':>8} {'bound':>6}")
for w in spec["workloads"]:
    mine = [r["result"] for r in runs if r["workload"] == w["name"]]
    bad = [r for r in mine if not r["correct"]]
    for m in spec["end_to_end"]:
        v = [r["metrics"][m["name"]]["value"] for r in mine]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        flag = "" if spread * 3 <= m["bound"] or m["name"] == "setup_s" else "  <-- above a third of the bound"
        print(f"{w['name']:<14} {m['name']:<16} {min(v):>12.3f} {med:>12.3f} {max(v):>12.3f} {spread:>8.3f} {m['bound']:>6}{flag}")
    if bad:
        print(f"{w['name']}: {len(bad)} of {len(mine)} runs INCORRECT")
PY
echo "raw results: $log" >&2
