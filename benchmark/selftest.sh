#!/usr/bin/env bash
# benchmark/selftest.sh — runs the harness's unit tests, then the whole
# benchmark in --quick mode (tiny counts, same code paths and checks,
# bounds not enforced) and validates every result line against the
# names BENCHMARK.json declares: every declared metric × workload
# present with its unit, no undeclared name, every run correct.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

target=${CARGO_TARGET_DIR:-target}
case "$target" in /*) ;; *) target="$root/$target" ;; esac
CARGO_TARGET_DIR="$target" cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

mkdir -p "$here/out"
log="$here/out/selftest-$$.jsonl"
: >"$log"
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")
start=$(date +%s)
for workload in $workloads; do
    for trace in 0 1; do
        line=$(bash "$here/run.sh" --workload "$workload" --trace "$trace" --seed 7 --quick 2>/dev/null | tail -1)
        echo "{\"workload\": \"$workload\", \"trace\": $trace, \"result\": $line}" >>"$log"
        test -s "$here/out/result-$workload-trace$trace.json"
    done
    test -s "$here/out/trace-$workload.jsonl"
done
elapsed=$(($(date +%s) - start))

python3 - "$root/BENCHMARK.json" "$log" "$here/run.sh" <<'PY'
import json, re, sys
spec = json.load(open(sys.argv[1]))
runs = [json.loads(l) for l in open(sys.argv[2])]
errors = []
listed = re.search(r"for workload in ([a-z_ ]+); do", open(sys.argv[3]).read()).group(1).split()
declared = [w["name"] for w in spec["workloads"]]
if listed != declared:
    errors.append(f"run.sh lists workloads {listed}, BENCHMARK.json declares {declared}")
for r in runs:
    where = f"{r['workload']} --trace {r['trace']}"
    res = r["result"]
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(res)}")
        continue
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"{where}: correct={res['correct']} failed={res['failed']} attempted={res['attempted']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if r["trace"] else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    for name in want.keys() - got.keys():
        errors.append(f"{where}: declared metric {name} missing")
    for name in got.keys() - want.keys():
        errors.append(f"{where}: undeclared metric {name}")
    for name in want.keys() & got.keys():
        if want[name] != got[name]:
            errors.append(f"{where}: {name} printed in {got[name]}, declared in {want[name]}")
    if not r["trace"]:
        for name, v in res["metrics"].items():
            if not v["value"] > 0:
                errors.append(f"{where}: end-to-end metric {name} reads {v['value']}")
for e in errors:
    print("FAIL", e)
print(f"selftest: {len(runs)} runs, {len(errors)} problem(s)")
sys.exit(1 if errors else 0)
PY
echo "selftest: quick benchmark took ${elapsed}s" >&2
