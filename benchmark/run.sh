#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it).
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh [--quick] [--seed <n>]     # every workload, untraced then traced
#
# Builds `drbac` (the root workspace) and the harness (this package)
# from source, pins the whole process tree — harness and the daemon it
# spawns — to one CPU (except `discovery`, see below), runs the harness,
# and leaves no process or scratch home behind on any exit path. The
# last line of stdout is the harness's result object.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

# One target directory for both builds: the driver's CARGO_TARGET_DIR
# (made absolute, cargo resolves a relative one against each manifest),
# else the repository's own target/.
target=${CARGO_TARGET_DIR:-target}
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# No root manifest (a directory holding only the benchmark): fail here,
# before anything could print a result.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin drbac >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# The daemon workloads run pinned to the highest CPU this process may
# use (CPU 0 takes most interrupts): two processes that the scheduler
# may or may not place on the same CPU answer strict queries in ~30 us
# or ~100 us from run to run. `discovery` runs on every allowed CPU: its
# ~400 in-process threads make one CPU's throughput a matter of
# scheduling luck (same seed: 91-132 queries/s), two CPUs are slower
# but repeatable (47-53). The harness records the CPUs it was allowed;
# without taskset everything runs unpinned and says so.
pin_for() {
    pin=()
    if [ "$1" != discovery ] && command -v taskset >/dev/null 2>&1; then
        cpu=$(grep Cpus_allowed_list /proc/self/status | grep -oE '[0-9]+' | tail -1)
        pin=(taskset -c "$cpu")
    fi
}

harness_pid=
cleanup() {
    if [ -n "$harness_pid" ]; then
        # The daemon is the harness's child; take both down.
        pkill -KILL -P "$harness_pid" 2>/dev/null || true
        kill -KILL "$harness_pid" 2>/dev/null || true
        rm -rf "$here/out/tmp-$harness_pid"
    fi
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# run_one <workload> <harness arguments...>
run_one() {
    pin_for "$1"
    shift
    "${pin[@]}" "$target/release/drbac-benchmark" \
        --drbac-bin "$target/release/drbac" --out "$here/out" "$@" &
    harness_pid=$!
    local status=0
    wait "$harness_pid" || status=$?
    cleanup
    harness_pid=
    return "$status"
}

workload=
args=("$@")
for i in "${!args[@]}"; do
    if [ "${args[$i]}" = --workload ]; then
        workload=${args[$((i + 1))]:-}
    fi
done
if [ -n "$workload" ]; then
    run_one "$workload" "$@"
else
    for workload in guard_strict coalition_mix front_door discovery; do
        for trace in 0 1; do
            run_one "$workload" --workload "$workload" --trace "$trace" "$@"
        done
    done
fi
