#!/usr/bin/env bash
# Records the benchmark artifacts at the repo root:
#   proof  -> BENCH_proof_engine.json  (proof-query throughput at
#             1/2/4/8 prover threads, cold vs warm proof cache)
#   wallet -> BENCH_wallet_ops.json    (indexed boot + query latency vs
#             journal replay / graph walk at 10^4..10^6 delegations)
#   federation -> BENCH_federation.json (coalition-scale soak: every
#             scenario family × seed matrix on pristine SimNet, chaos
#             SimNet, and a ≥100-daemon TCP federation, with oracle
#             equivalence and cross-substrate proof parity enforced)
#
# Usage: scripts/bench_record.sh [proof|wallet|federation|all] [--smoke]
#   --smoke   tiny op counts, no acceptance thresholds — used by
#             scripts/check.sh to keep the pipeline honest and fast.
#             Smoke runs write to throwaway paths so the committed
#             full-run artifacts are never clobbered.
#
# A full run (no flag) also enforces each benchmark's acceptance
# thresholds (see the respective bin's doc comment).

set -euo pipefail
cd "$(dirname "$0")/.."

target="all"
smoke=""
for arg in "$@"; do
    case "$arg" in
        proof|wallet|federation|all) target="$arg" ;;
        --smoke) smoke="--smoke" ;;
        *) echo "usage: scripts/bench_record.sh [proof|wallet|federation|all] [--smoke]" >&2; exit 2 ;;
    esac
done

if [[ "$target" == "proof" || "$target" == "all" ]]; then
    cargo build --release -p drbac-bench --bin proof_engine_record
    target/release/proof_engine_record $smoke
fi

if [[ "$target" == "wallet" || "$target" == "all" ]]; then
    cargo build --release -p drbac-bench --bin wallet_ops_record
    target/release/wallet_ops_record $smoke
fi

if [[ "$target" == "federation" || "$target" == "all" ]]; then
    cargo build --release -p drbac-bench --bin federation_record
    # Smoke writes to target/BENCH_federation.smoke.json by default, so
    # the committed full-run artifact is never clobbered.
    target/release/federation_record $smoke
fi
