#!/usr/bin/env bash
# Offline preflight: build, test and lint the whole workspace.
#
# Everything runs against the vendored dependency shims in vendor/, so
# no network access is needed. Used standalone and as the preflight for
# scripts/run_experiments.sh; CI should run exactly this.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== vendor (every directory under vendor/ is a dependency of the workspace) =="
# A shim nothing depends on is dead weight that still reads as an
# approved dependency; the resolved graph is the judge, so a shim only
# another shim uses counts, and one merely listed under
# [workspace.dependencies] does not.
metadata=$(cargo metadata --offline --format-version 1)
for dir in vendor/*/; do
    if ! grep -qF "\"manifest_path\":\"$PWD/${dir}Cargo.toml\"" <<<"$metadata"; then
        echo "check.sh: ${dir%/} is not a dependency of any workspace manifest" >&2
        exit 1
    fi
done

echo "== build (release, deny warnings) =="
RUSTFLAGS="-D warnings" cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== arithmetic kernel (differential proptests against the naive oracle, 1024 cases) =="
PROPTEST_CASES=1024 cargo test -q --release -p drbac-bignum -p drbac-crypto

echo "== work ledger (a write costs what it changes: counts, no clock) =="
# `DelegationGraph::revoked_ids` copies every revocation mark the wallet
# ever recorded; only the whole-wallet rebuilds routed through planner.rs
# (the index rebuild and the image export) may pay that.
# Everything before a file's first #[cfg(test)] counts as a caller.
callers=$(find crates src -name '*.rs' ! -name planner.rs -print0 | xargs -0 awk '
    FNR == 1 { tests = 0 }
    /#\[cfg\(test\)\]/ { tests = 1 }
    !tests && /revoked_ids\(/ && !/fn revoked_ids\(/ && !/^[[:space:]]*\/\// {
        print FILENAME ":" FNR ": " $0
    }')
if [ -n "$callers" ]; then
    echo "check.sh: revoked_ids() has a non-test caller outside planner.rs:" >&2
    echo "$callers" >&2
    exit 1
fi
# Delegations, revocations and attribute declarations are one signed
# envelope (signed.rs), whose signature check is drbac-core's only
# two-argument `.verify(` call — `PublicKey::verify(msg, sig)`. A
# hand-rolled signed type would add a second.
sites=$(find crates/core/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { tests = 0 }
    /#\[cfg\(test\)\]/ { tests = 1 }
    !tests && (/\.verify\(.*,/ || /verify_with\(/) && !/^[[:space:]]*\/\// {
        print FILENAME ":" FNR ": " $0
    }')
if [ "$(grep -c . <<<"$sites")" -ne 1 ] || ! grep -q '^crates/core/src/signed\.rs:' <<<"$sites"; then
    echo "check.sh: PublicKey::verify must have exactly one caller in drbac-core, in signed.rs:" >&2
    echo "$sites" >&2
    exit 1
fi
cargo test -q --test work_ledger

echo "== chaos suite (seed matrix) =="
for seed in 1 2 3; do
    echo "-- DRBAC_CHAOS_SEED=$seed"
    DRBAC_CHAOS_SEED=$seed cargo test -q --test chaos
done

echo "== concurrency & proof-cache coherence (seed matrix) =="
for seed in 1 2 3; do
    echo "-- DRBAC_CHAOS_SEED=$seed"
    DRBAC_CHAOS_SEED=$seed cargo test -q --test concurrency --test proof_cache
done

echo "== index oracle (indexed boot vs full replay, seed matrix) =="
for seed in 1 2 3; do
    echo "-- DRBAC_CHAOS_SEED=$seed"
    DRBAC_CHAOS_SEED=$seed cargo test -q --test index_oracle
done

echo "== scenario soak (family × seed matrix on SimNet + one TCP federation) =="
for seed in 1 2 3; do
    echo "-- DRBAC_CHAOS_SEED=$seed"
    DRBAC_CHAOS_SEED=$seed cargo test -q --test distributed_soak --test scenario_determinism
done

echo "== bench smoke (proof engine + wallet ops + federation soak) =="
scripts/bench_record.sh all --smoke >/dev/null
test -s target/BENCH_proof_engine.smoke.json
test -s target/BENCH_wallet_ops.smoke.json
test -s target/BENCH_federation.smoke.json

echo "== perf guard (cold proof search vs committed artifact) =="
target/release/proof_engine_record --guard

echo "== boot guard (indexed wallet boot vs committed artifact) =="
target/release/wallet_ops_record --guard

echo "== benchmark selftest (all four workloads --quick, correctness oracles on) =="
bash benchmark/selftest.sh

echo "== durable store (unit suite + on-disk verify) =="
cargo test -q -p drbac-store
STORE_HOME="$(mktemp -d)"
trap 'rm -rf "$STORE_HOME"' EXIT
DRBAC="target/release/drbac"
for name in BigISP Mark Maria; do
    "$DRBAC" --home "$STORE_HOME" keygen "$name" >/dev/null
done
"$DRBAC" --home "$STORE_HOME" delegate "[Mark -> BigISP.memberServices] BigISP" >/dev/null
"$DRBAC" --home "$STORE_HOME" delegate "[BigISP.memberServices -> BigISP.member'] BigISP" >/dev/null
"$DRBAC" --home "$STORE_HOME" delegate "[Maria -> BigISP.member] Mark" >/dev/null
"$DRBAC" --home "$STORE_HOME" store verify
"$DRBAC" --home "$STORE_HOME" store compact >/dev/null
"$DRBAC" --home "$STORE_HOME" store verify
"$DRBAC" --home "$STORE_HOME" query Maria BigISP.member | grep -q GRANTED

echo "== tcp (loopback parity suite + shutdown accounting + serve/--remote round trip) =="
cargo test -q --test tcp_loopback --test wire_roundtrip --test daemon_shutdown
PORT=$((20000 + RANDOM % 20000))
"$DRBAC" --home "$STORE_HOME" serve "127.0.0.1:$PORT" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null; rm -rf "$STORE_HOME"' EXIT
for _ in $(seq 1 50); do
    "$DRBAC" --home "$STORE_HOME" --remote "127.0.0.1:$PORT" query Maria BigISP.member 2>/dev/null \
        | grep -q GRANTED && break
    sleep 0.1
done
"$DRBAC" --home "$STORE_HOME" --remote "127.0.0.1:$PORT" query Maria BigISP.member | grep -q GRANTED

echo "== observability (remote stats/health against the live daemon) =="
"$DRBAC" health "127.0.0.1:$PORT" | grep -q '^ok '
# The queries above were served over TCP, so the daemon-side service
# histogram must have a non-zero count in the remote scrape.
"$DRBAC" stats --remote "127.0.0.1:$PORT" \
    | grep -E 'drbac\.net\.tcp\.service\.ns +[1-9]' >/dev/null
kill "$SERVE_PID" 2>/dev/null
trap 'rm -rf "$STORE_HOME"' EXIT

echo "== docs (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "check.sh: all green"
