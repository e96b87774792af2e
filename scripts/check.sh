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
# ever recorded; only the whole-wallet copies routed through planner.rs
# (the index rebuild and a prepopulated SimNet host's journal) may pay
# that.
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
# F-A measures search direction on the shipped discovery path
# (`drbac_baselines::direction`); the in-memory strategy loops it replaced
# stay gone. Whole words only: drbac-graph has an unrelated unit test
# named `reverse_search_respects_depth_limits`.
strategy=$( (find crates src tests -name strategy.rs
    grep -rnwE 'forward_search|reverse_search|bidirectional_search|StrategyStats' crates src tests) || true)
if [ -n "$strategy" ]; then
    echo "check.sh: the duplicate search-direction implementation is back:" >&2
    echo "$strategy" >&2
    exit 1
fi
# Depth limits across wallets are one generated family (`deep-ladder`),
# not a second, hand-built scenario layer beside crates/scenario.
federation=$( (find crates/disco/src/federation.rs examples/federation.rs 2>/dev/null
    grep -rnw FederationScenario crates src tests examples) || true)
if [ -n "$federation" ]; then
    echo "check.sh: the hand-built federation scenario is back:" >&2
    echo "$federation" >&2
    exit 1
fi
# A credential's dependents live in one index (crates/wallet/src/
# dependents.rs), remote subscribers included, and every death fans out
# from `Wallet::push_event`, taking the id's dependents, so no loop guard
# is needed: the wallet's separate subscription and monitor registries,
# the host's seen-events set, the daemon's uncalled broadcast, and the
# host-side registry with its fan-out (`HostCore`, `Fanout`,
# `originate`, `relay`) stay gone.
dependents=$( (grep -rnwE 'seen_events|originate_once|broadcast_invalidation' crates src tests examples
    grep -rnE 'struct (HostCore|Fanout)\b|fn (originate|relay)\b' crates/net/src
    awk '/^pub\(crate\) struct WalletState \{/ { body = 1 }
        body && /^[[:space:]]*(pub(\(crate\))?[[:space:]]+)?(subscriptions|monitors)[[:space:]]*:/ {
            print FILENAME ":" FNR ": " $0
        }
        body && /^\}/ { body = 0 }' crates/wallet/src/wallet.rs) || true)
if [ -n "$dependents" ]; then
    echo "check.sh: a second dependents registry or the push loop guard is back:" >&2
    echo "$dependents" >&2
    exit 1
fi
# One role gate: `ProtectedResource` hands out the only monitored
# session, local or remote. The switchboard's channel with its
# illustrative cipher, in-process handshake and channel key, and the HMAC
# and Diffie–Hellman helpers only it used, stay gone.
gate=$( (find crates src tests examples -name switchboard.rs
    grep -rnE 'struct (Switchboard|Channel)\b|ChannelError|hmac_sha256|fn shared_secret' \
        crates src tests examples) || true)
if [ -n "$gate" ]; then
    echo "check.sh: the switchboard or its channel crypto is back:" >&2
    echo "$gate" >&2
    exit 1
fi
# One cold-query path: `Wallet::cached_answer` looks the answer up,
# captures the cache epoch, plans, searches, validates and inserts. The
# singleflight (its flight table, drop guard and condvar), its counter
# and the scheduler yields it put on every cache miss stay gone.
flight=$( (grep -rnE 'struct Flight\b|FlightGuard|FlightOutcome|flight_answer_fresh|query\.coalesced\.count' \
        crates src tests examples
    grep -rn 'yield_now' crates/wallet/src) || true)
if [ -n "$flight" ]; then
    echo "check.sh: the wallet's singleflight or a cold-path yield is back:" >&2
    echo "$flight" >&2
    exit 1
fi
# The ledger also fails when EXPERIMENTS.md's F-A block (between its
# markers) differs from what `direction::render` prints.
cargo test -q --test work_ledger
# A served answer is held once (the ledger's memory rows measure it):
# the proof cache reads the ids an answer depends on from its proof,
# and an index block is cached as read, its bytes plus entry offsets.
# The per-answer id set and the block parsed into a key and a value
# vector per entry stay gone.
held=$( (grep -HnE 'BTreeSet<DelegationId>' crates/wallet/src/cache.rs
    grep -HnE 'Vec<\(Vec<u8>, *Vec<u8>\)>' crates/index/src/file.rs) || true)
if [ -n "$held" ]; then
    echo "check.sh: a cached answer's id set or a parsed index block is back:" >&2
    echo "$held" >&2
    exit 1
fi

echo "== one checkpoint, two formats (no snapshot image, no wallet image, no unread index rows) =="
# The delegation index's base run is a durable home's only checkpoint.
# The snapshot image, its framing and its boot branch are gone; the
# pattern names only them (`NetStats::from_snapshot` reads the metrics
# registry and is unrelated).
stale=$(grep -rnE 'install_snapshot|read_snapshot|SNAPSHOT_MAGIC|report\.from_snapshot|"from_snapshot"|snapshot\.bin' crates || true)
if [ -n "$stale" ]; then
    echo "check.sh: the snapshot image is back under crates/:" >&2
    echo "$stale" >&2
    exit 1
fi
# The journal is the index's delta: the index writes no log of its own,
# so the delta log's framing, its magic, its power-loss hook and the
# table flush that synced it stay gone. (`DelegationIndex::flush` stays
# as a documented no-op.)
delta_log=$( (grep -rnE 'INDEX_LOG_MAGIC|drbacIL1|fn lose_unsynced' crates/index
    grep -nE 'fn flush' crates/index/src/table.rs) || true)
if [ -n "$delta_log" ]; then
    echo "check.sh: the index's delta log is back:" >&2
    echo "$delta_log" >&2
    exit 1
fi
cargo test -q --test checkpoint_crash
# The wallet persists two formats, the journal and an index holding only
# what a named read path uses. The retired index rows (`d/` metadata,
# `i/` issuer, `g/` tag home), their readers and the wallet image format
# stay gone. `issuer_key` alone names the signed envelope's public key,
# so the index's key builder is matched by its path and signature.
retired=$(grep -rnE '\bCertRow\b|keys::issuer_key|fn issuer_key\(issuer|\btag_key\b|\bids_by_issuer\b|\bids_by_tag\b|\bquery_issuer\b|\bexport_bytes\b|\bimport_bytes\b|\bImportReport\b|drbac-wallet-v1' crates src tests || true)
if [ -n "$retired" ]; then
    echo "check.sh: a retired index row or the wallet image format is back:" >&2
    echo "$retired" >&2
    exit 1
fi

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

echo "== federation record (a full run's timing-free fields equal the committed artifact) =="
# Every cell's decision digest, counts and wallets-contacted summaries;
# a simnet+chaos cell's fault-driven counts excepted (federation_record.rs
# says why). A change that moves the walk on purpose re-records the file
# with `scripts/bench_record.sh federation`.
target/release/federation_record --out target/BENCH_federation.check.json \
    --check BENCH_federation.json >/dev/null

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
"$DRBAC" --home "$STORE_HOME" store compact | grep -q 'log truncated through seq 3'
"$DRBAC" --home "$STORE_HOME" store verify
test ! -e "$STORE_HOME/store/snapshot.bin"
test "$(ls "$STORE_HOME/index")" = "$(printf 'index.prev\nindex.tab')"
"$DRBAC" --home "$STORE_HOME" query Maria BigISP.member | grep -q GRANTED

echo "== tcp (loopback parity suite + shutdown accounting + serve/--remote round trip) =="
# A daemon connection's out-queue carries only pushes: every reply is
# written by its connection's reader, and only push-registered
# connections run the writer pump that drains the queue. So the only
# caller of `Conn::send`/`send_batch` is the push fan-out, the daemon's
# sink `PushLinks::push`. `Conn` is private to daemon.rs.
senders=$(awk '
    /#\[cfg\(test\)\]/ { exit }
    match($0, /fn [a-z_0-9]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
    /\.send(_batch)?\(/ && !/^[[:space:]]*\/\// && cur != "push" {
        print FILENAME ":" FNR ": " $0
    }' crates/net/src/daemon.rs)
if [ -n "$senders" ]; then
    echo "check.sh: Conn::send/send_batch has a caller other than PushLinks::push:" >&2
    echo "$senders" >&2
    exit 1
fi
# The daemon serves every request on its connection's reader, so TCP flow
# control is its backpressure: the worker pool, its job queue and the
# overload reply stay gone.
pool=$(grep -rnwE 'JobQueue|worker_loop|is_overload|OVERLOAD_PREFIX|queue_capacity' crates src tests examples || true)
if [ -n "$pool" ]; then
    echo "check.sh: the daemon's worker pool or overload reply is back:" >&2
    echo "$pool" >&2
    exit 1
fi
# One frame format, and only wire.rs knows its layout: the retired
# version constants stay gone, and no non-test code elsewhere builds,
# sizes or peeks a frame header itself.
retired=$(grep -rnE 'WIRE_VERSION_(TRACED|MUX)' crates src tests || true)
if [ -n "$retired" ]; then
    echo "check.sh: a retired wire version is back:" >&2
    echo "$retired" >&2
    exit 1
fi
layout=$(find crates src -name '*.rs' ! -path crates/net/src/wire.rs -print0 | xargs -0 awk '
    FNR == 1 { tests = 0 }
    /#\[cfg\(test\)\]/ { tests = 1 }
    !tests && /FRAME_MAGIC|FRAME_HEADER_LEN|buffered_frame_len|b"dRBW"/ && !/^[[:space:]]*\/\// {
        print FILENAME ":" FNR ": " $0
    }')
if [ -n "$layout" ]; then
    echo "check.sh: the frame layout is used outside crates/net/src/wire.rs:" >&2
    echo "$layout" >&2
    exit 1
fi
# SimNet carries frames: every request, reply and push crosses as the
# frame wire.rs builds and parses, so the network keeps no size estimate
# and an in-flight push holds frame bytes, never a decoded `OneWay`.
estimates=$(grep -rn 'encoded_len' crates/net/src || true)
if [ -n "$estimates" ]; then
    echo "check.sh: a wire size estimate is back in crates/net (SimNet counts frame bytes):" >&2
    echo "$estimates" >&2
    exit 1
fi
sim_code=$(awk '/#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' crates/net/src/sim.rs)
for decoder in decode_request decode_reply decode_push; do
    if ! grep -q "wire::$decoder(" <<<"$sim_code"; then
        echo "check.sh: SimNet no longer parses its frames with wire::$decoder" >&2
        exit 1
    fi
done
envelope=$(awk '/^struct Envelope \{/ { body = 1 } body { print } body && /^\}/ { exit }' crates/net/src/sim.rs)
if grep -q 'OneWay' <<<"$envelope"; then
    echo "check.sh: SimNet's Envelope holds a OneWay value instead of a push frame" >&2
    exit 1
fi
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

echo "== fmt (the workspace is rustfmt-clean) =="
cargo fmt --all --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings
# Tests, benches and examples too; the vendored shims are not linted.
cargo clippy --workspace --all-targets --exclude proptest --exclude rand --exclude criterion \
    --exclude parking_lot -- -D warnings

echo "check.sh: all green"
