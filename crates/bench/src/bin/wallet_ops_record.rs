//! Records the indexed-wallet operations benchmark into
//! `BENCH_wallet_ops.json`: boot time and query latency at 10^4, 10^5,
//! and 10^6 delegations, indexed boot vs full journal replay.
//!
//! The world at each size is a wallet store whose log a checkpoint has
//! truncated, plus a current `FileTable`-backed delegation index — the
//! state a long-lived wallet is actually in when it restarts — and an
//! untruncated copy of the same log for the replay side. Worlds are
//! built by signing real certificates but *bypassing* `Wallet::publish`
//! (direct `WalletStore::append`, a bulk `DelegationIndex::rebuild`):
//! publish-side verification costs ~140 µs per certificate and would
//! turn a 10^6 build into a re-verification benchmark of its own.
//! Everything measured afterwards goes through the production paths.
//!
//! The workload shape keeps answers small while the world grows: 16
//! *probe* users hold 8 delegations each and 64 third-party grants ride
//! on one admin support, while the remaining bulk (the other 99.99% at
//! 10^6) belongs to other subjects. What the index buys is **cost
//! proportional to the answer, not the wallet**:
//!
//! * **indexed boot** — `DurableWallet::open_indexed`: index trailer
//!   read + a one-record log scan; milliseconds at any size, and the
//!   graph hydrates lazily from the index on demand.
//! * **indexed boot over a whole journal** (`boot_indexed_full_journal`)
//!   — the same boot over the untruncated log, every record at or below
//!   the watermark: the shape of a served home, which never checkpoints.
//!   The boot frames the whole journal and decodes none of it.
//! * **indexed boot with a 16k tail** (`boot_indexed_tail_16k`) — the
//!   checkpointed log plus 16,000 publishes above the watermark, which
//!   the boot decodes and applies to the index.
//! * **replay boot** — `DurableWallet::open` over the untruncated log:
//!   decodes and re-verifies every credential (~140 µs each ⇒ ~2
//!   minutes at 10^6).
//! * **queries** — `query_subject` on the probe users: the planner's
//!   prefix scans + neighborhood hydration (cold) vs the warm in-memory
//!   graph walk of a fully replayed wallet.
//! * **audit sweep** — `unsupported_third_party`: one `3/` prefix scan
//!   over the 65 third-party rows vs a full scan of every credential.
//!
//! Methodology: boots are measured over several repetitions against the
//! same prebuilt world (boot is read-only), after one discarded warm-up;
//! queries are averaged over a key sweep per repetition. The artifact
//! records min/mean/stddev per point; ratios are computed from means
//! because both sides of each ratio are measured in the same process
//! run. The replay boot at 10^6 runs once — it is two minutes long and
//! its magnitude, not its variance, is the result.
//!
//! Usage: `wallet_ops_record [--smoke] [--guard] [--out PATH]`.
//!
//! * `--smoke` builds one small world, skips the acceptance thresholds,
//!   and defaults the output to a throwaway path under `target/` —
//!   `scripts/check.sh` uses it as the index-boot smoke.
//! * `--guard` records nothing: it builds the 10^4 world, measures the
//!   indexed boot, and fails (exit 1) if the min over its reps
//!   regressed more than 50% against the committed
//!   `boot_indexed_guard_ms` mean in `BENCH_wallet_ops.json`. Boot is a
//!   millisecond-scale path, so the guard threshold is looser than the
//!   proof-engine guard's 25% — at this scale scheduler noise alone can
//!   move a single rep by tens of percent; 1.5x still catches the
//!   failure this guard exists for (an accidental return to O(wallet)
//!   boot, which is a >100x regression).
//!
//! A full run (no flags) writes `BENCH_wallet_ops.json` and enforces
//! the acceptance thresholds: indexed boot and warm indexed queries in
//! single-digit milliseconds at 10^6 delegations, and an indexed-boot
//! speedup of at least 100x over replay at every size.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use drbac_core::{LocalEntity, Node, SignedDelegation, SimClock};
use drbac_crypto::SchnorrGroup;
use drbac_index::{DelegationIndex, FileTable, RebuildSource};
use drbac_store::{MemMedium, StoreEvent, WalletStore};
use drbac_wallet::DurableWallet;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 2002;
/// Probe subjects: the users whose queries are measured.
const PROBE_USERS: usize = 16;
/// Delegations per probe user — the answer size every query pays for.
const PROBE_CERTS: usize = 8;
/// Bulk subjects the rest of the world is spread across.
const BULK_USERS: usize = 64;
/// Third-party grants riding on the admin support (audit candidates).
const AUDIT_TP: usize = 64;
/// `--guard` fails when the indexed boot is this much slower than the
/// committed artifact (see the module docs for why 1.5x, not 1.25x).
const GUARD_MAX_REGRESSION: f64 = 1.5;
/// Records above the watermark in the tail-boot row's journal.
const TAIL: usize = 16_000;

/// A prebuilt restart state: checkpointed store + current index media,
/// the whole log for the replay side, and the checkpointed log with
/// [`TAIL`] more records above the watermark.
struct World {
    store: Arc<WalletStore>,
    checkpointed: Arc<WalletStore>,
    tailed: Arc<WalletStore>,
    tab: MemMedium,
    probes: Vec<Node>,
    delegations: usize,
}

fn build_world(n: usize) -> World {
    let mut rng = StdRng::seed_from_u64(SEED);
    let g = SchnorrGroup::test_256();
    let owner = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let broker = LocalEntity::generate("Broker", g.clone(), &mut rng);
    let probe_users: Vec<LocalEntity> = (0..PROBE_USERS)
        .map(|u| LocalEntity::generate(format!("P{u}"), g.clone(), &mut rng))
        .collect();
    let bulk_users: Vec<LocalEntity> = (0..BULK_USERS)
        .map(|u| LocalEntity::generate(format!("W{u}"), g.clone(), &mut rng))
        .collect();

    let mut certs: Vec<Arc<SignedDelegation>> = Vec::with_capacity(n);
    // The admin grant the third-party certificates lean on: the audit
    // sweep finds it derivable, so the report stays empty on both the
    // indexed and the walk path.
    certs.push(Arc::new(
        owner
            .delegate(Node::entity(&broker), Node::role_admin(owner.role("tp")))
            .sign(&owner)
            .unwrap(),
    ));
    for i in 0..AUDIT_TP.min(n.saturating_sub(1)) {
        certs.push(Arc::new(
            broker
                .delegate(
                    Node::entity(&probe_users[i % PROBE_USERS]),
                    Node::role(owner.role("tp")),
                )
                .serial(i as u64)
                .sign(&broker)
                .unwrap(),
        ));
    }
    for (u, user) in probe_users.iter().enumerate() {
        for j in 0..PROBE_CERTS {
            if certs.len() >= n {
                break;
            }
            certs.push(Arc::new(
                owner
                    .delegate(
                        Node::entity(user),
                        Node::role(owner.role(&format!("p{u}x{j}"))),
                    )
                    .sign(&owner)
                    .unwrap(),
            ));
        }
    }
    // Bulk fill: every remaining delegation has its own role, so probe
    // neighborhoods stay the same size while the wallet grows.
    let mut i = 0usize;
    while certs.len() < n {
        certs.push(Arc::new(
            owner
                .delegate(
                    Node::entity(&bulk_users[i % BULK_USERS]),
                    Node::role(owner.role(&format!("b{i}"))),
                )
                .sign(&owner)
                .unwrap(),
        ));
        i += 1;
    }

    let store = Arc::new(WalletStore::in_memory());
    for cert in &certs {
        store
            .append(&StoreEvent::Publish(Arc::clone(cert)))
            .expect("bulk append");
    }
    // The checkpoint's log step, on a copy: everything but the anchor
    // record lives in the index rebuilt below.
    let checkpointed = Arc::new(WalletStore::from_log_bytes(
        store.log_bytes().expect("log bytes"),
    ));
    checkpointed
        .truncate_through(certs.len() as u64)
        .expect("checkpoint truncation");
    let tailed = Arc::new(WalletStore::from_log_bytes(
        checkpointed.log_bytes().expect("log bytes"),
    ));
    for i in 0..TAIL {
        let cert = owner
            .delegate(
                Node::entity(&bulk_users[i % BULK_USERS]),
                Node::role(owner.role(&format!("t{i}"))),
            )
            .sign(&owner)
            .unwrap();
        tailed
            .append(&StoreEvent::Publish(Arc::new(cert)))
            .expect("tail append");
    }

    let tab = MemMedium::new();
    let index = DelegationIndex::open(Box::new(
        FileTable::from_media(Box::new(tab.clone()), Box::new(MemMedium::new())).unwrap(),
    ))
    .expect("open index");
    index
        .rebuild(
            &RebuildSource {
                certs: &certs,
                supports: &[],
                declarations: &[],
                revoked: &[],
                absorbed: &[],
            },
            certs.len() as u64,
        )
        .expect("bulk index rebuild");

    World {
        store,
        checkpointed,
        tailed,
        tab,
        probes: probe_users.iter().map(Node::entity).collect(),
        delegations: certs.len(),
    }
}

fn open_index(world: &World) -> Arc<DelegationIndex> {
    Arc::new(
        DelegationIndex::open(Box::new(
            FileTable::from_media(Box::new(world.tab.clone()), Box::new(MemMedium::new())).unwrap(),
        ))
        .expect("reopen index"),
    )
}

/// min/mean/stddev over a sample set, in the sample's unit.
struct Stat {
    reps: usize,
    mean: f64,
    min: f64,
    stddev: f64,
}

fn stat(samples: &[f64]) -> Stat {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    Stat {
        reps: samples.len(),
        mean,
        min,
        stddev: var.sqrt(),
    }
}

fn json_stat(s: &Stat, unit: &str) -> String {
    format!(
        "{{\"reps\": {}, \"mean_{unit}\": {:.3}, \"min_{unit}\": {:.3}, \"stddev_{unit}\": {:.3}}}",
        s.reps, s.mean, s.min, s.stddev
    )
}

/// One discarded warm-up, then `reps` measured runs of `f` (ms each).
fn time_ms(reps: usize, mut f: impl FnMut()) -> Stat {
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let start = Instant::now();
        f();
        if rep > 0 {
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    stat(&samples)
}

/// Measures the indexed boot (index open + `open_indexed`) of the
/// checkpointed journal in ms.
fn boot_indexed_ms(world: &World, reps: usize) -> Stat {
    boot_indexed_over_ms(world, &world.checkpointed, 0, reps)
}

/// Measures the indexed boot over `journal`, which holds `tail` records
/// above the index's watermark, in ms.
fn boot_indexed_over_ms(
    world: &World,
    journal: &Arc<WalletStore>,
    tail: usize,
    reps: usize,
) -> Stat {
    time_ms(reps, || {
        let index = open_index(world);
        let (wallet, report) = DurableWallet::open_indexed(
            "bench.wallet-ops",
            SimClock::new(),
            Arc::clone(journal),
            index,
        )
        .expect("indexed boot");
        assert!(report.lazy, "a current index must boot on the fast path");
        assert_eq!(report.caught_up, tail, "the tail above the watermark");
        black_box(wallet);
    })
}

/// One measured size point.
struct SizePoint {
    delegations: usize,
    boot_indexed: Stat,
    boot_indexed_full_journal: Stat,
    boot_indexed_tail_16k: Stat,
    boot_replay: Stat,
    cold_query: Stat,
    query_indexed: Stat,
    query_walk: Stat,
    audit_indexed: Stat,
    audit_walk: Stat,
}

fn measure_size(n: usize, smoke: bool) -> SizePoint {
    eprintln!("building world: {n} delegations…");
    let world = build_world(n);
    let boot_reps = if smoke { 2 } else { 5 };
    // The replay boot re-verifies everything — at 10^6 one rep is ~2
    // minutes and its magnitude is the result, so it runs once there.
    let replay_reps = if smoke || n >= 1_000_000 { 1 } else { 2 };
    let query_sweeps = if smoke { 2 } else { 8 };

    let boot_indexed = boot_indexed_ms(&world, boot_reps);
    let boot_indexed_full_journal = boot_indexed_over_ms(&world, &world.store, 0, boot_reps);
    let boot_indexed_tail_16k = boot_indexed_over_ms(&world, &world.tailed, TAIL, boot_reps);

    // One indexed wallet for the query measurements.
    let (indexed, report) = DurableWallet::open_indexed(
        "bench.wallet-ops",
        SimClock::new(),
        Arc::clone(&world.checkpointed),
        open_index(&world),
    )
    .expect("indexed boot");
    assert!(report.lazy);

    // Cold first answers: each probe's first query pays the planner's
    // prefix scans plus neighborhood hydration from the index.
    let cold_samples: Vec<f64> = world
        .probes
        .iter()
        .map(|probe| {
            let start = Instant::now();
            black_box(indexed.query_subject(probe, &[]));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    let cold_query = stat(&cold_samples);

    let sweep_ns = |wallet: &DurableWallet, probes: &[Node]| -> f64 {
        let start = Instant::now();
        for probe in probes {
            black_box(wallet.query_subject(probe, &[]));
        }
        start.elapsed().as_nanos() as f64 / probes.len() as f64
    };
    let mut samples = Vec::new();
    for rep in 0..=query_sweeps {
        let ns = sweep_ns(&indexed, &world.probes);
        if rep > 0 {
            samples.push(ns);
        }
    }
    let query_indexed = stat(&samples);

    let audit_indexed = time_ms(if smoke { 2 } else { 3 }, || {
        black_box(indexed.unsupported_third_party());
    });

    // The replay side: boot (full re-verification), then the same
    // queries as warm in-memory graph walks.
    eprintln!("replay boot: {n} delegations × ~140 µs/cert…");
    let mut replay_samples = Vec::with_capacity(replay_reps);
    let mut replayed = None;
    for _ in 0..replay_reps {
        let start = Instant::now();
        let (wallet, _) = DurableWallet::open(
            "bench.wallet-ops",
            SimClock::new(),
            Arc::clone(&world.store),
        )
        .expect("replay boot");
        replay_samples.push(start.elapsed().as_secs_f64() * 1e3);
        replayed = Some(wallet);
    }
    let boot_replay = stat(&replay_samples);
    let replayed = replayed.expect("at least one replay rep");
    assert_eq!(
        replayed.len(),
        world.delegations,
        "replay recovered everything"
    );

    let mut samples = Vec::new();
    for rep in 0..=query_sweeps {
        let ns = sweep_ns(&replayed, &world.probes);
        if rep > 0 {
            samples.push(ns);
        }
    }
    let query_walk = stat(&samples);

    let audit_walk = time_ms(if smoke { 2 } else { 3 }, || {
        black_box(replayed.unsupported_third_party());
    });

    // Both routes must agree before either number means anything.
    assert_eq!(
        indexed.unsupported_third_party().len(),
        replayed.unsupported_third_party().len(),
        "audit answers diverged between index and walk"
    );

    SizePoint {
        delegations: world.delegations,
        boot_indexed,
        boot_indexed_full_journal,
        boot_indexed_tail_16k,
        boot_replay,
        cold_query,
        query_indexed,
        query_walk,
        audit_indexed,
        audit_walk,
    }
}

fn json_point(p: &SizePoint) -> String {
    let boot_speedup = p.boot_replay.mean / p.boot_indexed.mean;
    format!(
        "    {{\"delegations\": {}, \"boot_indexed\": {}, \
         \"boot_indexed_full_journal\": {}, \"boot_indexed_tail_16k\": {}, \
         \"boot_replay\": {}, \
         \"boot_speedup\": {:.1}, \"cold_query\": {}, \"query_indexed\": {}, \
         \"query_walk\": {}, \"audit_indexed\": {}, \"audit_walk\": {}}}",
        p.delegations,
        json_stat(&p.boot_indexed, "ms"),
        json_stat(&p.boot_indexed_full_journal, "ms"),
        json_stat(&p.boot_indexed_tail_16k, "ms"),
        json_stat(&p.boot_replay, "ms"),
        boot_speedup,
        json_stat(&p.cold_query, "ns"),
        json_stat(&p.query_indexed, "ns"),
        json_stat(&p.query_walk, "ns"),
        json_stat(&p.audit_indexed, "ms"),
        json_stat(&p.audit_walk, "ms"),
    )
}

/// Reads `"boot_indexed_guard_ms": N` out of the committed artifact
/// without a JSON dependency.
fn committed_guard_ms(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let field = "\"boot_indexed_guard_ms\":";
    let at = text.find(field)? + field.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `--guard`: quick indexed-boot tripwire at 10^4 against the committed
/// artifact — min over reps vs committed mean, as in the proof guard.
fn run_guard() {
    let committed = committed_guard_ms("BENCH_wallet_ops.json")
        .expect("BENCH_wallet_ops.json with boot_indexed_guard_ms (run a full record first)");
    let world = build_world(10_000);
    let point = boot_indexed_ms(&world, 5);
    let ratio = point.min / committed;
    eprintln!(
        "boot guard: indexed boot min {:.2} ms vs committed {:.2} ms ({ratio:.2}x)",
        point.min, committed
    );
    assert!(
        ratio <= GUARD_MAX_REGRESSION,
        "boot guard FAILED: indexed wallet boot regressed {ratio:.2}x \
         (> {GUARD_MAX_REGRESSION}x) against the committed BENCH_wallet_ops.json \
         ({:.2} ms vs {:.2} ms). If the slowdown is intentional, re-record the \
         artifact with a full `scripts/bench_record.sh wallet` run.",
        point.min,
        committed
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--guard") {
        run_guard();
        return;
    }
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            if smoke {
                // Never clobber the committed full-run artifact.
                "target/BENCH_wallet_ops.smoke.json".to_string()
            } else {
                "BENCH_wallet_ops.json".to_string()
            }
        });

    let sizes: &[usize] = if smoke {
        &[5_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let points: Vec<SizePoint> = sizes.iter().map(|&n| measure_size(n, smoke)).collect();

    let guard_ms = points[0].boot_indexed.mean;
    let last = points.last().expect("at least one size");
    let headline_speedup = last.boot_replay.mean / last.boot_indexed.mean;
    let rows: Vec<String> = points.iter().map(json_point).collect();
    let json = format!(
        "{{\n  \"bench\": \"wallet_ops\",\n  \"seed\": {SEED},\n  \"smoke\": {smoke},\n  \
         \"workload\": {{\"probe_users\": {PROBE_USERS}, \"probe_certs_each\": {PROBE_CERTS}, \
         \"third_party\": {AUDIT_TP}}},\n  \
         \"points\": [\n{}\n  ],\n  \
         \"boot_indexed_guard_ms\": {guard_ms:.3},\n  \
         \"headline_boot_speedup\": {headline_speedup:.1}\n}}\n",
        rows.join(",\n"),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    print!("{json}");

    if !smoke {
        for p in &points {
            let speedup = p.boot_replay.mean / p.boot_indexed.mean;
            assert!(
                speedup >= 100.0,
                "indexed boot must be ≥100x faster than replay at {} delegations \
                 (got {speedup:.1}x: {:.2} ms vs {:.2} ms)",
                p.delegations,
                p.boot_indexed.mean,
                p.boot_replay.mean
            );
        }
        assert!(
            last.boot_indexed.mean < 10.0,
            "indexed boot at {} delegations must be single-digit ms (got {:.2} ms)",
            last.delegations,
            last.boot_indexed.mean
        );
        assert!(
            last.query_indexed.mean < 10.0 * 1e6,
            "warm indexed queries at {} delegations must be single-digit ms \
             (got {:.0} ns)",
            last.delegations,
            last.query_indexed.mean
        );
        eprintln!(
            "acceptance: boot {:.2} ms and queries {:.0} ns at {} delegations, \
             boot speedup {headline_speedup:.0}x over replay (≥100x at every size)",
            last.boot_indexed.mean, last.query_indexed.mean, last.delegations
        );
    }
}
