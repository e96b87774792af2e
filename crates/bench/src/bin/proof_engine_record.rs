//! Records the concurrent proof-engine benchmark into
//! `BENCH_proof_engine.json`.
//!
//! Two measurements, two workloads:
//!
//! * **Baseline workload** — 8 users × depth-4 role ladders, 32 shared
//!   keys, no attributes: the workload the pre-refactor 341,705 ns/query
//!   cold single-thread number was recorded on. Its cold single-thread
//!   row is the `cold_single_thread_vs_pre_pr` comparison and the perf
//!   guard's baseline.
//! * **Stress workload** — 8 users × depth-8 ladders with three parallel
//!   attribute-carrying delegations per rung (distinct BW/CPU trade-offs,
//!   so constrained search must carry Pareto-incomparable accumulator
//!   alternatives through every level — the frontier work the interned
//!   engine optimizes). Queries carry two loose constraints. The
//!   warm-amortization thread sweep (cache on) runs on this workload.
//!   Warm amortization is a ratio of miss cost to hit cost, so it is
//!   only a meaningful statistic while misses are expensive — on the
//!   baseline workload the interned engine drove misses so close to hit
//!   cost that the ratio dissolves into scheduler noise.
//!
//! The machine this runs on may have a single core, so the thread sweep
//! does not measure CPU parallelism: it is cache-sharing amortization.
//! More threads mean the one-off cold miss per key is amortized over
//! proportionally more served queries — the property the
//! revocation-coherent proof cache exists to provide.
//!
//! Methodology: every point is measured over several repetitions, each
//! against a freshly built world (so every rep starts truly cold), after
//! one discarded warm-up rep that absorbs one-time process costs
//! (allocator growth, lazy statics, page faults). The artifact records
//! min/mean/stddev per point; the headline `ns_per_query` is the mean,
//! while the cross-thread speedup ratio is computed from the minima,
//! which are stable under the strictly additive noise of a shared host.
//!
//! Usage: `proof_engine_record [--smoke] [--guard] [--out PATH]`.
//!
//! * `--smoke` shrinks rep/query counts so `scripts/check.sh` can
//!   exercise the pipeline quickly, skips the acceptance thresholds, and
//!   defaults the output to a throwaway path under `target/` so the
//!   committed full-run artifact is never clobbered.
//! * `--guard` records nothing: it takes a quick cold single-thread
//!   measurement on the baseline workload and fails (exit 1) if the min
//!   over its reps regressed more than 25% against the committed mean in
//!   `BENCH_proof_engine.json` — the perf tripwire in `scripts/check.sh`.
//!
//! A full run (no flags) writes `BENCH_proof_engine.json` and enforces
//! the acceptance thresholds: `cold_single_thread_vs_pre_pr ≥ 1.0`
//! (recorded as a speedup ratio over the pre-refactor baseline) and warm
//! 1→4 amortization ≥ 2.5x.

use std::hint::black_box;
use std::time::Instant;

use drbac_core::{
    AttrConstraint, AttrDeclaration, AttrOp, LocalEntity, Node, SignedAttrDeclaration, SimClock,
};
use drbac_crypto::SchnorrGroup;
use drbac_wallet::Wallet;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 2002;
const USERS: usize = 8;
const BASE_DEPTH: usize = 4;
const STRESS_DEPTH: usize = 8;
/// Parallel attribute-carrying delegations per stress-ladder rung.
const STRESS_FANOUT: u64 = 3;
/// Pre-refactor cold single-thread cost on the baseline workload (mean
/// of three runs: 315066 / 366206 / 343844 ns per query), kept as the
/// fixed baseline the recorded speedup ratio is computed against.
const PRE_PR_COLD_NS_PER_QUERY: f64 = 341_705.0;
/// `--guard` fails when cold single-thread is this much slower than the
/// committed artifact.
const GUARD_MAX_REGRESSION: f64 = 1.25;

struct World {
    wallet: Wallet,
    keys: Vec<(Node, Node)>,
    constraints: Vec<AttrConstraint>,
}

/// The pre-refactor baseline workload: each user holds a grant into the
/// bottom of a private depth-4 role ladder `lad{u}d0 → … → lad{u}d3`;
/// the keys are every (user, rung) pair.
fn build_world() -> World {
    let mut rng = StdRng::seed_from_u64(SEED);
    let g = SchnorrGroup::test_256();
    let owner = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let users: Vec<LocalEntity> = (0..USERS)
        .map(|u| LocalEntity::generate(format!("U{u}"), g.clone(), &mut rng))
        .collect();
    let wallet = Wallet::new("bench.proof-engine", SimClock::new());
    let mut keys = Vec::new();
    for (u, user) in users.iter().enumerate() {
        wallet
            .publish(
                owner
                    .delegate(
                        Node::entity(user),
                        Node::role(owner.role(&format!("lad{u}d0"))),
                    )
                    .sign(&owner)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        for d in 1..BASE_DEPTH {
            wallet
                .publish(
                    owner
                        .delegate(
                            Node::role(owner.role(&format!("lad{u}d{}", d - 1))),
                            Node::role(owner.role(&format!("lad{u}d{d}"))),
                        )
                        .sign(&owner)
                        .unwrap(),
                    vec![],
                )
                .unwrap();
        }
        for d in 0..BASE_DEPTH {
            keys.push((
                Node::entity(user),
                Node::role(owner.role(&format!("lad{u}d{d}"))),
            ));
        }
    }
    World {
        wallet,
        keys,
        constraints: Vec::new(),
    }
}

/// The stress workload: depth-8 ladders where every rung offers three
/// parallel delegations with incomparable (BW, CPU) trade-offs — BW
/// falls as CPU rises across the alternatives, and every (user, rung,
/// alternative) triple gets distinct values, so a constrained search
/// cannot collapse them and must carry Pareto-optimal accumulator sets
/// through all eight levels. Keys are the top four rungs of each ladder;
/// queries carry loose BW/CPU floor constraints so every alternative
/// stays admissible.
fn build_stress_world() -> World {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5717);
    let g = SchnorrGroup::test_256();
    let owner = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let users: Vec<LocalEntity> = (0..USERS)
        .map(|u| LocalEntity::generate(format!("S{u}"), g.clone(), &mut rng))
        .collect();
    let wallet = Wallet::new("bench.proof-engine.stress", SimClock::new());
    let bw = owner.attr("BW", AttrOp::Min);
    let cpu = owner.attr("CPU", AttrOp::Min);
    for attr in [&bw, &cpu] {
        wallet
            .publish_declaration(
                &SignedAttrDeclaration::sign(
                    AttrDeclaration::new(attr.clone(), 100_000.0).unwrap(),
                    &owner,
                )
                .unwrap(),
            )
            .unwrap();
    }
    let mut keys = Vec::new();
    for (u, user) in users.iter().enumerate() {
        wallet
            .publish(
                owner
                    .delegate(
                        Node::entity(user),
                        Node::role(owner.role(&format!("str{u}d0"))),
                    )
                    .sign(&owner)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        for d in 1..STRESS_DEPTH {
            for j in 0..STRESS_FANOUT {
                let tier = (u as u64) * 97 + (d as u64) * 13 + j * 311;
                wallet
                    .publish(
                        owner
                            .delegate(
                                Node::role(owner.role(&format!("str{u}d{}", d - 1))),
                                Node::role(owner.role(&format!("str{u}d{d}"))),
                            )
                            .serial(j)
                            .with_attr(bw.clone(), 90_000.0 - tier as f64)
                            .unwrap()
                            .with_attr(cpu.clone(), 10_000.0 + tier as f64)
                            .unwrap()
                            .sign(&owner)
                            .unwrap(),
                        vec![],
                    )
                    .unwrap();
            }
        }
        for d in STRESS_DEPTH - 4..STRESS_DEPTH {
            keys.push((
                Node::entity(user),
                Node::role(owner.role(&format!("str{u}d{d}"))),
            ));
        }
    }
    World {
        wallet,
        keys,
        constraints: vec![
            AttrConstraint::at_least(bw, 1_000.0),
            AttrConstraint::at_least(cpu, 1_000.0),
        ],
    }
}

/// Runs `threads` provers and returns (total queries, elapsed ns).
/// Each thread starts at a staggered offset in the key list, so a warm
/// cache fills from several directions.
fn run(world: &World, threads: usize, queries_per_thread: usize) -> (usize, u128) {
    let keys = &world.keys;
    let constraints = &world.constraints;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let wallet = world.wallet.clone();
            scope.spawn(move || {
                for i in 0..queries_per_thread {
                    let (subject, object) = &keys[(t * 7 + i) % keys.len()];
                    black_box(wallet.find_proof(subject, object, constraints));
                }
            });
        }
    });
    (threads * queries_per_thread, start.elapsed().as_nanos())
}

/// One measured (workload, threads) point, aggregated over reps.
struct Point {
    threads: usize,
    queries: usize,
    reps: usize,
    mean_ns: f64,
    min_ns: f64,
    stddev_ns: f64,
}

impl Point {
    fn qps(&self) -> f64 {
        1e9 / self.mean_ns
    }
}

/// Measures one point: one discarded warm-up rep, then `reps` measured
/// reps, each on a freshly built world so every rep starts cold and the
/// statistics are a pure function of the configuration.
fn measure<F: Fn() -> World>(
    build: &F,
    warm: bool,
    threads: usize,
    queries_per_thread: usize,
    reps: usize,
) -> Point {
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let world = build();
        world.wallet.set_query_cache(warm);
        let (queries, ns) = run(&world, threads, queries_per_thread);
        if rep == 0 {
            continue; // warm-up pass: absorbs one-time process costs
        }
        samples.push(ns as f64 / queries as f64);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    Point {
        threads,
        queries: threads * queries_per_thread,
        reps,
        mean_ns: mean,
        min_ns: min,
        stddev_ns: var.sqrt(),
    }
}

/// The warm-cache thread sweep.
fn warm_series<F: Fn() -> World>(build: &F, queries_per_thread: usize, reps: usize) -> Vec<Point> {
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| measure(build, true, threads, queries_per_thread, reps))
        .collect()
}

fn json_point(p: &Point) -> String {
    format!(
        "{{\"threads\": {}, \"queries\": {}, \"reps\": {}, \
         \"ns_per_query\": {:.0}, \"min_ns_per_query\": {:.0}, \
         \"stddev_ns_per_query\": {:.0}, \"queries_per_sec\": {:.1}}}",
        p.threads,
        p.queries,
        p.reps,
        p.mean_ns,
        p.min_ns,
        p.stddev_ns,
        p.qps()
    )
}

fn json_series(points: &[Point]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| format!("    {}", json_point(p)))
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// Reads `"cold_single_thread_ns_per_query": N` (the recorded mean) out
/// of the committed artifact without a JSON dependency.
fn committed_cold_mean_ns(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let field = "\"cold_single_thread_ns_per_query\":";
    let at = text.find(field)? + field.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `--guard`: quick cold single-thread tripwire against the committed
/// artifact, on the baseline workload. The statistics are asymmetric on
/// purpose: the probe takes its **min** over reps (noise is strictly
/// additive, so min filters out interference from this run) but compares
/// against the committed **mean** (which embeds the typical host noise of
/// the recording run). Min-vs-min is too tight — a sustained host
/// slowdown inflates even the minimum and would trip the guard without
/// any code regression; min-vs-mean keeps the 25% threshold pointed at
/// structural regressions.
fn run_guard() {
    let committed = committed_cold_mean_ns("BENCH_proof_engine.json").expect(
        "BENCH_proof_engine.json with cold_single_thread_ns_per_query \
         (run a full record first)",
    );
    let point = measure(&build_world, false, 1, 32, 5);
    let ratio = point.min_ns / committed;
    eprintln!(
        "perf guard: cold single-thread min {:.0} ns/query vs committed {:.0} ns/query ({:.2}x)",
        point.min_ns, committed, ratio
    );
    assert!(
        ratio <= GUARD_MAX_REGRESSION,
        "perf guard FAILED: cold single-thread proof search regressed {:.2}x \
         (> {GUARD_MAX_REGRESSION}x) against the committed BENCH_proof_engine.json \
         ({:.0} ns vs {:.0} ns). If the slowdown is intentional, re-record the \
         artifact with a full `scripts/bench_record.sh proof` run.",
        ratio,
        point.min_ns,
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
                // Never clobber the committed full-run artifact from a
                // smoke run.
                "target/BENCH_proof_engine.smoke.json".to_string()
            } else {
                "BENCH_proof_engine.json".to_string()
            }
        });

    let (warm_q, cold_q, reps) = if smoke { (24, 32, 1) } else { (64, 64, 5) };

    let warm = warm_series(&build_stress_world, warm_q, reps);
    let cold_base = measure(&build_world, false, 1, cold_q, reps);
    // The scaling ratio is computed from the per-point minima: scheduler
    // and frequency noise on a shared box is strictly additive, so the
    // min over reps is the stable estimate of each configuration's true
    // cost, where a mean ratio can swing ±40% run to run.
    let speedup_1_to_4 = warm[0].min_ns / warm[2].min_ns;
    // Speedup over the pre-refactor baseline, same workload both sides:
    // >1.0 means faster than the engine this PR series started from.
    let cold_vs_pre_pr = PRE_PR_COLD_NS_PER_QUERY / cold_base.mean_ns;

    let json = format!(
        "{{\n  \"bench\": \"proof_engine\",\n  \"seed\": {SEED},\n  \"smoke\": {smoke},\n  \
         \"baseline_workload\": {{\"users\": {USERS}, \"ladder_depth\": {BASE_DEPTH}, \"shared_keys\": {}}},\n  \
         \"stress_workload\": {{\"users\": {USERS}, \"ladder_depth\": {STRESS_DEPTH}, \"rung_fanout\": {STRESS_FANOUT}, \"constrained\": true, \"shared_keys\": {}}},\n  \
         \"warm_cache\": {},\n  \
         \"cold_baseline_single_thread\": {},\n  \
         \"warm_speedup_1_to_4_threads\": {speedup_1_to_4:.2},\n  \
         \"cold_single_thread_ns_per_query\": {:.0},\n  \
         \"cold_single_thread_min_ns_per_query\": {:.0},\n  \
         \"pre_pr_cold_single_thread_ns_per_query\": {PRE_PR_COLD_NS_PER_QUERY:.0},\n  \
         \"cold_single_thread_vs_pre_pr\": {cold_vs_pre_pr:.3}\n}}\n",
        USERS * BASE_DEPTH,
        USERS * 4,
        json_series(&warm),
        json_point(&cold_base),
        cold_base.mean_ns,
        cold_base.min_ns,
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    print!("{json}");

    if !smoke {
        assert!(
            cold_vs_pre_pr >= 1.0,
            "cold single-thread search must be at least as fast as the pre-refactor \
             baseline ({:.0} ns vs {PRE_PR_COLD_NS_PER_QUERY:.0} ns, \
             speedup {cold_vs_pre_pr:.3}x < 1.0x)",
            cold_base.mean_ns
        );
        assert!(
            speedup_1_to_4 >= 2.5,
            "warm-cache throughput must scale ≥2.5x from 1 to 4 threads (got {speedup_1_to_4:.2}x)"
        );
        eprintln!(
            "acceptance: cold single-thread {cold_vs_pre_pr:.3}x of pre-refactor baseline (≥1.0), \
             warm 1→4 amortization {speedup_1_to_4:.2}x (≥2.5)"
        );
    }
}
