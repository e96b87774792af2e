//! Records the coalition-scale federation soak into
//! `BENCH_federation.json`: every scenario family × a seed matrix, each
//! run three ways — pristine SimNet, SimNet under FaultPlan chaos
//! (seeded loss + jitter + a partition/heal and crash/restart cycle),
//! and a real multi-daemon TCP federation — with per-shape discovery
//! latency percentiles, wallets-contacted percentiles (overall and split
//! by decision — grant / deny / degraded, which cost very different
//! amounts), degraded rate, and revocation-propagation staleness.
//!
//! Full-run acceptance (enforced here, recorded by
//! `scripts/bench_record.sh federation`):
//!   * ≥ 6 families × ≥ 3 seeds, federation of ≥ 100 org wallets;
//!   * on every cell and substrate: zero unsound proofs, zero
//!     non-degraded oracle mismatches, zero termination failures, zero
//!     spurious terminations;
//!   * byte-identical proofs between pristine SimNet and TCP (equal
//!     timing-free decision digests) on every cell.
//!
//! Usage: `federation_record [--smoke] [--seed N] [--wallets N] [--out FILE]`.
//! Smoke mode (small worlds, one TCP cell, ~seconds) is what
//! `scripts/check.sh` runs; it writes to `target/BENCH_federation.smoke.json`
//! by default so the committed full-run artifact is never clobbered.

use drbac_scenario::{
    run_simnet, run_tcp, Decision, Family, LatencySummary, RunConfig, Scale, ScenarioSpec,
    SoakReport,
};

const DEFAULT_SEED: u64 = 2002;
const FULL_SEEDS: [u64; 3] = [1, 2, 3];
const FULL_WALLETS: usize = 100;
const SMOKE_TCP_WALLETS: usize = 8;

fn json_summary(l: &LatencySummary) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        l.count, l.p50, l.p90, l.p99, l.max
    )
}

/// `{"grant": {"discovery_ns": …, "wallets_contacted": …}, "deny": …, "degraded": …}`
fn json_by_decision(r: &SoakReport) -> String {
    let cells: Vec<String> = Decision::ALL
        .iter()
        .map(|&d| {
            format!(
                "\"{}\": {{\"discovery_ns\": {}, \"wallets_contacted\": {}}}",
                d.name(),
                json_summary(&r.latency_of(d)),
                json_summary(&r.wallets_contacted_of(d)),
            )
        })
        .collect();
    format!("{{{}}}", cells.join(",\n       "))
}

fn json_report(r: &SoakReport) -> String {
    format!(
        "    {{\"family\": \"{}\", \"seed\": {}, \"substrate\": \"{}\", \"wallets\": {}, \
         \"publishes\": {}, \"declarations\": {}, \"revocations\": {}, \"queries\": {}, \
         \"grants\": {}, \"denials\": {}, \"degraded_rate\": {:.4}, \
         \"hard_mismatches\": {}, \"degraded_mismatches\": {}, \"unsound\": {}, \
         \"monitors_opened\": {}, \"monitors_expected_dead\": {}, \"monitors_repaired\": {}, \
         \"termination_failures\": {}, \"spurious_terminations\": {}, \
         \"total_messages\": {}, \"push_messages\": {}, \"timeouts\": {}, \"retried_ops\": {}, \
         \"decision_digest\": \"{:016x}\",\n     \"discovery_ns\": {},\n     \
         \"wallets_contacted\": {},\n     \"by_decision\":\n      {},\n     \
         \"revocation_lag\": {}}}",
        r.family,
        r.seed,
        r.substrate,
        r.wallets,
        r.publishes,
        r.declarations,
        r.revocations,
        r.records.len(),
        r.grants(),
        r.denials(),
        r.degraded_rate(),
        r.hard_mismatches(),
        r.degraded_mismatches(),
        r.unsound,
        r.monitors_opened,
        r.monitors_expected_dead,
        r.monitors_repaired,
        r.termination_failures,
        r.spurious_terminations,
        r.total_messages,
        r.push_messages,
        r.timeouts,
        r.retried_ops,
        r.decision_digest(),
        json_summary(&r.latency()),
        json_summary(&r.wallets_contacted()),
        json_by_decision(r),
        json_summary(&r.revocation_lag),
    )
}

/// The invariants every cell must hold on every substrate.
fn assert_invariants(r: &SoakReport) {
    let cell = format!("{}/{}/{}", r.family, r.seed, r.substrate);
    assert_eq!(r.unsound, 0, "{cell}: unsound proofs");
    assert_eq!(r.hard_mismatches(), 0, "{cell}: non-degraded oracle divergence");
    assert_eq!(r.termination_failures, 0, "{cell}: sessions outlived revocation");
    assert_eq!(r.spurious_terminations, 0, "{cell}: live sessions terminated");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut seed = DEFAULT_SEED;
    let mut wallets = FULL_WALLETS;
    let mut out = if smoke {
        String::from("target/BENCH_federation.smoke.json")
    } else {
        String::from("BENCH_federation.json")
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--wallets" => {
                wallets = it.next().and_then(|v| v.parse().ok()).expect("--wallets N")
            }
            "--out" => out = it.next().expect("--out FILE").clone(),
            "--smoke" => {}
            other => {
                eprintln!(
                    "usage: federation_record [--smoke] [--seed N] [--wallets N] [--out FILE] \
                     (got {other:?})"
                );
                std::process::exit(2);
            }
        }
    }

    let seeds: Vec<u64> = if smoke { vec![seed] } else { FULL_SEEDS.to_vec() };
    let scale = if smoke {
        Scale::smoke()
    } else {
        Scale::federation(wallets)
    };

    let mut reports: Vec<SoakReport> = Vec::new();
    let mut parity_cells = 0usize;
    for family in Family::ALL {
        for &s in &seeds {
            let scenario = ScenarioSpec::new(family, s).with_scale(scale).generate();
            let clean = run_simnet(&scenario, &RunConfig::fault_free());
            assert_invariants(&clean);
            let chaos = run_simnet(&scenario, &RunConfig::chaos(s.wrapping_mul(31) ^ 5));
            assert_invariants(&chaos);
            // TCP on every full-run cell; smoke keeps TCP to its one
            // dedicated parity cell below.
            if !smoke {
                let tcp = run_tcp(&scenario).expect("tcp federation deploys");
                assert_invariants(&tcp);
                assert_eq!(
                    clean.decision_digest(),
                    tcp.decision_digest(),
                    "{family}/{s}: SimNet and TCP proofs diverged"
                );
                parity_cells += 1;
                reports.push(tcp);
            }
            eprintln!(
                "{family}/{s}: {} queries, {} grants, chaos degraded {:.2}, {} repaired",
                clean.records.len(),
                clean.grants(),
                chaos.degraded_rate(),
                chaos.monitors_repaired,
            );
            reports.push(clean);
            reports.push(chaos);
        }
    }

    // Smoke: one real-daemon federation cell, still parity-checked.
    if smoke {
        let scenario = ScenarioSpec::new(Family::CrossFederation, seed)
            .with_scale(Scale::federation(SMOKE_TCP_WALLETS))
            .generate();
        let clean = run_simnet(&scenario, &RunConfig::fault_free());
        let tcp = run_tcp(&scenario).expect("tcp federation deploys");
        assert_invariants(&clean);
        assert_invariants(&tcp);
        assert_eq!(
            clean.decision_digest(),
            tcp.decision_digest(),
            "smoke: SimNet and TCP proofs diverged"
        );
        parity_cells += 1;
        reports.push(clean);
        reports.push(tcp);
    }

    let json = format!(
        "{{\n  \"bench\": \"federation_soak\",\n  \"smoke\": {smoke},\n  \
         \"families\": {},\n  \"seeds\": {:?},\n  \"parity_cells\": {parity_cells},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        Family::ALL.len(),
        seeds,
        reports.iter().map(json_report).collect::<Vec<_>>().join(",\n"),
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("mkdir {dir:?}: {e}"));
        }
    }
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    print!("{json}");

    // Full-run acceptance floor.
    if !smoke {
        assert!(Family::ALL.len() >= 6, "≥ 6 topology families");
        assert!(seeds.len() >= 3, "≥ 3 seeds per family");
        assert!(
            reports.iter().any(|r| r.substrate == "tcp" && r.wallets >= 100),
            "a real TCP federation of ≥ 100 wallets"
        );
        assert_eq!(
            parity_cells,
            Family::ALL.len() * seeds.len(),
            "every cell parity-checked SimNet against TCP"
        );
    }
    eprintln!(
        "acceptance: {} cells across {} families × {} seeds, {} parity-checked, all invariants held",
        reports.len(),
        Family::ALL.len(),
        seeds.len(),
        parity_cells,
    );
}
