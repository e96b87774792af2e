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
//! Usage: `federation_record [--smoke] [--seed N] [--wallets N] [--out FILE]
//! [--check FILE]`. Smoke mode (small worlds, one TCP cell, ~seconds)
//! writes to `target/BENCH_federation.smoke.json` by default so the
//! committed full-run artifact is never clobbered.
//!
//! `--check FILE` compares the run's timing-free fields, cell by cell,
//! with a recorded artifact and exits 1 on any difference —
//! `scripts/check.sh` holds a full run to the committed file this way.
//! Latencies and revocation lag are clocks and are never compared. Of a
//! `simnet+chaos` cell only what the faults cannot move is compared: its
//! message, timeout, retry, push and repair counts and its degraded
//! split have differed between machines for the same commit and seed
//! (every decision digest agreeing), and the cause is not known.

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

/// The scalar fields `json_report` writes for a cell.
const SCALARS: [&str; 24] = [
    "family",
    "seed",
    "substrate",
    "wallets",
    "publishes",
    "declarations",
    "revocations",
    "queries",
    "grants",
    "denials",
    "degraded_rate",
    "hard_mismatches",
    "degraded_mismatches",
    "unsound",
    "monitors_opened",
    "monitors_expected_dead",
    "monitors_repaired",
    "termination_failures",
    "spurious_terminations",
    "total_messages",
    "push_messages",
    "timeouts",
    "retried_ops",
    "decision_digest",
];

/// The scalars of a `simnet+chaos` cell that do not reproduce from one
/// machine to another.
const CHAOS_DRIFT: [&str; 7] = [
    "degraded_rate",
    "degraded_mismatches",
    "monitors_repaired",
    "total_messages",
    "push_messages",
    "timeouts",
    "retried_ops",
];

/// The scalar after `"key": `, if `key` occurs.
fn field<'a>(cell: &'a str, key: &str) -> Option<&'a str> {
    let at = cell.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &cell[at..];
    Some(&rest[..rest.find([',', '}', '\n']).unwrap_or(rest.len())])
}

/// A cell's timing-free fields as `key = value` lines: the compared
/// scalars, then every `wallets_contacted` summary (overall first, then
/// per decision unless the cell ran under chaos).
fn timing_free(cell: &str) -> Vec<String> {
    let chaos = field(cell, "substrate") == Some("\"simnet+chaos\"");
    let mut out: Vec<String> = SCALARS
        .iter()
        .filter(|key| !(chaos && CHAOS_DRIFT.contains(key)))
        .map(|key| format!("{key} = {}", field(cell, key).unwrap_or("missing")))
        .collect();
    let summaries = cell.split("\"wallets_contacted\": ").skip(1);
    for (i, summary) in summaries.take(if chaos { 1 } else { 4 }).enumerate() {
        let end = summary.find('}').map_or(summary.len(), |e| e + 1);
        out.push(format!("wallets_contacted[{i}] = {}", &summary[..end]));
    }
    out
}

/// The cells of an artifact's text, in order.
fn cells(json: &str) -> Vec<&str> {
    let starts: Vec<usize> = json
        .match_indices("{\"family\": ")
        .map(|(at, _)| at)
        .collect();
    let ends = starts.iter().skip(1).copied().chain([json.len()]);
    starts
        .iter()
        .zip(ends)
        .map(|(&at, end)| &json[at..end])
        .collect()
}

/// Every timing-free difference between a run and a recorded artifact.
fn differences(run: &str, recorded: &str) -> Vec<String> {
    let (run, recorded) = (cells(run), cells(recorded));
    let mut out = Vec::new();
    if run.len() != recorded.len() {
        out.push(format!("{} cells, recorded {}", run.len(), recorded.len()));
    }
    for (new, old) in run.iter().zip(&recorded) {
        let (new, old) = (timing_free(new), timing_free(old));
        let name = new[..3].join(" ");
        for (n, o) in new.iter().zip(&old) {
            if n != o {
                out.push(format!("{name}: {n}, recorded {o}"));
            }
        }
    }
    out
}

/// The invariants every cell must hold on every substrate.
fn assert_invariants(r: &SoakReport) {
    let cell = format!("{}/{}/{}", r.family, r.seed, r.substrate);
    assert_eq!(r.unsound, 0, "{cell}: unsound proofs");
    assert_eq!(
        r.hard_mismatches(),
        0,
        "{cell}: non-degraded oracle divergence"
    );
    assert_eq!(
        r.termination_failures, 0,
        "{cell}: sessions outlived revocation"
    );
    assert_eq!(
        r.spurious_terminations, 0,
        "{cell}: live sessions terminated"
    );
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
    let mut check = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = Some(it.next().expect("--check FILE").clone()),
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--wallets" => wallets = it.next().and_then(|v| v.parse().ok()).expect("--wallets N"),
            "--out" => out = it.next().expect("--out FILE").clone(),
            "--smoke" => {}
            other => {
                eprintln!(
                    "usage: federation_record [--smoke] [--seed N] [--wallets N] [--out FILE] \
                     [--check FILE] (got {other:?})"
                );
                std::process::exit(2);
            }
        }
    }

    let seeds: Vec<u64> = if smoke {
        vec![seed]
    } else {
        FULL_SEEDS.to_vec()
    };
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
        reports
            .iter()
            .map(json_report)
            .collect::<Vec<_>>()
            .join(",\n"),
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
            reports
                .iter()
                .any(|r| r.substrate == "tcp" && r.wallets >= 100),
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

    if let Some(recorded) = check {
        let text =
            std::fs::read_to_string(&recorded).unwrap_or_else(|e| panic!("read {recorded}: {e}"));
        let diffs = differences(&json, &text);
        if !diffs.is_empty() {
            eprintln!("check: the run differs from {recorded} in timing-free fields:");
            for d in &diffs {
                eprintln!("  {d}");
            }
            std::process::exit(1);
        }
        eprintln!("check: every cell's timing-free fields equal {recorded}'s");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CELL: &str = r#"    {"family": "deep-ladder", "seed": 1, "substrate": "SUB", "wallets": 4, "publishes": 9, "declarations": 0, "revocations": 0, "queries": 2, "grants": 1, "denials": 1, "degraded_rate": 0.5000, "hard_mismatches": 0, "degraded_mismatches": 0, "unsound": 0, "monitors_opened": 1, "monitors_expected_dead": 0, "monitors_repaired": 0, "termination_failures": 0, "spurious_terminations": 0, "total_messages": 40, "push_messages": 0, "timeouts": 3, "retried_ops": 1, "decision_digest": "8784a684f1dda51a",
     "discovery_ns": {"count": 2, "p50": 100, "p90": 200, "p99": 200, "max": 200},
     "wallets_contacted": {"count": 2, "p50": 1, "p90": 4, "p99": 4, "max": 4},
     "by_decision":
      {"grant": {"discovery_ns": {"count": 1, "p50": 100, "p90": 100, "p99": 100, "max": 100}, "wallets_contacted": {"count": 1, "p50": 1, "p90": 1, "p99": 1, "max": 1}},
       "deny": {"discovery_ns": {"count": 1, "p50": 200, "p90": 200, "p99": 200, "max": 200}, "wallets_contacted": {"count": 1, "p50": 4, "p90": 4, "p99": 4, "max": 4}},
       "degraded": {"discovery_ns": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}, "wallets_contacted": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}}},
     "revocation_lag": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}}"#;

    fn artifact(substrate: &str, edit: impl Fn(String) -> String) -> String {
        format!(
            "{{\n  \"cells\": [\n{}\n  ]\n}}\n",
            edit(CELL.replace("SUB", substrate))
        )
    }

    #[test]
    fn check_compares_only_timing_free_fields() {
        let recorded = artifact("simnet", |c| c);
        assert_eq!(timing_free(cells(&recorded)[0]).len(), SCALARS.len() + 4);
        assert!(differences(&recorded, &recorded).is_empty());
        // Clocks never count.
        let slower = artifact("simnet", |c| c.replace("\"p50\": 100", "\"p50\": 900"));
        assert!(differences(&slower, &recorded).is_empty());
        // A digest, a message count or a per-decision wallet count does.
        for edit in [
            ("8784a684f1dda51a", "0000000000000000"),
            ("\"total_messages\": 40", "\"total_messages\": 41"),
            ("\"p90\": 1, \"p99\": 1", "\"p90\": 2, \"p99\": 1"),
        ] {
            let run = artifact("simnet", |c| c.replace(edit.0, edit.1));
            assert_eq!(differences(&run, &recorded).len(), 1, "{edit:?}");
        }
    }

    #[test]
    fn a_chaos_cell_is_held_to_what_the_faults_cannot_move() {
        let recorded = artifact("simnet+chaos", |c| c);
        let drifted = artifact("simnet+chaos", |c| {
            c.replace("\"total_messages\": 40", "\"total_messages\": 41")
                .replace("\"p90\": 1, \"p99\": 1", "\"p90\": 2, \"p99\": 1")
        });
        assert!(differences(&drifted, &recorded).is_empty());
        let diverged = artifact("simnet+chaos", |c| {
            c.replace("\"grants\": 1", "\"grants\": 2")
        });
        assert_eq!(differences(&diverged, &recorded).len(), 1);
    }
}
