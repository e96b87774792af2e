//! Chaos regression suite: the BigISP/AirNet walkthrough must reach the
//! *same authorization decisions* under injected faults as it does on a
//! pristine network — seeded request loss is absorbed by retries,
//! partitions park pushes until heal, and a crashed home wallet recovers
//! missed revocations through re-subscription and revalidation.
//!
//! The fault-plan seed comes from `DRBAC_CHAOS_SEED` (default 2002) so
//! `scripts/check.sh` can sweep a small seed matrix; every test is a
//! pure function of that seed.

mod common;

use common::{chaos_seed, chaos_seed_matrix, light_loss};
use drbac::core::Ticks;
use drbac::disco::scenario::{BIGISP_WALLET, SERVER_WALLET};
use drbac::disco::CoalitionScenario;
use drbac::net::{DiscoveryOutcome, FaultPlan, NetStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// World-construction seed — fixed so the coalition (keys, certs, tags)
/// is identical across the fault-free baseline and every chaos run.
const WORLD_SEED: u64 = 2002;

fn baseline() -> CoalitionScenario {
    CoalitionScenario::build(&mut StdRng::seed_from_u64(WORLD_SEED))
}

fn chaotic(plan: FaultPlan) -> CoalitionScenario {
    CoalitionScenario::build_with_faults(&mut StdRng::seed_from_u64(WORLD_SEED), plan)
}

/// Runs the full walkthrough (discovery, grants, revocation) and
/// returns what an application would observe.
fn walkthrough(s: &CoalitionScenario) -> (DiscoveryOutcome, Vec<f64>, bool, NetStats) {
    let outcome = s.establish_access();
    let grants: Vec<f64> = match outcome.monitor.as_ref() {
        Some(m) => s
            .expected_grants()
            .iter()
            .map(|(attr, _)| m.summary().get(attr).unwrap_or(f64::NAN))
            .collect(),
        None => vec![],
    };
    s.revoke_partnership();
    let terminated = outcome
        .monitor
        .as_ref()
        .map(|m| !m.is_valid())
        .unwrap_or(false);
    (outcome, grants, terminated, s.net.stats())
}

#[test]
fn fault_free_walkthrough_is_not_degraded() {
    let s = baseline();
    let outcome = s.establish_access();
    assert!(outcome.found());
    assert!(
        !outcome.degraded,
        "a pristine network must not flag degradation"
    );
    assert_eq!(s.net.stats().timeouts, 0);
}

#[test]
fn seeded_loss_converges_to_fault_free_decisions() {
    let (base_outcome, base_grants, base_terminated, _) = walkthrough(&baseline());
    assert!(base_outcome.found(), "baseline grants access");
    assert!(base_terminated, "baseline revocation terminates access");

    // The check.sh matrix seeds plus this run's env-selected seed.
    for seed in chaos_seed_matrix(&[1, 2, 3, 2002]) {
        let s = chaotic(light_loss(seed));
        let (outcome, grants, terminated, stats) = walkthrough(&s);
        assert_eq!(
            outcome.found(),
            base_outcome.found(),
            "seed {seed}: grant/deny decision diverged under ≤10% loss"
        );
        assert_eq!(
            grants, base_grants,
            "seed {seed}: effective attribute grants diverged"
        );
        assert_eq!(
            terminated, base_terminated,
            "seed {seed}: revocation outcome diverged"
        );
        // Retried hops must be surfaced, not hidden: if any request
        // timed out, the outcome carries the degraded marker.
        if stats.timeouts > 0 {
            assert!(outcome.degraded, "seed {seed}: timeouts without marker");
        }
    }
}

#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let seed = chaos_seed();
    let run = || {
        let s = chaotic(light_loss(seed));
        let (outcome, grants, terminated, stats) = walkthrough(&s);
        (
            outcome.trace,
            outcome.wallets_contacted,
            outcome.degraded,
            grants,
            terminated,
            stats.total_messages,
            stats.timeouts,
            stats.push_messages,
        )
    };
    assert_eq!(run(), run(), "same seeds must replay identically");
}

#[test]
fn partition_heal_preserves_revocation_push() {
    let s = baseline();
    let outcome = s.establish_access();
    let monitor = outcome.monitor.expect("access granted");
    assert!(monitor.is_valid());

    // Cut the server off, then revoke the partnership at BigISP's home
    // wallet. The push cannot cross the partition — it parks.
    s.net.partition_host(&SERVER_WALLET.into());
    let delivered = s.revoke_partnership();
    assert_eq!(delivered, 0, "push is parked, not delivered");
    assert!(monitor.is_valid(), "server has not heard yet");

    // Heal: the parked push is redelivered and terminates the session.
    assert_eq!(s.net.heal_partitions(), 1);
    assert_eq!(s.net.run_until_idle(), 1);
    assert!(!monitor.is_valid(), "revocation survived the partition");
}

#[test]
fn wallet_crash_restart_recovers_missed_revocations() {
    let s = baseline();
    let outcome = s.establish_access();
    let monitor = outcome.monitor.expect("access granted");

    // BigISP's home wallet crashes, losing its volatile subscriber
    // registry and its in-memory graph; the write-ahead store survives.
    let store = s
        .net
        .crash_host(&BIGISP_WALLET.into())
        .expect("host exists");
    let report = s
        .net
        .restart_host(&BIGISP_WALLET.into(), &store)
        .expect("store replays");
    assert_eq!(report.skipped, 0, "every journaled event replays cleanly");

    // The revocation is processed by the restarted wallet, but nobody
    // is subscribed any more: zero pushes, session still (wrongly) up.
    let delivered = s.revoke_partnership();
    assert_eq!(delivered, 0, "subscriber registry was volatile");
    assert!(monitor.is_valid(), "the revocation was missed");

    // Recovery: the server re-registers its subscriptions and
    // revalidates every cached credential against its home wallet —
    // discovering the revoked partnership and cascading locally.
    let (resubscribed, dropped) = s.server.resubscribe_cached(&s.net);
    assert!(resubscribed >= 1, "subscriptions re-registered");
    assert_eq!(dropped, 1, "exactly the revoked partnership is dropped");
    s.net.run_until_idle();
    assert!(!monitor.is_valid(), "missed revocation recovered");
}

/// Acceptance: a wallet crashed mid-workload and restarted from its
/// write-ahead store recovers every committed delegation and revocation
/// — across the check.sh seed matrix plus this run's env-selected seed.
#[test]
fn store_backed_restart_recovers_committed_state_across_seeds() {
    use std::collections::BTreeSet;

    for seed in chaos_seed_matrix(&[1, 2, 3]) {
        let s = chaotic(light_loss(seed));
        let outcome = s.establish_access();
        assert!(outcome.found(), "seed {seed}: access granted before crash");
        s.revoke_partnership();
        s.net.run_until_idle();

        let addr = BIGISP_WALLET.into();
        let host = s.net.host(&addr).expect("host exists");
        let snapshot = |h: &drbac::net::WalletHost| {
            h.wallet().with_graph(|g| {
                (
                    g.iter_certs()
                        .iter()
                        .map(|c| c.id())
                        .collect::<BTreeSet<_>>(),
                    g.revoked_ids(),
                )
            })
        };
        let (certs_before, revoked_before) = snapshot(&host);
        assert!(
            !certs_before.is_empty(),
            "seed {seed}: workload committed delegations"
        );
        assert!(
            !revoked_before.is_empty(),
            "seed {seed}: workload committed a revocation"
        );

        // Crash wipes everything in memory; only the store survives.
        let store = s.net.crash_host(&addr).expect("host exists");
        assert!(
            host.wallet().is_empty(),
            "seed {seed}: crash left in-memory state behind"
        );

        let report = s.net.restart_host(&addr, &store).expect("store recovers");
        assert_eq!(
            report.skipped, 0,
            "seed {seed}: every journaled event replays"
        );
        let (certs_after, revoked_after) = snapshot(&host);
        assert_eq!(
            certs_before, certs_after,
            "seed {seed}: committed delegations recovered"
        );
        assert_eq!(
            revoked_before, revoked_after,
            "seed {seed}: committed revocations recovered"
        );
    }
}

#[test]
fn chaos_run_reports_retry_and_timeout_counters() {
    // Heavier loss so this seed provably exercises the retry path.
    let s = chaotic(
        FaultPlan::seeded(7)
            .with_request_loss(0.25)
            .with_latency_jitter(Ticks(1)),
    );
    let outcome = s.establish_access();
    assert!(outcome.found(), "retries absorb 25% loss on this seed");
    assert!(outcome.degraded, "recovered-by-retry runs carry the flag");
    let stats = s.net.stats();
    assert!(stats.timeouts > 0, "losses surfaced as timeouts");
    assert!(
        drbac::obs::global().counter("drbac.net.retry.count").get() > 0,
        "retries surfaced in the global registry"
    );
}
