//! Generator and soak-runner determinism: a `(family, seed, scale)`
//! spec is the *entire* identity of a scenario. Two generations of the
//! same spec must agree byte-for-byte (schedule fingerprint and oracle
//! fingerprint), and executing the same schedule twice must reach the
//! same decisions and proof bytes — reproducibility is what makes a soak
//! failure reportable as just a `(family, seed)` pair.

mod common;

use common::chaos_seed;
use drbac::scenario::{run_simnet, Family, RunConfig, Scale, ScenarioSpec};
use proptest::prelude::*;

fn arb_family() -> impl Strategy<Value = Family> {
    (0usize..Family::ALL.len()).prop_map(|i| Family::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    #[test]
    fn same_spec_generates_identical_worlds(family in arb_family(), seed in 0u64..1_000_000) {
        let spec = ScenarioSpec::new(family, seed).with_scale(Scale::smoke());
        let a = spec.generate();
        let b = spec.generate();
        prop_assert_eq!(a.counts(), b.counts(), "{}/{}: event counts drifted", family, seed);
        prop_assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{}/{}: schedule fingerprint drifted",
            family,
            seed
        );
        prop_assert_eq!(
            a.oracle_fingerprint(),
            b.oracle_fingerprint(),
            "{}/{}: oracle ground truth drifted",
            family,
            seed
        );
    }

    #[test]
    fn different_seeds_generate_different_worlds(family in arb_family(), seed in 0u64..1_000_000) {
        let scale = Scale::smoke();
        let a = ScenarioSpec::new(family, seed).with_scale(scale).generate();
        let b = ScenarioSpec::new(family, seed + 1).with_scale(scale).generate();
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
    }
}

#[test]
fn soak_decisions_are_identical_across_runs() {
    let seed = chaos_seed();
    for family in Family::ALL {
        let scenario = ScenarioSpec::new(family, seed)
            .with_scale(Scale::smoke())
            .generate();
        let base = run_simnet(&scenario, &RunConfig::fault_free());
        // Re-running the same schedule replays identically, to the proof
        // byte.
        let replay = run_simnet(&scenario, &RunConfig::fault_free());
        assert_eq!(
            base.proof_digests(),
            replay.proof_digests(),
            "{family}/{seed}: proofs changed on replay"
        );
        assert_eq!(
            base.decision_digest(),
            replay.decision_digest(),
            "{family}/{seed}: same run diverged on replay"
        );
    }
}

#[test]
fn chaos_soak_replays_identically_per_seed() {
    let seed = chaos_seed();
    let scenario = ScenarioSpec::new(Family::RevocationStorm, seed)
        .with_scale(Scale::smoke())
        .generate();
    let run = || {
        let r = run_simnet(&scenario, &RunConfig::chaos(seed));
        (
            r.decision_digest(),
            r.total_messages,
            r.timeouts,
            r.retried_ops,
            r.monitors_expected_dead,
            r.termination_failures,
        )
    };
    assert_eq!(run(), run(), "chaos runs must replay identically per seed");
}
