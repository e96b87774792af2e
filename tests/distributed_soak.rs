//! Generator-driven distributed soak: every topology family from
//! `drbac::scenario` must answer exactly like the centralized oracle
//! graph — across a seed matrix, on a pristine SimNet, under FaultPlan
//! chaos with partition/heal and crash/restart cycles, and over a real
//! TCP daemon federation — while every discovered proof stays sound and
//! every session built on a later-revoked delegation terminates.
//!
//! Worlds follow the paper's storage discipline (every delegation at
//! its *subject's* home wallet, every node tagged `S`), which is the
//! condition under which §4.2.1 forward search is complete; the
//! `completeness_property` module at the bottom checks that condition
//! directly as a shrinkable property.

mod common;

use std::sync::Arc;

use common::chaos_seed_matrix;
use drbac::scenario::{
    run_simnet, run_tcp, Family, RunConfig, Scale, ScenarioSpec, SimFederation, SoakReport,
};

/// One soak cell: generate, run, and hold the universal invariants.
fn soak(family: Family, seed: u64, cfg: &RunConfig) -> SoakReport {
    let scenario = ScenarioSpec::new(family, seed).generate();
    let report = run_simnet(&scenario, cfg);
    assert_eq!(
        report.unsound, 0,
        "{family}/{seed}: discovered proofs must validate"
    );
    assert_eq!(
        report.hard_mismatches(),
        0,
        "{family}/{seed}: non-degraded strict query diverged from oracle"
    );
    assert_eq!(
        report.termination_failures, 0,
        "{family}/{seed}: session outlived a revoked dependency"
    );
    assert_eq!(
        report.spurious_terminations, 0,
        "{family}/{seed}: live session wrongly terminated"
    );
    report
}

#[test]
fn fault_free_soak_is_oracle_equivalent_across_families_and_seeds() {
    for seed in chaos_seed_matrix(&[1, 2, 3]) {
        for family in Family::ALL {
            let report = soak(family, seed, &RunConfig::fault_free());
            // Pristine network: nothing may even be *flagged* degraded,
            // so oracle equivalence above was total, and the schedule
            // must have exercised both decisions.
            assert_eq!(
                report.degraded_rate(),
                0.0,
                "{family}/{seed}: degradation on a pristine network"
            );
            assert!(report.grants() > 0, "{family}/{seed}: no grants");
            assert!(report.denials() > 0, "{family}/{seed}: no denials");
        }
    }
}

#[test]
fn chaos_soak_holds_invariants_under_loss_partitions_and_crashes() {
    for seed in chaos_seed_matrix(&[1, 2, 3]) {
        for family in Family::ALL {
            // soak() already holds the bar that matters: zero unsound
            // proofs, zero non-degraded divergence, zero termination
            // failures — under seeded loss, a partition/heal cycle, and
            // a crash/restart cycle.
            soak(family, seed, &RunConfig::chaos(seed.wrapping_mul(31) ^ 5));
        }
    }
}

#[test]
fn revocation_families_exercise_session_termination() {
    // The termination machinery must actually fire, not vacuously pass:
    // storm and churn schedules revoke delegations under live monitors.
    let mut expected_dead = 0;
    for family in [Family::RevocationStorm, Family::Churn] {
        for seed in chaos_seed_matrix(&[1, 2, 3]) {
            let report = soak(family, seed, &RunConfig::fault_free());
            assert!(report.revocations > 0, "{family}/{seed}: no revocations");
            expected_dead += report.monitors_expected_dead;
        }
    }
    assert!(
        expected_dead > 0,
        "no monitored session ever depended on a revoked delegation"
    );
}

#[test]
fn simnet_and_tcp_federations_produce_byte_identical_proofs() {
    // The same schedule over the deterministic SimNet and over real TCP
    // daemons must reach the same decisions *and* the same proof bytes
    // (compared via the timing-free decision digest).
    for family in [Family::DeepLadder, Family::CrossFederation] {
        let scenario = ScenarioSpec::new(family, 1)
            .with_scale(Scale::smoke())
            .generate();
        let sim = run_simnet(&scenario, &RunConfig::fault_free());
        let tcp = run_tcp(&scenario).expect("tcp federation deploys");
        assert_eq!(tcp.unsound, 0, "{family}: tcp proofs validate");
        assert_eq!(tcp.hard_mismatches(), 0, "{family}: tcp oracle divergence");
        assert_eq!(tcp.termination_failures, 0, "{family}: tcp termination");
        assert_eq!(
            sim.proof_digests(),
            tcp.proof_digests(),
            "{family}: per-query proof bytes diverged across substrates"
        );
        assert_eq!(
            sim.decision_digest(),
            tcp.decision_digest(),
            "{family}: decision digests diverged across substrates"
        );
    }
}

#[test]
fn storage_discipline_passes_the_registry_audit() {
    // Deploy and soak a full generated world, then audit every org
    // wallet for the subject-home storage discipline the generator
    // promises (DeepLadder publishes but never revokes, so the audit
    // sees the steady-state credential placement).
    let scenario = ScenarioSpec::new(Family::DeepLadder, 0x50a4).generate();
    let mut fed = SimFederation::deploy(&scenario, &RunConfig::fault_free());
    fed.soak(&scenario);
    let violations = drbac::net::audit_store_compliance(fed.net(), &fed.host_addrs());
    assert!(
        violations.is_empty(),
        "soak world is registry-compliant: {violations:?}"
    );
}

mod completeness_property {
    //! The §4.2.1 completeness condition as a property: in any world
    //! where every node is tagged `S` and every delegation is stored at
    //! its subject's home wallet, tag-directed discovery finds a proof
    //! exactly when the union graph has one.

    use super::*;
    use drbac::core::{
        DiscoveryTag, LocalEntity, Node, SignedDelegation, SimClock, SubjectFlag, Ticks,
    };
    use drbac::crypto::SchnorrGroup;
    use drbac::graph::{DelegationGraph, SearchOptions};
    use drbac::net::{Directory, DiscoveryAgent, SimNet, WalletHost};
    use drbac::wallet::Wallet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A compact world description proptest can shrink.
    #[derive(Debug, Clone)]
    struct SmallWorld {
        /// Edges as (subject index, object role index) over a universe of
        /// 2 users + 4 roles (2 per org); subjects index the whole
        /// universe, objects only roles.
        edges: Vec<(usize, usize)>,
    }

    fn arb_world() -> impl Strategy<Value = SmallWorld> {
        prop::collection::vec((0usize..6, 0usize..4), 1..12).prop_map(|edges| SmallWorld { edges })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn discovery_complete_under_s_tags(world in arb_world(), query_user in 0usize..2, query_role in 0usize..4) {
            let mut rng = StdRng::seed_from_u64(4242);
            let g = SchnorrGroup::test_256();
            let clock = SimClock::new();
            let net = SimNet::new(clock.clone(), Ticks(1));
            let orgs: Vec<LocalEntity> =
                (0..2).map(|i| LocalEntity::generate(format!("O{i}"), g.clone(), &mut rng)).collect();
            let users: Vec<LocalEntity> =
                (0..2).map(|i| LocalEntity::generate(format!("U{i}"), g.clone(), &mut rng)).collect();
            let hosts: Vec<WalletHost> = (0..2)
                .map(|i| {
                    let addr = format!("w{i}");
                    net.add_host(addr.as_str(), Wallet::new(addr.as_str(), clock.clone()))
                })
                .collect();
            let tag = |i: usize| {
                DiscoveryTag::new(format!("w{i}").as_str())
                    .with_ttl(Ticks(100))
                    .with_subject_flag(SubjectFlag::Search)
            };
            // Universe: users 0-1, then roles (org 0: r0 r1, org 1: r0 r1).
            let node = |i: usize| -> Node {
                if i < 2 {
                    Node::entity(&users[i])
                } else {
                    let org = (i - 2) / 2;
                    Node::role(orgs[org].role(&format!("r{}", (i - 2) % 2)))
                }
            };
            let home_of = |n: &Node| -> usize {
                match n {
                    Node::Entity(id) => users.iter().position(|u| u.id() == *id).unwrap_or(0) % 2,
                    other => orgs.iter().position(|o| o.id() == other.namespace()).unwrap(),
                }
            };

            let oracle = DelegationGraph::new();
            for (serial, (s, o)) in world.edges.iter().enumerate() {
                let subject = node(*s);
                let object = node(o + 2);
                if subject == object {
                    continue;
                }
                let org = orgs.iter().find(|org| org.id() == object.namespace()).unwrap();
                let cert: Arc<SignedDelegation> = Arc::new(
                    org.delegate(subject.clone(), object.clone())
                        .serial(serial as u64)
                        .subject_tag(tag(home_of(&subject)))
                        .object_tag(tag(home_of(&object)))
                        .sign(org)
                        .unwrap(),
                );
                hosts[home_of(&subject)].wallet().publish(Arc::clone(&cert), vec![]).unwrap();
                oracle.insert(cert);
            }

            let server = net.add_host("server", Wallet::new("server", clock.clone()));
            let mut dir = Directory::new();
            for (i, org) in orgs.iter().enumerate() {
                dir.register_entity(org.id(), tag(i));
            }
            for (i, user) in users.iter().enumerate() {
                dir.register(Node::entity(user), tag(i % 2));
            }
            let mut agent = DiscoveryAgent::new(net.clone(), server, dir);

            let subject = node(query_user);
            let object = node(query_role + 2);
            let outcome = agent.discover(&subject, &object, &[]);
            let (oracle_proof, _) =
                oracle.direct_query(&subject, &object, &SearchOptions::at(clock.now()));
            prop_assert_eq!(
                outcome.found(),
                oracle_proof.is_some(),
                "world {:?}: discovery {} vs oracle {} for {} => {} (trace {:?})",
                world,
                outcome.found(),
                oracle_proof.is_some(),
                subject,
                object,
                outcome.trace
            );
        }
    }
}
