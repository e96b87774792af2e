//! Benches reproducing the paper's tables and figures:
//!
//! * `table1` — construct + validate the Table 1 proof
//!   (`Maria ⇒ BigISP.member` via third-party delegation with support),
//! * `table2` — valued-attribute accumulation for Table 2's delegations,
//! * `table3_figure2` — the full distributed case study (steps 1–6),
//!   asserting the §5 numbers (BW=100, storage=30, hours=18) every
//!   iteration,
//! * `figure2_revocation` — partnership revocation push propagation.

use criterion::{criterion_group, criterion_main, Criterion};
use drbac_bench::{fmt, table_header, table_row};
use drbac_core::{
    LocalEntity, Node, Proof, ProofStep, ProofValidator, Ticks, Timestamp, ValidationContext,
};
use drbac_crypto::SchnorrGroup;
use drbac_disco::CoalitionScenario;
use drbac_net::FaultPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let g = SchnorrGroup::test_256();
    let big_isp = LocalEntity::generate("BigISP", g.clone(), &mut rng);
    let mark = LocalEntity::generate("Mark", g.clone(), &mut rng);
    let maria = LocalEntity::generate("Maria", g, &mut rng);
    let member = big_isp.role("member");
    let services = big_isp.role("memberServices");

    c.bench_function("table1/issue_three_delegations", |b| {
        b.iter(|| {
            let d1 = big_isp
                .delegate(Node::entity(&mark), Node::role(services.clone()))
                .sign(&big_isp)
                .unwrap();
            let d2 = big_isp
                .delegate(
                    Node::role(services.clone()),
                    Node::role_admin(member.clone()),
                )
                .sign(&big_isp)
                .unwrap();
            let d3 = mark
                .delegate(Node::entity(&maria), Node::role(member.clone()))
                .sign(&mark)
                .unwrap();
            black_box((d1, d2, d3))
        })
    });

    let d1 = big_isp
        .delegate(Node::entity(&mark), Node::role(services.clone()))
        .sign(&big_isp)
        .unwrap();
    let d2 = big_isp
        .delegate(Node::role(services), Node::role_admin(member.clone()))
        .sign(&big_isp)
        .unwrap();
    let d3 = mark
        .delegate(Node::entity(&maria), Node::role(member))
        .sign(&mark)
        .unwrap();
    let support = Proof::from_steps(vec![ProofStep::new(d1), ProofStep::new(d2)]).unwrap();
    let proof = Proof::from_steps(vec![ProofStep::new(d3).with_support(support)]).unwrap();
    let validator = ProofValidator::new(ValidationContext::at(Timestamp(0)));

    c.bench_function("table1/validate_proof_with_support", |b| {
        b.iter(|| validator.validate(black_box(&proof)).unwrap())
    });
}

fn bench_table2(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let g = SchnorrGroup::test_256();
    let air_net = LocalEntity::generate("AirNet", g.clone(), &mut rng);
    let sheila = LocalEntity::generate("Sheila", g.clone(), &mut rng);
    let big_isp = LocalEntity::generate("BigISP", g, &mut rng);
    let bw = air_net.attr("BW", drbac_core::AttrOp::Min);
    let storage = air_net.attr("storage", drbac_core::AttrOp::Subtract);

    c.bench_function("table2/issue_valued_attribute_delegation", |b| {
        b.iter(|| {
            sheila
                .delegate(
                    Node::role(big_isp.role("member")),
                    Node::role(air_net.role("member")),
                )
                .with_attr(bw.clone(), 100.0)
                .unwrap()
                .with_attr(storage.clone(), 20.0)
                .unwrap()
                .sign(&sheila)
                .unwrap()
        })
    });

    // Accumulation cost over long chains.
    let mut acc_input = Vec::new();
    for i in 0..64 {
        acc_input.push(bw.clause(1000.0 - i as f64).unwrap());
        acc_input.push(storage.clause(0.5).unwrap());
    }
    c.bench_function("table2/accumulate_128_clauses", |b| {
        b.iter(|| {
            let mut acc = drbac_core::AttrAccumulator::new();
            for clause in &acc_input {
                acc.absorb_clause(black_box(clause));
            }
            acc
        })
    });
}

fn bench_table3_figure2(c: &mut Criterion) {
    // Record the experiment table once.
    let scenario = CoalitionScenario::build(&mut StdRng::seed_from_u64(3));
    let outcome = scenario.establish_access();
    assert!(outcome.found());
    let monitor = outcome.monitor.as_ref().unwrap();
    table_header(
        "Table 3 / Figure 2 / §5 — case study grants (paper: BW=100, storage=30, hours=18)",
        &["attribute", "paper", "measured"],
    );
    for (attr, expected) in scenario.expected_grants() {
        let got = monitor.summary().get(&attr).unwrap();
        table_row(&[attr.to_string(), fmt(expected), fmt(got)]);
        assert!((got - expected).abs() < 1e-9);
    }
    let stats = scenario.net.stats();
    table_header(
        "Figure 2 — discovery message accounting",
        &["metric", "count"],
    );
    table_row(&["total messages".into(), stats.total_messages.to_string()]);
    table_row(&["frame bytes".into(), stats.total_bytes.to_string()]);
    table_row(&[
        "subject queries".into(),
        stats.requests("subject-query").to_string(),
    ]);
    table_row(&[
        "direct queries".into(),
        stats.requests("direct-query").to_string(),
    ]);
    table_row(&[
        "subscriptions".into(),
        stats.requests("subscribe").to_string(),
    ]);
    table_row(&[
        "wallets contacted".into(),
        outcome.wallets_contacted.len().to_string(),
    ]);

    c.bench_function("figure2/full_distributed_case_study", |b| {
        b.iter_with_setup(
            || CoalitionScenario::build(&mut StdRng::seed_from_u64(3)),
            |scenario| {
                let outcome = scenario.establish_access();
                assert!(outcome.found());
                black_box(outcome)
            },
        )
    });

    // Resilience overhead: the same case study with 10% seeded request
    // loss + 1-tick jitter, so every iteration exercises the bounded
    // retry path (DESIGN.md §4.3) and still lands the §5 grants.
    let chaos_plan = || {
        FaultPlan::seeded(7)
            .with_request_loss(0.1)
            .with_latency_jitter(Ticks(1))
    };
    let chaotic = CoalitionScenario::build_with_faults(&mut StdRng::seed_from_u64(3), chaos_plan());
    let chaos_outcome = chaotic.establish_access();
    assert!(chaos_outcome.found());
    let chaos_stats = chaotic.net.stats();
    table_header(
        "Figure 2 under chaos — 10% loss, seed 7 (vs fault-free)",
        &["metric", "fault-free", "chaotic"],
    );
    table_row(&[
        "total messages".into(),
        stats.total_messages.to_string(),
        chaos_stats.total_messages.to_string(),
    ]);
    table_row(&[
        "request timeouts".into(),
        stats.timeouts.to_string(),
        chaos_stats.timeouts.to_string(),
    ]);
    table_row(&[
        "degraded outcome".into(),
        outcome.degraded.to_string(),
        chaos_outcome.degraded.to_string(),
    ]);

    c.bench_function("figure2/case_study_under_10pct_loss", |b| {
        b.iter_with_setup(
            || CoalitionScenario::build_with_faults(&mut StdRng::seed_from_u64(3), chaos_plan()),
            |scenario| {
                let outcome = scenario.establish_access();
                assert!(outcome.found());
                black_box(outcome)
            },
        )
    });

    c.bench_function("figure2/revocation_push_propagation", |b| {
        b.iter_with_setup(
            || {
                let s = CoalitionScenario::build(&mut StdRng::seed_from_u64(3));
                let outcome = s.establish_access();
                assert!(outcome.found());
                (s, outcome)
            },
            |(s, outcome)| {
                let delivered = s.revoke_partnership();
                assert!(!outcome.monitor.as_ref().unwrap().is_valid());
                black_box(delivered)
            },
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_table1, bench_table2, bench_table3_figure2
}
criterion_main!(benches);
