//! Experiment F-B (§4.2.3): "monotonicity of valued-attribute values
//! enables pruning of the search" — constrained search with pruning on
//! vs off, sweeping the constraint tightness.
//!
//! Workload: a layered DAG whose edges each carry a `Min` bandwidth
//! clause drawn from the layer index, so tighter constraints kill more
//! branches earlier. Both configurations return the same answer (see the
//! `pruning_preserves_answers` property test); only the work differs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drbac_bench::{table_header, table_row};
use drbac_core::{AttrConstraint, AttrDeclaration, AttrOp, LocalEntity, Node, Timestamp};
use drbac_crypto::SchnorrGroup;
use drbac_graph::{DelegationGraph, SearchOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

struct PrunableWorkload {
    graph: DelegationGraph,
    subject: Node,
    object: Node,
    bw: drbac_core::AttrRef,
}

/// A layered DAG where each edge carries a random BW clause; roughly half
/// the paths fall below mid-range constraints.
fn build(rng: &mut StdRng, width: usize, depth: usize, branching: usize) -> PrunableWorkload {
    let owner = LocalEntity::generate("Owner", SchnorrGroup::test_256(), rng);
    let user = LocalEntity::generate("User", SchnorrGroup::test_256(), rng);
    let bw = owner.attr("bw", AttrOp::Min);
    let subject = Node::entity(&user);
    let object = Node::role(owner.role("target"));
    let graph = DelegationGraph::new();
    graph.insert_declaration(&AttrDeclaration::new(bw.clone(), 1000.0).unwrap());

    let layers: Vec<Vec<Node>> = (0..depth)
        .map(|l| {
            (0..width)
                .map(|i| Node::role(owner.role(&format!("l{l}n{i}"))))
                .collect()
        })
        .collect();
    let connect = |graph: &DelegationGraph, from: &Node, to: &Node, rng: &mut StdRng| {
        // Edge bandwidth: uniform in [0, 1000).
        let cap = rng.gen_range(0.0..1000.0);
        graph.insert(
            owner
                .delegate(from.clone(), to.clone())
                .with_attr(bw.clone(), cap)
                .unwrap()
                .sign(&owner)
                .unwrap(),
        );
    };
    for target in layers[0]
        .iter()
        .take(branching.min(width))
        .cloned()
        .collect::<Vec<_>>()
    {
        connect(&graph, &subject, &target, rng);
    }
    for w in 0..depth.saturating_sub(1) {
        for from in layers[w].clone() {
            for _ in 0..branching {
                let to = layers[w + 1][rng.gen_range(0..width)].clone();
                if from != to {
                    connect(&graph, &from, &to, rng);
                }
            }
        }
    }
    for from in layers[depth - 1].clone() {
        connect(&graph, &from, &object, rng);
    }
    // One guaranteed high-bandwidth path so every constraint <= 900 is
    // satisfiable.
    let mut prev = subject.clone();
    for (l, layer) in layers.iter().enumerate() {
        let hop = layer[l % width].clone();
        graph.insert(
            owner
                .delegate(prev.clone(), hop.clone())
                .with_attr(bw.clone(), 950.0)
                .unwrap()
                .serial(9_000 + l as u64)
                .sign(&owner)
                .unwrap(),
        );
        prev = hop;
    }
    graph.insert(
        owner
            .delegate(prev, object.clone())
            .with_attr(bw.clone(), 950.0)
            .unwrap()
            .serial(9_999)
            .sign(&owner)
            .unwrap(),
    );
    PrunableWorkload {
        graph,
        subject,
        object,
        bw,
    }
}

fn print_series(w: &PrunableWorkload) {
    table_header(
        "F-B — edges considered vs constraint tightness (width 8, depth 5, branching 3)",
        &[
            "required BW",
            "pruned",
            "unpruned",
            "found(pruned)",
            "found(unpruned)",
        ],
    );
    for required in [0.0, 250.0, 500.0, 750.0, 900.0] {
        let constraint = AttrConstraint::at_least(w.bw.clone(), required);
        let pruned_opts = SearchOptions::at(Timestamp(0)).with_constraint(constraint.clone());
        let unpruned_opts = SearchOptions::at(Timestamp(0))
            .with_constraint(constraint)
            .without_pruning();
        let (p1, s1) = w.graph.direct_query(&w.subject, &w.object, &pruned_opts);
        let (p2, s2) = w.graph.direct_query(&w.subject, &w.object, &unpruned_opts);
        table_row(&[
            format!("{required:.0}"),
            s1.edges_considered.to_string(),
            s2.edges_considered.to_string(),
            p1.is_some().to_string(),
            p2.is_some().to_string(),
        ]);
    }
}

fn bench_pruning(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xF_B);
    let w = build(&mut rng, 8, 5, 3);
    print_series(&w);

    let mut group = c.benchmark_group("attribute_pruning");
    for required in [250.0f64, 750.0] {
        let constraint = AttrConstraint::at_least(w.bw.clone(), required);
        let pruned = SearchOptions::at(Timestamp(0)).with_constraint(constraint.clone());
        let unpruned = SearchOptions::at(Timestamp(0))
            .with_constraint(constraint)
            .without_pruning();
        group.bench_with_input(
            BenchmarkId::new("pruned", required as u64),
            &required,
            |b, _| b.iter(|| black_box(w.graph.direct_query(&w.subject, &w.object, &pruned))),
        );
        group.bench_with_input(
            BenchmarkId::new("unpruned", required as u64),
            &required,
            |b, _| b.iter(|| black_box(w.graph.direct_query(&w.subject, &w.object, &unpruned))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pruning
}
criterion_main!(benches);
