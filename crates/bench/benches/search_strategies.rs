//! Experiment F-A (§4.2.3): unidirectional vs bidirectional chain search.
//!
//! "The number of potential authorizing paths in a delegation tree with a
//! constant branching factor ... is clearly exponential in depth"; a
//! bidirectional search sharply reduces the work. The printed series
//! report edges considered by each strategy as branching factor and depth
//! grow, on funnel topologies that are wide on one side — bidirectional
//! search matches the cheap direction without being told which it is.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drbac_baselines::strategy::{bidirectional_search, forward_search, reverse_search};
use drbac_baselines::workload::{funnel, layered_dag, WorkloadSpec};
use drbac_bench::{table_header, table_row};
use drbac_core::Timestamp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn print_series() {
    table_header(
        "F-A — edges considered vs branching (funnel, depth 5, wide forward side)",
        &["branching", "forward", "reverse", "bidirectional"],
    );
    for branching in [2usize, 3, 4, 5] {
        let mut rng = StdRng::seed_from_u64(branching as u64);
        let w = funnel(branching, 5, true, &mut rng);
        let now = Timestamp(0);
        let f = forward_search(&w.graph, &w.subject, &w.object, now);
        let r = reverse_search(&w.graph, &w.subject, &w.object, now);
        let b = bidirectional_search(&w.graph, &w.subject, &w.object, now);
        assert!(f.found && r.found && b.found);
        table_row(&[
            branching.to_string(),
            f.edges_considered.to_string(),
            r.edges_considered.to_string(),
            b.edges_considered.to_string(),
        ]);
    }

    table_header(
        "F-A — edges considered vs depth (funnel, branching 3, wide forward side)",
        &["depth", "forward", "reverse", "bidirectional"],
    );
    for depth in [2usize, 3, 4, 5, 6, 7] {
        let mut rng = StdRng::seed_from_u64(depth as u64);
        let w = funnel(3, depth, true, &mut rng);
        let now = Timestamp(0);
        let f = forward_search(&w.graph, &w.subject, &w.object, now);
        let r = reverse_search(&w.graph, &w.subject, &w.object, now);
        let b = bidirectional_search(&w.graph, &w.subject, &w.object, now);
        table_row(&[
            depth.to_string(),
            f.edges_considered.to_string(),
            r.edges_considered.to_string(),
            b.edges_considered.to_string(),
        ]);
    }

    table_header(
        "F-A — mirrored funnel (wide REVERSE side, branching 3): bidirectional adapts",
        &["depth", "forward", "reverse", "bidirectional"],
    );
    for depth in [3usize, 5, 7] {
        let mut rng = StdRng::seed_from_u64(depth as u64 + 100);
        let w = funnel(3, depth, false, &mut rng);
        let now = Timestamp(0);
        let f = forward_search(&w.graph, &w.subject, &w.object, now);
        let r = reverse_search(&w.graph, &w.subject, &w.object, now);
        let b = bidirectional_search(&w.graph, &w.subject, &w.object, now);
        table_row(&[
            depth.to_string(),
            f.edges_considered.to_string(),
            r.edges_considered.to_string(),
            b.edges_considered.to_string(),
        ]);
    }
}

fn print_path_counts() {
    // The paper's literal claim: "The number of potential authorizing
    // paths in a delegation tree with a constant branching factor ... is
    // clearly exponential in depth." Count them by exhaustive
    // enumeration on layered DAGs, against the single-answer BFS cost.
    table_header(
        "F-A — authorizing paths vs depth (layered DAG, branching 3, width 3)",
        &[
            "depth",
            "paths (b^d)",
            "enumeration edges",
            "single-answer BFS edges",
        ],
    );
    for depth in [2usize, 3, 4, 5, 6] {
        let mut rng = StdRng::seed_from_u64(depth as u64);
        let spec = WorkloadSpec {
            branching: 3,
            depth,
            width: 3,
        };
        let w = layered_dag(&spec, &mut rng);
        let opts = drbac_graph::SearchOptions::at(Timestamp(0));
        let (paths, enum_stats) = w
            .graph
            .enumerate_proofs(&w.subject, &w.object, &opts, 1_000_000);
        let (_, bfs_stats) = w.graph.direct_query(&w.subject, &w.object, &opts);
        table_row(&[
            depth.to_string(),
            paths.len().to_string(),
            enum_stats.edges_considered.to_string(),
            bfs_stats.edges_considered.to_string(),
        ]);
    }
}

fn bench_strategies(c: &mut Criterion) {
    print_series();
    print_path_counts();

    let mut group = c.benchmark_group("search_strategies");
    for depth in [3usize, 5, 7] {
        let mut rng = StdRng::seed_from_u64(depth as u64);
        let w = funnel(3, depth, true, &mut rng);
        let now = Timestamp(0);
        group.bench_with_input(BenchmarkId::new("forward", depth), &depth, |b, _| {
            b.iter(|| black_box(forward_search(&w.graph, &w.subject, &w.object, now)))
        });
        group.bench_with_input(BenchmarkId::new("reverse", depth), &depth, |b, _| {
            b.iter(|| black_box(reverse_search(&w.graph, &w.subject, &w.object, now)))
        });
        group.bench_with_input(BenchmarkId::new("bidirectional", depth), &depth, |b, _| {
            b.iter(|| black_box(bidirectional_search(&w.graph, &w.subject, &w.object, now)))
        });
    }
    group.finish();

    // Full proof-producing search on a layered DAG (the production path).
    let mut rng = StdRng::seed_from_u64(42);
    let spec = WorkloadSpec {
        branching: 3,
        depth: 5,
        width: 9,
    };
    let w = layered_dag(&spec, &mut rng);
    c.bench_function("search_strategies/graph_direct_query_layered_b3_d5", |b| {
        b.iter(|| {
            black_box(w.graph.direct_query(
                &w.subject,
                &w.object,
                &drbac_graph::SearchOptions::at(Timestamp(0)),
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_strategies
}
criterion_main!(benches);
