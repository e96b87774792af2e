//! Experiment F-A (§4.2.3): unidirectional vs bidirectional search.
//!
//! "The number of potential authorizing paths in a delegation tree with a
//! constant branching factor ... is clearly exponential in depth"; a
//! bidirectional search sharply reduces the work. The printed tables are
//! [`drbac_baselines::direction`]'s: the wallets the shipped discovery
//! agent contacts on funnel federations under `S`, `O` and `S`+`O` tags,
//! and authorizing-path counts on layered DAGs. The timed routine is the
//! proof-producing search a wallet runs on a layered DAG.

use criterion::{criterion_group, criterion_main, Criterion};
use drbac_baselines::direction::{funnel_tables, path_rows, render};
use drbac_baselines::workload::{layered_dag, WorkloadSpec};
use drbac_core::Timestamp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    eprint!("\n{}", render(&funnel_tables(), &path_rows()));

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
