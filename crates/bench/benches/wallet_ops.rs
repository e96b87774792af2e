//! Experiment F-D (and Figure 1): wallet operation cost vs stored
//! delegation count — publication, direct query, subject query, object
//! query, and proof-monitor establishment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drbac_baselines::workload::random_mesh;
use drbac_core::{SimClock, Timestamp};
use drbac_graph::SearchOptions;
use drbac_wallet::Wallet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

const SIZES: &[usize] = &[100, 1_000, 10_000];

fn bench_wallet_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("wallet_ops");
    for &size in SIZES {
        let mut rng = StdRng::seed_from_u64(size as u64);
        let workload = random_mesh(size, (size / 10).max(4), &mut rng);
        let wallet = Wallet::new("bench.wallet", SimClock::new());
        wallet.set_query_cache(false); // measure real search cost below
        for cert in &workload.graph.iter_certs() {
            wallet.publish(Arc::clone(cert), vec![]).unwrap();
        }

        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("direct_query", size), &size, |b, _| {
            b.iter(|| {
                black_box(wallet.query_direct(
                    black_box(&workload.subject),
                    black_box(&workload.object),
                    &[],
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("subject_query", size), &size, |b, _| {
            b.iter(|| black_box(wallet.query_subject(black_box(&workload.subject), &[])))
        });
        group.bench_with_input(BenchmarkId::new("object_query", size), &size, |b, _| {
            b.iter(|| black_box(wallet.query_object(black_box(&workload.object), &[])))
        });

        // Repeated identical query: served from the generation-keyed
        // answer cache.
        group.bench_with_input(
            BenchmarkId::new("direct_query_cached", size),
            &size,
            |b, _| {
                wallet.set_query_cache(true);
                // Warm the cache once.
                let _ = wallet.query_direct(&workload.subject, &workload.object, &[]);
                b.iter(|| {
                    black_box(wallet.query_direct(
                        black_box(&workload.subject),
                        black_box(&workload.object),
                        &[],
                    ))
                });
                wallet.set_query_cache(false);
            },
        );

        // Raw graph query (no monitor/validation) for comparison.
        group.bench_with_input(
            BenchmarkId::new("graph_direct_query", size),
            &size,
            |b, _| {
                b.iter(|| {
                    black_box(workload.graph.direct_query(
                        &workload.subject,
                        &workload.object,
                        &SearchOptions::at(Timestamp(0)),
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_publication(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let workload = random_mesh(1000, 100, &mut rng);
    let certs = workload.graph.iter_certs();

    c.bench_function("wallet_ops/publish_1000_self_certified", |b| {
        b.iter_with_setup(
            || Wallet::new("pub.wallet", SimClock::new()),
            |wallet| {
                for cert in &certs {
                    wallet.publish(Arc::clone(cert), vec![]).unwrap();
                }
                black_box(wallet.len())
            },
        )
    });
}

fn bench_monitoring(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let workload = drbac_baselines::workload::chain(8, &mut rng);
    let wallet = Wallet::new("mon.wallet", SimClock::new());
    for cert in &workload.graph.iter_certs() {
        wallet.publish(Arc::clone(cert), vec![]).unwrap();
    }
    c.bench_function("wallet_ops/query_and_monitor_chain8", |b| {
        b.iter(|| {
            let monitor = wallet
                .query_direct(&workload.subject, &workload.object, &[])
                .expect("chain exists");
            black_box(monitor.watched().len())
        })
    });

    c.bench_function("wallet_ops/subscribe_unsubscribe", |b| {
        let id = workload.graph.iter_certs()[0].id();
        b.iter(|| {
            let sub = wallet.subscribe(id, |_| {});
            black_box(wallet.unsubscribe(sub))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_wallet_scaling, bench_publication, bench_monitoring
}
criterion_main!(benches);
