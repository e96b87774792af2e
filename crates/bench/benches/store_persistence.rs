//! Durability cost: write-ahead append throughput (records/sec, by
//! group-commit batch size) and crash-recovery time (log scan and full
//! wallet replay). The table printed at bench start records the
//! headline numbers — appends/sec and replay ms per 10k records — so
//! future runs can track the trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drbac_baselines::workload::random_mesh;
use drbac_bench::{fmt, table_header, table_row};
use drbac_core::{DelegationId, SimClock};
use drbac_store::{scan_log, StoreConfig, StoreEvent, WalletStore};
use drbac_wallet::Wallet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A cheap fixed-size record — isolates framing/CRC/medium cost from
/// credential signing, which the wallet benches already measure.
fn tombstone(i: u64) -> StoreEvent {
    let mut id = [0u8; 32];
    id[..8].copy_from_slice(&i.to_be_bytes());
    StoreEvent::RevokeMark(DelegationId(id))
}

fn tombstone_log(records: u64) -> Vec<u8> {
    let store = WalletStore::in_memory();
    for i in 0..records {
        store.append(&tombstone(i)).unwrap();
    }
    store.log_bytes().unwrap()
}

/// A journaled wallet workload: every publish lands in the store, so
/// recovery replays real signed credentials through re-verification.
fn journaled_store(certs: usize) -> Arc<WalletStore> {
    let mut rng = StdRng::seed_from_u64(certs as u64);
    let workload = random_mesh(certs, (certs / 10).max(4), &mut rng);
    let wallet = Wallet::new("bench.store", SimClock::new());
    let store = Arc::new(WalletStore::in_memory());
    wallet.attach_journal(Arc::clone(&store));
    for cert in &workload.graph.iter_certs() {
        wallet.publish(Arc::clone(cert), vec![]).unwrap();
    }
    store
}

/// Headline trajectory numbers, printed once so `cargo bench` output
/// (and EXPERIMENTS.md snapshots) carry the full experiment record.
fn print_headline_table() {
    const N: u64 = 10_000;
    table_header(
        "Experiment F-S: durable store headline costs (10k records)",
        &["metric", "value"],
    );

    let start = Instant::now();
    let log = tombstone_log(N);
    let append_secs = start.elapsed().as_secs_f64();
    table_row(&[
        "append throughput (records/sec, group_commit=1)".into(),
        fmt(N as f64 / append_secs),
    ]);
    table_row(&["log size (bytes)".into(), fmt(log.len() as f64)]);

    let start = Instant::now();
    let scan = scan_log(&log);
    table_row(&[
        "scan 10k records (ms)".into(),
        fmt(start.elapsed().as_secs_f64() * 1e3),
    ]);
    assert_eq!(scan.records.len() as u64, N);

    let store = WalletStore::from_log_bytes(log);
    let start = Instant::now();
    let recovered = store.recover().unwrap();
    table_row(&[
        "recover 10k records (ms)".into(),
        fmt(start.elapsed().as_secs_f64() * 1e3),
    ]);
    assert_eq!(recovered.events.len() as u64, N);

    let store = journaled_store(1_000);
    let wallet = Wallet::new("bench.replay", SimClock::new());
    let start = Instant::now();
    let report = wallet.recover_from_store(&store).unwrap();
    let replay_secs = start.elapsed().as_secs_f64();
    table_row(&[
        "wallet replay, 1k re-verified credentials (ms)".into(),
        fmt(replay_secs * 1e3),
    ]);
    table_row(&[
        "wallet replay extrapolated (ms per 10k records)".into(),
        fmt(replay_secs * 1e7 / report.replayed as f64),
    ]);
    eprintln!();
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_persistence/append");
    group.throughput(Throughput::Elements(1));
    for &batch in &[1u64, 64] {
        let store = WalletStore::in_memory_with(StoreConfig {
            group_commit: batch,
        });
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::new("group_commit", batch),
            &batch,
            |b, _| {
                b.iter(|| {
                    i += 1;
                    black_box(store.append(&tombstone(i)).unwrap())
                })
            },
        );
    }
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_persistence/recovery");
    for &records in &[1_000u64, 10_000] {
        let log = tombstone_log(records);
        group.throughput(Throughput::Elements(records));
        group.bench_with_input(
            BenchmarkId::new("scan_log", records),
            &records,
            |b, _| b.iter(|| black_box(scan_log(black_box(&log))).records.len()),
        );
        group.bench_with_input(
            BenchmarkId::new("recover", records),
            &records,
            |b, _| {
                b.iter_with_setup(
                    || WalletStore::from_log_bytes(log.clone()),
                    |store| black_box(store.recover().unwrap()).events.len(),
                )
            },
        );
    }
    group.finish();
}

fn bench_wallet_replay(c: &mut Criterion) {
    let store = journaled_store(1_000);
    c.bench_function("store_persistence/wallet_replay_1000", |b| {
        b.iter_with_setup(
            || Wallet::new("bench.replay", SimClock::new()),
            |wallet| {
                let report = wallet.recover_from_store(&store).unwrap();
                assert_eq!(report.skipped, 0);
                black_box(report.replayed)
            },
        )
    });
}

fn bench_snapshot_compaction(c: &mut Criterion) {
    let store = journaled_store(1_000);
    let wallet = Wallet::new("bench.snap", SimClock::new());
    wallet.recover_from_store(&store).unwrap();
    c.bench_function("store_persistence/snapshot_and_compact_1000", |b| {
        b.iter(|| {
            store
                .install_snapshot(|| wallet.export_bytes())
                .unwrap();
            black_box(store.status().records)
        })
    });
}

fn headline_then_benches(c: &mut Criterion) {
    print_headline_table();
    bench_append(c);
    bench_recovery(c);
    bench_wallet_replay(c);
    bench_snapshot_compaction(c);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = headline_then_benches
}
criterion_main!(benches);
