//! Wire-codec and syntax throughput: serialization cost of credentials
//! and proofs (what every inter-wallet message pays), the frame checksum
//! and framing every network message pays on both ends, plus the
//! textual parser/renderer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drbac_core::syntax::{parse_delegation, render_delegation, SyntaxContext};
use drbac_core::{LocalEntity, Node, Proof, ProofStep, SignedDelegation};
use drbac_crypto::SchnorrGroup;
use drbac_net::proto::Reply;
use drbac_net::wire::{self, FrameKind};
use drbac_store::{crc32, crc32_portable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn fixtures() -> (LocalEntity, LocalEntity, SignedDelegation, Proof) {
    let mut rng = StdRng::seed_from_u64(1);
    let g = SchnorrGroup::test_256();
    let a = LocalEntity::generate("A", g.clone(), &mut rng);
    let m = LocalEntity::generate("M", g, &mut rng);
    let bw = a.attr("bw", drbac_core::AttrOp::Min);
    let cert = a
        .delegate(Node::entity(&m), Node::role(a.role("r")))
        .with_attr(bw, 100.0)
        .unwrap()
        .sign(&a)
        .unwrap();

    // An 8-step chain with one supported third-party step.
    let mut steps = Vec::new();
    let mut prev = Node::entity(&m);
    for i in 0..8 {
        let next = Node::role(a.role(&format!("c{i}")));
        let c = a.delegate(prev.clone(), next.clone()).sign(&a).unwrap();
        steps.push(ProofStep::new(c));
        prev = next;
    }
    let proof = Proof::from_steps(steps).unwrap();
    (a, m, cert, proof)
}

fn bench_wire(c: &mut Criterion) {
    let (_, _, cert, proof) = fixtures();
    let cert_bytes = cert.to_bytes();
    let proof_bytes = proof.to_bytes();

    let mut group = c.benchmark_group("codec/wire");
    group.throughput(Throughput::Bytes(cert_bytes.len() as u64));
    group.bench_function(BenchmarkId::new("encode_cert", cert_bytes.len()), |b| {
        b.iter(|| black_box(cert.to_bytes()))
    });
    group.bench_function(BenchmarkId::new("decode_cert", cert_bytes.len()), |b| {
        b.iter(|| SignedDelegation::from_bytes(black_box(&cert_bytes)).unwrap())
    });
    group.throughput(Throughput::Bytes(proof_bytes.len() as u64));
    group.bench_function(BenchmarkId::new("encode_proof8", proof_bytes.len()), |b| {
        b.iter(|| black_box(proof.to_bytes()))
    });
    group.bench_function(BenchmarkId::new("decode_proof8", proof_bytes.len()), |b| {
        b.iter(|| Proof::from_bytes(black_box(&proof_bytes)).unwrap())
    });
    group.finish();
}

/// The CRC-32 on the table path and on the path `crc32` dispatches to
/// on this CPU, at a small frame, a typical reply and a large block;
/// then one four-step grant's reply written and read back as a frame.
fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/frame");
    for len in [64usize, 1024, 64 * 1024] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(BenchmarkId::new("crc32_portable", len), |b| {
            b.iter(|| black_box(crc32_portable(black_box(&data))))
        });
        group.bench_function(BenchmarkId::new("crc32", len), |b| {
            b.iter(|| black_box(crc32(black_box(&data))))
        });
    }

    let (a, m, _, _) = fixtures();
    let mut steps = Vec::new();
    let mut prev = Node::entity(&m);
    for i in 0..4 {
        let next = Node::role(a.role(&format!("rung{i}")));
        steps.push(ProofStep::new(
            a.delegate(prev, next.clone()).sign(&a).unwrap(),
        ));
        prev = next;
    }
    let reply = Reply::Proofs(vec![Proof::from_steps(steps).unwrap()]);
    let payload = wire::encode_reply(&reply);
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, FrameKind::Reply, &payload).unwrap();
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function(BenchmarkId::new("encode_reply4", payload.len()), |b| {
        b.iter(|| black_box(wire::encode_reply(black_box(&reply))))
    });
    group.bench_function(BenchmarkId::new("write_read_frame4", frame.len()), |b| {
        b.iter(|| {
            frame.clear();
            wire::write_frame(&mut frame, FrameKind::Reply, black_box(&payload)).unwrap();
            black_box(wire::read_frame(&mut frame.as_slice()).unwrap())
        })
    });
    group.finish();
}

fn bench_syntax(c: &mut Criterion) {
    let (a, m, cert, _) = fixtures();
    let mut ctx = SyntaxContext::new();
    ctx.register("A", a.id());
    ctx.register("M", m.id());
    let text = render_delegation(cert.delegation(), &ctx);

    let mut group = c.benchmark_group("codec/syntax");
    group.bench_function("render", |b| {
        b.iter(|| black_box(render_delegation(cert.delegation(), &ctx)))
    });
    group.bench_function("parse", |b| {
        b.iter(|| parse_delegation(black_box(&text), &ctx).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wire, bench_frame, bench_syntax
}
criterion_main!(benches);
