//! Ablation bench for the PKI substrate's design choices (DESIGN.md §4):
//!
//! * Montgomery-windowed modular exponentiation vs naive binary
//!   square-and-multiply with division-based reduction (the dominant cost
//!   of signing/verifying), and the joint `g^a·y^b` a verify computes
//!   beside it;
//! * Karatsuba vs schoolbook multiplication across operand sizes;
//! * signature cost in the test group vs the 2048-bit production group,
//!   tying the substrate numbers to end-to-end credential costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drbac_bignum::{BigUint, MontgomeryCtx};
use drbac_crypto::{KeyPair, SchnorrGroup};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_biguint(limbs: usize, rng: &mut StdRng) -> BigUint {
    BigUint::from_limbs((0..limbs).map(|_| rng.gen()).collect())
}

fn random_odd(limbs: usize, rng: &mut StdRng) -> BigUint {
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
    v[0] |= 1;
    v[limbs - 1] |= 1 << 63; // full width
    BigUint::from_limbs(v)
}

fn bench_modpow(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    // The joint row's second base and exponent, drawn apart so the other
    // rows keep their inputs.
    let mut joint_rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("bignum_ablation/modpow");
    group.sample_size(10);
    for limbs in [4usize, 16, 32] {
        // bits = limbs * 64 (256 / 1024 / 2048).
        let modulus = random_odd(limbs, &mut rng);
        let base = random_biguint(limbs, &mut rng).rem_ref(&modulus);
        let exp = random_biguint(limbs, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("montgomery_windowed", limbs * 64),
            &limbs,
            |b, _| b.iter(|| black_box(base.modpow(&exp, &modulus))),
        );
        group.bench_with_input(
            BenchmarkId::new("naive_binary", limbs * 64),
            &limbs,
            |b, _| b.iter(|| black_box(base.modpow_naive(&exp, &modulus))),
        );
        // Context reuse (what verification amortizes).
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        group.bench_with_input(
            BenchmarkId::new("montgomery_reused_ctx", limbs * 64),
            &limbs,
            |b, _| b.iter(|| black_box(ctx.modpow(&base, &exp))),
        );
        // g^a · y^b in one pass with `g`'s table prebuilt — a verify's
        // `g^s · y^(q−e)`, against two `montgomery_reused_ctx` rows.
        let g_table = ctx.power_table(&base);
        let y = random_biguint(limbs, &mut joint_rng).rem_ref(&modulus);
        let exp_y = random_biguint(limbs, &mut joint_rng);
        group.bench_with_input(
            BenchmarkId::new("joint_two_base", limbs * 64),
            &limbs,
            |b, _| {
                b.iter(|| {
                    let y_table = ctx.power_table(&y);
                    black_box(ctx.multi_pow(&[(&g_table, &exp), (&y_table, &exp_y)]))
                })
            },
        );
    }
    group.finish();
}

/// Schnorr sign and verify per group. `verify_memoised` is a check under a
/// key whose subgroup membership is already memoised (every key seen
/// before); `membership` is the one extra exponentiation a never-seen key
/// pays on top of it.
fn bench_signatures(c: &mut Criterion) {
    let mut group = c.benchmark_group("bignum_ablation/schnorr");
    group.sample_size(10);
    for (name, g) in [
        ("test_256", SchnorrGroup::test_256()),
        ("modp_2048", SchnorrGroup::modp_2048()),
    ] {
        let kp = KeyPair::from_secret_exponent(g.clone(), BigUint::from(0x5eed_1234u64));
        let msg = b"bignum_ablation signature row";
        let sig = kp.sign(msg);
        assert!(kp.public_key().verify(msg, &sig));
        group.bench_function(BenchmarkId::new("sign", name), |b| {
            b.iter(|| black_box(kp.sign(msg)))
        });
        group.bench_function(BenchmarkId::new("verify_memoised", name), |b| {
            b.iter(|| black_box(kp.public_key().verify(msg, &sig)))
        });
        group.bench_function(BenchmarkId::new("membership", name), |b| {
            b.iter(|| black_box(g.is_subgroup_element(kp.public_key().y())))
        });
    }
    group.finish();
}

fn bench_multiplication(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("bignum_ablation/mul");
    for limbs in [8usize, 24, 64, 128] {
        let a = random_biguint(limbs, &mut rng);
        let b_val = random_biguint(limbs, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("schoolbook", limbs * 64),
            &limbs,
            |bch, _| bch.iter(|| black_box(a.mul_schoolbook(&b_val))),
        );
        group.bench_with_input(
            BenchmarkId::new("karatsuba", limbs * 64),
            &limbs,
            |bch, _| bch.iter(|| black_box(a.mul_karatsuba(&b_val))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_modpow, bench_signatures, bench_multiplication
}
criterion_main!(benches);
