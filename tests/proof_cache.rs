//! Proof-cache coherence suite: the wallet's revocation-coherent proof
//! cache must never serve an answer containing a delegation the wallet
//! has revoked or that has expired — *including* delegations reachable
//! only through the support proof of a third-party delegation.
//!
//! The main property test drives a wallet through seeded interleavings
//! of publish / revoke / expire operations and checks the invariant
//! after every step, on answers served both fresh and from the cache.
//! Like `tests/chaos.rs`, the interleaving seed comes from
//! `DRBAC_CHAOS_SEED` (default 2002) so `scripts/check.sh` can sweep a
//! small seed matrix.
//!
//! A second model test holds the wallet's no-op paths to being
//! invisible: absorbing a proof the wallet already holds and re-publishing
//! a held declaration write and invalidate nothing, so a wallet with the
//! cache on must keep answering exactly as one that always searches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drbac::core::{
    AttrConstraint, AttrDeclaration, AttrOp, LocalEntity, Node, Proof, ProofStep,
    SignedAttrDeclaration, SignedDelegation, SignedRevocation, SimClock, Ticks, Timestamp,
    WalletAddr,
};
use drbac::crypto::SchnorrGroup;
use drbac::graph::SearchStats;
use drbac::wallet::Wallet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interleaving seed for this run: `DRBAC_CHAOS_SEED`, default 2002.
fn chaos_seed() -> u64 {
    std::env::var("DRBAC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2002)
}

/// The coherence invariant, checked on one query key. The key is
/// queried twice back-to-back: the first call may search, the second
/// must be served from the cache (zero search work). Neither answer may
/// contain a revoked or expired delegation anywhere in its DAG.
fn assert_coherent(wallet: &Wallet, subject: &Node, object: &Node) {
    let now = wallet.now();
    let (fresh, _) = wallet.query_direct_with_stats(subject, object, &[]);
    let (cached, stats) = wallet.query_direct_with_stats(subject, object, &[]);
    assert_eq!(
        stats,
        SearchStats::default(),
        "immediate re-query of {subject} => {object} was not served from the cache"
    );
    assert_eq!(
        fresh.is_some(),
        cached.is_some(),
        "the cache flipped the {subject} => {object} decision"
    );
    for monitor in [fresh, cached].into_iter().flatten() {
        for cert in monitor.proof().all_certs() {
            assert!(
                !wallet.is_revoked(cert.id()),
                "answer for {subject} => {object} contains the revoked delegation {}",
                cert.delegation()
            );
            assert!(
                !cert.delegation().is_expired(now),
                "answer for {subject} => {object} contains the expired delegation {}",
                cert.delegation()
            );
        }
    }
}

/// One pre-signed publishable credential, its required supports, and the
/// index (into the issuer list) of the entity that can later revoke it.
struct PoolItem {
    cert: SignedDelegation,
    supports: Vec<Proof>,
    issuer: usize,
}

fn run_interleaving(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = SchnorrGroup::test_256();
    let a = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let b = LocalEntity::generate("Broker", g.clone(), &mut rng);
    let users: Vec<LocalEntity> = (0..3)
        .map(|i| LocalEntity::generate(format!("U{i}"), g.clone(), &mut rng))
        .collect();
    let clock = SimClock::new();
    let wallet = Wallet::new("prop", clock.clone());

    // The broker's authority over `tp` — the revocable support proof
    // every third-party enrollment below hangs off.
    let admin_grant = a
        .delegate(Node::entity(&b), Node::role_admin(a.role("tp")))
        .sign(&a)
        .unwrap();
    let support = Proof::from_steps(vec![ProofStep::new(admin_grant.clone())]).unwrap();

    let mut pool: Vec<PoolItem> = Vec::new();
    for (i, u) in users.iter().enumerate() {
        // A plain grant, a short-lived grant that expires mid-run, and a
        // third-party enrollment carried by the broker's support proof.
        pool.push(PoolItem {
            cert: a
                .delegate(Node::entity(u), Node::role(a.role("r0")))
                .serial(i as u64)
                .sign(&a)
                .unwrap(),
            supports: vec![],
            issuer: 0,
        });
        pool.push(PoolItem {
            cert: a
                .delegate(Node::entity(u), Node::role(a.role("r0")))
                .serial(100 + i as u64)
                .expires(Timestamp(4 + 3 * i as u64))
                .sign(&a)
                .unwrap(),
            supports: vec![],
            issuer: 0,
        });
        pool.push(PoolItem {
            cert: b
                .delegate(Node::entity(u), Node::role(a.role("tp")))
                .serial(i as u64)
                .sign(&b)
                .unwrap(),
            supports: vec![support.clone()],
            issuer: 1,
        });
    }
    // A role ladder so multi-hop chains flow through the cache too.
    pool.push(PoolItem {
        cert: a
            .delegate(Node::role(a.role("r0")), Node::role(a.role("r1")))
            .sign(&a)
            .unwrap(),
        supports: vec![],
        issuer: 0,
    });

    let issuers = [&a, &b];
    let mut queries: Vec<(Node, Node)> = Vec::new();
    for u in &users {
        for r in ["r0", "r1", "tp"] {
            queries.push((Node::entity(u), Node::role(a.role(r))));
        }
    }

    let mut published: Vec<(SignedDelegation, usize)> = Vec::new();
    let mut support_published = false;
    let mut support_revoked = false;
    for _ in 0..120 {
        match rng.gen_range(0u32..12) {
            0..=4 if !pool.is_empty() => {
                let item = pool.swap_remove(rng.gen_range(0..pool.len()));
                let is_tp = !item.supports.is_empty();
                // A short-lived credential may already be dead, in which
                // case publication is (correctly) rejected — skip it.
                if wallet.publish(item.cert.clone(), item.supports).is_ok() {
                    published.push((item.cert, item.issuer));
                    support_published |= is_tp;
                }
            }
            5..=6 if !published.is_empty() => {
                let (cert, issuer) = published.swap_remove(rng.gen_range(0..published.len()));
                let rev = SignedRevocation::revoke(&cert, issuers[issuer], wallet.now()).unwrap();
                // The credential may have expired out of the wallet.
                let _ = wallet.revoke(&rev);
            }
            7 if support_published && !support_revoked => {
                // Revoke the broker's authority itself: every cached
                // third-party answer must die with its support proof.
                let rev = SignedRevocation::revoke(&admin_grant, &a, wallet.now()).unwrap();
                wallet.revoke(&rev).unwrap();
                support_revoked = true;
            }
            8 => {
                // Advance time WITHOUT sweeping: expiry must be enforced
                // by the cache itself (min-expiry eviction), not only by
                // process_expiries().
                clock.advance(Ticks(rng.gen_range(1..3)));
            }
            9 => {
                clock.advance(Ticks(rng.gen_range(1..3)));
                wallet.process_expiries();
            }
            _ => {}
        }
        for _ in 0..2 {
            let (s, o) = &queries[rng.gen_range(0..queries.len())];
            assert_coherent(&wallet, s, o);
        }
    }
    // Final sweep over every key, then confirm the cache actually served.
    for (s, o) in &queries {
        assert_coherent(&wallet, s, o);
    }
    assert!(
        wallet.cached_query_answers() > 0,
        "seed {seed}: the proof cache was never exercised"
    );
}

#[test]
fn cache_never_serves_revoked_or_expired_answers() {
    let seed = chaos_seed();
    // Three interleavings per run; check.sh sweeps the base seed 1–3.
    for salt in 0..3u64 {
        run_interleaving(seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9)));
    }
}

#[test]
fn revoking_a_support_proof_invalidates_cached_third_party_answers() {
    let mut rng = StdRng::seed_from_u64(chaos_seed());
    let g = SchnorrGroup::test_256();
    let a = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let b = LocalEntity::generate("Broker", g.clone(), &mut rng);
    let maria = LocalEntity::generate("Maria", g, &mut rng);
    let wallet = Wallet::new("tp", SimClock::new());

    let admin_grant = a
        .delegate(Node::entity(&b), Node::role_admin(a.role("member")))
        .sign(&a)
        .unwrap();
    let support = Proof::from_steps(vec![ProofStep::new(admin_grant.clone())]).unwrap();
    let enrollment = b
        .delegate(Node::entity(&maria), Node::role(a.role("member")))
        .sign(&b)
        .unwrap();
    wallet.publish(enrollment, vec![support]).unwrap();

    let subject = Node::entity(&maria);
    let object = Node::role(a.role("member"));

    // Warm the cache and confirm the cached proof depends on the
    // support grant (the dependency the invalidation must track).
    let monitor = wallet
        .query_direct(&subject, &object, &[])
        .expect("Maria is enrolled");
    let (cached, stats) = wallet.query_direct_with_stats(&subject, &object, &[]);
    let cached = cached.expect("warm cache still grants");
    assert_eq!(stats, SearchStats::default(), "second query should hit the cache");
    assert!(
        cached.proof().delegation_ids().contains(&admin_grant.id()),
        "the cached proof's dependency set includes its support grant"
    );

    let invalidations = Arc::new(AtomicUsize::new(0));
    {
        let invalidations = Arc::clone(&invalidations);
        monitor.on_invalidate(move |_| {
            invalidations.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Revoke ONLY the support grant; the enrollment itself is untouched.
    let rev = SignedRevocation::revoke(&admin_grant, &a, wallet.now()).unwrap();
    wallet.revoke(&rev).unwrap();

    assert!(
        wallet.query_direct(&subject, &object, &[]).is_none(),
        "a cached proof outlived its revoked support"
    );
    assert!(!monitor.is_valid(), "the monitor saw the support die");
    assert_eq!(
        invalidations.load(Ordering::SeqCst),
        1,
        "the monitor callback fired exactly once for the support revocation"
    );
}

#[test]
fn expired_support_is_not_served_from_cache() {
    let mut rng = StdRng::seed_from_u64(chaos_seed());
    let g = SchnorrGroup::test_256();
    let a = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let b = LocalEntity::generate("Broker", g.clone(), &mut rng);
    let maria = LocalEntity::generate("Maria", g, &mut rng);
    let clock = SimClock::new();
    let wallet = Wallet::new("ttl", clock.clone());

    // The support grant expires at T=10; the enrollment never does.
    let admin_grant = a
        .delegate(Node::entity(&b), Node::role_admin(a.role("member")))
        .expires(Timestamp(10))
        .sign(&a)
        .unwrap();
    let support = Proof::from_steps(vec![ProofStep::new(admin_grant)]).unwrap();
    let enrollment = b
        .delegate(Node::entity(&maria), Node::role(a.role("member")))
        .sign(&b)
        .unwrap();
    wallet.publish(enrollment, vec![support]).unwrap();

    let subject = Node::entity(&maria);
    let object = Node::role(a.role("member"));
    assert!(wallet.query_direct(&subject, &object, &[]).is_some());
    let (hit, stats) = wallet.query_direct_with_stats(&subject, &object, &[]);
    assert!(hit.is_some() && stats == SearchStats::default());

    // Advance past the support's expiry WITHOUT process_expiries(): the
    // cached entry's min-expiry must evict it on read, and revalidation
    // of a fresh search must deny.
    clock.advance(Ticks(11));
    assert!(
        wallet.query_direct(&subject, &object, &[]).is_none(),
        "a cached proof outlived its expired support"
    );

    // Sweeping afterwards changes nothing observable.
    wallet.process_expiries();
    assert!(wallet.query_direct(&subject, &object, &[]).is_none());
}

/// One seeded run of the no-op model: every step is applied to a wallet
/// with the proof cache and to one without, and after every step both
/// answer the same queries alike. Returns how many absorbs changed
/// nothing.
fn noop_model(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = SchnorrGroup::test_256();
    let a = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let b = LocalEntity::generate("Broker", g.clone(), &mut rng);
    let users: Vec<LocalEntity> = (0..3)
        .map(|i| LocalEntity::generate(format!("U{i}"), g.clone(), &mut rng))
        .collect();
    let clock = SimClock::new();
    let cached = Wallet::new("cached", clock.clone());
    let plain = Wallet::new("plain", clock.clone());
    plain.set_query_cache(false);
    let source = WalletAddr::new("home");

    // A quota that the r0 => r1 step draws down by 5: a constraint of 10
    // holds under the base of 20 and fails under the base of 10, so
    // re-publishing either declaration can flip an answer.
    let quota = a.attr("quota", AttrOp::Subtract);
    let declarations: Vec<SignedAttrDeclaration> = [10.0, 20.0]
        .map(|base| {
            SignedAttrDeclaration::sign(AttrDeclaration::new(quota.clone(), base).unwrap(), &a)
                .unwrap()
        })
        .to_vec();
    let (r0, r1, tp) = (a.role("r0"), a.role("r1"), a.role("tp"));
    let ladder = a
        .delegate(Node::role(r0.clone()), Node::role(r1.clone()))
        .with_attr(quota.clone(), 5.0)
        .unwrap()
        .sign(&a)
        .unwrap();
    let admin = a
        .delegate(Node::entity(&b), Node::role_admin(tp.clone()))
        .sign(&a)
        .unwrap();
    let support = Proof::from_steps(vec![ProofStep::new(admin.clone())]).unwrap();
    // A second support for the same right: a proof may carry only held
    // credentials and still change which support is registered.
    let admin_again = a
        .delegate(Node::entity(&b), Node::role_admin(tp.clone()))
        .serial(2)
        .sign(&a)
        .unwrap();
    let other_support = Proof::from_steps(vec![ProofStep::new(admin_again.clone())]).unwrap();

    // Credentials reach the wallets as publishes or inside absorbed
    // proofs; revocations name any of them by its issuer.
    let mut certs: Vec<(SignedDelegation, usize)> =
        vec![(ladder.clone(), 0), (admin, 0), (admin_again, 0)];
    let mut proofs: Vec<Proof> =
        vec![Proof::from_steps(vec![ProofStep::new(ladder.clone())]).unwrap()];
    for (i, u) in users.iter().enumerate() {
        let grant = a
            .delegate(Node::entity(u), Node::role(r0.clone()))
            .expires(Timestamp(30 + 10 * i as u64))
            .sign(&a)
            .unwrap();
        let enroll = b
            .delegate(Node::entity(u), Node::role(tp.clone()))
            .sign(&b)
            .unwrap();
        proofs.push(Proof::from_steps(vec![ProofStep::new(grant.clone())]).unwrap());
        proofs.push(
            Proof::from_steps(vec![
                ProofStep::new(grant.clone()),
                ProofStep::new(ladder.clone()),
            ])
            .unwrap(),
        );
        for support in [&support, &other_support] {
            proofs.push(
                Proof::from_steps(vec![
                    ProofStep::new(enroll.clone()).with_support(support.clone())
                ])
                .unwrap(),
            );
        }
        certs.push((grant, 0));
        certs.push((enroll, 1));
    }
    let issuers = [&a, &b];
    let mut queries: Vec<(Node, Node, Vec<AttrConstraint>)> = Vec::new();
    for u in &users {
        for object in [&r0, &r1, &tp] {
            queries.push((Node::entity(u), Node::role(object.clone()), vec![]));
        }
        queries.push((
            Node::entity(u),
            Node::role(r1.clone()),
            vec![AttrConstraint::at_least(quota.clone(), 10.0)],
        ));
    }

    let both = |op: &dyn Fn(&Wallet) -> bool| {
        let (x, y) = (op(&cached), op(&plain));
        assert_eq!(
            x, y,
            "seed {seed}: the wallets disagree on whether a step applied"
        );
        x
    };
    // Whichever path an accepted absorb took, the wallet ends up holding
    // the proof: every credential with coherence metadata, every support
    // registered as delivered.
    let holds = |w: &Wallet, proof: &Proof| {
        proof
            .all_certs()
            .iter()
            .all(|c| w.contains(c.id()) && w.cache_entry(c.id()).is_some())
            && w.with_graph(|g| {
                proof
                    .steps()
                    .iter()
                    .flat_map(|step| step.supports())
                    .all(|s| g.holds_support(s))
            })
    };
    let unchanged = || {
        drbac::obs::global()
            .counter("drbac.wallet.absorb.unchanged.count")
            .get()
    };
    let unchanged_before = unchanged();
    for step in 0..160 {
        match rng.gen_range(0u32..10) {
            // Absorb a fresh decoded copy — new the first time, held after.
            0..=2 => {
                let proof =
                    Proof::from_bytes(&proofs[rng.gen_range(0..proofs.len())].to_bytes()).unwrap();
                if both(&|w| w.absorb_proof(&proof, &source).is_ok()) {
                    assert!(
                        holds(&cached, &proof) && holds(&plain, &proof),
                        "seed {seed}, step {step}: an accepted absorb left the proof unheld"
                    );
                }
            }
            // A twin of a credential: same id, one signature byte flipped.
            3 => {
                let (cert, _) = &certs[rng.gen_range(0..certs.len())];
                let mut bytes = cert.to_bytes();
                *bytes.last_mut().unwrap() ^= 1;
                let twin = SignedDelegation::from_bytes(&bytes).unwrap();
                let proof = Proof::from_steps(vec![ProofStep::new(twin)]).unwrap();
                both(&|w| w.absorb_proof(&proof, &source).is_ok());
            }
            4 => {
                let (cert, _) = &certs[rng.gen_range(0..certs.len())];
                let supports = match cert.delegation().needs_support() {
                    true => vec![support.clone()],
                    false => vec![],
                };
                both(&|w| w.publish(cert.clone(), supports.clone()).is_ok());
            }
            5 if rng.gen_range(0..3) == 0 => {
                let (cert, issuer) = &certs[rng.gen_range(0..certs.len())];
                let rev = SignedRevocation::revoke(cert, issuers[*issuer], clock.now()).unwrap();
                both(&|w| w.revoke(&rev).is_ok());
            }
            6 => {
                let decl = &declarations[rng.gen_range(0..declarations.len())];
                both(&|w| w.publish_declaration(decl).is_ok());
            }
            7 => {
                clock.advance(Ticks(rng.gen_range(1..4)));
                both(&|w| {
                    w.process_expiries();
                    true
                });
            }
            _ => {}
        }
        for _ in 0..3 {
            let (s, o, c) = &queries[rng.gen_range(0..queries.len())];
            let answers = [&cached, &plain].map(|w| w.query_direct(s, o, c).is_some());
            assert_eq!(
                answers[0], answers[1],
                "seed {seed}, step {step}: {s} => {o} {c:?} answered {} with the cache, {} without",
                answers[0], answers[1]
            );
        }
        assert_eq!(cached.len(), plain.len(), "seed {seed}, step {step}");
    }
    unchanged() - unchanged_before
}

#[test]
fn no_op_absorbs_and_declarations_are_invisible_to_answers() {
    let seed = chaos_seed();
    let mut unchanged = 0;
    for salt in 0..3u64 {
        unchanged += noop_model(seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9)));
    }
    assert!(unchanged > 0, "no absorb took the no-op path");
}
