//! Concurrency stress: a single shared wallet hammered from many threads
//! (publishers, queriers, revokers, monitors) must stay consistent and
//! deadlock-free — wallets are the shared substrate every host component
//! touches.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use drbac::core::{
    DelegationId, LocalEntity, Node, Proof, SignedDelegation, SignedRevocation, SimClock,
};
use drbac::crypto::SchnorrGroup;
use drbac::wallet::{ProofMonitor, Wallet};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn wallet_survives_concurrent_publish_query_revoke() {
    let mut rng = StdRng::seed_from_u64(0xC0);
    let g = SchnorrGroup::test_256();
    let owner = Arc::new(LocalEntity::generate("Owner", g.clone(), &mut rng));
    let users: Vec<Arc<LocalEntity>> = (0..4)
        .map(|i| Arc::new(LocalEntity::generate(format!("U{i}"), g.clone(), &mut rng)))
        .collect();
    let wallet = Wallet::new("stress", SimClock::new());

    // Pre-sign all credentials on the main thread (signing needs &mut rng
    // determinism, the stress is on the wallet, not the signer).
    let per_user = 20usize;
    let mut certs: Vec<Vec<SignedDelegation>> = Vec::new();
    for user in &users {
        let mut list = Vec::new();
        for serial in 0..per_user {
            list.push(
                owner
                    .delegate(
                        Node::entity(user.as_ref()),
                        Node::role(owner.role("shared")),
                    )
                    .serial(serial as u64)
                    .sign(&owner)
                    .unwrap(),
            );
        }
        certs.push(list);
    }

    let granted = Arc::new(AtomicUsize::new(0));
    let denied = Arc::new(AtomicUsize::new(0));
    let invalidations = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // Publishers: each thread publishes one user's credentials, then
        // revokes half of them.
        for (user_idx, list) in certs.iter().enumerate() {
            let wallet = wallet.clone();
            let owner = Arc::clone(&owner);
            scope.spawn(move || {
                for (i, cert) in list.iter().enumerate() {
                    wallet.publish(cert.clone(), vec![]).unwrap();
                    if i % 2 == user_idx % 2 {
                        let revocation =
                            SignedRevocation::revoke(cert, &owner, wallet.now()).unwrap();
                        wallet.revoke(&revocation).unwrap();
                    }
                }
            });
        }
        // Queriers: race the publishers; count outcomes and attach
        // monitors with callbacks (exercises the reentrancy-safe paths).
        for user in &users {
            let wallet = wallet.clone();
            let owner = Arc::clone(&owner);
            let user = Arc::clone(user);
            let granted = Arc::clone(&granted);
            let denied = Arc::clone(&denied);
            let invalidations = Arc::clone(&invalidations);
            scope.spawn(move || {
                for _ in 0..200 {
                    match wallet.query_direct(
                        &Node::entity(user.as_ref()),
                        &Node::role(owner.role("shared")),
                        &[],
                    ) {
                        Some(monitor) => {
                            granted.fetch_add(1, Ordering::Relaxed);
                            let invalidations = Arc::clone(&invalidations);
                            monitor.on_invalidate(move |_| {
                                invalidations.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                        None => {
                            denied.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Post-conditions: half of each user's credentials remain valid, so
    // every user is still authorized; the survivors answer queries.
    for user in &users {
        assert!(
            wallet
                .query_direct(
                    &Node::entity(user.as_ref()),
                    &Node::role(owner.role("shared")),
                    &[]
                )
                .is_some(),
            "{} still holds an unrevoked grant",
            user.name()
        );
    }
    assert_eq!(wallet.len(), users.len() * per_user);
    // The queriers ran: every query either granted or denied.
    assert_eq!(
        granted.load(Ordering::Relaxed) + denied.load(Ordering::Relaxed),
        4 * 200
    );

    // Export under no contention still works and re-imports.
    let image = wallet.export_bytes();
    let restored = Wallet::new("restored", SimClock::new());
    let report = restored.import_bytes(&image).unwrap();
    assert_eq!(report.credentials, users.len() * per_user);
}

#[test]
fn shared_clock_and_wallet_clones_are_coherent() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    let g = SchnorrGroup::test_256();
    let owner = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let user = LocalEntity::generate("User", g, &mut rng);
    let clock = SimClock::new();
    let wallet = Wallet::new("clones", clock.clone());

    // Writers advance time while publishing expiring credentials; a
    // reader clone processes expiries concurrently.
    let cert = owner
        .delegate(Node::entity(&user), Node::role(owner.role("r")))
        .expires(drbac::core::Timestamp(50))
        .sign(&owner)
        .unwrap();
    wallet.publish(cert, vec![]).unwrap();

    std::thread::scope(|scope| {
        let w1 = wallet.clone();
        let c1 = clock.clone();
        scope.spawn(move || {
            for _ in 0..100 {
                c1.advance(drbac::core::Ticks(1));
                w1.process_expiries();
            }
        });
        let w2 = wallet.clone();
        scope.spawn(move || {
            for _ in 0..100 {
                let _ = w2.query_direct(&Node::entity(&user), &Node::role(owner.role("r")), &[]);
            }
        });
    });

    // Time passed 100 ticks: the credential expired and is gone.
    assert!(wallet.is_empty());
}

/// Normalizes a query result set to the proven relationships. Two
/// wallets holding the same credentials must prove the same
/// relationships, though each may pick a different representative proof
/// when several equivalent ones exist.
fn relationships(proofs: &[Proof]) -> BTreeSet<String> {
    proofs
        .iter()
        .map(|p| format!("{} => {}", p.subject(), p.object()))
        .collect()
}

/// Prover threads hammer direct/subject/object queries (through the
/// proof cache) while writer threads
/// publish and revoke. After quiesce, every answer must equal a fresh
/// single-threaded, cache-disabled search over the same credentials
/// (oracle check), and a post-quiesce revocation sweep must fire the
/// monitor of every cached proof it invalidates.
#[test]
fn racing_provers_agree_with_a_single_threaded_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    let g = SchnorrGroup::test_256();
    let owner = Arc::new(LocalEntity::generate("Owner", g.clone(), &mut rng));
    let users: Vec<Arc<LocalEntity>> = (0..4)
        .map(|i| Arc::new(LocalEntity::generate(format!("P{i}"), g.clone(), &mut rng)))
        .collect();
    let clock = SimClock::new();
    let wallet = Wallet::new("oracle-race", clock.clone());

    let per_user = 10usize;
    let mut certs: Vec<Vec<SignedDelegation>> = Vec::new();
    for user in &users {
        certs.push(
            (0..per_user)
                .map(|serial| {
                    owner
                        .delegate(Node::entity(user.as_ref()), Node::role(owner.role("race")))
                        .serial(serial as u64)
                        .sign(&owner)
                        .unwrap()
                })
                .collect(),
        );
    }

    // Monitors collected by the provers, with a fired-callback counter
    // attached to each — the post-quiesce sweep checks them all.
    type WatchedMonitors = Arc<Mutex<Vec<(ProofMonitor, Arc<AtomicUsize>)>>>;
    let monitors: WatchedMonitors = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|scope| {
        // Writers: publish one user's credentials, revoking every third.
        for list in certs.iter() {
            let wallet = wallet.clone();
            let owner = Arc::clone(&owner);
            scope.spawn(move || {
                for (i, cert) in list.iter().enumerate() {
                    wallet.publish(cert.clone(), vec![]).unwrap();
                    if i % 3 == 0 {
                        let rev = SignedRevocation::revoke(cert, &owner, wallet.now()).unwrap();
                        wallet.revoke(&rev).unwrap();
                    }
                }
            });
        }
        // Provers: direct queries (cache + monitors) and subject/object
        // sweeps, racing the writers.
        for prover in 0..3usize {
            let wallet = wallet.clone();
            let owner = Arc::clone(&owner);
            let users: Vec<Arc<LocalEntity>> = users.iter().map(Arc::clone).collect();
            let monitors = Arc::clone(&monitors);
            scope.spawn(move || {
                let role = Node::role(owner.role("race"));
                for i in 0..120usize {
                    let user = &users[(prover + i) % users.len()];
                    if let Some(monitor) =
                        wallet.query_direct(&Node::entity(user.as_ref()), &role, &[])
                    {
                        let fired = Arc::new(AtomicUsize::new(0));
                        {
                            let fired = Arc::clone(&fired);
                            monitor.on_invalidate(move |_| {
                                fired.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                        monitors.lock().unwrap().push((monitor, fired));
                    }
                    let _ = wallet.query_subject(&Node::entity(user.as_ref()), &[]);
                    let _ = wallet.query_object(&role, &[]);
                }
            });
        }
    });

    // Quiesced. A pathological schedule can starve the writers until the
    // provers have burned all their iterations on negative answers (each
    // cold negative is microseconds on a small graph), leaving no
    // monitors collected during the race — so take one guaranteed
    // post-quiesce monitor per user; the revocation sweep below then
    // always has watched proofs to check.
    let role = Node::role(owner.role("race"));
    for user in &users {
        if let Some(monitor) = wallet.query_direct(&Node::entity(user.as_ref()), &role, &[]) {
            let fired = Arc::new(AtomicUsize::new(0));
            {
                let fired = Arc::clone(&fired);
                monitor.on_invalidate(move |_| {
                    fired.fetch_add(1, Ordering::SeqCst);
                });
            }
            monitors.lock().unwrap().push((monitor, fired));
        }
    }

    // Build the oracle: a fresh wallet on the same clock with the cache
    // off, fed the exported image (credentials, supports, and revocation
    // marks).
    let oracle = Wallet::new("oracle", clock);
    oracle.set_query_cache(false);
    let report = oracle.import_bytes(&wallet.export_bytes()).unwrap();
    assert_eq!(report.credentials, users.len() * per_user);

    for user in &users {
        let subject = Node::entity(user.as_ref());
        // Grant/deny decisions agree (the racing wallet answers through
        // its warm cache, the oracle searches from scratch)…
        assert_eq!(
            wallet.query_direct(&subject, &role, &[]).is_some(),
            oracle.query_direct(&subject, &role, &[]).is_some(),
            "{}: cached decision diverged from the oracle",
            user.name()
        );
        // …and so do the proven relationships.
        assert_eq!(
            relationships(&wallet.query_subject(&subject, &[])),
            relationships(&oracle.query_subject(&subject, &[])),
            "{}: subject query diverged from the oracle",
            user.name()
        );
    }
    assert_eq!(
        relationships(&wallet.query_object(&role, &[])),
        relationships(&oracle.query_object(&role, &[])),
        "object query diverged from the oracle"
    );

    // Post-quiesce sweep: revoke every surviving credential of the first
    // user. Every monitor holding a (possibly cached) proof that depends
    // on one of them must be invalidated AND must have fired.
    let mut swept: BTreeSet<DelegationId> = BTreeSet::new();
    for cert in &certs[0] {
        if !wallet.is_revoked(cert.id()) {
            let rev = SignedRevocation::revoke(cert, &owner, wallet.now()).unwrap();
            wallet.revoke(&rev).unwrap();
            swept.insert(cert.id());
        }
    }
    assert!(!swept.is_empty(), "the sweep revoked something");
    assert!(
        wallet
            .query_direct(&Node::entity(users[0].as_ref()), &role, &[])
            .is_none(),
        "user 0 lost every grant; no cached proof may survive the sweep"
    );

    let monitors = monitors.lock().unwrap();
    assert!(!monitors.is_empty(), "the provers collected monitors");
    let mut checked = 0usize;
    for (monitor, fired) in monitors.iter() {
        if monitor.watched().iter().any(|id| swept.contains(id)) {
            assert!(
                !monitor.is_valid(),
                "a monitor outlived the revocation of its proof"
            );
            assert!(
                fired.load(Ordering::SeqCst) >= 1,
                "a monitored cached proof was invalidated without firing its callback"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the sweep invalidated at least one monitored proof");
}

/// Cross-seed engine oracle: the optimized search engine (interned ids,
/// parent-pointer proof assembly) must produce **byte-identical** proofs
/// to the preserved pre-interning reference engine
/// (`drbac::graph::reference`) on randomized tangled graphs — for every
/// query form, with and without constraints. Seeds come from
/// `DRBAC_CHAOS_SEED` (default 2002) plus two derived values, so CI runs
/// with different seeds cover different graph shapes.
#[test]
fn optimized_engine_matches_reference_engine_byte_for_byte() {
    use drbac::core::{AttrConstraint, AttrDeclaration, AttrOp, Timestamp};
    use drbac::graph::{reference, DelegationGraph, SearchOptions};
    use rand::Rng;

    let base: u64 = std::env::var("DRBAC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2002);
    let g = SchnorrGroup::test_256();

    for seed in [base, base ^ 0x9e37, base.wrapping_add(17)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let owner = LocalEntity::generate("Own", g.clone(), &mut rng);
        let partner = LocalEntity::generate("Par", g.clone(), &mut rng);
        let maria = LocalEntity::generate("Maria", g.clone(), &mut rng);
        let bw = owner.attr("BW", AttrOp::Min);
        let graph = DelegationGraph::new();
        graph.insert_declaration(&AttrDeclaration::new(bw.clone(), 1000.0).unwrap());

        // Random layered mesh: 12 roles, 40 random edges (possible
        // cycles, parallel edges, dead ends), a third of them carrying
        // attributes, a fifth carrying transitive-trust limits.
        let roles: Vec<Node> = (0..12)
            .map(|i| Node::role(owner.role(&format!("s{seed}r{i}"))))
            .collect();
        let mut nodes: Vec<Node> = vec![Node::entity(&maria)];
        nodes.extend(roles.iter().cloned());
        for serial in 0..40u64 {
            let from = nodes[rng.gen_range(0..nodes.len())].clone();
            let to = roles[rng.gen_range(0..roles.len())].clone();
            if from == to {
                continue;
            }
            let mut b = owner.delegate(from, to).serial(serial);
            if rng.gen_range(0..3u32) == 0 {
                b = b.with_attr(bw.clone(), rng.gen_range(50.0..900.0)).unwrap();
            }
            if rng.gen_range(0..5u32) == 0 {
                b = b.max_extension_depth(rng.gen_range(0..3u64));
            }
            graph.insert(b.sign(&owner).unwrap());
        }
        // A third-party edge whose support is discoverable in the graph.
        graph.insert(
            owner
                .delegate(
                    Node::entity(&partner),
                    Node::role_admin(owner.role(&format!("s{seed}r0"))),
                )
                .serial(100)
                .sign(&owner)
                .unwrap(),
        );
        graph.insert(
            partner
                .delegate(Node::entity(&maria), roles[0].clone())
                .serial(101)
                .sign(&partner)
                .unwrap(),
        );

        let subject = Node::entity(&maria);
        let variants = [
            SearchOptions::at(Timestamp(0)),
            SearchOptions::at(Timestamp(0))
                .with_constraint(AttrConstraint::at_least(bw.clone(), 200.0)),
        ];
        for opts in &variants {
            let bytes = |p: &Proof| p.to_bytes();
            for target in &nodes {
                let (want, _) = reference::direct_query_ref(&graph, &subject, target, opts);
                let (got, _) = graph.direct_query(&subject, target, opts);
                assert_eq!(
                    want.as_ref().map(bytes),
                    got.as_ref().map(bytes),
                    "seed {seed}: direct_query({target}) diverged"
                );
            }
            let (want, _) = reference::subject_query_ref(&graph, &subject, opts);
            let (got, _) = graph.subject_query(&subject, opts);
            assert_eq!(
                want.iter().map(bytes).collect::<Vec<_>>(),
                got.iter().map(bytes).collect::<Vec<_>>(),
                "seed {seed}: subject_query diverged"
            );
            for target in &roles {
                let (want, _) = reference::object_query_ref(&graph, target, opts);
                let (got, _) = graph.object_query(target, opts);
                assert_eq!(
                    want.iter().map(bytes).collect::<Vec<_>>(),
                    got.iter().map(bytes).collect::<Vec<_>>(),
                    "seed {seed}: object_query({target}) diverged"
                );
            }
        }
    }
}

/// Singleflight: a flash crowd of identical cold queries against one
/// wallet must coalesce onto one leader search instead of each running
/// its own, and every caller must still get the right (validated) answer.
#[test]
fn identical_cold_queries_coalesce_onto_one_search() {
    let mut rng = StdRng::seed_from_u64(0xC3);
    let g = SchnorrGroup::test_256();
    let owner = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let user = LocalEntity::generate("User", g, &mut rng);
    let wallet = Wallet::new("coalesce", SimClock::new());
    // A little depth so the leader's search is not instantaneous.
    let mut prev = Node::entity(&user);
    for i in 0..4 {
        let r = Node::role(owner.role(&format!("l{i}")));
        wallet
            .publish(
                owner.delegate(prev.clone(), r.clone()).sign(&owner).unwrap(),
                vec![],
            )
            .unwrap();
        prev = r;
    }
    let target = prev;
    // Cache off: every query takes the cold path, so coalescing (not the
    // answer cache) is what's exercised.
    wallet.set_query_cache(false);

    // Counted locally through the per-query stats (a coalesced follower
    // reports zero search work; a leader expands at least the subject
    // node) — the global obs counters are process-wide and other tests
    // in this binary would pollute a delta.
    let hits = Arc::new(AtomicUsize::new(0));
    let searched = Arc::new(AtomicUsize::new(0));
    let coalesced = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let wallet = wallet.clone();
            let subject = Node::entity(&user);
            let target = target.clone();
            let hits = Arc::clone(&hits);
            let searched = Arc::clone(&searched);
            let coalesced = Arc::clone(&coalesced);
            scope.spawn(move || {
                for _ in 0..50 {
                    let (monitor, stats) =
                        wallet.query_direct_with_stats(&subject, &target, &[]);
                    if monitor.is_some() {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    if stats.nodes_expanded > 0 {
                        searched.fetch_add(1, Ordering::Relaxed);
                    } else {
                        coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(hits.load(Ordering::Relaxed), 8 * 50, "every caller got the proof");
    let searched = searched.load(Ordering::Relaxed);
    let coalesced = coalesced.load(Ordering::Relaxed);
    assert_eq!(
        searched + coalesced,
        8 * 50,
        "cache disabled: every query either searched or coalesced"
    );
    assert!(searched > 0, "somebody led a search");
    assert!(
        coalesced > 0,
        "with 8 threads hammering one key, some queries must have coalesced"
    );
}
