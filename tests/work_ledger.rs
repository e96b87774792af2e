//! The work ledger: what the wallet's write and cold-read paths *do*,
//! pinned as exact counts — no clock anywhere in this file.
//!
//! The claim held here is that a write costs what it changes and a cold
//! answer costs what its proof holds: neither may grow with the wallet's
//! revocation history. Every row is therefore measured twice, on the
//! same seeded world with 0 and with 5,000 revocation marks, and the two
//! ledgers must be equal.
//!
//! The second claim is that a signature check costs one exponentiation
//! for a key seen before, on a kernel that allocates nothing per
//! multiplication: exponentiations are counted, and a counting global
//! allocator shows the heap allocations of an exponentiation do not grow
//! with its exponent.
//!
//! The second claim extends to the signed envelope: a credential whose
//! signature has checked is not checked again. Re-verifying it, or
//! re-validating a proof built from such credentials, costs no
//! exponentiation and no allocation.
//!
//! The third claim is the paper's §4.2.3 search argument (experiment
//! F-A): the edges each strategy considers on the funnels and layered
//! DAGs of `crates/bench/benches/search_strategies.rs`, built from the
//! same seeds, are pinned whole.
//!
//! The counts are deltas of process-global `drbac.*` counters, so the
//! ledger lives in its own test binary and its tests run one at a time
//! (they hold [`SERIAL`]): nothing else in the process validates a proof
//! or exponentiates while a row is being read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use drbac::baselines::strategy::{bidirectional_search, forward_search, reverse_search};
use drbac::baselines::workload::{funnel, layered_dag, WorkloadSpec};
use drbac::bignum::BigUint;
use drbac::core::{
    AttrDeclaration, AttrOp, DelegationId, LocalEntity, Node, Proof, ProofStep, ProofValidator,
    RevocationLookup, SignedAttrDeclaration, SignedDelegation, SignedRevocation, SimClock,
    Timestamp, ValidationContext,
};
use drbac::crypto::{KeyPair, SchnorrGroup};
use drbac::graph::SearchOptions;
use drbac::store::WalletStore;
use drbac::wallet::{DelegationEvent, DurableWallet, InvalidationReason, Wallet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The system allocator, counting allocations per thread (so a row is
/// not disturbed by the test harness's own threads).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations this thread made while running `op`.
fn allocations<T>(op: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    drop(op());
    ALLOCATIONS.with(Cell::get) - before
}

/// Held by every test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Revocation lookups made by any validator (one per credential visited).
const READS: &str = "drbac.core.proof.revocation_read.count";
/// Proofs handed to a validator.
const VALIDATIONS: &str = "drbac.core.proof.validate.count";
/// Validation contexts the wallet built.
const CONTEXTS: &str = "drbac.wallet.validation_ctx.count";
/// Calls of `DelegationGraph::revoked_ids` — the O(history) copy.
const FULL_COPIES: &str = "drbac.graph.revoked_ids.count";
/// Cache entries an addition's negative sweep looked at.
const SWEPT: &str = "drbac.graph.proof_cache.negative_sweep.visited.count";
/// Modular exponentiations in the signature group.
const EXPS: &str = "drbac.crypto.exp.count";
/// Full signature checks of a signed credential (any kind).
const SIG_CHECKS: &str = "drbac.core.cert.sig_check.count";

fn counter(name: &str) -> u64 {
    drbac::obs::global().counter(name).get()
}

/// Runs `op`; returns how far each named counter moved across it, and
/// what `op` returned.
fn delta<const N: usize, T>(names: [&str; N], op: impl FnOnce() -> T) -> ([u64; N], T) {
    let before = names.map(counter);
    let out = op();
    let after = names.map(counter);
    (std::array::from_fn(|i| after[i] - before[i]), out)
}

/// The lookup seam, counting: an explicit set that records every read.
struct CountingLookup {
    revoked: BTreeSet<DelegationId>,
    reads: AtomicU64,
}

impl RevocationLookup for CountingLookup {
    fn is_revoked(&self, id: DelegationId) -> bool {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.revoked.contains(&id)
    }
}

/// Reads a stand-alone validation of `proof` makes through the seam.
fn seam_reads(proof: &Proof) -> u64 {
    let lookup = CountingLookup {
        revoked: BTreeSet::new(),
        reads: AtomicU64::new(0),
    };
    ProofValidator::new(ValidationContext::at(Timestamp(0)).with_revocations(&lookup))
        .validate(proof)
        .expect("the world's proofs are valid");
    lookup.reads.load(Ordering::Relaxed)
}

/// Every row of the ledger. Two runs of [`ledger`] on worlds that differ
/// only in revocation history must produce equal values.
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    /// (a) first-party publish: `[reads, contexts, validations]`.
    publish: [u64; 3],
    /// (b) cold grant of the 4-credential ladder proof: `[reads, contexts]`.
    ladder_grant: [u64; 2],
    /// (b) cold grant across a third-party edge (chain 1 + support 1).
    third_party_grant: [u64; 2],
    /// A third-party publish carrying one 1-credential support.
    supported_publish: [u64; 2],
    /// `provide_support` of the ladder proof.
    provide_support: [u64; 2],
    /// `monitor_external_proof` of the third-party proof.
    monitor_external: [u64; 2],
    /// Full WAL replay of the journal: `[reads, contexts]`.
    replay: [u64; 2],
    /// (d) `revoked_ids()` calls over everything above.
    full_copies: u64,
    /// (e) entries visited by a publish into P positives + N negatives.
    swept: u64,
}

const LADDER: usize = 4;
const POSITIVES: usize = 6;
const NEGATIVES: usize = 3;
const REVOKES: usize = 5;

fn ledger(marks: usize) -> Ledger {
    let mut rng = StdRng::seed_from_u64(2002);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let admin = LocalEntity::generate("Admin", g.clone(), &mut rng);
    let users: Vec<LocalEntity> = (0..POSITIVES + NEGATIVES)
        .map(|i| LocalEntity::generate(format!("U{i}"), g.clone(), &mut rng))
        .collect();
    let sign = |issuer: &LocalEntity, subject: Node, object: Node| -> Arc<SignedDelegation> {
        Arc::new(issuer.delegate(subject, object).sign(issuer).unwrap())
    };

    let clock = SimClock::new();
    let wallet = Wallet::new("ledger.example", clock.clone());
    let store = Arc::new(WalletStore::in_memory());
    wallet.attach_journal(Arc::clone(&store));

    // History: marks for credentials this wallet never held (what a
    // long-lived coalition wallet accumulates), journaled like any other.
    for i in 0..marks {
        let mut id = [0xA5u8; 32];
        id[..8].copy_from_slice(&(i as u64).to_be_bytes());
        wallet.push_event(DelegationEvent {
            delegation: DelegationId(id),
            reason: InvalidationReason::Revoked,
        });
    }
    let full_copies_before = counter(FULL_COPIES);

    // (a) First-party publishes: the ladder's lower rungs and a user per
    // cached grant on rung 0; the top rung is the measured row.
    let rung = |i: usize| Node::role(org.role(&format!("rung{i}")));
    for i in 1..LADDER - 1 {
        wallet
            .publish(sign(&org, rung(i - 1), rung(i)), vec![])
            .unwrap();
    }
    let top = sign(&org, rung(LADDER - 2), rung(LADDER - 1));
    for user in &users[..POSITIVES] {
        wallet
            .publish(sign(&org, Node::entity(user), rung(0)), vec![])
            .unwrap();
    }
    let (publish, _) = delta([READS, CONTEXTS, VALIDATIONS], || {
        wallet.publish(Arc::clone(&top), vec![]).unwrap()
    });

    // (b) A cold grant reads once per credential of the proof it serves.
    let (ladder_grant, ladder_proof) = delta([READS, CONTEXTS], || {
        wallet.find_proof(&Node::entity(&users[0]), &rung(LADDER - 1), &[])
    });
    let ladder_proof = ladder_proof.expect("the ladder is provable");
    assert_eq!(ladder_proof.all_certs().len(), LADDER);
    assert_eq!(ladder_grant[0], seam_reads(&ladder_proof));

    // A third-party enrollment published with its support proof …
    let member = org.role("member");
    let grant = sign(&org, Node::entity(&admin), Node::role_admin(member.clone()));
    let support = Proof::from_steps(vec![ProofStep::new(grant)]).unwrap();
    let enroll = sign(&admin, Node::entity(&users[1]), Node::role(member.clone()));
    let (supported_publish, _) = delta([READS, CONTEXTS], || {
        wallet
            .publish(Arc::clone(&enroll), vec![support.clone()])
            .unwrap()
    });
    // … and the cold grant across it: chain credential + support credential.
    let (third_party_grant, third_party_proof) = delta([READS, CONTEXTS], || {
        wallet.find_proof(&Node::entity(&users[1]), &Node::role(member.clone()), &[])
    });
    let third_party_proof = third_party_proof.expect("the enrollment is provable");
    assert_eq!(third_party_proof.all_certs().len(), 2);
    assert_eq!(third_party_grant[0], seam_reads(&third_party_proof));

    let (provide_support, ()) = delta([READS, CONTEXTS], || {
        wallet.provide_support(ladder_proof.clone()).unwrap()
    });
    let (monitor_external, _monitor) = delta([READS, CONTEXTS], || {
        wallet
            .monitor_external_proof(third_party_proof.clone())
            .unwrap()
    });

    // (e) A publish sweeps the negatives it might flip and nothing else.
    for user in &users[..POSITIVES] {
        assert!(wallet
            .find_proof(&Node::entity(user), &rung(0), &[])
            .is_some());
    }
    for user in &users[POSITIVES..] {
        assert!(wallet
            .find_proof(&Node::entity(user), &rung(0), &[])
            .is_none());
    }
    let cached = wallet.cached_query_answers();
    let ([swept], _) = delta([SWEPT], || {
        wallet
            .publish(sign(&org, Node::entity(&users[POSITIVES]), rung(0)), vec![])
            .unwrap()
    });
    assert_eq!(wallet.cached_query_answers(), cached - NEGATIVES);

    // Revokes, so the replay below holds N publishes + R revokes (+ the
    // support, + the marks).
    for user in &users[..REVOKES] {
        let cert = wallet
            .find_proof(&Node::entity(user), &rung(0), &[])
            .expect("still granted")
            .all_certs()[0]
            .clone();
        let revocation = SignedRevocation::revoke(&cert, &org, clock.now()).unwrap();
        wallet.revoke(&revocation).unwrap();
    }

    // (d) Full recovery re-validates what the live wallet validated — the
    // supports — and nothing per first-party publish, revoke or mark.
    let held = wallet.len();
    wallet.wipe();
    let (replay, report) = delta([READS, CONTEXTS], || {
        wallet.recover_from_store(&store).unwrap()
    });
    assert_eq!(report.skipped, 0);
    assert_eq!(wallet.len(), held);
    assert!(wallet
        .find_proof(&Node::entity(&users[0]), &rung(0), &[])
        .is_none());

    Ledger {
        publish,
        ladder_grant,
        third_party_grant,
        supported_publish,
        provide_support,
        monitor_external,
        replay,
        full_copies: counter(FULL_COPIES) - full_copies_before,
        swept,
    }
}

#[test]
fn a_write_costs_what_it_changes_whatever_the_history() {
    let _serial = serial();
    let fresh = ledger(0);
    assert_eq!(
        fresh,
        Ledger {
            // No support, so no proof: nothing read, built or validated.
            publish: [0, 0, 0],
            ladder_grant: [LADDER as u64, 1],
            third_party_grant: [2, 1],
            supported_publish: [1, 1],
            provide_support: [LADDER as u64, 1],
            monitor_external: [2, 1],
            // One `Support` event per `provide_support`-shaped write: the
            // enrollment's support (1 credential) and the ladder proof.
            replay: [1 + LADDER as u64, 2],
            full_copies: 0,
            swept: NEGATIVES as u64,
        }
    );
    assert_eq!(
        fresh,
        ledger(5_000),
        "a row moved with the revocation history"
    );
}

/// Exponentiations per signature operation, and per admitted write.
#[derive(Debug, PartialEq, Eq)]
struct CryptoLedger {
    sign: u64,
    /// Verify under a key whose membership is memoised.
    verify_memoised: u64,
    /// Verify under a key never seen before: membership + the joint one.
    verify_never_seen: u64,
    /// Decoding a credential whose issuer key was seen before.
    decode_seen_key: u64,
    /// First-party durable publish of a credential off the wire: the
    /// issuer's first, then any later one.
    publish_first_sighting: u64,
    publish: u64,
}

#[test]
fn a_verify_costs_one_exponentiation_for_a_key_seen_before() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(2525);
    let g = SchnorrGroup::test_256();
    let exps = |op: &mut dyn FnMut()| delta([EXPS], op).0[0];

    let seen = KeyPair::generate(g.clone(), &mut rng);
    assert!(seen.public_key().is_valid());
    let mut sig = None;
    let sign = exps(&mut || sig = Some(seen.sign(b"row")));
    let sig = sig.unwrap();
    let verify_memoised = exps(&mut || assert!(seen.public_key().verify(b"row", &sig)));

    let fresh = KeyPair::generate(g.clone(), &mut rng);
    let fresh_sig = fresh.sign(b"row");
    let verify_never_seen = exps(&mut || assert!(fresh.public_key().verify(b"row", &fresh_sig)));
    assert_eq!(
        exps(&mut || assert!(fresh.public_key().verify(b"row", &fresh_sig))),
        1,
        "the first verify memoised the key"
    );

    // Certificates off the wire into a durable wallet.
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let (wallet, _) = DurableWallet::open(
        "ledger.example",
        SimClock::new(),
        Arc::new(WalletStore::in_memory()),
    )
    .unwrap();
    let wire = |i: usize| {
        let member = org.role(&format!("m{i}"));
        org.delegate(Node::entity(&org), Node::role(member))
            .sign(&org)
            .unwrap()
            .to_bytes()
    };
    let publish_bytes = |bytes: Vec<u8>| {
        exps(&mut || {
            let cert = SignedDelegation::from_bytes(&bytes).unwrap();
            wallet.publish(Arc::new(cert), vec![]).unwrap();
        })
    };
    let publish_first_sighting = publish_bytes(wire(0));
    let publish = publish_bytes(wire(1));
    let bytes = wire(2);
    let decode_seen_key = exps(&mut || {
        SignedDelegation::from_bytes(&bytes).unwrap();
    });

    assert_eq!(
        CryptoLedger {
            sign,
            verify_memoised,
            verify_never_seen,
            decode_seen_key,
            publish_first_sighting,
            publish,
        },
        CryptoLedger {
            sign: 1,
            verify_memoised: 1,
            verify_never_seen: 2,
            decode_seen_key: 0,
            publish_first_sighting: 2,
            publish: 1,
        }
    );

    // Allocation-free multiply: an exponentiation's heap allocations (its
    // window tables, scratch, accumulator and result) do not depend on
    // how many multiplications the exponent asks for.
    let y = seen.public_key().y();
    let short = BigUint::from(0xdead_beef_cafe_f00du64);
    let long = g.p() - &BigUint::from(2u64);
    assert_eq!((short.bits(), long.bits()), (64, 256));
    g.pow_g_mul(&short, y, &short); // warm the counter handle
    assert_eq!(
        allocations(|| g.pow(y, &short)),
        allocations(|| g.pow(y, &long)),
        "modpow allocations grew with the exponent"
    );
    assert_eq!(
        allocations(|| g.pow_g_mul(&short, y, &short)),
        allocations(|| g.pow_g_mul(&long, y, &long)),
        "joint exponentiation allocations grew with the exponent"
    );
}

/// What checking an already-verified credential costs, for each kind the
/// signed envelope carries.
#[derive(Debug, PartialEq, Eq)]
struct EnvelopeLedger {
    /// Heap allocations of `SignedDelegation::verify` on a verified instance.
    memo_hit_allocations: u64,
    /// Exponentiations for verifying one revocation instance twice.
    revocation_twice: u64,
    /// The same for one attribute declaration instance.
    declaration_twice: u64,
    /// Re-validating a proof whose credentials all verified: exponentiations
    /// and full signature checks.
    revalidate_exps: u64,
    revalidate_sig_checks: u64,
}

#[test]
fn a_verified_credential_is_not_checked_again() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(2929);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let member = LocalEntity::generate("Member", g, &mut rng);
    // Both keys seen, so a first check costs exactly one exponentiation.
    assert!(org.public_key().is_valid() && member.public_key().is_valid());
    let exps = |op: &mut dyn FnMut()| delta([EXPS], op).0[0];

    let grant = org
        .delegate(Node::entity(&member), Node::role(org.role("staff")))
        .sign(&org)
        .unwrap();
    let widen = org
        .delegate(Node::role(org.role("staff")), Node::role(org.role("all")))
        .sign(&org)
        .unwrap();
    grant.verify(Timestamp(0)).unwrap();
    let memo_hit_allocations = allocations(|| grant.verify(Timestamp(0)));

    let revocation = SignedRevocation::revoke(&grant, &org, Timestamp(0)).unwrap();
    let revocation_twice = exps(&mut || {
        revocation.verify().unwrap();
        revocation.verify().unwrap();
    });
    let declaration = SignedAttrDeclaration::sign(
        AttrDeclaration::new(org.attr("quota", AttrOp::Min), 10.0).unwrap(),
        &org,
    )
    .unwrap();
    let declaration_twice = exps(&mut || {
        declaration.verify(Timestamp(0)).unwrap();
        declaration.verify(Timestamp(0)).unwrap();
    });

    let proof = Proof::from_steps(vec![ProofStep::new(grant), ProofStep::new(widen)]).unwrap();
    let validator = ProofValidator::new(ValidationContext::at(Timestamp(0)));
    validator.validate(&proof).unwrap();
    let ([revalidate_exps, revalidate_sig_checks], _) =
        delta([EXPS, SIG_CHECKS], || validator.validate(&proof).unwrap());

    assert_eq!(
        EnvelopeLedger {
            memo_hit_allocations,
            revocation_twice,
            declaration_twice,
            revalidate_exps,
            revalidate_sig_checks,
        },
        EnvelopeLedger {
            memo_hit_allocations: 0,
            revocation_twice: 1,
            declaration_twice: 1,
            revalidate_exps: 0,
            revalidate_sig_checks: 0,
        }
    );
}

/// Edges considered by `(forward, reverse, bidirectional)` search on a
/// funnel built exactly as the F-A bench builds it.
fn funnel_edges(branching: usize, depth: usize, wide_forward: bool, seed: u64) -> [usize; 3] {
    let w = funnel(
        branching,
        depth,
        wide_forward,
        &mut StdRng::seed_from_u64(seed),
    );
    let now = Timestamp(0);
    let runs = [
        forward_search(&w.graph, &w.subject, &w.object, now),
        reverse_search(&w.graph, &w.subject, &w.object, now),
        bidirectional_search(&w.graph, &w.subject, &w.object, now),
    ];
    assert!(runs.iter().all(|r| r.found));
    runs.map(|r| r.edges_considered)
}

/// F-A's three funnel tables: branching 2…5 at depth 5 and depth 2…7 at
/// branching 3 (wide forward side), and the mirrored funnel.
#[test]
fn f_a_edges_considered_on_the_funnels() {
    let _serial = serial();
    let by_branching: Vec<[usize; 3]> = (2..=5)
        .map(|b| funnel_edges(b, 5, true, b as u64))
        .collect();
    assert_eq!(
        by_branching,
        [[82, 6, 7], [556, 6, 8], [2149, 6, 9], [2728, 6, 10]]
    );
    let by_depth: Vec<[usize; 3]> = (2..=7)
        .map(|d| funnel_edges(3, d, true, d as u64))
        .collect();
    assert_eq!(
        by_depth,
        [
            [19, 3, 5],
            [63, 4, 6],
            [180, 5, 7],
            [413, 6, 8],
            [1098, 7, 9],
            [3171, 8, 10]
        ]
    );
    let mirrored: Vec<[usize; 3]> = [3usize, 5, 7]
        .into_iter()
        .map(|d| funnel_edges(3, d, false, d as u64 + 100))
        .collect();
    assert_eq!(mirrored, [[4, 43, 4], [6, 540, 6], [8, 3817, 8]]);
}

/// F-A's path-count table on layered DAGs (branching 3, width 3): as
/// `(paths, enumeration edges, single-answer BFS edges)` per depth 2…6.
#[test]
fn f_a_paths_grow_as_branching_to_the_depth() {
    let _serial = serial();
    let opts = SearchOptions::at(Timestamp(0));
    let rows: Vec<[usize; 3]> = (2..=6)
        .map(|depth| {
            let spec = WorkloadSpec {
                branching: 3,
                depth,
                width: 3,
            };
            let w = layered_dag(&spec, &mut StdRng::seed_from_u64(depth as u64));
            let (paths, enumeration) = w
                .graph
                .enumerate_proofs(&w.subject, &w.object, &opts, 1_000_000);
            let (_, bfs) = w.graph.direct_query(&w.subject, &w.object, &opts);
            [
                paths.len(),
                enumeration.edges_considered,
                bfs.edges_considered,
            ]
        })
        .collect();
    assert_eq!(
        rows,
        [
            [9, 21, 13],
            [27, 66, 22],
            [81, 201, 31],
            [243, 606, 40],
            [729, 1821, 49]
        ]
    );
}
