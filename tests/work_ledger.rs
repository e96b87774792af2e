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
//! exponentiation and no allocation. The flag never crosses a wire: a
//! wallet absorbing a credential it has not seen checks its signature
//! once, whether the proof came over `SimNet` or a TCP socket.
//!
//! The delegation index is held to what its read paths use: a publish
//! puts its credential's bytes, both adjacency keys, and an expiry and
//! audit-set key only when it has them; an expiry leaves only its mark;
//! an acknowledged durable publish costs one fsync. These rows are also
//! equal at 0 and 5,000 marks. A durable publish writes one medium, the
//! journal: the index keeps no log of its own.
//!
//! The recovery trust boundary is a row too: an indexed boot trusts the
//! delegation index's base run and the journal records above its
//! watermark, which it applies to the index without checking a
//! signature, whatever the checkpointed history.
//!
//! Discovery pays only for what is new: re-absorbing a proof of held,
//! cached credentials or re-publishing a held declaration writes nothing
//! and invalidates nothing, and a discovery computes the local roots of
//! only the directions its tags can enable. These rows are also equal at
//! 0 and 5,000 marks, and a small cross-federation soak pins the searches,
//! journal appends and object queries it runs.
//!
//! A credential's dependents cost what they touch: an `unsubscribe`
//! visits one entry of the wallet's dependents index however many it
//! holds, a proof monitor leaves the index when it is dropped or fires,
//! and a host's fan-out takes the id's remote subscribers, so the same
//! event relayed back in owes nobody a push.
//!
//! Memory is a row too: the counting allocator also keeps live bytes,
//! so the ledger pins what one cached grant and one cached index block
//! hold, that a cleared proof cache holds nothing, and the allocations
//! of a warm hit and of decoding a proof reply.
//!
//! The third claim is the paper's §4.2.3 search argument (experiment
//! F-A), pinned whole from `drbac_baselines::direction`, the generator
//! the `search_strategies` bench prints. On funnel federations the
//! shipped `DiscoveryAgent` runs under `S`, `O` and `S`+`O` tags, with
//! its wallets contacted, hops and SimNet messages. On layered DAGs
//! come the path, enumeration and BFS edge counts. EXPERIMENTS.md's F-A
//! block must equal the generator's rendering.
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

use drbac::baselines::direction::{funnel_tables, path_rows, render, Row};
use drbac::bignum::BigUint;
use drbac::core::{
    AttrDeclaration, AttrOp, DelegationId, DiscoveryTag, LocalEntity, Node, ObjectFlag, Proof,
    ProofStep, ProofValidator, RevocationLookup, SignedAttrDeclaration, SignedDelegation,
    SignedRevocation, SimClock, SubjectFlag, Ticks, Timestamp, ValidationContext, WalletAddr,
};
use drbac::crypto::{KeyPair, SchnorrGroup};
use drbac::index::{DelegationIndex, FileTable, MemTable, TableBackend, TableOp, TableStats};
use drbac::net::proto::{Reply, Request};
use drbac::net::wire;
use drbac::net::{
    Directory, DiscoveryAgent, SimNet, TcpConfig, TcpTransport, Transport, WalletDaemon,
};
use drbac::scenario::{run_simnet, run_tcp, Event, Family, RunConfig, Scale, ScenarioSpec};
use drbac::store::{Medium, MemMedium, StoreConfig, StoreError, WalletStore};
use drbac::wallet::{DelegationEvent, DurableWallet, InvalidationReason, Wallet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The system allocator, counting allocations and live bytes (allocated
/// less freed) per thread, so a row is not disturbed by the test
/// harness's own threads.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// One allocation (or reallocation) that changed the live bytes by
/// `bytes`.
fn count_allocation(bytes: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    count_live(bytes);
}

fn count_live(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size as i64 - layout.size() as i64);
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

/// Bytes this thread's heap holds after `op` beyond what it held before
/// (frees count against); `op`'s result is dropped first.
fn held_bytes<T>(op: impl FnOnce() -> T) -> i64 {
    let before = LIVE_BYTES.with(Cell::get);
    drop(op());
    LIVE_BYTES.with(Cell::get) - before
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
            .monitor_external_proof(
                third_party_proof.clone(),
                third_party_proof.subject(),
                third_party_proof.object(),
                &[],
            )
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

/// Signature checks at a receiving wallet (paper §5 step 5: the
/// absorbing wallet "is trusted to verify signatures"), on one substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AbsorbRow {
    /// Absorbing a proof whose credential the wallet has never seen.
    never_seen: u64,
    /// Absorbing a fresh copy of a credential the wallet already holds.
    already_held: u64,
}

/// A home wallet holding `Member → Org.staff`, and the query for it.
fn absorb_world(clock: &SimClock) -> (Wallet, Request) {
    let mut rng = StdRng::seed_from_u64(3131);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let member = LocalEntity::generate("Member", g, &mut rng);
    let grant = org
        .delegate(Node::entity(&member), Node::role(org.role("staff")))
        .sign(&org)
        .unwrap();
    let home = Wallet::new("home", clock.clone());
    home.publish(grant, vec![]).unwrap();
    let query = Request::DirectQuery {
        subject: Node::entity(&member),
        object: Node::role(org.role("staff")),
        constraints: vec![],
    };
    (home, query)
}

/// Asks `home` over `transport` twice; the gateway absorbs each answer.
fn absorb_row(transport: &dyn Transport, clock: &SimClock, query: &Request) -> AbsorbRow {
    let home = WalletAddr::new("home");
    let gateway = Wallet::new("gateway", clock.clone());
    let ask_and_absorb = || {
        let Ok(Reply::Proofs(proofs)) = transport.request(&home, query.clone()) else {
            panic!("the home wallet answers the query");
        };
        let absorb = || gateway.absorb_proof(&proofs[0], &home).unwrap();
        delta([SIG_CHECKS], absorb).0[0]
    };
    AbsorbRow {
        never_seen: ask_and_absorb(),
        already_held: ask_and_absorb(),
    }
}

#[test]
fn a_receiving_wallet_checks_each_new_signature_once_on_both_substrates() {
    let _serial = serial();
    let clock = SimClock::new();

    let (home, query) = absorb_world(&clock);
    let net = SimNet::new(clock.clone(), Ticks(1));
    net.add_host("home", home);
    let simnet = absorb_row(&net, &clock, &query);

    let (home, query) = absorb_world(&clock);
    let daemon = WalletDaemon::bind("127.0.0.1:0", home, TcpConfig::fast()).unwrap();
    let tcp = TcpTransport::new(TcpConfig::fast());
    tcp.add_route("home", daemon.local_addr());
    let tcp = absorb_row(&tcp, &clock, &query);
    daemon.shutdown();

    let expected = AbsorbRow {
        never_seen: 1,
        already_held: 0,
    };
    assert_eq!([simnet, tcp], [expected, expected]);
}

/// Records appended to any write-ahead store.
const APPENDS: &str = "drbac.store.append.count";
/// Batches applied to any delegation index.
const INDEX_APPLIES: &str = "drbac.index.apply.count";
/// Direct queries the proof cache answered.
const CACHE_HITS: &str = "drbac.wallet.query.cache_hit.count";
/// Absorbed proofs that added nothing.
const UNCHANGED: &str = "drbac.wallet.absorb.unchanged.count";

/// Graph searches run, `[direct, subject, object]`: the counts of their
/// latency histograms.
fn searches() -> [u64; 3] {
    ["direct", "subject", "object"].map(|kind| {
        drbac::obs::global()
            .histogram(format!("drbac.graph.search.{kind}.ns"))
            .count()
    })
}

/// What the discovery path's writes cost an indexed gateway wallet.
#[derive(Debug, PartialEq, Eq)]
struct AbsorbLedger {
    /// `[appends, index applies, negatives swept]` absorbing a proof of
    /// credentials the wallet does not hold: a chain whose second step is
    /// third-party and carries its support.
    new: [u64; 3],
    /// The same for a fresh copy of that proof, held and cached.
    held: [u64; 3],
    /// Cache hits of the denial cached before the held absorb, asked again.
    denial_hits: u64,
    /// `[cache entries dropped, appends]` publishing a declaration.
    declare_new: [u64; 2],
    /// The same for the held declaration published again.
    declare_held: [u64; 2],
}

fn absorb_ledger(marks: usize) -> AbsorbLedger {
    let mut rng = StdRng::seed_from_u64(3636);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let broker = LocalEntity::generate("Broker", g.clone(), &mut rng);
    let users: Vec<LocalEntity> = (0..=NEGATIVES)
        .map(|i| LocalEntity::generate(format!("U{i}"), g.clone(), &mut rng))
        .collect();
    let index = Arc::new(DelegationIndex::open(Box::new(MemTable::new())).unwrap());
    let store = Arc::new(WalletStore::in_memory());
    let (wallet, _) =
        DurableWallet::open_indexed("gateway", SimClock::new(), store, index).unwrap();
    for i in 0..marks {
        let mut id = [0xA5u8; 32];
        id[..8].copy_from_slice(&(i as u64).to_be_bytes());
        wallet.push_event(DelegationEvent {
            delegation: DelegationId(id),
            reason: InvalidationReason::Revoked,
        });
    }

    let (staff, member) = (org.role("staff"), org.role("member"));
    let admin = org
        .delegate(Node::entity(&broker), Node::role_admin(member.clone()))
        .sign(&org)
        .unwrap();
    let proof = Proof::from_steps(vec![
        ProofStep::new(
            org.delegate(Node::entity(&users[0]), Node::role(staff.clone()))
                .sign(&org)
                .unwrap(),
        ),
        ProofStep::new(
            broker
                .delegate(Node::role(staff), Node::role(member.clone()))
                .sign(&broker)
                .unwrap(),
        )
        .with_support(Proof::from_steps(vec![ProofStep::new(admin)]).unwrap()),
    ])
    .unwrap();
    // Each delivery is a fresh decoded copy, as off a wire.
    let delivered = || Proof::from_bytes(&proof.to_bytes()).unwrap();
    let home = WalletAddr::new("home");
    let member = Node::role(member);
    let cache_answers = || {
        assert!(wallet
            .find_proof(&Node::entity(&users[0]), &member, &[])
            .is_some());
        for user in &users[1..] {
            assert!(wallet
                .find_proof(&Node::entity(user), &member, &[])
                .is_none());
        }
    };
    for user in &users[1..] {
        assert!(wallet
            .find_proof(&Node::entity(user), &member, &[])
            .is_none());
    }
    let (new, ()) = delta([APPENDS, INDEX_APPLIES, SWEPT], || {
        wallet.absorb_proof(&delivered(), &home).unwrap()
    });
    cache_answers();
    let ([unchanged, appends, applies, swept], ()) =
        delta([UNCHANGED, APPENDS, INDEX_APPLIES, SWEPT], || {
            wallet.absorb_proof(&delivered(), &home).unwrap()
        });
    assert_eq!(unchanged, 1, "the held proof took the full path");
    let ([denial_hits], denial) = delta([CACHE_HITS], || {
        wallet.find_proof(&Node::entity(&users[1]), &member, &[])
    });
    assert!(denial.is_none());

    let declaration = SignedAttrDeclaration::sign(
        AttrDeclaration::new(org.attr("quota", AttrOp::Min), 10.0).unwrap(),
        &org,
    )
    .unwrap();
    let declare = || {
        cache_answers();
        let cached = wallet.cached_query_answers() as u64;
        let ([appends], ()) = delta([APPENDS], || {
            wallet.publish_declaration(&declaration).unwrap()
        });
        [cached - wallet.cached_query_answers() as u64, appends]
    };
    let declare_new = declare();
    let declare_held = declare();
    AbsorbLedger {
        new,
        held: [appends, applies, swept],
        denial_hits,
        declare_new,
        declare_held,
    }
}

#[test]
fn discovery_writes_cost_only_what_is_new_whatever_the_history() {
    let _serial = serial();
    let fresh = absorb_ledger(0);
    assert_eq!(
        fresh,
        AbsorbLedger {
            new: [1, 1, NEGATIVES as u64],
            held: [0, 0, 0],
            denial_hits: 1,
            // The grant and every denial go; the held one drops nothing.
            declare_new: [1 + NEGATIVES as u64, 1],
            declare_held: [0, 0],
        }
    );
    assert_eq!(
        fresh,
        absorb_ledger(5_000),
        "a row moved with the revocation history"
    );
}

/// `[direct, subject, object]` graph searches of one discovery of
/// `Member ⇒ Org.r2`: the gateway holds `Member ⇒ Org.r1`, and `r1`'s
/// home wallet, tagged with `tag`, holds `r1 ⇒ r2`.
fn discovery_searches(tag: DiscoveryTag) -> [u64; 3] {
    let mut rng = StdRng::seed_from_u64(3737);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let member = LocalEntity::generate("Member", g, &mut rng);
    let (r1, r2) = (org.role("r1"), org.role("r2"));
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let gateway = net.add_host("gateway", Wallet::new("gateway", clock.clone()));
    let home = net.add_host("home", Wallet::new("home", clock.clone()));
    let sign = |subject: Node, object: Node| org.delegate(subject, object).sign(&org).unwrap();
    gateway
        .wallet()
        .publish(sign(Node::entity(&member), Node::role(r1.clone())), vec![])
        .unwrap();
    home.wallet()
        .publish(sign(Node::role(r1.clone()), Node::role(r2.clone())), vec![])
        .unwrap();
    let mut directory = Directory::new();
    directory.register(Node::role(r1), tag);
    let mut agent = DiscoveryAgent::new(net.clone(), &gateway, directory);
    let before = searches();
    assert!(agent
        .discover(&Node::entity(&member), &Node::role(r2), &[])
        .found());
    let after = searches();
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn a_discovery_computes_only_the_roots_its_tags_can_use() {
    let _serial = serial();
    let home = DiscoveryTag::new("home");
    let rows = [
        discovery_searches(home.clone().with_subject_flag(SubjectFlag::Search)),
        discovery_searches(
            home.with_subject_flag(SubjectFlag::Search)
                .with_object_flag(ObjectFlag::Search),
        ),
    ];
    // Direct: the gateway's miss, the home's answer, the gateway's hit.
    // Subject: the gateway's forward roots. Object: its reverse roots,
    // only once a tag can search from the object side.
    assert_eq!(rows, [[3, 1, 0], [3, 1, 1]]);
}

/// What the gateway and the homes of a small cross-federation soak do.
#[derive(Debug, PartialEq, Eq)]
struct FederationLedger {
    queries: usize,
    /// `[direct, subject, object]` graph searches.
    searches: [u64; 3],
    /// Journal appends, across every host.
    appends: u64,
    /// Absorbs, and those that added nothing.
    absorbs: [u64; 2],
    /// Cache entries the additions' negative sweeps looked at.
    swept: u64,
}

#[test]
fn a_cross_federation_soak_pays_only_for_what_is_new() {
    let _serial = serial();
    let scenario = ScenarioSpec::new(Family::CrossFederation, 1)
        .with_scale(Scale::federation(8))
        .generate();
    let before = searches();
    let ([appends, absorbs, unchanged, swept], report) = delta(
        [APPENDS, "drbac.wallet.absorb.count", UNCHANGED, SWEPT],
        || run_simnet(&scenario, &RunConfig::fault_free()),
    );
    let after = searches();
    assert_eq!(report.hard_mismatches(), 0);
    assert_eq!(
        FederationLedger {
            queries: report.records.len(),
            searches: std::array::from_fn(|i| after[i] - before[i]),
            appends,
            absorbs: [absorbs, unchanged],
            swept,
        },
        FederationLedger {
            queries: 48,
            // Roughly four direct searches per query; the tags carry
            // only `S`, so no object query runs anywhere.
            searches: [188, 193, 0],
            // One per publish delivered to a home, one per absorb that
            // added something.
            appends: report.publishes as u64 + 23,
            absorbs: [218, 195],
            swept: 20,
        }
    );
}

/// A deep-ladder soak's own-ladder queries (a user asking for a rung of
/// their own ladder) by decision, on one substrate.
#[derive(Debug, PartialEq, Eq)]
struct LadderLedger {
    granted: usize,
    /// An unlimited ladder reaches every one of its own rungs, so each
    /// of these denials is a `<depth: N>` limit's.
    limit_denied: usize,
    hard_mismatches: usize,
}

#[test]
fn depth_limits_deny_own_ladder_rungs_alike_on_both_substrates() {
    let _serial = serial();
    let scenario = ScenarioSpec::new(Family::DeepLadder, 1)
        .with_scale(Scale::smoke())
        .generate();
    // Each user's ladder, read off the schedule: the user's enrolment
    // starts it, and the rung publishes that follow extend it.
    let mut ladders: Vec<(Node, Vec<Node>)> = Vec::new();
    for ev in &scenario.schedule {
        if let Event::Publish { cert, .. } = ev {
            let d = cert.delegation();
            if matches!(d.subject(), Node::Entity(_)) {
                ladders.push((d.subject().clone(), Vec::new()));
            }
            let (_, rungs) = ladders.last_mut().expect("a ladder starts at its user");
            rungs.push(d.object().clone());
        }
    }
    let own_ladder: Vec<bool> = scenario
        .schedule
        .iter()
        .filter_map(|ev| match ev {
            Event::Query(q) => Some(
                ladders
                    .iter()
                    .any(|(user, rungs)| *user == q.subject && rungs.contains(&q.object)),
            ),
            _ => None,
        })
        .collect();
    let ledger = |report: drbac::scenario::SoakReport| {
        let own = || {
            report
                .records
                .iter()
                .zip(&own_ladder)
                .filter(|(_, own)| **own)
        };
        LadderLedger {
            granted: own().filter(|(r, _)| r.granted).count(),
            limit_denied: own().filter(|(r, _)| !r.granted).count(),
            hard_mismatches: report.hard_mismatches(),
        }
    };
    let simnet = ledger(run_simnet(&scenario, &RunConfig::fault_free()));
    let tcp = ledger(run_tcp(&scenario).expect("tcp federation deploys"));
    let want = || LadderLedger {
        granted: 7,
        limit_denied: 9,
        hard_mismatches: 0,
    };
    assert_eq!([simnet, tcp], [want(), want()]);
}

/// Journal fsyncs (group commit or explicit sync).
const FSYNCS: &str = "drbac.store.fsync.count";

/// A `MemTable` shared with the test, counting the puts applied to it
/// other than the watermark's.
#[derive(Clone)]
struct CountingMem {
    table: Arc<MemTable>,
    puts: Arc<AtomicU64>,
}

impl TableBackend for CountingMem {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.table.get(key)
    }
    fn apply(&self, batch: &[TableOp]) -> Result<(), StoreError> {
        let puts = batch
            .iter()
            .filter(|op| matches!(op, TableOp::Put { key, .. } if key != b"mwatermark"))
            .count();
        self.puts.fetch_add(puts as u64, Ordering::Relaxed);
        self.table.apply(batch)
    }
    fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), StoreError> {
        self.table.scan(start, end, f)
    }
    fn stats(&self) -> TableStats {
        self.table.stats()
    }
    fn compact(&self) -> Result<(), StoreError> {
        self.table.compact()
    }
    fn reset_with(
        &self,
        entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError> {
        self.table.reset_with(entries)
    }
}

/// What an indexed durable wallet writes.
#[derive(Debug, PartialEq, Eq)]
struct IndexLedger {
    /// Index puts per publish, besides the watermark: first-party with
    /// no expiry, first-party with an expiry, and a third-party credential
    /// with an expiry (its support already in the wallet).
    publish_puts: [u64; 3],
    /// The key families left holding an expired credential's id.
    expire_leaves: Vec<u8>,
    /// `drbac.store.fsync.count` per acknowledged durable publish.
    fsyncs_per_publish: u64,
}

fn index_ledger(marks: usize) -> IndexLedger {
    let mut rng = StdRng::seed_from_u64(3434);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let admin = LocalEntity::generate("Admin", g.clone(), &mut rng);
    let user = LocalEntity::generate("User", g, &mut rng);
    let counting = CountingMem {
        table: Arc::new(MemTable::new()),
        puts: Arc::new(AtomicU64::new(0)),
    };
    let index = Arc::new(DelegationIndex::open(Box::new(counting.clone())).unwrap());
    let clock = SimClock::new();
    let store = Arc::new(WalletStore::in_memory());
    let (wallet, _) =
        DurableWallet::open_indexed("ledger.example", clock.clone(), store, index).unwrap();
    for i in 0..marks {
        let mut id = [0xA5u8; 32];
        id[..8].copy_from_slice(&(i as u64).to_be_bytes());
        wallet.push_event(DelegationEvent {
            delegation: DelegationId(id),
            reason: InvalidationReason::Revoked,
        });
    }
    let member = org.role("member");
    wallet
        .publish(
            org.delegate(Node::entity(&admin), Node::role_admin(member.clone()))
                .sign(&org)
                .unwrap(),
            vec![],
        )
        .unwrap();

    let shapes = [
        org.delegate(Node::entity(&user), Node::role(org.role("staff")))
            .sign(&org)
            .unwrap(),
        org.delegate(Node::entity(&user), Node::role(org.role("guest")))
            .expires(Timestamp(50))
            .sign(&org)
            .unwrap(),
        admin
            .delegate(Node::entity(&user), Node::role(member))
            .expires(Timestamp(500))
            .sign(&admin)
            .unwrap(),
    ];
    assert_eq!(
        shapes.each_ref().map(|c| c.delegation().needs_support()),
        [false, false, true]
    );
    let expiring = shapes[1].id();
    let mut fsyncs = Vec::new();
    let publish_puts = shapes.map(|cert| {
        let before = counting.puts.load(Ordering::Relaxed);
        let ([fsync], _) = delta([FSYNCS], || wallet.publish(cert, vec![]).unwrap());
        fsyncs.push(fsync);
        counting.puts.load(Ordering::Relaxed) - before
    });
    assert!(fsyncs.iter().all(|&n| n == fsyncs[0]), "{fsyncs:?}");

    clock.advance(drbac::core::Ticks(100));
    assert_eq!(wallet.process_expiries().0, vec![expiring]);
    let mut expire_leaves = Vec::new();
    counting
        .table
        .scan(&[], None, &mut |k, _| {
            if k.ends_with(&expiring.0) {
                expire_leaves.push(k[0]);
            }
            true
        })
        .unwrap();

    IndexLedger {
        publish_puts,
        expire_leaves,
        fsyncs_per_publish: fsyncs[0],
    }
}

#[test]
fn an_index_persists_only_what_is_read() {
    let _serial = serial();
    let fresh = index_ledger(0);
    assert_eq!(
        fresh,
        IndexLedger {
            // c, s, o; + e; + e and 3.
            publish_puts: [3, 4, 5],
            expire_leaves: vec![b'r'],
            fsyncs_per_publish: 1,
        }
    );
    assert_eq!(
        fresh,
        index_ledger(5_000),
        "a row moved with the revocation history"
    );
}

/// A shared `MemMedium` counting its writes (appends, truncations,
/// replacements) and its syncs, its whole-medium reads and the largest
/// single ranged read.
#[derive(Clone, Default)]
struct CountingMedium {
    inner: MemMedium,
    writes: Arc<AtomicU64>,
    syncs: Arc<AtomicU64>,
    read_alls: Arc<AtomicU64>,
    largest_read: Arc<AtomicU64>,
}

impl CountingMedium {
    fn counts(&self) -> [u64; 2] {
        [&self.writes, &self.syncs].map(|n| n.load(Ordering::Relaxed))
    }

    /// `[read_all calls, largest read_at]` since the last call.
    fn take_reads(&self) -> [u64; 2] {
        [&self.read_alls, &self.largest_read].map(|n| n.swap(0, Ordering::Relaxed))
    }
}

impl Medium for CountingMedium {
    fn read_all(&self) -> std::io::Result<Vec<u8>> {
        self.read_alls.fetch_add(1, Ordering::Relaxed);
        self.inner.read_all()
    }
    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.append(bytes)
    }
    fn truncate(&self, len: u64) -> std::io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.truncate(len)
    }
    fn replace(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.replace(bytes)
    }
    fn sync(&self) -> std::io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let bytes = self.inner.read_at(offset, len)?;
        (self.largest_read).fetch_max(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
}

/// `[writes, syncs]` one acknowledged durable publish costs each medium
/// of an indexed home: the journal, the index's base run, its previous
/// run. The home has taken one publish already, which stamped its fresh
/// index.
fn publish_writes() -> [[u64; 2]; 3] {
    let mut rng = StdRng::seed_from_u64(3636);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let user = LocalEntity::generate("User", g, &mut rng);
    let media = [(); 3].map(|_| CountingMedium::default());
    let [journal, tab, prev] = media.clone().map(|m| Box::new(m) as Box<dyn Medium>);
    let store = Arc::new(WalletStore::from_media(journal, StoreConfig::default()).unwrap());
    let table = FileTable::from_media(tab, prev).unwrap();
    let index = Arc::new(DelegationIndex::open(Box::new(table)).unwrap());
    let (wallet, _) = DurableWallet::open_indexed("w", SimClock::new(), store, index).unwrap();
    let grant = |role: &str| {
        org.delegate(Node::entity(&user), Node::role(org.role(role)))
            .sign(&org)
            .unwrap()
    };
    wallet.publish(grant("first"), vec![]).unwrap();
    let before = media.each_ref().map(CountingMedium::counts);
    wallet.publish(grant("second"), vec![]).unwrap();
    let after = media.each_ref().map(CountingMedium::counts);
    [0, 1, 2].map(|m| [0, 1].map(|k| after[m][k] - before[m][k]))
}

#[test]
fn a_durable_publish_appends_to_one_medium_and_syncs_it_once() {
    let _serial = serial();
    assert_eq!(publish_writes(), [[1, 1], [0, 0], [0, 0]]);
}

/// Signature checks an indexed boot pays on a home that checkpointed
/// `history` credentials (twice, so the journal is truncated) and then
/// took `tail` publishes, which the index held only in its overlay.
fn boot_sig_checks(history: usize, tail: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(3232);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let member = LocalEntity::generate("Member", g, &mut rng);
    let store = Arc::new(WalletStore::in_memory());
    let media = [MemMedium::new(), MemMedium::new()];
    let index = || {
        let [tab, prev] = media.clone().map(|m| Box::new(m) as Box<dyn Medium>);
        let table = FileTable::from_media(tab, prev).unwrap();
        Arc::new(DelegationIndex::open(Box::new(table)).unwrap())
    };
    let boot =
        || DurableWallet::open_indexed("w", SimClock::new(), Arc::clone(&store), index()).unwrap();
    {
        let (wallet, _) = boot();
        for i in 0..history + tail {
            let cert = org
                .delegate(
                    Node::entity(&member),
                    Node::role(org.role(&format!("r{i}"))),
                )
                .sign(&org)
                .unwrap();
            wallet.publish(cert, vec![]).unwrap();
            if i + 1 == history / 2 || i + 1 == history {
                wallet.checkpoint().unwrap();
            }
        }
    }
    assert!(
        store.status().first_seq > Some(1),
        "the journal was truncated"
    );
    let ([sig_checks], (_, report)) = delta([SIG_CHECKS], boot);
    assert_eq!((report.lazy, report.caught_up), (true, tail));
    sig_checks
}

#[test]
fn an_indexed_boot_checks_no_signature_and_applies_only_the_journal_tail() {
    let _serial = serial();
    assert_eq!([boot_sig_checks(8, 3), boot_sig_checks(64, 3)], [0, 0]);
}

/// Journal records decoded, by the one decode function.
const DECODED: &str = "drbac.store.record.decoded.count";
/// The store's framing window: a scan reads at most this much at once,
/// or one frame when that is larger.
const SCAN_CHUNK: u64 = 64 << 10;

/// An indexed boot of a served home — one that compacted `history`
/// publishes with its journal untruncated (`drbac serve` never
/// checkpoints), then took 3 more — from opening its journal on:
/// `[records decoded, journal read_all calls, largest journal read,
/// journal bytes]`.
fn served_boot(history: usize) -> [u64; 4] {
    let mut rng = StdRng::seed_from_u64(3737);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let member = LocalEntity::generate("Member", g, &mut rng);
    let journal = CountingMedium::default();
    let media = [MemMedium::new(), MemMedium::new()];
    let boot = || {
        let store = WalletStore::from_media(Box::new(journal.clone()), StoreConfig::default());
        let [tab, prev] = media.clone().map(|m| Box::new(m) as Box<dyn Medium>);
        let table = FileTable::from_media(tab, prev).unwrap();
        let index = Arc::new(DelegationIndex::open(Box::new(table)).unwrap());
        DurableWallet::open_indexed("w", SimClock::new(), Arc::new(store.unwrap()), index).unwrap()
    };
    {
        let (wallet, _) = boot();
        for i in 0..history + 3 {
            if i == history {
                assert_eq!(
                    wallet.checkpoint().unwrap(),
                    None,
                    "the journal stays whole"
                );
            }
            let cert = org
                .delegate(
                    Node::entity(&member),
                    Node::role(org.role(&format!("r{i}"))),
                )
                .sign(&org)
                .unwrap();
            wallet.publish(cert, vec![]).unwrap();
        }
    }
    journal.take_reads();
    let ([decoded], (_, report)) = delta([DECODED], boot);
    assert_eq!(
        (report.lazy, report.watermark, report.caught_up),
        (true, history as u64, 3)
    );
    let [read_alls, largest_read] = journal.take_reads();
    [decoded, read_alls, largest_read, journal.len().unwrap()]
}

#[test]
fn an_indexed_boot_decodes_only_the_records_it_applies() {
    let _serial = serial();
    assert_eq!([served_boot(8)[0], served_boot(64)[0]], [3, 3]);
}

#[test]
fn an_indexed_boot_reads_the_journal_in_bounded_chunks() {
    let _serial = serial();
    // 256 publishes make a journal larger than the window, so the bound
    // is one the scan keeps rather than the log's own size.
    for history in [8, 64, 256] {
        let [_, read_alls, largest_read, bytes] = served_boot(history);
        assert_eq!(read_alls, 0, "history {history}: a whole-log read");
        assert!(
            largest_read <= SCAN_CHUNK,
            "history {history}: one read of {largest_read} bytes"
        );
        assert_eq!(bytes > SCAN_CHUNK, history == 256, "{bytes} journal bytes");
    }
}

/// EXPERIMENTS.md's F-A block: the lines between its two markers.
fn experiments_f_a_block() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let text = std::fs::read_to_string(path).expect("EXPERIMENTS.md reads");
    let (_, rest) = (text.split_once("<!-- F-A tables begin")).expect("the F-A begin marker");
    let (_, rest) = rest
        .split_once('\n')
        .expect("a line after the begin marker");
    let (block, _) = (rest.split_once("<!-- F-A tables end -->")).expect("the F-A end marker");
    block.to_string()
}

/// F-A's funnel tables (§4.2.3), from the shipped `DiscoveryAgent` on
/// SimNet federations, pinned whole: per row the federation's size, then
/// `[wallets contacted, hops, messages]` under `S`, `O` and `S`+`O`.
/// Every provable cell finds the proof in all three settings and every
/// cut cell denies in all three. EXPERIMENTS.md holds exactly what
/// `direction::render` prints for these tables.
#[test]
fn f_a_wallets_contacted_on_the_funnels() {
    let _serial = serial();
    let tables = funnel_tables();
    for (cell, _, rows) in tables.iter().flat_map(|t| &t.rows) {
        assert!(
            rows.iter().all(|r| r.found != cell.cut),
            "{cell:?}: {rows:?}"
        );
    }
    let counts: Vec<Vec<(usize, [[u64; 3]; 3])>> = (tables.iter())
        .map(|t| {
            (t.rows.iter())
                .map(|(_, size, rows)| {
                    let row = |r: &Row| [r.wallets as u64, r.hops as u64, r.messages];
                    (*size, rows.each_ref().map(row))
                })
                .collect()
        })
        .collect();
    assert_eq!(
        counts,
        [
            // Wide forward side, depth 4, branching 2…4: `S` walks the
            // decoy tree, `O` the chain's d + 1 homes, `S`+`O` one more.
            vec![
                (81, [[16, 16, 156], [5, 5, 38], [6, 6, 54]]),
                (406, [[76, 76, 744], [5, 5, 38], [6, 6, 60]]),
                (1281, [[153, 153, 1622], [5, 5, 38], [6, 6, 66]]),
            ],
            // Wide forward side, branching 3, depth 2…5.
            vec![
                (28, [[8, 8, 72], [3, 3, 22], [3, 3, 32]]),
                (109, [[26, 26, 252], [4, 4, 30], [4, 4, 40]]),
                (406, [[76, 76, 744], [5, 5, 38], [6, 6, 60]]),
                (1459, [[208, 208, 2004], [6, 6, 46], [8, 8, 80]]),
            ],
            // Mirrored, branching 3, depth 3…5: the sides swap.
            vec![
                (109, [[4, 4, 30], [40, 40, 366], [5, 5, 48]]),
                (406, [[5, 5, 38], [49, 49, 582], [5, 5, 48]]),
                (1459, [[6, 6, 46], [314, 314, 2790], [7, 7, 68]]),
            ],
            // Cut, branching 3, depth 5, wide forward then mirrored: the
            // reverse frontier dies at the object's home, and `S`+`O`
            // still walks the whole forward side (ROADMAP item 7).
            vec![
                (1459, [[1458, 1458, 11662], [1, 1, 6], [1459, 1459, 11668]]),
                (1459, [[6, 6, 46], [243, 243, 1942], [249, 249, 1988]]),
            ],
        ]
    );
    assert_eq!(
        experiments_f_a_block(),
        render(&tables, &path_rows()),
        "EXPERIMENTS.md's F-A block is not what the generator prints"
    );
}

/// F-A's path-count table on layered DAGs (branching 3, width 3): as
/// `(paths, enumeration edges, single-answer BFS edges)` per depth 2…6.
#[test]
fn f_a_paths_grow_as_branching_to_the_depth() {
    let _serial = serial();
    let rows: Vec<[usize; 3]> = path_rows().into_iter().map(|(_, row)| row).collect();
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

/// Entries of the wallet's dependents index an operation looked at.
const VISITED: &str = "drbac.wallet.dependents.visited.count";

/// Dependents-index entries one `unsubscribe` visits with `live`
/// subscriptions held, one per distinct id.
fn unsubscribe_visits(live: u64) -> u64 {
    let wallet = Wallet::new("w", SimClock::new());
    let subs: Vec<_> = (0..live)
        .map(|i| {
            let mut id = [0u8; 32];
            id[..8].copy_from_slice(&i.to_be_bytes());
            wallet.subscribe(DelegationId(id), |_| {})
        })
        .collect();
    let ([visited], removed) = delta([VISITED], || wallet.unsubscribe(subs[subs.len() / 2]));
    assert!(removed);
    visited
}

#[test]
fn an_unsubscribe_visits_one_entry_whatever_the_subscriptions() {
    let _serial = serial();
    assert_eq!([unsubscribe_visits(10), unsubscribe_visits(10_000)], [1, 1]);
}

/// 10^4 monitors on one credential: all dropped, or all alive when it
/// is revoked, the wallet holds no registration for any of them.
#[test]
fn monitors_leave_the_index_when_dropped_or_fired() {
    let _serial = serial();
    const MONITORS: usize = 10_000;
    let mut rng = StdRng::seed_from_u64(4343);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let member = LocalEntity::generate("Member", g, &mut rng);
    let clock = SimClock::new();
    let wallet = Wallet::new("w", clock.clone());
    let (subject, object) = (Node::entity(&member), Node::role(org.role("r")));
    let cert = org
        .delegate(subject.clone(), object.clone())
        .sign(&org)
        .unwrap();
    wallet.publish(cert.clone(), vec![]).unwrap();
    let monitors = || -> Vec<_> {
        (0..MONITORS)
            .map(|_| wallet.query_direct(&subject, &object, &[]).unwrap())
            .collect()
    };

    let dropped = monitors();
    assert_eq!(wallet.live_monitor_registrations(), MONITORS);
    drop(dropped);
    assert_eq!(wallet.live_monitor_registrations(), 0, "dropped monitors");

    let live = monitors();
    let revocation = SignedRevocation::revoke(&cert, &org, clock.now()).unwrap();
    let ([visited], delivered) = delta([VISITED], || wallet.revoke(&revocation).unwrap());
    assert_eq!((visited, delivered), (MONITORS as u64, MONITORS));
    assert_eq!(wallet.live_monitor_registrations(), 0, "fired monitors");
    assert!(live.iter().all(|m| !m.is_valid()));
}

/// A SimNet host revoking a credential with 10^3 remote subscribers
/// owes each one push and then holds none of them; the same event
/// relayed back in owes nobody.
#[test]
fn a_host_fans_an_invalidation_out_once_and_forgets_its_subscribers() {
    let _serial = serial();
    const SUBSCRIBERS: usize = 1_000;
    let mut rng = StdRng::seed_from_u64(4344);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let member = LocalEntity::generate("Member", g, &mut rng);
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let home = net.add_host("home", Wallet::new("home", clock.clone()));
    let mirror = net.add_host("mirror", Wallet::new("mirror", clock.clone()));
    let cert = org
        .delegate(Node::entity(&member), Node::role(org.role("r")))
        .sign(&org)
        .unwrap();
    let id = cert.id();
    let revocation = SignedRevocation::revoke(&cert, &org, clock.now()).unwrap();
    for host in [&home, &mirror] {
        host.wallet().publish(cert.clone(), vec![]).unwrap();
    }
    let subscribe = |at: &str, subscriber: String| {
        let request = Request::Subscribe {
            delegation: id,
            subscriber: WalletAddr::new(subscriber),
        };
        assert!(matches!(
            net.request(&WalletAddr::new(at), request),
            Ok(Reply::Subscribed)
        ));
    };
    for i in 0..SUBSCRIBERS {
        subscribe("home", format!("c{i}"));
    }
    // The event comes back to `home` through `mirror`.
    subscribe("mirror", "home".into());
    let revoke = |at: &str| {
        net.reset_stats();
        let reply = net.request(&WalletAddr::new(at), Request::Revoke(revocation.clone()));
        assert!(matches!(reply, Ok(Reply::Revoked(_))));
        net.run_until_idle();
        net.stats().push_messages
    };

    assert_eq!(revoke("home"), SUBSCRIBERS as u64);
    assert_eq!(home.subscribers_of(id).len(), 0);
    // `mirror` pushes to `home`, whose relay owes nobody.
    assert_eq!(revoke("mirror"), 1);
    assert_eq!(mirror.subscribers_of(id).len(), 0);
}

/// Grants of the top of a `LADDER`-rung ladder the memory row caches,
/// one user each.
const CACHED_GRANTS: usize = 64;

/// What a served answer holds and allocates.
#[derive(Debug, PartialEq, Eq)]
struct AnswerMemory {
    /// Bytes the proof cache holds per cached `LADDER`-credential grant.
    per_grant: i64,
    /// Bytes still held after `set_query_cache(false)`, beyond the
    /// figure before the cache held anything.
    after_clear: i64,
    /// Heap allocations of a warm `find_proof` hit.
    warm_hit_allocs: u64,
    /// Heap allocations decoding a reply that carries the ladder proof.
    decode_reply_allocs: u64,
}

fn answer_memory() -> AnswerMemory {
    let mut rng = StdRng::seed_from_u64(2002);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let users: Vec<LocalEntity> = (0..CACHED_GRANTS)
        .map(|i| LocalEntity::generate(format!("U{i}"), g.clone(), &mut rng))
        .collect();
    let sign = |subject: Node, object: Node| -> Arc<SignedDelegation> {
        Arc::new(org.delegate(subject, object).sign(&org).unwrap())
    };
    let wallet = Wallet::new("memory.example", SimClock::new());
    let rung = |i: usize| Node::role(org.role(&format!("rung{i}")));
    for i in 1..LADDER {
        wallet.publish(sign(rung(i - 1), rung(i)), vec![]).unwrap();
    }
    for user in &users {
        wallet
            .publish(sign(Node::entity(user), rung(0)), vec![])
            .unwrap();
    }
    let top = rung(LADDER - 1);
    let grant = |user: &LocalEntity| {
        wallet
            .find_proof(&Node::entity(user), &top, &[])
            .expect("the ladder is provable")
    };
    let sweep = || users.iter().for_each(|user| drop(grant(user)));

    // With the cache off, a first sweep settles whatever searching and
    // validating keep (metric handles registered on first use, …); a
    // second holds nothing, so what the cached sweep holds is the
    // cache's.
    wallet.set_query_cache(false);
    sweep();
    assert_eq!(held_bytes(sweep), 0, "an uncached sweep holds nothing");
    wallet.set_query_cache(true);
    let cached = held_bytes(sweep);
    assert_eq!(wallet.cached_query_answers(), CACHED_GRANTS);

    let proof = grant(&users[0]);
    assert_eq!(proof.all_certs().len(), LADDER);
    let warm_hit_allocs = allocations(|| grant(&users[0]));
    let cleared = held_bytes(|| wallet.set_query_cache(false));
    assert_eq!(wallet.cached_query_answers(), 0);

    let reply = wire::encode_reply(&Reply::Proofs(vec![proof]));
    drop(wire::decode_reply(&reply).unwrap());
    let decode_reply_allocs = allocations(|| wire::decode_reply(&reply).unwrap());

    AnswerMemory {
        per_grant: cached / CACHED_GRANTS as i64,
        after_clear: cached + cleared,
        warm_hit_allocs,
        decode_reply_allocs,
    }
}

/// The proof cache holds one shared key, one boxed slot and the proof
/// per answer, plus the reverse index's entries, and a cleared cache
/// gives its tables back.
#[test]
fn a_cached_answer_is_held_once_and_freed_by_a_clear() {
    let _serial = serial();
    assert_eq!(
        answer_memory(),
        AnswerMemory {
            per_grant: 801,
            after_clear: 0,
            // The key's role name, the proof's steps, its object's name.
            warm_hit_allocs: 3,
            decode_reply_allocs: 27,
        }
    );
}

/// An index block holds the bytes it was read as plus one `u32` offset
/// per entry: bytes held by the one block a point read loads, its
/// on-disk length, and its entries.
fn index_block_memory() -> [i64; 3] {
    // 7-byte keys and 32-byte values: 47 bytes an entry on disk, so the
    // 4 KiB target block size packs 88 of them (4,136 bytes).
    const ENTRY: i64 = 8 + 7 + 32;
    const PER_BLOCK: u32 = 88;
    let key = |i: u32| format!("k{i:06}").into_bytes();
    let table =
        FileTable::from_media(Box::new(MemMedium::new()), Box::new(MemMedium::new())).unwrap();
    let mut entries = (0..8 * PER_BLOCK).map(|i| (key(i), vec![0xA5; 32]));
    table.reset_with(&mut entries).unwrap();
    // The first read loads the fence group and sizes the cache's tables.
    assert!(table.get(&key(0)).unwrap().is_some());
    let held = held_bytes(|| table.get(&key(PER_BLOCK)).unwrap().expect("present"));
    [held, ENTRY * PER_BLOCK as i64, PER_BLOCK as i64]
}

/// A cached block holds its bytes as read, a `u32` offset per entry and
/// its 48-byte shared handle (an `Arc` of two boxed slices).
#[test]
fn an_index_block_is_held_as_read() {
    let _serial = serial();
    let [held, on_disk, entries] = index_block_memory();
    assert_eq!(held, on_disk + 4 * entries + 48);
}
