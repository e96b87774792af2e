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
//! equal at 0 and 5,000 marks.
//!
//! The recovery trust boundary is a row too: an indexed boot trusts the
//! delegation index's base run and re-verifies only the journal records
//! above its watermark, so it costs one signature check per tail record,
//! whatever the checkpointed history.
//!
//! Discovery pays only for what is new: re-absorbing a proof of held,
//! cached credentials or re-publishing a held declaration writes nothing
//! and invalidates nothing, and a discovery computes the local roots of
//! only the directions its tags can enable. These rows are also equal at
//! 0 and 5,000 marks, and a small cross-federation soak pins the searches,
//! journal appends and object queries it runs.
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
    AttrDeclaration, AttrOp, DelegationId, DiscoveryTag, LocalEntity, Node, ObjectFlag, Proof,
    ProofStep, ProofValidator, RevocationLookup, SignedAttrDeclaration, SignedDelegation,
    SignedRevocation, SimClock, SubjectFlag, Ticks, Timestamp, ValidationContext, WalletAddr,
};
use drbac::crypto::{KeyPair, SchnorrGroup};
use drbac::graph::SearchOptions;
use drbac::index::{DelegationIndex, FileTable, MemTable, TableBackend, TableOp, TableStats};
use drbac::net::proto::{Reply, Request};
use drbac::net::{
    Directory, DiscoveryAgent, SimNet, TcpConfig, TcpTransport, Transport, WalletDaemon,
};
use drbac::scenario::{run_simnet, Family, RunConfig, Scale, ScenarioSpec};
use drbac::store::{Medium, MemMedium, StoreError, WalletStore};
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
    fn flush(&self) -> Result<(), StoreError> {
        self.table.flush()
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
    let (wallet, _) = DurableWallet::open_indexed("ledger.example", clock.clone(), store, index)
        .unwrap();
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

/// Signature checks an indexed boot pays on a home that checkpointed
/// `history` credentials (twice, so the journal is truncated) and then
/// took `tail` publishes whose index batches a power loss dropped.
fn boot_sig_checks(history: usize, tail: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(3232);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let member = LocalEntity::generate("Member", g, &mut rng);
    let store = Arc::new(WalletStore::in_memory());
    let media = [MemMedium::new(), MemMedium::new(), MemMedium::new()];
    let index = || {
        let [tab, log, prev] = media.clone().map(|m| Box::new(m) as Box<dyn Medium>);
        let table = FileTable::from_media(tab, log, prev).unwrap();
        Arc::new(DelegationIndex::open(Box::new(table)).unwrap())
    };
    let boot = || DurableWallet::open_indexed("w", SimClock::new(), Arc::clone(&store), index()).unwrap();
    {
        let (wallet, _) = boot();
        for i in 0..history + tail {
            let cert = org
                .delegate(Node::entity(&member), Node::role(org.role(&format!("r{i}"))))
                .sign(&org)
                .unwrap();
            wallet.publish(cert, vec![]).unwrap();
            if i + 1 == history / 2 || i + 1 == history {
                wallet.checkpoint().unwrap();
            }
        }
    }
    media[1].lose_unsynced();
    assert!(store.status().first_seq > Some(1), "the journal was truncated");
    let ([sig_checks], (_, report)) = delta([SIG_CHECKS], boot);
    assert_eq!((report.lazy, report.caught_up), (true, tail));
    sig_checks
}

#[test]
fn an_indexed_boot_re_verifies_only_the_journal_tail() {
    let _serial = serial();
    assert_eq!([boot_sig_checks(8, 3), boot_sig_checks(64, 3)], [3, 3]);
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
