//! Oracle property suite for the indexed delegation store: a wallet
//! booted from the index (lazy graph hydration, planner-routed queries)
//! must answer **byte-identically** to a wallet rebuilt by full journal
//! replay, across randomized workloads and the crash/compaction matrix.
//!
//! Every case runs the same seeded workload — publishes with and
//! without expiry, third-party certificates with explicit and derivable
//! supports, attribute declarations, revocations, absorbed remote
//! proofs, clock advances with expiry sweeps — against a durable wallet
//! with an index attached, then reopens the store twice:
//!
//! * **oracle** — `DurableWallet::open` (full replay, no index), and
//! * **subject** — `DurableWallet::open_indexed` over the surviving
//!   index state for the scenario:
//!   - `Clean`: index flushed, graceful shutdown (fast lazy boot);
//!   - `Crash`: power loss — the store drops its unsynced group-commit
//!     tail, and the index either keeps only its base runs
//!     (`FileTable`) or is wiped entirely (`MemTable`), forcing either
//!     a log-tail catch-up or a full fallback rebuild;
//!   - `Compacted`: two checkpoints mid-workload. On the file backend
//!     the second truncates the journal through the first one's base
//!     run, so the boot path crosses a truncation boundary and the
//!     oracle replays an uncompacted copy of the same event stream; a
//!     `MemTable` keeps no base run that outlives the process, so there
//!     the journal stays whole.
//!
//! The equality contract checked for each (seed, backend, scenario)
//! cell: encoded proof bytes for `query_subject`/`query_object` on
//! every node the workload touched, the sorted `unsupported_third_party`
//! audit report, per-certificate revocation lookups, the expiry sweep's
//! removal count, and (after both sides sweep) the exact certificate
//! and revocation sets of the materialized graphs.

use std::collections::BTreeSet;
use std::sync::Arc;

use drbac::core::{
    AttrDeclaration, AttrOp, LocalEntity, Node, Proof, ProofStep, SignedAttrDeclaration,
    SignedDelegation, SignedRevocation, SimClock, Ticks, WalletAddr,
};
use drbac::crypto::SchnorrGroup;
use drbac::index::{DelegationIndex, FileTable, MemTable, TableBackend, TableOp, TableStats};
use drbac::store::{scan_log, MemMedium, StoreConfig, StoreError, WalletStore};
use drbac::wallet::DurableWallet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A shareable `MemTable` so "the same index files" survive a simulated
/// restart: the [`DelegationIndex`] handle is dropped, the table kept.
#[derive(Clone)]
struct SharedMem(Arc<MemTable>);

impl TableBackend for SharedMem {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.0.get(key)
    }
    fn apply(&self, batch: &[TableOp]) -> Result<(), StoreError> {
        self.0.apply(batch)
    }
    fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), StoreError> {
        self.0.scan(start, end, f)
    }
    fn entries(&self) -> Result<u64, StoreError> {
        self.0.entries()
    }
    fn stats(&self) -> TableStats {
        self.0.stats()
    }
    fn compact(&self) -> Result<(), StoreError> {
        self.0.compact()
    }
    fn reset_with(
        &self,
        entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError> {
        self.0.reset_with(entries)
    }
}

/// The index storage that outlives wallet handles in a case.
enum Backend {
    Mem(Arc<MemTable>),
    /// `(index.tab, index.prev)` as shared in-memory media.
    File(MemMedium, MemMedium),
}

impl Backend {
    fn mem() -> Self {
        Backend::Mem(Arc::new(MemTable::new()))
    }

    fn file() -> Self {
        Backend::File(MemMedium::new(), MemMedium::new())
    }

    fn label(&self) -> &'static str {
        match self {
            Backend::Mem(_) => "mem",
            Backend::File(..) => "file",
        }
    }

    /// Opens a fresh [`DelegationIndex`] handle over the same storage.
    fn open(&self) -> Arc<DelegationIndex> {
        let table: Box<dyn TableBackend> = match self {
            Backend::Mem(t) => Box::new(SharedMem(Arc::clone(t))),
            Backend::File(tab, prev) => Box::new(
                FileTable::from_media(Box::new(tab.clone()), Box::new(prev.clone()))
                    .expect("reopen index media"),
            ),
        };
        Arc::new(DelegationIndex::open(table).expect("open index"))
    }

    /// Simulates power loss on the index side. A `MemTable` has no
    /// durable form at all, so a crash wipes it (the fallback-rebuild
    /// path); a `FileTable` keeps its base runs, which every reopen
    /// reads without the overlay.
    fn crash(&mut self) {
        if let Backend::Mem(t) = self {
            *t = Arc::new(MemTable::new());
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Clean,
    Crash,
    Compacted,
}

impl Scenario {
    fn label(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::Crash => "crash",
            Scenario::Compacted => "compacted",
        }
    }
}

struct Actors {
    owner: LocalEntity,
    brokers: Vec<LocalEntity>,
    users: Vec<LocalEntity>,
    ext: LocalEntity,
}

impl Actors {
    fn generate(rng: &mut StdRng) -> Self {
        let g = SchnorrGroup::test_256();
        Actors {
            owner: LocalEntity::generate("Owner", g.clone(), rng),
            brokers: (0..2)
                .map(|i| LocalEntity::generate(format!("B{i}"), g.clone(), rng))
                .collect(),
            users: (0..4)
                .map(|i| LocalEntity::generate(format!("U{i}"), g.clone(), rng))
                .collect(),
            ext: LocalEntity::generate("Ext", g, rng),
        }
    }
}

/// Everything the workload touched, for the oracle comparison.
struct Touched {
    subjects: Vec<Node>,
    objects: Vec<Node>,
    /// `(certificate, signer)` — the signer is the issuer index into
    /// the revocation candidates, so a revocation can be re-signed.
    certs: Vec<Arc<SignedDelegation>>,
    /// The journal as it stood before each checkpoint.
    log_images: Vec<Vec<u8>>,
}

const STEPS: usize = 48;

/// Drives the seeded workload against the live wallet. Third-party and
/// absorbed certificates never carry expiries: at full replay an
/// expired certificate fails re-verification and is skipped, which is
/// exactly the asymmetry the final expiry sweeps reconcile — but audit
/// candidates must stay symmetric throughout.
fn run_workload(
    rng: &mut StdRng,
    actors: &Actors,
    wallet: &DurableWallet,
    clock: &SimClock,
    scenario: Scenario,
    index: &Arc<DelegationIndex>,
) -> Touched {
    let Actors {
        owner,
        brokers,
        users,
        ext,
    } = actors;

    let mut touched = Touched {
        subjects: Vec::new(),
        objects: Vec::new(),
        certs: Vec::new(),
        log_images: Vec::new(),
    };
    for u in users {
        touched.subjects.push(Node::entity(u));
    }
    for b in brokers {
        touched.subjects.push(Node::entity(b));
    }

    // Deterministic setup: a base declaration plus one admin grant per
    // broker (the support every third-party publication leans on).
    let bw = owner.attr("BW", AttrOp::Min);
    wallet
        .publish_declaration(
            &SignedAttrDeclaration::sign(AttrDeclaration::new(bw, 1000.0).unwrap(), owner).unwrap(),
        )
        .unwrap();
    let mut admin_certs = Vec::new();
    for (i, b) in brokers.iter().enumerate() {
        let cert: Arc<SignedDelegation> = Arc::new(
            owner
                .delegate(
                    Node::entity(b),
                    Node::role_admin(owner.role(&format!("tp{i}"))),
                )
                .sign(owner)
                .unwrap(),
        );
        wallet.publish(Arc::clone(&cert), vec![]).unwrap();
        touched.certs.push(Arc::clone(&cert));
        touched
            .objects
            .push(Node::role(owner.role(&format!("tp{i}"))));
        admin_certs.push(cert);
    }
    for k in 0..6 {
        touched
            .objects
            .push(Node::role(owner.role(&format!("r{k}"))));
    }

    // `(cert, signer)` pairs eligible for revocation. Admin certs are
    // included on purpose: revoking one turns later third-party grants
    // into `unsupported_third_party` audit hits.
    let mut revocable: Vec<(Arc<SignedDelegation>, LocalEntity)> = admin_certs
        .iter()
        .map(|c| (Arc::clone(c), owner.clone()))
        .collect();

    for step in 0..STEPS {
        if scenario == Scenario::Compacted && (step == STEPS / 3 || step == 2 * STEPS / 3) {
            touched.log_images.push(wallet.store().log_bytes().unwrap());
            wallet.checkpoint().expect("mid-workload checkpoint");
        }
        if scenario == Scenario::Crash && step == STEPS / 2 {
            index.flush().expect("mid-workload index flush");
        }
        let u = rng.gen_range(0..users.len());
        let k = rng.gen_range(0..6u32);
        match rng.gen_range(0..8u32) {
            // A plain delegation into one of the owner's roles.
            0 => {
                let cert = owner
                    .delegate(
                        Node::entity(&users[u]),
                        Node::role(owner.role(&format!("r{k}"))),
                    )
                    .serial(step as u64)
                    .sign(owner)
                    .unwrap();
                let cert: Arc<SignedDelegation> = Arc::new(cert);
                wallet.publish(Arc::clone(&cert), vec![]).unwrap();
                revocable.push((Arc::clone(&cert), owner.clone()));
                touched.certs.push(cert);
            }
            // The same, with a bounded lifetime.
            1 => {
                let cert = owner
                    .delegate(
                        Node::entity(&users[u]),
                        Node::role(owner.role(&format!("r{k}"))),
                    )
                    .serial(step as u64)
                    .expires(clock.now().after(Ticks(rng.gen_range(5..30u64))))
                    .sign(owner)
                    .unwrap();
                let cert: Arc<SignedDelegation> = Arc::new(cert);
                wallet.publish(Arc::clone(&cert), vec![]).unwrap();
                touched.certs.push(cert);
            }
            // A role-to-role edge (endpoints distinct: self-loops are
            // rejected at signing time).
            2 => {
                let k2 = (k + 1 + rng.gen_range(0..5u32)) % 6;
                let cert = owner
                    .delegate(
                        Node::role(owner.role(&format!("r{k}"))),
                        Node::role(owner.role(&format!("r{k2}"))),
                    )
                    .serial(step as u64)
                    .sign(owner)
                    .unwrap();
                let cert: Arc<SignedDelegation> = Arc::new(cert);
                wallet.publish(Arc::clone(&cert), vec![]).unwrap();
                revocable.push((Arc::clone(&cert), owner.clone()));
                touched.certs.push(cert);
            }
            // Third-party grant with an explicit support proof.
            3 => {
                let b = rng.gen_range(0..brokers.len());
                let cert = brokers[b]
                    .delegate(
                        Node::entity(&users[u]),
                        Node::role(owner.role(&format!("tp{b}"))),
                    )
                    .serial(step as u64)
                    .sign(&brokers[b])
                    .unwrap();
                let support =
                    Proof::from_steps(vec![ProofStep::new(Arc::clone(&admin_certs[b]))]).unwrap();
                let cert: Arc<SignedDelegation> = Arc::new(cert);
                if wallet.publish(Arc::clone(&cert), vec![support]).is_ok() {
                    revocable.push((Arc::clone(&cert), brokers[b].clone()));
                    touched.certs.push(cert);
                }
            }
            // Third-party grant leaning on derivable (in-wallet) support.
            4 => {
                let b = rng.gen_range(0..brokers.len());
                let cert = brokers[b]
                    .delegate(
                        Node::entity(&users[u]),
                        Node::role(owner.role(&format!("tp{b}"))),
                    )
                    .serial(1000 + step as u64)
                    .sign(&brokers[b])
                    .unwrap();
                let cert: Arc<SignedDelegation> = Arc::new(cert);
                // Fails (and is not journaled) once the admin grant has
                // been revoked — the oracle only sees committed events.
                if wallet.publish(Arc::clone(&cert), vec![]).is_ok() {
                    revocable.push((Arc::clone(&cert), brokers[b].clone()));
                    touched.certs.push(cert);
                }
            }
            // Revoke a committed certificate, signed by its issuer.
            5 => {
                let (cert, signer) = &revocable[rng.gen_range(0..revocable.len())];
                let revocation =
                    SignedRevocation::revoke(cert.as_ref(), signer, clock.now()).unwrap();
                wallet.revoke(&revocation).unwrap();
            }
            // Absorb a validated remote proof with coherence metadata.
            6 => {
                let cert: Arc<SignedDelegation> = Arc::new(
                    ext.delegate(
                        Node::entity(&users[u]),
                        Node::role(ext.role(&format!("g{step}"))),
                    )
                    .sign(ext)
                    .unwrap(),
                );
                let proof = Proof::from_steps(vec![ProofStep::new(Arc::clone(&cert))]).unwrap();
                let source: WalletAddr = "peer.remote".into();
                wallet.absorb_proof(&proof, &source).unwrap();
                revocable.push((Arc::clone(&cert), ext.clone()));
                touched.certs.push(cert);
                touched
                    .objects
                    .push(Node::role(ext.role(&format!("g{step}"))));
            }
            // Time passes; lapsed credentials are swept and journaled.
            _ => {
                clock.advance(Ticks(rng.gen_range(1..10u64)));
                wallet.process_expiries();
            }
        }
    }
    touched
}

/// Splices journal images into one journal from seq 1: the uncompacted
/// copy of the event stream a truncated journal came from.
fn uncompacted(images: &[Vec<u8>]) -> Arc<WalletStore> {
    let whole = WalletStore::in_memory();
    let mut last = 0;
    for image in images {
        for record in scan_log(image).records {
            if record.seq > last {
                assert_eq!(whole.append(&record.event).unwrap(), record.seq);
                last = record.seq;
            }
        }
    }
    Arc::new(whole)
}

fn proof_bytes(proofs: Vec<Proof>) -> Vec<Vec<u8>> {
    proofs.iter().map(|p| p.to_bytes()).collect()
}

fn audit_report(wallet: &DurableWallet) -> Vec<String> {
    let mut rows: Vec<String> = wallet
        .unsupported_third_party()
        .into_iter()
        .map(|(issuer, right, missing)| format!("{issuer:?} {right:?} {missing:?}"))
        .collect();
    rows.sort();
    rows
}

/// One cell of the matrix: run the workload, apply the scenario's
/// shutdown, reopen both ways, and hold the two wallets to the equality
/// contract.
fn run_case(seed: u64, mut backend: Backend, scenario: Scenario) {
    let ctx = format!(
        "seed {seed}, backend {}, scenario {}",
        backend.label(),
        scenario.label()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let actors = Actors::generate(&mut rng);
    let clock = SimClock::new();
    // Group commit > 1 in the crash scenario so power loss can take a
    // committed-in-memory log tail with it.
    let store = Arc::new(if scenario == Scenario::Crash {
        WalletStore::in_memory_with(StoreConfig { group_commit: 3 })
    } else {
        WalletStore::in_memory()
    });

    let touched;
    {
        let index = backend.open();
        let (live, _) = DurableWallet::open("w.oracle", clock.clone(), Arc::clone(&store)).unwrap();
        live.attach_index(Arc::clone(&index));
        touched = run_workload(&mut rng, &actors, &live, &clock, scenario, &index);
        match scenario {
            Scenario::Crash => {} // no flush: the tail since midpoint is at risk
            _ => index.flush().unwrap(),
        }
    }
    let end = clock.now().0;
    if scenario == Scenario::Crash {
        store.lose_unsynced();
        backend.crash();
    }

    // The oracle: full journal replay, no index anywhere.
    let oracle_store = if scenario == Scenario::Compacted {
        let truncated = store.status().first_seq != Some(1);
        assert_eq!(
            truncated,
            backend.label() == "file",
            "{ctx}: truncation follows the backend"
        );
        let mut images = touched.log_images.clone();
        images.push(store.log_bytes().unwrap());
        uncompacted(&images)
    } else {
        Arc::clone(&store)
    };
    let clock_full = SimClock::new();
    clock_full.advance(Ticks(end));
    let (full, _) = DurableWallet::open("w.oracle", clock_full.clone(), oracle_store).unwrap();

    // The subject: an indexed boot over whatever survived the scenario.
    let clock_idx = SimClock::new();
    clock_idx.advance(Ticks(end));
    let (reborn, report) = DurableWallet::open_indexed(
        "w.oracle",
        clock_idx.clone(),
        Arc::clone(&store),
        backend.open(),
    )
    .unwrap();
    if scenario != Scenario::Crash {
        assert!(report.lazy, "{ctx}: a current index must boot lazily");
    }
    assert!(reborn.indexed(), "{ctx}: boot must leave an index attached");

    // Planner-routed queries against graph-walk answers, byte for byte.
    for s in &touched.subjects {
        assert_eq!(
            proof_bytes(reborn.query_subject(s, &[])),
            proof_bytes(full.query_subject(s, &[])),
            "{ctx}: query_subject({s:?}) diverged"
        );
    }
    for o in &touched.objects {
        let got = reborn.query_object(o, &[]);
        let want = full.query_object(o, &[]);
        if proof_bytes(got.clone()) != proof_bytes(want.clone()) {
            let dump = |ps: &[Proof]| -> Vec<String> {
                ps.iter()
                    .map(|p| {
                        p.all_certs()
                            .iter()
                            .map(|c| format!("{:?}", c.id()))
                            .collect::<Vec<_>>()
                            .join(" + ")
                    })
                    .collect()
            };
            panic!(
                "{ctx}: query_object({o:?}) diverged\nindexed ({}):\n{:#?}\nreplay ({}):\n{:#?}",
                got.len(),
                dump(&got),
                want.len(),
                dump(&want)
            );
        }
    }

    // The audit sweep (index-routed vs full scan) and revocation lookups.
    if audit_report(&reborn) != audit_report(&full) {
        let ids = |w: &DurableWallet| {
            w.with_graph(|g| {
                g.iter_certs()
                    .iter()
                    .map(|c| format!("{:?}", c.id()))
                    .collect::<BTreeSet<_>>()
            })
        };
        let (ri, fi) = (ids(&reborn), ids(&full));
        let only_r: Vec<_> = ri.difference(&fi).collect();
        let only_f: Vec<_> = fi.difference(&ri).collect();
        panic!(
            "{ctx}: audit diverged\nindexed: {:#?}\nreplay: {:#?}\ncerts only indexed: {only_r:?}\ncerts only replay: {only_f:?}",
            audit_report(&reborn),
            audit_report(&full),
        );
    }
    for cert in &touched.certs {
        assert_eq!(
            reborn.is_revoked(cert.id()),
            full.is_revoked(cert.id()),
            "{ctx}: revocation lookup diverged for {:?}",
            cert.id()
        );
    }

    // Expiry sweeps reconcile the one deliberate boot asymmetry before
    // the graphs are compared wholesale: full replay rejects
    // already-lapsed certificates at re-verification while the index
    // still carries them, so the indexed side may sweep *more* — never
    // fewer — and afterwards the graphs must agree exactly.
    clock_idx.advance(Ticks(100));
    clock_full.advance(Ticks(100));
    let swept_reborn = reborn.process_expiries();
    let swept_full = full.process_expiries();
    assert!(
        swept_reborn.0.len() >= swept_full.0.len(),
        "{ctx}: indexed sweep removed fewer certs ({} < {})",
        swept_reborn.0.len(),
        swept_full.0.len()
    );

    let graph_view = |w: &DurableWallet| {
        w.with_graph(|g| {
            (
                g.iter_certs()
                    .iter()
                    .map(|c| c.id())
                    .collect::<BTreeSet<_>>(),
                g.revoked_ids(),
            )
        })
    };
    assert_eq!(
        graph_view(&reborn),
        graph_view(&full),
        "{ctx}: materialized graphs diverged"
    );
}

fn seeds() -> Vec<u64> {
    let mut seeds = vec![11, 42, 2002];
    if let Some(env) = std::env::var("DRBAC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        if !seeds.contains(&env) {
            seeds.push(env);
        }
    }
    seeds
}

#[test]
fn indexed_boot_matches_full_replay_after_clean_shutdown() {
    for seed in seeds() {
        run_case(seed, Backend::mem(), Scenario::Clean);
        run_case(seed, Backend::file(), Scenario::Clean);
    }
}

#[test]
fn indexed_boot_matches_full_replay_after_crash() {
    for seed in seeds() {
        run_case(seed, Backend::mem(), Scenario::Crash);
        run_case(seed, Backend::file(), Scenario::Crash);
    }
}

#[test]
fn indexed_boot_matches_full_replay_after_compaction() {
    for seed in seeds() {
        run_case(seed, Backend::mem(), Scenario::Compacted);
        run_case(seed, Backend::file(), Scenario::Compacted);
    }
}
