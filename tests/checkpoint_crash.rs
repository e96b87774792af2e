//! Crash at every step of a checkpoint.
//!
//! A checkpoint (`DurableWallet::checkpoint`) syncs the journal, folds the
//! index overlay into a new base run (copying the run it replaces to the
//! previous-run medium first), and only then truncates the journal
//! through the previous run's watermark. These tests interrupt it at
//! each of those steps — by power loss (`lose_unsynced` on every medium)
//! right after the step, and by a medium whose k-th `replace` fails —
//! and reboot with `DurableWallet::open_indexed`. Every acknowledged
//! publish and revoke must come back, and boot must never refuse while
//! the journal still holds the records.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drbac::core::{LocalEntity, Node, SignedDelegation, SignedRevocation, SimClock};
use drbac::crypto::SchnorrGroup;
use drbac::index::{DelegationIndex, FileTable};
use drbac::store::{Medium, MemMedium, WalletStore};
use drbac::wallet::DurableWallet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A [`MemMedium`] whose `replace` fails when a counter shared by all
/// of a home's index media reaches `fail_at` (0: never).
#[derive(Clone)]
struct Faulty {
    inner: MemMedium,
    replaces: Arc<AtomicUsize>,
    fail_at: usize,
}

impl Medium for Faulty {
    fn read_all(&self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(bytes)
    }
    fn truncate(&self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        if self.replaces.fetch_add(1, Ordering::SeqCst) + 1 == self.fail_at {
            return Err(io::Error::other("injected replace failure"));
        }
        self.inner.replace(bytes)
    }
    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
    fn lose_unsynced(&self) {
        self.inner.lose_unsynced()
    }
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.inner.read_at(offset, len)
    }
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

/// One durable home: the journal and the index's two media.
struct Home {
    store: Arc<WalletStore>,
    media: [MemMedium; 2],
    replaces: Arc<AtomicUsize>,
}

impl Home {
    fn new() -> Home {
        Home {
            store: Arc::new(WalletStore::in_memory()),
            media: [MemMedium::new(), MemMedium::new()],
            replaces: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The index over this home's media; the `fail_at`-th replace from
    /// now on fails.
    fn index(&self, fail_at: usize) -> Arc<DelegationIndex> {
        self.replaces.store(0, Ordering::SeqCst);
        let [tab, prev] = self.media.clone().map(|inner| {
            Box::new(Faulty {
                inner,
                replaces: Arc::clone(&self.replaces),
                fail_at,
            }) as Box<dyn Medium>
        });
        let table = FileTable::from_media(tab, prev).expect("index media open");
        Arc::new(DelegationIndex::open(Box::new(table)).expect("index opens"))
    }

    fn boot(&self, fail_at: usize) -> DurableWallet {
        let (wallet, report) = DurableWallet::open_indexed(
            "w",
            SimClock::new(),
            Arc::clone(&self.store),
            self.index(fail_at),
        )
        .expect("boot never refuses while the journal holds the records");
        assert!(
            report.recovery.is_none(),
            "the index covers the journal: {report:?}"
        );
        wallet
    }

    /// Power loss: every medium drops what it had not synced.
    fn crash(&self) {
        self.store.lose_unsynced();
        for medium in &self.media {
            medium.lose_unsynced();
        }
    }
}

/// Acked writes so far: live credentials and revoked ones.
#[derive(Default)]
struct Acked {
    live: Vec<SignedDelegation>,
    revoked: Vec<SignedDelegation>,
}

struct Writer {
    a: LocalEntity,
    m: LocalEntity,
    next: u64,
}

impl Writer {
    fn new() -> Writer {
        let mut rng = StdRng::seed_from_u64(32);
        let g = SchnorrGroup::test_256();
        Writer {
            a: LocalEntity::generate("A", g.clone(), &mut rng),
            m: LocalEntity::generate("M", g, &mut rng),
            next: 0,
        }
    }

    /// Three publishes and a revocation of the first of them.
    fn round(&mut self, wallet: &DurableWallet, acked: &mut Acked) {
        let mut certs = Vec::new();
        for _ in 0..3 {
            self.next += 1;
            let cert = self
                .a
                .delegate(
                    Node::entity(&self.m),
                    Node::role(self.a.role(&format!("r{}", self.next))),
                )
                .sign(&self.a)
                .unwrap();
            wallet.publish(cert.clone(), vec![]).unwrap();
            certs.push(cert);
        }
        let doomed = certs.remove(0);
        let revocation = SignedRevocation::revoke(&doomed, &self.a, wallet.now()).unwrap();
        wallet.revoke(&revocation).unwrap();
        acked.revoked.push(doomed);
        acked.live.extend(certs);
    }
}

fn assert_survived(wallet: &DurableWallet, acked: &Acked, ctx: &str) {
    for cert in &acked.live {
        let d = cert.delegation();
        assert!(
            wallet.query_direct(d.subject(), d.object(), &[]).is_some(),
            "{ctx}: acked publish {:?} lost",
            cert.id()
        );
    }
    for cert in &acked.revoked {
        assert!(
            wallet.is_revoked(cert.id()),
            "{ctx}: acked revoke of {:?} lost",
            cert.id()
        );
        let d = cert.delegation();
        assert!(
            wallet.query_direct(d.subject(), d.object(), &[]).is_none(),
            "{ctx}"
        );
    }
}

/// A home with two checkpoints behind it — the second truncated the
/// journal — and a round of writes since.
fn checkpointed_home(writer: &mut Writer, acked: &mut Acked) -> Home {
    let home = Home::new();
    let wallet = home.boot(0);
    for _ in 0..2 {
        writer.round(&wallet, acked);
        wallet.checkpoint().unwrap();
    }
    writer.round(&wallet, acked);
    assert!(
        home.store.status().first_seq > Some(1),
        "the second checkpoint truncated"
    );
    home
}

#[test]
fn power_loss_after_each_checkpoint_step_loses_no_acked_write() {
    // The steps of `DurableWallet::checkpoint`, in its order.
    for crash_after in 0..=4 {
        let (mut writer, mut acked) = (Writer::new(), Acked::default());
        let home = checkpointed_home(&mut writer, &mut acked);
        {
            let wallet = home.boot(0);
            let index = wallet.index().unwrap();
            let steps: [&dyn Fn(); 4] = [
                &|| wallet.store().sync().unwrap(),
                &|| index.flush().unwrap(),
                &|| index.compact().unwrap(),
                &|| {
                    let through = index.previous_watermark().unwrap().expect("a previous run");
                    wallet.store().truncate_through(through).unwrap();
                },
            ];
            for step in &steps[..crash_after] {
                step();
            }
        }
        home.crash();
        let reborn = home.boot(0);
        assert_survived(&reborn, &acked, &format!("crash after step {crash_after}"));
        // And the home keeps working: more writes, another checkpoint.
        writer.round(&reborn, &mut acked);
        reborn.checkpoint().unwrap();
        drop(reborn);
        home.crash();
        assert_survived(
            &home.boot(0),
            &acked,
            &format!("after step {crash_after}, then again"),
        );
    }
}

#[test]
fn a_failed_replace_at_any_point_of_a_checkpoint_loses_no_acked_write() {
    // A checkpoint over this home replaces the previous run and the base
    // run, in that order; k = 3 never fires.
    for fail_at in 1..=3 {
        let (mut writer, mut acked) = (Writer::new(), Acked::default());
        let home = checkpointed_home(&mut writer, &mut acked);
        {
            let wallet = home.boot(fail_at);
            let result = wallet.checkpoint();
            assert_eq!(
                result.is_err(),
                fail_at <= 2,
                "replace {fail_at}: {result:?}"
            );
        }
        home.crash();
        let reborn = home.boot(0);
        assert_survived(&reborn, &acked, &format!("replace {fail_at} failed"));
    }
}
