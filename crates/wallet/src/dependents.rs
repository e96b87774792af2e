//! The dependents index: who is owed word when a credential dies.
//!
//! Paper §4.2.2 builds a proof monitor from delegation subscriptions,
//! "one for each delegation in the proof". Every dependent — a local
//! subscription, a monitor, the remote wallets subscribed through a
//! host — lives here under one rule: it is registered by handle,
//! removed by handle in O(1), and *taken* (fired once, then dropped)
//! when a credential it waits on dies, so a repeat finds nobody.
//! Nothing is fired or dropped under the lock: callbacks may re-enter
//! the wallet, and a monitor's destructor takes the lock.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Weak};

use drbac_core::{DelegationId, Proof, SignedDelegation, WalletAddr};
use drbac_graph::FastIdHasher;
use parking_lot::Mutex;

use crate::events::{DelegationEvent, InvalidationReason};
use crate::monitor::MonitorCore;

/// How a host reaches the remote wallets subscribed through it (the
/// simulator's push queue, a daemon's push links).
pub trait PushSink: Send + Sync {
    /// Carries `event` to each of `targets`, after the local dependents.
    fn push(&self, event: DelegationEvent, targets: BTreeSet<WalletAddr>);
}

/// Somebody to tell when a credential dies.
pub(crate) enum Dependent {
    /// A [`crate::Wallet::subscribe`] callback.
    Subscription(Box<dyn Fn(DelegationEvent) + Send + Sync>),
    /// A proof monitor, waiting on every id it watches. Weak: the index
    /// never keeps a monitor alive.
    Monitor(Weak<MonitorCore>),
    /// The remote wallets subscribed to one id through one host's sink.
    Remote(Arc<dyn PushSink>, Remotes),
}

#[derive(Default)]
pub(crate) struct Dependents {
    inner: Mutex<Inner>,
}

/// Handles are assigned here, never taken from outside, so they need
/// no DoS-resistant hash; SipHash would dominate a registration.
type Handles = BuildHasherDefault<FastIdHasher>;

type Remotes = BTreeSet<WalletAddr>;

#[derive(Default)]
struct Inner {
    /// Never reused, so a stale handle stays stale.
    next: u64,
    entries: HashMap<u64, (Vec<DelegationId>, Dependent), Handles>,
    by_id: HashMap<DelegationId, HashSet<u64, Handles>>,
}

impl Inner {
    fn insert(&mut self, ids: Vec<DelegationId>, dependent: Dependent) -> u64 {
        let handle = self.next;
        self.next += 1;
        for id in &ids {
            self.by_id.entry(*id).or_default().insert(handle);
        }
        self.entries.insert(handle, (ids, dependent));
        handle
    }

    /// `id`'s subscriber set through `sink`, and its handle.
    fn remote(&mut self, id: DelegationId, sink: &dyn PushSink) -> Option<(u64, &mut Remotes)> {
        let of_sink = |h: &&u64| {
            matches!(&self.entries[*h].1,
            Dependent::Remote(s, _) if std::ptr::addr_eq(Arc::as_ptr(s), sink))
        };
        let handle = *self.by_id.get(&id)?.iter().find(of_sink)?;
        match &mut self.entries.get_mut(&handle)?.1 {
            Dependent::Remote(_, addrs) => Some((handle, addrs)),
            _ => None,
        }
    }

    fn remove(&mut self, handle: u64) -> Option<Dependent> {
        let (ids, dependent) = self.entries.remove(&handle)?;
        drbac_obs::static_counter!("drbac.wallet.dependents.visited.count").inc();
        for id in ids {
            if let Some(handles) = self.by_id.get_mut(&id) {
                handles.remove(&handle);
                if handles.is_empty() {
                    self.by_id.remove(&id);
                }
            }
        }
        Some(dependent)
    }
}

impl Dependents {
    pub(crate) fn insert(&self, ids: Vec<DelegationId>, dependent: Dependent) -> u64 {
        self.inner.lock().insert(ids, dependent)
    }

    /// Adds `addr` to `id`'s subscribers through `sink`, then asks
    /// `dead` about `id`, as [`Self::watch`] does: a death fanned out
    /// before this registration is pushed to `addr` here instead.
    pub(crate) fn subscribe_remote(
        &self,
        id: DelegationId,
        addr: WalletAddr,
        sink: Arc<dyn PushSink>,
        dead: impl FnOnce() -> Option<InvalidationReason>,
    ) {
        let mut inner = self.inner.lock();
        if let Some((_, addrs)) = inner.remote(id, &*sink) {
            addrs.insert(addr.clone());
        } else {
            let entry = Dependent::Remote(Arc::clone(&sink), BTreeSet::from([addr.clone()]));
            inner.insert(vec![id], entry);
        }
        drop(inner);
        if let Some(reason) = dead().filter(|_| self.unsubscribe_remote(id, &addr, &*sink)) {
            let event = DelegationEvent {
                delegation: id,
                reason,
            };
            sink.push(event, BTreeSet::from([addr]));
        }
    }

    /// Removes `addr` from `id`'s subscribers through `sink`, and the
    /// set when it empties; `false` if `addr` was not in it.
    pub(crate) fn unsubscribe_remote(
        &self,
        id: DelegationId,
        addr: &WalletAddr,
        sink: &dyn PushSink,
    ) -> bool {
        let mut inner = self.inner.lock();
        let Some((handle, addrs)) = inner.remote(id, sink) else {
            return false;
        };
        let removed = addrs.remove(addr);
        let emptied = addrs.is_empty().then(|| inner.remove(handle));
        drop((inner, emptied)); // unlock, then drop the emptied entry
        removed
    }

    pub(crate) fn remote_subscribers(&self, id: DelegationId, sink: &dyn PushSink) -> Remotes {
        let mut inner = self.inner.lock();
        let addrs = inner.remote(id, sink).map(|(_, addrs)| addrs.clone());
        addrs.unwrap_or_default()
    }

    /// `None` if `handle` was removed or taken before. The caller drops
    /// what it gets.
    pub(crate) fn remove(&self, handle: u64) -> Option<Dependent> {
        self.inner.lock().remove(handle)
    }

    /// Takes every dependent waiting on `id`, in registration order.
    pub(crate) fn take(&self, id: DelegationId) -> Vec<Dependent> {
        let mut inner = self.inner.lock();
        let mut handles: Vec<u64> = inner.by_id.remove(&id).into_iter().flatten().collect();
        handles.sort_unstable();
        handles
            .into_iter()
            .filter_map(|h| inner.remove(h))
            .collect()
    }

    /// Registers `core`, then asks `dead` about each credential of its
    /// proof: a death whose fan-out ran between the proof's validation
    /// and this registration had nothing to take, so it is delivered
    /// here (first cause wins, so it fires once either way).
    pub(crate) fn watch(
        self: &Arc<Self>,
        core: &Arc<MonitorCore>,
        dead: impl Fn(&SignedDelegation) -> Option<InvalidationReason>,
    ) {
        let ids = core.watched().iter().copied().collect();
        let handle = self.insert(ids, Dependent::Monitor(Arc::downgrade(core)));
        let _ = core.registration.set((Arc::downgrade(self), handle));
        if let Some(event) = first_death(&core.proof, &dead) {
            drop(self.remove(handle));
            core.deliver(event);
        }
    }

    /// Drops every dependent, the way a process crash would. Handles
    /// keep counting, so none issued before is issued again.
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.by_id.clear();
        let entries = std::mem::take(&mut inner.entries);
        drop(inner);
        drop(entries);
    }

    pub(crate) fn monitors(&self) -> usize {
        let inner = self.inner.lock();
        let monitors = inner.entries.values();
        monitors
            .filter(|(_, d)| matches!(d, Dependent::Monitor(_)))
            .count()
    }

    /// Every `(handle, id)` registration, sorted, after checking that
    /// the id map names exactly the entries.
    #[cfg(test)]
    pub(crate) fn held(&self) -> Vec<(u64, DelegationId)> {
        let inner = self.inner.lock();
        let mut held: Vec<(u64, DelegationId)> = inner
            .entries
            .iter()
            .flat_map(|(h, (ids, _))| ids.iter().map(move |id| (*h, *id)))
            .collect();
        let mut by_id: Vec<(u64, DelegationId)> = inner
            .by_id
            .iter()
            .flat_map(|(id, handles)| {
                assert!(!handles.is_empty(), "an empty handle set is kept for #{id}");
                handles.iter().map(move |h| (*h, *id))
            })
            .collect();
        held.sort_unstable();
        by_id.sort_unstable();
        assert_eq!(held, by_id, "the id map disagrees with the entries");
        held
    }
}

/// The first credential of `proof` (supports included) that `dead`
/// reports, as the event its death would have pushed.
fn first_death(
    proof: &Proof,
    dead: &impl Fn(&SignedDelegation) -> Option<InvalidationReason>,
) -> Option<DelegationEvent> {
    proof.steps().iter().find_map(|step| {
        let cert = step.cert();
        let death = dead(cert).map(|reason| DelegationEvent {
            delegation: cert.id(),
            reason,
        });
        death.or_else(|| step.supports().iter().find_map(|s| first_death(s, dead)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProofMonitor, SubscriptionId, Wallet};
    use drbac_core::{
        AttrSummary, LocalEntity, Node, Proof, ProofStep, SignedRevocation, SimClock, Ticks,
        Timestamp,
    };
    use drbac_crypto::SchnorrGroup;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    /// A host's sink that records what it is handed.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<(DelegationEvent, BTreeSet<WalletAddr>)>>);

    impl PushSink for Recorder {
        fn push(&self, event: DelegationEvent, targets: BTreeSet<WalletAddr>) {
            self.0.lock().push((event, targets));
        }
    }

    /// Remote subscriber addresses and the hosts' sinks the model picks
    /// from.
    const ADDRS: [&str; 2] = ["r0", "r1"];
    const SINKS: usize = 2;

    /// `[M → A.r0..r3]`, then `[A.r0 → A.s]`: five credentials, three of
    /// them with an expiry. Target `r_i` is proven by credential `i`
    /// alone, target `s` (index 4) by credentials 0 and 4.
    struct World {
        m: Node,
        targets: Vec<Node>,
        certs: Vec<SignedDelegation>,
        revocations: Vec<SignedRevocation>,
    }

    const CREDS: usize = 5;
    const EXPIRES: [Option<u64>; CREDS] = [None, Some(3), Some(6), None, Some(9)];

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(43);
            let g = SchnorrGroup::test_256();
            let a = LocalEntity::generate("A", g.clone(), &mut rng);
            let m = LocalEntity::generate("M", g, &mut rng);
            let mut targets: Vec<Node> = (0..4)
                .map(|i| Node::role(a.role(&format!("r{i}"))))
                .collect();
            let mut edges: Vec<(Node, Node)> = targets
                .iter()
                .map(|t| (Node::entity(&m), t.clone()))
                .collect();
            edges.push((targets[0].clone(), Node::role(a.role("s"))));
            targets.push(Node::role(a.role("s")));
            let certs: Vec<SignedDelegation> = edges
                .into_iter()
                .zip(EXPIRES)
                .map(|((subject, object), expires)| {
                    let grant = a.delegate(subject, object);
                    match expires {
                        Some(at) => grant.expires(Timestamp(at)),
                        None => grant,
                    }
                    .sign(&a)
                    .unwrap()
                })
                .collect();
            let revocations = certs
                .iter()
                .map(|c| SignedRevocation::revoke(c, &a, Timestamp(0)).unwrap())
                .collect();
            World {
                m: Node::entity(&m),
                targets,
                certs,
                revocations,
            }
        })
    }

    #[derive(Clone, Debug)]
    enum Op {
        Subscribe(usize),
        /// A remote wallet's subscription through a host, or its
        /// withdrawal.
        Remote {
            cred: usize,
            addr: usize,
            sink: usize,
            subscribe: bool,
        },
        /// Picks among every subscription handle issued so far, live or
        /// stale.
        Unsubscribe(usize),
        Query {
            target: usize,
            keep: bool,
        },
        Revoke(usize),
        /// Advance the clock this many ticks, then sweep.
        Expire(u64),
        /// `push_event` for a credential, first sighting or repeat.
        Push {
            cred: usize,
            revoked: bool,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..CREDS).prop_map(Op::Subscribe),
            (0..CREDS, 0..ADDRS.len(), 0..SINKS, any::<bool>()).prop_map(
                |(cred, addr, sink, subscribe)| Op::Remote {
                    cred,
                    addr,
                    sink,
                    subscribe
                }
            ),
            (0usize..16).prop_map(Op::Unsubscribe),
            (0..CREDS, any::<bool>()).prop_map(|(target, keep)| Op::Query { target, keep }),
            (0..CREDS).prop_map(Op::Revoke),
            (1u64..4).prop_map(Op::Expire),
            (0..CREDS, any::<bool>()).prop_map(|(cred, revoked)| Op::Push { cred, revoked }),
        ]
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Owner {
        Sub,
        Monitor(usize),
        /// One sink's subscriber set.
        Remote(usize),
    }

    type Pushes = Vec<(DelegationEvent, BTreeSet<WalletAddr>)>;

    /// The naive oracle: every registration ever made, in a `Vec`, and
    /// a loop over it.
    struct Oracle {
        now: u64,
        held: [bool; CREDS],
        revoked: [bool; CREDS],
        /// `(handle, credentials waited on, owner, alive)`.
        entries: Vec<(u64, Vec<usize>, Owner, bool)>,
        /// Expected firings per subscription handle.
        sub_fired: BTreeMap<u64, usize>,
        /// Expected firing per monitor ever registered.
        monitor_fired: Vec<bool>,
        /// The addresses in each remote entry, by handle.
        addrs: BTreeMap<u64, BTreeSet<usize>>,
        /// Expected pushes per sink.
        pushed: [Pushes; SINKS],
    }

    impl Oracle {
        fn alive(&self, cred: usize) -> bool {
            self.held[cred] && !self.revoked[cred] && EXPIRES[cred].is_none_or(|at| self.now <= at)
        }

        /// Why a subscription to `cred` made now is owed its death at
        /// once: revoked here, or held past its expiry.
        fn dead(&self, cred: usize) -> Option<InvalidationReason> {
            let lapsed = EXPIRES[cred].is_some_and(|at| self.now > at);
            match () {
                _ if self.revoked[cred] => Some(InvalidationReason::Revoked),
                _ if self.held[cred] && lapsed => Some(InvalidationReason::Expired),
                _ => None,
            }
        }

        fn push(&mut self, sink: usize, cred: usize, reason: InvalidationReason, to: &[usize]) {
            let event = DelegationEvent {
                delegation: world().certs[cred].id(),
                reason,
            };
            let to = to.iter().map(|a| WalletAddr::from(ADDRS[*a])).collect();
            self.pushed[sink].push((event, to));
        }

        /// Takes `addr` out of remote entry `handle`, which goes when it
        /// empties; `false` if it was not in it.
        fn unsubscribe(&mut self, handle: u64, addr: usize) -> bool {
            let addrs = self.addrs.get_mut(&handle).unwrap();
            let removed = addrs.remove(&addr);
            self.entries[handle as usize].3 = !addrs.is_empty();
            removed
        }

        /// `cred` dies: every live entry waiting on it fires and is
        /// gone. Returns the notifications delivered.
        fn die(&mut self, cred: usize, reason: InvalidationReason) -> usize {
            match reason {
                InvalidationReason::Revoked => self.revoked[cred] = true,
                InvalidationReason::Expired => self.held[cred] = false,
            }
            let mut delivered = 0;
            let mut remote = Vec::new();
            for (handle, on, owner, alive) in &mut self.entries {
                if !*alive || !on.contains(&cred) {
                    continue;
                }
                *alive = false;
                match owner {
                    Owner::Sub => *self.sub_fired.get_mut(handle).unwrap() += 1,
                    Owner::Monitor(m) => self.monitor_fired[*m] = true,
                    Owner::Remote(sink) => {
                        remote.push((*sink, *handle));
                        continue;
                    }
                }
                delivered += 1;
            }
            for (sink, handle) in remote {
                let to: Vec<usize> = self.addrs[&handle].iter().copied().collect();
                self.push(sink, cred, reason, &to);
            }
            delivered
        }

        fn live(&self) -> Vec<(u64, DelegationId)> {
            let mut live: Vec<(u64, DelegationId)> = self
                .entries
                .iter()
                .filter(|e| e.3)
                .flat_map(|e| e.1.iter().map(|c| (e.0, world().certs[*c].id())))
                .collect();
            live.sort_unstable();
            live
        }
    }

    fn cred_of(id: DelegationId) -> usize {
        world().certs.iter().position(|c| c.id() == id).unwrap()
    }

    fn run(ops: &[Op]) -> TestCaseResult {
        let w = world();
        let clock = SimClock::new();
        let wallet = Wallet::new("w.example", clock.clone());
        for cert in &w.certs {
            wallet.publish(cert.clone(), vec![]).unwrap();
        }
        let mut oracle = Oracle {
            now: 0,
            held: [true; CREDS],
            revoked: [false; CREDS],
            entries: Vec::new(),
            sub_fired: BTreeMap::new(),
            monitor_fired: Vec::new(),
            addrs: BTreeMap::new(),
            pushed: Default::default(),
        };
        let sinks: [Arc<Recorder>; SINKS] = Default::default();
        let mut subs: Vec<(SubscriptionId, Arc<AtomicUsize>)> = Vec::new();
        let mut kept: Vec<(usize, ProofMonitor, Arc<AtomicUsize>)> = Vec::new();
        let counter = || Arc::new(AtomicUsize::new(0));
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Subscribe(cred) => {
                    let fired = counter();
                    let count = Arc::clone(&fired);
                    let sub = wallet.subscribe(w.certs[cred].id(), move |_| {
                        count.fetch_add(1, Ordering::SeqCst);
                    });
                    prop_assert_eq!(sub.0, oracle.entries.len() as u64);
                    oracle.entries.push((sub.0, vec![cred], Owner::Sub, true));
                    oracle.sub_fired.insert(sub.0, 0);
                    subs.push((sub, fired));
                }
                Op::Remote {
                    cred,
                    addr,
                    sink,
                    subscribe,
                } => {
                    let (id, at) = (w.certs[cred].id(), WalletAddr::from(ADDRS[addr]));
                    let live = (oracle.entries.iter())
                        .find(|e| e.3 && e.2 == Owner::Remote(sink) && e.1 == [cred])
                        .map(|e| e.0);
                    if subscribe {
                        wallet.subscribe_remote(id, at, Arc::clone(&sinks[sink]) as _);
                        let handle = live.unwrap_or_else(|| {
                            let handle = oracle.entries.len() as u64;
                            let entry = (handle, vec![cred], Owner::Remote(sink), true);
                            oracle.entries.push(entry);
                            handle
                        });
                        oracle.addrs.entry(handle).or_default().insert(addr);
                        if let Some(reason) = oracle.dead(cred) {
                            oracle.unsubscribe(handle, addr);
                            oracle.push(sink, cred, reason, &[addr]);
                        }
                    } else {
                        let removed = wallet.unsubscribe_remote(id, &at, &*sinks[sink]);
                        let want = live.is_some_and(|h| oracle.unsubscribe(h, addr));
                        prop_assert_eq!(removed, want, "step {}", step);
                    }
                }
                Op::Unsubscribe(pick) => {
                    if let Some((sub, _)) = subs.get(pick % subs.len().max(1)) {
                        let entry = oracle.entries.iter_mut().find(|e| e.0 == sub.0).unwrap();
                        prop_assert_eq!(wallet.unsubscribe(*sub), entry.3, "step {}", step);
                        entry.3 = false;
                    }
                }
                Op::Query { target, keep } => {
                    let needs: &[usize] = if target == 4 { &[0, 4] } else { &[target] };
                    let answer = wallet.query_direct(&w.m, &w.targets[target], &[]);
                    let granted = needs.iter().all(|c| oracle.alive(*c));
                    prop_assert_eq!(answer.is_some(), granted, "step {}", step);
                    let Some(monitor) = answer else { continue };
                    let watched: Vec<usize> =
                        monitor.watched().iter().map(|id| cred_of(*id)).collect();
                    let mut want = needs.to_vec();
                    want.sort_by_key(|c| w.certs[*c].id());
                    prop_assert_eq!(&watched, &want);
                    let m = oracle.monitor_fired.len();
                    oracle.monitor_fired.push(false);
                    let handle = oracle.entries.len() as u64;
                    oracle
                        .entries
                        .push((handle, watched, Owner::Monitor(m), keep));
                    if keep {
                        let fired = counter();
                        let count = Arc::clone(&fired);
                        monitor.on_invalidate(move |_| {
                            count.fetch_add(1, Ordering::SeqCst);
                        });
                        kept.push((m, monitor, fired));
                    }
                }
                Op::Revoke(cred) => {
                    let got = wallet.revoke(&w.revocations[cred]);
                    if oracle.held[cred] {
                        let want = oracle.die(cred, InvalidationReason::Revoked);
                        prop_assert_eq!(got, Ok(want), "step {}", step);
                    } else {
                        prop_assert!(got.is_err(), "step {}: revoked a swept credential", step);
                    }
                }
                Op::Expire(ticks) => {
                    clock.advance(Ticks(ticks));
                    oracle.now += ticks;
                    let (swept, delivered) = wallet.process_expiries();
                    let mut got: Vec<usize> = swept.iter().map(|id| cred_of(*id)).collect();
                    let want: Vec<usize> = (0..CREDS)
                        .filter(|c| {
                            oracle.held[*c] && EXPIRES[*c].is_some_and(|at| oracle.now > at)
                        })
                        .collect();
                    let want_delivered: usize = got
                        .iter()
                        .map(|c| oracle.die(*c, InvalidationReason::Expired))
                        .sum();
                    got.sort_unstable();
                    prop_assert_eq!(got, want, "step {}", step);
                    prop_assert_eq!(delivered, want_delivered, "step {}", step);
                }
                Op::Push { cred, revoked } => {
                    let reason = match revoked {
                        true => InvalidationReason::Revoked,
                        false => InvalidationReason::Expired,
                    };
                    let event = DelegationEvent {
                        delegation: w.certs[cred].id(),
                        reason,
                    };
                    let delivered = wallet.push_event(event);
                    prop_assert_eq!(delivered, oracle.die(cred, reason), "step {}", step);
                }
            }
            prop_assert_eq!(
                wallet.state.dependents.held(),
                oracle.live(),
                "step {}: {:?}",
                step,
                op
            );
            for (sub, fired) in &subs {
                prop_assert_eq!(fired.load(Ordering::SeqCst), oracle.sub_fired[&sub.0]);
            }
            for (sink, want) in sinks.iter().zip(&oracle.pushed) {
                prop_assert_eq!(&*sink.0.lock(), want, "step {}: {:?}", step, op);
            }
            for (m, monitor, fired) in &kept {
                let want = oracle.monitor_fired[*m];
                prop_assert_eq!(fired.load(Ordering::SeqCst), usize::from(want));
                prop_assert_eq!(monitor.is_valid(), !want, "step {}", step);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Subscriptions, monitors and remote subscribers against the
        /// naive oracle: each fires exactly when a credential it depends
        /// on dies, at most once (a remote one at once if it subscribed
        /// after the death), each sink gets one address-sorted push per
        /// death, and the index holds exactly the live registrations
        /// after every step.
        #[test]
        fn the_index_matches_a_naive_oracle(ops in prop::collection::vec(op(), 1..40)) {
            run(&ops)?;
        }
    }

    /// A credential that died between a proof's validation and its
    /// monitor's registration had its fan-out already; the registration
    /// delivers the death itself and holds nothing afterwards. A live
    /// monitor stays until its last clone goes.
    #[test]
    fn a_monitor_registered_on_a_dead_credential_fires_at_once() {
        let w = world();
        let monitor_of =
            |cred: usize, dead: Option<InvalidationReason>, index: &Arc<Dependents>| {
                let proof = Proof::from_steps(vec![ProofStep::new(w.certs[cred].clone())]).unwrap();
                let core = MonitorCore::new(proof, AttrSummary::default());
                index.watch(&core, |_| dead);
                ProofMonitor { core }
            };
        let index = Arc::new(Dependents::default());
        let dead = monitor_of(1, Some(InvalidationReason::Revoked), &index);
        assert!(!dead.is_valid());
        assert_eq!(index.held(), []);

        let live = monitor_of(2, None, &index);
        let twin = live.clone();
        assert_eq!(index.held(), [(1, w.certs[2].id())]);
        drop(live);
        assert_eq!(index.monitors(), 1);
        drop(twin);
        assert_eq!(index.held(), []);
    }
}
