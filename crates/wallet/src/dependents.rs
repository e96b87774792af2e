//! The dependents index: who is owed word when a credential dies.
//!
//! Paper §4.2.2 builds a proof monitor from delegation subscriptions,
//! "one for each delegation in the proof". Both kinds of dependent live
//! here under one rule: a dependent is registered by handle, removed by
//! handle in O(1), and *taken* (fired once, then dropped) when a
//! credential it waits on dies, so a repeat of that event finds nobody.
//! Nothing is fired or dropped under the lock: callbacks may re-enter
//! the wallet, and a monitor's destructor takes the lock.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Weak};

use drbac_core::{DelegationId, Proof, SignedDelegation};
use drbac_graph::FastIdHasher;
use parking_lot::Mutex;

use crate::events::{DelegationEvent, InvalidationReason};
use crate::monitor::MonitorCore;

/// Somebody to tell when a credential dies.
pub(crate) enum Dependent {
    /// A [`crate::Wallet::subscribe`] callback.
    Subscription(Box<dyn Fn(DelegationEvent) + Send + Sync>),
    /// A proof monitor, waiting on every id it watches. Weak: the index
    /// never keeps a monitor alive.
    Monitor(Weak<MonitorCore>),
}

#[derive(Default)]
pub(crate) struct Dependents {
    inner: Mutex<Inner>,
}

/// Handles are assigned here, never taken from outside, so they need
/// no DoS-resistant hash; SipHash would dominate a registration.
type Handles = BuildHasherDefault<FastIdHasher>;

#[derive(Default)]
struct Inner {
    /// Never reused, so a stale handle stays stale.
    next: u64,
    entries: HashMap<u64, (Vec<DelegationId>, Dependent), Handles>,
    by_id: HashMap<DelegationId, HashSet<u64, Handles>>,
}

impl Inner {
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
        let mut inner = self.inner.lock();
        let handle = inner.next;
        inner.next += 1;
        for id in &ids {
            inner.by_id.entry(*id).or_default().insert(handle);
        }
        inner.entries.insert(handle, (ids, dependent));
        handle
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
            (0usize..16).prop_map(Op::Unsubscribe),
            (0..CREDS, any::<bool>()).prop_map(|(target, keep)| Op::Query { target, keep }),
            (0..CREDS).prop_map(Op::Revoke),
            (1u64..4).prop_map(Op::Expire),
            (0..CREDS, any::<bool>()).prop_map(|(cred, revoked)| Op::Push { cred, revoked }),
        ]
    }

    #[derive(Clone, Copy)]
    enum Owner {
        Sub,
        Monitor(usize),
    }

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
    }

    impl Oracle {
        fn alive(&self, cred: usize) -> bool {
            self.held[cred] && !self.revoked[cred] && EXPIRES[cred].is_none_or(|at| self.now <= at)
        }

        /// `cred` dies: every live entry waiting on it fires and is
        /// gone. Returns the notifications delivered.
        fn die(&mut self, cred: usize, reason: InvalidationReason) -> usize {
            match reason {
                InvalidationReason::Revoked => self.revoked[cred] = true,
                InvalidationReason::Expired => self.held[cred] = false,
            }
            let mut delivered = 0;
            for (handle, on, owner, alive) in &mut self.entries {
                if !*alive || !on.contains(&cred) {
                    continue;
                }
                *alive = false;
                delivered += 1;
                match owner {
                    Owner::Sub => *self.sub_fired.get_mut(handle).unwrap() += 1,
                    Owner::Monitor(m) => self.monitor_fired[*m] = true,
                }
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
        };
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

        /// Subscriptions and monitors against the naive oracle: each
        /// fires exactly when a credential it depends on dies, at most
        /// once, and the index holds exactly the live registrations
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
