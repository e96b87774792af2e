//! The wallet host core: the one place request semantics live.
//!
//! The paper has one wallet behaviour — publish and the three query
//! forms (§4.1), delegation subscriptions with push invalidation
//! (§4.2.2) — and this module is its only implementation in the crate.
//! A [`HostCore`] owns the [`Wallet`], the volatile `delegation →
//! subscribers` registry and the seen-events loop guard, and answers
//! every [`Request`]. It never touches a wire: whenever an invalidation
//! must travel, the caller is handed a [`Fanout`] — the event and the
//! subscriber addresses to deliver it to — and moves it however its
//! deployment does (the simulator enqueues [`crate::SimNet`] messages,
//! the TCP daemon writes push frames down its subscriber links).

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};

use drbac_core::{DelegationId, WalletAddr};
use drbac_wallet::{DelegationEvent, InvalidationReason, Wallet};
use parking_lot::Mutex;

use crate::proto::{Reply, Request};
use crate::transport::{RetryPolicy, Transport};

/// An invalidation on its way out: deliver `event` to every wallet in
/// `targets` (possibly none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Fanout {
    pub targets: BTreeSet<WalletAddr>,
    pub event: DelegationEvent,
}

/// What one [`HostCore::revalidate`] pass did.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Revalidated {
    /// Push subscriptions the source acknowledged.
    pub resubscribed: usize,
    /// Entries the source still vouches for (TTL window restarted).
    pub refreshed: usize,
    /// Entries the source disowned (invalidated locally).
    pub dropped: usize,
}

/// One wallet plus the volatile state that makes it a network host.
pub(crate) struct HostCore {
    wallet: Wallet,
    /// delegation id → remote wallets subscribed to its status. Dies
    /// with the process; subscribers recover it by resubscribing.
    subscribers: Mutex<HashMap<DelegationId, BTreeSet<WalletAddr>>>,
    /// Events already originated or relayed here (loop guard for
    /// cascaded pushes).
    seen_events: Mutex<HashSet<DelegationEvent>>,
}

impl HostCore {
    pub fn new(wallet: Wallet) -> Self {
        HostCore {
            wallet,
            subscribers: Mutex::new(HashMap::new()),
            seen_events: Mutex::new(HashSet::new()),
        }
    }

    pub fn wallet(&self) -> &Wallet {
        &self.wallet
    }

    /// Remote wallets currently subscribed to `id`.
    pub fn subscribers_of(&self, id: DelegationId) -> BTreeSet<WalletAddr> {
        self.subscribers
            .lock()
            .get(&id)
            .cloned()
            .unwrap_or_default()
    }

    /// Drops the subscriber registry and the push dedup memory, the way
    /// a process crash would.
    pub fn forget_volatile(&self) {
        self.subscribers.lock().clear();
        self.seen_events.lock().clear();
    }

    /// Answers one request. A request that invalidates a delegation
    /// also returns the push its subscribers are owed.
    pub fn handle(&self, req: Request) -> (Reply, Option<Fanout>) {
        let reply = match req {
            Request::DirectQuery {
                subject,
                object,
                constraints,
            } => match self.wallet.find_proof(&subject, &object, &constraints) {
                Some(p) => Reply::Proofs(vec![p]),
                None => Reply::Proofs(vec![]),
            },
            Request::SubjectQuery {
                subject,
                constraints,
            } => Reply::Proofs(self.wallet.query_subject(&subject, &constraints)),
            Request::ObjectQuery {
                object,
                constraints,
            } => Reply::Proofs(self.wallet.query_object(&object, &constraints)),
            Request::Publish { cert, supports } => match self.wallet.publish(cert, supports) {
                Ok(id) => Reply::Published(id),
                Err(e) => Reply::Error(e.to_string()),
            },
            Request::PublishDeclaration(decl) => match self.wallet.publish_declaration(&decl) {
                Ok(()) => Reply::DeclarationPublished,
                Err(e) => Reply::Error(e.to_string()),
            },
            Request::Subscribe {
                delegation,
                subscriber,
            } => {
                self.subscribers
                    .lock()
                    .entry(delegation)
                    .or_default()
                    .insert(subscriber);
                Reply::Subscribed
            }
            Request::Unsubscribe {
                delegation,
                subscriber,
            } => {
                if let Entry::Occupied(mut watchers) = self.subscribers.lock().entry(delegation) {
                    watchers.get_mut().remove(&subscriber);
                    if watchers.get().is_empty() {
                        watchers.remove();
                    }
                }
                Reply::Subscribed
            }
            Request::Revoke(revocation) => match self.wallet.revoke(&revocation) {
                Ok(delivered) => {
                    let fanout = self.originate(DelegationEvent {
                        delegation: revocation.delegation_id(),
                        reason: InvalidationReason::Revoked,
                    });
                    return (Reply::Revoked(delivered), Some(fanout));
                }
                Err(e) => Reply::Error(e.to_string()),
            },
            Request::FetchDeclarations => Reply::Declarations(self.wallet.signed_declarations()),
            Request::FetchDelegation(id) => {
                let now = self.wallet.now();
                let live = self
                    .wallet
                    .get(id)
                    .filter(|c| !self.wallet.is_revoked(id) && !c.delegation().is_expired(now));
                Reply::Delegation(live)
            }
            // A scrape needs the serving process's uptime, request and
            // link counts, which only a daemon has; simulated hosts
            // share one process and one global registry, so a per-host
            // answer would mislead.
            Request::Stats | Request::Health => {
                Reply::Error("stats/health are served by TCP daemons".into())
            }
        };
        (reply, None)
    }

    /// Originates an invalidation this host observed first-hand (a
    /// revocation it honoured, a local expiry, a disowned cached copy):
    /// the event will not be relayed back in, and its subscribers are
    /// owed a push.
    fn originate(&self, event: DelegationEvent) -> Fanout {
        self.seen_events.lock().insert(event);
        self.fanout(event)
    }

    /// [`HostCore::originate`] for callers that may report the same
    /// event more than once: only the first sighting fans out.
    pub fn originate_once(&self, event: DelegationEvent) -> Option<Fanout> {
        let first_sighting = self.seen_events.lock().insert(event);
        first_sighting.then(|| self.fanout(event))
    }

    /// Relays an incoming push: applied to the local wallet (monitors,
    /// subscriptions, graph) and cascaded to this host's own
    /// subscribers exactly once per event, so subscription cycles
    /// terminate.
    pub fn relay(&self, event: DelegationEvent) -> Option<Fanout> {
        let fanout = self.originate_once(event)?;
        self.wallet.push_event(event);
        Some(fanout)
    }

    /// Drops locally expired delegations and originates one
    /// invalidation per expiry. Drive after advancing the clock. Costs
    /// O(expired): the wallet names the ids it swept, so a lazily booted
    /// wallet is never hydrated for it.
    pub fn process_expiries(&self) -> Vec<Fanout> {
        let (expired, _) = self.wallet.process_expiries();
        expired
            .into_iter()
            .map(|delegation| {
                self.originate(DelegationEvent {
                    delegation,
                    reason: InvalidationReason::Expired,
                })
            })
            .collect()
    }

    /// Revalidates cached credentials against the wallets they were
    /// fetched from: each `(delegation, source)` entry is re-fetched
    /// over `transport` under `retry`. With `resubscribe_as` set, the
    /// push subscription is re-registered under that address first —
    /// the recovery step after a source restart, whose volatile
    /// registry silently forgot us. An entry the source still vouches
    /// for restarts its TTL window; one it disowns is invalidated
    /// locally (an `Expired` event) and handed to `deliver` for this
    /// host's own subscribers; an unreachable source leaves the entry
    /// untouched — TTL refresh remains the backstop.
    pub fn revalidate(
        &self,
        transport: &dyn Transport,
        retry: &RetryPolicy,
        resubscribe_as: Option<&WalletAddr>,
        entries: impl IntoIterator<Item = (DelegationId, WalletAddr)>,
        mut deliver: impl FnMut(Fanout),
    ) -> Revalidated {
        let mut done = Revalidated::default();
        for (id, source) in entries {
            if let Some(subscriber) = resubscribe_as {
                let subscribe = Request::Subscribe {
                    delegation: id,
                    subscriber: subscriber.clone(),
                };
                if matches!(
                    retry.run(transport, &source, &subscribe).reply,
                    Ok(Reply::Subscribed)
                ) {
                    done.resubscribed += 1;
                }
            }
            match retry
                .run(transport, &source, &Request::FetchDelegation(id))
                .reply
            {
                Ok(Reply::Delegation(Some(_))) => {
                    self.wallet.mark_refreshed(id);
                    done.refreshed += 1;
                }
                Ok(Reply::Delegation(None)) => {
                    let event = DelegationEvent {
                        delegation: id,
                        reason: InvalidationReason::Expired,
                    };
                    let fanout = self.originate(event);
                    self.wallet.push_event(event);
                    deliver(fanout);
                    done.dropped += 1;
                }
                _ => {}
            }
        }
        done
    }

    fn fanout(&self, event: DelegationEvent) -> Fanout {
        Fanout {
            targets: self.subscribers_of(event.delegation),
            event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NetError;
    use crate::testkit::{fx, proof_of, publish, Fx};
    use crate::wire::encode_reply;
    use drbac_core::{AttrDeclaration, AttrOp, Node, SignedAttrDeclaration, Ticks, Timestamp};
    use drbac_index::{DelegationIndex, MemTable};
    use drbac_store::WalletStore;
    use drbac_wallet::DurableWallet;
    use std::sync::Arc;

    fn host_at(f: &Fx, addr: &str) -> HostCore {
        HostCore::new(Wallet::new(addr, f.clock.clone()))
    }

    fn sub(delegation: DelegationId, subscriber: &str) -> Request {
        Request::Subscribe {
            delegation,
            subscriber: subscriber.into(),
        }
    }

    fn unsub(delegation: DelegationId, subscriber: &str) -> Request {
        Request::Unsubscribe {
            delegation,
            subscriber: subscriber.into(),
        }
    }

    fn event(delegation: DelegationId, reason: InvalidationReason) -> DelegationEvent {
        DelegationEvent { delegation, reason }
    }

    fn addrs(names: &[&str]) -> BTreeSet<WalletAddr> {
        names.iter().map(|n| (*n).into()).collect()
    }

    /// Every request kind against one wallet, in script order: each
    /// reply encodes to exactly the expected reply's bytes, and only an
    /// honoured revocation owes a push.
    #[test]
    fn every_request_kind_has_its_reply() {
        let f = fx();
        let host = host_at(&f, "w");
        let (cert, stranger) = (f.cert("r"), f.cert("never-published"));
        let (id, proof) = (cert.id(), proof_of(&cert));
        let bw = AttrDeclaration::new(f.a.attr("BW", AttrOp::Min), 200.0).unwrap();
        let decl = SignedAttrDeclaration::sign(bw, &f.a).unwrap();
        let (m, r) = (Node::entity(&f.m), Node::role(f.a.role("r")));
        let unknown = drbac_wallet::WalletError::UnknownDelegation(stranger.id()).to_string();
        let scrape = || Reply::Error("stats/health are served by TCP daemons".into());
        let by_subject = Request::SubjectQuery {
            subject: m.clone(),
            constraints: vec![],
        };
        let by_object = Request::ObjectQuery {
            object: r.clone(),
            constraints: vec![],
        };

        #[rustfmt::skip]
        let script: Vec<(Request, Reply, bool)> = vec![
            (publish(&cert), Reply::Published(id), false),
            (Request::PublishDeclaration(decl.clone()), Reply::DeclarationPublished, false),
            (Request::FetchDeclarations, Reply::Declarations(vec![decl]), false),
            (f.query("r"), Reply::Proofs(vec![proof.clone()]), false),
            (f.query("never-published"), Reply::Proofs(vec![]), false),
            (by_subject, Reply::Proofs(vec![proof.clone()]), false),
            (by_object, Reply::Proofs(vec![proof]), false),
            (sub(id, "peer"), Reply::Subscribed, false),
            (Request::FetchDelegation(id), Reply::Delegation(Some(Arc::new(cert.clone()))), false),
            (f.revoke(&stranger), Reply::Error(unknown), false),
            (f.revoke(&cert), Reply::Revoked(0), true),
            (Request::FetchDelegation(id), Reply::Delegation(None), false),
            (f.query("r"), Reply::Proofs(vec![]), false),
            (unsub(id, "peer"), Reply::Subscribed, false),
            (Request::Stats, scrape(), false),
            (Request::Health, scrape(), false),
        ];
        for (step, (request, expected, owes_push)) in script.into_iter().enumerate() {
            let what = format!("step {step}: {request}");
            let (reply, fanout) = host.handle(request);
            assert_eq!(
                encode_reply(&reply),
                encode_reply(&expected),
                "{what}: {reply:?}"
            );
            assert_eq!(fanout.is_some(), owes_push, "{what}");
        }
    }

    #[test]
    fn registry_drops_a_delegation_when_its_last_subscriber_leaves() {
        let host = host_at(&fx(), "w");
        let (d1, d2) = (DelegationId([1; 32]), DelegationId([2; 32]));
        // (request, subscribers of d1 afterwards, delegations watched afterwards)
        let script: Vec<(Request, &[&str], usize)> = vec![
            (unsub(d1, "a"), &[], 0), // nothing to remove, nothing created
            (sub(d1, "a"), &["a"], 1),
            (sub(d1, "a"), &["a"], 1), // idempotent
            (sub(d1, "b"), &["a", "b"], 1),
            (sub(d2, "a"), &["a", "b"], 2),
            (unsub(d1, "c"), &["a", "b"], 2), // never subscribed
            (unsub(d1, "a"), &["b"], 2),
            (unsub(d1, "b"), &[], 1), // last one out: the entry goes too
            (unsub(d2, "a"), &[], 0),
        ];
        for (step, (request, of_d1, watched)) in script.into_iter().enumerate() {
            let (reply, fanout) = host.handle(request);
            assert!(
                matches!(reply, Reply::Subscribed) && fanout.is_none(),
                "step {step}"
            );
            assert_eq!(host.subscribers_of(d1), addrs(of_d1), "step {step}");
            assert_eq!(host.subscribers.lock().len(), watched, "step {step}");
        }
    }

    #[test]
    fn revoke_originates_one_event_per_subscriber() {
        let f = fx();
        let host = host_at(&f, "home");
        let cert = f.cert("r");
        let revoked = event(cert.id(), InvalidationReason::Revoked);
        host.wallet().publish(cert.clone(), vec![]).unwrap();
        for peer in ["c1", "c2", "c3"] {
            host.handle(sub(cert.id(), peer));
        }
        host.handle(sub(DelegationId([9; 32]), "bystander"));

        let (reply, fanout) = host.handle(f.revoke(&cert));
        assert!(matches!(reply, Reply::Revoked(_)));
        let owed = Fanout {
            targets: addrs(&["c1", "c2", "c3"]),
            event: revoked,
        };
        assert_eq!(fanout, Some(owed.clone()));
        // Its own event is not taken back in, nor announced twice —
        // but a caller that knows the event is its own gets the targets.
        assert_eq!(host.relay(revoked), None);
        assert_eq!(host.originate_once(revoked), None);
        assert_eq!(host.originate(revoked), owed);
        // A refused revocation owes nothing.
        let (reply, fanout) = host.handle(f.revoke(&f.cert("other")));
        assert!(reply.is_error() && fanout.is_none());
    }

    /// Two hosts subscribed to each other: the relay guard applies and
    /// cascades each event once per host, so the ping-pong terminates.
    #[test]
    fn mutually_subscribed_hosts_relay_once_and_terminate() {
        let f = fx();
        let hosts = HashMap::from([("w1", host_at(&f, "w1")), ("w2", host_at(&f, "w2"))]);
        let (w1, w2) = (&hosts["w1"], &hosts["w2"]);
        let cert = f.cert("r");
        w1.wallet().publish(cert.clone(), vec![]).unwrap();
        w2.wallet()
            .absorb_proof(&proof_of(&cert), &"w1".into())
            .unwrap();
        w1.handle(sub(cert.id(), "w2"));
        w2.handle(sub(cert.id(), "w1"));
        let (m, r) = (Node::entity(&f.m), Node::role(f.a.role("r")));
        let monitor = w2.wallet().query_direct(&m, &r, &[]).unwrap();

        let mut in_flight: Vec<Fanout> = w1.handle(f.revoke(&cert)).1.into_iter().collect();
        let mut delivered = Vec::new();
        while let Some(Fanout { targets, event }) = in_flight.pop() {
            for to in targets {
                assert!(delivered.len() < 8, "push ping-pong: {delivered:?}");
                in_flight.extend(hosts[to.as_str()].relay(event));
                delivered.push(to);
            }
        }
        // w1 → w2 (applied, cascaded back) → w1 (its own event: dropped).
        assert_eq!(delivered, ["w2".into(), "w1".into()]);
        assert!(!monitor.is_valid(), "the relayed push reached w2's monitor");
        assert!(w2.wallet().is_revoked(cert.id()));
    }

    #[test]
    fn expiry_sweep_originates_like_a_revocation() {
        let f = fx();
        let host = host_at(&f, "home");
        let short = (f.a)
            .delegate(Node::entity(&f.m), Node::role(f.a.role("short")))
            .expires(Timestamp(5))
            .sign(&f.a)
            .unwrap();
        host.wallet().publish(short.clone(), vec![]).unwrap();
        host.wallet().publish(f.cert("forever"), vec![]).unwrap();
        host.handle(sub(short.id(), "cache"));

        assert_eq!(host.process_expiries(), [], "nothing has lapsed yet");
        f.clock.advance(Ticks(10));
        let owed = Fanout {
            targets: addrs(&["cache"]),
            event: event(short.id(), InvalidationReason::Expired),
        };
        assert_eq!(host.process_expiries(), [owed]);
        assert_eq!(host.process_expiries(), [], "swept once");
    }

    /// On a lazily booted indexed wallet the sweep finds what lapsed in
    /// the index's expiry range: it owes the same push and pulls nothing
    /// else of the wallet off disk.
    #[test]
    fn expiry_sweep_of_a_lazily_booted_wallet_hydrates_nothing() {
        let f = fx();
        let store = Arc::new(WalletStore::in_memory());
        let index = Arc::new(DelegationIndex::open(Box::new(MemTable::new())).unwrap());
        let short = (f.a)
            .delegate(Node::entity(&f.m), Node::role(f.a.role("short")))
            .expires(Timestamp(5))
            .sign(&f.a)
            .unwrap();
        {
            let (w, _) = DurableWallet::open("home", f.clock.clone(), Arc::clone(&store)).unwrap();
            w.attach_index(Arc::clone(&index));
            w.publish(short.clone(), vec![]).unwrap();
            for role in ["r1", "r2", "r3"] {
                w.publish(f.cert(role), vec![]).unwrap();
            }
        }
        let (wallet, boot) =
            DurableWallet::open_indexed("home", f.clock.clone(), store, index).unwrap();
        assert!(boot.lazy && wallet.is_empty(), "nothing hydrated at boot");
        let host = HostCore::new(wallet.wallet().clone());
        host.handle(sub(short.id(), "cache"));

        f.clock.advance(Ticks(10));
        let full_hydrations = || {
            drbac_obs::global()
                .counter("drbac.index.hydrate.full.count")
                .get()
        };
        let before = full_hydrations();
        let owed = Fanout {
            targets: addrs(&["cache"]),
            event: event(short.id(), InvalidationReason::Expired),
        };
        assert_eq!(host.process_expiries(), [owed]);
        assert_eq!(full_hydrations(), before, "the sweep hydrated the wallet");
        assert!(wallet.is_empty());
    }

    /// Answers `FetchDelegation` from a script (`Ok(true)` = still
    /// vouched for) and records every request kind it was sent.
    struct Scripted {
        vouched: HashMap<DelegationId, Result<bool, NetError>>,
        log: Mutex<Vec<&'static str>>,
    }

    impl Transport for Scripted {
        fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError> {
            assert_eq!(to.as_str(), "home");
            self.log.lock().push(req.kind());
            match req {
                Request::Subscribe { .. } => Ok(Reply::Subscribed),
                // Any credential will do: only `Some` is read.
                Request::FetchDelegation(id) => self.vouched[&id].clone().map(|vouched| {
                    Reply::Delegation(vouched.then(|| Arc::new(fx().cert("vouched"))))
                }),
                other => panic!("unexpected request {other}"),
            }
        }
    }

    /// Refreshed / disowned / unreachable, without and with the
    /// resubscribe step (TTL refresh vs. reconnect recovery).
    #[test]
    fn revalidation_refreshes_drops_and_keeps() {
        for resubscribe in [false, true] {
            let f = fx();
            let host = host_at(&f, "cache");
            let (keep, lose, dark) = (f.cert("keep"), f.cert("lose"), f.cert("dark"));
            for cert in [&keep, &lose, &dark] {
                host.wallet()
                    .absorb_proof(&proof_of(cert), &"home".into())
                    .unwrap();
            }
            host.handle(sub(lose.id(), "downstream"));
            f.clock.advance(Ticks(11));
            assert_eq!(host.wallet().stale_entries().len(), 3);

            let transport = Scripted {
                vouched: HashMap::from([
                    (keep.id(), Ok(true)),
                    (lose.id(), Ok(false)),
                    (dark.id(), Err(NetError::Timeout("home".into()))),
                ]),
                log: Mutex::new(Vec::new()),
            };
            let me: WalletAddr = "cache".into();
            let mut pushed = Vec::new();
            let done = host.revalidate(
                &transport,
                &RetryPolicy::none(),
                resubscribe.then_some(&me),
                [&keep, &lose, &dark].map(|c| (c.id(), "home".into())),
                |fanout| pushed.push(fanout),
            );
            let resubscribed = if resubscribe { 3 } else { 0 };
            assert_eq!(
                done,
                Revalidated {
                    resubscribed,
                    refreshed: 1,
                    dropped: 1
                }
            );
            let per_entry: &[&str] = match resubscribe {
                true => &["subscribe", "fetch-delegation"],
                false => &["fetch-delegation"],
            };
            assert_eq!(
                *transport.log.lock(),
                per_entry.repeat(3),
                "entry by entry, in order"
            );

            // Refreshed: TTL window restarted. Unreachable: kept, still stale.
            assert_eq!(host.wallet().stale_entries(), [dark.id()]);
            assert!(host.wallet().cache_entry(keep.id()).is_some());
            // Disowned: a local `Expired` event, cascaded to our own subscriber.
            assert!(!host.wallet().contains(lose.id()));
            assert!(host.wallet().cache_entry(lose.id()).is_none());
            let expired = event(lose.id(), InvalidationReason::Expired);
            assert_eq!(
                pushed,
                [Fanout {
                    targets: addrs(&["downstream"]),
                    event: expired
                }]
            );
            assert_eq!(
                host.relay(expired),
                None,
                "our own event is not relayed back"
            );
        }
    }
}
