//! The wallet host: the one place request semantics live.
//!
//! The paper has one wallet behaviour — publish and the three query
//! forms (§4.1), delegation subscriptions with push invalidation
//! (§4.2.2) — and this module is its only implementation in the crate:
//! [`handle`] answers every [`Request`] against a [`Wallet`], and
//! [`revalidate`] re-checks cached credentials at their sources. Neither
//! keeps state of its own. A `Subscribe` makes the subscriber a
//! dependent in the wallet's own index, reached through the serving
//! host's [`PushSink`] (the simulator enqueues [`crate::SimNet`]
//! messages, the TCP daemon writes push frames down its subscriber
//! links), so every death fans out from [`Wallet::push_event`] —
//! whatever path killed the credential, and once.

use std::sync::Arc;

use drbac_core::WalletAddr;
use drbac_wallet::{CacheEntry, DelegationEvent, InvalidationReason, PushSink, Wallet};

use crate::proto::{Reply, Request};
use crate::transport::{RetryPolicy, Transport};

/// What one [`revalidate`] pass did.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Revalidated {
    /// Push subscriptions the source acknowledged.
    pub resubscribed: usize,
    /// Entries the source still vouches for (TTL window restarted).
    pub refreshed: usize,
    /// Entries the source disowned (invalidated locally).
    pub dropped: usize,
}

/// Answers one request against `wallet`; `sink` is the serving host's.
pub(crate) fn handle<S: PushSink + 'static>(wallet: &Wallet, sink: &Arc<S>, req: Request) -> Reply {
    match req {
        Request::DirectQuery {
            subject,
            object,
            constraints,
        } => match wallet.find_proof(&subject, &object, &constraints) {
            Some(p) => Reply::Proofs(vec![p]),
            None => Reply::Proofs(vec![]),
        },
        Request::SubjectQuery {
            subject,
            constraints,
        } => Reply::Proofs(wallet.query_subject(&subject, &constraints)),
        Request::ObjectQuery {
            object,
            constraints,
        } => Reply::Proofs(wallet.query_object(&object, &constraints)),
        Request::Publish { cert, supports } => match wallet.publish(cert, supports) {
            Ok(id) => Reply::Published(id),
            Err(e) => Reply::Error(e.to_string()),
        },
        Request::PublishDeclaration(decl) => match wallet.publish_declaration(&decl) {
            Ok(()) => Reply::DeclarationPublished,
            Err(e) => Reply::Error(e.to_string()),
        },
        Request::Subscribe {
            delegation,
            subscriber,
        } => {
            wallet.subscribe_remote(
                delegation,
                subscriber,
                Arc::clone(sink) as Arc<dyn PushSink>,
            );
            Reply::Subscribed
        }
        Request::Unsubscribe {
            delegation,
            subscriber,
        } => {
            wallet.unsubscribe_remote(delegation, &subscriber, &**sink);
            Reply::Subscribed
        }
        // Counts local notifications; remote ones leave through sinks.
        Request::Revoke(revocation) => match wallet.revoke(&revocation) {
            Ok(delivered) => Reply::Revoked(delivered),
            Err(e) => Reply::Error(e.to_string()),
        },
        Request::FetchDeclarations => Reply::Declarations(wallet.signed_declarations()),
        Request::FetchDelegation(id) => {
            let now = wallet.now();
            let live = wallet
                .get(id)
                .filter(|c| !wallet.is_revoked(id) && !c.delegation().is_expired(now));
            Reply::Delegation(live)
        }
        // A scrape needs the serving process's uptime, request and
        // link counts, which only a daemon has; simulated hosts
        // share one process and one global registry, so a per-host
        // answer would mislead.
        Request::Stats | Request::Health => {
            Reply::Error("stats/health are served by TCP daemons".into())
        }
    }
}

/// Revalidates the cached credentials of `wallet` that `which` selects
/// against the wallets they were fetched from, in id order: each is
/// re-fetched from its source over `transport` under `retry`. With
/// `resubscribe_as` set, the push subscription is re-registered under
/// that address first — the recovery step after a source restart,
/// whose volatile subscriptions silently forgot us. An entry the source still vouches for restarts
/// its TTL window; one it disowns is invalidated locally (an `Expired`
/// event); an unreachable source leaves the entry untouched — TTL
/// refresh remains the backstop.
pub(crate) fn revalidate(
    wallet: &Wallet,
    transport: &dyn Transport,
    retry: &RetryPolicy,
    resubscribe_as: Option<&WalletAddr>,
    which: impl Fn(&CacheEntry) -> bool,
) -> Revalidated {
    let mut done = Revalidated::default();
    let selected = wallet.cache_entries().into_iter().filter(|(_, e)| which(e));
    for (id, CacheEntry { source, .. }) in selected {
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
                wallet.mark_refreshed(id);
                done.refreshed += 1;
            }
            Ok(Reply::Delegation(None)) => {
                wallet.push_event(DelegationEvent {
                    delegation: id,
                    reason: InvalidationReason::Expired,
                });
                done.dropped += 1;
            }
            _ => {}
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NetError;
    use crate::testkit::{fx, proof_of, publish, Fx};
    use crate::wire::encode_reply;
    use drbac_core::{
        AttrDeclaration, AttrOp, DelegationId, Node, SignedAttrDeclaration, Ticks, Timestamp,
    };
    use drbac_index::{DelegationIndex, MemTable};
    use drbac_store::WalletStore;
    use drbac_wallet::DurableWallet;
    use parking_lot::Mutex;
    use std::collections::{BTreeSet, HashMap};

    /// A host's sink that records every push a wallet's fan-out hands it.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<(DelegationEvent, BTreeSet<WalletAddr>)>>);

    impl PushSink for Recorder {
        fn push(&self, event: DelegationEvent, targets: BTreeSet<WalletAddr>) {
            self.0.lock().push((event, targets));
        }
    }

    impl Recorder {
        /// The pushes recorded since the last call.
        fn owed(&self) -> Vec<(DelegationEvent, BTreeSet<WalletAddr>)> {
            std::mem::take(&mut *self.0.lock())
        }
    }

    /// A wallet at `addr` and the recording sink of the host serving it.
    fn host_at(f: &Fx, addr: &str) -> (Wallet, Arc<Recorder>) {
        (Wallet::new(addr, f.clock.clone()), Arc::default())
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

    fn short_lived(f: &Fx) -> drbac_core::SignedDelegation {
        (f.a)
            .delegate(Node::entity(&f.m), Node::role(f.a.role("short")))
            .expires(Timestamp(5))
            .sign(&f.a)
            .unwrap()
    }

    /// Every request kind against one wallet, in script order: each
    /// reply encodes to exactly the expected reply's bytes, and only an
    /// honoured revocation owes a push.
    #[test]
    fn every_request_kind_has_its_reply() {
        let f = fx();
        let (wallet, sink) = host_at(&f, "w");
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
            let reply = handle(&wallet, &sink, request);
            assert_eq!(
                encode_reply(&reply),
                encode_reply(&expected),
                "{what}: {reply:?}"
            );
            assert_eq!(sink.owed().len(), usize::from(owes_push), "{what}");
        }
    }

    #[test]
    fn registry_drops_a_delegation_when_its_last_subscriber_leaves() {
        let (wallet, sink) = host_at(&fx(), "w");
        let other: Arc<Recorder> = Arc::default();
        let (d1, d2) = (DelegationId([1; 32]), DelegationId([2; 32]));
        let watched = || {
            [d1, d2]
                .iter()
                .filter(|d| !wallet.remote_subscribers(**d, &*sink).is_empty())
                .count()
        };
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
        for (step, (request, of_d1, after)) in script.into_iter().enumerate() {
            // The same subscriber through another host is another entry,
            // which neither host's requests touch.
            handle(&wallet, &other, sub(d1, "a"));
            let reply = handle(&wallet, &sink, request);
            assert!(matches!(reply, Reply::Subscribed), "step {step}");
            assert_eq!(
                wallet.remote_subscribers(d1, &*sink),
                addrs(of_d1),
                "step {step}"
            );
            assert_eq!(watched(), after, "step {step}");
            assert_eq!(wallet.remote_subscribers(d1, &*other), addrs(&["a"]));
        }
        assert!(sink.owed().is_empty() && other.owed().is_empty());
    }

    /// Each subscriber is owed one push per death, through its own
    /// host's sink, and a later sighting of the event owes nobody.
    #[test]
    fn revoke_owes_one_push_per_subscriber() {
        let f = fx();
        let (wallet, sink) = host_at(&f, "home");
        let cert = f.cert("r");
        let revoked = event(cert.id(), InvalidationReason::Revoked);
        wallet.publish(cert.clone(), vec![]).unwrap();
        for peer in ["c3", "c1", "c2"] {
            handle(&wallet, &sink, sub(cert.id(), peer));
        }
        handle(&wallet, &sink, sub(DelegationId([9; 32]), "bystander"));

        let reply = handle(&wallet, &sink, f.revoke(&cert));
        assert!(
            matches!(reply, Reply::Revoked(0)),
            "remote pushes are not counted"
        );
        assert_eq!(sink.owed(), [(revoked, addrs(&["c1", "c2", "c3"]))]);
        // Its own event is not taken back in, nor announced twice: a
        // second sighting owes nobody.
        assert_eq!(wallet.push_event(revoked), 0);
        assert_eq!(sink.owed(), []);
        // A refused revocation owes nothing.
        let reply = handle(&wallet, &sink, f.revoke(&f.cert("other")));
        assert!(reply.is_error());
        assert_eq!(sink.owed(), []);
        assert_eq!(wallet.remote_subscribers(cert.id(), &*sink), addrs(&[]));
    }

    /// A subscription to an id already dead here registers nothing: the
    /// subscriber is pushed the death at once, whichever way it died. An
    /// id never held here registers as before.
    #[test]
    fn a_subscribe_after_the_death_is_pushed_the_death_at_once() {
        let f = fx();
        let (wallet, sink) = host_at(&f, "home");
        let (revoked, short) = (f.cert("r"), short_lived(&f));
        wallet.publish(revoked.clone(), vec![]).unwrap();
        wallet.publish(short.clone(), vec![]).unwrap();
        handle(&wallet, &sink, f.revoke(&revoked));
        f.clock.advance(Ticks(10));

        let reply = handle(&wallet, &sink, sub(revoked.id(), "late"));
        assert!(matches!(reply, Reply::Subscribed));
        let death = event(revoked.id(), InvalidationReason::Revoked);
        assert_eq!(sink.owed(), [(death, addrs(&["late"]))]);
        assert_eq!(wallet.remote_subscribers(revoked.id(), &*sink), addrs(&[]));

        // Lapsed but not yet swept: the sweep would find nobody.
        handle(&wallet, &sink, sub(short.id(), "late"));
        let death = event(short.id(), InvalidationReason::Expired);
        assert_eq!(sink.owed(), [(death, addrs(&["late"]))]);
        assert_eq!(wallet.process_expiries().0, [short.id()]);
        assert_eq!(sink.owed(), []);

        let unknown = DelegationId([7; 32]);
        handle(&wallet, &sink, sub(unknown, "late"));
        assert_eq!(sink.owed(), []);
        assert_eq!(wallet.remote_subscribers(unknown, &*sink), addrs(&["late"]));
    }

    /// Two wallets subscribed to each other: each death is taken once
    /// per wallet, so the ping-pong terminates.
    #[test]
    fn mutually_subscribed_wallets_push_once_and_terminate() {
        let f = fx();
        let sink: Arc<Recorder> = Arc::default();
        let wallets = HashMap::from([
            ("w1", Wallet::new("w1", f.clock.clone())),
            ("w2", Wallet::new("w2", f.clock.clone())),
        ]);
        let (w1, w2) = (&wallets["w1"], &wallets["w2"]);
        let cert = f.cert("r");
        w1.publish(cert.clone(), vec![]).unwrap();
        w2.absorb_proof(&proof_of(&cert), &"w1".into()).unwrap();
        handle(w1, &sink, sub(cert.id(), "w2"));
        handle(w2, &sink, sub(cert.id(), "w1"));
        let (m, r) = (Node::entity(&f.m), Node::role(f.a.role("r")));
        let monitor = w2.query_direct(&m, &r, &[]).unwrap();

        handle(w1, &sink, f.revoke(&cert));
        let mut delivered = Vec::new();
        loop {
            let Some((event, targets)) = sink.0.lock().pop() else {
                break;
            };
            for to in targets {
                assert!(delivered.len() < 8, "push ping-pong: {delivered:?}");
                wallets[to.as_str()].push_event(event);
                delivered.push(to);
            }
        }
        // w1 → w2 (applied, pushed back) → w1 (its own event: dropped).
        assert_eq!(delivered, ["w2".into(), "w1".into()]);
        assert!(!monitor.is_valid(), "the push reached w2's monitor");
        assert!(w2.is_revoked(cert.id()));
    }

    #[test]
    fn expiry_sweep_owes_pushes_like_a_revocation() {
        let f = fx();
        let (wallet, sink) = host_at(&f, "home");
        let short = short_lived(&f);
        wallet.publish(short.clone(), vec![]).unwrap();
        wallet.publish(f.cert("forever"), vec![]).unwrap();
        handle(&wallet, &sink, sub(short.id(), "cache"));

        wallet.process_expiries();
        assert_eq!(sink.owed(), [], "nothing has lapsed yet");
        f.clock.advance(Ticks(10));
        let expired = event(short.id(), InvalidationReason::Expired);
        assert_eq!(wallet.process_expiries().0, [short.id()]);
        assert_eq!(sink.owed(), [(expired, addrs(&["cache"]))]);
        assert_eq!(wallet.process_expiries().0, [], "swept once");
        assert_eq!(sink.owed(), []);
    }

    /// On a lazily booted indexed wallet the sweep finds what lapsed in
    /// the index's expiry range: it owes the same push and pulls nothing
    /// else of the wallet off disk.
    #[test]
    fn expiry_sweep_of_a_lazily_booted_wallet_hydrates_nothing() {
        let f = fx();
        let store = Arc::new(WalletStore::in_memory());
        let index = Arc::new(DelegationIndex::open(Box::new(MemTable::new())).unwrap());
        let short = short_lived(&f);
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
        let sink: Arc<Recorder> = Arc::default();
        handle(wallet.wallet(), &sink, sub(short.id(), "cache"));

        f.clock.advance(Ticks(10));
        let full_hydrations = || {
            drbac_obs::global()
                .counter("drbac.index.hydrate.full.count")
                .get()
        };
        let before = full_hydrations();
        let expired = event(short.id(), InvalidationReason::Expired);
        assert_eq!(wallet.process_expiries().0, [short.id()]);
        assert_eq!(sink.owed(), [(expired, addrs(&["cache"]))]);
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
            let (wallet, sink) = host_at(&f, "cache");
            let (keep, lose, dark) = (f.cert("keep"), f.cert("lose"), f.cert("dark"));
            for cert in [&keep, &lose, &dark] {
                wallet
                    .absorb_proof(&proof_of(cert), &"home".into())
                    .unwrap();
            }
            handle(&wallet, &sink, sub(lose.id(), "downstream"));
            f.clock.advance(Ticks(11));
            assert_eq!(wallet.stale_entries().len(), 3);

            let transport = Scripted {
                vouched: HashMap::from([
                    (keep.id(), Ok(true)),
                    (lose.id(), Ok(false)),
                    (dark.id(), Err(NetError::Timeout("home".into()))),
                ]),
                log: Mutex::new(Vec::new()),
            };
            let me: WalletAddr = "cache".into();
            let done = revalidate(
                &wallet,
                &transport,
                &RetryPolicy::none(),
                resubscribe.then_some(&me),
                |entry| entry.source.as_str() == "home",
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
            assert_eq!(wallet.stale_entries(), [dark.id()]);
            assert!(wallet.cache_entry(keep.id()).is_some());
            // Disowned: a local `Expired` event, pushed to our own subscriber.
            assert!(!wallet.contains(lose.id()));
            assert!(wallet.cache_entry(lose.id()).is_none());
            let expired = event(lose.id(), InvalidationReason::Expired);
            assert_eq!(sink.owed(), [(expired, addrs(&["downstream"]))]);
            assert_eq!(wallet.push_event(expired), 0);
            assert_eq!(sink.owed(), [], "our own event is not pushed again");
        }
    }
}
