//! Protected resources and monitored access sessions.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use drbac_core::{AttrConstraint, AttrSummary, Node, Role, Timestamp, WalletAddr};
use drbac_net::proto::{Reply, Request};
use drbac_net::{DiscoveryAgent, RetryPolicy, Transport};
use drbac_wallet::{MonitorStatus, ProofMonitor, Wallet};

/// Errors from authorization attempts.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessError {
    /// No satisfying proof exists (locally or via discovery).
    Denied {
        /// The principal that was refused.
        principal: String,
        /// The role the resource requires.
        required: String,
    },
    /// The principal's home wallet could not be reached within the retry
    /// budget, or did not acknowledge the subscriptions that keep the
    /// session coherent, so the gate could not be evaluated either way.
    Unreachable {
        /// The home wallet's address.
        home: String,
        /// What went wrong.
        error: String,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::Denied {
                principal,
                required,
            } => {
                write!(
                    f,
                    "access denied: no proof that {principal} holds {required}"
                )
            }
            AccessError::Unreachable { home, error } => {
                write!(f, "home wallet {home} unreachable: {error}")
            }
        }
    }
}

impl std::error::Error for AccessError {}

/// A resource registered behind a dRBAC role.
///
/// # Example
///
/// ```
/// use drbac_core::{LocalEntity, Node, SimClock};
/// use drbac_crypto::SchnorrGroup;
/// use drbac_disco::ProtectedResource;
/// use drbac_wallet::Wallet;
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(121);
/// # let g = SchnorrGroup::test_256();
/// let airnet = LocalEntity::generate("AirNet", g.clone(), &mut rng);
/// let maria = LocalEntity::generate("Maria", g, &mut rng);
/// let wallet = Wallet::new("server", SimClock::new());
/// wallet.publish(
///     airnet.delegate(Node::entity(&maria), Node::role(airnet.role("access"))).sign(&airnet)?,
///     vec![],
/// )?;
///
/// let resource = ProtectedResource::new("internet-uplink", airnet.role("access"), wallet);
/// let session = resource.authorize(&Node::entity(&maria))?;
/// assert!(session.is_active());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProtectedResource {
    name: String,
    required_role: Role,
    constraints: Vec<AttrConstraint>,
    wallet: Wallet,
}

impl ProtectedResource {
    /// Registers a resource requiring `role`, authorized against
    /// `wallet`.
    pub fn new(name: impl Into<String>, role: Role, wallet: Wallet) -> Self {
        ProtectedResource {
            name: name.into(),
            required_role: role,
            constraints: Vec::new(),
            wallet,
        }
    }

    /// Adds an attribute constraint every session must satisfy.
    pub fn with_constraint(mut self, c: AttrConstraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// The resource name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The role required for access.
    pub fn required_role(&self) -> &Role {
        &self.required_role
    }

    /// Authorizes `principal` against the local wallet only.
    ///
    /// # Errors
    ///
    /// [`AccessError::Denied`] when no satisfying proof exists.
    pub fn authorize(&self, principal: &Node) -> Result<AccessSession, AccessError> {
        let monitor = self
            .wallet
            .query_direct(
                principal,
                &Node::role(self.required_role.clone()),
                &self.constraints,
            )
            .ok_or_else(|| self.denied(principal))?;
        Ok(self.session(principal, monitor))
    }

    /// Authorizes `principal`, running tag-directed distributed discovery
    /// if the local wallet cannot prove the relationship.
    ///
    /// # Errors
    ///
    /// [`AccessError::Denied`] when discovery also fails.
    pub fn authorize_with_discovery(
        &self,
        principal: &Node,
        agent: &mut DiscoveryAgent,
    ) -> Result<AccessSession, AccessError> {
        let outcome = agent.discover(
            principal,
            &Node::role(self.required_role.clone()),
            &self.constraints,
        );
        let monitor = outcome.monitor.ok_or_else(|| self.denied(principal))?;
        Ok(self.session(principal, monitor))
    }

    /// Authorizes `principal` against its home wallet `home`, reached
    /// over `transport`: one direct query under `retry`, carrying the
    /// resource's constraints. The resource's own wallet re-validates
    /// every returned proof, never trusting the home's word, and the
    /// first that answers this query opens the session. A subscription
    /// at `home` for each of that proof's delegations lets a later
    /// revocation there push to this wallet and end the session.
    ///
    /// # Errors
    ///
    /// [`AccessError::Denied`] when no returned proof answers the query
    /// here; [`AccessError::Unreachable`] when `home` cannot be reached
    /// within the retry budget or does not acknowledge every
    /// subscription. The subscriptions it did acknowledge are then
    /// withdrawn with one best-effort `Unsubscribe` each.
    pub fn authorize_remote(
        &self,
        principal: &Node,
        transport: &dyn Transport,
        home: &WalletAddr,
        retry: &RetryPolicy,
    ) -> Result<AccessSession, AccessError> {
        let unreachable = |error: String| AccessError::Unreachable {
            home: home.to_string(),
            error,
        };
        let ask = |req: Request| {
            let outcome = retry.run(transport, home, &req);
            outcome.reply.map_err(|e| unreachable(e.to_string()))
        };
        let object = Node::role(self.required_role.clone());
        let proofs = match ask(Request::DirectQuery {
            subject: principal.clone(),
            object: object.clone(),
            constraints: self.constraints.clone(),
        })? {
            Reply::Proofs(proofs) => proofs,
            other => return Err(unreachable(format!("bad reply {other:?}"))),
        };
        let monitor = proofs
            .into_iter()
            .find_map(|proof| {
                self.wallet
                    .monitor_external_proof(proof, principal, &object, &self.constraints)
                    .ok()
            })
            .ok_or_else(|| self.denied(principal))?;
        let subscriber = self.wallet.addr();
        let mut acknowledged = Vec::new();
        for delegation in monitor.proof().delegation_ids() {
            let failure = match ask(Request::Subscribe {
                delegation,
                subscriber: subscriber.clone(),
            }) {
                Ok(Reply::Subscribed) => {
                    acknowledged.push(delegation);
                    continue;
                }
                Ok(other) => unreachable(format!("subscribe answered {other:?}")),
                Err(e) => e,
            };
            for delegation in acknowledged {
                let _ = transport.request(
                    home,
                    Request::Unsubscribe {
                        delegation,
                        subscriber: subscriber.clone(),
                    },
                );
            }
            return Err(failure);
        }
        Ok(self.session(principal, monitor))
    }

    fn denied(&self, principal: &Node) -> AccessError {
        AccessError::Denied {
            principal: principal.to_string(),
            required: self.required_role.to_string(),
        }
    }

    fn session(&self, principal: &Node, monitor: ProofMonitor) -> AccessSession {
        AccessSession {
            resource: self.name.clone(),
            principal: principal.clone(),
            granted: monitor.summary().clone(),
            started_at: self.wallet.now(),
            monitor,
        }
    }
}

/// A self-healing session: when its authorizing proof is invalidated, it
/// immediately tries to re-authorize through any alternate delegation
/// path, and failing that registers a pending-proof watch so service
/// resumes the moment a new path is published.
///
/// This composes the paper's two recovery mechanisms (§4.2.2): "the
/// entity can request an alternate proof", and "if the wallet initially
/// cannot provide a proof ... register a callback that will be activated
/// when such a proof is available".
#[derive(Debug, Clone)]
pub struct ResilientSession {
    driver: Arc<SessionDriver>,
}

#[derive(Debug)]
struct SessionDriver {
    resource: ProtectedResource,
    principal: Node,
    current: parking_lot::Mutex<Option<AccessSession>>,
    /// How many times the session has been (re-)established.
    generation: std::sync::atomic::AtomicU64,
}

impl ResilientSession {
    /// `true` while some authorizing proof is valid.
    pub fn is_active(&self) -> bool {
        self.driver
            .current
            .lock()
            .as_ref()
            .is_some_and(|s| s.is_active())
    }

    /// How many times the session has been established (1 = initial).
    pub fn generation(&self) -> u64 {
        self.driver.generation.load(Ordering::SeqCst)
    }

    /// The current grants, while active.
    pub fn grants(&self) -> Option<AttrSummary> {
        let guard = self.driver.current.lock();
        guard
            .as_ref()
            .filter(|s| s.is_active())
            .map(|s| s.grants().clone())
    }
}

impl SessionDriver {
    /// Installs `session` as current and arms re-establishment on its
    /// invalidation.
    fn arm(self: &Arc<Self>, session: AccessSession) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        let monitor = session.monitor().clone();
        *self.current.lock() = Some(session);
        let driver = Arc::clone(self);
        monitor.on_invalidate(move |_| driver.reestablish());
    }

    /// Tries an alternate path now; otherwise waits for one.
    fn reestablish(self: &Arc<Self>) {
        match self.resource.authorize(&self.principal) {
            Ok(session) => self.arm(session),
            Err(_) => {
                let driver = Arc::clone(self);
                let wallet = self.resource.wallet.clone();
                wallet.watch_for_proof(
                    self.principal.clone(),
                    Node::role(self.resource.required_role.clone()),
                    self.resource.constraints.clone(),
                    move |monitor| {
                        let session = driver.resource.session(&driver.principal, monitor);
                        driver.arm(session);
                    },
                );
            }
        }
    }
}

impl ProtectedResource {
    /// Authorizes `principal` with automatic re-establishment across
    /// revocations (see [`ResilientSession`]).
    ///
    /// # Errors
    ///
    /// [`AccessError::Denied`] if no proof exists *now* (the resilient
    /// machinery only takes over once a session exists).
    pub fn authorize_resilient(&self, principal: &Node) -> Result<ResilientSession, AccessError> {
        let session = self.authorize(principal)?;
        let driver = Arc::new(SessionDriver {
            resource: self.clone(),
            principal: principal.clone(),
            current: parking_lot::Mutex::new(None),
            generation: std::sync::atomic::AtomicU64::new(0),
        });
        driver.arm(session);
        Ok(ResilientSession { driver })
    }
}

/// A granted, continuously monitored access session.
///
/// The session terminates automatically (and [`AccessSession::is_active`]
/// flips to `false`) the moment any delegation in its authorizing proof
/// is revoked or expires — the paper's prolonged-interaction guarantee.
#[derive(Debug, Clone)]
pub struct AccessSession {
    resource: String,
    principal: Node,
    granted: AttrSummary,
    started_at: Timestamp,
    monitor: ProofMonitor,
}

impl AccessSession {
    /// The resource being accessed.
    pub fn resource(&self) -> &str {
        &self.resource
    }

    /// The accessing principal.
    pub fn principal(&self) -> &Node {
        &self.principal
    }

    /// Effective attribute values granted at establishment (e.g. the
    /// paper's BW = 100, storage = 30, hours = 18).
    pub fn grants(&self) -> &AttrSummary {
        &self.granted
    }

    /// When the session began.
    pub fn started_at(&self) -> Timestamp {
        self.started_at
    }

    /// `true` while the authorizing proof remains valid.
    pub fn is_active(&self) -> bool {
        self.monitor.is_valid()
    }

    /// The underlying proof monitor.
    pub fn monitor(&self) -> &ProofMonitor {
        &self.monitor
    }

    /// Registers a callback fired when the session terminates.
    pub fn on_termination(&self, cb: impl Fn(&MonitorStatus) + Send + Sync + 'static) {
        self.monitor.on_invalidate(cb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::{
        AttrOp, DelegationId, LocalEntity, Proof, ProofStep, SignedRevocation, SimClock, Ticks,
    };
    use drbac_crypto::SchnorrGroup;
    use drbac_net::{FaultPlan, NetError, SimNet};
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicBool;

    struct Fx {
        airnet: LocalEntity,
        maria: LocalEntity,
        clock: SimClock,
        wallet: Wallet,
    }

    fn fx() -> Fx {
        let mut rng = StdRng::seed_from_u64(131);
        let g = SchnorrGroup::test_256();
        let clock = SimClock::new();
        Fx {
            airnet: LocalEntity::generate("AirNet", g.clone(), &mut rng),
            maria: LocalEntity::generate("Maria", g, &mut rng),
            wallet: Wallet::new("server", clock.clone()),
            clock,
        }
    }

    #[test]
    fn denied_without_credentials() {
        let f = fx();
        let resource = ProtectedResource::new("uplink", f.airnet.role("access"), f.wallet.clone());
        let err = resource.authorize(&Node::entity(&f.maria)).unwrap_err();
        assert!(matches!(err, AccessError::Denied { .. }));
        assert!(err.to_string().contains("access denied"));
    }

    #[test]
    fn session_reflects_revocation() {
        let f = fx();
        let cert = f
            .airnet
            .delegate(Node::entity(&f.maria), Node::role(f.airnet.role("access")))
            .sign(&f.airnet)
            .unwrap();
        f.wallet.publish(cert.clone(), vec![]).unwrap();
        let resource = ProtectedResource::new("uplink", f.airnet.role("access"), f.wallet.clone());
        let session = resource.authorize(&Node::entity(&f.maria)).unwrap();
        assert!(session.is_active());
        assert_eq!(session.resource(), "uplink");

        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        session.on_termination(move |status| {
            assert!(!status.is_valid());
            fired2.store(true, Ordering::SeqCst);
        });

        let revocation = SignedRevocation::revoke(&cert, &f.airnet, f.clock.now()).unwrap();
        f.wallet.revoke(&revocation).unwrap();
        assert!(!session.is_active());
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn constraints_gate_authorization() {
        let f = fx();
        let bw = f.airnet.attr("BW", AttrOp::Min);
        let cert = f
            .airnet
            .delegate(Node::entity(&f.maria), Node::role(f.airnet.role("access")))
            .with_attr(bw.clone(), 50.0)
            .unwrap()
            .sign(&f.airnet)
            .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();

        let generous = ProtectedResource::new("uplink", f.airnet.role("access"), f.wallet.clone())
            .with_constraint(AttrConstraint::at_least(bw.clone(), 50.0));
        assert!(generous.authorize(&Node::entity(&f.maria)).is_ok());

        let demanding = ProtectedResource::new("uplink", f.airnet.role("access"), f.wallet.clone())
            .with_constraint(AttrConstraint::at_least(bw, 51.0));
        assert!(demanding.authorize(&Node::entity(&f.maria)).is_err());
    }

    #[test]
    fn resilient_session_recovers_through_alternate_paths() {
        let f = fx();
        let access = f.airnet.role("access");
        let resource = ProtectedResource::new("uplink", access.clone(), f.wallet.clone());

        // Two independent grants exist up front.
        let direct = f
            .airnet
            .delegate(Node::entity(&f.maria), Node::role(access.clone()))
            .serial(1)
            .sign(&f.airnet)
            .unwrap();
        let backup = f
            .airnet
            .delegate(Node::entity(&f.maria), Node::role(access.clone()))
            .serial(2)
            .sign(&f.airnet)
            .unwrap();
        f.wallet.publish(direct.clone(), vec![]).unwrap();
        f.wallet.publish(backup.clone(), vec![]).unwrap();

        let session = resource
            .authorize_resilient(&Node::entity(&f.maria))
            .unwrap();
        assert!(session.is_active());
        assert_eq!(session.generation(), 1);

        // Kill whichever grant the session uses; it must re-establish on
        // the other immediately.
        let first = SignedRevocation::revoke(&direct, &f.airnet, f.clock.now()).unwrap();
        f.wallet.revoke(&first).unwrap();
        assert!(
            session.is_active(),
            "alternate path keeps the session alive"
        );
        assert_eq!(session.generation(), 2);

        // Kill the backup too: the session goes dormant...
        let second = SignedRevocation::revoke(&backup, &f.airnet, f.clock.now()).unwrap();
        f.wallet.revoke(&second).unwrap();
        assert!(!session.is_active());

        // ...and resumes when a new grant is published (pending-proof
        // watch).
        f.wallet
            .publish(
                f.airnet
                    .delegate(Node::entity(&f.maria), Node::role(access))
                    .serial(3)
                    .sign(&f.airnet)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        assert!(session.is_active(), "watch re-established the session");
        assert!(session.generation() >= 3);
        assert!(session.grants().is_some());
    }

    #[test]
    fn session_grants_expose_attr_summary() {
        let f = fx();
        let bw = f.airnet.attr("BW", AttrOp::Min);
        let cert = f
            .airnet
            .delegate(Node::entity(&f.maria), Node::role(f.airnet.role("access")))
            .with_attr(bw.clone(), 75.0)
            .unwrap()
            .sign(&f.airnet)
            .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();
        let resource = ProtectedResource::new("uplink", f.airnet.role("access"), f.wallet.clone());
        let session = resource.authorize(&Node::entity(&f.maria)).unwrap();
        assert_eq!(session.grants().get(&bw), Some(75.0));
    }

    fn entities() -> (LocalEntity, LocalEntity) {
        let mut rng = StdRng::seed_from_u64(101);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let b = LocalEntity::generate("B", g, &mut rng);
        (a, b)
    }

    fn proof_of(cert: drbac_core::SignedDelegation) -> Proof {
        Proof::from_steps(vec![ProofStep::new(cert)]).unwrap()
    }

    /// A home wallet that answers every role lookup with a fixed set of
    /// proofs — stands in for a buggy or compromised remote wallet that
    /// returns whatever it likes — and acknowledges subscriptions only
    /// if `subscribes`. It keeps the constraints each lookup carried.
    struct CannedProofs {
        proofs: Vec<Proof>,
        subscribes: bool,
        asked: Mutex<Vec<Vec<AttrConstraint>>>,
    }

    impl CannedProofs {
        fn new(proofs: Vec<Proof>) -> Self {
            CannedProofs {
                proofs,
                subscribes: true,
                asked: Mutex::new(Vec::new()),
            }
        }
    }

    impl Transport for CannedProofs {
        fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError> {
            match req {
                Request::DirectQuery { constraints, .. } => {
                    self.asked.lock().push(constraints);
                    Ok(Reply::Proofs(self.proofs.clone()))
                }
                _ if self.subscribes => Ok(Reply::Subscribed),
                _ => Err(NetError::Timeout(to.clone())),
            }
        }
    }

    #[test]
    fn remote_role_gate_survives_loss_and_closes_on_revocation() {
        let (a, b) = entities();
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), Ticks(1));
        let resp = net.add_host("resp.wallet", Wallet::new("resp.wallet", clock.clone()));
        let verifier = net
            .add_host("init.wallet", Wallet::new("init.wallet", clock.clone()))
            .wallet()
            .clone();
        let role = b.role("feed-subscriber");
        let cert = b
            .delegate(Node::entity(&a), Node::role(role.clone()))
            .sign(&b)
            .unwrap();
        resp.wallet().publish(cert.clone(), vec![]).unwrap();
        let resource = ProtectedResource::new("feed", role, verifier);

        // Lossy but not hopeless: the bounded retry rides it out
        // (seed 3 loses the first lookup attempt).
        net.set_fault_plan(Some(FaultPlan::seeded(3).with_request_loss(0.4)));
        let session = resource
            .authorize_remote(
                &Node::entity(&a),
                &net,
                &"resp.wallet".into(),
                &RetryPolicy::standard(),
            )
            .unwrap();
        assert!(session.is_active());
        net.set_fault_plan(None);

        // Revocation at the home wallet pushes to the resource's wallet
        // and ends the session through its monitor.
        let revocation = SignedRevocation::revoke(&cert, &b, clock.now()).unwrap();
        net.request(&"resp.wallet".into(), Request::Revoke(revocation))
            .unwrap();
        net.run_until_idle();
        assert!(!session.is_active(), "revocation push ended the session");

        // An unreachable home wallet is a distinct, retriable-later
        // error — not an authoritative role rejection.
        net.partition_host(&"resp.wallet".into());
        let err = resource.authorize_remote(
            &Node::entity(&a),
            &net,
            &"resp.wallet".into(),
            &RetryPolicy::standard(),
        );
        assert!(matches!(err, Err(AccessError::Unreachable { .. })));
    }

    #[test]
    fn remote_role_gate_rejects_proofs_for_wrong_endpoints() {
        let (a, b) = entities();
        let c = LocalEntity::generate("C", SchnorrGroup::test_256(), &mut StdRng::seed_from_u64(7));
        let verifier = Wallet::new("init.wallet", SimClock::new());
        let role = b.role("feed-subscriber");
        // Both proofs validate as chains, but neither binds *this*
        // principal to *this* role: one proves C holds the role, the
        // other proves A holds a different role.
        let wrong_subject = b
            .delegate(Node::entity(&c), Node::role(role.clone()))
            .sign(&b)
            .unwrap();
        let wrong_object = b
            .delegate(Node::entity(&a), Node::role(b.role("other-role")))
            .sign(&b)
            .unwrap();
        let transport = CannedProofs::new(vec![proof_of(wrong_subject), proof_of(wrong_object)]);
        let err = ProtectedResource::new("feed", role, verifier).authorize_remote(
            &Node::entity(&a),
            &transport,
            &"resp.wallet".into(),
            &RetryPolicy::none(),
        );
        assert!(matches!(err, Err(AccessError::Denied { .. })));
    }

    #[test]
    fn remote_role_gate_tries_later_proofs_when_first_fails_locally() {
        let (a, b) = entities();
        let clock = SimClock::new();
        let verifier = Wallet::new("init.wallet", clock.clone());
        let role = b.role("feed-subscriber");
        let cert1 = b
            .delegate(Node::entity(&a), Node::role(role.clone()))
            .serial(1)
            .sign(&b)
            .unwrap();
        let cert2 = b
            .delegate(Node::entity(&a), Node::role(role.clone()))
            .serial(2)
            .sign(&b)
            .unwrap();
        // The verifier knows the first delegation is revoked; the home
        // doesn't, and returns its stale proof first.
        verifier.publish(cert1.clone(), vec![]).unwrap();
        let revocation = SignedRevocation::revoke(&cert1, &b, clock.now()).unwrap();
        verifier.revoke(&revocation).unwrap();
        let transport = CannedProofs::new(vec![proof_of(cert1), proof_of(cert2)]);
        let session = ProtectedResource::new("feed", role, verifier)
            .authorize_remote(
                &Node::entity(&a),
                &transport,
                &"resp.wallet".into(),
                &RetryPolicy::none(),
            )
            .expect("the second, still-valid proof opens the gate");
        assert!(session.is_active());
    }

    /// A session whose home never acknowledges its coherence
    /// subscription would outlive a revocation there, so it never opens.
    #[test]
    fn remote_role_gate_refuses_when_subscription_unacknowledged() {
        let (a, b) = entities();
        let verifier = Wallet::new("init.wallet", SimClock::new());
        let role = b.role("feed-subscriber");
        let cert = b
            .delegate(Node::entity(&a), Node::role(role.clone()))
            .sign(&b)
            .unwrap();
        let transport = CannedProofs {
            subscribes: false,
            ..CannedProofs::new(vec![proof_of(cert)])
        };
        let result = ProtectedResource::new("feed", role, verifier).authorize_remote(
            &Node::entity(&a),
            &transport,
            &"resp.wallet".into(),
            &RetryPolicy::standard(),
        );
        assert!(
            matches!(result, Err(AccessError::Unreachable { .. })),
            "opened without a coherence subscription: {:?}",
            result.map(|s| s.is_active())
        );
    }

    /// A home that acknowledges the first subscription and times out the
    /// second is told to drop the first: the gate stays shut and leaves
    /// no subscription behind.
    #[test]
    fn remote_role_gate_withdraws_acknowledged_subscriptions_when_one_fails() {
        let (a, b) = entities();
        let verifier = Wallet::new("init.wallet", SimClock::new());
        let role = b.role("feed-subscriber");
        let first = b
            .delegate(Node::entity(&a), Node::role(b.role("staff")))
            .sign(&b)
            .unwrap();
        let second = b
            .delegate(Node::role(b.role("staff")), Node::role(role.clone()))
            .sign(&b)
            .unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(first), ProofStep::new(second)]).unwrap();
        let ids: Vec<DelegationId> = proof.delegation_ids().into_iter().collect();

        /// Answers the query with `proof`, acknowledges the first
        /// `Subscribe`, times out every later one, and records every
        /// `Unsubscribe`.
        struct FailsSecondSubscribe {
            proof: Proof,
            subscribes: Mutex<usize>,
            unsubscribed: Mutex<Vec<DelegationId>>,
        }
        impl Transport for FailsSecondSubscribe {
            fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError> {
                match req {
                    Request::DirectQuery { .. } => Ok(Reply::Proofs(vec![self.proof.clone()])),
                    Request::Subscribe { .. } => {
                        let mut n = self.subscribes.lock();
                        *n += 1;
                        if *n == 1 {
                            Ok(Reply::Subscribed)
                        } else {
                            Err(NetError::Timeout(to.clone()))
                        }
                    }
                    Request::Unsubscribe { delegation, .. } => {
                        self.unsubscribed.lock().push(delegation);
                        Ok(Reply::Subscribed)
                    }
                    other => panic!("unexpected request {other}"),
                }
            }
        }
        let transport = FailsSecondSubscribe {
            proof,
            subscribes: Mutex::new(0),
            unsubscribed: Mutex::new(Vec::new()),
        };
        let result = ProtectedResource::new("feed", role, verifier).authorize_remote(
            &Node::entity(&a),
            &transport,
            &"resp.wallet".into(),
            &RetryPolicy::none(),
        );
        assert!(matches!(result, Err(AccessError::Unreachable { .. })));
        assert_eq!(*transport.subscribes.lock(), 2);
        assert_eq!(*transport.unsubscribed.lock(), vec![ids[0]]);
    }

    #[test]
    fn remote_role_gate_checks_the_resources_constraints() {
        let (a, b) = entities();
        let verifier = Wallet::new("init.wallet", SimClock::new());
        let role = b.role("feed-subscriber");
        let bw = b.attr("BW", AttrOp::Min);
        let grant = |serial, value| {
            let cert = b
                .delegate(Node::entity(&a), Node::role(role.clone()))
                .serial(serial)
                .with_attr(bw.clone(), value)
                .unwrap()
                .sign(&b)
                .unwrap();
            proof_of(cert)
        };
        let (short, enough) = (grant(1, 40.0), grant(2, 60.0));
        let at_least_50 = AttrConstraint::at_least(bw.clone(), 50.0);
        let resource = ProtectedResource::new("feed", role.clone(), verifier)
            .with_constraint(at_least_50.clone());
        let authorize = |transport: &CannedProofs| {
            resource.authorize_remote(
                &Node::entity(&a),
                transport,
                &"resp.wallet".into(),
                &RetryPolicy::none(),
            )
        };

        let alone = CannedProofs::new(vec![short.clone()]);
        assert!(matches!(authorize(&alone), Err(AccessError::Denied { .. })));
        assert_eq!(
            *alone.asked.lock(),
            vec![vec![at_least_50]],
            "constraints travel"
        );

        let session = authorize(&CannedProofs::new(vec![short, enough]))
            .expect("the second proof meets the constraint");
        assert!(session.is_active());
        assert_eq!(session.grants().get(&bw), Some(60.0));
    }
}
