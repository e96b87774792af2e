//! Soak runners: execute a scenario schedule over a federation while
//! mirroring every event into the centralized [`Oracle`], and report
//! per-query equivalence, soundness, session termination, and latency.
//!
//! Two substrates run the *same* executor:
//!
//! * [`SimFederation`] — one [`WalletHost`] per org on a deterministic
//!   [`SimNet`], optionally composed with [`FaultPlan`] chaos plus a
//!   partition/heal and crash/restart cycle at schedule checkpoints.
//! * [`TcpFederation`] — one real [`WalletDaemon`] socket per org, a
//!   routed [`TcpTransport`], and per-daemon [`SubscriberLink`]s so
//!   revocation pushes reach the gateway over the wire.
//!
//! Delivery discipline: publishes/declarations/revocations are retried
//! until acknowledged; events that cannot reach a (partitioned) home
//! are *deferred* — held out of both the federation and the oracle —
//! and flushed after heal, so ground truth never diverges from what the
//! network actually accepted.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drbac_core::SimClock;
use drbac_core::{DelegationId, ProofValidator, Ticks, Timestamp, ValidationContext, WalletAddr};
use drbac_net::proto::{Reply, Request};
use drbac_net::{
    DiscoveryAgent, FaultPlan, NetError, RetryPolicy, SimNet, SubscriberLink, TcpConfig,
    TcpTransport, WalletDaemon, WalletHost,
};
use drbac_wallet::{DelegationEvent, InvalidationReason, ProofMonitor, Wallet};

use crate::generate::{Event, Scenario};
use crate::report::{fnv64, LatencySummary, QueryRecord, SoakReport};
use crate::Oracle;

/// How a SimNet soak run is perturbed.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Seeded request loss / latency jitter / timeout budget.
    pub faults: Option<FaultPlan>,
    /// Additionally run a partition→heal and a crash→restart cycle at
    /// 1/3, 1/2, and 2/3 of the schedule.
    pub chaos_cycle: bool,
}

impl RunConfig {
    /// A pristine network: every strict query must match the oracle
    /// with no degradation at all.
    pub fn fault_free() -> RunConfig {
        RunConfig::default()
    }

    /// The chaos posture: ≤8% seeded request loss, 1-tick jitter, plus
    /// the partition and crash cycle. Light enough that bounded retry
    /// absorbs individual losses; divergence is only tolerated on
    /// queries that self-report as degraded.
    pub fn chaos(seed: u64) -> RunConfig {
        RunConfig {
            faults: Some(
                FaultPlan::seeded(seed)
                    .with_request_loss(0.08)
                    .with_latency_jitter(Ticks(1)),
            ),
            chaos_cycle: true,
        }
    }
}

/// Rounds of bounded retry before a delivery is deferred.
const DELIVERY_ROUNDS: usize = 3;
/// Wall-clock budget for TCP push/termination settling.
const TCP_SETTLE: Duration = Duration::from_secs(3);

/// Polls `cond` until it holds or `timeout` lapses.
fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

/// The substrate seam the shared executor drives.
pub(crate) trait Substrate {
    /// One bounded-retry delivery attempt. `true` = acknowledged.
    fn try_deliver(&mut self, home: usize, req: &Request) -> bool;
    /// The long-lived gateway discovery agent.
    fn agent(&mut self) -> &mut DiscoveryAgent;
    /// Settles a just-acknowledged revocation: waits for its
    /// invalidation push to reach the gateway, returning the observed
    /// lag (ticks on SimNet, ns on TCP) and whether the push had to be
    /// recovered by pull-based revalidation.
    fn settle_revocation(&mut self, id: DelegationId) -> (Option<u64>, bool);
    /// Chaos checkpoint, called before each schedule index.
    fn checkpoint(&mut self, idx: usize, total: usize);
    /// Drains in-flight traffic (SimNet: run to idle).
    fn settle(&mut self);
    /// Blocks until `check` holds or a substrate-appropriate budget
    /// lapses (TCP pushes are asynchronous).
    fn await_terminations(&mut self, check: &mut dyn FnMut() -> bool);
    /// Pull-based recovery: revalidate the gateway's cache against the
    /// home wallets (the documented missed-push repair path).
    fn recovery_sweep(&mut self);
    /// `(total_messages, push_messages, timeouts)` if observable.
    fn net_stats(&self) -> (u64, u64, u64);
    /// Deliveries that needed more than one attempt so far.
    fn retried(&self) -> u64;
}

/// Builds the wire request for a non-query event.
fn request_of(ev: &Event) -> (usize, Request) {
    match ev {
        Event::Publish { home, cert } => (
            *home,
            Request::Publish {
                cert: Arc::clone(cert),
                supports: Vec::new(),
            },
        ),
        Event::Declare { home, decl } => (*home, Request::PublishDeclaration(decl.clone())),
        Event::Revoke {
            home, revocation, ..
        } => (*home, Request::Revoke(revocation.clone())),
        Event::Query(_) => unreachable!("queries are not deliveries"),
    }
}

/// The delivery-side state of an executing run: ground truth, the
/// deferred-event queue, and the revocation staleness accounting.
#[derive(Default)]
struct DeliveryState {
    oracle: Oracle,
    pending: VecDeque<Event>,
    lag_samples: Vec<u64>,
    push_repairs: usize,
}

/// One reliable delivery attempt: the oracle learns the event only if
/// the federation acknowledged it, and a delivered revocation settles
/// (push observed or repaired) before the schedule proceeds.
fn deliver<S: Substrate>(sub: &mut S, st: &mut DeliveryState, ev: &Event) -> bool {
    let (home, req) = request_of(ev);
    if !sub.try_deliver(home, &req) {
        return false;
    }
    st.oracle.apply(ev);
    if let Event::Revoke { id, .. } = ev {
        let (lag, repaired) = sub.settle_revocation(*id);
        if let Some(l) = lag {
            st.lag_samples.push(l);
        }
        if repaired {
            st.push_repairs += 1;
        }
    }
    true
}

/// Redelivers deferred events in order, stopping at the first that
/// still cannot reach its home.
fn flush<S: Substrate>(sub: &mut S, st: &mut DeliveryState) {
    while let Some(ev) = st.pending.front() {
        let ev = ev.clone();
        if deliver(sub, st, &ev) {
            st.pending.pop_front();
        } else {
            break;
        }
    }
}

/// Executes the schedule on `sub`, mirroring into the oracle.
pub(crate) fn execute<S: Substrate>(
    scenario: &Scenario,
    sub: &mut S,
    substrate: &str,
) -> SoakReport {
    let mut st = DeliveryState::default();
    let mut records: Vec<QueryRecord> = Vec::new();
    let mut monitors: Vec<(ProofMonitor, BTreeSet<DelegationId>)> = Vec::new();
    let mut unsound = 0usize;
    let total = scenario.schedule.len();

    for (idx, ev) in scenario.schedule.iter().enumerate() {
        sub.checkpoint(idx, total);
        flush(sub, &mut st);
        match ev {
            Event::Query(q) => {
                let t0 = Instant::now();
                let outcome = sub.agent().discover(&q.subject, &q.object, &q.constraints);
                let wall_ns = t0.elapsed().as_nanos() as u64;
                let oracle_granted = st.oracle.answer(q).is_some();
                let granted = outcome.found();
                let mut proof_digest = None;
                if let Some(monitor) = outcome.monitor {
                    let proof = monitor.proof().clone();
                    proof_digest = Some(fnv64(&proof.to_bytes()));
                    let sound = ProofValidator::new(ValidationContext::at(Timestamp(0)))
                        .validate(&proof)
                        .is_ok()
                        && proof.subject() == &q.subject
                        && proof.object() == &q.object
                        && (q.constraints.is_empty()
                            || proof
                                .accumulate()
                                .satisfies(&q.constraints, &st.oracle.graph().declarations()));
                    if !sound {
                        unsound += 1;
                    }
                    monitors.push((monitor, proof.delegation_ids()));
                }
                records.push(QueryRecord {
                    strict: q.strict,
                    granted,
                    oracle_granted,
                    degraded: outcome.degraded,
                    wallets_contacted: outcome.wallets_contacted.len(),
                    wall_ns,
                    proof_digest,
                });
            }
            delivery => {
                if st.pending.is_empty() && deliver(sub, &mut st, delivery) {
                    continue;
                }
                // Keep global order: everything behind a stuck delivery
                // waits with it until the network heals.
                st.pending.push_back(delivery.clone());
            }
        }
    }

    // Fire any remaining chaos checkpoints (heal included), then the
    // deferred tail must drain.
    sub.checkpoint(total, total);
    for _ in 0..DELIVERY_ROUNDS {
        flush(sub, &mut st);
        if st.pending.is_empty() {
            break;
        }
        sub.settle();
    }
    assert!(
        st.pending.is_empty(),
        "deferred deliveries still undeliverable after heal"
    );
    sub.settle();

    // Session termination: every monitor whose proof depends on a
    // revoked delegation must be dead — by push, or failing that by
    // the pull-based recovery sweep.
    let depends_on_revoked =
        |ids: &BTreeSet<DelegationId>| ids.iter().any(|id| st.oracle.is_revoked(*id));
    let expected_dead: Vec<&(ProofMonitor, BTreeSet<DelegationId>)> = monitors
        .iter()
        .filter(|(_, ids)| depends_on_revoked(ids))
        .collect();
    sub.await_terminations(&mut || expected_dead.iter().all(|(m, _)| !m.is_valid()));
    let alive_before_sweep = expected_dead.iter().filter(|(m, _)| m.is_valid()).count();
    if alive_before_sweep > 0 {
        sub.recovery_sweep();
        sub.settle();
    }
    let termination_failures = expected_dead.iter().filter(|(m, _)| m.is_valid()).count();
    let monitors_repaired = alive_before_sweep - termination_failures;
    let spurious_terminations = monitors
        .iter()
        .filter(|(m, ids)| !m.is_valid() && !depends_on_revoked(ids))
        .count();

    let (publishes, declarations, revocations, _) = scenario.counts();
    let (total_messages, push_messages, timeouts) = sub.net_stats();
    SoakReport {
        family: scenario.spec.family.name().to_string(),
        seed: scenario.spec.seed,
        substrate: substrate.to_string(),
        wallets: scenario.wallets(),
        publishes,
        declarations,
        revocations,
        records,
        unsound,
        monitors_opened: monitors.len(),
        monitors_expected_dead: expected_dead.len(),
        monitors_repaired: monitors_repaired + st.push_repairs,
        termination_failures,
        spurious_terminations,
        revocation_lag: LatencySummary::from_samples(st.lag_samples),
        total_messages,
        push_messages,
        timeouts,
        retried_ops: sub.retried(),
    }
}

/// A SimNet federation: one [`WalletHost`] per org plus the gateway
/// host whose wallet backs the long-lived discovery agent.
pub struct SimFederation {
    net: SimNet,
    clock: SimClock,
    hosts: Vec<WalletHost>,
    gateway: WalletHost,
    agent: DiscoveryAgent,
    chaos_cycle: bool,
    fired: [bool; 3],
    partition_target: usize,
    crash_target: usize,
    retried: u64,
}

impl SimFederation {
    /// Deploys `scenario`'s federation on a fresh [`SimNet`] under
    /// `cfg` (faults installed), without running the schedule yet.
    pub fn deploy(scenario: &Scenario, cfg: &RunConfig) -> SimFederation {
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), Ticks(1));
        let hosts: Vec<WalletHost> = (0..scenario.wallets())
            .map(|i| {
                let addr = Scenario::wallet_addr(i);
                net.add_host(addr.as_str(), Wallet::new(addr.as_str(), clock.clone()))
            })
            .collect();
        let gateway = net.add_host("fed.gateway", Wallet::new("fed.gateway", clock.clone()));
        let agent = DiscoveryAgent::new(net.clone(), &gateway, scenario.directory());
        net.set_fault_plan(cfg.faults.clone());
        let wallets = scenario.wallets();
        let partition_target = (scenario.spec.seed as usize) % wallets;
        let mut crash_target = (scenario.spec.seed as usize + wallets / 2) % wallets;
        if crash_target == partition_target && wallets > 1 {
            crash_target = (crash_target + 1) % wallets;
        }
        SimFederation {
            net,
            clock,
            hosts,
            gateway,
            agent,
            chaos_cycle: cfg.chaos_cycle,
            fired: [false; 3],
            partition_target,
            crash_target,
            retried: 0,
        }
    }

    /// The underlying network (e.g. for storage-discipline audits).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Logical addresses of every org wallet.
    pub fn host_addrs(&self) -> Vec<WalletAddr> {
        (0..self.hosts.len())
            .map(|i| Scenario::wallet_addr(i).as_str().into())
            .collect()
    }

    /// Runs the schedule and reports.
    pub fn soak(&mut self, scenario: &Scenario) -> SoakReport {
        let substrate = if self.chaos_cycle || self.net.stats().timeouts > 0 {
            "simnet+chaos"
        } else {
            "simnet"
        };
        execute(scenario, self, substrate)
    }

    fn addr(i: usize) -> WalletAddr {
        Scenario::wallet_addr(i).as_str().into()
    }
}

impl Substrate for SimFederation {
    fn try_deliver(&mut self, home: usize, req: &Request) -> bool {
        for round in 0..DELIVERY_ROUNDS {
            let out = RetryPolicy::standard().run(&self.net, &Self::addr(home), req);
            if round > 0 || out.attempts > 1 {
                self.retried += u64::from(out.attempts.saturating_sub(1)).max(u64::from(round > 0));
            }
            match out.reply {
                Ok(reply) if !reply.is_error() => return true,
                // A partitioned / crashed host: give up this round and
                // let the executor defer the delivery.
                _ if self.net.is_partitioned(&Self::addr(home)) => return false,
                _ => continue,
            }
        }
        false
    }

    fn agent(&mut self) -> &mut DiscoveryAgent {
        &mut self.agent
    }

    fn settle_revocation(&mut self, id: DelegationId) -> (Option<u64>, bool) {
        let t0 = self.clock.now().0;
        self.net.run_until_idle();
        let lag = self.clock.now().0 - t0;
        // Missed push (e.g. the subscribe RPC was lost earlier): the
        // gateway still holds the credential unrevoked. Recover through
        // the documented pull path — revalidate the cache at the homes.
        let mut repaired = false;
        if self.gateway.wallet().get(id).is_some() && !self.gateway.wallet().is_revoked(id) {
            self.gateway.resubscribe_cached(&self.net);
            self.net.run_until_idle();
            repaired = true;
        }
        (Some(lag), repaired)
    }

    fn checkpoint(&mut self, idx: usize, total: usize) {
        if !self.chaos_cycle {
            return;
        }
        if !self.fired[0] && idx >= total / 3 {
            self.fired[0] = true;
            self.net.partition_host(&Self::addr(self.partition_target));
        }
        if !self.fired[1] && idx >= total / 2 {
            self.fired[1] = true;
            self.net.heal_partitions();
            self.net.run_until_idle();
        }
        if !self.fired[2] && idx >= total * 2 / 3 {
            self.fired[2] = true;
            if let Some(store) = self.net.crash_host(&Self::addr(self.crash_target)) {
                self.net
                    .restart_host(&Self::addr(self.crash_target), &store)
                    .expect("journaled state replays");
            }
        }
    }

    fn settle(&mut self) {
        self.net.heal_partitions();
        self.net.run_until_idle();
    }

    fn await_terminations(&mut self, _check: &mut dyn FnMut() -> bool) {
        // Synchronous substrate: settle() already drained every push.
    }

    fn recovery_sweep(&mut self) {
        self.gateway.resubscribe_cached(&self.net);
        self.net.run_until_idle();
    }

    fn net_stats(&self) -> (u64, u64, u64) {
        let s = self.net.stats();
        (s.total_messages, s.push_messages, s.timeouts)
    }

    fn retried(&self) -> u64 {
        self.retried
    }
}

/// A real multi-daemon TCP federation: one [`WalletDaemon`] per org on
/// a loopback socket, a routed [`TcpTransport`], and one
/// [`SubscriberLink`] per daemon carrying revocation pushes back to the
/// gateway wallet.
pub struct TcpFederation {
    daemons: Vec<WalletDaemon>,
    transport: Arc<TcpTransport>,
    gateway: Wallet,
    links: Vec<SubscriberLink>,
    agent: DiscoveryAgent,
    retried: u64,
}

impl TcpFederation {
    /// Binds one daemon per org wallet on `127.0.0.1:0`, routes the
    /// transport, and opens the per-daemon push links.
    ///
    /// `_workers` is ignored: proof search is sequential. The parameter
    /// stays only because the benchmark harness calls
    /// `deploy(&scenario, None)` and its source is frozen.
    pub fn deploy(scenario: &Scenario, _workers: Option<usize>) -> Result<TcpFederation, NetError> {
        let clock = SimClock::new();
        let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
        let mut daemons = Vec::with_capacity(scenario.wallets());
        for i in 0..scenario.wallets() {
            let addr = Scenario::wallet_addr(i);
            let wallet = Wallet::new(addr.as_str(), clock.clone());
            let daemon = WalletDaemon::bind("127.0.0.1:0", wallet, TcpConfig::fast())
                .map_err(|e| NetError::Protocol(format!("bind daemon {i}: {e}")))?;
            transport.add_route(addr.as_str(), daemon.local_addr());
            daemons.push(daemon);
        }
        let gateway = Wallet::new("fed.gateway", clock.clone());
        let links = (0..daemons.len())
            .map(|i| {
                SubscriberLink::open(
                    Scenario::wallet_addr(i).as_str(),
                    gateway.clone(),
                    Arc::clone(&transport),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let agent = DiscoveryAgent::new(
            Arc::clone(&transport),
            gateway.clone(),
            scenario.directory(),
        );
        Ok(TcpFederation {
            daemons,
            transport,
            gateway,
            links,
            agent,
            retried: 0,
        })
    }

    /// Number of live daemons.
    pub fn daemons(&self) -> usize {
        self.daemons.len()
    }

    /// Runs the schedule and reports.
    pub fn soak(&mut self, scenario: &Scenario) -> SoakReport {
        execute(scenario, self, "tcp")
    }

    /// Closes every push link and daemon. Also runs on drop.
    pub fn shutdown(&mut self) {
        for link in &self.links {
            link.close();
        }
        for daemon in &self.daemons {
            daemon.shutdown();
        }
        self.transport.drain_pool();
    }
}

impl Drop for TcpFederation {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Substrate for TcpFederation {
    fn try_deliver(&mut self, home: usize, req: &Request) -> bool {
        let out = RetryPolicy::standard().run(
            self.transport.as_ref(),
            &Scenario::wallet_addr(home).as_str().into(),
            req,
        );
        self.retried += u64::from(out.attempts.saturating_sub(1));
        matches!(out.reply, Ok(ref r) if !matches!(r, Reply::Error(_)))
    }

    fn agent(&mut self) -> &mut DiscoveryAgent {
        &mut self.agent
    }

    fn settle_revocation(&mut self, id: DelegationId) -> (Option<u64>, bool) {
        // Only wait when the gateway actually caches the credential —
        // otherwise there is nothing stale to serve and no push due.
        if self.gateway.get(id).is_none() || self.gateway.is_revoked(id) {
            return (None, false);
        }
        let t0 = Instant::now();
        let pushed = wait_until(TCP_SETTLE, || self.gateway.is_revoked(id));
        let lag = t0.elapsed().as_nanos() as u64;
        if pushed {
            return (Some(lag), false);
        }
        // Push never arrived (link died mid-flight): apply the
        // invalidation locally so the run cannot serve stale grants,
        // and report it as a repair.
        self.gateway.push_event(DelegationEvent {
            delegation: id,
            reason: InvalidationReason::Revoked,
        });
        (Some(lag), true)
    }

    fn checkpoint(&mut self, _idx: usize, _total: usize) {}

    fn settle(&mut self) {}

    fn await_terminations(&mut self, check: &mut dyn FnMut() -> bool) {
        wait_until(TCP_SETTLE, check);
    }

    fn recovery_sweep(&mut self) {
        // TCP pushes ride reliable links; missed pushes were already
        // repaired inline by settle_revocation.
    }

    fn net_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    fn retried(&self) -> u64 {
        self.retried
    }
}

/// Deploys and soaks `scenario` on SimNet under `cfg`.
pub fn run_simnet(scenario: &Scenario, cfg: &RunConfig) -> SoakReport {
    SimFederation::deploy(scenario, cfg).soak(scenario)
}

/// Deploys and soaks `scenario` on a real TCP daemon federation.
pub fn run_tcp(scenario: &Scenario) -> Result<SoakReport, NetError> {
    let mut fed = TcpFederation::deploy(scenario, None)?;
    let report = fed.soak(scenario);
    fed.shutdown();
    Ok(report)
}
