//! `coalition_mix` — writes beside reads on one wallet: one strict
//! connection plus one `SubscriberLink`, closed loop, ROADMAP's mix:
//! 60% ladder queries, 10% queries on the client's own live publishes
//! (must grant: read-your-writes), 10% on its own revoked ones (must
//! deny), 10% `Publish`, 10% `Revoke` of its own earlier publishes.
//! Every tenth publish is tracked through the link, and revoking it
//! times the push: `Revoke` sent → the subscriber's wallet sees the
//! invalidation (the paper's §4.2.2 claim).
//!
//! `store` fsync, the `index` delta log, `wallet` publish/revoke and
//! cache invalidation dominate; a read-side gain that costs writes (or
//! the reverse) shows here and only here. When the run ends the daemon
//! is SIGKILLed and the home reopened: every acked publish must be
//! present and every acked revoke marked.

use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drbac::core::{DelegationId, Node, SignedDelegation, SignedRevocation, SimClock, Timestamp};
use drbac::net::proto::Request;
use drbac::net::SubscriberLink;
use drbac::wallet::Wallet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bench::{
    disk_metrics, end_to_end, ledger_for, measured, min_rounds, proof_metrics, remainder_metric,
    run_rounds, span_layer_metrics, trace_overhead, Config, Deployment, Outcome, ScrapeDelta,
};
use crate::catalogue::MetricSet;
use crate::client::{kind_metric, quantile_metric, timed_round, Kind, Oracle, Round, StrictConn};
use crate::deploy::{open_home, rss_mb, Daemon};
use crate::probes;
use crate::replay::{Pending, Replica};
use crate::stats::Metric;
use crate::trace::Tracer;
use crate::world::{Query, World};

/// Ops per round (~0.5 s on the reference box: the fsyncs set the pace).
const ROUND_OPS: usize = 1_500;
const LANE_MIX: u64 = 2;
/// Traced rounds replay every fourth read (and every write).
const REPLAY_EVERY: usize = 4;
/// The daemon's memory is read when this many rounds have run, so that
/// it does not grow with the number of rounds a fast machine fits in.
const RSS_AT_ROUND: u64 = 10;
/// How long a tracked revocation's push may take before it counts as lost.
const PUSH_DEADLINE: Duration = Duration::from_secs(2);

/// A delegation this client published: `[mix-s{n} → mix-o{n}] Owner`.
#[derive(Clone)]
struct Own {
    cert: Arc<SignedDelegation>,
    /// The direct query the certificate alone proves.
    query: Query,
    /// Subscribed through the link; its revocation times the push.
    tracked: bool,
}

enum Op {
    Query(Query),
    /// A query on one of the client's own publishes.
    QueryOwn(Query),
    Publish(Own),
    Revoke(Own, SignedRevocation),
}

/// The client's own publishes, as the plan (and, ack by ack, the
/// daemon) knows them.
#[derive(Default)]
struct Owned {
    live: Vec<Own>,
    revoked: Vec<Own>,
    published: u64,
}

impl Owned {
    /// Plans round `round`: `n` ops drawn from the mix. The plan
    /// assumes every write is acked; a refused write is a failure.
    fn plan(&mut self, world: &World, round: u64, n: usize) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(world.seed ^ (LANE_MIX << 40) ^ round);
        let ladder = world.stream(LANE_MIX, round, n);
        ladder
            .into_iter()
            .map(|ladder_query| match rng.gen_range(0..10u32) {
                6 if !self.live.is_empty() => {
                    Op::QueryOwn(self.live[rng.gen_range(0..self.live.len())].query.clone())
                }
                7 if !self.revoked.is_empty() => Op::QueryOwn(
                    self.revoked[rng.gen_range(0..self.revoked.len())]
                        .query
                        .clone(),
                ),
                8 => {
                    let own = self.mint(world);
                    self.live.push(own.clone());
                    Op::Publish(own)
                }
                9 if !self.live.is_empty() => {
                    let own = self.live.swap_remove(rng.gen_range(0..self.live.len()));
                    let revocation =
                        SignedRevocation::revoke(&own.cert, &world.owner, Timestamp(0))
                            .expect("the owner revokes its own delegation");
                    let mut denied = own.clone();
                    denied.query.expect_grant = false;
                    self.revoked.push(denied);
                    Op::Revoke(own, revocation)
                }
                _ => Op::Query(ladder_query),
            })
            .collect()
    }

    fn mint(&mut self, world: &World) -> Own {
        let n = self.published;
        self.published += 1;
        let subject = Node::role(world.owner.role(&format!("mix-s{n}")));
        let object = Node::role(world.owner.role(&format!("mix-o{n}")));
        let cert = world
            .owner
            .delegate(subject.clone(), object.clone())
            .sign(&world.owner)
            .expect("the owner signs its own roles");
        Own {
            cert: Arc::new(cert),
            query: Query {
                subject,
                object,
                expect_grant: true,
            },
            tracked: n.is_multiple_of(10),
        }
    }
}

/// The subscriber side: a local wallet fed by the push link.
struct Subscriber {
    wallet: Wallet,
    link: SubscriberLink,
    pushes: Receiver<(DelegationId, Instant)>,
    events: mpsc::Sender<(DelegationId, Instant)>,
}

impl Subscriber {
    fn open(dep: &Deployment, daemon: &Daemon) -> Result<Subscriber, String> {
        let wallet = Wallet::new("bench.subscriber", SimClock::new());
        let link = SubscriberLink::open(
            daemon.addr.clone(),
            wallet.clone(),
            Arc::clone(&dep.transport),
        )
        .map_err(|e| format!("subscriber link: {e}"))?;
        let (events, pushes) = mpsc::channel();
        Ok(Subscriber {
            wallet,
            link,
            pushes,
            events,
        })
    }

    /// Subscribes `id` at the daemon (one `Subscribe` request on the
    /// shared transport) and stamps its invalidation on arrival.
    fn track(&self, id: DelegationId) {
        let events = self.events.clone();
        self.wallet.subscribe(id, move |event| {
            let _ = events.send((event.delegation, Instant::now()));
        });
        self.link.track(id);
    }

    /// Waits for the push of `id`; `None` when it never arrives.
    fn await_push(&self, id: DelegationId, sent: Instant) -> Option<u64> {
        let deadline = sent + PUSH_DEADLINE;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            let (pushed, at) = self.pushes.recv_timeout(left).ok()?;
            if pushed == id {
                return Some(at.duration_since(sent).as_nanos() as u64);
            }
        }
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut dep = Deployment::set_up(cfg)?;
    let mut oracle = Oracle::default();
    let mut out = MetricSet::default();
    let mut tracer = cfg.trace.then(Tracer::new);
    let daemon = dep.boot_sampled(if cfg.quick { 2 } else { 5 })?;
    let subscriber = Subscriber::open(&dep, &daemon)?;
    let replica = match cfg.trace {
        true => Some(Replica::open(&dep.home, &dep.scratch("replica"), false)?),
        false => None,
    };
    let boot_scrape = daemon.scrape(&dep.transport)?;
    let deadline = cfg.deadline(Instant::now());

    let round_ops = cfg.scaled(ROUND_OPS, 100);
    let mut owned = Owned::default();
    // Writes the daemon acked, over the whole run and in the measured
    // window, and pushes that never came.
    let (mut acked, mut acked_window) = (0u64, 0u64);
    let mut window_start = None;
    let mut serve_rss_mb = None;
    let rounds = run_rounds(deadline, min_rounds(cfg.trace), cfg.trace, |idx, traced| {
        if idx == 1 {
            window_start = Some(daemon.scrape(&dep.transport)?);
        }
        if idx == RSS_AT_ROUND {
            serve_rss_mb = Some(rss_mb(Some(daemon.pid())));
        }
        // Planning signs this round's certificates and revocations:
        // client work, off the round's clock.
        let ops = owned.plan(&dep.world, idx, round_ops);
        let (round, pending, acks) = mix_round(
            &dep,
            &daemon,
            &subscriber,
            ops,
            if traced { tracer.as_mut() } else { None },
            replica.is_some(),
            &mut oracle,
        )?;
        acked += acks;
        if idx >= 1 {
            acked_window += acks;
        }
        oracle.validate_sampled();
        if let (Some(t), Some(r)) = (tracer.as_mut(), replica.as_ref()) {
            r.replay_round(pending, REPLAY_EVERY, t);
        }
        Ok(round)
    })?;
    let end_scrape = daemon.scrape(&dep.transport)?;
    let window = ScrapeDelta {
        before: window_start.expect("more than one round ran"),
        after: end_scrape.clone(),
    };
    let whole = ScrapeDelta {
        before: boot_scrape,
        after: end_scrape,
    };

    let mix = measured(&rounds);
    let serve_rss_mb = serve_rss_mb.unwrap_or_else(|| rss_mb(Some(daemon.pid())));
    end_to_end(&dep, &mix, &mix, serve_rss_mb, &mut out);

    out.push(kind_metric(
        "client.query_grant_p50_us",
        &mix,
        Kind::QueryGrant,
        0.5,
    ));
    out.push(kind_metric(
        "client.query_deny_p50_us",
        &mix,
        Kind::QueryDeny,
        0.5,
    ));
    out.push(kind_metric(
        "client.own_query_p50_us",
        &mix,
        Kind::QueryOwn,
        0.5,
    ));
    out.push(quantile_metric(
        "client.query_p999_us",
        &mix,
        0.999,
        Round::queries,
    ));
    out.push(kind_metric(
        "client.publish_p50_us",
        &mix,
        Kind::Publish,
        0.5,
    ));
    out.push(kind_metric(
        "client.publish_p99_us",
        &mix,
        Kind::Publish,
        0.99,
    ));
    out.push(kind_metric("client.revoke_p50_us", &mix, Kind::Revoke, 0.5));
    out.push(kind_metric(
        "client.revoke_p99_us",
        &mix,
        Kind::Revoke,
        0.99,
    ));
    out.push(kind_metric(
        "client.revocation_push_p50_us",
        &mix,
        Kind::Push,
        0.5,
    ));
    out.push(kind_metric(
        "client.revocation_push_p99_us",
        &mix,
        Kind::Push,
        0.99,
    ));
    if let (Some(first), Some(last)) = (mix.first(), mix.last()) {
        let p50 = |r: &Round| crate::stats::percentile(r.samples(Kind::Publish), 0.5) as f64;
        out.push(Metric::single(
            "client.publish_drift_ratio",
            "ratio",
            p50(last) / p50(first).max(1.0),
            2,
        ));
    }

    // Daemon-side counts over the measured window.
    window.daemon_metrics(&mut out);
    out.push(window.per_op(
        "wallet.cache_invalidated_per_write",
        "count",
        "drbac.graph.proof_cache.invalidated.count",
        acked_window,
    ));
    out.push(window.mean_metric("store.fsync_mean_ns", "drbac.store.fsync.ns"));
    out.push(window.per_op(
        "store.fsyncs_per_write",
        "count",
        "drbac.store.fsync.count",
        acked_window,
    ));
    out.push(window.per_op(
        "store.log_bytes_per_write",
        "B",
        "drbac.store.append.bytes.total",
        acked_window,
    ));
    // The deployment path is durable: one fsync per acked write, over
    // the whole life of this daemon.
    let fsyncs = whole.counter("drbac.store.fsync.count");
    if fsyncs != acked {
        oracle.fail(|| format!("{acked} writes were acked but the daemon fsynced {fsyncs} times"));
    }

    let mut ledgers = Vec::new();
    if let (Some(t), Some(r)) = (tracer.as_ref(), replica.as_ref()) {
        let self_times = t.self_times();
        span_layer_metrics(&self_times, r, &mut out);
        probes::crypto(&dep.world.owner, &dep.world.certs, &mut out);
        probes::tcp_floors(&daemon, &dep.transport, &mut out)?;
        out.push(trace_overhead(&rounds, Round::queries));
        for kind in [
            Kind::QueryGrant,
            Kind::QueryDeny,
            Kind::Publish,
            Kind::Revoke,
        ] {
            ledgers.push(ledger_for(&self_times, kind, &mix));
        }
        out.push(remainder_metric(&ledgers[0]));
    }

    // Process-crash durability: SIGKILL, reopen, look for every acked
    // write. (The OS page cache survives a process kill; power loss is
    // not what this tests.)
    drop(subscriber);
    daemon.kill();
    disk_metrics(
        &dep,
        dep.world.certs.len() + owned.published as usize,
        &mut out,
    );
    if cfg.trace {
        probes::boot(&dep.home, &dep.scratch("boot-probe"), &mut out)?;
    }
    let reopened = open_home(&dep.home)?;
    for own in &owned.live {
        oracle.attempted += 1;
        if reopened
            .find_proof(&own.query.subject, &own.query.object, &[])
            .is_none()
        {
            oracle.fail(|| format!("acked publish #{} is gone after the crash", own.cert.id()));
        }
    }
    for own in &owned.revoked {
        oracle.attempted += 1;
        if !reopened.is_revoked(own.cert.id())
            || reopened
                .find_proof(&own.query.subject, &own.query.object, &[])
                .is_some()
        {
            oracle.fail(|| {
                format!(
                    "acked revoke of #{} is unmarked after the crash",
                    own.cert.id()
                )
            });
        }
    }
    proof_metrics(&oracle, &mut out);

    let notes = vec![
        ("delegations_built", dep.world.certs.len().to_string()),
        ("rounds_measured", mix.len().to_string()),
        (
            "ops_measured",
            mix.iter().map(|r| r.ops).sum::<usize>().to_string(),
        ),
        ("round_ops", round_ops.to_string()),
        ("acked_writes", acked.to_string()),
        ("daemon_fsyncs", fsyncs.to_string()),
        (
            "durability_checked",
            format!(
                "{} live + {} revoked after SIGKILL",
                owned.live.len(),
                owned.revoked.len()
            ),
        ),
    ];
    Ok(Outcome {
        metrics: out,
        oracle,
        notes,
        ledgers,
        tracer,
    })
}

/// One closed-loop round of the mix: the round, the ops owed to the
/// replica, and how many writes the daemon acknowledged.
fn mix_round(
    dep: &Deployment,
    daemon: &Daemon,
    subscriber: &Subscriber,
    ops: Vec<Op>,
    tracer: Option<&mut Tracer>,
    keep_writes: bool,
    oracle: &mut Oracle,
) -> Result<(Round, Vec<Pending>, u64), String> {
    let mut acks = 0;
    let mut conn = StrictConn::open(&dep.transport, &daemon.addr, tracer)?;
    let round = timed_round(Some(daemon.pid()), conn.is_traced(), |round| {
        for op in ops {
            let (kind, req) = match &op {
                Op::Query(q) => (Kind::of_query(q), q.request()),
                Op::QueryOwn(q) => (Kind::QueryOwn, q.request()),
                Op::Publish(own) => (
                    Kind::Publish,
                    Request::Publish {
                        cert: Arc::clone(&own.cert),
                        supports: Vec::new(),
                    },
                ),
                Op::Revoke(_, revocation) => (Kind::Revoke, Request::Revoke(revocation.clone())),
            };
            // Untraced rounds of a traced run still owe the replica
            // their writes; it applies them after the round.
            if keep_writes && !conn.is_traced() && matches!(op, Op::Publish(_) | Op::Revoke(..)) {
                conn.pending.push(Pending {
                    span: None,
                    req: req.clone(),
                    payload: None,
                });
            }
            let sent = Instant::now();
            let (reply, ns) = conn.request(kind, req);
            round.record(kind, ns);
            round.ops += 1;
            match op {
                Op::Query(q) | Op::QueryOwn(q) => oracle.check_query(&q, reply),
                Op::Publish(own) => {
                    if oracle.check_ack("publish", reply) {
                        acks += 1;
                        if own.tracked {
                            let t = Instant::now();
                            subscriber.track(own.cert.id());
                            round.record(Kind::Subscribe, t.elapsed().as_nanos() as u64);
                            round.ops += 1;
                            oracle.attempted += 1;
                        }
                    }
                }
                Op::Revoke(own, _) => {
                    if oracle.check_ack("revoke", reply) {
                        acks += 1;
                        if own.tracked {
                            match subscriber.await_push(own.cert.id(), sent) {
                                Some(ns) => round.record(Kind::Push, ns),
                                None => oracle.fail(|| {
                                    format!("revocation push of #{} never arrived", own.cert.id())
                                }),
                            }
                        }
                    }
                }
            }
        }
    });
    Ok((round, conn.pending, acks))
}
