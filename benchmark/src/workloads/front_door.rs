//! `front_door` — one `PipelinedClient` connection (wire v3: reader
//! pump → job queue → worker pool → coalesced writes), the same read
//! mix as `guard_strict`'s steady state.
//!
//! Phase A is an **open loop**: requests leave on a fixed-interval
//! schedule at a low and then a high offered rate, whatever the daemon
//! does; each latency is timed from the instant the request was *due*,
//! so a stall charges every request queued behind it, and how late the
//! generator itself ran is reported (`gen.lateness_p99_us`). Phase B is
//! a **closed loop**: windows of 16 through `send_many`, the saturation
//! capacity of one connection — and, with no timer in the loop, the
//! steadier source of the end-to-end latency: what one request of a
//! full window waits, from the window's submission to its own reply.
//!
//! This exercises the queue / worker pool / write-coalescing code that
//! `guard_strict` bypasses entirely; a change that helps one daemon
//! path and hurts the other separates the two workloads. `store` does
//! nothing here either.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use drbac::net::proto::Request;
use drbac::net::PipelinedClient;

use crate::bench::{
    best_p50_ns, end_to_end, measured, min_rounds, proof_metrics, remainder_metric, run_rounds,
    span_layer_metrics, trace_overhead, Config, Deployment, Outcome, ScrapeDelta,
};
use crate::catalogue::MetricSet;
use crate::client::{quantile_metric, timed_round, Kind, Oracle, Round};
use crate::deploy::{rss_mb, Daemon};
use crate::probes;
use crate::replay::{Pending, Replica, LEDGER_LAYERS};
use crate::stats::{percentile, us, Metric};
use crate::trace::{Ledger, Tracer};
use crate::world::Query;

/// Offered rates of the open loop, requests per second. At the low
/// rate the (virtual) CPU idles between requests and every request
/// pays the wake-up chain; the high rate, about a third of one pinned
/// CPU's closed-loop capacity, keeps it busy and is the steadier of
/// the two, so it is the one the end-to-end latency is read at.
const LOW_RATE: f64 = 5_000.0;
const HIGH_RATE: f64 = 20_000.0;
/// Shares of `--seconds` given to the two open-loop phases; the closed
/// loop gets the rest.
const LOW_SHARE: f64 = 0.2;
const HIGH_SHARE: f64 = 0.3;
/// Seconds of schedule per open-loop round.
const OPEN_ROUND_S: f64 = 0.5;
/// The closed loop's in-flight window and ops per round.
const WINDOW: usize = 16;
const CLOSED_ROUND_OPS: usize = 20_000;
/// The open loop stops sending while this many requests are in flight;
/// the stall shows up as lateness. With a full burst on top this stays
/// well inside the daemon's per-connection cap of 128, whose count
/// trails the client's by the replies it has written but not yet
/// accounted.
const INFLIGHT_CAP: usize = 64;
/// Requests sent in one `send_many` when several are due at once.
const MAX_BURST: usize = 16;
const LANE_LOW: u64 = 3;
const LANE_HIGH: u64 = 4;
const LANE_CLOSED: u64 = 5;
/// Traced closed-loop rounds replay every eighth read.
const REPLAY_EVERY: usize = 8;

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut dep = Deployment::set_up(cfg)?;
    let mut oracle = Oracle::default();
    let mut out = MetricSet::default();
    let mut tracer = cfg.trace.then(Tracer::new);
    let daemon = dep.boot_sampled(if cfg.quick { 2 } else { 5 })?;
    let client = dep
        .transport
        .pipelined(&daemon.addr)
        .map_err(|e| format!("pipelined connect: {e}"))?;
    let replica = match cfg.trace {
        true => Some(Replica::open(&dep.home, &dep.scratch("replica"), true)?),
        false => None,
    };
    let start = Instant::now();

    // Phase A: the open loop at each offered rate.
    let mut lateness = Vec::new();
    let mut open = |rate, lane, share| {
        open_loop(
            cfg,
            &dep,
            &daemon,
            &client,
            rate,
            lane,
            cfg.seconds * share,
            &mut oracle,
            &mut lateness,
        )
    };
    let low = open(LOW_RATE, LANE_LOW, LOW_SHARE)?;
    let high = open(HIGH_RATE, LANE_HIGH, HIGH_SHARE)?;

    // Phase B: closed-loop windows for the rest.
    let round_ops = cfg.scaled(CLOSED_ROUND_OPS, 320);
    let mut window_start = None;
    let closed = run_rounds(
        cfg.deadline(start),
        min_rounds(cfg.trace),
        cfg.trace,
        |idx, traced| {
            if idx == 1 {
                window_start = Some(daemon.scrape(&dep.transport)?);
            }
            let queries = dep.world.stream(LANE_CLOSED, idx, round_ops);
            let mut pending = Vec::new();
            let round = closed_round(
                &daemon,
                &client,
                &queries,
                if traced { tracer.as_mut() } else { None },
                &mut pending,
                &mut oracle,
            );
            oracle.validate_sampled();
            if let (Some(t), Some(r)) = (tracer.as_mut(), replica.as_ref()) {
                r.replay_round(pending, REPLAY_EVERY, t);
            }
            Ok(round)
        },
    )?;
    let scrape = ScrapeDelta {
        before: window_start.expect("more than one round ran"),
        after: daemon.scrape(&dep.transport)?,
    };

    // Latency and capacity from the closed loop; the open loop's
    // latencies at its two offered rates beside them, ungated — they
    // hang on timer and wake-up behaviour the VM does not hold still
    // (p50 at 20,000/s: 95 us in one run, 230 us in the next).
    let (low_rounds, high_rounds, capacity) = (measured(&low), measured(&high), measured(&closed));
    end_to_end(
        &dep,
        &capacity,
        &capacity,
        rss_mb(Some(daemon.pid())),
        &mut out,
    );
    out.push(quantile_metric(
        "client.query_p50_us_at_low_rate",
        &low_rounds,
        0.5,
        Round::queries,
    ));
    out.push(quantile_metric(
        "client.query_p99_us_at_low_rate",
        &low_rounds,
        0.99,
        Round::queries,
    ));
    out.push(quantile_metric(
        "client.query_p50_us_at_high_rate",
        &high_rounds,
        0.5,
        Round::queries,
    ));
    out.push(quantile_metric(
        "client.query_p99_us_at_high_rate",
        &high_rounds,
        0.99,
        Round::queries,
    ));
    out.push(quantile_metric(
        "client.query_p999_us",
        &capacity,
        0.999,
        Round::queries,
    ));
    lateness.sort_unstable();
    out.push(Metric::single(
        "gen.lateness_p99_us",
        "us",
        us(percentile(&lateness, 0.99)),
        lateness.len(),
    ));

    scrape.daemon_metrics(&mut out);
    scrape.require_no_fsync(&mut oracle);
    proof_metrics(&oracle, &mut out);

    let mut ledgers = Vec::new();
    if let (Some(t), Some(r)) = (tracer.as_ref(), replica.as_ref()) {
        let self_times = t.self_times();
        span_layer_metrics(&self_times, r, &mut out);
        probes::crypto(&dep.world.owner, &dep.world.certs, &mut out);
        probes::tcp_floors(&daemon, &dep.transport, &mut out)?;
        out.push(trace_overhead(&closed, Round::queries));
        // Against the per-op cost at saturation — a window's time over
        // its size — and for grants, which fill the windows.
        let per_op_ns = best_p50_ns(&capacity, Kind::PipelinedOp);
        ledgers.push(Ledger::build(
            Kind::QueryGrant.name(),
            per_op_ns,
            &self_times,
            LEDGER_LAYERS,
        ));
        out.push(remainder_metric(&ledgers[0]));
    }

    let notes = vec![
        ("delegations", dep.world.certs.len().to_string()),
        (
            "open_loop_rates_per_s",
            format!("{LOW_RATE} then {HIGH_RATE}"),
        ),
        (
            "open_rounds_measured",
            format!("{} + {}", low_rounds.len(), high_rounds.len()),
        ),
        ("closed_rounds_measured", capacity.len().to_string()),
        (
            "closed_ops_measured",
            capacity.iter().map(|r| r.ops).sum::<usize>().to_string(),
        ),
        ("window", WINDOW.to_string()),
    ];
    client.close();
    Ok(Outcome {
        metrics: out,
        oracle,
        notes,
        ledgers,
        tracer,
    })
}

/// One open-loop phase: `seconds` of fixed-interval schedule at `rate`,
/// cut into rounds of [`OPEN_ROUND_S`]. This thread sends on schedule;
/// a second one collects replies in send order and stamps each latency
/// from its due time.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    cfg: &Config,
    dep: &Deployment,
    daemon: &Daemon,
    client: &PipelinedClient,
    rate: f64,
    lane: u64,
    seconds: f64,
    oracle: &mut Oracle,
    lateness: &mut Vec<u64>,
) -> Result<Vec<Round>, String> {
    let per_round = ((rate * OPEN_ROUND_S) as usize).max(1);
    let n_rounds = ((seconds / OPEN_ROUND_S).ceil() as usize).max(min_rounds(false));
    let per_round = if cfg.quick { per_round / 10 } else { per_round };
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut rounds = Vec::with_capacity(n_rounds);
    for r in 0..n_rounds {
        let queries = dep.world.stream(lane, r as u64, per_round);
        let requests: Vec<Request> = queries.iter().map(Query::request).collect();
        let mut round_oracle = Oracle::default();
        let mut late = Vec::with_capacity(per_round);
        let mut failed = None;
        let round = timed_round(Some(daemon.pid()), false, |round| {
            let (tx, rx) = mpsc::channel::<(u64, Instant)>();
            std::thread::scope(|scope| {
                let collector = scope.spawn(|| {
                    let mut lat = Vec::with_capacity(per_round);
                    let mut oracle = Oracle::default();
                    for (q, (id, due)) in queries.iter().zip(rx) {
                        let reply = client.wait(id);
                        lat.push((Kind::of_query(q), due.elapsed().as_nanos() as u64));
                        oracle.check_query(q, reply);
                    }
                    (lat, oracle)
                });
                let start = Instant::now();
                let mut next = 0;
                while next < requests.len() {
                    let due = start + interval * next as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    while client.in_flight() >= INFLIGHT_CAP {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    // Everything due by now leaves in one write.
                    let now = Instant::now();
                    let due_by_now = (now.duration_since(start).as_secs_f64() * rate) as usize + 1;
                    let end = due_by_now.clamp(next + 1, (next + MAX_BURST).min(requests.len()));
                    match client.send_many(&requests[next..end]) {
                        Ok(ids) => {
                            for (k, id) in ids.into_iter().enumerate() {
                                let due = start + interval * (next + k) as u32;
                                late.push(now.saturating_duration_since(due).as_nanos() as u64);
                                let _ = tx.send((id, due));
                            }
                        }
                        Err(e) => {
                            failed = Some(format!("open-loop send failed: {e}"));
                            break;
                        }
                    }
                    next = end;
                }
                drop(tx);
                let (lat, oracle) = collector.join().expect("collector thread");
                for (kind, ns) in lat {
                    round.record(kind, ns);
                }
                round.ops = next;
                round_oracle = oracle;
            });
        });
        if let Some(e) = failed {
            return Err(e);
        }
        oracle.merge(round_oracle);
        oracle.validate_sampled();
        if r > 0 {
            lateness.extend(late);
        }
        rounds.push(round);
    }
    Ok(rounds)
}

/// One closed-loop round: windows of [`WINDOW`] requests submitted with
/// `send_many`, then collected in order. A request's latency runs from
/// its window's submission to its own reply; the window's time over its
/// size is filed per op as [`Kind::PipelinedOp`], the per-op cost at
/// saturation. With a tracer each window gets a root span with
/// `pipeline.send_many` and `pipeline.wait_all` children, and its ops
/// queue for replay.
fn closed_round(
    daemon: &Daemon,
    client: &PipelinedClient,
    queries: &[Query],
    mut tracer: Option<&mut Tracer>,
    pending: &mut Vec<Pending>,
    oracle: &mut Oracle,
) -> Round {
    let requests: Vec<Request> = queries.iter().map(Query::request).collect();
    timed_round(Some(daemon.pid()), tracer.is_some(), |round| {
        for (qs, reqs) in queries.chunks(WINDOW).zip(requests.chunks(WINDOW)) {
            let t0 = Instant::now();
            let span = tracer.as_deref_mut().map(|t| t.begin_request("window"));
            let sent = match (tracer.as_deref_mut(), &span) {
                (Some(t), Some(s)) => t.child(s, "pipeline.send_many", || client.send_many(reqs)),
                _ => client.send_many(reqs),
            };
            let replies: Vec<_> = match sent {
                Ok(ids) => {
                    let collect = || {
                        ids.iter()
                            .map(|id| (client.wait(*id), t0.elapsed().as_nanos() as u64))
                            .collect()
                    };
                    match (tracer.as_deref_mut(), &span) {
                        (Some(t), Some(s)) => t.child(s, "pipeline.wait_all", collect),
                        _ => collect(),
                    }
                }
                Err(e) => reqs.iter().map(|_| (Err(e.clone()), 0)).collect(),
            };
            let per_op = t0.elapsed().as_nanos() as u64 / reqs.len() as u64;
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.end(s);
                // Each op replays under a root of its own kind.
                for (q, req) in qs.iter().zip(reqs) {
                    let op = t.begin_request(Kind::of_query(q).name());
                    t.end(op);
                    pending.push(Pending {
                        span: Some(op),
                        req: req.clone(),
                        payload: None,
                    });
                }
            }
            for (q, (reply, ns)) in qs.iter().zip(replies) {
                round.record(Kind::of_query(q), ns);
                round.record(Kind::PipelinedOp, per_op);
                oracle.check_query(q, reply);
            }
            round.ops += reqs.len();
        }
    })
}
