//! `guard_strict` — one strict connection, one request in flight,
//! read-only: the path every product caller uses today (CLI
//! `--remote`, the discovery agent, the switchboard).
//!
//! Phase A sweeps every provable pair once against a freshly booted,
//! lazily hydrated wallet (index hydration + proof search + signature
//! checks), three boots over. Phase B is the steady state: rounds of
//! direct queries, 90% provable pairs drawn Zipf(1.0), 10% unprovable,
//! closed loop. The front door's strict path (`net.wire`, `net.tcp`,
//! `net.daemon` inline serve) and the proof cache do all the work;
//! `store` does none — a storage optimisation must predict "no change"
//! here, and the run fails if the daemon fsyncs at all.

use std::time::Instant;

use drbac::net::proto::Request;

use crate::bench::{
    disk_metrics, end_to_end, ledger_for, measured, min_rounds, proof_metrics, remainder_metric,
    run_rounds, span_layer_metrics, trace_overhead, Config, Deployment, Outcome, ScrapeDelta,
};
use crate::catalogue::MetricSet;
use crate::client::{kind_metric, quantile_metric, timed_round, Kind, Oracle, Round, StrictConn};
use crate::deploy::{rss_mb, Daemon};
use crate::probes;
use crate::replay::{Pending, Replica};
use crate::stats::Metric;
use crate::trace::Tracer;
use crate::world::Query;

/// Queries per phase-B round (~0.3 s on the reference box).
const ROUND_OPS: usize = 10_000;
/// Stream lane of phase B (phase A walks the pairs themselves).
const LANE_STEADY: u64 = 1;
/// Traced rounds replay every eighth read through the layers.
const REPLAY_EVERY: usize = 8;

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut dep = Deployment::set_up(cfg)?;
    let mut oracle = Oracle::default();
    let mut out = MetricSet::default();
    let mut tracer = cfg.trace.then(Tracer::new);
    let deadline = cfg.deadline(Instant::now());

    // Phase A: cold sweeps, one fresh boot each. The last boot stays
    // up for phase B; under --trace 1 its sweep is the traced one.
    let sweeps = match (cfg.quick, cfg.trace) {
        (false, _) => 3,
        (true, false) => 1,
        (true, true) => 2,
    };
    let mut cold: Vec<Round> = Vec::new();
    let mut hydrated = (0u64, 0u64);
    let mut daemon: Option<Daemon> = None;
    let mut replica = None;
    for s in 0..sweeps {
        drop(daemon.take());
        let d = dep.boot()?;
        let traced = cfg.trace && s + 1 == sweeps;
        let before = d.scrape(&dep.transport)?;
        let (round, pending) = query_round(
            &dep,
            &d,
            &dep.world.provable,
            Some(Kind::QueryCold),
            if traced { tracer.as_mut() } else { None },
            &mut oracle,
        )?;
        cold.push(round);
        let scrape = ScrapeDelta {
            before,
            after: d.scrape(&dep.transport)?,
        };
        hydrated.0 += scrape.counter("drbac.index.hydrate.cert.count");
        hydrated.1 += dep.world.provable.len() as u64;
        if let Some(t) = tracer.as_mut() {
            if traced {
                // A replica opened now is as cold as the daemon was.
                let r = Replica::open(&dep.home, &dep.scratch("replica"), false)?;
                r.replay_round(pending, 1, t);
                replica = Some(r);
            }
        }
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one sweep");

    // Phase B: steady-state rounds until the deadline.
    let round_ops = cfg.scaled(ROUND_OPS, 200);
    let mut window_start = None;
    let rounds = run_rounds(deadline, min_rounds(cfg.trace), cfg.trace, |idx, traced| {
        if idx == 1 {
            // Scrapes bracket the measured rounds only.
            window_start = Some(daemon.scrape(&dep.transport)?);
        }
        let queries = dep.world.stream(LANE_STEADY, idx, round_ops);
        let (round, pending) = query_round(
            &dep,
            &daemon,
            &queries,
            None,
            if traced { tracer.as_mut() } else { None },
            &mut oracle,
        )?;
        oracle.validate_sampled();
        if let (Some(t), Some(r)) = (tracer.as_mut(), replica.as_ref()) {
            r.replay_round(pending, REPLAY_EVERY, t);
        }
        Ok(round)
    })?;
    let scrape = ScrapeDelta {
        before: window_start.expect("more than one round ran"),
        after: daemon.scrape(&dep.transport)?,
    };

    let steady = measured(&rounds);
    end_to_end(&dep, &steady, &steady, rss_mb(Some(daemon.pid())), &mut out);

    // The client's view by op kind.
    let cold_untraced: Vec<&Round> = cold.iter().filter(|r| !r.traced).collect();
    out.push(kind_metric(
        "client.cold_query_p50_us",
        &cold_untraced,
        Kind::QueryCold,
        0.5,
    ));
    out.push(kind_metric(
        "client.query_grant_p50_us",
        &steady,
        Kind::QueryGrant,
        0.5,
    ));
    out.push(kind_metric(
        "client.query_deny_p50_us",
        &steady,
        Kind::QueryDeny,
        0.5,
    ));
    out.push(quantile_metric(
        "client.query_p999_us",
        &steady,
        0.999,
        Round::queries,
    ));

    // Counts scraped from the daemon over the measured window.
    let window_ops: u64 = rounds.iter().skip(1).map(|r| r.ops as u64).sum();
    scrape.daemon_metrics(&mut out);
    out.push(Metric::single(
        "index.hydrated_certs_per_cold_query",
        "count",
        hydrated.0 as f64 / hydrated.1.max(1) as f64,
        hydrated.1 as usize,
    ));
    scrape.require_no_fsync(&mut oracle);
    out.push(Metric::single("store.fsyncs_per_write", "count", 0.0, 0));

    disk_metrics(&dep, dep.world.certs.len(), &mut out);
    proof_metrics(&oracle, &mut out);

    let mut ledgers = Vec::new();
    if let (Some(t), Some(r)) = (tracer.as_ref(), replica.as_ref()) {
        let self_times = t.self_times();
        span_layer_metrics(&self_times, r, &mut out);
        probes::crypto(&dep.world.owner, &dep.world.certs, &mut out);
        probes::tcp_floors(&daemon, &dep.transport, &mut out)?;
        probes::boot(&dep.home, &dep.scratch("boot-probe"), &mut out)?;
        out.push(trace_overhead(&rounds, Round::queries));
        for kind in [Kind::QueryGrant, Kind::QueryDeny] {
            ledgers.push(ledger_for(&self_times, kind, &steady));
        }
        ledgers.push(ledger_for(&self_times, Kind::QueryCold, &cold_untraced));
        out.push(remainder_metric(&ledgers[0]));
    }

    let notes = vec![
        ("delegations", dep.world.certs.len().to_string()),
        ("cold_sweeps", sweeps.to_string()),
        ("steady_rounds_measured", steady.len().to_string()),
        ("steady_ops_measured", window_ops.to_string()),
        ("round_ops", round_ops.to_string()),
    ];
    Ok(Outcome {
        metrics: out,
        oracle,
        notes,
        ledgers,
        tracer,
    })
}

/// One closed-loop round of `queries` on the strict path; with a
/// tracer, also every op queued for the replay. `force_kind` files
/// every latency under one kind (the cold sweep).
fn query_round(
    dep: &Deployment,
    daemon: &Daemon,
    queries: &[Query],
    force_kind: Option<Kind>,
    tracer: Option<&mut Tracer>,
    oracle: &mut Oracle,
) -> Result<(Round, Vec<Pending>), String> {
    let requests: Vec<Request> = queries.iter().map(Query::request).collect();
    let mut conn = StrictConn::open(&dep.transport, &daemon.addr, tracer)?;
    let round = timed_round(Some(daemon.pid()), conn.is_traced(), |round| {
        for (q, req) in queries.iter().zip(requests) {
            let kind = force_kind.unwrap_or(Kind::of_query(q));
            let (reply, ns) = conn.request(kind, req);
            round.record(kind, ns);
            oracle.check_query(q, reply);
        }
        round.ops = queries.len();
    });
    Ok((round, conn.pending))
}
