//! `discovery` — the paper's own workload (§4.2, Figure 2): tag-directed
//! discovery across a federation. `Family::CrossFederation`, 64 org
//! wallets, through `drbac::scenario`'s `TcpFederation`: one in-process
//! `WalletDaemon` per org over loopback TCP (64 OS processes do not fit
//! the box), a gateway wallet and its `DiscoveryAgent`.
//!
//! Every round deploys a fresh federation and soaks the same seeded
//! schedule: the publishes, then the queries — the generator's own,
//! stratified by ground truth so that every seed offers the same
//! decision mix (30% denials; unstratified the share swings between 26%
//! and 33% with the seed, and throughput with it, because a denial
//! costs fifty grants). `net.discovery`'s
//! sequential per-wallet RPCs, gateway-side `core` proof validation and
//! `crypto` verification dominate; `store` and `index` are bypassed
//! (in-memory wallets), so a storage optimisation must predict "no
//! change" here. The thing this workload must be able to show is the
//! discovery cost model of Schanzenbach et al.: resolution cost bounded
//! by chain length, not federation size — today a denial floods it.

use std::time::Instant;

use drbac::scenario::{
    Event, Family, Oracle as GroundTruth, QueryRecord, Scale, Scenario, ScenarioSpec, TcpFederation,
};

use crate::bench::{
    min_rounds, remainder_metric, run_rounds, trace_overhead, Config, Outcome, ScrapeDelta,
};
use crate::catalogue::MetricSet;
use crate::client::{kind_metric, quantile_metric, timed_round, Kind, Oracle, Round};
use crate::deploy::rss_mb;
use crate::probes;
use crate::stats::{percentile, Better, Metric};
use crate::trace::{Ledger, SelfTime, Tracer};

/// Granted and denied queries per round (~2 s on the reference box).
const ROUND_GRANTS: usize = 84;
const ROUND_DENIES: usize = 36;
/// The process's memory is read after this many measured rounds.
const RSS_AT_ROUND: usize = 2;

/// What one round measured beside its latencies.
struct RoundFacts {
    generate_ms: f64,
    deploy_ms: f64,
    /// Generation + deployment + the soak's publish deliveries: the
    /// time until the first query could run.
    setup_s: f64,
    /// `VmRSS` of this process with the federation deployed and soaked.
    rss_mb: f64,
    records: Vec<QueryRecord>,
    registry: ScrapeDelta,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (orgs, grants, denies) = match cfg.quick {
        true => (8, 28, 12),
        false => (64, ROUND_GRANTS, ROUND_DENIES),
    };
    let spec = ScenarioSpec {
        family: Family::CrossFederation,
        seed: cfg.seed,
        scale: Scale {
            orgs,
            users: orgs,
            roles_per_org: 2,
            delegations: 3 * orgs,
            // Three times what a round keeps, so both strata fill.
            queries: 3 * (grants + denies),
        },
    };
    let mut oracle = Oracle::default();
    let mut out = MetricSet::default();
    let mut tracer = cfg.trace.then(Tracer::new);
    let deadline = cfg.deadline(Instant::now());

    let mut facts: Vec<RoundFacts> = Vec::new();
    let rounds = run_rounds(deadline, min_rounds(cfg.trace), cfg.trace, |_, traced| {
        let (round, fact) =
            soak_round(&spec, grants, denies, traced, tracer.as_mut(), &mut oracle)?;
        facts.push(fact);
        Ok(round)
    })?;

    // Traced and untraced rounds run the same code here (the spans are
    // built from the soak's own per-query records), so every round
    // after the warm-up is measured.
    let all: Vec<&Round> = rounds.iter().skip(1).collect();
    let facts = &facts[1..];
    let per = |f: fn(&RoundFacts) -> f64| facts.iter().map(f).collect::<Vec<_>>();
    out.push(Metric::median_of("setup_s", "s", &per(|f| f.setup_s)));
    out.push(Metric::median_of(
        "daemon.boot_ready_ms",
        "ms",
        &per(|f| f.deploy_ms),
    ));
    out.push(Metric::median_of(
        "scenario.generate_ms",
        "ms",
        &per(|f| f.generate_ms),
    ));
    out.push(Metric::median_of(
        "scenario.deploy_ms",
        "ms",
        &per(|f| f.deploy_ms),
    ));
    // The median *granted* query: over all queries the median sits on
    // the boundary between gateway-cached and remote grants and jumps
    // with the seed. The denial tail is `client.query_p99_us`.
    out.push(kind_metric("query_p50_us", &all, Kind::QueryGrant, 0.5));
    out.push(quantile_metric(
        "client.query_p99_us",
        &all,
        0.99,
        Round::queries,
    ));
    let throughput: Vec<(f64, usize)> = all.iter().map(|r| (r.ops_per_s(), r.ops)).collect();
    out.push(Metric::over_rounds(
        "ops_per_s",
        "1/s",
        Better::Higher,
        &throughput,
    ));
    let queries: usize = all.iter().map(|r| r.ops).sum();
    // Gateway and all 64 daemons share this process; the soak's ~200
    // publish deliveries are in the numerator too.
    let cpu: Vec<(f64, usize)> = all
        .iter()
        .map(|r| (r.client.cpu_ns as f64 / 1e3 / r.ops.max(1) as f64, r.ops))
        .collect();
    let cpu = Metric::over_rounds("cpu_us_per_op", "us", Better::Lower, &cpu);
    out.push(Metric {
        name: "client.cpu_us_per_op",
        ..cpu.clone()
    });
    out.push(cpu);
    // Memory after a fixed number of rounds: each fresh federation
    // grows the heap a little, and a fast machine fits in more of them.
    out.push(Metric::single(
        "serve_rss_mb",
        "MB",
        facts[RSS_AT_ROUND - 1].rss_mb,
        1,
    ));

    // Discovery by decision.
    out.push(kind_metric(
        "discovery.grant_p50_us",
        &all,
        Kind::QueryGrant,
        0.5,
    ));
    out.push(kind_metric(
        "discovery.deny_p50_us",
        &all,
        Kind::QueryDeny,
        0.5,
    ));
    out.push(kind_metric(
        "discovery.deny_p99_us",
        &all,
        Kind::QueryDeny,
        0.99,
    ));
    let records: Vec<&QueryRecord> = facts.iter().flat_map(|f| &f.records).collect();
    let wall_p50 = |pick: &dyn Fn(&QueryRecord) -> bool| {
        let mut v: Vec<u64> = records
            .iter()
            .filter(|r| pick(r))
            .map(|r| r.wall_ns)
            .collect();
        v.sort_unstable();
        (percentile(&v, 0.5) as f64 / 1e3, v.len())
    };
    let (v, n) = wall_p50(&|r| r.granted && r.wallets_contacted > 0);
    out.push(Metric::single("discovery.grant_remote_p50_us", "us", v, n));
    let (v, n) = wall_p50(&|r| r.granted && r.wallets_contacted == 0);
    out.push(Metric::single("discovery.grant_cached_p50_us", "us", v, n));
    let wallets = |granted: bool| -> Vec<u64> {
        let mut v: Vec<u64> = records
            .iter()
            .filter(|r| r.granted == granted)
            .map(|r| r.wallets_contacted as u64)
            .collect();
        v.sort_unstable();
        v
    };
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let (deny_wallets, grant_wallets) = (wallets(false), wallets(true));
    out.push(Metric::single(
        "discovery.wallets_per_deny",
        "count",
        mean(&deny_wallets),
        deny_wallets.len(),
    ));
    out.push(Metric::single(
        "discovery.wallets_deny_p90",
        "count",
        percentile(&deny_wallets, 0.9) as f64,
        deny_wallets.len(),
    ));
    out.push(Metric::single(
        "discovery.wallets_per_grant",
        "count",
        mean(&grant_wallets),
        grant_wallets.len(),
    ));
    let deny_ns: u64 = records
        .iter()
        .filter(|r| !r.granted)
        .map(|r| r.wall_ns)
        .sum();
    out.push(Metric::single(
        "discovery.deny_us_per_wallet",
        "us",
        deny_ns as f64 / 1e3 / deny_wallets.iter().sum::<u64>().max(1) as f64,
        deny_wallets.len(),
    ));

    // The in-process registry saw both sides of every exchange.
    let registry_sum = |name: &str| facts.iter().map(|f| f.registry.counter(name)).sum::<u64>();
    let registry_mean = |name: &str| {
        let v: Vec<f64> = facts
            .iter()
            .filter_map(|f| f.registry.hist_mean(name))
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let per_query = |n: u64| n as f64 / queries.max(1) as f64;
    out.push(Metric::single(
        "discovery.hops_per_query",
        "count",
        per_query(registry_sum("drbac.net.discovery.hop.count")),
        queries,
    ));
    out.push(Metric::single(
        "discovery.frames_per_query",
        "count",
        per_query(registry_sum("drbac.net.tcp.frame.tx.count")),
        queries,
    ));
    let rpc_mean_ns = registry_mean("drbac.net.tcp.request.ns");
    out.push(Metric::single(
        "discovery.rpc_rtt_mean_us",
        "us",
        rpc_mean_ns / 1e3,
        queries,
    ));
    let validate_mean_ns = registry_mean("drbac.core.proof.validate.ns");
    out.push(Metric::single(
        "core.proof_validate_us",
        "us",
        validate_mean_ns / 1e3,
        queries,
    ));
    out.push(Metric::single(
        "daemon.service_mean_ns",
        "ns",
        registry_mean("drbac.net.tcp.service.ns"),
        queries,
    ));
    out.push(Metric::single(
        "graph.search_direct_mean_ns",
        "ns",
        registry_mean("drbac.graph.search.direct.ns"),
        queries,
    ));

    let mut ledgers = Vec::new();
    if cfg.trace {
        let scenario = spec.generate();
        let certs: Vec<_> = scenario
            .schedule
            .iter()
            .filter_map(|e| match e {
                Event::Publish { cert, .. } => Some(cert.clone()),
                _ => None,
            })
            .collect();
        probes::crypto(&scenario.orgs[0], &certs, &mut out);
        out.push(trace_overhead(&rounds, Round::queries));
        // A mean-based ledger from the registry: what one query spends
        // in RPC round trips and proof validation; the rest is the
        // agent's own bookkeeping and the gateway wallet.
        let mean_query_ns =
            records.iter().map(|r| r.wall_ns).sum::<u64>() / records.len().max(1) as u64;
        let observations = |name: &str| {
            facts
                .iter()
                .map(|f| f.registry.hist_count(name))
                .sum::<u64>()
        };
        let rpc_count = observations("drbac.net.tcp.request.ns");
        let validate_count = observations("drbac.core.proof.validate.ns");
        let layer = |mean_ns: f64, count: u64| SelfTime {
            p50_ns: (mean_ns * per_query(count)) as u64,
            samples: count as usize,
        };
        ledgers.push(Ledger {
            kind: "discover (means per query, from the in-process registry)",
            client_p50_ns: mean_query_ns,
            layers: vec![
                ("net.tcp request round trips", layer(rpc_mean_ns, rpc_count)),
                (
                    "core.proof validate",
                    layer(validate_mean_ns, validate_count),
                ),
            ],
        });
        out.push(remainder_metric(&ledgers[0]));
    }

    let notes = vec![
        ("family", "cross-federation".to_string()),
        ("orgs", orgs.to_string()),
        (
            "queries_per_round",
            format!("{grants} grants + {denies} denials"),
        ),
        ("rounds_measured", all.len().to_string()),
        ("queries_measured", queries.to_string()),
        ("denials_measured", deny_wallets.len().to_string()),
    ];
    Ok(Outcome {
        metrics: out,
        oracle,
        notes,
        ledgers,
        tracer,
    })
}

/// Generates the scenario and keeps, in schedule order, its first
/// `grants` queries ground truth grants and its first `denies` it
/// denies.
fn stratified(spec: &ScenarioSpec, grants: usize, denies: usize) -> Result<Scenario, String> {
    let mut scenario = spec.generate();
    let mut truth = GroundTruth::new();
    let (mut granted, mut denied) = (0, 0);
    scenario.schedule.retain(|event| match event {
        Event::Query(q) => {
            let (seen, wanted) = match truth.answer(q) {
                Some(_) => (&mut granted, grants),
                None => (&mut denied, denies),
            };
            *seen += 1;
            *seen <= wanted
        }
        delivery => {
            truth.apply(delivery);
            true
        }
    });
    if granted < grants || denied < denies {
        return Err(format!(
            "the generated schedule holds {granted} grants and {denied} denials, \
             fewer than the {grants} + {denies} a round needs"
        ));
    }
    Ok(scenario)
}

/// One round: generate, deploy, soak, shut down. The round's clock is
/// the sum of the soak's per-query wall times, so the publish
/// deliveries count as set-up, not as query throughput.
fn soak_round(
    spec: &ScenarioSpec,
    grants: usize,
    denies: usize,
    traced: bool,
    tracer: Option<&mut Tracer>,
    oracle: &mut Oracle,
) -> Result<(Round, RoundFacts), String> {
    let t = Instant::now();
    let scenario = stratified(spec, grants, denies)?;
    let generate = t.elapsed();
    let t = Instant::now();
    let mut federation =
        TcpFederation::deploy(&scenario, None).map_err(|e| format!("deploy: {e}"))?;
    let deploy = t.elapsed();

    let before = drbac::obs::global().snapshot();
    let mut report = None;
    let mut round = timed_round(None, traced, |_| report = Some(federation.soak(&scenario)));
    let soak_wall = round.wall;
    let registry = ScrapeDelta {
        before,
        after: drbac::obs::global().snapshot(),
    };
    let rss_mb = rss_mb(None);
    federation.shutdown();
    let report = report.expect("the soak ran");

    let query_ns: u64 = report.records.iter().map(|r| r.wall_ns).sum();
    round.wall = std::time::Duration::from_nanos(query_ns);
    round.ops = report.records.len();
    for r in &report.records {
        round.record(
            if r.granted {
                Kind::QueryGrant
            } else {
                Kind::QueryDeny
            },
            r.wall_ns,
        );
    }
    round.seal();
    if let Some(t) = tracer.filter(|_| traced) {
        for r in &report.records {
            let span = t.begin_request(if r.granted {
                "discover-grant"
            } else {
                "discover-deny"
            });
            t.child_measured(&span, "net.discovery.discover", r.wall_ns);
            t.end(span);
        }
    }

    // The soak's own oracle: decisions against centralized ground
    // truth, every granted proof validated.
    oracle.attempted += report.records.len() as u64;
    let violations = [
        (
            "decisions differ from the centralized oracle",
            report.hard_mismatches(),
        ),
        ("unsound proofs granted", report.unsound),
        (
            "sessions outlived a revocation",
            report.termination_failures,
        ),
        ("live sessions terminated", report.spurious_terminations),
    ];
    for (what, n) in violations {
        for _ in 0..n {
            oracle.fail(|| what.to_string());
        }
    }

    let facts = RoundFacts {
        generate_ms: generate.as_secs_f64() * 1e3,
        deploy_ms: deploy.as_secs_f64() * 1e3,
        setup_s: (generate + deploy + soak_wall).as_secs_f64() - query_ns as f64 / 1e9,
        rss_mb,
        records: report.records,
        registry,
    };
    Ok((round, facts))
}
