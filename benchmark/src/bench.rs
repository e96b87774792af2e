//! What the three daemon workloads share: the run configuration, the
//! repeated set-up of the deployment, the round loop, the scrape
//! deltas, and the assembly of the end-to-end metrics.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drbac::net::TcpTransport;
use drbac::obs::Snapshot;

use crate::catalogue::MetricSet;
use crate::client::{quantile_metric, Kind, Oracle, Round};
use crate::deploy::{build_home, client_transport, dir_bytes, Daemon, TempRoot};
use crate::replay::{Replica, LEDGER_LAYERS};
use crate::stats::{median, percentile, quartiles, Better, Metric};
use crate::trace::{Ledger, SelfTimes, Tracer};
use crate::world::{World, WorldSize};

/// One invocation's settings.
pub struct Config {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Harness spans on (`--trace 1`): print the per-layer metrics.
    pub trace: bool,
    /// Tiny counts, same code paths and checks (`--quick`).
    pub quick: bool,
    /// The `drbac` binary to serve homes with.
    pub drbac_bin: PathBuf,
    /// `benchmark/out`: result files, span files, scratch homes.
    pub out: PathBuf,
}

impl Config {
    pub fn world_size(&self) -> WorldSize {
        if self.quick {
            WorldSize::QUICK
        } else {
            WorldSize::FULL
        }
    }

    /// When a measurement begun at `start` is over.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }

    /// `full`, or a twentieth of it (at least `floor`) under `--quick`.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 20).max(floor)
        } else {
            full
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub metrics: MetricSet,
    pub oracle: Oracle,
    /// Facts about the run worth recording beside the metrics.
    pub notes: Vec<(&'static str, String)>,
    pub ledgers: Vec<Ledger>,
    pub tracer: Option<Tracer>,
}

/// The deployment under test, set up from scratch several times.
pub struct Deployment {
    pub world: World,
    pub home: PathBuf,
    pub transport: Arc<TcpTransport>,
    drbac_bin: PathBuf,
    /// Seconds of each complete set-up: world generation + signing +
    /// home build + daemon boot to first `Health`.
    setup_s: Vec<f64>,
    /// Spawn → first `Health` OK, one sample per boot of a built home.
    boot_ms: Vec<f64>,
    tmp: TempRoot,
}

impl Deployment {
    /// Sets the deployment up three times (once under `--quick`) and
    /// keeps the last home. The set-ups are identical by construction —
    /// the world is a function of the seed — so the median set-up time
    /// is a property of the code, not of the draw.
    pub fn set_up(cfg: &Config) -> Result<Deployment, String> {
        let tmp = TempRoot::create(&cfg.out).map_err(|e| format!("scratch dir: {e}"))?;
        let transport = client_transport();
        let repeats = if cfg.quick { 1 } else { 3 };
        let mut setup_s = Vec::new();
        let mut boot_ms = Vec::new();
        let mut last = None;
        for i in 0..repeats {
            let home = tmp.path().join(format!("home-{i}"));
            let start = Instant::now();
            let world = World::generate(cfg.seed, cfg.world_size());
            build_home(&world, &home)?;
            let daemon = Daemon::spawn(&cfg.drbac_bin, &home, &transport)?;
            setup_s.push(start.elapsed().as_secs_f64());
            boot_ms.push(daemon.boot_ready.as_secs_f64() * 1e3);
            daemon.kill();
            transport.drain_pool();
            if let Some((_, stale)) = last.replace((world, home)) {
                let _ = std::fs::remove_dir_all(stale);
            }
        }
        let (world, home) = last.expect("at least one set-up");
        Ok(Deployment {
            world,
            home,
            transport,
            drbac_bin: cfg.drbac_bin.clone(),
            setup_s,
            boot_ms,
            tmp,
        })
    }

    /// Boots a daemon on the built home, recording its boot time.
    pub fn boot(&mut self) -> Result<Daemon, String> {
        self.transport.drain_pool();
        let daemon = Daemon::spawn(&self.drbac_bin, &self.home, &self.transport)?;
        self.boot_ms.push(daemon.boot_ready.as_secs_f64() * 1e3);
        Ok(daemon)
    }

    /// Boots until `samples` boot times exist; the last daemon stays up.
    pub fn boot_sampled(&mut self, samples: usize) -> Result<Daemon, String> {
        loop {
            let daemon = self.boot()?;
            if self.boot_ms.len() >= samples {
                return Ok(daemon);
            }
            daemon.kill();
        }
    }

    /// A scratch path under this run's temp root.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.tmp.path().join(name)
    }

    pub fn setup_metric(&self) -> Metric {
        Metric::median_of("setup_s", "s", &self.setup_s)
    }

    pub fn boot_metric(&self) -> Metric {
        Metric::median_of("daemon.boot_ready_ms", "ms", &self.boot_ms)
    }
}

/// Runs rounds until `deadline`, at least `min_rounds` of them. Under
/// `--trace 1` every other round is traced, so the two kinds see the
/// same daemon state and the same drift.
pub fn run_rounds(
    deadline: Instant,
    min_rounds: usize,
    trace: bool,
    mut round: impl FnMut(u64, bool) -> Result<Round, String>,
) -> Result<Vec<Round>, String> {
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || Instant::now() < deadline {
        let idx = rounds.len() as u64;
        rounds.push(round(idx, trace && idx % 2 == 1)?);
    }
    Ok(rounds)
}

/// Minimum rounds of a phase: one warm-up plus enough measured rounds
/// for a median (and, traced, for both kinds of round).
pub fn min_rounds(trace: bool) -> usize {
    if trace {
        5
    } else {
        4
    }
}

/// The measured rounds of a phase: all but the warm-up round, and —
/// under `--trace 1` — only the untraced ones, so that client-observed
/// numbers always come from the path product callers use.
pub fn measured(rounds: &[Round]) -> Vec<&Round> {
    rounds.iter().skip(1).filter(|r| !r.traced).collect()
}

/// The traced rounds after the warm-up.
pub fn traced(rounds: &[Round]) -> Vec<&Round> {
    rounds.iter().skip(1).filter(|r| r.traced).collect()
}

/// Two scrapes of the daemon's registry around a measured window.
pub struct ScrapeDelta {
    pub before: Snapshot,
    pub after: Snapshot,
}

impl ScrapeDelta {
    /// Growth of counter `name`; 0 when the daemon does not export it
    /// (never touched, or renamed away: the metric reads 0 — never a
    /// crash).
    pub fn counter(&self, name: &str) -> u64 {
        let value = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        value(&self.after).saturating_sub(value(&self.before))
    }

    /// Mean of the observations histogram `name` took in the window.
    /// (The scraped quantiles are log₂ bucket bounds; the mean of
    /// `sum / count` moves with every nanosecond.)
    pub fn hist_mean(&self, name: &str) -> Option<f64> {
        let after = self.after.histograms.get(name)?;
        let (sum0, count0) = self
            .before
            .histograms
            .get(name)
            .map_or((0, 0), |h| (h.sum, h.count));
        let count = after.count.saturating_sub(count0);
        (count > 0).then(|| after.sum.saturating_sub(sum0) as f64 / count as f64)
    }

    /// `counter(name) / per`, as a single-measurement metric.
    pub fn per_op(&self, metric: &'static str, unit: &'static str, name: &str, per: u64) -> Metric {
        let v = self.counter(name) as f64 / per.max(1) as f64;
        Metric::single(metric, unit, v, per as usize)
    }

    pub fn mean_metric(&self, metric: &'static str, name: &str) -> Metric {
        let n = self.hist_count(name) as usize;
        Metric::single(metric, "ns", self.hist_mean(name).unwrap_or(0.0), n)
    }

    /// Observations histogram `name` took in the window.
    pub fn hist_count(&self, name: &str) -> u64 {
        let c = |s: &Snapshot| s.histograms.get(name).map_or(0, |h| h.count);
        c(&self.after).saturating_sub(c(&self.before))
    }

    /// The per-layer metrics every daemon workload scrapes over its
    /// measured window.
    pub fn daemon_metrics(&self, out: &mut MetricSet) {
        let hits = self.counter("drbac.wallet.query.cache_hit.count");
        let lookups = hits + self.counter("drbac.wallet.query.cache_miss.count");
        out.push(Metric::single(
            "wallet.cache_hit_ratio",
            "ratio",
            hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        ));
        out.push(self.mean_metric(
            "graph.search_direct_mean_ns",
            "drbac.graph.search.direct.ns",
        ));
        out.push(self.mean_metric("daemon.service_mean_ns", "drbac.net.tcp.service.ns"));
        out.push(self.per_op(
            "daemon.overload_rejects",
            "count",
            "drbac.net.tcp.overload.count",
            1,
        ));
    }

    /// A read-only workload must not make the daemon fsync.
    pub fn require_no_fsync(&self, oracle: &mut Oracle) {
        let fsyncs = self.counter("drbac.store.fsync.count");
        if fsyncs != 0 {
            oracle.fail(|| format!("a read-only workload made the daemon fsync {fsyncs} times"));
        }
    }
}

/// The end-to-end metrics every daemon workload reports from its
/// measured query rounds, plus the CPU split behind `cpu_us_per_op`.
pub fn end_to_end(
    dep: &Deployment,
    query_rounds: &[&Round],
    throughput_rounds: &[&Round],
    serve_rss_mb: f64,
    out: &mut MetricSet,
) {
    out.push(dep.setup_metric());
    out.push(dep.boot_metric());
    out.push(quantile_metric(
        "query_p50_us",
        query_rounds,
        0.5,
        Round::queries,
    ));
    out.push(quantile_metric(
        "client.query_p99_us",
        query_rounds,
        0.99,
        Round::queries,
    ));
    let per_op = |name, unit, better, total: fn(&Round) -> f64| {
        let per: Vec<(f64, usize)> = throughput_rounds
            .iter()
            .map(|r| (total(r) / r.ops.max(1) as f64, r.ops))
            .collect();
        Metric::over_rounds(name, unit, better, &per)
    };
    let per: Vec<(f64, usize)> = throughput_rounds
        .iter()
        .map(|r| (r.ops_per_s(), r.ops))
        .collect();
    out.push(Metric::over_rounds(
        "ops_per_s",
        "1/s",
        Better::Higher,
        &per,
    ));
    // On-CPU time (ns-exact, from schedstat) of both processes per op.
    out.push(per_op("cpu_us_per_op", "us", Better::Lower, |r| {
        (r.client.cpu_ns + r.daemon.cpu_ns) as f64 / 1e3
    }));
    out.push(per_op("client.cpu_us_per_op", "us", Better::Lower, |r| {
        r.client.cpu_ns as f64 / 1e3
    }));
    out.push(per_op("daemon.cpu_us_per_op", "us", Better::Lower, |r| {
        r.daemon.cpu_ns as f64 / 1e3
    }));
    out.push(per_op(
        "daemon.ctx_switches_per_op",
        "count",
        Better::Lower,
        |r| r.daemon.ctx_switches as f64,
    ));
    out.push(Metric::single("serve_rss_mb", "MB", serve_rss_mb, 1));
}

/// The per-layer metrics read off the traced run's spans: the median
/// self time of each replayed layer, for the op kind it serves.
pub fn span_layer_metrics(self_times: &SelfTimes, replica: &Replica, out: &mut MetricSet) {
    const FROM_SPANS: &[(&str, &str, &str)] = &[
        (
            "wire.encode_request_us",
            "query-grant",
            "wire.encode_request",
        ),
        (
            "wire.decode_request_us",
            "query-grant",
            "wire.decode_request",
        ),
        ("wire.encode_reply_us", "query-grant", "wire.encode_reply"),
        ("wire.decode_reply_us", "query-grant", "wire.decode_reply"),
        ("wire.write_frame_us", "query-grant", "wire.write_frame"),
        ("wire.read_frame_us", "query-grant", "wire.read_frame"),
        ("wallet.query_cold_us", "query-cold", "wallet.query"),
        ("wallet.query_warm_us", "query-grant", "wallet.query"),
        ("wallet.query_deny_us", "query-deny", "wallet.query"),
        (
            "wallet.publish_durable_us",
            "publish",
            "wallet.publish_durable",
        ),
        ("wallet.publish_mem_us", "publish", "wallet.publish_mem"),
        (
            "wallet.revoke_durable_us",
            "revoke",
            "wallet.revoke_durable",
        ),
        ("store.append_us", "publish", "store.append"),
    ];
    for (metric, kind, span) in FROM_SPANS {
        if let Some(st) = self_times.get(&(*kind, *span)) {
            out.push(Metric::single(
                metric,
                "us",
                st.p50_ns as f64 / 1e3,
                st.samples,
            ));
        }
    }
    let (request, reply, n) = replica.grant_wire_bytes();
    out.push(Metric::single("wire.request_bytes", "B", request, n));
    out.push(Metric::single("wire.reply_bytes", "B", reply, n));
}

/// The client-observed p50 of `kind` over `rounds`, in ns, as the
/// metrics report it: the best quartile of the per-round medians.
pub fn best_p50_ns(rounds: &[&Round], kind: Kind) -> u64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|r| r.samples(kind))
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, 0.5) as f64)
        .collect();
    quartiles(&per_round).0 as u64
}

/// The ledger of `kind` against its client-observed p50 in the
/// measured (untraced) rounds.
pub fn ledger_for(self_times: &SelfTimes, kind: Kind, rounds: &[&Round]) -> Ledger {
    Ledger::build(
        kind.name(),
        best_p50_ns(rounds, kind),
        self_times,
        LEDGER_LAYERS,
    )
}

/// `client.socket_remainder_us`: what the first ledger (the workload's
/// main op kind) leaves unexplained.
pub fn remainder_metric(ledger: &Ledger) -> Metric {
    let samples = ledger
        .layers
        .iter()
        .map(|(_, st)| st.samples)
        .max()
        .unwrap_or(0);
    Metric::single(
        "client.socket_remainder_us",
        "us",
        ledger.remainder_ns() as f64 / 1e3,
        samples,
    )
}

/// `trace.overhead_pct`: how much slower the median traced round's
/// query p50 is than the median untraced round's.
pub fn trace_overhead(rounds: &[Round], pick: impl Fn(&Round) -> Vec<u64> + Copy) -> Metric {
    let p50 = |rs: Vec<&Round>| {
        let v: Vec<f64> = rs
            .iter()
            .map(|r| pick(r))
            .filter(|v| !v.is_empty())
            .map(|v| percentile(&v, 0.5) as f64)
            .collect();
        (median(&v), v.len())
    };
    let ((plain, n), (spans, _)) = (p50(measured(rounds)), p50(traced(rounds)));
    let pct = if plain > 0.0 {
        (spans - plain) / plain * 100.0
    } else {
        0.0
    };
    Metric::single("trace.overhead_pct", "%", pct, n)
}

/// On-disk bytes per delegation held: whole home, index, store.
pub fn disk_metrics(dep: &Deployment, delegations: usize, out: &mut MetricSet) {
    let (index, store) = (
        dir_bytes(&dep.home.join("index")),
        dir_bytes(&dep.home.join("store")),
    );
    let per = |bytes: u64| bytes as f64 / delegations.max(1) as f64;
    out.push(Metric::single(
        "client.disk_bytes_per_delegation",
        "B",
        per(index + store),
        delegations,
    ));
    out.push(Metric::single(
        "index.disk_bytes_per_delegation",
        "B",
        per(index),
        delegations,
    ));
    out.push(Metric::single(
        "store.disk_bytes_per_delegation",
        "B",
        per(store),
        delegations,
    ));
}

/// `core.*` from the proofs the oracle sampled and validated.
pub fn proof_metrics(oracle: &Oracle, out: &mut MetricSet) {
    let as_f64 = |v: &[u64]| v.iter().map(|x| *x as f64).collect::<Vec<_>>();
    out.push(Metric::single(
        "core.proof_validate_us",
        "us",
        median(&as_f64(&oracle.validate_ns)) / 1e3,
        oracle.validate_ns.len(),
    ));
    let bytes = &oracle.proof_bytes;
    out.push(Metric::single(
        "core.proof_bytes",
        "B",
        bytes.iter().sum::<u64>() as f64 / bytes.len().max(1) as f64,
        bytes.len(),
    ));
}
