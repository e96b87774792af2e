//! The metric catalogue: every name the benchmark may print, with its
//! unit. `BENCHMARK.json` declares the same names; `selftest.sh` checks
//! that the two agree and that every run prints exactly these.
//!
//! The driver reads a rectangular table — every workload prints every
//! metric — so a metric a workload does not exercise reads `0` there
//! (the README's interaction table says which cells are live).

use crate::stats::Metric;

/// What a user of the system sees. Printed by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("serve_rss_mb", "MB"),
];

/// Single layers, named by module. Printed by `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // crypto
    ("crypto.sign_us", "us"),
    ("crypto.verify_cold_us", "us"),
    ("crypto.verify_memo_us", "us"),
    // core
    ("core.proof_validate_us", "us"),
    ("core.proof_bytes", "B"),
    // graph (scraped)
    ("graph.search_direct_mean_ns", "ns"),
    // wallet
    ("wallet.query_cold_us", "us"),
    ("wallet.query_warm_us", "us"),
    ("wallet.query_deny_us", "us"),
    ("wallet.cache_hit_ratio", "ratio"),
    ("wallet.cache_invalidated_per_write", "count"),
    ("wallet.publish_mem_us", "us"),
    ("wallet.publish_durable_us", "us"),
    ("wallet.revoke_durable_us", "us"),
    ("wallet.boot_indexed_ms", "ms"),
    // index
    ("index.boot_open_ms", "ms"),
    ("index.hydrated_certs_per_cold_query", "count"),
    ("index.disk_bytes_per_delegation", "B"),
    // store
    ("store.append_us", "us"),
    ("store.fsync_mean_ns", "ns"),
    ("store.fsyncs_per_write", "count"),
    ("store.log_bytes_per_write", "B"),
    ("store.disk_bytes_per_delegation", "B"),
    // net.wire
    ("wire.encode_request_us", "us"),
    ("wire.decode_request_us", "us"),
    ("wire.encode_reply_us", "us"),
    ("wire.decode_reply_us", "us"),
    ("wire.write_frame_us", "us"),
    ("wire.read_frame_us", "us"),
    ("wire.request_bytes", "B"),
    ("wire.reply_bytes", "B"),
    // net.tcp
    ("tcp.connect_us", "us"),
    ("tcp.rtt_floor_us", "us"),
    ("tcp.pipelined_rtt_floor_us", "us"),
    // net.daemon (scraped and /proc)
    ("daemon.boot_ready_ms", "ms"),
    ("daemon.service_mean_ns", "ns"),
    ("daemon.cpu_us_per_op", "us"),
    ("daemon.ctx_switches_per_op", "count"),
    ("daemon.overload_rejects", "count"),
    // the client's view, by op kind
    ("client.cpu_us_per_op", "us"),
    ("client.socket_remainder_us", "us"),
    ("client.cold_query_p50_us", "us"),
    ("client.query_grant_p50_us", "us"),
    ("client.query_deny_p50_us", "us"),
    ("client.own_query_p50_us", "us"),
    ("client.query_p99_us", "us"),
    ("client.query_p999_us", "us"),
    ("client.publish_p50_us", "us"),
    ("client.publish_p99_us", "us"),
    ("client.publish_drift_ratio", "ratio"),
    ("client.revoke_p50_us", "us"),
    ("client.revoke_p99_us", "us"),
    ("client.revocation_push_p50_us", "us"),
    ("client.revocation_push_p99_us", "us"),
    ("client.query_p50_us_at_low_rate", "us"),
    ("client.query_p99_us_at_low_rate", "us"),
    ("client.query_p50_us_at_high_rate", "us"),
    ("client.query_p99_us_at_high_rate", "us"),
    ("client.disk_bytes_per_delegation", "B"),
    // the open-loop generator
    ("gen.lateness_p99_us", "us"),
    // net.discovery
    ("discovery.grant_p50_us", "us"),
    ("discovery.deny_p50_us", "us"),
    ("discovery.deny_p99_us", "us"),
    ("discovery.grant_remote_p50_us", "us"),
    ("discovery.grant_cached_p50_us", "us"),
    ("discovery.wallets_per_deny", "count"),
    ("discovery.wallets_deny_p90", "count"),
    ("discovery.wallets_per_grant", "count"),
    ("discovery.deny_us_per_wallet", "us"),
    ("discovery.hops_per_query", "count"),
    ("discovery.frames_per_query", "count"),
    ("discovery.rpc_rtt_mean_us", "us"),
    // scenario
    ("scenario.generate_ms", "ms"),
    ("scenario.deploy_ms", "ms"),
    // the cost of looking
    ("obs.stats_scrape_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The metrics of one run, collected by name.
#[derive(Default)]
pub struct MetricSet(Vec<Metric>);

impl MetricSet {
    /// Adds `metric`.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not declare or one added
    /// twice — both are harness bugs the self-test must trip over.
    pub fn push(&mut self, metric: Metric) {
        let declared = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .any(|(n, u)| *n == metric.name && *u == metric.unit);
        assert!(
            declared,
            "undeclared metric {} [{}]",
            metric.name, metric.unit
        );
        assert!(
            self.get(metric.name).is_none(),
            "metric {} reported twice",
            metric.name
        );
        self.0.push(metric);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// The metrics of `table` in catalogue order; a name this run did
    /// not measure reads 0 with no samples.
    pub fn in_order(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|(name, unit)| {
                self.get(name)
                    .cloned()
                    .unwrap_or_else(|| Metric::single(name, unit, 0.0, 0))
            })
            .collect()
    }
}
