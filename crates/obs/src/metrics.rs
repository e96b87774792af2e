//! Lock-sharded metrics registry.
//!
//! Instruments are created (and snapshotted) under a per-shard
//! `RwLock<HashMap<..>>`, but once a handle is held every update is a
//! relaxed atomic operation — hot paths never contend on the registry.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time level that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets. Bucket `b` counts values `v` with
/// `bit_length(v) == b`, i.e. bucket 0 holds 0, bucket 1 holds 1,
/// bucket 2 holds 2..=3, and so on up to `u64::MAX`.
const BUCKETS: usize = 65;

/// Write shards per histogram. Like the registry's name shards, these
/// exist so concurrent recorders (daemon connection handlers, prover
/// pools) do not all hammer one cache line; each thread is striped onto
/// a fixed shard. Snapshots merge the shards deterministically (index
/// order, saturating adds), so the reported totals and quantiles do not
/// depend on which thread recorded where.
const HIST_SHARDS: usize = 8;

/// One write stripe of a [`Histogram`].
struct HistShard {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistShard {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Adds `v` to an atomic with saturation instead of wrap-around, so a
/// sum fed pathological samples (`u64::MAX` nanoseconds) pins at the
/// ceiling rather than lying small.
fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    if v == 0 {
        return;
    }
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// The shard index this thread records into, assigned round-robin on
/// first touch so a thread pool spreads evenly across the stripes.
fn my_shard() -> usize {
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % HIST_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A log₂-bucketed histogram of `u64` observations (typically
/// nanoseconds), write-sharded by thread. Recording is two relaxed
/// atomic adds, one saturating CAS loop, and one max-CAS — all on the
/// recording thread's own stripe, so concurrent recorders do not
/// contend. Bucket math saturates: `0` and `u64::MAX` are valid
/// samples, and overflowing totals pin at `u64::MAX` instead of
/// wrapping or panicking.
pub struct Histogram {
    shards: [HistShard; HIST_SHARDS],
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| HistShard::default()),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        // 0 → bucket 0, u64::MAX → bucket 64: always in range, no
        // shift or index can overflow whatever the sample.
        (64 - value.leading_zeros()) as usize
    }

    /// Upper bound (inclusive) of a bucket, used to report quantiles.
    fn bucket_upper(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else if bucket >= 64 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    pub fn record(&self, value: u64) {
        let shard = &self.shards[my_shard()];
        saturating_fetch_add(&shard.count, 1);
        saturating_fetch_add(&shard.sum, value);
        self.max.fetch_max(value, Ordering::Relaxed);
        shard.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Times a closure and records its wall-clock nanoseconds.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_duration(start.elapsed());
        out
    }

    /// A guard that records elapsed nanoseconds when dropped.
    pub fn start_timer(self: &Arc<Self>) -> HistogramTimer {
        HistogramTimer {
            histogram: Arc::clone(self),
            start: Instant::now(),
        }
    }

    pub fn count(&self) -> u64 {
        self.shards.iter().fold(0u64, |acc, s| {
            acc.saturating_add(s.count.load(Ordering::Relaxed))
        })
    }

    pub fn reset(&self) {
        for shard in &self.shards {
            shard.count.store(0, Ordering::Relaxed);
            shard.sum.store(0, Ordering::Relaxed);
            for b in &shard.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
        self.max.store(0, Ordering::Relaxed);
    }

    /// Merges every write shard (fixed index order, saturating adds —
    /// the result is independent of which threads recorded where) and
    /// summarizes the merged distribution. Quantiles are upper bounds
    /// of the log₂ bucket containing the requested rank.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut sum = 0u64;
        for shard in &self.shards {
            sum = sum.saturating_add(shard.sum.load(Ordering::Relaxed));
            for (merged, b) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *merged = merged.saturating_add(b.load(Ordering::Relaxed));
            }
        }
        let count = buckets.iter().fold(0u64, |acc, n| acc.saturating_add(*n));
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                seen = seen.saturating_add(*n);
                if seen >= rank {
                    return Self::bucket_upper(i);
                }
            }
            Self::bucket_upper(BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum,
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            p999: quantile(0.999),
        }
    }
}

/// A point-in-time summary of a [`Histogram`]. Quantiles are upper bounds
/// of the log₂ bucket containing the requested rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

const SHARDS: usize = 16;

/// A named collection of instruments, sharded by name hash so concurrent
/// handle creation in different subsystems does not contend on one lock.
#[derive(Debug, Default)]
pub struct Registry {
    shards: [RwLock<HashMap<String, Instrument>>; SHARDS],
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Instrument>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: impl Into<String>) -> Arc<Counter> {
        let name = name.into();
        let shard = self.shard(&name);
        if let Some(Instrument::Counter(c)) = shard.read().get(&name) {
            return Arc::clone(c);
        }
        let mut map = shard.write();
        match map
            .entry(name.clone())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: impl Into<String>) -> Arc<Gauge> {
        let name = name.into();
        let shard = self.shard(&name);
        if let Some(Instrument::Gauge(g)) = shard.read().get(&name) {
            return Arc::clone(g);
        }
        let mut map = shard.write();
        match map
            .entry(name.clone())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: impl Into<String>) -> Arc<Histogram> {
        let name = name.into();
        let shard = self.shard(&name);
        if let Some(Instrument::Histogram(h)) = shard.read().get(&name) {
            return Arc::clone(h);
        }
        let mut map = shard.write();
        match map
            .entry(name.clone())
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::default())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Zeroes every instrument. Handles stay valid; concurrent updates are
    /// neither lost wholesale nor double-counted — each in-flight increment
    /// lands either before or after the reset.
    pub fn reset(&self) {
        for shard in &self.shards {
            for instrument in shard.read().values() {
                match instrument {
                    Instrument::Counter(c) => c.reset(),
                    Instrument::Gauge(g) => g.reset(),
                    Instrument::Histogram(h) => h.reset(),
                }
            }
        }
    }

    /// A consistent-enough view of every instrument (each value is read
    /// atomically; the set is whatever is registered at call time).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for shard in &self.shards {
            for (name, instrument) in shard.read().iter() {
                match instrument {
                    Instrument::Counter(c) => {
                        snap.counters.insert(name.clone(), c.get());
                    }
                    Instrument::Gauge(g) => {
                        snap.gauges.insert(name.clone(), g.get());
                    }
                    Instrument::Histogram(h) => {
                        snap.histograms.insert(name.clone(), h.snapshot());
                    }
                }
            }
        }
        snap
    }
}

/// All instrument values at one point in time, name-sorted.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Folds another snapshot in (its entries win on name collision).
    pub fn merge(&mut self, other: Snapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
    }

    /// Counters whose name starts with `prefix`.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// A plain-text table of every instrument, suitable for terminals.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<52} {:>14}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<52} {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<52} {:>14}", "gauge", "value");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{name:<52} {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<52} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean", "p50", "p90", "p99", "p999"
            );
            for (name, h) in &self.histograms {
                // `.ns` histograms hold durations; anything else (batch
                // sizes) is a plain count.
                let show = if name.ends_with(".ns") {
                    format_scaled
                } else {
                    |v: u64| v.to_string()
                };
                let _ = writeln!(
                    out,
                    "{name:<52} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    h.count,
                    show(h.mean() as u64),
                    show(h.p50),
                    show(h.p90),
                    show(h.p99),
                    show(h.p999),
                );
            }
        }
        out
    }
}

/// Renders a nanosecond-scale value with a unit suffix.
fn format_scaled(v: u64) -> String {
    if v < 1_000 {
        format!("{v}ns")
    } else if v < 1_000_000 {
        format!("{:.1}us", v as f64 / 1e3)
    } else if v < 1_000_000_000 {
        format!("{:.1}ms", v as f64 / 1e6)
    } else {
        format!("{:.2}s", v as f64 / 1e9)
    }
}

/// Guard returned by [`Histogram::start_timer`].
pub struct HistogramTimer {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.histogram.record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("drbac.test.ops.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("drbac.test.level.gauge");
        g.set(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        // Same name returns the same instrument.
        assert_eq!(r.counter("drbac.test.ops.count").get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("drbac.test.x");
        r.gauge("drbac.test.x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1107);
        assert_eq!(s.max, 1000);
        // Rank 4 of 7 lands in the bucket holding 2..=3.
        assert_eq!(s.p50, 3);
        // Rank 7 of 7 (both p90 and p99) is the 1000 observation; the
        // reported value is its bucket's upper bound.
        assert!(s.p90 >= 1000 && s.p90 <= 1023);
        assert!(s.p99 >= 1000 && s.p99 <= 1023);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50, 0);
        assert_eq!(s.p99, u64::MAX);
        assert_eq!(s.p999, u64::MAX);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = Histogram::default();
        // Three samples at the ceiling would wrap a naive u64 sum twice
        // over; the histogram must pin at u64::MAX instead.
        for _ in 0..3 {
            h.record(u64::MAX);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, u64::MAX, "sum must saturate, not wrap");
        assert_eq!(s.max, u64::MAX);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn histogram_bucket_math_covers_the_whole_u64_domain() {
        // Every power-of-two boundary (and its neighbours) lands in a
        // bucket without panicking, and the quantile upper bound never
        // undershoots the sample.
        let h = Histogram::default();
        for bit in 0..64u32 {
            let v = 1u64 << bit;
            for sample in [v.saturating_sub(1), v, v.saturating_add(1)] {
                let one = Histogram::default();
                one.record(sample);
                let s = one.snapshot();
                assert_eq!(s.count, 1);
                assert!(s.p50 >= sample, "p50 {} < sample {}", s.p50, sample);
                assert!(s.p999 >= sample);
            }
            h.record(v);
        }
        assert_eq!(h.snapshot().count, 64);
    }

    #[test]
    fn sharded_recording_merges_deterministically() {
        // The same multiset of samples recorded by different thread
        // layouts must yield an identical snapshot: the cross-shard
        // merge is a fixed-order saturating sum, not thread-dependent.
        let samples: Vec<u64> = (0..1000u64).map(|i| i * 37 % 4096).collect();
        let single = Histogram::default();
        for &v in &samples {
            single.record(v);
        }
        let sharded = Arc::new(Histogram::default());
        let workers: Vec<_> = samples
            .chunks(125)
            .map(|chunk| {
                let h = Arc::clone(&sharded);
                let chunk = chunk.to_vec();
                thread::spawn(move || {
                    for v in chunk {
                        h.record(v);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(single.snapshot(), sharded.snapshot());
    }

    #[test]
    fn snapshot_prefix_and_merge() {
        let r = Registry::new();
        r.counter("drbac.a.x.count").add(1);
        r.counter("drbac.a.y.count").add(2);
        r.counter("drbac.b.z.count").add(3);
        let snap = r.snapshot();
        let a: Vec<_> = snap.counters_with_prefix("drbac.a.").collect();
        assert_eq!(a, vec![("drbac.a.x.count", 1), ("drbac.a.y.count", 2)]);

        let other = Registry::new();
        other.counter("drbac.c.w.count").add(9);
        let mut merged = snap.clone();
        merged.merge(other.snapshot());
        assert_eq!(merged.counters.len(), 4);
        assert!(merged.render_table().contains("drbac.c.w.count"));
    }

    #[test]
    fn only_duration_histograms_render_with_time_units() {
        let r = Registry::new();
        r.histogram("drbac.test.op.ns").record(3);
        r.histogram("drbac.test.batch.size").record(3);
        let table = r.snapshot().render_table();
        let row = |name: &str| {
            table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .to_string()
        };
        assert!(row("drbac.test.op.ns").contains("3ns"));
        assert!(!row("drbac.test.batch.size").contains("ns"));
    }

    #[test]
    fn reset_under_concurrent_traffic_is_safe() {
        let r = Arc::new(Registry::new());
        let c = r.counter("drbac.test.traffic.count");
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for _ in 0..100 {
            r.reset();
        }
        for w in writers {
            w.join().unwrap();
        }
        // Whatever survived the last reset is bounded by total traffic.
        assert!(c.get() <= 40_000);
    }

    #[test]
    fn timer_records() {
        let r = Registry::new();
        let h = r.histogram("drbac.test.op.ns");
        {
            let _t = h.start_timer();
        }
        h.time(|| ());
        assert_eq!(h.count(), 2);
    }
}
