//! Observability substrate for the dRBAC workspace.
//!
//! Two cooperating halves:
//!
//! * [`metrics`] — a lock-sharded [`metrics::Registry`] of always-on atomic
//!   [`metrics::Counter`]s, [`metrics::Gauge`]s, and log-bucketed
//!   [`metrics::Histogram`]s with p50/p90/p99 summaries. Incrementing an
//!   instrument is a relaxed atomic op; the registry lock is only taken to
//!   create or snapshot instruments.
//! * [`trace`] — a span/event facade over a pluggable [`trace::Recorder`].
//!   With no recorder installed (the default), [`span!`] and [`event!`]
//!   reduce to one relaxed atomic load and never evaluate their fields,
//!   so instrumented hot paths stay near-zero cost.
//!
//! # Metric naming convention
//!
//! `drbac.<crate>.<op>.<unit>` — e.g. `drbac.core.proof.validate.ns`
//! (histogram of nanoseconds), `drbac.wallet.query.cache_hit.count`
//! (counter), `drbac.net.sim.bytes.total` (counter of wire-frame bytes,
//! header included). Units:
//! `.count` monotonic counts, `.total` monotonic sums of a quantity,
//! `.ns` latency histograms in nanoseconds, `.gauge` point-in-time levels.
//!
//! # Adding a new instrument
//!
//! Use the `static_*!` macros to bind a name to a cached handle on the
//! [`global()`] registry once, then hit the handle on the hot path:
//!
//! ```
//! drbac_obs::static_counter!("drbac.example.op.count").inc();
//! let _timer = drbac_obs::static_histogram!("drbac.example.op.ns").start_timer();
//! ```
//!
//! Subsystems that need isolated accounting (e.g. each simulated network)
//! create their own [`metrics::Registry`] instead of using [`global()`].

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use trace::{
    clear_current_trace, clear_recorder, current_trace_id, enabled, install_recorder,
    set_current_trace, FieldValue, JsonlFileRecorder, Recorder, RingRecorder, Span, TraceEvent,
    TraceKind,
};

use std::sync::OnceLock;

/// The process-wide default registry. Crate-level instrumentation
/// (proof validation, wallets, discovery) records here.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A counter handle on [`global()`], resolved once and cached in a static.
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// A gauge handle on [`global()`], resolved once and cached in a static.
#[macro_export]
macro_rules! static_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// A histogram handle on [`global()`], resolved once and cached in a static.
#[macro_export]
macro_rules! static_histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// Opens a span guard. Fields are only evaluated while a recorder is
/// installed; the guard emits a `SpanEnd` with elapsed nanoseconds on drop.
///
/// ```
/// let _span = drbac_obs::span!("drbac.example.op", "depth" => 3u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::Span::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:literal => $value:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::Span::enter(
                $name,
                vec![$(($key, $crate::trace::FieldValue::from($value))),+],
            )
        } else {
            $crate::trace::Span::disabled()
        }
    };
}

/// Emits a point event. Fields are only evaluated while a recorder is
/// installed.
///
/// ```
/// drbac_obs::event!("drbac.example.hop", "wallet" => "w1");
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::trace::emit_event($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:literal => $value:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::emit_event(
                $name,
                vec![$(($key, $crate::trace::FieldValue::from($value))),+],
            );
        }
    };
}
