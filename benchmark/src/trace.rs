//! Harness-side spans and the layer ledger built from them.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! it makes into each layer (spans inside the program are a later
//! change). All spans of one request share its root; they stay in
//! memory and are written out once, when the run ends.
//!
//! A layer's **self time** is its span's duration minus the part its
//! child spans cover. The ledger gives, per op kind, the median self
//! time of every layer, their sum, and what is left of the
//! client-observed median: the socket remainder.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::{json_str, percentile};

/// Spans written to the JSONL file; the ledger is computed from all of
/// them, the file keeps the first ones so it stays a few megabytes.
const FILE_SPAN_CAP: usize = 50_000;

/// One recorded interval. `parent == 0` marks a request's root span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    /// The root span's id: shared by every span of one request.
    request: u32,
    name: &'static str,
    kind: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An open root span that child spans attach to: a live request, or
/// the later in-process replay of one (same `request` id).
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    id: u32,
    request: u32,
    name: &'static str,
    kind: &'static str,
    start_ns: u64,
}

/// The in-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Opens the root span of one request of op kind `kind`.
    pub fn begin_request(&mut self, kind: &'static str) -> RequestSpan {
        let id = self.fresh_id();
        RequestSpan {
            id,
            request: id,
            name: "request",
            kind,
            start_ns: self.now_ns(),
        }
    }

    /// Opens the root span of the in-process replay of `live`, sharing
    /// its request id.
    pub fn begin_replay(&mut self, live: &RequestSpan) -> RequestSpan {
        RequestSpan {
            id: self.fresh_id(),
            request: live.request,
            name: "replay",
            kind: live.kind,
            start_ns: self.now_ns(),
        }
    }

    /// Times `f` as a child span `name` of the root `req`.
    pub fn child<T>(&mut self, req: &RequestSpan, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.fresh_id();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: req.id,
            request: req.request,
            name,
            kind: req.kind,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records an already-measured child interval of `dur_ns` ending
    /// now (for work timed by someone else, e.g. a soak's per-query
    /// wall time).
    pub fn child_measured(&mut self, req: &RequestSpan, name: &'static str, dur_ns: u64) {
        let id = self.fresh_id();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: req.id,
            request: req.request,
            name,
            kind: req.kind,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
        });
    }

    /// Closes a root span.
    pub fn end(&mut self, req: RequestSpan) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: req.id,
            parent: 0,
            request: req.request,
            name: req.name,
            kind: req.kind,
            start_ns: req.start_ns,
            end_ns,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as JSON lines (`id`, `parent`, `request`,
    /// `name`, `kind`, `start_ns`, `end_ns`), capped at
    /// [`FILE_SPAN_CAP`] with a closing line stating what was left out.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(FILE_SPAN_CAP) {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"kind\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.request,
                json_str(s.name),
                json_str(s.kind),
                s.start_ns,
                s.end_ns
            )?;
        }
        if self.spans.len() > FILE_SPAN_CAP {
            writeln!(
                w,
                "{{\"truncated\": true, \"spans_recorded\": {}, \"spans_written\": {}}}",
                self.spans.len(),
                FILE_SPAN_CAP
            )?;
        }
        w.flush()
    }

    /// Median self time, in ns, of every `(op kind, span name)`.
    pub fn self_times(&self) -> SelfTimes {
        let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<(&'static str, &'static str), Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            by_layer.entry((s.kind, s.name)).or_default().push(own);
        }
        by_layer
            .into_iter()
            .map(|(key, mut v)| {
                v.sort_unstable();
                (
                    key,
                    SelfTime {
                        p50_ns: percentile(&v, 0.5),
                        samples: v.len(),
                    },
                )
            })
            .collect()
    }
}

/// Median self times by `(op kind, span name)`.
pub type SelfTimes = BTreeMap<(&'static str, &'static str), SelfTime>;

/// Median self time of one layer for one op kind.
#[derive(Debug, Clone, Copy)]
pub struct SelfTime {
    pub p50_ns: u64,
    pub samples: usize,
}

/// The per-op-kind ledger: layer self times, their sum, and the
/// remainder of the client-observed median.
pub struct Ledger {
    pub kind: &'static str,
    pub client_p50_ns: u64,
    pub layers: Vec<(&'static str, SelfTime)>,
}

impl Ledger {
    /// Builds the ledger of `kind` from the layers named in `names`
    /// (spans that are only containers or informational siblings are
    /// left out by the caller).
    pub fn build(
        kind: &'static str,
        client_p50_ns: u64,
        self_times: &SelfTimes,
        names: &[&'static str],
    ) -> Ledger {
        Ledger {
            kind,
            client_p50_ns,
            layers: names
                .iter()
                .filter_map(|n| self_times.get(&(kind, *n)).map(|st| (*n, *st)))
                .collect(),
        }
    }

    pub fn layer_sum_ns(&self) -> u64 {
        self.layers.iter().map(|(_, st)| st.p50_ns).sum()
    }

    /// Client-observed median minus every layer's self time: the time
    /// spent in sockets, the kernel and scheduling, which no layer of
    /// the program accounts for. Negative when the layers, replayed
    /// back to back in one process, cost more than the live exchange.
    pub fn remainder_ns(&self) -> i64 {
        self.client_p50_ns as i64 - self.layer_sum_ns() as i64
    }

    /// The ledger as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!("ledger [{}]  (median self time per op)\n", self.kind);
        for (name, st) in &self.layers {
            out.push_str(&format!(
                "  {:<28} {:>10.3} us  ({} samples)\n",
                name,
                st.p50_ns as f64 / 1e3,
                st.samples
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:>10.3} us\n  {:<28} {:>10.3} us\n  {:<28} {:>10.3} us\n",
            "= layer sum",
            self.layer_sum_ns() as f64 / 1e3,
            "+ client.socket_remainder",
            self.remainder_ns() as f64 / 1e3,
            "= client-observed p50",
            self.client_p50_ns as f64 / 1e3
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ledger_sums_to_client() {
        let mut t = Tracer::new();
        let req = t.begin_request("query");
        t.child(&req, "outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.child_measured(&req, "inner", 1_000_000);
        t.end(req);
        let replay = t.begin_replay(&req);
        t.end(replay);
        let st = t.self_times();
        assert!(st[&("query", "outer")].p50_ns >= 2_000_000);
        assert_eq!(st[&("query", "inner")].p50_ns, 1_000_000);
        // The root's self time excludes what its children cover.
        let root = t.spans.iter().find(|s| s.name == "request").unwrap();
        assert!(st[&("query", "request")].p50_ns <= root.end_ns - root.start_ns - 3_000_000);
        assert!(t.spans.iter().all(|s| s.request == req.request));

        let ledger = Ledger::build("query", 10_000_000, &st, &["outer", "inner", "absent"]);
        assert_eq!(ledger.layers.len(), 2);
        assert_eq!(
            ledger.layer_sum_ns() as i64 + ledger.remainder_ns(),
            ledger.client_p50_ns as i64
        );
    }
}
