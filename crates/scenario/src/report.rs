//! Soak run reports: per-query records, latency summaries, and the
//! deterministic digests used for cross-substrate parity checks.

/// FNV-1a offset basis (64-bit).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends an FNV-1a 64-bit hash with `bytes`.
pub(crate) fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV_OFFSET, bytes)
}

/// Order statistics over a set of samples (nanoseconds, ticks, or
/// wallet counts — the unit is the caller's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// 50th percentile.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes `samples` (consumed: sorted in place).
    pub fn from_samples(mut samples: Vec<u64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let pick = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
        LatencySummary {
            count: samples.len(),
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// The observed outcome of one scheduled query.
#[derive(Debug, Clone, Copy)]
pub struct QueryRecord {
    /// Whether the decision must match the oracle exactly (see
    /// [`crate::QuerySpec::strict`]).
    pub strict: bool,
    /// Whether distributed discovery produced a proof.
    pub granted: bool,
    /// Whether the oracle holds a proof at this schedule position.
    pub oracle_granted: bool,
    /// Whether the discovery run was degraded (timeouts, expired tags,
    /// skipped wallets) — degraded misses are tolerated under chaos.
    pub degraded: bool,
    /// Wallets contacted during discovery.
    pub wallets_contacted: usize,
    /// Wall-clock latency of the discovery call, in nanoseconds.
    /// Excluded from all determinism digests.
    pub wall_ns: u64,
    /// FNV digest of the discovered proof's wire bytes, if granted.
    pub proof_digest: Option<u64>,
}

impl QueryRecord {
    /// A strict query whose decision diverged from the oracle.
    pub fn mismatch(&self) -> bool {
        self.strict && self.granted != self.oracle_granted
    }

    /// How the query ended, for cost accounting.
    pub fn decision(&self) -> Decision {
        match (self.degraded, self.granted) {
            (true, _) => Decision::Degraded,
            (false, true) => Decision::Grant,
            (false, false) => Decision::Deny,
        }
    }
}

/// The three ways a query ends, which cost very different amounts: a
/// grant stops at the first proof, a denial exhausts the frontier, and
/// a degraded run (either answer) also paid for retries and timeouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// A proof was found on a clean run.
    Grant,
    /// No proof exists, established on a clean run.
    Deny,
    /// Some hop retried, timed out or was skipped.
    Degraded,
}

impl Decision {
    /// All three, in reporting order.
    pub const ALL: [Decision; 3] = [Decision::Grant, Decision::Deny, Decision::Degraded];

    /// Lower-case name, as recorded in `BENCH_federation.json`.
    pub fn name(self) -> &'static str {
        match self {
            Decision::Grant => "grant",
            Decision::Deny => "deny",
            Decision::Degraded => "degraded",
        }
    }
}

/// Everything a soak run observed, per scenario × substrate.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Family name (see [`crate::Family::name`]).
    pub family: String,
    /// World seed.
    pub seed: u64,
    /// `"simnet"`, `"simnet+chaos"`, or `"tcp"`.
    pub substrate: String,
    /// Org wallets in the federation.
    pub wallets: usize,
    /// Delegations published.
    pub publishes: usize,
    /// Attribute declarations published.
    pub declarations: usize,
    /// Revocations issued.
    pub revocations: usize,
    /// Per-query outcomes, in schedule order.
    pub records: Vec<QueryRecord>,
    /// Grants that failed validation, endpoint, or constraint checks —
    /// must be 0 on every substrate, chaos included.
    pub unsound: usize,
    /// Proof monitors opened by granted queries.
    pub monitors_opened: usize,
    /// Monitors whose proof used a delegation that was later revoked —
    /// each of these sessions must terminate.
    pub monitors_expected_dead: usize,
    /// Expected-dead monitors that outlived the push path and were only
    /// terminated by the pull-based revalidation sweep (missed pushes —
    /// e.g. a crashed home lost its subscriber registry).
    pub monitors_repaired: usize,
    /// Expected-dead monitors still alive after push *and* the recovery
    /// sweep — must be 0.
    pub termination_failures: usize,
    /// Live monitors wrongly terminated (no revoked dependency) — must
    /// be 0.
    pub spurious_terminations: usize,
    /// Revocation propagation lag samples: per applied revocation, how
    /// long until the gateway observed it (ticks on SimNet, ns on TCP).
    pub revocation_lag: LatencySummary,
    /// Messages on the wire (SimNet substrates only; 0 over TCP).
    pub total_messages: u64,
    /// Push messages (SimNet substrates only).
    pub push_messages: u64,
    /// Request timeouts (SimNet substrates only).
    pub timeouts: u64,
    /// Publish/revoke deliveries that needed more than one attempt
    /// (reliable delivery under loss).
    pub retried_ops: u64,
}

impl SoakReport {
    /// Queries granted.
    pub fn grants(&self) -> usize {
        self.records.iter().filter(|r| r.granted).count()
    }

    /// Queries denied.
    pub fn denials(&self) -> usize {
        self.records.len() - self.grants()
    }

    /// Strict divergences from the oracle on *non-degraded* queries —
    /// the hard oracle-equivalence bar; must be 0 on every substrate.
    pub fn hard_mismatches(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.mismatch() && !r.degraded)
            .count()
    }

    /// Strict divergences on degraded queries (tolerated under chaos:
    /// a partitioned or lossy path legitimately hides credentials, and
    /// the outcome says so via the degraded flag).
    pub fn degraded_mismatches(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.mismatch() && r.degraded)
            .count()
    }

    /// Fraction of queries flagged degraded.
    pub fn degraded_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let d = self.records.iter().filter(|r| r.degraded).count();
        d as f64 / self.records.len() as f64
    }

    /// Wall-clock discovery latency percentiles (ns).
    pub fn latency(&self) -> LatencySummary {
        LatencySummary::from_samples(self.records.iter().map(|r| r.wall_ns).collect())
    }

    /// Wallets-contacted percentiles.
    pub fn wallets_contacted(&self) -> LatencySummary {
        LatencySummary::from_samples(
            self.records
                .iter()
                .map(|r| r.wallets_contacted as u64)
                .collect(),
        )
    }

    /// [`latency`](Self::latency) over the queries that ended in
    /// `decision`.
    pub fn latency_of(&self, decision: Decision) -> LatencySummary {
        self.summary_of(decision, |r| r.wall_ns)
    }

    /// [`wallets_contacted`](Self::wallets_contacted) over the queries
    /// that ended in `decision`.
    pub fn wallets_contacted_of(&self, decision: Decision) -> LatencySummary {
        self.summary_of(decision, |r| r.wallets_contacted as u64)
    }

    fn summary_of(&self, decision: Decision, sample: fn(&QueryRecord) -> u64) -> LatencySummary {
        LatencySummary::from_samples(
            self.records
                .iter()
                .filter(|r| r.decision() == decision)
                .map(sample)
                .collect(),
        )
    }

    /// Digest over the deterministic core of the run: per query, the
    /// strictness, decision, oracle decision, and proof bytes digest.
    /// Wall-clock timings are excluded, so two runs of the same
    /// schedule — even on different substrates — must produce equal
    /// digests when discovery behaves identically (the byte-identical
    /// proof parity check).
    pub fn decision_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for r in &self.records {
            h = fnv64_extend(
                h,
                &[
                    u8::from(r.strict),
                    u8::from(r.granted),
                    u8::from(r.oracle_granted),
                ],
            );
            h = fnv64_extend(h, &r.proof_digest.unwrap_or(0).to_le_bytes());
        }
        h
    }

    /// The per-query proof digests (None = denial), for fine-grained
    /// cross-substrate comparison in tests.
    pub fn proof_digests(&self) -> Vec<Option<u64>> {
        self.records.iter().map(|r| r.proof_digest).collect()
    }
}
