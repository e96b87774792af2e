//! The transport abstraction discovery runs over.
//!
//! [`DiscoveryAgent`](crate::DiscoveryAgent) only needs request/reply
//! delivery to named wallets. [`crate::SimNet`] provides it
//! deterministically for tests and experiments, and
//! [`crate::TcpTransport`] provides it over sockets against a
//! [`crate::WalletDaemon`] — same algorithm, and behind both the same
//! wallet host answering.
//!
//! [`RetryPolicy`] is transport-blind: it retries exactly the errors
//! [`NetError::is_retryable`] marks transient (`Timeout`, `HostDown`)
//! and spends its backoff through [`Transport::backoff`], which
//! advances the simulated clock on [`crate::SimNet`] and really sleeps
//! on [`crate::TcpTransport`].

use drbac_core::{Ticks, WalletAddr};

use crate::proto::{Reply, Request};
use crate::sim::{NetError, SimNet};

/// Request/reply delivery to named wallet hosts.
pub trait Transport: Send + Sync {
    /// Sends `req` to the wallet at `to` and waits for its reply.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the host is unknown or unreachable, or the
    /// request timed out in transit.
    fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError>;

    /// Sends every request of `batch` and yields one result per entry,
    /// in entry order. This default is sequential *and lazy*: entry `i`
    /// goes out only when the caller asks for result `i`, so a caller
    /// that stops reading (discovery found its proof) sends nothing
    /// speculative. A transport with real latency overrides it to put
    /// the whole batch on the wire before the first reply is awaited
    /// ([`crate::TcpTransport`]: one coalesced write per destination).
    ///
    /// Each entry fails on its own; callers continue a failed entry's
    /// retry schedule with [`RetryPolicy::resume`].
    fn request_batch<'a>(
        &'a self,
        batch: &'a [(WalletAddr, Request)],
    ) -> Box<dyn Iterator<Item = Result<Reply, NetError>> + 'a> {
        Box::new(batch.iter().map(|(to, req)| self.request(to, req.clone())))
    }

    /// Waits out a retry backoff delay. Transports with a notion of
    /// simulated time advance their clock; the default is a no-op
    /// (real transports would sleep).
    fn backoff(&self, delay: Ticks) {
        let _ = delay;
    }
}

/// Shared transports delegate through the smart pointer, so an
/// `Arc<TcpTransport>` can feed a [`DiscoveryAgent`](crate::DiscoveryAgent)
/// while clones of it keep serving subscriber links.
impl<T: Transport + ?Sized> Transport for std::sync::Arc<T> {
    fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError> {
        (**self).request(to, req)
    }

    fn request_batch<'a>(
        &'a self,
        batch: &'a [(WalletAddr, Request)],
    ) -> Box<dyn Iterator<Item = Result<Reply, NetError>> + 'a> {
        (**self).request_batch(batch)
    }

    fn backoff(&self, delay: Ticks) {
        (**self).backoff(delay);
    }
}

impl Transport for SimNet {
    fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError> {
        SimNet::request(self, to, req)
    }

    fn backoff(&self, delay: Ticks) {
        self.clock().advance(delay);
    }
}

/// Bounded retry with deterministic exponential backoff for transient
/// transport failures ([`NetError::is_retryable`]). Attempt `n` (1-based)
/// is preceded by a backoff of `base_backoff << (n - 2)` ticks, spent via
/// [`Transport::backoff`] — so the schedule is a pure function of the
/// policy, never of wall-clock randomness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (0 is treated as 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Ticks,
}

/// What a retried request produced: the final reply (or the last error,
/// once the policy is exhausted) plus how many attempts it took.
#[derive(Debug, Clone)]
pub struct RetryOutcome {
    /// Reply from the last attempt.
    pub reply: Result<Reply, NetError>,
    /// Attempts actually made (1 = clean first try).
    pub attempts: u32,
}

impl RetryOutcome {
    /// `true` when the request did not complete cleanly on the first
    /// attempt — it needed retries or failed outright. Feeds the
    /// `degraded` flag on [`crate::DiscoveryOutcome`].
    pub fn degraded(&self) -> bool {
        self.attempts > 1 || self.reply.is_err()
    }
}

impl RetryPolicy {
    /// No retries: a single attempt, fail fast.
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Ticks(0),
        }
    }

    /// The default resilience posture: up to 3 attempts (2 retries)
    /// backing off 1 then 2 ticks.
    pub const fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Ticks(1),
        }
    }

    /// Sends `req`, retrying transient failures up to the policy's
    /// attempt budget. Each retry increments the global
    /// `drbac.net.retry.count` counter. Non-retryable errors
    /// ([`NetError::UnknownHost`]) and successful replies return
    /// immediately.
    pub fn run(&self, transport: &dyn Transport, to: &WalletAddr, req: &Request) -> RetryOutcome {
        self.resume(transport, to, req, transport.request(to, req.clone()))
    }

    /// Continues the schedule after a first attempt made elsewhere —
    /// an entry of [`Transport::request_batch`] — so a batched request
    /// spends exactly the attempts and backoffs a lone one would.
    pub fn resume(
        &self,
        transport: &dyn Transport,
        to: &WalletAddr,
        req: &Request,
        first: Result<Reply, NetError>,
    ) -> RetryOutcome {
        let max_attempts = self.max_attempts.max(1);
        let mut attempts = 1;
        let mut reply = first;
        loop {
            match &reply {
                Ok(_) => return RetryOutcome { reply, attempts },
                Err(e) if !e.is_retryable() || attempts >= max_attempts => {
                    return RetryOutcome { reply, attempts };
                }
                Err(_) => {
                    drbac_obs::static_counter!("drbac.net.retry.count").inc();
                    drbac_obs::event!(
                        "drbac.net.retry",
                        "to" => to.to_string(),
                        "attempt" => attempts.to_string(),
                    );
                    // Saturate rather than shift-overflow: a policy with a
                    // huge attempt budget must not panic once the exponent
                    // reaches the width of the tick counter.
                    let exponent = (attempts - 1).min(63);
                    transport.backoff(Ticks(self.base_backoff.0.saturating_mul(1u64 << exponent)));
                }
            }
            attempts += 1;
            reply = transport.request(to, req.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::SimClock;
    use drbac_wallet::Wallet;

    /// Fails the first `failures` requests with a retryable error, then
    /// answers every request with `Reply::Subscribed`.
    struct Flaky {
        failures: std::sync::atomic::AtomicU32,
    }

    impl Transport for Flaky {
        fn request(&self, to: &WalletAddr, _req: Request) -> Result<Reply, NetError> {
            use std::sync::atomic::Ordering;
            let left = self.failures.load(Ordering::SeqCst);
            if left > 0 {
                self.failures.store(left - 1, Ordering::SeqCst);
                return Err(NetError::Timeout(to.clone()));
            }
            Ok(Reply::Subscribed)
        }
    }

    #[test]
    fn retry_recovers_from_transient_timeouts() {
        let flaky = Flaky {
            failures: 2.into(),
        };
        let outcome = RetryPolicy::standard().run(&flaky, &"w1".into(), &Request::FetchDeclarations);
        assert!(matches!(outcome.reply, Ok(Reply::Subscribed)));
        assert_eq!(outcome.attempts, 3);
        assert!(outcome.degraded(), "needed retries");

        // A clean first try is not degraded.
        let outcome = RetryPolicy::standard().run(&flaky, &"w1".into(), &Request::FetchDeclarations);
        assert_eq!(outcome.attempts, 1);
        assert!(!outcome.degraded());
    }

    #[test]
    fn retry_budget_exhausts_and_reports_failure() {
        let flaky = Flaky {
            failures: 100.into(),
        };
        let outcome = RetryPolicy::standard().run(&flaky, &"w1".into(), &Request::FetchDeclarations);
        assert!(matches!(outcome.reply, Err(NetError::Timeout(_))));
        assert_eq!(outcome.attempts, 3, "policy allows exactly 3 attempts");
        assert!(outcome.degraded());
    }

    #[test]
    fn unknown_host_is_not_retried() {
        struct NoSuchHost;
        impl Transport for NoSuchHost {
            fn request(&self, to: &WalletAddr, _req: Request) -> Result<Reply, NetError> {
                Err(NetError::UnknownHost(to.clone()))
            }
        }
        let outcome =
            RetryPolicy::standard().run(&NoSuchHost, &"w1".into(), &Request::FetchDeclarations);
        assert!(matches!(outcome.reply, Err(NetError::UnknownHost(_))));
        assert_eq!(outcome.attempts, 1, "permanent errors fail fast");
    }

    #[test]
    fn backoff_spends_simulated_time_on_simnet() {
        use drbac_core::Ticks;
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), Ticks(1));
        net.add_host("w1", Wallet::new("w1", clock.clone()));
        net.partition_host(&"w1".into());
        let outcome = RetryPolicy::standard().run(&net, &"w1".into(), &Request::FetchDeclarations);
        assert!(matches!(outcome.reply, Err(NetError::Timeout(_))));
        // 3 attempts × 4-tick default timeout budget + backoffs of 1 and
        // 2 ticks between them.
        assert_eq!(clock.now().0, 3 * 4 + 1 + 2);
    }
}
