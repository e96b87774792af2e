//! The load generator's client side: op kinds, the correctness oracle,
//! per-round latency records, and the two ways one strict request is
//! issued — through `Transport::request` (what every product caller
//! does; all end-to-end numbers) and, in traced rounds, the same
//! exchange spelled out over a raw connection so each step gets a span.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use drbac::core::{Proof, ProofValidator, Timestamp, ValidationContext, WalletAddr};
use drbac::net::proto::{Reply, Request};
use drbac::net::wire::{self, FrameKind};
use drbac::net::{NetError, TcpTransport, Transport};

use crate::deploy::ProcSample;
use crate::replay::Pending;
use crate::stats::{percentile, us, Better, Metric};
use crate::trace::{RequestSpan, Tracer};
use crate::world::Query;

/// What a request is, for latency bookkeeping and the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// First touch of a pair on a freshly booted, lazily hydrated wallet.
    QueryCold,
    QueryGrant,
    QueryDeny,
    /// A query on one of the mix client's own publishes, live or
    /// revoked: first asked right after the write, so mostly a cache
    /// miss — kept apart from the ladder queries it would skew.
    QueryOwn,
    /// One op of a pipelined window, costed at the window's time over
    /// its size: the per-op cost at saturation.
    PipelinedOp,
    Publish,
    Revoke,
    Subscribe,
    /// `Revoke` sent → the subscriber's wallet sees the invalidation.
    Push,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::QueryCold => "query-cold",
            Kind::QueryGrant => "query-grant",
            Kind::QueryDeny => "query-deny",
            Kind::QueryOwn => "query-own",
            Kind::PipelinedOp => "pipelined-op",
            Kind::Publish => "publish",
            Kind::Revoke => "revoke",
            Kind::Subscribe => "subscribe",
            Kind::Push => "push",
        }
    }

    pub fn of_query(q: &Query) -> Kind {
        if q.expect_grant {
            Kind::QueryGrant
        } else {
            Kind::QueryDeny
        }
    }
}

/// Every `PROOF_SAMPLE`-th granted proof is kept and fully validated
/// (signatures, chaining, endpoints) off the clock.
const PROOF_SAMPLE: u64 = 64;

/// Checks every reply against the generator's ground truth and counts
/// what was attempted and what failed. A failed, refused or
/// wrong-decision op is a failure whatever its latency.
#[derive(Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    grants_seen: u64,
    sampled: Vec<Proof>,
    /// Encoded sizes of the sampled proofs.
    pub proof_bytes: Vec<u64>,
    /// Time to validate each sampled proof as it came off the wire
    /// (signature memo cold).
    pub validate_ns: Vec<u64>,
    /// First few failure descriptions, for the operator.
    pub notes: Vec<String>,
}

impl Oracle {
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    /// Judges the reply to query `q`.
    pub fn check_query(&mut self, q: &Query, reply: Result<Reply, NetError>) {
        self.attempted += 1;
        match reply {
            Ok(Reply::Proofs(proofs)) => match (q.expect_grant, proofs.into_iter().next()) {
                (true, Some(proof)) => {
                    if proof.subject() != &q.subject || proof.object() != &q.object {
                        self.fail(|| {
                            format!("proof endpoints differ from {} => {}", q.subject, q.object)
                        });
                    }
                    self.grants_seen += 1;
                    if self.grants_seen.is_multiple_of(PROOF_SAMPLE) {
                        self.sampled.push(proof);
                    }
                }
                (false, None) => {}
                (true, None) => {
                    self.fail(|| format!("denied provable {} => {}", q.subject, q.object))
                }
                (false, Some(_)) => {
                    self.fail(|| format!("granted unprovable {} => {}", q.subject, q.object))
                }
            },
            Ok(other) => self.fail(|| format!("query answered with {other:?}")),
            Err(e) => self.fail(|| format!("query failed: {e}")),
        }
    }

    /// Judges a write acknowledgement; `true` when the daemon acked.
    pub fn check_ack(&mut self, what: &str, reply: Result<Reply, NetError>) -> bool {
        self.attempted += 1;
        match reply {
            Ok(Reply::Published(_) | Reply::Revoked(_) | Reply::Subscribed) => true,
            Ok(other) => {
                self.fail(|| format!("{what} answered with {other:?}"));
                false
            }
            Err(e) => {
                self.fail(|| format!("{what} failed: {e}"));
                false
            }
        }
    }

    /// Validates the sampled proofs (off the clock) and forgets them.
    pub fn validate_sampled(&mut self) {
        let validator = ProofValidator::new(ValidationContext::at(Timestamp(0)));
        for proof in std::mem::take(&mut self.sampled) {
            self.proof_bytes.push(proof.to_bytes().len() as u64);
            let t = Instant::now();
            let verdict = validator.validate(&proof);
            self.validate_ns.push(t.elapsed().as_nanos() as u64);
            if let Err(e) = verdict {
                self.fail(|| format!("granted proof does not validate: {e}"));
            }
        }
    }

    pub fn merge(&mut self, other: Oracle) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.grants_seen += other.grants_seen;
        self.sampled.extend(other.sampled);
        self.proof_bytes.extend(other.proof_bytes);
        self.validate_ns.extend(other.validate_ns);
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// The latencies and costs of one round.
#[derive(Default)]
pub struct Round {
    /// Whether harness spans were on.
    pub traced: bool,
    pub wall: Duration,
    pub ops: usize,
    /// Client-observed latencies in ns, by kind; sorted by [`Round::seal`].
    lat: BTreeMap<Kind, Vec<u64>>,
    /// On-CPU time and context switches of client and daemon.
    pub client: ProcSample,
    pub daemon: ProcSample,
}

impl Round {
    pub fn record(&mut self, kind: Kind, ns: u64) {
        self.lat.entry(kind).or_default().push(ns);
    }

    /// Sorts the samples; call once when the round ends.
    pub fn seal(&mut self) {
        for v in self.lat.values_mut() {
            v.sort_unstable();
        }
    }

    pub fn samples(&self, kind: Kind) -> &[u64] {
        self.lat.get(&kind).map_or(&[], Vec::as_slice)
    }

    /// The round's latencies of queries drawn from the read mix
    /// (grants and denials), sorted.
    pub fn queries(&self) -> Vec<u64> {
        let mut all: Vec<u64> = [Kind::QueryGrant, Kind::QueryDeny]
            .iter()
            .flat_map(|k| self.samples(*k).iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// Runs `body` as one round, filling in wall time and the CPU and
/// context-switch deltas of both processes.
pub fn timed_round(daemon_pid: Option<u32>, traced: bool, body: impl FnOnce(&mut Round)) -> Round {
    let mut round = Round {
        traced,
        ..Round::default()
    };
    let (c0, d0) = (
        ProcSample::read(None),
        daemon_pid.map(|p| ProcSample::read(Some(p))),
    );
    let start = Instant::now();
    body(&mut round);
    round.wall = start.elapsed();
    round.client = ProcSample::read(None).since(&c0);
    if let (Some(pid), Some(d0)) = (daemon_pid, d0) {
        round.daemon = ProcSample::read(Some(pid)).since(&d0);
    }
    round.seal();
    round
}

/// The best quartile over `rounds` of the `p`-quantile of
/// `pick(round)`, in µs.
pub fn quantile_metric(
    name: &'static str,
    rounds: &[&Round],
    p: f64,
    pick: impl Fn(&Round) -> Vec<u64>,
) -> Metric {
    let per_round: Vec<(f64, usize)> = rounds
        .iter()
        .map(|r| pick(r))
        .filter(|v| !v.is_empty())
        .map(|v| (us(percentile(&v, p)), v.len()))
        .collect();
    Metric::over_rounds(name, "us", Better::Lower, &per_round)
}

/// As [`quantile_metric`] for one op kind.
pub fn kind_metric(name: &'static str, rounds: &[&Round], kind: Kind, p: f64) -> Metric {
    quantile_metric(name, rounds, p, |r| r.samples(kind).to_vec())
}

/// The strict connection of one round: `Transport::request`, the way
/// product callers issue a request, or — with a tracer — the same
/// exchange spelled out over a raw connection with a span per step,
/// every op queued for replay.
pub struct StrictConn<'a> {
    transport: &'a TcpTransport,
    to: &'a WalletAddr,
    traced: Option<(&'a mut Tracer, TcpStream)>,
    /// Ops waiting for the replica, in the order they were issued.
    pub pending: Vec<Pending>,
}

impl<'a> StrictConn<'a> {
    pub fn open(
        transport: &'a TcpTransport,
        to: &'a WalletAddr,
        tracer: Option<&'a mut Tracer>,
    ) -> Result<StrictConn<'a>, String> {
        let traced = match tracer {
            Some(t) => Some((
                t,
                transport
                    .connect_raw(to)
                    .map_err(|e| format!("raw connect: {e}"))?,
            )),
            None => None,
        };
        Ok(StrictConn {
            transport,
            to,
            traced,
            pending: Vec::new(),
        })
    }

    pub fn is_traced(&self) -> bool {
        self.traced.is_some()
    }

    /// Issues `req` and returns the reply with its latency in ns.
    pub fn request(&mut self, kind: Kind, req: Request) -> (Result<Reply, NetError>, u64) {
        match &mut self.traced {
            Some((tracer, stream)) => {
                let span = tracer.begin_request(kind.name());
                let (reply, ns, payload) = strict_traced(stream, &req, tracer, &span);
                tracer.end(span);
                self.pending.push(Pending {
                    span: Some(span),
                    req,
                    payload: Some(payload),
                });
                (reply, ns)
            }
            None => {
                let t = Instant::now();
                let reply = self.transport.request(self.to, req);
                (reply, t.elapsed().as_nanos() as u64)
            }
        }
    }
}

/// The strict exchange of [`TcpTransport`] spelled out step by step
/// over one raw connection, each step a child span of `req_span`:
/// `wire.encode_request` → `tcp.send` → `tcp.wait_reply` →
/// `wire.decode_reply`. Returns the reply, the exchange's total time
/// and the encoded request (for the replay).
fn strict_traced(
    stream: &mut TcpStream,
    req: &Request,
    tracer: &mut Tracer,
    req_span: &RequestSpan,
) -> (Result<Reply, NetError>, u64, Vec<u8>) {
    let t = Instant::now();
    let payload = tracer.child(req_span, "wire.encode_request", || {
        wire::encode_request(req)
    });
    let sent = tracer.child(req_span, "tcp.send", || {
        wire::write_frame(stream, FrameKind::Request, &payload).and_then(|()| Ok(stream.flush()?))
    });
    let reply = sent
        .and_then(|()| tracer.child(req_span, "tcp.wait_reply", || wire::read_frame(stream)))
        .map_err(|e| NetError::Protocol(e.to_string()))
        .and_then(|frame| {
            tracer
                .child(req_span, "wire.decode_reply", || {
                    wire::decode_reply(&frame.payload)
                })
                .map_err(|e| NetError::Protocol(format!("undecodable reply: {e}")))
        });
    (reply, t.elapsed().as_nanos() as u64, payload)
}
