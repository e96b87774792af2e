//! The in-process replay of traced ops through the layers, in the
//! order the daemon runs them — harness timers around each layer's
//! public functions, on the same generated inputs the daemon got.
//!
//! `wire.decode_request` → wallet op → `wire.encode_reply` →
//! `wire.write_frame` → `wire.read_frame`, every step a child span of
//! the op's request root. The wallet op runs on a **replica**: a copy
//! of the served home opened with the same `open_indexed` path. For a
//! publish, the in-memory publish and a bare `store.append` are timed
//! as sibling spans, so the journal's share of a durable write shows.

use std::cell::Cell;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;

use drbac::core::SimClock;
use drbac::net::proto::{Reply, Request};
use drbac::net::wire::{self, FrameKind};
use drbac::store::{StoreEvent, WalletStore};
use drbac::wallet::{DurableWallet, Wallet};

use crate::deploy::{copy_home, open_home};
use crate::trace::{RequestSpan, Tracer};

/// A live op waiting for its replay, which runs after the round so
/// that it cannot disturb the exchange it explains.
pub struct Pending {
    /// The live request's root span; `None` for a write of an untraced
    /// round, which the replica applies without spans.
    pub span: Option<RequestSpan>,
    pub req: Request,
    /// The encoded request, when the live path timed the encoding.
    pub payload: Option<Vec<u8>>,
}

/// The layers whose self times make up the ledger of one op, in path
/// order. (`tcp.send`/`tcp.wait_reply` are the live socket spans the
/// remainder is left in; `wallet.publish_mem` and `store.append` are
/// informational siblings of the durable publish.)
pub const LEDGER_LAYERS: &[&str] = &[
    "wire.encode_request",
    "wire.decode_request",
    "wallet.query",
    "wallet.publish_durable",
    "wallet.revoke_durable",
    "wire.encode_reply",
    "wire.write_frame",
    "wire.read_frame",
    "wire.decode_reply",
];

/// In-process stand-ins for the daemon's state.
pub struct Replica {
    /// The home copy, opened lazily hydrated like the served one.
    durable: DurableWallet,
    /// An in-memory wallet that receives the same writes.
    mem: Wallet,
    /// A bare journal that receives the same write events.
    journal: WalletStore,
    /// Frame replies with a request id (wire v3), as the pipelined
    /// path does.
    mux: bool,
    /// Encoded sizes of replayed granted queries: request bytes, reply
    /// bytes, count.
    grant_bytes: Cell<(u64, u64, u64)>,
}

impl Replica {
    /// Copies `home` into `scratch` and opens the copy.
    pub fn open(home: &Path, scratch: &Path, mux: bool) -> Result<Replica, String> {
        let _ = std::fs::remove_dir_all(scratch);
        copy_home(home, &scratch.join("home")).map_err(|e| format!("copy home: {e}"))?;
        Ok(Replica {
            durable: open_home(&scratch.join("home"))?,
            mem: Wallet::new("bench.replica.mem", SimClock::new()),
            journal: WalletStore::open_dir(scratch.join("journal")).map_err(|e| e.to_string())?,
            mux,
            grant_bytes: Cell::new((0, 0, 0)),
        })
    }

    /// Mean encoded `(request, reply)` size of the replayed granted
    /// queries, and how many there were.
    pub fn grant_wire_bytes(&self) -> (f64, f64, usize) {
        let (req, reply, n) = self.grant_bytes.get();
        let mean = |sum: u64| sum as f64 / n.max(1) as f64;
        (mean(req), mean(reply), n as usize)
    }

    /// Applies a write without spans, keeping the replica in step with
    /// the daemon through untraced rounds.
    fn apply_untraced(&self, req: &Request) {
        match req {
            Request::Publish { cert, .. } => {
                let _ = self.durable.publish(Arc::clone(cert), Vec::new());
            }
            Request::Revoke(revocation) => {
                let _ = self.durable.revoke(revocation);
            }
            _ => {}
        }
    }

    /// Replays a round's ops in order: every write (the replica must
    /// hold what the daemon holds) and every `read_every`-th read.
    pub fn replay_round(&self, pending: Vec<Pending>, read_every: usize, tracer: &mut Tracer) {
        for (i, p) in pending.into_iter().enumerate() {
            let write = matches!(p.req, Request::Publish { .. } | Request::Revoke(_));
            match p.span {
                Some(live) if write || i % read_every == 0 => {
                    let root = tracer.begin_replay(&live);
                    self.replay(&p.req, p.payload.as_deref(), tracer, &root);
                    tracer.end(root);
                }
                Some(_) => {}
                None => self.apply_untraced(&p.req),
            }
        }
    }

    /// Replays one op through the layers under the replay root
    /// `root`. `payload` is the encoded request when the live path
    /// produced it under a span of its own; `None` (the pipelined
    /// client encodes inside `send_many`) times the encoding here.
    fn replay(
        &self,
        req: &Request,
        payload: Option<&[u8]>,
        tracer: &mut Tracer,
        root: &RequestSpan,
    ) {
        let encoded;
        let payload = match payload {
            Some(p) => p,
            None => {
                encoded = tracer.child(root, "wire.encode_request", || wire::encode_request(req));
                &encoded
            }
        };
        let Ok(decoded) = tracer.child(root, "wire.decode_request", || {
            wire::decode_request(payload)
        }) else {
            return;
        };
        let reply =
            match decoded {
                Request::DirectQuery {
                    subject,
                    object,
                    constraints,
                } => tracer.child(root, "wallet.query", || {
                    Reply::Proofs(
                        self.durable
                            .find_proof(&subject, &object, &constraints)
                            .into_iter()
                            .collect(),
                    )
                }),
                Request::Publish { cert, supports } => {
                    // A second decode gives the in-memory publish a
                    // certificate whose signature memo is as cold as the
                    // durable one's, so the two differ by the journal only.
                    let Ok(Request::Publish { cert: mem_cert, .. }) = wire::decode_request(payload)
                    else {
                        return;
                    };
                    let event = StoreEvent::Publish(Arc::clone(&cert));
                    let reply = tracer.child(root, "wallet.publish_durable", || {
                        match self.durable.publish(cert, supports) {
                            Ok(id) => Reply::Published(id),
                            Err(e) => Reply::Error(e.to_string()),
                        }
                    });
                    tracer.child(root, "wallet.publish_mem", || {
                        let _ = self.mem.publish(mem_cert, Vec::new());
                    });
                    tracer.child(root, "store.append", || {
                        let _ = self.journal.append(&event);
                    });
                    reply
                }
                Request::Revoke(revocation) => tracer.child(root, "wallet.revoke_durable", || {
                    match self.durable.revoke(&revocation) {
                        Ok(n) => Reply::Revoked(n),
                        Err(e) => Reply::Error(e.to_string()),
                    }
                }),
                _ => return,
            };
        let bytes = tracer.child(root, "wire.encode_reply", || wire::encode_reply(&reply));
        if matches!(&reply, Reply::Proofs(p) if !p.is_empty()) {
            let (req_sum, reply_sum, n) = self.grant_bytes.get();
            self.grant_bytes.set((
                req_sum + payload.len() as u64,
                reply_sum + bytes.len() as u64,
                n + 1,
            ));
        }
        let mut framed = Vec::with_capacity(bytes.len() + 32);
        tracer.child(root, "wire.write_frame", || {
            let _ = if self.mux {
                wire::write_frame_mux(&mut framed, FrameKind::Reply, &bytes, 1, None)
            } else {
                wire::write_frame(&mut framed, FrameKind::Reply, &bytes)
            };
        });
        tracer.child(root, "wire.read_frame", || {
            let _ = wire::read_frame(&mut Cursor::new(&framed));
        });
        if self.mux {
            // The pipelined client decodes inside `wait`, on the
            // waiter's thread; the strict traced path times its own.
            tracer.child(root, "wire.decode_reply", || {
                let _ = wire::decode_reply(&bytes);
            });
        }
    }
}
