//! The inter-wallet protocol: requests, replies, and one-way pushes.
//!
//! Both substrates carry these enums through the framed codec in
//! [`crate::wire`] (one frame per message, canonical payload encoding
//! under per-space domain tags): [`crate::TcpTransport`] over a socket,
//! [`crate::SimNet`] in memory. Anything added here needs a wire
//! encoding there.

use std::fmt;
use std::sync::Arc;

use drbac_core::{
    AttrConstraint, DecodeError, DelegationId, Node, Proof, SignedAttrDeclaration,
    SignedDelegation, SignedRevocation, WalletAddr,
};
use drbac_wallet::DelegationEvent;

/// A request sent from one wallet host to another.
#[derive(Debug, Clone)]
pub enum Request {
    /// `S ⇒ O?` under constraints (paper §4.1 direct query).
    DirectQuery {
        /// Subject of the sought relationship.
        subject: Node,
        /// Object of the sought relationship.
        object: Node,
        /// Attribute constraints the proof must satisfy.
        constraints: Vec<AttrConstraint>,
    },
    /// Enumerate `S ⇒ *` (paper §4.1 subject query).
    SubjectQuery {
        /// The subject to search from.
        subject: Node,
        /// Attribute constraints.
        constraints: Vec<AttrConstraint>,
    },
    /// Enumerate `* ⇒ O` (paper §4.1 object query).
    ObjectQuery {
        /// The object to search toward.
        object: Node,
        /// Attribute constraints.
        constraints: Vec<AttrConstraint>,
    },
    /// Publish a credential (with issuer-provided supports) at the remote
    /// wallet.
    Publish {
        /// The credential.
        cert: Arc<SignedDelegation>,
        /// Issuer-provided support proofs.
        supports: Vec<Proof>,
    },
    /// Publish a signed attribute declaration.
    PublishDeclaration(SignedAttrDeclaration),
    /// Register a delegation subscription: push invalidations of
    /// `delegation` to `subscriber` (paper §4.2.2).
    Subscribe {
        /// The delegation whose status is monitored.
        delegation: DelegationId,
        /// Wallet to push events to.
        subscriber: WalletAddr,
    },
    /// Remove a previously registered subscription.
    Unsubscribe {
        /// The monitored delegation.
        delegation: DelegationId,
        /// The subscriber being removed.
        subscriber: WalletAddr,
    },
    /// Deliver a signed revocation to the delegation's home wallet.
    Revoke(SignedRevocation),
    /// Fetch the signed attribute declarations the remote wallet holds.
    FetchDeclarations,
    /// Re-validate a cached credential against its home wallet (TTL
    /// refresh, paper §4.2.1: a delegation "is valid [for TTL] following
    /// validity confirmation from its home wallet").
    FetchDelegation(DelegationId),
    /// Scrape the remote host's metrics/histogram snapshot (`drbac
    /// stats --remote`). Observability only — carries no credentials.
    Stats,
    /// Liveness + basic inventory probe (`drbac health`).
    Health,
}

impl Request {
    /// Short tag for statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::DirectQuery { .. } => "direct-query",
            Request::SubjectQuery { .. } => "subject-query",
            Request::ObjectQuery { .. } => "object-query",
            Request::Publish { .. } => "publish",
            Request::PublishDeclaration(_) => "publish-declaration",
            Request::Subscribe { .. } => "subscribe",
            Request::Unsubscribe { .. } => "unsubscribe",
            Request::Revoke(_) => "revoke",
            Request::FetchDeclarations => "fetch-declarations",
            Request::FetchDelegation(_) => "fetch-delegation",
            Request::Stats => "stats",
            Request::Health => "health",
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::DirectQuery {
                subject, object, ..
            } => {
                write!(f, "direct-query {subject} => {object}")
            }
            Request::SubjectQuery { subject, .. } => write!(f, "subject-query {subject} => *"),
            Request::ObjectQuery { object, .. } => write!(f, "object-query * => {object}"),
            Request::Publish { cert, .. } => write!(f, "publish {}", cert.delegation()),
            Request::PublishDeclaration(d) => {
                write!(f, "publish-declaration {}", d.declaration().attr)
            }
            Request::Subscribe {
                delegation,
                subscriber,
            } => {
                write!(f, "subscribe #{delegation} -> {subscriber}")
            }
            Request::Unsubscribe {
                delegation,
                subscriber,
            } => {
                write!(f, "unsubscribe #{delegation} -> {subscriber}")
            }
            Request::Revoke(r) => write!(f, "{r}"),
            Request::FetchDeclarations => f.write_str("fetch-declarations"),
            Request::FetchDelegation(id) => write!(f, "fetch-delegation #{id}"),
            Request::Stats => f.write_str("stats"),
            Request::Health => f.write_str("health"),
        }
    }
}

/// A reply to a [`Request`].
#[derive(Debug, Clone)]
pub enum Reply {
    /// Proofs answering a query (empty when none exist).
    Proofs(Vec<Proof>),
    /// The id assigned to a published credential.
    Published(DelegationId),
    /// Declaration accepted.
    DeclarationPublished,
    /// Subscription registered (or removed).
    Subscribed,
    /// Revocation honored; count of local notifications delivered.
    Revoked(usize),
    /// The wallet's signed declarations.
    Declarations(Vec<SignedAttrDeclaration>),
    /// The credential, if the wallet still holds it as valid (`None`
    /// means revoked, expired, or never known — drop the cached copy).
    Delegation(Option<Arc<SignedDelegation>>),
    /// The host's metrics/histogram snapshot (answer to
    /// [`Request::Stats`]).
    Stats(drbac_obs::Snapshot),
    /// Answer to [`Request::Health`].
    Health(HealthReport),
    /// The request failed.
    Error(String),
}

impl Reply {
    /// The error reply to a request frame whose payload does not decode,
    /// on either substrate.
    pub(crate) fn undecodable_request(e: &DecodeError) -> Reply {
        Reply::Error(format!("undecodable request: {e}"))
    }

    /// `true` for [`Reply::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, Reply::Error(_))
    }
}

/// A daemon's answer to [`Request::Health`]: liveness plus just enough
/// inventory to tell an empty daemon from a busy one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// `true` when the daemon considers itself able to serve.
    pub ok: bool,
    /// The wallet address the daemon serves.
    pub wallet: String,
    /// Nanoseconds since the daemon started accepting connections.
    pub uptime_ns: u64,
    /// Delegations currently held by the wallet.
    pub delegations: u64,
    /// Registered push subscribers.
    pub subscribers: u64,
    /// Requests served since start (all kinds, including this probe).
    pub served_requests: u64,
}

/// A one-way message (no reply expected).
#[derive(Debug, Clone)]
pub enum OneWay {
    /// Push notification that a delegation was invalidated — the heart of
    /// the delegation-subscription mechanism.
    Invalidate(DelegationEvent),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_kinds_are_distinct() {
        let subject = Node::Entity(drbac_core::EntityId(drbac_crypto::KeyFingerprint([0; 32])));
        let kinds = [
            Request::SubjectQuery {
                subject: subject.clone(),
                constraints: vec![],
            }
            .kind(),
            Request::FetchDeclarations.kind(),
        ];
        assert_eq!(kinds[0], "subject-query");
        assert_eq!(kinds[1], "fetch-declarations");
    }

    #[test]
    fn reply_error_detection() {
        assert!(Reply::Error("x".into()).is_error());
        assert!(!Reply::Proofs(vec![]).is_error());
    }
}
