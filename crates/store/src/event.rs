//! The journal vocabulary: one [`StoreEvent`] per mutating wallet
//! operation, encoded with the workspace's canonical wire format.

use std::sync::Arc;

use drbac_core::{
    Decode, DecodeError, DelegationId, Encode, Proof, Reader, SignedAttrDeclaration,
    SignedDelegation, SignedRevocation, WalletAddr, Writer,
};

/// A single durable wallet mutation, as journaled by the write-ahead
/// log. Replaying the events of a log that starts at seq 1 — or the
/// records above the delegation index's watermark, on top of the index —
/// reconstructs the wallet's durable state. A full replay re-verifies
/// every credential; an indexed boot applies the records above the
/// watermark to the index without re-verifying them, as it trusts the
/// index itself: the wallet wrote both after admitting each credential.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreEvent {
    /// A credential accepted by `Wallet::publish` (its issuer-provided
    /// support proofs are journaled separately as [`StoreEvent::Support`]
    /// records preceding this one).
    Publish(Arc<SignedDelegation>),
    /// A signed attribute declaration accepted by
    /// `Wallet::publish_declaration`.
    Declare(SignedAttrDeclaration),
    /// A support proof registered by `Wallet::provide_support` (or
    /// carried by a publication).
    Support(Proof),
    /// A remote proof absorbed into the local cache by
    /// `Wallet::absorb_proof`, with its source wallet.
    Absorb {
        /// The absorbed proof.
        proof: Proof,
        /// The wallet the proof was fetched from.
        source: WalletAddr,
    },
    /// A verified signed revocation honored by `Wallet::revoke`.
    Revoke(SignedRevocation),
    /// A revocation mark learned without the signed notice in hand
    /// (e.g. from a pushed invalidation already verified upstream).
    RevokeMark(DelegationId),
    /// An expiry tombstone: the delegation was dropped because its
    /// validity window lapsed.
    Expire(DelegationId),
}

const KIND_PUBLISH: u8 = 1;
const KIND_DECLARE: u8 = 2;
const KIND_SUPPORT: u8 = 3;
const KIND_ABSORB: u8 = 4;
const KIND_REVOKE: u8 = 5;
const KIND_REVOKE_MARK: u8 = 6;
const KIND_EXPIRE: u8 = 7;

impl StoreEvent {
    /// The record's kind tag on the wire.
    pub fn kind(&self) -> u8 {
        match self {
            StoreEvent::Publish(_) => KIND_PUBLISH,
            StoreEvent::Declare(_) => KIND_DECLARE,
            StoreEvent::Support(_) => KIND_SUPPORT,
            StoreEvent::Absorb { .. } => KIND_ABSORB,
            StoreEvent::Revoke(_) => KIND_REVOKE,
            StoreEvent::RevokeMark(_) => KIND_REVOKE_MARK,
            StoreEvent::Expire(_) => KIND_EXPIRE,
        }
    }

    /// A short human-readable kind name (for `drbac store inspect`).
    pub fn kind_str(&self) -> &'static str {
        match self {
            StoreEvent::Publish(_) => "publish",
            StoreEvent::Declare(_) => "declare",
            StoreEvent::Support(_) => "support",
            StoreEvent::Absorb { .. } => "absorb",
            StoreEvent::Revoke(_) => "revoke",
            StoreEvent::RevokeMark(_) => "revoke-mark",
            StoreEvent::Expire(_) => "expire",
        }
    }

    /// A one-line description of the record (for `drbac store inspect`).
    pub fn describe(&self) -> String {
        match self {
            StoreEvent::Publish(cert) => format!("publish #{}", cert.id()),
            StoreEvent::Declare(_) => "declare attribute base".to_string(),
            StoreEvent::Support(proof) => {
                format!("support {} => {}", proof.subject(), proof.object())
            }
            StoreEvent::Absorb { proof, source } => {
                format!("absorb {} cert(s) from {source}", proof.all_certs().len())
            }
            StoreEvent::Revoke(rev) => format!("revoke #{}", rev.delegation_id()),
            StoreEvent::RevokeMark(id) => format!("revoke-mark #{id}"),
            StoreEvent::Expire(id) => format!("expire #{id}"),
        }
    }

    /// Appends the record body (everything after the kind byte).
    pub fn encode_body(&self, w: &mut Writer) {
        match self {
            StoreEvent::Publish(cert) => cert.as_ref().encode(w),
            StoreEvent::Declare(decl) => w.bytes(&decl.to_bytes()),
            StoreEvent::Support(proof) => proof.encode(w),
            StoreEvent::Absorb { proof, source } => {
                proof.encode(w);
                w.str(source.as_str());
            }
            StoreEvent::Revoke(rev) => w.bytes(&rev.to_bytes()),
            StoreEvent::RevokeMark(id) | StoreEvent::Expire(id) => w.bytes(&id.0),
        }
    }

    /// Decodes a record body given its kind tag.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for unknown kinds or malformed bodies.
    pub fn decode_body(kind: u8, r: &mut Reader<'_>) -> Result<StoreEvent, DecodeError> {
        fn id(r: &mut Reader<'_>) -> Result<DelegationId, DecodeError> {
            let raw: [u8; 32] = r
                .bytes()?
                .try_into()
                .map_err(|_| DecodeError::UnexpectedEof)?;
            Ok(DelegationId(raw))
        }
        match kind {
            KIND_PUBLISH => Ok(StoreEvent::Publish(Arc::new(SignedDelegation::decode(r)?))),
            KIND_DECLARE => Ok(StoreEvent::Declare(SignedAttrDeclaration::from_bytes(
                r.bytes()?,
            )?)),
            KIND_SUPPORT => Ok(StoreEvent::Support(Proof::decode(r)?)),
            KIND_ABSORB => {
                let proof = Proof::decode(r)?;
                let source = WalletAddr::new(r.str()?);
                Ok(StoreEvent::Absorb { proof, source })
            }
            KIND_REVOKE => Ok(StoreEvent::Revoke(SignedRevocation::from_bytes(
                r.bytes()?,
            )?)),
            KIND_REVOKE_MARK => Ok(StoreEvent::RevokeMark(id(r)?)),
            KIND_EXPIRE => Ok(StoreEvent::Expire(id(r)?)),
            _ => Err(DecodeError::UnexpectedEof),
        }
    }
}
