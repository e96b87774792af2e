//! Key encodings for the delegation index.
//!
//! Every index entry lives in one flat ordered keyspace, partitioned by
//! a single-byte prefix. All composite keys end in the 32-byte
//! delegation id, and every variable-length component before it is
//! length-prefixed (the canonical wire encoding) — so no key is a
//! strict prefix of another and prefix scans are unambiguous.
//!
//! | prefix | key layout                  | value                          | read by                  |
//! |--------|-----------------------------|--------------------------------|--------------------------|
//! | `c`    | id(32)                      | cert wire bytes                | hydration, audit, expiry |
//! | `s`    | subject node enc ‖ id(32)   | (empty)                        | forward hydration        |
//! | `o`    | object node enc ‖ id(32)    | (empty)                        | reverse hydration        |
//! | `e`    | be64(expiry) ‖ id(32)       | (empty)                        | expiry sweep             |
//! | `3`    | id(32)                      | (empty, third-party audit set) | audit                    |
//! | `r`    | id(32)                      | `[1]` revoked / `[2]` expired  | boot seeding             |
//! | `b`    | id(32)                      | absorbed-from wallet address   | boot seeding             |
//! | `a`    | be64(counter)               | signed declaration bytes       | boot seeding             |
//! | `p`    | be64(counter)               | support proof bytes            | boot seeding             |
//! | `m`    | name                        | format, watermark, counters    | boot                     |
//!
//! Format 1 also wrote `d/` (per-credential metadata), `i/` (issuer) and
//! `g/` (tag home) rows that nothing read; a format-1 table opens with
//! them inert (see [`DelegationIndex::open`](crate::DelegationIndex::open)).
//!
//! The node encoding is the workspace's canonical [`Encode`] form, which
//! is deterministic and self-delimiting; the expiry key is the raw
//! big-endian timestamp so an ordered scan up to `be64(now)` visits
//! exactly the delegations with `expires < now` — the wallet's strict
//! `now > at` expiry rule.

use drbac_core::{DelegationId, Encode, Node, Timestamp, Writer};

/// Prefix bytes, one per keyspace.
pub(crate) const P_CERT: u8 = b'c';
pub(crate) const P_SUBJECT: u8 = b's';
pub(crate) const P_OBJECT: u8 = b'o';
pub(crate) const P_EXPIRY: u8 = b'e';
pub(crate) const P_THIRD_PARTY: u8 = b'3';
pub(crate) const P_MARK: u8 = b'r';
pub(crate) const P_ABSORBED: u8 = b'b';
pub(crate) const P_DECL: u8 = b'a';
pub(crate) const P_SUPPORT: u8 = b'p';
pub(crate) const P_META: u8 = b'm';

/// Revocation-mark values under `r/`.
pub(crate) const MARK_REVOKED: u8 = 1;
/// Expiry tombstone value under `r/`.
pub(crate) const MARK_EXPIRED: u8 = 2;

/// The canonical byte encoding of a graph node, used as the scan key
/// component for the subject and object indexes.
pub fn node_key(node: &Node) -> Vec<u8> {
    let mut w = Writer::default();
    node.encode(&mut w);
    w.finish()
}

fn id_key(prefix: u8, id: DelegationId) -> Vec<u8> {
    let mut k = Vec::with_capacity(33);
    k.push(prefix);
    k.extend_from_slice(&id.0);
    k
}

/// `c/` cert-bytes key.
pub(crate) fn cert_key(id: DelegationId) -> Vec<u8> {
    id_key(P_CERT, id)
}

/// `3/` third-party audit-set key.
pub(crate) fn third_party_key(id: DelegationId) -> Vec<u8> {
    id_key(P_THIRD_PARTY, id)
}

/// `r/` revocation/expiry mark key.
pub(crate) fn mark_key(id: DelegationId) -> Vec<u8> {
    id_key(P_MARK, id)
}

/// `b/` absorbed-from key.
pub(crate) fn absorbed_key(id: DelegationId) -> Vec<u8> {
    id_key(P_ABSORBED, id)
}

fn composite(prefix: u8, mid: &[u8], id: DelegationId) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + mid.len() + 32);
    k.push(prefix);
    k.extend_from_slice(mid);
    k.extend_from_slice(&id.0);
    k
}

/// `s/` secondary key for a subject node (already encoded).
pub(crate) fn subject_key(subject_enc: &[u8], id: DelegationId) -> Vec<u8> {
    composite(P_SUBJECT, subject_enc, id)
}

/// `o/` secondary key for an object node (already encoded).
pub(crate) fn object_key(object_enc: &[u8], id: DelegationId) -> Vec<u8> {
    composite(P_OBJECT, object_enc, id)
}

/// `e/` secondary key for an expiry instant.
pub(crate) fn expiry_key(at: Timestamp, id: DelegationId) -> Vec<u8> {
    composite(P_EXPIRY, &at.0.to_be_bytes(), id)
}

/// The scan prefix for one subject node's delegations.
pub(crate) fn subject_prefix(subject_enc: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + subject_enc.len());
    k.push(P_SUBJECT);
    k.extend_from_slice(subject_enc);
    k
}

/// The scan prefix for one object node's delegations.
pub(crate) fn object_prefix(object_enc: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + object_enc.len());
    k.push(P_OBJECT);
    k.extend_from_slice(object_enc);
    k
}

/// `a/` or `p/` counter key.
pub(crate) fn counter_key(prefix: u8, counter: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(prefix);
    k.extend_from_slice(&counter.to_be_bytes());
    k
}

/// `m/` metadata key.
pub(crate) fn meta_key(name: &str) -> Vec<u8> {
    let mut k = vec![P_META];
    k.extend_from_slice(name.as_bytes());
    k
}

/// The trailing 32 bytes of a composite key, as a [`DelegationId`].
/// Returns `None` for keys too short to carry one.
pub(crate) fn id_suffix(key: &[u8]) -> Option<DelegationId> {
    if key.len() < 32 {
        return None;
    }
    let mut id = [0u8; 32];
    id.copy_from_slice(&key[key.len() - 32..]);
    Some(DelegationId(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::EntityId;

    #[test]
    fn node_keys_are_prefix_free() {
        // Length-prefixed role names: "r" must not be a key prefix of "rx".
        let fp = drbac_crypto::KeyFingerprint([7u8; 32]);
        let e = EntityId(fp);
        let role = |name: &str| drbac_core::Role::new(e, drbac_core::RoleName::new(name).unwrap());
        let r1 = node_key(&Node::Role(role("r")));
        let r2 = node_key(&Node::Role(role("rx")));
        assert!(!r2.starts_with(&r1));
        let ent = node_key(&Node::Entity(e));
        assert!(!r1.starts_with(&ent) && !ent.starts_with(&r1));
    }

    #[test]
    fn expiry_keys_sort_by_time() {
        let id = DelegationId([9u8; 32]);
        let early = expiry_key(Timestamp(5), id);
        let late = expiry_key(Timestamp(400), id);
        assert!(early < late);
        // The `e/` range scan up to be64(now) is exclusive, matching the
        // wallet's strict `now > at` expiry rule.
        let bound = expiry_key(Timestamp(400), DelegationId([0u8; 32]));
        assert!(late >= bound);
    }

    #[test]
    fn id_suffix_recovers_the_id() {
        let id = DelegationId([3u8; 32]);
        let k = subject_key(b"subject-bytes", id);
        assert_eq!(id_suffix(&k), Some(id));
        assert_eq!(id_suffix(b"short"), None);
    }
}
