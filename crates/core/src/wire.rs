//! Canonical wire encoding for signed credentials.
//!
//! Signatures must bind to a byte representation that is identical on
//! every host, so credentials are encoded with this deterministic,
//! length-prefixed binary format. It is the only encoding the model types
//! have: signing bytes, the write-ahead log's records (`drbac-store`) and
//! the network's frame payloads (`drbac-net`'s `wire`) all come from here.
//!
//! A value's bytes cost one allocation: [`encode_tagged`] writes into a
//! per-thread scratch buffer and copies out exactly the bytes written, so
//! neither a reply on the wire nor a credential kept in the journal or
//! the index carries slack capacity, and big integers and nested
//! credentials write straight into the buffer they belong to.

use std::cell::Cell;
use std::fmt;

use drbac_crypto::KeyFingerprint;

use crate::attr::{AttrClause, AttrConstraint, AttrName, AttrOp, AttrRef};
use crate::entity::EntityId;
use crate::role::{Role, RoleName};
use crate::tag::{DiscoveryTag, ObjectFlag, SubjectFlag, WalletAddr};
use crate::Node;

/// Deterministic encoder. Create with [`Writer::tagged`], append fields in
/// a fixed order, and [`Writer::finish`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a buffer with a domain-separation tag.
    pub fn tagged(tag: &[u8]) -> Writer {
        let mut w = Writer::default();
        w.bytes(tag);
        w
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an IEEE-754 bit pattern (big-endian).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// Appends an optional u64 as presence byte + value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends `encode_tagged(tag, value)` as a length-prefixed byte
    /// string — what `self.bytes(&encode_tagged(tag, value))` appends —
    /// encoding in place and patching the length afterwards.
    pub fn tagged_bytes<T: Encode + ?Sized>(&mut self, tag: &[u8], value: &T) {
        let at = self.buf.len();
        self.u64(0);
        self.bytes(tag);
        value.encode(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_be_bytes());
    }

    /// Appends a length-prefixed list of encodable items.
    pub fn list<T: Encode>(&mut self, items: &[T]) {
        self.u64(items.len() as u64);
        for item in items {
            item.encode(self);
        }
    }

    /// Appends an optional encodable item.
    pub fn opt<T: Encode>(&mut self, item: Option<&T>) {
        match item {
            None => self.u8(0),
            Some(item) => {
                self.u8(1);
                item.encode(self);
            }
        }
    }

    /// Finishes and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Largest scratch buffer a thread keeps between encodes; a larger one
/// (a reply carrying thousands of credentials) is freed after its
/// encode rather than held by the thread.
const SCRATCH_KEEP: usize = 16 * 1024;

thread_local! {
    /// This thread's encode buffer. Its growth is paid once per thread,
    /// not once per value.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// `tag` and then `value`'s canonical encoding — the bytes
/// `Writer::tagged(tag)`, `value.encode` and [`Writer::finish`] return —
/// in a buffer allocated once at its exact length.
///
/// The encode runs in this thread's scratch buffer and copies out the
/// bytes it wrote. A nested call (an [`Encode`] impl that encodes a
/// value apart) finds the scratch taken and encodes into a fresh one,
/// with the same result.
pub fn encode_tagged<T: Encode + ?Sized>(tag: &[u8], value: &T) -> Vec<u8> {
    let mut w = Writer {
        buf: SCRATCH.try_with(Cell::take).unwrap_or_default(),
    };
    w.buf.clear();
    w.bytes(tag);
    value.encode(&mut w);
    let out = w.buf.as_slice().to_vec();
    if w.buf.capacity() <= SCRATCH_KEEP {
        // Fails only while the thread is being torn down.
        let _ = SCRATCH.try_with(|scratch| scratch.set(w.buf));
    }
    out
}

/// Types with a canonical wire encoding.
pub trait Encode {
    /// Appends this value's canonical encoding to `w`.
    fn encode(&self, w: &mut Writer);
}

impl Encode for EntityId {
    fn encode(&self, w: &mut Writer) {
        w.bytes(self.0.as_bytes());
    }
}

impl Encode for RoleName {
    fn encode(&self, w: &mut Writer) {
        w.str(self.as_str());
    }
}

impl Encode for Role {
    fn encode(&self, w: &mut Writer) {
        self.entity().encode(w);
        self.name().encode(w);
    }
}

impl Encode for AttrName {
    fn encode(&self, w: &mut Writer) {
        w.str(self.as_str());
    }
}

impl Encode for AttrOp {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            AttrOp::Subtract => 1,
            AttrOp::Scale => 2,
            AttrOp::Min => 3,
        });
    }
}

impl Encode for AttrRef {
    fn encode(&self, w: &mut Writer) {
        self.entity().encode(w);
        self.name().encode(w);
        self.op().encode(w);
    }
}

impl Encode for AttrClause {
    fn encode(&self, w: &mut Writer) {
        self.attr().encode(w);
        w.f64(self.operand());
    }
}

impl Encode for AttrConstraint {
    fn encode(&self, w: &mut Writer) {
        self.attr.encode(w);
        w.f64(self.at_least);
    }
}

impl Encode for Node {
    fn encode(&self, w: &mut Writer) {
        match self {
            Node::Entity(e) => {
                w.u8(1);
                e.encode(w);
            }
            Node::Role(r) => {
                w.u8(2);
                r.encode(w);
            }
            Node::RoleAdmin(r) => {
                w.u8(3);
                r.encode(w);
            }
            Node::AttrAdmin(a) => {
                w.u8(4);
                a.encode(w);
            }
        }
    }
}

impl Encode for SubjectFlag {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            SubjectFlag::None => 0,
            SubjectFlag::Store => 1,
            SubjectFlag::Search => 2,
        });
    }
}

impl Encode for ObjectFlag {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            ObjectFlag::None => 0,
            ObjectFlag::Store => 1,
            ObjectFlag::Search => 2,
        });
    }
}

impl Encode for DiscoveryTag {
    fn encode(&self, w: &mut Writer) {
        w.str(self.home().as_str());
        w.opt(self.auth_role());
        w.u64(self.ttl().0);
        self.subject_flag().encode(w);
        self.object_flag().encode(w);
    }
}

/// Error decoding a canonical wire encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A discriminant byte had no meaning at this position.
    InvalidTag(u8),
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A decoded value violated a model invariant (bad name, operand out
    /// of the operator's range, …).
    Invalid(String),
    /// Bytes remained after the value was fully decoded.
    TrailingBytes(usize),
    /// The buffer's leading domain tag did not match.
    WrongDomainTag,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => f.write_str("unexpected end of input"),
            DecodeError::InvalidTag(t) => write!(f, "invalid discriminant byte {t:#04x}"),
            DecodeError::BadUtf8 => f.write_str("string field is not valid utf-8"),
            DecodeError::Invalid(m) => write!(f, "decoded value violates an invariant: {m}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::WrongDomainTag => f.write_str("domain tag mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over a canonical wire encoding; mirror of [`Writer`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Starts reading after checking the leading domain tag written by
    /// [`Writer::tagged`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::WrongDomainTag`] on mismatch.
    pub fn tagged(buf: &'a [u8], tag: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let found = r.bytes()?;
        if found != tag {
            return Err(DecodeError::WrongDomainTag);
        }
        Ok(r)
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] if anything remains.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("slice of 8")))
    }

    /// Reads an IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an optional u64 (presence byte + value).
    pub fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| DecodeError::UnexpectedEof)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads an optional decodable value.
    pub fn opt<T: Decode>(&mut self) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(self)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }

    /// Reads a length-prefixed list.
    pub fn list<T: Decode>(&mut self) -> Result<Vec<T>, DecodeError> {
        let len = self.u64()?;
        // Cap preallocation: each element costs at least one byte.
        let len = usize::try_from(len).map_err(|_| DecodeError::UnexpectedEof)?;
        if len > self.remaining() {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }
}

/// Types decodable from the canonical wire encoding; inverse of
/// [`Encode`].
pub trait Decode: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed or invariant-violating input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

impl Decode for EntityId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bytes = r.bytes()?;
        let arr: [u8; 32] = bytes
            .try_into()
            .map_err(|_| DecodeError::Invalid("fingerprint must be 32 bytes".into()))?;
        Ok(EntityId(KeyFingerprint(arr)))
    }
}

impl Decode for RoleName {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        RoleName::new(r.str()?).map_err(|e| DecodeError::Invalid(e.to_string()))
    }
}

impl Decode for Role {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Role::new(EntityId::decode(r)?, RoleName::decode(r)?))
    }
}

impl Decode for AttrName {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        AttrName::new(r.str()?).map_err(|e| DecodeError::Invalid(e.to_string()))
    }
}

impl Decode for AttrOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            1 => Ok(AttrOp::Subtract),
            2 => Ok(AttrOp::Scale),
            3 => Ok(AttrOp::Min),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl Decode for AttrRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AttrRef::new(
            EntityId::decode(r)?,
            AttrName::decode(r)?,
            AttrOp::decode(r)?,
        ))
    }
}

impl Decode for AttrClause {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let attr = AttrRef::decode(r)?;
        let operand = r.f64()?;
        AttrClause::new(attr, operand).map_err(|e| DecodeError::Invalid(e.to_string()))
    }
}

impl Decode for AttrConstraint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let attr = AttrRef::decode(r)?;
        let at_least = r.f64()?;
        Ok(AttrConstraint { attr, at_least })
    }
}

impl Decode for Node {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            1 => Ok(Node::Entity(EntityId::decode(r)?)),
            2 => Ok(Node::Role(Role::decode(r)?)),
            3 => Ok(Node::RoleAdmin(Role::decode(r)?)),
            4 => Ok(Node::AttrAdmin(AttrRef::decode(r)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl Decode for SubjectFlag {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(SubjectFlag::None),
            1 => Ok(SubjectFlag::Store),
            2 => Ok(SubjectFlag::Search),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl Decode for ObjectFlag {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(ObjectFlag::None),
            1 => Ok(ObjectFlag::Store),
            2 => Ok(ObjectFlag::Search),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl Encode for drbac_bignum::BigUint {
    /// As `w.bytes(&self.to_bytes_be())`, with no temporary.
    fn encode(&self, w: &mut Writer) {
        w.u64(self.byte_len() as u64);
        self.extend_bytes_be(&mut w.buf);
    }
}

impl Decode for drbac_bignum::BigUint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(drbac_bignum::BigUint::from_bytes_be(r.bytes()?))
    }
}

impl Encode for drbac_crypto::GroupId {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            drbac_crypto::GroupId::Test256 => 1,
            drbac_crypto::GroupId::Modp2048 => 2,
            drbac_crypto::GroupId::Custom => 3,
        });
    }
}

impl Decode for drbac_crypto::GroupId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            1 => Ok(drbac_crypto::GroupId::Test256),
            2 => Ok(drbac_crypto::GroupId::Modp2048),
            3 => Ok(drbac_crypto::GroupId::Custom),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl Encode for drbac_crypto::Signature {
    fn encode(&self, w: &mut Writer) {
        self.group_id().encode(w);
        self.e().encode(w);
        self.s().encode(w);
    }
}

impl Decode for drbac_crypto::Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let group = drbac_crypto::GroupId::decode(r)?;
        let e = drbac_bignum::BigUint::decode(r)?;
        let s = drbac_bignum::BigUint::decode(r)?;
        Ok(drbac_crypto::Signature::from_parts(group, e, s))
    }
}

impl Encode for drbac_crypto::PublicKey {
    fn encode(&self, w: &mut Writer) {
        let id = self.group().id();
        id.encode(w);
        if id == drbac_crypto::GroupId::Custom {
            self.group().p().encode(w);
            self.group().q().encode(w);
            self.group().g().encode(w);
        }
        self.y().encode(w);
    }
}

impl Decode for drbac_crypto::PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let id = drbac_crypto::GroupId::decode(r)?;
        let group = match id {
            drbac_crypto::GroupId::Test256 => drbac_crypto::SchnorrGroup::test_256(),
            drbac_crypto::GroupId::Modp2048 => drbac_crypto::SchnorrGroup::modp_2048(),
            drbac_crypto::GroupId::Custom => {
                let p = drbac_bignum::BigUint::decode(r)?;
                let q = drbac_bignum::BigUint::decode(r)?;
                let g = drbac_bignum::BigUint::decode(r)?;
                if p.is_even() || p.is_zero() {
                    return Err(DecodeError::Invalid(
                        "custom group modulus must be odd".into(),
                    ));
                }
                drbac_crypto::SchnorrGroup::custom_from_parts(p, q, g)
            }
        };
        let y = drbac_bignum::BigUint::decode(r)?;
        let key = drbac_crypto::PublicKey::from_parts(group, y);
        if !key.is_valid() {
            return Err(DecodeError::Invalid(
                "public key is not a valid subgroup element".into(),
            ));
        }
        Ok(key)
    }
}

impl Decode for DiscoveryTag {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let home = WalletAddr::new(r.str()?);
        let auth_role: Option<Role> = r.opt()?;
        let ttl = crate::Ticks(r.u64()?);
        let subject_flag = SubjectFlag::decode(r)?;
        let object_flag = ObjectFlag::decode(r)?;
        let mut tag = DiscoveryTag::new(home)
            .with_ttl(ttl)
            .with_subject_flag(subject_flag)
            .with_object_flag(object_flag);
        if let Some(role) = auth_role {
            tag = tag.with_auth_role(role);
        }
        Ok(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_bignum::BigUint;
    use drbac_crypto::KeyFingerprint;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    fn ns(b: u8) -> EntityId {
        EntityId(KeyFingerprint([b; 32]))
    }

    #[test]
    fn encoding_is_deterministic() {
        let role = Role::new(ns(1), RoleName::new("member").unwrap());
        let enc = |r: &Role| {
            let mut w = Writer::tagged(b"t");
            r.encode(&mut w);
            w.finish()
        };
        assert_eq!(enc(&role), enc(&role.clone()));
    }

    #[test]
    fn distinct_values_encode_distinctly() {
        let r1 = Node::role(Role::new(ns(1), RoleName::new("a").unwrap()));
        let r2 = Node::role_admin(Role::new(ns(1), RoleName::new("a").unwrap()));
        let enc = |n: &Node| {
            let mut w = Writer::default();
            n.encode(&mut w);
            w.finish()
        };
        // Tick mark must be visible in the encoding (R vs R').
        assert_ne!(enc(&r1), enc(&r2));
    }

    #[test]
    fn length_prefixing_prevents_ambiguity() {
        // ("ab", "c") must encode differently from ("a", "bc").
        let mut w1 = Writer::default();
        w1.str("ab");
        w1.str("c");
        let mut w2 = Writer::default();
        w2.str("a");
        w2.str("bc");
        assert_ne!(w1.finish(), w2.finish());
    }

    #[test]
    fn optional_and_list_encoding() {
        let mut w = Writer::default();
        w.opt_u64(None);
        w.opt_u64(Some(7));
        let role = Role::new(ns(1), RoleName::new("r").unwrap());
        w.list(&[role.clone(), role]);
        let out = w.finish();
        assert_eq!(out[0], 0); // None
        assert_eq!(out[1], 1); // Some
        assert_eq!(&out[2..10], &7u64.to_be_bytes());
    }

    #[test]
    fn reader_primitives_round_trip() {
        let mut w = Writer::tagged(b"t");
        w.u8(7);
        w.u64(0xdead_beef);
        w.f64(1.5);
        w.opt_u64(Some(3));
        w.opt_u64(None);
        w.bytes(b"abc");
        w.str("hello");
        let buf = w.finish();

        let mut r = Reader::tagged(&buf, b"t").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 0xdead_beef);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert_eq!(r.opt_u64().unwrap(), Some(3));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.str().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_malformed_input() {
        // Wrong domain tag.
        let buf = Writer::tagged(b"right").finish();
        assert_eq!(
            Reader::tagged(&buf, b"wrong").unwrap_err(),
            DecodeError::WrongDomainTag
        );

        // EOF inside a length-prefixed field.
        let mut w = Writer::default();
        w.u64(100); // claims 100 bytes follow
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap_err(), DecodeError::UnexpectedEof);

        // Invalid option tag.
        let mut r = Reader::new(&[2u8]);
        assert_eq!(r.opt_u64().unwrap_err(), DecodeError::InvalidTag(2));

        // Bad UTF-8.
        let mut w = Writer::default();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.str().unwrap_err(), DecodeError::BadUtf8);

        // Trailing bytes detected by finish().
        let r = Reader::new(&[0u8; 3]);
        assert_eq!(r.finish().unwrap_err(), DecodeError::TrailingBytes(3));

        // List length larger than the remaining input.
        let mut w = Writer::default();
        w.u64(u64::MAX);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.list::<Role>().unwrap_err(), DecodeError::UnexpectedEof);
    }

    #[test]
    fn decode_validates_model_invariants() {
        // A role name with an illegal character fails at decode.
        let mut w = Writer::default();
        w.bytes(&[1u8; 32]); // entity fingerprint
        w.str("has space");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(Role::decode(&mut r), Err(DecodeError::Invalid(_))));

        // A fingerprint of the wrong width fails.
        let mut w = Writer::default();
        w.bytes(&[1u8; 16]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            EntityId::decode(&mut r),
            Err(DecodeError::Invalid(_))
        ));

        // An attribute clause with an out-of-range operand fails.
        let mut w = Writer::default();
        let attr = AttrRef::new(ns(1), AttrName::new("bw").unwrap(), AttrOp::Scale);
        attr.encode(&mut w);
        w.f64(7.5); // scale > 1
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            AttrClause::decode(&mut r),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn decode_error_messages_are_informative() {
        assert!(DecodeError::UnexpectedEof
            .to_string()
            .contains("end of input"));
        assert!(DecodeError::InvalidTag(9).to_string().contains("0x09"));
        assert!(DecodeError::TrailingBytes(4).to_string().contains('4'));
    }

    /// `to_bytes_be` as a plain specification: every limb big-endian,
    /// then the leading zero bytes dropped.
    fn be_bytes_oracle(n: &BigUint) -> Vec<u8> {
        let full: Vec<u8> = n
            .as_limbs()
            .iter()
            .rev()
            .flat_map(|l| l.to_be_bytes())
            .collect();
        let skip = full.iter().take_while(|&&b| b == 0).count();
        full[skip..].to_vec()
    }

    fn assert_encodes_as_bytes(n: &BigUint) {
        let mut direct = Writer::default();
        n.encode(&mut direct);
        let mut via_vec = Writer::default();
        via_vec.bytes(&n.to_bytes_be());
        assert_eq!(direct.finish(), via_vec.finish(), "{n:?}");
        assert_eq!(n.to_bytes_be(), be_bytes_oracle(n), "{n:?}");
    }

    #[test]
    fn big_integers_encode_as_their_big_endian_bytes() {
        let two64 = BigUint::from_limbs(vec![0, 1]);
        for n in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(u64::MAX),
            two64,
            // Top limbs with 7, 1 and 6 leading zero bytes.
            BigUint::from_limbs(vec![u64::MAX, 0xFF]),
            BigUint::from_limbs(vec![7, 0x00FF_FFFF_FFFF_FFFF]),
            BigUint::from_limbs(vec![1, 2, 0x0100]),
        ] {
            assert_encodes_as_bytes(&n);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        for limbs in [4, 32] {
            for _ in 0..64 {
                let n = BigUint::from_limbs((0..limbs).map(|_| rng.next_u64()).collect());
                assert_encodes_as_bytes(&n);
            }
        }
    }

    proptest! {
        #[test]
        fn any_big_integer_encodes_as_its_big_endian_bytes(
            limbs in prop::collection::vec(any::<u64>(), 0..33),
            top_zero_bytes in 0u32..8,
        ) {
            let mut limbs = limbs;
            if let Some(top) = limbs.last_mut() {
                *top >>= 8 * top_zero_bytes;
            }
            assert_encodes_as_bytes(&BigUint::from_limbs(limbs));
        }
    }

    #[test]
    fn encode_tagged_is_the_writer_output_at_its_exact_length() {
        let role = Role::new(ns(1), RoleName::new("member").unwrap());
        let mut w = Writer::tagged(b"t");
        role.encode(&mut w);
        let expected = w.finish();
        for _ in 0..2 {
            let bytes = encode_tagged(b"t", &role);
            assert_eq!(bytes, expected);
            assert_eq!(bytes.capacity(), bytes.len(), "no slack capacity");
        }
        // In place and apart, a nested encoding is the same bytes.
        let mut nested = Writer::default();
        nested.tagged_bytes(b"t", &role);
        let mut apart = Writer::default();
        apart.bytes(&expected);
        assert_eq!(nested.finish(), apart.finish());
    }

    #[test]
    fn f64_encoding_distinguishes_sign_and_nan_bits() {
        let mut w1 = Writer::default();
        w1.f64(0.0);
        let mut w2 = Writer::default();
        w2.f64(-0.0);
        assert_ne!(w1.finish(), w2.finish());
    }
}
