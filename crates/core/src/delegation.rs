//! Delegations: `[Subject → Object] Issuer` certificates (paper §3).

use std::fmt;

use crate::attr::{AttrClause, AttrRef};
use crate::cert::SignedDelegation;
use crate::clock::Timestamp;
use crate::entity::{EntityId, LocalEntity};
use crate::error::{ModelError, ValidationError};
use crate::signed::{Body, Expiring};
use crate::tag::DiscoveryTag;
use crate::wire::{Encode, Writer};
use crate::Node;

/// The paper's delegation taxonomy along the authorization axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelegationKind {
    /// `OEntity == Issuer`: "no additional authorization is required
    /// because an entity is permitted to delegate the permissions
    /// associated with any role in its namespace." All valid proofs are
    /// rooted in these.
    SelfCertified,
    /// `OEntity != Issuer`: the issuer must hold the object's
    /// right-of-assignment, demonstrated by a *support proof*.
    ThirdParty,
}

impl fmt::Display for DelegationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DelegationKind::SelfCertified => "self-certified",
            DelegationKind::ThirdParty => "third-party",
        })
    }
}

/// An unsigned delegation body.
///
/// Build with [`DelegationBuilder`] (see [`LocalEntity::delegate`]); sign
/// into a [`SignedDelegation`] to make it a credential.
#[derive(Debug, Clone, PartialEq)]
pub struct Delegation {
    pub(crate) subject: Node,
    pub(crate) object: Node,
    pub(crate) issuer: EntityId,
    pub(crate) clauses: Vec<AttrClause>,
    pub(crate) expires: Option<Timestamp>,
    pub(crate) subject_tag: Option<DiscoveryTag>,
    pub(crate) object_tag: Option<DiscoveryTag>,
    pub(crate) issuer_tag: Option<DiscoveryTag>,
    /// "Acting as" clause: the assignment roles the issuer claims entitle
    /// it to issue this third-party delegation (discovery hint for
    /// locating support chains, paper §4.2.1).
    pub(crate) acting_as: Vec<Node>,
    /// Issuer-local serial, distinguishing otherwise-identical reissues.
    pub(crate) serial: u64,
    /// Transitive-trust limit (the §6 extension): if set, at most this
    /// many further delegations may sit between the proof's subject and
    /// this credential. `Some(0)` means the grant is direct-use only.
    pub(crate) max_extension_depth: Option<u64>,
}

impl Delegation {
    /// The subject receiving permissions.
    pub fn subject(&self) -> &Node {
        &self.subject
    }

    /// The role-like object whose permissions are granted.
    pub fn object(&self) -> &Node {
        &self.object
    }

    /// The issuing entity.
    pub fn issuer(&self) -> EntityId {
        self.issuer
    }

    /// Valued-attribute clauses carried by this delegation.
    pub fn clauses(&self) -> &[AttrClause] {
        &self.clauses
    }

    /// Expiration instant, if any.
    pub fn expires(&self) -> Option<Timestamp> {
        self.expires
    }

    /// Discovery tag for the subject, if any.
    pub fn subject_tag(&self) -> Option<&DiscoveryTag> {
        self.subject_tag.as_ref()
    }

    /// Discovery tag for the object, if any.
    pub fn object_tag(&self) -> Option<&DiscoveryTag> {
        self.object_tag.as_ref()
    }

    /// Discovery tag for the issuer, if any.
    pub fn issuer_tag(&self) -> Option<&DiscoveryTag> {
        self.issuer_tag.as_ref()
    }

    /// The issuer's "acting as" assignment roles.
    pub fn acting_as(&self) -> &[Node] {
        &self.acting_as
    }

    /// Issuer-local serial number.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// The transitive-trust limit, if any (see
    /// [`DelegationBuilder::max_extension_depth`]).
    pub fn max_extension_depth(&self) -> Option<u64> {
        self.max_extension_depth
    }

    /// Self-certified or third-party (see [`DelegationKind`]).
    pub fn kind(&self) -> DelegationKind {
        if self.object.namespace() == self.issuer {
            DelegationKind::SelfCertified
        } else {
            DelegationKind::ThirdParty
        }
    }

    /// `true` if the object is a right-of-assignment (`R'` or attribute
    /// assignment) — the paper's *assignment delegation* form.
    pub fn is_assignment(&self) -> bool {
        self.object.is_admin()
    }

    /// `true` if the delegation is expired at `now`.
    pub fn is_expired(&self, now: Timestamp) -> bool {
        self.expires.is_some_and(|at| now > at)
    }

    /// Attribute clauses whose namespace is *not* the issuer's, each of
    /// which needs attribute-assignment support in a proof.
    pub fn foreign_clauses(&self) -> impl Iterator<Item = &AttrClause> {
        self.clauses
            .iter()
            .filter(move |c| c.attr().entity() != self.issuer)
    }

    /// The right the issuer must hold to issue this delegation, or `None`
    /// when self-certified.
    ///
    /// For a plain role or `R'` object the needed right is `R'` (rights of
    /// assignment delegate themselves along with their role, letting them
    /// be "transitively delegated" like other roles); for an attribute
    /// assignment it is that same attribute-assignment node.
    pub fn required_support(&self) -> Option<Node> {
        if self.kind() == DelegationKind::SelfCertified {
            return None;
        }
        Some(match &self.object {
            Node::Role(r) | Node::RoleAdmin(r) => Node::RoleAdmin(r.clone()),
            Node::AttrAdmin(a) => Node::AttrAdmin(a.clone()),
            Node::Entity(_) => unreachable!("objects are role-like by construction"),
        })
    }

    /// `true` when a proof through this delegation must carry issuer
    /// support: the delegation is third-party, or it has a foreign
    /// attribute clause. This is the wallet's audit set and the set whose
    /// issuers a proof search may search from, so every consumer asks
    /// this one function.
    pub fn needs_support(&self) -> bool {
        self.required_support().is_some() || self.foreign_clauses().next().is_some()
    }

    /// Canonical signing bytes.
    pub fn wire_bytes(&self) -> Vec<u8> {
        self.signing_bytes()
    }
}

impl Body for Delegation {
    const SIGN_TAG: &'static [u8] = b"drbac-delegation-v1";
    const WIRE_TAG: &'static [u8] = b"drbac-cert-v1";

    fn signer(&self) -> EntityId {
        self.issuer
    }
}

impl Expiring for Delegation {
    fn expires(&self) -> Option<Timestamp> {
        self.expires
    }
}

impl Encode for Delegation {
    fn encode(&self, w: &mut Writer) {
        self.subject.encode(w);
        self.object.encode(w);
        self.issuer.encode(w);
        w.list(&self.clauses);
        w.opt_u64(self.expires.map(|t| t.0));
        w.opt(self.subject_tag.as_ref());
        w.opt(self.object_tag.as_ref());
        w.opt(self.issuer_tag.as_ref());
        w.list(&self.acting_as);
        w.u64(self.serial);
        w.opt_u64(self.max_extension_depth);
    }
}

impl crate::wire::Decode for Delegation {
    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::DecodeError> {
        use crate::wire::DecodeError;
        let subject = Node::decode(r)?;
        let object = Node::decode(r)?;
        let issuer = EntityId::decode(r)?;
        let clauses: Vec<AttrClause> = r.list()?;
        let expires = r.opt_u64()?.map(Timestamp);
        let subject_tag: Option<DiscoveryTag> = r.opt()?;
        let object_tag: Option<DiscoveryTag> = r.opt()?;
        let issuer_tag: Option<DiscoveryTag> = r.opt()?;
        let acting_as: Vec<Node> = r.list()?;
        let serial = r.u64()?;
        let max_extension_depth = r.opt_u64()?;
        // Re-validate the construction invariants.
        if !object.is_role_like() {
            return Err(DecodeError::Invalid("object must be role-like".into()));
        }
        if subject == object {
            return Err(DecodeError::Invalid("self-loop delegation".into()));
        }
        Ok(Delegation {
            subject,
            object,
            issuer,
            clauses,
            expires,
            subject_tag,
            object_tag,
            issuer_tag,
            acting_as,
            serial,
            max_extension_depth,
        })
    }
}

impl fmt::Display for Delegation {
    /// The paper's bracket syntax: `[Subject → Object with ...] Issuer`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} -> {}", self.subject, self.object)?;
        for (i, clause) in self.clauses.iter().enumerate() {
            let kw = if i == 0 { "with" } else { "and" };
            write!(f, " {kw} {clause}")?;
        }
        if let Some(at) = self.expires {
            write!(f, " <expiry: {at}>")?;
        }
        if let Some(d) = self.max_extension_depth {
            write!(f, " <depth: {d}>")?;
        }
        write!(f, "] {}", self.issuer)
    }
}

/// Incremental builder for a [`Delegation`].
///
/// # Example
///
/// ```
/// use drbac_core::{AttrOp, LocalEntity, Node, Timestamp};
/// use drbac_crypto::SchnorrGroup;
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let airnet = LocalEntity::generate("AirNet", SchnorrGroup::test_256(), &mut rng);
/// let sheila = LocalEntity::generate("Sheila", SchnorrGroup::test_256(), &mut rng);
/// let bw = airnet.attr("BW", AttrOp::Min);
///
/// let cert = sheila
///     .delegate(Node::entity(&sheila), Node::role(airnet.role("member")))
///     .with_attr(bw, 100.0)?
///     .expires(Timestamp(1000))
///     .sign(&sheila)?;
/// assert_eq!(cert.delegation().clauses().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DelegationBuilder {
    delegation: Delegation,
}

impl DelegationBuilder {
    /// Starts a delegation `[subject → object] issuer`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::ObjectNotRoleLike`] if `object` is a bare entity,
    /// * [`ModelError::SelfLoop`] if `subject == object`.
    pub fn new(subject: Node, object: Node, issuer: EntityId) -> Result<Self, ModelError> {
        if !object.is_role_like() {
            return Err(ModelError::ObjectNotRoleLike(object.to_string()));
        }
        if subject == object {
            return Err(ModelError::SelfLoop(subject.to_string()));
        }
        Ok(DelegationBuilder {
            delegation: Delegation {
                subject,
                object,
                issuer,
                clauses: Vec::new(),
                expires: None,
                subject_tag: None,
                object_tag: None,
                issuer_tag: None,
                acting_as: Vec::new(),
                serial: 0,
                max_extension_depth: None,
            },
        })
    }

    /// Adds a valued-attribute clause.
    ///
    /// # Errors
    ///
    /// See [`crate::AttrOp::check_operand`].
    pub fn with_attr(mut self, attr: AttrRef, operand: f64) -> Result<Self, ModelError> {
        self.delegation
            .clauses
            .push(AttrClause::new(attr, operand)?);
        Ok(self)
    }

    /// Adds an already-validated clause.
    pub fn with_clause(mut self, clause: AttrClause) -> Self {
        self.delegation.clauses.push(clause);
        self
    }

    /// Sets an expiration instant.
    pub fn expires(mut self, at: Timestamp) -> Self {
        self.delegation.expires = Some(at);
        self
    }

    /// Attaches the subject's discovery tag.
    pub fn subject_tag(mut self, tag: DiscoveryTag) -> Self {
        self.delegation.subject_tag = Some(tag);
        self
    }

    /// Attaches the object's discovery tag.
    pub fn object_tag(mut self, tag: DiscoveryTag) -> Self {
        self.delegation.object_tag = Some(tag);
        self
    }

    /// Attaches the issuer's discovery tag.
    pub fn issuer_tag(mut self, tag: DiscoveryTag) -> Self {
        self.delegation.issuer_tag = Some(tag);
        self
    }

    /// Adds an "acting as" assignment role (discovery hint for support
    /// chains).
    pub fn acting_as(mut self, role: Node) -> Self {
        self.delegation.acting_as.push(role);
        self
    }

    /// Sets the issuer-local serial.
    pub fn serial(mut self, serial: u64) -> Self {
        self.delegation.serial = serial;
        self
    }

    /// Limits transitive trust (the extension sketched in the paper's
    /// related-work discussion): at most `depth` further delegations may
    /// appear between a proof's subject and this credential. `0` makes
    /// the grant usable only by its direct subject.
    pub fn max_extension_depth(mut self, depth: u64) -> Self {
        self.delegation.max_extension_depth = Some(depth);
        self
    }

    /// The delegation built so far (unsigned).
    pub fn build(self) -> Delegation {
        self.delegation
    }

    /// Signs with `issuer`'s key, producing a credential.
    ///
    /// # Errors
    ///
    /// [`ValidationError::WrongSigner`] if `issuer` is not the entity
    /// named as this delegation's issuer.
    pub fn sign(self, issuer: &LocalEntity) -> Result<SignedDelegation, ValidationError> {
        SignedDelegation::sign(self.delegation, issuer)
    }
}

impl LocalEntity {
    /// Starts a delegation issued by this entity.
    ///
    /// # Panics
    ///
    /// Panics if the pair is invalid (bare-entity object or self-loop);
    /// use [`DelegationBuilder::new`] for fallible construction.
    pub fn delegate(&self, subject: Node, object: Node) -> DelegationBuilder {
        DelegationBuilder::new(subject, object, self.id()).expect("valid delegation endpoints")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrOp;
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn local(name: &str, seed: u64) -> LocalEntity {
        LocalEntity::generate(
            name,
            SchnorrGroup::test_256(),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn kind_classification() {
        let a = local("A", 1);
        let b = local("B", 2);
        // [B -> A.r] A : self-certified
        let d = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .build();
        assert_eq!(d.kind(), DelegationKind::SelfCertified);
        assert!(d.required_support().is_none());
        // [B -> A.r] B : third-party
        let d = b
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .build();
        assert_eq!(d.kind(), DelegationKind::ThirdParty);
        assert_eq!(d.required_support(), Some(Node::role_admin(a.role("r"))));
    }

    #[test]
    fn assignment_delegations() {
        let a = local("A", 1);
        let b = local("B", 2);
        let d = a
            .delegate(Node::entity(&b), Node::role_admin(a.role("r")))
            .build();
        assert!(d.is_assignment());
        assert_eq!(d.kind(), DelegationKind::SelfCertified);
        // Third-party assignment delegation needs R' support too.
        let d = b
            .delegate(Node::entity(&b), Node::role_admin(a.role("r")))
            .build();
        assert_eq!(d.required_support(), Some(Node::role_admin(a.role("r"))));
    }

    #[test]
    fn attr_admin_object() {
        let a = local("A", 1);
        let b = local("B", 2);
        let bw = a.attr("BW", AttrOp::Min);
        let d = a
            .delegate(Node::entity(&b), Node::attr_admin(bw.clone()))
            .build();
        assert!(d.is_assignment());
        let d = b
            .delegate(Node::entity(&b), Node::attr_admin(bw.clone()))
            .build();
        assert_eq!(d.required_support(), Some(Node::attr_admin(bw)));
    }

    #[test]
    fn builder_rejects_entity_object_and_self_loop() {
        let a = local("A", 1);
        let b = local("B", 2);
        assert!(matches!(
            DelegationBuilder::new(Node::entity(&b), Node::entity(&a), a.id()),
            Err(ModelError::ObjectNotRoleLike(_))
        ));
        let r = Node::role(a.role("r"));
        assert!(matches!(
            DelegationBuilder::new(r.clone(), r, a.id()),
            Err(ModelError::SelfLoop(_))
        ));
    }

    #[test]
    fn foreign_clauses_partition() {
        let a = local("A", 1);
        let b = local("B", 2);
        let own = b.attr("x", AttrOp::Min);
        let foreign = a.attr("y", AttrOp::Min);
        let d = b
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .with_attr(own, 1.0)
            .unwrap()
            .with_attr(foreign.clone(), 2.0)
            .unwrap()
            .build();
        let foreigns: Vec<_> = d.foreign_clauses().collect();
        assert_eq!(foreigns.len(), 1);
        assert_eq!(foreigns[0].attr(), &foreign);
    }

    #[test]
    fn needs_support_covers_third_party_objects_and_foreign_clauses() {
        let a = local("A", 1);
        let b = local("B", 2);
        // First-party: [B -> A.r] A.
        let d = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .build();
        assert!(!d.needs_support());
        // Third-party object: [B -> A.r] B.
        let d = b
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .build();
        assert!(d.needs_support());
        // First-party object with a clause on another entity's attribute.
        let d = b
            .delegate(Node::entity(&a), Node::role(b.role("r")))
            .with_attr(a.attr("y", AttrOp::Min), 2.0)
            .unwrap()
            .build();
        assert!(d.needs_support());
        // Assignment: needs support exactly when issued into a foreign
        // namespace.
        let d = a
            .delegate(Node::entity(&b), Node::role_admin(a.role("r")))
            .build();
        assert!(!d.needs_support());
        let d = b
            .delegate(Node::entity(&b), Node::role_admin(a.role("r")))
            .build();
        assert!(d.needs_support());
    }

    #[test]
    fn expiry_semantics() {
        let a = local("A", 1);
        let b = local("B", 2);
        let d = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .expires(Timestamp(10))
            .build();
        assert!(!d.is_expired(Timestamp(10)));
        assert!(d.is_expired(Timestamp(11)));
        let open = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .build();
        assert!(!open.is_expired(Timestamp(u64::MAX)));
    }

    #[test]
    fn wire_bytes_distinguish_serial_and_fields() {
        let a = local("A", 1);
        let b = local("B", 2);
        let base = a.delegate(Node::entity(&b), Node::role(a.role("r")));
        let d1 = base.clone().serial(1).build();
        let d2 = base.clone().serial(2).build();
        assert_ne!(d1.wire_bytes(), d2.wire_bytes());
        let with_expiry = base.clone().expires(Timestamp(5)).build();
        assert_ne!(d1.wire_bytes(), with_expiry.wire_bytes());
    }

    #[test]
    fn kind_display_and_depth_rendering() {
        assert_eq!(DelegationKind::SelfCertified.to_string(), "self-certified");
        assert_eq!(DelegationKind::ThirdParty.to_string(), "third-party");
        let a = local("A", 1);
        let b = local("B", 2);
        let d = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .max_extension_depth(3)
            .build();
        assert!(d.to_string().contains("<depth: 3>"), "{d}");
        assert_eq!(d.max_extension_depth(), Some(3));
    }

    #[test]
    fn display_uses_paper_syntax() {
        let a = local("A", 1);
        let b = local("B", 2);
        let bw = a.attr("BW", AttrOp::Min);
        let d = a
            .delegate(Node::entity(&b), Node::role(a.role("member")))
            .with_attr(bw, 100.0)
            .unwrap()
            .build();
        let s = d.to_string();
        assert!(s.starts_with('['), "{s}");
        assert!(s.contains(" -> "), "{s}");
        assert!(s.contains("with"), "{s}");
        assert!(s.contains("<= 100"), "{s}");
    }
}
