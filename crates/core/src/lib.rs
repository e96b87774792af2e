#![warn(missing_docs)]

//! The dRBAC delegation model (ICDCS 2002).
//!
//! This crate implements the paper's core constructs:
//!
//! * **Entities** ([`Entity`], [`EntityId`]) — PKI identities whose public
//!   keys define namespaces,
//! * **Roles** ([`Role`], [`RoleName`]) — names in an entity's namespace,
//!   including *right-of-assignment* roles (`R'`, [`Node::RoleAdmin`]) and
//!   *attribute-assignment* roles ([`Node::AttrAdmin`]),
//! * **Delegations** ([`Delegation`], [`SignedDelegation`]) — signed
//!   certificates `[Subject → Object] Issuer` in self-certified,
//!   third-party, and assignment forms, optionally carrying valued
//!   attribute clauses, discovery tags, and expiry,
//! * **Valued attributes** ([`AttrClause`], [`AttrOp`],
//!   [`AttrAccumulator`]) — monotone modulation of access levels along
//!   delegation chains,
//! * **Proofs** ([`Proof`], [`ProofStep`]) — DAGs of delegations with
//!   recursive support proofs, validated cryptographically and
//!   structurally,
//! * **Clocks** ([`SimClock`], [`Timestamp`]) — logical time for expiry,
//!   TTLs, and deterministic distributed tests.
//!
//! # Quickstart
//!
//! ```
//! use drbac_core::{LocalEntity, Node, SimClock};
//! use drbac_crypto::SchnorrGroup;
//! # use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let group = SchnorrGroup::test_256();
//! let big_isp = LocalEntity::generate("BigISP", group.clone(), &mut rng);
//! let maria = LocalEntity::generate("Maria", group, &mut rng);
//!
//! // Self-certified: [Maria -> BigISP.member] BigISP
//! let member = big_isp.role("member");
//! let cert = big_isp
//!     .delegate(Node::entity(&maria), Node::role(member))
//!     .sign(&big_isp)?;
//!
//! let clock = SimClock::new();
//! assert!(cert.verify(clock.now()).is_ok());
//! # Ok::<(), drbac_core::ValidationError>(())
//! ```

mod attr;
mod cert;
mod clock;
mod delegation;
mod entity;
mod error;
mod proof;
mod revocation;
mod role;
mod signed;
pub mod syntax;
mod tag;
mod wire;

pub use attr::{
    AttrAccumulator, AttrClause, AttrConstraint, AttrDeclaration, AttrName, AttrOp, AttrRef,
    AttrSummary, DeclarationSet, SignedAttrDeclaration,
};
pub use cert::{DelegationId, SignedDelegation};
pub use clock::{SimClock, Ticks, Timestamp};
pub use delegation::{Delegation, DelegationBuilder, DelegationKind};
pub use entity::{Entity, EntityId, LocalEntity};
pub use error::{ModelError, ValidationError};
pub use proof::{Proof, ProofStep, ProofValidator, RevocationLookup, ValidationContext};
pub use revocation::{RevocationNotice, SignedRevocation};
pub use role::{Role, RoleName};
pub use signed::Signed;
pub use tag::{DiscoveryTag, ObjectFlag, SubjectFlag, WalletAddr};
pub use wire::{encode_tagged, Decode, DecodeError, Encode, Reader, Writer};

/// Graph node / delegation endpoint: an entity, a role, a role's
/// right-of-assignment (`R'`), or an attribute's right-of-assignment.
///
/// The paper treats rights-of-assignment "as if they were just another
/// role"; modelling all four as one node type lets the delegation graph,
/// discovery, and proofs handle them uniformly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Node {
    /// A principal or resource identified by its key fingerprint.
    Entity(EntityId),
    /// A plain role `E.name`.
    Role(Role),
    /// The right of assignment `E.name'` over a role.
    RoleAdmin(Role),
    /// The right to set a valued attribute (`[S → E.attr op=']`).
    AttrAdmin(AttrRef),
}

impl Node {
    /// Convenience constructor from anything entity-like.
    pub fn entity(e: impl AsEntityId) -> Node {
        Node::Entity(e.as_entity_id())
    }

    /// Convenience constructor for a plain role node.
    pub fn role(r: Role) -> Node {
        Node::Role(r)
    }

    /// Convenience constructor for a right-of-assignment node (`R'`).
    pub fn role_admin(r: Role) -> Node {
        Node::RoleAdmin(r)
    }

    /// Convenience constructor for an attribute-assignment node.
    pub fn attr_admin(a: AttrRef) -> Node {
        Node::AttrAdmin(a)
    }

    /// The entity whose namespace controls this node (the entity itself
    /// for [`Node::Entity`]).
    pub fn namespace(&self) -> EntityId {
        match self {
            Node::Entity(e) => *e,
            Node::Role(r) | Node::RoleAdmin(r) => r.entity(),
            Node::AttrAdmin(a) => a.entity(),
        }
    }

    /// `true` for the role-like nodes that may appear as a delegation
    /// object (everything but a bare entity).
    pub fn is_role_like(&self) -> bool {
        !matches!(self, Node::Entity(_))
    }

    /// `true` if this node is a right-of-assignment (role or attribute).
    pub fn is_admin(&self) -> bool {
        matches!(self, Node::RoleAdmin(_) | Node::AttrAdmin(_))
    }

    /// The `R'` node corresponding to a plain role node, if any.
    pub fn admin_of(&self) -> Option<Node> {
        match self {
            Node::Role(r) => Some(Node::RoleAdmin(r.clone())),
            _ => None,
        }
    }
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Entity(e) => write!(f, "{e}"),
            Node::Role(r) => write!(f, "{r}"),
            Node::RoleAdmin(r) => write!(f, "{r}'"),
            Node::AttrAdmin(a) => write!(f, "{a}'"),
        }
    }
}

/// Types that can stand in for an entity identity.
pub trait AsEntityId {
    /// The canonical identity.
    fn as_entity_id(&self) -> EntityId;
}

impl AsEntityId for EntityId {
    fn as_entity_id(&self) -> EntityId {
        *self
    }
}

impl AsEntityId for &EntityId {
    fn as_entity_id(&self) -> EntityId {
        **self
    }
}

impl AsEntityId for &Entity {
    fn as_entity_id(&self) -> EntityId {
        self.id()
    }
}

impl AsEntityId for &LocalEntity {
    fn as_entity_id(&self) -> EntityId {
        self.id()
    }
}

#[cfg(test)]
mod node_tests {
    use super::*;
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
    fn node_namespace_and_kind() {
        let a = local("A", 1);
        let role = a.role("admin");
        assert_eq!(Node::role(role.clone()).namespace(), a.id());
        assert_eq!(Node::entity(&a).namespace(), a.id());
        assert!(Node::role(role.clone()).is_role_like());
        assert!(!Node::entity(&a).is_role_like());
        assert!(Node::role_admin(role.clone()).is_admin());
        assert!(!Node::role(role.clone()).is_admin());
        assert_eq!(
            Node::role(role.clone()).admin_of(),
            Some(Node::role_admin(role))
        );
        assert_eq!(Node::entity(&a).admin_of(), None);
    }

    #[test]
    fn node_display_forms() {
        let a = local("A", 1);
        let role = a.role("ops");
        assert!(Node::role(role.clone()).to_string().ends_with(".ops"));
        assert!(Node::role_admin(role).to_string().ends_with(".ops'"));
    }
}
