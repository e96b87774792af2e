//! Roles: names within an entity's namespace.

use std::fmt;

use crate::entity::EntityId;
use crate::error::ModelError;

/// A validated role name: 1–64 characters from `[A-Za-z0-9_-]`.
///
/// Validation keeps names unambiguous in the textual delegation syntax
/// (`Entity.LocalName`) and in wire encodings.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoleName(String);

impl RoleName {
    /// Maximum length in bytes.
    pub const MAX_LEN: usize = 64;

    /// Validates and wraps a role name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidName`] if the name is empty, too long,
    /// or contains characters outside `[A-Za-z0-9_-]`.
    pub fn new(name: impl Into<String>) -> Result<Self, ModelError> {
        let name = name.into();
        if name.is_empty() || name.len() > Self::MAX_LEN {
            return Err(ModelError::InvalidName(name));
        }
        if !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(ModelError::InvalidName(name));
        }
        Ok(RoleName(name))
    }

    /// The validated string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RoleName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A role: a [`RoleName`] in an entity's namespace, e.g. `BigISP.member`.
///
/// "dRBAC roles represent classes of permissions controlled by their
/// namespace."
///
/// # Example
///
/// ```
/// use drbac_core::{Role, RoleName, EntityId};
/// use drbac_crypto::KeyFingerprint;
///
/// let ns = EntityId(KeyFingerprint([7u8; 32]));
/// let role = Role::new(ns, RoleName::new("member")?);
/// assert_eq!(role.name().as_str(), "member");
/// # Ok::<(), drbac_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Role {
    entity: EntityId,
    name: RoleName,
}

impl Role {
    /// Creates a role in `entity`'s namespace.
    pub fn new(entity: EntityId, name: RoleName) -> Self {
        Role { entity, name }
    }

    /// The namespace-owning entity.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// The local name.
    pub fn name(&self) -> &RoleName {
        &self.name
    }
}

impl fmt::Display for Role {
    /// `entity.name` with the short fingerprint form of the entity.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.entity, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_crypto::KeyFingerprint;

    fn ns(b: u8) -> EntityId {
        EntityId(KeyFingerprint([b; 32]))
    }

    #[test]
    fn valid_names() {
        for ok in [
            "member",
            "member-services",
            "wallet_1",
            "X",
            "a".repeat(64).as_str(),
        ] {
            assert!(RoleName::new(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn invalid_names() {
        for bad in [
            "",
            "has space",
            "dot.name",
            "tick'",
            "a".repeat(65).as_str(),
            "ünïcode",
        ] {
            assert!(RoleName::new(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn role_identity_includes_namespace() {
        let member = RoleName::new("member").unwrap();
        let r1 = Role::new(ns(1), member.clone());
        let r2 = Role::new(ns(2), member);
        assert_ne!(r1, r2);
        assert_eq!(r1, Role::new(ns(1), RoleName::new("member").unwrap()));
    }

    #[test]
    fn display_is_dotted() {
        let r = Role::new(ns(1), RoleName::new("ops").unwrap());
        assert!(r.to_string().ends_with(".ops"));
    }
}
