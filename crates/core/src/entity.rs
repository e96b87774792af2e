//! Entities: the PKI identities that own namespaces.

use std::fmt;
use std::sync::Arc;

use drbac_crypto::{KeyFingerprint, KeyPair, PublicKey, SchnorrGroup, Signature};
use rand::Rng;

use crate::role::{Role, RoleName};
use crate::{AttrName, AttrOp, AttrRef};

/// The identity of a dRBAC entity: the fingerprint of its public key.
///
/// dRBAC "does not distinguish between owners of resources ... and
/// principals attempting to access them. Both are termed entities and
/// represented by a unique PKI public identity."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub KeyFingerprint);

impl EntityId {
    /// The underlying fingerprint.
    pub fn fingerprint(&self) -> KeyFingerprint {
        self.0
    }
}

impl fmt::Display for EntityId {
    /// Short hex prefix of the fingerprint.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An entity as others see it: a human-readable name plus a public key.
///
/// The name is advisory (display only); the key fingerprint is the
/// authoritative identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    name: String,
    public_key: PublicKey,
}

impl Entity {
    /// Creates an entity descriptor.
    pub fn new(name: impl Into<String>, public_key: PublicKey) -> Self {
        Entity {
            name: name.into(),
            public_key,
        }
    }

    /// The advisory display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public_key
    }

    /// The authoritative identity.
    pub fn id(&self) -> EntityId {
        EntityId(self.public_key.fingerprint())
    }

    /// A role in this entity's namespace.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`RoleName`].
    pub fn role(&self, name: &str) -> Role {
        Role::new(self.id(), RoleName::new(name).expect("valid role name"))
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<{}>", self.name, self.id())
    }
}

/// An entity *we* control: descriptor plus signing key.
///
/// This is the handle used by issuers in tests, examples, and
/// applications. Cheap to clone (shared key material).
///
/// # Example
///
/// ```
/// use drbac_core::LocalEntity;
/// use drbac_crypto::SchnorrGroup;
/// # use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let isp = LocalEntity::generate("BigISP", SchnorrGroup::test_256(), &mut rng);
/// let member = isp.role("member");
/// assert_eq!(member.entity(), isp.id());
/// ```
#[derive(Debug, Clone)]
pub struct LocalEntity {
    entity: Entity,
    keys: Arc<KeyPair>,
}

impl LocalEntity {
    /// Generates a fresh entity with a new key pair.
    pub fn generate<R: Rng + ?Sized>(
        name: impl Into<String>,
        group: SchnorrGroup,
        rng: &mut R,
    ) -> Self {
        let keys = KeyPair::generate(group, rng);
        LocalEntity {
            entity: Entity::new(name, keys.public_key().clone()),
            keys: Arc::new(keys),
        }
    }

    /// Builds a local entity from an existing key pair (reproducible
    /// fixtures).
    pub fn from_keypair(name: impl Into<String>, keys: KeyPair) -> Self {
        LocalEntity {
            entity: Entity::new(name, keys.public_key().clone()),
            keys: Arc::new(keys),
        }
    }

    /// The public descriptor.
    pub fn entity(&self) -> &Entity {
        &self.entity
    }

    /// The advisory display name.
    pub fn name(&self) -> &str {
        self.entity.name()
    }

    /// The authoritative identity.
    pub fn id(&self) -> EntityId {
        self.entity.id()
    }

    /// The public key.
    pub fn public_key(&self) -> &PublicKey {
        self.entity.public_key()
    }

    /// A role in this entity's namespace.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`RoleName`].
    pub fn role(&self, name: &str) -> Role {
        self.entity.role(name)
    }

    /// An attribute reference in this entity's namespace.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`AttrName`].
    pub fn attr(&self, name: &str, op: AttrOp) -> AttrRef {
        AttrRef::new(
            self.id(),
            AttrName::new(name).expect("valid attribute name"),
            op,
        )
    }

    /// Signs arbitrary bytes with this entity's key.
    pub fn sign_bytes(&self, msg: &[u8]) -> Signature {
        self.keys.sign(msg)
    }

    /// Diffie–Hellman shared secret with a peer (see
    /// [`KeyPair::shared_secret`]).
    pub fn shared_secret(&self, peer: &PublicKey) -> Option<[u8; 32]> {
        self.keys.shared_secret(peer)
    }
}

impl fmt::Display for LocalEntity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.entity.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn identity_is_key_fingerprint() {
        let e = local("A", 1);
        assert_eq!(e.id().fingerprint(), e.public_key().fingerprint());
        assert_eq!(e.entity().id(), e.id());
    }

    #[test]
    fn same_name_different_keys_are_different_entities() {
        let a = local("Corp", 1);
        let b = local("Corp", 2);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn signed_bytes_verify_with_public_key() {
        let e = local("A", 1);
        let sig = e.sign_bytes(b"hello");
        assert!(e.public_key().verify(b"hello", &sig));
    }

    #[test]
    fn display_contains_name_and_fingerprint() {
        let e = local("AirNet", 3);
        let s = e.to_string();
        assert!(s.starts_with("AirNet<"));
        assert!(s.ends_with('>'));
    }
}
