//! Discovery tags (paper §4.2.1): annotations that direct cross-wallet
//! credential discovery.
//!
//! Every subject, object, and issuer of a delegation may carry a tag
//! naming the entity's (or role's) *home wallet*, the dRBAC role that
//! authorizes that wallet, a TTL for cached validity, and two ternary
//! search flags:
//!
//! * subject flag `-` / `s` (*store with subject*) / `S` (*search from
//!   subject*): `s` and `S` require delegations with this subject to be
//!   stored in its home wallet; `S` additionally requires every object
//!   role this subject can be granted to be of type `S` as well, which is
//!   what makes forward (subject→object) search complete.
//! * object flag `-` / `o` / `O`, symmetrically, for reverse search.

use std::fmt;


use crate::clock::Ticks;
use crate::role::Role;

/// Logical address of a wallet host (e.g. `wallet.bigISP.com`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WalletAddr(String);

impl WalletAddr {
    /// Wraps an address string.
    pub fn new(addr: impl Into<String>) -> Self {
        WalletAddr(addr.into())
    }

    /// The address string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for WalletAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for WalletAddr {
    fn from(s: &str) -> Self {
        WalletAddr::new(s)
    }
}

/// Ternary subject-discovery flag (`-`, `s`, `S`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SubjectFlag {
    /// No storage requirement.
    #[default]
    None,
    /// *store with subject*: delegations with this subject are stored in
    /// its home wallet.
    Store,
    /// *search from subject*: as `Store`, and every object role this
    /// subject can be granted must also be `Search`.
    Search,
}

/// Ternary object-discovery flag (`-`, `o`, `O`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ObjectFlag {
    /// No storage requirement.
    #[default]
    None,
    /// *store with object*: delegations naming this object are stored in
    /// the object's home wallet.
    Store,
    /// *search from object*: as `Store`, and every subject this object can
    /// be granted to must also be `Search`.
    Search,
}

impl fmt::Display for SubjectFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SubjectFlag::None => "-",
            SubjectFlag::Store => "s",
            SubjectFlag::Search => "S",
        })
    }
}

impl fmt::Display for ObjectFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObjectFlag::None => "-",
            ObjectFlag::Store => "o",
            ObjectFlag::Search => "O",
        })
    }
}

/// A discovery tag, e.g.
/// `bigISP.member<wallet.bigISP.com:bigISP.wallet:30:So>`.
///
/// # Example
///
/// ```
/// use drbac_core::{DiscoveryTag, ObjectFlag, SubjectFlag, Ticks};
///
/// let tag = DiscoveryTag::new("wallet.bigisp.example")
///     .with_ttl(Ticks(30))
///     .with_subject_flag(SubjectFlag::Search)
///     .with_object_flag(ObjectFlag::Store);
/// assert_eq!(tag.ttl(), Ticks(30));
/// assert!(tag.to_string().contains(":So"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DiscoveryTag {
    home: WalletAddr,
    auth_role: Option<Role>,
    ttl: Ticks,
    subject_flag: SubjectFlag,
    object_flag: ObjectFlag,
}

impl DiscoveryTag {
    /// A tag pointing at `home` with zero TTL and no search flags.
    pub fn new(home: impl Into<WalletAddr>) -> Self {
        DiscoveryTag {
            home: home.into(),
            auth_role: None,
            ttl: Ticks(0),
            subject_flag: SubjectFlag::None,
            object_flag: ObjectFlag::None,
        }
    }

    /// Sets the role that authorizes the home wallet (and its proxies).
    pub fn with_auth_role(mut self, role: Role) -> Self {
        self.auth_role = Some(role);
        self
    }

    /// Sets the cached-validity TTL. Zero means "does not require
    /// monitoring".
    pub fn with_ttl(mut self, ttl: Ticks) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the subject search flag.
    pub fn with_subject_flag(mut self, flag: SubjectFlag) -> Self {
        self.subject_flag = flag;
        self
    }

    /// Sets the object search flag.
    pub fn with_object_flag(mut self, flag: ObjectFlag) -> Self {
        self.object_flag = flag;
        self
    }

    /// The home wallet address.
    pub fn home(&self) -> &WalletAddr {
        &self.home
    }

    /// The wallet-authorizing role, if any.
    pub fn auth_role(&self) -> Option<&Role> {
        self.auth_role.as_ref()
    }

    /// The cached-validity TTL.
    pub fn ttl(&self) -> Ticks {
        self.ttl
    }

    /// The subject search flag.
    pub fn subject_flag(&self) -> SubjectFlag {
        self.subject_flag
    }

    /// The object search flag.
    pub fn object_flag(&self) -> ObjectFlag {
        self.object_flag
    }

    /// `true` if forward (subject→object) search from a node tagged like
    /// this is complete.
    pub fn searchable_from_subject(&self) -> bool {
        self.subject_flag == SubjectFlag::Search
    }

    /// `true` if reverse (object→subject) search is complete.
    pub fn searchable_from_object(&self) -> bool {
        self.object_flag == ObjectFlag::Search
    }
}

impl fmt::Display for DiscoveryTag {
    /// The paper's `<home:role:ttl:flags>` rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}:", self.home)?;
        match &self.auth_role {
            Some(r) => write!(f, "{r}")?,
            None => f.write_str("-")?,
        }
        write!(
            f,
            ":{}:{}{}>",
            self.ttl.0, self.subject_flag, self.object_flag
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntityId, RoleName};
    use drbac_crypto::KeyFingerprint;

    #[test]
    fn builder_sets_all_fields() {
        let role = Role::new(
            EntityId(KeyFingerprint([1; 32])),
            RoleName::new("wallet").unwrap(),
        );
        let tag = DiscoveryTag::new("w.example")
            .with_auth_role(role.clone())
            .with_ttl(Ticks(30))
            .with_subject_flag(SubjectFlag::Search)
            .with_object_flag(ObjectFlag::Store);
        assert_eq!(tag.home().as_str(), "w.example");
        assert_eq!(tag.auth_role(), Some(&role));
        assert_eq!(tag.ttl(), Ticks(30));
        assert!(tag.searchable_from_subject());
        assert!(!tag.searchable_from_object());
    }

    #[test]
    fn display_matches_paper_syntax() {
        let tag = DiscoveryTag::new("wallet.bigISP.com")
            .with_ttl(Ticks(30))
            .with_subject_flag(SubjectFlag::Search)
            .with_object_flag(ObjectFlag::Store);
        let s = tag.to_string();
        assert!(s.starts_with("<wallet.bigISP.com:"));
        assert!(s.ends_with(":30:So>"), "{s}");
    }

    #[test]
    fn wallet_addr_conversions_and_display() {
        let a: WalletAddr = "wallet.example".into();
        assert_eq!(a.as_str(), "wallet.example");
        assert_eq!(a.to_string(), "wallet.example");
        assert_eq!(WalletAddr::new(String::from("x")), WalletAddr::new("x"));
    }

    #[test]
    fn flag_displays_match_paper_glyphs() {
        assert_eq!(SubjectFlag::None.to_string(), "-");
        assert_eq!(SubjectFlag::Store.to_string(), "s");
        assert_eq!(SubjectFlag::Search.to_string(), "S");
        assert_eq!(ObjectFlag::None.to_string(), "-");
        assert_eq!(ObjectFlag::Store.to_string(), "o");
        assert_eq!(ObjectFlag::Search.to_string(), "O");
    }

    #[test]
    fn default_flags_are_none() {
        let tag = DiscoveryTag::new("w");
        assert_eq!(tag.subject_flag(), SubjectFlag::None);
        assert_eq!(tag.object_flag(), ObjectFlag::None);
        assert!(!tag.searchable_from_subject());
        assert!(!tag.searchable_from_object());
        assert!(tag.to_string().contains(":-:0:--"));
    }
}
