//! Scenario specifications: topology families and size parameters.

use std::fmt;

/// A coalition topology family — one structural archetype of how
/// delegations, entities, and queries are arranged across a federation.
///
/// The paper's evaluation exercises a single 5-delegation story; each
/// family here generalizes one stress axis of that story so the soak
/// suite can exercise discovery, revocation, and monitoring across
/// qualitatively different shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Long assignment ladders: each user's credential chains through
    /// many role rungs, each rung homed at a different org wallet, so
    /// discovery must walk the full depth across the federation. Some
    /// rung delegations carry `<depth: N>` limits (§6), so some queries
    /// for a user's own rungs are denied by a limit alone.
    DeepLadder,
    /// Wide fan-out meshes: users funnel into per-org hub roles which
    /// fan out to many leaf roles — shallow proofs, high branching.
    WideFanout,
    /// Two federations joined by a handful of bridge delegations;
    /// cross-federation queries succeed only through a bridge, and
    /// queries in the unbridged direction must be denied.
    CrossFederation,
    /// Attribute-heavy chains: rungs in the attribute owner's namespace
    /// carry valued-attribute clauses, and a share of the queries carry
    /// `at_least` constraints (checked for soundness, not completeness
    /// — distributed constrained search is deliberately greedy).
    AttributeChain,
    /// Entity churn: a random mesh followed by waves of members leaving
    /// (all their credentials revoked) and new members joining
    /// (credentials published mid-schedule), with queries interleaved.
    Churn,
    /// Revocation storm: a mesh, a round of monitored queries, then a
    /// burst revoking a large fraction of all delegations, then
    /// post-storm queries that must observe the denials.
    RevocationStorm,
    /// Flash-crowd query bursts: a small world hammered with repeated
    /// queries concentrated on a few hot (subject, object) pairs.
    FlashCrowd,
}

impl Family {
    /// Every family, in canonical order.
    pub const ALL: [Family; 7] = [
        Family::DeepLadder,
        Family::WideFanout,
        Family::CrossFederation,
        Family::AttributeChain,
        Family::Churn,
        Family::RevocationStorm,
        Family::FlashCrowd,
    ];

    /// Stable kebab-case name used in reports and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Family::DeepLadder => "deep-ladder",
            Family::WideFanout => "wide-fanout",
            Family::CrossFederation => "cross-federation",
            Family::AttributeChain => "attribute-chain",
            Family::Churn => "churn",
            Family::RevocationStorm => "revocation-storm",
            Family::FlashCrowd => "flash-crowd",
        }
    }

    /// A family-specific salt mixed into the world seed so two families
    /// generated from the same seed do not share key material.
    pub(crate) fn salt(self) -> u64 {
        // Arbitrary fixed odd constants; part of the reproducibility
        // contract (changing them changes every generated world).
        match self {
            Family::DeepLadder => 0x9e37_79b9_7f4a_7c15,
            Family::WideFanout => 0xbf58_476d_1ce4_e5b9,
            Family::CrossFederation => 0x94d0_49bb_1331_11eb,
            Family::AttributeChain => 0xd6e8_feb8_6659_fd93,
            Family::Churn => 0xa076_1d64_78bd_642f,
            Family::RevocationStorm => 0xe703_7ed1_a0b4_28db,
            Family::FlashCrowd => 0x8ebc_6af0_9c88_c6e3,
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Size parameters for a generated world. Every count is a target the
/// family generator may round to its structure (a ladder spends its
/// delegation budget on rungs, a mesh on random edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of organizations — one home wallet (and, over TCP, one
    /// daemon) per org.
    pub orgs: usize,
    /// Number of user entities, homed round-robin across the orgs.
    pub users: usize,
    /// Roles per org namespace (`r0..r{n-1}`).
    pub roles_per_org: usize,
    /// Target delegation count.
    pub delegations: usize,
    /// Target query count.
    pub queries: usize,
}

impl Scale {
    /// Tiny worlds for the check.sh budget: a few orgs, a couple dozen
    /// delegations.
    pub fn smoke() -> Self {
        Scale {
            orgs: 4,
            users: 6,
            roles_per_org: 3,
            delegations: 28,
            queries: 18,
        }
    }

    /// The default soak size: large enough that discovery crosses many
    /// wallets, small enough for a test matrix.
    pub fn standard() -> Self {
        Scale {
            orgs: 8,
            users: 14,
            roles_per_org: 4,
            delegations: 110,
            queries: 60,
        }
    }

    /// A federation sized to `wallets` org wallets — used for the
    /// multi-daemon TCP acceptance runs (≥ 100 wallets).
    pub fn federation(wallets: usize) -> Self {
        let orgs = wallets.max(2);
        Scale {
            orgs,
            users: orgs,
            roles_per_org: 2,
            delegations: orgs * 3,
            queries: 48,
        }
    }
}

/// A fully-specified scenario: family × seed × scale. Generation is a
/// pure function of this value — see [`ScenarioSpec::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// The topology family to generate.
    pub family: Family,
    /// World seed: keys, edge placement, query targets all derive from
    /// it (mixed with the family salt).
    pub seed: u64,
    /// Size parameters.
    pub scale: Scale,
}

impl ScenarioSpec {
    /// A spec at [`Scale::standard`].
    pub fn new(family: Family, seed: u64) -> Self {
        ScenarioSpec {
            family,
            seed,
            scale: Scale::standard(),
        }
    }

    /// Replaces the scale.
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Generates the world: entities, the event schedule, and (via
    /// [`crate::Oracle`]) the ground truth. Deterministic: equal specs
    /// yield byte-identical schedules.
    pub fn generate(&self) -> crate::Scenario {
        crate::generate::generate(self)
    }
}
