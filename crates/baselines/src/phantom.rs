//! The phantom-role encoding of third-party delegation (paper §3.1.3 and
//! §6).
//!
//! "In both SDSI/SPKI and RT0, the only way to allow a third party T to
//! delegate a privilege P controlled by entity O is to introduce a
//! phantom role representing P into T's namespace." This module builds
//! both encodings concretely so the `separability` bench can count the
//! roles and delegations each needs as the number of roles and
//! administrators grows.

use drbac_core::{LocalEntity, Node, SignedDelegation, ValidationError};

/// Size accounting for one encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodingCost {
    /// Role names created across all namespaces (namespace pollution).
    pub roles_created: usize,
    /// Delegations that must be issued and maintained before any user is
    /// enrolled.
    pub setup_delegations: usize,
    /// Delegations per user enrollment.
    pub per_user_delegations: usize,
}

/// The credentials produced by an encoding build.
#[derive(Debug)]
pub struct Encoding {
    /// Cost counters.
    pub cost: EncodingCost,
    /// The setup credentials themselves.
    pub setup: Vec<SignedDelegation>,
}

/// dRBAC's native encoding: the owner groups the `k` roles' assignment
/// rights under one administrative role and delegates that role to each
/// of the `m` administrators (third-party delegation does the rest).
///
/// Setup: `k` assignment delegations `[O.admin → O.r_i'] O` plus `m`
/// delegations `[T_j → O.admin] O`. No roles enter the administrators'
/// namespaces. Each enrollment is then a single third-party delegation
/// `[user → O.r_i] T_j`.
///
/// # Errors
///
/// Propagates signing failures (none in practice for well-formed input).
pub fn drbac_encoding(
    owner: &LocalEntity,
    admins: &[LocalEntity],
    role_names: &[String],
) -> Result<Encoding, ValidationError> {
    let admin_role = owner.role("admin");
    let mut setup = Vec::new();
    for name in role_names {
        let role = owner.role(name);
        setup.push(
            owner
                .delegate(Node::role(admin_role.clone()), Node::role_admin(role))
                .sign(owner)?,
        );
    }
    for admin in admins {
        setup.push(
            owner
                .delegate(Node::entity(admin), Node::role(admin_role.clone()))
                .sign(owner)?,
        );
    }
    Ok(Encoding {
        cost: EncodingCost {
            // Only the owner's namespace grows: k roles + 1 admin role.
            roles_created: role_names.len() + 1,
            setup_delegations: setup.len(),
            per_user_delegations: 1,
        },
        setup,
    })
}

/// The phantom-role encoding: every administrator `T_j` must mint a local
/// phantom role `T_j.r_i` for every delegable role `r_i`, and the owner
/// must link each phantom into its real role (`[T_j.r_i → O.r_i] O`).
///
/// Setup: `k` owner roles plus `k·m` phantom roles and `k·m` linking
/// delegations. Each enrollment is one self-certified delegation into the
/// phantom role.
///
/// # Errors
///
/// Propagates signing failures.
pub fn phantom_encoding(
    owner: &LocalEntity,
    admins: &[LocalEntity],
    role_names: &[String],
) -> Result<Encoding, ValidationError> {
    let mut setup = Vec::new();
    let mut phantom_roles = 0usize;
    for admin in admins {
        for name in role_names {
            let phantom = admin.role(&format!("phantom-{name}"));
            phantom_roles += 1;
            // Owner links the phantom to the real role (self-certified in
            // the owner's namespace, so no support machinery is needed —
            // that's the SPKI/RT0 workaround).
            setup.push(
                owner
                    .delegate(Node::role(phantom), Node::role(owner.role(name)))
                    .sign(owner)?,
            );
        }
    }
    Ok(Encoding {
        cost: EncodingCost {
            roles_created: role_names.len() + phantom_roles,
            setup_delegations: setup.len(),
            per_user_delegations: 1,
        },
        setup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world(admins: usize) -> (LocalEntity, Vec<LocalEntity>) {
        let mut rng = StdRng::seed_from_u64(111);
        let g = SchnorrGroup::test_256();
        let owner = LocalEntity::generate("Owner", g.clone(), &mut rng);
        let admins = (0..admins)
            .map(|i| LocalEntity::generate(format!("T{i}"), g.clone(), &mut rng))
            .collect();
        (owner, admins)
    }

    fn roles(k: usize) -> Vec<String> {
        (0..k).map(|i| format!("r{i}")).collect()
    }

    #[test]
    fn drbac_setup_is_k_plus_m() {
        let (owner, admins) = world(4);
        let enc = drbac_encoding(&owner, &admins, &roles(6)).unwrap();
        assert_eq!(enc.cost.setup_delegations, 6 + 4);
        assert_eq!(enc.cost.roles_created, 6 + 1);
        assert_eq!(enc.setup.len(), 10);
    }

    #[test]
    fn phantom_setup_is_k_times_m() {
        let (owner, admins) = world(4);
        let enc = phantom_encoding(&owner, &admins, &roles(6)).unwrap();
        assert_eq!(enc.cost.setup_delegations, 24);
        assert_eq!(enc.cost.roles_created, 6 + 24);
    }

    #[test]
    fn drbac_encoding_actually_authorizes_enrollment() {
        use drbac_core::{ProofValidator, Timestamp, ValidationContext};
        use drbac_graph::{DelegationGraph, SearchOptions};

        let (owner, admins) = world(2);
        let mut rng = StdRng::seed_from_u64(5);
        let user = LocalEntity::generate("User", SchnorrGroup::test_256(), &mut rng);
        let enc = drbac_encoding(&owner, &admins, &roles(3)).unwrap();

        let graph = DelegationGraph::new();
        for cert in enc.setup {
            graph.insert(cert);
        }
        // Admin 0 enrolls the user into owner's r1 via third-party
        // delegation — the support chain is already in the graph.
        let cert = admins[0]
            .delegate(Node::entity(&user), Node::role(owner.role("r1")))
            .sign(&admins[0])
            .unwrap();
        graph.insert(cert);

        let (proof, _) = graph.direct_query(
            &Node::entity(&user),
            &Node::role(owner.role("r1")),
            &SearchOptions::at(Timestamp(0)),
        );
        let proof = proof.expect("third-party enrollment authorized");
        ProofValidator::new(ValidationContext::at(Timestamp(0)))
            .validate(&proof)
            .unwrap();
    }

    #[test]
    fn phantom_encoding_authorizes_via_local_role() {
        use drbac_core::{ProofValidator, Timestamp, ValidationContext};
        use drbac_graph::{DelegationGraph, SearchOptions};

        let (owner, admins) = world(2);
        let mut rng = StdRng::seed_from_u64(6);
        let user = LocalEntity::generate("User", SchnorrGroup::test_256(), &mut rng);
        let enc = phantom_encoding(&owner, &admins, &roles(3)).unwrap();

        let graph = DelegationGraph::new();
        for cert in enc.setup {
            graph.insert(cert);
        }
        // Enrollment: admin self-certifies the user into its phantom role.
        let cert = admins[0]
            .delegate(
                Node::entity(&user),
                Node::role(admins[0].role("phantom-r1")),
            )
            .sign(&admins[0])
            .unwrap();
        graph.insert(cert);

        let (proof, _) = graph.direct_query(
            &Node::entity(&user),
            &Node::role(owner.role("r1")),
            &SearchOptions::at(Timestamp(0)),
        );
        let proof = proof.expect("phantom chain authorizes");
        assert_eq!(proof.chain_len(), 2, "user -> phantom -> real role");
        ProofValidator::new(ValidationContext::at(Timestamp(0)))
            .validate(&proof)
            .unwrap();
    }

    #[test]
    fn costs_diverge_with_scale() {
        let (owner, admins) = world(8);
        let k = 10;
        let d = drbac_encoding(&owner, &admins, &roles(k)).unwrap().cost;
        let p = phantom_encoding(&owner, &admins, &roles(k)).unwrap().cost;
        assert!(d.setup_delegations < p.setup_delegations);
        assert!(d.roles_created < p.roles_created);
    }
}
