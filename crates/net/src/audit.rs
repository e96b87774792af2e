//! Public-registry auditing (paper §6).
//!
//! The paper proposes that "a scheme which leverages 'S' and 'O'
//! discovery tags to *require* public registry of further delegation may
//! provide an alternative mechanism to audit and restrict re-delegation":
//! because `s`/`S` (`o`/`O`) tags **require** every delegation with that
//! subject (object) to be stored in its home wallet, an auditor can
//! enumerate the home wallet to see *all* re-delegations — and anything
//! found elsewhere but missing from the registry is a compliance
//! violation.
//!
//! [`audit_store_compliance`] sweeps every host in a [`SimNet`] and
//! reports delegations that their own discovery tags say should be
//! registered at a home wallet but are not. [`redelegations_of`] is the
//! audit query itself: everything the registry knows about a role's
//! onward delegation.

use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;

use drbac_core::{DiscoveryTag, Node, ObjectFlag, SignedDelegation, SubjectFlag, WalletAddr};

use crate::sim::SimNet;

/// One compliance violation: a delegation whose tag requires registry at
/// `home`, observed at `observed_at`, but absent from `home`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreViolation {
    /// The delegation (rendered) that escaped the registry.
    pub delegation: String,
    /// Where the auditor saw it.
    pub observed_at: WalletAddr,
    /// The home wallet that should hold it.
    pub home: WalletAddr,
    /// Which endpoint's tag imposed the requirement.
    pub endpoint: AuditEndpoint,
}

/// Which endpoint's flag triggered the requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditEndpoint {
    /// The subject's `s`/`S` flag.
    Subject,
    /// The object's `o`/`O` flag.
    Object,
}

impl fmt::Display for StoreViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let endpoint = match self.endpoint {
            AuditEndpoint::Subject => "subject",
            AuditEndpoint::Object => "object",
        };
        write!(
            f,
            "{} (seen at {}) must be registered at {} per its {endpoint} tag",
            self.delegation, self.observed_at, self.home
        )
    }
}

fn requires_subject_registry(tag: &DiscoveryTag) -> bool {
    !matches!(tag.subject_flag(), SubjectFlag::None)
}

fn requires_object_registry(tag: &DiscoveryTag) -> bool {
    !matches!(tag.object_flag(), ObjectFlag::None)
}

/// Sweeps every host on the network and reports store-flag violations.
///
/// `hosts` names the wallets to sweep (the auditor's view of the world).
/// Each `(delegation, endpoint)` pair is reported at most once, at the
/// first host (in sweep order) where the auditor observed it — a
/// credential cached at many wallets is still one covert re-delegation.
pub fn audit_store_compliance(net: &SimNet, hosts: &[WalletAddr]) -> Vec<StoreViolation> {
    let mut violations = Vec::new();
    let mut seen: HashSet<(drbac_core::DelegationId, AuditEndpoint)> = HashSet::new();
    for addr in hosts {
        let Some(host) = net.host(addr) else { continue };
        let certs: Vec<Arc<SignedDelegation>> = host.wallet().with_graph(|g| g.iter_certs());
        for cert in certs {
            let d = cert.delegation();
            if let Some(tag) = d.subject_tag() {
                if requires_subject_registry(tag) && seen.insert((cert.id(), AuditEndpoint::Subject))
                {
                    let home = tag.home().clone();
                    if !wallet_holds(net, &home, &cert) {
                        violations.push(StoreViolation {
                            delegation: d.to_string(),
                            observed_at: addr.clone(),
                            home,
                            endpoint: AuditEndpoint::Subject,
                        });
                    }
                }
            }
            if let Some(tag) = d.object_tag() {
                if requires_object_registry(tag) && seen.insert((cert.id(), AuditEndpoint::Object)) {
                    let home = tag.home().clone();
                    if !wallet_holds(net, &home, &cert) {
                        violations.push(StoreViolation {
                            delegation: d.to_string(),
                            observed_at: addr.clone(),
                            home,
                            endpoint: AuditEndpoint::Object,
                        });
                    }
                }
            }
        }
    }
    drbac_obs::static_counter!("drbac.net.audit.sweep.count").inc();
    drbac_obs::static_counter!("drbac.net.audit.violation.count").add(violations.len() as u64);
    violations
}

fn wallet_holds(net: &SimNet, home: &WalletAddr, cert: &SignedDelegation) -> bool {
    net.host(home)
        .map(|h| h.wallet().contains(cert.id()))
        .unwrap_or(false)
}

/// The audit query the registry enables: every delegation registered at
/// `registry` whose *subject* is `node` — i.e. all onward (re-)delegation
/// of that role that the `S` flag forced into the open.
pub fn redelegations_of(net: &SimNet, registry: &WalletAddr, node: &Node) -> Vec<String> {
    let Some(host) = net.host(registry) else {
        return Vec::new();
    };
    let now = host.wallet().now();
    let mut out: BTreeSet<String> = BTreeSet::new();
    host.wallet().with_graph(|g| {
        for cert in g.edges_from(node, now) {
            out.insert(cert.delegation().to_string());
        }
    });
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, Fx};
    use drbac_wallet::Wallet;

    /// The shared fixture with two wallets, `home` and `elsewhere`.
    fn fx() -> Fx {
        let f = testkit::fx();
        for addr in ["home", "elsewhere"] {
            f.net.add_host(addr, Wallet::new(addr, f.clock.clone()));
        }
        f
    }

    fn store_tag(home: &str) -> DiscoveryTag {
        DiscoveryTag::new(home).with_subject_flag(SubjectFlag::Store)
    }

    #[test]
    fn compliant_network_has_no_violations() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .subject_tag(store_tag("home"))
                .sign(&f.a)
                .unwrap();
        f.net
            .host(&"home".into())
            .unwrap()
            .wallet()
            .publish(cert, vec![])
            .unwrap();
        let violations = audit_store_compliance(&f.net, &["home".into(), "elsewhere".into()]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn unregistered_delegation_is_flagged() {
        let f = fx();
        // The tag says "store at home", but the credential only lives at
        // "elsewhere" — a covert re-delegation.
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .subject_tag(store_tag("home"))
                .sign(&f.a)
                .unwrap();
        f.net
            .host(&"elsewhere".into())
            .unwrap()
            .wallet()
            .publish(cert, vec![])
            .unwrap();
        let violations = audit_store_compliance(&f.net, &["home".into(), "elsewhere".into()]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].endpoint, AuditEndpoint::Subject);
        assert_eq!(violations[0].home.as_str(), "home");
        assert!(violations[0].to_string().contains("must be registered"));
    }

    #[test]
    fn object_flags_audited_too() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .object_tag(DiscoveryTag::new("home").with_object_flag(ObjectFlag::Search))
                .sign(&f.a)
                .unwrap();
        f.net
            .host(&"elsewhere".into())
            .unwrap()
            .wallet()
            .publish(cert, vec![])
            .unwrap();
        let violations = audit_store_compliance(&f.net, &["elsewhere".into()]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].endpoint, AuditEndpoint::Object);
    }

    #[test]
    fn violation_reported_once_per_delegation_endpoint_pair() {
        // Regression: the same escaped credential cached at several
        // non-home wallets is ONE violation per triggering endpoint, not
        // one per host it was seen at.
        let f = fx();
        f.net.add_host(
            "elsewhere2",
            Wallet::new("elsewhere2", f.net.clock().clone()),
        );
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .subject_tag(store_tag("home"))
                .object_tag(DiscoveryTag::new("home").with_object_flag(ObjectFlag::Search))
                .sign(&f.a)
                .unwrap();
        for addr in ["elsewhere", "elsewhere2"] {
            f.net
                .host(&addr.into())
                .unwrap()
                .wallet()
                .publish(cert.clone(), vec![])
                .unwrap();
        }
        let hosts: Vec<WalletAddr> =
            vec!["home".into(), "elsewhere".into(), "elsewhere2".into()];
        let violations = audit_store_compliance(&f.net, &hosts);
        // Both endpoints' tags fire, each exactly once, attributed to the
        // first host in sweep order that revealed the credential.
        assert_eq!(violations.len(), 2, "{violations:?}");
        let endpoints: Vec<AuditEndpoint> = violations.iter().map(|v| v.endpoint).collect();
        assert!(endpoints.contains(&AuditEndpoint::Subject));
        assert!(endpoints.contains(&AuditEndpoint::Object));
        for v in &violations {
            assert_eq!(v.observed_at.as_str(), "elsewhere");
        }
        // Sweeping twice is idempotent — same set again, no accumulation.
        assert_eq!(audit_store_compliance(&f.net, &hosts), violations);
    }

    #[test]
    fn violation_display_is_stable() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .subject_tag(store_tag("home"))
                .sign(&f.a)
                .unwrap();
        f.net
            .host(&"elsewhere".into())
            .unwrap()
            .wallet()
            .publish(cert.clone(), vec![])
            .unwrap();
        let violations = audit_store_compliance(&f.net, &["elsewhere".into()]);
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].to_string(),
            format!(
                "{} (seen at elsewhere) must be registered at home per its subject tag",
                cert.delegation()
            )
        );
    }

    #[test]
    fn untagged_delegations_are_unconstrained() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        f.net
            .host(&"elsewhere".into())
            .unwrap()
            .wallet()
            .publish(cert, vec![])
            .unwrap();
        assert!(audit_store_compliance(&f.net, &["elsewhere".into()]).is_empty());
    }

    #[test]
    fn registry_enumerates_redelegations() {
        let f = fx();
        let role = Node::role(f.a.role("shared"));
        let home = f.net.host(&"home".into()).unwrap();
        for i in 0..3 {
            home.wallet()
                .publish(
                    f.a.delegate(role.clone(), Node::role(f.a.role(&format!("onward{i}"))))
                        .subject_tag(store_tag("home"))
                        .sign(&f.a)
                        .unwrap(),
                    vec![],
                )
                .unwrap();
        }
        let listed = redelegations_of(&f.net, &"home".into(), &role);
        assert_eq!(listed.len(), 3, "{listed:?}");
        assert!(redelegations_of(&f.net, &"nowhere".into(), &role).is_empty());
    }
}
