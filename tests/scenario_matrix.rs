//! Scenario-matrix test: every delegation topology shape × the full
//! credential lifecycle (publish → query → serialize → revoke), so each
//! structural form the model supports is exercised through the whole
//! stack in one place.

mod common;

use std::sync::Arc;

use common::{lifecycle_world as world, LifecycleWorld as World};
use drbac::core::{
    AttrConstraint, AttrDeclaration, AttrOp, Node, Proof, ProofStep, SignedAttrDeclaration,
    SignedDelegation, SignedRevocation,
};
use drbac::store::WalletStore;
use drbac::wallet::{DurableWallet, Wallet};

/// One topology: a closure that populates the wallet and returns the
/// query target plus every credential on the expected proof.
type Topology = fn(&World) -> (Node, Vec<Arc<SignedDelegation>>);

fn direct_grant(w: &World) -> (Node, Vec<Arc<SignedDelegation>>) {
    let target = Node::role(w.owner.role("direct"));
    let cert = Arc::new(
        w.owner
            .delegate(Node::entity(&w.user), target.clone())
            .sign(&w.owner)
            .unwrap(),
    );
    w.wallet.publish(Arc::clone(&cert), vec![]).unwrap();
    (target, vec![cert])
}

fn role_chain(w: &World) -> (Node, Vec<Arc<SignedDelegation>>) {
    let mid = Node::role(w.owner.role("chain-mid"));
    let target = Node::role(w.owner.role("chain-end"));
    let c1 = Arc::new(
        w.owner
            .delegate(Node::entity(&w.user), mid.clone())
            .sign(&w.owner)
            .unwrap(),
    );
    let c2 = Arc::new(
        w.owner
            .delegate(mid, target.clone())
            .sign(&w.owner)
            .unwrap(),
    );
    w.wallet.publish(Arc::clone(&c1), vec![]).unwrap();
    w.wallet.publish(Arc::clone(&c2), vec![]).unwrap();
    (target, vec![c1, c2])
}

fn third_party(w: &World) -> (Node, Vec<Arc<SignedDelegation>>) {
    let role = w.owner.role("tp");
    let target = Node::role(role.clone());
    let grant = w
        .owner
        .delegate(Node::entity(&w.broker), Node::role_admin(role))
        .sign(&w.owner)
        .unwrap();
    let support = Proof::from_steps(vec![ProofStep::new(grant)]).unwrap();
    let cert = Arc::new(
        w.broker
            .delegate(Node::entity(&w.user), target.clone())
            .sign(&w.broker)
            .unwrap(),
    );
    w.wallet.publish(Arc::clone(&cert), vec![support]).unwrap();
    (target, vec![cert])
}

fn admin_chain_then_grant(w: &World) -> (Node, Vec<Arc<SignedDelegation>>) {
    // Assignment right flows through a role: owner.admins holds R',
    // broker holds owner.admins, broker issues R.
    let role = w.owner.role("ac");
    let target = Node::role(role.clone());
    let admins = Node::role(w.owner.role("ac-admins"));
    w.wallet
        .publish(
            w.owner
                .delegate(admins.clone(), Node::role_admin(role))
                .sign(&w.owner)
                .unwrap(),
            vec![],
        )
        .unwrap();
    w.wallet
        .publish(
            w.owner
                .delegate(Node::entity(&w.broker), admins)
                .sign(&w.owner)
                .unwrap(),
            vec![],
        )
        .unwrap();
    let cert = Arc::new(
        w.broker
            .delegate(Node::entity(&w.user), target.clone())
            .sign(&w.broker)
            .unwrap(),
    );
    w.wallet.publish(Arc::clone(&cert), vec![]).unwrap();
    (target, vec![cert])
}

fn attr_modulated(w: &World) -> (Node, Vec<Arc<SignedDelegation>>) {
    let bw = w.owner.attr("mx-bw", AttrOp::Min);
    let decl =
        SignedAttrDeclaration::sign(AttrDeclaration::new(bw.clone(), 500.0).unwrap(), &w.owner)
            .unwrap();
    w.wallet.publish_declaration(&decl).unwrap();
    let target = Node::role(w.owner.role("attr-target"));
    let cert = Arc::new(
        w.owner
            .delegate(Node::entity(&w.user), target.clone())
            .with_attr(bw, 200.0)
            .unwrap()
            .sign(&w.owner)
            .unwrap(),
    );
    w.wallet.publish(Arc::clone(&cert), vec![]).unwrap();
    (target, vec![cert])
}

fn depth_limited_direct(w: &World) -> (Node, Vec<Arc<SignedDelegation>>) {
    let target = Node::role(w.owner.role("dl"));
    let cert = Arc::new(
        w.owner
            .delegate(Node::entity(&w.user), target.clone())
            .max_extension_depth(0)
            .sign(&w.owner)
            .unwrap(),
    );
    w.wallet.publish(Arc::clone(&cert), vec![]).unwrap();
    (target, vec![cert])
}

const TOPOLOGIES: &[(&str, Topology)] = &[
    ("direct grant", direct_grant),
    ("role chain", role_chain),
    ("third-party with provided support", third_party),
    ("assignment chain then third-party", admin_chain_then_grant),
    ("attribute-modulated grant", attr_modulated),
    ("depth-limited direct grant", depth_limited_direct),
];

#[test]
fn every_topology_survives_the_full_lifecycle() {
    for (i, (name, build)) in TOPOLOGIES.iter().enumerate() {
        let w = world(1000 + i as u64);
        let store = Arc::new(WalletStore::in_memory());
        w.wallet.attach_journal(Arc::clone(&store));
        let (target, chain_certs) = build(&w);
        let subject = Node::entity(&w.user);

        // 1. Query succeeds with a live monitor.
        let monitor = w
            .wallet
            .query_direct(&subject, &target, &[])
            .unwrap_or_else(|| panic!("{name}: query failed"));
        assert!(monitor.is_valid(), "{name}");

        // 2. The proof survives a byte-level round trip and re-validates
        //    at a fresh wallet.
        let bytes = monitor.proof().to_bytes();
        let decoded = Proof::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: decode {e}"));
        assert_eq!(&decoded, monitor.proof(), "{name}");
        let fresh = Wallet::new("fresh", w.clock.clone());
        fresh
            .monitor_external_proof(decoded, &subject, &target, &[])
            .unwrap_or_else(|e| panic!("{name}: revalidate {e}"));

        // 3. Wallet persistence preserves the answer: the journal
        //    replays into a fresh wallet.
        let (restored, report) = DurableWallet::open("restored", w.clock.clone(), store)
            .unwrap_or_else(|e| panic!("{name}: replay {e}"));
        assert_eq!(report.skipped, 0, "{name}");
        assert!(
            restored.query_direct(&subject, &target, &[]).is_some(),
            "{name}: restored query"
        );

        // 4. Revoking any chain credential kills the session and the
        //    answer.
        let victim = &chain_certs[0];
        let revocation = SignedRevocation::revoke(
            victim,
            if victim.delegation().issuer() == w.owner.id() {
                &w.owner
            } else {
                &w.broker
            },
            w.clock.now(),
        )
        .unwrap_or_else(|e| panic!("{name}: revoke {e}"));
        w.wallet
            .revoke(&revocation)
            .unwrap_or_else(|e| panic!("{name}: apply revoke {e}"));
        assert!(!monitor.is_valid(), "{name}: monitor survived revocation");
        assert!(
            w.wallet.query_direct(&subject, &target, &[]).is_none(),
            "{name}: answer survived"
        );
    }
}

#[test]
fn attribute_topology_respects_constraints_end_to_end() {
    let w = world(77);
    let (target, _) = attr_modulated(&w);
    let subject = Node::entity(&w.user);
    let bw = w.owner.attr("mx-bw", AttrOp::Min);
    assert!(w
        .wallet
        .query_direct(
            &subject,
            &target,
            &[AttrConstraint::at_least(bw.clone(), 200.0)]
        )
        .is_some());
    assert!(w
        .wallet
        .query_direct(&subject, &target, &[AttrConstraint::at_least(bw, 201.0)])
        .is_none());
}
