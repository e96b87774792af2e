//! Reproduction of every table and figure in the dRBAC paper (ICDCS
//! 2002). Each test is the canonical, executable record of one artifact;
//! EXPERIMENTS.md indexes them.

use drbac::core::{
    AttrConstraint, AttrDeclaration, AttrOp, DiscoveryTag, LocalEntity, Node, ObjectFlag, Proof,
    ProofStep, ProofValidator, SignedAttrDeclaration, SignedRevocation, SimClock, SubjectFlag,
    Ticks, Timestamp, ValidationContext,
};
use drbac::crypto::SchnorrGroup;
use drbac::disco::CoalitionScenario;
use drbac::net::DiscoveryStep;
use drbac::wallet::Wallet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x2002)
}

fn entity(name: &str, rng: &mut StdRng) -> LocalEntity {
    LocalEntity::generate(name, SchnorrGroup::test_256(), rng)
}

/// **Table 1** — the base delegation model. Constructs delegations
/// (1)–(3) exactly as printed and proves `Maria ⇒ BigISP.member`.
#[test]
fn table1_base_delegation_model() {
    let mut rng = rng();
    let big_isp = entity("BigISP", &mut rng);
    let mark = entity("Mark", &mut rng);
    let maria = entity("Maria", &mut rng);
    let member = big_isp.role("member");
    let member_services = big_isp.role("memberServices");

    // (1) [Mark -> BigISP.memberServices] BigISP — self-certified.
    let d1 = big_isp
        .delegate(Node::entity(&mark), Node::role(member_services.clone()))
        .sign(&big_isp)
        .unwrap();
    assert_eq!(
        d1.delegation().kind(),
        drbac::core::DelegationKind::SelfCertified
    );

    // (2) [BigISP.memberServices -> BigISP.member'] BigISP — assignment.
    let d2 = big_isp
        .delegate(
            Node::role(member_services),
            Node::role_admin(member.clone()),
        )
        .sign(&big_isp)
        .unwrap();
    assert!(d2.delegation().is_assignment());

    // (3) [Maria -> BigISP.member] Mark — third-party.
    let d3 = mark
        .delegate(Node::entity(&maria), Node::role(member.clone()))
        .sign(&mark)
        .unwrap();
    assert_eq!(
        d3.delegation().kind(),
        drbac::core::DelegationKind::ThirdParty
    );

    // "(1) and (2) compose a valid proof for Mark ⇒ BigISP.member', which
    // in turn acts as a support proof for delegation (3)."
    let support = Proof::from_steps(vec![ProofStep::new(d1), ProofStep::new(d2)]).unwrap();
    assert_eq!(support.subject(), &Node::entity(&mark));
    assert_eq!(support.object(), &Node::role_admin(member.clone()));

    // "Together, delegations (1), (2), and (3) prove that
    // Maria ⇒ BigISP.member."
    let proof = Proof::from_steps(vec![ProofStep::new(d3).with_support(support)]).unwrap();
    let validator = ProofValidator::new(ValidationContext::at(Timestamp(0)));
    validator
        .validate_query(&proof, &Node::entity(&maria), &Node::role(member), &[])
        .expect("the paper's example proof validates");
}

/// **Table 2** — valued attributes and attribute-assignment: delegations
/// (4) and (5) as printed, plus the discovery-tag and expiry syntax.
#[test]
fn table2_extensions() {
    let mut rng = rng();
    let big_isp = entity("BigISP", &mut rng);
    let air_net = entity("AirNet", &mut rng);
    let sheila = entity("Sheila", &mut rng);

    let bw = air_net.attr("BW", AttrOp::Min);
    let storage = air_net.attr("storage", AttrOp::Subtract);
    let mktg = air_net.role("mktg");

    // (4) [BigISP.member -> AirNet.member with AirNet.BW <= 100
    //      and AirNet.storage -= 20] Sheila
    let d4 = sheila
        .delegate(
            Node::role(big_isp.role("member")),
            Node::role(air_net.role("member")),
        )
        .with_attr(bw.clone(), 100.0)
        .unwrap()
        .with_attr(storage.clone(), 20.0)
        .unwrap()
        .sign(&sheila)
        .unwrap();
    let rendered = d4.delegation().to_string();
    assert!(rendered.contains("with"), "{rendered}");
    assert!(rendered.contains("<= 100"), "{rendered}");
    assert!(rendered.contains("-= 20"), "{rendered}");

    // (5) [AirNet.mktg -> AirNet.storage -= '] AirNet — delegation of
    // assignment for a valued attribute.
    let d5 = air_net
        .delegate(Node::role(mktg), Node::attr_admin(storage.clone()))
        .sign(&air_net)
        .unwrap();
    assert!(d5.delegation().is_assignment());
    assert!(d5.delegation().object().to_string().ends_with("storage'"));

    // Discovery-tag rendering: the §4.2.1 example
    // bigISP.member<wallet.bigISP.com:bigISP.wallet:30:So>.
    let tag = DiscoveryTag::new("wallet.bigISP.com")
        .with_auth_role(big_isp.role("wallet"))
        .with_ttl(Ticks(30))
        .with_subject_flag(SubjectFlag::Search)
        .with_object_flag(ObjectFlag::Store);
    assert!(tag.to_string().ends_with(":30:So>"), "{tag}");

    // Expiration-date semantics.
    let expiring = sheila
        .delegate(
            Node::role(big_isp.role("member")),
            Node::role(air_net.role("member")),
        )
        .expires(Timestamp(100))
        .build();
    assert!(!expiring.is_expired(Timestamp(100)));
    assert!(expiring.is_expired(Timestamp(101)));
}

/// **Table 2 semantics** — operator monotonicity: "no entity is able to
/// delegate greater permissions than they have themselves."
#[test]
fn table2_operator_ranges_enforced() {
    let mut rng = rng();
    let air_net = entity("AirNet", &mut rng);
    let bw = air_net.attr("BW", AttrOp::Min);
    let storage = air_net.attr("storage", AttrOp::Subtract);
    let hours = air_net.attr("hours", AttrOp::Scale);

    assert!(
        storage.clause(-5.0).is_err(),
        "negative subtract would increase access"
    );
    assert!(
        hours.clause(1.5).is_err(),
        "scale > 1 would increase access"
    );
    assert!(hours.clause(-0.1).is_err());
    assert!(bw.clause(f64::NAN).is_err());
    assert!(storage.clause(0.0).is_ok());
    assert!(hours.clause(1.0).is_ok());
}

/// **Table 3 + §5 + Figure 2** — the full case study: distributed proof
/// construction for `Maria ⇒ AirNet.access`, reproducing the exact
/// effective attribute values BW = 100 (≤ 200), storage = 30 (= 50 − 20),
/// hours = 18 (= 60 × 0.3).
#[test]
fn table3_figure2_case_study() {
    let mut rng = rng();
    let scenario = CoalitionScenario::build(&mut rng);

    // Figure 2(a): server wallet empty; home wallets hold their subjects'
    // delegations with support proofs.
    assert!(scenario.server.wallet().is_empty());
    assert!(scenario
        .bigisp_home
        .wallet()
        .contains(scenario.partnership_cert.id()));
    assert!(scenario
        .airnet_home
        .wallet()
        .contains(scenario.access_cert.id()));

    let outcome = scenario.establish_access();
    assert!(outcome.found(), "trace: {:?}", outcome.trace);

    // Figure 2(b) steps: local miss → BigISP home subject query → AirNet
    // home direct query → proof assembled locally.
    assert_eq!(outcome.trace[0], DiscoveryStep::LocalQuery { found: false });
    let wallets: Vec<&str> = outcome
        .wallets_contacted
        .iter()
        .map(|w| w.as_str())
        .collect();
    assert!(wallets.contains(&drbac::disco::scenario::BIGISP_WALLET));
    assert!(wallets.contains(&drbac::disco::scenario::AIRNET_WALLET));

    // §5 step 5: the exact numbers.
    let monitor = outcome.monitor.unwrap();
    for (attr, expected) in scenario.expected_grants() {
        let got = monitor.summary().get(&attr).unwrap();
        assert!((got - expected).abs() < 1e-9, "{attr}: {got} != {expected}");
    }

    // Deterministic message accounting for the whole walkthrough: one
    // subject query at BigISP's home, two direct queries (the miss at
    // BigISP's home, the hit at AirNet's), seven coherence subscriptions
    // (partnership + five support credentials + access root), and the
    // declaration fetches — 24 messages in total.
    let stats = scenario.net.stats();
    assert_eq!(stats.requests("subject-query"), 1);
    assert_eq!(stats.requests("direct-query"), 2);
    assert_eq!(stats.requests("subscribe"), 7);
    assert_eq!(stats.requests("fetch-declarations"), 2);
    assert_eq!(stats.total_messages, 24);
    // Every message is the frame `wire` builds for it, header included,
    // so the byte count is as exact as the message count.
    assert_eq!(stats.total_bytes, 6_475);

    // §5 step 6: the proof is monitored; Figure 2(b)'s subscriptions make
    // a revocation at BigISP's home wallet invalidate the server's proof.
    assert!(monitor.is_valid());
    scenario.revoke_partnership();
    assert!(!monitor.is_valid());
}

/// **Figure 1** — the single-wallet structure: publication, the three
/// query forms, and proof monitoring against one wallet.
#[test]
fn figure1_single_wallet_operations() {
    let mut rng = rng();
    let a = entity("A", &mut rng);
    let c = entity("C", &mut rng);
    let clock = SimClock::new();
    let wallet = Wallet::new("figure1.wallet", clock.clone());

    // The figure's contents: two delegations supporting A => C.c.
    // [A -> B.b] B and [B.b -> C.c] C (both self-certified).
    let b = entity("B", &mut rng);
    let d1 = b
        .delegate(Node::entity(&a), Node::role(b.role("b")))
        .sign(&b)
        .unwrap();
    let d2 = c
        .delegate(Node::role(b.role("b")), Node::role(c.role("c")))
        .sign(&c)
        .unwrap();
    wallet.publish(d1, vec![]).unwrap();
    wallet.publish(d2.clone(), vec![]).unwrap();

    // Direct query.
    let monitor = wallet
        .query_direct(&Node::entity(&a), &Node::role(c.role("c")), &[])
        .expect("A => C.c");
    assert_eq!(monitor.proof().chain_len(), 2);

    // Subject query: A => * enumerates both reachable roles.
    let subject_proofs = wallet.query_subject(&Node::entity(&a), &[]);
    assert_eq!(subject_proofs.len(), 2);

    // Object query: * => C.c enumerates both reaching subjects.
    let object_proofs = wallet.query_object(&Node::role(c.role("c")), &[]);
    assert_eq!(object_proofs.len(), 2);

    // Proof monitoring: revocation fires the callback.
    let revocation = SignedRevocation::revoke(&d2, &c, clock.now()).unwrap();
    wallet.revoke(&revocation).unwrap();
    assert!(!monitor.is_valid());
}

/// **§3.1.3 separability** — "grouping assignment capabilities into a
/// role R, which can be further delegated": an administrative role whose
/// holder can hand out several privileges, with the aggregate still
/// decomposable.
#[test]
fn separability_admin_role_decomposes() {
    let mut rng = rng();
    let owner = entity("Owner", &mut rng);
    let admin = entity("Admin", &mut rng);
    let alice = entity("Alice", &mut rng);
    let clock = SimClock::new();
    let wallet = Wallet::new("sep.wallet", clock);

    // Owner groups assignment of read & write under Owner.admin.
    let admin_role = owner.role("admin");
    for r in ["read", "write"] {
        wallet
            .publish(
                owner
                    .delegate(
                        Node::role(admin_role.clone()),
                        Node::role_admin(owner.role(r)),
                    )
                    .sign(&owner)
                    .unwrap(),
                vec![],
            )
            .unwrap();
    }
    wallet
        .publish(
            owner
                .delegate(Node::entity(&admin), Node::role(admin_role))
                .sign(&owner)
                .unwrap(),
            vec![],
        )
        .unwrap();

    // The admin delegates ONLY read to Alice — the aggregate decomposes.
    wallet
        .publish(
            admin
                .delegate(Node::entity(&alice), Node::role(owner.role("read")))
                .sign(&admin)
                .unwrap(),
            vec![],
        )
        .unwrap();
    assert!(wallet
        .query_direct(&Node::entity(&alice), &Node::role(owner.role("read")), &[])
        .is_some());
    assert!(wallet
        .query_direct(&Node::entity(&alice), &Node::role(owner.role("write")), &[])
        .is_none());
}

/// **§6 revocation-scheme comparison (F-C), pinned** — one revocation
/// among five monitored delegations over 1000 ticks: delegation
/// subscriptions cost messages only for the change, OCSP polling and
/// CRLs pay every period regardless.
#[test]
fn section6_revocation_scheme_comparison_pinned() {
    use drbac::baselines::crl::{CrlPublisher, CrlSubscriber};
    use drbac::baselines::ocsp::{OcspClient, OcspResponder};
    use drbac::net::{proto::Request, SimNet};
    use std::sync::Arc;

    let mut rng = rng();
    let owner = entity("Owner", &mut rng);
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let home = net.add_host("home", Wallet::new("home", clock.clone()));

    let certs: Vec<Arc<drbac::core::SignedDelegation>> = (0..5)
        .map(|i| {
            let user = entity(&format!("U{i}"), &mut rng);
            let cert = Arc::new(
                owner
                    .delegate(
                        Node::entity(&user),
                        Node::role(owner.role(&format!("r{i}"))),
                    )
                    .sign(&owner)
                    .unwrap(),
            );
            home.wallet().publish(Arc::clone(&cert), vec![]).unwrap();
            cert
        })
        .collect();
    // Five caches, each subscribed to its credential.
    for (i, cert) in certs.iter().enumerate() {
        let addr = format!("cache{i}");
        let host = net.add_host(addr.as_str(), Wallet::new(addr.as_str(), clock.clone()));
        let proof = Proof::from_steps(vec![ProofStep::new(Arc::clone(cert))]).unwrap();
        host.wallet().absorb_proof(&proof, home.addr()).unwrap();
        net.request(
            &"home".into(),
            Request::Subscribe {
                delegation: cert.id(),
                subscriber: addr.as_str().into(),
            },
        )
        .unwrap();
    }
    net.reset_stats();

    // Subscriptions: one revocation = 1 revoke RPC (2 messages) + 1 push.
    clock.advance_to(Timestamp(500));
    let revocation = drbac::core::SignedRevocation::revoke(&certs[2], &owner, clock.now()).unwrap();
    net.request(&"home".into(), Request::Revoke(revocation))
        .unwrap();
    net.run_until_idle();
    let stats = net.stats();
    assert_eq!(
        stats.total_messages, 3,
        "subscription: pay only for the change"
    );
    assert_eq!(stats.push_messages, 1);

    // OCSP over the same horizon: polls at t0,100,…,1000 for all 5 ids.
    let mut responder = OcspResponder::new();
    let mut clients: Vec<OcspClient> = certs
        .iter()
        .map(|c| OcspClient::new(Ticks(100), vec![c.id()]))
        .collect();
    let mut ocsp_messages = 0;
    for t in 0..=1000u64 {
        if t == 501 {
            responder.revoke(certs[2].id(), Timestamp(501));
        }
        for client in &mut clients {
            ocsp_messages += client.tick(Timestamp(t), &mut responder);
        }
    }
    assert_eq!(ocsp_messages, 11 * 5 * 2, "OCSP pays every poll");
    // Revoked just after the t=500 poll; detected at t=600.
    assert_eq!(
        clients[2].staleness(certs[2].id(), &responder),
        Some(Ticks(99))
    );

    // CRL over the same horizon: a full list to all 5 subscribers at
    // t0,100,…,1000.
    let mut publisher = CrlPublisher::new(Ticks(100));
    let mut subscribers: Vec<CrlSubscriber> = (0..5).map(|_| CrlSubscriber::new()).collect();
    let mut crl_messages = 0u64;
    for t in 0..=1000u64 {
        if t == 501 {
            publisher.revoke(certs[2].id(), Timestamp(501));
        }
        for list in publisher.publish_due(Timestamp(t)) {
            for sub in &mut subscribers {
                sub.receive(&list);
                crl_messages += 1;
            }
        }
    }
    assert_eq!(
        crl_messages,
        11 * 5,
        "CRL pays every period for every subscriber"
    );
    assert!(
        subscribers[0].knows_revoked(certs[2].id()),
        "even irrelevant subscribers get it"
    );
}

/// **§4.2.3** — monotonicity-based pruning: a constrained search visits
/// no more edges than an unconstrained replica of itself, and both find
/// the satisfying path.
#[test]
fn section423_constraint_pruning() {
    let mut rng = rng();
    let isp = entity("ISP", &mut rng);
    let user = entity("User", &mut rng);
    let clock = SimClock::new();
    let wallet = Wallet::new("prune.wallet", clock);

    let bw = isp.attr("bw", AttrOp::Min);
    let decl = SignedAttrDeclaration::sign(AttrDeclaration::new(bw.clone(), 1000.0).unwrap(), &isp)
        .unwrap();
    wallet.publish_declaration(&decl).unwrap();

    // A low-bandwidth subtree that a bw>=500 query can prune entirely.
    let weak = isp.role("weak");
    wallet
        .publish(
            isp.delegate(Node::entity(&user), Node::role(weak.clone()))
                .with_attr(bw.clone(), 10.0)
                .unwrap()
                .sign(&isp)
                .unwrap(),
            vec![],
        )
        .unwrap();
    for i in 0..10 {
        wallet
            .publish(
                isp.delegate(
                    Node::role(weak.clone()),
                    Node::role(isp.role(&format!("w{i}"))),
                )
                .sign(&isp)
                .unwrap(),
                vec![],
            )
            .unwrap();
    }
    // The good path.
    let target = isp.role("stream");
    wallet
        .publish(
            isp.delegate(Node::entity(&user), Node::role(target.clone()))
                .with_attr(bw.clone(), 800.0)
                .unwrap()
                .sign(&isp)
                .unwrap(),
            vec![],
        )
        .unwrap();

    let constraint = AttrConstraint::at_least(bw, 500.0);
    let (with_pruning, stats) = wallet.query_direct_with_stats(
        &Node::entity(&user),
        &Node::role(target),
        std::slice::from_ref(&constraint),
    );
    let monitor = with_pruning.expect("good path satisfies");
    assert!(monitor.is_valid());
    // The weak subtree's 10 fan-out edges were never expanded past the
    // pruned entry edge.
    assert!(
        stats.edges_considered <= 4,
        "pruned search considered {}",
        stats.edges_considered
    );
}
