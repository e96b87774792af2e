//! End-to-end lifecycle tests across the whole stack: coalition setup,
//! distributed discovery, caching coherence, expiry, and recovery.

use std::sync::Arc;

use drbac::core::{
    AttrConstraint, DiscoveryTag, LocalEntity, Node, Proof, ProofStep, SignedRevocation, SimClock,
    SubjectFlag, Ticks,
};
use drbac::crypto::SchnorrGroup;
use drbac::disco::{CoalitionScenario, ProtectedResource};
use drbac::net::{proto::Request, Directory, DiscoveryAgent, SimNet};
use drbac::wallet::Wallet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario() -> CoalitionScenario {
    CoalitionScenario::build(&mut StdRng::seed_from_u64(77))
}

/// The DisCo layer end to end: a protected resource authorizes Maria via
/// discovery, the session carries the right grants, and the partnership
/// revocation terminates it.
#[test]
fn protected_resource_full_lifecycle() {
    let s = scenario();
    let resource =
        ProtectedResource::new("airport-uplink", s.access_role(), s.server.wallet().clone());

    let presented = s.present_credentials();
    let mut agent = s.server_agent(&presented);
    let session = resource
        .authorize_with_discovery(&Node::entity(&s.maria), &mut agent)
        .expect("coalition authorizes Maria");
    assert!(session.is_active());
    assert_eq!(session.grants().get(&s.bw), Some(100.0));

    s.revoke_partnership();
    assert!(!session.is_active());

    // A second authorization attempt now fails outright.
    let mut agent = s.server_agent(&s.present_credentials());
    assert!(resource
        .authorize_with_discovery(&Node::entity(&s.maria), &mut agent)
        .is_err());
}

/// Constraints flow through distributed discovery: a demanding resource
/// rejects Maria even though the unconstrained proof exists.
#[test]
fn constrained_discovery_respects_attribute_limits() {
    let s = scenario();
    let presented = s.present_credentials();

    // Maria's effective BW is 100; demanding 150 must fail...
    let mut agent = s.server_agent(&presented);
    let outcome = agent.discover(
        &Node::entity(&s.maria),
        &Node::role(s.access_role()),
        &[AttrConstraint::at_least(s.bw.clone(), 150.0)],
    );
    assert!(!outcome.found(), "trace: {:?}", outcome.trace);

    // ...while demanding 100 succeeds.
    let mut agent = s.server_agent(&presented);
    let outcome = agent.discover(
        &Node::entity(&s.maria),
        &Node::role(s.access_role()),
        &[AttrConstraint::at_least(s.bw.clone(), 100.0)],
    );
    assert!(outcome.found(), "trace: {:?}", outcome.trace);
}

/// Cache coherence: after discovery, the server wallet holds validated
/// copies with TTL metadata; advancing past the TTL marks them stale.
#[test]
fn absorbed_credentials_carry_ttl_coherence() {
    let s = scenario();
    let outcome = s.establish_access();
    assert!(outcome.found());
    // Remote credentials were cached (partnership chain + access root).
    assert!(s.server.wallet().len() >= 3);
    assert!(s.server.wallet().stale_entries().is_empty());
    // The scenario tags use TTL 240.
    s.clock.advance(Ticks(241));
    assert!(!s.server.wallet().stale_entries().is_empty());
}

/// Expiry propagates like revocation: a short-lived partnership ends by
/// itself, and the push reaches the server's monitor.
#[test]
fn expiring_partnership_terminates_sessions() {
    let mut rng = StdRng::seed_from_u64(88);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let user = LocalEntity::generate("User", group, &mut rng);
    let home = net.add_host("home", Wallet::new("home", clock.clone()));
    let server = net.add_host("server", Wallet::new("server", clock.clone()));

    let cert: Arc<_> = Arc::new(
        owner
            .delegate(Node::entity(&user), Node::role(owner.role("r")))
            .expires(clock.now().after(Ticks(50)))
            .subject_tag(
                DiscoveryTag::new("home")
                    .with_ttl(Ticks(10))
                    .with_subject_flag(SubjectFlag::Search),
            )
            .sign(&owner)
            .unwrap(),
    );
    home.wallet().publish(Arc::clone(&cert), vec![]).unwrap();

    let proof = Proof::from_steps(vec![ProofStep::new(Arc::clone(&cert))]).unwrap();
    server.wallet().absorb_proof(&proof, home.addr()).unwrap();
    net.request(
        &"home".into(),
        Request::Subscribe {
            delegation: cert.id(),
            subscriber: "server".into(),
        },
    )
    .unwrap();
    let monitor = server
        .wallet()
        .query_direct(&Node::entity(&user), &Node::role(owner.role("r")), &[])
        .unwrap();
    assert!(monitor.is_valid());

    clock.advance(Ticks(60));
    assert_eq!(home.process_expiries(), 1);
    net.run_until_idle();
    assert!(!monitor.is_valid());
    assert!(server
        .wallet()
        .query_direct(&Node::entity(&user), &Node::role(owner.role("r")), &[])
        .is_none());
}

/// Recovery after revocation through an alternate path: when one
/// authorization chain dies, a newly published independent chain
/// re-enables access, and the pending-proof watch fires.
#[test]
fn alternate_path_recovery_with_proof_watch() {
    let mut rng = StdRng::seed_from_u64(99);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let broker = LocalEntity::generate("Broker", group.clone(), &mut rng);
    let user = LocalEntity::generate("User", group, &mut rng);
    let wallet = Wallet::new("w", clock.clone());

    // Chain 1 via the broker.
    wallet
        .publish(
            owner
                .delegate(Node::entity(&broker), Node::role_admin(owner.role("r")))
                .sign(&owner)
                .unwrap(),
            vec![],
        )
        .unwrap();
    let enrollment = broker
        .delegate(Node::entity(&user), Node::role(owner.role("r")))
        .sign(&broker)
        .unwrap();
    wallet.publish(enrollment.clone(), vec![]).unwrap();
    let monitor = wallet
        .query_direct(&Node::entity(&user), &Node::role(owner.role("r")), &[])
        .unwrap();

    // Kill chain 1.
    let revocation = SignedRevocation::revoke(&enrollment, &broker, clock.now()).unwrap();
    wallet.revoke(&revocation).unwrap();
    assert!(!monitor.is_valid());

    // Register a pending-proof watch: fires when access becomes possible
    // again (paper §4.2.2: "the entity object can register a callback
    // that will be activated when such a proof is available").
    let recovered = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let recovered2 = Arc::clone(&recovered);
    wallet.watch_for_proof(
        Node::entity(&user),
        Node::role(owner.role("r")),
        vec![],
        move |m| {
            assert!(m.is_valid());
            recovered2.store(true, std::sync::atomic::Ordering::SeqCst);
        },
    );
    assert!(!recovered.load(std::sync::atomic::Ordering::SeqCst));

    // Chain 2: direct enrollment by the owner.
    wallet
        .publish(
            owner
                .delegate(Node::entity(&user), Node::role(owner.role("r")))
                .sign(&owner)
                .unwrap(),
            vec![],
        )
        .unwrap();
    assert!(recovered.load(std::sync::atomic::Ordering::SeqCst));
}

/// Discovery across four organizations (deep chain), asserting the
/// number of wallets contacted grows with the chain, not the graph.
#[test]
fn deep_chain_discovery_contacts_each_home_once() {
    let mut rng = StdRng::seed_from_u64(111);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let orgs: Vec<LocalEntity> = (0..4)
        .map(|i| LocalEntity::generate(format!("Org{i}"), group.clone(), &mut rng))
        .collect();
    let user = LocalEntity::generate("User", group, &mut rng);
    let hosts: Vec<_> = (0..4)
        .map(|i| {
            let addr = format!("w{i}");
            net.add_host(addr.as_str(), Wallet::new(addr.as_str(), clock.clone()))
        })
        .collect();
    let server = net.add_host("server", Wallet::new("server", clock.clone()));

    let tag = |i: usize| {
        DiscoveryTag::new(format!("w{i}").as_str())
            .with_ttl(Ticks(30))
            .with_subject_flag(SubjectFlag::Search)
    };
    let user_cert = Arc::new(
        orgs[0]
            .delegate(Node::entity(&user), Node::role(orgs[0].role("p")))
            .object_tag(tag(0))
            .sign(&orgs[0])
            .unwrap(),
    );
    hosts[0]
        .wallet()
        .publish(Arc::clone(&user_cert), vec![])
        .unwrap();
    for i in 0..3 {
        let object = if i == 2 {
            orgs[3].role("resource")
        } else {
            orgs[i + 1].role("p")
        };
        hosts[i]
            .wallet()
            .publish(
                orgs[i + 1]
                    .delegate(Node::role(orgs[i].role("p")), Node::role(object))
                    .subject_tag(tag(i))
                    .object_tag(tag(i + 1))
                    .sign(&orgs[i + 1])
                    .unwrap(),
                vec![],
            )
            .unwrap();
    }

    let presented = Proof::from_steps(vec![ProofStep::new(user_cert)]).unwrap();
    server
        .wallet()
        .absorb_proof(&presented, &"user.device".into())
        .unwrap();
    let mut directory = Directory::new();
    directory.learn_from_proof(&presented);
    let mut agent = DiscoveryAgent::new(net.clone(), server.clone(), directory);

    let outcome = agent.discover(
        &Node::entity(&user),
        &Node::role(orgs[3].role("resource")),
        &[],
    );
    assert!(outcome.found(), "trace: {:?}", outcome.trace);
    assert_eq!(outcome.monitor.as_ref().unwrap().proof().chain_len(), 4);
    // Homes 0..2 hold the chain hops; w3 never needs contacting because
    // hop 3 (stored at w2, the subject's home) completes the proof.
    assert_eq!(outcome.wallets_contacted.len(), 3);
}

/// A resilient session across the coalition: the partnership is revoked
/// (session goes dormant) and re-issued (session resumes automatically),
/// composing ResilientSession with the distributed push machinery.
#[test]
fn resilient_session_survives_partnership_reissue() {
    let s = scenario();
    // Establish once via discovery so the server wallet holds the chain.
    let outcome = s.establish_access();
    assert!(outcome.found());

    let resource =
        ProtectedResource::new("airport-uplink", s.access_role(), s.server.wallet().clone());
    let session = resource
        .authorize_resilient(&Node::entity(&s.maria))
        .unwrap();
    assert!(session.is_active());
    assert_eq!(session.grants().unwrap().get(&s.bw), Some(100.0));

    // The partnership dies; the push reaches the server and the session
    // goes dormant (no alternate path exists).
    s.revoke_partnership();
    assert!(!session.is_active());

    // Sheila re-issues the partnership directly into the server's wallet
    // (as a re-presented credential would); the dormant session resumes.
    let reissue = s
        .sheila
        .delegate(
            Node::role(s.big_isp.role("member")),
            Node::role(s.air_net.role("member")),
        )
        .with_attr(s.bw.clone(), 100.0)
        .unwrap()
        .serial(99)
        .sign(&s.sheila)
        .unwrap();
    s.server.wallet().publish(reissue, vec![]).unwrap();
    assert!(
        session.is_active(),
        "resilient session resumed after re-issue"
    );
    assert!(session.generation() >= 2);
}

/// Full coalition under churn: repeated establish/revoke/re-establish
/// cycles stay consistent (no stale grants leak through).
#[test]
fn establish_revoke_reestablish_cycles() {
    for seed in [1u64, 2, 3] {
        let s = CoalitionScenario::build(&mut StdRng::seed_from_u64(seed));
        let outcome = s.establish_access();
        let monitor = outcome.monitor.expect("established");
        assert!(monitor.is_valid());
        s.revoke_partnership();
        assert!(!monitor.is_valid());

        // Sheila re-issues the partnership with a new serial.
        let new_partnership = s
            .sheila
            .delegate(
                Node::role(s.big_isp.role("member")),
                Node::role(s.air_net.role("member")),
            )
            .with_attr(s.bw.clone(), 100.0)
            .unwrap()
            .serial(2)
            .sign(&s.sheila)
            .unwrap();
        // Supports are already present in BigISP's home wallet.
        s.bigisp_home
            .wallet()
            .publish(new_partnership, vec![])
            .unwrap();

        let mut agent = s.server_agent(&s.present_credentials());
        let retry = agent.discover(&Node::entity(&s.maria), &Node::role(s.access_role()), &[]);
        assert!(
            retry.found(),
            "re-established after reissue: {:?}",
            retry.trace
        );
        assert!(retry.monitor.unwrap().is_valid());
    }
}
