//! Loopback TCP parity suite: the flows `tests/end_to_end.rs` proves
//! over `SimNet` — cross-wallet discovery, the remote role gate,
//! revocation push — must behave identically when every
//! wallet sits behind a real `WalletDaemon` socket and the agent's
//! transport is `TcpTransport`. Plus the failure path the simulator
//! cannot exercise: killing a daemon mid-subscription and watching the
//! `SubscriberLink` reconnect, resubscribe, and keep delivering pushes.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drbac::baselines::direction::{Cell, Row, Tags};
use drbac::core::{
    DiscoveryTag, LocalEntity, Node, Proof, ProofStep, SignedDelegation, SignedRevocation,
    SimClock, SubjectFlag, Ticks,
};
use drbac::crypto::SchnorrGroup;
use drbac::disco::ProtectedResource;
use drbac::net::proto::{Reply, Request};
use drbac::net::{
    Directory, DiscoveryAgent, RetryPolicy, SimNet, SubscriberLink, TcpConfig, TcpTransport,
    Transport, WalletDaemon,
};
use drbac::wallet::{DelegationEvent, InvalidationReason, Wallet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Polls `cond` until it holds or `timeout` lapses.
fn wait_until(timeout: Duration, cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

fn counter(name: &str) -> u64 {
    drbac::obs::global().counter(name).get()
}

/// A three-org delegation chain `User -> Org0.p -> Org1.p ->
/// Org2.resource`, each hop published in its subject's home wallet
/// (addressed `w0`/`w1`/`w2`), plus the user's presented credential.
struct Chain {
    orgs: Vec<LocalEntity>,
    user: LocalEntity,
    wallets: Vec<Wallet>,
    user_cert: Arc<SignedDelegation>,
    clock: SimClock,
}

fn build_chain(seed: u64) -> Chain {
    let mut rng = StdRng::seed_from_u64(seed);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let orgs: Vec<LocalEntity> = (0..3)
        .map(|i| LocalEntity::generate(format!("Org{i}"), group.clone(), &mut rng))
        .collect();
    let user = LocalEntity::generate("User", group, &mut rng);
    let wallets: Vec<Wallet> = (0..3)
        .map(|i| Wallet::new(format!("w{i}").as_str(), clock.clone()))
        .collect();
    let tag = |i: usize| {
        DiscoveryTag::new(format!("w{i}").as_str())
            .with_ttl(Ticks(60))
            .with_subject_flag(SubjectFlag::Search)
    };
    let user_cert = Arc::new(
        orgs[0]
            .delegate(Node::entity(&user), Node::role(orgs[0].role("p")))
            .object_tag(tag(0))
            .sign(&orgs[0])
            .unwrap(),
    );
    wallets[0].publish(Arc::clone(&user_cert), vec![]).unwrap();
    for i in 0..2 {
        let object = if i == 1 {
            orgs[2].role("resource")
        } else {
            orgs[i + 1].role("p")
        };
        wallets[i]
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
    Chain {
        orgs,
        user,
        wallets,
        user_cert,
        clock,
    }
}

/// The discovery directory every variant starts from: the user's tag
/// plus each org's home.
fn directory_for(chain: &Chain) -> Directory {
    let tag = |i: usize| {
        DiscoveryTag::new(format!("w{i}").as_str())
            .with_ttl(Ticks(60))
            .with_subject_flag(SubjectFlag::Search)
    };
    let mut directory = Directory::new();
    directory.register(Node::entity(&chain.user), tag(0));
    for (i, org) in chain.orgs.iter().enumerate() {
        directory.register_entity(org.id(), tag(i));
    }
    directory
}

/// Serves each chain wallet behind its own loopback daemon, returning
/// the daemons plus a transport routed to them (`w<i>` → `127.0.0.1:p`).
fn serve_chain(chain: &Chain) -> (Vec<WalletDaemon>, Arc<TcpTransport>) {
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    let daemons: Vec<WalletDaemon> = chain
        .wallets
        .iter()
        .map(|w| WalletDaemon::bind("127.0.0.1:0", w.clone(), TcpConfig::fast()).unwrap())
        .collect();
    for (i, d) in daemons.iter().enumerate() {
        transport.add_route(format!("w{i}").as_str(), d.local_addr());
    }
    (daemons, transport)
}

/// Tag-directed discovery finds the same proof over SimNet and over
/// loopback daemons: same decision, same chain shape, same endpoints,
/// same set of wallets contacted.
#[test]
fn discovery_parity_simnet_vs_tcp() {
    // SimNet shape.
    let sim_chain = build_chain(41);
    let net = SimNet::new(sim_chain.clock.clone(), Ticks(1));
    for (i, w) in sim_chain.wallets.iter().enumerate() {
        net.add_host(format!("w{i}").as_str(), w.clone());
    }
    let sim_local = Wallet::new("agent.sim", sim_chain.clock.clone());
    let presented =
        Proof::from_steps(vec![ProofStep::new(Arc::clone(&sim_chain.user_cert))]).unwrap();
    sim_local
        .absorb_proof(&presented, &"user.device".into())
        .unwrap();
    let mut sim_agent = DiscoveryAgent::new(net.clone(), sim_local, directory_for(&sim_chain));
    let sim_outcome = sim_agent.discover(
        &Node::entity(&sim_chain.user),
        &Node::role(sim_chain.orgs[2].role("resource")),
        &[],
    );

    // TCP shape: the same chain (same seed → same keys and certs),
    // each wallet behind a real socket daemon.
    let tcp_chain = build_chain(41);
    let (daemons, transport) = serve_chain(&tcp_chain);
    let tcp_local = Wallet::new("agent.tcp", tcp_chain.clock.clone());
    let presented =
        Proof::from_steps(vec![ProofStep::new(Arc::clone(&tcp_chain.user_cert))]).unwrap();
    tcp_local
        .absorb_proof(&presented, &"user.device".into())
        .unwrap();
    let mut tcp_agent =
        DiscoveryAgent::new(Arc::clone(&transport), tcp_local, directory_for(&tcp_chain));
    let tcp_outcome = tcp_agent.discover(
        &Node::entity(&tcp_chain.user),
        &Node::role(tcp_chain.orgs[2].role("resource")),
        &[],
    );

    assert!(sim_outcome.found(), "simnet trace: {:?}", sim_outcome.trace);
    assert!(tcp_outcome.found(), "tcp trace: {:?}", tcp_outcome.trace);
    let sim_proof = sim_outcome.monitor.as_ref().unwrap().proof().clone();
    let tcp_proof = tcp_outcome.monitor.as_ref().unwrap().proof().clone();
    assert_eq!(sim_proof.chain_len(), tcp_proof.chain_len());
    assert_eq!(sim_proof.subject(), tcp_proof.subject());
    assert_eq!(sim_proof.object(), tcp_proof.object());
    assert_eq!(
        sim_proof.to_bytes(),
        tcp_proof.to_bytes(),
        "same wire bytes"
    );
    assert_eq!(
        sim_outcome.wallets_contacted, tcp_outcome.wallets_contacted,
        "same wallets contacted"
    );
    for d in daemons {
        d.shutdown();
    }
}

/// One F-A cell, the funnel of branching 2 and depth 3, discovers the
/// same way over loopback daemons as over SimNet. From the same
/// placement, in both orientations and under `S`, `O` and `S`+`O` tags,
/// the decision, the wallets contacted and the hops are equal.
#[test]
fn f_a_funnel_discovery_parity_simnet_vs_tcp() {
    for wide_forward in [true, false] {
        let cell = Cell {
            branching: 2,
            depth: 3,
            wide_forward,
            cut: false,
        };
        for tags in Tags::ALL {
            let federation = cell.federation(tags);
            let sim = federation.discover();
            let clock = SimClock::new();
            let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
            let daemons: Vec<WalletDaemon> = (federation.homes.iter())
                .map(|(addr, certs)| {
                    let wallet = Wallet::new(addr.clone(), clock.clone());
                    for cert in certs {
                        wallet.publish(Arc::clone(cert), vec![]).unwrap();
                    }
                    let daemon =
                        WalletDaemon::bind("127.0.0.1:0", wallet, TcpConfig::fast()).unwrap();
                    transport.add_route(addr.clone(), daemon.local_addr());
                    daemon
                })
                .collect();
            let gateway = Wallet::new("gateway", clock);
            let mut agent = DiscoveryAgent::new(
                Arc::clone(&transport),
                gateway,
                federation.directory.clone(),
            );
            let outcome = agent.discover(&federation.subject, &federation.object, &[]);
            let tcp = Row::of(&outcome, 0);
            assert!(sim.found, "{cell:?} under {tags:?}");
            assert_eq!(
                (tcp.found, tcp.wallets, tcp.hops),
                (sim.found, sim.wallets, sim.hops),
                "{cell:?} under {tags:?}"
            );
            for d in daemons {
                d.shutdown();
            }
        }
    }
}

/// The remote role gate works unchanged over TCP, and a revocation
/// delivered to the daemon pushes through the verifier's subscriber link
/// and ends the session.
#[test]
fn role_gated_connect_and_revocation_push_over_tcp() {
    let mut rng = StdRng::seed_from_u64(42);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let member = LocalEntity::generate("Member", group, &mut rng);

    let home = Wallet::new("home", clock.clone());
    let cert = owner
        .delegate(Node::entity(&member), Node::role(owner.role("r")))
        .sign(&owner)
        .unwrap();
    let cert_id = cert.id();
    home.publish(cert, vec![]).unwrap();

    let daemon = WalletDaemon::bind("127.0.0.1:0", home, TcpConfig::fast()).unwrap();
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    transport.add_route("home", daemon.local_addr());

    // The verifier keeps its own wallet and a persistent push link so
    // the daemon's revocation pushes reach it.
    let verifier = Wallet::new("verifier", clock.clone());
    let link = SubscriberLink::open("home", verifier.clone(), Arc::clone(&transport)).unwrap();

    let resource = ProtectedResource::new("feed", owner.role("r"), verifier);
    let session = resource
        .authorize_remote(
            &Node::entity(&member),
            transport.as_ref(),
            &"home".into(),
            &RetryPolicy::standard(),
        )
        .expect("role proven over TCP");
    assert!(session.is_active());
    assert!(
        wait_until(Duration::from_secs(2), || {
            !daemon.subscribers_of(cert_id).is_empty()
        }),
        "connect registered a coherence subscription at the daemon"
    );

    // Revoke at the home daemon: the push must end the session.
    let revocation = {
        let cert = daemon.wallet().get(cert_id).unwrap();
        SignedRevocation::revoke(&cert, &owner, clock.now()).unwrap()
    };
    let reply = transport
        .request(&"home".into(), Request::Revoke(revocation))
        .unwrap();
    assert!(matches!(reply, Reply::Revoked(_)));
    assert!(
        wait_until(Duration::from_secs(2), || !session.is_active()),
        "revocation push ended the role-gated session"
    );
    link.close();
    daemon.shutdown();
}

/// The revocation-push outcome is identical over SimNet and TCP: the
/// subscriber's monitor invalidates and a fresh query denies.
#[test]
fn revocation_push_parity_simnet_vs_tcp() {
    // --- SimNet shape -------------------------------------------------
    let mut rng = StdRng::seed_from_u64(43);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let member = LocalEntity::generate("Member", group.clone(), &mut rng);
    let home = net.add_host("home", Wallet::new("home", clock.clone()));
    let server = net.add_host("server", Wallet::new("server", clock.clone()));
    let cert = Arc::new(
        owner
            .delegate(Node::entity(&member), Node::role(owner.role("r")))
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
    let sim_monitor = server
        .wallet()
        .query_direct(&Node::entity(&member), &Node::role(owner.role("r")), &[])
        .unwrap();
    assert!(sim_monitor.is_valid());
    let revocation = SignedRevocation::revoke(&cert, &owner, clock.now()).unwrap();
    net.request(&"home".into(), Request::Revoke(revocation))
        .unwrap();
    net.run_until_idle();
    let sim_invalidated = !sim_monitor.is_valid();
    let sim_requery = server
        .wallet()
        .query_direct(&Node::entity(&member), &Node::role(owner.role("r")), &[])
        .is_none();

    // --- TCP shape (same keys: same seed) -----------------------------
    let mut rng = StdRng::seed_from_u64(43);
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let member = LocalEntity::generate("Member", group.clone(), &mut rng);
    let home = Wallet::new("home", clock.clone());
    let subscriber = Wallet::new("server", clock.clone());
    let cert = Arc::new(
        owner
            .delegate(Node::entity(&member), Node::role(owner.role("r")))
            .sign(&owner)
            .unwrap(),
    );
    home.publish(Arc::clone(&cert), vec![]).unwrap();
    let daemon = WalletDaemon::bind("127.0.0.1:0", home, TcpConfig::fast()).unwrap();
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    transport.add_route("home", daemon.local_addr());
    let proof = Proof::from_steps(vec![ProofStep::new(Arc::clone(&cert))]).unwrap();
    subscriber.absorb_proof(&proof, &"home".into()).unwrap();
    let link = SubscriberLink::open("home", subscriber.clone(), Arc::clone(&transport)).unwrap();
    link.track(cert.id());
    assert!(
        wait_until(Duration::from_secs(2), || {
            !daemon.subscribers_of(cert.id()).is_empty()
        }),
        "subscription registered"
    );
    let tcp_monitor = subscriber
        .query_direct(&Node::entity(&member), &Node::role(owner.role("r")), &[])
        .unwrap();
    assert!(tcp_monitor.is_valid());
    let revocation = SignedRevocation::revoke(&cert, &owner, clock.now()).unwrap();
    let reply = transport
        .request(&"home".into(), Request::Revoke(revocation))
        .unwrap();
    assert!(matches!(reply, Reply::Revoked(_)));
    let tcp_invalidated = wait_until(Duration::from_secs(2), || !tcp_monitor.is_valid());
    let tcp_requery = subscriber
        .query_direct(&Node::entity(&member), &Node::role(owner.role("r")), &[])
        .is_none();

    assert!(sim_invalidated && tcp_invalidated, "both pushes landed");
    assert_eq!(sim_requery, tcp_requery, "both deny after revocation");
    link.close();
    daemon.shutdown();
}

/// Killing the daemon mid-subscription: the `SubscriberLink` notices,
/// reconnects to the restarted daemon (same port), re-registers its
/// push channel, resubscribes, and a post-restart revocation still
/// reaches the subscriber. `drbac.net.tcp.reconnect.count` increments.
#[test]
fn daemon_kill_mid_subscription_reconnects_and_resubscribes() {
    let mut rng = StdRng::seed_from_u64(44);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let member = LocalEntity::generate("Member", group, &mut rng);

    let home = Wallet::new("home", clock.clone());
    let cert = Arc::new(
        owner
            .delegate(Node::entity(&member), Node::role(owner.role("r")))
            .sign(&owner)
            .unwrap(),
    );
    home.publish(Arc::clone(&cert), vec![]).unwrap();

    let daemon = WalletDaemon::bind("127.0.0.1:0", home.clone(), TcpConfig::fast()).unwrap();
    let port = daemon.local_addr();
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    transport.add_route("home", port);

    let subscriber = Wallet::new("server", clock.clone());
    let proof = Proof::from_steps(vec![ProofStep::new(Arc::clone(&cert))]).unwrap();
    subscriber.absorb_proof(&proof, &"home".into()).unwrap();
    let link = SubscriberLink::open("home", subscriber.clone(), Arc::clone(&transport)).unwrap();
    link.track(cert.id());
    assert!(wait_until(Duration::from_secs(2), || {
        !daemon.subscribers_of(cert.id()).is_empty()
    }));
    let monitor = subscriber
        .query_direct(&Node::entity(&member), &Node::role(owner.role("r")), &[])
        .unwrap();
    assert!(monitor.is_valid());

    // Kill the daemon mid-subscription. Its subscriber registry (and
    // the push link) die with it.
    let reconnects_before = counter("drbac.net.tcp.reconnect.count");
    daemon.shutdown();
    drop(daemon);
    // Stale pooled connections point at the dead daemon.
    transport.drain_pool();

    // Restart on the same port, serving the same (shared-state) wallet
    // — the registry starts empty, like a SimNet host after crash.
    let restarted = WalletDaemon::bind(port, home, TcpConfig::fast()).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || {
            !restarted.subscribers_of(cert.id()).is_empty()
        }),
        "link reconnected and resubscribed at the restarted daemon"
    );
    assert!(
        counter("drbac.net.tcp.reconnect.count") > reconnects_before,
        "reconnect counter incremented"
    );

    // A revocation issued *after* the restart still reaches the
    // subscriber over the re-established push link.
    let revocation = SignedRevocation::revoke(&cert, &owner, clock.now()).unwrap();
    let reply = transport
        .request(&"home".into(), Request::Revoke(revocation))
        .unwrap();
    assert!(matches!(reply, Reply::Revoked(_)));
    assert!(
        wait_until(Duration::from_secs(2), || !monitor.is_valid()),
        "post-restart revocation push invalidated the subscriber's monitor"
    );
    link.close();
    restarted.shutdown();
}

/// Stats and Health are served over the wire: a live daemon answers
/// `Request::Health` with its inventory and `Request::Stats` with a
/// snapshot whose service-time histogram covers the requests it served.
#[test]
fn stats_and_health_served_over_the_wire() {
    let mut rng = StdRng::seed_from_u64(45);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let member = LocalEntity::generate("Member", group, &mut rng);

    let home = Wallet::new("home.stats", clock);
    home.publish(
        owner
            .delegate(Node::entity(&member), Node::role(owner.role("r")))
            .sign(&owner)
            .unwrap(),
        vec![],
    )
    .unwrap();
    let daemon = WalletDaemon::bind("127.0.0.1:0", home, TcpConfig::fast()).unwrap();
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("home.stats", daemon.local_addr());

    // Serve a real query first so the service histogram has traffic.
    let reply = transport
        .request(
            &"home.stats".into(),
            Request::DirectQuery {
                subject: Node::entity(&member),
                object: Node::role(owner.role("r")),
                constraints: vec![],
            },
        )
        .unwrap();
    assert!(matches!(reply, Reply::Proofs(ref p) if !p.is_empty()));

    let Reply::Health(health) = transport
        .request(&"home.stats".into(), Request::Health)
        .unwrap()
    else {
        panic!("expected a health report");
    };
    assert!(health.ok);
    assert_eq!(health.wallet, "home.stats");
    assert_eq!(health.delegations, 1);
    assert!(health.served_requests >= 1, "the query was counted");

    let Reply::Stats(snapshot) = transport
        .request(&"home.stats".into(), Request::Stats)
        .unwrap()
    else {
        panic!("expected a stats snapshot");
    };
    let service = snapshot
        .histograms
        .get("drbac.net.tcp.service.ns")
        .expect("scraped snapshot carries the daemon service-time histogram");
    assert!(service.count >= 1, "service histogram covers the query");
    assert!(service.max > 0, "service time is non-zero");
    daemon.shutdown();
}

/// One distributed trace spans both processes' roles: the client's
/// request span and the daemon's serve span carry the same trace id,
/// and the serve span hangs beneath the request span.
#[test]
fn query_trace_spans_client_and_daemon_sides() {
    let mut rng = StdRng::seed_from_u64(46);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let member = LocalEntity::generate("Member", group, &mut rng);

    let home = Wallet::new("home.traced", clock);
    home.publish(
        owner
            .delegate(Node::entity(&member), Node::role(owner.role("r")))
            .sign(&owner)
            .unwrap(),
        vec![],
    )
    .unwrap();
    let daemon = WalletDaemon::bind("127.0.0.1:0", home, TcpConfig::fast()).unwrap();
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("home.traced", daemon.local_addr());

    let recorder = drbac::obs::RingRecorder::install(4096);
    let reply = transport
        .request(
            &"home.traced".into(),
            Request::DirectQuery {
                subject: Node::entity(&member),
                object: Node::role(owner.role("r")),
                constraints: vec![],
            },
        )
        .unwrap();
    assert!(matches!(reply, Reply::Proofs(ref p) if !p.is_empty()));
    // The serve span is emitted on the daemon's connection thread;
    // give it a beat to land in the ring.
    assert!(
        wait_until(Duration::from_secs(2), || {
            recorder
                .events()
                .iter()
                .any(|e| e.name == "drbac.net.tcp.serve")
        }),
        "daemon-side serve span was recorded"
    );
    let events = recorder.events();
    drbac::obs::clear_recorder();

    let request_start = events
        .iter()
        .find(|e| e.kind == drbac::obs::TraceKind::SpanStart && e.name == "drbac.net.tcp.request")
        .expect("client-side request span");
    let serve_start = events
        .iter()
        .find(|e| e.kind == drbac::obs::TraceKind::SpanStart && e.name == "drbac.net.tcp.serve")
        .expect("daemon-side serve span");
    assert_ne!(request_start.trace_id, 0, "the root span minted a trace id");
    assert_eq!(
        request_start.trace_id, serve_start.trace_id,
        "one trace id spans both sides of the exchange"
    );
    assert_eq!(
        serve_start.parent, request_start.span,
        "the serve span hangs beneath the client's request span"
    );
    daemon.shutdown();
}

/// A daemon that is fed garbage — partial frames, wrong magic, a huge
/// length prefix — stays alive and keeps serving well-formed clients.
#[test]
fn daemon_survives_garbage_connections() {
    use drbac::net::wire;
    use std::io::Write as _;

    let clock = SimClock::new();
    let wallet = Wallet::new("home", clock);
    let daemon = WalletDaemon::bind("127.0.0.1:0", wallet, TcpConfig::fast()).unwrap();
    let addr = daemon.local_addr();

    // Garbage: wrong magic.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    drop(s);
    // A valid header (magic, version, kind request, no extensions)
    // promising `len` payload bytes.
    let header = |len: u32| {
        let mut frame = Vec::new();
        frame.extend_from_slice(b"dRBW");
        frame.push(wire::WIRE_VERSION);
        frame.push(1); // kind: request
        frame.push(0); // no extensions
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(&0u32.to_be_bytes()); // crc
        assert_eq!(frame.len(), wire::FRAME_HEADER_LEN);
        frame
    };
    // Garbage: valid magic, absurd length prefix.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(&header(u32::MAX)).unwrap();
    drop(s);
    // Torn frame: header promises bytes that never arrive.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(&header(1024)).unwrap(); // ...and no payload
    drop(s);

    // A well-formed client still gets served.
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("home", addr);
    let reply = transport
        .request(&"home".into(), Request::FetchDeclarations)
        .unwrap();
    assert!(matches!(reply, Reply::Declarations(_)));
    daemon.shutdown();
}

/// A pipelined client gets byte-identical proofs to the same
/// queries over SimNet — and waiting on the replies in reverse send
/// order still pairs every reply with its own request.
#[test]
fn pipelined_query_parity_simnet_vs_tcp() {
    let queries = |chain: &Chain| {
        vec![
            // The single published hop.
            Request::DirectQuery {
                subject: Node::entity(&chain.user),
                object: Node::role(chain.orgs[0].role("p")),
                constraints: vec![],
            },
            // A two-step chain the wallet must assemble.
            Request::DirectQuery {
                subject: Node::entity(&chain.user),
                object: Node::role(chain.orgs[1].role("p")),
                constraints: vec![],
            },
            // A miss: w0 cannot prove the final hop on its own.
            Request::DirectQuery {
                subject: Node::role(chain.orgs[2].role("resource")),
                object: Node::role(chain.orgs[0].role("p")),
                constraints: vec![],
            },
        ]
    };

    // SimNet shape: strict request/reply against host w0.
    let sim_chain = build_chain(47);
    let net = SimNet::new(sim_chain.clock.clone(), Ticks(1));
    for (i, w) in sim_chain.wallets.iter().enumerate() {
        net.add_host(format!("w{i}").as_str(), w.clone());
    }
    let sim_replies: Vec<Reply> = queries(&sim_chain)
        .into_iter()
        .map(|q| net.request(&"w0".into(), q).unwrap())
        .collect();

    // TCP shape (same seed → same bytes): one pipelined connection,
    // the whole window written as a single batch, completions awaited
    // in REVERSE order so replies must be matched by id, not arrival.
    let tcp_chain = build_chain(47);
    let (daemons, transport) = serve_chain(&tcp_chain);
    let client = transport.pipelined(&"w0".into()).unwrap();
    let ids = client.send_many(&queries(&tcp_chain)).unwrap();
    let mut tcp_replies: Vec<(usize, Reply)> = ids
        .iter()
        .enumerate()
        .rev()
        .map(|(i, id)| (i, client.wait(*id).unwrap()))
        .collect();
    tcp_replies.sort_by_key(|(i, _)| *i);

    for (sim, (_, tcp)) in sim_replies.iter().zip(&tcp_replies) {
        let (Reply::Proofs(sim_proofs), Reply::Proofs(tcp_proofs)) = (sim, tcp) else {
            panic!("expected proofs from both shapes, got {sim:?} / {tcp:?}");
        };
        assert_eq!(sim_proofs.len(), tcp_proofs.len());
        for (s, t) in sim_proofs.iter().zip(tcp_proofs) {
            assert_eq!(s.to_bytes(), t.to_bytes(), "same wire bytes");
        }
    }
    // The two chain queries proved, the miss came back empty.
    assert!(matches!(&tcp_replies[0].1, Reply::Proofs(p) if p.len() == 1));
    assert!(matches!(&tcp_replies[1].1, Reply::Proofs(p) if !p.is_empty()));
    assert!(matches!(&tcp_replies[2].1, Reply::Proofs(p) if p.is_empty()));

    client.close();
    for d in daemons {
        d.shutdown();
    }
}

/// Head-of-line isolation: a pipelined client that stops reading
/// stalls only its own connection. Client A sends 64 subject queries,
/// each answered by 200 proofs — far more reply bytes than the socket
/// buffers between A and the daemon hold — and never reads; client B's
/// one pipelined request on its own connection is still answered.
/// Shutdown then joins every thread while A still holds its unread
/// connection.
#[test]
fn a_pipelined_client_that_stops_reading_stalls_only_its_own_connection() {
    use drbac::net::wire::{self, FrameKind};
    use std::io::Write as _;

    const PROOFS: usize = 200;
    const REQUESTS: u64 = 64;
    let mut rng = StdRng::seed_from_u64(48);
    let group = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", group.clone(), &mut rng);
    let user = LocalEntity::generate("User", group, &mut rng);
    let wallet = Wallet::new("home.hol", SimClock::new());
    for i in 0..PROOFS {
        let cert = org
            .delegate(Node::entity(&user), Node::role(org.role(&format!("r{i}"))))
            .sign(&org)
            .unwrap();
        wallet.publish(cert, vec![]).unwrap();
    }
    // The default write deadline: longer than B is prepared to wait.
    let daemon = WalletDaemon::bind("127.0.0.1:0", wallet, TcpConfig::default()).unwrap();
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("home.hol", daemon.local_addr());
    // Requests the daemon has served, less these probes: each probe is
    // itself served and counted by the probes after it.
    let probes = std::cell::Cell::new(0);
    let served = || match transport.request(&"home.hol".into(), Request::Health) {
        Ok(Reply::Health(h)) => {
            probes.set(probes.get() + 1);
            h.served_requests - (probes.get() - 1)
        }
        other => panic!("health: {other:?}"),
    };
    let before = served();

    let query = wire::encode_request(&Request::SubjectQuery {
        subject: Node::entity(&user),
        constraints: vec![],
    });
    let mut frames = Vec::new();
    for id in 0..REQUESTS {
        wire::write_frame_mux(&mut frames, FrameKind::Request, &query, id, None).unwrap();
    }
    let mut a = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    a.write_all(&frames).unwrap();
    // Wait until the daemon has served a drain of A's queries and is
    // writing their replies to a client that never reads.
    assert!(
        wait_until(Duration::from_secs(5), || served() >= before + 32),
        "the daemon took up A's queries"
    );

    // B: a deadlock detector, not a latency bound.
    let mut b = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let fetch = wire::encode_request(&Request::FetchDeclarations);
    wire::write_frame_mux(&mut b, FrameKind::Request, &fetch, 9, None).unwrap();
    let frame = wire::read_frame(&mut b).expect("B is answered while A is stalled");
    assert_eq!(frame.request_id, Some(9));
    assert!(matches!(
        wire::decode_reply(&frame.payload),
        Ok(Reply::Declarations(_))
    ));

    daemon.shutdown();
    assert_eq!(daemon.live_threads(), 0, "A's stalled reader joined too");
    drop((a, b));
}

/// A strict request gets the one frame format back: version
/// `WIRE_VERSION`, kind reply, zero extensions, then the payload.
#[test]
fn a_strict_reply_is_the_bare_frame() {
    use drbac::net::wire;
    use std::io::Read as _;

    let clock = SimClock::new();
    let wallet = Wallet::new("home.strict", clock);
    let daemon = WalletDaemon::bind("127.0.0.1:0", wallet, TcpConfig::fast()).unwrap();

    let mut s = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = wire::encode_request(&Request::FetchDeclarations);
    wire::write_frame(&mut s, wire::FrameKind::Request, &payload).unwrap();

    // Read the reply's raw header: magic, version, kind, extensions.
    let mut header = [0u8; wire::FRAME_HEADER_LEN];
    s.read_exact(&mut header).unwrap();
    assert_eq!(&header[0..4], b"dRBW", "reply carries the frame magic");
    assert_eq!(header[4], wire::WIRE_VERSION, "the one version");
    assert_eq!(header[5], 0x02, "reply kind");
    assert_eq!(header[6], 0, "a strict reply carries no extension");
    let len = u32::from_be_bytes(header[7..11].try_into().unwrap()) as usize;
    let mut reply_payload = vec![0u8; len];
    s.read_exact(&mut reply_payload).unwrap();
    let reply = wire::decode_reply(&reply_payload).unwrap();
    assert!(matches!(reply, Reply::Declarations(_)));
    drop(s);
    daemon.shutdown();
}

/// A peer still speaking a retired layout (version 0x01, 0x02 or 0x03)
/// is refused: the decoder says `BadVersion`, and the daemon closes
/// that connection while it keeps serving the next well-formed client.
#[test]
fn retired_wire_versions_are_refused_and_the_daemon_serves_on() {
    use drbac::net::wire;
    use std::io::{Read as _, Write as _};

    let clock = SimClock::new();
    let wallet = Wallet::new("home.retired", clock);
    let daemon = WalletDaemon::bind("127.0.0.1:0", wallet, TcpConfig::fast()).unwrap();
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("home.retired", daemon.local_addr());

    let payload = wire::encode_request(&Request::FetchDeclarations);
    for version in 0x01..=0x03u8 {
        // The retired layouts shared a 14-byte header: magic, version,
        // kind, len, crc. Version 0x03 put an 8-byte request id and an
        // extension count after it, version 0x02 the count alone.
        let mut frame = Vec::new();
        frame.extend_from_slice(b"dRBW");
        frame.push(version);
        frame.push(1); // kind: request
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&drbac::store::crc32(&payload).to_be_bytes());
        if version == 0x03 {
            frame.extend_from_slice(&7u64.to_be_bytes());
        }
        if version >= 0x02 {
            frame.push(0);
        }
        frame.extend_from_slice(&payload);
        assert!(
            matches!(
                wire::read_frame(&mut frame.as_slice()),
                Err(wire::WireError::BadVersion(v)) if v == version
            ),
            "version {version:#04x}"
        );

        let mut s = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&frame).unwrap();
        // No reply: the daemon hangs up (end of stream or a reset).
        let mut buf = [0u8; 64];
        assert!(
            !matches!(s.read(&mut buf), Ok(n) if n > 0),
            "version {version:#04x} got an answer"
        );

        let reply = transport
            .request(&"home.retired".into(), Request::FetchDeclarations)
            .unwrap();
        assert!(matches!(reply, Reply::Declarations(_)));
    }
    daemon.shutdown();
}

/// Strict and pipelined requests may share one connection: the replies
/// without an id come back in request order and carry no id, the others
/// echo theirs.
#[test]
fn strict_and_pipelined_requests_mix_on_one_connection() {
    use drbac::core::DelegationId;
    use drbac::net::wire::{self, FrameKind};
    use std::io::Write as _;

    let clock = SimClock::new();
    let wallet = Wallet::new("home.mixed", clock);
    let daemon = WalletDaemon::bind("127.0.0.1:0", wallet, TcpConfig::fast()).unwrap();

    let mut s = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let declarations = wire::encode_request(&Request::FetchDeclarations);
    let delegation = wire::encode_request(&Request::FetchDelegation(DelegationId([1; 32])));
    // Id 5, no id, id 6, no id — in one write.
    let mut buf = Vec::new();
    wire::write_frame_mux(&mut buf, FrameKind::Request, &declarations, 5, None).unwrap();
    wire::write_frame(&mut buf, FrameKind::Request, &declarations).unwrap();
    wire::write_frame_mux(&mut buf, FrameKind::Request, &declarations, 6, None).unwrap();
    wire::write_frame(&mut buf, FrameKind::Request, &delegation).unwrap();
    s.write_all(&buf).unwrap();

    let mut strict = Vec::new();
    let mut echoed = Vec::new();
    for _ in 0..4 {
        let frame = wire::read_frame(&mut s).unwrap();
        assert_eq!(frame.kind, FrameKind::Reply);
        let reply = wire::decode_reply(&frame.payload).unwrap();
        match frame.request_id {
            Some(id) => {
                assert!(matches!(reply, Reply::Declarations(_)), "{reply:?}");
                echoed.push(id);
            }
            None => strict.push(reply),
        }
    }
    echoed.sort_unstable();
    assert_eq!(echoed, [5, 6]);
    assert!(
        matches!(
            strict.as_slice(),
            [Reply::Declarations(_), Reply::Delegation(None)]
        ),
        "the id-less replies keep request order: {strict:?}"
    );
    drop(s);
    daemon.shutdown();
}

/// Request ids are opaque tokens the daemon echoes verbatim — it never
/// interprets them, so a peer reusing the same id gets each reply
/// tagged with that id (disambiguation is the client's problem, which
/// is why `PipelinedClient` never reuses a live id).
#[test]
fn daemon_echoes_duplicate_request_ids_verbatim() {
    use drbac::net::wire;

    let clock = SimClock::new();
    let wallet = Wallet::new("home.dup", clock);
    let daemon = WalletDaemon::bind("127.0.0.1:0", wallet, TcpConfig::fast()).unwrap();

    let mut s = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = wire::encode_request(&Request::FetchDeclarations);
    wire::write_frame_mux(&mut s, wire::FrameKind::Request, &payload, 7, None).unwrap();
    wire::write_frame_mux(&mut s, wire::FrameKind::Request, &payload, 7, None).unwrap();

    for _ in 0..2 {
        let frame = wire::read_frame(&mut s).unwrap();
        assert_eq!(frame.kind, wire::FrameKind::Reply);
        assert_eq!(frame.request_id, Some(7), "the id is echoed verbatim");
        let reply = wire::decode_reply(&frame.payload).unwrap();
        assert!(matches!(reply, Reply::Declarations(_)));
    }
    drop(s);
    daemon.shutdown();
}

/// A scripted stand-in for a daemon, for the batch-client paths a real
/// daemon cannot be made to take on cue. Each accepted connection reads
/// `expect` request frames carrying ids and hands them to `script` with the
/// stream; the script writes whatever it wants and returns, which
/// closes the connection. `accepts` counts connections.
struct ScriptedPeer {
    addr: std::net::SocketAddr,
    accepts: Arc<std::sync::atomic::AtomicUsize>,
}

impl ScriptedPeer {
    fn spawn(
        expect: usize,
        script: impl Fn(&mut std::net::TcpStream, Vec<drbac::net::wire::Frame>) + Send + 'static,
    ) -> ScriptedPeer {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&accepts);
        // Detached on purpose: it parks in accept() until the test
        // process exits.
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                seen.fetch_add(1, Ordering::SeqCst);
                let frames: Vec<_> = (0..expect)
                    .map_while(|_| drbac::net::wire::read_frame(&mut stream).ok())
                    .collect();
                script(&mut stream, frames);
            }
        });
        ScriptedPeer { addr, accepts }
    }

    fn accepts(&self) -> usize {
        self.accepts.load(std::sync::atomic::Ordering::SeqCst)
    }
}

fn subscribe_to(id_byte: u8) -> Request {
    Request::Subscribe {
        delegation: drbac::core::DelegationId([id_byte; 32]),
        subscriber: "batch.client".into(),
    }
}

/// The daemon's workers finish in any order; the batch client hands
/// replies back in request order regardless, and returns the connection
/// to the pool once every reply is in.
#[test]
fn batch_replies_land_in_request_order() {
    use drbac::net::wire;
    // Answers the whole batch in reverse, each reply naming the
    // delegation its request named.
    let peer = ScriptedPeer::spawn(5, |stream, frames| {
        for frame in frames.iter().rev() {
            let Ok(Request::Subscribe { delegation, .. }) = wire::decode_request(&frame.payload)
            else {
                return;
            };
            let payload = wire::encode_reply(&Reply::Published(delegation));
            let id = frame.request_id.expect("batch frames carry ids");
            wire::write_frame_mux(stream, wire::FrameKind::Reply, &payload, id, None).unwrap();
        }
        // Stay open until the client hangs up, as a daemon would.
        let _ = wire::read_frame(stream);
    });
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("peer", peer.addr);
    let batch: Vec<_> = (0..5u8).map(|i| ("peer".into(), subscribe_to(i))).collect();
    let replies: Vec<_> = transport.request_batch(&batch).collect();
    assert_eq!(replies.len(), 5);
    for (i, reply) in replies.into_iter().enumerate() {
        match reply {
            Ok(Reply::Published(id)) => assert_eq!(id.0, [i as u8; 32], "entry {i}"),
            other => panic!("entry {i}: {other:?}"),
        }
    }
    assert_eq!(peer.accepts(), 1, "one connection carried the whole batch");
}

/// A daemon that dies mid-gather: entries it answered stand, the rest
/// fail on their own, and the broken stream is not pooled — the next
/// request opens a new connection.
#[test]
fn daemon_killed_mid_gather_fails_only_the_unanswered_entries() {
    use drbac::net::wire;
    // Answers the first frame it read, then hangs up.
    let peer = ScriptedPeer::spawn(3, |stream, frames| {
        if let Some(first) = frames.first() {
            let payload = wire::encode_reply(&Reply::Subscribed);
            let id = first.request_id.expect("batch frames carry ids");
            wire::write_frame_mux(stream, wire::FrameKind::Reply, &payload, id, None).unwrap();
        }
    });
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("peer", peer.addr);
    let batch: Vec<_> = (0..3u8).map(|i| ("peer".into(), subscribe_to(i))).collect();
    let replies: Vec<_> = transport.request_batch(&batch).collect();
    assert!(
        matches!(replies[0], Ok(Reply::Subscribed)),
        "{:?}",
        replies[0]
    );
    for reply in &replies[1..] {
        let err = reply.as_ref().expect_err("unanswered entry");
        assert!(err.is_retryable(), "a dead daemon may come back: {err}");
    }
    assert_eq!(peer.accepts(), 1);
    let _ = transport.request(&"peer".into(), subscribe_to(9));
    assert_eq!(peer.accepts(), 2, "the broken stream was not pooled");
}

/// The agent's side of the same failure: a home wallet that dies while
/// a level's replies are being gathered costs the run its clean bill —
/// each unanswered entry goes through the retry policy on its own, the
/// wallet is skipped, and the outcome says degraded.
#[test]
fn discovery_degrades_when_a_home_dies_mid_level() {
    use drbac::net::wire;
    // Serves the declarations fetch of the first connection, then
    // nothing: every later connection is closed on accept.
    let peer = ScriptedPeer::spawn(1, |stream, frames| {
        if let Some(frame) = frames.first() {
            if let Some(id) = frame.request_id {
                let payload = wire::encode_reply(&Reply::Declarations(vec![]));
                wire::write_frame_mux(stream, wire::FrameKind::Reply, &payload, id, None).unwrap();
            }
        }
    });
    let chain = build_chain(43);
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    transport.add_route("w0", peer.addr);
    let local = Wallet::new("agent.tcp", chain.clock.clone());
    let mut agent = DiscoveryAgent::new(Arc::clone(&transport), local, directory_for(&chain));
    let outcome = agent.discover(
        &Node::entity(&chain.user),
        &Node::role(chain.orgs[2].role("resource")),
        &[],
    );
    assert!(!outcome.found());
    assert!(outcome.degraded, "trace: {:?}", outcome.trace);
    // The batch's connection, then each query's own retries.
    let retries = RetryPolicy::standard().max_attempts as usize - 1;
    assert!(
        peer.accepts() > 2 * retries,
        "both queries retried on their own ({} connections)",
        peer.accepts()
    );
}

/// Windows on the batch path: a level that puts more requests on one
/// connection than the batch client's window (32) is written a window
/// at a time, each window's replies read before the next is sent —
/// every frontier node gets its answer and the run is not degraded.
#[test]
fn a_level_wider_than_the_batch_window_is_chunked() {
    use drbac::net::DiscoveryStep;

    const FANOUT: usize = 40;
    // One level carries two requests per role to w.wide.
    const _: () = assert!(2 * FANOUT > 2 * 32);
    let mut rng = StdRng::seed_from_u64(44);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let org = LocalEntity::generate("Org", group.clone(), &mut rng);
    let user = LocalEntity::generate("User", group, &mut rng);
    let tag = |home: &str| DiscoveryTag::new(home).with_subject_flag(SubjectFlag::Search);

    // w.wide holds User -> Org.r<i> for every i; w.far holds the one
    // onward hop, Org.r0 -> Org.target.
    let wide = Wallet::new("w.wide", clock.clone());
    for i in 0..FANOUT {
        let cert = org
            .delegate(Node::entity(&user), Node::role(org.role(&format!("r{i}"))))
            .sign(&org)
            .unwrap();
        wide.publish(cert, vec![]).unwrap();
    }
    let far = Wallet::new("w.far", clock.clone());
    far.publish(
        org.delegate(Node::role(org.role("r0")), Node::role(org.role("target")))
            .sign(&org)
            .unwrap(),
        vec![],
    )
    .unwrap();

    let wide_daemon = WalletDaemon::bind("127.0.0.1:0", wide, TcpConfig::fast()).unwrap();
    let far_daemon = WalletDaemon::bind("127.0.0.1:0", far, TcpConfig::fast()).unwrap();
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    transport.add_route("w.wide", wide_daemon.local_addr());
    transport.add_route("w.far", far_daemon.local_addr());

    let mut directory = Directory::new();
    directory.register(Node::entity(&user), tag("w.wide"));
    directory.register_entity(org.id(), tag("w.wide"));
    directory.register(Node::role(org.role("r0")), tag("w.far"));
    let local = Wallet::new("agent.tcp", clock);
    let mut agent = DiscoveryAgent::new(Arc::clone(&transport), local, directory);

    // A denial walks the whole fan: one level carries more than two
    // windows of requests on one connection.
    let denied = agent.discover(&Node::entity(&user), &Node::role(org.role("nowhere")), &[]);
    assert!(!denied.found());
    assert!(!denied.degraded, "trace: {:?}", denied.trace);
    let answered =
        |pick: fn(&DiscoveryStep) -> bool| denied.trace.iter().filter(|s| pick(s)).count();
    // The user, every role, and Org.target (found behind r0), each
    // with both of its answers.
    assert_eq!(
        answered(|s| matches!(s, DiscoveryStep::RemoteDirect { .. })),
        FANOUT + 2
    );
    assert_eq!(
        answered(|s| matches!(s, DiscoveryStep::RemoteSubjectQuery { .. })),
        FANOUT + 2
    );

    // And a grant through the same fan still assembles.
    let granted = agent.discover(&Node::entity(&user), &Node::role(org.role("target")), &[]);
    assert!(granted.found(), "trace: {:?}", granted.trace);
    assert!(!granted.degraded);
    wide_daemon.shutdown();
    far_daemon.shutdown();
}

/// The paper's Figure 2 world answers with the same proof bytes whether
/// the two home wallets sit on SimNet or behind socket daemons.
#[test]
fn figure2_proof_is_byte_identical_over_simnet_and_tcp() {
    use drbac::disco::scenario::{CoalitionScenario, AIRNET_WALLET, BIGISP_WALLET};

    let sim = CoalitionScenario::build(&mut StdRng::seed_from_u64(45));
    let sim_outcome = sim.establish_access();
    assert!(sim_outcome.found(), "simnet trace: {:?}", sim_outcome.trace);

    // The same world (same seed, same keys and certs), its two home
    // wallets served by daemons instead of the simulator.
    let tcp = CoalitionScenario::build(&mut StdRng::seed_from_u64(45));
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    let daemons: Vec<WalletDaemon> = [
        (BIGISP_WALLET, &tcp.bigisp_home),
        (AIRNET_WALLET, &tcp.airnet_home),
    ]
    .into_iter()
    .map(|(addr, host)| {
        let daemon =
            WalletDaemon::bind("127.0.0.1:0", host.wallet().clone(), TcpConfig::fast()).unwrap();
        transport.add_route(addr, daemon.local_addr());
        daemon
    })
    .collect();
    let presented = tcp.present_credentials();
    let mut directory = Directory::new();
    directory.learn_from_proof(&presented);
    let mut agent = DiscoveryAgent::new(
        Arc::clone(&transport),
        tcp.server.wallet().clone(),
        directory,
    );
    let tcp_outcome = agent.discover(
        &Node::entity(&tcp.maria),
        &Node::role(tcp.access_role()),
        &[],
    );
    assert!(tcp_outcome.found(), "tcp trace: {:?}", tcp_outcome.trace);

    assert_eq!(
        sim_outcome.monitor.unwrap().proof().to_bytes(),
        tcp_outcome.monitor.unwrap().proof().to_bytes(),
        "same wire bytes"
    );
    assert_eq!(sim_outcome.trace, tcp_outcome.trace, "same walk");
    assert_eq!(sim_outcome.wallets_contacted, tcp_outcome.wallets_contacted);
    for d in daemons {
        d.shutdown();
    }
}

/// A pooled connection the peer closed while it sat idle is replaced
/// inside the batch, exactly as a strict request would replace it: the
/// caller sees a clean reply, not a failed entry.
#[test]
fn batch_replaces_a_pooled_connection_closed_while_idle() {
    use drbac::net::wire;
    // Answers one request per connection, echoing its id if it carried
    // one, then hangs up.
    let peer = ScriptedPeer::spawn(1, |stream, frames| {
        let payload = wire::encode_reply(&Reply::Subscribed);
        match frames.first().map(|f| f.request_id) {
            Some(Some(id)) => {
                wire::write_frame_mux(stream, wire::FrameKind::Reply, &payload, id, None).unwrap()
            }
            Some(None) => wire::write_frame(stream, wire::FrameKind::Reply, &payload).unwrap(),
            None => {}
        }
    });
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("peer", peer.addr);
    // A strict exchange leaves its connection in the pool; the peer has
    // already closed its end.
    assert!(matches!(
        transport.request(&"peer".into(), subscribe_to(1)),
        Ok(Reply::Subscribed)
    ));
    let batch = vec![("peer".into(), subscribe_to(2))];
    let replies: Vec<_> = transport.request_batch(&batch).collect();
    assert!(
        matches!(replies[..], [Ok(Reply::Subscribed)]),
        "{replies:?}"
    );
    assert_eq!(peer.accepts(), 2);
}

/// One request script — publish, subscribe, the three query forms,
/// revoke, fetch of the revoked id, unsubscribe — replayed against a
/// SimNet host and a loopback daemon: every reply encodes to the same
/// bytes and the subscriber registries move in step. Both shapes answer
/// through one host core, so this pins a property, not a coincidence.
#[test]
fn request_script_replies_are_byte_identical_over_simnet_and_tcp() {
    use drbac::net::wire;

    let script = |rng: &mut StdRng, clock: &SimClock| {
        let group = SchnorrGroup::test_256();
        let owner = LocalEntity::generate("Owner", group.clone(), rng);
        let member = LocalEntity::generate("Member", group, rng);
        let cert = Arc::new(
            owner
                .delegate(Node::entity(&member), Node::role(owner.role("r")))
                .sign(&owner)
                .unwrap(),
        );
        let (subject, object) = (Node::entity(&member), Node::role(owner.role("r")));
        let requests = vec![
            Request::Publish {
                cert: Arc::clone(&cert),
                supports: vec![],
            },
            Request::Subscribe {
                delegation: cert.id(),
                subscriber: "peer".into(),
            },
            Request::DirectQuery {
                subject: subject.clone(),
                object: object.clone(),
                constraints: vec![],
            },
            Request::SubjectQuery {
                subject,
                constraints: vec![],
            },
            Request::ObjectQuery {
                object,
                constraints: vec![],
            },
            Request::Revoke(SignedRevocation::revoke(&cert, &owner, clock.now()).unwrap()),
            Request::FetchDelegation(cert.id()),
            Request::Unsubscribe {
                delegation: cert.id(),
                subscriber: "peer".into(),
            },
        ];
        (cert.id(), requests)
    };
    // Replays the script, returning each reply's encoding plus the
    // subscriber count after each step.
    let replay = |requests: Vec<Request>,
                  send: &dyn Fn(Request) -> Reply,
                  subscribers: &dyn Fn() -> usize| {
        requests
            .into_iter()
            .map(|req| (wire::encode_reply(&send(req)), subscribers()))
            .collect::<Vec<_>>()
    };

    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let host = net.add_host("home", Wallet::new("home", clock.clone()));
    let (id, requests) = script(&mut StdRng::seed_from_u64(53), &clock);
    let sim = replay(
        requests,
        &|req| net.request(&"home".into(), req).unwrap(),
        &|| host.subscribers_of(id).len(),
    );

    let clock = SimClock::new();
    let home = Wallet::new("home", clock.clone());
    let daemon = WalletDaemon::bind("127.0.0.1:0", home, TcpConfig::fast()).unwrap();
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("home", daemon.local_addr());
    let (tcp_id, requests) = script(&mut StdRng::seed_from_u64(53), &clock);
    assert_eq!(id, tcp_id, "same seed, same credential");
    let tcp = replay(
        requests,
        &|req| transport.request(&"home".into(), req).unwrap(),
        &|| daemon.subscribers_of(id).len(),
    );

    assert_eq!(sim, tcp);
    let registry: Vec<usize> = sim.iter().map(|(_, n)| *n).collect();
    // The revocation's fan-out takes the subscriber set, so the later
    // unsubscribe finds nothing to remove.
    assert_eq!(registry, [0, 1, 1, 1, 1, 0, 0, 0]);
    let kinds: Vec<Reply> = sim
        .iter()
        .map(|(bytes, _)| wire::decode_reply(bytes).unwrap())
        .collect();
    assert!(
        matches!(
            &kinds[..],
            [
                Reply::Published(_),
                Reply::Subscribed,
                Reply::Proofs(direct),
                Reply::Proofs(by_subject),
                Reply::Proofs(by_object),
                Reply::Revoked(_),
                Reply::Delegation(None),
                Reply::Subscribed,
            ] if direct.len() == 1 && by_subject.len() == 1 && by_object.len() == 1
        ),
        "{kinds:?}"
    );
    daemon.shutdown();
}

/// Frames on one connection leave in the order the daemon produced
/// them: a connection push-registers wallet `W`, subscribes `W` to a
/// delegation and then revokes it with a strict request. The revocation
/// queues an `Invalidate` push for that same connection while it is
/// served, so the push must arrive before the `Revoked` reply — every
/// time, whichever daemon thread happens to write it.
#[test]
fn a_push_queued_while_serving_precedes_the_strict_reply() {
    use drbac::net::proto::OneWay;
    use drbac::net::wire::{self, FrameKind};

    const ROUNDS: usize = 50;
    let mut rng = StdRng::seed_from_u64(47);
    let group = SchnorrGroup::test_256();
    let clock = SimClock::new();
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let member = LocalEntity::generate("Member", group, &mut rng);
    let home = Wallet::new("home.order", clock.clone());
    let certs: Vec<SignedDelegation> = (0..ROUNDS)
        .map(|i| {
            let cert = owner
                .delegate(
                    Node::entity(&member),
                    Node::role(owner.role(format!("r{i}").as_str())),
                )
                .sign(&owner)
                .unwrap();
            home.publish(cert.clone(), vec![]).unwrap();
            cert
        })
        .collect();
    let daemon = WalletDaemon::bind("127.0.0.1:0", home, TcpConfig::fast()).unwrap();
    let send = |s: &mut std::net::TcpStream, req: &Request| {
        wire::write_frame(s, FrameKind::Request, &wire::encode_request(req)).unwrap();
    };

    for cert in &certs {
        let mut s = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.set_nodelay(true).unwrap();
        let register = wire::encode_push_register(&"W".into());
        wire::write_frame(&mut s, FrameKind::PushRegister, &register).unwrap();
        send(
            &mut s,
            &Request::Subscribe {
                delegation: cert.id(),
                subscriber: "W".into(),
            },
        );
        let subscribed = wire::read_frame(&mut s).unwrap();
        assert!(matches!(
            wire::decode_reply(&subscribed.payload),
            Ok(Reply::Subscribed)
        ));

        let revocation = SignedRevocation::revoke(cert, &owner, clock.now()).unwrap();
        send(&mut s, &Request::Revoke(revocation));
        let first = wire::read_frame(&mut s).unwrap();
        assert_eq!(first.kind, FrameKind::Push, "the push leaves first");
        assert!(matches!(
            wire::decode_push(&first.payload),
            Ok(OneWay::Invalidate(event)) if event.delegation == cert.id()
        ));
        let second = wire::read_frame(&mut s).unwrap();
        assert_eq!(second.kind, FrameKind::Reply, "then the reply");
        assert!(matches!(
            wire::decode_reply(&second.payload),
            Ok(Reply::Revoked(_))
        ));
    }
    daemon.shutdown();
}

/// `Owner`/`Member` keys from `seed` and `[Member → Owner.r]`.
fn owner_member_cert(seed: u64) -> (LocalEntity, LocalEntity, Arc<SignedDelegation>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let group = SchnorrGroup::test_256();
    let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
    let member = LocalEntity::generate("Member", group, &mut rng);
    let cert = owner
        .delegate(Node::entity(&member), Node::role(owner.role("r")))
        .sign(&owner)
        .unwrap();
    (owner, member, Arc::new(cert))
}

fn single_step(cert: &Arc<SignedDelegation>) -> Proof {
    Proof::from_steps(vec![ProofStep::new(Arc::clone(cert))]).unwrap()
}

/// The events `wallet` hears of `id`, through a local subscription.
fn heard(wallet: &Wallet, id: drbac::core::DelegationId) -> Arc<Mutex<Vec<DelegationEvent>>> {
    let events = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&events);
    wallet.subscribe(id, move |event| log.lock().unwrap().push(event));
    events
}

fn revoked(cert: &SignedDelegation) -> DelegationEvent {
    DelegationEvent {
        delegation: cert.id(),
        reason: InvalidationReason::Revoked,
    }
}

/// A link that tracks an id its home has already revoked is pushed the
/// death at once: the home registers nothing for a dead id, and tells
/// the subscriber instead of leaving it waiting forever.
#[test]
fn a_link_tracking_an_id_already_revoked_at_home_is_pushed_its_death() {
    let (owner, member, cert) = owner_member_cert(48);
    let clock = SimClock::new();
    let home = Wallet::new("home", clock.clone());
    home.publish(Arc::clone(&cert), vec![]).unwrap();
    let subscriber = Wallet::new("server", clock.clone());
    subscriber
        .absorb_proof(&single_step(&cert), &"home".into())
        .unwrap();
    home.revoke(&SignedRevocation::revoke(&cert, &owner, clock.now()).unwrap())
        .unwrap();

    let daemon = WalletDaemon::bind("127.0.0.1:0", home, TcpConfig::fast()).unwrap();
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    transport.add_route("home", daemon.local_addr());
    let monitor = subscriber
        .query_direct(&Node::entity(&member), &Node::role(owner.role("r")), &[])
        .unwrap();
    let link = SubscriberLink::open("home", subscriber.clone(), Arc::clone(&transport)).unwrap();
    link.track(cert.id());
    assert!(
        wait_until(Duration::from_secs(2), || !monitor.is_valid()),
        "the subscriber's wallet saw the push"
    );
    assert!(subscriber.is_revoked(cert.id()));
    assert!(
        daemon.subscribers_of(cert.id()).is_empty(),
        "nothing registered"
    );
    link.close();
    daemon.shutdown();
}

/// `SubscriberLink::open` returns only once the daemon has registered
/// the link: a `Health` sent on another connection right after counts
/// it, every round.
#[test]
fn open_returns_once_the_daemon_counts_the_link() {
    const ROUNDS: usize = 200;
    let clock = SimClock::new();
    let daemon = WalletDaemon::bind(
        "127.0.0.1:0",
        Wallet::new("home.barrier", clock.clone()),
        TcpConfig::fast(),
    )
    .unwrap();
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    transport.add_route("home.barrier", daemon.local_addr());
    let links = || match transport.request(&"home.barrier".into(), Request::Health) {
        Ok(Reply::Health(health)) => health.subscribers,
        other => panic!("expected a health report, got {other:?}"),
    };
    for round in 0..ROUNDS {
        let wallet = Wallet::new(format!("sub{round}").as_str(), clock.clone());
        let link = SubscriberLink::open("home.barrier", wallet, Arc::clone(&transport)).unwrap();
        assert_eq!(links(), 1, "round {round}: the link was not registered yet");
        link.close();
        assert!(
            wait_until(Duration::from_secs(2), || links() == 0),
            "round {round}: the closed link stayed registered"
        );
    }
    daemon.shutdown();
}

/// The three-tier chain: home `h` holds `c`; mid `m` absorbed `c` from
/// `h` and is subscribed there; leaf `l` absorbed `c` from `m`, is
/// subscribed at `m` and monitors a proof through `c`. Revoking `c` at
/// `h` reaches `l`'s monitor through `m` — on TCP through `m`'s own
/// link and daemon, on SimNet through its host — with one push per
/// tier on both.
#[test]
fn a_revocation_cascades_through_a_mid_tier_link_over_tcp_and_simnet() {
    let (owner, member, cert) = owner_member_cert(49);
    let (m_node, r_node) = (Node::entity(&member), Node::role(owner.role("r")));
    let revocation =
        |clock: &SimClock| SignedRevocation::revoke(&cert, &owner, clock.now()).unwrap();

    // --- SimNet shape -------------------------------------------------
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let [h, m, l] = ["h", "m", "l"].map(|a| net.add_host(a, Wallet::new(a, clock.clone())));
    h.wallet().publish(Arc::clone(&cert), vec![]).unwrap();
    m.wallet()
        .absorb_proof(&single_step(&cert), h.addr())
        .unwrap();
    l.wallet()
        .absorb_proof(&single_step(&cert), m.addr())
        .unwrap();
    for (at, subscriber) in [(&h, &m), (&m, &l)] {
        let subscribe = Request::Subscribe {
            delegation: cert.id(),
            subscriber: subscriber.addr().clone(),
        };
        assert!(matches!(
            net.request(at.addr(), subscribe),
            Ok(Reply::Subscribed)
        ));
    }
    let sim_heard = [&m, &l].map(|w| heard(w.wallet(), cert.id()));
    let sim_monitor = l.wallet().query_direct(&m_node, &r_node, &[]).unwrap();
    net.reset_stats();
    let reply = net.request(h.addr(), Request::Revoke(revocation(&clock)));
    assert!(matches!(reply, Ok(Reply::Revoked(_))));
    assert_eq!(net.run_until_idle(), 2);
    assert_eq!(net.stats().push_messages, 2, "one push per tier");
    assert!(!sim_monitor.is_valid());

    // --- TCP shape ----------------------------------------------------
    let clock = SimClock::new();
    let [h, m, l] = ["h", "m", "l"].map(|a| Wallet::new(a, clock.clone()));
    h.publish(Arc::clone(&cert), vec![]).unwrap();
    m.absorb_proof(&single_step(&cert), &"h".into()).unwrap();
    l.absorb_proof(&single_step(&cert), &"m".into()).unwrap();
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    let h_daemon = WalletDaemon::bind("127.0.0.1:0", h, TcpConfig::fast()).unwrap();
    let m_daemon = WalletDaemon::bind("127.0.0.1:0", m.clone(), TcpConfig::fast()).unwrap();
    transport.add_route("h", h_daemon.local_addr());
    transport.add_route("m", m_daemon.local_addr());
    let m_link = SubscriberLink::open("h", m.clone(), Arc::clone(&transport)).unwrap();
    let l_link = SubscriberLink::open("m", l.clone(), Arc::clone(&transport)).unwrap();
    m_link.track(cert.id());
    l_link.track(cert.id());
    assert_eq!(h_daemon.subscribers_of(cert.id()).len(), 1);
    assert_eq!(m_daemon.subscribers_of(cert.id()).len(), 1);
    let tcp_heard = [&m, &l].map(|w| heard(w, cert.id()));
    let tcp_monitor = l.query_direct(&m_node, &r_node, &[]).unwrap();
    let reply = transport.request(&"h".into(), Request::Revoke(revocation(&clock)));
    assert!(matches!(reply, Ok(Reply::Revoked(_))));
    assert!(
        wait_until(Duration::from_secs(2), || !tcp_monitor.is_valid()),
        "the push through m's link reached l's monitor"
    );

    for (tier, (sim, tcp)) in ["m", "l"].iter().zip(sim_heard.iter().zip(&tcp_heard)) {
        let want = [revoked(&cert)];
        assert_eq!(*sim.lock().unwrap(), want, "SimNet tier {tier}");
        assert_eq!(*tcp.lock().unwrap(), want, "TCP tier {tier}");
    }
    assert!(m_daemon.subscribers_of(cert.id()).is_empty());
    l_link.close();
    m_link.close();
    m_daemon.shutdown();
    h_daemon.shutdown();
}

/// One wallet served by a SimNet host and a TCP daemon at once: each
/// host's subscribers are its own, and a death — here a direct
/// `Wallet::revoke`, through neither host — reaches each subscriber
/// through the host it subscribed at, once.
#[test]
fn a_wallet_served_twice_pushes_each_hosts_subscribers_through_that_host() {
    let (owner, member, cert) = owner_member_cert(50);
    let (m_node, r_node) = (Node::entity(&member), Node::role(owner.role("r")));
    let clock = SimClock::new();
    let home = Wallet::new("home", clock.clone());
    home.publish(Arc::clone(&cert), vec![]).unwrap();

    let net = SimNet::new(clock.clone(), Ticks(1));
    let sim_home = net.add_host("home", home.clone());
    let sim_sub = net.add_host("sim.sub", Wallet::new("sim.sub", clock.clone()));
    sim_sub
        .wallet()
        .absorb_proof(&single_step(&cert), sim_home.addr())
        .unwrap();
    let subscribe = Request::Subscribe {
        delegation: cert.id(),
        subscriber: sim_sub.addr().clone(),
    };
    assert!(matches!(
        net.request(sim_home.addr(), subscribe),
        Ok(Reply::Subscribed)
    ));

    let daemon = WalletDaemon::bind("127.0.0.1:0", home.clone(), TcpConfig::fast()).unwrap();
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    transport.add_route("home", daemon.local_addr());
    let tcp_sub = Wallet::new("tcp.sub", clock.clone());
    tcp_sub
        .absorb_proof(&single_step(&cert), &"home".into())
        .unwrap();
    let link = SubscriberLink::open("home", tcp_sub.clone(), Arc::clone(&transport)).unwrap();
    link.track(cert.id());

    let addrs = |names: &[&str]| names.iter().map(|n| (*n).into()).collect::<BTreeSet<_>>();
    assert_eq!(sim_home.subscribers_of(cert.id()), addrs(&["sim.sub"]));
    assert_eq!(daemon.subscribers_of(cert.id()), addrs(&["tcp.sub"]));

    let sim_monitor = sim_sub
        .wallet()
        .query_direct(&m_node, &r_node, &[])
        .unwrap();
    let tcp_monitor = tcp_sub.query_direct(&m_node, &r_node, &[]).unwrap();
    net.reset_stats();
    home.revoke(&SignedRevocation::revoke(&cert, &owner, clock.now()).unwrap())
        .unwrap();
    assert_eq!(
        net.run_until_idle(),
        1,
        "SimNet carries only its own subscriber's push"
    );
    assert_eq!(net.stats().push_messages, 1);
    assert!(!sim_monitor.is_valid());
    assert!(
        wait_until(Duration::from_secs(2), || !tcp_monitor.is_valid()),
        "the daemon pushed its own subscriber"
    );
    assert!(sim_home.subscribers_of(cert.id()).is_empty());
    assert!(daemon.subscribers_of(cert.id()).is_empty());
    link.close();
    daemon.shutdown();
}
