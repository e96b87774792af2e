//! The BigISP/AirNet case study (paper §1.1, Table 3, Figure 2, §5) run
//! over real TCP sockets: every coalition wallet sits behind its own
//! loopback [`WalletDaemon`], and the AirNet access server discovers,
//! validates, and monitors `Maria ⇒ AirNet.access` through a
//! [`TcpTransport`] — the same algorithm the SimNet examples use, on the
//! deployment shape §4.1 describes ("wallets are network services").
//!
//! ```sh
//! cargo run --example tcp_federation
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use drbac::core::{Node, SignedRevocation};
use drbac::disco::scenario::{AIRNET_WALLET, BIGISP_WALLET};
use drbac::disco::CoalitionScenario;
use drbac::net::proto::Request;
use drbac::net::{
    Directory, DiscoveryAgent, SubscriberLink, TcpConfig, TcpTransport, Transport, WalletDaemon,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn main() {
    // §1.1 / Table 3: build the coalition world — BigISP and AirNet's
    // partnership delegation, Maria's membership credential, Sheila's
    // marketing authority, and AirNet's attribute declarations (BW 200,
    // storage 50, hours 60), each published in its subject's home wallet
    // exactly as Figure 2(a) places them.
    let s = CoalitionScenario::build(&mut StdRng::seed_from_u64(2002));

    // §4.1 deployment: each home wallet becomes a socket service. The
    // scenario's wallets share state with their SimNet hosts, so binding
    // daemons over clones serves the same certificates over TCP.
    let bigisp = WalletDaemon::bind(
        "127.0.0.1:0",
        s.bigisp_home.wallet().clone(),
        TcpConfig::default(),
    )
    .expect("bind BigISP home daemon");
    let airnet = WalletDaemon::bind(
        "127.0.0.1:0",
        s.airnet_home.wallet().clone(),
        TcpConfig::default(),
    )
    .expect("bind AirNet home daemon");
    println!("== Coalition wallets as TCP services (paper §4.1) ==");
    println!("  {BIGISP_WALLET}  ->  {}", bigisp.local_addr());
    println!("  {AIRNET_WALLET}  ->  {}", airnet.local_addr());

    // Discovery tags carry wallet *names*; the transport's route table
    // maps those names to socket endpoints, so the tag-directed search
    // of §4.2 is unchanged.
    let transport = Arc::new(TcpTransport::new(TcpConfig::default()));
    transport.add_route(BIGISP_WALLET, bigisp.local_addr());
    transport.add_route(AIRNET_WALLET, airnet.local_addr());

    // §3.4 delegation subscriptions need a push path back to the
    // subscriber: the server keeps one persistent connection to each
    // home wallet it monitors certificates from, registered under its
    // own wallet address (SimNet delivers these in-process; TCP needs
    // the explicit link).
    let bigisp_link = SubscriberLink::open(
        BIGISP_WALLET,
        s.server.wallet().clone(),
        Arc::clone(&transport),
    )
    .expect("push link to BigISP home");
    let airnet_link = SubscriberLink::open(
        AIRNET_WALLET,
        s.server.wallet().clone(),
        Arc::clone(&transport),
    )
    .expect("push link to AirNet home");

    // Figure 2 step 1: Maria's software presents delegation (1) with its
    // support proof; the server verifies and absorbs it.
    let presented = s.present_credentials();
    println!("\n== Figure 2: Maria requests AirNet.access ==");
    println!("step 1: Maria presents [Maria -> BigISP.member] Mark (+ support)");

    // Figure 2 steps 2-6, §4.2: local query misses, the subject query at
    // BigISP's home returns the partnership delegation, the direct query
    // at AirNet's home closes the chain — every hop now a real
    // request/reply exchange on a pooled TCP connection.
    let mut directory = Directory::new();
    directory.learn_from_proof(&presented);
    let mut agent =
        DiscoveryAgent::new(Arc::clone(&transport), s.server.wallet().clone(), directory);
    let outcome = agent.discover(&Node::entity(&s.maria), &Node::role(s.access_role()), &[]);
    assert!(outcome.found(), "trace: {:?}", outcome.trace);
    let monitor = outcome.monitor.as_ref().expect("access granted");
    println!(
        "steps 2-6: proof found over TCP via {} hops:",
        monitor.proof().chain_len()
    );
    for step in monitor.proof().steps() {
        println!("  {}", step.cert().delegation());
    }

    // §5 step 5: the effective attribute grants — BW 100 (≤ 200),
    // storage 30 (= 50 − 20), hours 18 (= 60 × 0.3).
    println!("\n== §5: effective valued-attribute grants ==");
    for (attr, expected) in s.expected_grants() {
        let got = monitor.summary().get(&attr).expect("granted");
        println!("  {attr} = {got} (paper: {expected})");
        assert!((got - expected).abs() < 1e-9);
    }

    // §3.4 / §6: Sheila ends the partnership. The revocation lands at
    // BigISP's home daemon over TCP; the daemon pushes the invalidation
    // down the server's subscriber link, and the live session dies —
    // "notification of revocation is immediate", no polling.
    let revocation =
        SignedRevocation::revoke(&s.partnership_cert, &s.sheila, s.clock.now()).expect("issuer");
    transport
        .request(&BIGISP_WALLET.into(), Request::Revoke(revocation))
        .expect("revocation accepted");
    let terminated = wait_until(Duration::from_secs(5), || !monitor.is_valid());
    println!("\n== Sheila revokes the partnership (paper §3.4) ==");
    println!("revocation pushed over the subscriber link; session terminated: {terminated}");
    assert!(terminated, "push must terminate the monitored session");

    // Re-discovery now denies: the server learned the revocation.
    let presented = s.present_credentials();
    let mut directory = Directory::new();
    directory.learn_from_proof(&presented);
    let mut agent =
        DiscoveryAgent::new(Arc::clone(&transport), s.server.wallet().clone(), directory);
    let retry = agent.discover(&Node::entity(&s.maria), &Node::role(s.access_role()), &[]);
    println!("re-discovery after revocation denied: {}", !retry.found());
    assert!(!retry.found());

    bigisp_link.close();
    airnet_link.close();
    bigisp.shutdown();
    airnet.shutdown();
}
