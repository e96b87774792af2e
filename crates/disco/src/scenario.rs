//! The paper's extended example, end to end (§1.1, Table 3, Figure 2,
//! §5).
//!
//! "BigISP and AirNet strike up a marketing partnership in which BigISP
//! members can use AirNet's services in a limited fashion ... Sheila, who
//! works in the marketing department at AirNet, administers the deal.
//! Maria, a BigISP member, will attempt to access AirNet facilities."
//!
//! ## Reconstructed Table 3
//!
//! The published paper's Table 3 lists the five supporting delegations;
//! reconstructed here (with the §5 numbers) as:
//!
//! 1. `[Maria → BigISP.member] Mark` — third-party, supported by Mark's
//!    `memberServices` chain (Table 1 delegations (1)–(2)),
//! 2. `[BigISP.member → AirNet.member with AirNet.BW <= 100 and
//!    AirNet.storage -= 20 and AirNet.hours *= 0.3] Sheila` — the
//!    coalition delegation, third-party with foreign attribute clauses,
//! 3. `[Sheila → AirNet.mktg] AirNet` — self-certified,
//! 4. `[AirNet.mktg → AirNet.member'] AirNet` — assignment delegation,
//! 5. `[AirNet.mktg → AirNet.BW <=' / storage -=' / hours *='] AirNet` —
//!    attribute-assignment delegations (the paper shows the `storage`
//!    one as its delegation (5)),
//! 6. `[AirNet.member → AirNet.access] AirNet` — the self-certified root
//!    the AirNet server's direct query returns in Figure 2 step 4.
//!
//! AirNet's declared base values — BW 200, storage 50, hours 60 — come
//! from §5 step 5: "a BW (bandwidth) of 100 units (≤ 200), server storage
//! of 30 units (= 50 − 20), and a limit of 18 hours (= 60 × 0.3)".

use std::sync::Arc;

use drbac_core::{
    AttrDeclaration, AttrOp, AttrRef, DiscoveryTag, LocalEntity, Node, Proof, ProofStep, Role,
    SignedAttrDeclaration, SignedDelegation, SignedRevocation, SimClock, SubjectFlag, Ticks,
};
use drbac_crypto::SchnorrGroup;
use drbac_net::{
    proto::Request, Directory, DiscoveryAgent, DiscoveryOutcome, FaultPlan, RetryPolicy, SimNet,
    WalletHost,
};
use drbac_wallet::Wallet;
use rand::Rng;

/// Wallet addresses used by the scenario.
pub const SERVER_WALLET: &str = "wallet.server.airnet.example";
/// BigISP's home wallet address.
pub const BIGISP_WALLET: &str = "wallet.bigisp.example";
/// AirNet's home wallet address.
pub const AIRNET_WALLET: &str = "wallet.airnet.example";

/// The fully constructed coalition world.
pub struct CoalitionScenario {
    /// Shared logical clock.
    pub clock: SimClock,
    /// The simulated network.
    pub net: SimNet,
    /// BigISP (Maria's regular ISP).
    pub big_isp: LocalEntity,
    /// AirNet (the airport network operator).
    pub air_net: LocalEntity,
    /// Maria, the roaming BigISP member.
    pub maria: LocalEntity,
    /// Mark, BigISP's member-services agent.
    pub mark: LocalEntity,
    /// Sheila, AirNet marketing, who administers the deal.
    pub sheila: LocalEntity,
    /// The AirNet access server's local (initially empty) wallet host.
    pub server: WalletHost,
    /// BigISP's home wallet host.
    pub bigisp_home: WalletHost,
    /// AirNet's home wallet host.
    pub airnet_home: WalletHost,
    /// Delegation (1): Maria's membership credential with its support.
    pub maria_cert: Arc<SignedDelegation>,
    /// Support proof for delegation (1) (Mark ⇒ BigISP.member').
    pub maria_support: Proof,
    /// Delegation (2): the coalition delegation issued by Sheila.
    pub partnership_cert: Arc<SignedDelegation>,
    /// Delegation (6): the AirNet access root.
    pub access_cert: Arc<SignedDelegation>,
    /// AirNet.BW (`<=`, base 200).
    pub bw: AttrRef,
    /// AirNet.storage (`-=`, base 50).
    pub storage: AttrRef,
    /// AirNet.hours (`*=`, base 60).
    pub hours: AttrRef,
}

impl CoalitionScenario {
    /// Builds the whole world: entities, wallets, tags, declarations, and
    /// every delegation of the reconstructed Table 3, each published in
    /// its subject's home wallet exactly as Figure 2(a) shows.
    pub fn build<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let group = SchnorrGroup::test_256();
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), Ticks(1));

        let big_isp = LocalEntity::generate("BigISP", group.clone(), rng);
        let air_net = LocalEntity::generate("AirNet", group.clone(), rng);
        let maria = LocalEntity::generate("Maria", group.clone(), rng);
        let mark = LocalEntity::generate("Mark", group.clone(), rng);
        let sheila = LocalEntity::generate("Sheila", group, rng);

        let server = net.add_host(SERVER_WALLET, Wallet::new(SERVER_WALLET, clock.clone()));
        let bigisp_home = net.add_host(BIGISP_WALLET, Wallet::new(BIGISP_WALLET, clock.clone()));
        let airnet_home = net.add_host(AIRNET_WALLET, Wallet::new(AIRNET_WALLET, clock.clone()));

        // Roles.
        let member = big_isp.role("member");
        let member_services = big_isp.role("memberServices");
        let airnet_member = air_net.role("member");
        let airnet_access = air_net.role("access");
        let mktg = air_net.role("mktg");

        // Valued attributes, each bound to its single operator (§3.2.1).
        let bw = air_net.attr("BW", AttrOp::Min);
        let storage = air_net.attr("storage", AttrOp::Subtract);
        let hours = air_net.attr("hours", AttrOp::Scale);

        // Discovery tags: "All entities and roles in our example are
        // assumed to be tagged with the subject discovery type 'S'".
        // Learned tags lapse after their TTL, so it must exceed the
        // worst-case discovery latency of the chaos runs (retries and
        // timeouts burn simulated ticks); expiry behaviour itself is
        // exercised by the dedicated TTL tests in `drbac-net`.
        let tag = |home: &str| {
            DiscoveryTag::new(home)
                .with_ttl(Ticks(240))
                .with_subject_flag(SubjectFlag::Search)
        };
        let bigisp_tag = tag(BIGISP_WALLET);
        let airnet_tag = tag(AIRNET_WALLET);

        // AirNet declares the attribute bases (§5 step 5 numbers).
        for (attr, base) in [(&bw, 200.0), (&storage, 50.0), (&hours, 60.0)] {
            let decl = SignedAttrDeclaration::sign(
                AttrDeclaration::new(attr.clone(), base).expect("finite base"),
                &air_net,
            )
            .expect("AirNet owns its attributes");
            airnet_home
                .wallet()
                .publish_declaration(&decl)
                .expect("verifies");
        }

        // Table 1 delegations (1)-(2): Mark's authority over BigISP.member.
        let t1_mark_services = big_isp
            .delegate(Node::entity(&mark), Node::role(member_services.clone()))
            .sign(&big_isp)
            .expect("self-certified");
        let t1_services_admin = big_isp
            .delegate(
                Node::role(member_services),
                Node::role_admin(member.clone()),
            )
            .sign(&big_isp)
            .expect("self-certified");
        let maria_support = Proof::from_steps(vec![
            ProofStep::new(t1_mark_services),
            ProofStep::new(t1_services_admin),
        ])
        .expect("linked chain");

        // Delegation (1): [Maria -> BigISP.member] Mark, tagged so the
        // server can find BigISP.member's home wallet.
        let maria_cert: Arc<SignedDelegation> = Arc::new(
            mark.delegate(Node::entity(&maria), Node::role(member.clone()))
                .object_tag(bigisp_tag.clone())
                .sign(&mark)
                .expect("Mark signs"),
        );

        // Sheila's authority: (3) Sheila in AirNet.mktg, (4) mktg holds
        // member', (5) mktg holds the three attribute-assignment rights.
        let sheila_mktg = air_net
            .delegate(Node::entity(&sheila), Node::role(mktg.clone()))
            .sign(&air_net)
            .expect("self-certified");
        let mktg_member_admin = air_net
            .delegate(
                Node::role(mktg.clone()),
                Node::role_admin(airnet_member.clone()),
            )
            .sign(&air_net)
            .expect("assignment delegation");
        let role_support = Proof::from_steps(vec![
            ProofStep::new(sheila_mktg.clone()),
            ProofStep::new(mktg_member_admin),
        ])
        .expect("linked");
        let mut partnership_supports = vec![role_support];
        for attr in [&bw, &storage, &hours] {
            let grant = air_net
                .delegate(Node::role(mktg.clone()), Node::attr_admin(attr.clone()))
                .sign(&air_net)
                .expect("attribute assignment");
            partnership_supports.push(
                Proof::from_steps(vec![
                    ProofStep::new(sheila_mktg.clone()),
                    ProofStep::new(grant),
                ])
                .expect("linked"),
            );
        }

        // Delegation (2): the coalition delegation (Table 2's example (4)).
        let partnership_cert: Arc<SignedDelegation> = Arc::new(
            sheila
                .delegate(
                    Node::role(member.clone()),
                    Node::role(airnet_member.clone()),
                )
                .with_attr(bw.clone(), 100.0)
                .expect("valid min operand")
                .with_attr(storage.clone(), 20.0)
                .expect("valid subtract operand")
                .with_attr(hours.clone(), 0.3)
                .expect("valid scale operand")
                .subject_tag(bigisp_tag.clone())
                .object_tag(airnet_tag.clone())
                .acting_as(Node::role(mktg.clone()))
                .sign(&sheila)
                .expect("Sheila signs"),
        );

        // Delegation (6): [AirNet.member -> AirNet.access] AirNet.
        let access_cert: Arc<SignedDelegation> = Arc::new(
            air_net
                .delegate(Node::role(airnet_member.clone()), Node::role(airnet_access))
                .subject_tag(airnet_tag.clone())
                .object_tag(airnet_tag.clone())
                .sign(&air_net)
                .expect("self-certified root"),
        );

        // Figure 2(a) initial placement: each delegation (with its support
        // proof) stored in its subject's home wallet.
        bigisp_home
            .wallet()
            .publish(Arc::clone(&partnership_cert), partnership_supports)
            .expect("partnership publishes with supports");
        airnet_home
            .wallet()
            .publish(Arc::clone(&access_cert), vec![])
            .expect("access root publishes");

        CoalitionScenario {
            clock,
            net,
            big_isp,
            air_net,
            maria,
            mark,
            sheila,
            server,
            bigisp_home,
            airnet_home,
            maria_cert,
            maria_support,
            partnership_cert,
            access_cert,
            bw,
            storage,
            hours,
        }
    }

    /// As [`CoalitionScenario::build`], then installs `plan` on the
    /// network — the chaos variant of the walkthrough. The world is
    /// built fault-free (out-of-band provisioning); only the discovery,
    /// subscription, and revocation traffic that follows runs under
    /// injected faults.
    pub fn build_with_faults<R: Rng + ?Sized>(rng: &mut R, plan: FaultPlan) -> Self {
        let scenario = Self::build(rng);
        scenario.net.set_fault_plan(Some(plan));
        scenario
    }

    /// The role AirNet's server protects.
    pub fn access_role(&self) -> Role {
        self.air_net.role("access")
    }

    /// Figure 2 step 1: Maria's software presents delegation (1) (with
    /// its support proof) to the AirNet server, which verifies and
    /// absorbs it.
    pub fn present_credentials(&self) -> Proof {
        let presented =
            Proof::from_steps(vec![ProofStep::new(Arc::clone(&self.maria_cert))
                .with_support(self.maria_support.clone())])
            .expect("single step");
        self.server
            .wallet()
            .absorb_proof(&presented, &drbac_core::WalletAddr::new("maria.laptop"))
            .expect("presented credential verifies");
        presented
    }

    /// A discovery agent for the server, with the directory seeded from
    /// the tags on Maria's presented credential.
    pub fn server_agent(&self, presented: &Proof) -> DiscoveryAgent {
        let mut directory = Directory::new();
        directory.learn_from_proof(presented);
        DiscoveryAgent::new(self.net.clone(), self.server.clone(), directory)
    }

    /// Figure 2 steps 2–6: the server discovers, validates, and monitors
    /// the proof `Maria ⇒ AirNet.access`.
    pub fn establish_access(&self) -> DiscoveryOutcome {
        let presented = self.present_credentials();
        let mut agent = self.server_agent(&presented);
        agent.discover(
            &Node::entity(&self.maria),
            &Node::role(self.access_role()),
            &[],
        )
    }

    /// The §5 step-5 expected effective values:
    /// `[(BW, 100), (storage, 30), (hours, 18)]`.
    pub fn expected_grants(&self) -> [(AttrRef, f64); 3] {
        [
            (self.bw.clone(), 100.0),
            (self.storage.clone(), 30.0),
            (self.hours.clone(), 18.0),
        ]
    }

    /// Ends the partnership: Sheila revokes delegation (2) at BigISP's
    /// home wallet, and the push propagates to every subscriber. The
    /// revocation request is retried under [`RetryPolicy::standard`] so
    /// injected request loss cannot silently leave the grant alive.
    /// Returns the number of push messages delivered.
    pub fn revoke_partnership(&self) -> usize {
        let revocation =
            SignedRevocation::revoke(&self.partnership_cert, &self.sheila, self.clock.now())
                .expect("Sheila issued it");
        RetryPolicy::standard()
            .run(
                &self.net,
                &BIGISP_WALLET.into(),
                &Request::Revoke(revocation),
            )
            .reply
            .expect("home wallet reachable within the retry budget");
        self.net.run_until_idle()
    }
}

impl std::fmt::Debug for CoalitionScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoalitionScenario")
            .field("server", &self.server)
            .field("bigisp_home", &self.bigisp_home)
            .field("airnet_home", &self.airnet_home)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_net::DiscoveryStep;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scenario() -> CoalitionScenario {
        CoalitionScenario::build(&mut StdRng::seed_from_u64(2002))
    }

    #[test]
    fn initial_wallet_placement_matches_figure_2a() {
        let s = scenario();
        assert!(s.server.wallet().is_empty(), "server wallet starts empty");
        // BigISP home: partnership + its 5 support credentials
        // (sheila→mktg, mktg→member', three attr grants).
        assert!(s.bigisp_home.wallet().contains(s.partnership_cert.id()));
        assert_eq!(s.bigisp_home.wallet().len(), 6);
        // AirNet home: the access root.
        assert_eq!(s.airnet_home.wallet().len(), 1);
    }

    #[test]
    fn case_study_reproduces_paper_numbers() {
        let s = scenario();
        let outcome = s.establish_access();
        assert!(outcome.found(), "trace: {:?}", outcome.trace);
        let monitor = outcome.monitor.as_ref().unwrap();
        for (attr, expected) in s.expected_grants() {
            let got = monitor.summary().get(&attr).unwrap_or(f64::NAN);
            assert!(
                (got - expected).abs() < 1e-9,
                "{attr}: expected {expected}, got {got}"
            );
        }
    }

    #[test]
    fn discovery_follows_figure_2_steps() {
        let s = scenario();
        let outcome = s.establish_access();
        let trace = &outcome.trace;
        // Step 2: local query fails.
        assert_eq!(trace[0], DiscoveryStep::LocalQuery { found: false });
        // Step 3: subject query at BigISP's home wallet.
        assert!(
            trace.iter().any(|t| matches!(
                t,
                DiscoveryStep::RemoteSubjectQuery { wallet, .. } if wallet.as_str() == BIGISP_WALLET
            )),
            "{trace:?}"
        );
        // Step 4: direct query at AirNet's home wallet succeeds.
        assert!(
            trace.iter().any(|t| matches!(
                t,
                DiscoveryStep::RemoteDirect { wallet, found: true, .. } if wallet.as_str() == AIRNET_WALLET
            )),
            "{trace:?}"
        );
        // Both remote wallets were contacted, in order.
        let contacted: Vec<_> = outcome
            .wallets_contacted
            .iter()
            .map(|w| w.as_str())
            .collect();
        assert_eq!(contacted, vec![AIRNET_WALLET, BIGISP_WALLET]); // BTreeSet order
    }

    #[test]
    fn partnership_revocation_terminates_access() {
        let s = scenario();
        let outcome = s.establish_access();
        let monitor = outcome.monitor.unwrap();
        assert!(monitor.is_valid());
        let delivered = s.revoke_partnership();
        assert!(delivered >= 1, "push reached the server wallet");
        assert!(!monitor.is_valid(), "session terminated by push");
        // Re-discovery now fails: the server learned the revocation.
        let mut agent = s.server_agent(&s.present_credentials());
        let retry = agent.discover(&Node::entity(&s.maria), &Node::role(s.access_role()), &[]);
        assert!(!retry.found());
    }

    #[test]
    fn unrelated_principal_is_refused() {
        let s = scenario();
        let presented = s.present_credentials();
        let mut agent = s.server_agent(&presented);
        let outcome = agent.discover(&Node::entity(&s.sheila), &Node::role(s.access_role()), &[]);
        assert!(!outcome.found());
    }
}
