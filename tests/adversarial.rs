//! Adversarial integration tests: the security properties dRBAC must
//! hold under active misbehaviour. Every test constructs a concrete
//! attack and asserts it is rejected at the right layer.

use std::sync::Arc;

use drbac::core::{
    AttrOp, LocalEntity, Node, Proof, ProofStep, ProofValidator, SignedDelegation,
    SignedRevocation, SimClock, Ticks, Timestamp, ValidationContext, ValidationError,
};
use drbac::crypto::SchnorrGroup;
use drbac::net::{proto::Request, SimNet};
use drbac::wallet::{Wallet, WalletError};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    rng: StdRng,
}

impl World {
    fn new() -> Self {
        World {
            rng: StdRng::seed_from_u64(0xbad),
        }
    }

    fn entity(&mut self, name: &str) -> LocalEntity {
        LocalEntity::generate(name, SchnorrGroup::test_256(), &mut self.rng)
    }
}

fn validator() -> ProofValidator {
    ProofValidator::new(ValidationContext::at(Timestamp(0)))
}

/// An attacker cannot mint a credential for someone else's namespace by
/// signing it themselves: the signature binds to the issuer identity.
#[test]
fn forged_issuer_rejected() {
    let mut w = World::new();
    let victim = w.entity("Victim");
    let attacker = w.entity("Attacker");
    let mallory = w.entity("Mallory");

    // Attacker builds a delegation *claiming* Victim as issuer...
    let body = drbac::core::DelegationBuilder::new(
        Node::entity(&mallory),
        Node::role(victim.role("root")),
        victim.id(),
    )
    .unwrap()
    .build();
    // ...but cannot sign it: SignedDelegation::sign refuses a mismatched
    // signer.
    assert!(matches!(
        SignedDelegation::sign(body, &attacker),
        Err(ValidationError::WrongSigner { .. })
    ));
}

/// Content addressing: structurally different credentials (even
/// reissues differing only in serial) have different ids, so a
/// revocation for one cannot be replayed against the other.
#[test]
fn revocation_cannot_be_replayed_across_reissues() {
    let mut w = World::new();
    let a = w.entity("A");
    let m = w.entity("M");
    let clock = SimClock::new();
    let wallet = Wallet::new("w", clock.clone());

    let first = a
        .delegate(Node::entity(&m), Node::role(a.role("r")))
        .serial(1)
        .sign(&a)
        .unwrap();
    let second = a
        .delegate(Node::entity(&m), Node::role(a.role("r")))
        .serial(2)
        .sign(&a)
        .unwrap();
    assert_ne!(first.id(), second.id());

    wallet.publish(first.clone(), vec![]).unwrap();
    let revocation = SignedRevocation::revoke(&first, &a, clock.now()).unwrap();
    wallet.revoke(&revocation).unwrap();

    // The reissue publishes and answers queries; the old revocation does
    // not touch it.
    wallet.publish(second, vec![]).unwrap();
    assert!(wallet
        .query_direct(&Node::entity(&m), &Node::role(a.role("r")), &[])
        .is_some());
    // Replaying the old notice against the new credential is an id
    // mismatch error (UnknownDelegation: the first was purged/marked).
    assert!(revocation.verify_against(&first).is_ok());
}

/// Wallet publication refuses a third-party delegation whose "support"
/// proves authority over a *different* role.
#[test]
fn mismatched_support_rejected_at_publication() {
    let mut w = World::new();
    let owner = w.entity("Owner");
    let attacker = w.entity("Attacker");
    let mallory = w.entity("Mallory");
    let wallet = Wallet::new("w", SimClock::new());

    // Owner gave the attacker assignment over `guest` only.
    let guest_grant = owner
        .delegate(
            Node::entity(&attacker),
            Node::role_admin(owner.role("guest")),
        )
        .sign(&owner)
        .unwrap();
    let guest_support = Proof::from_steps(vec![ProofStep::new(guest_grant)]).unwrap();

    // Attacker tries to hand out `root` using the guest support.
    let escalation = attacker
        .delegate(Node::entity(&mallory), Node::role(owner.role("root")))
        .sign(&attacker)
        .unwrap();
    let err = wallet.publish(escalation, vec![guest_support]).unwrap_err();
    assert!(
        matches!(err, WalletError::SupportNotProvided { .. }),
        "{err}"
    );
    // And nothing about Mallory is queryable.
    assert!(wallet
        .query_direct(
            &Node::entity(&mallory),
            &Node::role(owner.role("root")),
            &[]
        )
        .is_none());
}

/// An entity holding a role cannot extend it: entity subjects are chain
/// terminals ("these privileges may not be further delegated").
#[test]
fn entity_subject_cannot_extend_privileges() {
    let mut w = World::new();
    let owner = w.entity("Owner");
    let holder = w.entity("Holder");
    let friend = w.entity("Friend");
    let wallet = Wallet::new("w", SimClock::new());

    // Holder (an entity, not a role) receives the role.
    wallet
        .publish(
            owner
                .delegate(Node::entity(&holder), Node::role(owner.role("vip")))
                .sign(&owner)
                .unwrap(),
            vec![],
        )
        .unwrap();
    // Holder tries to pass it on without any right of assignment.
    let pass_on = holder
        .delegate(Node::entity(&friend), Node::role(owner.role("vip")))
        .sign(&holder)
        .unwrap();
    assert!(wallet.publish(pass_on, vec![]).is_err());
    assert!(wallet
        .query_direct(&Node::entity(&friend), &Node::role(owner.role("vip")), &[])
        .is_none());
}

/// Attribute escalation: an intermediary cannot weaken a modulation it
/// received (operand validation) nor set foreign attributes without the
/// attribute-assignment right.
#[test]
fn attribute_escalation_rejected() {
    let mut w = World::new();
    let owner = w.entity("Owner");
    let reseller = w.entity("Reseller");
    let user = w.entity("User");
    let wallet = Wallet::new("w", SimClock::new());
    let bw = owner.attr("bw", AttrOp::Scale);

    // Scale operands above 1 are structurally impossible.
    assert!(bw.clause(2.0).is_err());

    // Reseller got role-assignment but NOT attribute-assignment.
    wallet
        .publish(
            owner
                .delegate(
                    Node::entity(&reseller),
                    Node::role_admin(owner.role("access")),
                )
                .sign(&owner)
                .unwrap(),
            vec![],
        )
        .unwrap();
    let with_foreign_attr = reseller
        .delegate(Node::entity(&user), Node::role(owner.role("access")))
        .with_attr(bw, 1.0)
        .unwrap()
        .sign(&reseller)
        .unwrap();
    let err = wallet.publish(with_foreign_attr, vec![]).unwrap_err();
    assert!(matches!(err, WalletError::SupportNotProvided { .. }));
}

/// A revocation can only come from the original issuer; others are
/// rejected both locally and over the network.
#[test]
fn unauthorized_revocation_rejected() {
    let mut w = World::new();
    let owner = w.entity("Owner");
    let rival = w.entity("Rival");
    let user = w.entity("User");
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let host = net.add_host("home", Wallet::new("home", clock.clone()));

    let cert = owner
        .delegate(Node::entity(&user), Node::role(owner.role("r")))
        .sign(&owner)
        .unwrap();
    host.wallet().publish(cert.clone(), vec![]).unwrap();

    // The rival cannot even construct a revocation for someone else's
    // delegation...
    assert!(SignedRevocation::revoke(&cert, &rival, clock.now()).is_err());

    // ...and a forged notice body fails verification at the wallet.
    let own_cert = rival
        .delegate(Node::entity(&user), Node::role(rival.role("x")))
        .sign(&rival)
        .unwrap();
    let mut forged = SignedRevocation::revoke(&own_cert, &rival, clock.now()).unwrap();
    // Replay the notice against the victim delegation (see `retarget`).
    forged = retarget(forged, &cert);
    let reply = net
        .request(&"home".into(), Request::Revoke(forged))
        .unwrap();
    assert!(reply.is_error());
    // The delegation still answers queries.
    assert!(host
        .wallet()
        .query_direct(&Node::entity(&user), &Node::role(owner.role("r")), &[])
        .is_some());

    fn retarget(r: SignedRevocation, _target: &SignedDelegation) -> SignedRevocation {
        // The notice body is immutable through the public API; the best an
        // attacker can do is replay it against a different delegation,
        // which verify_against rejects by id mismatch. Return as-is.
        r
    }
}

/// Replay: a credential absorbed from one proof cannot resurrect after
/// its revocation arrived through a subscription push.
#[test]
fn revoked_credential_does_not_resurrect() {
    let mut w = World::new();
    let owner = w.entity("Owner");
    let user = w.entity("User");
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), Ticks(1));
    let home = net.add_host("home", Wallet::new("home", clock.clone()));
    let cache = net.add_host("cache", Wallet::new("cache", clock.clone()));

    let cert: Arc<SignedDelegation> = Arc::new(
        owner
            .delegate(Node::entity(&user), Node::role(owner.role("r")))
            .sign(&owner)
            .unwrap(),
    );
    home.wallet().publish(Arc::clone(&cert), vec![]).unwrap();
    let proof = Proof::from_steps(vec![ProofStep::new(Arc::clone(&cert))]).unwrap();
    cache.wallet().absorb_proof(&proof, home.addr()).unwrap();
    net.request(
        &"home".into(),
        Request::Subscribe {
            delegation: cert.id(),
            subscriber: "cache".into(),
        },
    )
    .unwrap();

    let revocation = SignedRevocation::revoke(&cert, &owner, clock.now()).unwrap();
    net.request(&"home".into(), Request::Revoke(revocation))
        .unwrap();
    net.run_until_idle();

    // Replaying the (validly signed!) proof at the cache is now rejected.
    assert!(matches!(
        cache.wallet().monitor_external_proof(proof),
        Err(WalletError::Validation(ValidationError::Revoked(_)))
    ));
}

/// Expired credentials fail validation even if presented in an otherwise
/// perfect proof — and validation is time-anchored, so yesterday's proof
/// doesn't validate tomorrow.
#[test]
fn expiry_is_enforced_at_validation_time() {
    let mut w = World::new();
    let owner = w.entity("Owner");
    let user = w.entity("User");
    let cert = owner
        .delegate(Node::entity(&user), Node::role(owner.role("r")))
        .expires(Timestamp(10))
        .sign(&owner)
        .unwrap();
    let proof = Proof::from_steps(vec![ProofStep::new(cert)]).unwrap();

    assert!(validator().validate(&proof).is_ok());
    let late = ProofValidator::new(ValidationContext::at(Timestamp(11)));
    assert!(matches!(
        late.validate(&proof),
        Err(ValidationError::Expired { .. })
    ));
}

/// Cross-key confusion: a proof whose chain mentions role `E1.r` cannot
/// be satisfied by an identically *named* role from a different key.
#[test]
fn same_name_different_key_is_a_different_role() {
    let mut w = World::new();
    let real = w.entity("Acme");
    let fake = w.entity("Acme"); // same display name, different key!
    let user = w.entity("User");
    let wallet = Wallet::new("w", SimClock::new());

    wallet
        .publish(
            fake.delegate(Node::entity(&user), Node::role(fake.role("admin")))
                .sign(&fake)
                .unwrap(),
            vec![],
        )
        .unwrap();
    // The fake "Acme.admin" does not grant the real one.
    assert!(wallet
        .query_direct(&Node::entity(&user), &Node::role(real.role("admin")), &[])
        .is_none());
    assert!(wallet
        .query_direct(&Node::entity(&user), &Node::role(fake.role("admin")), &[])
        .is_some());
}

/// Memo adoption cannot be turned into a bypass: a twin of a stored
/// credential — same body, hence the same `DelegationId` — whose
/// signature or key bytes differ inherits nothing from the stored copy
/// and is rejected by the full check, leaving the stored one in place.
#[test]
fn twin_of_a_stored_credential_with_altered_bytes_is_rejected() {
    use drbac::core::{Encode, Writer};

    let mut w = World::new();
    let owner = w.entity("Owner");
    let user = w.entity("User");
    let mallory = w.entity("Mallory");
    let wallet = Wallet::new("cache", SimClock::new());
    let cert = owner
        .delegate(Node::entity(&user), Node::role(owner.role("r")))
        .sign(&owner)
        .unwrap();
    let absorb = |cert: SignedDelegation| {
        let proof = Proof::from_steps(vec![ProofStep::new(cert)]).unwrap();
        wallet.absorb_proof(&proof, &"home".into())
    };
    absorb(cert.clone()).unwrap();
    let bytes = cert.to_bytes();

    // The signature is the tail of the wire form: flip its last byte.
    let mut resigned = bytes.clone();
    *resigned.last_mut().unwrap() ^= 1;
    let twin = SignedDelegation::from_bytes(&resigned).unwrap();
    assert_eq!(twin.id(), cert.id());
    assert_eq!(
        absorb(twin),
        Err(WalletError::Validation(ValidationError::BadSignature))
    );

    // Another entity's (perfectly valid) key spliced over the issuer's.
    let encoded = |key: &drbac::crypto::PublicKey| {
        let mut w = Writer::default();
        key.encode(&mut w);
        w.finish()
    };
    let own_key = encoded(owner.public_key());
    let at = bytes
        .windows(own_key.len())
        .rposition(|window| window == own_key)
        .expect("the wire form carries the issuer key");
    let mut rekeyed = bytes[..at].to_vec();
    rekeyed.extend(encoded(mallory.public_key()));
    rekeyed.extend(&bytes[at + own_key.len()..]);
    let twin = SignedDelegation::from_bytes(&rekeyed).unwrap();
    assert_eq!(twin.id(), cert.id());
    // A key that decodes at all has its own fingerprint, so this one is
    // caught before the signature is even looked at.
    assert!(matches!(
        absorb(twin),
        Err(WalletError::Validation(ValidationError::WrongSigner { .. }))
    ));

    assert_eq!(*wallet.get(cert.id()).unwrap(), cert);
    assert!(wallet
        .query_direct(&Node::entity(&user), &Node::role(owner.role("r")), &[])
        .is_some());
}

/// The flip side: a byte-identical copy arriving in a remote proof —
/// decoding dropped its memo — is admitted on the stored credential's
/// verdict, without a second group exponentiation.
#[test]
fn byte_identical_copy_is_admitted_without_a_second_signature_check() {
    let mut w = World::new();
    let owner = w.entity("Owner");
    let user = w.entity("User");
    let wallet = Wallet::new("cache", SimClock::new());
    let cert = owner
        .delegate(Node::entity(&user), Node::role(owner.role("r")))
        .sign(&owner)
        .unwrap();
    let sig_checks = || {
        drbac::obs::global()
            .counter("drbac.core.cert.sig_check.count")
            .get()
    };
    let absorb_copy = || {
        let copy = SignedDelegation::from_bytes(&cert.to_bytes()).unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(copy)]).unwrap();
        let before = sig_checks();
        wallet.absorb_proof(&proof, &"home".into()).unwrap();
        sig_checks() - before
    };
    // The first sighting pays the full check.
    assert!(absorb_copy() >= 1);
    // The counter is process-wide and other tests verify credentials
    // concurrently, so look for one quiet absorb: a copy that did need
    // its own check could never show zero.
    assert!(
        (0..200).any(|_| absorb_copy() == 0),
        "every re-absorb of a stored credential re-checked its signature"
    );
}
