//! Proofs: delegation DAGs demonstrating `Subject ⇒ Object` (paper §2, §3).
//!
//! A [`Proof`] is a chain of [`ProofStep`]s from a subject node to an
//! object node. Every *third-party* step carries **support proofs**
//! demonstrating that its issuer holds the object's right-of-assignment
//! (and, for foreign attribute clauses, the attribute-assignment right).
//! Support proofs may themselves contain third-party delegations, so
//! validation is recursive with cycle detection and a depth limit.
//!
//! Validation is performed by a [`ProofValidator`] against a
//! [`ValidationContext`] (logical time, attribute declarations, a
//! [`RevocationLookup`]), and yields the [`AttrSummary`] of effective
//! attribute values — exactly what the AirNet server computes in the
//! paper's §5 walkthrough.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::attr::{AttrAccumulator, AttrConstraint, AttrSummary, DeclarationSet};
use crate::cert::{DelegationId, SignedDelegation};
use crate::clock::Timestamp;
use crate::error::ValidationError;
use crate::Node;

/// One link in a proof chain: a credential plus the support proofs that
/// authorize it when it is third-party.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofStep {
    cert: Arc<SignedDelegation>,
    supports: Vec<Proof>,
}

impl ProofStep {
    /// Wraps a credential with no supports.
    pub fn new(cert: impl Into<Arc<SignedDelegation>>) -> Self {
        ProofStep {
            cert: cert.into(),
            supports: Vec::new(),
        }
    }

    /// Attaches a support proof.
    pub fn with_support(mut self, support: Proof) -> Self {
        self.supports.push(support);
        self
    }

    /// The credential.
    pub fn cert(&self) -> &SignedDelegation {
        &self.cert
    }

    /// Shared handle to the credential.
    pub fn cert_arc(&self) -> Arc<SignedDelegation> {
        Arc::clone(&self.cert)
    }

    /// The attached support proofs.
    pub fn supports(&self) -> &[Proof] {
        &self.supports
    }
}

/// A proof that `subject ⇒ object`.
///
/// Construct with [`Proof::from_steps`] (which checks chain linkage) or
/// [`Proof::trivial`] for the reflexive `S ⇒ S` proof.
#[derive(Debug, Clone, PartialEq)]
pub struct Proof {
    subject: Node,
    object: Node,
    steps: Vec<ProofStep>,
}

impl Proof {
    /// The reflexive proof `node ⇒ node` (no credentials needed).
    pub fn trivial(node: Node) -> Proof {
        Proof {
            subject: node.clone(),
            object: node,
            steps: Vec::new(),
        }
    }

    /// Builds a proof from a linked chain of steps.
    ///
    /// # Errors
    ///
    /// * [`ValidationError::EmptyProof`] for an empty step list,
    /// * [`ValidationError::BrokenChain`] if step `i`'s object is not step
    ///   `i + 1`'s subject.
    pub fn from_steps(steps: Vec<ProofStep>) -> Result<Proof, ValidationError> {
        let first = steps.first().ok_or(ValidationError::EmptyProof)?;
        let subject = first.cert().delegation().subject().clone();
        for (i, pair) in steps.windows(2).enumerate() {
            if pair[0].cert().delegation().object() != pair[1].cert().delegation().subject() {
                return Err(ValidationError::BrokenChain { position: i });
            }
        }
        let object = steps
            .last()
            .expect("nonempty")
            .cert()
            .delegation()
            .object()
            .clone();
        Ok(Proof {
            subject,
            object,
            steps,
        })
    }

    /// The proof's subject (chain start).
    pub fn subject(&self) -> &Node {
        &self.subject
    }

    /// The proof's object (chain end).
    pub fn object(&self) -> &Node {
        &self.object
    }

    /// The chain, subject first.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Number of delegations on the primary chain.
    pub fn chain_len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for the reflexive proof.
    pub fn is_trivial(&self) -> bool {
        self.steps.is_empty()
    }

    /// Concatenates `self` (`S ⇒ M`) with `next` (`M ⇒ O`) into `S ⇒ O`.
    ///
    /// # Errors
    ///
    /// [`ValidationError::BrokenChain`] if the endpoints do not meet.
    pub fn concat(mut self, next: Proof) -> Result<Proof, ValidationError> {
        if self.object != next.subject {
            return Err(ValidationError::BrokenChain {
                position: self.steps.len().saturating_sub(1),
            });
        }
        if self.is_trivial() {
            return Ok(next);
        }
        if next.is_trivial() {
            return Ok(self);
        }
        self.steps.extend(next.steps);
        self.object = next.object;
        Ok(self)
    }

    /// Accumulates the primary chain's attribute clauses from the object
    /// end toward the subject. Support chains authorize but do not
    /// modulate.
    pub fn accumulate(&self) -> AttrAccumulator {
        let mut acc = AttrAccumulator::new();
        for step in self.steps.iter().rev() {
            for clause in step.cert().delegation().clauses() {
                acc.absorb_clause(clause);
            }
        }
        acc
    }

    /// Every delegation id referenced by the proof, including support
    /// proofs, deduplicated — the set a proof monitor subscribes to.
    pub fn delegation_ids(&self) -> BTreeSet<DelegationId> {
        let mut out = BTreeSet::new();
        let _ = self.try_for_each_cert(&mut |cert| {
            out.insert(cert.id());
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// `true` if every step's transitive-trust limit (if any) is
    /// respected: a step at chain position `i` (counted from the subject)
    /// is extended by `i` delegations, which must not exceed its
    /// `max_extension_depth`. Searches use this to prune chains the
    /// validator would reject.
    pub fn respects_extension_depths(&self) -> bool {
        self.steps.iter().enumerate().all(|(i, step)| {
            step.cert()
                .delegation()
                .max_extension_depth()
                .is_none_or(|limit| (i as u64) <= limit)
        })
    }

    /// Iterates over every credential in the proof (chain and supports).
    pub fn all_certs(&self) -> Vec<Arc<SignedDelegation>> {
        let mut out = Vec::new();
        let _ = self.try_for_each_cert(&mut |cert| {
            out.push(Arc::clone(cert));
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// Calls `f` on every credential in the proof — its chain and,
    /// recursively, its supports' — in that order, until `f` breaks;
    /// allocates nothing. A credential used twice is visited twice.
    pub fn try_for_each_cert<B>(
        &self,
        f: &mut impl FnMut(&Arc<SignedDelegation>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        for step in &self.steps {
            f(&step.cert)?;
            for support in &step.supports {
                support.try_for_each_cert(f)?;
            }
        }
        ControlFlow::Continue(())
    }
}

impl crate::wire::Encode for ProofStep {
    fn encode(&self, w: &mut crate::wire::Writer) {
        self.cert.as_ref().encode(w);
        w.list(&self.supports);
    }
}

impl crate::wire::Decode for ProofStep {
    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::DecodeError> {
        let cert = SignedDelegation::decode(r)?;
        let supports: Vec<Proof> = r.list()?;
        Ok(ProofStep {
            cert: Arc::new(cert),
            supports,
        })
    }
}

impl crate::wire::Encode for Proof {
    fn encode(&self, w: &mut crate::wire::Writer) {
        self.subject.encode(w);
        self.object.encode(w);
        w.list(&self.steps);
    }
}

impl crate::wire::Decode for Proof {
    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::DecodeError> {
        use crate::wire::DecodeError;
        let subject = Node::decode(r)?;
        let object = Node::decode(r)?;
        let steps: Vec<ProofStep> = r.list()?;
        if steps.is_empty() {
            if subject != object {
                return Err(DecodeError::Invalid(
                    "empty proof with distinct endpoints".into(),
                ));
            }
            return Ok(Proof::trivial(subject));
        }
        let proof = Proof::from_steps(steps).map_err(|e| DecodeError::Invalid(e.to_string()))?;
        if proof.subject() != &subject || proof.object() != &object {
            return Err(DecodeError::Invalid(
                "declared endpoints do not match chain".into(),
            ));
        }
        Ok(proof)
    }
}

impl Proof {
    /// Serializes the whole proof DAG (chain, supports, credentials) into
    /// its canonical wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        use crate::wire::{Encode, Writer};
        let mut w = Writer::tagged(b"drbac-proof-v1");
        self.encode(&mut w);
        w.finish()
    }

    /// Deserializes a proof produced by [`Proof::to_bytes`]. Chain
    /// linkage is re-checked; cryptographic validation still requires a
    /// [`ProofValidator`].
    ///
    /// # Errors
    ///
    /// [`crate::wire::DecodeError`] on malformed or unlinked input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::wire::DecodeError> {
        use crate::wire::{Decode, Reader};
        let mut r = Reader::tagged(bytes, b"drbac-proof-v1")?;
        let proof = Proof::decode(&mut r)?;
        r.finish()?;
        Ok(proof)
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} => {} ({} steps)",
            self.subject,
            self.object,
            self.steps.len()
        )
    }
}

/// The one question a validator asks about revocation: is *this*
/// credential revoked? It is asked once per credential a validation
/// visits, supports included, so a validation costs O(proof) whatever
/// the size of the revocation history behind the answer.
///
/// A stand-alone verifier answers from an explicit
/// `BTreeSet<DelegationId>` (the default, filled by
/// [`ValidationContext::with_revoked`]); a wallet answers from its live
/// store ([`ValidationContext::with_revocations`]).
pub trait RevocationLookup {
    /// `true` if `id` is known to be revoked.
    fn is_revoked(&self, id: DelegationId) -> bool;
}

impl RevocationLookup for BTreeSet<DelegationId> {
    fn is_revoked(&self, id: DelegationId) -> bool {
        self.contains(&id)
    }
}

impl<T: RevocationLookup + ?Sized> RevocationLookup for &T {
    fn is_revoked(&self, id: DelegationId) -> bool {
        (**self).is_revoked(id)
    }
}

/// Everything a verifier knows when validating a proof. `R` is where
/// revocation is looked up (see [`RevocationLookup`]).
#[derive(Debug, Clone, Default)]
pub struct ValidationContext<R = BTreeSet<DelegationId>> {
    /// Logical time of validation (expiry checks).
    pub now: Timestamp,
    /// Verified attribute declarations (base values), shared with
    /// whoever holds them.
    pub declarations: Arc<DeclarationSet>,
    /// Answers "is this delegation revoked?".
    pub revoked: R,
    /// Support-recursion depth limit (default 8).
    pub max_support_depth: usize,
}

impl ValidationContext {
    /// A context at logical time `now` with defaults elsewhere.
    pub fn at(now: Timestamp) -> Self {
        ValidationContext {
            now,
            declarations: Arc::default(),
            revoked: BTreeSet::new(),
            max_support_depth: 8,
        }
    }

    /// Marks a delegation as revoked in the context's explicit set.
    pub fn with_revoked(mut self, id: DelegationId) -> Self {
        self.revoked.insert(id);
        self
    }
}

impl<R> ValidationContext<R> {
    /// Replaces the declaration set: an owned set, or the `Arc` a wallet
    /// already holds (no copy).
    pub fn with_declarations(mut self, declarations: impl Into<Arc<DeclarationSet>>) -> Self {
        self.declarations = declarations.into();
        self
    }

    /// Replaces where revocation is looked up — e.g. a reference to a
    /// live store instead of a copy of its marks.
    pub fn with_revocations<L: RevocationLookup>(self, revoked: L) -> ValidationContext<L> {
        ValidationContext {
            now: self.now,
            declarations: self.declarations,
            revoked,
            max_support_depth: self.max_support_depth,
        }
    }

    /// Sets the support-recursion depth limit.
    pub fn with_max_support_depth(mut self, depth: usize) -> Self {
        self.max_support_depth = depth;
        self
    }
}

/// Validates proofs against a [`ValidationContext`].
///
/// # Example
///
/// The paper's Table 1 example — delegations (1)–(3) proving
/// `Maria ⇒ BigISP.member`:
///
/// ```
/// use drbac_core::{LocalEntity, Node, Proof, ProofStep, ProofValidator, ValidationContext, Timestamp};
/// use drbac_crypto::SchnorrGroup;
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// # let g = SchnorrGroup::test_256();
/// let big_isp = LocalEntity::generate("BigISP", g.clone(), &mut rng);
/// let mark = LocalEntity::generate("Mark", g.clone(), &mut rng);
/// let maria = LocalEntity::generate("Maria", g, &mut rng);
/// let member = big_isp.role("member");
/// let member_services = big_isp.role("memberServices");
///
/// // (1) [Mark -> BigISP.memberServices] BigISP
/// let d1 = big_isp.delegate(Node::entity(&mark), Node::role(member_services.clone())).sign(&big_isp)?;
/// // (2) [BigISP.memberServices -> BigISP.member'] BigISP
/// let d2 = big_isp.delegate(Node::role(member_services), Node::role_admin(member.clone())).sign(&big_isp)?;
/// // (3) [Maria -> BigISP.member] Mark  — third-party, supported by (1)+(2)
/// let support = Proof::from_steps(vec![ProofStep::new(d1), ProofStep::new(d2)])?;
/// let d3 = mark.delegate(Node::entity(&maria), Node::role(member)).sign(&mark)?;
/// let proof = Proof::from_steps(vec![ProofStep::new(d3).with_support(support)])?;
///
/// let validator = ProofValidator::new(ValidationContext::at(Timestamp(0)));
/// assert!(validator.validate(&proof).is_ok());
/// # Ok::<(), drbac_core::ValidationError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProofValidator<R = BTreeSet<DelegationId>> {
    ctx: ValidationContext<R>,
}

impl<R: RevocationLookup> ProofValidator<R> {
    /// Creates a validator.
    pub fn new(ctx: ValidationContext<R>) -> Self {
        ProofValidator { ctx }
    }

    /// The context being validated against.
    pub fn context(&self) -> &ValidationContext<R> {
        &self.ctx
    }

    /// Fully validates `proof` and returns the effective attribute
    /// summary.
    ///
    /// Checks, per step: chain linkage, signature, signer identity,
    /// expiry, revocation, and third-party authority (recursively through
    /// support proofs with cycle and depth protection).
    ///
    /// # Errors
    ///
    /// The first [`ValidationError`] encountered.
    pub fn validate(&self, proof: &Proof) -> Result<AttrSummary, ValidationError> {
        let _span = drbac_obs::span!(
            "drbac.core.proof.validate",
            "chain_len" => proof.chain_len(),
        );
        let _timer = drbac_obs::static_histogram!("drbac.core.proof.validate.ns").start_timer();
        drbac_obs::static_counter!("drbac.core.proof.validate.count").inc();
        let mut stack = Vec::new();
        if let Err(err) = self.validate_inner(proof, 0, &mut stack) {
            drbac_obs::static_counter!("drbac.core.proof.validate.error.count").inc();
            drbac_obs::event!(
                "drbac.core.proof.validate.rejected",
                "error" => err.to_string(),
            );
            return Err(err);
        }
        Ok(AttrSummary::build(
            &proof.accumulate(),
            &self.ctx.declarations,
        ))
    }

    /// Validates `proof` and additionally checks it answers the direct
    /// query `subject ⇒ object` under `constraints`.
    ///
    /// # Errors
    ///
    /// [`ValidationError::TargetMismatch`] if endpoints differ;
    /// [`ValidationError::ConstraintViolated`] if any constraint fails;
    /// otherwise as [`ProofValidator::validate`].
    pub fn validate_query(
        &self,
        proof: &Proof,
        subject: &Node,
        object: &Node,
        constraints: &[AttrConstraint],
    ) -> Result<AttrSummary, ValidationError> {
        if proof.subject() != subject || proof.object() != object {
            return Err(ValidationError::TargetMismatch {
                expected: format!("{subject} => {object}"),
                got: format!("{} => {}", proof.subject(), proof.object()),
            });
        }
        let summary = self.validate(proof)?;
        let acc = proof.accumulate();
        for c in constraints {
            if !acc.satisfies(std::slice::from_ref(c), &self.ctx.declarations) {
                return Err(ValidationError::ConstraintViolated(c.to_string()));
            }
        }
        Ok(summary)
    }

    fn validate_inner(
        &self,
        proof: &Proof,
        depth: usize,
        stack: &mut Vec<DelegationId>,
    ) -> Result<(), ValidationError> {
        if depth > self.ctx.max_support_depth {
            return Err(ValidationError::SupportDepthExceeded);
        }
        if proof.is_trivial() {
            if proof.subject() != proof.object() {
                return Err(ValidationError::EmptyProof);
            }
            return Ok(());
        }
        // Re-check linkage (proofs may arrive deserialized).
        if proof.steps[0].cert().delegation().subject() != proof.subject() {
            return Err(ValidationError::BrokenChain { position: 0 });
        }
        for (i, pair) in proof.steps.windows(2).enumerate() {
            if pair[0].cert().delegation().object() != pair[1].cert().delegation().subject() {
                return Err(ValidationError::BrokenChain { position: i });
            }
        }
        if proof
            .steps
            .last()
            .expect("nonempty")
            .cert()
            .delegation()
            .object()
            != proof.object()
        {
            return Err(ValidationError::BrokenChain {
                position: proof.steps.len() - 1,
            });
        }

        for (position, step) in proof.steps.iter().enumerate() {
            let cert = step.cert();
            let id = cert.id();
            // Transitive-trust limit: `position` delegations sit between
            // this proof's subject and the credential; each one extends
            // the grant one hop further.
            if let Some(limit) = cert.delegation().max_extension_depth() {
                if (position as u64) > limit {
                    return Err(ValidationError::DepthExceeded {
                        limit,
                        extensions: position as u64,
                    });
                }
            }
            if stack.contains(&id) {
                return Err(ValidationError::SupportCycle);
            }
            drbac_obs::static_counter!("drbac.core.proof.revocation_read.count").inc();
            if self.ctx.revoked.is_revoked(id) {
                return Err(ValidationError::Revoked(id));
            }
            cert.verify(self.ctx.now)?;

            let delegation = cert.delegation();
            let issuer_node = Node::Entity(delegation.issuer());

            // Rights the issuer must prove: the object's assignment right
            // (for third-party delegations) plus the attribute-assignment
            // right for every foreign clause.
            let mut needed: Vec<Node> = Vec::new();
            if let Some(right) = delegation.required_support() {
                needed.push(right);
            }
            for clause in delegation.foreign_clauses() {
                let admin = Node::attr_admin(clause.attr().clone());
                if !needed.contains(&admin) {
                    needed.push(admin);
                }
            }

            if !needed.is_empty() {
                stack.push(id);
                let result = (|| {
                    for right in &needed {
                        let support = step
                            .supports()
                            .iter()
                            .find(|s| s.object() == right && s.subject() == &issuer_node);
                        match support {
                            Some(s) => {
                                let _span = drbac_obs::span!(
                                    "drbac.core.proof.support.validate",
                                    "depth" => depth + 1,
                                    "chain_len" => s.chain_len(),
                                );
                                drbac_obs::static_counter!(
                                    "drbac.core.proof.support.validate.count"
                                )
                                .inc();
                                self.validate_inner(s, depth + 1, stack)?
                            }
                            None => {
                                // Distinguish "no support at all" from
                                // "support proves something else".
                                if let Some(wrong) =
                                    step.supports().iter().find(|s| s.object() == right)
                                {
                                    return Err(ValidationError::WrongSupport {
                                        expected: format!("{issuer_node} => {right}"),
                                        got: format!("{} => {}", wrong.subject(), wrong.object()),
                                    });
                                }
                                return Err(ValidationError::MissingSupport {
                                    issuer: delegation.issuer(),
                                    needed: right.to_string(),
                                });
                            }
                        }
                    }
                    Ok(())
                })();
                stack.pop();
                result?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttrDeclaration, AttrOp};
    use crate::entity::LocalEntity;
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        big_isp: LocalEntity,
        mark: LocalEntity,
        maria: LocalEntity,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(77);
        let g = SchnorrGroup::test_256();
        Fixture {
            big_isp: LocalEntity::generate("BigISP", g.clone(), &mut rng),
            mark: LocalEntity::generate("Mark", g.clone(), &mut rng),
            maria: LocalEntity::generate("Maria", g, &mut rng),
        }
    }

    /// Builds the Table 1 proof: (1)+(2) as support for (3).
    fn table1_proof(fx: &Fixture) -> Proof {
        let member = fx.big_isp.role("member");
        let services = fx.big_isp.role("memberServices");
        let d1 = fx
            .big_isp
            .delegate(Node::entity(&fx.mark), Node::role(services.clone()))
            .sign(&fx.big_isp)
            .unwrap();
        let d2 = fx
            .big_isp
            .delegate(Node::role(services), Node::role_admin(member.clone()))
            .sign(&fx.big_isp)
            .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(d1), ProofStep::new(d2)]).unwrap();
        let d3 = fx
            .mark
            .delegate(Node::entity(&fx.maria), Node::role(member))
            .sign(&fx.mark)
            .unwrap();
        Proof::from_steps(vec![ProofStep::new(d3).with_support(support)]).unwrap()
    }

    fn validator() -> ProofValidator {
        ProofValidator::new(ValidationContext::at(Timestamp(0)))
    }

    #[test]
    fn table1_proof_validates() {
        let fx = fixture();
        let proof = table1_proof(&fx);
        assert_eq!(proof.subject(), &Node::entity(&fx.maria));
        assert_eq!(proof.object(), &Node::role(fx.big_isp.role("member")));
        assert!(validator().validate(&proof).is_ok());
        // Three distinct delegations participate.
        assert_eq!(proof.delegation_ids().len(), 3);
    }

    #[test]
    fn third_party_without_support_rejected() {
        let fx = fixture();
        let d3 = fx
            .mark
            .delegate(
                Node::entity(&fx.maria),
                Node::role(fx.big_isp.role("member")),
            )
            .sign(&fx.mark)
            .unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(d3)]).unwrap();
        assert!(matches!(
            validator().validate(&proof),
            Err(ValidationError::MissingSupport { .. })
        ));
    }

    #[test]
    fn support_for_wrong_role_rejected() {
        let fx = fixture();
        let member = fx.big_isp.role("member");
        let other = fx.big_isp.role("other");
        let services = fx.big_isp.role("memberServices");
        let d1 = fx
            .big_isp
            .delegate(Node::entity(&fx.mark), Node::role(services.clone()))
            .sign(&fx.big_isp)
            .unwrap();
        // Support grants assignment over *other*, not member.
        let d2 = fx
            .big_isp
            .delegate(Node::role(services), Node::role_admin(other))
            .sign(&fx.big_isp)
            .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(d1), ProofStep::new(d2)]).unwrap();
        let d3 = fx
            .mark
            .delegate(Node::entity(&fx.maria), Node::role(member))
            .sign(&fx.mark)
            .unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(d3).with_support(support)]).unwrap();
        assert!(matches!(
            validator().validate(&proof),
            Err(ValidationError::MissingSupport { .. })
        ));
    }

    #[test]
    fn support_with_wrong_subject_reported() {
        let fx = fixture();
        let member = fx.big_isp.role("member");
        // Support proves Maria => member', but the issuer is Mark.
        let d_wrong = fx
            .big_isp
            .delegate(Node::entity(&fx.maria), Node::role_admin(member.clone()))
            .sign(&fx.big_isp)
            .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(d_wrong)]).unwrap();
        let d3 = fx
            .mark
            .delegate(Node::entity(&fx.maria), Node::role(member))
            .sign(&fx.mark)
            .unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(d3).with_support(support)]).unwrap();
        assert!(matches!(
            validator().validate(&proof),
            Err(ValidationError::WrongSupport { .. })
        ));
    }

    #[test]
    fn broken_chain_detected_on_construction() {
        let fx = fixture();
        let r1 = fx.big_isp.role("r1");
        let r2 = fx.big_isp.role("r2");
        let d1 = fx
            .big_isp
            .delegate(Node::entity(&fx.maria), Node::role(r1))
            .sign(&fx.big_isp)
            .unwrap();
        let d2 = fx
            .big_isp
            .delegate(Node::role(r2), Node::role(fx.big_isp.role("r3")))
            .sign(&fx.big_isp)
            .unwrap();
        assert!(matches!(
            Proof::from_steps(vec![ProofStep::new(d1), ProofStep::new(d2)]),
            Err(ValidationError::BrokenChain { position: 0 })
        ));
        assert!(matches!(
            Proof::from_steps(vec![]),
            Err(ValidationError::EmptyProof)
        ));
    }

    #[test]
    fn revoked_delegation_fails_validation() {
        let fx = fixture();
        let proof = table1_proof(&fx);
        // Revoke the support's first delegation.
        let revoked_id = proof.steps()[0].supports()[0].steps()[0].cert().id();
        let v = ProofValidator::new(ValidationContext::at(Timestamp(0)).with_revoked(revoked_id));
        assert_eq!(
            v.validate(&proof),
            Err(ValidationError::Revoked(revoked_id))
        );
    }

    #[test]
    fn expired_support_fails_validation() {
        let fx = fixture();
        let member = fx.big_isp.role("member");
        let services = fx.big_isp.role("memberServices");
        let d1 = fx
            .big_isp
            .delegate(Node::entity(&fx.mark), Node::role(services.clone()))
            .expires(Timestamp(5))
            .sign(&fx.big_isp)
            .unwrap();
        let d2 = fx
            .big_isp
            .delegate(Node::role(services), Node::role_admin(member.clone()))
            .sign(&fx.big_isp)
            .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(d1), ProofStep::new(d2)]).unwrap();
        let d3 = fx
            .mark
            .delegate(Node::entity(&fx.maria), Node::role(member))
            .sign(&fx.mark)
            .unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(d3).with_support(support)]).unwrap();
        assert!(ProofValidator::new(ValidationContext::at(Timestamp(5)))
            .validate(&proof)
            .is_ok());
        assert!(matches!(
            ProofValidator::new(ValidationContext::at(Timestamp(6))).validate(&proof),
            Err(ValidationError::Expired { .. })
        ));
    }

    #[test]
    fn trivial_proof_validates() {
        let fx = fixture();
        let node = Node::entity(&fx.maria);
        let proof = Proof::trivial(node.clone());
        assert!(proof.is_trivial());
        assert!(validator().validate(&proof).is_ok());
        assert_eq!(proof.subject(), proof.object());
    }

    #[test]
    fn concat_composes_chains() {
        let fx = fixture();
        let r1 = fx.big_isp.role("r1");
        let r2 = fx.big_isp.role("r2");
        let d1 = fx
            .big_isp
            .delegate(Node::entity(&fx.maria), Node::role(r1.clone()))
            .sign(&fx.big_isp)
            .unwrap();
        let d2 = fx
            .big_isp
            .delegate(Node::role(r1.clone()), Node::role(r2.clone()))
            .sign(&fx.big_isp)
            .unwrap();
        let p1 = Proof::from_steps(vec![ProofStep::new(d1)]).unwrap();
        let p2 = Proof::from_steps(vec![ProofStep::new(d2)]).unwrap();
        let joined = p1.clone().concat(p2.clone()).unwrap();
        assert_eq!(joined.subject(), &Node::entity(&fx.maria));
        assert_eq!(joined.object(), &Node::role(r2));
        assert!(validator().validate(&joined).is_ok());
        // Mismatched endpoints refuse to concat.
        assert!(p2.concat(p1).is_err());
        // Trivial proofs are identities for concat.
        let t = Proof::trivial(Node::entity(&fx.maria));
        let again = t.concat(joined.clone()).unwrap();
        assert_eq!(again, joined);
    }

    #[test]
    fn attribute_accumulation_and_constraints() {
        let fx = fixture();
        let bw = fx.big_isp.attr("BW", AttrOp::Min);
        let r1 = fx.big_isp.role("r1");
        let r2 = fx.big_isp.role("r2");
        let d1 = fx
            .big_isp
            .delegate(Node::entity(&fx.maria), Node::role(r1.clone()))
            .with_attr(bw.clone(), 100.0)
            .unwrap()
            .sign(&fx.big_isp)
            .unwrap();
        let d2 = fx
            .big_isp
            .delegate(Node::role(r1), Node::role(r2.clone()))
            .with_attr(bw.clone(), 150.0)
            .unwrap()
            .sign(&fx.big_isp)
            .unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(d1), ProofStep::new(d2)]).unwrap();

        let mut decls = DeclarationSet::new();
        decls.insert(&AttrDeclaration::new(bw.clone(), 200.0).unwrap());
        let v = ProofValidator::new(ValidationContext::at(Timestamp(0)).with_declarations(decls));

        let summary = v
            .validate_query(
                &proof,
                &Node::entity(&fx.maria),
                &Node::role(r2.clone()),
                &[],
            )
            .unwrap();
        assert_eq!(summary.get(&bw), Some(100.0));

        let tight = crate::AttrConstraint::at_least(bw.clone(), 150.0);
        assert!(matches!(
            v.validate_query(
                &proof,
                &Node::entity(&fx.maria),
                &Node::role(r2.clone()),
                &[tight]
            ),
            Err(ValidationError::ConstraintViolated(_))
        ));
        let loose = crate::AttrConstraint::at_least(bw, 100.0);
        assert!(v
            .validate_query(&proof, &Node::entity(&fx.maria), &Node::role(r2), &[loose])
            .is_ok());
    }

    #[test]
    fn foreign_attr_clause_requires_attr_admin_support() {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(5);
        let airnet = LocalEntity::generate("AirNet", SchnorrGroup::test_256(), &mut rng);
        let storage = airnet.attr("storage", AttrOp::Subtract);
        let member = airnet.role("member");

        // Sheila-like: BigISP issues a delegation to an AirNet role with an
        // AirNet attribute clause — needs both member' and storage'.
        let d = fx
            .big_isp
            .delegate(
                Node::role(fx.big_isp.role("member")),
                Node::role(member.clone()),
            )
            .with_attr(storage.clone(), 20.0)
            .unwrap()
            .sign(&fx.big_isp)
            .unwrap();

        let role_support = Proof::from_steps(vec![ProofStep::new(
            airnet
                .delegate(Node::entity(&fx.big_isp), Node::role_admin(member.clone()))
                .sign(&airnet)
                .unwrap(),
        )])
        .unwrap();
        let attr_support = Proof::from_steps(vec![ProofStep::new(
            airnet
                .delegate(Node::entity(&fx.big_isp), Node::attr_admin(storage.clone()))
                .sign(&airnet)
                .unwrap(),
        )])
        .unwrap();

        // Only role support: the storage clause is unauthorized.
        let partial = Proof::from_steps(vec![
            ProofStep::new(d.clone()).with_support(role_support.clone())
        ])
        .unwrap();
        assert!(matches!(
            validator().validate(&partial),
            Err(ValidationError::MissingSupport { .. })
        ));

        // Both supports: valid.
        let full = Proof::from_steps(vec![ProofStep::new(d)
            .with_support(role_support)
            .with_support(attr_support)])
        .unwrap();
        assert!(validator().validate(&full).is_ok());
    }

    #[test]
    fn nested_support_proofs_validate() {
        // BigISP delegates member' to Mark via an intermediary chain that
        // itself involves a third-party delegation.
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(9);
        let deputy = LocalEntity::generate("Deputy", SchnorrGroup::test_256(), &mut rng);
        let member = fx.big_isp.role("member");

        // BigISP gives Deputy member' (self-certified).
        let d_deputy = fx
            .big_isp
            .delegate(Node::entity(&deputy), Node::role_admin(member.clone()))
            .sign(&fx.big_isp)
            .unwrap();
        // Deputy (third-party!) gives Mark member'; support: deputy => member'.
        let deputy_support = Proof::from_steps(vec![ProofStep::new(d_deputy)]).unwrap();
        let d_mark = deputy
            .delegate(Node::entity(&fx.mark), Node::role_admin(member.clone()))
            .sign(&deputy)
            .unwrap();
        let mark_support =
            Proof::from_steps(vec![ProofStep::new(d_mark).with_support(deputy_support)]).unwrap();
        // Mark issues the member role to Maria.
        let d_final = fx
            .mark
            .delegate(Node::entity(&fx.maria), Node::role(member))
            .sign(&fx.mark)
            .unwrap();
        let proof =
            Proof::from_steps(vec![ProofStep::new(d_final).with_support(mark_support)]).unwrap();
        assert!(validator().validate(&proof).is_ok());

        // With a depth limit of 1 the nesting is rejected.
        let v = ProofValidator::new(ValidationContext::at(Timestamp(0)).with_max_support_depth(1));
        assert_eq!(
            v.validate(&proof),
            Err(ValidationError::SupportDepthExceeded)
        );
    }

    #[test]
    fn mutual_support_cycle_detected() {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(13);
        let b = LocalEntity::generate("B", SchnorrGroup::test_256(), &mut rng);
        let c = LocalEntity::generate("C", SchnorrGroup::test_256(), &mut rng);
        let r = fx.big_isp.role("r");

        // D = [C => r'] B (third-party), D' = [B => r'] C (third-party).
        let d = b
            .delegate(Node::entity(&c), Node::role_admin(r.clone()))
            .sign(&b)
            .unwrap();
        let d_prime = c
            .delegate(Node::entity(&b), Node::role_admin(r.clone()))
            .sign(&c)
            .unwrap();

        // d's support: proof(d') whose step is supported by proof(d) again.
        let inner_d = Proof::from_steps(vec![ProofStep::new(d.clone())]).unwrap();
        let support_for_d =
            Proof::from_steps(vec![ProofStep::new(d_prime).with_support(inner_d)]).unwrap();
        let main = Proof::from_steps(vec![ProofStep::new(d).with_support(support_for_d)]).unwrap();
        assert_eq!(
            validator().validate(&main),
            Err(ValidationError::SupportCycle)
        );
    }

    #[test]
    fn extension_depth_limits_enforced() {
        let fx = fixture();
        let r1 = fx.big_isp.role("r1");
        let r2 = fx.big_isp.role("r2");
        let r3 = fx.big_isp.role("r3");

        // [Maria -> r1], [r1 -> r2 <depth:0>], [r2 -> r3].
        // The depth-0 grant sits at position 1: one delegation (Maria's)
        // extends it — violation.
        let d1 = fx
            .big_isp
            .delegate(Node::entity(&fx.maria), Node::role(r1.clone()))
            .sign(&fx.big_isp)
            .unwrap();
        let d2 = fx
            .big_isp
            .delegate(Node::role(r1), Node::role(r2.clone()))
            .max_extension_depth(0)
            .sign(&fx.big_isp)
            .unwrap();
        let d3 = fx
            .big_isp
            .delegate(Node::role(r2.clone()), Node::role(r3))
            .sign(&fx.big_isp)
            .unwrap();

        let strict = Proof::from_steps(vec![
            ProofStep::new(d1.clone()),
            ProofStep::new(d2.clone()),
            ProofStep::new(d3.clone()),
        ])
        .unwrap();
        assert!(!strict.respects_extension_depths());
        assert!(matches!(
            validator().validate(&strict),
            Err(ValidationError::DepthExceeded {
                limit: 0,
                extensions: 1
            })
        ));

        // With depth 1 the same chain is allowed (one extension).
        let d2_loose = fx
            .big_isp
            .delegate(
                d2.delegation().subject().clone(),
                d2.delegation().object().clone(),
            )
            .max_extension_depth(1)
            .sign(&fx.big_isp)
            .unwrap();
        let loose = Proof::from_steps(vec![
            ProofStep::new(d1),
            ProofStep::new(d2_loose),
            ProofStep::new(d3),
        ])
        .unwrap();
        assert!(loose.respects_extension_depths());
        assert!(validator().validate(&loose).is_ok());

        // A depth-0 grant used directly (position 0) is fine.
        let direct = fx
            .big_isp
            .delegate(
                Node::entity(&fx.maria),
                Node::role(fx.big_isp.role("direct")),
            )
            .max_extension_depth(0)
            .sign(&fx.big_isp)
            .unwrap();
        let direct_proof = Proof::from_steps(vec![ProofStep::new(direct)]).unwrap();
        assert!(validator().validate(&direct_proof).is_ok());
    }

    #[test]
    fn query_target_mismatch_rejected() {
        let fx = fixture();
        let proof = table1_proof(&fx);
        let v = validator();
        assert!(matches!(
            v.validate_query(&proof, &Node::entity(&fx.mark), proof.object(), &[]),
            Err(ValidationError::TargetMismatch { .. })
        ));
    }
}
