//! Valued attributes: scalar modulation of access levels along delegation
//! chains (paper §3.2.1).
//!
//! Each attribute lives in an entity's namespace (disjoint from roles) and
//! is bound to a **single monotone operator** so that "no entity is able to
//! delegate greater permissions than they have themselves":
//!
//! * [`AttrOp::Subtract`] — subtract a positive quantity (operand default 0),
//! * [`AttrOp::Scale`] — multiply by a factor in `[0, 1]` (default 1),
//! * [`AttrOp::Min`] — running minimum along the chain (default `+∞`).
//!
//! A delegation carries zero or more [`AttrClause`]s. Accumulating clauses
//! from the *object end of a chain toward the subject* yields an
//! [`AttrAccumulator`]; applying that to the attribute's declared base
//! value (a [`AttrDeclaration`] signed by the namespace owner) yields the
//! effective access level. Monotonicity makes search pruning sound
//! (paper §4.2.3): extending a chain can never raise an effective value.

use std::collections::BTreeMap;
use std::fmt;

use crate::entity::EntityId;
use crate::error::ModelError;
use crate::signed::{Body, Expiring, Signed};
use crate::wire::{Decode, DecodeError, Encode, Reader, Writer};
use crate::Timestamp;

/// A validated attribute name (same rules as role names: 1–64 chars of
/// `[A-Za-z0-9_-]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrName(String);

impl AttrName {
    /// Validates and wraps an attribute name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidName`] for empty, overlong, or
    /// non-`[A-Za-z0-9_-]` names.
    pub fn new(name: impl Into<String>) -> Result<Self, ModelError> {
        let name = name.into();
        if name.is_empty()
            || name.len() > 64
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(ModelError::InvalidName(name));
        }
        Ok(AttrName(name))
    }

    /// The validated string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The monotone operator bound to a valued attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrOp {
    /// `-=`: subtract a positive quantity. Identity operand: 0.
    Subtract,
    /// `*=`: scale by a factor in `[0, 1]`. Identity operand: 1.
    Scale,
    /// `<=`: running minimum. Identity operand: `+∞`.
    Min,
}

impl AttrOp {
    /// The operand that leaves the accumulated value unchanged.
    pub fn identity(self) -> f64 {
        match self {
            AttrOp::Subtract => 0.0,
            AttrOp::Scale => 1.0,
            AttrOp::Min => f64::INFINITY,
        }
    }

    /// Validates an operand for this operator.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidOperand`] if the operand is outside the
    /// operator's monotone range (`Subtract`: `>= 0` finite; `Scale`:
    /// `[0, 1]`; `Min`: non-NaN).
    pub fn check_operand(self, operand: f64) -> Result<(), ModelError> {
        let ok = match self {
            AttrOp::Subtract => operand.is_finite() && operand >= 0.0,
            AttrOp::Scale => operand.is_finite() && (0.0..=1.0).contains(&operand),
            AttrOp::Min => !operand.is_nan(),
        };
        if ok {
            Ok(())
        } else {
            Err(ModelError::InvalidOperand { op: self, operand })
        }
    }

    /// Combines two accumulated aggregates of this operator.
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            AttrOp::Subtract => a + b,
            AttrOp::Scale => a * b,
            AttrOp::Min => a.min(b),
        }
    }

    /// Applies an accumulated aggregate to a base value, yielding the
    /// effective access level (clamped at zero for `Subtract`).
    pub fn apply_to_base(self, base: f64, aggregate: f64) -> f64 {
        match self {
            AttrOp::Subtract => (base - aggregate).max(0.0),
            AttrOp::Scale => base * aggregate,
            AttrOp::Min => base.min(aggregate),
        }
    }

    /// The textual operator as written in the paper (`-=`, `*=`, `<=`).
    pub fn symbol(self) -> &'static str {
        match self {
            AttrOp::Subtract => "-=",
            AttrOp::Scale => "*=",
            AttrOp::Min => "<=",
        }
    }
}

impl fmt::Display for AttrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A reference to a valued attribute: namespace, name, and its bound
/// operator, e.g. `AirNet.BW <=`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    entity: EntityId,
    name: AttrName,
    op: AttrOp,
}

impl AttrRef {
    /// Creates an attribute reference.
    pub fn new(entity: EntityId, name: AttrName, op: AttrOp) -> Self {
        AttrRef { entity, name, op }
    }

    /// The namespace-owning entity.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// The local name.
    pub fn name(&self) -> &AttrName {
        &self.name
    }

    /// The bound operator.
    pub fn op(&self) -> AttrOp {
        self.op
    }

    /// A clause setting this attribute with `operand`.
    ///
    /// # Errors
    ///
    /// See [`AttrOp::check_operand`].
    pub fn clause(&self, operand: f64) -> Result<AttrClause, ModelError> {
        AttrClause::new(self.clone(), operand)
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.entity, self.name)
    }
}

/// One `with A.attr <op>= <value>` clause on a delegation.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrClause {
    attr: AttrRef,
    operand: f64,
}

impl AttrClause {
    /// Creates a validated clause.
    ///
    /// # Errors
    ///
    /// See [`AttrOp::check_operand`].
    pub fn new(attr: AttrRef, operand: f64) -> Result<Self, ModelError> {
        attr.op().check_operand(operand)?;
        Ok(AttrClause { attr, operand })
    }

    /// The attribute being set.
    pub fn attr(&self) -> &AttrRef {
        &self.attr
    }

    /// The operand value.
    pub fn operand(&self) -> f64 {
        self.operand
    }
}

impl fmt::Display for AttrClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.attr.op(), self.operand)
    }
}

/// Accumulated attribute modulation along a delegation chain.
///
/// Fold clauses in from the object end toward the subject with
/// [`AttrAccumulator::absorb_clause`]; combine chain segments with
/// [`AttrAccumulator::absorb`]. Both are commutative and associative per
/// attribute, which is what makes bidirectional search segments
/// composable.
///
/// # Example
///
/// ```
/// use drbac_core::{AttrAccumulator, AttrName, AttrOp, AttrRef, EntityId};
/// use drbac_crypto::KeyFingerprint;
///
/// let airnet = EntityId(KeyFingerprint([1; 32]));
/// let bw = AttrRef::new(airnet, AttrName::new("BW")?, AttrOp::Min);
/// let mut acc = AttrAccumulator::new();
/// acc.absorb_clause(&bw.clause(200.0)?);
/// acc.absorb_clause(&bw.clause(100.0)?);
/// assert_eq!(acc.aggregate(&bw), Some(100.0));
/// # Ok::<(), drbac_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttrAccumulator {
    aggregates: BTreeMap<AttrRef, f64>,
}

impl AttrAccumulator {
    /// An empty accumulator (all attributes at their identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one clause.
    pub fn absorb_clause(&mut self, clause: &AttrClause) {
        let op = clause.attr().op();
        self.aggregates
            .entry(clause.attr().clone())
            .and_modify(|agg| *agg = op.combine(*agg, clause.operand()))
            .or_insert(clause.operand());
    }

    /// Absorbs every clause of another accumulator (chain composition).
    pub fn absorb(&mut self, other: &AttrAccumulator) {
        for (attr, agg) in &other.aggregates {
            let op = attr.op();
            self.aggregates
                .entry(attr.clone())
                .and_modify(|mine| *mine = op.combine(*mine, *agg))
                .or_insert(*agg);
        }
    }

    /// The aggregate for `attr`, if any clause touched it.
    pub fn aggregate(&self, attr: &AttrRef) -> Option<f64> {
        self.aggregates.get(attr).copied()
    }

    /// Effective value of `attr` given its declared `base`.
    pub fn effective(&self, attr: &AttrRef, base: f64) -> f64 {
        let agg = self.aggregate(attr).unwrap_or_else(|| attr.op().identity());
        attr.op().apply_to_base(base, agg)
    }

    /// Iterates over `(attribute, aggregate)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrRef, f64)> {
        self.aggregates.iter().map(|(a, v)| (a, *v))
    }

    /// `true` if no clause has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.aggregates.is_empty()
    }

    /// Checks every constraint, using `declarations` for base values.
    /// Attributes without a declaration use the operator's natural base
    /// (`Subtract`: 0, `Scale`: 1, `Min`: `+∞`).
    pub fn satisfies(&self, constraints: &[AttrConstraint], declarations: &DeclarationSet) -> bool {
        constraints.iter().all(|c| {
            let base = declarations
                .base(&c.attr)
                .unwrap_or_else(|| natural_base(c.attr.op()));
            self.effective(&c.attr, base) >= c.at_least
        })
    }
}

/// The base value assumed for an undeclared attribute.
fn natural_base(op: AttrOp) -> f64 {
    match op {
        AttrOp::Subtract => 0.0,
        AttrOp::Scale => 1.0,
        AttrOp::Min => f64::INFINITY,
    }
}

/// A lower-bound requirement on an attribute's effective value, used in
/// authorization queries ("at least 50 units of bandwidth").
#[derive(Debug, Clone, PartialEq)]
pub struct AttrConstraint {
    /// The constrained attribute.
    pub attr: AttrRef,
    /// Minimum acceptable effective value.
    pub at_least: f64,
}

impl AttrConstraint {
    /// Requires `attr`'s effective value to be at least `at_least`.
    pub fn at_least(attr: AttrRef, at_least: f64) -> Self {
        AttrConstraint { attr, at_least }
    }
}

impl fmt::Display for AttrConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} >= {}", self.attr, self.at_least)
    }
}

/// A namespace owner's declaration of an attribute's base value
/// (e.g. "AirNet.storage starts at 50 units").
///
/// The paper's case study applies modifiers to base quantities (storage
/// `50 − 20`, hours `60 × 0.3`); declarations are where those bases come
/// from. They are signed by the namespace owner like any credential.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrDeclaration {
    /// The declared attribute (namespace, name, operator binding).
    pub attr: AttrRef,
    /// Base value modifiers apply to.
    pub base: f64,
    /// Optional expiry.
    pub expires: Option<Timestamp>,
}

impl AttrDeclaration {
    /// Creates a declaration.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidOperand`] if `base` is not finite.
    pub fn new(attr: AttrRef, base: f64) -> Result<Self, ModelError> {
        if !base.is_finite() {
            return Err(ModelError::InvalidOperand {
                op: attr.op(),
                operand: base,
            });
        }
        Ok(AttrDeclaration {
            attr,
            base,
            expires: None,
        })
    }
}

impl Body for AttrDeclaration {
    const SIGN_TAG: &'static [u8] = b"drbac-attrdecl-v1";
    const WIRE_TAG: &'static [u8] = b"drbac-signed-attrdecl-v1";

    /// The namespace owner.
    fn signer(&self) -> EntityId {
        self.attr.entity()
    }
}

impl Expiring for AttrDeclaration {
    fn expires(&self) -> Option<Timestamp> {
        self.expires
    }
}

impl Encode for AttrDeclaration {
    fn encode(&self, w: &mut Writer) {
        self.attr.encode(w);
        w.f64(self.base);
        w.opt_u64(self.expires.map(|t| t.0));
    }
}

impl Decode for AttrDeclaration {
    /// Re-checks [`AttrDeclaration::new`]'s finite base.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let attr = AttrRef::decode(r)?;
        let base = r.f64()?;
        let expires = r.opt_u64()?.map(Timestamp);
        let mut declaration =
            AttrDeclaration::new(attr, base).map_err(|e| DecodeError::Invalid(e.to_string()))?;
        declaration.expires = expires;
        Ok(declaration)
    }
}

/// An [`AttrDeclaration`] signed by its namespace owner.
pub type SignedAttrDeclaration = Signed<AttrDeclaration>;

impl Signed<AttrDeclaration> {
    /// The declaration body.
    pub fn declaration(&self) -> &AttrDeclaration {
        self.body()
    }
}

/// A set of verified attribute declarations, keyed by attribute.
#[derive(Debug, Clone, Default)]
pub struct DeclarationSet {
    bases: BTreeMap<AttrRef, f64>,
}

impl DeclarationSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a declaration (caller is responsible for having verified
    /// it; wallets do this on publication).
    pub fn insert(&mut self, decl: &AttrDeclaration) {
        self.bases.insert(decl.attr.clone(), decl.base);
    }

    /// The declared base for `attr`, if any.
    pub fn base(&self, attr: &AttrRef) -> Option<f64> {
        self.bases.get(attr).copied()
    }

    /// Number of declarations.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// `true` if no declarations are present.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }
}

/// A human-readable summary of effective attribute values for a proof
/// (what the AirNet server computes in paper §5, step 5).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttrSummary {
    /// `(attribute, effective value)` pairs in deterministic order.
    pub values: Vec<(AttrRef, f64)>,
}

impl AttrSummary {
    /// Builds a summary from an accumulator and declarations: every
    /// attribute that is either declared or modulated appears.
    pub fn build(acc: &AttrAccumulator, decls: &DeclarationSet) -> Self {
        let mut values = BTreeMap::new();
        for (attr, base) in &decls.bases {
            values.insert(attr.clone(), acc.effective(attr, *base));
        }
        for (attr, _) in acc.iter() {
            values
                .entry(attr.clone())
                .or_insert_with(|| acc.effective(attr, natural_base(attr.op())));
        }
        AttrSummary {
            values: values.into_iter().collect(),
        }
    }

    /// The effective value for `attr`, if present.
    pub fn get(&self, attr: &AttrRef) -> Option<f64> {
        self.values.iter().find(|(a, _)| a == attr).map(|(_, v)| *v)
    }
}

impl fmt::Display for AttrSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (attr, v) in &self.values {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{attr}={v}")?;
            first = false;
        }
        if first {
            f.write_str("(no attributes)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalEntity, ValidationError};
    use drbac_crypto::{KeyFingerprint, SchnorrGroup};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ns(b: u8) -> EntityId {
        EntityId(KeyFingerprint([b; 32]))
    }

    fn attr(b: u8, name: &str, op: AttrOp) -> AttrRef {
        AttrRef::new(ns(b), AttrName::new(name).unwrap(), op)
    }

    #[test]
    fn operand_validation_per_op() {
        assert!(AttrOp::Subtract.check_operand(5.0).is_ok());
        assert!(AttrOp::Subtract.check_operand(-1.0).is_err());
        assert!(AttrOp::Subtract.check_operand(f64::INFINITY).is_err());
        assert!(AttrOp::Scale.check_operand(0.3).is_ok());
        assert!(AttrOp::Scale.check_operand(1.5).is_err());
        assert!(AttrOp::Scale.check_operand(-0.1).is_err());
        assert!(AttrOp::Min.check_operand(100.0).is_ok());
        assert!(AttrOp::Min.check_operand(f64::INFINITY).is_ok());
        assert!(AttrOp::Min.check_operand(f64::NAN).is_err());
    }

    #[test]
    fn case_study_arithmetic() {
        // Paper §5 step 5: BW = min(200, 100); storage = 50 − 20; hours = 60 × 0.3.
        let bw = attr(1, "BW", AttrOp::Min);
        let storage = attr(1, "storage", AttrOp::Subtract);
        let hours = attr(1, "hours", AttrOp::Scale);

        let mut acc = AttrAccumulator::new();
        acc.absorb_clause(&bw.clause(100.0).unwrap());
        acc.absorb_clause(&storage.clause(20.0).unwrap());
        acc.absorb_clause(&hours.clause(0.3).unwrap());

        assert_eq!(acc.effective(&bw, 200.0), 100.0);
        assert_eq!(acc.effective(&storage, 50.0), 30.0);
        assert!((acc.effective(&hours, 60.0) - 18.0).abs() < 1e-9);
    }

    #[test]
    fn subtract_clamps_at_zero() {
        let s = attr(1, "storage", AttrOp::Subtract);
        let mut acc = AttrAccumulator::new();
        acc.absorb_clause(&s.clause(80.0).unwrap());
        assert_eq!(acc.effective(&s, 50.0), 0.0);
    }

    #[test]
    fn accumulator_composition_matches_sequential() {
        let bw = attr(1, "BW", AttrOp::Min);
        let st = attr(1, "st", AttrOp::Subtract);
        let mut left = AttrAccumulator::new();
        left.absorb_clause(&bw.clause(150.0).unwrap());
        left.absorb_clause(&st.clause(5.0).unwrap());
        let mut right = AttrAccumulator::new();
        right.absorb_clause(&bw.clause(120.0).unwrap());
        right.absorb_clause(&st.clause(7.0).unwrap());

        let mut composed = left.clone();
        composed.absorb(&right);

        let mut sequential = AttrAccumulator::new();
        for c in [
            bw.clause(150.0),
            st.clause(5.0),
            bw.clause(120.0),
            st.clause(7.0),
        ] {
            sequential.absorb_clause(&c.unwrap());
        }
        assert_eq!(composed, sequential);
        assert_eq!(composed.aggregate(&bw), Some(120.0));
        assert_eq!(composed.aggregate(&st), Some(12.0));
    }

    #[test]
    fn untouched_attr_uses_identity() {
        let bw = attr(1, "BW", AttrOp::Min);
        let acc = AttrAccumulator::new();
        assert_eq!(acc.aggregate(&bw), None);
        assert_eq!(acc.effective(&bw, 200.0), 200.0);
        assert!(acc.is_empty());
    }

    #[test]
    fn constraints_with_declarations() {
        let bw = attr(1, "BW", AttrOp::Min);
        let mut decls = DeclarationSet::new();
        decls.insert(&AttrDeclaration::new(bw.clone(), 200.0).unwrap());

        let mut acc = AttrAccumulator::new();
        acc.absorb_clause(&bw.clause(100.0).unwrap());

        assert!(acc.satisfies(&[AttrConstraint::at_least(bw.clone(), 100.0)], &decls));
        assert!(!acc.satisfies(&[AttrConstraint::at_least(bw.clone(), 101.0)], &decls));
        assert!(acc.satisfies(&[], &decls));
    }

    #[test]
    fn undeclared_attrs_use_natural_base() {
        let bw = attr(1, "BW", AttrOp::Min);
        let st = attr(1, "st", AttrOp::Subtract);
        let decls = DeclarationSet::new();
        let mut acc = AttrAccumulator::new();
        acc.absorb_clause(&bw.clause(100.0).unwrap());
        // Min with no declaration: effective = aggregate itself.
        assert!(acc.satisfies(&[AttrConstraint::at_least(bw, 100.0)], &decls));
        // Subtract with no declaration: base 0, can't satisfy a positive bound.
        assert!(!acc.satisfies(&[AttrConstraint::at_least(st, 1.0)], &decls));
    }

    #[test]
    fn signed_declaration_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let airnet = LocalEntity::generate("AirNet", SchnorrGroup::test_256(), &mut rng);
        let stranger = LocalEntity::generate("Other", SchnorrGroup::test_256(), &mut rng);
        let bw = airnet.attr("BW", AttrOp::Min);
        let decl = AttrDeclaration::new(bw, 200.0).unwrap();
        // Only the namespace owner may sign.
        assert!(SignedAttrDeclaration::sign(decl.clone(), &stranger).is_err());
        let signed = SignedAttrDeclaration::sign(decl, &airnet).unwrap();
        assert!(signed.verify(Timestamp(0)).is_ok());
    }

    #[test]
    fn expired_declaration_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let airnet = LocalEntity::generate("AirNet", SchnorrGroup::test_256(), &mut rng);
        let mut decl = AttrDeclaration::new(airnet.attr("BW", AttrOp::Min), 200.0).unwrap();
        decl.expires = Some(Timestamp(10));
        let signed = SignedAttrDeclaration::sign(decl, &airnet).unwrap();
        assert!(signed.verify(Timestamp(10)).is_ok());
        assert!(matches!(
            signed.verify(Timestamp(11)),
            Err(ValidationError::Expired { .. })
        ));
    }

    #[test]
    fn summary_includes_declared_and_modulated() {
        let bw = attr(1, "BW", AttrOp::Min);
        let st = attr(1, "st", AttrOp::Subtract);
        let mut decls = DeclarationSet::new();
        decls.insert(&AttrDeclaration::new(bw.clone(), 200.0).unwrap());
        let mut acc = AttrAccumulator::new();
        acc.absorb_clause(&st.clause(5.0).unwrap());
        let summary = AttrSummary::build(&acc, &decls);
        assert_eq!(summary.get(&bw), Some(200.0));
        assert_eq!(summary.get(&st), Some(0.0)); // natural base 0, minus 5, clamped
        assert!(summary.to_string().contains("BW"));
    }

    #[test]
    fn invalid_clause_rejected() {
        let bw = attr(1, "BW", AttrOp::Scale);
        assert!(bw.clause(2.0).is_err());
        assert!(AttrDeclaration::new(bw, f64::NAN).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_op() -> impl Strategy<Value = AttrOp> {
            prop_oneof![
                Just(AttrOp::Subtract),
                Just(AttrOp::Scale),
                Just(AttrOp::Min)
            ]
        }

        fn arb_operand(op: AttrOp) -> BoxedStrategy<f64> {
            match op {
                AttrOp::Subtract => (0.0..1000.0f64).boxed(),
                AttrOp::Scale => (0.0..=1.0f64).boxed(),
                AttrOp::Min => (0.0..1000.0f64).boxed(),
            }
        }

        proptest! {
            /// Monotonicity (paper §3.2.1): absorbing another clause can
            /// never increase an effective value.
            #[test]
            fn absorbing_never_increases(
                op in arb_op(),
                base in 0.0..1000.0f64,
                operands in prop::collection::vec(0.0..1000.0f64, 1..8),
            ) {
                let a = attr(1, "x", op);
                let mut acc = AttrAccumulator::new();
                let mut last = acc.effective(&a, base);
                for raw in operands {
                    let operand = match op {
                        AttrOp::Scale => raw / 1000.0, // into [0,1]
                        _ => raw,
                    };
                    acc.absorb_clause(&a.clause(operand).unwrap());
                    let now = acc.effective(&a, base);
                    prop_assert!(now <= last + 1e-9, "effective value rose: {last} -> {now}");
                    last = now;
                }
            }

            /// Segment composition is order-insensitive per attribute.
            #[test]
            fn absorb_is_commutative(
                op in arb_op(),
                xs in prop::collection::vec(0.0..100.0f64, 1..5),
                ys in prop::collection::vec(0.0..100.0f64, 1..5),
            ) {
                let a = attr(1, "x", op);
                let build = |vals: &[f64]| {
                    let mut acc = AttrAccumulator::new();
                    for &v in vals {
                        let v = if op == AttrOp::Scale { v / 100.0 } else { v };
                        acc.absorb_clause(&a.clause(v).unwrap());
                    }
                    acc
                };
                let (l, r) = (build(&xs), build(&ys));
                let mut lr = l.clone();
                lr.absorb(&r);
                let mut rl = r.clone();
                rl.absorb(&l);
                let (va, vb) = (lr.aggregate(&a).unwrap(), rl.aggregate(&a).unwrap());
                prop_assert!((va - vb).abs() < 1e-6);
            }

            #[test]
            fn operand_validation_total(op in arb_op(), v in arb_operand(AttrOp::Min)) {
                // check_operand never panics for any finite input
                let _ = op.check_operand(v);
            }
        }
    }
}
