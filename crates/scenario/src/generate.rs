//! The generator: turns a [`ScenarioSpec`] into a deterministic world —
//! entities, a reproducible event schedule, and discovery metadata.

use std::sync::Arc;

use drbac_core::{
    AttrConstraint, AttrDeclaration, AttrOp, AttrRef, DelegationId, DiscoveryTag, LocalEntity,
    Node, SignedAttrDeclaration, SignedDelegation, SignedRevocation, SubjectFlag, Ticks, Timestamp,
};
use drbac_crypto::SchnorrGroup;
use drbac_net::Directory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::fnv64_extend;
use crate::spec::{Family, ScenarioSpec};
use crate::Oracle;

/// Tag TTL on every generated discovery tag: effectively "never expires
/// inside a soak run", so long schedules do not degrade into
/// tag-expired searches (TTL behaviour has its own dedicated tests).
const TAG_TTL: Ticks = Ticks(1_000_000);

/// One step of a scenario schedule. The runner executes these in order
/// against a federation while mirroring them into the [`Oracle`].
#[derive(Debug, Clone)]
pub enum Event {
    /// Publish `cert` at the org wallet `home` (always the *subject's*
    /// home — the paper's storage discipline, and the §4.2.1 condition
    /// for forward-search completeness).
    Publish {
        /// Index of the org wallet storing the credential.
        home: usize,
        /// The signed delegation (self-certified: issuer owns the
        /// object namespace, so no support proofs are needed).
        cert: Arc<SignedDelegation>,
    },
    /// Publish a valued-attribute declaration at org wallet `home`.
    Declare {
        /// Index of the org wallet holding the declaration.
        home: usize,
        /// The signed ceiling declaration.
        decl: SignedAttrDeclaration,
    },
    /// Revoke delegation `id` at the wallet that stores it.
    Revoke {
        /// Index of the org wallet storing the credential.
        home: usize,
        /// Id of the delegation being revoked.
        id: DelegationId,
        /// The issuer-signed revocation certificate.
        revocation: SignedRevocation,
    },
    /// Run a discovery query and compare it against the oracle.
    Query(QuerySpec),
}

/// A single ground-truth-checked discovery query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Query subject (a user entity or a role).
    pub subject: Node,
    /// Query object (always a role).
    pub object: Node,
    /// Attribute constraints, if any.
    pub constraints: Vec<AttrConstraint>,
    /// Whether the decision must match the oracle exactly.
    /// Unconstrained queries are strict; constrained ones are checked
    /// for soundness only, because distributed constrained search picks
    /// segments greedily and may miss a satisfying path.
    pub strict: bool,
}

/// A generated world: entities, the schedule, and derived metadata.
/// Everything is a pure function of the [`ScenarioSpec`].
#[derive(Debug)]
pub struct Scenario {
    /// The spec this world was generated from.
    pub spec: ScenarioSpec,
    /// Org entities; org `i` owns wallet [`Scenario::wallet_addr`]`(i)`.
    pub orgs: Vec<LocalEntity>,
    /// User entities, homed at org `u % orgs`.
    pub users: Vec<LocalEntity>,
    /// The reproducible event schedule.
    pub schedule: Vec<Event>,
    /// The valued attribute used by attribute-carrying families.
    pub attr: Option<AttrRef>,
}

impl Scenario {
    /// Number of org wallets in the federation.
    pub fn wallets(&self) -> usize {
        self.spec.scale.orgs
    }

    /// Logical wallet address of org `i`.
    pub fn wallet_addr(i: usize) -> String {
        format!("fed.org{i}")
    }

    /// Home org of user `u` (round-robin assignment).
    pub fn user_home(&self, u: usize) -> usize {
        u % self.spec.scale.orgs
    }

    /// The org wallet that stores credentials whose subject is `node`:
    /// a user's home org for entities, the namespace owner for roles.
    pub fn home_of(&self, node: &Node) -> usize {
        match node {
            Node::Entity(id) => {
                if let Some(u) = self.users.iter().position(|u| u.id() == *id) {
                    self.user_home(u)
                } else {
                    self.orgs.iter().position(|o| o.id() == *id).unwrap_or(0)
                }
            }
            other => self
                .orgs
                .iter()
                .position(|o| o.id() == other.namespace())
                .expect("role objects belong to scenario orgs"),
        }
    }

    /// The `S`-flagged discovery tag pointing at org wallet `i`.
    pub fn tag(i: usize) -> DiscoveryTag {
        DiscoveryTag::new(Self::wallet_addr(i).as_str())
            .with_ttl(TAG_TTL)
            .with_subject_flag(SubjectFlag::Search)
    }

    /// The discovery directory an agent starts from: each org entity's
    /// home plus each user's home.
    pub fn directory(&self) -> Directory {
        let mut dir = Directory::new();
        for (i, org) in self.orgs.iter().enumerate() {
            dir.register_entity(org.id(), Self::tag(i));
        }
        for (u, user) in self.users.iter().enumerate() {
            dir.register(Node::entity(user), Self::tag(self.user_home(u)));
        }
        dir
    }

    /// Event counts `(publishes, declarations, revocations, queries)`.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for ev in &self.schedule {
            match ev {
                Event::Publish { .. } => c.0 += 1,
                Event::Declare { .. } => c.1 += 1,
                Event::Revoke { .. } => c.2 += 1,
                Event::Query(_) => c.3 += 1,
            }
        }
        c
    }

    /// FNV-1a digest of the schedule: event kinds, credential ids and
    /// wire bytes, query endpoints. Two generations of the same spec
    /// must produce equal fingerprints (see the determinism tests).
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for ev in &self.schedule {
            match ev {
                Event::Publish { home, cert } => {
                    h = fnv64_extend(h, &[0, *home as u8]);
                    h = fnv64_extend(h, &cert.id().0);
                }
                Event::Declare { home, decl } => {
                    h = fnv64_extend(h, &[1, *home as u8]);
                    h = fnv64_extend(h, &decl.to_bytes());
                }
                Event::Revoke { home, id, .. } => {
                    h = fnv64_extend(h, &[2, *home as u8]);
                    h = fnv64_extend(h, &id.0);
                }
                Event::Query(q) => {
                    h = fnv64_extend(h, &[3, u8::from(q.strict)]);
                    h = fnv64_extend(
                        h,
                        format!("{}=>{}{:?}", q.subject, q.object, q.constraints).as_bytes(),
                    );
                }
            }
        }
        h
    }

    /// FNV-1a digest of the oracle's answers over the schedule: the
    /// ground-truth decision (and proof bytes) for every query, taken
    /// at its position in the schedule. Pins the oracle side of the
    /// determinism contract.
    pub fn oracle_fingerprint(&self) -> u64 {
        let mut oracle = Oracle::new();
        let mut h = 0xcbf2_9ce4_8422_2325;
        for ev in &self.schedule {
            oracle.apply(ev);
            if let Event::Query(q) = ev {
                match oracle.answer(q) {
                    Some(proof) => {
                        h = fnv64_extend(h, &[1]);
                        h = fnv64_extend(h, &proof.to_bytes());
                    }
                    None => h = fnv64_extend(h, &[0]),
                }
            }
        }
        h
    }
}

/// Generation state shared by the family builders.
struct Gen {
    spec: ScenarioSpec,
    orgs: Vec<LocalEntity>,
    users: Vec<LocalEntity>,
    schedule: Vec<Event>,
    rng: StdRng,
    serial: u64,
}

impl Gen {
    fn new(spec: &ScenarioSpec) -> Gen {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ spec.family.salt());
        let group = SchnorrGroup::test_256();
        let orgs = (0..spec.scale.orgs)
            .map(|i| LocalEntity::generate(format!("Org{i}"), group.clone(), &mut rng))
            .collect();
        let users = (0..spec.scale.users)
            .map(|i| LocalEntity::generate(format!("U{i}"), group.clone(), &mut rng))
            .collect();
        Gen {
            spec: *spec,
            orgs,
            users,
            schedule: Vec::new(),
            rng,
            serial: 0,
        }
    }

    fn scenario_view(&self) -> Scenario {
        // A transient view for home_of; entities are cheap Arc clones.
        Scenario {
            spec: self.spec,
            orgs: self.orgs.clone(),
            users: self.users.clone(),
            schedule: Vec::new(),
            attr: None,
        }
    }

    fn home_of(&self, node: &Node) -> usize {
        self.scenario_view().home_of(node)
    }

    fn role(&self, org: usize, r: usize) -> Node {
        Node::role(self.orgs[org].role(&format!("r{r}")))
    }

    /// Signs `[subject -> object] owner(object)` with subject/object
    /// tags pointing at the nodes' home wallets, and the transitive-trust
    /// limit `<depth: limit>` if one is given.
    fn delegate(
        &mut self,
        subject: Node,
        object: Node,
        attr: Option<(AttrRef, f64)>,
        limit: Option<u64>,
    ) -> Arc<SignedDelegation> {
        let issuer = self
            .orgs
            .iter()
            .position(|o| o.id() == object.namespace())
            .expect("objects are org roles");
        let serial = self.serial;
        self.serial += 1;
        let mut b = self.orgs[issuer]
            .delegate(subject.clone(), object.clone())
            .serial(serial)
            .subject_tag(Scenario::tag(self.home_of(&subject)))
            .object_tag(Scenario::tag(self.home_of(&object)));
        if let Some((a, v)) = attr {
            b = b.with_attr(a, v).expect("attr clause on issuer namespace");
        }
        if let Some(depth) = limit {
            b = b.max_extension_depth(depth);
        }
        Arc::new(b.sign(&self.orgs[issuer]).expect("delegation signs"))
    }

    /// Emits a publish of `[subject -> object]` and returns the cert.
    fn publish(
        &mut self,
        subject: Node,
        object: Node,
        attr: Option<(AttrRef, f64)>,
    ) -> Option<Arc<SignedDelegation>> {
        self.publish_limited(subject, object, attr, None)
    }

    /// As [`Gen::publish`], with a transitive-trust limit.
    fn publish_limited(
        &mut self,
        subject: Node,
        object: Node,
        attr: Option<(AttrRef, f64)>,
        limit: Option<u64>,
    ) -> Option<Arc<SignedDelegation>> {
        if subject == object {
            return None;
        }
        let cert = self.delegate(subject.clone(), object, attr, limit);
        self.schedule.push(Event::Publish {
            home: self.home_of(&subject),
            cert: Arc::clone(&cert),
        });
        Some(cert)
    }

    /// Emits a revocation of `cert`, signed by its issuing org.
    fn revoke(&mut self, cert: &Arc<SignedDelegation>) {
        let issuer = self
            .orgs
            .iter()
            .find(|o| o.id() == cert.delegation().issuer())
            .expect("issuers are scenario orgs");
        let revocation =
            SignedRevocation::revoke(cert, issuer, Timestamp(0)).expect("revocation signs");
        self.schedule.push(Event::Revoke {
            home: self.home_of(cert.delegation().subject()),
            id: cert.id(),
            revocation,
        });
    }

    fn query(&mut self, subject: Node, object: Node) {
        self.schedule.push(Event::Query(QuerySpec {
            subject,
            object,
            constraints: Vec::new(),
            strict: true,
        }));
    }

    fn query_constrained(&mut self, subject: Node, object: Node, c: AttrConstraint) {
        self.schedule.push(Event::Query(QuerySpec {
            subject,
            object,
            constraints: vec![c],
            strict: false,
        }));
    }

    fn finish(self, attr: Option<AttrRef>) -> Scenario {
        Scenario {
            spec: self.spec,
            orgs: self.orgs,
            users: self.users,
            schedule: self.schedule,
            attr,
        }
    }
}

/// Generates the world for `spec`. Pure: same spec, same world.
pub(crate) fn generate(spec: &ScenarioSpec) -> Scenario {
    let mut g = Gen::new(spec);
    match spec.family {
        Family::DeepLadder => deep_ladder(&mut g),
        Family::WideFanout => wide_fanout(&mut g),
        Family::CrossFederation => cross_federation(&mut g),
        Family::AttributeChain => return attribute_chain(g),
        Family::Churn => churn(&mut g),
        Family::RevocationStorm => revocation_storm(&mut g),
        Family::FlashCrowd => flash_crowd(&mut g),
    }
    g.finish(None)
}

/// Ladder depth for the delegation budget: at least 2 rungs, capped so
/// discovery stays inside its hop budget.
fn ladder_depth(g: &Gen) -> usize {
    (g.spec.scale.delegations / g.spec.scale.users.max(1)).clamp(2, 8)
}

/// Rung `d` of user `u`'s ladder: a role in org `(u + d) % orgs`.
fn ladder_rung(g: &Gen, u: usize, d: usize) -> Node {
    let orgs = g.spec.scale.orgs;
    g.role((u + d) % orgs, d % g.spec.scale.roles_per_org)
}

/// The transitive-trust limit (§6, `<depth: N>`) on the delegation into
/// rung `d` of user `u`'s ladder. It depends only on the rung role
/// `(org, r)`, which is entered only from role `(org - 1, r - 1)`: every
/// ladder's copy of that delegation carries the same limit, so which
/// copy a remote query returns cannot change a decision. Ladders that
/// share rung roles reach the delegation at positions a whole number of
/// laps (`roles_per_org` rungs) apart. By the rung's org, mod 3:
///
/// * 1: `<depth: lap>`, where `lap` (1..=roles) is the rung's position
///   within its lap. A ladder that reaches the rung on its first lap
///   is granted; one that reaches it a lap later is refused;
/// * 2: `<depth: 0>`. No ladder can extend it, so its rung and every
///   rung above it are denied;
/// * 0: no limit.
///
/// A user's own enrolment (`d = 0`) is never limited.
fn rung_limit(g: &Gen, u: usize, d: usize) -> Option<u64> {
    let lap = (d.checked_sub(1)? % g.spec.scale.roles_per_org + 1) as u64;
    match (u + d) % g.spec.scale.orgs % 3 {
        1 => Some(lap),
        2 => Some(0),
        _ => None,
    }
}

fn deep_ladder(g: &mut Gen) {
    let depth = ladder_depth(g);
    for u in 0..g.spec.scale.users {
        let mut prev = Node::entity(&g.users[u]);
        for d in 0..depth {
            let rung = ladder_rung(g, u, d);
            let limit = rung_limit(g, u, d);
            if g.publish_limited(prev.clone(), rung.clone(), None, limit)
                .is_some()
            {
                prev = rung;
            }
        }
    }
    for q in 0..g.spec.scale.queries {
        let u = g.rng.gen_range(0..g.spec.scale.users);
        if q % 4 == 3 {
            // A rung the ladder never reaches directly — oracle decides
            // (usually a denial unless another user's ladder covers it).
            let org = g.rng.gen_range(0..g.spec.scale.orgs);
            let r = g.rng.gen_range(0..g.spec.scale.roles_per_org);
            let target = g.role(org, r);
            g.query(Node::entity(&g.users[u]), target);
        } else {
            let d = g.rng.gen_range(0..depth);
            let target = ladder_rung(g, u, d);
            g.query(Node::entity(&g.users[u]), target);
        }
    }
}

fn wide_fanout(g: &mut Gen) {
    let orgs = g.spec.scale.orgs;
    // r0 of each org is its hub; every user joins their home hub.
    for u in 0..g.spec.scale.users {
        let hub = g.role(u % orgs, 0);
        g.publish(Node::entity(&g.users[u]), hub, None);
    }
    let fanout = g.spec.scale.delegations.saturating_sub(g.spec.scale.users);
    for k in 0..fanout {
        let src = g.role(k % orgs, 0);
        let dst_org = g.rng.gen_range(0..orgs);
        let dst_r = 1 + g
            .rng
            .gen_range(0..g.spec.scale.roles_per_org.saturating_sub(1).max(1));
        let dst = g.role(dst_org, dst_r.min(g.spec.scale.roles_per_org - 1));
        g.publish(src, dst, None);
    }
    for _ in 0..g.spec.scale.queries {
        let u = g.rng.gen_range(0..g.spec.scale.users);
        let org = g.rng.gen_range(0..orgs);
        let r = g.rng.gen_range(0..g.spec.scale.roles_per_org);
        let target = g.role(org, r);
        g.query(Node::entity(&g.users[u]), target);
    }
}

fn cross_federation(g: &mut Gen) {
    let orgs = g.spec.scale.orgs;
    let half = (orgs / 2).max(1);
    let fed_a: Vec<usize> = (0..half).collect();
    let fed_b: Vec<usize> = (half..orgs).collect();
    // Every user joins the anchor (r0) of their home org.
    for u in 0..g.spec.scale.users {
        let anchor = g.role(u % orgs, 0);
        g.publish(Node::entity(&g.users[u]), anchor, None);
    }
    // Ring of anchors inside each federation: every anchor reaches
    // every other anchor of its own side.
    for fed in [&fed_a, &fed_b] {
        for (i, &o) in fed.iter().enumerate() {
            let next = fed[(i + 1) % fed.len()];
            if next != o {
                let (src, dst) = (g.role(o, 0), g.role(next, 0));
                g.publish(src, dst, None);
            }
        }
    }
    // Bridges: B-side anchors reach A-side anchors, never the reverse.
    let bridges = (orgs / 4).max(1);
    for _ in 0..bridges {
        let from = fed_b[g.rng.gen_range(0..fed_b.len())];
        let to = fed_a[g.rng.gen_range(0..fed_a.len())];
        let (src, dst) = (g.role(from, 0), g.role(to, 0));
        g.publish(src, dst, None);
    }
    // Spend the remaining budget on per-org leaf roles off the anchor.
    let spent = g.spec.scale.users + orgs + bridges;
    for k in 0..g.spec.scale.delegations.saturating_sub(spent) {
        let org = k % orgs;
        if g.spec.scale.roles_per_org > 1 {
            let leaf = g.role(org, 1 + k % (g.spec.scale.roles_per_org - 1));
            let anchor = g.role(org, 0);
            g.publish(anchor, leaf, None);
        }
    }
    for q in 0..g.spec.scale.queries {
        let u = g.rng.gen_range(0..g.spec.scale.users);
        // Alternate: cross-federation probes (both directions — only
        // B→A can succeed) and local probes.
        let org = match q % 3 {
            0 => fed_a[g.rng.gen_range(0..fed_a.len())],
            1 => fed_b[g.rng.gen_range(0..fed_b.len())],
            _ => g.rng.gen_range(0..orgs),
        };
        let r = g.rng.gen_range(0..g.spec.scale.roles_per_org);
        let target = g.role(org, r);
        g.query(Node::entity(&g.users[u]), target);
    }
}

fn attribute_chain(mut g: Gen) -> Scenario {
    let bw = g.orgs[0].attr("bw", AttrOp::Min);
    let decl = SignedAttrDeclaration::sign(
        AttrDeclaration::new(bw.clone(), 1000.0).expect("declaration builds"),
        &g.orgs[0],
    )
    .expect("declaration signs");
    g.schedule.push(Event::Declare { home: 0, decl });

    let depth = ladder_depth(&g);
    for u in 0..g.spec.scale.users {
        let mut prev = Node::entity(&g.users[u]);
        for d in 0..depth {
            let rung = ladder_rung(&g, u, d);
            // Attribute clauses only on the attr owner's own
            // delegations (org0's namespace) — foreign clauses would
            // need attr-admin supports, deliberately out of scope.
            let attr = if rung.namespace() == g.orgs[0].id() {
                let v = g.rng.gen_range(1.0..100.0);
                Some((bw.clone(), v))
            } else {
                None
            };
            if g.publish(prev.clone(), rung.clone(), attr).is_some() {
                prev = rung;
            }
        }
    }
    for q in 0..g.spec.scale.queries {
        let u = g.rng.gen_range(0..g.spec.scale.users);
        let d = g.rng.gen_range(0..depth);
        let target = ladder_rung(&g, u, d);
        let subject = Node::entity(&g.users[u]);
        if q % 2 == 0 {
            g.query(subject, target);
        } else {
            let threshold = [10.0, 50.0, 90.0][q % 3];
            g.query_constrained(
                subject,
                target,
                AttrConstraint::at_least(bw.clone(), threshold),
            );
        }
    }
    g.finish(Some(bw))
}

/// A random mesh edge: subject drawn from users + roles, object a role.
fn mesh_edge(g: &mut Gen) -> (Node, Node) {
    let n_users = g.spec.scale.users;
    let n_roles = g.spec.scale.orgs * g.spec.scale.roles_per_org;
    let s = g.rng.gen_range(0..n_users + n_roles);
    let subject = if s < n_users {
        Node::entity(&g.users[s])
    } else {
        let r = s - n_users;
        g.role(
            r / g.spec.scale.roles_per_org,
            r % g.spec.scale.roles_per_org,
        )
    };
    let o = g.rng.gen_range(0..n_roles);
    let object = g.role(
        o / g.spec.scale.roles_per_org,
        o % g.spec.scale.roles_per_org,
    );
    (subject, object)
}

fn random_query(g: &mut Gen) {
    let u = g.rng.gen_range(0..g.spec.scale.users);
    let org = g.rng.gen_range(0..g.spec.scale.orgs);
    let r = g.rng.gen_range(0..g.spec.scale.roles_per_org);
    let target = g.role(org, r);
    g.query(Node::entity(&g.users[u]), target);
}

fn churn(g: &mut Gen) {
    let users = g.spec.scale.users;
    let leavers = users / 3;
    let joiners = users / 3;
    let initial_users = users - joiners;
    // Initial mesh over the founding members.
    let mut by_subject: Vec<Vec<Arc<SignedDelegation>>> = vec![Vec::new(); users];
    let initial = g.spec.scale.delegations * 2 / 3;
    for _ in 0..initial {
        let (mut subject, object) = mesh_edge(g);
        // Founding members only; joiners arrive later.
        if let Node::Entity(id) = &subject {
            if let Some(u) = g.users.iter().position(|x| x.id() == *id) {
                let founder = u % initial_users.max(1);
                subject = Node::entity(&g.users[founder]);
            }
        }
        if let Some(cert) = g.publish(subject.clone(), object, None) {
            if let Node::Entity(id) = &subject {
                if let Some(u) = g.users.iter().position(|x| x.id() == *id) {
                    by_subject[u].push(cert);
                }
            }
        }
    }
    let q3 = g.spec.scale.queries / 3;
    for _ in 0..q3 {
        random_query(g);
    }
    // Leave wave: the first `leavers` members lose every credential.
    for member in by_subject.iter().take(leavers).cloned().collect::<Vec<_>>() {
        for cert in member {
            g.revoke(&cert);
        }
    }
    // Join wave: the withheld members enroll now.
    let join_budget = g.spec.scale.delegations - initial;
    for k in 0..join_budget {
        let u = initial_users + k % joiners.max(1);
        if u < users {
            let org = g.rng.gen_range(0..g.spec.scale.orgs);
            let r = g.rng.gen_range(0..g.spec.scale.roles_per_org);
            let (subject, object) = (Node::entity(&g.users[u]), g.role(org, r));
            g.publish(subject, object, None);
        }
    }
    // Post-churn probes: leavers (expect denials unless another path
    // survives), joiners, and stayers — the oracle arbitrates all.
    for q in 0..g.spec.scale.queries - q3 {
        let u = match q % 3 {
            0 if leavers > 0 => q % leavers,
            1 if joiners > 0 => initial_users + q % joiners,
            _ => g.rng.gen_range(0..users),
        };
        let org = g.rng.gen_range(0..g.spec.scale.orgs);
        let r = g.rng.gen_range(0..g.spec.scale.roles_per_org);
        let target = g.role(org, r);
        g.query(Node::entity(&g.users[u]), target);
    }
}

fn revocation_storm(g: &mut Gen) {
    let mut certs = Vec::new();
    for _ in 0..g.spec.scale.delegations {
        let (subject, object) = mesh_edge(g);
        if let Some(cert) = g.publish(subject, object, None) {
            certs.push(cert);
        }
    }
    // Pre-storm queries establish monitors the storm must terminate.
    for _ in 0..g.spec.scale.queries / 2 {
        random_query(g);
    }
    // The storm: ~40% of every delegation, in one burst.
    for cert in certs.clone() {
        if g.rng.gen_bool(0.4) {
            g.revoke(&cert);
        }
    }
    for _ in 0..g.spec.scale.queries - g.spec.scale.queries / 2 {
        random_query(g);
    }
}

fn flash_crowd(g: &mut Gen) {
    // A compact world: short ladders from a few hot users.
    let depth = 3.min(ladder_depth(g));
    let hot_users = g.spec.scale.users.min(3);
    for u in 0..g.spec.scale.users {
        let mut prev = Node::entity(&g.users[u]);
        for d in 0..depth {
            let rung = ladder_rung(g, u, d);
            if g.publish(prev.clone(), rung.clone(), None).is_some() {
                prev = rung;
            }
        }
    }
    // Hot pairs: each hot user against the top of their own ladder.
    let hot: Vec<(Node, Node)> = (0..hot_users)
        .map(|u| (Node::entity(&g.users[u]), ladder_rung(g, u, depth - 1)))
        .collect();
    for q in 0..g.spec.scale.queries {
        if q % 5 < 4 {
            // Bursts: 80% of traffic on the hot set, consecutively.
            let (s, o) = hot[(q / 5) % hot.len()].clone();
            g.query(s, o);
        } else {
            random_query(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scale;

    /// Own-ladder queries (a user asking for a rung of their own ladder)
    /// of a deep-ladder world, by the oracle's decision.
    #[derive(Default)]
    struct OwnLadder {
        /// Grants whose proof uses a credential at exactly its limit.
        granted_at_limit: usize,
        /// An unlimited ladder reaches every one of its own rungs, so
        /// each of these denials is a limit's.
        denied: usize,
    }

    fn own_ladder_decisions(spec: &ScenarioSpec) -> OwnLadder {
        let scenario = spec.generate();
        let g = Gen::new(spec);
        let ladders: Vec<Vec<Node>> = (0..spec.scale.users)
            .map(|u| {
                (0..ladder_depth(&g))
                    .map(|d| ladder_rung(&g, u, d))
                    .collect()
            })
            .collect();
        let mut oracle = Oracle::new();
        let mut out = OwnLadder::default();
        for ev in &scenario.schedule {
            oracle.apply(ev);
            let Event::Query(q) = ev else { continue };
            let u = scenario
                .users
                .iter()
                .position(|u| Node::entity(u) == q.subject);
            if !u.is_some_and(|u| ladders[u].contains(&q.object)) {
                continue;
            }
            let Some(proof) = oracle.answer(q) else {
                out.denied += 1;
                continue;
            };
            let at_limit = proof.steps().iter().enumerate().any(|(pos, step)| {
                step.cert().delegation().max_extension_depth() == Some(pos as u64)
            });
            out.granted_at_limit += usize::from(at_limit);
        }
        out
    }

    #[test]
    fn depth_limits_deny_some_own_ladder_queries_and_grant_others() {
        for scale in [Scale::smoke(), Scale::federation(100)] {
            for seed in [1, 2, 3] {
                let spec = ScenarioSpec::new(Family::DeepLadder, seed).with_scale(scale);
                let own = own_ladder_decisions(&spec);
                assert!(own.denied > 0, "{scale:?}/{seed}: no own-ladder denial");
                assert!(
                    own.granted_at_limit > 0,
                    "{scale:?}/{seed}: no own-ladder grant at a credential's limit"
                );
            }
        }
    }
}
