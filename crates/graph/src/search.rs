//! Chain search over the delegation graph: the three wallet query forms
//! (§4.1) with monotonicity-based pruning (§4.2.3).
//!
//! One sequential engine over the one store, [`DelegationGraph`]. A
//! search reads the graph through short per-call shard locks, so it can
//! overlap with writers and with other searches; it never holds a lock
//! across steps. Two structural choices keep the cold path
//! allocation-light:
//!
//! * **Interned ids.** Nodes are dense `u32` ids from the graph-owned
//!   intern table; frontier dedup, result keying, and edge-endpoint
//!   comparisons are integer ops, never `Node` hashing or cloning.
//! * **Parent-pointer proofs.** Reached states form an arena; each state
//!   records only `(predecessor, step)`. Full [`Proof`]s are materialized
//!   once, for final answers, by walking the predecessor chain — the old
//!   per-edge clone-and-concat of whole proofs (O(depth²) per path) is
//!   gone.
//!
//! Expanding a state is two passes: [`Engine::expand_state`] turns its
//! edges into candidates (constraint pruning, a first dominance check,
//! transitive-trust limits, support resolution), then [`Engine::merge`]
//! admits them to the frontier in edge order, re-checking dominance
//! against siblings admitted just before. `reference.rs` holds the
//! original engine as the oracle this one is compared against.

use std::collections::VecDeque;
use std::sync::Arc;

use drbac_core::{
    AttrAccumulator, AttrConstraint, AttrOp, AttrRef, DeclarationSet, DelegationId, EntityId, Node,
    Proof, ProofStep, SignedDelegation, Timestamp,
};

use crate::intern::{FastMap, FastSet, NodeId};
use crate::DelegationGraph;

/// Sentinel predecessor index of the root state.
const NO_PRED: u32 = u32::MAX;

/// Parameters of a graph search.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Logical time (expiry filtering).
    pub now: Timestamp,
    /// Attribute constraints the resulting proof must satisfy.
    pub constraints: Vec<AttrConstraint>,
    /// Maximum primary-chain length (default 64).
    pub max_depth: usize,
    /// Prune branches whose accumulated attributes already violate the
    /// constraints (§4.2.3). Sound because accumulation is monotone;
    /// disable only to measure the pruning benefit.
    pub prune_by_constraints: bool,
    /// Depth limit for recursive support-proof resolution (default 8).
    pub max_support_depth: usize,
}

impl SearchOptions {
    /// Defaults at logical time `now`: no constraints, pruning enabled.
    pub fn at(now: Timestamp) -> Self {
        SearchOptions {
            now,
            constraints: Vec::new(),
            max_depth: 64,
            prune_by_constraints: true,
            max_support_depth: 8,
        }
    }

    /// Adds a constraint.
    pub fn with_constraint(mut self, c: AttrConstraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Disables constraint pruning (for measurement).
    pub fn without_pruning(mut self) -> Self {
        self.prune_by_constraints = false;
        self
    }

    /// Sets the primary-chain depth limit.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }
}

/// Work counters from one search, for the efficiency experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// States dequeued and expanded.
    pub nodes_expanded: usize,
    /// Edges (delegations) examined during expansion.
    pub edges_considered: usize,
    /// States enqueued (after pruning/dominance filtering).
    pub states_enqueued: usize,
    /// Recursive support-proof searches performed (not counting provided
    /// supports).
    pub support_resolutions: usize,
}

impl SearchStats {
    /// Adds another stats record into this one.
    pub fn absorb(&mut self, other: SearchStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.edges_considered += other.edges_considered;
        self.states_enqueued += other.states_enqueued;
        self.support_resolutions += other.support_resolutions;
    }
}

/// Search direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    Forward,
    Reverse,
}

pub(crate) struct Engine<'g> {
    graph: &'g DelegationGraph,
    opts: &'g SearchOptions,
    /// The store's declaration set as of the search's start, shared.
    decls: Arc<DeclarationSet>,
    stats: SearchStats,
}

/// One reached search state in the arena: the interned node, the
/// predecessor state, and the proof step that got here. A full [`Proof`]
/// exists only after [`materialize`] walks the predecessor chain.
struct StateRec {
    node: NodeId,
    /// Arena index of the predecessor ([`NO_PRED`] for the root).
    pred: u32,
    /// The step taken into this state (`None` for the root).
    step: Option<ProofStep>,
    /// Primary-chain length so far.
    depth: u32,
    /// Transitive-trust slack of a reverse chain: the minimum over its
    /// steps of `max_extension_depth - position` (`u64::MAX` = unlimited;
    /// forward search does not track it). Updated in O(1) per edge; a
    /// reverse prepend shifts every position, which is exactly a
    /// decrement of the whole minimum.
    slack: u64,
    /// Attribute accumulation in discovery order (used for pruning and
    /// dominance, exactly as the pre-interning engine did).
    acc: AttrAccumulator,
}

/// One edge's expansion, produced by [`Engine::expand_state`] and
/// consumed by [`Engine::merge`]. Note what is *not* here: no cloned
/// proof — the merge links the candidate to its parent state by index.
struct Candidate {
    far: NodeId,
    step: ProofStep,
    acc: AttrAccumulator,
    /// Effective values per constraint (the frontier's comparison key).
    vals: Box<[f64]>,
    slack: u64,
    satisfies: bool,
}

/// Pareto frontier of arrivals seen per node. An arrival is dominated by
/// an earlier one with at least its effective value under every
/// constraint and — in reverse search — at least its transitive-trust
/// slack: a reverse prepend shifts every position, so an arrival with
/// less slack can be extended less far. (Forward appends never shift
/// earlier steps, and breadth-first order reaches a node first by its
/// shortest prefix, so forward search ignores slack.) Unconstrained
/// forward searches degrade to a plain visited set. Entries are kept
/// sorted descending by first component, so a dominance probe
/// early-exits at the first entry that can no longer dominate —
/// replacing the old linear scan over full accumulators that degraded
/// quadratically on attribute-heavy fanout.
struct Frontier {
    /// `(attr, base)` per constraint, precomputed once per search.
    bases: Vec<(AttrRef, f64)>,
    /// Whether arrivals differ in slack (reverse search; every forward
    /// arrival carries `u64::MAX`).
    by_slack: bool,
    seen: FastMap<NodeId, Vec<Arrival>>,
}

/// An admitted arrival: its effective value per constraint, and its slack.
type Arrival = (Box<[f64]>, u64);

impl Frontier {
    fn new(constraints: &[AttrConstraint], decls: &DeclarationSet, dir: Direction) -> Self {
        let bases = constraints
            .iter()
            .map(|c| {
                let base = decls
                    .base(&c.attr)
                    .unwrap_or_else(|| natural_base(c.attr.op()));
                (c.attr.clone(), base)
            })
            .collect();
        Frontier {
            bases,
            by_slack: dir == Direction::Reverse,
            seen: FastMap::default(),
        }
    }

    /// The effective value of `acc` under every constrained attribute.
    fn vals(&self, acc: &AttrAccumulator) -> Box<[f64]> {
        self.bases
            .iter()
            .map(|(attr, base)| acc.effective(attr, *base))
            .collect()
    }

    /// `true` if a previously admitted arrival dominates `(vals, slack)`
    /// at `node`. Sound to ask early, before the state's sibling
    /// candidates are admitted: admitted entries are only ever displaced
    /// by entries that dominate them, so "dominated once" stays true
    /// forever.
    fn is_dominated(&self, node: NodeId, vals: &[f64], slack: u64) -> bool {
        let Some(entries) = self.seen.get(&node) else {
            return false;
        };
        if self.bases.is_empty() && !self.by_slack {
            return true; // visited-set semantics
        }
        for (entry, entry_slack) in entries {
            if vals.first().is_some_and(|v| entry[0] < *v) {
                break; // sorted descending: nothing further can dominate
            }
            if *entry_slack >= slack && entry.iter().zip(vals).all(|(a, b)| a >= b) {
                return true;
            }
        }
        false
    }

    /// Admits `(vals, slack)` at `node`, evicting entries it dominates.
    /// Only called after [`Frontier::is_dominated`] returned `false`.
    fn admit(&mut self, node: NodeId, vals: Box<[f64]>, slack: u64) {
        let visited_set = self.bases.is_empty() && !self.by_slack;
        let entries = self.seen.entry(node).or_default();
        if visited_set {
            return; // key presence is the whole visited mark
        }
        let first = vals.first().copied().unwrap_or(0.0);
        let head = |e: &Arrival| e.0.first().copied().unwrap_or(0.0);
        // Entries with a larger first component cannot be dominated by
        // `vals`; only the tail needs filtering.
        let keep = entries.partition_point(|e| head(e) > first);
        let tail = entries.split_off(keep);
        entries.extend(
            tail.into_iter()
                .filter(|(e, s)| !(slack >= *s && vals.iter().zip(e.iter()).all(|(a, b)| a >= b))),
        );
        let pos = entries.partition_point(|e| head(e) >= first);
        entries.insert(pos, (vals, slack));
    }
}

/// Materializes the proof reaching `arena[idx]` by walking predecessor
/// links. Forward chains are collected object-end first and reversed;
/// reverse chains come out already in subject→object order.
fn materialize(arena: &[StateRec], idx: u32, dir: Direction, start: &Node) -> Proof {
    let mut steps = Vec::new();
    let mut cur = idx as usize;
    while let Some(step) = &arena[cur].step {
        steps.push(step.clone());
        cur = arena[cur].pred as usize;
    }
    if steps.is_empty() {
        return Proof::trivial(start.clone());
    }
    if matches!(dir, Direction::Forward) {
        steps.reverse();
    }
    Proof::from_steps(steps).expect("linked by construction")
}

/// Deterministic multi-proof ordering: chain length first (shortest
/// proofs lead), then the proof's full delegation-id set, then the far
/// endpoint as a tiebreak. Independent of hash-map iteration order and
/// shard count, so oracle tests and benches are stable.
pub(crate) fn order_key(p: &Proof, endpoint: &Node) -> (usize, Vec<DelegationId>, String) {
    let ids: Vec<DelegationId> = p.delegation_ids().into_iter().collect();
    (p.chain_len(), ids, endpoint.to_string())
}

impl DelegationGraph {
    /// Direct query (§4.1): does a proof `subject ⇒ object` exist that
    /// satisfies the constraints? Returns the first one found
    /// (breadth-first, so minimal chain length) and the search work done.
    pub fn direct_query(
        &self,
        subject: &Node,
        object: &Node,
        opts: &SearchOptions,
    ) -> (Option<Proof>, SearchStats) {
        let start = std::time::Instant::now();
        let mut engine = Engine::new(self, opts);
        let (arena, results) = engine.search(subject, Some(object), Direction::Forward);
        let found = self
            .interner
            .get(object)
            .and_then(|id| results.get(&id).copied())
            .map(|idx| materialize(&arena, idx, Direction::Forward, subject));
        drbac_obs::static_histogram!("drbac.graph.search.direct.ns")
            .record(start.elapsed().as_nanos() as u64);
        (found, engine.stats)
    }

    /// Subject query (§4.1): enumerate proofs `subject ⇒ *` that do not
    /// violate the constraints, one per reachable node, in deterministic
    /// order (chain length, then delegation ids).
    pub fn subject_query(&self, subject: &Node, opts: &SearchOptions) -> (Vec<Proof>, SearchStats) {
        drbac_obs::static_histogram!("drbac.graph.search.subject.ns")
            .time(|| self.every_proof_from(subject, Direction::Forward, opts))
    }

    /// Object query (§4.1): enumerate proofs `* ⇒ object` that do not
    /// violate the constraints, one per reaching node, in deterministic
    /// order (chain length, then delegation ids).
    pub fn object_query(&self, object: &Node, opts: &SearchOptions) -> (Vec<Proof>, SearchStats) {
        drbac_obs::static_histogram!("drbac.graph.search.object.ns")
            .time(|| self.every_proof_from(object, Direction::Reverse, opts))
    }

    /// One proof per node a full search from `start` reaches, sorted by
    /// [`order_key`] on the far endpoint.
    fn every_proof_from(
        &self,
        start: &Node,
        dir: Direction,
        opts: &SearchOptions,
    ) -> (Vec<Proof>, SearchStats) {
        let mut engine = Engine::new(self, opts);
        let (arena, results) = engine.search(start, None, dir);
        let mut proofs: Vec<Proof> = results
            .values()
            .filter(|&&idx| idx != 0) // the root's trivial proof is not an answer
            .map(|&idx| materialize(&arena, idx, dir, start))
            .collect();
        proofs.sort_by_cached_key(|p| match dir {
            Direction::Forward => order_key(p, p.object()),
            Direction::Reverse => order_key(p, p.subject()),
        });
        (proofs, engine.stats)
    }

    /// Enumerates *all* distinct proofs `subject ⇒ object` (simple paths,
    /// no node repeated) satisfying the constraints, up to `max_proofs`.
    ///
    /// This is the exhaustive form of the paper's §4.1 queries
    /// ("enumerate the full set of proofs") and the direct measure of the
    /// §4.2.3 path-explosion phenomenon: in a tree with constant
    /// branching the count grows exponentially with depth, which is why
    /// [`DelegationGraph::direct_query`] exists as the single-answer
    /// search. Returns `(proofs, stats)`; stats count every edge touched
    /// during the walk.
    pub fn enumerate_proofs(
        &self,
        subject: &Node,
        object: &Node,
        opts: &SearchOptions,
        max_proofs: usize,
    ) -> (Vec<Proof>, SearchStats) {
        let mut engine = Engine::new(self, opts);
        let mut proofs = Vec::new();
        let mut on_path: Vec<Node> = vec![subject.clone()];
        engine.enumerate(
            subject,
            object,
            &Proof::trivial(subject.clone()),
            &mut on_path,
            &mut proofs,
            max_proofs,
        );
        (proofs, engine.stats)
    }
}

impl<'g> Engine<'g> {
    fn new(graph: &'g DelegationGraph, opts: &'g SearchOptions) -> Self {
        Engine {
            graph,
            opts,
            decls: graph.declarations(),
            stats: SearchStats::default(),
        }
    }

    /// Depth-first simple-path enumeration for
    /// [`DelegationGraph::enumerate_proofs`].
    fn enumerate(
        &mut self,
        node: &Node,
        target: &Node,
        proof_so_far: &Proof,
        on_path: &mut Vec<Node>,
        proofs: &mut Vec<Proof>,
        max_proofs: usize,
    ) {
        if proofs.len() >= max_proofs || proof_so_far.chain_len() >= self.opts.max_depth {
            return;
        }
        self.stats.nodes_expanded += 1;
        let edges = self.graph.edges_from(node, self.opts.now);
        for cert in edges {
            if proofs.len() >= max_proofs {
                return;
            }
            self.stats.edges_considered += 1;
            let next = cert.delegation().object().clone();
            if on_path.contains(&next) {
                continue; // simple paths only
            }
            let mut acc = proof_so_far.accumulate();
            for clause in cert.delegation().clauses() {
                acc.absorb_clause(clause);
            }
            if self.opts.prune_by_constraints
                && !self.opts.constraints.is_empty()
                && !acc.satisfies(&self.opts.constraints, &self.decls)
            {
                continue;
            }
            let Some(step) = self.build_step(&cert, &mut Vec::new(), 0) else {
                continue;
            };
            let tail = Proof::from_steps(vec![step]).expect("single step");
            let candidate = proof_so_far.clone().concat(tail).expect("linked");
            if !candidate.respects_extension_depths() {
                continue;
            }
            if &next == target {
                if candidate
                    .accumulate()
                    .satisfies(&self.opts.constraints, &self.decls)
                {
                    proofs.push(candidate);
                }
                continue;
            }
            on_path.push(next.clone());
            self.enumerate(&next, target, &candidate, on_path, proofs, max_proofs);
            on_path.pop();
        }
    }

    /// Breadth-first search from `start`. Forward direction follows
    /// subject→object edges; reverse follows object→subject. Returns the
    /// state arena plus the first-found (non-dominated, satisfying) state
    /// per reached node; callers materialize the proofs they need. If
    /// `target` is given, stops as soon as a satisfying state reaches it.
    fn search(
        &mut self,
        start: &Node,
        target: Option<&Node>,
        dir: Direction,
    ) -> (Vec<StateRec>, FastMap<NodeId, u32>) {
        let interner = &self.graph.interner;
        let start_id = interner.intern(start);
        let target_id = target.map(|t| interner.intern(t));

        let mut frontier = Frontier::new(&self.opts.constraints, &self.decls, dir);
        let mut arena: Vec<StateRec> = vec![StateRec {
            node: start_id,
            pred: NO_PRED,
            step: None,
            depth: 0,
            slack: u64::MAX,
            acc: AttrAccumulator::new(),
        }];
        let root_vals = frontier.vals(&arena[0].acc);
        frontier.admit(start_id, root_vals, u64::MAX);
        let mut results: FastMap<NodeId, u32> = FastMap::default();
        results.insert(start_id, 0);
        let mut queue: VecDeque<u32> = VecDeque::new();
        queue.push_back(0);

        while let Some(idx) = queue.pop_front() {
            let cands = self.expand_state(&arena, idx, dir, &frontier);
            if self
                .merge(
                    idx,
                    cands,
                    &mut arena,
                    &mut frontier,
                    &mut results,
                    &mut queue,
                    target_id,
                )
                .is_some()
            {
                break;
            }
        }
        (arena, results)
    }

    /// The frontier-dependent part of expansion — dominance checks,
    /// frontier admission, result insertion, enqueueing — over one
    /// state's candidates in edge order. Returns the arena index of a
    /// satisfying target state, ending the search.
    #[allow(clippy::too_many_arguments)]
    fn merge(
        &mut self,
        parent: u32,
        cands: Vec<Candidate>,
        arena: &mut Vec<StateRec>,
        frontier: &mut Frontier,
        results: &mut FastMap<NodeId, u32>,
        queue: &mut VecDeque<u32>,
        target: Option<NodeId>,
    ) -> Option<u32> {
        for cand in cands {
            if frontier.is_dominated(cand.far, &cand.vals, cand.slack) {
                continue;
            }
            frontier.admit(cand.far, cand.vals, cand.slack);
            let idx = u32::try_from(arena.len()).expect("arena full");
            let depth = arena[parent as usize].depth + 1;
            arena.push(StateRec {
                node: cand.far,
                pred: parent,
                step: Some(cand.step),
                depth,
                slack: cand.slack,
                acc: cand.acc,
            });
            // A proof only counts as an answer if it satisfies the
            // constraints; accumulation is monotone, so a violating
            // prefix can never recover (this keeps unpruned searches
            // in agreement with pruned ones).
            if cand.satisfies {
                if target == Some(cand.far) {
                    // Overwrite: when the target is the start node, the
                    // root's trivial proof occupies the slot, but the
                    // answer is the cycle proof that just arrived.
                    results.insert(cand.far, idx);
                    return Some(idx);
                }
                results.entry(cand.far).or_insert(idx);
            }
            self.stats.states_enqueued += 1;
            queue.push_back(idx);
        }
        None
    }

    /// The first pass of expanding one state: fetch edges, absorb
    /// attributes, constraint-prune, dominance-prune against the frontier
    /// as it stood before this state (see [`Frontier::is_dominated`]),
    /// check transitive-trust limits, resolve supports.
    fn expand_state(
        &mut self,
        arena: &[StateRec],
        idx: u32,
        dir: Direction,
        frontier: &Frontier,
    ) -> Vec<Candidate> {
        self.stats.nodes_expanded += 1;
        let state = &arena[idx as usize];
        if state.depth as usize >= self.opts.max_depth {
            return Vec::new();
        }
        let edges = match dir {
            Direction::Forward => self.graph.edges_from_ids(state.node, self.opts.now),
            Direction::Reverse => self.graph.edges_to_ids(state.node, self.opts.now),
        };
        let mut out = Vec::new();
        for edge in edges {
            self.stats.edges_considered += 1;
            let delegation = edge.cert.delegation();

            let mut acc = state.acc.clone();
            for clause in delegation.clauses() {
                acc.absorb_clause(clause);
            }
            if self.opts.prune_by_constraints
                && !self.opts.constraints.is_empty()
                && !acc.satisfies(&self.opts.constraints, &self.decls)
            {
                continue;
            }

            // Transitive-trust limits, maintained incrementally: drop
            // chains the validator would reject. A forward append can only
            // break the new step's own limit; a reverse prepend shifts
            // every position, i.e. decrements the chain's slack.
            let limit = delegation.max_extension_depth();
            let (depth_ok, slack) = match (dir, state.slack) {
                (Direction::Forward, _) => {
                    (limit.is_none_or(|l| u64::from(state.depth) <= l), u64::MAX)
                }
                (Direction::Reverse, 0) => (false, 0),
                (Direction::Reverse, u64::MAX) => (true, limit.unwrap_or(u64::MAX)),
                (Direction::Reverse, s) => (true, limit.map_or(s - 1, |l| l.min(s - 1))),
            };
            if !depth_ok {
                continue;
            }

            let vals = frontier.vals(&acc);
            if frontier.is_dominated(edge.far, &vals, slack) {
                continue;
            }

            // Resolve supports; an unusable edge is skipped. Only a
            // usable step may later join the frontier: an edge whose
            // support cannot be resolved must not dominance-prune a
            // viable path with the same accumulation.
            let Some(step) = self.build_step(&edge.cert, &mut Vec::new(), 0) else {
                continue;
            };

            let satisfies = self.chain_satisfies(arena, idx, &step, &acc, dir);
            out.push(Candidate {
                far: edge.far,
                step,
                acc,
                vals,
                slack,
                satisfies,
            });
        }
        out
    }

    /// Whether the chain ending in `step` (on top of `arena[parent]`)
    /// satisfies the constraints, evaluated in the same clause order as
    /// [`Proof::accumulate`] — object end first — so answers are
    /// bit-identical to materializing the proof and accumulating it.
    fn chain_satisfies(
        &self,
        arena: &[StateRec],
        parent: u32,
        step: &ProofStep,
        acc: &AttrAccumulator,
        dir: Direction,
    ) -> bool {
        if self.opts.constraints.is_empty() {
            return true;
        }
        match dir {
            // Reverse discovery already runs object→subject, so the
            // incremental accumulator is in `accumulate()` order.
            Direction::Reverse => acc.satisfies(&self.opts.constraints, &self.decls),
            // Forward discovery is subject→object; walking the parent
            // chain from the new step visits clauses object-end first.
            Direction::Forward => {
                let mut chain_acc = AttrAccumulator::new();
                for clause in step.cert().delegation().clauses() {
                    chain_acc.absorb_clause(clause);
                }
                let mut cur = parent as usize;
                while let Some(s) = &arena[cur].step {
                    for clause in s.cert().delegation().clauses() {
                        chain_acc.absorb_clause(clause);
                    }
                    cur = arena[cur].pred as usize;
                }
                chain_acc.satisfies(&self.opts.constraints, &self.decls)
            }
        }
    }

    /// Wraps a credential in a proof step, attaching support proofs for
    /// third-party authority and foreign attribute clauses. Provided
    /// supports are preferred; otherwise a recursive search runs.
    fn build_step(
        &mut self,
        cert: &Arc<SignedDelegation>,
        resolving: &mut Vec<(EntityId, Node)>,
        depth: usize,
    ) -> Option<ProofStep> {
        let delegation = cert.delegation();
        let issuer = delegation.issuer();
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
        let mut step = ProofStep::new(Arc::clone(cert));
        for right in needed {
            let support = self.resolve_support(issuer, &right, resolving, depth)?;
            step = step.with_support(support);
        }
        Some(step)
    }

    /// Finds a proof `issuer ⇒ right`, preferring supports provided at
    /// publication and falling back to a recursive unconstrained search.
    fn resolve_support(
        &mut self,
        issuer: EntityId,
        right: &Node,
        resolving: &mut Vec<(EntityId, Node)>,
        depth: usize,
    ) -> Option<Proof> {
        if let Some(p) = self.graph.provided_support(issuer, right) {
            // A provided support is only usable while none of its
            // credentials have been revoked or expired; otherwise fall
            // through to a fresh search.
            let usable = p.all_certs().iter().all(|c| {
                !self.graph.is_revoked(c.id()) && !c.delegation().is_expired(self.opts.now)
            });
            if usable {
                return Some(p);
            }
        }
        if depth >= self.opts.max_support_depth {
            return None;
        }
        let key = (issuer, right.clone());
        if resolving.contains(&key) {
            return None; // cycle among support requirements
        }
        resolving.push(key);
        self.stats.support_resolutions += 1;
        let found = self.support_search(&Node::Entity(issuer), right, resolving, depth);
        resolving.pop();
        found
    }

    /// A minimal forward search used only for support resolution (no
    /// attribute constraints; supports authorize, they don't modulate).
    /// Same parent-pointer scheme as the main search: the one support
    /// proof that is returned is assembled at the end.
    fn support_search(
        &mut self,
        start: &Node,
        target: &Node,
        resolving: &mut Vec<(EntityId, Node)>,
        depth: usize,
    ) -> Option<Proof> {
        struct SupRec {
            node: NodeId,
            pred: u32,
            step: Option<ProofStep>,
            depth: u32,
        }
        let interner = &self.graph.interner;
        let start_id = interner.intern(start);
        let target_id = interner.intern(target);
        let mut arena: Vec<SupRec> = vec![SupRec {
            node: start_id,
            pred: NO_PRED,
            step: None,
            depth: 0,
        }];
        let mut visited: FastSet<NodeId> = FastSet::default();
        visited.insert(start_id);
        let mut queue: VecDeque<u32> = VecDeque::new();
        queue.push_back(0);
        while let Some(idx) = queue.pop_front() {
            self.stats.nodes_expanded += 1;
            let (node, state_depth) = {
                let s = &arena[idx as usize];
                (s.node, s.depth)
            };
            if state_depth as usize >= self.opts.max_depth {
                continue;
            }
            for edge in self.graph.edges_from_ids(node, self.opts.now) {
                self.stats.edges_considered += 1;
                if visited.contains(&edge.far) {
                    continue;
                }
                // Forward append: only the new step can break its own
                // transitive-trust limit.
                if edge
                    .cert
                    .delegation()
                    .max_extension_depth()
                    .is_some_and(|l| u64::from(state_depth) > l)
                {
                    continue;
                }
                let Some(step) = self.build_step(&edge.cert, resolving, depth + 1) else {
                    continue;
                };
                if edge.far == target_id {
                    let mut steps = vec![step];
                    let mut cur = idx as usize;
                    while let Some(s) = &arena[cur].step {
                        steps.push(s.clone());
                        cur = arena[cur].pred as usize;
                    }
                    steps.reverse();
                    return Some(Proof::from_steps(steps).expect("linked"));
                }
                visited.insert(edge.far);
                arena.push(SupRec {
                    node: edge.far,
                    pred: idx,
                    step: Some(step),
                    depth: state_depth + 1,
                });
                queue.push_back(u32::try_from(arena.len() - 1).expect("arena full"));
            }
        }
        None
    }
}

/// `a` dominates `b` if, for every constrained attribute, `a`'s effective
/// value is at least `b`'s — i.e. `b` cannot satisfy anything `a` cannot.
/// With no constraints all accumulations are equivalent, so any previous
/// visit dominates. (The live engine compares precomputed effective-value
/// vectors — see [`Frontier`] — this form is kept for the reference
/// engine and tests.)
pub(crate) fn dominates(
    a: &AttrAccumulator,
    b: &AttrAccumulator,
    constraints: &[AttrConstraint],
    decls: &DeclarationSet,
) -> bool {
    if constraints.is_empty() {
        return true;
    }
    constraints.iter().all(|c| {
        let base = decls
            .base(&c.attr)
            .unwrap_or_else(|| natural_base(c.attr.op()));
        a.effective(&c.attr, base) >= b.effective(&c.attr, base)
    })
}

pub(crate) fn natural_base(op: AttrOp) -> f64 {
    match op {
        AttrOp::Subtract => 0.0,
        AttrOp::Scale => 1.0,
        AttrOp::Min => f64::INFINITY,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::{AttrDeclaration, AttrOp, LocalEntity, ProofValidator, ValidationContext};
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fx {
        a: LocalEntity,
        b: LocalEntity,
        maria: LocalEntity,
    }

    fn fx() -> Fx {
        let mut rng = StdRng::seed_from_u64(31);
        let g = SchnorrGroup::test_256();
        Fx {
            a: LocalEntity::generate("A", g.clone(), &mut rng),
            b: LocalEntity::generate("B", g.clone(), &mut rng),
            maria: LocalEntity::generate("Maria", g, &mut rng),
        }
    }

    fn opts() -> SearchOptions {
        SearchOptions::at(Timestamp(0))
    }

    #[test]
    fn multi_hop_chain_found_and_validates() {
        let f = fx();
        let g = DelegationGraph::new();
        let r1 = f.a.role("r1");
        let r2 = f.a.role("r2");
        let r3 = f.a.role("r3");
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(r1.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::role(r1), Node::role(r2.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::role(r2), Node::role(r3.clone()))
                .sign(&f.a)
                .unwrap(),
        );

        let (proof, stats) = g.direct_query(&Node::entity(&f.maria), &Node::role(r3), &opts());
        let proof = proof.expect("chain exists");
        assert_eq!(proof.chain_len(), 3);
        assert!(stats.edges_considered >= 3);
        let v = ProofValidator::new(ValidationContext::at(Timestamp(0)));
        assert!(v.validate(&proof).is_ok());
    }

    #[test]
    fn no_path_returns_none() {
        let f = fx();
        let g = DelegationGraph::new();
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(f.a.role("r1")))
                .sign(&f.a)
                .unwrap(),
        );
        let (proof, _) = g.direct_query(
            &Node::entity(&f.maria),
            &Node::role(f.a.role("other")),
            &opts(),
        );
        assert!(proof.is_none());
    }

    #[test]
    fn bfs_finds_shortest_chain() {
        let f = fx();
        let g = DelegationGraph::new();
        let target = f.a.role("target");
        let hop = f.a.role("hop");
        // Long path Maria -> hop -> target, and short path Maria -> target.
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(hop.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::role(hop), Node::role(target.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(target.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        let (proof, _) = g.direct_query(&Node::entity(&f.maria), &Node::role(target), &opts());
        assert_eq!(proof.unwrap().chain_len(), 1);
    }

    #[test]
    fn third_party_edge_uses_provided_support() {
        let f = fx();
        let g = DelegationGraph::new();
        let member = f.a.role("member");
        // A grants B member'.
        let grant =
            f.a.delegate(Node::entity(&f.b), Node::role_admin(member.clone()))
                .sign(&f.a)
                .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(grant)]).unwrap();
        // B issues member to Maria (third-party), publishing the support.
        let cert =
            f.b.delegate(Node::entity(&f.maria), Node::role(member.clone()))
                .sign(&f.b)
                .unwrap();
        g.insert_with_supports(cert, vec![support]);

        let (proof, stats) = g.direct_query(&Node::entity(&f.maria), &Node::role(member), &opts());
        let proof = proof.expect("supported third-party chain");
        assert_eq!(
            stats.support_resolutions, 0,
            "provided support used directly"
        );
        let v = ProofValidator::new(ValidationContext::at(Timestamp(0)));
        assert!(v.validate(&proof).is_ok());
    }

    #[test]
    fn third_party_support_discovered_from_graph() {
        let f = fx();
        let g = DelegationGraph::new();
        let member = f.a.role("member");
        // Support material is in the graph but not pre-packaged.
        g.insert(
            f.a.delegate(Node::entity(&f.b), Node::role_admin(member.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.b.delegate(Node::entity(&f.maria), Node::role(member.clone()))
                .sign(&f.b)
                .unwrap(),
        );

        let (proof, stats) = g.direct_query(&Node::entity(&f.maria), &Node::role(member), &opts());
        let proof = proof.expect("support found by recursive search");
        assert!(stats.support_resolutions >= 1);
        let v = ProofValidator::new(ValidationContext::at(Timestamp(0)));
        assert!(v.validate(&proof).is_ok());
    }

    #[test]
    fn unsupported_third_party_edge_is_unusable() {
        let f = fx();
        let g = DelegationGraph::new();
        let member = f.a.role("member");
        g.insert(
            f.b.delegate(Node::entity(&f.maria), Node::role(member.clone()))
                .sign(&f.b)
                .unwrap(),
        );
        let (proof, _) = g.direct_query(&Node::entity(&f.maria), &Node::role(member), &opts());
        assert!(proof.is_none(), "no authority for B over A.member");
    }

    #[test]
    fn subject_query_enumerates_reachable() {
        let f = fx();
        let g = DelegationGraph::new();
        let r1 = f.a.role("r1");
        let r2 = f.a.role("r2");
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(r1.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::role(r1.clone()), Node::role(r2.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::entity(&f.b), Node::role(r2.clone()))
                .sign(&f.a)
                .unwrap(),
        );

        let (proofs, _) = g.subject_query(&Node::entity(&f.maria), &opts());
        let objects: Vec<String> = proofs.iter().map(|p| p.object().to_string()).collect();
        assert_eq!(proofs.len(), 2, "reaches r1 and r2: {objects:?}");
        for p in &proofs {
            assert_eq!(p.subject(), &Node::entity(&f.maria));
        }
    }

    #[test]
    fn object_query_enumerates_reaching() {
        let f = fx();
        let g = DelegationGraph::new();
        let r1 = f.a.role("r1");
        let r2 = f.a.role("r2");
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(r1.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::role(r1.clone()), Node::role(r2.clone()))
                .sign(&f.a)
                .unwrap(),
        );

        let (proofs, _) = g.object_query(&Node::role(r2.clone()), &opts());
        assert_eq!(proofs.len(), 2, "r1 and Maria both reach r2");
        for p in &proofs {
            assert_eq!(p.object(), &Node::role(r2.clone()));
        }
        // Reverse-built proofs validate too.
        let v = ProofValidator::new(ValidationContext::at(Timestamp(0)));
        for p in &proofs {
            assert!(v.validate(p).is_ok());
        }
    }

    #[test]
    fn constraint_pruning_cuts_work_but_preserves_answers() {
        let f = fx();
        let g = DelegationGraph::new();
        let bw = f.a.attr("BW", AttrOp::Min);
        g.insert_declaration(&AttrDeclaration::new(bw.clone(), 1000.0).unwrap());
        let target = f.a.role("target");

        // Path 1 (fails constraint): BW drops to 10 then fans out widely.
        let weak = f.a.role("weak");
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(weak.clone()))
                .with_attr(bw.clone(), 10.0)
                .unwrap()
                .sign(&f.a)
                .unwrap(),
        );
        for i in 0..20 {
            let filler = f.a.role(&format!("filler{i}"));
            g.insert(
                f.a.delegate(Node::role(weak.clone()), Node::role(filler.clone()))
                    .sign(&f.a)
                    .unwrap(),
            );
            g.insert(
                f.a.delegate(Node::role(filler), Node::role(target.clone()))
                    .sign(&f.a)
                    .unwrap(),
            );
        }
        // Path 2 (satisfies): BW 500 direct.
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(target.clone()))
                .with_attr(bw.clone(), 500.0)
                .unwrap()
                .sign(&f.a)
                .unwrap(),
        );

        let constraint = AttrConstraint::at_least(bw.clone(), 100.0);
        let pruned_opts = opts().with_constraint(constraint.clone());
        let unpruned_opts = opts().with_constraint(constraint).without_pruning();

        let (p1, s1) = g.direct_query(
            &Node::entity(&f.maria),
            &Node::role(target.clone()),
            &pruned_opts,
        );
        let (p2, s2) = g.direct_query(&Node::entity(&f.maria), &Node::role(target), &unpruned_opts);
        let (p1, _p2) = (
            p1.expect("found with pruning"),
            p2.expect("found without pruning"),
        );
        assert!(p1
            .accumulate()
            .satisfies(&pruned_opts.constraints, &g.declarations()));
        assert!(
            s1.edges_considered <= s2.edges_considered,
            "pruning should not examine more edges ({} vs {})",
            s1.edges_considered,
            s2.edges_considered
        );
    }

    #[test]
    fn constrained_search_takes_weaker_free_path_when_strong_is_constrained() {
        // Two paths: short one violates the constraint, longer one is fine.
        // The Pareto frontier must keep the second path alive even though
        // the violating path reaches nodes first.
        let f = fx();
        let g = DelegationGraph::new();
        let bw = f.a.attr("BW", AttrOp::Min);
        g.insert_declaration(&AttrDeclaration::new(bw.clone(), 1000.0).unwrap());
        let mid = f.a.role("mid");
        let target = f.a.role("target");
        // Fast-but-narrow: Maria -> mid with BW 10.
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(mid.clone()))
                .with_attr(bw.clone(), 10.0)
                .unwrap()
                .sign(&f.a)
                .unwrap(),
        );
        // Slow-but-wide: Maria -> wide -> mid with BW 800.
        let wide = f.a.role("wide");
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(wide.clone()))
                .with_attr(bw.clone(), 800.0)
                .unwrap()
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::role(wide), Node::role(mid.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::role(mid), Node::role(target.clone()))
                .sign(&f.a)
                .unwrap(),
        );

        let o = opts().with_constraint(AttrConstraint::at_least(bw.clone(), 100.0));
        let (proof, _) = g.direct_query(&Node::entity(&f.maria), &Node::role(target), &o);
        let proof = proof.expect("wide path satisfies");
        assert_eq!(proof.chain_len(), 3);
        let acc = proof.accumulate();
        assert_eq!(acc.effective(&bw, 1000.0), 800.0);
    }

    #[test]
    fn depth_limit_bounds_search() {
        let f = fx();
        let g = DelegationGraph::new();
        let mut prev = Node::entity(&f.maria);
        for i in 0..10 {
            let r = f.a.role(&format!("r{i}"));
            g.insert(
                f.a.delegate(prev.clone(), Node::role(r.clone()))
                    .sign(&f.a)
                    .unwrap(),
            );
            prev = Node::role(r);
        }
        let shallow = opts().with_max_depth(5);
        let (proof, _) = g.direct_query(&Node::entity(&f.maria), &prev, &shallow);
        assert!(proof.is_none(), "target is 10 hops away, limit 5");
        let (proof, _) = g.direct_query(&Node::entity(&f.maria), &prev, &opts());
        assert_eq!(proof.unwrap().chain_len(), 10);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let f = fx();
        let g = DelegationGraph::new();
        let r1 = f.a.role("r1");
        let r2 = f.a.role("r2");
        g.insert(
            f.a.delegate(Node::role(r1.clone()), Node::role(r2.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::role(r2.clone()), Node::role(r1.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(r1.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        let (proof, _) = g.direct_query(&Node::entity(&f.maria), &Node::role(r2), &opts());
        assert!(proof.is_some());
        let (proofs, _) = g.subject_query(&Node::entity(&f.maria), &opts());
        assert_eq!(proofs.len(), 2);
    }

    #[test]
    fn mutual_assignment_support_cycle_terminates_without_proof() {
        // B and C each claim assignment authority only via the other; no
        // self-certified root exists, so no proof should be found (and the
        // search must terminate).
        let f = fx();
        let g = DelegationGraph::new();
        let r = f.a.role("r");
        let b = &f.b;
        let mut rng = StdRng::seed_from_u64(99);
        let c = LocalEntity::generate("C", SchnorrGroup::test_256(), &mut rng);
        g.insert(
            b.delegate(Node::entity(&c), Node::role_admin(r.clone()))
                .sign(b)
                .unwrap(),
        );
        g.insert(
            c.delegate(Node::entity(b), Node::role_admin(r.clone()))
                .sign(&c)
                .unwrap(),
        );
        g.insert(
            b.delegate(Node::entity(&f.maria), Node::role(r.clone()))
                .sign(b)
                .unwrap(),
        );
        let (proof, _) = g.direct_query(&Node::entity(&f.maria), &Node::role(r), &opts());
        assert!(proof.is_none());
    }

    #[test]
    fn enumerate_proofs_finds_every_simple_path() {
        let f = fx();
        let g = DelegationGraph::new();
        let target = f.a.role("target");
        // Diamond: Maria -> {l, r} -> target, plus a direct edge: 3 paths.
        for name in ["l", "r"] {
            let mid = f.a.role(name);
            g.insert(
                f.a.delegate(Node::entity(&f.maria), Node::role(mid.clone()))
                    .sign(&f.a)
                    .unwrap(),
            );
            g.insert(
                f.a.delegate(Node::role(mid), Node::role(target.clone()))
                    .sign(&f.a)
                    .unwrap(),
            );
        }
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(target.clone()))
                .sign(&f.a)
                .unwrap(),
        );

        let (proofs, stats) = g.enumerate_proofs(
            &Node::entity(&f.maria),
            &Node::role(target.clone()),
            &opts(),
            100,
        );
        assert_eq!(proofs.len(), 3);
        assert!(stats.edges_considered >= 5);
        let v = ProofValidator::new(ValidationContext::at(Timestamp(0)));
        for p in &proofs {
            assert!(v.validate(p).is_ok());
            assert_eq!(p.object(), &Node::role(target.clone()));
        }
        // All proofs distinct.
        for (i, p) in proofs.iter().enumerate() {
            for q in &proofs[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }

    #[test]
    fn enumerate_proofs_count_is_exponential_in_depth() {
        // Layered graph with branching 2 between layers: path count 2^depth.
        let f = fx();
        for depth in [2usize, 3, 4] {
            let g = DelegationGraph::new();
            let mut prev_layer = vec![Node::entity(&f.maria)];
            for l in 0..depth {
                let layer: Vec<Node> = (0..2)
                    .map(|i| Node::role(f.a.role(&format!("d{depth}l{l}n{i}"))))
                    .collect();
                for from in &prev_layer {
                    for to in &layer {
                        g.insert(f.a.delegate(from.clone(), to.clone()).sign(&f.a).unwrap());
                    }
                }
                prev_layer = layer;
            }
            let target = Node::role(f.a.role(&format!("d{depth}target")));
            for from in &prev_layer {
                g.insert(
                    f.a.delegate(from.clone(), target.clone())
                        .sign(&f.a)
                        .unwrap(),
                );
            }
            let (proofs, _) = g.enumerate_proofs(&Node::entity(&f.maria), &target, &opts(), 10_000);
            assert_eq!(proofs.len(), 1 << depth, "depth {depth}");
        }
    }

    #[test]
    fn enumerate_proofs_respects_cap_and_constraints() {
        let f = fx();
        let g = DelegationGraph::new();
        let bw = f.a.attr("BW", AttrOp::Min);
        g.insert_declaration(&AttrDeclaration::new(bw.clone(), 1000.0).unwrap());
        let target = f.a.role("target");
        // Two paths: one wide (500), one narrow (50).
        for (name, cap) in [("wide", 500.0), ("narrow", 50.0)] {
            let mid = f.a.role(name);
            g.insert(
                f.a.delegate(Node::entity(&f.maria), Node::role(mid.clone()))
                    .with_attr(bw.clone(), cap)
                    .unwrap()
                    .sign(&f.a)
                    .unwrap(),
            );
            g.insert(
                f.a.delegate(Node::role(mid), Node::role(target.clone()))
                    .sign(&f.a)
                    .unwrap(),
            );
        }
        let constrained = opts().with_constraint(AttrConstraint::at_least(bw, 100.0));
        let (proofs, _) = g.enumerate_proofs(
            &Node::entity(&f.maria),
            &Node::role(target.clone()),
            &constrained,
            100,
        );
        assert_eq!(proofs.len(), 1, "only the wide path satisfies");
        // Cap limits output.
        let (capped, _) =
            g.enumerate_proofs(&Node::entity(&f.maria), &Node::role(target), &opts(), 1);
        assert_eq!(capped.len(), 1);
    }

    #[test]
    fn depth_limited_edges_pruned_but_alternatives_found() {
        // Two routes to the target: a short depth-0 grant reachable only
        // via one hop (violates) and a longer unrestricted route.
        let f = fx();
        let g = DelegationGraph::new();
        let hop = f.a.role("hop");
        let target = f.a.role("target");
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(hop.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        // Restricted: [hop -> target <depth:0>] — cannot be extended by
        // Maria's hop delegation.
        g.insert(
            f.a.delegate(Node::role(hop.clone()), Node::role(target.clone()))
                .max_extension_depth(0)
                .sign(&f.a)
                .unwrap(),
        );
        let (proof, _) = g.direct_query(
            &Node::entity(&f.maria),
            &Node::role(target.clone()),
            &opts(),
        );
        assert!(proof.is_none(), "depth-0 grant must not be extended");

        // Direct depth-0 grant works (position 0).
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(target.clone()))
                .max_extension_depth(0)
                .serial(2)
                .sign(&f.a)
                .unwrap(),
        );
        let (proof, _) = g.direct_query(&Node::entity(&f.maria), &Node::role(target), &opts());
        let proof = proof.expect("direct grant usable");
        assert_eq!(proof.chain_len(), 1);
        assert!(ProofValidator::new(ValidationContext::at(Timestamp(0)))
            .validate(&proof)
            .is_ok());
    }

    #[test]
    fn reverse_search_respects_depth_limits() {
        let f = fx();
        let g = DelegationGraph::new();
        let hop = f.a.role("hop");
        let target = f.a.role("target");
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(hop.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::role(hop), Node::role(target.clone()))
                .max_extension_depth(0)
                .sign(&f.a)
                .unwrap(),
        );
        // Object query from target: the depth-0 edge itself (position 0)
        // is a valid 1-step proof, but the 2-step extension is not.
        let (proofs, _) = g.object_query(&Node::role(target), &opts());
        assert_eq!(proofs.len(), 1, "only the unextended proof survives");
        assert_eq!(proofs[0].chain_len(), 1);
    }

    #[test]
    fn reverse_search_finds_proofs_behind_a_depth_limited_edge() {
        // [S -> y], [y -> t] <depth: 0>, [y -> q], [q -> t]. Reverse
        // search from t reaches y first over the limited edge, with no
        // slack left; y reached again through q can still be extended
        // to S, so the first arrival must not hide it.
        let f = fx();
        let g = DelegationGraph::new();
        let [y, q, t] = ["y", "q", "t"].map(|n| Node::role(f.a.role(n)));
        let subject = Node::entity(&f.maria);
        for (serial, (from, to, limit)) in [
            (&subject, &y, None),
            (&y, &t, Some(0)),
            (&y, &q, None),
            (&q, &t, None),
        ]
        .into_iter()
        .enumerate()
        {
            let mut b = f.a.delegate(from.clone(), to.clone()).serial(serial as u64);
            if let Some(l) = limit {
                b = b.max_extension_depth(l);
            }
            g.insert(b.sign(&f.a).unwrap());
        }
        let (direct, _) = g.direct_query(&subject, &t, &opts());
        assert_eq!(direct.expect("S => t over q").chain_len(), 3);

        let (proofs, _) = g.object_query(&t, &opts());
        let (reference, _) = crate::reference::object_query_ref(&g, &t, &opts());
        let bytes = |ps: &[Proof]| ps.iter().map(Proof::to_bytes).collect::<Vec<_>>();
        assert_eq!(bytes(&proofs), bytes(&reference));
        let subjects: Vec<&Node> = proofs.iter().map(Proof::subject).collect();
        assert_eq!(subjects, [&y, &q, &subject]);
        assert_eq!(proofs[2].chain_len(), 3, "S reaches t only through q");
        for p in &proofs {
            assert!(ProofValidator::new(ValidationContext::at(Timestamp(0)))
                .validate(p)
                .is_ok());
        }
    }

    #[test]
    fn unusable_parallel_edge_does_not_poison_frontier() {
        // Two parallel edges Maria -> member: the first is an unsupported
        // third-party delegation (B has no authority over A.member), the
        // second is A's own, perfectly usable grant. The unusable edge is
        // examined first; it must not enter the Pareto frontier and
        // dominance-prune the usable one.
        let f = fx();
        let g = DelegationGraph::new();
        let member = f.a.role("member");
        g.insert(
            f.b.delegate(Node::entity(&f.maria), Node::role(member.clone()))
                .sign(&f.b)
                .unwrap(),
        );
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(member.clone()))
                .sign(&f.a)
                .unwrap(),
        );
        let (proof, _) = g.direct_query(&Node::entity(&f.maria), &Node::role(member), &opts());
        let proof = proof.expect("A's own grant must be found despite B's unusable edge");
        assert_eq!(proof.chain_len(), 1);
        let v = ProofValidator::new(ValidationContext::at(Timestamp(0)));
        assert!(v.validate(&proof).is_ok());
    }

    #[test]
    fn pruned_and_unpruned_searches_agree_on_satisfiability() {
        // The only path violates the constraint (BW 10 < 100). The
        // unpruned search walks it anyway for measurement, but must not
        // return a constraint-violating proof as a positive answer.
        let f = fx();
        let g = DelegationGraph::new();
        let bw = f.a.attr("BW", AttrOp::Min);
        g.insert_declaration(&AttrDeclaration::new(bw.clone(), 1000.0).unwrap());
        let target = f.a.role("target");
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(target.clone()))
                .with_attr(bw.clone(), 10.0)
                .unwrap()
                .sign(&f.a)
                .unwrap(),
        );
        let constraint = AttrConstraint::at_least(bw, 100.0);
        let pruned_opts = opts().with_constraint(constraint.clone());
        let unpruned_opts = opts().with_constraint(constraint).without_pruning();
        let (pruned, _) = g.direct_query(
            &Node::entity(&f.maria),
            &Node::role(target.clone()),
            &pruned_opts,
        );
        let (unpruned, _) =
            g.direct_query(&Node::entity(&f.maria), &Node::role(target), &unpruned_opts);
        assert!(pruned.is_none(), "pruned search rejects the violating path");
        assert!(
            unpruned.is_none(),
            "unpruned search must agree: a violating proof is not an answer"
        );
    }

    #[test]
    fn expired_edges_ignored_at_query_time() {
        let f = fx();
        let g = DelegationGraph::new();
        let r = f.a.role("r");
        g.insert(
            f.a.delegate(Node::entity(&f.maria), Node::role(r.clone()))
                .expires(Timestamp(5))
                .sign(&f.a)
                .unwrap(),
        );
        let (found, _) = g.direct_query(
            &Node::entity(&f.maria),
            &Node::role(r.clone()),
            &SearchOptions::at(Timestamp(5)),
        );
        assert!(found.is_some());
        let (gone, _) = g.direct_query(
            &Node::entity(&f.maria),
            &Node::role(r),
            &SearchOptions::at(Timestamp(6)),
        );
        assert!(gone.is_none());
    }

    /// A moderately tangled fixture: role ladders with cross links, a
    /// constrained branch, a supported third-party edge, and a cycle.
    fn tangled_graph(f: &Fx) -> DelegationGraph {
        let g = DelegationGraph::new();
        let bw = f.a.attr("BW", AttrOp::Min);
        g.insert_declaration(&AttrDeclaration::new(bw.clone(), 1000.0).unwrap());
        for chain in 0..3 {
            let mut prev = Node::entity(&f.maria);
            for depth in 0..4 {
                let r = Node::role(f.a.role(&format!("c{chain}d{depth}")));
                let mut b = f.a.delegate(prev.clone(), r.clone());
                if chain == 1 {
                    b = b
                        .with_attr(bw.clone(), 400.0 - 100.0 * depth as f64)
                        .unwrap();
                }
                g.insert(b.sign(&f.a).unwrap());
                prev = r;
            }
        }
        // Cross links between the ladders.
        let c0 = Node::role(f.a.role("c0d1"));
        let c2 = Node::role(f.a.role("c2d3"));
        g.insert(f.a.delegate(c0.clone(), c2.clone()).sign(&f.a).unwrap());
        // A cycle.
        g.insert(f.a.delegate(c2, c0).serial(7).sign(&f.a).unwrap());
        // Third-party edge with discoverable support.
        g.insert(
            f.a.delegate(Node::entity(&f.b), Node::role_admin(f.a.role("member")))
                .sign(&f.a)
                .unwrap(),
        );
        g.insert(
            f.b.delegate(Node::role(f.a.role("c0d3")), Node::role(f.a.role("member")))
                .sign(&f.b)
                .unwrap(),
        );
        g
    }

    #[test]
    fn multi_proof_order_is_deterministic_and_id_sorted() {
        let f = fx();
        let g = tangled_graph(&f);
        let (first, _) = g.subject_query(&Node::entity(&f.maria), &opts());
        for _ in 0..5 {
            let (again, _) = g.subject_query(&Node::entity(&f.maria), &opts());
            assert_eq!(first, again, "subject_query order must be stable");
        }
        // Proofs of equal chain length are ordered by their delegation-id
        // sets, not by hash-map iteration order.
        for w in first.windows(2) {
            let ka = order_key(&w[0], w[0].object());
            let kb = order_key(&w[1], w[1].object());
            assert!(ka <= kb, "sorted by (chain_len, ids, endpoint)");
        }
    }

    #[test]
    fn incomparable_attribute_fanout_keeps_pareto_alternatives() {
        // Ten parallel edges whose (BW, CPU) pairs are pairwise
        // incomparable (BW falls as CPU rises): none may dominance-prune
        // another, and every threshold pair picks out exactly its edge.
        let f = fx();
        let g = DelegationGraph::new();
        let bw = f.a.attr("BW", AttrOp::Min);
        let cpu = f.a.attr("CPU", AttrOp::Min);
        g.insert_declaration(&AttrDeclaration::new(bw.clone(), 1000.0).unwrap());
        g.insert_declaration(&AttrDeclaration::new(cpu.clone(), 1000.0).unwrap());
        let hub = f.a.role("hub");
        let target = f.a.role("target");
        for i in 0..10u32 {
            g.insert(
                f.a.delegate(Node::entity(&f.maria), Node::role(hub.clone()))
                    .with_attr(bw.clone(), 1000.0 - 10.0 * f64::from(i))
                    .unwrap()
                    .with_attr(cpu.clone(), 10.0 + 10.0 * f64::from(i))
                    .unwrap()
                    .serial(u64::from(i))
                    .sign(&f.a)
                    .unwrap(),
            );
        }
        g.insert(
            f.a.delegate(Node::role(hub.clone()), Node::role(target.clone()))
                .sign(&f.a)
                .unwrap(),
        );

        // Loose thresholds admit every edge: all ten incomparable
        // accumulations must coexist on the hub's frontier.
        let loose = opts()
            .with_constraint(AttrConstraint::at_least(bw.clone(), 910.0))
            .with_constraint(AttrConstraint::at_least(cpu.clone(), 10.0));
        let (proof, stats) =
            g.direct_query(&Node::entity(&f.maria), &Node::role(target.clone()), &loose);
        assert!(proof.is_some());
        assert!(
            stats.states_enqueued >= 10,
            "all incomparable arrivals survive the frontier: {stats:?}"
        );

        // Tight threshold pairs are satisfied by exactly one edge each.
        for j in [0u32, 4, 9] {
            let o = opts()
                .with_constraint(AttrConstraint::at_least(
                    bw.clone(),
                    1000.0 - 10.0 * f64::from(j),
                ))
                .with_constraint(AttrConstraint::at_least(
                    cpu.clone(),
                    10.0 + 10.0 * f64::from(j),
                ));
            let (proof, _) =
                g.direct_query(&Node::entity(&f.maria), &Node::role(target.clone()), &o);
            let proof = proof.unwrap_or_else(|| panic!("edge {j} satisfies both constraints"));
            let acc = proof.accumulate();
            assert_eq!(acc.effective(&bw, 1000.0), 1000.0 - 10.0 * f64::from(j));
            assert_eq!(acc.effective(&cpu, 1000.0), 10.0 + 10.0 * f64::from(j));
        }
    }
}
