//! Reference search engine: the pre-interning, clone-heavy sequential
//! implementation, preserved verbatim as a behavioral oracle.
//!
//! The live engine (`search.rs`) interns nodes and assembles proofs from
//! parent pointers; this module keeps the original `Node`-keyed,
//! eager-proof breadth-first search so tests can assert that the
//! optimized engine produces **byte-identical** proofs across seeds and
//! graph shapes. It is `#[doc(hidden)]` and compiled into the library
//! solely for oracle tests; production callers use
//! [`DelegationGraph::direct_query`] and friends.
//!
//! Do not "improve" this module: its value is that it does not change.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use drbac_core::{
    AttrAccumulator, DeclarationSet, EntityId, Node, Proof, ProofStep, SignedDelegation,
};

use crate::search::{dominates, SearchOptions, SearchStats};
use crate::DelegationGraph;

/// One search state: a node plus the proof and accumulation that reach it.
struct State {
    node: Node,
    proof: Proof,
    acc: AttrAccumulator,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Reverse,
}

struct RefEngine<'g> {
    graph: &'g DelegationGraph,
    opts: &'g SearchOptions,
    decls: Arc<DeclarationSet>,
    stats: SearchStats,
}

/// Reference direct query: first satisfying proof `subject ⇒ object`.
pub fn direct_query_ref(
    graph: &DelegationGraph,
    subject: &Node,
    object: &Node,
    opts: &SearchOptions,
) -> (Option<Proof>, SearchStats) {
    let mut engine = RefEngine::new(graph, opts);
    let found = engine
        .search(subject, Some(object), Direction::Forward)
        .remove(object);
    (found, engine.stats)
}

/// Reference subject query: one proof per reachable node, in the same
/// deterministic order as [`DelegationGraph::subject_query`].
pub fn subject_query_ref(
    graph: &DelegationGraph,
    subject: &Node,
    opts: &SearchOptions,
) -> (Vec<Proof>, SearchStats) {
    let mut engine = RefEngine::new(graph, opts);
    let reached = engine.search(subject, None, Direction::Forward);
    let mut proofs: Vec<Proof> = reached.into_values().filter(|p| !p.is_trivial()).collect();
    proofs.sort_by_cached_key(|p| crate::search::order_key(p, p.object()));
    (proofs, engine.stats)
}

/// Reference object query: one proof per reaching node, in the same
/// deterministic order as [`DelegationGraph::object_query`].
pub fn object_query_ref(
    graph: &DelegationGraph,
    object: &Node,
    opts: &SearchOptions,
) -> (Vec<Proof>, SearchStats) {
    let mut engine = RefEngine::new(graph, opts);
    let reached = engine.search(object, None, Direction::Reverse);
    let mut proofs: Vec<Proof> = reached.into_values().filter(|p| !p.is_trivial()).collect();
    proofs.sort_by_cached_key(|p| crate::search::order_key(p, p.subject()));
    (proofs, engine.stats)
}

impl<'g> RefEngine<'g> {
    fn new(graph: &'g DelegationGraph, opts: &'g SearchOptions) -> Self {
        RefEngine {
            graph,
            opts,
            decls: graph.declarations(),
            stats: SearchStats::default(),
        }
    }

    fn search(
        &mut self,
        start: &Node,
        target: Option<&Node>,
        dir: Direction,
    ) -> HashMap<Node, Proof> {
        let mut results: HashMap<Node, Proof> = HashMap::new();
        let mut frontier: HashMap<Node, Vec<AttrAccumulator>> = HashMap::new();
        let mut queue: VecDeque<State> = VecDeque::new();

        let initial = State {
            node: start.clone(),
            proof: Proof::trivial(start.clone()),
            acc: AttrAccumulator::new(),
        };
        frontier
            .entry(start.clone())
            .or_default()
            .push(initial.acc.clone());
        results.insert(start.clone(), initial.proof.clone());
        queue.push_back(initial);

        while let Some(state) = queue.pop_front() {
            self.stats.nodes_expanded += 1;
            if state.proof.chain_len() >= self.opts.max_depth {
                continue;
            }
            let edges = match dir {
                Direction::Forward => self.graph.edges_from(&state.node, self.opts.now),
                Direction::Reverse => self.graph.edges_to(&state.node, self.opts.now),
            };
            for cert in edges {
                self.stats.edges_considered += 1;
                let next_node = match dir {
                    Direction::Forward => cert.delegation().object().clone(),
                    Direction::Reverse => cert.delegation().subject().clone(),
                };

                let mut acc = state.acc.clone();
                for clause in cert.delegation().clauses() {
                    acc.absorb_clause(clause);
                }
                if self.opts.prune_by_constraints
                    && !self.opts.constraints.is_empty()
                    && !acc.satisfies(&self.opts.constraints, &self.decls)
                {
                    continue;
                }

                if frontier.get(&next_node).is_some_and(|seen| {
                    seen.iter()
                        .any(|prev| dominates(prev, &acc, &self.opts.constraints, &self.decls))
                }) {
                    continue;
                }

                let Some(step) = self.build_step(&cert, &mut Vec::new(), 0) else {
                    continue;
                };

                let proof = match dir {
                    Direction::Forward => {
                        let tail = Proof::from_steps(vec![step]).expect("single step");
                        state
                            .proof
                            .clone()
                            .concat(tail)
                            .expect("linked by construction")
                    }
                    Direction::Reverse => {
                        let head = Proof::from_steps(vec![step]).expect("single step");
                        head.concat(state.proof.clone())
                            .expect("linked by construction")
                    }
                };
                if !proof.respects_extension_depths() {
                    continue;
                }

                let seen = frontier.entry(next_node.clone()).or_default();
                seen.retain(|prev| !dominates(&acc, prev, &self.opts.constraints, &self.decls));
                seen.push(acc.clone());

                if proof
                    .accumulate()
                    .satisfies(&self.opts.constraints, &self.decls)
                {
                    results
                        .entry(next_node.clone())
                        .or_insert_with(|| proof.clone());
                    if target == Some(&next_node) {
                        results.insert(next_node, proof);
                        return results;
                    }
                }

                self.stats.states_enqueued += 1;
                queue.push_back(State {
                    node: next_node,
                    proof,
                    acc,
                });
            }
        }
        results
    }

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

    fn resolve_support(
        &mut self,
        issuer: EntityId,
        right: &Node,
        resolving: &mut Vec<(EntityId, Node)>,
        depth: usize,
    ) -> Option<Proof> {
        if let Some(p) = self.graph.provided_support(issuer, right) {
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
            return None;
        }
        resolving.push(key);
        self.stats.support_resolutions += 1;
        let found = self.support_search(&Node::Entity(issuer), right, resolving, depth);
        resolving.pop();
        found
    }

    fn support_search(
        &mut self,
        start: &Node,
        target: &Node,
        resolving: &mut Vec<(EntityId, Node)>,
        depth: usize,
    ) -> Option<Proof> {
        let mut visited: HashSet<Node> = HashSet::new();
        let mut queue: VecDeque<(Node, Proof)> = VecDeque::new();
        visited.insert(start.clone());
        queue.push_back((start.clone(), Proof::trivial(start.clone())));
        while let Some((node, proof)) = queue.pop_front() {
            self.stats.nodes_expanded += 1;
            if proof.chain_len() >= self.opts.max_depth {
                continue;
            }
            let edges = self.graph.edges_from(&node, self.opts.now);
            for cert in edges {
                self.stats.edges_considered += 1;
                let next = cert.delegation().object().clone();
                if visited.contains(&next) {
                    continue;
                }
                let Some(step) = self.build_step(&cert, resolving, depth + 1) else {
                    continue;
                };
                let tail = Proof::from_steps(vec![step]).expect("single step");
                let next_proof = proof.clone().concat(tail).expect("linked");
                if !next_proof.respects_extension_depths() {
                    continue;
                }
                if &next == target {
                    return Some(next_proof);
                }
                visited.insert(next.clone());
                queue.push_back((next, next_proof));
            }
        }
        None
    }
}
