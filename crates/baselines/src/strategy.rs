//! Unidirectional vs bidirectional chain search (paper §4.2.3).
//!
//! "The number of potential authorizing paths in a delegation tree with a
//! constant branching factor ... is clearly exponential in depth. ... a
//! significant reduction in the number of paths that must be considered
//! is possible if the search is simultaneously conducted in both
//! directions."
//!
//! These strategies traverse raw delegation edges (no proof assembly or
//! support resolution) so the benchmark isolates pure search cost.

use std::collections::{HashSet, VecDeque};

use drbac_core::{Node, Timestamp};
use drbac_graph::DelegationGraph;

/// Work counters for one strategy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyStats {
    /// Nodes dequeued.
    pub nodes_expanded: usize,
    /// Edges examined.
    pub edges_considered: usize,
    /// Whether a path was found.
    pub found: bool,
}

/// Forward breadth-first search (subject towards object).
pub fn forward_search(
    graph: &DelegationGraph,
    subject: &Node,
    object: &Node,
    now: Timestamp,
) -> StrategyStats {
    directed_search(graph, subject, object, now, true)
}

/// Reverse breadth-first search (object towards subject).
pub fn reverse_search(
    graph: &DelegationGraph,
    subject: &Node,
    object: &Node,
    now: Timestamp,
) -> StrategyStats {
    directed_search(graph, object, subject, now, false)
}

fn directed_search(
    graph: &DelegationGraph,
    start: &Node,
    target: &Node,
    now: Timestamp,
    forward: bool,
) -> StrategyStats {
    let mut stats = StrategyStats::default();
    let mut visited: HashSet<Node> = HashSet::new();
    let mut queue: VecDeque<Node> = VecDeque::new();
    visited.insert(start.clone());
    queue.push_back(start.clone());
    while let Some(node) = queue.pop_front() {
        stats.nodes_expanded += 1;
        let neighbors: Vec<Node> = if forward {
            graph
                .edges_from(&node, now)
                .iter()
                .map(|c| c.delegation().object().clone())
                .collect()
        } else {
            graph
                .edges_to(&node, now)
                .iter()
                .map(|c| c.delegation().subject().clone())
                .collect()
        };
        for next in neighbors {
            stats.edges_considered += 1;
            if &next == target {
                stats.found = true;
                return stats;
            }
            if visited.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    stats
}

/// Bidirectional search: alternately expands the smaller frontier from
/// each end until the frontiers meet.
pub fn bidirectional_search(
    graph: &DelegationGraph,
    subject: &Node,
    object: &Node,
    now: Timestamp,
) -> StrategyStats {
    let mut stats = StrategyStats::default();
    if subject == object {
        stats.found = true;
        return stats;
    }
    let mut fwd_visited: HashSet<Node> = HashSet::from([subject.clone()]);
    let mut rev_visited: HashSet<Node> = HashSet::from([object.clone()]);
    let mut fwd_queue: VecDeque<Node> = VecDeque::from([subject.clone()]);
    let mut rev_queue: VecDeque<Node> = VecDeque::from([object.clone()]);

    while !fwd_queue.is_empty() || !rev_queue.is_empty() {
        // Expand the smaller nonempty frontier (classic meet-in-middle).
        let expand_forward = match (fwd_queue.is_empty(), rev_queue.is_empty()) {
            (false, true) => true,
            (true, false) => false,
            _ => fwd_queue.len() <= rev_queue.len(),
        };
        if expand_forward {
            if let Some(node) = fwd_queue.pop_front() {
                stats.nodes_expanded += 1;
                for cert in graph.edges_from(&node, now) {
                    stats.edges_considered += 1;
                    let next = cert.delegation().object().clone();
                    if rev_visited.contains(&next) {
                        stats.found = true;
                        return stats;
                    }
                    if fwd_visited.insert(next.clone()) {
                        fwd_queue.push_back(next);
                    }
                }
            }
        } else if let Some(node) = rev_queue.pop_front() {
            stats.nodes_expanded += 1;
            for cert in graph.edges_to(&node, now) {
                stats.edges_considered += 1;
                let next = cert.delegation().subject().clone();
                if fwd_visited.contains(&next) {
                    stats.found = true;
                    return stats;
                }
                if rev_visited.insert(next.clone()) {
                    rev_queue.push_back(next);
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{funnel, layered_dag, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_strategies_agree_on_reachability() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = WorkloadSpec {
            branching: 3,
            depth: 4,
            width: 9,
        };
        let w = layered_dag(&spec, &mut rng);
        let now = Timestamp(0);
        let f = forward_search(&w.graph, &w.subject, &w.object, now);
        let r = reverse_search(&w.graph, &w.subject, &w.object, now);
        let b = bidirectional_search(&w.graph, &w.subject, &w.object, now);
        assert!(f.found && r.found && b.found);

        let missing = Node::role(w.owner.role("not-a-role"));
        assert!(!forward_search(&w.graph, &w.subject, &missing, now).found);
        assert!(!reverse_search(&w.graph, &w.subject, &missing, now).found);
        assert!(!bidirectional_search(&w.graph, &w.subject, &missing, now).found);
    }

    #[test]
    fn bidirectional_matches_cheap_direction_on_funnels() {
        let now = Timestamp(0);
        // Wide forward side: forward search explodes, reverse is cheap,
        // bidirectional follows the small frontier and stays cheap.
        let mut rng = StdRng::seed_from_u64(2);
        let w = funnel(4, 4, true, &mut rng);
        let f = forward_search(&w.graph, &w.subject, &w.object, now);
        let r = reverse_search(&w.graph, &w.subject, &w.object, now);
        let b = bidirectional_search(&w.graph, &w.subject, &w.object, now);
        assert!(f.found && r.found && b.found);
        assert!(
            b.edges_considered < f.edges_considered / 4,
            "bi {} vs fwd {}",
            b.edges_considered,
            f.edges_considered
        );

        // Mirrored: wide reverse side.
        let w = funnel(4, 4, false, &mut rng);
        let f = forward_search(&w.graph, &w.subject, &w.object, now);
        let r2 = reverse_search(&w.graph, &w.subject, &w.object, now);
        let b = bidirectional_search(&w.graph, &w.subject, &w.object, now);
        assert!(f.found && r2.found && b.found);
        assert!(
            b.edges_considered < r2.edges_considered / 4,
            "bi {} vs rev {}",
            b.edges_considered,
            r2.edges_considered
        );
    }

    #[test]
    fn trivial_same_node_search() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = WorkloadSpec {
            branching: 2,
            depth: 2,
            width: 4,
        };
        let w = layered_dag(&spec, &mut rng);
        let s = bidirectional_search(&w.graph, &w.subject, &w.subject, Timestamp(0));
        assert!(s.found);
        assert_eq!(s.edges_considered, 0);
    }
}
