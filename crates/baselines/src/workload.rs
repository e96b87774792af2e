//! Synthetic delegation workload generators, shared by tests and the
//! benchmark harness.

#[cfg(test)]
use drbac_core::Timestamp;
use drbac_core::{LocalEntity, Node};
use drbac_crypto::SchnorrGroup;
use drbac_graph::DelegationGraph;
use rand::seq::SliceRandom;
use rand::Rng;

/// Parameters for [`layered_dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Out-degree of each node.
    pub branching: usize,
    /// Number of role layers between subject and object.
    pub depth: usize,
    /// Roles per layer.
    pub width: usize,
}

/// A generated workload: the graph plus the endpoints to query.
#[derive(Debug)]
pub struct Workload {
    /// The populated delegation graph.
    pub graph: DelegationGraph,
    /// The querying principal.
    pub subject: Node,
    /// The target role.
    pub object: Node,
    /// The single owning entity (all delegations self-certified, so the
    /// workload isolates search cost from support-proof cost).
    pub owner: LocalEntity,
}

/// Builds a layered delegation DAG: `subject → L0 → L1 → … → object`,
/// where each node delegates to `branching` random nodes in the next
/// layer. The path count grows as `branching^depth`, reproducing the
/// §4.2.3 path-explosion setting.
pub fn layered_dag<R: Rng + ?Sized>(spec: &WorkloadSpec, rng: &mut R) -> Workload {
    assert!(spec.width >= spec.branching, "width must be >= branching");
    let owner = LocalEntity::generate("Owner", SchnorrGroup::test_256(), rng);
    let user = LocalEntity::generate("User", SchnorrGroup::test_256(), rng);
    let subject = Node::entity(&user);
    let object = Node::role(owner.role("target"));

    let graph = DelegationGraph::new();
    let layers: Vec<Vec<Node>> = (0..spec.depth)
        .map(|layer| {
            (0..spec.width)
                .map(|i| Node::role(owner.role(&format!("l{layer}-n{i}"))))
                .collect()
        })
        .collect();

    let connect = |graph: &DelegationGraph, from: &Node, targets: &[Node], rng: &mut R| {
        let mut picks: Vec<&Node> = targets.iter().collect();
        picks.shuffle(rng);
        for to in picks.into_iter().take(spec.branching) {
            graph.insert(
                owner
                    .delegate(from.clone(), to.clone())
                    .sign(&owner)
                    .expect("self-certified delegation signs"),
            );
        }
    };

    if let Some(first) = layers.first() {
        connect(&graph, &subject, first, rng);
    }
    for window in layers.windows(2) {
        for from in &window[0] {
            connect(&graph, from, &window[1], rng);
        }
    }
    if let Some(last) = layers.last() {
        for from in last {
            graph.insert(
                owner
                    .delegate(from.clone(), object.clone())
                    .sign(&owner)
                    .expect("signs"),
            );
        }
    } else {
        graph.insert(
            owner
                .delegate(subject.clone(), object.clone())
                .sign(&owner)
                .expect("signs"),
        );
    }

    Workload {
        graph,
        subject,
        object,
        owner,
    }
}

/// Builds a "funnel": one real chain of length `depth + 1` from subject
/// to object, decorated so that the wide side has out-degree `branching`
/// everywhere (a `branching`-ary decoy tree) while the narrow side has
/// in-degree 1 along the chain.
///
/// With `wide_forward = true`, decoys fan out *forward*: a
/// subject-towards-object search must explore `O(branching^depth)` decoy
/// edges, while an object-towards-subject search walks the in-degree-1
/// chain in `depth + 1` edges. `wide_forward = false` mirrors the
/// topology. [`crate::direction`] measures discovery on both. The `rng`
/// only seeds the two entities; the topology is fixed.
pub fn funnel<R: Rng + ?Sized>(
    branching: usize,
    depth: usize,
    wide_forward: bool,
    rng: &mut R,
) -> Workload {
    assert!(branching >= 2 && depth >= 1);
    let owner = LocalEntity::generate("Owner", SchnorrGroup::test_256(), rng);
    let user = LocalEntity::generate("User", SchnorrGroup::test_256(), rng);
    let subject = Node::entity(&user);
    let object = Node::role(owner.role("target"));
    let graph = DelegationGraph::new();
    let edge = |from: &Node, to: &Node| {
        let cert = owner.delegate(from.clone(), to.clone()).sign(&owner);
        graph.insert(cert.expect("signs"));
    };

    // The real chain subject → p0 → … → p(depth-1) → object.
    let roles = (0..depth).map(|i| Node::role(owner.role(&format!("p{i}"))));
    let chain: Vec<Node> = std::iter::once(subject.clone())
        .chain(roles)
        .chain([object.clone()])
        .collect();
    for pair in chain.windows(2) {
        edge(&pair[0], &pair[1]);
    }

    // Decoy trees, `depth` levels deep in the wide direction: each anchor
    // sprouts branching − 1 decoys, and every decoy `branching` more.
    // Backward decoys anchor on roles only (no edge points into a bare
    // entity), so the subject anchors only forward ones.
    let anchors = match wide_forward {
        true => &chain[..=depth],
        false => &chain[1..],
    };
    let mut decoys = 0usize;
    for anchor in anchors {
        let mut frontier = vec![anchor.clone()];
        for level in 0..depth {
            let fanout = if level == 0 { branching - 1 } else { branching };
            let parents = frontier
                .iter()
                .flat_map(|from| (0..fanout).map(move |_| from));
            frontier = parents
                .map(|from| {
                    let decoy = Node::role(owner.role(&format!("d{decoys}")));
                    decoys += 1;
                    match wide_forward {
                        true => edge(from, &decoy),
                        false => edge(&decoy, from),
                    }
                    decoy
                })
                .collect();
        }
    }

    Workload {
        graph,
        subject,
        object,
        owner,
    }
}

/// Populates a graph with `n` random role-to-role delegations among
/// `roles` role names (wallet-scale benchmarks).
pub fn random_mesh<R: Rng + ?Sized>(n: usize, roles: usize, rng: &mut R) -> Workload {
    assert!(roles >= 2);
    let owner = LocalEntity::generate("Owner", SchnorrGroup::test_256(), rng);
    let user = LocalEntity::generate("User", SchnorrGroup::test_256(), rng);
    let subject = Node::entity(&user);
    let nodes: Vec<Node> = (0..roles)
        .map(|i| Node::role(owner.role(&format!("m{i}"))))
        .collect();
    let object = nodes[roles - 1].clone();
    let graph = DelegationGraph::new();
    graph.insert(
        owner
            .delegate(subject.clone(), nodes[0].clone())
            .sign(&owner)
            .expect("signs"),
    );
    for serial in 0..n {
        let a = rng.gen_range(0..roles);
        let mut b = rng.gen_range(0..roles);
        if a == b {
            b = (b + 1) % roles;
        }
        graph.insert(
            owner
                .delegate(nodes[a].clone(), nodes[b].clone())
                .serial(serial as u64)
                .sign(&owner)
                .expect("signs"),
        );
    }
    Workload {
        graph,
        subject,
        object,
        owner,
    }
}

/// A straight chain of `len` delegations from subject to object
/// (validation-cost benchmarks).
pub fn chain<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Workload {
    assert!(len >= 1);
    let owner = LocalEntity::generate("Owner", SchnorrGroup::test_256(), rng);
    let user = LocalEntity::generate("User", SchnorrGroup::test_256(), rng);
    let subject = Node::entity(&user);
    let graph = DelegationGraph::new();
    let mut prev = subject.clone();
    for i in 0..len - 1 {
        let next = Node::role(owner.role(&format!("c{i}")));
        graph.insert(
            owner
                .delegate(prev.clone(), next.clone())
                .sign(&owner)
                .expect("signs"),
        );
        prev = next;
    }
    let object = Node::role(owner.role("target"));
    graph.insert(
        owner
            .delegate(prev, object.clone())
            .sign(&owner)
            .expect("signs"),
    );
    Workload {
        graph,
        subject,
        object,
        owner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_graph::SearchOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn layered_dag_connects_subject_to_object() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = WorkloadSpec {
            branching: 2,
            depth: 3,
            width: 4,
        };
        let w = layered_dag(&spec, &mut rng);
        let (proof, _) =
            w.graph
                .direct_query(&w.subject, &w.object, &SearchOptions::at(Timestamp(0)));
        let proof = proof.expect("connected");
        assert_eq!(proof.chain_len(), spec.depth + 1);
        // Edge count: branching + depth-1 layers * width * branching + width.
        let expected = spec.branching + (spec.depth - 1) * spec.width * spec.branching + spec.width;
        assert_eq!(w.graph.len(), expected);
    }

    #[test]
    fn chain_has_exact_length() {
        let mut rng = StdRng::seed_from_u64(8);
        let w = chain(5, &mut rng);
        let (proof, _) =
            w.graph
                .direct_query(&w.subject, &w.object, &SearchOptions::at(Timestamp(0)));
        assert_eq!(proof.unwrap().chain_len(), 5);
        assert_eq!(w.graph.len(), 5);
    }

    #[test]
    fn random_mesh_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = random_mesh(100, 20, &mut rng);
        // +1 for the subject's entry edge; serials make collisions unique.
        assert_eq!(w.graph.len(), 101);
    }

    #[test]
    fn funnel_connects_in_both_orientations() {
        let mut rng = StdRng::seed_from_u64(10);
        for wide_forward in [true, false] {
            let w = funnel(3, 3, wide_forward, &mut rng);
            let (proof, _) =
                w.graph
                    .direct_query(&w.subject, &w.object, &SearchOptions::at(Timestamp(0)));
            assert_eq!(proof.expect("real chain exists").chain_len(), 4);
        }
    }
}
