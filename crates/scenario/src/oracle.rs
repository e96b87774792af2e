//! The centralized oracle: one [`DelegationGraph`] — the same store a
//! wallet searches — that receives every schedule event and defines
//! ground truth for each query.
//!
//! Generated worlds contain no expiring credentials, so an oracle
//! answer is a pure function of the delegation/revocation set — it does
//! not drift with the simulated clock, which is what lets the same
//! schedule be checked on substrates whose clocks advance differently.

use drbac_core::{DelegationId, Proof, Timestamp};
use drbac_graph::{DelegationGraph, SearchOptions};

use crate::generate::{Event, QuerySpec};

/// Ground truth for a scenario run: the union of every published
/// delegation and declaration, minus the revocations applied so far.
#[derive(Debug, Default)]
pub struct Oracle {
    graph: DelegationGraph,
}

impl Oracle {
    /// An empty oracle.
    pub fn new() -> Oracle {
        Oracle {
            graph: DelegationGraph::new(),
        }
    }

    /// Mirrors one schedule event into the oracle (queries are no-ops).
    pub fn apply(&mut self, ev: &Event) {
        match ev {
            Event::Publish { cert, .. } => {
                self.graph.insert(std::sync::Arc::clone(cert));
            }
            Event::Declare { decl, .. } => {
                self.graph.insert_declaration(decl.declaration());
            }
            Event::Revoke { id, .. } => {
                self.graph.revoke(*id);
            }
            Event::Query(_) => {}
        }
    }

    /// The ground-truth answer for `q` at the current point of the
    /// schedule. Time-independent (no credential in a generated world
    /// expires), so `Timestamp(0)` is as good as any.
    pub fn answer(&self, q: &QuerySpec) -> Option<Proof> {
        let mut opts = SearchOptions::at(Timestamp(0));
        for c in &q.constraints {
            opts = opts.with_constraint(c.clone());
        }
        self.graph.direct_query(&q.subject, &q.object, &opts).0
    }

    /// `true` if `id` has been revoked so far.
    pub fn is_revoked(&self, id: DelegationId) -> bool {
        self.graph.is_revoked(id)
    }

    /// The underlying union graph (e.g. for declaration lookups).
    pub fn graph(&self) -> &DelegationGraph {
        &self.graph
    }
}
