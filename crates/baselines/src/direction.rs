//! Experiment F-A (§4.2.3): what search direction costs on the shipped
//! discovery path. Each [`funnel`] is deployed as a [`SimNet`]
//! federation, one home wallet per node, and the shipped
//! [`DiscoveryAgent`] runs on it once per [`Tags`] setting: the `S`/`O`
//! flags decide where each credential is stored (§4.2.1) and which
//! directions discovery may search. The layered-DAG table counts the
//! authorizing paths themselves against a wallet's single-answer search.
//! [`render`] prints every F-A table, as EXPERIMENTS.md holds it.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::sync::Arc;

use drbac_core::{
    DiscoveryTag, Node, ObjectFlag, SignedDelegation, SimClock, SubjectFlag, Ticks, Timestamp,
    WalletAddr,
};
use drbac_graph::SearchOptions;
use drbac_net::{Directory, DiscoveryAgent, DiscoveryOutcome, DiscoveryStep, SimNet};
use drbac_wallet::Wallet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workload::{funnel, layered_dag, Workload, WorkloadSpec};

/// The seed every funnel is built from, in every table and under every
/// tag setting.
pub const FUNNEL_SEED: u64 = 7;

/// The flags every discovery tag of a federation carries. A `Search`
/// subject flag stores a credential at its subject's home, an object
/// flag at its object's home; each lets discovery search from its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tags(pub SubjectFlag, pub ObjectFlag);

impl Tags {
    /// `S`, `O` and `S`+`O`, in table order.
    pub const ALL: [Tags; 3] = [
        Tags(SubjectFlag::Search, ObjectFlag::None),
        Tags(SubjectFlag::None, ObjectFlag::Search),
        Tags(SubjectFlag::Search, ObjectFlag::Search),
    ];
}

/// One funnel, `funnel(branching, depth, wide_forward)` built from
/// [`FUNNEL_SEED`]. A `cut` funnel lacks the chain's last edge into the
/// object, so no proof exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Fan-out of the wide side.
    pub branching: usize,
    /// Role layers between subject and object on the real chain.
    pub depth: usize,
    /// Decoys fan out forward (`true`) or backward (`false`).
    pub wide_forward: bool,
    /// The chain's last edge is removed.
    pub cut: bool,
}

/// A cell deployed under one tag setting.
#[derive(Debug)]
pub struct Federation {
    /// Every node's home wallet and the credentials stored there.
    pub homes: BTreeMap<WalletAddr, Vec<Arc<SignedDelegation>>>,
    /// The gateway's directory: only the two endpoints' tags, as in
    /// Figure 2. Every other home is learned from absorbed proofs.
    pub directory: Directory,
    /// The querying principal.
    pub subject: Node,
    /// The target role.
    pub object: Node,
}

/// What one discovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// A proof was found.
    pub found: bool,
    /// Remote wallets contacted.
    pub wallets: usize,
    /// Frontier nodes whose home was asked the direct query.
    pub hops: usize,
    /// Messages on the wire, subscriptions included.
    pub messages: u64,
}

impl Row {
    /// The row of `outcome`, whose run put `messages` on the wire.
    pub fn of(outcome: &DiscoveryOutcome, messages: u64) -> Row {
        let direct = |step: &&DiscoveryStep| matches!(step, DiscoveryStep::RemoteDirect { .. });
        Row {
            found: outcome.found(),
            wallets: outcome.wallets_contacted.len(),
            hops: outcome.trace.iter().filter(direct).count(),
            messages,
        }
    }
}

impl Cell {
    /// The funnel deployed under `tags`: every credential re-signed with
    /// its subject's and object's tags, and stored at the homes they name.
    pub fn federation(&self, tags: Tags) -> Federation {
        self.deploy(&self.funnel(), tags)
    }

    fn funnel(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(FUNNEL_SEED);
        funnel(self.branching, self.depth, self.wide_forward, &mut rng)
    }

    fn deploy(&self, w: &Workload, Tags(s, o): Tags) -> Federation {
        let tag = |node: &Node| {
            let home = match node {
                Node::Role(role) => format!("home.{}", role.name()),
                _ => "home.subject".to_string(),
            };
            DiscoveryTag::new(home.as_str())
                .with_subject_flag(s)
                .with_object_flag(o)
        };
        let last = Node::role(w.owner.role(&format!("p{}", self.depth - 1)));
        let mut edges: Vec<(Node, Node)> = (w.graph.iter_certs().iter())
            .map(|cert| cert.delegation())
            .map(|d| (d.subject().clone(), d.object().clone()))
            .filter(|(from, to)| !(self.cut && *from == last && *to == w.object))
            .collect();
        edges.sort();
        let mut homes: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for (subject, object) in edges {
            let (subject_tag, object_tag) = (tag(&subject), tag(&object));
            let stores = [
                (subject_tag.home().clone(), s == SubjectFlag::Search),
                (object_tag.home().clone(), o == ObjectFlag::Search),
            ];
            let cert = (w.owner.delegate(subject, object).subject_tag(subject_tag))
                .object_tag(object_tag)
                .sign(&w.owner)
                .expect("a self-certified delegation signs");
            let cert = Arc::new(cert);
            for (home, stored) in stores {
                (homes.entry(home).or_default()).extend(stored.then(|| Arc::clone(&cert)));
            }
        }
        let mut directory = Directory::new();
        for endpoint in [&w.subject, &w.object] {
            homes.entry(tag(endpoint).home().clone()).or_default();
            directory.register(endpoint.clone(), tag(endpoint));
        }
        Federation {
            homes,
            directory,
            subject: w.subject.clone(),
            object: w.object.clone(),
        }
    }

    /// The federation's size, and its rows under `S`, `O` and `S`+`O`.
    fn measure(&self) -> (usize, [Row; 3]) {
        let (w, mut size) = (self.funnel(), 0);
        let rows = Tags::ALL.map(|tags| {
            let federation = self.deploy(&w, tags);
            size = federation.homes.len();
            federation.discover()
        });
        (size, rows)
    }
}

impl Federation {
    /// Runs one discovery on SimNet, from a gateway wallet holding
    /// nothing.
    pub fn discover(&self) -> Row {
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), Ticks(1));
        for (addr, certs) in &self.homes {
            let host = net.add_host(addr.clone(), Wallet::new(addr.clone(), clock.clone()));
            for cert in certs {
                (host.wallet().publish(Arc::clone(cert), vec![]))
                    .expect("a funnel credential publishes");
            }
        }
        let gateway = net.add_host("gateway", Wallet::new("gateway", clock));
        let mut agent = DiscoveryAgent::new(net.clone(), &gateway, self.directory.clone());
        let outcome = agent.discover(&self.subject, &self.object, &[]);
        Row::of(&outcome, net.stats().total_messages)
    }
}

/// One F-A funnel table, measured.
#[derive(Debug)]
pub struct FunnelTable {
    /// The heading.
    pub title: &'static str,
    /// Per row: the cell, its federation's size, and its rows under `S`,
    /// `O` and `S`+`O`.
    pub rows: Vec<(Cell, usize, [Row; 3])>,
}

/// F-A's funnel tables: wide-forward funnels by branching and by depth,
/// mirrored funnels by depth, and the cut funnels. A cell shown in two
/// tables is measured once, from one funnel for all three settings.
pub fn funnel_tables() -> Vec<FunnelTable> {
    let cell = |branching, depth, wide_forward, cut| Cell {
        branching,
        depth,
        wide_forward,
        cut,
    };
    let wide = |branching, depth| cell(branching, depth, true, false);
    let mirrored = |depth| cell(3, depth, false, false);
    let specs: [(&str, Vec<Cell>); 4] = [
        ("by branching", (2..=4).map(|b| wide(b, 4)).collect()),
        ("by depth", (2..=5).map(|d| wide(3, d)).collect()),
        ("mirrored", (3..=5).map(mirrored).collect()),
        ("cut", vec![cell(3, 5, true, true), cell(3, 5, false, true)]),
    ];
    let mut measured = HashMap::new();
    let mut measure = |cell: Cell| {
        let (size, rows) = *measured.entry(cell).or_insert_with(|| cell.measure());
        (cell, size, rows)
    };
    (specs.into_iter())
        .map(|(title, cells)| FunnelTable {
            title,
            rows: cells.into_iter().map(&mut measure).collect(),
        })
        .collect()
}

/// F-A's path table on layered DAGs (branching 3, width 3), per depth
/// 2…6: `(paths, enumeration edges, single-answer BFS edges)`.
pub fn path_rows() -> Vec<(usize, [usize; 3])> {
    let opts = SearchOptions::at(Timestamp(0));
    (2..=6)
        .map(|depth| {
            let spec = WorkloadSpec {
                branching: 3,
                depth,
                width: 3,
            };
            let w = layered_dag(&spec, &mut StdRng::seed_from_u64(depth as u64));
            let (paths, all) = (w.graph).enumerate_proofs(&w.subject, &w.object, &opts, 1_000_000);
            let (_, bfs) = w.graph.direct_query(&w.subject, &w.object, &opts);
            let counts = [paths.len(), all.edges_considered, bfs.edges_considered];
            (depth, counts)
        })
        .collect()
}

/// Every F-A table as markdown, exactly as EXPERIMENTS.md holds it.
pub fn render(funnels: &[FunnelTable], paths: &[(usize, [usize; 3])]) -> String {
    let mut out = String::new();
    for table in funnels {
        let _ = write!(
            out,
            "**funnels, {}**\n\n| branching | depth | wide side | wallets | proof S / O / S+O \
             | contacted S / O / S+O | hops S / O / S+O | messages S / O / S+O |\n\
             |---|---|---|---|---|---|---|---|\n",
            table.title
        );
        for (cell, size, rows) in &table.rows {
            let side = ["reverse", "forward"][usize::from(cell.wide_forward)];
            let column = |f: fn(&Row) -> String| rows.iter().map(f).collect::<Vec<_>>().join(" / ");
            let _ = writeln!(
                out,
                "| {} | {} | {side} | {size} | {} | {} | {} | {} |",
                cell.branching,
                cell.depth,
                column(|r| if r.found { "yes" } else { "no" }.into()),
                column(|r| r.wallets.to_string()),
                column(|r| r.hops.to_string()),
                column(|r| r.messages.to_string()),
            );
        }
        out.push('\n');
    }
    out.push_str(
        "**authorizing paths vs depth (layered DAG, branching 3, width 3)**\n\n\
         | depth | paths (b^d) | enumeration edges | single-answer BFS edges |\n\
         |---|---|---|---|\n",
    );
    for (depth, [paths, enumeration, bfs]) in paths {
        let _ = writeln!(out, "| {depth} | {paths} | {enumeration} | {bfs} |");
    }
    out
}
