//! The execution graph, in the two forms an exploration produces.
//!
//! Both engines build an [`InternedGraph`]: each node is the
//! [`CompactConfig`] key row the dedup index already holds (shared by
//! `Arc`, never copied), and the edges are one compressed-sparse-row
//! array — `u32` offsets into packed `(target, pid, outcome)` triples.
//! Every `check_*` terminal decides on it directly, reading each process
//! status through a table with one entry per distinct status id; the n-DAC
//! check also builds the configurations its solo runs start from, one node
//! at a time. [`ExplorationGraph`], the public form with one owned
//! [`Configuration`] per node, is built from it once, by
//! [`crate::explore::Exploration::run`] alone.
//!
//! The graph predicates — non-termination search, path reconstruction,
//! the n-DAC solo-abort search, agreement, validity and undecided
//! terminals — are written once, over [`GraphView`], which both forms
//! implement.

use crate::checker::CheckStats;
use crate::config::Configuration;
use crate::intern::{CompactConfig, Interner, ARC_HEADER};
use crate::stats::ExploreStats;
use lbsa_core::{AnyState, Pid, Value};
use lbsa_runtime::process::ProcStatus;
use std::collections::VecDeque;
use std::sync::Arc;

/// One labelled edge of the execution graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// The process that takes the step.
    pub pid: Pid,
    /// The index of the object outcome chosen (0 for deterministic objects).
    pub outcome: usize,
    /// Index of the target configuration.
    pub target: usize,
}

/// The (possibly truncated) execution graph of a protocol.
#[derive(Clone, Debug)]
pub struct ExplorationGraph<L> {
    /// All discovered configurations; index 0 is the initial configuration.
    pub configs: Vec<Configuration<L>>,
    /// Outgoing edges per configuration. Empty for unexpanded (frontier)
    /// configurations of a truncated graph and for terminal configurations.
    pub edges: Vec<Vec<Edge>>,
    /// `expanded[i]` is `true` if configuration `i`'s successors were
    /// computed (always true when `complete`).
    pub expanded: Vec<bool>,
    /// `true` if the whole reachable space was covered.
    pub complete: bool,
    /// Total number of transitions discovered.
    pub transitions: usize,
    /// Metrics of the exploration that built this graph. Timing fields vary
    /// run to run; everything structural is deterministic.
    pub stats: ExploreStats,
}

impl<L> ExplorationGraph<L> {
    /// Number of discovered configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Returns `true` if the graph holds no configurations (never the case
    /// for graphs built by [`crate::explore::Exploration::run`], which
    /// always contain at least the initial configuration).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Heap bytes of the interned graph the engine built this graph from:
    /// one shared key row per configuration, the compressed edge array and
    /// the expansion set — what a `check_*` terminal holds while it
    /// checks. It is a structural estimate (allocator rounding is not
    /// counted), equal to the `mem.graph_bytes` gauge of the run. The
    /// owned configurations and edge lists of this materialized form, and
    /// the interners (`ExploreStats::interner_bytes`), are not counted.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let width = self
            .configs
            .first()
            .map_or(0, |c| c.object_states.len() + c.procs.len());
        interned_bytes(self.configs.len(), width, self.transitions)
    }

    /// Iterates over the indices of terminal configurations (no process can
    /// step).
    pub fn terminal_indices(&self) -> impl Iterator<Item = usize> + '_
    where
        L: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    {
        self.configs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_terminal())
            .map(|(i, _)| i)
    }

    /// Structural equality: same configurations at the same indices, same
    /// edges, same expansion set, same completeness. Stats (timings) are
    /// deliberately ignored — this is the equality under which the engine
    /// guarantees thread-count independence.
    #[must_use]
    pub fn same_structure(&self, other: &Self) -> bool
    where
        L: PartialEq,
    {
        self.configs == other.configs
            && self.edges == other.edges
            && self.expanded == other.expanded
            && self.complete == other.complete
            && self.transitions == other.transitions
    }

    /// A hash over the graph's structural content (configurations, edges,
    /// expansion set, completeness) — a cheap fingerprint for determinism
    /// checks across runs and thread counts.
    #[must_use]
    pub fn structural_digest(&self) -> u64
    where
        L: std::hash::Hash,
    {
        use std::hash::{Hash, Hasher};
        let mut h = lbsa_support::hash::FxHasher::default();
        self.configs.hash(&mut h);
        self.edges.hash(&mut h);
        self.expanded.hash(&mut h);
        self.complete.hash(&mut h);
        self.transitions.hash(&mut h);
        h.finish()
    }

    /// Returns `true` if the graph contains a cycle reachable from the
    /// initial configuration (iterative three-color DFS).
    #[must_use]
    pub fn has_cycle(&self) -> bool {
        first_cycle(self).is_some()
    }

    /// Renders the graph in Graphviz DOT format. `label` produces each
    /// node's label; terminal configurations are drawn as double circles,
    /// the initial configuration as a box.
    #[must_use]
    pub fn to_dot<F>(&self, mut label: F) -> String
    where
        L: Clone + Eq + std::hash::Hash + std::fmt::Debug,
        F: FnMut(usize, &Configuration<L>) -> String,
    {
        use std::fmt::Write as _;
        let mut out = String::from("digraph execution {\n  rankdir=LR;\n");
        for (i, config) in self.configs.iter().enumerate() {
            let text = label(i, config).replace('"', "'");
            let shape = if i == 0 {
                "box"
            } else if config.is_terminal() {
                "doublecircle"
            } else {
                "ellipse"
            };
            let _ = writeln!(out, "  n{i} [label=\"{text}\", shape={shape}];");
        }
        for (i, edges) in self.edges.iter().enumerate() {
            for e in edges {
                let _ = writeln!(
                    out,
                    "  n{i} -> n{} [label=\"{}/{}\"];",
                    e.target, e.pid, e.outcome
                );
            }
        }
        out.push_str("}\n");
        out
    }

    /// Reconstructs a path (as a list of edges) from the initial
    /// configuration to `target` by BFS.
    #[must_use]
    pub fn path_to(&self, target: usize) -> Option<Vec<Edge>> {
        path_to(self, target)
    }
}

/// What the graph predicates read off one process status.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct StatusFacts {
    pub(crate) decision: Option<Value>,
    pub(crate) running: bool,
    pub(crate) aborted: bool,
}

impl StatusFacts {
    fn of<L>(status: &ProcStatus<L>) -> Self {
        StatusFacts {
            decision: status.decision(),
            running: status.is_running(),
            aborted: matches!(status, ProcStatus::Aborted),
        }
    }
}

/// The adjacency and per-process statuses of an execution graph: what the
/// graph predicates need, and all they see, so each is written once for
/// both [`ExplorationGraph`] and [`InternedGraph`].
pub(crate) trait GraphView {
    /// Number of nodes; node 0 is the root.
    fn node_count(&self) -> usize;
    /// `true` if the whole reachable space was covered.
    fn is_complete(&self) -> bool;
    /// Number of edges.
    fn transition_count(&self) -> usize;
    /// Number of outgoing edges of `node`.
    fn degree(&self, node: usize) -> usize;
    /// The `i`-th outgoing edge of `node`, in `(pid, outcome)` order.
    fn edge(&self, node: usize, i: usize) -> Edge;
    /// The statuses of `node`'s processes, in pid order.
    fn statuses(&self, node: usize) -> impl Iterator<Item = StatusFacts> + '_;

    /// The outgoing edges of `node`, in `(pid, outcome)` order.
    fn out_edges(&self, node: usize) -> impl Iterator<Item = Edge> + '_ {
        (0..self.degree(node)).map(move |i| self.edge(node, i))
    }

    /// `true` if no process of `node` can step.
    fn is_terminal(&self, node: usize) -> bool {
        self.statuses(node).all(|s| !s.running)
    }

    /// `true` if every process of `node` has decided.
    fn all_decided(&self, node: usize) -> bool {
        self.statuses(node).all(|s| s.decision.is_some())
    }

    /// `true` if `pid` has aborted in `node`.
    fn has_aborted(&self, node: usize, pid: Pid) -> bool {
        self.statuses(node)
            .nth(pid.index())
            .is_some_and(|s| s.aborted)
    }

    /// What a check over this graph examined.
    fn check_stats(&self) -> CheckStats {
        CheckStats {
            configs: self.node_count(),
            transitions: self.transition_count(),
        }
    }
}

impl<L> GraphView for ExplorationGraph<L> {
    fn node_count(&self) -> usize {
        self.configs.len()
    }

    fn is_complete(&self) -> bool {
        self.complete
    }

    fn transition_count(&self) -> usize {
        self.transitions
    }

    fn degree(&self, node: usize) -> usize {
        self.edges[node].len()
    }

    fn edge(&self, node: usize, i: usize) -> Edge {
        self.edges[node][i]
    }

    fn statuses(&self, node: usize) -> impl Iterator<Item = StatusFacts> + '_ {
        self.configs[node].procs.iter().map(StatusFacts::of)
    }
}

/// Reconstructs a path (as a list of edges) from the root to `target` by
/// BFS; `None` if `target` is unreachable through recorded edges.
pub(crate) fn path_to<G: GraphView>(graph: &G, target: usize) -> Option<Vec<Edge>> {
    bfs_path(graph, |_| true, |node| node == target)
}

/// Breadth-first search from the root along the edges `follow` admits, to
/// the first node `hit` accepts (the root included); returns the edge path
/// to it, or `None` if no such node is reachable that way.
pub(crate) fn bfs_path<G: GraphView>(
    graph: &G,
    follow: impl Fn(&Edge) -> bool,
    hit: impl Fn(usize) -> bool,
) -> Option<Vec<Edge>> {
    if hit(0) {
        return Some(vec![]);
    }
    let n = graph.node_count();
    let mut pred: Vec<Option<(usize, Edge)>> = vec![None; n];
    let mut queue = VecDeque::from([0usize]);
    let mut seen = vec![false; n];
    seen[0] = true;
    while let Some(node) = queue.pop_front() {
        for e in graph.out_edges(node) {
            if seen[e.target] || !follow(&e) {
                continue;
            }
            seen[e.target] = true;
            pred[e.target] = Some((node, e));
            if hit(e.target) {
                let mut path = vec![];
                let mut cur = e.target;
                while cur != 0 {
                    let (p, edge) = pred[cur].expect("predecessor recorded");
                    path.push(edge);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(e.target);
        }
    }
    None
}

/// The first cycle an iterative three-colour DFS from the root closes:
/// the cycle's entry node, and the cycle's edges from the entry back to
/// it. `None` if no cycle is reachable.
pub(crate) fn first_cycle<G: GraphView>(graph: &G) -> Option<(usize, Vec<Edge>)> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; graph.node_count()];
    // Stack of (node, next edge index); path[i] is the edge taken from
    // stack[i] to stack[i + 1].
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    let mut path: Vec<Edge> = Vec::new();
    color[0] = Color::Grey;
    while let Some(&mut (node, ref mut next)) = stack.last_mut() {
        if *next < graph.degree(node) {
            let edge = graph.edge(node, *next);
            *next += 1;
            match color[edge.target] {
                Color::Grey => {
                    // A back edge: its target is on the stack, and the path
                    // from there on closes the cycle.
                    let pos = stack
                        .iter()
                        .position(|&(v, _)| v == edge.target)
                        .expect("grey nodes are on the stack");
                    let mut cycle = path.split_off(pos);
                    cycle.push(edge);
                    return Some((edge.target, cycle));
                }
                Color::White => {
                    color[edge.target] = Color::Grey;
                    stack.push((edge.target, 0));
                    path.push(edge);
                }
                Color::Black => {}
            }
        } else {
            color[node] = Color::Black;
            stack.pop();
            path.pop();
        }
    }
    None
}

/// One edge of an [`InternedGraph`], packed into eight bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PackedEdge {
    pub(crate) target: u32,
    pid: u16,
    outcome: u16,
}

impl PackedEdge {
    /// Packs an edge to `target`.
    ///
    /// # Panics
    ///
    /// Panics past 65,535 processes or object outcomes.
    pub(crate) fn new(target: u32, pid: Pid, outcome: usize) -> Self {
        PackedEdge {
            target,
            pid: u16::try_from(pid.index()).expect("at most 65,535 processes"),
            outcome: u16::try_from(outcome).expect("at most 65,535 object outcomes"),
        }
    }

    fn unpack(self) -> Edge {
        Edge {
            pid: Pid(usize::from(self.pid)),
            outcome: usize::from(self.outcome),
            target: self.target as usize,
        }
    }
}

/// Compressed-sparse-row edges: node `i`'s edges are
/// `edges[offsets[i]..offsets[i + 1]]`.
#[derive(Debug)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    pub(crate) edges: Vec<PackedEdge>,
}

impl Csr {
    /// An empty edge array, to which nodes are appended in index order:
    /// push a node's edges onto [`Csr::edges`], then
    /// [`Csr::close_node`].
    pub(crate) fn new() -> Self {
        Csr {
            offsets: vec![0],
            edges: Vec::new(),
        }
    }

    /// Ends the edge list of the next node in index order.
    pub(crate) fn close_node(&mut self) {
        self.offsets.push(offset(self.edges.len()));
    }

    /// Gives every node past the last closed one, up to `nodes`, an empty
    /// edge list.
    pub(crate) fn finish(mut self, nodes: usize) -> Self {
        let end = offset(self.edges.len());
        self.offsets.resize(nodes + 1, end);
        self
    }

    /// Assembles the edge array of `nodes` nodes from per-worker pieces:
    /// each piece is an edge pool and the `(node, start, len)` slices of it
    /// that hold the edges of the nodes the worker expanded. One pass sizes
    /// every node's slot, a prefix sum places them, and one copy per node
    /// fills them. Returns the edges and the expansion set.
    pub(crate) fn assemble<'p>(
        nodes: usize,
        pieces: impl Iterator<Item = (&'p [PackedEdge], &'p [(u32, u32, u32)])> + Clone,
    ) -> (Self, Vec<bool>) {
        let mut offsets = vec![0u32; nodes + 1];
        let mut expanded = vec![false; nodes];
        for (_, tasks) in pieces.clone() {
            for &(node, _, len) in tasks {
                offsets[node as usize + 1] = len;
                expanded[node as usize] = true;
            }
        }
        for i in 0..nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut edges = vec![PackedEdge::default(); offsets[nodes] as usize];
        for (pool, tasks) in pieces {
            for &(node, start, len) in tasks {
                let at = offsets[node as usize] as usize;
                let (start, len) = (start as usize, len as usize);
                edges[at..at + len].copy_from_slice(&pool[start..start + len]);
            }
        }
        (Csr { offsets, edges }, expanded)
    }
}

/// `len` as a CSR offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("graphs are bounded well below u32::MAX edges")
}

/// Heap bytes of an interned graph of `nodes` key rows of `width` ids
/// with `transitions` edges: the rows (one `Arc<[u32]>` each, plus its
/// slot), the CSR offsets and packed edges, and the expansion flags.
fn interned_bytes(nodes: usize, width: usize, transitions: usize) -> usize {
    let row =
        ARC_HEADER + width * std::mem::size_of::<u32>() + std::mem::size_of::<CompactConfig>();
    nodes * row
        + (nodes + 1) * std::mem::size_of::<u32>()
        + transitions * std::mem::size_of::<PackedEdge>()
        + nodes
}

/// The graph both engines build (see the module docs). It owns the
/// interners its rows' ids refer to.
pub(crate) struct InternedGraph<L> {
    /// One key row per node — object-state ids, then process-status ids —
    /// shared with the dedup index that numbered it.
    rows: Vec<CompactConfig>,
    /// Object-state ids at the head of each row.
    n_obj: usize,
    csr: Csr,
    expanded: Vec<bool>,
    complete: bool,
    stats: ExploreStats,
    states: Interner<AnyState>,
    procs: Interner<ProcStatus<L>>,
    /// The facts of each distinct process status, indexed by status id.
    facts: Vec<StatusFacts>,
}

impl<L: Clone + Eq + std::hash::Hash> InternedGraph<L> {
    /// Assembles a graph from an engine's output. `csr` must cover every
    /// row (see [`Csr::finish`]); `interners` are the ones the rows' ids
    /// came from.
    pub(crate) fn new(
        rows: Vec<CompactConfig>,
        n_obj: usize,
        (csr, expanded): (Csr, Vec<bool>),
        complete: bool,
        stats: ExploreStats,
        (states, procs): (Interner<AnyState>, Interner<ProcStatus<L>>),
    ) -> Self {
        debug_assert_eq!(csr.offsets.len(), rows.len() + 1);
        let facts = procs
            .by_id()
            .iter()
            .map(|s| {
                s.as_deref()
                    .map_or_else(StatusFacts::default, StatusFacts::of)
            })
            .collect();
        InternedGraph {
            rows,
            n_obj,
            csr,
            expanded,
            complete,
            stats,
            states,
            procs,
            facts,
        }
    }

    /// Heap bytes of the rows, edges and expansion set (see
    /// [`ExplorationGraph::approx_bytes`]).
    pub(crate) fn approx_bytes(&self) -> usize {
        let width = self.rows.first().map_or(0, |r| r.len());
        interned_bytes(self.rows.len(), width, self.csr.edges.len())
    }

    /// Builds the public graph: every row resolved into an owned
    /// [`Configuration`], every edge unpacked. With `threads > 1` the rows
    /// are split into that many contiguous shares, built in parallel and
    /// joined in order, so the result does not depend on `threads`.
    pub(crate) fn materialize(&self, threads: usize) -> ExplorationGraph<L>
    where
        L: Send + Sync,
    {
        let config = self.config_resolver();
        let build = |nodes: std::ops::Range<usize>| -> (Vec<Configuration<L>>, Vec<Vec<Edge>>) {
            let configs = nodes.clone().map(&config).collect();
            let edges = nodes.map(|node| self.out_edges(node).collect()).collect();
            (configs, edges)
        };
        let n = self.rows.len();
        let (configs, edges) = if threads <= 1 {
            build(0..n)
        } else {
            let share = n.div_ceil(threads).max(1);
            let parts: Vec<_> = std::thread::scope(|s| {
                let build = &build;
                let handles: Vec<_> = (0..n)
                    .step_by(share)
                    .map(|lo| s.spawn(move || build(lo..(lo + share).min(n))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("materializing worker panicked"))
                    .collect()
            });
            let mut configs = Vec::with_capacity(n);
            let mut edges = Vec::with_capacity(n);
            for (c, e) in parts {
                configs.extend(c);
                edges.extend(e);
            }
            (configs, edges)
        };
        ExplorationGraph {
            configs,
            edges,
            expanded: self.expanded.clone(),
            complete: self.complete,
            transitions: self.stats.transitions,
            stats: self.stats.clone(),
        }
    }

    /// Resolves nodes into owned [`Configuration`]s through one id-indexed
    /// table per interner, taken once, so resolving takes no lock per id.
    pub(crate) fn config_resolver(&self) -> impl Fn(usize) -> Configuration<L> + Sync + '_
    where
        L: Send + Sync,
    {
        let states = self.states.by_id();
        let procs = self.procs.by_id();
        move |node| {
            let (objs, ps) = self.rows[node].split_at(self.n_obj);
            Configuration {
                object_states: objs.iter().map(|&id| resolved(&states, id)).collect(),
                procs: ps.iter().map(|&id| resolved(&procs, id)).collect(),
            }
        }
    }
}

/// The value behind `id` in an [`Interner::by_id`] table.
fn resolved<T: Clone>(table: &[Option<Arc<T>>], id: u32) -> T {
    T::clone(
        table[id as usize]
            .as_deref()
            .expect("every row id is interned"),
    )
}

impl<L> GraphView for InternedGraph<L> {
    fn node_count(&self) -> usize {
        self.rows.len()
    }

    fn is_complete(&self) -> bool {
        self.complete
    }

    fn transition_count(&self) -> usize {
        self.csr.edges.len()
    }

    fn degree(&self, node: usize) -> usize {
        (self.csr.offsets[node + 1] - self.csr.offsets[node]) as usize
    }

    fn edge(&self, node: usize, i: usize) -> Edge {
        self.csr.edges[self.csr.offsets[node] as usize + i].unpack()
    }

    fn out_edges(&self, node: usize) -> impl Iterator<Item = Edge> + '_ {
        let (start, end) = (self.csr.offsets[node], self.csr.offsets[node + 1]);
        self.csr.edges[start as usize..end as usize]
            .iter()
            .map(|e| e.unpack())
    }

    fn statuses(&self, node: usize) -> impl Iterator<Item = StatusFacts> + '_ {
        self.rows[node][self.n_obj..]
            .iter()
            .map(|&id| self.facts[id as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Explorer, Frontier, Limits};
    use lbsa_core::{AnyObject, ObjId, Op};
    use lbsa_runtime::process::{Protocol, Step};
    use lbsa_support::obs::Tracer;

    /// Three processes propose their pid to a strong 2-SA object, twice,
    /// then end in each way a process can: pid 0 decides the response,
    /// pid 1 aborts, pid 2 halts. The object answers nondeterministically,
    /// so nodes have several outcomes per step.
    #[derive(Debug)]
    struct EveryEnding;

    impl Protocol for EveryEnding {
        type LocalState = u8;
        fn num_processes(&self) -> usize {
            3
        }
        fn init(&self, _pid: Pid) -> u8 {
            0
        }
        fn pending_op(&self, pid: Pid, _s: &u8) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(Value::Int(pid.index() as i64)))
        }
        fn on_response(&self, pid: Pid, s: &u8, resp: Value) -> Step<u8> {
            match (pid.index(), s) {
                (_, 0) => Step::Continue(1),
                (0, _) => Step::Decide(resp),
                (1, _) => Step::Abort,
                _ => Step::Halt,
            }
        }
    }

    /// Asserts that `g` reads the same through the view as its
    /// materialized form: nodes, statuses, edges and footprint.
    fn assert_views_agree(g: &InternedGraph<u8>) {
        let m = g.materialize(1);
        let parallel = g.materialize(3);
        assert_eq!(m.configs, parallel.configs);
        assert_eq!(m.edges, parallel.edges);
        assert_eq!(g.node_count(), m.node_count());
        assert_eq!(g.transition_count(), m.transition_count());
        assert_eq!(g.is_complete(), m.is_complete());
        assert_eq!(g.approx_bytes(), m.approx_bytes());
        for node in 0..g.node_count() {
            assert!(
                g.statuses(node).eq(m.statuses(node)),
                "statuses of node {node}"
            );
            assert_eq!(g.degree(node), m.degree(node));
            let edges: Vec<Edge> = (0..g.degree(node)).map(|i| g.edge(node, i)).collect();
            assert_eq!(edges, m.edges[node]);
            assert_eq!(g.out_edges(node).collect::<Vec<_>>(), m.edges[node]);
        }
    }

    fn interned(frontier: Frontier, limits: Limits) -> InternedGraph<u8> {
        let objects = [AnyObject::strong_sa()];
        let ex = Explorer::new(&EveryEnding, &objects);
        let mut builder = ex
            .exploration()
            .frontier(frontier)
            .threads(2)
            .limits(limits);
        builder
            .explore(&Tracer::disabled(), None, None)
            .expect("explorable")
    }

    #[test]
    fn interned_and_materialized_graphs_read_the_same() {
        for frontier in [Frontier::Deterministic, Frontier::WorkStealing] {
            let g = interned(frontier, Limits::default());
            assert!(g.is_complete());
            assert!((0..g.node_count()).any(|i| g.has_aborted(i, Pid(1))));
            assert!((0..g.node_count()).any(|i| g.is_terminal(i) && !g.all_decided(i)));
            assert_views_agree(&g);
            for budget in [1, 5] {
                let g = interned(frontier, Limits::new(budget));
                assert!(!g.is_complete());
                assert_views_agree(&g);
            }
        }
    }

    #[test]
    fn csr_assembly_places_each_slice_at_its_node() {
        let edge = |target| PackedEdge::new(target, Pid(0), 0);
        let pool_a = [edge(7), edge(8), edge(9)];
        let pool_b = [edge(5)];
        let tasks_a = [(2, 1, 2), (0, 0, 1)];
        let tasks_b = [(3, 0, 1)];
        let pieces = [(&pool_a[..], &tasks_a[..]), (&pool_b[..], &tasks_b[..])];
        let (csr, expanded) = Csr::assemble(5, pieces.iter().copied());
        assert_eq!(csr.offsets, vec![0, 1, 1, 3, 4, 4]);
        let targets: Vec<u32> = csr.edges.iter().map(|e| e.target).collect();
        assert_eq!(targets, vec![7, 8, 9, 5]);
        assert_eq!(expanded, vec![true, false, true, true, false]);
    }

    #[test]
    fn packed_edges_round_trip() {
        let e = PackedEdge::new(41, Pid(3), 2).unpack();
        assert_eq!(
            e,
            Edge {
                pid: Pid(3),
                outcome: 2,
                target: 41
            }
        );
        assert_eq!(std::mem::size_of::<PackedEdge>(), 8);
    }
}
