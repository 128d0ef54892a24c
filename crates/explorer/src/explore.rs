//! Exhaustive exploration: the execution graph of a protocol.
//!
//! [`Explorer`] steps configurations *purely* (no mutable system), branching
//! on both sources of nondeterminism — which process moves, and which
//! admissible outcome a nondeterministic object picks. A fluent
//! [`Exploration`] builder ([`Explorer::exploration`]) builds the full
//! [`ExplorationGraph`] by breadth-first search with configuration
//! deduplication, up to a configurable limit. A complete graph
//! (`complete == true`) covers **every** execution of the protocol, which is
//! what turns the paper's universally-quantified properties into finite
//! checks.
//!
//! ```ignore
//! let graph = explorer
//!     .exploration()
//!     .limits(Limits::new(1_000_000))
//!     .threads(4)
//!     .on_progress(|level| eprintln!("level width {}", level.width))
//!     .run()?;
//! ```
//!
//! ## Engine
//!
//! Two frontier disciplines share the stepping, interning, and memo code
//! (see [`Frontier`]):
//!
//! * [`Frontier::Deterministic`] (the default) is a single-threaded,
//!   level-by-level BFS that expands each node and numbers its successors
//!   on the spot, so node indices are assigned in exactly the order a FIFO
//!   BFS assigns them. **Every run produces the identical graph** — same
//!   configurations, same indices, same edges — which keeps every
//!   downstream analysis (valency, adversary search, certification) and
//!   every recorded experiment output reproducible. It ignores
//!   [`ExploreOptions::threads`].
//! * [`Frontier::WorkStealing`] is the parallel engine: per-worker
//!   lock-free deques, a concurrent dedup index, no barrier between BFS
//!   depths. It reaches the same configurations, transitions, and verdicts,
//!   but numbers nodes in discovery order.
//!
//! Deduplication never compares full configurations: object states and
//! process statuses are hash-consed into `u32` ids
//! ([`crate::intern::Interner`]), and a configuration is keyed by its short
//! id vector in a dedup index ([`crate::intern::ShardedIndex`] or
//! [`crate::intern::ConcurrentIndex`]).
//!
//! Every exploration reports [`ExploreStats`] — throughput, dedup rate,
//! frontier shape, per-level timing — on the resulting graph.

use crate::config::Configuration;
use crate::intern::{CompactConfig, ConcurrentIndex, Interner, ShardedIndex, SHARDS};
use crate::live::{EtaModel, LiveMetrics, ProgressWatcher};
use crate::sampling::SampleConfig;
use crate::stats::{
    duration_ns, duration_us, ExploreStats, LatencyHistograms, LevelStats, PhaseTimes, WorkerStats,
};
use crate::symmetry::ConfigSymmetry;
use lbsa_core::spec::ObjectSpec;
use lbsa_core::{AnyObject, AnyState, ObjId, Op, Pid, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::process::{ProcStatus, Protocol, Step, Symmetry};
use lbsa_support::deque as lfdeque;
use lbsa_support::json::Json;
use lbsa_support::obs::{Counter, HistogramNs, Registry, TimerNs, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// A per-level progress callback, invoked by [`Exploration::run`] after
/// each BFS level with that level's [`LevelStats`].
type ProgressCallback<'e> = Box<dyn FnMut(&LevelStats) + 'e>;

/// Resource limits for exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of configurations to **expand** (compute successors
    /// of). When the reachable space is larger, the graph is returned
    /// truncated, with `complete == false`; discovered-but-unexpanded
    /// configurations stay in the graph with no outgoing edges.
    pub max_configs: usize,
}

impl Limits {
    /// Creates a limit on the number of expanded configurations.
    #[must_use]
    pub fn new(max_configs: usize) -> Self {
        Limits { max_configs }
    }
}

impl Default for Limits {
    /// Defaults to one million configurations — ample for the experiment
    /// instances, small enough to fail fast on runaway state spaces.
    fn default() -> Self {
        Limits {
            max_configs: 1_000_000,
        }
    }
}

/// Which frontier discipline the engine runs.
///
/// The two modes build graphs over the **same** reachable set (the same
/// configurations, transitions, and verdicts), but order and index the nodes
/// differently — see [`Exploration::frontier`] for the contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Frontier {
    /// Single-threaded BFS that numbers nodes in FIFO order: the graph is
    /// byte-identical on every run, and the thread count is ignored. The
    /// default, and required for witness extraction and the determinism
    /// test suite.
    #[default]
    Deterministic,
    /// Work-stealing frontier: per-worker deques with steal-half semantics
    /// and a concurrent dedup index, no inter-depth barrier. Node indices
    /// depend on discovery order, so only *verdict equality* (same
    /// configurations, transitions, and checker outcomes) is guaranteed —
    /// the parallel engine, and the one [`ExploreOptions::threads`] sizes.
    WorkStealing,
}

/// How a `check_*` terminal of the [`Exploration`] builder quantifies over
/// executions.
///
/// Both strategies answer through the same [`Verdict`](crate::Verdict)
/// type; they differ in the strength of a positive answer. Exhaustive
/// checking proves the property over *every* execution
/// ([`Outcome::Holds`](crate::Outcome::Holds)); sampled checking runs a
/// seeded random sweep and answers
/// [`Outcome::HoldsSampled`](crate::Outcome::HoldsSampled) with a
/// Clopper–Pearson confidence bound — evidence, never proof. Violations
/// found by either strategy come back as replayable, `confirm()`-able
/// [`Witness`](crate::Witness)es.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Explore the full execution graph and check it — the default, and
    /// the only strategy that can *prove* a property.
    #[default]
    Exhaustive,
    /// Run a seeded sampling sweep (see [`crate::sampling`]) instead of
    /// exploring: reaches instances far beyond the exhaustive frontier,
    /// answers with a confidence bound. The verdict and any violating seed
    /// are independent of the worker thread count.
    Sample(SampleConfig),
}

/// Tuning knobs for one exploration run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Resource limits (see [`Limits`]).
    pub limits: Limits,
    /// Worker threads of the [`Frontier::WorkStealing`] engine. `0` means
    /// auto: the `LBSA_EXPLORE_THREADS` environment variable if set,
    /// otherwise every core the machine offers (optionally capped by
    /// `LBSA_EXPLORE_MAX_THREADS`). [`Frontier::Deterministic`] always runs
    /// on one thread and ignores this field.
    pub threads: usize,
    /// Frontier discipline (see [`Frontier`]).
    pub frontier: Frontier,
}

impl ExploreOptions {
    /// Options with the given limits and automatic thread count.
    #[must_use]
    pub fn new(limits: Limits) -> Self {
        ExploreOptions {
            limits,
            threads: 0,
            frontier: Frontier::Deterministic,
        }
    }

    /// Sets the worker thread count (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the frontier discipline (see [`Frontier`]).
    #[must_use]
    pub fn with_frontier(mut self, frontier: Frontier) -> Self {
        self.frontier = frontier;
        self
    }

    /// The concrete worker count a [`Frontier::WorkStealing`] run will use
    /// (a [`Frontier::Deterministic`] run always uses one thread).
    ///
    /// `0` resolves to `LBSA_EXPLORE_THREADS` if set, otherwise all
    /// available cores; deployments that must bound the engine's footprint
    /// can set `LBSA_EXPLORE_MAX_THREADS` to cap the auto count.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        if let Some(n) = env_threads("LBSA_EXPLORE_THREADS") {
            return n;
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        match env_threads("LBSA_EXPLORE_MAX_THREADS") {
            Some(cap) => cores.min(cap),
            None => cores,
        }
    }
}

/// A positive thread count from an environment variable, if present and
/// parseable.
fn env_threads(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions::new(Limits::default())
    }
}

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
    /// for graphs built by [`Explorer::explore`], which always contain at
    /// least the initial configuration).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Approximate heap bytes held by the graph itself: the configuration
    /// and edge storage (shallow — per-configuration heap such as deep
    /// object states is estimated at one `Configuration` header each, not
    /// traversed). Feeds the `mem.graph_bytes` report metric.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let configs = self.configs.capacity() * std::mem::size_of::<Configuration<L>>();
        let edges: usize = self
            .edges
            .iter()
            .map(|e| e.capacity() * std::mem::size_of::<Edge>())
            .sum::<usize>()
            + self.edges.capacity() * std::mem::size_of::<Vec<Edge>>();
        configs + edges + self.expanded.capacity()
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
        self.find_cycle().is_some()
    }

    /// Finds a cycle if one exists: returns the index of a configuration
    /// that lies on a cycle.
    #[must_use]
    pub fn find_cycle(&self) -> Option<usize> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; self.configs.len()];
        // Iterative DFS: stack of (node, next-edge-index).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = Color::Grey;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < self.edges[node].len() {
                let target = self.edges[node][*next].target;
                *next += 1;
                match color[target] {
                    Color::Grey => return Some(target),
                    Color::White => {
                        color[target] = Color::Grey;
                        stack.push((target, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
        None
    }

    /// BFS depth of each configuration from the initial one (`None` for
    /// configurations unreachable through recorded edges — only possible in
    /// truncated graphs).
    #[must_use]
    pub fn depths(&self) -> Vec<Option<usize>> {
        let mut depth = vec![None; self.configs.len()];
        depth[0] = Some(0);
        let mut queue = VecDeque::from([0usize]);
        while let Some(node) = queue.pop_front() {
            let d = depth[node].expect("queued nodes have depths");
            for e in &self.edges[node] {
                if depth[e.target].is_none() {
                    depth[e.target] = Some(d + 1);
                    queue.push_back(e.target);
                }
            }
        }
        depth
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
        if target == 0 {
            return Some(vec![]);
        }
        let mut pred: Vec<Option<(usize, Edge)>> = vec![None; self.configs.len()];
        let mut queue = VecDeque::from([0usize]);
        let mut seen = vec![false; self.configs.len()];
        seen[0] = true;
        while let Some(node) = queue.pop_front() {
            for &e in &self.edges[node] {
                if !seen[e.target] {
                    seen[e.target] = true;
                    pred[e.target] = Some((node, e));
                    if e.target == target {
                        let mut path = vec![];
                        let mut cur = target;
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
        }
        None
    }
}

/// Canonicalization memo for symmetry-reduced exploration: maps a raw
/// successor's **delta-patched compact key** (the parent's canonical key
/// with the stepped object-state and process-status slots replaced) to the
/// successor's canonical form.
///
/// Every graph node under reduction is canonical, so a successor is fully
/// determined by `(parent key, patched slots)` — the patched key. Retry
/// loops and diamond interleavings reproduce the same patched keys from
/// thousands of parents; on a hit the engine skips materializing the raw
/// successor *and* the whole orbit computation. Entries hold both the
/// canonical compact key (for dedup probing) and the canonical
/// configuration (for the rare hit that still discovers a new node — the
/// worker that cached a key need not be the one that inserts its node).
///
/// Sharded and lock-guarded like [`TransitionMemo`], shared by the
/// work-stealing workers; the deterministic engine owns a plain-map
/// analogue.
type CanonShard<L> = lbsa_support::hash::FxHashMap<CompactConfig, CanonEntry<L>>;

/// One canon-memo entry: the canonical compact key and its configuration.
type CanonEntry<L> = (CompactConfig, Arc<Configuration<L>>);

struct CanonMemo<L> {
    shards: Vec<RwLock<CanonShard<L>>>,
    hits: Counter,
    misses: Counter,
    bytes: Counter,
}

impl<L> CanonMemo<L> {
    fn new() -> Self {
        CanonMemo {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(Default::default()))
                .collect(),
            hits: Counter::new(),
            misses: Counter::new(),
            bytes: Counter::new(),
        }
    }

    /// Approximate heap bytes held by the memo, tracked incrementally at
    /// insert time (structural estimate: key payloads plus a shallow
    /// `Configuration`; O(1) to read, so a live watcher can poll it).
    fn approx_bytes(&self) -> usize {
        usize::try_from(self.bytes.get()).unwrap_or(usize::MAX)
    }

    fn get(&self, raw_key: &[u32]) -> Option<CanonEntry<L>> {
        let found = self.shards[ShardedIndex::shard_of(raw_key)]
            .read()
            .expect("canon memo lock poisoned")
            .get(raw_key)
            .cloned();
        match found {
            Some(_) => self.hits.bump(),
            None => self.misses.bump(),
        }
        found
    }

    fn insert(&self, raw_key: CompactConfig, entry: CanonEntry<L>) {
        // 16 per Arc header, 24 assumed map-slot overhead; matches the
        // estimate discipline of `Interner::approx_bytes`.
        let bytes = 2 * 16
            + 24
            + (raw_key.len() + entry.0.len()) * std::mem::size_of::<u32>()
            + std::mem::size_of::<(CompactConfig, CanonEntry<L>)>()
            + std::mem::size_of::<Configuration<L>>();
        self.bytes.add(bytes as u64);
        self.shards[ShardedIndex::shard_of(&raw_key)]
            .write()
            .expect("canon memo lock poisoned")
            .insert(raw_key, entry);
    }
}

/// How a [`WsTask`] carries its configuration. Raw mode owns it outright:
/// the configuration rides the deque by value and the worker that expands
/// the task moves it into the assembly set — no extra allocation, no
/// refcounts. Under symmetry reduction the canonical representative is
/// shared with the canon memo, so tasks hold an `Arc` and assembly unwraps
/// it after the memo drops.
enum WsConfig<L> {
    Owned(Configuration<L>),
    Shared(Arc<Configuration<L>>),
}

impl<L> WsConfig<L> {
    fn get(&self) -> &Configuration<L> {
        match self {
            WsConfig::Owned(c) => c,
            WsConfig::Shared(a) => a,
        }
    }
}

/// One pending node of the work-stealing frontier: its assigned index, its
/// compact dedup key (the delta-interning base for its successors), and its
/// configuration (see [`WsConfig`]).
struct WsTask<L> {
    id: u32,
    key: CompactConfig,
    config: WsConfig<L>,
}

/// Backoff thresholds of the work-stealing idle loop, in consecutive
/// failed sweeps: the first [`WS_SPIN_ROUNDS`] failures spin-wait, the
/// next [`WS_YIELD_ROUNDS`] yield the core, and everything past that
/// parks the thread for [`WS_PARK`] between quiescence re-checks — so a
/// worker can burn at most `WS_SPIN_ROUNDS + WS_YIELD_ROUNDS` sweeps of
/// CPU per idle episode before it starts sleeping.
const WS_SPIN_ROUNDS: u32 = 6;
/// See [`WS_SPIN_ROUNDS`].
const WS_YIELD_ROUNDS: u32 = 10;
/// How long an exhausted worker parks between quiescence re-checks. No
/// unpark signal exists (quiescence is detected by polling `pending`),
/// so the timeout bounds both the wasted CPU and the wake-up latency.
const WS_PARK: Duration = Duration::from_micros(100);
/// Upper bound on tasks transferred by one batched steal.
const WS_STEAL_MAX: usize = 32;

/// One pre-probe *miss* of phase A, patched in place by phase B. Successors
/// whose pre-probe hit emit their edge directly in phase A and leave no
/// record at all — only misses (one per fresh configuration, a small
/// minority once dedup saturates) carry state between the phases. `edge`
/// indexes this worker's edge pool; the batched
/// [`ConcurrentIndex::get_or_insert_batch`] round supplies its target, and
/// an insert win obliges this worker to materialize the configuration.
/// Fixups and batch keys are pushed in lockstep, so the `i`-th fixup reads
/// the `i`-th batch result.
enum WsFixup<L> {
    /// Raw successor: on an insert win, materialize the config by patching
    /// the parent at `obj` / the edge's process slot.
    Raw {
        edge: u32,
        obj: u32,
        succ_state: u32,
        succ_proc: u32,
    },
    /// Canonical successor (symmetry reduction): the orbit representative
    /// is already materialized (canon memo or fresh canonicalization).
    Canon {
        edge: u32,
        arc: Arc<Configuration<L>>,
    },
}

/// What one work-stealing worker hands back at join: the sub-graph it
/// built and its scheduling counters. Node indices come from the shared
/// [`ConcurrentIndex`], so the per-worker pieces assemble by plain index
/// assignment.
struct WsWorkerOut<L> {
    /// Flat pool of every edge this worker emitted, in expansion order —
    /// one growing allocation instead of a `Vec` per task.
    edge_pool: Vec<Edge>,
    /// `(node, start, len)` slices of [`WsWorkerOut::edge_pool`] for every
    /// node this worker expanded.
    tasks: Vec<(u32, u32, u32)>,
    /// `(node, configuration)` for every *shared* (symmetry-reduction) node
    /// this worker discovered, recorded at discovery time — the canon memo
    /// co-owns these, so unexpanded nodes of truncated runs are covered.
    discovered: Vec<(u32, Arc<Configuration<L>>)>,
    /// `(node, configuration)` for every *owned* (raw-mode) node this
    /// worker expanded or discarded over budget — ownership rides the task,
    /// so the record is made where the task ends, not where it was spawned.
    discovered_owned: Vec<(u32, Configuration<L>)>,
    transitions: usize,
    dedup_hits: usize,
    steals: u64,
    steal_fails: u64,
    local_hits: u64,
    /// Deepest this worker's own deque ever got (sampled at push time).
    max_deque_depth: usize,
    /// CPU-burning backoff rounds (spin or yield) while looking for work.
    /// Bounded per idle episode by the backoff thresholds — parked waits
    /// count in `park_count`, not here.
    idle_spins: u64,
    /// Times this worker parked after exhausting the spin/yield budget.
    park_count: u64,
    /// Nanoseconds spent parked — always measured (the park path is cold).
    parked_ns: u64,
    /// Times this worker's deque buffer grew (retiring its predecessor).
    deque_grows: u64,
    /// Final estimated footprint of this worker's deque buffers (live +
    /// retired), read at loop exit while the owner end is still in scope.
    deque_bytes: usize,
    /// Keys resolved to existing nodes by batched index probes.
    index_batch_hits: u64,
    /// Transition-memo hits served by this worker's private L1 map
    /// without touching the shared sharded memo.
    memo_l1_hits: u64,
    /// Nanoseconds spent in steal sweeps, spinning, and yielding — the
    /// clock is only read on the no-local-work path, so this is always
    /// measured. Excludes parked time.
    idle_ns: u64,
    /// Nanoseconds spent expanding tasks. Needs a clock read per task, so
    /// per the overhead policy it stays zero unless the run is traced.
    busy_ns: u64,
}

impl<L> Default for WsWorkerOut<L> {
    fn default() -> Self {
        WsWorkerOut {
            edge_pool: Vec::new(),
            tasks: Vec::new(),
            discovered: Vec::new(),
            discovered_owned: Vec::new(),
            transitions: 0,
            dedup_hits: 0,
            steals: 0,
            steal_fails: 0,
            local_hits: 0,
            max_deque_depth: 0,
            idle_spins: 0,
            park_count: 0,
            parked_ns: 0,
            deque_grows: 0,
            deque_bytes: 0,
            index_batch_hits: 0,
            memo_l1_hits: 0,
            idle_ns: 0,
            busy_ns: 0,
        }
    }
}

/// Canonicalizes through the optional probe timer: traced runs clock the
/// call into the canonicalization-phase accumulator, untraced runs pay
/// nothing beyond the `Option` check (overhead policy: no per-successor
/// clock reads unless a tracer asked for them).
///
/// Goes through the one sort-and-tie implementation behind
/// [`ConfigSymmetry::canonicalize`], so engine graphs and every other
/// canonicalization agree on each orbit's representative.
fn timed_canonicalize<L: Clone>(
    sym: &ConfigSymmetry<'_, L>,
    config: &Configuration<L>,
    probe: Option<&CanonProbe>,
) -> Configuration<L> {
    match probe {
        Some(p) => {
            let t0 = Instant::now();
            let canon = sym.canonicalize(config);
            let elapsed = t0.elapsed();
            p.timer.record(elapsed);
            p.hist.record(elapsed);
            canon
        }
        None => sym.canonicalize(config),
    }
}

/// The per-call canonicalization probe behind [`timed_canonicalize`],
/// attached only when a tracer is enabled (overhead policy): the timer
/// totals into [`PhaseTimes::canonicalize`], the histogram becomes the
/// `hist.canonicalize` latency distribution of the run's stats.
#[derive(Default)]
struct CanonProbe {
    timer: TimerNs,
    hist: HistogramNs,
}

/// Memoized transition function.
///
/// By the determinism contract, the successors of one `(pid, local state,
/// object state)` triple are a pure function — and after interning, the
/// triple is three integers. The memo maps it to the interned
/// `(object-state, proc-status)` id pairs of the successors, in outcome
/// order, so recurring combinations (retry loops revisit the same local
/// state against the same object state from thousands of configurations)
/// skip the specification and protocol code entirely.
type MemoShard = lbsa_support::hash::FxHashMap<(u32, u32, u32), Arc<Pairs>>;

struct TransitionMemo {
    shards: Vec<RwLock<MemoShard>>,
    hits: Counter,
    misses: Counter,
}

impl TransitionMemo {
    fn new() -> Self {
        TransitionMemo {
            shards: (0..16)
                .map(|_| RwLock::new(lbsa_support::hash::FxHashMap::default()))
                .collect(),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    fn shard_of(key: (u32, u32, u32)) -> usize {
        (lbsa_support::hash::fx_hash(&key) as usize) & 15
    }

    fn get(&self, key: (u32, u32, u32)) -> Option<Arc<Pairs>> {
        let found = self.shards[Self::shard_of(key)]
            .read()
            .expect("memo lock poisoned")
            .get(&key)
            .cloned();
        match found {
            Some(_) => self.hits.bump(),
            None => self.misses.bump(),
        }
        found
    }

    fn insert(&self, key: (u32, u32, u32), value: Pairs) -> Arc<Pairs> {
        let arc = Arc::new(value);
        self.shards[Self::shard_of(key)]
            .write()
            .expect("memo lock poisoned")
            .insert(key, Arc::clone(&arc));
        arc
    }
}

/// The interned `(object-state id, proc-status id)` outcome pairs of one
/// step, in outcome order. Steps of deterministic objects have exactly one
/// outcome; keeping that case inline spares a heap allocation per memoized
/// transition.
#[derive(Debug)]
enum Pairs {
    One((u32, u32)),
    Many(Vec<(u32, u32)>),
}

impl Pairs {
    fn as_slice(&self) -> &[(u32, u32)] {
        match self {
            Pairs::One(pair) => std::slice::from_ref(pair),
            Pairs::Many(pairs) => pairs,
        }
    }
}

/// How a step hands freshly computed values to an [`Interner`]. The two
/// implementations let one `compute_pairs` body serve both engines:
/// `&Interner` goes through the shard locks (work-stealing workers), `&mut
/// Interner` proves exclusivity and skips them (deterministic engine).
trait InternSink<T> {
    fn put(&mut self, value: &T) -> u32;
}

impl<T: Eq + std::hash::Hash + Clone> InternSink<T> for &Interner<T> {
    fn put(&mut self, value: &T) -> u32 {
        self.intern(value)
    }
}

impl<T: Eq + std::hash::Hash + Clone> InternSink<T> for &mut Interner<T> {
    fn put(&mut self, value: &T) -> u32 {
        self.intern_mut(value)
    }
}

/// A pure, replayable stepper over a protocol's configurations.
#[derive(Debug)]
pub struct Explorer<'a, P: Protocol> {
    protocol: &'a P,
    objects: &'a [AnyObject],
    tracer: Tracer,
    registry: Option<Registry>,
}

impl<'a, P: Protocol> Explorer<'a, P> {
    /// Creates an explorer for `protocol` over `objects`, with tracing
    /// disabled (attach a sink with [`Explorer::with_trace`]).
    #[must_use]
    pub fn new(protocol: &'a P, objects: &'a [AnyObject]) -> Self {
        Explorer {
            protocol,
            objects,
            tracer: Tracer::disabled(),
            registry: None,
        }
    }

    /// Attaches a [`Tracer`]: every exploration started from this explorer
    /// and every verdict check taking it by reference emits phase events
    /// through it. A per-run override is available on the builder
    /// ([`Exploration::trace`]).
    #[must_use]
    pub fn with_trace(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a live-metrics [`Registry`]: every exploration started
    /// from this explorer (including the ones the `verdict_*` helpers run
    /// internally) publishes its live counters and gauges there, exactly
    /// as if [`Exploration::registry`] had been called on each builder.
    #[must_use]
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The attached tracer ([`Tracer::disabled`] unless
    /// [`Explorer::with_trace`] was called).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The protocol being explored.
    #[must_use]
    pub fn protocol(&self) -> &P {
        self.protocol
    }

    /// The object table.
    #[must_use]
    pub fn objects(&self) -> &[AnyObject] {
        self.objects
    }

    /// The initial configuration.
    #[must_use]
    pub fn initial_config(&self) -> Configuration<P::LocalState> {
        Configuration {
            object_states: self.objects.iter().map(ObjectSpec::initial_state).collect(),
            procs: (0..self.protocol.num_processes())
                .map(|i| ProcStatus::Running(self.protocol.init(Pid(i))))
                .collect(),
        }
    }

    /// All configurations reachable from `config` by one step of `pid`, one
    /// per admissible object outcome (in outcome order).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ProcessNotRunning`] if `pid` cannot step, and
    /// propagates specification errors.
    pub fn successors_of(
        &self,
        config: &Configuration<P::LocalState>,
        pid: Pid,
    ) -> Result<Vec<Configuration<P::LocalState>>, RuntimeError> {
        let local = match config.procs.get(pid.index()) {
            None => {
                return Err(RuntimeError::PidOutOfRange {
                    pid,
                    len: config.procs.len(),
                })
            }
            Some(ProcStatus::Running(s)) => s.clone(),
            Some(_) => return Err(RuntimeError::ProcessNotRunning(pid)),
        };
        let (obj, op) = self.protocol.pending_op(pid, &local);
        let spec = self
            .objects
            .get(obj.index())
            .ok_or(RuntimeError::ObjIdOutOfRange {
                obj,
                len: self.objects.len(),
            })?;
        let outs = spec.outcomes(&config.object_states[obj.index()], &op)?;
        Ok(outs
            .into_vec()
            .into_iter()
            .map(|(response, obj_state)| {
                let mut next = config.clone();
                next.object_states[obj.index()] = obj_state;
                next.procs[pid.index()] = match self.protocol.on_response(pid, &local, response) {
                    Step::Continue(s) => ProcStatus::Running(s),
                    Step::Decide(v) => ProcStatus::Decided(v),
                    Step::Abort => ProcStatus::Aborted,
                    Step::Halt => ProcStatus::Halted,
                };
                next
            })
            .collect())
    }

    /// Replays one chosen step: `pid` takes its pending operation and the
    /// object resolves to its `outcome`-th admissible result (0 for
    /// deterministic objects). Returns the successor configuration together
    /// with what happened at the object — the raw material for a replayable
    /// [`lbsa_runtime::trace::TraceEvent`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::OutcomeOutOfRange`] if the object admits
    /// fewer than `outcome + 1` results, plus every error
    /// [`Explorer::successors_of`] can raise.
    pub fn step(
        &self,
        config: &Configuration<P::LocalState>,
        pid: Pid,
        outcome: usize,
    ) -> Result<StepRecord<P::LocalState>, RuntimeError> {
        let local = match config.procs.get(pid.index()) {
            None => {
                return Err(RuntimeError::PidOutOfRange {
                    pid,
                    len: config.procs.len(),
                })
            }
            Some(ProcStatus::Running(s)) => s.clone(),
            Some(_) => return Err(RuntimeError::ProcessNotRunning(pid)),
        };
        let (obj, op) = self.protocol.pending_op(pid, &local);
        let spec = self
            .objects
            .get(obj.index())
            .ok_or(RuntimeError::ObjIdOutOfRange {
                obj,
                len: self.objects.len(),
            })?;
        let outs = spec
            .outcomes(&config.object_states[obj.index()], &op)?
            .into_vec();
        let len = outs.len();
        let (response, obj_state) = outs
            .into_iter()
            .nth(outcome)
            .ok_or(RuntimeError::OutcomeOutOfRange { obj, outcome, len })?;
        let mut next = config.clone();
        next.object_states[obj.index()] = obj_state;
        next.procs[pid.index()] = match self.protocol.on_response(pid, &local, response) {
            Step::Continue(s) => ProcStatus::Running(s),
            Step::Decide(v) => ProcStatus::Decided(v),
            Step::Abort => ProcStatus::Aborted,
            Step::Halt => ProcStatus::Halted,
        };
        Ok(StepRecord {
            config: next,
            obj,
            op,
            response,
        })
    }

    /// Starts a fluent [`Exploration`] of this explorer's protocol.
    ///
    /// This is the single entry point to the engine: configure the run with
    /// the builder, then finish with [`Exploration::run`] for the raw graph
    /// or a `check_*` terminal for a [`Verdict`](crate::Verdict) under the
    /// chosen [`Strategy`].
    pub fn exploration(&self) -> Exploration<'_, 'a, P> {
        Exploration::builder(self)
    }

    /// The deterministic engine behind [`Frontier::Deterministic`]: a
    /// single-threaded breadth-first search that builds the execution graph
    /// reachable from `initial`, level by level.
    ///
    /// Expansion and merge are fused: each node expands against the live
    /// index and its successors are numbered on the spot, in frontier
    /// order, so node indices follow the FIFO order of a plain BFS and the
    /// graph is identical run to run. Successors are found by
    /// **delta-interning** — a successor differs from its parent in one
    /// object state and one process status, so its dedup key is the
    /// parent's key with two slots patched — and steps go through a
    /// transition memo keyed by `(object state, process status, pid)` ids,
    /// so recurring steps skip the specification and the protocol. It
    /// takes no thread count; parallel exploration is
    /// [`Explorer::run_engine_ws`].
    fn run_engine(
        &self,
        initial: Configuration<P::LocalState>,
        limits: Limits,
        mut on_progress: Option<ProgressCallback<'_>>,
        sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
        tracer: &Tracer,
        live: Option<&LiveMetrics>,
    ) -> Result<ExplorationGraph<P::LocalState>, RuntimeError> {
        let started = Instant::now();
        if let Some(live) = live {
            live.workers.set_usize(1);
        }
        tracer.emit_with("explore.begin", || {
            Json::object()
                .set("threads", 1usize)
                .set("max_configs", limits.max_configs)
                .set("reduced", sym.is_some())
                .set("frontier", "level-sync")
        });
        // Per-call canonicalization timing means a clock read per successor,
        // so by the overhead policy it runs only under an attached tracer;
        // untraced runs report PhaseTimes::canonicalize == 0.
        let canon_store = CanonProbe::default();
        let canon_probe = tracer.enabled().then_some(&canon_store);
        // Under symmetry reduction every graph node is the canonical
        // representative of its orbit, starting with the root. The root is
        // canonicalized before the counters are read, so they account for
        // successors only: canon_patches + canon_full == transitions.
        let initial = match sym {
            Some(s) => s.canonicalize(&initial),
            None => initial,
        };
        let canon_calls_before = sym.map_or(0, ConfigSymmetry::canon_calls);
        let canon_fast_before = sym.map_or(0, ConfigSymmetry::canon_fast_hits);
        let canon_full_before = sym.map_or(0, ConfigSymmetry::canon_full_calls);
        // Per-level latency distributions: the level clocks are read anyway,
        // so these are always on.
        let hists = LatencyHistograms::default();

        let mut state_interner: Interner<AnyState> = Interner::new();
        let mut proc_interner: Interner<ProcStatus<P::LocalState>> = Interner::new();
        let mut index = ShardedIndex::new();
        let n_obj = initial.object_states.len();
        let n_procs = initial.procs.len();
        let mut scratch = vec![0u32; n_obj + n_procs];
        let mut out_scratch: Vec<Edge> = Vec::new();
        let initial_key = self.compact(&initial, &state_interner, &proc_interner);
        index.insert(initial_key.clone(), 0);

        let mut configs = vec![initial];
        let mut edges: Vec<Vec<Edge>> = vec![vec![]];
        let mut expanded = vec![false];
        let mut transitions = 0usize;
        let mut complete = true;
        let mut frontier: Vec<(u32, CompactConfig)> = vec![(0, initial_key)];

        let mut expanded_count = 0usize;
        let mut dedup_hits = 0usize;
        // Cumulative dedup already mirrored into the live registry, so the
        // per-level live update adds exactly the level's delta.
        let mut live_dedup_reported = 0usize;
        let mut peak_frontier = 0usize;
        let mut levels: Vec<LevelStats> = Vec::new();
        let mut total_expand = Duration::ZERO;
        // Transition memo: a plain map owned by this thread (entry API, no
        // locks, no `Arc` traffic), unlike the sharded [`TransitionMemo`]
        // the work-stealing workers share.
        let mut memo_hits = 0u64;
        let mut memo_misses = 0u64;
        let mut memo: lbsa_support::hash::FxHashMap<(u32, u32, u32), Pairs> =
            lbsa_support::hash::FxHashMap::with_capacity_and_hasher(256, Default::default());
        // Canonicalization memo, likewise a private plain-map analogue of
        // [`CanonMemo`]: raw delta-patched successor key → canonical form.
        let mut canon_memo: CanonShard<P::LocalState> = Default::default();
        let mut canon_hits = 0u64;

        while !frontier.is_empty() {
            peak_frontier = peak_frontier.max(frontier.len());
            // The budget counts *expanded* configurations: truncate the
            // level to whatever budget remains, in one pass.
            let budget = limits.max_configs.saturating_sub(expanded_count);
            let take = frontier.len().min(budget);
            if take < frontier.len() {
                complete = false;
            }
            if take == 0 {
                break;
            }
            let level = levels.len();
            let level_started = Instant::now();
            let mut next_frontier: Vec<(u32, CompactConfig)> = Vec::new();
            let mut level_transitions = 0usize;
            for (node_id, parent_key) in &frontier[..take] {
                let node = *node_id as usize;
                out_scratch.clear();
                for i in 0..n_procs {
                    let (obj, pairs) = {
                        let ProcStatus::Running(local) = &configs[node].procs[i] else {
                            continue;
                        };
                        let pid = Pid(i);
                        let (obj, op) = self.protocol.pending_op(pid, local);
                        let memo_key = (parent_key[obj.index()], parent_key[n_obj + i], i as u32);
                        let pairs = match memo.entry(memo_key) {
                            std::collections::hash_map::Entry::Occupied(e) => {
                                memo_hits += 1;
                                &*e.into_mut()
                            }
                            std::collections::hash_map::Entry::Vacant(v) => {
                                memo_misses += 1;
                                &*v.insert(self.compute_pairs(
                                    &configs[node],
                                    pid,
                                    local,
                                    obj,
                                    &op,
                                    &mut state_interner,
                                    &mut proc_interner,
                                )?)
                            }
                        };
                        (obj, pairs)
                    };
                    for (outcome, &(succ_state, succ_proc)) in pairs.as_slice().iter().enumerate() {
                        level_transitions += 1;
                        if let Some(symmetry) = sym {
                            // Orbit mode: the dedup key is the compacted
                            // *canonical representative*. The raw
                            // delta-patched key below is not that key,
                            // but it *identifies* the raw successor, so
                            // it memoizes the canonicalization: on a hit
                            // neither the raw successor nor any permuted
                            // copy is materialized.
                            scratch.copy_from_slice(parent_key);
                            scratch[obj.index()] = succ_state;
                            scratch[n_obj + i] = succ_proc;
                            let (key, shared) = match canon_memo.get(scratch.as_slice()).cloned() {
                                Some((ck, arc)) => {
                                    canon_hits += 1;
                                    (ck, arc)
                                }
                                None => {
                                    let canon = {
                                        let parent = &configs[node];
                                        let mut raw = parent.clone();
                                        raw.object_states[obj.index()] =
                                            state_interner.resolve_mut(succ_state).clone();
                                        raw.procs[i] = proc_interner.resolve_mut(succ_proc).clone();
                                        timed_canonicalize(symmetry, &raw, canon_probe)
                                    };
                                    let key = self.compact(&canon, &state_interner, &proc_interner);
                                    let arc = Arc::new(canon);
                                    canon_memo.insert(
                                        scratch.as_slice().into(),
                                        (key.clone(), Arc::clone(&arc)),
                                    );
                                    (key, arc)
                                }
                            };
                            let target = if let Some(t) = index.probe(&key) {
                                dedup_hits += 1;
                                t
                            } else {
                                let t = u32::try_from(configs.len())
                                    .expect("graphs are bounded well below u32::MAX nodes");
                                next_frontier.push((t, key.clone()));
                                index.insert(key, t);
                                configs
                                    .push(Arc::try_unwrap(shared).unwrap_or_else(|a| (*a).clone()));
                                edges.push(vec![]);
                                expanded.push(false);
                                t
                            };
                            out_scratch.push(Edge {
                                pid: Pid(i),
                                outcome,
                                target: target as usize,
                            });
                            continue;
                        }
                        scratch.copy_from_slice(parent_key);
                        scratch[obj.index()] = succ_state;
                        scratch[n_obj + i] = succ_proc;
                        let target = if let Some(t) = index.probe(&scratch) {
                            dedup_hits += 1;
                            t
                        } else {
                            let t = u32::try_from(configs.len())
                                .expect("graphs are bounded well below u32::MAX nodes");
                            let key: CompactConfig = scratch.as_slice().into();
                            // Build the successor from parts rather than
                            // clone-then-overwrite: the two patched slots
                            // come from the interner, the rest from the
                            // parent.
                            let mut new_state =
                                Some(state_interner.resolve_mut(succ_state).clone());
                            let mut new_proc = Some(proc_interner.resolve_mut(succ_proc).clone());
                            let next = {
                                let parent = &configs[node];
                                Configuration {
                                    object_states: parent
                                        .object_states
                                        .iter()
                                        .enumerate()
                                        .map(|(j, s)| {
                                            if j == obj.index() {
                                                new_state.take().expect("one patched slot")
                                            } else {
                                                s.clone()
                                            }
                                        })
                                        .collect(),
                                    procs: parent
                                        .procs
                                        .iter()
                                        .enumerate()
                                        .map(|(j, p)| {
                                            if j == i {
                                                new_proc.take().expect("one patched slot")
                                            } else {
                                                p.clone()
                                            }
                                        })
                                        .collect(),
                                }
                            };
                            next_frontier.push((t, key.clone()));
                            index.insert(key, t);
                            configs.push(next);
                            edges.push(vec![]);
                            expanded.push(false);
                            t
                        };
                        out_scratch.push(Edge {
                            pid: Pid(i),
                            outcome,
                            target: target as usize,
                        });
                    }
                }
                // Exact-size allocation; the scratch keeps its capacity
                // for the next node.
                edges[node] = out_scratch.clone();
                expanded[node] = true;
            }
            expanded_count += take;
            transitions += level_transitions;
            // Live mirror: one batch of relaxed bumps per level (never per
            // successor), plus O(1) gauge refreshes for the watcher.
            if let Some(live) = live {
                live.configs.add(take as u64);
                live.transitions.add(level_transitions as u64);
                live.dedup_hits
                    .add((dedup_hits - live_dedup_reported) as u64);
                live_dedup_reported = dedup_hits;
                live.frontier_depth.set_usize(next_frontier.len());
                live.mem_interner
                    .set_usize(state_interner.approx_bytes() + proc_interner.approx_bytes());
                live.mem_index.set_usize(index.approx_bytes());
            }
            // The fused loop interleaves expansion and merge, so the whole
            // level counts as expansion.
            let level_elapsed = level_started.elapsed();
            total_expand += level_elapsed;
            hists.level_expand.record(level_elapsed);
            levels.push(LevelStats {
                level,
                width: take,
                transitions: level_transitions,
                elapsed: level_elapsed,
                expand: level_elapsed,
            });
            tracer.emit_with("level", || {
                Json::object()
                    .set("level", level)
                    .set("width", take)
                    .set("transitions", level_transitions)
                    .set("dedup", level_transitions - next_frontier.len())
                    .set("expand_us", duration_us(level_elapsed))
                    .set("elapsed_us", duration_us(level_elapsed))
            });
            if let Some(cb) = on_progress.as_mut() {
                cb(levels.last().expect("level just pushed"));
            }
            if take < frontier.len() {
                // Truncated: the rest of this frontier (and everything newly
                // discovered) stays unexpanded.
                break;
            }
            frontier = next_frontier;
        }

        let stats = ExploreStats {
            configs: configs.len(),
            expanded: expanded_count,
            transitions,
            dedup_hits,
            distinct_object_states: state_interner.len(),
            distinct_proc_statuses: proc_interner.len(),
            peak_frontier,
            threads: 1,
            reduced: sym.is_some(),
            elapsed: started.elapsed(),
            phases: PhaseTimes {
                expand: total_expand,
                canonicalize: canon_store.timer.total(),
            },
            memo_hits,
            memo_misses,
            intern_hits: state_interner.hits() + proc_interner.hits(),
            intern_misses: state_interner.misses() + proc_interner.misses(),
            canon_calls: sym.map_or(0, ConfigSymmetry::canon_calls) - canon_calls_before,
            canon_patches: (sym.map_or(0, ConfigSymmetry::canon_fast_hits) - canon_fast_before)
                + canon_hits,
            canon_full: sym.map_or(0, ConfigSymmetry::canon_full_calls) - canon_full_before,
            work_stealing: false,
            steals: 0,
            steal_fails: 0,
            local_hits: 0,
            park_count: 0,
            deque_grows: 0,
            index_batch_hits: 0,
            interner_bytes: state_interner.approx_bytes() + proc_interner.approx_bytes(),
            index_bytes: index.approx_bytes(),
            levels,
            workers: Vec::new(),
            hist: {
                hists.canonicalize.merge(&canon_store.hist);
                hists
            },
        };
        tracer.emit_with("explore.end", || stats.to_json());
        Ok(ExplorationGraph {
            configs,
            edges,
            expanded,
            complete,
            transitions,
            stats,
        })
    }

    /// The work-stealing engine behind [`Frontier::WorkStealing`]: no BFS
    /// levels, no barriers. Each worker owns a LIFO deque of pending nodes;
    /// an idle worker steals the older half of a victim's deque (FIFO end —
    /// thieves take the work closest to the root, whose subtrees are
    /// largest). Deduplication goes through a [`ConcurrentIndex`] that
    /// assigns node indices in discovery order, so the graph's indexing is
    /// scheduling-dependent while its *content* — configuration set, edge
    /// multiset, stats aggregates — matches the deterministic engine's on
    /// complete runs (see [`Exploration::frontier`]).
    ///
    /// Termination uses a single pending-task counter: it is incremented
    /// before a node becomes stealable and decremented only after its
    /// expansion (including enqueuing all children), so `pending == 0` with
    /// all deques empty proves quiescence.
    ///
    /// The frontier itself is lock-free: each worker owns the bottom end of
    /// a Chase–Lev deque ([`lfdeque`], DESIGN.md §12) and thieves race on
    /// the top end with a single CAS, so no deque mutex exists anywhere on
    /// the hot path. An idle worker sweeps the other deques in ring order
    /// from a per-sweep xorshift-randomized start (so simultaneous thieves
    /// fan out instead of convoying on one victim), batch-stealing up to
    /// half the victim (capped at [`WS_STEAL_MAX`]); on a completely empty
    /// sweep it backs off spin → yield → timed park (see
    /// [`WS_SPIN_ROUNDS`]), which keeps an idle worker's CPU burn bounded
    /// while `pending` polling still detects quiescence. Successor dedup
    /// is batched: each task pre-probes read-only, then resolves all
    /// missing keys with one [`ConcurrentIndex::get_or_insert_batch`] call
    /// — one lock round per shard per task instead of one per successor.
    fn run_engine_ws(
        &self,
        initial: Configuration<P::LocalState>,
        options: ExploreOptions,
        sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
        tracer: &Tracer,
        live: Option<&LiveMetrics>,
    ) -> Result<ExplorationGraph<P::LocalState>, RuntimeError> {
        let started = Instant::now();
        let workers = options.resolved_threads().max(1);
        let limits = options.limits;
        if let Some(live) = live {
            live.workers.set_usize(workers);
        }
        tracer.emit_with("explore.begin", || {
            Json::object()
                .set("threads", workers)
                .set("max_configs", limits.max_configs)
                .set("reduced", sym.is_some())
                .set("frontier", "work-stealing")
        });
        let canon_store = CanonProbe::default();
        let canon_probe = tracer.enabled().then_some(&canon_store);
        // Under symmetry reduction every graph node is the canonical
        // representative of its orbit, starting with the root. The root is
        // canonicalized before the counters are read, so they account for
        // successors only: canon_patches + canon_full == transitions.
        let initial = match sym {
            Some(s) => s.canonicalize(&initial),
            None => initial,
        };
        let canon_calls_before = sym.map_or(0, ConfigSymmetry::canon_calls);
        let canon_fast_before = sym.map_or(0, ConfigSymmetry::canon_fast_hits);
        let canon_full_before = sym.map_or(0, ConfigSymmetry::canon_full_calls);
        // Steal and per-task expand latencies need extra clock reads on the
        // worker hot path, so they are recorded only when traced; the
        // histograms themselves are relaxed atomics shared across workers.
        let hists = LatencyHistograms::default();
        let traced = tracer.enabled();

        let state_interner: Interner<AnyState> = Interner::new();
        let proc_interner: Interner<ProcStatus<P::LocalState>> = Interner::new();
        let memo = TransitionMemo::new();
        let canon_memo: CanonMemo<P::LocalState> = CanonMemo::new();
        let index = ConcurrentIndex::new();
        let n_obj = initial.object_states.len();
        let n_procs = initial.procs.len();
        let initial_key = self.compact(&initial, &state_interner, &proc_interner);
        let (root, _) = index.get_or_insert(&initial_key);
        debug_assert_eq!(root, 0, "the root is the first interned node");
        // Raw mode moves the root into its task; shared mode keeps a handle
        // so assembly can place the root even though `discovered` (which
        // records at discovery, not expansion) never sees it.
        let mut initial_shared: Option<Arc<Configuration<P::LocalState>>> = None;
        let root_config = if sym.is_some() {
            let arc = Arc::new(initial);
            initial_shared = Some(Arc::clone(&arc));
            WsConfig::Shared(arc)
        } else {
            WsConfig::Owned(initial)
        };

        let mut owners: Vec<lfdeque::Owner<WsTask<P::LocalState>>> = Vec::with_capacity(workers);
        let mut stealers: Vec<lfdeque::Stealer<WsTask<P::LocalState>>> =
            Vec::with_capacity(workers);
        for _ in 0..workers {
            let (owner, stealer) = lfdeque::deque();
            owners.push(owner);
            stealers.push(stealer);
        }
        owners[0].push(WsTask {
            id: root,
            key: initial_key,
            config: root_config,
        });
        // Queued-or-in-flight nodes; bumped before a task becomes stealable,
        // dropped only after its children are enqueued.
        let pending = AtomicUsize::new(1);
        let peak_pending = AtomicUsize::new(1);
        // Expansion budget claims, one per task; a claim at or past the
        // limit marks the run truncated and leaves the node unexpanded.
        let claimed = AtomicUsize::new(0);
        let truncated = AtomicBool::new(false);
        let abort = AtomicBool::new(false);
        let first_error: Mutex<Option<RuntimeError>> = Mutex::new(None);

        // The whole worker loop, shared between the two launch modes below:
        // a lone worker runs it inline on the calling thread (no spawn/join
        // round-trip on the gated 1-core path), while real fleets spawn it
        // per worker under a scope. Captures the run state by reference.
        let run_worker = |me: usize, own: lfdeque::Owner<WsTask<P::LocalState>>| {
            let mut out = WsWorkerOut::default();
            let mut scratch = vec![0u32; n_obj + n_procs];
            // Per-task scratch reused for the whole run: the
            // phase-A successor records, the batched-probe key
            // set and results, and the children to enqueue.
            // Cleared between tasks, never reallocated once
            // warm — the expand path settles into zero heap
            // traffic beyond genuinely new configurations.
            let mut fixups: Vec<WsFixup<P::LocalState>> = Vec::new();
            let mut batch_keys: Vec<CompactConfig> = Vec::new();
            let mut batch_results: Vec<(u32, bool)> = Vec::new();
            let mut spawned: Vec<WsTask<P::LocalState>> = Vec::new();
            // Private L1 in front of the shared transition memo:
            // repeat (state, proc) pairs — the common case on
            // dense graphs — resolve with a plain map lookup
            // instead of a shard lock. The shared memo stays the
            // source of truth, so workers still reuse each
            // other's first computations; the L1 costs one
            // `Arc<Pairs>` clone per distinct pair per worker.
            let mut memo_l1: lbsa_support::hash::FxHashMap<(u32, u32, u32), Arc<Pairs>> =
                lbsa_support::hash::FxHashMap::default();
            // Depth-first continuation: the newest child of the
            // task just expanded rides here instead of taking a
            // deque round-trip — on chain-shaped frontiers that
            // skips the pop's mandatory fence and both `pending`
            // RMWs for almost every task. Held work is invisible
            // to thieves for exactly one expansion, the same
            // window a popped task always was.
            let mut in_hand: Option<WsTask<P::LocalState>> = None;
            // Consecutive failed sweeps drive the
            // spin→yield→park backoff; any found task resets it.
            let mut backoff: u32 = 0;
            // Cumulative counts already mirrored into the live
            // registry; each task adds only its delta.
            let mut live_tx_reported = 0usize;
            let mut live_dd_reported = 0usize;
            // Per-worker xorshift32 stream (odd seed from a
            // golden-ratio multiply) rotating each sweep's
            // starting victim so simultaneous thieves fan out
            // across victims instead of convoying on one.
            let mut rng: u32 = (me as u32).wrapping_mul(0x9E37_79B9) | 1;
            'work: loop {
                if abort.load(Ordering::Acquire) {
                    break;
                }
                // In-hand continuation first (same task the LIFO
                // pop would return, without the fence), then the
                // own deque (depth-first locally, cache-warm
                // parents), then sweep the victims.
                let task = if let Some(task) = in_hand.take() {
                    out.local_hits += 1;
                    backoff = 0;
                    task
                } else {
                    match own.pop() {
                        Some(task) => {
                            out.local_hits += 1;
                            backoff = 0;
                            task
                        }
                        None => {
                            // The no-local-work path — sweep, spin,
                            // yield — counts as idle time; the clock
                            // only runs while this worker is not
                            // expanding, so it is measured even on
                            // untraced runs. Parked waits are timed
                            // separately in `parked_ns` so reported
                            // idle stays proportional to burned CPU.
                            let sweep_t0 = Instant::now();
                            let mut stolen = None;
                            if workers > 1 {
                                rng ^= rng << 13;
                                rng ^= rng >> 17;
                                rng ^= rng << 5;
                                let rot = rng as usize % (workers - 1);
                                for k in 0..workers - 1 {
                                    let victim = (me + 1 + (rot + k) % (workers - 1)) % workers;
                                    match stealers[victim].steal_batch_and_pop(&own, WS_STEAL_MAX) {
                                        lfdeque::Steal::Taken((task, extra)) => {
                                            stolen = Some((task, victim, extra));
                                            break;
                                        }
                                        // A lost CAS race means the
                                        // victim is being drained by
                                        // someone; move on rather
                                        // than contend on one deque.
                                        lfdeque::Steal::Empty | lfdeque::Steal::Retry => {}
                                    }
                                }
                            }
                            match stolen {
                                Some((task, victim_hit, extra)) => {
                                    out.steals += 1;
                                    if let Some(live) = live {
                                        live.steals.bump();
                                    }
                                    backoff = 0;
                                    // The batched extras landed in
                                    // our own deque; the task in
                                    // hand counts toward depth too.
                                    out.max_deque_depth = out.max_deque_depth.max(own.len() + 1);
                                    let sweep = sweep_t0.elapsed();
                                    out.idle_ns = out.idle_ns.saturating_add(duration_ns(sweep));
                                    if traced {
                                        hists.steal.record(sweep);
                                        hists.steal_batch.record_ns(extra as u64 + 1);
                                        tracer.emit_with("ws.steal", || {
                                            Json::object()
                                                .set("worker", me)
                                                .set("victim", victim_hit)
                                                .set("outcome", "hit")
                                                .set("batch", extra + 1)
                                                .set("latency_us", duration_us(sweep))
                                        });
                                    }
                                    task
                                }
                                None => {
                                    out.steal_fails += 1;
                                    out.idle_ns =
                                        out.idle_ns.saturating_add(duration_ns(sweep_t0.elapsed()));
                                    // Per-attempt miss events would
                                    // be unbounded in a spin storm;
                                    // power-of-two sampling keeps the
                                    // trace logarithmic while the
                                    // `spins`/`parks` fields preserve
                                    // the storm's true intensity.
                                    if traced && out.steal_fails.is_power_of_two() {
                                        tracer.emit_with("ws.steal", || {
                                            Json::object()
                                                .set("worker", me)
                                                .set("outcome", "miss")
                                                .set("spins", out.idle_spins)
                                                .set("parks", out.park_count)
                                                .set("pending", pending.load(Ordering::Relaxed))
                                        });
                                    }
                                    if pending.load(Ordering::Acquire) == 0 {
                                        break;
                                    }
                                    // Exponential backoff: brief
                                    // spins first (work usually
                                    // reappears in microseconds),
                                    // then scheduler yields, then
                                    // timed parks — so a starved
                                    // worker's CPU burn is bounded
                                    // per idle episode while the
                                    // `pending` poll above still
                                    // detects quiescence promptly.
                                    backoff = backoff.saturating_add(1);
                                    if backoff <= WS_SPIN_ROUNDS {
                                        out.idle_spins += 1;
                                        for _ in 0..(1u32 << backoff) {
                                            std::hint::spin_loop();
                                        }
                                    } else if backoff <= WS_SPIN_ROUNDS + WS_YIELD_ROUNDS {
                                        out.idle_spins += 1;
                                        std::thread::yield_now();
                                    } else {
                                        out.park_count += 1;
                                        if let Some(live) = live {
                                            live.parked_workers.add(1);
                                        }
                                        let park_t0 = Instant::now();
                                        std::thread::park_timeout(WS_PARK);
                                        if let Some(live) = live {
                                            live.parked_workers.sub(1);
                                        }
                                        out.parked_ns = out
                                            .parked_ns
                                            .saturating_add(duration_ns(park_t0.elapsed()));
                                    }
                                    continue;
                                }
                            }
                        }
                    }
                };
                if claimed.fetch_add(1, Ordering::Relaxed) >= limits.max_configs {
                    truncated.store(true, Ordering::Relaxed);
                    // An over-budget task dies unexpanded, but
                    // raw mode must still deliver its (owned)
                    // configuration to assembly; shared mode
                    // recorded it at discovery.
                    if let WsConfig::Owned(cfg) = task.config {
                        out.discovered_owned.push((task.id, cfg));
                    }
                    pending.fetch_sub(1, Ordering::AcqRel);
                    continue;
                }
                // Per-task expansion timing is a clock read per
                // task: traced runs only.
                let task_t0 = traced.then(Instant::now);
                let config = task.config.get();
                let parent_key = &task.key;
                fixups.clear();
                batch_keys.clear();
                let edge_start = out.edge_pool.len();
                // Phase A: enumerate successors and pre-probe the
                // shared index read-only. Hits emit their edge on
                // the spot; only misses queue a key for the one
                // batched insert round and a fixup that phase B
                // patches into the already-emitted placeholder
                // edge — so the per-successor record/replay cost
                // is paid by fresh configurations only.
                for (i, status) in config.procs.iter().enumerate() {
                    let ProcStatus::Running(local) = status else {
                        continue;
                    };
                    let pid = Pid(i);
                    let (obj, op) = self.protocol.pending_op(pid, local);
                    let memo_key = (parent_key[obj.index()], parent_key[n_obj + i], i as u32);
                    // Entry API: a hit borrows the cached
                    // `Arc<Pairs>` in place — one hash, no
                    // refcount traffic — mirroring the
                    // deterministic engine's zero-clone memo.
                    let pairs = match memo_l1.entry(memo_key) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            out.memo_l1_hits += 1;
                            e.into_mut()
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            match self.step_pairs(
                                config,
                                pid,
                                local,
                                obj,
                                &op,
                                memo_key,
                                &state_interner,
                                &proc_interner,
                                &memo,
                            ) {
                                Ok(pairs) => slot.insert(pairs),
                                Err(err) => {
                                    let mut slot = first_error.lock().expect("error slot poisoned");
                                    slot.get_or_insert(err);
                                    abort.store(true, Ordering::Release);
                                    pending.fetch_sub(1, Ordering::AcqRel);
                                    break 'work;
                                }
                            }
                        }
                    };
                    for (outcome, &(succ_state, succ_proc)) in pairs.as_slice().iter().enumerate() {
                        scratch.copy_from_slice(parent_key);
                        scratch[obj.index()] = succ_state;
                        scratch[n_obj + i] = succ_proc;
                        out.transitions += 1;
                        if let Some(symmetry) = sym {
                            let (key, arc) = match canon_memo.get(&scratch) {
                                Some(entry) => entry,
                                None => {
                                    let mut raw = config.clone();
                                    raw.object_states[obj.index()] =
                                        state_interner.resolve_with(succ_state, Clone::clone);
                                    raw.procs[i] =
                                        proc_interner.resolve_with(succ_proc, Clone::clone);
                                    let canon = timed_canonicalize(symmetry, &raw, canon_probe);
                                    let key = self.compact(&canon, &state_interner, &proc_interner);
                                    let arc = Arc::new(canon);
                                    canon_memo.insert(
                                        scratch.as_slice().into(),
                                        (key.clone(), Arc::clone(&arc)),
                                    );
                                    (key, arc)
                                }
                            };
                            match index.probe(&key) {
                                Some(t) => {
                                    out.dedup_hits += 1;
                                    out.edge_pool.push(Edge {
                                        pid,
                                        outcome,
                                        target: t as usize,
                                    });
                                }
                                None => {
                                    let edge = u32::try_from(out.edge_pool.len())
                                        .expect("edge pool overflow");
                                    out.edge_pool.push(Edge {
                                        pid,
                                        outcome,
                                        target: usize::MAX,
                                    });
                                    batch_keys.push(key);
                                    fixups.push(WsFixup::Canon { edge, arc });
                                }
                            }
                        } else {
                            match index.probe(&scratch) {
                                Some(t) => {
                                    out.dedup_hits += 1;
                                    out.edge_pool.push(Edge {
                                        pid,
                                        outcome,
                                        target: t as usize,
                                    });
                                }
                                None => {
                                    let edge = u32::try_from(out.edge_pool.len())
                                        .expect("edge pool overflow");
                                    out.edge_pool.push(Edge {
                                        pid,
                                        outcome,
                                        target: usize::MAX,
                                    });
                                    batch_keys.push(scratch.as_slice().into());
                                    fixups.push(WsFixup::Raw {
                                        edge,
                                        obj: obj.index() as u32,
                                        succ_state,
                                        succ_proc,
                                    });
                                }
                            }
                        }
                    }
                }
                // Phase B: one batched index round for the keys
                // the pre-probe missed (keys another worker
                // interned since the probe come back as hits),
                // then patch each placeholder edge and
                // materialize only the insert winners.
                if batch_keys.is_empty() {
                    batch_results.clear();
                } else {
                    out.index_batch_hits +=
                        index.get_or_insert_batch(&batch_keys, &mut batch_results);
                }
                for (b, fix) in fixups.drain(..).enumerate() {
                    let (t, inserted) = batch_results[b];
                    match fix {
                        WsFixup::Canon { edge, arc } => {
                            out.edge_pool[edge as usize].target = t as usize;
                            if inserted {
                                out.discovered.push((t, Arc::clone(&arc)));
                                spawned.push(WsTask {
                                    id: t,
                                    key: Arc::clone(&batch_keys[b]),
                                    config: WsConfig::Shared(arc),
                                });
                            } else {
                                out.dedup_hits += 1;
                            }
                        }
                        WsFixup::Raw {
                            edge,
                            obj,
                            succ_state,
                            succ_proc,
                        } => {
                            let pid = {
                                let slot = &mut out.edge_pool[edge as usize];
                                slot.target = t as usize;
                                slot.pid
                            };
                            if inserted {
                                let mut next = config.clone();
                                next.object_states[obj as usize] =
                                    state_interner.resolve_with(succ_state, Clone::clone);
                                next.procs[pid.0] =
                                    proc_interner.resolve_with(succ_proc, Clone::clone);
                                spawned.push(WsTask {
                                    id: t,
                                    key: Arc::clone(&batch_keys[b]),
                                    config: WsConfig::Owned(next),
                                });
                            } else {
                                out.dedup_hits += 1;
                            }
                        }
                    }
                }
                let edge_len = out.edge_pool.len() - edge_start;
                out.tasks.push((
                    task.id,
                    u32::try_from(edge_start).expect("edge pool overflow"),
                    u32::try_from(edge_len).expect("edge fan-out overflow"),
                ));
                // Expansion done: a raw-mode task surrenders its
                // configuration to the assembly set here.
                if let WsConfig::Owned(cfg) = task.config {
                    out.discovered_owned.push((task.id, cfg));
                }
                // Retire this task and enqueue its children in
                // one `pending` update. The newest child (the
                // task the LIFO pop would return next) stays in
                // hand and inherits this task's `pending` slot —
                // so a chain of single-child tasks runs with zero
                // `pending` RMWs and zero deque traffic.
                if spawned.is_empty() {
                    pending.fetch_sub(1, Ordering::AcqRel);
                } else {
                    in_hand = spawned.pop();
                    let extra = spawned.len();
                    if extra > 0 {
                        let now = pending.fetch_add(extra, Ordering::AcqRel) + extra + 1;
                        peak_pending.fetch_max(now, Ordering::Relaxed);
                        for child in spawned.drain(..) {
                            own.push(child);
                        }
                        out.max_deque_depth = out.max_deque_depth.max(own.len() + 1);
                    }
                }
                // Live mirror: a few relaxed bumps per task (never per
                // successor), and O(1)-readable mem gauges refreshed at a
                // coarse beat so the watcher never perturbs the hot path.
                if let Some(live) = live {
                    live.configs.bump();
                    live.transitions
                        .add((out.transitions - live_tx_reported) as u64);
                    live_tx_reported = out.transitions;
                    live.dedup_hits
                        .add((out.dedup_hits - live_dd_reported) as u64);
                    live_dd_reported = out.dedup_hits;
                    live.frontier_depth
                        .set_usize(pending.load(Ordering::Relaxed));
                    if out.tasks.len().is_multiple_of(64) {
                        live.mem_interner.set_usize(
                            state_interner.approx_bytes() + proc_interner.approx_bytes(),
                        );
                        live.mem_index.set_usize(index.approx_bytes());
                        live.mem_canon.set_usize(canon_memo.approx_bytes());
                    }
                }
                if let Some(t0) = task_t0 {
                    let d = t0.elapsed();
                    out.busy_ns = out.busy_ns.saturating_add(duration_ns(d));
                    hists.task_expand.record(d);
                    // A progress beat on the first task and every
                    // 32nd after: the beat timestamps are what
                    // obs_analyze turns into the per-worker
                    // utilization timeline.
                    let done = out.tasks.len();
                    if done == 1 || done.is_multiple_of(32) {
                        let depth = own.len();
                        tracer.emit_with("ws.expand", || {
                            Json::object()
                                .set("worker", me)
                                .set("expanded", done)
                                .set("transitions", out.transitions)
                                .set("deque", depth)
                                .set("steals", out.steals)
                                .set("parks", out.park_count)
                                .set("busy_us", out.busy_ns / 1_000)
                                .set("idle_us", out.idle_ns / 1_000)
                        });
                    }
                }
            }
            out.deque_grows = own.grows();
            out.deque_bytes = own.approx_bytes();
            if traced {
                tracer.emit_with("ws.done", || {
                    Json::object()
                        .set("worker", me)
                        .set("expanded", out.tasks.len())
                        .set("transitions", out.transitions)
                        .set("steals", out.steals)
                        .set("steal_fails", out.steal_fails)
                        .set("local_hits", out.local_hits)
                        .set("max_deque_depth", out.max_deque_depth)
                        .set("idle_spins", out.idle_spins)
                        .set("park_count", out.park_count)
                        .set("parked_us", out.parked_ns / 1_000)
                        .set("deque_grows", out.deque_grows)
                        .set("index_batch_hits", out.index_batch_hits)
                        .set("idle_us", out.idle_ns / 1_000)
                        .set("busy_us", out.busy_ns / 1_000)
                });
            }
            out
        };
        let outs: Vec<WsWorkerOut<P::LocalState>> = if workers == 1 {
            let own = owners.pop().expect("exactly one owner at workers == 1");
            vec![run_worker(0, own)]
        } else {
            std::thread::scope(|s| {
                let run_worker = &run_worker;
                let handles: Vec<_> = owners
                    .into_iter()
                    .enumerate()
                    .map(|(me, own)| s.spawn(move || run_worker(me, own)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("work-stealing worker panicked"))
                    .collect()
            })
        };
        if let Some(err) = first_error.into_inner().expect("error slot poisoned") {
            return Err(err);
        }
        let canon_hits = canon_memo.hits.get();
        // Release the memo's and the deques' shares so assembly can unwrap
        // the Arcs (the stealers are the last handles keeping any
        // unexpanded tasks — aborted runs — alive).
        drop(canon_memo);
        drop(stealers);

        let count = index.len();
        let mut configs: Vec<Option<Configuration<P::LocalState>>> =
            (0..count).map(|_| None).collect();
        if let Some(arc) = initial_shared {
            configs[0] = Some(Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone()));
        }
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); count];
        let mut expanded = vec![false; count];
        let mut expanded_count = 0usize;
        let mut transitions = 0usize;
        let mut dedup_hits = 0usize;
        let mut steals = 0u64;
        let mut steal_fails = 0u64;
        let mut local_hits = 0u64;
        let mut park_count = 0u64;
        let mut deque_grows = 0u64;
        let mut deque_bytes = 0usize;
        let mut index_batch_hits = 0u64;
        let mut memo_l1_hits = 0u64;
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(outs.len());
        for (w, out) in outs.into_iter().enumerate() {
            tracer.emit_with("ws.worker", || {
                Json::object()
                    .set("worker", w)
                    .set("expanded", out.tasks.len())
                    .set("transitions", out.transitions)
                    .set("steals", out.steals)
                    .set("steal_fails", out.steal_fails)
                    .set("local_hits", out.local_hits)
                    .set("max_deque_depth", out.max_deque_depth)
                    .set("idle_spins", out.idle_spins)
                    .set("park_count", out.park_count)
                    .set("parked_us", out.parked_ns / 1_000)
                    .set("deque_grows", out.deque_grows)
                    .set("index_batch_hits", out.index_batch_hits)
                    .set("idle_us", out.idle_ns / 1_000)
                    .set("busy_us", out.busy_ns / 1_000)
            });
            transitions += out.transitions;
            dedup_hits += out.dedup_hits;
            steals += out.steals;
            steal_fails += out.steal_fails;
            local_hits += out.local_hits;
            park_count += out.park_count;
            deque_grows += out.deque_grows;
            deque_bytes += out.deque_bytes;
            index_batch_hits += out.index_batch_hits;
            memo_l1_hits += out.memo_l1_hits;
            worker_stats.push(WorkerStats {
                worker: w,
                expanded: out.tasks.len(),
                transitions: out.transitions,
                steals: out.steals,
                steal_fails: out.steal_fails,
                local_hits: out.local_hits,
                max_deque_depth: out.max_deque_depth,
                idle_spins: out.idle_spins,
                park_count: out.park_count,
                deque_grows: out.deque_grows,
                idle: Duration::from_nanos(out.idle_ns),
                parked: Duration::from_nanos(out.parked_ns),
                busy: Duration::from_nanos(out.busy_ns),
            });
            for (id, arc) in out.discovered {
                configs[id as usize] = Some(Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone()));
            }
            for (id, cfg) in out.discovered_owned {
                configs[id as usize] = Some(cfg);
            }
            for (id, start, len) in out.tasks {
                let start = start as usize;
                edges[id as usize] = out.edge_pool[start..start + len as usize].to_vec();
                expanded[id as usize] = true;
                expanded_count += 1;
            }
        }
        let configs: Vec<Configuration<P::LocalState>> = configs
            .into_iter()
            .map(|c| c.expect("every interned node carries a configuration"))
            .collect();
        let complete = !truncated.load(Ordering::Relaxed);
        // One clock read for both the total and the expand phase: without a
        // barrier the whole run is one expansion phase, and reading the
        // clock twice would make `phases.expand` exceed `elapsed`.
        let elapsed = started.elapsed();

        let stats = ExploreStats {
            configs: configs.len(),
            expanded: expanded_count,
            transitions,
            dedup_hits,
            distinct_object_states: state_interner.len(),
            distinct_proc_statuses: proc_interner.len(),
            peak_frontier: peak_pending.load(Ordering::Relaxed),
            threads: workers,
            reduced: sym.is_some(),
            elapsed,
            phases: PhaseTimes {
                expand: elapsed,
                canonicalize: canon_store.timer.total(),
            },
            memo_hits: memo.hits.get() + memo_l1_hits,
            memo_misses: memo.misses.get(),
            intern_hits: state_interner.hits() + proc_interner.hits(),
            intern_misses: state_interner.misses() + proc_interner.misses(),
            canon_calls: sym.map_or(0, ConfigSymmetry::canon_calls) - canon_calls_before,
            canon_patches: (sym.map_or(0, ConfigSymmetry::canon_fast_hits) - canon_fast_before)
                + canon_hits,
            canon_full: sym.map_or(0, ConfigSymmetry::canon_full_calls) - canon_full_before,
            work_stealing: true,
            steals,
            steal_fails,
            local_hits,
            park_count,
            deque_grows,
            index_batch_hits,
            interner_bytes: state_interner.approx_bytes() + proc_interner.approx_bytes(),
            index_bytes: index.approx_bytes(),
            levels: Vec::new(),
            workers: worker_stats,
            hist: {
                hists.canonicalize.merge(&canon_store.hist);
                hists
            },
        };
        // Final gauge sync: the frontier is drained, and the deque
        // footprint is only known after the owners returned.
        if let Some(live) = live {
            live.frontier_depth.set(0);
            live.mem_interner.set_usize(stats.interner_bytes);
            live.mem_index.set_usize(stats.index_bytes);
            live.mem_deques.set_usize(deque_bytes);
        }
        tracer.emit_with("explore.end", || stats.to_json());
        Ok(ExplorationGraph {
            configs,
            edges,
            expanded,
            complete,
            transitions,
            stats,
        })
    }

    /// Interns every component of `config` into a compact id vector:
    /// object-state ids followed by process-status ids.
    fn compact(
        &self,
        config: &Configuration<P::LocalState>,
        state_interner: &Interner<AnyState>,
        proc_interner: &Interner<ProcStatus<P::LocalState>>,
    ) -> CompactConfig {
        config
            .object_states
            .iter()
            .map(|s| state_interner.intern(s))
            .chain(config.procs.iter().map(|p| proc_interner.intern(p)))
            .collect()
    }

    /// The interned outcome pairs of one step, through the memo: on a hit,
    /// neither the object specification nor the protocol runs.
    #[allow(clippy::too_many_arguments)]
    fn step_pairs(
        &self,
        config: &Configuration<P::LocalState>,
        pid: Pid,
        local: &P::LocalState,
        obj: ObjId,
        op: &Op,
        memo_key: (u32, u32, u32),
        state_interner: &Interner<AnyState>,
        proc_interner: &Interner<ProcStatus<P::LocalState>>,
        memo: &TransitionMemo,
    ) -> Result<Arc<Pairs>, RuntimeError> {
        if let Some(hit) = memo.get(memo_key) {
            return Ok(hit);
        }
        let computed =
            self.compute_pairs(config, pid, local, obj, op, state_interner, proc_interner)?;
        Ok(memo.insert(memo_key, computed))
    }

    /// The raw (un-memoized) step: run the specification and the protocol,
    /// intern the results. Generic over the intern handle so the
    /// deterministic engine gets the lock-free `&mut` interners while
    /// work-stealing workers share the locking `&` ones.
    #[allow(clippy::too_many_arguments)]
    fn compute_pairs<SI, PI>(
        &self,
        config: &Configuration<P::LocalState>,
        pid: Pid,
        local: &P::LocalState,
        obj: ObjId,
        op: &Op,
        mut state_interner: SI,
        mut proc_interner: PI,
    ) -> Result<Pairs, RuntimeError>
    where
        SI: InternSink<AnyState>,
        PI: InternSink<ProcStatus<P::LocalState>>,
    {
        let spec = self
            .objects
            .get(obj.index())
            .ok_or(RuntimeError::ObjIdOutOfRange {
                obj,
                len: self.objects.len(),
            })?;
        let mut outs = spec
            .outcomes(&config.object_states[obj.index()], op)?
            .into_vec();
        let mut pair = |response, obj_state: &AnyState| {
            let status = match self.protocol.on_response(pid, local, response) {
                Step::Continue(s) => ProcStatus::Running(s),
                Step::Decide(v) => ProcStatus::Decided(v),
                Step::Abort => ProcStatus::Aborted,
                Step::Halt => ProcStatus::Halted,
            };
            (state_interner.put(obj_state), proc_interner.put(&status))
        };
        if outs.len() == 1 {
            let (response, obj_state) = outs.pop().expect("length checked");
            return Ok(Pairs::One(pair(response, &obj_state)));
        }
        Ok(Pairs::Many(
            outs.into_iter()
                .map(|(response, obj_state)| pair(response, &obj_state))
                .collect(),
        ))
    }
}

/// The result of replaying one chosen step via [`Explorer::step`]: the
/// successor configuration plus the object-level event that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord<L> {
    /// The successor configuration.
    pub config: Configuration<L>,
    /// The object the operation was applied to.
    pub obj: ObjId,
    /// The operation taken.
    pub op: Op,
    /// The response the chosen outcome returned.
    pub response: Value,
}

/// A fluent, configured exploration run: the single front door to the
/// engine.
///
/// Build one with [`Explorer::exploration`] (or [`Exploration::builder`]),
/// chain the knobs you need, then [`Exploration::run`]:
///
/// ```ignore
/// let graph = explorer
///     .exploration()
///     .from(config)                 // default: the initial configuration
///     .limits(Limits::new(50_000))  // default: Limits::default()
///     .threads(1)                   // default: auto
///     .on_progress(|l| eprintln!("{} configs", l.width))
///     .run()?;
/// ```
#[must_use = "an Exploration does nothing until .run() is called"]
pub struct Exploration<'e, 'a, P: Protocol> {
    explorer: &'e Explorer<'a, P>,
    from: Option<Configuration<P::LocalState>>,
    options: ExploreOptions,
    on_progress: Option<ProgressCallback<'e>>,
    symmetry: Option<ConfigSymmetry<'a, P::LocalState>>,
    tracer: Option<Tracer>,
    strategy: Strategy,
    registry: Option<Registry>,
    progress_every: Option<Duration>,
}

/// What a `check_*` terminal (see [`crate::verdict`]) needs from a
/// consumed builder: the graph is only built for the exhaustive strategy,
/// and the symmetry handle survives the run so reduced-graph violations
/// can be de-canonicalized.
pub(crate) struct CheckParts<'e, 'a, P: Protocol> {
    pub explorer: &'e Explorer<'a, P>,
    pub tracer: Tracer,
    pub strategy: Strategy,
    pub symmetry: Option<ConfigSymmetry<'a, P::LocalState>>,
    pub graph: Option<Result<ExplorationGraph<P::LocalState>, RuntimeError>>,
    /// Live-metrics handles, present when the builder opted into a
    /// registry or progress streaming. Exhaustive strategies consume them
    /// inside [`Exploration::run_for_check`]; sampling hands them to the
    /// verdict layer, whose sweep does the actual work.
    pub live: Option<LiveMetrics>,
    /// The builder's progress cadence, for strategies (sampling) whose
    /// work runs after `run_for_check` returns.
    pub progress_every: Option<Duration>,
}

impl<'e, 'a, P: Protocol> Exploration<'e, 'a, P> {
    /// Starts a builder over `explorer` with default options: the initial
    /// configuration, [`Limits::default`], automatic thread count, no
    /// progress callback.
    pub fn builder(explorer: &'e Explorer<'a, P>) -> Self {
        Exploration {
            explorer,
            from: None,
            options: ExploreOptions::default(),
            on_progress: None,
            symmetry: None,
            tracer: None,
            strategy: Strategy::default(),
            registry: explorer.registry.clone(),
            progress_every: None,
        }
    }

    /// Selects how the `check_*` terminals quantify over executions (see
    /// [`Strategy`]). [`Exploration::run`] always explores exhaustively —
    /// a graph of sampled runs would be a contradiction in terms — so this
    /// only affects the checking terminals.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Shorthand for `.strategy(Strategy::Sample(config))`: the `check_*`
    /// terminals run a seeded sampling sweep instead of exploring.
    ///
    /// ```ignore
    /// let verdict = explorer
    ///     .exploration()
    ///     .sample(SampleConfig { runs: 10_000, ..SampleConfig::default() })
    ///     .check_consensus(&inputs);
    /// match verdict.outcome {
    ///     Outcome::HoldsSampled { confidence, .. } => println!("p(viol) < {}", 1.0 - confidence),
    ///     Outcome::Violated(_) => println!("{}", verdict.describe()), // witness replays the seed
    ///     _ => unreachable!(),
    /// }
    /// ```
    pub fn sample(self, config: SampleConfig) -> Self {
        self.strategy(Strategy::Sample(config))
    }

    /// Sets the resource limits (see [`Limits`]).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.options.limits = limits;
        self
    }

    /// Caps the number of configurations to expand — shorthand for
    /// `.limits(Limits::new(max_configs))`.
    pub fn max_configs(mut self, max_configs: usize) -> Self {
        self.options.limits = Limits::new(max_configs);
        self
    }

    /// Sets the work-stealing worker count (`0` = auto; see
    /// [`ExploreOptions::threads`]). The deterministic frontier ignores it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Replaces both limits and thread count with a prebuilt
    /// [`ExploreOptions`].
    pub fn options(mut self, options: ExploreOptions) -> Self {
        self.options = options;
        self
    }

    /// Starts the search from `initial` instead of the protocol's initial
    /// configuration.
    pub fn from(mut self, initial: Configuration<P::LocalState>) -> Self {
        self.from = Some(initial);
        self
    }

    /// Enables symmetry reduction: the graph's nodes become canonical orbit
    /// representatives under the protocol's declared pid symmetry
    /// ([`lbsa_runtime::process::Symmetry`]), shrinking the explored state
    /// space by up to the symmetry group's order. No-op when the declared
    /// group is trivial (all pid classes distinct).
    ///
    /// The resulting graph's node set is a system of orbit representatives,
    /// not the raw reachable set: checker predicates are orbit-invariant
    /// (see [`crate::symmetry`]), and witnesses extracted from a reduced
    /// graph must be de-canonicalized through
    /// [`crate::symmetry::Concretizer`] before replay on the raw system —
    /// the `*_reduced` entry points in [`crate::verdict`] do exactly that.
    pub fn symmetric(mut self) -> Self
    where
        P: Symmetry,
        P::LocalState: Ord,
    {
        let sym = ConfigSymmetry::of(self.explorer.protocol);
        self.symmetry = if sym.is_trivial() { None } else { Some(sym) };
        self
    }

    /// Selects the frontier discipline (see [`Frontier`]).
    ///
    /// **Mode contract.** Both modes explore the same reachable set and
    /// yield equal [`ExploreStats`] aggregates (`configs`, `expanded`,
    /// `transitions`, `dedup_hits`, distinct-value counts) on complete
    /// runs, so every checker verdict agrees between them.
    /// [`Frontier::Deterministic`] additionally guarantees byte-identical
    /// graphs — same node indices, same edge targets — on every run;
    /// [`Frontier::WorkStealing`] assigns node indices in
    /// discovery order, which depends on scheduling, and ignores
    /// `on_progress` (there are no levels to report). Truncated
    /// work-stealing runs cut the space at a scheduling-dependent
    /// boundary, so only complete runs are comparable across modes.
    pub fn frontier(mut self, frontier: Frontier) -> Self {
        self.options.frontier = frontier;
        self
    }

    /// Registers a callback invoked after each BFS level is merged, with
    /// that level's [`LevelStats`] (which carries the level's BFS index in
    /// [`LevelStats::level`]) — for progress reporting on long runs.
    pub fn on_progress(mut self, callback: impl FnMut(&LevelStats) + 'e) -> Self {
        self.on_progress = Some(Box::new(callback));
        self
    }

    /// Attaches a [`Tracer`] for this run only, overriding whatever the
    /// explorer carries ([`Explorer::with_trace`]): the engine emits
    /// `explore.begin`/`level`/`explore.end` phase events through
    /// it, and per-call canonicalization timing is switched on. Build one
    /// over any [`lbsa_support::obs::TraceSink`]:
    ///
    /// ```ignore
    /// let graph = explorer
    ///     .exploration()
    ///     .trace(Tracer::new(StderrSink))
    ///     .run()?;
    /// ```
    pub fn trace(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a live-metrics [`Registry`]: the run registers its
    /// counters and gauges (`explore.configs`, `explore.frontier_depth`,
    /// `mem.interner_bytes`, …) under dotted names and keeps them current
    /// *while the engine runs*, instead of only materializing
    /// [`ExploreStats`] at the end. Snapshot it from another thread with
    /// [`Registry::snapshot`] or render it with
    /// [`Registry::render_prometheus`] at any point during or after the
    /// run. Without this (or [`Exploration::progress_every`]) the engines
    /// skip every live update — the disabled path is one branch per level
    /// or per task.
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Streams in-flight progress: a background watcher thread samples
    /// the live metrics every `period` and emits a `progress` trace event
    /// — instantaneous and EMA configs/sec, frontier depth, worker
    /// utilization, an ETA estimate, and memory gauges — through the
    /// run's tracer, for all three strategies. A final event (with
    /// `"final": true`) is emitted at completion, so even runs shorter
    /// than one period produce at least one. Requires an enabled tracer
    /// ([`Exploration::trace`] or [`Explorer::with_trace`]); without one
    /// there is nowhere to stream and no watcher is spawned.
    pub fn progress_every(mut self, period: Duration) -> Self {
        self.progress_every = Some(period);
        self
    }

    /// The live handles this run should update, if any: an explicit
    /// registry, or a private one when only progress streaming was
    /// requested.
    fn live_metrics(&self) -> Option<LiveMetrics> {
        match (&self.registry, self.progress_every) {
            (Some(registry), _) => Some(LiveMetrics::register(registry)),
            (None, Some(_)) => Some(LiveMetrics::register(&Registry::new())),
            (None, None) => None,
        }
    }

    /// Runs the exploration and returns the execution graph.
    ///
    /// # Errors
    ///
    /// Propagates step errors (these indicate protocol bugs, not explored
    /// behaviours). The deterministic engine reports the first failing node
    /// in frontier order; the work-stealing engine reports the first
    /// failure any worker hits.
    pub fn run(mut self) -> Result<ExplorationGraph<P::LocalState>, RuntimeError> {
        let tracer = self
            .tracer
            .take()
            .unwrap_or_else(|| self.explorer.tracer.clone());
        let symmetry = self.symmetry.take();
        let live = self.live_metrics();
        self.explore(&tracer, symmetry.as_ref(), live.as_ref())
    }

    /// Consumes the builder for a `check_*` terminal: runs the engine when
    /// the strategy is exhaustive (sampling builds no graph) and hands the
    /// verdict layer the pieces [`run`](Exploration::run) would otherwise
    /// drop — the effective tracer and the symmetry handle.
    pub(crate) fn run_for_check(mut self) -> CheckParts<'e, 'a, P> {
        let explorer = self.explorer;
        let tracer = self
            .tracer
            .take()
            .unwrap_or_else(|| explorer.tracer.clone());
        let symmetry = self.symmetry.take();
        let live = self.live_metrics();
        let progress_every = self.progress_every;
        let graph = match self.strategy {
            // Sampling runs inside the verdict layer — the live handles
            // and cadence ride along in the returned parts.
            Strategy::Sample(_) => None,
            Strategy::Exhaustive => Some(self.explore(&tracer, symmetry.as_ref(), live.as_ref())),
        };
        CheckParts {
            explorer,
            tracer,
            strategy: self.strategy,
            symmetry,
            graph,
            live,
            progress_every,
        }
    }

    /// Runs the engine the frontier option selects from the start
    /// configuration, under a progress watcher when one was requested, and
    /// records the graph's footprint in the live registry.
    fn explore(
        &mut self,
        tracer: &Tracer,
        symmetry: Option<&ConfigSymmetry<'a, P::LocalState>>,
        live: Option<&LiveMetrics>,
    ) -> Result<ExplorationGraph<P::LocalState>, RuntimeError> {
        let explorer = self.explorer;
        let initial = self
            .from
            .take()
            .unwrap_or_else(|| explorer.initial_config());
        let model = match self.options.frontier {
            Frontier::Deterministic => EtaModel::LevelSync,
            Frontier::WorkStealing => EtaModel::WorkStealing,
        };
        let watcher = match (self.progress_every, live) {
            (Some(period), Some(live)) if tracer.enabled() => Some(ProgressWatcher::spawn(
                live.clone(),
                tracer.clone(),
                period,
                model,
            )),
            _ => None,
        };
        let result = match self.options.frontier {
            Frontier::Deterministic => explorer.run_engine(
                initial,
                self.options.limits,
                self.on_progress.take(),
                symmetry,
                tracer,
                live,
            ),
            Frontier::WorkStealing => {
                explorer.run_engine_ws(initial, self.options, symmetry, tracer, live)
            }
        };
        if let (Some(live), Ok(graph)) = (live, &result) {
            live.mem_graph.set_usize(graph.approx_bytes());
        }
        if let Some(watcher) = watcher {
            watcher.finish();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::{ObjId, Op, Value};

    /// Two processes propose their pid to a consensus object and decide.
    #[derive(Debug)]
    struct RaceConsensus {
        n: usize,
    }

    impl Protocol for RaceConsensus {
        type LocalState = ();

        fn num_processes(&self) -> usize {
            self.n
        }

        fn init(&self, _pid: Pid) {}

        fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(Value::Int(pid.index() as i64)))
        }

        fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
            Step::Decide(resp)
        }
    }

    /// One process proposes to a 2-SA object repeatedly, never deciding —
    /// an intentionally cyclic protocol.
    #[derive(Debug)]
    struct ForeverProposer;

    impl Protocol for ForeverProposer {
        type LocalState = ();

        fn num_processes(&self) -> usize {
            1
        }

        fn init(&self, _pid: Pid) {}

        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(Value::Int(1)))
        }

        fn on_response(&self, _pid: Pid, _s: &(), _resp: Value) -> Step<()> {
            Step::Continue(())
        }
    }

    #[test]
    fn race_consensus_graph_shape() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(g.complete);
        // Both orders of the two proposals, converging to terminal configs
        // where both decided the first proposer's value.
        for t in g.terminal_indices() {
            let c = &g.configs[t];
            assert!(c.all_decided());
            assert_eq!(c.distinct_decisions().len(), 1);
        }
        // Exactly two distinct terminal outcomes: decided-0 and decided-1.
        let outcomes: std::collections::BTreeSet<Vec<Value>> = g
            .terminal_indices()
            .map(|t| g.configs[t].distinct_decisions())
            .collect();
        assert_eq!(outcomes.len(), 2);
        assert!(!g.has_cycle());
    }

    #[test]
    fn every_interleaving_is_covered() {
        // With n processes taking exactly one step each on a deterministic
        // object, there are n! interleavings but far fewer distinct
        // configurations; the graph must count transitions, not paths.
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(g.complete);
        assert!(g.transitions >= 6);
        // All terminals agree on one value.
        for t in g.terminal_indices() {
            assert_eq!(g.configs[t].distinct_decisions().len(), 1);
        }
    }

    #[test]
    fn cyclic_protocol_is_detected() {
        let p = ForeverProposer;
        let objects = vec![AnyObject::strong_sa()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(
            g.complete,
            "state space is finite despite the infinite execution"
        );
        assert!(g.has_cycle());
        let on_cycle = g.find_cycle().unwrap();
        assert!(g.path_to(on_cycle).is_some());
    }

    #[test]
    fn truncation_is_reported() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects)
            .exploration()
            .max_configs(2)
            .run()
            .unwrap();
        assert!(!g.complete);
        assert!(g.expanded.iter().filter(|&&e| e).count() <= 2);
    }

    #[test]
    fn budget_counts_expanded_configs_exactly() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let full = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(full.complete);
        let total = full.len();
        for budget in 1..total + 2 {
            let g = Explorer::new(&p, &objects)
                .exploration()
                .max_configs(budget)
                .run()
                .unwrap();
            let expanded = g.expanded.iter().filter(|&&e| e).count();
            assert_eq!(
                expanded,
                budget.min(total),
                "budget {budget} must expand exactly min(budget, reachable)"
            );
            assert_eq!(g.stats.expanded, expanded);
            assert_eq!(g.complete, budget >= total);
            // Truncated graphs expand a prefix of the BFS order: every
            // expanded node index is below every unexpanded one that has
            // no edges recorded.
            if let Some(first_unexpanded) = g.expanded.iter().position(|&e| !e) {
                assert!(g.expanded[..first_unexpanded].iter().all(|&e| e));
                assert!(g.expanded[first_unexpanded..].iter().all(|&e| !e));
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_graph() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let sequential = ex.exploration().threads(1).run().unwrap();
        for threads in [2, 4, 8] {
            let g = ex.exploration().threads(threads).run().unwrap();
            assert!(
                sequential.same_structure(&g),
                "graph differs at {threads} threads"
            );
            assert_eq!(sequential.structural_digest(), g.structural_digest());
            assert_eq!(
                g.stats.threads, 1,
                "the deterministic engine is single-threaded"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_truncated_graphs() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        for budget in [1, 3, 7, 20] {
            let seq = ex
                .exploration()
                .max_configs(budget)
                .threads(1)
                .run()
                .unwrap();
            let par = ex
                .exploration()
                .max_configs(budget)
                .threads(4)
                .run()
                .unwrap();
            assert!(
                seq.same_structure(&par),
                "truncated graph differs at budget {budget}"
            );
        }
    }

    #[test]
    fn cyclic_graphs_are_thread_count_independent() {
        let p = ForeverProposer;
        let objects = vec![AnyObject::strong_sa()];
        let ex = Explorer::new(&p, &objects);
        let seq = ex.exploration().threads(1).run().unwrap();
        let par = ex.exploration().threads(4).run().unwrap();
        assert!(seq.same_structure(&par));
        assert!(par.has_cycle());
    }

    #[test]
    fn stats_are_consistent_with_the_graph() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert_eq!(g.stats.configs, g.len());
        assert_eq!(g.stats.transitions, g.transitions);
        assert_eq!(g.stats.expanded, g.expanded.iter().filter(|&&e| e).count());
        // Every transition either discovered a new node or deduplicated.
        assert_eq!(g.stats.dedup_hits, g.transitions - (g.len() - 1));
        assert_eq!(
            g.stats.levels.iter().map(|l| l.width).sum::<usize>(),
            g.stats.expanded
        );
        assert_eq!(
            g.stats.levels.iter().map(|l| l.transitions).sum::<usize>(),
            g.transitions
        );
        assert!(g.stats.peak_frontier >= 1);
        assert!(g.stats.dedup_rate() >= 0.0 && g.stats.dedup_rate() <= 1.0);
        assert!(!g.is_empty());
    }

    #[test]
    fn auto_thread_count_resolves_positive() {
        let options = ExploreOptions::default();
        assert!(options.resolved_threads() >= 1);
        assert_eq!(
            ExploreOptions::default().with_threads(3).resolved_threads(),
            3
        );
    }

    #[test]
    fn successors_branch_on_object_nondeterminism() {
        // A 2-SA object with two captured values gives two successor
        // configurations for one propose step.
        #[derive(Debug)]
        struct ProposeOnce;
        impl Protocol for ProposeOnce {
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
            fn on_response(&self, _pid: Pid, _s: &u8, resp: Value) -> Step<u8> {
                Step::Decide(resp)
            }
        }
        let p = ProposeOnce;
        let objects = vec![AnyObject::strong_sa()];
        let ex = Explorer::new(&p, &objects);
        let c0 = ex.initial_config();
        let c1 = &ex.successors_of(&c0, Pid(0)).unwrap()[0];
        let c2s = ex.successors_of(c1, Pid(1)).unwrap();
        // STATE = {0}; proposing 1 captures it, then either member may be
        // returned: two branches.
        assert_eq!(c2s.len(), 2);
        let decisions: Vec<_> = c2s.iter().map(|c| c.procs[1].decision().unwrap()).collect();
        assert_eq!(decisions, vec![Value::Int(0), Value::Int(1)]);
    }

    #[test]
    fn stepping_disabled_process_errors() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let c0 = ex.initial_config();
        let c1 = &ex.successors_of(&c0, Pid(0)).unwrap()[0];
        assert!(matches!(
            ex.successors_of(c1, Pid(0)),
            Err(RuntimeError::ProcessNotRunning(Pid(0)))
        ));
        assert!(matches!(
            ex.successors_of(&c0, Pid(7)),
            Err(RuntimeError::PidOutOfRange { .. })
        ));
    }

    #[test]
    fn path_reconstruction_reaches_target() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let g = ex.exploration().run().unwrap();
        for t in g.terminal_indices() {
            let path = g.path_to(t).expect("terminal reachable from root");
            // Replay the path through successors_of and confirm we land on t.
            let mut cur = g.configs[0].clone();
            for e in &path {
                cur = ex
                    .successors_of(&cur, e.pid)
                    .unwrap()
                    .into_iter()
                    .nth(e.outcome)
                    .unwrap();
            }
            assert_eq!(cur, g.configs[t]);
        }
    }

    #[test]
    fn depths_are_bfs_distances() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let depths = g.depths();
        assert_eq!(depths[0], Some(0));
        // Every edge target is at most one deeper than its source.
        for (i, edges) in g.edges.iter().enumerate() {
            for e in edges {
                let (di, dt) = (depths[i].unwrap(), depths[e.target].unwrap());
                assert!(dt <= di + 1);
            }
        }
        // Terminal configurations of this two-step protocol sit at depth 2.
        for t in g.terminal_indices() {
            assert_eq!(depths[t], Some(2));
        }
    }

    #[test]
    fn builder_from_matches_explicit_initial() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let c0 = ex.initial_config();
        let c1 = ex.successors_of(&c0, Pid(0)).unwrap().remove(0);
        let g = ex.exploration().from(c1.clone()).run().unwrap();
        assert_eq!(g.configs[0], c1);
        assert!(g.complete);
    }

    #[test]
    fn on_progress_sees_every_level() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let mut widths = Vec::new();
        let g = ex
            .exploration()
            .threads(1)
            .on_progress(|level| widths.push(level.width))
            .run()
            .unwrap();
        assert_eq!(
            widths,
            g.stats.levels.iter().map(|l| l.width).collect::<Vec<_>>()
        );
        assert_eq!(widths.iter().sum::<usize>(), g.stats.expanded);
    }

    #[test]
    fn builder_forms_produce_the_same_graph() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let reference = ex.exploration().run().unwrap();
        assert!(
            reference.same_structure(&ex.exploration().limits(Limits::default()).run().unwrap())
        );
        assert!(reference.same_structure(
            &ex.exploration()
                .options(ExploreOptions::default())
                .run()
                .unwrap()
        ));
        assert!(reference.same_structure(
            &ex.exploration()
                .from(ex.initial_config())
                .limits(Limits::default())
                .run()
                .unwrap()
        ));
        assert!(reference.same_structure(
            &ex.exploration()
                .from(ex.initial_config())
                .options(ExploreOptions::default())
                .run()
                .unwrap()
        ));
    }

    #[test]
    fn step_replays_the_chosen_successor() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let c0 = ex.initial_config();
        let succs = ex.successors_of(&c0, Pid(1)).unwrap();
        for (i, succ) in succs.iter().enumerate() {
            let rec = ex.step(&c0, Pid(1), i).unwrap();
            assert_eq!(&rec.config, succ);
            assert_eq!(rec.obj, ObjId(0));
            assert_eq!(rec.op, Op::Propose(Value::Int(1)));
        }
        assert!(matches!(
            ex.step(&c0, Pid(1), succs.len()),
            Err(RuntimeError::OutcomeOutOfRange { .. })
        ));
        assert!(matches!(
            ex.step(&c0, Pid(9), 0),
            Err(RuntimeError::PidOutOfRange { .. })
        ));
    }

    /// A fully symmetric race: every process proposes the *same* value to a
    /// consensus object and decides the response. All pids are
    /// interchangeable, so the symmetry group is the full S_n.
    #[derive(Debug)]
    struct SymmetricRace {
        n: usize,
    }

    impl Protocol for SymmetricRace {
        type LocalState = ();

        fn num_processes(&self) -> usize {
            self.n
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(Value::Int(7)))
        }
        fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
            Step::Decide(resp)
        }
    }

    impl Symmetry for SymmetricRace {
        fn pid_classes(&self) -> Vec<u32> {
            vec![0; self.n]
        }
    }

    #[test]
    fn symmetric_exploration_shrinks_the_graph() {
        let p = SymmetricRace { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().run().unwrap();
        let reduced = ex.exploration().symmetric().run().unwrap();
        assert!(raw.complete && reduced.complete);
        assert!(!raw.stats.reduced);
        assert!(reduced.stats.reduced);
        assert!(
            reduced.len() < raw.len(),
            "reduction must shrink the graph: raw {} vs reduced {}",
            raw.len(),
            reduced.len()
        );
        // Identical verdict-relevant structure: the same set of terminal
        // decision multisets is reachable in both graphs.
        let outcomes = |g: &ExplorationGraph<()>| -> std::collections::BTreeSet<Vec<Value>> {
            g.terminal_indices()
                .map(|t| {
                    let mut ds: Vec<Value> = g.configs[t]
                        .decisions()
                        .into_iter()
                        .map(|d| d.expect("all decided"))
                        .collect();
                    ds.sort();
                    ds
                })
                .collect()
        };
        assert_eq!(outcomes(&raw), outcomes(&reduced));
    }

    #[test]
    fn reduced_graphs_are_thread_count_independent() {
        let p = SymmetricRace { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let seq = ex.exploration().symmetric().threads(1).run().unwrap();
        for threads in [2, 4] {
            let par = ex.exploration().symmetric().threads(threads).run().unwrap();
            assert!(
                seq.same_structure(&par),
                "reduced graph differs at {threads} threads"
            );
        }
    }

    #[test]
    fn trivial_symmetry_changes_nothing() {
        // RaceConsensus proposes pid-dependent values, so declaring all
        // pids distinct yields the trivial group — .symmetric() must be a
        // no-op, bit for bit.
        #[derive(Debug)]
        struct AsymmetricRace(RaceConsensus);
        impl Protocol for AsymmetricRace {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                self.0.num_processes()
            }
            fn init(&self, pid: Pid) {
                self.0.init(pid);
            }
            fn pending_op(&self, pid: Pid, s: &()) -> (ObjId, Op) {
                self.0.pending_op(pid, s)
            }
            fn on_response(&self, pid: Pid, s: &(), resp: Value) -> Step<()> {
                self.0.on_response(pid, s, resp)
            }
        }
        impl Symmetry for AsymmetricRace {
            fn pid_classes(&self) -> Vec<u32> {
                (0..self.num_processes() as u32).collect()
            }
        }
        let p = AsymmetricRace(RaceConsensus { n: 3 });
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().run().unwrap();
        let reduced = ex.exploration().symmetric().run().unwrap();
        assert!(raw.same_structure(&reduced));
        assert!(
            !reduced.stats.reduced,
            "trivial group must disable reduction"
        );
    }

    #[test]
    fn level_stats_carry_their_bfs_index() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let mut seen = Vec::new();
        let g = Explorer::new(&p, &objects)
            .exploration()
            .on_progress(|l| seen.push(l.level))
            .run()
            .unwrap();
        assert_eq!(seen, (0..g.stats.levels.len()).collect::<Vec<_>>());
        for (i, l) in g.stats.levels.iter().enumerate() {
            assert_eq!(l.level, i);
        }
    }

    #[test]
    fn phase_breakdown_is_bounded_by_elapsed() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(g.stats.phases.expand <= g.stats.elapsed);
        let expand: Duration = g.stats.levels.iter().map(|l| l.expand).sum();
        assert_eq!(g.stats.phases.expand, expand);
        for l in &g.stats.levels {
            assert!(l.expand <= l.elapsed);
        }
        // Untraced runs never pay for per-call canonicalization clocks.
        assert_eq!(g.stats.phases.canonicalize, Duration::ZERO);
    }

    #[test]
    fn engine_counters_are_consistent() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        // Every interner miss created one distinct value.
        assert_eq!(
            g.stats.intern_misses,
            (g.stats.distinct_object_states + g.stats.distinct_proc_statuses) as u64
        );
        assert!(g.stats.memo_hits + g.stats.memo_misses > 0);
        assert!(g.stats.memo_hit_rate() >= 0.0 && g.stats.memo_hit_rate() <= 1.0);
        // Raw exploration never canonicalizes.
        assert_eq!(g.stats.canon_calls, 0);

        let p = SymmetricRace { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let reduced = Explorer::new(&p, &objects)
            .exploration()
            .symmetric()
            .run()
            .unwrap();
        assert!(reduced.stats.canon_calls > 0);
    }

    #[test]
    fn traced_runs_emit_phase_events() {
        use lbsa_support::obs::MemorySink;
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let sink = MemorySink::new();
        let g = Explorer::new(&p, &objects)
            .exploration()
            .trace(Tracer::new(sink.clone()))
            .run()
            .unwrap();
        let names = sink.names();
        assert_eq!(names.first(), Some(&"explore.begin"));
        assert_eq!(names.last(), Some(&"explore.end"));
        assert_eq!(
            names.iter().filter(|n| **n == "level").count(),
            g.stats.levels.len()
        );
        // The end event embeds the stats document.
        let end = sink.events().pop().unwrap();
        assert_eq!(
            end.fields.get("configs").and_then(Json::as_i64),
            Some(g.stats.configs as i64)
        );
        assert_eq!(
            end.fields.get("transitions").and_then(Json::as_i64),
            Some(g.stats.transitions as i64)
        );
    }

    #[test]
    fn explorer_tracer_is_inherited_and_overridable() {
        use lbsa_support::obs::MemorySink;
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let sink = MemorySink::new();
        let ex = Explorer::new(&p, &objects).with_trace(Tracer::new(sink.clone()));
        assert!(ex.tracer().enabled());
        ex.exploration().run().unwrap();
        let inherited = sink.events().len();
        assert!(inherited > 0, "builder must inherit the explorer's tracer");
        // A per-run override redirects events away from the explorer's sink.
        let override_sink = MemorySink::new();
        ex.exploration()
            .trace(Tracer::new(override_sink.clone()))
            .run()
            .unwrap();
        assert_eq!(sink.events().len(), inherited);
        assert!(!override_sink.events().is_empty());
    }

    #[test]
    fn traced_reduced_runs_clock_canonicalization() {
        use lbsa_support::obs::MemorySink;
        let p = SymmetricRace { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let sink = MemorySink::new();
        let g = Explorer::new(&p, &objects)
            .exploration()
            .symmetric()
            .trace(Tracer::new(sink.clone()))
            .run()
            .unwrap();
        assert!(g.stats.canon_calls > 0);
        assert!(g.stats.phases.canonicalize > Duration::ZERO);
        // Canonicalization happens inside expansion, so its clock is a
        // subset of the expansion phase.
        assert!(g.stats.phases.canonicalize <= g.stats.phases.expand);
    }

    #[test]
    fn dot_export_mentions_every_node_and_edge() {
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        let dot = g.to_dot(|i, c| format!("c{i}:{:?}", c.distinct_decisions()));
        assert!(dot.starts_with("digraph"));
        for i in 0..g.configs.len() {
            assert!(dot.contains(&format!("n{i} [label=")), "missing node n{i}");
        }
        assert_eq!(dot.matches(" -> ").count(), g.transitions);
        assert!(dot.contains("shape=box"), "initial node styled");
        assert!(dot.contains("shape=doublecircle"), "terminal nodes styled");
    }

    /// The full *content* of a graph, independent of node indexing: the
    /// sorted configuration list and the sorted edge list with endpoints
    /// replaced by their configurations. Two graphs with equal digests are
    /// the same labelled transition system — the exact guarantee the
    /// work-stealing mode makes relative to the deterministic one.
    type ContentDigest<L> = (
        Vec<Configuration<L>>,
        Vec<(Configuration<L>, usize, usize, Configuration<L>)>,
    );

    fn content_digest<L: Clone + Ord>(g: &ExplorationGraph<L>) -> ContentDigest<L> {
        let mut nodes = g.configs.clone();
        nodes.sort();
        let mut edges: Vec<_> = g
            .edges
            .iter()
            .enumerate()
            .flat_map(|(src, es)| {
                es.iter().map(move |e| {
                    (
                        g.configs[src].clone(),
                        e.pid.index(),
                        e.outcome,
                        g.configs[e.target].clone(),
                    )
                })
            })
            .collect();
        edges.sort();
        (nodes, edges)
    }

    #[test]
    fn work_stealing_explores_the_same_state_space() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let det = ex.exploration().threads(1).run().unwrap();
        for threads in [1, 2, 4, 8] {
            let ws = ex
                .exploration()
                .threads(threads)
                .frontier(Frontier::WorkStealing)
                .run()
                .unwrap();
            assert!(ws.complete);
            assert_eq!(
                content_digest(&det),
                content_digest(&ws),
                "content differs at {threads} threads"
            );
            assert_eq!(ws.stats.configs, det.stats.configs);
            assert_eq!(ws.stats.expanded, det.stats.expanded);
            assert_eq!(ws.stats.transitions, det.stats.transitions);
            assert_eq!(ws.stats.dedup_hits, det.stats.dedup_hits);
            assert!(ws.stats.work_stealing);
            assert!(ws.stats.levels.is_empty());
            assert_eq!(ws.stats.threads, threads);
            // Every task is processed off a deque, either locally or stolen.
            assert_eq!(
                ws.stats.local_hits + ws.stats.steals,
                ws.stats.configs as u64
            );
        }
    }

    #[test]
    fn work_stealing_reduced_matches_deterministic_reduced() {
        let p = SymmetricRace { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let det = ex.exploration().symmetric().threads(1).run().unwrap();
        for threads in [1, 4] {
            let ws = ex
                .exploration()
                .symmetric()
                .threads(threads)
                .frontier(Frontier::WorkStealing)
                .run()
                .unwrap();
            assert!(ws.complete);
            assert!(ws.stats.reduced);
            assert_eq!(content_digest(&det), content_digest(&ws));
            // Same orbit representatives, so the canonicalization effort is
            // accounted the same way: every transition either patched a
            // cached canonical form or recomputed one from scratch.
            assert_eq!(
                ws.stats.canon_patches + ws.stats.canon_full,
                ws.stats.transitions as u64
            );
        }
    }

    #[test]
    fn work_stealing_respects_the_expansion_budget() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        for budget in [1, 3, 7] {
            let ws = ex
                .exploration()
                .max_configs(budget)
                .threads(4)
                .frontier(Frontier::WorkStealing)
                .run()
                .unwrap();
            assert!(!ws.complete, "budget {budget} cannot finish this space");
            assert!(
                ws.expanded.iter().filter(|&&e| e).count() <= budget,
                "budget {budget} overspent"
            );
            // Discovered-but-unexpanded nodes stay in the graph edgeless.
            for (i, es) in ws.edges.iter().enumerate() {
                if !ws.expanded[i] {
                    assert!(es.is_empty());
                }
            }
        }
    }

    #[test]
    fn work_stealing_handles_cyclic_state_spaces() {
        let p = ForeverProposer;
        let objects = vec![AnyObject::strong_sa()];
        let ws = Explorer::new(&p, &objects)
            .exploration()
            .threads(4)
            .frontier(Frontier::WorkStealing)
            .run()
            .unwrap();
        assert!(ws.complete);
        assert!(ws.has_cycle());
        let det = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert_eq!(content_digest(&det), content_digest(&ws));
    }

    #[test]
    fn work_stealing_stats_are_consistent_with_the_graph() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let ws = Explorer::new(&p, &objects)
            .exploration()
            .threads(2)
            .frontier(Frontier::WorkStealing)
            .run()
            .unwrap();
        assert!(ws.complete);
        assert_eq!(ws.stats.configs, ws.len());
        assert_eq!(ws.stats.transitions, ws.transitions);
        assert_eq!(
            ws.stats.expanded,
            ws.expanded.iter().filter(|&&e| e).count()
        );
        assert_eq!(ws.stats.dedup_hits, ws.transitions - (ws.len() - 1));
        assert!(ws.stats.peak_frontier >= 1);
        assert!(ws.stats.summary().contains("work-stealing"));
    }

    #[test]
    fn work_stealing_worker_stats_reconcile_with_aggregates() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ws = Explorer::new(&p, &objects)
            .exploration()
            .threads(4)
            .frontier(Frontier::WorkStealing)
            .run()
            .unwrap();
        let stats = &ws.stats;
        assert_eq!(stats.workers.len(), 4, "one row per worker");
        for (i, w) in stats.workers.iter().enumerate() {
            assert_eq!(w.worker, i, "rows indexed by worker id");
            assert!(
                w.busy.is_zero(),
                "per-task timing needs a tracer; untraced busy must stay zero"
            );
        }
        let sum = |f: fn(&WorkerStats) -> u64| stats.workers.iter().map(f).sum::<u64>();
        assert_eq!(
            stats.workers.iter().map(|w| w.expanded).sum::<usize>(),
            stats.expanded
        );
        assert_eq!(
            stats.workers.iter().map(|w| w.transitions).sum::<usize>(),
            stats.transitions
        );
        assert_eq!(sum(|w| w.steals), stats.steals);
        assert_eq!(sum(|w| w.steal_fails), stats.steal_fails);
        assert_eq!(sum(|w| w.local_hits), stats.local_hits);
        assert!(stats.worker_imbalance() >= 1.0);
        // Untraced runs record no per-task or steal latency distributions.
        assert!(stats.hist.task_expand.is_empty());
        assert!(stats.hist.steal.is_empty());
    }

    #[test]
    fn traced_work_stealing_emits_worker_scoped_events() {
        use lbsa_support::obs::MemorySink;
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let sink = MemorySink::new();
        let ws = Explorer::new(&p, &objects)
            .exploration()
            .threads(4)
            .frontier(Frontier::WorkStealing)
            .trace(Tracer::new(sink.clone()))
            .run()
            .unwrap();
        let names = sink.names();
        assert_eq!(
            names.iter().filter(|n| **n == "ws.done").count(),
            4,
            "every worker signs off with ws.done"
        );
        assert!(
            names.contains(&"ws.expand"),
            "at least one progress beat from an active worker"
        );
        let events = sink.events();
        for e in events.iter().filter(|e| e.name.starts_with("ws.")) {
            assert!(
                e.fields.get("worker").and_then(Json::as_i64).is_some(),
                "{}: worker-scoped events carry their worker id",
                e.name
            );
        }
        for e in events.iter().filter(|e| e.name == "ws.steal") {
            let outcome = e.fields.get("outcome").and_then(Json::as_str);
            match outcome {
                Some("hit") => assert!(
                    e.fields.get("victim").and_then(Json::as_i64).is_some(),
                    "steal hits name their victim"
                ),
                Some("miss") => assert!(
                    e.fields.get("spins").and_then(Json::as_i64).is_some(),
                    "steal misses carry the spin count"
                ),
                other => panic!("unexpected steal outcome {other:?}"),
            }
        }
        // Traced runs populate the per-task latency distribution: one
        // sample per expanded task.
        let stats = &ws.stats;
        assert_eq!(stats.hist.task_expand.count(), stats.expanded as u64);
        assert_eq!(
            stats.hist.steal.count(),
            stats.steals,
            "every successful steal records its latency"
        );
        assert!(
            stats
                .workers
                .iter()
                .map(|w| duration_ns(w.busy))
                .sum::<u64>()
                > 0,
            "traced workers measure their expansion time"
        );
        let doc = stats.to_json();
        assert!(doc.get("workers").is_some());
        assert!(
            doc.get("hist").and_then(|h| h.get("task_expand")).is_some(),
            "histograms reach the serialized metrics"
        );
    }

    #[test]
    fn level_sync_records_one_histogram_sample_per_level() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert_eq!(
            g.stats.hist.level_expand.count(),
            g.stats.levels.len() as u64,
            "per-level expand histogram is always on"
        );
        assert!(
            g.stats.workers.is_empty(),
            "level-sync runs have no per-worker breakdown"
        );
    }
}
