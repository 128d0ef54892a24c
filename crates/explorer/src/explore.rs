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
//!     .run()?;
//! for level in &graph.stats.levels {
//!     eprintln!("level {} width {}", level.level, level.width);
//! }
//! ```
//!
//! ## Engine
//!
//! Two frontier disciplines (see [`Frontier`]) share one successor
//! routine, a per-thread `Expander` that steps, memoizes, delta-interns and
//! canonicalizes; each engine keeps only its own dedup and scheduling:
//!
//! * [`Frontier::Deterministic`] (the default) is a single-threaded,
//!   level-by-level BFS that expands each node and numbers its successors
//!   on the spot, so node indices are assigned in exactly the order a FIFO
//!   BFS assigns them. **Every run produces the identical graph** — same
//!   configurations, same indices, same edges — which keeps every
//!   downstream analysis (valency, adversary search, certification) and
//!   every recorded experiment output reproducible. It ignores
//!   [`ExploreOptions::threads`].
//! * [`Frontier::WorkStealing`] is the parallel engine: a mutex-guarded
//!   deque of task records per worker, a concurrent dedup index, no
//!   barrier between BFS depths. Workers take, expand, deduplicate and
//!   enqueue tasks in batches, paying each lock and shared counter once
//!   per batch. It reaches the same configurations, transitions, and
//!   verdicts, but numbers nodes in discovery order.
//!
//! Deduplication never compares full configurations: object states and
//! process statuses are hash-consed into `u32` ids
//! ([`crate::intern::Interner`]), and a configuration is keyed by its short
//! row of ids in a dedup index ([`crate::intern::ShardedIndex`] or
//! [`crate::intern::ConcurrentIndex`]), which stores the rows flat, end to
//! end, and finds them through a table of `u32` ids. Neither engine builds
//! a configuration per node, nor an allocation per row: both produce the
//! crate's interned graph, whose nodes are the index's rows in one flat
//! array and whose edges are one compressed array. The `check_*`
//! terminals check it as it is; [`Exploration::run`] turns it into an
//! [`ExplorationGraph`] once, at the end.
//!
//! Every exploration reports [`ExploreStats`] — throughput, dedup rate,
//! frontier shape, per-level timing — on the resulting graph.

use crate::config::Configuration;
use crate::graph::{Csr, InternedGraph, PackedEdge};
pub use crate::graph::{Edge, ExplorationGraph};
use crate::intern::{
    reserve_quadrupling, shard_of, ConcurrentIndex, IndexBatch, Interner, ShardedIndex, SHARDS,
};
use crate::live::{EtaModel, LiveMetrics, MemBytes, ProgressWatcher};
use crate::sampling::SampleConfig;
use crate::stats::{
    duration_us, ExploreStats, LatencyHistograms, LevelStats, PhaseTimes, WorkerStats,
};
use crate::symmetry::ConfigSymmetry;
use lbsa_core::spec::ObjectSpec;
use lbsa_core::{AnyObject, AnyState, ObjId, Op, Pid, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::kernel::StepKernel;
use lbsa_runtime::process::{ProcStatus, Protocol, Symmetry};
use lbsa_support::json::Json;
use lbsa_support::obs::{Counter, HistogramNs, Registry, TimerNs, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

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
/// executions: by exploring every one (the default, and the only way to
/// *prove* a property), or by a seeded sampling sweep after
/// [`Exploration::sample`], which answers
/// [`Outcome::HoldsSampled`](crate::Outcome::HoldsSampled) with a
/// confidence bound — evidence, never proof.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Strategy {
    #[default]
    Exhaustive,
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

/// One [`CanonMemo`] shard: patched key → canonical key.
type CanonShard = lbsa_support::hash::FxHashMap<Box<[u32]>, Box<[u32]>>;

/// Canonicalization memo for symmetry-reduced exploration: maps a raw
/// successor's **delta-patched compact key** (the parent's canonical key
/// with the stepped object-state and process-status slots replaced) to the
/// successor's canonical form.
///
/// Every graph node under reduction is canonical, so a successor is fully
/// determined by `(parent key, patched slots)` — the patched key. Retry
/// loops and diamond interleavings reproduce the same patched keys from
/// thousands of parents; on a hit the engine skips resolving the raw
/// successor *and* the whole orbit computation, and copies the canonical
/// key over the patched one. Sharded, with a read-write lock per shard;
/// every engine thread reads it through its [`Expander`].
struct CanonMemo {
    shards: Vec<RwLock<CanonShard>>,
    bytes: Counter,
}

impl CanonMemo {
    fn new() -> Self {
        CanonMemo {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(Default::default()))
                .collect(),
            bytes: Counter::new(),
        }
    }

    /// Approximate heap bytes held by the memo, tracked incrementally at
    /// insert time (structural estimate: both keys' payloads and the map
    /// slot; O(1) to read, so a live watcher can poll it).
    fn approx_bytes(&self) -> usize {
        usize::try_from(self.bytes.get()).unwrap_or(usize::MAX)
    }

    /// Overwrites the patched key `key` with its canonical form if the
    /// memo holds it; `false` on a miss, leaving `key` as it was.
    fn canonicalize_in_place(&self, key: &mut [u32]) -> bool {
        let shard = self.shards[shard_of(key)]
            .read()
            .expect("canon memo lock poisoned");
        let Some(canon) = shard.get(&*key) else {
            return false;
        };
        key.copy_from_slice(canon);
        true
    }

    fn insert(&self, raw_key: &[u32], canon: &[u32]) {
        // 24 assumed map-slot overhead; matches the estimate discipline
        // of `Interner::approx_bytes`.
        let bytes = 24
            + (raw_key.len() + canon.len()) * std::mem::size_of::<u32>()
            + std::mem::size_of::<(Box<[u32]>, Box<[u32]>)>();
        self.bytes.add(bytes as u64);
        self.shards[shard_of(raw_key)]
            .write()
            .expect("canon memo lock poisoned")
            .insert(raw_key.into(), canon.into());
    }
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
/// Most tasks a worker takes off its own deque per batch. On k-set n = 9
/// at two workers (2-core host, median check time of five 5 s runs each)
/// batches of 4, 16, 64 and 256 took 118, 101, 96 and 96 ms; a batch is
/// also work a thief cannot take, so the smaller size of the plateau is
/// kept.
const WS_BATCH: usize = 64;

/// One batched steal from `victim` by a worker whose own deque is `own`,
/// both holding task records of `stride` ids: moves half the victim's
/// records (rounded up, at most [`WS_STEAL_MAX`]) off its front — the
/// oldest, closest to the root — into `batch`, unlocks the victim, then
/// moves all but the first on to `own` with one lock. Never holds two
/// deque locks at once. Returns how many records landed in `own`, or
/// `None` if the victim was empty.
fn steal_half(
    victim: &Mutex<VecDeque<u32>>,
    own: &Mutex<VecDeque<u32>>,
    stride: usize,
    batch: &mut Vec<u32>,
) -> Option<usize> {
    let at = batch.len();
    {
        let mut victim = victim.lock().expect("deque lock poisoned");
        let take = (victim.len() / stride).div_ceil(2).min(WS_STEAL_MAX);
        batch.extend(victim.drain(..take * stride));
    }
    let extra = ((batch.len() - at) / stride).checked_sub(1)?;
    if extra > 0 {
        own.lock()
            .expect("deque lock poisoned")
            .extend(&batch[at + stride..]);
        batch.truncate(at + stride);
    }
    Some(extra)
}

/// What one work-stealing worker hands back at join: its tally and the
/// edges it found. Node indices come from the shared [`ConcurrentIndex`],
/// which also holds every node's row, so the per-worker pieces assemble
/// into one edge array by index (see [`Csr::assemble`]).
struct WsWorkerOut {
    /// The worker's one tally, bumped directly by the worker loop.
    stats: WorkerStats,
    /// Flat pool of every edge this worker emitted, in expansion order —
    /// one growing allocation instead of a `Vec` per task.
    edge_pool: Vec<PackedEdge>,
    /// `(node, start, len)` slices of [`WsWorkerOut::edge_pool`] for every
    /// node this worker expanded.
    tasks: Vec<(u32, u32, u32)>,
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

/// The instruments both engines run under, and the one place an
/// [`ExploreStats`] is built. [`RunMeter::start`] opens a run: start
/// clock, `explore.begin`, the root's canonicalization and the snapshot of
/// the canonicalization counters. [`RunMeter::finish`] closes it: the
/// stats, the final live-gauge sync and `explore.end`.
struct RunMeter<'r, 's, L> {
    started: Instant,
    tracer: &'r Tracer,
    live: Option<&'r LiveMetrics>,
    sym: Option<&'r ConfigSymmetry<'s, L>>,
    /// `sym`'s `(calls, fast hits, full calls)` after the root was
    /// canonicalized, so the stats account for successors only:
    /// `canon_patches + canon_full == transitions`.
    canon_before: (u64, u64, u64),
    /// Per-call canonicalization timing; engines attach it through
    /// [`RunMeter::canon_probe`], which is `None` unless traced.
    canon: CanonProbe,
    /// Latency distributions, shared (relaxed atomics) by every worker.
    hists: LatencyHistograms,
}

/// What an engine alone knows at the end of its run; [`RunMeter::finish`]
/// reads everything else off the shared instruments.
struct EngineEnd<'i, L> {
    /// One tally per engine thread. Every counting aggregate of the stats
    /// is a sum over them; a work-stealing run also keeps them as its
    /// per-worker rows.
    tallies: Vec<WorkerStats>,
    /// The BFS levels of a level-sync run; `None` marks a work-stealing
    /// run, which has none.
    levels: Option<Vec<LevelStats>>,
    configs: usize,
    peak_frontier: usize,
    canon_memo_bytes: usize,
    state_interner: &'i Interner<AnyState>,
    proc_interner: &'i Interner<ProcStatus<L>>,
    index_bytes: usize,
}

/// `(calls, fast hits, full calls)` of a symmetry's canonicalization
/// counters; zeros without one.
fn canon_counters<L: Clone>(sym: Option<&ConfigSymmetry<'_, L>>) -> (u64, u64, u64) {
    sym.map_or((0, 0, 0), |s| {
        (s.canon_calls(), s.canon_fast_hits(), s.canon_full_calls())
    })
}

impl<'r, 's, L: Clone + Eq + std::hash::Hash> RunMeter<'r, 's, L> {
    /// Starts the clock and announces the run, then returns the meter and
    /// the root to explore from: `initial`, or under symmetry reduction
    /// its orbit representative (every graph node is one).
    fn start(
        tracer: &'r Tracer,
        live: Option<&'r LiveMetrics>,
        sym: Option<&'r ConfigSymmetry<'s, L>>,
        options: ExploreOptions,
        threads: usize,
        initial: Configuration<L>,
    ) -> (Self, Configuration<L>) {
        let started = Instant::now();
        if let Some(live) = live {
            live.workers.set_usize(threads);
        }
        tracer.emit_with("explore.begin", || {
            Json::object()
                .set("threads", threads)
                .set("max_configs", options.limits.max_configs)
                .set("reduced", sym.is_some())
                .set(
                    "frontier",
                    match options.frontier {
                        Frontier::Deterministic => "level-sync",
                        Frontier::WorkStealing => "work-stealing",
                    },
                )
        });
        let root = match sym {
            Some(s) => s.canonicalize(&initial),
            None => initial,
        };
        let meter = RunMeter {
            started,
            tracer,
            live,
            sym,
            canon_before: canon_counters(sym),
            canon: CanonProbe::default(),
            hists: LatencyHistograms::default(),
        };
        (meter, root)
    }

    /// The per-call canonicalization probe, attached only under an enabled
    /// tracer: timing each call is a clock read per successor (overhead
    /// policy), so untraced runs report `PhaseTimes::canonicalize == 0`.
    fn canon_probe(&self) -> Option<&CanonProbe> {
        self.tracer.enabled().then_some(&self.canon)
    }

    /// Builds the run's [`ExploreStats`], syncs the live gauges to the end
    /// state and emits `explore.end`.
    fn finish(self, end: EngineEnd<'_, L>) -> ExploreStats {
        // One clock read for the total and, without levels, the expand
        // phase: a work-stealing run has no barrier, so the whole run is
        // one expansion phase, and a second read would make
        // `phases.expand` exceed `elapsed`.
        let elapsed = self.started.elapsed();
        let sum = |count: fn(&WorkerStats) -> u64| end.tallies.iter().map(count).sum::<u64>();
        let (calls, fast, full) = canon_counters(self.sym);
        let work_stealing = end.levels.is_none();
        let expand = end
            .levels
            .as_ref()
            .map_or(elapsed, |ls| ls.iter().map(|l| l.expand).sum());
        let levels = end.levels.unwrap_or_default();
        let stats = ExploreStats {
            configs: end.configs,
            expanded: end.tallies.iter().map(|t| t.expanded).sum(),
            transitions: end.tallies.iter().map(|t| t.transitions).sum(),
            dedup_hits: end.tallies.iter().map(|t| t.dedup_hits).sum(),
            distinct_object_states: end.state_interner.len(),
            distinct_proc_statuses: end.proc_interner.len(),
            peak_frontier: end.peak_frontier,
            threads: end.tallies.len(),
            reduced: self.sym.is_some(),
            elapsed,
            phases: PhaseTimes {
                expand,
                canonicalize: self.canon.timer.total(),
            },
            memo_hits: sum(|t| t.memo_hits),
            memo_misses: sum(|t| t.memo_misses),
            intern_hits: end.state_interner.hits() + end.proc_interner.hits(),
            intern_misses: end.state_interner.misses() + end.proc_interner.misses(),
            canon_calls: calls - self.canon_before.0,
            canon_patches: fast - self.canon_before.1 + sum(|t| t.canon_memo_hits),
            canon_full: full - self.canon_before.2,
            work_stealing,
            steals: sum(|t| t.steals),
            steal_fails: sum(|t| t.steal_fails),
            local_hits: sum(|t| t.local_hits),
            park_count: sum(|t| t.park_count),
            index_batch_hits: sum(|t| t.index_batch_hits),
            interner_bytes: end.state_interner.approx_bytes() + end.proc_interner.approx_bytes(),
            index_bytes: end.index_bytes,
            levels,
            workers: if work_stealing { end.tallies } else { vec![] },
            hist: {
                self.hists.canonicalize.merge(&self.canon.hist);
                self.hists
            },
        };
        // The run is over: nothing is pending, and the deque footprint is
        // only known once the workers returned.
        if let Some(live) = self.live {
            let mem = MemBytes {
                interner: stats.interner_bytes,
                index: stats.index_bytes,
                canon: end.canon_memo_bytes,
                deques: stats.workers.iter().map(|w| w.deque_bytes).sum(),
            };
            live.publish(0, 0, 0, 0, Some(mem));
        }
        self.tracer.emit_with("explore.end", || stats.to_json());
        stats
    }
}

/// `(object-state id, proc-status id, pid)`: what pins down one step.
type MemoKey = (u32, u32, u32);

/// One successor found by [`Expander::expand`]: the step that reaches it.
struct Succ {
    pid: Pid,
    outcome: usize,
}

/// The successor routine of both engines, one per engine thread.
///
/// [`Expander::expand`] lists the successors of a node, given by its key
/// row alone, in `(pid, outcome)` order. Each running process's pending
/// operation comes from a memo keyed by `(status id, pid)`, and each step
/// goes through the thread's transition memo, and the step kernel on a
/// miss; only a miss resolves ids back into values (the stepping process's
/// status and the target object's state). Each successor's dedup
/// key is found by **delta-interning**: a successor differs from its
/// parent in one object state and one process status, so its key is the
/// parent's key with two slots patched. Under symmetry reduction the
/// patched key is overwritten with the canonical one, read from the canon
/// memo or computed on a miss. The engine then dedups each key its own way.
struct Expander<'x, P: Protocol> {
    explorer: &'x Explorer<'x, P>,
    states: &'x Interner<AnyState>,
    procs: &'x Interner<ProcStatus<P::LocalState>>,
    /// `(proc-status id, pid)` → the pending operation, `None` when the
    /// status is not running. By the protocol contract the operation is a
    /// function of the pid and the local state, so it is computed once per
    /// distinct pair.
    pending: lbsa_support::hash::FxHashMap<(u32, u32), Option<(ObjId, Op)>>,
    /// Memoized transition function. By the determinism contract, the
    /// successors of one `(pid, local state, object state)` triple are a
    /// pure function, and after interning the triple is three integers.
    /// The memo maps it to the interned `(object-state, proc-status)` id
    /// pairs of the successors, in outcome order, so recurring
    /// combinations (retry loops revisit the same local state against the
    /// same object state from thousands of configurations) skip the
    /// specification and protocol code entirely. It is private to the
    /// thread: a hit borrows the pairs in place, with one hash and no lock.
    memo: lbsa_support::hash::FxHashMap<MemoKey, Vec<(u32, u32)>>,
    sym: Option<&'x ConfigSymmetry<'x, P::LocalState>>,
    canon_memo: &'x CanonMemo,
    canon_probe: Option<&'x CanonProbe>,
    /// Object-state ids at the head of every key row.
    n_obj: usize,
    /// The successors and dedup keys, `width` ids each, of every expansion
    /// since the last [`Expander::clear`]; reused from node to node.
    succs: Vec<Succ>,
    keys: Vec<u32>,
    width: usize,
}

impl<'x, P: Protocol> Expander<'x, P> {
    fn new(
        explorer: &'x Explorer<'x, P>,
        meter: &'x RunMeter<'x, 'x, P::LocalState>,
        (states, procs): (
            &'x Interner<AnyState>,
            &'x Interner<ProcStatus<P::LocalState>>,
        ),
        canon_memo: &'x CanonMemo,
        n_obj: usize,
    ) -> Self {
        Expander {
            explorer,
            states,
            procs,
            pending: lbsa_support::hash::FxHashMap::default(),
            memo: lbsa_support::hash::FxHashMap::default(),
            sym: meter.sym,
            canon_memo,
            canon_probe: meter.canon_probe(),
            n_obj,
            succs: Vec::new(),
            keys: Vec::new(),
            width: 0,
        }
    }

    /// Appends the successors of the node whose key row is `key` to
    /// [`Expander::succs`], counting transitions and memo traffic into
    /// `tally`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ObjIdOutOfRange`] for a pending operation
    /// on an object outside the configuration, and propagates the step
    /// kernel's error for any other step it rejects.
    fn expand(&mut self, key: &[u32], tally: &mut WorkerStats) -> Result<(), RuntimeError> {
        let n_obj = self.n_obj;
        self.width = key.len();
        let (first_succ, first_key) = (self.succs.len(), self.keys.len());
        let (procs, protocol) = (self.procs, self.explorer.protocol());
        for (i, &status) in key[n_obj..].iter().enumerate() {
            let pid = Pid(i);
            let pending = *self.pending.entry((status, i as u32)).or_insert_with(|| {
                procs.resolve_with(status, |s| s.local().map(|l| protocol.pending_op(pid, l)))
            });
            let Some((obj, op)) = pending else {
                continue;
            };
            let &obj_state = key[..n_obj]
                .get(obj.index())
                .ok_or(RuntimeError::ObjIdOutOfRange { obj, len: n_obj })?;
            let memo_key = (obj_state, status, i as u32);
            let pairs = match self.memo.entry(memo_key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    tally.memo_hits += 1;
                    e.into_mut()
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    tally.memo_misses += 1;
                    let running = procs.resolve(status);
                    let local = running
                        .local()
                        .expect("only running statuses have pending ops");
                    let state = self.states.resolve(obj_state);
                    slot.insert(self.explorer.compute_pairs(
                        (pid, local),
                        (obj, op),
                        &state,
                        self.states,
                        procs,
                    )?)
                }
            };
            for (outcome, &(state, proc)) in pairs.iter().enumerate() {
                let at = self.keys.len();
                self.keys.extend_from_slice(key);
                self.keys[at + obj.index()] = state;
                self.keys[at + n_obj + i] = proc;
                self.succs.push(Succ { pid, outcome });
            }
        }
        tally.transitions += self.succs.len() - first_succ;
        let Some(sym) = self.sym else {
            return Ok(());
        };
        // Orbit mode: the dedup key is the compacted canonical
        // representative. The patched key is not that key, but it
        // identifies the raw successor, so it memoizes the
        // canonicalization: on a hit neither the raw successor nor any
        // permuted copy is built.
        for patched in self.keys[first_key..].chunks_exact_mut(self.width) {
            if self.canon_memo.canonicalize_in_place(patched) {
                tally.canon_memo_hits += 1;
                continue;
            }
            let raw = resolve_row(self.states, procs, n_obj, patched);
            let canon = timed_canonicalize(sym, &raw, self.canon_probe);
            let canon_key = self.explorer.compact(&canon, self.states, procs);
            self.canon_memo.insert(patched, &canon_key);
            patched.copy_from_slice(&canon_key);
        }
        Ok(())
    }

    /// Forgets the successors listed so far.
    fn clear(&mut self) {
        self.succs.clear();
        self.keys.clear();
    }

    /// The successors listed since the last [`Expander::clear`], each with
    /// its dedup key: the patched key, or under symmetry reduction the
    /// canonical one.
    fn succs(&self) -> impl Iterator<Item = (&Succ, &[u32])> {
        self.succs
            .iter()
            .zip(self.keys.chunks_exact(self.width.max(1)))
    }

    /// The dedup key of the `k`-th successor listed.
    fn key(&self, k: usize) -> &[u32] {
        &self.keys[k * self.width..(k + 1) * self.width]
    }
}

/// The configuration behind the key row `key`, each id resolved through
/// its interner.
fn resolve_row<L: Clone + Eq + std::hash::Hash>(
    states: &Interner<AnyState>,
    procs: &Interner<ProcStatus<L>>,
    n_obj: usize,
    key: &[u32],
) -> Configuration<L> {
    let (objs, ps) = key.split_at(n_obj);
    Configuration {
        object_states: objs
            .iter()
            .map(|&id| states.resolve_with(id, Clone::clone))
            .collect(),
        procs: ps
            .iter()
            .map(|&id| procs.resolve_with(id, Clone::clone))
            .collect(),
    }
}

/// A pure, replayable stepper over a protocol's configurations.
#[derive(Debug)]
pub struct Explorer<'a, P: Protocol> {
    kernel: StepKernel<'a, P>,
    tracer: Tracer,
    registry: Option<Registry>,
}

impl<'a, P: Protocol> Explorer<'a, P> {
    /// Creates an explorer for `protocol` over `objects`, with tracing
    /// disabled (attach a sink with [`Explorer::with_trace`]).
    #[must_use]
    pub fn new(protocol: &'a P, objects: &'a [AnyObject]) -> Self {
        Explorer {
            kernel: StepKernel::new(protocol, objects),
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
        self.kernel.protocol()
    }

    /// The object table.
    #[must_use]
    pub fn objects(&self) -> &[AnyObject] {
        self.kernel.objects()
    }

    /// The initial configuration.
    #[must_use]
    pub fn initial_config(&self) -> Configuration<P::LocalState> {
        Configuration {
            object_states: self
                .objects()
                .iter()
                .map(ObjectSpec::initial_state)
                .collect(),
            procs: (0..self.protocol().num_processes())
                .map(|i| ProcStatus::Running(self.protocol().init(Pid(i))))
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
        let step = self
            .kernel
            .begin(&config.object_states, &config.procs, pid, None)?;
        let (obj, _) = step.pending_op();
        let mut succs = Vec::with_capacity(step.outcome_count());
        step.for_each(|t| succs.push(config.after(obj, t.obj_state, pid, t.status)));
        Ok(succs)
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
        let step = self
            .kernel
            .begin(&config.object_states, &config.procs, pid, None)?;
        let (obj, op) = step.pending_op();
        let t = step.take(outcome)?;
        Ok(StepRecord {
            config: config.after(obj, t.obj_state, pid, t.status),
            obj,
            op,
            response: t.response,
        })
    }

    /// Starts a fluent [`Exploration`] of this explorer's protocol.
    ///
    /// This is the single entry point to the engine: configure the run with
    /// the builder, then finish with [`Exploration::run`] for the raw graph
    /// or a `check_*` terminal for a [`Verdict`](crate::Verdict).
    pub fn exploration(&self) -> Exploration<'_, 'a, P> {
        Exploration::builder(self)
    }

    /// The deterministic engine behind [`Frontier::Deterministic`]: a
    /// single-threaded breadth-first search that builds the interned
    /// execution graph reachable from `initial`, level by level.
    ///
    /// Expansion and merge are fused: each node expands through an
    /// [`Expander`] and its successors are probed against the live index
    /// and numbered on the spot, in frontier order, so node indices follow
    /// the FIFO order of a plain BFS and the graph is identical run to run.
    /// It ignores `options.threads`; parallel exploration is
    /// [`Explorer::run_engine_ws`].
    fn run_engine(
        &self,
        initial: Configuration<P::LocalState>,
        options: ExploreOptions,
        sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
        tracer: &Tracer,
        live: Option<&LiveMetrics>,
    ) -> Result<InternedGraph<P::LocalState>, RuntimeError> {
        let (meter, initial) = RunMeter::start(tracer, live, sym, options, 1, initial);
        let state_interner: Interner<AnyState> = Interner::new();
        let proc_interner: Interner<ProcStatus<P::LocalState>> = Interner::new();
        let canon_memo = CanonMemo::new();
        let n_obj = initial.object_states.len();
        let interners = (&state_interner, &proc_interner);
        let mut expander = Expander::new(self, &meter, interners, &canon_memo, n_obj);
        let width = n_obj + initial.procs.len();
        // The index is the row store: node `i`'s row is its `i`-th
        // insert. Nodes are numbered and expanded in BFS order, so each
        // level's frontier is the index range the previous level
        // discovered, and the expanded nodes are a prefix of the rows.
        let mut index = ShardedIndex::new();
        index.insert(self.compact(&initial, &state_interner, &proc_interner), 0);
        let mut csr = Csr::new();
        let mut complete = true;
        let mut frontier = 0..1;

        // The run's one tally (see [`WorkerStats`]).
        let mut tally = WorkerStats::default();
        let mut peak_frontier = 0usize;
        let mut levels: Vec<LevelStats> = Vec::new();

        while !frontier.is_empty() {
            peak_frontier = peak_frontier.max(frontier.len());
            // The budget counts *expanded* configurations: truncate the
            // level to whatever budget remains, in one pass.
            let budget = options.limits.max_configs.saturating_sub(tally.expanded);
            let take = frontier.len().min(budget);
            if take < frontier.len() {
                complete = false;
            }
            if take == 0 {
                break;
            }
            let level = levels.len();
            let level_started = Instant::now();
            let discovered = index.len();
            let transitions_before = tally.transitions;
            for node in frontier.start..frontier.start + take {
                expander.clear();
                expander.expand(index.row(node as u32), &mut tally)?;
                reserve_quadrupling(&mut csr.edges, expander.succs.len());
                for (succ, key) in expander.succs() {
                    let (target, fresh) = index.get_or_insert(key);
                    if !fresh {
                        tally.dedup_hits += 1;
                    }
                    csr.edges
                        .push(PackedEdge::new(target, succ.pid, succ.outcome));
                }
                csr.close_node();
            }
            tally.expanded += take;
            let level_transitions = tally.transitions - transitions_before;
            let next_frontier = discovered..index.len();
            // Every successor of the level either deduplicated or opened a
            // node of the next frontier.
            let dedup = level_transitions - next_frontier.len();
            // Live mirror: one publish per level, never per successor.
            if let Some(live) = live {
                let mem = MemBytes {
                    interner: state_interner.approx_bytes() + proc_interner.approx_bytes(),
                    index: index.approx_bytes(),
                    canon: canon_memo.approx_bytes(),
                    deques: 0,
                };
                live.publish(
                    take,
                    level_transitions,
                    dedup,
                    next_frontier.len(),
                    Some(mem),
                );
            }
            // The fused loop interleaves expansion and merge, so the whole
            // level counts as expansion. Level clocks are read anyway, so
            // the per-level histogram is always on.
            let level_elapsed = level_started.elapsed();
            meter.hists.level_expand.record(level_elapsed);
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
                    .set("dedup", dedup)
                    .set("expand_us", duration_us(level_elapsed))
                    .set("elapsed_us", duration_us(level_elapsed))
            });
            if take < frontier.len() {
                // Truncated: the rest of this frontier (and everything newly
                // discovered) stays unexpanded.
                break;
            }
            frontier = next_frontier;
        }

        let expanded = tally.expanded;
        let nodes = index.len();
        // The rows pass to the graph as they are, so the index's own
        // footprint is its slot array.
        let stats = meter.finish(EngineEnd {
            tallies: vec![tally],
            levels: Some(levels),
            configs: nodes,
            peak_frontier,
            canon_memo_bytes: canon_memo.approx_bytes(),
            state_interner: &state_interner,
            proc_interner: &proc_interner,
            index_bytes: index.slot_bytes(),
        });
        Ok(InternedGraph::new(
            (index.into_rows(), width, n_obj),
            (
                csr.finish(nodes),
                (0..nodes).map(|i| i < expanded).collect(),
            ),
            complete,
            stats,
            (state_interner, proc_interner),
        ))
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
    /// A pending node is a record `[id, row…]` of `1 + width` ids in its
    /// worker's `Mutex<VecDeque<u32>>` (DESIGN.md §10), so no task owns an
    /// allocation. A worker runs in batches: it takes up to [`WS_BATCH`]
    /// records off the back of its deque under one lock, claims expansion
    /// budget for all of them with one `fetch_add` (records past the budget
    /// die unexpanded), expands them through its [`Expander`], resolves
    /// every successor key of the batch in one [`ConcurrentIndex`] round —
    /// one read lock and at most one write lock per shard touched — and
    /// pushes the records of all new nodes with one lock.
    ///
    /// Termination uses a single pending-task counter, updated once per
    /// batch by the batch's children minus its records: added before the
    /// children become stealable, or subtracted after they are pushed, so
    /// `pending == 0` with all deques empty proves quiescence.
    ///
    /// A worker whose deque is empty sweeps the other deques in ring order
    /// from a per-sweep xorshift-randomized start (so simultaneous thieves
    /// fan out instead of convoying on one victim), batch-stealing up to
    /// half the victim (capped at [`WS_STEAL_MAX`]) in [`steal_half`]; the
    /// first stolen record is its next batch. On a completely empty sweep
    /// it backs off spin → yield → timed park (see [`WS_SPIN_ROUNDS`]),
    /// which keeps an idle worker's CPU burn bounded while `pending`
    /// polling still detects quiescence. At join the index writes its rows
    /// out in node order as the graph's, and the workers' edge pools are
    /// assembled into one edge array ([`Csr::assemble`]).
    fn run_engine_ws(
        &self,
        initial: Configuration<P::LocalState>,
        options: ExploreOptions,
        sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
        tracer: &Tracer,
        live: Option<&LiveMetrics>,
    ) -> Result<InternedGraph<P::LocalState>, RuntimeError> {
        let workers = options.resolved_threads().max(1);
        let limits = options.limits;
        let (meter, initial) = RunMeter::start(tracer, live, sym, options, workers, initial);
        // Steal and per-batch expand latencies need extra clock reads on
        // the worker hot path, so they are recorded only when traced.
        let hists = &meter.hists;
        let traced = tracer.enabled();

        let state_interner: Interner<AnyState> = Interner::new();
        let proc_interner: Interner<ProcStatus<P::LocalState>> = Interner::new();
        let canon_memo = CanonMemo::new();
        let n_obj = initial.object_states.len();
        let width = n_obj + initial.procs.len();
        let stride = 1 + width;
        let index = ConcurrentIndex::new();
        let initial_row = self.compact(&initial, &state_interner, &proc_interner);
        let (root, _) = index.get_or_insert(&initial_row);
        debug_assert_eq!(root, 0, "the root is the first interned node");

        let deques: Vec<Mutex<VecDeque<u32>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        deques[0]
            .lock()
            .expect("deque lock poisoned")
            .extend(std::iter::once(root).chain(initial_row));
        // Queued-or-in-flight nodes; a batch's children are counted before
        // they become stealable, its records only after that.
        let pending = AtomicUsize::new(1);
        let peak_pending = AtomicUsize::new(1);
        // Expansion budget claims, one per record; a claim at or past the
        // limit marks the run truncated and leaves the node unexpanded.
        let claimed = AtomicUsize::new(0);
        let truncated = AtomicBool::new(false);
        let abort = AtomicBool::new(false);
        let first_error: Mutex<Option<RuntimeError>> = Mutex::new(None);

        // The whole worker loop, shared between the two launch modes below:
        // a lone worker runs it inline on the calling thread (no spawn/join
        // round-trip on the gated 1-core path), while real fleets spawn it
        // per worker under a scope. Captures the run state by reference.
        let run_worker = |me: usize| {
            let own = &deques[me];
            let mut out = WsWorkerOut {
                stats: WorkerStats {
                    worker: me,
                    ..WorkerStats::default()
                },
                edge_pool: Vec::new(),
                tasks: Vec::new(),
            };
            let interners = (&state_interner, &proc_interner);
            let mut expander = Expander::new(self, &meter, interners, &canon_memo, n_obj);
            // Per-batch scratch reused for the whole run: the batch's
            // records, its index round and its children's records. Cleared
            // between batches, never reallocated once warm.
            let mut batch: Vec<u32> = Vec::new();
            let mut resolved = IndexBatch::default();
            let mut spawned: Vec<u32> = Vec::new();
            // Consecutive failed sweeps drive the
            // spin→yield→park backoff; any found task resets it.
            let mut backoff: u32 = 0;
            // Per-worker xorshift32 stream (odd seed from a
            // golden-ratio multiply) rotating each sweep's
            // starting victim so simultaneous thieves fan out
            // across victims instead of convoying on one.
            let mut rng: u32 = (me as u32).wrapping_mul(0x9E37_79B9) | 1;
            'work: loop {
                if abort.load(Ordering::Acquire) {
                    break;
                }
                // The own deque first (depth-first locally, cache-warm
                // parents), then sweep the victims.
                batch.clear();
                {
                    let mut own = own.lock().expect("deque lock poisoned");
                    let at = own.len() - (own.len() / stride).min(WS_BATCH) * stride;
                    batch.extend(own.drain(at..));
                }
                if batch.is_empty() {
                    // The no-local-work path — sweep, spin, yield — counts
                    // as idle time; the clock only runs while this worker
                    // is not expanding, so it is measured even on untraced
                    // runs. Parked waits are timed separately in `parked`
                    // so reported idle stays proportional to burned CPU.
                    let sweep_t0 = Instant::now();
                    let mut stolen = None;
                    if workers > 1 {
                        rng ^= rng << 13;
                        rng ^= rng >> 17;
                        rng ^= rng << 5;
                        let rot = rng as usize % (workers - 1);
                        for k in 0..workers - 1 {
                            let victim = (me + 1 + (rot + k) % (workers - 1)) % workers;
                            if let Some(extra) =
                                steal_half(&deques[victim], own, stride, &mut batch)
                            {
                                stolen = Some((victim, extra));
                                break;
                            }
                        }
                    }
                    let Some((victim_hit, extra)) = stolen else {
                        out.stats.steal_fails += 1;
                        out.stats.idle += sweep_t0.elapsed();
                        // Per-attempt miss events would be unbounded in a
                        // spin storm; sampling at power-of-two
                        // `steal_fails` keeps the trace logarithmic while
                        // the `idle_spins`/`park_count` fields preserve the
                        // storm's intensity.
                        if traced && out.stats.steal_fails.is_power_of_two() {
                            tracer.emit_with("ws.steal", || {
                                Json::object()
                                    .set("worker", me)
                                    .set("outcome", "miss")
                                    .set("idle_spins", out.stats.idle_spins)
                                    .set("park_count", out.stats.park_count)
                                    .set("pending", pending.load(Ordering::Relaxed))
                            });
                        }
                        if pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        // Exponential backoff: brief spins first (work
                        // usually reappears in microseconds), then
                        // scheduler yields, then timed parks — so a
                        // starved worker's CPU burn is bounded per idle
                        // episode while the `pending` poll above still
                        // detects quiescence promptly.
                        backoff = backoff.saturating_add(1);
                        if backoff <= WS_SPIN_ROUNDS {
                            out.stats.idle_spins += 1;
                            for _ in 0..(1u32 << backoff) {
                                std::hint::spin_loop();
                            }
                        } else if backoff <= WS_SPIN_ROUNDS + WS_YIELD_ROUNDS {
                            out.stats.idle_spins += 1;
                            std::thread::yield_now();
                        } else {
                            out.stats.park_count += 1;
                            if let Some(live) = live {
                                live.parked_workers.add(1);
                            }
                            let park_t0 = Instant::now();
                            std::thread::park_timeout(WS_PARK);
                            if let Some(live) = live {
                                live.parked_workers.sub(1);
                            }
                            out.stats.parked += park_t0.elapsed();
                        }
                        continue;
                    };
                    out.stats.steals += 1;
                    if let Some(live) = live {
                        live.steals.bump();
                    }
                    // The extras landed in our own deque, which was empty
                    // (its pop failed, and only we push to it); the record
                    // in the batch counts toward depth too.
                    out.stats.max_deque_depth = out.stats.max_deque_depth.max(extra + 1);
                    let sweep = sweep_t0.elapsed();
                    out.stats.idle += sweep;
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
                } else {
                    out.stats.local_hits += (batch.len() / stride) as u64;
                }
                backoff = 0;
                let tasks = batch.len() / stride;
                let budget = limits
                    .max_configs
                    .saturating_sub(claimed.fetch_add(tasks, Ordering::Relaxed));
                let expand = tasks.min(budget);
                if expand < tasks {
                    // Over-budget records die unexpanded; their rows stay
                    // in the index, so assembly still covers them.
                    truncated.store(true, Ordering::Relaxed);
                    if expand == 0 {
                        pending.fetch_sub(tasks, Ordering::AcqRel);
                        continue;
                    }
                }
                // Per-batch expansion timing is a clock read per batch:
                // traced runs only.
                let batch_t0 = traced.then(Instant::now);
                expander.clear();
                let edge_base = out.edge_pool.len();
                for record in batch.chunks_exact(stride).take(expand) {
                    let first = expander.succs.len();
                    if let Err(err) = expander.expand(&record[1..], &mut out.stats) {
                        let mut slot = first_error.lock().expect("error slot poisoned");
                        slot.get_or_insert(err);
                        abort.store(true, Ordering::Release);
                        break 'work;
                    }
                    out.tasks.push((
                        record[0],
                        u32::try_from(edge_base + first).expect("edge pool overflow"),
                        u32::try_from(expander.succs.len() - first).expect("edge fan-out overflow"),
                    ));
                }
                out.stats.expanded += expand;
                // One index round for every successor of the batch, then
                // its edges in expansion order and a record per new node.
                let succs = expander.succs.len();
                out.stats.index_batch_hits +=
                    index.resolve(succs, |k| expander.key(k), &mut resolved);
                spawned.clear();
                for ((succ, key), &(target, inserted)) in expander.succs().zip(&resolved.results) {
                    out.edge_pool
                        .push(PackedEdge::new(target, succ.pid, succ.outcome));
                    if inserted {
                        spawned.push(target);
                        spawned.extend_from_slice(key);
                    } else {
                        out.stats.dedup_hits += 1;
                    }
                }
                let fresh = spawned.len() / stride;
                if fresh > tasks {
                    let grow = fresh - tasks;
                    let now = pending.fetch_add(grow, Ordering::AcqRel) + grow;
                    peak_pending.fetch_max(now, Ordering::Relaxed);
                }
                if fresh > 0 {
                    let mut own = own.lock().expect("deque lock poisoned");
                    own.extend(&spawned);
                    out.stats.max_deque_depth = out.stats.max_deque_depth.max(own.len() / stride);
                }
                if fresh < tasks {
                    pending.fetch_sub(tasks - fresh, Ordering::AcqRel);
                }
                // Live mirror: one publish per batch (never per successor),
                // with the mem gauges refreshed whenever the tally crosses
                // a multiple of 64 so the watcher never perturbs the hot
                // path. Every successor either deduplicated or spawned.
                let (before, done) = (out.stats.expanded - expand, out.stats.expanded);
                if let Some(live) = live {
                    let mem = (before / 64 != done / 64).then(|| MemBytes {
                        interner: state_interner.approx_bytes() + proc_interner.approx_bytes(),
                        index: index.approx_bytes(),
                        canon: canon_memo.approx_bytes(),
                        deques: 0,
                    });
                    let frontier = pending.load(Ordering::Relaxed);
                    live.publish(expand, succs, succs - fresh, frontier, mem);
                }
                if let Some(t0) = batch_t0 {
                    let d = t0.elapsed();
                    out.stats.busy += d;
                    hists.batch_expand.record(d);
                    // A progress beat on the first batch and on every batch
                    // that crosses a multiple of 32 expansions: the
                    // worker's tally so far plus its deque depth. The beat
                    // timestamps are what obs_analyze turns into the
                    // per-worker utilization timeline.
                    if before == 0 || before / 32 != done / 32 {
                        let depth = {
                            let own = own.lock().expect("deque lock poisoned");
                            out.stats.deque_bytes = own.capacity() * size_of::<u32>();
                            own.len() / stride
                        };
                        tracer.emit_with("ws.expand", || out.stats.to_json().set("deque", depth));
                    }
                }
            }
            out.stats.deque_bytes =
                own.lock().expect("deque lock poisoned").capacity() * size_of::<u32>();
            tracer.emit_with("ws.done", || out.stats.to_json());
            out
        };
        let outs: Vec<WsWorkerOut> = if workers == 1 {
            vec![run_worker(0)]
        } else {
            std::thread::scope(|s| {
                let run_worker = &run_worker;
                let handles: Vec<_> = (0..workers)
                    .map(|me| s.spawn(move || run_worker(me)))
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
        let count = index.len();
        let pieces = outs.iter().map(|out| (&out.edge_pool[..], &out.tasks[..]));
        let edges = Csr::assemble(count, pieces);
        let complete = !truncated.load(Ordering::Relaxed);
        let stats = meter.finish(EngineEnd {
            tallies: outs.into_iter().map(|out| out.stats).collect(),
            levels: None,
            configs: count,
            peak_frontier: peak_pending.load(Ordering::Relaxed),
            canon_memo_bytes: canon_memo.approx_bytes(),
            state_interner: &state_interner,
            proc_interner: &proc_interner,
            index_bytes: index.approx_bytes(),
        });
        Ok(InternedGraph::new(
            (index.into_rows(), width, n_obj),
            edges,
            complete,
            stats,
            (state_interner, proc_interner),
        ))
    }

    /// Interns every component of `config` into its key row: object-state
    /// ids followed by process-status ids.
    fn compact(
        &self,
        config: &Configuration<P::LocalState>,
        state_interner: &Interner<AnyState>,
        proc_interner: &Interner<ProcStatus<P::LocalState>>,
    ) -> Vec<u32> {
        config
            .object_states
            .iter()
            .map(|s| state_interner.intern(s))
            .chain(config.procs.iter().map(|p| proc_interner.intern(p)))
            .collect()
    }

    /// The raw (un-memoized) step of `pid`, running in local state `local`,
    /// applying `pending` to an object in state `state`: run the
    /// specification and the protocol through the kernel, intern the
    /// results.
    fn compute_pairs(
        &self,
        (pid, local): (Pid, &P::LocalState),
        pending: (ObjId, Op),
        state: &AnyState,
        state_interner: &Interner<AnyState>,
        proc_interner: &Interner<ProcStatus<P::LocalState>>,
    ) -> Result<Vec<(u32, u32)>, RuntimeError> {
        let step = self.kernel.begin_at(pid, local, pending, state)?;
        let mut pairs = Vec::with_capacity(step.outcome_count());
        step.for_each(|t| {
            pairs.push((
                state_interner.intern(&t.obj_state),
                proc_interner.intern(&t.status),
            ));
        });
        Ok(pairs)
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
///     .run()?;
/// ```
#[must_use = "an Exploration does nothing until .run() is called"]
pub struct Exploration<'e, 'a, P: Protocol> {
    pub(crate) explorer: &'e Explorer<'a, P>,
    from: Option<Configuration<P::LocalState>>,
    options: ExploreOptions,
    pub(crate) symmetry: Option<ConfigSymmetry<'a, P::LocalState>>,
    pub(crate) tracer: Option<Tracer>,
    pub(crate) strategy: Strategy,
    registry: Option<Registry>,
    pub(crate) progress_every: Option<Duration>,
}

impl<'e, 'a, P: Protocol> Exploration<'e, 'a, P> {
    /// Starts a builder over `explorer` with default options: the initial
    /// configuration, [`Limits::default`], automatic thread count.
    pub fn builder(explorer: &'e Explorer<'a, P>) -> Self {
        Exploration {
            explorer,
            from: None,
            options: ExploreOptions::default(),
            symmetry: None,
            tracer: None,
            strategy: Strategy::default(),
            registry: explorer.registry.clone(),
            progress_every: None,
        }
    }

    /// Makes the `check_*` terminals run a seeded sampling sweep instead of
    /// exploring: it reaches instances far beyond the exhaustive frontier
    /// and answers with a confidence bound. [`Exploration::run`] always
    /// explores exhaustively — a graph of sampled runs would be a
    /// contradiction in terms. Only k-set agreement and consensus have
    /// sampled semantics.
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
    pub fn sample(mut self, config: SampleConfig) -> Self {
        self.strategy = Strategy::Sample(config);
        self
    }

    /// Sets the resource limits (see [`Limits`]).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.options.limits = limits;
        self
    }

    /// Sets the work-stealing worker count (`0` = auto; see
    /// [`ExploreOptions::threads`]). The deterministic frontier ignores it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
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
    /// the `check_*` terminals in [`crate::verdict`] do exactly that.
    pub fn symmetric(mut self) -> Self
    where
        P: Symmetry,
        P::LocalState: Ord,
    {
        let sym = ConfigSymmetry::of(self.explorer.kernel.protocol());
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
    /// discovery order, which depends on scheduling, and reports no
    /// [`ExploreStats::levels`] (it has no levels). Truncated
    /// work-stealing runs cut the space at a scheduling-dependent
    /// boundary, so only complete runs are comparable across modes.
    pub fn frontier(mut self, frontier: Frontier) -> Self {
        self.options.frontier = frontier;
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
    /// or per batch of tasks.
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
    pub(crate) fn live_metrics(&self) -> Option<LiveMetrics> {
        match (&self.registry, self.progress_every) {
            (Some(registry), _) => Some(LiveMetrics::register(registry)),
            (None, Some(_)) => Some(LiveMetrics::register(&Registry::new())),
            (None, None) => None,
        }
    }

    /// Runs the exploration and returns the execution graph, with every
    /// node's configuration built from its interned row.
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
        // Work-stealing runs build their configurations on as many
        // threads as they explored on; the deterministic frontier stays
        // on one.
        let threads = match self.options.frontier {
            Frontier::Deterministic => 1,
            Frontier::WorkStealing => self.options.resolved_threads(),
        };
        self.explore(&tracer, symmetry.as_ref(), live.as_ref())
            .map(|graph| graph.materialize(threads))
    }

    /// Runs the engine the frontier option selects from the start
    /// configuration, under a progress watcher when one was requested, and
    /// records the interned graph's footprint in the live registry.
    pub(crate) fn explore(
        &mut self,
        tracer: &Tracer,
        symmetry: Option<&ConfigSymmetry<'a, P::LocalState>>,
        live: Option<&LiveMetrics>,
    ) -> Result<InternedGraph<P::LocalState>, RuntimeError> {
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
        let options = self.options;
        let result = match options.frontier {
            Frontier::Deterministic => {
                explorer.run_engine(initial, options, symmetry, tracer, live)
            }
            Frontier::WorkStealing => {
                explorer.run_engine_ws(initial, options, symmetry, tracer, live)
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
    use lbsa_runtime::process::Step;

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
        let ex = Explorer::new(&p, &objects);
        let g = ex.exploration().run().unwrap();
        assert!(
            g.complete,
            "state space is finite despite the infinite execution"
        );
        assert!(g.has_cycle());
        let w = ex.exploration().check_wait_free().witness.unwrap();
        w.confirm(&ex).expect("the cycle is reachable and pumps");
    }

    #[test]
    fn truncation_is_reported() {
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let g = Explorer::new(&p, &objects)
            .exploration()
            .limits(Limits::new(2))
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
                .limits(Limits::new(budget))
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
                .limits(Limits::new(budget))
                .threads(1)
                .run()
                .unwrap();
            let par = ex
                .exploration()
                .limits(Limits::new(budget))
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
            ExploreOptions {
                threads: 3,
                ..ExploreOptions::default()
            }
            .resolved_threads(),
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
    fn stats_levels_see_every_level() {
        use lbsa_support::obs::MemorySink;
        let p = RaceConsensus { n: 3 };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let sink = MemorySink::new();
        let g = ex
            .exploration()
            .threads(1)
            .trace(Tracer::new(sink.clone()))
            .run()
            .unwrap();
        // One `LevelStats` per traced `level` event, with the same width.
        let traced: Vec<i64> = sink
            .events()
            .iter()
            .filter(|e| e.name == "level")
            .filter_map(|e| e.fields.get("width").and_then(Json::as_i64))
            .collect();
        let widths: Vec<usize> = g.stats.levels.iter().map(|l| l.width).collect();
        assert_eq!(traced, widths.iter().map(|&w| w as i64).collect::<Vec<_>>());
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
                .from(ex.initial_config())
                .limits(Limits::default())
                .run()
                .unwrap()
        ));
        assert!(reference.same_structure(
            &ex.exploration()
                .from(ex.initial_config())
                .threads(1)
                .frontier(Frontier::Deterministic)
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

    #[test]
    fn configs_missing_object_states_are_rejected_not_indexed() {
        // `Configuration`'s fields are public, so a caller can hand in one
        // with fewer object states than the explorer has objects.
        let p = RaceConsensus { n: 2 };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let mut c = ex.initial_config();
        c.object_states.clear();
        let expected = RuntimeError::ObjIdOutOfRange {
            obj: ObjId(0),
            len: 0,
        };
        assert_eq!(ex.successors_of(&c, Pid(0)), Err(expected.clone()));
        assert_eq!(ex.step(&c, Pid(0), 0), Err(expected));
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
        let g = Explorer::new(&p, &objects).exploration().run().unwrap();
        assert!(!g.stats.levels.is_empty());
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

    /// A task record of width 3 that carries its number in every id, so
    /// a record torn apart or shifted by a steal shows.
    fn record(i: usize) -> [u32; 4] {
        let i = i as u32;
        [i, i ^ 0x55, i.wrapping_mul(7), !i]
    }

    fn records(range: std::ops::Range<usize>) -> VecDeque<u32> {
        range.flat_map(record).collect()
    }

    #[test]
    fn steal_half_takes_the_oldest_half_up_to_the_cap() {
        let mut batch = Vec::new();
        for len in [1, 2, 3, 7, 2 * WS_STEAL_MAX + 5] {
            let victim = Mutex::new(records(0..len));
            let own = Mutex::new(VecDeque::new());
            batch.clear();
            let extra = steal_half(&victim, &own, 4, &mut batch).unwrap();
            let take = len.div_ceil(2).min(WS_STEAL_MAX);
            assert_eq!(extra + 1, take, "victim of {len}");
            // The thief gets the oldest record, and the extras land behind
            // it in order, so its own LIFO pops start at the newest stolen.
            assert_eq!(batch, record(0));
            assert_eq!(own.into_inner().unwrap(), records(1..take));
            // The victim keeps its newest records in order.
            assert_eq!(victim.into_inner().unwrap(), records(take..len));
        }
        let empty = Mutex::new(VecDeque::new());
        let own = Mutex::new(VecDeque::new());
        batch.clear();
        assert!(steal_half(&empty, &own, 4, &mut batch).is_none());
        assert!(batch.is_empty());
        assert!(own.into_inner().unwrap().is_empty());
    }

    #[test]
    fn an_owner_and_two_thieves_see_every_task_once() {
        const TASKS: usize = 100_000;
        const STRIDE: usize = 4;
        let deques: Vec<Mutex<VecDeque<u32>>> =
            (0..3).map(|_| Mutex::new(VecDeque::new())).collect();
        // Pops up to `n` records off the back of `deque` into `seen`.
        let pop = |deque: &Mutex<VecDeque<u32>>, n: usize, seen: &mut Vec<u32>| {
            let mut deque = deque.lock().unwrap();
            let at = deque.len() - (deque.len() / STRIDE).min(n) * STRIDE;
            seen.extend(deque.drain(at..));
        };
        let owner_done = AtomicBool::new(false);
        let seen = std::thread::scope(|s| {
            let thieves: Vec<_> = (1..3)
                .map(|me| {
                    let (deques, owner_done, pop) = (&deques, &owner_done, &pop);
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        loop {
                            // Read before trying: once the owner is done,
                            // its deque stays empty, so a miss after that
                            // is final.
                            let finished = owner_done.load(Ordering::Acquire);
                            let before = seen.len();
                            pop(&deques[me], 2, &mut seen);
                            if seen.len() == before
                                && steal_half(&deques[0], &deques[me], STRIDE, &mut seen).is_none()
                                && finished
                            {
                                return seen;
                            }
                        }
                    })
                })
                .collect();
            // The owner pushes three records with one lock and pops one,
            // then drains what the thieves left, five at a time.
            let mut seen = Vec::new();
            for start in (0..TASKS).step_by(3) {
                deques[0]
                    .lock()
                    .unwrap()
                    .extend(records(start..(start + 3).min(TASKS)));
                pop(&deques[0], 1, &mut seen);
            }
            while !deques[0].lock().unwrap().is_empty() {
                pop(&deques[0], 5, &mut seen);
            }
            owner_done.store(true, Ordering::Release);
            for thief in thieves {
                seen.extend(thief.join().unwrap());
            }
            seen
        });
        assert_eq!(seen.len(), TASKS * STRIDE);
        let mut ids: Vec<usize> = seen
            .chunks_exact(STRIDE)
            .map(|r| {
                assert_eq!(r, record(r[0] as usize), "records stay whole");
                r[0] as usize
            })
            .collect();
        ids.sort_unstable();
        assert!(ids.into_iter().eq(0..TASKS));
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
                .limits(Limits::new(budget))
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
    fn work_stealing_expands_exactly_the_budget() {
        let p = RaceConsensus { n: 8 };
        let objects = vec![AnyObject::consensus(8).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let reachable = ex.exploration().run().unwrap().len();
        let budgets = [1, WS_BATCH - 1, WS_BATCH, WS_BATCH + 1, 3 * WS_BATCH + 2];
        assert!(budgets.iter().all(|&b| b < reachable));
        for threads in [1, 2, 4] {
            for budget in budgets {
                let ws = ex
                    .exploration()
                    .limits(Limits::new(budget))
                    .threads(threads)
                    .frontier(Frontier::WorkStealing)
                    .run()
                    .unwrap();
                assert!(!ws.complete);
                let expanded = ws.expanded.iter().filter(|&&e| e).count();
                assert_eq!(expanded, budget, "budget {budget} at {threads} threads");
                assert_eq!(ws.stats.expanded, budget);
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
                "per-batch timing needs a tracer; untraced busy must stay zero"
            );
        }
        assert_aggregates_sum_workers(stats);
        assert!(stats.worker_imbalance() >= 1.0);
        // Untraced runs record no per-batch or steal latency distributions.
        assert!(stats.hist.batch_expand.is_empty());
        assert!(stats.hist.steal.is_empty());
    }

    /// Every counting aggregate of a work-stealing run is the sum of its
    /// per-worker tallies.
    fn assert_aggregates_sum_workers(stats: &ExploreStats) {
        let sum = |f: fn(&WorkerStats) -> u64| stats.workers.iter().map(f).sum::<u64>();
        let sum_usize = |f: fn(&WorkerStats) -> usize| stats.workers.iter().map(f).sum::<usize>();
        assert_eq!(stats.threads, stats.workers.len());
        assert_eq!(sum_usize(|w| w.expanded), stats.expanded);
        assert_eq!(sum_usize(|w| w.transitions), stats.transitions);
        assert_eq!(sum_usize(|w| w.dedup_hits), stats.dedup_hits);
        assert_eq!(sum(|w| w.steals), stats.steals);
        assert_eq!(sum(|w| w.steal_fails), stats.steal_fails);
        assert_eq!(sum(|w| w.local_hits), stats.local_hits);
        assert_eq!(sum(|w| w.park_count), stats.park_count);
        assert_eq!(sum(|w| w.index_batch_hits), stats.index_batch_hits);
        assert_eq!(sum(|w| w.memo_hits), stats.memo_hits);
        assert_eq!(sum(|w| w.memo_misses), stats.memo_misses);
    }

    #[test]
    fn live_counters_end_at_the_stats_totals() {
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        for (frontier, threads) in [(Frontier::Deterministic, 1), (Frontier::WorkStealing, 2)] {
            let registry = Registry::new();
            let g = ex
                .exploration()
                .frontier(frontier)
                .threads(threads)
                .registry(registry.clone())
                .run()
                .unwrap();
            let snapshot = registry.snapshot();
            let read = |name| snapshot.get(name).and_then(Json::as_i64);
            assert_eq!(read("explore.configs"), Some(g.stats.expanded as i64));
            assert_eq!(
                read("explore.transitions"),
                Some(g.stats.transitions as i64)
            );
            assert_eq!(read("explore.dedup_hits"), Some(g.stats.dedup_hits as i64));
            assert_eq!(read("explore.frontier_depth"), Some(0), "{frontier:?}");
            assert_eq!(read("mem.index_bytes"), Some(g.stats.index_bytes as i64));
            // The graph gauge is the interned graph's footprint, which the
            // materialized graph reports too.
            assert_eq!(read("mem.graph_bytes"), Some(g.approx_bytes() as i64));
        }
    }

    #[test]
    fn ws_done_is_the_worker_row() {
        use lbsa_support::obs::MemorySink;
        let p = RaceConsensus { n: 4 };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let ex = Explorer::new(&p, &objects);
        for threads in [2, 4] {
            let sink = MemorySink::new();
            let ws = ex
                .exploration()
                .threads(threads)
                .frontier(Frontier::WorkStealing)
                .trace(Tracer::new(sink.clone()))
                .run()
                .unwrap();
            let stats = &ws.stats;
            assert_eq!(stats.workers.len(), threads);
            let done: Vec<Json> = sink
                .events()
                .into_iter()
                .filter(|e| e.name == "ws.done")
                .map(|e| e.fields)
                .collect();
            assert_eq!(done.len(), threads, "one ws.done per worker");
            for payload in &done {
                let w = payload
                    .get("worker")
                    .and_then(Json::as_i64)
                    .expect("ws.done names its worker");
                let row = stats.workers[usize::try_from(w).unwrap()].to_json();
                let fields = payload.as_obj().expect("object payload");
                assert_eq!(
                    fields,
                    row.as_obj().unwrap(),
                    "worker {w} at {threads} threads"
                );
            }
            // The report's rows are the same renderer's output.
            let report = stats.to_json();
            let rows = report.get("workers").and_then(Json::as_arr).unwrap();
            for (row, w) in rows.iter().zip(&stats.workers) {
                assert_eq!(row, &w.to_json());
            }
            assert_aggregates_sum_workers(stats);
        }
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
                    e.fields.get("idle_spins").and_then(Json::as_i64).is_some(),
                    "steal misses carry the spin count"
                ),
                other => panic!("unexpected steal outcome {other:?}"),
            }
        }
        // Traced runs populate the per-batch latency distribution: one
        // sample per batch, each of at most `WS_BATCH` expanded tasks.
        let stats = &ws.stats;
        let batches = stats.hist.batch_expand.count();
        assert!(
            (stats.expanded.div_ceil(WS_BATCH) as u64..=stats.expanded as u64).contains(&batches)
        );
        assert_eq!(
            stats.hist.steal.count(),
            stats.steals,
            "every successful steal records its latency"
        );
        assert!(
            stats.workers.iter().map(|w| w.busy).sum::<Duration>() > Duration::ZERO,
            "traced workers measure their expansion time"
        );
        let doc = stats.to_json();
        assert!(doc.get("workers").is_some());
        assert!(
            doc.get("hist")
                .and_then(|h| h.get("batch_expand"))
                .is_some(),
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
