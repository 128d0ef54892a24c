//! Exploration metrics: where the model checker's time and memory go.
//!
//! [`ExploreStats`] is filled in by every exploration and carried on the
//! resulting [`ExplorationGraph`](crate::ExplorationGraph); the experiment
//! binaries print it so state-space growth and engine throughput are
//! visible in the recorded experiment outputs. [`ExploreStats::to_json`]
//! is the `metrics.explore` section of the schema-v2 report artifacts.
//!
//! Timings are wall-clock and therefore *not* part of graph identity: two
//! explorations of the same protocol produce identical graphs with
//! different stats.

use lbsa_support::json::Json;
use lbsa_support::obs::HistogramNs;
use std::time::Duration;

/// Per-BFS-level measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct LevelStats {
    /// BFS level index (0 = the initial configuration's level).
    pub level: usize,
    /// Number of configurations expanded in this level.
    pub width: usize,
    /// Transitions discovered while expanding this level.
    pub transitions: usize,
    /// Wall-clock time spent on this level.
    pub elapsed: Duration,
    /// Wall-clock time of this level's expansion (successor computation,
    /// canonicalization, interning, dedup probing, node numbering). The
    /// engine expands and merges in one pass, so this is the whole level.
    pub expand: Duration,
}

/// Aggregate per-phase wall-clock breakdown of an exploration.
///
/// `expand` is the measured per-level work (≤ [`ExploreStats::elapsed`];
/// the remainder is frontier bookkeeping between levels). `canonicalize`
/// is a *subset* of `expand`, measured per call and therefore only
/// populated when a tracer is attached — the per-successor clock reads
/// would otherwise violate the overhead policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Total expansion time across levels.
    pub expand: Duration,
    /// Time inside orbit canonicalization (⊆ `expand`; zero unless the run
    /// was traced, see [`crate::Exploration::trace`]).
    pub canonicalize: Duration,
}

/// The tally of one engine thread, and the only place an exploration
/// counts: the level-sync engine keeps one, each work-stealing worker keeps
/// its own and bumps it directly. The [`ExploreStats`] aggregates are sums
/// over these tallies, a work-stealing worker's `ws.done` trace event is
/// its [`WorkerStats::to_json`], and the live registry advances by what
/// each level or batch adds to them.
///
/// The counting fields are always populated (steal, deque and idle fields
/// stay zero on the level-sync engine, which exposes no per-worker rows).
/// The wall-clock fields follow the overhead policy: `idle` is measured
/// unconditionally (the clock is only read while the worker has no work to
/// do), while `busy` requires a per-batch clock read and is therefore zero
/// unless the run was traced.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Worker index, `0..threads`.
    pub worker: usize,
    /// Configurations this worker expanded.
    pub expanded: usize,
    /// Transitions this worker discovered.
    pub transitions: usize,
    /// Successors this worker resolved to an already-known node.
    pub dedup_hits: usize,
    /// Successful steal operations this worker performed.
    pub steals: u64,
    /// Full steal sweeps by this worker that came back empty.
    pub steal_fails: u64,
    /// Tasks this worker popped from its own deque.
    pub local_hits: u64,
    /// Deepest its own deque ever got (sampled at push time).
    pub max_deque_depth: usize,
    /// CPU-burning backoff rounds (spin or yield) while looking for work.
    /// Bounded per idle episode by the engine's backoff thresholds; parked
    /// waits count in `park_count` instead.
    pub idle_spins: u64,
    /// Times this worker parked after exhausting its spin/yield budget.
    pub park_count: u64,
    /// Footprint of this worker's deque buffer (its capacity in ids; a
    /// task is a record of one id plus its key row), read at each
    /// progress beat and at sign-off.
    pub deque_bytes: usize,
    /// Keys this worker's batched index rounds missed under a shard's read
    /// lock and found under its write lock: nodes another worker claimed
    /// in between, or an earlier duplicate in the same batch.
    pub index_batch_hits: u64,
    /// Transition-memo lookups this worker answered without stepping, from
    /// its private memo map or the work-stealing engine's shared one.
    pub memo_hits: u64,
    /// Transition-memo lookups that missed every memo and ran the step.
    pub memo_misses: u64,
    /// Successors whose canonical form came out of the engine's canon
    /// memo (zero unless symmetry-reduced).
    pub canon_memo_hits: u64,
    /// Wall-clock time spent idle burning CPU (failed steal sweeps,
    /// spinning, yielding). Excludes parked time, so it stays proportional
    /// to CPU actually consumed while starved.
    pub idle: Duration,
    /// Wall-clock time spent parked (the thread was asleep, not burning a
    /// core).
    pub parked: Duration,
    /// Wall-clock time spent expanding batches of tasks. Zero unless
    /// traced — this needs a clock read per batch.
    pub busy: Duration,
}

impl WorkerStats {
    /// Serializes one worker's row: the `ws.done` trace payload and an
    /// element of the `metrics.explore.workers` array.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("worker", self.worker)
            .set("expanded", self.expanded)
            .set("transitions", self.transitions)
            .set("dedup_hits", self.dedup_hits)
            .set("steals", self.steals)
            .set("steal_fails", self.steal_fails)
            .set("local_hits", self.local_hits)
            .set("max_deque_depth", self.max_deque_depth)
            .set("idle_spins", self.idle_spins)
            .set("park_count", self.park_count)
            .set("deque_bytes", self.deque_bytes)
            .set("index_batch_hits", self.index_batch_hits)
            .set("memo_hits", self.memo_hits)
            .set("memo_misses", self.memo_misses)
            .set("canon_memo_hits", self.canon_memo_hits)
            .set("idle_us", duration_us(self.idle))
            .set("parked_us", duration_us(self.parked))
            .set("busy_us", duration_us(self.busy))
    }
}

/// Per-worker telemetry for one sampling sweep (see the `sampling`
/// module): the sampler's analogue of [`WorkerStats`]. Each worker owns a
/// stride of the seed range, so the per-worker run counts depend on the
/// thread count even though the merged sweep report (and the verdict's
/// [`Outcome::HoldsSampled`](crate::Outcome::HoldsSampled)) does not — which is why these live in trace events (`sample.worker`),
/// never in the report itself.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SampleWorkerStats {
    /// Worker index, `0..threads`.
    pub worker: usize,
    /// Seeded runs this worker executed.
    pub runs: u64,
    /// Runs that reached quiescence.
    pub quiescent: u64,
    /// Runs stopped by the per-run step budget.
    pub budget_hit: u64,
    /// Total atomic steps across this worker's runs.
    pub total_steps: usize,
    /// Wall-clock time from the worker's first run to its last.
    pub busy: Duration,
}

impl SampleWorkerStats {
    /// Stats for worker `worker` with nothing recorded yet.
    #[must_use]
    pub fn new(worker: usize) -> SampleWorkerStats {
        SampleWorkerStats {
            worker,
            ..SampleWorkerStats::default()
        }
    }

    /// Serializes one worker's `sample.worker` trace payload.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("worker", self.worker)
            .set("runs", self.runs)
            .set("quiescent", self.quiescent)
            .set("budget_hit", self.budget_hit)
            .set("total_steps", self.total_steps)
            .set("busy_us", duration_us(self.busy))
    }
}

/// The run's latency histograms (see
/// [`HistogramNs`](lbsa_support::obs::HistogramNs)): log2-bucketed
/// nanosecond distributions that survive aggregation, where the
/// [`PhaseTimes`] totals only say how much, not how it was spread.
///
/// `level_expand` records one sample per BFS level and is always on
/// (per-level clock reads are already part of [`LevelStats`]).
/// `steal` records the latency of each successful steal operation, and
/// `canonicalize`/`batch_expand` record per-call and per-batch costs — all
/// three need extra clock reads on hot paths and are therefore only
/// populated when the run is traced.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistograms {
    /// Per-level expansion-phase times (level-sync frontier, always on).
    pub level_expand: HistogramNs,
    /// Latency of each successful steal operation (traced runs only).
    pub steal: HistogramNs,
    /// Size of each successful steal batch — raw task counts, not
    /// nanoseconds (traced, work-stealing runs only).
    pub steal_batch: HistogramNs,
    /// Per-call orbit-canonicalization cost (traced, reduced runs only).
    pub canonicalize: HistogramNs,
    /// Per-batch expansion cost in the work-stealing frontier: one sample
    /// per batch of tasks a worker took off its deque, from expansion
    /// through enqueuing the children (traced runs only).
    pub batch_expand: HistogramNs,
}

impl LatencyHistograms {
    /// Serializes every non-empty histogram under its name; `None` when
    /// nothing was recorded (the report omits the `hist` object entirely).
    #[must_use]
    pub fn to_json(&self) -> Option<Json> {
        let named = [
            ("level_expand", &self.level_expand),
            ("steal", &self.steal),
            ("steal_batch", &self.steal_batch),
            ("canonicalize", &self.canonicalize),
            ("batch_expand", &self.batch_expand),
        ];
        let mut doc = Json::object();
        let mut any = false;
        for (name, hist) in named {
            if !hist.is_empty() {
                doc = doc.set(name, hist.to_json());
                any = true;
            }
        }
        any.then_some(doc)
    }
}

/// Aggregate metrics of one exploration run.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Configurations discovered (graph nodes).
    pub configs: usize,
    /// Configurations expanded (successors computed).
    pub expanded: usize,
    /// Transitions discovered (graph edges).
    pub transitions: usize,
    /// Successor configurations that deduplicated onto an existing node.
    pub dedup_hits: usize,
    /// Distinct interned object states.
    pub distinct_object_states: usize,
    /// Distinct interned process statuses.
    pub distinct_proc_statuses: usize,
    /// Widest BFS frontier encountered.
    pub peak_frontier: usize,
    /// Worker threads used for frontier expansion (always 1 on the
    /// deterministic frontier).
    pub threads: usize,
    /// `true` if the exploration deduplicated on canonical orbit
    /// representatives (symmetry reduction) rather than raw configurations.
    pub reduced: bool,
    /// Total wall-clock time of the exploration.
    pub elapsed: Duration,
    /// Per-phase wall-clock breakdown (see [`PhaseTimes`]).
    pub phases: PhaseTimes,
    /// Transition-memo lookups that hit a previously computed successor
    /// set.
    pub memo_hits: u64,
    /// Transition-memo lookups that missed and computed successors afresh.
    pub memo_misses: u64,
    /// State/status interner lookups resolved on the read path (value
    /// already interned).
    pub intern_hits: u64,
    /// State/status interner lookups that inserted a new distinct value.
    pub intern_misses: u64,
    /// Orbit canonicalizations of successors that missed the engine's canon
    /// memo (zero unless symmetry-reduced; the root is not counted).
    pub canon_calls: u64,
    /// Successors whose canonical form cost no rewrite: it came out of the
    /// engine's canon memo, or the successor was already canonical (its
    /// statuses sorted within each class and no tie shuffle lowering its
    /// object states). Zero unless symmetry-reduced.
    pub canon_patches: u64,
    /// Successors the sort-and-tie canonicalization moved to a different
    /// member of their orbit. With `canon_patches` this adds up to the
    /// transition count. Zero unless symmetry-reduced.
    pub canon_full: u64,
    /// `true` if the run used the work-stealing frontier
    /// (`Frontier::WorkStealing`) instead of level-synchronous BFS.
    pub work_stealing: bool,
    /// Successful steal operations across workers (work-stealing only).
    pub steals: u64,
    /// Steal sweeps that visited every other worker's deque and found
    /// nothing (work-stealing only).
    pub steal_fails: u64,
    /// Tasks a worker popped from its own deque rather than stole
    /// (work-stealing only).
    pub local_hits: u64,
    /// Times a starved worker parked after exhausting its spin/yield
    /// backoff budget (work-stealing only).
    pub park_count: u64,
    /// Keys a batched index round missed under a shard's read lock and
    /// found under its write lock — races another worker won in between,
    /// or duplicates within the batch (work-stealing only).
    pub index_batch_hits: u64,
    /// Estimated heap footprint of the state/status interners at the end
    /// of the run (see `Interner::approx_bytes` — a structural estimate,
    /// not an allocator measurement).
    pub interner_bytes: usize,
    /// Heap bytes the dedup index held at the end of the run, beyond the
    /// rows it passes to the graph: the level-sync index's slot array (its
    /// rows become the graph's as they are, counted once, in the graph's
    /// `approx_bytes`), or the whole work-stealing index — shard rows,
    /// slot arrays and id columns — which is freed once its rows are
    /// copied out into the graph.
    pub index_bytes: usize,
    /// Per-level breakdown, in BFS order. Empty in work-stealing mode,
    /// which has no levels.
    pub levels: Vec<LevelStats>,
    /// Per-worker breakdown, indexed by worker id. Populated by the
    /// work-stealing frontier; empty for level-sync runs.
    pub workers: Vec<WorkerStats>,
    /// Latency distributions (see [`LatencyHistograms`]).
    pub hist: LatencyHistograms,
}

impl ExploreStats {
    /// Expanded configurations per second of wall-clock time.
    #[must_use]
    pub fn configs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.expanded as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of discovered transitions whose target configuration was
    /// already known (`0.0..=1.0`).
    #[must_use]
    pub fn dedup_rate(&self) -> f64 {
        if self.transitions > 0 {
            self.dedup_hits as f64 / self.transitions as f64
        } else {
            0.0
        }
    }

    /// Fraction of transition-memo lookups that hit (`0.0..=1.0`).
    #[must_use]
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total > 0 {
            self.memo_hits as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Number of BFS levels (graph depth plus one, when complete).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Load-imbalance factor across workers: the busiest worker's expanded
    /// count over the per-worker mean. `1.0` is perfectly balanced; `1.0`
    /// is also returned when there is no per-worker breakdown (level-sync
    /// runs) or nothing was expanded.
    #[must_use]
    pub fn worker_imbalance(&self) -> f64 {
        let total: usize = self.workers.iter().map(|w| w.expanded).sum();
        if self.workers.is_empty() || total == 0 {
            return 1.0;
        }
        let max = self.workers.iter().map(|w| w.expanded).max().unwrap_or(0);
        let mean = total as f64 / self.workers.len() as f64;
        max as f64 / mean
    }

    /// A one-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let reduced = if self.reduced {
            ", symmetry-reduced"
        } else {
            ""
        };
        let frontier = if self.work_stealing {
            ", work-stealing"
        } else {
            ""
        };
        format!(
            "{} configs, {} transitions, {:.1}% dedup, depth {}, peak frontier {}, {} threads{}{}, {:.3}s ({:.0} configs/s, {:.3}s expand)",
            self.configs,
            self.transitions,
            100.0 * self.dedup_rate(),
            self.depth(),
            self.peak_frontier,
            self.threads,
            reduced,
            frontier,
            self.elapsed.as_secs_f64(),
            self.configs_per_sec(),
            self.phases.expand.as_secs_f64(),
        )
    }

    /// Serializes the stats as the `metrics.explore` object of a schema-v2
    /// report: headline aggregates, the phase breakdown in microseconds,
    /// and the engine counters. Per-level detail stays in the JSONL trace,
    /// not the report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object()
            .set("configs", self.configs)
            .set("expanded", self.expanded)
            .set("transitions", self.transitions)
            .set("dedup_hits", self.dedup_hits)
            .set("distinct_object_states", self.distinct_object_states)
            .set("distinct_proc_statuses", self.distinct_proc_statuses)
            .set("peak_frontier", self.peak_frontier)
            .set("threads", self.threads)
            .set("levels", self.levels.len())
            .set("reduced", self.reduced)
            .set("elapsed_us", duration_us(self.elapsed))
            .set("expand_us", duration_us(self.phases.expand))
            .set("canonicalize_us", duration_us(self.phases.canonicalize))
            .set("memo_hits", self.memo_hits)
            .set("memo_misses", self.memo_misses)
            .set("intern_hits", self.intern_hits)
            .set("intern_misses", self.intern_misses)
            .set("canon_calls", self.canon_calls)
            .set("canon_patches", self.canon_patches)
            .set("canon_full", self.canon_full)
            .set(
                "frontier",
                if self.work_stealing {
                    "work-stealing"
                } else {
                    "level-sync"
                },
            )
            .set("steals", self.steals)
            .set("steal_fails", self.steal_fails)
            .set("local_hits", self.local_hits)
            .set("park_count", self.park_count)
            .set("index_batch_hits", self.index_batch_hits)
            .set("interner_bytes", self.interner_bytes)
            .set("index_bytes", self.index_bytes);
        if !self.workers.is_empty() {
            doc = doc.set("worker_imbalance", self.worker_imbalance()).set(
                "workers",
                Json::Arr(self.workers.iter().map(WorkerStats::to_json).collect()),
            );
        }
        if let Some(hist) = self.hist.to_json() {
            doc = doc.set("hist", hist);
        }
        doc
    }
}

/// A duration in whole microseconds, saturating at `u64::MAX`.
pub(crate) fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_runs() {
        let stats = ExploreStats::default();
        assert_eq!(stats.configs_per_sec(), 0.0);
        assert_eq!(stats.dedup_rate(), 0.0);
        assert_eq!(stats.memo_hit_rate(), 0.0);
        assert_eq!(stats.depth(), 0);
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let stats = ExploreStats {
            configs: 42,
            expanded: 40,
            transitions: 100,
            dedup_hits: 59,
            peak_frontier: 7,
            threads: 4,
            elapsed: Duration::from_millis(500),
            levels: vec![LevelStats::default(); 3],
            ..ExploreStats::default()
        };
        let s = stats.summary();
        assert!(s.contains("42 configs"));
        assert!(s.contains("100 transitions"));
        assert!(s.contains("59.0% dedup"));
        assert!(s.contains("depth 3"));
        assert!(s.contains("4 threads"));
        assert!(s.contains("80 configs/s"));
    }

    #[test]
    fn work_stealing_counters_flow_into_json_and_summary() {
        let stats = ExploreStats {
            work_stealing: true,
            steals: 12,
            steal_fails: 3,
            local_hits: 250,
            park_count: 7,
            index_batch_hits: 5,
            canon_patches: 40,
            canon_full: 2,
            ..ExploreStats::default()
        };
        assert!(stats.summary().contains("work-stealing"));
        let doc = stats.to_json();
        assert_eq!(
            doc.get("frontier").and_then(Json::as_str),
            Some("work-stealing")
        );
        assert_eq!(doc.get("steals"), Some(&Json::Int(12)));
        assert_eq!(doc.get("steal_fails"), Some(&Json::Int(3)));
        assert_eq!(doc.get("local_hits"), Some(&Json::Int(250)));
        assert_eq!(doc.get("park_count"), Some(&Json::Int(7)));
        assert_eq!(doc.get("index_batch_hits"), Some(&Json::Int(5)));
        assert_eq!(doc.get("canon_patches"), Some(&Json::Int(40)));
        assert_eq!(doc.get("canon_full"), Some(&Json::Int(2)));
        let level_sync = ExploreStats::default().to_json();
        assert_eq!(
            level_sync.get("frontier").and_then(Json::as_str),
            Some("level-sync")
        );
    }

    #[test]
    fn worker_stats_flow_into_json_with_imbalance() {
        let stats = ExploreStats {
            work_stealing: true,
            workers: vec![
                WorkerStats {
                    worker: 0,
                    expanded: 30,
                    transitions: 80,
                    steals: 2,
                    local_hits: 28,
                    max_deque_depth: 9,
                    idle_spins: 4,
                    idle: Duration::from_micros(120),
                    ..WorkerStats::default()
                },
                WorkerStats {
                    worker: 1,
                    expanded: 10,
                    steal_fails: 1,
                    ..WorkerStats::default()
                },
            ],
            ..ExploreStats::default()
        };
        // max 30 over mean 20.
        assert!((stats.worker_imbalance() - 1.5).abs() < 1e-9);
        let doc = stats.to_json();
        let workers = doc
            .get("workers")
            .and_then(Json::as_arr)
            .expect("workers array");
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].get("expanded"), Some(&Json::Int(30)));
        assert_eq!(workers[0].get("max_deque_depth"), Some(&Json::Int(9)));
        assert_eq!(workers[0].get("idle_us"), Some(&Json::Int(120)));
        assert_eq!(workers[1].get("steal_fails"), Some(&Json::Int(1)));
        assert!(doc.get("worker_imbalance").is_some());
        // Level-sync runs have no per-worker breakdown and omit the keys.
        let plain = ExploreStats::default();
        assert_eq!(plain.worker_imbalance(), 1.0);
        assert!(plain.to_json().get("workers").is_none());
    }

    #[test]
    fn histograms_serialize_only_when_populated() {
        let stats = ExploreStats::default();
        assert!(
            stats.to_json().get("hist").is_none(),
            "empty histograms stay out of the report"
        );
        let stats = ExploreStats::default();
        stats.hist.level_expand.record(Duration::from_micros(100));
        stats.hist.steal.record(Duration::from_nanos(900));
        let doc = stats.to_json();
        let hist = doc.get("hist").expect("hist object");
        assert!(hist.get("level_expand").is_some());
        assert!(hist.get("steal").is_some());
        assert!(
            hist.get("batch_expand").is_none(),
            "untouched histograms are omitted"
        );
        assert_eq!(
            hist.get("steal")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_i64),
            Some(1)
        );
    }

    #[test]
    fn summary_mentions_reduction() {
        let stats = ExploreStats {
            reduced: true,
            ..ExploreStats::default()
        };
        assert!(stats.summary().contains("symmetry-reduced"));
    }

    #[test]
    fn to_json_carries_phase_and_counter_fields() {
        let stats = ExploreStats {
            configs: 10,
            transitions: 20,
            memo_hits: 7,
            memo_misses: 3,
            intern_hits: 100,
            intern_misses: 4,
            elapsed: Duration::from_micros(1500),
            phases: PhaseTimes {
                expand: Duration::from_micros(1000),
                canonicalize: Duration::from_micros(50),
            },
            ..ExploreStats::default()
        };
        let doc = stats.to_json();
        assert_eq!(doc.get("configs"), Some(&Json::Int(10)));
        assert_eq!(doc.get("elapsed_us"), Some(&Json::Int(1500)));
        assert_eq!(doc.get("expand_us"), Some(&Json::Int(1000)));
        assert_eq!(doc.get("canonicalize_us"), Some(&Json::Int(50)));
        assert_eq!(doc.get("memo_hits"), Some(&Json::Int(7)));
        assert_eq!(doc.get("intern_misses"), Some(&Json::Int(4)));
        assert_eq!(stats.memo_hit_rate(), 0.7);
    }
}
