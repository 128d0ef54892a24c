//! Live observability: registry-backed metrics and the progress watcher.
//!
//! The engines in [`crate::explore`] and [`crate::sampling`] report
//! [`ExploreStats`](crate::stats::ExploreStats) *after* a run; this module
//! is the during-a-run view. [`LiveMetrics`] registers a fixed set of
//! dotted-name counters and gauges into an
//! [`lbsa_support::obs::Registry`], hands the engines lock-free handles to
//! bump, and [`ProgressWatcher`] samples those handles on its own thread,
//! emitting one `progress` trace event per period (plus a final one at
//! stop, so even sub-period runs produce at least one).
//!
//! Overhead contract: nothing here runs unless the caller opts in via
//! [`Exploration::registry`](crate::Exploration::registry) or
//! [`Exploration::progress_every`](crate::Exploration::progress_every) —
//! the engines take `Option<&LiveMetrics>` and the disabled path is one
//! branch per level (deterministic engine) or per task (work-stealing).
//! Enabled, every update is a relaxed atomic on a handle shared with the
//! watcher; the registry lock is touched only at registration and
//! snapshot.
//!
//! The `progress` event schema (validated by `exp_report
//! --validate-trace`):
//!
//! ```json
//! {"event":"progress","strategy":"work-stealing","configs":1234,
//!  "configs_per_sec":81000.0,"ema_configs_per_sec":78500.0,
//!  "frontier_depth":96,"workers":4,"utilization":0.75,
//!  "eta_us":140000,"mem_bytes":1048576,"elapsed_us":50234,"final":false}
//! ```
//!
//! `eta_us` is `-1` when no estimate is available; the model depends on
//! the strategy (see [`EtaModel`]): sampling scales elapsed time by the
//! remaining run budget, work-stealing divides the pending-task gauge by
//! the EMA rate, and level-synchronous BFS fits a geometric
//! frontier-growth model to consecutive frontier readings.

use lbsa_support::json::Json;
use lbsa_support::obs::{Counter, Gauge, Registry, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The engines' shared handles into a [`Registry`]: one allocation of
/// names up front, relaxed atomics ever after. Cloning shares the
/// underlying metrics (all fields are `Arc`s), which is how the watcher
/// observes the engines without ever taking the registry lock.
#[derive(Clone, Debug)]
pub(crate) struct LiveMetrics {
    /// `explore.configs` — configurations expanded so far.
    pub configs: Arc<Counter>,
    /// `explore.transitions` — transitions (edges) discovered so far.
    pub transitions: Arc<Counter>,
    /// `explore.dedup_hits` — successors that resolved to a known node.
    pub dedup_hits: Arc<Counter>,
    /// `explore.frontier_depth` — pending work: the next BFS frontier's
    /// width (deterministic engine) or the pending-task count
    /// (work-stealing).
    pub frontier_depth: Arc<Gauge>,
    /// `explore.workers` — worker thread count of the running engine.
    pub workers: Arc<Gauge>,
    /// `explore.parked_workers` — workers currently in a timed park.
    pub parked_workers: Arc<Gauge>,
    /// `ws.steals` — successful steal sweeps (work-stealing only).
    pub steals: Arc<Counter>,
    /// `sample.runs` — seeded runs completed (sampling only).
    pub sample_runs: Arc<Counter>,
    /// `sample.runs_total` — the sweep's effective run budget.
    pub sample_runs_total: Arc<Gauge>,
    /// `mem.interner_bytes` — state + proc interner footprint estimate.
    pub mem_interner: Arc<Gauge>,
    /// `mem.index_bytes` — dedup index footprint: rows, slots and id
    /// columns while the run lasts; at the end, what the index holds
    /// beyond the rows it hands to the graph (`ExploreStats::index_bytes`).
    pub mem_index: Arc<Gauge>,
    /// `mem.canon_memo_bytes` — canonicalization memo footprint estimate.
    pub mem_canon: Arc<Gauge>,
    /// `mem.graph_bytes` — the interned graph's rows, edges and expansion
    /// flags (set at the end of a run, once the graph exists).
    pub mem_graph: Arc<Gauge>,
    /// `mem.deque_bytes` — work-stealing deque buffers (set at worker
    /// join; the owner end is not shareable mid-run).
    pub mem_deques: Arc<Gauge>,
}

impl LiveMetrics {
    /// Registers (or re-attaches to) the full metric set in `registry`.
    pub fn register(registry: &Registry) -> LiveMetrics {
        LiveMetrics {
            configs: registry.counter("explore.configs"),
            transitions: registry.counter("explore.transitions"),
            dedup_hits: registry.counter("explore.dedup_hits"),
            frontier_depth: registry.gauge("explore.frontier_depth"),
            workers: registry.gauge("explore.workers"),
            parked_workers: registry.gauge("explore.parked_workers"),
            steals: registry.counter("ws.steals"),
            sample_runs: registry.counter("sample.runs"),
            sample_runs_total: registry.gauge("sample.runs_total"),
            mem_interner: registry.gauge("mem.interner_bytes"),
            mem_index: registry.gauge("mem.index_bytes"),
            mem_canon: registry.gauge("mem.canon_memo_bytes"),
            mem_graph: registry.gauge("mem.graph_bytes"),
            mem_deques: registry.gauge("mem.deque_bytes"),
        }
    }

    /// Mirrors one batch of engine progress — a BFS level, a work-stealing
    /// task, or the end of a run — into the registry: `expanded`
    /// configurations yielded `transitions` successors, `dedup_hits` of
    /// them onto known nodes, which is exactly what the batch added to the
    /// engine's tally, leaving `frontier` nodes pending. `mem`, when given,
    /// sets the memory gauges; the work-stealing engine passes it at a
    /// coarse beat only.
    pub fn publish(
        &self,
        expanded: usize,
        transitions: usize,
        dedup_hits: usize,
        frontier: usize,
        mem: Option<MemBytes>,
    ) {
        self.configs.add(expanded as u64);
        self.transitions.add(transitions as u64);
        self.dedup_hits.add(dedup_hits as u64);
        self.frontier_depth.set_usize(frontier);
        if let Some(mem) = mem {
            self.mem_interner.set_usize(mem.interner);
            self.mem_index.set_usize(mem.index);
            self.mem_canon.set_usize(mem.canon);
            self.mem_deques.set_usize(mem.deques);
        }
    }

    /// Total estimated footprint across the `mem.*` gauges (the measured
    /// peak resident set, `ttvbench`'s `peak_rss_mb`, is the ground truth).
    fn mem_bytes(&self) -> i64 {
        self.mem_interner.get()
            + self.mem_index.get()
            + self.mem_canon.get()
            + self.mem_graph.get()
            + self.mem_deques.get()
    }
}

/// Footprint estimates for the `mem.*` gauges an engine sets (see
/// [`LiveMetrics::publish`]); the graph gauge is set by the builder once
/// the graph exists.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MemBytes {
    /// State + proc interners (`mem.interner_bytes`).
    pub interner: usize,
    /// Dedup index (`mem.index_bytes`).
    pub index: usize,
    /// Canonicalization memo (`mem.canon_memo_bytes`).
    pub canon: usize,
    /// Work-stealing deque buffers (`mem.deque_bytes`), known only once
    /// the workers returned.
    pub deques: usize,
}

/// Which ETA model a [`ProgressWatcher`] applies — one per strategy, since
/// each exposes a different notion of "work remaining".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EtaModel {
    /// Level-synchronous BFS: remaining work is estimated from the
    /// geometric growth ratio of consecutive frontier readings `g =
    /// f_now / f_prev` — when the frontier shrinks (`g < 1`) the tail sums
    /// to `f_now / (1 - g)` nodes; while it still grows the ETA is
    /// unknown (`-1`).
    LevelSync,
    /// Work-stealing: the pending-task gauge *is* the known remaining
    /// work; ETA divides it by the EMA rate. An underestimate while
    /// discovery outpaces expansion — documented, not corrected.
    WorkStealing,
    /// Sampling: the run budget is fixed up front, so ETA scales elapsed
    /// time by `remaining / done`.
    Sampling,
}

impl EtaModel {
    /// The strategy tag carried by every `progress` event.
    fn strategy(self) -> &'static str {
        match self {
            EtaModel::LevelSync => "level-sync",
            EtaModel::WorkStealing => "work-stealing",
            EtaModel::Sampling => "sampling",
        }
    }
}

/// Between-tick state of the watcher's rate and ETA estimators.
struct ProgressState {
    model: EtaModel,
    started: Instant,
    last_tick: Instant,
    last_configs: i64,
    ema: Option<f64>,
    prev_frontier: Option<i64>,
}

/// Exponential-moving-average smoothing for the configs/sec rate: ~70% of
/// the weight within the last three ticks — responsive to phase changes
/// without gyrating on per-tick noise.
const EMA_ALPHA: f64 = 0.3;

impl ProgressState {
    /// Reads the live handles, advances the estimators, and builds one
    /// `progress` payload.
    fn tick(&mut self, live: &LiveMetrics, is_final: bool) -> Json {
        let now = Instant::now();
        let configs = match self.model {
            EtaModel::Sampling => i64::try_from(live.sample_runs.get()).unwrap_or(i64::MAX),
            _ => i64::try_from(live.configs.get()).unwrap_or(i64::MAX),
        };
        let dt = now.duration_since(self.last_tick).as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let inst = if dt > 0.0 {
            (configs - self.last_configs) as f64 / dt
        } else {
            0.0
        };
        let ema = EMA_ALPHA.mul_add(inst, (1.0 - EMA_ALPHA) * self.ema.unwrap_or(inst));
        self.ema = Some(ema);
        self.last_tick = now;
        self.last_configs = configs;

        let frontier = match self.model {
            EtaModel::Sampling => 0,
            _ => live.frontier_depth.get(),
        };
        let workers = live.workers.get();
        let parked = live.parked_workers.get().clamp(0, workers);
        #[allow(clippy::cast_precision_loss)]
        let utilization = if workers > 0 {
            (workers - parked) as f64 / workers as f64
        } else {
            1.0
        };
        let eta_us = if is_final {
            0
        } else {
            self.eta_us(live, configs, frontier, ema)
        };
        self.prev_frontier = Some(frontier);

        Json::object()
            .set("strategy", self.model.strategy())
            .set("configs", configs)
            .set("configs_per_sec", inst)
            .set("ema_configs_per_sec", ema)
            .set("frontier_depth", frontier)
            .set("workers", workers)
            .set("utilization", utilization)
            .set("eta_us", eta_us)
            .set("mem_bytes", live.mem_bytes())
            .set(
                "elapsed_us",
                u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
            )
            .set("final", is_final)
    }

    /// Estimated microseconds to completion, `-1` when unknown.
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    fn eta_us(&self, live: &LiveMetrics, configs: i64, frontier: i64, ema: f64) -> i64 {
        let secs_to_us = |secs: f64| -> i64 {
            if secs.is_finite() && secs >= 0.0 {
                (secs * 1e6).min(i64::MAX as f64) as i64
            } else {
                -1
            }
        };
        match self.model {
            EtaModel::Sampling => {
                let total = live.sample_runs_total.get();
                if total > 0 && configs > 0 {
                    let remaining = (total - configs).max(0) as f64;
                    let per_run = self.started.elapsed().as_secs_f64() / configs as f64;
                    secs_to_us(remaining * per_run)
                } else {
                    -1
                }
            }
            EtaModel::WorkStealing => {
                if ema > 0.0 && frontier >= 0 {
                    secs_to_us(frontier as f64 / ema)
                } else {
                    -1
                }
            }
            EtaModel::LevelSync => match self.prev_frontier {
                Some(prev) if prev > 0 && frontier > 0 && frontier < prev && ema > 0.0 => {
                    let g = frontier as f64 / prev as f64;
                    let remaining = frontier as f64 / (1.0 - g);
                    secs_to_us(remaining / ema)
                }
                _ => -1,
            },
        }
    }
}

/// A background thread sampling [`LiveMetrics`] every `period` and
/// emitting `progress` trace events; started by the builder when
/// [`Exploration::progress_every`](crate::Exploration::progress_every) is
/// set and the run's tracer is enabled.
///
/// [`ProgressWatcher::finish`] signals the thread, which emits one final
/// event (with `"final": true` and `eta_us == 0`) before exiting — so a
/// run shorter than a period still produces at least one `progress` line,
/// carrying the run's end-state counters.
pub(crate) struct ProgressWatcher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ProgressWatcher {
    /// Spawns the watcher thread. `live` and `tracer` are shared handles;
    /// the watcher owns its clones and never blocks the engines.
    pub fn spawn(
        live: LiveMetrics,
        tracer: Tracer,
        period: Duration,
        model: EtaModel,
    ) -> ProgressWatcher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let period = period.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("lbsa-progress".into())
            .spawn(move || {
                let started = Instant::now();
                let mut state = ProgressState {
                    model,
                    started,
                    last_tick: started,
                    last_configs: 0,
                    ema: None,
                    prev_frontier: None,
                };
                loop {
                    // Sleep in short slices so `finish()` joins promptly
                    // even with multi-second periods.
                    let mut slept = Duration::ZERO;
                    while slept < period && !stop_flag.load(Ordering::Acquire) {
                        let slice = (period - slept).min(Duration::from_millis(2));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    let is_final = stop_flag.load(Ordering::Acquire);
                    tracer.emit("progress", state.tick(&live, is_final));
                    if is_final {
                        return;
                    }
                }
            })
            .expect("spawning the progress watcher thread");
        ProgressWatcher {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the watcher: signals the thread, which emits the final
    /// `progress` event, and joins it.
    pub fn finish(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressWatcher {
    /// Belt-and-braces: an unfinished watcher (engine error path) is still
    /// signalled and joined, never leaked.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_support::obs::MemorySink;

    #[test]
    fn watcher_emits_ticks_and_a_final_event() {
        let registry = Registry::new();
        let live = LiveMetrics::register(&registry);
        live.workers.set(4);
        let sink = MemorySink::new();
        let tracer = Tracer::new(sink.clone());
        let watcher = ProgressWatcher::spawn(
            live.clone(),
            tracer,
            Duration::from_millis(5),
            EtaModel::WorkStealing,
        );
        for _ in 0..10 {
            live.configs.add(800);
            live.frontier_depth.set(10);
            std::thread::sleep(Duration::from_millis(5));
        }
        watcher.finish();
        let events = sink.events();
        assert!(
            events.len() >= 5,
            "a 50ms simulated run on a 5ms cadence must tick repeatedly, got {}",
            events.len()
        );
        for event in events.iter() {
            assert_eq!(event.name, "progress");
            let configs = event.fields.get("configs").and_then(Json::as_i64);
            assert!(configs.is_some(), "progress events carry numeric configs");
            assert!(event.fields.get("configs_per_sec").is_some());
            assert!(event.fields.get("frontier_depth").is_some());
            assert!(event.fields.get("eta_us").is_some());
        }
        let last = events.last().expect("at least one event");
        assert_eq!(last.fields.get("final").and_then(Json::as_bool), Some(true));
        assert_eq!(last.fields.get("eta_us").and_then(Json::as_i64), Some(0));
        assert_eq!(
            last.fields.get("configs").and_then(Json::as_i64),
            Some(8000),
            "the final event carries the end-state counters"
        );
        assert_eq!(
            last.fields.get("strategy").and_then(Json::as_str),
            Some("work-stealing")
        );
    }

    #[test]
    fn fast_runs_still_get_one_final_progress_event() {
        let registry = Registry::new();
        let live = LiveMetrics::register(&registry);
        let sink = MemorySink::new();
        let tracer = Tracer::new(sink.clone());
        // Stop immediately: the run finished well inside one period.
        let watcher =
            ProgressWatcher::spawn(live, tracer, Duration::from_secs(3600), EtaModel::LevelSync);
        watcher.finish();
        let events = sink.events();
        assert_eq!(events.len(), 1, "exactly the final event");
        assert_eq!(
            events[0].fields.get("final").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn sampling_eta_scales_elapsed_by_remaining_budget() {
        let registry = Registry::new();
        let live = LiveMetrics::register(&registry);
        live.sample_runs_total.set(1000);
        live.sample_runs.add(250);
        let started = Instant::now() - Duration::from_secs(1);
        let state = ProgressState {
            model: EtaModel::Sampling,
            started,
            last_tick: started,
            last_configs: 0,
            ema: None,
            prev_frontier: None,
        };
        let eta = state.eta_us(&live, 250, 0, 100.0);
        // 250 runs took ~1s, 750 remain: ETA ≈ 3s, generous tolerance for
        // scheduling noise.
        assert!(
            (2_000_000..=4_500_000).contains(&eta),
            "eta_us {eta} outside the expected ~3s band"
        );
    }
}
