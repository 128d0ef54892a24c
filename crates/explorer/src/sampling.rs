//! Randomized (sampled) checking — for instances beyond exhaustive reach.
//!
//! Exhaustive exploration covers *every* execution but is bounded to small
//! instances. This module trades the universal quantifier for scale: it runs
//! many seeded random schedules (with random outcome resolution for the
//! nondeterministic objects) and checks the safety properties on each run.
//! A violation comes back with its seed, so it replays deterministically; a
//! pass is *evidence*, never proof — [`sample_confidence`] quantifies how
//! much evidence — and the experiments use sampling only above the
//! exhaustive frontier, and say so.
//!
//! # Parallel engine
//!
//! The sweep shards the seed range across workers by stride: worker `w` of
//! `t` takes seeds `seed0 + w, seed0 + w + t, …` in increasing order, so
//! every worker owns a disjoint slice and the union is exactly
//! `seed0 .. seed0 + runs` regardless of `t`. Violation selection is
//! **lowest-seed-wins** through a shared atomic minimum: a worker stops
//! only when its next seed offset is at or above the lowest violating
//! offset found so far, which guarantees every seed below the final
//! minimum was actually executed (and found clean). The reported
//! violation — and on a clean sweep the merged sweep report — is
//! therefore identical at every thread count.
//!
//! The sweep is reached through the builder:
//! [`Exploration::sample`](crate::Exploration::sample) followed by
//! [`check_k_set_agreement`](crate::Exploration::check_k_set_agreement) or
//! [`check_consensus`](crate::Exploration::check_consensus) gives a
//! [`Verdict`](crate::Verdict) with a confidence-bounded outcome and a
//! replayable [`Witness`](crate::Witness) on violation, and streams live
//! progress under
//! [`Exploration::progress_every`](crate::Exploration::progress_every).

use crate::live::LiveMetrics;
use crate::stats::{duration_us, SampleWorkerStats};
use lbsa_core::{AnyObject, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::outcome::RandomOutcome;
use lbsa_runtime::process::Protocol;
use lbsa_runtime::scheduler::RandomScheduler;
use lbsa_runtime::system::{RunEnd, RunResult, System};
use lbsa_runtime::trace::Trace;
use lbsa_support::json::Json;
use lbsa_support::obs::{HistogramNs, Tracer};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Runs per `sample.batch` progress event on traced sweeps: coarse enough
/// that a default 1000-run sweep emits ten batch lines, fine enough that a
/// stalled sweep is visible long before `sample.end`.
const SAMPLE_BATCH: u64 = 100;

/// XOR'd into the seed to derive the outcome-resolver stream from the
/// scheduler stream, so the two [`SmallRng`](lbsa_support::rng::SmallRng)s
/// never walk in lockstep. Replaying a sampled run by hand needs the same
/// constant: `RandomOutcome::seeded(seed ^ OUTCOME_SEED_XOR)`.
pub const OUTCOME_SEED_XOR: u64 = 0x5DEE_CE66;

/// Significance level of the [`sample_confidence`] bound (one-sided 95%
/// Clopper–Pearson).
pub const SAMPLE_ALPHA: f64 = 0.05;

/// The confidence carried by a clean sweep of `runs` seeded schedules.
///
/// With zero violations in `n` independent runs, the one-sided
/// Clopper–Pearson upper bound on the per-schedule violation probability
/// `p` at significance α is `p ≤ 1 − α^(1/n)`; this returns the
/// complementary confidence `α^(1/n) = 1 − bound`. Read it as: unless an
/// event of probability below α occurred, a uniformly sampled schedule
/// violates with probability at most `1 − sample_confidence(runs)`.
/// 1000 runs give ≈ 0.997 (violation rate below 0.3%). Note the bound is
/// about the *sampled* schedule distribution — rare adversarial
/// interleavings can still hide below it, which is why a pass is evidence,
/// never proof.
#[must_use]
pub fn sample_confidence(runs: u64) -> f64 {
    if runs == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    SAMPLE_ALPHA.powf(1.0 / runs as f64)
}

/// Parameters of a sampling sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleConfig {
    /// Number of seeded runs.
    pub runs: u64,
    /// First seed (runs use `seed0, seed0 + 1, …`).
    pub seed0: u64,
    /// Per-run step budget.
    pub max_steps: usize,
    /// Worker threads sharding the seed range. `0` means auto, resolved
    /// exactly like [`ExploreOptions::resolved_threads`]
    /// (`LBSA_EXPLORE_THREADS`, then available cores capped by
    /// `LBSA_EXPLORE_MAX_THREADS`). The verdict, the violating seed, and
    /// the merged report never depend on this — only wall-clock does.
    ///
    /// [`ExploreOptions::resolved_threads`]: crate::ExploreOptions::resolved_threads
    pub threads: usize,
    /// Adaptive budget target, in parts per billion of confidence (`0`
    /// disables it). When set via [`SampleConfig::target_confidence`], the
    /// sweep executes only as many runs as a clean sweep needs for
    /// [`sample_confidence`] to reach the target — capped at `runs`, never
    /// fewer than one. Stored as an integer so the config stays `Copy`/`Eq`
    /// (the 1e-9 quantization is far below anything [`SAMPLE_ALPHA`] can
    /// resolve).
    pub target_confidence_ppb: u64,
}

impl Default for SampleConfig {
    /// 1000 runs from seed 0, 100k steps each, auto thread count, no
    /// confidence target.
    fn default() -> Self {
        SampleConfig {
            runs: 1000,
            seed0: 0,
            max_steps: 100_000,
            threads: 0,
            target_confidence_ppb: 0,
        }
    }
}

impl SampleConfig {
    /// Sets an adaptive budget: stop after the minimal clean-run count
    /// whose [`sample_confidence`] reaches `target` (clamped to
    /// `0.0..=1.0`), instead of always burning the full `runs`. The cutoff
    /// is a pure function of the target — `n* = ⌈ln α / ln target⌉` — so
    /// the executed seed set, the report, and the verdict stay independent
    /// of the thread count. A target at or above `1.0` (unreachable by any
    /// finite sweep) leaves the full budget in force.
    #[must_use]
    pub fn target_confidence(mut self, target: f64) -> Self {
        let clamped = if target.is_finite() {
            target.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.target_confidence_ppb = (clamped * 1e9).round() as u64;
        self
    }

    /// The run count this sweep actually executes: `runs`, shrunk to the
    /// minimal count reaching the confidence target when one is set (see
    /// [`SampleConfig::target_confidence`]).
    #[must_use]
    pub fn effective_runs(&self) -> u64 {
        let ppb = self.target_confidence_ppb;
        if ppb == 0 || ppb >= 1_000_000_000 {
            return self.runs;
        }
        let target = ppb as f64 / 1e9;
        // sample_confidence(n) = α^(1/n) ≥ target  ⇔  n ≥ ln α / ln target
        // (both logs negative). Guard the n* = 1 edge where ln target → 0.
        let needed = (SAMPLE_ALPHA.ln() / target.ln()).ceil();
        let needed = if needed.is_finite() && needed >= 1.0 {
            needed as u64
        } else {
            1
        };
        self.runs.min(needed.max(1))
    }
    /// The concrete worker count a sweep with this config uses: the
    /// resolved thread count, never more than one worker per run.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        let auto = crate::ExploreOptions {
            threads: self.threads,
            ..crate::ExploreOptions::default()
        }
        .resolved_threads();
        usize::try_from(self.runs)
            .unwrap_or(usize::MAX)
            .clamp(1, auto.max(1))
    }
}

/// Outcome of a sampling sweep with no violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SampleReport {
    /// Runs executed.
    pub runs: u64,
    /// Runs that reached quiescence (everyone decided/halted).
    pub quiescent: u64,
    /// Runs stopped by the step budget (possible starvation — expected for
    /// protocols whose termination is conditional, like n-DAC retry loops).
    pub budget_hit: u64,
    /// Distinct full decision vectors observed across runs.
    pub distinct_outcomes: usize,
    /// Total steps across all runs.
    pub total_steps: usize,
    /// `true` when a confidence target (see
    /// [`SampleConfig::target_confidence`]) cut the sweep short of the
    /// configured `runs` budget.
    pub stopped_early: bool,
}

/// A safety violation found by sampling, tagged with the reproducing seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleViolation {
    /// More distinct decisions than the problem allows.
    Agreement {
        /// The seed whose run violates (replay with `RandomScheduler::seeded`).
        seed: u64,
        /// The decided values.
        values: Vec<Value>,
    },
    /// A decided value outside the valid inputs.
    Validity {
        /// The reproducing seed.
        seed: u64,
        /// The offending value.
        value: Value,
    },
    /// The run itself errored (protocol bug).
    Runtime {
        /// The reproducing seed.
        seed: u64,
        /// The underlying error.
        error: RuntimeError,
    },
}

impl fmt::Display for SampleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleViolation::Agreement { seed, values } => {
                write!(f, "agreement violated on seed {seed}: decided {values:?}")
            }
            SampleViolation::Validity { seed, value } => {
                write!(f, "validity violated on seed {seed}: decided {value}")
            }
            SampleViolation::Runtime { seed, error } => {
                write!(f, "runtime error on seed {seed}: {error}")
            }
        }
    }
}

impl SampleViolation {
    /// The seed whose run reproduces this violation.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match self {
            SampleViolation::Agreement { seed, .. }
            | SampleViolation::Validity { seed, .. }
            | SampleViolation::Runtime { seed, .. } => *seed,
        }
    }
}

impl std::error::Error for SampleViolation {}

/// Runs a sampling sweep checking the k-set-agreement **safety** properties
/// (k-Agreement and Validity) on every run. Termination is *not* checked —
/// the report counts quiescent vs budget-stopped runs instead, because
/// random schedules cannot distinguish starvation from slow progress.
///
/// The sweep emits `sample.begin` (parameters), one `sample.batch`
/// progress event per [`SAMPLE_BATCH`] runs of each worker (seeds tried,
/// quiescent/budget split, elapsed), one `sample.worker` summary per
/// worker after the join, and a final `sample.end` carrying the merged
/// report with per-run latency quantiles — or, on a violation, the
/// violating seed and its description. [`Tracer::disabled`] makes all of
/// that free.
///
/// `live`, when the sweep runs under an observed builder, gets one relaxed
/// `sample.runs` bump per run and the `sample.runs_total` budget gauge for
/// the progress watcher.
///
/// # Errors
///
/// Returns the lowest-seed [`SampleViolation`] — deterministic at every
/// thread count (see the module docs for why).
pub(crate) fn sample_k_set_agreement<P: Protocol>(
    protocol: &P,
    objects: &[AnyObject],
    k: usize,
    valid_inputs: &[Value],
    config: SampleConfig,
    tracer: &Tracer,
    live: Option<&LiveMetrics>,
) -> Result<SampleReport, SampleViolation> {
    let started = Instant::now();
    // An adaptive budget shrinks the sweep before any scheduling happens:
    // the executed seed set is a pure function of the config, so verdicts
    // stay thread-count-independent.
    let budget = config.runs;
    let stopped_early = config.effective_runs() < budget;
    let config = SampleConfig {
        runs: config.effective_runs(),
        ..config
    };
    let threads = config.resolved_threads();
    if let Some(live) = live {
        live.sample_runs_total
            .set(i64::try_from(config.runs).unwrap_or(i64::MAX));
        live.workers.set_usize(threads);
    }
    tracer.emit_with("sample.begin", || {
        Json::object()
            .set("runs", config.runs)
            .set("budget_runs", budget)
            .set("target_confidence_ppb", config.target_confidence_ppb)
            .set("stopped_early", stopped_early)
            .set("seed0", config.seed0)
            .set("max_steps", config.max_steps)
            .set("threads", threads)
            .set("k", k)
    });
    let shared = SweepShared {
        protocol,
        objects,
        k,
        valid_inputs,
        config,
        tracer,
        live,
        started,
        stride: threads as u64,
        stop: AtomicU64::new(u64::MAX),
    };
    let sweeps: Vec<WorkerSweep> = if threads <= 1 {
        vec![worker_sweep(&shared, 0)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let sh = &shared;
                    s.spawn(move || worker_sweep(sh, w))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sampler worker panicked"))
                .collect()
        })
    };

    let mut report = SampleReport {
        runs: 0,
        quiescent: 0,
        budget_hit: 0,
        distinct_outcomes: 0,
        total_steps: 0,
        stopped_early,
    };
    let mut outcomes: BTreeSet<Vec<Option<Value>>> = BTreeSet::new();
    let run_ns = HistogramNs::new();
    let mut best: Option<(u64, SampleViolation)> = None;
    for w in &sweeps {
        tracer.emit_with("sample.worker", || w.stats.to_json());
        report.runs += w.stats.runs;
        report.quiescent += w.stats.quiescent;
        report.budget_hit += w.stats.budget_hit;
        report.total_steps += w.stats.total_steps;
        run_ns.merge(&w.run_ns);
    }
    for w in sweeps {
        outcomes.extend(w.outcomes);
        if let Some((offset, v)) = w.violation {
            if best.as_ref().is_none_or(|(b, _)| offset < *b) {
                best = Some((offset, v));
            }
        }
    }

    match best {
        Some((_, violation)) => {
            tracer.emit_with("sample.end", || {
                Json::object()
                    .set("violations", 1u64)
                    .set("seed", violation.seed())
                    .set("violation", violation.to_string())
                    .set("threads", threads)
                    .set("elapsed_us", duration_us(started.elapsed()))
            });
            Err(violation)
        }
        None => {
            report.distinct_outcomes = outcomes.len();
            tracer.emit_with("sample.end", || {
                let mut out = Json::object()
                    .set("runs", report.runs)
                    .set("quiescent", report.quiescent)
                    .set("budget_hit", report.budget_hit)
                    .set("distinct_outcomes", report.distinct_outcomes)
                    .set("total_steps", report.total_steps)
                    .set("stopped_early", report.stopped_early)
                    .set("violations", 0u64)
                    .set("threads", threads)
                    .set("elapsed_us", duration_us(started.elapsed()));
                if !run_ns.is_empty() {
                    out = out
                        .set("run_p50_ns", run_ns.p50())
                        .set("run_p95_ns", run_ns.p95())
                        .set("run_p99_ns", run_ns.p99());
                }
                out
            });
            Ok(report)
        }
    }
}

/// Everything the workers share, borrowed across the scoped spawn.
struct SweepShared<'a, P: Protocol> {
    protocol: &'a P,
    objects: &'a [AnyObject],
    k: usize,
    valid_inputs: &'a [Value],
    config: SampleConfig,
    tracer: &'a Tracer,
    /// Live-metrics handles for the progress watcher, when the sweep runs
    /// under an observed builder.
    live: Option<&'a LiveMetrics>,
    started: Instant,
    /// Seed-offset stride between a worker's consecutive runs (= threads).
    stride: u64,
    /// Lowest violating seed offset found so far, `u64::MAX` when clean.
    /// Workers stop once their next offset is at or above it.
    stop: AtomicU64,
}

/// One worker's share of a sweep, merged by the caller after the join.
struct WorkerSweep {
    stats: SampleWorkerStats,
    outcomes: BTreeSet<Vec<Option<Value>>>,
    /// This worker's lowest violating `(seed offset, violation)`, if any.
    violation: Option<(u64, SampleViolation)>,
    /// Per-run wall-clock latency.
    run_ns: HistogramNs,
}

/// One seeded run of a sweep: a fresh system, seeded scheduler and outcome
/// resolver. With `record` the run keeps its trace, from which a
/// violation's witness schedule is read; the sweep itself runs without.
pub(crate) fn run_one<P: Protocol>(
    protocol: &P,
    objects: &[AnyObject],
    seed: u64,
    max_steps: usize,
    record: bool,
) -> Result<(RunResult, Trace), RuntimeError> {
    let mut sys = System::new(protocol, objects)?;
    sys.set_record_trace(record);
    let result = sys.run(
        &mut RandomScheduler::seeded(seed),
        &mut RandomOutcome::seeded(seed ^ OUTCOME_SEED_XOR),
        max_steps,
    )?;
    Ok((result, sys.trace().clone()))
}

/// The per-worker sweep body: walks seed offsets `worker, worker + stride,
/// …` in increasing order, stopping early only when a violation at a lower
/// offset is already known (its own or, via `stop`, another worker's).
fn worker_sweep<P: Protocol>(sh: &SweepShared<'_, P>, worker: usize) -> WorkerSweep {
    let begun = Instant::now();
    let mut w = WorkerSweep {
        stats: SampleWorkerStats::new(worker),
        outcomes: BTreeSet::new(),
        violation: None,
        run_ns: HistogramNs::new(),
    };
    let mut offset = worker as u64;
    while offset < sh.config.runs {
        if offset >= sh.stop.load(Ordering::SeqCst) {
            break;
        }
        let seed = sh.config.seed0.wrapping_add(offset);
        let run_started = Instant::now();
        let found = match run_one(sh.protocol, sh.objects, seed, sh.config.max_steps, false) {
            Err(error) => Some(SampleViolation::Runtime { seed, error }),
            Ok((result, _)) => {
                w.run_ns.record(run_started.elapsed());
                w.stats.runs += 1;
                if let Some(live) = sh.live {
                    live.sample_runs.bump();
                }
                w.stats.total_steps += result.steps;
                match result.end {
                    RunEnd::Quiescent => w.stats.quiescent += 1,
                    RunEnd::MaxSteps => w.stats.budget_hit += 1,
                    RunEnd::SchedulerStopped => {}
                }
                let decided = result.distinct_decisions();
                if decided.len() > sh.k {
                    Some(SampleViolation::Agreement {
                        seed,
                        values: decided,
                    })
                } else if let Some(v) = decided.iter().find(|v| !sh.valid_inputs.contains(v)) {
                    Some(SampleViolation::Validity { seed, value: *v })
                } else {
                    w.outcomes.insert(result.decisions);
                    None
                }
            }
        };
        if let Some(violation) = found {
            // Remaining offsets are all higher — nothing left to win.
            sh.stop.fetch_min(offset, Ordering::SeqCst);
            w.violation = Some((offset, violation));
            break;
        }
        if w.stats.runs.is_multiple_of(SAMPLE_BATCH) && offset + sh.stride < sh.config.runs {
            sh.tracer.emit_with("sample.batch", || {
                Json::object()
                    .set("batch", w.stats.runs / SAMPLE_BATCH)
                    .set("worker", worker)
                    .set("seeds_tried", w.stats.runs)
                    .set("quiescent", w.stats.quiescent)
                    .set("budget_hit", w.stats.budget_hit)
                    .set("violations", 0u64)
                    .set("elapsed_us", duration_us(sh.started.elapsed()))
            });
        }
        offset += sh.stride;
    }
    w.stats.busy = begun.elapsed();
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::value::int;
    use lbsa_core::{ObjId, Op, Pid};
    use lbsa_runtime::process::Step;

    #[derive(Debug)]
    struct Race {
        inputs: Vec<Value>,
    }

    impl Protocol for Race {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            self.inputs.len()
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(self.inputs[pid.index()]))
        }
        fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
            Step::Decide(resp)
        }
    }

    #[derive(Debug)]
    struct DecideOwn {
        inputs: Vec<Value>,
    }

    impl Protocol for DecideOwn {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            self.inputs.len()
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Read)
        }
        fn on_response(&self, pid: Pid, _s: &(), _r: Value) -> Step<()> {
            Step::Decide(self.inputs[pid.index()])
        }
    }

    /// A consensus sweep (`k = 1`) with no live metrics.
    fn sweep<P: Protocol>(
        protocol: &P,
        objects: &[AnyObject],
        valid_inputs: &[Value],
        config: SampleConfig,
        tracer: &Tracer,
    ) -> Result<SampleReport, SampleViolation> {
        sample_k_set_agreement(protocol, objects, 1, valid_inputs, config, tracer, None)
    }

    #[test]
    fn sampling_passes_correct_consensus_at_scale() {
        // 12 processes — far beyond exhaustive reach for a one-line test.
        let inputs: Vec<Value> = (0..12).map(|i| int(i % 2)).collect();
        let p = Race {
            inputs: inputs.clone(),
        };
        let objects = vec![AnyObject::consensus(12).unwrap()];
        let report = sweep(
            &p,
            &objects,
            &inputs,
            SampleConfig {
                runs: 200,
                seed0: 0,
                max_steps: 10_000,
                ..SampleConfig::default()
            },
            &Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(report.runs, 200);
        assert_eq!(report.quiescent, 200);
        assert_eq!(report.budget_hit, 0);
        // Either value can win depending on the schedule.
        assert!(report.distinct_outcomes >= 2, "{report:?}");
    }

    #[test]
    fn sampling_catches_agreement_violations_with_a_seed() {
        let inputs = vec![int(0), int(1)];
        let p = DecideOwn {
            inputs: inputs.clone(),
        };
        let objects = vec![AnyObject::register()];
        let err = sweep(
            &p,
            &objects,
            &inputs,
            SampleConfig::default(),
            &Tracer::disabled(),
        )
        .unwrap_err();
        match err {
            SampleViolation::Agreement { seed, values } => {
                assert_eq!(values.len(), 2);
                // The seed must reproduce the violation.
                let mut sys = System::new(&p, &objects).unwrap();
                let result = sys
                    .run(
                        &mut RandomScheduler::seeded(seed),
                        &mut RandomOutcome::seeded(seed ^ OUTCOME_SEED_XOR),
                        100_000,
                    )
                    .unwrap();
                assert_eq!(result.distinct_decisions().len(), 2);
            }
            other => panic!("expected agreement violation, got {other}"),
        }
    }

    #[test]
    fn sampling_catches_validity_violations() {
        #[derive(Debug)]
        struct DecideConstant;
        impl Protocol for DecideConstant {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                1
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(0), Op::Read)
            }
            fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
                Step::Decide(int(42))
            }
        }
        let err = sweep(
            &DecideConstant,
            &[AnyObject::register()],
            &[int(0), int(1)],
            SampleConfig {
                runs: 5,
                seed0: 9,
                max_steps: 100,
                ..SampleConfig::default()
            },
            &Tracer::disabled(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SampleViolation::Validity {
                value: Value::Int(42),
                ..
            }
        ));
    }

    #[test]
    fn budget_hits_are_reported_not_errors() {
        #[derive(Debug)]
        struct Spin;
        impl Protocol for Spin {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                1
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(0), Op::Read)
            }
            fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
                Step::Continue(())
            }
        }
        let report = sweep(
            &Spin,
            &[AnyObject::register()],
            &[],
            SampleConfig {
                runs: 3,
                seed0: 0,
                max_steps: 50,
                ..SampleConfig::default()
            },
            &Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(report.budget_hit, 3);
        assert_eq!(report.quiescent, 0);
        assert_eq!(report.total_steps, 150);
    }

    #[test]
    fn every_run_is_quiescent_or_budget_stopped() {
        // `RandomScheduler` never declines to pick an enabled pid, so no
        // sampled run ends in `RunEnd::SchedulerStopped`: the budget-stopped
        // count is always `runs - quiescent`.
        let inputs: Vec<Value> = (0..3).map(|i| int(i % 2)).collect();
        let p = DecideOwn {
            inputs: inputs.clone(),
        };
        let objects = [AnyObject::register()];
        // Three steps reach quiescence; a budget of two stops every run.
        for max_steps in [2, 3] {
            let config = SampleConfig {
                runs: 50,
                max_steps,
                ..SampleConfig::default()
            };
            let report =
                sample_k_set_agreement(&p, &objects, 3, &inputs, config, &Tracer::disabled(), None)
                    .unwrap();
            assert_eq!(report.quiescent + report.budget_hit, report.runs);
        }
        for seed in 0..50 {
            let mut sys = System::new(&p, &objects).unwrap();
            let end = sys
                .run(
                    &mut RandomScheduler::seeded(seed),
                    &mut RandomOutcome::seeded(seed ^ OUTCOME_SEED_XOR),
                    2,
                )
                .unwrap()
                .end;
            assert_ne!(end, RunEnd::SchedulerStopped, "seed {seed}");
        }
    }

    #[test]
    fn clean_sweep_reports_are_thread_count_independent() {
        let inputs: Vec<Value> = (0..6).map(|i| int(i % 2)).collect();
        let p = Race {
            inputs: inputs.clone(),
        };
        let objects = vec![AnyObject::consensus(6).unwrap()];
        let config = SampleConfig {
            runs: 120,
            seed0: 3,
            max_steps: 10_000,
            threads: 1,
            ..SampleConfig::default()
        };
        let base = sweep(&p, &objects, &inputs, config, &Tracer::disabled()).unwrap();
        for threads in [2, 4, 8] {
            let report = sweep(
                &p,
                &objects,
                &inputs,
                SampleConfig { threads, ..config },
                &Tracer::disabled(),
            )
            .unwrap();
            assert_eq!(report, base, "report drifted at {threads} threads");
        }
    }

    #[test]
    fn violating_seed_is_thread_count_independent() {
        let inputs = vec![int(0), int(1), int(2)];
        let p = DecideOwn {
            inputs: inputs.clone(),
        };
        let objects = vec![AnyObject::register()];
        let config = SampleConfig {
            runs: 400,
            seed0: 17,
            max_steps: 1_000,
            threads: 1,
            ..SampleConfig::default()
        };
        let base = sweep(&p, &objects, &inputs, config, &Tracer::disabled()).unwrap_err();
        for threads in [2, 4, 8] {
            let err = sweep(
                &p,
                &objects,
                &inputs,
                SampleConfig { threads, ..config },
                &Tracer::disabled(),
            )
            .unwrap_err();
            assert_eq!(err, base, "violation drifted at {threads} threads");
        }
    }

    #[test]
    fn confidence_grows_with_runs_and_matches_clopper_pearson() {
        assert_eq!(sample_confidence(0), 0.0);
        let c1000 = sample_confidence(1000);
        assert!((c1000 - 0.997_008).abs() < 1e-4, "{c1000}");
        assert!(sample_confidence(100) < c1000);
        assert!(c1000 < sample_confidence(10_000));
        // confidence = 1 − (Clopper–Pearson upper bound at 0 failures).
        let upper = 1.0 - SAMPLE_ALPHA.powf(1.0 / 1000.0);
        assert!((c1000 - (1.0 - upper)).abs() < 1e-12);
    }

    #[test]
    fn traced_sweep_emits_begin_batches_and_end() {
        use lbsa_support::obs::MemorySink;
        let inputs: Vec<Value> = (0..4).map(|i| int(i % 2)).collect();
        let p = Race {
            inputs: inputs.clone(),
        };
        let objects = vec![AnyObject::consensus(4).unwrap()];
        let sink = MemorySink::new();
        let report = sweep(
            &p,
            &objects,
            &inputs,
            SampleConfig {
                runs: 250,
                seed0: 0,
                max_steps: 10_000,
                threads: 1,
                ..SampleConfig::default()
            },
            &Tracer::new(sink.clone()),
        )
        .unwrap();
        assert_eq!(report.runs, 250);
        let names = sink.names();
        assert_eq!(names.first(), Some(&"sample.begin"));
        assert_eq!(names.last(), Some(&"sample.end"));
        assert_eq!(
            names.iter().filter(|n| **n == "sample.batch").count(),
            2,
            "250 runs at a 100-run batch emit 2 interim beats"
        );
        assert_eq!(
            names.iter().filter(|n| **n == "sample.worker").count(),
            1,
            "single-threaded sweeps still summarize their one worker"
        );
        let events = sink.events();
        let begin = &events[0];
        assert_eq!(begin.fields.get("runs"), Some(&Json::Int(250)));
        assert_eq!(begin.fields.get("k"), Some(&Json::Int(1)));
        assert_eq!(begin.fields.get("threads"), Some(&Json::Int(1)));
        let batch = events
            .iter()
            .find(|e| e.name == "sample.batch")
            .expect("batch event");
        assert_eq!(batch.fields.get("seeds_tried"), Some(&Json::Int(100)));
        assert_eq!(batch.fields.get("worker"), Some(&Json::Int(0)));
        let worker = events
            .iter()
            .find(|e| e.name == "sample.worker")
            .expect("worker event");
        assert_eq!(worker.fields.get("runs"), Some(&Json::Int(250)));
        let end = events.last().expect("end event");
        assert_eq!(end.fields.get("violations"), Some(&Json::Int(0)));
        assert_eq!(end.fields.get("quiescent"), Some(&Json::Int(250)));
        assert!(end.fields.get("elapsed_us").is_some());
        assert!(end.fields.get("run_p50_ns").is_some());
    }

    #[test]
    fn traced_sweep_reports_the_violating_seed_in_sample_end() {
        use lbsa_support::obs::MemorySink;
        let inputs = vec![int(0), int(1)];
        let p = DecideOwn {
            inputs: inputs.clone(),
        };
        let objects = vec![AnyObject::register()];
        let sink = MemorySink::new();
        let err = sweep(
            &p,
            &objects,
            &inputs,
            SampleConfig::default(),
            &Tracer::new(sink.clone()),
        )
        .unwrap_err();
        let events = sink.events();
        let end = events.last().expect("end event");
        assert_eq!(end.name, "sample.end");
        assert_eq!(end.fields.get("violations"), Some(&Json::Int(1)));
        assert_eq!(
            end.fields.get("seed").and_then(Json::as_i64),
            i64::try_from(err.seed()).ok(),
            "sample.end names the reproducing seed"
        );
        assert!(end
            .fields
            .get("violation")
            .and_then(Json::as_str)
            .is_some_and(|s| s.contains("seed")));
    }

    #[test]
    fn live_sweep_mirrors_runs_into_the_registry() {
        use lbsa_support::obs::Registry;
        let inputs = vec![int(0), int(1)];
        let p = DecideOwn {
            inputs: inputs.clone(),
        };
        let objects = vec![AnyObject::register()];
        let registry = Registry::new();
        let live = LiveMetrics::register(&registry);
        let config = SampleConfig {
            runs: 300,
            threads: 2,
            ..SampleConfig::default()
        };
        let report = sample_k_set_agreement(
            &p,
            &objects,
            2,
            &inputs,
            config,
            &Tracer::disabled(),
            Some(&live),
        )
        .expect("clean sweep");
        assert_eq!(report.runs, 300);
        assert_eq!(live.sample_runs.get(), 300, "one bump per completed run");
        assert_eq!(live.sample_runs_total.get(), 300, "budget gauge set");
        // A sweep without live metrics leaves the registry untouched.
        let base =
            sample_k_set_agreement(&p, &objects, 2, &inputs, config, &Tracer::disabled(), None)
                .unwrap();
        assert_eq!(base, report);
        assert_eq!(live.sample_runs.get(), 300);
    }

    #[test]
    fn violation_display() {
        let v = SampleViolation::Agreement {
            seed: 7,
            values: vec![int(0), int(1)],
        };
        assert!(v.to_string().contains("seed 7"));
        let v = SampleViolation::Validity {
            seed: 8,
            value: int(9),
        };
        assert!(v.to_string().contains("validity"));
    }

    #[test]
    fn effective_runs_is_the_minimal_count_reaching_the_target() {
        // No target: the full budget stands.
        assert_eq!(SampleConfig::default().effective_runs(), 1000);
        // 0.95 needs n* = ⌈ln 0.05 / ln 0.95⌉ = 59 clean runs …
        let c = SampleConfig::default().target_confidence(0.95);
        assert_eq!(c.effective_runs(), 59);
        assert!(sample_confidence(59) >= 0.95);
        assert!(sample_confidence(58) < 0.95);
        // … but never more than the configured budget,
        let tight = SampleConfig {
            runs: 10,
            ..SampleConfig::default()
        }
        .target_confidence(0.95);
        assert_eq!(tight.effective_runs(), 10);
        // and never fewer than one run even for trivial targets (a target
        // below the 1 ppb quantum rounds to "no target" and runs in full).
        assert_eq!(SampleConfig::default().target_confidence(0.0).runs, 1000);
        assert_eq!(
            SampleConfig::default()
                .target_confidence(1e-9)
                .effective_runs(),
            1
        );
        assert_eq!(
            SampleConfig::default()
                .target_confidence(1e-12)
                .effective_runs(),
            1000
        );
        // A target of 1.0 is unreachable by any finite sweep: full budget.
        assert_eq!(
            SampleConfig::default()
                .target_confidence(1.0)
                .effective_runs(),
            1000
        );
        assert_eq!(
            SampleConfig::default()
                .target_confidence(f64::NAN)
                .effective_runs(),
            1000
        );
    }

    #[test]
    fn target_confidence_stops_early_and_stays_thread_count_independent() {
        let inputs: Vec<Value> = (0..6).map(|i| int(i % 2)).collect();
        let p = Race {
            inputs: inputs.clone(),
        };
        let objects = vec![AnyObject::consensus(6).unwrap()];
        let config = SampleConfig {
            runs: 500,
            seed0: 3,
            max_steps: 10_000,
            threads: 1,
            ..SampleConfig::default()
        }
        .target_confidence(0.95);
        let base = sweep(&p, &objects, &inputs, config, &Tracer::disabled()).unwrap();
        assert_eq!(base.runs, 59, "adaptive budget should cut 500 to 59");
        assert!(base.stopped_early);
        for threads in [2, 4, 8] {
            let report = sweep(
                &p,
                &objects,
                &inputs,
                SampleConfig { threads, ..config },
                &Tracer::disabled(),
            )
            .unwrap();
            assert_eq!(report, base, "report drifted at {threads} threads");
        }
        // A budget already below the cutoff runs in full, not early-stopped.
        let small = SampleConfig { runs: 20, ..config };
        let report = sweep(&p, &objects, &inputs, small, &Tracer::disabled()).unwrap();
        assert_eq!(report.runs, 20);
        assert!(!report.stopped_early);
    }
}
