//! Typed verdicts with replayable, minimized counterexample witnesses.
//!
//! This module is the one checking surface of the crate: the `check_*`
//! terminals of the [`Exploration`] builder —
//! [`check_k_set_agreement`](Exploration::check_k_set_agreement),
//! [`check_consensus`](Exploration::check_consensus),
//! [`check_dac`](Exploration::check_dac) and
//! [`check_wait_free`](Exploration::check_wait_free). Each explores (or,
//! after [`Exploration::sample`], samples), runs the graph predicates of
//! [`crate::checker`], and returns a [`Verdict`] whose negative answers
//! carry a [`Witness`] — a schedule (pid + chosen object outcome per step,
//! the same labelling as [`crate::explore::Edge`]) that
//!
//! 1. **replays deterministically**: [`Witness::replay`] re-executes it step
//!    by step through [`crate::explore::Explorer::step`], rebuilding the
//!    object-level [`lbsa_runtime::trace::Trace`];
//! 2. **is delta-minimized**: the schedule is cut to the shortest failing
//!    prefix (for state-predicate violations) or is the BFS-shortest path
//!    to the cycle's entry (for cycle witnesses), and minimization never
//!    lengthens it;
//! 3. **confirms the violation**: [`Witness::confirm`] replays and then
//!    re-evaluates the violated property on the replayed configuration,
//!    failing with [`CheckError::WitnessDiverged`] if the schedule no longer
//!    demonstrates the violation.
//!
//! Verdicts and witnesses serialize to the `reports/*.json` schema via
//! [`Verdict::to_json`] (see `lbsa_bench::harness`).
//!
//! # Symmetry-reduced checking
//!
//! After [`Exploration::symmetric`], for protocols implementing
//! [`lbsa_runtime::process::Symmetry`], a check explores the **quotient**
//! graph (one canonical representative per orbit, see [`crate::symmetry`])
//! and runs the same predicates on it — sound because every checked
//! predicate is orbit-invariant. Counterexample schedules extracted from the
//! quotient graph are **de-canonicalized** through a [`Concretizer`] into
//! real executions before the witness is built, so [`Witness::replay`] and
//! [`Witness::confirm`] work on the raw, unreduced system exactly as for
//! unreduced verdicts.

use crate::checker::{
    check_dac_in, check_k_set_agreement_in, check_wait_free_graph, solo_abort_path,
    solo_terminates, CheckStats, DacInstance, Violation,
};
use crate::config::Configuration;
use crate::error::CheckError;
use crate::explore::{Edge, Exploration, Explorer, Strategy};
use crate::graph::{path_to, GraphView, InternedGraph};
use crate::live::{EtaModel, LiveMetrics, ProgressWatcher};
use crate::sampling::{
    run_one, sample_confidence, sample_k_set_agreement, SampleConfig, SampleViolation,
};
use crate::stats::duration_us;
use crate::symmetry::{Concretizer, ConfigSymmetry};
use lbsa_core::{Pid, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::process::{ProcStatus, Protocol};
use lbsa_runtime::trace::{Trace, TraceEvent};
use lbsa_support::json::Json;
use lbsa_support::obs::Tracer;
use std::fmt;
use std::time::{Duration, Instant};

/// One step of a replayable schedule: which process moves and which
/// admissible object outcome resolves (0 for deterministic objects).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleStep {
    /// The process that steps.
    pub pid: Pid,
    /// The chosen outcome index.
    pub outcome: usize,
}

impl From<Edge> for ScheduleStep {
    fn from(e: Edge) -> Self {
        ScheduleStep {
            pid: e.pid,
            outcome: e.outcome,
        }
    }
}

impl ScheduleStep {
    fn to_json(self) -> Json {
        Json::object()
            .set("pid", self.pid.index())
            .set("outcome", self.outcome)
    }
}

/// The property a witness demonstrates the violation of. Each variant
/// carries exactly the parameters needed to re-evaluate the violated
/// predicate on a replayed configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WitnessKind {
    /// More than `k` distinct values decided.
    Agreement {
        /// The agreement bound that was exceeded.
        k: usize,
    },
    /// A decided value outside the valid set.
    Validity {
        /// The admissible decision values.
        valid: Vec<Value>,
    },
    /// A decided value no non-aborted process proposed (n-DAC Validity).
    DacValidity {
        /// Each process's input, indexed by pid.
        inputs: Vec<Value>,
    },
    /// A terminal configuration with an undecided process.
    UndecidedTerminal,
    /// An infinite execution: the schedule leads to a configuration from
    /// which `cycle` returns to itself while the victims stay undecided.
    NonTermination {
        /// Processes stepping forever without deciding.
        victims: Vec<Pid>,
    },
    /// A configuration from which `pid` run solo fails to stop (or, when
    /// `must_decide`, fails to decide) within `bound` of its own steps.
    SoloNonTermination {
        /// The process run solo.
        pid: Pid,
        /// The step bound of the solo run.
        bound: usize,
        /// `true` if the solo run must *decide* (n-DAC Termination (b));
        /// `false` if stopping (decide/abort/halt) suffices (clause (a)).
        must_decide: bool,
    },
    /// The distinguished process aborted although no other process had
    /// taken a step (n-DAC Nontriviality; the schedule is `p`-solo).
    Nontriviality {
        /// The distinguished process.
        distinguished: Pid,
    },
}

impl WitnessKind {
    /// A short machine-readable tag for reports.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            WitnessKind::Agreement { .. } => "agreement",
            WitnessKind::Validity { .. } => "validity",
            WitnessKind::DacValidity { .. } => "dac-validity",
            WitnessKind::UndecidedTerminal => "undecided-terminal",
            WitnessKind::NonTermination { .. } => "non-termination",
            WitnessKind::SoloNonTermination { .. } => "solo-non-termination",
            WitnessKind::Nontriviality { .. } => "nontriviality",
        }
    }

    /// Evaluates the violated *state* predicate on `config`, when the kind
    /// has one; `None` for kinds whose evidence is not a single
    /// configuration (non-termination cycles, solo runs).
    fn state_predicate<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
        &self,
        config: &Configuration<L>,
    ) -> Option<bool> {
        match self {
            WitnessKind::Agreement { k } => Some(config.distinct_decisions().len() > *k),
            WitnessKind::Validity { valid } => Some(
                config
                    .distinct_decisions()
                    .iter()
                    .any(|v| !valid.contains(v)),
            ),
            WitnessKind::DacValidity { inputs } => {
                Some(config.distinct_decisions().iter().any(|v| {
                    !(0..inputs.len())
                        .any(|q| inputs.get(q) == Some(v) && !config.has_aborted(Pid(q)))
                }))
            }
            WitnessKind::UndecidedTerminal => Some(config.is_terminal() && !config.all_decided()),
            WitnessKind::Nontriviality { distinguished } => {
                Some(config.has_aborted(*distinguished))
            }
            WitnessKind::NonTermination { .. } | WitnessKind::SoloNonTermination { .. } => None,
        }
    }

    /// Evaluates the full violated predicate on `config`, running solo
    /// probes through `explorer` where the kind requires them. `None` for
    /// cycle-based kinds (their evidence is the cycle, not a configuration).
    fn predicate<P: Protocol>(
        &self,
        explorer: &Explorer<'_, P>,
        config: &Configuration<P::LocalState>,
    ) -> Result<Option<bool>, RuntimeError> {
        if let Some(hit) = self.state_predicate(config) {
            return Ok(Some(hit));
        }
        match self {
            WitnessKind::SoloNonTermination {
                pid,
                bound,
                must_decide,
            } => {
                if !matches!(config.procs.get(pid.index()), Some(ProcStatus::Running(_))) {
                    return Ok(Some(false));
                }
                let ok = solo_terminates(explorer, config, *pid, *bound, *must_decide)?;
                Ok(Some(!ok))
            }
            WitnessKind::NonTermination { .. } => Ok(None),
            _ => Ok(self.state_predicate(config)),
        }
    }
}

impl fmt::Display for WitnessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A replayable, minimized counterexample: the executable analogue of the
/// paper's "there is an execution in which …".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The failing schedule, from the initial configuration.
    pub schedule: Vec<ScheduleStep>,
    /// For non-termination witnesses, the cycle pumped after `schedule`;
    /// empty otherwise.
    pub cycle: Vec<ScheduleStep>,
    /// The violated property, with the parameters to re-check it.
    pub kind: WitnessKind,
    /// The object-level trace of replaying `schedule` (plus one cycle lap
    /// for non-termination witnesses) — built on [`lbsa_runtime::trace`].
    pub trace: Trace,
    /// `true` once delta-minimization ran over the schedule.
    pub minimized: bool,
}

impl Witness {
    /// Total schedule length (prefix plus one cycle lap).
    #[must_use]
    pub fn len(&self) -> usize {
        self.schedule.len() + self.cycle.len()
    }

    /// `true` if the witness has no steps at all (a violation visible in
    /// the initial configuration).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays `schedule` from the initial configuration, one chosen step
    /// at a time, rebuilding the trace.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::WitnessDiverged`] when a step cannot be
    /// replayed (the schedule does not belong to this protocol/object
    /// combination).
    pub fn replay<P: Protocol>(
        &self,
        explorer: &Explorer<'_, P>,
    ) -> Result<(Configuration<P::LocalState>, Trace), CheckError> {
        let mut config = explorer.initial_config();
        let mut trace = Trace::new();
        for (i, step) in self.schedule.iter().enumerate() {
            config = replay_one(explorer, config, *step, i, &mut trace)?;
        }
        explorer.tracer().emit_with("witness.replay", || {
            Json::object()
                .set("kind", self.kind.tag())
                .set("steps", self.schedule.len())
        });
        Ok((config, trace))
    }

    /// Replays the witness and re-evaluates the violated property,
    /// confirming the counterexample end to end.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::WitnessDiverged`] if replay fails or the
    /// replayed execution no longer violates the property.
    pub fn confirm<P: Protocol>(&self, explorer: &Explorer<'_, P>) -> Result<(), CheckError> {
        let result = self.confirm_inner(explorer);
        explorer.tracer().emit_with("witness.confirm", || {
            Json::object()
                .set("kind", self.kind.tag())
                .set("steps", self.len())
                .set("ok", result.is_ok())
        });
        result
    }

    fn confirm_inner<P: Protocol>(&self, explorer: &Explorer<'_, P>) -> Result<(), CheckError> {
        let (config, mut trace) = self.replay(explorer)?;
        match &self.kind {
            WitnessKind::NonTermination { victims } => {
                if self.cycle.is_empty() {
                    return Err(CheckError::WitnessDiverged {
                        step: self.schedule.len(),
                        reason: "non-termination witness has an empty cycle".to_string(),
                    });
                }
                let entry = config.clone();
                let mut cur = config;
                let mut stepped: Vec<Pid> = Vec::new();
                for (i, step) in self.cycle.iter().enumerate() {
                    let at = self.schedule.len() + i;
                    for victim in victims {
                        let undecided = cur
                            .procs
                            .get(victim.index())
                            .is_some_and(|s| s.decision().is_none());
                        if !undecided {
                            return Err(CheckError::WitnessDiverged {
                                step: at,
                                reason: format!("victim {victim} decided on the cycle"),
                            });
                        }
                    }
                    stepped.push(step.pid);
                    cur = replay_one(explorer, cur, *step, at, &mut trace)?;
                }
                if cur != entry {
                    return Err(CheckError::WitnessDiverged {
                        step: self.len(),
                        reason: "cycle does not return to its entry configuration".to_string(),
                    });
                }
                if let Some(v) = victims.iter().find(|v| !stepped.contains(v)) {
                    return Err(CheckError::WitnessDiverged {
                        step: self.len(),
                        reason: format!("victim {v} never steps on the cycle"),
                    });
                }
                Ok(())
            }
            kind => match kind.predicate(explorer, &config) {
                Ok(Some(true)) => Ok(()),
                Ok(_) => Err(CheckError::WitnessDiverged {
                    step: self.schedule.len(),
                    reason: format!("replayed configuration does not violate {kind}"),
                }),
                Err(e) => Err(CheckError::Runtime(e)),
            },
        }
    }

    /// Serializes the witness for `reports/*.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("kind", self.kind.tag())
            .set(
                "schedule",
                Json::Arr(self.schedule.iter().map(|s| s.to_json()).collect()),
            )
            .set(
                "cycle",
                Json::Arr(self.cycle.iter().map(|s| s.to_json()).collect()),
            )
            .set("minimized", self.minimized)
            .set(
                "trace",
                Json::Arr(
                    self.trace
                        .iter()
                        .map(|e| Json::from(e.to_string()))
                        .collect(),
                ),
            )
    }
}

/// Emits the `witness.extract` trace event for a freshly built witness.
fn emit_extract(tracer: &Tracer, w: &Witness) {
    tracer.emit_with("witness.extract", || {
        Json::object()
            .set("kind", w.kind.tag())
            .set("schedule_len", w.schedule.len())
            .set("cycle_len", w.cycle.len())
            .set("minimized", w.minimized)
    });
}

/// Replays one chosen step, appending its trace event.
fn replay_one<P: Protocol>(
    explorer: &Explorer<'_, P>,
    config: Configuration<P::LocalState>,
    step: ScheduleStep,
    index: usize,
    trace: &mut Trace,
) -> Result<Configuration<P::LocalState>, CheckError> {
    match explorer.step(&config, step.pid, step.outcome) {
        Ok(rec) => {
            trace.push(TraceEvent {
                step: index,
                pid: step.pid,
                obj: rec.obj,
                op: rec.op,
                response: rec.response,
                outcome: step.outcome,
            });
            Ok(rec.config)
        }
        Err(e) => Err(CheckError::WitnessDiverged {
            step: index,
            reason: e.to_string(),
        }),
    }
}

/// How a check concluded.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Outcome {
    /// The property holds in every execution.
    Holds,
    /// The property held on every run of a sampling sweep — probabilistic
    /// evidence, not proof: `confidence` is the complement of the
    /// Clopper–Pearson upper bound on the per-schedule violation rate (see
    /// [`crate::sampling::sample_confidence`]).
    HoldsSampled {
        /// Seeded runs executed, all clean.
        runs: u64,
        /// Runs that reached quiescence (the rest hit the step budget).
        quiescent: u64,
        /// Distinct full decision vectors observed across the runs.
        distinct_outcomes: usize,
        /// `1 − bound` where `bound` is the 95% Clopper–Pearson upper
        /// bound on the violation probability of a sampled schedule.
        confidence: f64,
        /// `true` when a confidence target (see
        /// [`SampleConfig::target_confidence`]) stopped the sweep before
        /// its full `runs` budget.
        stopped_early: bool,
    },
    /// A violation was found (the verdict's witness demonstrates it, when
    /// one could be extracted).
    Violated(Violation),
    /// The exploration was truncated; inconclusive.
    Truncated,
    /// The checking machinery itself failed.
    Error(CheckError),
}

impl Outcome {
    /// A short machine-readable tag for reports.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Holds => "holds",
            Outcome::HoldsSampled { .. } => "holds-sampled",
            Outcome::Violated(_) => "violated",
            Outcome::Truncated => "truncated",
            Outcome::Error(_) => "error",
        }
    }
}

/// The typed result of a property check: how it concluded, what it cost,
/// and — for violations — a replayable counterexample.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// How the check concluded.
    pub outcome: Outcome,
    /// Work performed (configurations/transitions examined).
    pub stats: CheckStats,
    /// A minimized, replayable counterexample, when the outcome is
    /// [`Outcome::Violated`] and a schedule could be extracted.
    pub witness: Option<Witness>,
}

impl Verdict {
    /// `true` if the property was proven to hold.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self.outcome, Outcome::Holds)
    }

    /// `true` if a violation was found.
    #[must_use]
    pub fn is_violated(&self) -> bool {
        matches!(self.outcome, Outcome::Violated(_))
    }

    /// One-line human summary.
    #[must_use]
    pub fn describe(&self) -> String {
        match &self.outcome {
            Outcome::Holds => "holds".to_string(),
            Outcome::HoldsSampled {
                runs,
                confidence,
                stopped_early,
                ..
            } => format!(
                "holds on {runs} sampled runs{} (violation rate < {:.2e} at 95% confidence)",
                if *stopped_early {
                    " (stopped early at target confidence)"
                } else {
                    ""
                },
                1.0 - confidence
            ),
            Outcome::Violated(v) => format!("violated: {v}"),
            Outcome::Truncated => "inconclusive: exploration truncated".to_string(),
            Outcome::Error(e) => format!("error: {e}"),
        }
    }

    /// Serializes the verdict for `reports/*.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object().set("outcome", self.outcome.tag());
        match &self.outcome {
            Outcome::Violated(v) => doc = doc.set("detail", v.to_string()),
            Outcome::Error(e) => doc = doc.set("detail", e.to_string()),
            Outcome::HoldsSampled {
                runs,
                quiescent,
                distinct_outcomes,
                confidence,
                stopped_early,
            } => {
                doc = doc.set(
                    "sampled",
                    Json::object()
                        .set("runs", *runs)
                        .set("quiescent", *quiescent)
                        .set("distinct_outcomes", *distinct_outcomes)
                        .set("confidence", *confidence)
                        .set("stopped_early", *stopped_early),
                );
            }
            _ => {}
        }
        doc = doc.set(
            "stats",
            Json::object()
                .set("configs", self.stats.configs)
                .set("transitions", self.stats.transitions),
        );
        doc.set(
            "witness",
            self.witness.as_ref().map_or(Json::Null, Witness::to_json),
        )
    }

    fn error(stats: CheckStats, e: CheckError) -> Verdict {
        Verdict {
            outcome: Outcome::Error(e),
            stats,
            witness: None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

const EMPTY_STATS: CheckStats = CheckStats {
    configs: 0,
    transitions: 0,
};

/// Emits the end-of-check `verdict` trace event and passes the verdict
/// through. Every check routes its result here exactly once, so a traced
/// run shows one `verdict` line per check. `check_time` is what the
/// verdict layer itself took past exploration (graph predicates, witness
/// extraction and dropping the graph; the whole sweep for a sampled
/// check), `graph_bytes` the footprint of the graph it checked.
fn traced(
    tracer: &Tracer,
    check: &'static str,
    verdict: Verdict,
    check_time: Duration,
    graph_bytes: usize,
) -> Verdict {
    tracer.emit_with("verdict", || {
        Json::object()
            .set("check", check)
            .set("outcome", verdict.outcome.tag())
            .set("configs", verdict.stats.configs)
            .set("transitions", verdict.stats.transitions)
            .set("check_us", duration_us(check_time))
            .set("graph_bytes", graph_bytes)
            .set(
                "witness_len",
                verdict
                    .witness
                    .as_ref()
                    .map_or(Json::Null, |w| Json::from(w.len())),
            )
    });
    verdict
}

/// The property a `check_*` terminal asks about. It owns everything that
/// differs between checks: the graph predicate, the [`WitnessKind`] of each
/// violation, and the `check` name in the trace.
enum Property<'p> {
    /// k-Agreement, Validity against `valid`, and wait-free termination.
    KSet { k: usize, valid: &'p [Value] },
    /// The four n-DAC properties of Section 4.
    Dac {
        instance: &'p DacInstance,
        solo_bound: usize,
    },
    /// Wait-free termination alone.
    WaitFree,
}

impl Property<'_> {
    /// The `check` name of the `verdict` trace event.
    fn name(&self, sampled: bool) -> &'static str {
        match (self, sampled) {
            (Property::KSet { .. }, false) => "k-set-agreement",
            (Property::KSet { .. }, true) => "k-set-agreement-sampled",
            (Property::Dac { .. }, false) => "dac",
            (Property::Dac { .. }, true) => "dac-sampled",
            (Property::WaitFree, false) => "wait-free",
            (Property::WaitFree, true) => "wait-free-sampled",
        }
    }

    /// Checks the property on the interned graph and builds the verdict.
    fn verdict<P: Protocol>(
        &self,
        explorer: &Explorer<'_, P>,
        sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
        graph: InternedGraph<P::LocalState>,
    ) -> Verdict {
        let checked = match *self {
            Property::KSet { k, valid } => check_k_set_agreement_in(&graph, k, valid),
            Property::WaitFree => check_wait_free_graph(&graph),
            Property::Dac {
                instance,
                solo_bound,
            } => check_dac_in(
                explorer,
                &graph,
                graph.config_resolver(),
                instance,
                solo_bound,
            ),
        };
        match checked {
            Ok(stats) => Verdict {
                outcome: Outcome::Holds,
                stats,
                witness: None,
            },
            Err(violation) => {
                let kind = self.witness_kind(&violation);
                violation_verdict(explorer, sym, &graph, violation, kind)
            }
        }
    }

    /// The re-checkable [`WitnessKind`] of `violation`; `None` for
    /// violations whose witness does not need one (cycles) or has none.
    fn witness_kind(&self, violation: &Violation) -> Option<WitnessKind> {
        match (self, violation) {
            (Property::KSet { k, .. }, Violation::Agreement { .. }) => {
                Some(WitnessKind::Agreement { k: *k })
            }
            (Property::Dac { .. }, Violation::Agreement { .. }) => {
                Some(WitnessKind::Agreement { k: 1 })
            }
            (Property::KSet { valid, .. }, Violation::Validity { .. }) => {
                Some(WitnessKind::Validity {
                    valid: valid.to_vec(),
                })
            }
            (Property::Dac { instance, .. }, Violation::Validity { .. }) => {
                Some(WitnessKind::DacValidity {
                    inputs: instance.inputs.clone(),
                })
            }
            (_, Violation::UndecidedTerminal { .. }) => Some(WitnessKind::UndecidedTerminal),
            (
                Property::Dac {
                    instance,
                    solo_bound,
                },
                Violation::SoloNonTermination { pid, .. },
            ) => Some(WitnessKind::SoloNonTermination {
                pid: *pid,
                bound: *solo_bound,
                must_decide: *pid != instance.distinguished,
            }),
            (Property::Dac { instance, .. }, Violation::Nontriviality { .. }) => {
                Some(WitnessKind::Nontriviality {
                    distinguished: instance.distinguished,
                })
            }
            _ => None,
        }
    }
}

/// The checking terminals of the [`Exploration`] builder — the one way to
/// check a property of an exploration. Every knob applies: limits, threads,
/// frontier, symmetry ([`Exploration::symmetric`]), sampling
/// ([`Exploration::sample`]), tracer, registry and progress streaming.
/// Violations carry replayable, minimized witnesses; on a symmetric run the
/// witness is de-canonicalized, so it replays on the raw system.
impl<P: Protocol> Exploration<'_, '_, P> {
    /// Consumes the builder and checks k-set agreement: k-Agreement,
    /// Validity against `valid_inputs`, and wait-free termination — or,
    /// after [`Exploration::sample`], the two safety properties on every
    /// sampled run.
    #[must_use]
    pub fn check_k_set_agreement(self, k: usize, valid_inputs: &[Value]) -> Verdict {
        self.check(&Property::KSet {
            k,
            valid: valid_inputs,
        })
    }

    /// Consumes the builder and checks consensus (`k = 1`); see
    /// [`Exploration::check_k_set_agreement`].
    #[must_use]
    pub fn check_consensus(self, valid_inputs: &[Value]) -> Verdict {
        self.check_k_set_agreement(1, valid_inputs)
    }

    /// Consumes the builder and checks the four n-DAC properties of
    /// Section 4 (see [`crate::checker::check_dac_graph`]), with solo runs
    /// bounded by `solo_bound` steps. Exhaustive only: after
    /// [`Exploration::sample`] the outcome is
    /// [`CheckError::SamplingUnsupported`].
    #[must_use]
    pub fn check_dac(self, instance: &DacInstance, solo_bound: usize) -> Verdict {
        self.check(&Property::Dac {
            instance,
            solo_bound,
        })
    }

    /// Consumes the builder and checks wait-free termination alone: no
    /// infinite execution, and every terminal configuration fully decided.
    /// A violation's witness is a pumpable cycle. Exhaustive only: after
    /// [`Exploration::sample`] the outcome is
    /// [`CheckError::SamplingUnsupported`].
    #[must_use]
    pub fn check_wait_free(self) -> Verdict {
        self.check(&Property::WaitFree)
    }

    /// The one check sequence: explore (or sample), run the property's
    /// predicate, build the witness of a violation, trace the verdict.
    fn check(mut self, property: &Property<'_>) -> Verdict {
        let explorer = self.explorer;
        let tracer = self
            .tracer
            .take()
            .unwrap_or_else(|| explorer.tracer().clone());
        let live = self.live_metrics();
        if let Strategy::Sample(config) = self.strategy {
            let started = Instant::now();
            let verdict = match *property {
                Property::KSet { k, valid } => {
                    // The sweep runs here, not in the engine, so the
                    // progress watcher brackets it from the verdict layer.
                    let watcher = match (self.progress_every, &live) {
                        (Some(period), Some(live)) if tracer.enabled() => {
                            Some(ProgressWatcher::spawn(
                                live.clone(),
                                tracer.clone(),
                                period,
                                EtaModel::Sampling,
                            ))
                        }
                        _ => None,
                    };
                    let verdict =
                        sampled_verdict(explorer, k, valid, config, &tracer, live.as_ref());
                    if let Some(watcher) = watcher {
                        watcher.finish();
                    }
                    verdict
                }
                _ => Verdict::error(
                    EMPTY_STATS,
                    CheckError::SamplingUnsupported {
                        check: property.name(false),
                    },
                ),
            };
            let name = property.name(true);
            return traced(&tracer, name, verdict, started.elapsed(), 0);
        }
        let symmetry = self.symmetry.take();
        let explored = self.explore(&tracer, symmetry.as_ref(), live.as_ref());
        let started = Instant::now();
        let (verdict, graph_bytes) = match explored {
            Err(e) => (Verdict::error(EMPTY_STATS, e.into()), 0),
            Ok(graph) => {
                let bytes = graph.approx_bytes();
                (property.verdict(explorer, symmetry.as_ref(), graph), bytes)
            }
        };
        let name = property.name(false);
        traced(&tracer, name, verdict, started.elapsed(), graph_bytes)
    }
}

/// Checks k-set agreement by a seeded sampling sweep (see
/// [`crate::sampling`]): the positive outcome is [`Outcome::HoldsSampled`]
/// with a confidence bound, and a violating seed is replayed into a
/// [`ScheduleStep`] schedule and delta-minimized into the same
/// [`Witness::confirm`]-able witness as an exhaustive check. The verdict
/// (and any violating seed) is independent of `config.threads`.
fn sampled_verdict<P: Protocol>(
    explorer: &Explorer<'_, P>,
    k: usize,
    valid_inputs: &[Value],
    config: SampleConfig,
    tracer: &Tracer,
    live: Option<&LiveMetrics>,
) -> Verdict {
    match sample_k_set_agreement(
        explorer.protocol(),
        explorer.objects(),
        k,
        valid_inputs,
        config,
        tracer,
        live,
    ) {
        Ok(report) => Verdict {
            outcome: Outcome::HoldsSampled {
                runs: report.runs,
                quiescent: report.quiescent,
                distinct_outcomes: report.distinct_outcomes,
                confidence: sample_confidence(report.runs),
                stopped_early: report.stopped_early,
            },
            stats: CheckStats {
                configs: usize::try_from(report.runs).unwrap_or(usize::MAX),
                transitions: report.total_steps,
            },
            witness: None,
        },
        Err(violation) => sampled_violation_verdict(explorer, k, valid_inputs, config, violation),
    }
}

/// Builds the `Violated` verdict for a sampling violation: replays the
/// seed into a schedule and lifts it into a real, minimized witness.
/// Stats count the seeds tried up to the violating one (`configs`) and the
/// failing run's length (`transitions`) — both seed-deterministic, so the
/// verdict compares equal across thread counts.
fn sampled_violation_verdict<P: Protocol>(
    explorer: &Explorer<'_, P>,
    k: usize,
    valid_inputs: &[Value],
    config: SampleConfig,
    violation: SampleViolation,
) -> Verdict {
    let seeds_tried = violation.seed().wrapping_sub(config.seed0).wrapping_add(1);
    let seeds_tried = usize::try_from(seeds_tried).unwrap_or(usize::MAX);
    let kind = match &violation {
        SampleViolation::Agreement { .. } => WitnessKind::Agreement { k },
        SampleViolation::Validity { .. } => WitnessKind::Validity {
            valid: valid_inputs.to_vec(),
        },
        SampleViolation::Runtime { error, .. } => {
            let stats = CheckStats {
                configs: seeds_tried,
                transitions: 0,
            };
            return Verdict::error(stats, error.clone().into());
        }
    };
    // The sweep's own run, re-run from its seed with its trace kept: the
    // schedule is the sampled run by construction.
    let (protocol, objects) = (explorer.protocol(), explorer.objects());
    let run = run_one(protocol, objects, violation.seed(), config.max_steps, true);
    let schedule = run.map(|(_, trace)| {
        trace
            .iter()
            .map(|e| ScheduleStep {
                pid: e.pid,
                outcome: e.outcome,
            })
            .collect::<Vec<_>>()
    });
    let stats = CheckStats {
        configs: seeds_tried,
        transitions: schedule.as_ref().map_or(0, Vec::len),
    };
    let witness = schedule
        .ok()
        .and_then(|schedule| finish_witness(explorer, schedule, kind));
    Verdict {
        outcome: Outcome::Violated(Violation::Sampled(violation)),
        stats,
        witness,
    }
}

/// Builds the `Violated` verdict for `violation`, extracting and
/// minimizing a witness when `kind` gives the re-checkable predicate (cycle
/// witnesses need none). `sym` is the symmetry a quotient `graph` was
/// reduced by: its schedules are de-canonicalized into real ones, so the
/// witness replays on the raw system either way.
fn violation_verdict<P: Protocol, G: GraphView>(
    explorer: &Explorer<'_, P>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    graph: &G,
    violation: Violation,
    kind: Option<WitnessKind>,
) -> Verdict {
    let stats = graph.check_stats();
    if matches!(violation, Violation::Truncated) {
        return Verdict {
            outcome: Outcome::Truncated,
            stats,
            witness: None,
        };
    }
    if let Violation::Runtime(e) = violation {
        return Verdict::error(stats, e.into());
    }
    let witness = match &violation {
        Violation::NonTermination { config, cycle } => {
            nontermination_witness(explorer, sym, graph, *config, cycle)
        }
        Violation::Agreement { config, .. }
        | Violation::Validity { config, .. }
        | Violation::UndecidedTerminal { config }
        | Violation::SoloNonTermination { config, .. }
        | Violation::Nontriviality { config } => kind.and_then(|kind| {
            let path = match kind {
                WitnessKind::Nontriviality { distinguished } => {
                    solo_abort_path(graph, distinguished)?
                }
                _ => path_to(graph, *config)?,
            };
            let steps = path.into_iter().map(ScheduleStep::from).collect();
            graph_witness(explorer, sym, steps, kind)
        }),
        _ => None,
    };
    Verdict {
        outcome: Outcome::Violated(violation),
        stats,
        witness,
    }
}

/// De-canonicalizes a quotient schedule into a real one, returning the
/// walker so callers can read the final `σ` (pid translation) off it.
fn concretize_schedule<'e, 'a, 'p, P: Protocol>(
    explorer: &'e Explorer<'a, P>,
    sym: &'e ConfigSymmetry<'p, P::LocalState>,
    steps: &[ScheduleStep],
) -> Option<(Vec<ScheduleStep>, Concretizer<'e, 'a, 'p, P>)> {
    let mut walker = Concretizer::new(explorer, sym);
    let mut real = Vec::with_capacity(steps.len());
    for s in steps {
        let (pid, outcome) = walker.advance(s.pid, s.outcome).ok()?;
        real.push(ScheduleStep { pid, outcome });
    }
    Some((real, walker))
}

/// Builds a witness for a violation visible at the end of `steps`, a path
/// of `graph` from its root. On a quotient graph the path is concretized
/// into a real schedule first, and a pid named by a solo-run kind is
/// translated through the final `σ`. The schedule is then delta-minimized
/// on the raw system.
fn graph_witness<P: Protocol>(
    explorer: &Explorer<'_, P>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    steps: Vec<ScheduleStep>,
    kind: WitnessKind,
) -> Option<Witness> {
    let Some(sym) = sym else {
        return finish_witness(explorer, steps, kind);
    };
    let (schedule, walker) = concretize_schedule(explorer, sym, &steps)?;
    // A solo-run kind names a pid of the quotient configuration; the real
    // process it denotes is σ⁻¹(pid) at the end of the path.
    let kind = match kind {
        WitnessKind::SoloNonTermination {
            pid,
            bound,
            must_decide,
        } => WitnessKind::SoloNonTermination {
            pid: walker.real_pid(pid),
            bound,
            must_decide,
        },
        k => k,
    };
    finish_witness(explorer, schedule, kind)
}

/// Builds a non-termination witness for the cycle `cycle` entered at
/// `entry`: the schedule is the BFS-shortest path to the entry (this is
/// the minimization). On a raw graph the cycle is kept verbatim; on a
/// quotient graph it is pumped into a real cycle (see [`pump_cycle`]). The
/// victims are the distinct pids stepping on the cycle — sound because
/// decisions are absorbing, so a process that steps on a closed cycle can
/// never have decided anywhere on it.
fn nontermination_witness<P: Protocol, G: GraphView>(
    explorer: &Explorer<'_, P>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    graph: &G,
    entry: usize,
    cycle: &[Edge],
) -> Option<Witness> {
    let prefix: Vec<ScheduleStep> = path_to(graph, entry)?
        .into_iter()
        .map(ScheduleStep::from)
        .collect();
    let lap: Vec<ScheduleStep> = cycle.iter().copied().map(ScheduleStep::from).collect();
    let (schedule, cycle) = match sym {
        None => (prefix, lap),
        Some(sym) => pump_cycle(explorer, sym, &prefix, &lap)?,
    };
    let mut victims: Vec<Pid> = cycle.iter().map(|s| s.pid).collect();
    victims.sort_by_key(|p| p.index());
    victims.dedup();
    // Replay prefix + one cycle lap for the trace.
    let mut config = explorer.initial_config();
    let mut trace = Trace::new();
    for (i, step) in schedule.iter().chain(cycle.iter()).enumerate() {
        config = replay_one(explorer, config, *step, i, &mut trace).ok()?;
    }
    let w = Witness {
        schedule,
        cycle,
        kind: WitnessKind::NonTermination { victims },
        trace,
        minimized: true,
    };
    emit_extract(explorer.tracer(), &w);
    Some(w)
}

/// Concretizes a quotient cycle into a real one. A quotient cycle need not
/// close as a *real* cycle after one lap — concretizing it returns to the
/// same orbit, not necessarily the same configuration. So the lap is
/// pumped: successive laps walk the (finite) orbit of the entry
/// configuration, and by pigeonhole a real configuration repeats within
/// `|G| + 1` laps. Laps before the repeat join the prefix; the laps between
/// the two occurrences form the real cycle. Returns `(prefix, cycle)`.
fn pump_cycle<P: Protocol>(
    explorer: &Explorer<'_, P>,
    sym: &ConfigSymmetry<'_, P::LocalState>,
    prefix: &[ScheduleStep],
    lap: &[ScheduleStep],
) -> Option<(Vec<ScheduleStep>, Vec<ScheduleStep>)> {
    let (mut schedule, mut walker) = concretize_schedule(explorer, sym, prefix)?;
    let mut laps: Vec<Vec<ScheduleStep>> = Vec::new();
    let mut seen: Vec<Configuration<P::LocalState>> = vec![walker.real().clone()];
    let mut repeat = None;
    for _ in 0..=sym.group_order() {
        let mut real = Vec::with_capacity(lap.len());
        for s in lap {
            let (pid, outcome) = walker.advance(s.pid, s.outcome).ok()?;
            real.push(ScheduleStep { pid, outcome });
        }
        laps.push(real);
        let reached = walker.real().clone();
        if let Some(i) = seen.iter().position(|c| *c == reached) {
            repeat = Some(i);
            break;
        }
        seen.push(reached);
    }
    let start = repeat?;
    for lap in &laps[..start] {
        schedule.extend_from_slice(lap);
    }
    let cycle = laps[start..].iter().flatten().copied().collect();
    Some((schedule, cycle))
}

/// Delta-minimizes `schedule` against `kind`'s predicate (shortest failing
/// prefix), replays the result for its trace, and assembles the witness.
fn finish_witness<P: Protocol>(
    explorer: &Explorer<'_, P>,
    schedule: Vec<ScheduleStep>,
    kind: WitnessKind,
) -> Option<Witness> {
    let mut config = explorer.initial_config();
    let mut trace = Trace::new();
    let mut minimized: Vec<ScheduleStep> = Vec::new();
    let mut hit = matches!(kind.predicate(explorer, &config), Ok(Some(true)));
    if !hit {
        for (i, step) in schedule.iter().enumerate() {
            config = replay_one(explorer, config, *step, i, &mut trace).ok()?;
            minimized.push(*step);
            if matches!(kind.predicate(explorer, &config), Ok(Some(true))) {
                hit = true;
                break;
            }
        }
    }
    if !hit {
        return None;
    }
    let w = Witness {
        schedule: minimized,
        cycle: Vec::new(),
        kind,
        trace,
        minimized: true,
    };
    emit_extract(explorer.tracer(), &w);
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Limits;
    use lbsa_core::value::int;
    use lbsa_core::{AnyObject, ObjId, Op};
    use lbsa_runtime::process::{Step, Symmetry};

    /// Correct consensus via a consensus object.
    #[derive(Debug)]
    struct GoodConsensus {
        inputs: Vec<Value>,
    }

    impl Protocol for GoodConsensus {
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

    /// Broken "consensus": each process decides its own input.
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

    fn reg() -> Vec<AnyObject> {
        vec![AnyObject::register()]
    }

    /// Pid classes grouping processes with equal inputs.
    fn input_classes(inputs: &[Value]) -> Vec<u32> {
        inputs
            .iter()
            .map(|v| u32::try_from(inputs.iter().position(|w| w == v).unwrap()).unwrap())
            .collect()
    }

    impl Symmetry for GoodConsensus {
        fn pid_classes(&self) -> Vec<u32> {
            input_classes(&self.inputs)
        }
    }

    impl Symmetry for DecideOwn {
        fn pid_classes(&self) -> Vec<u32> {
            input_classes(&self.inputs)
        }
    }

    #[test]
    fn holding_verdict_has_no_witness() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        assert!(v.holds(), "{v}");
        assert!(v.witness.is_none());
        assert!(v.stats.configs > 0);
        assert_eq!(
            v.to_json().get("outcome").and_then(Json::as_str),
            Some("holds")
        );
    }

    #[test]
    fn agreement_witness_replays_and_confirms() {
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        assert!(v.is_violated(), "{v}");
        let w = v.witness.expect("agreement violations carry a witness");
        assert!(w.minimized);
        assert_eq!(w.kind, WitnessKind::Agreement { k: 1 });
        // Two decisions require two steps; minimization cannot do better.
        assert_eq!(w.schedule.len(), 2);
        assert_eq!(w.trace.len(), w.schedule.len());
        w.confirm(&ex).expect("witness must confirm");
        let (config, _) = w.replay(&ex).unwrap();
        assert!(config.distinct_decisions().len() > 1);
    }

    #[test]
    fn tampered_witness_fails_confirmation() {
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        let w = v.witness.unwrap();

        let mut truncated = w.clone();
        truncated.schedule.pop();
        assert!(matches!(
            truncated.confirm(&ex),
            Err(CheckError::WitnessDiverged { .. })
        ));

        let mut bad_outcome = w.clone();
        bad_outcome.schedule[0].outcome = 7;
        assert!(matches!(
            bad_outcome.confirm(&ex),
            Err(CheckError::WitnessDiverged { step: 0, .. })
        ));
    }

    #[test]
    fn truncated_exploration_yields_truncated_outcome() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex
            .exploration()
            .limits(Limits::new(1))
            .check_consensus(&[int(0), int(1)]);
        assert!(matches!(v.outcome, Outcome::Truncated));
        assert!(v.witness.is_none());
        assert_eq!(
            v.to_json().get("outcome").and_then(Json::as_str),
            Some("truncated")
        );
    }

    #[test]
    fn wait_free_verdict_finds_cycles_with_pumpable_witness() {
        /// One process spinning forever on a register.
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
        let p = Spin;
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_wait_free();
        assert!(v.is_violated());
        let w = v.witness.expect("cycle witness");
        assert!(matches!(w.kind, WitnessKind::NonTermination { .. }));
        assert!(!w.cycle.is_empty());
        w.confirm(&ex).expect("cycle witness must confirm");
    }

    #[test]
    fn reduced_agreement_witness_confirms_on_the_raw_system() {
        let p = DecideOwn {
            inputs: vec![int(0), int(0), int(1), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().check_consensus(&[int(0), int(1)]);
        let reduced = ex
            .exploration()
            .symmetric()
            .check_consensus(&[int(0), int(1)]);
        assert!(raw.is_violated(), "{raw}");
        assert!(reduced.is_violated(), "{reduced}");
        assert!(
            reduced.stats.configs < raw.stats.configs,
            "reduction must shrink the checked graph: {} !< {}",
            reduced.stats.configs,
            raw.stats.configs
        );
        let w = reduced.witness.expect("reduced violations carry a witness");
        assert_eq!(w.kind, WitnessKind::Agreement { k: 1 });
        // The de-canonicalized schedule replays on the *raw* system.
        w.confirm(&ex)
            .expect("de-canonicalized witness must confirm");
    }

    #[test]
    fn reduced_verdicts_agree_when_the_property_holds() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(0), int(0)],
        };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().check_consensus(&[int(0)]);
        let reduced = ex.exploration().symmetric().check_consensus(&[int(0)]);
        assert!(raw.holds(), "{raw}");
        assert!(reduced.holds(), "{reduced}");
        assert!(reduced.stats.configs < raw.stats.configs);
    }

    #[test]
    fn reduced_wait_free_verdict_pumps_a_real_cycle() {
        /// Two interchangeable processes spinning forever on a register.
        #[derive(Debug)]
        struct SpinAll {
            n: usize,
        }
        impl Protocol for SpinAll {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                self.n
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(0), Op::Read)
            }
            fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
                Step::Continue(())
            }
        }
        impl Symmetry for SpinAll {
            fn pid_classes(&self) -> Vec<u32> {
                vec![0; self.n]
            }
        }
        let p = SpinAll { n: 2 };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().symmetric().check_wait_free();
        assert!(v.is_violated(), "{v}");
        let w = v.witness.expect("cycle witness");
        let WitnessKind::NonTermination { victims } = &w.kind else {
            panic!("wrong kind: {:?}", w.kind);
        };
        assert!(!victims.is_empty());
        assert!(!w.cycle.is_empty());
        w.confirm(&ex)
            .expect("pumped cycle witness must confirm on the raw system");
    }

    #[test]
    fn traced_verdicts_emit_check_and_witness_events() {
        use lbsa_support::obs::MemorySink;
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let sink = MemorySink::new();
        let ex = Explorer::new(&p, &objects).with_trace(Tracer::new(sink.clone()));
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        assert!(v.is_violated(), "{v}");
        v.witness
            .as_ref()
            .expect("witness present")
            .confirm(&ex)
            .expect("witness confirms");

        let names = sink.names();
        assert!(names.contains(&"explore.begin"), "{names:?}");
        assert_eq!(
            names.iter().filter(|n| **n == "verdict").count(),
            1,
            "exactly one verdict event per check: {names:?}"
        );
        assert!(names.contains(&"witness.extract"), "{names:?}");
        assert!(names.contains(&"witness.replay"), "{names:?}");
        assert!(names.contains(&"witness.confirm"), "{names:?}");

        let events = sink.events();
        let verdict_ev = events.iter().find(|e| e.name == "verdict").unwrap();
        assert_eq!(
            verdict_ev.fields.get("check").and_then(Json::as_str),
            Some("k-set-agreement")
        );
        assert_eq!(
            verdict_ev.fields.get("outcome").and_then(Json::as_str),
            Some("violated")
        );
        assert_eq!(
            verdict_ev.fields.get("witness_len").and_then(Json::as_i64),
            Some(2)
        );
        // The verdict layer's own cost: its time, and the footprint of the
        // graph it checked, which `run()` reports for the same options.
        assert!(verdict_ev
            .fields
            .get("check_us")
            .and_then(Json::as_i64)
            .is_some());
        let graph = ex.exploration().run().unwrap();
        assert_eq!(
            verdict_ev.fields.get("graph_bytes").and_then(Json::as_i64),
            Some(graph.approx_bytes() as i64)
        );
        let confirm_ev = events.iter().find(|e| e.name == "witness.confirm").unwrap();
        assert_eq!(
            confirm_ev.fields.get("ok").and_then(Json::as_bool),
            Some(true)
        );
        // The verdict event follows the witness extraction that fed it.
        let extract_seq = events
            .iter()
            .find(|e| e.name == "witness.extract")
            .unwrap()
            .seq;
        assert!(verdict_ev.seq > extract_seq);
    }

    #[test]
    fn verdict_json_shape() {
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        let doc = v.to_json();
        assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("violated"));
        assert!(doc.get("detail").is_some());
        let w = doc.get("witness").expect("witness present");
        assert_eq!(w.get("kind").and_then(Json::as_str), Some("agreement"));
        assert_eq!(w.get("minimized").and_then(Json::as_bool), Some(true));
        assert_eq!(w.get("schedule").and_then(Json::as_arr).unwrap().len(), 2);
        // The document round-trips through the parser.
        let parsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn sampled_dac_and_wait_free_are_typed_errors() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let instance = DacInstance {
            distinguished: Pid(0),
            inputs: p.inputs.clone(),
        };
        let config = SampleConfig {
            runs: 10,
            ..SampleConfig::default()
        };
        let dac = ex.exploration().sample(config).check_dac(&instance, 4);
        assert_eq!(
            dac.outcome,
            Outcome::Error(CheckError::SamplingUnsupported { check: "dac" })
        );
        let wait_free = ex.exploration().sample(config).check_wait_free();
        assert_eq!(
            wait_free.outcome,
            Outcome::Error(CheckError::SamplingUnsupported { check: "wait-free" })
        );
        assert!(wait_free.to_string().contains("wait-free"), "{wait_free}");
        assert_eq!(dac.stats, EMPTY_STATS);
        assert!(dac.witness.is_none());
    }
}
