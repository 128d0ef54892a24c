//! # lbsa-explorer — executable proof machinery
//!
//! The theorems of *Life Beyond Set Agreement* quantify over **all**
//! executions ("in every execution, agreement holds") and over schedules
//! chosen by an adversary (the bivalency arguments of Theorems 4.2 and 5.2).
//! This crate makes both quantifiers executable:
//!
//! * [`explore`] — exhaustive breadth-first exploration of *every*
//!   interleaving and *every* nondeterministic object outcome of a protocol,
//!   with configuration deduplication. For the finite-state instances used in
//!   the experiments, the resulting [`explore::ExplorationGraph`] covers the
//!   paper's "for every execution" exactly.
//! * [`valency`] — decision-closure computation over an exploration graph:
//!   classify configurations as 0-valent, 1-valent, or bivalent, and locate
//!   *critical* configurations (bivalent, all successors univalent) — the
//!   combinatorial heart of the FLP-style proofs.
//! * [`adversary`] — the executable counterpart of the impossibility proofs:
//!   find cycles of undecided configurations. A reachable cycle in which a
//!   process keeps stepping without deciding is a *machine-checkable
//!   certificate* that the protocol violates wait-free termination.
//! * [`checker`] — the whole-execution-space predicates for the problems of
//!   the paper: consensus, k-set agreement, and the n-DAC problem with its
//!   four properties (Agreement, Validity, Termination (a)/(b),
//!   Nontriviality), evaluated on an exploration graph.
//! * [`linearizability`] — a Wing–Gold linearizability checker for the
//!   concurrent front-end histories produced by
//!   [`lbsa_runtime::derived::record_frontend_history`], used to validate
//!   every derived implementation against its target specification.
//! * [`sampling`] — seeded randomized checking for instances beyond the
//!   exhaustive frontier: a parallel, seed-sharded sweep whose verdicts are
//!   thread-count independent, with safety checked on every sampled run and
//!   violations returned with their reproducing seed. Reached through
//!   [`Exploration::sample`].
//! * [`verdict`] — the one checking surface: the `check_*` terminals of the
//!   [`Exploration`] builder ([`Exploration::check_k_set_agreement`],
//!   [`Exploration::check_consensus`], [`Exploration::check_dac`],
//!   [`Exploration::check_wait_free`]). Each yields a typed
//!   [`verdict::Verdict`] whose counterexample [`verdict::Witness`] is a
//!   replayable, delta-minimized schedule that can be deterministically
//!   re-executed to confirm the violation. Builder knobs choose how:
//!   [`Exploration::symmetric`] checks the symmetry-reduced graph,
//!   [`Exploration::sample`] samples instead of exploring.
//! * [`error`] — the unified [`error::CheckError`] hierarchy that verdicts
//!   carry as a structured cause.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod checker;
pub mod config;
pub mod error;
pub mod explore;
mod graph;
pub mod intern;
pub mod linearizability;
mod live;
pub mod sampling;
pub mod stats;
pub mod symmetry;
pub mod valency;
pub mod verdict;

pub use config::Configuration;
pub use error::CheckError;
pub use explore::{
    Exploration, ExplorationGraph, ExploreOptions, Explorer, Frontier, Limits, StepRecord,
};
pub use lbsa_support::obs::{
    Counter, Gauge, JsonlSink, MemorySink, Registry, StderrSink, TraceSink, Tracer,
};
pub use sampling::{sample_confidence, SampleConfig, SampleViolation, OUTCOME_SEED_XOR};
pub use stats::{
    ExploreStats, LatencyHistograms, LevelStats, PhaseTimes, SampleWorkerStats, WorkerStats,
};
pub use symmetry::{Concretizer, ConfigSymmetry};
pub use valency::{Valence, ValencyAnalysis};
pub use verdict::{Outcome, Verdict, Witness};
