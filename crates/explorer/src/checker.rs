//! Whole-execution-space property checking for the paper's problems:
//! consensus, k-set agreement, and the n-DAC problem.
//!
//! These are the graph predicates behind the `check_*` terminals of the
//! [`crate::explore::Exploration`] builder (see [`crate::verdict`]), which
//! explore, call them, and turn a [`Violation`] into a verdict with a
//! replayable witness. Every check here runs over a **complete**
//! exploration graph, so an `Ok(_)` result means the property holds in
//! *every* execution of the protocol — the same quantifier as the paper's
//! theorem statements. The
//! n-DAC checker implements the exact four properties of Section 4,
//! including the solo-run Termination clauses (a) and (b), which are checked
//! by re-exploring `q`-solo extensions from **every** reachable
//! configuration.
//!
//! The checkers also run unchanged over a **symmetry-reduced** graph (built
//! with [`crate::explore::Exploration::symmetric`]): every predicate here is
//! orbit-invariant. Agreement, validity and undecided-terminal inspect only
//! the multiset of decisions and statuses, which pid permutations preserve;
//! the pid-specific n-DAC predicates (solo runs of `q`, Nontriviality of the
//! distinguished process) are invariant because the
//! [`lbsa_runtime::process::Symmetry`] contract makes distinguished roles
//! singleton classes — fixed by every group element — and solo extensions of
//! a canonical representative cover those of the whole orbit by
//! equivariance. Violations found on the quotient are translated back to
//! real executions by the verdict layer (see [`crate::verdict`]).

use crate::adversary::{find_nontermination, NonTerminationWitness};
use crate::config::Configuration;
use crate::explore::{ExplorationGraph, Explorer};
use lbsa_core::{Pid, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::process::{ProcStatus, Protocol};
use std::collections::HashSet;
use std::fmt;

/// Statistics of a successful check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckStats {
    /// Configurations examined.
    pub configs: usize,
    /// Transitions examined.
    pub transitions: usize,
}

/// A property violation found by a checker (or an inability to conclude).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// The exploration graph was truncated; the verdict is inconclusive.
    Truncated,
    /// More distinct values decided than the problem allows.
    Agreement {
        /// Configuration where the violation is visible.
        config: usize,
        /// The decided values.
        values: Vec<Value>,
    },
    /// A decided value that no admissible process proposed.
    Validity {
        /// Configuration where the violation is visible.
        config: usize,
        /// The offending value.
        value: Value,
    },
    /// An infinite execution in which some process steps forever without
    /// deciding.
    NonTermination(NonTerminationWitness),
    /// A terminal configuration in which some process neither decided nor
    /// (where permitted) aborted.
    UndecidedTerminal {
        /// The terminal configuration.
        config: usize,
    },
    /// A solo run of `pid` from `config` failed to terminate within the
    /// bound (n-DAC Termination (a)/(b)).
    SoloNonTermination {
        /// Starting configuration of the failing solo run.
        config: usize,
        /// The process run solo.
        pid: Pid,
    },
    /// n-DAC Nontriviality: the distinguished process aborted although no
    /// other process had taken a step.
    Nontriviality {
        /// Configuration where the abort is visible.
        config: usize,
    },
    /// A recorded front-end history admits no legal linearization.
    NotLinearizable {
        /// The object whose history cannot be linearized.
        obj: lbsa_core::ObjId,
    },
    /// The protocol itself misbehaved (spec error, bad object id).
    Runtime(RuntimeError),
    /// A violation found by a sampling sweep rather than an exhaustive
    /// graph check (see [`crate::sampling`]): tagged with the reproducing
    /// seed instead of a configuration index.
    Sampled(crate::sampling::SampleViolation),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Truncated => write!(f, "exploration truncated; verdict inconclusive"),
            Violation::Agreement { config, values } => {
                write!(f, "agreement violated in configuration {config}: decided {values:?}")
            }
            Violation::Validity { config, value } => {
                write!(f, "validity violated in configuration {config}: decided {value}")
            }
            Violation::NonTermination(w) => write!(
                f,
                "non-termination: cycle of length {} (victims: {:?})",
                w.cycle.len(),
                w.victims
            ),
            Violation::UndecidedTerminal { config } => {
                write!(f, "terminal configuration {config} leaves a process undecided")
            }
            Violation::SoloNonTermination { config, pid } => {
                write!(f, "{pid} run solo from configuration {config} does not terminate")
            }
            Violation::Nontriviality { config } => write!(
                f,
                "nontriviality violated in configuration {config}: p aborted before any other process stepped"
            ),
            Violation::NotLinearizable { obj } => {
                write!(f, "history of {obj} is not linearizable")
            }
            Violation::Runtime(e) => write!(f, "runtime error during checking: {e}"),
            Violation::Sampled(v) => write!(f, "{v}"),
        }
    }
}

impl From<RuntimeError> for Violation {
    fn from(e: RuntimeError) -> Self {
        Violation::Runtime(e)
    }
}

fn stats<L>(graph: &ExplorationGraph<L>) -> CheckStats {
    CheckStats {
        configs: graph.configs.len(),
        transitions: graph.transitions,
    }
}

/// Checks the k-set agreement properties over a complete graph:
///
/// * **k-Agreement** — at most `k` distinct values are decided in any
///   configuration,
/// * **Validity** — every decided value is in `valid_inputs`,
/// * **Wait-free termination** — no infinite execution, and every terminal
///   configuration has all processes decided.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_k_set_agreement_graph<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
    graph: &ExplorationGraph<L>,
    k: usize,
    valid_inputs: &[Value],
) -> Result<CheckStats, Violation> {
    if !graph.complete {
        return Err(Violation::Truncated);
    }
    for (idx, config) in graph.configs.iter().enumerate() {
        let decided = config.distinct_decisions();
        if decided.len() > k {
            return Err(Violation::Agreement {
                config: idx,
                values: decided,
            });
        }
        for v in &decided {
            if !valid_inputs.contains(v) {
                return Err(Violation::Validity {
                    config: idx,
                    value: *v,
                });
            }
        }
    }
    check_wait_free_graph(graph)
}

/// Checks wait-free termination alone over a complete graph: no infinite
/// execution, and every terminal configuration has all processes decided.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub(crate) fn check_wait_free_graph<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
    graph: &ExplorationGraph<L>,
) -> Result<CheckStats, Violation> {
    if !graph.complete {
        return Err(Violation::Truncated);
    }
    if let Some(w) = find_nontermination(graph) {
        return Err(Violation::NonTermination(w));
    }
    for idx in graph.terminal_indices() {
        if !graph.configs[idx].all_decided() {
            return Err(Violation::UndecidedTerminal { config: idx });
        }
    }
    Ok(stats(graph))
}

/// The n-DAC problem instance being checked (Section 4 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DacInstance {
    /// The distinguished process `p` (the only one allowed to abort).
    pub distinguished: Pid,
    /// Each process's binary input, indexed by pid.
    pub inputs: Vec<Value>,
}

/// Runs `pid` solo from `config`, following every object-outcome branch.
///
/// Returns `Ok(true)` if on **every** branch `pid` stops running within
/// `bound` of its own steps and without revisiting a configuration (a
/// revisit is a solo loop — non-termination). Stopping means deciding,
/// aborting or halting; with `must_decide` only deciding counts.
///
/// # Errors
///
/// Propagates runtime errors.
pub(crate) fn solo_terminates<P: Protocol>(
    explorer: &Explorer<'_, P>,
    config: &Configuration<P::LocalState>,
    pid: Pid,
    bound: usize,
    must_decide: bool,
) -> Result<bool, RuntimeError> {
    let mut visited: HashSet<Configuration<P::LocalState>> = HashSet::new();
    let mut stack: Vec<(Configuration<P::LocalState>, usize)> = vec![(config.clone(), 0)];
    while let Some((cfg, depth)) = stack.pop() {
        match cfg.procs.get(pid.index()) {
            Some(ProcStatus::Running(_)) => {}
            Some(ProcStatus::Decided(_)) => continue,
            // Aborted, halted or crashed: stopped, but not a decision.
            _ if must_decide => return Ok(false),
            _ => continue,
        }
        if depth >= bound {
            return Ok(false);
        }
        if !visited.insert(cfg.clone()) {
            return Ok(false); // solo loop
        }
        for succ in explorer.successors_of(&cfg, pid)? {
            stack.push((succ, depth + 1));
        }
    }
    Ok(true)
}

/// Checks all four n-DAC properties of Section 4 over every execution, on
/// the already-built exploration graph of `explorer`'s protocol:
///
/// * **Agreement** — no configuration contains two distinct decisions;
/// * **Validity** — every decided value is the input of some process that
///   has not aborted;
/// * **Termination (a)** — from every reachable configuration, `p` run solo
///   decides or aborts within `solo_bound` of its own steps;
/// * **Termination (b)** — from every reachable configuration, each `q ≠ p`
///   run solo decides within `solo_bound` of its own steps;
/// * **Nontriviality** — in no execution does `p` abort before some other
///   process has taken a step.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_dac_graph<P: Protocol>(
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
    instance: &DacInstance,
    solo_bound: usize,
) -> Result<CheckStats, Violation> {
    if !graph.complete {
        return Err(Violation::Truncated);
    }
    let p = instance.distinguished;
    let n = explorer.protocol().num_processes();

    // Agreement + Validity, per configuration.
    for (idx, config) in graph.configs.iter().enumerate() {
        let decided = config.distinct_decisions();
        if decided.len() > 1 {
            return Err(Violation::Agreement {
                config: idx,
                values: decided,
            });
        }
        for v in &decided {
            let supported =
                (0..n).any(|q| instance.inputs.get(q) == Some(v) && !config.has_aborted(Pid(q)));
            if !supported {
                return Err(Violation::Validity {
                    config: idx,
                    value: *v,
                });
            }
        }
    }

    // Termination (a) and (b): solo runs from every reachable configuration.
    for (idx, config) in graph.configs.iter().enumerate() {
        if matches!(config.procs.get(p.index()), Some(ProcStatus::Running(_)))
            && !solo_terminates(explorer, config, p, solo_bound, false)?
        {
            return Err(Violation::SoloNonTermination {
                config: idx,
                pid: p,
            });
        }
        for q in 0..n {
            let q = Pid(q);
            if q == p {
                continue;
            }
            if matches!(config.procs.get(q.index()), Some(ProcStatus::Running(_)))
                && !solo_terminates(explorer, config, q, solo_bound, true)?
            {
                return Err(Violation::SoloNonTermination {
                    config: idx,
                    pid: q,
                });
            }
        }
    }

    // Nontriviality: BFS over (configuration, has-any-other-process-stepped).
    {
        let mut seen: HashSet<(usize, bool)> = HashSet::new();
        let mut queue: Vec<(usize, bool)> = vec![(0, false)];
        seen.insert((0, false));
        while let Some((idx, others_stepped)) = queue.pop() {
            if graph.configs[idx].has_aborted(p) && !others_stepped {
                return Err(Violation::Nontriviality { config: idx });
            }
            for e in &graph.edges[idx] {
                let next_flag = others_stepped || e.pid != p;
                if seen.insert((e.target, next_flag)) {
                    queue.push((e.target, next_flag));
                }
            }
        }
    }

    Ok(stats(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Limits;
    use lbsa_core::value::int;
    use lbsa_core::{AnyObject, ObjId, Op};
    use lbsa_runtime::process::Step;

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

    /// Broken "consensus": decides a constant not among the inputs.
    #[derive(Debug)]
    struct DecideConstant;

    impl Protocol for DecideConstant {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            2
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Read)
        }
        fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
            Step::Decide(int(99))
        }
    }

    /// A process that halts without deciding.
    #[derive(Debug)]
    struct HaltsUndecided;

    impl Protocol for HaltsUndecided {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            1
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Read)
        }
        fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
            Step::Halt
        }
    }

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

    fn reg() -> Vec<AnyObject> {
        vec![AnyObject::register()]
    }

    /// Explores under `limits` and checks consensus on the graph.
    fn consensus<P: Protocol>(
        ex: &Explorer<'_, P>,
        valid: &[Value],
        limits: Limits,
    ) -> Result<CheckStats, Violation> {
        let graph = ex.exploration().limits(limits).run()?;
        check_k_set_agreement_graph(&graph, 1, valid)
    }

    #[test]
    fn good_consensus_passes() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let stats = consensus(&ex, &[int(0), int(1)], Limits::default()).unwrap();
        assert!(stats.configs >= 4);
    }

    #[test]
    fn agreement_violation_is_found() {
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let err = consensus(&ex, &[int(0), int(1)], Limits::default()).unwrap_err();
        assert!(matches!(err, Violation::Agreement { .. }), "{err}");
    }

    #[test]
    fn validity_violation_is_found() {
        let p = DecideConstant;
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let err = consensus(&ex, &[int(0), int(1)], Limits::default()).unwrap_err();
        assert!(
            matches!(
                err,
                Violation::Validity {
                    value: Value::Int(99),
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn undecided_terminal_is_found() {
        let p = HaltsUndecided;
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let err = consensus(&ex, &[int(0)], Limits::default()).unwrap_err();
        assert!(matches!(err, Violation::UndecidedTerminal { .. }), "{err}");
        let graph = ex.exploration().run().unwrap();
        assert!(matches!(
            check_wait_free_graph(&graph),
            Err(Violation::UndecidedTerminal { .. })
        ));
    }

    #[test]
    fn k_set_agreement_tolerates_k_values() {
        // DecideOwn with 2 distinct inputs violates consensus but satisfies
        // 2-set agreement.
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let graph = ex.exploration().run().unwrap();
        assert!(check_k_set_agreement_graph(&graph, 2, &[int(0), int(1)]).is_ok());
        assert!(check_k_set_agreement_graph(&graph, 1, &[int(0), int(1)]).is_err());
    }

    #[test]
    fn truncated_graph_is_inconclusive() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let err = consensus(&ex, &[int(0), int(1)], Limits::new(1)).unwrap_err();
        assert!(matches!(err, Violation::Truncated));
    }

    /// Whether `p`'s process 0 run solo from the initial configuration
    /// stops (or, with `must_decide`, decides) within 5 steps.
    fn solo<P: Protocol>(p: &P, objects: &[AnyObject], must_decide: bool) -> bool {
        let ex = Explorer::new(p, objects);
        solo_terminates(&ex, &ex.initial_config(), Pid(0), 5, must_decide).unwrap()
    }

    fn check_solo_cases(cases: &[(&str, bool, bool)]) {
        for &(what, got, want) in cases {
            assert_eq!(got, want, "{what}");
        }
    }

    #[test]
    fn solo_termination_helpers() {
        let good = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let consensus = vec![AnyObject::consensus(2).unwrap()];
        check_solo_cases(&[
            ("decides", solo(&good, &consensus, false), true),
            ("decides, must decide", solo(&good, &consensus, true), true),
            ("halts", solo(&HaltsUndecided, &reg(), false), true),
            (
                "halting is not deciding",
                solo(&HaltsUndecided, &reg(), true),
                false,
            ),
        ]);
    }

    #[test]
    fn solo_loop_is_detected() {
        check_solo_cases(&[
            ("solo loop", solo(&Spin, &reg(), false), false),
            ("solo loop, must decide", solo(&Spin, &reg(), true), false),
        ]);
    }

    #[test]
    fn violation_display_forms() {
        let cases: Vec<Violation> = vec![
            Violation::Truncated,
            Violation::Agreement {
                config: 1,
                values: vec![int(0), int(1)],
            },
            Violation::Validity {
                config: 2,
                value: int(9),
            },
            Violation::UndecidedTerminal { config: 3 },
            Violation::SoloNonTermination {
                config: 4,
                pid: Pid(1),
            },
            Violation::Nontriviality { config: 5 },
            Violation::Runtime(RuntimeError::NoProcesses),
        ];
        for v in cases {
            assert!(!v.to_string().is_empty());
        }
    }
}
