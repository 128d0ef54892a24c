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

use crate::config::Configuration;
use crate::explore::{Edge, ExplorationGraph, Explorer};
use crate::graph::{bfs_path, first_cycle, GraphView, StatusEntry};
use lbsa_core::{Pid, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::process::{ProcStatus, Protocol};
use std::collections::HashSet;
use std::fmt;
use std::time::{Duration, Instant};

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
    /// deciding: a reachable cycle. Every process that steps on it steps
    /// forever when the cycle is pumped, and none of them has decided,
    /// because decisions are absorbing.
    NonTermination {
        /// The cycle's entry configuration.
        config: usize,
        /// The cycle's edges, from the entry back to it.
        cycle: Vec<Edge>,
    },
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
            Violation::NonTermination { cycle, .. } => {
                let mut victims: Vec<Pid> = cycle.iter().map(|e| e.pid).collect();
                victims.sort_unstable();
                victims.dedup();
                write!(
                    f,
                    "non-termination: cycle of length {} (victims: {victims:?})",
                    cycle.len()
                )
            }
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
    check_k_set_agreement_in(&graph.view(), k, valid_inputs, &mut CheckTimes::default())
}

/// Wall time a graph check spent in each of its passes over the graph.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CheckTimes {
    /// The pass over the key rows: agreement, validity, undecided
    /// terminals.
    pub(crate) scan: Duration,
    /// The back-edge pass and any cycle search.
    pub(crate) cycle: Duration,
}

/// One pass over `graph`'s rows in node order, reading each status
/// through the graph's status table. A node breaks agreement if its
/// processes decided more than `k` distinct values, and validity if
/// `valid(node, rank)` rejects one of them; only ranks `doubtful` admits
/// are put to `valid`, the others are valid everywhere. The pass stops at
/// the first node that breaks either and reports agreement first, validity
/// with the smallest invalid value. Otherwise it returns the first terminal
/// node where some process has not decided.
///
/// Each status counts at its rank's slot of a stamp array, an undecided
/// one at a slot past the ranks, so a node's distinct values, whether all
/// its processes decided and whether one runs come out of the same loop
/// without a branch per status.
fn scan_rows<G: GraphView>(
    graph: &G,
    k: usize,
    doubtful: impl Fn(u32) -> bool,
    valid: impl Fn(usize, u32) -> bool,
) -> Result<Option<usize>, Violation> {
    let values = graph.status_table().values();
    let undecided_slot = values.len();
    let doubtful: Vec<bool> = (0..undecided_slot)
        .map(|rank| doubtful(rank as u32))
        .chain([false])
        .collect();
    // `seen[slot] == node + 1` once `slot` has been counted at `node`.
    let mut seen = vec![0usize; undecided_slot + 1];
    let mut undecided = None;
    for node in 0..graph.node_count() {
        let stamp = node + 1;
        let (mut slots, mut running, mut in_doubt) = (0, false, false);
        for status in graph.statuses(node) {
            let slot = status.slot(undecided_slot);
            slots += usize::from(seen[slot] != stamp);
            seen[slot] = stamp;
            running |= status.running;
            in_doubt |= doubtful[slot];
        }
        let all_decided = seen[undecided_slot] != stamp;
        if slots - usize::from(!all_decided) > k {
            let mut ranks: Vec<u32> = graph.statuses(node).filter_map(StatusEntry::rank).collect();
            ranks.sort_unstable();
            ranks.dedup();
            return Err(Violation::Agreement {
                config: node,
                values: ranks.iter().map(|&r| values[r as usize]).collect(),
            });
        }
        if in_doubt {
            let invalid = graph
                .statuses(node)
                .filter_map(StatusEntry::rank)
                .filter(|&r| doubtful[r as usize] && !valid(node, r))
                .min();
            if let Some(rank) = invalid {
                return Err(Violation::Validity {
                    config: node,
                    value: values[rank as usize],
                });
            }
        }
        if undecided.is_none() && !running && !all_decided {
            undecided = Some(node);
        }
    }
    Ok(undecided)
}

/// [`check_k_set_agreement_graph`] over any [`GraphView`], in one pass over
/// the rows and one over the edges; `times` receives the time of each.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub(crate) fn check_k_set_agreement_in<G: GraphView>(
    graph: &G,
    k: usize,
    valid_inputs: &[Value],
    times: &mut CheckTimes,
) -> Result<CheckStats, Violation> {
    if !graph.is_complete() {
        return Err(Violation::Truncated);
    }
    let started = Instant::now();
    let values = graph.status_table().values();
    let invalid = |rank: u32| !valid_inputs.contains(&values[rank as usize]);
    let scanned = scan_rows(graph, k, invalid, |_, _| false);
    times.scan = started.elapsed();
    termination(graph, scanned?, times)
}

/// Checks wait-free termination alone over a complete graph: no infinite
/// execution, and every terminal configuration has all processes decided.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub(crate) fn check_wait_free_graph<G: GraphView>(
    graph: &G,
    times: &mut CheckTimes,
) -> Result<CheckStats, Violation> {
    if !graph.is_complete() {
        return Err(Violation::Truncated);
    }
    let started = Instant::now();
    let scanned = scan_rows(graph, usize::MAX, |_| false, |_, _| true);
    times.scan = started.elapsed();
    termination(graph, scanned?, times)
}

/// Wait-free termination of a complete graph whose first undecided
/// terminal is `undecided`: a reachable cycle is reported first, then that
/// terminal.
fn termination<G: GraphView>(
    graph: &G,
    undecided: Option<usize>,
    times: &mut CheckTimes,
) -> Result<CheckStats, Violation> {
    let started = Instant::now();
    let cycle = first_cycle(graph);
    times.cycle = started.elapsed();
    if let Some((config, cycle)) = cycle {
        return Err(Violation::NonTermination { config, cycle });
    }
    if let Some(config) = undecided {
        return Err(Violation::UndecidedTerminal { config });
    }
    Ok(graph.check_stats())
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
/// `bound` of its own steps. Stopping means deciding, aborting or halting;
/// with `must_decide` only deciding counts. A solo loop never stops, so it
/// fails once it reaches the bound. Branches that meet again at the same
/// depth are followed once.
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
    let mut visited: HashSet<(Configuration<P::LocalState>, usize)> = HashSet::new();
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
        if !visited.insert((cfg.clone(), depth)) {
            continue;
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
    let config = |node: usize| graph.configs[node].clone();
    let times = &mut CheckTimes::default();
    check_dac_in(explorer, &graph.view(), config, instance, solo_bound, times)
}

/// [`check_dac_graph`] over any [`GraphView`]; `config` builds the
/// configuration of a node. Agreement and Validity are the row pass with
/// `k = 1`, whose time `times` receives; only nodes where some process
/// runs are built, as the start of their solo runs.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub(crate) fn check_dac_in<P: Protocol, G: GraphView>(
    explorer: &Explorer<'_, P>,
    graph: &G,
    mut config: impl FnMut(usize) -> Configuration<P::LocalState>,
    instance: &DacInstance,
    solo_bound: usize,
    times: &mut CheckTimes,
) -> Result<CheckStats, Violation> {
    if !graph.is_complete() {
        return Err(Violation::Truncated);
    }
    let p = instance.distinguished;

    // Agreement + Validity: a decided value must be the input of a process
    // that has not aborted in the same configuration.
    let started = Instant::now();
    let table = graph.status_table();
    let inputs: Vec<Option<u32>> = instance.inputs.iter().map(|&v| table.rank_of(v)).collect();
    let scanned = scan_rows(
        graph,
        1,
        |_| true,
        |node, rank| {
            graph
                .statuses(node)
                .zip(&inputs)
                .any(|(s, &input)| input == Some(rank) && !s.aborted)
        },
    );
    times.scan = started.elapsed();
    scanned?;

    // Termination (a) and (b): solo runs from every reachable configuration
    // where some process runs — `p` first, then each `q ≠ p` in pid order.
    for idx in 0..graph.node_count() {
        if graph.is_terminal(idx) {
            continue;
        }
        let start = config(idx);
        let others = (0..start.procs.len()).map(Pid).filter(|&q| q != p);
        for q in std::iter::once(p).chain(others) {
            if start
                .procs
                .get(q.index())
                .is_some_and(ProcStatus::is_running)
                && !solo_terminates(explorer, &start, q, solo_bound, q != p)?
            {
                return Err(Violation::SoloNonTermination {
                    config: idx,
                    pid: q,
                });
            }
        }
    }

    // Nontriviality: every execution in which `p` aborts before another
    // process steps runs along `p`'s edges alone.
    if let Some(path) = solo_abort_path(graph, p) {
        let at = path.last().map_or(0, |e| e.target);
        return Err(Violation::Nontriviality { config: at });
    }

    Ok(graph.check_stats())
}

/// The path along `p`'s own edges from the root to the first node, in
/// breadth-first order, where `p` has aborted: the shortest execution in
/// which `p` aborts before any other process has taken a step. `None` if
/// there is none.
pub(crate) fn solo_abort_path<G: GraphView>(graph: &G, p: Pid) -> Option<Vec<Edge>> {
    bfs_path(graph, |e| e.pid == p, |node| graph.has_aborted(node, p))
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

    /// One process proposes 1, 2, 3, 4 to a (4, 2)-SA object, ignores
    /// every answer, then decides 0. The object's choices split its solo
    /// run and the branches meet again, but every branch decides after
    /// four steps.
    #[derive(Debug)]
    struct SplitRejoin;

    impl Protocol for SplitRejoin {
        type LocalState = u8;
        fn num_processes(&self) -> usize {
            1
        }
        fn init(&self, _pid: Pid) -> u8 {
            0
        }
        fn pending_op(&self, _pid: Pid, s: &u8) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(int(i64::from(*s) + 1)))
        }
        fn on_response(&self, _pid: Pid, s: &u8, _r: Value) -> Step<u8> {
            match s {
                3 => Step::Decide(int(0)),
                _ => Step::Continue(s + 1),
            }
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
            check_wait_free_graph(&graph.view(), &mut CheckTimes::default()),
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
    fn solo_branches_that_rejoin_are_not_a_loop() {
        let objects = vec![AnyObject::set_agreement(4, 2).unwrap()];
        let ex = Explorer::new(&SplitRejoin, &objects);
        let start = ex.initial_config();
        assert!(!solo_terminates(&ex, &start, Pid(0), 3, true).unwrap());
        assert!(solo_terminates(&ex, &start, Pid(0), 4, true).unwrap());
        let instance = DacInstance {
            distinguished: Pid(0),
            inputs: vec![int(0)],
        };
        let graph = ex.exploration().run().unwrap();
        for bound in [4, 10] {
            assert!(check_dac_graph(&ex, &graph, &instance, bound).is_ok());
            assert!(ex.exploration().check_dac(&instance, bound).holds());
        }
        assert_eq!(
            check_dac_graph(&ex, &graph, &instance, 3),
            Err(Violation::SoloNonTermination {
                config: 0,
                pid: Pid(0)
            })
        );
    }

    /// A complete hand-built graph over processes with unit local states:
    /// node `i`'s processes have the statuses `nodes[i]`, and each
    /// `(source, pid, target)` of `edges` is a step of `pid`.
    fn hand_graph(
        nodes: Vec<Vec<ProcStatus<()>>>,
        edges: &[(usize, usize, usize)],
    ) -> ExplorationGraph<()> {
        let mut out = vec![vec![]; nodes.len()];
        for &(source, pid, target) in edges {
            out[source].push(Edge {
                pid: Pid(pid),
                outcome: 0,
                target,
            });
        }
        ExplorationGraph {
            configs: nodes
                .into_iter()
                .map(|procs| Configuration {
                    object_states: vec![],
                    procs,
                })
                .collect(),
            expanded: vec![true; out.len()],
            edges: out,
            complete: true,
            transitions: edges.len(),
            stats: crate::stats::ExploreStats::default(),
        }
    }

    fn decided(values: &[Value]) -> Vec<ProcStatus<()>> {
        values.iter().map(|&v| ProcStatus::Decided(v)).collect()
    }

    #[test]
    fn decided_values_past_the_64th_are_ranked_exactly() {
        // Node i decides i, for i < 70, along a chain; node 70 decides 1
        // and 65, whose ranks differ by 64.
        let mut nodes: Vec<_> = (0..70).map(|i| decided(&[int(i), int(i)])).collect();
        nodes.push(decided(&[int(1), int(65)]));
        let edges: Vec<_> = (0..70).map(|i| (i, 0, i + 1)).collect();
        let g = hand_graph(nodes, &edges);
        let all: Vec<Value> = (0..70).map(int).collect();
        assert_eq!(
            check_k_set_agreement_graph(&g, 1, &all),
            Err(Violation::Agreement {
                config: 70,
                values: vec![int(1), int(65)]
            })
        );
        assert!(check_k_set_agreement_graph(&g, 2, &all).is_ok());
        // Validity at node 66 comes before agreement at node 70.
        let without_66: Vec<Value> = all.iter().copied().filter(|&v| v != int(66)).collect();
        assert_eq!(
            check_k_set_agreement_graph(&g, 1, &without_66),
            Err(Violation::Validity {
                config: 66,
                value: int(66)
            })
        );
    }

    #[test]
    fn the_smallest_invalid_value_is_reported() {
        let g = hand_graph(vec![decided(&[int(9), int(0), int(7), int(9)])], &[]);
        assert_eq!(
            check_k_set_agreement_graph(&g, 3, &[int(0)]),
            Err(Violation::Validity {
                config: 0,
                value: int(7)
            })
        );
        let g = hand_graph(vec![decided(&[int(9), Value::Bot, Value::Done])], &[]);
        assert_eq!(
            check_k_set_agreement_graph(&g, 3, &[int(9)]),
            Err(Violation::Validity {
                config: 0,
                value: Value::Bot
            })
        );
    }

    #[test]
    fn agreement_values_are_sorted_and_deduplicated() {
        let statuses = [
            int(3),
            Value::Done,
            Value::Nil,
            int(-1),
            Value::Bot,
            int(3),
            Value::Nil,
        ];
        let g = hand_graph(vec![decided(&statuses)], &[]);
        let err = check_k_set_agreement_graph(&g, 1, &statuses).unwrap_err();
        let expected = vec![Value::Nil, Value::Bot, Value::Done, int(-1), int(3)];
        assert!(expected.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            err,
            Violation::Agreement {
                config: 0,
                values: expected
            }
        );
    }

    #[test]
    fn stopped_statuses_are_terminal_but_not_decided() {
        // Node 0 runs, so it is not terminal although process 1 has not
        // decided; node 1, where process 0 stopped without deciding, is.
        for stopped in [ProcStatus::Aborted, ProcStatus::Halted, ProcStatus::Crashed] {
            let nodes = vec![
                vec![ProcStatus::Running(()), ProcStatus::Decided(int(0))],
                vec![stopped.clone(), ProcStatus::Decided(int(0))],
            ];
            let g = hand_graph(nodes, &[(0, 0, 1)]);
            let expected = Err(Violation::UndecidedTerminal { config: 1 });
            assert_eq!(
                check_k_set_agreement_graph(&g, 1, &[int(0)]),
                expected,
                "{stopped:?}"
            );
            let times = &mut CheckTimes::default();
            assert_eq!(
                check_wait_free_graph(&g.view(), times),
                expected,
                "{stopped:?}"
            );
        }
        let nodes = vec![
            vec![ProcStatus::Running(()), ProcStatus::Running(())],
            decided(&[int(0), int(0)]),
        ];
        let g = hand_graph(nodes, &[(0, 0, 1)]);
        assert!(check_k_set_agreement_graph(&g, 1, &[int(0)]).is_ok());
    }

    #[test]
    fn dac_validity_counts_only_processes_that_did_not_abort() {
        // Process 0 is distinguished with input 1, process 1 has input 0;
        // every graph is one terminal node, so no solo run starts.
        let p = GoodConsensus {
            inputs: vec![int(1), int(0)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let instance = DacInstance {
            distinguished: Pid(0),
            inputs: p.inputs.clone(),
        };
        let check = |procs: Vec<ProcStatus<()>>| {
            check_dac_graph(&ex, &hand_graph(vec![procs], &[]), &instance, 4)
        };
        // 1 is the input of process 0 alone, which aborted.
        assert_eq!(
            check(vec![ProcStatus::Aborted, ProcStatus::Decided(int(1))]),
            Err(Violation::Validity {
                config: 0,
                value: int(1)
            })
        );
        // A halted or crashed process still backs its input.
        assert!(check(vec![ProcStatus::Halted, ProcStatus::Decided(int(1))]).is_ok());
        assert!(check(vec![ProcStatus::Crashed, ProcStatus::Decided(int(1))]).is_ok());
        // 0 is backed by process 1; the abort itself breaks Nontriviality.
        assert_eq!(
            check(vec![ProcStatus::Aborted, ProcStatus::Decided(int(0))]),
            Err(Violation::Nontriviality { config: 0 })
        );
        // A value no process proposed.
        assert_eq!(
            check(decided(&[int(2), int(2)])),
            Err(Violation::Validity {
                config: 0,
                value: int(2)
            })
        );
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
