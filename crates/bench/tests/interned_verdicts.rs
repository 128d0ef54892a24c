//! Every `check_*` terminal decides on the engine's interned graph. This
//! test holds each to the materialized path it replaced: for every
//! protocol catalogued in `common/catalog.rs`, raw and symmetry-reduced,
//! complete and truncated, the terminal's verdict must equal what
//! `Exploration::run` plus the public graph predicates
//! (`check_k_set_agreement_graph`, `check_dac_graph`) or, for wait-freedom,
//! a three-colour depth-first cycle search written out here give on the
//! same options: the same outcome, the same `Violation` with the same
//! configuration index (and cycle), the same stats, and a witness whose
//! schedule and cycle are the ones the materialized graph yields — the
//! shortest confirming prefix of the BFS path to the violating
//! configuration (for n-DAC Nontriviality, of the BFS path along the
//! distinguished process's own edges to its first abort), or the BFS path
//! to the cycle entry and the cycle, de-canonicalized on a reduced graph. Every witness must `confirm()`. Only the deterministic frontier
//! numbers nodes reproducibly, so only it is compared.

#[path = "common/catalog.rs"]
mod catalog;

use catalog::{terminal, Check, Visit};
use lbsa_core::Pid;
use lbsa_explorer::checker::{check_dac_graph, check_k_set_agreement_graph, CheckStats, Violation};
use lbsa_explorer::explore::Edge;
use lbsa_explorer::verdict::{Outcome, ScheduleStep, Witness, WitnessKind};
use lbsa_explorer::{Concretizer, ConfigSymmetry, ExplorationGraph, Explorer, Limits, Verdict};
use lbsa_runtime::process::{Protocol, Symmetry};
use lbsa_runtime::trace::Trace;
use std::collections::VecDeque;

/// What the materialized path concludes: the public graph predicate of
/// `check` on `g`.
fn reference<P: Protocol>(
    ex: &Explorer<'_, P>,
    g: &ExplorationGraph<P::LocalState>,
    check: Check<'_>,
) -> Result<CheckStats, Violation> {
    match check {
        Check::KSet(k, valid) => check_k_set_agreement_graph(g, k, valid),
        Check::Dac(instance, solo_bound) => check_dac_graph(ex, g, instance, solo_bound),
        Check::WaitFree => {
            if !g.complete {
                return Err(Violation::Truncated);
            }
            if let Some((config, cycle)) = first_cycle(g) {
                return Err(Violation::NonTermination { config, cycle });
            }
            match g.terminal_indices().find(|&i| !g.configs[i].all_decided()) {
                Some(config) => Err(Violation::UndecidedTerminal { config }),
                None => Ok(graph_stats(g)),
            }
        }
    }
}

/// The first cycle a three-colour depth-first search from the root closes,
/// taking each node's edges in recorded order: the cycle's entry node and
/// its edges from the entry back to it.
fn first_cycle<L>(g: &ExplorationGraph<L>) -> Option<(usize, Vec<Edge>)> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; g.len()];
    color[0] = Color::Grey;
    // `path[i]` is the edge from `stack[i]` to `stack[i + 1]`.
    let mut stack = vec![(0, 0)];
    let mut path: Vec<Edge> = vec![];
    while let Some((node, next)) = stack.last_mut() {
        let Some(&e) = g.edges[*node].get(*next) else {
            color[*node] = Color::Black;
            stack.pop();
            path.pop();
            continue;
        };
        *next += 1;
        match color[e.target] {
            Color::Grey => {
                let entry = stack
                    .iter()
                    .position(|&(v, _)| v == e.target)
                    .expect("grey nodes are on the stack");
                let mut cycle = path.split_off(entry);
                cycle.push(e);
                return Some((e.target, cycle));
            }
            Color::White => {
                color[e.target] = Color::Grey;
                stack.push((e.target, 0));
                path.push(e);
            }
            Color::Black => {}
        }
    }
    None
}

fn graph_stats<L>(g: &ExplorationGraph<L>) -> CheckStats {
    CheckStats {
        configs: g.len(),
        transitions: g.transitions,
    }
}

fn steps(edges: &[Edge]) -> Vec<ScheduleStep> {
    edges.iter().copied().map(ScheduleStep::from).collect()
}

/// Walks `schedule` on the quotient graph through a [`Concretizer`],
/// returning the real steps.
fn concretize<P: Protocol>(
    walker: &mut Concretizer<'_, '_, '_, P>,
    schedule: &[ScheduleStep],
) -> Vec<ScheduleStep> {
    schedule
        .iter()
        .map(|s| {
            let (pid, outcome) = walker.advance(s.pid, s.outcome).expect("quotient step");
            ScheduleStep { pid, outcome }
        })
        .collect()
}

/// The real prefix and cycle of a quotient cycle: laps are concretized
/// until a real configuration repeats.
fn pump<P: Protocol>(
    ex: &Explorer<'_, P>,
    sym: &ConfigSymmetry<'_, P::LocalState>,
    prefix: &[ScheduleStep],
    lap: &[ScheduleStep],
) -> (Vec<ScheduleStep>, Vec<ScheduleStep>) {
    let mut walker = Concretizer::new(ex, sym);
    let mut schedule = concretize(&mut walker, prefix);
    let mut seen = vec![walker.real().clone()];
    let mut laps: Vec<Vec<ScheduleStep>> = Vec::new();
    for _ in 0..=sym.group_order() {
        laps.push(concretize(&mut walker, lap));
        if let Some(i) = seen.iter().position(|c| c == walker.real()) {
            schedule.extend(laps[..i].concat());
            return (schedule, laps[i..].concat());
        }
        seen.push(walker.real().clone());
    }
    panic!("a real configuration repeats within |G| + 1 laps");
}

/// The path along `p`'s edges alone from the root to the first
/// configuration, in breadth-first order, where `p` has aborted.
fn solo_abort_path<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
    g: &ExplorationGraph<L>,
    p: Pid,
) -> Vec<Edge> {
    let mut paths: Vec<Option<Vec<Edge>>> = vec![None; g.len()];
    paths[0] = Some(vec![]);
    let mut queue = VecDeque::from([0]);
    while let Some(node) = queue.pop_front() {
        let path = paths[node].clone().expect("queued nodes have paths");
        if g.configs[node].has_aborted(p) {
            return path;
        }
        for e in g.edges[node].iter().filter(|e| e.pid == p) {
            if paths[e.target].is_none() {
                let mut longer = path.clone();
                longer.push(*e);
                paths[e.target] = Some(longer);
                queue.push_back(e.target);
            }
        }
    }
    panic!("{p} aborts along its own edges");
}

/// The schedule and cycle the materialized graph `g` gives for
/// `violation`, whose witness kind is `kind`.
fn expected_witness<P: Protocol>(
    ex: &Explorer<'_, P>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    g: &ExplorationGraph<P::LocalState>,
    violation: &Violation,
    kind: &WitnessKind,
) -> (Vec<ScheduleStep>, Vec<ScheduleStep>) {
    if let Violation::NonTermination { config, cycle } = violation {
        let prefix = g.path_to(*config).expect("the cycle entry is reachable");
        return match sym {
            None => (steps(&prefix), steps(cycle)),
            Some(sym) => pump(ex, sym, &steps(&prefix), &steps(cycle)),
        };
    }
    let path = match (violation, kind) {
        (Violation::Nontriviality { .. }, WitnessKind::Nontriviality { distinguished }) => {
            solo_abort_path(g, *distinguished)
        }
        (
            Violation::Agreement { config, .. }
            | Violation::Validity { config, .. }
            | Violation::UndecidedTerminal { config }
            | Violation::SoloNonTermination { config, .. },
            _,
        ) => g.path_to(*config).expect("violations are reachable"),
        (other, _) => panic!("no path witness for {other}"),
    };
    let path = steps(&path);
    let path = match sym {
        None => path,
        Some(sym) => concretize(&mut Concretizer::new(ex, sym), &path),
    };
    let confirms = |len: usize| {
        let w = Witness {
            schedule: path[..len].to_vec(),
            cycle: vec![],
            kind: kind.clone(),
            trace: Trace::new(),
            minimized: true,
        };
        w.confirm(ex).is_ok()
    };
    let len = (0..=path.len())
        .find(|&len| confirms(len))
        .expect("the path ends in a violation");
    (path[..len].to_vec(), vec![])
}

/// Asserts that `verdict`, a terminal's, equals the materialized path's
/// conclusion on `g`, built with the same options.
fn assert_same<P: Protocol>(
    what: &str,
    ex: &Explorer<'_, P>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    check: Check<'_>,
    verdict: &Verdict,
    g: &ExplorationGraph<P::LocalState>,
) {
    match reference(ex, g, check) {
        Ok(stats) => {
            assert_eq!(verdict.outcome, Outcome::Holds, "{what}");
            assert_eq!(verdict.stats, stats, "{what}");
            assert!(verdict.witness.is_none(), "{what}");
        }
        Err(Violation::Truncated) => {
            assert_eq!(verdict.outcome, Outcome::Truncated, "{what}");
            assert_eq!(verdict.stats, graph_stats(g), "{what}");
            assert!(verdict.witness.is_none(), "{what}");
        }
        Err(violation) => {
            assert_eq!(
                verdict.outcome,
                Outcome::Violated(violation.clone()),
                "{what}"
            );
            assert_eq!(verdict.stats, graph_stats(g), "{what}");
            let w = verdict
                .witness
                .as_ref()
                .expect("violations carry a witness");
            w.confirm(ex)
                .unwrap_or_else(|e| panic!("{what}: witness does not confirm: {e}"));
            let (schedule, cycle) = expected_witness(ex, sym, g, &violation, &w.kind);
            assert_eq!(w.schedule, schedule, "{what}: schedule");
            assert_eq!(w.cycle, cycle, "{what}: cycle");
            if let WitnessKind::NonTermination { victims } = &w.kind {
                let mut stepping: Vec<_> = cycle.iter().map(|s| s.pid).collect();
                stepping.sort();
                stepping.dedup();
                assert_eq!(victims, &stepping, "{what}: victims");
            }
        }
    }
}

/// Compares each catalogued case's terminal verdicts with the
/// materialized path: complete, and truncated at half and at one
/// expansion of the complete graph.
struct Differential;

impl Differential {
    fn budgets<L>(complete: &ExplorationGraph<L>) -> [Limits; 3] {
        let expanded = complete.stats.expanded;
        [Limits::default(), Limits::new(expanded / 2), Limits::new(1)]
    }
}

impl Visit for Differential {
    fn raw<P: Protocol>(&mut self, label: &str, ex: &Explorer<'_, P>, check: Check<'_>, _: &str) {
        let complete = ex.exploration().run().expect("explorable");
        for limits in Self::budgets(&complete) {
            let what = format!("{label} [raw, {} expansions]", limits.max_configs);
            let verdict = terminal(ex.exploration().limits(limits), check);
            let g = ex.exploration().limits(limits).run().expect("explorable");
            assert_same(&what, ex, None, check, &verdict, &g);
        }
    }

    fn both<P>(&mut self, label: &str, ex: &Explorer<'_, P>, check: Check<'_>, pins: &str)
    where
        P: Symmetry,
        P::LocalState: Ord,
    {
        self.raw(label, ex, check, pins);
        let sym = ConfigSymmetry::of(ex.protocol());
        let sym = (!sym.is_trivial()).then_some(&sym);
        let complete = ex.exploration().symmetric().run().expect("explorable");
        for limits in Self::budgets(&complete) {
            let what = format!("{label} [sym, {} expansions]", limits.max_configs);
            let verdict = terminal(ex.exploration().symmetric().limits(limits), check);
            let g = ex.exploration().symmetric().limits(limits).run();
            assert_same(&what, ex, sym, check, &verdict, &g.expect("explorable"));
        }
    }
}

#[test]
fn consensus_protocols_match_the_materialized_path() {
    catalog::consensus_protocols(&mut Differential);
}

#[test]
fn dac_matches_the_materialized_path() {
    catalog::dac(&mut Differential);
}

#[test]
fn set_agreement_protocols_match_the_materialized_path() {
    catalog::set_agreement_protocols(&mut Differential);
}

#[test]
fn candidates_match_the_materialized_path() {
    catalog::candidates(&mut Differential);
}
