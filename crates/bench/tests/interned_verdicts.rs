//! The `check_*` terminals decide k-set agreement and wait-freedom on the
//! engine's interned graph; the n-DAC check runs on the materialized one.
//! This test holds every terminal to the materialized path it replaced:
//! for every protocol catalogued in `common/catalog.rs`, raw and
//! symmetry-reduced, complete and truncated, the terminal's verdict must
//! equal what `Exploration::run` plus the public graph predicates
//! (`check_k_set_agreement_graph`, `check_dac_graph`, `find_nontermination`)
//! give on the same options: the same outcome, the same `Violation` with
//! the same configuration index, the same stats, and a witness whose
//! schedule and cycle are the ones the materialized graph yields — the
//! shortest confirming prefix of the BFS path to the violating
//! configuration, or the shorter prefix to the cycle entry and the cycle,
//! de-canonicalized on a reduced graph. Every witness must `confirm()`.
//! Only the deterministic frontier numbers nodes reproducibly, so only it
//! is compared.

#[path = "common/catalog.rs"]
mod catalog;

use catalog::{terminal, Check, Visit};
use lbsa_explorer::adversary::find_nontermination;
use lbsa_explorer::checker::{check_dac_graph, check_k_set_agreement_graph, CheckStats, Violation};
use lbsa_explorer::explore::Edge;
use lbsa_explorer::verdict::{Outcome, ScheduleStep, Witness, WitnessKind};
use lbsa_explorer::{Concretizer, ConfigSymmetry, ExplorationGraph, Explorer, Limits, Verdict};
use lbsa_runtime::process::{Protocol, Symmetry};
use lbsa_runtime::trace::Trace;

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
            if let Some(w) = find_nontermination(g) {
                return Err(Violation::NonTermination(w));
            }
            match g.terminal_indices().find(|&i| !g.configs[i].all_decided()) {
                Some(config) => Err(Violation::UndecidedTerminal { config }),
                None => Ok(graph_stats(g)),
            }
        }
    }
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

/// The schedule and cycle the materialized graph `g` gives for
/// `violation`, whose witness kind is `kind`.
fn expected_witness<P: Protocol>(
    ex: &Explorer<'_, P>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    g: &ExplorationGraph<P::LocalState>,
    violation: &Violation,
    kind: &WitnessKind,
) -> (Vec<ScheduleStep>, Vec<ScheduleStep>) {
    if let Violation::NonTermination(w) = violation {
        let mut entry = 0;
        for e in &w.prefix {
            let edges = &g.edges[entry];
            entry = edges
                .iter()
                .find(|f| (f.pid, f.outcome) == (e.pid, e.outcome))
                .expect("the prefix is a path of the graph")
                .target;
        }
        let shortest = g.path_to(entry).expect("the cycle entry is reachable");
        let prefix = if shortest.len() <= w.prefix.len() {
            shortest
        } else {
            w.prefix.clone()
        };
        return match sym {
            None => (steps(&prefix), steps(&w.cycle)),
            Some(sym) => pump(ex, sym, &steps(&prefix), &steps(&w.cycle)),
        };
    }
    let config = match violation {
        Violation::Agreement { config, .. }
        | Violation::Validity { config, .. }
        | Violation::UndecidedTerminal { config }
        | Violation::SoloNonTermination { config, .. } => *config,
        other => panic!("no path witness for {other}"),
    };
    let path = steps(&g.path_to(config).expect("violations are reachable"));
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
