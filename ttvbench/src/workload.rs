//! The four workloads, their inputs, and the verdicts and counts pinned for
//! them. Every check goes through the program's public checking API.

use lbsa_core::{AnyObject, ObjId, Pid, Value};
use lbsa_explorer::checker::{check_dac_graph, DacInstance};
use lbsa_explorer::{
    ConfigSymmetry, Exploration, ExplorationGraph, Explorer, Frontier, SampleConfig, Verdict,
};
use lbsa_protocols::dac::{DacFromPac, DacPhase};
use lbsa_protocols::set_agreement_protocols::KSetViaStrongSa;
use lbsa_protocols::vote_propagation::VotePropagation;

use crate::spans::Spans;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// k-set agreement (k = 2) over one strong 2-SA object, one thread.
    KsetSeq,
    /// n-DAC from PAC(n), symmetry-reduced, one thread.
    DacSym,
    /// Seeded sampling of F8 vote propagation, one thread.
    Vote,
    /// The `KsetSeq` instance on the work-stealing frontier at 2 threads.
    KsetWs2,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::KsetSeq, Kind::DacSym, Kind::Vote, Kind::KsetWs2];

    pub fn name(self) -> &'static str {
        match self {
            Kind::KsetSeq => "kset_n9_seq",
            Kind::DacSym => "t2_dac_n8_sym",
            Kind::Vote => "vote_sampling",
            Kind::KsetWs2 => "kset_n9_ws2",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The engine thread count pinned for this workload.
    pub fn threads(self) -> usize {
        match self {
            Kind::KsetWs2 => 2,
            _ => 1,
        }
    }

    /// Whether `--seed` changes the inputs. The exhaustive workloads have
    /// no random input.
    pub fn seeded(self) -> bool {
        self == Kind::Vote
    }
}

/// Instance sizes: [`FULL`] for measurement, [`TOY`] for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub kset_n: usize,
    pub dac_n: usize,
    /// Schedules per vote check, split evenly over `vote_topologies`.
    pub vote_runs: u64,
    pub vote_topologies: u64,
}

/// One vote topology's step count moves by about ±8% from seed to seed;
/// spreading a check's schedules over fifty topologies keeps its work
/// within about ±2% on every seed.
pub const FULL: Size = Size {
    kset_n: 9,
    dac_n: 8,
    vote_runs: 5_000,
    vote_topologies: 50,
};

#[cfg(test)]
pub const TOY: Size = Size {
    kset_n: 4,
    dac_n: 4,
    vote_runs: 20,
    vote_topologies: 2,
};

/// Vote-propagation shape (F8): nodes, out-degree, starters, and the
/// bidirectional-edge probability as a fraction.
const VOTE_SHAPE: (usize, usize, usize, u64, u64) = (10, 2, 3, 1, 2);
const VOTE_MAX_STEPS: usize = 100_000;

/// What one check concluded, in the program's own counts. For sampling,
/// `configs` is the number of runs and `transitions` the total steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observed {
    pub outcome: &'static str,
    pub configs: usize,
    pub transitions: usize,
    pub quiescent: u64,
}

/// What a check that could not explore reports.
pub const ERROR: Observed = Observed {
    outcome: "error",
    configs: 0,
    transitions: 0,
    quiescent: 0,
};

impl Observed {
    /// Two sweeps' observations as one: counts add up, and the outcome is
    /// kept only when both agree.
    fn and(self, other: Observed) -> Observed {
        Observed {
            outcome: if self.outcome == other.outcome {
                self.outcome
            } else {
                "mixed"
            },
            configs: self.configs + other.configs,
            transitions: self.transitions + other.transitions,
            quiescent: self.quiescent + other.quiescent,
        }
    }

    pub fn of(verdict: &Verdict) -> Observed {
        let quiescent = match verdict.outcome {
            lbsa_explorer::Outcome::HoldsSampled { quiescent, .. } => quiescent,
            _ => 0,
        };
        Observed {
            outcome: verdict.outcome.tag(),
            configs: verdict.stats.configs,
            transitions: verdict.stats.transitions,
            quiescent,
        }
    }
}

/// The verdict and counts a check must report. `transitions: None` means
/// "whatever the first check of the run reported, every time".
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    pub outcome: &'static str,
    pub configs: usize,
    pub transitions: Option<usize>,
}

/// The pinned result of `kind` at `size`. The work-stealing workload must
/// agree with the sequential one exactly.
pub fn pin(kind: Kind, size: Size, seed: u64) -> Pin {
    let exhaustive = |configs, transitions| Pin {
        outcome: "holds",
        configs,
        transitions: Some(transitions),
    };
    match (kind, size.kset_n, size.dac_n) {
        (Kind::KsetSeq | Kind::KsetWs2, 9, _) => exhaustive(236_206, 1_102_401),
        (Kind::KsetSeq | Kind::KsetWs2, 4, _) => exhaustive(167, 244),
        (Kind::DacSym, _, 8) => exhaustive(339, 1_751),
        (Kind::DacSym, _, 4) => exhaustive(81, 203),
        (Kind::Vote, _, _) => Pin {
            outcome: "holds-sampled",
            configs: usize::try_from(size.vote_runs).expect("run count fits usize"),
            transitions: (size.vote_runs == FULL.vote_runs && seed == 42).then_some(856_629),
        },
        _ => panic!("no pinned result for {} at {size:?}", kind.name()),
    }
}

/// `true` when `seen` matches the pin, and equals the run's first check.
pub fn matches(pin: &Pin, first: &Observed, seen: &Observed) -> bool {
    seen.outcome == pin.outcome
        && seen.configs == pin.configs
        && pin.transitions.is_none_or(|t| seen.transitions == t)
        && seen == first
}

/// One workload's inputs, built once per set-up.
pub enum Instance {
    Kset {
        protocol: KSetViaStrongSa,
        objects: Vec<AnyObject>,
        inputs: Vec<Value>,
        frontier: Frontier,
        threads: usize,
    },
    Dac {
        protocol: DacFromPac,
        objects: Vec<AnyObject>,
        instance: DacInstance,
        solo_bound: usize,
        group_order: usize,
    },
    Vote {
        sweeps: Vec<Sweep>,
    },
}

/// One vote topology, its mailboxes, and the slice of the check's
/// schedules it runs.
pub struct Sweep {
    pub protocol: VotePropagation,
    pub objects: Vec<AnyObject>,
    pub config: SampleConfig,
}

/// Runs `check` on every sweep of a vote check and sums the results.
pub fn each_sweep(
    sweeps: &[Sweep],
    mut check: impl FnMut(&Explorer<'_, VotePropagation>, &SampleConfig) -> Observed,
) -> Observed {
    sweeps
        .iter()
        .map(|s| check(&Explorer::new(&s.protocol, &s.objects), &s.config))
        .reduce(Observed::and)
        .unwrap_or(ERROR)
}

impl Instance {
    /// Builds the inputs of `kind` at `size`. `seed` picks the vote
    /// topologies (`seed × topologies + j`) and each one's schedule seeds, so two
    /// benchmark seeds never share a topology or a schedule.
    pub fn build(kind: Kind, size: Size, seed: u64) -> Instance {
        match kind {
            Kind::KsetSeq | Kind::KsetWs2 => {
                let inputs: Vec<Value> = (0..size.kset_n as i64).map(Value::Int).collect();
                Instance::Kset {
                    protocol: KSetViaStrongSa::new(inputs.clone(), ObjId(0)),
                    objects: vec![AnyObject::strong_sa()],
                    inputs,
                    frontier: if kind == Kind::KsetWs2 {
                        Frontier::WorkStealing
                    } else {
                        Frontier::Deterministic
                    },
                    threads: kind.threads(),
                }
            }
            Kind::DacSym => {
                let n = size.dac_n;
                let mut inputs = vec![Value::Int(0); n];
                inputs[0] = Value::Int(1);
                let protocol =
                    DacFromPac::new(inputs, Pid(0), ObjId(0)).expect("n-DAC needs n >= 2");
                let group_order = ConfigSymmetry::of(&protocol).group_order();
                Instance::Dac {
                    instance: protocol.instance(),
                    objects: vec![AnyObject::pac(n).expect("PAC(n) for n >= 2")],
                    protocol,
                    solo_bound: 6 * n,
                    group_order,
                }
            }
            Kind::Vote => {
                let (n, degree, starters, num, den) = VOTE_SHAPE;
                let runs = size.vote_runs / size.vote_topologies;
                let sweeps = (0..size.vote_topologies)
                    .map(|j| {
                        let topology = seed.wrapping_mul(size.vote_topologies).wrapping_add(j);
                        let protocol =
                            VotePropagation::random(n, degree, starters, num, den, topology)
                                .expect("valid vote-propagation shape");
                        Sweep {
                            objects: protocol.mailboxes(),
                            protocol,
                            config: SampleConfig {
                                runs,
                                seed0: topology.wrapping_mul(runs),
                                max_steps: VOTE_MAX_STEPS,
                                threads: 1,
                                ..SampleConfig::default()
                            },
                        }
                    })
                    .collect();
                Instance::Vote { sweeps }
            }
        }
    }

    /// One untraced check; everything it builds is dropped before it
    /// returns.
    pub fn check(&self) -> Observed {
        match self {
            Instance::Kset {
                protocol,
                objects,
                inputs,
                frontier,
                threads,
            } => {
                let explorer = Explorer::new(protocol, objects);
                let verdict = explorer
                    .exploration()
                    .threads(*threads)
                    .frontier(*frontier)
                    .check_k_set_agreement(2, inputs);
                Observed::of(&verdict)
            }
            Instance::Dac {
                protocol,
                objects,
                instance,
                solo_bound,
                ..
            } => {
                let explorer = Explorer::new(protocol, objects);
                let (seen, _graph) = check_dac(
                    &explorer,
                    explorer.exploration(),
                    instance,
                    *solo_bound,
                    &mut Spans::off(),
                );
                seen
            }
            Instance::Vote { sweeps } => each_sweep(sweeps, |explorer, config| {
                let verdict = explorer
                    .exploration()
                    .sample(*config)
                    .check_consensus(&[Value::Int(1)]);
                Observed::of(&verdict)
            }),
        }
    }
}

/// The benchmark's one n-DAC call site. The builder has no `check_dac`
/// terminal, so the check is a symmetric one-thread exploration followed
/// by `check_dac_graph` on its graph. `builder` carries any tracer or
/// registry the caller attached; `spans` times the two phases.
pub fn check_dac<'e, 'a>(
    explorer: &'e Explorer<'a, DacFromPac>,
    builder: Exploration<'e, 'a, DacFromPac>,
    instance: &DacInstance,
    solo_bound: usize,
    spans: &mut Spans,
) -> (Observed, Option<ExplorationGraph<DacPhase>>) {
    let graph = spans.time("explore", || builder.threads(1).symmetric().run());
    let Ok(graph) = graph else {
        return (ERROR, None);
    };
    let checked = spans.time("graph_check", || {
        check_dac_graph(explorer, &graph, instance, solo_bound)
    });
    let seen = match checked {
        Ok(stats) => Observed {
            outcome: "holds",
            configs: stats.configs,
            transitions: stats.transitions,
            quiescent: 0,
        },
        Err(_) => Observed {
            outcome: "violated",
            ..ERROR
        },
    };
    (seen, Some(graph))
}
