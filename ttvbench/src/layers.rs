//! The traced run: per-layer numbers, timed from the benchmark's own code
//! around calls into each layer's public functions, on the inputs of the
//! untraced run.
//!
//! It alternates untraced checks with traced ones (the program's `Tracer`
//! and `Registry` attached, which is what fills the engine's
//! canonicalization phase time), then replays one exhaustive graph layer
//! by layer: `Explorer::successors_of` over every expanded configuration,
//! orbit canonicalization of every successor, `Interner::intern` over
//! their components, and the dedup index. The sampling workload replays
//! `Explorer::step` along the sweep's seeded schedules instead.

use std::sync::Arc;
use std::time::Instant;

use lbsa_core::{AnyState, Pid, Value};
use lbsa_explorer::checker::check_k_set_agreement_graph;
use lbsa_explorer::intern::{CompactConfig, ConcurrentIndex, Interner, ShardedIndex};
use lbsa_explorer::{
    ConfigSymmetry, ExplorationGraph, ExploreStats, Explorer, MemorySink, Registry, SampleConfig,
    Tracer,
};
use lbsa_runtime::process::{ProcStatus, Protocol};
use lbsa_runtime::scheduler::{RandomScheduler, Scheduler};

use crate::host;
use crate::spans::Spans;
use crate::workload::{check_dac, each_sweep, matches, Instance, Observed, Pin, ERROR};

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("step.calls", "count"),
    ("step.succs", "count"),
    ("step.self_s", "s"),
    ("step.ns_per_succ", "ns"),
    ("intern.self_s", "s"),
    ("intern.hit_ratio", "ratio"),
    ("index.self_s", "s"),
    ("index.hit_ratio", "ratio"),
    ("mem.interner_bytes", "bytes"),
    ("mem.index_bytes", "bytes"),
    ("mem.bytes_per_state", "bytes"),
    ("canon.calls", "count"),
    ("canon.fast_ratio", "ratio"),
    ("canon.full_calls", "count"),
    ("canon.self_s", "s"),
    ("check.self_s", "s"),
    ("explore.s", "s"),
    ("explore.configs", "count"),
    ("explore.transitions", "count"),
    ("explore.configs_per_s", "1/s"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.memo_hit_ratio", "ratio"),
    ("explore.expand_s", "s"),
    ("explore.canonicalize_s", "s"),
    ("verdict.overhead_s", "s"),
    ("ws.busy_s", "s"),
    ("ws.idle_s", "s"),
    ("ws.parked_s", "s"),
    ("ws.utilization", "ratio"),
    ("ws.steals", "count"),
    ("ws.steal_ratio", "ratio"),
    ("ws.parks", "count"),
    ("ws.local_hits", "count"),
    ("ws.index_batch_hits", "count"),
    ("ws.imbalance", "ratio"),
    ("sample.runs", "count"),
    ("sample.steps", "count"),
    ("sample.steps_per_s", "1/s"),
    ("sample.quiescent_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Configurations expanded per replay span.
const CHUNK: usize = 256;
/// Sampling runs replayed per span.
const RUN_CHUNK: u64 = 100;

/// What a traced run measured. `metrics` holds every [`PER_LAYER`] name.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Median wall seconds of the untraced and traced checks.
    pub check_s: f64,
    pub traced_check_s: f64,
    pub spans: Spans,
}

/// Counts gathered while replaying the layers.
#[derive(Default)]
struct Replay {
    step_calls: u64,
    succs: u64,
    probes: u64,
    probe_hits: u64,
    intern_hits: u64,
    intern_lookups: u64,
    interner_bytes: usize,
    index_bytes: usize,
    states: usize,
    canon_calls: u64,
    canon_fast: u64,
    canon_full: u64,
    quiescent: u64,
}

/// Alternates untraced and traced checks for `seconds`, then replays the
/// layers once. `first` is the run's warm-up observation.
pub fn run(inst: &Instance, pin: &Pin, first: &Observed, seconds: f64) -> Traced {
    let mut spans = Spans::on();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut explore_stats: Vec<ExploreStats> = Vec::new();
    let mut outside_explore = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    let begun = Instant::now();
    while plain.len() < 3 || begun.elapsed().as_secs_f64() < seconds {
        let (seen, wall, _) = host::timed(|| inst.check());
        tally(matches(pin, first, &seen));
        plain.push(wall);

        spans.enter("check");
        let (seen, stats) = traced_check(inst, &mut spans);
        let wall = spans.exit();
        traced.push(wall);
        tally(matches(pin, first, &seen));
        if let Some(stats) = stats {
            outside_explore.push(wall - stats.elapsed.as_secs_f64());
            explore_stats.push(stats);
        }
    }
    let check_s = median(&plain);
    let traced_check_s = median(&traced);

    spans.enter("replay");
    let replay = match inst {
        Instance::Kset {
            protocol,
            objects,
            frontier,
            threads,
            ..
        } => {
            let explorer = Explorer::new(protocol, objects);
            let graph = explorer
                .exploration()
                .threads(*threads)
                .frontier(*frontier)
                .run()
                .expect("k-set exploration");
            let concurrent = matches!(frontier, lbsa_explorer::Frontier::WorkStealing);
            let r = replay_graph(&explorer, &graph, None, concurrent, &mut spans);
            tally(r.states == graph.configs.len() && r.succs == graph.transitions as u64);
            r
        }
        Instance::Dac {
            protocol,
            objects,
            instance,
            solo_bound,
            ..
        } => {
            let explorer = Explorer::new(protocol, objects);
            let (_, graph) = check_dac(
                &explorer,
                explorer.exploration(),
                instance,
                *solo_bound,
                &mut Spans::off(),
            );
            let graph = graph.expect("n-DAC exploration");
            let sym = ConfigSymmetry::of(protocol);
            let r = replay_graph(&explorer, &graph, Some(&sym), false, &mut spans);
            tally(r.states == graph.configs.len() && r.succs == graph.transitions as u64);
            r
        }
        Instance::Vote { sweeps } => {
            let mut r = Replay::default();
            for sweep in sweeps {
                let explorer = Explorer::new(&sweep.protocol, &sweep.objects);
                replay_schedules(&explorer, &sweep.config, &mut r, &mut spans);
            }
            tally(r.succs == first.transitions as u64 && r.quiescent == first.quiescent);
            r
        }
    };
    spans.exit();

    let metrics = layer_metrics(
        &replay,
        &spans,
        &explore_stats,
        first,
        check_s,
        traced_check_s,
        median(&outside_explore),
        traced.len(),
    );
    Traced {
        metrics,
        attempted,
        failed,
        check_s,
        traced_check_s,
        spans,
    }
}

fn tracer() -> Tracer {
    Tracer::new(MemorySink::new())
}

/// One check with the program's tracer and registry attached, split into
/// `explore` and `graph_check` spans for the exhaustive workloads.
fn traced_check(inst: &Instance, spans: &mut Spans) -> (Observed, Option<ExploreStats>) {
    match inst {
        Instance::Kset {
            protocol,
            objects,
            inputs,
            frontier,
            threads,
        } => {
            let explorer = Explorer::new(protocol, objects);
            let graph = spans.time("explore", || {
                explorer
                    .exploration()
                    .threads(*threads)
                    .frontier(*frontier)
                    .trace(tracer())
                    .registry(Registry::new())
                    .run()
            });
            let Ok(mut graph) = graph else {
                return (ERROR, None);
            };
            let checked = spans.time("graph_check", || {
                check_k_set_agreement_graph(&graph, 2, inputs)
            });
            let seen = match checked {
                Ok(s) => Observed {
                    outcome: "holds",
                    configs: s.configs,
                    transitions: s.transitions,
                    quiescent: 0,
                },
                Err(_) => Observed {
                    outcome: "violated",
                    ..ERROR
                },
            };
            (seen, Some(std::mem::take(&mut graph.stats)))
        }
        Instance::Dac {
            protocol,
            objects,
            instance,
            solo_bound,
            ..
        } => {
            let explorer = Explorer::new(protocol, objects);
            let builder = explorer
                .exploration()
                .trace(tracer())
                .registry(Registry::new());
            let (seen, graph) = check_dac(&explorer, builder, instance, *solo_bound, spans);
            (seen, graph.map(|g| g.stats))
        }
        Instance::Vote { sweeps } => {
            let seen = spans.time("sample", || {
                each_sweep(sweeps, |explorer, config| {
                    let verdict = explorer
                        .exploration()
                        .sample(*config)
                        .trace(tracer())
                        .registry(Registry::new())
                        .check_consensus(&[Value::Int(1)]);
                    Observed::of(&verdict)
                })
            });
            (seen, None)
        }
    }
}

/// The two dedup indexes the engines use: level-sync BFS probes a
/// `ShardedIndex`, work-stealing claims keys in a `ConcurrentIndex`.
enum Index {
    Seq(ShardedIndex, u32),
    Concurrent(Box<ConcurrentIndex>, Vec<(u32, bool)>),
}

impl Index {
    /// Probes (and inserts on a miss) one configuration's successor keys;
    /// returns the number of hits.
    fn add(&mut self, keys: &[CompactConfig]) -> u64 {
        match self {
            Index::Seq(index, next) => {
                let mut hits = 0;
                for key in keys {
                    if index.probe(key).is_some() {
                        hits += 1;
                    } else {
                        index.insert(Arc::clone(key), *next);
                        *next += 1;
                    }
                }
                hits
            }
            Index::Concurrent(index, results) => index.get_or_insert_batch(keys, results),
        }
    }

    fn len(&self) -> usize {
        match self {
            Index::Seq(index, _) => index.len(),
            Index::Concurrent(index, _) => index.len(),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            Index::Seq(index, _) => index.approx_bytes(),
            Index::Concurrent(index, _) => index.approx_bytes(),
        }
    }
}

/// Replays an exhaustive graph layer by layer, `CHUNK` expanded
/// configurations per `expand` span: all their successors (`step`), their
/// orbit representatives (`canon`, symmetric workloads only), their
/// interned keys (`intern`) and the dedup index (`index`).
fn replay_graph<P: Protocol>(
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    concurrent: bool,
    spans: &mut Spans,
) -> Replay {
    let states: Interner<AnyState> = Interner::new();
    let procs: Interner<ProcStatus<P::LocalState>> = Interner::new();
    let compact = |c: &lbsa_explorer::Configuration<P::LocalState>| -> CompactConfig {
        c.object_states
            .iter()
            .map(|s| states.intern(s))
            .chain(c.procs.iter().map(|p| procs.intern(p)))
            .collect()
    };
    let mut index = if concurrent {
        Index::Concurrent(Box::default(), Vec::new())
    } else {
        Index::Seq(ShardedIndex::new(), 0)
    };
    let mut r = Replay::default();
    index.add(&[compact(&graph.configs[0])]);
    let expanded: Vec<usize> = (0..graph.len()).filter(|&i| graph.expanded[i]).collect();
    for chunk in expanded.chunks(CHUNK) {
        spans.enter("expand");
        let succs: Vec<Vec<_>> = spans.time("step", || {
            chunk
                .iter()
                .map(|&i| {
                    let config = &graph.configs[i];
                    let mut out = Vec::new();
                    for pid in config.enabled_pids() {
                        r.step_calls += 1;
                        out.extend(explorer.successors_of(config, pid).expect("replayed step"));
                    }
                    out
                })
                .collect()
        });
        r.succs += succs.iter().map(|s| s.len() as u64).sum::<u64>();
        let succs = match sym {
            Some(sym) => spans.time("canon", || {
                succs
                    .iter()
                    .map(|group| {
                        group
                            .iter()
                            .map(|c| sym.canonicalize_incremental(c))
                            .collect()
                    })
                    .collect()
            }),
            None => succs,
        };
        let keys: Vec<Vec<CompactConfig>> = spans.time("intern", || {
            succs
                .iter()
                .map(|group| group.iter().map(compact).collect())
                .collect()
        });
        spans.time("index", || {
            for group in &keys {
                r.probes += group.len() as u64;
                r.probe_hits += index.add(group);
            }
        });
        spans.exit();
    }
    if let Some(sym) = sym {
        r.canon_calls = sym.canon_calls();
        r.canon_fast = sym.canon_fast_hits();
        r.canon_full = sym.canon_full_calls();
    }
    r.intern_hits = states.hits() + procs.hits();
    r.intern_lookups = r.intern_hits + states.misses() + procs.misses();
    r.interner_bytes = states.approx_bytes() + procs.approx_bytes();
    r.index_bytes = index.approx_bytes();
    r.states = index.len();
    r
}

/// Replays one sampling sweep's schedules with `Explorer::step`: run
/// `seed` draws its process order from `RandomScheduler::seeded(seed)`,
/// exactly as the sweep does. Every vote-propagation object is a register
/// with one outcome per step, so outcome 0 is the one the sweep's seeded
/// resolver picks; the step and quiescence counts are checked against the
/// sweep's to confirm the schedules match.
fn replay_schedules<P: Protocol>(
    explorer: &Explorer<'_, P>,
    config: &SampleConfig,
    r: &mut Replay,
    spans: &mut Spans,
) {
    let mut offset = 0;
    while offset < config.runs {
        let end = (offset + RUN_CHUNK).min(config.runs);
        spans.time("step", || {
            for seed in config.seed0 + offset..config.seed0 + end {
                let mut scheduler = RandomScheduler::seeded(seed);
                let mut c = explorer.initial_config();
                let mut steps = 0;
                loop {
                    let enabled: Vec<Pid> = c.enabled_pids();
                    if enabled.is_empty() {
                        r.quiescent += 1;
                        break;
                    }
                    if steps >= config.max_steps {
                        break;
                    }
                    let pid = scheduler.next_pid(&enabled).expect("random scheduler");
                    c = explorer.step(&c, pid, 0).expect("replayed step").config;
                    steps += 1;
                }
                r.step_calls += steps as u64;
                r.succs += steps as u64;
            }
        });
        offset = end;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    r: &Replay,
    spans: &Spans,
    stats: &[ExploreStats],
    first: &Observed,
    check_s: f64,
    traced_check_s: f64,
    outside_explore_s: f64,
    traced_checks: usize,
) -> Vec<(&'static str, f64)> {
    let per = |f: &dyn Fn(&ExploreStats) -> f64| -> f64 {
        median(&stats.iter().map(f).collect::<Vec<_>>())
    };
    let last = stats.last().cloned().unwrap_or_default();
    let explore_s = per(&|s| s.elapsed.as_secs_f64());
    let sum_workers = |f: &dyn Fn(&lbsa_explorer::WorkerStats) -> f64| -> f64 {
        last.workers.iter().map(f).fold(0.0, |a, b| a + b)
    };
    let busy = sum_workers(&|w| w.busy.as_secs_f64());
    let idle = sum_workers(&|w| w.idle.as_secs_f64());
    let parked = sum_workers(&|w| w.parked.as_secs_f64());
    let step_self = spans.self_s("step");
    let graph_check = spans.self_s("graph_check") / traced_checks.max(1) as f64;
    let sampling = stats.is_empty();
    let (runs, steps) = if sampling {
        (first.configs as f64, first.transitions as f64)
    } else {
        (0.0, 0.0)
    };
    let values = [
        r.step_calls as f64,
        r.succs as f64,
        step_self,
        ratio(step_self * 1e9, r.succs as f64),
        spans.self_s("intern"),
        ratio(r.intern_hits as f64, r.intern_lookups as f64),
        spans.self_s("index"),
        ratio(r.probe_hits as f64, r.probes as f64),
        r.interner_bytes as f64,
        r.index_bytes as f64,
        ratio((r.interner_bytes + r.index_bytes) as f64, r.states as f64),
        r.canon_calls as f64,
        ratio(r.canon_fast as f64, r.canon_calls as f64),
        r.canon_full as f64,
        spans.self_s("canon"),
        graph_check,
        explore_s,
        last.configs as f64,
        last.transitions as f64,
        ratio(last.configs as f64, explore_s),
        ratio(last.dedup_hits as f64, last.transitions as f64),
        ratio(
            last.memo_hits as f64,
            (last.memo_hits + last.memo_misses) as f64,
        ),
        per(&|s| s.phases.expand.as_secs_f64()),
        per(&|s| s.phases.canonicalize.as_secs_f64()),
        outside_explore_s,
        busy,
        idle,
        parked,
        ratio(busy, busy + idle + parked),
        last.steals as f64,
        ratio(last.steals as f64, (last.steals + last.steal_fails) as f64),
        last.park_count as f64,
        last.local_hits as f64,
        last.index_batch_hits as f64,
        if last.workers.is_empty() {
            0.0
        } else {
            last.worker_imbalance()
        },
        runs,
        steps,
        ratio(steps, traced_check_s),
        ratio(first.quiescent as f64, runs),
        ratio(traced_check_s, check_s),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, _), v)| (name, v))
        .collect()
}
