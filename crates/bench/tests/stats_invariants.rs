//! Cross-field invariants of [`lbsa_explorer::ExploreStats`], pinned on the
//! real experiment workloads: the per-level breakdown must reconcile with
//! the aggregate counters, and the phase-time breakdown must stay within
//! the measured wall clock. These are the numbers the observability layer
//! (`metrics.explore` in the report artifacts, `summary()`) reports to
//! users — a drift between the levels and the totals would silently
//! corrupt every trace downstream.

use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, ObjId, Pid, Value};
use lbsa_explorer::{
    ExploreStats, Explorer, Frontier, Limits, MemorySink, Registry, SampleConfig, Tracer,
};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::KSetViaStrongSa;
use lbsa_support::json::Json;
use lbsa_support::obs::Event;
use std::time::Duration;

fn assert_invariants(stats: &ExploreStats, what: &str) {
    let level_width: usize = stats.levels.iter().map(|l| l.width).sum();
    assert_eq!(
        level_width, stats.expanded,
        "{what}: sum of level widths must equal expanded configs"
    );
    let level_transitions: usize = stats.levels.iter().map(|l| l.transitions).sum();
    assert_eq!(
        level_transitions, stats.transitions,
        "{what}: sum of level transitions must equal total transitions"
    );
    for (i, l) in stats.levels.iter().enumerate() {
        assert_eq!(
            l.level, i,
            "{what}: level indices must be 0..depth in order"
        );
    }
    let level_expand: Duration = stats.levels.iter().map(|l| l.expand).sum();
    assert_eq!(
        level_expand, stats.phases.expand,
        "{what}: sum of level expand times must equal the expand phase"
    );
    assert!(
        stats.phases.expand <= stats.elapsed,
        "{what}: phase breakdown ({:?}) cannot exceed wall clock ({:?})",
        stats.phases.expand,
        stats.elapsed
    );
}

#[test]
fn dac_exploration_stats_reconcile() {
    for n in [2usize, 3, 4] {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).expect("n >= 2");
        let objects = vec![AnyObject::pac(n).expect("valid")];
        let g = Explorer::new(&p, &objects)
            .exploration()
            .limits(Limits::new(1_000_000))
            .run()
            .expect("explorable");
        assert_invariants(&g.stats, &format!("dac n={n}"));
    }
}

#[test]
fn consensus_race_stats_reconcile() {
    let p = ConsensusViaObject::new(mixed_binary_inputs(4), ObjId(0));
    let objects = vec![AnyObject::consensus(4).expect("valid")];
    let g = Explorer::new(&p, &objects)
        .exploration()
        .run()
        .expect("explorable");
    assert_invariants(&g.stats, "consensus race n=4");
}

#[test]
fn reduced_exploration_stats_reconcile() {
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(4).expect("valid")];
    let g = Explorer::new(&p, &objects)
        .exploration()
        .symmetric()
        .run()
        .expect("explorable");
    assert!(g.stats.reduced, "symmetric run must set the reduced flag");
    assert_invariants(&g.stats, "dac n=4 reduced");
}

/// The work-stealing frontier has no levels — its stats reconcile through
/// the aggregate counters instead: every discovered config is either a
/// local pop or a steal, and on a complete run every transition either
/// discovered a new config or hit the dedup index.
#[test]
fn work_stealing_stats_reconcile() {
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(4).expect("valid")];
    for threads in [1usize, 2, 4] {
        let g = Explorer::new(&p, &objects)
            .exploration()
            .frontier(Frontier::WorkStealing)
            .threads(threads)
            .run()
            .expect("explorable");
        let what = format!("dac n=4 work-stealing, {threads} threads");
        let stats = &g.stats;
        assert!(
            stats.work_stealing,
            "{what}: work_stealing flag must be set"
        );
        assert!(
            stats.levels.is_empty(),
            "{what}: the barrier-free frontier has no per-level breakdown"
        );
        assert!(g.complete, "{what}: unbounded run must complete");
        assert_eq!(
            stats.expanded,
            g.configs.len(),
            "{what}: complete run expands every config"
        );
        assert_eq!(
            stats.transitions,
            stats.dedup_hits + g.configs.len() - 1,
            "{what}: every transition is a dedup hit or a discovery"
        );
        assert_eq!(
            stats.local_hits + stats.steals,
            g.configs.len() as u64,
            "{what}: every config is popped locally or stolen"
        );
        assert!(
            stats.phases.expand <= stats.elapsed,
            "{what}: phase breakdown cannot exceed wall clock"
        );
    }
}

/// Work-stealing plus symmetry reduction: the canonicalization counters
/// must account for every transition of a complete reduced run.
#[test]
fn work_stealing_reduced_stats_reconcile() {
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(4).expect("valid")];
    let g = Explorer::new(&p, &objects)
        .exploration()
        .frontier(Frontier::WorkStealing)
        .threads(2)
        .symmetric()
        .run()
        .expect("explorable");
    let stats = &g.stats;
    assert!(stats.reduced && stats.work_stealing);
    assert_eq!(
        stats.canon_patches + stats.canon_full,
        stats.transitions as u64,
        "dac n=4 ws+reduced: every successor was canonicalized, by patch or in full"
    );
}

/// A two-thread request on both frontiers: the deterministic engine stays
/// single-threaded and keeps its per-level invariants, while work stealing
/// runs two workers over the same state space.
#[test]
fn two_thread_stats_reconcile_across_frontiers() {
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(4).expect("valid")];
    let explorer = Explorer::new(&p, &objects);
    let det = explorer.exploration().threads(2).run().expect("explorable");
    assert_eq!(
        det.stats.threads, 1,
        "the deterministic engine ignores threads"
    );
    assert_invariants(&det.stats, "dac n=4 deterministic, threads(2)");
    let ws = explorer
        .exploration()
        .frontier(Frontier::WorkStealing)
        .threads(2)
        .run()
        .expect("explorable");
    assert_eq!(ws.stats.threads, 2);
    assert_eq!(ws.stats.workers.len(), 2, "one row per worker");
    assert_eq!(ws.stats.expanded, det.stats.expanded);
    assert_eq!(ws.stats.transitions, det.stats.transitions);
    assert_eq!(ws.stats.dedup_hits, det.stats.dedup_hits);
}

/// Shared schema/ordering checks on a run's `progress` event stream: every
/// event carries the numeric fields `exp_report --validate-trace` demands,
/// `configs` and timestamps never go backwards, and the stream ends with
/// exactly one `final` event.
fn assert_progress_invariants(events: &[Event], strategy: &str, what: &str) {
    assert!(!events.is_empty(), "{what}: at least the final event");
    let mut prev_configs = -1i64;
    let mut prev_t = 0u64;
    for e in events {
        assert_eq!(e.name, "progress");
        assert_eq!(
            e.fields.get("strategy").and_then(Json::as_str),
            Some(strategy),
            "{what}: strategy tag"
        );
        let configs = e
            .fields
            .get("configs")
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("{what}: numeric configs"));
        assert!(
            configs >= prev_configs,
            "{what}: configs must be monotone ({prev_configs} -> {configs})"
        );
        prev_configs = configs;
        assert!(
            e.t_us >= prev_t,
            "{what}: event timestamps must not regress"
        );
        prev_t = e.t_us;
        for field in [
            "configs_per_sec",
            "ema_configs_per_sec",
            "frontier_depth",
            "workers",
            "utilization",
            "eta_us",
            "mem_bytes",
            "elapsed_us",
        ] {
            assert!(
                e.fields.get(field).and_then(Json::as_f64).is_some(),
                "{what}: progress events carry numeric {field}"
            );
        }
    }
    let finals = events
        .iter()
        .filter(|e| e.fields.get("final").and_then(Json::as_bool) == Some(true))
        .count();
    assert_eq!(finals, 1, "{what}: exactly one final event");
    assert_eq!(
        events
            .last()
            .and_then(|e| e.fields.get("final").and_then(Json::as_bool)),
        Some(true),
        "{what}: the final event closes the stream"
    );
}

/// The acceptance workload of the live-observability layer: a 4-thread
/// work-stealing T2 (DAC) run streaming progress at a short cadence. The
/// events must be schema-valid, monotone, and reconcile against the final
/// [`ExploreStats`]; the run is long enough (n = 6 in a debug build) that
/// several periodic ticks land before the final event.
#[test]
fn work_stealing_progress_events_reconcile_with_final_stats() {
    let p = DacFromPac::new(mixed_binary_inputs(6), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(6).expect("valid")];
    let sink = MemorySink::new();
    let registry = Registry::new();
    let period = Duration::from_millis(1);
    let g = Explorer::new(&p, &objects)
        .exploration()
        .frontier(Frontier::WorkStealing)
        .threads(4)
        .registry(registry.clone())
        .progress_every(period)
        .trace(Tracer::new(sink.clone()))
        .run()
        .expect("explorable");
    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "progress")
        .collect();
    assert_progress_invariants(&events, "work-stealing", "dac n=6 ws");
    if g.stats.elapsed >= period * 10 {
        assert!(
            events.len() >= 5,
            "a {:?} run on a {period:?} cadence must tick repeatedly, got {}",
            g.stats.elapsed,
            events.len()
        );
    }
    let last = events.last().expect("nonempty");
    assert_eq!(
        last.fields.get("configs").and_then(Json::as_i64),
        i64::try_from(g.stats.expanded).ok(),
        "the final progress event carries the run's expansion total"
    );
    assert_eq!(
        last.fields.get("frontier_depth").and_then(Json::as_i64),
        Some(0),
        "the frontier is drained at the end"
    );
    assert_eq!(last.fields.get("eta_us").and_then(Json::as_i64), Some(0));
    // The registry outlives the run: the snapshot agrees with the stats.
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.get("explore.configs").and_then(Json::as_i64),
        i64::try_from(g.stats.expanded).ok()
    );
    assert_eq!(
        snapshot.get("explore.transitions").and_then(Json::as_i64),
        i64::try_from(g.stats.transitions).ok()
    );
    assert_eq!(
        snapshot.get("mem.interner_bytes").and_then(Json::as_i64),
        i64::try_from(g.stats.interner_bytes).ok()
    );
    assert!(
        snapshot
            .get("mem.graph_bytes")
            .and_then(Json::as_i64)
            .is_some_and(|b| b > 0),
        "the graph gauge is set after a successful run"
    );
}

/// Level-synchronous runs stream the same schema with the `level-sync`
/// strategy tag, and the live counters end exactly at the stats totals.
#[test]
fn level_sync_progress_events_reconcile_with_final_stats() {
    let p = DacFromPac::new(mixed_binary_inputs(5), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(5).expect("valid")];
    let sink = MemorySink::new();
    let registry = Registry::new();
    let g = Explorer::new(&p, &objects)
        .exploration()
        .threads(2)
        .registry(registry.clone())
        .progress_every(Duration::from_millis(1))
        .trace(Tracer::new(sink.clone()))
        .run()
        .expect("explorable");
    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "progress")
        .collect();
    assert_progress_invariants(&events, "level-sync", "dac n=5 level-sync");
    assert_eq!(
        registry
            .snapshot()
            .get("explore.configs")
            .and_then(Json::as_i64),
        i64::try_from(g.stats.expanded).ok()
    );
}

/// The sampling strategy streams progress through the same builder knob:
/// `sample.runs` drives the `configs` field and the budget gauge feeds a
/// budget-based ETA.
#[test]
fn sampling_progress_events_reconcile_with_the_report() {
    let inputs = mixed_binary_inputs(3);
    let p = ConsensusViaObject::new(inputs.clone(), ObjId(0));
    let objects = vec![AnyObject::consensus(3).expect("valid")];
    let sink = MemorySink::new();
    let registry = Registry::new();
    let verdict = Explorer::new(&p, &objects)
        .exploration()
        .sample(SampleConfig {
            runs: 4000,
            threads: 2,
            ..SampleConfig::default()
        })
        .registry(registry.clone())
        .progress_every(Duration::from_millis(1))
        .trace(Tracer::new(sink.clone()))
        .check_consensus(&inputs);
    assert!(
        !verdict.is_violated(),
        "consensus via a consensus object holds: {}",
        verdict.describe()
    );
    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "progress")
        .collect();
    assert_progress_invariants(&events, "sampling", "sampled consensus n=3");
    assert_eq!(
        registry
            .snapshot()
            .get("sample.runs")
            .and_then(Json::as_i64),
        Some(4000),
        "every budgeted run is mirrored into the registry"
    );
}

/// The memory gauges count what the engine holds, exactly. On k-set
/// agreement at n = 4 (167 configs, 244 transitions, rows of one object
/// state and four statuses) the checked graph is its flat rows, its CSR
/// offsets and packed 8-byte edges, and one expansion flag per node. The
/// level-sync index hands its rows to the graph and keeps only its slot
/// array: the smallest power of two, at least 16, that stays at most half
/// full — 512 four-byte slots for 167 rows.
#[test]
fn kset_memory_gauges_are_exact() {
    let inputs: Vec<Value> = (0..4).map(Value::Int).collect();
    let p = KSetViaStrongSa::new(inputs.clone(), ObjId(0));
    let objects = vec![AnyObject::strong_sa()];
    let explorer = Explorer::new(&p, &objects);
    let (nodes, width, transitions) = (167, 1 + 4, 244);
    let graph_bytes = nodes * width * 4 + (nodes + 1) * 4 + transitions * 8 + nodes;
    for frontier in [Frontier::Deterministic, Frontier::WorkStealing] {
        let registry = Registry::new();
        let verdict = explorer
            .exploration()
            .frontier(frontier)
            .threads(2)
            .registry(registry.clone())
            .check_k_set_agreement(2, &inputs);
        assert!(verdict.holds(), "{frontier:?}");
        let gauge = |name: &str| {
            registry
                .snapshot()
                .get(name)
                .and_then(Json::as_i64)
                .unwrap_or_else(|| panic!("{name} is set"))
        };
        assert_eq!(gauge("explore.configs"), nodes as i64, "{frontier:?}");
        assert_eq!(gauge("mem.graph_bytes"), graph_bytes as i64, "{frontier:?}");
        let g = explorer
            .exploration()
            .frontier(frontier)
            .threads(2)
            .run()
            .expect("explorable");
        assert_eq!((g.len(), g.transitions), (nodes, transitions));
        assert_eq!(g.approx_bytes(), graph_bytes, "{frontier:?}");
        let index = gauge("mem.index_bytes");
        assert_eq!(index, g.stats.index_bytes as i64, "{frontier:?}");
        match frontier {
            Frontier::Deterministic => assert_eq!(index, 512 * 4),
            // Every shard's rows and id column, plus at least 16 slots
            // per shard holding rows.
            Frontier::WorkStealing => {
                assert!(index >= (nodes * (width + 1) * 4 + 16 * 4) as i64)
            }
        }
    }
}
