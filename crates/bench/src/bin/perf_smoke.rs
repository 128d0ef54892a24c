//! Perf smoke gate: compares a freshly regenerated `BENCH_explore.json`
//! against the committed one and fails (exit 1) on a perf regression.
//!
//! Usage: `perf_smoke <committed.json> <fresh.json> [--history FILE]`
//!
//! Checks, in order:
//!
//! 1. the fresh engine still beats the seed baseline by ≥ 2× on T2 n = 5
//!    (`n5_speedup_vs_baseline ≥ 2.0`) — the absolute gate lives on the
//!    larger workload because the n = 4 graph (275 configs) is small
//!    enough that per-run setup compresses the ratio toward ~1.9 and
//!    couples it to the host's thermal state, while n = 5 sits near 2.7
//!    with real headroom;
//! 2. the n = 4 engine-vs-baseline speedup stays above a 1.5× hard floor.
//!    No committed-relative check here: the measured value swings 1.8–2.6
//!    with the host's thermal state (the baseline is memory-bound, the
//!    engine is not), so anchoring to whichever end was committed would
//!    flake, while a true regression — say, dedup interning accidentally
//!    disabled — drops the ratio to ≈ 1.0 and trips the floor reliably;
//! 3. symmetry reduction still shrinks the symmetric T2 n = 5 state space
//!    by ≥ 5× (`n5_reduction_ratio ≥ 5.0`). The n = 4 ratio is reported
//!    but not gated: its group is S_3, so the ratio is capped at 6 and
//!    sits near 3.4 by orbit counting, not by implementation quality;
//! 4. the work-stealing frontier wins on the big committed workloads.
//!    `n6_speedup_par_vs_seq` and `kset_speedup_par_vs_seq` are gated
//!    against a floor that scales with the host recorded in the *fresh*
//!    report (`effective_cores`): ≥ 1.5 with eight or more cores — real
//!    parallel win, the acceptance bar — ≥ 1.0 with 2–7 cores, and ≥ 0.6
//!    on a single core, where stealing cannot win and the gate bounds
//!    the overhead of the work-stealing frontier (raised from 0.4 with
//!    the batched index probes; a lone worker's deque lock is never
//!    contended and is taken twice per batch of up to 64 tasks: once to
//!    take the batch, once to push its children);
//! 5. symmetry reduction wins *wall clock*, not just state count, on the
//!    committed n = 6 workload: `n6_speedup_reduced_vs_raw ≥ 1.0`, i.e.
//!    reduced-over-raw elapsed < 1.0. This is the gate on canonicalization
//!    cost: sorting statuses per pid class and searching only the tie
//!    blocks (DESIGN.md §8) keeps it far below the `|G|`-fold group
//!    enumeration, under which the reduced n = 6 run was ~2.4× *slower*
//!    than raw;
//! 6. the reduced T2 n = 8 quotient (|S_7| = 5,040) has exactly 339
//!    orbits (`n8_reduced_configs == 339`). An exact count, so it holds on
//!    every host: a canonicalizer that merged orbits or split one would
//!    move it. Its time (`n8_reduced_min_ns`) is printed, advisory only.
//!
//! Additionally, the sampling engine's `schedules_per_sec` (the F8
//! vote-propagation workload, one worker) is checked *advisorily*: a drop
//! below 50% of the committed value prints a warning but never fails the
//! gate, since per-run cost tracks the host's single-thread speed more
//! than the engine's overhead.
//!
//! Absent keys in the *committed* file are tolerated (first run after a
//! schema extension); absent keys in the *fresh* file are failures.
//!
//! With `--history FILE`, every run — pass or fail — additionally appends
//! one JSONL entry to `FILE` carrying a host fingerprint (CPU model +
//! core count), the unix timestamp, `effective_cores`, the gate verdict,
//! and every numeric metric of the fresh report (gate numbers and the
//! histogram quantiles emitted by `explore_scaling`). The trailing file
//! is the input to `obs_analyze --regress`, which compares the newest
//! entry against the trailing same-host median with a noise band.

use lbsa_support::json::Json;
use std::process::ExitCode;

/// History entries from incompatible schema generations are skipped by
/// readers keying on this tag.
const HISTORY_SCHEMA: &str = "lbsa-bench-history/v1";

/// Orbits of the symmetric T2 n = 8 instance (process 0 distinguished with
/// input 1, the others input 0): the pinned count of the time-to-verdict
/// workload `t2_dac_n8_sym`.
const N8_ORBITS: f64 = 339.0;

fn load(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    Json::parse(&text).ok()
}

fn num(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(Json::as_f64)
}

/// A stable host fingerprint: the CPU model string plus the visible core
/// count. Deliberately std-only — `/proc/cpuinfo` where available, with a
/// portable fallback — so history entries from different machines never
/// get compared against each other by `obs_analyze --regress`.
fn host_fingerprint() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown-cpu".into());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    format!("{model}/{cores}c")
}

/// Appends one history entry for this run. Errors are reported but never
/// fail the gate — history is telemetry, not a correctness check.
fn append_history(path: &str, fresh: &Json, gates_ok: bool) {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut metrics = Json::object();
    if let Some(fields) = fresh.as_obj() {
        for (key, value) in fields {
            if value.as_f64().is_some() {
                metrics = metrics.set(key, value.clone());
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let entry = Json::object()
        .set("schema", HISTORY_SCHEMA)
        .set("ts", ts)
        .set("host", host_fingerprint())
        .set("effective_cores", cores)
        .set("gates_ok", gates_ok)
        .set("metrics", metrics);
    use std::io::Write as _;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{}", entry.compact()));
    match appended {
        Ok(()) => println!("perf history: appended to {path}"),
        Err(e) => eprintln!("perf history: cannot append to {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let history = args.iter().position(|a| a == "--history").and_then(|i| {
        if i + 1 < args.len() {
            let file = args.remove(i + 1);
            args.remove(i);
            Some(file)
        } else {
            eprintln!("perf_smoke: --history needs a file argument");
            None
        }
    });
    let [committed_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: perf_smoke <committed.json> <fresh.json> [--history FILE]");
        return ExitCode::FAILURE;
    };
    let Some(fresh) = load(fresh_path) else {
        eprintln!("perf_smoke: cannot read or parse fresh report {fresh_path}");
        return ExitCode::FAILURE;
    };
    let committed = load(committed_path);
    if committed.is_none() {
        eprintln!("perf_smoke: no committed report at {committed_path}; gating fresh only");
    }

    let mut failures = Vec::new();
    let mut measured = Vec::new();

    match num(&fresh, "n5_speedup_vs_baseline") {
        Some(s) if s >= 2.0 => {
            println!("n5_speedup_vs_baseline: {s:.2} (>= 2.0) ok");
            measured.push(format!("n5_speedup {s:.2}"));
        }
        Some(s) => failures.push(format!("n5_speedup_vs_baseline {s:.2} < 2.0")),
        None => failures.push("fresh report lacks n5_speedup_vs_baseline".into()),
    }

    match num(&fresh, "speedup_vs_baseline") {
        Some(s) if s >= 1.5 => {
            println!("speedup_vs_baseline: {s:.2} (>= 1.5 floor) ok");
            measured.push(format!("n4_speedup {s:.2}"));
        }
        Some(s) => failures.push(format!("speedup_vs_baseline {s:.2} < 1.5 hard floor")),
        None => failures.push("fresh report lacks speedup_vs_baseline".into()),
    }

    match num(&fresh, "n5_reduction_ratio") {
        Some(r) if r >= 5.0 => {
            println!("n5_reduction_ratio: {r:.2} (>= 5.0) ok");
            measured.push(format!("n5_reduction {r:.2}"));
        }
        Some(r) => failures.push(format!("n5_reduction_ratio {r:.2} < 5.0")),
        None => failures.push("fresh report lacks n5_reduction_ratio".into()),
    }

    // Work-stealing gates scale with the host the fresh report was
    // generated on: demanding a 1.5× parallel speedup from a single-core
    // CI box would gate on physics, not on the implementation.
    let cores = num(&fresh, "effective_cores").map_or(1.0, |c| c.max(1.0));
    let ws_floor = if cores >= 8.0 {
        1.5
    } else if cores >= 2.0 {
        1.0
    } else {
        // One worker on one core never contends: its deque lock is
        // always free and is taken twice per batch of up to 64 tasks
        // (take the batch, push its children), so the cost over the
        // sequential engine is that bookkeeping plus the batch's index
        // round.
        0.6
    };
    for key in ["n6_speedup_par_vs_seq", "kset_speedup_par_vs_seq"] {
        match num(&fresh, key) {
            Some(s) if s >= ws_floor => {
                println!("{key}: {s:.2} (>= {ws_floor:.2} at {cores:.0} cores) ok");
                measured.push(format!("{key} {s:.2}"));
            }
            Some(s) => failures.push(format!(
                "{key} {s:.2} < {ws_floor:.2} floor at {cores:.0} cores"
            )),
            None => failures.push(format!("fresh report lacks {key}")),
        }
    }

    match num(&fresh, "n6_speedup_reduced_vs_raw") {
        Some(s) if s >= 1.0 => {
            println!("n6_speedup_reduced_vs_raw: {s:.2} (>= 1.0, reduction wins wall clock) ok");
            measured.push(format!("n6_reduced_vs_raw {s:.2}"));
        }
        Some(s) => failures.push(format!(
            "n6_speedup_reduced_vs_raw {s:.2} < 1.0: orbit reduction lost to raw exploration"
        )),
        None => failures.push("fresh report lacks n6_speedup_reduced_vs_raw".into()),
    }

    match num(&fresh, "n8_reduced_configs") {
        Some(c) if c == N8_ORBITS => {
            println!("n8_reduced_configs: {c:.0} (== {N8_ORBITS:.0}) ok");
            measured.push(format!("n8_orbits {c:.0}"));
        }
        Some(c) => failures.push(format!(
            "n8_reduced_configs {c:.0} != {N8_ORBITS:.0}: canonicalization is not one \
             representative per orbit"
        )),
        None => failures.push("fresh report lacks n8_reduced_configs".into()),
    }
    if let Some(ns) = num(&fresh, "n8_reduced_min_ns") {
        println!(
            "n=8 reduced exploration: {:.2} ms min (advisory, not gated)",
            ns / 1e6
        );
    }

    if let Some(r) = num(&fresh, "reduction_ratio") {
        println!("n=4 reduction_ratio: {r:.2} (informational; S_3 caps it at 6)");
    }
    if let Some(r) = num(&fresh, "n6_reduction_ratio") {
        println!("n=6 reduction_ratio: {r:.2} (informational; gated via wall clock)");
    }

    // Sampling-engine throughput: advisory only. Per-run cost is dominated
    // by protocol stepping, which varies with the host far more than the
    // engine's own overhead, so a regression here warns instead of failing
    // — the number still rides into the history for trend analysis.
    match num(&fresh, "schedules_per_sec") {
        Some(s) => {
            let committed_sps = committed.as_ref().and_then(|c| num(c, "schedules_per_sec"));
            match committed_sps {
                Some(c) if s < c * 0.5 => eprintln!(
                    "perf smoke WARNING: schedules_per_sec {s:.0} < 50% of committed {c:.0} \
                     (advisory, not gated)"
                ),
                Some(c) => println!("schedules_per_sec: {s:.0} (committed {c:.0}, advisory) ok"),
                None => println!("schedules_per_sec: {s:.0} (no committed value, advisory)"),
            }
            measured.push(format!("schedules_per_sec {s:.0}"));
        }
        None => eprintln!(
            "perf smoke WARNING: fresh report lacks schedules_per_sec (advisory, not gated)"
        ),
    }

    // Memory-footprint ceilings: advisory only, like the sampling
    // throughput. The structural estimates (`Interner::approx_bytes` and
    // friends) are stable across hosts, but growth here usually tracks an
    // intentional capacity change — warn-and-record beats hard-failing,
    // and the history trail catches slow leaks via `obs_analyze --regress`.
    for key in [
        "n6_peak_interner_bytes",
        "bytes_per_state",
        "kset_bytes_per_state",
    ] {
        match num(&fresh, key) {
            Some(b) => {
                let committed_b = committed.as_ref().and_then(|c| num(c, key));
                match committed_b {
                    Some(c) if c > 0.0 && b > c * 1.5 => eprintln!(
                        "perf smoke WARNING: {key} {b:.0} > 150% of committed {c:.0} \
                         (advisory, not gated)"
                    ),
                    Some(c) => println!("{key}: {b:.0} (committed {c:.0}, advisory) ok"),
                    None => println!("{key}: {b:.0} (no committed value, advisory)"),
                }
                measured.push(format!("{key} {b:.0}"));
            }
            None => {
                eprintln!("perf smoke WARNING: fresh report lacks {key} (advisory, not gated)");
            }
        }
    }

    if let Some(path) = &history {
        append_history(path, &fresh, failures.is_empty());
    }

    if failures.is_empty() {
        println!("perf smoke: ok ({})", measured.join(", "));
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("perf smoke FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
