//! `obs_analyze` — the trace-analysis observatory.
//!
//! Ingests the `reports/*.trace.jsonl` artifacts the experiment harness
//! writes (see `exp_report --validate-trace` for the line format) and
//! reconstructs the run they describe:
//!
//! * **per-worker utilization timeline** — a text Gantt built from the
//!   work-stealing `ws.expand` progress beats, plus a steal-attribution
//!   table (who stole from whom, and how often nobody had work);
//! * **phase critical path** — the most expensive BFS levels of a
//!   level-sync trace, or the longest-running worker of a work-stealing
//!   trace;
//! * **steal-storm detection** — the pathology that silently burns wall
//!   clock in a work-stealing run: workers sweeping empty deques;
//! * `--summary-json` — the same analysis as one machine-readable object.
//!
//! `--regress <BENCH_history.jsonl>` switches to perf-regression mode: the
//! latest history entry (appended by `perf_smoke`) is compared against the
//! trailing median of earlier same-host entries, with a noise band, and
//! regressions are listed with their factors. The exit code is nonzero on
//! regression so CI can surface it — wire it as an *advisory* step.
//!
//! Usage:
//!   obs_analyze <trace.jsonl | dir> [--summary-json]
//!   obs_analyze --regress <BENCH_history.jsonl> [--noise 0.25] [--window 10]

use lbsa_support::json::Json;
use std::path::{Path, PathBuf};

/// Columns in the text Gantt.
const GANTT_WIDTH: usize = 60;

/// Default fractional noise band for `--regress`.
const DEFAULT_NOISE: f64 = 0.25;

/// Default trailing-window length (history entries) for `--regress`.
const DEFAULT_WINDOW: usize = 10;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: obs_analyze <trace.jsonl | dir> [--summary-json]");
        eprintln!("       obs_analyze --regress <BENCH_history.jsonl> [--noise F] [--window N]");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--regress") {
        let path = args
            .iter()
            .position(|a| a == "--regress")
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| {
                eprintln!("--regress needs a history file");
                std::process::exit(2);
            });
        let noise = flag_value(&args, "--noise").unwrap_or(DEFAULT_NOISE);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let window = flag_value(&args, "--window").map_or(DEFAULT_WINDOW, |w| w as usize);
        match regress_mode(Path::new(path), noise, window) {
            Ok(0) => {}
            Ok(n) => {
                eprintln!("obs_analyze: {n} regression(s) beyond the noise band");
                std::process::exit(1);
            }
            Err(err) => {
                eprintln!("obs_analyze: {err}");
                std::process::exit(2);
            }
        }
        return;
    }

    let summary_json = args.iter().any(|a| a == "--summary-json");
    let target = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| {
            eprintln!("obs_analyze: no trace file or directory given");
            std::process::exit(2);
        });
    let traces = collect_traces(Path::new(target));
    if traces.is_empty() {
        eprintln!("obs_analyze: no *.trace.jsonl under {target}");
        std::process::exit(2);
    }
    let mut summaries = Vec::new();
    for path in &traces {
        let events = match load_trace(path) {
            Ok(e) => e,
            Err(err) => {
                eprintln!("obs_analyze: {}: {err}", path.display());
                std::process::exit(2);
            }
        };
        let summary = analyze_trace(path, &events);
        if !summary_json {
            render_human(&summary, &events);
        }
        summaries.push(summary);
    }
    if summary_json {
        let doc = if summaries.len() == 1 {
            summaries.pop().expect("one summary")
        } else {
            Json::object().set("traces", Json::Arr(summaries))
        };
        println!("{}", doc.pretty());
    }
}

/// Parses `--flag <number>` out of the argument list.
fn flag_value(args: &[String], flag: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// A single trace file, or every `*.trace.jsonl` in a directory (sorted).
fn collect_traces(target: &Path) -> Vec<PathBuf> {
    if target.is_dir() {
        let mut found: Vec<PathBuf> = std::fs::read_dir(target)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".trace.jsonl"))
            })
            .collect();
        found.sort();
        found
    } else {
        vec![target.to_path_buf()]
    }
}

/// Reads one JSONL trace into a vector of event objects, streaming one
/// line at a time so peak RSS holds the parsed events but never the whole
/// raw file (traces can be hundreds of MB of text for a few MB of events).
fn load_trace(path: &Path) -> Result<Vec<Json>, String> {
    use std::io::BufRead;
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let mut reader = std::io::BufReader::new(file);
    let mut events = Vec::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        let read = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if read == 0 {
            break;
        }
        lineno += 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line.trim_end()).map_err(|e| format!("line {lineno}: {e}"))?;
        events.push(doc);
    }
    Ok(events)
}

fn field_i64(e: &Json, key: &str) -> Option<i64> {
    e.get(key).and_then(Json::as_i64)
}

fn field_f64(e: &Json, key: &str) -> Option<f64> {
    e.get(key).and_then(Json::as_f64)
}

fn name_of(e: &Json) -> &str {
    e.get("event").and_then(Json::as_str).unwrap_or("")
}

/// Everything `obs_analyze` reconstructs from one trace, as the
/// `--summary-json` object (the human renderer reads the same structure).
fn analyze_trace(path: &Path, events: &[Json]) -> Json {
    let begin = events.iter().find(|e| name_of(e) == "explore.begin");
    let frontier = begin
        .and_then(|e| e.get("frontier"))
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let threads = begin.and_then(|e| field_i64(e, "threads")).unwrap_or(0);
    let t0 = events.iter().filter_map(|e| field_i64(e, "t_us")).min();
    let t1 = events.iter().filter_map(|e| field_i64(e, "t_us")).max();
    let span_us = match (t0, t1) {
        (Some(a), Some(b)) => b - a,
        _ => 0,
    };

    let mut doc = Json::object()
        .set("trace", path.display().to_string())
        .set("events", events.len())
        .set("frontier", frontier)
        .set("threads", threads)
        .set("span_us", span_us);

    let workers = worker_rows(events);
    if !workers.is_empty() {
        doc = doc
            .set("workers", Json::Arr(workers.clone()))
            .set("worker_imbalance", imbalance(&workers))
            .set("steal_storm", steal_storm(&workers))
            .set("critical_path", ws_critical_path(events, &workers));
    }
    let levels = level_rows(events);
    if !levels.is_empty() {
        doc = doc.set("levels", level_analysis(&levels));
        if workers.is_empty() {
            doc = doc.set("critical_path", level_critical_path(&levels));
        }
    }
    if let Some(sampling) = sampling_analysis(events) {
        doc = doc.set("sampling", sampling);
    }
    doc
}

/// One row per worker, merged from the assembly-time `ws.worker` summaries
/// and the steal attribution of the in-run `ws.steal` events.
fn worker_rows(events: &[Json]) -> Vec<Json> {
    let mut rows: Vec<Json> = Vec::new();
    for e in events.iter().filter(|e| name_of(e) == "ws.worker") {
        let Some(w) = field_i64(e, "worker") else {
            continue;
        };
        let mut victims = Json::object();
        let mut hits = 0i64;
        for s in events.iter().filter(|s| {
            name_of(s) == "ws.steal"
                && field_i64(s, "worker") == Some(w)
                && s.get("outcome").and_then(Json::as_str) == Some("hit")
        }) {
            if let Some(v) = field_i64(s, "victim") {
                let key = v.to_string();
                let n = victims.get(&key).and_then(Json::as_i64).unwrap_or(0);
                victims = victims.set(&key, n + 1);
                hits += 1;
            }
        }
        let busy = field_i64(e, "busy_us").unwrap_or(0);
        let idle = field_i64(e, "idle_us").unwrap_or(0);
        let accounted = busy + idle;
        let utilization = if accounted > 0 {
            busy as f64 / accounted as f64
        } else {
            0.0
        };
        let mut row = Json::object()
            .set("worker", w)
            .set("expanded", field_i64(e, "expanded").unwrap_or(0))
            .set("transitions", field_i64(e, "transitions").unwrap_or(0))
            .set("steals", field_i64(e, "steals").unwrap_or(0))
            .set("steal_fails", field_i64(e, "steal_fails").unwrap_or(0))
            .set("local_hits", field_i64(e, "local_hits").unwrap_or(0))
            .set(
                "max_deque_depth",
                field_i64(e, "max_deque_depth").unwrap_or(0),
            )
            .set("idle_spins", field_i64(e, "idle_spins").unwrap_or(0))
            // Lock-free-engine counters; absent (0) in pre-deque traces.
            .set("park_count", field_i64(e, "park_count").unwrap_or(0))
            .set("parked_us", field_i64(e, "parked_us").unwrap_or(0))
            .set("deque_grows", field_i64(e, "deque_grows").unwrap_or(0))
            .set("busy_us", busy)
            .set("idle_us", idle)
            .set("utilization", utilization);
        if hits > 0 {
            row = row.set("victims", victims);
        }
        rows.push(row);
    }
    rows
}

/// Busiest worker's expanded count over the per-worker mean.
fn imbalance(workers: &[Json]) -> f64 {
    let counts: Vec<i64> = workers
        .iter()
        .map(|w| field_i64(w, "expanded").unwrap_or(0))
        .collect();
    let total: i64 = counts.iter().sum();
    if counts.is_empty() || total == 0 {
        return 1.0;
    }
    let max = *counts.iter().max().expect("nonempty") as f64;
    max / (total as f64 / counts.len() as f64)
}

/// Steal-storm detection: sweeps that found nothing, per expanded task.
/// A storm means workers spent their time probing empty deques — the
/// workload is too narrow (or too serialized) for the worker count.
///
/// Parked workers don't storm: a failed sweep that ends in a timed park
/// burns microseconds of CPU, not a spin loop, so only the spin/yield
/// share of the failures (`fails − parks`) counts toward detection.
/// Pre-backoff traces carry no `park_count` and degrade to the old
/// all-fails-burn-CPU reading.
fn steal_storm(workers: &[Json]) -> Json {
    let fails: i64 = workers
        .iter()
        .map(|w| field_i64(w, "steal_fails").unwrap_or(0))
        .sum();
    let expanded: i64 = workers
        .iter()
        .map(|w| field_i64(w, "expanded").unwrap_or(0))
        .sum();
    let spins: i64 = workers
        .iter()
        .map(|w| field_i64(w, "idle_spins").unwrap_or(0))
        .max()
        .unwrap_or(0);
    let parks: i64 = workers
        .iter()
        .map(|w| field_i64(w, "park_count").unwrap_or(0))
        .sum();
    let burning = (fails - parks).max(0);
    let fails_per_task = fails as f64 / expanded.max(1) as f64;
    let burning_per_task = burning as f64 / expanded.max(1) as f64;
    Json::object()
        .set("steal_fails", fails)
        .set("parked", parks)
        .set("fails_per_task", fails_per_task)
        .set("burning_per_task", burning_per_task)
        .set("max_idle_spins", spins)
        .set("detected", burning_per_task > 5.0 && burning > 50)
}

/// The work-stealing critical path: the worker whose span (first beat to
/// `ws.done`) is longest bounds the run's wall clock.
fn ws_critical_path(events: &[Json], workers: &[Json]) -> Json {
    let mut critical: Option<(i64, i64, f64)> = None; // (worker, span, util)
    for w in workers {
        let Some(id) = field_i64(w, "worker") else {
            continue;
        };
        let times: Vec<i64> = events
            .iter()
            .filter(|e| {
                (name_of(e) == "ws.expand" || name_of(e) == "ws.done")
                    && field_i64(e, "worker") == Some(id)
            })
            .filter_map(|e| field_i64(e, "t_us"))
            .collect();
        let (Some(&first), Some(&last)) = (times.iter().min(), times.iter().max()) else {
            continue;
        };
        let span = last - first;
        let util = field_f64(w, "utilization").unwrap_or(0.0);
        if critical.is_none_or(|(_, best, _)| span > best) {
            critical = Some((id, span, util));
        }
    }
    match critical {
        Some((worker, span_us, utilization)) => Json::object()
            .set("kind", "worker")
            .set("worker", worker)
            .set("span_us", span_us)
            .set("utilization", utilization),
        None => Json::object().set("kind", "worker").set("span_us", 0i64),
    }
}

/// One row per `level` event, in trace order.
fn level_rows(events: &[Json]) -> Vec<Json> {
    events
        .iter()
        .filter(|e| name_of(e) == "level")
        .cloned()
        .collect()
}

/// Level-sync analysis: level count, widest level, and total expansion
/// time.
fn level_analysis(levels: &[Json]) -> Json {
    let expand_us: i64 = levels
        .iter()
        .filter_map(|l| field_i64(l, "expand_us"))
        .sum();
    let widest = levels
        .iter()
        .filter_map(|l| field_i64(l, "width"))
        .max()
        .unwrap_or(0);
    Json::object()
        .set("count", levels.len())
        .set("widest", widest)
        .set("expand_us", expand_us)
}

/// Level-sync critical path: the run is one sequential chain of levels, so
/// the heaviest levels *are* the critical path. Reports the top 3 by
/// elapsed time with their share of the total.
fn level_critical_path(levels: &[Json]) -> Json {
    let total: i64 = levels
        .iter()
        .filter_map(|l| field_i64(l, "elapsed_us"))
        .sum();
    let mut ranked: Vec<(i64, i64)> = levels
        .iter()
        .map(|l| {
            (
                field_i64(l, "elapsed_us").unwrap_or(0),
                field_i64(l, "level").unwrap_or(-1),
            )
        })
        .collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    let top: Vec<Json> = ranked
        .iter()
        .take(3)
        .map(|&(elapsed, level)| {
            Json::object()
                .set("level", level)
                .set("elapsed_us", elapsed)
                .set(
                    "share",
                    if total > 0 {
                        elapsed as f64 / total as f64
                    } else {
                        0.0
                    },
                )
        })
        .collect();
    Json::object()
        .set("kind", "levels")
        .set("total_us", total)
        .set("top", Json::Arr(top))
}

/// Aggregates `sample.*` events when the trace contains sampling sweeps.
fn sampling_analysis(events: &[Json]) -> Option<Json> {
    let ends: Vec<&Json> = events
        .iter()
        .filter(|e| name_of(e) == "sample.end")
        .collect();
    if ends.is_empty() {
        return None;
    }
    let runs: i64 = ends.iter().filter_map(|e| field_i64(e, "runs")).sum();
    let violations: i64 = ends.iter().filter_map(|e| field_i64(e, "violations")).sum();
    let batches = events
        .iter()
        .filter(|e| name_of(e) == "sample.batch")
        .count();
    Some(
        Json::object()
            .set("sweeps", ends.len())
            .set("runs", runs)
            .set("batches", batches)
            .set("violations", violations),
    )
}

/// Maps a utilization fraction to a Gantt cell.
fn shade(util: f64) -> char {
    if util > 0.9 {
        '█'
    } else if util > 0.6 {
        '▓'
    } else if util > 0.3 {
        '▒'
    } else if util > 0.0 {
        '░'
    } else {
        '·'
    }
}

/// Renders the per-worker utilization Gantt from the `ws.expand` beats:
/// each row is one worker, each column a slice of the run's wall clock,
/// shaded by the fraction of that slice the worker spent expanding.
fn render_gantt(events: &[Json], workers: &[Json]) -> Vec<String> {
    let t0 = events
        .iter()
        .filter_map(|e| field_i64(e, "t_us"))
        .min()
        .unwrap_or(0);
    let t1 = events
        .iter()
        .filter_map(|e| field_i64(e, "t_us"))
        .max()
        .unwrap_or(0);
    let span = (t1 - t0).max(1);
    let col_of = |t: i64| -> usize {
        let c = ((t - t0) * GANTT_WIDTH as i64 / span).max(0) as usize;
        c.min(GANTT_WIDTH - 1)
    };
    let mut rows = Vec::new();
    for w in workers {
        let Some(id) = field_i64(w, "worker") else {
            continue;
        };
        let mut beats: Vec<(i64, i64)> = events
            .iter()
            .filter(|e| {
                (name_of(e) == "ws.expand" || name_of(e) == "ws.done")
                    && field_i64(e, "worker") == Some(id)
            })
            .filter_map(|e| Some((field_i64(e, "t_us")?, field_i64(e, "busy_us").unwrap_or(0))))
            .collect();
        beats.sort_unstable();
        let mut cells = vec!['·'; GANTT_WIDTH];
        for pair in beats.windows(2) {
            let (ta, busy_a) = pair[0];
            let (tb, busy_b) = pair[1];
            let wall = (tb - ta).max(1);
            let util = ((busy_b - busy_a) as f64 / wall as f64).clamp(0.0, 1.0);
            for cell in cells.iter_mut().take(col_of(tb) + 1).skip(col_of(ta)) {
                *cell = shade(util);
            }
        }
        // A lone beat (tiny run) still shows up as one active cell.
        if beats.len() == 1 {
            cells[col_of(beats[0].0)] = shade(1.0);
        }
        rows.push(format!(
            "  worker {id} {}",
            cells.iter().collect::<String>()
        ));
    }
    rows
}

/// Human-readable report for one analyzed trace.
fn render_human(summary: &Json, events: &[Json]) {
    let trace = summary.get("trace").and_then(Json::as_str).unwrap_or("?");
    println!("== {trace}");
    println!(
        "   {} events, frontier {}, {} threads, span {}us",
        summary.get("events").and_then(Json::as_i64).unwrap_or(0),
        summary
            .get("frontier")
            .and_then(Json::as_str)
            .unwrap_or("?"),
        summary.get("threads").and_then(Json::as_i64).unwrap_or(0),
        summary.get("span_us").and_then(Json::as_i64).unwrap_or(0),
    );
    if let Some(workers) = summary.get("workers").and_then(Json::as_arr) {
        println!("-- per-worker utilization (busy fraction per time slice)");
        for row in render_gantt(events, workers) {
            println!("{row}");
        }
        println!("-- steal attribution");
        for w in workers {
            let victims = w
                .get("victims")
                .map(|v| format!(" victims {}", v.compact()))
                .unwrap_or_default();
            println!(
                "  worker {}: {} expanded, {} local, {} stolen, {} failed sweeps, util {:.0}%{victims}",
                field_i64(w, "worker").unwrap_or(-1),
                field_i64(w, "expanded").unwrap_or(0),
                field_i64(w, "local_hits").unwrap_or(0),
                field_i64(w, "steals").unwrap_or(0),
                field_i64(w, "steal_fails").unwrap_or(0),
                100.0 * field_f64(w, "utilization").unwrap_or(0.0),
            );
        }
        if let Some(imb) = summary.get("worker_imbalance").and_then(Json::as_f64) {
            println!("  imbalance {imb:.2}x (busiest worker vs mean)");
        }
        if let Some(storm) = summary.get("steal_storm") {
            if storm.get("detected").and_then(Json::as_bool) == Some(true) {
                println!(
                    "  !! steal storm: {} failed sweeps ({:.1} per task)",
                    storm.get("steal_fails").and_then(Json::as_i64).unwrap_or(0),
                    storm
                        .get("fails_per_task")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                );
            }
        }
    }
    if let Some(levels) = summary.get("levels") {
        println!(
            "-- levels: {} total, widest {}, expand {}us",
            levels.get("count").and_then(Json::as_i64).unwrap_or(0),
            levels.get("widest").and_then(Json::as_i64).unwrap_or(0),
            levels.get("expand_us").and_then(Json::as_i64).unwrap_or(0),
        );
    }
    if let Some(cp) = summary.get("critical_path") {
        match cp.get("kind").and_then(Json::as_str) {
            Some("worker") => println!(
                "-- critical path: worker {} ({}us span, util {:.0}%)",
                cp.get("worker").and_then(Json::as_i64).unwrap_or(-1),
                cp.get("span_us").and_then(Json::as_i64).unwrap_or(0),
                100.0 * cp.get("utilization").and_then(Json::as_f64).unwrap_or(0.0),
            ),
            Some("levels") => {
                if let Some(top) = cp.get("top").and_then(Json::as_arr) {
                    let parts: Vec<String> = top
                        .iter()
                        .map(|l| {
                            format!(
                                "level {} ({}us, {:.0}%)",
                                field_i64(l, "level").unwrap_or(-1),
                                field_i64(l, "elapsed_us").unwrap_or(0),
                                100.0 * field_f64(l, "share").unwrap_or(0.0),
                            )
                        })
                        .collect();
                    println!("-- critical path: {}", parts.join(", "));
                }
            }
            _ => {}
        }
    }
    if let Some(s) = summary.get("sampling") {
        println!(
            "-- sampling: {} sweeps, {} runs, {} violations",
            s.get("sweeps").and_then(Json::as_i64).unwrap_or(0),
            s.get("runs").and_then(Json::as_i64).unwrap_or(0),
            s.get("violations").and_then(Json::as_i64).unwrap_or(0),
        );
    }
}

// ---------------------------------------------------------------------------
// --regress: perf-history comparison
// ---------------------------------------------------------------------------

/// For a metric key, `true` when a *larger* value is worse (latencies),
/// `false` when smaller is worse (speedups/throughput), `None` when the
/// key carries no quality direction (counts, core numbers).
fn higher_is_worse(key: &str) -> Option<bool> {
    if key.ends_with("_ns") || key.ends_with("_us") {
        Some(true)
    } else if key.contains("speedup") || key.contains("ratio") || key.contains("per_sec") {
        Some(false)
    } else {
        None
    }
}

/// Median of a non-empty slice (mean of the middle pair for even lengths).
fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN metrics"));
    let n = values.len();
    if n.is_multiple_of(2) {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    } else {
        values[n / 2]
    }
}

/// One directional comparison: `Some(factor)` when `latest` is worse than
/// `baseline` by more than the noise band, where `factor` is how many
/// times worse.
fn regression_factor(key: &str, latest: f64, baseline: f64, noise: f64) -> Option<f64> {
    let worse_up = higher_is_worse(key)?;
    if baseline <= 0.0 {
        return None;
    }
    let factor = if worse_up {
        latest / baseline
    } else {
        baseline / latest.max(f64::MIN_POSITIVE)
    };
    (factor > 1.0 + noise).then_some(factor)
}

/// Loads the history, compares the newest entry against the trailing
/// median of up to `window` earlier entries with the same host fingerprint
/// and core count, and prints the verdict. Returns the regression count.
fn regress_mode(path: &Path, noise: f64, window: usize) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(Json::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(latest) = entries.last() else {
        println!("perf history: empty, nothing to compare");
        return Ok(0);
    };
    let host = latest.get("host").and_then(Json::as_str).unwrap_or("");
    let cores = latest.get("effective_cores").and_then(Json::as_i64);
    let prior: Vec<&Json> = entries[..entries.len() - 1]
        .iter()
        .filter(|e| {
            e.get("host").and_then(Json::as_str) == Some(host)
                && e.get("effective_cores").and_then(Json::as_i64) == cores
        })
        .collect();
    let baseline: Vec<&Json> = prior.iter().rev().take(window).rev().copied().collect();
    if baseline.is_empty() {
        println!(
            "perf history: no earlier entries for host '{host}' ({} total) — baseline starts here",
            entries.len()
        );
        return Ok(0);
    }
    let Some(metrics) = latest.get("metrics").and_then(Json::as_obj) else {
        return Err("latest history entry has no metrics object".into());
    };
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (key, value) in metrics {
        let Some(latest_v) = value.as_f64() else {
            continue;
        };
        let mut history: Vec<f64> = baseline
            .iter()
            .filter_map(|e| {
                e.get("metrics")
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
            })
            .collect();
        if history.is_empty() || higher_is_worse(key).is_none() {
            continue;
        }
        compared += 1;
        let med = median(&mut history);
        if let Some(factor) = regression_factor(key, latest_v, med, noise) {
            regressions += 1;
            println!(
                "REGRESSION {key}: {latest_v:.3} vs trailing median {med:.3} ({factor:.2}x worse, noise band {:.0}%)",
                noise * 100.0
            );
        }
    }
    println!(
        "perf history: compared {compared} directional metrics over {} baseline entries: {}",
        baseline.len(),
        if regressions == 0 {
            "no regressions beyond the noise band".to_string()
        } else {
            format!("{regressions} regression(s)")
        }
    );
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(line: &str) -> Json {
        Json::parse(line).expect("test event")
    }

    #[test]
    fn direction_classification() {
        assert_eq!(higher_is_worse("n6_seq_min_ns"), Some(true));
        assert_eq!(higher_is_worse("elapsed_us"), Some(true));
        assert_eq!(higher_is_worse("n5_speedup_vs_baseline"), Some(false));
        assert_eq!(higher_is_worse("n5_reduction_ratio"), Some(false));
        assert_eq!(higher_is_worse("seq_configs_per_sec"), Some(false));
        assert_eq!(higher_is_worse("configs"), None);
        assert_eq!(higher_is_worse("effective_cores"), None);
    }

    #[test]
    fn regression_factor_respects_noise_band() {
        // Latency up 10% inside a 25% band: fine.
        assert_eq!(regression_factor("x_ns", 110.0, 100.0, 0.25), None);
        // Latency up 2x: regression.
        assert!(regression_factor("x_ns", 200.0, 100.0, 0.25).is_some());
        // Speedup halved: regression.
        assert!(regression_factor("speedup", 1.0, 2.0, 0.25).is_some());
        // Speedup *improved*: never a regression.
        assert_eq!(regression_factor("speedup", 4.0, 2.0, 0.25), None);
        // Directionless keys are never compared.
        assert_eq!(regression_factor("configs", 99.0, 1.0, 0.25), None);
    }

    #[test]
    fn regress_skips_metrics_retired_from_new_rows() {
        // History rows written before a benchmark key was retired still
        // carry it; the newest row does not. The key is skipped, not
        // treated as a regression or an error.
        let row = |metrics: &str| {
            format!(
                r#"{{"schema":"lbsa-bench-history/v1","ts":1,"host":"h/2c","effective_cores":2,"gates_ok":true,"metrics":{{{metrics}}}}}"#
            )
        };
        let old = row(r#""seq_min_ns":100.0,"par_min_ns":90.0,"speedup_par_vs_seq":1.1"#);
        let new = row(r#""seq_min_ns":105.0"#);
        let path =
            std::env::temp_dir().join(format!("obs_analyze_retired_{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{old}\n{old}\n{new}\n")).expect("write history");
        let regressions = regress_mode(&path, DEFAULT_NOISE, DEFAULT_WINDOW);
        std::fs::remove_file(&path).ok();
        assert_eq!(regressions, Ok(0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn worker_rows_attribute_steals_to_victims() {
        let events = vec![
            ev(
                r#"{"seq":0,"t_us":0,"event":"explore.begin","threads":2,"frontier":"work-stealing"}"#,
            ),
            ev(
                r#"{"seq":1,"t_us":5,"event":"ws.steal","worker":1,"victim":0,"outcome":"hit","latency_us":2}"#,
            ),
            ev(
                r#"{"seq":2,"t_us":9,"event":"ws.steal","worker":1,"victim":0,"outcome":"hit","latency_us":1}"#,
            ),
            ev(
                r#"{"seq":3,"t_us":20,"event":"ws.worker","worker":0,"expanded":10,"transitions":20,"steals":0,"steal_fails":1,"local_hits":10,"busy_us":15,"idle_us":5}"#,
            ),
            ev(
                r#"{"seq":4,"t_us":21,"event":"ws.worker","worker":1,"expanded":4,"transitions":8,"steals":2,"steal_fails":0,"local_hits":2,"busy_us":5,"idle_us":15}"#,
            ),
        ];
        let rows = worker_rows(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1]
                .get("victims")
                .and_then(|v| v.get("0"))
                .and_then(Json::as_i64),
            Some(2),
            "worker 1 stole twice from worker 0"
        );
        assert!((field_f64(&rows[0], "utilization").unwrap() - 0.75).abs() < 1e-9);
        assert!((imbalance(&rows) - 10.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn steal_storm_detection_thresholds() {
        let quiet = vec![ev(
            r#"{"event":"ws.worker","worker":0,"expanded":100,"steal_fails":10,"idle_spins":10}"#,
        )];
        let storm = vec![ev(
            r#"{"event":"ws.worker","worker":0,"expanded":10,"steal_fails":600,"idle_spins":600}"#,
        )];
        assert_eq!(
            steal_storm(&quiet).get("detected").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            steal_storm(&storm).get("detected").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn parked_workers_are_not_a_steal_storm() {
        // Same 600 failed sweeps, but 580 ended in a timed park: the
        // worker was asleep, not burning a core — no storm.
        let parked = vec![ev(
            r#"{"event":"ws.worker","worker":0,"expanded":10,"steal_fails":600,"idle_spins":20,"park_count":580,"parked_us":58000}"#,
        )];
        let report = steal_storm(&parked);
        assert_eq!(report.get("detected").and_then(Json::as_bool), Some(false));
        assert_eq!(report.get("parked").and_then(Json::as_i64), Some(580));
        // But a genuinely spinning majority still trips detection.
        let spinning = vec![ev(
            r#"{"event":"ws.worker","worker":0,"expanded":10,"steal_fails":600,"idle_spins":550,"park_count":50,"parked_us":5000}"#,
        )];
        assert_eq!(
            steal_storm(&spinning)
                .get("detected")
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn worker_rows_carry_lock_free_engine_counters() {
        let events = vec![ev(
            r#"{"event":"ws.worker","worker":0,"expanded":10,"transitions":20,"steals":1,"steal_fails":3,"local_hits":9,"idle_spins":2,"park_count":4,"parked_us":400,"deque_grows":2,"busy_us":10,"idle_us":2}"#,
        )];
        let rows = worker_rows(&events);
        assert_eq!(field_i64(&rows[0], "park_count"), Some(4));
        assert_eq!(field_i64(&rows[0], "parked_us"), Some(400));
        assert_eq!(field_i64(&rows[0], "deque_grows"), Some(2));
        // Old traces without the fields default to zero, not absence.
        let old = vec![ev(
            r#"{"event":"ws.worker","worker":0,"expanded":10,"busy_us":10,"idle_us":2}"#,
        )];
        let rows = worker_rows(&old);
        assert_eq!(field_i64(&rows[0], "park_count"), Some(0));
        assert_eq!(field_i64(&rows[0], "deque_grows"), Some(0));
    }

    #[test]
    fn legacy_level_sync_traces_still_summarise() {
        // Older engines emitted per-level `parallel`/`merge_us` fields and a
        // `pargate` event per level; the analysis must still read them.
        let events = vec![
            ev(
                r#"{"seq":0,"t_us":0,"event":"explore.begin","threads":4,"force_parallel":false,"frontier":"level-sync"}"#,
            ),
            ev(
                r#"{"seq":1,"t_us":1,"event":"pargate","level":0,"width":1,"parallel":false,"ema_ns_per_node":null,"threads":4,"effective":2,"forced":false}"#,
            ),
            ev(
                r#"{"seq":2,"t_us":6,"event":"level","level":0,"width":1,"parallel":false,"expand_us":5,"merge_us":0,"elapsed_us":5}"#,
            ),
            ev(
                r#"{"seq":3,"t_us":96,"event":"level","level":1,"width":64,"parallel":false,"expand_us":90,"merge_us":0,"elapsed_us":90}"#,
            ),
            ev(
                r#"{"seq":4,"t_us":146,"event":"level","level":2,"width":64,"parallel":true,"expand_us":40,"merge_us":10,"elapsed_us":50}"#,
            ),
            ev(r#"{"seq":5,"t_us":150,"event":"explore.end","configs":129}"#),
        ];
        let summary = analyze_trace(Path::new("legacy.trace.jsonl"), &events);
        let levels = summary.get("levels").expect("level summary");
        assert_eq!(levels.get("count").and_then(Json::as_i64), Some(3));
        assert_eq!(levels.get("widest").and_then(Json::as_i64), Some(64));
        assert_eq!(levels.get("expand_us").and_then(Json::as_i64), Some(135));
        render_human(&summary, &events);
    }

    #[test]
    fn level_critical_path_ranks_by_elapsed() {
        let levels = vec![
            ev(r#"{"event":"level","level":0,"elapsed_us":10}"#),
            ev(r#"{"event":"level","level":1,"elapsed_us":70}"#),
            ev(r#"{"event":"level","level":2,"elapsed_us":20}"#),
        ];
        let cp = level_critical_path(&levels);
        let top = cp.get("top").and_then(Json::as_arr).expect("top");
        assert_eq!(field_i64(&top[0], "level"), Some(1));
        assert!((field_f64(&top[0], "share").unwrap() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn gantt_shades_by_busy_fraction() {
        assert_eq!(shade(1.0), '█');
        assert_eq!(shade(0.7), '▓');
        assert_eq!(shade(0.5), '▒');
        assert_eq!(shade(0.1), '░');
        assert_eq!(shade(0.0), '·');
        let events = vec![
            ev(r#"{"event":"explore.begin","t_us":0,"threads":1,"frontier":"work-stealing"}"#),
            ev(r#"{"event":"ws.expand","t_us":10,"worker":0,"expanded":1,"busy_us":8}"#),
            ev(r#"{"event":"ws.done","t_us":100,"worker":0,"expanded":40,"busy_us":95}"#),
        ];
        let workers = vec![ev(r#"{"worker":0,"expanded":40,"utilization":0.95}"#)];
        let rows = render_gantt(&events, &workers);
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].contains('█'),
            "a busy worker renders busy: {rows:?}"
        );
    }

    #[test]
    fn sampling_events_summarize() {
        let events = vec![
            ev(r#"{"event":"sample.begin","runs":200,"k":1}"#),
            ev(r#"{"event":"sample.batch","batch":1,"seeds_tried":100}"#),
            ev(r#"{"event":"sample.end","runs":200,"violations":0}"#),
        ];
        let s = sampling_analysis(&events).expect("sampling section");
        assert_eq!(s.get("sweeps").and_then(Json::as_i64), Some(1));
        assert_eq!(s.get("runs").and_then(Json::as_i64), Some(200));
        assert_eq!(s.get("batches").and_then(Json::as_i64), Some(1));
        assert_eq!(s.get("violations").and_then(Json::as_i64), Some(0));
        assert!(sampling_analysis(&[]).is_none());
    }
}
