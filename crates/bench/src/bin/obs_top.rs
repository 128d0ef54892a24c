//! `obs_top` — the live run cockpit.
//!
//! Tails a `trace.jsonl` produced by a traced exploration (see
//! `Exploration::trace` + `Exploration::progress_every`) and renders a
//! refreshing terminal dashboard:
//!
//! * the headline from the latest `progress` event — strategy, configs
//!   expanded, instantaneous + EMA configs/sec, frontier depth, worker
//!   utilization, ETA, and approximate memory footprint;
//! * per-worker rows built from the `ws.expand` beats — expansion rate
//!   bars plus steal attribution (`ws.steal` hits, who stole from whom),
//!   folded by the trace fold `obs_analyze` shares
//!   ([`lbsa_bench::trace_fold`]);
//! * sampling sweeps from the `sample.batch` / `sample.end` events.
//!
//! In `--follow` mode the file is tailed while it grows: partial lines
//! (a writer mid-`write`) are buffered until their newline arrives, so a
//! concurrently-written trace always parses cleanly. The dashboard stops
//! on the final `progress` event (or `explore.end` / `sample.end` when no
//! sampler ran), or after `--frames N` refreshes — the latter makes the
//! follow loop deterministic for tests and demos.
//!
//! Usage:
//!   obs_top <trace.jsonl> [--follow] [--interval-ms N] [--frames N] [--no-clear]
//!
//! `--no-clear` appends frames instead of redrawing in place (useful when
//! piping to a file or reading the output in a test).

use lbsa_bench::trace_fold::{read_lines, TraceFold};
use lbsa_support::json::Json;
use std::io::{BufRead, Write};
use std::path::Path;

/// Width of the per-worker expansion bar.
const BAR_WIDTH: usize = 24;

/// Default refresh cadence in follow mode.
const DEFAULT_INTERVAL_MS: u64 = 250;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!(
            "usage: obs_top <trace.jsonl> [--follow] [--interval-ms N] [--frames N] [--no-clear]"
        );
        std::process::exit(2);
    };
    let follow = args.iter().any(|a| a == "--follow");
    let clear = !args.iter().any(|a| a == "--no-clear");
    let interval = std::time::Duration::from_millis(
        flag_u64(&args, "--interval-ms").unwrap_or(DEFAULT_INTERVAL_MS),
    );
    let frames = flag_u64(&args, "--frames").map(|n| n as usize);
    let mut out = std::io::stdout().lock();
    let result = if follow {
        follow_trace(Path::new(path), interval, frames, clear, &mut out)
    } else {
        render_once(Path::new(path), &mut out)
    };
    if let Err(err) = result {
        eprintln!("obs_top: {path}: {err}");
        std::process::exit(2);
    }
}

/// Parses `--flag <u64>` out of the argument list.
fn flag_u64(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// One-shot mode: ingest the whole trace, render a single frame.
fn render_once(path: &Path, out: &mut impl Write) -> std::io::Result<()> {
    let mut cockpit = Cockpit::default();
    read_lines(path, |line| cockpit.ingest_line(line))?;
    out.write_all(cockpit.render_frame().as_bytes())
}

/// Follow mode: tail the file as it grows, redrawing after every drain.
/// Returns once the trace reports completion or `max_frames` is reached.
fn follow_trace(
    path: &Path,
    interval: std::time::Duration,
    max_frames: Option<usize>,
    clear: bool,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let file = std::fs::File::open(path)?;
    let mut reader = std::io::BufReader::new(file);
    let mut cockpit = Cockpit::default();
    // Carries a partial line (writer caught mid-write) across drains.
    let mut pending = String::new();
    let mut frames = 0usize;
    loop {
        loop {
            let read = reader.read_line(&mut pending)?;
            if read == 0 {
                break;
            }
            if pending.ends_with('\n') {
                cockpit.ingest_line(&pending);
                pending.clear();
            }
        }
        if clear {
            out.write_all(b"\x1b[2J\x1b[H")?;
        }
        out.write_all(cockpit.render_frame().as_bytes())?;
        out.flush()?;
        frames += 1;
        if cockpit.finished || max_frames.is_some_and(|m| frames >= m) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// The dashboard model: everything one frame renders, folded one event at
/// a time so follow mode never re-reads the trace.
#[derive(Default)]
struct Cockpit {
    /// Event and malformed-line counts and the per-worker rows.
    trace: TraceFold,
    strategy: Option<String>,
    threads: i64,
    /// Latest `progress` event, verbatim.
    progress: Option<Json>,
    progress_seen: usize,
    sample_batches: usize,
    sample_runs: i64,
    finished: bool,
}

impl Cockpit {
    /// Folds one JSONL line into the model. Malformed lines are counted,
    /// not fatal: a tail can race a writer even with line buffering.
    fn ingest_line(&mut self, line: &str) {
        if let Some(event) = self.trace.ingest_line(line) {
            self.ingest(&event);
        }
    }

    /// Folds the headline events; [`TraceFold`] has the per-worker ones.
    fn ingest(&mut self, event: &Json) {
        match event.get("event").and_then(Json::as_str).unwrap_or("") {
            "explore.begin" | "sample.begin" => {
                if let Some(threads) = event.get("threads").and_then(Json::as_i64) {
                    self.threads = threads;
                }
            }
            "progress" => {
                self.progress_seen += 1;
                if let Some(strategy) = event.get("strategy").and_then(Json::as_str) {
                    self.strategy = Some(strategy.to_string());
                }
                if event.get("final").and_then(Json::as_bool) == Some(true) {
                    self.finished = true;
                }
                self.progress = Some(event.clone());
            }
            "sample.batch" => {
                self.sample_batches += 1;
                if let Some(tried) = event.get("seeds_tried").and_then(Json::as_i64) {
                    self.sample_runs = self.sample_runs.max(tried);
                }
            }
            "explore.end" | "sample.end" => {
                // Without a sampler there is no final progress event; the
                // engine's own end marker closes the dashboard instead.
                if self.progress_seen == 0 {
                    self.finished = true;
                }
                if let Some(runs) = event.get("runs").and_then(Json::as_i64) {
                    self.sample_runs = self.sample_runs.max(runs);
                }
            }
            _ => {}
        }
    }

    /// Renders one dashboard frame as a newline-terminated string.
    fn render_frame(&self) -> String {
        let mut frame = String::new();
        let strategy = self.strategy.as_deref().unwrap_or("waiting for events");
        let status = if self.finished { "done" } else { "live" };
        frame.push_str(&format!(
            "obs_top · {strategy} · {} workers · {} events · {status}\n",
            self.threads.max(self.trace.workers.len() as i64),
            self.trace.events,
        ));
        if let Some(p) = &self.progress {
            let configs = p.get("configs").and_then(Json::as_i64).unwrap_or(0);
            let inst = p
                .get("configs_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let ema = p
                .get("ema_configs_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let frontier = p.get("frontier_depth").and_then(Json::as_i64).unwrap_or(0);
            let util = p.get("utilization").and_then(Json::as_f64).unwrap_or(0.0);
            let eta_us = p.get("eta_us").and_then(Json::as_i64).unwrap_or(-1);
            let mem = p.get("mem_bytes").and_then(Json::as_i64).unwrap_or(0);
            let elapsed_us = p.get("elapsed_us").and_then(Json::as_i64).unwrap_or(0);
            frame.push_str(&format!(
                "  configs {configs} ({}/s now, {}/s ema) · frontier {frontier} · util {:.0}% · eta {} · mem {} · t {}\n",
                fmt_rate(inst),
                fmt_rate(ema),
                util * 100.0,
                fmt_eta(eta_us),
                fmt_bytes(mem),
                fmt_duration_us(elapsed_us),
            ));
        } else {
            frame.push_str("  no progress events yet (run with Exploration::progress_every)\n");
        }
        if !self.trace.workers.is_empty() {
            let max_expanded = self
                .trace
                .workers
                .values()
                .map(|w| w.expanded())
                .max()
                .unwrap_or(0)
                .max(1);
            for (id, row) in &self.trace.workers {
                let fill = (row.expanded() * BAR_WIDTH as i64 / max_expanded).max(0) as usize;
                let bar: String = "█".repeat(fill.min(BAR_WIDTH));
                let pad: String = "·".repeat(BAR_WIDTH - fill.min(BAR_WIDTH));
                let victims = if row.victims.is_empty() {
                    String::new()
                } else {
                    let parts: Vec<String> = row
                        .victims
                        .iter()
                        .map(|(v, n)| format!("{v}:{n}"))
                        .collect();
                    format!(" stole from {}", parts.join(" "))
                };
                frame.push_str(&format!(
                    "  worker {id} {bar}{pad} {} expanded, {}/s, {} steals{victims}\n",
                    row.expanded(),
                    fmt_rate(row.rate_per_sec()),
                    row.steals(),
                ));
            }
        }
        if self.sample_batches > 0 || self.sample_runs > 0 {
            frame.push_str(&format!(
                "  sampling: {} batches, {} runs\n",
                self.sample_batches, self.sample_runs,
            ));
        }
        if self.trace.malformed > 0 {
            frame.push_str(&format!(
                "  ({} unparseable lines skipped)\n",
                self.trace.malformed
            ));
        }
        frame
    }
}

/// Rate formatting: `8.4k/s` territory, without pulling in a formatter.
fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1_000_000.0 {
        format!("{:.1}M", per_sec / 1_000_000.0)
    } else if per_sec >= 1_000.0 {
        format!("{:.1}k", per_sec / 1_000.0)
    } else {
        format!("{per_sec:.0}")
    }
}

fn fmt_bytes(bytes: i64) -> String {
    let b = bytes.max(0) as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2}GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1}MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1}KiB", b / 1024.0)
    } else {
        format!("{bytes}B")
    }
}

fn fmt_duration_us(us: i64) -> String {
    if us >= 1_000_000 {
        format!("{:.1}s", us as f64 / 1_000_000.0)
    } else {
        format!("{}ms", us / 1000)
    }
}

/// ETA formatting: `-1` means the model has no estimate yet, `0` means the
/// run is over.
fn fmt_eta(eta_us: i64) -> String {
    match eta_us {
        i64::MIN..=-1 => "—".to_string(),
        0 => "done".to_string(),
        _ => fmt_duration_us(eta_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(cockpit: &mut Cockpit, lines: &[&str]) {
        for line in lines {
            cockpit.ingest_line(line);
        }
    }

    /// A realistic excerpt: the shapes the explorer actually emits (see
    /// the `progress` schema in `crates/explorer/src/live.rs`).
    const RECORDED: &[&str] = &[
        r#"{"seq":0,"t_us":0,"event":"explore.begin","threads":4,"frontier":"work-stealing"}"#,
        r#"{"seq":1,"t_us":1000,"event":"ws.expand","worker":0,"expanded":100,"busy_us":900}"#,
        r#"{"seq":2,"t_us":1500,"event":"ws.steal","worker":1,"victim":0,"outcome":"hit","latency_us":2}"#,
        r#"{"seq":3,"t_us":2000,"event":"ws.expand","worker":0,"expanded":300,"busy_us":1800}"#,
        r#"{"seq":4,"t_us":2200,"event":"ws.steal","worker":1,"victim":0,"outcome":"hit","latency_us":1}"#,
        r#"{"seq":5,"t_us":2500,"event":"ws.expand","worker":1,"expanded":80,"busy_us":700}"#,
        r#"{"seq":6,"t_us":2600,"event":"progress","strategy":"work-stealing","configs":380,"configs_per_sec":146153.8,"ema_configs_per_sec":120000.0,"frontier_depth":42,"workers":4,"utilization":0.75,"eta_us":310000,"mem_bytes":1048576,"elapsed_us":2600,"final":false}"#,
    ];

    #[test]
    fn cockpit_folds_recorded_trace_lines() {
        let mut cockpit = Cockpit::default();
        feed(&mut cockpit, RECORDED);
        assert_eq!(cockpit.trace.events, RECORDED.len());
        assert_eq!(cockpit.trace.malformed, 0);
        assert_eq!(cockpit.threads, 4);
        assert_eq!(cockpit.strategy.as_deref(), Some("work-stealing"));
        assert_eq!(cockpit.progress_seen, 1);
        assert!(!cockpit.finished, "no final progress event yet");
        let w0 = &cockpit.trace.workers[&0];
        assert_eq!(w0.expanded(), 300);
        // 200 more configs over the 1000us between the two beats.
        assert!((w0.rate_per_sec() - 200_000.0).abs() < 1.0);
        let w1 = &cockpit.trace.workers[&1];
        assert_eq!(w1.steals(), 2);
        assert_eq!(w1.victims[&0], 2);
    }

    #[test]
    fn final_progress_event_closes_the_dashboard() {
        let mut cockpit = Cockpit::default();
        feed(&mut cockpit, RECORDED);
        cockpit.ingest_line(
            r#"{"seq":7,"t_us":3000,"event":"progress","strategy":"work-stealing","configs":500,"configs_per_sec":0.0,"ema_configs_per_sec":0.0,"frontier_depth":0,"workers":4,"utilization":1.0,"eta_us":0,"mem_bytes":2097152,"elapsed_us":3000,"final":true}"#,
        );
        assert!(cockpit.finished);
        let frame = cockpit.render_frame();
        assert!(frame.contains("done"), "frame: {frame}");
        assert!(frame.contains("configs 500"), "frame: {frame}");
        assert!(frame.contains("mem 2.0MiB"), "frame: {frame}");
        assert!(frame.contains("eta done"), "frame: {frame}");
    }

    #[test]
    fn untraced_progress_runs_end_on_explore_end() {
        let mut cockpit = Cockpit::default();
        cockpit.ingest_line(r#"{"event":"explore.begin","threads":1,"frontier":"bfs"}"#);
        cockpit.ingest_line(r#"{"event":"explore.end","configs":10,"elapsed_us":50}"#);
        assert!(cockpit.finished, "explore.end closes an untraced dashboard");
    }

    #[test]
    fn frame_renders_rates_eta_and_steal_attribution() {
        let mut cockpit = Cockpit::default();
        feed(&mut cockpit, RECORDED);
        let frame = cockpit.render_frame();
        assert!(frame.contains("work-stealing"), "frame: {frame}");
        assert!(frame.contains("configs 380"), "frame: {frame}");
        assert!(frame.contains("frontier 42"), "frame: {frame}");
        assert!(frame.contains("util 75%"), "frame: {frame}");
        assert!(frame.contains("eta 310ms"), "frame: {frame}");
        assert!(frame.contains("mem 1.0MiB"), "frame: {frame}");
        assert!(frame.contains("stole from 0:2"), "frame: {frame}");
        assert!(frame.contains("worker 0"), "frame: {frame}");
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let mut cockpit = Cockpit::default();
        cockpit.ingest_line("{not json");
        cockpit.ingest_line("");
        cockpit
            .ingest_line(r#"{"event":"progress","strategy":"sampling","configs":7,"final":false}"#);
        assert_eq!(cockpit.trace.malformed, 1);
        assert_eq!(cockpit.progress_seen, 1);
        assert!(cockpit
            .render_frame()
            .contains("1 unparseable lines skipped"));
    }

    #[test]
    fn formatting_helpers_cover_their_ranges() {
        assert_eq!(fmt_rate(900.0), "900");
        assert_eq!(fmt_rate(8_400.0), "8.4k");
        assert_eq!(fmt_rate(2_500_000.0), "2.5M");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MiB");
        assert_eq!(fmt_eta(-1), "—");
        assert_eq!(fmt_eta(0), "done");
        assert_eq!(fmt_eta(1_500_000), "1.5s");
    }

    /// The acceptance path: a writer thread grows the trace while
    /// `follow_trace` tails it, and the dashboard renders in-flight
    /// progress frames before the final event lands.
    #[test]
    fn follow_mode_renders_frames_from_a_growing_file() {
        let path = std::env::temp_dir().join(format!(
            "obs_top_follow_{}_{:?}.trace.jsonl",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::write(&path, "").expect("create trace");
        let writer_path = path.clone();
        let writer = std::thread::spawn(move || {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .expect("open for append");
            for i in 0..10i64 {
                let done = i == 9;
                writeln!(
                    f,
                    r#"{{"seq":{i},"t_us":{t},"event":"progress","strategy":"work-stealing","configs":{c},"configs_per_sec":1000.0,"ema_configs_per_sec":1000.0,"frontier_depth":{fd},"workers":4,"utilization":0.9,"eta_us":{eta},"mem_bytes":4096,"elapsed_us":{t},"final":{done}}}"#,
                    t = (i + 1) * 5000,
                    c = (i + 1) * 100,
                    fd = if done { 0 } else { 50 },
                    eta = if done { 0 } else { 45000 },
                )
                .expect("append progress line");
                f.flush().expect("flush");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        let mut out = Vec::new();
        follow_trace(
            &path,
            std::time::Duration::from_millis(2),
            Some(500),
            false,
            &mut out,
        )
        .expect("follow the growing trace");
        writer.join().expect("writer thread");
        let rendered = String::from_utf8(out).expect("utf8 frames");
        let frames = rendered.matches("obs_top ·").count();
        assert!(
            frames >= 2,
            "expected multiple frames, got {frames}:\n{rendered}"
        );
        assert!(
            rendered.contains("live"),
            "an in-flight frame rendered before the final event:\n{rendered}"
        );
        assert!(
            rendered.contains("configs 1000"),
            "final configs:\n{rendered}"
        );
        assert!(rendered.contains("done"), "final frame:\n{rendered}");
        std::fs::remove_file(&path).ok();
    }
}
