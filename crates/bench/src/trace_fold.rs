//! The one reading of a `*.trace.jsonl` that the trace tools share:
//! `obs_analyze` (post-mortem) and `obs_top` (live cockpit) both fold a
//! trace through [`TraceFold`], one line at a time.
//!
//! Malformed lines (a trace cut off mid-write, a tail racing its writer)
//! are skipped and counted, never fatal. Each work-stealing worker's
//! events fold into one [`WorkerTrace`]: its `ws.done` sign-off, whose
//! payload is the worker's `WorkerStats::to_json` row; its `ws.steal`
//! hits per victim; and the `ws.expand`/`ws.done` progress beats that
//! time its work.

use lbsa_support::json::Json;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;

/// One progress beat of a worker: a `ws.expand` event or the closing
/// `ws.done`, with the worker's cumulative counts at that instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Beat {
    /// Trace timestamp.
    pub t_us: i64,
    /// Configurations the worker had expanded.
    pub expanded: i64,
    /// Microseconds the worker had spent expanding (zero when untraced).
    pub busy_us: i64,
}

/// Everything a trace says about one work-stealing worker.
#[derive(Clone, Debug, Default)]
pub struct WorkerTrace {
    /// The worker's `ws.done` row, once it signed off, without the event
    /// envelope (`seq`, `t_us`, `event`).
    pub done: Option<Json>,
    /// Successful steals per victim worker id.
    pub victims: BTreeMap<i64, i64>,
    /// Progress beats, in trace order.
    pub beats: Vec<Beat>,
}

impl WorkerTrace {
    /// Configurations expanded so far: the latest count any beat or the
    /// sign-off reported.
    #[must_use]
    pub fn expanded(&self) -> i64 {
        let beats = self.beats.iter().map(|b| b.expanded).max().unwrap_or(0);
        beats.max(self.done_field("expanded"))
    }

    /// Steals so far: the hits attributed to victims, or the sign-off's
    /// count when a cut trace lost some of the hit events.
    #[must_use]
    pub fn steals(&self) -> i64 {
        let hits: i64 = self.victims.values().sum();
        hits.max(self.done_field("steals"))
    }

    /// Expansions per second over the last pair of beats that are apart
    /// in time; zero before there are two.
    #[must_use]
    pub fn rate_per_sec(&self) -> f64 {
        self.beats
            .windows(2)
            .rev()
            .find(|pair| pair[1].t_us > pair[0].t_us)
            .map_or(0.0, |pair| {
                pair[1].expanded.saturating_sub(pair[0].expanded) as f64 * 1_000_000.0
                    / pair[1].t_us.saturating_sub(pair[0].t_us) as f64
            })
    }

    /// A counter of the sign-off row; zero before it arrives or when the
    /// trace predates the counter.
    #[must_use]
    pub fn done_field(&self, key: &str) -> i64 {
        self.done
            .as_ref()
            .and_then(|d| d.get(key))
            .and_then(Json::as_i64)
            .unwrap_or(0)
    }
}

/// The fold of a whole trace, fed one line or event at a time.
#[derive(Clone, Debug, Default)]
pub struct TraceFold {
    /// Events parsed so far.
    pub events: usize,
    /// Non-blank lines that were not valid JSON, skipped.
    pub malformed: usize,
    /// First and last event timestamp seen.
    pub span: Option<(i64, i64)>,
    /// Per-worker folds, by worker id.
    pub workers: BTreeMap<i64, WorkerTrace>,
}

impl TraceFold {
    /// Parses and folds one JSONL line, returning the event. Blank lines
    /// return `None`; malformed ones are counted and return `None` too.
    pub fn ingest_line(&mut self, line: &str) -> Option<Json> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        match Json::parse(line) {
            Ok(event) => {
                self.ingest(&event);
                Some(event)
            }
            Err(_) => {
                self.malformed += 1;
                None
            }
        }
    }

    /// Folds one parsed event.
    pub fn ingest(&mut self, event: &Json) {
        self.events += 1;
        let t_us = event.get("t_us").and_then(Json::as_i64);
        if let Some(t) = t_us {
            self.span = Some(self.span.map_or((t, t), |(a, b)| (a.min(t), b.max(t))));
        }
        let name = event.get("event").and_then(Json::as_str).unwrap_or("");
        let Some(id) = event.get("worker").and_then(Json::as_i64) else {
            return;
        };
        let field = |key| event.get(key).and_then(Json::as_i64);
        match name {
            "ws.expand" | "ws.done" => {
                let worker = self.workers.entry(id).or_default();
                if let Some(t_us) = t_us {
                    worker.beats.push(Beat {
                        t_us,
                        expanded: field("expanded").unwrap_or(0),
                        busy_us: field("busy_us").unwrap_or(0),
                    });
                }
                if name == "ws.done" {
                    if let Some(members) = event.as_obj() {
                        let row = members
                            .iter()
                            .filter(|(k, _)| !matches!(k.as_str(), "seq" | "t_us" | "event"))
                            .cloned()
                            .collect();
                        worker.done = Some(Json::Obj(row));
                    }
                }
            }
            "ws.steal" if event.get("outcome").and_then(Json::as_str) == Some("hit") => {
                let worker = self.workers.entry(id).or_default();
                if let Some(victim) = field("victim") {
                    *worker.victims.entry(victim).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }
}

/// Streams the lines of `path` into `each`, one at a time, so memory holds
/// what the caller folds, never the raw file.
///
/// # Errors
///
/// Propagates I/O errors opening or reading the file.
pub fn read_lines(path: &Path, mut each: impl FnMut(&str)) -> std::io::Result<()> {
    let mut reader = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 {
        each(&line);
        line.clear();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_workers_steals_and_beats() {
        let mut fold = TraceFold::default();
        for line in [
            r#"{"seq":0,"t_us":0,"event":"explore.begin","threads":2}"#,
            r#"{"seq":1,"t_us":10,"event":"ws.expand","worker":0,"expanded":1,"busy_us":8}"#,
            r#"{"seq":2,"t_us":12,"event":"ws.steal","worker":1,"victim":0,"outcome":"hit"}"#,
            r#"{"seq":3,"t_us":13,"event":"ws.steal","worker":1,"outcome":"miss","spins":1}"#,
            r#"{"seq":4,"t_us":20,"event":"ws.expand","worker":0,"expanded":33,"busy_us":18}"#,
            r#"{"seq":5,"t_us":30,"event":"ws.done","worker":0,"expanded":40,"steals":0,"busy_us":25}"#,
            "",
            r#"{"seq":6,"t_us":31,"event":"ws.done","worker":1,"expa"#,
        ] {
            fold.ingest_line(line);
        }
        assert_eq!(fold.events, 6);
        assert_eq!(fold.malformed, 1, "the cut-off last line");
        assert_eq!(fold.span, Some((0, 30)));
        let w0 = &fold.workers[&0];
        assert_eq!(w0.beats.len(), 3);
        assert_eq!(w0.expanded(), 40);
        assert!((w0.rate_per_sec() - 700_000.0).abs() < 1e-6);
        let done = w0.done.as_ref().expect("worker 0 signed off");
        assert!(done.get("seq").is_none() && done.get("event").is_none());
        assert_eq!(done.get("worker").and_then(Json::as_i64), Some(0));
        let w1 = &fold.workers[&1];
        assert_eq!(w1.victims[&0], 1);
        assert_eq!(w1.steals(), 1);
        assert!(w1.done.is_none(), "its sign-off line was cut");
    }
}
