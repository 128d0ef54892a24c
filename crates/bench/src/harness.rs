//! Shared harness for the `exp_*` experiment binaries.
//!
//! Every experiment binary used to carry its own preamble: build tables,
//! print them, exit. This module deduplicates that into one entry point,
//! [`run_experiment`], which additionally emits a structured JSON artifact
//! `reports/<exp_id>.json` (schema [`REPORT_SCHEMA`]) holding the
//! experiment's parameters, every table row, recorded
//! [`Verdict`]s (including replayable witnesses), the
//! explanatory notes, and the wall-clock time. The `exp_report` binary
//! aggregates those artifacts back into the markdown tables of
//! `EXPERIMENTS.md`.
//!
//! Stdout stays exactly what the binaries always printed — tables and
//! notes, in insertion order — so the rows remain byte-comparable against
//! `EXPERIMENTS.md`; the artifact path is announced on stderr.
//!
//! # Tracing and metrics
//!
//! Unless `--no-report` is given, every harnessed binary also opens a
//! [`JsonlSink`] at `<reports-dir>/<id>.trace.jsonl` and exposes the
//! corresponding [`Tracer`] via [`Experiment::tracer`]. Experiment bodies
//! hand it to the engine (`Explorer::with_trace`) so the artifact captures
//! the full span stream — `explore.begin`, per-level `level` events,
//! `verdict`, `witness.*`, `explore.end`. Scalar measurements
//! recorded via [`Experiment::metric`] land in the report's `metrics`
//! section (schema v2), which `exp_report --metrics` aggregates and diffs.
//!
//! # CLI
//!
//! Every harnessed binary accepts:
//!
//! * `--reports-dir DIR` — where to write the artifact (default
//!   `reports/`);
//! * `--no-report` — skip writing the artifact (and the trace);
//! * `--metrics-out FILE.prom` — additionally render the experiment's
//!   live-metrics [`Registry`] in the Prometheus text exposition format
//!   (bodies opt metrics in via [`Experiment::registry`], e.g.
//!   `Explorer::...` builders' `.registry(exp.registry())`);
//! * `--KEY VALUE` — experiment-specific parameters, read by the body via
//!   [`Experiment::arg`] / [`Experiment::arg_usize`] (e.g. `exp_t2_dac
//!   --max-n 2`).

use lbsa_explorer::Verdict;
use lbsa_hierarchy::report::Table;
use lbsa_support::json::Json;
use lbsa_support::obs::{JsonlSink, Registry, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Schema tag written into new report artifacts.
pub const REPORT_SCHEMA: &str = "lbsa-report/v2";

/// The previous schema tag; [`validate_report`] still accepts it (v1
/// artifacts simply predate the `metrics` section).
pub const REPORT_SCHEMA_V1: &str = "lbsa-report/v1";

/// One stdout section, kept in insertion order.
enum Section {
    Table(Table),
    Note(String),
}

/// The in-flight state of one experiment run: what to print, what to
/// record, and the parsed command line.
pub struct Experiment {
    id: String,
    title: String,
    cli: Vec<(String, String)>,
    reports_dir: Option<PathBuf>,
    params: Json,
    sections: Vec<Section>,
    verdicts: Vec<(String, Json)>,
    metrics: Json,
    tracer: Tracer,
    trace_path: Option<PathBuf>,
    registry: Registry,
    metrics_out: Option<PathBuf>,
}

impl Experiment {
    fn from_env(id: &str, title: &str) -> Experiment {
        let mut cli = Vec::new();
        let mut reports_dir = Some(PathBuf::from("reports"));
        let mut metrics_out = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--no-report" {
                reports_dir = None;
            } else if let Some(key) = arg.strip_prefix("--") {
                let Some(value) = args.next() else {
                    eprintln!("{id}: missing value for --{key}");
                    std::process::exit(2);
                };
                if key == "reports-dir" {
                    if reports_dir.is_some() {
                        reports_dir = Some(PathBuf::from(value));
                    }
                } else if key == "metrics-out" {
                    metrics_out = Some(PathBuf::from(value));
                } else {
                    cli.push((key.to_string(), value));
                }
            } else {
                eprintln!("{id}: unexpected argument {arg:?} (flags are --key value)");
                std::process::exit(2);
            }
        }
        // Open the trace artifact up front so the body's tracer clones all
        // share one sink. A sink that cannot be opened downgrades to the
        // disabled tracer — observability must never fail the experiment.
        let mut tracer = Tracer::disabled();
        let mut trace_path = None;
        if let Some(dir) = &reports_dir {
            let path = dir.join(format!("{id}.trace.jsonl"));
            match std::fs::create_dir_all(dir).and_then(|()| JsonlSink::create(&path)) {
                Ok(sink) => {
                    tracer = Tracer::new(sink);
                    trace_path = Some(path);
                }
                Err(e) => eprintln!("{id}: cannot open trace {}: {e}", path.display()),
            }
        }
        Experiment {
            id: id.to_string(),
            title: title.to_string(),
            cli,
            reports_dir,
            params: Json::object(),
            sections: Vec::new(),
            verdicts: Vec::new(),
            metrics: Json::object(),
            tracer,
            trace_path,
            registry: Registry::new(),
            metrics_out,
        }
    }

    /// The raw value of command-line parameter `--name`, if given.
    #[must_use]
    pub fn arg(&self, name: &str) -> Option<&str> {
        self.cli
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name` parsed as `usize`, or `default` when absent.
    /// Exits with a diagnostic when the value does not parse.
    #[must_use]
    pub fn arg_usize(&self, name: &str, default: usize) -> usize {
        match self.arg(name) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("{}: --{name} wants an integer, got {raw:?}", self.id);
                std::process::exit(2);
            }),
        }
    }

    /// Records one experiment parameter into the artifact.
    pub fn param(&mut self, key: &str, value: impl Into<Json>) {
        self.params = std::mem::replace(&mut self.params, Json::Null).set(key, value);
    }

    /// Adds a table: printed to stdout in order, recorded in the artifact.
    pub fn table(&mut self, table: Table) {
        self.sections.push(Section::Table(table));
    }

    /// Adds an explanatory note line: printed after preceding tables,
    /// recorded in the artifact.
    pub fn note(&mut self, line: impl Into<String>) {
        self.sections.push(Section::Note(line.into()));
    }

    /// Records a labelled [`Verdict`] (with its witness, when any) into
    /// the artifact.
    pub fn verdict(&mut self, label: &str, verdict: &Verdict) {
        self.verdicts.push((label.to_string(), verdict.to_json()));
    }

    /// The experiment's tracer, writing to `<reports-dir>/<id>.trace.jsonl`
    /// (disabled under `--no-report`). Hand clones to the engine:
    /// `Explorer::new(&p, &objects).with_trace(exp.tracer())`.
    #[must_use]
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// The experiment's live-metrics registry. Hand clones to the engine
    /// builders (`Exploration::registry`) so the exhaustive / WS /
    /// sampling engines publish their live counters and gauges here; the
    /// final snapshot lands in the report's `metrics.registry` object,
    /// and `--metrics-out FILE.prom` renders it in the Prometheus text
    /// format.
    #[must_use]
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// Records one scalar measurement into the report's `metrics` section.
    /// Dotted keys (`"explore.n5.elapsed_us"`) keep the section flat and
    /// greppable; `exp_report --metrics` aggregates and diffs them.
    pub fn metric(&mut self, key: &str, value: impl Into<Json>) {
        self.metrics = std::mem::replace(&mut self.metrics, Json::Null).set(key, value);
    }

    fn to_json(&self, wall: Duration) -> Json {
        let tables: Vec<Json> = self
            .sections
            .iter()
            .filter_map(|s| match s {
                Section::Table(t) => Some(table_to_json(t)),
                Section::Note(_) => None,
            })
            .collect();
        let notes: Vec<Json> = self
            .sections
            .iter()
            .filter_map(|s| match s {
                Section::Note(n) => Some(Json::from(n.as_str())),
                Section::Table(_) => None,
            })
            .collect();
        let verdicts: Vec<Json> = self
            .verdicts
            .iter()
            .map(|(label, v)| {
                Json::object()
                    .set("label", label.as_str())
                    .set("verdict", v.clone())
            })
            .collect();
        let mut metrics = self.metrics.clone();
        metrics = metrics.set("trace_events", self.tracer.events_emitted());
        if let Some(path) = &self.trace_path {
            metrics = metrics.set("trace_file", path.display().to_string());
        }
        // The final registry snapshot rides into the v2 metrics section as
        // a nested object; `exp_report --metrics` flattens it to dotted
        // `registry.<name>` keys.
        if !self.registry.names().is_empty() {
            metrics = metrics.set("registry", self.registry.snapshot());
        }
        Json::object()
            .set("schema", REPORT_SCHEMA)
            .set("id", self.id.as_str())
            .set("title", self.title.as_str())
            .set("parameters", self.params.clone())
            .set("tables", Json::Arr(tables))
            .set("verdicts", Json::Arr(verdicts))
            .set("notes", Json::Arr(notes))
            .set("metrics", metrics)
            .set("wall_clock_ms", wall.as_secs_f64() * 1e3)
    }
}

/// Runs one experiment: parses the CLI, executes `body`, prints the
/// recorded tables and notes to stdout, and writes
/// `<reports-dir>/<id>.json`.
pub fn run_experiment(id: &str, title: &str, body: impl FnOnce(&mut Experiment)) {
    let mut exp = Experiment::from_env(id, title);
    let start = Instant::now();
    body(&mut exp);
    let wall = start.elapsed();
    for section in &exp.sections {
        match section {
            Section::Table(t) => println!("{t}"),
            Section::Note(n) => println!("{n}"),
        }
    }
    exp.tracer.flush();
    if let Some(path) = &exp.metrics_out {
        match std::fs::write(path, exp.registry.render_prometheus()) {
            Ok(()) => eprintln!("metrics: {}", path.display()),
            Err(e) => eprintln!("{id}: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &exp.trace_path {
        eprintln!(
            "trace: {} ({} events)",
            path.display(),
            exp.tracer.events_emitted()
        );
    }
    let Some(dir) = exp.reports_dir.clone() else {
        return;
    };
    let doc = exp.to_json(wall);
    debug_assert!(validate_report(&doc).is_ok());
    let path = dir.join(format!("{id}.json"));
    let write = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.pretty()));
    match write {
        Ok(()) => eprintln!("report: {}", path.display()),
        Err(e) => {
            eprintln!("{id}: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Serializes a [`Table`] for the artifact.
#[must_use]
pub fn table_to_json(table: &Table) -> Json {
    Json::object()
        .set("title", table.title())
        .set(
            "headers",
            Json::Arr(
                table
                    .headers()
                    .iter()
                    .map(|h| Json::from(h.as_str()))
                    .collect(),
            ),
        )
        .set(
            "rows",
            Json::Arr(
                table
                    .rows()
                    .iter()
                    .map(|row| {
                        Json::Arr(row.iter().map(|cell| Json::from(cell.as_str())).collect())
                    })
                    .collect(),
            ),
        )
}

/// Rebuilds a [`Table`] from its artifact form.
///
/// # Errors
///
/// Returns a description of the first shape mismatch.
pub fn table_from_json(doc: &Json) -> Result<Table, String> {
    let title = doc
        .get("title")
        .and_then(Json::as_str)
        .ok_or("table: missing string `title`")?;
    let headers: Vec<&str> = doc
        .get("headers")
        .and_then(Json::as_arr)
        .ok_or("table: missing array `headers`")?
        .iter()
        .map(|h| h.as_str().ok_or("table: non-string header"))
        .collect::<Result<_, _>>()?;
    let mut table = Table::new(title, headers);
    for row in doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("table: missing array `rows`")?
    {
        let cells: Vec<String> = row
            .as_arr()
            .ok_or("table: non-array row")?
            .iter()
            .map(|c| c.as_str().map(String::from).ok_or("table: non-string cell"))
            .collect::<Result<_, _>>()?;
        table.row(cells);
    }
    Ok(table)
}

/// Validates a report artifact against the `lbsa-report/v2` schema (or the
/// legacy `v1`, which differs only in lacking the required `metrics`
/// object).
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let field = |key: &str| doc.get(key).ok_or(format!("missing field `{key}`"));
    let v2 = match field("schema")?.as_str() {
        Some(REPORT_SCHEMA) => true,
        Some(REPORT_SCHEMA_V1) => false,
        Some(other) => return Err(format!("unknown schema {other:?}")),
        None => return Err("`schema` is not a string".into()),
    };
    match doc.get("metrics") {
        Some(m) if m.as_obj().is_none() => {
            return Err("`metrics` must be an object".into());
        }
        Some(_) => {}
        None if v2 => return Err("v2 report: missing `metrics` object".into()),
        None => {}
    }
    for key in ["id", "title"] {
        let v = field(key)?;
        if v.as_str().is_none_or(str::is_empty) {
            return Err(format!("`{key}` must be a non-empty string"));
        }
    }
    if field("parameters")?.as_obj().is_none() {
        return Err("`parameters` must be an object".into());
    }
    let tables = field("tables")?
        .as_arr()
        .ok_or("`tables` must be an array")?;
    for t in tables {
        table_from_json(t)?;
    }
    let verdicts = field("verdicts")?
        .as_arr()
        .ok_or("`verdicts` must be an array")?;
    for v in verdicts {
        validate_verdict(v)?;
    }
    let notes = field("notes")?.as_arr().ok_or("`notes` must be an array")?;
    if notes.iter().any(|n| n.as_str().is_none()) {
        return Err("`notes` must contain only strings".into());
    }
    if field("wall_clock_ms")?.as_f64().is_none() {
        return Err("`wall_clock_ms` must be a number".into());
    }
    Ok(())
}

/// Validates one labelled verdict entry of a report.
fn validate_verdict(doc: &Json) -> Result<(), String> {
    if doc
        .get("label")
        .and_then(Json::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("verdict: missing non-empty `label`".into());
    }
    let v = doc.get("verdict").ok_or("verdict: missing `verdict`")?;
    match v.get("outcome").and_then(Json::as_str) {
        Some("holds" | "violated" | "truncated" | "error") => {}
        Some("holds-sampled") => {
            let sampled = v
                .get("sampled")
                .ok_or("verdict: holds-sampled needs a `sampled` object")?;
            for key in ["runs", "quiescent"] {
                if sampled.get(key).and_then(Json::as_i64).is_none() {
                    return Err(format!("verdict: `sampled.{key}` must be an integer"));
                }
            }
            if sampled.get("confidence").and_then(Json::as_f64).is_none() {
                return Err("verdict: `sampled.confidence` must be a number".into());
            }
        }
        Some(other) => return Err(format!("verdict: unknown outcome {other:?}")),
        None => return Err("verdict: missing string `outcome`".into()),
    }
    let stats = v.get("stats").ok_or("verdict: missing `stats`")?;
    for key in ["configs", "transitions"] {
        if stats.get(key).and_then(Json::as_i64).is_none() {
            return Err(format!("verdict: `stats.{key}` must be an integer"));
        }
    }
    match v.get("witness") {
        Some(Json::Null) | None => Ok(()),
        Some(w) => {
            if w.get("kind").and_then(Json::as_str).is_none() {
                return Err("witness: missing string `kind`".into());
            }
            for key in ["schedule", "cycle"] {
                let steps = w
                    .get(key)
                    .and_then(Json::as_arr)
                    .ok_or(format!("witness: `{key}` must be an array"))?;
                for s in steps {
                    if s.get("pid").and_then(Json::as_i64).is_none()
                        || s.get("outcome").and_then(Json::as_i64).is_none()
                    {
                        return Err(format!("witness: malformed step in `{key}`"));
                    }
                }
            }
            if w.get("minimized").and_then(Json::as_bool).is_none() {
                return Err("witness: `minimized` must be a boolean".into());
            }
            if w.get("trace").and_then(Json::as_arr).is_none() {
                return Err("witness: `trace` must be an array".into());
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Json {
        let mut t = Table::new("T0 — sample", vec!["n", "verdict"]);
        t.row(vec!["2".into(), "holds".into()]);
        Json::object()
            .set("schema", REPORT_SCHEMA)
            .set("id", "exp_sample")
            .set("title", "sample")
            .set("parameters", Json::object().set("max_n", 2usize))
            .set("tables", Json::Arr(vec![table_to_json(&t)]))
            .set(
                "verdicts",
                Json::Arr(vec![Json::object().set("label", "n=2").set(
                    "verdict",
                    Json::object()
                        .set("outcome", "holds")
                        .set(
                            "stats",
                            Json::object()
                                .set("configs", 70usize)
                                .set("transitions", 84usize),
                        )
                        .set("witness", Json::Null),
                )]),
            )
            .set("notes", Json::Arr(vec![Json::from("a note")]))
            .set(
                "metrics",
                Json::object()
                    .set("trace_events", 12usize)
                    .set("explore.n2.elapsed_us", 1500usize),
            )
            .set("wall_clock_ms", 1.5)
    }

    #[test]
    fn sample_report_validates_and_round_trips() {
        let doc = sample_report();
        validate_report(&doc).unwrap();
        let parsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed, doc);
        validate_report(&parsed).unwrap();
    }

    #[test]
    fn holds_sampled_verdicts_validate() {
        let sampled_verdict = |sampled: Json| {
            sample_report().set(
                "verdicts",
                Json::Arr(vec![Json::object().set("label", "f8").set(
                    "verdict",
                    Json::object()
                        .set("outcome", "holds-sampled")
                        .set(
                            "stats",
                            Json::object()
                                .set("configs", 500usize)
                                .set("transitions", 9000usize),
                        )
                        .set("sampled", sampled),
                )]),
            )
        };
        let good = sampled_verdict(
            Json::object()
                .set("runs", 500usize)
                .set("quiescent", 480usize)
                .set("confidence", 0.994),
        );
        validate_report(&good).unwrap();

        let missing_confidence = sampled_verdict(
            Json::object()
                .set("runs", 500usize)
                .set("quiescent", 480usize),
        );
        assert!(validate_report(&missing_confidence)
            .unwrap_err()
            .contains("confidence"));

        let no_payload = sample_report().set(
            "verdicts",
            Json::Arr(vec![Json::object().set("label", "f8").set(
                "verdict",
                Json::object().set("outcome", "holds-sampled").set(
                    "stats",
                    Json::object()
                        .set("configs", 0usize)
                        .set("transitions", 0usize),
                ),
            )]),
        );
        assert!(validate_report(&no_payload)
            .unwrap_err()
            .contains("sampled"));
    }

    #[test]
    fn tables_round_trip_through_json() {
        let mut t = Table::new("X", vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        let back = table_from_json(&table_to_json(&t)).unwrap();
        assert_eq!(t, back);
        assert_eq!(t.to_string(), back.to_string());
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let missing = Json::object().set("schema", REPORT_SCHEMA);
        assert!(validate_report(&missing).is_err());

        let bad_schema = sample_report().set("schema", "nope/v9");
        assert!(validate_report(&bad_schema).unwrap_err().contains("schema"));

        let bad_outcome = sample_report().set(
            "verdicts",
            Json::Arr(vec![Json::object().set("label", "x").set(
                "verdict",
                Json::object().set("outcome", "perhaps").set(
                    "stats",
                    Json::object()
                        .set("configs", 0usize)
                        .set("transitions", 0usize),
                ),
            )]),
        );
        assert!(validate_report(&bad_outcome)
            .unwrap_err()
            .contains("outcome"));

        let bad_note = sample_report().set("notes", Json::Arr(vec![Json::from(3i64)]));
        assert!(validate_report(&bad_note).unwrap_err().contains("notes"));
    }

    #[test]
    fn schema_v1_validates_without_metrics_but_v2_requires_them() {
        let mut v1 = Json::object();
        if let Json::Obj(members) = sample_report() {
            for (k, v) in members {
                if k != "metrics" {
                    v1 = v1.set(&k, v);
                }
            }
        }
        let v1 = v1.set("schema", REPORT_SCHEMA_V1);
        validate_report(&v1).expect("v1 without metrics is legal");

        let v2_missing = v1.set("schema", REPORT_SCHEMA);
        assert!(validate_report(&v2_missing)
            .unwrap_err()
            .contains("metrics"));

        let bad_metrics = sample_report().set("metrics", Json::from("not an object"));
        assert!(validate_report(&bad_metrics)
            .unwrap_err()
            .contains("metrics"));
    }
}
