//! ttvbench — how long the lbsa model checker takes to reach a verdict.
//!
//! ```text
//! ttvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per process, closed loop: one check at a time. The process
//! sets the workload up `SETUP_REPS` times (inputs plus a warm-up check),
//! then runs timed checks for `S` seconds. Every check goes through the
//! program's public checking API and must report the verdict and counts
//! pinned in `workload.rs`; a mismatch counts as failed, and any failure
//! makes the process exit with code 1.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is the separate
//! traced run that prints the per-layer metrics (see `layers.rs`). The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A copy of each result,
//! stamped with the seed and host, goes to `out/<workload>[.trace].json`
//! next to this package's manifest; the traced run also writes its spans
//! there. Linux only.

mod host;
mod layers;
mod spans;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use layers::median;
use workload::{matches, pin, Instance, Kind, Size, FULL};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 10;
/// Fewest timed checks per run, however short `--seconds` is.
const MIN_CHECKS: usize = 3;

/// Every end-to-end metric, with its unit, in print order.
const END_TO_END: [(&str, &str); 4] = [
    ("check_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (42u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One run's result: the gate counts and the metrics, with units.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    spans: Option<spans::Spans>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The highest of a few standard percentiles with at least ten samples
/// beyond it, as `(percentile, value)`; `sorted` is in ascending order.
fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| {
            let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, sorted.len());
            (p, sorted[rank - 1])
        })
}

/// Runs one workload at `size` and prints its metrics to `out`.
fn run(
    kind: Kind,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut dyn Write,
) -> Report {
    let p = pin(kind, size, seed);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: inputs (and, for n-DAC, the symmetry group) plus a warm-up
    // check, repeated so `setup_s` is a median.
    let mut setups = Vec::new();
    let mut built = None;
    let mut first = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        let t0 = Instant::now();
        let inst = Instance::build(kind, size, seed);
        let seen = inst.check();
        setups.push(t0.elapsed().as_secs_f64());
        let group_ok = match &inst {
            Instance::Dac { group_order, .. } => *group_order == (1..size.dac_n).product::<usize>(),
            _ => true,
        };
        let first = *first.get_or_insert(seen);
        attempted += 1;
        failed += u64::from(!(group_ok && matches(&p, &first, &seen)));
        built = Some(inst);
    }
    let inst = built.expect("at least one set-up");
    let first = first.expect("at least one warm-up check");

    let nproc = host::nproc();
    let _ = writeln!(
        out,
        "ttvbench workload={} seed={seed}{} trace={} threads={} nproc={nproc} cpu=\"{}\"",
        kind.name(),
        if kind.seeded() {
            ""
        } else {
            " (unused: exhaustive, no random input)"
        },
        u8::from(trace),
        kind.threads(),
        host::cpu_model(),
    );
    let _ = writeln!(
        out,
        "verdict {} configs={} transitions={}",
        first.outcome, first.configs, first.transitions
    );

    let (metrics, spans): (Vec<(&str, f64, &str)>, _) = if trace {
        let t = layers::run(&inst, &p, &first, seconds);
        attempted += t.attempted;
        failed += t.failed;
        let _ = writeln!(
            out,
            "checks: untraced median {:.6} s, traced median {:.6} s",
            t.check_s, t.traced_check_s
        );
        let metrics = t
            .metrics
            .iter()
            .zip(layers::PER_LAYER)
            .map(|(&(name, value), (_, unit))| (name, value, unit))
            .collect();
        (metrics, Some(t.spans))
    } else {
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        let begun = Instant::now();
        while walls.len() < MIN_CHECKS || begun.elapsed().as_secs_f64() < seconds {
            let (seen, wall, cpu) = host::timed(|| inst.check());
            attempted += 1;
            failed += u64::from(!matches(&p, &first, &seen));
            walls.push(wall);
            cpus.push(cpu);
        }
        let mut sorted = walls.clone();
        sorted.sort_by(f64::total_cmp);
        let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
        let _ = writeln!(
            out,
            "check_s min {:.6} / q1 {:.6} / median {:.6} / q3 {:.6} / max {:.6} s over {} checks",
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            walls.len()
        );
        match tail(&sorted) {
            Some((pct, v)) => {
                let _ = writeln!(
                    out,
                    "check_s p{pct} = {v:.6} s (n={}; not gated)",
                    walls.len()
                );
            }
            None => {
                let _ = writeln!(out, "check_s: {} checks, too few for a tail", walls.len());
            }
        }
        let values = [
            median(&walls),
            median(&cpus),
            host::peak_rss_mb(),
            median(&setups),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect();
        (metrics, None)
    };
    for (name, value, unit) in &metrics {
        assert!(value.is_finite(), "{name} is not finite");
        let _ = writeln!(out, "metric {name} = {value:.6} {unit}");
    }
    let _ = writeln!(
        out,
        "fail_frac = {} ({failed}/{attempted} checks wrong)",
        failed as f64 / attempted as f64
    );
    Report {
        attempted,
        failed,
        metrics,
        spans,
    }
}

/// Writes the result record (and spans) under `out/` beside the manifest.
fn save(args: &Args, report: &Report) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}{}",
        args.kind.name(),
        if args.trace { ".trace" } else { "" }
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seeded\": {}, \"threads\": {}, \"nproc\": {}, \"cpu\": \"{}\", \"result\": {}}}\n",
        args.kind.name(),
        args.seed,
        args.kind.seeded(),
        args.kind.threads(),
        host::nproc(),
        host::cpu_model().replace('"', "'"),
        report.json()
    );
    std::fs::write(dir.join(format!("{stem}.json")), record)?;
    if let Some(spans) = &report.spans {
        spans.write(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ttvbench: {e}");
            eprintln!("usage: ttvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout();
    let report = run(
        args.kind,
        FULL,
        args.seed,
        args.seconds,
        args.trace,
        &mut stdout,
    );
    if let Err(e) = save(&args, &report) {
        eprintln!("ttvbench: could not write the result record: {e}");
    }
    println!("{}", report.json());
    if report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_support::json::Json;
    use workload::TOY;

    fn toy(kind: Kind, trace: bool) -> (Report, String) {
        let mut out = Vec::new();
        let report = run(kind, TOY, 7, 0.05, trace, &mut out);
        (report, String::from_utf8(out).expect("utf-8 output"))
    }

    fn assert_printed(text: &str, report: &Report, expected: &[(&str, &str)]) {
        for (name, unit) in expected {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("metric {name} = ")))
                .unwrap_or_else(|| panic!("{name} not printed:\n{text}"));
            assert!(line.ends_with(&format!(" {unit}")), "{line}");
        }
        let names: Vec<_> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<_> = expected.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        let json = Json::parse(&report.json()).expect("result line is JSON");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        for (name, unit) in expected {
            let m = json.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
    }

    #[test]
    fn every_workload_prints_every_end_to_end_metric() {
        for kind in Kind::ALL {
            let (report, text) = toy(kind, false);
            assert_eq!(report.failed, 0, "{}:\n{text}", kind.name());
            assert_printed(&text, &report, &END_TO_END);
        }
    }

    #[test]
    fn traced_runs_print_every_layer_and_stay_within_the_check() {
        for kind in Kind::ALL {
            let (report, text) = toy(kind, true);
            assert_eq!(report.failed, 0, "{}:\n{text}", kind.name());
            assert_printed(&text, &report, &layers::PER_LAYER);
            // The layer spans inside each traced check (explore,
            // graph_check) account for no more than the check itself.
            let spans = report.spans.as_ref().expect("traced run keeps spans");
            let checks = spans.nested_self_s("check");
            assert!(!checks.is_empty(), "{}: no traced checks", kind.name());
            for (check_s, layers_s) in checks {
                assert!(
                    layers_s <= check_s,
                    "{}: {layers_s} > {check_s}",
                    kind.name()
                );
                if kind != Kind::Vote {
                    assert!(layers_s > 0.0, "{}: no layer spans", kind.name());
                }
            }
        }
    }

    #[test]
    fn benchmark_json_names_what_the_benchmark_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&layers::PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(tail(&xs(9)), None);
        assert_eq!(tail(&xs(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&xs(40)), Some((75.0, 30.0)));
        assert_eq!(tail(&xs(1000)), Some((99.0, 990.0)));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_args(&args(
            "--workload vote_sampling --seed 3 --seconds 2 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Vote, 3, 2.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload kset_n9_seq --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload kset_n9_seq --seconds 0")).is_err());
    }
}
