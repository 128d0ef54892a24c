//! Lightweight tracing and metrics for the exploration engine.
//!
//! The model checker's hot phases — shard interning, orbit
//! canonicalization, work-stealing deques and steals, witness extraction
//! and replay — are invisible from the outside: aggregates say
//! *what* happened, not *where the time went*. This module supplies the
//! observability layer the rest of the workspace threads through those
//! phases:
//!
//! * [`Tracer`] — a cheap, clonable handle that emits span-style
//!   [`Event`]s to a pluggable [`TraceSink`]. The default handle is
//!   **inert** ([`Tracer::disabled`]): `enabled()` is a single `Option`
//!   check and [`Tracer::emit_with`] never builds its payload, so an
//!   untraced run pays near-zero overhead.
//! * [`TraceSink`] implementations — [`NoopSink`], human-readable
//!   [`StderrSink`], a JSONL trace writer ([`JsonlSink`], one compact JSON
//!   object per line, the `reports/<id>.trace.jsonl` artifact format), and
//!   an in-memory collector for tests ([`MemorySink`]).
//! * [`Counter`] / [`Gauge`] / [`TimerNs`] — relaxed atomic counters,
//!   level gauges, and nanosecond accumulators for always-on metrics
//!   (interner shard hits/misses, transition-memo hits, frontier depth,
//!   orbit-canonicalization time) that are safe to bump from concurrent
//!   expansion workers.
//! * [`Registry`] — a shared, lock-light registry of *named* live metrics.
//!   Engines register the counters and gauges they already bump under
//!   dotted names (`explore.configs`, `ws.steals`, `mem.index_bytes`);
//!   the registry lock is held only to register or snapshot, never on the
//!   bump path, so a background watcher can [`Registry::snapshot`] a run
//!   mid-flight or render an OpenMetrics text exposition
//!   ([`Registry::render_prometheus`]) without perturbing it.
//!
//! ## Event model
//!
//! An [`Event`] is a name, a monotonic per-tracer sequence number, a
//! microsecond timestamp relative to the tracer's epoch, and a JSON object
//! of fields. Phases with duration emit a single event at phase *end*
//! carrying the measured duration as a field (`…_us`), rather than paired
//! begin/end events — one line per phase keeps JSONL traces greppable and
//! the sink contract trivial.
//!
//! ## Overhead policy
//!
//! Anything on a per-successor path must be gated on
//! [`Tracer::enabled`] (e.g. per-call canonicalization timing) or use a
//! relaxed atomic at worst (counters). Per-level and per-run events are
//! unconditionally cheap. The committed perf gates (`perf_smoke`) run with
//! the inert handle and bound the total instrumentation cost.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One trace event: a named point (or completed span) in an instrumented
/// run.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic sequence number within the emitting [`Tracer`].
    pub seq: u64,
    /// Microseconds since the tracer's epoch (its creation).
    pub t_us: u64,
    /// Event name, dot-namespaced by subsystem (`explore.begin`, `level`,
    /// `ws.steal`, `witness.extract`, …).
    pub name: &'static str,
    /// Structured payload; always a JSON object.
    pub fields: Json,
}

impl Event {
    /// Serializes the event as one flat JSON object: `seq`, `t_us`,
    /// `event`, then every payload field. This is the JSONL line format.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object()
            .set("seq", self.seq)
            .set("t_us", self.t_us)
            .set("event", self.name);
        if let Json::Obj(members) = &self.fields {
            for (k, v) in members {
                doc = doc.set(k, v.clone());
            }
        }
        doc
    }
}

/// Where trace events go. Implementations must be safe to call from
/// concurrent expansion workers; ordering across threads is whatever the
/// sequence numbers say, not arrival order.
pub trait TraceSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &Event);
    /// Flushes any buffering. Default: nothing to flush.
    fn flush(&self) {}
}

/// A sink that drops every event — the explicit form of what a disabled
/// [`Tracer`] does implicitly (prefer [`Tracer::disabled`], which also
/// skips payload construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn emit(&self, _event: &Event) {}
}

/// Human-readable tracing to stderr, one line per event.
#[derive(Clone, Copy, Debug, Default)]
pub struct StderrSink;

impl TraceSink for StderrSink {
    fn emit(&self, event: &Event) {
        eprintln!(
            "trace [{:>9}us] {:<18} {}",
            event.t_us,
            event.name,
            event.fields.compact()
        );
    }
}

/// How many events a [`JsonlSink`] buffers before forcing a flush. Live
/// followers (`obs_top --follow`) see the file advance at least this
/// often; `progress` events flush immediately so a dashboard's heartbeat
/// never sits in a `BufWriter`.
pub const JSONL_FLUSH_EVERY: u64 = 64;

/// JSONL trace writer: each event becomes one compact JSON object on its
/// own line (see [`Event::to_json`]). Write errors are swallowed —
/// observability must never take down the run it observes.
///
/// The writer is buffered but **tail-friendly**: it flushes every
/// [`JSONL_FLUSH_EVERY`] events and on every `progress` event (plus
/// [`flush`](TraceSink::flush) and `Drop`), so a concurrent reader of the
/// growing file only ever sees whole lines go stale, never a run that
/// looks frozen until exit.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    unflushed: AtomicU64,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(std::io::BufWriter::new(file)),
            unflushed: AtomicU64::new(0),
        })
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut out = self.out.lock().expect("trace sink poisoned");
        let _ = writeln!(out, "{}", event.to_json().compact());
        let pending = self.unflushed.fetch_add(1, Ordering::Relaxed) + 1;
        if event.name == "progress" || pending >= JSONL_FLUSH_EVERY {
            self.unflushed.store(0, Ordering::Relaxed);
            let _ = out.flush();
        }
    }

    fn flush(&self) {
        self.unflushed.store(0, Ordering::Relaxed);
        let _ = self.out.lock().expect("trace sink poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// In-memory event collector for tests: clone the sink before handing it
/// to a [`Tracer`], then read [`MemorySink::events`] afterwards.
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A snapshot of every event collected so far, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// The names of every collected event, in emission order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .iter()
            .map(|e| e.name)
            .collect()
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

struct TracerCore {
    sink: Box<dyn TraceSink>,
    epoch: Instant,
    seq: AtomicU64,
}

/// A clonable tracing handle. Disabled by default; when enabled, every
/// [`Tracer::emit`] stamps the event with a sequence number and the
/// microseconds since the tracer was created, then hands it to the sink.
///
/// Clones share the sink, the epoch, and the sequence counter, so one
/// tracer can be threaded through the explorer, the verdict layer, and the
/// runtime and still produce one totally-ordered event stream.
#[derive(Clone, Default)]
pub struct Tracer {
    core: Option<Arc<TracerCore>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.core {
            None => f.write_str("Tracer(disabled)"),
            Some(core) => write!(
                f,
                "Tracer(enabled, {} events)",
                core.seq.load(Ordering::Relaxed)
            ),
        }
    }
}

impl Tracer {
    /// The inert handle: `enabled()` is false, every emit is a no-op, and
    /// [`Tracer::emit_with`] never runs its payload closure.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer { core: None }
    }

    /// A tracer writing to `sink`, with its epoch set to now.
    #[must_use]
    pub fn new(sink: impl TraceSink + 'static) -> Tracer {
        Tracer {
            core: Some(Arc::new(TracerCore {
                sink: Box::new(sink),
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// `true` if events actually go anywhere. Instrumentation with a
    /// nontrivial cost to *prepare* (per-call timers, payload allocation)
    /// must check this first.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Emits one event. `fields` must be a JSON object (or `Json::Null`
    /// for field-less events). Call sites that allocate to build `fields`
    /// should prefer [`Tracer::emit_with`].
    pub fn emit(&self, name: &'static str, fields: Json) {
        let Some(core) = &self.core else { return };
        let event = Event {
            seq: core.seq.fetch_add(1, Ordering::Relaxed),
            t_us: u64::try_from(core.epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
            name,
            fields,
        };
        core.sink.emit(&event);
    }

    /// Emits one event, building the payload only when the tracer is
    /// enabled — the zero-overhead form for hot call sites.
    pub fn emit_with(&self, name: &'static str, fields: impl FnOnce() -> Json) {
        if self.enabled() {
            self.emit(name, fields());
        }
    }

    /// Number of events emitted through this tracer (and its clones) so
    /// far. Zero for a disabled tracer.
    #[must_use]
    pub fn events_emitted(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.seq.load(Ordering::Relaxed))
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        if let Some(core) = &self.core {
            core.sink.flush();
        }
    }
}

/// A relaxed atomic event counter, safe to bump from concurrent workers.
/// Always-on metrics (shard hits/misses, memo hits) use this: one relaxed
/// RMW per event is cheap next to the hash-map probe it annotates.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A relaxed atomic level gauge: a value that goes up *and* down (frontier
/// depth, live heap bytes, parked workers), where [`Counter`] only
/// accumulates. Safe to set from one place and read from a watcher thread,
/// or to add/sub from concurrent workers.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Sets the gauge to `v`, saturating at `i64::MAX` (the convenient
    /// form for `usize` sizes and byte counts).
    pub fn set_usize(&self, v: usize) {
        self.set(i64::try_from(v).unwrap_or(i64::MAX));
    }

    /// Adds `n` (which may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A relaxed atomic duration accumulator (nanosecond resolution), for
/// timers fed from concurrent workers. Reading the clock around the timed
/// region is the caller's responsibility — and should be gated on
/// [`Tracer::enabled`] when the region is a per-successor hot path.
#[derive(Debug, Default)]
pub struct TimerNs(AtomicU64);

impl TimerNs {
    /// A timer at zero.
    #[must_use]
    pub fn new() -> TimerNs {
        TimerNs::default()
    }

    /// Accumulates one measured duration.
    pub fn record(&self, d: Duration) {
        self.0.fetch_add(
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// The accumulated total.
    #[must_use]
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets in a [`HistogramNs`]: bucket `i` (for
/// `1 <= i < 63`) counts durations in `[2^(i-1), 2^i - 1]` nanoseconds,
/// bucket `0` counts zero-length measurements, and the last bucket absorbs
/// everything from `2^62` ns up.
pub const HIST_BUCKETS: usize = 64;

/// A lock-light latency histogram with logarithmic (power-of-two)
/// nanosecond buckets.
///
/// Recording is one relaxed atomic increment — safe to feed from
/// concurrent expansion workers without a mutex — and per-worker
/// histograms [`merge`](HistogramNs::merge) into a run-wide one at
/// assembly time. Quantiles ([`p50`](HistogramNs::p50),
/// [`p95`](HistogramNs::p95), [`p99`](HistogramNs::p99)) are estimated as
/// the midpoint of the bucket containing the requested rank, so they carry
/// at most one octave of error — plenty for the "where did the time go"
/// questions the trace observatory asks, at a fraction of the cost of
/// exact reservoirs.
pub struct HistogramNs {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistogramNs {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> HistogramNs {
        HistogramNs {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket index for a duration of `ns` nanoseconds.
    #[must_use]
    fn bucket_of(ns: u64) -> usize {
        ((u64::BITS - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// The inclusive `(low, high)` nanosecond range of bucket `i`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            _ if i >= HIST_BUCKETS - 1 => (1 << (HIST_BUCKETS - 2), u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one measurement of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[HistogramNs::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one measured duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every count from `other` into `self` — how per-worker
    /// histograms fold into the run-wide view.
    pub fn merge(&self, other: &HistogramNs) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Total number of recorded measurements.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The estimated `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the
    /// midpoint of the bucket holding the rank-`ceil(q·count)` sample.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let (lo, hi) = HistogramNs::bucket_bounds(i);
                return lo + (hi - lo) / 2;
            }
        }
        let (lo, hi) = HistogramNs::bucket_bounds(HIST_BUCKETS - 1);
        lo + (hi - lo) / 2
    }

    /// Estimated median, in nanoseconds.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile, in nanoseconds.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile, in nanoseconds.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Serializes the histogram as a nested JSON object:
    /// `{count, p50_ns, p95_ns, p99_ns, buckets: {"<low_ns>": count, …}}`
    /// with only non-empty buckets listed, low bound ascending. This is
    /// the shape embedded in the `lbsa-report/v2` metrics object (and the
    /// shape `exp_report --metrics` flattens with dotted keys).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut buckets = Json::object();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets = buckets.set(&HistogramNs::bucket_bounds(i).0.to_string(), n);
            }
        }
        Json::object()
            .set("count", self.count())
            .set("p50_ns", self.p50())
            .set("p95_ns", self.p95())
            .set("p99_ns", self.p99())
            .set("buckets", buckets)
    }
}

impl Default for HistogramNs {
    fn default() -> HistogramNs {
        HistogramNs::new()
    }
}

impl Clone for HistogramNs {
    fn clone(&self) -> HistogramNs {
        let copy = HistogramNs::new();
        copy.merge(self);
        copy
    }
}

impl std::fmt::Debug for HistogramNs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HistogramNs(count={}, p50={}ns, p95={}ns, p99={}ns)",
            self.count(),
            self.p50(),
            self.p95(),
            self.p99()
        )
    }
}

/// One named live metric held by a [`Registry`]: a shared handle to a
/// [`Counter`], [`Gauge`], [`TimerNs`], or [`HistogramNs`]. The `Arc` is
/// the whole design — the registry hands the *same* atomic to the engine
/// that bumps it and to the watcher that reads it, so registration costs
/// one lock round-trip and every update after that is lock-free.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A monotone event counter.
    Counter(Arc<Counter>),
    /// A level gauge (may go down).
    Gauge(Arc<Gauge>),
    /// A nanosecond accumulator.
    Timer(Arc<TimerNs>),
    /// A latency histogram.
    Histogram(Arc<HistogramNs>),
}

impl Metric {
    /// The metric's current scalar value: count, level, or accumulated
    /// nanoseconds. Histograms report their sample count.
    #[must_use]
    pub fn value(&self) -> i64 {
        match self {
            Metric::Counter(c) => i64::try_from(c.get()).unwrap_or(i64::MAX),
            Metric::Gauge(g) => g.get(),
            Metric::Timer(t) => i64::try_from(t.total().as_nanos()).unwrap_or(i64::MAX),
            Metric::Histogram(h) => i64::try_from(h.count()).unwrap_or(i64::MAX),
        }
    }

    /// The OpenMetrics type keyword for this metric kind.
    #[must_use]
    fn prom_type(&self) -> &'static str {
        match self {
            Metric::Counter(_) | Metric::Timer(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "summary",
        }
    }
}

/// A shared, lock-light registry of named live metrics.
///
/// Names are dot-namespaced by subsystem (`explore.configs`,
/// `ws.steals`, `sample.runs`, `mem.interner_bytes`). The accessors
/// ([`counter`](Registry::counter), [`gauge`](Registry::gauge), …) are
/// get-or-register: the first call under a name creates the metric, later
/// calls return the same shared handle — so an engine and a dashboard
/// agree on one atomic without coordinating. The internal lock guards
/// only the name table; bumping a handed-out handle never takes it.
///
/// Clones share the table ([`Registry`] is a handle, like [`Tracer`]).
///
/// # Panics
///
/// The accessors panic when a name is already registered *as a different
/// kind* — that is a programming error (two subsystems fighting over one
/// name), not a runtime condition.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    fn table(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// The counter named `name`, registering it at zero on first sight.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut table = self.table();
        match table
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a counter"),
        }
    }

    /// The gauge named `name`, registering it at zero on first sight.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut table = self.table();
        match table
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a gauge"),
        }
    }

    /// The timer named `name`, registering it at zero on first sight.
    #[must_use]
    pub fn timer(&self, name: &str) -> Arc<TimerNs> {
        let mut table = self.table();
        match table
            .entry(name.to_string())
            .or_insert_with(|| Metric::Timer(Arc::new(TimerNs::new())))
        {
            Metric::Timer(t) => Arc::clone(t),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a timer"),
        }
    }

    /// The histogram named `name`, registering it empty on first sight.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<HistogramNs> {
        let mut table = self.table();
        match table
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramNs::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a histogram"),
        }
    }

    /// Looks up a metric by exact name without registering anything.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.table().get(name).cloned()
    }

    /// Every registered name, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.table().keys().cloned().collect()
    }

    /// A point-in-time snapshot of every metric as one flat JSON object,
    /// keys sorted. Counters and gauges become integers, timers become
    /// `<name>` in nanoseconds, histograms embed their
    /// [`HistogramNs::to_json`] object. The snapshot is *per-metric*
    /// atomic (each value is one relaxed load), not cross-metric — a
    /// watcher reading mid-run may see counter A ahead of counter B.
    #[must_use]
    pub fn snapshot(&self) -> Json {
        let table = self.table();
        let mut doc = Json::object();
        for (name, metric) in table.iter() {
            doc = match metric {
                Metric::Histogram(h) => doc.set(name, h.to_json()),
                other => doc.set(name, other.value()),
            };
        }
        doc
    }

    /// Renders the registry in the OpenMetrics / Prometheus text
    /// exposition format: dotted names become underscore-separated, each
    /// metric gets a `# TYPE` line, counters and timers get the `_total`
    /// suffix the format reserves for monotone series, and histograms
    /// render as summaries with `quantile` labels. Deterministic: names
    /// are emitted sorted.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let table = self.table();
        let mut out = String::new();
        for (name, metric) in table.iter() {
            let base: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let _ = writeln!(out, "# TYPE {base} {}", metric.prom_type());
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{base}_total {}", c.get());
                }
                Metric::Timer(t) => {
                    let _ = writeln!(out, "{base}_total {}", duration_ns_u64(t.total()));
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{base} {}", g.get());
                }
                Metric::Histogram(h) => {
                    for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
                        let _ = writeln!(out, "{base}{{quantile=\"{q}\"}} {v}");
                    }
                    let _ = writeln!(out, "{base}_count {}", h.count());
                }
            }
        }
        out
    }
}

/// A duration in whole nanoseconds, saturating at `u64::MAX`.
fn duration_ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit("x", Json::object());
        let mut built = false;
        t.emit_with("y", || {
            built = true;
            Json::object()
        });
        assert!(!built, "payload must not be built when disabled");
        assert_eq!(t.events_emitted(), 0);
        t.flush();
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        let t = Tracer::new(sink.clone());
        assert!(t.enabled());
        t.emit("a", Json::object().set("k", 1i64));
        let t2 = t.clone();
        t2.emit("b", Json::Null);
        t.emit("c", Json::object());
        let events = sink.events();
        assert_eq!(sink.names(), vec!["a", "b", "c"]);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "clones share one sequence"
        );
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert_eq!(t.events_emitted(), 3);
        assert_eq!(events[0].to_json().get("k"), Some(&Json::Int(1)));
        assert_eq!(
            events[0].to_json().get("event").and_then(Json::as_str),
            Some("a")
        );
    }

    #[test]
    fn concurrent_emission_keeps_sequence_numbers_distinct() {
        let sink = MemorySink::new();
        let t = Tracer::new(sink.clone());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        t.emit("tick", Json::object());
                    }
                });
            }
        });
        let mut seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..400).collect::<Vec<u64>>());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!(
            "lbsa-obs-test-{}-{:?}.trace.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let t = Tracer::new(JsonlSink::create(&path).expect("temp file"));
        t.emit("begin", Json::object().set("threads", 4usize));
        t.emit("end", Json::object().set("ok", true));
        t.flush();
        let text = std::fs::read_to_string(&path).expect("trace written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let doc = Json::parse(line).expect("well-formed JSONL line");
            assert!(doc.get("event").and_then(Json::as_str).is_some());
            assert!(doc.get("seq").is_some() && doc.get("t_us").is_some());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn counters_and_timers_accumulate() {
        let c = Counter::new();
        c.bump();
        c.add(41);
        assert_eq!(c.get(), 42);
        let timer = TimerNs::new();
        timer.record(Duration::from_micros(3));
        timer.record(Duration::from_micros(4));
        assert_eq!(timer.total(), Duration::from_micros(7));
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = HistogramNs::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0, "empty histogram reports zero");
        h.record_ns(0);
        h.record_ns(1);
        h.record_ns(3);
        h.record(Duration::from_nanos(1024));
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 5);
        let doc = h.to_json();
        let buckets = doc.get("buckets").expect("buckets object");
        assert_eq!(buckets.get("0").and_then(Json::as_i64), Some(1));
        assert_eq!(buckets.get("1").and_then(Json::as_i64), Some(1));
        assert_eq!(buckets.get("2").and_then(Json::as_i64), Some(1));
        assert_eq!(buckets.get("1024").and_then(Json::as_i64), Some(1));
        assert_eq!(
            buckets
                .get(&(1u64 << 62).to_string())
                .and_then(Json::as_i64),
            Some(1),
            "saturating top bucket catches u64::MAX"
        );
        assert!(doc.get("p50_ns").is_some() && doc.get("count").is_some());
    }

    #[test]
    fn histogram_quantiles_stay_within_one_octave() {
        let h = HistogramNs::new();
        for _ in 0..90 {
            h.record_ns(1_000); // bucket [512, 1023]
        }
        for _ in 0..10 {
            h.record_ns(1_000_000); // bucket [524288, 1048575]
        }
        let p50 = h.p50();
        assert!(
            (512..=1023).contains(&p50),
            "p50 {p50} must land in the 1µs bucket"
        );
        let p99 = h.p99();
        assert!(
            (524_288..=1_048_575).contains(&p99),
            "p99 {p99} must land in the 1ms bucket"
        );
        assert!(h.p95() <= p99 && p50 <= h.p95(), "quantiles are monotone");
    }

    #[test]
    fn histogram_merge_is_additive() {
        let a = HistogramNs::new();
        let b = HistogramNs::new();
        for i in 0..50u64 {
            a.record_ns(100 + i);
            b.record_ns(10_000 + i);
        }
        let merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 100);
        assert_eq!(a.count(), 50, "merge leaves the source untouched");
        assert!(
            merged.p95() > a.p95(),
            "tail mass from b must pull the merged p95 up"
        );
    }

    #[test]
    fn histogram_concurrent_recording_is_lossless() {
        let h = HistogramNs::new();
        std::thread::scope(|s| {
            for worker in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record_ns(worker * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn jsonl_sink_flushes_periodically_for_live_tailing() {
        let path = std::env::temp_dir().join(format!(
            "lbsa-obs-tail-{}-{:?}.trace.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let t = Tracer::new(JsonlSink::create(&path).expect("temp file"));
        // Below the flush threshold nothing is promised; a `progress`
        // event must force the buffered prefix out immediately.
        for i in 0..5u64 {
            t.emit("tick", Json::object().set("i", i));
        }
        t.emit("progress", Json::object().set("configs", 5u64));
        let text = std::fs::read_to_string(&path).expect("trace readable mid-run");
        assert_eq!(text.lines().count(), 6, "progress event flushes the buffer");
        // Crossing JSONL_FLUSH_EVERY flushes without any progress event.
        for i in 0..JSONL_FLUSH_EVERY {
            t.emit("tick", Json::object().set("i", i));
        }
        let text = std::fs::read_to_string(&path).expect("trace readable mid-run");
        assert!(
            text.lines().count() >= 6 + JSONL_FLUSH_EVERY as usize,
            "periodic flush keeps the file advancing"
        );
        for line in text.lines() {
            assert!(
                Json::parse(line).is_ok(),
                "concurrently-read file yields only whole JSONL lines"
            );
        }
        drop(t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("explore.configs");
        let b = reg.clone().counter("explore.configs");
        a.add(3);
        b.bump();
        assert_eq!(a.get(), 4, "both handles bump one atomic");
        let g = reg.gauge("explore.frontier_depth");
        g.set(17);
        g.sub(2);
        assert_eq!(g.get(), 15);
        reg.timer("explore.canon_ns")
            .record(Duration::from_nanos(7));
        reg.histogram("explore.level_ns").record_ns(100);
        let mut names = reg.names();
        names.sort();
        assert_eq!(
            names,
            vec![
                "explore.canon_ns",
                "explore.configs",
                "explore.frontier_depth",
                "explore.level_ns"
            ]
        );
        assert!(matches!(
            reg.get("explore.configs"),
            Some(Metric::Counter(_))
        ));
        assert!(reg.get("absent").is_none());
    }

    #[test]
    fn registry_snapshot_is_coherent_under_concurrent_writers() {
        let reg = Registry::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|w| {
                    let reg = reg.clone();
                    s.spawn(move || {
                        let c = reg.counter("w.events");
                        let g = reg.gauge("w.depth");
                        for i in 0..5_000i64 {
                            c.bump();
                            g.set(i);
                        }
                        reg.counter(&format!("w.{w}.done")).bump();
                    })
                })
                .collect();
            let watcher = {
                let reg = reg.clone();
                let done = &done;
                s.spawn(move || {
                    // A watcher snapshotting mid-run: counters never
                    // decrease across snapshots and every snapshot is a
                    // coherent object.
                    let mut last = 0i64;
                    while !done.load(Ordering::Relaxed) {
                        let snap = reg.snapshot();
                        if let Some(v) = snap.get("w.events").and_then(Json::as_i64) {
                            assert!(v >= last, "counter went backwards: {v} < {last}");
                            last = v;
                        }
                        std::thread::yield_now();
                    }
                })
            };
            for h in writers {
                h.join().expect("writer panicked");
            }
            done.store(true, Ordering::Relaxed);
            watcher.join().expect("watcher panicked");
        });
        let snap = reg.snapshot();
        assert_eq!(snap.get("w.events").and_then(Json::as_i64), Some(20_000));
        for w in 0..4 {
            assert_eq!(
                snap.get(&format!("w.{w}.done")).and_then(Json::as_i64),
                Some(1)
            );
        }
    }

    #[test]
    fn prometheus_rendering_follows_the_exposition_format() {
        let reg = Registry::new();
        reg.counter("explore.configs").add(42);
        reg.gauge("mem.interner_bytes").set(1024);
        reg.timer("explore.canon").record(Duration::from_nanos(99));
        reg.histogram("ws.task_ns").record_ns(1000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE explore_configs counter\nexplore_configs_total 42\n"));
        assert!(text.contains("# TYPE mem_interner_bytes gauge\nmem_interner_bytes 1024\n"));
        assert!(text.contains("# TYPE explore_canon counter\nexplore_canon_total 99\n"));
        assert!(text.contains("# TYPE ws_task_ns summary\n"));
        assert!(text.contains("ws_task_ns{quantile=\"0.5\"}"));
        assert!(text.contains("ws_task_ns_count 1\n"));
        // Dotted names sort before rendering, so output is deterministic.
        let first = text.lines().next().unwrap();
        assert_eq!(first, "# TYPE explore_canon counter");
    }

    #[test]
    fn noop_and_stderr_sinks_accept_events() {
        let event = Event {
            seq: 0,
            t_us: 1,
            name: "x",
            fields: Json::object(),
        };
        NoopSink.emit(&event);
        NoopSink.flush();
        // StderrSink just writes a line; smoke-test it doesn't panic.
        StderrSink.emit(&event);
    }
}
