//! # lbsa-support — zero-dependency infrastructure
//!
//! The workspace is built to compile **offline**: no crates.io access is
//! assumed. This crate supplies the small, self-contained pieces that would
//! otherwise come from external crates:
//!
//! * [`rng`] — a seeded, reproducible PRNG (SplitMix64-seeded
//!   xoshiro256\*\*) replacing `rand::rngs::StdRng` for schedulers, outcome
//!   resolvers, sampling, and randomized tests;
//! * [`hash`] — the Fx multiply-xor hasher, used by the explorer's interner
//!   and sharded dedup map where hashing fixed-size integer keys is hot;
//! * [`bench`] — a micro-benchmark harness API-compatible with the subset
//!   of Criterion the `lbsa-bench` suite uses (`benchmark_group`,
//!   `bench_function`, `bench_with_input`, `iter`, `iter_batched`), with
//!   JSON result emission for perf trajectories;
//! * [`check`] — a tiny property-test runner (seeded random cases with a
//!   reproducing-seed panic message) replacing the proptest harness;
//! * [`json`] — an ordered JSON document model with deterministic emission
//!   and a strict parser, replacing `serde_json` for the `reports/*.json`
//!   experiment artifacts;
//! * [`obs`] — the tracing/metrics layer (`Tracer`, pluggable sinks, relaxed
//!   atomic counters/gauges, and the live-metrics `Registry` with
//!   OpenMetrics rendering) the exploration engine threads through its hot
//!   phases, replacing `tracing` + `tracing-subscriber` + a metrics crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod check;
pub mod hash;
pub mod json;
pub mod obs;
pub mod rng;
