//! Shared harness code for the `repro` binary and the Criterion benches.
//!
//! The library half of `poptrie-bench` knows how to build every algorithm
//! of the paper's evaluation from a dataset, measure lookup rates in Mlps
//! (the unit of Figures 8–9, Tables 2–3 and 5–6) and per-lookup cycle
//! distributions (§4.6), format paper-style result tables, and write the
//! `results/BENCH_*.json` artifacts.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithms;
pub mod artifact;
pub mod measure;
pub mod report;

pub use algorithms::{build_all_v4, build_v4, Algo, BuildOutcome};
pub use artifact::{append_history, last_comparable, write_artifact};
pub use measure::{cycle_samples, measure_mlps, measure_mlps_keys, CycleSample, MeasureConfig};
pub use report::Table;

#[cfg(test)]
mod tests;
