//! Runtime telemetry primitives for the Poptrie reproduction.
//!
//! The paper's evaluation (§4, Tables 3–6, Figures 8–12) is entirely about
//! observing what the structure does: per-lookup cost, node/leaf counts,
//! memory footprint, incremental-update work. The `repro` harness measures
//! those offline; this crate supplies the primitives that let a *live*
//! FIB serving lookups under churn report the same signals continuously:
//!
//! * [`Counter`] — a monotonically increasing event count, sharded across
//!   cache-line-padded relaxed atomics so concurrent forwarding threads
//!   never contend on one line;
//! * [`Gauge`] — a point-in-time value with `set`/`record_max` semantics
//!   (peak tracking for outstanding RCU snapshots, fragmentation levels);
//! * [`Histogram`] — a fixed-bucket distribution (trie descent depth,
//!   batch-lane fill), sharded like [`Counter`];
//! * [`Log2Histogram`] — power-of-two buckets plus a sum, for latency
//!   distributions in TSC cycles (§4.9's update cost);
//! * [`TelemetryRegistry`] — a materialized snapshot of metric values that
//!   renders as Prometheus text exposition format or as flat JSON.
//!
//! The primitives know nothing about Poptrie: the instrumented crate
//! (`poptrie` under its `observe` feature) declares `static` metrics,
//! increments them from the hot paths, and flushes them into a
//! [`TelemetryRegistry`] on demand. With the feature off, none of this
//! crate is linked at all — the zero-cost path is the *absence* of code,
//! not a runtime branch.
//!
//! # Memory-ordering contract
//!
//! All writes are `Ordering::Relaxed`: a metric read concurrent with
//! writers sees a value that was current at some recent instant, not a
//! linearizable cut across all metrics. That is the standard contract of
//! Prometheus-style scraping and is what keeps the increment cheap enough
//! to put inside a ~20-cycle lookup.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod counters;
mod registry;

pub use counters::{CachePadded, Counter, Gauge, Histogram, Log2Histogram, LOG2_BUCKETS, SHARDS};
pub use registry::{Metric, MetricValue, TelemetryRegistry};

#[cfg(test)]
mod tests;
