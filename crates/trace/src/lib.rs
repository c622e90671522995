//! # poptrie-trace
//!
//! A flight recorder for the Poptrie forwarding stack. Aggregate
//! counters (`poptrie-telemetry`) say *how much*; this crate says
//! *where and when*: which batch waited, which dispatch tier served it,
//! which snapshot version a worker adopted, and how one BGP UPDATE
//! flowed through the engine writer to a published snapshot and to the
//! first lookup served against it.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when absent.** Consumers gate every call site behind
//!    the `observe` cargo feature, so the default build contains no
//!    recorder code at all — CI greps the release artifacts to prove it.
//! 2. **Cheap enough to leave on.** One SPSC ring per recording thread
//!    ([`Recorder::register`]), fixed 32-byte binary events, a
//!    deterministic 1-in-N sampling gate ([`RingWriter::tick`]), and
//!    bounded memory with overwrite-oldest semantics.
//! 3. **Explainable traces.** Span IDs thread one route update from BGP
//!    acceptance ([`EventKind::SpanAccept`]) through writer apply and
//!    publish ([`EventKind::Publish`]) to the first worker lookup on the
//!    new snapshot, turning `EngineReport` convergence percentiles into
//!    inspectable event chains.
//! 4. **Memory-hierarchy attribution.** [`PerfGroup`] wraps Linux
//!    `perf_event_open` (cycles, instructions, L1d/LLC read misses,
//!    branch misses) behind a graceful fallback, so a harness can
//!    attribute counter deltas to lookup phases per dispatch tier.
//!
//! Drained rings export as Chrome trace-event JSON
//! ([`chrome_trace_json`]) loadable in Perfetto, and the recorder's own
//! counters join the shared `TelemetryRegistry` export path
//! ([`Recorder::registry`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod event;
mod perf;
mod ring;

pub use chrome::chrome_trace_json;
pub use event::{pack_worker_tier, unpack_worker_tier, EventKind, TraceEvent};
pub use perf::{PerfCounts, PerfGroup};
pub use ring::RingSnapshot;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use poptrie_telemetry::TelemetryRegistry;

/// Recorder construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Events retained per ring (rounded up to a power of two, minimum
    /// 8). Memory per ring is `capacity × 40` bytes, fixed at
    /// registration.
    pub capacity: usize,
    /// Sampling rate: record 1 in `sample` batches (minimum 1 = record
    /// everything). The gate is a deterministic per-writer counter, so
    /// identical workloads sample identically.
    pub sample: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 4096,
            sample: 1,
        }
    }
}

struct Shared {
    config: TraceConfig,
    epoch: Instant,
    rings: Mutex<Vec<Arc<ring::Ring>>>,
    next_span: AtomicU64,
}

/// The recorder: a registry of per-thread event rings sharing one
/// epoch, one sampling rate, and one span-ID allocator. Clones are
/// shallow — every handle sees the same rings.
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl core::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Recorder")
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// A recorder with the given ring capacity and sampling rate.
    pub fn new(config: TraceConfig) -> Self {
        Recorder {
            shared: Arc::new(Shared {
                config: TraceConfig {
                    capacity: config.capacity,
                    sample: config.sample.max(1),
                },
                epoch: Instant::now(),
                rings: Mutex::new(Vec::new()),
                next_span: AtomicU64::new(1),
            }),
        }
    }

    /// A recorder with default capacity (4096 events/ring) recording
    /// every event (sample = 1).
    pub fn with_defaults() -> Self {
        Self::new(TraceConfig::default())
    }

    /// The configured 1-in-N sampling rate.
    pub fn sample(&self) -> u64 {
        self.shared.config.sample
    }

    /// Register a new ring named `name` and return its single-producer
    /// writer. Each recording thread registers its own ring; the
    /// returned handle deliberately does not implement `Sync`, so the
    /// SPSC contract is enforced at compile time.
    pub fn register(&self, name: &str) -> RingWriter {
        let ring = Arc::new(ring::Ring::new(name, self.shared.config.capacity));
        match self.shared.rings.lock() {
            Ok(mut g) => g.push(Arc::clone(&ring)),
            Err(poisoned) => poisoned.into_inner().push(Arc::clone(&ring)),
        }
        RingWriter {
            ring,
            shared: Arc::clone(&self.shared),
            count: Cell::new(0),
        }
    }

    /// Nanoseconds since the recorder epoch.
    pub fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// Allocate a fresh convergence span ID (monotonic from 1; 0 means
    /// "no span" everywhere).
    pub fn next_span(&self) -> u64 {
        self.shared.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Snapshot every registered ring, in registration order. Safe to
    /// call while writers are recording: slots mid-overwrite are
    /// skipped, never surfaced torn.
    pub fn drain(&self) -> Vec<RingSnapshot> {
        let rings = match self.shared.rings.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        rings.iter().map(ring::snapshot_of).collect()
    }

    /// The recorder's own counters as a `poptrie_trace_*` registry
    /// slice, so traces and metrics share one export path.
    pub fn registry(&self) -> TelemetryRegistry {
        let snaps = self.drain();
        let mut reg = TelemetryRegistry::new();
        reg.gauge(
            "poptrie_trace_rings",
            "Event rings registered with the recorder.",
            &[],
            snaps.len() as f64,
        );
        reg.gauge(
            "poptrie_trace_sample",
            "Configured 1-in-N sampling rate.",
            &[],
            self.sample() as f64,
        );
        reg.counter(
            "poptrie_trace_events_total",
            "Events recorded across all rings (monotonic, pre-overwrite).",
            &[],
            snaps.iter().map(|s| s.recorded).sum(),
        );
        reg.counter(
            "poptrie_trace_overwritten_total",
            "Events lost to ring overwrite across all rings.",
            &[],
            snaps.iter().map(|s| s.overwritten).sum(),
        );
        reg.counter(
            "poptrie_trace_sampled_out_total",
            "Events suppressed by the sampling gate across all rings.",
            &[],
            snaps.iter().map(|s| s.sampled_out).sum(),
        );
        reg
    }
}

/// The single-producer handle to one ring. Not `Sync` (the sampling
/// counter is a [`Cell`]), so two threads can never share one — each
/// recording thread registers its own ring.
pub struct RingWriter {
    ring: Arc<ring::Ring>,
    shared: Arc<Shared>,
    count: Cell<u64>,
}

impl core::fmt::Debug for RingWriter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingWriter")
            .field("ring", &self.ring.name)
            .finish_non_exhaustive()
    }
}

impl RingWriter {
    /// The deterministic sampling gate: returns `true` on the 1st,
    /// `N+1`th, `2N+1`th… call (for sampling rate `N`). Call once per
    /// *unit of work* (a batch, a burst) and record all of that unit's
    /// events when it passes, so sampled traces stay internally
    /// coherent instead of mixing events from different batches.
    pub fn tick(&self) -> bool {
        let c = self.count.get();
        self.count.set(c + 1);
        if c.is_multiple_of(self.shared.config.sample) {
            true
        } else {
            self.ring.sampled_out.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Record an event stamped with the current time. Unconditional —
    /// pair with [`RingWriter::tick`] for sampled recording.
    pub fn record(&self, kind: EventKind, span: u64, arg: u64, aux: u32) {
        self.record_at(
            self.shared.epoch.elapsed().as_nanos() as u64,
            kind,
            span,
            arg,
            aux,
        );
    }

    /// Record an event with an explicit recorder-epoch timestamp (for
    /// events whose true time was captured earlier, like ingress
    /// stamps, placed on this clock by their distance from
    /// [`RingWriter::now_ns`]).
    pub fn record_at(&self, ts_ns: u64, kind: EventKind, span: u64, arg: u64, aux: u32) {
        self.ring.push(TraceEvent::new(ts_ns, kind, span, arg, aux));
    }

    /// Nanoseconds since the recorder epoch (same clock as
    /// [`Recorder::now_ns`]).
    pub fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests;
