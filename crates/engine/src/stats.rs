//! Engine telemetry: relaxed-atomic counters on every dataplane and
//! control-plane edge, and a Prometheus/JSON exposition surface.
//!
//! All metric families are prefixed `poptrie_engine_` (the core crate's
//! optional lookup instrumentation owns the bare `poptrie_` families).
//! Counters are the sharded cache-padded primitives from
//! `poptrie-telemetry`, so workers on different cores never contend on a
//! statistics cache line.

use poptrie_telemetry::{Counter, Gauge, Log2Histogram, TelemetryRegistry};

/// Per-worker dataplane counters.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Packets (keys) looked up by this worker.
    pub packets: Counter,
    /// Batches drained from this worker's queue.
    pub batches: Counter,
    /// Batches left in this worker's ingress queue when it last took
    /// one.
    pub queue_depth: Gauge,
    /// Times the worker body panicked and was respawned in place.
    pub respawns: Counter,
    /// Times the worker parked after polling its empty queue for the
    /// whole idle budget (200 µs). Rising with the batch count means the
    /// gap between batches outlasts the budget, so batches pay a
    /// wake-up.
    pub parks: Counter,
    /// Version of the FIB snapshot this worker most recently served a
    /// batch against. Compared with
    /// [`EngineTelemetry::published_version`], this is the worker's
    /// snapshot age in publishes.
    pub snapshot_version: Gauge,
    /// Nanoseconds each batch spent queued before this worker picked it
    /// up (includes deadline-dropped batches — their wait is exactly why
    /// they were dropped).
    pub queue_wait_ns: Log2Histogram,
    /// Nanoseconds of service time per served batch: from pop through
    /// snapshot acquire and `lookup_batch`.
    pub service_ns: Log2Histogram,
    /// Batches dropped at pop because their queue wait exceeded the
    /// deadline ([`QosPolicy::Deadline`](crate::QosPolicy::Deadline)).
    pub deadline_dropped_batches: Counter,
    /// Packets in deadline-dropped batches.
    pub deadline_dropped_packets: Counter,
}

/// All engine counters, shared by workers, the control-plane writer,
/// and the ingress handles. Obtain from
/// [`Engine::telemetry`](crate::Engine::telemetry).
#[derive(Debug)]
pub struct EngineTelemetry {
    workers: Vec<WorkerStats>,
    /// Batches accepted into some worker queue.
    pub submitted_batches: Counter,
    /// Batches refused because every eligible queue was full
    /// (backpressure shedding, counted at the ingress edge).
    pub dropped_batches: Counter,
    /// Packets in refused batches — the packet-granular face of
    /// [`dropped_batches`](Self::dropped_batches), so
    /// `offered == delivered + deadline_dropped + refused` reconciles
    /// exactly at packet level.
    pub dropped_packets: Counter,
    /// Distribution of accepted batch sizes (keys per batch).
    pub batch_size: Log2Histogram,
    /// RCU snapshots published by the control-plane writer.
    pub publishes: Counter,
    /// Route-update events consumed from the control channel.
    pub update_events: Counter,
    /// Events that changed the RIB (effective updates).
    pub updates_applied: Counter,
    /// Events merged away by per-batch duplicate-prefix coalescing.
    pub updates_coalesced: Counter,
    /// Route updates refused at the control channel (channel full).
    pub control_dropped: Counter,
    /// Convergence lag per consumed route-update event: nanoseconds from
    /// [`Control::send`](crate::Control::send) accepting the update to
    /// the writer publishing the snapshot containing it.
    pub convergence_ns: Log2Histogram,
    /// Writer panics (poisoned burst or publish hook) recovered by
    /// respawning the writer loop in place.
    pub writer_respawns: Counter,
    /// Version of the most recently published FIB snapshot.
    pub published_version: Gauge,
    /// VRF-keyed batches served by workers (a subset of the per-worker
    /// batch totals; see
    /// [`Ingress::try_submit_vrf`](crate::Ingress::try_submit_vrf)).
    pub vrf_batches: Counter,
    /// Packets in VRF-keyed batches.
    pub vrf_packets: Counter,
    /// Route-update events the writer applied to VRF tables (disjoint
    /// from [`updates_applied`](Self::updates_applied), which counts
    /// the engine's own FIB).
    pub vrf_updates: Counter,
}

impl EngineTelemetry {
    /// Fresh zeroed counters for `workers` worker threads.
    pub(crate) fn new(workers: usize) -> Self {
        EngineTelemetry {
            workers: (0..workers).map(|_| WorkerStats::default()).collect(),
            submitted_batches: Counter::new(),
            dropped_batches: Counter::new(),
            dropped_packets: Counter::new(),
            batch_size: Log2Histogram::new(),
            publishes: Counter::new(),
            update_events: Counter::new(),
            updates_applied: Counter::new(),
            updates_coalesced: Counter::new(),
            control_dropped: Counter::new(),
            convergence_ns: Log2Histogram::new(),
            writer_respawns: Counter::new(),
            published_version: Gauge::new(),
            vrf_batches: Counter::new(),
            vrf_packets: Counter::new(),
            vrf_updates: Counter::new(),
        }
    }

    /// Counters for worker `i`.
    pub fn worker(&self, i: usize) -> &WorkerStats {
        &self.workers[i]
    }

    /// All per-worker counter blocks, indexed by worker.
    pub fn workers(&self) -> &[WorkerStats] {
        &self.workers
    }

    /// Total batches dropped by the deadline policy across all workers.
    pub fn total_deadline_dropped_batches(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.deadline_dropped_batches.get())
            .sum()
    }

    /// Total packets dropped by the deadline policy across all workers.
    pub fn total_deadline_dropped_packets(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.deadline_dropped_packets.get())
            .sum()
    }

    /// Element-wise sum of every worker's queue-wait histogram buckets —
    /// feed to [`Log2Histogram::quantile_of_counts`] for engine-wide
    /// tail quantiles.
    pub fn merged_queue_wait(&self) -> [u64; poptrie_telemetry::LOG2_BUCKETS] {
        Self::merge(self.workers.iter().map(|w| &w.queue_wait_ns))
    }

    /// Element-wise sum of every worker's service-time histogram buckets.
    pub fn merged_service(&self) -> [u64; poptrie_telemetry::LOG2_BUCKETS] {
        Self::merge(self.workers.iter().map(|w| &w.service_ns))
    }

    fn merge<'a>(
        hists: impl Iterator<Item = &'a Log2Histogram>,
    ) -> [u64; poptrie_telemetry::LOG2_BUCKETS] {
        let mut out = [0u64; poptrie_telemetry::LOG2_BUCKETS];
        for h in hists {
            for (o, c) in out.iter_mut().zip(h.counts().iter()) {
                *o += c;
            }
        }
        out
    }

    /// Total packets looked up across all workers.
    pub fn total_packets(&self) -> u64 {
        self.workers.iter().map(|w| w.packets.get()).sum()
    }

    /// Total batches drained across all workers.
    pub fn total_batches(&self) -> u64 {
        self.workers.iter().map(|w| w.batches.get()).sum()
    }

    /// Materialize every engine metric into an exposition registry
    /// (`poptrie_engine_*` families, one labelled sample per worker).
    pub fn registry(&self) -> TelemetryRegistry {
        let mut reg = TelemetryRegistry::new();
        for (i, w) in self.workers.iter().enumerate() {
            let idx = i.to_string();
            let labels: &[(&str, &str)] = &[("worker", idx.as_str())];
            reg.counter(
                "poptrie_engine_packets_total",
                "Packets looked up, per worker.",
                labels,
                w.packets.get(),
            );
            reg.counter(
                "poptrie_engine_batches_total",
                "Packet batches drained, per worker.",
                labels,
                w.batches.get(),
            );
            reg.gauge(
                "poptrie_engine_queue_depth",
                "Momentary ingress queue depth, per worker.",
                labels,
                w.queue_depth.get() as f64,
            );
            reg.counter(
                "poptrie_engine_worker_respawns_total",
                "Worker panics recovered by in-place respawn.",
                labels,
                w.respawns.get(),
            );
            reg.counter(
                "poptrie_engine_worker_parks_total",
                "Times the worker parked after polling its empty queue for the idle budget.",
                labels,
                w.parks.get(),
            );
            reg.gauge(
                "poptrie_engine_worker_snapshot_version",
                "FIB snapshot version last served, per worker.",
                labels,
                w.snapshot_version.get() as f64,
            );
            reg.counter(
                "poptrie_engine_deadline_dropped_batches_total",
                "Batches dropped at pop because their queue wait exceeded the deadline.",
                labels,
                w.deadline_dropped_batches.get(),
            );
            reg.counter(
                "poptrie_engine_deadline_dropped_packets_total",
                "Packets in deadline-dropped batches.",
                labels,
                w.deadline_dropped_packets.get(),
            );
            for (name, h) in [
                ("poptrie_engine_queue_wait_ns", &w.queue_wait_ns),
                ("poptrie_engine_service_ns", &w.service_ns),
            ] {
                reg.log2_histogram(
                    name,
                    "Per-batch latency in nanoseconds (log2 buckets), per worker.",
                    labels,
                    &h.counts(),
                    h.sum(),
                );
            }
        }
        reg.counter(
            "poptrie_engine_submitted_batches_total",
            "Batches accepted into a worker queue.",
            &[],
            self.submitted_batches.get(),
        );
        reg.counter(
            "poptrie_engine_dropped_batches_total",
            "Batches shed at ingress because every queue was full.",
            &[],
            self.dropped_batches.get(),
        );
        reg.counter(
            "poptrie_engine_dropped_packets_total",
            "Packets in batches shed at ingress.",
            &[],
            self.dropped_packets.get(),
        );
        reg.counter(
            "poptrie_engine_publishes_total",
            "RCU snapshots published by the control-plane writer.",
            &[],
            self.publishes.get(),
        );
        reg.counter(
            "poptrie_engine_update_events_total",
            "Route-update events consumed from the control channel.",
            &[],
            self.update_events.get(),
        );
        reg.counter(
            "poptrie_engine_updates_applied_total",
            "Route-update events that changed the RIB.",
            &[],
            self.updates_applied.get(),
        );
        reg.counter(
            "poptrie_engine_updates_coalesced_total",
            "Route-update events merged away by per-batch coalescing.",
            &[],
            self.updates_coalesced.get(),
        );
        reg.counter(
            "poptrie_engine_control_dropped_total",
            "Route updates refused at the full control channel.",
            &[],
            self.control_dropped.get(),
        );
        reg.counter(
            "poptrie_engine_writer_respawns_total",
            "Writer panics recovered by in-place respawn.",
            &[],
            self.writer_respawns.get(),
        );
        reg.log2_histogram(
            "poptrie_engine_convergence_ns",
            "Route-update convergence lag in nanoseconds (send to snapshot publish, log2 buckets).",
            &[],
            &self.convergence_ns.counts(),
            self.convergence_ns.sum(),
        );
        reg.gauge(
            "poptrie_engine_published_version",
            "Version of the most recently published FIB snapshot.",
            &[],
            self.published_version.get() as f64,
        );
        reg.counter(
            "poptrie_engine_vrf_batches_total",
            "VRF-keyed packet batches served by workers.",
            &[],
            self.vrf_batches.get(),
        );
        reg.counter(
            "poptrie_engine_vrf_packets_total",
            "Packets in VRF-keyed batches.",
            &[],
            self.vrf_packets.get(),
        );
        reg.counter(
            "poptrie_engine_vrf_updates_total",
            "Route-update events applied to VRF tables by the writer.",
            &[],
            self.vrf_updates.get(),
        );
        reg.log2_histogram(
            "poptrie_engine_batch_size",
            "Keys per accepted batch (log2 buckets).",
            &[],
            &self.batch_size.counts(),
            self.batch_size.sum(),
        );
        reg
    }
}
