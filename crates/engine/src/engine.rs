//! The sharded forwarding engine: worker threads, the control-plane
//! writer, and their handles.
//!
//! ## Architecture
//!
//! ```text
//!                      ┌────────────┐   Arc<[K]> batches
//!   feeders ──────────▶│ per-worker │──▶ worker 0 ─┐
//!   (Ingress handles)  │  bounded   │──▶ worker 1 ─┤ lookup_batch against
//!                      │   queues   │──▶   ...     ─┤ an RCU FibSnapshot,
//!                      └────────────┘──▶ worker N ─┘ re-acquired per batch
//!
//!   route sources ────▶ bounded control channel ──▶ single writer thread
//!   (Control handles)      (RouteUpdate<K>)         coalesce → update_batch
//!                                                   → one publish per batch
//! ```
//!
//! Workers never take the writer lock: each batch runs against the
//! [`FibSnapshot`](poptrie::sync::FibSnapshot) current when the batch is
//! picked up, the paper's §3.5 read model. The single writer is the
//! paper's "single-threaded update operation": it drains the control
//! channel in bursts, coalesces duplicate-prefix updates (only the last
//! announce/withdraw per prefix survives — BGP bursts repeatedly touch
//! the same prefixes), applies the burst under one writer critical
//! section, and publishes exactly one snapshot per burst.
//!
//! Every queue is bounded; every producer edge is non-blocking and sheds
//! load with drop accounting rather than propagating backpressure into
//! the caller's thread. Workers are panic-isolated: a panicking batch
//! body is caught, counted, and the worker loop re-enters on the same OS
//! thread.
//!
//! On a NUMA machine the engine serves from one FIB replica per memory
//! node (replica 0 is the caller's `SharedFib`): each pinned worker
//! reads the replica local to its node, and the writer applies every
//! coalesced burst to all replicas in one iteration. Note that
//! out-of-band mutations of the primary (calling
//! `SharedFib::insert`/`set_batch_backend` directly after
//! [`Engine::start`]) bypass the writer and therefore do **not** reach
//! the other replicas — route all updates through [`Control`] when
//! replicas are in play, and set the dispatch backend before starting
//! the engine (replication copies it).

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use poptrie::sync::{BatchOutcome, PublishStats, RouteUpdate, SharedFib};
use poptrie::{SourceId, VrfId};
use poptrie_bitops::Bits;
use poptrie_rib::{NextHop, Prefix, NO_ROUTE};
use poptrie_vrf::VrfTable;

use poptrie_telemetry::Log2Histogram;

#[cfg(not(feature = "observe"))]
use no_recorder::{Recorder, RingWriter};
#[cfg(feature = "observe")]
use poptrie_trace::{pack_worker_tier, EventKind, Recorder, RingWriter};

/// The flight recorder's types in a build without `observe`. Both are
/// uninhabited, so `EngineConfig::recorder` and every thread's
/// `Option<&RingWriter>` are always `None`: the engine spawns each thread
/// with one call in every build, and the default build carries no
/// recorder code.
#[cfg(not(feature = "observe"))]
mod no_recorder {
    #[derive(Clone, Debug)]
    pub(crate) enum Recorder {}
    pub(crate) type RingWriter = Recorder;

    impl Recorder {
        pub(crate) fn register(&self, _name: &str) -> RingWriter {
            match *self {}
        }
    }
}

use crate::affinity;
use crate::queue::{Bounded, PushError, NO_SOURCE};
use crate::stats::EngineTelemetry;

/// Observer of every served batch: `(worker, keys, next_hops,
/// snapshot_version)`. Runs on the worker thread — keep it cheap.
pub type BatchHook<K> = Arc<dyn Fn(usize, &[K], &[NextHop], u64) + Send + Sync>;

/// Observer of every published update batch: the [`BatchOutcome`] and the
/// coalesced updates applied at that version, in application order. Runs
/// on the writer thread.
pub type PublishHook<K> = Arc<dyn Fn(BatchOutcome, &[RouteUpdate<K>]) + Send + Sync>;

/// One queued batch: its ingress timestamp (for queue-wait latency and
/// the deadline policy), the VRF it targets (`None` = the engine's own
/// FIB), and the keys.
type Stamped<K> = (Instant, Option<VrfId>, Arc<[K]>);

/// One queued route update: its [`Control::send`] timestamp (for the
/// convergence-lag histogram), the convergence span it belongs to (0 =
/// none; see [`Control::send_spanned`]), the VRF it targets (`None` =
/// the engine's own FIB), and the update itself. The span word rides
/// along unconditionally — it is 8 bytes per queued event and never
/// touched on the hot path — so the control-plane API is identical with
/// and without the `observe` feature.
type StampedUpdate<K> = (Instant, u64, Option<VrfId>, RouteUpdate<K>);

/// An out-of-range worker or source index handed to one of the engine's
/// indexed accessors ([`Engine::ingress_for`], [`Engine::inject_panic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadIndex {
    /// The index the caller asked for.
    pub index: usize,
    /// Number of valid entries (valid indices are `0..len`).
    pub len: usize,
}

impl core::fmt::Display for BadIndex {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "index {} out of range (len {})", self.index, self.len)
    }
}

impl std::error::Error for BadIndex {}

/// The per-worker batch queues, shared between the engine, its workers
/// and every [`Ingress`] handle.
type BatchQueues<K> = Arc<Vec<Arc<Bounded<Stamped<K>>>>>;

/// What happens when a batch cannot be served in time.
///
/// Under [`Refuse`](QosPolicy::Refuse) a full queue pushes back at
/// ingress: the feeder gets the batch back and decides (the original
/// backpressure-by-refusal model). Under
/// [`Deadline`](QosPolicy::Deadline) the queue still bounds admission,
/// but a batch that *was* admitted and then waited longer than the
/// deadline is dropped at pop instead of served late — the SLO stance
/// that a stale answer is worth less than the next fresh packet. Every
/// deadline drop is counted per worker and per source and reconciled in
/// [`EngineReport`]: `offered == delivered + deadline-dropped + refused`
/// holds exactly, at batch and at packet granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosPolicy {
    /// Shed at ingress only; everything admitted is served (default).
    Refuse,
    /// Drop admitted batches whose queue wait exceeds this deadline.
    Deadline(Duration),
}

/// Construction parameters for an [`Engine`]. Start from
/// [`EngineConfig::new`] and chain setters; defaults suit a synthetic
/// benchmark driver.
pub struct EngineConfig<K: Bits> {
    workers: usize,
    queue_capacity: usize,
    control_capacity: usize,
    coalesce_window: usize,
    pin_workers: bool,
    batch_delay: Duration,
    qos: QosPolicy,
    sources: Vec<(String, u32)>,
    numa_replicas: Option<usize>,
    vrfs: Option<Arc<VrfTable<K>>>,
    on_batch: Option<BatchHook<K>>,
    on_publish: Option<PublishHook<K>>,
    recorder: Option<Recorder>,
}

impl<K: Bits> core::fmt::Debug for EngineConfig<K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("control_capacity", &self.control_capacity)
            .field("coalesce_window", &self.coalesce_window)
            .field("pin_workers", &self.pin_workers)
            .field("batch_delay", &self.batch_delay)
            .field("qos", &self.qos)
            .field("sources", &self.sources)
            .field("numa_replicas", &self.numa_replicas)
            .field("vrfs", &self.vrfs)
            .finish_non_exhaustive()
    }
}

impl<K: Bits> EngineConfig<K> {
    /// A config for `workers` forwarding threads (minimum 1). Defaults:
    /// 64-batch ingress queues, 4096-event control channel, 256-event
    /// coalesce window, workers pinned round-robin to cores, no batch
    /// delay, no hooks.
    pub fn new(workers: usize) -> Self {
        EngineConfig {
            workers: workers.max(1),
            queue_capacity: 64,
            control_capacity: 4096,
            coalesce_window: 256,
            pin_workers: true,
            batch_delay: Duration::ZERO,
            qos: QosPolicy::Refuse,
            sources: Vec::new(),
            numa_replicas: None,
            vrfs: None,
            on_batch: None,
            on_publish: None,
            recorder: None,
        }
    }

    /// Ingress queue depth per worker, in batches (minimum 1).
    pub fn queue_capacity(mut self, batches: usize) -> Self {
        self.queue_capacity = batches.max(1);
        self
    }

    /// Control channel depth, in route-update events (minimum 1).
    pub fn control_capacity(mut self, events: usize) -> Self {
        self.control_capacity = events.max(1);
        self
    }

    /// Maximum events the writer drains, coalesces, and publishes as one
    /// snapshot (minimum 1).
    pub fn coalesce_window(mut self, events: usize) -> Self {
        self.coalesce_window = events.max(1);
        self
    }

    /// Pin worker `i` to core `i % cores` (`true` by default). Pinning is
    /// best-effort; unsupported platforms run unpinned.
    pub fn pin_workers(mut self, pin: bool) -> Self {
        self.pin_workers = pin;
        self
    }

    /// Sleep this long before serving each batch — a chaos knob
    /// simulating a slow egress path, used to exercise backpressure
    /// deterministically in tests. `Duration::ZERO` (default) disables.
    pub fn batch_delay(mut self, delay: Duration) -> Self {
        self.batch_delay = delay;
        self
    }

    /// What happens to batches that cannot be served in time (see
    /// [`QosPolicy`]; default [`QosPolicy::Refuse`]).
    pub fn qos(mut self, policy: QosPolicy) -> Self {
        self.qos = policy;
        self
    }

    /// Register a named traffic source with a relative `weight`
    /// (minimum 1). Queue slots are apportioned among the registered
    /// sources by largest-remainder: every source gets at least one
    /// slot, the rest are split in proportion to weight, and — as long
    /// as there are no more sources than slots — the quotas sum to
    /// exactly `queue_capacity`, so the weighted shares can never
    /// jointly oversubscribe a queue (see [`source_quotas`] for the
    /// degenerate more-sources-than-slots case). Under contention a
    /// source can fill at most its share of each queue, so a flooding
    /// source is refused while lighter ones still get in. Feed a
    /// registered source through [`Engine::ingress_for`]; the plain
    /// [`Engine::ingress`] handle remains unweighted and quota-exempt.
    pub fn source(mut self, name: &str, weight: u32) -> Self {
        self.sources.push((name.to_string(), weight.max(1)));
        self
    }

    /// Serve lookups from this many FIB replicas (minimum 1) instead of
    /// auto-detecting one replica per NUMA node. Replica 0 is always the
    /// `SharedFib` handed to [`Engine::start`]; the engine clones the
    /// others at startup and its writer applies every coalesced update
    /// burst to each, so all replicas converge after every burst. Mostly
    /// a testing override — the auto-detected value is right on real
    /// hardware.
    pub fn numa_replicas(mut self, replicas: usize) -> Self {
        self.numa_replicas = Some(replicas.max(1));
        self
    }

    /// Attach a multi-tenant VRF registry. Workers then accept
    /// VRF-keyed batches ([`Ingress::try_submit_vrf`]) served against
    /// the addressed tenant's snapshot, and the writer applies VRF-keyed
    /// route updates ([`Control::send_vrf`]) to the addressed tenant
    /// only — engine-wide coalescing still runs, but per `(VRF,
    /// prefix)`, so one tenant's churn never merges into another's.
    /// VRF tables are *not* NUMA-replicated: every worker reads the
    /// registry's single copy (the nodes stay tenant-private and small).
    pub fn vrfs(mut self, vrfs: Arc<VrfTable<K>>) -> Self {
        self.vrfs = Some(vrfs);
        self
    }

    /// Install a per-batch observer (see [`BatchHook`]).
    pub fn on_batch(mut self, hook: BatchHook<K>) -> Self {
        self.on_batch = Some(hook);
        self
    }

    /// Install a per-publish observer (see [`PublishHook`]).
    pub fn on_publish(mut self, hook: PublishHook<K>) -> Self {
        self.on_publish = Some(hook);
        self
    }

    /// Attach a flight recorder: every worker registers an event ring
    /// named `worker{i}` and the writer registers `writer`. Workers
    /// record the ingress → dequeue → lookup slice for 1-in-N sampled
    /// batches (N = the recorder's sample divisor) plus every snapshot
    /// adoption; the writer records every burst, spanned update apply,
    /// and per-replica publish. Only available with the `observe` feature
    /// — without it this method does not exist and the engine contains
    /// no recorder code at all.
    #[cfg(feature = "observe")]
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// Clonable dataplane feeder handle: submits packet batches to worker
/// queues. Obtained from [`Engine::ingress`].
pub struct Ingress<K: Bits> {
    queues: BatchQueues<K>,
    stats: Arc<EngineTelemetry>,
    next: Arc<AtomicUsize>,
    /// Source index this handle submits as ([`NO_SOURCE`] for the
    /// unweighted [`Engine::ingress`] handle).
    source: u32,
    /// Per-queue slot quota for this source (`usize::MAX` when
    /// unweighted).
    quota: usize,
    /// The engine's VRF registry, when one was attached — consulted to
    /// validate [`Ingress::try_submit_vrf`] ids at the edge.
    vrfs: Option<Arc<VrfTable<K>>>,
}

impl<K: Bits> Clone for Ingress<K> {
    fn clone(&self) -> Self {
        Ingress {
            queues: Arc::clone(&self.queues),
            stats: Arc::clone(&self.stats),
            next: Arc::clone(&self.next),
            source: self.source,
            quota: self.quota,
            vrfs: self.vrfs.clone(),
        }
    }
}

impl<K: Bits> core::fmt::Debug for Ingress<K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ingress")
            .field("workers", &self.queues.len())
            .field("source", &self.source)
            .field("quota", &self.quota)
            .finish_non_exhaustive()
    }
}

impl<K: Bits> Ingress<K> {
    /// Count one accepted batch of `n` packets on queue `worker`.
    fn count_accept(&self, worker: usize, n: u64, depth: usize) {
        self.stats.submitted_batches.inc();
        self.stats.batch_size.record(n);
        self.stats
            .worker(worker)
            .queue_depth
            .record_max(depth as u64);
        if self.source != NO_SOURCE {
            self.stats.sources()[self.source as usize]
                .submitted_batches
                .inc();
        }
    }

    /// Count one refused batch of `n` packets.
    fn count_refuse(&self, n: u64) {
        self.stats.dropped_batches.inc();
        self.stats.dropped_packets.add(n);
        if self.source != NO_SOURCE {
            self.stats.sources()[self.source as usize]
                .refused_batches
                .inc();
        }
    }

    /// Submit a batch to worker `worker`'s queue without blocking. On
    /// refusal (queue full, source quota exhausted, or engine shut down)
    /// the batch is handed back and the drop is **already counted** in
    /// [`dropped_batches`](EngineTelemetry::dropped_batches) /
    /// [`dropped_packets`](EngineTelemetry::dropped_packets).
    pub fn try_submit_to(&self, worker: usize, batch: Arc<[K]>) -> Result<(), Arc<[K]>> {
        let n = batch.len() as u64;
        match self.queues[worker].try_push_from(
            self.source,
            self.quota,
            (Instant::now(), None, batch),
        ) {
            Ok(depth) => {
                self.count_accept(worker, n, depth);
                Ok(())
            }
            Err(PushError::Full((_, _, b))) | Err(PushError::Closed((_, _, b))) => {
                self.count_refuse(n);
                Err(b)
            }
        }
    }

    /// Submit a batch addressed to VRF `vrf` (round-robin across workers
    /// like [`Ingress::try_submit`]). The id is validated against the
    /// engine's attached registry at this edge: an unknown id — or an
    /// engine started without [`EngineConfig::vrfs`] — refuses the batch
    /// with the drop already counted, exactly like a full queue. The
    /// serving worker resolves the tenant's own RCU snapshot per batch,
    /// so per-VRF lookup isolation matches the engine FIB's read model.
    pub fn try_submit_vrf(&self, vrf: VrfId, batch: Arc<[K]>) -> Result<usize, Arc<[K]>> {
        if self.vrfs.as_ref().is_none_or(|v| v.get(vrf).is_none()) {
            self.count_refuse(batch.len() as u64);
            return Err(batch);
        }
        let n = self.queues.len();
        let packets = batch.len() as u64;
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        let mut stamped = (Instant::now(), Some(vrf), batch);
        for i in 0..n {
            let w = (start + i) % n;
            match self.queues[w].try_push_from(self.source, self.quota, stamped) {
                Ok(depth) => {
                    self.count_accept(w, packets, depth);
                    return Ok(w);
                }
                Err(PushError::Full(s)) | Err(PushError::Closed(s)) => stamped = s,
            }
        }
        self.count_refuse(packets);
        Err(stamped.2)
    }

    /// Submit a batch to the next worker in round-robin order, skipping
    /// over full queues — load shifts away from a momentarily slow worker
    /// instead of being shed. Returns the accepting worker's index; on
    /// refusal (every queue full or quota-exhausted, or shutdown) the
    /// batch is handed back and the drop is already counted.
    pub fn try_submit(&self, batch: Arc<[K]>) -> Result<usize, Arc<[K]>> {
        let n = self.queues.len();
        let packets = batch.len() as u64;
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        let mut stamped = (Instant::now(), None, batch);
        for i in 0..n {
            let w = (start + i) % n;
            match self.queues[w].try_push_from(self.source, self.quota, stamped) {
                Ok(depth) => {
                    self.stats.submitted_batches.inc();
                    self.stats.worker(w).queue_depth.record_max(depth as u64);
                    if self.source != NO_SOURCE {
                        self.stats.sources()[self.source as usize]
                            .submitted_batches
                            .inc();
                    }
                    return Ok(w);
                }
                Err(PushError::Full(s)) | Err(PushError::Closed(s)) => stamped = s,
            }
        }
        self.count_refuse(packets);
        Err(stamped.2)
    }

    /// Number of worker queues this handle feeds.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// The per-queue slot quota this handle submits under
    /// (`usize::MAX` when unweighted).
    pub fn quota(&self) -> usize {
        self.quota
    }
}

/// Clonable control-plane handle: feeds route updates to the single
/// writer thread. Obtained from [`Engine::control`].
pub struct Control<K: Bits> {
    queue: Arc<Bounded<StampedUpdate<K>>>,
    stats: Arc<EngineTelemetry>,
    /// The engine's VRF registry, when one was attached — consulted to
    /// validate [`Control::send_vrf`] ids at the edge.
    vrfs: Option<Arc<VrfTable<K>>>,
}

impl<K: Bits> Clone for Control<K> {
    fn clone(&self) -> Self {
        Control {
            queue: Arc::clone(&self.queue),
            stats: Arc::clone(&self.stats),
            vrfs: self.vrfs.clone(),
        }
    }
}

impl<K: Bits> core::fmt::Debug for Control<K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Control").finish_non_exhaustive()
    }
}

impl<K: Bits> Control<K> {
    /// Enqueue a route update without blocking. On refusal (channel full
    /// or engine shut down) the update is handed back and the drop is
    /// already counted in
    /// [`control_dropped`](EngineTelemetry::control_dropped). Accepted
    /// updates are timestamped here; the writer records the elapsed time
    /// to snapshot publication in the convergence-lag histogram
    /// ([`EngineTelemetry::convergence_ns`]).
    pub fn send(&self, update: RouteUpdate<K>) -> Result<(), RouteUpdate<K>> {
        self.send_spanned(0, update)
    }

    /// [`Control::send`] with a convergence-span ID attached. The span
    /// originates wherever the update entered the stack (a BGP session
    /// allocates one per accepted UPDATE); the writer stamps it on the
    /// `UpdateApply` trace event when a flight recorder is attached, so
    /// a cross-layer span can follow one route from protocol acceptance
    /// through snapshot publication to the first lookup served against
    /// it. Span 0 means "no span" and is what [`Control::send`] uses.
    pub fn send_spanned(&self, span: u64, update: RouteUpdate<K>) -> Result<(), RouteUpdate<K>> {
        self.push(span, None, update)
    }

    /// Enqueue a route update addressed to VRF `vrf`. The id is
    /// validated against the engine's attached registry at this edge: an
    /// unknown id — or an engine started without [`EngineConfig::vrfs`]
    /// — refuses the update with the drop counted in
    /// [`control_dropped`](EngineTelemetry::control_dropped). Accepted
    /// updates flow through the same single writer and the same
    /// convergence-lag accounting as engine-FIB updates, but apply to
    /// the addressed tenant only.
    pub fn send_vrf(&self, vrf: VrfId, update: RouteUpdate<K>) -> Result<(), RouteUpdate<K>> {
        if self.vrfs.as_ref().is_none_or(|v| v.get(vrf).is_none()) {
            self.stats.control_dropped.inc();
            return Err(update);
        }
        self.push(0, Some(vrf), update)
    }

    /// Enqueue an announce of `prefix -> nh` into VRF `vrf`.
    pub fn announce_vrf(
        &self,
        vrf: VrfId,
        prefix: Prefix<K>,
        nh: NextHop,
    ) -> Result<(), RouteUpdate<K>> {
        self.send_vrf(vrf, RouteUpdate::Announce(prefix, nh))
    }

    /// Enqueue a withdraw of `prefix` from VRF `vrf`.
    pub fn withdraw_vrf(&self, vrf: VrfId, prefix: Prefix<K>) -> Result<(), RouteUpdate<K>> {
        self.send_vrf(vrf, RouteUpdate::Withdraw(prefix))
    }

    fn push(
        &self,
        span: u64,
        vrf: Option<VrfId>,
        update: RouteUpdate<K>,
    ) -> Result<(), RouteUpdate<K>> {
        match self.queue.try_push((Instant::now(), span, vrf, update)) {
            Ok(_) => Ok(()),
            Err(PushError::Full((_, _, _, u))) | Err(PushError::Closed((_, _, _, u))) => {
                self.stats.control_dropped.inc();
                Err(u)
            }
        }
    }

    /// Enqueue an announce (insert-or-replace) for `prefix -> nh`.
    pub fn announce(&self, prefix: Prefix<K>, nh: NextHop) -> Result<(), RouteUpdate<K>> {
        self.send(RouteUpdate::Announce(prefix, nh))
    }

    /// Enqueue a withdraw for `prefix`.
    pub fn withdraw(&self, prefix: Prefix<K>) -> Result<(), RouteUpdate<K>> {
        self.send(RouteUpdate::Withdraw(prefix))
    }

    /// Momentary control-channel depth.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Tail quantiles of a per-batch latency distribution, extracted from a
/// [`Log2Histogram`] (resolution is bounded by its power-of-two bucket
/// width). Every figure is reported in both nanoseconds (comparable
/// across hosts) and TSC cycles (comparable to the paper's per-lookup
/// numbers), converted through the once-per-process
/// [`poptrie_cycles::tsc::cycles_per_ns`] calibration. Zeros when no
/// samples were taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of recorded batches.
    pub samples: u64,
    /// Mean, rounded to whole nanoseconds.
    pub mean_ns: u64,
    /// Median (p50).
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Mean, in calibrated TSC cycles.
    pub mean_cycles: u64,
    /// Median (p50), in calibrated TSC cycles.
    pub p50_cycles: u64,
    /// 99th percentile, in calibrated TSC cycles.
    pub p99_cycles: u64,
    /// 99.9th percentile, in calibrated TSC cycles.
    pub p999_cycles: u64,
}

impl LatencySummary {
    /// Summarize an explicit bucket-count array with its value sum.
    fn from_counts(counts: &[u64; poptrie_telemetry::LOG2_BUCKETS], sum: u64) -> Self {
        let samples: u64 = counts.iter().sum();
        let q = |q| Log2Histogram::quantile_of_counts(counts, q).unwrap_or(0);
        let cycles = poptrie_cycles::tsc::ns_to_cycles;
        let (mean_ns, p50_ns, p99_ns, p999_ns) = (
            sum.checked_div(samples).unwrap_or(0),
            q(0.5),
            q(0.99),
            q(0.999),
        );
        LatencySummary {
            samples,
            mean_ns,
            p50_ns,
            p99_ns,
            p999_ns,
            mean_cycles: cycles(mean_ns),
            p50_cycles: cycles(p50_ns),
            p99_cycles: cycles(p99_ns),
            p999_cycles: cycles(p999_ns),
        }
    }

    /// Summarize a live histogram.
    fn from_histogram(h: &Log2Histogram) -> Self {
        Self::from_counts(&h.counts(), h.sum())
    }
}

/// Final accounting for one worker, from [`EngineReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// Index of the NUMA FIB replica this worker served lookups from
    /// (0 = the primary).
    pub replica: usize,
    /// Packets this worker looked up.
    pub packets: u64,
    /// Batches this worker drained.
    pub batches: u64,
    /// Panics recovered by in-place respawn.
    pub respawns: u64,
    /// Batches this worker dropped under [`QosPolicy::Deadline`].
    pub deadline_dropped_batches: u64,
    /// Packets in those dropped batches.
    pub deadline_dropped_packets: u64,
    /// Queue-wait latency distribution (enqueue to pop).
    pub queue_wait: LatencySummary,
    /// Lookup service-time distribution (per served batch).
    pub service: LatencySummary,
}

/// Final accounting for one registered source, from [`EngineReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceReport {
    /// The source's registered name.
    pub name: String,
    /// The source's registered weight.
    pub weight: u32,
    /// The per-worker-queue slot quota derived from the weight.
    pub quota: usize,
    /// Batches accepted into a queue.
    pub submitted_batches: u64,
    /// Batches refused at ingress (queue full or quota exhausted).
    pub refused_batches: u64,
    /// Batches served to completion.
    pub delivered_batches: u64,
    /// Batches dropped by the deadline policy.
    pub deadline_dropped_batches: u64,
}

/// What [`Engine::shutdown`] observed: totals, drop accounting, and
/// whether every thread drained and joined within the deadline.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerReport>,
    /// Per-source accounting, in registration order (empty when no
    /// sources were registered).
    pub sources: Vec<SourceReport>,
    /// Total packets looked up.
    pub packets: u64,
    /// Total batches served.
    pub batches: u64,
    /// Batches shed at ingress (queues full).
    pub dropped_batches: u64,
    /// Packets in batches shed at ingress.
    pub dropped_packets: u64,
    /// Batches dropped under [`QosPolicy::Deadline`] after admission.
    pub deadline_dropped_batches: u64,
    /// Packets in deadline-dropped batches. The packet accounting
    /// identity: `offered == packets + deadline_dropped_packets +
    /// dropped_packets`.
    pub deadline_dropped_packets: u64,
    /// Engine-wide queue-wait latency (all workers' histograms merged).
    pub queue_wait: LatencySummary,
    /// Engine-wide lookup service time (all workers' histograms merged).
    pub service: LatencySummary,
    /// FIB replicas the engine served from (1 = no NUMA replication).
    pub fib_replicas: usize,
    /// Snapshots published to non-primary replicas by the writer (one
    /// per extra replica per coalesced burst).
    pub replica_publishes: u64,
    /// Snapshots published by the writer.
    pub publishes: u64,
    /// Publishes of the primary FIB since the engine started that copied
    /// the whole FIB, for example because a worker still held the
    /// snapshot the previous publish retired. Read from
    /// [`SharedFib::publish_stats`], like the next two fields.
    pub publish_full_copies: u64,
    /// Publishes of the primary FIB since the engine started that copied
    /// only the lines their burst wrote.
    pub publish_incremental: u64,
    /// Bytes of FIB arrays copied by those publishes.
    pub publish_bytes_copied: u64,
    /// Route-update events consumed.
    pub update_events: u64,
    /// Events that changed the RIB.
    pub updates_applied: u64,
    /// Events merged away by coalescing.
    pub updates_coalesced: u64,
    /// Route updates refused at the control channel.
    pub control_dropped: u64,
    /// VRF-keyed batches served (a subset of `batches`; see
    /// [`Ingress::try_submit_vrf`]).
    pub vrf_batches: u64,
    /// Packets in those batches (a subset of `packets`).
    pub vrf_packets: u64,
    /// Route-update events the writer applied to VRF tables (disjoint
    /// from `updates_applied`, which counts the engine's own FIB).
    pub vrf_updates: u64,
    /// Convergence lag: time from [`Control::send`] accepting a route
    /// update to the writer publishing the snapshot containing it.
    pub convergence: LatencySummary,
    /// Writer panics (a poisoned update burst or publish hook) recovered
    /// by respawning the writer loop in place.
    pub writer_respawns: u64,
    /// `true` when every queue was fully drained before the threads
    /// exited.
    pub drained_clean: bool,
    /// Threads that failed to join within the shutdown deadline (0 on a
    /// clean shutdown; leaked threads are detached, never blocked on).
    pub leaked_threads: usize,
    /// Wall-clock time from [`Engine::start`] to the end of shutdown.
    pub elapsed: Duration,
}

/// Per-worker-queue slot quotas for weighted sources, by
/// largest-remainder apportionment: every source gets one reserved
/// slot, the remaining `capacity - n` slots are split in proportion to
/// weight, and the sources with the largest fractional parts absorb the
/// leftovers (ties broken by registration order, so the result is
/// deterministic).
///
/// Invariants:
/// * every quota is at least 1, so a registered source can always make
///   progress;
/// * when `weights.len() <= capacity`, the quotas sum to **exactly**
///   `capacity` — the weighted shares can never jointly oversubscribe a
///   queue. (The previous `max(1, capacity·w/Σw)` formula broke this:
///   flooring each share at one slot on top of independent truncation
///   could push the sum past the capacity, quietly handing heavy
///   sources admission the queue could not honor.)
/// * with more sources than slots, the per-source floor wins: every
///   source keeps its minimum one slot and the queue's own capacity
///   still bounds actual admission. The quotas are individually honest
///   but collectively oversubscribed by construction in this degenerate
///   configuration.
pub fn source_quotas(capacity: usize, weights: &[u32]) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    if n >= capacity {
        return vec![1; n];
    }
    let total: u64 = weights.iter().map(|&w| w as u64).sum::<u64>().max(1);
    let spare = (capacity - n) as u64;
    let mut quotas: Vec<usize> = Vec::with_capacity(n);
    let mut by_remainder: Vec<(u64, usize)> = Vec::with_capacity(n);
    for (i, &w) in weights.iter().enumerate() {
        let share = spare * w as u64;
        quotas.push(1 + (share / total) as usize);
        by_remainder.push((share % total, i));
    }
    let assigned: usize = quotas.iter().sum();
    by_remainder.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in by_remainder.iter().take(capacity - assigned) {
        quotas[i] += 1;
    }
    quotas
}

/// The running engine. Owns the worker and writer threads; hand out
/// [`Ingress`]/[`Control`] handles to feed it, and finish with
/// [`Engine::shutdown`] for drain-then-join teardown.
pub struct Engine<K: Bits> {
    fib: Arc<SharedFib<K>>,
    /// All FIB replicas, primary first; workers read the one local to
    /// their NUMA node, the writer publishes to every one.
    replicas: Vec<Arc<SharedFib<K>>>,
    queues: BatchQueues<K>,
    control: Arc<Bounded<StampedUpdate<K>>>,
    stats: Arc<EngineTelemetry>,
    vrfs: Option<Arc<VrfTable<K>>>,
    panic_flags: Vec<Arc<AtomicBool>>,
    workers: Vec<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    next: Arc<AtomicUsize>,
    started: Instant,
    /// The primary FIB's publish work when the engine started.
    publish_base: PublishStats,
}

impl<K: Bits> core::fmt::Debug for Engine<K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl<K: Bits> Engine<K> {
    /// Spawn the worker threads and the control-plane writer over
    /// `fib`. The engine serves lookups against `fib`'s RCU snapshots
    /// and routes all mutations through its single writer.
    pub fn start(fib: Arc<SharedFib<K>>, config: EngineConfig<K>) -> Self {
        let nworkers = config.workers;
        let weights: Vec<u32> = config.sources.iter().map(|(_, w)| *w).collect();
        let quotas = source_quotas(config.queue_capacity, &weights);
        let source_specs: Vec<(String, u32, usize)> = config
            .sources
            .iter()
            .zip(&quotas)
            .map(|((name, w), &quota)| (name.clone(), *w, quota))
            .collect();
        let stats = Arc::new(EngineTelemetry::new(nworkers, &source_specs));
        stats.published_version.set(fib.version());
        let publish_base = fib.publish_stats();

        // One FIB replica per NUMA node (or per the explicit override),
        // primary first. Each extra replica is an independent deep copy
        // taken before any thread starts; the writer keeps them
        // converged burst by burst. Auto-detection never creates more
        // replicas than workers — an unread copy is pure memory cost.
        let topo = affinity::NumaTopology::detect();
        let nreplicas = config
            .numa_replicas
            .unwrap_or_else(|| topo.nodes().min(nworkers))
            .max(1);
        let mut replicas: Vec<Arc<SharedFib<K>>> = Vec::with_capacity(nreplicas);
        replicas.push(Arc::clone(&fib));
        for _ in 1..nreplicas {
            replicas.push(Arc::new(fib.replicate()));
        }
        stats.fib_replicas.set(nreplicas as u64);
        // Worker→replica affinity: a pinned worker reads the replica of
        // the node its core belongs to. When the replica count exceeds
        // the detected node count (the testing override on a small
        // host), the mapping degenerates to round-robin so every
        // replica is exercised.
        let replica_of = |worker: usize| -> usize {
            if topo.nodes() >= nreplicas && topo.cpus() > 0 {
                topo.node_of_cpu(worker % topo.cpus()) % nreplicas
            } else {
                worker % nreplicas
            }
        };
        let queues: BatchQueues<K> = Arc::new(
            (0..nworkers)
                .map(|_| Arc::new(Bounded::new(config.queue_capacity)))
                .collect(),
        );
        let control: Arc<Bounded<StampedUpdate<K>>> =
            Arc::new(Bounded::new(config.control_capacity));

        let mut panic_flags = Vec::with_capacity(nworkers);
        let mut workers = Vec::with_capacity(nworkers);
        for idx in 0..nworkers {
            let flag = Arc::new(AtomicBool::new(false));
            panic_flags.push(Arc::clone(&flag));
            let replica = replica_of(idx);
            stats.worker(idx).replica.set(replica as u64);
            let fib = Arc::clone(&replicas[replica]);
            let queue = Arc::clone(&queues[idx]);
            let stats = Arc::clone(&stats);
            let vrfs = config.vrfs.clone();
            let hook = config.on_batch.clone();
            let delay = config.batch_delay;
            let pin = config.pin_workers;
            let qos = config.qos;
            let recorder = config.recorder.clone();
            let handle = std::thread::Builder::new()
                .name(format!("fwd-worker-{idx}"))
                .spawn(move || {
                    if pin {
                        let _ = affinity::pin_current_thread(idx);
                    }
                    let tracer = recorder.map(|r| r.register(&format!("worker{idx}")));
                    worker_main(
                        idx,
                        replica,
                        &fib,
                        vrfs.as_deref(),
                        &queue,
                        &stats,
                        &flag,
                        delay,
                        qos,
                        hook.as_ref(),
                        tracer.as_ref(),
                    );
                })
                .expect("spawn forwarding worker");
            workers.push(handle);
        }

        let writer = {
            let replicas = replicas.clone();
            let queue = Arc::clone(&control);
            let stats = Arc::clone(&stats);
            let vrfs = config.vrfs.clone();
            let hook = config.on_publish.clone();
            let window = config.coalesce_window;
            let recorder = config.recorder.clone();
            std::thread::Builder::new()
                .name("fib-writer".to_string())
                .spawn(move || {
                    let tracer = recorder.map(|r| r.register("writer"));
                    writer_main(
                        &replicas,
                        vrfs.as_deref(),
                        &queue,
                        &stats,
                        window,
                        hook.as_ref(),
                        tracer.as_ref(),
                    );
                })
                .expect("spawn control-plane writer")
        };

        Engine {
            fib,
            replicas,
            queues,
            control,
            stats,
            vrfs: config.vrfs,
            panic_flags,
            workers,
            writer: Some(writer),
            next: Arc::new(AtomicUsize::new(0)),
            started: Instant::now(),
            publish_base,
        }
    }

    /// Number of forwarding workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// A clonable dataplane feeder handle: unweighted and quota-exempt
    /// (only total queue capacity bounds admission).
    pub fn ingress(&self) -> Ingress<K> {
        Ingress {
            queues: Arc::clone(&self.queues),
            stats: Arc::clone(&self.stats),
            next: Arc::clone(&self.next),
            source: NO_SOURCE,
            quota: usize::MAX,
            vrfs: self.vrfs.clone(),
        }
    }

    /// A feeder handle submitting as registered source `source` (a
    /// [`SourceId`] wrapping the index in [`EngineConfig::source`]
    /// registration order), subject to that source's weighted per-queue
    /// slot quota. An unregistered id is a [`BadIndex`] error, never a
    /// panic: fault-injection harnesses probe these knobs with hostile
    /// indices by design.
    pub fn ingress_for(&self, source: SourceId) -> Result<Ingress<K>, BadIndex> {
        let spec = self.stats.source(source.index()).ok_or(BadIndex {
            index: source.index(),
            len: self.stats.sources().len(),
        })?;
        Ok(Ingress {
            queues: Arc::clone(&self.queues),
            stats: Arc::clone(&self.stats),
            next: Arc::clone(&self.next),
            source: source.index() as u32,
            quota: spec.quota,
            vrfs: self.vrfs.clone(),
        })
    }

    /// A clonable control-plane handle.
    pub fn control(&self) -> Control<K> {
        Control {
            queue: Arc::clone(&self.control),
            stats: Arc::clone(&self.stats),
            vrfs: self.vrfs.clone(),
        }
    }

    /// The VRF registry attached at [`EngineConfig::vrfs`], if any.
    pub fn vrfs(&self) -> Option<&Arc<VrfTable<K>>> {
        self.vrfs.as_ref()
    }

    /// The engine's live counters.
    pub fn telemetry(&self) -> Arc<EngineTelemetry> {
        Arc::clone(&self.stats)
    }

    /// The shared FIB the engine serves (the primary, replica 0).
    pub fn fib(&self) -> &Arc<SharedFib<K>> {
        &self.fib
    }

    /// Every FIB replica the engine serves from, primary first. More
    /// than one entry only on a multi-node machine (or under the
    /// [`EngineConfig::numa_replicas`] override); the writer keeps them
    /// converged burst by burst.
    pub fn fib_replicas(&self) -> &[Arc<SharedFib<K>>] {
        &self.replicas
    }

    /// Make worker `worker` panic at the start of its next batch — a
    /// fault-injection knob for exercising the respawn path in tests.
    /// An out-of-range worker index is a [`BadIndex`] error, never a
    /// panic.
    pub fn inject_panic(&self, worker: usize) -> Result<(), BadIndex> {
        let flag = self.panic_flags.get(worker).ok_or(BadIndex {
            index: worker,
            len: self.panic_flags.len(),
        })?;
        flag.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Drain-then-join teardown: close every queue (producers are
    /// refused, consumers drain what is already queued), then join every
    /// thread, polling until `deadline`. A thread still running at the
    /// deadline is detached and counted in
    /// [`leaked_threads`](EngineReport::leaked_threads).
    pub fn shutdown(mut self, deadline: Duration) -> EngineReport {
        self.control.close();
        for q in self.queues.iter() {
            q.close();
        }
        let limit = Instant::now() + deadline;

        let mut handles: Vec<JoinHandle<()>> = self.workers.drain(..).collect();
        if let Some(w) = self.writer.take() {
            handles.push(w);
        }
        let mut leaked = 0usize;
        for h in handles {
            loop {
                if h.is_finished() {
                    let _ = h.join();
                    break;
                }
                if Instant::now() >= limit {
                    leaked += 1; // detach: dropping the handle never blocks
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        let drained_clean =
            leaked == 0 && self.control.is_empty() && self.queues.iter().all(|q| q.is_empty());
        let work = self.fib.publish_stats().since(self.publish_base);
        let workers = self
            .stats
            .workers()
            .iter()
            .map(|w| WorkerReport {
                replica: w.replica.get() as usize,
                packets: w.packets.get(),
                batches: w.batches.get(),
                respawns: w.respawns.get(),
                deadline_dropped_batches: w.deadline_dropped_batches.get(),
                deadline_dropped_packets: w.deadline_dropped_packets.get(),
                queue_wait: LatencySummary::from_histogram(&w.queue_wait_ns),
                service: LatencySummary::from_histogram(&w.service_ns),
            })
            .collect::<Vec<_>>();
        let sources = self
            .stats
            .sources()
            .iter()
            .map(|s| SourceReport {
                name: s.name.clone(),
                weight: s.weight,
                quota: s.quota,
                submitted_batches: s.submitted_batches.get(),
                refused_batches: s.refused_batches.get(),
                delivered_batches: s.delivered_batches.get(),
                deadline_dropped_batches: s.deadline_dropped_batches.get(),
            })
            .collect::<Vec<_>>();
        let wait_counts = self.stats.merged_queue_wait();
        let wait_sum: u64 = self
            .stats
            .workers()
            .iter()
            .map(|w| w.queue_wait_ns.sum())
            .sum();
        let service_counts = self.stats.merged_service();
        let service_sum: u64 = self
            .stats
            .workers()
            .iter()
            .map(|w| w.service_ns.sum())
            .sum();
        EngineReport {
            packets: self.stats.total_packets(),
            batches: self.stats.total_batches(),
            dropped_batches: self.stats.dropped_batches.get(),
            dropped_packets: self.stats.dropped_packets.get(),
            deadline_dropped_batches: self.stats.total_deadline_dropped_batches(),
            deadline_dropped_packets: self.stats.total_deadline_dropped_packets(),
            queue_wait: LatencySummary::from_counts(&wait_counts, wait_sum),
            service: LatencySummary::from_counts(&service_counts, service_sum),
            fib_replicas: self.replicas.len(),
            replica_publishes: self.stats.replica_publishes.get(),
            publishes: self.stats.publishes.get(),
            publish_full_copies: work.full_copies,
            publish_incremental: work.incremental,
            publish_bytes_copied: work.bytes_copied,
            update_events: self.stats.update_events.get(),
            updates_applied: self.stats.updates_applied.get(),
            updates_coalesced: self.stats.updates_coalesced.get(),
            control_dropped: self.stats.control_dropped.get(),
            vrf_batches: self.stats.vrf_batches.get(),
            vrf_packets: self.stats.vrf_packets.get(),
            vrf_updates: self.stats.vrf_updates.get(),
            convergence: LatencySummary::from_histogram(&self.stats.convergence_ns),
            writer_respawns: self.stats.writer_respawns.get(),
            workers,
            sources,
            drained_clean,
            leaked_threads: leaked,
            elapsed: self.started.elapsed(),
        }
    }
}

impl<K: Bits> Drop for Engine<K> {
    /// Dropping without [`Engine::shutdown`] closes every queue so the
    /// threads exit after draining, but does not wait for them.
    fn drop(&mut self) {
        self.control.close();
        for q in self.queues.iter() {
            q.close();
        }
    }
}

/// One worker's panic-isolation loop: the batch-serving body runs under
/// `catch_unwind`; a panic is counted and the body re-entered on the same
/// OS thread, so a poisoned batch costs that batch and nothing else.
#[allow(clippy::too_many_arguments)]
fn worker_main<K: Bits>(
    idx: usize,
    replica: usize,
    fib: &SharedFib<K>,
    vrfs: Option<&VrfTable<K>>,
    queue: &Bounded<Stamped<K>>,
    stats: &EngineTelemetry,
    inject: &AtomicBool,
    delay: Duration,
    qos: QosPolicy,
    hook: Option<&BatchHook<K>>,
    tracer: Option<&RingWriter>,
) {
    #[cfg(not(feature = "observe"))]
    let _ = (replica, tracer);
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut out: Vec<NextHop> = Vec::new();
            // Last snapshot version this worker served against: a change
            // is this worker's adoption of a newly published snapshot —
            // the closing event of a convergence span.
            #[cfg(feature = "observe")]
            let mut last_version: u64 = 0;
            while let Some((source, (enqueued, vrf, batch))) = queue.pop_entry() {
                let w = stats.worker(idx);
                w.queue_depth.set(queue.len() as u64);
                let wait = enqueued.elapsed();
                w.queue_wait_ns.record(wait.as_nanos() as u64);
                // The per-batch sampling gate: decide once at dequeue so
                // a sampled batch carries its whole ingress → dequeue →
                // lookup slice coherently.
                #[cfg(feature = "observe")]
                let sampled = tracer.map(|t| t.tick()).unwrap_or(false);
                // Deadline check at pop, *before* the chaos delay: the
                // drop decision reflects only real queueing, so tests
                // with a deterministic batch_delay get exact counts.
                if let QosPolicy::Deadline(deadline) = qos {
                    if wait > deadline {
                        w.deadline_dropped_batches.inc();
                        w.deadline_dropped_packets.add(batch.len() as u64);
                        if source != NO_SOURCE {
                            stats.sources()[source as usize]
                                .deadline_dropped_batches
                                .inc();
                        }
                        continue;
                    }
                }
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                if inject.swap(false, Ordering::Relaxed) {
                    panic!("injected worker fault");
                }
                // Epoch consistency: one snapshot per batch, re-acquired
                // for the next batch so updates become visible at batch
                // granularity. A VRF-keyed batch resolves the addressed
                // tenant's snapshot instead of the engine FIB's;
                // try_submit_vrf validated the id against a registry
                // that only grows, so a miss here means the queue was
                // fed around the validating edge — shed the batch with
                // the drop counted rather than serving from the wrong
                // table.
                let served_at = Instant::now();
                let snap = match vrf {
                    None => fib.snapshot(),
                    Some(id) => match vrfs.and_then(|v| v.snapshot(id)) {
                        Some(s) => s,
                        None => {
                            stats.dropped_batches.inc();
                            stats.dropped_packets.add(batch.len() as u64);
                            continue;
                        }
                    },
                };
                if vrf.is_some() {
                    stats.vrf_batches.inc();
                    stats.vrf_packets.add(batch.len() as u64);
                }
                out.clear();
                out.resize(batch.len(), NO_ROUTE);
                snap.lookup_batch(&batch, &mut out);
                let service = served_at.elapsed();
                w.service_ns.record(service.as_nanos() as u64);
                w.packets.add(batch.len() as u64);
                w.batches.inc();
                w.snapshot_version.set(snap.version());
                #[cfg(feature = "observe")]
                if let Some(t) = tracer {
                    let tier = match snap.batch_backend() {
                        poptrie_bitops::BatchBackend::Scalar => 0,
                        poptrie_bitops::BatchBackend::Avx2 => 1,
                        poptrie_bitops::BatchBackend::Avx512 => 2,
                    };
                    if sampled {
                        let enq_ns = t.instant_ns(enqueued);
                        let start_ns = t.instant_ns(served_at);
                        let wait_ns = wait.as_nanos() as u64;
                        let service_ns = service.as_nanos() as u64;
                        t.record_at(enq_ns, EventKind::IngressEnqueue, 0, batch.len() as u64, 0);
                        t.record_at(enq_ns + wait_ns, EventKind::BatchDequeue, 0, wait_ns, 0);
                        t.record_at(
                            start_ns,
                            EventKind::LookupStart,
                            0,
                            batch.len() as u64,
                            pack_worker_tier(idx as u32, tier),
                        );
                        t.record_at(
                            start_ns + service_ns,
                            EventKind::LookupEnd,
                            0,
                            service_ns,
                            pack_worker_tier(idx as u32, tier),
                        );
                    }
                    // Snapshot adoption is recorded for *every* batch
                    // that first serves a new version (not sampled):
                    // span continuity must hold in sampled traces too.
                    let version = snap.version();
                    if version != last_version {
                        last_version = version;
                        t.record(
                            EventKind::SnapshotAdopt,
                            0,
                            version,
                            pack_worker_tier(idx as u32, replica as u32),
                        );
                    }
                }
                if source != NO_SOURCE {
                    stats.sources()[source as usize].delivered_batches.inc();
                }
                if let Some(h) = hook {
                    h(idx, &batch, &out, snap.version());
                }
            }
        }));
        match run {
            Ok(()) => break, // queue closed and drained
            Err(_) => stats.worker(idx).respawns.inc(),
        }
    }
}

/// The single control-plane writer: drain a burst, coalesce duplicate
/// prefixes (last update wins, order of survivors preserved), apply under
/// one writer critical section per replica, publish one snapshot per
/// replica. The primary (replica 0) is updated first and its
/// [`BatchOutcome`] drives the stats and the publish hook; the remaining
/// NUMA replicas receive the identical coalesced burst immediately after,
/// so they converge to the same routes within the same writer iteration
/// (workers on other nodes may observe the new routes one burst-apply
/// later than workers on the primary's node — the same snapshot-staleness
/// window every worker already has between snapshot acquisitions).
///
/// Like the workers, the writer is panic-isolated: a panicking burst
/// (most plausibly a user publish hook) is caught and counted in
/// [`writer_respawns`](EngineTelemetry::writer_respawns), and the drain
/// loop re-enters on the same OS thread — a poisoned burst must not
/// wedge the control plane while the dataplane keeps serving.
fn writer_main<K: Bits>(
    replicas: &[Arc<SharedFib<K>>],
    vrfs: Option<&VrfTable<K>>,
    queue: &Bounded<StampedUpdate<K>>,
    stats: &EngineTelemetry,
    window: usize,
    hook: Option<&PublishHook<K>>,
    tracer: Option<&RingWriter>,
) {
    #[cfg(not(feature = "observe"))]
    let _ = tracer;
    let fib = &replicas[0];
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut buf: Vec<StampedUpdate<K>> = Vec::with_capacity(window);
            let mut coalesced: Vec<RouteUpdate<K>> = Vec::with_capacity(window);
            let mut vrf_bound: Vec<(VrfId, RouteUpdate<K>)> = Vec::new();
            let mut seen: HashSet<(Option<VrfId>, Prefix<K>)> = HashSet::with_capacity(window);
            while queue.pop_up_to(window, &mut buf) {
                coalesced.clear();
                vrf_bound.clear();
                seen.clear();
                // Walk backwards keeping the last update per (VRF,
                // prefix) — the same prefix in two tenants is two
                // routes, never merged — then restore arrival order
                // among the survivors.
                for (_, _, vrf, u) in buf.iter().rev() {
                    let p = match u {
                        RouteUpdate::Announce(p, _) => *p,
                        RouteUpdate::Withdraw(p) => *p,
                    };
                    if seen.insert((*vrf, p)) {
                        match vrf {
                            None => coalesced.push(*u),
                            Some(id) => vrf_bound.push((*id, *u)),
                        }
                    }
                }
                coalesced.reverse();
                vrf_bound.reverse();
                let merged = buf.len() - coalesced.len() - vrf_bound.len();
                #[cfg(feature = "observe")]
                if let Some(t) = tracer {
                    t.record(EventKind::WriterBurst, 0, buf.len() as u64, merged as u32);
                }

                // VRF-bound survivors apply per tenant, in arrival
                // order, each tenant under its own writer lock with its
                // own snapshot publish — one tenant's burst never
                // republishes another's table. `run` slices out
                // consecutive same-VRF updates so an uninterleaved burst
                // stays one publish.
                let mut i = 0;
                while i < vrf_bound.len() {
                    let id = vrf_bound[i].0;
                    let mut run = i + 1;
                    while run < vrf_bound.len() && vrf_bound[run].0 == id {
                        run += 1;
                    }
                    let slice = &vrf_bound[i..run];
                    // The registry only grows and ids were validated at
                    // the control edge, so this never misses; `if let`
                    // keeps hostile-queue feeding shedding instead of
                    // panicking the writer.
                    if let Some(outcome) =
                        vrfs.and_then(|v| v.update_batch(id, slice.iter().map(|&(_, u)| u)))
                    {
                        stats.vrf_updates.add(outcome.applied as u64);
                    }
                    i = run;
                }

                // Engine-FIB survivors follow the original path; a burst
                // of pure VRF traffic publishes nothing engine-wide.
                let outcome = if coalesced.is_empty() {
                    None
                } else {
                    Some(fib.update_batch(coalesced.iter().copied()))
                };
                // The snapshots containing this burst are now published:
                // every drained event has converged (coalesced-away
                // events too — their information was superseded within
                // the same burst).
                for (sent, _, _, _) in &buf {
                    stats
                        .convergence_ns
                        .record(sent.elapsed().as_nanos() as u64);
                }
                stats.update_events.add(buf.len() as u64);
                stats.updates_coalesced.add(merged as u64);
                if let Some(outcome) = outcome {
                    #[cfg(feature = "observe")]
                    if let Some(t) = tracer {
                        // Every spanned event in the burst converged at
                        // this version — coalesced-away events too
                        // (their routes were superseded within the same
                        // burst).
                        for &(_, span, _, _) in buf.iter() {
                            if span != 0 {
                                t.record(EventKind::UpdateApply, span, outcome.version, 0);
                            }
                        }
                        t.record(EventKind::ReplicaPublish, 0, outcome.version, 0);
                    }
                    for (ri, replica) in replicas.iter().enumerate().skip(1) {
                        replica.update_batch(coalesced.iter().copied());
                        stats.replica_publishes.inc();
                        #[cfg(feature = "observe")]
                        if let Some(t) = tracer {
                            t.record(EventKind::ReplicaPublish, 0, outcome.version, ri as u32);
                        }
                        #[cfg(not(feature = "observe"))]
                        let _ = ri;
                    }
                    stats.updates_applied.add(outcome.applied as u64);
                    stats.publishes.inc();
                    stats.published_version.set(outcome.version);
                    if let Some(h) = hook {
                        h(outcome, &coalesced);
                    }
                }
                buf.clear();
            }
        }));
        match run {
            Ok(()) => break, // channel closed and drained
            Err(_) => stats.writer_respawns.inc(),
        }
    }
}
