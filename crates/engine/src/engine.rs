//! The sharded forwarding engine: worker threads, the control-plane
//! writer, and their handles.
//!
//! ## Architecture
//!
//! ```text
//!                      ┌────────────┐   Arc<[K]> batches, TSC-stamped
//!   feeders ──────────▶│ per-worker │──▶ worker 0 ─┐
//!   (Ingress handles)  │  lock-free │──▶ worker 1 ─┤ lookup_batch against
//!                      │ MPSC rings │──▶   ...     ─┤ an RCU FibSnapshot,
//!                      └────────────┘──▶ worker N ─┘ re-acquired per batch
//!
//!   route sources ────▶ control ring (same type) ──▶ single writer thread
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
//! Every queue is a bounded lock-free ring (`queue.rs`); every producer
//! edge is non-blocking and sheds load with drop accounting rather than
//! propagating backpressure into the caller's thread. A feeder stamps a
//! batch with one unfenced TSC read and claims a slot with one CAS; the
//! worker polls only its next slot, for up to 200 µs before it parks, so
//! a loaded worker is never woken per batch. The worker reads the TSC
//! twice per batch: at pop (end of the queue wait, start of service) and
//! after the lookup. Workers are panic-isolated: a panicking batch body
//! is caught, counted, and the worker loop re-enters on the same OS
//! thread.
//!
//! Every worker reads the one `SharedFib` handed to [`Engine::start`],
//! and the writer applies each coalesced burst to it once.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use poptrie::sync::{BatchOutcome, PublishStats, RouteUpdate, SharedFib};
use poptrie::VrfId;
use poptrie_bitops::Bits;
use poptrie_rib::{NextHop, Prefix, NO_ROUTE};
use poptrie_vrf::VrfTable;

use poptrie_cycles::tsc;
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
use crate::queue::{self, Consumer, PushError, Ring};
use crate::stats::EngineTelemetry;

/// Observer of every served batch: `(worker, keys, next_hops,
/// snapshot_version)`. Runs on the worker thread after the batch's
/// service time is stamped, so its cost lands in the queue wait of the
/// batches behind it — keep it cheap.
pub type BatchHook<K> = Arc<dyn Fn(usize, &[K], &[NextHop], u64) + Send + Sync>;

/// Observer of every published update batch: the [`BatchOutcome`] and the
/// coalesced updates applied at that version, in application order. Runs
/// on the writer thread.
pub type PublishHook<K> = Arc<dyn Fn(BatchOutcome, &[RouteUpdate<K>]) + Send + Sync>;

/// One queued batch: its ingress TSC stamp ([`tsc::now`], for queue-wait
/// latency and the deadline policy), the VRF it targets (`None` = the
/// engine's own FIB), and the keys.
type Stamped<K> = (u64, Option<VrfId>, Arc<[K]>);

/// One queued route update: its [`Control::send`] TSC stamp (for the
/// convergence-lag histogram), the convergence span it belongs to (0 =
/// none; see [`Control::send_spanned`]), the VRF it targets (`None` =
/// the engine's own FIB), and the update itself. The span word rides
/// along unconditionally — it is 8 bytes per queued event and never
/// touched on the hot path — so the control-plane API is identical with
/// and without the `observe` feature.
type StampedUpdate<K> = (u64, u64, Option<VrfId>, RouteUpdate<K>);

/// An out-of-range worker index handed to [`Engine::inject_panic`].
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

/// Whether `vrf` names a table of `vrfs`. The registry only grows, so
/// an index check is enough.
fn known_vrf<K: Bits>(vrfs: Option<&VrfTable<K>>, vrf: VrfId) -> bool {
    vrfs.is_some_and(|v| vrf.index() < v.len())
}

/// Depth of the control channel, in route-update events.
const CONTROL_CAPACITY: usize = 4096;

/// The producer side of the per-worker batch rings, shared between the
/// engine and every [`Ingress`] handle (each worker owns its ring's
/// [`Consumer`]).
type BatchQueues<K> = Arc<Vec<Arc<Ring<Stamped<K>>>>>;

/// What happens when a batch cannot be served in time.
///
/// Under [`Refuse`](QosPolicy::Refuse) a full queue pushes back at
/// ingress: the feeder gets the batch back and decides (the original
/// backpressure-by-refusal model). Under
/// [`Deadline`](QosPolicy::Deadline) the queue still bounds admission,
/// but a batch that *was* admitted and then waited longer than the
/// deadline is dropped at pop instead of served late — the SLO stance
/// that a stale answer is worth less than the next fresh packet. Every
/// deadline drop is counted per worker and reconciled in
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
    coalesce_window: usize,
    pin_workers: bool,
    qos: QosPolicy,
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
            .field("coalesce_window", &self.coalesce_window)
            .field("pin_workers", &self.pin_workers)
            .field("qos", &self.qos)
            .field("vrfs", &self.vrfs)
            .finish_non_exhaustive()
    }
}

impl<K: Bits> EngineConfig<K> {
    /// A config for `workers` forwarding threads (minimum 1). Defaults:
    /// 64-batch ingress queues, 256-event coalesce window, workers pinned
    /// round-robin to cores, [`QosPolicy::Refuse`], no VRF registry, no
    /// hooks. The control channel always holds 4096 route-update
    /// events.
    pub fn new(workers: usize) -> Self {
        EngineConfig {
            workers: workers.max(1),
            queue_capacity: 64,
            coalesce_window: 256,
            pin_workers: true,
            qos: QosPolicy::Refuse,
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

    /// What happens to batches that cannot be served in time (see
    /// [`QosPolicy`]; default [`QosPolicy::Refuse`]).
    pub fn qos(mut self, policy: QosPolicy) -> Self {
        self.qos = policy;
        self
    }

    /// Attach a multi-tenant VRF registry. Workers then accept
    /// VRF-keyed batches ([`Ingress::try_submit_vrf`]) served against
    /// the addressed tenant's snapshot, and the writer applies VRF-keyed
    /// route updates ([`Control::send_vrf`]) to the addressed tenant
    /// only — engine-wide coalescing still runs, but per `(VRF,
    /// prefix)`, so one tenant's churn never merges into another's.
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
    /// and publish. Only available with the `observe` feature — without
    /// it this method does not exist and the engine contains no recorder
    /// code at all.
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
            vrfs: self.vrfs.clone(),
        }
    }
}

impl<K: Bits> core::fmt::Debug for Ingress<K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ingress")
            .field("workers", &self.queues.len())
            .finish_non_exhaustive()
    }
}

impl<K: Bits> Ingress<K> {
    /// Count one refused batch of `n` packets.
    fn count_refuse(&self, n: u64) {
        self.stats.dropped_batches.inc();
        self.stats.dropped_packets.add(n);
    }

    /// The one submit path: offer the batch to each worker of `order` in
    /// turn and count the outcome. An index past the last queue ends the
    /// search, so a hostile index is a counted refusal, never a panic.
    fn submit(
        &self,
        order: impl Iterator<Item = usize>,
        vrf: Option<VrfId>,
        batch: Arc<[K]>,
    ) -> Result<usize, Arc<[K]>> {
        let packets = batch.len() as u64;
        let mut stamped = (tsc::now(), vrf, batch);
        for w in order {
            let Some(queue) = self.queues.get(w) else {
                break;
            };
            match queue.try_push(stamped) {
                Ok(()) => {
                    self.stats.submitted_batches.inc();
                    self.stats.batch_size.record(packets);
                    return Ok(w);
                }
                Err(PushError::Full(s)) | Err(PushError::Closed(s)) => stamped = s,
            }
        }
        self.count_refuse(packets);
        Err(stamped.2)
    }

    /// Every worker once, in round-robin order from the next start.
    fn round_robin(&self) -> impl Iterator<Item = usize> {
        let n = self.queues.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        (0..n).map(move |i| (start + i) % n)
    }

    /// Submit a batch to worker `worker`'s queue without blocking. On
    /// refusal (queue full, engine shut down, or `worker >= workers()`)
    /// the batch is handed back and the drop is **already counted** in
    /// [`dropped_batches`](EngineTelemetry::dropped_batches) /
    /// [`dropped_packets`](EngineTelemetry::dropped_packets).
    pub fn try_submit_to(&self, worker: usize, batch: Arc<[K]>) -> Result<(), Arc<[K]>> {
        self.submit(core::iter::once(worker), None, batch)
            .map(|_| ())
    }

    /// Submit a batch addressed to VRF `vrf` (round-robin across workers
    /// like [`Ingress::try_submit`]). The id is validated against the
    /// engine's attached registry at this edge: an unknown id — or an
    /// engine started without [`EngineConfig::vrfs`] — refuses the batch
    /// with the drop already counted, exactly like a full queue. The
    /// serving worker resolves the tenant's own RCU snapshot per batch,
    /// so per-VRF lookup isolation matches the engine FIB's read model.
    pub fn try_submit_vrf(&self, vrf: VrfId, batch: Arc<[K]>) -> Result<usize, Arc<[K]>> {
        if !known_vrf(self.vrfs.as_deref(), vrf) {
            self.count_refuse(batch.len() as u64);
            return Err(batch);
        }
        self.submit(self.round_robin(), Some(vrf), batch)
    }

    /// Submit a batch to the next worker in round-robin order, skipping
    /// over full queues — load shifts away from a momentarily slow worker
    /// instead of being shed. Returns the accepting worker's index; on
    /// refusal (every queue full, or shutdown) the batch is handed back
    /// and the drop is already counted.
    pub fn try_submit(&self, batch: Arc<[K]>) -> Result<usize, Arc<[K]>> {
        self.submit(self.round_robin(), None, batch)
    }

    /// Number of worker queues this handle feeds.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }
}

/// Clonable control-plane handle: feeds route updates to the single
/// writer thread. Obtained from [`Engine::control`].
pub struct Control<K: Bits> {
    queue: Arc<Ring<StampedUpdate<K>>>,
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
        if !known_vrf(self.vrfs.as_deref(), vrf) {
            self.stats.control_dropped.inc();
            return Err(update);
        }
        self.push(0, Some(vrf), update)
    }

    fn push(
        &self,
        span: u64,
        vrf: Option<VrfId>,
        update: RouteUpdate<K>,
    ) -> Result<(), RouteUpdate<K>> {
        match self.queue.try_push((tsc::now(), span, vrf, update)) {
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

/// The artifact form of a latency summary: one object, field for field.
impl From<&LatencySummary> for poptrie_telemetry::json::Json {
    fn from(l: &LatencySummary) -> Self {
        poptrie_telemetry::json!({
            "samples": l.samples, "mean_ns": l.mean_ns, "p50_ns": l.p50_ns,
            "p99_ns": l.p99_ns, "p999_ns": l.p999_ns, "mean_cycles": l.mean_cycles,
            "p50_cycles": l.p50_cycles, "p99_cycles": l.p99_cycles, "p999_cycles": l.p999_cycles,
        })
    }
}

/// Final accounting for one worker, from [`EngineReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
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

/// What [`Engine::shutdown`] observed: totals, drop accounting, and
/// whether every thread drained and joined within the deadline.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerReport>,
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
    /// Snapshots published by the writer.
    pub publishes: u64,
    /// Publishes of the engine FIB since the engine started that copied
    /// the whole FIB, for example because a worker still held the
    /// snapshot the previous publish retired. Read from
    /// [`SharedFib::publish_stats`], like the next two fields.
    pub publish_full_copies: u64,
    /// Publishes of the engine FIB since the engine started that copied
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

/// The running engine. Owns the worker and writer threads; hand out
/// [`Ingress`]/[`Control`] handles to feed it, and finish with
/// [`Engine::shutdown`] for drain-then-join teardown.
pub struct Engine<K: Bits> {
    fib: Arc<SharedFib<K>>,
    queues: BatchQueues<K>,
    control: Arc<Ring<StampedUpdate<K>>>,
    stats: Arc<EngineTelemetry>,
    vrfs: Option<Arc<VrfTable<K>>>,
    panic_flags: Vec<Arc<AtomicBool>>,
    workers: Vec<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    next: Arc<AtomicUsize>,
    started: Instant,
    /// The FIB's publish work when the engine started.
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
        let stats = Arc::new(EngineTelemetry::new(nworkers));
        stats.published_version.set(fib.version());
        let publish_base = fib.publish_stats();
        // Stamps, waits, deadlines and idle budgets are all TSC cycles:
        // calibrate here, never on a worker's first batch.
        tsc::cycles_per_second();
        let deadline = match config.qos {
            QosPolicy::Refuse => None,
            QosPolicy::Deadline(d) => Some(tsc::ns_to_cycles(
                u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            )),
        };
        let (queues, consumers): (Vec<_>, Vec<_>) = (0..nworkers)
            .map(|_| queue::ring(config.queue_capacity, queue::WORKER_IDLE))
            .unzip();
        let queues: BatchQueues<K> = Arc::new(queues);
        let (control, control_rx) = queue::ring(CONTROL_CAPACITY, queue::WRITER_IDLE);

        let mut panic_flags = Vec::with_capacity(nworkers);
        let mut workers = Vec::with_capacity(nworkers);
        for (idx, mut queue) in consumers.into_iter().enumerate() {
            let flag = Arc::new(AtomicBool::new(false));
            panic_flags.push(Arc::clone(&flag));
            let fib = Arc::clone(&fib);
            let stats = Arc::clone(&stats);
            let vrfs = config.vrfs.clone();
            let hook = config.on_batch.clone();
            let pin = config.pin_workers;
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
                        &fib,
                        vrfs.as_deref(),
                        &mut queue,
                        &stats,
                        &flag,
                        deadline,
                        hook.as_ref(),
                        tracer.as_ref(),
                    );
                })
                .expect("spawn forwarding worker");
            workers.push(handle);
        }

        let writer = {
            let fib = Arc::clone(&fib);
            let mut queue = control_rx;
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
                        &fib,
                        vrfs.as_deref(),
                        &mut queue,
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

    /// A clonable dataplane feeder handle (queue capacity alone bounds
    /// admission).
    pub fn ingress(&self) -> Ingress<K> {
        Ingress {
            queues: Arc::clone(&self.queues),
            stats: Arc::clone(&self.stats),
            next: Arc::clone(&self.next),
            vrfs: self.vrfs.clone(),
        }
    }

    /// A clonable control-plane handle.
    pub fn control(&self) -> Control<K> {
        Control {
            queue: Arc::clone(&self.control),
            stats: Arc::clone(&self.stats),
            vrfs: self.vrfs.clone(),
        }
    }

    /// The engine's live counters.
    pub fn telemetry(&self) -> Arc<EngineTelemetry> {
        Arc::clone(&self.stats)
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
                packets: w.packets.get(),
                batches: w.batches.get(),
                respawns: w.respawns.get(),
                deadline_dropped_batches: w.deadline_dropped_batches.get(),
                deadline_dropped_packets: w.deadline_dropped_packets.get(),
                queue_wait: LatencySummary::from_histogram(&w.queue_wait_ns),
                service: LatencySummary::from_histogram(&w.service_ns),
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
///
/// Each batch costs two clock reads: one at pop ends the queue wait and
/// starts service, one after the lookup ends service. `deadline` is the
/// [`QosPolicy::Deadline`] in TSC cycles.
#[allow(clippy::too_many_arguments)]
fn worker_main<K: Bits>(
    idx: usize,
    fib: &SharedFib<K>,
    vrfs: Option<&VrfTable<K>>,
    queue: &mut Consumer<Stamped<K>>,
    stats: &EngineTelemetry,
    inject: &AtomicBool,
    deadline: Option<u64>,
    hook: Option<&BatchHook<K>>,
    tracer: Option<&RingWriter>,
) {
    #[cfg(not(feature = "observe"))]
    let _ = tracer;
    let ns = tsc::cycles_to_ns;
    let w = stats.worker(idx);
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut out: Vec<NextHop> = Vec::new();
            // Last snapshot version this worker served against: a change
            // is this worker's adoption of a newly published snapshot —
            // the closing event of a convergence span.
            #[cfg(feature = "observe")]
            let mut last_version: u64 = 0;
            while let Some(((enqueued, vrf, batch), depth)) = queue.pop_entry(Some(&w.parks)) {
                let started = tsc::now();
                w.queue_depth.set(depth as u64);
                let wait = started.saturating_sub(enqueued);
                w.queue_wait_ns.record(ns(wait));
                // The per-batch sampling gate: decide once at dequeue so
                // a sampled batch carries its whole ingress → dequeue →
                // lookup slice coherently.
                #[cfg(feature = "observe")]
                let sampled = tracer.map(|t| t.tick()).unwrap_or(false);
                if deadline.is_some_and(|d| wait > d) {
                    w.deadline_dropped_batches.inc();
                    w.deadline_dropped_packets.add(batch.len() as u64);
                    continue;
                }
                // Load first: the swap is a locked RMW, paid only once a
                // fault is requested.
                if inject.load(Ordering::Relaxed) && inject.swap(false, Ordering::Relaxed) {
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
                let ended = tsc::now();
                w.service_ns.record(ns(ended.saturating_sub(started)));
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
                        // The stamps are cycles: place them on the
                        // recorder's clock by their distance from now.
                        let now_ns = t.now_ns();
                        let at = |c: u64| now_ns.saturating_sub(ns(ended.saturating_sub(c)));
                        let (enq_ns, start_ns, end_ns) = (at(enqueued), at(started), now_ns);
                        let wait_ns = ns(wait);
                        t.record_at(enq_ns, EventKind::IngressEnqueue, 0, batch.len() as u64, 0);
                        t.record_at(start_ns, EventKind::BatchDequeue, 0, wait_ns, 0);
                        t.record_at(
                            start_ns,
                            EventKind::LookupStart,
                            0,
                            batch.len() as u64,
                            pack_worker_tier(idx as u32, tier),
                        );
                        t.record_at(
                            end_ns,
                            EventKind::LookupEnd,
                            0,
                            end_ns - start_ns,
                            pack_worker_tier(idx as u32, tier),
                        );
                    }
                    // Snapshot adoption is recorded for *every* batch
                    // that first serves a new version (not sampled):
                    // span continuity must hold in sampled traces too.
                    let version = snap.version();
                    if version != last_version {
                        last_version = version;
                        t.record(EventKind::SnapshotAdopt, 0, version, idx as u32);
                    }
                }
                if let Some(h) = hook {
                    h(idx, &batch, &out, snap.version());
                }
            }
        }));
        match run {
            Ok(()) => break, // queue closed and drained
            Err(_) => w.respawns.inc(),
        }
    }
}

/// The single control-plane writer: drain a burst, coalesce duplicate
/// prefixes (last update wins, order of survivors preserved), apply under
/// one writer critical section, publish one snapshot. VRF-bound survivors
/// publish once per tenant they touch, all on one leaf-store epoch
/// ([`VrfTable::update_burst`]). The engine FIB's [`BatchOutcome`] drives
/// the stats and the publish hook.
///
/// Like the workers, the writer is panic-isolated: a panicking burst
/// (most plausibly a user publish hook) is caught and counted in
/// [`writer_respawns`](EngineTelemetry::writer_respawns), and the drain
/// loop re-enters on the same OS thread — a poisoned burst must not
/// wedge the control plane while the dataplane keeps serving.
fn writer_main<K: Bits>(
    fib: &SharedFib<K>,
    vrfs: Option<&VrfTable<K>>,
    queue: &mut Consumer<StampedUpdate<K>>,
    stats: &EngineTelemetry,
    window: usize,
    hook: Option<&PublishHook<K>>,
    tracer: Option<&RingWriter>,
) {
    #[cfg(not(feature = "observe"))]
    let _ = tracer;
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut buf: Vec<StampedUpdate<K>> = Vec::with_capacity(window);
            let mut coalesced: Vec<RouteUpdate<K>> = Vec::with_capacity(window);
            let mut vrf_bound: Vec<(VrfId, RouteUpdate<K>)> = Vec::new();
            let mut seen: HashSet<(Option<VrfId>, Prefix<K>)> = HashSet::with_capacity(window);
            while queue.pop_up_to(window, &mut buf, None) {
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

                // VRF-bound survivors publish each tenant they touch
                // once, all on one leaf-store epoch. Each tenant applies
                // under its own writer lock, so one tenant's burst never
                // republishes another's table. Ids were validated at the
                // control edge; one the registry misses is shed, not a
                // writer panic.
                if let Some(v) = vrfs {
                    stats.vrf_updates.add(v.update_burst(&mut vrf_bound) as u64);
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
                let now = tsc::now();
                for (sent, _, _, _) in &buf {
                    let lag = now.saturating_sub(*sent);
                    stats.convergence_ns.record(tsc::cycles_to_ns(lag));
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
                        t.record(EventKind::Publish, 0, outcome.version, 0);
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
