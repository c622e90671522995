//! Runtime instrumentation for the Poptrie hot paths (the `observe`
//! feature).
//!
//! The paper's evaluation is a set of offline measurements: lookup rate by
//! traffic pattern (Figs. 8–10), prefix-length/descent-depth breakdowns
//! (Fig. 11), memory footprints (Tables 2, 3, 5) and per-update work
//! (Table 6, §4.9). This module keeps the same signals flowing from a
//! *live* FIB: process-wide, lock-free counters that the lookup and
//! update paths increment and that [`snapshot`] materializes into a
//! [`TelemetrySnapshot`] (human-readable struct) or, via
//! [`TelemetrySnapshot::registry`], a [`TelemetryRegistry`] rendering
//! Prometheus text or JSON.
//!
//! # Zero cost when disabled
//!
//! Every instrumentation site in `trie.rs`, `batch_simd.rs`, `update.rs`
//! and `sync.rs` is a `#[cfg(feature = "observe")]` block, so the default
//! build compiles to exactly the uninstrumented code — no branch, no
//! no-op call, no symbol. CI asserts the default release artifacts
//! contain no metric names.
//!
//! # Counter semantics
//!
//! The counters are **process-wide**, aggregated across every
//! `PoptrieImpl` instance in the process (matching the usual Prometheus
//! model of per-process totals). All increments are relaxed atomics on
//! per-thread shards — see `poptrie-telemetry` for the memory-ordering
//! contract. [`reset`] zeroes everything; serialize it against the
//! workload you want to measure.
//!
//! # One hook per lookup
//!
//! Each site where a lookup resolves — the scalar direct hit and leaf,
//! the batched direct round, the scalar-chunk leaf and the SIMD lane
//! leaf — makes one call to `record_lookup`: a single sharded increment
//! of one histogram indexed by (scalar or batched) × (`leafvec` or plain
//! vector) × depth. A lookup resolved entirely by the §3.4 direct table
//! records depth 0; one that descends through `d` internal nodes records
//! depth `d`. Everything else a snapshot reports about lookups — the
//! per-mode totals, direct hits, resolutions per ranking mechanism, the
//! depth histogram, and the direct/descent phase split with its mean
//! descent depth that `repro trace` attributes perf counters to — is
//! derived from that histogram when [`snapshot`] reads it, so every
//! lookup is counted once and the derived totals reconcile by
//! construction (`tests/telemetry.rs` in the umbrella crate checks them
//! on every dispatch tier).

use poptrie_bitops::Bits;
use poptrie_telemetry::{Counter, Gauge, Histogram, Log2Histogram, LOG2_BUCKETS};

pub use poptrie_buddy::Fragmentation;
pub use poptrie_telemetry::{Metric, MetricValue, TelemetryRegistry};

use crate::node::NodeRepr;
use crate::trie::PoptrieImpl;
use crate::update::UpdateStats;

/// Buckets in the descent-depth histogram. Depth 0 is a direct-table hit;
/// the deepest possible descent is `ceil((K::BITS - s) / 6)` — 22 for
/// `u128` with `s = 0` — so 24 buckets never clamp in practice.
pub const DEPTH_BUCKETS: usize = 24;

/// Buckets of the per-lookup histogram: (scalar, batched) × (vector,
/// `leafvec`) × depth, in that order of significance.
const LOOKUP_BUCKETS: usize = 4 * DEPTH_BUCKETS;

/// Buckets in the batch-lane fill histogram: a chunk carries 0..=[`BATCH_LANES`]
/// keys.
///
/// [`BATCH_LANES`]: crate::BATCH_LANES
pub const FILL_BUCKETS: usize = crate::BATCH_LANES + 1;

// ---- the process-wide metrics ------------------------------------------

static LOOKUPS: Histogram<LOOKUP_BUCKETS> = Histogram::new();
static BATCH_FILL: Histogram<FILL_BUCKETS> = Histogram::new();

static ANNOUNCES: Counter = Counter::new();
static WITHDRAWS: Counter = Counter::new();
static REBUILDS: Counter = Counter::new();
static UPDATE_LATENCY: Log2Histogram = Log2Histogram::new();
static DIRECT_REPLACEMENTS: Counter = Counter::new();
static NODES_ALLOCATED: Counter = Counter::new();
static NODES_FREED: Counter = Counter::new();
static LEAVES_ALLOCATED: Counter = Counter::new();
static LEAVES_FREED: Counter = Counter::new();

static RCU_PUBLISHES: Counter = Counter::new();
static RCU_OUTSTANDING_PEAK: Gauge = Gauge::new();

// ---- hot-path hooks (called from cfg-gated sites in trie/update/sync) --

/// One lookup, scalar or `batched`, that resolved after descending
/// `depth` internal nodes (0 = a direct-table hit). `leafvec` says whether
/// the trie's nodes rank leaves through the §3.3 compressed `leafvec`
/// (`Node24`) or the plain vector (`Node16`); a direct hit ranks nothing,
/// so [`snapshot`] counts it under neither.
#[inline]
pub(crate) fn record_lookup(batched: bool, leafvec: bool, depth: u32) {
    let group = 2 * batched as usize + leafvec as usize;
    LOOKUPS.record(group * DEPTH_BUCKETS + (depth as usize).min(DEPTH_BUCKETS - 1));
}

/// One `lookup_batch_chunk` invocation carrying `fill` keys.
#[inline]
pub(crate) fn record_batch_call(fill: usize) {
    BATCH_FILL.record(fill);
}

/// One applied route update (announce or withdraw that changed the RIB):
/// its wall latency in TSC cycles and the structural work it performed
/// (an [`UpdateStats`] delta).
pub(crate) fn record_update(announce: bool, cycles: u64, work: &UpdateStats) {
    if announce {
        ANNOUNCES.inc();
    } else {
        WITHDRAWS.inc();
    }
    UPDATE_LATENCY.record(cycles);
    DIRECT_REPLACEMENTS.add(work.direct_replacements);
    NODES_ALLOCATED.add(work.nodes_allocated);
    NODES_FREED.add(work.nodes_freed);
    LEAVES_ALLOCATED.add(work.leaves_allocated);
    LEAVES_FREED.add(work.leaves_freed);
}

/// One full recompilation ([`Fib::rebuild`](crate::Fib::rebuild)).
pub(crate) fn record_rebuild(cycles: u64) {
    REBUILDS.inc();
    UPDATE_LATENCY.record(cycles);
}

/// One RCU snapshot publish, with the number of old snapshots still
/// outstanding at the instant of the swap.
pub(crate) fn record_rcu_publish(outstanding: u64) {
    RCU_PUBLISHES.inc();
    RCU_OUTSTANDING_PEAK.record_max(outstanding);
}

/// The phase a single lookup resolves in. Returned by
/// [`lookup_phase`](crate::trie::PoptrieImpl::lookup_phase), which
/// classifies a key without touching the counters — the `repro trace`
/// harness uses it to partition a traffic sample into per-phase batches
/// before measuring each partition under the perf group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupPhase {
    /// Resolved by the direct table: one load, depth 0.
    Direct,
    /// Descended this many internal nodes (≥ 1) before the leaf.
    Descent(u32),
}

// ---- exposition --------------------------------------------------------

/// Point-in-time structural gauges of one compiled FIB, sampled by
/// [`structure_gauges`]. These are the live analogues of Table 2/Table 5
/// columns plus the §3.5 buddy-allocator health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureGauges {
    /// Live internal nodes (Table 2's "# of inodes").
    pub inodes: usize,
    /// Live leaves (Table 2's "# of leaves").
    pub leaves: usize,
    /// Direct-pointing entries (`2^s`).
    pub direct_slots: usize,
    /// Memory footprint in bytes (Tables 2, 3, 5 accounting).
    pub memory_bytes: usize,
    /// Fragmentation of the internal-node index space.
    pub node_buddy: Fragmentation,
    /// Fragmentation of the leaf store's index space (the whole group's,
    /// for a VRF tenant).
    pub leaf_store: Fragmentation,
}

/// Sample the structural gauges of `fib`, a writer's trie (a published
/// snapshot holds no node allocator). Cheap (no traversal): counts and
/// buddy free-list summaries only.
pub fn structure_gauges<K: Bits, N: NodeRepr>(fib: &PoptrieImpl<K, N>) -> StructureGauges {
    let st = fib.stats();
    StructureGauges {
        inodes: st.inodes,
        leaves: st.leaves,
        direct_slots: st.direct_slots,
        memory_bytes: st.memory_bytes,
        node_buddy: fib.node_buddy.fragmentation(),
        leaf_store: fib.store.fragmentation(),
    }
}

/// A materialized copy of every process-wide telemetry metric, plus
/// optionally the structural gauges of one FIB
/// ([`TelemetrySnapshot::attach_structure`]).
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Scalar [`lookup`](crate::Poptrie::lookup)/`lookup_raw` calls.
    pub lookups_scalar: u64,
    /// Keys resolved through the batched path.
    pub lookups_batched: u64,
    /// Lookups fully resolved by the §3.4 direct table (depth 0).
    pub direct_hits: u64,
    /// Leaf resolutions ranked through the §3.3 compressed `leafvec`.
    pub leafvec_resolutions: u64,
    /// Leaf resolutions ranked through the plain vector (`PoptrieBasic`).
    pub vector_resolutions: u64,
    /// Descent-depth histogram; index = internal nodes visited, 0 = direct
    /// hit. Mass equals `lookups_scalar + lookups_batched`.
    pub depth: [u64; DEPTH_BUCKETS],
    /// `lookup_batch_chunk` invocations (the mass of `batch_fill`).
    pub batch_calls: u64,
    /// Batch-lane fill histogram; index = keys in the chunk.
    pub batch_fill: [u64; FILL_BUCKETS],
    /// Applied announces (inserts that changed the RIB).
    pub announces: u64,
    /// Applied withdraws.
    pub withdraws: u64,
    /// Full recompilations.
    pub rebuilds: u64,
    /// Per-update latency histogram, log2 buckets of TSC cycles: bucket 0
    /// holds 0, bucket `i` holds `[2^(i-1), 2^i)`.
    pub update_latency: [u64; LOG2_BUCKETS],
    /// Sum of all recorded update latencies, in cycles.
    pub update_latency_sum: u64,
    /// Direct-pointing entries rewritten (§4.9's top-level replacements).
    pub direct_replacements: u64,
    /// Internal nodes allocated by updates.
    pub nodes_allocated: u64,
    /// Internal nodes freed by updates.
    pub nodes_freed: u64,
    /// Leaves allocated by updates.
    pub leaves_allocated: u64,
    /// Leaves freed by updates.
    pub leaves_freed: u64,
    /// RCU snapshot publishes ([`RcuCell::replace`](crate::sync::RcuCell::replace)
    /// through [`SharedFib`](crate::sync::SharedFib)).
    pub rcu_publishes: u64,
    /// Peak number of old snapshots still outstanding at publish time.
    pub rcu_outstanding_peak: u64,
    /// Structural gauges of one FIB, when attached.
    pub structure: Option<StructureGauges>,
}

/// Materialize the current process-wide counters.
pub fn snapshot() -> TelemetrySnapshot {
    let batch_fill = BATCH_FILL.counts();
    let mut t = TelemetrySnapshot {
        lookups_scalar: 0,
        lookups_batched: 0,
        direct_hits: 0,
        leafvec_resolutions: 0,
        vector_resolutions: 0,
        depth: [0; DEPTH_BUCKETS],
        batch_calls: batch_fill.iter().sum(),
        batch_fill,
        announces: ANNOUNCES.get(),
        withdraws: WITHDRAWS.get(),
        rebuilds: REBUILDS.get(),
        update_latency: UPDATE_LATENCY.counts(),
        update_latency_sum: UPDATE_LATENCY.sum(),
        direct_replacements: DIRECT_REPLACEMENTS.get(),
        nodes_allocated: NODES_ALLOCATED.get(),
        nodes_freed: NODES_FREED.get(),
        leaves_allocated: LEAVES_ALLOCATED.get(),
        leaves_freed: LEAVES_FREED.get(),
        rcu_publishes: RCU_PUBLISHES.get(),
        rcu_outstanding_peak: RCU_OUTSTANDING_PEAK.get(),
        structure: None,
    };
    for (group, by_depth) in LOOKUPS.counts().chunks(DEPTH_BUCKETS).enumerate() {
        let total: u64 = by_depth.iter().sum();
        let resolved = total - by_depth[0];
        if group >= 2 {
            t.lookups_batched += total;
        } else {
            t.lookups_scalar += total;
        }
        if group % 2 == 1 {
            t.leafvec_resolutions += resolved;
        } else {
            t.vector_resolutions += resolved;
        }
        for (d, n) in t.depth.iter_mut().zip(by_depth) {
            *d += n;
        }
    }
    t.direct_hits = t.depth[0];
    t
}

/// Zero every process-wide counter, histogram and gauge. Serialize this
/// against the workload being measured (tests that assert exact totals
/// must own the process).
pub fn reset() {
    LOOKUPS.reset();
    BATCH_FILL.reset();
    ANNOUNCES.reset();
    WITHDRAWS.reset();
    REBUILDS.reset();
    UPDATE_LATENCY.reset();
    DIRECT_REPLACEMENTS.reset();
    NODES_ALLOCATED.reset();
    NODES_FREED.reset();
    LEAVES_ALLOCATED.reset();
    LEAVES_FREED.reset();
    RCU_PUBLISHES.reset();
    RCU_OUTSTANDING_PEAK.reset();
}

impl TelemetrySnapshot {
    /// Total lookups across both paths.
    pub fn lookups_total(&self) -> u64 {
        self.lookups_scalar + self.lookups_batched
    }

    /// Lookups that descended at least one internal node.
    pub fn descents(&self) -> u64 {
        self.lookups_total() - self.direct_hits
    }

    /// Mean descent depth over descending lookups (0.0 when none).
    pub fn mean_descent_depth(&self) -> f64 {
        match self.descents() {
            0 => 0.0,
            n => self.descent_levels() as f64 / n as f64,
        }
    }

    /// Internal nodes walked across all lookups (the depth histogram's
    /// sum).
    fn descent_levels(&self) -> u64 {
        self.depth
            .iter()
            .enumerate()
            .map(|(d, &n)| d as u64 * n)
            .sum()
    }

    /// Total applied route updates.
    pub fn updates_total(&self) -> u64 {
        self.announces + self.withdraws
    }

    /// Attach the structural gauges of `fib` (builder style).
    pub fn attach_structure<K: Bits, N: NodeRepr>(mut self, fib: &PoptrieImpl<K, N>) -> Self {
        self.structure = Some(structure_gauges(fib));
        self
    }

    /// Build the full metric registry this snapshot describes, ready to
    /// render as Prometheus text ([`TelemetryRegistry::render_prometheus`])
    /// or JSON ([`TelemetryRegistry::render_json`]).
    pub fn registry(&self) -> TelemetryRegistry {
        let mut r = TelemetryRegistry::new();
        r.counter(
            "poptrie_lookups_total",
            "Longest-prefix-match lookups performed, by execution mode.",
            &[("mode", "scalar")],
            self.lookups_scalar,
        );
        r.counter(
            "poptrie_lookups_total",
            "Longest-prefix-match lookups performed, by execution mode.",
            &[("mode", "batched")],
            self.lookups_batched,
        );
        r.counter(
            "poptrie_lookup_direct_hits_total",
            "Lookups fully resolved by the direct-pointing table (sec. 3.4).",
            &[],
            self.direct_hits,
        );
        r.counter(
            "poptrie_lookup_resolutions_total",
            "Leaf resolutions by ranking mechanism: compressed leafvec (sec. 3.3) or plain vector.",
            &[("kind", "leafvec")],
            self.leafvec_resolutions,
        );
        r.counter(
            "poptrie_lookup_resolutions_total",
            "Leaf resolutions by ranking mechanism: compressed leafvec (sec. 3.3) or plain vector.",
            &[("kind", "vector")],
            self.vector_resolutions,
        );
        let depth_buckets: Vec<(f64, u64)> = self
            .depth
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as f64, n))
            .collect();
        r.histogram(
            "poptrie_lookup_depth",
            "Trie descent depth per lookup: internal nodes visited (0 = direct-table hit; cf. Fig. 11).",
            &[],
            &depth_buckets,
            self.descent_levels() as f64,
        );
        r.counter(
            "poptrie_batch_calls_total",
            "Interleaved batched-lookup chunk invocations.",
            &[],
            self.batch_calls,
        );
        let fill_buckets: Vec<(f64, u64)> = self
            .batch_fill
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as f64, n))
            .collect();
        let fill_sum: u64 = self
            .batch_fill
            .iter()
            .enumerate()
            .map(|(i, &n)| i as u64 * n)
            .sum();
        r.histogram(
            "poptrie_batch_fill",
            "Keys carried per batched-lookup chunk (lane occupancy out of BATCH_LANES).",
            &[],
            &fill_buckets,
            fill_sum as f64,
        );
        r.counter(
            "poptrie_updates_total",
            "Applied route updates, by operation.",
            &[("op", "announce")],
            self.announces,
        );
        r.counter(
            "poptrie_updates_total",
            "Applied route updates, by operation.",
            &[("op", "withdraw")],
            self.withdraws,
        );
        r.counter(
            "poptrie_rebuilds_total",
            "Full FIB recompilations from the RIB.",
            &[],
            self.rebuilds,
        );
        r.log2_histogram(
            "poptrie_update_latency_cycles",
            "Per-update patch latency in TSC cycles, log2 buckets (cf. Table 6, sec. 4.9).",
            &[],
            &self.update_latency,
            self.update_latency_sum,
        );
        r.counter(
            "poptrie_update_direct_replacements_total",
            "Direct-pointing (top-level array) entries rewritten by updates (sec. 4.9).",
            &[],
            self.direct_replacements,
        );
        r.counter(
            "poptrie_update_nodes_total",
            "Internal nodes allocated/freed by incremental updates (sec. 3.5).",
            &[("event", "allocated")],
            self.nodes_allocated,
        );
        r.counter(
            "poptrie_update_nodes_total",
            "Internal nodes allocated/freed by incremental updates (sec. 3.5).",
            &[("event", "freed")],
            self.nodes_freed,
        );
        r.counter(
            "poptrie_update_leaves_total",
            "Leaves allocated/freed by incremental updates (sec. 3.5).",
            &[("event", "allocated")],
            self.leaves_allocated,
        );
        r.counter(
            "poptrie_update_leaves_total",
            "Leaves allocated/freed by incremental updates (sec. 3.5).",
            &[("event", "freed")],
            self.leaves_freed,
        );
        r.counter(
            "poptrie_rcu_publishes_total",
            "FIB snapshots published through the RCU cell.",
            &[],
            self.rcu_publishes,
        );
        r.gauge(
            "poptrie_rcu_outstanding_snapshots_peak",
            "Peak old snapshots still held by readers at publish time.",
            &[],
            self.rcu_outstanding_peak as f64,
        );
        if let Some(st) = &self.structure {
            r.gauge(
                "poptrie_fib_inodes",
                "Live internal nodes (Table 2).",
                &[],
                st.inodes as f64,
            );
            r.gauge(
                "poptrie_fib_leaves",
                "Live leaves (Table 2).",
                &[],
                st.leaves as f64,
            );
            r.gauge(
                "poptrie_fib_direct_slots",
                "Direct-pointing entries (2^s).",
                &[],
                st.direct_slots as f64,
            );
            r.gauge(
                "poptrie_fib_memory_bytes",
                "FIB memory footprint in bytes (Tables 2, 3, 5 accounting).",
                &[],
                st.memory_bytes as f64,
            );
            for (label, f) in [("node", &st.node_buddy), ("leaf", &st.leaf_store)] {
                r.gauge(
                    "poptrie_buddy_capacity_slots",
                    "Buddy-allocator managed slots, by array.",
                    &[("array", label)],
                    f.capacity as f64,
                );
                r.gauge(
                    "poptrie_buddy_allocated_slots",
                    "Buddy-allocator allocated slots (with rounding), by array.",
                    &[("array", label)],
                    f.allocated_slots as f64,
                );
                r.gauge(
                    "poptrie_buddy_live_blocks",
                    "Outstanding buddy allocations, by array.",
                    &[("array", label)],
                    f.live_blocks as f64,
                );
                r.gauge(
                    "poptrie_buddy_slack_slots",
                    "Slots lost to rounding and fragmentation, by array.",
                    &[("array", label)],
                    f.slack as f64,
                );
                r.gauge(
                    "poptrie_buddy_free_spans",
                    "Maximal contiguous free spans, by array.",
                    &[("array", label)],
                    f.free_spans as f64,
                );
                r.gauge(
                    "poptrie_buddy_largest_free_span_slots",
                    "Largest contiguous free span in slots, by array.",
                    &[("array", label)],
                    f.largest_free_span as f64,
                );
            }
        }
        r
    }

    /// Render as Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry().render_prometheus()
    }

    /// The metrics as one flat JSON object.
    pub fn render_json(&self) -> poptrie_telemetry::json::Json {
        self.registry().render_json()
    }
}
