//! The [`VrfId`]-indexed registry of per-tenant FIBs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use poptrie::config::PoptrieConfig;
use poptrie::sync::{BatchOutcome, FibSnapshot, RouteUpdate, SharedFib};
use poptrie::{InternStats, LeafStore, VrfId};
use poptrie_bitops::Bits;
use poptrie_rib::{NextHop, RadixTree};

/// Tenants in the registry's first segment; segment `s` holds
/// `FIRST << s`.
const FIRST: usize = 64;
/// Segments enough for every `u32` id.
const SEGMENTS: usize = 33 - FIRST.ilog2() as usize;

/// One registry segment: its tenants' slots, each set once.
type Segment<K> = Box<[OnceLock<Arc<SharedFib<K>>>]>;

/// The segment and the index in it of tenant `i`.
fn slot_of(i: usize) -> (usize, usize) {
    let n = i + FIRST;
    let s = (n.ilog2() - FIRST.ilog2()) as usize;
    (s, n - (FIRST << s))
}

/// Group-wide memory accounting: what the tenant set actually costs,
/// shared storage counted once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VrfMemory {
    /// Registered tables.
    pub tables: usize,
    /// Routes across all tables (RIB entries).
    pub routes: usize,
    /// Per-table node-array bytes, summed.
    pub node_bytes: usize,
    /// Per-table direct-table bytes, summed.
    pub direct_bytes: usize,
    /// The leaf bytes the tables would hold unshared: one two-byte slot
    /// per leaf of each node (the paper's Table 2 accounting,
    /// `stats().leaves * 2`), summed. Not part of
    /// [`total_bytes`](VrfMemory::total_bytes).
    pub unshared_leaf_bytes: usize,
    /// The shared store's bytes, counted **once** for the whole group.
    pub shared_store_bytes: usize,
    /// Store slots actually occupied by live extents (after buddy
    /// rounding), in bytes — how much of `shared_store_bytes` is in use.
    pub shared_used_bytes: usize,
}

impl VrfMemory {
    /// Total accounted bytes: per-table structures plus the shared store
    /// (its whole slab, not just its used fraction — the slab is
    /// committed memory either way).
    pub fn total_bytes(&self) -> usize {
        self.node_bytes + self.direct_bytes + self.shared_store_bytes
    }

    /// `total_bytes` per route — the scale metric tenant multiplexing is
    /// judged on.
    pub fn bytes_per_route(&self) -> f64 {
        if self.routes == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / self.routes as f64
    }
}

/// A registry multiplexing many per-tenant [`SharedFib`]s over one
/// [`LeafStore`]: every table created through the registry interns its
/// leaf blocks in the group's store, so byte-identical blocks across
/// tenants are stored once. Nodes and direct tables stay private per
/// tenant, so per-VRF update isolation and snapshot costs are unchanged
/// from a standalone [`SharedFib`].
///
/// Tables are created with [`VrfTable::create`] /
/// [`VrfTable::create_from`] and addressed by [`VrfId`] thereafter. The
/// registry only grows: it is append-only storage whose tables never
/// move, so reading a tenant ([`VrfTable::tenant`], and through it
/// [`VrfTable::snapshot`] and the updates) takes no lock and no
/// reference count. VRF deletion requires draining the tenant's interned
/// references (a `rebuild` against an empty RIB would do it) and is
/// deliberately left out until a caller needs it.
pub struct VrfTable<K: Bits> {
    /// Segment `s` holds the `FIRST << s` tenants from id
    /// `FIRST * (2^s - 1)` on, allocated by the first create that needs
    /// it. A slot is set once, before `len` passes it.
    segments: [OnceLock<Segment<K>>; SEGMENTS],
    /// Registered tables, stored with Release after the newest slot is
    /// set, so every id below a loaded length resolves.
    len: AtomicUsize,
    /// Serializes creates; readers never take it.
    grow: Mutex<()>,
    config: PoptrieConfig,
    store: LeafStore,
}

impl<K: Bits> core::fmt::Debug for VrfTable<K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VrfTable")
            .field("tables", &self.len())
            .finish_non_exhaustive()
    }
}

impl<K: Bits> VrfTable<K> {
    /// A registry whose leaf store starts with `slots` leaf slots (two
    /// bytes each) and grows on demand.
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS` (checked at the first
    /// table creation).
    pub fn shared(config: PoptrieConfig, slots: u32) -> Self {
        VrfTable {
            segments: [const { OnceLock::new() }; SEGMENTS],
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
            config,
            store: LeafStore::new(slots),
        }
    }

    /// Registered tables, read without a lock: the engine's submit path
    /// validates every VRF id against it.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no table has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Create an empty table; returns its [`VrfId`].
    pub fn create(&self) -> VrfId {
        self.create_from(RadixTree::new())
    }

    /// Create a table compiled from `rib`; returns its [`VrfId`].
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS`.
    pub fn create_from(&self, rib: RadixTree<K, NextHop>) -> VrfId {
        let fib = Arc::new(SharedFib::compile_in(rib, self.config, &self.store));
        let _grow = self
            .grow
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let i = self.len.load(Ordering::Relaxed);
        let (s, at) = slot_of(i);
        let segment =
            self.segments[s].get_or_init(|| (0..FIRST << s).map(|_| OnceLock::new()).collect());
        assert!(segment[at].set(fib).is_ok(), "tenant slot {i} set twice");
        self.len.store(i + 1, Ordering::Release);
        VrfId::new(i as u32)
    }

    /// The slot of table `id`: two `Acquire` loads, of the segment's and
    /// the slot's cell, and no lock.
    #[inline]
    fn slot(&self, id: VrfId) -> Option<&Arc<SharedFib<K>>> {
        let (s, at) = slot_of(id.index());
        self.segments.get(s)?.get()?.get(at)?.get()
    }

    /// The table registered as `id`, or `None` for an unknown id. Takes
    /// no lock and no reference count.
    #[inline]
    pub fn tenant(&self, id: VrfId) -> Option<&SharedFib<K>> {
        self.slot(id).map(|t| &**t)
    }

    /// An owning handle on the table registered as `id` (see
    /// [`VrfTable::tenant`] for the borrowed one).
    pub fn get(&self, id: VrfId) -> Option<Arc<SharedFib<K>>> {
        self.slot(id).cloned()
    }

    /// Every registered table, in id order.
    fn tables(&self) -> impl Iterator<Item = &SharedFib<K>> {
        (0..self.len()).filter_map(|i| self.tenant(VrfId::new(i as u32)))
    }

    /// A lookup snapshot of table `id` (see [`SharedFib::snapshot`]).
    pub fn snapshot(&self, id: VrfId) -> Option<Arc<FibSnapshot<K>>> {
        self.tenant(id).map(SharedFib::snapshot)
    }

    /// Apply an update batch to table `id` under its own writer lock,
    /// publishing one snapshot on a store epoch of its own (see
    /// [`SharedFib::update_batch`]). Other tables are untouched:
    /// isolation is structural (private nodes and direct tables), not
    /// scheduled.
    pub fn update_batch(
        &self,
        id: VrfId,
        updates: impl IntoIterator<Item = RouteUpdate<K>>,
    ) -> Option<BatchOutcome> {
        self.tenant(id).map(|t| t.update_batch(updates))
    }

    /// Apply one writer burst of tenant updates, publishing each tenant
    /// it touches once. `burst` is reordered in place: grouped by tenant,
    /// each tenant's updates in their original order. One leaf-store
    /// epoch opens before the first update is applied, every tenant
    /// snapshot the burst publishes pins it (see
    /// [`SharedFib::update_batch_in`]), and the store collects once after
    /// the last. Updates to unknown ids are skipped. Returns how many
    /// updates changed a RIB.
    pub fn update_burst(&self, burst: &mut [(VrfId, RouteUpdate<K>)]) -> usize {
        if burst.is_empty() {
            return 0;
        }
        burst.sort_by_key(|&(id, _)| id);
        let epoch = self.store.open_epoch();
        burst
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(|run| {
                let updates = run.iter().map(|&(_, u)| u);
                Some(
                    self.tenant(run[0].0)?
                        .update_batch_in(&epoch, updates)
                        .applied,
                )
            })
            .sum()
    }

    /// The group's interning stats; always `Some`.
    pub fn intern_stats(&self) -> Option<InternStats> {
        Some(self.store.stats())
    }

    /// Group-wide memory accounting: per-table structures summed, the
    /// shared store counted once.
    pub fn memory(&self) -> VrfMemory {
        let mut m = VrfMemory {
            tables: self.len(),
            ..VrfMemory::default()
        };
        for t in self.tables() {
            let snap = t.snapshot();
            let stats = snap.stats();
            m.routes += t.with_fib(|fib| fib.rib().len());
            m.node_bytes += stats.inodes * 24;
            m.direct_bytes += stats.direct_slots * 4;
            m.unshared_leaf_bytes += stats.leaves * core::mem::size_of::<NextHop>();
        }
        m.shared_store_bytes = self.store.bytes();
        let used = self.store.stats().live_slots_rounded as usize;
        m.shared_used_bytes = used * core::mem::size_of::<NextHop>();
        m
    }

    /// Exact group audit: every table's
    /// [`audit`](poptrie::Poptrie::audit) must pass, the store's own
    /// invariants must hold, and the sum of per-table leaf-block
    /// references must reproduce its reference total exactly — the
    /// cross-table proof that no table leaks or double-frees shared
    /// extents.
    pub fn audit(&self) -> Result<(), String> {
        let mut refs = 0u64;
        for (i, t) in self.tables().enumerate() {
            let report = t
                .with_fib(|fib| fib.poptrie().audit())
                .map_err(|e| format!("vrf#{i}: {e}"))?;
            refs += report.leaf_block_refs as u64;
        }
        self.store.check_invariants()?;
        let total = self.store.stats().total_refs;
        if refs != total {
            return Err(format!(
                "cross-table reference mismatch: tables hold {refs}, the store says {total}"
            ));
        }
        Ok(())
    }
}
