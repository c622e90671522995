//! The [`VrfId`]-indexed registry of per-tenant FIBs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use poptrie::config::PoptrieConfig;
use poptrie::sync::{BatchOutcome, FibSnapshot, RouteUpdate, SharedFib};
use poptrie::{InternStats, LeafStore, VrfId};
use poptrie_bitops::Bits;
use poptrie_rib::{NextHop, RadixTree};

/// Group-wide memory accounting, in the units the `repro vrf` bench
/// reports: what the tenant set actually costs, shared storage counted
/// once.
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
/// registry only grows in this revision: VRF deletion requires draining
/// the tenant's interned references (a `rebuild` against an empty RIB
/// would do it) and is deliberately left out until a caller needs it.
pub struct VrfTable<K: Bits> {
    tables: std::sync::RwLock<Vec<Arc<SharedFib<K>>>>,
    /// `tables.len()`, stored with Release after each push under the
    /// write lock, so [`VrfTable::len`] takes no lock. The registry only
    /// grows, so every id below a loaded length resolves.
    len: AtomicUsize,
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
            tables: std::sync::RwLock::new(Vec::new()),
            len: AtomicUsize::new(0),
            config,
            store: LeafStore::new(slots),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<Arc<SharedFib<K>>>> {
        self.tables
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registered tables, read without the registry lock: the
    /// engine's submit path validates every VRF id against it.
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
        let fib = SharedFib::compile_in(rib, self.config, &self.store);
        let mut tables = self
            .tables
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        tables.push(Arc::new(fib));
        self.len.store(tables.len(), Ordering::Release);
        VrfId::new((tables.len() - 1) as u32)
    }

    /// The table registered as `id`, or `None` for an unknown id.
    pub fn get(&self, id: VrfId) -> Option<Arc<SharedFib<K>>> {
        self.read().get(id.index()).cloned()
    }

    /// A lookup snapshot of table `id` (see [`SharedFib::snapshot`]),
    /// taken under one read of the registry.
    pub fn snapshot(&self, id: VrfId) -> Option<Arc<FibSnapshot<K>>> {
        self.read().get(id.index()).map(|t| t.snapshot())
    }

    /// Apply an update batch to table `id` under its own writer lock,
    /// publishing one snapshot (see [`SharedFib::update_batch`]). Other
    /// tables are untouched: isolation is structural (private nodes and
    /// direct tables), not scheduled.
    pub fn update_batch(
        &self,
        id: VrfId,
        updates: impl IntoIterator<Item = RouteUpdate<K>>,
    ) -> Option<BatchOutcome> {
        self.get(id).map(|t| t.update_batch(updates))
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
        for t in self.read().iter() {
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
        for (i, t) in self.read().iter().enumerate() {
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
