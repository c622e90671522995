//! The [`VrfId`]-indexed registry of per-tenant FIBs.

use std::sync::{Arc, Mutex};

use poptrie::config::PoptrieConfig;
use poptrie::shared_leaves::{LeafInterner, LeafStoreHandle, SharedLeaves};
use poptrie::sync::{BatchOutcome, FibSnapshot, RouteUpdate, SharedFib};
use poptrie::VrfId;
use poptrie_bitops::Bits;
use poptrie_buddy::ArenaOwner;
use poptrie_rib::{NextHop, RadixTree};

use crate::intern::{InternStats, NextHopIntern};

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
    /// Private leaf bytes, summed (zero for a shared-arena group).
    pub private_leaf_bytes: usize,
    /// The shared store's bytes, counted **once** for the whole group
    /// (zero for an unshared group).
    pub shared_store_bytes: usize,
    /// Shared-arena slots actually occupied by live extents (after buddy
    /// rounding), in bytes — how much of `shared_store_bytes` is in use.
    pub shared_used_bytes: usize,
}

impl VrfMemory {
    /// Total accounted bytes: per-table structures plus the shared store
    /// (the provisioned slab, not just its used fraction — the arena is
    /// committed memory either way).
    pub fn total_bytes(&self) -> usize {
        self.node_bytes + self.direct_bytes + self.private_leaf_bytes + self.shared_store_bytes
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

/// A registry multiplexing many per-tenant [`SharedFib`]s, optionally over
/// one shared leaf arena with next-hop interning.
///
/// * **Shared mode** ([`VrfTable::shared`]) — every table created through
///   the registry compiles its leaf blocks into one fixed arena via
///   [`NextHopIntern`]; byte-identical blocks across tenants are stored
///   once. Nodes and direct tables stay private per tenant, so per-VRF
///   update isolation and snapshot costs are unchanged from a standalone
///   [`SharedFib`].
/// * **Private mode** ([`VrfTable::private`]) — every table owns its
///   leaves; the baseline the bench compares against.
///
/// Tables are created with [`VrfTable::create`] /
/// [`VrfTable::create_from`] and addressed by [`VrfId`] thereafter. The
/// registry only grows in this revision: VRF deletion requires draining
/// the tenant's interned references (a `rebuild` against an empty RIB
/// would do it) and is deliberately left out until a caller needs it.
pub struct VrfTable<K: Bits> {
    tables: std::sync::RwLock<Vec<Arc<SharedFib<K>>>>,
    config: PoptrieConfig,
    /// Shared mode: the group handle cloned into every table, plus a
    /// direct line to the concrete interner for stats and invariants.
    shared: Option<(LeafStoreHandle, Arc<Mutex<NextHopIntern>>)>,
}

impl<K: Bits> core::fmt::Debug for VrfTable<K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VrfTable")
            .field("tables", &self.len())
            .field("shared", &self.shared.is_some())
            .finish_non_exhaustive()
    }
}

impl<K: Bits> VrfTable<K> {
    /// A shared-arena registry: `leaf_capacity` slots of leaf storage
    /// (two bytes each) provisioned once for the whole group.
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS` (checked at the first
    /// table creation) or `leaf_capacity` is zero.
    pub fn shared(config: PoptrieConfig, leaf_capacity: u32) -> Self {
        assert!(leaf_capacity > 0, "shared arena needs capacity");
        let store = SharedLeaves::new(leaf_capacity);
        let owner = ArenaOwner::fixed(leaf_capacity);
        let intern = Arc::new(Mutex::new(NextHopIntern::new(
            owner.handle(),
            Arc::clone(&store),
        )));
        let dyn_intern: Arc<Mutex<dyn LeafInterner>> = {
            let i: Arc<Mutex<NextHopIntern>> = Arc::clone(&intern);
            i
        };
        let handle = LeafStoreHandle::new(store, dyn_intern);
        VrfTable {
            tables: std::sync::RwLock::new(Vec::new()),
            config,
            shared: Some((handle, intern)),
        }
    }

    /// An unshared registry: every table owns its leaves. The baseline
    /// `repro vrf` measures the shared mode against.
    pub fn private(config: PoptrieConfig) -> Self {
        VrfTable {
            tables: std::sync::RwLock::new(Vec::new()),
            config,
            shared: None,
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<Arc<SharedFib<K>>>> {
        self.tables
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registered tables.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no table has been created yet.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Whether tables share the group leaf arena.
    pub fn is_shared(&self) -> bool {
        self.shared.is_some()
    }

    /// Create an empty table; returns its [`VrfId`].
    pub fn create(&self) -> VrfId {
        self.create_from(RadixTree::new())
    }

    /// Create a table compiled from `rib`; returns its [`VrfId`].
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS`, or (shared mode) when
    /// the group arena cannot fit the table's leaf blocks.
    pub fn create_from(&self, rib: RadixTree<K, NextHop>) -> VrfId {
        let fib = match &self.shared {
            Some((handle, _)) => SharedFib::compile_shared(rib, self.config, handle.clone()),
            None => SharedFib::compile(rib, self.config),
        };
        let mut tables = self
            .tables
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        tables.push(Arc::new(fib));
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

    /// The group's interning stats (shared mode only).
    pub fn intern_stats(&self) -> Option<InternStats> {
        self.shared.as_ref().map(|(_, i)| {
            i.lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .stats()
        })
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
            if self.shared.is_none() {
                m.private_leaf_bytes += stats.leaves * core::mem::size_of::<NextHop>();
            }
        }
        if let Some((handle, intern)) = &self.shared {
            m.shared_store_bytes = handle.store().bytes();
            let s = intern
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .stats();
            m.shared_used_bytes = s.live_slots_rounded as usize * core::mem::size_of::<NextHop>();
        }
        m
    }

    /// Exact group audit: every table's
    /// [`audit`](poptrie::Poptrie::audit) must pass, and in shared mode
    /// the interner's own invariants must hold with the sum of per-table
    /// leaf-block references reproducing its reference total exactly —
    /// the cross-table proof that no table leaks or double-frees shared
    /// extents.
    pub fn audit(&self) -> Result<(), String> {
        let mut refs = 0u64;
        for (i, t) in self.read().iter().enumerate() {
            let report = t
                .with_fib(|fib| fib.poptrie().audit())
                .map_err(|e| format!("vrf#{i}: {e}"))?;
            refs += report.leaf_block_refs as u64;
        }
        if let Some((_, intern)) = &self.shared {
            let g = intern
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            g.check_invariants()?;
            if refs != g.total_refs() {
                return Err(format!(
                    "cross-table reference mismatch: tables hold {refs}, interner says {}",
                    g.total_refs()
                ));
            }
        }
        Ok(())
    }
}
