//! Concurrent FIB access (§3.5's update model).
//!
//! The paper requires that "blocking the read access to Poptrie using
//! write lock is not acceptable": the forwarding path keeps looking up the
//! current FIB while an update constructs the replacement, and the switch
//! is a single atomic operation. This module reproduces that model with a
//! read-copy-update cell:
//!
//! * **Readers** ([`SharedFib::lookup`]) grab an [`Arc`] snapshot of the
//!   current `Poptrie` and run the lookup against it — updates never
//!   invalidate a snapshot a reader holds.
//! * **Writers** ([`SharedFib::insert`] / [`SharedFib::remove`]) serialize
//!   on a mutex (the paper likewise assumes "the single-threaded update
//!   operation"), apply the incremental update of §3.5 to a private
//!   [`Fib`], and publish a new snapshot by swapping the `Arc`.
//!
//! The paper swaps `base1`/`base0` fields in place with atomic stores; in
//! Rust that fine-grained scheme would require pervasive `unsafe` shared
//! mutation of the node arrays. Publishing whole-structure snapshots has
//! the same reader-visible semantics (readers always see a complete,
//! consistent FIB and never wait for an update), and a publish costs in
//! proportion to what the burst wrote, not to the size of the table:
//!
//! * The writer's trie marks each 64-byte line of its `direct` and
//!   `nodes` arrays that an update writes. Leaves live in the trie's
//!   [leaf store](crate::leaf_store), which every snapshot shares.
//! * A snapshot holds only what lookups read: the `direct` and `nodes`
//!   arrays, the scalar fields and a pinned leaf store handle. The node
//!   allocator and the write marks stay with the writer's trie.
//! * A publish takes the *spare*, the snapshot the previous publish
//!   retired, and copies into it the lines written since its version
//!   (the previous burst's and this one's) and the scalar fields. Then it
//!   swaps the spare in. On a REAL-Tier1-A-shaped table a 255-update BGP
//!   burst writes a few hundred lines, so a publish copies tens of
//!   kilobytes in about 16 µs, where a whole-trie clone took about 1 ms.
//! * **Retirement rule.** A current snapshot reads only leaf extents the
//!   writer's trie still references, so it pins nothing. Every update
//!   runs on a leaf-store [`Epoch`] that opened before it, and it first
//!   pins the current snapshot on that epoch: whatever the update
//!   releases is retired at that epoch or later, and stays until the
//!   snapshot drops. After the swap the writer keeps the retired snapshot
//!   as the next spare. The next publish asks whether it holds the only
//!   reference to the spare ([`Arc::get_mut`]). If it does, the spare
//!   drops its pin and becomes current, and when the publish's epoch
//!   closes, the store collects every extent no live pin can see. If a
//!   worker still holds the spare (one that took its snapshot just before
//!   the swap), the writer lets go of it, and the worker's release ends
//!   the pin. An update that publishes nothing unpins the current
//!   snapshot again, so a table that stops publishing holds nothing its
//!   store's other tables retire.
//! * **Epochs.** [`SharedFib::update_batch`] and the other single-table
//!   updates open an epoch of their own. [`SharedFib::update_batch_in`]
//!   runs on an epoch the caller opened: a VRF writer burst opens one
//!   before its first update, then updates and publishes each tenant it
//!   touches once, so k tenants cost one epoch and one collection. An
//!   extent a later tenant retires is retired at that epoch or later, so
//!   the pin of every snapshot retired earlier in the burst still holds
//!   it.
//! * A publish whose spare is missing or still held copies the whole
//!   trie, the cold path counted in [`PublishStats::full_copies`].
//! * A snapshot a reader can reach is never written: the spare is only
//!   ever written through `Arc::get_mut`.
//!
//! The steady state holds three copies of the node and direct arrays:
//! the writer's, the current snapshot and the spare, plus one leaf slab
//! ([`SharedFib::array_bytes`]). Whole-structure events (compilation,
//! [`Fib::rebuild`], growth of the node array) make the next two
//! publishes copy everything. Debug builds check every incremental
//! publish byte for byte against the writer's trie.
//!
//! Earlier revisions used epoch-based reclamation (`crossbeam-epoch`) for
//! strictly wait-free reads; the cell now swaps an `Arc` under a
//! [`RwLock`] whose read-side critical section is a single
//! reference-count increment, so the workspace builds with no external
//! dependencies and readers still never wait for a FIB rebuild.
//! DESIGN.md records both substitutions.

use poptrie_bitops::Bits;
use poptrie_rib::{NextHop, Prefix, RadixTree};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use crate::config::PoptrieConfig;
use crate::dirty::DirtyLines;
use crate::leaf_store::{Epoch, LeafStore};
use crate::trie::Poptrie;
use crate::update::{Applied, Fib, UpdateError, UpdateStats};

/// An RCU cell: cheap snapshot reads of a heap value that is replaced
/// wholesale by writers.
///
/// Readers never hold a lock while using the value — [`RcuCell::read`]
/// and [`RcuCell::snapshot`] clone the inner [`Arc`] (one atomic
/// increment under a briefly-held read lock) and the caller works on
/// that snapshot for as long as it likes. Writers swap in a new `Arc`;
/// the old value is dropped when its last snapshot goes away.
pub struct RcuCell<T> {
    ptr: RwLock<Arc<T>>,
}

impl<T> core::fmt::Debug for RcuCell<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RcuCell").finish_non_exhaustive()
    }
}

impl<T> RcuCell<T> {
    /// Create a cell holding `value`.
    pub fn new(value: T) -> Self {
        RcuCell {
            ptr: RwLock::new(Arc::new(value)),
        }
    }

    /// A shared snapshot of the current value. The snapshot stays valid
    /// (and unchanged) even if writers replace the cell's value
    /// afterwards.
    #[inline]
    pub fn snapshot(&self) -> Arc<T> {
        // Poisoning cannot leave the Arc in a torn state (replacing it is
        // a single pointer swap), so a panic elsewhere must not take the
        // forwarding path down with it.
        match self.ptr.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Run `f` against the current value. The value is guaranteed to stay
    /// alive for the duration of the call even if a writer replaces it
    /// concurrently.
    #[inline]
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.snapshot())
    }

    /// Atomically publish `value` and hand back the previous value's
    /// `Arc`. The caller decides its fate: dropping it frees the value
    /// once the last outstanding snapshot drops, and a caller holding
    /// the only reference ([`Arc::get_mut`]) may reuse it.
    ///
    /// The write lock is held only for the pointer swap itself. The old
    /// `Arc` leaves the critical section before anything else happens to
    /// it: when it holds the last reference to a full BGP-table Poptrie,
    /// its deallocation takes long enough that dropping it under the lock
    /// would stall every reader for the duration.
    pub fn replace(&self, value: impl Into<Arc<T>>) -> Arc<T> {
        let next = value.into();
        let old = {
            let mut g = match self.ptr.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            core::mem::replace(&mut *g, next)
        };
        #[cfg(feature = "observe")]
        crate::telemetry::record_rcu_publish(Arc::strong_count(&old) as u64 - 1);
        old
    }

    /// Number of snapshots of the *current* value held outside the cell
    /// — readers mid-lookup, or batch handles pinned across a burst.
    /// Superseded values (kept alive by parked readers after a
    /// [`RcuCell::replace`]) are not counted; each is freed when its last
    /// holder drops it.
    ///
    /// The count is a momentary observation: concurrent readers may
    /// acquire or drop snapshots around the call. It is exact when the
    /// caller can rule out concurrent snapshot traffic (tests, quiesced
    /// scrapes).
    pub fn snapshot_count(&self) -> usize {
        let g = match self.ptr.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // One reference is the cell's own; the rest are snapshots.
        Arc::strong_count(&g) - 1
    }
}

/// One published FIB state: the compiled [`Poptrie`] plus the RCU version
/// it was published as.
///
/// `FibSnapshot` dereferences to the [`Poptrie`], so every lookup-side
/// method ([`Poptrie::lookup`](crate::Poptrie::lookup),
/// [`Poptrie::lookup_batch`](crate::Poptrie::lookup_batch),
/// [`Poptrie::stats`](crate::Poptrie::stats), …) is available directly on
/// a snapshot. The version is what lets a dataplane attribute each served
/// batch to a specific published state — the forwarding engine's
/// oracle-exactness test hangs off it.
#[derive(Debug)]
pub struct FibSnapshot<K: Bits> {
    trie: Poptrie<K>,
    version: u64,
}

impl<K: Bits> FibSnapshot<K> {
    /// The publish sequence number: 0 for the initially compiled state,
    /// +1 for every snapshot published after it.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl<K: Bits> core::ops::Deref for FibSnapshot<K> {
    type Target = Poptrie<K>;

    #[inline]
    fn deref(&self) -> &Poptrie<K> {
        &self.trie
    }
}

/// What one [`SharedFib::update_batch`] call did: how many events it
/// consumed, how many were effective (changed the RIB), and the version
/// of the single snapshot it published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Events consumed from the iterator.
    pub events: usize,
    /// Events that changed the RIB (re-announcements and absent
    /// withdraws don't).
    pub applied: usize,
    /// The version of the snapshot published at the end of the batch.
    pub version: u64,
}

/// Publish work done by a [`SharedFib`] since it was built (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Publishes that copied every array in full: the first publish, the
    /// one after a reader kept the retired snapshot, and the two after a
    /// whole-structure event.
    pub full_copies: u64,
    /// Publishes that copied only the lines written since the recycled
    /// snapshot's version.
    pub incremental: u64,
    /// Bytes of the `direct` and `nodes` arrays copied by all publishes.
    pub bytes_copied: u64,
}

impl PublishStats {
    /// The work done between `earlier` and `self`.
    pub fn since(self, earlier: PublishStats) -> PublishStats {
        PublishStats {
            full_copies: self.full_copies - earlier.full_copies,
            incremental: self.incremental - earlier.incremental,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
        }
    }
}

/// The writer half of a [`SharedFib`]: the private [`Fib`] and the spare
/// snapshot the next publish brings up to date.
struct Writer<K: Bits> {
    fib: Fib<K>,
    /// The last retired snapshot. Readers that took it before its
    /// retirement may still hold it; the next publish recycles it only
    /// once they have let go.
    spare: Option<Arc<FibSnapshot<K>>>,
    /// The lines the spare lacks relative to the current snapshot: those
    /// the burst before the latest publish wrote.
    stale: DirtyLines,
}

/// A concurrently readable FIB with serialized incremental updates.
///
/// ```
/// use poptrie::sync::SharedFib;
/// use poptrie::PoptrieConfig;
/// use std::sync::Arc;
///
/// let cfg = PoptrieConfig::new().direct_bits(18).build()?;
/// let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::with_config(cfg));
/// fib.insert("10.0.0.0/8".parse().unwrap(), 1)?;
///
/// let reader = Arc::clone(&fib);
/// let t = std::thread::spawn(move || reader.lookup(0x0A00_0001));
/// assert_eq!(t.join().unwrap(), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SharedFib<K: Bits> {
    writer: Mutex<Writer<K>>,
    current: RcuCell<FibSnapshot<K>>,
    /// The current snapshot's version, stored (`Release`) after its swap
    /// so version pollers read it without touching the cell. Only a
    /// publish, under the writer lock, stores it.
    version: AtomicU64,
    full_copies: AtomicU64,
    incremental: AtomicU64,
    bytes_copied: AtomicU64,
}

impl<K: Bits> core::fmt::Debug for SharedFib<K> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SharedFib").finish_non_exhaustive()
    }
}

impl<K: Bits> SharedFib<K> {
    /// Serve `fib` with its current state published as `version`.
    fn from_fib(mut fib: Fib<K>, version: u64) -> Self {
        let current = RcuCell::new(FibSnapshot {
            trie: fib.poptrie().published_copy(),
            version,
        });
        let mut stale = DirtyLines::default();
        fib.take_dirty(&mut stale);
        SharedFib {
            writer: Mutex::new(Writer {
                fib,
                spare: None,
                stale,
            }),
            current,
            version: AtomicU64::new(version),
            full_copies: AtomicU64::new(0),
            incremental: AtomicU64::new(0),
            bytes_copied: AtomicU64::new(0),
        }
    }

    /// An empty shared FIB shaped by `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS`.
    pub fn with_config(config: PoptrieConfig) -> Self {
        Self::from_fib(Fib::with_config(config), 0)
    }

    /// Build from an existing RIB (full compilation, §3's aggregation per
    /// `config.aggregate`), then serve concurrent lookups and serialized
    /// incremental updates.
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS`.
    pub fn compile(rib: RadixTree<K, NextHop>, config: PoptrieConfig) -> Self {
        Self::from_fib(Fib::compile(rib, config), 0)
    }

    /// Build from an existing RIB with its leaf blocks interned in
    /// `store`, shared with every other table built into it. See
    /// [`Fib::compile_in`].
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS`.
    pub fn compile_in(
        rib: RadixTree<K, NextHop>,
        config: PoptrieConfig,
        store: &LeafStore,
    ) -> Self {
        Self::from_fib(Fib::compile_in(rib, config, store), 0)
    }

    /// Longest-prefix-match lookup on the current snapshot; never blocks
    /// on writers rebuilding the FIB.
    #[inline]
    pub fn lookup(&self, key: K) -> Option<NextHop> {
        self.current.read(|t| t.lookup(key))
    }

    /// A shared snapshot of the current compiled FIB. The general form of
    /// [`SharedFib::lookup`] / [`SharedFib::lookup_batch`]: hold it to
    /// amortize snapshot acquisition over an entire packet burst or to
    /// read auxiliary state ([`Poptrie::stats`](crate::Poptrie::stats),
    /// [`Poptrie::ranges`](crate::Poptrie::ranges)) coherently with
    /// lookups. The snapshot carries its publish [version]
    /// ([`FibSnapshot::version`]), so a dataplane can attribute every
    /// served batch to a specific published state.
    ///
    /// [version]: FibSnapshot::version
    #[inline]
    pub fn snapshot(&self) -> Arc<FibSnapshot<K>> {
        self.current.snapshot()
    }

    /// Run `f` against one consistent FIB snapshot.
    #[inline]
    pub fn with_current<R>(&self, f: impl FnOnce(&FibSnapshot<K>) -> R) -> R {
        self.current.read(f)
    }

    /// The version of the currently published snapshot: one atomic load,
    /// which takes no snapshot. A snapshot taken after `version()`
    /// returned `v` has a version of at least `v`.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Bytes this FIB keeps: the `direct` and `nodes` arrays of the
    /// writer's trie, the current snapshot and the writer's spare, plus
    /// the leaf store's slab once. Superseded snapshots held only by
    /// readers are not counted. Takes the writer lock.
    pub fn array_bytes(&self) -> usize {
        let w = self.writer();
        let trie = w.fib.poptrie();
        trie.array_bytes()
            + trie.leaf_store().bytes()
            + self.current.snapshot().trie.array_bytes()
            + w.spare.as_ref().map_or(0, |s| s.trie.array_bytes())
    }

    /// The publish work done so far (see [`PublishStats`]).
    pub fn publish_stats(&self) -> PublishStats {
        PublishStats {
            full_copies: self.full_copies.load(Ordering::Relaxed),
            incremental: self.incremental.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
        }
    }

    /// Batched lookup: runs `keys` against one snapshot, storing next
    /// hops into `out`. Acquiring the snapshot once per batch keeps the
    /// read-side overhead negligible for forwarding-style workloads, and
    /// the underlying [`Poptrie::lookup_batch`](crate::Poptrie::lookup_batch)
    /// interleaves the keys with software prefetch.
    pub fn lookup_batch(&self, keys: &[K], out: &mut Vec<Option<NextHop>>) {
        out.clear();
        out.resize(keys.len(), None);
        let snap = self.snapshot();
        let mut raw = vec![poptrie_rib::NO_ROUTE; keys.len()];
        snap.lookup_batch(keys, &mut raw);
        for (o, nh) in out.iter_mut().zip(raw) {
            *o = (nh != poptrie_rib::NO_ROUTE).then_some(nh);
        }
    }

    /// Batched raw lookup against one snapshot: next hops into `out`
    /// ([`NO_ROUTE`](poptrie_rib::NO_ROUTE) for a miss), no allocation.
    pub fn lookup_batch_raw(&self, keys: &[K], out: &mut [NextHop]) {
        self.snapshot().lookup_batch(keys, out);
    }

    fn writer(&self) -> MutexGuard<'_, Writer<K>> {
        match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Publish the writer's current state as the next snapshot version by
    /// bringing the spare up to date or, when there is none or a reader
    /// still holds it, by copying the trie (see the [module docs](self)).
    fn publish(&self, w: &mut Writer<K>) -> u64 {
        let version = self.version.load(Ordering::Relaxed) + 1;
        let src = w.fib.poptrie();
        let mut spare = w.spare.take();
        let (next, copied) = match spare.as_mut().and_then(Arc::get_mut) {
            Some(snap) => {
                let copied = snap.trie.sync_from(src, &w.stale);
                snap.version = version;
                (spare.expect("just recycled"), copied)
            }
            None => {
                // Dropping a spare a reader still holds leaves it, and its
                // pin, to the last reader, as for any retired snapshot.
                drop(spare);
                let trie = src.published_copy();
                let copied = crate::dirty::Copied {
                    bytes: trie.array_bytes(),
                    full: true,
                };
                (Arc::new(FibSnapshot { trie, version }), copied)
            }
        };
        w.spare = Some(self.current.replace(next));
        self.version.store(version, Ordering::Release);
        // The retired snapshot lacks exactly what this burst wrote.
        w.fib.take_dirty(&mut w.stale);
        let counter = if copied.full {
            &self.full_copies
        } else {
            &self.incremental
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.bytes_copied
            .fetch_add(copied.bytes as u64, Ordering::Relaxed);
        version
    }

    /// Run `update` on the writer's trie, on `epoch` or on an epoch of its
    /// own, and publish when `publishes` says so. The epoch opens, and the
    /// current snapshot is pinned on it, before `update` can release an
    /// extent that snapshot reads (see the [module docs](self)). Returns
    /// `update`'s result and the current version.
    fn write<R>(
        &self,
        epoch: Option<&Epoch>,
        update: impl FnOnce(&mut Fib<K>) -> R,
        publishes: impl FnOnce(&R) -> bool,
    ) -> (R, u64) {
        let mut w = self.writer();
        let store = w.fib.poptrie().leaf_store();
        let own;
        let epoch = match epoch {
            Some(epoch) => {
                assert!(store.owns(epoch), "an epoch of another leaf store");
                epoch
            }
            None => {
                own = store.open_epoch();
                &own
            }
        };
        let current = self.current.snapshot();
        current.trie.leaf_store().retire_on(epoch);
        let out = update(&mut w.fib);
        if !publishes(&out) {
            current.trie.leaf_store().unpin();
            return (out, self.version.load(Ordering::Relaxed));
        }
        drop(current);
        (out, self.publish(&mut w))
    }

    /// Announce a route and publish the updated FIB.
    ///
    /// Returns what happened ([`Applied::Inserted`], [`Applied::Replaced`]
    /// or [`Applied::Unchanged`]); a new snapshot is published on any
    /// `Ok`. Fails without publishing when the route is rejected (see
    /// [`UpdateError`]).
    pub fn insert(&self, prefix: Prefix<K>, nh: NextHop) -> Result<Applied, UpdateError> {
        let (applied, _) = self.write(None, |fib| fib.insert(prefix, nh), Result::is_ok);
        applied
    }

    /// Withdraw a route. A new snapshot is published only when the route
    /// actually existed ([`Applied::Withdrawn`]); [`Applied::Absent`]
    /// leaves the current snapshot in place.
    pub fn remove(&self, prefix: Prefix<K>) -> Result<Applied, UpdateError> {
        let changed = |r: &Result<Applied, _>| matches!(r, Ok(a) if a.changed());
        self.write(None, |fib| fib.remove(prefix), changed).0
    }

    /// Apply a batch of updates under one writer critical section and
    /// publish a single snapshot at the end — the efficient way to replay
    /// BGP update bursts. Per-event rejections ([`UpdateError`]) are
    /// counted out of `applied` but do not abort the batch, matching how
    /// a BGP speaker treats malformed updates in a burst.
    pub fn update_batch(&self, updates: impl IntoIterator<Item = RouteUpdate<K>>) -> BatchOutcome {
        self.update_batch_on(None, updates)
    }

    /// [`SharedFib::update_batch`] on `epoch`, an epoch of this table's
    /// leaf store that the caller opened before the batch and closes
    /// after it. The snapshot the batch retires shares the epoch's pin,
    /// and nothing is collected until the epoch closes: a writer burst
    /// over many tables of one store opens one epoch for all of them (see
    /// the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics when `epoch` belongs to another leaf store.
    pub fn update_batch_in(
        &self,
        epoch: &Epoch,
        updates: impl IntoIterator<Item = RouteUpdate<K>>,
    ) -> BatchOutcome {
        self.update_batch_on(Some(epoch), updates)
    }

    fn update_batch_on(
        &self,
        epoch: Option<&Epoch>,
        updates: impl IntoIterator<Item = RouteUpdate<K>>,
    ) -> BatchOutcome {
        let apply = |fib: &mut Fib<K>| {
            let mut events = 0usize;
            let mut applied = 0usize;
            for u in updates {
                events += 1;
                let outcome = match u {
                    RouteUpdate::Announce(p, nh) => fib.insert(p, nh),
                    RouteUpdate::Withdraw(p) => fib.remove(p),
                };
                if matches!(outcome, Ok(a) if a.changed()) {
                    applied += 1;
                }
            }
            (events, applied)
        };
        let ((events, applied), version) = self.write(epoch, apply, |_| true);
        BatchOutcome {
            events,
            applied,
            version,
        }
    }

    /// Force the batched-lookup dispatch tier (clamped to what the CPU
    /// supports) and publish a fresh snapshot carrying it, so readers
    /// pick the new kernel up on their next snapshot acquisition.
    /// Returns the tier actually installed. The benchmark harness and
    /// the differential tests use this to pit SIMD tiers against the
    /// scalar walker on identical tables.
    pub fn set_batch_backend(
        &self,
        backend: poptrie_bitops::BatchBackend,
    ) -> poptrie_bitops::BatchBackend {
        self.write(None, |fib| fib.set_batch_backend(backend), |_| true)
            .0
    }

    /// Cumulative update-work counters from the writer side.
    pub fn stats(&self) -> UpdateStats {
        self.writer().fib.stats()
    }

    /// Run `f` against the writer-side [`Fib`] under the writer lock —
    /// coherent access to the RIB and the live compiled structure (e.g.
    /// [`Fib::rib`], [`Poptrie::audit`](crate::Poptrie::audit)) without
    /// publishing anything. Blocks writers for the duration; not a hot
    /// path.
    pub fn with_fib<R>(&self, f: impl FnOnce(&Fib<K>) -> R) -> R {
        f(&self.writer().fib)
    }

    /// Snapshots of the current FIB held outside the cell (see
    /// [`RcuCell::snapshot_count`]).
    pub fn snapshot_count(&self) -> usize {
        self.current.snapshot_count()
    }
}

/// A BGP-style route update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteUpdate<K: Bits> {
    /// Announce (insert or replace) `prefix -> next hop`.
    Announce(Prefix<K>, NextHop),
    /// Withdraw `prefix`.
    Withdraw(Prefix<K>),
}
