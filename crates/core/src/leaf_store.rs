//! The leaf store: where every trie keeps its leaves.
//!
//! A Poptrie leaf is two bytes, and the leaves of one node form one
//! contiguous block (§3.3) in a buddy-managed array (§3). Every trie
//! keeps those blocks in a [`LeafStore`]: one slab of 16-bit next hops,
//! one [`Buddy`] over its index space, and a content index. A standalone
//! table owns its store; a VRF group hands one store to every tenant, so
//! a block that recurs across tenants, or within one table, is stored
//! once — the entropy headroom Rétvári et al. point at.
//!
//! * **Interning.** Installing a leaf block returns the offset of an
//!   extent holding exactly that block, reusing a live extent with equal
//!   content, found by a content digest keyed per store. Each extent
//!   counts its references: one per node, of any table, whose leaf block
//!   it is.
//! * **Reclamation.** An extent whose last reference goes is *retired*.
//!   Its slots go back to the buddy only when no trie a reader can hold
//!   may still resolve into it. Such a trie *pins* a store epoch, and an
//!   extent retired at epoch E is freed once every pin of epoch E or
//!   older has dropped. A writer's own trie pins nothing, and neither
//!   does a published snapshot while it is current: it reads only
//!   extents its writer still references. The publish that retires it
//!   opens an [`Epoch`] before its first update (a VRF writer burst opens
//!   one for all the tenants it publishes) and pins the snapshot on it
//!   first, so everything its writer releases from then on is held for
//!   it. A clone shares the pin of the trie it copies, or pins the
//!   store's current epoch when that trie has none. Retired extents are
//!   collected when an epoch closes, and at once when no pin is alive.
//! * **Growth.** When the buddy must grow, the store allocates a slab of
//!   the new capacity, copies the old slots into it and swaps its slab
//!   `Arc`. Every handle keeps reading the slab it holds. A writer picks
//!   up the current slab at every intern, so it switches before it can
//!   reach an offset written after the swap. Nothing writes an old slab
//!   after the swap, and it is freed with its last holder, so growth
//!   needs no reader coordination.
//!
//! Slots are `AtomicU16` written with `Relaxed` stores, and only into
//! extents no reader can reach yet; the RCU publish that makes an extent
//! reachable orders those stores before any reader's loads. On the
//! lookup path a slot read is the same plain 16-bit load a `Vec<u16>`
//! costs.

use core::hash::{BuildHasher, BuildHasherDefault, Hasher};
use core::sync::atomic::{AtomicU16, Ordering};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::RandomState;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use poptrie_buddy::{Buddy, Fragmentation};
use poptrie_rib::{NextHop, NO_ROUTE};

/// The leaf slots of a store.
type Slab = Arc<[AtomicU16]>;

/// A slab of `len` slots: a copy of `old`, then [`NO_ROUTE`].
fn new_slab(len: usize, old: &[AtomicU16]) -> Slab {
    (0..len)
        .map(|i| AtomicU16::new(old.get(i).map_or(NO_ROUTE, |s| s.load(Ordering::Relaxed))))
        .collect()
}

/// The hasher of the ledger's maps, whose keys the store makes itself:
/// extent offsets, and content digests already keyed by a per-store
/// [`RandomState`]. One multiply, its well-mixed high half moved low.
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<Mix>>;

/// A pinned epoch. The store observes its death through a `Weak`.
#[derive(Debug)]
struct Pin;

/// A live interned extent.
#[derive(Debug)]
struct Extent {
    off: u32,
    /// Leaf count (exact, before buddy rounding; at most 64).
    len: u32,
    /// Nodes, across every table of the store, whose leaf block this is.
    refs: u32,
}

/// An extent whose last reference went, waiting for the pins that may
/// still see it.
#[derive(Debug)]
struct Retired {
    /// The epoch current at retirement: a pin of this epoch or older may
    /// still resolve into the extent.
    epoch: u64,
    off: u32,
    len: u32,
}

/// A point-in-time summary of a [`LeafStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Live (referenced) extents.
    pub live_extents: usize,
    /// Slots those extents occupy after buddy rounding.
    pub live_slots_rounded: u64,
    /// References across all live extents.
    pub total_refs: u64,
    /// `intern` calls answered by an existing extent.
    pub dedup_hits: u64,
    /// `intern` calls that allocated a fresh extent.
    pub fresh_allocs: u64,
    /// Retired extents still held by live pins.
    pub pending_blocks: usize,
    /// The current epoch.
    pub epoch: u64,
    /// Slots of the store's current slab.
    pub capacity: u32,
}

/// The writer side of a store, behind its mutex.
#[derive(Debug)]
struct Ledger {
    /// The current slab: every extent lives here.
    slab: Slab,
    buddy: Buddy,
    /// Keys the content digests, so crafted blocks cannot collide.
    seed: RandomState,
    /// Content digest -> the live extent holding that content. One
    /// lookup finds a block to share, and one finds the extent a release
    /// names, from the digest of its slots.
    by_digest: MixMap<u64, Extent>,
    /// Live extents whose digest another live extent already holds, by
    /// offset: never deduplicated against, which is safe.
    collided: MixMap<u32, Extent>,
    /// Pins handed out, oldest first. Dead pins are dropped from the
    /// front at every collection, and from anywhere once the deque has
    /// doubled since the last such pass.
    pins: VecDeque<(u64, Weak<Pin>)>,
    /// The `pins` length that triggers the next full pass.
    prune_at: usize,
    /// Retired extents, oldest first.
    retired: VecDeque<Retired>,
    epoch: u64,
    total_refs: u64,
    dedup_hits: u64,
    fresh_allocs: u64,
    /// Tables built into the store (tables never leave one).
    tables: u32,
}

impl Ledger {
    fn intern(&mut self, vals: &[NextHop]) -> u32 {
        debug_assert!(!vals.is_empty());
        let digest = self.seed.hash_one(vals);
        if let Some(e) = self.by_digest.get_mut(&digest) {
            let slots = &self.slab[e.off as usize..][..e.len as usize];
            if slots.len() == vals.len()
                && slots
                    .iter()
                    .zip(vals)
                    .all(|(s, &v)| s.load(Ordering::Relaxed) == v)
            {
                e.refs += 1;
                self.total_refs += 1;
                self.dedup_hits += 1;
                return e.off;
            }
        }
        let off = self.buddy.alloc(vals.len() as u32);
        if self.buddy.capacity() as usize > self.slab.len() {
            self.slab = new_slab(self.buddy.capacity() as usize, &self.slab);
        }
        for (slot, &v) in self.slab[off as usize..].iter().zip(vals) {
            slot.store(v, Ordering::Relaxed);
        }
        let len = vals.len() as u32;
        let e = Extent { off, len, refs: 1 };
        match self.by_digest.entry(digest) {
            Entry::Vacant(v) => {
                v.insert(e);
            }
            Entry::Occupied(_) => {
                self.collided.insert(off, e);
            }
        }
        self.total_refs += 1;
        self.fresh_allocs += 1;
        off
    }

    fn release(&mut self, off: u32, len: u32) {
        let digest = self.digest_at(off, len);
        let indexed = self.by_digest.get(&digest).is_some_and(|e| e.off == off);
        let e = if indexed {
            self.by_digest.get_mut(&digest)
        } else {
            self.collided.get_mut(&off)
        }
        .unwrap_or_else(|| panic!("release of unknown extent at {off}"));
        assert_eq!(e.len, len, "release length mismatch at {off}");
        e.refs -= 1;
        self.total_refs -= 1;
        if e.refs > 0 {
            return;
        }
        if indexed {
            self.by_digest.remove(&digest);
        } else {
            self.collided.remove(&off);
        }
        self.retired.push_back(Retired {
            epoch: self.epoch,
            off,
            len,
        });
        if self.oldest_pin().is_none() {
            self.collect();
        }
    }

    /// The digest of the `len` slots at `off`, as [`Ledger::intern`]
    /// computed it from the block.
    fn digest_at(&self, off: u32, len: u32) -> u64 {
        let mut block = [NO_ROUTE; 64];
        let block = &mut block[..len as usize];
        for (b, s) in block.iter_mut().zip(&self.slab[off as usize..]) {
            *b = s.load(Ordering::Relaxed);
        }
        self.seed.hash_one(&*block)
    }

    /// The live extent of `len` leaves at `off`.
    fn find(&self, off: u32, len: u32) -> Option<&Extent> {
        if off as usize + len as usize > self.slab.len() || len as usize > 64 {
            return None;
        }
        match self.by_digest.get(&self.digest_at(off, len)) {
            Some(e) if e.off == off => Some(e),
            _ => self.collided.get(&off),
        }
        .filter(|e| e.len == len)
    }

    fn extents(&self) -> impl Iterator<Item = &Extent> {
        self.by_digest.values().chain(self.collided.values())
    }

    /// Open the next epoch and pin it.
    fn open(&mut self) -> Arc<Pin> {
        self.epoch += 1;
        self.pin_current()
    }

    /// Pin the current epoch without advancing it.
    fn pin_current(&mut self) -> Arc<Pin> {
        let pin = Arc::new(Pin);
        self.pins.push_back((self.epoch, Arc::downgrade(&pin)));
        if self.pins.len() >= self.prune_at {
            self.pins.retain(|(_, p)| p.strong_count() > 0);
            self.prune_at = 2 * self.pins.len().max(32);
        }
        pin
    }

    /// The epoch of the oldest live pin, dropping the dead pins before it.
    fn oldest_pin(&mut self) -> Option<u64> {
        while self
            .pins
            .front()
            .is_some_and(|(_, p)| p.strong_count() == 0)
        {
            self.pins.pop_front();
        }
        self.pins.front().map(|&(e, _)| e)
    }

    /// Free every retired extent no live pin can see: one retired at
    /// epoch E is free once every pin of epoch E or older has dropped.
    /// Pins and retirements are both in epoch order, so this stops at the
    /// oldest live pin.
    fn collect(&mut self) {
        let oldest = self.oldest_pin().unwrap_or(u64::MAX);
        while self.retired.front().is_some_and(|r| r.epoch < oldest) {
            let r = self.retired.pop_front().expect("checked non-empty");
            self.buddy.free(r.off, r.len);
        }
    }

    fn stats(&self) -> InternStats {
        InternStats {
            live_extents: self.by_digest.len() + self.collided.len(),
            live_slots_rounded: self.extents().map(|e| Buddy::rounded(e.len) as u64).sum(),
            total_refs: self.total_refs,
            dedup_hits: self.dedup_hits,
            fresh_allocs: self.fresh_allocs,
            pending_blocks: self.retired.len(),
            epoch: self.epoch,
            capacity: self.slab.len() as u32,
        }
    }

    /// Every extent's slots hash to the digest it is found by and are
    /// live in the buddy, the reference total reconciles, and the buddy
    /// holds exactly the live and retired extents.
    fn check_invariants(&self) -> Result<(), String> {
        self.buddy
            .check_invariants()
            .map_err(|e| format!("leaf allocator: {e}"))?;
        for e in self.extents() {
            if !self.find(e.off, e.len).is_some_and(|f| core::ptr::eq(f, e)) {
                return Err(format!("extent {}: slab diverges from its digest", e.off));
            }
            if !self.buddy.is_live_block(e.off, e.len) {
                return Err(format!("extent {} is not live in the buddy", e.off));
            }
        }
        let refs: u64 = self.extents().map(|e| e.refs as u64).sum();
        if refs != self.total_refs {
            return Err(format!(
                "reference total {refs} != running counter {}",
                self.total_refs
            ));
        }
        let lens = self.extents().map(|e| e.len);
        let lens = lens.chain(self.retired.iter().map(|r| r.len));
        let (blocks, slots) = lens.fold((0u32, 0u64), |(b, s), l| {
            (b + 1, s + Buddy::rounded(l) as u64)
        });
        if (blocks, slots)
            != (
                self.buddy.live_blocks(),
                self.buddy.allocated_slots() as u64,
            )
        {
            return Err(format!(
                "buddy holds {} blocks in {} slots, live and retired extents {blocks} in {slots}",
                self.buddy.live_blocks(),
                self.buddy.allocated_slots()
            ));
        }
        Ok(())
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every ledger method asserts before it mutates, and a pin cell is
    // one pointer, so a poisoned lock still guards a consistent value.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An open epoch of a [`LeafStore`] ([`LeafStore::open_epoch`]): the pin
/// that the snapshots one publish, or one writer burst of tenant
/// publishes, retires share. Dropping it collects.
pub struct Epoch {
    /// `None` only while dropping.
    pin: Option<Arc<Pin>>,
    ledger: Arc<Mutex<Ledger>>,
}

impl core::fmt::Debug for Epoch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Epoch").finish_non_exhaustive()
    }
}

impl Drop for Epoch {
    fn drop(&mut self) {
        self.pin = None;
        // A collect that panicked during an unwind would abort the
        // process; the next epoch to close collects instead.
        if !std::thread::panicking() {
            lock(&self.ledger).collect();
        }
    }
}

/// One trie's handle on a leaf store: the slab it reads, the store's
/// writer side, and the trie's pin (see the [module docs](self)).
///
/// Cloning a pinned handle shares the pin; cloning an unpinned one (a
/// writer's, or a current snapshot's) pins the current epoch, so a clone
/// of any trie stays readable for as long as it lives.
pub struct LeafStore {
    slab: Slab,
    ledger: Arc<Mutex<Ledger>>,
    /// Set on a clone, and on a published snapshot by the publish that
    /// retires it.
    pin: Mutex<Option<Arc<Pin>>>,
}

impl core::fmt::Debug for LeafStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LeafStore")
            .field("slots", &self.slab.len())
            .field("pinned", &lock(&self.pin).is_some())
            .finish_non_exhaustive()
    }
}

impl Clone for LeafStore {
    fn clone(&self) -> Self {
        // The pin is read under the ledger lock, so it is either the one
        // a retiring publish set before its first release, or the current
        // epoch taken before that release.
        let mut ledger = lock(&self.ledger);
        let pin = match &*lock(&self.pin) {
            Some(pin) => Arc::clone(pin),
            None => ledger.pin_current(),
        };
        drop(ledger);
        LeafStore {
            slab: Arc::clone(&self.slab),
            ledger: Arc::clone(&self.ledger),
            pin: Mutex::new(Some(pin)),
        }
    }
}

impl LeafStore {
    /// An empty store of at least `slots` leaf slots (two bytes each),
    /// growing on demand. Hand it to
    /// [`Builder::build_in`](crate::Builder::build_in) (or
    /// [`SharedFib::compile_in`](crate::sync::SharedFib::compile_in)) for
    /// every table that should share it.
    pub fn new(slots: u32) -> Self {
        let buddy = Buddy::with_capacity(slots);
        Self::with(new_slab(buddy.capacity() as usize, &[]), buddy)
    }

    /// A store holding exactly `slots`, with no extents: the leaves of a
    /// deserialized, read-only trie.
    pub(crate) fn loaded(slots: &[NextHop]) -> Self {
        Self::with(
            slots.iter().map(|&v| AtomicU16::new(v)).collect(),
            Buddy::new(),
        )
    }

    fn with(slab: Slab, buddy: Buddy) -> Self {
        let ledger = Ledger {
            slab: Arc::clone(&slab),
            buddy,
            seed: RandomState::new(),
            by_digest: MixMap::default(),
            collided: MixMap::default(),
            pins: VecDeque::new(),
            prune_at: 0,
            retired: VecDeque::new(),
            epoch: 0,
            total_refs: 0,
            dedup_hits: 0,
            fresh_allocs: 0,
            tables: 0,
        };
        LeafStore {
            slab,
            ledger: Arc::new(Mutex::new(ledger)),
            pin: Mutex::new(None),
        }
    }

    /// A writer's (unpinned) handle on this store.
    pub(crate) fn writer(&self) -> Self {
        LeafStore {
            slab: Arc::clone(&lock(&self.ledger).slab),
            ledger: Arc::clone(&self.ledger),
            pin: Mutex::new(None),
        }
    }

    /// A writer's handle for one more table of this store.
    pub(crate) fn join(&self) -> Self {
        lock(&self.ledger).tables += 1;
        self.writer()
    }

    /// Install the leaf block `vals`, returning its extent's offset, and
    /// switch this handle to the current slab.
    pub(crate) fn intern(&mut self, vals: &[NextHop]) -> u32 {
        let g = &mut *lock(&self.ledger);
        let off = g.intern(vals);
        if !Arc::ptr_eq(&self.slab, &g.slab) {
            self.slab = Arc::clone(&g.slab);
        }
        off
    }

    /// Drop one reference to the extent of `len` leaves at `off`.
    pub(crate) fn release(&self, off: u32, len: u32) {
        lock(&self.ledger).release(off, len)
    }

    /// Open the next epoch of this store and pin it. Every snapshot a
    /// publish retires with it shares its pin (see
    /// [`SharedFib::update_batch_in`](crate::sync::SharedFib::update_batch_in)).
    /// Dropping it releases its own pin and collects every retired extent
    /// no live pin can see.
    pub fn open_epoch(&self) -> Epoch {
        Epoch {
            pin: Some(lock(&self.ledger).open()),
            ledger: Arc::clone(&self.ledger),
        }
    }

    /// Whether `epoch` is an epoch of this store.
    pub(crate) fn owns(&self, epoch: &Epoch) -> bool {
        Arc::ptr_eq(&self.ledger, &epoch.ledger)
    }

    /// An unpinned handle reading what `self` reads: a newly published
    /// snapshot's.
    pub(crate) fn published(&self) -> Self {
        LeafStore {
            slab: Arc::clone(&self.slab),
            ledger: Arc::clone(&self.ledger),
            pin: Mutex::new(None),
        }
    }

    /// Pin `self`, the current snapshot's handle, on `epoch`, which the
    /// publish that retires it opened. Call it before that publish's
    /// first update releases anything. A pinned handle keeps its pin.
    pub(crate) fn retire_on(&self, epoch: &Epoch) {
        debug_assert!(self.owns(epoch));
        let pin = epoch.pin.as_ref().expect("an open epoch");
        lock(&self.pin).get_or_insert_with(|| Arc::clone(pin));
    }

    /// Drop the pin of `self`, the current snapshot's handle, when the
    /// update that [`LeafStore::retire_on`] pinned it for released
    /// nothing and publishes nothing.
    pub(crate) fn unpin(&self) {
        *lock(&self.pin) = None;
    }

    /// Make `self`, a recycled snapshot's handle on `src`'s store, read
    /// what `src` reads, and drop its pin: it is about to be current.
    pub(crate) fn sync_from(&mut self, src: &LeafStore) {
        debug_assert!(Arc::ptr_eq(&self.ledger, &src.ledger));
        self.slab.clone_from(&src.slab);
        *self.pin.get_mut().unwrap_or_else(|p| p.into_inner()) = None;
    }

    /// Read slot `i` (bounds-checked).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> NextHop {
        self.slab[i].load(Ordering::Relaxed)
    }

    /// Read slot `i` without a bounds check.
    ///
    /// # Safety
    ///
    /// `i < self.slots()`.
    #[inline(always)]
    pub(crate) unsafe fn get_unchecked(&self, i: usize) -> NextHop {
        debug_assert!(i < self.slab.len());
        self.slab.get_unchecked(i).load(Ordering::Relaxed)
    }

    /// Base pointer of the slab, for the batched kernels' leaf loads.
    /// `AtomicU16` is `repr(transparent)` over `u16`, and no slot a trie
    /// can reach is written while the trie can reach it, so plain loads
    /// through this pointer are race-free.
    #[inline(always)]
    pub(crate) fn as_ptr(&self) -> *const NextHop {
        self.slab.as_ptr() as *const NextHop
    }

    /// Whether the `vals.len()` slots at `off` hold exactly `vals`.
    pub(crate) fn block_eq(&self, off: u32, vals: &[NextHop]) -> bool {
        let slots = &self.slab[off as usize..][..vals.len()];
        slots
            .iter()
            .zip(vals)
            .all(|(s, &v)| s.load(Ordering::Relaxed) == v)
    }

    /// Slots of the slab this handle reads: the store's capacity as of
    /// the handle's last intern or publish.
    pub fn slots(&self) -> usize {
        self.slab.len()
    }

    /// Bytes of the store's current slab (two per slot).
    pub fn bytes(&self) -> usize {
        lock(&self.ledger).slab.len() * core::mem::size_of::<NextHop>()
    }

    /// Point-in-time stats of the whole store.
    pub fn stats(&self) -> InternStats {
        lock(&self.ledger).stats()
    }

    /// Fragmentation of the store's index space.
    pub fn fragmentation(&self) -> Fragmentation {
        lock(&self.ledger).buddy.fragmentation()
    }

    /// The store's own invariants (see `VrfTable::audit` for the
    /// cross-table check).
    pub fn check_invariants(&self) -> Result<(), String> {
        lock(&self.ledger).check_invariants()
    }

    /// Check a table's leaf-block references `refs` (one `(offset, len)`
    /// per node) against the store: each must name a live extent, and
    /// distinct extents must not overlap. When the table is the store's
    /// only one, the check is exact: every extent's reference count equals
    /// the table's references to it, no other extent is live, and the
    /// store's own invariants hold. Returns the distinct extents and their
    /// rounded slots.
    pub(crate) fn audit_table(&self, refs: &mut [(u32, u32)]) -> Result<(usize, u64), String> {
        let g = lock(&self.ledger);
        let exact = g.tables == 1;
        refs.sort_unstable();
        let mut end = 0u32;
        let (mut distinct, mut slots) = (0usize, 0u64);
        for run in refs.chunk_by(|a, b| a == b) {
            let (off, len) = run[0];
            let Some(e) = g.find(off, len) else {
                return Err(format!(
                    "leaf block [{off}, {off}+{len}) is not a live allocation in the leaf store"
                ));
            };
            if exact && e.refs as usize != run.len() {
                return Err(format!(
                    "leaf extent {off}: {} references in the store, {} in the table",
                    e.refs,
                    run.len()
                ));
            }
            if off < end {
                return Err(format!("aliased leaf extents overlap at {off}"));
            }
            end = off + Buddy::rounded(len);
            distinct += 1;
            slots += Buddy::rounded(len) as u64;
        }
        if exact {
            let live = g.by_digest.len() + g.collided.len();
            if distinct != live {
                return Err(format!(
                    "leaf leak: the store holds {live} live extents, the table references {distinct}"
                ));
            }
            g.check_invariants()?;
        }
        Ok((distinct, slots))
    }
}
