//! Shared-arena ownership split: many tables, one index space.
//!
//! A single [`Buddy`] assumes one owner. The multi-tenant VRF layer needs
//! many `Poptrie` instances (and the cross-tenant leaf interner) to carve
//! blocks out of *one* arena so their storage packs into one contiguous
//! backing array — the prerequisite for cross-VRF leaf sharing. This
//! module splits ownership in two:
//!
//! * [`ArenaOwner`] — constructs the arena and decides its growth policy
//!   (growable, or fixed-capacity for arenas whose backing store cannot
//!   move, like an `Arc<[AtomicU16]>` leaf store);
//! * [`ArenaHandle`] — a clonable allocation capability. Every handle
//!   allocates from the same underlying [`Buddy`] under a mutex, but keeps
//!   its **own** rounded-slot and live-block counters, so a per-table
//!   auditor can reconcile exactly which share of the arena each table
//!   holds without trusting the other tables.
//!
//! Cross-handle safety rests on the hardened [`Buddy::free`]: a table that
//! frees a block it does not own (or frees twice) panics inside the arena
//! lock instead of silently corrupting another table's live-block map.

use crate::{Buddy, Fragmentation};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// State shared by an [`ArenaOwner`] and every [`ArenaHandle`] cloned
/// from it.
#[derive(Debug)]
struct ArenaShared {
    /// The single allocator every handle draws from.
    buddy: Mutex<Buddy>,
    /// `true` when the arena was built with [`ArenaOwner::fixed`]:
    /// allocation beyond the pre-sized capacity fails instead of growing
    /// (the backing store is immovable).
    fixed: bool,
}

impl ArenaShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Buddy> {
        // A panic while holding the lock (e.g. the hardened double-free
        // assert) poisons it; the arena state itself is still consistent
        // because Buddy asserts *before* mutating, so keep serving.
        self.buddy
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Constructs and owns a shared buddy arena. Hand out allocation
/// capabilities with [`ArenaOwner::handle`]; the arena lives until the
/// owner **and** every handle have dropped.
#[derive(Debug)]
pub struct ArenaOwner {
    shared: Arc<ArenaShared>,
}

impl ArenaOwner {
    /// A growable arena: allocation past the current capacity appends top
    /// blocks, exactly like a private [`Buddy`].
    pub fn growable() -> Self {
        ArenaOwner {
            shared: Arc::new(ArenaShared {
                buddy: Mutex::new(Buddy::new()),
                fixed: false,
            }),
        }
    }

    /// A fixed-capacity arena pre-sized to at least `cap` slots.
    /// Allocation never grows it: when no free block fits, handles report
    /// exhaustion ([`ArenaHandle::try_alloc`] returns `None`). Use this
    /// when the backing array cannot move — e.g. a shared leaf store whose
    /// readers hold raw pointers across RCU snapshots.
    pub fn fixed(cap: u32) -> Self {
        ArenaOwner {
            shared: Arc::new(ArenaShared {
                buddy: Mutex::new(Buddy::with_capacity(cap)),
                fixed: true,
            }),
        }
    }

    /// Mint a new allocation capability over this arena with fresh
    /// per-handle accounting.
    pub fn handle(&self) -> ArenaHandle {
        ArenaHandle {
            shared: Arc::clone(&self.shared),
            allocated: Arc::new(AtomicU32::new(0)),
            live_blocks: Arc::new(AtomicU32::new(0)),
        }
    }

    /// Total managed slots across all handles.
    pub fn capacity(&self) -> u32 {
        self.shared.lock().capacity()
    }

    /// Arena-global fragmentation summary (all handles combined).
    pub fn fragmentation(&self) -> Fragmentation {
        self.shared.lock().fragmentation()
    }

    /// Arena-global invariant check, forwarding [`Buddy::check_invariants`].
    pub fn check_invariants(&self) -> Result<(), String> {
        self.shared.lock().check_invariants()
    }
}

/// A clonable allocation capability over a shared arena.
///
/// Clones share the same per-handle counters (a clone is the same logical
/// table handing its allocator to a helper, not a new tenant); mint a
/// fresh handle from the [`ArenaOwner`] for an independently-audited
/// tenant.
#[derive(Debug, Clone)]
pub struct ArenaHandle {
    shared: Arc<ArenaShared>,
    /// Rounded slots allocated through this handle and not yet freed.
    allocated: Arc<AtomicU32>,
    /// Outstanding allocations made through this handle.
    live_blocks: Arc<AtomicU32>,
}

impl ArenaHandle {
    /// Allocate a contiguous run of at least `n` slots, growing the arena
    /// when its policy allows.
    ///
    /// # Panics
    ///
    /// Panics when a [fixed](ArenaOwner::fixed) arena is exhausted; use
    /// [`ArenaHandle::try_alloc`] where exhaustion must be recoverable.
    pub fn alloc(&self, n: u32) -> u32 {
        self.try_alloc(n)
            .unwrap_or_else(|| panic!("fixed shared arena exhausted: cannot allocate {n} slots"))
    }

    /// Allocate a contiguous run of at least `n` slots, or `None` when a
    /// [fixed](ArenaOwner::fixed) arena has no free block of the rounded
    /// size. On a growable arena this never returns `None`.
    pub fn try_alloc(&self, n: u32) -> Option<u32> {
        let mut buddy = self.shared.lock();
        let off = if self.shared.fixed {
            buddy.try_alloc(n)?
        } else {
            buddy.alloc(n)
        };
        self.allocated
            .fetch_add(Buddy::rounded(n), Ordering::Relaxed);
        self.live_blocks.fetch_add(1, Ordering::Relaxed);
        Some(off)
    }

    /// Release a run previously allocated **through this handle** with the
    /// same `n`. Freeing another handle's block corrupts per-handle
    /// accounting (the arena-global maps stay correct — and a block that
    /// is not live anywhere panics via the hardened [`Buddy::free`]).
    pub fn free(&self, off: u32, n: u32) {
        self.shared.lock().free(off, n);
        self.allocated
            .fetch_sub(Buddy::rounded(n), Ordering::Relaxed);
        self.live_blocks.fetch_sub(1, Ordering::Relaxed);
    }

    /// Whether `[off, off + rounded(n))` is live in the arena (allocated
    /// by *some* handle). Forwards [`Buddy::is_live_block`].
    pub fn is_live_block(&self, off: u32, n: u32) -> bool {
        self.shared.lock().is_live_block(off, n)
    }

    /// Rounded slots currently allocated through this handle.
    pub fn allocated_slots(&self) -> u32 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Outstanding allocations made through this handle.
    pub fn live_blocks(&self) -> u32 {
        self.live_blocks.load(Ordering::Relaxed)
    }

    /// Total managed slots of the underlying arena (all handles).
    pub fn capacity(&self) -> u32 {
        self.shared.lock().capacity()
    }

    /// Rounded slots allocated arena-wide (all handles combined).
    pub fn arena_allocated_slots(&self) -> u32 {
        self.shared.lock().allocated_slots()
    }

    /// Outstanding allocations arena-wide (all handles combined).
    pub fn arena_live_blocks(&self) -> u32 {
        self.shared.lock().live_blocks()
    }

    /// Arena-global free regions as sorted, disjoint `(start, end)` spans.
    pub fn free_spans(&self) -> Vec<(u32, u32)> {
        self.shared.lock().free_spans()
    }

    /// Arena-global fragmentation summary (all handles combined — a
    /// per-tenant view comes from [`ArenaHandle::allocated_slots`] /
    /// [`ArenaHandle::live_blocks`]).
    pub fn fragmentation(&self) -> Fragmentation {
        self.shared.lock().fragmentation()
    }

    /// Whether two handles draw from the same underlying arena.
    pub fn same_arena(&self, other: &ArenaHandle) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}
