//! An index-space buddy allocator after Knowlton (1965).
//!
//! Poptrie stores its internal nodes and leaves in two flat arrays; the
//! children of a node must occupy a *contiguous* run of slots so that
//! `base1 + popcnt(...) - 1` indexing works (SIGCOMM 2015, §3.1). Incremental
//! update (§3.5) repeatedly frees one sibling run and allocates another, so
//! the arrays are managed "by the buddy memory allocator" in the paper's
//! words — the buddy discipline bounds fragmentation when runs of varying
//! power-of-two sizes churn.
//!
//! This crate implements that allocator over an abstract index space: it
//! hands out `(offset, rounded_len)` runs of array slots and knows nothing
//! about the element type. The caller owns the actual `Vec<T>` and grows it
//! to [`Buddy::capacity`].
//!
//! # Example
//!
//! ```
//! use poptrie_buddy::Buddy;
//!
//! let mut b = Buddy::new();
//! let a = b.alloc(5);        // rounded up to 8 slots
//! let c = b.alloc(3);        // rounded up to 4 slots
//! assert_ne!(a, c);
//! b.free(a, 5);
//! b.free(c, 3);
//! assert_eq!(b.allocated_slots(), 0);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeSet;

/// Maximum block order supported (2^30 slots ≈ 1 G entries), far beyond any
/// routing-table need; §5 of the paper projects 10^8 routes.
const MAX_ORDER: usize = 30;

/// An index-space buddy allocator.
///
/// Blocks are power-of-two sized and naturally aligned within the index
/// space. The allocator grows its capacity on demand by appending top-level
/// blocks; it never shrinks (the backing `Vec` in the caller keeps its
/// length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buddy {
    /// `free[o]` holds the offsets of free blocks of size `1 << o`.
    free: Vec<BTreeSet<u32>>,
    /// Total managed slots; always a sum of power-of-two top blocks.
    capacity: u32,
    /// Currently allocated slots (rounded sizes).
    allocated: u32,
    /// Number of outstanding allocations.
    live_blocks: u32,
}

impl Default for Buddy {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time fragmentation summary of a [`Buddy`]'s index space
/// (see [`Buddy::fragmentation`]). The §3.5 concern this quantifies:
/// update churn frees and reallocates sibling runs, and the buddy
/// discipline is what keeps `slack` (and so Table 5's memory footprint)
/// bounded over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragmentation {
    /// Total managed slots ([`Buddy::capacity`]).
    pub capacity: u32,
    /// Slots currently allocated, counting buddy rounding.
    pub allocated_slots: u32,
    /// Number of outstanding allocations.
    pub live_blocks: u32,
    /// Slots lost to rounding and free-list fragmentation.
    pub slack: u32,
    /// Number of maximal free spans (1 when the free space is contiguous).
    pub free_spans: u32,
    /// Size of the largest contiguous free span, in slots — the largest
    /// child block allocatable without growing the arrays.
    pub largest_free_span: u32,
}

/// Order (log2 of rounded size) for a requested run of `n` slots.
#[inline]
fn order_of(n: u32) -> usize {
    debug_assert!(n > 0);
    (32 - (n - 1).leading_zeros()).min(MAX_ORDER as u32) as usize
}

impl Buddy {
    /// An empty allocator with zero capacity; the first allocation grows it.
    pub fn new() -> Self {
        Buddy {
            free: vec![BTreeSet::new(); MAX_ORDER + 1],
            capacity: 0,
            allocated: 0,
            live_blocks: 0,
        }
    }

    /// An allocator pre-sized to at least `n` slots.
    pub fn with_capacity(n: u32) -> Self {
        let mut b = Self::new();
        if n > 0 {
            b.grow_to(n);
        }
        b
    }

    /// Total managed slots. The caller's backing array must be at least this
    /// long.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Slots currently allocated, counting buddy rounding.
    pub fn allocated_slots(&self) -> u32 {
        self.allocated
    }

    /// Number of outstanding allocations.
    pub fn live_blocks(&self) -> u32 {
        self.live_blocks
    }

    /// Slots lost to power-of-two rounding and free-list fragmentation,
    /// i.e. `capacity - allocated`.
    pub fn slack(&self) -> u32 {
        self.capacity - self.allocated
    }

    /// Allocate a contiguous run of at least `n` slots (`n > 0`), growing
    /// capacity if needed. Returns the offset of the run.
    pub fn alloc(&mut self, n: u32) -> u32 {
        assert!(n > 0, "cannot allocate an empty run");
        let order = order_of(n);
        loop {
            if let Some(off) = self.take_block(order) {
                self.allocated += 1 << order;
                self.live_blocks += 1;
                return off;
            }
            // Out of space at every order >= `order`: append a fresh top
            // block big enough for the request.
            let need = self.capacity.max(1u32 << order);
            self.grow_to(self.capacity + need);
        }
    }

    /// Release the run previously returned by [`Buddy::alloc`] with the same
    /// `n`. Merges buddies eagerly.
    ///
    /// # Panics
    ///
    /// Panics on a double free or on an offset that was never allocated at
    /// this size (detected through buddy bookkeeping).
    pub fn free(&mut self, off: u32, n: u32) {
        assert!(n > 0);
        let order = order_of(n);
        let size = 1u32 << order;
        assert!(
            off.is_multiple_of(size) && off + size <= self.capacity,
            "free of unaligned or out-of-range block: off={off} n={n}"
        );
        assert!(
            !self.free[order].contains(&off),
            "double free at off={off} order={order}"
        );
        // The exact-block check above only catches a double free whose
        // block has not yet been coalesced away. Once a freed block merges
        // with its buddy into a larger span, a second free of the same
        // offset would pass that check and silently corrupt the
        // accounting — the failure mode that shows up as "impossible"
        // overlap when many tables share one leaf store. `is_live_block` walks
        // every order's free set, so it also rejects a free inside an
        // already-free coalesced span.
        assert!(
            self.is_live_block(off, n),
            "free of a non-live block: off={off} n={n} \
             (double free into a coalesced span, or never allocated)"
        );
        self.allocated -= size;
        self.live_blocks -= 1;
        self.insert_and_coalesce(off, order);
    }

    /// Drop every allocation, keeping the current capacity as one or more
    /// free top blocks. Used when a FIB is rebuilt from scratch.
    pub fn reset(&mut self) {
        let cap = self.capacity;
        for set in &mut self.free {
            set.clear();
        }
        self.capacity = 0;
        self.allocated = 0;
        self.live_blocks = 0;
        if cap > 0 {
            self.grow_to(cap);
        }
    }

    /// Take a free block of exactly `order`, splitting larger blocks.
    fn take_block(&mut self, order: usize) -> Option<u32> {
        // Find the smallest free block of at least the wanted order.
        let mut o = order;
        while o <= MAX_ORDER && self.free[o].is_empty() {
            o += 1;
        }
        if o > MAX_ORDER {
            return None;
        }
        let off = *self.free[o].iter().next().expect("non-empty set");
        self.free[o].remove(&off);
        // Split down to the wanted order, returning the low half each time.
        while o > order {
            o -= 1;
            let buddy = off + (1u32 << o);
            self.free[o].insert(buddy);
        }
        Some(off)
    }

    /// Insert a free block and merge with its buddy while possible.
    fn insert_and_coalesce(&mut self, mut off: u32, mut order: usize) {
        while order < MAX_ORDER {
            let size = 1u32 << order;
            let buddy = off ^ size;
            if buddy + size <= self.capacity && self.free[order].remove(&buddy) {
                off = off.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.free[order].insert(off);
    }

    /// Grow capacity to at least `target` by appending aligned top blocks.
    fn grow_to(&mut self, target: u32) {
        while self.capacity < target {
            let remaining = target - self.capacity;
            // Largest power-of-two block that keeps natural alignment at the
            // current capacity (capacity is a sum of descending-or-equal
            // power-of-two blocks, so the low set bit bounds alignment).
            let align_limit = if self.capacity == 0 {
                1u32 << MAX_ORDER
            } else {
                1u32 << self.capacity.trailing_zeros().min(MAX_ORDER as u32)
            };
            let want = remaining
                .next_power_of_two()
                .min(align_limit)
                .min(1u32 << MAX_ORDER);
            let off = self.capacity;
            self.capacity += want;
            self.insert_and_coalesce(off, want.trailing_zeros() as usize);
        }
    }

    /// The rounded (power-of-two) slot count a request for `n` slots
    /// actually reserves. Auditors use this to reconstruct the exact
    /// extent of a live block from the logical size the caller recorded.
    pub fn rounded(n: u32) -> u32 {
        1u32 << order_of(n)
    }

    /// Whether the block `[off, off + rounded(n))` is currently live
    /// (allocated): correctly aligned, inside the managed capacity, and
    /// intersecting no free block. This is the allocation-map
    /// introspection the structural auditor uses to prove that every
    /// node/leaf block the compiled trie references is backed by an
    /// outstanding allocation rather than dangling into freed space.
    pub fn is_live_block(&self, off: u32, n: u32) -> bool {
        if n == 0 {
            return false;
        }
        let size = Self::rounded(n);
        if !off.is_multiple_of(size) || off.checked_add(size).is_none_or(|e| e > self.capacity) {
            return false;
        }
        let (start, end) = (off as u64, off as u64 + size as u64);
        for (o, set) in self.free.iter().enumerate() {
            let fsize = 1u64 << o;
            // The only free block of order `o` that could overlap
            // [start, end) begins strictly below `end`; take the largest
            // such offset and test it.
            if let Some(&foff) = set.range(..end.min(u32::MAX as u64 + 1) as u32).next_back() {
                if foff as u64 + fsize > start {
                    return false;
                }
            }
        }
        true
    }

    /// A one-shot fragmentation summary derived from the free-list state,
    /// cheap enough to sample at telemetry-scrape frequency.
    pub fn fragmentation(&self) -> Fragmentation {
        let spans = self.free_spans();
        Fragmentation {
            capacity: self.capacity,
            allocated_slots: self.allocated,
            live_blocks: self.live_blocks,
            slack: self.slack(),
            free_spans: spans.len() as u32,
            largest_free_span: spans.iter().map(|&(s, e)| e - s).max().unwrap_or(0),
        }
    }

    /// The free regions of the index space as sorted, disjoint
    /// `(start, end)` half-open spans (adjacent free blocks of different
    /// orders are merged). Everything outside these spans and below
    /// [`Buddy::capacity`] is allocated.
    pub fn free_spans(&self) -> Vec<(u32, u32)> {
        let mut spans: Vec<(u32, u32)> = Vec::new();
        for (o, set) in self.free.iter().enumerate() {
            let size = 1u32 << o;
            for &off in set {
                spans.push((off, off + size));
            }
        }
        spans.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::new();
        for (s, e) in spans {
            match merged.last_mut() {
                Some(last) if last.1 == s => last.1 = e,
                _ => merged.push((s, e)),
            }
        }
        merged
    }

    /// Internal consistency check used by tests and debug assertions:
    /// free blocks are aligned, in range, non-overlapping, and the free +
    /// allocated accounting covers the whole capacity.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut free_total: u64 = 0;
        let mut spans: Vec<(u32, u32)> = Vec::new();
        for (o, set) in self.free.iter().enumerate() {
            let size = 1u32 << o;
            for &off in set {
                if off % size != 0 {
                    return Err(format!("unaligned free block off={off} order={o}"));
                }
                if off + size > self.capacity {
                    return Err(format!("free block out of range off={off} order={o}"));
                }
                spans.push((off, off + size));
                free_total += size as u64;
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(format!("overlapping free blocks {:?} {:?}", w[0], w[1]));
            }
        }
        if free_total + self.allocated as u64 != self.capacity as u64 {
            return Err(format!(
                "accounting mismatch: free={free_total} allocated={} capacity={}",
                self.allocated, self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
