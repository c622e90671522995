//! The Poptrie lookup structure and its traversal (Algorithms 1–3).
//!
//! A trie owns its direct table and node array. Its leaf blocks live in
//! a [`LeafStore`]: its own, or one its VRF group shares. Every leaf read
//! goes through the slab the trie's store handle holds. A trie a reader
//! can hold pins the store epoch it can see, so the blocks it resolves
//! into stay allocated while it lives: a [`Clone`] of a writer's trie
//! pins a fresh epoch, and a clone of a pinned trie shares its pin.
//!
//! A published snapshot's trie holds only what lookups read: the arrays,
//! the scalar fields and its leaf store handle. The node allocator stays
//! with the writer's trie, which is the one [`PoptrieImpl::audit`]
//! checks.

use poptrie_bitops::{rank1, BatchBackend, Bits};
use poptrie_buddy::Buddy;
use poptrie_rib::{Lpm, NextHop, RadixTree, NO_ROUTE};

use crate::builder::Builder;
use crate::leaf_store::LeafStore;
use crate::node::{Node16, Node24, NodeRepr};

/// Build a key with the 6-bit chunk value `v` placed at MSB-first bit
/// offset `offset`; bits shifted past the key width drop out (they are
/// the zero-padding of `extract`).
#[inline]
fn shift_chunk<K: Bits>(v: u32, offset: u32) -> K {
    K::from_u128(K::from_high_bits(v, 6).to_u128() >> offset)
}

/// Bit 31 of a direct-pointing entry: set when the entry is a FIB index
/// rather than an internal-node index (§3.4: "the most significant bit
/// indicates whether the direct index points to a FIB entry or an internal
/// node").
pub(crate) const DIRECT_LEAF_BIT: u32 = 1 << 31;

pub use poptrie_bitops::BATCH_LANES;

/// A compiled Poptrie FIB, generic over node layout `N`.
///
/// Use the [`Poptrie`] (leafvec, 24-byte nodes) or [`PoptrieBasic`]
/// (16-byte nodes, §3.1 only) aliases. `K` is `u32` for IPv4 or `u128` for
/// IPv6.
///
/// The structure is immutable through `&self`; recompile with
/// [`Builder::build`] or use [`Fib`](crate::Fib) for incremental updates.
/// A clone is a read-only copy that stays exact while the original
/// changes (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct PoptrieImpl<K: Bits, N: NodeRepr> {
    /// Direct-pointing table of `2^s` entries (§3.4); empty when `s == 0`.
    pub(crate) direct: Vec<u32>,
    /// Flat internal-node array; children of one node are contiguous.
    pub(crate) nodes: Vec<N>,
    /// The leaf store this trie's leaf blocks are interned in
    /// ([`crate::leaf_store`]): its own, or its VRF group's.
    pub(crate) store: LeafStore,
    /// Buddy allocator for `nodes` index space (§3: "the contiguous arrays
    /// of internal and leaf nodes are managed by the buddy memory
    /// allocator"; the leaf store runs the leaves' buddy). Writer-only
    /// state: a published snapshot's trie holds an empty one.
    pub(crate) node_buddy: Buddy,
    /// Root node index, used when `s == 0`.
    pub(crate) root: u32,
    /// Number of live internal nodes ("# of inodes" in Table 2).
    pub(crate) inode_count: usize,
    /// Number of live leaves ("# of leaves" in Table 2).
    pub(crate) leaf_count: usize,
    /// Direct-pointing bit count `s`.
    pub(crate) s: u8,
    /// The batched-lookup tier chosen at build time
    /// ([`BatchBackend::detect`]); [`PoptrieImpl::lookup_batch`] jumps
    /// straight to this kernel. Always an available tier, so the
    /// `unsafe` SIMD kernel calls are sound.
    pub(crate) backend: BatchBackend,
    /// Lines of `direct` and `nodes` written since the last publish
    /// ([`crate::sync::SharedFib`] copies only those). Read only on a
    /// writer's trie.
    pub(crate) dirty: crate::dirty::DirtyLines,
    pub(crate) _key: core::marker::PhantomData<K>,
}

/// The Poptrie of the paper: leafvec-compressed, 24-byte nodes.
pub type Poptrie<K = u32> = PoptrieImpl<K, Node24>;

/// The basic Poptrie of §3.1 without leaf compression: 16-byte nodes, one
/// leaf per relevant slot. Only interesting for the Table 2 ablation.
pub type PoptrieBasic<K = u32> = PoptrieImpl<K, Node16>;

/// Size and occupancy statistics (the left half of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoptrieStats {
    /// Number of internal nodes.
    pub inodes: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Direct-pointing entries (`2^s`, 0 when direct pointing is off).
    pub direct_slots: usize,
    /// Memory footprint in bytes: `inodes * node_size + leaves * 2 +
    /// direct_slots * 4`, the accounting of Tables 2 and 3.
    pub memory_bytes: usize,
}

impl<K: Bits, N: NodeRepr> PoptrieImpl<K, N> {
    /// Start configuring a compilation (direct-pointing bits, aggregation).
    pub fn builder() -> Builder<K, N> {
        Builder::new()
    }

    /// Compile with default options (`s = 18`, route aggregation on) from a
    /// RIB.
    pub fn from_rib(rib: &RadixTree<K, NextHop>) -> Self {
        Builder::new().build(rib)
    }

    /// The direct-pointing size `s` this FIB was compiled with.
    pub fn direct_bits(&self) -> u8 {
        self.s
    }

    /// The batched-lookup dispatch tier this FIB uses (resolved at build
    /// time by [`BatchBackend::detect`], which honors the
    /// `POPTRIE_BACKEND` environment knob).
    pub fn batch_backend(&self) -> BatchBackend {
        self.backend
    }

    /// Force a specific batched-lookup tier, clamped to what the running
    /// CPU supports ([`BatchBackend::clamp_available`]). Returns the tier
    /// actually installed. Scalar lookups ([`PoptrieImpl::lookup`]) are
    /// unaffected; this only selects the `lookup_batch` kernel — the
    /// differential tests use it to pit the tiers against each other on
    /// one structure.
    pub fn set_batch_backend(&mut self, backend: BatchBackend) -> BatchBackend {
        self.backend = backend.clamp_available();
        self.backend
    }

    /// The leaf store this trie's leaves live in.
    pub fn leaf_store(&self) -> &LeafStore {
        &self.store
    }

    /// Number of addressable leaf slots.
    #[inline]
    pub(crate) fn leaf_slots(&self) -> usize {
        self.store.slots()
    }

    /// Read leaf slot `li` (bounds-checked; the cold paths — ranges,
    /// invariant checks — use this).
    #[inline]
    pub(crate) fn leaf_at(&self, li: usize) -> NextHop {
        self.store.get(li)
    }

    /// Read leaf slot `li` without a bounds check — the hot-path leaf
    /// resolution.
    ///
    /// # Safety
    ///
    /// `li` must index a live leaf block of this trie (the structural
    /// invariant behind every `base0 + leaf_rank(v) - 1` computation).
    #[inline(always)]
    pub(crate) unsafe fn leaf_at_unchecked(&self, li: usize) -> NextHop {
        self.store.get_unchecked(li)
    }

    /// Base pointer of the leaf slab, for the SIMD kernels' leaf loads.
    #[inline(always)]
    pub(crate) fn leaf_base_ptr(&self) -> *const NextHop {
        self.store.as_ptr()
    }

    /// Prefetch the line holding leaf slot `li` (hint only, never faults;
    /// out-of-range indices are dropped).
    #[inline(always)]
    pub(crate) fn prefetch_leaf(&self, li: usize) {
        if li < self.leaf_slots() {
            poptrie_bitops::prefetch_read(self.leaf_base_ptr().wrapping_add(li));
        }
    }

    /// Longest-prefix-match lookup. Returns the next hop of the most
    /// specific matching route, or `None` when nothing matches.
    #[inline]
    pub fn lookup(&self, key: K) -> Option<NextHop> {
        let nh = self.lookup_raw(key);
        (nh != NO_ROUTE).then_some(nh)
    }

    /// The raw lookup of Algorithms 1–3, returning [`NO_ROUTE`] (0) for a
    /// miss. This is the hot path benchmarked in the paper.
    ///
    /// Array accesses use unchecked indexing: every index is produced by
    /// the builder/updater under the structural invariants that
    /// [`PoptrieImpl::check_invariants`] verifies (direct entries point at
    /// live nodes, child blocks span `popcnt(vector)` slots, leaf ranks
    /// stay within each node's leaf block). The paper's C implementation
    /// is bound-check-free for the same reason; debug builds keep the
    /// checks.
    #[inline]
    pub fn lookup_raw(&self, key: K) -> NextHop {
        let mut index: u32;
        let mut offset: u32;
        if self.s != 0 {
            // Algorithm 3: direct pointing over the top s bits.
            let di = key.extract(0, self.s as u32) as usize;
            debug_assert!(di < self.direct.len());
            // SAFETY: `extract(key, 0, s)` yields s bits, and
            // `direct.len() == 1 << s` by construction.
            let entry = unsafe { *self.direct.get_unchecked(di) };
            if entry & DIRECT_LEAF_BIT != 0 {
                #[cfg(feature = "observe")]
                crate::telemetry::record_lookup(false, N::COMPRESSES_LEAVES, 0);
                return (entry & !DIRECT_LEAF_BIT) as NextHop;
            }
            index = entry;
            offset = self.s as u32;
        } else {
            index = self.root;
            offset = 0;
        }
        // Algorithm 1 main loop (k = 6).
        loop {
            debug_assert!((index as usize) < self.nodes.len());
            // SAFETY: `index` is the root, a direct entry or
            // `base1 + rank - 1` of a live node; all point into `nodes`
            // by the structural invariant.
            let node = unsafe { self.nodes.get_unchecked(index as usize) };
            let v = key.extract(offset, 6);
            let vector = node.vector();
            if vector & (1u64 << v) != 0 {
                index = node.base1() + rank1(vector, v) - 1;
                offset += 6;
                // A node must distinguish at least one real key bit, so a
                // child can only exist at an offset strictly below the key
                // width; `extract` zero-pads any chunk that runs past the
                // end, so even a corrupt trie cannot make release builds
                // read garbage bits — this assert is the diagnostic, not
                // the safety net.
                debug_assert!(
                    offset < K::BITS,
                    "traversal ran past the key width; corrupt trie"
                );
            } else {
                // Algorithm 1 line 13–15 / Algorithm 2.
                let li = (node.base0() + node.leaf_rank(v) - 1) as usize;
                debug_assert!(li < self.leaf_slots());
                #[cfg(feature = "observe")]
                crate::telemetry::record_lookup(
                    false,
                    N::COMPRESSES_LEAVES,
                    (offset - self.s as u32) / 6 + 1,
                );
                // SAFETY: `leaf_rank(v)` is in `1..=leaf_count()` for a
                // relevant slot and the node's leaf block
                // `[base0, base0 + leaf_count)` is live leaf storage.
                return unsafe { self.leaf_at_unchecked(li) };
            }
        }
    }

    /// Classify the phase a lookup of `key` resolves in — direct-table
    /// hit or descent of a given depth — without touching the counters
    /// or the route result. A harness can use this to partition a
    /// traffic sample into per-phase batches before measuring each
    /// partition under the perf-counter group, so the attribution
    /// ("direct hits cost X cycles, depth-d descents cost Y") is
    /// measured, not inferred.
    #[cfg(feature = "observe")]
    pub fn lookup_phase(&self, key: K) -> crate::telemetry::LookupPhase {
        let mut index: u32;
        let mut offset: u32;
        if self.s != 0 {
            let di = key.extract(0, self.s as u32) as usize;
            let entry = self.direct[di];
            if entry & DIRECT_LEAF_BIT != 0 {
                return crate::telemetry::LookupPhase::Direct;
            }
            index = entry;
            offset = self.s as u32;
        } else {
            index = self.root;
            offset = 0;
        }
        loop {
            let node = &self.nodes[index as usize];
            let v = key.extract(offset, 6);
            let vector = node.vector();
            if vector & (1u64 << v) != 0 {
                index = node.base1() + rank1(vector, v) - 1;
                offset += 6;
            } else {
                return crate::telemetry::LookupPhase::Descent((offset - self.s as u32) / 6 + 1);
            }
        }
    }

    /// Batched longest-prefix-match lookup: resolves `keys[i]` into
    /// `out[i]`, storing [`NO_ROUTE`] for a miss.
    ///
    /// The keys are processed [`BATCH_LANES`] at a time as an interleaved
    /// state machine: every in-flight key advances one trie level per
    /// round, and as soon as a lane knows its *next* node (or leaf)
    /// index, it issues a software prefetch for that line
    /// ([`poptrie_bitops::prefetch_read`]) and only dereferences it on
    /// the following round. A scalar lookup is a chain of dependent
    /// loads — direct table, node, node, …, leaf — whose latency the
    /// out-of-order window cannot hide once the structure spills out of
    /// L2; interleaving `BATCH_LANES` independent chains keeps that many
    /// cache misses in flight at once, which is where the batched mode's
    /// speedup on random traffic comes from. Semantics are exactly those
    /// of [`PoptrieImpl::lookup_raw`] per key.
    ///
    /// # Panics
    /// If `keys.len() != out.len()`.
    pub fn lookup_batch(&self, keys: &[K], out: &mut [NextHop]) {
        assert_eq!(keys.len(), out.len(), "keys/out length mismatch");
        // The SIMD tiers interleave twice as many keys per chunk
        // ([`crate::batch_simd::SIMD_LANES`]): their gathers fetch a
        // whole 8-lane group's node words in one instruction, so the
        // wider chunk buys extra miss-level parallelism without doubling
        // the bookkeeping the way a wider scalar walker would.
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            BatchBackend::Avx2 => {
                let w = crate::batch_simd::SIMD_LANES;
                for (keys, out) in keys.chunks(w).zip(out.chunks_mut(w)) {
                    // SAFETY: `backend` is only ever set to an available
                    // tier (detect/clamp at build time), so AVX2 + popcnt
                    // are present.
                    unsafe { self.lookup_batch_chunk_avx2(keys, out) }
                }
            }
            #[cfg(target_arch = "x86_64")]
            BatchBackend::Avx512 => {
                let w = crate::batch_simd::SIMD_LANES;
                for (keys, out) in keys.chunks(w).zip(out.chunks_mut(w)) {
                    // SAFETY: as above, with AVX-512F verified too.
                    unsafe { self.lookup_batch_chunk_avx512(keys, out) }
                }
            }
            _ => {
                for (keys, out) in keys.chunks(BATCH_LANES).zip(out.chunks_mut(BATCH_LANES)) {
                    self.lookup_batch_chunk(keys, out);
                }
            }
        }
    }

    /// Round 0 of the interleaved walkers — the direct-pointing stage
    /// (Algorithm 3) — shared by the scalar chunk and the SIMD kernels,
    /// generic over the lane count `L`. Issues every lane's direct-table
    /// prefetch before the first demand load, resolves direct leaf hits
    /// straight into `out`, and returns the `live` mask of lanes that
    /// continue into the node walk (their `index`/`offset` primed).
    #[inline(always)]
    pub(crate) fn direct_round<const L: usize>(
        &self,
        keys: &[K],
        out: &mut [NextHop],
        index: &mut [u32; L],
        offset: &mut [u32; L],
    ) -> u32 {
        let n = keys.len();
        debug_assert!(n <= L);
        let mut live: u32 = 0;
        if self.s != 0 {
            for (i, k) in keys.iter().enumerate() {
                let di = k.extract(0, self.s as u32);
                index[i] = di;
                poptrie_bitops::prefetch_index(&self.direct, di as usize);
            }
            for i in 0..n {
                let di = index[i] as usize;
                debug_assert!(di < self.direct.len());
                // SAFETY: as in `lookup_raw`: `extract(key, 0, s)` yields
                // s bits and `direct.len() == 1 << s`.
                let entry = unsafe { *self.direct.get_unchecked(di) };
                if entry & DIRECT_LEAF_BIT != 0 {
                    #[cfg(feature = "observe")]
                    crate::telemetry::record_lookup(true, N::COMPRESSES_LEAVES, 0);
                    out[i] = (entry & !DIRECT_LEAF_BIT) as NextHop;
                } else {
                    index[i] = entry;
                    offset[i] = self.s as u32;
                    live |= 1 << i;
                    poptrie_bitops::prefetch_index(&self.nodes, entry as usize);
                }
            }
        } else {
            index[..n].fill(self.root);
            live = (((1u64 << n) - 1) & 0xFFFF_FFFF) as u32;
            poptrie_bitops::prefetch_index(&self.nodes, self.root as usize);
        }
        live
    }

    /// One interleaved round-robin pass over at most [`BATCH_LANES`] keys.
    ///
    /// Lane state is three parallel arrays plus two bitmasks instead of an
    /// enum array so the per-round inner loops stay branch-light:
    /// `index`/`offset` drive lanes still walking internal nodes (`live`
    /// mask), `leaf` holds the pending leaf index of lanes whose leaf line
    /// was prefetched last round (`leaf_mask`).
    fn lookup_batch_chunk(&self, keys: &[K], out: &mut [NextHop]) {
        debug_assert!(keys.len() <= BATCH_LANES && keys.len() == out.len());
        #[cfg(feature = "observe")]
        crate::telemetry::record_batch_call(keys.len());
        let mut index = [0u32; BATCH_LANES];
        let mut offset = [0u32; BATCH_LANES];
        let mut leaf = [0u32; BATCH_LANES];
        // Round 0: resolve the direct-pointing stage (Algorithm 3) for
        // every lane — shared with the SIMD kernels, which run it at
        // twice this lane count.
        let mut live = self.direct_round(keys, out, &mut index, &mut offset);
        let mut leaf_mask: u32 = 0; // lanes with a prefetched leaf pending

        // Main rounds: each live lane steps one level (Algorithm 1) and
        // prefetches the line it will touch next round; lanes that found
        // their leaf resolve it at the top of the following round, after
        // the prefetch has had a full round to complete.
        while live != 0 || leaf_mask != 0 {
            let mut m = leaf_mask;
            leaf_mask = 0;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let li = leaf[i] as usize;
                debug_assert!(li < self.leaf_slots());
                // SAFETY: `li` was computed as `base0 + leaf_rank(v) - 1`
                // below, in bounds by the structural invariant (see
                // `lookup_raw`).
                out[i] = unsafe { self.leaf_at_unchecked(li) };
            }
            let mut m = live;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                debug_assert!((index[i] as usize) < self.nodes.len());
                // SAFETY: same invariant as `lookup_raw`: the index is a
                // direct entry, the root, or `base1 + rank - 1` of a live
                // node.
                let node = unsafe { self.nodes.get_unchecked(index[i] as usize) };
                let v = keys[i].extract(offset[i], 6);
                let vector = node.vector();
                if vector & (1u64 << v) != 0 {
                    let next = node.base1() + rank1(vector, v) - 1;
                    index[i] = next;
                    offset[i] += 6;
                    // Same bound as `lookup_raw`: a child node must sit
                    // below the key width. The earlier `< K::BITS + 6`
                    // bound tolerated a whole phantom level past the key
                    // end; `extract`'s zero-padding kept that from being
                    // a memory-safety issue, but on a corrupt trie the
                    // walker would have silently used chunk value 0
                    // instead of flagging the corruption.
                    debug_assert!(
                        offset[i] < K::BITS,
                        "traversal ran past the key width; corrupt trie"
                    );
                    poptrie_bitops::prefetch_index(&self.nodes, next as usize);
                } else {
                    let li = node.base0() + node.leaf_rank(v) - 1;
                    leaf[i] = li;
                    live &= !(1 << i);
                    leaf_mask |= 1 << i;
                    #[cfg(feature = "observe")]
                    crate::telemetry::record_lookup(
                        true,
                        N::COMPRESSES_LEAVES,
                        (offset[i] - self.s as u32) / 6 + 1,
                    );
                    self.prefetch_leaf(li as usize);
                }
            }
        }
    }

    /// Size and occupancy statistics (Table 2 columns).
    pub fn stats(&self) -> PoptrieStats {
        PoptrieStats {
            inodes: self.inode_count,
            leaves: self.leaf_count,
            direct_slots: self.direct.len(),
            memory_bytes: self.inode_count * N::SIZE
                + self.leaf_count * core::mem::size_of::<NextHop>()
                + self.direct.len() * 4,
        }
    }

    /// Enumerate the FIB as effective address ranges: sorted
    /// `(start_key, next_hop)` pairs where each entry covers the keys from
    /// its `start_key` up to (not including) the next entry's, and the
    /// last entry extends to the end of the address space. Adjacent ranges
    /// with equal next hops are merged, and [`NO_ROUTE`] ranges are
    /// included (so coverage is total).
    ///
    /// This is the view DXR builds its whole structure from; here it
    /// serves FIB diffing, serialization and cross-validation — two FIBs
    /// are semantically equal iff their range lists are equal.
    pub fn ranges(&self) -> Vec<(K, NextHop)> {
        let mut out: Vec<(K, NextHop)> = Vec::new();
        let mut push = |start: K, nh: NextHop, out: &mut Vec<(K, NextHop)>| match out.last() {
            Some(&(_, last)) if last == nh => {}
            _ => out.push((start, nh)),
        };
        if self.s == 0 {
            self.node_ranges(self.root, K::ZERO, 0, &mut push, &mut out);
        } else {
            let s = self.s as u32;
            for di in 0..self.direct.len() as u32 {
                let start = K::from_high_bits(di, s);
                let entry = self.direct[di as usize];
                if entry & DIRECT_LEAF_BIT != 0 {
                    push(start, (entry & !DIRECT_LEAF_BIT) as NextHop, &mut out);
                } else {
                    self.node_ranges(entry, start, s, &mut push, &mut out);
                }
            }
        }
        out
    }

    /// Emit the ranges of the subtree at node `idx`, whose chunk starts at
    /// key `base` with bit offset `offset`.
    fn node_ranges(
        &self,
        idx: u32,
        base: K,
        offset: u32,
        push: &mut impl FnMut(K, NextHop, &mut Vec<(K, NextHop)>),
        out: &mut Vec<(K, NextHop)>,
    ) {
        let node = &self.nodes[idx as usize];
        let vector = node.vector();
        // Slots whose low bits fall past the key width are zero-padding
        // duplicates of slot values with those bits clear; skip them.
        let pad = (offset + 6).saturating_sub(K::BITS);
        let pad_mask = (1u32 << pad) - 1;
        for v in 0..64u32 {
            if v & pad_mask != 0 {
                continue;
            }
            // Place the chunk value below the already-fixed offset bits.
            let start = base.or(shift_chunk::<K>(v, offset));
            if vector & (1u64 << v) != 0 {
                let child = node.base1() + rank1(vector, v) - 1;
                self.node_ranges(child, start, offset + 6, push, out);
            } else {
                let li = node.base0() + node.leaf_rank(v) - 1;
                push(start, self.leaf_at(li as usize), out);
            }
        }
    }

    /// Verify internal consistency: every reachable node and leaf index is
    /// in bounds, child blocks are sized by `popcnt(vector)`, `leafvec` has
    /// a run-start at or before every relevant slot, and live node/leaf
    /// counts match reachability. Used by tests and debug builds; not a hot
    /// path.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut inodes = 0usize;
        let mut leaves = 0usize;
        let mut roots: Vec<u32> = Vec::new();
        if self.s == 0 {
            roots.push(self.root);
        } else {
            if self.direct.len() != 1usize << self.s {
                return Err(format!(
                    "direct table length {} != 2^{}",
                    self.direct.len(),
                    self.s
                ));
            }
            for &e in &self.direct {
                if e & DIRECT_LEAF_BIT == 0 {
                    roots.push(e);
                }
            }
        }
        for root in roots {
            self.check_node(root, 0, &mut inodes, &mut leaves)?;
        }
        if inodes != self.inode_count {
            return Err(format!(
                "inode count mismatch: reachable {} recorded {}",
                inodes, self.inode_count
            ));
        }
        if leaves != self.leaf_count {
            return Err(format!(
                "leaf count mismatch: reachable {} recorded {}",
                leaves, self.leaf_count
            ));
        }
        Ok(())
    }

    fn check_node(
        &self,
        idx: u32,
        depth: u32,
        inodes: &mut usize,
        leaves: &mut usize,
    ) -> Result<(), String> {
        if depth > (K::BITS / 6) + 2 {
            return Err("trie deeper than the key width allows".into());
        }
        let Some(node) = self.nodes.get(idx as usize) else {
            return Err(format!("node index {idx} out of bounds"));
        };
        *inodes += 1;
        let vector = node.vector();
        let nleaves = node.leaf_count();
        *leaves += nleaves as usize;
        if nleaves > 0 {
            let end = node.base0() as usize + nleaves as usize;
            if end > self.leaf_slots() {
                return Err(format!("leaf block of node {idx} out of bounds"));
            }
        }
        // Every relevant (leaf) slot must resolve to a leaf inside the
        // node's own block: rank must be in 1..=nleaves.
        for v in 0..64u32 {
            if vector & (1u64 << v) == 0 {
                let r = node.leaf_rank(v);
                if r == 0 || r > nleaves {
                    return Err(format!(
                        "node {idx}: slot {v} has leaf rank {r} outside 1..={nleaves}"
                    ));
                }
            }
        }
        let nchildren = vector.count_ones();
        for i in 0..nchildren {
            self.check_node(node.base1() + i, depth + 1, inodes, leaves)?;
        }
        Ok(())
    }
}

impl<K: Bits, N: NodeRepr> Lpm<K> for PoptrieImpl<K, N> {
    fn lookup(&self, key: K) -> Option<NextHop> {
        PoptrieImpl::lookup(self, key)
    }

    fn lookup_batch(&self, keys: &[K], out: &mut [NextHop]) {
        PoptrieImpl::lookup_batch(self, keys, out)
    }

    fn memory_bytes(&self) -> usize {
        self.stats().memory_bytes
    }

    fn name(&self) -> String {
        let kind = if N::COMPRESSES_LEAVES {
            "Poptrie"
        } else {
            "PoptrieBasic"
        };
        if self.s == 0 {
            format!("{kind}0")
        } else {
            format!("{kind}{}", self.s)
        }
    }
}
