//! Vectorized batched descent kernels (x86-64 only).
//!
//! These are the AVX2 / AVX-512 tiers of the dispatch ladder described in
//! [`poptrie_bitops::simd`]. They differ from the scalar walker in
//! `trie.rs` in three ways:
//!
//! * **Four times the interleave.** A SIMD chunk carries [`SIMD_LANES`]
//!   (32) keys instead of [`BATCH_LANES`] (8). The batched mode's
//!   speedup comes from the number of independent miss chains in flight;
//!   the gather below fetches a whole 8-lane group's node words in one
//!   instruction, so widening the chunk costs one gather per extra group
//!   instead of quadrupling the scalar bookkeeping. (Widths measured on
//!   an L3-resident Tier-1 table: 8 lanes lose to the scalar walker,
//!   16 lanes tie it, 32 lanes beat it.)
//! * **Gathered critical words.** Each round fetches the `vector` word of
//!   every live lane with a masked 64-bit gather (`vpgatherqq`) — one per
//!   8-lane group on AVX-512, two 4-lane halves on AVX2. Masked-off lanes
//!   perform no memory access at all (hardware-suppressed). `vector`
//!   sits at byte offset 0 of both node layouts (pinned by the
//!   `NodeRepr::AUX_BYTES`/`BASES_BYTES` layout tests), so the gather
//!   both delivers the word that decides the lane's fate *and* warms the
//!   node's cache line for the scalar `base0`/`base1`/`leafvec` reads
//!   that follow. Gathering those secondary words too was measured
//!   slower: three dependent gathers per round serialize the very
//!   miss-parallelism the batch exists to create, while scalar reads of
//!   an L1-warm line are nearly free.
//! * **Branchless lane retirement.** Both candidate successors — the
//!   child index `base1 + rank1(vector, v) - 1` and the leaf index
//!   `base0 + leaf_rank(v) - 1` — are computed unconditionally with
//!   wrapping arithmetic, a conditional move selects the real one, and
//!   retirement is pure mask arithmetic (`live &= !retire`,
//!   `leaf_mask |= retire`). The scalar walker branches on
//!   `vector & (1 << v)`, which on random traffic mispredicts roughly
//!   once per descending key.
//!
//! Memory-safety of the gather: every live lane's index satisfies the
//! structural invariant of [`PoptrieImpl::check_invariants`] — the same
//! invariant the scalar path's unchecked indexing relies on — and dead
//! lanes are suppressed by the mask. Semantics are bit-identical to the
//! scalar walker per key; the differential fuzz in
//! `tests/cross_validation.rs` runs all tiers against each other on every
//! churn-fuzzer table.

use poptrie_bitops::{prefetch_read, rank1, simd::x86, Bits};
use poptrie_rib::NextHop;

use crate::node::NodeRepr;
use crate::trie::{PoptrieImpl, BATCH_LANES};

/// Keys interleaved per SIMD kernel invocation: four gather groups of
/// [`BATCH_LANES`]. Four times the scalar walker's width, so the SIMD
/// tiers keep up to 32 independent miss chains in flight. Must not
/// exceed 32: lane state is tracked in `u32` masks.
pub(crate) const SIMD_LANES: usize = 4 * BATCH_LANES;

/// Per-lane branchless step shared by the AVX2 and AVX-512 kernels: takes
/// lane `i`'s gathered `vector` word and its (gather-warmed) node,
/// advances the lane with a conditional move, and retires it into
/// `leaf_mask` when its slot is a leaf. The "wrong" candidate index is
/// computed with wrapping arithmetic and discarded by the select; the
/// prefetch target is selected the same way (prefetching never faults, so
/// a wrapped junk address on the discarded side would merely waste a
/// hint — and the select drops it).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step_lane<K: Bits, N: NodeRepr>(
    key: K,
    i: usize,
    vector: u64,
    node: &N,
    index: &mut [u32; SIMD_LANES],
    offset: &mut [u32; SIMD_LANES],
    leaf: &mut [u32; SIMD_LANES],
    live: &mut u32,
    leaf_mask: &mut u32,
    nodes_ptr: *const N,
    leaves_ptr: *const NextHop,
    #[allow(unused_variables)] s: u32,
) {
    let v = key.extract(offset[i], 6);
    let internal = ((vector >> v) & 1) as u32;
    let next = node.base1().wrapping_add(rank1(vector, v)).wrapping_sub(1);
    let li = node.base0().wrapping_add(node.leaf_rank(v)).wrapping_sub(1);
    index[i] = if internal != 0 { next } else { index[i] };
    offset[i] += 6;
    leaf[i] = li;
    let retire = (internal ^ 1) << i;
    *live &= !retire;
    *leaf_mask |= retire;
    debug_assert!(
        internal == 0 || offset[i] < K::BITS,
        "traversal ran past the key width; corrupt trie"
    );
    #[cfg(feature = "observe")]
    if internal == 0 {
        crate::telemetry::record_lookup(true, N::COMPRESSES_LEAVES, (offset[i] - 6 - s) / 6 + 1);
    }
    let next_line = (nodes_ptr as *const u8).wrapping_add(next as usize * N::SIZE);
    let leaf_line =
        (leaves_ptr as *const u8).wrapping_add(li as usize * core::mem::size_of::<NextHop>());
    prefetch_read(if internal != 0 { next_line } else { leaf_line });
}

/// The shared kernel body. `WIDE` selects the gather shape per 8-lane
/// group: one AVX-512 `vpgatherqq` (`true`) or two AVX2 4-lane halves
/// (`false`). `#[inline(always)]` so each monomorphization inherits the
/// caller's `#[target_feature]` set.
///
/// # Safety
///
/// The caller must hold the target features its `WIDE` instantiation
/// uses: AVX2 + popcnt, plus AVX-512F when `WIDE`.
#[inline(always)]
unsafe fn walk<K: Bits, N: NodeRepr, const WIDE: bool>(
    t: &PoptrieImpl<K, N>,
    keys: &[K],
    out: &mut [NextHop],
) {
    let n = keys.len();
    debug_assert!(n <= SIMD_LANES && n == out.len());
    #[cfg(feature = "observe")]
    {
        // Account the wide chunk as BATCH_LANES-sized chunk equivalents
        // so the counters (and the lane-fill histogram buckets, sized
        // 0..=BATCH_LANES) reconcile identically on every dispatch tier.
        let mut left = n;
        loop {
            crate::telemetry::record_batch_call(left.min(BATCH_LANES));
            if left <= BATCH_LANES {
                break;
            }
            left -= BATCH_LANES;
        }
    }
    let mut index = [0u32; SIMD_LANES];
    let mut offset = [0u32; SIMD_LANES];
    let mut leaf = [0u32; SIMD_LANES];
    // Round 0 (the direct-pointing stage) is shared with the scalar
    // walker: 16 independent prefetched loads beat a u32 gather here
    // because nothing downstream consumes the entries as a vector.
    let mut live = t.direct_round(keys, out, &mut index, &mut offset);
    let mut leaf_mask = 0u32;

    let nodes_ptr = t.nodes.as_ptr();
    // Private leaf array, or the shared slab in VRF mode — either way a
    // flat `u16` index space the structural invariant keeps us inside.
    let leaves_ptr = t.leaf_base_ptr();
    let base = nodes_ptr as *const u8;
    let mut vecw = [0u64; SIMD_LANES];
    while live != 0 || leaf_mask != 0 {
        let mut m = leaf_mask;
        leaf_mask = 0;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let li = leaf[i] as usize;
            debug_assert!(li < t.leaf_slots());
            // SAFETY: `li` is `base0 + leaf_rank(v) - 1` of a live node,
            // in bounds by the structural invariant.
            out[i] = *leaves_ptr.add(li);
        }
        if live == 0 {
            continue;
        }
        // Gather the `vector` word of every live lane, one 8-lane group
        // at a time. Dead lanes' offsets are computed but masked off, so
        // they cost nothing and access nothing.
        let mut g = 0;
        while g < SIMD_LANES {
            let gm = (live >> g) & 0xFF;
            if gm != 0 {
                let mut boff = [0i64; BATCH_LANES];
                for (j, b) in boff.iter_mut().enumerate() {
                    *b = index[g + j] as i64 * N::SIZE as i64;
                }
                // SAFETY: live lanes hold valid node indices (structural
                // invariant); `vector` is the u64 at node offset 0.
                let got = if WIDE {
                    x86::gather_u64x8(base, boff, gm)
                } else {
                    let lo: [i64; 4] = boff[..4].try_into().unwrap();
                    let hi: [i64; 4] = boff[4..].try_into().unwrap();
                    let l = x86::gather_u64x4(base, lo, gm & 0xF);
                    let h = x86::gather_u64x4(base, hi, gm >> 4);
                    [l[0], l[1], l[2], l[3], h[0], h[1], h[2], h[3]]
                };
                vecw[g..g + BATCH_LANES].copy_from_slice(&got);
            }
            g += BATCH_LANES;
        }
        let mut m = live;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            // SAFETY: live lanes hold valid node indices; the node's line
            // is warm from the gather above.
            let node = &*nodes_ptr.add(index[i] as usize);
            step_lane::<K, N>(
                keys[i],
                i,
                vecw[i],
                node,
                &mut index,
                &mut offset,
                &mut leaf,
                &mut live,
                &mut leaf_mask,
                nodes_ptr,
                leaves_ptr,
                t.s as u32,
            );
        }
    }
}

impl<K: Bits, N: NodeRepr> PoptrieImpl<K, N> {
    /// The AVX2 tier of [`PoptrieImpl::lookup_batch`]: one interleaved
    /// pass over at most [`SIMD_LANES`] keys, gathering node vectors four
    /// lanes at a time.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 + popcnt at dispatch time
    /// ([`poptrie_bitops::BatchBackend::is_available`]).
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub(crate) unsafe fn lookup_batch_chunk_avx2(&self, keys: &[K], out: &mut [NextHop]) {
        walk::<K, N, false>(self, keys, out)
    }

    /// The AVX-512 tier: as [`PoptrieImpl::lookup_batch_chunk_avx2`], but
    /// each 8-lane group's vectors come back in a single masked gather
    /// with the group's `live` bits used directly as the `k`-mask.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F + AVX2 + popcnt at dispatch
    /// time ([`poptrie_bitops::BatchBackend::is_available`]).
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "popcnt")]
    pub(crate) unsafe fn lookup_batch_chunk_avx512(&self, keys: &[K], out: &mut [NextHop]) {
        walk::<K, N, true>(self, keys, out)
    }
}
