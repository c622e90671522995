//! Incremental FIB update (§3.5).
//!
//! A [`Fib`] owns both the RIB (a binary radix tree, as the paper assumes)
//! and the compiled Poptrie. A route change updates the RIB and then
//! surgically replaces only the affected part of the Poptrie:
//!
//! * a prefix **longer** than the direct-pointing size `s` affects exactly
//!   one direct slot — the subtree hanging off that slot is rebuilt from
//!   the RIB through the buddy allocator and the slot is repointed;
//! * a prefix **no longer** than `s` affects a contiguous range of
//!   `2^(s - len)` direct slots, each of which is refreshed the same way
//!   (the paper replaces the whole top-level array in this case; refreshing
//!   only the covered range is strictly less work and equally consistent).
//!
//! Within the affected slot, [`UpdateStrategy::NodeRefresh`] (the default)
//! implements the paper's node reuse: every node whose child-type `vector`
//! is unchanged is kept in place — child indices stay valid — and only
//! leaf blocks that actually changed are reallocated, so a typical BGP
//! path change replaces a handful of leaves and no internal nodes, the
//! §4.9 regime. [`UpdateStrategy::SubtreeRebuild`] recompiles the whole
//! slot subtree instead (simpler, still microseconds; kept for the
//! ablation bench). The buddy allocator mitigates fragmentation across
//! the churn exactly as in §3.5.
//!
//! Incremental compilation always works from the raw (unaggregated) RIB:
//! route aggregation is a semantics-preserving transform, so a FIB whose
//! untouched regions were compiled with aggregation and whose patched
//! regions were not still returns the correct next hop for every address.

use core::fmt;

use poptrie_bitops::Bits;
use poptrie_rib::{NextHop, Prefix, PrefixError, RadixTree, NO_ROUTE};

use poptrie_rib::radix::Node as RadixNode;

use crate::builder::{
    alloc_nodes, compute_chunk, fill_node, install_leaves, place_node, release_leaves, Builder,
};
use crate::config::PoptrieConfig;
use crate::leaf_store::LeafStore;
use crate::node::{Node24, NodeRepr};
use crate::trie::{Poptrie, DIRECT_LEAF_BIT};

/// A rejected FIB mutation. Every [`Fib`] mutation returns
/// `Result<Applied, UpdateError>` — there are no silent re-masks, reserved
/// sentinel panics, or boolean half-answers on the mutation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum UpdateError {
    /// The prefix length exceeds the key width (raw announce path).
    PrefixTooLong {
        /// The requested prefix length.
        len: u8,
        /// The key width in bits.
        width: u32,
    },
    /// The address has host bits set below the prefix length (raw
    /// announce path). [`Prefix::new`] would silently mask these away and
    /// land the update on a *different* prefix than the caller named, so
    /// the wire-format entry points reject instead.
    NonCanonical {
        /// The requested prefix length.
        len: u8,
    },
    /// The next hop is the reserved no-route sentinel
    /// ([`NO_ROUTE`], 0). Valid next hops are `1..=65535`.
    ReservedNextHop,
    /// The node arena reached the 2^31-slot index space that the
    /// direct-entry tag bit leaves available; the update cannot allocate.
    CapacityExhausted {
        /// Slots currently backing the node arena.
        nodes: usize,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::PrefixTooLong { len, width } => {
                write!(f, "prefix length {len} exceeds key width {width}")
            }
            UpdateError::NonCanonical { len } => {
                write!(f, "address has host bits set below prefix length {len}")
            }
            UpdateError::ReservedNextHop => {
                write!(f, "next hop 0 is the reserved no-route sentinel")
            }
            UpdateError::CapacityExhausted { nodes } => {
                write!(f, "node arena ({nodes} slots) reached the 2^31 index space")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<PrefixError> for UpdateError {
    fn from(e: PrefixError) -> Self {
        match e {
            PrefixError::TooLong { len, width } => UpdateError::PrefixTooLong { len, width },
            PrefixError::NonCanonical { len } => UpdateError::NonCanonical { len },
        }
    }
}

/// What a successful [`Fib`] mutation did to the RIB.
///
/// The FIB side needs no reporting: after `Ok(_)` the compiled structure
/// is exactly consistent with the RIB. The distinction that matters to
/// callers (BGP speakers counting effective updates, oracles mirroring the
/// stream) is whether the RIB *changed* — [`Applied::changed`] — and what
/// was there before — [`Applied::previous`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The prefix was not present; the route was added.
    Inserted,
    /// The prefix was present with a different next hop (the payload),
    /// which was replaced.
    Replaced(NextHop),
    /// The prefix was already present with this exact next hop: nothing
    /// changed, nothing was patched, and [`UpdateStats::updates`] did not
    /// move.
    Unchanged(NextHop),
    /// The prefix was present (payload: its next hop) and was withdrawn.
    Withdrawn(NextHop),
    /// A withdraw for a prefix that was not present: nothing changed.
    Absent,
    /// An explicit [`Fib::patch`]: the compiled structure was re-derived
    /// from the RIB for the prefix's range, whatever it contained.
    Refreshed,
}

impl Applied {
    /// The next hop the prefix mapped to before the mutation, if any.
    pub fn previous(&self) -> Option<NextHop> {
        match *self {
            Applied::Replaced(nh) | Applied::Unchanged(nh) | Applied::Withdrawn(nh) => Some(nh),
            Applied::Inserted | Applied::Absent | Applied::Refreshed => None,
        }
    }

    /// Whether the mutation changed the RIB (an *effective* update in the
    /// §4.9 sense; re-announcements and absent withdraws are not).
    pub fn changed(&self) -> bool {
        matches!(
            self,
            Applied::Inserted | Applied::Replaced(_) | Applied::Withdrawn(_)
        )
    }
}

/// How [`Fib`] repairs the Poptrie after a route change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateStrategy {
    /// The §3.5 approach: walk the affected subtree and *reuse* every node
    /// whose child-type `vector` is unchanged, reallocating only the leaf
    /// blocks (and subtrees) that actually changed. A typical BGP path
    /// change touches one leaf block.
    #[default]
    NodeRefresh,
    /// Tear down and recompile the whole subtree hanging off the affected
    /// direct slot. Simpler and still microsecond-scale; kept for the
    /// update-strategy ablation bench.
    SubtreeRebuild,
}

/// Counters describing incremental-update work, in the units of §4.9
/// ("the average number of replacements for the top-level array …, the
/// leaf node, and the internal node, per update").
///
/// The allocated/freed pairs account for the §3.5 patch discipline: an
/// update tears down the affected part of the structure (freeing slots
/// back to the buddy allocator) and compiles a replacement (allocating
/// slots), so under steady churn each `*_allocated` counter tracks its
/// `*_freed` twin and the gap between them is the structure's net growth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Route updates applied (inserts + removes that changed the RIB).
    /// Re-announcements of an unchanged next hop do not count.
    pub updates: u64,
    /// Direct-pointing (top-level array) entries rewritten — §4.9's
    /// "replacements for the top-level array". A prefix no longer than
    /// `s` covers `2^(s - len)` slots; a longer prefix covers one.
    pub direct_replacements: u64,
    /// Internal nodes newly allocated. Under [`UpdateStrategy::NodeRefresh`]
    /// this stays near zero for BGP-style path changes: §3.5 reuses every
    /// node whose child-type `vector` is unchanged.
    pub nodes_allocated: u64,
    /// Internal nodes freed back to the buddy allocator.
    pub nodes_freed: u64,
    /// Leaves newly allocated. The §4.9 common case: a path change
    /// replaces one leaf block and nothing else.
    pub leaves_allocated: u64,
    /// Leaves freed back to the buddy allocator.
    pub leaves_freed: u64,
}

impl UpdateStats {
    /// The work done since `earlier`, field-wise. All fields are
    /// monotonic, so this is exact for any two snapshots of the same
    /// [`Fib`] taken in order.
    pub fn delta_since(&self, earlier: UpdateStats) -> UpdateStats {
        UpdateStats {
            updates: self.updates - earlier.updates,
            direct_replacements: self.direct_replacements - earlier.direct_replacements,
            nodes_allocated: self.nodes_allocated - earlier.nodes_allocated,
            nodes_freed: self.nodes_freed - earlier.nodes_freed,
            leaves_allocated: self.leaves_allocated - earlier.leaves_allocated,
            leaves_freed: self.leaves_freed - earlier.leaves_freed,
        }
    }
}

/// A RIB + Poptrie pair with incremental update.
///
/// ```
/// use poptrie::{Fib, PoptrieConfig};
///
/// let cfg = PoptrieConfig::new().direct_bits(18).build()?;
/// let mut fib: Fib<u32> = Fib::with_config(cfg);
/// fib.insert("10.0.0.0/8".parse().unwrap(), 1)?;
/// fib.insert("10.1.0.0/16".parse().unwrap(), 2)?;
/// assert_eq!(fib.lookup(0x0A01_0001), Some(2));
/// fib.remove("10.1.0.0/16".parse().unwrap())?;
/// assert_eq!(fib.lookup(0x0A01_0001), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Fib<K: Bits> {
    rib: RadixTree<K, NextHop>,
    trie: Poptrie<K>,
    stats: UpdateStats,
    strategy: UpdateStrategy,
}

impl<K: Bits> Fib<K> {
    /// An empty FIB shaped by `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS` — the one rule a
    /// key-width-agnostic [`PoptrieConfig`] cannot check itself.
    pub fn with_config(config: PoptrieConfig) -> Self {
        Self::compile(RadixTree::new(), config)
    }

    /// Compile an initial FIB from an existing RIB (full build, §3's
    /// route aggregation applied per `config.aggregate`), then serve
    /// incremental updates with `config.strategy`.
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS`.
    pub fn compile(rib: RadixTree<K, NextHop>, config: PoptrieConfig) -> Self {
        Self::compile_in(rib, config, &LeafStore::new(0))
    }

    /// Compile an initial FIB from an existing RIB with its leaf blocks
    /// interned in `store`: byte-identical blocks across every table
    /// built into the same store occupy one extent. Node arrays and the
    /// direct table stay private to this table, so update isolation and
    /// snapshot cost are unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS`.
    pub fn compile_in(
        rib: RadixTree<K, NextHop>,
        config: PoptrieConfig,
        store: &LeafStore,
    ) -> Self {
        let trie = Builder::from_config(&config).build_in(&rib, store);
        Fib {
            rib,
            trie,
            stats: UpdateStats::default(),
            strategy: config.strategy,
        }
    }

    /// Select the incremental-update strategy (default:
    /// [`UpdateStrategy::NodeRefresh`], the §3.5 node-reuse scheme).
    pub fn set_update_strategy(&mut self, strategy: UpdateStrategy) {
        self.strategy = strategy;
    }

    /// The active incremental-update strategy.
    pub fn update_strategy(&self) -> UpdateStrategy {
        self.strategy
    }

    /// The compiled Poptrie (lookup structure).
    pub fn poptrie(&self) -> &Poptrie<K> {
        &self.trie
    }

    /// Force the batched-lookup dispatch tier of the compiled Poptrie
    /// (clamped to what the CPU supports); snapshots cloned from this
    /// FIB afterwards inherit it. See
    /// [`Poptrie::set_batch_backend`](crate::Poptrie::set_batch_backend).
    pub fn set_batch_backend(
        &mut self,
        backend: poptrie_bitops::BatchBackend,
    ) -> poptrie_bitops::BatchBackend {
        self.trie.set_batch_backend(backend)
    }

    /// Move the compiled trie's write marks into `into` and start a fresh
    /// set (see [`crate::dirty`]).
    pub(crate) fn take_dirty(&mut self, into: &mut crate::dirty::DirtyLines) {
        self.trie.take_dirty(into);
    }

    /// The RIB.
    pub fn rib(&self) -> &RadixTree<K, NextHop> {
        &self.rib
    }

    /// Cumulative update-work counters.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Longest-prefix-match lookup on the compiled FIB.
    #[inline]
    pub fn lookup(&self, key: K) -> Option<NextHop> {
        self.trie.lookup(key)
    }

    /// Announce a route: insert (or replace) `prefix -> nh` and patch the
    /// FIB.
    ///
    /// A re-announcement of the prefix's current next hop is a no-op
    /// ([`Applied::Unchanged`]): the RIB is unchanged, nothing is patched,
    /// and [`UpdateStats::updates`] is not incremented (it counts only
    /// updates that changed the RIB).
    ///
    /// # Errors
    ///
    /// [`UpdateError::ReservedNextHop`] when `nh` is [`NO_ROUTE`] (0);
    /// [`UpdateError::CapacityExhausted`] when the node arena has no index
    /// space left. On error the FIB is untouched.
    pub fn insert(&mut self, prefix: Prefix<K>, nh: NextHop) -> Result<Applied, UpdateError> {
        if nh == NO_ROUTE {
            return Err(UpdateError::ReservedNextHop);
        }
        self.check_capacity()?;
        let old = self.rib.insert(prefix, nh);
        if old != Some(nh) {
            #[cfg(feature = "observe")]
            let (t0, before) = (poptrie_cycles::rdtsc_serialized(), self.stats);
            self.patch_range(prefix);
            self.stats.updates += 1;
            #[cfg(feature = "observe")]
            crate::telemetry::record_update(
                true,
                poptrie_cycles::rdtsc_serialized().wrapping_sub(t0),
                &self.stats.delta_since(before),
            );
        }
        Ok(match old {
            None => Applied::Inserted,
            Some(prev) if prev == nh => Applied::Unchanged(prev),
            Some(prev) => Applied::Replaced(prev),
        })
    }

    /// Announce a route from raw wire-format parts, validating them: the
    /// length must fit the key width and `addr` must be canonical (no host
    /// bits below `len`). Unlike [`Prefix::new`] — which silently masks —
    /// a malformed update is rejected with
    /// [`UpdateError::PrefixTooLong`] / [`UpdateError::NonCanonical`]
    /// instead of being applied to a different prefix than the peer named.
    pub fn announce(&mut self, addr: K, len: u8, nh: NextHop) -> Result<Applied, UpdateError> {
        let prefix = Prefix::try_new(addr, len)?;
        self.insert(prefix, nh)
    }

    /// Withdraw a route. [`Applied::Withdrawn`] carries the next hop it
    /// had; a withdraw of an absent prefix is [`Applied::Absent`] and
    /// changes nothing.
    ///
    /// # Errors
    ///
    /// [`UpdateError::CapacityExhausted`] when the node arena has no index
    /// space left (a withdraw can still allocate while repairing the
    /// affected subtree). On error the FIB is untouched.
    pub fn remove(&mut self, prefix: Prefix<K>) -> Result<Applied, UpdateError> {
        self.check_capacity()?;
        let Some(old) = self.rib.remove(prefix) else {
            return Ok(Applied::Absent);
        };
        #[cfg(feature = "observe")]
        let (t0, before) = (poptrie_cycles::rdtsc_serialized(), self.stats);
        self.patch_range(prefix);
        self.stats.updates += 1;
        #[cfg(feature = "observe")]
        crate::telemetry::record_update(
            false,
            poptrie_cycles::rdtsc_serialized().wrapping_sub(t0),
            &self.stats.delta_since(before),
        );
        Ok(Applied::Withdrawn(old))
    }

    /// Withdraw a route from raw wire-format parts, with the same
    /// validation as [`Fib::announce`].
    pub fn withdraw(&mut self, addr: K, len: u8) -> Result<Applied, UpdateError> {
        let prefix = Prefix::try_new(addr, len)?;
        self.remove(prefix)
    }

    /// Re-derive the compiled structure from the RIB for `prefix`'s
    /// range, whether or not the RIB holds that exact prefix. [`insert`]
    /// and [`remove`] call this internally; it is public for callers that
    /// mutate the RIB out of band (e.g. bulk-diff appliers) and then
    /// repair the FIB range by range.
    ///
    /// [`insert`]: Fib::insert
    /// [`remove`]: Fib::remove
    pub fn patch(&mut self, prefix: Prefix<K>) -> Result<Applied, UpdateError> {
        self.check_capacity()?;
        self.patch_range(prefix);
        Ok(Applied::Refreshed)
    }

    /// The conservative arena-space precheck behind
    /// [`UpdateError::CapacityExhausted`]: node indices share a `u32` with
    /// the [`DIRECT_LEAF_BIT`] tag, so the arena must stay below 2^31
    /// slots for any further allocation to be representable.
    fn check_capacity(&self) -> Result<(), UpdateError> {
        let nodes = self.trie.nodes.len();
        if nodes as u64 >= DIRECT_LEAF_BIT as u64 {
            return Err(UpdateError::CapacityExhausted { nodes });
        }
        Ok(())
    }

    /// Rebuild the whole FIB from the RIB (the paper's "compilation from
    /// scratch", Table 2's compilation-time column). The table first
    /// releases every leaf extent it references, then rebuilds into the
    /// same leaf store.
    pub fn rebuild(&mut self) {
        #[cfg(feature = "observe")]
        let t0 = poptrie_cycles::rdtsc_serialized();
        release_trie_leaves(&mut self.trie);
        let store = self.trie.store.writer();
        self.trie = Builder::new()
            .direct_bits(self.trie.s)
            .aggregate(false)
            .build_with(&self.rib, store);
        #[cfg(feature = "observe")]
        crate::telemetry::record_rebuild(poptrie_cycles::rdtsc_serialized().wrapping_sub(t0));
    }

    /// Patch the Poptrie after `prefix` changed in the RIB.
    fn patch_range(&mut self, prefix: Prefix<K>) {
        let s = self.trie.s as u32;
        let len = prefix.len() as u32;
        // Canonicalize defensively: a prefix with set bits below `len`
        // would make `extract(0, s)` land on the wrong direct slot and
        // refresh a range the route change never touched, leaving the
        // real range stale. `Prefix::new` masks at construction, so this
        // is belt-and-braces against any future constructor that forgets.
        let addr = prefix.addr().and(K::prefix_mask(len));
        debug_assert!(
            addr == prefix.addr(),
            "non-canonical prefix reached patch: {prefix:?}"
        );
        let prefix = Prefix::new(addr, len as u8);
        if s == 0 {
            // Without direct pointing the root subtree is the only
            // replaceable unit (the paper evaluates updates with s = 18).
            let before = snapshot(&self.trie);
            let old_root = self.trie.root;
            free_subtree(&mut self.trie, old_root);
            self.trie.node_buddy.free(old_root, 1);
            let mid = snapshot(&self.trie);
            let root = alloc_nodes(&mut self.trie, 1);
            self.trie.root = root;
            fill_node(&mut self.trie, root, self.rib.root(), NO_ROUTE, false);
            credit(&mut self.stats, before, mid, snapshot(&self.trie));
            return;
        }
        if len > s {
            self.refresh_direct_slot(prefix.addr().extract(0, s));
        } else {
            let lo = prefix.addr().extract(0, s);
            let count = 1u32 << (s - len);
            for di in lo..lo + count {
                self.refresh_direct_slot(di);
            }
        }
    }

    /// Repair the structure hanging off direct slot `di` from the RIB,
    /// reusing the existing node subtree where the strategy allows.
    fn refresh_direct_slot(&mut self, di: u32) {
        let s = self.trie.s as u32;
        let old = self.trie.direct[di as usize];
        let old_is_node = old & DIRECT_LEAF_BIT == 0;
        // Locate the radix node for the slot's s-bit path, tracking the
        // next hop inherited from shorter prefixes along the way.
        let path = K::from_high_bits(di, s);
        let mut cur = self.rib.root();
        let mut inherited = NO_ROUTE;
        let mut i = 0;
        while i < s {
            let Some(n) = cur else { break };
            inherited = n.value().copied().unwrap_or(inherited);
            cur = n.child(path.bit(i));
            i += 1;
        }
        let needs_node = i == s && cur.map(|n| n.has_children()).unwrap_or(false);
        let entry = match (old_is_node, needs_node) {
            (true, true) if self.strategy == UpdateStrategy::NodeRefresh => {
                // §3.5 node reuse: repair in place, keeping the index.
                refresh_node(&mut self.trie, &mut self.stats, old, cur, inherited);
                old
            }
            (_, true) => {
                if old_is_node {
                    teardown_slot(&mut self.trie, &mut self.stats, old);
                }
                let before = snapshot(&self.trie);
                let idx = alloc_nodes(&mut self.trie, 1);
                fill_node(&mut self.trie, idx, cur, inherited, false);
                credit_built(&mut self.stats, before, snapshot(&self.trie));
                idx
            }
            (_, false) => {
                if old_is_node {
                    teardown_slot(&mut self.trie, &mut self.stats, old);
                }
                let nh = match cur {
                    Some(n) if i == s => n.value().copied().unwrap_or(inherited),
                    _ => inherited,
                };
                DIRECT_LEAF_BIT | nh as u32
            }
        };
        if entry != old {
            self.trie.set_direct(di as usize, entry);
            self.stats.direct_replacements += 1;
        }
    }
}

/// Free the node subtree a direct slot points at, including the node's
/// own single-slot block, crediting the freed work.
fn teardown_slot<K: Bits>(trie: &mut Poptrie<K>, stats: &mut UpdateStats, idx: u32) {
    let before = snapshot(trie);
    free_subtree(trie, idx);
    trie.node_buddy.free(idx, 1);
    credit_freed(stats, before, snapshot(trie));
}

/// The §3.5 refresh: recompute node `idx`'s contents from the RIB; when
/// its child-type `vector` is unchanged, keep the node and its child block
/// in place, replace the leaf block only if the leaves actually changed,
/// and recurse into the children. When the `vector` changed (a slot
/// flipped between leaf and internal), fall back to rebuilding the whole
/// subtree below `idx` — the node index itself is still preserved, so the
/// parent needs no update.
fn refresh_node<K: Bits>(
    trie: &mut Poptrie<K>,
    stats: &mut UpdateStats,
    idx: u32,
    radix: Option<&RadixNode<NextHop>>,
    inherited: NextHop,
) {
    let old: Node24 = trie.nodes[idx as usize];
    let spec = compute_chunk::<Node24>(radix, inherited, false);
    if spec.vector != old.vector {
        // Structure changed: rebuild this subtree in place.
        let before = snapshot(trie);
        free_subtree(trie, idx);
        credit_freed(stats, before, snapshot(trie));
        let before = snapshot(trie);
        place_node(trie, idx, spec, false);
        credit_built(stats, before, snapshot(trie));
        return;
    }
    // Same child structure: refresh leaves if they changed. With an
    // unchanged leafvec the old and new blocks have the same length, so
    // the content probe compares like for like.
    let old_leaf_count = old.leafvec.count_ones() as usize;
    let leaves_unchanged =
        spec.leafvec == old.leafvec && trie.store.block_eq(old.base0, &spec.leaf_vals);
    if !leaves_unchanged {
        if old_leaf_count > 0 {
            release_leaves(trie, old.base0, old_leaf_count as u32);
            stats.leaves_freed += old_leaf_count as u64;
        }
        let base0 = if spec.leaf_vals.is_empty() {
            0
        } else {
            stats.leaves_allocated += spec.leaf_vals.len() as u64;
            install_leaves(trie, &spec.leaf_vals)
        };
        let mut node = trie.nodes[idx as usize];
        node.leafvec = spec.leafvec;
        node.base0 = base0;
        trie.set_node(idx as usize, node);
    }
    // Recurse into the (unchanged set of) children.
    for (i, (cnode, cinh)) in spec.children.into_iter().enumerate() {
        refresh_node(trie, stats, old.base1 + i as u32, Some(cnode), cinh);
    }
}

fn credit_freed(stats: &mut UpdateStats, before: (usize, usize), after: (usize, usize)) {
    stats.nodes_freed += (before.0 - after.0) as u64;
    stats.leaves_freed += (before.1 - after.1) as u64;
}

fn credit_built(stats: &mut UpdateStats, before: (usize, usize), after: (usize, usize)) {
    stats.nodes_allocated += (after.0 - before.0) as u64;
    stats.leaves_allocated += (after.1 - before.1) as u64;
}

/// (inodes, leaves) snapshot for stats accounting.
fn snapshot<K: Bits>(trie: &Poptrie<K>) -> (usize, usize) {
    (trie.inode_count, trie.leaf_count)
}

/// Attribute counter movement to freed (before → mid, while the old
/// subtree is torn down) and built (mid → after, while the new subtree is
/// compiled) work.
fn credit(
    stats: &mut UpdateStats,
    before: (usize, usize),
    mid: (usize, usize),
    after: (usize, usize),
) {
    stats.nodes_freed += (before.0 - mid.0) as u64;
    stats.leaves_freed += (before.1 - mid.1) as u64;
    stats.nodes_allocated += (after.0 - mid.0) as u64;
    stats.leaves_allocated += (after.1 - mid.1) as u64;
}

/// Recursively free the child and leaf blocks under node `idx` and
/// decrement the live counters for `idx` itself. The block *containing*
/// `idx` must be freed by the caller (it belongs to the parent).
pub(crate) fn free_subtree<K: Bits, N: NodeRepr>(
    trie: &mut crate::trie::PoptrieImpl<K, N>,
    idx: u32,
) {
    let node = trie.nodes[idx as usize];
    let nchildren = node.vector().count_ones();
    for i in 0..nchildren {
        free_subtree(trie, node.base1() + i);
    }
    if nchildren > 0 {
        trie.node_buddy.free(node.base1(), nchildren);
    }
    let nleaves = node.leaf_count();
    if nleaves > 0 {
        release_leaves(trie, node.base0(), nleaves);
    }
    trie.inode_count -= 1;
}

/// Drop every leaf reference a trie holds, leaving it with
/// `leaf_count == 0`. Called before a trie is discarded wholesale
/// ([`Fib::rebuild`]): its extents are refcounted in the leaf store.
fn release_trie_leaves<K: Bits, N: NodeRepr>(trie: &mut crate::trie::PoptrieImpl<K, N>) {
    // Direct slots own disjoint subtrees (the builder and the patcher
    // never share nodes across slots), so each root is visited once.
    let roots: Vec<u32> = if trie.s == 0 {
        vec![trie.root]
    } else {
        trie.direct
            .iter()
            .copied()
            .filter(|e| e & DIRECT_LEAF_BIT == 0)
            .collect()
    };
    for r in roots {
        release_subtree_leaves(trie, r);
    }
    debug_assert_eq!(trie.leaf_count, 0, "leaf refs remain after release");
}

/// Release the leaf blocks of the subtree rooted at `idx`, touching no
/// node storage.
fn release_subtree_leaves<K: Bits, N: NodeRepr>(
    trie: &mut crate::trie::PoptrieImpl<K, N>,
    idx: u32,
) {
    let node = trie.nodes[idx as usize];
    for i in 0..node.vector().count_ones() {
        release_subtree_leaves(trie, node.base1() + i);
    }
    let nleaves = node.leaf_count();
    if nleaves > 0 {
        release_leaves(trie, node.base0(), nleaves);
    }
}
