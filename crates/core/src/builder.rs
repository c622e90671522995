//! Compilation of a RIB radix tree into a Poptrie.
//!
//! The builder walks the binary radix tree and, for every Poptrie node,
//! expands the next six radix levels into 64 slots. A slot whose radix
//! subtree holds longer prefixes becomes an internal child (bit set in
//! `vector`); every other slot resolves to the longest prefix seen on its
//! path — the *prefix expansion* of §3.1. With the leafvec layout, runs of
//! identical adjacent leaves collapse into one stored leaf (§3.3), with
//! slots hidden behind internal children never breaking a run (the hole
//! punching recovery of Figure 3).
//!
//! Route aggregation (§3) is decided during that same walk of the raw
//! RIB; no aggregated copy of the tree is made. The builder chooses
//! between a leaf and an internal child in two places: at a chunk's
//! sixth level (`expand_chunk`) and at depth `s` (`fill_direct`).
//! With aggregation on, a subtree there whose addresses all resolve to
//! one next hop becomes a leaf holding that next hop, even if it holds
//! longer prefixes. That next hop can differ from the subtree's own
//! route when its children cover the whole range with another one. This
//! is the collapse [`RadixTree::aggregated`] performs; the tests use it
//! as the reference and check that both paths compile byte-identical
//! tries. (A RIB holding [`NO_ROUTE`] as a next hop is the exception:
//! the builder cannot tell that route from no route, so it may collapse
//! more than the reference, with the same lookups.)
//!
//! Cost: a uniformity walk stops at the first next hop that disagrees,
//! and a subtree is walked again only at the next slot boundary below
//! it, six levels further down. A route `d` bits deep is thus walked at
//! most once per slot boundary above it: `(d - s) / 6 + 1` times.

use poptrie_bitops::Bits;
use poptrie_buddy::Buddy;
use poptrie_rib::radix::Node as RadixNode;
use poptrie_rib::{NextHop, RadixTree, NO_ROUTE};

use crate::leaf_store::LeafStore;
use crate::node::{Node24, NodeRepr};
use crate::trie::{PoptrieImpl, DIRECT_LEAF_BIT};

/// A radix subtree paired with the next hop inherited from above it.
pub(crate) type ChildRef<'a> = (&'a RadixNode<NextHop>, NextHop);

/// Configures and runs Poptrie compilation.
///
/// ```
/// use poptrie::{Poptrie, Builder};
/// use poptrie_rib::RadixTree;
///
/// let mut rib = RadixTree::new();
/// rib.insert("192.0.2.0/24".parse().unwrap(), 3u16);
/// let fib: Poptrie = Poptrie::builder()
///     .direct_bits(16)      // the paper's Poptrie16
///     .aggregate(false)     // disable §3 route aggregation
///     .build(&rib);
/// assert_eq!(fib.lookup(0xC000_0205), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct Builder<K: Bits, N: NodeRepr = Node24> {
    s: u8,
    aggregate: bool,
    node_capacity: u32,
    _marker: core::marker::PhantomData<(K, N)>,
}

impl<K: Bits, N: NodeRepr> Default for Builder<K, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Bits, N: NodeRepr> Builder<K, N> {
    /// Default configuration: `s = 18` (the paper's best performer) with
    /// route aggregation enabled.
    pub fn new() -> Self {
        Builder {
            s: 18,
            aggregate: true,
            node_capacity: 0,
            _marker: core::marker::PhantomData,
        }
    }

    /// A builder shaped by a validated [`PoptrieConfig`](crate::PoptrieConfig)
    /// (direct-pointing size, aggregation, node-arena reservation).
    ///
    /// ```
    /// use poptrie::{Poptrie, Builder, PoptrieConfig};
    /// use poptrie_rib::RadixTree;
    ///
    /// let cfg = PoptrieConfig::new().direct_bits(16).aggregate(false).build()?;
    /// let mut rib = RadixTree::new();
    /// rib.insert("192.0.2.0/24".parse().unwrap(), 3u16);
    /// let fib: Poptrie = Builder::from_config(&cfg).build(&rib);
    /// assert_eq!(fib.lookup(0xC000_0205), Some(3));
    /// # Ok::<(), poptrie::ConfigError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `config.direct_bits >= K::BITS` (the key-width rule a
    /// width-agnostic config cannot check itself).
    pub fn from_config(config: &crate::config::PoptrieConfig) -> Self {
        let mut b = Self::new()
            .direct_bits(config.direct_bits)
            .aggregate(config.aggregate);
        b.node_capacity = config.node_capacity;
        b
    }

    /// Set the direct-pointing size `s` (§3.4): the top-level array has
    /// `2^s` entries and lookups on prefixes no longer than `s` finish in
    /// one access. `0` disables direct pointing. Values of 16 and 18 match
    /// the paper's Poptrie16/Poptrie18.
    ///
    /// # Panics
    ///
    /// Panics when `s > 24` (the top-level array would exceed 64 MiB,
    /// defeating the cache-residency design) or `s >= K::BITS`.
    pub fn direct_bits(mut self, s: u8) -> Self {
        assert!(s <= 24, "direct-pointing size {s} > 24 is unsupported");
        assert!((s as u32) < K::BITS, "direct bits must be below key width");
        self.s = s;
        self
    }

    /// Enable or disable the route aggregation of §3 (on by default, as in
    /// the paper's evaluation).
    pub fn aggregate(mut self, on: bool) -> Self {
        self.aggregate = on;
        self
    }

    /// Compile `rib` into a Poptrie with a leaf store of its own.
    pub fn build(&self, rib: &RadixTree<K, NextHop>) -> PoptrieImpl<K, N> {
        self.build_in(rib, &LeafStore::new(0))
    }

    /// Compile `rib` into a Poptrie whose leaf blocks are interned in
    /// `store`, deduplicated against every other table built into it
    /// (see [`crate::leaf_store`]).
    pub fn build_in(&self, rib: &RadixTree<K, NextHop>, store: &LeafStore) -> PoptrieImpl<K, N> {
        self.build_with(rib, store.join())
    }

    /// Compile `rib` into a Poptrie reading and interning through the
    /// writer's handle `store`.
    pub(crate) fn build_with(
        &self,
        rib: &RadixTree<K, NextHop>,
        store: LeafStore,
    ) -> PoptrieImpl<K, N> {
        let mut trie = PoptrieImpl {
            direct: Vec::new(),
            nodes: Vec::new(),
            store,
            node_buddy: Buddy::with_capacity(self.node_capacity),
            root: 0,
            inode_count: 0,
            leaf_count: 0,
            s: self.s,
            backend: poptrie_bitops::BatchBackend::detect(),
            dirty: crate::dirty::DirtyLines::everything(),
            _key: core::marker::PhantomData,
        };
        if self.s == 0 {
            let root = alloc_nodes(&mut trie, 1);
            trie.root = root;
            fill_node(&mut trie, root, rib.root(), NO_ROUTE, self.aggregate);
        } else {
            trie.direct = vec![DIRECT_LEAF_BIT; 1usize << self.s];
            fill_direct(&mut trie, rib.root(), NO_ROUTE, 0, 0, self.aggregate);
        }
        trie
    }
}

/// Apply a radix node's own value on top of the inherited next hop.
#[inline]
fn apply(value: Option<&NextHop>, inherited: NextHop) -> NextHop {
    value.copied().unwrap_or(inherited)
}

/// The next hop of a leaf standing for the radix subtree at `n` (under
/// the inherited next hop `inherited`), or `None` when the subtree needs
/// an internal node: it holds longer prefixes and, with `aggregate`, its
/// addresses do not all resolve to one next hop.
fn leaf_for(n: &RadixNode<NextHop>, inherited: NextHop, aggregate: bool) -> Option<NextHop> {
    /// Whether every address below `n` resolves to `*first`, setting
    /// `*first` from the first one met; stops at the first disagreement.
    fn agrees(n: &RadixNode<NextHop>, inherited: NextHop, first: &mut Option<NextHop>) -> bool {
        let nh = apply(n.value(), inherited);
        if !n.has_children() {
            return *first.get_or_insert(nh) == nh;
        }
        [false, true].into_iter().all(|bit| match n.child(bit) {
            Some(c) => agrees(c, nh, first),
            None => *first.get_or_insert(nh) == nh,
        })
    }
    if n.has_children() && !aggregate {
        return None;
    }
    let mut first = None;
    agrees(n, inherited, &mut first).then(|| first.expect("a walk meets a next hop"))
}

/// Allocate a run of `n` node slots, growing the backing array to the
/// allocator's capacity. Freshly exposed slots hold an inert placeholder
/// that is never reachable until overwritten.
pub(crate) fn alloc_nodes<K: Bits, N: NodeRepr>(trie: &mut PoptrieImpl<K, N>, n: u32) -> u32 {
    let off = trie.node_buddy.alloc(n);
    trie.grow_nodes(trie.node_buddy.capacity() as usize);
    off
}

/// Intern the leaf block `vals` in the trie's leaf store and return its
/// offset. Updates `leaf_count`.
pub(crate) fn install_leaves<K: Bits, N: NodeRepr>(
    trie: &mut PoptrieImpl<K, N>,
    vals: &[NextHop],
) -> u32 {
    trie.leaf_count += vals.len();
    trie.store.intern(vals)
}

/// Release the leaf block `[off, off + len)` previously installed with
/// [`install_leaves`]. Updates `leaf_count`.
pub(crate) fn release_leaves<K: Bits, N: NodeRepr>(
    trie: &mut PoptrieImpl<K, N>,
    off: u32,
    len: u32,
) {
    trie.store.release(off, len);
    trie.leaf_count -= len as usize;
}

/// Expand six radix levels below `node` into 64 slots.
///
/// `leaf[v]` receives the longest-match next hop for chunk value `v`;
/// `child[v]` receives the radix node (plus its inherited next hop) when
/// the subtree below slot `v` holds longer prefixes and therefore needs an
/// internal child — unless `aggregate` finds it resolves to one next hop.
fn expand_chunk<'a>(
    node: Option<&'a RadixNode<NextHop>>,
    inherited: NextHop,
    depth: u32,
    base: usize,
    leaf: &mut [NextHop; 64],
    child: &mut [Option<ChildRef<'a>>; 64],
    aggregate: bool,
) {
    let Some(n) = node else {
        let width = 1usize << (6 - depth);
        leaf[base * width..(base + 1) * width].fill(inherited);
        return;
    };
    if depth == 6 {
        match leaf_for(n, inherited, aggregate) {
            Some(nh) => leaf[base] = nh,
            // The slot is "irrelevant" (Figure 3): a descendant internal
            // node exists, so the lookup never reads this leaf slot.
            None => child[base] = Some((n, inherited)),
        }
        return;
    }
    let inh = apply(n.value(), inherited);
    expand_chunk(
        n.child(false),
        inh,
        depth + 1,
        base * 2,
        leaf,
        child,
        aggregate,
    );
    expand_chunk(
        n.child(true),
        inh,
        depth + 1,
        base * 2 + 1,
        leaf,
        child,
        aggregate,
    );
}

/// The computed contents of one Poptrie node before placement: the two
/// bit-vectors, the (compressed) leaf values, and the radix subtrees of
/// its internal children in slot order.
pub(crate) struct ChunkSpec<'a> {
    pub(crate) vector: u64,
    pub(crate) leafvec: u64,
    pub(crate) leaf_vals: Vec<NextHop>,
    pub(crate) children: Vec<ChildRef<'a>>,
}

/// Compute a node's contents from the radix subtree at `radix` (whose
/// covering prefix carries the next hop `inherited` from above), applying
/// §3's aggregation when `aggregate` is set. Shared by the from-scratch
/// builder and the §3.5 incremental refresh (which never aggregates).
pub(crate) fn compute_chunk<'a, N: NodeRepr>(
    radix: Option<&'a RadixNode<NextHop>>,
    inherited: NextHop,
    aggregate: bool,
) -> ChunkSpec<'a> {
    let mut leaf_slot = [NO_ROUTE; 64];
    let mut child_slot: [Option<ChildRef<'a>>; 64] = [None; 64];
    expand_chunk(
        radix,
        inherited,
        0,
        0,
        &mut leaf_slot,
        &mut child_slot,
        aggregate,
    );

    let mut spec = ChunkSpec {
        vector: 0,
        leafvec: 0,
        leaf_vals: Vec::with_capacity(64),
        children: Vec::with_capacity(8),
    };
    let mut last: Option<NextHop> = None;
    for v in 0..64usize {
        if let Some(cref) = child_slot[v] {
            spec.vector |= 1u64 << v;
            spec.children.push(cref);
            // An internal slot never breaks a leaf run (hole punching
            // recovery, §3.3) — so `last` is deliberately left alone.
        } else {
            let val = leaf_slot[v];
            if N::COMPRESSES_LEAVES {
                if last != Some(val) {
                    spec.leafvec |= 1u64 << v;
                    spec.leaf_vals.push(val);
                    last = Some(val);
                }
            } else {
                spec.leaf_vals.push(val);
            }
        }
    }
    spec
}

/// Write a computed node into slot `idx`, allocating its leaf block, then
/// build its children (aggregating them when `aggregate` is set). The
/// caller owns the block containing `idx` itself.
pub(crate) fn place_node<K: Bits, N: NodeRepr>(
    trie: &mut PoptrieImpl<K, N>,
    idx: u32,
    spec: ChunkSpec<'_>,
    aggregate: bool,
) {
    let base0 = if spec.leaf_vals.is_empty() {
        0
    } else {
        install_leaves(trie, &spec.leaf_vals)
    };
    let base1 = if spec.children.is_empty() {
        0
    } else {
        alloc_nodes(trie, spec.children.len() as u32)
    };
    trie.set_node(
        idx as usize,
        N::new(spec.vector, spec.leafvec, base0, base1),
    );
    trie.inode_count += 1;
    for (i, (cnode, cinh)) in spec.children.into_iter().enumerate() {
        fill_node(trie, base1 + i as u32, Some(cnode), cinh, aggregate);
    }
}

/// Build the node at index `idx` from the radix subtree rooted at `radix`,
/// then recurse into its internal children, aggregating when `aggregate`
/// is set.
pub(crate) fn fill_node<K: Bits, N: NodeRepr>(
    trie: &mut PoptrieImpl<K, N>,
    idx: u32,
    radix: Option<&RadixNode<NextHop>>,
    inherited: NextHop,
    aggregate: bool,
) {
    let spec = compute_chunk::<N>(radix, inherited, aggregate);
    place_node(trie, idx, spec, aggregate);
}

/// Fill the direct-pointing table (§3.4) for the radix subtree at `node`,
/// which sits `depth` bits below the root and covers direct slots
/// `[base << (s - depth), (base + 1) << (s - depth))`, aggregating when
/// `aggregate` is set.
pub(crate) fn fill_direct<K: Bits, N: NodeRepr>(
    trie: &mut PoptrieImpl<K, N>,
    node: Option<&RadixNode<NextHop>>,
    inherited: NextHop,
    depth: u32,
    base: usize,
    aggregate: bool,
) {
    let s = trie.s as u32;
    let Some(n) = node else {
        let width = 1usize << (s - depth);
        trie.fill_direct_slots(
            base * width..(base + 1) * width,
            DIRECT_LEAF_BIT | inherited as u32,
        );
        return;
    };
    if depth == s {
        match leaf_for(n, inherited, aggregate) {
            Some(nh) => trie.set_direct(base, DIRECT_LEAF_BIT | nh as u32),
            None => {
                let idx = alloc_nodes(trie, 1);
                trie.set_direct(base, idx);
                debug_assert_eq!(
                    idx & DIRECT_LEAF_BIT,
                    0,
                    "node index overflows direct entry"
                );
                fill_node(trie, idx, Some(n), inherited, aggregate);
            }
        }
        return;
    }
    let inh = apply(n.value(), inherited);
    fill_direct(trie, n.child(false), inh, depth + 1, base * 2, aggregate);
    fill_direct(trie, n.child(true), inh, depth + 1, base * 2 + 1, aggregate);
}
