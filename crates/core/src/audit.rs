//! Structural invariant auditor for compiled Poptries.
//!
//! [`PoptrieImpl::check_invariants`] verifies what a *lookup* needs:
//! indices in bounds, ranks inside each node's leaf block, counts matching
//! reachability. The §3.5 incremental-update path can violate subtler
//! invariants long before a lookup goes wrong — a leaf block freed but
//! still referenced keeps returning stale (plausible!) next hops until the
//! allocator hands the slots to someone else. [`PoptrieImpl::audit`]
//! therefore cross-checks the compiled structure against the node buddy
//! allocator's own allocation map and the leaf store's extent ledger:
//!
//! * **`vector`/`leafvec` disjointness** — a chunk slot is either an
//!   internal child or part of a leaf run, never both (§3.3: leafvec bits
//!   are only set on leaf slots; internal slots are the punched holes).
//! * **Block liveness** — every child block `[base1, base1+popcnt(vector))`
//!   must be a *live* allocation of the node buddy
//!   ([`Buddy::is_live_block`]), and every leaf block
//!   `[base0, base0+leaf_count)` a live extent of the leaf store: not
//!   freed, not dangling into a hole.
//! * **Block disjointness** — no two referenced node blocks, and no two
//!   distinct leaf extents, may share rounded extents (aliasing: one
//!   node's refresh would corrupt another's data). Several nodes may share
//!   one leaf extent: equal blocks are interned once.
//! * **Leak / double-free accounting** — the number and rounded size of
//!   reachable node blocks must equal the node buddy's `live_blocks()` /
//!   `allocated_slots()` exactly. For a table with a leaf store of its
//!   own, every extent's reference count must equal the number of nodes
//!   that reference it, no other extent may be live, and the store's
//!   buddy must hold exactly its live and retired extents. A table of a
//!   VRF group is checked that way across the group by `VrfTable::audit`.
//! * **Count reconciliation** — `inode_count` / `leaf_count` must match a
//!   full traversal, and direct leaf entries must carry no stray bits
//!   above the 16-bit next hop.
//!
//! The auditor only applies to tries whose allocators carry real
//! provenance — ones produced by [`Builder`](crate::Builder) or churned
//! through [`Fib`](crate::Fib). Deserialized tries
//! ([`PoptrieImpl::from_bytes`](crate::Poptrie::from_bytes)) use a single
//! opaque covering allocation and are validated with
//! [`PoptrieImpl::check_invariants`] instead. A published snapshot's trie
//! holds no node allocator: audit its table through the writer's trie
//! ([`SharedFib::with_fib`](crate::sync::SharedFib::with_fib)).

use poptrie_bitops::Bits;
use poptrie_buddy::Buddy;

use crate::node::NodeRepr;
use crate::serial::node_leafvec;
use crate::trie::{PoptrieImpl, DIRECT_LEAF_BIT};

/// What a successful [`PoptrieImpl::audit`] run verified, for reporting
/// (the `repro audit` subcommand prints these numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Internal nodes reached by the traversal.
    pub inodes: usize,
    /// Leaves reached by the traversal.
    pub leaves: usize,
    /// Live node blocks (root/direct-slot singles plus child runs).
    pub node_blocks: usize,
    /// Live leaf blocks (distinct extents).
    pub leaf_blocks: usize,
    /// References to leaf blocks from this table's nodes. It may exceed
    /// [`leaf_blocks`](AuditReport::leaf_blocks): several nodes can intern
    /// byte-identical blocks into one extent. Summed across every table
    /// of a leaf store, it must reproduce the store's `total_refs`.
    pub leaf_block_refs: usize,
    /// Node slots reserved, after buddy power-of-two rounding.
    pub node_slots_rounded: u64,
    /// Leaf slots reserved, after buddy power-of-two rounding.
    pub leaf_slots_rounded: u64,
    /// Deepest node level reached (0 = a root node).
    pub max_depth: u32,
}

/// Rounded extents of the node blocks a traversal reached.
struct BlockSet {
    /// `(offset, rounded_len)` of every referenced block.
    blocks: Vec<(u32, u32)>,
}

impl BlockSet {
    /// Record a referenced block and check it is live in `buddy`.
    fn record(&mut self, buddy: &Buddy, off: u32, n: u32, what: &str) -> Result<(), String> {
        if !buddy.is_live_block(off, n) {
            return Err(format!(
                "{what} [{off}, {off}+{n}) is not a live allocation (freed, unaligned or out of range)"
            ));
        }
        self.blocks.push((off, Buddy::rounded(n)));
        Ok(())
    }

    /// Verify the recorded blocks are pairwise disjoint and account for
    /// `buddy`'s entire outstanding allocation.
    fn reconcile(mut self, buddy: &Buddy) -> Result<(usize, u64), String> {
        self.blocks.sort_unstable();
        for w in self.blocks.windows(2) {
            let (a_off, a_len) = w[0];
            let (b_off, _) = w[1];
            if a_off + a_len > b_off {
                return Err(format!(
                    "aliased node blocks: [{a_off}, {a_off}+{a_len}) overlaps one at {b_off}"
                ));
            }
        }
        let count = self.blocks.len();
        let rounded: u64 = self.blocks.iter().map(|&(_, l)| l as u64).sum();
        if count as u32 != buddy.live_blocks() {
            return Err(format!(
                "node block leak: traversal reached {count} blocks, allocator has {} outstanding",
                buddy.live_blocks()
            ));
        }
        if rounded != buddy.allocated_slots() as u64 {
            return Err(format!(
                "node slot accounting: traversal covers {rounded} rounded slots, allocator says {}",
                buddy.allocated_slots()
            ));
        }
        Ok((count, rounded))
    }
}

impl<K: Bits, N: NodeRepr> PoptrieImpl<K, N> {
    /// Audit the full set of structural invariants (see the module docs):
    /// `vector`/`leafvec` disjointness, block liveness, disjointness and
    /// leak accounting in the node buddy and the leaf store, and count
    /// reconciliation. Returns a summary of what was verified, or the
    /// first violation found.
    ///
    /// This is the correctness backstop for the §3.5 incremental-update
    /// path; the churn-fuzz harness calls it after every batch of
    /// randomized announce/withdraw events. Not a hot path.
    pub fn audit(&self) -> Result<AuditReport, String> {
        self.node_buddy
            .check_invariants()
            .map_err(|e| format!("node allocator: {e}"))?;

        let mut report = AuditReport::default();
        let mut node_blocks = BlockSet { blocks: Vec::new() };
        let mut leaf_blocks: Vec<(u32, u32)> = Vec::new();

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
            for (di, &e) in self.direct.iter().enumerate() {
                if e & DIRECT_LEAF_BIT == 0 {
                    roots.push(e);
                } else if (e & !DIRECT_LEAF_BIT) > u16::MAX as u32 {
                    return Err(format!(
                        "direct slot {di}: leaf entry {e:#010x} has stray bits above the 16-bit next hop"
                    ));
                }
            }
        }
        for root in roots {
            // Every root node occupies its own single-slot block.
            node_blocks.record(&self.node_buddy, root, 1, "root node block")?;
            self.audit_node(root, 0, &mut report, &mut node_blocks, &mut leaf_blocks)?;
        }

        if report.inodes != self.inode_count {
            return Err(format!(
                "inode count mismatch: reachable {}, recorded {}",
                report.inodes, self.inode_count
            ));
        }
        if report.leaves != self.leaf_count {
            return Err(format!(
                "leaf count mismatch: reachable {}, recorded {}",
                report.leaves, self.leaf_count
            ));
        }
        report.leaf_block_refs = leaf_blocks.len();
        let (nb, ns) = node_blocks.reconcile(&self.node_buddy)?;
        let (lb, ls) = self.store.audit_table(&mut leaf_blocks)?;
        report.node_blocks = nb;
        report.node_slots_rounded = ns;
        report.leaf_blocks = lb;
        report.leaf_slots_rounded = ls;
        Ok(report)
    }

    fn audit_node(
        &self,
        idx: u32,
        depth: u32,
        report: &mut AuditReport,
        node_blocks: &mut BlockSet,
        leaf_blocks: &mut Vec<(u32, u32)>,
    ) -> Result<(), String> {
        if depth > K::BITS.div_ceil(6) {
            return Err(format!(
                "node {idx} at depth {depth}: trie deeper than the key width allows"
            ));
        }
        report.max_depth = report.max_depth.max(depth);
        let Some(node) = self.nodes.get(idx as usize) else {
            return Err(format!("node index {idx} out of bounds"));
        };
        report.inodes += 1;
        let vector = node.vector();
        let leafvec = node_leafvec(node);
        if N::COMPRESSES_LEAVES && vector & leafvec != 0 {
            return Err(format!(
                "node {idx}: vector and leafvec share slots {:#018x} (an internal child cannot start a leaf run)",
                vector & leafvec
            ));
        }
        let nleaves = node.leaf_count();
        report.leaves += nleaves as usize;
        if nleaves > 0 {
            if node.base0() as usize + nleaves as usize > self.leaf_slots() {
                return Err(format!("node {idx}: leaf block out of bounds"));
            }
            leaf_blocks.push((node.base0(), nleaves));
        }
        // Every relevant (leaf) slot must resolve inside the node's own
        // leaf block: rank in 1..=nleaves.
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
        if nchildren > 0 {
            node_blocks.record(&self.node_buddy, node.base1(), nchildren, "child block")?;
            for i in 0..nchildren {
                self.audit_node(
                    node.base1() + i,
                    depth + 1,
                    report,
                    node_blocks,
                    leaf_blocks,
                )?;
            }
        }
        Ok(())
    }
}
