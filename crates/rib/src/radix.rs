//! The binary radix tree: RIB substrate and `Radix` baseline.
//!
//! One bit of the key per level, no path compression. This is the structure
//! the paper compiles Poptrie from (§3.5) and the `Radix` row of Table 3 /
//! Figure 9. It also answers the *binary radix depth* question behind
//! Figure 7 and Figure 11: how many bits must be examined before the
//! longest matching prefix is decided.

use poptrie_bitops::Bits;

use crate::prefix::Prefix;
use crate::traits::{Lpm, NextHop};

/// A node of the binary radix tree.
///
/// Exposed read-only (through [`RadixTree::root`] and [`Node::child`]) so
/// that FIB compilers — the Poptrie builder in particular — can walk the
/// RIB without intermediate materialization.
#[derive(Debug, Clone)]
pub struct Node<V> {
    children: [Option<Box<Node<V>>>; 2],
    value: Option<V>,
}

impl<V> Default for Node<V> {
    fn default() -> Self {
        Node {
            children: [None, None],
            value: None,
        }
    }
}

impl<V> Node<V> {
    /// The child on the `0` (false) or `1` (true) side.
    #[inline]
    pub fn child(&self, bit: bool) -> Option<&Node<V>> {
        self.children[bit as usize].as_deref()
    }

    /// The value (next hop) stored at this exact prefix, if any.
    #[inline]
    pub fn value(&self) -> Option<&V> {
        self.value.as_ref()
    }

    /// True when the node has at least one child.
    #[inline]
    pub fn has_children(&self) -> bool {
        self.children[0].is_some() || self.children[1].is_some()
    }

    fn is_dead(&self) -> bool {
        self.value.is_none() && !self.has_children()
    }
}

/// A binary radix tree mapping [`Prefix`]es to values.
///
/// The tree maintains the invariant that every node either stores a value
/// or has a descendant that does, so `child(..).is_some()` implies a more
/// specific route exists below — the exact test the Poptrie builder uses to
/// decide between an internal node and a leaf.
///
/// ```
/// use poptrie_rib::{Prefix, RadixTree};
///
/// let mut rib: RadixTree<u32, u16> = RadixTree::new();
/// rib.insert("10.0.0.0/8".parse().unwrap(), 1);
/// rib.insert("10.1.0.0/16".parse().unwrap(), 2);
/// assert_eq!(rib.lookup(0x0A01_0001), Some(&2)); // 10.1.0.1
/// assert_eq!(rib.lookup(0x0A02_0001), Some(&1)); // 10.2.0.1
/// assert_eq!(rib.lookup(0x0B00_0001), None);     // 11.0.0.1
/// ```
#[derive(Debug, Clone)]
pub struct RadixTree<K: Bits, V> {
    root: Option<Box<Node<V>>>,
    len: usize,
    _key: core::marker::PhantomData<K>,
}

impl<K: Bits, V> Default for RadixTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Bits, V> RadixTree<K, V> {
    /// An empty tree.
    pub fn new() -> Self {
        RadixTree {
            root: None,
            len: 0,
            _key: core::marker::PhantomData,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only access to the root node, for FIB compilers.
    pub fn root(&self) -> Option<&Node<V>> {
        self.root.as_deref()
    }

    /// Insert `prefix -> value`, returning the previous value if the prefix
    /// was already present.
    pub fn insert(&mut self, prefix: Prefix<K>, value: V) -> Option<V> {
        let mut node = self.root.get_or_insert_with(Default::default);
        for i in 0..prefix.len() as u32 {
            let bit = prefix.bit(i) as usize;
            node = node.children[bit].get_or_insert_with(Default::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove `prefix`, returning its value if present. Dead interior nodes
    /// are pruned so the "every node leads to a value" invariant holds.
    /// Allocates nothing.
    pub fn remove(&mut self, prefix: Prefix<K>) -> Option<V> {
        fn rec<K: Bits, V>(
            node: &mut Option<Box<Node<V>>>,
            prefix: Prefix<K>,
            depth: u32,
        ) -> Option<V> {
            let n = node.as_deref_mut()?;
            let removed = if depth == prefix.len() as u32 {
                n.value.take()
            } else {
                let child = &mut n.children[prefix.bit(depth) as usize];
                rec(child, prefix, depth + 1)
            };
            if n.is_dead() {
                *node = None;
            }
            removed
        }

        let removed = rec(&mut self.root, prefix, 0);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// The value stored at exactly `prefix`, if any.
    pub fn get(&self, prefix: Prefix<K>) -> Option<&V> {
        let mut node = self.root.as_deref()?;
        for i in 0..prefix.len() as u32 {
            node = node.child(prefix.bit(i))?;
        }
        node.value()
    }

    /// Longest-prefix-match lookup: the value of the most specific prefix
    /// containing `key`.
    pub fn lookup(&self, key: K) -> Option<&V> {
        let mut node = self.root.as_deref()?;
        let mut best = node.value();
        let mut i = 0;
        while i < K::BITS {
            match node.child(key.bit(i)) {
                Some(next) => {
                    node = next;
                    if node.value.is_some() {
                        best = node.value();
                    }
                    i += 1;
                }
                None => break,
            }
        }
        best
    }

    /// Longest-prefix-match together with the *binary radix depth*: the
    /// number of bits that had to be examined before the answer was decided
    /// (the depth of the deepest existing node on the key's path). This is
    /// the quantity on the y-axis of Figure 7 and the x-axis of Figure 11,
    /// and it can exceed the matched prefix's own length when longer
    /// prefixes punch holes nearby.
    ///
    /// Also returns the length of the matched prefix (x-axis of Figure 7),
    /// or `None` if nothing matched.
    pub fn lookup_with_depth(&self, key: K) -> (Option<&V>, u32, Option<u8>) {
        let Some(mut node) = self.root.as_deref() else {
            return (None, 0, None);
        };
        let mut best = node.value();
        let mut best_len: Option<u8> = node.value().map(|_| 0);
        let mut depth = 0;
        while depth < K::BITS {
            match node.child(key.bit(depth)) {
                Some(next) => {
                    node = next;
                    depth += 1;
                    if next.value.is_some() {
                        best = next.value();
                        best_len = Some(depth as u8);
                    }
                }
                None => break,
            }
        }
        (best, depth, best.and(best_len))
    }

    /// Verify the tree's own structural invariants, for use as a trusted
    /// oracle in the churn-fuzz harness: every node either stores a value
    /// or leads to one (no dead interior nodes survive
    /// [`RadixTree::remove`]'s pruning), no node sits deeper than the key
    /// width, and the stored route count matches a full traversal.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn rec<V>(node: &Node<V>, depth: u32, max: u32, values: &mut usize) -> Result<(), String> {
            if depth > max {
                return Err(format!("node at depth {depth} exceeds key width {max}"));
            }
            if node.value().is_some() {
                *values += 1;
            } else if !node.has_children() {
                return Err(format!(
                    "dead node (no value, no children) at depth {depth}"
                ));
            }
            for bit in [false, true] {
                if let Some(c) = node.child(bit) {
                    rec(c, depth + 1, max, values)?;
                }
            }
            Ok(())
        }
        let mut values = 0usize;
        if let Some(root) = self.root() {
            rec(root, 0, K::BITS, &mut values)?;
        }
        if values != self.len {
            return Err(format!(
                "route count mismatch: traversal found {values}, len records {}",
                self.len
            ));
        }
        Ok(())
    }

    /// Iterate over all `(prefix, &value)` pairs in trie pre-order
    /// (address order, shorter prefixes first at equal address).
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut stack = Vec::new();
        if let Some(root) = self.root.as_deref() {
            stack.push((root, Prefix::DEFAULT));
        }
        Iter { stack }
    }
}

impl<K: Bits, V: Clone> RadixTree<K, V> {
    /// Bulk-build from an iterator of routes.
    pub fn from_routes<I: IntoIterator<Item = (Prefix<K>, V)>>(routes: I) -> Self {
        let mut t = Self::new();
        for (p, v) in routes {
            t.insert(p, v);
        }
        t
    }

    /// All routes as a sorted vector.
    pub fn to_routes(&self) -> Vec<(Prefix<K>, V)> {
        self.iter().map(|(p, v)| (p, v.clone())).collect()
    }
}

/// The route-level difference between two tables, as produced by
/// [`RadixTree::diff`]: the update batch that turns `self` into `newer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDiff<K: Bits, V> {
    /// Prefixes present only in the newer table.
    pub added: Vec<(Prefix<K>, V)>,
    /// Prefixes present only in the older table.
    pub removed: Vec<(Prefix<K>, V)>,
    /// Prefixes in both with different values: `(prefix, old, new)`.
    pub changed: Vec<(Prefix<K>, V, V)>,
}

impl<K: Bits, V> Default for RouteDiff<K, V> {
    fn default() -> Self {
        RouteDiff {
            added: Vec::new(),
            removed: Vec::new(),
            changed: Vec::new(),
        }
    }
}

impl<K: Bits, V> RouteDiff<K, V> {
    /// Total number of differing prefixes.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len() + self.changed.len()
    }

    /// True when the tables are route-identical.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Bits, V: Clone + Eq> RadixTree<K, V> {
    /// Compute the route-level difference from `self` (the older table)
    /// to `newer` — the minimal announce/withdraw/change batch a BGP
    /// speaker would need to converge one onto the other. Both trees are
    /// walked in order, so this is `O(|self| + |newer|)`.
    pub fn diff(&self, newer: &Self) -> RouteDiff<K, V> {
        let mut out = RouteDiff::default();
        let mut old_it = self.iter().peekable();
        let mut new_it = newer.iter().peekable();
        loop {
            match (old_it.peek(), new_it.peek()) {
                (Some(&(op, ov)), Some(&(np, nv))) => {
                    use core::cmp::Ordering::*;
                    match op.cmp(&np) {
                        Less => {
                            out.removed.push((op, ov.clone()));
                            old_it.next();
                        }
                        Greater => {
                            out.added.push((np, nv.clone()));
                            new_it.next();
                        }
                        Equal => {
                            if ov != nv {
                                out.changed.push((op, ov.clone(), nv.clone()));
                            }
                            old_it.next();
                            new_it.next();
                        }
                    }
                }
                (Some(&(op, ov)), None) => {
                    out.removed.push((op, ov.clone()));
                    old_it.next();
                }
                (None, Some(&(np, nv))) => {
                    out.added.push((np, nv.clone()));
                    new_it.next();
                }
                (None, None) => break,
            }
        }
        out
    }
}

impl<K: Bits, V: Clone + Eq> RadixTree<K, V> {
    /// The route aggregation of §3 of the paper: produce an equivalent,
    /// usually smaller tree by (a) dropping prefixes whose value equals the
    /// value already inherited from their closest enclosing prefix and
    /// (b) merging sets of prefixes with identical values that fill a
    /// subtree without a gap into the single covering prefix.
    ///
    /// Lookup results are preserved for **every** key, including keys that
    /// match no route (aggregation never invents coverage for unrouted
    /// space).
    ///
    /// The Poptrie builder makes the same collapse while it compiles the
    /// raw tree, without this copy; its tests use this function as the
    /// reference the compiled bytes must match.
    pub fn aggregated(&self) -> Self {
        // For each subtree, compute its replacement together with its
        // "uniform" status: Some(u) when every address below resolves to
        // `u` (which is itself an Option: uniform no-route counts).
        #[allow(clippy::type_complexity)]
        fn rec<V: Clone + Eq>(
            node: Option<&Node<V>>,
            inherited: Option<&V>,
        ) -> (Option<Box<Node<V>>>, Option<Option<V>>) {
            let Some(n) = node else {
                // Empty subtree: uniformly the inherited value.
                return (None, Some(inherited.cloned()));
            };
            // Drop a value equal to what is inherited anyway (case a).
            let own = match (n.value(), inherited) {
                (Some(v), Some(inh)) if v == inh => None,
                (v, _) => v.cloned(),
            };
            let effective = own.as_ref().or(inherited);
            let (l, ul) = rec(n.child(false), effective);
            let (r, ur) = rec(n.child(true), effective);
            // Case b: both halves uniform with the same resolution — the
            // whole subtree collapses.
            if let (Some(a), Some(b)) = (&ul, &ur) {
                if a == b {
                    let u = a.clone();
                    let out = match &u {
                        // Uniformly the inherited value: the subtree is
                        // entirely redundant.
                        v if v.as_ref() == inherited => None,
                        Some(v) => Some(Box::new(Node {
                            children: [None, None],
                            value: Some(v.clone()),
                        })),
                        // Uniformly no-route but different from inherited:
                        // impossible — children cannot erase coverage.
                        None => None,
                    };
                    return (out, Some(u));
                }
            }
            let effective = effective.cloned();
            let new = Node {
                children: [l, r],
                value: own,
            };
            if new.is_dead() {
                (
                    None,
                    Some(Some(effective.expect("non-uniform subtree cannot be dead"))),
                )
            } else {
                (Some(Box::new(new)), None)
            }
        }

        let (root, _) = rec(self.root(), None);
        let mut out = RadixTree {
            root,
            len: 0,
            _key: core::marker::PhantomData,
        };
        out.len = out.iter().count();
        out
    }
}

/// Iterator over the routes of a [`RadixTree`], in trie pre-order.
pub struct Iter<'a, K: Bits, V> {
    stack: Vec<(&'a Node<V>, Prefix<K>)>,
}

impl<'a, K: Bits, V> core::fmt::Debug for Iter<'a, K, V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Iter")
            .field("pending", &self.stack.len())
            .finish()
    }
}

impl<'a, K: Bits, V> Iterator for Iter<'a, K, V> {
    type Item = (Prefix<K>, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, prefix)) = self.stack.pop() {
            // Push children right-first so the left (0) side pops first.
            if (prefix.len() as u32) < K::BITS {
                if let Some(c) = node.child(true) {
                    self.stack.push((c, prefix.child(true)));
                }
                if let Some(c) = node.child(false) {
                    self.stack.push((c, prefix.child(false)));
                }
            }
            if let Some(v) = node.value() {
                return Some((prefix, v));
            }
        }
        None
    }
}

impl<K: Bits> Lpm<K> for RadixTree<K, NextHop> {
    fn lookup(&self, key: K) -> Option<NextHop> {
        RadixTree::lookup(self, key).copied()
    }

    fn memory_bytes(&self) -> usize {
        // Count actual heap nodes: children pointers + value option.
        fn count<V>(node: Option<&Node<V>>) -> usize {
            match node {
                None => 0,
                Some(n) => 1 + count(n.child(false)) + count(n.child(true)),
            }
        }
        count(self.root()) * core::mem::size_of::<Node<NextHop>>()
    }

    fn name(&self) -> String {
        "Radix".into()
    }
}
