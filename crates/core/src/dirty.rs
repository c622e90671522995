//! Write tracking for incremental snapshot publishing.
//!
//! [`SharedFib`](crate::sync::SharedFib) publishes by bringing a recycled
//! snapshot up to date with the writer's trie. To copy only what changed,
//! the writer's trie records which 64-byte lines of its `direct` and
//! `nodes` arrays were written: every array write in the builder and the
//! incremental updater goes through one of the setters below, each of
//! which marks the lines it touches. Leaves are not copied: they live in
//! the trie's [leaf store](crate::leaf_store), which every snapshot
//! shares. Whole-structure events (compilation,
//! [`Fib::rebuild`](crate::Fib::rebuild), deserialization, and any change
//! of an array's length) mark everything, and the next publish copies the
//! arrays in full.

use core::ops::Range;

use poptrie_bitops::Bits;
use poptrie_buddy::Buddy;

use crate::leaf_store::Epoch;
use crate::node::NodeRepr;
use crate::trie::PoptrieImpl;

/// Bytes per tracked line.
const LINE_BYTES: usize = 64;

/// The lines of one array written since the last clear, one bit per
/// 64-byte line of the array's storage.
#[derive(Debug, Clone, Default)]
struct LineSet {
    bits: Vec<u64>,
}

impl LineSet {
    /// Mark the lines holding elements `elems` of an array of `T`.
    fn mark<T>(&mut self, elems: Range<usize>) {
        if elems.is_empty() {
            return;
        }
        let size = core::mem::size_of::<T>();
        let first = elems.start * size / LINE_BYTES;
        let last = (elems.end * size - 1) / LINE_BYTES;
        if self.bits.len() <= last / 64 {
            self.bits.resize(last / 64 + 1, 0);
        }
        for line in first..=last {
            self.bits[line / 64] |= 1 << (line % 64);
        }
    }

    fn word(&self, i: usize) -> u64 {
        self.bits.get(i).copied().unwrap_or(0)
    }

    fn clear(&mut self) {
        self.bits.fill(0);
    }
}

/// Which lines of a trie's arrays were written since the last
/// [`DirtyLines::clear`].
#[derive(Debug, Clone, Default)]
pub(crate) struct DirtyLines {
    /// Every line of every array (a whole-structure event).
    all: bool,
    direct: LineSet,
    nodes: LineSet,
}

impl DirtyLines {
    /// A set with every line marked: the state of a freshly compiled or
    /// loaded trie.
    pub(crate) fn everything() -> Self {
        DirtyLines {
            all: true,
            ..DirtyLines::default()
        }
    }

    /// Forget every mark, keeping the bitmaps' storage.
    pub(crate) fn clear(&mut self) {
        self.all = false;
        self.direct.clear();
        self.nodes.clear();
    }
}

/// The work one [`PoptrieImpl::sync_from`] did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Copied {
    /// Bytes of `direct` and `nodes` copied.
    pub(crate) bytes: usize,
    /// Whether every array was copied in full.
    pub(crate) full: bool,
}

/// Copy the lines of `src` marked in `a` or `b` into `dst` (both the same
/// length), coalescing adjacent lines into one copy. Returns the bytes
/// copied.
fn copy_lines<T: Copy>(dst: &mut [T], src: &[T], a: &LineSet, b: &LineSet) -> usize {
    let size = core::mem::size_of::<T>();
    let lines = core::mem::size_of_val(src).div_ceil(LINE_BYTES);
    let mut copied = 0;
    let mut copy = |run: Range<usize>| {
        let lo = run.start * LINE_BYTES / size;
        let hi = (run.end * LINE_BYTES).div_ceil(size).min(src.len());
        dst[lo..hi].copy_from_slice(&src[lo..hi]);
        copied += (hi - lo) * size;
    };
    let mut run: Option<Range<usize>> = None;
    for w in 0..lines.div_ceil(64) {
        let mut word = a.word(w) | b.word(w);
        while word != 0 {
            let line = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if line >= lines {
                break;
            }
            run = match run {
                Some(r) if r.end == line => Some(r.start..line + 1),
                Some(r) => {
                    copy(r);
                    Some(line..line + 1)
                }
                None => Some(line..line + 1),
            };
        }
    }
    if let Some(r) = run {
        copy(r);
    }
    copied
}

/// The one write path into a trie's arrays: each setter marks the lines
/// it writes in `dirty`.
impl<K: Bits, N: NodeRepr> PoptrieImpl<K, N> {
    pub(crate) fn set_direct(&mut self, i: usize, entry: u32) {
        self.direct[i] = entry;
        self.dirty.direct.mark::<u32>(i..i + 1);
    }

    pub(crate) fn fill_direct_slots(&mut self, slots: Range<usize>, entry: u32) {
        self.direct[slots.clone()].fill(entry);
        self.dirty.direct.mark::<u32>(slots);
    }

    pub(crate) fn set_node(&mut self, i: usize, node: N) {
        self.nodes[i] = node;
        self.dirty.nodes.mark::<N>(i..i + 1);
    }

    /// Grow the node array to exactly `len` slots.
    pub(crate) fn grow_nodes(&mut self, len: usize) {
        if len > self.nodes.len() {
            self.nodes.reserve_exact(len - self.nodes.len());
            self.nodes.resize(len, N::new(0, 1, 0, 0));
            self.dirty.all = true;
        }
    }

    /// Move this trie's write marks into `into` and start a fresh set.
    pub(crate) fn take_dirty(&mut self, into: &mut DirtyLines) {
        core::mem::swap(into, &mut self.dirty);
        self.dirty.clear();
    }

    /// A snapshot of `src`, a writer's trie, pinned on `epoch`: its arrays
    /// and scalar fields, and no node allocator or write marks (only the
    /// writer reads those).
    pub(crate) fn published_copy(&self, epoch: &Epoch) -> Self {
        PoptrieImpl {
            direct: self.direct.clone(),
            nodes: self.nodes.clone(),
            store: self.store.pinned(epoch),
            node_buddy: Buddy::new(),
            root: self.root,
            inode_count: self.inode_count,
            leaf_count: self.leaf_count,
            s: self.s,
            backend: self.backend,
            dirty: DirtyLines::default(),
            _key: core::marker::PhantomData,
        }
    }

    /// Bring `self`, a snapshot that lacks the lines of `src` marked in
    /// `stale`, up to date with `src`: copy those lines and the ones `src`
    /// marked since, then every scalar field, and re-pin `self`'s leaf
    /// store handle on `epoch` and the slab `src` reads. A whole-structure
    /// mark or a length mismatch copies the arrays in full, reusing
    /// `self`'s allocations. The node allocator and `self`'s own marks are
    /// left alone: only a writer's trie reads them.
    pub(crate) fn sync_from(&mut self, src: &Self, stale: &DirtyLines, epoch: &Epoch) -> Copied
    where
        N: PartialEq,
    {
        let full = stale.all
            || src.dirty.all
            || self.direct.len() != src.direct.len()
            || self.nodes.len() != src.nodes.len();
        let bytes = if full {
            self.direct.clone_from(&src.direct);
            self.nodes.clone_from(&src.nodes);
            src.array_bytes()
        } else {
            let (d, n) = (&src.dirty, stale);
            copy_lines(&mut self.direct, &src.direct, &d.direct, &n.direct)
                + copy_lines(&mut self.nodes, &src.nodes, &d.nodes, &n.nodes)
        };
        self.store.sync_from(&src.store, epoch);
        self.root = src.root;
        self.inode_count = src.inode_count;
        self.leaf_count = src.leaf_count;
        self.s = src.s;
        self.backend = src.backend;
        #[cfg(debug_assertions)]
        self.assert_same(src);
        Copied { bytes, full }
    }

    /// Bytes held by the `direct` and `nodes` arrays.
    pub(crate) fn array_bytes(&self) -> usize {
        core::mem::size_of_val(self.direct.as_slice())
            + core::mem::size_of_val(self.nodes.as_slice())
    }

    /// Debug-build check behind every incremental publish: `self` equals
    /// `src` byte for byte in every array and field a lookup can read. A
    /// line written without a mark fails here.
    #[cfg(debug_assertions)]
    fn assert_same(&self, src: &Self)
    where
        N: PartialEq,
    {
        fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
            if a.len() != b.len() {
                return Some(a.len().min(b.len()));
            }
            a.iter().zip(b).position(|(x, y)| x != y)
        }
        for (name, diff) in [
            ("direct", first_diff(&self.direct, &src.direct)),
            ("nodes", first_diff(&self.nodes, &src.nodes)),
        ] {
            assert!(
                diff.is_none(),
                "published {name} differs from the writer's at index {diff:?}: \
                 a write skipped its dirty mark"
            );
        }
        assert_eq!(
            (self.root, self.inode_count, self.leaf_count, self.s),
            (src.root, src.inode_count, src.leaf_count, src.s)
        );
        assert_eq!(self.backend, src.backend);
    }
}
