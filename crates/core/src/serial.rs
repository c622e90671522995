//! Binary serialization of a compiled Poptrie.
//!
//! A compiled FIB is three flat arrays plus a few scalars — the direct
//! table, the nodes and the slots of its leaf store — so it serializes
//! naturally: routers can compile once (or receive a compiled
//! FIB from a route server) and map it in at startup instead of paying
//! the §3.5 compilation cost. The format is explicit little-endian with a
//! magic, a version, the key width and node layout (so a `Poptrie<u32>`
//! blob cannot be loaded as `Poptrie<u128>` or `PoptrieBasic`), and an
//! FNV-1a checksum over the payload.
//!
//! A deserialized structure is a fully functional *read-only* FIB: the
//! buddy-allocator bookkeeping that incremental update relies on is not
//! part of the format (block provenance is not recoverable from the
//! arrays), so route changes require recompiling through
//! [`Fib`](crate::Fib). Lookup behaviour round-trips exactly — see the
//! `ranges()`-equality tests.
//!
//! ```
//! use poptrie::{Poptrie, RadixTree};
//!
//! let mut rib: RadixTree<u32, u16> = RadixTree::new();
//! rib.insert("10.0.0.0/8".parse().unwrap(), 1);
//! let fib: Poptrie<u32> = Poptrie::builder().build(&rib);
//! let bytes = fib.to_bytes();
//! let loaded: Poptrie<u32> = Poptrie::from_bytes(&bytes).unwrap();
//! assert_eq!(loaded.lookup(0x0A00_0001), Some(1));
//! ```

use poptrie_bitops::Bits;
use poptrie_buddy::Buddy;
use poptrie_rib::NextHop;

use crate::leaf_store::LeafStore;
use crate::node::NodeRepr;
use crate::trie::PoptrieImpl;

/// Format magic: "PTRI".
const MAGIC: [u8; 4] = *b"PTRI";
/// Format version.
const VERSION: u16 = 1;

/// Deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// Not a Poptrie blob (bad magic) or newer format version.
    BadHeader(String),
    /// The blob is for a different key width or node layout.
    WrongShape {
        /// What the blob holds.
        found: String,
        /// What the caller asked for.
        expected: String,
    },
    /// The blob is shorter than its own length fields claim.
    Truncated,
    /// The payload checksum does not match.
    ChecksumMismatch,
    /// The arrays fail structural validation.
    Corrupt(String),
}

impl core::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SerializeError::BadHeader(m) => write!(f, "bad header: {m}"),
            SerializeError::WrongShape { found, expected } => {
                write!(f, "blob holds {found}, expected {expected}")
            }
            SerializeError::Truncated => write!(f, "blob truncated"),
            SerializeError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            SerializeError::Corrupt(m) => write!(f, "structural validation failed: {m}"),
        }
    }
}

impl std::error::Error for SerializeError {}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SerializeError> {
        if self.data.len() - self.pos < n {
            return Err(SerializeError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, SerializeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SerializeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, SerializeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, SerializeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

impl<K: Bits, N: NodeRepr> PoptrieImpl<K, N> {
    /// Serialize the compiled FIB to a self-describing binary blob. The
    /// leaves are the slots of the slab the trie reads, so the blob of a
    /// VRF tenant carries its whole group's slab.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Writer { out: Vec::new() };
        payload.u8(self.s);
        payload.u32(self.root);
        payload.u64(self.inode_count as u64);
        payload.u64(self.leaf_count as u64);
        payload.u64(self.direct.len() as u64);
        for &d in &self.direct {
            payload.u32(d);
        }
        // Nodes as raw fields through the trait (portable across layouts).
        payload.u64(self.nodes.len() as u64);
        for n in &self.nodes {
            payload.u64(n.vector());
            if N::COMPRESSES_LEAVES {
                payload.u64(node_leafvec(n));
            }
            payload.u32(n.base0());
            payload.u32(n.base1());
        }
        payload.u64(self.leaf_slots() as u64);
        for i in 0..self.leaf_slots() {
            payload.u16(self.leaf_at(i));
        }

        let mut out = Writer { out: Vec::new() };
        out.out.extend_from_slice(&MAGIC);
        out.u16(VERSION);
        out.u16(K::BITS as u16);
        out.u8(if N::COMPRESSES_LEAVES { 24 } else { 16 });
        out.u8(0); // reserved
        out.u64(fnv1a(&payload.out));
        out.out.extend_from_slice(&payload.out);
        out.out
    }

    /// Deserialize a blob produced by [`PoptrieImpl::to_bytes`] for the
    /// same key width and node layout. The result is validated with
    /// [`PoptrieImpl::check_invariants`] before being returned.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SerializeError> {
        let mut r = Reader {
            data: bytes,
            pos: 0,
        };
        if r.take(4)? != MAGIC {
            return Err(SerializeError::BadHeader("bad magic".into()));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(SerializeError::BadHeader(format!(
                "unsupported version {version}"
            )));
        }
        let key_bits = r.u16()?;
        let node_size = r.u8()?;
        let _reserved = r.u8()?;
        let expected_size = if N::COMPRESSES_LEAVES { 24 } else { 16 };
        if key_bits as u32 != K::BITS || node_size != expected_size {
            return Err(SerializeError::WrongShape {
                found: format!("{key_bits}-bit keys, {node_size}-byte nodes"),
                expected: format!("{}-bit keys, {expected_size}-byte nodes", K::BITS),
            });
        }
        let checksum = r.u64()?;
        if fnv1a(&bytes[r.pos..]) != checksum {
            return Err(SerializeError::ChecksumMismatch);
        }

        let s = r.u8()?;
        // The builder's bounds on `s` (see `Builder::direct_bits`): every
        // shift by `s` and the unchecked direct-table read rely on them.
        if s > 24 || s as u32 >= K::BITS {
            return Err(SerializeError::Corrupt(format!(
                "direct-pointing size {s} out of range for {}-bit keys",
                K::BITS
            )));
        }
        let root = r.u32()?;
        let inode_count = r.u64()? as usize;
        let leaf_count = r.u64()? as usize;
        // Bound every element count by the bytes actually present before
        // allocating, so a crafted header cannot demand a huge buffer.
        let bounded =
            |count: u64, elem_bytes: usize, r: &Reader<'_>| -> Result<usize, SerializeError> {
                let remaining = r.data.len() - r.pos;
                if (count as u128) * (elem_bytes as u128) > remaining as u128 {
                    return Err(SerializeError::Truncated);
                }
                Ok(count as usize)
            };
        let ndirect = {
            let c = r.u64()?;
            bounded(c, 4, &r)?
        };
        let mut direct = Vec::with_capacity(ndirect);
        for _ in 0..ndirect {
            direct.push(r.u32()?);
        }
        let node_bytes = if N::COMPRESSES_LEAVES { 24 } else { 16 };
        let nnodes = {
            let c = r.u64()?;
            bounded(c, node_bytes, &r)?
        };
        let mut nodes = Vec::with_capacity(nnodes);
        for _ in 0..nnodes {
            let vector = r.u64()?;
            let leafvec = if N::COMPRESSES_LEAVES { r.u64()? } else { 0 };
            let base0 = r.u32()?;
            let base1 = r.u32()?;
            nodes.push(N::new(vector, leafvec, base0, base1));
        }
        let nleaves = {
            let c = r.u64()?;
            bounded(c, 2, &r)?
        };
        let mut leaves: Vec<NextHop> = Vec::with_capacity(nleaves);
        for _ in 0..nleaves {
            let b = r.take(2)?;
            leaves.push(u16::from_le_bytes([b[0], b[1]]));
        }

        // Reconstruct an inert node allocator covering the array and a
        // leaf store of exactly the loaded slots: a loaded FIB is
        // read-only (see the module docs), so only capacity matters.
        let node_buddy = sized_buddy(nodes.len());
        let trie = PoptrieImpl {
            direct,
            nodes,
            store: LeafStore::loaded(&leaves),
            node_buddy,
            root,
            inode_count,
            leaf_count,
            s,
            // Serialized images carry no backend: the tier is a property
            // of the loading host's CPU, re-detected at every load.
            backend: poptrie_bitops::BatchBackend::detect(),
            dirty: crate::dirty::DirtyLines::everything(),
            _key: core::marker::PhantomData,
        };
        trie.check_invariants().map_err(SerializeError::Corrupt)?;
        Ok(trie)
    }
}

/// An allocator whose whole capacity is marked in use.
fn sized_buddy(len: usize) -> Buddy {
    let mut b = Buddy::new();
    if len > 0 {
        b.alloc(len as u32);
    }
    b
}

/// Read a node's leafvec through its concrete layout. `NodeRepr` does not
/// expose the raw leafvec (the 16-byte layout has none), so recover it
/// from `leaf_rank`: bit `v` of the leafvec is set iff the rank increases
/// at `v`.
pub(crate) fn node_leafvec<N: NodeRepr>(n: &N) -> u64 {
    let mut leafvec = 0u64;
    let mut prev = 0;
    for v in 0..64 {
        let r = n.leaf_rank(v);
        if r > prev {
            leafvec |= 1 << v;
        }
        prev = r;
    }
    leafvec
}
