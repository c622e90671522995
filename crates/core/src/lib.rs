//! # Poptrie
//!
//! A Rust implementation of **Poptrie** — the compressed multiway trie with
//! population-count indexing for fast and scalable software IP routing
//! table lookup, from Hirochika Asai and Yasuhiro Ohara, *SIGCOMM 2015*.
//!
//! Poptrie is a 64-ary trie (`k = 6`): each internal node consumes six bits
//! of the destination address. Instead of a 64-pointer child array, a node
//! stores
//!
//! * `vector` — a 64-bit vector whose `n`-th bit says whether the child for
//!   chunk value `n` is an internal node (`1`) or a leaf (`0`);
//! * `base1` — the index of the node's first child in one flat, contiguous
//!   internal-node array; the child for chunk `n` lives at
//!   `base1 + popcnt(vector & low_bits(n+1)) - 1`;
//! * `leafvec` + `base0` — the same trick for leaves, with runs of
//!   identical adjacent leaves compressed to a single slot (§3.3);
//!
//! so a node is 24 bytes (16 without the leafvec extension) and an entire
//! BGP full table fits comfortably inside the CPU cache — the property the
//! paper credits for its 200+ Mlps single-core lookup rates.
//!
//! ## Quick start
//!
//! ```
//! use poptrie::Poptrie;
//! use poptrie_rib::{Prefix, RadixTree};
//!
//! // Build a RIB, then compile it into a Poptrie FIB.
//! let mut rib: RadixTree<u32, u16> = RadixTree::new();
//! rib.insert("10.0.0.0/8".parse().unwrap(), 1);
//! rib.insert("10.64.0.0/16".parse().unwrap(), 2);
//!
//! let fib: Poptrie<u32> = Poptrie::builder().direct_bits(18).build(&rib);
//! assert_eq!(fib.lookup(0x0A40_0001), Some(2)); // 10.64.0.1
//! assert_eq!(fib.lookup(0x0A00_0001), Some(1)); // 10.0.0.1
//! assert_eq!(fib.lookup(0x0B00_0001), None);    // 11.0.0.1
//! ```
//!
//! ## Crate layout
//!
//! * [`Poptrie`] / [`PoptrieBasic`] — the lookup structure, with
//!   ([`Poptrie`]) and without ([`PoptrieBasic`]) the leaf bit-vector
//!   compression of §3.3. Both are generic over the key width: `u32` for
//!   IPv4 and `u128` for IPv6 (§4.10).
//! * [`Builder`] — compilation from a [`RadixTree`] RIB, with the paper's
//!   options: direct pointing size `s` (§3.4) and route aggregation (§3).
//! * [`Fib`] — a RIB + Poptrie pair supporting the incremental update of
//!   §3.5: a route change surgically rebuilds only the affected subtree
//!   through the buddy allocator.
//! * [`sync::SharedFib`] — a concurrent wrapper: lock-free readers via
//!   epoch-based RCU, serialized writers (§3.5's lock-free update model).
//!
//! [`RadixTree`]: poptrie_rib::RadixTree

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
#[cfg(target_arch = "x86_64")]
mod batch_simd;
pub mod builder;
pub mod config;
mod dirty;
pub mod ids;
pub mod node;
pub mod prelude;
pub mod serial;
pub mod shared_leaves;
pub mod sync;
#[cfg(feature = "observe")]
pub mod telemetry;
pub mod trie;
pub mod update;

pub use audit::AuditReport;
pub use builder::Builder;
pub use config::{ConfigError, PoptrieConfig, PoptrieConfigBuilder};
pub use ids::{SourceId, VrfId};
pub use node::{Node16, Node24, NodeRepr};
pub use poptrie_bitops::BatchBackend;
pub use serial::SerializeError;
pub use shared_leaves::{EpochGuard, LeafInterner, LeafStoreHandle, SharedLeaves};
pub use trie::{Poptrie, PoptrieBasic, PoptrieStats, BATCH_LANES};
pub use update::{Applied, Fib, UpdateError, UpdateStats, UpdateStrategy};

// Re-export the vocabulary types callers need.
pub use poptrie_rib::{Lpm, NextHop, Prefix, PrefixError, RadixTree, NO_ROUTE};

#[cfg(test)]
mod tests;
