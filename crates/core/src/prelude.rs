//! One-line import of the Poptrie vocabulary.
//!
//! The workspace's public surface spans several modules (the trie itself,
//! the config builder, the fallible update API, the concurrent wrapper,
//! and the `poptrie-rib` vocabulary types it builds on). The prelude
//! re-exports the names nearly every consumer touches, so application
//! code starts with a single glob:
//!
//! ```
//! use poptrie::prelude::*;
//!
//! let cfg = PoptrieConfig::new().direct_bits(16).build()?;
//! let mut fib: Fib<u32> = Fib::with_config(cfg);
//! fib.insert("10.0.0.0/8".parse()?, 1)?;
//! assert_eq!(fib.poptrie().lookup(0x0A00_0001), Some(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Deliberately excluded: internal node representations
//! ([`Node16`](crate::Node16)/[`Node24`](crate::Node24)), the audit and
//! serialization modules, and anything deprecated — the prelude is the
//! blessed surface, not the whole crate.

pub use crate::builder::Builder;
pub use crate::config::{ConfigError, PoptrieConfig, PoptrieConfigBuilder};
pub use crate::sync::{BatchOutcome, FibSnapshot, PublishStats, RouteUpdate, SharedFib};
pub use crate::trie::{Poptrie, PoptrieBasic, PoptrieStats};
pub use crate::update::{Applied, Fib, UpdateError, UpdateStats, UpdateStrategy};

pub use poptrie_rib::{Bits, Lpm, NextHop, Prefix, PrefixError, RadixTree, NO_ROUTE};
