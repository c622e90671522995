//! # poptrie-suite
//!
//! Umbrella crate for the reproduction of *Poptrie: A Compressed Trie
//! with Population Count for Fast and Scalable Software IP Routing Table
//! Lookup* (Asai & Ohara, SIGCOMM 2015).
//!
//! This crate re-exports the whole workspace under one roof so examples,
//! integration tests and downstream users can depend on a single package:
//!
//! * [`poptrie`] — the paper's contribution: the Poptrie FIB
//!   ([`Poptrie`]), incremental updates ([`Fib`]), and the concurrent
//!   wrapper ([`poptrie::sync::SharedFib`]).
//! * [`rib`] — prefixes, the radix/Patricia RIBs and the [`Lpm`] trait.
//! * [`baselines`] — Tree BitMap, DXR and SAIL, the paper's competitors.
//! * [`tablegen`] — the Table 1 dataset synthesizer and RIB parser.
//! * [`bgp`] — RFC 4271 wire codecs and the passive-speaker session FSM.
//! * [`traffic`] — the §4.2 query patterns.
//! * [`cycles`] — TSC measurement and distribution statistics.
//!
//! ## Quick start
//!
//! ```
//! use poptrie_suite::prelude::*;
//!
//! let cfg = PoptrieConfig::new().direct_bits(18).build()?;
//! let mut fib: Fib<u32> = Fib::with_config(cfg);
//! fib.insert("192.0.2.0/24".parse()?, 1)?;
//! fib.insert("0.0.0.0/0".parse()?, 2)?;
//! assert_eq!(fib.lookup(0xC000_0263), Some(1)); // 192.0.2.99
//! assert_eq!(fib.lookup(0x0808_0808), Some(2)); // default route
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `cargo run --release -p
//! poptrie-bench --bin repro -- all` for the paper's full evaluation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// The core Poptrie crate (re-export of [`poptrie`]).
pub use poptrie;

/// RIB substrate (re-export of `poptrie-rib`).
pub use poptrie_rib as rib;

/// Bit-vector primitives (re-export of `poptrie-bitops`).
pub use poptrie_bitops as bitops;

/// Buddy allocator (re-export of `poptrie-buddy`).
pub use poptrie_buddy as buddy;

/// Dataset synthesis (re-export of `poptrie-tablegen`).
pub use poptrie_tablegen as tablegen;

/// Traffic patterns (re-export of `poptrie-traffic`).
pub use poptrie_traffic as traffic;

/// Measurement utilities (re-export of `poptrie-cycles`).
pub use poptrie_cycles as cycles;

/// Deterministic RNG (re-export of `poptrie-rng`).
pub use poptrie_rng as rng;

/// Sharded multi-core forwarding engine (re-export of `poptrie-engine`).
pub use poptrie_engine as engine;

/// Runtime telemetry primitives (re-export of `poptrie-telemetry`).
pub use poptrie_telemetry as telemetry;

/// BGP-4 wire codecs, session FSM and fault injection (re-export of
/// `poptrie-bgp`).
pub use poptrie_bgp as bgp;

/// Multi-tenant VRF multiplexing over one shared leaf store (re-export of
/// `poptrie-vrf`).
pub use poptrie_vrf as vrf;

/// One-line import of the whole suite's vocabulary: the `poptrie`
/// prelude (config builder, fallible FIB mutations, shared FIB) plus the
/// forwarding-engine and VRF types.
pub mod prelude {
    pub use poptrie::prelude::*;
    pub use poptrie::VrfId;
    pub use poptrie_engine::{
        Control, Engine, EngineConfig, EngineReport, Ingress, LatencySummary, QosPolicy,
    };
    pub use poptrie_vrf::{InternStats, VrfMemory, VrfTable};
}

/// The baseline lookup algorithms the paper compares against.
pub mod baselines {
    pub use poptrie_dir248::{Dir248, Dir248Error};
    pub use poptrie_dxr::{Dxr, Dxr6, DxrConfig, DxrError};
    pub use poptrie_lulea::{Lulea, LuleaError};
    pub use poptrie_sail::{Sail, SailError, MAX_CHUNKS as SAIL_MAX_CHUNKS};
    pub use poptrie_treebitmap::{TreeBitmap, TreeBitmap4, TreeBitmap64};
}

// The types most users need, at the root.
pub use poptrie::{Builder, Fib, Poptrie, PoptrieBasic};
pub use poptrie_rib::{LinearLpm, Lpm, NextHop, Patricia, Prefix, RadixTree};
