//! Validated construction parameters for Poptrie structures.
//!
//! Before this module, the knobs that shape a Poptrie — the
//! direct-pointing size `s` of §3.4, the §3.5 update strategy, §3's route
//! aggregation, and the node-arena reservation — were positional
//! parameters scattered across constructors (`Fib::from_rib(rib, 18,
//! false)` read as "18 what? false what?"). [`PoptrieConfig`] gathers them
//! into one validated, self-describing value:
//!
//! ```
//! use poptrie::{PoptrieConfig, UpdateStrategy};
//!
//! let cfg = PoptrieConfig::new()
//!     .direct_bits(18)
//!     .strategy(UpdateStrategy::NodeRefresh)
//!     .aggregate(false)
//!     .build()?;
//! assert_eq!(cfg.direct_bits, 18);
//! # Ok::<(), poptrie::ConfigError>(())
//! ```
//!
//! Validation happens once, in [`PoptrieConfigBuilder::build`]; every
//! consumer ([`Fib`](crate::Fib), [`SharedFib`](crate::sync::SharedFib),
//! [`Builder`](crate::Builder)) can then trust the value. The struct is
//! `#[non_exhaustive]` so future knobs (say, a §3.3 leafvec toggle) arrive
//! without breaking callers.

use core::fmt;

use crate::trie::DIRECT_LEAF_BIT;
use crate::update::UpdateStrategy;

/// Validated Poptrie construction parameters. Build one with
/// [`PoptrieConfig::new`]; read the fields directly.
///
/// The config is key-width-agnostic: the same value can compile a `u32`
/// (IPv4) and a `u128` (IPv6) structure. The one width-dependent rule —
/// `direct_bits` must be strictly below the key width — is checked where
/// the key type is known (e.g. [`Fib::with_config`](crate::Fib::with_config)).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoptrieConfig {
    /// Direct-pointing size `s` (§3.4): the top-level array has `2^s`
    /// entries. `0` disables direct pointing. The paper evaluates 16 and
    /// 18.
    pub direct_bits: u8,
    /// How incremental updates repair the structure (§3.5).
    pub strategy: UpdateStrategy,
    /// Apply §3's route aggregation during full compilation. The builder
    /// decides it while expanding the raw RIB, without an aggregated
    /// copy: a slot whose subtree resolves to one next hop becomes a leaf
    /// (the collapse of [`RadixTree::aggregated`](poptrie_rib::RadixTree::aggregated),
    /// which the tests use as the reference). Each uniformity walk stops
    /// at the first next hop that disagrees, and a subtree is walked again
    /// only at the next slot boundary below it. Incremental patches always
    /// work from the unaggregated RIB either way (the transform is
    /// semantics-preserving).
    pub aggregate: bool,
    /// Initial buddy-arena reservation for internal nodes, in slots
    /// (`0` = grow on demand). Pre-sizing avoids reallocation stalls when
    /// the final table size is known, e.g. before loading a full BGP
    /// table.
    pub node_capacity: u32,
}

impl PoptrieConfig {
    /// Start building a config from the paper's defaults: `s = 18`,
    /// [`UpdateStrategy::NodeRefresh`], aggregation on, on-demand arenas.
    // `new` deliberately returns the builder: a config can only exist
    // validated (`build()` is the sole constructor), so the fluent entry
    // point is the misuse-resistant front door, not a `Self` ctor.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> PoptrieConfigBuilder {
        PoptrieConfigBuilder {
            cfg: PoptrieConfig {
                direct_bits: 18,
                strategy: UpdateStrategy::NodeRefresh,
                aggregate: true,
                node_capacity: 0,
            },
        }
    }
}

impl Default for PoptrieConfig {
    /// The paper's defaults (always valid).
    fn default() -> Self {
        PoptrieConfig::new().build().expect("defaults are valid")
    }
}

/// Builder for [`PoptrieConfig`]; see [`PoptrieConfig::new`].
///
/// ```
/// use poptrie::{ConfigError, PoptrieConfig};
///
/// assert!(matches!(
///     PoptrieConfig::new().direct_bits(25).build(),
///     Err(ConfigError::DirectBitsTooLarge(25))
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct PoptrieConfigBuilder {
    cfg: PoptrieConfig,
}

impl PoptrieConfigBuilder {
    /// Set the direct-pointing size `s` (§3.4). Validated in
    /// [`build`](Self::build): at most 24 (a larger top-level array would
    /// leave the CPU cache, defeating the design).
    pub fn direct_bits(mut self, s: u8) -> Self {
        self.cfg.direct_bits = s;
        self
    }

    /// Select the incremental-update strategy (§3.5).
    pub fn strategy(mut self, strategy: UpdateStrategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Enable or disable §3's route aggregation for full compilation.
    pub fn aggregate(mut self, on: bool) -> Self {
        self.cfg.aggregate = on;
        self
    }

    /// Reserve `slots` internal-node arena slots up front.
    pub fn node_capacity(mut self, slots: u32) -> Self {
        self.cfg.node_capacity = slots;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<PoptrieConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.direct_bits > 24 {
            return Err(ConfigError::DirectBitsTooLarge(cfg.direct_bits));
        }
        // Node indices carry the DIRECT_LEAF_BIT tag in direct slots, so
        // the node arena must stay below 2^31 slots.
        if cfg.node_capacity >= DIRECT_LEAF_BIT {
            return Err(ConfigError::CapacityTooLarge(cfg.node_capacity));
        }
        Ok(cfg)
    }
}

/// Rejected [`PoptrieConfig`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `direct_bits` exceeds 24: the `2^s`-entry top-level array would
    /// exceed 64 MiB and fall out of cache.
    DirectBitsTooLarge(u8),
    /// The node-arena reservation reaches 2^31 slots, colliding with the
    /// direct-entry tag bit that distinguishes leaves from node indices.
    CapacityTooLarge(u32),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DirectBitsTooLarge(s) => {
                write!(f, "direct-pointing size {s} > 24 is unsupported")
            }
            ConfigError::CapacityTooLarge(n) => {
                write!(f, "arena reservation {n} reaches the 2^31 index limit")
            }
        }
    }
}

impl std::error::Error for ConfigError {}
