//! # poptrie-vrf — multi-tenant VRF multiplexing over one shared leaf store
//!
//! A hardware router running VRFs (virtual routing and forwarding) carries
//! hundreds to thousands of routing tables: one per customer VPN, per
//! internet-exchange peer class, per management plane. Most of those
//! tables are provisioned from a common base (a full BGP feed, an IGP
//! core) plus a small per-tenant delta — so compiled independently, the
//! FIBs are overwhelmingly *byte-identical*, and the per-table memory of a
//! naive deployment scales with tenants instead of with distinct routes.
//!
//! This crate multiplexes many [`SharedFib`]s over one
//! [`LeafStore`](poptrie::LeafStore): [`VrfTable`] is the registry, with
//! [`VrfId`]-indexed creation and access to per-tenant [`SharedFib`]s,
//! each compiled into the group's store, plus group-wide memory and
//! interning accounting and an exact cross-table audit. The store
//! interns leaf blocks by content, counts their references across
//! tenants, grows by swapping in a larger slab, and reclaims an extent
//! only once no pinned snapshot can still see it (see `poptrie`'s
//! `leaf_store` module).
//!
//! Only *leaf* storage is shared. Node arrays and direct tables stay
//! private per tenant: structural isolation is what keeps one tenant's
//! churn invisible to another's readers, and per-tenant snapshot clones
//! stay proportional to that tenant's own table. Leaves are where the
//! redundancy lives (identical next-hop blocks recur across every tenant
//! cloned from the same base), and leaves are what interning collapses.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod table;

#[cfg(test)]
mod tests;

pub use table::{VrfMemory, VrfTable};

pub use poptrie::InternStats;

pub use poptrie::sync::SharedFib;
pub use poptrie::VrfId;
