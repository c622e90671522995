//! The typed tenant identifier shared by the engine and the VRF layer.
//!
//! A raw `usize` index would let any integer stand in for a tenant at
//! every call site. [`VrfId`] names a table of a `VrfTable` registry, so
//! the only check left at runtime is whether the id belongs to *this*
//! registry.

/// A virtual routing table (VRF) in a `VrfTable` registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VrfId(u32);

impl VrfId {
    /// The VRF at registry slot `index`.
    pub const fn new(index: u32) -> Self {
        VrfId(index)
    }

    /// The registry slot index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for VrfId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "vrf#{}", self.0)
    }
}
