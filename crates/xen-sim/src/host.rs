//! The host-local far-memory tier's configuration.
//!
//! A host in the fleet owns, besides its local tmem page frames, a slab of
//! *far memory*: CXL/NVM-class capacity that is slower than a tmem hypercall
//! but far faster than the swap disk (see `CostModel::far_access`). The
//! hypervisor keeps it as a second [`tmem::TmemBackend`] whose pools mirror
//! the host's pool ids (see [`Hypervisor::set_far_tier`]). It spills
//! persistent puts there when the local backend is full, and serves gets
//! from it, exclusively, when the local lookup misses: what would have been
//! disk round-trips become fabric accesses. The tier sits outside MM
//! targets, slow reclaim, the scrubber and data-plane fault injection; it
//! is a capacity overflow valve, not a second policy domain (`DESIGN.md`
//! §6).
//!
//! [`Hypervisor::set_far_tier`]: crate::Hypervisor::set_far_tier

/// Configuration of one host's far-memory tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FarConfig {
    /// Capacity in pages. Zero disables spilling (the tier exists but never
    /// admits a page).
    pub capacity_pages: u64,
}
