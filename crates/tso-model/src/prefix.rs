//! Inert names of the deleted prefix-certificate tier, which replayed a
//! searched program's complete leaves for a sibling equal up to per-RMW
//! atomicity. The verdict cache's one fresh search per miss
//! ([`crate::cache`]) answers every query now.
//!
//! Every item here is kept for perfbench; removed by ROADMAP item 2's
//! benchmark-kind PR. Nothing in the model calls [`CertificateStore`],
//! [`set_store`] drops what it is given, and [`counters`] reads zero.

use std::sync::Arc;

/// A certificate in exchange form. Kept for perfbench; removed by ROADMAP
/// item 2's benchmark-kind PR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertData;

/// A persistent certificate backend that nothing calls. Kept for
/// perfbench; removed by ROADMAP item 2's benchmark-kind PR.
pub trait CertificateStore: Send + Sync {
    /// Returns the persisted certificate for `masked_key`, if any.
    fn load_cert(&self, masked_key: &[u64]) -> Option<CertData>;

    /// Persists a certificate.
    fn save_cert(&self, masked_key: &[u64], fingerprint: u64, cert: &CertData);
}

/// Drops `store`. Kept for perfbench; removed by ROADMAP item 2's
/// benchmark-kind PR.
pub fn set_store(store: Arc<dyn CertificateStore>) {
    drop(store);
}

/// Returns `None`. Kept for perfbench; removed by ROADMAP item 2's
/// benchmark-kind PR.
pub fn take_store() -> Option<Arc<dyn CertificateStore>> {
    None
}

/// Does nothing. Kept for perfbench; removed by ROADMAP item 2's
/// benchmark-kind PR.
pub fn clear() {}

/// The certificate counters, all zero. Kept for perfbench; removed by
/// ROADMAP item 2's benchmark-kind PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixCounters {
    /// Certificate-tier queries: always 0.
    pub queries: u64,
}

/// Returns zeroed counters. Kept for perfbench; removed by ROADMAP item
/// 2's benchmark-kind PR.
pub fn counters() -> PrefixCounters {
    PrefixCounters::default()
}
