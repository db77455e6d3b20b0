//! Interconnect links: PCIe, NVLink-C2C, InfiniBand, Ethernet.
//!
//! A [`Link`] is a shared handle to a static [`LinkSpec`] that prices each
//! transfer in simulated wire time. Per-link traffic volume is counted where
//! it is read: `sirius_nccl::LinkTraffic`.

use crate::cost::CostModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Static description of an interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Human-readable name, e.g. `"NVLink-C2C"`.
    pub name: String,
    /// Per-direction bandwidth in bytes per second.
    pub bandwidth: f64,
    /// One-way message latency in nanoseconds.
    pub latency_ns: u64,
}

impl LinkSpec {
    /// Construct a spec.
    pub fn new(name: impl Into<String>, bandwidth: f64, latency_ns: u64) -> Self {
        Self {
            name: name.into(),
            bandwidth,
            latency_ns,
        }
    }

    /// Wire time for a single transfer of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        CostModel::transfer_time(bytes, self.bandwidth, self.latency_ns)
    }
}

/// A live link; cloning shares the spec.
#[derive(Clone)]
pub struct Link {
    spec: Arc<LinkSpec>,
}

impl Link {
    /// Create a link from a spec.
    pub fn new(spec: LinkSpec) -> Self {
        Self {
            spec: Arc::new(spec),
        }
    }

    /// The link specification.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// The simulated wire time of a transfer of `bytes`.
    pub fn transfer(&self, bytes: u64) -> Duration {
        self.spec.transfer_time(bytes)
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("spec", &self.spec.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn transfer_accumulates_traffic() {
        let l = Link::new(catalog::infiniband_4xndr());
        let t = l.transfer(50_000_000_000);
        // 50 GB over 50 GB/s ≈ 1 s.
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01);
    }

    #[test]
    fn faster_link_faster_transfer() {
        let nv = Link::new(catalog::nvlink_c2c());
        let pcie = Link::new(catalog::pcie4_x16());
        let b = 1u64 << 30;
        assert!(nv.transfer(b) < pcie.transfer(b));
    }
}
