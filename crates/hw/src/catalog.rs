//! Catalog of concrete device and interconnect specifications.
//!
//! All numbers are the published figures the paper cites (Table 1 and §4.1),
//! with engine-independent efficiency factors calibrated so the simulated
//! TPC-H results reproduce the paper's *shape* (who wins, by roughly what
//! factor). The factors live here, in one place, so the calibration is
//! auditable.

use crate::link::LinkSpec;
use crate::spec::{DeviceKind, DeviceSpec};

const GIB: u64 = 1 << 30;
const GB_S: f64 = 1e9;

/// NVIDIA GH200 superchip — the Hopper GPU half (§4.1: 96 GB HBM3 @ 3 TB/s,
/// rented at $3.2/h on Lambda Labs per Table 1).
pub fn gh200_gpu() -> DeviceSpec {
    DeviceSpec {
        name: "NVIDIA GH200 (Hopper GPU)".into(),
        kind: DeviceKind::Gpu,
        cores: 16_896,
        memory_bytes: 96 * GIB,
        memory_bandwidth: 3000.0 * GB_S,
        efficiency: 0.80,
        random_access_efficiency: 0.18,
        compute_throughput: 2.0e13,
        launch_overhead_ns: 2_000,
        cost_per_hour_usd: 3.2,
    }
}

/// NVIDIA A100 40 GB (the per-node GPU of the paper's 4-node cluster:
/// 40 GB HBM @ 1.55 TB/s, PCIe4-attached).
pub fn a100_40gb() -> DeviceSpec {
    DeviceSpec {
        name: "NVIDIA A100 40GB".into(),
        kind: DeviceKind::Gpu,
        cores: 6_912,
        memory_bytes: 40 * GIB,
        memory_bandwidth: 1550.0 * GB_S,
        efficiency: 0.78,
        random_access_efficiency: 0.17,
        compute_throughput: 9.0e12,
        launch_overhead_ns: 2_500,
        cost_per_hour_usd: 1.4,
    }
}

/// Amazon m7i.16xlarge — the cost-normalized CPU instance of §4.2 (64 vCPU
/// Sapphire Rapids, $3.2/h, same hourly price as the GH200 rental). DuckDB
/// and ClickHouse run here in the single-node experiment.
pub fn m7i_16xlarge() -> DeviceSpec {
    DeviceSpec {
        name: "Amazon m7i.16xlarge (Intel Sapphire Rapids)".into(),
        kind: DeviceKind::Cpu,
        cores: 64,
        memory_bytes: 256 * GIB,
        memory_bandwidth: 320.0 * GB_S,
        efficiency: 0.65,
        random_access_efficiency: 0.10,
        compute_throughput: 6.0e11,
        launch_overhead_ns: 300,
        cost_per_hour_usd: 3.2,
    }
}

/// Amazon c6a.metal — the AMD EPYC column of Table 1 (192 vCPUs, 384 GB,
/// ~400 GB/s, $7.344/h).
pub fn c6a_metal() -> DeviceSpec {
    DeviceSpec {
        name: "Amazon c6a.metal (AMD EPYC)".into(),
        kind: DeviceKind::Cpu,
        cores: 192,
        memory_bytes: 384 * GIB,
        memory_bandwidth: 400.0 * GB_S,
        efficiency: 0.65,
        random_access_efficiency: 0.10,
        compute_throughput: 1.2e12,
        launch_overhead_ns: 300,
        cost_per_hour_usd: 7.344,
    }
}

/// Intel Xeon Gold 6526Y node CPU (the host CPU of each A100 cluster node in
/// §4.1; Doris and ClickHouse execute here in the distributed experiment).
pub fn xeon_gold_6526y() -> DeviceSpec {
    DeviceSpec {
        name: "Intel Xeon Gold 6526Y (64 cores)".into(),
        kind: DeviceKind::Cpu,
        cores: 64,
        memory_bytes: 512 * GIB,
        memory_bandwidth: 330.0 * GB_S,
        efficiency: 0.60,
        random_access_efficiency: 0.09,
        compute_throughput: 5.5e11,
        launch_overhead_ns: 300,
        cost_per_hour_usd: 2.5,
    }
}

// ---------------------------------------------------------------------------
// Interconnects (§2.1 and §4.1)
// ---------------------------------------------------------------------------

/// PCIe Gen3 x16: ~16 GB/s per direction.
pub fn pcie3_x16() -> LinkSpec {
    LinkSpec::new("PCIe Gen3 x16", 16.0 * GB_S, 5_000)
}

/// PCIe Gen4 x16: ~32 GB/s per direction (nominal).
pub fn pcie4_x16() -> LinkSpec {
    LinkSpec::new("PCIe Gen4 x16", 32.0 * GB_S, 4_000)
}

/// The A100 node attach of §4.1: "PCIe4 with 25.6 GB/s bidirectional",
/// i.e. ~12.8 GB/s per direction (an x8-equivalent slot).
pub fn pcie4_a100_attach() -> LinkSpec {
    LinkSpec::new("PCIe Gen4 (A100 attach)", 12.8 * GB_S, 4_000)
}

/// PCIe Gen6 x16: 128 GB/s (§2.1: "comparable to CPU memory bandwidth").
pub fn pcie6_x16() -> LinkSpec {
    LinkSpec::new("PCIe Gen6 x16", 128.0 * GB_S, 2_500)
}

/// NVLink-C2C: 900 GB/s bidirectional CPU↔GPU (450 GB/s per direction); the
/// GH200 host link. §2.1 notes the GPU reads host memory at >400 GB/s.
pub fn nvlink_c2c() -> LinkSpec {
    LinkSpec::new("NVLink-C2C", 450.0 * GB_S, 1_000)
}

/// InfiniBand 4×NDR: 400 Gbps ≈ 50 GB/s per direction (the cluster network
/// of §4.1).
pub fn infiniband_4xndr() -> LinkSpec {
    LinkSpec::new("InfiniBand 4xNDR", 50.0 * GB_S, 2_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_cost_parity() {
        // Table 1's punchline: the GH200 rents for no more than the CPU box.
        assert!(gh200_gpu().cost_per_hour_usd <= m7i_16xlarge().cost_per_hour_usd);
        assert!(gh200_gpu().cost_per_hour_usd < c6a_metal().cost_per_hour_usd);
    }

    #[test]
    fn bandwidth_hierarchy() {
        assert!(gh200_gpu().memory_bandwidth > a100_40gb().memory_bandwidth);
        assert!(a100_40gb().memory_bandwidth > c6a_metal().memory_bandwidth);
        assert!(nvlink_c2c().bandwidth > pcie6_x16().bandwidth);
        assert!(pcie6_x16().bandwidth > pcie4_x16().bandwidth);
    }

    #[test]
    fn gpu_memory_capacity_is_the_small_side() {
        // The paper's memory-capacity barrier: GPUs have far less capacity.
        assert!(gh200_gpu().memory_bytes < c6a_metal().memory_bytes);
        assert!(a100_40gb().memory_bytes < xeon_gold_6526y().memory_bytes);
    }

    #[test]
    fn nvlink_beats_cpu_memory_bandwidth_claim() {
        // §2.1: GH200's GPU reads host memory faster than 400 GB/s, which
        // exceeds the CPU's own memory bandwidth on the EPYC box.
        assert!(nvlink_c2c().bandwidth >= 400.0 * GB_S);
        assert!(nvlink_c2c().bandwidth > c6a_metal().memory_bandwidth);
    }
}
