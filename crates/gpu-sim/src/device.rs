//! The device catalog: the eight NVIDIA GPUs the paper evaluates (§III-B,
//! §IV-D), described by the parameters the ZKP workload is sensitive to.
//!
//! The paper's central scaling observation is that "metrics determining the
//! performance at the microarchitecture level, such as registers/thread,
//! warp size, 32-bit IMAD throughput, and the number of INT32 pipelines,
//! have been constant across several generations" — so those fields are
//! identical across the catalog, while SM count, clocks, memory bandwidth
//! and capacity vary.

/// NVIDIA GPU microarchitecture generations covered by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Architecture {
    /// Volta (V100).
    Volta,
    /// Turing (T4).
    Turing,
    /// Ampere (RTX 3090, A100, A40).
    Ampere,
    /// Ada Lovelace (L4, L40S).
    Ada,
    /// Hopper (H100).
    Hopper,
}

/// Static description of one GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"NVIDIA A40"`.
    pub name: &'static str,
    /// Microarchitecture generation.
    pub architecture: Architecture,
    /// Compute capability `(major, minor)`.
    pub compute_capability: (u32, u32),
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// SM sub-partitions (warp schedulers) per SM — 4 on every generation
    /// studied.
    pub smsp_per_sm: u32,
    /// Threads per warp (32 everywhere).
    pub warp_size: u32,
    /// INT32 ALU lanes per SMSP (16 on every generation studied: a warp's
    /// INT32 instruction occupies the pipe for two cycles).
    pub int32_lanes_per_smsp: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum registers addressable per thread.
    pub max_registers_per_thread: u32,
    /// Shared memory per SM in KiB.
    pub shared_mem_per_sm_kib: u32,
    /// L2 cache in MiB.
    pub l2_cache_mib: f64,
    /// Device memory in GiB.
    pub memory_gib: u32,
    /// Device memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Host link (PCIe/SXM) bandwidth in GB/s, one direction.
    pub pcie_bandwidth_gbs: f64,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Board power in watts.
    pub tdp_watts: f64,
    /// Whether `cp.async` hardware-asynchronous global→shared copies exist
    /// (Ampere onward) — what lets optimized MSM hide memory latency
    /// (§IV-C4).
    pub async_copy: bool,
}

impl DeviceSpec {
    /// Total INT32 lanes on the device.
    pub fn int32_lanes(&self) -> u32 {
        self.sm_count * self.smsp_per_sm * self.int32_lanes_per_smsp
    }

    /// Peak 32-bit integer throughput in GINTOP/s, counting `IMAD` as two
    /// operations (multiply + add), per NVIDIA's roofline methodology
    /// (§IV-C1).
    pub fn peak_gintops(&self) -> f64 {
        self.int32_lanes() as f64 * 2.0 * self.clock_ghz
    }
}

macro_rules! device {
    ($fn_name:ident, $name:literal, $arch:ident, $cc:expr, sm=$sm:literal,
     warps=$warps:literal, blocks=$blocks:literal, shared=$shared:literal,
     l2=$l2:literal, mem=$mem:literal, bw=$bw:literal, pcie=$pcie:literal,
     clock=$clock:literal, tdp=$tdp:literal, async_copy=$ac:literal) => {
        /// The device description (see the catalog table in the module docs).
        pub fn $fn_name() -> DeviceSpec {
            DeviceSpec {
                name: $name,
                architecture: Architecture::$arch,
                compute_capability: $cc,
                sm_count: $sm,
                smsp_per_sm: 4,
                warp_size: 32,
                int32_lanes_per_smsp: 16,
                max_warps_per_sm: $warps,
                max_blocks_per_sm: $blocks,
                registers_per_sm: 65536,
                max_registers_per_thread: 255,
                shared_mem_per_sm_kib: $shared,
                l2_cache_mib: $l2,
                memory_gib: $mem,
                mem_bandwidth_gbs: $bw,
                pcie_bandwidth_gbs: $pcie,
                clock_ghz: $clock,
                tdp_watts: $tdp,
                async_copy: $ac,
            }
        }
    };
}

device!(
    v100,
    "NVIDIA V100",
    Volta,
    (7, 0),
    sm = 80,
    warps = 64,
    blocks = 32,
    shared = 96,
    l2 = 6.0,
    mem = 32,
    bw = 900.0,
    pcie = 16.0,
    clock = 1.38,
    tdp = 300.0,
    async_copy = false
);
device!(
    t4,
    "NVIDIA T4",
    Turing,
    (7, 5),
    sm = 40,
    warps = 32,
    blocks = 16,
    shared = 64,
    l2 = 4.0,
    mem = 16,
    bw = 320.0,
    pcie = 16.0,
    clock = 1.59,
    tdp = 70.0,
    async_copy = false
);
device!(
    rtx3090,
    "NVIDIA RTX 3090",
    Ampere,
    (8, 6),
    sm = 82,
    warps = 48,
    blocks = 16,
    shared = 100,
    l2 = 6.0,
    mem = 24,
    bw = 936.0,
    pcie = 16.0,
    clock = 1.70,
    tdp = 350.0,
    async_copy = true
);
device!(
    a100,
    "NVIDIA A100",
    Ampere,
    (8, 0),
    sm = 108,
    warps = 64,
    blocks = 32,
    shared = 164,
    l2 = 40.0,
    mem = 80,
    bw = 2039.0,
    pcie = 32.0,
    clock = 1.41,
    tdp = 400.0,
    async_copy = true
);
device!(
    a40,
    "NVIDIA A40",
    Ampere,
    (8, 6),
    sm = 84,
    warps = 48,
    blocks = 16,
    shared = 100,
    l2 = 6.0,
    mem = 48,
    bw = 696.0,
    pcie = 32.0,
    clock = 1.74,
    tdp = 300.0,
    async_copy = true
);
device!(
    l4,
    "NVIDIA L4",
    Ada,
    (8, 9),
    sm = 58,
    warps = 48,
    blocks = 24,
    shared = 100,
    l2 = 48.0,
    mem = 24,
    bw = 300.0,
    pcie = 32.0,
    clock = 2.04,
    tdp = 72.0,
    async_copy = true
);
device!(
    l40s,
    "NVIDIA L40S",
    Ada,
    (8, 9),
    sm = 142,
    warps = 48,
    blocks = 24,
    shared = 100,
    l2 = 96.0,
    mem = 48,
    bw = 864.0,
    pcie = 32.0,
    clock = 2.52,
    tdp = 350.0,
    async_copy = true
);
device!(
    h100,
    "NVIDIA H100",
    Hopper,
    (9, 0),
    sm = 114,
    warps = 64,
    blocks = 32,
    shared = 228,
    l2 = 50.0,
    mem = 80,
    bw = 2000.0,
    pcie = 64.0,
    clock = 1.98,
    tdp = 350.0,
    async_copy = true
);

/// All eight devices of the §IV-D generational study, oldest first.
pub fn catalog() -> Vec<DeviceSpec> {
    vec![v100(), t4(), rtx3090(), a100(), a40(), l4(), l40s(), h100()]
}

/// Looks a device up by (case-insensitive) name fragment.
pub fn by_name(fragment: &str) -> Option<DeviceSpec> {
    let needle = fragment.to_ascii_lowercase();
    catalog()
        .into_iter()
        .find(|d| d.name.to_ascii_lowercase().contains(&needle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SmspConfig;
    use crate::scoreboard::int32_interval;

    #[test]
    fn catalog_covers_the_paper() {
        let names: Vec<_> = catalog().iter().map(|d| d.name).collect();
        for expect in [
            "V100", "T4", "RTX 3090", "A100", "A40", "L4", "L40S", "H100",
        ] {
            assert!(names.iter().any(|n| n.contains(expect)), "missing {expect}");
        }
    }

    #[test]
    fn a40_matches_paper_figures() {
        // §IV-B: "The NVIDIA A40 GPU features 84 streaming multiprocessors
        // … allowing it to run up to 10,752 threads in parallel" — the
        // paper counts 128 threads/SM there (84 × 128 = 10 752 concurrent
        // execution contexts on the INT32+FP32 units).
        let d = a40();
        assert_eq!(d.sm_count, 84);
        assert_eq!(d.sm_count * 128, 10_752);
        assert_eq!(d.memory_gib, 48);
        assert!(d.async_copy);
    }

    #[test]
    fn l40s_has_24_6_percent_more_sms_than_h100() {
        // Fig. 11a: "NVIDIA L40S (CC 8.9), with 24.6% more SMs, is 1.5x
        // faster than NVIDIA H100 (CC 9.0)".
        let ratio = l40s().sm_count as f64 / h100().sm_count as f64;
        assert!((ratio - 1.246).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn per_sm_int32_resources_constant_across_generations() {
        // The paper's key scaling finding (§IV-D).
        for d in catalog() {
            assert_eq!(d.smsp_per_sm, 4, "{}", d.name);
            assert_eq!(d.int32_lanes_per_smsp, 16, "{}", d.name);
            assert_eq!(d.warp_size, 32, "{}", d.name);
            assert_eq!(d.registers_per_sm, 65536, "{}", d.name);
            // A full warp occupies one SMSP's INT32 pipe for two cycles.
            assert_eq!(int32_interval(&SmspConfig::from(&d)), 2, "{}", d.name);
        }
    }

    #[test]
    fn newer_generations_grow_memory_not_int32() {
        let (v, h) = (v100(), h100());
        assert!(h.mem_bandwidth_gbs > 2.0 * v.mem_bandwidth_gbs);
        assert!(h.memory_gib >= 2 * v.memory_gib);
        assert!(h.l2_cache_mib > 5.0 * v.l2_cache_mib);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("a40").expect("exists").sm_count, 84);
        assert_eq!(
            by_name("H100").expect("exists").architecture,
            Architecture::Hopper
        );
        assert!(by_name("MI300").is_none());
    }

    #[test]
    fn peak_gintops_reasonable() {
        // A40: 84 SMs × 64 INT32 lanes × 2 ops × 1.74 GHz ≈ 18.7 TINTOP/s.
        let p = a40().peak_gintops();
        assert!((18_000.0..19_500.0).contains(&p), "{p}");
    }
}
