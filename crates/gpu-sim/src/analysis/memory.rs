//! Static memory-access analysis: coalescing classification, per-warp
//! transaction/byte prediction, memory lints, and the static side of the
//! roofline — no execution required.
//!
//! ZKProphet's roofline and stall results (Fig. 9, Fig. 10) hinge on how
//! each kernel's `LDG`/`STG` map to 32-byte DRAM sectors, and SZKP
//! identifies scattered bucket access as *the* scaling limiter for MSM.
//! This pass makes those properties provable before a single cycle is
//! simulated:
//!
//! - every global access is classified via the affine address domain of
//!   [`crate::analysis::addr`] (coalesced / strided(k) / broadcast /
//!   unprovable); an access the domain cannot prove affine is charged one
//!   sector per lane, the most a warp access can touch;
//! - per-warp 32B-sector transaction counts and bytes moved are predicted
//!   with the *same* sector rule [`crate::machine`] measures, so a
//!   differential test can pin static-vs-simulated traffic exactly for
//!   affine kernels;
//! - [`MemoryAnalysis::mem_timings`] exports per-access LSU wavefront
//!   counts that [`crate::analysis::schedule::predict_schedule`]
//!   consumes, scaling Long-Scoreboard stall prediction with serialized
//!   transactions;
//! - static arithmetic intensity (INT32 ops per DRAM byte) places the
//!   kernel on the roofline per device via
//!   [`crate::roofline::Roofline::place_static`];
//! - one memory lint rides on the classification:
//!   [`LintKind::UncoalescedAccess`] for every strided or unprovably
//!   scattered access.
//!
//! The lint is deliberately *not* part of [`crate::analysis::lint`]:
//! strided access is a performance finding, not a correctness bug, and
//! handwritten AoS kernels (the realistic SZKP-style scattered case) must
//! stay buildable while still being reported. Which loads are redundant
//! and which stores are dead is the verified optimizer's question, not
//! this module's: [`crate::analysis::opt`]'s CSE and DSE answer it and
//! report the counts as `loads_eliminated` / `stores_eliminated`.

use crate::analysis::addr::{affine_sectors, analyze_addresses, AccessPattern, MemContracts};
use crate::analysis::cfg::Cfg;
use crate::analysis::lints::{Diagnostic, LintKind};
use crate::analysis::schedule::{build_trace, MemTimings, ScheduleHints, TRACE_LIMIT};
use crate::isa::{Instr, Program, Reg};
use crate::machine::{wavefronts_for, SmspConfig, SECTOR_BYTES};

/// One global access as the static analysis sees it.
#[derive(Debug, Clone)]
pub struct AccessReport {
    /// The `LDG`/`STG` this report describes.
    pub pc: usize,
    /// `true` for `LDG`, `false` for `STG`.
    pub is_load: bool,
    /// Warp-level pattern classification.
    pub pattern: AccessPattern,
    /// Exact per-warp 32B sectors when the address is provably affine.
    pub sectors: Option<u32>,
    /// The sector count used for traffic and timing: the exact count when
    /// affine, otherwise one sector per lane (the warp size).
    pub sectors_bound: u32,
    /// LSU wavefronts (issue-port cycles) per execution.
    pub wavefronts: u64,
    /// How many times one warp executes this access (static trace
    /// multiplicity; 0 when the trace provably skips it).
    pub executions: u64,
}

/// The static memory analysis of one kernel.
#[derive(Debug, Clone)]
pub struct MemoryAnalysis {
    /// Per-access reports in program order.
    pub accesses: Vec<AccessReport>,
    /// Memory lints: one [`LintKind::UncoalescedAccess`] per strided or
    /// unprovably scattered access, in program order.
    pub lints: Vec<Diagnostic>,
    /// `true` when every access is provably affine *and* the execution
    /// trace resolved — the traffic prediction is then exact, not a bound.
    pub exact: bool,
    /// Whether the static trace resolved (multiplicities are exact).
    pub trace_exact: bool,
    /// Predicted 32B-sector transactions per warp over the whole kernel.
    pub transactions_per_warp: u64,
    /// Predicted DRAM bytes loaded per warp.
    pub bytes_loaded_per_warp: u64,
    /// Predicted DRAM bytes stored per warp.
    pub bytes_stored_per_warp: u64,
    /// Static INT32-pipe operations per warp (IMAD weighted 2, all lanes):
    /// the simulator's `int_ops` for full warps.
    pub int_ops_per_warp: u64,
}

impl MemoryAnalysis {
    /// Total predicted DRAM bytes per warp.
    pub fn bytes_per_warp(&self) -> u64 {
        self.bytes_loaded_per_warp + self.bytes_stored_per_warp
    }

    /// Static arithmetic intensity: INT32 ops per DRAM byte. Infinite for
    /// a kernel that touches no memory.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.bytes_per_warp();
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.int_ops_per_warp as f64 / bytes as f64
    }

    /// Per-access wavefront table for [`predict_schedule`], so the
    /// static scoreboard charges each access its serialized transactions.
    ///
    /// [`predict_schedule`]: crate::analysis::schedule::predict_schedule
    pub fn mem_timings(&self) -> MemTimings {
        self.accesses.iter().map(|a| (a.pc, a.wavefronts)).collect()
    }

    /// Renders the analysis as a JSON object (schema-stable: the CI smoke
    /// step asserts these keys for every kernel in the zoo).
    pub fn to_json(&self) -> String {
        let accesses: Vec<String> = self
            .accesses
            .iter()
            .map(|a| {
                format!(
                    "{{\"pc\":{},\"kind\":\"{}\",\"pattern\":\"{}\",\"sectors\":{},\
                     \"sectors_bound\":{},\"wavefronts\":{},\"executions\":{}}}",
                    a.pc,
                    if a.is_load { "load" } else { "store" },
                    a.pattern.label(),
                    match a.sectors {
                        Some(s) => s.to_string(),
                        None => "null".to_string(),
                    },
                    a.sectors_bound,
                    a.wavefronts,
                    a.executions
                )
            })
            .collect();
        let lints: Vec<String> = self
            .lints
            .iter()
            .map(|d| format!("\"{d}\"").replace('\n', " "))
            .collect();
        format!(
            "{{\"exact\":{},\"transactions_per_warp\":{},\"bytes_loaded_per_warp\":{},\
             \"bytes_stored_per_warp\":{},\"int_ops_per_warp\":{},\
             \"arithmetic_intensity\":{:.6},\"accesses\":[{}],\"lints\":[{}]}}",
            self.exact,
            self.transactions_per_warp,
            self.bytes_loaded_per_warp,
            self.bytes_stored_per_warp,
            self.int_ops_per_warp,
            self.arithmetic_intensity(),
            accesses.join(","),
            lints.join(",")
        )
    }
}

/// Runs the full static memory analysis of `program`.
///
/// `inputs` are the declared entry registers, `contracts` the declared
/// address contracts ([`MemContracts`]), and `hints` the branch hints that
/// resolve loop trip counts for the traffic totals.
pub fn analyze_memory(
    program: &Program,
    inputs: &[Reg],
    contracts: &MemContracts,
    hints: &ScheduleHints,
    config: &SmspConfig,
) -> MemoryAnalysis {
    let cfg = Cfg::build(program);
    let addrs = analyze_addresses(program, &cfg, contracts, inputs);
    let warp_size = config.warp_size;

    // Per-access classification and sector counts.
    let mut accesses: Vec<AccessReport> = Vec::new();
    for &(pc, val) in &addrs.accesses {
        let (is_load, offset) = match program.fetch(pc) {
            Instr::Ldg { offset, .. } => (true, offset),
            Instr::Stg { offset, .. } => (false, offset),
            _ => continue,
        };
        let pattern = AccessPattern::of(val);
        let sectors = affine_sectors(val, offset, warp_size);
        let sectors_bound = sectors.unwrap_or(warp_size);
        accesses.push(AccessReport {
            pc,
            is_load,
            pattern,
            sectors,
            sectors_bound,
            wavefronts: wavefronts_for(sectors_bound, config.lsu_sectors_per_cycle),
            executions: 0,
        });
    }

    // Execution multiplicities from the static trace (exact when the
    // hints resolve every branch; otherwise once per reachable access).
    let trace = build_trace(program, hints, TRACE_LIMIT);
    let trace_exact = trace.is_ok();
    let mut int_ops_per_warp = 0u64;
    match &trace {
        Ok(trace) => {
            for &pc in trace {
                int_ops_per_warp += program.fetch(pc).int_ops() * u64::from(warp_size);
                if let Some(a) = accesses.iter_mut().find(|a| a.pc == pc) {
                    a.executions += 1;
                }
            }
        }
        Err(_) => {
            for a in &mut accesses {
                a.executions = 1;
            }
            for pc in 0..program.len() {
                if cfg.reachable[cfg.block_of[pc]] {
                    int_ops_per_warp += program.fetch(pc).int_ops() * u64::from(warp_size);
                }
            }
        }
    }

    // Traffic totals.
    let mut transactions = 0u64;
    let mut bytes_loaded = 0u64;
    let mut bytes_stored = 0u64;
    for a in &accesses {
        let t = u64::from(a.sectors_bound) * a.executions;
        transactions += t;
        if a.is_load {
            bytes_loaded += t * SECTOR_BYTES;
        } else {
            bytes_stored += t * SECTOR_BYTES;
        }
    }

    let lints = uncoalesced_lints(&accesses);
    let exact = trace_exact && accesses.iter().all(|a| a.sectors.is_some());
    MemoryAnalysis {
        accesses,
        lints,
        exact,
        trace_exact,
        transactions_per_warp: transactions,
        bytes_loaded_per_warp: bytes_loaded,
        bytes_stored_per_warp: bytes_stored,
        int_ops_per_warp,
    }
}

fn uncoalesced_lints(accesses: &[AccessReport]) -> Vec<Diagnostic> {
    let mut lints = Vec::new();
    for a in accesses {
        let message = match a.pattern {
            AccessPattern::Broadcast | AccessPattern::Coalesced => continue,
            AccessPattern::Strided(k) => format!(
                "{} has lane stride {k} words: {} sectors/warp where a coalesced layout needs 4",
                if a.is_load { "load" } else { "store" },
                a.sectors_bound
            ),
            AccessPattern::Unprovable => format!(
                "{} address is not provably affine in the lane id: \
                 scattered as far as the analyzer can tell (bound: {} sectors/warp)",
                if a.is_load { "load" } else { "store" },
                a.sectors_bound
            ),
        };
        lints.push(Diagnostic::new(LintKind::UncoalescedAccess, a.pc, message));
    }
    lints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{ProgramBuilder, Src};
    use crate::machine::{Machine, WarpInit};

    fn cfg() -> SmspConfig {
        SmspConfig::default()
    }

    fn contracts1() -> MemContracts {
        let mut c = MemContracts::new();
        c.declare(1, 1, 32);
        c
    }

    #[test]
    fn coalesced_kernel_is_exact_and_lint_free() {
        // Four coalesced loads, one coalesced store, through contract r1.
        let mut b = ProgramBuilder::new();
        for j in 0..4u16 {
            b.ldg(10 + j, 1, u32::from(j) * 32);
        }
        b.iadd3(20, Src::Reg(10), Src::Reg(11), Src::Imm(0), false, false);
        b.stg(20, 1, 128);
        b.exit();
        let p = b.build();
        let m = analyze_memory(&p, &[1], &contracts1(), &ScheduleHints::default(), &cfg());
        assert!(m.exact);
        assert!(m.lints.is_empty(), "{:?}", m.lints);
        assert_eq!(m.transactions_per_warp, 5 * 4); // 5 accesses × 4 sectors
        assert_eq!(m.bytes_loaded_per_warp, 4 * 4 * 32);
        assert_eq!(m.bytes_stored_per_warp, 4 * 32);
        assert!(m
            .accesses
            .iter()
            .all(|a| a.pattern == AccessPattern::Coalesced && a.wavefronts == 1));
    }

    #[test]
    fn static_traffic_matches_simulator_for_affine_patterns() {
        // Strides 0 (broadcast), 1 (coalesced), 3, 8 — static prediction
        // must equal measured sectors exactly, per warp.
        for stride in [0u32, 1, 3, 8] {
            let mut b = ProgramBuilder::new();
            b.ldg(10, 1, 5);
            b.stg(10, 2, 9);
            b.exit();
            let p = b.build();
            let mut contracts = MemContracts::new();
            contracts.declare(1, stride, 32);
            contracts.declare(2, stride, 32);
            let m = analyze_memory(&p, &[1, 2], &contracts, &ScheduleHints::default(), &cfg());
            assert!(m.exact);

            let mut machine = Machine::new(cfg(), 4096);
            let mut init = WarpInit::default();
            let mut a1 = [0u32; 32];
            let mut a2 = [0u32; 32];
            for t in 0..32u32 {
                a1[t as usize] = stride * t + 64; // base 64 ≡ 0 mod 8
                a2[t as usize] = stride * t + 2048;
            }
            init.per_thread(1, a1);
            init.per_thread(2, a2);
            let r = machine.run(&p, &[init]);
            assert_eq!(
                m.transactions_per_warp, r.mem_transactions,
                "stride {stride}"
            );
            assert_eq!(m.bytes_loaded_per_warp, r.dram_bytes_loaded);
            assert_eq!(m.bytes_stored_per_warp, r.dram_bytes_stored);
            assert_eq!(m.int_ops_per_warp, r.int_ops);
        }
    }

    #[test]
    fn scattered_gather_lints_and_is_unprovable() {
        // Load an index, then gather through it: the second load's address
        // is data-dependent, hence unprovable.
        let mut b = ProgramBuilder::new();
        b.ldg(10, 1, 0);
        b.ldg(11, 10, 0);
        b.stg(11, 2, 0);
        b.exit();
        let p = b.build();
        let mut contracts = MemContracts::new();
        contracts.declare(1, 1, 32);
        contracts.declare(2, 1, 32);
        let m = analyze_memory(&p, &[1, 2], &contracts, &ScheduleHints::default(), &cfg());
        assert!(!m.exact);
        let gather = m.accesses.iter().find(|a| a.pc == 1).unwrap();
        assert_eq!(gather.pattern, AccessPattern::Unprovable);
        assert_eq!(gather.sectors, None);
        assert_eq!(gather.sectors_bound, cfg().warp_size);
        assert!(m
            .lints
            .iter()
            .any(|d| d.kind == LintKind::UncoalescedAccess && d.pc == 1));
    }

    #[test]
    fn json_has_stable_schema() {
        let mut b = ProgramBuilder::new();
        b.ldg(10, 1, 0);
        b.stg(10, 1, 32);
        b.exit();
        let p = b.build();
        let m = analyze_memory(&p, &[1], &contracts1(), &ScheduleHints::default(), &cfg());
        let j = m.to_json();
        for key in [
            "\"exact\"",
            "\"transactions_per_warp\"",
            "\"bytes_loaded_per_warp\"",
            "\"bytes_stored_per_warp\"",
            "\"int_ops_per_warp\"",
            "\"arithmetic_intensity\"",
            "\"accesses\"",
            "\"pattern\"",
            "\"lints\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
