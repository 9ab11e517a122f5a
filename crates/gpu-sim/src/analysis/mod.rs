//! Static analysis of micro-ISA programs: CFG, dataflow, lints, metrics.
//!
//! ZKProphet's kernel-layer results rest on static analysis of real SASS —
//! instruction mix (Table VI: `FF_mul` ≈ 70.8% `IMAD`), register pressure
//! (MSM kernels at 228–244 registers/thread), and the dependence structure
//! of carry chains (Obs. 4). This module computes the same properties for
//! our [`Program`]s, and adds the correctness gate real compilers provide
//! and `ProgramBuilder` kernels otherwise lack:
//!
//! - [`cfg::Cfg`] — basic blocks, branch/reconvergence edges, reachability;
//! - [`dataflow`] — backward liveness and forward reaching definitions over
//!   registers, predicates, and the carry flag;
//! - [`lints`] — uninitialized reads, dangling carries, dead writes,
//!   out-of-range branches, unreachable code, missing `EXIT`;
//! - [`metrics::StaticMetrics`] — mix, INT32-pipe share, inferred register
//!   pressure, dependence-chain depth;
//! - [`schedule`] — static scoreboard scheduling: simulator-free prediction
//!   of issue cycles, the Fig. 10 stall taxonomy, critical path, per-pipe
//!   utilization, and ILP headroom, validated against [`crate::machine`];
//! - [`ranges`] — value-range abstract interpretation over 32-bit limbs,
//!   carry flags, and predicates, proving overflow-freedom and `< 2p`
//!   Montgomery output bounds for the field kernels;
//! - [`chainproof`] — exact symbolic chain certificates (sparse
//!   polynomials over bounded symbols) that discharge the `< 2p`
//!   obligations the interval domain provably cannot close;
//! - [`addr`] — affine abstract domain over lane ids (`base + k·lane + c`)
//!   with declared address contracts, exact per-warp 32B-sector counts,
//!   and a decidable alias oracle for provably-affine accesses;
//! - [`memory`] — static coalescing classification, per-warp
//!   transaction/byte prediction matching the simulator's sector rule,
//!   LSU wavefront timings for [`schedule::predict_schedule`], static
//!   arithmetic intensity for the roofline, and the uncoalesced-access
//!   lint;
//! - [`opt`] — the verified kernel optimizer: dead-store elimination,
//!   constant propagation, redundant-load and dead-code elimination, list
//!   scheduling against the scoreboard cost model, and register
//!   reallocation, with every run re-proven equivalent to the input by a
//!   translation validator that emits a machine-checked
//!   [`opt::Certificate`]. Its CSE and DSE are the crate's one answer to
//!   "which loads are redundant, which stores are dead"
//!   ([`OptReport::loads_eliminated`], [`OptReport::stores_eliminated`]).
//!
//! # Examples
//!
//! ```
//! use gpu_sim::analysis::{self, StaticMetrics};
//! use gpu_sim::isa::{ProgramBuilder, Src};
//!
//! let mut b = ProgramBuilder::new();
//! b.ldg(0, 10, 0);
//! b.iadd3(1, Src::Reg(0), Src::Imm(1), Src::Imm(0), false, false);
//! b.stg(1, 10, 1);
//! b.exit();
//! let p = b.build();
//!
//! // r10 is the kernel's pointer parameter; with it declared, the
//! // program is lint-clean.
//! assert!(analysis::lint(&p, &[10]).is_empty());
//!
//! let m = StaticMetrics::compute(&p);
//! assert_eq!(m.instructions, 4);
//! assert!(m.max_live_regs >= 1);
//! ```

pub mod addr;
pub mod cfg;
pub mod chainproof;
pub mod dataflow;
pub mod lints;
pub mod memory;
pub mod metrics;
pub mod opt;
pub mod ranges;
pub mod schedule;

pub use addr::{
    affine_sectors, analyze_addresses, AccessPattern, AddrAnalysis, AddrContract, AffineVal,
    MemContracts,
};
pub use cfg::{BasicBlock, Cfg};
pub use dataflow::{Liveness, ReachingDefs, Resource, ResourceMap};
pub use lints::{lint, lint_structural, Diagnostic, LintKind, Severity};
pub use memory::{analyze_memory, AccessReport, MemoryAnalysis};
pub use metrics::StaticMetrics;
pub use opt::{
    optimize, optimize_with_config, validate, Certificate, OptError, OptOptions, OptReport,
    Optimized, RegMap, ValidateError,
};
pub use ranges::{
    analyze_ranges, Interval, RangeAnalysis, RangeAssumptions, StoreBound, ValueBound,
};
pub use schedule::{
    predict_schedule, BlockSchedule, BranchHint, MemTimings, ScheduleError, ScheduleHints,
    SchedulePrediction,
};

use crate::isa::Program;

/// Inferred register pressure: the maximum number of simultaneously live
/// 32-bit registers at any reachable program point. See
/// [`Liveness::max_live_registers`].
pub fn max_live_registers(program: &Program) -> u32 {
    let cfg = Cfg::build(program);
    Liveness::compute(program, &cfg).max_live_registers(&cfg, program)
}
