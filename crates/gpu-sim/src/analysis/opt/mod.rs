//! A verified kernel optimizer: analysis-driven transforms checked by a
//! translation validator.
//!
//! The pipeline consumes the analyses the crate already has — liveness
//! and reaching state from [`crate::analysis::dataflow`], the affine
//! alias oracle from [`crate::analysis::addr`], and the scoreboard cost
//! model from [`crate::analysis::schedule`] — and applies, in order:
//!
//! 1. **Dead-store elimination** (a later store to the provably same
//!    cell supersedes, with no observing load in between), decided on
//!    the input program itself — the one the validator compares against —
//!    because the next two passes turn forwarded loads into `MOV`s;
//! 2. **Constant propagation** (block-local `MOV imm` folding), which
//!    turns the CIOS accumulator-zeroing moves into dead code;
//! 3. **Redundant-load elimination** (CSE over symbolic value terms,
//!    including store-to-load forwarding);
//! 4. **Dead-code elimination** to a liveness fixpoint;
//! 5. **List scheduling** within basic blocks against the SMSP issue
//!    pipes and result latencies;
//! 6. **Register reallocation** by interference coloring, pinning the
//!    kernel ABI (inputs, address contracts, entry-live registers).
//!
//! None of these passes is trusted. [`optimize`] re-proves the final
//! program equivalent to the input with [`validate`] — a per-block
//! symbolic bisimulation over a hash-consed term language — and only
//! then returns it, together with the machine-checked [`Certificate`]
//! and an [`OptReport`] of before/after predicted schedules. A pass bug
//! (or any mutation of the output program) surfaces as
//! [`OptError::Rejected`], never as a silently wrong kernel.
//!
//! Value-range obligations from [`crate::analysis::ranges`] are proven
//! against the *original* program: their pc anchors do not survive
//! scheduling, and they do not need to — validated equivalence transfers
//! every input/output property of the original to the optimized kernel.

mod passes;
mod regalloc;
mod sched;
mod validate;

use core::fmt;

use crate::analysis::addr::MemContracts;
use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::{max_reg, Liveness};
use crate::analysis::schedule::{predict_schedule, MemTimings, ScheduleHints, SchedulePrediction};
use crate::device::DeviceSpec;
use crate::isa::{Program, Reg};
use crate::machine::SmspConfig;

pub use validate::{validate, BlockCheck, Certificate, ValidateError};

use validate::MemOracle;

/// A total register renaming π: original register index → new index.
/// Indices past the mapped universe are implicitly identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegMap {
    map: Vec<Reg>,
}

impl RegMap {
    /// The identity map over a universe of `n` registers.
    pub fn identity(n: usize) -> Self {
        Self {
            map: (0..n).map(|r| r as Reg).collect(),
        }
    }

    /// Wraps an explicit mapping vector (`map[original] = renamed`).
    pub fn new(map: Vec<Reg>) -> Self {
        Self { map }
    }

    /// Applies the map (identity outside the mapped universe).
    pub fn get(&self, r: Reg) -> Reg {
        self.map.get(r as usize).copied().unwrap_or(r)
    }

    /// Whether the map renames nothing.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &r)| i == r as usize)
    }
}

/// Inputs to [`optimize`] beyond the program and device: the kernel's
/// ABI (input registers and address contracts), the schedule-prediction
/// facts ([`ScheduleHints`], [`MemTimings`]) keyed by *original* pcs,
/// and the warp count the before/after predictions model.
#[derive(Debug, Clone, Default)]
pub struct OptOptions {
    /// Launch-parameter registers (pinned through renaming).
    pub inputs: Vec<Reg>,
    /// Declared address regions (drives the alias oracle; the contract
    /// registers are pinned through renaming).
    pub contracts: MemContracts,
    /// Branch hints for the schedule predictions, original-pc keyed.
    pub hints: ScheduleHints,
    /// LSU wavefront counts for the schedule predictions, original-pc
    /// keyed.
    pub timings: MemTimings,
    /// Resident warps the before/after predictions model (min 1).
    pub warps: u32,
}

/// Why [`optimize`] refused to produce a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// The input program has no instructions.
    EmptyProgram,
    /// The translation validator rejected the transformed program — a
    /// pass bug; the original program is unaffected.
    Rejected(ValidateError),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::EmptyProgram => write!(f, "cannot optimize an empty program"),
            OptError::Rejected(e) => write!(f, "translation validation rejected the output: {e}"),
        }
    }
}

impl std::error::Error for OptError {}

/// Per-pass and before/after accounting for one [`optimize`] run.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// Instruction count of the input program.
    pub instructions_before: usize,
    /// Instruction count of the optimized program.
    pub instructions_after: usize,
    /// Rewrites applied by symbolic simplification (operands folded to
    /// immediates, constant results turned into `MOV`s, dead or
    /// provably-zero carry-flag traffic dropped).
    pub simplified: usize,
    /// Loads replaced with register moves by CSE.
    pub loads_eliminated: usize,
    /// Stores deleted by DSE.
    pub stores_eliminated: usize,
    /// Instructions deleted by DCE.
    pub dead_removed: usize,
    /// Instructions whose position changed under list scheduling.
    pub moved: usize,
    /// Peak simultaneously live registers, before.
    pub max_live_before: u32,
    /// Peak simultaneously live registers, after.
    pub max_live_after: u32,
    /// Highest register index referenced, before.
    pub max_reg_before: u32,
    /// Highest register index referenced, after.
    pub max_reg_after: u32,
    /// Resident warps the predictions model.
    pub warps: u32,
    /// Schedule prediction of the input program (when derivable).
    pub before: Option<SchedulePrediction>,
    /// Schedule prediction of the optimized program (when derivable).
    pub after: Option<SchedulePrediction>,
}

impl OptReport {
    /// Predicted issue-cycle reduction in percent (`None` when either
    /// prediction is unavailable).
    pub fn cycle_gain_pct(&self) -> Option<f64> {
        let (b, a) = (self.before.as_ref()?, self.after.as_ref()?);
        Some(100.0 * (b.cycles.saturating_sub(a.cycles)) as f64 / b.cycles.max(1) as f64)
    }

    /// Serializes as a JSON object (the repo hand-rolls JSON; no serde).
    pub fn to_json(&self) -> String {
        let opt_pred =
            |p: &Option<SchedulePrediction>| p.as_ref().map_or("null".to_string(), |p| p.to_json());
        format!(
            "{{\"instructions_before\":{},\"instructions_after\":{},\
             \"simplified\":{},\"loads_eliminated\":{},\
             \"stores_eliminated\":{},\"dead_removed\":{},\"moved\":{},\
             \"max_live_before\":{},\"max_live_after\":{},\
             \"max_reg_before\":{},\"max_reg_after\":{},\"warps\":{},\
             \"cycle_gain_pct\":{},\"before\":{},\"after\":{}}}",
            self.instructions_before,
            self.instructions_after,
            self.simplified,
            self.loads_eliminated,
            self.stores_eliminated,
            self.dead_removed,
            self.moved,
            self.max_live_before,
            self.max_live_after,
            self.max_reg_before,
            self.max_reg_after,
            self.warps,
            self.cycle_gain_pct()
                .map_or("null".to_string(), |g| format!("{g:.4}")),
            opt_pred(&self.before),
            opt_pred(&self.after),
        )
    }
}

/// The product of a successful [`optimize`] run.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The transformed, validated program.
    pub program: Program,
    /// Per-pass and before/after accounting.
    pub report: OptReport,
    /// The machine-checked equivalence certificate.
    pub certificate: Certificate,
    /// Branch hints remapped to the optimized program's pcs.
    pub hints: ScheduleHints,
    /// LSU wavefront counts remapped to the optimized program's pcs.
    pub timings: MemTimings,
    /// `pc_map[original_pc] = Some(new_pc)` for surviving instructions.
    pub pc_map: Vec<Option<usize>>,
    /// The register renaming π the validator checked against.
    pub reg_map: RegMap,
}

/// Optimizes `program` for `device`, proving the result equivalent to
/// the input before returning it. See the module docs for the pass
/// pipeline.
pub fn optimize(
    program: &Program,
    device: &DeviceSpec,
    opts: &OptOptions,
) -> Result<Optimized, OptError> {
    optimize_with_config(program, &SmspConfig::from(device), opts)
}

/// [`optimize`] against an explicit SMSP description instead of a
/// cataloged device.
pub fn optimize_with_config(
    program: &Program,
    config: &SmspConfig,
    opts: &OptOptions,
) -> Result<Optimized, OptError> {
    if program.is_empty() {
        return Err(OptError::EmptyProgram);
    }
    let warps = opts.warps.max(1);
    let oracle = MemOracle::new(program, &opts.contracts, config.warp_size);

    let before = predict_schedule(program, config, warps, &opts.hints, &opts.timings).ok();
    let cfg0 = Cfg::build(program);
    let live0 = Liveness::compute(program, &cfg0);
    let max_live_before = live0.max_live_registers(&cfg0, program);
    let max_reg_before = u32::from(max_reg(program).unwrap_or(0));

    // DSE runs first, on the program the validator compares against:
    // simplification and CSE both turn forwarded loads into `MOV`s, and a
    // store such a load read would look dead on the rewritten block. Each
    // later pass reassigns `cur`, so one intermediate program is live.
    let (mut cur, mut pc_map, stores_eliminated) = passes::dse(program, &oracle);
    let compose = |pc_map: &mut Vec<Option<usize>>, step: &[Option<usize>]| {
        for slot in pc_map.iter_mut() {
            *slot = slot.and_then(|old| step[old]);
        }
    };
    let (p, simplified) = passes::simplify(&cur, &oracle);
    cur = p;
    let (p, loads_eliminated) = passes::cse(&cur, &oracle);
    cur = p;
    let (p, map, dead_removed) = passes::dce(&cur);
    cur = p;
    compose(&mut pc_map, &map);
    // The scheduler's cost model wants wavefront counts keyed by the
    // *current* program's pcs.
    let timings_now: MemTimings = opts
        .timings
        .iter()
        .filter_map(|(pc, w)| pc_map.get(pc).copied().flatten().map(|n| (n, w)))
        .collect();
    let (p, map, moved) = sched::list_schedule(&cur, &oracle, config, &timings_now);
    cur = p;
    compose(&mut pc_map, &map);
    let (p, reg_map) = regalloc::reallocate(&cur, &opts.inputs, &opts.contracts);
    cur = p;

    let certificate = validate(program, &cur, &reg_map, &opts.contracts, config.warp_size)
        .map_err(OptError::Rejected)?;

    let hints: ScheduleHints = opts
        .hints
        .iter()
        .filter_map(|(pc, h)| pc_map.get(pc).copied().flatten().map(|n| (n, h)))
        .collect();
    let timings: MemTimings = opts
        .timings
        .iter()
        .filter_map(|(pc, w)| pc_map.get(pc).copied().flatten().map(|n| (n, w)))
        .collect();
    let after = predict_schedule(&cur, config, warps, &hints, &timings).ok();

    let cfg1 = Cfg::build(&cur);
    let live1 = Liveness::compute(&cur, &cfg1);
    let max_live_after = live1.max_live_registers(&cfg1, &cur);
    let max_reg_after = u32::from(max_reg(&cur).unwrap_or(0));

    let report = OptReport {
        instructions_before: program.len(),
        instructions_after: cur.len(),
        simplified,
        loads_eliminated,
        stores_eliminated,
        dead_removed,
        moved,
        max_live_before,
        max_live_after,
        max_reg_before,
        max_reg_after,
        warps,
        before,
        after,
    };
    Ok(Optimized {
        program: cur,
        report,
        certificate,
        hints,
        timings,
        pc_map,
        reg_map,
    })
}
