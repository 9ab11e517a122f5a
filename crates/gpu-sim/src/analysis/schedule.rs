//! Static scoreboard scheduling: simulator-free prediction of the numbers
//! [`crate::machine`] produces dynamically.
//!
//! The predictor *is* the simulator's issue model driven by a static
//! trace: both feed the crate's one scoreboard (`scoreboard.rs`) — the
//! simulator with the pc each warp functionally reaches, this module with
//! a pc sequence computed up front. That works because the SMSP timing
//! model is *value-independent*: register contents influence timing only
//! through control flow (and the sectors an access touches, which
//! [`MemTimings`] supplies). A divergent forward skip-branch issues exactly
//! the same instruction sequence as a uniform not-taken branch (the active
//! mask does not change issue timing), so once branch outcomes are pinned
//! down the trace, and with it cycles and stall taxonomy, is the
//! simulator's own.
//!
//! Branch outcomes are pinned down two ways:
//!
//! 1. A constant-propagation mini-interpreter folds warp-uniform scalar
//!    state through the ALU of [`crate::isa`] (`MOV` of immediates,
//!    `IADD3`/`IMAD` over known constants, `ISETP` over known constants).
//!    This resolves loop trip counts — the microbenchmarks' `LOOP` counter
//!    is pure constant arithmetic — with no pattern matching.
//! 2. Remaining data-dependent *forward* branches take a [`BranchHint`]
//!    supplied by the kernel generator. The default, [`BranchHint::NotTaken`],
//!    models both the divergent and the uniformly-not-taken case (identical
//!    timing); [`BranchHint::Taken`] models a branch that is uniformly
//!    taken in practice (e.g. the never-hit tie check in `FF_dbl`).
//!
//! On top of the whole-program prediction, the pass reports per-basic-block
//! issue schedules, the latency-weighted critical path through the
//! dependence DAG, per-pipe utilization, and an *ILP headroom* estimate —
//! the static counterpart of the paper's "dependence stalls dominate, ILP
//! is underutilized" finding (Obs. 4/8, Fig. 10).

use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::{instr_defs, instr_uses, ResourceMap};
use crate::isa::{iadd3, imad, shf, Instr, Program, Src};
use crate::machine::{SmspConfig, StallBreakdown};
use crate::scoreboard::{int32_interval, result_latency, Scoreboard};
use std::fmt;

/// Static prediction for a data-dependent forward branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchHint {
    /// The branch is taken by every thread: the trace jumps to the target.
    Taken,
    /// The branch is not taken uniformly (or diverges): the trace falls
    /// through. Divergent skips and uniform fall-through have identical
    /// issue timing, so this one hint covers both — and it is the default.
    #[default]
    NotTaken,
}

/// Per-pc [`BranchHint`]s recorded by a kernel generator.
///
/// Branches whose predicate the constant folder resolves never consult the
/// hints; unhinted unresolved branches default to [`BranchHint::NotTaken`].
#[derive(Debug, Clone, Default)]
pub struct ScheduleHints {
    hints: Vec<(usize, BranchHint)>,
}

impl ScheduleHints {
    /// An empty hint set (every unresolved branch defaults to not-taken).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a hint for the branch at `pc` (last write wins).
    pub fn set(&mut self, pc: usize, hint: BranchHint) {
        self.hints.push((pc, hint));
    }

    /// The hint for `pc`, defaulting to [`BranchHint::NotTaken`].
    pub fn get(&self, pc: usize) -> BranchHint {
        self.hints
            .iter()
            .rev()
            .find(|(p, _)| *p == pc)
            .map_or(BranchHint::NotTaken, |(_, h)| *h)
    }

    /// Iterates the recorded `(pc, hint)` pairs in insertion order
    /// (duplicated pcs retain last-write-wins semantics through
    /// [`ScheduleHints::get`]).
    pub fn iter(&self) -> impl Iterator<Item = (usize, BranchHint)> + '_ {
        self.hints.iter().copied()
    }
}

impl FromIterator<(usize, BranchHint)> for ScheduleHints {
    /// Collects `(pc, hint)` pairs; later pairs for the same pc win, like
    /// repeated [`ScheduleHints::set`] calls.
    fn from_iter<I: IntoIterator<Item = (usize, BranchHint)>>(iter: I) -> Self {
        Self {
            hints: iter.into_iter().collect(),
        }
    }
}

/// Per-pc LSU wavefront counts for `LDG`/`STG` instructions, produced by
/// the memory analyzer ([`crate::analysis::memory`]) and consumed by the
/// schedule predictor so Long-Scoreboard stalls scale with serialized
/// sector transactions instead of one flat latency.
///
/// Unlisted pcs default to one wavefront — the fully coalesced (or
/// broadcast) case, which is also what an access with no contract
/// information optimistically costs.
#[derive(Debug, Clone, Default)]
pub struct MemTimings {
    wavefronts: Vec<(usize, u64)>,
}

impl MemTimings {
    /// An empty table: every access costs one wavefront.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the wavefront count of the access at `pc` (last write wins).
    pub fn set(&mut self, pc: usize, wavefronts: u64) {
        self.wavefronts.push((pc, wavefronts.max(1)));
    }

    /// Wavefronts of the access at `pc` (default 1).
    pub fn get(&self, pc: usize) -> u64 {
        self.wavefronts
            .iter()
            .rev()
            .find(|(p, _)| *p == pc)
            .map_or(1, |(_, w)| *w)
    }

    /// Iterates the recorded `(pc, wavefronts)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.wavefronts.iter().copied()
    }
}

impl FromIterator<(usize, u64)> for MemTimings {
    /// Collects `(pc, wavefronts)` pairs; counts are clamped to at least
    /// one wavefront, and later pairs for the same pc win, like repeated
    /// [`MemTimings::set`] calls.
    fn from_iter<I: IntoIterator<Item = (usize, u64)>>(iter: I) -> Self {
        Self {
            wavefronts: iter.into_iter().map(|(pc, w)| (pc, w.max(1))).collect(),
        }
    }
}

/// Why a static schedule could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The program has no instructions.
    EmptyProgram,
    /// A backward branch whose predicate the constant folder could not
    /// resolve: the trip count is data-dependent, so no finite static
    /// trace exists.
    UnresolvedLoop {
        /// The branch instruction's index.
        pc: usize,
    },
    /// The trace exceeded the safety limit (runaway constant-folded loop).
    TraceLimit {
        /// The limit that was hit, in trace instructions.
        limit: usize,
    },
    /// Control ran past the end of the program (missing `EXIT`).
    FellOffEnd {
        /// The pc past the end that was about to be fetched.
        pc: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::EmptyProgram => write!(f, "cannot schedule an empty program"),
            ScheduleError::UnresolvedLoop { pc } => write!(
                f,
                "backward branch at pc {pc} has a data-dependent predicate; \
                 trip count is not statically resolvable"
            ),
            ScheduleError::TraceLimit { limit } => {
                write!(f, "static trace exceeded {limit} instructions")
            }
            ScheduleError::FellOffEnd { pc } => {
                write!(f, "trace fell off the end of the program at pc {pc}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Single-warp issue schedule of one basic block, from a clean scoreboard.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSchedule {
    /// Block id in the [`Cfg`].
    pub block: usize,
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Instructions in the block.
    pub instructions: usize,
    /// Cycles a single warp needs to issue the whole block.
    pub issue_cycles: u64,
    /// Latency-weighted longest dependence chain through the block.
    pub critical_path: u64,
    /// Warp-cycle breakdown of the single-warp walk.
    pub stalls: StallBreakdown,
}

impl BlockSchedule {
    /// Serializes as a JSON object (the repo hand-rolls JSON; no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"block\":{},\"start\":{},\"end\":{},\"instructions\":{},\
             \"issue_cycles\":{},\"critical_path\":{},\"stalls\":{}}}",
            self.block,
            self.start,
            self.end,
            self.instructions,
            self.issue_cycles,
            self.critical_path,
            self.stalls.to_json()
        )
    }
}

/// The static schedule prediction for a whole program.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulePrediction {
    /// Predicted elapsed cycles until all warps exit.
    pub cycles: u64,
    /// Warp-instructions issued (`trace_len × warps`).
    pub instructions: u64,
    /// Resident warps modeled.
    pub warps: u32,
    /// Predicted warp-cycle stall breakdown (Fig. 10 taxonomy).
    pub stalls: StallBreakdown,
    /// Predicted cycles in which no warp was eligible.
    pub no_eligible_cycles: u64,
    /// Instructions in the static trace of one warp.
    pub trace_len: usize,
    /// Latency-weighted critical path through the whole trace, in cycles —
    /// the dependence-imposed lower bound on single-warp execution.
    pub critical_path: u64,
    /// `critical_path / trace_len / int32_interval`: the ratio of the
    /// dependence-imposed issue interval to the pipe-imposed one. Values
    /// above 1 mean the warp cannot saturate the INT32 pipe by itself —
    /// roughly the number of independent warps needed to hide dependence
    /// latency (the paper's underutilized-ILP story).
    pub ilp_headroom: f64,
    /// Fraction of predicted cycles the INT32 pipe is occupied.
    pub int32_utilization: f64,
    /// Fraction of predicted cycles the LSU pipe is occupied.
    pub mem_utilization: f64,
    /// Per-reachable-basic-block single-warp schedules.
    pub blocks: Vec<BlockSchedule>,
}

impl SchedulePrediction {
    /// Predicted warp-instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }

    /// Predicted average cycles between issued instructions.
    pub fn issue_interval(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }

    /// Serializes as a JSON object (the repo hand-rolls JSON; no serde).
    pub fn to_json(&self) -> String {
        let blocks: Vec<String> = self.blocks.iter().map(BlockSchedule::to_json).collect();
        format!(
            "{{\"cycles\":{},\"instructions\":{},\"warps\":{},\"stalls\":{},\
             \"no_eligible_cycles\":{},\"trace_len\":{},\"critical_path\":{},\
             \"ilp_headroom\":{:.6},\"int32_utilization\":{:.6},\
             \"mem_utilization\":{:.6},\"ipc\":{:.6},\"blocks\":[{}]}}",
            self.cycles,
            self.instructions,
            self.warps,
            self.stalls.to_json(),
            self.no_eligible_cycles,
            self.trace_len,
            self.critical_path,
            self.ilp_headroom,
            self.int32_utilization,
            self.mem_utilization,
            self.ipc(),
            blocks.join(",")
        )
    }
}

/// Default cap on static trace length (instructions), far above any
/// generated kernel but low enough to catch runaway constant-folded loops.
pub(crate) const TRACE_LIMIT: usize = 1 << 23;

/// Predicts the schedule of `program` on `warps` identical resident warps
/// of an SMSP described by `config`, without running the simulator.
///
/// `mem` holds per-access LSU wavefront counts from the memory analyzer
/// ([`crate::analysis::MemoryAnalysis::mem_timings`]): `LDG`/`STG` port
/// occupancy and the `LDG` latency tail scale with each access's
/// serialized sector transactions, through the same scoreboard as the
/// simulator's coalescing-aware timing. An access missing from `mem` costs
/// one wavefront (the coalesced case), so `&MemTimings::default()` models
/// a fully coalesced kernel.
///
/// The prediction is exact for programs whose branches are resolved by
/// constant folding, and matches the simulator to within the rarity of
/// uniformly-taken data-dependent branches otherwise (see module docs).
pub fn predict_schedule(
    program: &Program,
    config: &SmspConfig,
    warps: u32,
    hints: &ScheduleHints,
    mem: &MemTimings,
) -> Result<SchedulePrediction, ScheduleError> {
    if program.is_empty() {
        return Err(ScheduleError::EmptyProgram);
    }
    let warps = warps.max(1);
    let trace = build_trace(program, hints, TRACE_LIMIT)?;
    let map = ResourceMap::of(program);
    let (cycles, stalls, no_eligible) =
        scoreboard_walk(program, &trace, config, &map, warps as usize, mem);
    let critical_path = critical_path_cycles(program, &trace, config, &map);

    let int32_interval = int32_interval(config);
    let int32_instrs = trace
        .iter()
        .filter(|&&pc| program.fetch(pc).uses_int32_pipe())
        .count() as u64;
    let mem_port_cycles: u64 = trace
        .iter()
        .filter(|&&pc| program.fetch(pc).uses_lsu())
        .map(|&pc| mem.get(pc))
        .sum();
    let total_cycles = cycles.max(1) as f64;
    let graph = Cfg::build(program);
    let blocks = block_schedules(program, &graph, config, &map, mem);

    Ok(SchedulePrediction {
        cycles,
        instructions: trace.len() as u64 * u64::from(warps),
        warps,
        stalls,
        no_eligible_cycles: no_eligible,
        trace_len: trace.len(),
        critical_path,
        ilp_headroom: critical_path as f64 / trace.len().max(1) as f64 / int32_interval as f64,
        int32_utilization: (int32_instrs * int32_interval * u64::from(warps)) as f64 / total_cycles,
        mem_utilization: (mem_port_cycles * u64::from(warps)) as f64 / total_cycles,
        blocks,
    })
}

// ---------------------------------------------------------------------------
// Trace construction: constant-propagation mini-interpreter.
// ---------------------------------------------------------------------------

/// Warp-uniform compile-time-known scalar state: the micro-ISA's ALU
/// ([`crate::isa`]) lifted to `Option`, `None` being "not a constant".
pub(crate) struct ConstState {
    pub(crate) regs: Vec<Option<u32>>,
    cc: Option<bool>,
    preds: [Option<bool>; 4],
}

impl ConstState {
    /// The launch state: flags clear, registers unknown (the harness sets
    /// them per thread).
    pub(crate) fn new(program: &Program) -> Self {
        Self {
            regs: vec![None; ResourceMap::of(program).num_regs()],
            cc: Some(false),
            preds: [Some(false); 4],
        }
    }

    fn src(&self, s: &Src) -> Option<u32> {
        match s {
            Src::Imm(v) => Some(*v),
            Src::Reg(r) => self.regs[*r as usize],
        }
    }

    fn carry_in(&self, use_cc: bool) -> Option<bool> {
        if use_cc {
            self.cc
        } else {
            Some(false)
        }
    }

    /// Applies a non-control instruction's effect on registers and flags.
    pub(crate) fn step(&mut self, inst: &Instr) {
        match *inst {
            Instr::Imad {
                dst,
                a,
                b,
                c,
                hi,
                set_cc,
                use_cc,
            } => {
                let v = match (
                    self.src(&a),
                    self.src(&b),
                    self.src(&c),
                    self.carry_in(use_cc),
                ) {
                    (Some(a), Some(b), Some(c), Some(cin)) => Some(imad(a, b, c, cin, hi)),
                    _ => None,
                };
                self.regs[dst as usize] = v.map(|(v, _)| v);
                if set_cc {
                    self.cc = v.map(|(_, carry)| carry);
                }
            }
            Instr::Iadd3 {
                dst,
                a,
                b,
                c,
                set_cc,
                use_cc,
            } => {
                let v = match (
                    self.src(&a),
                    self.src(&b),
                    self.src(&c),
                    self.carry_in(use_cc),
                ) {
                    (Some(a), Some(b), Some(c), Some(cin)) => Some(iadd3(a, b, c, cin)),
                    _ => None,
                };
                self.regs[dst as usize] = v.map(|(v, _)| v);
                if set_cc {
                    self.cc = v.map(|(_, carry)| carry & 1 == 1);
                }
            }
            Instr::Shf {
                dst,
                a,
                b,
                sh,
                right,
            } => {
                self.regs[dst as usize] = match (self.src(&a), self.src(&b), self.src(&sh)) {
                    (Some(a), Some(b), Some(sh)) => Some(shf(a, b, sh, right)),
                    _ => None,
                };
            }
            Instr::Lop3 { dst, a, b, op } => {
                self.regs[dst as usize] = match (self.src(&a), self.src(&b)) {
                    (Some(a), Some(b)) => Some(op.eval(a, b)),
                    _ => None,
                };
            }
            Instr::Mov { dst, src } => self.regs[dst as usize] = self.src(&src),
            Instr::Setp { pred, a, b, cmp } => {
                self.preds[pred as usize] = match (self.src(&a), self.src(&b)) {
                    (Some(a), Some(b)) => Some(cmp.eval(a, b)),
                    _ => None,
                };
            }
            Instr::Sel { dst, a, b, pred } => {
                self.regs[dst as usize] = match self.preds[pred as usize] {
                    Some(true) => self.src(&a),
                    Some(false) => self.src(&b),
                    None => None,
                };
            }
            Instr::Ldg { dst, .. } => self.regs[dst as usize] = None,
            Instr::Stg { .. } | Instr::Bra { .. } | Instr::Exit => {}
        }
    }
}

/// Walks `program` from the entry, folding warp-uniform constants to
/// resolve branch outcomes, and returns the issued-pc trace.
pub(crate) fn build_trace(
    program: &Program,
    hints: &ScheduleHints,
    limit: usize,
) -> Result<Vec<usize>, ScheduleError> {
    let mut st = ConstState::new(program);
    let mut trace = Vec::new();
    let mut pc = 0usize;
    loop {
        if pc >= program.len() {
            return Err(ScheduleError::FellOffEnd { pc });
        }
        if trace.len() >= limit {
            return Err(ScheduleError::TraceLimit { limit });
        }
        let inst = program.fetch(pc);
        trace.push(pc);
        match inst {
            Instr::Bra { target, pred } => {
                let taken = match pred {
                    None => Some(true),
                    Some((p, pol)) => st.preds[p as usize].map(|v| v == pol),
                };
                let taken = match taken {
                    Some(t) => t,
                    None if target <= pc => return Err(ScheduleError::UnresolvedLoop { pc }),
                    None => hints.get(pc) == BranchHint::Taken,
                };
                pc = if taken { target } else { pc + 1 };
            }
            Instr::Exit => break,
            _ => {
                st.step(&inst);
                pc += 1;
            }
        }
    }
    Ok(trace)
}

// ---------------------------------------------------------------------------
// Scoreboard walk: the shared issue model, driven by the static trace.
// ---------------------------------------------------------------------------

/// Replays `trace` on `warps` identical warps through the SMSP scoreboard.
/// Returns `(cycles, stalls, no_eligible_cycles)`.
fn scoreboard_walk(
    program: &Program,
    trace: &[usize],
    cfg: &SmspConfig,
    map: &ResourceMap,
    warps: usize,
    mem: &MemTimings,
) -> (u64, StallBreakdown, u64) {
    let mut issue = Scoreboard::new(cfg, map, warps);
    let mut pos = vec![0usize; warps];
    while pos.iter().any(|&p| p < trace.len()) {
        let next = |w: usize| trace.get(pos[w]).map(|&pc| program.fetch(pc));
        if let Some(w) = issue.select(next) {
            let pc = trace[pos[w]];
            let inst = program.fetch(pc);
            let wavefronts = if inst.uses_lsu() { mem.get(pc) } else { 1 };
            issue.commit(w, &inst, wavefronts);
            pos[w] += 1;
        }
    }
    (issue.cycle(), issue.stalls, issue.no_eligible_cycles)
}

// ---------------------------------------------------------------------------
// Critical path and per-block schedules.
// ---------------------------------------------------------------------------

/// Latency-weighted longest path through the dependence DAG of `trace`:
/// `finish(i) = max(finish(writer of each resource i reads)) + latency(i)`.
pub(crate) fn critical_path_cycles(
    program: &Program,
    trace: &[usize],
    cfg: &SmspConfig,
    map: &ResourceMap,
) -> u64 {
    let mut finish = vec![0u64; map.len()];
    let mut cp = 0u64;
    for &pc in trace {
        let inst = program.fetch(pc);
        let mut start = 0u64;
        instr_uses(&inst, |r| start = start.max(finish[map.index(r)]));
        let f = start + result_latency(&inst, cfg);
        instr_defs(&inst, |r| finish[map.index(r)] = f);
        cp = cp.max(f);
    }
    cp
}

/// Single-warp schedules of every reachable basic block, each from a clean
/// scoreboard (the straight-line issue cost of the block in isolation).
pub(crate) fn block_schedules(
    program: &Program,
    graph: &Cfg,
    cfg: &SmspConfig,
    map: &ResourceMap,
    mem: &MemTimings,
) -> Vec<BlockSchedule> {
    graph
        .blocks
        .iter()
        .enumerate()
        .filter(|(b, _)| graph.reachable[*b])
        .map(|(b, blk)| {
            let range: Vec<usize> = (blk.start..blk.end).collect();
            let (issue_cycles, stalls, _) = scoreboard_walk(program, &range, cfg, map, 1, mem);
            BlockSchedule {
                block: b,
                start: blk.start,
                end: blk.end,
                instructions: blk.end - blk.start,
                issue_cycles,
                critical_path: critical_path_cycles(program, &range, cfg, map),
                stalls,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{CmpOp, ProgramBuilder};
    use crate::machine::{Machine, WarpInit};

    fn r(x: u16) -> Src {
        Src::Reg(x)
    }
    fn imm(x: u32) -> Src {
        Src::Imm(x)
    }

    fn simulate(p: &Program, warps: usize) -> crate::machine::SimResult {
        let mut m = Machine::new(SmspConfig::default(), 4096);
        m.run(p, &vec![WarpInit::default(); warps])
    }

    #[test]
    fn straight_line_prediction_is_exact() {
        let mut chain = ProgramBuilder::new();
        chain.mov(0, imm(3));
        for _ in 0..20 {
            chain.imad(0, r(0), imm(5), imm(1), false, false, false);
        }
        chain.exit();

        // for (i = 0; i < 5; i++) { r1 = r1*3+1 }: the trip count folds.
        let mut looped = ProgramBuilder::new();
        looped.mov(0, imm(0));
        looped.mov(1, imm(1));
        let top = looped.label();
        looped.place(top);
        looped.imad(1, r(1), imm(3), imm(1), false, false, false);
        looped.iadd3(0, r(0), imm(1), imm(0), false, false);
        looped.setp(0, r(0), imm(5), CmpOp::Lt);
        looped.bra(top, Some((0, true)));
        looped.exit();

        // Every lane reads and writes word 0 (registers start at zero): one
        // sector, one wavefront — the `MemTimings` default.
        let mut memory = ProgramBuilder::new();
        memory.ldg(1, 0, 0);
        memory.ldg(2, 0, 1);
        memory.iadd3(3, r(1), r(2), imm(7), true, false);
        memory.iadd3(4, r(1), imm(0), imm(0), false, true);
        memory.stg(3, 0, 2);
        memory.stg(4, 0, 3);
        memory.exit();

        for (name, b) in [("chain", chain), ("loop", looped), ("memory", memory)] {
            let p = b.build();
            for warps in [1usize, 2, 4, 8] {
                let sim = simulate(&p, warps);
                let pred = predict_schedule(
                    &p,
                    &SmspConfig::default(),
                    warps as u32,
                    &ScheduleHints::new(),
                    &MemTimings::default(),
                )
                .unwrap();
                assert_eq!(pred.cycles, sim.cycles, "{name} warps={warps}");
                assert_eq!(pred.instructions, sim.instructions, "{name} warps={warps}");
                assert_eq!(pred.stalls, sim.stalls, "{name} warps={warps}");
                assert_eq!(
                    pred.no_eligible_cycles, sim.no_eligible_cycles,
                    "{name} warps={warps}"
                );
            }
        }
    }

    #[test]
    fn constant_loop_trip_count_is_resolved_exactly() {
        // for (i = 0; i < 7; i++) { r1 = r1*3+1 }
        let mut b = ProgramBuilder::new();
        b.mov(0, imm(0));
        b.mov(1, imm(1));
        let top = b.label();
        b.place(top);
        b.imad(1, r(1), imm(3), imm(1), false, false, false);
        b.iadd3(0, r(0), imm(1), imm(0), false, false);
        b.setp(0, r(0), imm(7), CmpOp::Lt);
        b.bra(top, Some((0, true)));
        b.exit();
        let p = b.build();
        let sim = simulate(&p, 1);
        let pred = predict_schedule(
            &p,
            &SmspConfig::default(),
            1,
            &ScheduleHints::new(),
            &MemTimings::default(),
        )
        .unwrap();
        assert_eq!(pred.trace_len as u64, sim.instructions);
        assert_eq!(pred.cycles, sim.cycles);
        assert_eq!(pred.stalls, sim.stalls);
    }

    #[test]
    fn divergent_skip_matches_default_not_taken_hint() {
        // Threads disagree on the predicate -> divergent skip in the
        // simulator; the static default (fall through) predicts exactly.
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.setp(0, r(0), imm(16), CmpOp::Lt);
        b.bra(skip, Some((0, true)));
        for _ in 0..6 {
            b.iadd3(1, r(1), imm(1), imm(0), false, false);
        }
        b.place(skip);
        b.exit();
        let p = b.build();
        let mut init = WarpInit::default();
        let mut tids = [0u32; 32];
        for (t, v) in tids.iter_mut().enumerate() {
            *v = t as u32;
        }
        init.per_thread(0, tids);
        let mut m = Machine::new(SmspConfig::default(), 0);
        let sim = m.run(&p, &[init]);
        let pred = predict_schedule(
            &p,
            &SmspConfig::default(),
            1,
            &ScheduleHints::new(),
            &MemTimings::default(),
        )
        .unwrap();
        assert_eq!(pred.cycles, sim.cycles);
        assert_eq!(pred.stalls, sim.stalls);
    }

    #[test]
    fn taken_hint_skips_the_guarded_region() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.ldg(0, 2, 0); // unknown value -> unresolved predicate
        b.setp(0, r(0), imm(100), CmpOp::Lt);
        let bra_pc = b.next_pc();
        b.bra(skip, Some((0, true)));
        for _ in 0..6 {
            b.iadd3(1, r(1), imm(1), imm(0), false, false);
        }
        b.place(skip);
        b.exit();
        let p = b.build();
        // mem[0] = 0 < 100 for all threads -> uniformly taken.
        let sim = {
            let mut m = Machine::new(SmspConfig::default(), 16);
            m.run(&p, &[WarpInit::default()])
        };
        let mut hints = ScheduleHints::new();
        hints.set(bra_pc, BranchHint::Taken);
        let pred = predict_schedule(
            &p,
            &SmspConfig::default(),
            1,
            &hints,
            &MemTimings::default(),
        )
        .unwrap();
        assert_eq!(pred.cycles, sim.cycles);
        assert_eq!(pred.stalls, sim.stalls);
        // The not-taken default would issue 6 more instructions.
        let nt = predict_schedule(
            &p,
            &SmspConfig::default(),
            1,
            &ScheduleHints::new(),
            &MemTimings::default(),
        )
        .unwrap();
        assert_eq!(nt.trace_len, pred.trace_len + 6);
    }

    #[test]
    fn data_dependent_backward_branch_is_an_error() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.place(top);
        b.ldg(0, 1, 0);
        b.setp(0, r(0), imm(3), CmpOp::Lt);
        b.bra(top, Some((0, true)));
        b.exit();
        let p = b.build();
        let err = predict_schedule(
            &p,
            &SmspConfig::default(),
            1,
            &ScheduleHints::new(),
            &MemTimings::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ScheduleError::UnresolvedLoop { pc: 2 }));
    }

    #[test]
    fn critical_path_of_serial_imad_chain() {
        let mut b = ProgramBuilder::new();
        b.mov(0, imm(3));
        for _ in 0..10 {
            b.imad(0, r(0), imm(5), imm(1), false, false, false);
        }
        b.exit();
        let p = b.build();
        let cfg = SmspConfig::default();
        let pred =
            predict_schedule(&p, &cfg, 1, &ScheduleHints::new(), &MemTimings::default()).unwrap();
        // mov(2) + 10 dependent imads(4 each); EXIT adds its issue slot.
        assert_eq!(pred.critical_path, 2 + 10 * cfg.imad_latency);
        assert!(pred.ilp_headroom > 1.0, "chain is dependence-bound");
        // One block (straight line); its schedule covers the whole program.
        assert_eq!(pred.blocks.len(), 1);
        assert_eq!(pred.blocks[0].instructions, p.len());
        assert_eq!(pred.blocks[0].issue_cycles, pred.cycles);
    }

    #[test]
    fn independent_movs_have_unit_headroom() {
        let mut b = ProgramBuilder::new();
        for i in 0..16u16 {
            b.mov(i, imm(u32::from(i)));
        }
        b.exit();
        let p = b.build();
        let pred = predict_schedule(
            &p,
            &SmspConfig::default(),
            1,
            &ScheduleHints::new(),
            &MemTimings::default(),
        )
        .unwrap();
        // Issue-bound: dependence chains are trivial.
        assert!(pred.ilp_headroom <= 1.0);
        assert!(pred.int32_utilization > 0.8);
    }

    #[test]
    fn empty_program_is_an_error() {
        let p = ProgramBuilder::new().try_build().unwrap();
        assert_eq!(
            predict_schedule(
                &p,
                &SmspConfig::default(),
                1,
                &ScheduleHints::new(),
                &MemTimings::default()
            )
            .unwrap_err(),
            ScheduleError::EmptyProgram
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut b = ProgramBuilder::new();
        b.mov(0, imm(1));
        b.exit();
        let p = b.build();
        let pred = predict_schedule(
            &p,
            &SmspConfig::default(),
            2,
            &ScheduleHints::new(),
            &MemTimings::default(),
        )
        .unwrap();
        let js = pred.to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"cycles\":"));
        assert!(js.contains("\"stalls\":{\"selected\":"));
        assert_eq!(js.matches('{').count(), js.matches('}').count());
    }
}
