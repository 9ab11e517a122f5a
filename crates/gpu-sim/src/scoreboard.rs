//! The SMSP issue model: the one definition of *when* an instruction may
//! issue and what issuing it costs.
//!
//! An in-order scoreboarded warp scheduler issues at most one instruction
//! per cycle, round-robin among eligible warps, into a 16-lane INT32 pipe
//! (a 32-thread warp instruction holds it `warp_size / int32_lanes`
//! cycles) or an LSU that moves one wavefront per cycle. Every warp-cycle
//! is classified into the Nsight stall taxonomy of the paper's Fig. 10.
//!
//! The model is value-independent: it sees only *which* instruction each
//! warp wants to issue next and, for memory accesses, how many LSU
//! wavefronts the access serializes into. [`crate::machine`] feeds it the
//! functionally executed pc and the sector count it measures;
//! [`crate::analysis::schedule`] feeds it a static trace and the memory
//! analyzer's wavefront counts. Which resources an instruction reads and
//! writes comes from [`instr_uses`]/[`instr_defs`]; how long a result takes
//! from [`result_latency`] — so a change to the timing model (a new stall
//! class, a second issue port) is one edit here that the simulator, the
//! predictor, the list scheduler and the optimizer's estimates all see.

use crate::analysis::dataflow::{instr_defs, instr_uses, Resource, ResourceMap};
use crate::isa::Instr;
use crate::machine::{SmspConfig, StallBreakdown};

/// Result latency an instruction imposes on its dependents — the only
/// place the latency parameters of [`SmspConfig`] are read. Instructions
/// with no register/flag result still occupy their one issue slot (what
/// the critical path charges them); an `LDG` adds its serialized wavefront
/// tail on top (see [`Scoreboard::commit`]).
pub(crate) fn result_latency(inst: &Instr, cfg: &SmspConfig) -> u64 {
    match inst {
        Instr::Imad { .. } => cfg.imad_latency,
        Instr::Iadd3 { .. }
        | Instr::Shf { .. }
        | Instr::Lop3 { .. }
        | Instr::Mov { .. }
        | Instr::Setp { .. }
        | Instr::Sel { .. } => cfg.alu_latency,
        Instr::Ldg { .. } => cfg.mem_latency,
        Instr::Stg { .. } | Instr::Bra { .. } | Instr::Exit => 1,
    }
}

/// Cycles one warp instruction occupies the INT32 pipe.
pub(crate) fn int32_interval(cfg: &SmspConfig) -> u64 {
    u64::from(cfg.warp_size / cfg.int32_lanes.max(1)).max(1)
}

/// What a live warp is doing this cycle.
#[derive(Clone, Copy, PartialEq)]
enum Status {
    /// Blocked on a fixed-latency result.
    Wait,
    /// Blocked on a result a load is still producing.
    MemWait,
    /// Dependencies ready, INT32 pipe busy.
    Throttle,
    /// Dependencies ready, LSU busy — a memory stall, not a math-pipe one.
    MemThrottle,
    Eligible,
}

/// What a warp's next instruction needs before it can issue. It is a
/// function of the warp's pc and its own `ready` slots alone, and only the
/// warp's own commit changes either, so it is computed once per issued
/// instruction rather than once per cycle.
#[derive(Clone, Copy)]
struct NextIssue {
    /// When every dependency is readable.
    ready_at: u64,
    /// Whether the latest dependency is a pending load.
    mem_dep: bool,
    /// Whether the instruction issues into the INT32 pipe.
    int32: bool,
    /// Whether it issues into the LSU.
    lsu: bool,
}

/// Scoreboard and issue-port state of one SMSP with `warps` resident warps.
pub(crate) struct Scoreboard<'a> {
    cfg: &'a SmspConfig,
    map: &'a ResourceMap,
    /// `ready[warp * map.len() + map.index(resource)]`: the cycle the
    /// resource's latest value becomes readable.
    ready: Vec<u64>,
    /// Same indexing: whether that value is being produced by a load.
    mem_pending: Vec<bool>,
    int32_free_at: u64,
    mem_free_at: u64,
    int32_interval: u64,
    last_issued: usize,
    /// Per warp, its next instruction's needs (`None` once it has exited).
    next: Vec<Option<NextIssue>>,
    /// Per warp, whether `next` must be recomputed: every warp before the
    /// first cycle, then each warp after it commits.
    stale: Vec<bool>,
    cycle: u64,
    /// Warp-cycle breakdown so far.
    pub stalls: StallBreakdown,
    /// Cycles so far in which a warp was live but none could issue.
    pub no_eligible_cycles: u64,
}

impl<'a> Scoreboard<'a> {
    /// A clean scoreboard for `warps` warps of a program whose resources
    /// `map` indexes.
    pub(crate) fn new(cfg: &'a SmspConfig, map: &'a ResourceMap, warps: usize) -> Self {
        Self {
            cfg,
            map,
            ready: vec![0; warps * map.len()],
            mem_pending: vec![false; warps * map.len()],
            int32_free_at: 0,
            mem_free_at: 0,
            int32_interval: int32_interval(cfg),
            last_issued: 0,
            next: vec![None; warps],
            stale: vec![true; warps],
            cycle: 0,
            stalls: StallBreakdown::default(),
            no_eligible_cycles: 0,
        }
    }

    /// Cycles elapsed.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// When `inst`'s dependencies are all ready in `warp`, and whether the
    /// latest one is a pending load. A dependency replaces the current
    /// latest only when strictly later; the load flag follows register and
    /// carry dependencies (a carry is never load-produced, so it clears
    /// it) while a later predicate dependency leaves it as it was.
    fn dep_ready(&self, warp: usize, inst: &Instr) -> (u64, bool) {
        let base = warp * self.map.len();
        let (mut ready, mut mem) = (0u64, false);
        instr_uses(inst, |r| {
            let slot = base + self.map.index(r);
            if self.ready[slot] > ready {
                ready = self.ready[slot];
                if !matches!(r, Resource::Pred(_)) {
                    mem = self.mem_pending[slot];
                }
            }
        });
        (ready, mem)
    }

    /// This cycle's status of a warp about to issue `n`.
    fn status(&self, n: NextIssue) -> Status {
        if self.cycle < n.ready_at {
            if n.mem_dep {
                Status::MemWait
            } else {
                Status::Wait
            }
        } else if n.int32 && self.cycle < self.int32_free_at {
            Status::Throttle
        } else if n.lsu && self.cycle < self.mem_free_at {
            Status::MemThrottle
        } else {
            Status::Eligible
        }
    }

    /// Runs one scheduler cycle up to the pick. `next(w)` is the
    /// instruction warp `w` issues next, `None` once it has exited; it is
    /// asked for every warp before the first cycle and then only for the
    /// warp that last committed, since nothing else moves a warp's pc.
    /// Every live warp is classified and charged to a stall class, and the
    /// eligible warp after the last issued one, round-robin, is returned.
    /// `Some(w)` must be followed by [`Scoreboard::commit`] for `w`, which
    /// ends the cycle; `None` is an idle cycle, already ended.
    ///
    /// # Panics
    ///
    /// Panics when the cycle safety limit is reached.
    pub(crate) fn select(&mut self, mut next: impl FnMut(usize) -> Option<Instr>) -> Option<usize> {
        assert!(
            self.cycle < self.cfg.max_cycles,
            "cycle safety limit exceeded — runaway kernel?"
        );
        let n = self.next.len();
        let (mut live, mut eligible) = (false, 0u64);
        // The pick is the eligible warp nearest after `last_issued` in
        // round-robin order: the one with the smallest `distance`.
        let mut pick: Option<(usize, usize)> = None;
        for w in 0..n {
            if self.stale[w] {
                self.stale[w] = false;
                self.next[w] = next(w).map(|inst| {
                    let (ready_at, mem_dep) = self.dep_ready(w, &inst);
                    NextIssue {
                        ready_at,
                        mem_dep,
                        int32: inst.uses_int32_pipe(),
                        lsu: inst.uses_lsu(),
                    }
                });
            }
            let Some(issue) = self.next[w] else { continue };
            live = true;
            match self.status(issue) {
                Status::Wait => self.stalls.wait += 1,
                Status::MemWait | Status::MemThrottle => self.stalls.other += 1,
                Status::Throttle => self.stalls.math_pipe_throttle += 1,
                Status::Eligible => {
                    eligible += 1;
                    let distance = (w + n - self.last_issued - 1) % n;
                    if pick.is_none_or(|(_, d)| distance < d) {
                        pick = Some((w, distance));
                    }
                }
            }
        }
        match pick {
            Some((w, _)) => {
                self.stalls.selected += 1;
                self.stalls.not_selected += eligible - 1;
                self.last_issued = w;
                Some(w)
            }
            None => {
                self.no_eligible_cycles += u64::from(live);
                self.cycle += 1;
                None
            }
        }
    }

    /// Issues `inst` from `warp` in the current cycle and ends the cycle:
    /// occupies the instruction's pipe (the LSU for `wavefronts` cycles —
    /// ignored for non-memory instructions) and stamps every resource the
    /// instruction writes with its result latency. The last wavefront of
    /// an `LDG` returns `wavefronts - 1` cycles after the first, so
    /// Long-Scoreboard latency grows with serialized transactions.
    pub(crate) fn commit(&mut self, warp: usize, inst: &Instr, wavefronts: u64) {
        let is_load = matches!(inst, Instr::Ldg { .. });
        let mut latency = result_latency(inst, self.cfg);
        if inst.uses_int32_pipe() {
            self.int32_free_at = self.cycle + self.int32_interval;
        } else if inst.uses_lsu() {
            self.mem_free_at = self.cycle + wavefronts;
            if is_load {
                latency += wavefronts - 1;
            }
        }
        let base = warp * self.map.len();
        let ready_at = self.cycle + latency;
        instr_defs(inst, |r| {
            let slot = base + self.map.index(r);
            self.ready[slot] = ready_at;
            self.mem_pending[slot] = is_load;
        });
        self.stale[warp] = true;
        self.cycle += 1;
    }
}
