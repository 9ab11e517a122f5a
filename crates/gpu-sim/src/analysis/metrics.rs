//! Static per-kernel metrics: the numbers Nsight Compute's static section
//! reports for real SASS, computed for micro-ISA programs — instruction
//! mix, INT32-pipe issue share (Table VI / Obs. 8's ALU-bound story),
//! inferred register pressure, and dependence-chain depth (the serial
//! carry chains of Obs. 4).

use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::{instr_defs, instr_uses, Liveness, Resource, ResourceMap};
use crate::isa::Program;

/// Static properties of one program.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticMetrics {
    /// Total instruction count.
    pub instructions: usize,
    /// `(mnemonic, count)` histogram, as [`Program::static_mix`].
    pub mix: Vec<(&'static str, u64)>,
    /// Instructions dispatching to the INT32 pipe.
    pub int32_instructions: usize,
    /// `int32_instructions / instructions`.
    pub int32_share: f64,
    /// Share of `IMAD` in the static mix (the paper's FF_mul headline).
    pub imad_share: f64,
    /// Distinct 32-bit registers the program references anywhere — the
    /// allocator-footprint number the kernel layouts call `registers_used`.
    pub registers_touched: u32,
    /// Maximum simultaneously-live registers at any reachable point — the
    /// lower bound a register allocator could reach for this program.
    pub max_live_regs: u32,
    /// Longest register/carry/predicate dependence chain within a single
    /// basic block, in instructions. Long chains bound achievable ILP the
    /// same way the paper's carry chains do.
    pub dep_chain_depth: usize,
}

impl StaticMetrics {
    /// Computes all metrics for `program`.
    pub fn compute(program: &Program) -> Self {
        let cfg = Cfg::build(program);
        let instructions = program.len();
        let mix = program.static_mix();
        let int32_instructions = (0..instructions)
            .filter(|&pc| program.fetch(pc).uses_int32_pipe())
            .count();
        let imad = mix
            .iter()
            .find(|(m, _)| *m == "IMAD")
            .map_or(0, |(_, c)| *c) as f64;
        let total = instructions.max(1) as f64;

        let map = ResourceMap::of(program);
        let mut touched = vec![false; map.num_regs()];
        for pc in 0..instructions {
            let inst = program.fetch(pc);
            let mut mark = |r: Resource| {
                if let Resource::Reg(x) = r {
                    touched[x as usize] = true;
                }
            };
            instr_uses(&inst, &mut mark);
            instr_defs(&inst, &mut mark);
        }
        let registers_touched = touched.iter().filter(|&&t| t).count() as u32;

        let live = Liveness::compute(program, &cfg);
        let max_live_regs = live.max_live_registers(&cfg, program);

        StaticMetrics {
            instructions,
            mix,
            int32_instructions,
            int32_share: int32_instructions as f64 / total,
            imad_share: imad / total,
            registers_touched,
            max_live_regs,
            dep_chain_depth: dep_chain_depth(program, &cfg, &map),
        }
    }

    /// Serializes as a JSON object (the repo hand-rolls JSON; no serde).
    pub fn to_json(&self) -> String {
        let mix: Vec<String> = self
            .mix
            .iter()
            .map(|(m, c)| format!("{{\"mnemonic\":\"{m}\",\"count\":{c}}}"))
            .collect();
        format!(
            "{{\"instructions\":{},\"mix\":[{}],\"int32_instructions\":{},\
             \"int32_share\":{:.6},\"imad_share\":{:.6},\"registers_touched\":{},\
             \"max_live_regs\":{},\"dep_chain_depth\":{}}}",
            self.instructions,
            mix.join(","),
            self.int32_instructions,
            self.int32_share,
            self.imad_share,
            self.registers_touched,
            self.max_live_regs,
            self.dep_chain_depth
        )
    }
}

/// Longest dependence chain within any single reachable basic block:
/// `depth(i) = 1 + max(depth(last writer of each resource i reads))`,
/// resetting at block boundaries (straight-line ILP bound).
fn dep_chain_depth(program: &Program, cfg: &Cfg, map: &ResourceMap) -> usize {
    let mut max_depth = 0usize;
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        // depth of the chain ending at the last writer of each resource
        let mut writer_depth = vec![0usize; map.len()];
        for pc in blk.start..blk.end {
            let inst = program.fetch(pc);
            let mut d = 0usize;
            instr_uses(&inst, |r| d = d.max(writer_depth[map.index(r)]));
            let depth = d + 1;
            instr_defs(&inst, |r| writer_depth[map.index(r)] = depth);
            max_depth = max_depth.max(depth);
        }
    }
    max_depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{ProgramBuilder, Src};

    #[test]
    fn mix_and_shares_add_up() {
        let mut b = ProgramBuilder::new();
        b.ldg(0, 9, 0);
        b.imad(
            1,
            Src::Reg(0),
            Src::Reg(0),
            Src::Imm(0),
            false,
            false,
            false,
        );
        b.imad(
            2,
            Src::Reg(1),
            Src::Reg(0),
            Src::Imm(0),
            false,
            false,
            false,
        );
        b.stg(2, 9, 1);
        b.exit();
        let m = StaticMetrics::compute(&b.build());
        assert_eq!(m.instructions, 5);
        assert_eq!(m.int32_instructions, 2);
        assert!((m.imad_share - 0.4).abs() < 1e-12);
        assert!((m.int32_share - 0.4).abs() < 1e-12);
        assert_eq!(m.registers_touched, 4); // r0, r1, r2, r9
    }

    #[test]
    fn serial_chain_has_full_depth_parallel_has_one() {
        // Serial: each imad reads the previous one's result.
        let mut b = ProgramBuilder::new();
        b.mov(0, Src::Imm(1));
        for i in 1..=4u16 {
            b.imad(
                i,
                Src::Reg(i - 1),
                Src::Reg(i - 1),
                Src::Imm(0),
                false,
                false,
                false,
            );
        }
        b.exit();
        let serial = StaticMetrics::compute(&b.build());
        assert_eq!(serial.dep_chain_depth, 5); // mov + 4 dependent imads

        // Parallel: all movs independent.
        let mut b = ProgramBuilder::new();
        for i in 0..5u16 {
            b.mov(i, Src::Imm(u32::from(i)));
        }
        b.exit();
        let par = StaticMetrics::compute(&b.build());
        assert_eq!(par.dep_chain_depth, 1);
    }

    #[test]
    fn max_live_is_at_most_registers_touched() {
        let mut b = ProgramBuilder::new();
        b.mov(0, Src::Imm(3));
        b.imad(
            1,
            Src::Reg(0),
            Src::Reg(0),
            Src::Imm(0),
            false,
            false,
            false,
        );
        b.mov(0, Src::Imm(4)); // r0 reused: touched 2 regs, live peak 1
        b.stg(1, 0, 0);
        b.exit();
        let m = StaticMetrics::compute(&b.build());
        assert!(m.max_live_regs <= m.registers_touched);
        assert_eq!(m.registers_touched, 2);
        assert_eq!(m.max_live_regs, 2); // r0 and r1 both live before stg
    }
}
