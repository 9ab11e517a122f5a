//! Differential validation of the static memory-access analyzer
//! (`gpu_sim::analysis::memory`) against the cycle-accurate simulator's
//! DRAM sector counters.
//!
//! Three tiers:
//!
//! 1. **Exactness on the shipped kernels**: every FF kernel (all four
//!    fields, warp-interleaved layout) is statically classified fully
//!    coalesced and its predicted 32B-sector transactions and bytes
//!    equal the simulator's counters *exactly*, at 1/2/8 resident
//!    warps, on V100 / A100 / H100 configurations. The curve kernels
//!    (deliberately AoS — the paper's scattered MSM bucket case) are
//!    strided but still provably affine, so they are exact too.
//! 2. **Property test**: random affine access patterns (random lane
//!    stride, alignment, offsets) over synthetic programs predict the
//!    simulator's transactions byte-for-byte at 1/2/8 warps.
//! 3. **Negative cases**: a data-dependent scatter is classified
//!    `Unprovable` (the prediction degrades to a sound upper bound and
//!    the uncoalesced lint fires), and the optimizer's CSE keeps a
//!    reload past a may-aliasing store.

use gpu_kernels::catalog::{catalog, launch, random_operands, Layout};
use gpu_kernels::ffprogs::ff_kernel;
use gpu_kernels::{FfOp, Field32};
use gpu_sim::analysis::{
    analyze_memory, optimize_with_config, AccessPattern, LintKind, MemContracts, OptOptions,
    ScheduleHints,
};
use gpu_sim::device::{a100, h100, v100, DeviceSpec};
use gpu_sim::isa::{Instr, Program, ProgramBuilder, Src};
use gpu_sim::machine::{Machine, SmspConfig, WarpInit};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn generations() -> [DeviceSpec; 3] {
    [v100(), a100(), h100()]
}

/// Every FF kernel: fully coalesced, lint-clean, and byte-exact against
/// the simulator on every generation at 1/2/8 warps.
#[test]
fn ff_kernels_are_fully_coalesced_and_byte_exact() {
    for device in &generations() {
        let config = SmspConfig::from(device);
        for field in &Field32::supported() {
            let fname = field.name;
            for op in FfOp::all() {
                let kernel = ff_kernel(field, op, 1);
                let mem = kernel.memory(&config);
                assert!(mem.exact, "{op:?} {fname}");
                assert!(mem.lints.is_empty(), "{op:?} {fname}: {:?}", mem.lints);
                for a in &mem.accesses {
                    assert_eq!(a.pattern, AccessPattern::Coalesced, "{op:?} {fname}");
                }
                for warps in [1usize, 2, 8] {
                    let operands = random_operands(&kernel, warps, 3 + warps as u64);
                    let sim = launch(&kernel, &kernel.program, &config, warps, &operands).sim;
                    let w = warps as u64;
                    let tag = format!("{} {fname} x{warps}w on {}", op.name(), device.name);
                    assert_eq!(mem.transactions_per_warp * w, sim.mem_transactions, "{tag}");
                    assert_eq!(
                        mem.bytes_loaded_per_warp * w,
                        sim.dram_bytes_loaded,
                        "{tag}"
                    );
                    assert_eq!(
                        mem.bytes_stored_per_warp * w,
                        sim.dram_bytes_stored,
                        "{tag}"
                    );
                    // The static INT32-op count assumes the full-warp
                    // fall-through trace; a uniformly-taken reduce branch
                    // can only remove work from the measured run.
                    assert!(mem.int_ops_per_warp * w >= sim.int_ops, "{tag}");
                }
            }
        }
    }
}

/// The curve kernels keep the paper's scattered AoS layout: strided but
/// affine, so the static traffic prediction is still exact.
#[test]
fn curve_kernels_are_strided_but_exact() {
    let config = SmspConfig::default();
    let curve: Vec<_> = catalog()
        .into_iter()
        .filter(|k| k.layout == Layout::Aos)
        .collect();
    assert_eq!(curve.len(), 2);
    for kernel in curve {
        let operands = random_operands(&kernel, 1, 5);
        let sim = launch(&kernel, &kernel.program, &config, 1, &operands).sim;
        let mem = kernel.memory(&config);
        assert!(mem.exact, "{}", kernel.name);
        assert!(
            mem.accesses
                .iter()
                .all(|a| matches!(a.pattern, AccessPattern::Strided(_))),
            "{}",
            kernel.name
        );
        assert_eq!(
            mem.transactions_per_warp, sim.mem_transactions,
            "{}",
            kernel.name
        );
        assert_eq!(mem.bytes_per_warp(), sim.dram_bytes(), "{}", kernel.name);
        assert!(
            mem.lints
                .iter()
                .any(|l| l.kind == LintKind::UncoalescedAccess),
            "{}",
            kernel.name
        );
    }
}

/// A synthetic straight-line kernel with `loads` LDGs and `stores` STGs
/// through a contract pointer (the lane stride lives in the contract and
/// the harness's per-thread addresses, not the program text).
fn affine_program(loads: u32, stores: u32, offset_step: u32) -> Program {
    let addr = 1u16;
    let mut b = ProgramBuilder::new();
    for j in 0..loads {
        b.ldg(10 + j as u16, addr, j * offset_step);
    }
    // A little arithmetic so stored values depend on the loads.
    b.iadd3(8, Src::Reg(10), Src::Imm(1), Src::Imm(0), false, false);
    for j in 0..stores {
        b.stg(8, addr, (loads + j) * offset_step);
    }
    b.exit();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random affine patterns: static transactions and bytes equal the
    /// simulator's counters exactly, at 1/2/8 resident warps.
    #[test]
    fn random_affine_patterns_predict_exactly(
        stride in 0u32..9,
        loads in 1u32..5,
        stores in 0u32..3,
        offset_step in (0usize..3).prop_map(|i| [1u32, 8, 32][i]),
        warps in (0usize..3).prop_map(|i| [1usize, 2, 8][i]),
    ) {
        let config = SmspConfig::default();
        let program = affine_program(loads, stores, offset_step);
        let mut contracts = MemContracts::new();
        contracts.declare(1, stride, 8);
        let mem = analyze_memory(
            &program,
            &[1],
            &contracts,
            &ScheduleHints::new(),
            &config,
        );
        prop_assert!(mem.exact);

        // One region per warp, 8-word aligned, sized past the deepest
        // access any lane can make.
        let span = 8 * (31 * stride + (loads + stores) * offset_step + 8) as usize;
        let mut machine = Machine::new(config, warps * span);
        let inits: Vec<WarpInit> = (0..warps)
            .map(|w| {
                let mut init = WarpInit::default();
                let mut addrs = [0u32; 32];
                for (t, a) in addrs.iter_mut().enumerate() {
                    *a = (w * span) as u32 + stride * t as u32;
                }
                init.per_thread(1, addrs);
                init
            })
            .collect();
        let sim = machine.run(&program, &inits);
        let w = warps as u64;
        prop_assert_eq!(mem.transactions_per_warp * w, sim.mem_transactions);
        prop_assert_eq!(mem.bytes_loaded_per_warp * w, sim.dram_bytes_loaded);
        prop_assert_eq!(mem.bytes_stored_per_warp * w, sim.dram_bytes_stored);
    }
}

/// A data-dependent scatter (addresses loaded from memory) cannot be
/// proven affine: the pattern is `Unprovable`, the access is charged one
/// sector per lane, the uncoalesced lint fires, and the static byte count
/// degrades to a sound upper bound.
#[test]
fn scattered_gather_is_unprovable_and_bounded() {
    let addr_tbl = 1u16;
    let mut b = ProgramBuilder::new();
    b.ldg(2, addr_tbl, 0); // per-lane index loaded from memory
    b.ldg(3, 2, 0); // the gather through it
    b.stg(3, addr_tbl, 32);
    b.exit();
    let program = b.build();
    let mut contracts = MemContracts::new();
    contracts.declare(addr_tbl, 1, 32);
    let config = SmspConfig::default();
    let mem = analyze_memory(
        &program,
        &[addr_tbl],
        &contracts,
        &ScheduleHints::new(),
        &config,
    );
    assert!(!mem.exact);
    let gather = mem.accesses.iter().find(|a| a.pc == 1).expect("gather");
    assert_eq!(gather.pattern, AccessPattern::Unprovable);
    assert_eq!(gather.sectors_bound, config.warp_size);
    assert!(mem
        .lints
        .iter()
        .any(|l| l.kind == LintKind::UncoalescedAccess));

    // Simulate an actual scatter: the static bound must cover it.
    let mut machine = Machine::new(config, 4096);
    let mut rng = StdRng::seed_from_u64(9);
    for t in 0..32usize {
        machine.global_mem[t] = 128 + rng.gen_range(0..1024u32) / 8 * 8;
    }
    let mut init = WarpInit::default();
    let mut addrs = [0u32; 32];
    for (t, a) in addrs.iter_mut().enumerate() {
        *a = t as u32;
    }
    init.per_thread(addr_tbl as usize, addrs);
    let sim = machine.run(&program, &[init]);
    assert!(
        mem.bytes_per_warp() >= sim.dram_bytes(),
        "bound {} vs measured {}",
        mem.bytes_per_warp(),
        sim.dram_bytes()
    );
}

/// A reload *past a may-aliasing store* must not be eliminated: both
/// pointers come from the same contract base, one limb apart, so the
/// store may hit the loaded word.
#[test]
fn may_alias_store_suppresses_redundant_load_at_kernel_level() {
    let addr = 1u16;
    let mut b = ProgramBuilder::new();
    b.ldg(2, addr, 0);
    b.stg(2, addr, 1); // may alias [addr+0] across lanes (stride 1)
    b.ldg(3, addr, 0); // NOT redundant: the store may have clobbered it
    b.stg(3, addr, 2);
    b.exit();
    let program = b.build();
    let mut contracts = MemContracts::new();
    contracts.declare(addr, 1, 8);
    let opts = OptOptions {
        inputs: vec![addr],
        contracts,
        warps: 1,
        ..OptOptions::default()
    };
    let out = optimize_with_config(&program, &SmspConfig::default(), &opts)
        .expect("synthetic program must optimize");
    assert_eq!(out.report.loads_eliminated, 0, "{:?}", out.report);
    let reload = out.pc_map[2].expect("the reload must survive");
    assert!(matches!(out.program.fetch(reload), Instr::Ldg { .. }));
}
