//! Failure-injection tests: the simulator must fail loudly (not silently
//! corrupt state) on kernel bugs — out-of-bounds accesses, unsupported
//! divergence shapes, and runaway loops.

use gpu_sim::analysis::{predict_schedule, MemTimings, ScheduleHints};
use gpu_sim::isa::{CmpOp, ProgramBuilder, Src};
use gpu_sim::machine::{Machine, SmspConfig, WarpInit};

fn r(x: u16) -> Src {
    Src::Reg(x)
}
fn imm(x: u32) -> Src {
    Src::Imm(x)
}

fn thread_ids() -> [u32; 32] {
    let mut t = [0u32; 32];
    for (i, v) in t.iter_mut().enumerate() {
        *v = i as u32;
    }
    t
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn out_of_bounds_load_panics() {
    let mut b = ProgramBuilder::new();
    b.mov(0, imm(10_000));
    b.ldg(1, 0, 0);
    b.exit();
    let p = b.build();
    let mut m = Machine::new(SmspConfig::default(), 16);
    m.run(&p, &[WarpInit::default()]);
}

#[test]
#[should_panic(expected = "cycle safety limit")]
fn infinite_loop_hits_the_cycle_guard() {
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.place(top);
    b.iadd3(0, r(0), imm(1), imm(0), false, false);
    b.bra(top, None); // unconditional backward branch: spins forever
    b.exit();
    let p = b.build();
    let cfg = SmspConfig {
        max_cycles: 10_000,
        ..SmspConfig::default()
    };
    let mut m = Machine::new(cfg, 0);
    m.run(&p, &[WarpInit::default()]);
}

#[test]
#[should_panic(expected = "divergent backward branches")]
fn divergent_backward_branch_is_rejected() {
    // Threads disagree about looping -> unsupported SIMT shape.
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.place(top);
    b.iadd3(1, r(1), imm(1), imm(0), false, false);
    // tid < 5 loops again once; others exit the loop — divergent at the
    // backward branch.
    b.setp(0, r(0), imm(5), CmpOp::Lt);
    b.setp(1, r(1), imm(2), CmpOp::Lt);
    b.bra(top, Some((0, true)));
    b.exit();
    let p = b.build();
    let mut init = WarpInit::default();
    init.per_thread(0, thread_ids());
    let mut m = Machine::new(SmspConfig::default(), 0);
    m.run(&p, &[init]);
}

#[test]
#[should_panic(expected = "divergent EXIT")]
fn divergent_exit_is_rejected() {
    // Half the warp skips over the EXIT to a second EXIT — the first EXIT
    // executes with a partial mask.
    let mut b = ProgramBuilder::new();
    let skip = b.label();
    b.setp(0, r(0), imm(16), CmpOp::Lt);
    b.bra(skip, Some((0, true)));
    b.exit(); // only the upper half arrives here
    b.place(skip);
    b.exit();
    let p = b.build();
    let mut init = WarpInit::default();
    init.per_thread(0, thread_ids());
    let mut m = Machine::new(SmspConfig::default(), 0);
    m.run(&p, &[init]);
}

#[test]
fn nested_divergence_reconverges() {
    // Two nested data-dependent skips; all threads must reconverge and the
    // per-thread results must reflect exactly the paths taken.
    let mut b = ProgramBuilder::new();
    let outer = b.label();
    let inner = b.label();
    b.mov(1, imm(0));
    b.setp(0, r(0), imm(16), CmpOp::Ge); // tid >= 16 skips everything
    b.bra(outer, Some((0, true)));
    b.iadd3(1, r(1), imm(1), imm(0), false, false); // +1 for tid < 16
    b.setp(1, r(0), imm(8), CmpOp::Ge); // tid in 8..16 skips the inner add
    b.bra(inner, Some((1, true)));
    b.iadd3(1, r(1), imm(10), imm(0), false, false); // +10 for tid < 8
    b.place(inner);
    b.iadd3(1, r(1), imm(100), imm(0), false, false); // +100 for tid < 16
    b.place(outer);
    b.stg(1, 2, 0);
    b.exit();
    let p = b.build();
    let mut init = WarpInit::default();
    init.per_thread(0, thread_ids());
    let mut addrs = [0u32; 32];
    for (i, a) in addrs.iter_mut().enumerate() {
        *a = i as u32;
    }
    init.per_thread(2, addrs);
    let mut m = Machine::new(SmspConfig::default(), 32);
    let res = m.run(&p, &[init]);
    for t in 0..32 {
        let expect = if t < 8 {
            111
        } else if t < 16 {
            101
        } else {
            0
        };
        assert_eq!(m.global_mem[t], expect, "thread {t}");
    }
    assert_eq!(res.branches, 2);
    assert_eq!(res.divergent_branches, 2);
}

#[test]
fn warp_size_smaller_than_32_works() {
    // Degenerate SMSP configs (e.g. modelling partial warps) still run.
    let cfg = SmspConfig {
        warp_size: 8,
        int32_lanes: 4,
        ..SmspConfig::default()
    };
    let mut b = ProgramBuilder::new();
    b.iadd3(1, r(0), imm(5), imm(0), false, false);
    b.stg(1, 2, 0);
    b.exit();
    let p = b.build();
    let mut init = WarpInit::default();
    init.per_thread(0, thread_ids());
    let mut addrs = [0u32; 32];
    for (i, a) in addrs.iter_mut().enumerate() {
        *a = i as u32;
    }
    init.per_thread(2, addrs);
    let mut m = Machine::new(cfg, 32);
    let res = m.run(&p, &[init]);
    // Only the 8 active lanes stored.
    for t in 0..8 {
        assert_eq!(m.global_mem[t], t as u32 + 5);
    }
    for t in 8..32 {
        assert_eq!(m.global_mem[t], 0);
    }
    assert_eq!(res.bytes_stored, 4 * 8);
}

/// A kernel on an SMSP whose warps have `warp_size` lanes.
fn run_with_warp_size(warp_size: u32) {
    let cfg = SmspConfig {
        warp_size,
        ..SmspConfig::default()
    };
    let mut b = ProgramBuilder::new();
    b.iadd3(1, r(0), imm(5), imm(0), false, false);
    b.exit();
    let mut m = Machine::new(cfg, 0);
    m.run(&b.build(), &[WarpInit::default()]);
}

#[test]
#[should_panic(expected = "warp_size must be in 1..=32")]
fn zero_lane_warps_are_rejected() {
    // Every lane would be masked off: the kernel would "run" on nothing.
    run_with_warp_size(0);
}

#[test]
#[should_panic(expected = "warp_size must be in 1..=32")]
fn warps_wider_than_a_register_row_are_rejected() {
    // The active mask and a register row hold 32 lanes.
    run_with_warp_size(33);
}

#[test]
fn no_eligible_cycles_counted_during_memory_waits() {
    // A single warp blocked on a load leaves the scheduler idle.
    let mut b = ProgramBuilder::new();
    b.ldg(1, 0, 0);
    b.iadd3(2, r(1), imm(1), imm(0), false, false);
    b.exit();
    let p = b.build();
    let cfg = SmspConfig {
        mem_latency: 100,
        ..SmspConfig::default()
    };
    let mut m = Machine::new(cfg, 32);
    let res = m.run(&p, &[WarpInit::default()]);
    assert!(res.no_eligible_cycles >= 90, "{}", res.no_eligible_cycles);
    assert!(res.stalls.other >= 90);
}

#[test]
fn register_file_is_sized_by_the_program_for_simulator_and_predictor_alike() {
    // r300 is past the 256-register file the simulator used to allocate
    // regardless of the program, while the predictor sized its scoreboard
    // from the program: one accepted what the other died on.
    let mut b = ProgramBuilder::new();
    b.mov(300, imm(41));
    b.iadd3(300, r(300), r(301), imm(0), false, false);
    b.stg(300, 0, 0);
    b.exit();
    let p = b.build();
    let cfg = SmspConfig::default();
    for warps in [1usize, 2] {
        // r301 comes from the launch state, which may also name registers
        // the program does not (r400 here).
        let mut init = WarpInit::default();
        init.broadcast(301, 1);
        init.broadcast(400, 7);
        let mut m = Machine::new(cfg.clone(), 1);
        let sim = m.run(&p, &vec![init; warps]);
        assert_eq!(m.global_mem[0], 42);
        let pred = predict_schedule(
            &p,
            &cfg,
            warps as u32,
            &ScheduleHints::new(),
            &MemTimings::default(),
        )
        .unwrap();
        assert_eq!(pred.cycles, sim.cycles, "warps={warps}");
        assert_eq!(pred.stalls, sim.stalls, "warps={warps}");
    }
}
