//! Golden table of the SMSP timing model's exact outputs.
//!
//! `schedule_validation` holds predictor and simulator within ±3% of each
//! other; nothing else pins the *absolute* numbers — the full stall
//! breakdown of a simulated run, or the critical path of a prediction. The
//! table below does: it was generated at the commit before the simulator
//! and the predictor were moved onto one shared issue model, and any edit
//! to the timing model (latencies, issue rules, stall classification) must
//! show up here as a deliberate table change. The `sim` rows of the two
//! curve kernels (LDG wavefront tails, the most live registers) and of a
//! nested-divergence program (reconvergence-stack pops at warp-private
//! pcs) reach scoreboard and executor paths the FF rows do not; they also
//! pin an FNV-1a digest of the memory the run leaves behind. On mismatch
//! the test prints the complete actual table, ready to paste.

use gpu_kernels::catalog::{launch, random_operands};
use gpu_kernels::curveprogs::{butterfly_kernel, xyzz_madd_kernel};
use gpu_kernels::microbench::{run_ff_op, FfInputs};
use gpu_kernels::optimized::{optimized_zoo, OPT_WARPS};
use gpu_kernels::{FfOp, Field32};
use gpu_sim::analysis::SchedulePrediction;
use gpu_sim::device::v100;
use gpu_sim::isa::{CmpOp, Program, ProgramBuilder, Src};
use gpu_sim::machine::{Machine, SimResult, SmspConfig, StallBreakdown, WarpInit};
use zkp_ff::{Fq381Config, Fr381Config};

const SEED: u64 = 0x5eed_601d;

fn stalls(s: &StallBreakdown) -> String {
    format!(
        "selected={} wait={} throttle={} not_selected={} other={}",
        s.selected, s.wait, s.math_pipe_throttle, s.not_selected, s.other
    )
}

fn prediction(p: &SchedulePrediction) -> String {
    format!(
        "cycles={} {} no_eligible={} critical_path={} trace_len={}",
        p.cycles,
        stalls(&p.stalls),
        p.no_eligible_cycles,
        p.critical_path,
        p.trace_len
    )
}

/// FNV-1a over 32-bit words.
fn digest<'a>(words: impl IntoIterator<Item = &'a u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn sim_row(name: &str, warps: usize, sim: &SimResult, out: u64) -> String {
    format!(
        "sim {name} w{warps}: cycles={} instructions={} {} no_eligible={} \
         branches={} divergent={} mem_transactions={} out={out:016x}",
        sim.cycles,
        sim.instructions,
        stalls(&sim.stalls),
        sim.no_eligible_cycles,
        sim.branches,
        sim.divergent_branches,
        sim.mem_transactions
    )
}

/// Two nested data-dependent skips over a short carry chain, then a
/// store of every result: lane `t` of warp `w` holds `t·(2w+1) mod 32`
/// in r0, so each warp diverges on a different lane mask.
fn nested_divergence() -> Program {
    let (r, imm) = (Src::Reg, Src::Imm);
    let mut b = ProgramBuilder::new();
    let outer = b.label();
    let inner = b.label();
    b.mov(1, imm(0));
    b.setp(0, r(0), imm(16), CmpOp::Ge);
    b.bra(outer, Some((0, true)));
    b.imad(1, r(0), r(0), imm(7), false, true, false);
    b.iadd3(3, r(1), imm(u32::MAX), imm(0), true, false);
    b.setp(1, r(0), imm(8), CmpOp::Ge);
    b.bra(inner, Some((1, true)));
    b.iadd3(1, r(1), imm(10), imm(0), false, true);
    b.ldg(4, 2, 0);
    b.iadd3(1, r(1), r(4), imm(0), false, false);
    b.place(inner);
    b.iadd3(1, r(1), imm(100), imm(0), false, false);
    b.place(outer);
    b.stg(1, 2, 0);
    b.stg(3, 2, 32);
    b.exit();
    b.build()
}

fn actual_table() -> String {
    let mut rows = Vec::new();
    let config = SmspConfig::default();
    let fields = [
        Field32::of::<Fr381Config, 4>(),
        Field32::of::<Fq381Config, 6>(),
    ];
    for field in &fields {
        for op in FfOp::all() {
            for warps in [1usize, 2, 8] {
                let inputs = FfInputs::random(field, warps, SEED);
                let sim = run_ff_op(field, op, &config, &inputs, warps, 2).sim;
                rows.push(format!(
                    "sim {} {} w{}: cycles={} instructions={} {} no_eligible={} \
                     branches={} divergent={} mem_transactions={}",
                    op.name(),
                    field.name,
                    warps,
                    sim.cycles,
                    sim.instructions,
                    stalls(&sim.stalls),
                    sim.no_eligible_cycles,
                    sim.branches,
                    sim.divergent_branches,
                    sim.mem_transactions
                ));
            }
        }
    }
    for kernel in [xyzz_madd_kernel(&fields[1]), butterfly_kernel(&fields[0])] {
        for warps in [1usize, 2, 8] {
            let operands = random_operands(&kernel, warps, SEED);
            let run = launch(&kernel, &kernel.program, &config, warps, &operands);
            let out = digest(run.regions.iter().flatten().flatten());
            let name = format!("{} {}", kernel.name, kernel.field.name);
            rows.push(sim_row(&name, warps, &run.sim, out));
        }
    }
    let program = nested_divergence();
    for warps in [1usize, 2, 8] {
        let inits: Vec<WarpInit> = (0..warps)
            .map(|w| {
                let mut init = WarpInit::default();
                init.per_thread(0, std::array::from_fn(|t| (t * (2 * w + 1) % 32) as u32));
                init.per_thread(2, std::array::from_fn(|t| (w * 64 + t) as u32));
                init
            })
            .collect();
        let mut machine = Machine::new(config.clone(), warps * 64);
        for (i, word) in machine.global_mem.iter_mut().enumerate() {
            *word = (i as u32).wrapping_mul(0x9e37_79b9);
        }
        let sim = machine.run(&program, &inits);
        rows.push(sim_row(
            "nested divergence",
            warps,
            &sim,
            digest(&machine.global_mem),
        ));
    }
    for k in optimized_zoo(&v100()) {
        let report = &k.optimized.report;
        assert_eq!(report.warps, OPT_WARPS);
        for (label, pred) in [("before", &report.before), ("after", &report.after)] {
            let pred = pred.as_ref().expect("zoo kernels are schedulable");
            rows.push(format!(
                "zoo {} {} {label}: {}",
                k.kernel.name,
                k.kernel.field.name,
                prediction(pred)
            ));
        }
    }
    rows.join("\n")
}

#[test]
fn timing_model_outputs_match_the_committed_table() {
    let actual = actual_table();
    assert!(
        actual == GOLDEN.trim(),
        "timing model outputs changed; actual table:\n{actual}\n"
    );
}

const GOLDEN: &str = "
sim FF_add BLS12-381 Fr w1: cycles=163 instructions=86 selected=86 wait=38 throttle=18 not_selected=0 other=21 no_eligible=77 branches=4 divergent=2 mem_transactions=96
sim FF_add BLS12-381 Fr w2: cycles=292 instructions=172 selected=172 wait=75 throttle=145 not_selected=165 other=26 no_eligible=120 branches=8 divergent=4 mem_transactions=192
sim FF_add BLS12-381 Fr w8: cycles=1125 instructions=688 selected=688 wait=304 throttle=3304 not_selected=4599 other=0 no_eligible=437 branches=32 divergent=16 mem_transactions=768
sim FF_sub BLS12-381 Fr w1: cycles=163 instructions=86 selected=86 wait=40 throttle=16 not_selected=0 other=21 no_eligible=77 branches=4 divergent=2 mem_transactions=96
sim FF_sub BLS12-381 Fr w2: cycles=292 instructions=172 selected=172 wait=80 throttle=141 not_selected=165 other=25 no_eligible=120 branches=8 divergent=4 mem_transactions=192
sim FF_sub BLS12-381 Fr w8: cycles=1125 instructions=688 selected=688 wait=320 throttle=3288 not_selected=4599 other=0 no_eligible=437 branches=32 divergent=16 mem_transactions=768
sim FF_dbl BLS12-381 Fr w1: cycles=144 instructions=70 selected=70 wait=28 throttle=18 not_selected=0 other=28 no_eligible=74 branches=6 divergent=2 mem_transactions=64
sim FF_dbl BLS12-381 Fr w2: cycles=252 instructions=140 selected=140 wait=56 throttle=123 not_selected=131 other=53 no_eligible=112 branches=12 divergent=4 mem_transactions=128
sim FF_dbl BLS12-381 Fr w8: cycles=915 instructions=560 selected=560 wait=224 throttle=2688 not_selected=3603 other=140 no_eligible=355 branches=48 divergent=16 mem_transactions=512
sim FF_mul BLS12-381 Fr w1: cycles=2519 instructions=746 selected=746 wait=1640 throttle=132 not_selected=0 other=1 no_eligible=1773 branches=4 divergent=2 mem_transactions=96
sim FF_mul BLS12-381 Fr w2: cycles=2899 instructions=1484 selected=1484 wait=3280 throttle=617 not_selected=409 other=0 no_eligible=1415 branches=8 divergent=3 mem_transactions=192
sim FF_mul BLS12-381 Fr w8: cycles=11685 instructions=5968 selected=5968 wait=13120 throttle=36952 not_selected=37335 other=0 no_eligible=5717 branches=32 divergent=16 mem_transactions=768
sim FF_sqr BLS12-381 Fr w1: cycles=2511 instructions=738 selected=738 wait=1640 throttle=132 not_selected=0 other=1 no_eligible=1773 branches=4 divergent=2 mem_transactions=64
sim FF_sqr BLS12-381 Fr w2: cycles=2906 instructions=1476 selected=1476 wait=3280 throttle=640 not_selected=415 other=0 no_eligible=1430 branches=8 divergent=4 mem_transactions=128
sim FF_sqr BLS12-381 Fr w8: cycles=11621 instructions=5904 selected=5904 wait=13120 throttle=36952 not_selected=36887 other=0 no_eligible=5717 branches=32 divergent=16 mem_transactions=512
sim FF_add BLS12-381 Fq w1: cycles=219 instructions=122 selected=122 wait=54 throttle=26 not_selected=0 other=17 no_eligible=97 branches=4 divergent=2 mem_transactions=144
sim FF_add BLS12-381 Fq w2: cycles=404 instructions=244 selected=244 wait=107 throttle=209 not_selected=237 other=10 no_eligible=160 branches=8 divergent=4 mem_transactions=288
sim FF_add BLS12-381 Fq w8: cycles=1605 instructions=976 selected=976 wait=432 throttle=4712 not_selected=6615 other=0 no_eligible=629 branches=32 divergent=16 mem_transactions=1152
sim FF_sub BLS12-381 Fq w1: cycles=219 instructions=122 selected=122 wait=56 throttle=24 not_selected=0 other=17 no_eligible=97 branches=4 divergent=2 mem_transactions=144
sim FF_sub BLS12-381 Fq w2: cycles=404 instructions=244 selected=244 wait=112 throttle=205 not_selected=237 other=9 no_eligible=160 branches=8 divergent=4 mem_transactions=288
sim FF_sub BLS12-381 Fq w8: cycles=1605 instructions=976 selected=976 wait=448 throttle=4696 not_selected=6615 other=0 no_eligible=629 branches=32 divergent=16 mem_transactions=1152
sim FF_dbl BLS12-381 Fq w1: cycles=184 instructions=94 selected=94 wait=36 throttle=26 not_selected=0 other=28 no_eligible=90 branches=6 divergent=2 mem_transactions=96
sim FF_dbl BLS12-381 Fq w2: cycles=332 instructions=188 selected=188 wait=72 throttle=171 not_selected=179 other=53 no_eligible=144 branches=12 divergent=4 mem_transactions=192
sim FF_dbl BLS12-381 Fq w8: cycles=1235 instructions=752 selected=752 wait=288 throttle=3648 not_selected=4947 other=140 no_eligible=483 branches=48 divergent=16 mem_transactions=768
sim FF_mul BLS12-381 Fq w1: cycles=5275 instructions=1482 selected=1482 wait=3608 throttle=185 not_selected=0 other=0 no_eligible=3793 branches=4 divergent=1 mem_transactions=144
sim FF_mul BLS12-381 Fq w2: cycles=5890 instructions=2988 selected=2988 wait=7216 throttle=944 not_selected=631 other=0 no_eligible=2902 branches=8 divergent=4 mem_transactions=288
sim FF_mul BLS12-381 Fq w8: cycles=23349 instructions=11868 selected=11868 wait=28864 throttle=72643 not_selected=72896 other=0 no_eligible=11481 branches=32 divergent=9 mem_transactions=1152
sim FF_sqr BLS12-381 Fq w1: cycles=5287 instructions=1482 selected=1482 wait=3608 throttle=197 not_selected=0 other=0 no_eligible=3805 branches=4 divergent=2 mem_transactions=96
sim FF_sqr BLS12-381 Fq w2: cycles=5866 instructions=2964 selected=2964 wait=7216 throttle=944 not_selected=607 other=0 no_eligible=2902 branches=8 divergent=4 mem_transactions=192
sim FF_sqr BLS12-381 Fq w8: cycles=23274 instructions=11796 selected=11796 wait=28864 throttle=72635 not_selected=72082 other=0 no_eligible=11478 branches=32 divergent=11 mem_transactions=768
sim XYZZ madd BLS12-381 Fq w1: cycles=27670 instructions=7612 selected=7612 wait=18194 throttle=1038 not_selected=0 other=826 no_eligible=20058 branches=18 divergent=14 mem_transactions=3840 out=35d3df4ea4580644
sim XYZZ madd BLS12-381 Fq w2: cycles=31778 instructions=15224 selected=15224 wait=36388 throttle=5216 not_selected=3410 other=3294 no_eligible=16554 branches=36 divergent=28 mem_transactions=7680 out=20774d4596a894de
sim XYZZ madd BLS12-381 Fq w8: cycles=126336 instructions=60776 selected=60776 wait=145552 throttle=377614 not_selected=375418 other=47313 no_eligible=65560 branches=144 divergent=102 mem_transactions=30720 out=f5281cdf8db653eb
sim NTT butterfly BLS12-381 Fr w1: cycles=1653 instructions=452 selected=452 wait=853 throttle=82 not_selected=0 other=266 no_eligible=1201 branches=3 divergent=3 mem_transactions=1280 out=f6f0dc55b75fd5db
sim NTT butterfly BLS12-381 Fr w2: cycles=2240 instructions=904 selected=904 wait=1706 throttle=437 not_selected=353 other=1056 no_eligible=1336 branches=6 divergent=6 mem_transactions=2560 out=5855b73bddbea2c2
sim NTT butterfly BLS12-381 Fr w8: cycles=8878 instructions=3608 selected=3608 wait=6824 throttle=20978 not_selected=22360 other=16198 no_eligible=5270 branches=24 divergent=23 mem_transactions=10240 out=03ebcca45eb531f0
sim nested divergence w1: cycles=52 instructions=14 selected=14 wait=7 throttle=2 not_selected=0 other=29 no_eligible=38 branches=2 divergent=2 mem_transactions=9 out=b01b82eb45e53a66
sim nested divergence w2: cycles=66 instructions=28 selected=28 wait=14 throttle=13 not_selected=18 other=58 no_eligible=38 branches=4 divergent=4 mem_transactions=20 out=caf443e75ed54fa8
sim nested divergence w8: cycles=168 instructions=112 selected=112 wait=56 throttle=364 not_selected=491 other=232 no_eligible=56 branches=16 divergent=16 mem_transactions=90 out=0c4f2847fcc26691
zoo FF_add BLS12-381 Fq before: cycles=242 selected=160 wait=53 throttle=105 not_selected=155 other=10 no_eligible=82 critical_path=61 trace_len=80
zoo FF_add BLS12-381 Fq after: cycles=242 selected=160 wait=53 throttle=105 not_selected=155 other=10 no_eligible=82 critical_path=61 trace_len=80
zoo FF_sub BLS12-381 Fq before: cycles=242 selected=160 wait=56 throttle=103 not_selected=155 other=9 no_eligible=82 critical_path=61 trace_len=80
zoo FF_sub BLS12-381 Fq after: cycles=242 selected=160 wait=56 throttle=103 not_selected=155 other=9 no_eligible=82 critical_path=61 trace_len=80
zoo FF_dbl BLS12-381 Fq before: cycles=205 selected=120 wait=36 throttle=86 not_selected=114 other=53 no_eligible=85 critical_path=57 trace_len=60
zoo FF_dbl BLS12-381 Fq after: cycles=205 selected=120 wait=32 throttle=90 not_selected=114 other=53 no_eligible=85 critical_path=57 trace_len=60
zoo FF_mul BLS12-381 Fq before: cycles=2984 selected=1532 wait=3608 throttle=474 not_selected=353 other=0 no_eligible=1452 critical_path=321 trace_len=766
zoo FF_mul BLS12-381 Fq after: cycles=2816 selected=1446 wait=3286 throttle=522 not_selected=363 other=14 no_eligible=1370 critical_path=321 trace_len=723
zoo FF_sqr BLS12-381 Fq before: cycles=2960 selected=1508 wait=3608 throttle=474 not_selected=329 other=0 no_eligible=1452 critical_path=321 trace_len=754
zoo FF_sqr BLS12-381 Fq after: cycles=2792 selected=1422 wait=3286 throttle=522 not_selected=339 other=14 no_eligible=1370 critical_path=321 trace_len=711
zoo XYZZ madd BLS12-381 Fq before: cycles=31924 selected=15296 wait=36388 throttle=5361 not_selected=3483 other=3296 no_eligible=16628 critical_path=1133 trace_len=7648
zoo XYZZ madd BLS12-381 Fq after: cycles=29611 selected=14436 wait=32866 throttle=5770 not_selected=3524 other=2610 no_eligible=15175 critical_path=1133 trace_len=7218
zoo NTT butterfly BLS12-381 Fr before: cycles=2240 selected=904 wait=1706 throttle=437 not_selected=353 other=1056 no_eligible=1336 critical_path=233 trace_len=452
zoo NTT butterfly BLS12-381 Fr after: cycles=1968 selected=842 wait=1350 throttle=473 not_selected=349 other=906 no_eligible=1126 critical_path=233 trace_len=421
";
