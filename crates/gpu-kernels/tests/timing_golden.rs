//! Golden table of the SMSP timing model's exact outputs.
//!
//! `schedule_validation` holds predictor and simulator within ±3% of each
//! other; nothing else pins the *absolute* numbers — the full stall
//! breakdown of a simulated run, or the critical path of a prediction. The
//! table below does: it was generated at the commit before the simulator
//! and the predictor were moved onto one shared issue model, and any edit
//! to the timing model (latencies, issue rules, stall classification) must
//! show up here as a deliberate table change. On mismatch the test prints
//! the complete actual table, ready to paste.

use gpu_kernels::microbench::{run_ff_op, FfInputs};
use gpu_kernels::optimized::{optimized_zoo, OPT_WARPS};
use gpu_kernels::{FfOp, Field32};
use gpu_sim::analysis::SchedulePrediction;
use gpu_sim::device::v100;
use gpu_sim::machine::{SmspConfig, StallBreakdown};
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
