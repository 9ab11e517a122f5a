//! Differential validation of the static scoreboard model
//! (`gpu_sim::analysis::schedule`) against the cycle-accurate simulator
//! (`gpu_sim::machine`), for every generated kernel on three GPU
//! generations (V100 / A100 / H100).
//!
//! # Tolerance
//!
//! Predictions must land within **±3%** of simulated cycles. The only
//! systematic divergence is the final conditional reduction in `FF_mul`
//! and `FF_sqr`: the predicted trace takes its fall-through (subtract)
//! path, but a warp whose 32 lanes *all* land below `p` branches over it
//! uniformly and skips those instructions. The per-lane skip probability
//! is field-dependent (roughly `1 - p/R` shaped; highest for BLS12-377
//! Fq), so a uniformly-taken reduce occasionally shaves a few dozen
//! cycles off the simulated run. The conditional copy is ~`n`
//! instructions out of ~`130·n`, which keeps the error well inside the
//! band — the assertions below document exactly that bound.
//!
//! The per-SMSP machine shape (32-wide warps, 16 INT32 lanes, 4-cycle
//! `IMAD`) is identical across the generations the paper studies — the
//! generations differ in SM count and clock, which scale chip throughput,
//! not the warp schedule — so matching predictions across devices are the
//! expected outcome, and the three-device sweep validates the
//! `DeviceSpec -> SmspConfig` conversion path.

use gpu_kernels::catalog::{catalog, launch, random_operands, Layout};
use gpu_kernels::ffprogs::ff_kernel;
use gpu_kernels::{FfOp, Field32};
use gpu_sim::analysis::{predict_schedule, MemTimings};
use gpu_sim::device::{a100, h100, v100, DeviceSpec};
use gpu_sim::machine::SmspConfig;

const TOLERANCE_PCT: f64 = 3.0;

fn generations() -> [DeviceSpec; 3] {
    [v100(), a100(), h100()]
}

fn assert_within(kernel: &str, device: &str, predicted: u64, simulated: u64) {
    let err = 100.0 * (predicted as f64 - simulated as f64) / simulated as f64;
    assert!(
        err.abs() <= TOLERANCE_PCT,
        "{kernel} on {device}: predicted {predicted} vs simulated {simulated} ({err:+.2}%)"
    );
}

#[test]
fn ff_kernel_predictions_track_the_simulator() {
    for device in &generations() {
        let config = SmspConfig::from(device);
        for field in &Field32::supported() {
            let fname = field.name;
            for op in FfOp::all() {
                for warps in [1usize, 2, 8] {
                    let k = ff_kernel(field, op, 1);
                    let pred = predict_schedule(
                        &k.program,
                        &config,
                        warps as u32,
                        &k.facts.hints,
                        &MemTimings::default(),
                    )
                    .expect("FF kernels are schedulable");
                    let operands = random_operands(&k, warps, 7 + warps as u64);
                    let sim = launch(&k, &k.program, &config, warps, &operands).sim;
                    // The predicted trace takes every reduce fall-through;
                    // a uniformly-taken branch lets the simulator skip a
                    // few instructions, never add any.
                    assert!(pred.instructions >= sim.instructions, "{op:?} {fname}");
                    assert_within(
                        &format!("{} {} x{}w", op.name(), fname, warps),
                        device.name,
                        pred.cycles,
                        sim.cycles,
                    );
                }
            }
        }
    }
}

/// Multi-iteration kernels exercise the back edge: the trace replays the
/// loop body `iters` times, and the prediction must still track.
#[test]
fn looped_ff_kernel_predictions_track_the_simulator() {
    let device = a100();
    let config = SmspConfig::from(&device);
    for field in &Field32::supported() {
        let fname = field.name;
        for op in [FfOp::Mul, FfOp::Add] {
            let k = ff_kernel(field, op, 4);
            let pred = predict_schedule(
                &k.program,
                &config,
                2,
                &k.facts.hints,
                &MemTimings::default(),
            )
            .expect("FF kernels are schedulable");
            let sim = launch(&k, &k.program, &config, 2, &random_operands(&k, 2, 99)).sim;
            assert_within(
                &format!("{} {} iters=4", op.name(), fname),
                device.name,
                pred.cycles,
                sim.cycles,
            );
        }
    }
}

/// One warp of each curve kernel over 32 independent lanes of random
/// canonical coordinates (timing only — the schedule does not care whether
/// points lie on the curve). The AoS accesses serialize into multiple LSU
/// wavefronts; the static memory analysis supplies the per-access timings.
#[test]
fn curve_kernel_predictions_track_the_simulator() {
    for device in &generations() {
        let config = SmspConfig::from(device);
        for k in catalog().iter().filter(|k| k.layout == Layout::Aos) {
            let sim = launch(k, &k.program, &config, 1, &random_operands(k, 1, 21)).sim;
            let pred = k
                .predict(&config, 1, &k.memory(&config))
                .expect("curve kernels are schedulable");
            assert_within(k.name, device.name, pred.cycles, sim.cycles);
        }
    }
}
