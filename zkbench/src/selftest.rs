//! `--self-test`: a check that cannot fail is not a check. Each output check
//! is run once on a deliberately corrupted output and must count a failure,
//! and once on the untouched output and must count none.

use crate::host::Host;
use crate::metrics::Values;
use crate::spans::{Meter, Spans};
use crate::workloads::prove::Circuit;
use crate::workloads::{prove, quotient, simzoo, Outcome, RunCfg, Sizes};

type Runner = fn(&RunCfg, &mut Meter, &mut Values) -> Outcome;

fn dense(cfg: &RunCfg, meter: &mut Meter, layer: &mut Values) -> Outcome {
    prove::run(Circuit::Dense, cfg, meter, layer)
}

/// Runs the three corruptions; returns whether every check fired exactly when
/// it should.
pub fn run(seed: u64, host: &Host) -> bool {
    let cases: [(&str, Runner); 3] = [
        ("one proof byte", dense),
        ("one quotient coefficient", quotient::run),
        ("one simulated limb", simzoo::run),
    ];
    let mut all_ok = true;
    for (what, runner) in cases {
        for corrupt in [false, true] {
            let cfg = RunCfg {
                seed,
                seconds: 0.0,
                min_ops: 3,
                setup_reps: 1,
                traced: false,
                sizes: Sizes::smoke(),
                plan: host.plan,
                corrupt,
                print_samples: false,
            };
            let mut meter = Meter::new(1, 0.5, Spans::off());
            let outcome = runner(&cfg, &mut meter, &mut Values::new());
            let ok = if corrupt {
                outcome.failed >= 1
            } else {
                outcome.failed == 0
            };
            println!(
                "self-test {} corrupt={corrupt} ({what}): failed={} of {} -> {}",
                outcome.workload,
                outcome.failed,
                outcome.attempted,
                if ok { "ok" } else { "CHECK DID NOT BEHAVE" },
            );
            all_ok &= ok;
        }
    }
    all_ok
}
