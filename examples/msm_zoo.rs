//! MSM algorithm zoo: runs the real CPU Pippenger implementation in every
//! configuration the GPU libraries embody (signed digits, window size,
//! precomputed windows) and times them against each other. Every run
//! accumulates into the one bucket store, batch-affine buckets.
//!
//! ```sh
//! cargo run --release -p zkp-examples --bin msm_zoo [log_scale]
//! ```

use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use zkp_curves::{bls12_381::G1, Affine, Jacobian, SwCurve};
use zkp_ff::{Field, Fr381};
use zkp_msm::{msm_parallel, msm_serial, msm_with_config, MsmConfig, PrecomputedPoints};

fn main() {
    let log_n: u32 = match std::env::args().nth(1) {
        None => 12,
        Some(arg) => match arg.parse() {
            Ok(v) if v <= 22 => v,
            Ok(v) => {
                eprintln!("scale 2^{v} is too large for a live CPU run; capping at 2^22");
                22
            }
            Err(_) => {
                eprintln!("could not parse scale {arg:?}; using 2^12");
                12
            }
        },
    };
    let n = 1usize << log_n;
    println!("MSM zoo at scale 2^{log_n} ({n} points) on BLS12-381 G1\n");

    let mut rng = StdRng::seed_from_u64(7);
    println!("generating {n} random points and scalars...");
    let base = Jacobian::from(G1::generator());
    let points: Vec<Affine<G1>> = zkp_curves::batch_to_affine(
        &(0..n)
            .map(|_| base.mul_scalar(&Fr381::random(&mut rng)))
            .collect::<Vec<_>>(),
    );
    let scalars: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();

    let configs: Vec<(&str, MsmConfig)> = vec![
        ("sppark-style (unsigned digits)", MsmConfig::sppark_style()),
        ("ymc-style (signed digits)", MsmConfig::ymc_style()),
        (
            "narrow windows (c=8)",
            MsmConfig {
                window_bits: Some(8),
                ..MsmConfig::default()
            },
        ),
    ];

    let t = Instant::now();
    let reference = msm_with_config(&points, &scalars, &MsmConfig::default());
    let ref_time = t.elapsed();
    println!(
        "reference (auto window): {ref_time:?}  \
         [{} windows x {} buckets, {} PADDs]\n",
        reference.stats.windows,
        reference.stats.buckets_per_window,
        reference.stats.total_padds()
    );

    for (name, config) in &configs {
        let t = Instant::now();
        let out = msm_with_config(&points, &scalars, config);
        assert_eq!(out.point, reference.point, "{name} diverged");
        println!(
            "{name:34} {:>10.1?}  ({} PADDs)",
            t.elapsed(),
            out.stats.total_padds()
        );
    }

    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let t = Instant::now();
    let par = msm_parallel(&points, &scalars, &MsmConfig::default(), threads);
    assert_eq!(par, reference.point);
    println!(
        "parallel x{threads:<2}                       {:>10.1?}",
        t.elapsed()
    );

    // Precomputed windows (Fig. 12's trade-off, on the CPU).
    for target_windows in [4u32, 1] {
        let t = Instant::now();
        let table = PrecomputedPoints::build(&points, 13, target_windows);
        let build = t.elapsed();
        let t = Instant::now();
        let out = table.msm(&scalars);
        assert_eq!(out.point, reference.point);
        println!(
            "precompute w={target_windows} ({}x points)        {:>10.1?}  (+{build:.1?} build)",
            table.copies(),
            t.elapsed(),
        );
    }

    if n <= 1 << 10 {
        let t = Instant::now();
        let serial = msm_serial(&points, &scalars);
        assert_eq!(serial, reference.point);
        println!("naive double-and-add               {:>10.1?}", t.elapsed());
    }
}
