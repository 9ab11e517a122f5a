//! The CPU baseline (arkworks on the dual EPYC 7742, §III-B) and the
//! Pippenger work model.
//!
//! The analytical library models in [`crate::libraries`] count GPU MSM
//! work with the Pippenger model. `zkprophet` reads the baseline in two
//! places: its price list (`zkprophet::sim`, where a proof's ops are
//! priced) and the per-kernel CPU columns of Tables II and III.

/// CPU clock used for the calibrated baseline (EPYC 7742 boost-ish).
pub const CPU_CLOCK_HZ: f64 = 2.25e9;

/// Table IV CPU multiply latency in cycles.
pub const CPU_MUL_CYCLES: f64 = 402.0;
/// Table IV CPU add/sub latency.
pub const CPU_ADD_CYCLES: f64 = 29.0;
/// Table IV CPU double latency.
pub const CPU_DBL_CYCLES: f64 = 19.0;

/// Pippenger work at scale `n` with window `c`: accumulation and reduction
/// PADD counts (Fig. 4a). Returned as `(accumulation, reduction, windows)`.
pub fn pippenger_padds(n: u64, c: u32, signed: bool) -> (f64, f64, u32) {
    let scalar_bits = 253 + u32::from(signed);
    let w = scalar_bits.div_ceil(c);
    let buckets = if signed {
        (1u64 << (c - 1)) as f64
    } else {
        ((1u64 << c) - 1) as f64
    };
    let nonzero = 1.0 - 1.0 / (buckets + 1.0);
    let accumulation = n as f64 * f64::from(w) * nonzero;
    let reduction = 2.0 * buckets * f64::from(w);
    (accumulation, reduction, w)
}

/// Picks the window size minimizing total PADDs.
pub fn best_window(n: u64, signed: bool) -> u32 {
    (6..=26)
        .min_by(|&a, &b| {
            let t = |c| {
                let (acc, red, _) = pippenger_padds(n, c, signed);
                acc + red
            };
            t(a).partial_cmp(&t(b)).expect("finite work")
        })
        .expect("non-empty window range")
}

/// CPU MSM seconds at scale `2^log_n` — the paper's (effectively
/// single-threaded) arkworks Pippenger baseline, with Jacobian mixed
/// additions and Table IV per-op costs.
pub fn cpu_msm_seconds(log_n: u32) -> f64 {
    let n = 1u64 << log_n;
    let c = best_window(n, false);
    let (acc, red, _) = pippenger_padds(n, c, false);
    // Table V Jacobian mixed add weighted by Table IV costs, with the
    // ~2× squaring/lazy-reduction savings real arkworks code achieves.
    let padd_cycles = 0.5 * (11.0 * CPU_MUL_CYCLES + 9.0 * CPU_ADD_CYCLES + 5.0 * CPU_DBL_CYCLES);
    (acc + red) * padd_cycles / CPU_CLOCK_HZ
}

/// CPU NTT seconds — the (single-threaded, like the MSM baseline)
/// arkworks radix-2 NTT.
pub fn cpu_ntt_seconds(log_n: u32) -> f64 {
    let n = 1u64 << log_n;
    let butterflies = (n / 2) as f64 * f64::from(log_n);
    // Butterfly = 1 mul + 1 add + 1 sub on the 4-limb scalar field; the
    // 6-limb Table IV mul cost halves on 4 limbs (quadratic in limbs).
    let bfly_cycles = CPU_MUL_CYCLES / 2.0 + 2.0 * CPU_ADD_CYCLES;
    butterflies * bfly_cycles / CPU_CLOCK_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_choice_grows_with_scale() {
        assert!(best_window(1 << 15, false) < best_window(1 << 26, false));
        let c = best_window(1 << 22, false);
        assert!((10..=22).contains(&c), "c = {c}");
    }

    #[test]
    fn cpu_costs_scale() {
        assert!(cpu_msm_seconds(20) > 20.0 * cpu_msm_seconds(15));
        assert!(cpu_ntt_seconds(20) > cpu_ntt_seconds(15));
    }
}
