//! Curve-operation kernels in the micro-ISA: the XYZZ mixed point addition
//! (the inner loop of MSM bucket accumulation) and the NTT butterfly.
//!
//! Beyond validating the formulas end to end on the simulated GPU, these
//! kernels reproduce the paper's §IV-C4 register-pressure observations:
//! "MSM kernels … require up to 228, 216, and 244 registers per thread. A
//! large number of live registers are required to perform FF_mul operations
//! on 4 12-limb coordinates in the XYZZ representation. NTT has a lower
//! live register count of 56."
//!
//! Both kernels only load, compose and store: every field operation is an
//! [`FfEmitter`] call over register *banks* (one bank = a field element's
//! limbs), so whole-point state lives in registers exactly like the
//! hand-tuned CUDA kernels the paper profiles, and a kernel's instruction
//! count is Table V's op counts times the emitter bodies the `ffprogs`
//! microbenchmarks measure — `tests/curve_validation.rs` holds that
//! identity exactly and the simulated cycles to a stated residual.

use crate::catalog::{Kernel, Layout, Region};
use crate::ffprogs::{assume_canonical_loads, FfEmitter, Scratch};
use crate::field32::Field32;
use gpu_sim::isa::Reg;

/// Bump allocator over the register file of a kernel under construction.
struct Banks {
    n: u16,
    /// Next free register.
    next: Reg,
}

impl Banks {
    /// Allocates a contiguous bank of `k` registers.
    fn alloc(&mut self, k: u16) -> Reg {
        let base = self.next;
        self.next += k;
        assert!(self.next <= 250, "register file exhausted");
        base
    }

    /// Allocates a field-element bank.
    fn elem(&mut self) -> Reg {
        self.alloc(self.n)
    }

    /// Allocates the emitters' scratch registers.
    fn scratch(&mut self) -> Scratch {
        Scratch {
            t: self.alloc(self.n + 2),
            cmp: self.alloc(self.n),
            m: self.alloc(1),
            ge: self.alloc(1),
            s0: self.alloc(1),
            s1: self.alloc(1),
        }
    }
}

/// Emits the XYZZ ← XYZZ + Affine kernel (EFD `madd-2008-s`, Table V row
/// "XYZZ PADD": 10 `mul`, 6 `sub`, 1 `dbl`): loads a bucket (X‖Y‖ZZ‖ZZZ)
/// and an affine point (X‖Y), applies the mixed addition, stores the
/// bucket back.
///
/// Identity handling is the caller's job (real bucket kernels track
/// emptiness in a side bitmap), matching the MSM inner loop.
///
/// The facts carry `< 2p` obligations on the two multiplies whose operands
/// come straight from canonical loads (`U2 = X2·ZZ1`, `S2 = Y2·ZZZ1`);
/// see [`FfEmitter::mul`] for why the later ones cannot.
pub fn xyzz_madd_kernel(f: &Field32) -> Kernel {
    let n = f.num_limbs() as u16;
    let mut banks = Banks { n, next: 0 };
    let scratch = banks.scratch();
    // Point state.
    let x1 = banks.elem();
    let y1 = banks.elem();
    let zz1 = banks.elem();
    let zzz1 = banks.elem();
    let x2 = banks.elem();
    let y2 = banks.elem();
    // Temporaries.
    let u2 = banks.elem(); // later P
    let s2 = banks.elem(); // later R
    let pp = banks.elem();
    let ppp = banks.elem();
    let q = banks.elem();
    let t1 = banks.elem();
    let addr_bucket = banks.alloc(1);
    let addr_point = banks.alloc(1);

    let mut e = FfEmitter::new(f, scratch);
    // AoS layout, deliberately kept: each lane owns a whole 4n-word bucket
    // (resp. 2n-word point), the SZKP-style scattered access the memory
    // analyzer flags as strided.
    let words = u32::from(n);
    e.facts.contracts.declare(addr_bucket, 4 * words, 8);
    e.facts.contracts.declare(addr_point, 2 * words, 8);
    let bucket = [(x1, 0), (y1, words), (zz1, 2 * words), (zzz1, 3 * words)];
    for (bank, at) in bucket {
        e.load(bank, addr_bucket, at, 1);
    }
    for (bank, at) in [(x2, 0), (y2, words)] {
        e.load(bank, addr_point, at, 1);
    }

    // madd-2008-s over the banks.
    e.mul(u2, x2, zz1, Some("XYZZ U2")); // U2 = X2·ZZ1
    e.mul(s2, y2, zzz1, Some("XYZZ S2")); // S2 = Y2·ZZZ1
    e.sub(u2, u2, x1); // P = U2 - X1
    e.sub(s2, s2, y1); // R = S2 - Y1
    e.mul(pp, u2, u2, None); // PP = P²
    e.mul(ppp, pp, u2, None); // PPP = P·PP
    e.mul(q, x1, pp, None); // Q = X1·PP
    e.mul(x1, s2, s2, None); // X3 := R²
    e.sub(x1, x1, ppp); // X3 -= PPP
    e.dbl(t1, q); // T1 = 2Q
    e.sub(x1, x1, t1); // X3 -= 2Q
    e.sub(q, q, x1); // T = Q - X3 (reuse Q)
    e.mul(q, s2, q, None); // T = R·(Q - X3)
    e.mul(y1, y1, ppp, None); // Y1·PPP
    e.sub(y1, q, y1); // Y3 = T - Y1·PPP
    e.mul(zz1, zz1, pp, None); // ZZ3 = ZZ1·PP
    e.mul(zzz1, zzz1, ppp, None); // ZZZ3 = ZZZ1·PPP

    for (bank, at) in bucket {
        e.store(bank, addr_bucket, at, 1);
    }
    e.b.exit();
    let (program, facts) = e.finish();
    Kernel {
        name: "XYZZ madd",
        field: f.clone(),
        program,
        facts,
        regions: vec![Region::input(addr_bucket, 4), Region::input(addr_point, 2)],
        layout: Layout::Aos,
    }
}

/// Emits the radix-2 NTT butterfly kernel (Fig. 4b): `t = ω·b;
/// b = a - t; a = a + t` over the regions `a`, `b`, `ω` — the workload
/// whose "much shorter dependence chain" keeps NTT register pressure near
/// 56 (§IV-C4).
///
/// The facts carry the `< 2p` obligation on the twiddle multiply `ω·b`
/// (both operands canonical loads, so the chain certificate discharges
/// it).
pub fn butterfly_kernel(f: &Field32) -> Kernel {
    let n = f.num_limbs() as u16;
    let mut banks = Banks { n, next: 0 };
    let scratch = banks.scratch();
    let a = banks.elem();
    let bb = banks.elem();
    let w = banks.elem();
    let addr_a = banks.alloc(1);
    let addr_b = banks.alloc(1);
    let addr_w = banks.alloc(1);

    let mut e = FfEmitter::new(f, scratch);
    for addr in [addr_a, addr_b, addr_w] {
        assume_canonical_loads(&mut e.facts.assumptions, f, addr, 0, 1);
        // AoS: one n-word element per lane — stride-n access.
        e.facts.contracts.declare(addr, u32::from(n), 8);
    }
    // Limb-major loads and stores: the three (two) elements stream in
    // together instead of bank by bank.
    for j in 0..n {
        e.b.ldg(a + j, addr_a, u32::from(j));
        e.b.ldg(bb + j, addr_b, u32::from(j));
        e.b.ldg(w + j, addr_w, u32::from(j));
    }
    e.mul(bb, bb, w, Some("NTT butterfly ω·b")); // t = ω·b (into b's bank)
    e.sub(w, a, bb); // hi = a - t into the ω bank (ω no longer needed)
    e.add(a, a, bb); // lo = a + t in place
    for j in 0..n {
        e.b.stg(a + j, addr_a, u32::from(j));
        e.b.stg(w + j, addr_b, u32::from(j));
    }
    e.b.exit();
    let (program, facts) = e.finish();
    Kernel {
        name: "NTT butterfly",
        field: f.clone(),
        program,
        facts,
        regions: [addr_a, addr_b, addr_w]
            .map(|addr| Region::input(addr, 1))
            .to_vec(),
        layout: Layout::Aos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::analysis::StaticMetrics;
    use zkp_ff::{Fq381Config, Fr381Config};

    #[test]
    fn register_pressure_matches_the_paper_bands() {
        // §IV-C4: MSM kernels 216–244 registers, NTT ~56. The bump
        // allocator hands out a dense prefix of the register file and the
        // kernels touch all of it, so the footprint is `registers_touched`.
        let fq = Field32::of::<Fq381Config, 6>();
        let madd = StaticMetrics::compute(&xyzz_madd_kernel(&fq).program).registers_touched;
        assert!(
            (150..=250).contains(&madd),
            "XYZZ madd uses {madd} registers"
        );
        let fr = Field32::of::<Fr381Config, 4>();
        let bfly = StaticMetrics::compute(&butterfly_kernel(&fr).program).registers_touched;
        assert!((40..=70).contains(&bfly), "butterfly uses {bfly} registers");
        // The MSM kernel needs ~3x the registers of the NTT kernel.
        assert!(madd > 2 * bfly);
    }

    #[test]
    fn butterfly_obligation_proves() {
        let fr = Field32::of::<Fr381Config, 4>();
        let ra = butterfly_kernel(&fr).ranges();
        assert!(ra.diagnostics.is_empty(), "{:?}", ra.diagnostics);
        assert_eq!(ra.proved.len(), 1, "{:?}", ra.proved);
    }

    #[test]
    fn xyzz_canonical_input_obligations_prove() {
        let fr = Field32::of::<Fr381Config, 4>();
        let k = xyzz_madd_kernel(&fr);
        assert_eq!(k.facts.obligations.len(), 2);
        let ra = k.ranges();
        assert!(ra.diagnostics.is_empty(), "{:?}", ra.diagnostics);
        assert_eq!(ra.proved.len(), 2, "{:?}", ra.proved);
    }

    #[test]
    fn madd_is_imad_dominated() {
        let fq = Field32::of::<Fq381Config, 6>();
        let mix = xyzz_madd_kernel(&fq).program.static_mix();
        let imad = mix
            .iter()
            .find(|(m, _)| *m == "IMAD")
            .map_or(0, |(_, c)| *c);
        let total: u64 = mix.iter().map(|(_, c)| *c).sum();
        assert!(imad as f64 / total as f64 > 0.55, "{imad}/{total}");
    }
}
