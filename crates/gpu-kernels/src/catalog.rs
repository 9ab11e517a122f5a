//! The kernel catalog and the launch harness: the one place that lists the
//! kernel set, and the one way a kernel record is put on the simulator.
//!
//! A [`Kernel`] carries everything the rest of the repository needs to
//! analyze, optimize or run a generated program — its ABI (pointer
//! registers), the generator's [`KernelFacts`], and the launch recipe (how
//! many field elements each lane owns behind each pointer, and in which
//! memory layout). [`catalog`] is the zoo every table, gate and baseline
//! reports; [`launch`] seeds global memory and the pointer registers from
//! the recipe and runs any program with that kernel's ABI, which is how an
//! optimized variant is simulated against its original: same operands, same
//! machine, different instruction stream.

use crate::curveprogs::{butterfly_kernel, xyzz_madd_kernel};
use crate::ffprogs::{ff_kernel, FfOp, KernelFacts, LIMB_STRIDE_WORDS};
use crate::field32::Field32;
use gpu_sim::analysis::{self, MemoryAnalysis, RangeAnalysis, ScheduleError, SchedulePrediction};
use gpu_sim::isa::{Program, Reg};
use gpu_sim::machine::{Machine, SimResult, SmspConfig, WarpInit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkp_ff::{Fq381Config, Fr381Config};

/// One memory region of a kernel's launch: each lane owns `elems` field
/// elements behind the address in `pointer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// The register holding each lane's word address into the region.
    pub pointer: Reg,
    /// Field elements per lane.
    pub elems: usize,
    /// Whether the kernel reads the region (it is then seeded with
    /// operands; an output-only region starts zeroed).
    pub input: bool,
}

impl Region {
    /// A region the kernel reads (and may update in place).
    pub fn input(pointer: Reg, elems: usize) -> Self {
        Region {
            pointer,
            elems,
            input: true,
        }
    }

    /// A region the kernel only writes.
    pub fn output(pointer: Reg, elems: usize) -> Self {
        Region {
            pointer,
            elems,
            input: false,
        }
    }
}

/// How a region's words are laid out across the lanes of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Warp-interleaved: word `w` of lane `t` lives at `warp_base + w·32 +
    /// t`, so every access is one fully-coalesced 4-sector transaction
    /// (the FF microbenchmarks).
    Interleaved,
    /// Array of structures: lane `t` owns a contiguous run of words — the
    /// scattered per-bucket access the paper's MSM phase exhibits, which
    /// the memory analyzer flags as strided (the curve kernels).
    Aos,
}

/// A generated kernel with its ABI, analysis facts and launch recipe.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Display name (paper style: `FF_mul`, `XYZZ madd`, ...).
    pub name: &'static str,
    /// Field the kernel computes over.
    pub field: Field32,
    /// The generated program.
    pub program: Program,
    /// Generator-declared analysis facts.
    pub facts: KernelFacts,
    /// The pointer parameters, one memory region each.
    pub regions: Vec<Region>,
    /// Memory layout of every region.
    pub layout: Layout,
}

impl Kernel {
    /// The registers the launch environment initializes (the pointer
    /// parameters) — the `inputs` of the lint and memory passes.
    pub fn entry_regs(&self) -> Vec<Reg> {
        self.regions.iter().map(|r| r.pointer).collect()
    }

    /// The static memory analysis of the kernel under its declared
    /// contracts.
    pub fn memory(&self, config: &SmspConfig) -> MemoryAnalysis {
        analysis::analyze_memory(
            &self.program,
            &self.entry_regs(),
            &self.facts.contracts,
            &self.facts.hints,
            config,
        )
    }

    /// The static schedule prediction at `warps` resident warps, with the
    /// per-access LSU wavefront counts of `memory` (strided kernels issue
    /// several wavefronts per access, which the schedule must charge).
    ///
    /// # Errors
    ///
    /// Returns the predictor's [`ScheduleError`] for a program it cannot
    /// trace (never the case for a shipped kernel).
    pub fn predict(
        &self,
        config: &SmspConfig,
        warps: u32,
        memory: &MemoryAnalysis,
    ) -> Result<SchedulePrediction, ScheduleError> {
        analysis::predict_schedule(
            &self.program,
            config,
            warps,
            &self.facts.hints,
            &memory.mem_timings(),
        )
    }

    /// The value-range analysis under the generator's assumptions,
    /// discharging its obligations.
    pub fn ranges(&self) -> RangeAnalysis {
        analysis::analyze_ranges(
            &self.program,
            &self.facts.assumptions,
            &self.facts.obligations,
        )
    }
}

/// The kernel set, once: the five FF microbenchmarks (one application
/// each) and the XYZZ mixed addition over `base`, and the NTT butterfly
/// over `scalar`. Pass the same field twice to sweep a field.
pub fn kernels_over(base: &Field32, scalar: &Field32) -> Vec<Kernel> {
    let mut zoo: Vec<Kernel> = FfOp::all()
        .into_iter()
        .map(|op| ff_kernel(base, op, 1))
        .collect();
    zoo.push(xyzz_madd_kernel(base));
    zoo.push(butterfly_kernel(scalar));
    zoo
}

/// The kernel zoo as the paper profiles it: MSM-side kernels over the
/// BLS12-381 base field, the butterfly over its scalar field.
pub fn catalog() -> Vec<Kernel> {
    kernels_over(
        &Field32::of::<Fq381Config, 6>(),
        &Field32::of::<Fr381Config, 4>(),
    )
}

/// A uniformly random canonical (`< p`) field element as 32-bit limbs.
pub fn random_canonical(field: &Field32, rng: &mut StdRng) -> Vec<u32> {
    loop {
        let cand: Vec<u32> = (0..field.num_limbs()).map(|_| rng.gen()).collect();
        // Accept if below p (compare from the most significant limb).
        let below = cand
            .iter()
            .rev()
            .zip(field.modulus.iter().rev())
            .find_map(|(c, p)| (c != p).then_some(c < p))
            .unwrap_or(false);
        if below {
            return cand;
        }
    }
}

/// Random canonical operands for [`launch`]: one entry per region, and in
/// every input region `warps × 32` lanes of `elems` concatenated elements
/// (drawn region by region, lane by lane). Output regions stay empty.
pub fn random_operands(kernel: &Kernel, warps: usize, seed: u64) -> Vec<Vec<Vec<u32>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lane = |elems: usize| -> Vec<u32> {
        (0..elems)
            .flat_map(|_| random_canonical(&kernel.field, &mut rng))
            .collect()
    };
    kernel
        .regions
        .iter()
        .map(|region| {
            let lanes = if region.input { warps * 32 } else { 0 };
            (0..lanes).map(|_| lane(region.elems)).collect()
        })
        .collect()
}

/// What [`launch`] leaves behind.
#[derive(Debug, Clone)]
pub struct Launched {
    /// Raw simulation counters.
    pub sim: SimResult,
    /// Final contents of every region: `regions[r][t]` holds lane `t`'s
    /// `elems·n` words.
    pub regions: Vec<Vec<Vec<u32>>>,
}

/// Runs `program` — `kernel.program`, or any program with the same ABI —
/// on `warps` resident warps of a fresh machine.
///
/// Regions are placed back to back in `kernel.regions` order, each
/// spanning `warps·32·elems·n` words in the kernel's [`Layout`];
/// `operands[r]` seeds region `r` with one word vector per lane (an empty
/// slice leaves it zeroed), and every pointer register is initialized per
/// lane.
///
/// # Panics
///
/// Panics if `operands` does not match the recipe: one entry per region,
/// each empty or `warps × 32` lanes of `elems·n` words.
pub fn launch(
    kernel: &Kernel,
    program: &Program,
    config: &SmspConfig,
    warps: usize,
    operands: &[impl AsRef<[Vec<u32>]>],
) -> Launched {
    let n = kernel.field.num_limbs();
    let threads = warps * 32;
    assert_eq!(operands.len(), kernel.regions.len(), "one entry per region");

    // Word index of word `w` of global thread `t` in a region of `words`
    // words per lane, and the lane's pointer into it.
    let stride = LIMB_STRIDE_WORDS as usize;
    let slot = |words: usize, t: usize, w: usize| match kernel.layout {
        Layout::Interleaved => (t / 32) * 32 * words + w * stride + t % 32,
        Layout::Aos => t * words + w,
    };
    // (pointer, words per lane, base word) of every region, back to back.
    let mut total = 0;
    let placed: Vec<(Reg, usize, usize)> = kernel
        .regions
        .iter()
        .map(|region| {
            let (words, base) = (region.elems * n, total);
            total += threads * words;
            (region.pointer, words, base)
        })
        .collect();

    let mut machine = Machine::new(config.clone(), total);
    for (&(pointer, words, base), lanes) in placed.iter().zip(operands) {
        let lanes = lanes.as_ref();
        assert!(
            lanes.is_empty() || lanes.len() == threads,
            "{}: need one operand per thread behind r{pointer}",
            kernel.name
        );
        for (t, lane) in lanes.iter().enumerate() {
            assert_eq!(lane.len(), words, "{}: operand width", kernel.name);
            for (w, word) in lane.iter().enumerate() {
                machine.global_mem[base + slot(words, t, w)] = *word;
            }
        }
    }

    let warp_inits: Vec<WarpInit> = (0..warps)
        .map(|w| {
            let mut init = WarpInit::default();
            for &(pointer, words, base) in &placed {
                let addrs = std::array::from_fn(|t| (base + slot(words, w * 32 + t, 0)) as u32);
                init.per_thread(pointer as usize, addrs);
            }
            init
        })
        .collect();

    let sim = machine.run(program, &warp_inits);
    let read = |&(_, words, base): &(Reg, usize, usize)| {
        (0..threads)
            .map(|t| {
                (0..words)
                    .map(|w| machine.global_mem[base + slot(words, t, w)])
                    .collect()
            })
            .collect()
    };
    let regions = placed.iter().map(read).collect();
    Launched { sim, regions }
}
