//! Per-base-set MSM plans — the proving-key precompute cache.
//!
//! In Groth16 the MSM bases (the `[aᵢ(τ)]`, `[β·aᵢ + α·bᵢ + cᵢ]`, and
//! quotient-domain points of the proving key) are *fixed across proofs*;
//! only the scalars change per witness. A [`MsmPlan`] exploits this by
//! paying the per-base preparation once:
//!
//! 1. **Endomorphism expansion** — the images `mapʲ(Pᵢ)` (`φ` on G1, `ψ`
//!    on G2) are computed at build time, so per-proof MSMs skip them and
//!    run over `D` short subscalars per scalar with `1/D` of the windows
//!    (§IV-D). Bases at infinity get no rows at all.
//! 2. **Window precompute** (§IV-D1a / Fig. 12) — shifted copies
//!    `2^(W·s·j)·Pᵢ` shrink the reduced window count from `w` to `W`,
//!    bounded by an explicit memory budget exactly like the paper's
//!    "provided enough device memory is available" trade-off.
//!
//! Per-proof work then reduces to scalar splitting + digit recoding +
//! one `W`-window bucket run. The plan never changes the computed point:
//! it equals the one-shot MSM over the same points under any budget.

use crate::config::MsmConfig;
use crate::pippenger::{execute, finite_positions, push_copy, Layout, MsmOutput, MsmScratch};
use zkp_curves::{batch_to_affine, Affine, Jacobian, SwCurve};
use zkp_runtime::ThreadPool;

/// A reusable MSM plan for one fixed base-point set.
#[derive(Debug, Clone)]
pub struct MsmPlan<Cu: SwCurve> {
    /// Size of the caller's base set, bases at infinity included.
    len: usize,
    /// Row → scalar index: the positions of the finite bases.
    index: Vec<usize>,
    /// Copies-major point table over the finite bases: copy `j` occupies
    /// rows `[j·ppc, (j+1)·ppc)`; within a copy the layout is `[P…]` or,
    /// under a `D`-way endomorphism, `[P…, map(P)…, …, map^{D−1}(P)…]`.
    /// Copy `j` is copy `j−1` doubled `W·s` times.
    table: Vec<Affine<Cu>>,
    /// How digits fold onto `table`.
    layout: Layout<Cu>,
}

impl<Cu: SwCurve> MsmPlan<Cu> {
    /// Builds a plan for `points` under `config`, spending at most
    /// `budget_bytes` on the expanded table (`None` = unbounded). The
    /// budget knob walks the Fig. 12 trade-off: more memory → fewer
    /// reduced windows, and — unless `config.window_bits` pins it — the
    /// larger window that the folded table pays for. The picker prices
    /// every fold that fits and keeps the smallest table within 2% of the
    /// cheapest, so an unbounded budget need not mean `W = 1`.
    pub fn build(
        points: &[Affine<Cu>],
        config: &MsmConfig,
        budget_bytes: Option<u64>,
        pool: &ThreadPool,
    ) -> Self {
        let mut index = Vec::new();
        finite_positions(points, &mut index);
        let layout = Layout::new(index.len(), config, budget_bytes);
        Self::from_layout(points, index, layout, pool)
    }

    /// The table builder: materializes the `⌈w/W⌉` shifted copies of
    /// `layout` over the finite `points` that `index` names.
    pub(crate) fn from_layout(
        points: &[Affine<Cu>],
        index: Vec<usize>,
        layout: Layout<Cu>,
        pool: &ThreadPool,
    ) -> Self {
        debug_assert!((1..=layout.full_windows).contains(&layout.target_windows));
        let copies = layout.copies();
        let finite = || index.iter().map(|&i| points[i]);
        let mut table = Vec::with_capacity(layout.points_per_copy() * copies as usize);
        push_copy(finite(), layout.endo, &mut table);
        // Each copy is the previous doubled W·s times; the doubling sweep
        // parallelizes per point and carries the base rows only — the
        // images in a copy are mapped from its affine rows, which is the
        // same canonical point as doubling mapʲ(P).
        let mut current: Vec<Jacobian<Cu>> = finite().map(Jacobian::from).collect();
        let shift = layout.target_windows * layout.window_bits;
        for _ in 1..copies {
            current = pool.map(current.len(), 64, |i| {
                let mut p = current[i];
                for _ in 0..shift {
                    p = p.double();
                }
                p
            });
            push_copy(batch_to_affine(&current), layout.endo, &mut table);
        }
        Self {
            len: points.len(),
            index,
            table,
            layout,
        }
    }

    /// The whole copies-major table over the finite bases: copy `j` is
    /// `2^(W·s·j)` times the first, whose rows are `[P…]` or, under a
    /// `D`-way endomorphism, `[P…, map(P)…, …, map^{D−1}(P)…]`.
    pub fn table(&self) -> &[Affine<Cu>] {
        &self.table
    }

    /// Number of base points the plan serves (one scalar each).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan serves no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held by the expanded point table.
    pub fn storage_bytes(&self) -> u64 {
        (self.table.len() as u64) * core::mem::size_of::<Affine<Cu>>() as u64
    }

    /// Total stored table points (`ppc · copies`).
    pub fn stored_points(&self) -> usize {
        self.table.len()
    }

    /// Windows reduced per MSM (`W`).
    pub fn target_windows(&self) -> u32 {
        self.layout.target_windows
    }

    /// Human-readable algorithm tag for traces and benchmark metadata.
    pub fn algorithm(&self) -> String {
        format!(
            "{}+precomp(w={},copies={})",
            self.layout.describe(),
            self.layout.target_windows,
            self.layout.copies(),
        )
    }

    /// Runs the planned MSM. Bit-identical (point *and* canonical stats)
    /// at any pool width, and equal as a group element to every other MSM
    /// path over the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the plan's base point count.
    pub fn execute(&self, scalars: &[Cu::Scalar], pool: &ThreadPool) -> MsmOutput<Cu> {
        self.execute_in(scalars, pool, &mut MsmScratch::new())
    }

    /// [`MsmPlan::execute`] with caller-owned scratch memory. A warmed
    /// `scratch` (one prior run of the same shape) makes the call
    /// allocation-free; the result is bit-identical to [`execute`].
    ///
    /// The endomorphism images were mapped at build time, so
    /// `endomorphism_muls` is zero.
    ///
    /// [`execute`]: MsmPlan::execute
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the plan's base point count.
    pub fn execute_in(
        &self,
        scalars: &[Cu::Scalar],
        pool: &ThreadPool,
        scratch: &mut MsmScratch<Cu>,
    ) -> MsmOutput<Cu> {
        assert_eq!(scalars.len(), self.len(), "one scalar per base point");
        execute(
            &self.layout,
            &self.table,
            &self.index,
            scalars,
            pool,
            scratch,
        )
    }
}

/// Window reduction through precomputed points — §IV-D1a / Fig. 12 with
/// the window count `W` chosen explicitly instead of by a memory budget: a
/// façade over an unsigned, endomorphism-free [`MsmPlan`].
///
/// A λ-bit scalar at window size `c` needs `w = ⌈λ/c⌉` windows, and *Bucket
/// Reduction* costs `2·2^c` PADDs per window. Storing `2^(W·c·j)·Pᵢ` for
/// `j = 1..⌈w/W⌉` shrinks the reduced windows from `w` to `W` at the price
/// of `⌈w/W⌉×` the point storage.
#[derive(Debug, Clone)]
pub struct PrecomputedPoints<Cu: SwCurve>(MsmPlan<Cu>);

impl<Cu: SwCurve> PrecomputedPoints<Cu> {
    /// Builds the table for the given window size and target window count
    /// (clamped to the scalar's `w`).
    ///
    /// # Panics
    ///
    /// Panics if `target_windows == 0` or `window_bits` is outside `1..=20`.
    pub fn build(points: &[Affine<Cu>], window_bits: u32, target_windows: u32) -> Self {
        assert!(target_windows > 0, "must keep at least one window");
        let config = MsmConfig {
            window_bits: Some(window_bits),
            ..MsmConfig::default()
        };
        let mut index = Vec::new();
        finite_positions(points, &mut index);
        let mut layout = Layout::new(index.len(), &config, Some(0));
        layout.target_windows = target_windows.min(layout.full_windows);
        let pool = ThreadPool::with_threads(1);
        Self(MsmPlan::from_layout(points, index, layout, &pool))
    }

    /// Number of stored points (`n · ⌈w/W⌉` over the finite bases) — the
    /// memory cost of Fig. 12.
    pub fn stored_points(&self) -> usize {
        self.0.stored_points()
    }

    /// The shrunken window count `W`.
    pub fn target_windows(&self) -> u32 {
        self.0.target_windows()
    }

    /// The stored copies `⌈w/W⌉`.
    pub fn copies(&self) -> u32 {
        self.0.layout.copies()
    }

    /// Computes the MSM against this table (serial schedule).
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the table's base point count.
    pub fn msm(&self, scalars: &[Cu::Scalar]) -> MsmOutput<Cu> {
        self.0.execute(scalars, &ThreadPool::with_threads(1))
    }
}

/// The §IV-D1a cost model behind Fig. 12: `FF_mul` count and point storage
/// for Bucket Reduction at scale `n`, window size `c`, and `W` remaining
/// windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecomputeCost {
    /// Windows after reduction.
    pub windows: u32,
    /// `FF_mul` operations in Bucket Reduction (`2·2^c` PADDs per window ×
    /// `ff_mul_per_padd`).
    pub bucket_reduction_ff_muls: u64,
    /// Points stored (`n · ⌈w/W⌉`).
    pub stored_points: u64,
    /// Bytes of point storage in Affine form (2 coordinates).
    pub storage_bytes: u64,
}

/// Evaluates the Fig. 12 trade-off for a 253-bit scalar field.
///
/// `ff_mul_per_padd` is 10 in the paper's example (§IV-D1a); Affine points
/// store two `coord_bytes`-byte coordinates.
pub fn precompute_cost(
    n: u64,
    scalar_bits: u32,
    window_bits: u32,
    target_windows: u32,
    ff_mul_per_padd: u64,
    coord_bytes: u64,
) -> PrecomputeCost {
    let w = scalar_bits.div_ceil(window_bits);
    let target = target_windows.min(w).max(1);
    let copies = w.div_ceil(target) as u64;
    let padds_per_window = 2 * (1u64 << window_bits);
    PrecomputeCost {
        windows: target,
        bucket_reduction_ff_muls: u64::from(target) * padds_per_window * ff_mul_per_padd,
        stored_points: n * copies,
        storage_bytes: n * copies * 2 * coord_bytes,
    }
}
