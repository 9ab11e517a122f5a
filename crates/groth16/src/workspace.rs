//! Reusable prover scratch memory.
//!
//! Every buffer the prover's hot path touches — the flat `z` vector, the
//! three QAP evaluation vectors the 7-transform pipeline consumes, and
//! the per-MSM bucket/digit scratch — lives here, owned by the caller and
//! reused across proofs. A freshly constructed workspace is empty; the
//! first proof grows every buffer to its steady-state size and subsequent
//! proofs of the same circuit shape allocate nothing.

use zkp_curves::{Bls12Config, G1Curve, G2Curve};
use zkp_msm::MsmScratch;

/// Caller-owned scratch memory for one in-flight proof.
///
/// A workspace is *not* shared between concurrent proofs — each worker of
/// a [`ProofService`](crate::ProofService) owns its own — but it is
/// reused serially across any number of proofs. Buffers only ever grow.
pub(crate) struct ProverWorkspace<C: Bls12Config> {
    /// The flat assignment vector `z = (1, public…, private…)`.
    pub(crate) z: Vec<C::Fr>,
    /// `⟨A,z⟩` evaluations; the quotient pipeline leaves `h`'s
    /// coefficients here.
    pub(crate) a_evals: Vec<C::Fr>,
    /// `⟨B,z⟩` evaluations (clobbered as pipeline scratch).
    pub(crate) b_evals: Vec<C::Fr>,
    /// `⟨C,z⟩` evaluations (clobbered as pipeline scratch).
    pub(crate) c_evals: Vec<C::Fr>,
    /// Per-MSM scratch for the four G1 MSMs (A, B1, L, H) — each runs
    /// concurrently in the task graph, so each needs its own arena.
    pub(crate) g1: [MsmScratch<G1Curve<C>>; 4],
    /// Scratch for the G2 MSM.
    pub(crate) g2: MsmScratch<G2Curve<C>>,
}

impl<C: Bls12Config> ProverWorkspace<C> {
    /// An empty workspace; the first proof through it sizes every buffer.
    pub(crate) fn new() -> Self {
        Self {
            z: Vec::new(),
            a_evals: Vec::new(),
            b_evals: Vec::new(),
            c_evals: Vec::new(),
            g1: [
                MsmScratch::new(),
                MsmScratch::new(),
                MsmScratch::new(),
                MsmScratch::new(),
            ],
            g2: MsmScratch::new(),
        }
    }

    /// Bytes currently held by the field-element vectors (the dominant,
    /// domain-sized share of the workspace; MSM arenas are excluded).
    pub(crate) fn held_bytes(&self) -> usize {
        let elem = core::mem::size_of::<C::Fr>();
        (self.z.capacity()
            + self.a_evals.capacity()
            + self.b_evals.capacity()
            + self.c_evals.capacity())
            * elem
    }
}
