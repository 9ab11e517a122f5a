//! `prove_dense_1k` and `prove_bits_1k`: one warm single-threaded
//! `ProverSession::prove_in_on` per op, on a fresh witness.

use super::{fnv1a, measure, put_median, Outcome, RunCfg, SetupTimes, Sizes};
use crate::adapter::{
    mimc, setup, take_trace, verify, verify_batch, ConstraintSystem, CountingAlloc, CpuBackend,
    Field, Fr, G1Msm, LinearCombination, OpKind, Proof, ProverSession, Rng, SeedableRng, StdRng,
    ThreadPool, TracingBackend, Variable, VerifyingKey,
};
use crate::clock::median;
use crate::metrics::Values;
use crate::spans::Meter;

/// Which circuit the prove workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Circuit {
    /// MiMC: every witness value is a full-width scalar.
    Dense,
    /// Range checks of seeded `u64` words: every private witness value is 0 or
    /// 1, and each word is a public input.
    Bits,
}

impl Circuit {
    /// The workload this circuit belongs to.
    pub fn workload(self) -> &'static str {
        match self {
            Circuit::Dense => "prove_dense_1k",
            Circuit::Bits => "prove_bits_1k",
        }
    }

    /// A satisfied instance on a fresh witness drawn from `rng`.
    pub fn synthesize(self, sizes: &Sizes, rng: &mut StdRng) -> ConstraintSystem {
        match self {
            Circuit::Dense => mimc(Fr::random(rng), sizes.dense_rounds),
            Circuit::Bits => range_checks(sizes.bits_words, rng),
        }
    }
}

/// `words` public `u64` values, each with 64 booleanity constraints and one
/// recomposition.
fn range_checks(words: usize, rng: &mut StdRng) -> ConstraintSystem {
    let mut cs = ConstraintSystem::new();
    for _ in 0..words {
        let x: u64 = rng.gen();
        let x_var = cs.alloc_public(Fr::from_u64(x));
        let mut recompose = LinearCombination::zero();
        let mut weight = Fr::one();
        for i in 0..64 {
            let b = cs.alloc_private(Fr::from_u64((x >> i) & 1));
            cs.enforce(
                LinearCombination::from_var(b),
                LinearCombination::from_var(b).add_term(Variable::One, -Fr::one()),
                LinearCombination::zero(),
            );
            recompose = recompose.add_term(b, weight);
            weight = weight.double();
        }
        cs.enforce(
            recompose,
            LinearCombination::from_var(Variable::One),
            LinearCombination::from_var(x_var),
        );
    }
    cs
}

/// The per-layer metrics the backend's stage rows feed, and the slot of each
/// kind of stage in that list.
const STAGE_METRICS: [&str; 9] = [
    "backend.witness_eval_cal_s",
    "backend.ntt_inverse_cal_s",
    "backend.coset_mul_cal_s",
    "backend.ntt_forward_cal_s",
    "backend.msm_g1_h_cal_s",
    "backend.msm_g1_a_cal_s",
    "backend.msm_g1_b1_cal_s",
    "backend.msm_g1_l_cal_s",
    "backend.msm_g2_b2_cal_s",
];

fn stage_slot(kind: OpKind) -> usize {
    match kind {
        OpKind::WitnessEval => 0,
        OpKind::NttInverse => 1,
        OpKind::CosetMul => 2,
        OpKind::NttForward => 3,
        OpKind::MsmG1(G1Msm::H) => 4,
        OpKind::MsmG1(G1Msm::A) => 5,
        OpKind::MsmG1(G1Msm::B1) => 6,
        OpKind::MsmG1(G1Msm::L) => 7,
        OpKind::MsmG2 => 8,
    }
}

/// Checks every proof outside the timed windows: it round-trips the wire
/// format, and it verifies — all together through `verify_batch`, and one by
/// one through `verify` if the batch is rejected, so that failures are counted
/// exactly. The first proof always goes through `verify` as well. Returns the
/// number of proofs that failed.
///
/// With `corrupt`, one byte of the first proof is flipped first; that proof
/// must then be counted as failed.
pub fn check_proofs(
    vk: &VerifyingKey,
    proofs: &mut [(Proof, Vec<Fr>)],
    corrupt: bool,
    rng: &mut StdRng,
    meter: &mut Meter,
) -> u64 {
    let mut bad = vec![false; proofs.len()];
    meter.untimed("groth16", "Proof::to_bytes/from_bytes", || {
        for (i, (proof, _)) in proofs.iter_mut().enumerate() {
            let mut bytes = proof.to_bytes();
            if corrupt && i == 0 {
                bytes[7] ^= 0x10;
            }
            match Proof::from_bytes(&bytes) {
                Ok(decoded) if decoded.to_bytes() == bytes => *proof = decoded,
                _ => bad[i] = true,
            }
        }
    });
    if let Some((first, inputs)) = proofs.first() {
        if !bad[0] && !meter.untimed("groth16", "verify", || verify(vk, first, inputs)) {
            bad[0] = true;
        }
    }
    let decoded: Vec<(Proof, Vec<Fr>)> = proofs
        .iter()
        .zip(&bad)
        .filter(|(_, b)| !**b)
        .map(|(p, _)| p.clone())
        .collect();
    if !meter.untimed("groth16", "verify_batch", || {
        verify_batch(vk, &decoded, rng)
    }) {
        for (i, (proof, inputs)) in proofs.iter().enumerate() {
            if !bad[i] && !meter.untimed("groth16", "verify", || verify(vk, proof, inputs)) {
                bad[i] = true;
            }
        }
    }
    bad.iter().filter(|b| **b).count() as u64
}

/// Runs the workload. In a traced run every other op goes through a
/// `TracingBackend`, whose stage rows feed `backend.*` and `groth16.*`.
pub fn run(circuit: Circuit, cfg: &RunCfg, meter: &mut Meter, layer: &mut Values) -> Outcome {
    let name = circuit.workload();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pool = ThreadPool::with_threads(1);
    let plain = CpuBackend::on(&pool);
    let tracing = TracingBackend::new(CpuBackend::on(&pool));

    // Set-up: synthesis, key generation, session (MSM plans, twiddles), one
    // cold proof that sizes the workspace.
    meter.spans.scope(name, -1);
    let mut setups = SetupTimes::default();
    let (mut synth_s, mut keygen_s, mut session_s, mut cold_s) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    while setups.wants_more(cfg) {
        drop(last.take());
        meter.cal.refresh();
        let (cs, t_synth, _) = meter.timed("r1cs", "synthesize", || {
            circuit.synthesize(&cfg.sizes, &mut rng)
        });
        let (pk, t_keygen, _) = meter.timed("groth16", "setup", || setup(&cs, &mut rng));
        let (mut session, t_session, _) =
            meter.timed("groth16", "ProverSession::new", || ProverSession::new(pk));
        let (cold, t_cold, _) = meter.timed("groth16", "prove_in_on(cold)", || {
            session.prove_in_on(&cs, &mut rng, &plain).0
        });
        setups.push(&[t_synth, t_keygen, t_session, t_cold]);
        synth_s.push(t_synth.cal_s);
        keygen_s.push(t_keygen.cal_s);
        session_s.push(t_session.cal_s);
        cold_s.push(t_cold.cal_s);
        last = Some((session, cs, cold));
    }
    let (mut session, first_cs, cold_proof) = last.expect("at least one set-up repetition");

    // Measured window.
    let mut proofs: Vec<(Proof, Vec<Fr>)> = vec![(cold_proof, first_cs.assignment.public.clone())];
    let mut stage_cal: Vec<Vec<f64>> = vec![Vec::new(); STAGE_METRICS.len()];
    let (mut self_cal, mut self_share, mut dispatched) = (vec![], vec![], vec![]);
    let (mut traced_cal, mut plain_cal) = (vec![], vec![]);
    let mut warm_allocs = 0u64;
    let samples = measure(cfg, meter, name, |i, meter| {
        let cs = circuit.synthesize(&cfg.sizes, &mut rng);
        let through_tracer = cfg.traced && i % 2 == 1;
        let mut allocs = 0;
        let (proof, t, span) = meter.timed("groth16", "prove_in_on", || {
            if through_tracer {
                session.prove_in_on(&cs, &mut rng, &tracing).0
            } else {
                CountingAlloc::reset();
                let out = session.prove_in_on(&cs, &mut rng, &plain).0;
                allocs = CountingAlloc::allocations();
                out
            }
        });
        if through_tracer {
            let trace = take_trace(&tracing);
            let mut stages = [0.0f64; STAGE_METRICS.len()];
            for rec in &trace.records {
                let at = stage_slot(rec.kind);
                let ns = (rec.wall_s * 1e9) as u64;
                meter.spans.stage(span, STAGE_METRICS[at], "backend", ns);
                stages[at] += rec.wall_s * t.factor();
            }
            for (at, s) in stages.iter().enumerate() {
                stage_cal[at].push(*s);
            }
            let own = t.cal_s - stages.iter().sum::<f64>();
            self_cal.push(own);
            self_share.push(own / t.cal_s);
            dispatched.push(trace.records.len() as f64);
            meter
                .spans
                .count(span, "ops_dispatched", trace.records.len() as u64);
            traced_cal.push(t.cal_s);
        } else {
            warm_allocs = warm_allocs.max(allocs);
            meter.spans.count(span, "allocations", allocs);
            plain_cal.push(t.cal_s);
        }
        proofs.push((proof, cs.assignment.public.clone()));
        t
    });

    // Checks, outside every timed window. The cold proof is checked with the
    // timed ones but is not an op.
    let digest = fnv1a(&proofs[1].0.to_bytes());
    let failed = check_proofs(session.vk(), &mut proofs[1..], cfg.corrupt, &mut rng, meter);
    let cold_failed = check_proofs(session.vk(), &mut proofs[..1], false, &mut rng, meter);

    if cfg.traced {
        put_median(layer, "r1cs.synthesize_cal_s", &synth_s);
        layer.insert("r1cs.constraints", first_cs.num_constraints() as f64);
        layer.insert("r1cs.variables", first_cs.num_variables() as f64);
        put_median(layer, "groth16.keygen_cal_s", &keygen_s);
        put_median(layer, "groth16.session_build_cal_s", &session_s);
        put_median(layer, "groth16.cold_proof_cal_s", &cold_s);
        if !plain_cal.is_empty() {
            layer.insert(
                "groth16.cold_over_warm",
                median(&cold_s) / median(&plain_cal),
            );
            if !traced_cal.is_empty() {
                layer.insert(
                    "backend.trace_overhead_ratio",
                    median(&traced_cal) / median(&plain_cal),
                );
            }
        }
        layer.insert(
            "groth16.workspace_mb",
            session.workspace_bytes() as f64 / (1024.0 * 1024.0),
        );
        for (at, metric) in STAGE_METRICS.iter().enumerate() {
            put_median(layer, metric, &stage_cal[at]);
        }
        put_median(layer, "backend.ops_dispatched", &dispatched);
        put_median(layer, "groth16.prove_self_cal_s", &self_cal);
        put_median(layer, "groth16.stage_sum_residual", &self_share);
        layer.insert("runtime.warm_allocs_per_proof", warm_allocs as f64);
        probe_verifier(cfg, meter, layer, &session, &first_cs, &proofs, &mut rng);
    }

    let (setup_cal_s, setup_raw_s) = setups.into_parts();
    Outcome {
        workload: name,
        attempted: samples.len() as u64,
        failed: failed + cold_failed,
        samples,
        items_per_op: 1,
        setup_cal_s,
        setup_raw_s,
        digest,
        exact: Vec::new(),
        threads: 1,
    }
}

/// Probes of the calls around a proof: verification, the wire codec, and the
/// satisfiability check.
fn probe_verifier(
    cfg: &RunCfg,
    meter: &mut Meter,
    layer: &mut Values,
    session: &ProverSession,
    cs: &ConstraintSystem,
    proofs: &[(Proof, Vec<Fr>)],
    rng: &mut StdRng,
) {
    let reps = cfg.sizes.probe_reps;
    let vk = session.vk();
    let (proof, inputs) = &proofs[0];
    let batch = &proofs[..proofs.len().min(8)];
    let (mut single, mut batched, mut codec, mut sat) = (vec![], vec![], vec![], vec![]);
    const CODEC_ROUNDS: usize = 8;
    meter.cal.refresh();
    for _ in 0..reps {
        let (ok, t, _) = meter.timed("groth16", "verify", || verify(vk, proof, inputs));
        assert!(ok, "probe proof was checked before");
        single.push(t.cal_s);
        let (ok, t, _) = meter.timed("groth16", "verify_batch", || verify_batch(vk, batch, rng));
        assert!(ok, "probe batch was checked before");
        batched.push(t.cal_s / batch.len() as f64);
        let (_, t, _) = meter.timed("groth16", "Proof::to_bytes/from_bytes", || {
            for _ in 0..CODEC_ROUNDS {
                let bytes = std::hint::black_box(proof).to_bytes();
                std::hint::black_box(Proof::from_bytes(&bytes).expect("checked before"));
            }
        });
        codec.push(t.cal_s * 1e6 / CODEC_ROUNDS as f64);
        let (ok, t, _) = meter.timed("r1cs", "is_satisfied", || cs.is_satisfied());
        assert!(ok, "generated witness satisfies its circuit");
        sat.push(t.cal_s);
    }
    put_median(layer, "groth16.verify_cal_s", &single);
    put_median(layer, "groth16.verify_batch_cal_s_per_proof", &batched);
    put_median(layer, "groth16.proof_codec_cal_us", &codec);
    put_median(layer, "r1cs.is_satisfied_cal_s", &sat);
}
