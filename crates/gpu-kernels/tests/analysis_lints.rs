//! Static-analysis gate: every kernel the generators emit — all five
//! `FfOp`s plus both curve kernels, over all four fields — must pass the
//! `gpu_sim::analysis` lint suite with zero error-severity diagnostics,
//! and deliberately broken programs must be rejected with diagnostics
//! naming the pc and register. This is the micro-ISA's substitute for a
//! compiler front end. Dead-write *warnings* are tolerated on the raw
//! generator output: the one CIOS emitter ships the uniform overflow-word
//! schema and `analysis::opt` removes it with an equivalence certificate
//! (the optimizer gate asserts the optimized kernels are warning-free).

use gpu_kernels::catalog::{kernels_over, Kernel};
use gpu_kernels::curveprogs::xyzz_madd_kernel;
use gpu_kernels::ffprogs::{ff_kernel, ff_program, FfOp};
use gpu_kernels::field32::Field32;
use gpu_sim::analysis::{self, Cfg, LintKind, Liveness, Resource, Severity, StaticMetrics};
use gpu_sim::isa::{CmpOp, ProgramBuilder, Reg, Src};
use gpu_sim::machine::SmspConfig;
use zkp_ff::Fq381Config;

/// The one rule for generator output: no error, and the only tolerated
/// warning is the dead overflow-word bookkeeping the uniform CIOS schema
/// emits — which the verified optimizer removes (see
/// tests/optimizer_gate.rs).
fn assert_lint_rule(tag: &str, kernel: &Kernel) {
    let diags = analysis::lint(&kernel.program, &kernel.entry_regs());
    assert!(
        diags
            .iter()
            .all(|d| d.severity() != Severity::Error && d.kind == LintKind::DeadWrite),
        "{tag}/{}:\n{}",
        kernel.name,
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_ff_program_is_lint_clean() {
    for f in Field32::supported() {
        let name = f.name;
        for op in FfOp::all() {
            for iters in [1u32, 4] {
                assert_lint_rule(&format!("{name} iters={iters}"), &ff_kernel(&f, op, iters));
            }
        }
    }
}

#[test]
fn curve_programs_are_lint_clean() {
    for f in Field32::supported() {
        let name = f.name;
        for kernel in kernels_over(&f, &f) {
            assert_lint_rule(name, &kernel);
        }
    }
}

#[test]
fn declared_inputs_match_inferred_entry_liveness() {
    // The analyzer's entry-live set must be exactly the declared pointer
    // parameters — no forgotten input, no over-declared one.
    for f in Field32::supported() {
        let name = f.name;
        for k in kernels_over(&f, &f) {
            let cfg = Cfg::build(&k.program);
            let mut inferred: Vec<Reg> = Liveness::compute(&k.program, &cfg)
                .entry_live(&cfg, &k.program)
                .into_iter()
                .filter_map(|r| match r {
                    Resource::Reg(x) => Some(x),
                    _ => None,
                })
                .collect();
            inferred.sort_unstable();
            let mut declared = k.entry_regs();
            declared.sort_unstable();
            assert_eq!(inferred, declared, "{name}/{}", k.name);
        }
    }
}

#[test]
fn dangling_carry_is_rejected_with_pc() {
    let mut b = ProgramBuilder::new();
    b.ldg(0, 8, 0);
    // use_cc at pc 1; no set_cc anywhere: a broken carry chain.
    b.iadd3(1, Src::Reg(0), Src::Imm(1), Src::Imm(0), false, true);
    b.stg(1, 8, 0);
    b.exit();
    let diags = analysis::lint(&b.build(), &[8]);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].kind, LintKind::DanglingCarry);
    assert_eq!(diags[0].pc, 1);
}

#[test]
fn uninitialized_read_is_rejected_with_register() {
    let mut b = ProgramBuilder::new();
    // r42 is read but never written and not a declared input.
    b.imad(
        0,
        Src::Reg(42),
        Src::Imm(3),
        Src::Imm(0),
        false,
        false,
        false,
    );
    b.stg(0, 8, 0);
    b.exit();
    let diags = analysis::lint(&b.build(), &[8]);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].kind, LintKind::UninitRegRead);
    assert_eq!(diags[0].pc, 0);
    assert!(diags[0].message.contains("r42"), "{}", diags[0].message);
}

#[test]
fn bad_branch_is_rejected_at_build_time() {
    // A label placed past the last instruction resolves out of range.
    let mut b = ProgramBuilder::new();
    let l = b.label();
    b.setp(0, Src::Reg(8), Src::Imm(1), CmpOp::Lt);
    b.bra(l, Some((0, true)));
    b.exit();
    b.place(l);
    let err = b.try_build().expect_err("target past end must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("pc 1"), "{msg}");
    assert!(msg.contains('3'), "{msg}");
}

#[test]
fn ff_mul_static_mix_regression() {
    // Satellite check: the analyzer's IMAD share for FF_mul must agree
    // with Program::static_mix and stay in the paper's ~70% ballpark
    // (Table VI: FF_mul is 70.8% IMAD).
    for f in Field32::supported() {
        let name = f.name;
        let p = ff_program(&f, FfOp::Mul, 1);
        let metrics = StaticMetrics::compute(&p);
        let mix = p.static_mix();
        assert_eq!(metrics.mix, mix, "{name}");
        let imad = mix
            .iter()
            .find(|(m, _)| *m == "IMAD")
            .map_or(0, |(_, c)| *c);
        let total: u64 = mix.iter().map(|(_, c)| *c).sum();
        let share = imad as f64 / total as f64;
        assert!((share - metrics.imad_share).abs() < 1e-12, "{name}");
        assert!(
            (0.60..=0.80).contains(&share),
            "{name}: IMAD share {share:.3} outside the paper ballpark"
        );
    }
}

#[test]
fn lint_strict_surfaces_memory_lints_with_severity() {
    // The XYZZ kernel's AoS layout is deliberately strided (the paper's
    // scattered MSM bucket case): the default suite stays quiet about it,
    // the opt-in memory analysis reports every access as an uncoalesced
    // warning, and no error-severity diagnostic appears either way.
    let k = xyzz_madd_kernel(&Field32::of::<Fq381Config, 6>());
    let base = analysis::lint(&k.program, &k.entry_regs());
    assert!(
        base.iter().all(|d| d.kind != LintKind::UncoalescedAccess),
        "memory lints must be opt-in"
    );
    assert!(base.iter().all(|d| d.severity() == Severity::Warning));

    let memory = k.memory(&SmspConfig::default()).lints;
    assert!(
        !memory.is_empty()
            && memory
                .iter()
                .all(|d| d.kind == LintKind::UncoalescedAccess && d.severity() == Severity::Warning),
        "strided AoS accesses must be reported as uncoalesced warnings: {memory:?}"
    );
}
