//! Golden table of what the verified optimizer emits for the kernel zoo.
//!
//! `optimizer_gate` bounds the zoo's predicted cycles against
//! `BENCH_kernels.json`, so an optimizer change that kept every cycle
//! count but emitted a different program would pass it. This table pins
//! the program itself: per zoo kernel on `v100`, an FNV-1a digest of the
//! optimized instructions, the pc remapping and the register renaming,
//! and the pass rewrite counts of its `OptReport`. Any change to the term
//! engine, the passes, the list scheduler or the register allocator that
//! moves a single instruction shows up here. On mismatch the test prints
//! the complete actual table, ready to paste.

use gpu_kernels::optimized::optimized_zoo;
use gpu_sim::device::v100;

/// Streaming FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn actual_table() -> String {
    let mut rows = Vec::new();
    for k in optimized_zoo(&v100()) {
        let o = &k.optimized;
        let mut h = Fnv::new();
        h.update(o.program.to_string().as_bytes());
        h.update(format!("{:?}", o.pc_map).as_bytes());
        h.update(format!("{:?}", o.reg_map).as_bytes());
        let r = &o.report;
        rows.push(format!(
            "{} {}: digest={:016x} instructions={} simplified={} loads_eliminated={} \
             stores_eliminated={} dead_removed={} moved={}",
            k.kernel.name,
            k.kernel.field.name,
            h.0,
            r.instructions_after,
            r.simplified,
            r.loads_eliminated,
            r.stores_eliminated,
            r.dead_removed,
            r.moved
        ));
    }
    rows.join("\n")
}

#[test]
fn optimizer_outputs_match_the_committed_table() {
    let actual = actual_table();
    assert!(
        actual == GOLDEN.trim(),
        "optimizer outputs changed; actual table:\n{actual}\n"
    );
}

const GOLDEN: &str = "
FF_add BLS12-381 Fq: digest=4ba2a5c33fd50a17 instructions=80 simplified=1 loads_eliminated=0 stores_eliminated=0 dead_removed=0 moved=0
FF_sub BLS12-381 Fq: digest=6718ecaa2dd11fc7 instructions=80 simplified=1 loads_eliminated=0 stores_eliminated=0 dead_removed=0 moved=0
FF_dbl BLS12-381 Fq: digest=b7d39a7d15f898df instructions=73 simplified=1 loads_eliminated=0 stores_eliminated=0 dead_removed=0 moved=2
FF_mul BLS12-381 Fq: digest=bdd3208f59978018 instructions=723 simplified=103 loads_eliminated=0 stores_eliminated=0 dead_removed=43 moved=310
FF_sqr BLS12-381 Fq: digest=499ea388b52c6866 instructions=711 simplified=103 loads_eliminated=0 stores_eliminated=0 dead_removed=43 moved=310
XYZZ madd BLS12-381 Fq: digest=9a0fe6525dc7741b instructions=7231 simplified=1037 loads_eliminated=0 stores_eliminated=0 dead_removed=430 moved=3307
NTT butterfly BLS12-381 Fr: digest=51bb81043b0951b6 instructions=421 simplified=89 loads_eliminated=0 stores_eliminated=0 dead_removed=31 moved=254
";
