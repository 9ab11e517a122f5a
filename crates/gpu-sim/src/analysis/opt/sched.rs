//! Dependence-aware list scheduling within basic blocks.
//!
//! Each reachable block's instructions are rebuilt into a dependence DAG
//! — true/anti/output edges over registers, predicates and the carry
//! flag, plus memory-ordering edges (store–store always; load–store
//! only when the alias oracle cannot prove the accesses disjoint) — and
//! re-emitted by a greedy cycle-driven scheduler that models the SMSP's
//! issue pipes exactly like `predict_schedule`'s scoreboard: one INT32
//! issue every `warp_size / int32_lanes` cycles, one LSU issue per
//! wavefront. Candidates are ranked by earliest feasible issue cycle,
//! then by latency-weighted longest path to the block exit, then by
//! original position — making the schedule deterministic and
//! independent of everything but the program and the machine model.
//!
//! Control structure is untouched: `BRA`/`EXIT` terminators stay
//! pinned at their block's end, block spans keep their boundaries, and
//! branch targets are never rewritten.

use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::{instr_defs, instr_uses, ResourceMap};
use crate::analysis::schedule::MemTimings;
use crate::isa::{Instr, Program};
use crate::machine::SmspConfig;
use crate::scoreboard::{int32_interval, result_latency};

use super::validate::{BlockSym, Env, MemOracle, Terms};

/// One dependence edge `from → to` with an issue-to-issue latency.
#[derive(Clone, Copy)]
struct Edge {
    to: usize,
    latency: u64,
}

/// Reorders every reachable block of `program` by greedy list
/// scheduling. Returns the new program, the pc remapping
/// (`map[old] = Some(new)`, total), and how many instructions moved.
pub(super) fn list_schedule(
    program: &Program,
    oracle: &MemOracle,
    config: &SmspConfig,
    mem: &MemTimings,
) -> (Program, Vec<Option<usize>>, usize) {
    let cfg = Cfg::build(program);
    let map = ResourceMap::of(program);
    let mut order: Vec<usize> = (0..program.len()).collect();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        // Pin a control-transfer terminator to the block end; everything
        // else is schedulable.
        let term_pinned = matches!(
            program.fetch(blk.terminator_pc()),
            Instr::Bra { .. } | Instr::Exit
        );
        let body_end = if term_pinned { blk.end - 1 } else { blk.end };
        if body_end.saturating_sub(blk.start) < 2 {
            continue;
        }
        let scheduled = schedule_block(program, &map, blk.start, body_end, oracle, config, mem);
        order.splice(blk.start..body_end, scheduled);
    }
    let mut map = vec![None; program.len()];
    let mut out = Vec::with_capacity(program.len());
    for (new_pc, &old_pc) in order.iter().enumerate() {
        map[old_pc] = Some(new_pc);
        out.push(program.fetch(old_pc));
    }
    let moved = map
        .iter()
        .enumerate()
        .filter(|(old, new)| Some(*old) != **new)
        .count();
    (Program::from_instrs(out), map, moved)
}

/// Schedules the instructions `start..end` (all within one block, no
/// control transfers), returning their new order as original pcs. `map`
/// indexes the whole program's resources.
fn schedule_block(
    program: &Program,
    map: &ResourceMap,
    start: usize,
    end: usize,
    oracle: &MemOracle,
    config: &SmspConfig,
    mem: &MemTimings,
) -> Vec<usize> {
    let n = end - start;
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    let add_edge = |edges: &mut Vec<Vec<Edge>>,
                    indeg: &mut Vec<usize>,
                    from: usize,
                    to: usize,
                    latency: u64| {
        edges[from].push(Edge { to, latency });
        indeg[to] += 1;
    };

    // The issue-to-ready latency an instruction imposes on consumers of
    // its results: the scoreboard's result latency, plus the serialized
    // wavefront tail for loads.
    let latency_of = |pc: usize| -> u64 {
        let inst = program.fetch(pc);
        let extra = if matches!(inst, Instr::Ldg { .. }) {
            mem.get(pc).saturating_sub(1)
        } else {
            0
        };
        result_latency(&inst, config) + extra
    };

    // Register/predicate/carry dependences.
    let mut last_def: Vec<Option<usize>> = vec![None; map.len()];
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); map.len()];
    for i in 0..n {
        let pc = start + i;
        let inst = program.fetch(pc);
        // An instruction reads at most four resources (three sources and
        // the carry) and writes at most two (a destination and the carry).
        let (mut uses, mut nu) = ([0usize; 4], 0);
        let (mut defs, mut nd) = ([0usize; 2], 0);
        instr_uses(&inst, |r| {
            uses[nu] = map.index(r);
            nu += 1;
        });
        instr_defs(&inst, |r| {
            defs[nd] = map.index(r);
            nd += 1;
        });
        let (uses, defs) = (&uses[..nu], &defs[..nd]);
        for &u in uses {
            if let Some(d) = last_def[u] {
                add_edge(&mut edges, &mut indeg, d, i, latency_of(start + d));
            }
        }
        for &d in defs {
            if let Some(p) = last_def[d] {
                add_edge(&mut edges, &mut indeg, p, i, 1);
            }
            for &r in &readers[d] {
                if r != i {
                    add_edge(&mut edges, &mut indeg, r, i, 1);
                }
            }
        }
        for &u in uses {
            readers[u].push(i);
        }
        for &d in defs {
            last_def[d] = Some(i);
            readers[d].clear();
        }
    }

    // Memory-ordering dependences, using the symbolic engine's per-access
    // locations so the scheduler only reorders what the validator can
    // verify.
    let mut terms = Terms::new();
    let sym_env = Env::symbolic(&mut terms);
    let mut sym = BlockSym::new(&mut terms, sym_env);
    for pc in start..end {
        sym.step(&mut terms, oracle, pc, &program.fetch(pc));
    }
    let mut accesses: Vec<(usize, bool, Option<crate::analysis::addr::Loc>)> = Vec::new();
    for l in &sym.loads {
        accesses.push((l.pc - start, false, l.loc));
    }
    for s in &sym.stores {
        accesses.push((s.pc - start, true, s.loc));
    }
    accesses.sort_by_key(|a| a.0);
    for (x, &(xi, xs, xl)) in accesses.iter().enumerate() {
        for &(yi, ys, yl) in accesses.iter().skip(x + 1) {
            if !xs && !ys {
                continue; // load–load pairs never conflict
            }
            if xs && ys {
                add_edge(&mut edges, &mut indeg, xi, yi, 1); // stores stay ordered
            } else if !oracle.provably_distinct(xl, yl) {
                add_edge(&mut edges, &mut indeg, xi, yi, 1);
            }
        }
    }

    // Priority: latency-weighted longest path from each node to a sink.
    let mut prio = vec![0u64; n];
    for i in (0..n).rev() {
        let mut p = latency_of(start + i);
        for e in &edges[i] {
            p = p.max(e.latency + prio[e.to]);
        }
        prio[i] = p;
    }

    // Greedy cycle-driven selection.
    let int32_interval = int32_interval(config);
    let mut est = vec![0u64; n];
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    let (mut cycle, mut int32_free, mut mem_free) = (0u64, 0u64, 0u64);
    while let Some(&first) = ready.first() {
        let mut best = first;
        let mut best_start = u64::MAX;
        for &i in &ready {
            let inst = program.fetch(start + i);
            let pipe_free = if inst.uses_int32_pipe() {
                int32_free
            } else if inst.uses_lsu() {
                mem_free
            } else {
                0
            };
            let s = est[i].max(cycle).max(pipe_free);
            if s < best_start || (s == best_start && prio[i] > prio[best]) {
                best = i;
                best_start = s;
            }
        }
        ready.retain(|&i| i != best);
        out.push(start + best);
        let inst = program.fetch(start + best);
        if inst.uses_int32_pipe() {
            int32_free = best_start + int32_interval;
        } else if inst.uses_lsu() {
            mem_free = best_start + mem.get(start + best);
        }
        cycle = best_start + 1;
        for e in &edges[best] {
            est[e.to] = est[e.to].max(best_start + e.latency);
            indeg[e.to] -= 1;
            if indeg[e.to] == 0 {
                // Keep `ready` sorted by node index so tie-breaks are
                // deterministic and favor original order.
                let pos = ready.partition_point(|&j| j < e.to);
                ready.insert(pos, e.to);
            }
        }
    }
    debug_assert_eq!(out.len(), n);
    out
}
