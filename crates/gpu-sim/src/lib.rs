//! A GPU timing and microarchitecture simulator for ZKP workloads.
//!
//! This crate is the hardware substrate of the ZKProphet reproduction: the
//! paper characterizes proof generation on eight NVIDIA GPUs with Nsight
//! Compute; this simulator supplies the same observables without hardware:
//!
//! * [`device`] — the eight-GPU catalog (V100 → H100) parameterized by the
//!   quantities the workload is sensitive to (SM count, INT32 lanes,
//!   clocks, memory system, power).
//! * [`isa`] — a SASS-like micro-ISA (`IMAD`/`IADD3`/`SHF`/branches/
//!   memory) with carry flags and predicates.
//! * [`machine`] — a cycle-level SMSP simulator that *functionally
//!   executes* kernels on 32 per-thread lanes while producing the paper's
//!   metrics: the warp-stall taxonomy of Fig. 10, branch efficiency and
//!   dominant-instruction mix of Table VI, and issue intervals.
//! * [`analysis`] — static analysis of micro-ISA programs: CFG +
//!   liveness/reaching-definitions dataflow, lints (dangling carries,
//!   uninitialized reads, dead writes), and static metrics (instruction
//!   mix, inferred register pressure, dependence depth).
//! * [`mod@occupancy`] — theoretical/achieved occupancy (§IV-C4).
//! * [`transfer`] — the synchronous-vs-overlapped PCIe model (Fig. 7).
//! * [`roofline`] — the integer roofline (Fig. 9).
//! * [`energy`] — the first-order Zeus-style energy model (Table III).
//!
//! # Examples
//!
//! ```
//! use gpu_sim::isa::{ProgramBuilder, Src};
//! use gpu_sim::machine::{Machine, SmspConfig, WarpInit};
//!
//! // A dependent IMAD chain stalls ~4 cycles per instruction.
//! let mut b = ProgramBuilder::new();
//! b.mov(0, Src::Imm(3));
//! for _ in 0..32 {
//!     b.imad(0, Src::Reg(0), Src::Imm(5), Src::Imm(1), false, false, false);
//! }
//! b.exit();
//! let program = b.build();
//! let mut machine = Machine::new(SmspConfig::default(), 0);
//! let result = machine.run(&program, &[WarpInit::default()]);
//! assert!(result.issue_interval() > 3.0);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod device;
pub mod energy;
pub mod isa;
pub mod machine;
pub mod occupancy;
pub mod roofline;
mod scoreboard;
pub mod transfer;

pub use device::{catalog, Architecture, DeviceSpec};
pub use machine::{Machine, SimResult, SmspConfig, StallBreakdown, WarpInit};
pub use occupancy::{occupancy, LaunchConfig, Occupancy};
pub use roofline::{Bound, Roofline, RooflinePoint};
pub use transfer::{combine, transfer_seconds, PhaseTime, TransferMode};
