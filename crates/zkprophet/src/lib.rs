//! ZKProphet — a performance study of Zero-Knowledge Proofs on (simulated)
//! GPUs.
//!
//! This crate is the top of the reproduction stack: it composes the
//! functional ZKP layers (`zkp-ff` … `zkp-groth16`), the GPU simulator
//! (`gpu-sim`), and the kernel/library models (`gpu-kernels`) into the
//! paper's experiments — every table and figure of the evaluation — plus
//! the §V autotuner the paper calls for. It is the one modelling crate:
//! [`sim`] is the GPU price list and [`prover_model::price`] the one
//! composition of a proof's cost.
//!
//! # Quickstart
//!
//! ```
//! use gpu_sim::device::a40;
//! use zkprophet::experiments::kernel_layer;
//!
//! // Reproduce Table II on the paper's primary platform.
//! let rows = kernel_layer::table2(&a40());
//! assert_eq!(rows[0].msm_lib.name(), "sppark");
//! println!("{}", kernel_layer::render_table2(&rows));
//! ```

#![forbid(unsafe_code)]

pub mod autotune;
pub mod experiments;
pub mod prover_model;
pub mod report;
pub mod sim;

pub use experiments::full_report;
pub use prover_model::{canonical_ops, cpu_prover_seconds, gpu_prover, price, ProverBreakdown};
pub use sim::{BackendSpec, GpuCostModel};
