//! Home of the `paper_tables` regenerator (`benches/paper_tables.rs`). Speed
//! is measured by the `zkbench/` package, not here.
