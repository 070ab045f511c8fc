//! Figure-regeneration harness: every figure in the paper's evaluation
//! (Figures 5–18) as a reproducible function, plus the headline summary
//! ratios quoted in the abstract.
//!
//! `cargo run -p ombj-bench --bin figures --release` regenerates them
//! all; `EXPERIMENTS.md` records paper-vs-measured values.

pub mod figures;

pub use figures::{all_figure_ids, headline_summary, run_figure, Figure, Scale, Summary};
