//! Experiment harness for the ALPHA-PIM reproduction.
//!
//! Each module under [`experiments`] regenerates one table or figure of
//! the paper as a formatted text report; the `src/bin/*` binaries are thin
//! wrappers, and `all_experiments` runs everything and rewrites the
//! measured sections of `EXPERIMENTS.md`.
//!
//! Scale is controlled by environment variables so the same code serves
//! quick smoke runs and the full reproduction:
//!
//! * `ALPHA_PIM_SCALE` — dataset node-count scale factor (default `0.12`);
//! * `ALPHA_PIM_DPUS` — DPU count (default `2048`, the paper's setting);
//! * `ALPHA_PIM_DETAIL` — DPUs receiving full cycle-level simulation per
//!   kernel launch (default `64`).

pub mod audit;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod stopwatch;

pub use harness::HarnessConfig;
