//! The ALPHA-PIM benchmark: three workloads that each load a different
//! layer of the stack, measured end to end on the host clock and the model
//! clock, plus a traced run that times every call into each layer from
//! outside. `BENCHMARK.json` lists two of them; the third, churn-service,
//! is measured layer by layer inside analytic-serve's traced run. See
//! `README.md` beside this crate for the workload rationale
//! and the layer → metric → workload map.

pub mod analytic_serve;
pub mod churn_service;
pub mod common;
pub mod driver;
pub mod env;
pub mod metrics;
pub mod paper_replay;
pub mod probes;
pub mod stats;
pub mod trace;

pub use driver::{Options, Outcome, Size};

/// The seed results are frozen at.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking that a claim generalizes.
pub const HELDOUT_SEED: u64 = 7919;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["paper-replay", "analytic-serve", "churn-service"];

/// Runs the named workload.
///
/// # Errors
///
/// An unknown name, or any library error during the run.
pub fn run(workload: &str, opts: Options) -> Result<Outcome, String> {
    match workload {
        "paper-replay" => driver::run::<paper_replay::PaperReplay>(opts),
        "analytic-serve" => driver::run::<analytic_serve::AnalyticServe>(opts),
        "churn-service" => driver::run::<churn_service::ChurnService>(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
