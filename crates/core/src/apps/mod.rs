//! Traversal-based graph applications (§5.1): BFS, SSSP, and PPR, all
//! expressed as iterated matrix–vector products `y = Aᵀ ⊗ x` under the
//! semiring of Table 1, with per-iteration kernel selection (§4.2). BFS,
//! SSSP, PPR, widest-path and WCC share one superstep loop, the crate's
//! `apps::stepper::Stepper`.

pub mod bfs;
pub mod kcore;
pub mod msbfs;
pub mod ppr;
pub mod sssp;
pub(crate) mod stepper;
pub mod triangles;
pub mod wcc;
pub mod widest;

pub use bfs::BfsResult;
pub use kcore::KCoreResult;
pub use msbfs::MsBfsResult;
pub use ppr::{PprOptions, PprResult};
pub use sssp::SsspResult;
pub use triangles::TriangleResult;
pub use wcc::WccResult;
pub use widest::WidestResult;

use alpha_pim_sim::report::{KernelReport, PhaseBreakdown};
use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::{Coo, DenseVector, SparseVector};

use crate::error::AlphaPimError;
use crate::kernel::exec::IterationOutcome;
use crate::kernel::{KernelKind, PreparedSpmspv, PreparedSpmv, SpmspvVariant, SpmvVariant};
use crate::semiring::Semiring;

/// Which kernel(s) an application may use, and when to switch (§4.2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum KernelPolicy {
    /// SpMV for every iteration (the SparseP baseline of Fig 7).
    SpmvOnly(SpmvVariant),
    /// SpMSpV for every iteration.
    SpmspvOnly(SpmspvVariant),
    /// SpMSpV while the input-vector density is below the threshold, SpMV
    /// after (one-way switch, as in §4.2.1).
    FixedThreshold(f64),
    /// Threshold chosen by the framework's decision tree from the graph's
    /// degree statistics (20 % for regular graphs, 50 % for scale-free).
    #[default]
    Adaptive,
}

/// Options shared by all applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppOptions {
    /// Kernel selection policy.
    pub policy: KernelPolicy,
    /// SpMV variant used by threshold policies (default: the paper's best,
    /// DCOO 2D).
    pub spmv_variant: SpmvVariant,
    /// SpMSpV variant used by threshold policies (default: the paper's
    /// best, CSC-2D).
    pub spmspv_variant: SpmspvVariant,
    /// Hard iteration cap.
    pub max_iterations: u32,
}

impl Default for AppOptions {
    fn default() -> Self {
        AppOptions {
            policy: KernelPolicy::Adaptive,
            spmv_variant: SpmvVariant::Dcoo2d,
            spmspv_variant: SpmspvVariant::Csc2d,
            max_iterations: 200,
        }
    }
}

/// Per-iteration record (drives Figs 4, 7, and 8).
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// 0-based iteration index.
    pub index: u32,
    /// Input-vector density at the start of the iteration, in `[0, 1]`.
    pub input_density: f64,
    /// Which kernel ran.
    pub kernel: KernelKind,
    /// Phase times for this iteration (load/kernel/retrieve/merge).
    pub phases: PhaseBreakdown,
    /// The pipeline simulator's kernel report.
    pub kernel_report: KernelReport,
    /// Semiring operations performed.
    pub useful_ops: u64,
}

/// Aggregate record of a full application run.
#[derive(Debug, Clone, Default)]
pub struct AppReport {
    /// Per-iteration statistics, in order.
    pub iterations: Vec<IterationStats>,
    /// Sum of phase times across iterations.
    pub total: PhaseBreakdown,
    /// Total semiring operations.
    pub useful_ops: u64,
    /// Whether the algorithm converged before the iteration cap.
    pub converged: bool,
    /// Whether any iteration completed gracefully degraded (a DPU was lost
    /// without redistribution, so part of the output is missing).
    pub degraded: bool,
}

impl AppReport {
    /// Total wall-clock seconds (all phases, all iterations).
    pub fn total_seconds(&self) -> f64 {
        self.total.total()
    }

    /// Kernel-phase seconds only (the paper's `UPMEM-Kernel` rows).
    pub fn kernel_seconds(&self) -> f64 {
        self.total.kernel
    }

    /// Number of iterations executed.
    pub fn num_iterations(&self) -> u32 {
        self.iterations.len() as u32
    }

    fn push(&mut self, stats: IterationStats) {
        self.total.accumulate(&stats.phases);
        self.useful_ops += stats.useful_ops;
        self.degraded |= stats.kernel_report.degraded;
        self.iterations.push(stats);
    }
}

/// The per-application multiply engine: holds whichever kernel
/// preparations the policy needs and dispatches each iteration to the
/// right one based on input density.
#[derive(Debug)]
pub(crate) struct MvEngine<S: Semiring> {
    n: u32,
    threshold: f64,
    policy: KernelPolicy,
    spmv: Option<PreparedSpmv<S>>,
    spmspv: Option<PreparedSpmspv<S>>,
}

impl<S: Semiring> MvEngine<S> {
    /// Prepares the kernels the policy requires for `matrix` (the
    /// semiring-lifted `Aᵀ`), resolving `Adaptive` to `threshold`.
    pub(crate) fn new(
        matrix: &Coo<S::Elem>,
        options: &AppOptions,
        threshold: f64,
        sys: &PimSystem,
    ) -> Result<Self, AlphaPimError> {
        let n = matrix.n_rows().max(matrix.n_cols());
        let (need_spmv, need_spmspv) = match options.policy {
            KernelPolicy::SpmvOnly(_) => (true, false),
            KernelPolicy::SpmspvOnly(_) => (false, true),
            KernelPolicy::FixedThreshold(_) | KernelPolicy::Adaptive => (true, true),
        };
        let spmv_variant = match options.policy {
            KernelPolicy::SpmvOnly(v) => v,
            _ => options.spmv_variant,
        };
        let spmspv_variant = match options.policy {
            KernelPolicy::SpmspvOnly(v) => v,
            _ => options.spmspv_variant,
        };
        let threshold = match options.policy {
            KernelPolicy::FixedThreshold(t) => t,
            _ => threshold,
        };
        Ok(MvEngine {
            n,
            threshold,
            policy: options.policy,
            spmv: if need_spmv {
                Some(PreparedSpmv::prepare(matrix, spmv_variant, sys)?)
            } else {
                None
            },
            spmspv: if need_spmspv {
                Some(PreparedSpmspv::prepare(matrix, spmspv_variant, sys)?)
            } else {
                None
            },
        })
    }

    /// The matrix dimension.
    pub(crate) fn n(&self) -> u32 {
        self.n
    }

    /// Runs one iteration with the kernel the policy selects for the
    /// current input density.
    pub(crate) fn multiply(
        &self,
        x: &SparseVector<S::Elem>,
        sys: &PimSystem,
    ) -> Result<(IterationOutcome<S>, KernelKind), AlphaPimError> {
        let use_spmv = match self.policy {
            KernelPolicy::SpmvOnly(_) => true,
            KernelPolicy::SpmspvOnly(_) => false,
            KernelPolicy::FixedThreshold(_) | KernelPolicy::Adaptive => {
                x.density() > self.threshold
            }
        };
        if use_spmv {
            let prep = self.spmv.as_ref().ok_or_else(|| {
                AlphaPimError::Config("kernel policy selected SpMV but none was prepared".into())
            })?;
            let dense: DenseVector<S::Elem> = x.to_dense(S::zero());
            let outcome = prep.run(&dense, sys)?;
            Ok((outcome, KernelKind::Spmv(prep.variant())))
        } else {
            let prep = self.spmspv.as_ref().ok_or_else(|| {
                AlphaPimError::Config("kernel policy selected SpMSpV but none was prepared".into())
            })?;
            let outcome = prep.run(x, sys)?;
            Ok((outcome, KernelKind::Spmspv(prep.variant())))
        }
    }
}

/// Validates a source vertex against the graph size.
pub(crate) fn check_source(source: u32, nodes: u32) -> Result<(), AlphaPimError> {
    if source >= nodes {
        return Err(AlphaPimError::InvalidSource { source, nodes });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_use_the_papers_best_kernels() {
        let o = AppOptions::default();
        assert_eq!(o.policy, KernelPolicy::Adaptive);
        assert_eq!(o.spmv_variant, SpmvVariant::Dcoo2d);
        assert_eq!(o.spmspv_variant, SpmspvVariant::Csc2d);
    }

    #[test]
    fn check_source_validates() {
        assert!(check_source(0, 5).is_ok());
        assert!(check_source(5, 5).is_err());
    }

    #[test]
    fn report_accumulates_phases() {
        let mut r = AppReport::default();
        let stats = IterationStats {
            index: 0,
            input_density: 0.1,
            kernel: KernelKind::Spmspv(SpmspvVariant::Csc2d),
            phases: PhaseBreakdown { load: 1.0, kernel: 2.0, retrieve: 3.0, merge: 4.0 },
            kernel_report: dummy_kernel_report(),
            useful_ops: 10,
        };
        r.push(stats.clone());
        r.push(stats);
        assert_eq!(r.num_iterations(), 2);
        assert!((r.total_seconds() - 20.0).abs() < 1e-12);
        assert!((r.kernel_seconds() - 4.0).abs() < 1e-12);
        assert_eq!(r.useful_ops, 20);
    }

    fn dummy_kernel_report() -> KernelReport {
        KernelReport {
            num_dpus: 1,
            detailed_dpus: 1,
            max_cycles: 1,
            seconds: 0.0,
            mean_cycles: 1.0,
            breakdown: Default::default(),
            instr_mix: Default::default(),
            avg_active_threads: 0.0,
            total_instructions: 1,
            degraded: false,
            corrupted_dpus: Vec::new(),
            dpu_details: Vec::new(),
        }
    }
}
