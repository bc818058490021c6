//! Kernel execution outcomes and the one launch path every kernel shares:
//! the four-phase accounting of §4.1.

use alpha_pim_sim::report::{DpuEval, KernelReport, PhaseBreakdown};
use alpha_pim_sim::{CounterSet, KernelAccumulator, PimSystem};
use alpha_pim_sparse::DenseVector;

use crate::kernel::integrity::IntegrityGuard;
use crate::semiring::Semiring;

/// The result of one matrix–vector multiplication on the PIM system.
#[derive(Debug, Clone)]
pub struct IterationOutcome<S: Semiring> {
    /// The full output vector `y = M ⊗ x` in the kernel's semiring.
    pub y: DenseVector<S::Elem>,
    /// Wall-clock phase breakdown (Load / Kernel / Retrieve / Merge).
    pub phases: PhaseBreakdown,
    /// Cycle-level kernel report from the pipeline simulator.
    pub kernel: KernelReport,
    /// Semiring operations actually performed (2 per processed entry),
    /// for compute-utilization accounting.
    pub useful_ops: u64,
    /// Non-zero entries in the output vector.
    pub output_nnz: usize,
}

impl<S: Semiring> IterationOutcome<S> {
    /// The outcome of a [`launch`] whose landed partitions wrote `y`.
    pub(crate) fn new(y: Vec<S::Elem>, (kernel, phases, useful_ops): Launched) -> Self {
        let output_nnz = y.iter().filter(|v| !S::is_zero(v)).count();
        IterationOutcome { y: DenseVector::from_values(y), phases, kernel, useful_ops, output_nnz }
    }

    /// Total wall-clock seconds of the iteration.
    pub fn total_seconds(&self) -> f64 {
        self.phases.total()
    }

    /// Compresses the output into non-zero `(index, value)` pairs.
    pub fn output_sparse(&self) -> alpha_pim_sparse::SparseVector<S::Elem> {
        self.y.to_sparse(|v| !S::is_zero(v))
    }
}

/// How a launch ships its input to the DPUs (the Load phase).
#[derive(Debug, Clone, Copy)]
pub(crate) enum LoadModel {
    /// The same `bytes` go to each of the `live` DPUs holding rows.
    Broadcast { bytes: u64, live: u32 },
    /// Each landed partition receives its own [`Landed::load`] bytes.
    Scatter,
}

/// How the host combines the landed partitions (the Merge phase).
#[derive(Debug, Clone, Copy)]
pub(crate) enum MergeModel {
    /// Partitions write disjoint slices of the output: nothing to merge.
    None,
    /// `elements` outputs, each reduced over `fan_in` partials of `bytes`.
    Grid { elements: u64, fan_in: u32, bytes: u32 },
    /// The landed partitions' [`Landed::merged`] entries (at least one),
    /// `bytes` each.
    Entries { bytes: u32 },
    /// One scan over `elements` values of `bytes` each.
    Scan { elements: u64, bytes: u32 },
}

/// What one landed partition adds to its launch's accounting.
#[derive(Debug, Default)]
pub(crate) struct Landed {
    /// Useful semiring operations the partition performed.
    pub(crate) ops: u64,
    /// Bytes scattered to the partition under [`LoadModel::Scatter`].
    pub(crate) load: u64,
    /// Bytes retrieved from the partition.
    pub(crate) retrieve: u64,
    /// Output entries the host merges under [`MergeModel::Entries`].
    pub(crate) merged: u64,
}

/// A finished launch: its report, its four phases and the useful
/// operations of the partitions it landed.
pub(crate) type Launched = (KernelReport, PhaseBreakdown, u64);

/// The one launch path: everything after a launch's partitions evaluate.
///
/// `evals` holds each partition's evaluation and output in partition
/// order. Each is merged into `acc` in that order, so reports stay
/// bit-identical to a sequential run. A partition lost without
/// redistribution is dropped: its output never lands and the report
/// completes degraded. Every other output goes to `land`, which writes it
/// into the variant's result and returns its [`Landed`] accounting; only
/// a partition that executed work is lent the [`IntegrityGuard`] to admit
/// its output first, since an idle DPU cannot be a fault site. The load,
/// kernel, retrieve and merge phases are then charged — recording bus
/// traffic and host work into the report's counters, timeouts included —
/// and the guard folds its `sdc.*` ledger into the report.
pub(crate) fn launch<T>(
    sys: &PimSystem,
    mut acc: KernelAccumulator,
    evals: Vec<(DpuEval, T)>,
    load: LoadModel,
    merge: MergeModel,
    mut land: impl FnMut(usize, T, Option<&mut IntegrityGuard<'_>>) -> Landed,
) -> Launched {
    /// Host-side kernel launch overhead added to the kernel phase, seconds.
    const KERNEL_LAUNCH_S: f64 = 30e-6;
    let mut guard = IntegrityGuard::new(sys);
    let mut scattered = vec![0u64; evals.len()];
    let mut retrieve = vec![0u64; evals.len()];
    let (mut ops, mut merged) = (0u64, 0u64);
    for (part, (eval, out)) in evals.into_iter().enumerate() {
        let (lost, active) = (eval.is_lost(), eval.is_active());
        acc.merge(eval);
        if lost {
            continue;
        }
        let landed = land(part, out, active.then_some(&mut guard));
        ops += landed.ops;
        scattered[part] = landed.load;
        retrieve[part] = landed.retrieve;
        merged += landed.merged;
    }
    let mut kernel = acc.finish();
    let mut host = CounterSet::new();
    let mut phases = PhaseBreakdown {
        load: match load {
            LoadModel::Broadcast { bytes, live } => {
                sys.broadcast_time_counted(bytes, live, &mut host)
            }
            LoadModel::Scatter => sys.scatter_time_counted(&scattered, &mut host),
        },
        kernel: kernel.seconds + KERNEL_LAUNCH_S,
        retrieve: sys.gather_time_counted(&retrieve, &mut host),
        merge: match merge {
            MergeModel::None => 0.0,
            MergeModel::Grid { elements, fan_in, bytes } => {
                sys.merge_time_counted(elements, fan_in, bytes, &mut host)
            }
            MergeModel::Entries { bytes } => {
                sys.merge_time_counted(merged.max(1), 1, bytes, &mut host)
            }
            MergeModel::Scan { elements, bytes } => {
                sys.scan_time_counted(elements, bytes, &mut host)
            }
        },
    };
    kernel.breakdown.counters.merge(&host);
    guard.finalize(sys, &mut kernel, &mut phases);
    (kernel, phases, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::BoolOrAnd;
    use alpha_pim_sim::report::CycleBreakdown;
    use alpha_pim_sim::InstrMix;

    fn dummy_kernel_report() -> KernelReport {
        KernelReport {
            num_dpus: 1,
            detailed_dpus: 1,
            max_cycles: 100,
            seconds: 1e-6,
            mean_cycles: 100.0,
            breakdown: CycleBreakdown::default(),
            instr_mix: InstrMix::new(),
            avg_active_threads: 1.0,
            total_instructions: 100,
            degraded: false,
            corrupted_dpus: Vec::new(),
            dpu_details: Vec::new(),
        }
    }

    #[test]
    fn outcome_totals_and_compression() {
        let outcome: IterationOutcome<BoolOrAnd> = IterationOutcome {
            y: DenseVector::from_values(vec![0, 1, 0, 1]),
            phases: PhaseBreakdown { load: 1.0, kernel: 2.0, retrieve: 3.0, merge: 4.0 },
            kernel: dummy_kernel_report(),
            useful_ops: 8,
            output_nnz: 2,
        };
        assert!((outcome.total_seconds() - 10.0).abs() < 1e-12);
        let sparse = outcome.output_sparse();
        assert_eq!(sparse.indices(), &[1, 3]);
    }
}
