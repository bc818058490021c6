//! Multi-source BFS: batched traversal from `k` sources at once using the
//! SpMM kernel — the natural extension of `v = Aᵀ v` to a frontier *block*
//! `V = Aᵀ V` (§2.2's SpMM in the graph setting). One matrix pass per
//! level serves every source, amortizing streaming and decode costs that
//! a loop of single-source BFS runs would pay `k` times.

use alpha_pim_sim::{CounterSet, PimSystem};
use alpha_pim_sparse::Coo;

use crate::apps::{check_source, AppReport, IterationStats};
use crate::error::AlphaPimError;
use crate::kernel::spmm::{MultiVector, PreparedSpmm};
use crate::kernel::{KernelKind, SpmvVariant};
use crate::semiring::{BoolOrAnd, Semiring};

/// Level assigned to vertices a search never reaches.
pub const UNREACHED: u32 = u32::MAX;

/// The output of a multi-source BFS run.
#[derive(Debug, Clone)]
pub struct MsBfsResult {
    /// `levels[s][v]`: hop distance of vertex `v` from the `s`-th source.
    pub levels: Vec<Vec<u32>>,
    /// Per-iteration and aggregate performance record.
    pub report: AppReport,
}

/// Runs BFS from every vertex in `sources` simultaneously.
///
/// `matrix` must be `Aᵀ` lifted into the Boolean semiring.
///
/// # Errors
///
/// Returns [`AlphaPimError::InvalidSource`] if any source is out of range
/// or the source list is empty, and propagates kernel errors.
pub fn run(
    matrix: &Coo<u32>,
    sources: &[u32],
    max_iterations: u32,
    sys: &PimSystem,
) -> Result<MsBfsResult, AlphaPimError> {
    let n = matrix.n_rows().max(matrix.n_cols());
    if sources.is_empty() {
        return Err(AlphaPimError::InvalidSource { source: 0, nodes: n });
    }
    for &s in sources {
        check_source(s, n)?;
    }
    let k = sources.len();
    let prep = PreparedSpmm::<BoolOrAnd>::prepare(matrix, k as u32, sys)?;

    let mut levels = vec![vec![UNREACHED; n as usize]; k];
    let mut frontier = MultiVector::filled(n as usize, k, BoolOrAnd::zero());
    for (j, &s) in sources.iter().enumerate() {
        levels[j][s as usize] = 0;
        frontier.set(s as usize, j, BoolOrAnd::one());
    }
    let mut report = AppReport::default();

    for iter in 0..max_iterations {
        let active: usize = (0..n as usize)
            .filter(|&i| frontier.row(i).iter().any(|v| !BoolOrAnd::is_zero(v)))
            .count();
        let density = active as f64 / n as f64;
        let outcome = prep.run(&frontier, sys)?;
        let mut phases = outcome.phases;
        phases.merge += sys.scan_time_counted(n as u64 * k as u64, 4, &mut CounterSet::new());

        let mut next = MultiVector::filled(n as usize, k, BoolOrAnd::zero());
        let mut any = false;
        for i in 0..n as usize {
            for (j, level) in levels.iter_mut().enumerate() {
                if !BoolOrAnd::is_zero(&outcome.y.get(i, j)) && level[i] == UNREACHED {
                    level[i] = iter + 1;
                    next.set(i, j, BoolOrAnd::one());
                    any = true;
                }
            }
        }
        report.push(IterationStats {
            index: iter,
            input_density: density,
            kernel: KernelKind::Spmv(SpmvVariant::Dcoo2d),
            phases,
            kernel_report: outcome.kernel,
            useful_ops: outcome.useful_ops,
        });
        if !any {
            report.converged = true;
            break;
        }
        frontier = next;
    }
    Ok(MsBfsResult { levels, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppOptions;
    use alpha_pim_sim::{PimConfig, SimFidelity};
    use alpha_pim_sparse::{gen, Graph};

    fn system() -> PimSystem {
        PimSystem::new(PimConfig {
            num_dpus: 6,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn multi_source_matches_repeated_single_source() {
        let g = Graph::from_coo(gen::erdos_renyi(70, 420, 7).unwrap());
        let m = g.transposed().map(BoolOrAnd::from_weight);
        let sys = system();
        let sources = [0u32, 13, 37];
        let batched = run(&m, &sources, 100, &sys).unwrap();
        for (j, &s) in sources.iter().enumerate() {
            let single =
                crate::apps::bfs::run(&m, s, &AppOptions::default(), 0.5, &sys).unwrap();
            assert_eq!(batched.levels[j], single.levels, "source {s}");
        }
        assert!(batched.report.converged);
    }

    #[test]
    fn batched_run_is_cheaper_than_k_single_runs() {
        let g = Graph::from_coo(gen::erdos_renyi(300, 3000, 3).unwrap());
        let m = g.transposed().map(BoolOrAnd::from_weight);
        let sys = PimSystem::new(PimConfig {
            num_dpus: 32,
            fidelity: SimFidelity::Sampled(8),
            ..Default::default()
        })
        .unwrap();
        let sources = [0u32, 50, 100, 150];
        let batched = run(&m, &sources, 100, &sys).unwrap().report.total_seconds();
        let mut singles = 0.0;
        for &s in &sources {
            singles += crate::apps::bfs::run(&m, s, &AppOptions::default(), 0.5, &sys)
                .unwrap()
                .report
                .total_seconds();
        }
        assert!(batched < singles, "batched {batched} vs {singles}");
    }

    #[test]
    fn empty_and_invalid_sources_are_rejected() {
        let g = Graph::from_coo(gen::erdos_renyi(10, 40, 1).unwrap());
        let m = g.transposed().map(BoolOrAnd::from_weight);
        let sys = system();
        assert!(run(&m, &[], 10, &sys).is_err());
        assert!(run(&m, &[99], 10, &sys).is_err());
    }
}
