//! k-core decomposition via linear-algebraic peeling — one more member of
//! the semiring family (§5.1): each peeling round removes every vertex
//! whose remaining degree is below `k`, and the degree updates of the
//! survivors are exactly `y = Aᵀ ⊗ 1_R` under the counting semiring
//! (how many of each vertex's neighbours were just removed).
//!
//! The removal frontier starts small and usually shrinks over rounds, so
//! the workload is SpMSpV-shaped throughout — another traversal pattern
//! for the adaptive machinery to feed on.

use alpha_pim_sim::{CounterSet, PimSystem};
use alpha_pim_sparse::{Coo, Graph, SparseVector};

use crate::apps::{AppOptions, AppReport, IterationStats, MvEngine};
use crate::error::AlphaPimError;
use crate::semiring::{CountPlus, Semiring};

/// The output of a k-core run.
#[derive(Debug, Clone)]
pub struct KCoreResult {
    /// Whether each vertex belongs to the k-core.
    pub in_core: Vec<bool>,
    /// Number of vertices in the k-core.
    pub core_size: usize,
    /// Per-round and aggregate performance record.
    pub report: AppReport,
}

/// Lifts a graph for peeling: the symmetrized adjacency with unit counts.
pub fn count_matrix(g: &Graph) -> Coo<u32> {
    let mut sym = g.adjacency().clone();
    for (r, c, v) in g.adjacency().transpose().iter() {
        sym.push(r, c, v).expect("same dimensions");
    }
    sym.coalesce(|a, _| a).map(|_| 1u32)
}

/// Computes the `k`-core of the (symmetrized) graph by iterative peeling.
///
/// # Errors
///
/// Returns [`AlphaPimError::Config`] for `k == 0` and propagates kernel
/// errors.
pub fn run(
    matrix: &Coo<u32>,
    k: u32,
    options: &AppOptions,
    threshold: f64,
    sys: &PimSystem,
) -> Result<KCoreResult, AlphaPimError> {
    if k == 0 {
        return Err(AlphaPimError::Config("k must be positive for k-core".into()));
    }
    let engine: MvEngine<CountPlus> = MvEngine::new(matrix, options, threshold, sys)?;
    let n = engine.n();

    // Initial degrees from the symmetrized matrix.
    let mut degree = vec![0u32; n as usize];
    for &r in matrix.rows() {
        degree[r as usize] += 1;
    }
    let mut alive = vec![true; n as usize];
    let mut report = AppReport::default();

    for round in 0..options.max_iterations {
        // Vertices falling below k this round.
        let removed: Vec<u32> = (0..n)
            .filter(|&v| alive[v as usize] && degree[v as usize] < k)
            .collect();
        if removed.is_empty() {
            report.converged = true;
            break;
        }
        for &v in &removed {
            alive[v as usize] = false;
        }
        let ones = vec![CountPlus::one(); removed.len()];
        let frontier = SparseVector::from_pairs(n as usize, removed, ones)
            .expect("removed vertices are unique");
        let density = frontier.density();
        // Count, for every vertex, how many of its neighbours were removed.
        let (outcome, kernel) = engine.multiply(&frontier, sys)?;
        let mut phases = outcome.phases;
        phases.merge += sys.scan_time_counted(n as u64, 4, &mut CounterSet::new());
        for (v, &lost) in outcome.y.values().iter().enumerate() {
            if alive[v] {
                degree[v] = degree[v].saturating_sub(lost);
            }
        }
        report.push(IterationStats {
            index: round,
            input_density: density,
            kernel,
            phases,
            kernel_report: outcome.kernel,
            useful_ops: outcome.useful_ops,
        });
    }
    let core_size = alive.iter().filter(|&&a| a).count();
    Ok(KCoreResult { in_core: alive, core_size, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_pim_sim::{PimConfig, SimFidelity};

    fn system() -> PimSystem {
        PimSystem::new(PimConfig {
            num_dpus: 5,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    /// Reference sequential peeling on the symmetrized adjacency.
    fn reference_kcore(g: &Graph, k: u32) -> Vec<bool> {
        let m = count_matrix(g);
        let csr = m.to_csr();
        let mut degree: Vec<u32> = m.row_counts();
        let mut alive = vec![true; g.nodes() as usize];
        loop {
            let removed: Vec<u32> = (0..g.nodes())
                .filter(|&v| alive[v as usize] && degree[v as usize] < k)
                .collect();
            if removed.is_empty() {
                break;
            }
            for &v in &removed {
                alive[v as usize] = false;
                let (neighbors, _) = csr.row(v);
                for &u in neighbors {
                    degree[u as usize] = degree[u as usize].saturating_sub(1);
                }
            }
        }
        alive
    }

    #[test]
    fn triangle_with_tail_has_a_2core_of_three() {
        // Triangle 0-1-2 with a pendant path 2-3-4.
        let coo = Coo::from_entries(
            5,
            5,
            vec![(0, 1, 1u32), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 4, 1)],
        )
        .unwrap();
        let g = Graph::from_coo(coo);
        let sys = system();
        let r = run(&count_matrix(&g), 2, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.in_core, vec![true, true, true, false, false]);
        assert_eq!(r.core_size, 3);
        assert!(r.report.converged);
    }

    #[test]
    fn matches_reference_peeling_on_random_graphs() {
        for (seed, k) in [(3u64, 2u32), (7, 3), (11, 4)] {
            let g = alpha_pim_sparse::Graph::from_coo(
                alpha_pim_sparse::gen::erdos_renyi(70, 500, seed).unwrap(),
            );
            let sys = system();
            let r = run(&count_matrix(&g), k, &AppOptions::default(), 0.5, &sys).unwrap();
            assert_eq!(r.in_core, reference_kcore(&g, k), "seed {seed} k {k}");
        }
    }

    #[test]
    fn k1_core_keeps_every_non_isolated_vertex() {
        let coo = Coo::from_entries(4, 4, vec![(0, 1, 1u32)]).unwrap();
        let g = Graph::from_coo(coo);
        let sys = system();
        let r = run(&count_matrix(&g), 1, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.in_core, vec![true, true, false, false]);
    }

    #[test]
    fn huge_k_empties_the_graph() {
        let g = alpha_pim_sparse::Graph::from_coo(
            alpha_pim_sparse::gen::erdos_renyi(40, 200, 1).unwrap(),
        );
        let sys = system();
        let r = run(&count_matrix(&g), 1000, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.core_size, 0);
    }

    #[test]
    fn zero_k_is_rejected() {
        let g = alpha_pim_sparse::Graph::from_coo(
            alpha_pim_sparse::gen::erdos_renyi(10, 30, 1).unwrap(),
        );
        let sys = system();
        assert!(run(&count_matrix(&g), 0, &AppOptions::default(), 0.5, &sys).is_err());
    }
}
