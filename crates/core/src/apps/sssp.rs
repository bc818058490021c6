//! Single-source shortest paths as iterated (min, +) matrix–vector
//! products (Bellman-Ford relaxation, §2.1 and Table 1).
//!
//! Each iteration multiplies the weighted `Aᵀ` by the *relaxation
//! frontier* — the vertices whose distance improved last round, carrying
//! their tentative distances — under the tropical semiring: candidate
//! distance `y[i] = min over edges (j→i) of (dist[j] + w)`. The frontier
//! shrinks as distances settle, so density falls over time (Fig 4, right).

use std::rc::Rc;

use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::Coo;

use crate::apps::stepper::Relax;
use crate::apps::{AppOptions, AppReport, MvEngine};
use crate::error::AlphaPimError;
use crate::semiring::MinPlus;

/// The output of an SSSP run.
#[derive(Debug, Clone)]
pub struct SsspResult {
    /// Shortest distance per vertex; [`INF`](crate::semiring::INF) if
    /// unreachable.
    pub distances: Vec<u32>,
    /// Per-iteration and aggregate performance record.
    pub report: AppReport,
}

/// Runs SSSP from `source` over the weighted, lifted `Aᵀ`.
///
/// `matrix` must carry positive edge weights in the (min, +) semiring.
///
/// # Errors
///
/// Returns [`AlphaPimError::InvalidSource`] for an out-of-range source and
/// propagates kernel errors.
pub fn run(
    matrix: &Coo<u32>,
    source: u32,
    options: &AppOptions,
    threshold: f64,
    sys: &PimSystem,
) -> Result<SsspResult, AlphaPimError> {
    let engine: MvEngine<MinPlus> = MvEngine::new(matrix, options, threshold, sys)?;
    let stepper = Relax::from_source(Rc::new(engine), source, options.max_iterations)?;
    let (dist, report) = stepper.run(sys)?;
    Ok(SsspResult { distances: dist.values, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::KernelPolicy;
    use crate::semiring::{Semiring, INF};
    use crate::kernel::{SpmspvVariant, SpmvVariant};
    use alpha_pim_sim::{PimConfig, SimFidelity};
    use alpha_pim_sparse::Graph;

    fn system() -> PimSystem {
        PimSystem::new(PimConfig {
            num_dpus: 5,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    fn lifted_transpose(g: &Graph) -> Coo<u32> {
        g.transposed().map(MinPlus::from_weight)
    }

    /// Reference Dijkstra on the adjacency list.
    fn reference_sssp(g: &Graph, src: u32) -> Vec<u32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let csr = g.to_csr();
        let mut dist = vec![INF; g.nodes() as usize];
        dist[src as usize] = 0;
        let mut heap = BinaryHeap::from([Reverse((0u32, src))]);
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            let (cols, weights) = csr.row(u);
            for (&v, &w) in cols.iter().zip(weights) {
                let nd = d.saturating_add(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    fn weighted_graph(nodes: u32, edges: usize, seed: u64) -> Graph {
        Graph::from_coo(alpha_pim_sparse::gen::erdos_renyi(nodes, edges, seed).unwrap())
            .with_random_weights(9)
    }

    #[test]
    fn sssp_matches_dijkstra_on_small_weighted_graph() {
        let coo = Coo::from_entries(
            5,
            5,
            vec![(0, 1, 4u32), (0, 2, 1), (2, 1, 1), (1, 3, 2), (2, 3, 7), (3, 4, 1)],
        )
        .unwrap();
        let g = Graph::from_coo(coo);
        let sys = system();
        let r = run(&lifted_transpose(&g), 0, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.distances, vec![0, 2, 1, 4, 5]);
        assert!(r.report.converged);
    }

    #[test]
    fn sssp_matches_dijkstra_under_all_policies() {
        let g = weighted_graph(50, 260, 11);
        let sys = system();
        let expect = reference_sssp(&g, 7);
        let m = lifted_transpose(&g);
        let policies = [
            KernelPolicy::SpmvOnly(SpmvVariant::Dcoo2d),
            KernelPolicy::SpmspvOnly(SpmspvVariant::Csc2d),
            KernelPolicy::SpmspvOnly(SpmspvVariant::Coo),
            KernelPolicy::FixedThreshold(0.2),
        ];
        for policy in policies {
            let options = AppOptions { policy, ..Default::default() };
            let r = run(&m, 7, &options, 0.5, &sys).unwrap();
            assert_eq!(r.distances, expect, "policy {policy:?}");
        }
    }

    #[test]
    fn unreachable_vertices_stay_at_infinity() {
        let coo = Coo::from_entries(3, 3, vec![(0, 1, 5u32)]).unwrap();
        let g = Graph::from_coo(coo);
        let sys = system();
        let r = run(&lifted_transpose(&g), 0, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.distances, vec![0, 5, INF]);
    }

    #[test]
    fn invalid_source_is_rejected() {
        let g = weighted_graph(10, 30, 1);
        let sys = system();
        let e = run(&lifted_transpose(&g), 99, &AppOptions::default(), 0.5, &sys);
        assert!(matches!(e, Err(AlphaPimError::InvalidSource { .. })));
    }

    #[test]
    fn frontier_density_eventually_shrinks() {
        let g = weighted_graph(80, 600, 3);
        let sys = system();
        let r = run(&lifted_transpose(&g), 0, &AppOptions::default(), 0.5, &sys).unwrap();
        assert!(r.report.converged);
        let densities: Vec<f64> =
            r.report.iterations.iter().map(|s| s.input_density).collect();
        // SSSP frontiers grow then shrink; the last frontier must be small.
        assert!(*densities.last().unwrap() < densities.iter().cloned().fold(0.0, f64::max) + 1e-12);
    }
}
