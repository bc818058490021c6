//! Widest-path (maximum-bottleneck) routing — an extension algorithm from
//! the broader semiring family the paper points to (§5.1 cites Kepner &
//! Gilbert's catalog): iterate `y = Aᵀ ⊗ x` under the (max, min) semiring
//! to find, for every vertex, the path from the source that maximizes its
//! smallest edge capacity.

use std::rc::Rc;

use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::Coo;

use crate::apps::stepper::Relax;
use crate::apps::{AppOptions, AppReport, MvEngine};
use crate::error::AlphaPimError;
use crate::semiring::MaxMin;

/// The output of a widest-path run.
#[derive(Debug, Clone)]
pub struct WidestResult {
    /// Best bottleneck capacity per vertex; 0 if unreachable,
    /// `u32::MAX` for the source itself.
    pub capacities: Vec<u32>,
    /// Per-iteration and aggregate performance record.
    pub report: AppReport,
}

/// Runs widest-path from `source` over the capacity-lifted `Aᵀ`.
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
) -> Result<WidestResult, AlphaPimError> {
    let engine: MvEngine<MaxMin> = MvEngine::new(matrix, options, threshold, sys)?;
    let stepper = Relax::from_source(Rc::new(engine), source, options.max_iterations)?;
    let (cap, report) = stepper.run(sys)?;
    Ok(WidestResult { capacities: cap.values, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::Semiring;
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

    fn lifted(g: &Graph) -> Coo<u32> {
        g.transposed().map(MaxMin::from_weight)
    }

    /// Reference widest-path via a Dijkstra-like max-heap relaxation.
    fn reference(g: &Graph, src: u32) -> Vec<u32> {
        let csr = g.to_csr();
        let mut cap = vec![0u32; g.nodes() as usize];
        cap[src as usize] = u32::MAX;
        let mut heap = std::collections::BinaryHeap::from([(u32::MAX, src)]);
        while let Some((c, u)) = heap.pop() {
            if c < cap[u as usize] {
                continue;
            }
            let (cols, weights) = csr.row(u);
            for (&v, &w) in cols.iter().zip(weights) {
                let nc = c.min(w);
                if nc > cap[v as usize] {
                    cap[v as usize] = nc;
                    heap.push((nc, v));
                }
            }
        }
        cap
    }

    #[test]
    fn widest_path_picks_the_fatter_route() {
        // 0→1→3 with min capacity 8, vs 0→2→3 with min capacity 5.
        let coo = Coo::from_entries(
            4,
            4,
            vec![(0, 1, 10u32), (1, 3, 8), (0, 2, 20), (2, 3, 5)],
        )
        .unwrap();
        let g = Graph::from_coo(coo);
        let sys = system();
        let r = run(&lifted(&g), 0, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.capacities[3], 8);
        assert_eq!(r.capacities[0], u32::MAX);
        assert!(r.report.converged);
    }

    #[test]
    fn widest_path_matches_reference_on_random_graph() {
        let g = Graph::from_coo(alpha_pim_sparse::gen::erdos_renyi(60, 400, 5).unwrap())
            .with_random_weights(20);
        let sys = system();
        let r = run(&lifted(&g), 3, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.capacities, reference(&g, 3));
    }

    #[test]
    fn unreachable_vertices_have_zero_capacity() {
        let coo = Coo::from_entries(3, 3, vec![(0, 1, 7u32)]).unwrap();
        let g = Graph::from_coo(coo);
        let sys = system();
        let r = run(&lifted(&g), 0, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.capacities, vec![u32::MAX, 7, 0]);
    }

    #[test]
    fn invalid_source_is_rejected() {
        let g = Graph::from_coo(Coo::from_entries(2, 2, vec![(0, 1, 1u32)]).unwrap());
        let sys = system();
        assert!(matches!(
            run(&lifted(&g), 9, &AppOptions::default(), 0.5, &sys),
            Err(AlphaPimError::InvalidSource { .. })
        ));
    }
}
