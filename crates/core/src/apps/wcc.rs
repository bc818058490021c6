//! Connected components via label propagation — another member of the
//! semiring family (§5.1): every vertex starts labeled with its own id and
//! iteratively adopts the minimum label among its neighbours, expressed as
//! `y = Aᵀ ⊗ x` under (min, +) with all edge weights lifted to 0 (so ⊗
//! passes labels through unchanged and ⊕ takes the minimum).
//!
//! On symmetric (undirected) graphs this converges to the weakly-connected
//! components. Unlike BFS/SSSP, the input vector starts *fully dense* and
//! sparsifies as labels settle — the mirror image of the frontier
//! trajectories in Fig 4, and a natural SpMV→SpMSpV switching showcase.

use std::rc::Rc;

use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::{Coo, Graph, SparseVector};

use crate::apps::stepper::{Relax, Stepper};
use crate::apps::{AppOptions, AppReport, MvEngine};
use crate::error::AlphaPimError;
use crate::semiring::MinPlus;

/// The output of a connected-components run.
#[derive(Debug, Clone)]
pub struct WccResult {
    /// Component label per vertex (the minimum vertex id in its
    /// component, for symmetric graphs).
    pub labels: Vec<u32>,
    /// Number of distinct components found.
    pub components: usize,
    /// Per-iteration and aggregate performance record.
    pub report: AppReport,
}

/// Lifts a graph for label propagation: `Aᵀ` with all weights set to the
/// (min, +) multiplicative identity 0.
pub fn label_matrix(g: &Graph) -> Coo<u32> {
    g.transposed().map(|_| 0u32)
}

/// Runs label propagation to convergence.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn run(
    matrix: &Coo<u32>,
    options: &AppOptions,
    threshold: f64,
    sys: &PimSystem,
) -> Result<WccResult, AlphaPimError> {
    let engine: MvEngine<MinPlus> = MvEngine::new(matrix, options, threshold, sys)?;
    let n = engine.n();
    let values: Vec<u32> = (0..n).collect();
    // Every vertex is initially active, carrying its own label.
    let frontier = SparseVector::from_pairs(n as usize, values.clone(), values.clone())?;
    let stepper = Stepper::new(Rc::new(engine), Relax { values }, frontier, options.max_iterations);
    let (labels, report) = stepper.run(sys)?;
    let labels = labels.values;
    let mut distinct: Vec<u32> = labels.clone();
    distinct.sort_unstable();
    distinct.dedup();
    Ok(WccResult { labels, components: distinct.len(), report })
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

    /// An undirected graph from undirected edge pairs.
    fn undirected(n: u32, edges: &[(u32, u32)]) -> Graph {
        let mut coo = Coo::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1).unwrap();
            coo.push(v, u, 1).unwrap();
        }
        Graph::from_coo(coo)
    }

    #[test]
    fn finds_two_components_and_an_isolate() {
        let g = undirected(6, &[(0, 1), (1, 2), (3, 4)]);
        let sys = system();
        let r = run(&label_matrix(&g), &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.labels, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(r.components, 3);
        assert!(r.report.converged);
    }

    #[test]
    fn matches_union_find_on_random_graph() {
        let base = alpha_pim_sparse::gen::erdos_renyi(80, 120, 9).unwrap();
        let pairs: Vec<(u32, u32)> = base.iter().map(|(u, v, _)| (u, v)).collect();
        let g = undirected(80, &pairs);
        // Union-find reference.
        let mut parent: Vec<u32> = (0..80).collect();
        fn find(p: &mut Vec<u32>, x: u32) -> u32 {
            if p[x as usize] != x {
                let r = find(p, p[x as usize]);
                p[x as usize] = r;
            }
            p[x as usize]
        }
        for &(u, v) in &pairs {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru.max(rv) as usize] = ru.min(rv);
            }
        }
        let reference: Vec<u32> = (0..80).map(|v| find(&mut parent, v)).collect();
        let sys = system();
        let r = run(&label_matrix(&g), &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.labels, reference);
    }

    #[test]
    fn density_starts_at_one_and_falls() {
        let g = undirected(60, &[(0, 1), (1, 2), (2, 3), (10, 11), (11, 12)]);
        let sys = system();
        let r = run(&label_matrix(&g), &AppOptions::default(), 0.5, &sys).unwrap();
        let first = r.report.iterations.first().unwrap().input_density;
        let last = r.report.iterations.last().unwrap().input_density;
        assert!((first - 1.0).abs() < 1e-9, "label propagation starts dense");
        assert!(last < first, "active set sparsifies: {first} → {last}");
    }
}
