//! Breadth-first search as iterated Boolean matrix–vector products.
//!
//! `v = Aᵀ ⊗ v` under the (∨, ∧) semiring marks the next frontier (§2.1);
//! masking out already-visited vertices and recording the level at which
//! each vertex first appears yields BFS. The frontier starts as one
//! non-zero and its density trajectory drives the SpMSpV→SpMV switch of
//! §4.2 (Fig 4, left).

use std::rc::Rc;

use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::{Coo, SparseVector};

use crate::apps::stepper::{Rule, Stepper};
use crate::apps::{check_source, AppOptions, AppReport, MvEngine};
use crate::error::AlphaPimError;
use crate::recover::{self, Dec, RecoverError};
use crate::semiring::{BoolOrAnd, Semiring};

/// Level assigned to vertices the search never reaches.
pub const UNREACHED: u32 = u32::MAX;

/// The output of a BFS run.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// BFS level (hop distance) per vertex; [`UNREACHED`] if unreachable.
    pub levels: Vec<u32>,
    /// Per-iteration and aggregate performance record.
    pub report: AppReport,
}

/// Runs BFS from `source` over the lifted transposed adjacency matrix.
///
/// `matrix` must be `Aᵀ` lifted into the Boolean semiring (the framework
/// layer does this); `threshold` is the resolved SpMSpV→SpMV switch
/// density.
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
) -> Result<BfsResult, AlphaPimError> {
    let engine = Rc::new(MvEngine::new(matrix, options, threshold, sys)?);
    let (bfs, report) = Bfs::from_source(engine, source, options.max_iterations)?.run(sys)?;
    Ok(BfsResult { levels: bfs.levels, report })
}

/// BFS's host rule: mask the reached vertices with the visited set and
/// record the level at which each first appears.
pub(crate) struct Bfs {
    pub(crate) levels: Vec<u32>,
    visited: Vec<bool>,
}

impl Bfs {
    /// A BFS query from `source`, ready to step.
    pub(crate) fn from_source(
        engine: Rc<MvEngine<BoolOrAnd>>,
        source: u32,
        max_iterations: u32,
    ) -> Result<Stepper<Self>, AlphaPimError> {
        let n = engine.n();
        check_source(source, n)?;
        let mut levels = vec![UNREACHED; n as usize];
        levels[source as usize] = 0;
        let mut visited = vec![false; n as usize];
        visited[source as usize] = true;
        let frontier = SparseVector::one_hot(n as usize, source, BoolOrAnd::one());
        Ok(Stepper::new(engine, Bfs { levels, visited }, frontier, max_iterations))
    }
}

impl Rule for Bfs {
    type S = BoolOrAnd;

    fn update(&mut self, y: &[u32], iter: u32) -> Option<(Vec<u32>, Vec<u32>)> {
        let mut next = Vec::new();
        for (i, v) in y.iter().enumerate() {
            if !BoolOrAnd::is_zero(v) && !self.visited[i] {
                self.visited[i] = true;
                self.levels[i] = iter + 1;
                next.push(i as u32);
            }
        }
        if next.is_empty() {
            return None;
        }
        let vals = vec![BoolOrAnd::one(); next.len()];
        Some((next, vals))
    }

    fn put(&self, out: &mut Vec<u8>) {
        recover::put_slice(out, &self.levels);
        recover::put_slice(out, &self.visited);
    }

    fn read(d: &mut Dec, n: u32) -> Result<Self, RecoverError> {
        let levels = recover::read_vec(d)?;
        let visited = recover::read_vec(d)?;
        if levels.len() != n as usize || visited.len() != n as usize {
            return Err(RecoverError::Malformed("BFS state length != node count".into()));
        }
        Ok(Bfs { levels, visited })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::KernelPolicy;
    use crate::kernel::{SpmspvVariant, SpmvVariant};
    use alpha_pim_sim::{PimConfig, SimFidelity};
    use alpha_pim_sparse::Graph;

    fn system() -> PimSystem {
        PimSystem::new(PimConfig {
            num_dpus: 6,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    fn lifted_transpose(g: &Graph) -> Coo<u32> {
        g.transposed().map(BoolOrAnd::from_weight)
    }

    /// Reference BFS on the adjacency list.
    fn reference_bfs(g: &Graph, src: u32) -> Vec<u32> {
        let csr = g.to_csr();
        let mut levels = vec![UNREACHED; g.nodes() as usize];
        levels[src as usize] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let (neighbors, _) = csr.row(u);
            for &v in neighbors {
                if levels[v as usize] == UNREACHED {
                    levels[v as usize] = levels[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        levels
    }

    fn chain_graph() -> Graph {
        // 0 → 1 → 2 → 3, plus 0 → 2.
        let coo = Coo::from_entries(
            4,
            4,
            vec![(0, 1, 1u32), (1, 2, 1), (2, 3, 1), (0, 2, 1)],
        )
        .unwrap();
        Graph::from_coo(coo)
    }

    #[test]
    fn bfs_levels_match_reference_on_chain() {
        let g = chain_graph();
        let sys = system();
        let r = run(&lifted_transpose(&g), 0, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.levels, vec![0, 1, 1, 2]);
        assert!(r.report.converged);
    }

    #[test]
    fn bfs_matches_reference_on_random_graph_under_all_policies() {
        let g = Graph::from_coo(alpha_pim_sparse::gen::erdos_renyi(60, 300, 5).unwrap());
        let sys = system();
        let expect = reference_bfs(&g, 3);
        let m = lifted_transpose(&g);
        let policies = [
            KernelPolicy::SpmvOnly(SpmvVariant::Coo1d),
            KernelPolicy::SpmvOnly(SpmvVariant::Dcoo2d),
            KernelPolicy::SpmspvOnly(SpmspvVariant::Csc2d),
            KernelPolicy::SpmspvOnly(SpmspvVariant::CscC),
            KernelPolicy::FixedThreshold(0.3),
        ];
        for policy in policies {
            let options = AppOptions { policy, ..Default::default() };
            let r = run(&m, 3, &options, 0.5, &sys).unwrap();
            assert_eq!(r.levels, expect, "policy {policy:?}");
        }
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        // Two disconnected edges.
        let coo = Coo::from_entries(4, 4, vec![(0, 1, 1u32), (2, 3, 1)]).unwrap();
        let g = Graph::from_coo(coo);
        let sys = system();
        let r = run(&lifted_transpose(&g), 0, &AppOptions::default(), 0.5, &sys).unwrap();
        assert_eq!(r.levels[0], 0);
        assert_eq!(r.levels[1], 1);
        assert_eq!(r.levels[2], UNREACHED);
        assert_eq!(r.levels[3], UNREACHED);
    }

    #[test]
    fn invalid_source_is_rejected() {
        let g = chain_graph();
        let sys = system();
        let e = run(&lifted_transpose(&g), 10, &AppOptions::default(), 0.5, &sys);
        assert!(matches!(e, Err(AlphaPimError::InvalidSource { .. })));
    }

    #[test]
    fn density_starts_tiny_and_iterations_record_kernels() {
        let g = Graph::from_coo(alpha_pim_sparse::gen::erdos_renyi(100, 800, 9).unwrap());
        let sys = system();
        let r = run(&lifted_transpose(&g), 0, &AppOptions::default(), 0.5, &sys).unwrap();
        assert!(r.report.num_iterations() >= 2);
        assert!(r.report.iterations[0].input_density <= 0.011);
        // Densities recorded are monotone-ish at the start of BFS.
        assert!(r.report.iterations[1].input_density >= r.report.iterations[0].input_density);
        assert!(r.report.total_seconds() > 0.0);
    }

    #[test]
    fn iteration_cap_prevents_runaway() {
        let g = Graph::from_coo(alpha_pim_sparse::gen::erdos_renyi(100, 400, 2).unwrap());
        let sys = system();
        let options = AppOptions { max_iterations: 1, ..Default::default() };
        let r = run(&lifted_transpose(&g), 0, &options, 0.5, &sys).unwrap();
        assert_eq!(r.report.num_iterations(), 1);
        assert!(!r.report.converged);
    }
}
