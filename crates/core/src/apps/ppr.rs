//! Personalized PageRank as iterated real matrix–vector products
//! (power iteration under the (+, ×) semiring, Table 1).
//!
//! `x ← α·Pᵀ·x + (1−α)·e_s`, where `P` is the row-stochastic transition
//! matrix and `e_s` the personalization vector concentrated on the source
//! (§5.1). The heavy use of software-emulated floating-point makes PPR
//! kernel-dominated on UPMEM (Fig 8, observation 2).

use std::rc::Rc;

use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::{Coo, SparseVector};

use crate::apps::stepper::{Rule, Stepper};
use crate::apps::{check_source, AppOptions, AppReport, MvEngine};
use crate::error::AlphaPimError;
use crate::recover::{self, Dec, RecoverError};
use crate::semiring::PlusTimes;

/// PPR-specific parameters on top of [`AppOptions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PprOptions {
    /// Damping factor α (standard: 0.85).
    pub alpha: f32,
    /// L1-convergence tolerance on the score change per iteration.
    pub tolerance: f32,
    /// Values with magnitude at or below this count as zero for density
    /// tracking and kernel selection.
    pub epsilon: f32,
    /// Shared application options.
    pub app: AppOptions,
}

impl Default for PprOptions {
    fn default() -> Self {
        PprOptions {
            alpha: 0.85,
            tolerance: 1e-4,
            epsilon: 1e-9,
            app: AppOptions { max_iterations: 50, ..Default::default() },
        }
    }
}

/// The output of a PPR run.
#[derive(Debug, Clone)]
pub struct PprResult {
    /// Personalized PageRank score per vertex.
    pub scores: Vec<f32>,
    /// Per-iteration and aggregate performance record.
    pub report: AppReport,
}

/// Builds the lifted `Pᵀ` from a graph: `Pᵀ[i, j] = 1 / outdeg(j)` for
/// every edge `j → i`. Dangling vertices contribute no mass (their rank
/// leaks, as in many practical implementations).
pub fn transition_transpose(g: &alpha_pim_sparse::Graph) -> Coo<f32> {
    let degrees = g.out_degrees();
    let t = g.transposed();
    let mut out = Coo::new(t.n_rows(), t.n_cols());
    for (i, j, _) in t.iter() {
        let d = degrees[j as usize];
        debug_assert!(d > 0, "edge from {j} implies positive out-degree");
        out.push(i, j, 1.0 / d as f32).expect("same coordinates as source");
    }
    out
}

/// Runs personalized PageRank from `source` over the lifted `Pᵀ`.
///
/// # Errors
///
/// Returns [`AlphaPimError::InvalidSource`] for an out-of-range source and
/// propagates kernel errors.
pub fn run(
    matrix: &Coo<f32>,
    source: u32,
    options: &PprOptions,
    threshold: f64,
    sys: &PimSystem,
) -> Result<PprResult, AlphaPimError> {
    let engine = Rc::new(MvEngine::new(matrix, &options.app, threshold, sys)?);
    let (ppr, report) = Ppr::from_source(engine, source, options)?.run(sys)?;
    Ok(PprResult { scores: ppr.scores, report })
}

/// PPR's host rule: the α-blend with the teleport vector, an L1
/// convergence test, and the next input vector thresholded at ε.
pub(crate) struct Ppr {
    source: u32,
    alpha: f32,
    tolerance: f32,
    epsilon: f32,
    pub(crate) scores: Vec<f32>,
}

impl Ppr {
    /// A PPR query concentrated on `source`, ready to step: one power
    /// iteration per superstep.
    pub(crate) fn from_source(
        engine: Rc<MvEngine<PlusTimes>>,
        source: u32,
        options: &PprOptions,
    ) -> Result<Stepper<Self>, AlphaPimError> {
        let n = engine.n();
        check_source(source, n)?;
        let mut scores = vec![0.0f32; n as usize];
        scores[source as usize] = 1.0;
        let ppr = Ppr {
            source,
            alpha: options.alpha,
            tolerance: options.tolerance,
            epsilon: options.epsilon,
            scores,
        };
        let x = SparseVector::one_hot(n as usize, source, 1.0f32);
        Ok(Stepper::new(engine, ppr, x, options.app.max_iterations))
    }
}

impl Rule for Ppr {
    type S = PlusTimes;
    /// The blend and the convergence check are two streaming passes.
    const SCANS: f64 = 2.0;

    fn update(&mut self, y: &[f32], _iter: u32) -> Option<(Vec<u32>, Vec<f32>)> {
        let mut delta = 0.0f32;
        let mut next = vec![0.0f32; self.scores.len()];
        for (i, &yi) in y.iter().enumerate() {
            let teleport = if i as u32 == self.source { 1.0 - self.alpha } else { 0.0 };
            let v = self.alpha * yi + teleport;
            delta += (v - self.scores[i]).abs();
            next[i] = v;
        }
        self.scores = next;
        if delta <= self.tolerance {
            return None;
        }
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (i, &v) in self.scores.iter().enumerate() {
            if v.abs() > self.epsilon {
                idx.push(i as u32);
                vals.push(v);
            }
        }
        Some((idx, vals))
    }

    fn put(&self, out: &mut Vec<u8>) {
        recover::put_u32(out, self.source);
        recover::put_f32(out, self.alpha);
        recover::put_f32(out, self.tolerance);
        recover::put_f32(out, self.epsilon);
        recover::put_slice(out, &self.scores);
    }

    fn read(d: &mut Dec, n: u32) -> Result<Self, RecoverError> {
        let source = d.u32()?;
        if source >= n {
            return Err(RecoverError::Malformed("PPR source out of range".into()));
        }
        let alpha = d.f32()?;
        let tolerance = d.f32()?;
        let epsilon = d.f32()?;
        let scores = recover::read_vec(d)?;
        if scores.len() != n as usize {
            return Err(RecoverError::Malformed("PPR score length != node count".into()));
        }
        Ok(Ppr { source, alpha, tolerance, epsilon, scores })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Reference dense PPR power iteration.
    fn reference_ppr(g: &Graph, src: u32, alpha: f32, iters: u32) -> Vec<f32> {
        let n = g.nodes() as usize;
        let pt = transition_transpose(g);
        let mut x = vec![0.0f32; n];
        x[src as usize] = 1.0;
        for _ in 0..iters {
            let mut y = vec![0.0f32; n];
            for (i, j, v) in pt.iter() {
                y[i as usize] += v * x[j as usize];
            }
            for (i, yi) in y.iter().enumerate() {
                x[i] = alpha * yi + if i as u32 == src { 1.0 - alpha } else { 0.0 };
            }
        }
        x
    }

    fn test_graph() -> Graph {
        Graph::from_coo(alpha_pim_sparse::gen::erdos_renyi(40, 240, 17).unwrap())
    }

    #[test]
    fn ppr_matches_reference_power_iteration() {
        let g = test_graph();
        let sys = system();
        let options = PprOptions {
            tolerance: 0.0, // run exactly max_iterations
            app: AppOptions { max_iterations: 8, ..Default::default() },
            ..Default::default()
        };
        let r = run(&transition_transpose(&g), 0, &options, 0.5, &sys).unwrap();
        let expect = reference_ppr(&g, 0, 0.85, 8);
        for (a, b) in r.scores.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn ppr_converges_and_concentrates_on_source_neighborhood() {
        let g = test_graph();
        let sys = system();
        let r = run(&transition_transpose(&g), 5, &PprOptions::default(), 0.5, &sys).unwrap();
        assert!(r.report.converged);
        // The source retains the teleport mass: it should hold a top score.
        let max = r.scores.iter().cloned().fold(0.0f32, f32::max);
        assert!(r.scores[5] > 0.5 * max);
    }

    #[test]
    fn transition_transpose_is_column_stochastic() {
        let g = test_graph();
        let pt = transition_transpose(&g);
        let mut col_sums = vec![0.0f32; g.nodes() as usize];
        for (_, j, v) in pt.iter() {
            col_sums[j as usize] += v;
        }
        for (j, &s) in col_sums.iter().enumerate() {
            let deg = g.out_degrees()[j];
            if deg > 0 {
                assert!((s - 1.0).abs() < 1e-4, "column {j} sums to {s}");
            }
        }
    }

    #[test]
    fn ppr_density_rises_toward_dense_iterations() {
        let g = test_graph();
        let sys = system();
        let r = run(&transition_transpose(&g), 0, &PprOptions::default(), 0.5, &sys).unwrap();
        let first = r.report.iterations.first().unwrap().input_density;
        let last = r.report.iterations.last().unwrap().input_density;
        assert!(last > first, "PPR input density should grow: {first} → {last}");
    }

    #[test]
    fn invalid_source_is_rejected() {
        let g = test_graph();
        let sys = system();
        let e = run(&transition_transpose(&g), 1000, &PprOptions::default(), 0.5, &sys);
        assert!(matches!(e, Err(AlphaPimError::InvalidSource { .. })));
    }
}
