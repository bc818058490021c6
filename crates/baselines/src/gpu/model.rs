//! Analytical model of the paper's GPU baseline (cuGraph on an RTX 3050).
//!
//! The paper's GPU observations are coarse: the GPU wins on latency and
//! energy, SSSP times are nearly flat across datasets (launch-overhead
//! bound), and utilization is far below peak. A roofline-style model
//! reproduces all three: per-iteration kernel-launch cost plus a
//! memory-bandwidth term, with constants fitted to the paper's Table 4 GPU
//! rows.


use crate::Algorithm;

/// Per-algorithm GPU timing constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Fixed seconds per iteration (kernel launches + sync).
    pub per_iteration_s: f64,
    /// Seconds per edge per iteration (bandwidth term).
    pub per_edge_s: f64,
    /// Seconds per vertex per iteration (frontier/vector traffic).
    pub per_node_s: f64,
}

impl GpuModel {
    /// The fitted model for `algo`.
    pub fn for_algorithm(algo: Algorithm) -> Self {
        match algo {
            Algorithm::Bfs => GpuModel {
                per_iteration_s: 150.0e-6,
                per_edge_s: 0.05e-9,
                per_node_s: 0.05e-9,
            },
            // cuGraph's delta-stepping issues many small launches: the
            // per-iteration term dominates, making SSSP flat across
            // datasets (Table 4: 12.5–13.1 ms everywhere).
            Algorithm::Sssp => GpuModel {
                per_iteration_s: 160.0e-6,
                per_edge_s: 0.03e-9,
                per_node_s: 0.03e-9,
            },
            Algorithm::Ppr => GpuModel {
                per_iteration_s: 420.0e-6,
                per_edge_s: 0.30e-9,
                per_node_s: 0.20e-9,
            },
        }
    }

    /// Predicted kernel seconds (host↔device transfers excluded, as in the
    /// paper).
    pub fn predict_seconds(&self, edges: u64, nodes: u64, iterations: u32) -> f64 {
        iterations as f64
            * (self.per_iteration_s
                + edges as f64 * self.per_edge_s
                + nodes as f64 * self.per_node_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_paper_anchors() {
        let anchors = [
            (Algorithm::Bfs, 899_792u64, 262_111u64, 28, 7.08e-3),
            (Algorithm::Bfs, 12_572, 6_474, 8, 0.89e-3),
            (Algorithm::Sssp, 899_792, 262_111, 70, 12.7e-3),
            (Algorithm::Sssp, 12_572, 6_474, 75, 13.0e-3),
            (Algorithm::Ppr, 899_792, 262_111, 20, 18.2e-3),
            (Algorithm::Ppr, 4_039 * 21, 4_039, 20, 12.7e-3),
        ];
        for (algo, edges, nodes, iters, paper) in anchors {
            let t = GpuModel::for_algorithm(algo).predict_seconds(edges, nodes, iters);
            let ratio = t / paper;
            assert!(
                (0.3..=3.0).contains(&ratio),
                "{algo:?}: model {t:.5}s vs paper {paper:.5}s (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn sssp_is_flat_across_graph_sizes() {
        // The paper's defining GPU observation: SSSP time is launch-bound.
        let m = GpuModel::for_algorithm(Algorithm::Sssp);
        let small = m.predict_seconds(12_572, 6_474, 75);
        let large = m.predict_seconds(899_792, 262_111, 75);
        assert!(large / small < 1.5, "SSSP should be flat: {small} vs {large}");
    }

    #[test]
    fn gpu_is_faster_than_cpu_model() {
        let g = GpuModel::for_algorithm(Algorithm::Bfs).predict_seconds(899_792, 262_111, 28);
        let c = crate::cpu::CpuModel::for_algorithm(Algorithm::Bfs)
            .predict_seconds(899_792, 262_111, 28);
        assert!(c > 10.0 * g, "CPU {c} should be ≫ GPU {g}");
    }
}
