//! Standalone probes of the lower layers, run on a workload's own graphs
//! and `PimSystem` during the traced run: transposition, kernel
//! preparation, and single kernel launches at fixed frontier densities.

use alpha_pim::{BoolOrAnd, PreparedSpmspv, PreparedSpmv, Semiring, SpmspvVariant, SpmvVariant};
use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::{DenseVector, Graph, SparseVector};

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::{Layer, Tracer};

/// Frontier densities every launch probe runs at.
pub const DENSITIES: [f64; 3] = [0.01, 0.10, 0.50];

/// What the launch probes of one graph measured.
#[derive(Debug, Clone, Default)]
pub struct LaunchProbes {
    /// Host ms of each launch on the workload's system.
    pub launch_ms: Vec<f64>,
    /// Host ms of the same launches on the analytic twin.
    pub twin_ms: Vec<f64>,
    /// Instructions each launch issued (fidelity-independent).
    pub instructions: Vec<u64>,
}

impl LaunchProbes {
    /// Appends another graph's probes.
    pub fn extend(&mut self, other: LaunchProbes) {
        self.launch_ms.extend(other.launch_ms);
        self.twin_ms.extend(other.twin_ms);
        self.instructions.extend(other.instructions);
    }
}

/// Sets the kernel-launch metrics from `probes`: `kernel.replay_ms` is the
/// per-launch cost of trace recording plus replay over the analytic
/// twin's closed-form prediction.
pub fn set_launch_metrics(m: &mut Metrics, probes: &LaunchProbes) {
    let replay: Vec<f64> = probes
        .launch_ms
        .iter()
        .zip(&probes.twin_ms)
        .map(|(a, b)| a - b)
        .collect();
    m.set("kernel.replay_ms", median(&replay));
    let instructions: Vec<f64> = probes.instructions.iter().map(|&i| i as f64).collect();
    m.set("kernel.instructions", median(&instructions));
    let total: f64 = instructions.iter().sum();
    m.set(
        "kernel.host_ns_per_instr",
        probes.launch_ms.iter().sum::<f64>() * 1e6 / total.max(1.0),
    );
}

/// A seeded frontier of `density · n` distinct vertices (at least one),
/// sorted.
fn frontier(n: u32, density: f64, seed: u64) -> Vec<u32> {
    let want = ((f64::from(n) * density).round() as u32).clamp(1, n.max(1));
    let mut rng = SplitMix64::new(seed);
    let mut picked = vec![false; n as usize];
    let mut count = 0;
    while count < want {
        let v = rng.u32_below(n) as usize;
        if !picked[v] {
            picked[v] = true;
            count += 1;
        }
    }
    (0..n).filter(|&v| picked[v as usize]).collect()
}

/// Transposes and lifts `graph` for BFS (the per-call work of
/// `AlphaPim::bfs`), prepares Coo1d SpMV and Csc2d SpMSpV on `sys`, and
/// launches each at every [`DENSITIES`] frontier on `sys` and on its
/// analytic `twin`. Outputs of the two systems must agree bit for bit;
/// a mismatch is returned as an error message.
pub fn kernel_probes(
    graph: &Graph,
    sys: &PimSystem,
    twin: &PimSystem,
    seed: u64,
    tr: &mut Tracer,
) -> Result<LaunchProbes, String> {
    let matrix = tr.span(Layer::Sparse, "transpose", 0, |_| {
        graph.transposed().map(BoolOrAnd::from_weight)
    });
    let spmv = tr
        .span(Layer::Kernel, "prepare", 0, |_| {
            PreparedSpmv::<BoolOrAnd>::prepare(&matrix, SpmvVariant::Coo1d, sys)
        })
        .map_err(|e| format!("prepare spmv: {e}"))?;
    let spmspv = tr
        .span(Layer::Kernel, "prepare", 0, |_| {
            PreparedSpmspv::<BoolOrAnd>::prepare(&matrix, SpmspvVariant::Csc2d, sys)
        })
        .map_err(|e| format!("prepare spmspv: {e}"))?;
    let n = spmv.n();
    let mut out = LaunchProbes::default();
    for (i, &density) in DENSITIES.iter().enumerate() {
        let front = frontier(n, density, seed ^ i as u64);
        let mut dense = vec![BoolOrAnd::zero(); n as usize];
        for &v in &front {
            dense[v as usize] = BoolOrAnd::one();
        }
        let dense = DenseVector::from_values(dense);
        let sparse = SparseVector::from_pairs(
            n as usize,
            front.clone(),
            vec![BoolOrAnd::one(); front.len()],
        )
        .map_err(|e| format!("frontier: {e}"))?;
        let launch = |system: &PimSystem, name: &'static str, tr: &mut Tracer| {
            let t = std::time::Instant::now();
            let v = tr.span(Layer::Kernel, name, i as u64, |_| spmv.run(&dense, system));
            let ms_v = t.elapsed().as_secs_f64() * 1e3;
            let t = std::time::Instant::now();
            let s = tr.span(Layer::Kernel, name, i as u64, |_| {
                spmspv.run(&sparse, system)
            });
            let ms_s = t.elapsed().as_secs_f64() * 1e3;
            match (v, s) {
                (Ok(v), Ok(s)) => Ok(([ms_v, ms_s], [v, s])),
                (Err(e), _) | (_, Err(e)) => Err(format!("launch at density {density}: {e}")),
            }
        };
        let (ms, outs) = launch(sys, "launch", tr)?;
        let (twin_ms, twin_outs) = launch(twin, "launch_twin", tr)?;
        for (a, b) in outs.iter().zip(&twin_outs) {
            if a.y.values() != b.y.values() {
                return Err(format!(
                    "analytic twin changed a launch output at density {density}"
                ));
            }
            out.instructions.push(a.kernel.total_instructions);
        }
        out.launch_ms.extend(ms);
        out.twin_ms.extend(twin_ms);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::frontier;

    #[test]
    fn frontiers_are_seeded_sorted_and_sized() {
        let f = frontier(1000, 0.1, 3);
        assert_eq!(f.len(), 100);
        assert!(f.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(f, frontier(1000, 0.1, 3));
        assert_eq!(frontier(10, 0.001, 1).len(), 1);
    }
}
