//! Triangle counting — the GraphChallenge workload (the paper's dataset
//! suite, §5.3, comes from the GraphChallenge triangle/k-truss benchmarks).
//!
//! Linear-algebraically this is a *masked SpGEMM*: `C = (A·A) ⊙ A`, whose
//! entry sum counts each triangle six times on a symmetrized simple graph.
//! On UPMEM the masked dot-product formulation is edge-centric adjacency
//! intersection — for every directed edge `(u, v)`, the size of
//! `N(u) ∩ N(v)` — which maps naturally onto nnz-balanced 1D edge bands:
//! every DPU holds the full CSR (read-only) plus its edge slice, streams
//! both adjacency lists per edge, and two-pointer merges them. There is no
//! per-iteration vector exchange, so unlike BFS/SSSP the workload is
//! almost entirely Kernel time: the PIM-friendliest pattern in the suite.

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::par::par_map_indexed;
use alpha_pim_sim::report::{KernelReport, PhaseBreakdown};
use alpha_pim_sim::trace::TaskletTrace;
use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::partition::equal_ranges;
use alpha_pim_sparse::{Csr, Graph};

use crate::error::AlphaPimError;
use crate::kernel::exec::{launch, Landed, LoadModel, MergeModel};
use crate::kernel::layout::{
    edge_base_cost, tasklet_prologue, tasklet_ranges, vec_entry_bytes, CHUNK_BYTES,
    CHUNK_OVERHEAD,
};

/// The output of a triangle-counting run.
#[derive(Debug, Clone)]
pub struct TriangleResult {
    /// Number of triangles in the (symmetrized) graph.
    pub triangles: u64,
    /// Wall-clock phase breakdown of the single kernel launch.
    pub phases: PhaseBreakdown,
    /// Cycle-level kernel report.
    pub kernel: KernelReport,
    /// Intersection operations performed (comparisons).
    pub useful_ops: u64,
}

/// Counts triangles via masked SpGEMM / adjacency intersection.
///
/// The graph is treated as undirected: its adjacency is symmetrized
/// internally, and each triangle is counted once.
///
/// Triangle counting is a one-shot analytics kernel, not part of the
/// query-serving path, so it always records full [`TaskletTrace`]s and
/// replays them — even under `SimFidelity::Analytic`.
///
/// # Errors
///
/// Returns [`AlphaPimError::Capacity`] if the CSR does not fit a DPU's
/// MRAM, and propagates kernel errors.
pub fn run(graph: &Graph, sys: &PimSystem) -> Result<TriangleResult, AlphaPimError> {
    // Symmetrize and drop duplicates so each undirected edge appears in
    // both directions exactly once.
    let mut sym = graph.adjacency().clone();
    for (r, c, v) in graph.adjacency().transpose().iter() {
        sym.push(r, c, v).expect("same dimensions");
    }
    let sym = sym.coalesce(|a, _| a);
    let csr: Csr<u32> = sym.to_csr();
    let n = csr.n_rows();
    let nnz = csr.nnz();

    // Every DPU holds the whole CSR (read-only) plus its edge slice.
    let csr_bytes = (n as u64 + 1) * 4 + nnz as u64 * 8;
    sys.check_mram(csr_bytes + (nnz as u64 * 8) / sys.num_dpus().max(1) as u64)
        .map_err(AlphaPimError::Capacity)?;

    // nnz-balanced edge bands: band d gets edges [bounds[d], bounds[d+1]).
    let edge_ranges = equal_ranges(nnz as u32, sys.num_dpus());
    // Flatten the CSR into an ordered edge list (u, v).
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(nnz);
    for u in 0..n {
        let (cols, _) = csr.row(u);
        for &v in cols {
            edges.push((u, v));
        }
    }

    let tasklets = sys.config().tasklets_per_dpu;
    let acc = sys.accumulator();
    let evals = par_map_indexed(&edge_ranges, |dpu, range| {
        let slice = &edges[range.start as usize..range.end as usize];
        let (traces, pairs, ops) = intersect_traces(&csr, slice, tasklets);
        (acc.evaluate(dpu as u32, &traces), (pairs, ops))
    });
    // The host sums one 8-byte running count per DPU.
    let merge = MergeModel::Scan { elements: u64::from(sys.num_dpus()), bytes: 8 };
    let mut total_pairs = 0u64;
    let (kernel, phases, useful_ops) =
        launch(sys, acc, evals, LoadModel::Scatter, merge, |_, (pairs, ops), _| {
            total_pairs += pairs;
            // Edge slices were resident with the matrix: the per-launch
            // load is just the band descriptors, and one running count
            // per DPU comes back.
            Landed { ops, load: 64, retrieve: 8, merged: 0 }
        });
    Ok(TriangleResult {
        // Each triangle {a,b,c} is seen once per ordered edge and shared
        // neighbour: 6 times total on a symmetrized graph.
        triangles: total_pairs / 6,
        phases,
        kernel,
        useful_ops,
    })
}

/// Functional + trace execution of one DPU's edge band: for each edge
/// `(u, v)`, stream both adjacency lists and two-pointer intersect them.
fn intersect_traces(
    csr: &Csr<u32>,
    edges: &[(u32, u32)],
    tasklets: u32,
) -> (Vec<TaskletTrace>, u64, u64) {
    let ventry = vec_entry_bytes(4) as u64;
    let ranges = tasklet_ranges(edges.len(), tasklets);
    let mut traces = Vec::with_capacity(tasklets as usize);
    let mut pairs: u64 = 0;
    let mut ops: u64 = 0;
    for range in ranges {
        let mut t = TaskletTrace::new();
        tasklet_prologue(&mut t);
        for &(u, v) in &edges[range] {
            edge_base_cost(&mut t);
            let (nu, _) = csr.row(u);
            let (nv, _) = csr.row(v);
            // Stream both adjacency lists into WRAM.
            t.dma_stream(nu.len() as u64 * ventry, CHUNK_BYTES, CHUNK_OVERHEAD);
            t.dma_stream(nv.len() as u64 * ventry, CHUNK_BYTES, CHUNK_OVERHEAD);
            // Two-pointer merge: one compare + advance per step.
            let steps = (nu.len() + nv.len()) as u32;
            t.compute(InstrClass::LoadStore, steps);
            t.compute(InstrClass::Arith, 2 * steps);
            t.compute(InstrClass::Control, steps);
            ops += steps as u64;
            // Functional intersection.
            let (mut i, mut j) = (0usize, 0usize);
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        pairs += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        t.barrier();
        traces.push(t);
    }
    (traces, pairs, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_pim_sim::par::{set_sim_threads, sim_threads};
    use alpha_pim_sim::{CounterId, FaultPlan, PimConfig, ResiliencePolicy, SimFidelity};
    use alpha_pim_sparse::{gen, Coo};

    fn system(dpus: u32) -> PimSystem {
        PimSystem::new(PimConfig {
            num_dpus: dpus,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    /// Reference node-iterator triangle counting on the symmetrized graph.
    fn reference(graph: &Graph) -> u64 {
        let mut sym = graph.adjacency().clone();
        for (r, c, v) in graph.adjacency().transpose().iter() {
            sym.push(r, c, v).unwrap();
        }
        let csr = sym.coalesce(|a, _| a).to_csr();
        let mut count = 0u64;
        for u in 0..csr.n_rows() {
            let (nu, _) = csr.row(u);
            for &v in nu {
                if v <= u {
                    continue;
                }
                let (nv, _) = csr.row(v);
                // Count common neighbours w > v to count each triangle once.
                let (mut i, mut j) = (0usize, 0usize);
                while i < nu.len() && j < nv.len() {
                    match nu[i].cmp(&nv[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            if nu[i] > v {
                                count += 1;
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        count
    }

    #[test]
    fn counts_the_four_triangles_of_k4() {
        // Complete graph on 4 vertices: C(4,3) = 4 triangles.
        let mut coo = Coo::new(4, 4);
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    coo.push(u, v, 1).unwrap();
                }
            }
        }
        let g = Graph::from_coo(coo);
        let sys = system(3);
        let r = run(&g, &sys).unwrap();
        assert_eq!(r.triangles, 4);
    }

    #[test]
    fn a_cycle_has_no_triangles() {
        let coo = Coo::from_entries(
            5,
            5,
            (0..5u32).map(|i| (i, (i + 1) % 5, 1u32)).collect::<Vec<_>>(),
        )
        .unwrap();
        let g = Graph::from_coo(coo);
        let sys = system(2);
        assert_eq!(run(&g, &sys).unwrap().triangles, 0);
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in [3u64, 7, 11] {
            let g = Graph::from_coo(gen::erdos_renyi(80, 600, seed).unwrap());
            let sys = system(6);
            let r = run(&g, &sys).unwrap();
            assert_eq!(r.triangles, reference(&g), "seed {seed}");
            assert!(r.phases.kernel > 0.0);
        }
    }

    #[test]
    fn losing_every_dpu_counts_no_triangles() {
        let plan = FaultPlan {
            dpu_loss_rate: 1.0,
            policy: ResiliencePolicy { redistribute: false, ..ResiliencePolicy::default() },
            ..FaultPlan::default()
        };
        let sys = PimSystem::new(PimConfig {
            num_dpus: 6,
            fidelity: SimFidelity::Full,
            faults: Some(plan),
            ..Default::default()
        })
        .unwrap();
        let g = Graph::from_coo(gen::erdos_renyi(80, 600, 3).unwrap());
        let r = run(&g, &sys).unwrap();
        assert_eq!(r.triangles, 0, "a dropped partition's count never lands");
        assert!(r.kernel.degraded);
    }

    #[test]
    fn transfers_are_counted_and_thread_count_invariant() {
        let g = Graph::from_coo(gen::erdos_renyi(80, 600, 3).unwrap());
        let sys = system(6);
        let threads = sim_threads();
        set_sim_threads(1);
        let one = run(&g, &sys).unwrap();
        set_sim_threads(4);
        let four = run(&g, &sys).unwrap();
        set_sim_threads(threads);
        let c = &one.kernel.breakdown.counters;
        assert_eq!(c.get(CounterId::XferScatterBytes), 64 * 6);
        assert_eq!(c.get(CounterId::XferGatherBytes), 8 * 6);
        assert_eq!(c.get(CounterId::HostScanBytes), 8 * 6);
        assert_eq!(one.kernel, four.kernel);
        assert_eq!(one.phases, four.phases);
        assert_eq!((one.triangles, one.useful_ops), (four.triangles, four.useful_ops));
    }

    #[test]
    fn triangle_counting_is_kernel_dominated() {
        let g = Graph::from_coo(gen::erdos_renyi(400, 4000, 5).unwrap());
        let sys = PimSystem::new(PimConfig {
            num_dpus: 64,
            fidelity: SimFidelity::Sampled(16),
            ..Default::default()
        })
        .unwrap();
        let r = run(&g, &sys).unwrap();
        let kernel_share = r.phases.kernel / r.phases.total();
        assert!(
            kernel_share > 0.7,
            "no per-iteration vector exchange → kernel share {kernel_share:.2}"
        );
    }
}
