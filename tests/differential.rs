//! Differential audit of the DPU path against the CPU grid baseline: for
//! every Table 2 catalog graph, BFS levels, SSSP distances, and PPR scores
//! computed through the simulated-PIM kernel pipeline must match the
//! `GridEngine` reference element for element. The two implementations
//! share no kernel code — the PIM path goes through partitioning, trace
//! replay, and host merges; the grid engine is a direct edge-streaming
//! CPU engine — so agreement here certifies the whole algebraic stack.

use alpha_pim::apps::{AppOptions, PprOptions};
use alpha_pim::serve::{Query, QueryResult, ServeConfig, ServeEngine};
use alpha_pim::AlphaPim;
use alpha_pim_baselines::cpu::GridEngine;
use alpha_pim_bench::harness;
use alpha_pim_sim::{ObservabilityLevel, PimConfig, SimFidelity};
use alpha_pim_sparse::Graph;

const SCALE: f64 = 0.02;
const SEED: u64 = 0xD1FF;

fn engine() -> AlphaPim {
    AlphaPim::new(PimConfig {
        num_dpus: 64,
        fidelity: SimFidelity::Sampled(8),
        observability: ObservabilityLevel::PerDpu,
        ..Default::default()
    })
    .expect("valid config")
}

#[test]
fn bfs_matches_cpu_grid_on_every_catalog_graph() {
    let eng = engine();
    for (abbrev, graph) in harness::catalog(SCALE, SEED) {
        let pim = eng.bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
        let (cpu, _) = GridEngine::new(&graph, 8, 2).bfs(0);
        assert_eq!(pim.levels, cpu, "BFS levels diverged on {abbrev}");
    }
}

#[test]
fn sssp_matches_cpu_grid_on_every_catalog_graph() {
    let eng = engine();
    for (abbrev, graph) in harness::catalog(SCALE, SEED) {
        let weighted = graph.with_random_weights(9);
        let pim = eng.sssp(&weighted, 0, &AppOptions::default()).expect("sssp runs");
        let (cpu, _) = GridEngine::new(&weighted, 8, 2).sssp(0);
        assert_eq!(pim.distances, cpu, "SSSP distances diverged on {abbrev}");
    }
}

#[test]
fn ppr_matches_cpu_grid_on_every_catalog_graph() {
    let eng = engine();
    for (abbrev, graph) in harness::catalog(SCALE, SEED) {
        let pim = eng.ppr(&graph, 0, &PprOptions::default()).expect("ppr runs");
        let (cpu, _) = GridEngine::new(&graph, 8, 2).ppr(0, 0.85, 1e-4, 50);
        assert_eq!(pim.scores.len(), cpu.len(), "PPR length diverged on {abbrev}");
        for (v, (a, b)) in pim.scores.iter().zip(&cpu).enumerate() {
            assert!(
                (a - b).abs() < 1e-3,
                "PPR scores diverged on {abbrev} at vertex {v}: pim {a} vs cpu {b}",
            );
        }
    }
}

/// Empty-frontier edge cases: a source with no out-edges drains the
/// frontier after the first multiply, and an entirely edgeless graph never
/// produces one at all. Both must terminate promptly and agree with the
/// CPU grid on every app.
#[test]
fn isolated_source_and_edgeless_graph_match_cpu_grid() {
    use alpha_pim_sparse::Coo;
    let eng = engine();
    // Vertex 0 is isolated; vertices 1..100 form a directed ring.
    let mut ring = Coo::new(100, 100);
    for v in 1u32..100 {
        let w = if v + 1 < 100 { v + 1 } else { 1 };
        ring.push(v, w, 1u32).expect("in bounds");
    }
    let edgeless: Coo<u32> = Coo::new(64, 64);
    for (name, graph) in
        [("isolated-source", Graph::from_coo(ring)), ("edgeless", Graph::from_coo(edgeless))]
    {
        let pim = eng.bfs(&graph, 0, &AppOptions::default()).expect("bfs terminates");
        let (cpu, _) = GridEngine::new(&graph, 8, 2).bfs(0);
        assert_eq!(pim.levels, cpu, "BFS levels diverged on {name}");
        assert!(pim.report.converged, "BFS must converge on {name}, not hit the cap");
        let weighted = graph.with_random_weights(9);
        let pim = eng.sssp(&weighted, 0, &AppOptions::default()).expect("sssp terminates");
        let (cpu, _) = GridEngine::new(&weighted, 8, 2).sssp(0);
        assert_eq!(pim.distances, cpu, "SSSP distances diverged on {name}");
        let pim = eng.ppr(&graph, 0, &PprOptions::default()).expect("ppr terminates");
        let (cpu, _) = GridEngine::new(&graph, 8, 2).ppr(0, 0.85, 1e-4, 50);
        for (v, (a, b)) in pim.scores.iter().zip(&cpu).enumerate() {
            assert!((a - b).abs() < 1e-3, "PPR diverged on {name} at vertex {v}: {a} vs {b}");
        }
    }
}

/// The degenerate single-DPU configuration: no cross-rank partitioning at
/// all, every kernel runs on one partition at full fidelity, and results
/// still match the CPU grid.
#[test]
fn single_dpu_engine_matches_cpu_grid() {
    let eng = AlphaPim::new(PimConfig {
        num_dpus: 1,
        fidelity: SimFidelity::Full,
        observability: ObservabilityLevel::PerDpu,
        ..Default::default()
    })
    .expect("one DPU is a valid system");
    let (abbrev, graph) = harness::catalog(SCALE, SEED).swap_remove(1);
    let pim = eng.bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
    let (cpu, _) = GridEngine::new(&graph, 8, 2).bfs(0);
    assert_eq!(pim.levels, cpu, "single-DPU BFS diverged on {abbrev}");
    let weighted = graph.with_random_weights(9);
    let pim = eng.sssp(&weighted, 0, &AppOptions::default()).expect("sssp runs");
    let (cpu, _) = GridEngine::new(&weighted, 8, 2).sssp(0);
    assert_eq!(pim.distances, cpu, "single-DPU SSSP diverged on {abbrev}");
    let pim = eng.ppr(&graph, 0, &PprOptions::default()).expect("ppr runs");
    let (cpu, _) = GridEngine::new(&graph, 8, 2).ppr(0, 0.85, 1e-4, 50);
    for (v, (a, b)) in pim.scores.iter().zip(&cpu).enumerate() {
        assert!((a - b).abs() < 1e-3, "single-DPU PPR diverged on {abbrev} at vertex {v}");
    }
}

/// Partition-cache differential: on every catalog graph, a cold serving
/// run (cache miss → fresh partitioning) and a warm rerun (cache hit →
/// reused MRAM-resident partitions) must produce bit-identical answers,
/// which must in turn match the standalone engine that re-partitions per
/// call. One small shared cache across all 13 graphs also forces steady
/// evictions, so hit/miss accounting is checked under realistic churn.
#[test]
fn partition_cache_reuse_is_bit_identical_on_every_catalog_graph() {
    let eng = engine();
    let mut serve = ServeEngine::new(
        &eng,
        ServeConfig { batch_size: 2, cache_capacity: 2, ..Default::default() },
    );
    for (abbrev, graph) in harness::catalog(SCALE, SEED) {
        let weighted = graph.with_random_weights(9);
        let queries = [Query::Bfs { source: 0 }, Query::Sssp { source: 0 }];
        let (cold, cold_batch) = serve.run_batch(&weighted, &queries).expect("cold batch");
        let (warm, warm_batch) = serve.run_batch(&weighted, &queries).expect("warm batch");
        // Earlier graphs' entries were evicted (capacity 2, 2 apps per
        // graph), so the cold run misses twice; the warm rerun never does.
        assert_eq!(cold_batch.cache_misses, 2, "{abbrev}: cold run must prepare both apps");
        assert_eq!(warm_batch.cache_misses, 0, "{abbrev}: warm run must not re-partition");
        assert_eq!(warm_batch.cache_hits, 2, "{abbrev}: warm run must hit both entries");
        let fresh_bfs = eng.bfs(&weighted, 0, &AppOptions::default()).expect("bfs runs");
        let fresh_sssp = eng.sssp(&weighted, 0, &AppOptions::default()).expect("sssp runs");
        for (label, results) in [("cold", &cold), ("warm", &warm)] {
            match (&results[0], &results[1]) {
                (QueryResult::Bfs(b), QueryResult::Sssp(s)) => {
                    assert_eq!(b.levels, fresh_bfs.levels, "{abbrev}: {label} BFS diverged");
                    assert_eq!(
                        s.distances, fresh_sssp.distances,
                        "{abbrev}: {label} SSSP diverged"
                    );
                    assert_eq!(
                        b.report.total_seconds().to_bits(),
                        fresh_bfs.report.total_seconds().to_bits(),
                        "{abbrev}: {label} BFS simulated time diverged"
                    );
                }
                other => panic!("{abbrev}: wrong result kinds: {other:?}"),
            }
        }
    }
}

/// The observability layer rides along on real app runs: every iteration's
/// kernel report carries a counter rollup that satisfies the partition
/// invariants, and per-DPU details are retained at `PerDpu`.
#[test]
fn app_runs_carry_consistent_counter_rollups() {
    let eng = engine();
    let (abbrev, graph) = harness::catalog(SCALE, SEED).swap_remove(2);
    let pim = eng.bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
    for s in &pim.report.iterations {
        assert_eq!(
            s.kernel_report.breakdown.counters.check_ledgers(),
            Ok(()),
            "{abbrev} iter {}",
            s.index,
        );
        assert!(!s.kernel_report.dpu_details.is_empty(), "PerDpu retains details");
    }
}
