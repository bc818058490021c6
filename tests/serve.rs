//! End-to-end contract of the batched serving engine (`alpha_pim::serve`):
//! a mixed BFS/SSSP/PPR query batch on a Table 2 catalog graph must return
//! answers bit-identical to running each query alone — at any host thread
//! count, and under a survivable fault plan — while the accounted batch
//! makespan and host→DPU broadcast bytes come in strictly below the sum of
//! the standalone runs.

use alpha_pim::apps::{AppOptions, KernelPolicy, PprOptions};
use alpha_pim::serve::{
    fingerprint_results, seeded_trace, Query, QueryResult, ServeConfig, ServeEngine,
};
use alpha_pim::{AlphaPim, FastPath, SpmvVariant};
use alpha_pim_sim::par::SimThreads;
use alpha_pim_sim::{CounterId, FaultPlan, ObservabilityLevel, PimConfig, SimFidelity};
use alpha_pim_sparse::{datasets, gen, Graph};

const SEED: u64 = 0x5E4E;
const QUERIES: usize = 10;

fn engine(faults: Option<FaultPlan>) -> AlphaPim {
    AlphaPim::new(PimConfig {
        num_dpus: 64,
        fidelity: SimFidelity::Sampled(8),
        observability: ObservabilityLevel::PerDpu,
        faults,
        ..Default::default()
    })
    .expect("valid config")
}

/// A Table 2 graph scaled to test size (≥ 2,000 nodes), with weights so
/// SSSP queries are non-trivial.
fn table2_graph() -> Graph {
    let spec = &datasets::table2()[1];
    let scale = (2_000.0 / spec.nodes as f64).clamp(0.02, 1.0);
    spec.generate_scaled(scale, SEED).expect("catalog recipe is valid").with_random_weights(9)
}

/// Exact (bit-level) equality of two query answers, including the
/// simulated-time record — the serving engine promises identical execution,
/// not merely close results.
fn assert_bit_identical(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert!(a.same_values(b), "{ctx}: answers diverged");
    assert_eq!(
        a.report().total_seconds().to_bits(),
        b.report().total_seconds().to_bits(),
        "{ctx}: simulated time diverged",
    );
    assert_eq!(a.report().num_iterations(), b.report().num_iterations(), "{ctx}");
}

fn run_trace(
    engine: &AlphaPim,
    graph: &Graph,
    config: ServeConfig,
    trace: &[Query],
) -> (Vec<QueryResult>, Vec<alpha_pim_sim::BatchReport>) {
    ServeEngine::new(engine, config).serve(graph, trace).expect("trace serves")
}

#[test]
fn batched_equals_sequential_at_any_thread_count_and_beats_it() {
    let eng = engine(None);
    let graph = table2_graph();
    let trace = seeded_trace(graph.nodes(), QUERIES, SEED);
    assert!(trace.len() >= 8);
    // Force the full-broadcast 1D SpMV so byte packing has work to do.
    let options =
        AppOptions { policy: KernelPolicy::SpmvOnly(SpmvVariant::Coo1d), ..Default::default() };
    let batched_cfg = ServeConfig { batch_size: QUERIES as u32, options, ..Default::default() };
    let seq_cfg = ServeConfig { batch_size: 1, ..batched_cfg };

    SimThreads::set(1);
    let (batched_1, reports_1) = run_trace(&eng, &graph, batched_cfg, &trace);
    let (seq_1, seq_reports_1) = run_trace(&eng, &graph, seq_cfg, &trace);
    SimThreads::set(4);
    let (batched_n, reports_n) = run_trace(&eng, &graph, batched_cfg, &trace);
    let (seq_n, _) = run_trace(&eng, &graph, seq_cfg, &trace);

    for i in 0..trace.len() {
        assert_bit_identical(&batched_1[i], &seq_1[i], &format!("query {i}, 1 thread"));
        assert_bit_identical(&batched_1[i], &batched_n[i], &format!("query {i}, 1 vs 4 threads"));
        assert_bit_identical(&seq_1[i], &seq_n[i], &format!("query {i}, sequential 1 vs 4"));
    }
    assert_eq!(reports_1, reports_n, "batch accounting must not depend on threads");

    // One batch of B queries; sequential replay = B single-query batches.
    let batch = &reports_1[0];
    assert_eq!(batch.queries, QUERIES as u32);
    assert_eq!(seq_reports_1.len(), QUERIES);
    let single_query_cost: f64 = seq_reports_1.iter().map(|b| b.batched_seconds).sum();
    assert_eq!(
        batch.seq_seconds.to_bits(),
        single_query_cost.to_bits(),
        "the batch's sequential baseline is exactly B × the single-query cost",
    );
    assert!(
        batch.batched_seconds < batch.seq_seconds,
        "batched makespan {} must be strictly below sequential {}",
        batch.batched_seconds,
        batch.seq_seconds,
    );
    assert!(batch.broadcast_bytes_saved > 0, "1D broadcasts must ship packed");
    assert!(batch.transfer_batches_saved > 0, "shared supersteps must elide batch startups");
    assert!(batch.seconds_saved() > 0.0);
}

#[test]
fn batched_equals_sequential_under_a_survivable_fault_plan() {
    let plan = FaultPlan::uniform(0xFA17_5EED, 0.05);
    let eng = engine(Some(plan));
    let graph = table2_graph();
    let trace = seeded_trace(graph.nodes(), QUERIES, SEED ^ 1);
    let batched_cfg = ServeConfig { batch_size: QUERIES as u32, ..Default::default() };
    let seq_cfg = ServeConfig { batch_size: 1, ..batched_cfg };

    let (batched, reports) = run_trace(&eng, &graph, batched_cfg, &trace);
    let (seq, _) = run_trace(&eng, &graph, seq_cfg, &trace);
    for i in 0..trace.len() {
        assert_bit_identical(&batched[i], &seq[i], &format!("query {i} under faults"));
    }
    let batch = &reports[0];
    assert!(!batch.degraded, "a 5% fault rate with redistribution must stay survivable");
    assert!(batch.batched_seconds < batch.seq_seconds, "faults cost time, batching still wins");

    // Answers must also match a fault-free engine: faults never change results.
    let clean = engine(None);
    let (clean_results, _) = run_trace(&clean, &graph, batched_cfg, &trace);
    for (i, (a, b)) in batched.iter().zip(&clean_results).enumerate() {
        match (a, b) {
            (QueryResult::Bfs(x), QueryResult::Bfs(y)) => {
                assert_eq!(x.levels, y.levels, "faulty query {i} lost its answer")
            }
            (QueryResult::Sssp(x), QueryResult::Sssp(y)) => {
                assert_eq!(x.distances, y.distances, "faulty query {i} lost its answer")
            }
            (QueryResult::Ppr(x), QueryResult::Ppr(y)) => {
                for (u, v) in x.scores.iter().zip(&y.scores) {
                    assert_eq!(u.to_bits(), v.to_bits(), "faulty query {i} lost its answer");
                }
            }
            _ => panic!("result kinds diverged on query {i}"),
        }
    }
}

#[test]
fn mixed_trace_reports_carry_per_query_records() {
    let eng = engine(None);
    let graph = table2_graph();
    let trace = seeded_trace(graph.nodes(), QUERIES, SEED ^ 2);
    let (results, reports) = run_trace(
        &eng,
        &graph,
        ServeConfig { batch_size: 4, ..Default::default() },
        &trace,
    );
    assert_eq!(results.len(), QUERIES);
    assert_eq!(reports.len(), QUERIES.div_ceil(4));
    for (i, r) in results.iter().enumerate() {
        assert!(r.report().num_iterations() > 0, "query {i} recorded no iterations");
        assert!(r.report().total_seconds() > 0.0, "query {i} recorded no time");
    }
    // PprOptions defaults apply to PPR queries: they converge under the cap.
    for (q, r) in trace.iter().zip(&results) {
        if matches!(q, Query::Ppr { .. }) {
            assert!(
                r.report().num_iterations() <= PprOptions::default().app.max_iterations,
                "PPR overran its iteration cap",
            );
        }
    }
}

/// Three catalog graphs at regression-friendly scale for the fast-path
/// lock (distinct from the Table 2 scaling above, which is batching-sized).
fn fastpath_graphs() -> Vec<(&'static str, Graph)> {
    [("as00", 0.03), ("face", 0.05), ("p2p-24", 0.008)]
        .into_iter()
        .map(|(abbrev, scale)| {
            let g = datasets::by_abbrev(abbrev)
                .expect("catalog entry")
                .generate_scaled(scale, 0xFA57)
                .expect("catalog recipes are valid")
                .with_random_weights(9);
            (abbrev, g)
        })
        .collect()
}

/// Locks the analytic fast path's dispatch rule: `PerDpu` and `PerTasklet`
/// observability gate it back to cycle replay — and on every path and
/// observability level the result values fingerprint identically, on all
/// three catalog graphs.
#[test]
fn auto_fast_path_matches_analytic_at_aggregate_and_replay_when_observed() {
    let caps = AppOptions { max_iterations: 12, ..Default::default() };
    let config = |fast_path| ServeConfig {
        batch_size: 6,
        options: caps,
        ppr: PprOptions { app: AppOptions { max_iterations: 8, ..Default::default() }, ..Default::default() },
        fast_path,
        ..Default::default()
    };
    for (abbrev, graph) in fastpath_graphs() {
        let trace = seeded_trace(graph.nodes(), 6, 0xFA57_0001);
        let mut fingerprints: Vec<u64> = Vec::new();
        for observability in [
            ObservabilityLevel::Aggregate,
            ObservabilityLevel::PerDpu,
            ObservabilityLevel::PerTasklet,
        ] {
            let eng = AlphaPim::new(PimConfig {
                num_dpus: 16,
                fidelity: SimFidelity::Full,
                observability,
                ..Default::default()
            })
            .expect("valid config");
            let ctx = format!("{abbrev}/{observability:?}");
            let (ana_res, ana_rep) = run_trace(&eng, &graph, config(FastPath::Analytic), &trace);
            let (rep_res, rep_rep) = run_trace(&eng, &graph, config(FastPath::Replay), &trace);

            if observability != ObservabilityLevel::Aggregate {
                assert_eq!(
                    ana_rep, rep_rep,
                    "{ctx}: the analytic request must fall back to cycle replay when \
                     per-unit observability needs real traces"
                );
            }

            // Result values never depend on the timing path.
            let fp = fingerprint_results(&ana_res);
            assert_eq!(fp, fingerprint_results(&rep_res), "{ctx}: analytic changed result bits");
            fingerprints.push(fp);
        }
        // ...nor on the observability level.
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "{abbrev}: result fingerprints drifted across observability levels"
        );
    }
}

/// The partition cache is capped by bytes, not entries: with a budget that
/// holds one prepared graph, alternating graphs evict each other under
/// deterministic LRU, and the eviction accounting conserves bytes exactly
/// (`inserted == resident + evicted`). An undersized budget still serves —
/// the newest entry is never evicted out from under its own batch.
#[test]
fn cache_byte_budget_evicts_deterministically_with_balanced_accounting() {
    let eng = engine(None);
    let graph_a = Graph::from_coo(gen::erdos_renyi(300, 2_400, 31).expect("valid recipe"))
        .with_random_weights(9);
    let graph_b = Graph::from_coo(gen::erdos_renyi(200, 1_500, 32).expect("valid recipe"))
        .with_random_weights(9);
    let queries = vec![Query::Bfs { source: 0 }, Query::Bfs { source: 3 }];

    // Measure each graph's footprint with the default (unlimited) budget.
    let mut unlimited = ServeEngine::new(&eng, ServeConfig::default());
    unlimited.run_batch(&graph_a, &queries).expect("graph A serves");
    let bytes_a = unlimited.cache_resident_bytes();
    assert!(bytes_a > 0, "a prepared graph must account a footprint");
    unlimited.run_batch(&graph_b, &queries).expect("graph B serves");
    let bytes_b = unlimited.cache_resident_bytes() - bytes_a;
    assert!(bytes_b > 0 && bytes_b != bytes_a, "distinct graphs, distinct footprints");
    assert_eq!(unlimited.cache_evictions(), 0, "the default budget never evicts");

    // A budget that fits either graph alone but not both.
    let budget = bytes_a.max(bytes_b);
    assert!(budget < bytes_a + bytes_b);
    let run = || {
        let mut serve = ServeEngine::new(
            &eng,
            ServeConfig { cache_budget_bytes: budget, ..Default::default() },
        );
        let (res_a, _) = serve.run_batch(&graph_a, &queries).expect("A serves under budget");
        assert_eq!(serve.cache_evictions(), 0, "A fits alone");
        assert_eq!(serve.cache_resident_bytes(), bytes_a);

        let (_, report_b) = serve.run_batch(&graph_b, &queries).expect("B serves under budget");
        assert_eq!(serve.cache_evictions(), 1, "B must push A out");
        assert_eq!(serve.cache_evicted_bytes(), bytes_a);
        assert_eq!(serve.cache_resident_bytes(), bytes_b);
        assert_eq!(
            report_b.counters.get(CounterId::ServeCacheEvictions),
            1,
            "the evicting batch carries the eviction in its counters"
        );
        assert_eq!(report_b.counters.get(CounterId::ServeEvictedBytes), bytes_a);

        let (res_a2, _) = serve.run_batch(&graph_a, &queries).expect("A re-serves");
        assert_eq!(serve.cache_evictions(), 2, "A's return must push B out");
        assert_eq!(serve.cache_evicted_bytes(), bytes_a + bytes_b);
        assert_eq!(serve.cache_resident_bytes(), bytes_a);
        // Conservation: everything ever inserted is resident or evicted.
        assert_eq!(
            serve.cache_resident_bytes() + serve.cache_evicted_bytes(),
            2 * bytes_a + bytes_b,
        );
        (fingerprint_results(&res_a), fingerprint_results(&res_a2))
    };
    let (fp_first, fp_second) = run();
    assert_eq!(fp_first, fp_second, "eviction and re-preparation must not change results");
    let (fp_again, _) = run();
    assert_eq!(fp_first, fp_again, "the eviction sequence is deterministic");

    // An undersized budget degrades to a one-entry cache, never a failure.
    let mut tiny = ServeEngine::new(&eng, ServeConfig { cache_budget_bytes: 1, ..Default::default() });
    let (tiny_res, _) = tiny.run_batch(&graph_a, &queries).expect("oversized graph still serves");
    assert_eq!(fingerprint_results(&tiny_res), fp_first, "budget pressure never changes answers");
    assert_eq!(tiny.cache_resident_bytes(), bytes_a, "the newest entry stays resident");
    tiny.run_batch(&graph_b, &queries).expect("the second oversized graph serves too");
    assert_eq!(tiny.cache_evictions(), 1);
    assert_eq!(tiny.cache_evicted_bytes(), bytes_a);
}

/// Epoch invalidation accounting: across several mutation epochs, each
/// stale epoch's prepared kernels leave the cache exactly once (an
/// all-redundant epoch evicts nothing), `cache_resident_bytes` never
/// double-counts, and invalidating a fingerprint twice is a no-op — byte
/// conservation (`inserted == resident + evicted`) holds throughout.
#[test]
fn epoch_invalidation_evicts_stale_kernels_exactly_once() {
    use alpha_pim::DeltaEngine;
    use alpha_pim_sparse::delta::seeded_batch;
    use alpha_pim_sparse::partition::structural_fingerprint;
    use alpha_pim_sparse::MutationBatch;

    let eng = engine(None);
    let graph = table2_graph();
    let trace = vec![Query::Bfs { source: 3 }, Query::Sssp { source: 5 }];
    let mut delta =
        DeltaEngine::new(&eng, ServeConfig::default(), &graph, 16).expect("canonical graph");

    // Epoch 0: populate the cache and record its footprint.
    delta.serve(&trace).expect("initial serve");
    let entries0 = delta.serve_engine().cache_len() as u64;
    let resident0 = delta.serve_engine().cache_resident_bytes();
    assert!(entries0 > 0 && resident0 > 0, "the first serve must cache kernels");
    let mut inserted_total = resident0;

    // Three structural epochs: each must evict the previous epoch's
    // kernels exactly once and leave the cache empty until the next serve.
    let mut evictions = 0u64;
    let mut evicted_bytes = 0u64;
    for epoch in 1..=3u64 {
        let before_entries = delta.serve_engine().cache_len() as u64;
        let before_bytes = delta.serve_engine().cache_resident_bytes();
        let batch = seeded_batch(delta.graph().adjacency(), 0xE7_0C00 + epoch, 32, 9);
        let report = delta.mutate(&batch).expect("in-bounds batch");
        assert_ne!(
            report.fingerprint, report.previous_fingerprint,
            "a 32-op seeded batch must change the structure",
        );
        evictions += before_entries;
        evicted_bytes += before_bytes;
        assert_eq!(delta.serve_engine().cache_len(), 0, "epoch {epoch}: stale kernels linger");
        assert_eq!(delta.serve_engine().cache_resident_bytes(), 0);
        assert_eq!(delta.serve_engine().cache_evictions(), evictions);
        assert_eq!(delta.serve_engine().cache_evicted_bytes(), evicted_bytes);

        delta.serve(&trace).expect("post-epoch serve");
        inserted_total += delta.serve_engine().cache_resident_bytes();
        // Conservation after every epoch: every byte ever prepared is
        // either resident right now or was evicted exactly once.
        assert_eq!(
            delta.serve_engine().cache_resident_bytes()
                + delta.serve_engine().cache_evicted_bytes(),
            inserted_total,
            "epoch {epoch}: resident/evicted bytes double-count",
        );
    }

    // An all-redundant epoch keeps the fingerprint, so nothing is evicted.
    let mut noop = MutationBatch::new();
    let (r0, c0) = (delta.graph().adjacency().rows()[0], delta.graph().adjacency().cols()[0]);
    noop.inserts.push((r0, c0, 1));
    let entries_before = delta.serve_engine().cache_len();
    let report = delta.mutate(&noop).expect("redundant batch");
    assert_eq!(report.fingerprint, report.previous_fingerprint);
    assert_eq!(delta.serve_engine().cache_len(), entries_before, "no-op epoch must not evict");
    assert_eq!(delta.serve_engine().cache_evictions(), evictions);

    // Direct double-invalidation is idempotent: the second sweep of the
    // same fingerprint finds nothing and moves no counters.
    let mut serve = ServeEngine::new(&eng, ServeConfig::default());
    serve.run_batch(&graph, &trace).expect("plain serve");
    let fp = structural_fingerprint(graph.adjacency(), u64::from);
    let before = serve.cache_resident_bytes();
    let (e1, b1) = serve.invalidate_graph(fp);
    assert_eq!(b1, before, "the first sweep evicts the whole epoch");
    assert!(e1 > 0);
    let (e2, b2) = serve.invalidate_graph(fp);
    assert_eq!((e2, b2), (0, 0), "the second sweep must find nothing");
    assert_eq!(serve.cache_resident_bytes(), 0);
    assert_eq!(serve.cache_evictions(), e1);
    assert_eq!(serve.cache_evicted_bytes(), b1);
}
