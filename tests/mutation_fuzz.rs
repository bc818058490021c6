//! Seeded mutation-fuzz differential audit of the dynamic-graph layer: for
//! every Table 2 catalog graph, the `mutate` gate (`audit::mutate`, the
//! same function `alpha_pim_cli mutate` runs) applies a seeded sequence of
//! insert/delete batches epoch by epoch, and at each epoch serves the same
//! query trace twice — once through the incremental [`DeltaEngine`]
//! (seeded frontier repair over the previous epoch's converged answers)
//! and once from scratch on the mutated graph. Answers and value
//! fingerprints must be bit-identical at every epoch, the `delta.*`
//! ledgers must balance, and the whole run must be reproducible at 1 and
//! 4 host threads.

use alpha_pim::apps::AppOptions;
use alpha_pim::serve::{fingerprint_results, ServeConfig};
use alpha_pim::{AlphaPim, DeltaEngine};
use alpha_pim_bench::audit::{self, Epochs, MutateReport};
use alpha_pim_sim::par::set_sim_threads;
use alpha_pim_sim::{CounterId, PimConfig, SimFidelity};
use alpha_pim_sparse::delta::seeded_batch;
use alpha_pim_sparse::{datasets, gen, Coo, Graph, MutationBatch};

const SCALE: f64 = 0.015;
const SEED: u64 = 0xF022;

const EPOCHS: u64 = 2;
const OPS_PER_EPOCH: usize = 40;

fn engine() -> AlphaPim {
    AlphaPim::new(PimConfig {
        num_dpus: 64,
        fidelity: SimFidelity::Sampled(8),
        ..Default::default()
    })
    .expect("valid config")
}

fn config() -> ServeConfig {
    ServeConfig { batch_size: 8, options: AppOptions::default(), ..Default::default() }
}

/// Every catalog graph at a workable fuzz size: scaled down, but clamped
/// to the 800–2,000 node band so frontiers still span several partition
/// bands without the million-node graphs dominating the suite's runtime.
fn catalog_graphs() -> Vec<(&'static str, Graph)> {
    datasets::table2()
        .iter()
        .map(|spec| {
            let min_scale = (800.0 / spec.nodes as f64).min(1.0);
            let max_scale = (2_000.0 / spec.nodes as f64).min(1.0);
            let g = spec
                .generate_scaled(SCALE.clamp(min_scale, max_scale), SEED)
                .expect("catalog recipes are valid");
            (spec.abbrev, g)
        })
        .collect()
}

/// One query of each application kind, sources seeded per graph — BFS and
/// SSSP exercise the seeded-repair path, PPR the forced full-rerun path.
fn fuzz_trace(nodes: u32, seed: u64) -> Vec<alpha_pim::serve::Query> {
    let s = |i: u64| (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i) % u64::from(nodes)) as u32;
    vec![
        alpha_pim::serve::Query::Bfs { source: s(1) },
        alpha_pim::serve::Query::Sssp { source: s(2) },
        alpha_pim::serve::Query::Ppr { source: s(3) },
    ]
}

/// Drives one graph through the seeded epoch sequence with the `mutate`
/// gate, which referees every epoch against a from-scratch rerun.
fn fuzz_one(graph: &Graph, trace_seed: u64) -> MutateReport {
    let epochs = Epochs { count: EPOCHS, ops: OPS_PER_EPOCH, seed: trace_seed, max_weight: 9 };
    audit::mutate(&engine(), config(), graph, &fuzz_trace(graph.nodes(), trace_seed), epochs)
        .expect("the mutate gate runs")
}

/// The tentpole gate: every catalog graph, every epoch, incremental ==
/// from-scratch, reproduced bit-for-bit at 1 and 4 host threads.
#[test]
fn incremental_serving_matches_rebuild_on_every_catalog_graph() {
    for (i, (abbrev, graph)) in catalog_graphs().iter().enumerate() {
        let trace_seed = SEED ^ (i as u64) << 8;
        set_sim_threads(1);
        let single = fuzz_one(graph, trace_seed);
        assert_eq!(single.epochs.len() as u64, EPOCHS + 1);
        for (epoch, e) in single.epochs.iter().enumerate() {
            // Every answer matches the referee's bit for bit.
            assert_eq!(e.mismatched, Vec::<usize>::new(), "{abbrev}: answers diverged at {epoch}");
            assert_eq!(
                e.fingerprint, e.referee,
                "{abbrev}: value fingerprint diverged at epoch {epoch}",
            );
            for s in &e.stats {
                assert_eq!(
                    s.frontier_seeded + s.frontier_saved,
                    s.frontier_full,
                    "{abbrev}: per-query frontier ledger broke at epoch {epoch}",
                );
            }
            let Some(landed) = &e.landed else { continue };
            assert_eq!(landed.epoch, epoch as u64, "{abbrev}: epoch did not advance");
            assert_eq!(
                landed.stats.inserted + landed.stats.deleted,
                landed.stats.applied(),
                "{abbrev}: apply ledger broke at epoch {epoch}",
            );
            // BFS and SSSP repair from the previous epoch's answers; PPR
            // is trajectory-dependent and always reruns in full.
            assert_eq!(
                e.incremental(),
                2,
                "{abbrev}: BFS+SSSP must take the incremental path at epoch {epoch}",
            );
        }
        let c = &single.counters;
        assert_eq!(c.get(CounterId::DeltaEpochs), EPOCHS, "{abbrev}: epoch ledger miscounted");
        assert_eq!(c.check_ledgers(), Ok(()), "{abbrev}");
        assert_eq!(single.verdict(), Ok(()), "{abbrev}");

        // The 4-thread replay must land on the same per-epoch answers and
        // ledgers.
        set_sim_threads(4);
        let multi = fuzz_one(graph, trace_seed);
        let fingerprints =
            |r: &MutateReport| r.epochs.iter().map(|e| e.fingerprint).collect::<Vec<_>>();
        assert_eq!(
            fingerprints(&single),
            fingerprints(&multi),
            "{abbrev}: per-epoch fingerprints drifted between 1 and 4 threads",
        );
        assert_eq!(
            single.counters, multi.counters,
            "{abbrev}: lifetime counters drifted between 1 and 4 threads",
        );
    }
    set_sim_threads(1);
}

/// A 4-vertex path graph with unit-ish weights: the smallest graph where
/// delete/insert repairs change reachability.
fn path_graph() -> Graph {
    let coo = Coo::from_parts(
        4,
        4,
        vec![0, 1, 2],
        vec![1, 2, 3],
        vec![2u32, 3, 4],
    )
    .expect("valid parts");
    Graph::from_coo(coo)
}

/// Edge-case batches: a delete of an absent edge, an insert duplicating an
/// existing edge, and an empty batch are all redundant no-ops — the
/// fingerprint holds, the ledgers absorb them as `redundant`, the prepared
/// kernels stay cached, and incremental serving stays exact.
#[test]
fn edge_case_batches_are_redundant_and_keep_the_cache() {
    set_sim_threads(1);
    let eng = engine();
    let graph = path_graph();
    let mut delta = DeltaEngine::new(&eng, config(), &graph, 2).expect("canonical graph");
    let trace = vec![
        alpha_pim::serve::Query::Bfs { source: 0 },
        alpha_pim::serve::Query::Sssp { source: 0 },
    ];
    let (first, _) = delta.serve(&trace).expect("initial serve");
    let cached = delta.serve_engine().cache_len();
    assert!(cached > 0, "the first serve must populate the kernel cache");
    let fp0 = delta.dynamic().fingerprint();

    // Delete an edge the graph never had, insert an edge it already has
    // (the stored weight wins; the request is a no-op), and add nothing.
    let mut batch = MutationBatch::new();
    batch.deletes.push((3, 0));
    batch.inserts.push((0, 1, 99));
    let report = delta.mutate(&batch).expect("in-bounds batch");
    assert_eq!(report.stats.applied(), 0);
    assert_eq!(report.stats.redundant, 2);
    assert_eq!(report.fingerprint, fp0, "no-op batch must not move the fingerprint");
    assert_eq!(report.dirty_partitions, 0);

    // A no-op epoch still serves exactly, and cheaply: the repair finds an
    // empty affected set and returns the prior epoch's answers verbatim.
    let (again, stats) = delta.serve(&trace).expect("post-no-op serve");
    assert_eq!(fingerprint_results(&again), fingerprint_results(&first));
    assert!(
        stats.iter().all(|s| s.incremental && s.frontier_seeded == 0),
        "a no-op epoch repairs from an empty frontier",
    );

    let empty = delta.mutate(&MutationBatch::new()).expect("empty batch");
    assert_eq!(empty.stats.requested, 0);
    assert_eq!(empty.fingerprint, fp0);
    let (thrice, _) = delta.serve(&trace).expect("post-empty serve");
    assert_eq!(fingerprint_results(&thrice), fingerprint_results(&first));

    // Nothing structural changed across either epoch, so the stale-epoch
    // eviction must never have fired: the prepared kernels stayed cached.
    assert_eq!(delta.serve_engine().cache_len(), cached);
    assert_eq!(delta.serve_engine().cache_evictions(), 0);
}

/// The seeded fuzz batches themselves: reproducible, in bounds, and about
/// half deletes — the generator the audit and the CLI `mutate` gate share.
#[test]
fn seeded_batches_are_reproducible_and_in_bounds() {
    let adj = gen::erdos_renyi(300, 2_000, 7).expect("valid args");
    let adj = alpha_pim_sparse::delta::canonicalize(&adj).expect("no multi-edges");
    let a = seeded_batch(&adj, 41, 64, 9);
    let b = seeded_batch(&adj, 41, 64, 9);
    assert_eq!(a.inserts, b.inserts);
    assert_eq!(a.deletes, b.deletes);
    assert_eq!(a.len(), 64);
    assert!(!a.deletes.is_empty() && !a.inserts.is_empty());
    assert!(a.inserts.iter().all(|&(r, c, w)| r < 300 && c < 300 && (1..=9).contains(&w)));
    assert!(a.deletes.iter().all(|&(r, c)| r < 300 && c < 300));
}
