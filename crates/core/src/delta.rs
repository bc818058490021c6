//! Epoch-versioned dynamic graphs with differential-gated incremental
//! serving (DESIGN.md §15).
//!
//! Serving so far ran against frozen graphs; real query streams interleave
//! with edge churn. This module closes the gap in three layers:
//!
//! 1. [`DynamicGraph`] — a canonical adjacency plus an epoch counter, the
//!    epoch's [`structural_fingerprint`], and a band-level
//!    [`EpochPlan`](alpha_pim_sparse::EpochPlan) that re-plans only the
//!    partitions a batch dirties.
//! 2. [`DeltaEngine`] — a serving engine over a [`DynamicGraph`]. Mutation
//!    batches advance the epoch, evict exactly the stale prepared kernels
//!    from the [`ServeEngine`] cache
//!    ([`ServeEngine::invalidate_graph`]), and arm the *incremental
//!    recomputation* path: the next BFS/SSSP query for a source served in
//!    the previous epoch is repaired from its old answer instead of rerun
//!    from scratch.
//! 3. The repair algorithm itself ([`repair_seed`]): a
//!    Ramalingam–Reps-style affected-set scan over the old distances. A
//!    vertex is *affected* when every old shortest path to it used a
//!    deleted edge; affected vertices reset to [`INF`] and the relaxation
//!    restarts from the *seed frontier* — the unaffected in-neighbors of
//!    the affected region plus the tails of inserted edges. Seeded
//!    (min, +) relaxation from that state converges to the same unique
//!    fixed point a from-scratch run reaches, so answers are bit-identical
//!    while only the affected region is re-settled.
//!
//! BFS is repaired as (min, +) over unit weights — hop distances are the
//! fixed point of that system, and `UNREACHED == INF`, so repaired levels
//! are bit-identical to a from-scratch wave traversal. PPR is a power
//! iteration whose *trajectory* defines the answer, not a fixed-point
//! relaxation over a selective semiring, so PPR queries always rerun in
//! full (their frontier savings are zero by construction).
//!
//! Every mutation and recomputation lands in the `delta.*` counters, a
//! zero-remainder ledger family: `inserted + deleted == applied`,
//! `applied + redundant == requested`, `dirty + clean == total`
//! partitions, and `seeded + saved == full` frontier vertices.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use alpha_pim_sim::{CounterId, CounterSet};
use alpha_pim_sparse::delta::{apply_batch, canonicalize};
use alpha_pim_sparse::partition::structural_fingerprint;
use alpha_pim_sparse::{Csc, Csr, DeltaStats, EpochPlan, Graph, MutationBatch, SparseVector};

use crate::apps::stepper::{Relax, Stepper};
use crate::apps::{BfsResult, MvEngine};
use crate::error::AlphaPimError;
use crate::framework::AlphaPim;
use crate::semiring::{MinPlus, Semiring, INF};
use crate::serve::{Query, QueryResult, ServeConfig, ServeEngine};

/// A graph that takes mutation batches: the canonical adjacency, the
/// current epoch, its structural fingerprint, and the band partition plan
/// that re-plans only dirty bands.
///
/// The adjacency is canonicalized (row-major sorted, duplicate-free) at
/// construction and stays canonical across epochs, which makes the
/// fingerprint path-independent: any batch sequence reaching an edge set
/// fingerprints identically to that edge set built from scratch.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    graph: Graph,
    epoch: u64,
    fingerprint: u64,
    plan: EpochPlan,
}

/// What one mutation epoch did: the ledger of the applied batch, the
/// partition dirty/clean split, and the fingerprint transition.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The epoch the batch created (epoch 0 is the initial graph).
    pub epoch: u64,
    /// Fingerprint before the batch.
    pub previous_fingerprint: u64,
    /// Fingerprint after the batch. Equal to `previous_fingerprint` iff
    /// the batch changed nothing (all-redundant or net no-op).
    pub fingerprint: u64,
    /// The apply ledger (`inserted + deleted == applied`,
    /// `applied + redundant == requested`).
    pub stats: DeltaStats,
    /// Partition bands re-planned this epoch.
    pub dirty_partitions: u64,
    /// Partition bands whose cached plan survived untouched.
    pub clean_partitions: u64,
}

impl DynamicGraph {
    /// Wraps `graph` at epoch 0 with a `parts`-band partition plan.
    ///
    /// # Errors
    ///
    /// [`AlphaPimError::Sparse`] if the adjacency stores a duplicate
    /// coordinate (multi-edges have no delete semantics).
    pub fn new(graph: &Graph, parts: u32) -> Result<Self, AlphaPimError> {
        let adj = canonicalize(graph.adjacency())?;
        let graph = Graph::from_coo(adj);
        let fingerprint = structural_fingerprint(graph.adjacency(), u64::from);
        let plan = EpochPlan::new(graph.adjacency(), parts);
        Ok(DynamicGraph { graph, epoch: 0, fingerprint, plan })
    }

    /// The current epoch's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutation epochs applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current epoch's structural fingerprint — the serve-cache and
    /// checkpoint world-check key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The band partition plan.
    pub fn plan(&self) -> &EpochPlan {
        &self.plan
    }

    /// Applies one mutation batch: advances the epoch, refreshes the
    /// fingerprint, and re-plans exactly the dirty partition bands.
    ///
    /// # Errors
    ///
    /// [`AlphaPimError::Sparse`] when the batch references a vertex
    /// outside the graph; nothing is applied.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<EpochReport, AlphaPimError> {
        let (next, stats) = apply_batch(self.graph.adjacency(), batch)?;
        let previous_fingerprint = self.fingerprint;
        self.graph = Graph::from_coo(next);
        self.epoch += 1;
        self.fingerprint = structural_fingerprint(self.graph.adjacency(), u64::from);
        let (dirty, clean) = self.plan.replan(self.graph.adjacency(), &stats.touched_rows);
        Ok(EpochReport {
            epoch: self.epoch,
            previous_fingerprint,
            fingerprint: self.fingerprint,
            stats,
            dirty_partitions: dirty,
            clean_partitions: clean,
        })
    }
}

/// How one query was recomputed by the [`DeltaEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecomputeStats {
    /// Whether the incremental (seeded-repair) path served the query.
    pub incremental: bool,
    /// Vertices a from-scratch run initializes — the graph's node count.
    pub frontier_full: u64,
    /// Vertices this recompute actually re-settled: the affected set plus
    /// the seed frontier on the incremental path, all `frontier_full` of
    /// them on a full rerun.
    pub frontier_seeded: u64,
    /// `frontier_full - frontier_seeded`: what seeding saved.
    pub frontier_saved: u64,
}

/// An answer a past epoch computed, kept as the seed of the next epoch's
/// repair. Only converged, non-degraded runs are remembered — a partial
/// answer is not a sound upper bound of the fixed point.
struct Prior {
    sssp: bool,
    source: u32,
    epoch: u64,
    values: Vec<u32>,
}

/// The effective edges of the latest epoch transition, weights included —
/// what [`repair_seed`] consumes.
struct PendingDelta {
    inserts: Vec<(u32, u32, u32)>,
    deletes: Vec<(u32, u32, u32)>,
}

/// Lands one mutation batch on `dynamic`: the epoch advances, the stale
/// epoch's prepared kernels leave `serve`'s cache exactly once, and the
/// `delta.*` ledgers (epochs, edges, partitions) absorb the epoch. Both
/// [`DeltaEngine::mutate`] and the multi-tenant service land epochs here.
///
/// # Errors
///
/// As [`DynamicGraph::apply`]; on error nothing changes.
pub(crate) fn land_epoch(
    serve: &mut ServeEngine<'_>,
    dynamic: &mut DynamicGraph,
    batch: &MutationBatch,
    counters: &mut CounterSet,
) -> Result<EpochReport, AlphaPimError> {
    let report = dynamic.apply(batch)?;
    if report.fingerprint != report.previous_fingerprint {
        let (entries, bytes) = serve.invalidate_graph(report.previous_fingerprint);
        counters.add(CounterId::ServeCacheEvictions, entries);
        counters.add(CounterId::ServeEvictedBytes, bytes);
    }
    counters.add(CounterId::DeltaEpochs, 1);
    counters.add(CounterId::DeltaEdgesRequested, report.stats.requested);
    counters.add(CounterId::DeltaEdgesApplied, report.stats.applied());
    counters.add(CounterId::DeltaEdgesInserted, report.stats.inserted);
    counters.add(CounterId::DeltaEdgesDeleted, report.stats.deleted);
    counters.add(CounterId::DeltaEdgesRedundant, report.stats.redundant);
    counters.add(CounterId::DeltaPartitionsTotal, dynamic.plan().parts() as u64);
    counters.add(CounterId::DeltaPartitionsDirty, report.dirty_partitions);
    counters.add(CounterId::DeltaPartitionsClean, report.clean_partitions);
    Ok(report)
}

/// An epoch-serving engine: a [`ServeEngine`] plus a [`DynamicGraph`],
/// wired so mutations invalidate stale cache entries exactly once and
/// BFS/SSSP queries repeated across an epoch boundary are repaired
/// incrementally instead of rerun.
///
/// # Example
///
/// ```
/// use alpha_pim::delta::DeltaEngine;
/// use alpha_pim::serve::{Query, ServeConfig};
/// use alpha_pim::AlphaPim;
/// use alpha_pim_sim::{PimConfig, SimFidelity};
/// use alpha_pim_sparse::delta::seeded_batch;
/// use alpha_pim_sparse::{gen, Graph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = AlphaPim::new(PimConfig {
///     num_dpus: 8,
///     fidelity: SimFidelity::Full,
///     ..Default::default()
/// })?;
/// let graph = Graph::from_coo(gen::erdos_renyi(200, 1500, 42)?).with_random_weights(9);
/// let mut delta = DeltaEngine::new(&engine, ServeConfig::default(), &graph, 8)?;
/// let (_, stats) = delta.serve(&[Query::Sssp { source: 3 }])?;
/// assert!(!stats[0].incremental, "first epoch has nothing to repair from");
///
/// let batch = seeded_batch(delta.graph().adjacency(), 7, 20, 9);
/// let report = delta.mutate(&batch)?;
/// assert_eq!(report.epoch, 1);
/// let (_, stats) = delta.serve(&[Query::Sssp { source: 3 }])?;
/// assert!(stats[0].incremental, "the old answer seeds the repair");
/// # Ok(())
/// # }
/// ```
pub struct DeltaEngine<'a> {
    engine: &'a AlphaPim,
    serve: ServeEngine<'a>,
    dynamic: DynamicGraph,
    counters: CounterSet,
    priors: Vec<Prior>,
    pending: Option<PendingDelta>,
    /// Per-epoch prepared (min, +) repair engines: weighted for SSSP,
    /// unit-weight for BFS. Dropped on every epoch advance.
    repair_sssp: Option<Rc<MvEngine<MinPlus>>>,
    repair_bfs: Option<Rc<MvEngine<MinPlus>>>,
}

impl<'a> DeltaEngine<'a> {
    /// Builds the engine over `graph` at epoch 0 with a `parts`-band plan.
    ///
    /// # Errors
    ///
    /// As [`DynamicGraph::new`].
    pub fn new(
        engine: &'a AlphaPim,
        config: ServeConfig,
        graph: &Graph,
        parts: u32,
    ) -> Result<Self, AlphaPimError> {
        Ok(DeltaEngine {
            engine,
            serve: ServeEngine::new(engine, config),
            dynamic: DynamicGraph::new(graph, parts)?,
            counters: CounterSet::new(),
            priors: Vec::new(),
            pending: None,
            repair_sssp: None,
            repair_bfs: None,
        })
    }

    /// The current epoch's graph.
    pub fn graph(&self) -> &Graph {
        self.dynamic.graph()
    }

    /// The dynamic graph (epoch, fingerprint, partition plan).
    pub fn dynamic(&self) -> &DynamicGraph {
        &self.dynamic
    }

    /// The inner serving engine (cache statistics live here).
    pub fn serve_engine(&self) -> &ServeEngine<'a> {
        &self.serve
    }

    /// Lifetime `delta.*` / `serve.*` counters of this engine.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Applies one mutation batch: the epoch advances, stale prepared
    /// kernels leave the serve cache exactly once, and the previous
    /// epoch's converged answers are armed as repair seeds. The `delta.*`
    /// ledgers (epochs, edges, partitions) absorb the epoch.
    ///
    /// # Errors
    ///
    /// As [`DynamicGraph::apply`]; on error nothing changes.
    pub fn mutate(&mut self, batch: &MutationBatch) -> Result<EpochReport, AlphaPimError> {
        let report = land_epoch(&mut self.serve, &mut self.dynamic, batch, &mut self.counters)?;
        // Only answers from the epoch we just left can seed repairs; older
        // ones are two deltas behind and would need a delta chain.
        let epoch = self.dynamic.epoch();
        self.priors.retain(|p| p.epoch + 1 == epoch);
        self.pending = Some(PendingDelta {
            inserts: report.stats.effective_inserts.clone(),
            deletes: report.stats.effective_deletes.clone(),
        });
        self.repair_sssp = None;
        self.repair_bfs = None;
        Ok(report)
    }

    /// Serves `queries` against the current epoch. BFS/SSSP queries whose
    /// source was answered (and converged) in the previous epoch take the
    /// incremental path; everything else — PPR, first-seen sources,
    /// non-converged priors — reruns in full through the serve cache.
    /// Either way the answers are bit-identical to from-scratch runs on
    /// the current graph; the per-query [`RecomputeStats`] and the
    /// `delta.frontier_*` ledger record what seeding saved.
    ///
    /// # Errors
    ///
    /// Propagates source-validation, capacity, and kernel errors.
    pub fn serve(
        &mut self,
        queries: &[Query],
    ) -> Result<(Vec<QueryResult>, Vec<RecomputeStats>), AlphaPimError> {
        let mut results = Vec::with_capacity(queries.len());
        let mut stats = Vec::with_capacity(queries.len());
        for &q in queries {
            let (r, s) = self.run_query(q)?;
            results.push(r);
            stats.push(s);
        }
        Ok((results, stats))
    }

    fn run_query(&mut self, q: Query) -> Result<(QueryResult, RecomputeStats), AlphaPimError> {
        let epoch = self.dynamic.epoch();
        let (sssp, source) = match q {
            Query::Bfs { source } => (false, source),
            Query::Sssp { source } => (true, source),
            Query::Ppr { .. } => return self.run_full(q),
        };
        let old = if self.pending.is_some() {
            self.priors
                .iter()
                .find(|p| p.sssp == sssp && p.source == source && p.epoch + 1 == epoch)
                .map(|p| p.values.clone())
        } else {
            None
        };
        match old {
            Some(old) => self.run_incremental(sssp, source, &old),
            None => self.run_full(q),
        }
    }

    /// The full-rerun path: one single-query batch through the serve
    /// cache. Remembers converged BFS/SSSP answers as repair seeds.
    fn run_full(&mut self, q: Query) -> Result<(QueryResult, RecomputeStats), AlphaPimError> {
        let n = u64::from(self.dynamic.graph().nodes());
        let (mut results, batch) = self.serve.run_batch(self.dynamic.graph(), &[q])?;
        self.counters.merge(&batch.counters);
        let result = results.pop().ok_or_else(|| {
            AlphaPimError::Config("serve returned no result for a one-query batch".into())
        })?;
        match (&result, q) {
            (QueryResult::Bfs(r), Query::Bfs { source }) => {
                self.remember(false, source, &r.levels, &r.report);
            }
            (QueryResult::Sssp(r), Query::Sssp { source }) => {
                self.remember(true, source, &r.distances, &r.report);
            }
            _ => {}
        }
        self.counters.add(CounterId::DeltaFrontierFull, n);
        self.counters.add(CounterId::DeltaFrontierSeeded, n);
        Ok((
            result,
            RecomputeStats {
                incremental: false,
                frontier_full: n,
                frontier_seeded: n,
                frontier_saved: 0,
            },
        ))
    }

    /// The incremental path: affected-set scan, seeded (min, +) repair.
    fn run_incremental(
        &mut self,
        sssp: bool,
        source: u32,
        old: &[u32],
    ) -> Result<(QueryResult, RecomputeStats), AlphaPimError> {
        let graph = self.dynamic.graph();
        let n = graph.nodes();
        let full = u64::from(n);
        let Some(pending) = self.pending.as_ref() else {
            return Err(AlphaPimError::Config(
                "incremental repair invoked without a pending delta".into(),
            ));
        };
        let csr = graph.to_csr();
        let csc = graph.to_csc();
        let (dist, seed_idx, seed_val, scope) =
            repair_seed(old, &pending.deletes, &pending.inserts, &csr, &csc, !sssp);

        let (values, report) = if seed_idx.is_empty() {
            // No seed can improve anything: the repaired state is already
            // the fixed point (the affected region is unreachable now).
            let report = crate::apps::AppReport {
                converged: true,
                ..Default::default()
            };
            (dist, report)
        } else {
            let engine = self.repair_engine(sssp)?;
            let frontier = SparseVector::from_pairs(n as usize, seed_idx, seed_val)?;
            let max_iterations = self.serve.config().options.max_iterations;
            let stepper = Stepper::new(engine, Relax { values: dist }, frontier, max_iterations);
            // Repairs step on the serving machine, so they take the same
            // timing path as full reruns.
            let (repaired, report) = stepper.run(self.serve.machine()?)?;
            (repaired.values, report)
        };

        self.remember(sssp, source, &values, &report);
        let seeded = scope.min(full);
        self.counters.add(CounterId::DeltaFrontierFull, full);
        self.counters.add(CounterId::DeltaFrontierSeeded, seeded);
        self.counters.add(CounterId::DeltaFrontierSaved, full - seeded);
        let stats = RecomputeStats {
            incremental: true,
            frontier_full: full,
            frontier_seeded: seeded,
            frontier_saved: full - seeded,
        };
        let result = if sssp {
            QueryResult::Sssp(crate::apps::SsspResult { distances: values, report })
        } else {
            QueryResult::Bfs(BfsResult { levels: values, report })
        };
        Ok((result, stats))
    }

    /// Stores (or refreshes) a converged answer as a repair seed.
    fn remember(&mut self, sssp: bool, source: u32, values: &[u32], report: &crate::apps::AppReport) {
        if !report.converged || report.degraded {
            return;
        }
        let epoch = self.dynamic.epoch();
        match self.priors.iter_mut().find(|p| p.sssp == sssp && p.source == source) {
            Some(p) => {
                p.epoch = epoch;
                p.values = values.to_vec();
            }
            None => {
                self.priors.push(Prior { sssp, source, epoch, values: values.to_vec() });
            }
        }
    }

    /// The per-epoch (min, +) repair engine: weighted `Aᵀ` for SSSP,
    /// unit-weight `Aᵀ` for BFS (hop distances are its fixed point).
    fn repair_engine(&mut self, sssp: bool) -> Result<Rc<MvEngine<MinPlus>>, AlphaPimError> {
        let slot = if sssp { &self.repair_sssp } else { &self.repair_bfs };
        if let Some(e) = slot {
            return Ok(Rc::clone(e));
        }
        let graph = self.dynamic.graph();
        let matrix = if sssp {
            graph.transposed().map(MinPlus::from_weight)
        } else {
            graph.transposed().map(|_| 1u32)
        };
        let options = self.serve.config().options;
        let threshold = self.engine.switch_threshold(graph);
        let engine = Rc::new(MvEngine::new(&matrix, &options, threshold, self.serve.machine()?)?);
        if sssp {
            self.repair_sssp = Some(Rc::clone(&engine));
        } else {
            self.repair_bfs = Some(Rc::clone(&engine));
        }
        Ok(engine)
    }
}

/// The affected-set scan (deletion side of Ramalingam–Reps): given the
/// previous epoch's converged values `old`, the epoch's effective edges,
/// and the *new* graph in CSR/CSC form, computes the repaired seed state.
///
/// Returns `(dist, seed_idx, seed_vals, scope)`:
///
/// * `dist` — `old` with every affected vertex reset to [`INF`]. A vertex
///   is affected when no surviving in-edge from an unaffected vertex
///   supports its old value (`old[u] + w == old[v]`); candidates start at
///   the heads of deleted support edges and propagate along old shortest-
///   path edges in ascending `old` order, which is sound because weights
///   are ≥ 1 (a support is always strictly closer to the source, so its
///   verdict is final before its dependents are examined).
/// * the seed frontier — unaffected, still-reachable in-neighbors of the
///   affected region plus tails of inserted edges, carrying their `dist`.
///   Every relaxation-violating edge of the seeded state starts at one of
///   these, so driving the relaxation from here reaches the fixed point.
/// * `scope` — `|affected| + |seeds|`, the vertices the repair re-settles
///   (the `delta.frontier_seeded` contribution; ≤ the node count because
///   the two sets are disjoint).
///
/// `unit` treats every edge weight as 1 (the BFS hop metric).
fn repair_seed(
    old: &[u32],
    deletes: &[(u32, u32, u32)],
    inserts: &[(u32, u32, u32)],
    csr: &Csr<u32>,
    csc: &Csc<u32>,
    unit: bool,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, u64) {
    let w_of = |w: u32| if unit { 1u64 } else { u64::from(w) };
    let supports = |du: u32, w: u32, dv: u32| du != INF && u64::from(du) + w_of(w) == u64::from(dv);

    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    for &(u, v, w) in deletes {
        let (du, dv) = (old[u as usize], old[v as usize]);
        if dv != INF && supports(du, w, dv) {
            heap.push(Reverse((dv, v)));
        }
    }
    let mut affected = vec![false; old.len()];
    let mut affected_count = 0u64;
    while let Some(Reverse((dv, v))) = heap.pop() {
        if affected[v as usize] {
            continue;
        }
        let (ins, ws) = csc.col(v);
        let supported = ins
            .iter()
            .zip(ws)
            .any(|(&u, &w)| !affected[u as usize] && supports(old[u as usize], w, dv));
        if supported {
            continue;
        }
        affected[v as usize] = true;
        affected_count += 1;
        let (outs, ws) = csr.row(v);
        for (&y, &w) in outs.iter().zip(ws) {
            let dy = old[y as usize];
            if dy != INF && !affected[y as usize] && supports(dv, w, dy) {
                heap.push(Reverse((dy, y)));
            }
        }
    }

    let mut dist = old.to_vec();
    for (i, &a) in affected.iter().enumerate() {
        if a {
            dist[i] = INF;
        }
    }
    let mut seed = vec![false; old.len()];
    for (v, &a) in affected.iter().enumerate() {
        if !a {
            continue;
        }
        let (ins, _) = csc.col(v as u32);
        for &u in ins {
            if !affected[u as usize] && dist[u as usize] != INF {
                seed[u as usize] = true;
            }
        }
    }
    for &(u, _, _) in inserts {
        if !affected[u as usize] && dist[u as usize] != INF {
            seed[u as usize] = true;
        }
    }
    let mut seed_idx = Vec::new();
    let mut seed_val = Vec::new();
    for (i, &s) in seed.iter().enumerate() {
        if s {
            seed_idx.push(i as u32);
            seed_val.push(dist[i]);
        }
    }
    let scope = affected_count + seed_idx.len() as u64;
    (dist, seed_idx, seed_val, scope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppOptions;
    use crate::serve::FastPath;
    use alpha_pim_sim::{PimConfig, SimFidelity};
    use alpha_pim_sparse::delta::seeded_batch;
    use alpha_pim_sparse::gen;

    fn engine() -> AlphaPim {
        AlphaPim::new(PimConfig {
            num_dpus: 8,
            fidelity: SimFidelity::Sampled(4),
            ..Default::default()
        })
        .unwrap()
    }

    fn graph(nodes: u32, edges: usize, seed: u64) -> Graph {
        Graph::from_coo(gen::erdos_renyi(nodes, edges, seed).unwrap()).with_random_weights(9)
    }

    fn values(r: &QueryResult) -> Vec<u32> {
        match r {
            QueryResult::Bfs(b) => b.levels.clone(),
            QueryResult::Sssp(s) => s.distances.clone(),
            QueryResult::Ppr(_) => panic!("u32 values requested for a PPR result"),
        }
    }

    #[test]
    fn dynamic_graph_tracks_epoch_fingerprint_and_partitions() {
        let g = graph(300, 2_400, 5);
        let mut dg = DynamicGraph::new(&g, 8).unwrap();
        assert_eq!(dg.epoch(), 0);
        let fp0 = dg.fingerprint();
        let batch = seeded_batch(dg.graph().adjacency(), 77, 40, 9);
        let report = dg.apply(&batch).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.previous_fingerprint, fp0);
        assert_ne!(report.fingerprint, fp0, "an effective batch must move the fingerprint");
        assert_eq!(report.dirty_partitions + report.clean_partitions, 8);
        assert_eq!(
            dg.fingerprint(),
            structural_fingerprint(dg.graph().adjacency(), u64::from),
        );
    }

    #[test]
    fn incremental_answers_match_from_scratch_reruns() {
        let pim = engine();
        let g = graph(220, 1_700, 11);
        let mut delta = DeltaEngine::new(&pim, ServeConfig::default(), &g, 8).unwrap();
        let queries =
            [Query::Bfs { source: 3 }, Query::Sssp { source: 3 }, Query::Sssp { source: 17 }];
        delta.serve(&queries).unwrap();
        for round in 0..3u64 {
            let batch = seeded_batch(delta.graph().adjacency(), 0xA11 ^ round, 30, 9);
            delta.mutate(&batch).unwrap();
            let (inc, stats) = delta.serve(&queries).unwrap();
            assert!(stats.iter().all(|s| s.incremental), "round {round}: all seeds were armed");
            assert!(
                stats.iter().any(|s| s.frontier_saved > 0),
                "round {round}: a 30-op delta must save some frontier",
            );
            // Referee: from-scratch runs on the mutated graph.
            let mut fresh = ServeEngine::new(&pim, ServeConfig::default());
            let (scratch, _) = fresh.serve(delta.graph(), &queries).unwrap();
            for (q, (i, s)) in queries.iter().zip(inc.iter().zip(scratch.iter())) {
                assert_eq!(values(i), values(s), "round {round}, query {q:?}");
            }
        }
    }

    #[test]
    fn ppr_queries_always_rerun_in_full() {
        let pim = engine();
        let g = graph(150, 1_000, 3);
        let mut delta = DeltaEngine::new(&pim, ServeConfig::default(), &g, 4).unwrap();
        let q = [Query::Ppr { source: 2 }];
        delta.serve(&q).unwrap();
        let batch = seeded_batch(delta.graph().adjacency(), 9, 10, 9);
        delta.mutate(&batch).unwrap();
        let (_, stats) = delta.serve(&q).unwrap();
        assert!(!stats[0].incremental);
        assert_eq!(stats[0].frontier_saved, 0);
        assert_eq!(stats[0].frontier_seeded, 150);
    }

    #[test]
    fn delta_ledgers_balance_across_epochs() {
        let pim = engine();
        let g = graph(200, 1_500, 21);
        let mut delta = DeltaEngine::new(&pim, ServeConfig::default(), &g, 6).unwrap();
        let queries = [Query::Bfs { source: 0 }, Query::Sssp { source: 1 }];
        delta.serve(&queries).unwrap();
        for round in 0..4u64 {
            let batch = seeded_batch(delta.graph().adjacency(), round.wrapping_mul(0x9E37), 25, 9);
            delta.mutate(&batch).unwrap();
            delta.serve(&queries).unwrap();
        }
        let c = delta.counters();
        assert_eq!(c.get(CounterId::DeltaEpochs), 4);
        assert_eq!(c.check_ledgers(), Ok(()));
        assert_eq!(c.get(CounterId::DeltaPartitionsTotal), 4 * 6);
        assert!(c.get(CounterId::DeltaFrontierSaved) > 0, "incremental rounds must save");
    }

    #[test]
    fn mutation_evicts_stale_epoch_kernels_exactly_once() {
        let pim = engine();
        let g = graph(180, 1_200, 31);
        let mut delta = DeltaEngine::new(&pim, ServeConfig::default(), &g, 4).unwrap();
        let queries = [Query::Bfs { source: 0 }, Query::Ppr { source: 1 }];
        delta.serve(&queries).unwrap();
        assert_eq!(delta.serve_engine().cache_len(), 2);
        let batch = seeded_batch(delta.graph().adjacency(), 1, 12, 9);
        delta.mutate(&batch).unwrap();
        assert_eq!(delta.serve_engine().cache_len(), 0, "stale epoch fully evicted");
        assert_eq!(delta.serve_engine().cache_evictions(), 2);
        assert_eq!(delta.counters().get(CounterId::ServeCacheEvictions), 2);
        // A no-op batch leaves the (new epoch's) cache alone.
        delta.serve(&queries).unwrap();
        let resident = delta.serve_engine().cache_len();
        delta.mutate(&MutationBatch::new()).unwrap();
        assert_eq!(delta.serve_engine().cache_len(), resident, "no-op epoch keeps kernels");
        assert_eq!(delta.serve_engine().cache_evictions(), 2);
    }

    #[test]
    fn repair_handles_disconnecting_deletes_and_reconnecting_inserts() {
        // A path 0→1→2→3 where deleting (1,2) strands {2, 3}, then an
        // insert (0,2) re-attaches them — both directions of the repair.
        let coo = alpha_pim_sparse::Coo::from_entries(
            4,
            4,
            vec![(0, 1, 2u32), (1, 2, 3), (2, 3, 4)],
        )
        .unwrap();
        let g = Graph::from_coo(coo);
        let pim = AlphaPim::new(PimConfig {
            num_dpus: 2,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap();
        let mut delta = DeltaEngine::new(&pim, ServeConfig::default(), &g, 2).unwrap();
        let q = [Query::Sssp { source: 0 }];
        let (r, _) = delta.serve(&q).unwrap();
        assert_eq!(values(&r[0]), vec![0, 2, 5, 9]);

        let cut = MutationBatch { deletes: vec![(1, 2)], ..MutationBatch::default() };
        delta.mutate(&cut).unwrap();
        let (r, s) = delta.serve(&q).unwrap();
        assert!(s[0].incremental);
        assert_eq!(values(&r[0]), vec![0, 2, INF, INF], "stranded suffix resets to INF");

        let patch =
            MutationBatch { inserts: vec![(0, 2, 1)], ..MutationBatch::default() };
        delta.mutate(&patch).unwrap();
        let (r, s) = delta.serve(&q).unwrap();
        assert!(s[0].incremental);
        assert_eq!(values(&r[0]), vec![0, 2, 1, 5], "insert re-attaches the suffix");
    }

    #[test]
    fn repairs_are_timed_on_the_serving_machine() {
        // A `Full` engine on the analytic fast path repairs on an analytic
        // machine, exactly like an `Analytic` engine that replays.
        let g = graph(220, 1_700, 11);
        let q = [Query::Sssp { source: 3 }];
        let repaired = |fidelity, fast_path| {
            let pim =
                AlphaPim::new(PimConfig { num_dpus: 8, fidelity, ..Default::default() }).unwrap();
            let config = ServeConfig { fast_path, ..Default::default() };
            let mut delta = DeltaEngine::new(&pim, config, &g, 8).unwrap();
            delta.serve(&q).unwrap();
            let batch = seeded_batch(delta.graph().adjacency(), 0xA11, 30, 9);
            delta.mutate(&batch).unwrap();
            let (mut results, stats) = delta.serve(&q).unwrap();
            assert!(stats[0].incremental, "the old answer seeds the repair");
            results.pop().unwrap()
        };
        let fast = repaired(SimFidelity::Full, FastPath::Analytic);
        let analytic = repaired(SimFidelity::Analytic, FastPath::Replay);
        assert!(fast.same_values(&analytic));
        assert_eq!(format!("{:?}", fast.report()), format!("{:?}", analytic.report()));
    }

    #[test]
    fn repair_scope_respects_iteration_caps() {
        // A tiny max_iterations starves convergence; non-converged answers
        // must not be remembered as repair seeds.
        let pim = engine();
        let g = graph(160, 1_100, 41);
        let config = ServeConfig {
            options: AppOptions { max_iterations: 1, ..Default::default() },
            ..Default::default()
        };
        let mut delta = DeltaEngine::new(&pim, config, &g, 4).unwrap();
        let q = [Query::Sssp { source: 0 }];
        delta.serve(&q).unwrap();
        let batch = seeded_batch(delta.graph().adjacency(), 2, 10, 9);
        delta.mutate(&batch).unwrap();
        let (_, stats) = delta.serve(&q).unwrap();
        assert!(!stats[0].incremental, "a capped run is not a sound seed");
    }
}
