//! Batched multi-query serving engine.
//!
//! Interactive graph services answer many traversal queries against the
//! same (slowly changing) graph: BFS reachability probes, shortest-path
//! lookups, personalized-PageRank recommendations. Running each query
//! through [`crate::AlphaPim`] alone repeats two costs that the queries
//! could share:
//!
//! 1. **Partitioning + MRAM load** — the matrix is re-partitioned and
//!    re-checked against DPU capacity for every query, even though every
//!    query of one application multiplies by the *same* prepared matrix.
//!    [`ServeEngine`] keeps prepared kernels in a bounded, deterministic
//!    LRU cache keyed by graph structure, application, DPU count, and
//!    kernel policy.
//! 2. **Per-superstep transfer startup** — each query's frontier is a
//!    separate host→DPU batch, paying the fixed SDK batch-startup window
//!    once per query per superstep. The batched executor advances every
//!    live query by one superstep at a time and packs their frontiers into
//!    a single transfer, paying the startup once per superstep and
//!    shipping dense 1D-SpMV broadcasts in compressed form when the
//!    frontier is sparse.
//!
//! The batch is a *cost-model overlay*: every query still executes its
//! exact standalone superstep sequence (same kernels, same fault
//! verdicts), so batched answers are bit-identical to sequential ones at
//! any host thread count and under any survivable
//! [`alpha_pim_sim::FaultPlan`] — faults cost time, never answers. Only
//! the accounted makespan changes, and only downward.

use std::collections::HashMap;
use std::rc::Rc;

use alpha_pim_sim::report::BatchReport;
use alpha_pim_sim::{host, transfer, CounterId, CounterSet, HostCrashPlan, PimSystem, SimFidelity};
use alpha_pim_sparse::partition::structural_fingerprint;
use alpha_pim_sparse::Graph;

use crate::adaptive;
pub use crate::adaptive::FastPath;
use crate::apps::bfs::Bfs;
use crate::apps::ppr::{self, Ppr};
use crate::apps::stepper::{Relax, Rule, Stepper};
use crate::apps::{
    AppOptions, AppReport, BfsResult, KernelPolicy, MvEngine, PprOptions, PprResult, SsspResult,
};
use crate::error::AlphaPimError;
use crate::framework::AlphaPim;
use crate::kernel::{KernelKind, SpmvVariant};
use crate::recover::{self, BatchCheckpoint, CheckpointPolicy, CheckpointStore, RecoverError};
use crate::semiring::{BoolOrAnd, MinPlus, PlusTimes, Semiring};

/// Bytes per dense input-vector element (u32 levels/distances, f32 scores).
const ELEM_BYTES: u64 = 4;
/// Bytes per packed `(index, value)` frontier entry.
const PACKED_ENTRY_BYTES: u64 = 4 + ELEM_BYTES;

/// One query admitted to the serving queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Breadth-first search from `source`.
    Bfs {
        /// Start vertex.
        source: u32,
    },
    /// Single-source shortest paths from `source`.
    Sssp {
        /// Start vertex.
        source: u32,
    },
    /// Personalized PageRank concentrated on `source`.
    Ppr {
        /// Personalization vertex.
        source: u32,
    },
}

impl Query {
    fn app_kind(self) -> AppKind {
        match self {
            Query::Bfs { .. } => AppKind::Bfs,
            Query::Sssp { .. } => AppKind::Sssp,
            Query::Ppr { .. } => AppKind::Ppr,
        }
    }

    fn source(self) -> u32 {
        match self {
            Query::Bfs { source } | Query::Sssp { source } | Query::Ppr { source } => source,
        }
    }
}

/// One query's answer, carrying its full standalone [`AppReport`].
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// Answer to a [`Query::Bfs`].
    Bfs(BfsResult),
    /// Answer to a [`Query::Sssp`].
    Sssp(SsspResult),
    /// Answer to a [`Query::Ppr`].
    Ppr(PprResult),
}

impl QueryResult {
    /// The per-iteration performance record of this query.
    pub fn report(&self) -> &AppReport {
        match self {
            QueryResult::Bfs(r) => &r.report,
            QueryResult::Sssp(r) => &r.report,
            QueryResult::Ppr(r) => &r.report,
        }
    }

    /// Whether `other` answers the same kind of query with bit-identical
    /// values. PPR scores compare by bit pattern, so `-0.0` differs from
    /// `0.0` and a NaN matches itself.
    pub fn same_values(&self, other: &QueryResult) -> bool {
        match (self, other) {
            (QueryResult::Bfs(a), QueryResult::Bfs(b)) => a.levels == b.levels,
            (QueryResult::Sssp(a), QueryResult::Sssp(b)) => a.distances == b.distances,
            (QueryResult::Ppr(a), QueryResult::Ppr(b)) => {
                a.scores.len() == b.scores.len()
                    && a.scores.iter().zip(&b.scores).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }

    fn app_kind(&self) -> AppKind {
        match self {
            QueryResult::Bfs(_) => AppKind::Bfs,
            QueryResult::Sssp(_) => AppKind::Sssp,
            QueryResult::Ppr(_) => AppKind::Ppr,
        }
    }
}

/// Serving-engine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Queries executed together per batch (≥ 1; 0 is clamped to 1).
    pub batch_size: u32,
    /// Prepared-kernel cache entries kept before LRU eviction (≥ 1; 0 is
    /// clamped to 1).
    pub cache_capacity: usize,
    /// Byte budget of the prepared-kernel cache — the MRAM-budget analogue
    /// that keeps multi-graph hosting bounded. Entries are LRU-evicted
    /// until the estimated resident bytes (matrix entries + two dense
    /// work vectors per prepared engine) fit; the most recently prepared
    /// engine always stays resident so a single oversized graph still
    /// serves (it just monopolizes the cache). `u64::MAX` (the default)
    /// disables the byte cap, leaving only the entry cap.
    pub cache_budget_bytes: u64,
    /// Application options every query runs under.
    pub options: AppOptions,
    /// PPR-specific parameters for [`Query::Ppr`] queries.
    pub ppr: PprOptions,
    /// When batches write crash-recovery snapshots. `Disabled` (the
    /// default) makes the executor byte-identical to an engine without the
    /// recovery layer.
    pub checkpoint: CheckpointPolicy,
    /// Per-query cycle deadline: a query whose accumulated kernel cycles
    /// exceed this budget after a superstep is shed — finished early with
    /// its report's `degraded` flag set and a `serve.shed` count, never a
    /// panic. `None` disables shedding.
    pub deadline_cycles: Option<u64>,
    /// How supersteps are timed: cycle replay (exact, the default) or the
    /// closed-form analytic model (orders of magnitude faster, calibrated
    /// to ≤ 5 % makespan error). See [`FastPath`] for the dispatch rules;
    /// result values and traffic counters are identical on both paths.
    pub fast_path: FastPath,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_size: 16,
            cache_capacity: 4,
            cache_budget_bytes: u64::MAX,
            options: AppOptions::default(),
            ppr: PprOptions::default(),
            checkpoint: CheckpointPolicy::default(),
            deadline_cycles: None,
            fast_path: FastPath::default(),
        }
    }
}

/// The application a query runs; its discriminant is the application tag
/// of every checkpoint record (queries, live steppers, journaled results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppKind {
    Bfs = 0,
    Sssp = 1,
    Ppr = 2,
}

/// What identifies a prepared, MRAM-resident matrix: the graph's exact
/// structure and weights, the application's lifting, the DPU count, and
/// every policy knob that changes partitioning or kernel choice.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheKey {
    graph_fp: u64,
    app: AppKind,
    dpus: u32,
    policy_bits: u64,
    threshold_bits: u64,
}

#[derive(Clone)]
enum CachedEngine {
    Bfs(Rc<MvEngine<BoolOrAnd>>),
    Sssp(Rc<MvEngine<MinPlus>>),
    Ppr(Rc<MvEngine<PlusTimes>>),
}

struct CacheEntry {
    key: CacheKey,
    engine: CachedEngine,
    last_used: u64,
    /// Estimated resident footprint of the prepared engine (matrix
    /// entries in COO layout plus two dense per-vertex work vectors),
    /// charged against [`ServeConfig::cache_budget_bytes`].
    bytes: u64,
}

/// Encodes every policy field that affects the prepared kernels into a
/// stable bit pattern for the cache key.
fn policy_bits(options: &AppOptions) -> u64 {
    let (tag, payload) = match options.policy {
        KernelPolicy::SpmvOnly(v) => (1u64, v as u64),
        KernelPolicy::SpmspvOnly(v) => (2, v as u64),
        KernelPolicy::FixedThreshold(t) => (3, t.to_bits()),
        KernelPolicy::Adaptive => (4, 0),
    };
    (tag << 60)
        ^ (payload.rotate_left(16))
        ^ ((options.spmv_variant as u64) << 8)
        ^ (options.spmspv_variant as u64)
}

/// The batched multi-query serving engine. Wraps an [`AlphaPim`] engine
/// with a partition cache and the shared-transfer batch executor.
///
/// # Example
///
/// ```
/// use alpha_pim::serve::{Query, ServeConfig, ServeEngine};
/// use alpha_pim::AlphaPim;
/// use alpha_pim_sim::{PimConfig, SimFidelity};
/// use alpha_pim_sparse::{gen, Graph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = AlphaPim::new(PimConfig {
///     num_dpus: 8,
///     fidelity: SimFidelity::Full,
///     ..Default::default()
/// })?;
/// let graph = Graph::from_coo(gen::erdos_renyi(200, 1500, 42)?).with_random_weights(9);
/// let mut serve = ServeEngine::new(&engine, ServeConfig::default());
/// let queries = [Query::Bfs { source: 0 }, Query::Sssp { source: 3 }, Query::Bfs { source: 7 }];
/// let (results, batch) = serve.run_batch(&graph, &queries)?;
/// assert_eq!(results.len(), 3);
/// assert!(batch.batched_seconds < batch.seq_seconds);
/// # Ok(())
/// # }
/// ```
pub struct ServeEngine<'a> {
    engine: &'a AlphaPim,
    config: ServeConfig,
    cache: Vec<CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    resident_bytes: u64,
    evictions: u64,
    evicted_bytes: u64,
    /// The machine kernels are prepared, stepped and timed on: the
    /// engine's system without the quarantined DPUs, under
    /// [`SimFidelity::Analytic`] when the fast path is active. `None` under
    /// total quarantine: batches complete by shedding their queries (done,
    /// degraded, partial answers retained) instead of executing supersteps
    /// — graceful degradation, never a panic.
    machine: Option<PimSystem>,
    /// Physical DPU ids currently quarantined (sorted, deduplicated).
    quarantine: Vec<u32>,
}

impl<'a> ServeEngine<'a> {
    /// Creates a serving engine over `engine`'s PIM system and classifier.
    /// Zero `batch_size`/`cache_capacity` are clamped to 1 — a serving
    /// layer degrades gracefully instead of panicking on a bad knob.
    ///
    /// When [`ServeConfig::fast_path`] and the engine's observability
    /// level select the analytic fast path (see
    /// [`adaptive::use_analytic_timing`]), supersteps are timed by the
    /// closed-form model on an analytic copy of the system; otherwise they
    /// replay cycle-level traces exactly as before.
    pub fn new(engine: &'a AlphaPim, config: ServeConfig) -> Self {
        let config = ServeConfig {
            batch_size: config.batch_size.max(1),
            cache_capacity: config.cache_capacity.max(1),
            ..config
        };
        ServeEngine {
            engine,
            config,
            cache: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            resident_bytes: 0,
            evictions: 0,
            evicted_bytes: 0,
            machine: build_machine(engine, config.fast_path, &[]),
            quarantine: Vec::new(),
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Whether supersteps run on the analytic fast path (the requested
    /// [`FastPath`] after observability gating).
    pub fn fast_path_active(&self) -> bool {
        self.machine.is_some()
            && adaptive::use_analytic_timing(self.config.fast_path, self.engine.system().config())
    }

    /// The physical DPUs currently quarantined (sorted, deduplicated).
    pub fn quarantine(&self) -> &[u32] {
        &self.quarantine
    }

    /// Whether every DPU is quarantined. Batches still complete: each
    /// query is shed at admission (done, degraded, partial answer) so the
    /// serving surface degrades instead of panicking.
    pub fn total_quarantine(&self) -> bool {
        self.machine.is_none()
    }

    /// Replaces the quarantine set with the given *physical* DPU ids and
    /// re-plans: subsequent batches prepare their kernels against a
    /// contiguous machine that excludes the quarantined DPUs, while
    /// [`alpha_pim_sim::PimConfig::dpu_remap`] keeps every survivor's
    /// seeded fault fate. Prepared kernels for the old machine stay cached
    /// under their own keys (the key carries the DPU count), so lifting a
    /// quarantine restores cache hits instead of re-preparing.
    ///
    /// Quarantining every DPU is not an error: the engine enters total
    /// quarantine and sheds queries instead of executing them.
    pub fn set_quarantine(&mut self, dpus: &[u32]) {
        let mut q = dpus.to_vec();
        q.sort_unstable();
        q.dedup();
        if q == self.quarantine {
            return;
        }
        self.machine = build_machine(self.engine, self.config.fast_path, &q);
        self.quarantine = q;
    }

    /// The machine queries run on.
    ///
    /// # Errors
    ///
    /// [`AlphaPimError::Config`] under total quarantine.
    pub(crate) fn machine(&self) -> Result<&PimSystem, AlphaPimError> {
        self.machine
            .as_ref()
            .ok_or_else(|| AlphaPimError::Config("every DPU is quarantined".into()))
    }

    /// The machine kernels are prepared for: the serving machine, or the
    /// engine's own system under total quarantine, where prepared kernels
    /// only seed the shed queries' partial answers.
    fn plan_system(&self) -> &PimSystem {
        self.machine.as_ref().unwrap_or_else(|| self.engine.system())
    }

    /// Lifetime partition-cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime partition-cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    /// Prepared engines currently resident in the cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Estimated bytes currently resident in the prepared-kernel cache.
    pub fn cache_resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Lifetime cache evictions (entry cap or byte budget).
    pub fn cache_evictions(&self) -> u64 {
        self.evictions
    }

    /// Lifetime bytes released by cache evictions.
    pub fn cache_evicted_bytes(&self) -> u64 {
        self.evicted_bytes
    }

    /// Evicts every cached engine prepared for the graph fingerprinted
    /// `graph_fp` — the epoch-invalidation hook of the delta layer: when a
    /// mutation batch advances a graph's fingerprint, its stale prepared
    /// kernels must leave the cache exactly once, releasing their bytes
    /// exactly once. Engines for other graphs (and the mutated graph's new
    /// epoch, once prepared) stay resident. Returns `(entries, bytes)`
    /// evicted; both also land in the engine's lifetime eviction counters.
    ///
    /// Callers that report per-run counter deltas (the delta/service
    /// layers) must add the returned amounts to their own ledgers: batch
    /// runs only diff the eviction counters across their own cache lookups.
    pub fn invalidate_graph(&mut self, graph_fp: u64) -> (u64, u64) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        self.cache.retain(|e| {
            if e.key.graph_fp == graph_fp {
                entries += 1;
                bytes = bytes.saturating_add(e.bytes);
                false
            } else {
                true
            }
        });
        self.resident_bytes = self.resident_bytes.saturating_sub(bytes);
        self.evictions += entries;
        self.evicted_bytes = self.evicted_bytes.saturating_add(bytes);
        (entries, bytes)
    }

    /// Serves a whole query trace: splits `queries` into batches of
    /// [`ServeConfig::batch_size`] and executes each with [`Self::run_batch`].
    /// Results are returned in query order alongside one [`BatchReport`]
    /// per batch.
    ///
    /// # Errors
    ///
    /// Propagates source-validation, capacity, and kernel errors.
    pub fn serve(
        &mut self,
        graph: &Graph,
        queries: &[Query],
    ) -> Result<(Vec<QueryResult>, Vec<BatchReport>), AlphaPimError> {
        let mut results = Vec::with_capacity(queries.len());
        let mut batches = Vec::new();
        for chunk in queries.chunks(self.config.batch_size as usize) {
            let (rs, batch) = self.run_batch(graph, chunk)?;
            results.extend(rs);
            batches.push(batch);
        }
        Ok((results, batches))
    }

    /// Executes one batch of queries against `graph`, sharing one packed
    /// host→DPU transfer per superstep across every live query.
    ///
    /// Answers and per-query [`AppReport`]s are bit-identical to running
    /// each query alone; the returned [`BatchReport`] additionally accounts
    /// the batch's amortized makespan and what batching saved. With
    /// [`ServeConfig::checkpoint`] enabled, in-memory snapshots are taken at
    /// the configured boundaries and their overhead lands in the `ckpt.*`
    /// counters; use [`Self::run_batch_resilient`] to persist them.
    ///
    /// # Errors
    ///
    /// Propagates source-validation, capacity, and kernel errors.
    pub fn run_batch(
        &mut self,
        graph: &Graph,
        queries: &[Query],
    ) -> Result<(Vec<QueryResult>, BatchReport), AlphaPimError> {
        let mut run = self.fresh_run(graph, queries, &[], 0)?;
        self.execute(&mut run, None, None)?;
        Ok(finish_run(run))
    }

    /// [`Self::run_batch`] with the full crash-recovery surface: a batch
    /// `tag` recorded in every snapshot, an optional [`HostCrashPlan`]
    /// (the deterministic host-death injector — the run stops dead at the
    /// planned superstep boundary and returns what a restarted process
    /// would find), and an optional [`CheckpointStore`] that persists
    /// snapshots and the write-ahead journal to disk.
    ///
    /// With a crash plan or an enabled [`ServeConfig::checkpoint`] policy,
    /// an initial snapshot is taken before the first superstep so any
    /// crash — even at boundary 0 — leaves something to resume from.
    ///
    /// # Errors
    ///
    /// Propagates source-validation, capacity, kernel, and checkpoint-IO
    /// errors. A planned crash is not an error: it returns
    /// [`BatchOutcome::Crashed`].
    pub fn run_batch_resilient(
        &mut self,
        graph: &Graph,
        queries: &[Query],
        tag: u64,
        crash: Option<HostCrashPlan>,
        store: Option<&CheckpointStore>,
    ) -> Result<BatchOutcome, AlphaPimError> {
        self.run_batch_budgeted(graph, queries, &[], tag, crash, store)
    }

    /// [`Self::run_batch_resilient`] with per-query deadline overrides: the
    /// service front-end debits each admitted query's budget by its queue
    /// wait and passes the remainder here, so queue time and execution time
    /// share one deadline. `deadlines[i]`, when present, replaces
    /// [`ServeConfig::deadline_cycles`] for query `i`; missing or `None`
    /// entries fall back to the config-wide budget. The overrides ride in
    /// every snapshot, so a resumed batch sheds exactly like the
    /// uninterrupted one.
    ///
    /// # Errors
    ///
    /// As [`Self::run_batch_resilient`].
    pub(crate) fn run_batch_budgeted(
        &mut self,
        graph: &Graph,
        queries: &[Query],
        deadlines: &[Option<u64>],
        tag: u64,
        crash: Option<HostCrashPlan>,
        store: Option<&CheckpointStore>,
    ) -> Result<BatchOutcome, AlphaPimError> {
        let run = self.fresh_run(graph, queries, deadlines, tag)?;
        self.outcome(run, crash, store)
    }

    /// Resumes an interrupted batch from `checkpoint` and replays only the
    /// remainder: journaled queries keep their recorded results, live
    /// steppers continue from their snapshotted supersteps. Driven to
    /// completion, every result, report, and counter is bit-identical to
    /// the uninterrupted run — except `ckpt.restores`, which counts this
    /// resume.
    ///
    /// The checkpoint is validated (checksum, version) and cross-checked
    /// against this engine's world (graph fingerprint, DPU count, kernel
    /// policy, switch threshold) before anything is deserialized into
    /// steppers; a second `crash` plan may be injected to test repeated
    /// failures.
    ///
    /// # Errors
    ///
    /// [`AlphaPimError::Recover`] on validation or mismatch failures, plus
    /// the usual kernel errors while replaying.
    pub fn resume_batch(
        &mut self,
        graph: &Graph,
        checkpoint: &BatchCheckpoint,
        crash: Option<HostCrashPlan>,
        store: Option<&CheckpointStore>,
    ) -> Result<BatchOutcome, AlphaPimError> {
        let run = self.restore_run(graph, checkpoint)?;
        self.outcome(run, crash, store)
    }

    /// Executes `run` and reports how it ended: completed, or dead at the
    /// crash plan's boundary with its latest snapshot and journal.
    fn outcome(
        &self,
        mut run: BatchRun,
        crash: Option<HostCrashPlan>,
        store: Option<&CheckpointStore>,
    ) -> Result<BatchOutcome, AlphaPimError> {
        Ok(match self.execute(&mut run, crash, store)? {
            Some(superstep) => BatchOutcome::Crashed {
                superstep,
                checkpoint: BatchCheckpoint {
                    snapshot: run.latest_snapshot.unwrap_or_default(),
                    journal: run.journal,
                },
            },
            None => {
                let (results, report) = finish_run(run);
                BatchOutcome::Completed(results, report)
            }
        })
    }

    /// Builds the in-flight state of a fresh batch: one live stepper per
    /// query plus the batch-local counter/amortization accumulators.
    fn fresh_run(
        &mut self,
        graph: &Graph,
        queries: &[Query],
        deadlines: &[Option<u64>],
        tag: u64,
    ) -> Result<BatchRun, AlphaPimError> {
        let dpus = self.plan_system().num_dpus();
        let graph_fp = structural_fingerprint(graph.adjacency(), u64::from);
        let threshold = self.engine.switch_threshold(graph);
        let hits_before = self.hits;
        let misses_before = self.misses;
        let evictions_before = self.evictions;
        let evicted_bytes_before = self.evicted_bytes;
        let mut slots = Vec::with_capacity(queries.len());
        for q in queries {
            let engine = self.cached_engine(graph, graph_fp, q.app_kind())?;
            slots.push(Slot::Live(engine.start(q.source(), &self.config)?));
        }
        let mut counters = CounterSet::new();
        counters.add(CounterId::ServeCacheHits, self.hits - hits_before);
        counters.add(CounterId::ServeCacheMisses, self.misses - misses_before);
        counters.add(CounterId::ServeCacheEvictions, self.evictions - evictions_before);
        counters.add(CounterId::ServeEvictedBytes, self.evicted_bytes - evicted_bytes_before);
        // Per-query overrides are normalized to one entry per query so the
        // snapshot layout is a pure function of the query count.
        let mut deadlines = deadlines.to_vec();
        deadlines.resize(queries.len(), None);
        Ok(BatchRun {
            tag,
            graph_fp,
            dpus,
            quarantine: self.quarantine.clone(),
            policy_bits: policy_bits(&self.config.options),
            threshold_bits: threshold.to_bits(),
            queries: queries.to_vec(),
            deadlines,
            slots,
            counters,
            savings: 0.0,
            pack_cost: 0.0,
            supersteps: 0,
            journal: Vec::new(),
            latest_snapshot: None,
            resumed: false,
        })
    }

    /// Rebuilds the in-flight state of an interrupted batch from a sealed
    /// snapshot and its write-ahead journal.
    fn restore_run(
        &mut self,
        graph: &Graph,
        checkpoint: &BatchCheckpoint,
    ) -> Result<BatchRun, AlphaPimError> {
        let dpus_now = self.plan_system().num_dpus();
        let payload = recover::unseal(&checkpoint.snapshot)?;
        let mut d = recover::Dec::new(payload);
        let tag = d.u64()?;
        let graph_fp = d.u64()?;
        let dpus = d.u32()?;
        let quarantine = recover::read_vec(&mut d)?;
        let pbits = d.u64()?;
        let tbits = d.u64()?;
        let want_fp = structural_fingerprint(graph.adjacency(), u64::from);
        if graph_fp != want_fp {
            return Err(RecoverError::Mismatch(format!(
                "checkpoint graph fingerprint {graph_fp:#018x} != engine graph {want_fp:#018x}"
            ))
            .into());
        }
        if dpus != dpus_now {
            return Err(RecoverError::Mismatch(format!(
                "checkpoint taken with {dpus} DPUs, engine has {dpus_now}"
            ))
            .into());
        }
        if quarantine != self.quarantine {
            return Err(RecoverError::Mismatch(format!(
                "checkpoint taken with {} quarantined DPUs, engine has {}",
                quarantine.len(),
                self.quarantine.len()
            ))
            .into());
        }
        if pbits != policy_bits(&self.config.options) {
            return Err(RecoverError::Mismatch(
                "checkpoint taken under a different kernel policy".into(),
            )
            .into());
        }
        let threshold = self.engine.switch_threshold(graph);
        if tbits != threshold.to_bits() {
            return Err(RecoverError::Mismatch(
                "checkpoint taken under a different switch threshold".into(),
            )
            .into());
        }
        let n_queries = d.seq_len(5, "queries")?;
        let mut queries = Vec::with_capacity(n_queries);
        for _ in 0..n_queries {
            queries.push(read_query(&mut d)?);
        }
        let mut deadlines = Vec::with_capacity(n_queries);
        for _ in 0..n_queries {
            let present = d.u8()?;
            let cycles = d.u64()?;
            deadlines.push(match present {
                0 => None,
                1 => Some(cycles),
                t => {
                    return Err(RecoverError::Malformed(format!(
                        "unknown deadline presence tag {t}"
                    ))
                    .into())
                }
            });
        }
        let supersteps = d.u32()?;
        let savings = d.f64()?;
        let pack_cost = d.f64()?;
        let mut counters = recover::read_slotted_counters(&mut d, &CACHE_SLOTS, "batch cache")?;

        // The journal maps completed query indices to their recorded
        // results; a torn tail record (crash mid-append) is dropped by
        // `unseal_stream`, and replayed duplicates simply overwrite with
        // bit-identical values.
        let mut journaled: HashMap<u32, QueryResult> = HashMap::new();
        for rec in recover::unseal_stream(&checkpoint.journal)? {
            let mut jd = recover::Dec::new(rec);
            let idx = jd.u32()?;
            let result = read_query_result(&mut jd)?;
            jd.finish()?;
            journaled.insert(idx, result);
        }

        let mut slots = Vec::with_capacity(n_queries);
        for (i, q) in queries.iter().enumerate() {
            match d.u8()? {
                0 => {
                    let r = journaled.remove(&(i as u32)).ok_or_else(|| {
                        RecoverError::Malformed(format!(
                            "snapshot marks query {i} done but its journal record is missing"
                        ))
                    })?;
                    if r.app_kind() != q.app_kind() {
                        return Err(RecoverError::Malformed(format!(
                            "journal record for query {i} has the wrong application kind"
                        ))
                        .into());
                    }
                    slots.push(Slot::Done(r));
                }
                1 => {
                    let engine = self.cached_engine(graph, graph_fp, q.app_kind())?;
                    let tag = d.u8()?;
                    if tag != q.app_kind() as u8 {
                        return Err(RecoverError::Malformed(format!(
                            "stepper tag {tag} does not match the query's application kind"
                        ))
                        .into());
                    }
                    slots.push(Slot::Live(engine.restore(&mut d)?));
                }
                t => {
                    return Err(
                        RecoverError::Malformed(format!("unknown slot tag {t}")).into()
                    )
                }
            }
        }
        d.finish()?;
        counters.add(CounterId::CkptRestores, 1);
        Ok(BatchRun {
            tag,
            graph_fp,
            dpus,
            quarantine,
            policy_bits: pbits,
            threshold_bits: tbits,
            queries,
            deadlines,
            slots,
            counters,
            savings,
            pack_cost,
            supersteps,
            journal: checkpoint.journal.clone(),
            latest_snapshot: Some(checkpoint.snapshot.clone()),
            resumed: true,
        })
    }

    /// The batched superstep loop shared by fresh and resumed batches:
    /// every live query advances together; the amortization model credits
    /// the transfers the shared batch elides and charges the host packing
    /// pass once, up front (the packed buffers double-buffer with the DPU
    /// kernels afterwards). Returns `Some(boundary)` when a planned host
    /// crash fired there.
    fn execute(
        &self,
        run: &mut BatchRun,
        crash: Option<HostCrashPlan>,
        store: Option<&CheckpointStore>,
    ) -> Result<Option<u32>, AlphaPimError> {
        // A lone query has no shared transfer to pack into: it runs (and
        // costs) exactly its standalone superstep sequence.
        let shared = run.queries.len() > 1;
        // A crash plan arms checkpointing even under a Disabled policy, so
        // there is always at least the initial snapshot to restart from.
        let armed = self.config.checkpoint.is_enabled() || crash.is_some();

        // Total quarantine: no machine remains to execute on. Every live
        // query is shed — done, degraded, its partial (initial-state)
        // answer retained — so the batch completes without a superstep.
        if self.machine.is_none() {
            for slot in &mut run.slots {
                if let Slot::Live(s) = slot {
                    s.shed();
                    run.counters.add(CounterId::ServeShed, 1);
                }
            }
        }
        // Queries complete on arrival settle — and journal — up front.
        for i in 0..run.slots.len() {
            let done = matches!(&run.slots[i], Slot::Live(s) if s.is_done());
            if done {
                complete_slot(run, i, armed, store)?;
            }
        }
        if armed && !run.resumed {
            take_snapshot(run, store)?;
        }
        let Some(sys) = &self.machine else { return Ok(None) };
        let tcfg = &sys.config().transfer;
        let hcfg = &sys.config().host;
        let dpus = sys.num_dpus();
        loop {
            let live: Vec<usize> = (0..run.slots.len())
                .filter(|&i| matches!(&run.slots[i], Slot::Live(_)))
                .collect();
            if live.is_empty() {
                break;
            }
            if run.supersteps == 0 && live.len() > 1 {
                for &i in &live {
                    let nnz = match &run.slots[i] {
                        Slot::Live(s) => s.frontier_nnz(),
                        Slot::Done(_) => continue,
                    };
                    run.pack_cost += host::pack_time_counted(
                        hcfg,
                        nnz,
                        PACKED_ENTRY_BYTES as u32,
                        &mut run.counters,
                    );
                }
            }
            run.savings +=
                transfer::batched_startup_savings(tcfg, live.len() as u32, &mut run.counters);
            for &i in &live {
                let Slot::Live(s) = &mut run.slots[i] else { continue };
                let nnz = s.frontier_nnz();
                s.step(sys)?;
                // Dense 1D-SpMV supersteps broadcast the full vector when
                // standalone; inside the shared batch a sparse frontier
                // ships packed instead.
                if shared {
                    if let Some(n) = s.last_step_dense_broadcast() {
                        let full = u64::from(n) * ELEM_BYTES;
                        let packed = (nnz * PACKED_ENTRY_BYTES).min(full);
                        run.savings += transfer::packed_broadcast_savings(
                            tcfg,
                            full,
                            packed,
                            dpus,
                            &mut run.counters,
                        );
                    }
                }
                let budget = run
                    .deadlines
                    .get(i)
                    .copied()
                    .flatten()
                    .or(self.config.deadline_cycles);
                if let Some(budget) = budget {
                    if !s.is_done() && s.kernel_cycles() > budget {
                        s.shed();
                        run.counters.add(CounterId::ServeShed, 1);
                    }
                }
                let finished = s.is_done();
                if finished {
                    complete_slot(run, i, armed, store)?;
                }
            }
            run.supersteps += 1;
            let boundary = run.supersteps - 1;
            if armed && self.config.checkpoint.fires(run.supersteps) {
                take_snapshot(run, store)?;
            }
            if let Some(plan) = crash {
                if plan.fires_after(u64::from(boundary)) {
                    return Ok(Some(boundary));
                }
            }
        }
        Ok(None)
    }

    /// Looks up (or prepares, caches, and LRU-evicts for) the prepared
    /// matrix engine serving `app` on `graph`.
    fn cached_engine(
        &mut self,
        graph: &Graph,
        graph_fp: u64,
        app: AppKind,
    ) -> Result<CachedEngine, AlphaPimError> {
        let threshold = self.engine.switch_threshold(graph);
        let key = CacheKey {
            graph_fp,
            app,
            dpus: self.plan_system().num_dpus(),
            policy_bits: policy_bits(&self.config.options),
            threshold_bits: threshold.to_bits(),
        };
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.cache.iter_mut().find(|e| e.key == key) {
            entry.last_used = tick;
            self.hits += 1;
            return Ok(entry.engine.clone());
        }
        self.misses += 1;
        // Preparation partitions across the quarantine-reduced machine, so
        // a re-plan after quarantining is just a cache miss here.
        let sys = self.plan_system();
        let engine = match app {
            AppKind::Bfs => {
                let matrix = graph.transposed().map(BoolOrAnd::from_weight);
                CachedEngine::Bfs(Rc::new(MvEngine::new(
                    &matrix,
                    &self.config.options,
                    threshold,
                    sys,
                )?))
            }
            AppKind::Sssp => {
                let matrix = graph.transposed().map(MinPlus::from_weight);
                CachedEngine::Sssp(Rc::new(MvEngine::new(
                    &matrix,
                    &self.config.options,
                    threshold,
                    sys,
                )?))
            }
            AppKind::Ppr => {
                let matrix = ppr::transition_transpose(graph);
                CachedEngine::Ppr(Rc::new(MvEngine::new(
                    &matrix,
                    &self.config.options,
                    threshold,
                    sys,
                )?))
            }
        };
        let bytes = engine_footprint_bytes(graph);
        // Make room: the entry cap first, then the byte budget — the
        // MRAM-budget analogue for multi-graph hosting. The entry being
        // inserted is never an eviction candidate, so one oversized graph
        // still serves (it just monopolizes the cache).
        while self.cache.len() >= self.config.cache_capacity
            || (!self.cache.is_empty()
                && self.resident_bytes.saturating_add(bytes) > self.config.cache_budget_bytes)
        {
            // Deterministic LRU: ticks are unique, so the victim is too.
            let victim = self
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(v) => {
                    let evicted = self.cache.swap_remove(v);
                    self.resident_bytes = self.resident_bytes.saturating_sub(evicted.bytes);
                    self.evictions += 1;
                    self.evicted_bytes = self.evicted_bytes.saturating_add(evicted.bytes);
                }
                None => break,
            }
        }
        self.resident_bytes = self.resident_bytes.saturating_add(bytes);
        self.cache.push(CacheEntry { key, engine: engine.clone(), last_used: tick, bytes });
        Ok(engine)
    }
}

/// The machine a serving engine runs on: `engine`'s system without the
/// `quarantine`d physical DPUs, under [`SimFidelity::Analytic`] when
/// `fast_path` applies (preparation does not depend on fidelity). `None`
/// when no DPU is left.
fn build_machine(engine: &AlphaPim, fast_path: FastPath, quarantine: &[u32]) -> Option<PimSystem> {
    let base = engine.system().config();
    let mut cfg =
        if quarantine.is_empty() { base.clone() } else { base.excluding_dpus(quarantine)? };
    if adaptive::use_analytic_timing(fast_path, base) {
        cfg.fidelity = SimFidelity::Analytic;
    }
    PimSystem::new(cfg).ok()
}

/// Estimated resident footprint of one prepared engine: every matrix
/// entry in COO layout plus two dense per-vertex work vectors (input and
/// accumulator). An estimate, not an exact allocation count — what
/// matters is that it scales with the graph so the byte budget meaningfully
/// bounds multi-graph hosting.
fn engine_footprint_bytes(graph: &Graph) -> u64 {
    let entry = u64::from(crate::kernel::layout::coo_entry_bytes(ELEM_BYTES as u32));
    (graph.adjacency().nnz() as u64)
        .saturating_mul(entry)
        .saturating_add(2 * u64::from(graph.nodes()) * ELEM_BYTES)
}

impl CachedEngine {
    /// A fresh query from `source` against this engine. The cache key pins
    /// the application, so the engine's kind is the query's.
    fn start(
        &self,
        source: u32,
        config: &ServeConfig,
    ) -> Result<Box<dyn LiveQuery>, AlphaPimError> {
        let cap = config.options.max_iterations;
        Ok(match self {
            CachedEngine::Bfs(e) => Box::new(Bfs::from_source(Rc::clone(e), source, cap)?),
            CachedEngine::Sssp(e) => Box::new(Relax::from_source(Rc::clone(e), source, cap)?),
            CachedEngine::Ppr(e) => Box::new(Ppr::from_source(Rc::clone(e), source, &config.ppr)?),
        })
    }

    /// Rebuilds a snapshotted query against this engine.
    fn restore(&self, d: &mut recover::Dec) -> Result<Box<dyn LiveQuery>, RecoverError> {
        Ok(match self {
            CachedEngine::Bfs(e) => Box::new(Stepper::<Bfs>::restore(Rc::clone(e), d)?),
            CachedEngine::Sssp(e) => Box::new(Stepper::<Relax<_>>::restore(Rc::clone(e), d)?),
            CachedEngine::Ppr(e) => Box::new(Stepper::<Ppr>::restore(Rc::clone(e), d)?),
        })
    }
}

/// A served application's host rule: how its state reads as an answer.
trait Served: Rule {
    fn answer(&self, report: AppReport) -> QueryResult;
}

impl Served for Bfs {
    fn answer(&self, report: AppReport) -> QueryResult {
        QueryResult::Bfs(BfsResult { levels: self.levels.clone(), report })
    }
}

impl Served for Relax<MinPlus> {
    fn answer(&self, report: AppReport) -> QueryResult {
        QueryResult::Sssp(SsspResult { distances: self.values.clone(), report })
    }
}

impl Served for Ppr {
    fn answer(&self, report: AppReport) -> QueryResult {
        QueryResult::Ppr(PprResult { scores: self.scores.clone(), report })
    }
}

/// One live query of any application: the batch executor's handle on a
/// [`Stepper`].
trait LiveQuery {
    fn is_done(&self) -> bool;
    fn frontier_nnz(&self) -> u64;
    fn n(&self) -> u32;
    fn report(&self) -> &AppReport;
    fn step(&mut self, sys: &PimSystem) -> Result<bool, AlphaPimError>;
    /// Sheds the query: done, `degraded`, partial answer retained.
    fn shed(&mut self);
    /// The answer so far, cloned without consuming the query.
    fn result(&self) -> QueryResult;
    fn snapshot(&self, out: &mut Vec<u8>);

    /// When the just-executed superstep loaded its input as a full dense
    /// broadcast (1D SpMV), the vector length — the packing opportunity.
    /// `None` for 2D/SpMSpV supersteps, whose loads are already segmented
    /// or compressed.
    fn last_step_dense_broadcast(&self) -> Option<u32> {
        let stats = self.report().iterations.last()?;
        match stats.kernel {
            KernelKind::Spmv(SpmvVariant::Coo1d)
            | KernelKind::Spmv(SpmvVariant::CsrRow1d)
            | KernelKind::Spmv(SpmvVariant::CsrNnz1d) => Some(self.n()),
            _ => None,
        }
    }

    /// Kernel cycles this query has accumulated across its supersteps —
    /// the quantity the per-query deadline budget is charged against.
    fn kernel_cycles(&self) -> u64 {
        self.report().iterations.iter().map(|s| s.kernel_report.max_cycles).sum()
    }
}

impl<R: Served> LiveQuery for Stepper<R> {
    fn is_done(&self) -> bool {
        Stepper::is_done(self)
    }

    fn frontier_nnz(&self) -> u64 {
        Stepper::frontier_nnz(self)
    }

    fn n(&self) -> u32 {
        Stepper::n(self)
    }

    fn report(&self) -> &AppReport {
        Stepper::report(self)
    }

    fn step(&mut self, sys: &PimSystem) -> Result<bool, AlphaPimError> {
        Stepper::step(self, sys)
    }

    fn shed(&mut self) {
        Stepper::shed(self)
    }

    fn result(&self) -> QueryResult {
        self.rule().answer(self.report().clone())
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        Stepper::snapshot(self, out)
    }
}

/// One query's seat in a batch: still stepping, or finished with its
/// (possibly journaled) result.
enum Slot {
    Live(Box<dyn LiveQuery>),
    Done(QueryResult),
}

/// The in-flight state of one batch — everything [`ServeEngine::execute`]
/// needs to run, snapshot, crash, and resume it.
struct BatchRun {
    tag: u64,
    graph_fp: u64,
    dpus: u32,
    /// The quarantine set the batch ran under (world-checked on resume).
    quarantine: Vec<u32>,
    policy_bits: u64,
    threshold_bits: u64,
    queries: Vec<Query>,
    /// Per-query deadline overrides (one per query; `None` falls back to
    /// [`ServeConfig::deadline_cycles`]).
    deadlines: Vec<Option<u64>>,
    slots: Vec<Slot>,
    counters: CounterSet,
    savings: f64,
    pack_cost: f64,
    supersteps: u32,
    /// In-memory mirror of the write-ahead journal (sealed records).
    journal: Vec<u8>,
    /// The latest sealed snapshot, if checkpointing is armed.
    latest_snapshot: Option<Vec<u8>>,
    /// Resumed runs restore the initial snapshot's accounting instead of
    /// re-taking it.
    resumed: bool,
}

/// How a resilient batch ended: completed with results, or dead at a
/// planned superstep boundary with its durable state in hand.
///
/// One value exists per batch, so the size gap between the variants is
/// irrelevant in practice.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum BatchOutcome {
    /// The batch ran to completion.
    Completed(Vec<QueryResult>, BatchReport),
    /// A planned host crash fired after `superstep`; `checkpoint` is what a
    /// restarted process would find (pass it to
    /// [`ServeEngine::resume_batch`]).
    Crashed {
        /// The 0-based superstep boundary the crash fired at.
        superstep: u32,
        /// The latest snapshot plus the write-ahead journal.
        checkpoint: BatchCheckpoint,
    },
}

/// Finalizes a completed run into results (query order) and its report.
fn finish_run(run: BatchRun) -> (Vec<QueryResult>, BatchReport) {
    let queries = run.queries.len() as u32;
    let results: Vec<QueryResult> = run
        .slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(r) => r,
            Slot::Live(s) => s.result(),
        })
        .collect();
    let seq_seconds: f64 = results.iter().map(|r| r.report().total_seconds()).sum();
    let degraded = results.iter().any(|r| r.report().degraded);
    let batched_seconds = seq_seconds - run.savings + run.pack_cost;
    let batch = BatchReport {
        queries,
        supersteps: run.supersteps,
        seq_seconds,
        batched_seconds,
        broadcast_bytes_saved: run.counters.get(CounterId::ServeBroadcastSavedBytes),
        transfer_batches_saved: run.counters.get(CounterId::ServeBatchesSaved),
        cache_hits: run.counters.get(CounterId::ServeCacheHits),
        cache_misses: run.counters.get(CounterId::ServeCacheMisses),
        counters: run.counters,
        degraded,
    };
    (results, batch)
}

/// Flips slot `i` to `Done`, journaling the result first when checkpointing
/// is armed (write-ahead: the record is flushed before any snapshot can
/// mark this query done).
fn complete_slot(
    run: &mut BatchRun,
    i: usize,
    armed: bool,
    store: Option<&CheckpointStore>,
) -> Result<(), AlphaPimError> {
    let result = match &run.slots[i] {
        Slot::Live(s) => s.result(),
        Slot::Done(_) => return Ok(()),
    };
    if armed {
        let mut payload = Vec::new();
        recover::put_u32(&mut payload, i as u32);
        put_query_result(&mut payload, &result);
        let sealed = recover::seal(&payload);
        run.counters.add(CounterId::CkptBytes, sealed.len() as u64);
        if let Some(store) = store {
            store.append_journal(&sealed)?;
        }
        run.journal.extend_from_slice(&sealed);
    }
    run.slots[i] = Slot::Done(result);
    Ok(())
}

/// Takes a snapshot of `run` and installs it as the latest (persisting it
/// when a store is given).
///
/// The snapshot embeds its own accounting: `ckpt.snapshots`/`ckpt.bytes`
/// are bumped *first*, and because every payload field is fixed-width the
/// re-encoded payload has the same length as the probe used to learn it.
/// A resumed run therefore restores counters that already include this
/// snapshot, keeping resumed and uninterrupted ledgers bit-identical.
fn take_snapshot(run: &mut BatchRun, store: Option<&CheckpointStore>) -> Result<(), AlphaPimError> {
    run.counters.add(CounterId::CkptSnapshots, 1);
    let sealed_len = encode_snapshot(run).len() + recover::HEADER_LEN;
    run.counters.add(CounterId::CkptBytes, sealed_len as u64);
    let sealed = recover::seal(&encode_snapshot(run));
    debug_assert_eq!(sealed.len(), sealed_len, "snapshot length must be value-independent");
    if let Some(store) = store {
        store.write_snapshot(&sealed)?;
    }
    run.latest_snapshot = Some(sealed);
    Ok(())
}

/// The batch's cache hits and misses, which layout v3 writes ahead of its
/// counter set.
const CACHE_SLOTS: [CounterId; 2] = [CounterId::ServeCacheHits, CounterId::ServeCacheMisses];

fn encode_snapshot(run: &BatchRun) -> Vec<u8> {
    let mut out = Vec::new();
    recover::put_u64(&mut out, run.tag);
    recover::put_u64(&mut out, run.graph_fp);
    recover::put_u32(&mut out, run.dpus);
    recover::put_slice(&mut out, &run.quarantine);
    recover::put_u64(&mut out, run.policy_bits);
    recover::put_u64(&mut out, run.threshold_bits);
    recover::put_u64(&mut out, run.queries.len() as u64);
    for q in &run.queries {
        put_query(&mut out, *q);
    }
    for dl in &run.deadlines {
        // Fixed width regardless of presence, keeping snapshot length a
        // pure function of the query count.
        recover::put_u8(&mut out, u8::from(dl.is_some()));
        recover::put_u64(&mut out, dl.unwrap_or(0));
    }
    recover::put_u32(&mut out, run.supersteps);
    recover::put_f64(&mut out, run.savings);
    recover::put_f64(&mut out, run.pack_cost);
    recover::put_slotted_counters(&mut out, &run.counters, &CACHE_SLOTS);
    for (slot, q) in run.slots.iter().zip(&run.queries) {
        match slot {
            // Done slots carry no payload: the write-ahead journal holds
            // their results, keyed by query index.
            Slot::Done(_) => recover::put_u8(&mut out, 0),
            Slot::Live(s) => {
                recover::put_u8(&mut out, 1);
                recover::put_u8(&mut out, q.app_kind() as u8);
                s.snapshot(&mut out);
            }
        }
    }
    out
}

fn put_query(out: &mut Vec<u8>, q: Query) {
    recover::put_u8(out, q.app_kind() as u8);
    recover::put_u32(out, q.source());
}

fn read_query(d: &mut recover::Dec) -> Result<Query, RecoverError> {
    let tag = d.u8()?;
    let source = d.u32()?;
    match tag {
        0 => Ok(Query::Bfs { source }),
        1 => Ok(Query::Sssp { source }),
        2 => Ok(Query::Ppr { source }),
        t => Err(RecoverError::Malformed(format!("unknown query tag {t}"))),
    }
}

fn put_query_result(out: &mut Vec<u8>, r: &QueryResult) {
    recover::put_u8(out, r.app_kind() as u8);
    match r {
        QueryResult::Bfs(b) => recover::put_slice(out, &b.levels),
        QueryResult::Sssp(s) => recover::put_slice(out, &s.distances),
        QueryResult::Ppr(p) => recover::put_slice(out, &p.scores),
    }
    recover::put_app_report(out, r.report());
}

fn read_query_result(d: &mut recover::Dec) -> Result<QueryResult, RecoverError> {
    Ok(match d.u8()? {
        0 => QueryResult::Bfs(BfsResult {
            levels: recover::read_vec(d)?,
            report: recover::read_app_report(d)?,
        }),
        1 => QueryResult::Sssp(SsspResult {
            distances: recover::read_vec(d)?,
            report: recover::read_app_report(d)?,
        }),
        2 => QueryResult::Ppr(PprResult {
            scores: recover::read_vec(d)?,
            report: recover::read_app_report(d)?,
        }),
        t => return Err(RecoverError::Malformed(format!("unknown result tag {t}"))),
    })
}

/// The FNV-1a64 offset basis [`fingerprint_fold`] chains start from.
pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Order-sensitive FNV-1a64 digest of a result set's answer values
/// (levels, distances, score bits) — the fingerprint the CLI, the CI smoke
/// stages, and the service-layer chaos tests compare across
/// batched/sequential/resumed runs. Reports and counters are not digested:
/// two runs match iff they computed the same answers in the same order.
pub fn fingerprint_results(results: &[QueryResult]) -> u64 {
    fingerprint_fold(FINGERPRINT_SEED, results)
}

/// Incremental form of [`fingerprint_results`]: folds `results` into a
/// running digest `h`, so a long-running service can digest each batch as
/// it completes (and drop the results) while ending at exactly
/// `fingerprint_results` of the full concatenated sequence.
pub fn fingerprint_fold(mut h: u64, results: &[QueryResult]) -> u64 {
    fn fnv(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(0x100_0000_01b3)
    }
    for r in results {
        match r {
            QueryResult::Bfs(b) => {
                h = fnv(h, 1);
                for &l in &b.levels {
                    h = fnv(h, u64::from(l));
                }
            }
            QueryResult::Sssp(s) => {
                h = fnv(h, 2);
                for &d in &s.distances {
                    h = fnv(h, u64::from(d));
                }
            }
            QueryResult::Ppr(p) => {
                h = fnv(h, 3);
                for &v in &p.scores {
                    h = fnv(h, u64::from(v.to_bits()));
                }
            }
        }
    }
    h
}

/// Generates a seeded, reproducible trace of `count` mixed queries over a
/// graph with `nodes` vertices — the workload the CLI's `serve` subcommand
/// and the CI smoke stage replay. Uses the uniform 1:1:1 BFS/SSSP/PPR mix;
/// see [`seeded_trace_weighted`] to skew it.
pub fn seeded_trace(nodes: u32, count: usize, seed: u64) -> Vec<Query> {
    seeded_trace_weighted(nodes, count, seed, [1, 1, 1])
}

/// [`seeded_trace`] with an explicit `[bfs, sssp, ppr]` weight mix: each
/// query's application is drawn proportionally to its weight. The default
/// `[1, 1, 1]` mix is bit-identical to [`seeded_trace`] (same RNG stream,
/// same draws). Degenerate weights (all zero, or an overflowing sum) fall
/// back to the uniform mix instead of panicking.
pub fn seeded_trace_weighted(
    nodes: u32,
    count: usize,
    seed: u64,
    weights: [u32; 3],
) -> Vec<Query> {
    let (weights, total) =
        match weights[0].checked_add(weights[1]).and_then(|s| s.checked_add(weights[2])) {
            Some(t) if t > 0 => (weights, t),
            _ => ([1, 1, 1], 3),
        };
    let mut rng = alpha_pim_sparse::gen::rng::SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let source = rng.u32_below(nodes.max(1));
            let draw = rng.u32_below(total);
            if draw < weights[0] {
                Query::Bfs { source }
            } else if draw < weights[0] + weights[1] {
                Query::Sssp { source }
            } else {
                Query::Ppr { source }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_pim_sim::{PimConfig, SimFidelity};
    use alpha_pim_sparse::gen;

    fn engine(dpus: u32) -> AlphaPim {
        AlphaPim::new(PimConfig {
            num_dpus: dpus,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    fn graph() -> Graph {
        Graph::from_coo(gen::erdos_renyi(120, 900, 77).unwrap()).with_random_weights(9)
    }

    #[test]
    fn same_values_compares_bit_patterns_and_kinds() {
        let report = AppReport::default;
        let ppr = |scores: Vec<f32>| QueryResult::Ppr(PprResult { scores, report: report() });
        let bfs = |levels: Vec<u32>| QueryResult::Bfs(BfsResult { levels, report: report() });
        assert!(ppr(vec![0.5, f32::NAN]).same_values(&ppr(vec![0.5, f32::NAN])));
        assert!(!ppr(vec![0.0]).same_values(&ppr(vec![-0.0])));
        assert!(!ppr(vec![0.5]).same_values(&ppr(vec![0.5, 0.5])));
        assert!(bfs(vec![0, 1]).same_values(&bfs(vec![0, 1])));
        assert!(!bfs(vec![0, 1]).same_values(&bfs(vec![0, 2])));
        assert!(!bfs(vec![]).same_values(&ppr(vec![])));
    }

    #[test]
    fn batched_answers_match_standalone_runs() {
        let engine = engine(6);
        let g = graph();
        let mut serve = ServeEngine::new(&engine, ServeConfig::default());
        let queries = [
            Query::Bfs { source: 0 },
            Query::Sssp { source: 5 },
            Query::Ppr { source: 9 },
            Query::Bfs { source: 33 },
        ];
        let (results, batch) = serve.run_batch(&g, &queries).unwrap();
        assert_eq!(batch.queries, 4);
        let bfs0 = engine.bfs(&g, 0, &AppOptions::default()).unwrap();
        let sssp5 = engine.sssp(&g, 5, &AppOptions::default()).unwrap();
        let ppr9 = engine.ppr(&g, 9, &PprOptions::default()).unwrap();
        match (&results[0], &results[1], &results[2]) {
            (QueryResult::Bfs(a), QueryResult::Sssp(b), QueryResult::Ppr(c)) => {
                assert_eq!(a.levels, bfs0.levels);
                assert_eq!(b.distances, sssp5.distances);
                assert_eq!(c.scores, ppr9.scores);
            }
            other => panic!("wrong result kinds: {other:?}"),
        }
    }

    #[test]
    fn batching_strictly_beats_sequential_makespan() {
        let engine = engine(6);
        let g = graph();
        let mut serve = ServeEngine::new(&engine, ServeConfig::default());
        let queries = seeded_trace(g.nodes(), 8, 0x5EED_5EED);
        let (_, batch) = serve.run_batch(&g, &queries).unwrap();
        assert!(
            batch.batched_seconds < batch.seq_seconds,
            "batched {} must beat sequential {}",
            batch.batched_seconds,
            batch.seq_seconds,
        );
        assert!(batch.transfer_batches_saved > 0);
    }

    #[test]
    fn single_query_batches_cost_exactly_the_standalone_run() {
        let engine = engine(6);
        let g = graph();
        let mut serve = ServeEngine::new(&engine, ServeConfig::default());
        let (_, batch) = serve.run_batch(&g, &[Query::Bfs { source: 0 }]).unwrap();
        assert_eq!(batch.batched_seconds, batch.seq_seconds);
        assert_eq!(batch.broadcast_bytes_saved, 0);
        assert_eq!(batch.transfer_batches_saved, 0);
    }

    #[test]
    fn resume_rejects_cache_slots_that_disagree_with_the_counters() {
        let engine = engine(6);
        let g = graph();
        let config = ServeConfig { checkpoint: CheckpointPolicy::EveryN(1), ..Default::default() };
        let queries =
            [Query::Bfs { source: 0 }, Query::Sssp { source: 5 }, Query::Bfs { source: 9 }];
        let crashed = ServeEngine::new(&engine, config)
            .run_batch_resilient(&g, &queries, 0, Some(HostCrashPlan::at(1)), None)
            .unwrap();
        let BatchOutcome::Crashed { checkpoint, .. } = crashed else {
            panic!("the batch must crash after superstep 1");
        };
        let BatchOutcome::Completed(_, report) =
            ServeEngine::new(&engine, config).resume_batch(&g, &checkpoint, None, None).unwrap()
        else {
            panic!("the untouched checkpoint must resume");
        };
        // The cache slots follow the tag, graph fingerprint, DPU count, the
        // empty quarantine list, policy and threshold bits, the three
        // queries and their deadlines, the superstep count and the two
        // amortization accumulators.
        let at = 8 + 8 + 4 + 8 + 8 + 8 + 8 + 3 * 5 + 3 * 9 + 4 + 8 + 8;
        let payload = recover::unseal(&checkpoint.snapshot).unwrap().to_vec();
        let slot = |i: usize| u64::from_le_bytes(payload[at + 8 * i..][..8].try_into().unwrap());
        assert_eq!((slot(0), slot(1)), (report.cache_hits, report.cache_misses));
        assert_eq!(report.cache_misses, 2, "BFS and SSSP each prepare once");
        for i in 0..2 {
            let mut bad = payload.clone();
            bad[at + 8 * i] ^= 1;
            let tampered = BatchCheckpoint { snapshot: recover::seal(&bad), ..checkpoint.clone() };
            let resumed = ServeEngine::new(&engine, config).resume_batch(&g, &tampered, None, None);
            assert!(
                matches!(resumed, Err(AlphaPimError::Recover(RecoverError::Malformed(_)))),
                "a changed cache slot {i} must be rejected"
            );
        }
    }

    #[test]
    fn cache_hits_skip_preparation_and_evictions_are_deterministic() {
        let engine = engine(6);
        let g = graph();
        let mut serve =
            ServeEngine::new(&engine, ServeConfig { cache_capacity: 2, ..Default::default() });
        let q = [
            Query::Bfs { source: 0 },
            Query::Bfs { source: 1 },
            Query::Sssp { source: 2 },
            Query::Sssp { source: 3 },
        ];
        serve.run_batch(&g, &q).unwrap();
        assert_eq!(serve.cache_misses(), 2, "one preparation per application");
        assert_eq!(serve.cache_hits(), 2, "repeat queries reuse the cache");
        assert_eq!(serve.cache_len(), 2);
        // A third application evicts the least-recently-used entry (BFS,
        // whose last use predates SSSP's).
        serve.run_batch(&g, &[Query::Ppr { source: 0 }]).unwrap();
        assert_eq!(serve.cache_len(), 2);
        assert_eq!(serve.cache_misses(), 3);
        // BFS must now re-prepare; SSSP must still hit.
        serve.run_batch(&g, &[Query::Sssp { source: 1 }]).unwrap();
        assert_eq!(serve.cache_misses(), 3, "SSSP survived the eviction");
        serve.run_batch(&g, &[Query::Bfs { source: 2 }]).unwrap();
        assert_eq!(serve.cache_misses(), 4, "BFS was the LRU victim");
    }

    #[test]
    fn serve_splits_traces_into_batches() {
        let engine = engine(6);
        let g = graph();
        let mut serve =
            ServeEngine::new(&engine, ServeConfig { batch_size: 3, ..Default::default() });
        let queries = seeded_trace(g.nodes(), 7, 1);
        let (results, batches) = serve.serve(&g, &queries).unwrap();
        assert_eq!(results.len(), 7);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches.iter().map(|b| b.queries).sum::<u32>(), 7);
    }

    #[test]
    fn seeded_traces_are_reproducible_and_mixed() {
        let a = seeded_trace(100, 64, 42);
        let b = seeded_trace(100, 64, 42);
        assert_eq!(a, b);
        assert!(a.iter().any(|q| matches!(q, Query::Bfs { .. })));
        assert!(a.iter().any(|q| matches!(q, Query::Sssp { .. })));
        assert!(a.iter().any(|q| matches!(q, Query::Ppr { .. })));
        assert_ne!(a, seeded_trace(100, 64, 43));
    }

    #[test]
    fn default_weights_reproduce_the_legacy_trace_bit_for_bit() {
        // The pre-weighting generator: one `u32_below(nodes)` draw then one
        // `u32_below(3)` draw per query. The `[1, 1, 1]` mix must consume
        // the RNG stream identically.
        let legacy: Vec<Query> = {
            let mut rng = alpha_pim_sparse::gen::rng::SplitMix64::new(42);
            (0..64)
                .map(|_| {
                    let source = rng.u32_below(100);
                    match rng.u32_below(3) {
                        0 => Query::Bfs { source },
                        1 => Query::Sssp { source },
                        _ => Query::Ppr { source },
                    }
                })
                .collect()
        };
        assert_eq!(seeded_trace(100, 64, 42), legacy);
        assert_eq!(seeded_trace_weighted(100, 64, 42, [1, 1, 1]), legacy);
        // Degenerate weights fall back to the uniform mix.
        assert_eq!(seeded_trace_weighted(100, 64, 42, [0, 0, 0]), legacy);
    }

    #[test]
    fn weighted_traces_skew_the_app_mix() {
        let bfs_only = seeded_trace_weighted(100, 32, 7, [1, 0, 0]);
        assert!(bfs_only.iter().all(|q| matches!(q, Query::Bfs { .. })));
        let ppr_only = seeded_trace_weighted(100, 32, 7, [0, 0, 5]);
        assert!(ppr_only.iter().all(|q| matches!(q, Query::Ppr { .. })));
        let skewed = seeded_trace_weighted(100, 256, 7, [8, 1, 1]);
        let bfs = skewed.iter().filter(|q| matches!(q, Query::Bfs { .. })).count();
        assert!(bfs > 128, "8:1:1 mix should be BFS-dominated, got {bfs}/256");
    }

    #[test]
    fn fast_path_gates_on_observability() {
        let engine = engine(6);
        let serve = ServeEngine::new(
            &engine,
            ServeConfig { fast_path: FastPath::Analytic, ..Default::default() },
        );
        assert!(serve.fast_path_active(), "Aggregate observability permits analytic");
        let replay = ServeEngine::new(&engine, ServeConfig::default());
        assert!(!replay.fast_path_active(), "Replay is the default");

        let detailed = AlphaPim::new(PimConfig {
            num_dpus: 6,
            fidelity: SimFidelity::Full,
            observability: alpha_pim_sim::ObservabilityLevel::PerDpu,
            ..Default::default()
        })
        .unwrap();
        let gated = ServeEngine::new(
            &detailed,
            ServeConfig { fast_path: FastPath::Analytic, ..Default::default() },
        );
        assert!(!gated.fast_path_active(), "PerDpu detail keeps cycle replay");
    }

    #[test]
    fn fast_path_results_are_bit_identical_to_replay() {
        let engine = engine(6);
        let g = graph();
        let queries = seeded_trace(g.nodes(), 6, 0xFA57);
        // The healthy machine, and one re-planned around a quarantined DPU.
        for quarantine in [&[][..], &[2]] {
            let mut replay = ServeEngine::new(&engine, ServeConfig::default());
            replay.set_quarantine(quarantine);
            let (exact, _) = replay.serve(&g, &queries).unwrap();
            let mut fast = ServeEngine::new(
                &engine,
                ServeConfig { fast_path: FastPath::Analytic, ..Default::default() },
            );
            fast.set_quarantine(quarantine);
            let (approx, batches) = fast.serve(&g, &queries).unwrap();
            assert!(fast.fast_path_active(), "quarantine {quarantine:?}");
            assert_eq!(exact.len(), approx.len());
            for (e, a) in exact.iter().zip(approx.iter()) {
                match (e, a) {
                    (QueryResult::Bfs(x), QueryResult::Bfs(y)) => assert_eq!(x.levels, y.levels),
                    (QueryResult::Sssp(x), QueryResult::Sssp(y)) => {
                        assert_eq!(x.distances, y.distances)
                    }
                    (QueryResult::Ppr(x), QueryResult::Ppr(y)) => assert_eq!(x.scores, y.scores),
                    other => panic!("result kinds diverged: {other:?}"),
                }
                // Timing is approximated, but must stay positive and sane.
                assert!(a.report().total_seconds() > 0.0);
            }
            assert!(!batches.is_empty());
        }
    }
}
