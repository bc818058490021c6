//! The `sdc` and `mutate` audit gates. Each function runs its gate's whole
//! sweep and returns a report whose `verdict` is the gate's pass
//! predicate. `alpha_pim_cli sdc|mutate` prints and writes that report,
//! and the tier-1 suites (`tests/integrity.rs`, `tests/mutation_fuzz.rs`)
//! call the same functions with their own engine configuration, fault
//! plan, trace and seeds.

use alpha_pim::apps::{AppOptions, PprOptions};
use alpha_pim::calibrate::CalApp;
use alpha_pim::serve::{fingerprint_results, Query, QueryResult, ServeConfig, ServeEngine};
use alpha_pim::{AlphaPim, AlphaPimError, DeltaEngine, EpochReport, RecomputeStats};
use alpha_pim_sim::par::SimThreads;
use alpha_pim_sim::{CounterId, CounterSet, FaultPlan, PimConfig};
use alpha_pim_sparse::delta::seeded_batch;
use alpha_pim_sparse::Graph;

/// Host simulation threads every verified `sdc` cell runs at.
pub const SDC_THREADS: [u32; 2] = [1, 4];

/// One run of the `sdc` sweep: a (graph, app) pair under the silent-flip
/// plan, at one host thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdcCase {
    /// Graph label.
    pub graph: String,
    /// Application name (`"bfs"` / `"sssp"` / `"ppr"`).
    pub app: &'static str,
    /// Host simulation threads of the run.
    pub threads: u32,
    /// `sdc.injected` summed over the run.
    pub injected: u64,
    /// `sdc.detected` summed over the run.
    pub detected: u64,
    /// `sdc.corrected` summed over the run.
    pub corrected: u64,
    /// `sdc.escaped` summed over the run.
    pub escaped: u64,
    /// `sdc.recompute_cycles` summed over the run.
    pub recompute_cycles: u64,
    /// Distinct physical DPUs the run's corruption records name.
    pub corrupted_dpus: usize,
    /// Whether the answers are bit-identical to the fault-free run.
    pub values_match: bool,
    /// Whether the run's summed counters pass
    /// [`CounterSet::check_ledgers`].
    pub ledger_ok: bool,
    /// Whether the run finished degraded.
    pub degraded: bool,
}

impl SdcCase {
    fn new(graph: &str, app: CalApp, threads: u32, run: &QueryResult, clean: &QueryResult) -> Self {
        let report = run.report();
        let mut c = CounterSet::new();
        let mut corrupted: Vec<u32> = Vec::new();
        for s in &report.iterations {
            c.merge(&s.kernel_report.breakdown.counters);
            corrupted.extend_from_slice(&s.kernel_report.corrupted_dpus);
        }
        corrupted.sort_unstable();
        corrupted.dedup();
        SdcCase {
            graph: graph.to_string(),
            app: app.name(),
            threads,
            injected: c.get(CounterId::SdcInjected),
            detected: c.get(CounterId::SdcDetected),
            corrected: c.get(CounterId::SdcCorrected),
            escaped: c.get(CounterId::SdcEscaped),
            recompute_cycles: c.get(CounterId::SdcRecomputeCycles),
            corrupted_dpus: corrupted.len(),
            values_match: run.same_values(clean),
            ledger_ok: c.check_ledgers().is_ok(),
            degraded: report.degraded,
        }
    }

    /// A verified run passes when its answers are exact, its ledgers
    /// balance, nothing escaped, and silent flips did not degrade it.
    pub fn passes(&self) -> bool {
        self.values_match && self.ledger_ok && self.escaped == 0 && !self.degraded
    }

    /// A verify-off run is honest when every injection is charged as
    /// escaped and nothing is detected or attributed to a DPU.
    fn escapes_unseen(&self) -> bool {
        self.ledger_ok
            && self.detected == 0
            && self.escaped == self.injected
            && self.corrupted_dpus == 0
    }
}

/// Everything one `sdc` sweep ran.
#[derive(Debug, Clone, Default)]
pub struct SdcReport {
    /// Verified runs, one per (graph, app) at each of [`SDC_THREADS`].
    pub cases: Vec<SdcCase>,
    /// The verify-off control arm, one run per (graph, app).
    pub controls: Vec<SdcCase>,
}

impl SdcReport {
    /// Flips injected across the verified runs.
    pub fn injected(&self) -> u64 {
        self.cases.iter().map(|c| c.injected).sum()
    }

    /// Corruptions that escaped the verified runs.
    pub fn escaped(&self) -> u64 {
        self.cases.iter().map(|c| c.escaped).sum()
    }

    /// Flips injected across the control arm.
    pub fn injected_unverified(&self) -> u64 {
        self.controls.iter().map(|c| c.injected).sum()
    }

    /// Corruptions the control arm charged as escaped.
    pub fn escaped_unverified(&self) -> u64 {
        self.controls.iter().map(|c| c.escaped).sum()
    }

    /// The verified runs that fail [`SdcCase::passes`].
    pub fn failures(&self) -> Vec<&SdcCase> {
        self.cases.iter().filter(|c| !c.passes()).collect()
    }

    /// The gate: every verified run passes, the sweep injected at least
    /// one flip, and the control arm charges every injection as escaped.
    ///
    /// # Errors
    ///
    /// Names the first condition that fails.
    pub fn verdict(&self) -> Result<(), String> {
        let failures = self.failures();
        if !failures.is_empty() {
            let list: Vec<String> =
                failures.iter().map(|c| format!("{}/{}@{}t", c.graph, c.app, c.threads)).collect();
            return Err(format!(
                "sdc audit failed for {} of {} cases: {}",
                failures.len(),
                self.cases.len(),
                list.join(", ")
            ));
        }
        if self.injected() == 0 {
            return Err("sdc sweep drew no silent flips — the audit exercised nothing; \
                        raise the flip rate or change the fault seed"
                .into());
        }
        if let Some(c) = self.controls.iter().find(|c| !c.escapes_unseen()) {
            return Err(format!(
                "verify-off control arm leaked accounting on {}/{}: {} injected, {} detected, \
                 {} recorded escaped",
                c.graph, c.app, c.injected, c.detected, c.escaped
            ));
        }
        Ok(())
    }
}

fn run_app(
    engine: &AlphaPim,
    app: CalApp,
    graph: &Graph,
    weighted: &Graph,
    source: u32,
    options: &AppOptions,
) -> Result<QueryResult, AlphaPimError> {
    Ok(match app {
        CalApp::Bfs => QueryResult::Bfs(engine.bfs(graph, source, options)?),
        CalApp::Sssp => QueryResult::Sssp(engine.sssp(weighted, source, options)?),
        CalApp::Ppr => {
            let ppr = PprOptions { app: *options, ..Default::default() };
            QueryResult::Ppr(engine.ppr(graph, source, &ppr)?)
        }
    })
}

/// The end-to-end silent-corruption audit. For every graph × {bfs, sssp,
/// ppr} it runs a fault-free baseline, then the same run under `plan`
/// with ABFT merge verification on at each of [`SDC_THREADS`], then once
/// more with verification off (the control arm: the same draws must
/// escape without the guard). `config` supplies everything but the fault
/// plan; SSSP runs on the graph weighted in `1..=max_weight`.
///
/// # Errors
///
/// Propagates engine-construction and application errors.
pub fn sdc(
    config: &PimConfig,
    plan: &FaultPlan,
    graphs: &[(&str, Graph)],
    source: u32,
    max_weight: u32,
    options: &AppOptions,
) -> Result<SdcReport, AlphaPimError> {
    let engine = |faults: Option<FaultPlan>| AlphaPim::new(PimConfig { faults, ..config.clone() });
    let clean = engine(None)?;
    let verified = engine(Some(plan.clone()))?;
    let mut unverified_plan = plan.clone();
    unverified_plan.policy.verify_merges = false;
    let unverified = engine(Some(unverified_plan))?;
    let threads = SimThreads::get();

    let mut report = SdcReport::default();
    for (name, graph) in graphs {
        let weighted = graph.with_random_weights(max_weight);
        for app in CalApp::ALL {
            let run = |engine: &AlphaPim| run_app(engine, app, graph, &weighted, source, options);
            let baseline = run(&clean)?;
            for t in SDC_THREADS {
                SimThreads::set(t as usize);
                let flipped = run(&verified);
                SimThreads::set(threads);
                report.cases.push(SdcCase::new(name, app, t, &flipped?, &baseline));
            }
            let control = run(&unverified)?;
            report.controls.push(SdcCase::new(name, app, threads as u32, &control, &baseline));
        }
    }
    Ok(report)
}

/// The seeded mutation schedule of a [`mutate`] audit: `count` epochs of
/// `ops` insert/delete operations. Epoch `e`'s batch is drawn from
/// `seed + e`, and the graph and every insert carry weights in
/// `1..=max_weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epochs {
    /// Mutation epochs after the initial graph.
    pub count: u64,
    /// Operations per batch.
    pub ops: usize,
    /// Seed of the batch draws.
    pub seed: u64,
    /// Largest edge weight.
    pub max_weight: u32,
}

/// One epoch of a [`mutate`] audit.
#[derive(Debug, Clone)]
pub struct MutateEpoch {
    /// What the epoch's batch did; `None` at epoch 0.
    pub landed: Option<EpochReport>,
    /// How each trace query was recomputed.
    pub stats: Vec<RecomputeStats>,
    /// Value fingerprint of the incremental answers.
    pub fingerprint: u64,
    /// Value fingerprint of the from-scratch referee's answers.
    pub referee: u64,
    /// Trace positions whose incremental answer is not bit-identical to
    /// the referee's.
    pub mismatched: Vec<usize>,
}

impl MutateEpoch {
    /// Whether the incremental answers equal the referee's.
    pub fn matches(&self) -> bool {
        self.fingerprint == self.referee && self.mismatched.is_empty()
    }

    /// Queries the incremental path served.
    pub fn incremental(&self) -> usize {
        self.stats.iter().filter(|s| s.incremental).count()
    }

    /// Frontier vertices the epoch's recomputes seeded.
    pub fn frontier_seeded(&self) -> u64 {
        self.stats.iter().map(|s| s.frontier_seeded).sum()
    }

    /// Percentage of the from-scratch frontier the epoch did not seed.
    pub fn saved_pct(&self) -> f64 {
        let full: u64 = self.stats.iter().map(|s| s.frontier_full).sum();
        100.0 * (full - self.frontier_seeded()) as f64 / (full as f64).max(1.0)
    }
}

/// Everything one [`mutate`] audit ran.
#[derive(Debug, Clone)]
pub struct MutateReport {
    /// Nodes of the canonical epoch-0 graph.
    pub nodes: u32,
    /// Edges of the canonical epoch-0 graph.
    pub edges: usize,
    /// Epochs `0..=count`, in order.
    pub epochs: Vec<MutateEpoch>,
    /// Lifetime counters of the incremental engine.
    pub counters: CounterSet,
    /// Partition-cache hits of the incremental engine.
    pub cache_hits: u64,
    /// Partition-cache misses of the incremental engine.
    pub cache_misses: u64,
    /// Partition-cache evictions of the incremental engine.
    pub cache_evictions: u64,
    /// The epoch the graph ended at.
    pub final_epoch: u64,
    /// Structural fingerprint of the final graph.
    pub graph_fingerprint: u64,
}

impl MutateReport {
    /// Queries the incremental path served, over all epochs.
    pub fn incremental_queries(&self) -> u64 {
        self.epochs.iter().map(|e| e.incremental() as u64).sum()
    }

    /// Queries rerun in full, over all epochs.
    pub fn full_queries(&self) -> u64 {
        self.epochs.iter().map(|e| (e.stats.len() - e.incremental()) as u64).sum()
    }

    /// Share of the from-scratch frontier seeding saved, over all epochs.
    pub fn saved_fraction(&self) -> f64 {
        self.counters.get(CounterId::DeltaFrontierSaved) as f64
            / (self.counters.get(CounterId::DeltaFrontierFull) as f64).max(1.0)
    }

    /// Whether every epoch matched its referee.
    pub fn all_match(&self) -> bool {
        self.epochs.iter().all(MutateEpoch::matches)
    }

    /// The gate: every epoch's incremental answers equal the referee's,
    /// and the lifetime counters balance every ledger.
    ///
    /// # Errors
    ///
    /// Names the first condition that fails.
    pub fn verdict(&self) -> Result<(), String> {
        if let Some(e) = self.epochs.iter().position(|e| !e.matches()) {
            return Err(format!(
                "incremental answers diverged from from-scratch reruns at epoch {e}"
            ));
        }
        self.counters.check_ledgers().map_err(|b| format!("delta ledgers failed to balance: {b}"))
    }
}

/// The dynamic-graph differential gate. Weights `graph`, applies the
/// seeded `epochs` batches one by one, and after each epoch (and before
/// the first) serves `trace` twice: through one incremental
/// [`DeltaEngine`] that lives across epochs, and through a fresh
/// [`ServeEngine`] on the same epoch's graph (the referee). The delta
/// engine partitions over every DPU of `engine`.
///
/// # Errors
///
/// Propagates graph-canonicalization, mutation and serving errors.
pub fn mutate(
    engine: &AlphaPim,
    config: ServeConfig,
    graph: &Graph,
    trace: &[Query],
    epochs: Epochs,
) -> Result<MutateReport, AlphaPimError> {
    let weighted = graph.with_random_weights(epochs.max_weight);
    let mut delta = DeltaEngine::new(engine, config, &weighted, engine.system().num_dpus())?;
    let nodes = delta.graph().nodes();
    let edges = delta.graph().edges();
    let mut out = Vec::new();
    for epoch in 0..=epochs.count {
        let landed = if epoch == 0 {
            None
        } else {
            let batch = seeded_batch(
                delta.graph().adjacency(),
                epochs.seed.wrapping_add(epoch),
                epochs.ops,
                epochs.max_weight,
            );
            Some(delta.mutate(&batch)?)
        };
        let (results, stats) = delta.serve(trace)?;
        let (expected, _) = ServeEngine::new(engine, config).serve(delta.graph(), trace)?;
        let mismatched = results
            .iter()
            .zip(&expected)
            .enumerate()
            .filter(|(_, (got, want))| !got.same_values(want))
            .map(|(i, _)| i)
            .collect();
        out.push(MutateEpoch {
            landed,
            stats,
            fingerprint: fingerprint_results(&results),
            referee: fingerprint_results(&expected),
            mismatched,
        });
    }
    Ok(MutateReport {
        nodes,
        edges,
        epochs: out,
        counters: *delta.counters(),
        cache_hits: delta.serve_engine().cache_hits(),
        cache_misses: delta.serve_engine().cache_misses(),
        cache_evictions: delta.serve_engine().cache_evictions(),
        final_epoch: delta.dynamic().epoch(),
        graph_fingerprint: delta.dynamic().fingerprint(),
    })
}
