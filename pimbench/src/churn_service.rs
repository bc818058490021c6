//! `churn-service`: reads and writes together. An open loop of seeded
//! arrivals from three weighted tenants over as00, face and p2p-24 at
//! scale 0.02 (32 DPUs, batch 32, analytic path), drained by
//! `ServiceEngine::run_dynamic_resilient` with mutation epochs on the
//! model clock, a partition cache budgeted below its working set, a fault
//! plan with silent flips under verified merges, and periodic checkpoints.
//! One host crash per run is finished with `resume_dynamic`.

use std::time::Instant;

use alpha_pim::serve::{Query, QueryResult, ServeConfig, ServeEngine};
use alpha_pim::service::{
    seeded_workload, Arrival, MutationEvent, Priority, ServiceConfig, ServiceEngine,
    ServiceOutcome, ServiceReport, TenantSpec,
};
use alpha_pim::{AlphaPim, CheckpointPolicy, DynamicGraph, FastPath};
use alpha_pim_baselines::cpu::GridEngine;
use alpha_pim_sim::{
    CounterId, CounterSet, FaultPlan, HostCrashPlan, ObservabilityLevel, PimConfig, SimFidelity,
};
use alpha_pim_sparse::delta::seeded_batch;
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::Graph;

use crate::common::{self, fnv};
use crate::driver::{Round, Size, Workload};
use crate::env::Stopwatch;
use crate::metrics::Metrics;
use crate::probes::{kernel_probes, set_launch_metrics, LaunchProbes};
use crate::stats::fastest;
use crate::trace::{Layer, Tracer};

/// Service result fingerprint of round 0 at the default seed, frozen.
const FROZEN: u64 = 0x0d46_1bbb_d02e_f6c3;
/// Mean model-clock gap between arrivals, in DPU cycles: well below
/// saturation under faults and cache churn, so the queue drains and
/// latency measures service, not a growing backlog.
const MEAN_GAP_CYCLES: u64 = 1_500_000;
/// Arrivals between two mutation epochs.
const ARRIVALS_PER_EPOCH: usize = 100;
/// Edge inserts plus deletes per mutation batch.
const OPS_PER_EPOCH: usize = 8;
/// Arrivals of the prefix checked against Full replay and the CPU.
const PREFIX: usize = 8;
/// Resumes timed per run; `recovery_s` is the fastest, as each repeats the
/// same work.
const RESUME_REPS: usize = 3;

/// The workload's inputs and engine.
pub struct ChurnService {
    graphs: Vec<Graph>,
    engine: AlphaPim,
    config: ServiceConfig,
    workload: Vec<Arrival>,
    mutations: Vec<MutationEvent>,
    first: Option<ServiceReport>,
    size: Size,
    seed: u64,
}

fn config(size: Size, fidelity: SimFidelity, faults: Option<FaultPlan>) -> PimConfig {
    PimConfig {
        num_dpus: if size == Size::Full { 32 } else { 8 },
        fidelity,
        observability: ObservabilityLevel::Aggregate,
        faults,
        ..Default::default()
    }
}

/// Seed of the fault plan. Verdicts are a pure function of (seed, DPU) and
/// persist for the whole run, so a seeded plan would decide how many DPUs
/// are permanently slow; the plan is fixed and the workload seed varies
/// traffic only. This seed marks at least one DPU of each kind.
const FAULT_SEED: u64 = 0xFA17_5EEF;

/// Every DPU fault class at 5 %, silent flips included, with merges
/// verified, so every answer stays exact. DPU loss stays off: a lost DPU
/// would shrink the machine rather than exercise a recovery path.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        dpu_loss_rate: 0.0,
        silent_flip_rate: 0.05,
        ..FaultPlan::uniform(FAULT_SEED, 0.05)
    }
}

/// Per-layer metrics only this workload's layers produce.
const SERVICE_LAYER_METRICS: [&str; 14] = [
    "sparse.delta_ops",
    "service.queries_per_batch",
    "queue.admitted",
    "queue.rejected",
    "queue.shed",
    "delta.epochs",
    "delta.dirty_share",
    "recover.snapshots",
    "recover.snapshot_bytes",
    "recover.reexecuted_batches",
    "sdc.detected",
    "sdc.escaped",
    "sdc.recompute_cycles",
    "fault.retries",
];

/// One untimed round of this workload, with its recovery, referee,
/// correctness gate and mutation probe, inside another workload's traced
/// run. Its host times swing too much across runs to hold an end-to-end
/// bound on a small shared machine, so it is not a `BENCHMARK.json`
/// workload, but this keeps the service, queue, delta, recover and
/// integrity layers measured. Sets only [`SERVICE_LAYER_METRICS`] and
/// returns every wrong answer found.
pub fn layer_probe(
    seed: u64,
    size: Size,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<Vec<String>, String> {
    let mut own = Metrics::default();
    let mut w = ChurnService::setup(seed, size, tr)?;
    w.round(0, tr)?;
    let mut problems = w.finish(tr, &mut own)?;
    w.delta_probe(tr)?;
    for name in SERVICE_LAYER_METRICS {
        m.set(name, own.get(name).unwrap_or(0.0));
    }
    problems
        .iter_mut()
        .for_each(|p| p.insert_str(0, "churn-service: "));
    Ok(problems)
}

fn report_digest(r: &ServiceReport) -> u64 {
    let mut h = fnv(r.result_fingerprint, r.makespan_cycles);
    for &i in &r.dispatch_order {
        h = fnv(h, u64::from(i));
    }
    for &l in &r.latencies_cycles {
        h = fnv(h, l);
    }
    h
}

impl ChurnService {
    fn run(&self, crash: Option<(u64, HostCrashPlan)>) -> Result<ServiceOutcome, String> {
        ServiceEngine::new(&self.engine, self.config.clone())
            .run_dynamic_resilient(&self.graphs, &self.workload, &self.mutations, crash, None)
            .map_err(|e| format!("service run: {e}"))
    }

    /// Crashes the host inside the middle batch and resumes from the
    /// checkpoint [`RESUME_REPS`] times; each resumed run must reproduce
    /// the uninterrupted one. Returns the fastest resume's host seconds and
    /// the crashed batch's tag.
    fn recover(
        &self,
        first: &ServiceReport,
        tr: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Result<(f64, u64), String> {
        let tag = u64::from(first.batches / 2);
        let ServiceOutcome::Crashed {
            batch_tag,
            checkpoint,
        } = self.run(Some((tag, HostCrashPlan::at(1))))?
        else {
            problems.push("the planned host crash did not fire".into());
            return Ok((0.0, 0));
        };
        let mut secs = Vec::with_capacity(RESUME_REPS);
        for rep in 0..RESUME_REPS {
            let t = Stopwatch::start();
            let resumed = tr
                .span(Layer::Recover, "resume_dynamic", rep as u64, |_| {
                    ServiceEngine::new(&self.engine, self.config.clone()).resume_dynamic(
                        &self.graphs,
                        &self.workload,
                        &self.mutations,
                        &checkpoint,
                        None,
                    )
                })
                .map_err(|e| format!("resume: {e}"))?;
            secs.push(t.elapsed_s());
            match resumed {
                ServiceOutcome::Completed(r) => {
                    if report_digest(&r) != report_digest(first) || r.tenants != first.tenants {
                        problems
                            .push("resumed service run differs from the uninterrupted run".into());
                    }
                }
                ServiceOutcome::Crashed { .. } => {
                    problems.push("resume crashed without a plan".into())
                }
            }
        }
        Ok((fastest(&secs), batch_tag))
    }

    /// The fault plan at work: the hub batch of every hosted graph on the
    /// workload's faulty engine, checked against the CPU baseline. Service
    /// reports keep only serving counters, so the integrity and fault
    /// counters come from these answers' kernel reports.
    fn integrity(&self, problems: &mut Vec<String>) -> Result<CounterSet, String> {
        let mut counters = CounterSet::new();
        for g in &self.graphs {
            let batch = common::hub_batch(g);
            let (results, _) = common::serve_once(&self.engine, g, &batch, FastPath::Analytic)?;
            let grid = GridEngine::new(g, 8, 2);
            for (q, r) in batch.iter().zip(&results) {
                problems.extend(common::check_answer(&grid, *q, r));
            }
            counters.merge(&common::kernel_counters(
                results.iter().map(QueryResult::report),
            ));
        }
        Ok(counters)
    }

    /// `DynamicGraph::apply` of every mutation batch, one span each.
    fn delta_probe(&self, tr: &mut Tracer) -> Result<(), String> {
        let parts = self.engine.system().num_dpus();
        for (gi, g) in self.graphs.iter().enumerate() {
            let mut dynamic =
                DynamicGraph::new(g, parts).map_err(|e| format!("dynamic graph: {e}"))?;
            for (k, e) in self
                .mutations
                .iter()
                .enumerate()
                .filter(|(_, e)| e.graph as usize == gi)
            {
                tr.span(Layer::Sparse, "delta_apply", k as u64, |_| {
                    dynamic.apply(&e.batch)
                })
                .map_err(|e| format!("mutation {k}: {e}"))?;
            }
        }
        Ok(())
    }

    /// The fault-free referee on the hosted graphs: the first arrivals'
    /// queries on the analytic path against Full replay and the CPU, and
    /// the fixed hub batch on graph 0 for the makespan error.
    fn referee(&self, problems: &mut Vec<String>) -> Result<f64, String> {
        let clean = AlphaPim::new(config(self.size, SimFidelity::Sampled(64), None))
            .map_err(|e| e.to_string())?;
        let full =
            AlphaPim::new(config(self.size, SimFidelity::Full, None)).map_err(|e| e.to_string())?;
        for (gi, g) in self.graphs.iter().enumerate() {
            let queries: Vec<Query> = self
                .workload
                .iter()
                .take(PREFIX)
                .filter(|a| a.graph as usize == gi)
                .map(|a| a.query)
                .collect();
            if !queries.is_empty() {
                common::serve_referee(&clean, &full, g, &queries, problems)?;
            }
        }
        common::serve_referee(
            &clean,
            &full,
            &self.graphs[0],
            &common::hub_batch(&self.graphs[0]),
            problems,
        )
    }
}

impl Workload for ChurnService {
    const NAME: &'static str = "churn-service";

    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<Self, String> {
        let graphs = ["as00", "face", "p2p-24"]
            .iter()
            .map(|abbrev| common::generate(abbrev, 0.02, tr))
            .collect::<Result<Vec<_>, _>>()?;
        let engine = AlphaPim::new(config(size, SimFidelity::Sampled(64), Some(fault_plan())))
            .map_err(|e| e.to_string())?;

        // The working set: every (graph, application) kernel prepared once
        // with no budget. The service gets two thirds of it.
        let mut probe = ServeEngine::new(
            &engine,
            ServeConfig {
                cache_capacity: 16,
                ..Default::default()
            },
        );
        for g in &graphs {
            probe
                .run_batch(g, &common::hub_batch(g))
                .map_err(|e| format!("working set: {e}"))?;
        }
        let budget = probe.cache_resident_bytes() * 2 / 3;
        drop(probe);

        let config = ServiceConfig {
            tenants: vec![
                TenantSpec {
                    weight: 4,
                    priority: Priority::High,
                },
                TenantSpec {
                    weight: 2,
                    priority: Priority::Normal,
                },
                TenantSpec {
                    weight: 1,
                    priority: Priority::Low,
                },
            ],
            queue_capacity: 4096,
            deadline_budget_cycles: Some(100_000_000),
            quarantine_threshold: None,
            serve: ServeConfig {
                batch_size: 32,
                cache_capacity: 16,
                cache_budget_bytes: budget,
                checkpoint: CheckpointPolicy::EveryN(4),
                fast_path: FastPath::Analytic,
                ..Default::default()
            },
        };
        let arrivals = if size == Size::Full { 1000 } else { 150 };
        let nodes: Vec<u32> = graphs.iter().map(Graph::nodes).collect();
        let mut workload = seeded_workload(seed, MEAN_GAP_CYCLES, arrivals, 3, &nodes, [1, 1, 1]);
        // Typical sources, as in the other workloads: the seed picks them,
        // but an isolated vertex cannot turn a query into no work.
        let sources: Vec<common::Sources> = graphs.iter().map(common::Sources::new).collect();
        let mut rng = SplitMix64::new(seed);
        for a in &mut workload {
            let source = sources[a.graph as usize].draw(&mut rng);
            a.query = match a.query {
                Query::Bfs { .. } => Query::Bfs { source },
                Query::Sssp { .. } => Query::Sssp { source },
                Query::Ppr { .. } => Query::Ppr { source },
            };
        }
        let mutations = (1..=arrivals / ARRIVALS_PER_EPOCH)
            .map(|k| {
                let graph = (k % graphs.len()) as u32;
                let at = workload[k * ARRIVALS_PER_EPOCH - ARRIVALS_PER_EPOCH / 2].at_cycle;
                let batch = seeded_batch(
                    graphs[graph as usize].adjacency(),
                    common::GRAPH_SEED ^ ((k as u64) << 32),
                    OPS_PER_EPOCH,
                    common::MAX_WEIGHT,
                );
                MutationEvent {
                    at_cycle: at,
                    graph,
                    batch,
                }
            })
            .collect();
        Ok(ChurnService {
            graphs,
            engine,
            config,
            workload,
            mutations,
            first: None,
            size,
            seed,
        })
    }

    fn round(&mut self, index: u64, tr: &mut Tracer) -> Result<Round, String> {
        let outcome = tr.span(Layer::Service, "run_dynamic_resilient", index, |_| {
            self.run(None)
        })?;
        let ServiceOutcome::Completed(report) = outcome else {
            return Err("an uncrashed service run reported a crash".into());
        };
        let cycle_ms = report.cycle_seconds * 1e3;
        let round = Round {
            ops: report.arrivals(),
            failed: report.arrivals() - report.served(),
            model_s: report.makespan_cycles as f64 * report.cycle_seconds,
            latencies_ms: report
                .latencies_cycles
                .iter()
                .map(|&c| c as f64 * cycle_ms)
                .collect(),
            digest: report_digest(&report),
            unit_s: Vec::new(),
        };
        if index == 0 {
            self.first = Some(report);
        }
        Ok(round)
    }

    fn finish(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<Vec<String>, String> {
        let first = self.first.take().ok_or("finish before the first round")?;
        let mut problems = Vec::new();
        let c = &first.counters;
        if first.arrivals() != first.admitted() + first.rejected()
            || first.admitted() != first.served() + first.shed_wait() + first.shed_deadline()
        {
            problems.push("queue admission/outcome ledgers do not balance".into());
        }
        if first.latencies_cycles.len() < 1000 && self.size == Size::Full {
            problems.push(format!(
                "only {} queries executed; the workload needs 1,000",
                first.latencies_cycles.len()
            ));
        }
        println!(
            "churn-service result fingerprint: {:#018x} over {} executed queries",
            first.result_fingerprint,
            first.latencies_cycles.len()
        );
        if self.seed == crate::DEFAULT_SEED
            && self.size == Size::Full
            && first.result_fingerprint != FROZEN
        {
            problems.push(format!(
                "result fingerprint {:#018x} != frozen {FROZEN:#018x}",
                first.result_fingerprint
            ));
        }

        let (recovery, tag) = self.recover(&first, tr, &mut problems)?;
        m.set("recovery_s", recovery);
        m.set("recover.reexecuted_batches", tag as f64);
        let t = Instant::now();
        let err = tr.span(Layer::Bench, "referee", 0, |_| self.referee(&mut problems))?;
        m.set("bench.referee_s", t.elapsed().as_secs_f64());
        m.set("model_err_pct", err);

        let faults = tr.span(Layer::Bench, "integrity", 0, |_| {
            self.integrity(&mut problems)
        })?;
        common::set_integrity(m, &faults);
        problems.extend(common::integrity_problems(&faults));
        let (hits, misses) = (
            c.get(CounterId::ServeCacheHits),
            c.get(CounterId::ServeCacheMisses),
        );
        m.set("kernel.prepares", misses as f64);
        m.set(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.set(
            "serve.evictions",
            c.get(CounterId::ServeCacheEvictions) as f64,
        );
        m.set(
            "serve.broadcast_bytes_saved",
            c.get(CounterId::ServeBroadcastSavedBytes) as f64,
        );
        m.set(
            "service.queries_per_batch",
            first.latencies_cycles.len() as f64 / f64::from(first.batches.max(1)),
        );
        m.set("queue.admitted", first.admitted() as f64);
        m.set("queue.rejected", first.rejected() as f64);
        m.set(
            "queue.shed",
            (first.shed_wait() + first.shed_deadline()) as f64,
        );
        m.set("delta.epochs", c.get(CounterId::DeltaEpochs) as f64);
        let total = c.get(CounterId::DeltaPartitionsTotal);
        m.set(
            "delta.dirty_share",
            c.get(CounterId::DeltaPartitionsDirty) as f64 / total.max(1) as f64,
        );
        m.set("recover.snapshots", c.get(CounterId::CkptSnapshots) as f64);
        m.set("recover.snapshot_bytes", c.get(CounterId::CkptBytes) as f64);
        let ops: usize = self
            .mutations
            .iter()
            .map(|e| e.batch.inserts.len() + e.batch.deletes.len())
            .sum();
        m.set("sparse.delta_ops", ops as f64);
        self.first = Some(first);
        Ok(problems)
    }

    fn probe(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<Vec<String>, String> {
        self.delta_probe(tr)?;
        let twin = self.engine.analytic_twin().ok_or("no analytic twin")?;
        let mut probes = LaunchProbes::default();
        for g in &self.graphs {
            probes.extend(kernel_probes(
                g,
                self.engine.system(),
                &twin,
                self.seed,
                tr,
            )?);
        }
        set_launch_metrics(m, &probes);
        Ok(Vec::new())
    }
}
