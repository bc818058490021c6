//! `analytic-serve`: steady-state batched serving. A closed loop of
//! `ServeEngine::run_batch` over a seeded 1:1:1 BFS/SSSP/PPR trace of 256
//! queries on A302 at scale 0.02, 64 DPUs, batch 16, `FastPath::Analytic`
//! — the configuration of `BENCH_analytic_serve.json`. The cache is warm
//! after set-up and nothing is replayed.

use std::time::Instant;

use alpha_pim::serve::{
    fingerprint_results, BatchOutcome, Query, QueryResult, ServeConfig, ServeEngine,
};
use alpha_pim::{AlphaPim, CheckpointPolicy, FastPath};
use alpha_pim_baselines::cpu::GridEngine;
use alpha_pim_sim::report::BatchReport;
use alpha_pim_sim::{CounterId, HostCrashPlan, ObservabilityLevel, PimConfig, SimFidelity};
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::Graph;

use crate::common::{self, fnv};
use crate::driver::{Round, Size, Workload};
use crate::env::Stopwatch;
use crate::metrics::Metrics;
use crate::probes::{kernel_probes, set_launch_metrics};
use crate::stats::{fastest, median};
use crate::trace::{Layer, Tracer};

/// Answer fingerprint of round 0 at the default seed, frozen.
const FROZEN: u64 = 0xd47e_1bfe_1034_4c70;
/// Trace queries checked against a Full-fidelity replay each run.
const PREFIX: usize = 3;
/// Resumes timed per run; `recovery_s` is the fastest, as each repeats the
/// same work.
const RESUME_REPS: usize = 9;

/// The workload's inputs and warm serving engine.
pub struct AnalyticServe {
    graph: Graph,
    /// Leaked so the serving engine, which borrows it, can live beside it
    /// for the whole run (one small engine per set-up).
    engine: &'static AlphaPim,
    serve: ServeEngine<'static>,
    trace: Vec<Query>,
    first: Vec<QueryResult>,
    first_batches: Vec<BatchReport>,
    size: Size,
    seed: u64,
}

fn config(size: Size, fidelity: SimFidelity) -> PimConfig {
    PimConfig {
        num_dpus: if size == Size::Full { 64 } else { 8 },
        fidelity,
        observability: ObservabilityLevel::Aggregate,
        ..Default::default()
    }
}

impl AnalyticServe {
    fn serve_config(&self) -> ServeConfig {
        *self.serve.config()
    }

    /// Kills the trace's first batch mid-flight and resumes it from its
    /// checkpoint in a fresh serving engine. Returns the fastest resume's
    /// seconds.
    fn recover(&self, tr: &mut Tracer, problems: &mut Vec<String>) -> Result<f64, String> {
        let batch = self.serve_config().batch_size as usize;
        let queries = &self.trace[..batch.min(self.trace.len())];
        let cfg = ServeConfig {
            checkpoint: CheckpointPolicy::EveryN(1),
            ..self.serve_config()
        };
        let crash_at = if self.size == Size::Full { 3 } else { 1 };
        let outcome = ServeEngine::new(self.engine, cfg)
            .run_batch_resilient(
                &self.graph,
                queries,
                0,
                Some(HostCrashPlan::at(crash_at)),
                None,
            )
            .map_err(|e| format!("crashing batch: {e}"))?;
        let BatchOutcome::Crashed { checkpoint, .. } = outcome else {
            problems.push("the planned host crash did not fire".into());
            return Ok(0.0);
        };
        let mut secs = Vec::with_capacity(RESUME_REPS);
        for rep in 0..RESUME_REPS {
            let t = Stopwatch::start();
            let resumed = tr.span(Layer::Recover, "resume_batch", rep as u64, |_| {
                ServeEngine::new(self.engine, cfg).resume_batch(
                    &self.graph,
                    &checkpoint,
                    None,
                    None,
                )
            });
            secs.push(t.elapsed_s());
            match resumed.map_err(|e| format!("resume: {e}"))? {
                BatchOutcome::Completed(results, _) => {
                    if !results
                        .iter()
                        .zip(&self.first)
                        .all(|(a, b)| common::same_answer(a, b))
                    {
                        problems.push(
                            "resumed batch answers differ from the uninterrupted batch".into(),
                        );
                    }
                }
                BatchOutcome::Crashed { .. } => {
                    problems.push("resume crashed without a plan".into())
                }
            }
        }
        Ok(fastest(&secs))
    }
}

impl Workload for AnalyticServe {
    const NAME: &'static str = "analytic-serve";

    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<Self, String> {
        let (scale, queries, batch) = if size == Size::Full {
            (0.02, 256, 16)
        } else {
            (0.002, 24, 8)
        };
        let graph = common::generate("A302", scale, tr)?;
        let engine: &'static AlphaPim = Box::leak(Box::new(
            AlphaPim::new(config(size, SimFidelity::Sampled(64))).map_err(|e| e.to_string())?,
        ));
        let cfg = ServeConfig {
            batch_size: batch,
            fast_path: FastPath::Analytic,
            ..Default::default()
        };
        let mut serve = ServeEngine::new(engine, cfg);
        if !serve.fast_path_active() {
            return Err("the analytic fast path did not engage".into());
        }
        // Warm-up: one query per application fills the partition cache.
        serve
            .run_batch(&graph, &common::hub_batch(&graph))
            .map_err(|e| format!("warm-up: {e}"))?;
        // An exact 1:1:1 rotation from seeded typical sources, so the
        // seed changes which queries run but not how much work they are.
        let sources = common::Sources::new(&graph);
        let mut rng = SplitMix64::new(seed);
        let trace = (0..queries)
            .map(|i| common::APPS[i % 3](sources.draw(&mut rng)))
            .collect();
        Ok(AnalyticServe {
            graph,
            engine,
            serve,
            trace,
            first: Vec::new(),
            first_batches: Vec::new(),
            size,
            seed,
        })
    }

    fn round(&mut self, index: u64, tr: &mut Tracer) -> Result<Round, String> {
        let batch = self.serve_config().batch_size as usize;
        let mut results = Vec::with_capacity(self.trace.len());
        let mut batches = Vec::new();
        let mut round = Round {
            ops: self.trace.len() as u64,
            ..Default::default()
        };
        for (bi, chunk) in self.trace.chunks(batch).enumerate() {
            let t = Stopwatch::start();
            let (rs, report) = tr
                .span(Layer::Serve, "run_batch", bi as u64, |_| {
                    self.serve.run_batch(&self.graph, chunk)
                })
                .map_err(|e| format!("batch {bi}: {e}"))?;
            round.unit_s.push(t.elapsed_s());
            round.model_s += report.batched_seconds;
            round.latencies_ms.extend(std::iter::repeat_n(
                report.batched_seconds * 1e3,
                chunk.len(),
            ));
            round.failed += rs.iter().filter(|r| r.report().degraded).count() as u64;
            round.digest = fnv(round.digest, report.batched_seconds.to_bits());
            results.extend(rs);
            batches.push(report);
        }
        round.digest = fnv(round.digest, fingerprint_results(&results));
        if index == 0 {
            self.first = results;
            self.first_batches = batches;
        }
        Ok(round)
    }

    fn finish(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<Vec<String>, String> {
        let mut problems = Vec::new();
        tr.span(Layer::Bench, "check", 0, |_| {
            let grid = GridEngine::new(&self.graph, 8, 2);
            for (q, r) in self.trace.iter().zip(&self.first) {
                problems.extend(common::check_answer(&grid, *q, r));
            }
        });
        let fingerprint = fingerprint_results(&self.first);
        println!("analytic-serve answer fingerprint: {fingerprint:#018x}");
        if self.seed == crate::DEFAULT_SEED && self.size == Size::Full && fingerprint != FROZEN {
            problems.push(format!(
                "answer fingerprint {fingerprint:#018x} != frozen {FROZEN:#018x}"
            ));
        }
        m.set("recovery_s", self.recover(tr, &mut problems)?);

        let t = Instant::now();
        let err = tr.span(Layer::Bench, "referee", 0, |_| -> Result<f64, String> {
            let full =
                AlphaPim::new(config(self.size, SimFidelity::Full)).map_err(|e| e.to_string())?;
            let prefix = &self.trace[..PREFIX.min(self.trace.len())];
            let (exact, _) = common::serve_once(&full, &self.graph, prefix, FastPath::Replay)?;
            if !exact
                .iter()
                .zip(&self.first)
                .all(|(a, b)| common::same_answer(a, b))
            {
                problems.push("served answers differ from a Full-replay prefix".into());
            }
            common::serve_referee(
                self.engine,
                &full,
                &self.graph,
                &common::hub_batch(&self.graph),
                &mut problems,
            )
        })?;
        m.set("bench.referee_s", t.elapsed().as_secs_f64());
        m.set("model_err_pct", err);

        let reports: Vec<_> = self.first.iter().map(QueryResult::report).collect();
        let mut counters = common::kernel_counters(reports.iter().copied());
        for b in &self.first_batches {
            counters.merge(&b.counters);
        }
        common::set_integrity(m, &counters);
        problems.extend(common::integrity_problems(&counters));
        let (steps, share) = common::superstep_mix(reports.iter().copied());
        m.set("apps.supersteps", steps as f64);
        m.set("apps.spmspv_share", share);
        let (hits, misses) = self
            .first_batches
            .iter()
            .fold((0, 0), |(h, mi), b| (h + b.cache_hits, mi + b.cache_misses));
        m.set("kernel.prepares", misses as f64);
        m.set(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.set(
            "serve.evictions",
            counters.get(CounterId::ServeCacheEvictions) as f64,
        );
        m.set(
            "serve.supersteps",
            self.first_batches
                .iter()
                .map(|b| f64::from(b.supersteps))
                .sum(),
        );
        m.set(
            "serve.broadcast_bytes_saved",
            self.first_batches
                .iter()
                .map(|b| b.broadcast_bytes_saved as f64)
                .sum(),
        );
        Ok(problems)
    }

    fn probe(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<Vec<String>, String> {
        let twin = self.engine.analytic_twin().ok_or("no analytic twin")?;
        let probes = kernel_probes(&self.graph, self.engine.system(), &twin, self.seed, tr)?;
        set_launch_metrics(m, &probes);
        // Host ms per query-superstep inside serving, over the analytic
        // twin's per-launch cost (serving times supersteps on the twin).
        let rounds = tr.durations_ms(Layer::Bench, "round").len() as f64;
        let batch_ms: f64 = tr.durations_ms(Layer::Serve, "run_batch").iter().sum();
        let steps = m.get("apps.supersteps").unwrap_or(0.0) * rounds;
        let step_ms = batch_ms / steps.max(1.0);
        m.set(
            "serve.step_over_launch",
            step_ms / median(&probes.twin_ms).max(f64::MIN_POSITIVE),
        );
        // The service, queue, delta, recover and integrity layers are
        // measured here, on one untimed churn-service round.
        crate::churn_service::layer_probe(self.seed, self.size, tr, m)
    }
}
