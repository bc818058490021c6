//! `paper-replay`: the paper's own configuration. A closed loop of
//! `AlphaPim::bfs`, `sssp` and `ppr` calls on A302 (scale-free) and r-TX
//! (road) at scale 0.2 on 2,048 DPUs under `SimFidelity::Sampled(64)`.
//! Preparation, the functional kernel, trace recording and DES replay do
//! all the work; serving does none.

use std::time::Instant;

use alpha_pim::apps::{AppOptions, PprOptions};
use alpha_pim::serve::{
    fingerprint_results, BatchOutcome, Query, QueryResult, ServeConfig, ServeEngine,
};
use alpha_pim::{AlphaPim, CheckpointPolicy, FastPath};
use alpha_pim_baselines::cpu::GridEngine;
use alpha_pim_sim::{HostCrashPlan, ObservabilityLevel, PimConfig, SimFidelity};
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::Graph;

use crate::common::{self, fnv};
use crate::driver::{Round, Size, Workload};
use crate::env::Stopwatch;
use crate::metrics::Metrics;
use crate::probes::{kernel_probes, set_launch_metrics, LaunchProbes};
use crate::stats::fastest;
use crate::trace::{Layer, Tracer};

/// Resumes timed per run; `recovery_s` is the fastest, as each repeats the
/// same work.
const RESUME_REPS: usize = 3;
/// Superstep after which the recovery batch dies. Early, so a resume is
/// mostly supersteps, like the timed rounds, rather than the fresh
/// engine's kernel preparation, whose page-fault-heavy cost swings with
/// the host machine.
const CRASH_AFTER_SUPERSTEP: u64 = 2;

/// The workload's inputs and engine.
pub struct PaperReplay {
    graphs: Vec<Graph>,
    engine: AlphaPim,
    /// `(graph index, query)` of every call of a round.
    calls: Vec<(usize, Query)>,
    /// Round-0 answers, in call order.
    first: Vec<QueryResult>,
    size: Size,
    seed: u64,
}

fn config(size: Size, fidelity: SimFidelity) -> PimConfig {
    PimConfig {
        num_dpus: if size == Size::Full { 2048 } else { 16 },
        fidelity,
        observability: ObservabilityLevel::Aggregate,
        ..Default::default()
    }
}

fn call(engine: &AlphaPim, graph: &Graph, query: Query) -> Result<QueryResult, String> {
    let opts = AppOptions::default();
    let r = match query {
        Query::Bfs { source } => engine.bfs(graph, source, &opts).map(QueryResult::Bfs),
        Query::Sssp { source } => engine.sssp(graph, source, &opts).map(QueryResult::Sssp),
        Query::Ppr { source } => engine
            .ppr(graph, source, &PprOptions::default())
            .map(QueryResult::Ppr),
    };
    r.map_err(|e| format!("{query:?}: {e}"))
}

fn name(query: Query) -> &'static str {
    match query {
        Query::Bfs { .. } => "bfs",
        Query::Sssp { .. } => "sssp",
        Query::Ppr { .. } => "ppr",
    }
}

impl PaperReplay {
    /// Kills a batch of graph 0's calls mid-flight and resumes it from its
    /// checkpoint in a fresh serving engine, as a restarted host would.
    /// Returns the fastest resume's seconds.
    fn recover(&self, tr: &mut Tracer, problems: &mut Vec<String>) -> Result<f64, String> {
        let queries: Vec<Query> = self
            .calls
            .iter()
            .filter(|(g, _)| *g == 0)
            .map(|&(_, q)| q)
            .collect();
        let expected: Vec<&QueryResult> = self
            .calls
            .iter()
            .zip(&self.first)
            .filter(|((g, _), _)| *g == 0)
            .map(|(_, r)| r)
            .collect();
        let cfg = ServeConfig {
            batch_size: queries.len() as u32,
            checkpoint: CheckpointPolicy::EveryN(1),
            fast_path: FastPath::Replay,
            ..Default::default()
        };
        let outcome = ServeEngine::new(&self.engine, cfg)
            .run_batch_resilient(
                &self.graphs[0],
                &queries,
                0,
                Some(HostCrashPlan::at(CRASH_AFTER_SUPERSTEP)),
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
                ServeEngine::new(&self.engine, cfg).resume_batch(
                    &self.graphs[0],
                    &checkpoint,
                    None,
                    None,
                )
            });
            secs.push(t.elapsed_s());
            match resumed.map_err(|e| format!("resume: {e}"))? {
                BatchOutcome::Completed(results, _) => {
                    let same = results.len() == expected.len()
                        && results
                            .iter()
                            .zip(&expected)
                            .all(|(a, b)| common::same_answer(a, b));
                    if !same {
                        problems.push(
                            "resumed batch answers differ from the uninterrupted calls".into(),
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

    /// Full-fidelity referee: BFS from graph 0's hub under `Full` replay
    /// against the workload's `Sampled(64)` engine. Returns the makespan
    /// error in percent.
    fn referee(&self, problems: &mut Vec<String>) -> Result<f64, String> {
        let full =
            AlphaPim::new(config(self.size, SimFidelity::Full)).map_err(|e| e.to_string())?;
        let q = Query::Bfs {
            source: common::hub(&self.graphs[0]),
        };
        let sampled = call(&self.engine, &self.graphs[0], q)?;
        let exact = call(&full, &self.graphs[0], q)?;
        if !common::same_answer(&sampled, &exact) {
            problems.push("Full and Sampled(64) fidelities disagree on the referee BFS".into());
        }
        let (s, f) = (
            sampled.report().total_seconds(),
            exact.report().total_seconds(),
        );
        Ok((s - f).abs() / f * 100.0)
    }
}

impl Workload for PaperReplay {
    const NAME: &'static str = "paper-replay";

    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<Self, String> {
        let scales = if size == Size::Full {
            [0.2, 0.2]
        } else {
            [0.01, 0.002]
        };
        let graphs = vec![
            common::generate("A302", scales[0], tr)?,
            common::generate("r-TX", scales[1], tr)?,
        ];
        let engine =
            AlphaPim::new(config(size, SimFidelity::Sampled(64))).map_err(|e| e.to_string())?;
        let mut rng = SplitMix64::new(seed);
        let mut calls = Vec::new();
        for (gi, g) in graphs.iter().enumerate() {
            let sources = common::Sources::new(g);
            for make in common::APPS {
                calls.push((gi, make(sources.draw(&mut rng))));
            }
        }
        Ok(PaperReplay {
            graphs,
            engine,
            calls,
            first: Vec::new(),
            size,
            seed,
        })
    }

    fn round(&mut self, index: u64, tr: &mut Tracer) -> Result<Round, String> {
        let mut results = Vec::with_capacity(self.calls.len());
        let mut round = Round {
            ops: self.calls.len() as u64,
            ..Default::default()
        };
        for (i, &(gi, q)) in self.calls.iter().enumerate() {
            let t = Stopwatch::start();
            let r = tr.span(Layer::Apps, name(q), i as u64, |_| {
                call(&self.engine, &self.graphs[gi], q)
            })?;
            round.unit_s.push(t.elapsed_s());
            let report = r.report();
            round.model_s += report.total_seconds();
            round.latencies_ms.push(report.total_seconds() * 1e3);
            round.failed += u64::from(report.degraded);
            round.digest = fnv(round.digest, report.total_seconds().to_bits());
            results.push(r);
        }
        round.digest = fnv(round.digest, fingerprint_results(&results));
        if index == 0 {
            self.first = results;
        }
        Ok(round)
    }

    fn finish(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<Vec<String>, String> {
        let mut problems = Vec::new();
        tr.span(Layer::Bench, "check", 0, |_| {
            for (gi, g) in self.graphs.iter().enumerate() {
                let grid = GridEngine::new(g, 8, 2);
                for ((cg, q), r) in self.calls.iter().zip(&self.first) {
                    if *cg == gi {
                        problems.extend(common::check_answer(&grid, *q, r));
                    }
                }
            }
        });
        m.set("recovery_s", self.recover(tr, &mut problems)?);
        let t = Instant::now();
        let err = tr.span(Layer::Bench, "referee", 0, |_| self.referee(&mut problems))?;
        m.set("bench.referee_s", t.elapsed().as_secs_f64());
        m.set("model_err_pct", err);

        let reports: Vec<_> = self.first.iter().map(QueryResult::report).collect();
        let counters = common::kernel_counters(reports.iter().copied());
        common::set_integrity(m, &counters);
        problems.extend(common::integrity_problems(&counters));
        let (steps, share) = common::superstep_mix(reports.iter().copied());
        m.set("apps.supersteps", steps as f64);
        m.set("apps.spmspv_share", share);
        m.set("kernel.prepares", self.calls.len() as f64);
        Ok(problems)
    }

    fn probe(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<Vec<String>, String> {
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
