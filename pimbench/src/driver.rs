//! The measurement loop every workload shares.
//!
//! A run sets the workload up [`SETUP_REPS`] times (reporting the median),
//! then measures whole *rounds* — a fixed, seed-determined unit of work —
//! until `--seconds` have passed and at least [`MIN_ROUNDS`] completed.
//! Every round repeats the same work, so model time and answers must
//! repeat bit for bit; host time is the only thing allowed to vary. After
//! the timed phase the workload's recovery, referee and correctness gate
//! run untimed. A traced run then sets up again and replays the same
//! number of rounds with spans on, followed by the layer probes.
//!
//! Set-up, round and resume times are read on the benchmark thread's CPU
//! clock ([`Stopwatch`]); the length of the timed phase on the wall clock.

use std::time::Instant;

use alpha_pim_sim::par::{set_sim_threads, sim_threads};

use crate::env::{cpu_ticks, peak_rss_mb, steal_pct, Stamp, Stopwatch};
use crate::metrics::Metrics;
use crate::stats::{fastest, median, percentile, tail};
use crate::trace::{Layer, Tracer};

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Rounds the timed phase runs at least, whatever `--seconds` says: the
/// first round runs on cold caches and a cold heap, so every unit of work
/// gets at least two warm repetitions.
pub const MIN_ROUNDS: usize = 3;

/// Input sizes: the benchmark's own, or a tiny twin for the determinism
/// audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Seconds-scale versions of the same workloads.
    Tiny,
}

/// The outcome of one round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that errored, came back degraded, or were refused.
    pub failed: u64,
    /// Simulated seconds the round's work took.
    pub model_s: f64,
    /// Model-clock latency of each executed operation.
    pub latencies_ms: Vec<f64>,
    /// Host seconds of each unit of the round's work (an app call, a
    /// batch), in a fixed order; empty when the round is one unit.
    pub unit_s: Vec<f64>,
    /// Fingerprint of every answer and model figure of the round.
    pub digest: u64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The workload's `--workload` name.
    const NAME: &'static str;

    /// Generates the inputs from `seed` and builds the engines.
    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<Self, String>;

    /// Runs round `index`; the first round's answers are kept for
    /// [`Workload::finish`].
    fn round(&mut self, index: u64, tr: &mut Tracer) -> Result<Round, String>;

    /// Untimed work after the timed phase: crash recovery (`recovery_s`),
    /// the referee (`model_err_pct`, `bench.referee_s`), the model
    /// counters, and the correctness gate. Returns every wrong answer
    /// found.
    fn finish(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<Vec<String>, String>;

    /// Traced run only: the layer probes and the metrics they feed.
    /// Returns every wrong answer found.
    fn probe(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<Vec<String>, String>;
}

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Whether to make the traced run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Simulator replay threads.
    pub threads: usize,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Wrong answers found; empty when every check passed.
    pub problems: Vec<String>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed in the timed phase.
    pub failed: u64,
    /// End-to-end metrics, plus per-layer ones in a traced run.
    pub metrics: Metrics,
    /// Fingerprint of the first round's answers and model figures.
    pub digest: u64,
    /// Chrome trace-event JSON of the traced run.
    pub trace_json: Option<String>,
    /// Where the run was measured.
    pub stamp: Stamp,
    /// Host seconds of each timed round.
    pub round_host_s: Vec<f64>,
    /// Percent of machine CPU time the hypervisor stole during the timed
    /// phase: host-time figures of a run with high steal are suspect.
    pub steal_pct: f64,
}

/// Runs whole rounds until `seconds` passed and [`MIN_ROUNDS`] completed;
/// returns each round with its host seconds.
fn timed<W: Workload>(
    w: &mut W,
    seconds: f64,
    rounds_wanted: Option<usize>,
    tr: &mut Tracer,
) -> Result<Vec<(Round, f64)>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let index = out.len() as u64;
        let t = Stopwatch::start();
        let round = tr.span(Layer::Bench, "round", index, |tr| w.round(index, tr))?;
        out.push((round, t.elapsed_s()));
        let done = match rounds_wanted {
            Some(n) => out.len() >= n,
            None => out.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            return Ok(out);
        }
    }
}

/// Host seconds of one round at its steadiest: every unit of work at its
/// fastest over the rounds, summed. Each round repeats the same units, so
/// the spread of one unit across rounds is host noise (other tenants of
/// the machine, cache and page-fault state), which only ever adds time.
fn best_round_s(rounds: &[(Round, f64)]) -> f64 {
    let units = |(r, h): &(Round, f64)| {
        if r.unit_s.is_empty() {
            vec![*h]
        } else {
            r.unit_s.clone()
        }
    };
    let per_round: Vec<Vec<f64>> = rounds.iter().map(units).collect();
    (0..per_round[0].len())
        .map(|u| fastest(&per_round.iter().map(|r| r[u]).collect::<Vec<_>>()))
        .sum()
}

/// Checks every round against the first: same answers, same model time.
fn check_rounds(rounds: &[(Round, f64)], what: &str, problems: &mut Vec<String>) {
    let first = &rounds[0].0;
    for (i, (r, _)) in rounds.iter().enumerate().skip(1) {
        if r.digest != first.digest || r.model_s.to_bits() != first.model_s.to_bits() {
            problems.push(format!("{what} round {i} diverged from round 0"));
        }
    }
}

/// Runs workload `W` under `opts`.
///
/// # Errors
///
/// Any library error: the benchmark's workloads are chosen so that no
/// operation fails.
pub fn run<W: Workload>(opts: Options) -> Result<Outcome, String> {
    set_sim_threads(opts.threads);
    let stamp = Stamp::new(opts.seed, sim_threads());
    let mut off = Tracer::off();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let t = Stopwatch::start();
        world = Some(W::setup(opts.seed, opts.size, &mut off)?);
        setups.push(t.elapsed_s());
    }
    let mut w = world.expect("SETUP_REPS > 0");

    let ticks = cpu_ticks();
    let rounds = timed(&mut w, opts.seconds, None, &mut off)?;
    let steal = steal_pct(ticks, cpu_ticks());
    let rss = peak_rss_mb();
    let mut problems = Vec::new();
    check_rounds(&rounds, "timed", &mut problems);
    let first = rounds[0].0.clone();
    let host: f64 = rounds.iter().map(|(_, h)| h).sum();
    let attempted: u64 = rounds.iter().map(|(r, _)| r.ops).sum();
    let failed: u64 = rounds.iter().map(|(r, _)| r.failed).sum();
    let per_model: Vec<f64> = rounds.iter().map(|(r, h)| h / r.model_s).collect();

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("ops_per_s", first.ops as f64 / best_round_s(&rounds));
    m.set("host_per_model", median(&per_model));
    m.set("peak_rss_mb", rss);
    m.set("model_s", first.model_s);
    m.set("model_p50_ms", percentile(&first.latencies_ms, 50.0));
    m.set("model_p99_ms", percentile(&first.latencies_ms, 99.0));
    m.set(
        "served_frac",
        (first.ops - first.failed) as f64 / first.ops.max(1) as f64,
    );

    let mut trace_json = None;
    if opts.trace {
        drop(w);
        let mut tr = Tracer::on();
        let mut tw = tr.span(Layer::Bench, "setup", 0, |tr| {
            W::setup(opts.seed, opts.size, tr)
        })?;
        let traced = timed(&mut tw, opts.seconds, Some(rounds.len()), &mut tr)?;
        check_rounds(&traced, "traced", &mut problems);
        if traced[0].0.digest != first.digest {
            problems.push("traced rounds diverged from the untraced rounds".into());
        }
        let traced_host: f64 = traced.iter().map(|(_, h)| h).sum();
        m.set(
            "bench.trace_overhead_pct",
            (traced_host / host - 1.0) * 100.0,
        );
        problems.extend(tr.span(Layer::Bench, "finish", 0, |tr| tw.finish(tr, &mut m))?);
        problems.extend(tr.span(Layer::Bench, "probe", 0, |tr| tw.probe(tr, &mut m))?);
        span_metrics(&tr, &mut m);
        let mut meta = stamp.pairs();
        meta.push(("workload", W::NAME.into()));
        trace_json = Some(tr.chrome_json(&meta));
    } else {
        problems.extend(w.finish(&mut off, &mut m)?);
    }
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics: m,
        digest: first.digest,
        trace_json,
        stamp,
        round_host_s: rounds.iter().map(|(_, h)| *h).collect(),
        steal_pct: steal,
    })
}

/// Per-layer timings derived from the traced run's spans.
fn span_metrics(tr: &Tracer, m: &mut Metrics) {
    let ms_per_s = 1e3;
    let generate = tr.durations_ms(Layer::Sparse, "generate");
    m.set("sparse.generate_s", generate.iter().sum::<f64>() / ms_per_s);
    m.set(
        "sparse.transpose_ms",
        median(&tr.durations_ms(Layer::Sparse, "transpose")),
    );
    m.set(
        "sparse.delta_apply_ms",
        median(&tr.durations_ms(Layer::Sparse, "delta_apply")),
    );
    m.set(
        "kernel.prepare_ms",
        median(&tr.durations_ms(Layer::Kernel, "prepare")),
    );
    let launch = tr.durations_ms(Layer::Kernel, "launch");
    m.set("kernel.launch_ms", median(&launch));
    m.set("kernel.launch_tail_ms", tail(&launch));
    let calls: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.layer == Layer::Apps)
        .map(|s| s.ms())
        .collect();
    m.set("apps.call_ms", median(&calls));
    m.set("apps.call_tail_ms", tail(&calls));
    let batches = tr.durations_ms(Layer::Serve, "run_batch");
    m.set("serve.batch_ms", median(&batches));
    m.set("serve.batch_tail_ms", tail(&batches));
    m.set(
        "service.run_s",
        median(&tr.durations_ms(Layer::Service, "run_dynamic_resilient")) / ms_per_s,
    );
    for layer in Layer::ALL {
        let (count, busy, own) = tr.layer_totals(layer);
        let key = |suffix: &str| -> &'static str {
            let name = format!("{}.{suffix}", layer.label());
            crate::metrics::PER_LAYER
                .iter()
                .find(|d| d.name == name)
                .map(|d| d.name)
                .expect("every layer has spans/busy_s/self_s metrics")
        };
        m.set(key("spans"), count as f64);
        m.set(key("busy_s"), busy);
        m.set(key("self_s"), own);
    }
}
