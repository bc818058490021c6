//! Property-style tests of the revolver-pipeline simulator's invariants.
//!
//! Cases come from the in-tree seeded [`SplitMix64`] generator (≥64 per
//! property), so every run exercises the same frozen trace set.

use alpha_pim_sim::instr::{InstrClass, InstrMix};
use alpha_pim_sim::pipeline::{estimate_cycles, estimate_stats, simulate_dpu};
use alpha_pim_sim::trace::{Record, TaskletTrace, TraceEvent};
use alpha_pim_sim::{PipelineConfig, TaskletStats};
use alpha_pim_sparse::gen::rng::SplitMix64;

const CASES: u64 = 64;

/// A random, well-formed trace: compute blocks, DMAs, and balanced mutex
/// sections (no barriers, which require cross-trace symmetry).
fn random_trace(rng: &mut SplitMix64) -> TaskletTrace {
    let classes =
        [InstrClass::Arith, InstrClass::LoadStore, InstrClass::Control, InstrClass::Move];
    let steps = rng.usize_below(24);
    let mut t = TaskletTrace::new();
    for _ in 0..steps {
        match rng.u32_below(3) {
            0 => t.compute(classes[rng.usize_below(4)], 1 + rng.u32_below(63)),
            1 => t.dma(1 + rng.u32_below(2047)),
            _ => {
                let id = rng.u32_below(3) as u16;
                t.mutex_lock(id);
                t.compute(InstrClass::LoadStore, 1 + rng.u32_below(7));
                t.mutex_unlock(id);
            }
        }
    }
    t
}

fn random_traces(rng: &mut SplitMix64) -> Vec<TaskletTrace> {
    let n = 1 + rng.usize_below(11);
    (0..n).map(|_| random_trace(rng)).collect()
}

fn cfg() -> PipelineConfig {
    PipelineConfig::default()
}

#[test]
fn cycles_decompose_exactly() {
    let mut rng = SplitMix64::new(0xD801);
    for _ in 0..CASES {
        let traces = random_traces(&mut rng);
        let r = simulate_dpu(&traces, &cfg());
        assert_eq!(
            r.total_cycles,
            r.active_cycles + r.idle_memory_cycles + r.idle_revolver_cycles + r.idle_rf_cycles,
        );
    }
}

#[test]
fn every_instruction_is_issued() {
    let mut rng = SplitMix64::new(0xD802);
    for _ in 0..CASES {
        let traces = random_traces(&mut rng);
        let r = simulate_dpu(&traces, &cfg());
        let expected: u64 = traces.iter().map(|t| t.instructions()).sum();
        // Contended mutexes add retry issues on top of the trace's own
        // instructions; both the issue count and the mix reflect them.
        assert_eq!(r.issued_instructions, expected + r.spin_retries);
        assert_eq!(r.instr_mix.total(), expected + r.spin_retries);
    }
}

#[test]
fn makespan_bounds_hold() {
    let mut rng = SplitMix64::new(0xD803);
    for _ in 0..CASES {
        let traces = random_traces(&mut rng);
        let c = cfg();
        let r = simulate_dpu(&traces, &c);
        // At most one issue per cycle.
        assert!(r.active_cycles <= r.total_cycles);
        // The slowest single thread is a lower bound (revolver spacing).
        let per_thread_min: u64 = traces
            .iter()
            .map(|t| t.instructions().saturating_sub(1) * c.revolver_period as u64)
            .max()
            .unwrap_or(0);
        assert!(r.total_cycles >= per_thread_min);
    }
}

#[test]
fn simulation_is_deterministic() {
    let mut rng = SplitMix64::new(0xD804);
    for _ in 0..CASES {
        let traces = random_traces(&mut rng);
        let a = simulate_dpu(&traces, &cfg());
        let b = simulate_dpu(&traces, &cfg());
        assert_eq!(a, b);
    }
}

#[test]
fn estimate_never_wildly_underestimates() {
    let mut rng = SplitMix64::new(0xD805);
    for _ in 0..CASES {
        let traces = random_traces(&mut rng);
        let c = cfg();
        let sim = simulate_dpu(&traces, &c).total_cycles;
        let est = estimate_cycles(&traces, &c).cycles;
        // The estimate is a structural bound: it must be within a constant
        // factor of the simulated makespan for well-formed traces.
        assert!(est as f64 >= sim as f64 * 0.2, "est {est} sim {sim}");
        assert!((est as f64) <= sim as f64 * 5.0 + 1000.0, "est {est} sim {sim}");
    }
}

/// The estimate's cycle bound computed trace by trace from the separate
/// per-trace queries: max of the issue, per-thread revolver and DMA
/// engine bounds, plus pipeline drain.
fn separate_bound(traces: &[TaskletTrace], c: &PipelineConfig) -> u64 {
    let (mut issue, mut thread, mut dma) = (0u64, 0u64, 0u64);
    for t in traces {
        let wait: u64 = t
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Dma { bytes } => c.dma_cycles(*bytes),
                _ => 0,
            })
            .sum();
        issue += t.instructions();
        dma += wait;
        thread = thread.max(t.instructions() * c.revolver_period as u64 + wait);
    }
    issue.max(thread).max(dma) + c.pipeline_depth as u64
}

#[test]
fn one_walk_estimate_matches_the_separate_calls() {
    let mut rng = SplitMix64::new(0xD808);
    for _ in 0..CASES {
        let mut traces = random_traces(&mut rng);
        // The estimate never replays, so barriers need no symmetry here;
        // give some traces one to cover every event kind.
        for t in traces.iter_mut().filter(|_| rng.u32_below(2) == 0) {
            t.barrier();
        }
        let c = cfg();
        let est = estimate_cycles(&traces, &c);
        let mut mix = InstrMix::new();
        for t in &traces {
            mix.merge(&t.instr_mix());
        }
        assert_eq!(est.mix, mix);
        assert_eq!(est.instructions, traces.iter().map(|t| t.instructions()).sum::<u64>());
        assert_eq!(est.cycles, separate_bound(&traces, &c));
    }
}

/// Records a random `Record` call sequence drawn from `seed` into `r`:
/// every instruction class, zero counts, zero-byte DMAs, streams with and
/// without a remainder chunk, mutex ids past the 16 the analytic recorder
/// tracks, and barriers. The same seed replays the same calls into any
/// recorder.
fn record_random_calls(seed: u64, r: &mut dyn Record) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..rng.usize_below(40) {
        match rng.u32_below(7) {
            0 => {
                let class = InstrClass::ALL[rng.usize_below(InstrClass::ALL.len())];
                r.compute(class, rng.u32_below(64));
            }
            1 => r.dma(if rng.u32_below(4) == 0 { 0 } else { rng.u32_below(4096) }),
            2 => {
                let chunk = 1 + rng.u32_below(2048);
                let whole = u64::from(chunk) * u64::from(rng.u32_below(6));
                let rem = if rng.u32_below(2) == 0 { 0 } else { u64::from(rng.u32_below(chunk)) };
                r.dma_stream(whole + rem, chunk, rng.u32_below(4));
            }
            3 => r.mutex_lock(rng.u32_below(40) as u16),
            4 => r.mutex_unlock(rng.u32_below(40) as u16),
            5 => r.barrier(),
            _ => r.compute(InstrClass::Arith, 0),
        }
    }
}

#[test]
fn stats_estimate_equals_the_trace_estimate() {
    let mut rng = SplitMix64::new(0xD809);
    let configs = [
        cfg(),
        PipelineConfig {
            revolver_period: 14,
            pipeline_depth: 9,
            dma_startup_cycles: 61,
            dma_cycles_per_byte: 0.37,
            ..cfg()
        },
    ];
    for c in &configs {
        for _ in 0..CASES {
            let tasklets = rng.usize_below(13);
            let seeds: Vec<u64> = (0..tasklets).map(|_| rng.next_u64()).collect();
            let traces: Vec<TaskletTrace> = seeds
                .iter()
                .map(|&seed| {
                    let mut t = TaskletTrace::new();
                    record_random_calls(seed, &mut t);
                    t
                })
                .collect();
            let stats: Vec<TaskletStats> = seeds
                .iter()
                .map(|&seed| {
                    let mut s = TaskletStats::new(c);
                    record_random_calls(seed, &mut s);
                    s
                })
                .collect();
            let from_traces = estimate_cycles(&traces, c);
            let from_stats = estimate_stats(&stats, c);
            assert_eq!(from_stats.cycles, from_traces.cycles);
            assert_eq!(from_stats.instructions, from_traces.instructions);
            assert_eq!(from_stats.mix, from_traces.mix);
        }
    }
}

/// One step of a random recording: a run of `times` copies of a body of
/// compute blocks, or a DMA, mutex or barrier call.
enum Step {
    Run(Vec<(InstrClass, u32)>, u64),
    Dma(u32),
    Lock(u16),
    Unlock(u16),
    Barrier,
}

/// Where the runs of a random recording landed, so the closed-form
/// property can check it exercised every position.
#[derive(Default)]
struct RunCoverage {
    /// Runs of at least two copies before / after their segment's first DMA.
    before_dma: bool,
    after_dma: bool,
    /// Runs of at least two copies holding zero, one and two mutexes.
    held: [bool; 3],
    /// Runs of at least two copies after a barrier.
    after_barrier: bool,
    /// Runs of zero copies, and bodies with a zero-count block.
    zero_times: bool,
    zero_count: bool,
}

/// A random recording of runs interleaved with DMAs, barriers and 0–2 held
/// mutexes (ids past the 16 the analytic recorder tracks included). Each
/// body holds 0–4 blocks over every class, zero counts included, repeated
/// 0, 1 or up to 10⁴ times.
fn random_runs(rng: &mut SplitMix64, seen: &mut RunCoverage) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut held: Vec<u16> = Vec::new();
    let mut dma_in_segment = false;
    let mut barriers = 0;
    for _ in 0..rng.usize_below(16) {
        match rng.u32_below(8) {
            0 => {
                steps.push(Step::Dma(1 + rng.u32_below(4096)));
                dma_in_segment = true;
            }
            1 if held.len() < 2 => {
                let id = rng.u32_below(20) as u16;
                if !held.contains(&id) {
                    held.push(id);
                    steps.push(Step::Lock(id));
                }
            }
            2 if !held.is_empty() => {
                steps.push(Step::Unlock(held.swap_remove(rng.usize_below(held.len()))));
            }
            3 => {
                steps.push(Step::Barrier);
                dma_in_segment = false;
                barriers += 1;
            }
            _ => {
                let body: Vec<(InstrClass, u32)> = (0..rng.usize_below(5))
                    .map(|_| {
                        let class = InstrClass::ALL[rng.usize_below(InstrClass::ALL.len())];
                        let count = if rng.u32_below(4) == 0 { 0 } else { rng.u32_below(64) };
                        (class, count)
                    })
                    .collect();
                let times = match rng.u32_below(3) {
                    0 => 0,
                    1 => 1,
                    _ => 2 + rng.u64_below(9_999),
                };
                if times >= 2 {
                    seen.before_dma |= !dma_in_segment;
                    seen.after_dma |= dma_in_segment;
                    seen.held[held.len()] = true;
                    seen.after_barrier |= barriers > 0;
                }
                seen.zero_times |= times == 0;
                seen.zero_count |= body.iter().any(|&(_, n)| n == 0);
                steps.push(Step::Run(body, times));
            }
        }
    }
    steps
}

/// Replays `steps` into `r`, recording each run with one
/// [`Record::compute_repeated`] call or, with `per_call`, as the loop of
/// single-block calls it stands for.
fn replay_runs(steps: &[Step], r: &mut dyn Record, per_call: bool) {
    for step in steps {
        match step {
            Step::Run(body, times) if per_call => {
                for _ in 0..*times {
                    for &(class, count) in body {
                        r.compute(class, count);
                    }
                }
            }
            Step::Run(body, times) => r.compute_repeated(body, *times),
            Step::Dma(bytes) => r.dma(*bytes),
            Step::Lock(id) => r.mutex_lock(*id),
            Step::Unlock(id) => r.mutex_unlock(*id),
            Step::Barrier => r.barrier(),
        }
    }
}

#[test]
fn repeated_compute_equals_the_per_call_loop() {
    let mut rng = SplitMix64::new(0xD80A);
    let mut seen = RunCoverage::default();
    for _ in 0..CASES {
        let steps = random_runs(&mut rng, &mut seen);
        let record = |per_call| {
            let (mut stats, mut trace) = (TaskletStats::new(&cfg()), TaskletTrace::new());
            replay_runs(&steps, &mut stats, per_call);
            replay_runs(&steps, &mut trace, per_call);
            (stats, trace)
        };
        let ((closed, trace), (looped, looped_trace)) = (record(false), record(true));
        assert_eq!(
            closed.segments().collect::<Vec<_>>(),
            looped.segments().collect::<Vec<_>>()
        );
        assert_eq!(closed.instr_mix(), looped.instr_mix());
        assert_eq!(closed.instructions(), looped.instructions());
        assert_eq!(closed.dma_cycles(), looped.dma_cycles());
        assert_eq!(trace.events(), looped_trace.events());
    }
    assert!(seen.before_dma && seen.after_dma, "runs before and after a first DMA");
    assert!(seen.held.iter().all(|&h| h), "runs holding 0, 1 and 2 mutexes");
    assert!(seen.after_barrier, "runs after a barrier");
    assert!(seen.zero_times && seen.zero_count, "zero repeats and zero-count blocks");
}

#[test]
fn adding_a_tasklet_never_reduces_total_work_time_below_serial() {
    let mut rng = SplitMix64::new(0xD806);
    for _ in 0..CASES {
        let traces = random_traces(&mut rng);
        // Issuing the union of instructions serially (1/cycle) is a hard
        // lower bound regardless of tasklet count.
        let r = simulate_dpu(&traces, &cfg());
        let instrs: u64 = traces.iter().map(|t| t.instructions()).sum();
        assert!(r.total_cycles >= instrs);
    }
}

#[test]
fn avg_active_threads_is_bounded_by_tasklet_count() {
    let mut rng = SplitMix64::new(0xD807);
    for _ in 0..CASES {
        let traces = random_traces(&mut rng);
        let r = simulate_dpu(&traces, &cfg());
        assert!(r.avg_active_threads >= 0.0);
        assert!(r.avg_active_threads <= traces.len() as f64 + 1e-9);
    }
}
