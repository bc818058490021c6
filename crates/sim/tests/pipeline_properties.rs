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
