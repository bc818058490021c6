//! Golden digests freezing the discrete-event pipeline replay.
//!
//! Every field of the [`DpuProfile`] that `simulate_dpu_profiled` returns
//! (the slot-level report, `avg_active_threads` by its bits, the counter
//! rollup and every tasklet's counter set) is folded into one FNV-1a hash
//! per pipeline configuration, over a seeded corpus of well-formed trace
//! sets. The corpus covers 0, 1, 11, 16, 22 and 24 tasklets; contended and
//! disjoint mutexes; barriers, including traces that end on one; empty
//! tasklets; and queued back-to-back DMAs. Any change to the scheduler's
//! pick order, its stall attribution or its counters moves a digest.

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::pipeline::simulate_dpu_profiled;
use alpha_pim_sim::trace::{TaskletTrace, TraceEvent};
use alpha_pim_sim::{CounterId, DpuProfile, PipelineConfig};
use alpha_pim_sparse::gen::rng::SplitMix64;

const TASKLET_COUNTS: [usize; 6] = [0, 1, 11, 16, 22, 24];

const CLASSES: [InstrClass; 4] =
    [InstrClass::Arith, InstrClass::LoadStore, InstrClass::Control, InstrClass::Move];

/// The trace-set shapes of the corpus, each built at every tasklet count.
#[derive(Clone, Copy)]
enum Shape {
    /// Random compute blocks of every register-reading and control class.
    Compute,
    /// Every tasklet takes the same mutex around a short critical section.
    Contended,
    /// Each tasklet takes its own mutex: acquires never collide.
    Disjoint,
    /// Compute phases separated by barriers; tasklets cross different
    /// numbers of barriers and some traces end on one.
    Barriers,
    /// Every third tasklet recorded nothing; the others compute and DMA.
    Sparse,
    /// Runs of back-to-back DMAs that queue behind the engine.
    DmaBursts,
    /// A random mix of every event kind.
    Mixed,
}

const SHAPES: [Shape; 7] = [
    Shape::Compute,
    Shape::Contended,
    Shape::Disjoint,
    Shape::Barriers,
    Shape::Sparse,
    Shape::DmaBursts,
    Shape::Mixed,
];

fn compute_block(t: &mut TaskletTrace, rng: &mut SplitMix64, max: u32) {
    t.compute(CLASSES[rng.usize_below(CLASSES.len())], 1 + rng.u32_below(max));
}

fn tasklet(shape: Shape, tid: usize, rng: &mut SplitMix64) -> TaskletTrace {
    let mut t = TaskletTrace::new();
    match shape {
        Shape::Compute => {
            for _ in 0..1 + rng.usize_below(12) {
                compute_block(&mut t, rng, 120);
            }
        }
        Shape::Contended | Shape::Disjoint => {
            let id = match shape {
                Shape::Contended => 0,
                _ => tid as u16,
            };
            for _ in 0..1 + rng.usize_below(8) {
                t.mutex_lock(id);
                t.compute(InstrClass::LoadStore, 1 + rng.u32_below(6));
                if rng.u32_below(4) == 0 {
                    t.dma(8 * (1 + rng.u32_below(32)));
                }
                t.mutex_unlock(id);
                compute_block(&mut t, rng, 20);
            }
        }
        Shape::Barriers => {
            for _ in 0..1 + rng.usize_below(4) {
                compute_block(&mut t, rng, 80);
                if rng.u32_below(3) == 0 {
                    t.dma(64 * (1 + rng.u32_below(16)));
                }
                t.barrier();
            }
            if rng.u32_below(2) == 0 {
                compute_block(&mut t, rng, 40);
            }
        }
        Shape::Sparse => {
            if !tid.is_multiple_of(3) {
                t.dma(256 * (1 + rng.u32_below(8)));
                compute_block(&mut t, rng, 200);
            }
        }
        Shape::DmaBursts => {
            for _ in 0..1 + rng.usize_below(3) {
                for _ in 0..1 + rng.usize_below(4) {
                    t.dma(8 * (1 + rng.u32_below(256)));
                }
                compute_block(&mut t, rng, 30);
            }
        }
        Shape::Mixed => {
            for _ in 0..rng.usize_below(14) {
                match rng.u32_below(7) {
                    0..=2 => compute_block(&mut t, rng, 100),
                    3 => t.dma(8 * (1 + rng.u32_below(300))),
                    4 | 5 => {
                        let id = rng.u32_below(3) as u16;
                        t.mutex_lock(id);
                        t.compute(InstrClass::LoadStore, 1 + rng.u32_below(8));
                        t.mutex_unlock(id);
                    }
                    _ => t.barrier(),
                }
            }
        }
    }
    t
}

/// The seeded corpus: every shape at every tasklet count, twice.
fn corpus() -> Vec<Vec<TaskletTrace>> {
    let mut rng = SplitMix64::new(0xDE5_C0DE);
    let mut sets = Vec::new();
    for _ in 0..2 {
        for &n in &TASKLET_COUNTS {
            for shape in SHAPES {
                sets.push((0..n).map(|tid| tasklet(shape, tid, &mut rng)).collect());
            }
        }
    }
    sets
}

/// A corpus whose makespans exceed 2^56 cycles under [`huge_cycles`]: half
/// of each set streams large DMAs while the other half computes, so
/// tasklets at small and at huge `avail` compete for the issue slot.
fn huge_corpus() -> Vec<Vec<TaskletTrace>> {
    let mut rng = SplitMix64::new(0x2_5600);
    [2usize, 5, 16]
        .iter()
        .map(|&n| {
            (0..n)
                .map(|tid| {
                    let mut t = TaskletTrace::new();
                    if tid.is_multiple_of(2) {
                        for _ in 0..1 + rng.usize_below(2) {
                            t.dma(256 + rng.u32_below(257));
                            compute_block(&mut t, &mut rng, 30);
                        }
                    } else {
                        for _ in 0..1 + rng.usize_below(6) {
                            compute_block(&mut t, &mut rng, 60);
                        }
                    }
                    if tid.is_multiple_of(3) {
                        t.barrier();
                        compute_block(&mut t, &mut rng, 10);
                    }
                    t
                })
                .collect()
        })
        .collect()
}

/// 2^45 DMA cycles per byte: one 512-byte transfer takes 2^54 cycles, so
/// eight of them pass 2^56 while 16 × the makespan still fits a `u64`.
fn huge_cycles() -> PipelineConfig {
    PipelineConfig { dma_cycles_per_byte: (1u64 << 45) as f64, ..PipelineConfig::default() }
}

fn fnv(h: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over every field of one profile.
fn fold_profile(h: &mut u64, p: &DpuProfile) {
    let r = &p.report;
    for x in [
        r.total_cycles,
        r.issued_instructions,
        r.active_cycles,
        r.idle_memory_cycles,
        r.idle_revolver_cycles,
        r.idle_rf_cycles,
        r.avg_active_threads.to_bits(),
        r.spin_retries,
    ] {
        fnv(h, x);
    }
    for class in InstrClass::ALL {
        fnv(h, r.instr_mix.count(class));
    }
    for (_, v) in p.counters.iter() {
        fnv(h, v);
    }
    fnv(h, p.tasklets.len() as u64);
    for t in &p.tasklets {
        for (_, v) in t.iter() {
            fnv(h, v);
        }
    }
}

/// The digest of a corpus under one configuration, plus the largest
/// makespan it produced.
fn digest(sets: &[Vec<TaskletTrace>], cfg: &PipelineConfig) -> (u64, u64) {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut max_cycles = 0;
    for traces in sets {
        let p = simulate_dpu_profiled(traces, cfg);
        max_cycles = max_cycles.max(p.report.total_cycles);
        fold_profile(&mut h, &p);
    }
    (h, max_cycles)
}

#[test]
fn corpus_exercises_every_event_kind() {
    let sets = corpus();
    assert_eq!(sets.len(), 2 * TASKLET_COUNTS.len() * SHAPES.len());
    let p: Vec<DpuProfile> =
        sets.iter().map(|t| simulate_dpu_profiled(t, &PipelineConfig::default())).collect();
    let total = |id| p.iter().map(|p| p.counters.get(id)).sum::<u64>();
    assert!(total(CounterId::SpinRetries) > 0, "no contended acquire");
    assert!(total(CounterId::BarrierCrossings) > 0, "no barrier");
    assert!(total(CounterId::TaskletDmaQueue) > 0, "no queued DMA");
    assert!(total(CounterId::TaskletDispatch) > 0, "no dispatch contention");
    assert!(total(CounterId::SlotRf) > 0, "no RF hazard");
    let ends_on_barrier =
        sets.iter().flatten().any(|t| matches!(t.events().last(), Some(TraceEvent::Barrier)));
    assert!(ends_on_barrier, "no trace ends on a barrier");
    assert!(sets.iter().flatten().any(TaskletTrace::is_empty), "no empty tasklet");
}

#[test]
fn replay_digests_are_frozen() {
    let sets = corpus();
    let base = PipelineConfig::default();
    let cases: [(&str, PipelineConfig, u64); 5] = [
        ("default", base.clone(), 0xe79194e117acb0af),
        ("forwarding 3", base.clone().with_forwarding(3), 0x51cc346576c10cf0),
        ("non-blocking DMA", base.clone().with_non_blocking_dma(), 0x36658104f70921bf),
        ("rf rate 0", PipelineConfig { rf_hazard_rate: 0.0, ..base.clone() }, 0xe1bfd3affe8f191d),
        ("rf rate 1", PipelineConfig { rf_hazard_rate: 1.0, ..base }, 0xc01d001d585e54a1),
    ];
    let mut moved = Vec::new();
    for (name, cfg, want) in &cases {
        let (got, _) = digest(&sets, cfg);
        if got != *want {
            moved.push(format!("{name}: {got:#018x} != {want:#018x}"));
        }
    }
    assert!(moved.is_empty(), "DES digests moved:\n{}", moved.join("\n"));
}

#[test]
fn replay_digest_holds_past_2_pow_56_cycles() {
    let (got, max_cycles) = digest(&huge_corpus(), &huge_cycles());
    assert!(max_cycles > 1 << 56, "makespan {max_cycles} does not pass 2^56");
    assert_eq!(got, 0xf7a9e01aa718a4b8, "DES digest moved: {got:#018x}");
}
