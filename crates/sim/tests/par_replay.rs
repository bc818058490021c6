//! Integration tests for the host-side parallel replay pool: reuse across
//! many calls, panic propagation, the bit-identical-report guarantee, and
//! a launch's reuse of the profile of a trace set it already replayed.

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::par::{par_map_indexed, set_sim_threads};
use alpha_pim_sim::pipeline::simulate_dpu_profiled;
use alpha_pim_sim::trace::TaskletTrace;
use alpha_pim_sim::{
    CounterId, DpuDetail, DpuProfile, FaultEngine, FaultPlan, FaultVerdict, KernelReport,
    ObservabilityLevel, PimConfig, PimSystem, SimFidelity,
};
use alpha_pim_sparse::gen::rng::SplitMix64;

/// Deterministic pseudo-random trace batches for `dpus` DPUs, skewed so
/// per-DPU replay cost varies (the pool must load-balance it).
fn trace_sets(dpus: u32, seed: u64) -> Vec<Vec<TaskletTrace>> {
    let mut rng = SplitMix64::new(seed);
    (0..dpus)
        .map(|_| {
            let tasklets = 1 + rng.usize_below(12);
            (0..tasklets)
                .map(|_| {
                    let mut t = TaskletTrace::new();
                    for _ in 0..rng.usize_below(8) {
                        match rng.u32_below(3) {
                            0 => t.compute(InstrClass::Arith, 1 + rng.u32_below(200)),
                            1 => t.compute(InstrClass::LoadStore, 1 + rng.u32_below(60)),
                            _ => t.dma(8 * (1 + rng.u32_below(250))),
                        }
                    }
                    t
                })
                .collect()
        })
        .collect()
}

fn replay(dpus: u32, sets: &[Vec<TaskletTrace>]) -> KernelReport {
    let sys = PimSystem::new(PimConfig {
        num_dpus: dpus,
        fidelity: SimFidelity::Sampled(16),
        ..Default::default()
    })
    .expect("valid config");
    let mut acc = sys.accumulator();
    acc.add_batch(0, sets);
    acc.finish()
}

/// The pool is spawned per call, so back-to-back calls (as the iterative
/// apps issue) must all work and preserve input order every time.
#[test]
fn pool_survives_repeated_use() {
    let items: Vec<u64> = (0..4096).collect();
    for round in 0..50u64 {
        let out = par_map_indexed(&items, |_, &x| x * 2 + round);
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2 + round);
        }
    }
}

/// A panicking worker must re-raise on the caller, and the pool must remain
/// usable afterwards.
#[test]
fn worker_panics_propagate_to_caller() {
    // Force real worker threads so the join-then-resume path is exercised
    // even on single-core machines. (Every test here is correct at any
    // thread count, so the global override cannot break concurrent tests.)
    set_sim_threads(4);
    let items: Vec<u32> = (0..512).collect();
    let result = std::panic::catch_unwind(|| {
        par_map_indexed(&items, |_, &x| {
            assert!(x != 300, "injected failure");
            x
        })
    });
    let payload = result.expect_err("panic must propagate");
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(text.contains("injected failure"), "unexpected payload: {text}");
    // The next call starts a fresh scope and must be unaffected.
    let ok = par_map_indexed(&items, |_, &x| x + 1);
    assert_eq!(ok[511], 512);
}

/// The headline determinism guarantee: a `KernelReport` produced with the
/// parallel batch API is bit-identical at every thread count, including the
/// floating-point fields that would differ under any reduction reordering.
#[test]
fn report_is_bit_identical_across_thread_counts() {
    let dpus = 256;
    let sets = trace_sets(dpus, 0xBEEF);
    set_sim_threads(1);
    let sequential = replay(dpus, &sets);
    for threads in [2, 3, 8, 16] {
        set_sim_threads(threads);
        let parallel = replay(dpus, &sets);
        assert_eq!(sequential, parallel, "report diverged at {threads} threads");
        assert_eq!(
            sequential.seconds.to_bits(),
            parallel.seconds.to_bits(),
            "seconds not bit-identical at {threads} threads"
        );
    }
    set_sim_threads(1);
}

/// A launch over `sets` (one per DPU, in DPU order) that replays every DPU
/// and keeps each one's per-tasklet profile.
fn replay_all(sets: &[Vec<TaskletTrace>], faults: Option<FaultPlan>) -> KernelReport {
    let sys = PimSystem::new(PimConfig {
        num_dpus: sets.len() as u32,
        fidelity: SimFidelity::Full,
        observability: ObservabilityLevel::PerTasklet,
        faults,
        ..Default::default()
    })
    .expect("valid config");
    let mut acc = sys.accumulator();
    acc.add_batch(0, sets);
    acc.finish()
}

/// Asserts that a retained DPU record is exactly `profile`.
fn assert_detail_is(detail: &DpuDetail, profile: &DpuProfile) {
    assert_eq!(detail.total_cycles, profile.report.total_cycles, "DPU {}", detail.dpu_id);
    assert_eq!(detail.issued_instructions, profile.report.issued_instructions);
    assert_eq!(detail.counters, profile.counters, "DPU {}", detail.dpu_id);
    assert_eq!(detail.tasklets, profile.tasklets, "DPU {}", detail.dpu_id);
}

/// Four tasklets with unequal work, each opening with a DMA of
/// `dma_bytes(tasklet)` bytes, so that tasklet order and transfer sizes
/// both show in the profile.
fn set_with_dma(dma_bytes: impl Fn(u32) -> u32) -> Vec<TaskletTrace> {
    (0..4u32)
        .map(|i| {
            let mut t = TaskletTrace::new();
            t.dma(dma_bytes(i));
            t.compute(InstrClass::Arith, 20 + 15 * i);
            t.mutex_lock(0);
            t.compute(InstrClass::LoadStore, 2);
            t.mutex_unlock(0);
            t.barrier();
            t
        })
        .collect()
}

fn base_set() -> Vec<TaskletTrace> {
    set_with_dma(|i| 64 * (i + 1))
}

#[test]
fn repeated_sets_reuse_exactly_the_replayed_profile() {
    let set = base_set();
    let report = replay_all(&vec![set.clone(); 8], None);
    let profile = simulate_dpu_profiled(&set, &PimConfig::default().pipeline);
    assert_eq!(report.dpu_details.len(), 8);
    for detail in &report.dpu_details {
        assert_detail_is(detail, &profile);
    }
}

#[test]
fn sets_differing_in_one_dma_or_in_tasklet_order_are_each_replayed() {
    let base = base_set();
    let one_dma = set_with_dma(|i| if i == 2 { 200 } else { 64 * (i + 1) });
    let mut reordered = base.clone();
    reordered.swap(0, 3);
    let sets = vec![base.clone(), one_dma, base, reordered];
    let report = replay_all(&sets, None);
    let pipeline = PimConfig::default().pipeline;
    let profiles: Vec<DpuProfile> =
        sets.iter().map(|s| simulate_dpu_profiled(s, &pipeline)).collect();
    // The variants really do replay differently, so a reused profile
    // would show.
    assert_ne!(profiles[0], profiles[1]);
    assert_ne!(profiles[0].tasklets, profiles[3].tasklets);
    for (detail, profile) in report.dpu_details.iter().zip(&profiles) {
        assert_detail_is(detail, profile);
    }
}

#[test]
fn a_repeat_on_a_straggler_still_pays_its_own_penalty() {
    let plan = FaultPlan {
        seed: 0x5_7A6,
        straggler_rate: 0.5,
        straggler_multiplier: 1.75,
        ..FaultPlan::default()
    };
    let set = base_set();
    let sets = vec![set.clone(); 16];
    let cfg = PimConfig { num_dpus: 16, faults: Some(plan.clone()), ..Default::default() };
    let engine = FaultEngine::from_config(&cfg).expect("the plan injects faults");
    let verdicts: Vec<FaultVerdict> = (0..16).map(|d| engine.verdict(d)).collect();
    // Stragglers and healthy DPUs alternate with the same set, so each
    // kind reuses a profile the other kind stored first.
    let straggler = |d: usize| verdicts[d] == FaultVerdict::Straggler;
    assert!((1..16).any(|d| straggler(d) && !straggler(d - 1)));
    assert!((1..16).any(|d| !straggler(d) && straggler(d - 1)));
    let base = simulate_dpu_profiled(&set, &cfg.pipeline);
    let report = replay_all(&sets, Some(plan));
    for (d, detail) in report.dpu_details.iter().enumerate() {
        let pen = engine.penalty_cycles(verdicts[d], base.report.total_cycles);
        assert_eq!(pen > 0, straggler(d), "DPU {d}");
        assert_eq!(detail.total_cycles, base.report.total_cycles + pen, "DPU {d}");
        assert_eq!(detail.counters.get(CounterId::FaultStragglerCycles), pen, "DPU {d}");
        let tasklets = base.tasklets.len() as u64;
        assert_eq!(detail.counters.get(CounterId::TaskletFault), tasklets * pen, "DPU {d}");
    }
}

#[test]
fn a_launch_full_of_repeats_is_bit_identical_across_thread_counts() {
    // 512 DPUs drawn from six distinct sets: nearly every replay repeats
    // one stored earlier, by whichever worker got there first.
    let distinct = trace_sets(6, 0xFACE);
    let sets: Vec<Vec<TaskletTrace>> =
        (0..512).map(|d| distinct[(d * 7 + d / 5) % 6].clone()).collect();
    set_sim_threads(1);
    let sequential = replay_all(&sets, None);
    set_sim_threads(4);
    let parallel = replay_all(&sets, None);
    set_sim_threads(1);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.to_json(), parallel.to_json());
    assert_eq!(sequential.dpu_details.len(), 512);
    let pipeline = PimConfig::default().pipeline;
    for (detail, set) in sequential.dpu_details.iter().zip(&sets) {
        assert_detail_is(detail, &simulate_dpu_profiled(set, &pipeline));
    }
}
