//! The fault-accounting audit: under seeded chaos plans, every injected
//! fault must be detected and either recovered or charged as a loss, the
//! recovery cycles must extend the PR 2 zero-remainder cycle partitions
//! (never break them), a rate-zero plan must be byte-identical to no plan
//! at all, and the whole faulty replay must stay bit-identical at every
//! host thread count.

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::par::set_sim_threads;
use alpha_pim_sim::trace::TaskletTrace;
use alpha_pim_sim::transfer;
use alpha_pim_sim::{
    CounterId, CounterSet, FaultPlan, KernelReport, ObservabilityLevel, PimConfig, PimSystem,
    SimFidelity,
};
use alpha_pim_sparse::gen::rng::SplitMix64;

/// One seeded random trace set (same shape as the counter-invariant
/// corpus): compute blocks, DMAs, balanced mutexes, barriers.
fn random_traces(rng: &mut SplitMix64) -> Vec<TaskletTrace> {
    let tasklets = 1 + rng.usize_below(16);
    (0..tasklets)
        .map(|_| {
            let mut t = TaskletTrace::new();
            for _ in 0..rng.usize_below(10) {
                match rng.u32_below(6) {
                    0 => t.compute(InstrClass::Arith, 1 + rng.u32_below(150)),
                    1 => t.compute(InstrClass::LoadStore, 1 + rng.u32_below(60)),
                    2 => t.compute(InstrClass::Control, 1 + rng.u32_below(30)),
                    3 => t.dma(8 * (1 + rng.u32_below(400))),
                    4 => {
                        let id = rng.u32_below(3) as u16;
                        t.mutex_lock(id);
                        t.compute(InstrClass::LoadStore, 1 + rng.u32_below(8));
                        t.mutex_unlock(id);
                    }
                    _ => t.barrier(),
                }
            }
            t
        })
        .collect()
}

fn replay(dpus: u32, faults: Option<FaultPlan>, sets: &[Vec<TaskletTrace>]) -> KernelReport {
    let sys = PimSystem::new(PimConfig {
        num_dpus: dpus,
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

/// Injected == detected, and every detected fault is either recovered or
/// charged as a loss — checked across a sweep of seeded plans, together
/// with the extended zero-remainder partitions: the slot counters (now
/// including `slot.fault`) still sum exactly to the DPU cycles, the fault
/// buckets sum exactly to `slot.fault`, and the tasklet counters (now
/// including `tasklet.fault`) still sum exactly to the budget.
#[test]
fn ledger_balances_and_partitions_stay_exact_under_seeded_chaos() {
    let mut rng = SplitMix64::new(0xFA_17AB);
    for case in 0..24u64 {
        let dpus = 8 + (case as u32 % 5) * 8;
        let sets: Vec<Vec<TaskletTrace>> = (0..dpus).map(|_| random_traces(&mut rng)).collect();
        let mut plan = FaultPlan::uniform(0x5EED ^ case, 0.02 + 0.03 * (case % 7) as f64);
        plan.policy.redistribute = case % 3 != 0;
        let r = replay(dpus, Some(plan), &sets);
        let c = &r.breakdown.counters;
        assert_eq!(
            c.get(CounterId::FaultsInjected),
            c.get(CounterId::FaultsDetected),
            "case {case}: detection must be exact",
        );
        assert_eq!(
            c.get(CounterId::FaultsDetected),
            c.get(CounterId::FaultsRecovered) + c.get(CounterId::FaultsLost),
            "case {case}: every detected fault is recovered or lost",
        );
        assert_eq!(
            r.degraded,
            c.get(CounterId::FaultsLost) > 0,
            "case {case}: degraded iff a partition was dropped",
        );
        assert!(
            c.get(CounterId::FaultRedistributions) <= c.get(CounterId::FaultsRecovered),
            "case {case}",
        );
        // The extended partitions remain zero-remainder.
        assert_eq!(
            c.sum(&CounterId::SLOT_CYCLES),
            c.get(CounterId::DpuCycles),
            "case {case}: slot partition has a remainder",
        );
        assert_eq!(
            c.sum(&CounterId::FAULT_CYCLES),
            c.get(CounterId::SlotFault),
            "case {case}: fault buckets must sum to the fault slice",
        );
        assert_eq!(
            c.sum(&CounterId::TASKLET_CYCLES),
            c.get(CounterId::TaskletBudget),
            "case {case}: tasklet partition has a remainder",
        );
        // Per-tasklet sets keep covering each surviving DPU's makespan.
        for d in &r.dpu_details {
            for t in &d.tasklets {
                assert_eq!(
                    t.sum(&CounterId::TASKLET_CYCLES),
                    d.counters.get(CounterId::DpuCycles),
                    "case {case}: tasklet attribution lost the fault penalty",
                );
            }
        }
    }
}

/// A rate-zero plan is indistinguishable from no plan at all: the whole
/// report and both exporter strings are byte-identical.
#[test]
fn rate_zero_plan_is_byte_identical_to_no_plan() {
    let mut rng = SplitMix64::new(0x0FF0_FA17);
    let sets: Vec<Vec<TaskletTrace>> = (0..24).map(|_| random_traces(&mut rng)).collect();
    let clean = replay(24, None, &sets);
    let zeroed = replay(24, Some(FaultPlan::uniform(0xDEAD_BEEF, 0.0)), &sets);
    assert_eq!(clean, zeroed, "a rate-0 plan must be a perfect no-op");
    assert_eq!(clean.to_json(), zeroed.to_json());
    assert_eq!(clean.counters_csv(), zeroed.counters_csv());
    assert!(!clean.degraded);
}

/// Faulty replays stay bit-identical at every host thread count: fault
/// verdicts are pure hashes of (seed, site), so parallel evaluation cannot
/// perturb them.
#[test]
fn faulty_replay_is_bit_identical_across_thread_counts() {
    let dpus = 64;
    let mut rng = SplitMix64::new(0x0714_EAD5);
    let sets: Vec<Vec<TaskletTrace>> = (0..dpus).map(|_| random_traces(&mut rng)).collect();
    let plan = FaultPlan::uniform(0xC4A0_5111, 0.15);
    set_sim_threads(1);
    let sequential = replay(dpus, Some(plan.clone()), &sets);
    assert!(sequential.breakdown.counters.get(CounterId::FaultsInjected) > 0, "plan too tame");
    for threads in [2, 5, 8] {
        set_sim_threads(threads);
        let parallel = replay(dpus, Some(plan.clone()), &sets);
        assert_eq!(sequential, parallel, "faulty report diverged at {threads} threads");
        assert_eq!(sequential.to_json(), parallel.to_json());
    }
    set_sim_threads(1);
}

/// An unsurvivable plan (every DPU lost, no redistribution possible) drops
/// everything: the report is degraded, every loss is charged, and no
/// instruction retires.
#[test]
fn unsurvivable_plan_degrades_and_charges_every_loss() {
    let mut rng = SplitMix64::new(0xDE_AD00);
    let dpus = 12;
    let sets: Vec<Vec<TaskletTrace>> = (0..dpus).map(|_| random_traces(&mut rng)).collect();
    let plan = FaultPlan::uniform(1, 1.0);
    let r = replay(dpus, Some(plan), &sets);
    assert!(r.degraded);
    let c = &r.breakdown.counters;
    assert_eq!(c.get(CounterId::FaultsLost), dpus as u64);
    assert_eq!(c.get(CounterId::FaultsRecovered), 0);
    assert_eq!(r.total_instructions, 0);
    assert_eq!(r.max_cycles, 0);
}

/// A survivable plan is pure slowdown: same instructions, same or larger
/// makespan, never degraded.
#[test]
fn survivable_plans_only_add_time() {
    let mut rng = SplitMix64::new(0x5AFE_5AFE);
    let dpus = 32;
    let sets: Vec<Vec<TaskletTrace>> = (0..dpus).map(|_| random_traces(&mut rng)).collect();
    let clean = replay(dpus, None, &sets);
    let plan = FaultPlan::uniform(0xFEED_F00D, 0.25);
    let faulty = replay(dpus, Some(plan), &sets);
    assert!(!faulty.degraded, "redistribution makes loss survivable");
    assert_eq!(faulty.total_instructions, clean.total_instructions);
    assert_eq!(faulty.instr_mix, clean.instr_mix);
    assert!(faulty.max_cycles >= clean.max_cycles);
    assert!(
        faulty.breakdown.counters.get(CounterId::SlotFault) > 0,
        "the sweep should have hit at least one detailed DPU",
    );
}

/// Transfer timeouts: the counted transfer helpers retransmit with backoff
/// under the plan, keep the ledger balanced, never get faster, and stay
/// deterministic call-for-call.
#[test]
fn transfer_timeouts_retry_with_backoff_and_balance_the_ledger() {
    let plan = FaultPlan {
        timeout_rate: 0.5,
        ..FaultPlan::uniform(0x7175_E007, 0.0)
    };
    let cfg = PimConfig { num_dpus: 64, faults: Some(plan), ..Default::default() };
    let clean_sys = PimSystem::new(PimConfig { num_dpus: 64, ..Default::default() }).unwrap();
    let sys = PimSystem::new(cfg).unwrap();
    let payloads = vec![4096u64; 64];
    let mut counters = CounterSet::new();
    let mut slower = 0u32;
    for i in 0..32u64 {
        let clean = transfer::scatter_counted(
            &clean_sys.config().transfer,
            &payloads,
            &mut CounterSet::new(),
        );
        let t = sys.scatter_time_counted(&payloads, &mut counters);
        assert!(t >= clean, "iteration {i}: a timeout can only slow a batch down");
        if t > clean {
            slower += 1;
        }
        let _ = sys.broadcast_time_counted(1 << 16, 64, &mut counters);
        let _ = sys.gather_time_counted(&payloads, &mut counters);
    }
    assert!(slower > 4 && slower < 28, "timeout rate 0.5 should fire sometimes: {slower}");
    assert!(counters.get(CounterId::FaultTimeouts) > 0);
    assert_eq!(
        counters.get(CounterId::FaultsInjected),
        counters.get(CounterId::FaultTimeouts),
        "each timeout is one injected fault here",
    );
    assert_eq!(counters.get(CounterId::FaultsDetected), counters.get(CounterId::FaultsInjected));
    assert_eq!(counters.get(CounterId::FaultsRecovered), counters.get(CounterId::FaultsDetected));
    assert_eq!(counters.get(CounterId::FaultsLost), 0);
    assert!(counters.get(CounterId::FaultRetries) >= counters.get(CounterId::FaultTimeouts));
    // Deterministic: replaying the same sequence reproduces the ledger.
    let mut again = CounterSet::new();
    for _ in 0..32u64 {
        let _ = sys.scatter_time_counted(&payloads, &mut again);
        let _ = sys.broadcast_time_counted(1 << 16, 64, &mut again);
        let _ = sys.gather_time_counted(&payloads, &mut again);
    }
    assert_eq!(again, counters, "transfer fault draws must be replayable");
}
