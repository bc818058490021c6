//! Chaos audit of the fault-injection & resilience layer on real app runs:
//! for every Table 2 catalog graph, BFS levels, SSSP distances, and PPR
//! scores computed under a survivable seeded `FaultPlan` must equal the
//! fault-free results exactly — redistribution and ECC scrubbing may only
//! cost time, never answers. Unsurvivable plans must instead surface the
//! `degraded` flag, and every faulty run must stay bit-identical across
//! host thread counts and keep the fault ledger and cycle partitions
//! exact.

use alpha_pim::apps::{AppOptions, PprOptions};
use alpha_pim::AlphaPim;
use alpha_pim_bench::harness;
use alpha_pim_sim::par::set_sim_threads;
use alpha_pim_sim::report::KernelReport;
use alpha_pim_sim::{
    CounterSet, FaultPlan, FaultSummary, ObservabilityLevel, PimConfig, ResiliencePolicy,
    SimFidelity,
};

const SCALE: f64 = 0.02;
const SEED: u64 = 0xD1FF;

/// The survivable plan used for the catalog-wide sweeps: every fault class
/// fires, losses are redistributed, ECC events are scrubbed with retries.
fn storm() -> FaultPlan {
    FaultPlan::uniform(0xC4A0_5BAD, 0.15)
}

fn engine(faults: Option<FaultPlan>) -> AlphaPim {
    AlphaPim::new(PimConfig {
        num_dpus: 64,
        fidelity: SimFidelity::Sampled(8),
        observability: ObservabilityLevel::PerDpu,
        faults,
        ..Default::default()
    })
    .expect("valid config")
}

/// Checks every ledger on each iteration's counters (the slot, fault-cycle
/// and tasklet partitions among them) and on their sum over the run (where
/// injected == detected == recovered + lost), returning the sum.
fn audit_ledger(reports: &[&KernelReport], ctx: &str) -> CounterSet {
    let mut total = CounterSet::new();
    for r in reports {
        assert_eq!(r.breakdown.counters.check_ledgers(), Ok(()), "{ctx}");
        total.merge(&r.breakdown.counters);
    }
    assert_eq!(total.check_ledgers(), Ok(()), "{ctx}");
    total
}

#[test]
fn bfs_results_survive_chaos_on_every_catalog_graph() {
    let clean_eng = engine(None);
    let chaos_eng = engine(Some(storm()));
    let mut injected = 0u64;
    for (abbrev, graph) in harness::catalog(SCALE, SEED) {
        let clean = clean_eng.bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
        let faulty = chaos_eng.bfs(&graph, 0, &AppOptions::default()).expect("faulty bfs runs");
        assert_eq!(faulty.levels, clean.levels, "BFS levels changed under chaos on {abbrev}");
        assert!(!faulty.report.degraded, "survivable plan must not degrade {abbrev}");
        let reports: Vec<&KernelReport> =
            faulty.report.iterations.iter().map(|s| &s.kernel_report).collect();
        let total = audit_ledger(&reports, &format!("BFS {abbrev}"));
        let summary = FaultSummary::from_counters(&total);
        assert!(summary.fully_recovered(), "BFS {abbrev}: lost faults on a survivable plan");
        injected += summary.injected;
        assert!(
            faulty.report.total_seconds() >= clean.report.total_seconds(),
            "chaos can only slow {abbrev} down",
        );
    }
    assert!(injected > 0, "the storm plan never fired across the whole catalog");
}

#[test]
fn sssp_results_survive_chaos_on_every_catalog_graph() {
    let clean_eng = engine(None);
    let chaos_eng = engine(Some(storm()));
    for (abbrev, graph) in harness::catalog(SCALE, SEED) {
        let weighted = graph.with_random_weights(9);
        let clean = clean_eng.sssp(&weighted, 0, &AppOptions::default()).expect("sssp runs");
        let faulty =
            chaos_eng.sssp(&weighted, 0, &AppOptions::default()).expect("faulty sssp runs");
        assert_eq!(
            faulty.distances, clean.distances,
            "SSSP distances changed under chaos on {abbrev}",
        );
        assert!(!faulty.report.degraded, "survivable plan must not degrade {abbrev}");
        let reports: Vec<&KernelReport> =
            faulty.report.iterations.iter().map(|s| &s.kernel_report).collect();
        let total = audit_ledger(&reports, &format!("SSSP {abbrev}"));
        let summary = FaultSummary::from_counters(&total);
        assert!(summary.fully_recovered(), "SSSP {abbrev}: lost faults");
    }
}

#[test]
fn ppr_results_survive_chaos_on_every_catalog_graph() {
    let clean_eng = engine(None);
    let chaos_eng = engine(Some(storm()));
    for (abbrev, graph) in harness::catalog(SCALE, SEED) {
        let clean = clean_eng.ppr(&graph, 0, &PprOptions::default()).expect("ppr runs");
        let faulty = chaos_eng.ppr(&graph, 0, &PprOptions::default()).expect("faulty ppr runs");
        // Recovery re-runs the same partitions, so even floating-point
        // scores must be bit-identical, not merely close.
        assert_eq!(faulty.scores, clean.scores, "PPR scores changed under chaos on {abbrev}");
        assert!(!faulty.report.degraded, "survivable plan must not degrade {abbrev}");
        let reports: Vec<&KernelReport> =
            faulty.report.iterations.iter().map(|s| &s.kernel_report).collect();
        let total = audit_ledger(&reports, &format!("PPR {abbrev}"));
        let summary = FaultSummary::from_counters(&total);
        assert!(summary.fully_recovered(), "PPR {abbrev}: lost faults");
    }
}

/// A matrix of single-class and mixed plans, including the zero-retry
/// policy that escalates ECC events to redistributed losses: each one
/// keeps BFS answers exact and its ledger balanced.
#[test]
fn fault_plan_matrix_keeps_bfs_exact() {
    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "loss-only",
            FaultPlan { dpu_loss_rate: 0.2, ..FaultPlan::uniform(0xA1, 0.0) },
        ),
        (
            "bitflip-only",
            FaultPlan { bitflip_rate: 0.3, ..FaultPlan::uniform(0xB2, 0.0) },
        ),
        (
            "straggler+timeout",
            FaultPlan {
                straggler_rate: 0.4,
                straggler_multiplier: 2.0,
                timeout_rate: 0.3,
                ..FaultPlan::uniform(0xC3, 0.0)
            },
        ),
        (
            "zero-retry escalation",
            FaultPlan {
                bitflip_rate: 0.3,
                policy: ResiliencePolicy { max_retries: 0, ..ResiliencePolicy::default() },
                ..FaultPlan::uniform(0xD4, 0.0)
            },
        ),
        ("everything", storm()),
    ];
    let (abbrev, graph) = harness::catalog(SCALE, SEED).swap_remove(2);
    let clean = engine(None).bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
    for (name, plan) in plans {
        let faulty = engine(Some(plan))
            .bfs(&graph, 0, &AppOptions::default())
            .expect("faulty bfs runs");
        assert_eq!(
            faulty.levels, clean.levels,
            "plan `{name}` changed BFS levels on {abbrev}",
        );
        assert!(!faulty.report.degraded, "plan `{name}` must be survivable");
        let reports: Vec<&KernelReport> =
            faulty.report.iterations.iter().map(|s| &s.kernel_report).collect();
        audit_ledger(&reports, &format!("plan `{name}` on {abbrev}"));
    }
}

/// With every DPU lost there is nowhere to redistribute to: the run
/// completes but flags `degraded` on the app report, and every loss is
/// charged to the ledger.
#[test]
fn unsurvivable_plan_reports_degraded() {
    let plan = FaultPlan { dpu_loss_rate: 1.0, ..FaultPlan::uniform(1, 0.0) };
    let (abbrev, graph) = harness::catalog(SCALE, SEED).swap_remove(0);
    let faulty = engine(Some(plan)).bfs(&graph, 0, &AppOptions::default()).expect("bfs completes");
    assert!(faulty.report.degraded, "total loss must degrade {abbrev}");
    let mut total = CounterSet::new();
    for s in &faulty.report.iterations {
        total.merge(&s.kernel_report.breakdown.counters);
    }
    let summary = FaultSummary::from_counters(&total);
    assert!(summary.lost > 0, "losses must be charged");
    assert!(!summary.fully_recovered());
}

/// The same chaos run is bit-identical at 1 and N host threads: verdicts
/// are pure hashes of (seed, site), never of scheduling.
#[test]
fn chaos_runs_are_bit_identical_across_thread_counts() {
    let (abbrev, graph) = harness::catalog(SCALE, SEED).swap_remove(4);
    set_sim_threads(1);
    let sequential = engine(Some(storm()))
        .bfs(&graph, 0, &AppOptions::default())
        .expect("bfs runs");
    for threads in [4, 7] {
        set_sim_threads(threads);
        let parallel = engine(Some(storm()))
            .bfs(&graph, 0, &AppOptions::default())
            .expect("bfs runs");
        assert_eq!(parallel.levels, sequential.levels, "{abbrev}: levels diverged");
        assert_eq!(
            parallel.report.iterations.len(),
            sequential.report.iterations.len(),
            "{abbrev}: iteration count diverged at {threads} threads",
        );
        for (p, s) in parallel.report.iterations.iter().zip(&sequential.report.iterations) {
            assert_eq!(
                p.kernel_report, s.kernel_report,
                "{abbrev}: faulty kernel report diverged at {threads} threads iter {}",
                s.index,
            );
        }
    }
    set_sim_threads(1);
}
