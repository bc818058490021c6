//! End-to-end integrity audit of the silent-corruption layer: ABFT merge
//! guards, the `sdc.*` outcome ledgers, and the DPU health quarantine.
//!
//! * **Detection & correction** — the `sdc` gate (`audit::sdc`, the
//!   same sweep `alpha_pim_cli sdc` runs) over every Table 2 catalog
//!   graph: BFS levels, SSSP distances, and PPR scores computed under a
//!   silent-only fault plan with merge verification on, at 1 and 4
//!   simulation threads, must be bit-identical to the fault-free results,
//!   with `sdc.escaped == 0` and every counter ledger balancing to zero
//!   remainder (`injected = detected + escaped`, `detected = corrected`
//!   among them).
//! * **Escape without the guard** — the gate's control arm: the same
//!   draws with verification off flow through unchecked, every injection
//!   is charged to `sdc.escaped`, and at least one BFS answer in the
//!   sweep diverges.
//! * **Determinism** — verified silent-corruption runs are bit-identical
//!   at 1 and 4 simulation threads (fault draws and checksum verdicts are
//!   pure hashes of seed and site, never of scheduling).
//! * **Quarantine** — the serving plan excludes quarantined DPUs without
//!   changing answers; the service scoreboard trips at the strike
//!   threshold with `quarantine.*` ledgers balancing; quarantining every
//!   DPU degrades gracefully (shed queries, balanced ledgers, no panic);
//!   and the quarantine set is world-checked on checkpoint resume.

use std::sync::OnceLock;

use alpha_pim::apps::AppOptions;
use alpha_pim::serve::{
    fingerprint_results, seeded_trace_weighted, BatchOutcome, QueryResult, ServeConfig,
    ServeEngine,
};
use alpha_pim::service::{seeded_workload, Priority, ServiceConfig, ServiceEngine, TenantSpec};
use alpha_pim::{AlphaPim, CheckpointPolicy, CheckpointStore};
use alpha_pim_bench::audit::{self, SdcReport};
use alpha_pim_bench::harness;
use alpha_pim_sim::par::set_sim_threads;
use alpha_pim_sim::{CounterId, FaultPlan, HostCrashPlan, PimConfig, SimFidelity};

const SCALE: f64 = 0.02;
const SEED: u64 = 0xD1FF;
const FLIP_SEED: u64 = 0x0511_FBAD;

/// The silent-only storm: no detectable fault class fires, so any
/// divergence from a clean run is attributable to the integrity layer.
fn flips(rate: f64) -> FaultPlan {
    FaultPlan::silent(FLIP_SEED, rate)
}

fn config() -> PimConfig {
    PimConfig { num_dpus: 64, fidelity: SimFidelity::Sampled(8), ..Default::default() }
}

fn engine(faults: Option<FaultPlan>) -> AlphaPim {
    AlphaPim::new(PimConfig { faults, ..config() }).expect("valid config")
}

/// The `sdc` gate over the whole catalog at a 15 % flip rate, run once and
/// shared by the verified and the verify-off tests below.
fn catalog_sdc() -> &'static SdcReport {
    static REPORT: OnceLock<SdcReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let graphs = harness::catalog(SCALE, SEED);
        audit::sdc(&config(), &flips(0.15), &graphs, 0, 9, &AppOptions::default())
            .expect("the catalog sweep runs")
    })
}

#[test]
fn verified_answers_survive_silent_corruption_on_every_catalog_graph() {
    let report = catalog_sdc();
    assert_eq!(report.cases.len(), 13 * 3 * audit::SDC_THREADS.len());
    for c in &report.cases {
        let ctx = format!("{} {} at {} threads", c.app, c.graph, c.threads);
        // Correction recomputes the corrupted partition on the same seeded
        // machine, so even floating-point scores are bit-identical.
        assert!(c.values_match, "{ctx}: answers corrupted");
        assert!(!c.degraded, "{ctx}: silent flips must never degrade");
        assert!(c.ledger_ok, "{ctx}: ledgers have a remainder");
        assert_eq!(c.escaped, 0, "{ctx}: corruption escaped");
        if c.detected > 0 {
            assert!(c.corrupted_dpus > 0, "{ctx}: detections must name the offending DPUs");
            assert!(c.recompute_cycles > 0, "{ctx}: corrections must charge recompute cycles");
        }
    }
    assert!(report.injected() > 0, "the flip plan never fired across the whole catalog");
    assert_eq!(report.verdict(), Ok(()));
}

#[test]
fn unverified_runs_let_every_injection_escape() {
    let report = catalog_sdc();
    assert_eq!(report.controls.len(), 13 * 3);
    for c in &report.controls {
        let ctx = format!("unverified {} {}", c.app, c.graph);
        assert!(c.ledger_ok, "{ctx}: ledgers have a remainder");
        assert_eq!(c.detected, 0, "{ctx}: nothing can be detected with the guard off");
        assert_eq!(c.escaped, c.injected, "{ctx}: every injection must be charged as escaped");
        assert_eq!(c.corrupted_dpus, 0, "{ctx}: escapes are silent — no DPU may be named");
    }
    let bfs = || report.controls.iter().filter(|c| c.app == "bfs");
    let escaped: u64 = bfs().map(|c| c.escaped).sum();
    assert!(escaped > 0, "the unverified sweep never injected anything");
    assert!(
        bfs().any(|c| !c.values_match),
        "corruption escaped on every graph yet no BFS answer diverged — \
         the injector is not corrupting live outputs",
    );
}

#[test]
fn verified_flip_runs_are_bit_identical_across_thread_counts() {
    let (abbrev, graph) = harness::catalog(SCALE, SEED).swap_remove(4);
    set_sim_threads(1);
    let sequential =
        engine(Some(flips(0.2))).bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
    for threads in [4, 7] {
        set_sim_threads(threads);
        let parallel =
            engine(Some(flips(0.2))).bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
        assert_eq!(parallel.levels, sequential.levels, "{abbrev}: levels diverged");
        for (p, s) in parallel.report.iterations.iter().zip(&sequential.report.iterations) {
            assert_eq!(
                p.kernel_report, s.kernel_report,
                "{abbrev}: flip verdicts or corruption records diverged at {threads} threads \
                 iter {}",
                s.index,
            );
        }
    }
    set_sim_threads(1);
}

/// A zero flip rate leaves the whole integrity layer inert: reports —
/// including every `sdc.*` counter — are byte-identical to a machine with
/// no fault plan at all, so clean goldens never move.
#[test]
fn zero_flip_rate_is_indistinguishable_from_no_fault_plan() {
    let (abbrev, graph) = harness::catalog(SCALE, SEED).swap_remove(0);
    let clean = engine(None).bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
    let gated = engine(Some(flips(0.0))).bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
    assert_eq!(gated.levels, clean.levels, "{abbrev}: levels moved");
    assert_eq!(
        gated.report.iterations.len(),
        clean.report.iterations.len(),
        "{abbrev}: iteration count moved",
    );
    for (g, c) in gated.report.iterations.iter().zip(&clean.report.iterations) {
        assert_eq!(g.kernel_report, c.kernel_report, "{abbrev}: report moved at iter {}", c.index);
        assert_eq!(
            g.kernel_report.breakdown.counters.get(CounterId::SdcChecks),
            0,
            "{abbrev}: the guard must not even count checks when inert",
        );
    }
}

#[test]
fn quarantine_replans_without_changing_answers() {
    let (_, graph) = harness::catalog(SCALE, SEED).swap_remove(2);
    let weighted = graph.with_random_weights(9);
    let eng = engine(None);
    // Exact (u32 min) semirings only: quarantine re-partitions the machine,
    // and f32 reductions legitimately re-associate across partition
    // boundaries — PPR closeness is asserted separately below.
    let trace = seeded_trace_weighted(weighted.nodes(), 12, 0x5EED, [1, 1, 0]);

    let mut healthy = ServeEngine::new(&eng, ServeConfig::default());
    let (expected, _) = healthy.serve(&weighted, &trace).expect("healthy serve");

    let mut quarantined = ServeEngine::new(&eng, ServeConfig::default());
    quarantined.set_quarantine(&[3, 17, 41]);
    assert_eq!(quarantined.quarantine(), &[3, 17, 41]);
    assert!(!quarantined.total_quarantine());
    let (actual, _) = quarantined.serve(&weighted, &trace).expect("quarantined serve");
    assert_eq!(
        fingerprint_results(&actual),
        fingerprint_results(&expected),
        "excluding DPUs re-partitions the machine but must never change exact answers",
    );

    // PPR on the reduced machine: same scores up to reassociation rounding.
    let ppr_trace = seeded_trace_weighted(weighted.nodes(), 4, 0x5EED, [0, 0, 1]);
    let (ppr_healthy, _) = healthy.serve(&weighted, &ppr_trace).expect("healthy ppr serve");
    let (ppr_reduced, _) = quarantined.serve(&weighted, &ppr_trace).expect("quarantined ppr serve");
    for (h, r) in ppr_healthy.iter().zip(&ppr_reduced) {
        let (QueryResult::Ppr(h), QueryResult::Ppr(r)) = (h, r) else {
            panic!("ppr-only trace produced a non-ppr result");
        };
        for (i, (&a, &b)) in h.scores.iter().zip(&r.scores).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(1e-30),
                "PPR score {i} drifted beyond rounding under quarantine: {a} vs {b}",
            );
        }
    }

    // Lifting the quarantine restores the original plan (and its cache key).
    quarantined.set_quarantine(&[]);
    assert!(quarantined.quarantine().is_empty());
    let (again, _) = quarantined.serve(&weighted, &trace).expect("restored serve");
    assert_eq!(fingerprint_results(&again), fingerprint_results(&expected));
}

fn service_config(quarantine_threshold: Option<u32>) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![
            TenantSpec { weight: 2, priority: Priority::High },
            TenantSpec { weight: 1, priority: Priority::Normal },
        ],
        queue_capacity: 4096,
        deadline_budget_cycles: None,
        quarantine_threshold,
        serve: ServeConfig { batch_size: 4, ..Default::default() },
    }
}

#[test]
fn service_scoreboard_quarantines_struck_dpus_and_balances_its_ledger() {
    let eng = engine(Some(flips(0.35)));
    let graphs = vec![harness::catalog(SCALE, SEED).swap_remove(1).1.with_random_weights(9)];
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    let workload = seeded_workload(0xABCD, 1_000, 48, 2, &nodes, [1, 1, 1]);
    let mut svc = ServiceEngine::new(&eng, service_config(Some(2)));
    let report = svc.run(&graphs, &workload).expect("service survives quarantine churn");

    let c = &report.counters;
    // The quarantine machine partition and the admission/outcome ledgers.
    assert_eq!(c.check_ledgers(), Ok(()), "ledgers broke under quarantine");
    assert_eq!(c.get(CounterId::QuarantineDpusTotal), 64, "scoreboard must track physical DPUs");
    assert!(
        c.get(CounterId::QuarantineStrikes) > 0,
        "a 35% flip rate over 48 queries must record strikes",
    );
    assert!(
        c.get(CounterId::QuarantineEvents) > 0,
        "threshold 2 under sustained strikes must quarantine someone",
    );
    assert_eq!(
        c.get(CounterId::QuarantineEvents),
        c.get(CounterId::QuarantineDpusQuarantined),
        "each quarantine event retires exactly one DPU",
    );
    assert!(
        c.get(CounterId::QuarantineReplans) > 0,
        "tripping the threshold must rebuild the serving plan",
    );
    assert!(
        c.get(CounterId::QuarantineStrikes) >= 2 * c.get(CounterId::QuarantineEvents),
        "no DPU may be quarantined below the strike threshold",
    );
    // Detection still corrects everything while healthy DPUs remain.
    assert_eq!(c.get(CounterId::SdcEscaped), 0, "corruption escaped despite verification");
}

/// Threshold disabled (the default): the same storm records nothing on the
/// quarantine ledger and never re-plans, so existing golden counter rows
/// stay all-zero.
#[test]
fn disabled_scoreboard_keeps_quarantine_counters_zero() {
    let eng = engine(Some(flips(0.35)));
    let graphs = vec![harness::catalog(SCALE, SEED).swap_remove(1).1.with_random_weights(9)];
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    let workload = seeded_workload(0xABCD, 1_000, 16, 2, &nodes, [1, 1, 1]);
    let mut svc = ServiceEngine::new(&eng, service_config(None));
    let report = svc.run(&graphs, &workload).expect("service runs");
    for id in [
        CounterId::QuarantineStrikes,
        CounterId::QuarantineEvents,
        CounterId::QuarantineReplans,
        CounterId::QuarantineDpusTotal,
        CounterId::QuarantineDpusActive,
        CounterId::QuarantineDpusQuarantined,
    ] {
        assert_eq!(report.counters.get(id), 0, "{id} must stay zero with no threshold");
    }
}

/// Every DPU quarantined mid-run: the machine has nowhere left to execute,
/// so remaining queries shed to degraded partial results — batches keep
/// completing, tenant ledgers keep balancing, and nothing panics.
#[test]
fn total_quarantine_degrades_gracefully() {
    let small = AlphaPim::new(PimConfig {
        num_dpus: 4,
        fidelity: SimFidelity::Full,
        faults: Some(flips(1.0)),
        ..Default::default()
    })
    .expect("valid config");
    let graphs = vec![harness::catalog(SCALE, SEED).swap_remove(0).1.with_random_weights(9)];
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    let workload = seeded_workload(0xFADE, 1_000, 32, 2, &nodes, [1, 1, 1]);
    let mut config = service_config(Some(1));
    config.serve.batch_size = 2;
    let mut svc = ServiceEngine::new(&small, config);
    let report = svc.run(&graphs, &workload).expect("total quarantine must not error");

    let c = &report.counters;
    assert_eq!(
        c.get(CounterId::QuarantineDpusQuarantined),
        c.get(CounterId::QuarantineDpusTotal),
        "a 100% flip rate at threshold 1 must eventually retire the whole machine",
    );
    assert_eq!(c.get(CounterId::QuarantineDpusActive), 0);
    assert!(
        report.shed_deadline() > 0,
        "queries after total quarantine must shed to degraded results",
    );
    assert!(report.served() > 0, "queries before the scoreboard tripped must still serve");
    assert_eq!(c.check_ledgers(), Ok(()));
    for (t, ledger) in report.tenants.iter().enumerate() {
        assert_eq!(ledger.check_ledgers(), Ok(()), "tenant {t}");
    }
}


/// The batch snapshot carries the quarantine set (checkpoint layout v3):
/// resuming under the same quarantine finishes bit-identically to an
/// uninterrupted run, and resuming under a different machine shape is
/// rejected as a world mismatch instead of silently merging misrouted
/// partitions.
#[test]
fn quarantine_state_is_world_checked_on_resume() {
    let (_, graph) = harness::catalog(SCALE, SEED).swap_remove(3);
    let weighted = graph.with_random_weights(9);
    let eng = engine(None);
    let trace = seeded_trace_weighted(weighted.nodes(), 8, 0x5EED, [1, 1, 1]);
    let config = ServeConfig {
        batch_size: 8,
        checkpoint: CheckpointPolicy::EveryN(1),
        ..Default::default()
    };
    let quarantine = [5u32, 9];

    // The uninterrupted referee under the same quarantine.
    let mut referee = ServeEngine::new(&eng, config);
    referee.set_quarantine(&quarantine);
    let expected = match referee
        .run_batch_resilient(&weighted, &trace, 0, None, None)
        .expect("uninterrupted batch")
    {
        BatchOutcome::Completed(rs, _) => fingerprint_results(&rs),
        BatchOutcome::Crashed { .. } => unreachable!("no crash was planned"),
    };

    // Crash mid-batch, leaving the snapshot + journal on disk.
    let dir = std::env::temp_dir().join(format!("alpha_pim_integrity_{}", std::process::id()));
    let store = CheckpointStore::open(dir.to_str().expect("utf8 temp path")).expect("store opens");
    let mut victim = ServeEngine::new(&eng, config);
    victim.set_quarantine(&quarantine);
    let checkpoint = match victim
        .run_batch_resilient(&weighted, &trace, 0, Some(HostCrashPlan::at(1)), Some(&store))
        .expect("crash is a planned outcome")
    {
        BatchOutcome::Crashed { checkpoint, .. } => checkpoint,
        BatchOutcome::Completed(..) => panic!("planned crash never fired"),
    };

    // A restarted host with a *different* quarantine view must be refused.
    let mut wrong_world = ServeEngine::new(&eng, config);
    wrong_world.set_quarantine(&[5]);
    assert!(
        wrong_world.resume_batch(&weighted, &checkpoint, None, Some(&store)).is_err(),
        "resuming a snapshot from a differently-quarantined machine must fail the world check",
    );

    // The same quarantine view resumes to a bit-identical answer.
    let mut resumed = ServeEngine::new(&eng, config);
    resumed.set_quarantine(&quarantine);
    let actual = match resumed
        .resume_batch(&weighted, &checkpoint, None, Some(&store))
        .expect("matching world resumes")
    {
        BatchOutcome::Completed(rs, _) => fingerprint_results(&rs),
        BatchOutcome::Crashed { .. } => unreachable!("no second crash was planned"),
    };
    assert_eq!(actual, expected, "resumed answers diverged from the uninterrupted run");
    let _ = std::fs::remove_dir_all(&dir);
}
