//! Crash-at-every-boundary sweep for the checkpoint/restore layer.
//!
//! The contract under test: a serving batch killed at ANY superstep
//! boundary and resumed from its snapshot + write-ahead journal produces
//! results, reports, and counters bit-identical to the uninterrupted run —
//! at any `SimThreads` count, with or without a survivable fault plan —
//! and `ckpt.restores` is the ONLY counter allowed to differ. With the
//! policy disabled the recovery layer must be byte-invisible.

use alpha_pim::apps::{AppOptions, PprOptions};
use alpha_pim::serve::{seeded_trace, BatchOutcome, Query, ServeConfig, ServeEngine};
use alpha_pim::service::{
    seeded_workload, ServiceConfig, ServiceEngine, ServiceOutcome, ServiceReport, TenantSpec,
};
use alpha_pim::{
    AlphaPim, AlphaPimError, BatchCheckpoint, CheckpointPolicy, CheckpointStore, RecoverError,
};
use alpha_pim_sim::par::set_sim_threads;
use alpha_pim_sim::report::BatchReport;
use alpha_pim_sim::{
    CounterId, FaultPlan, HostCrashPlan, ObservabilityLevel, PimConfig, RecoverySummary,
    SimFidelity,
};
use alpha_pim_sparse::{datasets, Graph};

/// The survivable chaos plan half the sweep runs under: every fault class
/// fires, losses are redistributed, so results stay complete.
fn storm() -> FaultPlan {
    FaultPlan::uniform(0xC4A0_5BAD, 0.15)
}

fn engine(faults: Option<FaultPlan>) -> AlphaPim {
    AlphaPim::new(PimConfig {
        num_dpus: 16,
        fidelity: SimFidelity::Sampled(4),
        observability: ObservabilityLevel::PerDpu,
        faults,
        ..Default::default()
    })
    .expect("valid config")
}

/// Three catalog graphs scaled to sweep-friendly sizes (~200 nodes), with
/// weights so SSSP queries exercise the (min, +) path.
fn catalog_graphs() -> Vec<(&'static str, Graph)> {
    [("as00", 0.03), ("face", 0.05), ("p2p-24", 0.008)]
        .into_iter()
        .map(|(abbrev, scale)| {
            let g = datasets::by_abbrev(abbrev)
                .expect("catalog entry")
                .generate_scaled(scale, 0xD1FF)
                .expect("catalog recipes are valid")
                .with_random_weights(9);
            (abbrev, g)
        })
        .collect()
}

/// Iteration caps keep the boundary sweep quadratic-in-small.
fn config(checkpoint: CheckpointPolicy) -> ServeConfig {
    ServeConfig {
        options: AppOptions { max_iterations: 12, ..Default::default() },
        ppr: PprOptions {
            app: AppOptions { max_iterations: 8, ..Default::default() },
            ..Default::default()
        },
        checkpoint,
        ..Default::default()
    }
}

fn trace(g: &Graph) -> Vec<Query> {
    seeded_trace(g.nodes(), 5, 0x5EED_0005)
}

/// `ckpt.restores` is the one counter a resumed run may differ in; zero it
/// on both sides so whole-report equality checks the rest bit-for-bit.
fn modulo_restores(report: &BatchReport) -> BatchReport {
    let mut r = report.clone();
    r.counters.set(CounterId::CkptRestores, 0);
    r
}

/// Strips all recovery accounting, for comparing a checkpointed run
/// against a recovery-free twin.
fn modulo_ckpt(report: &BatchReport) -> BatchReport {
    let mut r = report.clone();
    r.counters.set(CounterId::CkptSnapshots, 0);
    r.counters.set(CounterId::CkptBytes, 0);
    r.counters.set(CounterId::CkptRestores, 0);
    r
}

fn completed(outcome: BatchOutcome, ctx: &str) -> (Vec<alpha_pim::serve::QueryResult>, BatchReport)
{
    match outcome {
        BatchOutcome::Completed(results, report) => (results, report),
        BatchOutcome::Crashed { superstep, .. } => {
            panic!("{ctx}: unexpected crash at boundary {superstep}")
        }
    }
}

/// Kills the batch at every superstep boundary in turn, resumes it in a
/// fresh engine, and demands bit-identity with the uninterrupted run —
/// across thread counts and with/without the fault storm.
#[test]
fn crash_at_every_boundary_resumes_bit_identical() {
    for (abbrev, g) in catalog_graphs() {
        for faults in [None, Some(storm())] {
            for threads in [1usize, 4] {
                set_sim_threads(threads);
                let fctx = if faults.is_some() { "storm" } else { "clean" };
                let ctx = format!("{abbrev}/{fctx}/t{threads}");
                let eng = engine(faults.clone());
                let queries = trace(&g);

                let baseline = ServeEngine::new(&eng, config(CheckpointPolicy::EveryN(1)))
                    .run_batch_resilient(&g, &queries, 7, None, None)
                    .expect("baseline runs");
                let (base_results, base_report) = completed(baseline, &ctx);
                assert!(base_report.supersteps > 1, "{ctx}: sweep needs boundaries");

                for k in 0..base_report.supersteps {
                    let outcome = ServeEngine::new(&eng, config(CheckpointPolicy::EveryN(1)))
                        .run_batch_resilient(&g, &queries, 7, Some(HostCrashPlan::at(k.into())), None)
                        .expect("crashing run returns its checkpoint");
                    let BatchOutcome::Crashed { superstep, checkpoint } = outcome else {
                        panic!("{ctx}: crash at {k} did not fire");
                    };
                    assert_eq!(superstep, k, "{ctx}: crash fired at the wrong boundary");

                    let resumed = ServeEngine::new(&eng, config(CheckpointPolicy::EveryN(1)))
                        .resume_batch(&g, &checkpoint, None, None)
                        .expect("resume runs");
                    let (results, report) = completed(resumed, &ctx);
                    assert_eq!(
                        format!("{results:?}"),
                        format!("{base_results:?}"),
                        "{ctx}: results diverged after crash at boundary {k}",
                    );
                    assert_eq!(
                        modulo_restores(&report),
                        modulo_restores(&base_report),
                        "{ctx}: report diverged after crash at boundary {k}",
                    );
                    assert_eq!(
                        RecoverySummary::from_counters(&report.counters).restores,
                        1,
                        "{ctx}: exactly one restore must be counted",
                    );
                }
            }
        }
    }
    set_sim_threads(1);
}

/// A second crash during the resume is survivable too: resume, crash
/// again later, resume again — still bit-identical (modulo two restores).
#[test]
fn crash_during_resume_survives_a_second_resume() {
    set_sim_threads(1);
    let (_, g) = catalog_graphs().swap_remove(1);
    let eng = engine(None);
    let queries = trace(&g);
    let cfg = config(CheckpointPolicy::EveryN(1));

    let (base_results, base_report) = completed(
        ServeEngine::new(&eng, cfg)
            .run_batch_resilient(&g, &queries, 1, None, None)
            .expect("baseline runs"),
        "baseline",
    );
    assert!(base_report.supersteps >= 3, "need room for two crashes");

    let BatchOutcome::Crashed { checkpoint, .. } = ServeEngine::new(&eng, cfg)
        .run_batch_resilient(&g, &queries, 1, Some(HostCrashPlan::at(0)), None)
        .expect("first crash returns a checkpoint")
    else {
        panic!("first crash did not fire");
    };
    let BatchOutcome::Crashed { superstep, checkpoint } = ServeEngine::new(&eng, cfg)
        .resume_batch(&g, &checkpoint, Some(HostCrashPlan::at(2)), None)
        .expect("second crash returns a checkpoint")
    else {
        panic!("second crash did not fire");
    };
    assert_eq!(superstep, 2);
    let (results, report) = completed(
        ServeEngine::new(&eng, cfg)
            .resume_batch(&g, &checkpoint, None, None)
            .expect("final resume runs"),
        "final resume",
    );
    assert_eq!(format!("{results:?}"), format!("{base_results:?}"));
    assert_eq!(modulo_restores(&report), modulo_restores(&base_report));
    assert_eq!(RecoverySummary::from_counters(&report.counters).restores, 2);
}

/// With the policy disabled and no crash plan, the recovery layer is
/// byte-invisible: `run_batch_resilient` equals plain `run_batch` exactly,
/// and an `EveryN(1)` run differs only in its `ckpt.*` accounting.
#[test]
fn disabled_policy_is_byte_identical_and_checkpointing_only_adds_ckpt_counters() {
    set_sim_threads(1);
    let (_, g) = catalog_graphs().swap_remove(0);
    let eng = engine(None);
    let queries = trace(&g);

    let (plain_results, plain_report) = ServeEngine::new(&eng, config(CheckpointPolicy::Disabled))
        .run_batch(&g, &queries)
        .expect("plain batch runs");
    let (res_results, res_report) = completed(
        ServeEngine::new(&eng, config(CheckpointPolicy::Disabled))
            .run_batch_resilient(&g, &queries, 99, None, None)
            .expect("resilient batch runs"),
        "disabled resilient",
    );
    assert_eq!(format!("{res_results:?}"), format!("{plain_results:?}"));
    assert_eq!(res_report, plain_report, "disabled recovery must be byte-invisible");
    assert!(RecoverySummary::from_counters(&res_report.counters).is_empty());

    let (ck_results, ck_report) = completed(
        ServeEngine::new(&eng, config(CheckpointPolicy::EveryN(1)))
            .run_batch_resilient(&g, &queries, 99, None, None)
            .expect("checkpointed batch runs"),
        "checkpointed",
    );
    assert_eq!(format!("{ck_results:?}"), format!("{plain_results:?}"));
    assert_eq!(modulo_ckpt(&ck_report), modulo_ckpt(&plain_report));
    let summary = RecoverySummary::from_counters(&ck_report.counters);
    assert_eq!(summary.snapshots as u32, ck_report.supersteps + 1, "initial + per-boundary");
    assert!(summary.bytes > 0, "overhead must be accounted");
    assert_eq!(summary.restores, 0);
}

/// The cadence knob is honored by `EveryN(3)`: the initial armed snapshot
/// plus one at every third boundary.
#[test]
fn checkpoint_policies_fire_at_their_cadence() {
    set_sim_threads(1);
    let (_, g) = catalog_graphs().swap_remove(0);
    let eng = engine(None);
    let queries = trace(&g);

    let (_, every3) = completed(
        ServeEngine::new(&eng, config(CheckpointPolicy::EveryN(3)))
            .run_batch_resilient(&g, &queries, 0, None, None)
            .expect("runs"),
        "EveryN(3)",
    );
    let s3 = RecoverySummary::from_counters(&every3.counters).snapshots;
    assert_eq!(s3 as u32, 1 + every3.supersteps / 3, "initial + every third boundary");
}

/// Deadline budgets shed over-budget queries gracefully: `degraded` set,
/// `serve.shed` counted, partial results returned, never a panic.
#[test]
fn deadline_shed_queries_degrade_gracefully_with_balanced_ledgers() {
    set_sim_threads(1);
    let (_, g) = catalog_graphs().swap_remove(2);
    let eng = engine(None);
    let queries = trace(&g);

    let strict = ServeConfig { deadline_cycles: Some(1), ..config(CheckpointPolicy::Disabled) };
    let (results, report) = ServeEngine::new(&eng, strict)
        .run_batch(&g, &queries)
        .expect("shedding must not error");
    assert!(report.degraded, "an impossible deadline degrades the batch");
    let shed = RecoverySummary::from_counters(&report.counters).shed;
    let degraded = results.iter().filter(|r| r.report().degraded).count() as u64;
    assert_eq!(shed, degraded, "serve.shed must match degraded results");
    assert_eq!(shed, queries.len() as u64, "a 1-cycle budget sheds everything");
    for r in &results {
        assert_eq!(r.report().iterations.len(), 1, "shed after the first superstep");
    }

    let generous =
        ServeConfig { deadline_cycles: Some(u64::MAX), ..config(CheckpointPolicy::Disabled) };
    let (gen_results, gen_report) =
        ServeEngine::new(&eng, generous).run_batch(&g, &queries).expect("runs");
    let (plain_results, plain_report) = ServeEngine::new(&eng, config(CheckpointPolicy::Disabled))
        .run_batch(&g, &queries)
        .expect("runs");
    assert_eq!(format!("{gen_results:?}"), format!("{plain_results:?}"));
    assert_eq!(gen_report, plain_report, "an unreachable deadline changes nothing");
}

/// A sheddable batch still checkpoints and resumes bit-identically: the
/// shed decision replays deterministically from the snapshot.
#[test]
fn shedding_and_checkpointing_compose() {
    set_sim_threads(1);
    let (_, g) = catalog_graphs().swap_remove(1);
    let eng = engine(None);
    let queries = trace(&g);
    let cfg = ServeConfig {
        deadline_cycles: Some(40_000),
        ..config(CheckpointPolicy::EveryN(1))
    };

    let (base_results, base_report) = completed(
        ServeEngine::new(&eng, cfg)
            .run_batch_resilient(&g, &queries, 3, None, None)
            .expect("baseline runs"),
        "shed baseline",
    );
    for k in 0..base_report.supersteps {
        let BatchOutcome::Crashed { checkpoint, .. } = ServeEngine::new(&eng, cfg)
            .run_batch_resilient(&g, &queries, 3, Some(HostCrashPlan::at(k.into())), None)
            .expect("crash returns checkpoint")
        else {
            panic!("crash at {k} did not fire");
        };
        let (results, report) = completed(
            ServeEngine::new(&eng, cfg).resume_batch(&g, &checkpoint, None, None).expect("resumes"),
            "shed resume",
        );
        assert_eq!(format!("{results:?}"), format!("{base_results:?}"), "boundary {k}");
        assert_eq!(modulo_restores(&report), modulo_restores(&base_report), "boundary {k}");
    }
}

/// The on-disk store round-trips: a crashed batch's state survives a
/// process boundary (modeled by reopening the store) and resumes exactly.
#[test]
fn checkpoint_store_persists_across_reopen() {
    set_sim_threads(1);
    let dir = std::env::temp_dir().join(format!("alpha_pim_ckpt_{}_reopen", std::process::id()));
    let (_, g) = catalog_graphs().swap_remove(0);
    let eng = engine(None);
    let queries = trace(&g);
    let cfg = config(CheckpointPolicy::EveryN(1));

    let (base_results, _) = completed(
        ServeEngine::new(&eng, cfg)
            .run_batch_resilient(&g, &queries, 42, None, None)
            .expect("baseline runs"),
        "store baseline",
    );

    let store = CheckpointStore::open(&dir).expect("store opens");
    let BatchOutcome::Crashed { checkpoint, .. } = ServeEngine::new(&eng, cfg)
        .run_batch_resilient(&g, &queries, 42, Some(HostCrashPlan::at(1)), Some(&store))
        .expect("crash returns checkpoint")
    else {
        panic!("crash did not fire");
    };
    drop(store);

    // A "restarted process" reopens the directory and finds the same state.
    let reopened = CheckpointStore::open(&dir).expect("store reopens");
    let loaded = reopened.load().expect("load succeeds").expect("checkpoint present");
    assert_eq!(loaded.snapshot, checkpoint.snapshot, "snapshot survives the disk round-trip");
    assert_eq!(loaded.journal, checkpoint.journal, "journal survives the disk round-trip");
    assert_eq!(loaded.tag().expect("tag decodes"), 42);

    let (results, _) = completed(
        ServeEngine::new(&eng, cfg)
            .resume_batch(&g, &loaded, None, None)
            .expect("resume from disk runs"),
        "store resume",
    );
    assert_eq!(format!("{results:?}"), format!("{base_results:?}"));

    reopened.clear().expect("clear succeeds");
    assert!(reopened.load().expect("load succeeds").is_none(), "cleared store is empty");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Zeroes the `ckpt.*` accounting on a service report: a resumed
/// sustained-load run re-executes pre-crash batches (re-snapshotting them)
/// but restores the crashed batch from its snapshot, so snapshot/byte
/// counts legitimately differ — everything else must be bit-identical.
fn service_modulo_ckpt(report: &ServiceReport) -> ServiceReport {
    let mut r = report.clone();
    r.counters.set(CounterId::CkptSnapshots, 0);
    r.counters.set(CounterId::CkptBytes, 0);
    r.counters.set(CounterId::CkptRestores, 0);
    r
}

/// Service-level chaos: a three-tenant sustained load over all three
/// catalog graphs, under the fault storm, checkpointing every boundary,
/// killed by a planned host crash inside a mid-run batch — then resumed
/// from the on-disk store by a "restarted process". The resumed run must
/// reproduce the uninterrupted run's result fingerprint, dispatch order,
/// latencies, and per-tenant ledgers exactly.
#[test]
fn service_sustained_load_survives_host_crash_mid_run() {
    set_sim_threads(1);
    let dir = std::env::temp_dir().join(format!("alpha_pim_ckpt_{}_service", std::process::id()));
    let graphs: Vec<Graph> = catalog_graphs().into_iter().map(|(_, g)| g).collect();
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    let eng = engine(Some(storm()));
    let workload = seeded_workload(0xC4A0_0001, 5_000, 18, 3, &nodes, [2, 2, 1]);
    let service_config = || ServiceConfig {
        tenants: vec![
            TenantSpec { weight: 4, ..Default::default() },
            TenantSpec { weight: 2, ..Default::default() },
            TenantSpec { weight: 1, ..Default::default() },
        ],
        serve: ServeConfig { batch_size: 4, ..config(CheckpointPolicy::EveryN(1)) },
        ..Default::default()
    };

    // The uninterrupted twin.
    let base = ServiceEngine::new(&eng, service_config())
        .run(&graphs, &workload)
        .expect("uninterrupted run completes");
    assert!(base.batches >= 4, "chaos needs a mid-run batch to kill");
    assert_eq!(base.served(), 18, "the storm is survivable: nothing sheds");

    // Kill batch 2 at its first superstep boundary, snapshots on disk.
    let store = CheckpointStore::open(&dir).expect("store opens");
    let outcome = ServiceEngine::new(&eng, service_config())
        .run_dynamic_resilient(
            &graphs,
            &workload,
            &[],
            Some((2, HostCrashPlan::at(1))),
            Some(&store),
        )
        .expect("crashing run returns its checkpoint");
    let ServiceOutcome::Crashed { batch_tag, checkpoint } = outcome else {
        panic!("the planned host crash did not fire");
    };
    assert_eq!(batch_tag, 2, "the crash must land in the tagged batch");
    drop(store);

    // A restarted process finds the checkpoint on disk and resumes.
    let reopened = CheckpointStore::open(&dir).expect("store reopens");
    let loaded = reopened.load().expect("load succeeds").expect("checkpoint present");
    assert_eq!(loaded.snapshot, checkpoint.snapshot, "snapshot survives the process boundary");
    let resumed = ServiceEngine::new(&eng, service_config())
        .resume_dynamic(&graphs, &workload, &[], &loaded, Some(&reopened))
        .expect("resumed run completes");
    let ServiceOutcome::Completed(resumed) = resumed else {
        panic!("the resumed run crashed again without a plan");
    };

    assert_eq!(
        resumed.result_fingerprint, base.result_fingerprint,
        "resumed results diverged from the uninterrupted run"
    );
    assert_eq!(resumed.dispatch_order, base.dispatch_order, "scheduling decisions diverged");
    assert_eq!(resumed.latencies_cycles, base.latencies_cycles, "latencies diverged");
    assert_eq!(resumed.tenants, base.tenants, "per-tenant ledgers diverged");
    assert_eq!(resumed.makespan_cycles, base.makespan_cycles, "the model clock diverged");
    assert_eq!(
        service_modulo_ckpt(&resumed),
        service_modulo_ckpt(&base),
        "reports diverged beyond recovery accounting"
    );
    assert_eq!(
        RecoverySummary::from_counters(&resumed.counters).restores,
        1,
        "exactly one restore must be counted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dynamic-graph chaos: the same sustained load under the fault storm, but
/// with seeded mutation batches landing on the model clock — one before
/// the first dispatch, one mid-run — and the host killed inside a batch
/// PAST a mutation-epoch boundary. The resumed process replays the drive
/// loop from the top: pre-crash batches re-execute, the graphs re-mutate
/// through the same epochs, the crashed batch restores from its snapshot
/// against the *mutated* graph's fingerprint (the checkpoint world-check),
/// and the final report reproduces the uninterrupted run exactly —
/// `delta.*` ledgers included.
#[test]
fn dynamic_service_survives_host_crash_across_epoch_boundary() {
    use alpha_pim::service::MutationEvent;
    use alpha_pim_sparse::delta::seeded_batch;

    set_sim_threads(1);
    let dir = std::env::temp_dir().join(format!("alpha_pim_ckpt_{}_dynamic", std::process::id()));
    let graphs: Vec<Graph> = catalog_graphs().into_iter().map(|(_, g)| g).collect();
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    let eng = engine(Some(storm()));
    let workload = seeded_workload(0xC4A0_0002, 5_000, 18, 3, &nodes, [2, 2, 1]);
    let mutations = vec![
        // Lands before the first dispatch: every batch serves epoch 1.
        MutationEvent {
            at_cycle: 1,
            graph: 0,
            batch: seeded_batch(graphs[0].adjacency(), 0xD711, 24, 9),
        },
        // Lands mid-run, before the batch the crash kills.
        MutationEvent {
            at_cycle: workload[6].at_cycle,
            graph: 1,
            batch: seeded_batch(graphs[1].adjacency(), 0xD712, 24, 9),
        },
    ];
    let service_config = || ServiceConfig {
        tenants: vec![
            TenantSpec { weight: 4, ..Default::default() },
            TenantSpec { weight: 2, ..Default::default() },
            TenantSpec { weight: 1, ..Default::default() },
        ],
        serve: ServeConfig { batch_size: 4, ..config(CheckpointPolicy::EveryN(1)) },
        ..Default::default()
    };

    // The uninterrupted twin.
    let base = ServiceEngine::new(&eng, service_config())
        .run_dynamic(&graphs, &workload, &mutations)
        .expect("uninterrupted dynamic run completes");
    assert!(base.batches >= 4, "chaos needs a mid-run batch to kill");
    assert_eq!(base.counters.get(CounterId::DeltaEpochs), 2, "both epochs must land");
    assert_eq!(base.served(), 18, "the storm is survivable: nothing sheds");

    // Kill batch 3 at its first superstep boundary — by then at least one
    // mutation epoch is behind us, so the resume crosses the boundary.
    let store = CheckpointStore::open(&dir).expect("store opens");
    let outcome = ServiceEngine::new(&eng, service_config())
        .run_dynamic_resilient(
            &graphs,
            &workload,
            &mutations,
            Some((3, HostCrashPlan::at(1))),
            Some(&store),
        )
        .expect("crashing run returns its checkpoint");
    let ServiceOutcome::Crashed { batch_tag, checkpoint } = outcome else {
        panic!("the planned host crash did not fire");
    };
    assert_eq!(batch_tag, 3, "the crash must land in the tagged batch");
    drop(store);

    // A restarted process resumes from disk; the crashed batch's snapshot
    // world-check must accept the re-mutated graph's fingerprint.
    let reopened = CheckpointStore::open(&dir).expect("store reopens");
    let loaded = reopened.load().expect("load succeeds").expect("checkpoint present");
    assert_eq!(loaded.snapshot, checkpoint.snapshot, "snapshot survives the process boundary");
    let resumed = ServiceEngine::new(&eng, service_config())
        .resume_dynamic(&graphs, &workload, &mutations, &loaded, Some(&reopened))
        .expect("resumed dynamic run completes");
    let ServiceOutcome::Completed(resumed) = resumed else {
        panic!("the resumed run crashed again without a plan");
    };

    assert_eq!(
        resumed.result_fingerprint, base.result_fingerprint,
        "resumed results diverged from the uninterrupted run"
    );
    assert_eq!(resumed.dispatch_order, base.dispatch_order, "scheduling decisions diverged");
    assert_eq!(resumed.latencies_cycles, base.latencies_cycles, "latencies diverged");
    assert_eq!(resumed.makespan_cycles, base.makespan_cycles, "the model clock diverged");
    assert_eq!(
        service_modulo_ckpt(&resumed),
        service_modulo_ckpt(&base),
        "reports diverged beyond recovery accounting — delta ledgers included"
    );
    assert_eq!(
        RecoverySummary::from_counters(&resumed.counters).restores,
        1,
        "exactly one restore must be counted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Negative space: version skew, checksum corruption, truncation, a torn
/// journal tail, and a wrong-world resume. Corrupt state is rejected with
/// typed errors before anything is deserialized; a torn tail is tolerated.
#[test]
fn corrupted_checkpoints_are_rejected_with_typed_errors() {
    set_sim_threads(1);
    let mut graphs = catalog_graphs();
    let (_, other) = graphs.swap_remove(2);
    let (_, g) = graphs.swap_remove(0);
    let eng = engine(None);
    let queries = trace(&g);
    let cfg = config(CheckpointPolicy::EveryN(1));

    let BatchOutcome::Crashed { checkpoint, .. } = ServeEngine::new(&eng, cfg)
        .run_batch_resilient(&g, &queries, 0, Some(HostCrashPlan::at(1)), None)
        .expect("crash returns checkpoint")
    else {
        panic!("crash did not fire");
    };

    let resume = |ck: &BatchCheckpoint| ServeEngine::new(&eng, cfg).resume_batch(&g, ck, None, None);

    // Version skew: bytes 4..8 of the sealed container are the version.
    let mut skewed = checkpoint.snapshot.clone();
    skewed[4] = skewed[4].wrapping_add(1);
    let err = resume(&BatchCheckpoint { snapshot: skewed, journal: checkpoint.journal.clone() })
        .expect_err("version skew must be rejected");
    assert!(
        matches!(err, AlphaPimError::Recover(RecoverError::Version { .. })),
        "got {err:?}"
    );

    // Payload corruption: flip one byte past the header.
    let mut corrupt = checkpoint.snapshot.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    let err = resume(&BatchCheckpoint { snapshot: corrupt, journal: checkpoint.journal.clone() })
        .expect_err("checksum corruption must be rejected");
    assert!(
        matches!(err, AlphaPimError::Recover(RecoverError::Checksum { .. })),
        "got {err:?}"
    );

    // Truncation: a half-written snapshot never deserializes.
    for cut in [3usize, 16, checkpoint.snapshot.len() / 2, checkpoint.snapshot.len() - 1] {
        let torn = checkpoint.snapshot[..cut].to_vec();
        let err = resume(&BatchCheckpoint { snapshot: torn, journal: checkpoint.journal.clone() })
            .expect_err("truncated snapshot must be rejected");
        assert!(
            matches!(
                err,
                AlphaPimError::Recover(RecoverError::Truncated { .. } | RecoverError::Checksum { .. })
            ),
            "cut {cut}: got {err:?}"
        );
    }

    // A torn journal tail (crash mid-append) is tolerated, not fatal.
    let mut torn_journal = checkpoint.journal.clone();
    torn_journal.extend_from_slice(b"APCK\x01\x00");
    let torn = BatchCheckpoint { snapshot: checkpoint.snapshot.clone(), journal: torn_journal };
    let (results, _) = completed(resume(&torn).expect("torn tail resumes"), "torn tail");
    let (base, _) = completed(resume(&checkpoint).expect("clean resume"), "clean");
    assert_eq!(format!("{results:?}"), format!("{base:?}"));

    // Wrong world: resuming against a different graph is a mismatch.
    let err = ServeEngine::new(&eng, cfg)
        .resume_batch(&other, &checkpoint, None, None)
        .expect_err("wrong graph must be rejected");
    assert!(
        matches!(err, AlphaPimError::Recover(RecoverError::Mismatch(_))),
        "got {err:?}"
    );
}
