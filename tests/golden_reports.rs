//! Golden-snapshot tests freezing the `KernelReport` + `CycleBreakdown`
//! observability output for one fixed-seed graph per kernel. Any change to
//! the pipeline timing model, the counter taxonomy, or the attribution
//! walk shows up here as a diff against the frozen fingerprint — update
//! the constants only when the model change is intentional. Whole
//! application runs (BFS, SSSP, PPR, widest-path, WCC) and one crashed
//! batch's checkpoint bytes are frozen on the same graph as digests. The
//! `Sampled` goldens freeze the estimate path on a 64-DPU machine that
//! replays every eighth DPU: every kernel variant on a one-vertex and a
//! dense frontier, fault-free and faulty, plus BFS, SSSP and PPR runs.
//! The launch-path digests freeze, on the same machine, what every kernel
//! variant does after its partitions evaluate, under five fault plans,
//! and one digest freezes triangle counting's fault-free launch. The
//! `Analytic` goldens freeze the closed-form prediction on the same
//! 64-DPU machine: every kernel variant under two semirings, also on a
//! hub-row variant of the graph, BFS, SSSP and PPR runs, and every per-DPU
//! and per-tasklet record of two launches. The exporter digests freeze the
//! bytes of the JSON and CSV exports of one launch per fidelity, fault-free
//! and faulty, and a faulty per-DPU batch freezes its crashed snapshot,
//! its journal and its resumed `BatchReport` JSON.
//!
//! Last regeneration: the counter registry grew the six `sdc.*`
//! silent-corruption ledgers and the six `quarantine.*` scoreboard
//! counters. Neither fires here — the clean systems carry no fault plan
//! and the faulty plan's `silent_flip_rate` is zero, so the ABFT merge
//! guard stays inert — and every golden gained the same trailing block of
//! `sdc.*=0` / `quarantine.*=0` lines with nothing else moving.

use alpha_pim::apps::{AppOptions, AppReport, PprOptions};
use alpha_pim::semiring::{BoolOrAnd, PlusTimes, Semiring};
use alpha_pim::serve::{BatchOutcome, Query, ServeConfig, ServeEngine};
use alpha_pim::{
    AlphaPim, CheckpointPolicy, MultiVector, PreparedSpmm, PreparedSpmspv, PreparedSpmv,
    SpmspvVariant, SpmvVariant,
};
use alpha_pim_bench::harness::striped_vector;
use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::report::{KernelReport, PhaseBreakdown};
use alpha_pim_sim::{
    CounterId, FaultPlan, HostCrashPlan, ObservabilityLevel, PimConfig, PimSystem,
    ResiliencePolicy, SimFidelity,
};
use alpha_pim_sparse::{gen, Coo, Graph, SparseVector};

fn system() -> PimSystem {
    PimSystem::new(PimConfig {
        num_dpus: 16,
        fidelity: SimFidelity::Full,
        observability: ObservabilityLevel::PerTasklet,
        ..Default::default()
    })
    .expect("valid config")
}

/// The canonical chaos plan the faulty goldens freeze: a survivable
/// fixed-seed mix of every fault kind.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA_0173,
        dpu_loss_rate: 0.10,
        straggler_rate: 0.20,
        straggler_multiplier: 1.5,
        bitflip_rate: 0.10,
        timeout_rate: 0.25,
        silent_flip_rate: 0.0,
        policy: ResiliencePolicy::default(),
    }
}

/// The same machine under [`fault_plan`].
fn faulty_system() -> PimSystem {
    PimSystem::new(PimConfig {
        num_dpus: 16,
        fidelity: SimFidelity::Full,
        observability: ObservabilityLevel::PerTasklet,
        faults: Some(fault_plan()),
        ..Default::default()
    })
    .expect("valid config")
}

fn matrix() -> Coo<u32> {
    let coo = gen::erdos_renyi(3_000, 30_000, 42).expect("valid args");
    coo.map(|_| 1u32)
}

/// A stable textual digest of everything the observability layer freezes:
/// headline report fields, the slot breakdown, and all registry counters.
fn fingerprint(r: &KernelReport) -> String {
    let mut out = format!(
        "num_dpus={} detailed={} max_cycles={} instr={}\n\
         active={} memory={} revolver={} rf={}\n\
         details={} tasklets_each={}\n",
        r.num_dpus,
        r.detailed_dpus,
        r.max_cycles,
        r.total_instructions,
        r.breakdown.counter(CounterId::SlotIssue),
        r.breakdown.counter(CounterId::SlotMemory),
        r.breakdown.counter(CounterId::SlotRevolver),
        r.breakdown.counter(CounterId::SlotRf),
        r.dpu_details.len(),
        r.dpu_details.first().map_or(0, |d| d.tasklets.len()),
    );
    for (id, v) in r.breakdown.counters.iter() {
        out.push_str(&format!("{id}={v}\n"));
    }
    out
}

fn assert_golden(actual: &str, expected: &str, kernel: &str) {
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "\n{kernel} observability fingerprint drifted.\nactual:\n{actual}",
    );
}

#[test]
fn spmv_report_matches_golden_snapshot() {
    let sys = system();
    let m = matrix();
    let x = striped_vector(3_000, 1.0).to_dense(0u32);
    let outcome = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Dcoo2d, &sys)
        .expect("fits")
        .run(&x, &sys)
        .expect("dims");
    assert_golden(&fingerprint(&outcome.kernel), SPMV_GOLDEN, "SpMV");
}

#[test]
fn spmspv_report_matches_golden_snapshot() {
    let sys = system();
    let m = matrix();
    let x = striped_vector(3_000, 0.1);
    let outcome = PreparedSpmspv::<BoolOrAnd>::prepare(&m, SpmspvVariant::Csc2d, &sys)
        .expect("fits")
        .run(&x, &sys)
        .expect("dims");
    assert_golden(&fingerprint(&outcome.kernel), SPMSPV_GOLDEN, "SpMSpV");
}

#[test]
fn spmm_report_matches_golden_snapshot() {
    let sys = system();
    let m = matrix();
    let x = MultiVector::filled(3_000, 4, 1u32);
    let outcome = PreparedSpmm::<BoolOrAnd>::prepare(&m, 4, &sys)
        .expect("fits")
        .run(&x, &sys)
        .expect("dims");
    assert_golden(&fingerprint(&outcome.kernel), SPMM_GOLDEN, "SpMM");
}

/// A faulty run's digest additionally freezes the degraded flag.
fn faulty_fingerprint(r: &KernelReport) -> String {
    format!("degraded={}\n{}", r.degraded, fingerprint(r))
}

#[test]
fn spmv_faulty_report_matches_golden_snapshot() {
    let sys = faulty_system();
    let m = matrix();
    let x = striped_vector(3_000, 1.0).to_dense(0u32);
    let outcome = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Dcoo2d, &sys)
        .expect("fits")
        .run(&x, &sys)
        .expect("dims");
    assert_golden(&faulty_fingerprint(&outcome.kernel), SPMV_FAULTY_GOLDEN, "faulty SpMV");
}

#[test]
fn spmspv_faulty_report_matches_golden_snapshot() {
    let sys = faulty_system();
    let m = matrix();
    let x = striped_vector(3_000, 0.1);
    let outcome = PreparedSpmspv::<BoolOrAnd>::prepare(&m, SpmspvVariant::Csc2d, &sys)
        .expect("fits")
        .run(&x, &sys)
        .expect("dims");
    assert_golden(&faulty_fingerprint(&outcome.kernel), SPMSPV_FAULTY_GOLDEN, "faulty SpMSpV");
}

#[test]
fn spmm_faulty_report_matches_golden_snapshot() {
    let sys = faulty_system();
    let m = matrix();
    let x = MultiVector::filled(3_000, 4, 1u32);
    let outcome = PreparedSpmm::<BoolOrAnd>::prepare(&m, 4, &sys)
        .expect("fits")
        .run(&x, &sys)
        .expect("dims");
    assert_golden(&faulty_fingerprint(&outcome.kernel), SPMM_FAULTY_GOLDEN, "faulty SpMM");
}

/// The exporters stay aligned with the frozen taxonomy: the CSV header
/// carries one column per registry counter, and every data row has the
/// same arity.
#[test]
fn exporters_agree_with_the_frozen_taxonomy() {
    let sys = system();
    let m = matrix();
    let x = striped_vector(3_000, 1.0).to_dense(0u32);
    let outcome = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Dcoo2d, &sys)
        .expect("fits")
        .run(&x, &sys)
        .expect("dims");
    let csv = outcome.kernel.counters_csv();
    let mut lines = csv.lines();
    let header = lines.next().expect("csv has a header");
    let cols = header.split(',').count();
    assert_eq!(cols, 2 + alpha_pim_sim::NUM_COUNTERS, "dpu,total_cycles + one per counter");
    for line in lines {
        assert_eq!(line.split(',').count(), cols, "ragged CSV row: {line}");
    }
    let json = outcome.kernel.to_json();
    for id in CounterId::ALL {
        assert!(json.contains(&format!("\"{id}\"")), "JSON export lost counter {id}");
    }
}

/// The application goldens run on the kernel goldens' graph, end to end:
/// every superstep's kernel choice, density, phase times and makespan, plus
/// the answer and the convergence flags, folded into one FNV-1a64 digest
/// per app. Any change to a superstep loop shows up here.
fn app_engine() -> AlphaPim {
    AlphaPim::new(PimConfig { num_dpus: 16, fidelity: SimFidelity::Full, ..Default::default() })
        .expect("valid config")
}

fn app_graph() -> Graph {
    Graph::from_coo(matrix())
}

fn weighted_app_graph() -> Graph {
    app_graph().with_random_weights(9)
}

/// FNV-1a64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

fn app_digest(answer: impl IntoIterator<Item = u64>, report: &AppReport) -> u64 {
    let mut h = Fnv::new();
    for w in answer {
        h.word(w);
    }
    h.word(u64::from(report.converged));
    h.word(u64::from(report.degraded));
    for it in &report.iterations {
        h.bytes(it.kernel.to_string().as_bytes());
        h.word(it.input_density.to_bits());
        let p = &it.phases;
        for phase in [p.load, p.kernel, p.retrieve, p.merge] {
            h.word(phase.to_bits());
        }
        h.word(it.kernel_report.max_cycles);
    }
    h.0
}

fn assert_app_golden(actual: u64, expected: u64, what: &str) {
    assert_eq!(actual, expected, "{what} digest drifted: actual {actual:#018x}");
}

#[test]
fn bfs_run_matches_golden_digest() {
    let r = app_engine().bfs(&app_graph(), 0, &AppOptions::default()).expect("runs");
    let digest = app_digest(r.levels.iter().map(|&l| u64::from(l)), &r.report);
    assert_app_golden(digest, BFS_RUN_GOLDEN, "BFS run");
}

#[test]
fn sssp_run_matches_golden_digest() {
    let r = app_engine().sssp(&weighted_app_graph(), 0, &AppOptions::default()).expect("runs");
    let digest = app_digest(r.distances.iter().map(|&d| u64::from(d)), &r.report);
    assert_app_golden(digest, SSSP_RUN_GOLDEN, "SSSP run");
}

#[test]
fn ppr_run_matches_golden_digest() {
    let r = app_engine().ppr(&app_graph(), 0, &PprOptions::default()).expect("runs");
    let digest = app_digest(r.scores.iter().map(|s| u64::from(s.to_bits())), &r.report);
    assert_app_golden(digest, PPR_RUN_GOLDEN, "PPR run");
}

#[test]
fn widest_path_run_matches_golden_digest() {
    let r = app_engine()
        .widest_path(&weighted_app_graph(), 0, &AppOptions::default())
        .expect("runs");
    let digest = app_digest(r.capacities.iter().map(|&c| u64::from(c)), &r.report);
    assert_app_golden(digest, WIDEST_RUN_GOLDEN, "widest-path run");
}

#[test]
fn wcc_run_matches_golden_digest() {
    let r = app_engine().connected_components(&app_graph(), &AppOptions::default()).expect("runs");
    let labels = r.labels.iter().map(|&l| u64::from(l));
    let digest = app_digest(labels.chain([r.components as u64]), &r.report);
    assert_app_golden(digest, WCC_RUN_GOLDEN, "WCC run");
}

/// The live-query checkpoint layout is frozen too: a BFS+SSSP+PPR batch
/// snapshotted at every boundary and killed after superstep 2 leaves a
/// sealed snapshot whose bytes must not move.
#[test]
fn crashed_batch_snapshot_matches_golden_digest() {
    let engine = app_engine();
    let config = ServeConfig { checkpoint: CheckpointPolicy::EveryN(1), ..Default::default() };
    let queries = [Query::Bfs { source: 0 }, Query::Sssp { source: 0 }, Query::Ppr { source: 0 }];
    let outcome = ServeEngine::new(&engine, config)
        .run_batch_resilient(&weighted_app_graph(), &queries, 0, Some(HostCrashPlan::at(2)), None)
        .expect("runs");
    let BatchOutcome::Crashed { superstep, checkpoint } = outcome else {
        panic!("the batch must crash after superstep 2");
    };
    assert_eq!(superstep, 2);
    let mut h = Fnv::new();
    h.bytes(&checkpoint.snapshot);
    assert_app_golden(h.0, CRASHED_BATCH_SNAPSHOT_GOLDEN, "crashed-batch snapshot");
}

/// The `Sampled` goldens: a 64-DPU machine that replays every eighth DPU
/// (stride 8) and estimates the rest, fault-free and under
/// [`fault_plan`]. Every kernel runs on a one-vertex and a dense
/// frontier, and each digest folds in every number a sampled report
/// carries plus the output vector.
fn sampled_config(faults: Option<FaultPlan>) -> PimConfig {
    PimConfig { num_dpus: 64, fidelity: SimFidelity::Sampled(8), faults, ..Default::default() }
}

/// The frontiers each sampled kernel golden runs on.
const FRONTIERS: [&str; 2] = ["one", "dense"];

fn frontier(which: &str) -> alpha_pim_sparse::SparseVector<u32> {
    match which {
        "one" => alpha_pim_sparse::SparseVector::one_hot(3_000, 0, 1u32),
        _ => striped_vector(3_000, 1.0),
    }
}

/// Folds a kernel report into `h`: makespan, mean and seconds bits, the
/// replayed-DPU count, instructions, the mix, every counter, the degraded
/// flag and the corrupted DPUs.
fn report_digest(h: &mut Fnv, r: &KernelReport) {
    h.word(r.max_cycles);
    h.word(r.mean_cycles.to_bits());
    h.word(r.seconds.to_bits());
    h.word(u64::from(r.detailed_dpus));
    h.word(r.total_instructions);
    for class in InstrClass::ALL {
        h.word(r.instr_mix.count(class));
    }
    for (_, v) in r.breakdown.counters.iter() {
        h.word(v);
    }
    h.word(u64::from(r.degraded));
    h.word(r.corrupted_dpus.len() as u64);
    for &d in &r.corrupted_dpus {
        h.word(u64::from(d));
    }
}

/// Runs `launch` on the fault-free and the faulty system `config` builds
/// at both frontiers, labelling each digest `clean/one`, `faulty/dense`, ….
fn frontier_digests(
    config: fn(Option<FaultPlan>) -> PimConfig,
    launch: impl Fn(&PimSystem, &str) -> (KernelReport, Vec<u64>),
) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (mode, faults) in [("clean", None), ("faulty", Some(fault_plan()))] {
        let sys = PimSystem::new(config(faults)).expect("valid config");
        for which in FRONTIERS {
            let (report, y) = launch(&sys, which);
            let mut h = Fnv::new();
            report_digest(&mut h, &report);
            for w in y {
                h.word(w);
            }
            out.push((format!("{mode}/{which}"), h.0));
        }
    }
    out
}

/// Compares labelled digests with their frozen values, listing every
/// actual digest on a mismatch.
fn assert_digests(actual: &[(String, u64)], expected: &[(&str, u64)], what: &str) {
    let listing: String =
        actual.iter().map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n")).collect();
    let frozen: Vec<(String, u64)> =
        expected.iter().map(|&(label, d)| (label.to_string(), d)).collect();
    assert_eq!(actual, frozen.as_slice(), "{what} digests drifted; actual:\n{listing}");
}

#[test]
fn sampled_spmv_reports_match_golden_digests() {
    let m = matrix();
    let mut actual = Vec::new();
    for variant in SpmvVariant::ALL {
        for (label, d) in frontier_digests(sampled_config, |sys, which| {
            let x = frontier(which).to_dense(0u32);
            let out = PreparedSpmv::<BoolOrAnd>::prepare(&m, variant, sys)
                .expect("fits")
                .run(&x, sys)
                .expect("dims");
            (out.kernel, out.y.values().iter().map(|&v| u64::from(v)).collect())
        }) {
            actual.push((format!("{variant}/{label}"), d));
        }
    }
    assert_digests(&actual, SAMPLED_SPMV_GOLDEN, "sampled SpMV");
}

#[test]
fn sampled_spmspv_reports_match_golden_digests() {
    let m = matrix();
    let mut actual = Vec::new();
    for variant in SpmspvVariant::ALL {
        for (label, d) in frontier_digests(sampled_config, |sys, which| {
            let out = PreparedSpmspv::<BoolOrAnd>::prepare(&m, variant, sys)
                .expect("fits")
                .run(&frontier(which), sys)
                .expect("dims");
            (out.kernel, out.y.values().iter().map(|&v| u64::from(v)).collect())
        }) {
            actual.push((format!("{variant}/{label}"), d));
        }
    }
    assert_digests(&actual, SAMPLED_SPMSPV_GOLDEN, "sampled SpMSpV");
}

#[test]
fn sampled_spmm_reports_match_golden_digests() {
    let m = matrix();
    let actual = frontier_digests(sampled_config, |sys, which| {
        let mut x = MultiVector::filled(3_000, 4, 0u32);
        for (i, &v) in frontier(which).to_dense(0u32).values().iter().enumerate() {
            for j in 0..4 {
                x.set(i, j, v);
            }
        }
        let out = PreparedSpmm::<BoolOrAnd>::prepare(&m, 4, sys)
            .expect("fits")
            .run(&x, sys)
            .expect("dims");
        let y = (0..3_000).flat_map(|i| (0..4).map(move |j| (i, j)));
        (out.kernel, y.map(|(i, j)| u64::from(out.y.get(i, j))).collect())
    });
    assert_digests(&actual, SAMPLED_SPMM_GOLDEN, "sampled SpMM");
}

/// BFS, SSSP and PPR end to end on the fault-free sampled system.
fn sampled_engine() -> AlphaPim {
    AlphaPim::new(sampled_config(None)).expect("valid config")
}

/// BFS, SSSP and PPR digests of `engine`'s runs from vertex 0.
fn app_run_digests(engine: &AlphaPim) -> Vec<(String, u64)> {
    let opts = AppOptions::default();
    let bfs = engine.bfs(&app_graph(), 0, &opts).expect("runs");
    let sssp = engine.sssp(&weighted_app_graph(), 0, &opts).expect("runs");
    let ppr = engine.ppr(&app_graph(), 0, &PprOptions::default()).expect("runs");
    vec![
        ("bfs".to_string(), app_digest(bfs.levels.iter().map(|&l| u64::from(l)), &bfs.report)),
        (
            "sssp".to_string(),
            app_digest(sssp.distances.iter().map(|&d| u64::from(d)), &sssp.report),
        ),
        (
            "ppr".to_string(),
            app_digest(ppr.scores.iter().map(|s| u64::from(s.to_bits())), &ppr.report),
        ),
    ]
}

#[test]
fn sampled_app_runs_match_golden_digests() {
    let actual = app_run_digests(&sampled_engine());
    assert_digests(&actual, SAMPLED_APP_GOLDEN, "sampled app run");
}

/// The launch path's decisions, frozen per kernel variant: what a launch
/// does after its partitions evaluate. Besides the clean and faulty plans,
/// three plans reach the decisions those leave untouched — silent output
/// flips with and without merge verification (the ABFT guard's hand-off
/// to active partitions) and DPU loss without redistribution (the
/// lost-partition drop). One digest per variant and plan folds, for both
/// frontiers, the report, the four phase seconds, `useful_ops`,
/// `output_nnz` and `y`.
fn launch_plans() -> [(&'static str, Option<FaultPlan>); 5] {
    let silent = FaultPlan::silent(0x51_1E47, 0.5);
    let unverified = FaultPlan {
        policy: ResiliencePolicy { verify_merges: false, ..silent.policy },
        ..silent.clone()
    };
    let loss = FaultPlan {
        seed: 0x10_5517,
        dpu_loss_rate: 0.25,
        policy: ResiliencePolicy { redistribute: false, ..ResiliencePolicy::default() },
        ..FaultPlan::default()
    };
    [
        ("clean", None),
        ("faulty", Some(fault_plan())),
        ("silent", Some(silent)),
        ("unverified", Some(unverified)),
        ("loss", Some(loss)),
    ]
}

/// Everything one launch hands back, as the launch-path digests read it.
struct Launched {
    kernel: KernelReport,
    phases: PhaseBreakdown,
    useful_ops: u64,
    output_nnz: usize,
    y: Vec<u64>,
}

/// Silent flips injected and degraded reports seen per plan, summed over
/// a kernel family, so no launch-path digest is vacuous.
#[derive(Default)]
struct Fired(std::collections::BTreeMap<&'static str, (u64, bool)>);

impl Fired {
    fn assert_every_new_plan_fired(&self, what: &str) {
        for plan in ["silent", "unverified"] {
            assert!(self.0[plan].0 > 0, "{what}: the {plan} plan injected no flip");
        }
        assert!(self.0["loss"].1, "{what}: the loss plan degraded no report");
    }
}

/// Runs `launch` on the sampled machine under every [`launch_plans`]
/// plan, one digest per plan labelled `{prefix}/{plan}`.
fn launch_digests(
    prefix: &str,
    fired: &mut Fired,
    launch: impl Fn(&PimSystem, &str) -> Launched,
) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (plan, faults) in launch_plans() {
        let sys = PimSystem::new(sampled_config(faults)).expect("valid config");
        let mut h = Fnv::new();
        let seen = fired.0.entry(plan).or_default();
        for which in FRONTIERS {
            let l = launch(&sys, which);
            report_digest(&mut h, &l.kernel);
            let p = &l.phases;
            for phase in [p.load, p.kernel, p.retrieve, p.merge] {
                h.word(phase.to_bits());
            }
            h.word(l.useful_ops);
            h.word(l.output_nnz as u64);
            for w in l.y {
                h.word(w);
            }
            seen.0 += l.kernel.breakdown.counters.get(CounterId::SdcInjected);
            seen.1 |= l.kernel.degraded;
        }
        out.push((format!("{prefix}/{plan}"), h.0));
    }
    out
}

#[test]
fn spmv_launch_paths_match_golden_digests() {
    let m = matrix();
    let (mut actual, mut fired) = (Vec::new(), Fired::default());
    for variant in SpmvVariant::ALL {
        actual.extend(launch_digests(&variant.to_string(), &mut fired, |sys, which| {
            let x = frontier(which).to_dense(0u32);
            let out = PreparedSpmv::<BoolOrAnd>::prepare(&m, variant, sys)
                .expect("fits")
                .run(&x, sys)
                .expect("dims");
            Launched {
                y: out.y.values().iter().map(|&v| u64::from(v)).collect(),
                kernel: out.kernel,
                phases: out.phases,
                useful_ops: out.useful_ops,
                output_nnz: out.output_nnz,
            }
        }));
    }
    fired.assert_every_new_plan_fired("SpMV");
    assert_digests(&actual, SPMV_LAUNCH_GOLDEN, "SpMV launch path");
}

#[test]
fn spmspv_launch_paths_match_golden_digests() {
    let m = matrix();
    let (mut actual, mut fired) = (Vec::new(), Fired::default());
    for variant in SpmspvVariant::ALL {
        actual.extend(launch_digests(&variant.to_string(), &mut fired, |sys, which| {
            let out = PreparedSpmspv::<BoolOrAnd>::prepare(&m, variant, sys)
                .expect("fits")
                .run(&frontier(which), sys)
                .expect("dims");
            Launched {
                y: out.y.values().iter().map(|&v| u64::from(v)).collect(),
                kernel: out.kernel,
                phases: out.phases,
                useful_ops: out.useful_ops,
                output_nnz: out.output_nnz,
            }
        }));
    }
    fired.assert_every_new_plan_fired("SpMSpV");
    assert_digests(&actual, SPMSPV_LAUNCH_GOLDEN, "SpMSpV launch path");
}

#[test]
fn spmm_launch_paths_match_golden_digests() {
    let m = matrix();
    let mut fired = Fired::default();
    let actual = launch_digests("SpMM", &mut fired, |sys, which| {
        let mut x = MultiVector::filled(3_000, 4, 0u32);
        for (i, &v) in frontier(which).to_dense(0u32).values().iter().enumerate() {
            for j in 0..4 {
                x.set(i, j, v);
            }
        }
        let out = PreparedSpmm::<BoolOrAnd>::prepare(&m, 4, sys)
            .expect("fits")
            .run(&x, sys)
            .expect("dims");
        let cells = (0..3_000).flat_map(|i| (0..4).map(move |j| (i, j)));
        let y: Vec<u64> = cells.map(|(i, j)| u64::from(out.y.get(i, j))).collect();
        Launched {
            output_nnz: y.iter().filter(|&&v| v != 0).count(),
            y,
            kernel: out.kernel,
            phases: out.phases,
            useful_ops: out.useful_ops,
        }
    });
    fired.assert_every_new_plan_fired("SpMM");
    assert_digests(&actual, SPMM_LAUNCH_GOLDEN, "SpMM launch path");
}

/// Triangle counting's one fault-free launch: the count, the four phase
/// seconds, the makespan, the instruction total and the mix.
#[test]
fn triangle_count_matches_golden_digest() {
    let r = app_engine().triangle_count(&app_graph()).expect("runs");
    let mut h = Fnv::new();
    h.word(r.triangles);
    let p = &r.phases;
    for phase in [p.load, p.kernel, p.retrieve, p.merge] {
        h.word(phase.to_bits());
    }
    h.word(r.kernel.max_cycles);
    h.word(r.kernel.total_instructions);
    for class in InstrClass::ALL {
        h.word(r.kernel.instr_mix.count(class));
    }
    assert_app_golden(h.0, TRIANGLE_GOLDEN, "triangle count");
}

/// The `Analytic` goldens: the same 64-DPU machine with no replay, every
/// DPU predicted in closed form from its recorded `TaskletStats`. The
/// sampled goldens read those statistics only through three totals, so
/// these freeze the per-segment ones the prediction reads too: pre-DMA and
/// last-DMA positions, mutex-held instructions and register reads. Every
/// kernel runs under `BoolOrAnd`, whose op costs are single-class, and
/// under `PlusTimes`, whose costs fill all three compute classes.
fn analytic_config(faults: Option<FaultPlan>) -> PimConfig {
    PimConfig { num_dpus: 64, fidelity: SimFidelity::Analytic, faults, ..Default::default() }
}

/// `v` lifted into semiring `S`.
fn lift<S: Semiring>(v: &SparseVector<u32>) -> SparseVector<S::Elem> {
    let vals = v.values().iter().map(|&w| S::from_weight(w)).collect();
    SparseVector::from_pairs(v.len(), v.indices().to_vec(), vals).expect("same indices")
}

/// The exact bit patterns of `values`.
fn elem_words<S: Semiring>(values: &[S::Elem]) -> Vec<u64> {
    values.iter().map(|&v| S::elem_bits(v)).collect()
}

/// Every SpMV and SpMSpV variant and SpMM on `m` lifted into `S` on the
/// analytic machine, labelled `{semiring}/{kernel}/{mode}/{frontier}`.
fn analytic_kernel_digests<S: Semiring>(semiring: &str, m: &Coo<u32>) -> Vec<(String, u64)> {
    let m = m.map(S::from_weight);
    let mut out = Vec::new();
    let mut push = |kernel: &str, digests: Vec<(String, u64)>| {
        out.extend(digests.into_iter().map(|(l, d)| (format!("{semiring}/{kernel}/{l}"), d)));
    };
    for variant in SpmvVariant::ALL {
        push(
            &variant.to_string(),
            frontier_digests(analytic_config, |sys, which| {
                let x = lift::<S>(&frontier(which)).to_dense(S::zero());
                let out = PreparedSpmv::<S>::prepare(&m, variant, sys)
                    .expect("fits")
                    .run(&x, sys)
                    .expect("dims");
                (out.kernel, elem_words::<S>(out.y.values()))
            }),
        );
    }
    for variant in SpmspvVariant::ALL {
        push(
            &variant.to_string(),
            frontier_digests(analytic_config, |sys, which| {
                let out = PreparedSpmspv::<S>::prepare(&m, variant, sys)
                    .expect("fits")
                    .run(&lift::<S>(&frontier(which)), sys)
                    .expect("dims");
                (out.kernel, elem_words::<S>(out.y.values()))
            }),
        );
    }
    push(
        "SpMM",
        frontier_digests(analytic_config, |sys, which| {
            let dense = lift::<S>(&frontier(which)).to_dense(S::zero());
            let mut x = MultiVector::filled(3_000, 4, S::zero());
            for (i, &v) in dense.values().iter().enumerate() {
                for j in 0..4 {
                    x.set(i, j, v);
                }
            }
            let out = PreparedSpmm::<S>::prepare(&m, 4, sys)
                .expect("fits")
                .run(&x, sys)
                .expect("dims");
            let cells = (0..3_000).flat_map(|i| (0..4).map(move |j| (i, j)));
            (out.kernel, cells.map(|(i, j)| S::elem_bits(out.y.get(i, j))).collect())
        }),
    );
    out
}

#[test]
fn analytic_bool_kernels_match_golden_digests() {
    let actual = analytic_kernel_digests::<BoolOrAnd>("bool", &matrix());
    assert_digests(&actual, ANALYTIC_BOOL_GOLDEN, "analytic BoolOrAnd kernel");
}

#[test]
fn analytic_plus_times_kernels_match_golden_digests() {
    let actual = analytic_kernel_digests::<PlusTimes>("plus-times", &matrix());
    assert_digests(&actual, ANALYTIC_PLUS_TIMES_GOLDEN, "analytic PlusTimes kernel");
}

/// [`matrix`] with row 0 replaced by a hub row: an entry in every column.
/// The CSC kernels buffer a chunk's updates per stripe mutex and merge
/// each stripe under its lock, so the hub funnels most of a tile's merge
/// work through one mutex and the mutex-chain bound, which reads the
/// instructions issued under each lock, sets those DPUs' makespans. On
/// [`matrix`] alone that bound never dominates.
fn hub_matrix() -> Coo<u32> {
    let rest = matrix().iter().filter(|&(r, _, _)| r != 0).collect::<Vec<_>>();
    let hub = (0..3_000).map(|c| (0, c, 1u32));
    Coo::from_entries(3_000, 3_000, rest.into_iter().chain(hub)).expect("in range")
}

#[test]
fn analytic_hub_row_kernels_match_golden_digests() {
    let hub = hub_matrix();
    let mut actual = analytic_kernel_digests::<BoolOrAnd>("bool", &hub);
    actual.extend(analytic_kernel_digests::<PlusTimes>("plus-times", &hub));
    assert_digests(&actual, ANALYTIC_HUB_GOLDEN, "analytic hub-row kernel");
}

#[test]
fn analytic_app_runs_match_golden_digests() {
    let engine = AlphaPim::new(analytic_config(None)).expect("valid config");
    assert_digests(&app_run_digests(&engine), ANALYTIC_APP_GOLDEN, "analytic app run");
}

/// Every `DpuDetail` of one DCOO-2D SpMV (dense frontier) and one CSC-2D
/// SpMSpV (10 % frontier) launch under `PlusTimes` on the analytic machine
/// at `PerTasklet` observability: each DPU's id, makespan, instructions,
/// counter rollup and every tasklet's cycle attribution.
#[test]
fn analytic_per_tasklet_details_match_golden_digest() {
    let config =
        PimConfig { observability: ObservabilityLevel::PerTasklet, ..analytic_config(None) };
    let sys = PimSystem::new(config).expect("valid config");
    let m = matrix().map(PlusTimes::from_weight);
    let x = lift::<PlusTimes>(&frontier("dense")).to_dense(0.0);
    let spmv = PreparedSpmv::<PlusTimes>::prepare(&m, SpmvVariant::Dcoo2d, &sys)
        .expect("fits")
        .run(&x, &sys)
        .expect("dims");
    let spmspv = PreparedSpmspv::<PlusTimes>::prepare(&m, SpmspvVariant::Csc2d, &sys)
        .expect("fits")
        .run(&lift::<PlusTimes>(&striped_vector(3_000, 0.1)), &sys)
        .expect("dims");
    let mut h = Fnv::new();
    for report in [&spmv.kernel, &spmspv.kernel] {
        assert_eq!(report.dpu_details.len(), 64, "every DPU keeps its record");
        for d in &report.dpu_details {
            assert!(!d.tasklets.is_empty(), "DPU {} keeps its tasklets", d.dpu_id);
            h.word(u64::from(d.dpu_id));
            h.word(d.counters.get(CounterId::DpuCycles));
            h.word(d.counters.get(CounterId::SlotIssue));
            for (_, v) in d.counters.iter() {
                h.word(v);
            }
            h.word(d.tasklets.len() as u64);
            for t in &d.tasklets {
                for (_, v) in t.iter() {
                    h.word(v);
                }
            }
        }
    }
    assert_app_golden(h.0, ANALYTIC_PER_TASKLET_GOLDEN, "analytic per-tasklet details");
}

/// The exporters' bytes, frozen at each fidelity: `KernelReport::to_json`,
/// `counters_csv` and `CycleBreakdown::csv_row` of one CSC-2D SpMSpV
/// launch (10 % frontier, mutex-contended) on the `PerTasklet` `Full`
/// machine of the kernel goldens, and at `PerDpu` on the `Sampled(8)` and
/// `Analytic` 64-DPU machines, each fault-free and under [`fault_plan`].
#[test]
fn exporter_bytes_match_golden_digests() {
    let m = matrix();
    let x = striped_vector(3_000, 0.1);
    let mut actual = Vec::new();
    for (mode, faults) in [("clean", None), ("faulty", Some(fault_plan()))] {
        let full = PimConfig {
            num_dpus: 16,
            fidelity: SimFidelity::Full,
            observability: ObservabilityLevel::PerTasklet,
            faults: faults.clone(),
            ..Default::default()
        };
        let per_dpu =
            |config: PimConfig| PimConfig { observability: ObservabilityLevel::PerDpu, ..config };
        for (fidelity, config) in [
            ("full", full),
            ("sampled", per_dpu(sampled_config(faults.clone()))),
            ("analytic", per_dpu(analytic_config(faults.clone()))),
        ] {
            let sys = PimSystem::new(config).expect("valid config");
            let r = PreparedSpmspv::<BoolOrAnd>::prepare(&m, SpmspvVariant::Csc2d, &sys)
                .expect("fits")
                .run(&x, &sys)
                .expect("dims")
                .kernel;
            assert!(!r.dpu_details.is_empty(), "{fidelity}/{mode} keeps its details");
            for (export, text) in [
                ("json", r.to_json()),
                ("counters_csv", r.counters_csv()),
                ("csv_row", r.breakdown.csv_row()),
            ] {
                let mut h = Fnv::new();
                h.bytes(text.as_bytes());
                actual.push((format!("{fidelity}/{mode}/{export}"), h.0));
            }
        }
    }
    assert_digests(&actual, EXPORTER_GOLDEN, "exporter");
}

/// A BFS+SSSP+PPR batch on a `PerDpu` machine under [`fault_plan`],
/// snapshotted at every boundary and killed after superstep 6: the sealed
/// snapshot (whose kernel reports carry every `DpuDetail`), the
/// write-ahead journal, and the `BatchReport` of the same batch resumed to
/// completion by a fresh engine.
#[test]
fn faulty_crashed_batch_matches_golden_digests() {
    let engine = AlphaPim::new(PimConfig {
        num_dpus: 16,
        fidelity: SimFidelity::Full,
        observability: ObservabilityLevel::PerDpu,
        faults: Some(fault_plan()),
        ..Default::default()
    })
    .expect("valid config");
    let config = ServeConfig { checkpoint: CheckpointPolicy::EveryN(1), ..Default::default() };
    let queries = [Query::Bfs { source: 0 }, Query::Sssp { source: 0 }, Query::Ppr { source: 0 }];
    let graph = weighted_app_graph();
    let outcome = ServeEngine::new(&engine, config)
        .run_batch_resilient(&graph, &queries, 0, Some(HostCrashPlan::at(6)), None)
        .expect("runs");
    let BatchOutcome::Crashed { superstep, checkpoint } = outcome else {
        panic!("the batch must crash after superstep 6");
    };
    assert_eq!(superstep, 6);
    assert!(!checkpoint.journal.is_empty(), "a query completed before the crash");
    let resumed = ServeEngine::new(&engine, config)
        .resume_batch(&graph, &checkpoint, None, None)
        .expect("resumes");
    let BatchOutcome::Completed(_, report) = resumed else {
        panic!("the resumed batch must complete");
    };
    let mut actual = Vec::new();
    for (what, bytes) in [
        ("snapshot", checkpoint.snapshot),
        ("journal", checkpoint.journal),
        ("report", report.to_json().into_bytes()),
    ] {
        let mut h = Fnv::new();
        h.bytes(&bytes);
        actual.push((what.to_string(), h.0));
    }
    assert_digests(&actual, FAULTY_CRASHED_BATCH_GOLDEN, "faulty crashed batch");
}

const SAMPLED_SPMV_GOLDEN: &[(&str, u64)] = &[
    ("COO.nnz-1D/clean/one", 0x3c70_d668_5e43_8fea),
    ("COO.nnz-1D/clean/dense", 0x1886_5cc0_26f1_91ab),
    ("COO.nnz-1D/faulty/one", 0x8a48_79e2_29e9_e378),
    ("COO.nnz-1D/faulty/dense", 0x665e_0039_f297_e539),
    ("CSR.row-1D/clean/one", 0x242e_baf4_bace_9921),
    ("CSR.row-1D/clean/dense", 0x4819_349c_f220_9760),
    ("CSR.row-1D/faulty/one", 0x6e2e_9c2f_8683_39a5),
    ("CSR.row-1D/faulty/dense", 0x9219_15d7_bdd5_37e4),
    ("CSR.nnz-1D/clean/one", 0xa9bd_008d_8bbc_fa15),
    ("CSR.nnz-1D/clean/dense", 0xcda7_7a35_c30e_f854),
    ("CSR.nnz-1D/faulty/one", 0xe209_9486_f2fa_951a),
    ("CSR.nnz-1D/faulty/dense", 0xbe1f_1ade_bba8_96db),
    ("DCOO-2D/clean/one", 0xd2e3_0148_cadd_8269),
    ("DCOO-2D/clean/dense", 0xf6cd_7af1_022f_80a8),
    ("DCOO-2D/faulty/one", 0x4489_6d2a_d5d1_4c67),
    ("DCOO-2D/faulty/dense", 0x6873_e6d3_0d23_4aa6),
];
const SAMPLED_SPMSPV_GOLDEN: &[(&str, u64)] = &[
    ("COO/clean/one", 0x5899_a6e5_520e_bb26),
    ("COO/clean/dense", 0x6bc8_eae6_38aa_8dd8),
    ("COO/faulty/one", 0x99b4_d0ab_f680_131b),
    ("COO/faulty/dense", 0x6e17_9e6c_8ef9_d995),
    ("CSR/clean/one", 0x382d_4a69_cf7d_5e8b),
    ("CSR/clean/dense", 0x32a9_ccb6_01c7_f139),
    ("CSR/faulty/one", 0x118a_0dcc_c230_8628),
    ("CSR/faulty/dense", 0xd299_1a52_26c6_8df2),
    ("CSC-R/clean/one", 0xccbe_1fad_c2ce_3b7e),
    ("CSC-R/clean/dense", 0x2062_8ae1_2f3f_1882),
    ("CSC-R/faulty/one", 0x328d_c08f_75dc_f38e),
    ("CSC-R/faulty/dense", 0xfa48_4ba8_66b7_e32f),
    ("CSC-C/clean/one", 0x3881_cdc4_331f_9613),
    ("CSC-C/clean/dense", 0x914d_232c_6faf_92db),
    ("CSC-C/faulty/one", 0x8e76_c305_63b4_4b27),
    ("CSC-C/faulty/dense", 0xf982_00b7_21ef_1c20),
    ("CSC-2D/clean/one", 0x5342_736f_c649_4974),
    ("CSC-2D/clean/dense", 0x338c_bec1_6801_1516),
    ("CSC-2D/faulty/one", 0xa4ce_d4d1_80d1_f94a),
    ("CSC-2D/faulty/dense", 0xafab_db60_78b1_3457),
];
const SAMPLED_SPMM_GOLDEN: &[(&str, u64)] = &[
    ("clean/one", 0x22b9_7e5a_a910_ee4b),
    ("clean/dense", 0x5628_bfd9_c4ce_a70b),
    ("faulty/one", 0x42f8_582b_56d4_9757),
    ("faulty/dense", 0x7667_99aa_7292_5017),
];
const SAMPLED_APP_GOLDEN: &[(&str, u64)] = &[
    ("bfs", 0x85ee_310e_1ebd_34de),
    ("sssp", 0xeab3_e4d7_3e4f_19f9),
    ("ppr", 0xe3d8_0e16_d273_1086),
];

const SPMV_LAUNCH_GOLDEN: &[(&str, u64)] = &[
    ("COO.nnz-1D/clean", 0xced3_78ab_4089_76b0),
    ("COO.nnz-1D/faulty", 0x1573_7993_932a_054c),
    ("COO.nnz-1D/silent", 0x409a_a181_6185_ff80),
    ("COO.nnz-1D/unverified", 0x3dd3_b246_3635_9f17),
    ("COO.nnz-1D/loss", 0x0f97_20fe_d751_59d7),
    ("CSR.row-1D/clean", 0x0880_be6c_d6e6_2ca0),
    ("CSR.row-1D/faulty", 0x8cae_3f11_b492_93c0),
    ("CSR.row-1D/silent", 0x1513_1566_7a69_0c78),
    ("CSR.row-1D/unverified", 0x709b_abee_7a82_44ff),
    ("CSR.row-1D/loss", 0xe1b4_e12c_c096_049d),
    ("CSR.nnz-1D/clean", 0x4bc6_479d_ce80_131c),
    ("CSR.nnz-1D/faulty", 0x6acb_0702_189e_52bc),
    ("CSR.nnz-1D/silent", 0x6394_b715_a178_1b18),
    ("CSR.nnz-1D/unverified", 0xe73c_2a47_35ed_7f63),
    ("CSR.nnz-1D/loss", 0xa262_557f_7331_14ab),
    ("DCOO-2D/clean", 0x487d_b011_cdc0_866c),
    ("DCOO-2D/faulty", 0x11ea_f623_d426_38c4),
    ("DCOO-2D/silent", 0xdbb5_cf08_2551_0a44),
    ("DCOO-2D/unverified", 0xde40_8067_ab11_6b47),
    ("DCOO-2D/loss", 0xffd4_a924_87d7_1ab0),
];
const SPMSPV_LAUNCH_GOLDEN: &[(&str, u64)] = &[
    ("COO/clean", 0xb9d8_bffc_da94_dc02),
    ("COO/faulty", 0xa944_d488_1e09_4f56),
    ("COO/silent", 0x1183_3110_12d9_5e9a),
    ("COO/unverified", 0xab57_c9c3_362d_615a),
    ("COO/loss", 0x631a_6a4a_72b2_777d),
    ("CSR/clean", 0x172d_b7e7_618c_0e08),
    ("CSR/faulty", 0x41ee_d2cc_dac2_d37b),
    ("CSR/silent", 0xc12a_47fa_0fce_65e8),
    ("CSR/unverified", 0x8981_f9aa_757c_3404),
    ("CSR/loss", 0xe620_21cf_f1f5_b510),
    ("CSC-R/clean", 0xa3bd_c85a_4155_79e9),
    ("CSC-R/faulty", 0xf892_ee9d_89fb_a1cf),
    ("CSC-R/silent", 0x626c_7203_493b_2989),
    ("CSC-R/unverified", 0xaf03_f1ff_12d7_c411),
    ("CSC-R/loss", 0x4991_2132_76a9_5f72),
    ("CSC-C/clean", 0xb2b9_ca8b_db44_787d),
    ("CSC-C/faulty", 0x8ca0_180d_a16c_9cae),
    ("CSC-C/silent", 0x97dc_117b_470c_169b),
    ("CSC-C/unverified", 0x97fc_0031_7be9_781b),
    ("CSC-C/loss", 0xa9a2_0575_4b93_3d84),
    ("CSC-2D/clean", 0x1bb7_a4c2_e5de_b242),
    ("CSC-2D/faulty", 0xc381_663e_bb04_681a),
    ("CSC-2D/silent", 0xcd6f_2530_8ca8_4bc6),
    ("CSC-2D/unverified", 0xaa55_ecd7_e83d_6203),
    ("CSC-2D/loss", 0x1c33_b7c2_52af_3a56),
];
const SPMM_LAUNCH_GOLDEN: &[(&str, u64)] = &[
    ("SpMM/clean", 0xbae4_94c4_2bb8_b7ba),
    ("SpMM/faulty", 0x718a_5ab7_d21e_5bca),
    ("SpMM/silent", 0x0c8d_2a9e_b513_8c1a),
    ("SpMM/unverified", 0xee1b_907b_3850_02e8),
    ("SpMM/loss", 0x9c4d_08f5_42d6_faed),
];
const TRIANGLE_GOLDEN: u64 = 0x4a4a_0ab0_94ba_0f26;
const ANALYTIC_BOOL_GOLDEN: &[(&str, u64)] = &[
    ("bool/COO.nnz-1D/clean/one", 0xf897_c49d_7d88_fe93),
    ("bool/COO.nnz-1D/clean/dense", 0x8bdb_4570_6ceb_0853),
    ("bool/COO.nnz-1D/faulty/one", 0x1578_8167_d9bc_1e22),
    ("bool/COO.nnz-1D/faulty/dense", 0x8235_0094_ea5a_1462),
    ("bool/CSR.row-1D/clean/one", 0x9f1c_ad0a_f3d3_79d4),
    ("bool/CSR.row-1D/clean/dense", 0x0bd9_2c38_0471_7014),
    ("bool/CSR.row-1D/faulty/one", 0xccb1_0270_61bd_561b),
    ("bool/CSR.row-1D/faulty/dense", 0x5ff4_8343_511f_5fdb),
    ("bool/CSR.nnz-1D/clean/one", 0xe714_715b_4425_1671),
    ("bool/CSR.nnz-1D/clean/dense", 0x7a57_f22e_3387_2031),
    ("bool/CSR.nnz-1D/faulty/one", 0x3d44_5249_e0f0_7644),
    ("bool/CSR.nnz-1D/faulty/dense", 0xaa00_d176_f18e_6c84),
    ("bool/DCOO-2D/clean/one", 0x5a49_a470_f4a4_a41b),
    ("bool/DCOO-2D/clean/dense", 0xed8d_2543_e406_addb),
    ("bool/DCOO-2D/faulty/one", 0xd4d8_dc6a_d277_2f4a),
    ("bool/DCOO-2D/faulty/dense", 0x4195_5b97_e315_258a),
    ("bool/COO/clean/one", 0xd84f_9e17_51c9_5bde),
    ("bool/COO/clean/dense", 0x00ae_7948_6d62_b6d1),
    ("bool/COO/faulty/one", 0x1991_dd74_0fb8_2d64),
    ("bool/COO/faulty/dense", 0x312f_e7bb_adf7_b046),
    ("bool/CSR/clean/one", 0x1ac5_5dba_30fc_ef92),
    ("bool/CSR/clean/dense", 0xa998_17b2_2d83_5d47),
    ("bool/CSR/faulty/one", 0x76c6_60f7_392a_bac5),
    ("bool/CSR/faulty/dense", 0xe40f_ed86_8818_4946),
    ("bool/CSC-R/clean/one", 0x0923_6baf_27a2_8423),
    ("bool/CSC-R/clean/dense", 0xa91c_22b6_72d6_5b29),
    ("bool/CSC-R/faulty/one", 0xc9c1_72dc_c2a3_4d8c),
    ("bool/CSC-R/faulty/dense", 0xbb79_160d_b98f_8823),
    ("bool/CSC-C/clean/one", 0xb2bb_944f_deca_42ff),
    ("bool/CSC-C/clean/dense", 0x6a5c_c3e8_de73_a1e1),
    ("bool/CSC-C/faulty/one", 0x9775_e80d_35c7_8c46),
    ("bool/CSC-C/faulty/dense", 0x1c20_a70b_43e9_ee3f),
    ("bool/CSC-2D/clean/one", 0xfb64_d286_b3a0_43c7),
    ("bool/CSC-2D/clean/dense", 0x9e75_d1c2_2eb5_9c6c),
    ("bool/CSC-2D/faulty/one", 0x0533_d048_28c9_75b4),
    ("bool/CSC-2D/faulty/dense", 0x837c_b79d_16aa_ffd5),
    ("bool/SpMM/clean/one", 0xc4b6_96d6_7e56_7cd5),
    ("bool/SpMM/clean/dense", 0x4549_79b8_0271_68d5),
    ("bool/SpMM/faulty/one", 0x7cce_b191_b589_f0be),
    ("bool/SpMM/faulty/dense", 0xfc3b_ceb0_316f_04be),
];
const ANALYTIC_PLUS_TIMES_GOLDEN: &[(&str, u64)] = &[
    ("plus-times/COO.nnz-1D/clean/one", 0x2645_8e41_0d84_379a),
    ("plus-times/COO.nnz-1D/clean/dense", 0x24d9_6ea3_b43f_b54f),
    ("plus-times/COO.nnz-1D/faulty/one", 0xa8cf_46c8_4db2_f7ff),
    ("plus-times/COO.nnz-1D/faulty/dense", 0x36f3_5cc6_7afa_6002),
    ("plus-times/CSR.row-1D/clean/one", 0x628a_279f_375e_6d3b),
    ("plus-times/CSR.row-1D/clean/dense", 0xec1b_8219_716e_bb7e),
    ("plus-times/CSR.row-1D/faulty/one", 0x96f6_0fab_3900_16b6),
    ("plus-times/CSR.row-1D/faulty/dense", 0xb201_8324_1b5b_4aeb),
    ("plus-times/CSR.nnz-1D/clean/one", 0x0ec0_19ca_8228_a43a),
    ("plus-times/CSR.nnz-1D/clean/dense", 0xb1a3_c434_4d7b_de2f),
    ("plus-times/CSR.nnz-1D/faulty/one", 0x25b5_013a_d729_eb7b),
    ("plus-times/CSR.nnz-1D/faulty/dense", 0x2af8_3201_e54a_f23e),
    ("plus-times/DCOO-2D/clean/one", 0x4633_7c00_7312_f4d8),
    ("plus-times/DCOO-2D/clean/dense", 0x7159_8714_6b81_818d),
    ("plus-times/DCOO-2D/faulty/one", 0xbf04_4ce4_f165_1f31),
    ("plus-times/DCOO-2D/faulty/dense", 0xc36d_3c09_4fa2_1a9c),
    ("plus-times/COO/clean/one", 0xb2b2_d2c1_00de_4fe7),
    ("plus-times/COO/clean/dense", 0x74ef_64c2_8443_c311),
    ("plus-times/COO/faulty/one", 0x89c3_cb5c_2ba0_95b6),
    ("plus-times/COO/faulty/dense", 0xffef_0c2e_98e8_4a51),
    ("plus-times/CSR/clean/one", 0x0eef_8a74_4607_7c50),
    ("plus-times/CSR/clean/dense", 0x79d0_055d_dfbe_93de),
    ("plus-times/CSR/faulty/one", 0x82b4_2b11_dab8_c36b),
    ("plus-times/CSR/faulty/dense", 0x8b67_9698_eee7_c90d),
    ("plus-times/CSC-R/clean/one", 0x3a52_9174_01e5_9294),
    ("plus-times/CSC-R/clean/dense", 0x90e9_a380_369c_f2c7),
    ("plus-times/CSC-R/faulty/one", 0xbeea_acd7_2ea3_909e),
    ("plus-times/CSC-R/faulty/dense", 0xb2a7_175d_5ecb_0f75),
    ("plus-times/CSC-C/clean/one", 0xd440_9e52_32a5_92a9),
    ("plus-times/CSC-C/clean/dense", 0x6886_bd63_cdfd_da71),
    ("plus-times/CSC-C/faulty/one", 0x1124_cf05_4b0b_eb8b),
    ("plus-times/CSC-C/faulty/dense", 0x7177_0de8_022a_1a86),
    ("plus-times/CSC-2D/clean/one", 0xd848_582c_5ebf_151c),
    ("plus-times/CSC-2D/clean/dense", 0xff1f_77a0_bac8_e1ed),
    ("plus-times/CSC-2D/faulty/one", 0xf643_862f_cb10_7d41),
    ("plus-times/CSC-2D/faulty/dense", 0x8711_89f7_0ae2_19b7),
    ("plus-times/SpMM/clean/one", 0xa3f7_5d61_205a_c66e),
    ("plus-times/SpMM/clean/dense", 0xcc1e_72fa_c8f0_84ae),
    ("plus-times/SpMM/faulty/one", 0x8919_4543_1022_ab46),
    ("plus-times/SpMM/faulty/dense", 0xa497_120b_8a75_3f06),
];
const ANALYTIC_HUB_GOLDEN: &[(&str, u64)] = &[
    ("bool/COO.nnz-1D/clean/one", 0x2659_c3fc_3183_757d),
    ("bool/COO.nnz-1D/clean/dense", 0x9604_de60_d472_077c),
    ("bool/COO.nnz-1D/faulty/one", 0xb058_462c_96f2_93bb),
    ("bool/COO.nnz-1D/faulty/dense", 0x2003_6091_39e1_25ba),
    ("bool/CSR.row-1D/clean/one", 0xe8e5_ef4e_42e2_2238),
    ("bool/CSR.row-1D/clean/dense", 0x793a_d4e9_9ff3_9039),
    ("bool/CSR.row-1D/faulty/one", 0xe676_be5f_78ae_5afb),
    ("bool/CSR.row-1D/faulty/dense", 0x5621_d8c4_1b9c_ecfa),
    ("bool/CSR.nnz-1D/clean/one", 0x523e_97e1_d202_612d),
    ("bool/CSR.nnz-1D/clean/dense", 0xc1e9_b246_74f0_f32c),
    ("bool/CSR.nnz-1D/faulty/one", 0x43ab_5cf0_3c14_a7dc),
    ("bool/CSR.nnz-1D/faulty/dense", 0xd400_428b_9926_15dd),
    ("bool/DCOO-2D/clean/one", 0xb295_1db1_f059_d3ef),
    ("bool/DCOO-2D/clean/dense", 0x2240_3816_9348_65ee),
    ("bool/DCOO-2D/faulty/one", 0xe8e5_43b6_6efe_ee52),
    ("bool/DCOO-2D/faulty/dense", 0x793a_2951_cc10_5c53),
    ("bool/COO/clean/one", 0xc551_7e40_8b74_a845),
    ("bool/COO/clean/dense", 0x9700_fe82_6dfd_2b79),
    ("bool/COO/faulty/one", 0x1efd_966f_4bc2_58a7),
    ("bool/COO/faulty/dense", 0x9f6d_e7ec_aee7_70a9),
    ("bool/CSR/clean/one", 0x060c_0eac_1892_5db2),
    ("bool/CSR/clean/dense", 0xa572_1896_7530_749d),
    ("bool/CSR/faulty/one", 0x587f_f686_3495_872e),
    ("bool/CSR/faulty/dense", 0x0298_e466_874a_5f6a),
    ("bool/CSC-R/clean/one", 0x8913_11fb_6b0b_458f),
    ("bool/CSC-R/clean/dense", 0x60b9_0fbf_e8c3_5d95),
    ("bool/CSC-R/faulty/one", 0xacc9_19f7_f21a_0048),
    ("bool/CSC-R/faulty/dense", 0xfd40_776a_0c12_cb62),
    ("bool/CSC-C/clean/one", 0x65e9_0bfa_894a_6ff1),
    ("bool/CSC-C/clean/dense", 0xc38b_293a_4abb_cb64),
    ("bool/CSC-C/faulty/one", 0xbb69_dbd9_cf8b_385e),
    ("bool/CSC-C/faulty/dense", 0x7e32_e4b3_f161_2923),
    ("bool/CSC-2D/clean/one", 0x8d37_8ea3_04d8_c307),
    ("bool/CSC-2D/clean/dense", 0xcfdb_ba7f_f4a6_d070),
    ("bool/CSC-2D/faulty/one", 0xdffe_a251_657b_71e6),
    ("bool/CSC-2D/faulty/dense", 0xe6a3_7972_0f2b_451b),
    ("bool/SpMM/clean/one", 0xd6ee_4ed5_d43c_7b3d),
    ("bool/SpMM/clean/dense", 0x9217_4f84_281e_6b7d),
    ("bool/SpMM/faulty/one", 0x0d16_ea2a_a47c_6e62),
    ("bool/SpMM/faulty/dense", 0x51ed_e97c_509a_7e22),
    ("plus-times/COO.nnz-1D/clean/one", 0x3b78_a0f7_8924_454b),
    ("plus-times/COO.nnz-1D/clean/dense", 0x48aa_5085_d6f7_b3d2),
    ("plus-times/COO.nnz-1D/faulty/one", 0xafbe_17dd_3a78_f62f),
    ("plus-times/COO.nnz-1D/faulty/dense", 0x907d_c765_106f_31d6),
    ("plus-times/CSR.row-1D/clean/one", 0xaecb_375d_7a8b_0fc7),
    ("plus-times/CSR.row-1D/clean/dense", 0xe58b_404a_d443_2a1e),
    ("plus-times/CSR.row-1D/faulty/one", 0x05a4_0dc9_c81b_12a6),
    ("plus-times/CSR.row-1D/faulty/dense", 0x4298_9ff3_992d_0fcb),
    ("plus-times/CSR.nnz-1D/clean/one", 0x5bbe_59db_5d3f_98ce),
    ("plus-times/CSR.nnz-1D/clean/dense", 0x8c35_24b0_279f_6fa3),
    ("plus-times/CSR.nnz-1D/faulty/one", 0x33c7_6c5f_dbaf_b2b2),
    ("plus-times/CSR.nnz-1D/faulty/dense", 0x663c_84a7_a049_2577),
    ("plus-times/DCOO-2D/clean/one", 0x2b6c_6f7b_8758_e22c),
    ("plus-times/DCOO-2D/clean/dense", 0xbd03_03d6_fd05_759d),
    ("plus-times/DCOO-2D/faulty/one", 0x24c5_ce87_b99a_189e),
    ("plus-times/DCOO-2D/faulty/dense", 0xcda8_1ddc_a554_5b93),
    ("plus-times/COO/clean/one", 0x39e3_a8fd_ff4d_cbbf),
    ("plus-times/COO/clean/dense", 0xb44d_9217_1971_15ae),
    ("plus-times/COO/faulty/one", 0x7eb5_ede4_669d_2a96),
    ("plus-times/COO/faulty/dense", 0x3c5f_c78d_c5db_e9ba),
    ("plus-times/CSR/clean/one", 0xb0be_7e7b_a134_f573),
    ("plus-times/CSR/clean/dense", 0x3d76_b616_0387_0e6c),
    ("plus-times/CSR/faulty/one", 0x9aff_9836_bbdb_8ec7),
    ("plus-times/CSR/faulty/dense", 0x27ea_be1a_63c8_bb30),
    ("plus-times/CSC-R/clean/one", 0xabce_6942_4278_ab86),
    ("plus-times/CSC-R/clean/dense", 0x30bc_f047_8145_9d93),
    ("plus-times/CSC-R/faulty/one", 0x97ee_8104_ad87_c0b9),
    ("plus-times/CSC-R/faulty/dense", 0xd4bc_9f1c_fdeb_e6d2),
    ("plus-times/CSC-C/clean/one", 0x3087_3fb6_0cb4_33db),
    ("plus-times/CSC-C/clean/dense", 0x7529_12a2_407c_d038),
    ("plus-times/CSC-C/faulty/one", 0xc481_b83b_a941_10cc),
    ("plus-times/CSC-C/faulty/dense", 0x2e37_e339_7cbb_ddf4),
    ("plus-times/CSC-2D/clean/one", 0x02c0_ae5e_cea5_10c0),
    ("plus-times/CSC-2D/clean/dense", 0x2eed_fbb5_edd5_cb6a),
    ("plus-times/CSC-2D/faulty/one", 0x3f84_8f77_a899_e892),
    ("plus-times/CSC-2D/faulty/dense", 0xdcc4_91bb_f37d_049a),
    ("plus-times/SpMM/clean/one", 0x8473_0787_b2e8_50be),
    ("plus-times/SpMM/clean/dense", 0xb8a9_9ce6_6144_397e),
    ("plus-times/SpMM/faulty/one", 0xf83b_ed16_d11a_ccdf),
    ("plus-times/SpMM/faulty/dense", 0xe074_c078_6015_772f),
];
const ANALYTIC_APP_GOLDEN: &[(&str, u64)] = &[
    ("bfs", 0x4a5d_a3c3_f401_9f28),
    ("sssp", 0x1460_c642_f575_1b0a),
    ("ppr", 0x700c_ba4a_ba35_50aa),
];
const ANALYTIC_PER_TASKLET_GOLDEN: u64 = 0xb374_1bc1_5752_8fbf;

const BFS_RUN_GOLDEN: u64 = 0x486f_b910_d469_3e87;
const SSSP_RUN_GOLDEN: u64 = 0x8076_8d4b_c416_f42c;
const PPR_RUN_GOLDEN: u64 = 0xff32_23d8_39f6_54b4;
const WIDEST_RUN_GOLDEN: u64 = 0xf8b6_f108_3b4d_eb7c;
const WCC_RUN_GOLDEN: u64 = 0xcc13_918e_5c4a_0992;
const CRASHED_BATCH_SNAPSHOT_GOLDEN: u64 = 0x30b0_20d3_c6d7_f5b9;
const EXPORTER_GOLDEN: &[(&str, u64)] = &[
    ("full/clean/json", 0xce13_fb33_829a_0515),
    ("full/clean/counters_csv", 0xcce6_0254_2012_9fd8),
    ("full/clean/csv_row", 0x8918_0ccf_51a8_c698),
    ("sampled/clean/json", 0xdfc7_c174_d8d8_2195),
    ("sampled/clean/counters_csv", 0xa316_f1c2_9175_4764),
    ("sampled/clean/csv_row", 0x8794_6fe5_1423_964d),
    ("analytic/clean/json", 0xa3df_696d_7737_c21e),
    ("analytic/clean/counters_csv", 0x5ba9_df29_4e99_f65e),
    ("analytic/clean/csv_row", 0xc9ed_3a47_6eb6_e6af),
    ("full/faulty/json", 0xa0de_4386_b959_3af3),
    ("full/faulty/counters_csv", 0x4cba_99b8_1ba4_c36c),
    ("full/faulty/csv_row", 0x75d1_f905_2b47_0641),
    ("sampled/faulty/json", 0xdc4a_72a0_505e_a6d5),
    ("sampled/faulty/counters_csv", 0xd251_6756_3261_d5c8),
    ("sampled/faulty/csv_row", 0x6a88_715f_e4ea_df63),
    ("analytic/faulty/json", 0x2b79_083f_81f1_1b3f),
    ("analytic/faulty/counters_csv", 0xa0ad_bb6a_218c_654b),
    ("analytic/faulty/csv_row", 0x56bc_cb1a_cbf8_99b1),
];
const FAULTY_CRASHED_BATCH_GOLDEN: &[(&str, u64)] = &[
    ("snapshot", 0x3c22_c032_1dda_b831),
    ("journal", 0xa4b1_9c2a_e9e6_b58e),
    ("report", 0xe2fd_8c45_ab28_94ca),
];

const SPMV_GOLDEN: &str = "\
num_dpus=16 detailed=16 max_cycles=40951 instr=409904
active=409904 memory=95752 revolver=22533 rf=1351
details=16 tasklets_each=16
slot.issue=409904
slot.memory=95752
slot.revolver=22533
slot.rf=1351
dpu.cycles=529540
tasklet.issue=409904
tasklet.dispatch=1300884
tasklet.revolver=4084880
tasklet.rf=27747
tasklet.dma_queue=984913
tasklet.dma_startup=66176
tasklet.dma_transfer=228064
tasklet.mutex=0
tasklet.barrier=447648
tasklet.tail=922424
tasklet.budget=8472640
event.spin_retries=0
event.dma_transfers=752
event.dma_bytes=455872
event.mutex_acquires=256
event.barrier_crossings=768
xfer.scatter_bytes=48000
xfer.broadcast_bytes=0
xfer.gather_bytes=48000
xfer.batches=2
host.merge_bytes=48000
host.scan_bytes=0
host.reductions=1
slot.fault=0
tasklet.fault=0
fault.injected=0
fault.detected=0
fault.recovered=0
fault.lost_dpus=0
fault.retries=0
fault.redistributions=0
fault.straggler_cycles=0
fault.retry_cycles=0
fault.timeouts=0
serve.cache_hits=0
serve.cache_misses=0
serve.saved_broadcast_bytes=0
serve.saved_batches=0
ckpt.snapshots=0
ckpt.bytes=0
ckpt.restores=0
serve.shed=0
queue.arrivals=0
queue.admitted=0
queue.rejected=0
queue.served=0
queue.shed_wait=0
queue.shed_deadline=0
queue.wait_cycles=0
tenant.active=0
serve.cache_evictions=0
serve.evicted_bytes=0
delta.epochs=0
delta.edges_requested=0
delta.edges_applied=0
delta.edges_inserted=0
delta.edges_deleted=0
delta.edges_redundant=0
delta.partitions_total=0
delta.partitions_dirty=0
delta.partitions_clean=0
delta.frontier_full=0
delta.frontier_seeded=0
delta.frontier_saved=0
sdc.injected=0
sdc.detected=0
sdc.corrected=0
sdc.escaped=0
sdc.checks=0
sdc.recompute_cycles=0
quarantine.strikes=0
quarantine.events=0
quarantine.replans=0
quarantine.dpus_total=0
quarantine.dpus_active=0
quarantine.dpus_quarantined=0";

const SPMSPV_GOLDEN: &str = "\
num_dpus=16 detailed=16 max_cycles=20107 instr=77984
active=80084 memory=199194 revolver=7936 rf=67
details=16 tasklets_each=16
slot.issue=80084
slot.memory=199194
slot.revolver=7936
slot.rf=67
dpu.cycles=287281
tasklet.issue=80084
tasklet.dispatch=80462
tasklet.revolver=750980
tasklet.rf=4108
tasklet.dma_queue=2653069
tasklet.dma_startup=216656
tasklet.dma_transfer=45272
tasklet.mutex=90300
tasklet.barrier=1984
tasklet.tail=673581
tasklet.budget=4596496
event.spin_retries=2100
event.dma_transfers=2462
event.dma_bytes=90288
event.mutex_acquires=3262
event.barrier_crossings=512
xfer.scatter_bytes=9600
xfer.broadcast_bytes=0
xfer.gather_bytes=16640
xfer.batches=2
host.merge_bytes=11760
host.scan_bytes=0
host.reductions=1
slot.fault=0
tasklet.fault=0
fault.injected=0
fault.detected=0
fault.recovered=0
fault.lost_dpus=0
fault.retries=0
fault.redistributions=0
fault.straggler_cycles=0
fault.retry_cycles=0
fault.timeouts=0
serve.cache_hits=0
serve.cache_misses=0
serve.saved_broadcast_bytes=0
serve.saved_batches=0
ckpt.snapshots=0
ckpt.bytes=0
ckpt.restores=0
serve.shed=0
queue.arrivals=0
queue.admitted=0
queue.rejected=0
queue.served=0
queue.shed_wait=0
queue.shed_deadline=0
queue.wait_cycles=0
tenant.active=0
serve.cache_evictions=0
serve.evicted_bytes=0
delta.epochs=0
delta.edges_requested=0
delta.edges_applied=0
delta.edges_inserted=0
delta.edges_deleted=0
delta.edges_redundant=0
delta.partitions_total=0
delta.partitions_dirty=0
delta.partitions_clean=0
delta.frontier_full=0
delta.frontier_seeded=0
delta.frontier_saved=0
sdc.injected=0
sdc.detected=0
sdc.corrected=0
sdc.escaped=0
sdc.checks=0
sdc.recompute_cycles=0
quarantine.strikes=0
quarantine.events=0
quarantine.replans=0
quarantine.dpus_total=0
quarantine.dpus_active=0
quarantine.dpus_quarantined=0";

const SPMM_GOLDEN: &str = "\
num_dpus=16 detailed=16 max_cycles=67835 instr=762288
active=762288 memory=102923 revolver=4662 rf=413
details=16 tasklets_each=16
slot.issue=762288
slot.memory=102923
slot.revolver=4662
slot.rf=413
dpu.cycles=870286
tasklet.issue=762288
tasklet.dispatch=3034592
tasklet.revolver=7613280
tasklet.rf=55172
tasklet.dma_queue=1078486
tasklet.dma_startup=61952
tasklet.dma_transfer=276000
tasklet.mutex=0
tasklet.barrier=0
tasklet.tail=1042806
tasklet.budget=13924576
event.spin_retries=0
event.dma_transfers=704
event.dma_bytes=552000
event.mutex_acquires=0
event.barrier_crossings=256
xfer.scatter_bytes=192000
xfer.broadcast_bytes=0
xfer.gather_bytes=192000
xfer.batches=2
host.merge_bytes=192000
host.scan_bytes=0
host.reductions=1
slot.fault=0
tasklet.fault=0
fault.injected=0
fault.detected=0
fault.recovered=0
fault.lost_dpus=0
fault.retries=0
fault.redistributions=0
fault.straggler_cycles=0
fault.retry_cycles=0
fault.timeouts=0
serve.cache_hits=0
serve.cache_misses=0
serve.saved_broadcast_bytes=0
serve.saved_batches=0
ckpt.snapshots=0
ckpt.bytes=0
ckpt.restores=0
serve.shed=0
queue.arrivals=0
queue.admitted=0
queue.rejected=0
queue.served=0
queue.shed_wait=0
queue.shed_deadline=0
queue.wait_cycles=0
tenant.active=0
serve.cache_evictions=0
serve.evicted_bytes=0
delta.epochs=0
delta.edges_requested=0
delta.edges_applied=0
delta.edges_inserted=0
delta.edges_deleted=0
delta.edges_redundant=0
delta.partitions_total=0
delta.partitions_dirty=0
delta.partitions_clean=0
delta.frontier_full=0
delta.frontier_seeded=0
delta.frontier_saved=0
sdc.injected=0
sdc.detected=0
sdc.corrected=0
sdc.escaped=0
sdc.checks=0
sdc.recompute_cycles=0
quarantine.strikes=0
quarantine.events=0
quarantine.replans=0
quarantine.dpus_total=0
quarantine.dpus_active=0
quarantine.dpus_quarantined=0";

const SPMV_FAULTY_GOLDEN: &str = "\
degraded=false
num_dpus=16 detailed=16 max_cycles=82158 instr=409904
active=409904 memory=95752 revolver=22533 rf=1351
details=16 tasklets_each=16
slot.issue=409904
slot.memory=95752
slot.revolver=22533
slot.rf=1351
dpu.cycles=594986
tasklet.issue=409904
tasklet.dispatch=1300884
tasklet.revolver=4084880
tasklet.rf=27747
tasklet.dma_queue=984913
tasklet.dma_startup=66176
tasklet.dma_transfer=228064
tasklet.mutex=0
tasklet.barrier=447648
tasklet.tail=922424
tasklet.budget=9519776
event.spin_retries=0
event.dma_transfers=752
event.dma_bytes=455872
event.mutex_acquires=256
event.barrier_crossings=768
xfer.scatter_bytes=48000
xfer.broadcast_bytes=0
xfer.gather_bytes=48000
xfer.batches=2
host.merge_bytes=48000
host.scan_bytes=0
host.reductions=1
slot.fault=65446
tasklet.fault=1047136
fault.injected=6
fault.detected=6
fault.recovered=6
fault.lost_dpus=0
fault.retries=9
fault.redistributions=1
fault.straggler_cycles=20143
fault.retry_cycles=45303
fault.timeouts=0
serve.cache_hits=0
serve.cache_misses=0
serve.saved_broadcast_bytes=0
serve.saved_batches=0
ckpt.snapshots=0
ckpt.bytes=0
ckpt.restores=0
serve.shed=0
queue.arrivals=0
queue.admitted=0
queue.rejected=0
queue.served=0
queue.shed_wait=0
queue.shed_deadline=0
queue.wait_cycles=0
tenant.active=0
serve.cache_evictions=0
serve.evicted_bytes=0
delta.epochs=0
delta.edges_requested=0
delta.edges_applied=0
delta.edges_inserted=0
delta.edges_deleted=0
delta.edges_redundant=0
delta.partitions_total=0
delta.partitions_dirty=0
delta.partitions_clean=0
delta.frontier_full=0
delta.frontier_seeded=0
delta.frontier_saved=0
sdc.injected=0
sdc.detected=0
sdc.corrected=0
sdc.escaped=0
sdc.checks=0
sdc.recompute_cycles=0
quarantine.strikes=0
quarantine.events=0
quarantine.replans=0
quarantine.dpus_total=0
quarantine.dpus_active=0
quarantine.dpus_quarantined=0";

const SPMSPV_FAULTY_GOLDEN: &str = "\
degraded=false
num_dpus=16 detailed=16 max_cycles=38658 instr=77984
active=80084 memory=199194 revolver=7936 rf=67
details=16 tasklets_each=16
slot.issue=80084
slot.memory=199194
slot.revolver=7936
slot.rf=67
dpu.cycles=320588
tasklet.issue=80084
tasklet.dispatch=80462
tasklet.revolver=750980
tasklet.rf=4108
tasklet.dma_queue=2653069
tasklet.dma_startup=216656
tasklet.dma_transfer=45272
tasklet.mutex=90300
tasklet.barrier=1984
tasklet.tail=673581
tasklet.budget=5129408
event.spin_retries=2100
event.dma_transfers=2462
event.dma_bytes=90288
event.mutex_acquires=3262
event.barrier_crossings=512
xfer.scatter_bytes=9600
xfer.broadcast_bytes=0
xfer.gather_bytes=16640
xfer.batches=2
host.merge_bytes=11760
host.scan_bytes=0
host.reductions=1
slot.fault=33307
tasklet.fault=532912
fault.injected=6
fault.detected=6
fault.recovered=6
fault.lost_dpus=0
fault.retries=9
fault.redistributions=1
fault.straggler_cycles=9754
fault.retry_cycles=23553
fault.timeouts=0
serve.cache_hits=0
serve.cache_misses=0
serve.saved_broadcast_bytes=0
serve.saved_batches=0
ckpt.snapshots=0
ckpt.bytes=0
ckpt.restores=0
serve.shed=0
queue.arrivals=0
queue.admitted=0
queue.rejected=0
queue.served=0
queue.shed_wait=0
queue.shed_deadline=0
queue.wait_cycles=0
tenant.active=0
serve.cache_evictions=0
serve.evicted_bytes=0
delta.epochs=0
delta.edges_requested=0
delta.edges_applied=0
delta.edges_inserted=0
delta.edges_deleted=0
delta.edges_redundant=0
delta.partitions_total=0
delta.partitions_dirty=0
delta.partitions_clean=0
delta.frontier_full=0
delta.frontier_seeded=0
delta.frontier_saved=0
sdc.injected=0
sdc.detected=0
sdc.corrected=0
sdc.escaped=0
sdc.checks=0
sdc.recompute_cycles=0
quarantine.strikes=0
quarantine.events=0
quarantine.replans=0
quarantine.dpus_total=0
quarantine.dpus_active=0
quarantine.dpus_quarantined=0";

const SPMM_FAULTY_GOLDEN: &str = "\
degraded=false
num_dpus=16 detailed=16 max_cycles=135926 instr=762288
active=762288 memory=102923 revolver=4662 rf=413
details=16 tasklets_each=16
slot.issue=762288
slot.memory=102923
slot.revolver=4662
slot.rf=413
dpu.cycles=975782
tasklet.issue=762288
tasklet.dispatch=3034592
tasklet.revolver=7613280
tasklet.rf=55172
tasklet.dma_queue=1078486
tasklet.dma_startup=61952
tasklet.dma_transfer=276000
tasklet.mutex=0
tasklet.barrier=0
tasklet.tail=1042806
tasklet.budget=15612512
event.spin_retries=0
event.dma_transfers=704
event.dma_bytes=552000
event.mutex_acquires=0
event.barrier_crossings=256
xfer.scatter_bytes=192000
xfer.broadcast_bytes=0
xfer.gather_bytes=192000
xfer.batches=2
host.merge_bytes=192000
host.scan_bytes=0
host.reductions=1
slot.fault=105496
tasklet.fault=1687936
fault.injected=7
fault.detected=7
fault.recovered=7
fault.lost_dpus=0
fault.retries=11
fault.redistributions=1
fault.straggler_cycles=33309
fault.retry_cycles=72187
fault.timeouts=1
serve.cache_hits=0
serve.cache_misses=0
serve.saved_broadcast_bytes=0
serve.saved_batches=0
ckpt.snapshots=0
ckpt.bytes=0
ckpt.restores=0
serve.shed=0
queue.arrivals=0
queue.admitted=0
queue.rejected=0
queue.served=0
queue.shed_wait=0
queue.shed_deadline=0
queue.wait_cycles=0
tenant.active=0
serve.cache_evictions=0
serve.evicted_bytes=0
delta.epochs=0
delta.edges_requested=0
delta.edges_applied=0
delta.edges_inserted=0
delta.edges_deleted=0
delta.edges_redundant=0
delta.partitions_total=0
delta.partitions_dirty=0
delta.partitions_clean=0
delta.frontier_full=0
delta.frontier_seeded=0
delta.frontier_saved=0
sdc.injected=0
sdc.detected=0
sdc.corrected=0
sdc.escaped=0
sdc.checks=0
sdc.recompute_cycles=0
quarantine.strikes=0
quarantine.events=0
quarantine.replans=0
quarantine.dpus_total=0
quarantine.dpus_active=0
quarantine.dpus_quarantined=0";
