//! Performance smoke test for the parallel replay engine.
//!
//! Replays two launches across 2048 simulated DPUs (64 of them replayed
//! per launch) with the host-side pool pinned to 1 thread and then to N
//! threads: a dense-input SpMV launch, where nearly every replayed trace
//! set is distinct, and a one-vertex-frontier CSC-2D SpMSpV launch, where
//! most replayed sets repeat one the launch already replayed. For each it
//! asserts that the resulting `KernelReport` — including every
//! floating-point field, the full counter rollup, the per-DPU/per-tasklet
//! observability details, and the JSON/CSV exporter strings — is
//! bit-identical, and — when the machine actually has ≥4 cores — that the
//! parallel SpMV replay is at least 2× faster. A replay-only leg then times
//! the discrete-event pipeline alone on fixed 16-tasklet trace sets, each
//! at its fastest of several replays, and records its host nanoseconds per
//! simulated instruction (no gate: host timings drift by more than 10 %
//! between runs on a shared VM). Emits
//! `BENCH_parallel_sim.json` in the working directory. On a single core
//! the threads can only take turns, so the speedup is recorded as `null`
//! and reported as not measured.

use std::time::Instant;

use alpha_pim::semiring::BoolOrAnd;
use alpha_pim::{PreparedSpmspv, PreparedSpmv, SpmspvVariant, SpmvVariant};
use alpha_pim_sim::pipeline::simulate_dpu_profiled;
use alpha_pim_sim::{
    set_sim_threads, CounterId, InstrClass, KernelReport, ObservabilityLevel, PimConfig, PimSystem,
    PipelineConfig, SimFidelity, TaskletTrace,
};
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::{gen, DenseVector, Graph, SparseVector};

const DPUS: u32 = 2048;
const ITERS: u32 = 5;

/// Timed replays of each DES-leg trace set (one more warms up).
const DES_ROUNDS: u32 = 20;

/// Frozen fault-free makespan of the SpMV launch (2048 DPUs, 64 sampled,
/// Erdős–Rényi 60k nodes / 600k edges seed 7, Coo1d, all-ones input). The
/// fault-injection layer must be a strict no-op when no plan is
/// configured; any drift here means the fault-free path picked up a tax.
/// (Re-frozen from 33_937 after the adaptive `nnz_balanced_ranges` rewrite:
/// tighter nnz balance shrinks the straggler partition, so the makespan
/// legitimately dropped.)
const FAULT_FREE_MAX_CYCLES: u64 = 33_136;

/// Frozen makespan of the SpMSpV launch (same system and graph, Csc2d,
/// frontier = vertex 0). Replaying a trace set once per launch and reusing
/// its profile for every equal set must not move it.
const ONE_VERTEX_MAX_CYCLES: u64 = 7_346;

/// What one launch measured.
struct Timed {
    name: &'static str,
    max_cycles: u64,
    secs_seq: f64,
    secs_par: f64,
}

/// Runs `launch` once and then `ITERS` timed times at `threads_seq` and at
/// `threads_par` threads, asserting the 1-vs-N reports are bit-identical
/// down to the per-tasklet details and the exporter strings.
fn time_launch(
    name: &'static str,
    threads_seq: usize,
    threads_par: usize,
    launch: impl Fn() -> KernelReport,
) -> (Timed, KernelReport) {
    let timed = |threads: usize| {
        set_sim_threads(threads);
        let report = launch();
        let start = Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(launch());
        }
        (report, start.elapsed().as_secs_f64() / f64::from(ITERS))
    };
    let (seq_report, secs_seq) = timed(threads_seq);
    let (par_report, secs_par) = timed(threads_par);

    // The determinism guarantee holds unconditionally: identical reports,
    // down to the bits of the floating-point time, and it extends to the
    // observability layer — per-DPU details, per-tasklet counter sets, and
    // the exporter strings.
    assert_eq!(
        seq_report, par_report,
        "{name}: KernelReport diverged between 1 and {threads_par} threads"
    );
    assert_eq!(
        seq_report.seconds.to_bits(),
        par_report.seconds.to_bits(),
        "{name}: simulated seconds not bit-identical"
    );
    assert!(
        !seq_report.dpu_details.is_empty(),
        "{name}: PerTasklet observability retains DPU details"
    );
    assert!(seq_report.dpu_details.iter().all(|d| !d.tasklets.is_empty()));
    assert_eq!(
        seq_report.to_json(),
        par_report.to_json(),
        "{name}: JSON export diverged between 1 and {threads_par} threads"
    );
    assert_eq!(
        seq_report.counters_csv(),
        par_report.counters_csv(),
        "{name}: counter CSV diverged between 1 and {threads_par} threads"
    );
    assert_eq!(
        seq_report.breakdown.counters.check_ledgers(),
        Ok(()),
        "{name}: cycle attribution must partition the detailed DPU cycles and tasklet budget"
    );
    let max_cycles = seq_report.max_cycles;
    (Timed { name, max_cycles, secs_seq, secs_par }, seq_report)
}

/// The DES leg's 16-tasklet trace sets: the compute-, memory- and
/// sync-bound shapes of `examples/pipeline_profile.rs`, plus seeded mixes
/// shaped like kernel partitions (chunked DMA streams with per-chunk
/// bookkeeping, compute blocks of every class, short critical sections on
/// a few shared mutexes, and a closing barrier).
fn des_trace_sets() -> Vec<Vec<TaskletTrace>> {
    let per_tasklet = |build: &dyn Fn(&mut TaskletTrace)| -> Vec<TaskletTrace> {
        (0..16)
            .map(|_| {
                let mut t = TaskletTrace::new();
                build(&mut t);
                t
            })
            .collect()
    };
    let mut sets = vec![
        per_tasklet(&|t| {
            t.dma(2048);
            t.compute(InstrClass::Arith, 4000);
            t.compute(InstrClass::LoadStore, 1000);
            t.barrier();
        }),
        per_tasklet(&|t| {
            for _ in 0..200 {
                t.dma(8);
                t.compute(InstrClass::Arith, 6);
            }
            t.barrier();
        }),
        per_tasklet(&|t| {
            for _ in 0..150 {
                t.mutex_lock(0);
                t.compute(InstrClass::LoadStore, 3);
                t.mutex_unlock(0);
                t.compute(InstrClass::Arith, 4);
            }
            t.barrier();
        }),
    ];
    let classes = [InstrClass::Arith, InstrClass::LoadStore, InstrClass::Control, InstrClass::Move];
    let mut rng = SplitMix64::new(0xDE5);
    for _ in 0..8 {
        let set = (0..16)
            .map(|_| {
                let mut t = TaskletTrace::new();
                t.dma_stream(u64::from(256 + rng.u32_below(4096)), 256, 2);
                for _ in 0..20 + rng.usize_below(40) {
                    match rng.u32_below(8) {
                        0 => t.dma(8 * (1 + rng.u32_below(64))),
                        1 => {
                            let id = rng.u32_below(4) as u16;
                            t.mutex_lock(id);
                            t.compute(InstrClass::LoadStore, 1 + rng.u32_below(4));
                            t.mutex_unlock(id);
                        }
                        _ => t.compute(classes[rng.usize_below(4)], 1 + rng.u32_below(60)),
                    }
                }
                t.barrier();
                t
            })
            .collect();
        sets.push(set);
    }
    sets
}

/// Times `simulate_dpu_profiled` alone over [`des_trace_sets`] at its
/// steadiest: each set's fastest of [`DES_ROUNDS`] replays, summed, as
/// another tenant of a shared VM slows single replays, never speeds them
/// up. Returns the simulated instructions of one pass over the sets and
/// the host seconds that pass took.
fn time_des() -> (u64, f64) {
    let cfg = PipelineConfig::default();
    let mut instructions = 0;
    let mut secs = 0.0;
    for traces in &des_trace_sets() {
        let replay = || {
            std::hint::black_box(simulate_dpu_profiled(std::hint::black_box(traces), &cfg))
                .counters
                .get(CounterId::SlotIssue)
        };
        let issued = replay();
        let mut fastest = f64::INFINITY;
        for _ in 0..DES_ROUNDS {
            let start = Instant::now();
            assert_eq!(replay(), issued, "the DES must replay the same instructions");
            fastest = fastest.min(start.elapsed().as_secs_f64());
        }
        instructions += issued;
        secs += fastest;
    }
    (instructions, secs)
}

fn main() {
    let graph = Graph::from_coo(gen::erdos_renyi(60_000, 600_000, 7).expect("valid args"));
    let m = graph.transposed();
    let sys = PimSystem::new(PimConfig {
        num_dpus: DPUS,
        fidelity: SimFidelity::Sampled(64),
        observability: ObservabilityLevel::PerTasklet,
        ..Default::default()
    })
    .expect("valid config");
    let n = graph.nodes() as usize;
    let dense = DenseVector::filled(n, 1u32);
    let one_vertex = SparseVector::one_hot(n, 0, 1u32);
    let spmv = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Coo1d, &sys).expect("fits");
    let spmspv =
        PreparedSpmspv::<BoolOrAnd>::prepare(&m, SpmspvVariant::Csc2d, &sys).expect("fits");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The parallel leg must actually be parallel: honor ALPHA_PIM_THREADS
    // when it asks for >1 (clamped to the available cores), reject an
    // explicit 1, and otherwise take every core — but never fewer than 2,
    // so the pooled code path is always the one measured.
    let requested = std::env::var("ALPHA_PIM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    if requested == Some(1) {
        panic!(
            "ALPHA_PIM_THREADS=1 makes the \"parallel\" replay identical to the sequential \
             baseline; unset it or request more than one thread"
        );
    }
    let threads_par = requested.unwrap_or(cores).min(cores).max(2);
    let threads_seq = 1usize;
    assert_ne!(
        threads_par, threads_seq,
        "sequential and parallel replay configs must differ for the comparison to mean anything"
    );

    let (dense_launch, report) = time_launch("spmv_coo1d_dense", threads_seq, threads_par, || {
        spmv.run(&dense, &sys).expect("dims match").kernel
    });
    assert_eq!(
        report.max_cycles, FAULT_FREE_MAX_CYCLES,
        "fault-free makespan drifted — the resilience layer must cost nothing when disabled"
    );
    assert!(!report.degraded, "no fault plan, nothing may degrade");
    let (sparse_launch, report) =
        time_launch("spmspv_csc2d_one_vertex", threads_seq, threads_par, || {
            spmspv.run(&one_vertex, &sys).expect("dims match").kernel
        });
    assert_eq!(
        report.max_cycles, ONE_VERTEX_MAX_CYCLES,
        "one-vertex SpMSpV makespan drifted — reusing a replayed profile must not move it"
    );

    let speedup = |t: &Timed| (cores >= 2).then(|| t.secs_seq / t.secs_par);
    let mut launches = Vec::new();
    for t in [&dense_launch, &sparse_launch] {
        let s = speedup(t);
        println!(
            "perfsmoke: {} dpus {DPUS} threads {threads_seq}→{threads_par} ({cores} cores) \
             seq {:.4}s par {:.4}s speedup {}",
            t.name,
            t.secs_seq,
            t.secs_par,
            s.map_or("not measured".to_string(), |s| format!("{s:.2}x")),
        );
        launches.push(format!(
            "{{\"name\": \"{}\", \"max_cycles\": {}, \"secs_seq\": {:.6}, \"secs_par\": {:.6}, \
             \"speedup\": {}}}",
            t.name,
            t.max_cycles,
            t.secs_seq,
            t.secs_par,
            s.map_or("null".to_string(), |s| format!("{s:.3}")),
        ));
    }
    let (des_instructions, des_secs) = time_des();
    let des_ns = des_secs * 1e9 / des_instructions as f64;
    println!(
        "perfsmoke: des replay {des_instructions} simulated instructions in {des_secs:.4}s \
         (fastest of {DES_ROUNDS} per trace set), {des_ns:.1} ns per simulated instruction"
    );
    let json = format!(
        "{{{}, \"threads_seq\": {threads_seq}, \"threads_par\": {threads_par}, \
         \"cores\": {cores}, \"dpus\": {DPUS}, \"launches\": [{}], \
         \"des\": {{\"instructions\": {des_instructions}, \"secs\": {des_secs:.6}, \
         \"ns_per_instr\": {des_ns:.2}}}}}\n",
        alpha_pim_bench::report::bench_schema_fields("perfsmoke"),
        launches.join(", "),
    );
    std::fs::write("BENCH_parallel_sim.json", json).expect("write BENCH_parallel_sim.json");

    // The dense launch replays 64 distinct sets, so it is the one whose
    // replay parallelizes; the sparse launch is mostly reuse.
    if let Some(speedup) = speedup(&dense_launch).filter(|_| threads_par >= 4 && cores >= 4) {
        assert!(
            speedup >= 2.0,
            "expected >=2x speedup on {threads_par} threads ({cores} cores), \
             measured {speedup:.2}x"
        );
    } else {
        println!(
            "perfsmoke: {threads_par} thread(s) on {cores} core(s), skipping the 2x speedup gate"
        );
    }
    println!("perfsmoke: reports bit-identical across thread counts — OK");
}
