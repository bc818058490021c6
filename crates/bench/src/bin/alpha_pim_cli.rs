//! Command-line front end: run any framework algorithm on a MatrixMarket
//! file or a named catalog dataset on the simulated UPMEM system.
//!
//! ```text
//! alpha_pim_cli <bfs|sssp|ppr|wcc|widest> <graph> [options]
//! alpha_pim_cli top <graph> [options]        per-DPU/per-tasklet cycle attribution
//! alpha_pim_cli chaos <graph> [options]      fault-injection sweep vs fault-free BFS
//! alpha_pim_cli serve <graph> [options]      batched multi-query serving vs sequential
//! alpha_pim_cli serve-load <g1,g2,..> [options]  multi-tenant sustained-load service
//! alpha_pim_cli calibrate <all|graph> [options]  analytic fast path vs replay audit
//! alpha_pim_cli mutate <graph> [options]     dynamic-graph epochs, incremental vs scratch
//! alpha_pim_cli sdc <all|graph> [options]    silent-corruption audit of the ABFT merge guard
//!
//! <graph>     path to a .mtx file, or a catalog abbreviation (e.g. A302)
//! --source N      source vertex (default 0)
//! --dpus N        DPU count (default 2048)
//! --scale F       catalog scale factor in (0,1] (default 0.1)
//! --seed N        generator seed (default 42)
//! --policy P      adaptive | spmv | spmv1d | spmspv | threshold:<0..1> (default adaptive)
//! --max-weight W  synthetic edge weights in [1,W] for sssp/widest (default 16)
//! --kernel K      top only: spmv | spmspv (default spmv)
//! --density F     top only: input-vector density (default 0.1)
//! --limit N       top only: rows in the per-DPU table (default 10)
//! --fault-seed N  chaos/sdc only: seed of the fault draws (default 0xC4A05)
//! --flip-rate F   sdc only: per-DPU silent-corruption probability (default 0.05)
//! --queries N     serve only: queries in the seeded trace (default 64)
//! --batch N       serve only: queries per batch (default 16)
//! --trace-seed N  serve only: seed of the query trace (default 0x5EED)
//! --json PATH     serve only: also write the amortization record as JSON
//! --checkpoint-dir DIR  serve only: persist crash-recovery snapshots to DIR
//! --resume              serve only: resume an interrupted trace from DIR
//! --deadline-cycles N   serve only: shed queries over this cycle budget
//! --crash-after K       serve only: kill the first batch at boundary K
//! --fast-path P         serve only: replay | analytic (default replay)
//! --mix B:S:P           serve only: BFS:SSSP:PPR trace weights (default 1:1:1)
//! --baseline-queries N  serve --fast-path only: replay-path sample size
//!                       for the throughput baseline (default 256)
//! --tenants N           serve-load only: tenant count; weights cycle 4:2:1
//!                       with priorities high/normal/low (default 3)
//! --mean-gap N          serve-load only: mean open-loop arrival gap in
//!                       cycles (default 20000)
//! --queue-capacity N    serve-load only: admission queue bound (default 4096)
//! --budget-cycles N     serve-load only: per-query deadline budget covering
//!                       queue wait + execution (default: none)
//! --epochs N      mutate only: mutation epochs to apply (default 4)
//! --ops N         mutate only: insert/delete operations per epoch (default 64)
//! --bound F       calibrate only: max relative makespan error (default 0.05)
//! --frozen        calibrate only: also enforce the frozen per-graph
//!                 regression bounds (reference config: scale 0.02, 64 DPUs)
//! ```

use std::process::ExitCode;
use std::time::Instant;

use alpha_pim::apps::{AppOptions, KernelPolicy, PprOptions};
use alpha_pim::semiring::{BoolOrAnd, Semiring};
use alpha_pim::calibrate::{self, CalApp};
use alpha_pim::serve::{
    fingerprint_results, seeded_trace_weighted, BatchOutcome, FastPath, Query, QueryResult,
    ServeConfig, ServeEngine,
};
use alpha_pim::service::{
    seeded_workload, Priority, ServiceConfig, ServiceEngine, TenantSpec,
};
use alpha_pim::{
    AlphaPim, CheckpointPolicy, CheckpointStore, PreparedSpmspv, PreparedSpmv,
    SpmspvVariant, SpmvVariant,
};
use alpha_pim_bench::audit;
use alpha_pim_bench::harness::striped_vector;
use alpha_pim_sim::{
    CounterId, CounterSet, FaultPlan, FaultSummary, HostCrashPlan, ObservabilityLevel, PimConfig,
    RecoverySummary, ResiliencePolicy, SimFidelity,
};
use alpha_pim_sparse::{datasets, mtx, Graph};

/// Every subcommand the CLI accepts; anything else is rejected *before*
/// graph loading so typos exit non-zero with usage instead of part-running.
const ALGORITHMS: &[&str] = &[
    "bfs", "sssp", "ppr", "wcc", "widest", "triangles", "msbfs", "kcore", "top", "chaos", "serve",
    "serve-load", "calibrate", "mutate", "sdc",
];

struct Args {
    algo: String,
    graph: String,
    source: u32,
    dpus: u32,
    scale: f64,
    seed: u64,
    policy: KernelPolicy,
    max_weight: u32,
    kernel: String,
    density: f64,
    limit: usize,
    fault_seed: u64,
    flip_rate: f64,
    queries: usize,
    batch: u32,
    trace_seed: u64,
    json: Option<String>,
    checkpoint_dir: Option<String>,
    resume: bool,
    deadline_cycles: Option<u64>,
    crash_after: Option<u64>,
    fast_path: FastPath,
    mix: [u32; 3],
    baseline_queries: usize,
    tenants: u32,
    mean_gap: u64,
    queue_capacity: usize,
    budget_cycles: Option<u64>,
    bound: f64,
    frozen: bool,
    epochs: u64,
    ops: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let algo = raw
        .next()
        .ok_or_else(|| format!("missing algorithm ({})", ALGORITHMS.join("|")))?;
    if !ALGORITHMS.contains(&algo.as_str()) {
        return Err(format!("unknown algorithm {algo:?} (expected {})", ALGORITHMS.join("|")));
    }
    let graph = raw.next().ok_or("missing graph (path.mtx or catalog abbrev)")?;
    let mut args = Args {
        algo,
        graph,
        source: 0,
        dpus: 2048,
        scale: 0.1,
        seed: 42,
        policy: KernelPolicy::Adaptive,
        max_weight: 16,
        kernel: "spmv".to_string(),
        density: 0.1,
        limit: 10,
        fault_seed: 0xC4A05,
        flip_rate: 0.05,
        queries: 64,
        batch: 16,
        trace_seed: 0x5EED,
        json: None,
        checkpoint_dir: None,
        resume: false,
        deadline_cycles: None,
        crash_after: None,
        fast_path: FastPath::Replay,
        mix: [1, 1, 1],
        baseline_queries: 256,
        tenants: 3,
        mean_gap: 20_000,
        queue_capacity: 4096,
        budget_cycles: None,
        bound: 0.05,
        frozen: false,
        epochs: 4,
        ops: 64,
    };
    while let Some(flag) = raw.next() {
        if flag == "--resume" {
            args.resume = true;
            continue;
        }
        if flag == "--frozen" {
            args.frozen = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--source" => args.source = value.parse().map_err(|e| format!("{e}"))?,
            "--dpus" => args.dpus = value.parse().map_err(|e| format!("{e}"))?,
            "--scale" => args.scale = value.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("{e}"))?,
            "--max-weight" => args.max_weight = value.parse().map_err(|e| format!("{e}"))?,
            "--kernel" => args.kernel = value,
            "--density" => args.density = value.parse().map_err(|e| format!("{e}"))?,
            "--limit" => args.limit = value.parse().map_err(|e| format!("{e}"))?,
            "--fault-seed" => args.fault_seed = value.parse().map_err(|e| format!("{e}"))?,
            "--flip-rate" => args.flip_rate = value.parse().map_err(|e| format!("{e}"))?,
            "--queries" => args.queries = value.parse().map_err(|e| format!("{e}"))?,
            "--batch" => args.batch = value.parse().map_err(|e| format!("{e}"))?,
            "--trace-seed" => args.trace_seed = value.parse().map_err(|e| format!("{e}"))?,
            "--json" => args.json = Some(value),
            "--checkpoint-dir" => args.checkpoint_dir = Some(value),
            "--deadline-cycles" => {
                args.deadline_cycles = Some(value.parse().map_err(|e| format!("{e}"))?);
            }
            "--crash-after" => {
                args.crash_after = Some(value.parse().map_err(|e| format!("{e}"))?);
            }
            "--fast-path" => {
                args.fast_path = match value.as_str() {
                    "replay" => FastPath::Replay,
                    "analytic" => FastPath::Analytic,
                    other => {
                        return Err(format!("unknown fast path {other} (expected replay|analytic)"))
                    }
                };
            }
            "--mix" => {
                let parts: Vec<u32> = value
                    .split(':')
                    .map(|p| p.parse::<u32>().map_err(|e| format!("--mix {value}: {e}")))
                    .collect::<Result<_, _>>()?;
                let [b, s, p] = parts[..] else {
                    return Err(format!("--mix {value}: expected B:S:P (three weights)"));
                };
                args.mix = [b, s, p];
            }
            "--baseline-queries" => {
                args.baseline_queries = value.parse().map_err(|e| format!("{e}"))?;
            }
            "--tenants" => args.tenants = value.parse().map_err(|e| format!("{e}"))?,
            "--mean-gap" => args.mean_gap = value.parse().map_err(|e| format!("{e}"))?,
            "--queue-capacity" => {
                args.queue_capacity = value.parse().map_err(|e| format!("{e}"))?;
            }
            "--budget-cycles" => {
                args.budget_cycles = Some(value.parse().map_err(|e| format!("{e}"))?);
            }
            "--bound" => args.bound = value.parse().map_err(|e| format!("{e}"))?,
            "--epochs" => args.epochs = value.parse().map_err(|e| format!("{e}"))?,
            "--ops" => args.ops = value.parse().map_err(|e| format!("{e}"))?,
            "--policy" => {
                args.policy = match value.as_str() {
                    "adaptive" => KernelPolicy::Adaptive,
                    "spmv" => KernelPolicy::SpmvOnly(SpmvVariant::Dcoo2d),
                    "spmv1d" => KernelPolicy::SpmvOnly(SpmvVariant::Coo1d),
                    "spmspv" => KernelPolicy::SpmspvOnly(SpmspvVariant::Csc2d),
                    other => {
                        let t = other
                            .strip_prefix("threshold:")
                            .and_then(|s| s.parse::<f64>().ok())
                            .ok_or_else(|| format!("unknown policy {other}"))?;
                        KernelPolicy::FixedThreshold(t)
                    }
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn load_graph(args: &Args) -> Result<Graph, String> {
    if args.graph.ends_with(".mtx") {
        let file = std::fs::File::open(&args.graph).map_err(|e| e.to_string())?;
        let coo = mtx::read_coo(file).map_err(|e| e.to_string())?;
        Ok(Graph::from_coo(coo))
    } else if let Some(spec) = datasets::by_abbrev(&args.graph) {
        spec.generate_scaled(args.scale, args.seed).map_err(|e| e.to_string())
    } else {
        Err(format!(
            "graph {:?} is neither a .mtx path nor a known abbreviation; known: {}",
            args.graph,
            datasets::full_suite()
                .iter()
                .map(|s| s.abbrev)
                .collect::<Vec<_>>()
                .join(", "),
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: alpha_pim_cli <bfs|sssp|ppr|wcc|widest|triangles|msbfs|kcore|top|chaos|serve|serve-load|calibrate|mutate|sdc> <graph> [--source N] [--dpus N] [--scale F] [--seed N] [--policy P] [--max-weight W] [--kernel K] [--density F] [--limit N] [--fault-seed N] [--flip-rate F] [--queries N] [--batch N] [--trace-seed N] [--json PATH] [--checkpoint-dir DIR] [--resume] [--deadline-cycles N] [--crash-after K] [--fast-path P] [--mix B:S:P] [--baseline-queries N] [--tenants N] [--mean-gap N] [--queue-capacity N] [--budget-cycles N] [--bound F] [--frozen] [--epochs N] [--ops N]");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.algo == "calibrate" {
        return run_calibrate(args);
    }
    if args.algo == "serve-load" {
        return run_serve_load(args);
    }
    if args.algo == "sdc" {
        return run_sdc(args);
    }
    let graph = load_graph(args)?;
    if args.algo == "top" {
        return run_top(args, &graph);
    }
    if args.algo == "chaos" {
        return run_chaos(args, &graph);
    }
    if args.algo == "serve" {
        return run_serve(args, &graph);
    }
    if args.algo == "mutate" {
        return run_mutate(args, &graph);
    }
    let engine = AlphaPim::new(PimConfig {
        num_dpus: args.dpus,
        fidelity: SimFidelity::Sampled(64),
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    println!(
        "graph: {} nodes, {} edges, avg degree {:.2}, degree std {:.2} → {:?} \
         (switch threshold {:.0}%)",
        graph.nodes(),
        graph.edges(),
        graph.stats().avg_degree,
        graph.stats().degree_std,
        engine.classify(&graph),
        engine.switch_threshold(&graph) * 100.0,
    );
    let options = AppOptions { policy: args.policy, ..Default::default() };
    let report = match args.algo.as_str() {
        "bfs" => {
            let r = engine.bfs(&graph, args.source, &options).map_err(|e| e.to_string())?;
            let reached = r.levels.iter().filter(|&&l| l != u32::MAX).count();
            println!("bfs: reached {reached}/{} vertices", graph.nodes());
            r.report
        }
        "sssp" => {
            let weighted = graph.with_random_weights(args.max_weight);
            let r = engine.sssp(&weighted, args.source, &options).map_err(|e| e.to_string())?;
            let reached = r.distances.iter().filter(|&&d| d != u32::MAX).count();
            println!("sssp: {reached}/{} vertices reachable", graph.nodes());
            r.report
        }
        "ppr" => {
            let ppr_options = PprOptions { app: options, ..Default::default() };
            let r = engine.ppr(&graph, args.source, &ppr_options).map_err(|e| e.to_string())?;
            let mut top: Vec<(usize, f32)> = r.scores.iter().copied().enumerate().collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1));
            println!("ppr: top vertices {:?}", &top[..top.len().min(5)]);
            r.report
        }
        "wcc" => {
            let r = engine.connected_components(&graph, &options).map_err(|e| e.to_string())?;
            println!("wcc: {} components", r.components);
            r.report
        }
        "widest" => {
            let weighted = graph.with_random_weights(args.max_weight);
            let r = engine
                .widest_path(&weighted, args.source, &options)
                .map_err(|e| e.to_string())?;
            let reachable = r.capacities.iter().filter(|&&c| c > 0).count();
            println!("widest: {reachable}/{} vertices reachable", graph.nodes());
            r.report
        }
        "kcore" => {
            let r = engine
                .k_core(&graph, 3, &options)
                .map_err(|e| e.to_string())?;
            println!("kcore: 3-core holds {} of {} vertices", r.core_size, graph.nodes());
            r.report
        }
        "triangles" => {
            let r = engine.triangle_count(&graph).map_err(|e| e.to_string())?;
            println!("triangles: {}", r.triangles);
            println!(
                "kernel {:.3} ms of {:.3} ms total (single launch, no vector exchange)",
                r.phases.kernel * 1e3,
                r.phases.total() * 1e3,
            );
            return Ok(());
        }
        "msbfs" => {
            let sources: Vec<u32> =
                (0..8).map(|i| (args.source + i * 97) % graph.nodes()).collect();
            let r = engine.multi_bfs(&graph, &sources, 200).map_err(|e| e.to_string())?;
            for (j, &s) in sources.iter().enumerate() {
                let reached = r.levels[j].iter().filter(|&&l| l != u32::MAX).count();
                println!("msbfs: source {s} reached {reached}");
            }
            r.report
        }
        other => return Err(format!("unknown algorithm {other}")),
    };
    println!(
        "\n{} iterations ({}converged), simulated time {:.3} ms \
         (load {:.3} / kernel {:.3} / retrieve {:.3} / merge {:.3})",
        report.num_iterations(),
        if report.converged { "" } else { "NOT " },
        report.total_seconds() * 1e3,
        report.total.load * 1e3,
        report.total.kernel * 1e3,
        report.total.retrieve * 1e3,
        report.total.merge * 1e3,
    );
    for s in &report.iterations {
        println!(
            "  iter {:<3} density {:>6.2}%  {:<15} {:>8.3} ms",
            s.index,
            s.input_density * 100.0,
            s.kernel.to_string(),
            s.phases.total() * 1e3,
        );
    }
    Ok(())
}

/// `serve`: replay a seeded trace of mixed BFS/SSSP/PPR queries through the
/// batched serving engine and through a sequential (batch size 1) replay,
/// then verify both produce bit-identical answers and report what batching
/// amortized. Exits non-zero on any fingerprint mismatch, so CI can use
/// this command directly as a smoke check.
fn run_serve(args: &Args, graph: &Graph) -> Result<(), String> {
    let weighted = graph.with_random_weights(args.max_weight);
    let engine = AlphaPim::new(PimConfig {
        num_dpus: args.dpus,
        fidelity: SimFidelity::Sampled(64),
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let options = AppOptions { policy: args.policy, ..Default::default() };
    let checkpoint = if args.checkpoint_dir.is_some() {
        CheckpointPolicy::EveryN(1)
    } else {
        CheckpointPolicy::Disabled
    };
    let config = ServeConfig {
        batch_size: args.batch,
        options,
        checkpoint,
        deadline_cycles: args.deadline_cycles,
        fast_path: args.fast_path,
        ..Default::default()
    };
    let trace = seeded_trace_weighted(weighted.nodes(), args.queries, args.trace_seed, args.mix);
    if let Some(dir) = &args.checkpoint_dir {
        return run_serve_checkpointed(args, &weighted, &engine, config, &trace, dir);
    }
    if args.crash_after.is_some() {
        return Err("--crash-after requires --checkpoint-dir".into());
    }
    if args.resume {
        return Err("--resume requires --checkpoint-dir".into());
    }
    if args.fast_path != FastPath::Replay {
        return run_serve_fastpath(args, &weighted, &engine, config, &trace);
    }
    println!(
        "serve — {} queries on {} ({} nodes, {} edges, {} DPUs, batch {}, trace seed {:#x})",
        trace.len(),
        args.graph,
        weighted.nodes(),
        weighted.edges(),
        args.dpus,
        args.batch,
        args.trace_seed,
    );

    let mut batched = ServeEngine::new(&engine, config);
    let (results, batches) = batched.serve(&weighted, &trace).map_err(|e| e.to_string())?;
    let mut sequential =
        ServeEngine::new(&engine, ServeConfig { batch_size: 1, ..config });
    let (seq_results, _) = sequential.serve(&weighted, &trace).map_err(|e| e.to_string())?;

    println!(
        "\n{:>5} {:>7} {:>6} {:>10} {:>12} {:>10} {:>12} {:>8} {:>5} {:>7}",
        "batch", "queries", "steps", "seq ms", "batched ms", "saved ms", "bytes saved", "batches", "hits", "misses"
    );
    for (i, b) in batches.iter().enumerate() {
        println!(
            "{:>5} {:>7} {:>6} {:>10.3} {:>12.3} {:>10.3} {:>12} {:>8} {:>5} {:>7}",
            i,
            b.queries,
            b.supersteps,
            b.seq_seconds * 1e3,
            b.batched_seconds * 1e3,
            b.seconds_saved() * 1e3,
            b.broadcast_bytes_saved,
            b.transfer_batches_saved,
            b.cache_hits,
            b.cache_misses,
        );
    }
    let seq_total: f64 = batches.iter().map(|b| b.seq_seconds).sum();
    let batched_total: f64 = batches.iter().map(|b| b.batched_seconds).sum();
    let bytes_saved: u64 = batches.iter().map(|b| b.broadcast_bytes_saved).sum();
    let batches_saved: u64 = batches.iter().map(|b| b.transfer_batches_saved).sum();
    // Host→DPU broadcast bus traffic of the sequential replay, from the
    // per-iteration counter rollups; batching removes `bytes_saved` of it.
    let broadcast_seq: u64 = results
        .iter()
        .flat_map(|r| &r.report().iterations)
        .map(|s| s.kernel_report.breakdown.counters.get(CounterId::XferBroadcastBytes))
        .sum();
    let broadcast_batched = broadcast_seq - bytes_saved;
    println!(
        "\ntotals: sequential {:.3} ms → batched {:.3} ms ({:.2}x), \
         {bytes_saved} broadcast bytes and {batches_saved} transfer batches saved",
        seq_total * 1e3,
        batched_total * 1e3,
        seq_total / batched_total.max(f64::MIN_POSITIVE),
    );
    println!(
        "broadcast bus bytes: sequential {broadcast_seq} → batched {broadcast_batched}"
    );
    println!(
        "partition cache: {} misses, {} hits, {} resident",
        batched.cache_misses(),
        batched.cache_hits(),
        batched.cache_len(),
    );

    let fp_batched = fingerprint_results(&results);
    let fp_seq = fingerprint_results(&seq_results);
    if fp_batched != fp_seq {
        return Err(format!(
            "batched/sequential answers diverge: fingerprint {fp_batched:#018x} vs {fp_seq:#018x}"
        ));
    }
    println!("fingerprint: {fp_batched:#018x} (batched == sequential)");
    if config.deadline_cycles.is_some() {
        let degraded = results.iter().filter(|r| r.report().degraded).count();
        println!(
            "deadline: {degraded} of {} queries shed to degraded partial results",
            results.len()
        );
    }

    if let Some(path) = &args.json {
        let json = format!(
            "{{{}, \"graph\": \"{}\", \"queries\": {}, \"batch_size\": {}, \"dpus\": {}, \
             \"trace_seed\": {}, \"seq_seconds\": {seq_total:.6}, \
             \"batched_seconds\": {batched_total:.6}, \"speedup\": {:.3}, \
             \"broadcast_bytes_seq\": {broadcast_seq}, \
             \"broadcast_bytes_batched\": {broadcast_batched}, \
             \"broadcast_bytes_saved\": {bytes_saved}, \
             \"transfer_batches_saved\": {batches_saved}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"fingerprint\": \"{fp_batched:#018x}\"}}\n",
            alpha_pim_bench::report::bench_schema_fields("serve"),
            args.graph,
            trace.len(),
            args.batch,
            args.dpus,
            args.trace_seed,
            seq_total / batched_total.max(f64::MIN_POSITIVE),
            batched.cache_hits(),
            batched.cache_misses(),
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `serve-load`: the multi-tenant sustained-load front-end. Hosts a
/// comma-separated catalog of graphs simultaneously, generates a seeded
/// open-loop arrival trace (no wall clock anywhere), drains it through the
/// admission-controlled weighted-fair service, and reports tail latency
/// and shed rate. Tenant weights cycle 4:2:1 with priorities
/// high/normal/low, so fairness and priority shedding are both exercised.
/// Exits non-zero if the admission/outcome ledgers fail to balance, so CI
/// can gate on this command directly.
fn run_serve_load(args: &Args) -> Result<(), String> {
    let mut graphs: Vec<Graph> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for name in args.graph.split(',').filter(|s| !s.is_empty()) {
        let graph = if name.ends_with(".mtx") {
            let file = std::fs::File::open(name).map_err(|e| format!("{name}: {e}"))?;
            Graph::from_coo(mtx::read_coo(file).map_err(|e| format!("{name}: {e}"))?)
        } else {
            datasets::by_abbrev(name)
                .ok_or_else(|| format!("unknown catalog abbreviation {name:?}"))?
                .generate_scaled(args.scale, args.seed)
                .map_err(|e| e.to_string())?
        };
        graphs.push(graph.with_random_weights(args.max_weight));
        names.push(name.to_string());
    }
    if graphs.is_empty() {
        return Err("serve-load needs at least one graph (comma-separated abbrevs)".into());
    }
    let engine = AlphaPim::new(PimConfig {
        num_dpus: args.dpus,
        fidelity: SimFidelity::Sampled(64),
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;

    const WEIGHTS: [u32; 3] = [4, 2, 1];
    const PRIORITIES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
    let tenants: Vec<TenantSpec> = (0..args.tenants.max(1) as usize)
        .map(|i| TenantSpec { weight: WEIGHTS[i % 3], priority: PRIORITIES[i % 3] })
        .collect();
    let config = ServiceConfig {
        tenants: tenants.clone(),
        queue_capacity: args.queue_capacity,
        deadline_budget_cycles: args.budget_cycles,
        quarantine_threshold: None,
        serve: ServeConfig {
            batch_size: args.batch,
            // Sustained load re-visits every (graph, app) pair constantly:
            // give the partition cache room for the whole working set (the
            // byte budget, not the entry cap, is the meaningful bound).
            cache_capacity: (graphs.len() * 3).max(8),
            options: AppOptions { policy: args.policy, ..Default::default() },
            fast_path: args.fast_path,
            ..Default::default()
        },
    };
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    let workload = seeded_workload(
        args.trace_seed,
        args.mean_gap,
        args.queries,
        tenants.len() as u32,
        &nodes,
        args.mix,
    );
    println!(
        "serve-load — {} queries over {} graphs [{}], {} tenants, {} DPUs, batch {}, \
         mean gap {} cycles, queue {}, budget {}, fast path {}, mix {}:{}:{}",
        workload.len(),
        graphs.len(),
        names.join(", "),
        tenants.len(),
        args.dpus,
        args.batch,
        args.mean_gap,
        args.queue_capacity,
        args.budget_cycles.map_or("none".to_string(), |b| b.to_string()),
        fast_path_name(args.fast_path),
        args.mix[0],
        args.mix[1],
        args.mix[2],
    );

    let mut service = ServiceEngine::new(&engine, config);
    let start = Instant::now();
    let report = service.run(&graphs, &workload).map_err(|e| e.to_string())?;
    let wall_seconds = start.elapsed().as_secs_f64();

    let p50_ms = report.p50_latency_ms();
    let p99_ms = report.p99_latency_ms();
    let shed_rate = report.shed_rate();
    let makespan_seconds = report.makespan_cycles as f64 * report.cycle_seconds;
    println!(
        "\nledger: {} arrivals = {} admitted + {} rejected; \
         admitted = {} served + {} shed-wait + {} shed-deadline",
        report.arrivals(),
        report.admitted(),
        report.rejected(),
        report.served(),
        report.shed_wait(),
        report.shed_deadline(),
    );
    println!(
        "latency: p50 {:.3} ms / p99 {:.3} ms of model time; shed rate {:.2}%; \
         throughput {:.0} q/s over a {:.3} s makespan",
        p50_ms,
        p99_ms,
        shed_rate * 100.0,
        report.throughput_qps(),
        makespan_seconds,
    );
    println!(
        "executor: {} batches, cache {} evictions / {} bytes evicted; \
         wall clock {wall_seconds:.3} s",
        report.batches,
        service.serve_engine().cache_evictions(),
        service.serve_engine().cache_evicted_bytes(),
    );
    println!(
        "\n{:>6} {:>6} {:>8} {:>9} {:>9} {:>9} {:>7} {:>10} {:>10}",
        "tenant", "weight", "priority", "arrivals", "admitted", "rejected", "served", "shed-wait", "shed-dead"
    );
    for (i, t) in report.tenants.iter().enumerate() {
        println!(
            "{:>6} {:>6} {:>8} {:>9} {:>9} {:>9} {:>7} {:>10} {:>10}",
            i,
            t.weight,
            format!("{:?}", t.priority).to_lowercase(),
            t.arrivals,
            t.admitted,
            t.rejected,
            t.served,
            t.shed_wait,
            t.shed_deadline,
        );
    }
    println!("fingerprint: {:#018x}", report.result_fingerprint);

    // The balance the service promises by construction; a breach here is a
    // scheduler bug and must fail the smoke stage.
    report
        .counters
        .check_ledgers()
        .map_err(|b| format!("service ledgers failed to balance: {b}"))?;

    if let Some(path) = &args.json {
        let mut tenants_json = String::new();
        for (i, t) in report.tenants.iter().enumerate() {
            if i > 0 {
                tenants_json.push_str(", ");
            }
            tenants_json.push_str(&format!(
                "{{\"weight\": {}, \"priority\": \"{:?}\", \"arrivals\": {}, \
                 \"admitted\": {}, \"rejected\": {}, \"served\": {}, \"shed_wait\": {}, \
                 \"shed_deadline\": {}, \"wait_cycles\": {}}}",
                t.weight,
                t.priority,
                t.arrivals,
                t.admitted,
                t.rejected,
                t.served,
                t.shed_wait,
                t.shed_deadline,
                t.wait_cycles,
            ));
        }
        let json = format!(
            "{{{}, \"graphs\": [{}], \"queries\": {}, \"tenant_count\": {}, \
             \"queue_capacity\": {}, \"mean_gap_cycles\": {}, \"budget_cycles\": {}, \
             \"batch_size\": {}, \"dpus\": {}, \"trace_seed\": {}, \
             \"mix\": [{}, {}, {}], \"fast_path\": \"{}\", \
             \"arrivals\": {}, \"admitted\": {}, \"rejected\": {}, \"served\": {}, \
             \"shed_wait\": {}, \"shed_deadline\": {}, \"shed_rate\": {shed_rate:.6}, \
             \"p50_latency_ms\": {p50_ms:.6}, \"p99_latency_ms\": {p99_ms:.6}, \
             \"throughput_qps\": {:.3}, \"makespan_seconds\": {makespan_seconds:.6}, \
             \"batches\": {}, \"cache_evictions\": {}, \"cache_evicted_bytes\": {}, \
             \"wall_seconds\": {wall_seconds:.3}, \"tenants\": [{tenants_json}], \
             \"fingerprint\": \"{:#018x}\"}}\n",
            alpha_pim_bench::report::bench_schema_fields("service-load"),
            names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", "),
            workload.len(),
            report.tenants.len(),
            args.queue_capacity,
            args.mean_gap,
            args.budget_cycles.map_or("null".to_string(), |b| b.to_string()),
            args.batch,
            args.dpus,
            args.trace_seed,
            args.mix[0],
            args.mix[1],
            args.mix[2],
            fast_path_name(args.fast_path),
            report.arrivals(),
            report.admitted(),
            report.rejected(),
            report.served(),
            report.shed_wait(),
            report.shed_deadline(),
            report.throughput_qps(),
            report.batches,
            service.serve_engine().cache_evictions(),
            service.serve_engine().cache_evicted_bytes(),
            report.result_fingerprint,
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `mutate`: the dynamic-graph differential gate ([`audit::mutate`]).
/// Applies `--epochs` seeded insert/delete batches and, at every epoch,
/// checks the incremental answers against a from-scratch referee and the
/// counter ledgers. Exits non-zero on any divergence, so CI gates on this
/// command directly.
fn run_mutate(args: &Args, graph: &Graph) -> Result<(), String> {
    let engine = AlphaPim::new(PimConfig {
        num_dpus: args.dpus,
        fidelity: SimFidelity::Sampled(64),
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let config = ServeConfig {
        batch_size: args.batch,
        options: AppOptions { policy: args.policy, ..Default::default() },
        ..Default::default()
    };
    // The same trace replays at every epoch, so epoch e+1 finds epoch e's
    // converged answers armed as repair seeds — the incremental path runs.
    let trace = seeded_trace_weighted(graph.nodes(), args.queries, args.trace_seed, args.mix);
    let epochs = audit::Epochs {
        count: args.epochs,
        ops: args.ops,
        seed: args.trace_seed,
        max_weight: args.max_weight,
    };
    let report =
        audit::mutate(&engine, config, graph, &trace, epochs).map_err(|e| e.to_string())?;
    println!(
        "mutate — {} epochs x {} ops on {} ({} nodes, {} edges canonical, {} DPUs, \
         {} queries/epoch, trace seed {:#x})",
        args.epochs,
        args.ops,
        args.graph,
        report.nodes,
        report.edges,
        args.dpus,
        trace.len(),
        args.trace_seed,
    );
    println!(
        "\n{:>5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>11} {:>7} {:>18}",
        "epoch", "ins", "del", "redun", "dirty", "clean", "incr", "seeded", "saved%", "fingerprint"
    );
    for (epoch, e) in report.epochs.iter().enumerate() {
        let (ins, del, red, dirty, clean) = e.landed.as_ref().map_or((0, 0, 0, 0, 0), |r| {
            (
                r.stats.inserted,
                r.stats.deleted,
                r.stats.redundant,
                r.dirty_partitions,
                r.clean_partitions,
            )
        });
        println!(
            "{:>5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>11} {:>6.1} {:>#018x}{}",
            epoch,
            ins,
            del,
            red,
            dirty,
            clean,
            e.incremental(),
            e.frontier_seeded(),
            e.saved_pct(),
            e.fingerprint,
            if e.matches() { "" } else { "  MISMATCH" },
        );
        if !e.matches() {
            eprintln!(
                "epoch {epoch}: incremental fingerprint {:#018x} != from-scratch {:#018x} \
                 (queries {:?} differ)",
                e.fingerprint, e.referee, e.mismatched
            );
        }
    }

    let c = &report.counters;
    let saved_fraction = report.saved_fraction();
    println!(
        "\nledger: {} requested = {} applied ({} ins + {} del) + {} redundant; \
         partitions {} dirty + {} clean = {}; frontier saved {:.1}%",
        c.get(CounterId::DeltaEdgesRequested),
        c.get(CounterId::DeltaEdgesApplied),
        c.get(CounterId::DeltaEdgesInserted),
        c.get(CounterId::DeltaEdgesDeleted),
        c.get(CounterId::DeltaEdgesRedundant),
        c.get(CounterId::DeltaPartitionsDirty),
        c.get(CounterId::DeltaPartitionsClean),
        c.get(CounterId::DeltaPartitionsTotal),
        saved_fraction * 100.0,
    );
    println!(
        "queries: {} incremental + {} full; cache {} hits / {} misses / {} evictions; \
         final epoch {} fingerprint {:#018x}",
        report.incremental_queries(),
        report.full_queries(),
        report.cache_hits,
        report.cache_misses,
        report.cache_evictions,
        report.final_epoch,
        report.graph_fingerprint,
    );

    if let Some(path) = &args.json {
        let json = format!(
            "{{{}, \"graph\": \"{}\", \"epochs\": {}, \"ops_per_epoch\": {}, \
             \"queries_per_epoch\": {}, \"dpus\": {}, \"trace_seed\": {}, \
             \"mix\": [{}, {}, {}], \"edges_requested\": {}, \"edges_applied\": {}, \
             \"edges_inserted\": {}, \"edges_deleted\": {}, \"edges_redundant\": {}, \
             \"partitions_total\": {}, \"partitions_dirty\": {}, \"partitions_clean\": {}, \
             \"frontier_full\": {}, \"frontier_seeded\": {}, \"frontier_saved\": {}, \
             \"saved_fraction\": {saved_fraction:.6}, \
             \"incremental_queries\": {}, \"full_queries\": {}, \
             \"differential_match\": {}, \"ledgers_balanced\": {}, \
             \"fingerprint\": \"{:#018x}\"}}\n",
            alpha_pim_bench::report::bench_schema_fields("dynamic-serve"),
            args.graph,
            args.epochs,
            args.ops,
            trace.len(),
            args.dpus,
            args.trace_seed,
            args.mix[0],
            args.mix[1],
            args.mix[2],
            c.get(CounterId::DeltaEdgesRequested),
            c.get(CounterId::DeltaEdgesApplied),
            c.get(CounterId::DeltaEdgesInserted),
            c.get(CounterId::DeltaEdgesDeleted),
            c.get(CounterId::DeltaEdgesRedundant),
            c.get(CounterId::DeltaPartitionsTotal),
            c.get(CounterId::DeltaPartitionsDirty),
            c.get(CounterId::DeltaPartitionsClean),
            c.get(CounterId::DeltaFrontierFull),
            c.get(CounterId::DeltaFrontierSeeded),
            c.get(CounterId::DeltaFrontierSaved),
            report.incremental_queries(),
            report.full_queries(),
            report.all_match(),
            c.check_ledgers().is_ok(),
            report.graph_fingerprint,
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }

    report.verdict()?;
    println!("differential gate passed (incremental == from-scratch at every epoch)");
    Ok(())
}

/// Stable lowercase name of a fast-path choice (JSON key).
fn fast_path_name(p: FastPath) -> &'static str {
    match p {
        FastPath::Replay => "replay",
        FastPath::Analytic => "analytic",
    }
}

/// `serve --fast-path analytic`: throughput benchmark of the analytic
/// serving fast path. Serves the full trace with closed-form timing and
/// wall-clocks it, then wall-clocks the exact cycle-replay path on the
/// first `--baseline-queries` queries of the same trace and extrapolates
/// its throughput. Answers on the shared prefix must be bit-identical —
/// the fast path only swaps the timing model, never the value math. Writes
/// the `"analytic-serve"` benchmark record when `--json` is given.
fn run_serve_fastpath(
    args: &Args,
    graph: &Graph,
    engine: &AlphaPim,
    config: ServeConfig,
    trace: &[Query],
) -> Result<(), String> {
    let n_base = args.baseline_queries.min(trace.len()).max(1);
    println!(
        "serve fast-path — {} queries on {} ({} nodes, {} edges, {} DPUs, batch {}, \
         mix {}:{}:{}, baseline sample {n_base})",
        trace.len(),
        args.graph,
        graph.nodes(),
        graph.edges(),
        args.dpus,
        args.batch,
        args.mix[0],
        args.mix[1],
        args.mix[2],
    );

    let mut fast = ServeEngine::new(engine, config);
    if !fast.fast_path_active() {
        println!(
            "note: fast path gated off (observability below Aggregate) — timing falls back \
             to exact replay"
        );
    }
    let start = Instant::now();
    let (fast_results, fast_batches) = fast.serve(graph, trace).map_err(|e| e.to_string())?;
    let secs_fast = start.elapsed().as_secs_f64();

    let mut replay =
        ServeEngine::new(engine, ServeConfig { fast_path: FastPath::Replay, ..config });
    let start = Instant::now();
    let (base_results, _) = replay.serve(graph, &trace[..n_base]).map_err(|e| e.to_string())?;
    let secs_base = start.elapsed().as_secs_f64();

    let fp_fast = fingerprint_results(&fast_results[..n_base]);
    let fp_base = fingerprint_results(&base_results);
    if fp_fast != fp_base {
        return Err(format!(
            "fast-path/replay answers diverge on the {n_base}-query prefix: \
             fingerprint {fp_fast:#018x} vs {fp_base:#018x}"
        ));
    }

    let qps_fast = fast_results.len() as f64 / secs_fast.max(f64::MIN_POSITIVE);
    let qps_base = n_base as f64 / secs_base.max(f64::MIN_POSITIVE);
    let multiplier = qps_fast / qps_base.max(f64::MIN_POSITIVE);

    // Per-batch cache attribution: the fast path serves from the same
    // prepared-kernel cache, so after the first batch of each application
    // kind every batch should be warm (zero misses).
    let cache_hits: u64 = fast_batches.iter().map(|b| b.cache_hits).sum();
    let cache_misses: u64 = fast_batches.iter().map(|b| b.cache_misses).sum();
    let warm_batches = fast_batches.iter().filter(|b| b.cache_misses == 0).count();
    let sim_seconds: f64 = fast_batches.iter().map(|b| b.batched_seconds).sum();

    println!(
        "analytic path: {} queries in {:.3}s wall ({:.0} q/s), {} batches ({warm_batches} warm), \
         cache {cache_hits} hits / {cache_misses} misses, {:.3} ms simulated",
        fast_results.len(),
        secs_fast,
        qps_fast,
        fast_batches.len(),
        sim_seconds * 1e3,
    );
    println!("replay baseline: {n_base} queries in {secs_base:.3}s wall ({qps_base:.2} q/s)");
    println!(
        "throughput multiplier: {multiplier:.1}x \
         (baseline extrapolated from {n_base} of {} queries)",
        trace.len(),
    );
    println!("fingerprint (shared {n_base}-query prefix): {fp_fast:#018x} — bit-identical");

    if let Some(path) = &args.json {
        let json = format!(
            "{{{}, \"graph\": \"{}\", \"queries\": {}, \"batch_size\": {}, \"dpus\": {}, \
             \"trace_seed\": {}, \"mix\": [{}, {}, {}], \"fast_path\": \"{}\", \
             \"fast_path_active\": {}, \"secs_fast\": {secs_fast:.6}, \
             \"qps_fast\": {qps_fast:.3}, \"baseline_queries\": {n_base}, \
             \"baseline_extrapolated\": true, \"secs_baseline\": {secs_base:.6}, \
             \"qps_baseline\": {qps_base:.6}, \"throughput_multiplier\": {multiplier:.3}, \
             \"batches\": {}, \"warm_batches\": {warm_batches}, \
             \"cache_hits\": {cache_hits}, \"cache_misses\": {cache_misses}, \
             \"sim_seconds\": {sim_seconds:.6}, \"fingerprint\": \"{fp_fast:#018x}\"}}\n",
            alpha_pim_bench::report::bench_schema_fields("analytic-serve"),
            args.graph,
            trace.len(),
            args.batch,
            args.dpus,
            args.trace_seed,
            args.mix[0],
            args.mix[1],
            args.mix[2],
            fast_path_name(args.fast_path),
            fast.fast_path_active(),
            fast_batches.len(),
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `calibrate`: serve the same query trace on the exact replay path and the
/// analytic fast path for every requested graph × application pair, then
/// verify result values and traffic counters are bit-identical while the
/// predicted makespan stays within `--bound` relative error. `calibrate
/// all` runs the full 13-graph Table 2 catalog (scaled by `--scale`); a
/// single abbreviation or `.mtx` path audits just that graph. Exits
/// non-zero on any breach so `scripts/ci.sh` gates on it directly.
fn run_calibrate(args: &Args) -> Result<(), String> {
    let report = if args.graph == "all" {
        calibrate::run_suite(args.scale, args.dpus, args.seed, args.queries)
            .map_err(|e| e.to_string())?
    } else {
        let graph = load_graph(args)?.with_random_weights(args.max_weight);
        let cases = CalApp::ALL
            .iter()
            .map(|&app| {
                calibrate::run_case(&graph, &args.graph, app, args.dpus, args.seed, args.queries)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        calibrate::CalibrationReport { cases }
    };
    println!(
        "calibrate — {} pairs, {} queries each ({} DPUs, scale {}, seed {}, bound {:.1}%)",
        report.cases.len(),
        args.queries,
        args.dpus,
        args.scale,
        args.seed,
        args.bound * 100.0,
    );
    println!(
        "\n{:>6} {:>5} {:>12} {:>12} {:>7} {:>7} {:>9}",
        "graph", "app", "replay ms", "analytic ms", "err %", "values", "counters"
    );
    for c in &report.cases {
        println!(
            "{:>6} {:>5} {:>12.3} {:>12.3} {:>7.2} {:>7} {:>9}",
            c.graph,
            c.app,
            c.replay_seconds * 1e3,
            c.analytic_seconds * 1e3,
            c.rel_error * 100.0,
            if c.values_match { "ok" } else { "DIFF" },
            if c.counters_match { "ok" } else { "DIFF" },
        );
    }
    println!(
        "\nmax relative makespan error {:.2}% (bound {:.1}%), values/counters {}",
        report.max_rel_error() * 100.0,
        args.bound * 100.0,
        if report.all_exact() { "bit-identical" } else { "DIVERGED" },
    );

    if let Some(path) = &args.json {
        let mut cases_json = String::new();
        for (i, c) in report.cases.iter().enumerate() {
            if i > 0 {
                cases_json.push_str(", ");
            }
            cases_json.push_str(&format!(
                "{{\"graph\": \"{}\", \"app\": \"{}\", \"queries\": {}, \
                 \"replay_seconds\": {:.9}, \"analytic_seconds\": {:.9}, \
                 \"rel_error\": {:.6}, \"values_match\": {}, \"counters_match\": {}}}",
                c.graph,
                c.app,
                c.queries,
                c.replay_seconds,
                c.analytic_seconds,
                c.rel_error,
                c.values_match,
                c.counters_match,
            ));
        }
        let json = format!(
            "{{{}, \"graph\": \"{}\", \"scale\": {}, \"dpus\": {}, \"seed\": {}, \
             \"queries\": {}, \"bound\": {}, \"max_rel_error\": {:.6}, \"all_exact\": {}, \
             \"passes\": {}, \"cases\": [{cases_json}]}}\n",
            alpha_pim_bench::report::bench_schema_fields("calibration"),
            args.graph,
            args.scale,
            args.dpus,
            args.seed,
            args.queries,
            args.bound,
            report.max_rel_error(),
            report.all_exact(),
            report.passes(args.bound),
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }

    let failures = report.failures(args.bound);
    if !failures.is_empty() {
        let list: Vec<String> = failures
            .iter()
            .map(|c| format!("{}/{} {:.2}%", c.graph, c.app, c.rel_error * 100.0))
            .collect();
        return Err(format!(
            "calibration failed for {} of {} pairs: {}",
            failures.len(),
            report.cases.len(),
            list.join(", ")
        ));
    }
    if args.frozen {
        let regressions = report.frozen_failures();
        if !regressions.is_empty() {
            let list: Vec<String> = regressions
                .iter()
                .map(|c| {
                    format!(
                        "{}/{} {:.2}% > frozen {:.2}%",
                        c.graph,
                        c.app,
                        c.rel_error * 100.0,
                        calibrate::frozen_bound(&c.graph).unwrap_or(0.0) * 100.0
                    )
                })
                .collect();
            return Err(format!(
                "calibration error regressed past frozen per-graph bounds: {}",
                list.join(", ")
            ));
        }
        println!("frozen per-graph regression bounds hold");
    }
    println!("calibration passed");
    Ok(())
}

/// `serve --checkpoint-dir`: the crash-consistent serving path. Batches run
/// through the resilient executor with an every-superstep snapshot cadence
/// persisted to `dir`. `--crash-after K` kills the first batch at superstep
/// boundary `K`, leaves the snapshot and write-ahead journal on disk, and
/// exits zero (the "dead host"); a later `--resume` invocation picks the
/// interrupted batch up from disk, finishes the trace, and reports a
/// fingerprint bit-identical to an uninterrupted run.
fn run_serve_checkpointed(
    args: &Args,
    graph: &Graph,
    engine: &AlphaPim,
    config: ServeConfig,
    trace: &[Query],
    dir: &str,
) -> Result<(), String> {
    let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let chunks: Vec<&[Query]> = trace.chunks(config.batch_size as usize).collect();
    let mut serve = ServeEngine::new(engine, config);
    let mut results: Vec<QueryResult> = Vec::new();
    let mut reports = Vec::new();

    // On --resume, the persisted tag names the batch that died; batches
    // before it re-run deterministically, the tagged one resumes from its
    // snapshot + journal.
    let resumed = if args.resume {
        match store.load().map_err(|e| e.to_string())? {
            Some(ck) => {
                let tag = ck.tag().map_err(|e| e.to_string())? as usize;
                if tag >= chunks.len() {
                    return Err(format!(
                        "checkpoint tag {tag} is outside the {}-batch trace (wrong trace flags?)",
                        chunks.len()
                    ));
                }
                Some((tag, ck))
            }
            None => {
                println!("--resume: no checkpoint in {dir}; serving from scratch");
                None
            }
        }
    } else {
        None
    };

    for (i, chunk) in chunks.iter().enumerate() {
        let outcome = match &resumed {
            Some((tag, ck)) if i == *tag => {
                println!("batch {i}: resuming from {dir}");
                serve.resume_batch(graph, ck, None, Some(&store)).map_err(|e| e.to_string())?
            }
            _ => {
                let crash =
                    args.crash_after.filter(|_| i == 0 && !args.resume).map(HostCrashPlan::at);
                serve
                    .run_batch_resilient(graph, chunk, i as u64, crash, Some(&store))
                    .map_err(|e| e.to_string())?
            }
        };
        match outcome {
            BatchOutcome::Completed(rs, report) => {
                results.extend(rs);
                reports.push(report);
            }
            BatchOutcome::Crashed { superstep, .. } => {
                println!(
                    "batch {i}: host crash injected after superstep boundary {superstep}; \
                     checkpoint persisted to {dir}"
                );
                println!("restart with --resume to finish the trace");
                return Ok(());
            }
        }
    }
    store.clear().map_err(|e| e.to_string())?;

    let mut totals = CounterSet::new();
    for r in &reports {
        totals.merge(&r.counters);
    }
    let recovery = RecoverySummary::from_counters(&totals);
    let seq_total: f64 = reports.iter().map(|b| b.seq_seconds).sum();
    let batched_total: f64 = reports.iter().map(|b| b.batched_seconds).sum();
    let degraded = results.iter().filter(|r| r.report().degraded).count();
    println!(
        "serve (checkpointed) — {} queries in {} batches: sequential {:.3} ms → batched {:.3} ms",
        results.len(),
        reports.len(),
        seq_total * 1e3,
        batched_total * 1e3,
    );
    println!(
        "recovery: {} snapshots, {} checkpoint bytes, {} restores, {} queries shed \
         ({degraded} degraded results)",
        recovery.snapshots, recovery.bytes, recovery.restores, recovery.shed,
    );
    let fp = fingerprint_results(&results);
    println!("fingerprint: {fp:#018x}");

    if let Some(path) = &args.json {
        let json = format!(
            "{{{}, \"graph\": \"{}\", \"queries\": {}, \"batch_size\": {}, \"dpus\": {}, \
             \"trace_seed\": {}, \"resumed\": {}, \"seq_seconds\": {seq_total:.6}, \
             \"batched_seconds\": {batched_total:.6}, \
             \"ckpt_snapshots\": {}, \"ckpt_bytes\": {}, \"ckpt_restores\": {}, \
             \"serve_shed\": {}, \"degraded_results\": {degraded}, \
             \"fingerprint\": \"{fp:#018x}\"}}\n",
            alpha_pim_bench::report::bench_schema_fields("serve"),
            args.graph,
            results.len(),
            args.batch,
            args.dpus,
            args.trace_seed,
            resumed.is_some(),
            recovery.snapshots,
            recovery.bytes,
            recovery.restores,
            recovery.shed,
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `chaos`: sweep uniform fault rates over a BFS run, comparing each
/// faulty run against the fault-free baseline — how many faults fired,
/// whether the host recovered them all, whether the answers survived, and
/// what the resilience machinery cost in simulated time. The last row is
/// deliberately unsurvivable (every DPU lost, no redistribution) to show
/// graceful degradation.
fn run_chaos(args: &Args, graph: &Graph) -> Result<(), String> {
    let options = AppOptions { policy: args.policy, ..Default::default() };
    let config = |faults: Option<FaultPlan>| PimConfig {
        num_dpus: args.dpus,
        fidelity: SimFidelity::Sampled(64),
        faults,
        ..Default::default()
    };
    let clean_engine = AlphaPim::new(config(None)).map_err(|e| e.to_string())?;
    let baseline = clean_engine.bfs(graph, args.source, &options).map_err(|e| e.to_string())?;
    println!(
        "chaos — bfs on {} ({} nodes, {} edges, {} DPUs, fault seed {:#x})",
        args.graph,
        graph.nodes(),
        graph.edges(),
        args.dpus,
        args.fault_seed,
    );
    println!(
        "fault-free baseline: {} iterations, {:.3} ms simulated",
        baseline.report.num_iterations(),
        baseline.report.total_seconds() * 1e3,
    );
    println!(
        "\n{:>8} {:>8} {:>9} {:>5} {:>7} {:>7} {:>8} {:>9} {:>6} {:>9}",
        "rate", "injected", "recovered", "lost", "retries", "redist", "timeouts", "degraded", "match", "slowdown"
    );
    let mut plans: Vec<(String, FaultPlan)> = [0.002, 0.01, 0.05, 0.15]
        .iter()
        .map(|&rate| (format!("{rate}"), FaultPlan::uniform(args.fault_seed, rate)))
        .collect();
    plans.push((
        "drop-all".to_string(),
        FaultPlan {
            dpu_loss_rate: 1.0,
            policy: ResiliencePolicy { redistribute: false, ..ResiliencePolicy::default() },
            ..FaultPlan::uniform(args.fault_seed, 0.0)
        },
    ));
    for (label, plan) in plans {
        let engine = AlphaPim::new(config(Some(plan))).map_err(|e| e.to_string())?;
        let faulty = engine.bfs(graph, args.source, &options).map_err(|e| e.to_string())?;
        let mut total = CounterSet::new();
        for s in &faulty.report.iterations {
            total.merge(&s.kernel_report.breakdown.counters);
        }
        let summary = FaultSummary::from_counters(&total);
        println!(
            "{:>8} {:>8} {:>9} {:>5} {:>7} {:>7} {:>8} {:>9} {:>6} {:>8.2}x",
            label,
            summary.injected,
            summary.recovered,
            summary.lost,
            summary.retries,
            summary.redistributions,
            summary.timeouts,
            if faulty.report.degraded { "yes" } else { "no" },
            if faulty.levels == baseline.levels { "yes" } else { "NO" },
            faulty.report.total_seconds() / baseline.report.total_seconds(),
        );
    }
    Ok(())
}

/// `sdc`: the end-to-end silent-corruption audit ([`audit::sdc`]) over
/// every requested graph × {bfs, sssp, ppr}: verified runs under a
/// silent-only fault plan ([`FaultPlan::silent`]) at 1 and 4 host
/// threads must match the fault-free answers bit for bit with balanced
/// ledgers and nothing escaped, and a verify-off control arm must let the
/// same draws escape. Exits non-zero when the audit's verdict fails, so
/// `scripts/ci.sh` gates on this command directly.
fn run_sdc(args: &Args) -> Result<(), String> {
    let suite: Vec<(&str, Graph)> = if args.graph == "all" {
        datasets::table2()
            .iter()
            .map(|s| {
                s.generate_scaled(args.scale, args.seed)
                    .map(|g| (s.abbrev, g))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?
    } else {
        vec![(args.graph.as_str(), load_graph(args)?)]
    };
    let config = PimConfig {
        num_dpus: args.dpus,
        fidelity: SimFidelity::Sampled(64),
        ..Default::default()
    };
    let plan = FaultPlan::silent(args.fault_seed, args.flip_rate);
    let options = AppOptions { policy: args.policy, ..Default::default() };
    let report = audit::sdc(&config, &plan, &suite, args.source, args.max_weight, &options)
        .map_err(|e| e.to_string())?;

    println!(
        "sdc — {} graphs x bfs/sssp/ppr, {} DPUs, flip rate {}, fault seed {:#x}, \
         scale {}, verify at 1 and 4 simulation threads",
        suite.len(),
        args.dpus,
        args.flip_rate,
        args.fault_seed,
        args.scale,
    );
    println!(
        "\n{:>6} {:>5} {:>4} {:>9} {:>9} {:>10} {:>8} {:>11} {:>5} {:>7} {:>7}",
        "graph", "app", "thr", "injected", "detected", "corrected", "escaped", "recompute",
        "dpus", "values", "ledger"
    );
    for case in &report.cases {
        println!(
            "{:>6} {:>5} {:>4} {:>9} {:>9} {:>10} {:>8} {:>11} {:>5} {:>7} {:>7}",
            case.graph,
            case.app,
            case.threads,
            case.injected,
            case.detected,
            case.corrected,
            case.escaped,
            case.recompute_cycles,
            case.corrupted_dpus,
            if case.values_match { "ok" } else { "DIFF" },
            if case.ledger_ok { "ok" } else { "BREACH" },
        );
    }
    println!(
        "\ntotals: {} injected, {} escaped under verification across {} cases; \
         verify-off control arm: {} injected → {} escaped",
        report.injected(),
        report.escaped(),
        report.cases.len(),
        report.injected_unverified(),
        report.escaped_unverified(),
    );

    if let Some(path) = &args.json {
        let mut cases_json = String::new();
        for (i, c) in report.cases.iter().enumerate() {
            if i > 0 {
                cases_json.push_str(", ");
            }
            cases_json.push_str(&format!(
                "{{\"graph\": \"{}\", \"app\": \"{}\", \"threads\": {}, \"injected\": {}, \
                 \"detected\": {}, \"corrected\": {}, \"escaped\": {}, \
                 \"recompute_cycles\": {}, \"corrupted_dpus\": {}, \"values_match\": {}, \
                 \"ledger_ok\": {}}}",
                c.graph,
                c.app,
                c.threads,
                c.injected,
                c.detected,
                c.corrected,
                c.escaped,
                c.recompute_cycles,
                c.corrupted_dpus,
                c.values_match,
                c.ledger_ok,
            ));
        }
        let json = format!(
            "{{{}, \"graph\": \"{}\", \"scale\": {}, \"dpus\": {}, \"seed\": {}, \
             \"fault_seed\": {}, \"flip_rate\": {}, \"injected\": {}, \
             \"escaped\": {}, \"injected_unverified\": {}, \"escaped_unverified\": {}, \
             \"failures\": {}, \"passes\": {}, \"cases\": [{cases_json}]}}\n",
            alpha_pim_bench::report::bench_schema_fields("sdc-audit"),
            args.graph,
            args.scale,
            args.dpus,
            args.seed,
            args.fault_seed,
            args.flip_rate,
            report.injected(),
            report.escaped(),
            report.injected_unverified(),
            report.escaped_unverified(),
            report.failures().len(),
            report.verdict().is_ok(),
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }

    report.verdict()?;
    println!("sdc audit passed (all corruption detected, corrected, and ledger-balanced)");
    Ok(())
}

/// `top`: run one kernel launch with per-tasklet observability and print a
/// top-style cycle-attribution summary from the real counter registry.
fn run_top(args: &Args, graph: &Graph) -> Result<(), String> {
    let sys = alpha_pim_sim::PimSystem::new(PimConfig {
        num_dpus: args.dpus,
        fidelity: SimFidelity::Sampled(64),
        observability: ObservabilityLevel::PerTasklet,
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let m = graph.transposed().map(BoolOrAnd::from_weight);
    let x = striped_vector(graph.nodes() as usize, args.density);
    let kernel = match args.kernel.as_str() {
        "spmv" => {
            let dense = x.to_dense(0u32);
            PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Dcoo2d, &sys)
                .map_err(|e| e.to_string())?
                .run(&dense, &sys)
                .map_err(|e| e.to_string())?
                .kernel
        }
        "spmspv" => PreparedSpmspv::<BoolOrAnd>::prepare(&m, SpmspvVariant::Csc2d, &sys)
            .map_err(|e| e.to_string())?
            .run(&x, &sys)
            .map_err(|e| e.to_string())?
            .kernel,
        other => return Err(format!("unknown --kernel {other} (expected spmv|spmspv)")),
    };
    let b = &kernel.breakdown;
    let (active, memory, revolver, rf) = b.fractions();
    println!(
        "top — {} on {} ({} DPUs, {} detailed, density {:.0}%)",
        args.kernel,
        args.graph,
        kernel.num_dpus,
        kernel.detailed_dpus,
        args.density * 100.0,
    );
    println!(
        "slots: active {:.1}% | memory {:.1}% | revolver {:.1}% | rf {:.1}%",
        active * 100.0,
        memory * 100.0,
        revolver * 100.0,
        rf * 100.0,
    );
    print!("tasklet time:");
    for id in CounterId::TASKLET_CYCLES {
        print!(" {}={:.1}%", id.label().trim_start_matches("tasklet."), b.tasklet_fraction(id) * 100.0);
    }
    println!();
    println!(
        "events: {} DMA transfers ({} bytes), {} mutex acquires, {} spin retries, {} barrier crossings",
        b.counter(CounterId::DmaTransfers),
        b.counter(CounterId::DmaBytes),
        b.counter(CounterId::MutexAcquires),
        b.counter(CounterId::SpinRetries),
        b.counter(CounterId::BarrierCrossings),
    );
    println!(
        "host/bus: scatter {} B, broadcast {} B, gather {} B in {} batches; merge {} B, scan {} B",
        b.counter(CounterId::XferScatterBytes),
        b.counter(CounterId::XferBroadcastBytes),
        b.counter(CounterId::XferGatherBytes),
        b.counter(CounterId::XferBatches),
        b.counter(CounterId::HostMergeBytes),
        b.counter(CounterId::HostScanBytes),
    );

    let mut details: Vec<&alpha_pim_sim::DpuDetail> = kernel.dpu_details.iter().collect();
    let cycles = |d: &alpha_pim_sim::DpuDetail| d.counters.get(CounterId::DpuCycles);
    details.sort_by(|a, b| cycles(b).cmp(&cycles(a)).then(a.dpu_id.cmp(&b.dpu_id)));
    println!("\ntop {} of {} detailed DPUs by cycles:", args.limit.min(details.len()), details.len());
    println!(
        "{:>6} {:>12} {:>12} {:>7} {:>7} {:>7} {:>7}",
        "dpu", "cycles", "instr", "issue%", "dma%", "sync%", "disp%"
    );
    for d in details.iter().take(args.limit) {
        let budget = (d.counters.get(CounterId::TaskletBudget)).max(1) as f64;
        let dma = d.counters.sum(&[
            CounterId::TaskletDmaQueue,
            CounterId::TaskletDmaStartup,
            CounterId::TaskletDmaTransfer,
        ]);
        let sync = d.counters.sum(&[CounterId::TaskletMutex, CounterId::TaskletBarrier]);
        println!(
            "{:>6} {:>12} {:>12} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            d.dpu_id,
            cycles(d),
            d.counters.get(CounterId::SlotIssue),
            d.counters.get(CounterId::TaskletIssue) as f64 / budget * 100.0,
            dma as f64 / budget * 100.0,
            sync as f64 / budget * 100.0,
            d.counters.get(CounterId::TaskletDispatch) as f64 / budget * 100.0,
        );
    }

    if let Some(busiest) = details.first() {
        println!("\nbusiest DPU {} — per-tasklet cycle anatomy:", busiest.dpu_id);
        print!("{:>4}", "tid");
        for id in CounterId::TASKLET_CYCLES {
            print!(" {:>11}", id.label().trim_start_matches("tasklet."));
        }
        println!();
        for (tid, t) in busiest.tasklets.iter().enumerate() {
            print!("{tid:>4}");
            for id in CounterId::TASKLET_CYCLES {
                print!(" {:>11}", t.get(id));
            }
            println!();
        }
    }
    Ok(())
}
