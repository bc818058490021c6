//! Helpers the workloads share: seeded sources, the CPU-baseline answer
//! check, and counter roll-ups.

use alpha_pim::apps::{AppReport, PprOptions};
use alpha_pim::serve::{Query, QueryResult, ServeConfig, ServeEngine};
use alpha_pim::{AlphaPim, FastPath, KernelKind};
use alpha_pim_baselines::cpu::GridEngine;
use alpha_pim_sim::{CounterId, CounterSet};
use alpha_pim_sparse::datasets;
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::{Csr, Graph};

use crate::metrics::Metrics;
use crate::trace::{Layer, Tracer};

/// Seed of every generated graph. Graphs are fixed so that runs with
/// different workload seeds differ only in their traffic.
pub const GRAPH_SEED: u64 = 0xD1FF;
/// Maximum random edge weight (SSSP lifts these).
pub const MAX_WEIGHT: u32 = 9;
/// PPR tolerance of the CPU-baseline comparison (as `tests/differential.rs`).
pub const PPR_TOLERANCE: f32 = 1e-3;

/// BFS, SSSP and PPR queries from a source, in that order.
pub const APPS: [fn(u32) -> Query; 3] = [
    |source| Query::Bfs { source },
    |source| Query::Sssp { source },
    |source| Query::Ppr { source },
];

/// The fixed referee batch: every application from graph's hub.
pub fn hub_batch(graph: &Graph) -> Vec<Query> {
    let h = hub(graph);
    APPS.iter().map(|make| make(h)).collect()
}

/// Generates a weighted catalog graph inside a `sparse/generate` span.
pub fn generate(abbrev: &str, scale: f64, tr: &mut Tracer) -> Result<Graph, String> {
    tr.span(Layer::Sparse, "generate", 0, |_| {
        datasets::by_abbrev(abbrev)
            .ok_or_else(|| format!("unknown catalog graph {abbrev}"))?
            .generate_scaled(scale, GRAPH_SEED)
            .map(|g| g.with_random_weights(MAX_WEIGHT))
            .map_err(|e| format!("generate {abbrev}: {e}"))
    })
}

/// Seeded candidates drawn per source; the median one is used.
const CANDIDATES: usize = 7;

/// Seeded source selection that keeps the work of one call comparable
/// across seeds. A uniformly drawn source can reach almost nothing or sit
/// at the far end of a road network; either swings a whole round's cost.
/// Each source is instead the median, by BFS reach and then depth, of
/// [`CANDIDATES`] seeded vertices with out-edges.
pub struct Sources {
    csr: Csr<u32>,
}

impl Sources {
    /// Indexes `graph`'s out-edges.
    pub fn new(graph: &Graph) -> Self {
        Sources {
            csr: graph.to_csr(),
        }
    }

    /// `(vertices reached, BFS depth)` from `s`.
    fn extent(&self, s: u32) -> (usize, u32) {
        let n = self.csr.n_rows() as usize;
        let mut level = vec![u32::MAX; n];
        level[s as usize] = 0;
        let (mut frontier, mut depth, mut reached) = (vec![s], 0, 1);
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in self.csr.row(u).0 {
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = depth + 1;
                        next.push(v);
                    }
                }
            }
            if !next.is_empty() {
                depth += 1;
                reached += next.len();
            }
            frontier = next;
        }
        (reached, depth)
    }

    /// The next seeded source.
    pub fn draw(&self, rng: &mut SplitMix64) -> u32 {
        let n = self.csr.n_rows();
        if self.csr.nnz() == 0 {
            return rng.u32_below(n.max(1));
        }
        let mut picked: Vec<((usize, u32), u32)> = Vec::with_capacity(CANDIDATES);
        while picked.len() < CANDIDATES {
            let v = rng.u32_below(n);
            if self.csr.row_nnz(v) > 0 {
                picked.push((self.extent(v), v));
            }
        }
        picked.sort_unstable();
        picked[CANDIDATES / 2].1
    }
}

/// The highest out-degree vertex (lowest id on ties): the fixed source of
/// the referee subsets.
pub fn hub(graph: &Graph) -> u32 {
    let degrees = graph.out_degrees();
    (0..graph.nodes())
        .max_by_key(|&v| (degrees[v as usize], std::cmp::Reverse(v)))
        .unwrap_or(0)
}

/// FNV-1a step over a 64-bit word.
pub fn fnv(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x100_0000_01b3)
}

/// Compares one answer with the CPU grid baseline: BFS levels and SSSP
/// distances exactly, PPR scores within [`PPR_TOLERANCE`] per vertex.
pub fn check_answer(grid: &GridEngine, query: Query, result: &QueryResult) -> Option<String> {
    let ppr = PprOptions::default();
    match (query, result) {
        (Query::Bfs { source }, QueryResult::Bfs(r)) => (r.levels != grid.bfs(source).0)
            .then(|| format!("BFS from {source} diverged from the CPU baseline")),
        (Query::Sssp { source }, QueryResult::Sssp(r)) => (r.distances != grid.sssp(source).0)
            .then(|| format!("SSSP from {source} diverged from the CPU baseline")),
        (Query::Ppr { source }, QueryResult::Ppr(r)) => {
            let cpu = grid
                .ppr(source, ppr.alpha, ppr.tolerance, ppr.app.max_iterations)
                .0;
            let close = cpu.len() == r.scores.len()
                && r.scores
                    .iter()
                    .zip(&cpu)
                    .all(|(a, b)| (a - b).abs() < PPR_TOLERANCE);
            (!close).then(|| format!("PPR from {source} diverged from the CPU baseline"))
        }
        _ => Some(format!("{query:?} came back as a different application")),
    }
}

/// Whether two answers are bit-identical.
pub fn same_answer(a: &QueryResult, b: &QueryResult) -> bool {
    match (a, b) {
        (QueryResult::Bfs(x), QueryResult::Bfs(y)) => x.levels == y.levels,
        (QueryResult::Sssp(x), QueryResult::Sssp(y)) => x.distances == y.distances,
        (QueryResult::Ppr(x), QueryResult::Ppr(y)) => x
            .scores
            .iter()
            .map(|v| v.to_bits())
            .eq(y.scores.iter().map(|v| v.to_bits())),
        _ => false,
    }
}

/// Runs `queries` as one batch through a fresh serving engine; returns the
/// answers and the batch's simulated makespan.
pub fn serve_once(
    engine: &AlphaPim,
    graph: &Graph,
    queries: &[Query],
    fast_path: FastPath,
) -> Result<(Vec<QueryResult>, f64), String> {
    let cfg = ServeConfig {
        batch_size: queries.len().max(1) as u32,
        fast_path,
        ..Default::default()
    };
    let (results, batch) = ServeEngine::new(engine, cfg)
        .run_batch(graph, queries)
        .map_err(|e| format!("serve: {e}"))?;
    Ok((results, batch.batched_seconds))
}

/// The serving referee: `queries` on the analytic fast path of `engine`
/// against `full`, a `SimFidelity::Full` engine replaying every DPU.
/// Answers must agree bit for bit with each other and with the CPU
/// baseline; returns the analytic makespan error in percent.
pub fn serve_referee(
    engine: &AlphaPim,
    full: &AlphaPim,
    graph: &Graph,
    queries: &[Query],
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    let (fast, fast_s) = serve_once(engine, graph, queries, FastPath::Analytic)?;
    let (exact, exact_s) = serve_once(full, graph, queries, FastPath::Replay)?;
    if !fast.iter().zip(&exact).all(|(a, b)| same_answer(a, b)) {
        problems.push("analytic and Full-replay answers differ on the referee batch".into());
    }
    let grid = GridEngine::new(graph, 8, 2);
    for (q, r) in queries.iter().zip(&exact) {
        problems.extend(check_answer(&grid, *q, r));
    }
    Ok((fast_s - exact_s).abs() / exact_s * 100.0)
}

/// Sum of every kernel launch's counters in `reports`.
pub fn kernel_counters<'a>(reports: impl IntoIterator<Item = &'a AppReport>) -> CounterSet {
    let mut c = CounterSet::new();
    for r in reports {
        for it in &r.iterations {
            c.merge(&it.kernel_report.breakdown.counters);
        }
    }
    c
}

/// Supersteps and the share of them that ran SpMSpV.
pub fn superstep_mix<'a>(reports: impl IntoIterator<Item = &'a AppReport>) -> (u64, f64) {
    let (mut steps, mut sparse) = (0u64, 0u64);
    for r in reports {
        for it in &r.iterations {
            steps += 1;
            sparse += u64::from(matches!(it.kernel, KernelKind::Spmspv(_)));
        }
    }
    (steps, sparse as f64 / steps.max(1) as f64)
}

/// The integrity and fault counters every workload reports.
pub fn set_integrity(m: &mut Metrics, c: &CounterSet) {
    m.set("sdc.detected", c.get(CounterId::SdcDetected) as f64);
    m.set("sdc.escaped", c.get(CounterId::SdcEscaped) as f64);
    m.set(
        "sdc.recompute_cycles",
        c.get(CounterId::SdcRecomputeCycles) as f64,
    );
    m.set("fault.retries", c.get(CounterId::FaultRetries) as f64);
}

/// The integrity ledger: every injected corruption is detected or escapes,
/// and none escapes while merges are verified.
pub fn integrity_problems(c: &CounterSet) -> Vec<String> {
    let (injected, detected, escaped) = (
        c.get(CounterId::SdcInjected),
        c.get(CounterId::SdcDetected),
        c.get(CounterId::SdcEscaped),
    );
    let mut out = Vec::new();
    if injected != detected + escaped {
        out.push(format!(
            "sdc ledger off: {injected} injected != {detected} detected + {escaped} escaped"
        ));
    }
    if escaped != 0 {
        out.push(format!(
            "{escaped} silent corruptions escaped verified merges"
        ));
    }
    out
}
