//! Calibration audit of the analytic serving fast path (DESIGN.md §13).
//!
//! The analytic model (`alpha_pim_sim::analytic`) replaces cycle replay
//! with closed-form makespan prediction; this module is the gate that
//! keeps it honest. For every catalog graph × application pair it serves
//! the same query trace twice — once on the exact replay path, once on the
//! analytic fast path — and checks three things:
//!
//! 1. **Result values are bit-identical.** The fast path only swaps the
//!    timing model; the value-level kernel math is shared code, so BFS
//!    levels, SSSP distances, and PPR scores must match exactly.
//! 2. **Traffic counters are bit-identical.** Byte and event counters
//!    ([`TRAFFIC_COUNTERS`]) are recorded from the same functional
//!    execution on both paths — any divergence is a plumbing bug, not an
//!    approximation.
//! 3. **Makespan error is bounded.** The predicted end-to-end serving
//!    seconds must stay within a relative-error bound of the replayed
//!    seconds (the repo-wide target is ≤ 5 %).
//!
//! The CLI's `calibrate` subcommand runs the full 13-graph × 3-app suite
//! at a chosen scale; `scripts/ci.sh`'s `calibration-audit` stage fails
//! the build on any breach.

use alpha_pim_sim::{CounterId, PimConfig, SimFidelity};
use alpha_pim_sparse::datasets::{self, DatasetSpec};
use alpha_pim_sparse::Graph;

use crate::apps::AppReport;
use crate::error::AlphaPimError;
use crate::framework::AlphaPim;
use crate::serve::{FastPath, Query, QueryResult, ServeConfig, ServeEngine};

/// The counters both paths must agree on *exactly*: all byte traffic and
/// discrete event counts. Cycle-attribution counters are deliberately
/// absent — those are what the analytic model approximates.
pub const TRAFFIC_COUNTERS: [CounterId; 11] = [
    CounterId::DmaTransfers,
    CounterId::DmaBytes,
    CounterId::MutexAcquires,
    CounterId::BarrierCrossings,
    CounterId::XferScatterBytes,
    CounterId::XferBroadcastBytes,
    CounterId::XferGatherBytes,
    CounterId::XferBatches,
    CounterId::HostMergeBytes,
    CounterId::HostScanBytes,
    CounterId::HostReductions,
];

/// One application of the calibration suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalApp {
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// Personalized PageRank.
    Ppr,
}

impl CalApp {
    /// Every application the suite covers.
    pub const ALL: [CalApp; 3] = [CalApp::Bfs, CalApp::Sssp, CalApp::Ppr];

    /// Stable lowercase name (CLI/JSON key).
    pub fn name(self) -> &'static str {
        match self {
            CalApp::Bfs => "bfs",
            CalApp::Sssp => "sssp",
            CalApp::Ppr => "ppr",
        }
    }

    fn query(self, source: u32) -> Query {
        match self {
            CalApp::Bfs => Query::Bfs { source },
            CalApp::Sssp => Query::Sssp { source },
            CalApp::Ppr => Query::Ppr { source },
        }
    }
}

/// The verdict for one graph × application pair.
#[derive(Debug, Clone)]
pub struct CalibrationCase {
    /// Catalog abbreviation of the graph (e.g. `"A302"`).
    pub graph: String,
    /// Application name (`"bfs"` / `"sssp"` / `"ppr"`).
    pub app: &'static str,
    /// Queries served on each path.
    pub queries: usize,
    /// Summed end-to-end seconds on the exact replay path.
    pub replay_seconds: f64,
    /// Summed end-to-end seconds on the analytic fast path.
    pub analytic_seconds: f64,
    /// `|analytic − replay| / replay` (0 when replay is 0).
    pub rel_error: f64,
    /// Whether every query's result values matched bit-for-bit.
    pub values_match: bool,
    /// Whether every [`TRAFFIC_COUNTERS`] total matched exactly.
    pub counters_match: bool,
}

impl CalibrationCase {
    /// Whether this pair passes under `bound` (relative makespan error).
    pub fn passes(&self, bound: f64) -> bool {
        self.values_match && self.counters_match && self.rel_error <= bound
    }
}

/// The full suite's verdicts plus roll-up queries.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    /// One entry per graph × application pair, in suite order.
    pub cases: Vec<CalibrationCase>,
}

impl CalibrationReport {
    /// The worst relative makespan error across all pairs.
    pub fn max_rel_error(&self) -> f64 {
        self.cases.iter().map(|c| c.rel_error).fold(0.0, f64::max)
    }

    /// Whether values and traffic counters matched exactly everywhere.
    pub fn all_exact(&self) -> bool {
        self.cases.iter().all(|c| c.values_match && c.counters_match)
    }

    /// Whether every pair passes under `bound`.
    pub fn passes(&self, bound: f64) -> bool {
        self.cases.iter().all(|c| c.passes(bound))
    }

    /// Cases that fail under `bound`, for error messages.
    pub fn failures(&self, bound: f64) -> Vec<&CalibrationCase> {
        self.cases.iter().filter(|c| !c.passes(bound)).collect()
    }

    /// Cases that exceed their graph's frozen per-graph regression bound
    /// (see [`frozen_bound`]). Graphs without a frozen entry are skipped.
    pub fn frozen_failures(&self) -> Vec<&CalibrationCase> {
        self.cases
            .iter()
            .filter(|c| frozen_bound(&c.graph).is_some_and(|b| c.rel_error > b))
            .collect()
    }
}

/// Frozen per-graph regression bounds on the relative makespan error, for
/// the suite's reference configuration (`scale 0.02`, 64 DPUs, seed 42,
/// 2 queries per app). Each bound is the worst error measured across
/// {BFS, SSSP, PPR} when the analytic model was calibrated, plus ~50 %
/// headroom for cross-platform float noise — so a model regression that
/// doubles any graph's error trips the gate long before the global 5 %
/// acceptance bound does.
pub const FROZEN_MAX_REL_ERROR: &[(&str, f64)] = &[
    ("A302", 0.025),
    ("as00", 0.022),
    ("ca-Q", 0.028),
    ("cit-HP", 0.037),
    ("e-En", 0.042),
    ("face", 0.022),
    ("g-18", 0.027),
    ("loc-b", 0.033),
    ("p2p-24", 0.025),
    ("r-TX", 0.025),
    ("s-S02", 0.041),
    ("s-S11", 0.036),
    ("flk-E", 0.028),
];

/// The frozen regression bound for a catalog graph, if one is recorded.
pub fn frozen_bound(graph: &str) -> Option<f64> {
    FROZEN_MAX_REL_ERROR.iter().find(|(g, _)| *g == graph).map(|&(_, b)| b)
}

/// Deterministic query sources for a calibration trace: spread across the
/// vertex space by a Weyl-style multiplicative step so consecutive queries
/// do not share frontiers.
fn sources(nodes: u32, count: usize, seed: u64) -> Vec<u32> {
    let n = u64::from(nodes.max(1));
    (0..count as u64)
        .map(|i| (((i.wrapping_add(seed)).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n) as u32)
        .collect()
}

/// Sums each [`TRAFFIC_COUNTERS`] entry over every iteration of `report`.
fn traffic_totals(report: &AppReport) -> [u64; TRAFFIC_COUNTERS.len()] {
    let mut out = [0u64; TRAFFIC_COUNTERS.len()];
    for it in &report.iterations {
        for (slot, &id) in out.iter_mut().zip(TRAFFIC_COUNTERS.iter()) {
            *slot += it.kernel_report.breakdown.counters.get(id);
        }
    }
    out
}

/// Serves `queries` on `engine` under `path`, returning per-query results.
fn serve_trace(
    engine: &AlphaPim,
    graph: &Graph,
    queries: &[Query],
    path: FastPath,
) -> Result<Vec<QueryResult>, AlphaPimError> {
    let mut serve =
        ServeEngine::new(engine, ServeConfig { fast_path: path, ..Default::default() });
    let (results, _batches) = serve.serve(graph, queries)?;
    Ok(results)
}

/// Calibrates one graph × application pair: serves the same trace on both
/// paths and compares values, traffic counters, and makespan.
///
/// # Errors
///
/// Propagates engine-construction, capacity, and kernel errors.
pub fn run_case(
    graph: &Graph,
    abbrev: &str,
    app: CalApp,
    dpus: u32,
    seed: u64,
    query_count: usize,
) -> Result<CalibrationCase, AlphaPimError> {
    let engine = AlphaPim::new(PimConfig {
        num_dpus: dpus,
        fidelity: SimFidelity::Full,
        ..Default::default()
    })?;
    let queries: Vec<Query> = sources(graph.nodes(), query_count, seed)
        .into_iter()
        .map(|s| app.query(s))
        .collect();
    let replay = serve_trace(&engine, graph, &queries, FastPath::Replay)?;
    let analytic = serve_trace(&engine, graph, &queries, FastPath::Analytic)?;

    let mut values_match = replay.len() == analytic.len();
    let mut counters_match = values_match;
    let mut replay_seconds = 0.0;
    let mut analytic_seconds = 0.0;
    for (r, a) in replay.iter().zip(analytic.iter()) {
        values_match &= r.same_values(a);
        counters_match &= traffic_totals(r.report()) == traffic_totals(a.report());
        replay_seconds += r.report().total_seconds();
        analytic_seconds += a.report().total_seconds();
    }
    let rel_error = if replay_seconds > 0.0 {
        (analytic_seconds - replay_seconds).abs() / replay_seconds
    } else {
        0.0
    };
    Ok(CalibrationCase {
        graph: abbrev.to_string(),
        app: app.name(),
        queries: queries.len(),
        replay_seconds,
        analytic_seconds,
        rel_error,
        values_match,
        counters_match,
    })
}

/// Calibrates one catalog dataset (scaled by `factor`) across `apps`.
///
/// # Errors
///
/// Propagates generation and serving errors.
pub fn run_spec(
    spec: &DatasetSpec,
    apps: &[CalApp],
    factor: f64,
    dpus: u32,
    seed: u64,
    query_count: usize,
) -> Result<Vec<CalibrationCase>, AlphaPimError> {
    let graph = spec
        .generate_scaled(factor, seed)
        .map_err(AlphaPimError::Sparse)?
        .with_random_weights(seed.max(1) as u32);
    apps.iter()
        .map(|&app| run_case(&graph, spec.abbrev, app, dpus, seed, query_count))
        .collect()
}

/// Runs the full calibration suite: all 13 Table 2 catalog graphs (scaled
/// by `factor`) × {BFS, SSSP, PPR}.
///
/// # Errors
///
/// Propagates generation and serving errors.
pub fn run_suite(
    factor: f64,
    dpus: u32,
    seed: u64,
    query_count: usize,
) -> Result<CalibrationReport, AlphaPimError> {
    let mut cases = Vec::new();
    for spec in datasets::table2() {
        cases.extend(run_spec(spec, &CalApp::ALL, factor, dpus, seed, query_count)?);
    }
    Ok(CalibrationReport { cases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_pim_sparse::gen;

    #[test]
    fn sources_are_deterministic_and_in_range() {
        let a = sources(100, 16, 7);
        let b = sources(100, 16, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s < 100));
        assert_ne!(a, sources(100, 16, 8));
    }

    #[test]
    fn calibration_case_compares_both_paths() {
        let graph =
            Graph::from_coo(gen::erdos_renyi(300, 2400, 11).unwrap()).with_random_weights(5);
        let case = run_case(&graph, "er300", CalApp::Bfs, 8, 3, 4).unwrap();
        assert_eq!(case.queries, 4);
        assert!(case.values_match, "BFS levels must be bit-identical");
        assert!(case.counters_match, "traffic counters must be bit-identical");
        assert!(case.replay_seconds > 0.0);
        assert!(case.analytic_seconds > 0.0);
        assert!(
            case.rel_error < 0.15,
            "debug-scale rel error {:.4} out of band",
            case.rel_error
        );
    }

    #[test]
    fn report_rollups_work() {
        let mk = |err: f64, exact: bool| CalibrationCase {
            graph: "g".into(),
            app: "bfs",
            queries: 1,
            replay_seconds: 1.0,
            analytic_seconds: 1.0 + err,
            rel_error: err,
            values_match: exact,
            counters_match: exact,
        };
        let report = CalibrationReport { cases: vec![mk(0.01, true), mk(0.04, true)] };
        assert!(report.passes(0.05));
        assert!((report.max_rel_error() - 0.04).abs() < 1e-12);
        assert!(report.all_exact());
        let bad = CalibrationReport { cases: vec![mk(0.01, true), mk(0.2, true)] };
        assert!(!bad.passes(0.05));
        assert_eq!(bad.failures(0.05).len(), 1);
        let mismatch = CalibrationReport { cases: vec![mk(0.0, false)] };
        assert!(!mismatch.passes(0.05));
    }

    #[test]
    fn frozen_bounds_cover_the_whole_catalog_and_stay_under_the_gate() {
        for spec in alpha_pim_sparse::datasets::table2() {
            let b = frozen_bound(spec.abbrev)
                .unwrap_or_else(|| panic!("no frozen bound for {}", spec.abbrev));
            assert!(
                b > 0.0 && b < 0.05,
                "{}: frozen bound {b} must sit strictly inside the 5% acceptance gate",
                spec.abbrev
            );
        }
        assert_eq!(FROZEN_MAX_REL_ERROR.len(), alpha_pim_sparse::datasets::table2().len());
        assert!(frozen_bound("not-a-graph").is_none());
    }

    #[test]
    fn frozen_failures_flag_only_regressed_catalog_graphs() {
        let mk = |graph: &str, err: f64| CalibrationCase {
            graph: graph.into(),
            app: "ppr",
            queries: 1,
            replay_seconds: 1.0,
            analytic_seconds: 1.0 + err,
            rel_error: err,
            values_match: true,
            counters_match: true,
        };
        let report = CalibrationReport {
            cases: vec![
                mk("e-En", 0.01),      // well under its frozen bound
                mk("as00", 0.03),      // over as00's frozen 0.022
                mk("custom.mtx", 0.2), // no frozen entry: skipped
            ],
        };
        let regressed = report.frozen_failures();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].graph, "as00");
    }
}
