//! Multi-tenant sustained-load serving front-end.
//!
//! [`crate::serve::ServeEngine`] executes one batch at a time; production
//! traffic is a *stream*: queries from many tenants, against many hosted
//! graphs, arriving continuously, with more demand than capacity at peak.
//! [`ServiceEngine`] closes that gap with four mechanisms (DESIGN.md §14):
//!
//! 1. **Admission control** — a bounded queue. When it overflows, the
//!    lowest-priority, latest-arrived query (including the one at the
//!    door) is rejected outright, so overload degrades service quality
//!    instead of growing memory without bound.
//! 2. **Weighted fair scheduling** — tenants carry a weight and a
//!    [`Priority`] class; dispatch order follows integer virtual-time
//!    weighted fair queueing over `weight × priority boost`, FIFO within
//!    a tenant. Every step is pure integer arithmetic over the model
//!    clock, so the dispatch order is bit-identical at any host thread
//!    count.
//! 3. **Queue-time deadline budgets** — one budget covers waiting *and*
//!    execution. Queries whose budget is gone before dispatch are shed
//!    without executing (`queue.shed_wait`); the rest carry the remainder
//!    into the serve engine's batch as per-query deadlines, where the
//!    existing `deadline_cycles` machinery sheds them mid-run if it runs
//!    out (`queue.shed_deadline`, balanced against `serve.shed`).
//! 4. **Multi-graph hosting** — batches are formed per graph against the
//!    serve engine's byte-budgeted partition cache, so a catalog larger
//!    than the MRAM-budget analogue thrashes gracefully (evictions are
//!    counted) instead of failing.
//!
//! Time is *model time*: a virtual clock in DPU cycles, advanced by each
//! batch's [`alpha_pim_sim::report::BatchReport::batched_seconds`] and by
//! jumps to the next arrival of the (seeded, open-loop) arrival process.
//! No wall clock is ever read, which is what makes a 100k-query sustained
//! load replayable bit-for-bit — including across a host crash and
//! [`CheckpointStore`] resume.

use alpha_pim_sim::{CounterId, CounterSet, HostCrashPlan, OpenLoopArrivals};
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::{Graph, MutationBatch};

use crate::delta::{land_epoch, DynamicGraph};
use crate::error::AlphaPimError;
use crate::framework::AlphaPim;
use crate::recover::{BatchCheckpoint, CheckpointStore};
use crate::serve::{
    fingerprint_fold, BatchOutcome, Query, ServeConfig, ServeEngine, FINGERPRINT_SEED,
};

/// Scale of one virtual-time unit: a dispatched query advances its
/// tenant's virtual time by `VT_SCALE / effective_weight`.
const VT_SCALE: u64 = 1 << 24;

/// A tenant's priority class. Priorities multiply the tenant's fair-share
/// weight (so high-priority tenants drain faster but nobody starves) and
/// order overload rejection (low-priority queries are turned away first).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort traffic: rejected first under overload, weight ×1.
    Low,
    /// The default class: weight ×2.
    #[default]
    Normal,
    /// Latency-sensitive traffic: rejected last, weight ×4.
    High,
}

impl Priority {
    /// The fair-share multiplier of this class.
    pub fn boost(self) -> u64 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }

    /// Rejection rank: higher ranks are evicted first under overload.
    fn shed_rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// One tenant of the service: a fair-share weight and a priority class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Fair-share weight (≥ 1; 0 is clamped to 1). A weight-3 tenant gets
    /// three times the service of a weight-1 tenant of the same priority
    /// while both stay backlogged.
    pub weight: u32,
    /// Priority class, multiplying the weight and ordering rejection.
    pub priority: Priority,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec { weight: 1, priority: Priority::Normal }
    }
}

impl TenantSpec {
    /// The scheduling weight: `weight × priority boost`.
    fn effective_weight(&self) -> u64 {
        u64::from(self.weight.max(1)) * self.priority.boost()
    }
}

/// One query arriving at the service front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time on the model clock, in DPU cycles. A workload's
    /// arrivals must be non-decreasing in this field.
    pub at_cycle: u64,
    /// Index into [`ServiceConfig::tenants`].
    pub tenant: u32,
    /// Index into the hosted graph catalog passed to [`ServiceEngine::run`].
    pub graph: u32,
    /// The query itself.
    pub query: Query,
}

/// One mutation batch admitted at the service front door, sharing the
/// model-time clock with query arrivals: the batch applies to its graph
/// the moment the clock first reaches `at_cycle` — after every earlier
/// batch dispatch, before the next one. A workload's mutation events must
/// be non-decreasing in `at_cycle`, like query arrivals; events the run
/// never reaches (the clock stops when the query workload drains) apply
/// at drain time, so every epoch lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationEvent {
    /// Application time on the model clock, in DPU cycles.
    pub at_cycle: u64,
    /// Index into the hosted graph catalog.
    pub graph: u32,
    /// The edge mutations themselves.
    pub batch: MutationBatch,
}

/// Service-level configuration, wrapping the inner [`ServeConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Tenants of the service; [`Arrival::tenant`] indexes this list.
    pub tenants: Vec<TenantSpec>,
    /// Bound of the admission queue (≥ 1; 0 is clamped to 1). Arrivals
    /// past the bound reject the lowest-priority, latest-arrived pending
    /// query — possibly the arrival itself.
    pub queue_capacity: usize,
    /// Per-query deadline budget in cycles, covering queue wait *and*
    /// execution. `None` disables both wait-shedding and the per-query
    /// execution deadline (the inner config's `deadline_cycles` still
    /// applies, if set).
    pub deadline_budget_cycles: Option<u64>,
    /// Corruption strikes before a DPU is quarantined: every detected
    /// silent corruption attributed to a physical DPU (an entry in a
    /// kernel report's `corrupted_dpus`) is one strike, and a DPU reaching
    /// this count is excluded from every subsequent batch's partitioning
    /// (a re-plan via [`crate::serve::ServeEngine::set_quarantine`]). The
    /// health ledger lands in the `quarantine.*` counters at drain. Zero
    /// is clamped to 1. `None` disables the scoreboard (and the counters
    /// stay zero).
    pub quarantine_threshold: Option<u32>,
    /// The inner batched-executor configuration (batch size, partition
    /// cache entry/byte budgets, checkpointing, fast path).
    pub serve: ServeConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            tenants: vec![TenantSpec::default()],
            queue_capacity: 1024,
            deadline_budget_cycles: None,
            quarantine_threshold: None,
            serve: ServeConfig::default(),
        }
    }
}

/// Generates a seeded multi-tenant, multi-graph open-loop workload:
/// `count` arrivals timed by [`OpenLoopArrivals`] with `mean_gap_cycles`,
/// each drawn over `tenants` tenants (uniform), the graphs of
/// `graph_nodes` (uniform; the slice holds each hosted graph's vertex
/// count), and the `[bfs, sssp, ppr]` application `mix`. Deterministic in
/// its arguments; an empty catalog yields an empty workload. Degenerate
/// mixes (all zero or overflowing) fall back to uniform.
pub fn seeded_workload(
    seed: u64,
    mean_gap_cycles: u64,
    count: usize,
    tenants: u32,
    graph_nodes: &[u32],
    mix: [u32; 3],
) -> Vec<Arrival> {
    if graph_nodes.is_empty() {
        return Vec::new();
    }
    let (mix, total) = match mix[0].checked_add(mix[1]).and_then(|s| s.checked_add(mix[2])) {
        Some(t) if t > 0 => (mix, t),
        _ => ([1, 1, 1], 3),
    };
    let tenants = tenants.max(1);
    let times = OpenLoopArrivals::new(seed, mean_gap_cycles).times(count);
    let mut rng = SplitMix64::new(seed ^ 0x5EED_CAFE);
    times
        .into_iter()
        .map(|at_cycle| {
            let tenant = rng.u32_below(tenants);
            let graph = rng.u32_below(graph_nodes.len() as u32);
            let source = rng.u32_below(graph_nodes[graph as usize].max(1));
            let draw = rng.u32_below(total);
            let query = if draw < mix[0] {
                Query::Bfs { source }
            } else if draw < mix[0] + mix[1] {
                Query::Sssp { source }
            } else {
                Query::Ppr { source }
            };
            Arrival { at_cycle, tenant, graph, query }
        })
        .collect()
}

/// One tenant's admission/outcome ledger. By construction
/// `arrivals == admitted + rejected` and
/// `admitted == served + shed_wait + shed_deadline` once the run drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantReport {
    /// The tenant's spec, echoed for self-contained reports.
    pub weight: u32,
    /// Priority class.
    pub priority: Priority,
    /// Queries this tenant submitted.
    pub arrivals: u64,
    /// Queries admitted past the door.
    pub admitted: u64,
    /// Queries rejected under overload (at the door or evicted later).
    pub rejected: u64,
    /// Admitted queries that finished with a full result.
    pub served: u64,
    /// Admitted queries shed before dispatch: their whole deadline budget
    /// was consumed by queue wait.
    pub shed_wait: u64,
    /// Admitted queries shed mid-execution by the deadline machinery.
    pub shed_deadline: u64,
    /// Model-clock cycles this tenant's dispatched queries waited in the
    /// queue.
    pub wait_cycles: u64,
}

impl TenantReport {
    /// Checks the ledger's two identities,
    /// `arrivals == admitted + rejected` and
    /// `admitted == served + shed_wait + shed_deadline`.
    ///
    /// # Errors
    ///
    /// The first identity that breaks, with its values.
    pub fn check_ledgers(&self) -> Result<(), String> {
        if self.arrivals != self.admitted + self.rejected {
            return Err(format!(
                "tenant ledger breach: arrivals {} != admitted {} + rejected {}",
                self.arrivals, self.admitted, self.rejected
            ));
        }
        if self.admitted != self.served + self.shed_wait + self.shed_deadline {
            return Err(format!(
                "tenant ledger breach: admitted {} != served {} + shed_wait {} + shed_deadline {}",
                self.admitted, self.served, self.shed_wait, self.shed_deadline
            ));
        }
        Ok(())
    }
}

/// The report of one sustained-load run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Per-tenant ledgers, indexed like [`ServiceConfig::tenants`].
    pub tenants: Vec<TenantReport>,
    /// Batches the inner executor ran.
    pub batches: u32,
    /// The model clock when the last batch finished, in cycles.
    pub makespan_cycles: u64,
    /// Arrival→completion latency of every executed query, in dispatch
    /// order, in cycles. Wait-shed and rejected queries never execute and
    /// are excluded (they are visible in the ledgers instead).
    pub latencies_cycles: Vec<u64>,
    /// Arrival indices (into the workload) in dispatch order — the
    /// scheduling decision sequence, frozen for bit-equality tests.
    pub dispatch_order: Vec<u32>,
    /// [`crate::serve::fingerprint_results`] of every executed result in
    /// dispatch order.
    pub result_fingerprint: u64,
    /// Service counters (`queue.*`, `tenant.active`) merged with every
    /// batch's counters (`serve.*`, `ckpt.*`, kernel traffic).
    pub counters: CounterSet,
    /// Seconds per DPU cycle of the engine that ran the load, for
    /// converting cycle metrics to wall-clock equivalents.
    pub cycle_seconds: f64,
}

impl ServiceReport {
    /// Total arrivals.
    pub fn arrivals(&self) -> u64 {
        self.counters.get(CounterId::QueueArrivals)
    }

    /// Admitted queries.
    pub fn admitted(&self) -> u64 {
        self.counters.get(CounterId::QueueAdmitted)
    }

    /// Rejected queries.
    pub fn rejected(&self) -> u64 {
        self.counters.get(CounterId::QueueRejected)
    }

    /// Fully served queries.
    pub fn served(&self) -> u64 {
        self.counters.get(CounterId::QueueServed)
    }

    /// Queries shed before dispatch (budget gone while queued).
    pub fn shed_wait(&self) -> u64 {
        self.counters.get(CounterId::QueueShedWait)
    }

    /// Queries shed mid-execution.
    pub fn shed_deadline(&self) -> u64 {
        self.counters.get(CounterId::QueueShedDeadline)
    }

    /// Shed fraction of admitted queries (wait- plus deadline-shed).
    pub fn shed_rate(&self) -> f64 {
        let admitted = self.admitted();
        if admitted == 0 {
            return 0.0;
        }
        (self.shed_wait() + self.shed_deadline()) as f64 / admitted as f64
    }

    /// Nearest-rank latency percentile in cycles (`p` in 0..=100) over
    /// executed queries; 0 when nothing executed.
    pub fn latency_percentile_cycles(&self, p: f64) -> u64 {
        if self.latencies_cycles.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_cycles.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        sorted[rank.clamp(1, n) - 1]
    }

    /// Median latency in milliseconds of model time.
    pub fn p50_latency_ms(&self) -> f64 {
        self.latency_percentile_cycles(50.0) as f64 * self.cycle_seconds * 1e3
    }

    /// 99th-percentile latency in milliseconds of model time.
    pub fn p99_latency_ms(&self) -> f64 {
        self.latency_percentile_cycles(99.0) as f64 * self.cycle_seconds * 1e3
    }

    /// Served queries per second of model time.
    pub fn throughput_qps(&self) -> f64 {
        let span = self.makespan_cycles as f64 * self.cycle_seconds;
        if span <= 0.0 {
            return 0.0;
        }
        self.served() as f64 / span
    }
}

/// How a resilient sustained-load run ended.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ServiceOutcome {
    /// The workload drained; the full report.
    Completed(ServiceReport),
    /// A planned host crash killed batch `batch_tag`; `checkpoint` is what
    /// a restarted process finds (pass it to
    /// [`ServiceEngine::resume_dynamic`]).
    Crashed {
        /// Tag of the batch that died.
        batch_tag: u64,
        /// Its latest snapshot plus write-ahead journal.
        checkpoint: BatchCheckpoint,
    },
}

/// A query sitting in the admission queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Index into the workload's arrival list.
    idx: u32,
    tenant: u32,
    graph: u32,
    query: Query,
    at: u64,
}

/// What to do with a given batch tag: run it fresh, crash it, or resume it.
enum Mode<'m> {
    Normal,
    Crash { tag: u64, plan: HostCrashPlan },
    Resume { tag: u64, checkpoint: &'m BatchCheckpoint },
}

/// The multi-tenant sustained-load front-end over [`ServeEngine`].
///
/// # Example
///
/// ```
/// use alpha_pim::service::{seeded_workload, ServiceConfig, ServiceEngine, TenantSpec, Priority};
/// use alpha_pim::AlphaPim;
/// use alpha_pim_sim::{PimConfig, SimFidelity};
/// use alpha_pim_sparse::{gen, Graph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = AlphaPim::new(PimConfig {
///     num_dpus: 8,
///     fidelity: SimFidelity::Full,
///     ..Default::default()
/// })?;
/// let graphs = [
///     Graph::from_coo(gen::erdos_renyi(150, 900, 1)?).with_random_weights(9),
///     Graph::from_coo(gen::erdos_renyi(120, 700, 2)?).with_random_weights(9),
/// ];
/// let config = ServiceConfig {
///     tenants: vec![
///         TenantSpec { weight: 3, priority: Priority::High },
///         TenantSpec { weight: 1, priority: Priority::Low },
///     ],
///     ..Default::default()
/// };
/// let workload = seeded_workload(7, 200_000, 24, 2, &[150, 120], [1, 1, 1]);
/// let mut service = ServiceEngine::new(&engine, config);
/// let report = service.run(&graphs, &workload)?;
/// assert_eq!(report.arrivals(), 24);
/// // Every counter ledger balances, admission and outcome included.
/// report.counters.check_ledgers()?;
/// # Ok(())
/// # }
/// ```
pub struct ServiceEngine<'a> {
    serve: ServeEngine<'a>,
    config: ServiceConfig,
    cycle_seconds: f64,
    /// Band count for dynamic-graph partition plans: one band per DPU.
    parts: u32,
}

impl<'a> ServiceEngine<'a> {
    /// Creates the front-end over `engine`. An empty tenant list gets one
    /// default tenant and a zero queue capacity is clamped to 1 — the
    /// service degrades, never panics, on bad knobs.
    pub fn new(engine: &'a AlphaPim, mut config: ServiceConfig) -> Self {
        if config.tenants.is_empty() {
            config.tenants.push(TenantSpec::default());
        }
        config.queue_capacity = config.queue_capacity.max(1);
        let cycle_seconds = engine.system().config().cycle_seconds();
        let parts = engine.system().num_dpus();
        ServiceEngine { serve: ServeEngine::new(engine, config.serve), config, cycle_seconds, parts }
    }

    /// The service configuration (after clamping).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The inner batched executor (cache statistics live here).
    pub fn serve_engine(&self) -> &ServeEngine<'a> {
        &self.serve
    }

    /// Drains `workload` against the hosted `graphs` and reports.
    ///
    /// # Errors
    ///
    /// [`AlphaPimError::Config`] when an arrival references an unknown
    /// tenant or graph or the arrival times go backwards, plus the usual
    /// capacity/kernel errors from the inner executor.
    pub fn run(
        &mut self,
        graphs: &[Graph],
        workload: &[Arrival],
    ) -> Result<ServiceReport, AlphaPimError> {
        self.run_dynamic(graphs, workload, &[])
    }

    /// [`Self::run`] with mutation admission: `mutations` share the model
    /// clock with query arrivals, so edge churn and queries interleave
    /// deterministically — each batch applies the first time the clock
    /// reaches its `at_cycle`, between batch dispatches. Each epoch
    /// advances its graph's fingerprint, evicts that graph's stale
    /// prepared kernels from the partition cache exactly once, and lands
    /// in the `delta.*` counter ledgers.
    ///
    /// Hosted graphs are canonicalized (row-major, duplicate-free) at
    /// entry so fingerprints are path-independent across epochs.
    ///
    /// # Errors
    ///
    /// As [`Self::run`], plus [`AlphaPimError::Config`] for mutation
    /// events that go backwards in time or name an unknown graph, and
    /// [`AlphaPimError::Sparse`] for batches referencing vertices outside
    /// their graph.
    pub fn run_dynamic(
        &mut self,
        graphs: &[Graph],
        workload: &[Arrival],
        mutations: &[MutationEvent],
    ) -> Result<ServiceReport, AlphaPimError> {
        match self.drive(graphs, workload, mutations, Mode::Normal, None)? {
            ServiceOutcome::Completed(report) => Ok(report),
            // Unreachable: Mode::Normal never injects a crash.
            ServiceOutcome::Crashed { .. } => {
                Err(AlphaPimError::Config("service run crashed without a crash plan".into()))
            }
        }
    }

    /// [`Self::run_dynamic`] with the crash-recovery surface: an optional
    /// planned host crash (`(batch_tag, plan)` — the plan fires inside the
    /// batch with that tag) and an optional [`CheckpointStore`] persisting
    /// snapshots and the write-ahead journal. A crash may land in any
    /// batch — including one straddling a mutation-epoch boundary;
    /// [`Self::resume_dynamic`] replays the mutation schedule
    /// deterministically, so the resumed run's graphs (and the checkpoint
    /// world-check fingerprints) match the uninterrupted run's. Pass `&[]`
    /// mutations for a static workload.
    ///
    /// # Errors
    ///
    /// As [`Self::run_dynamic`]; a planned crash is not an error.
    pub fn run_dynamic_resilient(
        &mut self,
        graphs: &[Graph],
        workload: &[Arrival],
        mutations: &[MutationEvent],
        crash: Option<(u64, HostCrashPlan)>,
        store: Option<&CheckpointStore>,
    ) -> Result<ServiceOutcome, AlphaPimError> {
        let mode = match crash {
            Some((tag, plan)) => Mode::Crash { tag, plan },
            None => Mode::Normal,
        };
        self.drive(graphs, workload, mutations, mode, store)
    }

    /// Resumes a crashed run from `checkpoint`, given the same mutation
    /// schedule the crashed run was: the deterministic service loop
    /// replays from the top, pre-crash batches re-execute bit-identically,
    /// and the tagged batch continues from its snapshot instead of
    /// restarting. Driven to completion, every result fingerprint,
    /// latency, and dispatch decision matches the uninterrupted run
    /// (`ckpt.restores` aside).
    ///
    /// # Errors
    ///
    /// As [`Self::run_dynamic`], plus [`AlphaPimError::Recover`] when the
    /// checkpoint fails validation or does not belong to this workload.
    pub fn resume_dynamic(
        &mut self,
        graphs: &[Graph],
        workload: &[Arrival],
        mutations: &[MutationEvent],
        checkpoint: &BatchCheckpoint,
        store: Option<&CheckpointStore>,
    ) -> Result<ServiceOutcome, AlphaPimError> {
        let tag = checkpoint.tag()?;
        self.drive(graphs, workload, mutations, Mode::Resume { tag, checkpoint }, store)
    }

    /// The deterministic service loop shared by every entry point.
    fn drive(
        &mut self,
        graphs: &[Graph],
        workload: &[Arrival],
        mutations: &[MutationEvent],
        mode: Mode<'_>,
        store: Option<&CheckpointStore>,
    ) -> Result<ServiceOutcome, AlphaPimError> {
        let ntenants = self.config.tenants.len();
        let mut prev_at = 0u64;
        for (i, a) in workload.iter().enumerate() {
            if a.tenant as usize >= ntenants {
                return Err(AlphaPimError::Config(format!(
                    "arrival {i} names tenant {} but the service has {ntenants}",
                    a.tenant
                )));
            }
            if a.graph as usize >= graphs.len() {
                return Err(AlphaPimError::Config(format!(
                    "arrival {i} names graph {} but the catalog holds {}",
                    a.graph,
                    graphs.len()
                )));
            }
            if a.at_cycle < prev_at {
                return Err(AlphaPimError::Config(format!(
                    "arrival {i} goes backwards in time ({} < {prev_at})",
                    a.at_cycle
                )));
            }
            prev_at = a.at_cycle;
        }
        let mut prev_mut = 0u64;
        for (i, m) in mutations.iter().enumerate() {
            if m.graph as usize >= graphs.len() {
                return Err(AlphaPimError::Config(format!(
                    "mutation event {i} names graph {} but the catalog holds {}",
                    m.graph,
                    graphs.len()
                )));
            }
            if m.at_cycle < prev_mut {
                return Err(AlphaPimError::Config(format!(
                    "mutation event {i} goes backwards in time ({} < {prev_mut})",
                    m.at_cycle
                )));
            }
            prev_mut = m.at_cycle;
        }
        // Dynamic runs serve the epoch-versioned view; static runs keep the
        // caller's graphs byte-for-byte (no canonicalization).
        let mut dynamics: Option<Vec<DynamicGraph>> = if mutations.is_empty() {
            None
        } else {
            Some(
                graphs
                    .iter()
                    .map(|g| DynamicGraph::new(g, self.parts))
                    .collect::<Result<_, _>>()?,
            )
        };
        let mut mnext = 0usize;

        let mut tenants: Vec<TenantReport> = self
            .config
            .tenants
            .iter()
            .map(|t| TenantReport { weight: t.weight, priority: t.priority, ..Default::default() })
            .collect();
        let mut vtime = vec![0u64; ntenants];
        let mut backlog = vec![0u64; ntenants];
        let mut vnow = 0u64;
        let mut clock = 0u64;
        let mut queue: Vec<Pending> = Vec::new();
        let mut next = 0usize;
        let mut batch_tag = 0u64;
        let mut batches = 0u32;
        let mut latencies: Vec<u64> = Vec::new();
        let mut dispatch_order: Vec<u32> = Vec::new();
        let mut fingerprint = FINGERPRINT_SEED;
        let mut counters = CounterSet::new();
        let budget = self.config.deadline_budget_cycles;
        let capacity = self.config.queue_capacity;
        // Per-DPU health scoreboard: strikes accumulate per *physical* DPU
        // from the corrupted-DPU lists of every completed batch; a DPU
        // reaching the threshold is quarantined and every later batch
        // re-plans without it. Indexed by physical id, so the scoreboard
        // survives the logical renumbering a re-plan introduces.
        let quarantine_after =
            self.config.quarantine_threshold.map(|t| u64::from(t.max(1)));
        // Every run starts with a clean bill of health, so repeat runs on
        // one engine (and resumed replays, which re-derive strikes batch by
        // batch) are bit-identical to fresh ones.
        self.serve.set_quarantine(&[]);
        let mut strikes = vec![0u64; self.parts as usize];
        let mut quarantined: Vec<u32> = Vec::new();
        let mut total_strikes = 0u64;
        let mut quarantine_events = 0u64;
        let mut replans = 0u64;

        while next < workload.len() || !queue.is_empty() {
            // Pull every arrival the clock has passed; jump the clock when
            // the queue ran dry (open-loop: arrivals never wait for us).
            if queue.is_empty() && next < workload.len() {
                clock = clock.max(workload[next].at_cycle);
            }
            while next < workload.len() && workload[next].at_cycle <= clock {
                let a = workload[next];
                let p = Pending {
                    idx: next as u32,
                    tenant: a.tenant,
                    graph: a.graph,
                    query: a.query,
                    at: a.at_cycle,
                };
                next += 1;
                admit(
                    p,
                    capacity,
                    &self.config.tenants,
                    &mut queue,
                    &mut tenants,
                    &mut backlog,
                    &mut vtime,
                    vnow,
                );
            }
            // Admit every mutation batch the clock has passed — before the
            // next dispatch, so queries and edge churn interleave on one
            // deterministic model-time order (and replay identically on
            // resume).
            while mnext < mutations.len() && mutations[mnext].at_cycle <= clock {
                if let Some(d) = dynamics.as_mut() {
                    let m = &mutations[mnext];
                    land_epoch(&mut self.serve, &mut d[m.graph as usize], &m.batch, &mut counters)?;
                }
                mnext += 1;
            }
            if queue.is_empty() {
                continue;
            }

            // Weighted-fair batch formation: the first pick fixes the
            // batch's graph, later picks stay on it so the whole batch
            // shares one prepared matrix. Budget-dead queries shed here,
            // before consuming an execution slot or virtual time.
            let batch_size = self.serve.config().batch_size as usize;
            let mut picks: Vec<Pending> = Vec::new();
            let mut deadlines: Vec<Option<u64>> = Vec::new();
            let mut batch_graph: Option<u32> = None;
            while picks.len() < batch_size {
                let candidate = queue
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| batch_graph.is_none_or(|g| p.graph == g))
                    // Tenant order: min virtual time, tenant id breaking
                    // ties; within a tenant, FIFO by arrival index.
                    .min_by_key(|(_, p)| (vtime[p.tenant as usize], p.tenant, p.idx))
                    .map(|(i, _)| i);
                let Some(qi) = candidate else { break };
                let p = queue.remove(qi);
                let t = p.tenant as usize;
                backlog[t] -= 1;
                let waited = clock - p.at;
                tenants[t].wait_cycles += waited;
                counters.add(CounterId::QueueWaitCycles, waited);
                let remaining = match budget {
                    Some(b) if waited >= b => {
                        // Dead on dispatch: the queue ate the whole budget.
                        tenants[t].shed_wait += 1;
                        continue;
                    }
                    Some(b) => Some(b - waited),
                    None => None,
                };
                // Virtual-time charge — only queries that actually occupy
                // an execution slot count against the tenant's share.
                vnow = vnow.max(vtime[t]);
                vtime[t] = vtime[t]
                    .saturating_add((VT_SCALE / self.config.tenants[t].effective_weight()).max(1));
                batch_graph = batch_graph.or(Some(p.graph));
                deadlines.push(remaining);
                picks.push(p);
            }
            let Some(graph_idx) = batch_graph else { continue };
            let graph = match &dynamics {
                Some(d) => d[graph_idx as usize].graph(),
                None => &graphs[graph_idx as usize],
            };
            let queries: Vec<Query> = picks.iter().map(|p| p.query).collect();

            let tag = batch_tag;
            batch_tag += 1;
            let outcome = match &mode {
                Mode::Resume { tag: rtag, checkpoint } if *rtag == tag => {
                    self.serve.resume_batch(graph, checkpoint, None, store)?
                }
                Mode::Crash { tag: ctag, plan } if *ctag == tag => {
                    self.serve.run_batch_budgeted(graph, &queries, &deadlines, tag, Some(*plan), store)?
                }
                _ => self.serve.run_batch_budgeted(graph, &queries, &deadlines, tag, None, store)?,
            };
            let (results, report) = match outcome {
                BatchOutcome::Completed(results, report) => (results, report),
                BatchOutcome::Crashed { checkpoint, .. } => {
                    return Ok(ServiceOutcome::Crashed { batch_tag: tag, checkpoint })
                }
            };
            batches += 1;
            // Advance the model clock by the batch's amortized makespan
            // (at least one cycle, so the loop always makes progress).
            let batch_cycles =
                ((report.batched_seconds / self.cycle_seconds).round() as u64).max(1);
            clock = clock.saturating_add(batch_cycles);
            counters.merge(&report.counters);
            fingerprint = fingerprint_fold(fingerprint, &results);
            if let Some(threshold) = quarantine_after {
                let mut tripped = false;
                for r in &results {
                    for it in &r.report().iterations {
                        for &d in &it.kernel_report.corrupted_dpus {
                            total_strikes += 1;
                            let Some(s) = strikes.get_mut(d as usize) else { continue };
                            *s += 1;
                            if *s >= threshold && !quarantined.contains(&d) {
                                quarantined.push(d);
                                quarantine_events += 1;
                                tripped = true;
                            }
                        }
                    }
                }
                if tripped {
                    quarantined.sort_unstable();
                    self.serve.set_quarantine(&quarantined);
                    replans += 1;
                }
            }
            for (p, r) in picks.iter().zip(results.iter()) {
                let t = p.tenant as usize;
                // Under survivable fault plans a degraded result means the
                // deadline machinery shed the query (faults that lose DPUs
                // also degrade — those scenarios are outside the balanced-
                // ledger contract, as documented on `shed_deadline`).
                if r.report().degraded {
                    tenants[t].shed_deadline += 1;
                } else {
                    tenants[t].served += 1;
                }
                latencies.push(clock - p.at);
                dispatch_order.push(p.idx);
            }
        }

        // Epochs the drained workload never reached still land: the graphs
        // end at their final version and the ledgers stay complete.
        while mnext < mutations.len() {
            if let Some(d) = dynamics.as_mut() {
                let m = &mutations[mnext];
                land_epoch(&mut self.serve, &mut d[m.graph as usize], &m.batch, &mut counters)?;
            }
            mnext += 1;
        }

        // The health ledger, a zero-remainder partition of the machine:
        // `quarantine.dpus_total = dpus_active + dpus_quarantined`. Only
        // emitted when the scoreboard is on, so default runs keep all-zero
        // quarantine counters.
        if quarantine_after.is_some() {
            counters.add(CounterId::QuarantineStrikes, total_strikes);
            counters.add(CounterId::QuarantineEvents, quarantine_events);
            counters.add(CounterId::QuarantineReplans, replans);
            counters.add(CounterId::QuarantineDpusTotal, u64::from(self.parts));
            counters.add(CounterId::QuarantineDpusQuarantined, quarantined.len() as u64);
            counters.add(
                CounterId::QuarantineDpusActive,
                u64::from(self.parts) - quarantined.len() as u64,
            );
        }
        for t in &tenants {
            counters.add(CounterId::QueueArrivals, t.arrivals);
            counters.add(CounterId::QueueAdmitted, t.admitted);
            counters.add(CounterId::QueueRejected, t.rejected);
            counters.add(CounterId::QueueServed, t.served);
            counters.add(CounterId::QueueShedWait, t.shed_wait);
            counters.add(CounterId::QueueShedDeadline, t.shed_deadline);
            if t.arrivals > 0 {
                counters.add(CounterId::TenantsActive, 1);
            }
        }
        Ok(ServiceOutcome::Completed(ServiceReport {
            tenants,
            batches,
            makespan_cycles: clock,
            latencies_cycles: latencies,
            dispatch_order,
            result_fingerprint: fingerprint,
            counters,
            cycle_seconds: self.cycle_seconds,
        }))
    }
}

/// Admits `p` into the bounded queue, rejecting the lowest-priority,
/// latest-arrived pending query (possibly `p` itself) on overflow.
#[allow(clippy::too_many_arguments)]
fn admit(
    p: Pending,
    capacity: usize,
    specs: &[TenantSpec],
    queue: &mut Vec<Pending>,
    tenants: &mut [TenantReport],
    backlog: &mut [u64],
    vtime: &mut [u64],
    vnow: u64,
) {
    let t = p.tenant as usize;
    tenants[t].arrivals += 1;
    if queue.len() >= capacity {
        // Shed key: lowest priority first, then latest arrival, then
        // highest index — total order, so the victim is unique.
        let key = |q: &Pending| {
            (specs[q.tenant as usize].priority.shed_rank(), q.at, q.idx)
        };
        let worst_in_queue = queue
            .iter()
            .enumerate()
            .max_by_key(|(_, q)| key(q))
            .map(|(i, _)| i);
        match worst_in_queue {
            Some(wi) if key(&queue[wi]) > key(&p) => {
                let victim = queue.remove(wi);
                let vt = victim.tenant as usize;
                backlog[vt] -= 1;
                // The victim's earlier admission becomes a rejection.
                tenants[vt].admitted -= 1;
                tenants[vt].rejected += 1;
            }
            _ => {
                tenants[t].rejected += 1;
                return;
            }
        }
    }
    tenants[t].admitted += 1;
    if backlog[t] == 0 {
        // Idle→backlogged: catch the tenant's virtual time up so history
        // does not grant a burst.
        vtime[t] = vtime[t].max(vnow);
    }
    backlog[t] += 1;
    queue.push(p);
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_pim_sim::{PimConfig, SimFidelity};
    use alpha_pim_sparse::gen;

    fn engine(dpus: u32) -> AlphaPim {
        AlphaPim::new(PimConfig {
            num_dpus: dpus,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    fn catalog() -> Vec<Graph> {
        vec![
            Graph::from_coo(gen::erdos_renyi(140, 900, 11).unwrap()).with_random_weights(9),
            Graph::from_coo(gen::erdos_renyi(110, 700, 12).unwrap()).with_random_weights(9),
        ]
    }

    #[test]
    fn seeded_workloads_are_reproducible_and_in_bounds() {
        let a = seeded_workload(9, 1_000, 200, 3, &[140, 110], [1, 1, 1]);
        assert_eq!(a, seeded_workload(9, 1_000, 200, 3, &[140, 110], [1, 1, 1]));
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        assert!(a.iter().all(|x| x.tenant < 3 && x.graph < 2));
        assert!(seeded_workload(9, 1_000, 10, 1, &[], [1, 1, 1]).is_empty());
    }

    #[test]
    fn ledger_partitions_balance_without_pressure() {
        let engine = engine(6);
        let graphs = catalog();
        let workload = seeded_workload(3, 100_000, 30, 2, &[140, 110], [1, 1, 1]);
        let mut svc = ServiceEngine::new(
            &engine,
            ServiceConfig {
                tenants: vec![TenantSpec::default(), TenantSpec::default()],
                ..Default::default()
            },
        );
        let report = svc.run(&graphs, &workload).unwrap();
        assert_eq!(report.arrivals(), 30);
        assert_eq!(report.rejected(), 0);
        assert_eq!(report.admitted(), report.served());
        assert_eq!(report.shed_rate(), 0.0);
        assert_eq!(report.counters.get(CounterId::TenantsActive), 2);
        assert_eq!(report.latencies_cycles.len(), 30);
        for t in &report.tenants {
            assert_eq!(t.check_ledgers(), Ok(()));
        }
    }

    #[test]
    fn overflow_rejects_lowest_priority_latest_arrival_first() {
        let engine = engine(6);
        let graphs = catalog();
        // One batch-sized burst far beyond a capacity-4 queue: the high-
        // priority tenant's queries must survive the door.
        let workload: Vec<Arrival> = (0..12)
            .map(|i| Arrival {
                at_cycle: 0,
                tenant: i % 2,
                graph: 0,
                query: Query::Bfs { source: i },
            })
            .collect();
        let mut svc = ServiceEngine::new(
            &engine,
            ServiceConfig {
                tenants: vec![
                    TenantSpec { weight: 1, priority: Priority::High },
                    TenantSpec { weight: 1, priority: Priority::Low },
                ],
                queue_capacity: 4,
                ..Default::default()
            },
        );
        let report = svc.run(&graphs, &workload).unwrap();
        assert_eq!(report.arrivals(), 12);
        assert_eq!(report.rejected(), 8);
        assert_eq!(report.admitted(), 4);
        // All six high-priority queries fit in... capacity is 4, so the
        // four admitted are all high-priority (low-priority evicted first).
        assert_eq!(report.tenants[0].rejected, 2);
        assert_eq!(report.tenants[1].rejected, 6);
        assert_eq!(report.tenants[1].admitted, 0);
        for t in &report.tenants {
            assert_eq!(t.check_ledgers(), Ok(()));
        }
    }

    #[test]
    fn dynamic_runs_admit_mutations_on_the_model_clock() {
        let engine = engine(6);
        let graphs = catalog();
        let workload = seeded_workload(5, 50_000, 24, 2, &[140, 110], [1, 1, 1]);
        let mid = workload[workload.len() / 2].at_cycle;
        let mutations = vec![
            MutationEvent {
                at_cycle: mid,
                graph: 0,
                batch: alpha_pim_sparse::delta::seeded_batch(graphs[0].adjacency(), 77, 40, 9),
            },
            // Far past the last arrival: must still land as a trailing epoch.
            MutationEvent {
                at_cycle: u64::MAX / 2,
                graph: 1,
                batch: alpha_pim_sparse::delta::seeded_batch(graphs[1].adjacency(), 78, 40, 9),
            },
        ];
        let svc = || {
            ServiceEngine::new(
                &engine,
                ServiceConfig {
                    tenants: vec![TenantSpec::default(), TenantSpec::default()],
                    ..Default::default()
                },
            )
        };
        let report = svc().run_dynamic(&graphs, &workload, &mutations).unwrap();
        let c = &report.counters;
        assert_eq!(c.get(CounterId::DeltaEpochs), 2);
        assert_eq!(c.check_ledgers(), Ok(()));
        assert!(c.get(CounterId::DeltaEdgesApplied) > 0, "seeded batches must not be all-redundant");
        assert_eq!(report.served(), 24);

        // The whole dynamic schedule is deterministic: a second run from a
        // fresh engine reproduces every counter and latency sample.
        let again = svc().run_dynamic(&graphs, &workload, &mutations).unwrap();
        assert_eq!(again.counters, report.counters);
        assert_eq!(again.latencies_cycles, report.latencies_cycles);

        // Static entry points must reject nothing new: same workload, no
        // mutations, equals the classic run bit-for-bit.
        let stat = svc().run_dynamic(&graphs, &workload, &[]).unwrap();
        let classic = svc().run(&graphs, &workload).unwrap();
        assert_eq!(stat.counters, classic.counters);

        // Malformed schedules are rejected up front.
        let bad_graph = vec![MutationEvent { at_cycle: 0, graph: 9, batch: MutationBatch::new() }];
        assert!(svc().run_dynamic(&graphs, &workload, &bad_graph).is_err());
        let bad_order = vec![
            MutationEvent { at_cycle: 10, graph: 0, batch: MutationBatch::new() },
            MutationEvent { at_cycle: 5, graph: 0, batch: MutationBatch::new() },
        ];
        assert!(svc().run_dynamic(&graphs, &workload, &bad_order).is_err());
    }

    #[test]
    fn exhausted_wait_budgets_shed_before_dispatch() {
        let engine = engine(6);
        let graphs = catalog();
        // Every query arrives at cycle 0; with a 1-cycle budget, whatever
        // is still queued when the first batch finishes is dead on arrival
        // at its own dispatch.
        let workload: Vec<Arrival> = (0..8)
            .map(|i| Arrival {
                at_cycle: 0,
                tenant: 0,
                graph: 0,
                query: Query::Bfs { source: i },
            })
            .collect();
        let mut svc = ServiceEngine::new(
            &engine,
            ServiceConfig {
                deadline_budget_cycles: Some(1),
                serve: ServeConfig { batch_size: 2, ..Default::default() },
                ..Default::default()
            },
        );
        let report = svc.run(&graphs, &workload).unwrap();
        assert_eq!(report.shed_wait(), 6, "only the first batch dispatches in time");
        assert_eq!(report.served() + report.shed_deadline(), 2);
        assert_eq!(report.admitted(), 8);
    }
}
