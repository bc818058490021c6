//! Simulation reports: per-DPU cycle breakdowns, kernel-level aggregates,
//! the observability counter rollup with its JSON/CSV exporters, and the
//! Load/Kernel/Retrieve/Merge phase decomposition the paper's figures are
//! built from.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::analytic::TaskletStats;
use crate::config::{PimConfig, SimFidelity};
use crate::counters::{CounterId, CounterSet};
use crate::faults::{FaultEngine, FaultVerdict};
use crate::instr::{InstrClass, InstrMix};
use crate::pipeline::{
    estimate_cycles, estimate_stats, mix64, simulate_dpu_profiled, TraceEstimate,
};
use crate::trace::{Record, TaskletTrace, TraceEvent};

/// One DPU partition's functional run, recorded tasklet by tasklet.
/// Kernels implement it once, generic over the recorder, and
/// [`KernelAccumulator::evaluate_job`] runs it with the recorder the DPU
/// needs: [`TaskletTrace`] events where the launch replays the DPU,
/// closed-form [`TaskletStats`] everywhere else. Both recorders observe the
/// same calls from the same kernel code, so result values are
/// bit-identical whichever one runs.
pub trait DpuJob {
    /// Runs the partition, recording each tasklet into a clone of `proto`.
    fn record<R: Record + Clone>(self, proto: &R) -> Vec<R>;

    /// The job's shape, for a job whose recording that shape decides
    /// alone; `None` (the default) otherwise. A job that returns a key
    /// promises two things: it produces no functional output, and it
    /// records exactly the calls that every other job of the launch with
    /// the same key records. [`KernelAccumulator::evaluate_job`] then
    /// evaluates each key once per launch and recorder.
    fn reuse_key(&self) -> Option<ReuseKey> {
        None
    }
}

/// An exact [`DpuJob::reuse_key`], never a hash: two jobs of one launch
/// share a key only if they record the same calls.
pub type ReuseKey = (u64, u64, bool);

/// Most trace events one launch keeps for replay reuse (8 bytes each):
/// enough for every replayed set of a `Sampled` launch, while a `Full`
/// launch over a large graph stops storing sets instead of holding all of
/// its traces.
const REUSE_EVENTS: usize = 1 << 22;

/// What a launch keeps for reuse: the distinct trace sets it has
/// replayed, each with its fault-free profile and bucketed by
/// [`trace_set_key`], and the fault-free evaluation of each keyed job
/// shape.
#[derive(Debug, Default)]
struct ReplayStore {
    sets: HashMap<u64, Vec<(Vec<TaskletTrace>, DpuProfile)>>,
    /// Events held across every stored set.
    events: usize,
    /// Per [`DpuJob::reuse_key`] and recorder (`true`: replayed traces),
    /// the first evaluation; `None` for a shape that records nothing.
    keyed: HashMap<(ReuseKey, bool), Option<Clean>>,
}

/// A DPU's evaluation before its fault verdict: the estimate of what its
/// partition recorded and, where the launch details the DPU, its profile.
#[derive(Debug, Clone, PartialEq)]
struct Clean {
    estimate: TraceEstimate,
    detailed: Option<DpuProfile>,
}

/// One partition's recording, in the recorder
/// [`KernelAccumulator::replays`] picked for its DPU.
enum Recording {
    Traces(Vec<TaskletTrace>),
    Stats(Vec<TaskletStats>),
}

/// A hash of a trace set's tasklet boundaries and events. It only picks a
/// [`ReplayStore`] bucket: a stored set is reused only when its traces
/// compare equal.
fn trace_set_key(traces: &[TaskletTrace]) -> u64 {
    let mut h = traces.len() as u64;
    for t in traces {
        h = mix64(h ^ t.events().len() as u64);
        for e in t.events() {
            let word = match *e {
                TraceEvent::Compute { class, count } => (class as u64) << 32 | u64::from(count),
                TraceEvent::Dma { bytes } => 1 << 40 | u64::from(bytes),
                TraceEvent::MutexLock { id } => 2 << 40 | u64::from(id),
                TraceEvent::MutexUnlock { id } => 3 << 40 | u64::from(id),
                TraceEvent::Barrier => 4 << 40,
            };
            h = mix64(h ^ word);
        }
    }
    h
}

/// Full observability result of simulating one DPU (the Fig 9–11
/// metrics): the counter rollup with each tasklet's exact cycle
/// attribution, plus the two per-DPU numbers no counter holds (see
/// [`crate::pipeline::simulate_dpu_profiled`]). The makespan is
/// `dpu.cycles`, the issued instructions `slot.issue`, the idle slots the
/// other `slot.*` counters and the contended-mutex retries
/// `event.spin_retries`.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuProfile {
    /// Counter rollup over the whole DPU (tasklet counters summed, slot
    /// counters and budgets included).
    pub counters: CounterSet,
    /// One exact cycle attribution per tasklet, in tasklet order.
    pub tasklets: Vec<CounterSet>,
    /// Instruction histogram, spin retries included (Fig 11).
    pub instr_mix: InstrMix,
    /// Average number of unblocked tasklets per cycle (Fig 10).
    pub avg_active_threads: f64,
}

/// Per-DPU observability record retained in a [`KernelReport`] when the
/// configured [`crate::config::ObservabilityLevel`] asks for it.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuDetail {
    /// Which DPU this record describes.
    pub dpu_id: u32,
    /// The DPU's counter rollup: its makespan is `dpu.cycles` and its
    /// issued instructions `slot.issue`.
    pub counters: CounterSet,
    /// Per-tasklet cycle attributions (empty below
    /// [`crate::config::ObservabilityLevel::PerTasklet`]).
    pub tasklets: Vec<CounterSet>,
}

/// The slot-level categories of Fig 9, in export order: issue-active,
/// memory-stall, revolver-constraint and register-file-hazard cycles.
const FIG9_SLOTS: [CounterId; 4] =
    [CounterId::SlotIssue, CounterId::SlotMemory, CounterId::SlotRevolver, CounterId::SlotRf];

/// Aggregated cycle breakdown across the DPUs that received detailed
/// simulation. All quantities are sums of per-DPU cycles, so fractions are
/// meaningful machine-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleBreakdown {
    /// The full counter-registry rollup over the detailed sample: slot and
    /// tasklet cycle attribution, event counts, and (once the kernel layer
    /// merges them in) host/transfer traffic.
    pub counters: CounterSet,
}

impl CycleBreakdown {
    /// Total cycles across the four Fig 9 categories (`slot.fault` left
    /// out).
    pub fn total(&self) -> u64 {
        self.counters.sum(&FIG9_SLOTS)
    }

    /// `(active, memory, revolver, rf)` as fractions of the total.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let [active, memory, revolver, rf] = FIG9_SLOTS.map(|id| self.counters.get(id) as f64 / t);
        (active, memory, revolver, rf)
    }

    /// The value of one registry counter in the rollup.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters.get(id)
    }

    /// `counter(id)` as a fraction of the tasklet cycle budget — the
    /// per-tasklet analogue of [`Self::fractions`], meaningful for the
    /// `tasklet.*` cycle categories.
    pub fn tasklet_fraction(&self, id: CounterId) -> f64 {
        let budget = self.counters.get(CounterId::TaskletBudget);
        if budget == 0 {
            0.0
        } else {
            self.counters.get(id) as f64 / budget as f64
        }
    }

    /// The rollup as a JSON object: the four Fig 9 slot categories plus a
    /// `"counters"` object keyed by registry label, in registry order.
    pub fn to_json(&self) -> String {
        let [active, memory, revolver, rf] = FIG9_SLOTS.map(|id| self.counters.get(id));
        format!(
            "{{\"active\":{active},\"memory\":{memory},\"revolver\":{revolver},\"rf\":{rf},\
             \"counters\":{}}}",
            counters_json(&self.counters)
        )
    }

    /// CSV header matching [`Self::csv_row`]: the four Fig 9 slot
    /// categories followed by every registry counter label.
    pub fn csv_header() -> String {
        let labels = CounterId::ALL.iter().map(|id| id.label());
        let cols: Vec<&str> = ["active", "memory", "revolver", "rf"].into_iter().chain(labels).collect();
        cols.join(",")
    }

    /// One CSV row of this rollup's values, aligned with
    /// [`Self::csv_header`].
    pub fn csv_row(&self) -> String {
        let slots = FIG9_SLOTS.iter().map(|&id| self.counters.get(id));
        let values = slots.chain(self.counters.iter().map(|(_, v)| v));
        values.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
    }
}

/// A counter set as a JSON object keyed by registry label.
fn counters_json(c: &CounterSet) -> String {
    let mut out = String::from("{");
    for (i, (id, v)) in c.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", id.label()));
    }
    out.push('}');
    out
}

/// Aggregate result of simulating one kernel launch across every DPU.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// DPUs that participated.
    pub num_dpus: u32,
    /// DPUs that received full discrete-event simulation.
    pub detailed_dpus: u32,
    /// Makespan: the slowest DPU's cycles (kernel time = max over DPUs,
    /// since the host waits for all of them).
    pub max_cycles: u64,
    /// Kernel wall-clock seconds (`max_cycles / frequency`).
    pub seconds: f64,
    /// Mean cycles per DPU.
    pub mean_cycles: f64,
    /// Sum of per-DPU cycle breakdowns over the detailed sample, with the
    /// counter-registry rollup.
    pub breakdown: CycleBreakdown,
    /// Exact instruction mix summed over every DPU.
    pub instr_mix: InstrMix,
    /// Mean of per-DPU average-active-thread counts (detailed sample).
    pub avg_active_threads: f64,
    /// Total instructions issued across every DPU.
    pub total_instructions: u64,
    /// Whether the launch completed gracefully degraded: at least one DPU
    /// was lost without redistribution, so its partition's results are
    /// missing from the output (see [`crate::faults`]).
    pub degraded: bool,
    /// Physical ids of DPUs whose outputs failed an ABFT checksum guard at
    /// merge time (silent corruption detected and corrected by the
    /// integrity layer). Sorted, deduplicated; empty on clean runs and
    /// whenever verification is disabled. The serving health scoreboard
    /// consumes this to build quarantine strikes.
    pub corrupted_dpus: Vec<u32>,
    /// Per-DPU observability records (empty below
    /// [`crate::config::ObservabilityLevel::PerDpu`]).
    pub dpu_details: Vec<DpuDetail>,
}

impl KernelReport {
    /// The whole report as a single JSON object with deterministic key
    /// order (counters keyed by registry label, per-DPU details in merge
    /// order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"num_dpus\":{},\"detailed_dpus\":{},\"max_cycles\":{},\"seconds\":{},\
             \"mean_cycles\":{},\"avg_active_threads\":{},\"total_instructions\":{},\
             \"degraded\":{},",
            self.num_dpus,
            self.detailed_dpus,
            self.max_cycles,
            json_f64(self.seconds),
            json_f64(self.mean_cycles),
            json_f64(self.avg_active_threads),
            self.total_instructions,
            self.degraded,
        ));
        out.push_str("\"corrupted_dpus\":[");
        for (i, d) in self.corrupted_dpus.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_string());
        }
        out.push_str("],");
        out.push_str("\"instr_mix\":{");
        for (i, class) in InstrClass::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", class.label(), self.instr_mix.count(*class)));
        }
        out.push_str("},\"breakdown\":");
        out.push_str(&self.breakdown.to_json());
        out.push_str(",\"dpu_details\":[");
        for (i, d) in self.dpu_details.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"dpu_id\":{},\"total_cycles\":{},\"issued_instructions\":{},\"counters\":{}",
                d.dpu_id,
                d.counters.get(CounterId::DpuCycles),
                d.counters.get(CounterId::SlotIssue),
                counters_json(&d.counters),
            ));
            out.push_str(",\"tasklets\":[");
            for (j, t) in d.tasklets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&counters_json(t));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// The counter rollup as CSV: a header, one `aggregate` row, and one
    /// row per retained [`DpuDetail`].
    pub fn counters_csv(&self) -> String {
        let mut out = format!("dpu,total_cycles,{}\n", counter_label_row());
        out.push_str(&format!(
            "aggregate,{},{}\n",
            self.breakdown.counter(CounterId::DpuCycles),
            counter_value_row(&self.breakdown.counters),
        ));
        for d in &self.dpu_details {
            out.push_str(&format!(
                "{},{},{}\n",
                d.dpu_id,
                d.counters.get(CounterId::DpuCycles),
                counter_value_row(&d.counters),
            ));
        }
        out
    }
}

fn counter_label_row() -> String {
    CounterId::ALL.iter().map(|id| id.label()).collect::<Vec<_>>().join(",")
}

fn counter_value_row(c: &CounterSet) -> String {
    c.iter().map(|(_, v)| v.to_string()).collect::<Vec<_>>().join(",")
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One DPU's evaluated contribution to a [`KernelReport`], produced by
/// [`KernelAccumulator::evaluate_job`] (or its per-recorder halves) and
/// consumed by [`KernelAccumulator::merge`]. Opaque: it exists so that
/// evaluation (the expensive, embarrassingly parallel part) can run on
/// worker threads while the order-sensitive reduction stays sequential.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuEval {
    dpu_id: u32,
    mix: InstrMix,
    est_cycles: u64,
    detailed: Option<DpuProfile>,
    /// Fault events (injected/detected/recovered/…) this DPU's verdict
    /// produced; merged into the rollup for every DPU, detailed or not.
    fault_events: CounterSet,
    /// The DPU was lost without redistribution: its partition is dropped
    /// and the kernel completes degraded.
    lost: bool,
}

impl DpuEval {
    /// Whether this DPU's partition was dropped by an unsurvivable loss.
    /// Kernels skip applying the functional results of dropped partitions.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Whether this DPU actually executed work (issued at least one
    /// instruction). Idle partitions cannot be fault sites, so integrity
    /// guards only admit active, non-lost partitions for corruption and
    /// verification.
    pub fn is_active(&self) -> bool {
        self.mix.total() > 0
    }
}

/// Charges a verdict's recovery cost to a detailed DPU profile, keeping
/// both zero-remainder partitions intact: the penalty extends the makespan
/// and lands in the `SlotFault` slice of the slot partition (itself split
/// across the `FAULT_CYCLES` buckets) and in the `TaskletFault` slice of
/// every tasklet's budget.
fn apply_fault_penalty(engine: &FaultEngine, verdict: FaultVerdict, profile: &mut DpuProfile) {
    let pen = engine.penalty_cycles(verdict, profile.counters.get(CounterId::DpuCycles));
    if pen == 0 {
        return;
    }
    let n = profile.tasklets.len() as u64;
    profile.counters.add(CounterId::DpuCycles, pen);
    profile.counters.add(CounterId::SlotFault, pen);
    profile.counters.add(engine.penalty_bucket(verdict), pen);
    profile.counters.add(CounterId::TaskletFault, n * pen);
    profile.counters.add(CounterId::TaskletBudget, n * pen);
    for t in &mut profile.tasklets {
        t.add(CounterId::TaskletFault, pen);
    }
}

/// Incremental builder for a [`KernelReport`]: feed it one DPU's tasklet
/// recorders at a time; it decides (per the configured fidelity) whether
/// to run the discrete-event pipeline model or the analytic estimate, and
/// self-calibrates the estimates against the detailed sample.
///
/// For parallel replay, use [`Self::add_batch`] (whole trace batches) or the
/// [`Self::evaluate_job`] / [`Self::merge`] pair (custom fan-out): both
/// produce reports bit-identical to a sequential [`Self::add`] loop.
#[derive(Debug)]
pub struct KernelAccumulator {
    cfg: PimConfig,
    faults: Option<FaultEngine>,
    degraded: bool,
    stride: u32,
    added: u32,
    detailed: u32,
    des_max: u64,
    est_max: u64,
    est_sum: u128,
    /// Sum of (des_cycles, est_cycles) pairs on detailed DPUs, for
    /// calibrating the estimate scale.
    calib_des: u128,
    calib_est: u128,
    breakdown: CycleBreakdown,
    mix: InstrMix,
    active_threads_sum: f64,
    details: Vec<DpuDetail>,
    /// This launch's replayed trace sets, for reuse by identical ones.
    replayed: Mutex<ReplayStore>,
}

impl KernelAccumulator {
    /// Creates an accumulator for a launch over `cfg.num_dpus` DPUs.
    pub fn new(cfg: &PimConfig) -> Self {
        let stride = match cfg.fidelity {
            // Analytic: every DPU gets a (synthesized) profile, so the
            // calibration ratio is exactly 1 and no sampling happens.
            SimFidelity::Full | SimFidelity::Analytic => 1,
            SimFidelity::Sampled(k) => (cfg.num_dpus / k.max(1)).max(1),
        };
        let faults = FaultEngine::from_config(cfg);
        KernelAccumulator {
            cfg: cfg.clone(),
            faults,
            degraded: false,
            stride,
            added: 0,
            detailed: 0,
            des_max: 0,
            est_max: 0,
            est_sum: 0,
            calib_des: 0,
            calib_est: 0,
            breakdown: CycleBreakdown::default(),
            mix: InstrMix::new(),
            active_threads_sum: 0.0,
            details: Vec::new(),
            replayed: Mutex::new(ReplayStore::default()),
        }
    }

    /// Whether `dpu_id`'s partition records event traces for
    /// discrete-event replay: every DPU under [`SimFidelity::Full`]; under
    /// [`SimFidelity::Sampled`]`(k)` the DPUs whose ids are multiples of
    /// `num_dpus / k` (k of them when k divides `num_dpus`), with no
    /// regard to load — the heaviest DPU is covered only through the
    /// calibrated estimate maximum; none under [`SimFidelity::Analytic`].
    /// Every other partition records [`TaskletStats`].
    pub fn replays(&self, dpu_id: u32) -> bool {
        self.cfg.fidelity != SimFidelity::Analytic && dpu_id.is_multiple_of(self.stride)
    }

    /// Runs one partition's `job` with the recorder [`Self::replays`]
    /// picks for `dpu_id` and evaluates what it recorded.
    ///
    /// A job with a [`DpuJob::reuse_key`] is recorded and evaluated only
    /// for the first DPU of the launch with that key and recorder. Every
    /// later one copies that fault-free evaluation, then draws and pays
    /// its own fault verdict, as a replay-store hit does; a shape that
    /// records nothing leaves each of its DPUs idle. Debug builds record
    /// every keyed job anyway and check the copy against the recording.
    pub fn evaluate_job(&self, dpu_id: u32, job: impl DpuJob) -> DpuEval {
        let replayed = self.replays(dpu_id);
        let Some(key) = job.reuse_key().map(|k| (k, replayed)) else {
            return match self.record(replayed, job) {
                Recording::Traces(traces) => self.evaluate(dpu_id, &traces),
                Recording::Stats(stats) => self.evaluate_stats(dpu_id, &stats),
            };
        };
        let stored = self.store().keyed.get(&key).cloned();
        let clean = match stored {
            Some(clean) => {
                #[cfg(debug_assertions)]
                {
                    let fresh = self.clean(dpu_id, &self.record(replayed, job));
                    debug_assert_eq!(fresh, clean, "jobs keyed {key:?} recorded different calls");
                }
                clean
            }
            None => {
                let clean = self.clean(dpu_id, &self.record(replayed, job));
                self.store().keyed.entry(key).or_insert_with(|| clean.clone());
                clean
            }
        };
        self.charge(dpu_id, clean.map(|c| move || c))
    }

    /// Records `job` into event traces where the launch replays the DPU
    /// and into closed-form statistics everywhere else.
    fn record(&self, replayed: bool, job: impl DpuJob) -> Recording {
        if replayed {
            Recording::Traces(job.record(&TaskletTrace::new()))
        } else {
            Recording::Stats(job.record(&TaskletStats::new(&self.cfg.pipeline)))
        }
    }

    /// The fault-free evaluation of `recording`; `None` if it recorded
    /// nothing.
    fn clean(&self, dpu_id: u32, recording: &Recording) -> Option<Clean> {
        match recording {
            Recording::Traces(traces) => {
                (!traces.is_empty()).then(|| self.clean_traces(dpu_id, traces))
            }
            Recording::Stats(stats) => (!stats.is_empty()).then(|| self.clean_stats(stats)),
        }
    }

    /// Evaluates one DPU's tasklet traces: instruction accounting, the
    /// analytic cycle estimate, and — when `dpu_id` falls on the fidelity
    /// sampling stride — the full discrete-event simulation with its
    /// observability profile. Traces handed in under
    /// [`SimFidelity::Analytic`] (triangle counting records nothing else)
    /// replay on every DPU, as under [`SimFidelity::Full`].
    ///
    /// This is the thread-safe half of [`Self::add`], and it is
    /// deterministic but not stateless: a replayed trace set is kept for
    /// the rest of the launch, and a later DPU whose traces equal it reuses
    /// its profile instead of replaying again (each DPU still draws and
    /// pays its own fault penalty). The DES is a pure function of the
    /// traces and the pipeline configuration, so which thread stored a set
    /// never shows in the result. The returned [`DpuEval`] must be handed
    /// to [`Self::merge`] in DPU order so floating-point reductions stay
    /// bit-identical to a sequential run.
    pub fn evaluate(&self, dpu_id: u32, traces: &[TaskletTrace]) -> DpuEval {
        self.charge(dpu_id, (!traces.is_empty()).then_some(|| self.clean_traces(dpu_id, traces)))
    }

    /// The counterpart of [`Self::evaluate`] for closed-form
    /// [`TaskletStats`]. Under [`SimFidelity::Sampled`] these are the DPUs
    /// the launch does not replay, and the evaluation is exactly what
    /// [`Self::evaluate`] gives an unreplayed DPU for the same recorded
    /// calls: the estimate of [`estimate_stats`], which equals
    /// [`estimate_cycles`]. Otherwise no replay runs either: the
    /// observability profile is synthesized by
    /// [`crate::analytic::predict_dpu`] for *every* DPU, and the estimate
    /// equals the prediction so the accumulator's self-calibration is the
    /// identity. Fault semantics (verdicts, penalties, drops) are identical
    /// to the replay path.
    pub fn evaluate_stats(&self, dpu_id: u32, stats: &[TaskletStats]) -> DpuEval {
        self.charge(dpu_id, (!stats.is_empty()).then_some(|| self.clean_stats(stats)))
    }

    /// The fault-free evaluation of a non-empty trace set.
    fn clean_traces(&self, dpu_id: u32, traces: &[TaskletTrace]) -> Clean {
        Clean {
            estimate: estimate_cycles(traces, &self.cfg.pipeline),
            detailed: dpu_id.is_multiple_of(self.stride).then(|| self.replay(traces)),
        }
    }

    /// The fault-free evaluation of non-empty tasklet statistics.
    fn clean_stats(&self, stats: &[TaskletStats]) -> Clean {
        if let SimFidelity::Sampled(_) = self.cfg.fidelity {
            return Clean { estimate: estimate_stats(stats, &self.cfg.pipeline), detailed: None };
        }
        let profile = crate::analytic::predict_dpu(stats, &self.cfg.pipeline);
        let estimate = TraceEstimate {
            cycles: profile.counters.get(CounterId::DpuCycles),
            mix: profile.instr_mix,
        };
        Clean { estimate, detailed: Some(profile) }
    }

    /// The fault-free profile of `traces`: a copy of the stored one when
    /// this launch already replayed an equal trace set, otherwise a fresh
    /// discrete-event replay, stored for later repeats while the launch
    /// holds fewer than [`REUSE_EVENTS`] events.
    fn replay(&self, traces: &[TaskletTrace]) -> DpuProfile {
        let key = trace_set_key(traces);
        let stored = |store: &ReplayStore| {
            let bucket = store.sets.get(&key)?;
            bucket.iter().find(|(set, _)| set.as_slice() == traces).map(|(_, p)| p.clone())
        };
        if let Some(profile) = stored(&self.store()) {
            return profile;
        }
        let profile = simulate_dpu_profiled(traces, &self.cfg.pipeline);
        let events: usize = traces.iter().map(|t| t.events().len()).sum();
        let mut store = self.store();
        // A racing worker may have stored the same set meanwhile.
        if store.events + events <= REUSE_EVENTS && stored(&store).is_none() {
            store.events += events;
            store.sets.entry(key).or_default().push((traces.to_vec(), profile.clone()));
        }
        profile
    }

    /// The launch's replay store. A worker that panicked while holding it
    /// left every stored entry whole (each is inserted in one step), so a
    /// poisoned lock is simply taken over.
    fn store(&self) -> MutexGuard<'_, ReplayStore> {
        self.replayed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Draws `dpu_id`'s fault verdict and charges it to the DPU's
    /// fault-free evaluation, which `clean` computes only for a DPU that
    /// runs. `None` stands for a structurally empty partition (e.g. more
    /// DPUs than index ranges): it loads nothing and launches no kernel,
    /// so no cycles accrue, no events are recorded, and no verdict is
    /// drawn — an idle DPU cannot be a fault site. A dropped DPU's
    /// partition is gone: no instructions retire and no cycles accrue;
    /// only the loss survives, in the event ledger. Otherwise the
    /// verdict's penalty is charged to the estimate and, on a detailed
    /// DPU, to its profile.
    fn charge(&self, dpu_id: u32, clean: Option<impl FnOnce() -> Clean>) -> DpuEval {
        let idle = |fault_events, lost| DpuEval {
            dpu_id,
            mix: InstrMix::new(),
            est_cycles: 0,
            detailed: None,
            fault_events,
            lost,
        };
        let Some(clean) = clean else {
            return idle(CounterSet::new(), false);
        };
        let mut fault_events = CounterSet::new();
        let verdict = match &self.faults {
            Some(engine) => {
                let v = engine.verdict(dpu_id);
                engine.record_events(v, &mut fault_events);
                v
            }
            None => FaultVerdict::Healthy,
        };
        if verdict.is_dropped() {
            return idle(fault_events, true);
        }
        let Clean { estimate, mut detailed } = clean();
        let TraceEstimate { cycles: mut est_cycles, mix } = estimate;
        if let Some(engine) = &self.faults {
            est_cycles += engine.penalty_cycles(verdict, est_cycles);
            if let Some(profile) = detailed.as_mut() {
                apply_fault_penalty(engine, verdict, profile);
            }
        }
        DpuEval { dpu_id, mix, est_cycles, detailed, fault_events, lost: false }
    }

    /// Folds one evaluated DPU into the aggregate. Order-dependent: callers
    /// replaying DPUs in parallel must merge in ascending DPU index.
    pub fn merge(&mut self, eval: DpuEval) {
        self.added += 1;
        self.degraded |= eval.lost;
        // Fault events accumulate for every DPU, detailed or not (they are
        // host-visible occurrences, not sampled cycle attribution). With no
        // plan the set is all-zero and this merge changes nothing.
        self.breakdown.counters.merge(&eval.fault_events);
        self.mix.merge(&eval.mix);
        self.est_sum += eval.est_cycles as u128;
        self.est_max = self.est_max.max(eval.est_cycles);
        if let Some(profile) = eval.detailed {
            let cycles = profile.counters.get(CounterId::DpuCycles);
            self.detailed += 1;
            self.des_max = self.des_max.max(cycles);
            self.calib_des += cycles as u128;
            self.calib_est += eval.est_cycles as u128;
            self.breakdown.counters.merge(&profile.counters);
            self.active_threads_sum += profile.avg_active_threads;
            if self.cfg.observability.records_per_dpu() {
                // A detailed DPU's record carries its own fault events so
                // the retained details stay self-consistent per DPU.
                let mut counters = profile.counters;
                counters.merge(&eval.fault_events);
                self.details.push(DpuDetail {
                    dpu_id: eval.dpu_id,
                    counters,
                    tasklets: if self.cfg.observability.records_per_tasklet() {
                        profile.tasklets
                    } else {
                        Vec::new()
                    },
                });
            }
        }
    }

    /// Adds one DPU's tasklet traces.
    pub fn add(&mut self, dpu_id: u32, traces: &[TaskletTrace]) {
        let eval = self.evaluate(dpu_id, traces);
        self.merge(eval);
    }

    /// Adds a batch of consecutive DPUs (`first_dpu`, `first_dpu + 1`, ...),
    /// evaluating them in parallel on the [`crate::par`] pool and merging in
    /// DPU order. The resulting report is bit-identical to calling
    /// [`Self::add`] sequentially for every DPU, at any thread count.
    pub fn add_batch(&mut self, first_dpu: u32, trace_sets: &[Vec<TaskletTrace>]) {
        let this: &Self = self;
        let evals = crate::par::par_map_indexed(trace_sets, |i, traces| {
            this.evaluate(first_dpu + i as u32, traces)
        });
        for eval in evals {
            self.merge(eval);
        }
    }

    /// Finishes the launch, producing the aggregate report.
    pub fn finish(self) -> KernelReport {
        let calibration = if self.calib_est == 0 {
            1.0
        } else {
            self.calib_des as f64 / self.calib_est as f64
        };
        // The estimate-scaled term covers DPUs that were never replayed;
        // when every DPU is detailed (Full and Analytic fidelity) the DES
        // maximum is exact and the heuristic must not override it.
        let max_cycles = if self.detailed == self.added {
            self.des_max
        } else {
            self.des_max.max((self.est_max as f64 * calibration) as u64)
        };
        let mean_cycles = if self.added == 0 {
            0.0
        } else {
            self.est_sum as f64 * calibration / self.added as f64
        };
        // Contended-mutex retries are observed only on detailed DPUs; scale
        // them to the full machine so Fig 11's sync share stays unbiased.
        let mut mix = self.mix;
        let spin_retries = self.breakdown.counter(CounterId::SpinRetries);
        if self.detailed > 0 && spin_retries > 0 {
            let scaled = (spin_retries as f64 * self.added as f64 / self.detailed as f64) as u64;
            mix.add(crate::instr::InstrClass::Sync, scaled);
        }
        KernelReport {
            num_dpus: self.added,
            detailed_dpus: self.detailed,
            max_cycles,
            seconds: max_cycles as f64 * self.cfg.cycle_seconds(),
            mean_cycles,
            breakdown: self.breakdown,
            instr_mix: mix,
            avg_active_threads: if self.detailed == 0 {
                0.0
            } else {
                self.active_threads_sum / self.detailed as f64
            },
            total_instructions: self.mix.total(),
            degraded: self.degraded,
            // Filled in by the merge-time integrity guard
            // (`alpha_pim::kernel::integrity`), which is the only layer
            // that can see corrupted output values.
            corrupted_dpus: Vec::new(),
            dpu_details: self.details,
        }
    }
}

/// Aggregate record of one batch executed by the multi-query serving
/// engine: what the batch cost, what running each query alone would have
/// cost, and where the amortization came from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Queries executed in this batch.
    pub queries: u32,
    /// Supersteps the batch ran (the longest query's iteration count).
    pub supersteps: u32,
    /// Sum of the queries' standalone simulated seconds — what a
    /// sequential, one-query-at-a-time run of the same trace costs.
    pub seq_seconds: f64,
    /// Simulated makespan of the batched execution: the sequential cost
    /// minus the per-superstep startup and broadcast amortization, plus the
    /// host-side frontier packing charged to the first superstep.
    pub batched_seconds: f64,
    /// Bus bytes the shared per-superstep broadcast saved.
    pub broadcast_bytes_saved: u64,
    /// Host→DPU transfer batches elided by frontier packing.
    pub transfer_batches_saved: u64,
    /// Partition-cache hits across the batch's queries.
    pub cache_hits: u64,
    /// Partition-cache misses across the batch's queries.
    pub cache_misses: u64,
    /// Serving-layer counter rollup (`serve.*` plus the host packing work).
    pub counters: CounterSet,
    /// Whether any query in the batch completed degraded (a DPU lost
    /// without redistribution under the active fault plan).
    pub degraded: bool,
}

impl BatchReport {
    /// Seconds saved by batching, `seq_seconds - batched_seconds`.
    pub fn seconds_saved(&self) -> f64 {
        self.seq_seconds - self.batched_seconds
    }

    /// The report as a JSON object with deterministic key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"queries\":{},\"supersteps\":{},\"seq_seconds\":{},\"batched_seconds\":{},\
             \"broadcast_bytes_saved\":{},\"transfer_batches_saved\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"degraded\":{},\"counters\":",
            self.queries,
            self.supersteps,
            json_f64(self.seq_seconds),
            json_f64(self.batched_seconds),
            self.broadcast_bytes_saved,
            self.transfer_batches_saved,
            self.cache_hits,
            self.cache_misses,
            self.degraded,
        ));
        out.push_str(&counters_json(&self.counters));
        out.push('}');
        out
    }
}

/// Wall-clock seconds of one matrix–vector iteration, split into the four
/// phases of §4.1: load the input vector, run the kernel, retrieve
/// results, and merge on the host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// CPU→DPU input-vector transfer seconds.
    pub load: f64,
    /// DPU kernel seconds (max over DPUs).
    pub kernel: f64,
    /// DPU→CPU output transfer seconds.
    pub retrieve: f64,
    /// Host-side merge (and convergence-check) seconds.
    pub merge: f64,
}

impl PhaseBreakdown {
    /// Sum of all four phases.
    pub fn total(&self) -> f64 {
        self.load + self.kernel + self.retrieve + self.merge
    }

    /// Element-wise accumulation (e.g. summing iterations of an app).
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        self.load += other.load;
        self.kernel += other.kernel;
        self.retrieve += other.retrieve;
        self.merge += other.merge;
    }

    /// Element-wise division by `other`'s total, for normalized plots.
    pub fn normalized_to(&self, reference_total: f64) -> PhaseBreakdown {
        if reference_total == 0.0 {
            return *self;
        }
        PhaseBreakdown {
            load: self.load / reference_total,
            kernel: self.kernel / reference_total,
            retrieve: self.retrieve / reference_total,
            merge: self.merge / reference_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObservabilityLevel;
    use crate::instr::InstrClass;

    fn traces(work: u32) -> Vec<TaskletTrace> {
        (0..4)
            .map(|i| {
                let mut t = TaskletTrace::new();
                t.dma(256);
                t.compute(InstrClass::Arith, work + i * 3);
                t
            })
            .collect()
    }

    /// A partition of `tasklets` tasklets whose recording `work` alone
    /// decides; `keyed` offers that shape as its reuse key.
    struct ShapeJob {
        tasklets: u32,
        work: u32,
        keyed: bool,
    }

    impl DpuJob for ShapeJob {
        fn record<R: Record + Clone>(self, proto: &R) -> Vec<R> {
            (0..self.tasklets)
                .map(|i| {
                    let mut t = proto.clone();
                    t.compute(InstrClass::Arith, self.work + 5 * i);
                    t.dma(64 * (i + 1));
                    t.mutex_lock(0);
                    t.compute(InstrClass::LoadStore, 2);
                    t.mutex_unlock(0);
                    t.barrier();
                    t
                })
                .collect()
        }

        fn reuse_key(&self) -> Option<ReuseKey> {
            self.keyed.then_some((u64::from(self.tasklets), u64::from(self.work), false))
        }
    }

    #[test]
    fn keyed_jobs_evaluate_like_unkeyed_ones_under_faults() {
        // Three shapes, one recording nothing, spread over the DPUs so
        // every shape meets several verdicts.
        let shapes = [(4, 30), (0, 0), (2, 90)];
        let plan = crate::config::FaultPlan {
            seed: 0x5EED,
            dpu_loss_rate: 0.15,
            straggler_rate: 0.2,
            bitflip_rate: 0.2,
            policy: crate::config::ResiliencePolicy { redistribute: false, ..Default::default() },
            ..Default::default()
        };
        for fidelity in [SimFidelity::Full, SimFidelity::Sampled(4), SimFidelity::Analytic] {
            let cfg = PimConfig {
                num_dpus: 48,
                fidelity,
                observability: ObservabilityLevel::PerTasklet,
                faults: Some(plan.clone()),
                ..Default::default()
            };
            let engine = FaultEngine::from_config(&cfg).expect("the plan fires");
            let run = |keyed: bool| {
                let mut acc = KernelAccumulator::new(&cfg);
                let evals: Vec<DpuEval> = (0..cfg.num_dpus)
                    .map(|d| {
                        let (tasklets, work) = shapes[d as usize % shapes.len()];
                        acc.evaluate_job(d, ShapeJob { tasklets, work, keyed })
                    })
                    .collect();
                let stored = acc.store().keyed.len();
                for eval in evals.iter().cloned() {
                    acc.merge(eval);
                }
                (evals, stored, acc.finish())
            };
            let (plain, none_stored, plain_report) = run(false);
            let (keyed, stored, keyed_report) = run(true);
            assert_eq!(none_stored, 0, "{fidelity:?}");
            // One evaluation per shape and recorder: Sampled(4) also
            // replays DPUs 0, 12, 24 and 36, all of the first shape.
            let replayed_shapes = usize::from(fidelity == SimFidelity::Sampled(4));
            assert_eq!(stored, shapes.len() + replayed_shapes, "{fidelity:?}");
            assert_eq!(keyed, plain, "{fidelity:?}");
            assert_eq!(keyed_report, plain_report, "{fidelity:?}");
            let mut seen = (false, false, false, false);
            for (d, eval) in keyed.iter().enumerate() {
                let verdict = engine.verdict(d as u32);
                if shapes[d % shapes.len()].0 == 0 {
                    // Records nothing: idle, no verdict drawn.
                    assert!(!eval.is_active() && !eval.is_lost(), "{fidelity:?} dpu {d}");
                    assert!(eval.fault_events.is_empty(), "{fidelity:?} dpu {d}");
                    seen.3 |= verdict != FaultVerdict::Healthy;
                    continue;
                }
                let mut events = CounterSet::new();
                engine.record_events(verdict, &mut events);
                assert_eq!(eval.fault_events, events, "{fidelity:?} dpu {d}");
                assert_eq!(eval.is_lost(), verdict.is_dropped(), "{fidelity:?} dpu {d}");
                assert_eq!(eval.is_active(), !verdict.is_dropped(), "{fidelity:?} dpu {d}");
                seen.0 |= verdict == FaultVerdict::Straggler;
                seen.1 |= matches!(verdict, FaultVerdict::EccRetry { .. });
                seen.2 |= verdict.is_dropped();
            }
            assert_eq!(
                seen,
                (true, true, true, true),
                "{fidelity:?}: the plan must hit every case"
            );
        }
    }

    #[test]
    fn full_fidelity_details_every_dpu() {
        let cfg = PimConfig { num_dpus: 8, fidelity: SimFidelity::Full, ..Default::default() };
        let mut acc = KernelAccumulator::new(&cfg);
        for d in 0..8 {
            acc.add(d, &traces(50));
        }
        let r = acc.finish();
        assert_eq!(r.num_dpus, 8);
        assert_eq!(r.detailed_dpus, 8);
        assert!(r.max_cycles > 0);
        assert!(r.seconds > 0.0);
        // Default observability keeps no per-DPU records but still rolls
        // the counters up.
        assert!(r.dpu_details.is_empty());
        assert!(!r.breakdown.counters.is_empty());
    }

    #[test]
    fn sampled_fidelity_details_a_subset_but_keeps_exact_mix() {
        let full_cfg = PimConfig { num_dpus: 32, fidelity: SimFidelity::Full, ..Default::default() };
        let sampled_cfg =
            PimConfig { num_dpus: 32, fidelity: SimFidelity::Sampled(4), ..Default::default() };
        let mut full = KernelAccumulator::new(&full_cfg);
        let mut sampled = KernelAccumulator::new(&sampled_cfg);
        for d in 0..32 {
            let t = traces(40 + d);
            full.add(d, &t);
            sampled.add(d, &t);
        }
        let rf = full.finish();
        let rs = sampled.finish();
        assert!(rs.detailed_dpus < rf.detailed_dpus);
        assert_eq!(rs.instr_mix, rf.instr_mix);
        assert_eq!(rs.total_instructions, rf.total_instructions);
        // Calibrated makespan should track the full simulation closely.
        let ratio = rs.max_cycles as f64 / rf.max_cycles as f64;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut b = CycleBreakdown::default();
        for (id, v) in FIG9_SLOTS.into_iter().zip([50, 30, 15, 5]) {
            b.counters.set(id, v);
        }
        // Fault cycles stay outside the Fig 9 total.
        b.counters.set(CounterId::SlotFault, 40);
        assert_eq!(b.total(), 100);
        let (a, m, r, f) = b.fractions();
        assert!((a + m + r + f - 1.0).abs() < 1e-12);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phase_breakdown_accumulates_and_normalizes() {
        let mut p = PhaseBreakdown { load: 1.0, kernel: 2.0, retrieve: 0.5, merge: 0.5 };
        p.accumulate(&PhaseBreakdown { load: 1.0, kernel: 0.0, retrieve: 0.0, merge: 0.0 });
        assert!((p.total() - 5.0).abs() < 1e-12);
        let n = p.normalized_to(10.0);
        assert!((n.total() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_finishes_cleanly() {
        let cfg = PimConfig::default();
        let r = KernelAccumulator::new(&cfg).finish();
        assert_eq!(r.num_dpus, 0);
        assert_eq!(r.max_cycles, 0);
        assert_eq!(r.avg_active_threads, 0.0);
        assert!(r.breakdown.counters.is_empty());
    }

    #[test]
    fn utilization_is_bounded() {
        let cfg = PimConfig { num_dpus: 1, fidelity: SimFidelity::Full, ..Default::default() };
        let mut acc = KernelAccumulator::new(&cfg);
        acc.add(0, &traces(100));
        let r = acc.finish();
        let util = r.breakdown.fractions().0;
        assert!(util > 0.0 && util <= 1.0);
    }

    #[test]
    fn observability_levels_gate_detail_retention() {
        let run = |level: ObservabilityLevel| {
            let cfg = PimConfig {
                num_dpus: 4,
                fidelity: SimFidelity::Full,
                observability: level,
                ..Default::default()
            };
            let mut acc = KernelAccumulator::new(&cfg);
            for d in 0..4 {
                acc.add(d, &traces(30));
            }
            acc.finish()
        };
        let agg = run(ObservabilityLevel::Aggregate);
        let per_dpu = run(ObservabilityLevel::PerDpu);
        let per_tasklet = run(ObservabilityLevel::PerTasklet);
        assert!(agg.dpu_details.is_empty());
        assert_eq!(per_dpu.dpu_details.len(), 4);
        assert!(per_dpu.dpu_details.iter().all(|d| d.tasklets.is_empty()));
        assert_eq!(per_tasklet.dpu_details.len(), 4);
        assert!(per_tasklet.dpu_details.iter().all(|d| d.tasklets.len() == 4));
        // The counter rollup itself is level-independent.
        assert_eq!(agg.breakdown, per_tasklet.breakdown);
        // Details arrive in DPU order.
        let ids: Vec<u32> = per_dpu.dpu_details.iter().map(|d| d.dpu_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rollup_counters_obey_the_slot_and_tasklet_invariants() {
        let cfg = PimConfig { num_dpus: 6, fidelity: SimFidelity::Full, ..Default::default() };
        let mut acc = KernelAccumulator::new(&cfg);
        for d in 0..6 {
            acc.add(d, &traces(25 + d));
        }
        let r = acc.finish();
        let c = &r.breakdown.counters;
        assert_eq!(c.sum(&CounterId::SLOT_CYCLES), c.get(CounterId::DpuCycles));
        assert_eq!(c.sum(&CounterId::TASKLET_CYCLES), c.get(CounterId::TaskletBudget));
    }

    #[test]
    fn json_export_is_well_formed_and_complete() {
        let cfg = PimConfig {
            num_dpus: 2,
            fidelity: SimFidelity::Full,
            observability: ObservabilityLevel::PerTasklet,
            ..Default::default()
        };
        let mut acc = KernelAccumulator::new(&cfg);
        for d in 0..2 {
            acc.add(d, &traces(20));
        }
        let r = acc.finish();
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in
            ["\"num_dpus\":2", "\"breakdown\":", "\"dpu_details\":[", "\"slot.issue\":", "\"tasklet.tail\":"]
        {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            json.matches("\"dpu_id\":").count(),
            2,
            "one detail object per DPU"
        );
        // Balanced braces/brackets (cheap well-formedness check; no string
        // values contain either character).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_export_aligns_header_and_rows() {
        let cfg = PimConfig {
            num_dpus: 3,
            fidelity: SimFidelity::Full,
            observability: ObservabilityLevel::PerDpu,
            ..Default::default()
        };
        let mut acc = KernelAccumulator::new(&cfg);
        for d in 0..3 {
            acc.add(d, &traces(15));
        }
        let r = acc.finish();
        let csv = r.counters_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 1 + 3, "header + aggregate + per-DPU rows");
        let width = lines[0].split(',').count();
        for line in &lines {
            assert_eq!(line.split(',').count(), width, "ragged row: {line}");
        }
        assert!(lines[1].starts_with("aggregate,"));
        // Breakdown-level CSV helpers align too.
        assert_eq!(
            CycleBreakdown::csv_header().split(',').count(),
            r.breakdown.csv_row().split(',').count(),
        );
    }
}
