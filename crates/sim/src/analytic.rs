//! The analytic fast-path performance model: closed-form makespan and
//! counter prediction with no event emission or replay.
//!
//! Under [`crate::config::SimFidelity::Analytic`], kernels record
//! [`TaskletStats`] — O(1)-space scalar accumulators — instead of
//! [`crate::trace::TaskletTrace`] event vectors, and [`predict_dpu`]
//! produces a [`DpuProfile`] directly from those statistics plus the
//! [`PipelineConfig`]. The functional kernel math still runs, so result
//! values, DMA/mutex/barrier event counts, and traffic bytes are *exact*;
//! only the cycle attribution is modeled.
//!
//! # The model
//!
//! Work is segmented at barriers (every tasklet's segment `k` must finish
//! before any tasklet starts segment `k+1`), and each segment's makespan is
//! the maximum of four lower bounds, mirroring the regimes the
//! discrete-event pipeline exhibits (see `DESIGN.md` §13):
//!
//! 1. **Issue (water-fill)** — with `A` tasklets still running, the issue
//!    slot retires at most one instruction per cycle and one per
//!    `max(P, A)` cycles per tasklet (`P` = revolver period). Sorting
//!    per-tasklet instruction counts and integrating level by level gives
//!    the classic water-fill bound, minus the final instruction's unneeded
//!    `P − 1` spacing.
//! 2. **Serial span** — each tasklet alone needs `P` cycles per non-DMA
//!    instruction, its full blocking-DMA cycles, and its expected
//!    register-file hazard penalties.
//! 3. **DMA engine** — the per-DPU DMA engine is serialized: all transfers
//!    of all tasklets queue through it, after a ramp-up of the fastest
//!    tasklet's pre-DMA instructions.
//! 4. **Mutex serialization** — critical sections on one mutex are
//!    mutually exclusive, so their issue-spaced lengths sum.
//!
//! The DPU makespan is the sum of segment bounds plus the pipeline drain.
//! Slot- and tasklet-level counters are synthesized to satisfy the same
//! zero-remainder invariants the replayer guarantees
//! (`Σ SLOT_CYCLES == dpu.cycles`, per-tasklet `Σ TASKLET_CYCLES ==
//! dpu.cycles`), with exact event counters and `SpinRetries == 0` (spin
//! retries are a contention artifact only the replayer observes).

use crate::config::PipelineConfig;
use crate::counters::{CounterId, CounterSet};
use crate::instr::{InstrClass, InstrMix};
use crate::report::DpuProfile;
use crate::trace::Record;

/// Mutexes tracked per DPU (UPMEM kernels use a fixed pool of 16).
pub const TRACKED_MUTEXES: usize = 16;

/// Closed-form statistics of one barrier-delimited segment of a tasklet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentStats {
    /// Instructions issued (compute + one per DMA, mutex op, barrier).
    pub instructions: u64,
    /// Instructions of register-reading classes (hazard candidates).
    pub reg_read_instrs: u64,
    /// Instructions issued before the segment's first DMA.
    pub pre_dma_instrs: u64,
    /// Instruction count observed right after the segment's last DMA
    /// (so `instructions - instrs_at_last_dma` is the post-DMA tail).
    pub instrs_at_last_dma: u64,
    /// Blocking DMA transfers launched.
    pub dma_transfers: u64,
    /// Bytes moved by DMA.
    pub dma_bytes: u64,
    /// Total engine cycles of the segment's transfers (startup + stream).
    pub dma_cycles: u64,
    /// Mutex acquisitions per mutex id.
    pub mutex_acquires: [u64; TRACKED_MUTEXES],
    /// Instructions issued while holding each mutex.
    pub mutex_held_instrs: [u64; TRACKED_MUTEXES],
    /// Whether the segment was closed by a barrier arrival.
    pub ends_with_barrier: bool,
}

impl SegmentStats {
    fn is_empty(&self) -> bool {
        self.instructions == 0
    }
}

/// The analytic recorder: accumulates [`SegmentStats`] from the same
/// [`Record`] calls a [`crate::trace::TaskletTrace`] would log as events.
/// It keeps the pipeline configuration so every transfer is costed by
/// [`PipelineConfig::dma_cycles`], as the replayer costs it.
#[derive(Debug, Clone)]
pub struct TaskletStats {
    cfg: PipelineConfig,
    mix: InstrMix,
    closed: Vec<SegmentStats>,
    current: SegmentStats,
    held_mask: u32,
}

impl TaskletStats {
    /// An empty recorder costing DMAs as `cfg` does.
    pub fn new(cfg: &PipelineConfig) -> Self {
        TaskletStats {
            cfg: cfg.clone(),
            mix: InstrMix::new(),
            closed: Vec::new(),
            current: SegmentStats::default(),
            held_mask: 0,
        }
    }

    /// Bumps shared per-instruction state for `count` instructions.
    fn issue(&mut self, count: u64) {
        self.current.instructions += count;
        if self.current.dma_transfers == 0 {
            self.current.pre_dma_instrs += count;
        }
        if self.held_mask != 0 {
            let mut mask = self.held_mask;
            while mask != 0 {
                let id = mask.trailing_zeros() as usize;
                self.current.mutex_held_instrs[id] += count;
                mask &= mask - 1;
            }
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty() && self.current.is_empty()
    }

    /// Total instructions recorded.
    pub fn instructions(&self) -> u64 {
        self.closed.iter().map(|s| s.instructions).sum::<u64>() + self.current.instructions
    }

    /// Total bytes moved by DMA.
    pub fn dma_bytes(&self) -> u64 {
        self.closed.iter().map(|s| s.dma_bytes).sum::<u64>() + self.current.dma_bytes
    }

    /// Total engine cycles of every DMA transfer, each costed as
    /// [`PipelineConfig::dma_cycles`] would.
    pub fn dma_cycles(&self) -> u64 {
        self.closed.iter().map(|s| s.dma_cycles).sum::<u64>() + self.current.dma_cycles
    }

    /// Exact instruction-mix histogram (identical to the trace recorder's).
    pub fn instr_mix(&self) -> InstrMix {
        self.mix
    }

    /// The segments recorded so far: every barrier-closed segment plus the
    /// trailing open one if it holds any instructions.
    pub fn segments(&self) -> impl Iterator<Item = &SegmentStats> + '_ {
        self.closed.iter().chain((!self.current.is_empty()).then_some(&self.current))
    }
}

impl Record for TaskletStats {
    fn compute(&mut self, class: InstrClass, count: u32) {
        if count == 0 {
            return;
        }
        self.mix.add(class, count as u64);
        if class.reads_registers() {
            self.current.reg_read_instrs += count as u64;
        }
        self.issue(count as u64);
    }

    fn compute_repeated(&mut self, blocks: &[(InstrClass, u32)], times: u64) {
        // Closed form of the call loop: a DMA-free run moves neither the
        // pre-DMA nor the last-DMA position and holds the same mutexes
        // throughout, so every per-instruction quantity scales by `times`.
        let mut issued = 0;
        for &(class, count) in blocks {
            let n = count as u64 * times;
            self.mix.add(class, n);
            if class.reads_registers() {
                self.current.reg_read_instrs += n;
            }
            issued += n;
        }
        self.issue(issued);
    }

    fn dma(&mut self, bytes: u32) {
        if bytes == 0 {
            return;
        }
        self.mix.add(InstrClass::Dma, 1);
        self.issue(1);
        self.current.dma_transfers += 1;
        self.current.dma_bytes += bytes as u64;
        self.current.dma_cycles += self.cfg.dma_cycles(bytes);
        self.current.instrs_at_last_dma = self.current.instructions;
    }

    fn dma_stream(&mut self, total_bytes: u64, chunk_bytes: u32, per_chunk_overhead: u32) {
        assert!(chunk_bytes > 0, "chunk_bytes must be positive");
        if total_bytes == 0 {
            return;
        }
        // Closed form of the chunk loop: `full` whole chunks plus an
        // optional remainder, each transfer costed individually (per-chunk
        // ceil sums differ from the ceil of the sum).
        let full = total_bytes / chunk_bytes as u64;
        let rem = (total_bytes % chunk_bytes as u64) as u32;
        let chunks = full + u64::from(rem > 0);
        self.mix.add(InstrClass::Dma, chunks);
        self.mix.add(InstrClass::Control, chunks * per_chunk_overhead as u64);
        self.issue(chunks * (1 + per_chunk_overhead as u64));
        self.current.dma_transfers += chunks;
        self.current.dma_bytes += total_bytes;
        self.current.dma_cycles += full * self.cfg.dma_cycles(chunk_bytes)
            + if rem > 0 { self.cfg.dma_cycles(rem) } else { 0 };
        self.current.instrs_at_last_dma = self.current.instructions;
    }

    fn mutex_lock(&mut self, id: u16) {
        self.mix.add(InstrClass::Sync, 1);
        self.issue(1);
        let id = (id as usize).min(TRACKED_MUTEXES - 1);
        self.current.mutex_acquires[id] += 1;
        self.held_mask |= 1 << id;
    }

    fn mutex_unlock(&mut self, id: u16) {
        self.mix.add(InstrClass::Sync, 1);
        let id = (id as usize).min(TRACKED_MUTEXES - 1);
        self.held_mask &= !(1 << id);
        self.issue(1);
    }

    fn barrier(&mut self) {
        self.mix.add(InstrClass::Sync, 1);
        self.issue(1);
        self.current.ends_with_barrier = true;
        let seg = std::mem::take(&mut self.current);
        self.closed.push(seg);
    }
}

/// One tasklet in the fluid staggered-release model: `pre` issue slots of
/// work available immediately, then a gate (its last engine-serialized DMA
/// completion), then `post` issue slots of tail work.
#[derive(Debug, Clone, Copy)]
struct FluidThread {
    pre: f64,
    post: f64,
    gate: f64,
}

/// Drains the threads' work through the single issue slot as a fluid:
/// every running thread issues at most one instruction per revolver period
/// `p`, the slot at most one per cycle (shared equally beyond `p` runnable
/// threads), and a thread's `post` work only starts once its `pre` work is
/// done *and* its gate time has passed. Returns the drain completion time
/// and leaves every thread drained.
fn fluid_drain(threads: &mut [FluidThread], p: f64) -> f64 {
    const EPS: f64 = 1e-9;
    let mut t = 0.0f64;
    loop {
        let mut active = 0usize;
        let mut next_gate = f64::INFINITY;
        for th in threads.iter() {
            if th.pre > EPS {
                active += 1;
            } else if th.post > EPS {
                if th.gate <= t + EPS {
                    active += 1;
                } else {
                    next_gate = next_gate.min(th.gate);
                }
            }
        }
        if active == 0 {
            if next_gate.is_finite() {
                t = next_gate;
                continue;
            }
            return t;
        }
        let rate = 1.0 / p.max(active as f64);
        let mut min_work = f64::INFINITY;
        for th in threads.iter() {
            if th.pre > EPS {
                min_work = min_work.min(th.pre);
            } else if th.post > EPS && th.gate <= t + EPS {
                min_work = min_work.min(th.post);
            }
        }
        let dt = (min_work / rate).min(next_gate - t).max(EPS);
        for th in threads.iter_mut() {
            if th.pre > EPS {
                th.pre = (th.pre - rate * dt).max(0.0);
            } else if th.post > EPS && th.gate <= t + EPS {
                th.post = (th.post - rate * dt).max(0.0);
            }
        }
        t += dt;
    }
}

/// Per-tasklet totals accumulated across segments while predicting, used
/// for the counter synthesis.
#[derive(Debug, Clone, Copy, Default)]
struct TaskletTotals {
    instructions: u64,
    dma_transfers: u64,
    dma_bytes: u64,
    dma_cycles: u64,
    rf_cycles: u64,
    mutex_acquires: u64,
    barriers: u64,
}

/// Predicts one DPU's makespan and full observability profile from its
/// tasklets' closed-form statistics — the analytic replacement for
/// [`crate::pipeline::simulate_dpu_profiled`].
pub fn predict_dpu(stats: &[TaskletStats], cfg: &PipelineConfig) -> DpuProfile {
    let n_tasklets = stats.len();
    let p = cfg.revolver_period.max(1) as u64;
    let penalty = cfg.rf_hazard_penalty as u64;
    let mut totals = vec![TaskletTotals::default(); n_tasklets];
    let mut body_cycles = 0u64;
    let empty = SegmentStats::default();
    // Every tasklet's segments are read in place, one barrier level at a
    // time, into per-level buffers reused across levels.
    let mut cursors: Vec<_> = stats.iter().map(TaskletStats::segments).collect();
    let mut segs: Vec<&SegmentStats> = Vec::with_capacity(n_tasklets);
    let mut ns: Vec<u64> = Vec::with_capacity(n_tasklets);
    let mut order: Vec<usize> = Vec::with_capacity(n_tasklets);
    let mut threads: Vec<FluidThread> = Vec::with_capacity(n_tasklets);
    loop {
        segs.clear();
        let mut more = false;
        for cursor in &mut cursors {
            let seg = cursor.next();
            more |= seg.is_some();
            segs.push(seg.unwrap_or(&empty));
        }
        if !more {
            break;
        }
        let live = segs.iter().filter(|s| !s.is_empty()).count() as u64;
        if live == 0 {
            continue;
        }
        let spacing = p.max(live);

        // Bound 1: water-fill over the issue slot.
        ns.clear();
        ns.extend(segs.iter().map(|s| s.instructions));
        ns.sort_unstable();
        let total_instrs: u64 = ns.iter().sum();
        let mut water_fill = 0u64;
        let mut prev = 0u64;
        for (k, &n) in ns.iter().enumerate() {
            let active = (ns.len() - k) as u64;
            water_fill += (n - prev) * p.max(active);
            prev = n;
        }
        let issue_bound = total_instrs.max(water_fill.saturating_sub(p - 1));

        // Bound 2: the longest single tasklet's serial span.
        let mut serial_bound = 0u64;
        let mut level_dma_cycles = 0u64;
        let mut ramp = u64::MAX;
        for (i, s) in segs.iter().enumerate() {
            let rf = (s.reg_read_instrs as f64 * cfg.rf_hazard_rate) as u64 * penalty;
            let dma_wait = if cfg.non_blocking_dma { 0 } else { s.dma_cycles };
            let serial = ((s.instructions - s.dma_transfers.min(s.instructions)) * p
                + dma_wait
                + rf)
                .saturating_sub(p - 1);
            serial_bound = serial_bound.max(serial);
            level_dma_cycles += s.dma_cycles;
            if s.dma_transfers > 0 {
                ramp = ramp.min(s.pre_dma_instrs * spacing);
            }
            let t = &mut totals[i];
            t.instructions += s.instructions;
            t.dma_transfers += s.dma_transfers;
            t.dma_bytes += s.dma_bytes;
            t.dma_cycles += if cfg.non_blocking_dma { 0 } else { s.dma_cycles };
            t.rf_cycles += rf;
            t.mutex_acquires += s.mutex_acquires.iter().sum::<u64>();
            t.barriers += u64::from(s.ends_with_barrier);
        }

        // Bound 3: the serialized DMA engine, after the fastest ramp-up.
        let engine_bound = if level_dma_cycles > 0 {
            level_dma_cycles + if ramp == u64::MAX { 0 } else { ramp }
        } else {
            0
        };

        // Bound 4: mutual exclusion — critical sections on one mutex sum.
        let mut mutex_bound = 0u64;
        for m in 0..TRACKED_MUTEXES {
            let acquires: u64 = segs.iter().map(|s| s.mutex_acquires[m]).sum();
            let held: u64 = segs.iter().map(|s| s.mutex_held_instrs[m]).sum();
            if acquires > 0 {
                mutex_bound = mutex_bound.max((2 * acquires + held) * p);
            }
        }

        // Bound 5: staggered release — the serialized engine completes each
        // tasklet's last DMA one after another, releasing post-DMA compute
        // tails over time; a fluid drain of (pre work, gate, post work)
        // through the shared issue slot captures the mixed
        // engine-then-compute regime the pure bounds miss.
        let release_bound = if level_dma_cycles > 0 {
            let base_ramp = if ramp == u64::MAX { 0 } else { ramp };
            order.clear();
            order.extend((0..segs.len()).filter(|&i| segs[i].dma_transfers > 0));
            order.sort_by_key(|&i| (segs[i].pre_dma_instrs, i));
            threads.clear();
            let mut prefix = base_ramp;
            for &i in &order {
                prefix += segs[i].dma_cycles;
                threads.push(FluidThread {
                    pre: segs[i].pre_dma_instrs as f64,
                    post: (segs[i].instructions - segs[i].instrs_at_last_dma) as f64,
                    gate: if cfg.non_blocking_dma { 0.0 } else { prefix as f64 },
                });
            }
            for s in segs.iter().filter(|s| s.dma_transfers == 0 && !s.is_empty()) {
                threads.push(FluidThread { pre: s.instructions as f64, post: 0.0, gate: 0.0 });
            }
            fluid_drain(&mut threads, p as f64) as u64
        } else {
            0
        };

        // Interference: the bounds above are each exact when one resource
        // dominates, but with *blocking* DMA the compute side (issue slot,
        // serial span, mutex chains) and the memory side (engine, staggered
        // release) phase-lock — barrier-aligned waves and mutex convoys
        // make every tasklet block on the engine at once, so the two sides
        // partially serialize instead of overlapping. The harmonic term
        // `min² / 2·max` models that loss: it approaches half the smaller
        // side when the resources are balanced (measured overlap loss is
        // ~50 % on balanced kernels) and vanishes quadratically as one
        // side dominates (a saturated engine hides compute perfectly, and
        // vice versa). Only *interleaved* compute — instructions issued
        // between a tasklet's first and last DMA — can phase-lock with the
        // engine, so the term is scaled by the interleaved fraction of the
        // level's instructions: a lone prefetch followed by a long compute
        // tail (or a pure post-processing tail after the final transfer)
        // overlaps the engine drain perfectly and contributes no loss,
        // while a tight load/compute loop keeps the full harmonic penalty.
        // The sum stays monotone in both sides and additive across
        // barrier segments.
        let compute_side = issue_bound.max(serial_bound).max(mutex_bound);
        let memory_side = engine_bound.max(release_bound);
        let level_transfers: u64 = segs.iter().map(|s| s.dma_transfers).sum();
        let interleaved_instrs: u64 = segs
            .iter()
            .filter(|s| s.dma_transfers > 0)
            .map(|s| s.instrs_at_last_dma.saturating_sub(s.pre_dma_instrs))
            .sum();
        let interference = if cfg.non_blocking_dma || level_transfers == 0 {
            0
        } else {
            let lo = compute_side.min(memory_side) as u128;
            let hi = compute_side.max(memory_side) as u128;
            if hi == 0 {
                0
            } else {
                let base = ((lo * lo / (2 * hi)) as u64).min(lo as u64);
                if total_instrs == 0 {
                    base
                } else {
                    ((base as u128 * interleaved_instrs.min(total_instrs) as u128
                        / total_instrs as u128) as u64)
                        .min(base)
                }
            }
        };
        body_cycles += compute_side.max(memory_side) + interference;
    }

    let total = if body_cycles == 0 { 0 } else { body_cycles + cfg.pipeline_depth as u64 };
    synthesize_profile(stats, &totals, total, cfg)
}

/// Builds the [`DpuProfile`] counter partition around a predicted makespan,
/// preserving the replayer's zero-remainder invariants and exact event
/// counts.
fn synthesize_profile(
    stats: &[TaskletStats],
    totals: &[TaskletTotals],
    total: u64,
    cfg: &PipelineConfig,
) -> DpuProfile {
    let n_tasklets = stats.len() as u64;
    let startup = cfg.dma_startup_cycles as u64;
    let p = cfg.revolver_period.max(1) as u64;
    let depth = cfg.pipeline_depth as u64;
    let engine_total: u64 = totals.iter().map(|t| t.dma_cycles).sum();

    let mut mix = InstrMix::new();
    for s in stats {
        mix.merge(&s.instr_mix());
    }
    let mut counters = CounterSet::new();
    let mut tasklets = Vec::with_capacity(stats.len());
    let mut issued = 0u64;
    let mut dma_wait_sum = 0u64;
    let mut rf_sum = 0u64;
    let mut active_estimate = 0.0f64;
    for t in totals {
        let mut c = CounterSet::new();
        let issue = t.instructions.min(total);
        let dma_wait = t.dma_cycles.saturating_sub(t.dma_transfers).min(total - issue);
        let rf = t.rf_cycles.min(total - issue - dma_wait);
        let mut remaining = total - issue - dma_wait - rf;
        let queue = if t.dma_transfers > 0 {
            engine_total.saturating_sub(t.dma_cycles).min(remaining)
        } else {
            0
        };
        remaining -= queue;
        let tail = depth.min(remaining);
        remaining -= tail;
        let revolver =
            (t.instructions.saturating_sub(t.dma_transfers) * (p - 1)).min(remaining);
        remaining -= revolver;
        let dma_startup = (t.dma_transfers * startup).min(dma_wait);
        c.set(CounterId::TaskletIssue, issue);
        c.set(CounterId::TaskletDmaStartup, dma_startup);
        c.set(CounterId::TaskletDmaTransfer, dma_wait - dma_startup);
        c.set(CounterId::TaskletRf, rf);
        c.set(CounterId::TaskletDmaQueue, queue);
        c.set(CounterId::TaskletRevolver, revolver);
        c.set(CounterId::TaskletTail, tail);
        c.set(CounterId::TaskletBarrier, remaining);
        issued += issue;
        dma_wait_sum += dma_wait;
        rf_sum += rf;
        active_estimate += if total == 0 {
            0.0
        } else {
            ((issue * p).min(total)) as f64 / total as f64
        };
        tasklets.push(c);
    }

    // Slot-level partition: issue, then memory (engine-busy idle), then rf,
    // then the revolver remainder.
    let active = issued.min(total);
    let slot_rem = total - active;
    let memory = dma_wait_sum.min(slot_rem);
    let rf = rf_sum.min(slot_rem - memory);
    let revolver = slot_rem - memory - rf;
    counters.set(CounterId::SlotIssue, active);
    counters.set(CounterId::SlotMemory, memory);
    counters.set(CounterId::SlotRf, rf);
    counters.set(CounterId::SlotRevolver, revolver);
    counters.set(CounterId::DpuCycles, total);
    counters.set(CounterId::TaskletBudget, n_tasklets * total);
    for (id, c) in [
        (CounterId::DmaTransfers, totals.iter().map(|t| t.dma_transfers).sum::<u64>()),
        (CounterId::DmaBytes, totals.iter().map(|t| t.dma_bytes).sum::<u64>()),
        (CounterId::MutexAcquires, totals.iter().map(|t| t.mutex_acquires).sum::<u64>()),
        (CounterId::BarrierCrossings, totals.iter().map(|t| t.barriers).sum::<u64>()),
    ] {
        counters.set(id, c);
    }
    for t in &tasklets {
        for id in CounterId::TASKLET_CYCLES {
            counters.add(id, t.get(id));
        }
    }

    DpuProfile {
        counters,
        tasklets,
        instr_mix: mix,
        avg_active_threads: if total == 0 {
            0.0
        } else {
            active_estimate.clamp(1.0, n_tasklets as f64)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::simulate_dpu_profiled;
    use crate::trace::TaskletTrace;

    fn cfg() -> PipelineConfig {
        PipelineConfig::default()
    }

    /// Records the same workload into both recorder kinds.
    fn record_both(work: impl Fn(&mut dyn Record)) -> (TaskletTrace, TaskletStats) {
        let mut trace = TaskletTrace::new();
        let mut stats = TaskletStats::new(&cfg());
        work(&mut trace);
        work(&mut stats);
        (trace, stats)
    }

    fn mixed_workload(r: &mut dyn Record) {
        r.compute(InstrClass::Arith, 24);
        r.compute(InstrClass::Control, 12);
        r.dma_stream(5000, 1024, 3);
        r.mutex_lock(3);
        r.compute(InstrClass::LoadStore, 2);
        r.mutex_unlock(3);
        r.dma(8);
        r.barrier();
        r.compute(InstrClass::Arith, 7);
        r.barrier();
    }

    #[test]
    fn stats_match_trace_on_exact_quantities() {
        let (trace, stats) = record_both(mixed_workload);
        assert_eq!(stats.instructions(), trace.instructions());
        assert_eq!(stats.dma_bytes(), trace.dma_bytes());
        assert_eq!(stats.instr_mix(), trace.instr_mix());
    }

    #[test]
    fn dma_stream_closed_form_matches_chunk_loop() {
        let (trace, stats) = record_both(|r| r.dma_stream(100_000, 1024, 2));
        assert_eq!(stats.instructions(), trace.instructions());
        assert_eq!(stats.dma_bytes(), trace.dma_bytes());
        // Per-transfer cycle sum matches the replayer's per-event costing.
        let c = cfg();
        let trace_cycles: u64 = trace
            .events()
            .iter()
            .filter_map(|e| {
                if let crate::trace::TraceEvent::Dma { bytes } = e {
                    Some(c.dma_cycles(*bytes))
                } else {
                    None
                }
            })
            .sum();
        let stats_cycles: u64 = stats.segments().map(|s| s.dma_cycles).sum();
        assert_eq!(stats_cycles, trace_cycles);
    }

    #[test]
    fn empty_stats_predict_zero() {
        let profile = predict_dpu(&[], &cfg());
        assert_eq!(profile.counters.get(CounterId::DpuCycles), 0);
        let stats = vec![TaskletStats::new(&cfg()); 4];
        let profile = predict_dpu(&stats, &cfg());
        assert_eq!(profile.counters.get(CounterId::DpuCycles), 0);
        assert!(profile.counters.is_empty());
    }

    #[test]
    fn solo_compute_prediction_matches_des_exactly_without_hazards() {
        // Control instructions read no registers, so the DES outcome is
        // deterministic: (n-1)·P + 1 issue + pipeline depth.
        let mut stats = TaskletStats::new(&cfg());
        Record::compute(&mut stats, InstrClass::Control, 100);
        let profile = predict_dpu(&[stats], &cfg());
        let mut trace = TaskletTrace::new();
        trace.compute(InstrClass::Control, 100);
        let des = simulate_dpu_profiled(&[trace], &cfg());
        assert_eq!(
            profile.counters.get(CounterId::DpuCycles),
            des.counters.get(CounterId::DpuCycles)
        );
    }

    #[test]
    fn predicted_counters_keep_zero_remainder_invariants() {
        let mut stats = Vec::new();
        for i in 0..8u32 {
            let mut s = TaskletStats::new(&cfg());
            let r: &mut dyn Record = &mut s;
            r.compute(InstrClass::Arith, 40 + i * 11);
            r.dma(256);
            r.mutex_lock(2);
            r.compute(InstrClass::LoadStore, 3);
            r.mutex_unlock(2);
            r.barrier();
            stats.push(s);
        }
        let profile = predict_dpu(&stats, &cfg());
        let c = &profile.counters;
        let total = c.get(CounterId::DpuCycles);
        assert_eq!(c.sum(&CounterId::SLOT_CYCLES), total);
        assert_eq!(c.sum(&CounterId::TASKLET_CYCLES), c.get(CounterId::TaskletBudget));
        assert_eq!(c.get(CounterId::TaskletBudget), 8 * total);
        for t in &profile.tasklets {
            assert_eq!(t.sum(&CounterId::TASKLET_CYCLES), total);
        }
        assert_eq!(c.get(CounterId::DmaTransfers), 8);
        assert_eq!(c.get(CounterId::DmaBytes), 8 * 256);
        assert_eq!(c.get(CounterId::MutexAcquires), 8);
        assert_eq!(c.get(CounterId::BarrierCrossings), 8);
        assert_eq!(c.get(CounterId::SpinRetries), 0);
    }

    #[test]
    fn makespan_is_monotone_in_work_and_dma() {
        let base = |extra_instrs: u32, extra_dma: u32| {
            let mut stats = Vec::new();
            for _ in 0..4 {
                let mut s = TaskletStats::new(&cfg());
                let r: &mut dyn Record = &mut s;
                r.compute(InstrClass::Arith, 100 + extra_instrs);
                r.dma(512 + extra_dma);
                r.barrier();
                stats.push(s);
            }
            predict_dpu(&stats, &cfg()).counters.get(CounterId::DpuCycles)
        };
        let t0 = base(0, 0);
        assert!(base(500, 0) > t0, "more instructions must not be faster");
        assert!(base(0, 4096) > t0, "more DMA bytes must not be faster");
    }

    #[test]
    fn makespan_is_additive_over_barrier_segments() {
        let seg = |r: &mut dyn Record, n: u32, bytes: u32| {
            r.compute(InstrClass::Arith, n);
            r.dma(bytes);
            r.barrier();
        };
        let build = |both: bool| {
            (0..4)
                .map(|_| {
                    let mut s = TaskletStats::new(&cfg());
                    seg(&mut s, 120, 1024);
                    if both {
                        seg(&mut s, 37, 64);
                    }
                    s
                })
                .collect::<Vec<_>>()
        };
        let only_first: Vec<TaskletStats> = (0..4)
            .map(|_| {
                let mut s = TaskletStats::new(&cfg());
                seg(&mut s, 37, 64);
                s
            })
            .collect();
        let depth = cfg().pipeline_depth as u64;
        let a = predict_dpu(&build(false), &cfg()).counters.get(CounterId::DpuCycles);
        let b = predict_dpu(&only_first, &cfg()).counters.get(CounterId::DpuCycles);
        let ab = predict_dpu(&build(true), &cfg()).counters.get(CounterId::DpuCycles);
        assert_eq!(ab, a + b - depth, "segments must compose additively");
    }

    #[test]
    fn prediction_tracks_des_on_representative_kernels() {
        // Regression guard at the sim level: the calibrated end-to-end
        // bound lives in the core crate's calibration suite; here we only
        // require the raw per-DPU prediction to stay in the right regime.
        type Workload = Box<dyn Fn(&mut dyn Record, u32)>;
        let workloads: Vec<(&str, Workload)> = vec![
            (
                "dma-bound",
                Box::new(|r, i| {
                    r.compute(InstrClass::Arith, 30);
                    for _ in 0..40 + i {
                        r.compute(InstrClass::Arith, 8);
                        r.dma(8);
                    }
                    r.barrier();
                }),
            ),
            (
                "issue-bound",
                Box::new(|r, i| {
                    r.compute(InstrClass::Control, 24);
                    r.dma(1024);
                    r.compute(InstrClass::Arith, 900 + i * 13);
                    r.barrier();
                }),
            ),
            (
                "streaming",
                Box::new(|r, i| {
                    r.compute(InstrClass::Control, 36);
                    r.dma_stream(40_000 + i as u64 * 512, 1024, 3);
                    r.compute(InstrClass::LoadStore, 200);
                    r.barrier();
                }),
            ),
        ];
        for (name, w) in &workloads {
            let mut traces = Vec::new();
            let mut stats = Vec::new();
            for i in 0..16u32 {
                let mut t = TaskletTrace::new();
                let mut s = TaskletStats::new(&cfg());
                w(&mut t, i);
                w(&mut s, i);
                traces.push(t);
                stats.push(s);
            }
            let des = simulate_dpu_profiled(&traces, &cfg()).counters.get(CounterId::DpuCycles);
            let pred = predict_dpu(&stats, &cfg()).counters.get(CounterId::DpuCycles);
            let (des, pred) = (des as f64, pred as f64);
            let err = (pred - des).abs() / des;
            assert!(err < 0.15, "{name}: pred {pred} vs des {des} ({:.1}% off)", err * 100.0);
        }
    }
}
