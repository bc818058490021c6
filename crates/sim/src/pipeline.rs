//! Cycle-level discrete-event model of one DPU's revolver pipeline.
//!
//! The DPU is a fine-grained multithreaded in-order core (§2.3.2): one
//! instruction may be dispatched per cycle, drawn round-robin from the
//! ready tasklets, and consecutive instructions of the *same* tasklet must
//! be at least [`PipelineConfig::revolver_period`] cycles apart (11 on
//! UPMEM) — the "revolver" constraint that removes forwarding and
//! interlocks. The model additionally captures:
//!
//! * **blocking DMA** through a single per-DPU engine that serializes
//!   concurrent tasklet transfers (MRAM bandwidth sharing);
//! * **mutexes** with hand-off semantics and **barriers** across all live
//!   tasklets;
//! * **even/odd register-file bank conflicts**, applied to a deterministic
//!   pseudo-random subset of register-reading instructions.
//!
//! Two levels of cycle attribution are produced:
//!
//! * **Slot-level** (Fig 9): each idle issue slot is charged to memory
//!   (a tasklet is waiting on DMA), register-file structural hazard, or
//!   revolver-pipeline scheduling (including the sync-induced
//!   underutilization the paper folds into this category).
//! * **Tasklet-level** (the observability layer): every cycle of every
//!   tasklet's lifetime is assigned to exactly one wait category —
//!   dispatch-slot contention, revolver spacing, RF hazard, DMA engine
//!   queueing / startup / transfer, mutex backoff, barrier parking, or
//!   post-trace tail — so the per-tasklet counters sum *exactly* to the
//!   DPU makespan, a property the invariant test suite enforces.

use crate::analytic::TaskletStats;
use crate::config::PipelineConfig;
use crate::counters::{CounterId, CounterSet};
use crate::instr::{InstrClass, InstrMix};
use crate::report::{DpuProfile, DpuReport};
use crate::trace::{TaskletTrace, TraceEvent};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// May issue once `avail` is reached (covers revolver wait and DMA
    /// completion wait, which is folded into `avail`).
    Runnable,
    /// Waiting at the all-tasklet barrier.
    BarrierWait,
    /// Trace exhausted.
    Done,
}

/// Which synchronization primitive a pending wait threshold belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncKind {
    Mutex,
    Barrier,
}

struct Thread<'a> {
    events: &'a [TraceEvent],
    ev: usize,
    /// Remaining instructions in the current `Compute` block.
    remaining: u32,
    /// Earliest cycle at which the next instruction may issue.
    avail: u64,
    /// Cycle until which the thread is stalled on DMA (for attribution).
    dma_until: u64,
    status: Status,
    rf_pending: bool,
    /// Cumulative cycles spent blocked (DMA + mutex + barrier).
    stalled_cycles: u64,
    /// Cycle at which the thread blocked on mutex/barrier (for accounting).
    blocked_at: u64,
    /// Cycle just after the thread's last issued instruction.
    end_cycle: u64,
    // --- wait-anatomy thresholds for the observability layer ---
    // Absolute cycles at which successive readiness conditions for the
    // *next* issue are satisfied; the gap up to the actual issue is walked
    // through them in priority order (DMA, sync, revolver, RF) and the
    // remainder is dispatch-slot contention.
    /// Cycle just after the last issue: start of the current wait interval.
    wait_from: u64,
    /// DMA engine grant (start of this thread's transfer), if blocked.
    dma_queue_ready: u64,
    /// DMA startup window complete.
    dma_startup_ready: u64,
    /// DMA transfer complete.
    dma_done: u64,
    /// Mutex backoff elapsed / barrier released.
    sync_ready: u64,
    sync_kind: Option<SyncKind>,
    /// Revolver spacing satisfied.
    rev_ready: u64,
    /// RF-hazard penalty elapsed (== `rev_ready` when no hazard hit).
    rf_ready: u64,
    /// Per-tasklet observability counters.
    counters: CounterSet,
}

impl<'a> Thread<'a> {
    fn new(trace: &'a TaskletTrace) -> Self {
        let status = if trace.is_empty() { Status::Done } else { Status::Runnable };
        Thread {
            events: trace.events(),
            ev: 0,
            remaining: 0,
            avail: 0,
            dma_until: 0,
            status,
            rf_pending: false,
            stalled_cycles: 0,
            blocked_at: 0,
            end_cycle: 0,
            wait_from: 0,
            dma_queue_ready: 0,
            dma_startup_ready: 0,
            dma_done: 0,
            sync_ready: 0,
            sync_kind: None,
            rev_ready: 0,
            rf_ready: 0,
            counters: CounterSet::new(),
        }
    }

    /// The event the next issued instruction belongs to.
    fn current(&self) -> Option<&TraceEvent> {
        self.events.get(self.ev)
    }

    /// Advances past the current instruction; returns true when the trace
    /// is exhausted.
    fn advance(&mut self) -> bool {
        match self.events.get(self.ev) {
            Some(TraceEvent::Compute { count, .. }) => {
                if self.remaining == 0 {
                    self.remaining = *count;
                }
                self.remaining -= 1;
                if self.remaining == 0 {
                    self.ev += 1;
                }
            }
            Some(_) => self.ev += 1,
            None => {}
        }
        self.ev >= self.events.len()
    }

    /// Attributes the wait interval `[wait_from, issue_at)` to the tasklet
    /// wait categories, walking the readiness thresholds in priority order
    /// (DMA engine, synchronization, revolver, RF) and charging whatever
    /// remains — the tasklet was ready but lost the issue slot — to
    /// dispatch contention. The segments partition the interval exactly.
    fn attribute_wait(&mut self, issue_at: u64) {
        fn seg(cur: &mut u64, upto: u64, limit: u64) -> u64 {
            let bound = upto.min(limit);
            if bound > *cur {
                let d = bound - *cur;
                *cur = bound;
                d
            } else {
                0
            }
        }
        let mut cur = self.wait_from;
        let dq = seg(&mut cur, self.dma_queue_ready, issue_at);
        let ds = seg(&mut cur, self.dma_startup_ready, issue_at);
        let dt = seg(&mut cur, self.dma_done, issue_at);
        let sy = seg(&mut cur, self.sync_ready, issue_at);
        let rv = seg(&mut cur, self.rev_ready, issue_at);
        let rf = seg(&mut cur, self.rf_ready, issue_at);
        let dispatch = issue_at - cur;
        self.counters.add(CounterId::TaskletDmaQueue, dq);
        self.counters.add(CounterId::TaskletDmaStartup, ds);
        self.counters.add(CounterId::TaskletDmaTransfer, dt);
        match self.sync_kind {
            Some(SyncKind::Mutex) => self.counters.add(CounterId::TaskletMutex, sy),
            Some(SyncKind::Barrier) => self.counters.add(CounterId::TaskletBarrier, sy),
            None => debug_assert_eq!(sy, 0),
        }
        self.counters.add(CounterId::TaskletRevolver, rv);
        self.counters.add(CounterId::TaskletRf, rf);
        self.counters.add(CounterId::TaskletDispatch, dispatch);
    }

    /// Resets the wait-anatomy thresholds after an issue at `issue_at`
    /// whose revolver spacing expires at `rev_ready`.
    fn begin_wait(&mut self, issue_at: u64, rev_ready: u64) {
        self.wait_from = issue_at + 1;
        self.dma_queue_ready = 0;
        self.dma_startup_ready = 0;
        self.dma_done = 0;
        self.sync_ready = 0;
        self.sync_kind = None;
        self.rev_ready = rev_ready;
        self.rf_ready = rev_ready;
    }
}

#[derive(Default)]
struct Mutex {
    held_by: Option<usize>,
}

/// SplitMix64 finalizer, used for deterministic hazard selection and — via
/// [`crate::faults`] — for order-independent fault draws.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replays tasklet traces against the revolver-pipeline model, returning
/// the slot-level cycle report for one DPU. Convenience wrapper around
/// [`simulate_dpu_profiled`] for callers that do not need the counter
/// registry.
///
/// # Panics
///
/// Panics if the traces deadlock (e.g. a mutex is released by a tasklet
/// that never acquired it, or live tasklets block forever) — this indicates
/// a malformed kernel trace, not a data-dependent condition.
pub fn simulate_dpu(traces: &[TaskletTrace], cfg: &PipelineConfig) -> DpuReport {
    simulate_dpu_profiled(traces, cfg).report
}

/// Replays tasklet traces against the revolver-pipeline model, returning
/// the slot-level report plus the full observability profile: the DPU's
/// counter rollup and one exact per-tasklet cycle attribution each.
///
/// Invariants (enforced by the `counter_invariants` test suite):
///
/// * slot level — `slot.issue + slot.memory + slot.revolver + slot.rf ==
///   dpu.cycles`;
/// * tasklet level — for every tasklet, issue + dispatch + revolver + rf +
///   dma(queue/startup/transfer) + mutex + barrier + tail ==
///   `dpu.cycles`, so the rollup sums to `tasklet.budget`.
///
/// # Panics
///
/// Same deadlock conditions as [`simulate_dpu`].
pub fn simulate_dpu_profiled(traces: &[TaskletTrace], cfg: &PipelineConfig) -> DpuProfile {
    let mut threads: Vec<Thread<'_>> = traces.iter().map(Thread::new).collect();
    let n = threads.len();
    let mut mutexes: Vec<Mutex> = Vec::new();
    let mut barrier_arrived: Vec<bool> = vec![false; n];
    let mut engine_free: u64 = 0;

    let mut cycle: u64 = 0; // next free issue slot
    let mut issued: u64 = 0;
    let mut idle_mem: u64 = 0;
    let mut idle_rev: u64 = 0;
    let mut idle_rf: u64 = 0;
    let mut spin_retries: u64 = 0;
    let mut mix = crate::instr::InstrMix::new();
    for t in traces {
        mix.merge(&t.instr_mix());
    }
    let hazard_threshold = (cfg.rf_hazard_rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;

    loop {
        // Pick the runnable thread with the earliest availability,
        // tie-broken round-robin by id.
        let mut best: Option<usize> = None;
        for (tid, th) in threads.iter().enumerate() {
            if th.status == Status::Runnable {
                match best {
                    None => best = Some(tid),
                    Some(b) if th.avail < threads[b].avail => best = Some(tid),
                    _ => {}
                }
            }
        }
        let Some(tid) = best else {
            if threads.iter().all(|t| t.status == Status::Done) {
                break;
            }
            panic!("deadlock: all live tasklets blocked on synchronization");
        };

        let avail = threads[tid].avail;
        let issue_at = avail.max(cycle);
        if issue_at > cycle {
            // Attribute the idle gap [cycle, issue_at).
            let gap = issue_at - cycle;
            let memory_stalled = threads.iter().any(|t| t.dma_until > cycle);
            if memory_stalled {
                idle_mem += gap;
            } else if threads[tid].rf_pending {
                let rf = gap.min(cfg.rf_hazard_penalty as u64);
                idle_rf += rf;
                idle_rev += gap - rf;
            } else {
                idle_rev += gap;
            }
        }
        threads[tid].rf_pending = false;

        // Tasklet-level: settle the wait interval that ends at this issue.
        threads[tid].attribute_wait(issue_at);
        threads[tid].counters.add(CounterId::TaskletIssue, 1);

        // Issue exactly one instruction of the current event at `issue_at`.
        let event = *threads[tid].current().expect("runnable thread has a current event");
        issued += 1;
        cycle = issue_at + 1;
        threads[tid].end_cycle = cycle;
        let mut next_avail = issue_at + cfg.revolver_period as u64;
        threads[tid].begin_wait(issue_at, next_avail);

        // Register-file even/odd bank conflict on register-reading classes.
        if let TraceEvent::Compute { class, .. } = event {
            if class.reads_registers() && mix64(issued ^ ((tid as u64) << 48)) < hazard_threshold
            {
                next_avail += cfg.rf_hazard_penalty as u64;
                threads[tid].rf_pending = true;
                threads[tid].rf_ready = next_avail;
            }
        }

        match event {
            TraceEvent::Compute { .. } => {}
            TraceEvent::Dma { bytes } => {
                // DMA through the serialized per-DPU engine. On the real
                // machine the issuing tasklet blocks until completion; the
                // §6.4 what-if lets it keep computing.
                let start = engine_free.max(cycle);
                let done = start + cfg.dma_cycles(bytes);
                engine_free = done;
                threads[tid].counters.add(CounterId::DmaTransfers, 1);
                threads[tid].counters.add(CounterId::DmaBytes, bytes as u64);
                if !cfg.non_blocking_dma {
                    threads[tid].dma_until = done;
                    threads[tid].stalled_cycles += done.saturating_sub(cycle);
                    next_avail = next_avail.max(done);
                    threads[tid].dma_queue_ready = start;
                    threads[tid].dma_startup_ready =
                        (start + cfg.dma_startup_cycles as u64).min(done);
                    threads[tid].dma_done = done;
                }
            }
            TraceEvent::MutexLock { id } => {
                if mutexes.len() <= id as usize {
                    mutexes.resize_with(id as usize + 1, Mutex::default);
                }
                let m = &mut mutexes[id as usize];
                match m.held_by {
                    None => {
                        m.held_by = Some(tid);
                        threads[tid].counters.add(CounterId::MutexAcquires, 1);
                    }
                    Some(_) => {
                        // Contended acquire: the attempt failed, the tasklet
                        // backs off and retries (§6.4.2 — contention inflates
                        // sync instruction counts). The event is not consumed.
                        spin_retries += 1;
                        threads[tid].counters.add(CounterId::SpinRetries, 1);
                        mix.add(crate::instr::InstrClass::Sync, 1);
                        let backoff = cfg.mutex_backoff_cycles as u64;
                        threads[tid].sync_ready = issue_at + backoff;
                        threads[tid].sync_kind = Some(SyncKind::Mutex);
                        threads[tid].avail = (issue_at + backoff).max(next_avail);
                        threads[tid].stalled_cycles += backoff;
                        continue;
                    }
                }
            }
            TraceEvent::MutexUnlock { id } => {
                let m = mutexes
                    .get_mut(id as usize)
                    .unwrap_or_else(|| panic!("unlock of unknown mutex {id}"));
                assert_eq!(m.held_by, Some(tid), "unlock by non-holder tasklet {tid}");
                m.held_by = None;
            }
            TraceEvent::Barrier => {
                threads[tid].counters.add(CounterId::BarrierCrossings, 1);
                barrier_arrived[tid] = true;
                threads[tid].status = Status::BarrierWait;
                threads[tid].blocked_at = cycle;
                try_release_barrier(&mut threads, &mut barrier_arrived, cycle);
            }
        }

        // Consume the instruction and update thread scheduling state.
        // (avail carries the revolver spacing even across mutex/barrier
        // blocking, so a woken thread still honours the dispatch gap.)
        threads[tid].avail = next_avail;
        let done = threads[tid].advance();
        if done {
            threads[tid].status = Status::Done;
            // A tasklet finishing may be the last thing a barrier waits on.
            try_release_barrier(&mut threads, &mut barrier_arrived, cycle);
        }
    }

    // An in-flight DMA keeps the kernel alive even when no instruction
    // follows it; the makespan covers the last completion, and the trailing
    // wait is a memory stall.
    idle_mem += engine_free.saturating_sub(cycle);
    let total_cycles = cycle.max(engine_free) + cfg.pipeline_depth as u64;
    let active_thread_area: u64 = threads
        .iter()
        .map(|t| t.end_cycle.saturating_sub(t.stalled_cycles))
        .sum();
    let avg_active_threads =
        if total_cycles == 0 { 0.0 } else { active_thread_area as f64 / total_cycles as f64 };

    // Close every tasklet's books: whatever follows its last issue — peer
    // skew, the trailing DMA window, and pipeline drain — is its tail.
    let mut counters = CounterSet::new();
    let mut tasklets = Vec::with_capacity(n);
    for th in &mut threads {
        th.counters.add(CounterId::TaskletTail, total_cycles - th.wait_from.min(total_cycles));
        debug_assert_eq!(
            th.counters.sum(&CounterId::TASKLET_CYCLES),
            total_cycles,
            "tasklet cycle attribution must partition the makespan",
        );
        counters.merge(&th.counters);
        tasklets.push(th.counters);
    }
    counters.add(CounterId::SlotIssue, issued);
    counters.add(CounterId::SlotMemory, idle_mem);
    counters
        .add(CounterId::SlotRevolver, idle_rev + (total_cycles - issued - idle_mem - idle_rev - idle_rf));
    counters.add(CounterId::SlotRf, idle_rf);
    counters.add(CounterId::DpuCycles, total_cycles);
    counters.add(CounterId::TaskletBudget, n as u64 * total_cycles);

    DpuProfile {
        report: DpuReport {
            total_cycles,
            issued_instructions: issued,
            active_cycles: issued,
            idle_memory_cycles: idle_mem,
            idle_revolver_cycles: idle_rev
                + (total_cycles - issued - idle_mem - idle_rev - idle_rf),
            idle_rf_cycles: idle_rf,
            instr_mix: mix,
            avg_active_threads,
            spin_retries,
        },
        counters,
        tasklets,
    }
}

/// Releases the all-tasklet barrier if every live tasklet has arrived.
fn try_release_barrier(threads: &mut [Thread<'_>], arrived: &mut [bool], cycle: u64) {
    let any_waiting = threads.iter().any(|t| t.status == Status::BarrierWait);
    if !any_waiting {
        return;
    }
    let all_arrived =
        threads.iter().enumerate().all(|(i, t)| t.status == Status::Done || arrived[i]);
    if !all_arrived {
        return;
    }
    for (i, th) in threads.iter_mut().enumerate() {
        arrived[i] = false;
        if th.status == Status::BarrierWait {
            th.status = Status::Runnable;
            th.stalled_cycles += cycle - th.blocked_at;
            th.avail = th.avail.max(cycle);
            th.sync_ready = cycle;
            th.sync_kind = Some(SyncKind::Barrier);
        }
    }
}

/// Extra makespan cycles a straggler DPU adds when its whole pipeline runs
/// `multiplier`× slow (clock droop / thermal throttling at rank level).
/// Applied on top of a simulated or estimated base makespan by the fault
/// layer; `multiplier ≤ 1` adds nothing.
pub fn straggler_extra_cycles(base_cycles: u64, multiplier: f64) -> u64 {
    ((multiplier - 1.0).max(0.0) * base_cycles as f64).ceil() as u64
}

/// What [`estimate_cycles`] and [`estimate_stats`] yield for one DPU: the
/// cycle estimate plus the exact instruction accounting that
/// [`TaskletTrace::instructions`] and [`TaskletTrace::instr_mix`] would
/// give summed over the tasklets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEstimate {
    /// Estimated makespan in cycles, including pipeline drain.
    pub cycles: u64,
    /// Instructions the tasklets issue (compute + one per DMA, mutex op
    /// and barrier).
    pub instructions: u64,
    /// Instruction-mix histogram of the tasklets.
    pub mix: InstrMix,
}

/// Cheap analytic lower-bound-style estimate of the cycles a trace set
/// needs, used for DPUs outside the detailed sample
/// ([`crate::config::SimFidelity::Sampled`]), together with the trace
/// set's instruction count and mix, all from a single walk of the events.
///
/// Takes the maximum of three structural bounds: the single-issue pipeline
/// bound, the per-thread revolver bound (instructions spaced by the
/// revolver period plus that thread's DMA wait), and the serialized DMA
/// engine bound.
pub fn estimate_cycles(traces: &[TaskletTrace], cfg: &PipelineConfig) -> TraceEstimate {
    let mut mix = InstrMix::new();
    let loads = traces.iter().map(|t| {
        let mut instrs = 0u64;
        let mut dma_wait = 0u64;
        for e in t.events() {
            match *e {
                TraceEvent::Compute { class, count } => {
                    mix.add(class, count as u64);
                    instrs += count as u64;
                }
                TraceEvent::Dma { bytes } => {
                    mix.add(InstrClass::Dma, 1);
                    instrs += 1;
                    dma_wait += cfg.dma_cycles(bytes);
                }
                TraceEvent::MutexLock { .. }
                | TraceEvent::MutexUnlock { .. }
                | TraceEvent::Barrier => {
                    mix.add(InstrClass::Sync, 1);
                    instrs += 1;
                }
            }
        }
        (instrs, dma_wait)
    });
    let (cycles, instructions) = estimate_bound(loads, cfg);
    TraceEstimate { cycles, instructions, mix }
}

/// [`estimate_cycles`] fed by [`TaskletStats`] recorders instead of event
/// traces: the same calls recorded into either recorder give the same
/// estimate, instruction count and mix.
pub fn estimate_stats(stats: &[TaskletStats], cfg: &PipelineConfig) -> TraceEstimate {
    let mut mix = InstrMix::new();
    for s in stats {
        mix.merge(&s.instr_mix());
    }
    let (cycles, instructions) =
        estimate_bound(stats.iter().map(|s| (s.instructions(), s.dma_cycles())), cfg);
    TraceEstimate { cycles, instructions, mix }
}

/// The estimate formula over per-tasklet `(instructions, DMA cycles)`
/// loads: the largest of the issue, per-thread revolver and DMA engine
/// bounds plus pipeline drain, and the total instruction count.
fn estimate_bound(loads: impl Iterator<Item = (u64, u64)>, cfg: &PipelineConfig) -> (u64, u64) {
    let mut issue_bound: u64 = 0;
    let mut thread_bound: u64 = 0;
    let mut dma_bound: u64 = 0;
    for (instrs, dma_wait) in loads {
        issue_bound += instrs;
        dma_bound += dma_wait;
        thread_bound = thread_bound.max(instrs * cfg.revolver_period as u64 + dma_wait);
    }
    (issue_bound.max(thread_bound).max(dma_bound) + cfg.pipeline_depth as u64, issue_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstrClass;

    fn cfg() -> PipelineConfig {
        PipelineConfig { rf_hazard_rate: 0.0, ..PipelineConfig::default() }
    }

    #[test]
    fn empty_traces_take_only_drain_cycles() {
        let r = simulate_dpu(&[TaskletTrace::new()], &cfg());
        assert_eq!(r.issued_instructions, 0);
        assert_eq!(r.total_cycles, cfg().pipeline_depth as u64);
    }

    #[test]
    fn single_thread_is_revolver_bound() {
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 100);
        let r = simulate_dpu(&[t], &cfg());
        assert_eq!(r.issued_instructions, 100);
        // 100 instructions spaced 11 apart: last issues at cycle 99*11.
        assert_eq!(r.total_cycles, 99 * 11 + 1 + cfg().pipeline_depth as u64);
        assert!(r.idle_revolver_cycles > 0);
        assert_eq!(r.idle_memory_cycles, 0);
    }

    #[test]
    fn eleven_threads_saturate_the_pipeline() {
        let traces: Vec<TaskletTrace> = (0..11)
            .map(|_| {
                let mut t = TaskletTrace::new();
                t.compute(InstrClass::Arith, 50);
                t
            })
            .collect();
        let r = simulate_dpu(&traces, &cfg());
        assert_eq!(r.issued_instructions, 550);
        // With >= revolver_period ready threads the pipeline issues every
        // cycle: makespan ~= instruction count.
        assert!(r.total_cycles <= 550 + cfg().pipeline_depth as u64 + 11);
        assert_eq!(r.idle_memory_cycles, 0);
    }

    #[test]
    fn more_threads_beat_fewer_threads() {
        let work = |n: u32, per: u32| -> Vec<TaskletTrace> {
            (0..n)
                .map(|_| {
                    let mut t = TaskletTrace::new();
                    t.compute(InstrClass::Arith, per);
                    t
                })
                .collect()
        };
        // Same total work, spread over 2 vs 16 tasklets.
        let r2 = simulate_dpu(&work(2, 800), &cfg());
        let r16 = simulate_dpu(&work(16, 100), &cfg());
        assert!(r16.total_cycles < r2.total_cycles);
    }

    #[test]
    fn dma_blocks_the_issuing_thread_only() {
        // Thread 0 DMAs then computes; thread 1 just computes. The pipeline
        // should keep issuing thread 1 during thread 0's stall.
        let mut t0 = TaskletTrace::new();
        t0.dma(2048);
        t0.compute(InstrClass::Arith, 5);
        let mut t1 = TaskletTrace::new();
        t1.compute(InstrClass::Arith, 200);
        let r = simulate_dpu(&[t0, t1], &cfg());
        assert_eq!(r.issued_instructions, 206);
        // Thread 1's 200 instructions spaced 11 apart dominate.
        assert!(r.total_cycles >= 199 * 11);
    }

    #[test]
    fn dma_engine_serializes_transfers() {
        let mk = |count: usize| -> TaskletTrace {
            let mut t = TaskletTrace::new();
            for _ in 0..count {
                t.dma(4096);
            }
            t
        };
        let one = simulate_dpu(&[mk(8)], &cfg());
        let spread: Vec<TaskletTrace> = (0..8).map(|_| mk(1)).collect();
        let eight = simulate_dpu(&spread, &cfg());
        // Same total bytes through one serialized engine: similar makespan.
        let ratio = eight.total_cycles as f64 / one.total_cycles as f64;
        assert!(ratio > 0.8 && ratio < 1.2, "ratio {ratio}");
        assert!(one.idle_memory_cycles > 0);
    }

    #[test]
    fn mutex_serializes_critical_sections() {
        let mk = || -> TaskletTrace {
            let mut t = TaskletTrace::new();
            for _ in 0..20 {
                t.mutex_lock(0);
                t.compute(InstrClass::LoadStore, 4);
                t.mutex_unlock(0);
            }
            t
        };
        let contended = simulate_dpu(&[mk(), mk(), mk(), mk()], &cfg());
        // Four disjoint mutexes: no contention.
        let mk_id = |id: u16| -> TaskletTrace {
            let mut t = TaskletTrace::new();
            for _ in 0..20 {
                t.mutex_lock(id);
                t.compute(InstrClass::LoadStore, 4);
                t.mutex_unlock(id);
            }
            t
        };
        let free = simulate_dpu(&[mk_id(0), mk_id(1), mk_id(2), mk_id(3)], &cfg());
        assert!(contended.total_cycles > free.total_cycles);
        // Contention produces retry attempts, each an extra Sync issue.
        assert!(contended.spin_retries > 0);
        assert_eq!(free.spin_retries, 0);
        assert_eq!(
            contended.issued_instructions,
            free.issued_instructions + contended.spin_retries,
        );
        assert!(
            contended.instr_mix.count(crate::instr::InstrClass::Sync)
                > free.instr_mix.count(crate::instr::InstrClass::Sync)
        );
    }

    #[test]
    fn barrier_waits_for_all_live_tasklets() {
        // Thread 0: short work then barrier. Thread 1: long work then
        // barrier. Both then compute a tail. The tails can only start after
        // the long thread arrives.
        let mut t0 = TaskletTrace::new();
        t0.compute(InstrClass::Arith, 1);
        t0.barrier();
        t0.compute(InstrClass::Arith, 1);
        let mut t1 = TaskletTrace::new();
        t1.compute(InstrClass::Arith, 300);
        t1.barrier();
        t1.compute(InstrClass::Arith, 1);
        let r = simulate_dpu(&[t0, t1], &cfg());
        assert!(r.total_cycles >= 299 * 11);
        assert_eq!(r.issued_instructions, 1 + 1 + 300 + 1 + 2);
    }

    #[test]
    fn cycles_decompose_into_active_and_idle() {
        let mut t0 = TaskletTrace::new();
        t0.dma(512);
        t0.compute(InstrClass::Arith, 40);
        t0.mutex_lock(3);
        t0.compute(InstrClass::LoadStore, 2);
        t0.mutex_unlock(3);
        let mut t1 = TaskletTrace::new();
        t1.compute(InstrClass::Control, 25);
        t1.barrier();
        let mut t0b = t0.clone();
        t0b.barrier();
        let r = simulate_dpu(&[t0b, t1], &cfg());
        assert_eq!(
            r.total_cycles,
            r.active_cycles + r.idle_memory_cycles + r.idle_revolver_cycles + r.idle_rf_cycles,
        );
    }

    #[test]
    fn rf_hazards_appear_when_enabled() {
        let mut c = cfg();
        c.rf_hazard_rate = 1.0; // every register-reading instruction conflicts
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 50);
        let hazard = simulate_dpu(&[t.clone()], &c);
        let clean = simulate_dpu(&[t], &cfg());
        assert!(hazard.total_cycles > clean.total_cycles);
        assert!(hazard.idle_rf_cycles > 0);
        assert_eq!(clean.idle_rf_cycles, 0);
    }

    #[test]
    fn avg_active_threads_scales_with_parallelism() {
        let mk = |n: u32| -> Vec<TaskletTrace> {
            (0..n)
                .map(|_| {
                    let mut t = TaskletTrace::new();
                    t.compute(InstrClass::Arith, 200);
                    t
                })
                .collect()
        };
        let r1 = simulate_dpu(&mk(1), &cfg());
        let r8 = simulate_dpu(&mk(8), &cfg());
        assert!(r8.avg_active_threads > r1.avg_active_threads);
        assert!(r1.avg_active_threads <= 1.01);
    }

    #[test]
    #[should_panic(expected = "unlock by non-holder")]
    fn unlock_without_lock_panics() {
        let mut t = TaskletTrace::new();
        t.mutex_unlock(0);
        let mut other = TaskletTrace::new();
        other.mutex_lock(0);
        other.mutex_unlock(0);
        // Make the unlocking thread run second so the mutex exists but is
        // held by the other tasklet... then unlock by non-holder panics.
        let mut holder = TaskletTrace::new();
        holder.mutex_lock(0);
        holder.compute(InstrClass::Arith, 100);
        holder.mutex_unlock(0);
        simulate_dpu(&[holder, t], &cfg());
    }

    #[test]
    fn estimate_tracks_simulation_within_2x() {
        let mut traces = Vec::new();
        for i in 0..8u32 {
            let mut t = TaskletTrace::new();
            t.dma_stream(4000 + i as u64 * 500, 512, 2);
            t.compute(InstrClass::Arith, 300 + i * 37);
            t.compute(InstrClass::LoadStore, 80);
            traces.push(t);
        }
        let sim = simulate_dpu(&traces, &cfg()).total_cycles as f64;
        let est = estimate_cycles(&traces, &cfg()).cycles as f64;
        let ratio = sim / est;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }

    // --- observability-layer tests ---

    fn assert_tasklet_partition(profile: &DpuProfile) {
        let total = profile.report.total_cycles;
        for (i, t) in profile.tasklets.iter().enumerate() {
            assert_eq!(
                t.sum(&CounterId::TASKLET_CYCLES),
                total,
                "tasklet {i} attribution does not cover the makespan",
            );
        }
        assert_eq!(
            profile.counters.sum(&CounterId::TASKLET_CYCLES),
            profile.counters.get(CounterId::TaskletBudget),
        );
        assert_eq!(
            profile.counters.sum(&CounterId::SLOT_CYCLES),
            profile.counters.get(CounterId::DpuCycles),
        );
    }

    #[test]
    fn profiled_report_matches_plain_simulation() {
        let mut t0 = TaskletTrace::new();
        t0.dma(1024);
        t0.compute(InstrClass::Arith, 60);
        let mut t1 = TaskletTrace::new();
        t1.compute(InstrClass::LoadStore, 90);
        let traces = vec![t0, t1];
        let plain = simulate_dpu(&traces, &cfg());
        let profile = simulate_dpu_profiled(&traces, &cfg());
        assert_eq!(plain, profile.report);
        assert_tasklet_partition(&profile);
    }

    #[test]
    fn solo_thread_waits_are_all_revolver() {
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 20);
        let p = simulate_dpu_profiled(&[t], &cfg());
        let c = &p.tasklets[0];
        assert_eq!(c.get(CounterId::TaskletIssue), 20);
        // 19 inter-instruction gaps of (11 - 1) revolver cycles each.
        assert_eq!(c.get(CounterId::TaskletRevolver), 19 * 10);
        assert_eq!(c.get(CounterId::TaskletDispatch), 0);
        assert_eq!(c.get(CounterId::TaskletMutex), 0);
        assert_tasklet_partition(&p);
    }

    #[test]
    fn oversubscription_shows_up_as_dispatch_contention() {
        // 22 tasklets with back-to-back work: twice the revolver period, so
        // every thread spends about half its ready time losing the slot.
        let traces: Vec<TaskletTrace> = (0..22)
            .map(|_| {
                let mut t = TaskletTrace::new();
                t.compute(InstrClass::Arith, 50);
                t
            })
            .collect();
        let p = simulate_dpu_profiled(&traces, &cfg());
        assert!(p.counters.get(CounterId::TaskletDispatch) > 0);
        assert_tasklet_partition(&p);
    }

    #[test]
    fn dma_wait_splits_into_startup_and_transfer() {
        let mut t = TaskletTrace::new();
        t.dma(8192);
        t.compute(InstrClass::Arith, 1);
        let c = cfg();
        let p = simulate_dpu_profiled(&[t], &c);
        let tc = &p.tasklets[0];
        // Engine was free: no queue wait; startup window then streaming.
        assert_eq!(tc.get(CounterId::TaskletDmaQueue), 0);
        assert_eq!(tc.get(CounterId::TaskletDmaStartup), c.dma_startup_cycles as u64);
        // The engine starts the cycle after issue, so the blocked window is
        // exactly the transfer length.
        assert_eq!(
            tc.get(CounterId::TaskletDmaStartup) + tc.get(CounterId::TaskletDmaTransfer),
            c.dma_cycles(8192),
        );
        assert_eq!(tc.get(CounterId::DmaTransfers), 1);
        assert_eq!(tc.get(CounterId::DmaBytes), 8192);
        assert_tasklet_partition(&p);
    }

    #[test]
    fn concurrent_dmas_show_engine_queueing() {
        let mk = || {
            let mut t = TaskletTrace::new();
            t.dma(4096);
            t.compute(InstrClass::Arith, 1);
            t
        };
        let p = simulate_dpu_profiled(&[mk(), mk(), mk()], &cfg());
        // At least the last-granted tasklet queued behind the engine.
        assert!(p.counters.get(CounterId::TaskletDmaQueue) > 0);
        assert_eq!(p.counters.get(CounterId::DmaTransfers), 3);
        assert_tasklet_partition(&p);
    }

    #[test]
    fn contended_mutex_charges_backoff_to_mutex_wait() {
        let mk = || {
            let mut t = TaskletTrace::new();
            for _ in 0..10 {
                t.mutex_lock(0);
                t.compute(InstrClass::LoadStore, 6);
                t.mutex_unlock(0);
            }
            t
        };
        let p = simulate_dpu_profiled(&[mk(), mk(), mk()], &cfg());
        assert!(p.counters.get(CounterId::SpinRetries) > 0);
        assert!(p.counters.get(CounterId::TaskletMutex) > 0);
        assert!(p.counters.get(CounterId::MutexAcquires) >= 30);
        assert_tasklet_partition(&p);
    }

    #[test]
    fn barrier_parking_is_attributed_to_the_early_arrivals() {
        let mut fast = TaskletTrace::new();
        fast.compute(InstrClass::Arith, 1);
        fast.barrier();
        fast.compute(InstrClass::Arith, 1);
        let mut slow = TaskletTrace::new();
        slow.compute(InstrClass::Arith, 200);
        slow.barrier();
        slow.compute(InstrClass::Arith, 1);
        let p = simulate_dpu_profiled(&[fast, slow], &cfg());
        let fast_c = &p.tasklets[0];
        let slow_c = &p.tasklets[1];
        assert!(fast_c.get(CounterId::TaskletBarrier) > 100 * 11 / 2);
        assert_eq!(slow_c.get(CounterId::TaskletBarrier), 0);
        assert_eq!(p.counters.get(CounterId::BarrierCrossings), 2);
        assert_tasklet_partition(&p);
    }

    #[test]
    fn rf_hazard_cycles_reach_the_tasklet_counters() {
        let mut c = cfg();
        c.rf_hazard_rate = 1.0;
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 50);
        let p = simulate_dpu_profiled(&[t], &c);
        assert!(p.tasklets[0].get(CounterId::TaskletRf) > 0);
        assert_tasklet_partition(&p);
    }

    #[test]
    fn empty_tasklet_is_pure_tail() {
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 30);
        let p = simulate_dpu_profiled(&[t, TaskletTrace::new()], &cfg());
        let idle = &p.tasklets[1];
        assert_eq!(idle.get(CounterId::TaskletTail), p.report.total_cycles);
        assert_eq!(idle.get(CounterId::TaskletIssue), 0);
        assert_tasklet_partition(&p);
    }
}
