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
use crate::report::DpuProfile;
use crate::trace::{TaskletTrace, TraceEvent};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// In the ready queue (out of it only while issuing): may issue once
    /// `avail` is reached (covers revolver wait and DMA completion wait,
    /// which is folded into `avail`).
    Runnable,
    /// Waiting at the all-tasklet barrier.
    BarrierWait,
    /// Trace exhausted.
    Done,
}

/// What, beyond the revolver spacing, holds a tasklet between its last
/// issue and its next: absolute cycles at which each readiness condition
/// is met. The wait is walked through them in priority order (DMA, sync,
/// revolver, RF) and the remainder is dispatch-slot contention. One issue
/// sets at most one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    None,
    /// A blocking DMA: the engine grant (start of this tasklet's
    /// transfer), the end of its startup window, and its completion.
    Dma {
        granted: u64,
        started: u64,
        done: u64,
    },
    /// A contended acquire: the backoff ends.
    Mutex {
        ready: u64,
    },
    /// Parked at the barrier: the barrier releases.
    Barrier {
        ready: u64,
    },
}

/// The per-tasklet counters the replay writes, kept as plain fields and
/// turned into one [`CounterSet`] per tasklet when the replay ends.
#[derive(Debug, Clone, Copy, Default)]
struct TaskletCounters {
    issue: u64,
    dispatch: u64,
    revolver: u64,
    rf: u64,
    dma_queue: u64,
    dma_startup: u64,
    dma_transfer: u64,
    mutex: u64,
    barrier: u64,
    tail: u64,
    spin_retries: u64,
    dma_transfers: u64,
    dma_bytes: u64,
    mutex_acquires: u64,
    barrier_crossings: u64,
}

impl TaskletCounters {
    fn to_set(self) -> CounterSet {
        let mut c = CounterSet::new();
        for (id, n) in [
            (CounterId::TaskletIssue, self.issue),
            (CounterId::TaskletDispatch, self.dispatch),
            (CounterId::TaskletRevolver, self.revolver),
            (CounterId::TaskletRf, self.rf),
            (CounterId::TaskletDmaQueue, self.dma_queue),
            (CounterId::TaskletDmaStartup, self.dma_startup),
            (CounterId::TaskletDmaTransfer, self.dma_transfer),
            (CounterId::TaskletMutex, self.mutex),
            (CounterId::TaskletBarrier, self.barrier),
            (CounterId::TaskletTail, self.tail),
            (CounterId::SpinRetries, self.spin_retries),
            (CounterId::DmaTransfers, self.dma_transfers),
            (CounterId::DmaBytes, self.dma_bytes),
            (CounterId::MutexAcquires, self.mutex_acquires),
            (CounterId::BarrierCrossings, self.barrier_crossings),
        ] {
            c.set(id, n);
        }
        c
    }
}

struct Thread<'a> {
    events: &'a [TraceEvent],
    ev: usize,
    /// Remaining instructions in the current `Compute` block.
    remaining: u32,
    /// Earliest cycle at which the next instruction may issue.
    avail: u64,
    status: Status,
    rf_pending: bool,
    /// Cumulative cycles spent blocked (DMA + mutex + barrier).
    stalled_cycles: u64,
    /// Cycle at which the thread blocked on mutex/barrier (for accounting).
    blocked_at: u64,
    // --- wait anatomy for the observability layer ---
    /// Cycle just after the last issue: start of the current wait interval,
    /// and where the tasklet's active span ends if it issues no more.
    wait_from: u64,
    stall: Stall,
    /// Revolver spacing satisfied.
    rev_ready: u64,
    /// RF-hazard penalty elapsed (== `rev_ready` when no hazard hit).
    rf_ready: u64,
    /// Per-tasklet observability counters.
    counters: TaskletCounters,
}

impl<'a> Thread<'a> {
    fn new(trace: &'a TaskletTrace) -> Self {
        let status = if trace.is_empty() { Status::Done } else { Status::Runnable };
        Thread {
            events: trace.events(),
            ev: 0,
            remaining: 0,
            avail: 0,
            status,
            rf_pending: false,
            stalled_cycles: 0,
            blocked_at: 0,
            wait_from: 0,
            stall: Stall::None,
            rev_ready: 0,
            rf_ready: 0,
            counters: TaskletCounters::default(),
        }
    }

    /// Attributes the wait interval `[wait_from, issue_at)` to the tasklet
    /// wait categories, walking the readiness thresholds in priority order
    /// (DMA engine, synchronization, revolver, RF) and charging whatever
    /// remains — the tasklet was ready but lost the issue slot — to
    /// dispatch contention. The segments partition the interval exactly.
    fn attribute_wait(&mut self, issue_at: u64) {
        let mut cur = self.wait_from;
        // The part of [cur, upto) before the issue; advances `cur` past it.
        let mut seg = |upto: u64| {
            let d = upto.min(issue_at).saturating_sub(cur);
            cur += d;
            d
        };
        let c = &mut self.counters;
        match self.stall {
            Stall::None => {}
            Stall::Dma { granted, started, done } => {
                c.dma_queue += seg(granted);
                c.dma_startup += seg(started);
                c.dma_transfer += seg(done);
            }
            Stall::Mutex { ready } => c.mutex += seg(ready),
            Stall::Barrier { ready } => c.barrier += seg(ready),
        }
        c.revolver += seg(self.rev_ready);
        c.rf += seg(self.rf_ready);
        c.dispatch += issue_at - cur;
    }

    /// Opens the wait that follows an issue at `issue_at` whose revolver
    /// spacing expires at `rev_ready`.
    fn begin_wait(&mut self, issue_at: u64, rev_ready: u64) {
        self.wait_from = issue_at + 1;
        self.stall = Stall::None;
        self.rev_ready = rev_ready;
        self.rf_ready = rev_ready;
    }
}

#[derive(Default)]
struct Mutex {
    held_by: Option<usize>,
}

/// The ready queue: the runnable tasklets, each once, in ascending order
/// of their key `(avail, tasklet id)` packed into one `u128`, in a ring
/// buffer. The head is the tasklet that can issue earliest, ties going to
/// the lowest id. A key is inserted by shifting its smaller or its larger
/// neighbours one slot, from whichever end of the queue is nearer: a
/// tasklet re-queued after an issue waits out the revolver period, so it
/// usually sorts behind its computing peers, and ahead of any stalled on
/// DMA.
struct ReadyQueue {
    /// Power-of-two capacity, at least the tasklet count.
    ring: Vec<u128>,
    /// Ring index of the smallest key.
    start: usize,
    len: usize,
}

impl ReadyQueue {
    fn new(tasklets: usize) -> Self {
        ReadyQueue { ring: vec![0; tasklets.next_power_of_two()], start: 0, len: 0 }
    }

    /// Ring index of the `i`-th queued key (`i` may run one past either
    /// end).
    fn slot(&self, i: usize) -> usize {
        self.start.wrapping_add(i) & (self.ring.len() - 1)
    }

    /// The `(avail, tasklet id)` of the next tasklet to issue.
    fn head(&self) -> Option<(u64, usize)> {
        (self.len > 0).then(|| {
            let key = self.ring[self.start];
            ((key >> 64) as u64, key as u64 as usize)
        })
    }

    /// Dequeues the head.
    fn pop(&mut self) {
        self.start = self.slot(1);
        self.len -= 1;
    }

    /// Queues `tid`, which must not be queued, to issue at `avail`.
    fn push(&mut self, avail: u64, tid: usize) {
        let key = (u128::from(avail) << 64) | tid as u128;
        let mut at;
        if self.len > 0 && key < self.ring[self.slot(self.len / 2)] {
            // Front half: open a slot before the head and shift the
            // smaller keys into it.
            self.start = self.slot(usize::MAX);
            at = 0;
            while at < self.len {
                let next = self.ring[self.slot(at + 1)];
                if next > key {
                    break;
                }
                let to = self.slot(at);
                self.ring[to] = next;
                at += 1;
            }
        } else {
            at = self.len;
            while at > 0 {
                let prev = self.ring[self.slot(at - 1)];
                if prev < key {
                    break;
                }
                let to = self.slot(at);
                self.ring[to] = prev;
                at -= 1;
            }
        }
        let to = self.slot(at);
        self.ring[to] = key;
        self.len += 1;
    }
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
/// one DPU's observability profile: its counter rollup (makespan, slot
/// partition, events), one exact per-tasklet cycle attribution each, its
/// instruction mix and its average active tasklets.
///
/// Runnable tasklets wait in a ready queue ordered by `(avail, tasklet
/// id)`: each issue slot goes to the tasklet that can issue earliest,
/// ties to the lowest id.
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
/// These indicate a malformed kernel trace, not a data-dependent
/// condition:
///
/// * a tasklet unlocks a mutex it does not hold (or one no tasklet ever
///   locked);
/// * deadlock: a tasklet waits on a mutex whose holder can never release
///   it — the holder finished, is parked at the barrier, or waits
///   (directly or through a chain of holders) on a mutex held by the
///   requester, by a tasklet already in the chain, or by one of the first
///   two.
pub fn simulate_dpu_profiled(traces: &[TaskletTrace], cfg: &PipelineConfig) -> DpuProfile {
    let mut threads: Vec<Thread<'_>> = traces.iter().map(Thread::new).collect();
    let n = threads.len();
    let mut ready = ReadyQueue::new(n);
    for (tid, th) in threads.iter().enumerate() {
        if th.status == Status::Runnable {
            ready.push(0, tid);
        }
    }
    let mut mutexes: Vec<Mutex> = Vec::new();
    let mut engine_free: u64 = 0;

    let mut cycle: u64 = 0; // next free issue slot
    let mut issued: u64 = 0;
    let mut idle_mem: u64 = 0;
    let mut idle_rf: u64 = 0;
    let mut mix = InstrMix::new();
    for t in traces {
        mix.merge(&t.instr_mix());
    }
    let hazard_threshold = (cfg.rf_hazard_rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    let revolver = cfg.revolver_period as u64;
    let rf_penalty = cfg.rf_hazard_penalty as u64;

    while let Some((avail, tid)) = ready.head() {
        let th = &mut threads[tid];
        let issue_at = avail.max(cycle);
        // Attribute the idle gap [cycle, issue_at), if any; what memory and
        // the RF hazard leave of it is revolver idle. Some tasklet is
        // stalled on DMA exactly when the engine is still busy: every
        // blocking DMA ends no later than the last one, which ends when
        // the engine frees.
        let gap = issue_at - cycle;
        let memory_stalled = !cfg.non_blocking_dma && engine_free > cycle;
        idle_mem += if memory_stalled { gap } else { 0 };
        idle_rf += if !memory_stalled && th.rf_pending { gap.min(rf_penalty) } else { 0 };
        th.rf_pending = false;

        // Tasklet-level: settle the wait interval that ends at this issue.
        th.attribute_wait(issue_at);
        th.counters.issue += 1;

        // Issue exactly one instruction of the current event at `issue_at`.
        let event = th.events[th.ev];
        issued += 1;
        cycle = issue_at + 1;
        let mut next_avail = issue_at + revolver;
        th.begin_wait(issue_at, next_avail);

        if let TraceEvent::Compute { class, count } = event {
            // Register-file even/odd bank conflict on register-reading
            // classes.
            let hazard =
                class.reads_registers() && mix64(issued ^ ((tid as u64) << 48)) < hazard_threshold;
            if hazard {
                next_avail += rf_penalty;
            }
            th.rf_pending = hazard;
            th.rf_ready = next_avail;
            th.avail = next_avail;
            if th.remaining == 0 {
                th.remaining = count;
            }
            th.remaining -= 1;
            if th.remaining == 0 {
                th.ev += 1;
            }
            ready.pop();
            if th.ev < th.events.len() {
                ready.push(next_avail, tid);
            } else {
                th.status = Status::Done;
                // A tasklet finishing may be the last thing a barrier
                // waits on.
                try_release_barrier(&mut threads, cycle, &mut ready, tid);
            }
            continue;
        }

        // DMA and synchronization leave the queue; the tasklet is re-queued
        // below if it stays runnable.
        ready.pop();
        match event {
            TraceEvent::Compute { .. } => {} // issued above
            TraceEvent::Dma { bytes } => {
                // DMA through the serialized per-DPU engine. On the real
                // machine the issuing tasklet blocks until completion; the
                // §6.4 what-if lets it keep computing.
                let start = engine_free.max(cycle);
                let done = start + cfg.dma_cycles(bytes);
                engine_free = done;
                th.counters.dma_transfers += 1;
                th.counters.dma_bytes += bytes as u64;
                if !cfg.non_blocking_dma {
                    th.stalled_cycles += done.saturating_sub(cycle);
                    next_avail = next_avail.max(done);
                    th.stall = Stall::Dma {
                        granted: start,
                        started: (start + cfg.dma_startup_cycles as u64).min(done),
                        done,
                    };
                }
            }
            TraceEvent::MutexLock { id } => {
                if mutexes.len() <= id as usize {
                    mutexes.resize_with(id as usize + 1, Mutex::default);
                }
                match mutexes[id as usize].held_by {
                    None => {
                        mutexes[id as usize].held_by = Some(tid);
                        th.counters.mutex_acquires += 1;
                    }
                    Some(holder) => {
                        // Contended acquire: the attempt failed, the tasklet
                        // backs off and retries (§6.4.2 — contention inflates
                        // sync instruction counts). The event is not consumed.
                        th.counters.spin_retries += 1;
                        mix.add(InstrClass::Sync, 1);
                        let backoff = cfg.mutex_backoff_cycles as u64;
                        th.stall = Stall::Mutex { ready: issue_at + backoff };
                        th.avail = (issue_at + backoff).max(next_avail);
                        th.stalled_cycles += backoff;
                        ready.push(th.avail, tid);
                        assert!(
                            holder_can_release(&threads, &mutexes, holder, tid),
                            "deadlock: tasklet {tid} waits on mutex {id}, which its holder \
                             (tasklet {holder}) can never release",
                        );
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
                th.counters.barrier_crossings += 1;
                th.status = Status::BarrierWait;
                th.blocked_at = cycle;
                try_release_barrier(&mut threads, cycle, &mut ready, tid);
            }
        }

        // Consume the instruction and update thread scheduling state.
        // (avail carries the revolver spacing even across mutex/barrier
        // blocking, so a woken thread still honours the dispatch gap.)
        let th = &mut threads[tid];
        th.avail = next_avail;
        th.ev += 1;
        if th.ev >= th.events.len() {
            th.status = Status::Done;
            try_release_barrier(&mut threads, cycle, &mut ready, tid);
        } else if th.status == Status::Runnable {
            ready.push(next_avail, tid);
        }
    }
    // The barrier releases as soon as the queue drains, so a drained queue
    // means every tasklet finished.
    assert!(
        threads.iter().all(|t| t.status == Status::Done),
        "the ready queue drained with tasklets still parked"
    );

    // An in-flight DMA keeps the kernel alive even when no instruction
    // follows it; the makespan covers the last completion, and the trailing
    // wait is a memory stall.
    idle_mem += engine_free.saturating_sub(cycle);
    let total_cycles = cycle.max(engine_free) + cfg.pipeline_depth as u64;
    let active_thread_area: u64 = threads
        .iter()
        .map(|t| t.wait_from.saturating_sub(t.stalled_cycles))
        .sum();
    let avg_active_threads =
        if total_cycles == 0 { 0.0 } else { active_thread_area as f64 / total_cycles as f64 };

    // Close every tasklet's books: whatever follows its last issue — peer
    // skew, the trailing DMA window, and pipeline drain — is its tail.
    let mut counters = CounterSet::new();
    let mut tasklets = Vec::with_capacity(n);
    for th in &mut threads {
        th.counters.tail += total_cycles - th.wait_from.min(total_cycles);
        let set = th.counters.to_set();
        debug_assert_eq!(
            set.sum(&CounterId::TASKLET_CYCLES),
            total_cycles,
            "tasklet cycle attribution must partition the makespan",
        );
        counters.merge(&set);
        tasklets.push(set);
    }
    // Every slot neither issued nor idle on memory or an RF hazard —
    // revolver gaps, sync-induced underutilization and pipeline drain — is
    // revolver idle.
    counters.add(CounterId::SlotIssue, issued);
    counters.add(CounterId::SlotMemory, idle_mem);
    counters.add(CounterId::SlotRevolver, total_cycles - issued - idle_mem - idle_rf);
    counters.add(CounterId::SlotRf, idle_rf);
    counters.add(CounterId::DpuCycles, total_cycles);
    counters.add(CounterId::TaskletBudget, n as u64 * total_cycles);

    DpuProfile { counters, tasklets, instr_mix: mix, avg_active_threads }
}

/// Whether the holder of a mutex that `requester` waits on can still
/// release it. It cannot when it finished, is parked at the barrier (which
/// the waiting requester has not reached), or itself waits on a mutex
/// whose chain of holders leads back to the requester, closes a cycle, or
/// ends in one of the first two states.
fn holder_can_release(
    threads: &[Thread<'_>],
    mutexes: &[Mutex],
    holder: usize,
    requester: usize,
) -> bool {
    let mut h = holder;
    // A chain longer than the tasklet count revisits a tasklet: a cycle.
    for _ in 0..threads.len() {
        let th = &threads[h];
        if h == requester || th.status != Status::Runnable {
            return false;
        }
        let next = match th.events.get(th.ev) {
            Some(TraceEvent::MutexLock { id }) => mutexes.get(*id as usize).and_then(|m| m.held_by),
            _ => None,
        };
        match next {
            Some(next) => h = next,
            None => return true,
        }
    }
    false
}

/// Called after `issuing` parked at the barrier or finished (so it is not
/// queued): releases the all-tasklet barrier once every live tasklet has
/// arrived, which is when none is left in the ready queue. The parked
/// tasklets return to the queue — all but `issuing`, which its caller
/// re-queues once its next availability is known.
fn try_release_barrier(
    threads: &mut [Thread<'_>],
    cycle: u64,
    ready: &mut ReadyQueue,
    issuing: usize,
) {
    if ready.len > 0 {
        return;
    }
    for (i, th) in threads.iter_mut().enumerate() {
        if th.status == Status::BarrierWait {
            th.status = Status::Runnable;
            th.stalled_cycles += cycle - th.blocked_at;
            th.avail = th.avail.max(cycle);
            th.stall = Stall::Barrier { ready: cycle };
            if i != issuing {
                ready.push(th.avail, i);
            }
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
/// cycle estimate plus the exact instruction mix that
/// [`TaskletTrace::instr_mix`] would give summed over the tasklets (its
/// total is the instructions they issue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEstimate {
    /// Estimated makespan in cycles, including pipeline drain.
    pub cycles: u64,
    /// Instruction-mix histogram of the tasklets.
    pub mix: InstrMix,
}

/// Cheap analytic lower-bound-style estimate of the cycles a trace set
/// needs, used for DPUs outside the detailed sample
/// ([`crate::config::SimFidelity::Sampled`]), together with the trace
/// set's instruction mix, both from a single walk of the events.
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
    let cycles = estimate_bound(loads, cfg);
    TraceEstimate { cycles, mix }
}

/// [`estimate_cycles`] fed by [`TaskletStats`] recorders instead of event
/// traces: the same calls recorded into either recorder give the same
/// estimate and mix.
pub fn estimate_stats(stats: &[TaskletStats], cfg: &PipelineConfig) -> TraceEstimate {
    let mut mix = InstrMix::new();
    for s in stats {
        mix.merge(&s.instr_mix());
    }
    let cycles = estimate_bound(stats.iter().map(|s| (s.instructions(), s.dma_cycles())), cfg);
    TraceEstimate { cycles, mix }
}

/// The estimate formula over per-tasklet `(instructions, DMA cycles)`
/// loads: the largest of the issue, per-thread revolver and DMA engine
/// bounds plus pipeline drain.
fn estimate_bound(loads: impl Iterator<Item = (u64, u64)>, cfg: &PipelineConfig) -> u64 {
    let mut issue_bound: u64 = 0;
    let mut thread_bound: u64 = 0;
    let mut dma_bound: u64 = 0;
    for (instrs, dma_wait) in loads {
        issue_bound += instrs;
        dma_bound += dma_wait;
        thread_bound = thread_bound.max(instrs * cfg.revolver_period as u64 + dma_wait);
    }
    issue_bound.max(thread_bound).max(dma_bound) + cfg.pipeline_depth as u64
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
        let r = simulate_dpu_profiled(&[TaskletTrace::new()], &cfg());
        assert_eq!(r.counters.get(CounterId::SlotIssue), 0);
        assert_eq!(r.counters.get(CounterId::DpuCycles), cfg().pipeline_depth as u64);
    }

    #[test]
    fn single_thread_is_revolver_bound() {
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 100);
        let r = simulate_dpu_profiled(&[t], &cfg());
        assert_eq!(r.counters.get(CounterId::SlotIssue), 100);
        // 100 instructions spaced 11 apart: last issues at cycle 99*11.
        let makespan = 99 * 11 + 1 + cfg().pipeline_depth as u64;
        assert_eq!(r.counters.get(CounterId::DpuCycles), makespan);
        assert!(r.counters.get(CounterId::SlotRevolver) > 0);
        assert_eq!(r.counters.get(CounterId::SlotMemory), 0);
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
        let r = simulate_dpu_profiled(&traces, &cfg());
        assert_eq!(r.counters.get(CounterId::SlotIssue), 550);
        // With >= revolver_period ready threads the pipeline issues every
        // cycle: makespan ~= instruction count.
        assert!(r.counters.get(CounterId::DpuCycles) <= 550 + cfg().pipeline_depth as u64 + 11);
        assert_eq!(r.counters.get(CounterId::SlotMemory), 0);
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
        let r2 = simulate_dpu_profiled(&work(2, 800), &cfg());
        let r16 = simulate_dpu_profiled(&work(16, 100), &cfg());
        assert!(r16.counters.get(CounterId::DpuCycles) < r2.counters.get(CounterId::DpuCycles));
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
        let r = simulate_dpu_profiled(&[t0, t1], &cfg());
        assert_eq!(r.counters.get(CounterId::SlotIssue), 206);
        // Thread 1's 200 instructions spaced 11 apart dominate.
        assert!(r.counters.get(CounterId::DpuCycles) >= 199 * 11);
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
        let one = simulate_dpu_profiled(&[mk(8)], &cfg());
        let spread: Vec<TaskletTrace> = (0..8).map(|_| mk(1)).collect();
        let eight = simulate_dpu_profiled(&spread, &cfg());
        // Same total bytes through one serialized engine: similar makespan.
        let cycles = |p: &DpuProfile| p.counters.get(CounterId::DpuCycles) as f64;
        let ratio = cycles(&eight) / cycles(&one);
        assert!(ratio > 0.8 && ratio < 1.2, "ratio {ratio}");
        assert!(one.counters.get(CounterId::SlotMemory) > 0);
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
        let contended = simulate_dpu_profiled(&[mk(), mk(), mk(), mk()], &cfg());
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
        let free = simulate_dpu_profiled(&[mk_id(0), mk_id(1), mk_id(2), mk_id(3)], &cfg());
        let (c, f) = (&contended.counters, &free.counters);
        assert!(c.get(CounterId::DpuCycles) > f.get(CounterId::DpuCycles));
        // Contention produces retry attempts, each an extra Sync issue.
        assert!(c.get(CounterId::SpinRetries) > 0);
        assert_eq!(f.get(CounterId::SpinRetries), 0);
        assert_eq!(
            c.get(CounterId::SlotIssue),
            f.get(CounterId::SlotIssue) + c.get(CounterId::SpinRetries),
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
        let r = simulate_dpu_profiled(&[t0, t1], &cfg());
        assert!(r.counters.get(CounterId::DpuCycles) >= 299 * 11);
        assert_eq!(r.counters.get(CounterId::SlotIssue), 1 + 1 + 300 + 1 + 2);
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
        let c = simulate_dpu_profiled(&[t0b, t1], &cfg()).counters;
        assert_eq!(c.get(CounterId::DpuCycles), c.sum(&CounterId::SLOT_CYCLES));
    }

    #[test]
    fn rf_hazards_appear_when_enabled() {
        let mut c = cfg();
        c.rf_hazard_rate = 1.0; // every register-reading instruction conflicts
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 50);
        let hazard = simulate_dpu_profiled(&[t.clone()], &c);
        let clean = simulate_dpu_profiled(&[t], &cfg());
        let (h, c) = (&hazard.counters, &clean.counters);
        assert!(h.get(CounterId::DpuCycles) > c.get(CounterId::DpuCycles));
        assert!(h.get(CounterId::SlotRf) > 0);
        assert_eq!(c.get(CounterId::SlotRf), 0);
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
        let r1 = simulate_dpu_profiled(&mk(1), &cfg());
        let r8 = simulate_dpu_profiled(&mk(8), &cfg());
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
        simulate_dpu_profiled(&[holder, t], &cfg());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn holder_finishing_without_unlock_deadlocks() {
        let mut holder = TaskletTrace::new();
        holder.mutex_lock(0);
        holder.compute(InstrClass::Arith, 1);
        let mut waiter = TaskletTrace::new();
        waiter.compute(InstrClass::Arith, 5);
        waiter.mutex_lock(0);
        waiter.mutex_unlock(0);
        simulate_dpu_profiled(&[holder, waiter], &cfg());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn holder_parked_at_the_barrier_deadlocks() {
        // The holder waits at the barrier for the waiter, which cannot
        // reach it without the holder's mutex.
        let mut holder = TaskletTrace::new();
        holder.mutex_lock(0);
        holder.barrier();
        holder.mutex_unlock(0);
        let mut waiter = TaskletTrace::new();
        waiter.compute(InstrClass::Arith, 3);
        waiter.mutex_lock(0);
        waiter.mutex_unlock(0);
        waiter.barrier();
        simulate_dpu_profiled(&[holder, waiter], &cfg());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn crossed_mutexes_deadlock() {
        // Each tasklet holds the mutex the other one wants.
        let crossed = |first: u16, second: u16| {
            let mut t = TaskletTrace::new();
            t.mutex_lock(first);
            t.compute(InstrClass::Arith, 20);
            t.mutex_lock(second);
            t.mutex_unlock(second);
            t.mutex_unlock(first);
            t
        };
        simulate_dpu_profiled(&[crossed(0, 1), crossed(1, 0)], &cfg());
    }

    #[test]
    fn waiting_behind_a_waiting_holder_is_no_deadlock() {
        // Tasklet 2 waits on mutex 1, whose holder waits on mutex 0, whose
        // holder is still computing: the chain drains.
        let mut first = TaskletTrace::new();
        first.mutex_lock(0);
        first.compute(InstrClass::Arith, 30);
        first.mutex_unlock(0);
        let mut middle = TaskletTrace::new();
        middle.compute(InstrClass::Arith, 2);
        middle.mutex_lock(1);
        middle.mutex_lock(0);
        middle.mutex_unlock(0);
        middle.mutex_unlock(1);
        let mut last = TaskletTrace::new();
        last.compute(InstrClass::Arith, 5);
        last.mutex_lock(1);
        last.mutex_unlock(1);
        let c = simulate_dpu_profiled(&[first, middle, last], &cfg()).counters;
        assert!(c.get(CounterId::SpinRetries) > 0);
        assert_eq!(c.get(CounterId::SlotIssue), 32 + 6 + 7 + c.get(CounterId::SpinRetries));
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
        let sim = simulate_dpu_profiled(&traces, &cfg()).counters.get(CounterId::DpuCycles);
        let sim = sim as f64;
        let est = estimate_cycles(&traces, &cfg()).cycles as f64;
        let ratio = sim / est;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }

    // --- observability-layer tests ---

    fn assert_tasklet_partition(profile: &DpuProfile) {
        let total = profile.counters.get(CounterId::DpuCycles);
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
        assert_eq!(idle.get(CounterId::TaskletTail), p.counters.get(CounterId::DpuCycles));
        assert_eq!(idle.get(CounterId::TaskletIssue), 0);
        assert_tasklet_partition(&p);
    }
}
