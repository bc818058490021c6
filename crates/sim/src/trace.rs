//! Per-tasklet event traces — the interface between kernels and the
//! pipeline simulator.
//!
//! Kernels in the core crate execute *functionally* in Rust while recording
//! what the equivalent DPU tasklet would do: blocks of instructions by
//! class, blocking DMA transfers, and synchronization operations. The
//! pipeline model (see [`crate::pipeline`]) then replays these traces to
//! produce cycle-accurate timing without re-deriving the computation.

use crate::instr::{InstrClass, InstrMix};

/// The recording interface shared by the cycle-replay and analytic paths.
///
/// Kernel builders are generic over a `Record` implementation: recording
/// into a [`TaskletTrace`] produces the event stream the pipeline replayer
/// consumes, while recording into
/// [`crate::analytic::TaskletStats`] accumulates the closed-form statistics
/// the analytic performance model predicts from — with no event emission.
/// Both recorders observe the *same* calls from the *same* functional
/// kernel code, which is what keeps result values bit-identical between
/// the two paths by construction.
pub trait Record {
    /// Records `count` instructions of `class`. Zero counts are ignored.
    fn compute(&mut self, class: InstrClass, count: u32);

    /// Records `times` back-to-back copies of `blocks`, a fixed list of
    /// `(class, count)` compute blocks such as one matrix entry's cost.
    /// Implementations may replace the default call loop with a closed
    /// form as long as everything recorded is identical.
    fn compute_repeated(&mut self, blocks: &[(InstrClass, u32)], times: u64) {
        for _ in 0..times {
            for &(class, count) in blocks {
                self.compute(class, count);
            }
        }
    }

    /// Records a blocking DMA transfer. Zero-byte transfers are ignored.
    fn dma(&mut self, bytes: u32);

    /// Records a streaming read of `total_bytes` in `chunk_bytes` chunks
    /// with `per_chunk_overhead` bookkeeping instructions per chunk.
    /// Implementations may replace the default chunk loop with a closed
    /// form as long as the recorded totals are identical.
    fn dma_stream(&mut self, total_bytes: u64, chunk_bytes: u32, per_chunk_overhead: u32) {
        assert!(chunk_bytes > 0, "chunk_bytes must be positive");
        let mut remaining = total_bytes;
        while remaining > 0 {
            let this = remaining.min(chunk_bytes as u64) as u32;
            self.dma(this);
            self.compute(InstrClass::Control, per_chunk_overhead);
            remaining -= this as u64;
        }
    }

    /// Records a mutex acquisition.
    fn mutex_lock(&mut self, id: u16);

    /// Records a mutex release.
    fn mutex_unlock(&mut self, id: u16);

    /// Records arrival at the all-tasklet barrier.
    fn barrier(&mut self);
}

/// One event in a tasklet's execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `count` back-to-back instructions of the same class.
    Compute {
        /// Instruction class.
        class: InstrClass,
        /// Number of instructions (> 0).
        count: u32,
    },
    /// A blocking MRAM↔WRAM DMA of `bytes` bytes. Issues one `Dma`
    /// instruction, then stalls the tasklet until the (shared, serialized)
    /// DMA engine finishes the transfer.
    Dma {
        /// Transfer size in bytes.
        bytes: u32,
    },
    /// Acquire the mutex `id` (one `Sync` instruction; blocks if held).
    MutexLock {
        /// Mutex identifier, local to the DPU.
        id: u16,
    },
    /// Release the mutex `id` (one `Sync` instruction).
    MutexUnlock {
        /// Mutex identifier, local to the DPU.
        id: u16,
    },
    /// Arrive at the all-tasklet barrier (one `Sync` instruction; blocks
    /// until every live tasklet arrives).
    Barrier,
}

/// The recorded execution of one tasklet.
///
/// Built through the recording methods, which coalesce consecutive compute
/// events of the same class to keep traces compact.
///
/// # Example
///
/// ```
/// use alpha_pim_sim::trace::TaskletTrace;
/// use alpha_pim_sim::instr::InstrClass;
///
/// let mut t = TaskletTrace::new();
/// t.dma(256);
/// t.compute(InstrClass::Arith, 8);
/// t.compute(InstrClass::Arith, 4); // coalesced with the previous block
/// t.barrier();
/// assert_eq!(t.events().len(), 3);
/// assert_eq!(t.instructions(), 1 + 12 + 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskletTrace {
    events: Vec<TraceEvent>,
}

impl TaskletTrace {
    /// An empty trace.
    pub fn new() -> Self {
        TaskletTrace::default()
    }

    /// Records `count` instructions of `class`. Zero counts are ignored.
    pub fn compute(&mut self, class: InstrClass, count: u32) {
        if count == 0 {
            return;
        }
        if let Some(TraceEvent::Compute { class: last, count: n }) = self.events.last_mut() {
            if *last == class {
                *n = n.saturating_add(count);
                return;
            }
        }
        self.events.push(TraceEvent::Compute { class, count });
    }

    /// Records a blocking DMA transfer. Zero-byte transfers are ignored.
    pub fn dma(&mut self, bytes: u32) {
        if bytes > 0 {
            self.events.push(TraceEvent::Dma { bytes });
        }
    }

    /// Records a streaming read of `total_bytes` performed in WRAM chunks
    /// of `chunk_bytes`, with `per_chunk_overhead` bookkeeping instructions
    /// per chunk — the coarse-grained DMA pattern of §4.1.3.
    pub fn dma_stream(&mut self, total_bytes: u64, chunk_bytes: u32, per_chunk_overhead: u32) {
        assert!(chunk_bytes > 0, "chunk_bytes must be positive");
        let mut remaining = total_bytes;
        while remaining > 0 {
            let this = remaining.min(chunk_bytes as u64) as u32;
            self.dma(this);
            self.compute(InstrClass::Control, per_chunk_overhead);
            remaining -= this as u64;
        }
    }

    /// Records a mutex acquisition.
    pub fn mutex_lock(&mut self, id: u16) {
        self.events.push(TraceEvent::MutexLock { id });
    }

    /// Records a mutex release.
    pub fn mutex_unlock(&mut self, id: u16) {
        self.events.push(TraceEvent::MutexUnlock { id });
    }

    /// Records arrival at the all-tasklet barrier.
    pub fn barrier(&mut self) {
        self.events.push(TraceEvent::Barrier);
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total instructions this trace will issue (compute + one per DMA,
    /// mutex op, and barrier).
    pub fn instructions(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Compute { count, .. } => *count as u64,
                _ => 1,
            })
            .sum()
    }

    /// Total bytes moved by DMA events.
    pub fn dma_bytes(&self) -> u64 {
        self.events
            .iter()
            .map(|e| if let TraceEvent::Dma { bytes } = e { *bytes as u64 } else { 0 })
            .sum()
    }

    /// Instruction-mix histogram of this trace (exact, no simulation).
    pub fn instr_mix(&self) -> InstrMix {
        let mut mix = InstrMix::new();
        for e in &self.events {
            match e {
                TraceEvent::Compute { class, count } => mix.add(*class, *count as u64),
                TraceEvent::Dma { .. } => mix.add(InstrClass::Dma, 1),
                TraceEvent::MutexLock { .. }
                | TraceEvent::MutexUnlock { .. }
                | TraceEvent::Barrier => mix.add(InstrClass::Sync, 1),
            }
        }
        mix
    }
}

impl Record for TaskletTrace {
    fn compute(&mut self, class: InstrClass, count: u32) {
        TaskletTrace::compute(self, class, count);
    }

    fn dma(&mut self, bytes: u32) {
        TaskletTrace::dma(self, bytes);
    }

    fn dma_stream(&mut self, total_bytes: u64, chunk_bytes: u32, per_chunk_overhead: u32) {
        TaskletTrace::dma_stream(self, total_bytes, chunk_bytes, per_chunk_overhead);
    }

    fn mutex_lock(&mut self, id: u16) {
        TaskletTrace::mutex_lock(self, id);
    }

    fn mutex_unlock(&mut self, id: u16) {
        TaskletTrace::mutex_unlock(self, id);
    }

    fn barrier(&mut self) {
        TaskletTrace::barrier(self);
    }
}

/// A seeded open-loop arrival process over the model clock.
///
/// Generates Poisson-like query arrival times (exponential inter-arrival
/// gaps via inverse-CDF over a pure-hash uniform draw) measured in DPU
/// cycles. "Open-loop" means arrivals do not react to service progress:
/// the i-th arrival time is a pure function of `(seed, mean_gap_cycles,
/// i)`, so the process is bit-identical across runs and thread counts and
/// never consults a wall clock. The sustained-load service benchmark
/// replays these timestamps against its virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopArrivals {
    seed: u64,
    mean_gap_cycles: u64,
}

impl OpenLoopArrivals {
    /// A process with the given seed and mean inter-arrival gap in cycles.
    /// A zero mean degenerates to back-to-back arrivals (all gaps zero).
    pub fn new(seed: u64, mean_gap_cycles: u64) -> Self {
        OpenLoopArrivals { seed, mean_gap_cycles }
    }

    /// The mean inter-arrival gap in cycles.
    pub fn mean_gap_cycles(&self) -> u64 {
        self.mean_gap_cycles
    }

    /// The inter-arrival gap preceding arrival `i` (exponentially
    /// distributed with the configured mean; deterministic in `(seed, i)`).
    pub fn gap(&self, i: u64) -> u64 {
        if self.mean_gap_cycles == 0 {
            return 0;
        }
        // SplitMix64 finalizer over (seed, i) -> uniform u in [0, 1).
        let mut z = self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        // Inverse CDF of the exponential: -mean * ln(1 - u), u < 1.
        let gap = -(self.mean_gap_cycles as f64) * (1.0 - u).ln();
        // Cap the tail at 64 means so a single draw can never stall the
        // clock indefinitely (P(gap > 64 means) ≈ e^-64).
        gap.min(self.mean_gap_cycles as f64 * 64.0).ceil() as u64
    }

    /// The first `count` arrival times (cumulative gaps), non-decreasing.
    pub fn times(&self, count: usize) -> Vec<u64> {
        let mut t = 0u64;
        (0..count as u64)
            .map(|i| {
                t = t.saturating_add(self.gap(i));
                t
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_coalesces_same_class() {
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 3);
        t.compute(InstrClass::Arith, 5);
        t.compute(InstrClass::Control, 1);
        t.compute(InstrClass::Arith, 2);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.instructions(), 11);
    }

    #[test]
    fn zero_counts_and_bytes_are_ignored() {
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 0);
        t.dma(0);
        assert!(t.is_empty());
    }

    #[test]
    fn dma_stream_splits_into_chunks() {
        let mut t = TaskletTrace::new();
        t.dma_stream(1000, 256, 2);
        let dmas: Vec<u32> = t
            .events()
            .iter()
            .filter_map(|e| if let TraceEvent::Dma { bytes } = e { Some(*bytes) } else { None })
            .collect();
        assert_eq!(dmas, vec![256, 256, 256, 232]);
        assert_eq!(t.dma_bytes(), 1000);
    }

    #[test]
    fn instr_mix_counts_every_event_kind() {
        let mut t = TaskletTrace::new();
        t.compute(InstrClass::Arith, 4);
        t.dma(64);
        t.mutex_lock(0);
        t.mutex_unlock(0);
        t.barrier();
        let mix = t.instr_mix();
        assert_eq!(mix.count(InstrClass::Arith), 4);
        assert_eq!(mix.count(InstrClass::Dma), 1);
        assert_eq!(mix.count(InstrClass::Sync), 3);
        assert_eq!(mix.total(), t.instructions());
    }

    #[test]
    #[should_panic(expected = "chunk_bytes")]
    fn dma_stream_rejects_zero_chunk() {
        TaskletTrace::new().dma_stream(10, 0, 0);
    }

    #[test]
    fn arrivals_are_deterministic_and_monotone() {
        let a = OpenLoopArrivals::new(0xA11CE, 500);
        let t1 = a.times(10_000);
        let t2 = a.times(10_000);
        assert_eq!(t1, t2);
        assert!(t1.windows(2).all(|w| w[0] <= w[1]), "times must be non-decreasing");
        // Different seeds draw different processes.
        assert_ne!(t1, OpenLoopArrivals::new(0xB0B, 500).times(10_000));
    }

    #[test]
    fn arrival_gaps_average_near_the_mean() {
        let mean = 1_000u64;
        let a = OpenLoopArrivals::new(7, mean);
        let n = 50_000usize;
        let last = *a.times(n).last().expect("non-empty");
        let empirical = last as f64 / n as f64;
        let rel = (empirical - mean as f64).abs() / mean as f64;
        assert!(rel < 0.05, "empirical mean gap {empirical} vs {mean} (rel {rel})");
    }

    #[test]
    fn zero_mean_degenerates_to_back_to_back() {
        let a = OpenLoopArrivals::new(3, 0);
        assert!(a.times(100).iter().all(|&t| t == 0));
    }
}
