//! Host-side resilience policy: what the runtime does once a fault is
//! detected.
//!
//! The [`crate::faults`] oracle decides *what breaks*; this module holds the
//! recovery math and accounting shared by the evaluation path
//! ([`crate::report`]), the transfer layer ([`crate::system`]), and the CLI's
//! chaos report. Three responses, in escalation order:
//!
//! 1. **Bounded retry with exponential backoff** — ECC events on DMA and
//!    transfer timeouts are retried up to `max_retries` times, each round
//!    waiting `backoff_base_cycles << round` simulated cycles.
//! 2. **Partition redistribution** — a dead DPU's row block is re-run on a
//!    healthy DPU (serialized after its own work, so the penalty is the
//!    block's own makespan plus one detection window).
//! 3. **Graceful degradation** — with redistribution disabled or no healthy
//!    DPU left, the kernel completes without the dead partitions and the
//!    report carries a `degraded` flag plus per-fault accounting.

use crate::config::ResiliencePolicy;
use crate::counters::{CounterId, CounterSet};

/// Total backoff wait of `retries` exponential rounds, in simulated cycles
/// (`base, 2·base, 4·base, …`; the shift is capped so the sum stays finite
/// for adversarial retry counts, and the whole sum saturates at
/// `u64::MAX` rather than overflowing for adversarial base cycles).
pub fn backoff_cycles(policy: &ResiliencePolicy, retries: u32) -> u64 {
    crate::faults::saturating_backoff(policy.backoff_base_cycles, retries)
}

/// Wall-clock seconds a transfer timeout adds: each retry re-sends the
/// whole batch and then waits out its backoff window.
pub fn timeout_penalty_seconds(
    policy: &ResiliencePolicy,
    batch_seconds: f64,
    retries: u32,
    cycle_seconds: f64,
) -> f64 {
    crate::transfer::retransmit_seconds(batch_seconds, retries)
        + backoff_cycles(policy, retries) as f64 * cycle_seconds
}

/// Records one detected-and-recovered transfer timeout with its retry
/// rounds into `events`.
pub fn record_timeout(events: &mut CounterSet, retries: u32) {
    events.add(CounterId::FaultTimeouts, 1);
    events.add(CounterId::FaultRetries, retries as u64);
    events.add(CounterId::FaultsInjected, 1);
    events.add(CounterId::FaultsDetected, 1);
    events.add(CounterId::FaultsRecovered, 1);
}

/// The resilience ledger of one run, decoded from the counter registry.
/// `injected == detected` and `detected == recovered + lost` hold by
/// construction; the invariant suite asserts both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Faults the plan injected.
    pub injected: u64,
    /// Faults the host detected (ECC events, heartbeat losses, timeouts).
    pub detected: u64,
    /// Faults recovered by retry or redistribution.
    pub recovered: u64,
    /// Faults that cost functional results (dropped partitions).
    pub lost: u64,
    /// Total retry rounds across ECC scrubs and transfer re-sends.
    pub retries: u64,
    /// Dead-DPU row blocks re-run on healthy DPUs.
    pub redistributions: u64,
    /// Transfer batches that timed out.
    pub timeouts: u64,
    /// Makespan cycles lost to stragglers (detailed DPUs only).
    pub straggler_cycles: u64,
    /// Makespan cycles lost to retry/redistribution (detailed DPUs only).
    pub retry_cycles: u64,
}

impl FaultSummary {
    /// Decodes the ledger from a merged counter set (e.g. a
    /// `KernelReport`'s breakdown counters).
    pub fn from_counters(c: &CounterSet) -> Self {
        FaultSummary {
            injected: c.get(CounterId::FaultsInjected),
            detected: c.get(CounterId::FaultsDetected),
            recovered: c.get(CounterId::FaultsRecovered),
            lost: c.get(CounterId::FaultsLost),
            retries: c.get(CounterId::FaultRetries),
            redistributions: c.get(CounterId::FaultRedistributions),
            timeouts: c.get(CounterId::FaultTimeouts),
            straggler_cycles: c.get(CounterId::FaultStragglerCycles),
            retry_cycles: c.get(CounterId::FaultRetryCycles),
        }
    }

    /// Whether every detected fault was recovered.
    pub fn fully_recovered(&self) -> bool {
        self.lost == 0
    }
}

/// The crash-recovery ledger of one serving batch, decoded from the
/// `ckpt.*` / `serve.shed` counters the checkpointing engine maintains.
///
/// These are event counters, not cycle buckets: they sit outside the
/// zero-remainder cycle partitions, and `restores` is the one counter
/// allowed to differ between a resumed run and its uninterrupted twin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Snapshots taken at superstep boundaries.
    pub snapshots: u64,
    /// Bytes sealed into snapshots and journal records (checkpoint
    /// overhead, headers included).
    pub bytes: u64,
    /// Batches restored from a checkpoint.
    pub restores: u64,
    /// Queries shed for blowing their cycle deadline budget.
    pub shed: u64,
}

impl RecoverySummary {
    /// Decodes the ledger from a merged counter set (e.g. a
    /// `BatchReport`'s counters).
    pub fn from_counters(c: &CounterSet) -> Self {
        RecoverySummary {
            snapshots: c.get(CounterId::CkptSnapshots),
            bytes: c.get(CounterId::CkptBytes),
            restores: c.get(CounterId::CkptRestores),
            shed: c.get(CounterId::ServeShed),
        }
    }

    /// Whether checkpointing and shedding never fired (the byte-identical
    /// fast path).
    pub fn is_empty(&self) -> bool {
        *self == RecoverySummary::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ResiliencePolicy {
        ResiliencePolicy::default()
    }

    #[test]
    fn backoff_doubles_each_round() {
        let p = policy();
        let b = p.backoff_base_cycles;
        assert_eq!(backoff_cycles(&p, 0), 0);
        assert_eq!(backoff_cycles(&p, 1), b);
        assert_eq!(backoff_cycles(&p, 4), b * (1 + 2 + 4 + 8));
    }

    #[test]
    fn backoff_shift_is_capped() {
        let p = policy();
        // 64 rounds would otherwise shift past the word width.
        assert!(backoff_cycles(&p, 64) > backoff_cycles(&p, 32));
    }

    #[test]
    fn backoff_never_overflows_for_extreme_policies() {
        let mut p = policy();
        p.backoff_base_cycles = u64::MAX;
        assert_eq!(backoff_cycles(&p, u32::MAX), u64::MAX);
        assert_eq!(backoff_cycles(&p, 0), 0);
        p.backoff_base_cycles = 1 << 62;
        assert_eq!(backoff_cycles(&p, 100), u64::MAX);
    }

    #[test]
    fn timeout_penalty_charges_resends_and_backoff() {
        let p = policy();
        let cycle_s = 1e-9;
        let pen = timeout_penalty_seconds(&p, 2.0e-3, 2, cycle_s);
        let expected = 2.0 * 2.0e-3 + (p.backoff_base_cycles * 3) as f64 * cycle_s;
        assert!((pen - expected).abs() < 1e-15, "pen={pen} expected={expected}");
        assert_eq!(timeout_penalty_seconds(&p, 2.0e-3, 0, cycle_s), 0.0);
    }

    #[test]
    fn recorded_timeouts_keep_the_ledger_balanced() {
        let mut c = CounterSet::new();
        record_timeout(&mut c, 3);
        record_timeout(&mut c, 1);
        let s = FaultSummary::from_counters(&c);
        assert_eq!(s.injected, s.detected);
        assert_eq!(s.detected, s.recovered + s.lost);
        assert_eq!(s.timeouts, 2);
        assert_eq!(s.retries, 4);
        assert!(s.fully_recovered());
    }

    #[test]
    fn recovery_summary_decodes_the_ckpt_counters() {
        let mut c = CounterSet::new();
        assert!(RecoverySummary::from_counters(&c).is_empty());
        c.add(CounterId::CkptSnapshots, 3);
        c.add(CounterId::CkptBytes, 4096);
        c.add(CounterId::CkptRestores, 1);
        c.add(CounterId::ServeShed, 2);
        let s = RecoverySummary::from_counters(&c);
        assert_eq!(s, RecoverySummary { snapshots: 3, bytes: 4096, restores: 1, shed: 2 });
        assert!(!s.is_empty());
    }

    #[test]
    fn summary_round_trips_the_cycle_buckets() {
        let mut c = CounterSet::new();
        c.add(CounterId::FaultStragglerCycles, 120);
        c.add(CounterId::FaultRetryCycles, 80);
        let s = FaultSummary::from_counters(&c);
        assert_eq!((s.straggler_cycles, s.retry_cycles), (120, 80));
        assert_eq!(c.sum(&CounterId::FAULT_CYCLES), 200);
    }
}
