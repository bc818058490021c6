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

use crate::counters::{CounterId, CounterSet};

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
    use crate::config::{FaultPlan, PimConfig, ResiliencePolicy};
    use crate::faults::saturating_backoff;
    use crate::transfer::scatter_counted;

    #[test]
    fn backoff_doubles_each_round() {
        let b = ResiliencePolicy::default().backoff_base_cycles;
        assert_eq!(saturating_backoff(b, 0), 0);
        assert_eq!(saturating_backoff(b, 1), b);
        assert_eq!(saturating_backoff(b, 4), b * (1 + 2 + 4 + 8));
    }

    #[test]
    fn backoff_shift_is_capped() {
        let b = ResiliencePolicy::default().backoff_base_cycles;
        // 64 rounds would otherwise shift past the word width.
        assert!(saturating_backoff(b, 64) > saturating_backoff(b, 32));
    }

    #[test]
    fn backoff_never_overflows_for_extreme_policies() {
        assert_eq!(saturating_backoff(u64::MAX, u32::MAX), u64::MAX);
        assert_eq!(saturating_backoff(u64::MAX, 0), 0);
        assert_eq!(saturating_backoff(1 << 62, 100), u64::MAX);
    }

    #[test]
    fn timeout_penalty_charges_resends_and_backoff() {
        // Every batch times out: it is sent once plus once per retry, and
        // each retry first waits out its backoff window.
        let plan = FaultPlan { timeout_rate: 1.0, ..FaultPlan::uniform(0x7175_E007, 0.0) };
        let cfg = PimConfig { num_dpus: 64, faults: Some(plan), ..Default::default() };
        let sys = crate::PimSystem::new(cfg.clone()).expect("valid config");
        let payloads = vec![4096u64; 64];
        let clean = scatter_counted(&cfg.transfer, &payloads, &mut CounterSet::new());
        let mut k = CounterSet::new();
        let seconds = sys.scatter_time_counted(&payloads, &mut k);
        let retries = k.get(CounterId::FaultRetries);
        assert!(retries > 0 && k.get(CounterId::FaultTimeouts) == 1);
        let base = cfg.faults.as_ref().expect("set above").policy.backoff_base_cycles;
        let backoff = saturating_backoff(base, retries as u32);
        let expected = clean * (1 + retries) as f64 + backoff as f64 * cfg.cycle_seconds();
        assert!((seconds - expected).abs() < 1e-15, "seconds={seconds} expected={expected}");
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
