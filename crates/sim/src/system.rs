//! The system-level facade tying the DPU pipeline model, transfer model,
//! host model, and capacity accounting together.

use crate::config::PimConfig;
use crate::counters::{CounterId, CounterSet};
use crate::faults::FaultEngine;
use crate::report::KernelAccumulator;
use crate::{host, resilience, transfer};

/// The transfer-traffic counters whose delta identifies a batch's payload
/// for the timeout draw.
const XFER_BYTES: [CounterId; 3] =
    [CounterId::XferScatterBytes, CounterId::XferBroadcastBytes, CounterId::XferGatherBytes];

/// A simulated UPMEM PIM system.
///
/// Kernels interact with it in three steps: check capacity and obtain a
/// [`KernelAccumulator`], feed per-DPU tasklet traces into the accumulator
/// while computing functionally in Rust, then combine the resulting kernel
/// time with the transfer and host models into a
/// [`crate::report::PhaseBreakdown`].
///
/// # Example
///
/// ```
/// use alpha_pim_sim::{PimConfig, PimSystem};
/// use alpha_pim_sim::trace::TaskletTrace;
/// use alpha_pim_sim::instr::InstrClass;
///
/// # fn main() -> Result<(), String> {
/// let system = PimSystem::new(PimConfig::with_dpus(4))?;
/// let mut acc = system.accumulator();
/// for dpu in 0..4 {
///     let mut t = TaskletTrace::new();
///     t.dma(256);
///     t.compute(InstrClass::Arith, 100 * (dpu + 1));
///     acc.add(dpu, &[t]);
/// }
/// let report = acc.finish();
/// assert!(report.seconds > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PimSystem {
    cfg: PimConfig,
    /// Seeded fault oracle, present only when the config carries a
    /// non-inert [`crate::config::FaultPlan`]. Built from the same pure
    /// derivation as [`KernelAccumulator`]'s engine, so system-level
    /// (transfer) and kernel-level (DPU) fault decisions agree.
    faults: Option<FaultEngine>,
}

impl PimSystem {
    /// Creates a system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the validation failure message for structurally invalid
    /// configurations (zero DPUs, more than 24 tasklets, …).
    pub fn new(cfg: PimConfig) -> Result<Self, String> {
        cfg.validate()?;
        let faults = FaultEngine::from_config(&cfg);
        Ok(PimSystem { cfg, faults })
    }

    /// The system configuration.
    pub fn config(&self) -> &PimConfig {
        &self.cfg
    }

    /// Number of DPUs available to kernels.
    pub fn num_dpus(&self) -> u32 {
        self.cfg.num_dpus
    }

    /// Starts accumulating one kernel launch.
    pub fn accumulator(&self) -> KernelAccumulator {
        KernelAccumulator::new(&self.cfg)
    }

    /// The active fault oracle, if the configuration injects faults.
    pub fn fault_engine(&self) -> Option<&FaultEngine> {
        self.faults.as_ref()
    }

    /// Applies the fault plan's transfer-timeout draw to one counted batch:
    /// `seq`/`bytes_before` snapshot the batch counter and traffic counters
    /// from before the batch, `base` is its clean duration. On a timeout
    /// the batch is retransmitted with exponential backoff and the retries
    /// are recorded in `counters`; returns the total duration.
    fn with_timeouts(
        &self,
        seq: u64,
        bytes_before: u64,
        base: f64,
        counters: &mut CounterSet,
    ) -> f64 {
        let Some(engine) = &self.faults else { return base };
        if counters.get(CounterId::XferBatches) == seq {
            // Empty batch: the SDK skips it entirely, nothing to time out.
            return base;
        }
        let bytes = counters.sum(&XFER_BYTES) - bytes_before;
        let retries = engine.transfer_timeout_retries(seq, bytes);
        if retries == 0 {
            return base;
        }
        resilience::record_timeout(counters, retries);
        // Each retry re-sends the whole batch after its backoff window.
        base + (retries as f64 * base
            + engine.backoff_cycles(retries) as f64 * self.cfg.cycle_seconds())
    }

    /// Seconds to scatter distinct payloads to the DPUs (CPU→DPU),
    /// recording bus traffic into `counters`, including timeout
    /// retransmissions under an active fault plan.
    pub fn scatter_time_counted(&self, per_dpu_bytes: &[u64], counters: &mut CounterSet) -> f64 {
        let (seq, bytes) = (counters.get(CounterId::XferBatches), counters.sum(&XFER_BYTES));
        let base = transfer::scatter_counted(&self.cfg.transfer, per_dpu_bytes, counters);
        self.with_timeouts(seq, bytes, base, counters)
    }

    /// Seconds to broadcast the same payload to `num_dpus` DPUs, recording
    /// bus traffic into `counters`, including timeout retransmissions under
    /// an active fault plan.
    pub fn broadcast_time_counted(
        &self,
        bytes: u64,
        num_dpus: u32,
        counters: &mut CounterSet,
    ) -> f64 {
        let (seq, before) = (counters.get(CounterId::XferBatches), counters.sum(&XFER_BYTES));
        let base = transfer::broadcast_counted(&self.cfg.transfer, bytes, num_dpus, counters);
        self.with_timeouts(seq, before, base, counters)
    }

    /// Seconds to gather distinct payloads from the DPUs (DPU→CPU),
    /// recording bus traffic into `counters`, including timeout
    /// retransmissions under an active fault plan.
    pub fn gather_time_counted(&self, per_dpu_bytes: &[u64], counters: &mut CounterSet) -> f64 {
        let (seq, bytes) = (counters.get(CounterId::XferBatches), counters.sum(&XFER_BYTES));
        let base = transfer::gather_counted(&self.cfg.transfer, per_dpu_bytes, counters);
        self.with_timeouts(seq, bytes, base, counters)
    }

    /// Seconds for the host to merge partial outputs, recording host-side
    /// work into `counters`.
    pub fn merge_time_counted(
        &self,
        elements: u64,
        fan_in: u32,
        bytes_per_element: u32,
        counters: &mut CounterSet,
    ) -> f64 {
        host::merge_time_counted(&self.cfg.host, elements, fan_in, bytes_per_element, counters)
    }

    /// Seconds for the host to scan a vector once (convergence check),
    /// recording host-side work into `counters`.
    pub fn scan_time_counted(
        &self,
        elements: u64,
        bytes_per_element: u32,
        counters: &mut CounterSet,
    ) -> f64 {
        host::scan_time_counted(&self.cfg.host, elements, bytes_per_element, counters)
    }

    /// Verifies that each DPU's resident data fits its 64 MB MRAM bank.
    ///
    /// # Errors
    ///
    /// Returns a description of the overflow.
    pub fn check_mram(&self, bytes_per_dpu: u64) -> Result<(), String> {
        if bytes_per_dpu > self.cfg.mram_bytes {
            return Err(format!(
                "partition needs {bytes_per_dpu} bytes of MRAM but a DPU bank holds {}",
                self.cfg.mram_bytes
            ));
        }
        Ok(())
    }

    /// The largest WRAM buffer each tasklet can own simultaneously,
    /// reserving an eighth of WRAM for stack and runtime.
    pub fn wram_budget_per_tasklet(&self) -> u32 {
        let usable = self.cfg.wram_bytes - self.cfg.wram_bytes / 8;
        usable / self.cfg.tasklets_per_dpu
    }

    /// Peak theoretical throughput in operations/second: every DPU issuing
    /// one instruction per cycle (the method of the SparseP peak analysis;
    /// the paper reports 4.66 GFLOPS for the full 2,560-DPU machine).
    pub fn peak_ops_per_s(&self) -> f64 {
        // Arithmetic throughput is bounded by the 11-stage revolver spacing
        // only below 11 tasklets; with the paper's 16+, issue rate is 1/cycle.
        // Useful FLOP rate is far lower for f32 (software emulation), which
        // the peak-performance method reflects with an emulation divisor.
        const FLOAT_EMULATION_DIVISOR: f64 = 154.0;
        self.cfg.num_dpus as f64 * self.cfg.dpu_frequency_hz as f64 / FLOAT_EMULATION_DIVISOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_config() {
        assert!(PimSystem::new(PimConfig::default()).is_ok());
        assert!(PimSystem::new(PimConfig { num_dpus: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn mram_capacity_is_enforced() {
        let sys = PimSystem::new(PimConfig::default()).unwrap();
        assert!(sys.check_mram(64 << 20).is_ok());
        assert!(sys.check_mram((64 << 20) + 1).is_err());
    }

    #[test]
    fn wram_budget_divides_among_tasklets() {
        let sys = PimSystem::new(PimConfig::default()).unwrap();
        let budget = sys.wram_budget_per_tasklet();
        assert!(budget >= 2048, "budget {budget}");
        assert!(budget * sys.config().tasklets_per_dpu <= sys.config().wram_bytes);
    }

    #[test]
    fn peak_matches_paper_scale() {
        // Paper: 4.66 GFLOPS for 2,560 DPUs. Our model with 2,560 DPUs
        // should land in the same ballpark.
        let sys = PimSystem::new(PimConfig::with_dpus(2560)).unwrap();
        let peak = sys.peak_ops_per_s();
        assert!((peak - 4.66e9).abs() / 4.66e9 < 0.35, "peak {peak:e}");
    }

    #[test]
    fn transfer_and_host_helpers_delegate() {
        let sys = PimSystem::new(PimConfig::with_dpus(64)).unwrap();
        let mut k = CounterSet::new();
        assert!(sys.broadcast_time_counted(1 << 20, 64, &mut k) > 0.0);
        assert!(sys.scatter_time_counted(&vec![1024; 64], &mut k) > 0.0);
        assert!(sys.gather_time_counted(&vec![1024; 64], &mut k) > 0.0);
        assert!(sys.merge_time_counted(1 << 20, 4, 4, &mut k) > 0.0);
        assert!(sys.scan_time_counted(1 << 20, 4, &mut k) > 0.0);
    }

    /// Without a fault plan to add timeouts, the system's helpers price a
    /// batch or a reduction exactly as the transfer and host models do, and
    /// record the same counts.
    #[test]
    fn fault_free_helpers_price_like_the_models() {
        let sys = PimSystem::new(PimConfig::with_dpus(64)).unwrap();
        let (xfer, hcfg) = (&sys.config().transfer, &sys.config().host);
        let (mut k, scratch) = (CounterSet::new(), &mut CounterSet::new());
        assert_eq!(
            sys.broadcast_time_counted(1 << 20, 64, &mut k),
            transfer::broadcast_counted(xfer, 1 << 20, 64, scratch)
        );
        assert_eq!(
            sys.scatter_time_counted(&vec![1024; 64], &mut k),
            transfer::scatter_counted(xfer, &vec![1024; 64], scratch)
        );
        assert_eq!(
            sys.gather_time_counted(&vec![1024; 64], &mut k),
            transfer::gather_counted(xfer, &vec![1024; 64], scratch)
        );
        assert_eq!(
            sys.merge_time_counted(1 << 20, 4, 4, &mut k),
            host::merge_time_counted(hcfg, 1 << 20, 4, 4, scratch)
        );
        assert_eq!(
            sys.scan_time_counted(1 << 20, 4, &mut k),
            host::scan_time_counted(hcfg, 1 << 20, 4, scratch)
        );
        assert_eq!(k, *scratch);
        assert_eq!(k.get(CounterId::XferBatches), 3);
        assert_eq!(k.get(CounterId::HostReductions), 2);
    }
}
