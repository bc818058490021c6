//! Configuration of the simulated UPMEM system.
//!
//! Defaults model the machine used in the paper (§5.2): 20 PIM DIMMs with
//! 2,560 DPUs total (2,048 used by default, as in the paper's experiments),
//! each DPU a 350 MHz multithreaded in-order core with a 14-stage revolver
//! pipeline, a 64 MB MRAM bank and 64 KB of WRAM (§2.3.2). The 24 KB
//! instruction memory (IRAM) is not modelled: every kernel fits in it.
//! Timing constants are calibrated to published UPMEM/PrIM/PIMulator
//! measurements; see `DESIGN.md` for the calibration table.


/// Full configuration of a simulated UPMEM PIM system.
#[derive(Debug, Clone, PartialEq)]
pub struct PimConfig {
    /// Number of DPUs allocated to kernels (paper default: 2,048).
    pub num_dpus: u32,
    /// Hardware threads (tasklets) per DPU, 1..=24 (paper kernels use 16).
    pub tasklets_per_dpu: u32,
    /// DPU clock frequency in Hz (UPMEM: 350 MHz).
    pub dpu_frequency_hz: u64,
    /// MRAM (DRAM bank) capacity per DPU in bytes (64 MB).
    pub mram_bytes: u64,
    /// WRAM (scratchpad) capacity per DPU in bytes (64 KB).
    pub wram_bytes: u32,
    /// Pipeline timing model.
    pub pipeline: PipelineConfig,
    /// CPU↔DPU transfer timing model.
    pub transfer: TransferConfig,
    /// Host-side (merge, convergence check) timing model.
    pub host: HostConfig,
    /// How many DPUs receive full discrete-event simulation.
    pub fidelity: SimFidelity,
    /// How much per-DPU / per-tasklet counter detail the kernel reports
    /// retain (aggregate rollups are always collected).
    pub observability: ObservabilityLevel,
    /// Deterministic fault-injection plan. `None` (the default) models a
    /// fully healthy machine and adds no work to the hot path.
    pub faults: Option<FaultPlan>,
    /// Logical→physical DPU remap used when part of the machine is
    /// quarantined: entry `i` is the physical DPU id behind logical DPU
    /// `i`. Empty (the default) is the identity map. Fault draws are keyed
    /// on *physical* ids, so a quarantined system built by
    /// [`PimConfig::excluding_dpus`] keeps every surviving DPU's seeded
    /// fate while kernels see a smaller, contiguous machine.
    pub dpu_remap: Vec<u32>,
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig {
            num_dpus: 2048,
            tasklets_per_dpu: 16,
            dpu_frequency_hz: 350_000_000,
            mram_bytes: 64 * 1024 * 1024,
            wram_bytes: 64 * 1024,
            pipeline: PipelineConfig::default(),
            transfer: TransferConfig::default(),
            host: HostConfig::default(),
            fidelity: SimFidelity::default(),
            observability: ObservabilityLevel::default(),
            faults: None,
            dpu_remap: Vec::new(),
        }
    }
}

impl PimConfig {
    /// A configuration with `num_dpus` DPUs and paper defaults elsewhere.
    pub fn with_dpus(num_dpus: u32) -> Self {
        PimConfig { num_dpus, ..PimConfig::default() }
    }

    /// Seconds per DPU cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / self.dpu_frequency_hz as f64
    }

    /// Validates structural limits (tasklet count, positive sizes).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_dpus == 0 {
            return Err("num_dpus must be positive".into());
        }
        if self.tasklets_per_dpu == 0 || self.tasklets_per_dpu > 24 {
            return Err(format!(
                "tasklets_per_dpu must be in 1..=24, got {}",
                self.tasklets_per_dpu
            ));
        }
        if self.dpu_frequency_hz == 0 {
            return Err("dpu_frequency_hz must be positive".into());
        }
        if !self.dpu_remap.is_empty() {
            if self.dpu_remap.len() != self.num_dpus as usize {
                return Err(format!(
                    "dpu_remap must cover every logical DPU: {} entries for {} DPUs",
                    self.dpu_remap.len(),
                    self.num_dpus
                ));
            }
            if self.dpu_remap.windows(2).any(|w| w[0] >= w[1]) {
                return Err("dpu_remap must be strictly increasing".into());
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        Ok(())
    }

    /// The configuration of this machine with the given *physical* DPUs
    /// quarantined: kernels see a smaller contiguous machine whose
    /// [`PimConfig::dpu_remap`] routes fault draws back to the surviving
    /// physical ids (composing with any remap already in place). Returns
    /// `None` when no healthy DPU would remain — callers must degrade
    /// gracefully instead of constructing an empty system.
    pub fn excluding_dpus(&self, quarantined: &[u32]) -> Option<PimConfig> {
        let keep: Vec<u32> = (0..self.num_dpus)
            .map(|logical| {
                self.dpu_remap.get(logical as usize).copied().unwrap_or(logical)
            })
            .filter(|physical| !quarantined.contains(physical))
            .collect();
        if keep.is_empty() {
            return None;
        }
        let mut cfg = self.clone();
        cfg.num_dpus = keep.len() as u32;
        cfg.dpu_remap = keep;
        Some(cfg)
    }
}

/// A deterministic, seed-driven fault-injection plan (the resilience
/// ablation layer). Every fault decision is a pure hash of
/// `(seed, site, kind)` — SplitMix64-mixed like the graph generators — so
/// a plan reproduces the same faults at any host thread count, in any
/// replay order, across runs.
///
/// Rates are per-site probabilities: `dpu_loss_rate` / `straggler_rate` /
/// `bitflip_rate` are drawn once per DPU per launch (a lost rank stays
/// lost for every launch of the same system), `timeout_rate` once per
/// CPU↔DPU transfer batch. Per-DPU kinds are mutually exclusive with
/// precedence loss > bit-flip > straggler.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault draws (independent of the graph seeds).
    pub seed: u64,
    /// Probability a DPU is lost outright (rank failure).
    pub dpu_loss_rate: f64,
    /// Probability a DPU runs slow by `straggler_multiplier`.
    pub straggler_rate: f64,
    /// Cycle multiplier applied to a straggler DPU's makespan (≥ 1).
    pub straggler_multiplier: f64,
    /// Probability a DPU's MRAM suffers a bit flip on DMA, surfaced as a
    /// detectable ECC event the host must scrub with retries.
    pub bitflip_rate: f64,
    /// Probability a CPU↔DPU transfer batch times out and is retransmitted.
    pub timeout_rate: f64,
    /// Probability a DPU's partition output is *silently* corrupted: no
    /// ECC event, no timeout, no heartbeat loss — the flipped value flows
    /// into the host merge unless the ABFT merge guard
    /// ([`ResiliencePolicy::verify_merges`]) catches it.
    pub silent_flip_rate: f64,
    /// How the host reacts to detected faults.
    pub policy: ResiliencePolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA_017,
            dpu_loss_rate: 0.0,
            straggler_rate: 0.0,
            straggler_multiplier: 1.5,
            bitflip_rate: 0.0,
            timeout_rate: 0.0,
            silent_flip_rate: 0.0,
            policy: ResiliencePolicy::default(),
        }
    }
}

impl FaultPlan {
    /// A plan injecting every fault kind at one shared `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            dpu_loss_rate: rate,
            straggler_rate: rate,
            bitflip_rate: rate,
            timeout_rate: rate,
            ..FaultPlan::default()
        }
    }

    /// A plan injecting *only* silent output corruption at `rate` — every
    /// detectable fault kind stays off, so any divergence from a clean run
    /// is attributable to the integrity layer alone.
    pub fn silent(seed: u64, rate: f64) -> Self {
        FaultPlan { seed, silent_flip_rate: rate, ..FaultPlan::default() }
    }

    /// Whether every rate is zero (the plan can never fire).
    pub fn is_inert(&self) -> bool {
        self.dpu_loss_rate == 0.0
            && self.straggler_rate == 0.0
            && self.bitflip_rate == 0.0
            && self.timeout_rate == 0.0
            && self.silent_flip_rate == 0.0
    }

    /// Validates rates and the straggler multiplier.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("dpu_loss_rate", self.dpu_loss_rate),
            ("straggler_rate", self.straggler_rate),
            ("bitflip_rate", self.bitflip_rate),
            ("timeout_rate", self.timeout_rate),
            ("silent_flip_rate", self.silent_flip_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if !self.straggler_multiplier.is_finite() || self.straggler_multiplier < 1.0 {
            return Err(format!(
                "straggler_multiplier must be ≥ 1, got {}",
                self.straggler_multiplier
            ));
        }
        Ok(())
    }
}

/// Host-side reaction to detected faults (the policy half of the
/// resilience layer; see `DESIGN.md` §10 for the state machine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Bounded-retry budget for recoverable faults (ECC scrubs, transfer
    /// retransmits). `0` disables retries, escalating ECC events to DPU
    /// loss.
    pub max_retries: u32,
    /// First backoff window in simulated DPU cycles; doubles per retry
    /// (exponential backoff).
    pub backoff_base_cycles: u64,
    /// Whether a dead DPU's row block is redistributed to healthy DPUs.
    /// When `false` (or when no healthy DPU remains), lost partitions are
    /// dropped and the kernel completes `Degraded`.
    pub redistribute: bool,
    /// Whether the host verifies per-partition ABFT checksums at merge
    /// time (linear row-sums for plus-times, order-independent frontier
    /// fingerprints for the tropical/boolean semirings). On a mismatch the
    /// offending partition is recomputed on a healthy DPU; with
    /// verification off, silent corruption escapes into merged results.
    /// [`Default`] configs verify.
    pub verify_merges: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 3,
            backoff_base_cycles: 256,
            redistribute: true,
            verify_merges: true,
        }
    }
}

/// Revolver pipeline and DMA timing parameters (§2.3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Minimum cycles between consecutive instructions of one tasklet — the
    /// "revolver" scheduling constraint (11 on UPMEM).
    pub revolver_period: u32,
    /// Pipeline depth (14 stages; drain cost at kernel end).
    pub pipeline_depth: u32,
    /// Fixed cycles to start one MRAM↔WRAM DMA transfer.
    pub dma_startup_cycles: u32,
    /// Additional DMA cycles per byte transferred (~0.5 ⇒ ≈ 630 MB/s
    /// sustained at 350 MHz, matching PrIM's measured MRAM bandwidth).
    pub dma_cycles_per_byte: f64,
    /// Extra issue delay when an instruction's operands collide in the
    /// even/odd register-file banks.
    pub rf_hazard_penalty: u32,
    /// Fraction of register-reading instructions that incur an even/odd
    /// bank conflict (deterministic pseudo-random selection).
    pub rf_hazard_rate: f64,
    /// Cycles a tasklet backs off before retrying a contended mutex
    /// acquire (each retry issues one extra `Sync` instruction).
    pub mutex_backoff_cycles: u32,
    /// What-if (§6.4 recommendation): non-blocking DMA lets the issuing
    /// tasklet keep computing while the transfer is in flight (upper-bound
    /// model — data dependencies are assumed prefetchable).
    pub non_blocking_dma: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            revolver_period: 11,
            pipeline_depth: 14,
            dma_startup_cycles: 88,
            dma_cycles_per_byte: 0.5,
            rf_hazard_penalty: 1,
            rf_hazard_rate: 0.08,
            mutex_backoff_cycles: 44,
            non_blocking_dma: false,
        }
    }
}

impl PipelineConfig {
    /// What-if (§6.4 recommendation): intra-thread forwarding for
    /// independent instructions shortens the revolver dispatch gap, as
    /// proposed by the PIMulator study the paper cites.
    pub fn with_forwarding(mut self, period: u32) -> Self {
        self.revolver_period = period.max(1);
        self
    }

    /// What-if (§6.4 recommendation): enables the non-blocking DMA model.
    pub fn with_non_blocking_dma(mut self) -> Self {
        self.non_blocking_dma = true;
        self
    }
}

impl PipelineConfig {
    /// Cycles consumed by one blocking DMA of `bytes` bytes.
    pub fn dma_cycles(&self, bytes: u32) -> u64 {
        self.dma_startup_cycles as u64 + (bytes as f64 * self.dma_cycles_per_byte).ceil() as u64
    }
}

/// CPU↔DPU transfer model (§2.3.1; UPMEM SDK parallel transfers).
///
/// The host writes each DPU's MRAM through the memory bus; parallel
/// transfers overlap across ranks but share bus bandwidth, so the effective
/// rate grows with the number of active DPUs until it saturates at
/// [`TransferConfig::peak_bandwidth`]. There is no hardware multicast:
/// broadcasting `b` bytes to `d` DPUs moves `b·d` bytes — which is exactly
/// why 1D row-wise partitioning pays so dearly for full-vector loads
/// (Fig 2) and why 2,048 DPUs can be load-bound (Fig 8).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferConfig {
    /// Fixed per-batch overhead in seconds (driver + rank setup).
    pub batch_overhead_s: f64,
    /// Saturated aggregate bandwidth in bytes/second (PrIM measures
    /// ≈ 16.9 GB/s for parallel transfers across thousands of DPUs).
    pub peak_bandwidth: f64,
    /// Per-DPU contribution to aggregate bandwidth before saturation.
    pub per_dpu_bandwidth: f64,
    /// What-if (§6.4 recommendation): a direct inter-DPU interconnect that
    /// exchanges vectors without a host round-trip. `None` models the real
    /// machine (host-mediated only).
    pub inter_dpu: Option<InterDpuConfig>,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            batch_overhead_s: 20e-6,
            peak_bandwidth: 16.9e9,
            per_dpu_bandwidth: 0.30e9,
            inter_dpu: None,
        }
    }
}

/// Parameters of a hypothetical direct DPU-to-DPU interconnect (§6.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterDpuConfig {
    /// Per-DPU link bandwidth in bytes/second.
    pub link_bandwidth: f64,
    /// Per-exchange startup latency in seconds.
    pub latency_s: f64,
}

impl Default for InterDpuConfig {
    fn default() -> Self {
        // A modest serial link per PIM chip, far below the DDR4 bus but
        // fully parallel across DPUs.
        InterDpuConfig { link_bandwidth: 1.0e9, latency_s: 2e-6 }
    }
}

/// Host CPU model for the Merge phase (parallel OpenMP-style merge on the
/// Xeon host, §4.1.1) and per-iteration convergence checks.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// Merge throughput per host thread, bytes/second.
    pub merge_bytes_per_s_per_thread: f64,
    /// Host threads participating in merge (2× Xeon Silver 4110 ⇒ 16).
    pub threads: u32,
    /// Fixed overhead per host-side reduction in seconds.
    pub reduce_overhead_s: f64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            merge_bytes_per_s_per_thread: 1.2e9,
            threads: 16,
            reduce_overhead_s: 5e-6,
        }
    }
}

/// Trade-off between simulation accuracy and speed at the system level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFidelity {
    /// Discrete-event-simulate every DPU.
    Full,
    /// Discrete-event-simulate a stride sample of this many DPUs: the
    /// DPUs whose ids are multiples of `num_dpus / k` (k of them when k
    /// divides `num_dpus`), chosen with no regard to load. Only these
    /// record event traces; the rest record closed-form statistics and are
    /// estimated, self-calibrated against the sampled ratio, so the most
    /// heavily loaded DPU is covered only through the calibrated estimate
    /// maximum. Instruction mixes are exact in both modes.
    Sampled(u32),
    /// No discrete-event simulation at all: kernels record closed-form
    /// per-tasklet statistics instead of event traces, and the analytic
    /// performance model (see [`crate::analytic`]) predicts every DPU's
    /// makespan and counter partition directly. Result values, traffic
    /// bytes, and discrete event counts stay exact; cycle attribution is
    /// a calibrated approximation (≤ 5 % makespan error on the catalog).
    Analytic,
}

impl Default for SimFidelity {
    fn default() -> Self {
        SimFidelity::Sampled(128)
    }
}

/// How much observability detail a kernel launch retains. The aggregate
/// counter rollup in [`crate::report::CycleBreakdown`] is always collected
/// on the detailed-simulation sample; the higher levels additionally keep
/// per-DPU (and per-tasklet) [`crate::report::DpuDetail`] records, which
/// cost memory proportional to the detailed sample size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObservabilityLevel {
    /// Aggregate counters only (the default).
    #[default]
    Aggregate,
    /// Keep one counter rollup per detailed DPU.
    PerDpu,
    /// Keep per-DPU rollups plus every tasklet's cycle attribution.
    PerTasklet,
}

impl ObservabilityLevel {
    /// Whether per-DPU detail records are retained.
    pub fn records_per_dpu(self) -> bool {
        self >= ObservabilityLevel::PerDpu
    }

    /// Whether per-tasklet counter sets are retained.
    pub fn records_per_tasklet(self) -> bool {
        self >= ObservabilityLevel::PerTasklet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_hardware() {
        let cfg = PimConfig::default();
        assert_eq!(cfg.num_dpus, 2048);
        assert_eq!(cfg.pipeline.revolver_period, 11);
        assert_eq!(cfg.mram_bytes, 64 << 20);
        assert_eq!(cfg.wram_bytes, 64 << 10);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_catches_bad_configs() {
        assert!(PimConfig { num_dpus: 0, ..Default::default() }.validate().is_err());
        assert!(PimConfig { tasklets_per_dpu: 25, ..Default::default() }.validate().is_err());
        assert!(PimConfig { tasklets_per_dpu: 0, ..Default::default() }.validate().is_err());
        assert!(PimConfig { dpu_frequency_hz: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn dma_cycles_scale_with_size() {
        let p = PipelineConfig::default();
        assert_eq!(p.dma_cycles(0), 88);
        assert_eq!(p.dma_cycles(8), 92);
        assert!(p.dma_cycles(2048) > p.dma_cycles(64));
    }

    #[test]
    fn cycle_seconds_inverts_frequency() {
        let cfg = PimConfig::default();
        assert!((cfg.cycle_seconds() - 1.0 / 350e6).abs() < 1e-18);
    }
}
