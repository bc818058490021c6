//! Cycle-level simulator of the UPMEM processing-in-memory system.
//!
//! The ALPHA-PIM paper runs its kernels on physical UPMEM DIMMs; this crate
//! is the substitute substrate: a discrete-event model of the UPMEM
//! architecture (§2.3 of the paper) detailed enough to reproduce the
//! paper's microarchitectural analysis (Figs 9–11) and phase breakdowns
//! (Figs 2, 5–8):
//!
//! * [`pipeline`] — one DPU's revolver pipeline: single-issue dispatch,
//!   the 11-cycle same-tasklet spacing constraint, blocking DMA through a
//!   serialized engine, mutexes, barriers, and even/odd register-file bank
//!   conflicts, with idle cycles attributed to memory / revolver / RF
//!   causes;
//! * [`counters`] — the observability counter registry: slot-level and
//!   per-tasklet cycle attribution, event counts, and host/transfer
//!   traffic, all under one stable taxonomy. It is the one record of every
//!   number a counter holds: a DPU's makespan is `dpu.cycles`, its issued
//!   instructions `slot.issue`, its idle slots the other `slot.*`;
//! * [`trace`] — the per-tasklet event traces kernels record while
//!   executing functionally in Rust, behind the [`trace::Record`] trait;
//! * [`analytic`] — the closed-form fast path: O(1)-space
//!   [`analytic::TaskletStats`] recorders plus a four-bound makespan and
//!   counter predictor that skips cycle replay entirely
//!   (`SimFidelity::Analytic`);
//! * [`transfer`] — the CPU↔DPU scatter/broadcast/gather timing model;
//! * [`host`] — host-side merge and convergence-check timing;
//! * [`energy`] — average-power energy accounting for Table 4;
//! * [`faults`] / [`resilience`] — deterministic seed-driven fault
//!   injection (DPU loss, stragglers, MRAM ECC events, transfer timeouts)
//!   and the host-side recovery policy (bounded backoff retry, partition
//!   redistribution, graceful degradation);
//! * [`system`] — the [`PimSystem`] facade and capacity checks;
//! * [`report`] — per-DPU profiles and kernel-level reports, whose cycle
//!   breakdown and JSON/CSV exporters are views of the counter set, plus
//!   the Load/Kernel/Retrieve/Merge [`PhaseBreakdown`];
//! * [`par`] — the host-side scoped thread pool that fans independent
//!   per-DPU replays out over OS threads (`ALPHA_PIM_THREADS`); simulated
//!   time and every report field are bit-identical at any thread count.
//!
//! # Example
//!
//! ```
//! use alpha_pim_sim::{PimConfig, PimSystem};
//! use alpha_pim_sim::instr::InstrClass;
//! use alpha_pim_sim::trace::TaskletTrace;
//!
//! # fn main() -> Result<(), String> {
//! let system = PimSystem::new(PimConfig::with_dpus(8))?;
//! let mut acc = system.accumulator();
//! for dpu in 0..8 {
//!     let traces: Vec<TaskletTrace> = (0..16)
//!         .map(|_| {
//!             let mut t = TaskletTrace::new();
//!             t.dma_stream(4096, 512, 2);
//!             t.compute(InstrClass::Arith, 256);
//!             t
//!         })
//!         .collect();
//!     acc.add(dpu, &traces);
//! }
//! let kernel = acc.finish();
//! assert!(kernel.seconds > 0.0);
//! assert!(kernel.breakdown.total() > 0);
//! # Ok(())
//! # }
//! ```

pub mod analytic;
pub mod config;
pub mod counters;
pub mod energy;
pub mod faults;
pub mod host;
pub mod instr;
pub mod par;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod system;
pub mod trace;
pub mod transfer;

pub use analytic::{predict_dpu, SegmentStats, TaskletStats};
pub use config::{
    FaultPlan, HostConfig, InterDpuConfig, ObservabilityLevel, PimConfig, PipelineConfig,
    ResiliencePolicy, SimFidelity, TransferConfig,
};
pub use counters::{CounterId, CounterSet, LedgerBreach, LEDGERS, NUM_COUNTERS};
pub use faults::{FaultEngine, FaultVerdict, HostCrashPlan};
pub use energy::EnergyModel;
pub use instr::{InstrClass, InstrMix};
pub use par::{par_map_indexed, par_map_indexed_with, set_sim_threads, sim_threads, SimThreads};
pub use report::{
    BatchReport, CycleBreakdown, DpuDetail, DpuEval, DpuJob, DpuProfile, KernelAccumulator,
    KernelReport, PhaseBreakdown, ReuseKey,
};
pub use resilience::{FaultSummary, RecoverySummary};
pub use system::PimSystem;
pub use trace::{OpenLoopArrivals, Record, TaskletTrace, TraceEvent};
