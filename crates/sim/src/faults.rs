//! Deterministic, seed-driven fault injection for the simulated machine.
//!
//! Real UPMEM deployments lose ranks, hit MRAM ECC events, and suffer
//! straggler DPUs — rank-level variability the characterization literature
//! flags as first-order. This module decides *what goes wrong*: each DPU's
//! fate and each transfer batch's timeout are pure SplitMix64 hashes of
//! `(plan seed, site id, fault kind)`, so the same [`FaultPlan`] reproduces
//! the same faults regardless of replay order or host thread count —
//! preserving the PR 1 bit-identity guarantee under chaos.
//!
//! What the host *does about it* — bounded retry with exponential backoff,
//! partition redistribution, graceful degradation — lives in
//! [`crate::resilience`]; the cycle/event accounting flows through the
//! [`crate::counters`] registry so the PR 2 zero-remainder partitions
//! extend to faulty runs.

use crate::config::{FaultPlan, PimConfig, ResiliencePolicy};
use crate::counters::{CounterId, CounterSet};
use crate::pipeline::{mix64, straggler_extra_cycles};

/// Salt distinguishing the per-kind draw streams.
const SALT_LOSS: u64 = 0x10_55;
const SALT_FLIP: u64 = 0xF1_1B;
const SALT_STRAGGLER: u64 = 0x57_4A;
const SALT_TIMEOUT: u64 = 0x71_3E;
/// Salt for the secondary draw sizing ECC/timeout retry counts.
const SALT_RETRIES: u64 = 0x4E_77;
/// Salt for the silent output-corruption draw and its victim selection.
const SALT_SILENT: u64 = 0x51_1F;

/// What the plan decided about one DPU for this system. Verdicts are
/// persistent: the same DPU id always gets the same verdict under the same
/// plan (a dead rank stays dead across kernel launches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// No fault injected.
    Healthy,
    /// The DPU's whole pipeline runs `straggler_multiplier`× slow.
    Straggler,
    /// An MRAM bit flip surfaced as an ECC event on DMA; the host scrubs
    /// it with `retries` backoff-retry rounds and keeps the DPU's results.
    EccRetry {
        /// Retry rounds needed (1..=`max_retries`).
        retries: u32,
    },
    /// The DPU is gone (rank failure, or an ECC event with a zero retry
    /// budget).
    Lost {
        /// `true`: its row block was redistributed to a healthy DPU and
        /// the kernel's results are intact (completed late). `false`: no
        /// redistribution was possible — the partition is dropped and the
        /// kernel completes `Degraded`.
        redistributed: bool,
    },
    /// The DPU completed on time but its output values are silently
    /// corrupted: no ECC event, no timeout, no heartbeat loss — nothing
    /// the detected-fault machinery can see. Only an ABFT checksum guard
    /// at merge time (`alpha_pim::kernel::integrity`) can catch it, which
    /// is why [`FaultEngine::record_events`] deliberately records nothing
    /// for this verdict and its recovery cost is accounted under the
    /// `sdc.*` ledger instead of `fault.*`.
    SilentFlip,
}

impl FaultVerdict {
    /// Whether this verdict drops the DPU's functional contribution.
    pub fn is_dropped(self) -> bool {
        matches!(self, FaultVerdict::Lost { redistributed: false })
    }
}

/// The seeded fault oracle for one system: pure functions from site ids to
/// verdicts and recovery costs. Cheap to build (one O(`num_dpus`)
/// survivability scan) and to query (a few integer mixes per call).
#[derive(Debug, Clone)]
pub struct FaultEngine {
    plan: FaultPlan,
    /// Logical→physical DPU id map on a quarantine-shrunk machine (empty =
    /// identity). Draws key on *physical* ids so a surviving DPU keeps its
    /// seeded fate when neighbours are quarantined out of the plan.
    remap: Vec<u32>,
    /// Whether dead DPUs can be redistributed: the policy allows it and at
    /// least one DPU in `0..num_dpus` survives the loss draws.
    survivable: bool,
}

impl FaultEngine {
    /// Builds the oracle for a machine of `num_dpus` DPUs.
    pub fn new(plan: FaultPlan, num_dpus: u32) -> Self {
        let mut engine = FaultEngine { plan, remap: Vec::new(), survivable: false };
        engine.survivable = engine.plan.policy.redistribute
            && (0..num_dpus).any(|d| !engine.raw_loss(d));
        engine
    }

    /// Builds the oracle a config calls for, honouring its quarantine
    /// remap: `None` when the config carries no plan or an inert one (so
    /// callers skip fault bookkeeping entirely on healthy runs).
    pub fn from_config(cfg: &PimConfig) -> Option<Self> {
        let plan = cfg.faults.as_ref().filter(|plan| !plan.is_inert())?;
        let mut engine = FaultEngine {
            plan: plan.clone(),
            remap: cfg.dpu_remap.clone(),
            survivable: false,
        };
        engine.survivable = engine.plan.policy.redistribute
            && (0..cfg.num_dpus).any(|d| !engine.raw_loss(engine.physical(d)));
        Some(engine)
    }

    /// The physical DPU id behind logical slot `dpu` (identity without a
    /// quarantine remap).
    pub fn physical(&self, dpu: u32) -> u32 {
        self.remap.get(dpu as usize).copied().unwrap_or(dpu)
    }

    /// The plan this oracle draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The active resilience policy.
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.plan.policy
    }

    /// Whether lost DPUs are redistributed rather than dropped.
    pub fn survivable(&self) -> bool {
        self.survivable
    }

    /// A uniform draw in `[0, 1)`, pure in `(seed, salt, id)`.
    fn unit(&self, salt: u64, id: u64) -> f64 {
        let h = mix64(self.plan.seed ^ mix64(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ id));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether the plan kills the DPU at *physical* id `dpu` outright,
    /// before policy escalation.
    fn raw_loss(&self, dpu: u32) -> bool {
        let d = dpu as u64;
        if self.unit(SALT_LOSS, d) < self.plan.dpu_loss_rate {
            return true;
        }
        // A zero retry budget turns every ECC event into a loss.
        self.plan.policy.max_retries == 0
            && self.unit(SALT_FLIP, d) < self.plan.bitflip_rate
    }

    /// This DPU's verdict under the plan (precedence: loss > bit flip >
    /// silent flip > straggler). `dpu` is a logical slot; the draw keys on
    /// its physical id so verdicts survive quarantine re-planning.
    pub fn verdict(&self, dpu: u32) -> FaultVerdict {
        let d = self.physical(dpu) as u64;
        if self.unit(SALT_LOSS, d) < self.plan.dpu_loss_rate {
            return FaultVerdict::Lost { redistributed: self.survivable };
        }
        if self.unit(SALT_FLIP, d) < self.plan.bitflip_rate {
            let budget = self.plan.policy.max_retries;
            if budget == 0 {
                return FaultVerdict::Lost { redistributed: self.survivable };
            }
            let retries = 1 + (mix64(self.plan.seed ^ mix64(SALT_RETRIES ^ d)) % budget as u64) as u32;
            return FaultVerdict::EccRetry { retries };
        }
        if self.unit(SALT_SILENT, d) < self.plan.silent_flip_rate {
            return FaultVerdict::SilentFlip;
        }
        if self.unit(SALT_STRAGGLER, d) < self.plan.straggler_rate {
            return FaultVerdict::Straggler;
        }
        FaultVerdict::Healthy
    }

    /// Whether logical slot `dpu` silently corrupts its output this run.
    pub fn silently_flipped(&self, dpu: u32) -> bool {
        self.verdict(dpu) == FaultVerdict::SilentFlip
    }

    /// The deterministic corruption shape for a silently flipped DPU: a
    /// `(victim_hint, bit_pattern)` pair of independent pure draws. Kernels
    /// reduce `victim_hint` over their partition's live output elements to
    /// pick which one to corrupt, and fold `bit_pattern` into its value.
    /// Pure in `(seed, physical id)`, so the corruption replays identically
    /// at any thread count and across quarantine re-plans.
    pub fn corruption_draw(&self, dpu: u32) -> (u64, u64) {
        let d = self.physical(dpu) as u64;
        let h = mix64(self.plan.seed ^ mix64(SALT_SILENT.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ d));
        let victim = mix64(h ^ 0xA5A5_A5A5_A5A5_A5A5);
        let pattern = mix64(victim.wrapping_add(0x9e37_79b9_7f4a_7c15));
        (victim, pattern)
    }

    /// Total backoff cycles of `retries` exponential rounds
    /// (`base, 2·base, 4·base, …`, shift-capped to stay finite and
    /// saturating at `u64::MAX` instead of overflowing).
    pub fn backoff_cycles(&self, retries: u32) -> u64 {
        saturating_backoff(self.plan.policy.backoff_base_cycles, retries)
    }

    /// Recovery cycles this verdict adds on top of a `base_cycles`
    /// makespan. The same formula applies to discrete-event and estimated
    /// makespans so sampled-fidelity calibration stays coherent.
    pub fn penalty_cycles(&self, verdict: FaultVerdict, base_cycles: u64) -> u64 {
        match verdict {
            FaultVerdict::Healthy => 0,
            FaultVerdict::Straggler => {
                straggler_extra_cycles(base_cycles, self.plan.straggler_multiplier)
            }
            FaultVerdict::EccRetry { retries } => self.backoff_cycles(retries),
            // Detected at completion, then the row block re-runs on a
            // healthy stand-in after one backoff window.
            FaultVerdict::Lost { redistributed: true } => {
                base_cycles + self.plan.policy.backoff_base_cycles
            }
            FaultVerdict::Lost { redistributed: false } => 0,
            // Silent by definition: the pipeline finishes on schedule. Any
            // recompute cost is charged by the integrity guard that
            // actually detects the corruption, under `sdc.recompute_cycles`.
            FaultVerdict::SilentFlip => 0,
        }
    }

    /// Which fault-cycle bucket this verdict's penalty belongs to.
    pub fn penalty_bucket(&self, verdict: FaultVerdict) -> CounterId {
        match verdict {
            FaultVerdict::Straggler => CounterId::FaultStragglerCycles,
            _ => CounterId::FaultRetryCycles,
        }
    }

    /// Records the event-level accounting of one DPU verdict: injected ==
    /// detected, and every detected fault is either recovered or lost.
    /// `SilentFlip` records nothing here — by construction it raises no
    /// detectable event, so it must not perturb the `fault.*` ledgers; the
    /// `sdc.*` ledger is kept by the merge-time integrity guard instead.
    pub fn record_events(&self, verdict: FaultVerdict, events: &mut CounterSet) {
        if matches!(verdict, FaultVerdict::Healthy | FaultVerdict::SilentFlip) {
            return;
        }
        events.add(CounterId::FaultsInjected, 1);
        events.add(CounterId::FaultsDetected, 1);
        match verdict {
            FaultVerdict::Healthy | FaultVerdict::SilentFlip => {
                unreachable!("filtered above")
            }
            FaultVerdict::Straggler => events.add(CounterId::FaultsRecovered, 1),
            FaultVerdict::EccRetry { retries } => {
                events.add(CounterId::FaultsRecovered, 1);
                events.add(CounterId::FaultRetries, retries as u64);
            }
            FaultVerdict::Lost { redistributed: true } => {
                events.add(CounterId::FaultsRecovered, 1);
                events.add(CounterId::FaultRedistributions, 1);
            }
            FaultVerdict::Lost { redistributed: false } => {
                events.add(CounterId::FaultsLost, 1);
            }
        }
    }

    /// Timeout draw for one CPU↔DPU transfer batch, identified by its
    /// sequence number within the launch and its payload size. Returns the
    /// retransmit rounds needed (0 = the batch went through cleanly).
    pub fn transfer_timeout_retries(&self, batch_seq: u64, bytes: u64) -> u32 {
        let id = mix64(batch_seq.wrapping_mul(0x94d0_49bb_1331_11eb) ^ bytes);
        if self.unit(SALT_TIMEOUT, id) >= self.plan.timeout_rate {
            return 0;
        }
        let budget = self.plan.policy.max_retries.max(1);
        1 + (mix64(self.plan.seed ^ mix64(SALT_RETRIES ^ id)) % budget as u64) as u32
    }
}

/// Total cycles of `retries` exponential backoff rounds in closed form:
/// round `i` waits `base << min(i, 16)`, so the sum is
/// `base · (2^min(r,17) − 1 + max(r − 17, 0) · 2^16)`. Evaluated in
/// `u128` and clamped, so no combination of `base`/`retries` can
/// overflow `u64` — extreme inputs saturate at `u64::MAX`.
pub fn saturating_backoff(base: u64, retries: u32) -> u64 {
    let r = retries as u128;
    let factor = ((1u128 << r.min(17)) - 1) + r.saturating_sub(17) * (1u128 << 16);
    u64::try_from(base as u128 * factor).unwrap_or(u64::MAX)
}

/// A deterministic host-crash plan: the host process dies at the checkpoint
/// boundary right after a given superstep of a serving batch completes.
/// Unlike the DPU-level verdicts above, a host crash kills the *orchestrator*
/// — all in-flight stepper state would be lost without the checkpoint layer
/// (`alpha_pim::recover`). The crash superstep is pinned explicitly, so
/// crash sweeps replay identically at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCrashPlan {
    /// Zero-based superstep index after which the host dies. The crash
    /// happens *after* the superstep's checkpoint is durable, modeling a
    /// write-ahead discipline: state reached before death is recoverable.
    pub crash_after_superstep: u64,
}

impl HostCrashPlan {
    /// A plan that crashes right after superstep `k` completes.
    pub fn at(superstep: u64) -> Self {
        HostCrashPlan { crash_after_superstep: superstep }
    }

    /// Whether the host dies at the boundary after `superstep`.
    pub fn fires_after(self, superstep: u64) -> bool {
        superstep == self.crash_after_superstep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::uniform(0xC0FFEE, rate)
    }

    #[test]
    fn inert_plan_never_fires() {
        let e = FaultEngine::new(plan(0.0), 64);
        for d in 0..64 {
            assert_eq!(e.verdict(d), FaultVerdict::Healthy);
            assert!(!e.verdict(d).is_dropped());
        }
        assert_eq!(e.transfer_timeout_retries(0, 1024), 0);
    }

    #[test]
    fn saturated_plan_kills_everything() {
        let e = FaultEngine::new(plan(1.0), 16);
        // Loss rate 1.0 leaves no healthy DPU, so nothing is survivable.
        assert!(!e.survivable());
        for d in 0..16 {
            assert_eq!(e.verdict(d), FaultVerdict::Lost { redistributed: false });
        }
    }

    #[test]
    fn verdicts_are_pure_and_persistent() {
        let a = FaultEngine::new(plan(0.3), 256);
        let b = FaultEngine::new(plan(0.3), 256);
        for d in (0..256).rev() {
            assert_eq!(a.verdict(d), b.verdict(d), "dpu {d}");
        }
    }

    #[test]
    fn rates_shift_the_fault_mix() {
        let e = FaultEngine::new(plan(0.25), 512);
        let mut lost = 0;
        let mut hit = 0;
        for d in 0..512 {
            match e.verdict(d) {
                FaultVerdict::Healthy => {}
                FaultVerdict::Lost { .. } => {
                    lost += 1;
                    hit += 1;
                }
                _ => hit += 1,
            }
        }
        // 25% loss + 25% flip + 25% straggler of the rest: well over half
        // the DPUs should be hit, and a quarter-ish lost.
        assert!(hit > 150, "hit {hit}");
        assert!((64..192).contains(&lost), "lost {lost}");
    }

    #[test]
    fn zero_retry_budget_escalates_ecc_to_loss() {
        let mut p = plan(0.0);
        p.bitflip_rate = 1.0;
        p.policy.max_retries = 0;
        let e = FaultEngine::new(p, 8);
        assert!(matches!(e.verdict(0), FaultVerdict::Lost { .. }));
    }

    #[test]
    fn redistribution_requires_policy_and_a_healthy_dpu() {
        let mut p = plan(0.0);
        p.dpu_loss_rate = 0.5;
        let with = FaultEngine::new(p.clone(), 64);
        assert!(with.survivable());
        p.policy.redistribute = false;
        let without = FaultEngine::new(p, 64);
        assert!(!without.survivable());
    }

    #[test]
    fn backoff_is_exponential_and_penalties_scale() {
        let e = FaultEngine::new(plan(0.0), 4);
        let base = e.plan().policy.backoff_base_cycles;
        assert_eq!(e.backoff_cycles(1), base);
        assert_eq!(e.backoff_cycles(3), base + 2 * base + 4 * base);
        assert_eq!(e.penalty_cycles(FaultVerdict::Healthy, 1000), 0);
        assert_eq!(e.penalty_cycles(FaultVerdict::Straggler, 1000), 500);
        assert_eq!(
            e.penalty_cycles(FaultVerdict::Lost { redistributed: true }, 1000),
            1000 + base,
        );
        assert_eq!(e.penalty_cycles(FaultVerdict::Lost { redistributed: false }, 1000), 0);
    }

    #[test]
    fn event_accounting_balances() {
        let e = FaultEngine::new(plan(0.0), 4);
        let mut c = CounterSet::new();
        for v in [
            FaultVerdict::Healthy,
            FaultVerdict::Straggler,
            FaultVerdict::EccRetry { retries: 2 },
            FaultVerdict::Lost { redistributed: true },
            FaultVerdict::Lost { redistributed: false },
        ] {
            e.record_events(v, &mut c);
        }
        assert_eq!(c.get(CounterId::FaultsInjected), 4);
        assert_eq!(c.get(CounterId::FaultsDetected), 4);
        assert_eq!(
            c.get(CounterId::FaultsRecovered) + c.get(CounterId::FaultsLost),
            c.get(CounterId::FaultsDetected),
        );
        assert_eq!(c.get(CounterId::FaultRetries), 2);
        assert_eq!(c.get(CounterId::FaultRedistributions), 1);
    }

    #[test]
    fn silent_flips_fire_without_any_detectable_event() {
        let p = FaultPlan::silent(0xC0FFEE, 1.0);
        let e = FaultEngine::new(p, 16);
        let mut c = CounterSet::new();
        for d in 0..16 {
            assert_eq!(e.verdict(d), FaultVerdict::SilentFlip, "dpu {d}");
            assert!(e.silently_flipped(d));
            assert!(!e.verdict(d).is_dropped());
            assert_eq!(e.penalty_cycles(FaultVerdict::SilentFlip, 1000), 0);
            e.record_events(e.verdict(d), &mut c);
        }
        // Nothing detectable: the fault.* ledgers stay untouched.
        assert_eq!(c.get(CounterId::FaultsInjected), 0);
        assert_eq!(c.get(CounterId::FaultsDetected), 0);
        // Corruption draws are pure and per-DPU distinct.
        assert_eq!(e.corruption_draw(3), e.corruption_draw(3));
        assert_ne!(e.corruption_draw(3), e.corruption_draw(4));
    }

    #[test]
    fn silent_flip_yields_precedence_to_detected_faults() {
        let mut p = FaultPlan::silent(7, 1.0);
        p.dpu_loss_rate = 1.0;
        let e = FaultEngine::new(p, 4);
        assert!(matches!(e.verdict(0), FaultVerdict::Lost { .. }));
        let mut q = FaultPlan::silent(7, 1.0);
        q.bitflip_rate = 1.0;
        let e = FaultEngine::new(q, 4);
        assert!(matches!(e.verdict(0), FaultVerdict::EccRetry { .. }));
        // ...but wins over straggler.
        let mut r = FaultPlan::silent(7, 1.0);
        r.straggler_rate = 1.0;
        let e = FaultEngine::new(r, 4);
        assert_eq!(e.verdict(0), FaultVerdict::SilentFlip);
    }

    #[test]
    fn remapped_engine_keeps_physical_fates() {
        use crate::config::PimConfig;
        let mut plan = plan(0.0);
        plan.silent_flip_rate = 0.4;
        let mut cfg = PimConfig { num_dpus: 8, ..PimConfig::default() };
        cfg.faults = Some(plan);
        let full = FaultEngine::from_config(&cfg).expect("plan is live");
        // Quarantine physical DPUs 1 and 5: logical slots now map to the
        // surviving physical ids, whose verdicts must not move.
        let shrunk_cfg = cfg.excluding_dpus(&[1, 5]).expect("survivors remain");
        let shrunk = FaultEngine::from_config(&shrunk_cfg).expect("plan is live");
        let survivors: Vec<u32> = (0..8).filter(|d| *d != 1 && *d != 5).collect();
        for (logical, physical) in survivors.iter().enumerate() {
            assert_eq!(shrunk.physical(logical as u32), *physical);
            assert_eq!(
                shrunk.verdict(logical as u32),
                full.verdict(*physical),
                "physical {physical}",
            );
            assert_eq!(
                shrunk.corruption_draw(logical as u32),
                full.corruption_draw(*physical),
            );
        }
    }

    #[test]
    fn from_config_skips_missing_and_inert_plans() {
        use crate::config::PimConfig;
        let cfg = PimConfig::default();
        assert!(FaultEngine::from_config(&cfg).is_none());
        let mut inert = cfg.clone();
        inert.faults = Some(plan(0.0));
        assert!(FaultEngine::from_config(&inert).is_none());
        let mut live = cfg;
        live.faults = Some(plan(0.1));
        assert!(FaultEngine::from_config(&live).is_some());
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // Closed form matches the checked reference wherever the reference
        // itself fits in u64.
        let reference = |base: u64, retries: u32| -> Option<u64> {
            let mut total = 0u64;
            for i in 0..retries {
                total = total.checked_add(base.checked_shl(i.min(16))?)?;
            }
            Some(total)
        };
        let mut seed = 0x5EED_u64;
        for _ in 0..256 {
            seed = mix64(seed);
            let base = seed % (1 << 40);
            let retries = (mix64(seed) % 64) as u32;
            if let Some(want) = reference(base, retries) {
                assert_eq!(saturating_backoff(base, retries), want, "base {base} retries {retries}");
            }
        }
        // Extremes saturate rather than panic or wrap.
        assert_eq!(saturating_backoff(u64::MAX, u32::MAX), u64::MAX);
        assert_eq!(saturating_backoff(u64::MAX, 2), u64::MAX);
        assert_eq!(saturating_backoff(1 << 63, 64), u64::MAX);
        assert_eq!(saturating_backoff(0, u32::MAX), 0);
        assert_eq!(saturating_backoff(u64::MAX, 0), 0);
        assert_eq!(saturating_backoff(u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn host_crash_plans_are_pure_and_bounded() {
        assert!(HostCrashPlan::at(3).fires_after(3));
        assert!(!HostCrashPlan::at(3).fires_after(2));
    }

    #[test]
    fn timeout_draws_depend_on_batch_and_size() {
        let mut p = plan(0.0);
        p.timeout_rate = 0.5;
        let e = FaultEngine::new(p, 4);
        let fired: usize = (0..64).filter(|&s| e.transfer_timeout_retries(s, 4096) > 0).count();
        assert!((16..48).contains(&fired), "fired {fired}");
        // Pure: same inputs, same answer.
        assert_eq!(e.transfer_timeout_retries(7, 512), e.transfer_timeout_retries(7, 512));
    }
}
