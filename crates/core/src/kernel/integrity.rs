//! Merge-time ABFT integrity guards against silent output corruption.
//!
//! The fault oracle's [`FaultVerdict::SilentFlip`] corrupts a partition's
//! output values without raising any detectable event — no ECC retry, no
//! timeout, no heartbeat loss. The only place such corruption *can* be
//! caught is the host's merge loop, where every partition's values pass
//! through on their way into the global output. This module implements the
//! classic algorithm-based fault tolerance (ABFT) construction for that
//! point, matched to the semiring:
//!
//! * **Linear-sum checksums** for the plus-times semirings (PPR): a
//!   running `f64` sum of the partition's outputs plus a count. Linear
//!   kernels preserve row sums, so a trusted checksum is cheap.
//! * **Frontier fingerprints** for the tropical/boolean semirings
//!   (BFS/SSSP), where linear checksums do not apply: cardinality plus an
//!   order-independent XOR-fold over mixed `(vertex, value)` pairs. The
//!   mix is bijective, so any single-element change flips the fold with
//!   certainty.
//!
//! On mismatch the guard localizes the offending partition (the checksum
//! is per-partition, so localization is immediate), restores the trusted
//! values — modeling a recompute on a healthy stand-in DPU through the
//! resilience redistribution path — and charges the recompute to the merge
//! phase under `sdc.recompute_cycles`. The `sdc.*` counters form
//! zero-remainder ledgers:
//!
//! ```text
//! sdc.injected = sdc.detected + sdc.escaped
//! sdc.detected = sdc.corrected
//! sdc.escaped  = 0   whenever verification is enabled
//! ```
//!
//! The guard is *inert* (zero draws, zero counter writes) unless the
//! system's fault plan sets `silent_flip_rate > 0`, so clean runs stay
//! bit-identical to pre-integrity builds. Idle partitions (no issued
//! instructions) and lost partitions are never admitted — an idle DPU
//! cannot be a fault site, and a lost one contributes no output to guard.

use std::collections::HashMap;

use alpha_pim_sim::faults::FaultEngine;
use alpha_pim_sim::pipeline::mix64;
use alpha_pim_sim::report::{KernelReport, PhaseBreakdown};
use alpha_pim_sim::{CounterId, PimSystem};

use crate::semiring::{GuardScheme, Semiring};

#[cfg(doc)]
use alpha_pim_sim::faults::FaultVerdict;

/// A per-partition output checksum under one [`GuardScheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Checksum {
    /// `f64` running-sum bits + element count.
    LinearSum { sum_bits: u64, count: u64 },
    /// Element count + XOR-fold over mixed `(key, value)` pairs.
    Fingerprint { count: u64, fold: u64 },
}

/// Folds one `(key, value)` pair into a fingerprint accumulator. The
/// `key + 1` offset keeps key 0 from hashing to the same stream as an
/// absent element.
fn fold_pair<S: Semiring>(fold: u64, key: u32, v: S::Elem) -> u64 {
    fold ^ mix64(mix64(key as u64 + 1) ^ S::elem_bits(v))
}

/// Checksums a contiguous output band whose element `i` holds global key
/// `base_key + i`.
fn checksum_band<S: Semiring>(base_key: u32, local: &[S::Elem]) -> Checksum {
    match S::guard_scheme() {
        GuardScheme::LinearSum => {
            let mut sum = 0.0f64;
            for v in local {
                sum += S::elem_to_f64(*v);
            }
            Checksum::LinearSum { sum_bits: sum.to_bits(), count: local.len() as u64 }
        }
        GuardScheme::Fingerprint => {
            let mut fold = 0u64;
            for (i, v) in local.iter().enumerate() {
                fold = fold_pair::<S>(fold, base_key + i as u32, *v);
            }
            Checksum::Fingerprint { count: local.len() as u64, fold }
        }
    }
}

/// Checksums a keyed partial-output map. Both schemes here are
/// order-independent (XOR, and `f64` sums taken in sorted-key order would
/// be too — but the map is checksummed twice in the *same* traversal
/// order, so even the float sum only has to be self-consistent; we still
/// sort keys so the trusted and recomputed sums see identical orders).
fn checksum_map<S: Semiring>(partial: &HashMap<u32, S::Elem>) -> Checksum {
    match S::guard_scheme() {
        GuardScheme::LinearSum => {
            let mut keys: Vec<u32> = partial.keys().copied().collect();
            keys.sort_unstable();
            let mut sum = 0.0f64;
            for k in keys {
                sum += S::elem_to_f64(partial[&k]);
            }
            Checksum::LinearSum { sum_bits: sum.to_bits(), count: partial.len() as u64 }
        }
        GuardScheme::Fingerprint => {
            let mut fold = 0u64;
            for (&k, &v) in partial {
                fold = fold_pair::<S>(fold, k, v);
            }
            Checksum::Fingerprint { count: partial.len() as u64, fold }
        }
    }
}

/// The merge-loop integrity guard for one kernel launch.
///
/// The launch path ([`crate::kernel::exec::launch`]) is its single merge
/// point: it builds one per launch, lends it to every *active, non-lost*
/// partition, whose variant calls an `admit_*` method right before the
/// values enter the global output, and finalizes it once the report is
/// finished, folding the `sdc.*` ledger, the offender list, and the
/// recompute penalty into the kernel report.
pub(crate) struct IntegrityGuard<'a> {
    /// Present only when the plan can actually flip outputs.
    faults: Option<&'a FaultEngine>,
    /// Whether mismatches are corrected (policy `verify_merges`).
    verify: bool,
    checks: u64,
    injected: u64,
    detected: u64,
    escaped: u64,
    /// Physical ids of partitions whose corruption was detected.
    corrupted: Vec<u32>,
}

impl<'a> IntegrityGuard<'a> {
    /// A guard for this system: inert unless the fault plan draws silent
    /// flips.
    pub(crate) fn new(sys: &'a PimSystem) -> Self {
        let faults = sys.fault_engine().filter(|e| e.plan().silent_flip_rate > 0.0);
        let verify = faults.map(|e| e.policy().verify_merges).unwrap_or(false);
        IntegrityGuard { faults, verify, checks: 0, injected: 0, detected: 0, escaped: 0, corrupted: Vec::new() }
    }

    /// Admits one contiguous output band (element `i` ↔ global key
    /// `base_key + i`) about to be merged for logical DPU `dpu`:
    /// checksums it, injects the DPU's seeded corruption if the verdict
    /// says so, and — with verification on — detects, restores, and
    /// records the offender.
    pub(crate) fn admit_band<S: Semiring>(
        &mut self,
        dpu: u32,
        base_key: u32,
        local: &mut [S::Elem],
    ) {
        let Some(engine) = self.faults else { return };
        self.checks += 1;
        if !engine.silently_flipped(dpu) || local.is_empty() {
            return;
        }
        let (victim_hint, pattern) = engine.corruption_draw(dpu);
        let idx = (victim_hint % local.len() as u64) as usize;
        let trusted = self.verify.then(|| checksum_band::<S>(base_key, local));
        let original = local[idx];
        local[idx] = S::corrupt_elem(original, pattern);
        self.injected += 1;
        let Some(trusted) = trusted else {
            self.escaped += 1;
            return;
        };
        if checksum_band::<S>(base_key, local) != trusted {
            local[idx] = original;
            self.record_detection(engine, dpu);
        } else {
            self.escaped += 1;
        }
    }

    /// Admits a sparse band output — the non-zero `(local row, value)`
    /// pairs, in ascending row order, of a `band`-row band whose row `i`
    /// holds global key `base_key + i` — exactly as [`Self::admit_band`]
    /// admits the dense band. Only a DPU the fault plan flips pays for the
    /// dense band: it is rebuilt, admitted, and compressed back into
    /// `pairs`, so a victim on an untouched row that verification does not
    /// restore surfaces as a new pair.
    pub(crate) fn admit_pairs<S: Semiring>(
        &mut self,
        dpu: u32,
        base_key: u32,
        band: usize,
        pairs: &mut Vec<(u32, S::Elem)>,
    ) {
        let Some(engine) = self.faults else { return };
        if !engine.silently_flipped(dpu) {
            self.checks += 1;
            return;
        }
        let mut local = vec![S::zero(); band];
        for &(r, v) in pairs.iter() {
            local[r as usize] = v;
        }
        self.admit_band::<S>(dpu, base_key, &mut local);
        pairs.clear();
        for (i, v) in local.into_iter().enumerate() {
            if !S::is_zero(&v) {
                pairs.push((i as u32, v));
            }
        }
    }

    /// Admits a keyed partial-output map (CSC-C's merge structure). The
    /// victim is chosen key-deterministically — the entry minimizing
    /// `mix64(victim_hint ^ key)` — so the corruption site is independent
    /// of the map's iteration order.
    pub(crate) fn admit_map<S: Semiring>(
        &mut self,
        dpu: u32,
        partial: &mut HashMap<u32, S::Elem>,
    ) {
        let Some(engine) = self.faults else { return };
        self.checks += 1;
        if !engine.silently_flipped(dpu) || partial.is_empty() {
            return;
        }
        let (victim_hint, pattern) = engine.corruption_draw(dpu);
        let victim_key = partial
            .keys()
            .copied()
            .min_by_key(|&k| mix64(victim_hint ^ k as u64))
            .expect("map checked non-empty");
        let trusted = self.verify.then(|| checksum_map::<S>(partial));
        let original = partial[&victim_key];
        partial.insert(victim_key, S::corrupt_elem(original, pattern));
        self.injected += 1;
        let Some(trusted) = trusted else {
            self.escaped += 1;
            return;
        };
        if checksum_map::<S>(partial) != trusted {
            partial.insert(victim_key, original);
            self.record_detection(engine, dpu);
        } else {
            self.escaped += 1;
        }
    }

    fn record_detection(&mut self, engine: &FaultEngine, dpu: u32) {
        self.detected += 1;
        self.corrupted.push(engine.physical(dpu));
    }

    /// Folds the guard's ledger into the finished kernel report and
    /// charges the detected partitions' recompute to the merge phase.
    ///
    /// Each corrected partition re-runs on a healthy stand-in after one
    /// detection window — the same cost model as a redistributed loss
    /// (`makespan + backoff_base`) — but the charge lands in the merge
    /// phase and `sdc.recompute_cycles`, *not* in the kernel makespan or
    /// the `slot.*`/`tasklet.*` cycle partitions, which stay exactly as
    /// the fault-free pipeline produced them (the DPUs themselves ran
    /// cleanly; the recompute is host-orchestrated repair).
    pub(crate) fn finalize(
        self,
        sys: &PimSystem,
        kernel: &mut KernelReport,
        phases: &mut PhaseBreakdown,
    ) {
        let Some(engine) = self.faults else { return };
        let c = &mut kernel.breakdown.counters;
        c.add(CounterId::SdcChecks, self.checks);
        c.add(CounterId::SdcInjected, self.injected);
        c.add(CounterId::SdcDetected, self.detected);
        c.add(CounterId::SdcCorrected, self.detected);
        c.add(CounterId::SdcEscaped, self.escaped);
        if self.detected > 0 {
            let per_partition =
                kernel.max_cycles + engine.policy().backoff_base_cycles;
            let recompute = per_partition.saturating_mul(self.detected);
            c.add(CounterId::SdcRecomputeCycles, recompute);
            phases.merge += recompute as f64 * sys.config().cycle_seconds();
        }
        let mut corrupted = self.corrupted;
        corrupted.sort_unstable();
        corrupted.dedup();
        kernel.corrupted_dpus = corrupted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolOrAnd, MinPlus, PlusTimes};
    use alpha_pim_sim::config::FaultPlan;
    use alpha_pim_sim::{PimConfig, SimFidelity};

    fn system_with(plan: Option<FaultPlan>) -> PimSystem {
        PimSystem::new(PimConfig {
            num_dpus: 4,
            fidelity: SimFidelity::Full,
            faults: plan,
            ..Default::default()
        })
        .unwrap()
    }

    fn silent_sys(rate: f64) -> PimSystem {
        system_with(Some(FaultPlan::silent(0xC0FFEE, rate)))
    }

    #[test]
    fn fingerprints_are_order_independent_and_sensitive() {
        let a = checksum_band::<MinPlus>(10, &[1, 2, 3]);
        let b = checksum_band::<MinPlus>(10, &[1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, checksum_band::<MinPlus>(10, &[1, 2, 4]));
        assert_ne!(a, checksum_band::<MinPlus>(11, &[1, 2, 3]));
        // Map fingerprints don't depend on insertion order.
        let mut m1 = HashMap::new();
        let mut m2 = HashMap::new();
        for k in 0..32u32 {
            m1.insert(k, k + 5);
        }
        for k in (0..32u32).rev() {
            m2.insert(k, k + 5);
        }
        assert_eq!(checksum_map::<MinPlus>(&m1), checksum_map::<MinPlus>(&m2));
    }

    #[test]
    fn linear_sums_catch_a_single_flip() {
        let clean = [0.25f32, 1.5, 0.75, 2.0];
        let trusted = checksum_band::<PlusTimes>(0, &clean);
        for i in 0..clean.len() {
            let mut dirty = clean;
            dirty[i] = PlusTimes::corrupt_elem(dirty[i], 0x1234_5678);
            assert_ne!(checksum_band::<PlusTimes>(0, &dirty), trusted, "flip at {i}");
        }
    }

    #[test]
    fn inert_guard_touches_nothing() {
        let sys = system_with(None);
        let mut guard = IntegrityGuard::new(&sys);
        let mut band = [1u32, 2, 3];
        guard.admit_band::<BoolOrAnd>(0, 0, &mut band);
        assert_eq!(band, [1, 2, 3]);
        let mut kernel = dummy_report();
        let mut phases = PhaseBreakdown::default();
        guard.finalize(&sys, &mut kernel, &mut phases);
        assert_eq!(kernel.breakdown.counters.get(CounterId::SdcChecks), 0);
        assert!(kernel.corrupted_dpus.is_empty());
    }

    #[test]
    fn verified_guard_corrects_and_charges_recompute() {
        let sys = silent_sys(1.0);
        let mut guard = IntegrityGuard::new(&sys);
        let clean = [7u32, 8, 9];
        let mut band = clean;
        guard.admit_band::<MinPlus>(0, 0, &mut band);
        assert_eq!(band, clean, "verification restores ground truth");
        let mut kernel = dummy_report();
        let mut phases = PhaseBreakdown::default();
        let merge_before = phases.merge;
        guard.finalize(&sys, &mut kernel, &mut phases);
        let c = &kernel.breakdown.counters;
        assert_eq!(c.get(CounterId::SdcInjected), 1);
        assert_eq!(c.get(CounterId::SdcDetected), 1);
        assert_eq!(c.get(CounterId::SdcCorrected), 1);
        assert_eq!(c.get(CounterId::SdcEscaped), 0);
        assert_eq!(c.get(CounterId::SdcChecks), 1);
        assert!(c.get(CounterId::SdcRecomputeCycles) > 0);
        assert!(phases.merge > merge_before);
        assert_eq!(kernel.corrupted_dpus, vec![0]);
    }

    #[test]
    fn unverified_guard_lets_corruption_escape() {
        let mut plan = FaultPlan::silent(0xC0FFEE, 1.0);
        plan.policy.verify_merges = false;
        let sys = system_with(Some(plan));
        let mut guard = IntegrityGuard::new(&sys);
        let clean = [7u32, 8, 9];
        let mut band = clean;
        guard.admit_band::<MinPlus>(0, 0, &mut band);
        assert_ne!(band, clean, "corruption flows through unverified");
        let mut kernel = dummy_report();
        let mut phases = PhaseBreakdown::default();
        guard.finalize(&sys, &mut kernel, &mut phases);
        let c = &kernel.breakdown.counters;
        assert_eq!(c.get(CounterId::SdcInjected), 1);
        assert_eq!(c.get(CounterId::SdcEscaped), 1);
        assert_eq!(c.get(CounterId::SdcDetected), 0);
        assert_eq!(c.get(CounterId::SdcRecomputeCycles), 0);
        assert!(kernel.corrupted_dpus.is_empty());
    }

    /// `admit_pairs` on a flipped DPU whose victim is an untouched row
    /// leaves the output, the `sdc.*` ledger, the offender list and the
    /// recompute charge exactly as `admit_band` leaves the dense band.
    fn pairs_entry_matches_dense_band<S: Semiring>() {
        const BAND: usize = 48;
        const BASE: u32 = 100;
        let touched = vec![(5u32, S::from_weight(3)), (40, S::from_weight(9))];
        let densify = |pairs: &[(u32, S::Elem)]| {
            let mut band = vec![S::zero(); BAND];
            for &(r, v) in pairs {
                band[r as usize] = v;
            }
            band
        };
        for verify in [true, false] {
            let mut plan = FaultPlan::silent(0xC0FFEE, 1.0);
            plan.policy.verify_merges = verify;
            let sys = system_with(Some(plan));
            let engine = sys.fault_engine().expect("the plan is set");
            let dpu = (0..sys.num_dpus())
                .find(|&d| {
                    let victim = engine.corruption_draw(d).0 % BAND as u64;
                    touched.iter().all(|&(r, _)| u64::from(r) != victim)
                })
                .expect("some DPU's victim row is untouched");
            let mut pairs = touched.clone();
            let mut sparse_guard = IntegrityGuard::new(&sys);
            sparse_guard.admit_pairs::<S>(dpu, BASE, BAND, &mut pairs);
            let mut band = densify(&touched);
            let mut dense_guard = IntegrityGuard::new(&sys);
            dense_guard.admit_band::<S>(dpu, BASE, &mut band);

            assert_eq!(densify(&pairs), band, "verify {verify}");
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "pairs stay in row order");
            if verify {
                assert_eq!(pairs, touched, "the restore leaves no pair on the victim row");
            } else {
                assert_eq!(pairs.len(), touched.len() + 1, "the corruption escapes as a new pair");
            }
            let (mut sparse_kernel, mut dense_kernel) = (dummy_report(), dummy_report());
            let (mut sparse_phases, mut dense_phases) =
                (PhaseBreakdown::default(), PhaseBreakdown::default());
            sparse_guard.finalize(&sys, &mut sparse_kernel, &mut sparse_phases);
            dense_guard.finalize(&sys, &mut dense_kernel, &mut dense_phases);
            assert_eq!(sparse_kernel, dense_kernel, "verify {verify}");
            assert_eq!(sparse_phases, dense_phases, "verify {verify}");
            let c = &sparse_kernel.breakdown.counters;
            assert_eq!(c.get(CounterId::SdcInjected), 1);
            assert_eq!(c.get(CounterId::SdcDetected), u64::from(verify));
            assert_eq!(c.get(CounterId::SdcEscaped), u64::from(!verify));
        }
    }

    #[test]
    fn pairs_entry_matches_dense_band_on_an_untouched_victim() {
        pairs_entry_matches_dense_band::<MinPlus>();
        pairs_entry_matches_dense_band::<PlusTimes>();
    }

    #[test]
    fn map_victims_are_key_deterministic() {
        let build = |order: &[u32]| {
            let mut m: HashMap<u32, u32> = HashMap::new();
            for &k in order {
                m.insert(k, k * 3 + 1);
            }
            m
        };
        let mut plan = FaultPlan::silent(0xC0FFEE, 1.0);
        plan.policy.verify_merges = false;
        let sys2 = system_with(Some(plan));
        let forward: Vec<u32> = (0..64).collect();
        let backward: Vec<u32> = (0..64).rev().collect();
        let mut a = build(&forward);
        let mut b = build(&backward);
        IntegrityGuard::new(&sys2).admit_map::<MinPlus>(1, &mut a);
        IntegrityGuard::new(&sys2).admit_map::<MinPlus>(1, &mut b);
        let av: Vec<(u32, u32)> = {
            let mut v: Vec<_> = a.into_iter().collect();
            v.sort_unstable();
            v
        };
        let bv: Vec<(u32, u32)> = {
            let mut v: Vec<_> = b.into_iter().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(av, bv, "same victim regardless of insertion order");
    }

    fn dummy_report() -> KernelReport {
        KernelReport {
            num_dpus: 4,
            detailed_dpus: 4,
            max_cycles: 1000,
            seconds: 1e-6,
            mean_cycles: 900.0,
            breakdown: Default::default(),
            instr_mix: Default::default(),
            avg_active_threads: 1.0,
            total_instructions: 100,
            degraded: false,
            corrupted_dpus: Vec::new(),
            dpu_details: Vec::new(),
        }
    }
}
