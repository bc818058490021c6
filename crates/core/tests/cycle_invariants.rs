//! Kernel-level cycle-accounting audit: for seeded random matrices driven
//! through the real SpMV / SpMSpV / SpMM kernels (not synthetic traces),
//! the counter rollup in every `KernelReport` must partition the simulated
//! cycles exactly — the slot counters sum to the detailed DPU cycles, the
//! tasklet counters sum to the tasklet budget, and no counter exceeds its
//! budget. 64 seeded cases per kernel.

use alpha_pim::semiring::BoolOrAnd;
use alpha_pim::{
    MultiVector, PreparedSpmm, PreparedSpmspv, PreparedSpmv, SpmspvVariant, SpmvVariant,
};
use alpha_pim_sim::report::KernelReport;
use alpha_pim_sim::{CounterId, ObservabilityLevel, PimConfig, PimSystem, SimFidelity};
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::{gen, Coo, SparseVector};

const CASES: u64 = 64;

fn system() -> PimSystem {
    PimSystem::new(PimConfig {
        num_dpus: 4,
        fidelity: SimFidelity::Full,
        observability: ObservabilityLevel::PerDpu,
        ..Default::default()
    })
    .expect("valid config")
}

/// A small random square Boolean matrix whose shape varies with the case.
fn random_matrix(rng: &mut SplitMix64) -> Coo<u32> {
    let n = 48 + rng.u32_below(200);
    let m = (n as usize) * (2 + rng.usize_below(5));
    gen::erdos_renyi(n, m, 0x5EED ^ u64::from(n)).expect("valid args").map(|_| 1u32)
}

/// A random sparse input vector over `n` with a case-dependent density.
fn random_vector(n: u32, rng: &mut SplitMix64) -> SparseVector<u32> {
    let idx: Vec<u32> = (0..n).filter(|_| rng.u32_below(4) == 0).collect();
    let vals: Vec<u32> = idx.iter().map(|&i| i % 7 + 1).collect();
    SparseVector::from_pairs(n as usize, idx, vals).expect("unique indices")
}

fn assert_partition(r: &KernelReport, kernel: &str, case: u64) {
    let c = &r.breakdown.counters;
    let cycles = c.get(CounterId::DpuCycles);
    let budget = c.get(CounterId::TaskletBudget);
    assert!(cycles > 0, "{kernel} case {case}: no cycles simulated");
    assert_eq!(c.check_ledgers(), Ok(()), "{kernel} case {case}");
    for id in CounterId::SLOT_CYCLES {
        assert!(c.get(id) <= cycles, "{kernel} case {case}: {id} exceeds the cycle total");
    }
    for id in CounterId::TASKLET_CYCLES {
        assert!(c.get(id) <= budget, "{kernel} case {case}: {id} exceeds the budget");
    }
    // Per-DPU details are retained at PerDpu and resum to the rollup on
    // every DPU-side counter (the host/transfer counters are merged in by
    // the kernel layer and intentionally have no per-DPU breakdown).
    let mut resummed = alpha_pim_sim::CounterSet::new();
    for d in &r.dpu_details {
        assert_eq!(d.counters.check_ledgers(), Ok(()), "{kernel} case {case}: DPU {}", d.dpu_id);
        assert_eq!(
            d.counters.get(CounterId::DpuCycles),
            d.total_cycles,
            "{kernel} case {case}: DPU {} detail is internally inconsistent",
            d.dpu_id,
        );
        resummed.merge(&d.counters);
    }
    let host_side = [
        CounterId::XferScatterBytes,
        CounterId::XferBroadcastBytes,
        CounterId::XferGatherBytes,
        CounterId::XferBatches,
        CounterId::HostMergeBytes,
        CounterId::HostScanBytes,
        CounterId::HostReductions,
    ];
    for id in CounterId::ALL {
        if host_side.contains(&id) {
            assert_eq!(resummed.get(id), 0, "{kernel} case {case}: {id} leaked into DPU details");
        } else {
            assert_eq!(
                resummed.get(id),
                c.get(id),
                "{kernel} case {case}: per-DPU details do not sum to the rollup on {id}",
            );
        }
    }
    // The kernels above all move data, so the host side must be non-empty.
    assert!(c.get(CounterId::XferBatches) > 0, "{kernel} case {case}: no transfer recorded");
}

#[test]
fn spmv_counters_partition_cycles_on_seeded_random_kernels() {
    let sys = system();
    let mut rng = SplitMix64::new(0x51A5_0001);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let n = m.n_rows().max(m.n_cols());
        let x = random_vector(n, &mut rng).to_dense(0u32);
        let r = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Dcoo2d, &sys)
            .expect("fits")
            .run(&x, &sys)
            .expect("dims")
            .kernel;
        assert_partition(&r, "SpMV", case);
    }
}

#[test]
fn spmspv_counters_partition_cycles_on_seeded_random_kernels() {
    let sys = system();
    let mut rng = SplitMix64::new(0x51A5_0002);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let n = m.n_rows().max(m.n_cols());
        let x = random_vector(n, &mut rng);
        let r = PreparedSpmspv::<BoolOrAnd>::prepare(&m, SpmspvVariant::Csc2d, &sys)
            .expect("fits")
            .run(&x, &sys)
            .expect("dims")
            .kernel;
        assert_partition(&r, "SpMSpV", case);
    }
}

#[test]
fn spmm_counters_partition_cycles_on_seeded_random_kernels() {
    let sys = system();
    let mut rng = SplitMix64::new(0x51A5_0003);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let n = m.n_rows().max(m.n_cols());
        let k = 1 + rng.usize_below(4);
        let x = MultiVector::filled(n as usize, k, 1u32);
        let r = PreparedSpmm::<BoolOrAnd>::prepare(&m, k as u32, &sys)
            .expect("fits")
            .run(&x, &sys)
            .expect("dims")
            .kernel;
        assert_partition(&r, "SpMM", case);
    }
}
