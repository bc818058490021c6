//! A prepared SpMV matrix may keep what its launches evaluate, but a launch
//! must never show it: every SpMV variant, at every fidelity, fault-free
//! and under a plan with stragglers, ECC retries and dropped DPUs, gives
//! one preparation run twice exactly what two fresh preparations give
//! (report, output vector, phase bits), and a run on a machine that
//! differs only in its pipeline timing or only in its fidelity gives what
//! a fresh preparation there gives.

use alpha_pim::kernel::IterationOutcome;
use alpha_pim::semiring::{PlusTimes, Semiring};
use alpha_pim::{PreparedSpmv, SpmvVariant};
use alpha_pim_sim::{
    FaultEngine, FaultPlan, FaultVerdict, ObservabilityLevel, PimConfig, PimSystem, PipelineConfig,
    ResiliencePolicy, SimFidelity,
};
use alpha_pim_sparse::{gen, Coo, DenseVector};

const FIDELITIES: [SimFidelity; 3] =
    [SimFidelity::Full, SimFidelity::Sampled(8), SimFidelity::Analytic];

/// Stragglers, ECC retries and DPUs lost without redistribution.
fn faulty_plan() -> FaultPlan {
    FaultPlan {
        seed: 0x5EED_5A3E,
        dpu_loss_rate: 0.1,
        straggler_rate: 0.2,
        bitflip_rate: 0.2,
        policy: ResiliencePolicy { redistribute: false, ..Default::default() },
        ..Default::default()
    }
}

/// 16 DPUs. With `tiny_wram` every output band overflows WRAM and no input
/// segment fits the DCOO cache, so the blocked-output and random-MRAM paths
/// run; otherwise the shared-WRAM and cached-segment paths do.
fn machine(fidelity: SimFidelity, faulty: bool, tiny_wram: bool) -> PimConfig {
    PimConfig {
        num_dpus: 16,
        fidelity,
        wram_bytes: if tiny_wram { 128 } else { 64 * 1024 },
        observability: if tiny_wram {
            ObservabilityLevel::PerTasklet
        } else {
            ObservabilityLevel::Aggregate
        },
        faults: faulty.then(faulty_plan),
        ..Default::default()
    }
}

fn system(cfg: &PimConfig) -> PimSystem {
    PimSystem::new(cfg.clone()).expect("valid config")
}

fn prepare(m: &Coo<f32>, variant: SpmvVariant, sys: &PimSystem) -> PreparedSpmv<PlusTimes> {
    PreparedSpmv::prepare(m, variant, sys).expect("fits")
}

fn run(
    prep: &PreparedSpmv<PlusTimes>,
    x: &DenseVector<f32>,
    sys: &PimSystem,
) -> IterationOutcome<PlusTimes> {
    prep.run(x, sys).expect("dimensions match")
}

/// Asserts two launches are indistinguishable, down to the bits of every
/// floating-point field.
fn assert_same<S: Semiring>(a: &IterationOutcome<S>, b: &IterationOutcome<S>, what: &str) {
    assert_eq!(a.kernel, b.kernel, "{what}: kernel report");
    assert_eq!(a.kernel.to_json(), b.kernel.to_json(), "{what}: report JSON");
    assert_eq!(a.y, b.y, "{what}: output vector");
    let bits = |o: &IterationOutcome<S>| {
        let p = o.phases;
        [p.load, p.kernel, p.retrieve, p.merge].map(f64::to_bits)
    };
    assert_eq!(bits(a), bits(b), "{what}: phase bits");
    assert_eq!((a.useful_ops, a.output_nnz), (b.useful_ops, b.output_nnz), "{what}: ops");
}

#[test]
fn reused_preparations_launch_like_fresh_ones() {
    let engine = FaultEngine::new(faulty_plan(), 16);
    let verdicts: Vec<FaultVerdict> = (0..16).map(|d| engine.verdict(d)).collect();
    assert!(verdicts.contains(&FaultVerdict::Straggler), "{verdicts:?}");
    assert!(verdicts.iter().any(|v| matches!(v, FaultVerdict::EccRetry { .. })), "{verdicts:?}");
    assert!(verdicts.iter().any(|v| v.is_dropped()), "{verdicts:?}");
    let n = 600;
    let m = gen::erdos_renyi(n, 4800, 11).expect("valid args").map(PlusTimes::from_weight);
    let xs: Vec<DenseVector<f32>> = [3usize, 7]
        .iter()
        .map(|&k| DenseVector::from_values((0..n as usize).map(|i| ((i * k) % 5) as f32).collect()))
        .collect();
    let retimed = PipelineConfig {
        revolver_period: 14,
        pipeline_depth: 9,
        dma_startup_cycles: 61,
        dma_cycles_per_byte: 0.37,
        ..Default::default()
    };
    for variant in SpmvVariant::ALL {
        for (f, fidelity) in FIDELITIES.into_iter().enumerate() {
            for faulty in [false, true] {
                for tiny_wram in [false, true] {
                    let case = format!("{variant} {fidelity:?} faulty {faulty} tiny {tiny_wram}");
                    let cfg = machine(fidelity, faulty, tiny_wram);
                    let sys = system(&cfg);
                    let fresh = |x: &DenseVector<f32>, sys: &PimSystem| {
                        run(&prepare(&m, variant, sys), x, sys)
                    };

                    // One preparation, two launches, two input vectors.
                    let prep = prepare(&m, variant, &sys);
                    let first = run(&prep, &xs[0], &sys);
                    assert_same(&first, &fresh(&xs[0], &sys), &format!("{case}: first launch"));
                    let second = run(&prep, &xs[1], &sys);
                    assert_same(&second, &fresh(&xs[1], &sys), &format!("{case}: second launch"));

                    // The same preparation on a machine that differs only in
                    // its pipeline timing, then only in its fidelity, then
                    // back on the first machine.
                    let sys_retimed =
                        system(&PimConfig { pipeline: retimed.clone(), ..cfg.clone() });
                    let other = FIDELITIES[(f + 1) % FIDELITIES.len()];
                    let sys_refidelity = system(&PimConfig { fidelity: other, ..cfg.clone() });
                    for (label, on) in [
                        ("retimed", &sys_retimed),
                        ("other fidelity", &sys_refidelity),
                        ("back", &sys),
                    ] {
                        for x in &xs {
                            assert_same(
                                &run(&prep, x, on),
                                &fresh(x, on),
                                &format!("{case}: {label}"),
                            );
                        }
                    }
                }
            }
        }
    }
}
