//! Property-style tests: every kernel variant computes the same semiring
//! product as the reference dense algorithm, on arbitrary graphs, vectors,
//! and system shapes.
//!
//! Cases come from the in-tree seeded [`SplitMix64`] generator (≥64 per
//! property), so each run replays a frozen case set with no external
//! test-framework dependency.

use std::collections::BTreeSet;

use alpha_pim::semiring::{BoolOrAnd, MaxMin, MinPlus, PlusTimes, Semiring};
use alpha_pim::{PreparedSpmspv, PreparedSpmv, SpmspvVariant, SpmvVariant};
use alpha_pim_sim::{set_sim_threads, CounterId, PimConfig, PimSystem, SimFidelity};
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::{Coo, SparseVector};

const CASES: u64 = 64;

/// A small random square matrix with weights 1..=9: `n` in `4..40`, up to
/// `min(n * n, 160)` unique coordinates.
fn random_matrix(rng: &mut SplitMix64) -> Coo<u32> {
    let n = 4 + rng.u32_below(36);
    let max_nnz = (n as usize * n as usize).min(160);
    let target = rng.usize_below(max_nnz);
    let mut coords = BTreeSet::new();
    for _ in 0..target {
        coords.insert((rng.u32_below(n), rng.u32_below(n)));
    }
    Coo::from_entries(
        n,
        n,
        coords.into_iter().enumerate().map(|(i, (r, c))| (r, c, (i % 9 + 1) as u32)),
    )
    .expect("coords in range")
}

fn reference<S: Semiring>(m: &Coo<S::Elem>, x: &[S::Elem]) -> Vec<S::Elem> {
    let mut y = vec![S::zero(); m.n_rows() as usize];
    for (r, c, v) in m.iter() {
        if !S::is_zero(&x[c as usize]) {
            y[r as usize] = S::add(y[r as usize], S::mul(v, x[c as usize]));
        }
    }
    y
}

fn system(dpus: u32, tasklets: u32) -> PimSystem {
    PimSystem::new(PimConfig {
        num_dpus: dpus,
        tasklets_per_dpu: tasklets,
        fidelity: SimFidelity::Full,
        ..Default::default()
    })
    .expect("valid config")
}

fn sparse_x<S: Semiring>(n: u32, mask: u64) -> SparseVector<S::Elem> {
    let idx: Vec<u32> = (0..n).filter(|i| mask >> (i % 64) & 1 == 1).collect();
    let vals: Vec<S::Elem> = idx.iter().map(|&i| S::from_weight(i % 7 + 1)).collect();
    SparseVector::from_pairs(n as usize, idx, vals).expect("unique indices")
}

#[test]
fn every_spmspv_variant_matches_reference_bool() {
    let mut rng = SplitMix64::new(0xA301);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let dpus = 1 + rng.u32_below(8);
        let tasklets = 1 + rng.u32_below(19);
        let lifted = m.map(BoolOrAnd::from_weight);
        let sys = system(dpus, tasklets);
        let x = sparse_x::<BoolOrAnd>(m.n_rows(), mask);
        let expect = reference::<BoolOrAnd>(&lifted, x.to_dense(BoolOrAnd::zero()).values());
        for variant in SpmspvVariant::ALL {
            let prep = PreparedSpmspv::<BoolOrAnd>::prepare(&lifted, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            assert_eq!(out.y.values(), expect.as_slice(), "variant {}", variant);
        }
    }
}

#[test]
fn every_spmv_variant_matches_reference_minplus() {
    let mut rng = SplitMix64::new(0xA302);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let dpus = 1 + rng.u32_below(8);
        let lifted = m.map(MinPlus::from_weight);
        let sys = system(dpus, 16);
        let x = sparse_x::<MinPlus>(m.n_rows(), mask).to_dense(MinPlus::zero());
        let expect = reference::<MinPlus>(&lifted, x.values());
        for variant in SpmvVariant::ALL {
            let prep = PreparedSpmv::<MinPlus>::prepare(&lifted, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            assert_eq!(out.y.values(), expect.as_slice(), "variant {}", variant);
        }
    }
}

#[test]
fn maxmin_spmspv_matches_reference() {
    let mut rng = SplitMix64::new(0xA303);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let lifted = m.map(MaxMin::from_weight);
        let sys = system(4, 8);
        let x = sparse_x::<MaxMin>(m.n_rows(), mask);
        let expect = reference::<MaxMin>(&lifted, x.to_dense(MaxMin::zero()).values());
        let prep =
            PreparedSpmspv::<MaxMin>::prepare(&lifted, SpmspvVariant::Csc2d, &sys).unwrap();
        let out = prep.run(&x, &sys).unwrap();
        assert_eq!(out.y.values(), expect.as_slice());
    }
}

#[test]
fn kernel_timing_is_deterministic() {
    let mut rng = SplitMix64::new(0xA304);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let lifted = m.map(BoolOrAnd::from_weight);
        let sys = system(4, 16);
        let x = sparse_x::<BoolOrAnd>(m.n_rows(), mask);
        let prep =
            PreparedSpmspv::<BoolOrAnd>::prepare(&lifted, SpmspvVariant::Csc2d, &sys).unwrap();
        let a = prep.run(&x, &sys).unwrap();
        let b = prep.run(&x, &sys).unwrap();
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.kernel.max_cycles, b.kernel.max_cycles);
        assert_eq!(a.kernel.instr_mix, b.kernel.instr_mix);
    }
}

#[test]
fn useful_ops_never_exceed_matrix_work() {
    let mut rng = SplitMix64::new(0xA305);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let lifted = m.map(BoolOrAnd::from_weight);
        let sys = system(4, 8);
        let x = sparse_x::<BoolOrAnd>(m.n_rows(), mask);
        for variant in SpmspvVariant::ALL {
            let prep = PreparedSpmspv::<BoolOrAnd>::prepare(&lifted, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            assert!(out.useful_ops <= 2 * m.nnz() as u64, "variant {}", variant);
            assert!(out.output_nnz <= m.n_rows() as usize);
        }
    }
}

/// A 600-node plus-times matrix whose row 7 holds exactly two entries,
/// `+2` at `cols.0` and `-2` at `cols.1`; every other row gets random
/// weights in columns 6 and up.
fn matrix_with_row_7_in(cols: (u32, u32)) -> Coo<f32> {
    const N: u32 = 600;
    let mut rng = SplitMix64::new(0xA306);
    let mut coords = BTreeSet::new();
    for _ in 0..3000 {
        let r = rng.u32_below(N);
        if r != 7 {
            coords.insert((r, 6 + rng.u32_below(N - 6)));
        }
    }
    let entries = coords
        .into_iter()
        .enumerate()
        .map(|(i, (r, c))| (r, c, (i % 9 + 1) as f32))
        .chain([(7, cols.0, 2.0), (7, cols.1, -2.0)]);
    Coo::from_entries(N, N, entries).expect("coords in range")
}

/// Columns 3 and 5 always carry the same value and 1 and 2 never appear,
/// so row 7's contributions cancel when its entries sit in 3 and 5 and
/// never arrive when they sit in 1 and 2.
fn frontier(keep: impl Fn(u32) -> bool) -> SparseVector<f32> {
    let idx: Vec<u32> =
        (0..600).filter(|&i| i == 3 || i == 5 || (i > 5 && keep(i))).collect();
    let vals: Vec<f32> =
        idx.iter().map(|&i| if i <= 5 { 0.5 } else { (i % 7 + 1) as f32 * 0.25 }).collect();
    SparseVector::from_pairs(600, idx, vals).expect("unique indices")
}

/// The row-banded CSC variants reuse per-worker scratch across the
/// partitions of a launch. Whatever one partition or launch leaves behind
/// must not reach the next: one prepared kernel, run on a 50 % frontier,
/// then a 1 % one, then one that only the first grid column's tiles see,
/// matches a freshly prepared kernel bit for bit at 1 and 4 threads, and
/// the exact product (every sum here is exact in `f32`). A row whose
/// contributions cancel to the semiring zero costs exactly what an
/// untouched row costs: no output, no retrieve bytes, no merge work.
#[test]
fn reused_band_scratch_matches_fresh_launches() {
    let cancelling = matrix_with_row_7_in((3, 5));
    let inert = matrix_with_row_7_in((1, 2));
    let frontiers = [
        frontier(|i| i % 2 == 0),
        frontier(|i| i % 100 == 0),
        frontier(|i| i < 30),
    ];
    let sys = system(16, 16);
    let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for threads in [1, 4] {
        set_sim_threads(threads);
        for variant in [SpmspvVariant::Csc2d, SpmspvVariant::CscR] {
            let reused = PreparedSpmspv::<PlusTimes>::prepare(&cancelling, variant, &sys).unwrap();
            for (f, x) in frontiers.iter().enumerate() {
                let case = format!("{variant} frontier {f} at {threads} threads");
                let out = reused.run(x, &sys).unwrap();
                let fresh = PreparedSpmspv::<PlusTimes>::prepare(&cancelling, variant, &sys)
                    .unwrap()
                    .run(x, &sys)
                    .unwrap();
                let exact = reference::<PlusTimes>(&cancelling, x.to_dense(0.0).values());
                assert_eq!(bits(out.y.values()), bits(&exact), "{case}");
                assert_eq!(bits(out.y.values()), bits(fresh.y.values()), "{case}");
                assert_eq!(out.kernel.to_json(), fresh.kernel.to_json(), "{case}");
                assert_eq!(out.phases, fresh.phases, "{case}");
                assert_eq!(out.output_nnz, fresh.output_nnz, "{case}");
                assert_eq!(out.useful_ops, fresh.useful_ops, "{case}");

                let untouched = PreparedSpmspv::<PlusTimes>::prepare(&inert, variant, &sys)
                    .unwrap()
                    .run(x, &sys)
                    .unwrap();
                assert_eq!(out.y.values()[7].to_bits(), 0.0f32.to_bits(), "{case}");
                assert_eq!(bits(out.y.values()), bits(untouched.y.values()), "{case}");
                assert_eq!(out.output_nnz, untouched.output_nnz, "{case}");
                assert_eq!(out.useful_ops, untouched.useful_ops + 4, "{case}");
                let (c, u) = (&out.kernel.breakdown.counters, &untouched.kernel.breakdown.counters);
                for id in [CounterId::XferGatherBytes, CounterId::HostMergeBytes] {
                    assert_eq!(c.get(id), u.get(id), "{case}: {}", id.label());
                }
                assert_eq!(out.phases.retrieve, untouched.phases.retrieve, "{case}");
                assert_eq!(out.phases.merge, untouched.phases.merge, "{case}");
            }
        }
    }
}
