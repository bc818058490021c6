//! Property-style tests for the transfer, host, and energy models.
//!
//! Each property runs over ≥64 seeded pseudo-random cases from the in-tree
//! [`SplitMix64`] generator, so the case set is frozen and needs no external
//! test framework.

use alpha_pim_sim::report::PhaseBreakdown;
use alpha_pim_sim::transfer::{
    broadcast_counted, effective_bandwidth, gather_counted, inter_dpu_exchange, scatter_counted,
};
use alpha_pim_sim::{host, CounterSet, EnergyModel, HostConfig, InterDpuConfig, TransferConfig};
use alpha_pim_sparse::gen::rng::SplitMix64;

const CASES: u64 = 96;

fn cfg() -> TransferConfig {
    TransferConfig::default()
}

#[test]
fn broadcast_is_monotone_in_bytes_and_dpus() {
    let mut rng = SplitMix64::new(0xB201);
    for _ in 0..CASES {
        let bytes = 1 + rng.u64_below((1 << 24) - 1);
        let dpus = 1 + rng.u32_below(4095);
        let (c, k) = (cfg(), &mut CounterSet::new());
        let t = broadcast_counted(&c, bytes, dpus, k);
        assert!(broadcast_counted(&c, bytes + 1024, dpus, k) >= t);
        assert!(broadcast_counted(&c, bytes, dpus + 64, k) >= t);
        assert!(t > 0.0);
    }
}

#[test]
fn scatter_is_bounded_by_padded_broadcast() {
    let mut rng = SplitMix64::new(0x5C02);
    for _ in 0..CASES {
        let len = 1 + rng.usize_below(255);
        let payloads: Vec<u64> = (0..len).map(|_| 1 + rng.u64_below((1 << 16) - 1)).collect();
        let (c, k) = (cfg(), &mut CounterSet::new());
        let max = *payloads.iter().max().unwrap();
        let s = scatter_counted(&c, &payloads, k);
        // Padding means scattering equals broadcasting max bytes per DPU.
        let b = broadcast_counted(&c, max, payloads.len() as u32, k);
        assert!((s - b).abs() < 1e-12, "scatter {s} vs padded broadcast {b}");
        assert!((gather_counted(&c, &payloads, k) - s).abs() < 1e-15);
    }
}

#[test]
fn effective_bandwidth_is_monotone_and_capped() {
    let mut rng = SplitMix64::new(0xEB03);
    for _ in 0..CASES {
        let d1 = 1 + rng.u32_below(8191);
        let d2 = 1 + rng.u32_below(8191);
        let c = cfg();
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        assert!(effective_bandwidth(&c, lo) <= effective_bandwidth(&c, hi));
        assert!(effective_bandwidth(&c, hi) <= c.peak_bandwidth);
    }
}

#[test]
fn inter_dpu_exchange_beats_host_round_trip_for_segments() {
    let mut rng = SplitMix64::new(0x1D04);
    for _ in 0..CASES {
        let seg_bytes = 1024 + rng.u64_below((1 << 20) - 1024);
        let dpus = 64 + rng.u32_below(4096 - 64);
        let mut c = cfg();
        c.inter_dpu = Some(InterDpuConfig::default());
        let per_dpu = vec![seg_bytes / dpus as u64 + 1; dpus as usize];
        let direct = inter_dpu_exchange(&c, &per_dpu).unwrap();
        // Host round trip: gather + scatter of the same segments.
        let k = &mut CounterSet::new();
        let host_trip = gather_counted(&c, &per_dpu, k) + scatter_counted(&c, &per_dpu, k);
        assert!(direct < host_trip, "direct {direct} vs host {host_trip}");
    }
}

#[test]
fn merge_time_scales_with_work() {
    let mut rng = SplitMix64::new(0x3E05);
    for _ in 0..CASES {
        let elems = 1 + rng.u64_below((1 << 22) - 1);
        let fan_in = 1 + rng.u32_below(63);
        let (h, k) = (HostConfig::default(), &mut CounterSet::new());
        let t = host::merge_time_counted(&h, elems, fan_in, 4, k);
        assert!(t > 0.0);
        assert!(host::merge_time_counted(&h, elems, fan_in + 1, 4, k) >= t);
        assert!(host::merge_time_counted(&h, elems * 2, fan_in, 4, k) >= t);
    }
}

#[test]
fn energy_is_additive_over_phases() {
    let mut rng = SplitMix64::new(0xE906);
    for _ in 0..CASES {
        let load = rng.f64();
        let kernel = rng.f64();
        let retrieve = rng.f64();
        let merge = rng.f64();
        let dpus = 1 + rng.u32_below(4095);
        let m = EnergyModel::default();
        let all = PhaseBreakdown { load, kernel, retrieve, merge };
        let only_kernel = PhaseBreakdown { load: 0.0, kernel, retrieve: 0.0, merge: 0.0 };
        let rest = PhaseBreakdown { load, kernel: 0.0, retrieve, merge };
        let sum = m.upmem_energy(&only_kernel, dpus) + m.upmem_energy(&rest, dpus);
        assert!((m.upmem_energy(&all, dpus) - sum).abs() < 1e-9);
        assert!(m.upmem_kernel_energy(kernel, dpus) <= m.upmem_energy(&all, dpus) + 1e-12);
    }
}

#[test]
fn no_interconnect_means_no_exchange() {
    assert!(inter_dpu_exchange(&cfg(), &[1024; 8]).is_none());
}
