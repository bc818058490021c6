//! CPU↔DPU transfer timing model (§2.3.1).
//!
//! The UPMEM SDK moves data between host memory and DPU MRAM banks through
//! the DDR4 bus via a transposition library; parallel transfers overlap
//! across ranks but share bus bandwidth. Three primitives cover what the
//! kernels need, each recording its bus bytes and batch as it prices them:
//!
//! * [`scatter_counted`] — different payloads to different DPUs (parallel
//!   transfer; the SDK pads each DPU's slot to the largest payload in the
//!   batch);
//! * [`broadcast_counted`] — the same payload to every DPU (no hardware
//!   multicast, so the bus carries `bytes × num_dpus`);
//! * [`gather_counted`] — payloads from DPUs back to the host.

use crate::config::TransferConfig;
use crate::counters::{CounterId, CounterSet};

/// Effective aggregate bandwidth with `active_dpus` DPUs participating:
/// grows linearly until it saturates at the bus peak.
pub fn effective_bandwidth(cfg: &TransferConfig, active_dpus: u32) -> f64 {
    (cfg.per_dpu_bandwidth * active_dpus as f64).min(cfg.peak_bandwidth)
}

/// Seconds to scatter distinct per-DPU payloads in one parallel batch,
/// recording the bus bytes actually moved and the batch into `counters`.
///
/// The SDK's parallel transfer moves the same number of bytes to every DPU
/// in a batch, so the batch is padded to the largest payload.
pub fn scatter_counted(
    cfg: &TransferConfig,
    per_dpu_bytes: &[u64],
    counters: &mut CounterSet,
) -> f64 {
    padded_batch(cfg, per_dpu_bytes, CounterId::XferScatterBytes, counters)
}

/// Seconds to broadcast the same `bytes` to `num_dpus` DPUs, recording the
/// bus bytes (`bytes × num_dpus`; no hardware multicast) and the batch
/// into `counters`.
pub fn broadcast_counted(
    cfg: &TransferConfig,
    bytes: u64,
    num_dpus: u32,
    counters: &mut CounterSet,
) -> f64 {
    if bytes == 0 || num_dpus == 0 {
        return 0.0;
    }
    let total = bytes * num_dpus as u64;
    counters.add(CounterId::XferBroadcastBytes, total);
    counters.add(CounterId::XferBatches, 1);
    cfg.batch_overhead_s + total as f64 / effective_bandwidth(cfg, num_dpus)
}

/// Seconds to gather distinct per-DPU payloads back to the host in one
/// parallel batch (padded like [`scatter_counted`]), recording the bus
/// bytes and the batch into `counters`.
pub fn gather_counted(
    cfg: &TransferConfig,
    per_dpu_bytes: &[u64],
    counters: &mut CounterSet,
) -> f64 {
    padded_batch(cfg, per_dpu_bytes, CounterId::XferGatherBytes, counters)
}

/// One padded parallel batch of distinct per-DPU payloads, its bus bytes
/// recorded under `bytes_id`. An empty batch (every payload zero) the SDK
/// skips entirely: it costs and records nothing.
fn padded_batch(
    cfg: &TransferConfig,
    per_dpu_bytes: &[u64],
    bytes_id: CounterId,
    counters: &mut CounterSet,
) -> f64 {
    if per_dpu_bytes.iter().all(|&b| b == 0) {
        return 0.0;
    }
    let max = *per_dpu_bytes.iter().max().expect("non-empty payload list");
    let total = max * per_dpu_bytes.len() as u64;
    counters.add(bytes_id, total);
    counters.add(CounterId::XferBatches, 1);
    cfg.batch_overhead_s + total as f64 / effective_bandwidth(cfg, per_dpu_bytes.len() as u32)
}

/// Seconds the serving engine saves by folding `live` queries' input-vector
/// loads for one superstep into a single parallel batch: the fixed batch
/// startup window is paid once instead of `live` times. Records the elided
/// batches into `counters`. Zero when fewer than two queries are live.
pub fn batched_startup_savings(cfg: &TransferConfig, live: u32, counters: &mut CounterSet) -> f64 {
    if live < 2 {
        return 0.0;
    }
    let elided = u64::from(live - 1);
    counters.add(CounterId::ServeBatchesSaved, elided);
    elided as f64 * cfg.batch_overhead_s
}

/// Bus seconds the serving engine saves by shipping one query's frontier in
/// compressed `(index, value)` form (`packed_bytes`) inside the shared
/// per-superstep batch instead of re-broadcasting the full dense vector
/// (`full_bytes`) to all `num_dpus` DPUs. Records the saved bus bytes into
/// `counters`. Zero when packing does not help (dense frontier) — the
/// engine then ships the dense vector exactly as the standalone run would.
pub fn packed_broadcast_savings(
    cfg: &TransferConfig,
    full_bytes: u64,
    packed_bytes: u64,
    num_dpus: u32,
    counters: &mut CounterSet,
) -> f64 {
    if num_dpus == 0 || packed_bytes >= full_bytes {
        return 0.0;
    }
    let saved_bus = (full_bytes - packed_bytes) * num_dpus as u64;
    counters.add(CounterId::ServeBroadcastSavedBytes, saved_bus);
    saved_bus as f64 / effective_bandwidth(cfg, num_dpus)
}

/// Seconds for a direct DPU-to-DPU vector exchange over the hypothetical
/// interconnect of §6.4's recommendations: every DPU ships its partial
/// vector to the peers that need it, links operating in parallel.
///
/// Returns `None` when the configuration has no interconnect (the real
/// machine), in which case exchanges must round-trip through the host.
pub fn inter_dpu_exchange(cfg: &TransferConfig, per_dpu_bytes: &[u64]) -> Option<f64> {
    let link = cfg.inter_dpu?;
    let max = per_dpu_bytes.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return Some(0.0);
    }
    Some(link.latency_s + max as f64 / link.link_bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransferConfig {
        TransferConfig::default()
    }

    #[test]
    fn bandwidth_saturates_at_peak() {
        let c = cfg();
        assert!(effective_bandwidth(&c, 1) < c.peak_bandwidth);
        assert_eq!(effective_bandwidth(&c, 10_000), c.peak_bandwidth);
        assert!(effective_bandwidth(&c, 8) > effective_bandwidth(&c, 4));
    }

    #[test]
    fn broadcast_cost_scales_with_dpu_count() {
        let (c, k) = (cfg(), &mut CounterSet::new());
        // Past saturation, doubling DPUs doubles bus traffic at fixed rate.
        let t1k = broadcast_counted(&c, 1 << 20, 1024, k);
        let t2k = broadcast_counted(&c, 1 << 20, 2048, k);
        assert!(t2k > 1.8 * t1k, "t1k={t1k} t2k={t2k}");
    }

    #[test]
    fn scatter_pads_to_largest_payload() {
        let (c, k) = (cfg(), &mut CounterSet::new());
        let balanced = scatter_counted(&c, &vec![1024u64; 64], k);
        let mut skewed = vec![1024u64; 64];
        skewed[0] = 64 * 1024;
        let imbalanced = scatter_counted(&c, &skewed, k);
        assert!(imbalanced > balanced);
    }

    #[test]
    fn empty_transfers_are_free() {
        let (c, k) = (cfg(), &mut CounterSet::new());
        assert_eq!(scatter_counted(&c, &[], k), 0.0);
        assert_eq!(scatter_counted(&c, &[0, 0, 0], k), 0.0);
        assert_eq!(broadcast_counted(&c, 0, 2048, k), 0.0);
        assert_eq!(broadcast_counted(&c, 100, 0, k), 0.0);
    }

    #[test]
    fn gather_matches_scatter_model() {
        let (c, k) = (cfg(), &mut CounterSet::new());
        let bytes = vec![4096u64; 128];
        assert_eq!(gather_counted(&c, &bytes, k), scatter_counted(&c, &bytes, k));
    }

    #[test]
    fn counted_variants_match_times_and_record_traffic() {
        let c = cfg();
        let mut k = CounterSet::new();
        let payloads = vec![1024u64, 4096, 0, 2048];
        // Scatter pads to the largest payload, so it costs what a broadcast
        // of that payload to every DPU of the batch costs; gather is priced
        // as scatter.
        let scatter = scatter_counted(&c, &payloads, &mut k);
        assert_eq!(scatter, broadcast_counted(&c, 4096, 4, &mut CounterSet::new()));
        broadcast_counted(&c, 512, 8, &mut k);
        assert_eq!(gather_counted(&c, &payloads, &mut k), scatter);
        // Scatter/gather pad to the largest payload (4096 × 4 DPUs).
        assert_eq!(k.get(CounterId::XferScatterBytes), 4096 * 4);
        assert_eq!(k.get(CounterId::XferGatherBytes), 4096 * 4);
        assert_eq!(k.get(CounterId::XferBroadcastBytes), 512 * 8);
        assert_eq!(k.get(CounterId::XferBatches), 3);
    }

    #[test]
    fn counted_variants_skip_empty_batches() {
        let c = cfg();
        let mut k = CounterSet::new();
        scatter_counted(&c, &[], &mut k);
        scatter_counted(&c, &[0, 0], &mut k);
        broadcast_counted(&c, 0, 64, &mut k);
        gather_counted(&c, &[0], &mut k);
        assert!(k.is_empty());
    }

    #[test]
    fn broadcast_to_all_dpus_is_costlier_than_segment_scatter() {
        // The Fig 2 effect: loading a full vector to every DPU (1D) vs
        // scattering 1/D-th segments (2D).
        let (c, k) = (cfg(), &mut CounterSet::new());
        let n_bytes = 1u64 << 20; // 1 MiB vector
        let dpus = 2048u32;
        let full = broadcast_counted(&c, n_bytes, dpus, k);
        let seg = scatter_counted(&c, &vec![n_bytes / dpus as u64; dpus as usize], k);
        assert!(full > 50.0 * seg, "full={full} seg={seg}");
    }
}
