//! Host-CPU model for the Merge phase and convergence checks.
//!
//! Column-wise and 2D partitionings leave partial results that the host
//! merges with an OpenMP-style parallel reduction (§4.1.1); iterative apps
//! additionally check convergence on the host every iteration (§6.3.1,
//! which the paper folds into Merge time). Both are bandwidth-bound
//! streaming reductions, modeled as bytes over aggregate host throughput.

use crate::config::HostConfig;
use crate::counters::{CounterId, CounterSet};

/// Seconds for the host to merge partial output vectors, recording the
/// bytes streamed and the reduction into `counters`.
///
/// `elements` is the output vector length, `fan_in` the number of partial
/// results per element (e.g. the tile-grid column count for 2D
/// partitioning), and `bytes_per_element` the element size.
pub fn merge_time_counted(
    cfg: &HostConfig,
    elements: u64,
    fan_in: u32,
    bytes_per_element: u32,
    counters: &mut CounterSet,
) -> f64 {
    if elements == 0 || fan_in == 0 {
        return 0.0;
    }
    let bytes = elements * fan_in as u64 * bytes_per_element as u64;
    counters.add(CounterId::HostMergeBytes, bytes);
    counters.add(CounterId::HostReductions, 1);
    cfg.reduce_overhead_s + bytes as f64 / aggregate_bandwidth(cfg)
}

/// Seconds for the host to scan a vector of `elements` entries once (the
/// per-iteration convergence / frontier-emptiness check), recording the
/// bytes scanned and the reduction into `counters`.
pub fn scan_time_counted(
    cfg: &HostConfig,
    elements: u64,
    bytes_per_element: u32,
    counters: &mut CounterSet,
) -> f64 {
    if elements == 0 {
        return 0.0;
    }
    let bytes = elements * bytes_per_element as u64;
    counters.add(CounterId::HostScanBytes, bytes);
    counters.add(CounterId::HostReductions, 1);
    cfg.reduce_overhead_s + bytes as f64 / aggregate_bandwidth(cfg)
}

/// Seconds for the host to pack a sparse frontier of `elements` entries
/// into the shared per-superstep transfer buffer of the serving engine —
/// one streaming compaction pass, costed and recorded as a scan.
pub fn pack_time_counted(
    cfg: &HostConfig,
    elements: u64,
    bytes_per_element: u32,
    counters: &mut CounterSet,
) -> f64 {
    scan_time_counted(cfg, elements, bytes_per_element, counters)
}

/// The host's aggregate merge throughput in bytes/second.
pub fn aggregate_bandwidth(cfg: &HostConfig) -> f64 {
    cfg.merge_bytes_per_s_per_thread * cfg.threads as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HostConfig {
        HostConfig::default()
    }

    #[test]
    fn merge_scales_with_fan_in() {
        let (c, k) = (cfg(), &mut CounterSet::new());
        let one = merge_time_counted(&c, 1 << 20, 1, 4, k);
        let thirty_two = merge_time_counted(&c, 1 << 20, 32, 4, k);
        assert!(thirty_two > 20.0 * one, "one={one} thirty_two={thirty_two}");
    }

    #[test]
    fn empty_merge_is_free() {
        let (c, k) = (cfg(), &mut CounterSet::new());
        assert_eq!(merge_time_counted(&c, 0, 8, 4, k), 0.0);
        assert_eq!(merge_time_counted(&c, 100, 0, 4, k), 0.0);
        assert_eq!(scan_time_counted(&c, 0, 4, k), 0.0);
    }

    #[test]
    fn more_threads_merge_faster() {
        let slow = HostConfig { threads: 1, ..cfg() };
        let fast = HostConfig { threads: 16, ..cfg() };
        let k = &mut CounterSet::new();
        let fast_s = merge_time_counted(&fast, 1 << 22, 8, 4, k);
        assert!(fast_s < merge_time_counted(&slow, 1 << 22, 8, 4, k));
    }

    #[test]
    fn counted_variants_match_times_and_record_bytes() {
        let c = cfg();
        let mut k = CounterSet::new();
        // A fan-in-1 merge streams its bytes once, as a scan does, and a
        // pack is a scan.
        let scan = scan_time_counted(&c, 1000, 8, &mut CounterSet::new());
        assert_eq!(merge_time_counted(&c, 1000, 1, 8, &mut CounterSet::new()), scan);
        assert_eq!(pack_time_counted(&c, 1000, 8, &mut CounterSet::new()), scan);
        merge_time_counted(&c, 1000, 4, 8, &mut k);
        scan_time_counted(&c, 500, 4, &mut k);
        assert_eq!(k.get(CounterId::HostMergeBytes), 1000 * 4 * 8);
        assert_eq!(k.get(CounterId::HostScanBytes), 500 * 4);
        assert_eq!(k.get(CounterId::HostReductions), 2);
        // Empty reductions record nothing.
        merge_time_counted(&c, 0, 4, 8, &mut k);
        scan_time_counted(&c, 0, 4, &mut k);
        assert_eq!(k.get(CounterId::HostReductions), 2);
    }

    #[test]
    fn scan_is_cheaper_than_merge_with_fan_in() {
        let (c, k) = (cfg(), &mut CounterSet::new());
        assert!(scan_time_counted(&c, 1 << 20, 4, k) < merge_time_counted(&c, 1 << 20, 16, 4, k));
    }
}
