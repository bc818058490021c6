//! Baseline machine specifications (Table 3) and peak-performance
//! constants (§6.3.2).


/// Micro-architectural specification of one comparison system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Compute units (CPU cores / CUDA cores / DPUs).
    pub cores: u32,
    /// Clock frequency in Hz.
    pub frequency_hz: u64,
    /// Memory capacity in bytes.
    pub memory_bytes: u64,
    /// Memory bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Peak throughput in FLOP/s (as measured by peakperf / the SparseP
    /// method in the paper).
    pub peak_flops: f64,
}

/// The paper's CPU baseline: Intel Core i7-1265U (Table 3).
pub const CPU: SystemSpec = SystemSpec {
    name: "Intel i7-1265U",
    cores: 10,
    frequency_hz: 1_800_000_000,
    memory_bytes: 64 << 30,
    bandwidth: 83.2e9,
    peak_flops: 647.25e9,
};

/// The paper's GPU baseline: NVIDIA RTX 3050 (Table 3).
pub const GPU: SystemSpec = SystemSpec {
    name: "NVIDIA RTX 3050",
    cores: 2560,
    frequency_hz: 1_550_000_000,
    memory_bytes: 8 << 30,
    bandwidth: 224e9,
    peak_flops: 9.1e12,
};

/// The UPMEM PIM machine of §5.2 (2,560 DPUs; peak via the SparseP
/// method).
pub const UPMEM: SystemSpec = SystemSpec {
    name: "UPMEM PIM (2560 DPUs)",
    cores: 2560,
    frequency_hz: 350_000_000,
    memory_bytes: 160 << 30,
    bandwidth: 2560.0 * 0.63e9,
    peak_flops: 4.66e9,
};

impl SystemSpec {
    /// Peak throughput scaled to a subset of the machine's compute units
    /// (e.g. 2,048 of 2,560 DPUs).
    pub fn peak_flops_for(&self, cores: u32) -> f64 {
        self.peak_flops * cores as f64 / self.cores as f64
    }
}

/// Compute utilization as a percentage of peak (the Table 4 metric):
/// achieved operations per second over peak throughput.
pub fn compute_utilization_pct(ops: u64, seconds: f64, peak_flops: f64) -> f64 {
    if seconds <= 0.0 || peak_flops <= 0.0 {
        return 0.0;
    }
    (ops as f64 / seconds) / peak_flops * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table3() {
        assert_eq!(CPU.cores, 10);
        assert!((CPU.bandwidth - 83.2e9).abs() < 1.0);
        assert_eq!(GPU.cores, 2560);
        assert!((GPU.peak_flops - 9.1e12).abs() < 1.0);
        assert!((UPMEM.peak_flops - 4.66e9).abs() < 1.0);
    }

    #[test]
    fn utilization_is_a_percentage_of_peak() {
        // Half the peak rate → 50 %.
        let pct = compute_utilization_pct(500, 1.0, 1000.0);
        assert!((pct - 50.0).abs() < 1e-9);
        assert_eq!(compute_utilization_pct(10, 0.0, 1000.0), 0.0);
    }

    #[test]
    fn peak_scales_with_core_subset() {
        let scaled = UPMEM.peak_flops_for(2048);
        assert!((scaled - 4.66e9 * 2048.0 / 2560.0).abs() < 1.0);
    }
}
