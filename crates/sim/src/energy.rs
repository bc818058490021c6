//! Energy model for the three systems of Table 4.
//!
//! The paper measures UPMEM DIMM energy via the memory-controller counters,
//! CPU energy via Intel RAPL, and GPU energy via `nvidia-smi`. All three
//! reduce to average power × time; the constants below are fitted to the
//! paper's published (time, energy) pairs — e.g. BFS on `A302`:
//! 241.1 ms → 111.9 J for UPMEM-Total (≈ 465 W for 2,048 DPUs + host),
//! 541.1 ms → 17.3 J for the CPU (≈ 32 W package), 7.08 ms → 0.14 J for
//! the GPU (≈ 20 W board draw during these short kernels).


use crate::report::PhaseBreakdown;

/// Average-power energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Watts per active DPU (PIM chip share of DIMM power).
    pub dpu_power_w: f64,
    /// Host-package watts attributed to UPMEM runs (transfers + merge).
    pub upmem_host_power_w: f64,
    /// CPU baseline package power in watts.
    pub cpu_power_w: f64,
    /// GPU baseline board power in watts.
    pub gpu_power_w: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            dpu_power_w: 0.217,
            upmem_host_power_w: 20.0,
            cpu_power_w: 32.0,
            gpu_power_w: 20.0,
        }
    }
}

impl EnergyModel {
    /// Joules for a full UPMEM run with the given phase times.
    ///
    /// DPUs draw power for the whole run (DRAM refresh + core); the host
    /// adds its share during the host-mediated phases.
    pub fn upmem_energy(&self, phases: &PhaseBreakdown, num_dpus: u32) -> f64 {
        let dimm = self.dpu_power_w * num_dpus as f64 * phases.total();
        let host =
            self.upmem_host_power_w * (phases.load + phases.retrieve + phases.merge);
        dimm + host
    }

    /// Joules for the kernel phase only (the paper's `UPMEM-Kernel` rows).
    pub fn upmem_kernel_energy(&self, kernel_seconds: f64, num_dpus: u32) -> f64 {
        self.dpu_power_w * num_dpus as f64 * kernel_seconds
    }

    /// Joules for a CPU baseline run of `seconds`.
    pub fn cpu_energy(&self, seconds: f64) -> f64 {
        self.cpu_power_w * seconds
    }

    /// Joules for a GPU baseline run of `seconds`.
    pub fn gpu_energy(&self, seconds: f64) -> f64 {
        self.gpu_power_w * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upmem_energy_matches_paper_anchor() {
        // BFS on A302, UPMEM-Total: 241.1 ms, 2048 DPUs → ≈ 111.9 J.
        let m = EnergyModel::default();
        let phases = PhaseBreakdown {
            load: 0.080,
            kernel: 0.0766,
            retrieve: 0.060,
            merge: 0.0245,
        };
        let e = m.upmem_energy(&phases, 2048);
        assert!((e - 111.9).abs() / 111.9 < 0.08, "energy {e}");
    }

    #[test]
    fn cpu_energy_matches_paper_anchor() {
        // BFS on A302 CPU: 541.1 ms → 17.3 J.
        let m = EnergyModel::default();
        let e = m.cpu_energy(0.5411);
        assert!((e - 17.3).abs() / 17.3 < 0.05, "energy {e}");
    }

    #[test]
    fn gpu_energy_matches_paper_anchor() {
        // BFS on A302 GPU: 7.08 ms → 0.14 J.
        let m = EnergyModel::default();
        let e = m.gpu_energy(0.00708);
        assert!((e - 0.14).abs() / 0.14 < 0.05, "energy {e}");
    }

    #[test]
    fn kernel_energy_is_below_total_energy() {
        let m = EnergyModel::default();
        let phases =
            PhaseBreakdown { load: 0.01, kernel: 0.02, retrieve: 0.01, merge: 0.005 };
        assert!(m.upmem_kernel_energy(phases.kernel, 2048) < m.upmem_energy(&phases, 2048));
    }

    #[test]
    fn energy_scales_linearly_with_time() {
        let m = EnergyModel::default();
        assert!((m.cpu_energy(2.0) - 2.0 * m.cpu_energy(1.0)).abs() < 1e-12);
    }
}
