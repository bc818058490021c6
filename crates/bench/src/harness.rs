//! Shared harness configuration and dataset loading.

use alpha_pim::AlphaPim;
use alpha_pim_sim::{PimConfig, SimFidelity};
use alpha_pim_sparse::datasets::DatasetSpec;
use alpha_pim_sparse::{datasets, Graph, SparseVector};

/// Scale and system settings shared by every experiment.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Dataset node-count scale factor in `(0, 1]`.
    pub scale: f64,
    /// Number of DPUs.
    pub num_dpus: u32,
    /// DPUs receiving detailed cycle simulation per launch.
    pub detail: u32,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { scale: 0.12, num_dpus: 2048, detail: 64, seed: 0xA1FA_71A5 }
    }
}

impl HarnessConfig {
    /// Reads overrides from `ALPHA_PIM_SCALE`, `ALPHA_PIM_DPUS`, and
    /// `ALPHA_PIM_DETAIL`.
    pub fn from_env() -> Self {
        let mut cfg = HarnessConfig::default();
        if let Some(v) = env_f64("ALPHA_PIM_SCALE") {
            cfg.scale = v.clamp(1e-4, 1.0);
        }
        if let Some(v) = env_f64("ALPHA_PIM_DPUS") {
            cfg.num_dpus = v as u32;
        }
        if let Some(v) = env_f64("ALPHA_PIM_DETAIL") {
            cfg.detail = (v as u32).max(1);
        }
        cfg
    }

    /// The PIM configuration for this harness (optionally overriding the
    /// DPU count, e.g. for the Fig 8 scaling sweep).
    pub fn pim_config(&self, num_dpus: Option<u32>) -> PimConfig {
        PimConfig {
            num_dpus: num_dpus.unwrap_or(self.num_dpus),
            fidelity: SimFidelity::Sampled(self.detail),
            ..Default::default()
        }
    }

    /// Builds the ALPHA-PIM engine at this configuration.
    pub fn engine(&self, num_dpus: Option<u32>) -> AlphaPim {
        AlphaPim::new(self.pim_config(num_dpus)).expect("harness config is valid")
    }

    /// Generates the scaled synthetic stand-in for a catalog dataset.
    pub fn load(&self, spec: &DatasetSpec) -> Graph {
        load_scaled(spec, self.scale, self.seed)
    }

    /// The representative datasets used for per-dataset columns in the
    /// SpMSpV design-space figures.
    pub fn representative(&self) -> Vec<&'static DatasetSpec> {
        ["face", "g-18", "r-PA", "e-En"]
            .iter()
            .map(|a| datasets::by_abbrev(a).expect("known abbreviation"))
            .collect()
    }

    /// The full Table 2 dataset list.
    pub fn all_datasets(&self) -> &'static [DatasetSpec] {
        datasets::table2()
    }

    /// A deterministic input vector of the requested density over `n`
    /// vertices, values lifted from small weights.
    pub fn striped_vector(&self, n: usize, density: f64) -> SparseVector<u32> {
        striped_vector(n, density)
    }
}

/// Generates `spec` at `scale`, but never below 2,000 nodes (or the whole
/// graph, when it is smaller), so frontiers still span several partitions.
pub fn load_scaled(spec: &DatasetSpec, scale: f64, seed: u64) -> Graph {
    let min_scale = (2_000.0 / spec.nodes as f64).min(1.0);
    spec.generate_scaled(scale.max(min_scale), seed).expect("catalog recipes are valid")
}

/// Every Table 2 dataset through [`load_scaled`], with its abbreviation.
pub fn catalog(scale: f64, seed: u64) -> Vec<(&'static str, Graph)> {
    datasets::table2().iter().map(|spec| (spec.abbrev, load_scaled(spec, scale, seed))).collect()
}

/// A deterministic sparse vector with ~`density · n` striped non-zeros.
pub fn striped_vector(n: usize, density: f64) -> SparseVector<u32> {
    let stride = (1.0 / density.clamp(1e-6, 1.0)).round().max(1.0) as u32;
    let idx: Vec<u32> = (0..n as u32).filter(|i| i % stride == 0).collect();
    let vals: Vec<u32> = idx.iter().map(|&i| i % 13 + 1).collect();
    SparseVector::from_pairs(n, idx, vals).expect("striped indices are unique")
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok().and_then(|s| s.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_scale_dpus() {
        let cfg = HarnessConfig::default();
        assert_eq!(cfg.num_dpus, 2048);
        assert!(cfg.scale > 0.0 && cfg.scale <= 1.0);
    }

    #[test]
    fn striped_vector_hits_target_density() {
        let v = striped_vector(10_000, 0.1);
        assert!((v.density() - 0.1).abs() < 0.01);
        let v = striped_vector(10_000, 1.0);
        assert!((v.density() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn load_clamps_tiny_datasets() {
        let cfg = HarnessConfig { scale: 0.001, ..Default::default() };
        let spec = alpha_pim_sparse::datasets::by_abbrev("face").unwrap();
        let g = cfg.load(spec);
        assert!(g.nodes() >= 1_000);
    }
}
