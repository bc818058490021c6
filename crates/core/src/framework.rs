//! The top-level ALPHA-PIM framework: one object owning the simulated PIM
//! system and the trained graph classifier, with one method per graph
//! application.

use alpha_pim_sim::{PimConfig, PimSystem, SimFidelity};
use alpha_pim_sparse::datasets::GraphClass;
use alpha_pim_sparse::Graph;

use crate::adaptive::{DecisionTree, GraphFeatures};
use crate::apps::{
    bfs, kcore, msbfs, ppr, sssp, triangles, wcc, widest, AppOptions, BfsResult, KCoreResult,
    MsBfsResult, PprOptions, PprResult, SsspResult, TriangleResult, WccResult, WidestResult,
};
use crate::error::AlphaPimError;
use crate::semiring::{BoolOrAnd, MinPlus, Semiring};

/// The ALPHA-PIM engine.
///
/// # Example
///
/// ```
/// use alpha_pim::AlphaPim;
/// use alpha_pim::apps::AppOptions;
/// use alpha_pim_sim::{PimConfig, SimFidelity};
/// use alpha_pim_sparse::{gen, Graph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = AlphaPim::builder()
///     .config(PimConfig { num_dpus: 8, fidelity: SimFidelity::Full, ..Default::default() })
///     .build()?;
/// let graph = Graph::from_coo(gen::erdos_renyi(200, 1500, 42)?);
/// let result = engine.bfs(&graph, 0, &AppOptions::default())?;
/// assert_eq!(result.levels[0], 0);
/// println!("BFS took {} iterations, {:.3} ms",
///          result.report.num_iterations(),
///          result.report.total_seconds() * 1e3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AlphaPim {
    system: PimSystem,
    classifier: DecisionTree,
}

impl AlphaPim {
    /// Creates an engine with the given PIM configuration and the default
    /// classifier (trained on the built-in synthetic corpus).
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Config`] for invalid configurations.
    pub fn new(config: PimConfig) -> Result<Self, AlphaPimError> {
        AlphaPim::builder().config(config).build()
    }

    /// Starts building an engine.
    pub fn builder() -> AlphaPimBuilder {
        AlphaPimBuilder::default()
    }

    /// The simulated PIM system.
    pub fn system(&self) -> &PimSystem {
        &self.system
    }

    /// A twin of the simulated system running under
    /// [`SimFidelity::Analytic`]: kernels record closed-form per-tasklet
    /// statistics and the analytic model predicts every DPU's makespan,
    /// skipping cycle replay entirely. Result values, traffic bytes, and
    /// event counts are bit-identical to the replay system; cycle
    /// attribution becomes a calibrated approximation. Returns `None` if
    /// the modified configuration fails validation (fidelity never
    /// affects validity today).
    pub fn analytic_twin(&self) -> Option<PimSystem> {
        let mut cfg = self.system.config().clone();
        cfg.fidelity = SimFidelity::Analytic;
        PimSystem::new(cfg).ok()
    }

    /// The graph classifier used for adaptive kernel switching.
    pub fn classifier(&self) -> &DecisionTree {
        &self.classifier
    }

    /// Classifies a graph (regular vs scale-free, §4.2.1).
    pub fn classify(&self, graph: &Graph) -> GraphClass {
        self.classifier.classify(&GraphFeatures::from(graph.stats()))
    }

    /// The SpMSpV→SpMV switching threshold the classifier selects.
    pub fn switch_threshold(&self, graph: &Graph) -> f64 {
        self.classifier.switch_threshold(&GraphFeatures::from(graph.stats()))
    }

    /// Runs breadth-first search from `source`.
    ///
    /// # Errors
    ///
    /// Propagates source-validation, capacity, and kernel errors.
    pub fn bfs(
        &self,
        graph: &Graph,
        source: u32,
        options: &AppOptions,
    ) -> Result<BfsResult, AlphaPimError> {
        let matrix = graph.transposed().map(BoolOrAnd::from_weight);
        bfs::run(&matrix, source, options, self.switch_threshold(graph), &self.system)
    }

    /// Runs single-source shortest paths from `source`. Edge weights come
    /// from the graph's adjacency values (use
    /// [`Graph::with_random_weights`] for unweighted inputs).
    ///
    /// # Errors
    ///
    /// Propagates source-validation, capacity, and kernel errors.
    pub fn sssp(
        &self,
        graph: &Graph,
        source: u32,
        options: &AppOptions,
    ) -> Result<SsspResult, AlphaPimError> {
        let matrix = graph.transposed().map(MinPlus::from_weight);
        sssp::run(&matrix, source, options, self.switch_threshold(graph), &self.system)
    }

    /// Runs personalized PageRank from `source`.
    ///
    /// # Errors
    ///
    /// Propagates source-validation, capacity, and kernel errors.
    pub fn ppr(
        &self,
        graph: &Graph,
        source: u32,
        options: &PprOptions,
    ) -> Result<PprResult, AlphaPimError> {
        let matrix = ppr::transition_transpose(graph);
        ppr::run(&matrix, source, options, self.switch_threshold(graph), &self.system)
    }

    /// Runs widest-path (maximum-bottleneck) routing from `source`, using
    /// edge weights as capacities.
    ///
    /// # Errors
    ///
    /// Propagates source-validation, capacity, and kernel errors.
    pub fn widest_path(
        &self,
        graph: &Graph,
        source: u32,
        options: &AppOptions,
    ) -> Result<WidestResult, AlphaPimError> {
        let matrix = graph.transposed().map(crate::semiring::MaxMin::from_weight);
        widest::run(&matrix, source, options, self.switch_threshold(graph), &self.system)
    }

    /// Runs BFS from every vertex in `sources` simultaneously via the
    /// SpMM kernel (one matrix pass per level serves all sources).
    ///
    /// # Errors
    ///
    /// Propagates source-validation, capacity, and kernel errors.
    pub fn multi_bfs(
        &self,
        graph: &Graph,
        sources: &[u32],
        max_iterations: u32,
    ) -> Result<MsBfsResult, AlphaPimError> {
        let matrix = graph.transposed().map(BoolOrAnd::from_weight);
        msbfs::run(&matrix, sources, max_iterations, &self.system)
    }

    /// Computes the `k`-core of the (symmetrized) graph by iterative
    /// linear-algebraic peeling under the counting semiring.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Config`] for `k == 0`; propagates capacity
    /// and kernel errors.
    pub fn k_core(
        &self,
        graph: &Graph,
        k: u32,
        options: &AppOptions,
    ) -> Result<KCoreResult, AlphaPimError> {
        let matrix = kcore::count_matrix(graph);
        kcore::run(&matrix, k, options, self.switch_threshold(graph), &self.system)
    }

    /// Counts triangles via masked SpGEMM (adjacency intersection) — the
    /// GraphChallenge workload the paper's dataset suite comes from.
    ///
    /// # Errors
    ///
    /// Propagates capacity and kernel errors.
    pub fn triangle_count(&self, graph: &Graph) -> Result<TriangleResult, AlphaPimError> {
        triangles::run(graph, &self.system)
    }

    /// Runs connected components via min-label propagation. Intended for
    /// symmetric (undirected) graphs; on directed graphs it yields
    /// reachability-closure labels.
    ///
    /// # Errors
    ///
    /// Propagates capacity and kernel errors.
    pub fn connected_components(
        &self,
        graph: &Graph,
        options: &AppOptions,
    ) -> Result<WccResult, AlphaPimError> {
        let matrix = wcc::label_matrix(graph);
        wcc::run(&matrix, options, self.switch_threshold(graph), &self.system)
    }
}

/// Builder for [`AlphaPim`].
#[derive(Debug, Default)]
pub struct AlphaPimBuilder {
    config: Option<PimConfig>,
    classifier: Option<DecisionTree>,
}

impl AlphaPimBuilder {
    /// Sets the PIM system configuration (default: the paper's 2,048-DPU
    /// machine).
    pub fn config(mut self, config: PimConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Uses a custom, pre-trained classifier.
    pub fn classifier(mut self, tree: DecisionTree) -> Self {
        self.classifier = Some(tree);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Config`] for invalid configurations.
    pub fn build(self) -> Result<AlphaPim, AlphaPimError> {
        let config = self.config.unwrap_or_default();
        let system = PimSystem::new(config).map_err(AlphaPimError::Config)?;
        let classifier = self.classifier.unwrap_or_else(DecisionTree::default_trained);
        Ok(AlphaPim { system, classifier })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_pim_sim::SimFidelity;
    use alpha_pim_sparse::gen;

    fn small_engine() -> AlphaPim {
        AlphaPim::new(PimConfig {
            num_dpus: 6,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let e = AlphaPim::new(PimConfig { num_dpus: 0, ..Default::default() });
        assert!(matches!(e, Err(AlphaPimError::Config(_))));
    }

    #[test]
    fn end_to_end_bfs_sssp_ppr_run() {
        let engine = small_engine();
        let graph = Graph::from_coo(gen::erdos_renyi(80, 600, 5).unwrap())
            .with_random_weights(7);
        let bfs = engine.bfs(&graph, 0, &AppOptions::default()).unwrap();
        assert_eq!(bfs.levels[0], 0);
        let sssp = engine.sssp(&graph, 0, &AppOptions::default()).unwrap();
        assert_eq!(sssp.distances[0], 0);
        let ppr = engine.ppr(&graph, 0, &PprOptions::default()).unwrap();
        assert!(ppr.scores[0] > 0.0);
        // BFS levels lower-bound hop-weighted distances.
        for i in 0..80usize {
            if bfs.levels[i] != crate::apps::bfs::UNREACHED {
                assert!(sssp.distances[i] != crate::semiring::INF);
            }
        }
    }

    #[test]
    fn classification_drives_threshold() {
        let engine = small_engine();
        let road = Graph::from_coo(gen::road_network(3000, 2.8, 3).unwrap());
        assert_eq!(engine.classify(&road), GraphClass::Regular);
        assert_eq!(engine.switch_threshold(&road), 0.20);
        let degs = gen::lognormal_degrees(2000, 12.0, 40.0, 1).unwrap();
        let social = Graph::from_coo(gen::chung_lu(&degs, 2).unwrap());
        assert_eq!(engine.classify(&social), GraphClass::ScaleFree);
        assert_eq!(engine.switch_threshold(&social), 0.50);
    }

    #[test]
    fn custom_classifier_is_honoured() {
        use crate::adaptive::GraphFeatures;
        let corpus = vec![
            (GraphFeatures { avg_degree: 1.0, degree_std: 0.0 }, GraphClass::ScaleFree),
            (GraphFeatures { avg_degree: 100.0, degree_std: 0.0 }, GraphClass::ScaleFree),
        ];
        let engine = AlphaPim::builder()
            .config(PimConfig { num_dpus: 4, fidelity: SimFidelity::Full, ..Default::default() })
            .classifier(DecisionTree::train(&corpus, 1))
            .build()
            .unwrap();
        let road = Graph::from_coo(gen::road_network(1000, 2.8, 3).unwrap());
        // Everything is scale-free under this degenerate classifier.
        assert_eq!(engine.classify(&road), GraphClass::ScaleFree);
    }
}
