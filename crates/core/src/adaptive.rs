//! Adaptive SpMSpV→SpMV switching (§4.2): a lightweight decision tree
//! classifies graphs as *regular* or *scale-free* from two features —
//! average degree and degree standard deviation — and maps the class to
//! its switching threshold (20 % and 50 % density respectively).
//!
//! The tree is a small CART (Gini impurity, exhaustive threshold search)
//! trained on a corpus of synthetic graphs labeled by their generator
//! family, mirroring the paper's "trained on a diverse set of real-world
//! graphs" setup with the generators standing in for the datasets.
//!
//! This module also owns the serving-layer *fast-path dispatch*
//! ([`FastPath`] / [`use_analytic_timing`]): the policy deciding when the
//! batched serving engine may replace cycle replay with the closed-form
//! analytic timing model (`alpha_pim_sim::analytic`).

use std::sync::OnceLock;

use alpha_pim_sim::{ObservabilityLevel, PimConfig};
use alpha_pim_sparse::datasets::GraphClass;
use alpha_pim_sparse::{gen, Graph, GraphStats};

/// How the serving engine times supersteps (`ServeConfig::fast_path`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FastPath {
    /// Cycle-level trace replay for every superstep — the exact
    /// discrete-event timing model (today's behaviour, the default).
    #[default]
    Replay,
    /// The closed-form analytic predictor whenever the engine runs at
    /// [`ObservabilityLevel::Aggregate`]. PerDpu/PerTasklet engines keep
    /// replay: their detail records promise real per-tasklet attribution.
    Analytic,
}

/// Fast-path dispatch: whether a serving engine over `cfg` should time
/// supersteps with the analytic model instead of cycle replay.
///
/// `Replay` never does; `Analytic` does whenever Aggregate-level
/// observability permits. Result values and traffic counters are
/// identical either way — only cycle timing switches models.
pub fn use_analytic_timing(path: FastPath, cfg: &PimConfig) -> bool {
    path == FastPath::Analytic && cfg.observability == ObservabilityLevel::Aggregate
}

/// The two features the paper's classifier consumes (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphFeatures {
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Out-degree standard deviation.
    pub degree_std: f64,
}

impl From<GraphStats> for GraphFeatures {
    fn from(s: GraphStats) -> Self {
        GraphFeatures { avg_degree: s.avg_degree, degree_std: s.degree_std }
    }
}

impl GraphFeatures {
    fn get(&self, feature: usize) -> f64 {
        match feature {
            0 => self.avg_degree,
            _ => self.degree_std,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(GraphClass),
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A binary CART decision tree over [`GraphFeatures`].
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Trains a tree of at most `max_depth` levels on labeled samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[(GraphFeatures, GraphClass)], max_depth: u32) -> Self {
        assert!(!samples.is_empty(), "cannot train on an empty corpus");
        let mut tree = DecisionTree { nodes: Vec::new() };
        let indices: Vec<usize> = (0..samples.len()).collect();
        tree.build(samples, &indices, max_depth);
        tree
    }

    fn build(
        &mut self,
        samples: &[(GraphFeatures, GraphClass)],
        indices: &[usize],
        depth: u32,
    ) -> usize {
        let majority = majority_class(samples, indices);
        if depth == 0 || gini(samples, indices) == 0.0 {
            self.nodes.push(Node::Leaf(majority));
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold)) = best_split(samples, indices) else {
            self.nodes.push(Node::Leaf(majority));
            return self.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| samples[i].0.get(feature) <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            self.nodes.push(Node::Leaf(majority));
            return self.nodes.len() - 1;
        }
        // Reserve this node's slot, then build children.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf(majority));
        let left = self.build(samples, &left_idx, depth - 1);
        let right = self.build(samples, &right_idx, depth - 1);
        self.nodes[slot] = Node::Split { feature, threshold, left, right };
        slot
    }

    /// Classifies a graph from its features.
    pub fn classify(&self, features: &GraphFeatures) -> GraphClass {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf(class) => return *class,
                Node::Split { feature, threshold, left, right } => {
                    i = if features.get(*feature) <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// The SpMSpV→SpMV switching threshold for a graph (§4.2.1).
    pub fn switch_threshold(&self, features: &GraphFeatures) -> f64 {
        self.classify(features).switch_threshold()
    }

    /// Number of nodes in the tree (for introspection and tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Trains on the built-in synthetic corpus — the framework default.
    /// The corpus is seeded, so the tree is trained once per process and
    /// cloned on every later call.
    pub fn default_trained() -> Self {
        static TREE: OnceLock<DecisionTree> = OnceLock::new();
        TREE.get_or_init(|| DecisionTree::train(&training_corpus(0xA1FA), 3)).clone()
    }
}

fn majority_class(samples: &[(GraphFeatures, GraphClass)], indices: &[usize]) -> GraphClass {
    let scale_free =
        indices.iter().filter(|&&i| samples[i].1 == GraphClass::ScaleFree).count();
    if 2 * scale_free >= indices.len() {
        GraphClass::ScaleFree
    } else {
        GraphClass::Regular
    }
}

fn gini(samples: &[(GraphFeatures, GraphClass)], indices: &[usize]) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    let p = indices.iter().filter(|&&i| samples[i].1 == GraphClass::ScaleFree).count() as f64
        / indices.len() as f64;
    2.0 * p * (1.0 - p)
}

fn best_split(
    samples: &[(GraphFeatures, GraphClass)],
    indices: &[usize],
) -> Option<(usize, f64)> {
    let parent = gini(samples, indices) * indices.len() as f64;
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
    for feature in 0..2 {
        let mut values: Vec<f64> = indices.iter().map(|&i| samples[i].0.get(feature)).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("degree features are finite"));
        values.dedup();
        for w in values.windows(2) {
            let threshold = (w[0] + w[1]) / 2.0;
            let (l, r): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| samples[i].0.get(feature) <= threshold);
            let score = gini(samples, &l) * l.len() as f64 + gini(samples, &r) * r.len() as f64;
            if score < parent - 1e-12
                && best.is_none_or(|(_, _, s)| score < s)
            {
                best = Some((feature, threshold, score));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// Generates the labeled training corpus: road networks, near-regular and
/// Erdős–Rényi graphs labeled *regular*; lognormal Chung–Lu and R-MAT
/// graphs labeled *scale-free*.
pub fn training_corpus(seed: u64) -> Vec<(GraphFeatures, GraphClass)> {
    let mut corpus = Vec::new();
    let mut add = |graph: Graph, class: GraphClass| {
        corpus.push((GraphFeatures::from(graph.stats()), class));
    };
    // Regular family: roads, exact-k, and light-tailed uniform graphs.
    for (i, avg) in [2.2, 2.6, 2.8, 3.2, 3.6].iter().enumerate() {
        add(
            Graph::from_coo(gen::road_network(3000, *avg, seed + i as u64).expect("valid road")),
            GraphClass::Regular,
        );
    }
    for (i, k) in [2u32, 3, 4, 6, 8].iter().enumerate() {
        add(
            Graph::from_coo(gen::k_regular(2000, *k, seed + 10 + i as u64).expect("valid k")),
            GraphClass::Regular,
        );
    }
    for (i, m) in [4000usize, 6000, 8000].iter().enumerate() {
        add(
            Graph::from_coo(gen::erdos_renyi(2000, *m, seed + 20 + i as u64).expect("valid er")),
            GraphClass::Regular,
        );
    }
    // Small-world rings: near-uniform degrees even after rewiring.
    for (i, beta) in [0.0, 0.1, 0.3].iter().enumerate() {
        add(
            Graph::from_coo(
                gen::watts_strogatz(2000, 6, *beta, seed + 60 + i as u64).expect("valid ws"),
            ),
            GraphClass::Regular,
        );
    }
    // Scale-free family: heavy-tailed Chung–Lu and R-MAT graphs, plus
    // moderately-skewed members (amazon0302 / Gnutella-like) whose degree
    // std sits just a few times above regular graphs'.
    for (i, (avg, std)) in [
        (4.0, 25.0),
        (7.0, 20.0),
        (10.0, 36.0),
        (12.0, 41.0),
        (24.0, 31.0),
        (44.0, 115.0),
        (6.9, 5.4),
        (4.9, 5.9),
        (5.5, 7.9),
    ]
    .iter()
    .enumerate()
    {
        let degs = gen::lognormal_degrees(3000, *avg, *std, seed + 30 + i as u64)
            .expect("valid moments");
        add(
            Graph::from_coo(gen::chung_lu(&degs, seed + 40 + i as u64).expect("valid cl")),
            GraphClass::ScaleFree,
        );
    }
    for (i, ef) in [8u32, 16, 32].iter().enumerate() {
        add(
            Graph::from_coo(
                gen::rmat(11, *ef, Default::default(), seed + 50 + i as u64).expect("valid rmat"),
            ),
            GraphClass::ScaleFree,
        );
    }
    // Preferential attachment: the canonical power-law family.
    for (i, m) in [2u32, 4, 8].iter().enumerate() {
        add(
            Graph::from_coo(
                gen::barabasi_albert(2500, *m, seed + 70 + i as u64).expect("valid ba"),
            ),
            GraphClass::ScaleFree,
        );
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_pim_sparse::datasets;

    #[test]
    fn tree_separates_the_training_corpus() {
        let corpus = training_corpus(7);
        let tree = DecisionTree::train(&corpus, 3);
        let correct = corpus
            .iter()
            .filter(|(f, class)| tree.classify(f) == *class)
            .count();
        assert!(
            correct as f64 / corpus.len() as f64 >= 0.9,
            "{correct}/{} correct",
            corpus.len()
        );
    }

    #[test]
    fn default_tree_classifies_the_paper_catalog() {
        let tree = DecisionTree::default_trained();
        let mut correct = 0;
        let mut total = 0;
        for spec in datasets::CATALOG.iter() {
            let f = GraphFeatures { avg_degree: spec.avg_degree, degree_std: spec.degree_std };
            total += 1;
            if tree.classify(&f) == spec.class {
                correct += 1;
            }
        }
        assert!(correct >= total - 1, "{correct}/{total} catalog entries classified correctly");
        // The two anchor cases the paper discusses explicitly.
        let road = GraphFeatures { avg_degree: 2.78, degree_std: 1.0 };
        assert_eq!(tree.classify(&road), GraphClass::Regular);
        assert_eq!(tree.switch_threshold(&road), 0.20);
        let a302 = GraphFeatures { avg_degree: 6.86, degree_std: 5.41 };
        assert_eq!(tree.classify(&a302), GraphClass::ScaleFree);
        assert_eq!(tree.switch_threshold(&a302), 0.50);
    }

    #[test]
    fn pure_corpus_yields_single_leaf() {
        let corpus: Vec<(GraphFeatures, GraphClass)> = (0..5)
            .map(|i| {
                (
                    GraphFeatures { avg_degree: 2.0 + i as f64, degree_std: 1.0 },
                    GraphClass::Regular,
                )
            })
            .collect();
        let tree = DecisionTree::train(&corpus, 3);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(
            tree.classify(&GraphFeatures { avg_degree: 100.0, degree_std: 500.0 }),
            GraphClass::Regular
        );
    }

    #[test]
    fn depth_zero_tree_is_majority_vote() {
        let corpus = vec![
            (GraphFeatures { avg_degree: 1.0, degree_std: 1.0 }, GraphClass::Regular),
            (GraphFeatures { avg_degree: 9.0, degree_std: 90.0 }, GraphClass::ScaleFree),
            (GraphFeatures { avg_degree: 8.0, degree_std: 80.0 }, GraphClass::ScaleFree),
        ];
        let tree = DecisionTree::train(&corpus, 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(
            tree.classify(&GraphFeatures { avg_degree: 1.0, degree_std: 1.0 }),
            GraphClass::ScaleFree
        );
    }

    #[test]
    #[should_panic(expected = "empty corpus")]
    fn training_on_nothing_panics() {
        DecisionTree::train(&[], 3);
    }

    #[test]
    fn training_corpus_is_balanced_enough() {
        let corpus = training_corpus(1);
        let scale_free =
            corpus.iter().filter(|(_, c)| *c == GraphClass::ScaleFree).count();
        let regular = corpus.len() - scale_free;
        assert!(scale_free >= 5 && regular >= 5, "{regular} regular / {scale_free} scale-free");
    }
}
