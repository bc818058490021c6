//! A GraphBLAS-flavoured operation layer over the PIM kernels.
//!
//! The paper situates ALPHA-PIM among linear-algebraic graph frameworks
//! (GraphBLAST, GBTL, …, §2.2): a small set of primitives — vector×matrix
//! with masks, element-wise ⊕, apply, select, reduce — from which graph
//! algorithms compose. This module provides those primitives on top of the
//! adaptive SpMV/SpMSpV machinery, so downstream users can write their own
//! algorithms without touching kernel internals:
//!
//! ```
//! use alpha_pim::gblas::{GbMatrix, GbVector, Mask};
//! use alpha_pim::semiring::BoolOrAnd;
//! use alpha_pim_sim::{PimConfig, PimSystem, SimFidelity};
//! use alpha_pim_sparse::gen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = PimSystem::new(PimConfig {
//!     num_dpus: 8, fidelity: SimFidelity::Full, ..Default::default()
//! })?;
//! let coo = gen::erdos_renyi(100, 700, 4)?;
//! let a_t = coo.transpose();
//! let m = GbMatrix::<BoolOrAnd>::new(&a_t, 0.5, &sys)?;
//!
//! // One BFS level: next = (frontier ×ᵀ A) masked by the unvisited set.
//! let frontier = GbVector::<BoolOrAnd>::one_hot(100, 0);
//! let visited = Mask::from_indices(100, &[0]);
//! let (next, phases) = m.vxm(&frontier, Some(&visited.complement()), &sys)?;
//! assert!(next.nnz() > 0);
//! assert!(phases.total() > 0.0);
//! # Ok(())
//! # }
//! ```

use alpha_pim_sim::report::PhaseBreakdown;
use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::{Coo, SparseVector};

use crate::apps::{AppOptions, MvEngine};
use crate::error::AlphaPimError;
use crate::semiring::Semiring;

/// A sparse vector in a semiring.
#[derive(Debug, Clone, PartialEq)]
pub struct GbVector<S: Semiring> {
    inner: SparseVector<S::Elem>,
}

impl<S: Semiring> GbVector<S> {
    /// An empty vector of length `n`.
    pub fn new(n: usize) -> Self {
        GbVector { inner: SparseVector::new(n) }
    }

    /// A vector with the ⊗-identity at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    pub fn one_hot(n: usize, index: u32) -> Self {
        GbVector { inner: SparseVector::one_hot(n, index, S::one()) }
    }

    /// Builds from `(index, value)` pairs, dropping semiring zeros.
    ///
    /// # Errors
    ///
    /// Propagates index-validation errors.
    pub fn from_entries(
        n: usize,
        entries: impl IntoIterator<Item = (u32, S::Elem)>,
    ) -> Result<Self, AlphaPimError> {
        let (idx, vals): (Vec<u32>, Vec<S::Elem>) =
            entries.into_iter().filter(|(_, v)| !S::is_zero(v)).unzip();
        Ok(GbVector { inner: SparseVector::from_pairs(n, idx, vals)? })
    }

    /// Wraps an existing compressed vector.
    pub fn from_sparse(inner: SparseVector<S::Elem>) -> Self {
        GbVector { inner }
    }

    /// Logical length.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    /// Non-zero fraction in `[0, 1]` — the kernel-switching signal.
    pub fn density(&self) -> f64 {
        self.inner.density()
    }

    /// The stored value at `i`, if any.
    pub fn get(&self, i: u32) -> Option<S::Elem> {
        self.inner.get(i)
    }

    /// Iterates `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, S::Elem)> + '_ {
        self.inner.iter()
    }

    /// The underlying compressed vector.
    pub fn as_sparse(&self) -> &SparseVector<S::Elem> {
        &self.inner
    }

    /// Element-wise ⊕ of two vectors (union of supports).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn ewise_add(&self, other: &GbVector<S>) -> GbVector<S> {
        assert_eq!(self.len(), other.len(), "ewise_add requires equal lengths");
        let mut out = Vec::new();
        let mut a = self.iter().peekable();
        let mut b = other.iter().peekable();
        loop {
            match (a.peek().copied(), b.peek().copied()) {
                (Some((ia, va)), Some((ib, vb))) => {
                    if ia < ib {
                        out.push((ia, va));
                        a.next();
                    } else if ib < ia {
                        out.push((ib, vb));
                        b.next();
                    } else {
                        out.push((ia, S::add(va, vb)));
                        a.next();
                        b.next();
                    }
                }
                (Some(pair), None) => {
                    out.push(pair);
                    a.next();
                }
                (None, Some(pair)) => {
                    out.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        GbVector::from_entries(self.len(), out).expect("merged indices are unique")
    }

    /// Maps every stored value through `f`, dropping results that are
    /// semiring zeros.
    pub fn apply(&self, f: impl Fn(S::Elem) -> S::Elem) -> GbVector<S> {
        GbVector::from_entries(self.len(), self.iter().map(|(i, v)| (i, f(v))))
            .expect("indices unchanged")
    }

    /// Keeps entries for which the predicate holds.
    pub fn select(&self, keep: impl Fn(u32, S::Elem) -> bool) -> GbVector<S> {
        GbVector::from_entries(self.len(), self.iter().filter(|&(i, v)| keep(i, v)))
            .expect("indices unchanged")
    }

    /// Folds all stored values with ⊕ (the GraphBLAS `reduce`).
    pub fn reduce(&self) -> S::Elem {
        self.iter().fold(S::zero(), |acc, (_, v)| S::add(acc, v))
    }

    /// Restricts to positions allowed by the mask.
    pub fn masked(&self, mask: &Mask) -> GbVector<S> {
        self.select(|i, _| mask.allows(i))
    }
}

/// A structural output mask (GraphBLAS-style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    bits: Vec<bool>,
    complemented: bool,
}

impl Mask {
    /// A mask allowing exactly the given indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn from_indices(n: usize, indices: &[u32]) -> Self {
        let mut bits = vec![false; n];
        for &i in indices {
            bits[i as usize] = true;
        }
        Mask { bits, complemented: false }
    }

    /// The complemented view of this mask.
    pub fn complement(&self) -> Mask {
        Mask { bits: self.bits.clone(), complemented: !self.complemented }
    }

    /// Adds an index to the underlying set.
    pub fn insert(&mut self, i: u32) {
        self.bits[i as usize] = true;
    }

    /// Whether position `i` passes the mask.
    pub fn allows(&self, i: u32) -> bool {
        self.bits[i as usize] ^ self.complemented
    }

    /// Logical length.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the mask has zero length.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// A matrix prepared for masked vector×matrix products with adaptive
/// kernel selection: the applications' engine running the default
/// DCOO-2D and CSC-2D variants with the given switch threshold.
#[derive(Debug)]
pub struct GbMatrix<S: Semiring> {
    engine: MvEngine<S>,
}

impl<S: Semiring> GbMatrix<S> {
    /// Prepares `matrix` (in the orientation you want to multiply by —
    /// pass `Aᵀ` for pull-style traversals) with the given SpMSpV→SpMV
    /// switch threshold.
    ///
    /// # Errors
    ///
    /// Propagates preparation and capacity errors.
    pub fn new(
        matrix: &Coo<S::Elem>,
        threshold: f64,
        sys: &PimSystem,
    ) -> Result<Self, AlphaPimError> {
        Ok(GbMatrix { engine: MvEngine::new(matrix, &AppOptions::default(), threshold, sys)? })
    }

    /// The matrix dimension.
    pub fn n(&self) -> u32 {
        self.engine.n()
    }

    /// Masked vector×matrix product: `y = (M ⊗ x) ⟨mask⟩`, choosing
    /// SpMSpV or SpMV by input density.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Dimension`] on length mismatches.
    pub fn vxm(
        &self,
        x: &GbVector<S>,
        mask: Option<&Mask>,
        sys: &PimSystem,
    ) -> Result<(GbVector<S>, PhaseBreakdown), AlphaPimError> {
        let (outcome, _) = self.engine.multiply(x.as_sparse(), sys)?;
        let mut phases = outcome.phases;
        let mut y = GbVector::from_sparse(outcome.output_sparse());
        if let Some(mask) = mask {
            let n = self.n();
            if mask.len() != n as usize {
                return Err(AlphaPimError::Dimension { expected: n as usize, actual: mask.len() });
            }
            // Mask application is a host-side streaming pass.
            phases.merge += sys.scan_time(n as u64, 4);
            y = y.masked(mask);
        }
        Ok((y, phases))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolOrAnd, MinPlus};
    use alpha_pim_sim::{PimConfig, SimFidelity};
    use alpha_pim_sparse::gen;

    fn system() -> PimSystem {
        PimSystem::new(PimConfig {
            num_dpus: 6,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn ewise_add_unions_supports() {
        let a = GbVector::<MinPlus>::from_entries(6, vec![(0, 5u32), (2, 7)]).unwrap();
        let b = GbVector::<MinPlus>::from_entries(6, vec![(2, 3u32), (4, 9)]).unwrap();
        let c = a.ewise_add(&b);
        assert_eq!(c.get(0), Some(5));
        assert_eq!(c.get(2), Some(3)); // min(7, 3)
        assert_eq!(c.get(4), Some(9));
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn apply_select_reduce_compose() {
        let v = GbVector::<MinPlus>::from_entries(8, vec![(1, 4u32), (3, 2), (5, 6)]).unwrap();
        let bumped = v.apply(|x| x + 1);
        assert_eq!(bumped.get(3), Some(3));
        let small = bumped.select(|_, x| x <= 5);
        assert_eq!(small.nnz(), 2);
        assert_eq!(small.reduce(), 3); // min(5, 3)
    }

    #[test]
    fn masks_and_complements() {
        let m = Mask::from_indices(5, &[1, 3]);
        assert!(m.allows(1) && !m.allows(0));
        let c = m.complement();
        assert!(!c.allows(1) && c.allows(0));
        let v = GbVector::<BoolOrAnd>::from_entries(5, (0..5).map(|i| (i, 1u32))).unwrap();
        assert_eq!(v.masked(&m).nnz(), 2);
        assert_eq!(v.masked(&c).nnz(), 3);
    }

    #[test]
    fn bfs_written_in_gblas_matches_the_app() {
        let coo = gen::erdos_renyi(90, 700, 11).unwrap();
        let sys = system();
        let a_t = coo.transpose().map(BoolOrAnd::from_weight);
        let m = GbMatrix::<BoolOrAnd>::new(&a_t, 0.5, &sys).unwrap();

        // GraphBLAS-style BFS.
        let n = 90usize;
        let mut levels = vec![u32::MAX; n];
        levels[0] = 0;
        let mut visited = Mask::from_indices(n, &[0]);
        let mut frontier = GbVector::<BoolOrAnd>::one_hot(n, 0);
        for level in 1..n as u32 {
            let (next, _) = m.vxm(&frontier, Some(&visited.complement()), &sys).unwrap();
            if next.nnz() == 0 {
                break;
            }
            for (i, _) in next.iter() {
                levels[i as usize] = level;
                visited.insert(i);
            }
            frontier = next;
        }

        let reference = crate::apps::bfs::run(
            &a_t,
            0,
            &crate::apps::AppOptions::default(),
            0.5,
            &sys,
        )
        .unwrap();
        assert_eq!(levels, reference.levels);
    }

    #[test]
    fn vxm_rejects_wrong_mask_length() {
        let coo = gen::erdos_renyi(20, 80, 2).unwrap().map(BoolOrAnd::from_weight);
        let sys = system();
        let m = GbMatrix::<BoolOrAnd>::new(&coo, 0.5, &sys).unwrap();
        let x = GbVector::<BoolOrAnd>::one_hot(20, 0);
        let bad_mask = Mask::from_indices(7, &[1]);
        assert!(matches!(
            m.vxm(&x, Some(&bad_mask), &sys),
            Err(AlphaPimError::Dimension { .. })
        ));
    }

    #[test]
    fn empty_vector_behaviour() {
        let v = GbVector::<BoolOrAnd>::new(10);
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.density(), 0.0);
        assert!(BoolOrAnd::is_zero(&v.reduce()));
        let w = v.ewise_add(&GbVector::one_hot(10, 3));
        assert_eq!(w.nnz(), 1);
    }
}
