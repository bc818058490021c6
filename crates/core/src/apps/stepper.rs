//! The one superstep loop every traversal application runs (§4.2):
//! multiply `y = Aᵀ ⊗ x` under the application's semiring with the kernel
//! the input density selects, fold the host-side update into the merge
//! phase, record the iteration, and stop at convergence or the iteration
//! cap.
//!
//! A [`Stepper`] runs one query one superstep at a time, so the serving
//! engine can interleave many queries without perturbing any one query's
//! answer or its per-iteration record: driving a stepper to completion is
//! bit-identical to a standalone run. Each application supplies only its
//! host [`Rule`] — BFS's visited mask and levels ([`super::bfs::Bfs`]), the
//! semiring relaxation shared by SSSP, widest-path and WCC ([`Relax`]), and
//! PPR's α-blend ([`super::ppr::Ppr`]).

use std::rc::Rc;

use alpha_pim_sim::{CounterSet, PimSystem};
use alpha_pim_sparse::SparseVector;

use crate::apps::{check_source, AppReport, IterationStats, MvEngine};
use crate::error::AlphaPimError;
use crate::recover::{self, Dec, RecoverError, Wire};
use crate::semiring::Semiring;

/// The vector element type of a rule's semiring.
pub(crate) type Elem<R> = <<R as Rule>::S as Semiring>::Elem;

/// One application's host-side state and update rule.
pub(crate) trait Rule: Sized {
    /// The semiring the application multiplies under.
    type S: Semiring<Elem: Wire>;

    /// Streaming host passes over `y` per superstep, each charged to the
    /// merge phase like the paper's convergence checks (§6.3.1).
    const SCANS: f64 = 1.0;

    /// Folds superstep `iter`'s output `y` into the state. Returns the next
    /// input vector's `(indices, values)`, or `None` once converged.
    fn update(&mut self, y: &[Elem<Self>], iter: u32) -> Option<(Vec<u32>, Vec<Elem<Self>>)>;

    /// Serializes the state (bit-exact) into a checkpoint payload.
    fn put(&self, out: &mut Vec<u8>);

    /// Decodes a [`Self::put`] payload for an `n`-vertex graph, rejecting
    /// lengths or values that do not fit it.
    fn read(d: &mut Dec, n: u32) -> Result<Self, RecoverError>;
}

/// The semiring relaxation SSSP, widest-path and WCC share: a vertex keeps
/// a candidate `c` whenever `S::add(cur, c) != cur` — a shorter distance
/// under (min, +), a fatter bottleneck under (max, min) — and the improved
/// vertices, carrying their new values, form the next frontier.
pub(crate) struct Relax<S: Semiring> {
    pub(crate) values: Vec<S::Elem>,
}

impl<S: Semiring<Elem: Wire>> Relax<S> {
    /// A single-source query: every vertex starts unreached at `S::zero()`
    /// except `source` at `S::one()`, which is the whole first frontier —
    /// SSSP's distance 0 under (min, +), widest-path's unbounded capacity
    /// under (max, min).
    pub(crate) fn from_source(
        engine: Rc<MvEngine<S>>,
        source: u32,
        max_iterations: u32,
    ) -> Result<Stepper<Self>, AlphaPimError> {
        let n = engine.n();
        check_source(source, n)?;
        let mut values = vec![S::zero(); n as usize];
        values[source as usize] = S::one();
        let frontier = SparseVector::one_hot(n as usize, source, S::one());
        Ok(Stepper::new(engine, Relax { values }, frontier, max_iterations))
    }
}

impl<S: Semiring<Elem: Wire>> Rule for Relax<S> {
    type S = S;

    fn update(&mut self, y: &[S::Elem], _iter: u32) -> Option<(Vec<u32>, Vec<S::Elem>)> {
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (i, (cur, &cand)) in self.values.iter_mut().zip(y).enumerate() {
            if S::add(*cur, cand) != *cur {
                *cur = cand;
                idx.push(i as u32);
                vals.push(cand);
            }
        }
        (!idx.is_empty()).then_some((idx, vals))
    }

    fn put(&self, out: &mut Vec<u8>) {
        recover::put_slice(out, &self.values);
    }

    fn read(d: &mut Dec, n: u32) -> Result<Self, RecoverError> {
        let values = recover::read_vec(d)?;
        if values.len() != n as usize {
            return Err(RecoverError::Malformed(format!("{} state length != node count", S::NAME)));
        }
        Ok(Relax { values })
    }
}

/// A resumable run of one query: [`Self::step`] executes exactly one
/// superstep against a (possibly shared, cached) prepared engine.
pub(crate) struct Stepper<R: Rule> {
    engine: Rc<MvEngine<R::S>>,
    n: u32,
    rule: R,
    frontier: SparseVector<Elem<R>>,
    report: AppReport,
    iter: u32,
    max_iterations: u32,
    done: bool,
}

impl<R: Rule> Stepper<R> {
    /// A stepper starting from `rule`'s state with input vector `frontier`
    /// — a one-hot source, every vertex (WCC), or the seed frontier of an
    /// incremental repair.
    pub(crate) fn new(
        engine: Rc<MvEngine<R::S>>,
        rule: R,
        frontier: SparseVector<Elem<R>>,
        max_iterations: u32,
    ) -> Self {
        let n = engine.n();
        let report = AppReport::default();
        Stepper { engine, n, rule, frontier, report, iter: 0, max_iterations, done: false }
    }

    /// Whether the query has finished (converged or hit its iteration cap).
    pub(crate) fn is_done(&self) -> bool {
        self.done || self.iter >= self.max_iterations
    }

    /// Non-zeros in the vector the *next* step will multiply by.
    pub(crate) fn frontier_nnz(&self) -> u64 {
        self.frontier.nnz() as u64
    }

    /// The dense vector length (the matrix dimension).
    pub(crate) fn n(&self) -> u32 {
        self.n
    }

    /// The application state.
    pub(crate) fn rule(&self) -> &R {
        &self.rule
    }

    /// The performance record accumulated so far.
    pub(crate) fn report(&self) -> &AppReport {
        &self.report
    }

    /// Runs one superstep. Returns `true` while more steps remain.
    pub(crate) fn step(&mut self, sys: &PimSystem) -> Result<bool, AlphaPimError> {
        if self.is_done() {
            return Ok(false);
        }
        let density = self.frontier.density();
        let (outcome, kernel) = self.engine.multiply(&self.frontier, sys)?;
        let mut phases = outcome.phases;
        // The convergence scans are priced but not counted.
        let scan = sys.scan_time_counted(u64::from(self.n), 4, &mut CounterSet::new());
        phases.merge += R::SCANS * scan;
        let next = self.rule.update(outcome.y.values(), self.iter);
        self.report.push(IterationStats {
            index: self.iter,
            input_density: density,
            kernel,
            phases,
            kernel_report: outcome.kernel,
            useful_ops: outcome.useful_ops,
        });
        self.iter += 1;
        let Some((idx, vals)) = next else {
            self.report.converged = true;
            self.done = true;
            return Ok(false);
        };
        self.frontier = SparseVector::from_pairs(self.n as usize, idx, vals)?;
        Ok(!self.is_done())
    }

    /// Steps to completion, yielding the final state and its record.
    pub(crate) fn run(mut self, sys: &PimSystem) -> Result<(R, AppReport), AlphaPimError> {
        while self.step(sys)? {}
        Ok((self.rule, self.report))
    }

    /// Marks the query shed: done, `degraded` set, partial answer kept.
    pub(crate) fn shed(&mut self) {
        self.report.degraded = true;
        self.done = true;
    }

    /// Serializes the full stepper state (bit-exact, including the report's
    /// `f64` accumulators): `n`, the application state, the frontier, the
    /// report, the iteration, the cap and the done flag.
    pub(crate) fn snapshot(&self, out: &mut Vec<u8>) {
        recover::put_u32(out, self.n);
        self.rule.put(out);
        recover::put_sparse(out, &self.frontier);
        recover::put_app_report(out, &self.report);
        recover::put_u32(out, self.iter);
        recover::put_u32(out, self.max_iterations);
        recover::put_bool(out, self.done);
    }

    /// Rebuilds a stepper from a [`Self::snapshot`] payload against a
    /// freshly prepared (or cached) engine for the same graph.
    pub(crate) fn restore(engine: Rc<MvEngine<R::S>>, d: &mut Dec) -> Result<Self, RecoverError> {
        let n = d.u32()?;
        if n != engine.n() {
            return Err(RecoverError::Mismatch(format!(
                "{} snapshot is for a {n}-node graph, engine has {}",
                R::S::NAME,
                engine.n()
            )));
        }
        let rule = R::read(d, n)?;
        let frontier = recover::read_sparse(d)?;
        if frontier.len() != n as usize {
            return Err(RecoverError::Malformed(format!(
                "{} frontier length != node count",
                R::S::NAME
            )));
        }
        let report = recover::read_app_report(d)?;
        let iter = d.u32()?;
        let max_iterations = d.u32()?;
        let done = d.bool()?;
        Ok(Stepper { engine, n, rule, frontier, report, iter, max_iterations, done })
    }
}
