//! SpMM: sparse matrix × dense multi-vector — the second key kernel of
//! linear-algebraic graph frameworks (§2.2 names SpMV and SpMM together).
//!
//! `Y = M ⊗ X` with `X` an `n × k` dense block of column vectors. One
//! matrix pass serves all `k` columns, amortizing the streaming and
//! index-decoding costs that dominate SpMV — which is what makes batched
//! traversals (multi-source BFS, blocked PPR) attractive on PIM. The
//! layout is the paper's best SpMV partitioning (DCOO-style 2D tiles).

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::par::par_map_indexed;
use alpha_pim_sim::report::{DpuJob, PhaseBreakdown};
use alpha_pim_sim::trace::Record;
use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::partition::{near_square_grid, partition_grid, GridPartition};
use alpha_pim_sparse::Coo;

use crate::error::AlphaPimError;
use crate::kernel::exec::{launch, Landed, LoadModel, MergeModel};
use crate::kernel::layout::{
    coo_entry_bytes, edge_base_cost, tasklet_prologue, tasklet_ranges, CHUNK_BYTES,
    CHUNK_OVERHEAD, EDGE_BASE,
};
use crate::semiring::Semiring;

/// An `n × k` dense block of column vectors, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVector<V> {
    n: usize,
    k: usize,
    data: Vec<V>,
}

impl<V: Copy> MultiVector<V> {
    /// An `n × k` block filled with `fill`.
    pub fn filled(n: usize, k: usize, fill: V) -> Self {
        assert!(k > 0, "k must be positive");
        MultiVector { n, k, data: vec![fill; n * k] }
    }

    /// Number of rows (vector length).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of columns (batched vectors).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The element at row `i`, column `j`.
    pub fn get(&self, i: usize, j: usize) -> V {
        self.data[i * self.k + j]
    }

    /// Sets the element at row `i`, column `j`.
    pub fn set(&mut self, i: usize, j: usize, v: V) {
        self.data[i * self.k + j] = v;
    }

    /// The whole block as a mutable row-major slice (for the merge-time
    /// integrity guard, which treats it as one contiguous output band).
    pub(crate) fn data_mut(&mut self) -> &mut [V] {
        &mut self.data
    }

    /// The `k` elements of row `i`.
    pub fn row(&self, i: usize) -> &[V] {
        &self.data[i * self.k..(i + 1) * self.k]
    }
}

/// A matrix tiled for SpMM, ready to run any number of multiplications.
#[derive(Debug)]
pub struct PreparedSpmm<S: Semiring> {
    n: u32,
    grid: GridPartition<S::Elem>,
}

impl<S: Semiring> PreparedSpmm<S> {
    /// Tiles `matrix` across the system's DPUs (static 2D grid, like
    /// DCOO), validating MRAM capacity for multi-vectors up to `max_k`
    /// columns.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Capacity`] when a tile plus its vector
    /// slabs exceeds a DPU's MRAM, and propagates partitioning errors.
    pub fn prepare(
        matrix: &Coo<S::Elem>,
        max_k: u32,
        sys: &PimSystem,
    ) -> Result<Self, AlphaPimError> {
        let n = matrix.n_rows().max(matrix.n_cols());
        let eb = S::elem_bytes() as u64;
        let entry = coo_entry_bytes(S::elem_bytes()) as u64;
        let (gr, gc) = near_square_grid(sys.num_dpus());
        let mut grid = partition_grid(matrix, gr, gc)?;
        for t in &mut grid.tiles {
            t.matrix.sort_row_major();
            let rows = (t.row_range.end - t.row_range.start) as u64;
            let cols = (t.col_range.end - t.col_range.start) as u64;
            let bytes =
                t.matrix.nnz() as u64 * entry + (cols + rows) * eb * max_k as u64;
            sys.check_mram(bytes).map_err(AlphaPimError::Capacity)?;
        }
        Ok(PreparedSpmm { n, grid })
    }

    /// The (square) matrix dimension.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Runs one `Y = M ⊗ X` multiplication.
    ///
    /// Each tile records event traces where the launch replays its DPU and
    /// O(1)-space closed-form statistics everywhere else
    /// ([`alpha_pim_sim::KernelAccumulator::replays`]); `y` is
    /// bit-identical either way because the value math is shared.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Dimension`] if `x.n() != n`.
    pub fn run(
        &self,
        x: &MultiVector<S::Elem>,
        sys: &PimSystem,
    ) -> Result<SpmmOutcome<S>, AlphaPimError> {
        if x.n() != self.n as usize {
            return Err(AlphaPimError::Dimension { expected: self.n as usize, actual: x.n() });
        }
        let k = x.k();
        let eb = S::elem_bytes() as u64;
        let tasklets = sys.config().tasklets_per_dpu;
        let acc = sys.accumulator();
        let mut y = MultiVector::filled(self.n as usize, k, S::zero());
        let evals = par_map_indexed(&self.grid.tiles, |_, t| {
            let mut local = MultiVector::filled(t.row_range.len(), k, S::zero());
            let job = SpmmTileJob::<S> {
                m: &t.matrix,
                x,
                col_offset: t.col_range.start,
                local_y: &mut local,
                tasklets,
                wram_bytes: sys.config().wram_bytes,
            };
            (acc.evaluate_job(t.part, job), local)
        });
        let merge = MergeModel::Grid {
            elements: self.n as u64 * k as u64,
            fan_in: self.grid.merge_fan_in(),
            bytes: eb as u32,
        };
        // Tiles in one grid row overlap in `y`; the launch lands them in
        // tile order, so the result matches a sequential run exactly.
        let (kernel, phases, useful_ops) =
            launch(sys, acc, evals, LoadModel::Scatter, merge, |part, mut local, guard| {
                let t = &self.grid.tiles[part];
                if let Some(guard) = guard {
                    // Row-major flat view: element `i·k + j` carries the key
                    // of output cell `(row_range.start + i, j)`.
                    let base = t.row_range.start.wrapping_mul(k as u32);
                    guard.admit_band::<S>(t.part, base, local.data_mut());
                }
                let (rows, cols) = (t.row_range.len(), t.col_range.len());
                for i in 0..rows {
                    let g = t.row_range.start as usize + i;
                    for j in 0..k {
                        y.set(g, j, S::add(y.get(g, j), local.get(i, j)));
                    }
                }
                Landed {
                    ops: 2 * t.matrix.nnz() as u64 * k as u64,
                    load: cols as u64 * k as u64 * eb,
                    retrieve: rows as u64 * k as u64 * eb,
                    merged: 0,
                }
            });
        Ok(SpmmOutcome { y, phases, kernel, useful_ops })
    }
}

/// The result of one SpMM multiplication.
#[derive(Debug, Clone)]
pub struct SpmmOutcome<S: Semiring> {
    /// The output multi-vector `Y`.
    pub y: MultiVector<S::Elem>,
    /// Phase breakdown (Load / Kernel / Retrieve / Merge).
    pub phases: PhaseBreakdown,
    /// Cycle-level kernel report.
    pub kernel: alpha_pim_sim::report::KernelReport,
    /// Semiring operations performed (2 per entry per column).
    pub useful_ops: u64,
}

/// Functional + trace execution of one tile: stream entries, and for each
/// apply the semiring across all `k` columns of the cached vector slab.
struct SpmmTileJob<'a, S: Semiring> {
    m: &'a Coo<S::Elem>,
    x: &'a MultiVector<S::Elem>,
    col_offset: u32,
    local_y: &'a mut MultiVector<S::Elem>,
    tasklets: u32,
    wram_bytes: u32,
}

impl<S: Semiring> DpuJob for SpmmTileJob<'_, S> {
    fn record<R: Record + Clone>(self, proto: &R) -> Vec<R> {
        let SpmmTileJob { m, x, col_offset, local_y, tasklets, wram_bytes } = self;
        let k = x.k() as u32;
        let eb = S::elem_bytes();
        let entry_bytes = coo_entry_bytes(eb);
        let per_chunk = (CHUNK_BYTES / entry_bytes).max(1) as usize;
        // The k-wide row slab of the input segment: cache in WRAM when small.
        let slab_cached = (local_y.n() as u64 * k as u64 * eb as u64) < (wram_bytes as u64) / 2;
        let ranges = tasklet_ranges(m.nnz(), tasklets);
        let (rows, cols, vals) = (m.rows(), m.cols(), m.vals());
        // With the slab cached every entry costs the same DMA-free
        // instructions, so each streamed chunk's entries are recorded as
        // one run.
        let entry_cost = slab_cached.then(|| {
            let mut cost = EDGE_BASE.to_vec();
            cost.push((InstrClass::LoadStore, 1));
            for _ in 0..k {
                cost.extend(S::mul_cost().blocks());
                cost.extend(S::add_cost().blocks());
            }
            cost.push((InstrClass::LoadStore, 2 * k));
            cost
        });
        let mut traces = Vec::with_capacity(tasklets as usize);
        for range in ranges {
            let mut t = proto.clone();
            tasklet_prologue(&mut t);
            let mut idx = range.start;
            while idx < range.end {
                let chunk_end = (idx + per_chunk).min(range.end);
                t.dma((chunk_end - idx) as u32 * entry_bytes);
                t.compute(InstrClass::Control, CHUNK_OVERHEAD);
                if let Some(cost) = &entry_cost {
                    t.compute_repeated(cost, (chunk_end - idx) as u64);
                }
                for e in idx..chunk_end {
                    if entry_cost.is_none() {
                        edge_base_cost(&mut t);
                        // One row-slab fetch serves all k columns.
                        t.dma((k * eb).max(8));
                        for _ in 0..k {
                            S::mul_cost().record(&mut t);
                            S::add_cost().record(&mut t);
                        }
                        t.compute(InstrClass::LoadStore, 2 * k);
                    }
                    let global_col = (col_offset + cols[e]) as usize;
                    for j in 0..k as usize {
                        let contrib = S::mul(vals[e], x.get(global_col, j));
                        let cur = local_y.get(rows[e] as usize, j);
                        local_y.set(rows[e] as usize, j, S::add(cur, contrib));
                    }
                }
                idx = chunk_end;
            }
            t.dma_stream(
                (local_y.n() as u64 * k as u64 * eb as u64 / tasklets.max(1) as u64).max(8),
                CHUNK_BYTES,
                CHUNK_OVERHEAD,
            );
            t.barrier();
            traces.push(t);
        }
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::BoolOrAnd;
    use alpha_pim_sim::{PimConfig, SimFidelity};

    fn system(dpus: u32) -> PimSystem {
        PimSystem::new(PimConfig {
            num_dpus: dpus,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    fn reference_spmm(m: &Coo<u32>, x: &MultiVector<u32>) -> MultiVector<u32> {
        let mut y = MultiVector::filled(m.n_rows() as usize, x.k(), BoolOrAnd::zero());
        for (r, c, v) in m.iter() {
            for j in 0..x.k() {
                let contrib = BoolOrAnd::mul(v, x.get(c as usize, j));
                y.set(r as usize, j, BoolOrAnd::add(y.get(r as usize, j), contrib));
            }
        }
        y
    }

    #[test]
    fn spmm_matches_reference() {
        let m = alpha_pim_sparse::gen::erdos_renyi(50, 400, 3)
            .unwrap()
            .map(BoolOrAnd::from_weight);
        let sys = system(6);
        let prep = PreparedSpmm::<BoolOrAnd>::prepare(&m, 4, &sys).unwrap();
        let mut x = MultiVector::filled(50, 4, 0u32);
        for j in 0..4 {
            x.set(j * 7, j, 1);
        }
        let out = prep.run(&x, &sys).unwrap();
        assert_eq!(out.y, reference_spmm(&m, &x));
        assert!(out.phases.total() > 0.0);
        assert_eq!(out.useful_ops, 2 * m.nnz() as u64 * 4);
    }

    #[test]
    fn spmm_amortizes_matrix_streaming_over_columns() {
        // 2 separate SpMV-ish passes (k=1 twice) vs one k=2 pass: the
        // batched kernel must be cheaper than two single passes.
        let m = alpha_pim_sparse::gen::erdos_renyi(400, 4000, 9)
            .unwrap()
            .map(BoolOrAnd::from_weight);
        let sys = system(16);
        let prep = PreparedSpmm::<BoolOrAnd>::prepare(&m, 2, &sys).unwrap();
        let x1 = MultiVector::filled(400, 1, 1u32);
        let x2 = MultiVector::filled(400, 2, 1u32);
        let single = prep.run(&x1, &sys).unwrap().phases.kernel;
        let batched = prep.run(&x2, &sys).unwrap().phases.kernel;
        assert!(batched < 2.0 * single, "batched {batched} vs 2x single {single}");
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let m = alpha_pim_sparse::gen::erdos_renyi(20, 100, 1)
            .unwrap()
            .map(BoolOrAnd::from_weight);
        let sys = system(2);
        let prep = PreparedSpmm::<BoolOrAnd>::prepare(&m, 2, &sys).unwrap();
        let x = MultiVector::filled(10, 2, 0u32);
        assert!(matches!(prep.run(&x, &sys), Err(AlphaPimError::Dimension { .. })));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_columns_panics() {
        MultiVector::<u32>::filled(4, 0, 0);
    }
}
