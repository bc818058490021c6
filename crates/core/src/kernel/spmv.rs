//! SpMV kernels: the SparseP baselines of §3.
//!
//! Two variants cover SparseP's top performers:
//!
//! * **`COO.nnz` (1D)** — the matrix is split into nnz-balanced row bands;
//!   the full dense input vector is broadcast into every DPU's MRAM, each
//!   DPU computes a disjoint slice of the output, and no host merge is
//!   needed. The broadcast is what makes the Load phase dominate (Fig 2).
//! * **`DCOO` (2D)** — static equal-sized COO tiles; each DPU receives only
//!   its input-vector segment (often small enough to cache in WRAM) and
//!   emits a partial output band that the host merges across the tile-grid
//!   columns.
//!
//! Because SpMV consumes a dense input vector, it processes every matrix
//! entry regardless of how sparse the vector's *content* is — which is why
//! its per-iteration time stays flat across BFS/SSSP iterations (Fig 4).

use std::ops::Range;

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::par::par_map_indexed;
use alpha_pim_sim::report::DpuJob;
use alpha_pim_sim::trace::Record;
use alpha_pim_sim::PimSystem;
use alpha_pim_sparse::partition::{
    near_square_grid, partition_grid, partition_rows, Balance, GridPartition, RowPartition,
};
use alpha_pim_sparse::{Coo, DenseVector};

use crate::error::AlphaPimError;
use crate::kernel::exec::{launch, IterationOutcome, Landed, LoadModel, MergeModel};
use crate::kernel::layout::{
    coo_entry_bytes, edge_base_cost, tasklet_prologue, tasklet_ranges, BlockedOutput,
    CHUNK_BYTES, CHUNK_OVERHEAD, EDGE_BASE,
};
use crate::kernel::SpmvVariant;
use crate::semiring::Semiring;

/// How a tasklet reaches the input vector during the kernel.
#[derive(Debug, Clone, Copy)]
enum XAccess {
    /// Random 8-byte DMA per matrix entry (vector resident in MRAM).
    MramRandom,
    /// Vector segment preloaded into shared WRAM; single-cycle accesses.
    WramCached {
        preload_bytes: u64,
    },
}

/// A matrix partitioned and laid out for one SpMV variant, ready to run
/// any number of iterations.
#[derive(Debug)]
pub struct PreparedSpmv<S: Semiring> {
    variant: SpmvVariant,
    n: u32,
    data: SpmvData<S::Elem>,
}

/// A row band in CSR form (the 1D CSR SpMV variants and CSR SpMSpV).
#[derive(Debug)]
pub(crate) struct CsrBand<V> {
    pub(crate) rows: Range<u32>,
    pub(crate) matrix: alpha_pim_sparse::Csr<V>,
}

#[derive(Debug)]
enum SpmvData<V> {
    Coo1d(Vec<RowPartition<V>>),
    Csr1d(Vec<CsrBand<V>>),
    Dcoo2d(GridPartition<V>),
}

impl<S: Semiring> PreparedSpmv<S> {
    /// Partitions `matrix` (already lifted into the semiring) for
    /// `variant` across the system's DPUs, validating MRAM capacity.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Capacity`] if any DPU's share exceeds its
    /// MRAM bank, and propagates partitioning errors.
    pub fn prepare(
        matrix: &Coo<S::Elem>,
        variant: SpmvVariant,
        sys: &PimSystem,
    ) -> Result<Self, AlphaPimError> {
        Self::prepare_with_balance(matrix, variant, Balance::Nnz, sys)
    }

    /// Like [`PreparedSpmv::prepare`], but with an explicit row-band
    /// balancing strategy for the 1D variant (used by the load-imbalance
    /// ablation; 2D tiles are always static equal-size, as in DCOO).
    ///
    /// # Errors
    ///
    /// Same as [`PreparedSpmv::prepare`].
    pub fn prepare_with_balance(
        matrix: &Coo<S::Elem>,
        variant: SpmvVariant,
        balance: Balance,
        sys: &PimSystem,
    ) -> Result<Self, AlphaPimError> {
        let n = matrix.n_rows().max(matrix.n_cols());
        let eb = S::elem_bytes() as u64;
        let entry = coo_entry_bytes(S::elem_bytes()) as u64;
        let data = match variant {
            SpmvVariant::Coo1d => {
                let mut parts = partition_rows(matrix, sys.num_dpus(), balance)?;
                for p in &mut parts {
                    p.matrix.sort_row_major();
                    let band = (p.row_range.end - p.row_range.start) as u64;
                    let bytes = p.matrix.nnz() as u64 * entry + n as u64 * eb + band * eb;
                    sys.check_mram(bytes).map_err(AlphaPimError::Capacity)?;
                }
                SpmvData::Coo1d(parts)
            }
            SpmvVariant::CsrRow1d | SpmvVariant::CsrNnz1d => {
                let band_balance = if variant == SpmvVariant::CsrRow1d {
                    Balance::EqualRange
                } else {
                    Balance::Nnz
                };
                let parts = partition_rows(matrix, sys.num_dpus(), band_balance)?;
                let bands: Vec<CsrBand<S::Elem>> = parts
                    .into_iter()
                    .map(|p| CsrBand { rows: p.row_range, matrix: p.matrix.to_csr() })
                    .collect();
                for b in &bands {
                    let band = (b.rows.end - b.rows.start) as u64;
                    let bytes = (band + 1) * 4
                        + b.matrix.nnz() as u64 * (4 + eb)
                        + n as u64 * eb
                        + band * eb;
                    sys.check_mram(bytes).map_err(AlphaPimError::Capacity)?;
                }
                SpmvData::Csr1d(bands)
            }
            SpmvVariant::Dcoo2d => {
                let (gr, gc) = near_square_grid(sys.num_dpus());
                let mut grid = partition_grid(matrix, gr, gc)?;
                for t in &mut grid.tiles {
                    t.matrix.sort_row_major();
                    let rows = (t.row_range.end - t.row_range.start) as u64;
                    let cols = (t.col_range.end - t.col_range.start) as u64;
                    let bytes = t.matrix.nnz() as u64 * entry + cols * eb + rows * eb;
                    sys.check_mram(bytes).map_err(AlphaPimError::Capacity)?;
                }
                SpmvData::Dcoo2d(grid)
            }
        };
        Ok(PreparedSpmv { variant, n, data })
    }

    /// The variant this preparation targets.
    pub fn variant(&self) -> SpmvVariant {
        self.variant
    }

    /// The (square) matrix dimension.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Runs one `y = M ⊗ x` iteration with a dense input vector.
    ///
    /// Each partition records event traces where the launch replays its
    /// DPU and closed-form statistics everywhere else
    /// ([`alpha_pim_sim::KernelAccumulator::replays`]). The value math is
    /// shared, so `y` is bit-identical across fidelities.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Dimension`] if `x.len() != n`.
    pub fn run(
        &self,
        x: &DenseVector<S::Elem>,
        sys: &PimSystem,
    ) -> Result<IterationOutcome<S>, AlphaPimError> {
        if x.len() != self.n as usize {
            return Err(AlphaPimError::Dimension { expected: self.n as usize, actual: x.len() });
        }
        let eb = S::elem_bytes() as u64;
        let tasklets = sys.config().tasklets_per_dpu;
        let wram_bytes = sys.config().wram_bytes;
        let acc = sys.accumulator();
        let mut y = vec![S::zero(); self.n as usize];
        // Zero-length bands (`parts > n`) hold no rows, so the 1D variants
        // broadcast the vector only to the DPUs that compute.
        let broadcast =
            |live: usize| LoadModel::Broadcast { bytes: self.n as u64 * eb, live: live as u32 };
        // Row bands are disjoint: each lands on a `y` slice no other band
        // writes.
        let mut land_band = |rows: &Range<u32>, local: &[S::Elem], nnz: usize| {
            y[rows.start as usize..rows.end as usize].copy_from_slice(local);
            Landed { ops: 2 * nnz as u64, retrieve: local.len() as u64 * eb, ..Landed::default() }
        };
        let launched = match &self.data {
            SpmvData::Coo1d(parts) => {
                // Partitions are independent: evaluate them on the pool,
                // each with its own output band.
                let evals = par_map_indexed(parts, |_, p| {
                    let mut local = vec![S::zero(); p.row_range.len()];
                    let job = CooBandJob::<S> {
                        m: &p.matrix,
                        xs: x.values(),
                        local_y: &mut local,
                        tasklets,
                        access: XAccess::MramRandom,
                        wram_bytes,
                    };
                    (acc.evaluate_job(p.part, job), local)
                });
                let load = broadcast(parts.iter().filter(|p| !p.row_range.is_empty()).count());
                launch(sys, acc, evals, load, MergeModel::None, |part, mut local, guard| {
                    let p = &parts[part];
                    if let Some(guard) = guard {
                        guard.admit_band::<S>(p.part, p.row_range.start, &mut local);
                    }
                    land_band(&p.row_range, &local, p.matrix.nnz())
                })
            }
            SpmvData::Csr1d(bands) => {
                let evals = par_map_indexed(bands, |part, b| {
                    let mut local = vec![S::zero(); b.rows.len()];
                    let job = CsrBandJob::<S> {
                        m: &b.matrix,
                        xs: x.values(),
                        local_y: &mut local,
                        tasklets,
                        wram_bytes,
                    };
                    (acc.evaluate_job(part as u32, job), local)
                });
                let load = broadcast(bands.iter().filter(|b| !b.rows.is_empty()).count());
                launch(sys, acc, evals, load, MergeModel::None, |part, mut local, guard| {
                    let b = &bands[part];
                    if let Some(guard) = guard {
                        guard.admit_band::<S>(part as u32, b.rows.start, &mut local);
                    }
                    land_band(&b.rows, &local, b.matrix.nnz())
                })
            }
            SpmvData::Dcoo2d(grid) => {
                // A segment cached in WRAM must leave room for the tasklet
                // streaming buffers and the shared output accumulator, so
                // only segments up to a quarter of WRAM qualify; larger
                // segments take input-driven random MRAM accesses, the
                // irregular pattern the paper attributes SpMV's memory
                // stalls to (§6.4.1).
                let cache_budget = (sys.config().wram_bytes / 4) as u64;
                let evals = par_map_indexed(&grid.tiles, |_, t| {
                    let rows = t.row_range.len();
                    let seg = &x.values()[t.col_range.start as usize..t.col_range.end as usize];
                    if rows == 0 || seg.is_empty() {
                        // Degenerate tile (more grid rows/cols than
                        // indices): no input segment is scattered to it
                        // and no kernel is launched on it.
                        return (acc.evaluate(t.part, &[]), (Vec::new(), 0u64));
                    }
                    let seg_bytes = seg.len() as u64 * eb;
                    let access = if seg_bytes <= cache_budget {
                        XAccess::WramCached { preload_bytes: seg_bytes }
                    } else {
                        XAccess::MramRandom
                    };
                    let mut local = vec![S::zero(); rows];
                    let job = CooBandJob::<S> {
                        m: &t.matrix,
                        xs: seg,
                        local_y: &mut local,
                        tasklets,
                        access,
                        wram_bytes,
                    };
                    (acc.evaluate_job(t.part, job), (local, seg_bytes))
                });
                let merge = MergeModel::Grid {
                    elements: self.n as u64,
                    fan_in: grid.merge_fan_in(),
                    bytes: eb as u32,
                };
                // Tiles in the same grid row overlap in `y`; the launch
                // lands them in tile order, so the cross-tile reduction
                // matches a sequential run (semiring `add` is not assumed
                // commutative-exact over f32).
                let load = LoadModel::Scatter;
                launch(sys, acc, evals, load, merge, |part, (mut local, seg_bytes), guard| {
                    let t = &grid.tiles[part];
                    if let Some(guard) = guard {
                        guard.admit_band::<S>(t.part, t.row_range.start, &mut local);
                    }
                    let retrieve = local.len() as u64 * eb;
                    for (i, v) in local.into_iter().enumerate() {
                        let g = t.row_range.start as usize + i;
                        y[g] = S::add(y[g], v);
                    }
                    Landed { ops: 2 * t.matrix.nnz() as u64, load: seg_bytes, retrieve, merged: 0 }
                })
            }
        };
        Ok(IterationOutcome::new(y, launched))
    }
}

/// Functional + trace execution of one DPU's COO band with a dense input
/// vector: stream entries coarse-grained, access `xs` per entry, and update
/// the output either in shared WRAM (band fits; tasklets own near-disjoint
/// row ranges, so only a boundary merge needs a lock) or through the
/// blocked MRAM cache model.
struct CooBandJob<'a, S: Semiring> {
    m: &'a Coo<S::Elem>,
    xs: &'a [S::Elem],
    local_y: &'a mut [S::Elem],
    tasklets: u32,
    access: XAccess,
    wram_bytes: u32,
}

impl<S: Semiring> DpuJob for CooBandJob<'_, S> {
    fn record<R: Record + Clone>(self, proto: &R) -> Vec<R> {
        let CooBandJob { m, xs, local_y, tasklets, access, wram_bytes } = self;
        // Structurally empty partition (zero-length band from `parts > n`, or
        // a degenerate tile): nothing resides on the DPU, so no kernel is
        // launched and no events, cycles, or fault sites may appear.
        if m.nnz() == 0 && (local_y.is_empty() || xs.is_empty()) {
            return Vec::new();
        }
        let eb = S::elem_bytes();
        let entry_bytes = coo_entry_bytes(eb);
        let entries_per_chunk = (CHUNK_BYTES / entry_bytes).max(1) as usize;
        let ranges = tasklet_ranges(m.nnz(), tasklets);
        let rows = m.rows();
        let cols = m.cols();
        let vals = m.vals();
        let band_bytes = local_y.len() as u64 * eb as u64;
        let shared_wram = band_bytes <= (wram_bytes as u64 * 3) / 4;
        // With the segment cached and the band in shared WRAM, every entry
        // costs the same DMA-free instructions, so each streamed chunk's
        // entries are recorded as one run.
        let cached = matches!(access, XAccess::WramCached { .. });
        let entry_cost = (cached && shared_wram).then(|| {
            let (mul, add) = (S::mul_cost().blocks(), S::add_cost().blocks());
            let access = [(InstrClass::LoadStore, 1)];
            let update = [(InstrClass::LoadStore, 2)];
            [&EDGE_BASE[..], &access, &mul, &update, &add].concat()
        });
        let mut traces = Vec::with_capacity(tasklets as usize);
        for (tid, range) in ranges.iter().enumerate() {
            let mut t = proto.clone();
            tasklet_prologue(&mut t);
            if let XAccess::WramCached { preload_bytes } = access {
                if tid == 0 {
                    t.dma_stream(preload_bytes, CHUNK_BYTES, CHUNK_OVERHEAD);
                }
                t.barrier();
            }
            if shared_wram {
                // Tasklet-parallel zeroing (64-bit stores).
                let share = (band_bytes / 2 / tasklets.max(1) as u64 / eb as u64) as u32;
                t.compute(InstrClass::LoadStore, share);
                t.barrier();
            }
            let mut out = BlockedOutput::new(eb);
            let mut idx = range.start;
            while idx < range.end {
                let chunk_end = (idx + entries_per_chunk).min(range.end);
                t.dma((chunk_end - idx) as u32 * entry_bytes);
                t.compute(InstrClass::Control, CHUNK_OVERHEAD);
                if let Some(cost) = &entry_cost {
                    t.compute_repeated(cost, (chunk_end - idx) as u64);
                    for e in idx..chunk_end {
                        let r = rows[e] as usize;
                        local_y[r] = S::add(local_y[r], S::mul(vals[e], xs[cols[e] as usize]));
                    }
                } else {
                    for e in idx..chunk_end {
                        edge_base_cost(&mut t);
                        match access {
                            XAccess::MramRandom => t.dma(8),
                            XAccess::WramCached { .. } => t.compute(InstrClass::LoadStore, 1),
                        }
                        S::mul_cost().record(&mut t);
                        let contrib = S::mul(vals[e], xs[cols[e] as usize]);
                        if shared_wram {
                            t.compute(InstrClass::LoadStore, 2);
                            S::add_cost().record(&mut t);
                            local_y[rows[e] as usize] = S::add(local_y[rows[e] as usize], contrib);
                        } else {
                            out.update::<S, R>(local_y, rows[e], contrib, &mut t);
                        }
                    }
                }
                idx = chunk_end;
            }
            if shared_wram {
                // Boundary rows shared with the neighbouring tasklet merge
                // under one stripe mutex, then the band writes back in
                // parallel.
                t.mutex_lock((tid % 15) as u16);
                t.compute(InstrClass::LoadStore, 2);
                t.mutex_unlock((tid % 15) as u16);
                t.dma_stream(band_bytes / tasklets.max(1) as u64, CHUNK_BYTES, CHUNK_OVERHEAD);
            } else {
                out.flush(&mut t);
            }
            t.barrier();
            traces.push(t);
        }
        traces
    }
}

/// Functional + trace execution of one DPU's CSR band with a dense input
/// vector: tasklets take equal row ranges, stream the row-pointer array
/// and the contiguous element run, and accumulate each row in registers
/// before one store — CSR's natural row-major pattern (no output locking,
/// but row-count imbalance across tasklets).
struct CsrBandJob<'a, S: Semiring> {
    m: &'a alpha_pim_sparse::Csr<S::Elem>,
    xs: &'a [S::Elem],
    local_y: &'a mut [S::Elem],
    tasklets: u32,
    wram_bytes: u32,
}

impl<S: Semiring> DpuJob for CsrBandJob<'_, S> {
    fn record<R: Record + Clone>(self, proto: &R) -> Vec<R> {
        let CsrBandJob { m, xs, local_y, tasklets, wram_bytes } = self;
        // Zero-length band (`parts > n`): a true no-op, see `CooBandJob`.
        if local_y.is_empty() {
            return Vec::new();
        }
        let eb = S::elem_bytes();
        let ventry = 4 + eb;
        let band_bytes = local_y.len() as u64 * eb as u64;
        let shared_wram = band_bytes <= (wram_bytes as u64 * 3) / 4;
        let ranges = tasklet_ranges(m.n_rows() as usize, tasklets);
        let mut traces = Vec::with_capacity(tasklets as usize);
        for range in ranges {
            let mut t = proto.clone();
            tasklet_prologue(&mut t);
            // Stream this tasklet's slice of the row-pointer array.
            t.dma_stream((range.len() as u64 + 1) * 4, CHUNK_BYTES, CHUNK_OVERHEAD);
            let mut elems_in_range = 0u64;
            let mut out = BlockedOutput::new(eb);
            for r in range.clone() {
                t.compute(InstrClass::Control, 2);
                let (row_cols, row_vals) = m.row(r as u32);
                elems_in_range += row_cols.len() as u64;
                let mut acc = S::zero();
                for (&c, &v) in row_cols.iter().zip(row_vals) {
                    edge_base_cost(&mut t);
                    // Input-driven random access into the dense vector.
                    t.dma(8);
                    S::mul_cost().record(&mut t);
                    S::add_cost().record(&mut t);
                    acc = S::add(acc, S::mul(v, xs[c as usize]));
                }
                // One register-accumulated store per row.
                if shared_wram {
                    t.compute(InstrClass::LoadStore, 1);
                } else {
                    out.touch::<S, R>(r as u32, &mut t);
                }
                local_y[r] = acc;
            }
            // Stream the row elements coarse-grained (they are contiguous in
            // MRAM for a row range): charged as one streaming pass.
            t.dma_stream(elems_in_range * ventry as u64, CHUNK_BYTES, CHUNK_OVERHEAD);
            if shared_wram {
                t.dma_stream(
                    (range.len() as u64 * eb as u64).max(8),
                    CHUNK_BYTES,
                    CHUNK_OVERHEAD,
                );
            } else {
                out.flush(&mut t);
            }
            t.barrier();
            traces.push(t);
        }
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolOrAnd, MinPlus, PlusTimes};
    use alpha_pim_sim::{PimConfig, SimFidelity};

    fn system(dpus: u32) -> PimSystem {
        PimSystem::new(PimConfig {
            num_dpus: dpus,
            fidelity: SimFidelity::Full,
            ..Default::default()
        })
        .unwrap()
    }

    /// Reference dense multiply in an arbitrary semiring.
    fn reference<S: Semiring>(m: &Coo<S::Elem>, x: &[S::Elem]) -> Vec<S::Elem> {
        let mut y = vec![S::zero(); m.n_rows() as usize];
        for (r, c, v) in m.iter() {
            y[r as usize] = S::add(y[r as usize], S::mul(v, x[c as usize]));
        }
        y
    }

    fn sample_matrix() -> Coo<u32> {
        alpha_pim_sparse::gen::erdos_renyi(64, 512, 7).unwrap()
    }

    #[test]
    fn coo1d_matches_reference_bool() {
        let m = sample_matrix().map(BoolOrAnd::from_weight);
        let sys = system(8);
        let prep = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Coo1d, &sys).unwrap();
        let x = DenseVector::from_values((0..64).map(|i| u32::from(i % 3 == 0)).collect());
        let out = prep.run(&x, &sys).unwrap();
        assert_eq!(out.y.values(), reference::<BoolOrAnd>(&m, x.values()).as_slice());
        assert!(out.phases.load > 0.0);
        assert!(out.phases.kernel > 0.0);
        assert_eq!(out.phases.merge, 0.0, "1D row-wise needs no merge");
    }

    #[test]
    fn dcoo2d_matches_reference_minplus() {
        let m = sample_matrix().map(MinPlus::from_weight);
        let sys = system(6);
        let prep = PreparedSpmv::<MinPlus>::prepare(&m, SpmvVariant::Dcoo2d, &sys).unwrap();
        let x = DenseVector::from_values(
            (0..64u32).map(|i| if i % 5 == 0 { i } else { MinPlus::zero() }).collect(),
        );
        let out = prep.run(&x, &sys).unwrap();
        assert_eq!(out.y.values(), reference::<MinPlus>(&m, x.values()).as_slice());
        assert!(out.phases.merge > 0.0, "2D merges partial bands");
    }

    #[test]
    fn dcoo2d_matches_reference_float() {
        let m = sample_matrix().map(PlusTimes::from_weight);
        let sys = system(4);
        let prep = PreparedSpmv::<PlusTimes>::prepare(&m, SpmvVariant::Dcoo2d, &sys).unwrap();
        let x = DenseVector::from_values((0..64).map(|i| (i % 4) as f32).collect());
        let out = prep.run(&x, &sys).unwrap();
        let expect = reference::<PlusTimes>(&m, x.values());
        for (a, b) in out.y.values().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let m = sample_matrix().map(BoolOrAnd::from_weight);
        let sys = system(4);
        let prep = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Coo1d, &sys).unwrap();
        let x = DenseVector::filled(32, 0u32);
        assert!(matches!(prep.run(&x, &sys), Err(AlphaPimError::Dimension { .. })));
    }

    #[test]
    fn load_dominates_1d_but_not_2d() {
        // The Fig 2 effect, at miniature scale with many DPUs.
        let m = alpha_pim_sparse::gen::erdos_renyi(2000, 12000, 3)
            .unwrap()
            .map(BoolOrAnd::from_weight);
        let sys = PimSystem::new(PimConfig {
            num_dpus: 256,
            fidelity: SimFidelity::Sampled(16),
            ..Default::default()
        })
        .unwrap();
        let x = DenseVector::filled(2000, 1u32);
        let p1 = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Coo1d, &sys).unwrap();
        let p2 = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Dcoo2d, &sys).unwrap();
        let o1 = p1.run(&x, &sys).unwrap();
        let o2 = p2.run(&x, &sys).unwrap();
        assert!(o1.phases.load > 5.0 * o2.phases.load, "1D load {} vs 2D load {}", o1.phases.load, o2.phases.load);
        assert!(o2.phases.merge > 0.0);
        // Both compute the same function.
        assert_eq!(o1.y, o2.y);
    }

    #[test]
    fn useful_ops_count_all_entries() {
        let m = sample_matrix().map(BoolOrAnd::from_weight);
        let sys = system(4);
        let prep = PreparedSpmv::<BoolOrAnd>::prepare(&m, SpmvVariant::Coo1d, &sys).unwrap();
        let x = DenseVector::filled(64, 1u32);
        let out = prep.run(&x, &sys).unwrap();
        assert_eq!(out.useful_ops, 2 * m.nnz() as u64);
    }
}
