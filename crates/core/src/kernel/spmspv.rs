//! SpMSpV kernels: the paper's core contribution (§4.1).
//!
//! All five variants consume a *compressed* input vector, which slashes
//! the Load phase relative to SpMV's dense broadcast (Fig 6). They differ
//! in format and partitioning:
//!
//! * **COO / CSR** (row-wise) stream the whole matrix and match every
//!   entry against the compressed vector by binary search — CSR with
//!   per-row transfers and equal-row splitting, which is why it is
//!   consistently the worst performer (§6.1) and excluded from Fig 5;
//! * **CSC-R / CSC-C / CSC-2D** traverse only *active* columns (those
//!   matching non-zero input entries), doing work proportional to the
//!   frontier rather than the matrix.
//!
//! Outputs are compressed on the DPU before retrieval; column-wise and 2D
//! variants additionally merge partial results on the host.

use std::collections::HashMap;
use std::ops::Range;

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::par::{par_map_indexed, par_map_indexed_with};
use alpha_pim_sim::report::{DpuEval, DpuJob, ReuseKey};
use alpha_pim_sim::trace::Record;
use alpha_pim_sim::{KernelAccumulator, PimSystem};
use alpha_pim_sparse::partition::{
    near_square_grid, partition_cols, partition_grid, partition_rows, Balance,
};
use alpha_pim_sparse::{Coo, Csr, SparseVector};

use crate::error::AlphaPimError;
use crate::kernel::exec::{launch, IterationOutcome, Landed, LoadModel, MergeModel};
use crate::kernel::layout::{
    coo_entry_bytes, edge_base_cost, mutex_for, search_probes, tasklet_prologue,
    tasklet_ranges, vec_entry_bytes, BlockedOutput, CHUNK_BYTES, CHUNK_OVERHEAD, EDGE_BASE,
    SEARCH_CACHE_ENTRIES,
};
use crate::kernel::spmv::CsrBand;
use crate::kernel::SpmspvVariant;
use crate::semiring::Semiring;

/// A matrix partitioned and laid out for one SpMSpV variant.
#[derive(Debug)]
pub struct PreparedSpmspv<S: Semiring> {
    variant: SpmspvVariant,
    n: u32,
    data: SpmspvData<S::Elem>,
}

/// A row band in CSC form (local rows × all columns).
#[derive(Debug)]
struct CscRowBand<V> {
    rows: std::ops::Range<u32>,
    matrix: Dcsc<V>,
}

/// A column band in CSC form (all rows × local columns).
#[derive(Debug)]
struct CscColBand<V> {
    cols: std::ops::Range<u32>,
    matrix: Dcsc<V>,
}

/// One 2D tile in CSC form (local rows × local columns).
#[derive(Debug)]
struct CscTile<V> {
    rows: std::ops::Range<u32>,
    cols: std::ops::Range<u32>,
    matrix: Dcsc<V>,
}

/// A CSC partition as the host keeps it: only its non-empty columns, the
/// DCSC layout of Buluç & Gilbert (IPDPS 2008), so a partition costs host
/// memory and time in proportion to its entries rather than its width.
/// Entries come in exactly the order [`alpha_pim_sparse::Csc::from_coo`]
/// gives them, so every semiring sum accumulates in the same order. The
/// modelled DPU still holds a dense CSC: the MRAM check, the column-pointer
/// DMA and the per-column decode are charged for it.
#[derive(Debug)]
struct Dcsc<V> {
    /// Ascending local ids of the non-empty columns.
    cols: Vec<u32>,
    /// `cols.len() + 1` offsets of each column's first entry.
    offsets: Vec<u32>,
    /// Each entry's local row.
    rows: Vec<u32>,
    /// Each entry's value.
    vals: Vec<V>,
}

impl<V: Copy> Dcsc<V> {
    /// Lays out `coo`'s entries column by column, rows ascending within a
    /// column and duplicate entries in COO order.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Capacity`] if the partition holds more
    /// entries than `u32` offsets address.
    fn from_coo(coo: &Coo<V>) -> Result<Self, AlphaPimError> {
        let nnz = u32::try_from(coo.nnz()).map_err(|_| {
            AlphaPimError::Capacity(format!(
                "a partition of {} entries overflows u32 offsets",
                coo.nnz()
            ))
        })?;
        let (rows, cols, vals) = (coo.rows(), coo.cols(), coo.vals());
        let mut order: Vec<u32> = (0..nnz).collect();
        order.sort_unstable_by_key(|&e| (cols[e as usize], rows[e as usize], e));
        let mut m = Dcsc {
            cols: Vec::new(),
            offsets: Vec::new(),
            rows: Vec::with_capacity(order.len()),
            vals: Vec::with_capacity(order.len()),
        };
        for e in order.into_iter().map(|e| e as usize) {
            if m.cols.last() != Some(&cols[e]) {
                m.cols.push(cols[e]);
                m.offsets.push(m.rows.len() as u32);
            }
            m.rows.push(rows[e]);
            m.vals.push(vals[e]);
        }
        m.offsets.push(nnz);
        Ok(m)
    }

    /// Number of stored entries.
    fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Rows and values of the `k`-th non-empty column.
    fn col(&self, k: usize) -> (&[u32], &[V]) {
        let (lo, hi) = (self.offsets[k] as usize, self.offsets[k + 1] as usize);
        (&self.rows[lo..hi], &self.vals[lo..hi])
    }

    /// The indices of the non-empty columns in `first..=last`, searched
    /// from index `from`, before which every column lies below `first`.
    fn col_span(&self, from: usize, first: u32, last: u32) -> Range<usize> {
        let lo = from + gallop(&self.cols[from..], |&c| c < first);
        lo..lo + gallop(&self.cols[lo..], |&c| c <= last)
    }

    /// Entries stored in the columns with indices `span`.
    fn span_entries(&self, span: Range<usize>) -> usize {
        (self.offsets[span.end] - self.offsets[span.start]) as usize
    }

    /// The input `entries` that meet a non-empty column, as `(entry
    /// position, column index)` pairs in ascending order. Both lists are
    /// sorted, so each step skips a whole run of misses by [`gallop`].
    fn meets<'a, X>(
        &'a self,
        entries: &'a [(u32, X)],
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let (mut p, mut k) = (0, 0);
        std::iter::from_fn(move || {
            while p < entries.len() && k < self.cols.len() {
                let (j, c) = (entries[p].0, self.cols[k]);
                if j < c {
                    p += gallop(&entries[p..], |e| e.0 < c);
                } else if c < j {
                    k += gallop(&self.cols[k..], |&c| c < j);
                } else {
                    (p, k) = (p + 1, k + 1);
                    return Some((p - 1, k - 1));
                }
            }
            None
        })
    }
}

/// How many leading items of `xs` satisfy `before`, which holds for a
/// prefix of `xs` and fails for the rest. The probe distance doubles from
/// the front, so skipping `d` items costs `O(log d)` comparisons: two
/// lists of similar length merge in linear time, and a short list skips
/// through a long one.
fn gallop<T>(xs: &[T], before: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut hi) = (0, 1);
    while hi <= xs.len() && before(&xs[hi - 1]) {
        (lo, hi) = (hi, 2 * hi);
    }
    // `xs[hi - 1]`, if there is one, was probed and failed.
    lo + xs[lo..(hi - 1).min(xs.len())].partition_point(before)
}

#[derive(Debug)]
enum SpmspvData<V> {
    Coo(Vec<alpha_pim_sparse::RowPartition<V>>),
    Csr(Vec<CsrBand<V>>),
    CscR(Vec<CscRowBand<V>>),
    CscC(Vec<CscColBand<V>>),
    Csc2d(Vec<CscTile<V>>),
}

impl<S: Semiring> PreparedSpmspv<S> {
    /// Partitions `matrix` (already lifted into the semiring) for
    /// `variant` across the system's DPUs, validating MRAM capacity.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Capacity`] if a DPU's share exceeds its
    /// MRAM bank, and propagates partitioning errors.
    pub fn prepare(
        matrix: &Coo<S::Elem>,
        variant: SpmspvVariant,
        sys: &PimSystem,
    ) -> Result<Self, AlphaPimError> {
        let n = matrix.n_rows().max(matrix.n_cols());
        let d = sys.num_dpus();
        let eb = S::elem_bytes() as u64;
        let entry = coo_entry_bytes(S::elem_bytes()) as u64;
        let ventry = vec_entry_bytes(S::elem_bytes()) as u64;
        let data = match variant {
            SpmspvVariant::Coo => {
                let mut parts = partition_rows(matrix, d, Balance::Nnz)?;
                for p in &mut parts {
                    p.matrix.sort_row_major();
                    let bytes = p.matrix.nnz() as u64 * entry + n as u64 * ventry;
                    sys.check_mram(bytes).map_err(AlphaPimError::Capacity)?;
                }
                SpmspvData::Coo(parts)
            }
            SpmspvVariant::Csr => {
                let parts = partition_rows(matrix, d, Balance::EqualRange)?;
                let bands: Vec<CsrBand<S::Elem>> = parts
                    .into_iter()
                    .map(|p| CsrBand { rows: p.row_range, matrix: p.matrix.to_csr() })
                    .collect();
                for b in &bands {
                    let rows = (b.rows.end - b.rows.start) as u64;
                    let bytes = (rows + 1) * 4 + b.matrix.nnz() as u64 * ventry + n as u64 * ventry;
                    sys.check_mram(bytes).map_err(AlphaPimError::Capacity)?;
                }
                SpmspvData::Csr(bands)
            }
            // The CSC variants check each DPU's dense CSC against its MRAM
            // bank, then keep the partition in the host's hypersparse layout.
            SpmspvVariant::CscR => {
                let parts = partition_rows(matrix, d, Balance::Nnz)?;
                let mut bands = Vec::with_capacity(parts.len());
                for p in parts {
                    let bytes =
                        (n as u64 + 1) * 4 + p.matrix.nnz() as u64 * ventry + n as u64 * ventry;
                    sys.check_mram(bytes).map_err(AlphaPimError::Capacity)?;
                    let matrix = Dcsc::from_coo(&p.matrix)?;
                    bands.push(CscRowBand { rows: p.row_range, matrix });
                }
                SpmspvData::CscR(bands)
            }
            SpmspvVariant::CscC => {
                let parts = partition_cols(matrix, d, Balance::Nnz)?;
                let mut bands = Vec::with_capacity(parts.len());
                for p in parts {
                    let cols = p.col_range.len() as u64;
                    let bytes = (cols + 1) * 4 + p.matrix.nnz() as u64 * ventry + n as u64 * eb;
                    sys.check_mram(bytes).map_err(AlphaPimError::Capacity)?;
                    let matrix = Dcsc::from_coo(&p.matrix)?;
                    bands.push(CscColBand { cols: p.col_range, matrix });
                }
                SpmspvData::CscC(bands)
            }
            SpmspvVariant::Csc2d => {
                let (gr, gc) = near_square_grid(d);
                let grid = partition_grid(matrix, gr, gc)?;
                let mut tiles = Vec::with_capacity(grid.tiles.len());
                for t in grid.tiles {
                    let (cols, rows) = (t.col_range.len() as u64, t.row_range.len() as u64);
                    let bytes = (cols + 1) * 4 + t.matrix.nnz() as u64 * ventry + rows * eb;
                    sys.check_mram(bytes).map_err(AlphaPimError::Capacity)?;
                    let matrix = Dcsc::from_coo(&t.matrix)?;
                    tiles.push(CscTile { rows: t.row_range, cols: t.col_range, matrix });
                }
                SpmspvData::Csc2d(tiles)
            }
        };
        Ok(PreparedSpmspv { variant, n, data })
    }

    /// The variant this preparation targets.
    pub fn variant(&self) -> SpmspvVariant {
        self.variant
    }

    /// The (square) matrix dimension.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Runs one `y = M ⊗ x` iteration with a compressed input vector.
    ///
    /// Each partition records event traces where the launch replays its
    /// DPU and closed-form statistics everywhere else
    /// ([`KernelAccumulator::replays`]). The value math is shared, so `y`
    /// is bit-identical across fidelities.
    ///
    /// # Errors
    ///
    /// Returns [`AlphaPimError::Dimension`] if `x.len() != n`.
    pub fn run(
        &self,
        x: &SparseVector<S::Elem>,
        sys: &PimSystem,
    ) -> Result<IterationOutcome<S>, AlphaPimError> {
        if x.len() != self.n as usize {
            return Err(AlphaPimError::Dimension { expected: self.n as usize, actual: x.len() });
        }
        let eb = S::elem_bytes();
        let ventry = vec_entry_bytes(eb) as u64;
        let tasklets = sys.config().tasklets_per_dpu;
        let acc = sys.accumulator();
        let mut y = vec![S::zero(); self.n as usize];
        // Zero-length bands (`parts > n`) hold no rows: the row-band
        // variants broadcast the compressed vector only to the DPUs that
        // compute.
        let x_bytes = x.compressed_bytes(eb as usize) as u64;
        let broadcast = |live: usize| LoadModel::Broadcast { bytes: x_bytes, live: live as u32 };
        // CSC-C and CSC-2D scatter input segments and merge their outputs'
        // entries on the host.
        let merge_entries = MergeModel::Entries { bytes: ventry as u32 };
        // COO and CSR stream their whole band and land it densely; the
        // band is compressed on the DPU before retrieval.
        let mut land_matched = |rows: &Range<u32>, local: &[S::Elem], ops: u64, nnz: usize| {
            let nnz_out = local.iter().filter(|v| !S::is_zero(v)).count() as u64;
            y[rows.start as usize..rows.end as usize].copy_from_slice(local);
            let band_bytes = local.len() as u64 * eb as u64;
            let retrieve = (nnz_out * ventry).min(band_bytes).max(u64::from(nnz > 0) * ventry);
            Landed { ops, retrieve, ..Landed::default() }
        };
        let launched = match &self.data {
            SpmspvData::Coo(parts) => {
                let evals = par_map_indexed(parts, |_, p| {
                    let (mut local, mut ops) = (vec![S::zero(); p.row_range.len()], 0);
                    let job = CooMatchedJob::<S> {
                        m: &p.matrix,
                        x,
                        local_y: &mut local,
                        tasklets,
                        ops: &mut ops,
                    };
                    (acc.evaluate_job(p.part, job), (local, ops))
                });
                let load = broadcast(parts.iter().filter(|p| !p.row_range.is_empty()).count());
                launch(sys, acc, evals, load, MergeModel::None, |part, (mut local, ops), guard| {
                    let p = &parts[part];
                    if let Some(guard) = guard {
                        guard.admit_band::<S>(p.part, p.row_range.start, &mut local);
                    }
                    land_matched(&p.row_range, &local, ops, p.matrix.nnz())
                })
            }
            SpmspvData::Csr(bands) => {
                let evals = par_map_indexed(bands, |part, b| {
                    let (mut local, mut ops) = (vec![S::zero(); b.rows.len()], 0);
                    let job = CsrMatchedJob::<S> {
                        m: &b.matrix,
                        x,
                        local_y: &mut local,
                        tasklets,
                        ops: &mut ops,
                    };
                    (acc.evaluate_job(part as u32, job), (local, ops))
                });
                let load = broadcast(bands.iter().filter(|b| !b.rows.is_empty()).count());
                launch(sys, acc, evals, load, MergeModel::None, |part, (mut local, ops), guard| {
                    let b = &bands[part];
                    if let Some(guard) = guard {
                        guard.admit_band::<S>(part as u32, b.rows.start, &mut local);
                    }
                    land_matched(&b.rows, &local, ops, b.matrix.nnz())
                })
            }
            // CSC-R: row bands, full compressed vector broadcast,
            // active-column traversal, shared-WRAM output under mutexes.
            SpmspvData::CscR(bands) => {
                let entries: Vec<(u32, S::Elem)> = x.iter().collect();
                let init = BandScratch::<S>::default;
                let evals = par_map_indexed_with(bands, init, |scratch, part, b| {
                    scratch.run(&acc, part as u32, &b.matrix, b.rows.len(), &entries, sys)
                });
                let load = broadcast(bands.iter().filter(|b| !b.rows.is_empty()).count());
                launch(sys, acc, evals, load, MergeModel::None, |part, (mut pairs, ops), guard| {
                    let b = &bands[part];
                    let band = b.rows.len();
                    if let Some(guard) = guard {
                        guard.admit_pairs::<S>(part as u32, b.rows.start, band, &mut pairs);
                    }
                    let retrieve = (pairs.len() as u64 * ventry).min(band as u64 * eb as u64);
                    // Row bands are disjoint: every pair lands on a `y`
                    // slot no other band writes.
                    for (r, v) in pairs {
                        y[(b.rows.start + r) as usize] = v;
                    }
                    Landed { ops, retrieve, ..Landed::default() }
                })
            }
            // CSC-C: column bands, segmented vector scatter, full-length
            // partial outputs compressed on the DPU and merged on the host.
            SpmspvData::CscC(bands) => {
                let wram_bytes = sys.config().wram_bytes;
                let evals = par_map_indexed(bands, |part, b| {
                    let seg = x.slice_range(b.cols.start, b.cols.end);
                    let entries: Vec<(u32, S::Elem)> = seg.iter().collect();
                    let mut partial: HashMap<u32, S::Elem> = HashMap::new();
                    let mut ops = 0u64;
                    let job = CscActiveJob::<S> {
                        m: &b.matrix,
                        x_entries: &entries,
                        // Output band is the whole vector: never fits WRAM.
                        band_bytes: u64::MAX,
                        wram_bytes,
                        tasklets,
                        apply: &mut |r, contrib| {
                            let slot = partial.entry(r).or_insert_with(S::zero);
                            *slot = S::add(*slot, contrib);
                        },
                        ops: &mut ops,
                    };
                    let eval = acc.evaluate_job(part as u32, job);
                    (eval, (partial, seg.compressed_bytes(eb as usize) as u64, ops))
                });
                launch(sys, acc, evals, LoadModel::Scatter, merge_entries, |part, out, guard| {
                    let (mut partial, seg_bytes, ops) = out;
                    if let Some(guard) = guard {
                        guard.admit_map::<S>(part as u32, &mut partial);
                    }
                    let merged = partial.len() as u64;
                    let retrieve = (merged * ventry).min(self.n as u64 * eb as u64);
                    // Distinct keys touch distinct `y` slots, so the map's
                    // iteration order cannot affect the result.
                    for (r, v) in partial {
                        y[r as usize] = S::add(y[r as usize], v);
                    }
                    Landed { ops, load: seg_bytes, retrieve, merged }
                })
            }
            // CSC-2D: tiles with segmented inputs and banded outputs — the
            // best overall SpMSpV (§6.1).
            SpmspvData::Csc2d(tiles) => {
                let (x_idx, x_vals) = (x.indices(), x.values());
                let init = || (BandScratch::<S>::default(), Vec::new());
                let evals = par_map_indexed_with(tiles, init, |(scratch, segment), part, t| {
                    // The tile's input segment, re-based to its first column.
                    let lo = x_idx.partition_point(|&i| i < t.cols.start);
                    let hi = lo + x_idx[lo..].partition_point(|&i| i < t.cols.end);
                    let seg = x_idx[lo..hi].iter().zip(&x_vals[lo..hi]);
                    segment.clear();
                    segment.extend(seg.map(|(&i, &v)| (i - t.cols.start, v)));
                    let (eval, (pairs, ops)) =
                        scratch.run(&acc, part as u32, &t.matrix, t.rows.len(), segment, sys);
                    (eval, (pairs, segment.len() as u64 * ventry, ops))
                });
                // Tiles sharing a grid row overlap in `y`; the launch lands
                // them in tile order, keeping the cross-tile reduction
                // identical to a sequential run.
                launch(sys, acc, evals, LoadModel::Scatter, merge_entries, |part, out, guard| {
                    let (mut pairs, seg_bytes, ops) = out;
                    let t = &tiles[part];
                    if let Some(guard) = guard {
                        guard.admit_pairs::<S>(part as u32, t.rows.start, t.rows.len(), &mut pairs);
                    }
                    let merged = pairs.len() as u64;
                    let retrieve = (merged * ventry).min(t.rows.len() as u64 * eb as u64);
                    for (r, v) in pairs {
                        let g = (t.rows.start + r) as usize;
                        y[g] = S::add(y[g], v);
                    }
                    Landed { ops, load: seg_bytes, retrieve, merged }
                })
            }
        };
        Ok(IterationOutcome::new(y, launched))
    }
}

/// Binary-search cost of matching one matrix entry against the compressed
/// input vector, with the top tree levels cached in WRAM.
fn record_search<R: Record>(trace: &mut R, x_nnz: u64, cached_entries: u64) {
    let probes = search_probes(x_nnz);
    let cached = search_probes(cached_entries);
    trace.compute(InstrClass::Arith, 2 * probes + 2);
    trace.compute(InstrClass::Control, probes);
    for _ in 0..probes.saturating_sub(cached) {
        trace.dma(8);
    }
}

/// COO SpMSpV worker: stream the band's entries coarse-grained and match
/// each against `x`.
struct CooMatchedJob<'a, S: Semiring> {
    m: &'a Coo<S::Elem>,
    x: &'a SparseVector<S::Elem>,
    local_y: &'a mut [S::Elem],
    tasklets: u32,
    ops: &'a mut u64,
}

impl<S: Semiring> DpuJob for CooMatchedJob<'_, S> {
    fn record<R: Record + Clone>(self, proto: &R) -> Vec<R> {
        let CooMatchedJob { m, x, local_y, tasklets, ops } = self;
        // Zero-length band (`parts > n`): a true no-op — no kernel launch, no
        // events, no fault site.
        if local_y.is_empty() {
            return Vec::new();
        }
        let entry_bytes = coo_entry_bytes(S::elem_bytes());
        let per_chunk = (CHUNK_BYTES / entry_bytes).max(1) as usize;
        let ranges = tasklet_ranges(m.nnz(), tasklets);
        let (rows, cols, vals) = (m.rows(), m.cols(), m.vals());
        let mut traces = Vec::with_capacity(tasklets as usize);
        for range in ranges {
            let mut t = proto.clone();
            tasklet_prologue(&mut t);
            let mut out = BlockedOutput::new(S::elem_bytes());
            let mut idx = range.start;
            while idx < range.end {
                let chunk_end = (idx + per_chunk).min(range.end);
                t.dma((chunk_end - idx) as u32 * entry_bytes);
                t.compute(InstrClass::Control, CHUNK_OVERHEAD);
                for e in idx..chunk_end {
                    edge_base_cost(&mut t);
                    record_search(&mut t, x.nnz() as u64, SEARCH_CACHE_ENTRIES);
                    if let Some(xv) = x.get(cols[e]) {
                        S::mul_cost().record(&mut t);
                        let contrib = S::mul(vals[e], xv);
                        out.update::<S, R>(local_y, rows[e], contrib, &mut t);
                        *ops += 2;
                    }
                }
                idx = chunk_end;
            }
            out.flush(&mut t);
            t.barrier();
            traces.push(t);
        }
        traces
    }
}

/// CSR SpMSpV worker: equal-row tasklet splitting, per-row pointer and
/// element transfers (fine-grained DMA), per-element binary search with a
/// smaller WRAM cache — deliberately the paper's worst performer.
struct CsrMatchedJob<'a, S: Semiring> {
    m: &'a Csr<S::Elem>,
    x: &'a SparseVector<S::Elem>,
    local_y: &'a mut [S::Elem],
    tasklets: u32,
    ops: &'a mut u64,
}

impl<S: Semiring> DpuJob for CsrMatchedJob<'_, S> {
    fn record<R: Record + Clone>(self, proto: &R) -> Vec<R> {
        let CsrMatchedJob { m, x, local_y, tasklets, ops } = self;
        // Zero-length band (`parts > n`): a true no-op, see `CooMatchedJob`.
        if local_y.is_empty() {
            return Vec::new();
        }
        let ranges = tasklet_ranges(m.n_rows() as usize, tasklets);
        let elem_dma = vec_entry_bytes(S::elem_bytes()).max(8);
        let mut traces = Vec::with_capacity(tasklets as usize);
        for range in ranges {
            let mut t = proto.clone();
            tasklet_prologue(&mut t);
            for r in range {
                // Row pointer pair fetch.
                t.dma(8);
                t.compute(InstrClass::Control, 2);
                let (row_cols, row_vals) = m.row(r as u32);
                let mut acc = S::zero();
                for (&c, &v) in row_cols.iter().zip(row_vals) {
                    t.dma(elem_dma);
                    edge_base_cost(&mut t);
                    record_search(&mut t, x.nnz() as u64, 16);
                    if let Some(xv) = x.get(c) {
                        S::mul_cost().record(&mut t);
                        S::add_cost().record(&mut t);
                        acc = S::add(acc, S::mul(v, xv));
                        *ops += 2;
                    }
                }
                if !S::is_zero(&acc) {
                    t.dma(8);
                    t.compute(InstrClass::LoadStore, 1);
                    local_y[r] = acc;
                }
            }
            t.barrier();
            traces.push(t);
        }
        traces
    }
}

/// A partition's non-zero outputs as `(local row, value)` pairs in
/// ascending row order.
type RowPairs<V> = Vec<(u32, V)>;

/// Per-worker scratch of the row-banded CSC variants (CSC-R bands and
/// CSC-2D tiles), lent by the pool to every partition one worker runs in a
/// launch. Between partitions every accumulator holds the semiring zero
/// and no row is marked, so a partition costs host work in proportion to
/// the rows it touches rather than to its band.
struct BandScratch<S: Semiring> {
    /// Row accumulators, grown to the longest band seen so far.
    acc: Vec<S::Elem>,
    /// One bit per row, set once the current partition accumulates into it.
    touched: Vec<u64>,
}

impl<S: Semiring> Default for BandScratch<S> {
    fn default() -> Self {
        BandScratch { acc: Vec::new(), touched: Vec::new() }
    }
}

impl<S: Semiring> BandScratch<S> {
    /// Runs DPU `dpu`'s partition of `band` output rows against its input
    /// `entries`. Returns the partition's evaluation with its output pairs
    /// and its useful operations.
    fn run(
        &mut self,
        acc: &KernelAccumulator,
        dpu: u32,
        m: &Dcsc<S::Elem>,
        band: usize,
        entries: &[(u32, S::Elem)],
        sys: &PimSystem,
    ) -> (DpuEval, (RowPairs<S::Elem>, u64)) {
        let words = band.div_ceil(64);
        if self.acc.len() < band {
            self.acc.resize(band, S::zero());
        }
        if self.touched.len() < words {
            self.touched.resize(words, 0);
        }
        let (sums, touched) = (&mut self.acc, &mut self.touched);
        let mut rows = 0usize;
        let mut ops = 0u64;
        let job = CscActiveJob::<S> {
            m,
            x_entries: entries,
            band_bytes: band as u64 * S::elem_bytes() as u64,
            wram_bytes: sys.config().wram_bytes,
            tasklets: sys.config().tasklets_per_dpu,
            apply: &mut |r, contrib| {
                let (word, bit) = (r as usize / 64, 1u64 << (r % 64));
                if touched[word] & bit == 0 {
                    touched[word] |= bit;
                    rows += 1;
                }
                sums[r as usize] = S::add(sums[r as usize], contrib);
            },
            ops: &mut ops,
        };
        let eval = acc.evaluate_job(dpu, job);
        // Walk the marks in row order, handing out the non-zero rows and
        // resetting each touched row for the next partition. A row whose
        // contributions summed to the semiring zero yields no pair, just
        // as a dense band would count it in no output.
        let mut pairs = Vec::with_capacity(rows);
        if rows > 0 {
            for (w, word) in touched[..words].iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let r = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let v = std::mem::replace(&mut sums[r], S::zero());
                    if !S::is_zero(&v) {
                        pairs.push((r as u32, v));
                    }
                }
            }
        }
        (eval, (pairs, ops))
    }
}

/// The reserved mutex protecting the dynamic column work queue.
const QUEUE_MUTEX: u16 = crate::kernel::layout::DATA_MUTEXES;

/// Decoding one input entry's column pointers, charged for every entry
/// whether or not its column holds any.
const COLUMN_DECODE: [(InstrClass, u32); 2] = [(InstrClass::Arith, 3), (InstrClass::Control, 2)];

/// CSC SpMSpV worker shared by CSC-R, CSC-C, and CSC-2D.
///
/// Tasklets pull *chunks of active columns* from a shared work queue
/// (the thread-level workload balancing of §4.1.2): each dequeue takes the
/// queue mutex, so at low input density — many dequeues per unit of useful
/// work — synchronization dominates the instruction mix and contention
/// spins pile up, while at high density larger chunks amortize the queue
/// traffic (the Fig 11 effect). Column contributions are applied to the
/// output band under one stripe mutex per column when the band fits in
/// shared WRAM, or through the per-tasklet blocked MRAM cache otherwise.
struct CscActiveJob<'a, S: Semiring> {
    m: &'a Dcsc<S::Elem>,
    x_entries: &'a [(u32, S::Elem)],
    band_bytes: u64,
    wram_bytes: u32,
    tasklets: u32,
    apply: &'a mut dyn FnMut(u32, S::Elem),
    ops: &'a mut u64,
}

impl<S: Semiring> DpuJob for CscActiveJob<'_, S> {
    fn record<R: Record + Clone>(self, proto: &R) -> Vec<R> {
        let CscActiveJob { m, x_entries, band_bytes, wram_bytes, tasklets, apply, ops } = self;
        // Structurally empty partition: a zero-length row band (`band_bytes ==
        // 0`) or a zero-width column band (no matrix entries and no input
        // segment). Nothing resides on the DPU, so no kernel is launched and
        // no events, cycles, or fault sites may appear.
        if m.nnz() == 0 && (band_bytes == 0 || x_entries.is_empty()) {
            return Vec::new();
        }
        let eb = S::elem_bytes();
        let ventry = vec_entry_bytes(eb);
        // The shared-WRAM accumulator needs the whole band plus streaming room.
        let shared_wram = band_bytes <= (wram_bytes as u64 * 3) / 4;
        // Dynamic chunking: enough chunks for balance, large enough to
        // amortize queue synchronization when the frontier is dense.
        let chunk_cols = (x_entries.len() / (tasklets as usize * 2)).max(1);
        // A buffered shared-WRAM update costs the same DMA-free
        // instructions for every entry, so each active column's entries
        // are recorded as one run.
        let entry_cost = {
            let staging = [(InstrClass::LoadStore, 2)];
            [&EDGE_BASE[..], &S::mul_cost().blocks(), &staging].concat()
        };
        let mut traces: Vec<R> = (0..tasklets as usize)
            .map(|_| {
                let mut t = proto.clone();
                tasklet_prologue(&mut t);
                if shared_wram {
                    // Tasklet-parallel zeroing of the shared accumulator
                    // (64-bit stores cover two elements each).
                    let share = (band_bytes / 2 / tasklets.max(1) as u64 / eb as u64) as u32;
                    t.compute(InstrClass::LoadStore, share.min(1 << 20));
                    t.barrier();
                }
                t
            })
            .collect();
        let mut blocked: Vec<BlockedOutput> =
            (0..tasklets as usize).map(|_| BlockedOutput::new(eb)).collect();
        let meets: Vec<(usize, usize)> = m.meets(x_entries).collect();
        let (mut pending, mut next_col) = (&meets[..], 0);
        // Deterministic round-robin stands in for the dynamic queue order.
        for (ci, chunk) in x_entries.chunks(chunk_cols).enumerate() {
            let tid = ci % tasklets as usize;
            let t = &mut traces[tid];
            let (start, end) = (ci * chunk_cols, ci * chunk_cols + chunk.len());
            let (hits, rest) = pending.split_at(gallop(pending, |&(p, _)| p < end));
            pending = rest;
            // Dequeue: grab the next chunk descriptor under the queue mutex.
            t.mutex_lock(QUEUE_MUTEX);
            t.compute(InstrClass::LoadStore, 2);
            t.mutex_unlock(QUEUE_MUTEX);
            // Stream the chunk's input entries and batch-fetch column pointers.
            t.dma(chunk.len() as u32 * ventry);
            t.dma(chunk.len() as u32 * 8);
            t.compute(InstrClass::Control, CHUNK_OVERHEAD);
            // When the active columns are dense enough, their CSC data is
            // nearly contiguous: stream the whole span once instead of issuing
            // one small DMA per column (§4.1.3 — SpMSpV's accesses are "more
            // localized than in SpMV"). Sparse frontiers fall back to
            // per-column fetches and stay DMA-latency-bound.
            let first_col = chunk.first().map(|&(j, _)| j).unwrap_or(0);
            let last_col = chunk.last().map(|&(j, _)| j).unwrap_or(0);
            let useful_entries: usize = hits.iter().map(|&(_, k)| m.col(k).0.len()).sum();
            let span_entries = if useful_entries == 0 {
                0
            } else {
                let span = m.col_span(next_col, first_col, last_col);
                next_col = span.end;
                m.span_entries(span)
            };
            let span_streamed = useful_entries > 0 && span_entries <= 2 * useful_entries;
            if span_streamed {
                t.dma_stream(span_entries as u64 * ventry as u64, CHUNK_BYTES, CHUNK_OVERHEAD);
            }
            // Per-stripe update counts buffered over this chunk (§4.1.3:
            // partial results for the same output rows are buffered in WRAM
            // and merged under one stripe mutex per chunk).
            let mut stripe_updates = [0u32; crate::kernel::layout::DATA_MUTEXES as usize];
            // Every input entry decodes its column; an empty column ends
            // there, so the entries up to each hit decode as one run.
            let mut decoded = start;
            for &(p, k) in hits {
                t.compute_repeated(&COLUMN_DECODE, (p + 1 - decoded) as u64);
                decoded = p + 1;
                let xv = x_entries[p].1;
                let (col_rows, col_vals) = m.col(k);
                if !span_streamed {
                    let bytes = col_rows.len() as u64 * ventry as u64;
                    t.dma_stream(bytes, CHUNK_BYTES, CHUNK_OVERHEAD);
                }
                if shared_wram {
                    // Buffer into the tasklet-private WRAM staging area.
                    t.compute_repeated(&entry_cost, col_rows.len() as u64);
                }
                for (&r, &v) in col_rows.iter().zip(col_vals) {
                    if shared_wram {
                        stripe_updates[mutex_for(r) as usize] += 1;
                    } else {
                        edge_base_cost(t);
                        S::mul_cost().record(t);
                        blocked[tid].touch::<S, R>(r, t);
                    }
                    apply(r, S::mul(v, xv));
                }
                *ops += 2 * col_rows.len() as u64;
            }
            t.compute_repeated(&COLUMN_DECODE, (end - decoded) as u64);
            if shared_wram {
                // Merge the chunk's buffered contributions into the shared
                // accumulator, one stripe mutex per touched stripe.
                for (stripe, &count) in stripe_updates.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    t.mutex_lock(stripe as u16);
                    t.compute(InstrClass::LoadStore, 2 * count);
                    t.compute_repeated(&S::add_cost().blocks(), count as u64);
                    t.mutex_unlock(stripe as u16);
                }
            }
        }
        for (tid, t) in traces.iter_mut().enumerate() {
            // Work-stealing termination: one final empty-queue poll.
            t.mutex_lock(QUEUE_MUTEX);
            t.compute(InstrClass::LoadStore, 1);
            t.mutex_unlock(QUEUE_MUTEX);
            if shared_wram {
                // Write the shared accumulator band back to MRAM in parallel.
                let share = band_bytes / tasklets as u64;
                t.dma_stream(share, CHUNK_BYTES, CHUNK_OVERHEAD);
            } else {
                blocked[tid].flush(t);
            }
            t.barrier();
        }
        traces
    }

    /// A partition whose input segment meets none of its non-empty columns
    /// records only queue, decode and band traffic, which its band, the
    /// segment's length and whether it holds any entry decide.
    fn reuse_key(&self) -> Option<ReuseKey> {
        let idle = self.m.meets(self.x_entries).next().is_none();
        idle.then_some((self.band_bytes, self.x_entries.len() as u64, self.m.nnz() == 0))
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

    /// Reference multiply restricted to the sparse input's entries.
    fn reference<S: Semiring>(m: &Coo<S::Elem>, x: &SparseVector<S::Elem>) -> Vec<S::Elem> {
        let dense = x.to_dense(S::zero());
        let mut y = vec![S::zero(); m.n_rows() as usize];
        for (r, c, v) in m.iter() {
            if !S::is_zero(&dense[c as usize]) {
                y[r as usize] = S::add(y[r as usize], S::mul(v, dense[c as usize]));
            }
        }
        y
    }

    fn sample_matrix() -> Coo<u32> {
        alpha_pim_sparse::gen::erdos_renyi(80, 700, 13).unwrap()
    }

    fn sample_x<S: Semiring>(n: usize, stride: u32) -> SparseVector<S::Elem> {
        let idx: Vec<u32> = (0..n as u32).filter(|i| i % stride == 0).collect();
        let vals: Vec<S::Elem> = idx.iter().map(|&i| S::from_weight(i % 7 + 1)).collect();
        SparseVector::from_pairs(n, idx, vals).unwrap()
    }

    /// A seeded `n × n` matrix with empty rows and columns and repeated
    /// `(row, col)` entries; each value is its COO position, so the
    /// entries' order shows in the values.
    fn duplicated_matrix(seed: u64, n: u32) -> Coo<u32> {
        let mut rng = alpha_pim_sparse::gen::rng::SplitMix64::new(seed);
        let live = |i: u32| i % 5 != 2 && i % 7 != 3;
        let lines: Vec<u32> = (0..n).filter(|&i| live(i)).collect();
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for _ in 0..(n * 3) {
            let r = lines[rng.usize_below(lines.len())];
            let c = lines[rng.usize_below(lines.len())];
            entries.push((r, c));
            if rng.u32_below(4) == 0 {
                entries.push((r, c));
            }
            if rng.u32_below(6) == 0 {
                entries.push(entries[rng.usize_below(entries.len())]);
            }
        }
        Coo::from_entries(n, n, entries.into_iter().zip(0..).map(|((r, c), v)| (r, c, v))).unwrap()
    }

    #[test]
    fn hypersparse_layout_keeps_every_entry_in_csc_order() {
        for seed in 0..24u64 {
            let coo = duplicated_matrix(seed, 20 + seed as u32 * 3);
            let (dcsc, csc) = (Dcsc::from_coo(&coo).unwrap(), coo.to_csc());
            assert_eq!(dcsc.nnz(), coo.nnz(), "seed {seed}");
            assert_eq!(dcsc.offsets.len(), dcsc.cols.len() + 1, "seed {seed}");
            assert!(dcsc.cols.windows(2).all(|w| w[0] < w[1]), "seed {seed}: columns ascend");
            let mut seen = vec![false; coo.nnz()];
            let mut k = 0;
            for c in 0..csc.n_cols() {
                if csc.col_nnz(c) == 0 {
                    continue;
                }
                assert_eq!(dcsc.cols[k], c, "seed {seed}: only non-empty columns, all of them");
                assert_eq!(dcsc.col(k), csc.col(c), "seed {seed} column {c}");
                for &v in dcsc.col(k).1 {
                    assert!(!std::mem::replace(&mut seen[v as usize], true), "seed {seed}");
                }
                k += 1;
            }
            assert_eq!(k, dcsc.cols.len(), "seed {seed}");
            assert!(seen.iter().all(|&s| s), "seed {seed}: every entry appears once");
            let (first, last) = (3, coo.n_cols() - 4);
            let span: usize = (first..=last).map(|c| csc.col_nnz(c)).sum();
            let cols = dcsc.col_span(0, first, last);
            assert_eq!(dcsc.span_entries(cols.clone()), span, "seed {seed}");
            assert_eq!(dcsc.col_span(cols.start, first, last), cols, "seed {seed}");
            // Segments from every column down to a sparse few meet
            // exactly the non-empty columns they name.
            for stride in [1, 2, 5, 17] {
                let entries: Vec<(u32, ())> = (seed as u32 % stride..coo.n_cols())
                    .step_by(stride as usize)
                    .map(|j| (j, ()))
                    .collect();
                let naive: Vec<(usize, usize)> = entries
                    .iter()
                    .enumerate()
                    .filter_map(|(p, &(j, _))| Some((p, dcsc.cols.binary_search(&j).ok()?)))
                    .collect();
                assert_eq!(dcsc.meets(&entries).collect::<Vec<_>>(), naive, "seed {seed}");
            }
        }
    }

    /// `M ⊗ x` summed as the CSC kernels sum it: each partition over its
    /// entries in [`alpha_pim_sparse::Csc::from_coo`] order, then the
    /// partitions' non-zero partial sums in partition order.
    fn partitioned_reference<S: Semiring>(
        parts: Vec<(u32, u32, Coo<S::Elem>)>,
        x: &SparseVector<S::Elem>,
    ) -> Vec<S::Elem> {
        let dense = x.to_dense(S::zero());
        let mut y = vec![S::zero(); x.len()];
        for (row0, col0, m) in parts {
            let mut partial = vec![S::zero(); m.n_rows() as usize];
            for (r, c, v) in m.to_csc().iter() {
                let xv = dense[(col0 + c) as usize];
                if !S::is_zero(&xv) {
                    partial[r as usize] = S::add(partial[r as usize], S::mul(v, xv));
                }
            }
            for (r, v) in partial.into_iter().enumerate().filter(|(_, v)| !S::is_zero(v)) {
                let g = row0 as usize + r;
                y[g] = S::add(y[g], v);
            }
        }
        y
    }

    #[test]
    fn csc_variants_pin_the_f32_accumulation_order_with_duplicates() {
        let n = 96;
        let m = duplicated_matrix(7, n).map(|v| 0.013 * (v % 97) as f32 + 0.001);
        let idx: Vec<u32> = (0..n).filter(|i| i % 3 != 1).collect();
        let vals: Vec<f32> = idx.iter().map(|&i| 1.0 / (i as f32 + 3.0)).collect();
        let x = SparseVector::from_pairs(n as usize, idx, vals).unwrap();
        let sys = system(6);
        let d = sys.num_dpus();
        let rows = partition_rows(&m, d, Balance::Nnz).unwrap();
        let cols = partition_cols(&m, d, Balance::Nnz).unwrap();
        let (gr, gc) = near_square_grid(d);
        let grid = partition_grid(&m, gr, gc).unwrap();
        let cases = [
            (
                SpmspvVariant::CscR,
                rows.into_iter().map(|p| (p.row_range.start, 0, p.matrix)).collect(),
            ),
            (
                SpmspvVariant::CscC,
                cols.into_iter().map(|p| (0, p.col_range.start, p.matrix)).collect(),
            ),
            (
                SpmspvVariant::Csc2d,
                grid.tiles
                    .into_iter()
                    .map(|t| (t.row_range.start, t.col_range.start, t.matrix))
                    .collect(),
            ),
        ];
        for (variant, parts) in cases {
            let expect = partitioned_reference::<PlusTimes>(parts, &x);
            let prep = PreparedSpmspv::<PlusTimes>::prepare(&m, variant, &sys).unwrap();
            let got = prep.run(&x, &sys).unwrap();
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.y.values()), bits(&expect), "variant {variant}");
        }
    }

    #[test]
    fn all_variants_compute_the_same_product_bool() {
        let m = sample_matrix().map(BoolOrAnd::from_weight);
        let sys = system(6);
        let x = sample_x::<BoolOrAnd>(80, 3);
        let expect = reference::<BoolOrAnd>(&m, &x);
        for variant in SpmspvVariant::ALL {
            let prep = PreparedSpmspv::<BoolOrAnd>::prepare(&m, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            assert_eq!(out.y.values(), expect.as_slice(), "variant {variant}");
        }
    }

    #[test]
    fn all_variants_compute_the_same_product_minplus() {
        let m = sample_matrix().map(MinPlus::from_weight);
        let sys = system(5);
        let x = sample_x::<MinPlus>(80, 4);
        let expect = reference::<MinPlus>(&m, &x);
        for variant in SpmspvVariant::ALL {
            let prep = PreparedSpmspv::<MinPlus>::prepare(&m, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            assert_eq!(out.y.values(), expect.as_slice(), "variant {variant}");
        }
    }

    #[test]
    fn csc2d_matches_reference_float() {
        let m = sample_matrix().map(PlusTimes::from_weight);
        let sys = system(4);
        let x = sample_x::<PlusTimes>(80, 2);
        let expect = reference::<PlusTimes>(&m, &x);
        let prep = PreparedSpmspv::<PlusTimes>::prepare(&m, SpmspvVariant::Csc2d, &sys).unwrap();
        let out = prep.run(&x, &sys).unwrap();
        for (a, b) in out.y.values().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_input_vector_produces_zero_output() {
        let m = sample_matrix().map(BoolOrAnd::from_weight);
        let sys = system(4);
        let x = SparseVector::new(80);
        for variant in SpmspvVariant::ALL {
            let prep = PreparedSpmspv::<BoolOrAnd>::prepare(&m, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            assert_eq!(out.output_nnz, 0, "variant {variant}");
            assert_eq!(out.useful_ops, 0, "variant {variant}");
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let m = sample_matrix().map(BoolOrAnd::from_weight);
        let sys = system(4);
        let prep = PreparedSpmspv::<BoolOrAnd>::prepare(&m, SpmspvVariant::Csc2d, &sys).unwrap();
        let x = SparseVector::one_hot(40, 0, 1u32);
        assert!(matches!(prep.run(&x, &sys), Err(AlphaPimError::Dimension { .. })));
    }

    #[test]
    fn csc_variants_do_work_proportional_to_frontier() {
        // The defining SpMSpV property (§4.1): active-column traversal
        // means sparser inputs do fewer operations.
        let m = sample_matrix().map(BoolOrAnd::from_weight);
        let sys = system(4);
        let prep = PreparedSpmspv::<BoolOrAnd>::prepare(&m, SpmspvVariant::Csc2d, &sys).unwrap();
        let sparse = prep.run(&sample_x::<BoolOrAnd>(80, 16), &sys).unwrap();
        let dense = prep.run(&sample_x::<BoolOrAnd>(80, 1), &sys).unwrap();
        assert!(sparse.useful_ops < dense.useful_ops / 4);
        assert!(sparse.phases.kernel < dense.phases.kernel);
    }

    #[test]
    fn csr_is_the_slowest_variant() {
        // §6.1: CSR consistently underperforms the other SpMSpV formats.
        let m = alpha_pim_sparse::gen::rmat(9, 8, Default::default(), 3)
            .unwrap()
            .map(BoolOrAnd::from_weight);
        let n = m.n_rows() as usize;
        let sys = PimSystem::new(PimConfig {
            num_dpus: 32,
            fidelity: SimFidelity::Sampled(8),
            ..Default::default()
        })
        .unwrap();
        let idx: Vec<u32> = (0..n as u32).filter(|i| i % 10 == 0).collect();
        let vals = vec![1u32; idx.len()];
        let x = SparseVector::from_pairs(n, idx, vals).unwrap();
        let mut times = std::collections::HashMap::new();
        for variant in SpmspvVariant::ALL {
            let prep = PreparedSpmspv::<BoolOrAnd>::prepare(&m, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            times.insert(variant, out.phases.total());
        }
        let csr = times[&SpmspvVariant::Csr];
        for (v, t) in &times {
            if *v != SpmspvVariant::Csr {
                assert!(csr > *t, "CSR ({csr:.6}s) should be slower than {v} ({t:.6}s)");
            }
        }
    }

    #[test]
    fn load_phase_shrinks_with_compressed_input() {
        // Fig 6: SpMSpV's compressed load beats SpMV's dense broadcast.
        let m = sample_matrix().map(BoolOrAnd::from_weight);
        let sys = system(8);
        let x_sparse = sample_x::<BoolOrAnd>(80, 8);
        let spmspv =
            PreparedSpmspv::<BoolOrAnd>::prepare(&m, SpmspvVariant::Coo, &sys).unwrap();
        let out = spmspv.run(&x_sparse, &sys).unwrap();
        let spmv = crate::kernel::spmv::PreparedSpmv::<BoolOrAnd>::prepare(
            &m,
            crate::kernel::SpmvVariant::Coo1d,
            &sys,
        )
        .unwrap();
        let dense = x_sparse.to_dense(BoolOrAnd::zero());
        let out_v = spmv.run(&dense, &sys).unwrap();
        assert!(out.phases.load < out_v.phases.load);
    }
}
