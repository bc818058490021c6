//! Shared kernel machinery: per-edge cost constants, WRAM output
//! accumulation models, and tasklet work splitting.
//!
//! Two output-update models mirror how real UPMEM kernels manage the
//! WRAM-resident output (§4.1.3):
//!
//! * [`shared_update`] — the output band fits in shared WRAM, so tasklets
//!   update it in place under fine-grained mutexes (the CSC kernels; this
//!   is where the paper's sync overheads at low density come from);
//! * [`BlockedOutput`] — the output band is too large for WRAM, so each
//!   tasklet caches one block at a time, merging dirty blocks back to MRAM
//!   under a mutex (the SpMV and CSC-C kernels).

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::trace::Record;

use crate::semiring::Semiring;

/// Streaming DMA chunk size (one WRAM buffer per tasklet).
pub(crate) const CHUNK_BYTES: u32 = 1024;
/// Loop bookkeeping instructions per streamed chunk.
pub(crate) const CHUNK_OVERHEAD: u32 = 3;
/// Per-tasklet kernel prologue cost (argument unpacking, range setup).
pub(crate) const SETUP_ARITH: u32 = 24;
/// Per-tasklet prologue control instructions.
pub(crate) const SETUP_CONTROL: u32 = 12;
/// Index/address arithmetic per matrix entry.
pub(crate) const EDGE_ARITH: u32 = 4;
/// WRAM reads of one matrix entry's fields.
pub(crate) const EDGE_LOADSTORE: u32 = 2;
/// Loop control per matrix entry.
pub(crate) const EDGE_CONTROL: u32 = 2;
/// Hardware mutexes available to a kernel.
pub(crate) const NUM_MUTEXES: u16 = 16;
/// Mutexes striping the output (the last one is reserved for the dynamic
/// work queue).
pub(crate) const DATA_MUTEXES: u16 = NUM_MUTEXES - 1;
/// Bytes of one cached output block in [`BlockedOutput`] mode.
pub(crate) const OUTPUT_BLOCK_BYTES: u32 = 2048;
/// Entries of the compressed input vector whose top binary-search levels
/// are cached in WRAM by the COO/CSR SpMSpV kernels.
pub(crate) const SEARCH_CACHE_ENTRIES: u64 = 256;

/// Bytes of one COO entry in MRAM: row + column + value.
pub(crate) fn coo_entry_bytes(elem_bytes: u32) -> u32 {
    8 + elem_bytes
}

/// Bytes of one compressed-vector or compressed-column entry: index + value.
pub(crate) fn vec_entry_bytes(elem_bytes: u32) -> u32 {
    4 + elem_bytes
}

/// Records the per-tasklet kernel prologue.
pub(crate) fn tasklet_prologue<R: Record>(trace: &mut R) {
    trace.compute(InstrClass::Arith, SETUP_ARITH);
    trace.compute(InstrClass::Control, SETUP_CONTROL);
}

/// The base per-entry decode/loop cost, as compute blocks.
pub(crate) const EDGE_BASE: [(InstrClass, u32); 3] = [
    (InstrClass::Arith, EDGE_ARITH),
    (InstrClass::LoadStore, EDGE_LOADSTORE),
    (InstrClass::Control, EDGE_CONTROL),
];

/// Records the base per-entry decode/loop cost.
pub(crate) fn edge_base_cost<R: Record>(trace: &mut R) {
    for (class, count) in EDGE_BASE {
        trace.compute(class, count);
    }
}

/// The mutex protecting output element `r` (hashed striping over the
/// data mutexes).
pub(crate) fn mutex_for(r: u32) -> u16 {
    (r.wrapping_mul(0x9e37_79b9) >> 16) as u16 % DATA_MUTEXES
}

/// Records the timing of one shared-WRAM output update under its stripe
/// mutex (the fine-grained model used when the output band fits in WRAM).
pub(crate) fn shared_update_timing<S: Semiring, R: Record>(r: u32, trace: &mut R) {
    let m = mutex_for(r);
    trace.mutex_lock(m);
    trace.compute(InstrClass::LoadStore, 2);
    S::add_cost().record(trace);
    trace.mutex_unlock(m);
}

/// Updates a shared-WRAM output element under its stripe mutex — the
/// fine-grained model used when the output band fits in WRAM.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn shared_update<S: Semiring, R: Record>(
    y: &mut [S::Elem],
    r: u32,
    contrib: S::Elem,
    trace: &mut R,
) {
    shared_update_timing::<S, R>(r, trace);
    y[r as usize] = S::add(y[r as usize], contrib);
}

/// Per-tasklet cached-block output model for bands too large for WRAM.
///
/// Tracks which output block the tasklet currently holds; switching blocks
/// costs a dirty-block write-back (under a mutex, since blocks are shared
/// across tasklets) plus a fetch of the new block. Functional updates go
/// straight to the caller's slice; only the *timing* of the cache behaviour
/// is modeled here.
#[derive(Debug)]
pub(crate) struct BlockedOutput {
    block_elems: u32,
    block_bytes: u32,
    current: Option<u32>,
    dirty: bool,
}

impl BlockedOutput {
    /// A cache of [`OUTPUT_BLOCK_BYTES`]-sized blocks of `elem_bytes`
    /// elements.
    pub(crate) fn new(elem_bytes: u32) -> Self {
        let block_elems = (OUTPUT_BLOCK_BYTES / elem_bytes).max(1);
        BlockedOutput {
            block_elems,
            block_bytes: block_elems * elem_bytes,
            current: None,
            dirty: false,
        }
    }

    /// Records the timing of one update at row `r`, charging cache-switch
    /// costs as needed (no functional effect).
    pub(crate) fn touch<S: Semiring, R: Record>(&mut self, r: u32, trace: &mut R) {
        let block = r / self.block_elems;
        if self.current != Some(block) {
            self.flush(trace);
            trace.dma(self.block_bytes);
            trace.compute(InstrClass::Arith, 2);
            self.current = Some(block);
        }
        trace.compute(InstrClass::LoadStore, 2);
        S::add_cost().record(trace);
        self.dirty = true;
    }

    /// Applies `y[r] ⊕= contrib`, charging cache-switch costs as needed.
    pub(crate) fn update<S: Semiring, R: Record>(
        &mut self,
        y: &mut [S::Elem],
        r: u32,
        contrib: S::Elem,
        trace: &mut R,
    ) {
        self.touch::<S, R>(r, trace);
        y[r as usize] = S::add(y[r as usize], contrib);
    }

    /// Writes back the dirty block, if any. Call at tasklet end.
    ///
    /// The merge window is protected by the block's stripe mutex, but the
    /// bulk DMA traffic happens outside the critical section (double
    /// buffering), keeping hold times short.
    pub(crate) fn flush<R: Record>(&mut self, trace: &mut R) {
        if self.dirty {
            let block = self.current.expect("dirty implies a current block");
            let m = (block % DATA_MUTEXES as u32) as u16;
            trace.dma(self.block_bytes);
            trace.mutex_lock(m);
            trace.compute(InstrClass::LoadStore, 4);
            trace.mutex_unlock(m);
            trace.dma(self.block_bytes);
            self.dirty = false;
        }
    }
}

/// Splits `n` work items into per-tasklet contiguous ranges (equal count).
pub(crate) fn tasklet_ranges(n: usize, tasklets: u32) -> Vec<std::ops::Range<usize>> {
    alpha_pim_sparse::partition::equal_ranges(n as u32, tasklets)
        .into_iter()
        .map(|r| r.start as usize..r.end as usize)
        .collect()
}

/// `ceil(log2(n + 1))` — binary-search probe count over `n` entries.
pub(crate) fn search_probes(n: u64) -> u32 {
    64 - n.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::BoolOrAnd;
    use alpha_pim_sim::trace::TaskletTrace;

    #[test]
    fn mutex_striping_is_in_range() {
        for r in [0u32, 1, 17, 1000, u32::MAX] {
            assert!(mutex_for(r) < NUM_MUTEXES);
        }
    }

    #[test]
    fn shared_update_applies_semiring_add() {
        let mut y = vec![0u32; 4];
        let mut t = TaskletTrace::new();
        shared_update::<BoolOrAnd, _>(&mut y, 2, 1, &mut t);
        assert_eq!(y, vec![0, 0, 1, 0]);
        assert_eq!(t.instr_mix().count(InstrClass::Sync), 2);
    }

    #[test]
    fn blocked_output_charges_switches() {
        let mut y = vec![0u32; 4096];
        let mut t = TaskletTrace::new();
        let mut out = BlockedOutput::new(4);
        // Two updates in the same block: one fetch.
        out.update::<BoolOrAnd, _>(&mut y, 0, 1, &mut t);
        out.update::<BoolOrAnd, _>(&mut y, 1, 1, &mut t);
        let dmas_same = t.instr_mix().count(InstrClass::Dma);
        assert_eq!(dmas_same, 1);
        // Jumping to a far block: flush (2 DMAs) + fetch (1 DMA).
        out.update::<BoolOrAnd, _>(&mut y, 4000, 1, &mut t);
        assert_eq!(t.instr_mix().count(InstrClass::Dma), 4);
        out.flush(&mut t);
        assert_eq!(t.instr_mix().count(InstrClass::Dma), 6);
        assert_eq!(y[0] + y[1] + y[4000], 3);
    }

    #[test]
    fn blocked_output_flush_without_updates_is_free() {
        let mut t = TaskletTrace::new();
        BlockedOutput::new(4).flush(&mut t);
        assert!(t.is_empty());
    }

    #[test]
    fn tasklet_ranges_cover_all_items() {
        let rs = tasklet_ranges(10, 4);
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.iter().map(|r| r.len()).sum::<usize>(), 10);
    }

    #[test]
    fn search_probes_is_ceil_log2() {
        assert_eq!(search_probes(0), 0);
        assert_eq!(search_probes(1), 1);
        assert_eq!(search_probes(255), 8);
        assert_eq!(search_probes(256), 9);
    }
}
