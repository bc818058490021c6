//! Instruction classes and the instruction-mix histogram (Fig 11).
//!
//! The DPU is a 32-bit RISC core; the simulator classifies issued
//! instructions into the categories the paper's instruction-mix analysis
//! reports: arithmetic, scratchpad load/store, DMA, synchronization,
//! control, and register moves. Multi-instruction emulation sequences
//! (e.g. software floating-point multiply, §6.3.1) are expanded by the
//! kernel layer into the corresponding number of `Arith`/`LoadStore`
//! instructions before reaching the pipeline.


/// Category of one issued DPU instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer ALU operations (add, sub, shift, compare, logic).
    Arith,
    /// WRAM loads and stores (single-cycle scratchpad accesses, §6.4.2).
    LoadStore,
    /// MRAM↔WRAM DMA launch instructions.
    Dma,
    /// Synchronization: mutex lock/unlock, barrier participation.
    Sync,
    /// Branches, jumps, loop control.
    Control,
    /// Register-to-register moves.
    Move,
}

impl InstrClass {
    /// All classes, in display order.
    pub const ALL: [InstrClass; 6] = [
        InstrClass::Arith,
        InstrClass::LoadStore,
        InstrClass::Dma,
        InstrClass::Sync,
        InstrClass::Control,
        InstrClass::Move,
    ];

    /// Stable index of this class within [`InstrClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            InstrClass::Arith => 0,
            InstrClass::LoadStore => 1,
            InstrClass::Dma => 2,
            InstrClass::Sync => 3,
            InstrClass::Control => 4,
            InstrClass::Move => 5,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            InstrClass::Arith => "arith",
            InstrClass::LoadStore => "load/store",
            InstrClass::Dma => "dma",
            InstrClass::Sync => "sync",
            InstrClass::Control => "control",
            InstrClass::Move => "move",
        }
    }

    /// Whether this class reads general-purpose register operands and is
    /// therefore exposed to even/odd register-file bank conflicts (§2.3.2).
    pub fn reads_registers(self) -> bool {
        matches!(self, InstrClass::Arith | InstrClass::LoadStore | InstrClass::Move)
    }
}

impl std::fmt::Display for InstrClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Histogram of issued instructions by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    counts: [u64; 6],
}

impl InstrMix {
    /// An empty histogram.
    pub fn new() -> Self {
        InstrMix::default()
    }

    /// Adds `n` instructions of `class`.
    pub fn add(&mut self, class: InstrClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Count of instructions in `class`.
    pub fn count(&self, class: InstrClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total instructions across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of the total contributed by `class`, in `[0, 1]`.
    pub fn fraction(&self, class: InstrClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(class) as f64 / total as f64
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &InstrMix) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Iterates `(class, count)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (InstrClass, u64)> + '_ {
        InstrClass::ALL.iter().map(move |&c| (c, self.count(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in InstrClass::ALL {
            assert!(seen.insert(c.index()));
            assert_eq!(InstrClass::ALL[c.index()], c);
        }
    }

    #[test]
    fn mix_accumulates_and_fractions() {
        let mut mix = InstrMix::new();
        mix.add(InstrClass::Arith, 30);
        mix.add(InstrClass::Sync, 10);
        assert_eq!(mix.total(), 40);
        assert!((mix.fraction(InstrClass::Sync) - 0.25).abs() < 1e-12);
        assert_eq!(mix.fraction(InstrClass::Dma), 0.0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = InstrMix::new();
        a.add(InstrClass::Control, 5);
        let mut b = InstrMix::new();
        b.add(InstrClass::Control, 7);
        b.add(InstrClass::Move, 1);
        a.merge(&b);
        assert_eq!(a.count(InstrClass::Control), 12);
        assert_eq!(a.count(InstrClass::Move), 1);
    }

    #[test]
    fn empty_mix_has_zero_fraction() {
        assert_eq!(InstrMix::new().fraction(InstrClass::Arith), 0.0);
    }

    #[test]
    fn register_reading_classes_are_flagged() {
        assert!(InstrClass::Arith.reads_registers());
        assert!(!InstrClass::Sync.reads_registers());
        assert!(!InstrClass::Dma.reads_registers());
    }
}
