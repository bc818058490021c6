//! Algebraic semirings — the abstraction that lets one matrix–vector
//! kernel implement many graph algorithms (§2.1, Table 1).
//!
//! A semiring generalizes `(+, ×)` to `(⊕, ⊗)`; iterating `y = Aᵀ ⊗ x`
//! under the right semiring *is* the graph algorithm:
//!
//! | Algorithm | Semiring | ⊕ | ⊗ | here |
//! |-----------|----------|---|---|------|
//! | BFS       | ({0,1}, ∨, ∧) | or | and | [`BoolOrAnd`] |
//! | SSSP      | (ℝ ∪ ∞, min, +) | min | + | [`MinPlus`] |
//! | PPR       | (ℝ, +, ×) | + | × | [`PlusTimes`] |
//!
//! Each semiring also carries the *DPU cost* of its operations
//! ([`OpCost`]): UPMEM DPUs have no floating-point unit, so `f32`
//! multiplication expands to a long software-emulation sequence — the
//! reason PPR is kernel-dominated in Fig 8.

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::trace::Record;

/// DPU instruction cost of one scalar semiring operation, by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Integer ALU instructions.
    pub arith: u32,
    /// WRAM load/store instructions.
    pub loadstore: u32,
    /// Branch/loop instructions.
    pub control: u32,
}

impl OpCost {
    /// This cost as compute blocks, in the order [`OpCost::record`]
    /// records them.
    pub fn blocks(&self) -> [(InstrClass, u32); 3] {
        [
            (InstrClass::Arith, self.arith),
            (InstrClass::LoadStore, self.loadstore),
            (InstrClass::Control, self.control),
        ]
    }

    /// Records this cost into a tasklet recorder.
    pub fn record<R: Record>(&self, trace: &mut R) {
        for (class, count) in self.blocks() {
            trace.compute(class, count);
        }
    }

    /// Total instructions.
    pub fn total(&self) -> u32 {
        self.arith + self.loadstore + self.control
    }
}

/// Which ABFT checksum family guards a semiring's partition outputs at
/// merge time (see `crate::kernel::integrity`).
///
/// Plus-times outputs admit a *linear* row-sum checksum (the classic
/// Huang–Abraham construction: the sum of the outputs equals the output of
/// the summed inputs), which is the cheapest guard. Tropical and boolean
/// semirings are not linear over their carriers, so their partitions are
/// guarded by an order-independent *fingerprint* instead: cardinality plus
/// an XOR-fold over mixed `(vertex, value)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardScheme {
    /// Running `f64` sum of element values plus a count.
    LinearSum,
    /// Cardinality + XOR-fold of `mix64(mix64(key+1) ^ elem_bits(v))`.
    Fingerprint,
}

/// An algebraic semiring over a copyable element type, with DPU costs.
///
/// Implementations must satisfy the semiring laws: `⊕` is associative and
/// commutative with identity [`Semiring::zero`]; `⊗` is associative with
/// identity [`Semiring::one`] and annihilated by zero
/// (`a ⊗ 0 = 0`). The property tests in this crate check these laws.
pub trait Semiring: Copy + Send + Sync + 'static {
    /// Element type flowing through vectors and matrices.
    type Elem: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static;

    /// Human-readable name (e.g. `"bool-or-and"`).
    const NAME: &'static str;

    /// Whether `a ⊕ a = a` (lets BFS-style traversals skip re-updates).
    const IDEMPOTENT_ADD: bool;

    /// The ⊕ identity ("no contribution").
    fn zero() -> Self::Elem;

    /// The ⊗ identity.
    fn one() -> Self::Elem;

    /// The ⊕ combiner.
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// The ⊗ combiner.
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Whether `a` is the ⊕ identity.
    fn is_zero(a: &Self::Elem) -> bool;

    /// Lifts an adjacency-matrix edge weight into the semiring.
    fn from_weight(w: u32) -> Self::Elem;

    /// Bytes per element as stored in MRAM / transferred over the bus.
    fn elem_bytes() -> u32 {
        std::mem::size_of::<Self::Elem>() as u32
    }

    /// DPU cost of one ⊕.
    fn add_cost() -> OpCost;

    /// DPU cost of one ⊗.
    fn mul_cost() -> OpCost;

    /// The element's exact bit pattern, widened to `u64` — the input to
    /// fingerprint folds. Two elements compare equal under `==` iff their
    /// bit patterns match for every carrier used here (no negative-zero
    /// ambiguity arises: kernels never produce `-0.0`).
    fn elem_bits(a: Self::Elem) -> u64;

    /// The element's numeric value as `f64`, for linear-sum checksums.
    fn elem_to_f64(a: Self::Elem) -> f64;

    /// A deterministically corrupted copy of `a`, derived from a fault
    /// plan's `pattern` draw. Guaranteed `!= a` (bitwise), finite, and
    /// within the carrier — the silent-flip injector uses this to model an
    /// undetected MRAM/DMA value flip.
    fn corrupt_elem(a: Self::Elem, pattern: u64) -> Self::Elem;

    /// Which checksum family guards this semiring's partition outputs.
    fn guard_scheme() -> GuardScheme {
        GuardScheme::Fingerprint
    }
}

/// The Boolean (∨, ∧) semiring over `{0, 1}` used by BFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BoolOrAnd;

impl Semiring for BoolOrAnd {
    type Elem = u32;
    const NAME: &'static str = "bool-or-and";
    const IDEMPOTENT_ADD: bool = true;

    fn zero() -> u32 {
        0
    }
    fn one() -> u32 {
        1
    }
    fn add(a: u32, b: u32) -> u32 {
        a | b
    }
    fn mul(a: u32, b: u32) -> u32 {
        a & b
    }
    fn is_zero(a: &u32) -> bool {
        *a == 0
    }
    fn from_weight(w: u32) -> u32 {
        u32::from(w != 0)
    }
    fn add_cost() -> OpCost {
        OpCost { arith: 1, loadstore: 0, control: 0 }
    }
    fn mul_cost() -> OpCost {
        OpCost { arith: 1, loadstore: 0, control: 0 }
    }
    fn elem_bits(a: u32) -> u64 {
        a as u64
    }
    fn elem_to_f64(a: u32) -> f64 {
        a as f64
    }
    fn corrupt_elem(a: u32, pattern: u64) -> u32 {
        a ^ (1 << (pattern % 32))
    }
}

/// The tropical (min, +) semiring over `u32 ∪ {∞}` used by SSSP.
///
/// Infinity is represented as `u32::MAX`; `⊗` saturates so that
/// `∞ + w = ∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MinPlus;

/// The distance value representing "unreachable" in [`MinPlus`].
pub const INF: u32 = u32::MAX;

impl Semiring for MinPlus {
    type Elem = u32;
    const NAME: &'static str = "min-plus";
    const IDEMPOTENT_ADD: bool = true;

    fn zero() -> u32 {
        INF
    }
    fn one() -> u32 {
        0
    }
    fn add(a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn mul(a: u32, b: u32) -> u32 {
        a.saturating_add(b)
    }
    fn is_zero(a: &u32) -> bool {
        *a == INF
    }
    fn from_weight(w: u32) -> u32 {
        w
    }
    fn add_cost() -> OpCost {
        OpCost { arith: 2, loadstore: 0, control: 1 }
    }
    fn mul_cost() -> OpCost {
        OpCost { arith: 2, loadstore: 0, control: 0 }
    }
    fn elem_bits(a: u32) -> u64 {
        a as u64
    }
    fn elem_to_f64(a: u32) -> f64 {
        a as f64
    }
    fn corrupt_elem(a: u32, pattern: u64) -> u32 {
        a ^ (1 << (pattern % 32))
    }
}

/// The real (+, ×) semiring over `f32` used by PageRank / PPR.
///
/// DPUs emulate floating point in software (§6.3.1), so these operations
/// cost tens of instructions each — PPR's kernel dominance in Fig 8 falls
/// out of these constants.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlusTimes;

impl Semiring for PlusTimes {
    type Elem = f32;
    const NAME: &'static str = "plus-times";
    const IDEMPOTENT_ADD: bool = false;

    fn zero() -> f32 {
        0.0
    }
    fn one() -> f32 {
        1.0
    }
    fn add(a: f32, b: f32) -> f32 {
        a + b
    }
    fn mul(a: f32, b: f32) -> f32 {
        a * b
    }
    fn is_zero(a: &f32) -> bool {
        *a == 0.0
    }
    fn from_weight(w: u32) -> f32 {
        w as f32
    }
    fn add_cost() -> OpCost {
        // Software f32 add: unpack, align, add, normalize, repack.
        OpCost { arith: 32, loadstore: 4, control: 4 }
    }
    fn mul_cost() -> OpCost {
        // Software f32 multiply via the 8×8 hardware multiplier.
        OpCost { arith: 48, loadstore: 6, control: 6 }
    }
    fn elem_bits(a: f32) -> u64 {
        a.to_bits() as u64
    }
    fn elem_to_f64(a: f32) -> f64 {
        a as f64
    }
    fn corrupt_elem(a: f32, pattern: u64) -> f32 {
        corrupt_f32(a, pattern)
    }
    fn guard_scheme() -> GuardScheme {
        GuardScheme::LinearSum
    }
}

/// Replaces `a` with a finite, nonzero value in `[1, 2)` whose mantissa
/// comes from `pattern`, nudged by one ulp if the draw happens to collide
/// with `a` — so the corrupted value is always bitwise distinct.
fn corrupt_f32(a: f32, pattern: u64) -> f32 {
    let mut b = f32::from_bits(0x3f80_0000 | ((pattern as u32) & 0x007f_ffff));
    if b.to_bits() == a.to_bits() {
        b = f32::from_bits(b.to_bits() ^ 1);
    }
    b
}

/// The (max, min) semiring over `u32` used by widest-path / bottleneck
/// routing: path "length" is the smallest edge capacity along it, and the
/// best path maximizes that bottleneck.
///
/// Zero is 0 ("no path", annihilates min since capacities are positive);
/// one is `u32::MAX` (the identity of min).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaxMin;

impl Semiring for MaxMin {
    type Elem = u32;
    const NAME: &'static str = "max-min";
    const IDEMPOTENT_ADD: bool = true;

    fn zero() -> u32 {
        0
    }
    fn one() -> u32 {
        u32::MAX
    }
    fn add(a: u32, b: u32) -> u32 {
        a.max(b)
    }
    fn mul(a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn is_zero(a: &u32) -> bool {
        *a == 0
    }
    fn from_weight(w: u32) -> u32 {
        w
    }
    fn add_cost() -> OpCost {
        OpCost { arith: 2, loadstore: 0, control: 1 }
    }
    fn mul_cost() -> OpCost {
        OpCost { arith: 2, loadstore: 0, control: 0 }
    }
    fn elem_bits(a: u32) -> u64 {
        a as u64
    }
    fn elem_to_f64(a: u32) -> f64 {
        a as f64
    }
    fn corrupt_elem(a: u32, pattern: u64) -> u32 {
        a ^ (1 << (pattern % 32))
    }
}

/// The counting semiring (ℕ, +, ×) over saturating `u32` — used by
/// neighbour-counting computations such as k-core peeling (how many of a
/// vertex's neighbours were just removed) and triangle-style counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountPlus;

impl Semiring for CountPlus {
    type Elem = u32;
    const NAME: &'static str = "count-plus";
    const IDEMPOTENT_ADD: bool = false;

    fn zero() -> u32 {
        0
    }
    fn one() -> u32 {
        1
    }
    fn add(a: u32, b: u32) -> u32 {
        a.saturating_add(b)
    }
    fn mul(a: u32, b: u32) -> u32 {
        a.saturating_mul(b)
    }
    fn is_zero(a: &u32) -> bool {
        *a == 0
    }
    fn from_weight(w: u32) -> u32 {
        u32::from(w != 0)
    }
    fn add_cost() -> OpCost {
        OpCost { arith: 1, loadstore: 0, control: 0 }
    }
    fn mul_cost() -> OpCost {
        // 32-bit multiply through the 8×8 hardware multiplier.
        OpCost { arith: 10, loadstore: 0, control: 2 }
    }
    fn elem_bits(a: u32) -> u64 {
        a as u64
    }
    fn elem_to_f64(a: u32) -> f64 {
        a as f64
    }
    fn corrupt_elem(a: u32, pattern: u64) -> u32 {
        a ^ (1 << (pattern % 32))
    }
}

/// What-if variant of [`PlusTimes`] with single-digit-cycle floating
/// point, modeling the hardware FP support the paper recommends for
/// kernel-bound workloads like PPR (§6.3.1, §6.4 recommendations).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlusTimesHw;

impl Semiring for PlusTimesHw {
    type Elem = f32;
    const NAME: &'static str = "plus-times-hw";
    const IDEMPOTENT_ADD: bool = false;

    fn zero() -> f32 {
        0.0
    }
    fn one() -> f32 {
        1.0
    }
    fn add(a: f32, b: f32) -> f32 {
        a + b
    }
    fn mul(a: f32, b: f32) -> f32 {
        a * b
    }
    fn is_zero(a: &f32) -> bool {
        *a == 0.0
    }
    fn from_weight(w: u32) -> f32 {
        w as f32
    }
    fn add_cost() -> OpCost {
        OpCost { arith: 2, loadstore: 0, control: 0 }
    }
    fn mul_cost() -> OpCost {
        OpCost { arith: 3, loadstore: 0, control: 0 }
    }
    fn elem_bits(a: f32) -> u64 {
        a.to_bits() as u64
    }
    fn elem_to_f64(a: f32) -> f64 {
        a as f64
    }
    fn corrupt_elem(a: f32, pattern: u64) -> f32 {
        corrupt_f32(a, pattern)
    }
    fn guard_scheme() -> GuardScheme {
        GuardScheme::LinearSum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_laws<S: Semiring>(samples: &[S::Elem]) {
        for &a in samples {
            assert_eq!(S::add(a, S::zero()), a, "{}: zero is ⊕ identity", S::NAME);
            assert_eq!(S::mul(a, S::one()), a, "{}: one is ⊗ identity", S::NAME);
            assert_eq!(S::mul(S::one(), a), a, "{}: one is left ⊗ identity", S::NAME);
            assert!(S::is_zero(&S::mul(a, S::zero())), "{}: zero annihilates", S::NAME);
            for &b in samples {
                assert_eq!(S::add(a, b), S::add(b, a), "{}: ⊕ commutes", S::NAME);
                for &c in samples {
                    assert_eq!(
                        S::add(S::add(a, b), c),
                        S::add(a, S::add(b, c)),
                        "{}: ⊕ associates",
                        S::NAME
                    );
                    assert_eq!(
                        S::mul(S::mul(a, b), c),
                        S::mul(a, S::mul(b, c)),
                        "{}: ⊗ associates",
                        S::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn bool_or_and_laws() {
        check_laws::<BoolOrAnd>(&[0, 1]);
    }

    #[test]
    fn min_plus_laws() {
        check_laws::<MinPlus>(&[0, 1, 7, 1000, INF]);
    }

    #[test]
    fn max_min_laws() {
        check_laws::<MaxMin>(&[1, 2, 7, 1000, u32::MAX]);
    }

    #[test]
    fn count_plus_laws() {
        check_laws::<CountPlus>(&[0, 1, 2, 7, 100]);
        assert_eq!(CountPlus::add(3, 4), 7);
        assert_eq!(CountPlus::mul(3, 4), 12);
        assert_eq!(CountPlus::from_weight(17), 1);
    }

    #[test]
    fn max_min_models_bottlenecks() {
        // Path capacity = min of edges; best of two paths = max.
        let path_a = MaxMin::mul(MaxMin::mul(MaxMin::one(), 10), 3); // bottleneck 3
        let path_b = MaxMin::mul(MaxMin::mul(MaxMin::one(), 5), 4); // bottleneck 4
        assert_eq!(MaxMin::add(path_a, path_b), 4);
        assert!(MaxMin::is_zero(&MaxMin::mul(MaxMin::zero(), 100)));
    }

    #[test]
    fn hardware_float_is_an_order_of_magnitude_cheaper() {
        assert!(PlusTimes::mul_cost().total() > 10 * PlusTimesHw::mul_cost().total());
        // Same algebra, different cost.
        assert_eq!(PlusTimesHw::mul(2.0, 3.0), PlusTimes::mul(2.0, 3.0));
    }

    #[test]
    fn plus_times_laws_on_exact_values() {
        // Power-of-two values keep f32 arithmetic exact, so associativity
        // holds bitwise.
        check_laws::<PlusTimes>(&[0.0, 1.0, 2.0, 0.5, 4.0]);
    }

    #[test]
    fn min_plus_saturates_at_infinity() {
        assert_eq!(MinPlus::mul(INF, 5), INF);
        assert_eq!(MinPlus::add(INF, 3), 3);
    }

    #[test]
    fn idempotence_flags_match_algebra() {
        const { assert!(BoolOrAnd::IDEMPOTENT_ADD) };
        const { assert!(MinPlus::IDEMPOTENT_ADD) };
        const { assert!(!PlusTimes::IDEMPOTENT_ADD) };
        assert_eq!(BoolOrAnd::add(1, 1), 1);
        assert_eq!(MinPlus::add(7, 7), 7);
    }

    #[test]
    fn float_operations_cost_an_order_of_magnitude_more() {
        assert!(PlusTimes::mul_cost().total() > 10 * BoolOrAnd::mul_cost().total());
        assert!(PlusTimes::add_cost().total() > 10 * MinPlus::add_cost().total());
    }

    #[test]
    fn op_cost_records_into_trace() {
        let mut t = alpha_pim_sim::trace::TaskletTrace::new();
        PlusTimes::mul_cost().record(&mut t);
        assert_eq!(t.instructions() as u32, PlusTimes::mul_cost().total());
    }

    #[test]
    fn elem_bytes_match_types() {
        assert_eq!(BoolOrAnd::elem_bytes(), 4);
        assert_eq!(MinPlus::elem_bytes(), 4);
        assert_eq!(PlusTimes::elem_bytes(), 4);
    }

    #[test]
    fn guard_schemes_match_the_algebra() {
        assert_eq!(BoolOrAnd::guard_scheme(), GuardScheme::Fingerprint);
        assert_eq!(MinPlus::guard_scheme(), GuardScheme::Fingerprint);
        assert_eq!(MaxMin::guard_scheme(), GuardScheme::Fingerprint);
        assert_eq!(CountPlus::guard_scheme(), GuardScheme::Fingerprint);
        assert_eq!(PlusTimes::guard_scheme(), GuardScheme::LinearSum);
        assert_eq!(PlusTimesHw::guard_scheme(), GuardScheme::LinearSum);
    }

    #[test]
    fn corrupt_elem_always_changes_the_bits() {
        let patterns = [0u64, 1, 31, 32, 0x3f80_0000, u64::MAX, 0xDEAD_BEEF];
        for &p in &patterns {
            for &a in &[0u32, 1, 7, u32::MAX] {
                let c = BoolOrAnd::corrupt_elem(a, p);
                assert_ne!(c, a, "u32 corrupt({a}, {p})");
                assert_ne!(MinPlus::elem_bits(c), MinPlus::elem_bits(a));
            }
            for &a in &[0.0f32, 1.0, 1.5, 0.25, -3.0] {
                let c = PlusTimes::corrupt_elem(a, p);
                assert_ne!(c.to_bits(), a.to_bits(), "f32 corrupt({a}, {p})");
                assert!(c.is_finite() && c != 0.0);
                assert!((1.0..2.0).contains(&c) || (1.0..2.0).contains(&c.abs()));
            }
        }
        // The collision nudge: a value already in [1, 2) with the drawn
        // mantissa still comes back different.
        let a = f32::from_bits(0x3f80_0000 | 0x1234);
        assert_ne!(PlusTimes::corrupt_elem(a, 0x1234).to_bits(), a.to_bits());
    }

    #[test]
    fn elem_bits_and_f64_round_values() {
        assert_eq!(MinPlus::elem_bits(INF), u32::MAX as u64);
        assert_eq!(PlusTimes::elem_bits(1.0), 0x3f80_0000);
        assert_eq!(MinPlus::elem_to_f64(7), 7.0);
        assert_eq!(PlusTimes::elem_to_f64(0.5), 0.5);
    }

    #[test]
    fn from_weight_lifts_correctly() {
        assert_eq!(BoolOrAnd::from_weight(17), 1);
        assert_eq!(BoolOrAnd::from_weight(0), 0);
        assert_eq!(MinPlus::from_weight(17), 17);
        assert_eq!(PlusTimes::from_weight(3), 3.0);
    }
}
