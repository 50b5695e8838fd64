//! Cycle accounting.
//!
//! The Memento paper reports where execution time goes: userspace allocation
//! vs. kernel memory management (Table 2) and, for Memento itself, which
//! hardware mechanism produced each saved cycle (Fig. 9). The simulator
//! therefore attributes every simulated cycle to a [`CycleBucket`] in a
//! [`CycleAccount`] ledger.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A quantity of CPU clock cycles (3 GHz core in the reference config).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction — convenient for "cycles saved" deltas.
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Converts to seconds at the given core frequency in Hz.
    pub fn as_seconds(self, freq_hz: f64) -> f64 {
        self.0 as f64 / freq_hz
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cy", self.0)
    }
}

/// Rounds `x >= 0` half away from zero to a cycle count, as
/// `x.round() as u64` does, but without the libm call (baseline x86-64
/// has no rounding instruction) and without a branch on the fraction,
/// which is a coin flip. Exact: below 2^53 the fraction `x - trunc(x)` is
/// representable, and from 2^53 up `x` is already an integer; past
/// `u64::MAX` (and at +∞) both saturate, and negative or NaN `x` gives 0.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let i = x as u64;
    i.saturating_add(u64::from(x - i as f64 >= 0.5))
}

/// Rounds `x >= 0` up to a cycle count, as `x.ceil() as u64` does, without
/// the libm call. Exact for the same reason as [`round_u64`]: `trunc(x)`
/// converts back to `f64` exactly below 2^64, so `trunc(x) < x` holds
/// exactly when `x` has a fraction. Saturates past `u64::MAX`; negative or
/// NaN `x` gives 0.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    let i = x as u64;
    i.saturating_add(u64::from((i as f64) < x))
}

/// Attribution bucket for a simulated cycle.
///
/// The buckets mirror the paper's reporting axes:
/// user/kernel memory-management split (Table 2) and the Memento
/// obj-alloc / obj-free / page-mgmt components (Fig. 9).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CycleBucket {
    /// Application compute and ordinary (non-allocator) memory accesses.
    Compute,
    /// Userspace software-allocator allocation path.
    UserAlloc,
    /// Userspace software-allocator free path.
    UserFree,
    /// Kernel memory management: mmap/munmap syscalls, page-fault handling,
    /// buddy allocation, page-table construction/teardown.
    KernelMm,
    /// Memento hardware object allocator servicing `obj-alloc`.
    HwAlloc,
    /// Memento hardware object allocator servicing `obj-free`.
    HwFree,
    /// Memento hardware page allocator: arena handout, Memento page walks,
    /// arena reclamation, TLB shootdowns.
    HwPage,
    /// Container/platform setup outside the function proper (cold starts).
    Setup,
}

impl CycleBucket {
    /// Every bucket, in reporting order.
    pub const ALL: [CycleBucket; 8] = [
        CycleBucket::Compute,
        CycleBucket::UserAlloc,
        CycleBucket::UserFree,
        CycleBucket::KernelMm,
        CycleBucket::HwAlloc,
        CycleBucket::HwFree,
        CycleBucket::HwPage,
        CycleBucket::Setup,
    ];

    /// True for buckets that count as memory-management work (everything but
    /// plain compute and setup).
    pub fn is_memory_management(self) -> bool {
        !matches!(self, CycleBucket::Compute | CycleBucket::Setup)
    }
}

impl fmt::Display for CycleBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CycleBucket::Compute => "compute",
            CycleBucket::UserAlloc => "user-alloc",
            CycleBucket::UserFree => "user-free",
            CycleBucket::KernelMm => "kernel-mm",
            CycleBucket::HwAlloc => "hw-alloc",
            CycleBucket::HwFree => "hw-free",
            CycleBucket::HwPage => "hw-page",
            CycleBucket::Setup => "setup",
        };
        f.write_str(s)
    }
}

/// A ledger attributing simulated cycles to [`CycleBucket`]s.
///
/// # Examples
///
/// ```
/// use memento_simcore::cycles::{CycleAccount, CycleBucket, Cycles};
///
/// let mut acct = CycleAccount::new();
/// acct.charge(CycleBucket::Compute, Cycles::new(100));
/// acct.charge(CycleBucket::UserAlloc, Cycles::new(40));
/// acct.charge(CycleBucket::KernelMm, Cycles::new(60));
/// assert_eq!(acct.total(), Cycles::new(200));
/// assert_eq!(acct.memory_management_total(), Cycles::new(100));
/// ```
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct CycleAccount {
    buckets: [u64; CycleBucket::ALL.len()],
    /// Sum of `buckets`, kept by [`Self::charge`] and [`Self::merge`] so
    /// [`Self::total`] is one load (the scheduler reads it every event).
    total: u64,
}

impl CycleAccount {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// `bucket`'s slot: `ALL` lists the buckets in declaration order.
    fn index(bucket: CycleBucket) -> usize {
        bucket as usize
    }

    /// Adds `cycles` to `bucket`.
    pub fn charge(&mut self, bucket: CycleBucket, cycles: Cycles) {
        self.buckets[Self::index(bucket)] += cycles.raw();
        self.total += cycles.raw();
    }

    /// Returns the cycles attributed to `bucket`.
    pub fn get(&self, bucket: CycleBucket) -> Cycles {
        Cycles(self.buckets[Self::index(bucket)])
    }

    /// Returns the sum over all buckets.
    pub fn total(&self) -> Cycles {
        Cycles(self.total)
    }

    /// Returns the sum over the memory-management buckets.
    pub fn memory_management_total(&self) -> Cycles {
        CycleBucket::ALL
            .iter()
            .filter(|b| b.is_memory_management())
            .map(|b| self.get(*b))
            .sum()
    }

    /// Userspace share of memory-management cycles (software + Memento
    /// object-allocator work), as used for the Table 2 breakdown.
    pub fn user_mm(&self) -> Cycles {
        self.get(CycleBucket::UserAlloc)
            + self.get(CycleBucket::UserFree)
            + self.get(CycleBucket::HwAlloc)
            + self.get(CycleBucket::HwFree)
    }

    /// Kernel/page-level share of memory-management cycles.
    pub fn kernel_mm(&self) -> Cycles {
        self.get(CycleBucket::KernelMm) + self.get(CycleBucket::HwPage)
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &CycleAccount) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
        self.total += other.total;
    }

    /// Iterates over `(bucket, cycles)` pairs in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleBucket, Cycles)> + '_ {
        CycleBucket::ALL.iter().map(move |b| (*b, self.get(*b)))
    }
}

impl fmt::Display for CycleAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (bucket, cycles) in self.iter() {
            if cycles != Cycles::ZERO {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{bucket}={}", cycles.raw())?;
                first = false;
            }
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rounding_matches_libm_at_the_edges() {
        let two53 = 9_007_199_254_740_992.0;
        let xs = [
            -1.5,
            -0.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            0.5000000000000001,
            1.0,
            1.5,
            2.5,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            9_007_199_254_740_993.0,
            1.8e19,
            18_446_744_073_709_549_568.0,
            18_446_744_073_709_551_616.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for x in xs {
            assert_eq!(round_u64(x), x.round() as u64, "round({x})");
            assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil({x})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both roundings equal libm's over cycle-sized values, at and
        /// around every half and whole step.
        #[test]
        fn rounding_matches_libm(
            whole in 0u64..1 << 53,
            frac in 0.0f64..1.0,
            scale in 0.0f64..4.0,
        ) {
            for x in [
                whole as f64 + frac,
                whole as f64 + 0.5,
                whole as f64 * scale,
                frac * 1e6,
            ] {
                prop_assert_eq!(round_u64(x), x.round() as u64, "round({})", x);
                prop_assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil({})", x);
            }
        }

        /// The running total equals the bucket sum after any sequence of
        /// charges and merges (a merge folds in a ledger charged with the
        /// same op's bucket and amount, plus its own running total).
        #[test]
        fn total_is_the_bucket_sum(
            ops in proptest::collection::vec((any::<bool>(), 0usize..8, 0u64..1 << 40), 0..64)
        ) {
            let mut acct = CycleAccount::new();
            for (merge, bucket, cycles) in ops {
                let (bucket, cycles) = (CycleBucket::ALL[bucket], Cycles::new(cycles));
                if merge {
                    let mut other = CycleAccount::new();
                    other.charge(bucket, cycles);
                    other.charge(CycleBucket::Setup, Cycles::new(cycles.raw() / 3));
                    acct.merge(&other);
                } else {
                    acct.charge(bucket, cycles);
                }
                let sum: Cycles = acct.iter().map(|(_, c)| c).sum();
                prop_assert_eq!(acct.total(), sum);
            }
        }
    }

    #[test]
    fn charge_and_total() {
        let mut acct = CycleAccount::new();
        acct.charge(CycleBucket::Compute, Cycles::new(10));
        acct.charge(CycleBucket::Compute, Cycles::new(5));
        acct.charge(CycleBucket::HwPage, Cycles::new(7));
        assert_eq!(acct.get(CycleBucket::Compute), Cycles::new(15));
        assert_eq!(acct.total(), Cycles::new(22));
        assert_eq!(acct.memory_management_total(), Cycles::new(7));
    }

    #[test]
    fn user_kernel_split() {
        let mut acct = CycleAccount::new();
        acct.charge(CycleBucket::UserAlloc, Cycles::new(30));
        acct.charge(CycleBucket::UserFree, Cycles::new(10));
        acct.charge(CycleBucket::KernelMm, Cycles::new(40));
        acct.charge(CycleBucket::HwAlloc, Cycles::new(1));
        acct.charge(CycleBucket::HwPage, Cycles::new(2));
        assert_eq!(acct.user_mm(), Cycles::new(41));
        assert_eq!(acct.kernel_mm(), Cycles::new(42));
    }

    #[test]
    fn merge_ledgers() {
        let mut a = CycleAccount::new();
        a.charge(CycleBucket::Compute, Cycles::new(1));
        let mut b = CycleAccount::new();
        b.charge(CycleBucket::Compute, Cycles::new(2));
        b.charge(CycleBucket::Setup, Cycles::new(3));
        a.merge(&b);
        assert_eq!(a.get(CycleBucket::Compute), Cycles::new(3));
        assert_eq!(a.get(CycleBucket::Setup), Cycles::new(3));
    }

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(4);
        assert_eq!(a + b, Cycles::new(14));
        assert_eq!(a - b, Cycles::new(6));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Cycles::new(14));
        let total: Cycles = [a, b].into_iter().sum();
        assert_eq!(total, Cycles::new(14));
        assert!((Cycles::new(3_000_000_000).as_seconds(3.0e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", CycleAccount::new()), "(empty)");
        let mut acct = CycleAccount::new();
        acct.charge(CycleBucket::HwAlloc, Cycles::new(2));
        assert_eq!(format!("{acct}"), "hw-alloc=2");
        assert_eq!(format!("{}", Cycles::new(9)), "9 cy");
    }

    #[test]
    fn all_lists_buckets_in_declaration_order() {
        for (i, b) in CycleBucket::ALL.iter().enumerate() {
            assert_eq!(CycleAccount::index(*b), i, "{b}");
        }
    }

    #[test]
    fn bucket_classification() {
        assert!(!CycleBucket::Compute.is_memory_management());
        assert!(!CycleBucket::Setup.is_memory_management());
        assert!(CycleBucket::UserAlloc.is_memory_management());
        assert!(CycleBucket::HwPage.is_memory_management());
    }
}
