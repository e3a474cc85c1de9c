//! Symbolic variables, their bounded domains, and interval arithmetic.
//!
//! Every symbolic input the VM introduces (program arguments, values read
//! from the environment) is registered in a [`VarTable`] together with an
//! inclusive integer domain. Bounded domains are what make the reproduction's
//! constraint solver decidable: the original Portend delegates to STP, we
//! perform interval-pruned search over these finite domains (see
//! `DESIGN.md` §1 for the substitution rationale).

use std::fmt;

/// Identifier of a symbolic variable, an index into its [`VarTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Metadata for one symbolic variable: a human-readable name and an
/// inclusive domain `[lo, hi]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Human-readable name, used in debug-aid reports (paper Fig. 6).
    pub name: String,
    /// Inclusive lower bound of the variable's domain.
    pub lo: i64,
    /// Inclusive upper bound of the variable's domain.
    pub hi: i64,
}

impl VarInfo {
    /// Creates variable metadata.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(name: impl Into<String>, lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty variable domain");
        VarInfo {
            name: name.into(),
            lo,
            hi,
        }
    }

    /// The domain as an [`Interval`].
    pub fn interval(&self) -> Interval {
        Interval::new(self.lo, self.hi)
    }
}

/// The table of all symbolic variables of one analysis.
///
/// Variables are append-only; [`VarId`]s index into the table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarTable {
    vars: Vec<VarInfo>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fresh variable and returns its id.
    pub fn fresh(&mut self, name: impl Into<String>, lo: i64, hi: i64) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo::new(name, lo, hi));
        id
    }

    /// Looks a variable up.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn info(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variable has been registered.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i as u32), v))
    }
}

/// A closed integer interval `[lo, hi]`, the abstract domain used both for
/// solver pruning and for quick infeasibility checks in the explorer.
///
/// The interval `[i64::MIN, i64::MAX]` is "top" (no information). Wrapping
/// operations that may overflow conservatively return top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

// The fluent names (`add`, `not`, ...) mirror the IR's operator
// vocabulary; operator-trait impls would hide the constant folding
// entry points behind sugar.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The full 64-bit signed range (no information).
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };
    /// The boolean range `[0, 1]`.
    pub const BOOL: Interval = Interval { lo: 0, hi: 1 };

    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "inverted interval");
        Interval { lo, hi }
    }

    /// The singleton interval `[v, v]`.
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// If the interval contains exactly one value, returns it.
    pub fn as_point(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `v` lies within the interval.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the interval is exactly `{0}` (definitely false).
    pub fn definitely_false(self) -> bool {
        self.lo == 0 && self.hi == 0
    }

    /// Whether the interval excludes zero (definitely true as a condition).
    pub fn definitely_true(self) -> bool {
        self.lo > 0 || self.hi < 0
    }

    /// Intersection; `None` when disjoint.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Number of values, saturating.
    pub fn size(self) -> u64 {
        (self.hi as i128 - self.lo as i128 + 1).min(u64::MAX as i128) as u64
    }

    fn from_i128(lo: i128, hi: i128) -> Interval {
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            Interval::TOP
        } else {
            Interval {
                lo: lo as i64,
                hi: hi as i64,
            }
        }
    }

    /// Interval addition (top on possible overflow).
    pub fn add(self, o: Interval) -> Interval {
        Interval::from_i128(
            self.lo as i128 + o.lo as i128,
            self.hi as i128 + o.hi as i128,
        )
    }

    /// Interval subtraction (top on possible overflow).
    pub fn sub(self, o: Interval) -> Interval {
        Interval::from_i128(
            self.lo as i128 - o.hi as i128,
            self.hi as i128 - o.lo as i128,
        )
    }

    /// Interval multiplication (top on possible overflow).
    pub fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo as i128 * o.lo as i128,
            self.lo as i128 * o.hi as i128,
            self.hi as i128 * o.lo as i128,
            self.hi as i128 * o.hi as i128,
        ];
        let lo = *c.iter().min().expect("nonempty");
        let hi = *c.iter().max().expect("nonempty");
        Interval::from_i128(lo, hi)
    }

    /// Interval negation (top when `i64::MIN` is contained).
    pub fn neg(self) -> Interval {
        if self.contains(i64::MIN) {
            Interval::TOP
        } else {
            Interval {
                lo: -self.hi,
                hi: -self.lo,
            }
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_table_roundtrip() {
        let mut t = VarTable::new();
        let a = t.fresh("a", 0, 10);
        let b = t.fresh("b", -5, 5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.info(a).name, "a");
        assert_eq!(t.info(b).lo, -5);
        let ids: Vec<_> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "empty variable domain")]
    fn empty_domain_panics() {
        VarInfo::new("x", 3, 2);
    }

    #[test]
    fn interval_basics() {
        let i = Interval::new(-2, 7);
        assert!(i.contains(0));
        assert!(!i.contains(8));
        assert_eq!(i.size(), 10);
        assert_eq!(Interval::point(4).as_point(), Some(4));
        assert_eq!(i.as_point(), None);
    }

    #[test]
    fn interval_truthiness() {
        assert!(Interval::point(0).definitely_false());
        assert!(Interval::new(1, 9).definitely_true());
        assert!(Interval::new(-4, -1).definitely_true());
        let maybe = Interval::new(-1, 1);
        assert!(!maybe.definitely_true());
        assert!(!maybe.definitely_false());
    }

    #[test]
    fn interval_intersect() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 20);
        assert_eq!(a.intersect(b), Some(Interval::new(5, 10)));
        assert_eq!(a.intersect(Interval::new(11, 12)), None);
    }

    #[test]
    fn interval_arith() {
        let a = Interval::new(1, 2);
        let b = Interval::new(10, 20);
        assert_eq!(a.add(b), Interval::new(11, 22));
        assert_eq!(b.sub(a), Interval::new(8, 19));
        assert_eq!(a.mul(b), Interval::new(10, 40));
        assert_eq!(
            Interval::new(-3, 2).mul(Interval::new(-1, 4)),
            Interval::new(-12, 8)
        );
        assert_eq!(a.neg(), Interval::new(-2, -1));
    }

    #[test]
    fn interval_overflow_is_top() {
        let big = Interval::new(i64::MAX - 1, i64::MAX);
        assert_eq!(big.add(Interval::point(5)), Interval::TOP);
        assert_eq!(Interval::TOP.neg(), Interval::TOP);
    }
}
