use olap_array::{BudgetMeter, Interrupt};
use std::ops::{Add, AddAssign};

/// Counts of the cells and nodes an algorithm touched while answering a
/// query — the paper's cost proxy ("we use the number of elements required
/// to answer the query as a proxy for response time", §8).
///
/// Counters saturate at `u64::MAX` instead of wrapping, so long-running
/// accumulations degrade to a pinned ceiling rather than a nonsense value.
/// Per-part counters reduce with [`AccessStats::merge`]; merging is
/// commutative and associative, so the totals are independent of how work
/// was split.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccessStats {
    /// Cells of the original cube `A` read.
    pub a_cells: u64,
    /// Cells of precomputed structures (`P`, blocked `P`) read.
    pub p_cells: u64,
    /// Tree nodes visited (range-max and tree-sum structures).
    pub tree_nodes: u64,
    /// Binary combine/compare steps performed.
    pub combine_steps: u64,
}

impl AccessStats {
    /// A zeroed counter.
    pub fn new() -> Self {
        AccessStats::default()
    }

    /// Total elements accessed — the §8 cost metric (`A` cells +
    /// precomputed cells + tree nodes).
    pub fn total_accesses(&self) -> u64 {
        self.a_cells
            .saturating_add(self.p_cells)
            .saturating_add(self.tree_nodes)
    }

    /// Records reads of `n` cells of `A`.
    pub fn read_a(&mut self, n: u64) {
        self.a_cells = self.a_cells.saturating_add(n);
    }

    /// Records reads of `n` precomputed cells.
    pub fn read_p(&mut self, n: u64) {
        self.p_cells = self.p_cells.saturating_add(n);
    }

    /// Records visits to `n` tree nodes.
    pub fn visit_nodes(&mut self, n: u64) {
        self.tree_nodes = self.tree_nodes.saturating_add(n);
    }

    /// Records `n` combine/compare steps.
    pub fn step(&mut self, n: u64) {
        self.combine_steps = self.combine_steps.saturating_add(n);
    }

    /// Folds another counter into this one (saturating per field).
    ///
    /// This is the reduction used to combine per-part counters (a blocked
    /// query's `3^d` parts, a server's shards): because merge is
    /// commutative and associative, the result equals a single-counter run
    /// no matter how the work was split.
    pub fn merge(&mut self, other: &AccessStats) {
        self.a_cells = self.a_cells.saturating_add(other.a_cells);
        self.p_cells = self.p_cells.saturating_add(other.p_cells);
        self.tree_nodes = self.tree_nodes.saturating_add(other.tree_nodes);
        self.combine_steps = self.combine_steps.saturating_add(other.combine_steps);
    }
}

impl Add for AccessStats {
    type Output = AccessStats;

    fn add(self, rhs: AccessStats) -> AccessStats {
        let mut out = self;
        out.merge(&rhs);
        out
    }
}

impl AddAssign for AccessStats {
    fn add_assign(&mut self, rhs: AccessStats) {
        *self = *self + rhs;
    }
}

/// The meter every unmetered read runs under.
static UNLIMITED: BudgetMeter = BudgetMeter::unlimited();

/// One query's accounting: the [`BudgetMeter`] it runs under and the
/// [`AccessStats`] its kernel records.
///
/// A kernel's metered `read` records accesses into [`QueryCtx::stats`] as
/// it walks, calls [`QueryCtx::charge`] at its checkpoints to charge the
/// meter with what it recorded since the last charge, and
/// [`QueryCtx::check`] where the deadline, cancellation and access cap
/// should be looked at. The meter is charged from the very counter the
/// stats report, so after an `Ok` read on a fresh meter `meter.spent()`
/// equals [`AccessStats::total_accesses`]. A ctx holds no allocation.
#[derive(Debug)]
pub struct QueryCtx<'m> {
    meter: &'m BudgetMeter,
    /// The accesses recorded so far.
    pub stats: AccessStats,
    /// Accesses of `stats` already charged to `meter`.
    charged: u64,
}

impl<'m> QueryCtx<'m> {
    /// A ctx charging `meter`, with zeroed stats.
    pub fn new(meter: &'m BudgetMeter) -> Self {
        QueryCtx {
            meter,
            stats: AccessStats::new(),
            charged: 0,
        }
    }

    /// A ctx over a meter that never interrupts: the one the value-only
    /// reads run under.
    pub fn unlimited() -> QueryCtx<'static> {
        QueryCtx::new(&UNLIMITED)
    }

    /// Runs one read under an unlimited meter and returns its value with
    /// the accesses it recorded.
    ///
    /// # Errors
    /// Whatever `read` returns.
    pub fn measure<T, E>(
        read: impl FnOnce(&mut QueryCtx<'static>) -> Result<T, E>,
    ) -> Result<(T, AccessStats), E> {
        let mut ctx = QueryCtx::unlimited();
        let value = read(&mut ctx)?;
        Ok((value, ctx.stats))
    }

    /// Charges the meter with the accesses recorded since the last
    /// charge. Reads no clock.
    ///
    /// # Errors
    /// [`Interrupt::BudgetExhausted`] once the access cap is crossed.
    #[inline]
    pub fn charge(&mut self) -> Result<(), Interrupt> {
        let total = self.stats.total_accesses();
        let due = total.saturating_sub(self.charged);
        self.charged = total;
        self.meter.charge(due)
    }

    /// Checks the meter's cancellation token, deadline and access cap;
    /// reads the clock when a deadline is armed.
    ///
    /// # Errors
    /// The first [`Interrupt`] that applies.
    #[inline]
    pub fn check(&self) -> Result<(), Interrupt> {
        self.meter.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let mut s = AccessStats::new();
        s.read_a(3);
        s.read_p(4);
        s.visit_nodes(5);
        s.step(100);
        assert_eq!(s.total_accesses(), 12);
        assert_eq!(s.combine_steps, 100);
    }

    #[test]
    fn merge_sums_all_fields() {
        let mut a = AccessStats {
            a_cells: 1,
            p_cells: 2,
            tree_nodes: 3,
            combine_steps: 4,
        };
        let b = AccessStats {
            a_cells: 100,
            p_cells: 200,
            tree_nodes: 300,
            combine_steps: 400,
        };
        a.merge(&b);
        assert_eq!(
            a,
            AccessStats {
                a_cells: 101,
                p_cells: 202,
                tree_nodes: 303,
                combine_steps: 404
            }
        );
        // Merging a default is a no-op: default is the merge identity.
        let before = a;
        a.merge(&AccessStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let parts = [
            AccessStats {
                a_cells: 5,
                p_cells: 1,
                tree_nodes: 0,
                combine_steps: 9,
            },
            AccessStats {
                a_cells: 0,
                p_cells: 7,
                tree_nodes: 2,
                combine_steps: 1,
            },
            AccessStats {
                a_cells: 3,
                p_cells: 0,
                tree_nodes: 8,
                combine_steps: 0,
            },
        ];
        let mut forward = AccessStats::default();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = AccessStats::default();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut s = AccessStats::new();
        s.read_a(u64::MAX - 1);
        s.read_a(5);
        assert_eq!(s.a_cells, u64::MAX);
        s.read_p(u64::MAX);
        s.step(u64::MAX);
        s.visit_nodes(1);
        s.visit_nodes(u64::MAX);
        assert_eq!(s.p_cells, u64::MAX);
        assert_eq!(s.tree_nodes, u64::MAX);
        assert_eq!(s.combine_steps, u64::MAX);
        // total_accesses and merge saturate too.
        assert_eq!(s.total_accesses(), u64::MAX);
        let mut t = s;
        t.merge(&s);
        assert_eq!(t.a_cells, u64::MAX);
    }

    #[test]
    fn add_combines_counters() {
        let a = AccessStats {
            a_cells: 1,
            p_cells: 2,
            tree_nodes: 3,
            combine_steps: 4,
        };
        let mut b = AccessStats {
            a_cells: 10,
            p_cells: 20,
            tree_nodes: 30,
            combine_steps: 40,
        };
        b += a;
        assert_eq!(
            b,
            AccessStats {
                a_cells: 11,
                p_cells: 22,
                tree_nodes: 33,
                combine_steps: 44
            }
        );
    }

    #[test]
    fn ctx_charges_what_it_recorded_since_the_last_charge() {
        use olap_array::QueryBudget;
        let meter = QueryBudget::with_max_accesses(10).start(None);
        let mut ctx = QueryCtx::new(&meter);
        ctx.stats.read_a(3);
        ctx.stats.step(50);
        ctx.charge().unwrap();
        ctx.charge().unwrap();
        assert_eq!(
            meter.spent(),
            3,
            "steps are not accesses; nothing is charged twice"
        );
        ctx.stats.read_p(4);
        ctx.stats.visit_nodes(4);
        let err = ctx.charge().unwrap_err();
        assert_eq!(
            err,
            Interrupt::BudgetExhausted {
                spent: 11,
                limit: 10
            }
        );
        assert!(ctx.check().is_err());
        assert_eq!(ctx.stats.total_accesses(), meter.spent());
    }

    #[test]
    fn measure_returns_the_value_with_its_stats() {
        let (v, stats) = QueryCtx::measure(|ctx| {
            ctx.stats.read_a(2);
            ctx.charge()?;
            ctx.check()?;
            Ok::<_, Interrupt>(7)
        })
        .unwrap();
        assert_eq!((v, stats.a_cells), (7, 2));
    }
}
