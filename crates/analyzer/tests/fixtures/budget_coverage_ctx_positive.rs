//! Fixture: budget-coverage positive — a kernel's metered `read` that
//! records its accesses into the query ctx but never charges it: the
//! counting alone does not reach the meter, so both loops are flagged.

pub struct BudgetMeter;

impl BudgetMeter {
    pub fn charge(&self, _cells: u64) {}
}

pub struct QueryCtx<'m> {
    meter: &'m BudgetMeter,
    accesses: u64,
    charged: u64,
}

impl QueryCtx<'_> {
    pub fn read_a(&mut self, n: u64) {
        self.accesses += n;
    }

    pub fn charge(&mut self) {
        self.meter.charge(self.accesses - self.charged);
        self.charged = self.accesses;
    }
}

pub struct Scan {
    cells: Vec<i64>,
}

impl Scan {
    pub fn read(&self, ctx: &mut QueryCtx<'_>) -> i64 {
        let mut acc = 0;
        for &v in &self.cells {
            ctx.read_a(1);
            acc += v;
        }
        let mut n = acc;
        while n > 0 {
            ctx.read_a(1);
            n -= 1;
        }
        ctx.charge();
        acc
    }
}
