//! Fixture: budget-coverage false-positive guard — a kernel's metered
//! `read` whose loops charge only through its query ctx: directly with
//! `ctx.charge()`, and through a recursive walk that charges the ctx per
//! node. `QueryCtx::charge` is the one place the meter is charged.

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
        for (n, &v) in self.cells.iter().enumerate() {
            ctx.read_a(1);
            acc += v;
            if n % 4096 == 0 {
                ctx.charge();
            }
        }
        for &v in &self.cells {
            acc += walk(v, 3, ctx);
        }
        acc
    }
}

/// Recursive and charging through the ctx: covers its callers.
fn walk(v: i64, depth: u32, ctx: &mut QueryCtx<'_>) -> i64 {
    ctx.read_a(1);
    ctx.charge();
    if depth == 0 {
        v
    } else {
        walk(v, depth - 1, ctx)
    }
}
