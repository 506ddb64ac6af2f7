//! Fixture: budget-coverage positive — an engine's one `read` whose scan
//! never touches the meter, directly or through a callee. The lock's
//! zero-argument `read()` is not a call into it.

pub struct Scan {
    cells: Vec<i64>,
    log: std::sync::RwLock<Vec<u64>>,
}

impl RangeEngine<i64> for Scan {
    fn read(&self, region: &Region, op: EngineOp, meter: &BudgetMeter) -> Outcome {
        meter.check();
        let mut acc = 0;
        for &v in &self.cells {
            acc += v;
        }
        self.tally(acc)
    }
}

impl Scan {
    fn tally(&self, acc: i64) -> Outcome {
        let mut n = acc;
        while n > 0 {
            n -= 1;
        }
        Outcome(n)
    }

    /// Off the query path: reached only from this reporting fn.
    pub fn report(&self) -> usize {
        let seen = self.log.read();
        let mut total = 0;
        for v in seen.iter() {
            total += *v as usize;
        }
        total
    }
}
