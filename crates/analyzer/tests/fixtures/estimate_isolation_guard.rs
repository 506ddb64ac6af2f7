//! Fixture: estimate-isolation false-positive guard — exact paths may
//! use the cache and exact constructors freely; unrelated `insert`
//! calls and name-fallback resolution must stay quiet.

impl SemanticCache {
    pub fn insert(&self) {}
}

/// Exact tier: cache writes and exact constructors are its job.
pub fn exact_answer(cache: &SemanticCache, v: i64) -> i64 {
    cache.insert();
    let routed = Routed::Exact(v);
    v
}

/// Estimate tier, but the insert is a `Vec` insert — type-narrowed
/// away from the cache.
pub fn degraded(rows: &mut Vec<i64>, v: i64) -> Estimate<i64> {
    rows.insert(0, v);
    approximate(v)
}

/// Estimate tier with an opaque receiver: `insert` resolves only by
/// name, which is not trusted evidence of a cache write.
pub fn degraded_opaque(thing: &Opaque, v: i64) -> Estimate<i64> {
    thing.insert();
    approximate(v)
}
