//! The [`RangeEngine`] trait: one query vocabulary over every backend.
//!
//! The paper's §8/§9 argument is a *cost model choosing among structures*;
//! for the model to arbitrate at query time, every structure must answer
//! the same [`RangeQuery`] with the same [`QueryOutcome`] and advertise an
//! analytic [`RangeEngine::cost`] per op in the paper's element-access
//! unit.
//!
//! A query is resolved into a [`Region`] once, at whichever entry point it
//! arrives through. Below that point every layer passes the `&Region`:
//! an engine answers it with one [`RangeEngine::read`] per op, under the
//! [`BudgetMeter`] of the query, and prices it with one
//! [`RangeEngine::cost`] per op.
//! `CubeIndex`, `PlannedIndex`, `ExtendedCube`, the naive baselines, the
//! tree-sum baseline, and the sparse engines all implement this trait, so
//! [`crate::AdaptiveRouter`] can hold them as trait objects and pick the
//! argmin.

use crate::EngineError;
use olap_aggregate::NumericValue;
use olap_array::{BudgetMeter, DenseArray, Region, Shape};
use olap_prefix_sum::batch::CellUpdate;
use olap_query::{AccessStats, QueryOutcome, RangeQuery};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The read operations an engine may serve. Updates are not an op: an
/// engine takes them through [`RangeEngine::apply_updates`], whose
/// default refuses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineOp {
    /// Range sum (and the aggregates derived from it).
    Sum,
    /// Range max with argmax.
    Max,
    /// Range min with argmin.
    Min,
}

impl EngineOp {
    /// The operation's method name, for error messages.
    pub fn name(self) -> &'static str {
        match self {
            EngineOp::Sum => "range_sum",
            EngineOp::Max => "range_max",
            EngineOp::Min => "range_min",
        }
    }
}

impl fmt::Display for EngineOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The successor snapshot produced by a copy-on-write update: the derived
/// engine plus the access statistics of deriving it.
///
/// [`RangeEngine::apply_updates`] never mutates the receiver — it returns
/// one of these, and the caller (a [`crate::VersionCell`], the
/// [`crate::AdaptiveRouter`], or a server shard) installs the successor
/// atomically while in-flight readers finish on the old snapshot.
pub struct Derived<V> {
    /// The updated engine. The receiver is untouched and keeps answering
    /// queries until the last reference to it drops.
    pub engine: Box<dyn RangeEngine<V>>,
    /// Cost of applying the batch, in the paper's element-access unit.
    pub stats: AccessStats,
}

impl<V> Derived<V> {
    /// Pairs a derived engine with its derivation cost.
    pub fn new(engine: Box<dyn RangeEngine<V>>, stats: AccessStats) -> Self {
        Derived { engine, stats }
    }
}

impl<V> fmt::Debug for Derived<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Derived")
            .field("engine", &self.engine.label())
            .field("stats", &self.stats)
            .finish()
    }
}

/// One update batch, worked out once for a whole stack: the post-batch
/// base cube — the batch's only whole-cube copy — and one `new ⊖ old`
/// value-to-add per distinct cell (a cell set twice keeps its last value).
///
/// [`crate::AdaptiveRouter::apply_updates`] derives it from the first
/// healthy engine's [`RangeEngine::base`] and hands it to every engine
/// through [`RangeEngine::derive_onto`] and to the degradation tier
/// through [`crate::DegradeTier::derive_onto`]: an engine or tier whose
/// base *is* the image's source cube adopts [`BatchImage::cube`] (an
/// engine also feeds [`BatchImage::deltas`] to its own structures); any
/// other derives privately from [`BatchImage::updates`].
pub struct BatchImage<'a, V> {
    updates: &'a [(Vec<usize>, V)],
    pre: &'a Arc<DenseArray<V>>,
    cube: Arc<DenseArray<V>>,
    deltas: Vec<CellUpdate<V>>,
}

impl<'a, V: NumericValue> BatchImage<'a, V> {
    /// Applies `updates` (absolute values, later ones winning) to a copy
    /// of `base` and composes the per-cell deltas against `base`.
    ///
    /// # Errors
    /// Index validation; nothing is copied for an invalid batch.
    pub fn derive(
        base: &'a Arc<DenseArray<V>>,
        updates: &'a [(Vec<usize>, V)],
    ) -> Result<Self, EngineError> {
        for (idx, _) in updates {
            base.shape().check_index(idx)?;
        }
        let mut cube = DenseArray::clone(base);
        let mut touched: BTreeMap<usize, &[usize]> = BTreeMap::new();
        for (idx, v) in updates {
            let flat = base.shape().flatten(idx);
            *cube.get_flat_mut(flat) = v.clone();
            touched.insert(flat, idx);
        }
        let deltas = touched
            .into_iter()
            .map(|(flat, idx)| {
                // Wrapping: Z/2^w is the paper's group, so a delta that
                // overflows still moves every sum by the true difference.
                let delta = cube
                    .get_flat(flat)
                    .clone()
                    .wrapping_sub(base.get_flat(flat).clone());
                CellUpdate::new(idx, delta)
            })
            .collect();
        Ok(BatchImage {
            updates,
            pre: base,
            cube: Arc::new(cube),
            deltas,
        })
    }
}

impl<V> BatchImage<'_, V> {
    /// The batch as submitted: `(index, new value)`, duplicates included.
    pub fn updates(&self) -> &[(Vec<usize>, V)] {
        self.updates
    }

    /// The post-batch base cube.
    pub fn cube(&self) -> &Arc<DenseArray<V>> {
        &self.cube
    }

    /// One `new ⊖ old` value-to-add per distinct updated cell, in
    /// row-major cell order.
    pub fn deltas(&self) -> &[CellUpdate<V>] {
        &self.deltas
    }

    /// Whether `base` is the very cube (same allocation) this image was
    /// derived from — the condition for adopting [`BatchImage::cube`].
    pub fn is_over(&self, base: &Arc<DenseArray<V>>) -> bool {
        Arc::ptr_eq(self.pre, base)
    }
}

/// The derive body of the engines that hold the base cube behind an `Arc`:
/// clone the engine (reference bumps plus its own tree levels) and let
/// `adopt` bring the clone to the post-batch state. An engine over some
/// other cube than the image's source — its own copy, or a batch behind —
/// derives an image of its own, so it stays consistent with itself.
pub(crate) fn derive_shared<V, E>(
    engine: &E,
    base: &Arc<DenseArray<V>>,
    image: &BatchImage<'_, V>,
    adopt: impl FnOnce(&mut E, &BatchImage<'_, V>) -> Result<AccessStats, EngineError>,
) -> Result<Derived<V>, EngineError>
where
    V: NumericValue,
    E: RangeEngine<V> + Clone + 'static,
{
    if !image.is_over(base) {
        return engine.derive_onto(&BatchImage::derive(base, image.updates())?);
    }
    let obs = crate::telemetry::UpdateObservation::start();
    let mut next = engine.clone();
    let result = adopt(&mut next, image);
    obs.finish(|| engine.label(), image.updates().len(), &result);
    Ok(Derived::new(Box::new(next), result?))
}

/// Whether `engine` serves `op` at all: its price of the whole cube.
/// Only a query that failed to resolve asks, to tell an op the engine
/// never serves from a bad query; a resolved query learns it from
/// [`RangeEngine::cost`] or [`RangeEngine::read`] directly.
pub(crate) fn serves<V, E: RangeEngine<V> + ?Sized>(engine: &E, op: EngineOp) -> bool {
    engine.cost(&engine.shape().full_region(), op).is_some()
}

/// What every provided `&RangeQuery` method does: resolve the query
/// against the engine's shape and answer it with one unmetered
/// [`RangeEngine::read`]. A query that does not resolve reports
/// [`EngineError::Unsupported`] for an op the engine never serves, and
/// its validation error otherwise.
fn read_query<V, E: RangeEngine<V> + ?Sized>(
    engine: &E,
    query: &RangeQuery,
    op: EngineOp,
) -> Result<QueryOutcome<V>, EngineError> {
    match query.to_region(engine.shape()) {
        Ok(region) => engine.read(&region, op, &BudgetMeter::unlimited()),
        Err(e) if serves(engine, op) => Err(e.into()),
        Err(_) => Err(EngineError::unsupported(engine.label(), op.name())),
    }
}

/// A queryable cube backend: the lingua franca between structures, the
/// adaptive router, benches, and the CLI.
///
/// The trait is object safe; routers hold `Box<dyn RangeEngine<V>>`. An
/// engine implements two query methods over a resolved [`Region`] and an
/// [`EngineOp`]: one price, [`RangeEngine::cost`], and one
/// [`RangeEngine::read`]. An op the engine does not serve has no price
/// (`None`) and its read fails with [`EngineError::Unsupported`]. The
/// `&RangeQuery` methods ([`RangeEngine::estimate`],
/// [`RangeEngine::range_sum`], [`RangeEngine::range_max`],
/// [`RangeEngine::range_min`]) are provided: they resolve the query once
/// and forward it.
///
/// # Snapshot semantics
///
/// Engines are **immutable snapshots**: every query takes `&self` and the
/// trait is `Send + Sync`, so one snapshot can serve any number of
/// threads. Updates never mutate in place — [`RangeEngine::apply_updates`]
/// *derives* a successor engine ([`Derived`]) that shares every `Arc`ed
/// structure the batch leaves alone with the receiver, and version cells
/// install the successor atomically ([`crate::VersionCell`]). Concrete
/// types additionally keep an inherent `&mut self`
/// `apply_updates_in_place` for single-owner callers that do not need
/// snapshot isolation.
pub trait RangeEngine<V>: Send + Sync {
    /// A short human-readable label naming the engine and its tuning
    /// (e.g. `cube-index(blocked b=8)`), used by `explain` output.
    fn label(&self) -> String;

    /// The shape of the base cube the engine answers queries over.
    fn shape(&self) -> &Shape;

    /// Predicted cost of reading `op` over `region`, in the paper's unit
    /// (elements accessed), from the analytic model of the structure
    /// that answers `op` (`olap_planner::cost`): Equation 3 for a
    /// (blocked) prefix-sum read, the §8 tree cost for a §6 tree walk
    /// (capped at the region's volume), and the volume for a scan.
    /// `None` when the engine does not serve `op` on any region. Pricing
    /// allocates nothing.
    ///
    /// The router compares these values as they are — nothing rescales
    /// them — so a cost is only as good as the model it computes; the
    /// router reports the drift of observed accesses from it.
    fn cost(&self, region: &Region, op: EngineOp) -> Option<f64>;

    /// The engine's one read: answers `op` over `region` with its
    /// kernel's metered read, under one [`olap_query::QueryCtx`] over
    /// `meter`. The kernel checks and charges the meter at its own
    /// checkpoints as it walks, so an interrupt lands *inside* the
    /// computation; on an `Ok` read the meter has been charged exactly
    /// the outcome's [`QueryOutcome::cost`].
    ///
    /// # Errors
    /// Region validation, [`EngineError::Unsupported`] for an op without
    /// a [`RangeEngine::cost`], or a budget interrupt
    /// ([`EngineError::DeadlineExceeded`], [`EngineError::BudgetExhausted`],
    /// [`EngineError::Cancelled`]).
    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<V>, EngineError>;

    /// [`RangeEngine::cost`] of a sum over the query's region, or `+∞`
    /// (ranked last) when the query does not resolve against
    /// [`RangeEngine::shape`] or the engine serves no sums.
    fn estimate(&self, query: &RangeQuery) -> f64 {
        query
            .to_region(self.shape())
            .ok()
            .and_then(|region| self.cost(&region, EngineOp::Sum))
            .unwrap_or(f64::INFINITY)
    }

    /// Answers a range-sum query.
    ///
    /// # Errors
    /// [`EngineError::Unsupported`], or query validation.
    fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        read_query(self, query, EngineOp::Sum)
    }

    /// Answers a range-max query (argmax + value).
    ///
    /// # Errors
    /// [`EngineError::Unsupported`], or query validation.
    fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        read_query(self, query, EngineOp::Max)
    }

    /// Answers a range-min query (argmin + value).
    ///
    /// # Errors
    /// [`EngineError::Unsupported`], or query validation.
    fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        read_query(self, query, EngineOp::Min)
    }

    /// Derives a successor engine with a batch of **absolute-value**
    /// updates `(index, new value)` applied, leaving the receiver
    /// untouched as a live snapshot for in-flight readers. Later updates
    /// to the same cell win.
    ///
    /// Engines over an `Arc`ed base cube go through a [`BatchImage`]: one
    /// copy of the cube, one of each array the paper's maintenance writes
    /// into (`P` for Theorem 2's regions, the tree levels for §7's tag
    /// protocol and the sum tree's paths); nothing is rebuilt.
    ///
    /// # Errors
    /// Index validation, or [`EngineError::Unsupported`] from this
    /// default: it is how an engine says it takes no updates.
    fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<Derived<V>, EngineError> {
        let _ = updates;
        Err(EngineError::unsupported(self.label(), "apply_updates"))
    }

    /// The base cube the engine reads at query time, when it holds one
    /// behind an `Arc` that a whole stack can share.
    fn base(&self) -> Option<&Arc<DenseArray<V>>> {
        None
    }

    /// [`RangeEngine::apply_updates`] for a batch whose [`BatchImage`]
    /// exists: an engine over the image's source cube adopts the image's
    /// cube instead of copying its own. The default applies the raw batch.
    ///
    /// # Errors
    /// As [`RangeEngine::apply_updates`].
    fn derive_onto(&self, image: &BatchImage<'_, V>) -> Result<Derived<V>, EngineError> {
        self.apply_updates(image.updates())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names() {
        assert_eq!(EngineOp::Sum.name(), "range_sum");
        assert_eq!(EngineOp::Min.to_string(), "range_min");
    }
}
