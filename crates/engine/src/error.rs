//! The one error vocabulary of the engine layer.
//!
//! Every backend behind the [`crate::RangeEngine`] trait reports failures
//! through [`EngineError`]; the per-crate error enums (`ArrayError`,
//! `MaxTreeError`, `CostError`) convert in via `From`, so `?` works across
//! all layers, and [`std::error::Error::source`] exposes the wrapped
//! error for callers walking the chain.
//!
//! The fault-tolerance layer (PR 4) adds three groups of variants:
//!
//! - **interrupts** — [`EngineError::DeadlineExceeded`],
//!   [`EngineError::BudgetExhausted`], [`EngineError::Cancelled`]: a
//!   budgeted query was cut off cooperatively. The answer was not
//!   computed, but the engine is healthy; the router reports these
//!   without failing over.
//! - **engine faults** — [`EngineError::EnginePanicked`],
//!   [`EngineError::Backend`]: the engine itself misbehaved. The router
//!   fails over to the next candidate and counts the fault against the
//!   engine's circuit breaker.
//! - everything else (validation, unsupported ops) is the caller's
//!   problem and triggers neither failover nor breaker counting.

use olap_array::{ArrayError, Interrupt};
use olap_planner::CostError;
use olap_range_max::MaxTreeError;
use std::fmt;

/// Errors from building, querying, or updating any range engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Shape/region validation failures.
    Array(ArrayError),
    /// Range-max tree failures.
    MaxTree(MaxTreeError),
    /// Cost-model failures (degenerate fanouts, …).
    Cost(CostError),
    /// The engine does not serve the requested operation: a read op with
    /// no [`crate::RangeEngine::cost`], or updates on an engine that
    /// takes none.
    Unsupported {
        /// The engine's label.
        engine: String,
        /// The operation asked for.
        op: &'static str,
    },
    /// A rolling window that is zero or longer than the axis range.
    WindowTooLarge {
        /// The requested window width.
        window: usize,
        /// The length of the axis range it must fit in.
        len: usize,
    },
    /// The router holds no engine able to answer the requested operation.
    NoCandidate {
        /// The operation asked for.
        op: &'static str,
    },
    /// The query's deadline elapsed before the answer was complete.
    DeadlineExceeded {
        /// Nanoseconds elapsed when the deadline check fired.
        elapsed_ns: u64,
        /// The configured deadline, in nanoseconds.
        limit_ns: u64,
    },
    /// The query's cell-access budget ran out before the answer was
    /// complete.
    BudgetExhausted {
        /// Accesses charged when the budget check fired.
        spent: u64,
        /// The configured access cap.
        limit: u64,
    },
    /// The query's [`olap_array::CancellationToken`] was cancelled.
    Cancelled,
    /// The engine panicked during dispatch. The panic was contained at
    /// the router boundary; the engine is poisoned and never re-entered.
    EnginePanicked {
        /// The engine's label.
        engine: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An engine-internal failure that is not a validation error — the
    /// fault-injection harness and external backends report through
    /// this. Counts against the engine's circuit breaker.
    Backend {
        /// The engine's label.
        engine: String,
        /// What went wrong.
        message: String,
    },
}

impl EngineError {
    /// A [`EngineError::Unsupported`] for the given engine and operation.
    pub fn unsupported(engine: impl Into<String>, op: &'static str) -> Self {
        EngineError::Unsupported {
            engine: engine.into(),
            op,
        }
    }

    /// A [`EngineError::Backend`] for the given engine.
    pub fn backend(engine: impl Into<String>, message: impl Into<String>) -> Self {
        EngineError::Backend {
            engine: engine.into(),
            message: message.into(),
        }
    }

    /// True when this error means the *engine* misbehaved (panic, backend
    /// fault, or a capability lie surfacing as `Unsupported` at dispatch)
    /// — the router should fail over and count the fault against the
    /// engine's circuit breaker.
    pub fn is_engine_fault(&self) -> bool {
        matches!(
            self,
            EngineError::EnginePanicked { .. }
                | EngineError::Backend { .. }
                | EngineError::Unsupported { .. }
        )
    }

    /// True when this error is a cooperative budget interrupt (deadline,
    /// access cap, cancellation). The engine is healthy; the router
    /// reports the kill and returns it without failover.
    pub fn is_interrupt(&self) -> bool {
        matches!(
            self,
            EngineError::DeadlineExceeded { .. }
                | EngineError::BudgetExhausted { .. }
                | EngineError::Cancelled
        )
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Array(e) => write!(f, "{e}"),
            EngineError::MaxTree(e) => write!(f, "{e}"),
            EngineError::Cost(e) => write!(f, "{e}"),
            EngineError::Unsupported { engine, op } => {
                write!(f, "engine {engine:?} does not support {op}")
            }
            EngineError::WindowTooLarge { window, len } => {
                write!(
                    f,
                    "rolling window must be ≥ 1 and ≤ the axis range length {len}, got {window}"
                )
            }
            EngineError::NoCandidate { op } => {
                write!(f, "no routed engine supports {op}")
            }
            EngineError::DeadlineExceeded {
                elapsed_ns,
                limit_ns,
            } => write!(
                f,
                "query deadline of {limit_ns} ns exceeded after {elapsed_ns} ns"
            ),
            EngineError::BudgetExhausted { spent, limit } => write!(
                f,
                "query access budget of {limit} exhausted after {spent} accesses"
            ),
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::EnginePanicked { engine, message } => {
                write!(f, "engine {engine:?} panicked: {message}")
            }
            EngineError::Backend { engine, message } => {
                write!(f, "engine {engine:?} backend failure: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Array(e) => Some(e),
            EngineError::MaxTree(e) => Some(e),
            EngineError::Cost(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArrayError> for EngineError {
    fn from(e: ArrayError) -> Self {
        match e {
            // Budget interrupts surfacing from deep kernels become the
            // engine's typed interrupt variants, not wrapped ArrayErrors.
            ArrayError::Interrupted(i) => i.into(),
            other => EngineError::Array(other),
        }
    }
}

impl From<Interrupt> for EngineError {
    fn from(i: Interrupt) -> Self {
        match i {
            Interrupt::DeadlineExceeded {
                elapsed_ns,
                limit_ns,
            } => EngineError::DeadlineExceeded {
                elapsed_ns,
                limit_ns,
            },
            Interrupt::BudgetExhausted { spent, limit } => {
                EngineError::BudgetExhausted { spent, limit }
            }
            Interrupt::Cancelled => EngineError::Cancelled,
        }
    }
}

impl From<MaxTreeError> for EngineError {
    fn from(e: MaxTreeError) -> Self {
        match e {
            // As for `ArrayError`: a budget interrupt from the §6 walk is
            // the engine's typed interrupt.
            MaxTreeError::Array(ArrayError::Interrupted(i)) => i.into(),
            other => EngineError::MaxTree(other),
        }
    }
}

impl From<CostError> for EngineError {
    fn from(e: CostError) -> Self {
        EngineError::Cost(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_and_messages() {
        let e: EngineError = ArrayError::EmptyShape.into();
        assert!(matches!(e, EngineError::Array(_)));
        let e: EngineError = CostError::FanoutTooSmall { b: 1 }.into();
        assert!(e.to_string().contains("fanout"));
        let e = EngineError::unsupported("naive scan", "range_max");
        assert!(e.to_string().contains("range_max"), "{e}");
        let e = EngineError::WindowTooLarge { window: 9, len: 4 };
        assert!(e.to_string().contains("got 9"), "{e}");
        let e = EngineError::NoCandidate { op: "range_min" };
        assert!(e.to_string().contains("range_min"), "{e}");
    }

    #[test]
    fn source_exposes_the_wrapped_error() {
        let e: EngineError = ArrayError::EmptyShape.into();
        let src = e.source().expect("Array wraps a source");
        assert_eq!(src.to_string(), ArrayError::EmptyShape.to_string());
        let e: EngineError = CostError::FanoutTooSmall { b: 1 }.into();
        assert!(e.source().is_some());
        assert!(EngineError::Cancelled.source().is_none());
        assert!(EngineError::backend("x", "boom").source().is_none());
    }

    #[test]
    fn interrupts_convert_to_typed_variants() {
        let e: EngineError = ArrayError::Interrupted(Interrupt::Cancelled).into();
        assert_eq!(e, EngineError::Cancelled);
        let e: EngineError = MaxTreeError::from(Interrupt::Cancelled).into();
        assert_eq!(e, EngineError::Cancelled);
        let e: EngineError = Interrupt::BudgetExhausted { spent: 9, limit: 8 }.into();
        assert!(matches!(
            e,
            EngineError::BudgetExhausted { spent: 9, limit: 8 }
        ));
        let e: EngineError = Interrupt::DeadlineExceeded {
            elapsed_ns: 5,
            limit_ns: 1,
        }
        .into();
        assert!(e.is_interrupt() && !e.is_engine_fault());
    }

    #[test]
    fn fault_classification_partitions_the_variants() {
        let fault = EngineError::backend("e", "io");
        assert!(fault.is_engine_fault() && !fault.is_interrupt());
        let panic = EngineError::EnginePanicked {
            engine: "e".into(),
            message: "boom".into(),
        };
        assert!(panic.is_engine_fault());
        let lie = EngineError::unsupported("e", "range_max");
        assert!(lie.is_engine_fault());
        let validation: EngineError = ArrayError::EmptyShape.into();
        assert!(!validation.is_engine_fault() && !validation.is_interrupt());
    }
}
