//! The rule passes. Each exposes `check(…) -> Vec<Finding>`; the
//! orchestration in [`crate::analyze`] runs them all and applies allows.
//! The first four are lexical/outline passes; `budget`, `pins`, `spans`,
//! and `estimates` are the protocol rules built on [`crate::callgraph`]
//! and [`crate::cfg`].

pub mod atomics;
pub mod budget;
pub mod error_surface;
pub mod estimates;
pub mod locks;
pub mod panics;
pub mod pins;
pub mod spans;
