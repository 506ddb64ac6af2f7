//! The serving layer's error surface.

use olap_array::ArrayError;
use olap_engine::EngineError;
use std::fmt;

/// Everything that can go wrong building or querying a
/// [`crate::CubeServer`].
#[derive(Debug)]
pub enum ServerError {
    /// The server could not be assembled as configured.
    Config(String),
    /// A query or update batch failed validation against the served
    /// cube's shape, before touching any shard.
    Validation(ArrayError),
    /// A shard's router reported a failure (all failover candidates
    /// exhausted, a budget interrupt, or an update derive error).
    Engine(EngineError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Config(msg) => write!(f, "server configuration: {msg}"),
            ServerError::Validation(e) => write!(f, "validation: {e}"),
            ServerError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Validation(e) => Some(e),
            ServerError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}

impl From<ArrayError> for ServerError {
    fn from(e: ArrayError) -> Self {
        ServerError::Validation(e)
    }
}
