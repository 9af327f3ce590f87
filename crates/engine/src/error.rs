//! Engine error type.

use std::fmt;

/// Engine result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors raised by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// SQL could not be parsed.
    Parse(String),
    /// Referenced table does not exist.
    UnknownTable(String),
    /// A table with this name already exists.
    TableExists(String),
    /// Column resolution failed (unknown or ambiguous).
    UnknownColumn(String),
    /// Operation not valid for the column's type.
    TypeMismatch(String),
    /// Stored or logged bytes that do not decode to what they claim: a
    /// damaged page chain or image, or a WAL reference that resolves to
    /// no column.
    Corrupt(String),
    /// Anything else (unsupported construct, internal invariant, I/O).
    Other(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(m) => write!(f, "parse error: {m}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            EngineError::TableExists(t) => write!(f, "table already exists: {t}"),
            EngineError::UnknownColumn(c) => write!(f, "unknown or ambiguous column: {c}"),
            EngineError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            EngineError::Corrupt(m) => write!(f, "corrupt {m}"),
            EngineError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<joinboost_sql::ParseError> for EngineError {
    fn from(e: joinboost_sql::ParseError) -> Self {
        EngineError::Parse(e.to_string())
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Other(format!("io error: {e}"))
    }
}
