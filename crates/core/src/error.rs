//! Error type shared by the pluggable-parallelisation crates.

use std::fmt;
use std::io;

/// Errors produced by the pluggable-parallelisation runtime family.
#[derive(Debug)]
pub enum PparError {
    /// A plan referenced a join point, field or method that the running
    /// program never announced (e.g. `ScatterBefore<Do, G>` but no data named
    /// `G` was allocated through the context).
    UnknownName {
        /// What kind of name was looked up (`field`, `method`, `loop`, ...).
        kind: &'static str,
        /// The unresolved name.
        name: String,
    },
    /// A plan combined plugs in an unsupported way.
    InvalidPlan(String),
    /// Checkpoint data was missing, truncated or failed checksum validation.
    CorruptCheckpoint(String),
    /// Version/format mismatch in persisted state.
    FormatMismatch {
        /// What was expected.
        expected: String,
        /// What was found.
        found: String,
    },
    /// The requested adaptation is not possible (e.g. contracting below one
    /// line of execution, or expanding past the topology size).
    InvalidAdaptation(String),
    /// A network fabric failure: a peer process died, a stream corrupted,
    /// or a receive timed out (real multi-process deployments only — the
    /// simulated fabric never fails).
    Network(String),
    /// An I/O failure while persisting or loading state.
    Io(io::Error),
    /// A construct contract was violated (e.g. `single` called from outside a
    /// region, mismatched barrier participation, overlapping disjoint writes).
    ContractViolation(String),
}

impl fmt::Display for PparError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PparError::UnknownName { kind, name } => {
                write!(f, "unknown {kind} name: {name:?}")
            }
            PparError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            PparError::CorruptCheckpoint(msg) => write!(f, "corrupt checkpoint: {msg}"),
            PparError::FormatMismatch { expected, found } => {
                write!(f, "format mismatch: expected {expected}, found {found}")
            }
            PparError::InvalidAdaptation(msg) => write!(f, "invalid adaptation: {msg}"),
            PparError::Network(msg) => write!(f, "network error: {msg}"),
            PparError::Io(e) => write!(f, "i/o error: {e}"),
            PparError::ContractViolation(msg) => write!(f, "contract violation: {msg}"),
        }
    }
}

/// A copy of the error: for a failure one line of execution meets and the
/// launcher reports. An I/O error's copy keeps its kind and its message.
impl Clone for PparError {
    fn clone(&self) -> Self {
        match self {
            PparError::UnknownName { kind, name } => PparError::UnknownName {
                kind,
                name: name.clone(),
            },
            PparError::InvalidPlan(msg) => PparError::InvalidPlan(msg.clone()),
            PparError::CorruptCheckpoint(msg) => PparError::CorruptCheckpoint(msg.clone()),
            PparError::FormatMismatch { expected, found } => PparError::FormatMismatch {
                expected: expected.clone(),
                found: found.clone(),
            },
            PparError::InvalidAdaptation(msg) => PparError::InvalidAdaptation(msg.clone()),
            PparError::Network(msg) => PparError::Network(msg.clone()),
            PparError::Io(e) => PparError::Io(io::Error::new(e.kind(), e.to_string())),
            PparError::ContractViolation(msg) => PparError::ContractViolation(msg.clone()),
        }
    }
}

impl std::error::Error for PparError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PparError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PparError {
    fn from(e: io::Error) -> Self {
        PparError::Io(e)
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, PparError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_each_variant() {
        let cases: Vec<(PparError, &str)> = vec![
            (
                PparError::UnknownName {
                    kind: "field",
                    name: "G".into(),
                },
                "unknown field name: \"G\"",
            ),
            (PparError::InvalidPlan("x".into()), "invalid plan: x"),
            (
                PparError::CorruptCheckpoint("bad crc".into()),
                "corrupt checkpoint: bad crc",
            ),
            (
                PparError::FormatMismatch {
                    expected: "v1".into(),
                    found: "v9".into(),
                },
                "format mismatch: expected v1, found v9",
            ),
            (
                PparError::InvalidAdaptation("shrink<1".into()),
                "invalid adaptation: shrink<1",
            ),
            (
                PparError::Network("peer 2 down".into()),
                "network error: peer 2 down",
            ),
            (
                PparError::ContractViolation("overlap".into()),
                "contract violation: overlap",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn a_copy_says_what_the_error_says() {
        let io: PparError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        let copy = io.clone();
        assert_eq!(copy.to_string(), io.to_string());
        assert!(matches!(copy, PparError::Io(e) if e.kind() == io::ErrorKind::NotFound));
        let crc = PparError::CorruptCheckpoint("CRC mismatch".into());
        assert_eq!(crc.clone().to_string(), crc.to_string());
    }

    #[test]
    fn io_error_converts_and_sources() {
        let err: PparError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(err.to_string().contains("gone"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
