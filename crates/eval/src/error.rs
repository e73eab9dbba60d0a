//! Typed errors of the experiment harness.
//!
//! Experiments race rosters of backends; the two ways that can go wrong
//! — a backend missing from the roster a derived table needs, or an
//! engine failing underneath an experiment — used to be `panic!`s and
//! are now [`EvalError`] values every driver propagates.

use core::fmt;

use tkspmv::EngineError;

/// Why an experiment driver could not produce its table.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EvalError {
    /// A derived quantity needs a backend that is not in the roster the
    /// experiment ran (e.g. the power table asking a speedup row for
    /// `fpga-20b`).
    MissingBackend {
        /// The backend the caller asked for.
        backend: String,
        /// The backends actually present, in roster order.
        roster: Vec<String>,
    },
    /// An engine failed while the experiment drove it.
    Engine(EngineError),
}

impl EvalError {
    /// A [`EvalError::MissingBackend`] naming what was asked for and
    /// what the roster holds.
    pub(crate) fn missing_backend(backend: impl Into<String>, roster: Vec<String>) -> Self {
        EvalError::MissingBackend {
            backend: backend.into(),
            roster,
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingBackend { backend, roster } => write!(
                f,
                "backend `{backend}` missing from the roster [{}]",
                roster.join(", ")
            ),
            EvalError::Engine(e) => write!(f, "engine failed during the experiment: {e}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Engine(e) => Some(e),
            EvalError::MissingBackend { .. } => None,
        }
    }
}

impl From<EngineError> for EvalError {
    fn from(e: EngineError) -> Self {
        EvalError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_backend_and_roster() {
        let e = EvalError::missing_backend("fpga-20b", vec!["cpu".into(), "gpu-f32".into()]);
        let msg = e.to_string();
        assert!(
            msg.contains("fpga-20b") && msg.contains("cpu, gpu-f32"),
            "{msg}"
        );
    }

    #[test]
    fn engine_errors_convert_and_chain() {
        use std::error::Error;
        let e = EvalError::from(EngineError::empty_matrix());
        assert!(matches!(e, EvalError::Engine(_)));
        assert!(e.source().is_some());
        assert!(EvalError::missing_backend("x", vec![]).source().is_none());
    }
}
