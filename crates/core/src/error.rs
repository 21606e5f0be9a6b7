use std::fmt;

use stepping_data::DataError;
use stepping_nn::NnError;
use stepping_tensor::TensorError;

/// Error type for SteppingNet construction, training and inference.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SteppingError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying neural-network operation failed.
    Nn(NnError),
    /// An underlying dataset operation failed.
    Data(DataError),
    /// A subnet index exceeded the configured subnet count.
    SubnetOutOfRange {
        /// The offending subnet index.
        subnet: usize,
        /// Number of subnets.
        count: usize,
    },
    /// A network was built or mutated in a way that breaks the nesting /
    /// incremental-property invariants.
    InvalidStructure(String),
    /// Configuration of a construction or distillation run is invalid.
    BadConfig(String),
    /// The incremental executor was driven out of order
    /// (e.g. `expand` before `begin`).
    ExecutorState(String),
    /// A worker thread panicked (one of [`crate::eval::evaluate_all`]'s
    /// per-subnet jobs). Carries the panic message.
    Worker(String),
}

impl fmt::Display for SteppingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SteppingError::Tensor(e) => write!(f, "tensor error: {e}"),
            SteppingError::Nn(e) => write!(f, "nn error: {e}"),
            SteppingError::Data(e) => write!(f, "data error: {e}"),
            SteppingError::SubnetOutOfRange { subnet, count } => {
                write!(f, "subnet {subnet} out of range for {count} subnets")
            }
            SteppingError::InvalidStructure(msg) => write!(f, "invalid structure: {msg}"),
            SteppingError::BadConfig(msg) => write!(f, "bad config: {msg}"),
            SteppingError::ExecutorState(msg) => write!(f, "executor state: {msg}"),
            SteppingError::Worker(msg) => write!(f, "worker error: {msg}"),
        }
    }
}

impl std::error::Error for SteppingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SteppingError::Tensor(e) => Some(e),
            SteppingError::Nn(e) => Some(e),
            SteppingError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for SteppingError {
    fn from(e: TensorError) -> Self {
        SteppingError::Tensor(e)
    }
}

impl From<NnError> for SteppingError {
    fn from(e: NnError) -> Self {
        SteppingError::Nn(e)
    }
}

impl From<DataError> for SteppingError {
    fn from(e: DataError) -> Self {
        SteppingError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: SteppingError = TensorError::InvalidArgument("x".into()).into();
        assert!(e.to_string().starts_with("tensor"));
        let e: SteppingError = NnError::BadInput("y".into()).into();
        assert!(e.to_string().starts_with("nn"));
        let e: SteppingError = DataError::BadConfig("z".into()).into();
        assert!(e.to_string().starts_with("data"));
        let e = SteppingError::SubnetOutOfRange {
            subnet: 4,
            count: 3,
        };
        assert!(e.to_string().contains('4'));
        assert!(std::error::Error::source(&e).is_none());
        let e = SteppingError::Worker("boom".into());
        assert_eq!(e.to_string(), "worker error: boom");
    }
}
