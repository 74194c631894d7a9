//! Error types for trace message selection.

use std::error::Error;
use std::fmt;

/// Error raised during trace message selection.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SelectError {
    /// The trace buffer width was zero.
    ZeroWidthBuffer,
    /// The interleaved flow uses no messages, so there is nothing to select.
    NoMessages,
    /// More candidate combinations than `limit` would have to be
    /// materialized: by [`enumerate_combinations`](crate::enumerate_combinations),
    /// or by Step 2's search (the [`Selector`](crate::Selector) and
    /// [`partitioned_select`](crate::partitioned_select)) when that many
    /// combinations lie within rounding error of the best gain.
    CombinationLimitExceeded {
        /// The maximum number of candidate combinations.
        limit: usize,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::ZeroWidthBuffer => write!(f, "trace buffer width must be positive"),
            SelectError::NoMessages => {
                write!(f, "interleaved flow has no messages to select from")
            }
            SelectError::CombinationLimitExceeded { limit } => {
                write!(f, "candidate combinations exceed the limit of {limit}")
            }
        }
    }
}

impl Error for SelectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_period() {
        for e in [
            SelectError::ZeroWidthBuffer,
            SelectError::NoMessages,
            SelectError::CombinationLimitExceeded { limit: 10 },
        ] {
            let s = e.to_string();
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }
}
