use std::error::Error;
use std::fmt;

use revsynth_perm::Perm;

/// Error returned by [`Synthesizer`](crate::Synthesizer) methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The function moves a point outside the synthesizer's `2ⁿ`-point
    /// domain (e.g. a genuine 4-wire function given to a 3-wire
    /// synthesizer).
    DomainMismatch {
        /// The synthesizer's wire count.
        wires: usize,
        /// A point outside the domain that the function moves.
        moved_point: u8,
    },
    /// No circuit of at most `limit` gates exists (or the tables are too
    /// shallow to find one; the searchable bound is `k + deepest list`).
    SizeExceedsLimit {
        /// The function that could not be synthesized.
        function: Perm,
        /// The size limit that was exhausted.
        limit: usize,
    },
    /// The search tables contradict themselves: a stored gate record is
    /// malformed, peeling a stored function does not terminate, or an
    /// answer fails its certificate (it does not compute the query, or
    /// its cost is not the one the search proved). A verified store never
    /// does this; a damaged store mapped through the fast load path can.
    CorruptTables {
        /// The function being synthesized.
        function: Perm,
        /// Which check failed.
        detail: &'static str,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::DomainMismatch { wires, moved_point } => write!(
                f,
                "function moves point {moved_point}, outside the {wires}-wire domain"
            ),
            SynthesisError::SizeExceedsLimit { function, limit } => write!(
                f,
                "no circuit with at most {limit} gates found for {function}"
            ),
            SynthesisError::CorruptTables { function, detail } => write!(
                f,
                "search tables are corrupt ({detail}) while synthesizing {function}"
            ),
        }
    }
}

impl Error for SynthesisError {}
