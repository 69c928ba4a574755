//! One-byte encoding of the per-representative gate record.
//!
//! The hash table stores a single byte per canonical representative: the
//! first or last gate of one minimal circuit (paper §3.2: "we store the
//! last or the first gate of a minimal circuit for each canonical
//! representative ... this information is clearly sufficient to
//! reconstruct the entire circuit").
//!
//! Layout:
//!
//! ```text
//! bit 7      : 1 = a gate is present, 0 = identity marker (byte 0x00)
//! bit 6      : 1 = the gate is the FIRST gate, 0 = the LAST gate
//! bits 5..2  : control wire mask
//! bits 1..0  : target wire
//! ```

use std::fmt;

use revsynth_circuit::Gate;
use revsynth_perm::Perm;

/// The byte stored for the identity function (size 0, no gates).
pub const IDENTITY_BYTE: u8 = 0x00;

/// Decoded form of a stored gate record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredGate {
    /// The representative is the identity (empty circuit).
    Identity,
    /// One boundary gate of a minimal circuit of the representative.
    Gate {
        /// The gate itself (already in the representative's wire frame).
        gate: Gate,
        /// `true` if it is the first gate of the circuit, `false` if the
        /// last.
        is_first: bool,
    },
}

/// A stored byte that decodes to no gate record. A store that passed full
/// verification cannot hold one; a store mapped through the fast load
/// path (which defers the bulk section checksums) can, if its file was
/// damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptRecord {
    /// The representative whose record is malformed.
    pub rep: Perm,
    /// The malformed byte.
    pub byte: u8,
}

impl fmt::Display for CorruptRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed gate record {:#04x} for representative {}",
            self.byte, self.rep
        )
    }
}

impl std::error::Error for CorruptRecord {}

/// Encodes a boundary gate into the table byte.
#[inline]
#[must_use]
pub fn encode_stored(gate: Gate, is_first: bool) -> u8 {
    0x80 | (u8::from(is_first) << 6) | (gate.controls() << 2) | gate.target()
}

/// Decodes a table byte; returns `None` for malformed bytes (anything that
/// is neither the identity marker nor a valid gate — used to detect
/// corrupted store files).
#[must_use]
pub fn decode_stored(byte: u8) -> Option<StoredGate> {
    if byte == IDENTITY_BYTE {
        return Some(StoredGate::Identity);
    }
    if byte & 0x80 == 0 {
        return None;
    }
    let is_first = byte & 0x40 != 0;
    let controls = (byte >> 2) & 0x0F;
    let target = byte & 0x03;
    let gate = Gate::new(controls, target).ok()?;
    Some(StoredGate::Gate { gate, is_first })
}

#[cfg(test)]
mod tests {
    use super::*;
    use revsynth_circuit::GateLib;

    #[test]
    fn roundtrip_every_gate_and_flag() {
        for (_, gate, _) in GateLib::nct(4).iter() {
            for is_first in [false, true] {
                let byte = encode_stored(gate, is_first);
                assert_eq!(
                    decode_stored(byte),
                    Some(StoredGate::Gate { gate, is_first }),
                    "{gate} is_first={is_first}"
                );
            }
        }
    }

    #[test]
    fn identity_roundtrip() {
        assert_eq!(decode_stored(IDENTITY_BYTE), Some(StoredGate::Identity));
    }

    #[test]
    fn encodings_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        seen.insert(IDENTITY_BYTE);
        for (_, gate, _) in GateLib::nct(4).iter() {
            for is_first in [false, true] {
                assert!(seen.insert(encode_stored(gate, is_first)));
            }
        }
        assert_eq!(seen.len(), 1 + 64);
    }

    #[test]
    fn malformed_bytes_rejected() {
        // Bit 7 clear but nonzero.
        assert_eq!(decode_stored(0x01), None);
        // Target listed among controls: target 0, controls containing wire 0.
        let bad = 0x80 | (0b0001 << 2); // target 0 implicit in the low bits
        assert_eq!(decode_stored(bad), None);
    }
}
