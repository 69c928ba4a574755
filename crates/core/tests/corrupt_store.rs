//! A damaged store must never crash a query.
//!
//! The v5 fast load maps a store and defers its bulk section checksums,
//! so a flipped byte in the hash table's value section (the one-byte
//! boundary-gate records) reaches the engine unverified. Every query on
//! such a store must end in an answer that certifies itself (its circuit
//! computes the query) or in [`SynthesisError::CorruptTables`] — never a
//! panic and never any other error.

use std::ops::Range;
use std::path::PathBuf;

use revsynth_bfs::SearchTables;
use revsynth_core::{SearchOptions, SynthesisError, Synthesizer};
use revsynth_perm::Perm;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("revsynth-corrupt-{}-{name}", std::process::id()))
}

/// The byte range of the fn-values section (S3) of a v5 file, read from
/// the section table at the end of its meta block: the header is 52 bytes
/// plus one byte per library gate, the meta block 10 fixed words, one
/// `(cost, count)` pair per level, then `(offset, len, fnv)` per section.
fn fn_values_section(bytes: &[u8]) -> Range<usize> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let meta = 52 + usize::from(u16::from_le_bytes([bytes[10], bytes[11]]));
    let descriptor = meta + 8 * 10 + 16 * word(meta) + 24 * 3;
    let offset = word(descriptor);
    offset..offset + word(descriptor + 8)
}

/// Every 29th stored representative of sizes 1..=4 (the fast path), and
/// every 37th size-4 representative followed by one gate where that makes
/// size 5 (a meet-in-the-middle hit on level 1, then hit resolution).
fn queries(tables: &SearchTables) -> Vec<Perm> {
    let mut out: Vec<Perm> = (1..=4)
        .flat_map(|i| tables.level(i).iter().step_by(29).copied())
        .collect();
    let gates = tables.level(1);
    out.extend(
        tables
            .level(4)
            .iter()
            .step_by(37)
            .enumerate()
            .map(|(j, &rep)| rep.then(gates[j % gates.len()]))
            .filter(|&f| tables.size_of(f).is_none()),
    );
    out
}

#[test]
fn flipped_gate_records_give_certified_answers_or_typed_errors() {
    let path = temp_path("fn-values");
    SearchTables::generate(4, 4).save_v5(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let section = fn_values_section(&good);
    let clean = SearchTables::load(&path).unwrap();
    assert_eq!(
        clean.table().slot_arrays().1,
        &good[section.clone()],
        "the section table must locate the fn values"
    );
    let fs = queries(&clean);
    let mitm = fs.iter().filter(|&&f| clean.size_of(f).is_none()).count();
    assert!(mitm > 25, "only {mitm} queries reach the scan");
    drop(clean);

    let opts = SearchOptions::new().threads(1);
    let (mut copies, mut damaged) = (0u32, 0u32);
    for at in section.step_by(61) {
        let mut bytes = good.clone();
        bytes[at] ^= 1 << (at % 8);
        std::fs::write(&path, &bytes).unwrap();
        let synth = Synthesizer::new(SearchTables::load(&path).unwrap());
        let serial = fs.iter().map(|&f| synth.synthesize_within(f, 8));
        let mut corrupt = 0;
        for (j, (batched, serial)) in synth
            .synthesize_many(&fs, &opts)
            .into_iter()
            .zip(serial)
            .enumerate()
        {
            for answer in [batched, serial] {
                match answer {
                    Ok(syn) => assert_eq!(syn.circuit.perm(4), fs[j], "byte {at}, query {j}"),
                    Err(SynthesisError::CorruptTables { function, .. }) => {
                        assert_eq!(function, fs[j], "byte {at}, query {j}");
                        corrupt += 1;
                    }
                    Err(e) => panic!("byte {at}, query {j}: unexpected {e}"),
                }
            }
        }
        copies += 1;
        damaged += u32::from(corrupt > 0);
    }
    std::fs::remove_file(&path).ok();
    assert!(copies > 200, "only {copies} copies");
    assert!(damaged > 0, "no flip reached a queried record");
}
