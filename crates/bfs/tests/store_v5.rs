//! Store v5 (zero-copy mmap) integration tests: mapped tables must
//! answer byte-for-byte like rebuilt v4 tables across the whole 3-wire
//! space, the v4 → v5 upgrade must be atomic and byte-deterministic, and
//! any corruption — torn tail, truncated section, a single flipped bit
//! anywhere in the file — must surface as a typed error, never a panic
//! or an oversized allocation. Mirrors `checkpoint.rs` for the v4 side.

use std::path::PathBuf;

use revsynth_bfs::{GenOptions, SearchTables, StoreErrorKind};
use revsynth_circuit::{CostModel, GateLib};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("revsynth-v5-test-{}-{name}", std::process::id()));
    p
}

/// Structural equality down to every stored boundary byte.
fn assert_tables_identical(a: &SearchTables, b: &SearchTables, what: &str) {
    assert_eq!(a.model(), b.model(), "{what}: model");
    assert_eq!(a.bucket_costs(), b.bucket_costs(), "{what}: bucket costs");
    assert_eq!(a.levels(), b.levels(), "{what}: level lists");
    assert_eq!(a.invariants(), b.invariants(), "{what}: invariant index");
    for level in a.levels() {
        for &rep in level {
            assert_eq!(a.lookup(rep), b.lookup(rep), "{what}: record of {rep}");
        }
    }
}

#[test]
fn mapped_tables_answer_exhaustively_like_v4_loaded_tables() {
    // The acceptance property of the zero-copy path: for every one of
    // the 40,320 3-wire functions, tables served from a borrowed mmap
    // region answer exactly like tables rebuilt from a v4 scan.
    let tables = SearchTables::generate(3, 4);
    let v4 = temp_path("exhaustive-v4");
    let v5 = temp_path("exhaustive-v5");
    tables.save(&v4).unwrap();
    tables.save_v5(&v5).unwrap();
    let from_v4 = SearchTables::load(&v4).unwrap();
    let from_v5 = SearchTables::load(&v5).unwrap();
    std::fs::remove_file(&v4).ok();
    std::fs::remove_file(&v5).ok();

    assert_eq!(from_v4.source_format(), Some(4));
    assert_eq!(from_v5.source_format(), Some(5));
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    assert!(
        from_v5.levels().is_mapped(),
        "v5 load on Linux must actually borrow from the mapping"
    );
    assert_tables_identical(&from_v5, &from_v4, "v5 vs v4");

    let whole_space = revsynth_bfs::reference::full_space_sizes(&GateLib::nct(3));
    assert_eq!(whole_space.len(), 40_320);
    let mut checked = 0u32;
    for &f in whole_space.keys() {
        assert_eq!(from_v5.size_of(f), from_v4.size_of(f), "{f}");
        checked += 1;
    }
    assert_eq!(checked, 40_320);
}

#[test]
fn upgrade_from_checkpointed_v4_preserves_content_and_is_deterministic() {
    let path = temp_path("upgrade");
    let orig = SearchTables::generate_checkpointed(
        GateLib::nct(3),
        CostModel::unit(),
        4,
        &GenOptions::new(),
        &path,
    )
    .unwrap();
    let digest_before = orig.content_digest();

    SearchTables::upgrade(&path).unwrap();
    let once = std::fs::read(&path).unwrap();
    assert_eq!(&once[..8], b"RVSYNTB5");
    let upgraded = SearchTables::load(&path).unwrap();
    assert_eq!(upgraded.source_format(), Some(5));
    assert_eq!(upgraded.content_digest(), digest_before);
    assert_tables_identical(&upgraded, &orig, "v4 → v5 upgrade");

    // Upgrading again is a canonical rewrite: byte-identical.
    SearchTables::upgrade(&path).unwrap();
    let twice = std::fs::read(&path).unwrap();
    assert_eq!(once, twice, "upgrade must be byte-deterministic");

    std::fs::remove_file(&path).ok();
}

#[test]
fn weighted_tables_roundtrip_through_v5() {
    let tables = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), 7);
    let path = temp_path("weighted");
    tables.save_v5(&path).unwrap();
    let loaded = SearchTables::load_validated(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(loaded.is_cost_bucketed());
    assert_eq!(loaded.bucket_costs(), tables.bucket_costs());
    assert_eq!(loaded.cost_reach(), tables.cost_reach());
    assert_tables_identical(&loaded, &tables, "weighted v5");
}

#[test]
fn mapped_tables_extend_like_single_shot() {
    // Extending mapped tables thaws the borrowed arrays into owned ones
    // and must land exactly where an uninterrupted generation lands.
    let path = temp_path("extend");
    SearchTables::generate(3, 2).save_v5(&path).unwrap();
    let mut extended = SearchTables::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    extended.extend_to(4, &GenOptions::new());
    let single = SearchTables::generate(3, 4);
    assert_tables_identical(&extended, &single, "mapped then extended");
}

#[test]
fn resumed_v5_store_is_the_v5_store_of_the_deeper_tables() {
    // Resuming a v5 store extends it in RAM and atomically replaces the
    // file with the canonical v5 store of the deeper tables; a target
    // the store already covers leaves the file alone.
    let path = temp_path("resume");
    let want = temp_path("resume-want");
    SearchTables::generate(3, 2).save_v5(&path).unwrap();
    let shallow = std::fs::read(&path).unwrap();
    SearchTables::resume_checkpointed(&path, 1, &GenOptions::new()).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), shallow, "no-op resume");
    let resumed = SearchTables::resume_checkpointed(&path, 4, &GenOptions::new()).unwrap();
    let single = SearchTables::generate(3, 4);
    single.save_v5(&want).unwrap();
    let (got, want) = (std::fs::read(&path), std::fs::read(&want));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(temp_path("resume-want")).ok();
    assert_eq!(got.unwrap(), want.unwrap(), "resumed v5 bytes");
    assert_tables_identical(&resumed, &single, "resumed v5 tables");
}

#[test]
fn torn_tail_is_a_typed_error() {
    // v5 files end exactly where the layout says; appended bytes mean
    // the file is not what the writer produced.
    let path = temp_path("torn-tail");
    SearchTables::generate(2, 3).save_v5(&path).unwrap();
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&[0xAB; 137]).unwrap();
    drop(f);
    let err = SearchTables::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err.kind(), StoreErrorKind::Corrupt(_)),
        "unexpected {err:?}"
    );
    assert!(err.to_string().contains("torn-tail"), "path in {err}");
}

#[test]
fn truncated_sections_are_typed_errors() {
    let path = temp_path("truncate");
    SearchTables::generate(2, 3).save_v5(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    // Cut the file at a spread of lengths: inside the header, the meta
    // block, each section, and one byte short of complete.
    let cuts: Vec<usize> = (0..8)
        .map(|i| i * good.len() / 8)
        .chain([good.len() - 1])
        .collect();
    for cut in cuts {
        std::fs::write(&path, &good[..cut]).unwrap();
        let err = SearchTables::load(&path).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                StoreErrorKind::BadMagic
                    | StoreErrorKind::BadHeader(_)
                    | StoreErrorKind::Corrupt(_)
                    | StoreErrorKind::ChecksumMismatch
                    | StoreErrorKind::Io(_)
            ),
            "cut at {cut}: unexpected {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_single_bitflip_is_caught_by_full_validation() {
    // Between the header/meta checksums, the recomputed section layout,
    // the per-section checksums and the zero-padding check, *every* bit
    // of a v5 file is covered: flip any one bit and `load_validated`
    // must return a typed error (the fast load may defer the detection
    // but must never panic).
    let path = temp_path("bitflip");
    SearchTables::generate(2, 3).save_v5(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    SearchTables::load_validated(&path).unwrap();

    let mut flipped = 0u32;
    for byte in (0..good.len()).step_by(61) {
        let mut bytes = good.clone();
        bytes[byte] ^= 1 << (byte % 8);
        std::fs::write(&path, &bytes).unwrap();
        let err = SearchTables::load_validated(&path)
            .err()
            .unwrap_or_else(|| panic!("flip at byte {byte} went undetected"));
        assert!(
            matches!(
                err.kind(),
                StoreErrorKind::BadMagic
                    | StoreErrorKind::BadHeader(_)
                    | StoreErrorKind::Corrupt(_)
                    | StoreErrorKind::ChecksumMismatch
            ),
            "byte {byte}: unexpected {err:?}"
        );
        // The fast path may accept flips in lazily-checked sections, but
        // it must stay panic-free and allocation-bounded.
        let _ = SearchTables::load(&path);
        flipped += 1;
    }
    assert!(flipped > 50, "corpus too small to mean anything");
    std::fs::remove_file(&path).ok();
}
