//! Checkpoint/resume integration tests: the acceptance property of the
//! deep-table subsystem is that a generation interrupted at **any**
//! completed level, then resumed, produces a store byte-identical to an
//! uninterrupted single-shot run — for unit (breadth-first) and weighted
//! (cost-bucketed) tables alike. These tests prove it exhaustively on
//! n = 3 (every stop point, every stored representative compared), plus
//! the format edges: torn tails, corrupt trailers.

use std::path::PathBuf;

use revsynth_bfs::{file_digest, GenOptions, SearchTables, StoreErrorKind};
use revsynth_circuit::{CostModel, GateLib};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("revsynth-ckpt-test-{}-{name}", std::process::id()));
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
fn unit_resume_from_every_stop_level_is_byte_identical() {
    let k = 5u64;
    let lib = || GateLib::nct(3);
    let opts = GenOptions::new();

    // The uninterrupted reference run, streamed to disk.
    let full_path = temp_path("unit-full");
    let full = SearchTables::generate_checkpointed(lib(), CostModel::unit(), k, &opts, &full_path)
        .unwrap();
    let full_digest = file_digest(&full_path).unwrap();
    let full_bytes = std::fs::read(&full_path).unwrap();

    // save() of the finished tables writes the same bytes.
    let save_path = temp_path("unit-save");
    full.save(&save_path).unwrap();
    assert_eq!(
        file_digest(&save_path).unwrap(),
        full_digest,
        "save() and checkpointed generation must agree byte for byte"
    );
    std::fs::remove_file(&save_path).ok();

    for stop in 0..k {
        let path = temp_path(&format!("unit-stop{stop}"));
        // "Interrupt" after level `stop` completes: generate only that
        // prefix, then append torn garbage simulating the in-flight
        // level that was being written when the process died.
        SearchTables::generate_checkpointed(lib(), CostModel::unit(), stop, &opts, &path).unwrap();
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0xAB; 137]).unwrap();
        drop(f);

        let resumed = SearchTables::resume_checkpointed(&path, k, &opts).unwrap();
        assert_tables_identical(&resumed, &full, &format!("stop {stop}"));
        assert_eq!(
            file_digest(&path).unwrap(),
            full_digest,
            "stop {stop}: resumed store digest diverged"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            full_bytes,
            "stop {stop}: resumed store bytes diverged"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&full_path).ok();
}

#[test]
fn weighted_resume_from_every_stop_budget_is_byte_identical() {
    let budget = 7u64;
    let lib = || GateLib::nct(3);
    let model = CostModel::quantum();
    let opts = GenOptions::new();

    let full_path = temp_path("quantum-full");
    let full =
        SearchTables::generate_checkpointed(lib(), model, budget, &opts, &full_path).unwrap();
    assert!(full.is_cost_bucketed());
    let full_digest = file_digest(&full_path).unwrap();
    let full_bytes = std::fs::read(&full_path).unwrap();

    for stop in [0u64, 1, 2, 4, 5] {
        let path = temp_path(&format!("quantum-stop{stop}"));
        SearchTables::generate_checkpointed(lib(), model, stop, &opts, &path).unwrap();
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"torn in-flight bucket bytes").unwrap();
        drop(f);

        let resumed = SearchTables::resume_checkpointed(&path, budget, &opts).unwrap();
        assert_tables_identical(&resumed, &full, &format!("budget stop {stop}"));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            full_bytes,
            "budget stop {stop}: resumed store bytes diverged"
        );
        assert_eq!(file_digest(&path).unwrap(), full_digest);
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&full_path).ok();
}

#[test]
fn resumed_tables_answer_exhaustively_like_single_shot() {
    // Beyond structural identity: every one of the 40,320 3-wire
    // functions gets the same optimal-size answer from resumed tables as
    // from single-shot ones (the two agree wherever either answers).
    let single = SearchTables::generate(3, 4);
    let path = temp_path("exhaustive");
    SearchTables::generate_checkpointed(
        GateLib::nct(3),
        CostModel::unit(),
        2,
        &GenOptions::new(),
        &path,
    )
    .unwrap();
    let resumed = SearchTables::resume_checkpointed(&path, 4, &GenOptions::new()).unwrap();
    std::fs::remove_file(&path).ok();

    let whole_space = revsynth_bfs::reference::full_space_sizes(&GateLib::nct(3));
    assert_eq!(whole_space.len(), 40_320);
    let mut checked = 0u32;
    for &f in whole_space.keys() {
        assert_eq!(resumed.size_of(f), single.size_of(f), "{f}");
        checked += 1;
    }
    assert_eq!(checked, 40_320);
}

#[test]
fn resume_at_or_below_stored_budget_is_a_no_op() {
    let path = temp_path("noop");
    let orig = SearchTables::generate_checkpointed(
        GateLib::nct(3),
        CostModel::unit(),
        3,
        &GenOptions::new(),
        &path,
    )
    .unwrap();
    let before = std::fs::read(&path).unwrap();
    let same = SearchTables::resume_checkpointed(&path, 3, &GenOptions::new()).unwrap();
    let shallower = SearchTables::resume_checkpointed(&path, 1, &GenOptions::new()).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), before, "file untouched");
    assert_eq!(same.levels(), orig.levels());
    assert_eq!(shallower.levels(), orig.levels(), "stores never shrink");
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_trailer_is_a_typed_error_not_a_panic() {
    let path = temp_path("torn-trailer");
    SearchTables::generate_checkpointed(
        GateLib::nct(2),
        CostModel::unit(),
        3,
        &GenOptions::new(),
        &path,
    )
    .unwrap();
    let good = std::fs::read(&path).unwrap();

    // Flip a bit inside the 24-byte trailer (offset 52 + lib_len for the
    // 4-gate 2-wire library).
    let trailer_offset = 52 + 4;
    for corrupt_at in [trailer_offset, trailer_offset + 8, trailer_offset + 16] {
        let mut bytes = good.clone();
        bytes[corrupt_at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = SearchTables::load(&path).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                StoreErrorKind::BadTrailer(_) | StoreErrorKind::Corrupt(_)
            ),
            "byte {corrupt_at}: unexpected {err:?}"
        );
        assert!(err.to_string().contains("torn-trailer"), "path in {err}");
    }

    // Truncate *inside* the trailer: same typed rejection.
    std::fs::write(&path, &good[..trailer_offset + 10]).unwrap();
    let err = SearchTables::load(&path).unwrap_err();
    assert!(matches!(err.kind(), StoreErrorKind::BadTrailer(_)));

    // A trailer pointing past the end of the file (truncated payload).
    std::fs::write(&path, &good[..good.len() - 5]).unwrap();
    let err = SearchTables::load(&path).unwrap_err();
    assert!(matches!(err.kind(), StoreErrorKind::BadTrailer(_)));
    std::fs::remove_file(&path).ok();
}

#[test]
fn knobs_do_not_change_store_bytes() {
    // Threads × shards × memory budget must never leak into the store:
    // the CI digest is pinned against *one* baseline however the
    // generating machine was configured.
    let reference = temp_path("knobs-ref");
    SearchTables::generate_checkpointed(
        GateLib::nct(3),
        CostModel::unit(),
        4,
        &GenOptions::new().threads(1).shards(1),
        &reference,
    )
    .unwrap();
    let want = file_digest(&reference).unwrap();
    std::fs::remove_file(&reference).ok();
    for (threads, shards, max_mem) in [
        (2usize, 8usize, None),
        (3, 2, Some(256)),
        (1, 16, Some(1 << 20)),
    ] {
        let path = temp_path(&format!("knobs-{threads}-{shards}"));
        SearchTables::generate_checkpointed(
            GateLib::nct(3),
            CostModel::unit(),
            4,
            &GenOptions::new()
                .threads(threads)
                .shards(shards)
                .max_mem_bytes(max_mem),
            &path,
        )
        .unwrap();
        assert_eq!(
            file_digest(&path).unwrap(),
            want,
            "threads={threads} shards={shards} max_mem={max_mem:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn peek_tracks_a_growing_store() {
    // peek() is the CI poll: it must see exactly the completed levels at
    // every stage of a growing store, and total classes must only grow.
    let path = temp_path("peek-growing");
    SearchTables::generate_checkpointed(
        GateLib::nct(3),
        CostModel::unit(),
        1,
        &GenOptions::new(),
        &path,
    )
    .unwrap();
    let mut last_total = 0;
    for target in 2..=4u64 {
        SearchTables::resume_checkpointed(&path, target, &GenOptions::new()).unwrap();
        let info = SearchTables::peek(&path).unwrap();
        assert_eq!(info.version, 4);
        assert_eq!(info.levels.len() as u64, target + 1);
        assert!(info.total_classes() > last_total);
        last_total = info.total_classes();
        assert_eq!(info.payload_end, info.file_len, "no torn tail");
    }
    std::fs::remove_file(&path).ok();
}
