//! Pinned values: store digests and per-workload work fingerprints. A run
//! whose work differs from these is an error, not a noisy number.

/// FNV-1a file digest of each benchmark store (n = 4, format v5).
pub fn store_digest(smoke: bool, k: usize) -> Option<u64> {
    match (smoke, k) {
        // As recorded in BENCH_tables.json (`v5_store_digest`).
        (false, 7) => Some(0x413f_c3e2_6a0b_1203),
        (false, 5) => Some(0x47fc_4922_1b38_dd1e),
        (true, 4) => Some(0x3e31_6c91_ac46_2ef6),
        (true, 3) => Some(0xa3eb_5763_524b_b529),
        _ => None,
    }
}

/// Content digest of the generated tables of `tables_gen_k6` (k = 6;
/// smoke k = 4): format-independent, so it matches the stores'.
pub fn gen_content_digest(smoke: bool) -> Option<u64> {
    if smoke {
        Some(0x4e75_bf5e_eb44_32a2)
    } else {
        Some(0x7f3d_b4d4_e6d0_0616)
    }
}

/// The work fingerprint of each workload at the benchmark's `run_seconds`
/// (10) and at smoke scale with `--seconds 1`. Seeds change the inputs,
/// never the work, so these hold at every seed.
/// Named counts and digests of one run's work.
pub type Fingerprint = &'static [(&'static str, u64)];

const FINGERPRINTS: [(&str, bool, u64, Fingerprint); 8] = [
    (
        "synth_random_k7",
        false,
        10,
        &[
            ("ops", 17),
            ("considered", 0xe5_a1d1),
            ("sizes_digest", 0x560b_858f_f317_4b32),
        ],
    ),
    (
        "serve_warm_k5",
        false,
        10,
        &[
            ("ops", 0x13_d620),
            ("searches", 256),
            ("pool_sizes", 0x6fd),
            ("answers_digest", 0x2c18_e8ec_b782_8f85),
        ],
    ),
    (
        "serve_miss_k5",
        false,
        10,
        &[
            ("ops", 0x32c8),
            ("searches", 0x32c8),
            ("answer_sizes", 0x1_6486),
            ("answers_digest", 0x989c_9220_313b_b185),
        ],
    ),
    (
        "tables_gen_k6",
        false,
        10,
        &[
            ("ops", 8),
            ("classes", 0x18_4976),
            ("content_digest", 0x7f3d_b4d4_e6d0_0616),
        ],
    ),
    (
        "synth_random_k7",
        true,
        1,
        &[
            ("ops", 24),
            ("considered", 0x1_08d8),
            ("sizes_digest", 0xe3dc_12ee_b507_2b6c),
        ],
    ),
    (
        "serve_warm_k5",
        true,
        1,
        &[
            ("ops", 0x514),
            ("searches", 256),
            ("pool_sizes", 0x4c5),
            ("answers_digest", 0xf74d_df0a_eca1_9924),
        ],
    ),
    (
        "serve_miss_k5",
        true,
        1,
        &[
            ("ops", 0x41),
            ("searches", 0x41),
            ("answer_sizes", 0x12f),
            ("answers_digest", 0x178b_d0f2_8a7d_b6c2),
        ],
    ),
    (
        "tables_gen_k6",
        true,
        1,
        &[
            ("ops", 2),
            ("classes", 0x1b59),
            ("content_digest", 0x4e75_bf5e_eb44_32a2),
        ],
    ),
];

/// The pinned fingerprint for this run's shape, if there is one.
pub fn fingerprint(workload: &str, seconds: u64, smoke: bool) -> Option<Fingerprint> {
    FINGERPRINTS
        .iter()
        .find(|&&(w, s, secs, _)| w == workload && s == smoke && secs == seconds)
        .map(|&(_, _, _, pinned)| pinned)
}

/// Per query of the `synth_random_k7` base sample, in order:
/// `(optimal size, candidates considered)` with `threads(1)`, the
/// invariant gate on and the default probe depth.
pub const K7_OPS: [(u8, u64); 48] = [
    (10, 11033),    // 0
    (12, 722389),   // 1
    (11, 156650),   // 2
    (12, 1287934),  // 3
    (12, 1016562),  // 4
    (11, 127088),   // 5
    (13, 6048427),  // 6
    (11, 165188),   // 7
    (12, 1523089),  // 8
    (11, 35804),    // 9
    (12, 1291939),  // 10
    (11, 21754),    // 11
    (12, 482240),   // 12
    (12, 960307),   // 13
    (12, 363357),   // 14
    (12, 799402),   // 15
    (11, 36006),    // 16
    (13, 14222822), // 17
    (13, 11404100), // 18
    (12, 463223),   // 19
    (9, 519),       // 20
    (12, 903606),   // 21
    (13, 6316849),  // 22
    (12, 685224),   // 23
    (12, 334052),   // 24
    (13, 5705681),  // 25
    (11, 28197),    // 26
    (12, 1315600),  // 27
    (11, 41937),    // 28
    (12, 1838976),  // 29
    (13, 6087090),  // 30
    (13, 5406709),  // 31
    (10, 6230),     // 32
    (12, 395311),   // 33
    (11, 39176),    // 34
    (12, 3294034),  // 35
    (10, 13351),    // 36
    (13, 16238444), // 37
    (12, 330940),   // 38
    (13, 5625120),  // 39
    (11, 55968),    // 40
    (12, 863696),   // 41
    (12, 800877),   // 42
    (12, 1067787),  // 43
    (11, 50861),    // 44
    (12, 2813635),  // 45
    (12, 434046),   // 46
    (12, 3007456),  // 47
];
