//! Shared infrastructure for the benchmark harness.
//!
//! Each table and figure of the paper's evaluation section has a dedicated
//! regenerator binary in `src/bin/` (`table1` … `table6`, `fig2`,
//! `hard_search`); the §3.3 kernels are timed by the `perm.*_ns` and
//! `canon.*` metrics of the layered benchmark in `perfbench/`. This
//! library holds the plumbing the binaries share: environment
//! configuration and the precompute-once/load-later table cache (the
//! paper's own workflow — §4.1 loads the k = 9 tables from disk in 1111 s
//! rather than recomputing them for 3 hours).
//!
//! Environment variables:
//!
//! * `REVSYNTH_K` — default search depth k for the table binaries,
//! * `REVSYNTH_DATA` — directory for cached table stores (default
//!   `./data`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;

use revsynth_bfs::SearchTables;

/// Reads `REVSYNTH_K`, falling back to `default`.
///
/// # Panics
///
/// Panics if the variable is set but not a valid depth.
#[must_use]
pub fn env_k(default: usize) -> usize {
    match std::env::var("REVSYNTH_K") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("REVSYNTH_K must be an integer, got `{v}`")),
        Err(_) => default,
    }
}

/// The table-cache directory (`REVSYNTH_DATA` or `./data`).
#[must_use]
pub fn data_dir() -> PathBuf {
    std::env::var_os("REVSYNTH_DATA")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("data"))
}

/// Loads cached tables for `(n, k)` from [`data_dir`], or generates and
/// caches them. Prints progress to stderr.
///
/// # Panics
///
/// Panics on unwritable cache directories or unrecoverable store errors
/// (binaries prefer a loud failure over silently recomputing for minutes).
#[must_use]
pub fn load_or_generate(n: usize, k: usize) -> SearchTables {
    let dir = data_dir();
    let path = dir.join(format!("tables-n{n}-k{k}.bin"));
    if path.exists() {
        eprintln!("loading cached tables from {} ...", path.display());
        let start = Instant::now();
        match SearchTables::load(&path) {
            Ok(tables) if tables.wires() == n && tables.k() == k => {
                eprintln!(
                    "  {} classes in {:.2?}",
                    tables.num_representatives(),
                    start.elapsed()
                );
                return tables;
            }
            Ok(_) => eprintln!("  cache has different parameters; regenerating"),
            Err(e) => eprintln!("  cache unusable ({e}); regenerating"),
        }
    }
    eprintln!("generating tables (n = {n}, k = {k}) ...");
    let start = Instant::now();
    let tables = SearchTables::generate(n, k);
    eprintln!(
        "  {} classes in {:.2?}",
        tables.num_representatives(),
        start.elapsed()
    );
    std::fs::create_dir_all(&dir).expect("create table cache directory");
    let start = Instant::now();
    tables.save(&path).expect("write table cache");
    eprintln!("  cached to {} in {:.2?}", path.display(), start.elapsed());
    tables
}

/// Parses `--flag value` style options from `std::env::args`, with
/// defaults. Shared by the table binaries (tiny on purpose; the real CLI
/// lives in `revsynth-cli`).
#[must_use]
pub fn arg_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_k_default() {
        // The test environment does not set REVSYNTH_K.
        if std::env::var_os("REVSYNTH_K").is_none() {
            assert_eq!(env_k(6), 6);
        }
    }

    #[test]
    fn cache_roundtrip_small() {
        let dir = std::env::temp_dir().join(format!("revsynth-bench-{}", std::process::id()));
        std::env::set_var("REVSYNTH_DATA", &dir);
        let a = load_or_generate(2, 3);
        let b = load_or_generate(2, 3); // second call hits the cache
        assert_eq!(a.reduced_counts(), b.reduced_counts());
        std::fs::remove_dir_all(&dir).ok();
        std::env::remove_var("REVSYNTH_DATA");
    }
}
