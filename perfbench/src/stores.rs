//! Store preparation and loading.
//!
//! The benchmark's stores are built once per checkout with the
//! repository's own `revsynth tables generate --format v5` into an
//! untracked cache next to the build output. Every run checks each store
//! it opens against a pinned file digest first: a mismatch fails the run
//! and never triggers a rebuild. Reading the file for the digest also
//! warms the page cache, so set-up times do not include disk reads.
//!
//! Smoke mode uses k ≤ 4 stores written in-process by `save_v5`, which
//! produces the same bytes as the CLI for the same tables.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

use revsynth_bfs::{file_digest, GenOptions, SearchTables};
use revsynth_circuit::GateLib;

use crate::pins;

/// Where the build output lives: `CARGO_TARGET_DIR` if set, else `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// The untracked store cache.
pub fn store_dir(smoke: bool) -> PathBuf {
    let dir = target_dir().join("perfbench-stores");
    if smoke {
        dir.join("smoke")
    } else {
        dir
    }
}

pub fn store_path(smoke: bool, k: usize) -> PathBuf {
    store_dir(smoke).join(format!("n4k{k}.rvtab"))
}

/// Builds every missing store of this scale. Real stores come from the
/// repository's CLI, built here from the checkout's sources.
pub fn prepare(smoke: bool, ks: &[usize]) -> Result<(), String> {
    let missing: Vec<usize> = ks
        .iter()
        .copied()
        .filter(|&k| !store_path(smoke, k).exists())
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    let building = store_dir(smoke).join("building");
    std::fs::create_dir_all(&building).map_err(|e| format!("{}: {e}", building.display()))?;
    let cli = if smoke { None } else { Some(build_cli()?) };
    for k in missing {
        let partial = building.join(format!("n4k{k}.rvtab"));
        let _ = std::fs::remove_file(&partial);
        eprintln!("perfbench: building n=4 k={k} v5 store (once per checkout)");
        match &cli {
            Some(cli) => {
                let status = Command::new(cli)
                    .args(["tables", "generate", "--n", "4", "--threads", "2"])
                    .args(["--format", "v5", "--k", &k.to_string(), "--out"])
                    .arg(&partial)
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("running {}: {e}", cli.display()))?;
                if !status.success() {
                    return Err(format!("store generation for k={k} failed: {status}"));
                }
            }
            None => {
                let tables =
                    SearchTables::generate_opts(GateLib::nct(4), k, &GenOptions::new().threads(2));
                tables
                    .save_v5(&partial)
                    .map_err(|e| format!("saving smoke store: {e}"))?;
            }
        }
        // Only a store with the pinned digest is published.
        check_digest(&partial, smoke, k)?;
        std::fs::rename(&partial, store_path(smoke, k))
            .map_err(|e| format!("publishing {}: {e}", partial.display()))?;
    }
    Ok(())
}

/// Builds the `revsynth` CLI in release mode from the checkout (the
/// current directory) and returns its path.
fn build_cli() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").exists() || !Path::new("crates/cli").exists() {
        return Err("run from the repository root: crates/cli not found".into());
    }
    eprintln!("perfbench: building the revsynth CLI to prepare stores");
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "revsynth-cli",
        ])
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the revsynth CLI failed: {status}"));
    }
    let cli = target_dir().join("release").join("revsynth");
    if cli.exists() {
        Ok(cli)
    } else {
        Err(format!("{} missing after build", cli.display()))
    }
}

/// Checks a store file against its pinned digest.
pub fn check_digest(path: &Path, smoke: bool, k: usize) -> Result<(), String> {
    let want = pins::store_digest(smoke, k).ok_or_else(|| format!("no pinned digest for k={k}"))?;
    let got = file_digest(path).map_err(|e| e.to_string())?;
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: file digest {got:#018x} != pinned {want:#018x}; delete it to rebuild",
            path.display()
        ))
    }
}

/// Stores this process has already checked.
static VERIFIED: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Opens a verified store: its digest is checked the first time a run
/// opens it.
pub fn open(smoke: bool, k: usize) -> Result<PathBuf, String> {
    let path = store_path(smoke, k);
    let mut verified = VERIFIED
        .lock()
        .expect("the verified list is never held across a panic");
    if !verified.contains(&path) {
        check_digest(&path, smoke, k)?;
        verified.push(path.clone());
    }
    Ok(path)
}

/// Loads a v5 store (zero-copy mmap).
pub fn load(path: &Path) -> SearchTables {
    SearchTables::load(path).unwrap_or_else(|e| panic!("loading a verified store: {e}"))
}

/// Reads one word per page of every mapped section, so later timings do
/// not pay first-touch faults. Returns a checksum to keep the reads alive.
pub fn fault_in(tables: &SearchTables) -> u64 {
    fn touch<T: Copy>(acc: u64, words: &[T], to_u64: impl Fn(T) -> u64) -> u64 {
        let step = (4096 / std::mem::size_of::<T>()).max(1);
        words
            .iter()
            .step_by(step)
            .fold(acc, |a, &w| a.wrapping_add(to_u64(w)))
    }
    let mut acc = 0u64;
    for level in tables.levels() {
        acc = touch(acc, level, |p| p.packed());
    }
    let (keys, values) = tables.table().slot_arrays();
    acc = touch(acc, keys, |k| k);
    acc = touch(acc, values, u64::from);
    let (ikeys, masks) = tables.invariants().slot_arrays();
    acc = touch(acc, ikeys, |k| k);
    acc = touch(acc, masks, u64::from);
    let (bits, _) = tables.invariants().weight_bitmap();
    black_box(touch(acc, bits, |b| b))
}
