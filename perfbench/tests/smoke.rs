//! Smoke test: every workload, untraced and traced, on k ≤ 4 stores. It
//! checks the output contract (last line is the result object), that every
//! metric `BENCHMARK.json` names is emitted with its unit, and that the
//! work fingerprint is computed and matches its pin.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough for the benchmark's own files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing bytes after JSON value");
    value
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) {
    skip_ws(b, pos);
    assert_eq!(
        b.get(*pos),
        Some(&c),
        "expected '{}' at {}",
        c as char,
        *pos
    );
    *pos += 1;
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(map);
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos);
                expect(b, pos, b':');
                let value = parse_value(b, pos);
                assert!(
                    map.insert(key.clone(), value).is_none(),
                    "duplicate key {key}"
                );
                skip_ws(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => continue,
                    b'}' => return Json::Obj(map),
                    c => panic!("unexpected '{}' in object", c as char),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => continue,
                    b']' => return Json::Arr(items),
                    c => panic!("unexpected '{}' in array", c as char),
                }
            }
        }
        b'"' => Json::Str(parse_string(b, pos)),
        b't' if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Json::Bool(true)
        }
        b'f' if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Json::Bool(false)
        }
        b'n' if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII number");
            Json::Num(
                text.parse()
                    .unwrap_or_else(|e| panic!("bad number {text:?}: {e}")),
            )
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> String {
    expect(b, pos, b'"');
    let start = *pos;
    while b[*pos] != b'"' {
        assert_ne!(b[*pos], b'\\', "escapes are not used in these files");
        *pos += 1;
    }
    *pos += 1;
    String::from_utf8(b[start..*pos - 1].to_vec()).expect("UTF-8 string")
}

/// `(name, unit)` of every metric of one kind in `BENCHMARK.json`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    match parse(&text).get(kind) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect(),
        other => panic!("{kind} is not an array: {other:?}"),
    }
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    match parse(&text).get("workloads") {
        Json::Arr(items) => items
            .iter()
            .map(|w| w.get("name").str().to_string())
            .collect(),
        other => panic!("workloads is not an array: {other:?}"),
    }
}

/// Each test gets its own store cache: tests run concurrently.
fn target(test: &str) -> String {
    format!("{}/perfbench-smoke-{test}", env!("CARGO_TARGET_TMPDIR"))
}

fn run_smoke(workload: &str, trace: &str) -> (Json, String) {
    let target = target(&format!("trace{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace])
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    (parse(last), stdout)
}

fn check(kind: &str, trace: &str) {
    let metrics = declared(kind);
    assert!(!metrics.is_empty());
    for workload in workloads() {
        let (result, stdout) = run_smoke(&workload, trace);
        assert_eq!(
            result.get("correct"),
            &Json::Bool(true),
            "{workload}: {stdout}"
        );
        assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
        assert_eq!(result.get("failed"), &Json::Num(0.0));
        let Json::Obj(emitted) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        for (name, unit) in &metrics {
            let metric = emitted
                .get(name)
                .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing"));
            assert_eq!(metric.get("unit").str(), unit, "{workload}: unit of {name}");
            assert!(
                matches!(metric.get("value"), Json::Num(v) if v.is_finite()),
                "{workload}: {name} has no finite value"
            );
        }
        assert_eq!(
            emitted.len(),
            metrics.len(),
            "{workload}: undeclared metrics emitted"
        );
        let fingerprint = stdout
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint: "))
            .unwrap_or_else(|| panic!("{workload}: no fingerprint line"));
        assert!(fingerprint.contains("ops=0x"), "{workload}: {fingerprint}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    check("end_to_end", "0");
}

#[test]
fn every_traced_run_emits_every_per_layer_metric() {
    check("per_layer", "1");
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--smoke",
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0"])
        .env("CARGO_TARGET_DIR", target("unknown"))
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
