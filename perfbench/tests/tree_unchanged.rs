//! A benchmark run leaves the checkout it runs in as it found it: every
//! source and artifact file (for instance the tracked `BENCH_*.json` and
//! `results/*.tsv`) reads the same afterwards, and the journal scratch
//! directory is gone.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Directories holding build output rather than checkout files.
fn skipped(path: &Path) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    matches!(name, ".git" | "target" | ".bench_build")
        || std::env::var_os("CARGO_TARGET_DIR").is_some_and(|t| path.ends_with(t))
}

fn fingerprint(dir: &Path, out: &mut BTreeMap<PathBuf, (u64, u64)>) {
    for entry in std::fs::read_dir(dir).expect("readable checkout") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if !skipped(&path) {
                fingerprint(&path, out);
            }
        } else if let Ok(bytes) = std::fs::read(&path) {
            let mut h = DefaultHasher::new();
            bytes.hash(&mut h);
            out.insert(path, (bytes.len() as u64, h.finish()));
        }
    }
}

#[test]
fn a_traced_durable_run_changes_no_checkout_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root");
    let mut before = BTreeMap::new();
    fingerprint(root, &mut before);

    let child = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", "serve-durable", "--seed", "5"])
        .args(["--seconds", "1", "--trace", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("benchmark starts");
    let scratch = root
        .join(".perfbench-tmp")
        .join(format!("run-{}", child.id()));
    let out = child.wait_with_output().expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");

    let mut after = BTreeMap::new();
    fingerprint(root, &mut after);
    assert_eq!(before, after, "a benchmark run changed checkout files");
    assert!(
        !scratch.exists(),
        "the journal scratch directory must be removed"
    );
}

#[test]
fn an_in_process_lanes_run_is_correct() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", "lanes-inproc", "--seed", "6"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    for name in [
        "frames_per_s",
        "submit_p99_us",
        "decision_p50_us",
        "setup_s",
    ] {
        assert!(
            last.contains(&format!("\"{name}\":")),
            "{name} missing: {last}"
        );
    }
}
