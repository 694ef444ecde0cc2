//! Shared measurement helpers for the Criterion benches and the
//! `report` binary that regenerates every figure and table of the
//! paper's evaluation (§VI).

use std::path::Path;
use std::time::{Duration, Instant};

/// Times `f` once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Times `f` over `iters` runs and returns the mean duration.
/// The paper ran every experiment 100 times and reported the average
/// (§VI-D); the report harness mirrors that with a caller-chosen
/// iteration count.
pub fn time_mean(iters: usize, mut f: impl FnMut()) -> Duration {
    assert!(iters >= 1);
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed() / iters as u32
}

/// Formats a duration in fractional milliseconds (the paper's unit).
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Writes the bench's JSON artifact `name`: at the repo root for a
/// full run, under `target/bench-smoke/` for a `--test` smoke run, so
/// a smoke run never overwrites a committed measurement. `body` holds
/// the object's members after the `smoke` flag and the provenance
/// stamp, whose fields (`git_sha`, `nproc`, `profile`) are named as in
/// perfbench's records.
pub fn write_artifact(name: &str, smoke: bool, body: &str) {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let dir = if smoke {
        root.join("target/bench-smoke")
    } else {
        root.to_path_buf()
    };
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(name);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"provenance\": {{\"git_sha\": \"{}\", \"nproc\": {nproc}, \
         \"profile\": \"{profile}\"}},\n  {body}\n}}\n",
        git_sha(root)
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("  [json -> {}]", path.display()),
        Err(e) => eprintln!("  [json write failed: {e}]"),
    }
}

/// The commit checked out at `root`, or `"none"` outside a git checkout.
fn git_sha(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "none".into(), |sha| sha.trim().to_string())
}

/// Standard bench parameters, matching the integration tests:
/// structurally faithful, sized for quick turnaround.
pub mod cfg {
    /// RSA modulus bits.
    pub const RSA_BITS: usize = 512;
    /// Pairing group-order bits.
    pub const PAIRING_BITS: usize = 48;
    /// Stadler rounds.
    pub const ZKP_ROUNDS: usize = 16;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_mean_counts() {
        let mut n = 0;
        let _ = time_mean(5, || n += 1);
        assert_eq!(n, 5);
    }

    #[test]
    fn ms_converts() {
        assert!((ms(Duration::from_millis(1500)) - 1500.0).abs() < 1e-9);
    }
}
