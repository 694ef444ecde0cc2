//! The repository's benchmark: the PPMSdec market service measured
//! end to end over its TCP front door, with a per-layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload market|reads|deposits --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Every run prints each metric by name with its unit, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the bounded end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1`. A full record with provenance
//! goes to `perfbench/out/full/` (`perfbench/out/smoke/` for smoke
//! runs, so a smoke run never overwrites a full result). The process
//! exits non-zero when any oracle fails.

mod common;
mod deposits;
mod ledger;
mod market;
mod openloop;
mod reads;
mod stats;
mod trace;

use common::{Report, Run};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload market|reads|deposits --seed N \
                     --seconds S --trace 0|1 [--smoke]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["market", "reads", "deposits"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        smoke,
    })
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The commit the checkout came from, if it is a git work tree; read
/// from the files directly so nothing outside the checkout is touched.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(name)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the sources the benchmark builds from (path and bytes,
/// in path order): identifies the code measured even where the
/// checkout carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    for f in [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(&body) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", ppms_obs::escape(s))
}

/// A finite number as JSON, with every digit it was measured with.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metric_cells(metrics: &[(String, f64, &str)]) -> String {
    metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = bench_dir().join("..");
    let out_dir = bench_dir()
        .join("out")
        .join(if args.smoke { "smoke" } else { "full" });
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        data_dir: bench_dir()
            .join("out")
            .join(format!("data-{}", std::process::id())),
    };
    let workload = |run: &Run| match args.workload.as_str() {
        "market" => market::run(run),
        "reads" => reads::run(run),
        _ => deposits::run(run),
    };
    // A traced run first repeats the workload untraced: the difference
    // in median latency is the tracing overhead.
    let result = if run.trace {
        let plain = Run {
            trace: false,
            ..run.clone()
        };
        workload(&plain).and_then(|base| {
            let mut traced = workload(&run)?;
            let p50 = |r: &Report| {
                r.e2e
                    .iter()
                    .find(|(n, _)| *n == "latency_p50_ms")
                    .map_or(0.0, |m| m.1)
            };
            traced.layers.set(
                "trace_overhead_pct",
                100.0 * (p50(&traced) / p50(&base) - 1.0),
            );
            traced.violations.extend(base.violations);
            traced.failed += base.failed;
            traced.attempted += base.attempted;
            Ok(traced)
        })
    } else {
        workload(&run)
    };
    let _ = std::fs::remove_dir_all(&run.data_dir);
    let report: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let e2e: Vec<(String, f64, &str)> = ledger::END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = report
                .e2e
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (name.to_string(), v, unit)
        })
        .collect();
    let layers = report.layers.complete();
    let correct = report.violations.is_empty()
        && report.failed == 0
        && e2e.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0);

    for line in &report.detail {
        println!("{line}");
    }
    for (name, v, unit) in e2e.iter().chain(&layers) {
        println!("{name} = {v} {unit}");
    }
    for v in &report.violations {
        println!("VIOLATION: {v}");
    }

    let params: Vec<String> = report
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {},\n \
         \"provenance\": {{\"git_sha\": {}, \"source_fnv64\": {}, \"nproc\": {}, \"profile\": {}, \
         \"features\": \"default\"}},\n \"params\": {{{}}},\n \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"violations\": [{}],\n \"end_to_end\": {{{}}},\n \"per_layer\": {{{}}},\n \
         \"detail\": [{}]}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        json_str(&git_sha(&root)),
        json_str(&source_digest(&root)),
        nproc,
        json_str(profile),
        params.join(", "),
        correct,
        report.attempted,
        report.failed,
        report
            .violations
            .iter()
            .map(|v| json_str(v))
            .collect::<Vec<_>>()
            .join(", "),
        metric_cells(&e2e),
        metric_cells(&layers),
        report
            .detail
            .iter()
            .map(|d| json_str(d))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), record))
        .and_then(|()| match &report.trace_jsonl {
            Some(t) => std::fs::write(out_dir.join(format!("{stem}.spans.jsonl")), t),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write the result record: {e}");
    }

    let shown = if args.trace { &layers } else { &e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metric_cells(shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
