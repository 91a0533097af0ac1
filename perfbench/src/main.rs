//! The amjs benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <month_grid|month_overload|serve_replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is the end-to-end result, measured with tracing off;
//! with `--trace 1` it carries the per-layer metrics of a traced run.
//! Earlier lines hold the provenance, the per-layer tables and run
//! details; the same, plus every recorded span, is written under
//! `.bench_out/`. See `perfbench/README.md` for the workloads, the
//! metrics and what each layer metric should move.

mod expected;
mod openloop;
mod report;
mod serve;
mod sims;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use amjs_obs::json::ObjWriter;

use report::{result_line, Metrics};
use sims::SimWorkload;
use trace::{LayerTable, Tracer};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["month_grid", "month_overload", "serve_replay"];

/// End-to-end metrics (tracing off) with their units. Every workload
/// reports every one; what the last two measure differs by workload
/// (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("request_p50_ms", "ms"),
];

/// Per-layer metrics (traced run) with their units. Every workload
/// reports every one. Layers only one workload has (the fleet, the
/// daemon) go into that workload's run details and layer tables.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("workload.generate_s", "s"),
    ("core.fair_start.self_s", "s"),
    ("core.fair_start.count", "count"),
    ("core.window_search.self_s", "s"),
    ("core.window_search.count", "count"),
    ("core.backfill_pass.self_s", "s"),
    ("core.plan_build.self_s", "s"),
    ("core.score_sort.self_s", "s"),
    ("core.schedule_pass.self_s", "s"),
    ("core.passes", "count"),
    ("core.passes_empty", "count"),
    ("core.backfilled_starts", "count"),
    ("core.events", "count"),
    ("core.score_cache.hit", "count"),
    ("core.score_cache.repair", "count"),
    ("core.score_cache.miss", "count"),
    ("core.score_cache.useful_ratio", "ratio"),
    ("core.unattributed_s", "s"),
    ("core.traced_wall_s", "s"),
    ("core.trace_overhead_s", "s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?} (one of {WORKLOADS:?})"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub tables: Vec<LayerTable>,
    pub tracer: Tracer,
    /// Run details for the log (name, JSON value).
    pub info: Vec<(String, String)>,
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout's git revision, when it is a git checkout.
fn git_revision(root: &Path) -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = root.join(".git");
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r))
                .or_else(|| {
                    read(git.join("packed-refs")).and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next().map(str::to_string))
                    })
                })
                .unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// Lines in `crates/**/*.rs` (informational; never gates).
fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                rust_lines(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&p).map_or(0, |s| s.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}

fn provenance(args: &Args) -> String {
    let mut o = ObjWriter::new();
    o.str("workload", &args.workload)
        .u64("seed", args.seed)
        .f64("seconds", args.seconds)
        .bool("trace", args.trace)
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .u64(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str("git_revision", &git_revision(Path::new(".")))
        .u64("crates_rs_lines", rust_lines(Path::new("crates")));
    o.finish()
}

/// Check that `metrics` is exactly the declared set for the run's mode.
fn check_declared(args: &Args, metrics: &Metrics) {
    let mut declared: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    declared.sort_unstable();
    let mut reported: Vec<(&str, &str)> = metrics.names().zip(metrics.units()).collect();
    reported.sort_unstable();
    assert_eq!(
        reported, declared,
        "{} reported other metrics than declared",
        args.workload
    );
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("error: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let outcome = match args.workload.as_str() {
        "month_grid" => sims::run(SimWorkload::Grid, &args, process_start),
        "month_overload" => sims::run(SimWorkload::Overload, &args, process_start),
        _ => serve::run(&args, &out_dir),
    };
    let Outcome {
        correct,
        attempted,
        failed,
        metrics,
        tables,
        tracer,
        info,
    } = outcome;
    check_declared(&args, &metrics);

    let prov = provenance(&args);
    let mut details = ObjWriter::new();
    for (k, v) in &info {
        details.raw(k, v);
    }
    let details = details.finish();
    println!("provenance {prov}");
    println!("details {details}");
    for t in &tables {
        print!("{}", t.render());
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let tables_json: Vec<String> = tables.iter().map(LayerTable::to_json).collect();
    let mut file = ObjWriter::new();
    file.raw("provenance", &prov)
        .raw("details", &details)
        .raw("tables", &format!("[{}]", tables_json.join(",")))
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &metrics.to_json());
    let written = std::fs::write(out_dir.join(format!("{stem}.json")), file.finish() + "\n")
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("{stem}.spans.jsonl")),
                tracer.to_jsonl(),
            )
        });
    if let Err(e) = written {
        eprintln!("warning: could not write the run record: {e}");
    }

    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        all.extend(PER_LAYER.iter().map(|(n, _)| *n));
        for n in &all {
            assert!(report::valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name is declared twice");
    }

    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let json = amjs_obs::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|a| a.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|a| a.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload month_grid --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload month_grid --seed x --seconds 1 --trace 0",
            "--workload month_grid --seed 1 --seconds 0 --trace 0",
            "--workload month_grid --seed 1 --seconds 1 --trace 2",
            "--workload month_grid --seed 1 --seconds 1",
            "--workload month_grid --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
