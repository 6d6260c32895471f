//! Seeded benchmark of the tempart pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) replays the ops layer by layer and reports the per-layer
//! metrics. The last line of standard output is the JSON result. See
//! `README.md` for the workloads and metrics.

mod calib;
mod check;
mod ops;
mod report;
mod spec;
mod traced;

use report::Report;
use spec::{Inputs, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

// Counts allocations per thread for `partition.multilevel_allocs_w1`.
#[global_allocator]
static ALLOC: tempart_testkit::alloc::CountingAllocator = tempart_testkit::alloc::CountingAllocator;

const USAGE: &str = "usage: perfbench --workload <mctl-pipeline-d5|sfc-race-d6|repart-drift-d5> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed every per-op input is drawn from.
    pub seed: u64,
    /// Minimum measured time of the op loop.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let trace_out = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{seed}.json", workload.name()))
    });
    Ok(Opts {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
    })
}

/// Runs one benchmark run at `scale`.
pub fn run(opts: &Opts, scale: &Scale) -> Result<Report, String> {
    let w = opts.workload;
    let inputs = Inputs::generate(w, opts.seed, scale);
    let mut lines = vec![format!(
        "workload {} seed {} ({}), depth {}",
        w.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        scale.depth
    )];
    lines.extend(inputs.describe(w, scale.distinct));
    let (metrics, attempted, failed) = if opts.trace {
        let (metrics, fid, log) = traced::run(w, scale, &inputs, opts.seconds, &mut lines);
        if let Some(path) = &opts.trace_out {
            let dir = path.parent().expect("trace path has a directory");
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            std::fs::write(path, log.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
            lines.push(format!("spans written to {}", path.display()));
        }
        (metrics, fid.attempted, fid.failed)
    } else {
        ops::run(w, scale, &inputs, opts.seconds, &mut lines)
    };
    Ok(Report {
        lines,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|opts| run(&opts, &Scale::full(opts.workload)));
    match result {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_obs::json::{self, Value};

    /// Metric names a section of `BENCHMARK.json` lists.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Value::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn every_declared_metric_is_emitted_at_tiny_depth() {
        let workloads = declared("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for w in Workload::ALL {
            assert!(workloads.iter().any(|n| n == w.name()), "{}", w.name());
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let opts = Opts {
                    workload: w,
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    trace_out: None,
                };
                let report = run(&opts, &Scale::tiny()).expect("run succeeds");
                let rendered = report.render();
                let last = rendered.lines().last().expect("output is not empty");
                let result = json::parse(last).expect("last line is JSON");
                let keys: Vec<&String> = result.as_obj().unwrap().keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                assert_eq!(
                    result.get("correct"),
                    Some(&Value::Bool(true)),
                    "{rendered}"
                );
                assert_eq!(result.get("failed").and_then(Value::as_num), Some(0.0));
                assert!(result.get("attempted").and_then(Value::as_num).unwrap() >= 1.0);
                let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
                let names = declared(section);
                assert_eq!(metrics.len(), names.len(), "{}: {rendered}", w.name());
                for name in names {
                    let m = metrics
                        .get(&name)
                        .unwrap_or_else(|| panic!("{name} missing"));
                    let v = m.get("value").and_then(Value::as_num);
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{name} = {v:?} on {}",
                        w.name()
                    );
                    assert!(m.get("unit").and_then(Value::as_str).is_some());
                }
            }
        }
    }

    #[test]
    fn a_seed_fixes_the_inputs() {
        for w in Workload::ALL {
            let scale = Scale::full(w);
            let a = Inputs::generate(w, 3, &scale).describe(w, scale.distinct);
            let b = Inputs::generate(w, 3, &scale).describe(w, scale.distinct);
            let c = Inputs::generate(w, 4, &scale).describe(w, scale.distinct);
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn domain_counts_cover_the_range() {
        let scale = Scale::full(Workload::SfcRace);
        let ks = Inputs::generate(Workload::SfcRace, 11, &scale).domain_counts;
        assert_eq!(ks.len(), scale.distinct);
        let (lo, hi) = scale.sfc_domains;
        assert!(ks.iter().all(|&k| (lo..=hi).contains(&k)));
        assert!(*ks.iter().min().unwrap() < lo + (hi - lo) / 8);
        assert!(*ks.iter().max().unwrap() > hi - (hi - lo) / 8);
    }
}
