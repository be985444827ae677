//! End-to-end benchmark of the IRDL stack.
//!
//! Runs one seeded workload through every layer (spec compile, lex,
//! parse, verify, bytecode, rewrite, interpret, print, erase), checks
//! every output, and prints the metrics by name with their units. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus_fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that records a span around every layer call and reports per-layer
//! metrics, writing the spans to `.bench_trace/`. The process exits
//! non-zero when any output check fails. `--setup-worker 1` only times
//! set-ups and prints the fastest: the run re-invokes itself that way for
//! `setup_s`.
//!
//! `perfbench/layers.json` maps each layer's metrics to the end-to-end
//! metric and workload it should move, and records the traced layer
//! shares; `cargo test --manifest-path perfbench/Cargo.toml` runs the
//! benchmark's self-tests.

mod alloc;
mod layers;
mod run;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use run::{Options, Report};
use workload::{Workload, WORKLOADS};

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::CorpusFleet,
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_worker: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}`: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("workload name"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("number"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad("non-negative number"));
                }
            }
            "--trace" | "--setup-worker" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                if flag == "--trace" {
                    opts.trace = on;
                } else {
                    opts.setup_worker = on;
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("`--workload` is required")?;
    Ok(opts)
}

/// The result line. Values keep every digit Rust's shortest round-trip
/// formatting gives.
fn json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn write_spans(opts: &Options, spans: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", opts.workload.name(), opts.seed));
    std::fs::write(&path, spans)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.setup_worker {
        return match run::setup_worker(&opts) {
            Ok(secs) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run::run(&opts) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &report.spans {
        match write_spans(&opts, spans) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("warning: could not write spans: {e}"),
        }
    }
    println!("{}", json(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
