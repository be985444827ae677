//! One benchmark run: generate the inputs, set up several times, check
//! every output once, then measure passes over the whole input set until
//! the time is up.
//!
//! Every pass runs the same modules in the same order on the same warmed
//! context, so passes are comparable and counts repeat exactly.
//!
//! Timings are quiet-time figures: each module's time is its fastest
//! over the run's passes, and `setup_s` the fastest set-up in several
//! fresh processes. The work is deterministic, so other load on the
//! machine can only add time; on a shared host that load comes and goes
//! in spells of seconds to minutes that slow everything by up to 2x, and
//! a median over passes follows whichever spell a run happens to fall in,
//! while each module's fastest pass does not. Set-up is short enough
//! that where a process's memory lands moves it by up to 1.5x for the
//! process's whole life, hence the fresh processes, started at even
//! intervals over the measured passes.

use std::time::{Duration, Instant};

use irdl_interp::Execution;

use crate::alloc::{allocs, peak_rss_mb};
use crate::trace::{Layer, LayerTotals, Tracer, LAYERS};
use crate::workload::{Inputs, Outcome, Session, Workload, TRAP_NAMES};

/// Set-ups per process: at least the minimum, then more until the time
/// below has passed.
const SETUP_REPS: (usize, usize) = (7, 500);
const SETUP_TIME: Duration = Duration::from_millis(300);
/// Fresh processes that time set-up for `setup_s`, one at a time.
const SETUP_WORKERS: usize = 5;
/// Fewest measured passes of each kind, even past the time limit.
const MIN_PASSES: usize = 5;
/// Fewest module-time samples behind the latency figures: a workload of
/// fewer modules keeps each module's several fastest times, so that the
/// tail is at least the 75th percentile.
const MIN_SAMPLES: usize = 40;
/// Room reserved per module for a traced pass's spans.
const SPANS_PER_MODULE: usize = 12;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Only time set-ups and print the fastest, in seconds: the run in
    /// each of the fresh processes behind `setup_s`.
    pub setup_worker: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of a run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, percentiles, the fail ratio.
    pub notes: Vec<String>,
    /// The traced run's spans, tab-separated.
    pub spans: Option<String>,
}

/// The checked result of module `i`, against which every measured pass
/// is compared.
struct Reference {
    output: Option<String>,
    applied: usize,
    steps: [Option<u64>; 2],
}

fn steps(execs: &[Option<Execution>; 2]) -> [Option<u64>; 2] {
    [
        execs[0].as_ref().map(|e| e.steps),
        execs[1].as_ref().map(|e| e.steps),
    ]
}

impl Reference {
    fn matches(&self, outcome: &Outcome) -> bool {
        self.output.as_deref() == Some(outcome.output.as_str())
            && self.applied == outcome.applied
            && self.steps == steps(&outcome.execs)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PassStats {
    wall_ns: u64,
    allocs: u64,
    failed: u64,
    verdict_hits: u64,
    verdict_misses: u64,
}

/// Per-module times of one pass, in nanoseconds.
#[derive(Debug, Default)]
struct ModuleTimes {
    /// From the parse or decode call to the end of print.
    latency: Vec<u64>,
    /// The module's whole share of the pass, erase included.
    full: Vec<u64>,
}

/// Runs every module once through the layers, comparing each outcome
/// with its reference after the module's timed window has closed.
fn pass(
    session: &mut Session,
    inputs: &Inputs,
    refs: &[Reference],
    tr: &mut Tracer,
    times: &mut ModuleTimes,
) -> PassStats {
    let (hits, misses) = session.ctx.verdict_cache_stats();
    let start_allocs = allocs();
    let start = Instant::now();
    let mut failed = 0;
    for (i, reference) in refs.iter().enumerate() {
        tr.begin_request(i as u32);
        let module_start = Instant::now();
        let result = session.process(inputs, i, tr, false);
        let full = module_start.elapsed().as_nanos() as u64;
        times.full.push(full);
        match result {
            Ok(outcome) => {
                times.latency.push(outcome.module_ns);
                failed += u64::from(!reference.matches(&outcome));
            }
            Err(_) => {
                times.latency.push(full);
                failed += 1;
            }
        }
        tr.end_request();
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let allocs = allocs() - start_allocs;
    let (hits2, misses2) = session.ctx.verdict_cache_stats();
    PassStats {
        wall_ns,
        allocs,
        failed,
        verdict_hits: hits2 - hits,
        verdict_misses: misses2 - misses,
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    let mut values: Vec<f64> = items.iter().map(f).collect();
    median(&mut values)
}

/// Tail percentiles, as `(numerator, denominator)` fractions.
const LADDER: [(u64, u64); 6] = [
    (1, 2),
    (3, 4),
    (9, 10),
    (99, 100),
    (999, 1000),
    (9999, 10000),
];

/// Nearest rank (1-based) of the `num/den` quantile of `n` samples.
fn nearest_rank(n: usize, (num, den): (u64, u64)) -> usize {
    ((n as u64 * num).div_ceil(den) as usize).max(1)
}

/// The highest percentile of `n` samples with at least ten samples beyond
/// it.
pub fn tail_fraction(n: usize) -> Option<(u64, u64)> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n.saturating_sub(nearest_rank(n, q)) >= 10)
}

/// Each module's `k` fastest times over the passes, in ascending order.
fn fastest(per_pass: &[Vec<u64>], k: usize) -> Vec<Vec<u64>> {
    (0..per_pass[0].len())
        .map(|i| {
            let mut times: Vec<u64> = per_pass.iter().map(|pass| pass[i]).collect();
            times.sort_unstable();
            times.truncate(k);
            times
        })
        .collect()
}

/// All modules' `k` fastest times, pooled and sorted.
fn pooled_fastest(per_pass: &[Vec<u64>], k: usize) -> Vec<u64> {
    let mut pooled = fastest(per_pass, k).concat();
    pooled.sort_unstable();
    pooled
}

/// Module latency tail of sorted samples: the highest percentile with ten
/// samples beyond it. Returns `(ms, percentile, beyond)`.
fn tail(sorted: &[u64]) -> (f64, f64, usize) {
    let n = sorted.len();
    let q = tail_fraction(n).expect("MIN_SAMPLES leaves ten beyond the median");
    let rank = nearest_rank(n, q);
    let percent = 100.0 * q.0 as f64 / q.1 as f64;
    (sorted[rank - 1] as f64 / 1e6, percent, n - rank)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Set-up, repeated per [`SETUP_REPS`] and [`SETUP_TIME`].
struct SetUps {
    secs: Vec<f64>,
    compile_ms: Vec<f64>,
    seal_ms: Vec<f64>,
    /// The last session set up.
    session: Session,
}

fn set_up_repeatedly(inputs: &Inputs) -> Result<SetUps, String> {
    let mut secs = Vec::new();
    let mut compile_ms = Vec::new();
    let mut seal_ms = Vec::new();
    let mut session = None;
    let started = Instant::now();
    while secs.len() < SETUP_REPS.0
        || (started.elapsed() < SETUP_TIME && secs.len() < SETUP_REPS.1)
    {
        drop(session.take());
        let start = Instant::now();
        let s = Session::setup(inputs)?;
        secs.push(start.elapsed().as_secs_f64());
        compile_ms.push(s.compile_ns as f64 / 1e6);
        seal_ms.push(s.seal_ns as f64 / 1e6);
        session = Some(s);
    }
    Ok(SetUps {
        secs,
        compile_ms,
        seal_ms,
        session: session.expect("at least one set-up ran"),
    })
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The fastest set-up of this process, in seconds.
pub fn setup_worker(opts: &Options) -> Result<f64, String> {
    let inputs = Inputs::for_setup(opts.workload, opts.seed)?;
    Ok(min(&set_up_repeatedly(&inputs)?.secs))
}

/// Runs one set-up worker to its end and returns its fastest set-up.
fn run_setup_worker(opts: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let seed = opts.seed.to_string();
    let out = std::process::Command::new(exe)
        .args(["--workload", opts.workload.name(), "--seed", &seed, "--setup-worker", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a set-up worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!("set-up worker failed ({}): {stdout}", out.status)),
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let inputs = Inputs::generate(opts.workload, opts.seed)?;
    let n = inputs.len();
    let total_ops = inputs.total_ops() as f64;

    // --- set-up, several times; the last session is kept ----------------
    let SetUps {
        secs: setup_secs,
        mut compile_ms,
        mut seal_ms,
        mut session,
    } = set_up_repeatedly(&inputs)?;

    // --- check pass: every output against an independent reference -----
    let mut attempted = n as u64;
    let mut failed = 0u64;
    let mut notes = Vec::new();
    let mut refs = Vec::with_capacity(n);
    let mut off = Tracer::off();
    for i in 0..n {
        let checked = session
            .process(&inputs, i, &mut off, true)
            .and_then(|outcome| session.check(&inputs, i, &outcome).map(|()| outcome));
        match checked {
            Ok(outcome) => {
                session.ops_after.push(outcome.ops_final);
                refs.push(Reference {
                    output: Some(outcome.output.clone()),
                    applied: outcome.applied,
                    steps: steps(&outcome.execs),
                });
            }
            Err(message) => {
                failed += 1;
                if failed <= 3 {
                    notes.push(format!("FAIL module {i}: {message}"));
                }
                session.ops_after.push(0);
                refs.push(Reference {
                    output: None,
                    applied: 0,
                    steps: [None, None],
                });
            }
        }
    }
    let ops_after: f64 = session.ops_after.iter().sum::<usize>() as f64;

    // --- measured passes --------------------------------------------------
    // Traced runs alternate untraced and traced passes, so the overhead
    // ratio compares passes made under the same conditions.
    let mut tr = if opts.trace {
        Tracer::on(Instant::now())
    } else {
        Tracer::off()
    };
    let mut untraced: Vec<PassStats> = Vec::new();
    let mut latency: Vec<Vec<u64>> = Vec::new();
    let mut full: Vec<Vec<u64>> = Vec::new();
    let mut traced: Vec<(PassStats, LayerTotals)> = Vec::new();
    let limit = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    // Fastest times kept per module for the latency figures.
    let keep = MIN_SAMPLES.div_ceil(n);
    let min_passes = MIN_PASSES.max(keep);
    let mut peak_rss = 0.0;
    let mut workers = Vec::new();
    loop {
        let enough = untraced.len() >= min_passes && (!opts.trace || traced.len() >= min_passes);
        if enough && started.elapsed() >= limit {
            break;
        }
        let traced_pass = opts.trace && traced.len() < untraced.len();
        let mut times = ModuleTimes::default();
        if traced_pass {
            tr.set_recording(true);
            tr.reserve(n * SPANS_PER_MODULE);
            let first = tr.spans().len();
            let stats = pass(&mut session, &inputs, &refs, &mut tr, &mut times);
            traced.push((stats, LayerTotals::from_spans(&tr.spans()[first..])));
            // Keep the first traced pass's spans for the dump.
            if first > 0 {
                tr.truncate(first);
            }
            tr.set_recording(false);
        } else {
            let stats = pass(&mut session, &inputs, &refs, &mut tr, &mut times);
            untraced.push(stats);
            latency.push(times.latency);
            full.push(times.full);
            // Read after a fixed amount of work, so that a faster program
            // (more passes in the same time) reads the same.
            if untraced.len() == min_passes {
                peak_rss = peak_rss_mb()?;
            }
            let due = limit.mul_f64(workers.len() as f64 / SETUP_WORKERS as f64);
            if !opts.trace && workers.len() < SETUP_WORKERS && started.elapsed() >= due {
                workers.push(run_setup_worker(opts)?);
            }
        }
    }
    while !opts.trace && workers.len() < SETUP_WORKERS {
        workers.push(run_setup_worker(opts)?);
    }
    let measured = untraced.len() + traced.len();
    attempted += (measured * n) as u64;
    failed += untraced
        .iter()
        .chain(traced.iter().map(|(s, _)| s))
        .map(|s| s.failed)
        .sum::<u64>();

    notes.push(format!(
        "{} seed {}: {n} modules and {} input ops per pass; {} untraced and {} traced passes; \
         {} set-ups in this process",
        opts.workload.name(),
        opts.seed,
        inputs.total_ops(),
        untraced.len(),
        traced.len(),
        setup_secs.len()
    ));
    notes.push(format!(
        "fail_ratio {} ({failed} of {attempted} module runs)",
        failed as f64 / attempted as f64
    ));
    let mut pass_rates: Vec<f64> = untraced
        .iter()
        .map(|s| total_ops / (s.wall_ns as f64 / 1e9))
        .collect();
    pass_rates.sort_by(f64::total_cmp);
    let at = |q: f64| pass_rates[((pass_rates.len() - 1) as f64 * q).round() as usize];
    notes.push(format!(
        "ops_per_s over untraced passes: min {:.0}, q1 {:.0}, median {:.0}, q3 {:.0}, max {:.0}",
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    ));
    // Quiet-time figures: each module's fastest pass, or the median of
    // its `keep` fastest where the workload has few modules.
    let quiet_ns: f64 = fastest(&full, keep)
        .into_iter()
        .map(|times| median(&mut times.into_iter().map(|ns| ns as f64).collect::<Vec<_>>()))
        .sum();
    let quiet = pooled_fastest(&latency, keep);
    let tail_samples = quiet.len();
    let (tail_ms, tail_pct, tail_beyond) = tail(&quiet);
    let p50_ms = median(&mut quiet.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>());
    notes.push(format!(
        "ops_per_s, module_ms_p50 and module_ms_tail take each module's {} over {} passes",
        if keep == 1 {
            "fastest time".to_string()
        } else {
            format!("{keep} fastest times")
        },
        latency.len()
    ));
    notes.push(format!(
        "module_ms_tail is p{tail_pct} of {tail_samples} samples ({tail_beyond} beyond)"
    ));

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };
    if !opts.trace {
        notes.push(format!(
            "setup_s is the fastest set-up in {} fresh processes: {}",
            workers.len(),
            workers.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>().join(", ")
        ));
        put("setup_s", min(&workers), "s");
        put("ops_per_s", total_ops / (quiet_ns / 1e9), "1/s");
        put("module_ms_p50", p50_ms, "ms");
        put("module_ms_tail", tail_ms, "ms");
        // Some passes allocate once or twice more than the others, as
        // hash-table growth in the program depends on per-process hash
        // seeds; the leanest pass repeats exactly.
        let allocs = untraced
            .iter()
            .map(|s| s.allocs)
            .min()
            .expect("at least one pass");
        put("allocs_per_op", allocs as f64 / total_ops, "count");
        put("peak_rss_mb", peak_rss, "MB");
        return Ok(Report {
            attempted,
            failed,
            metrics,
            notes,
            spans: None,
        });
    }

    // --- per-layer metrics from the traced passes --------------------------
    let first = &traced[0].1;
    let busy_ms = |layer: Layer| median_of(&traced, |(_, t)| t.busy_ns(layer) as f64 / 1e6);
    let rate = |layer: Layer, work: f64| {
        median_of(&traced, |(_, t)| ratio(work, t.busy_ns(layer) as f64 / 1e9))
    };
    let lex_bytes = first.aux(Layer::Lex) as f64;
    // The leanest pass's allocations, as for `allocs_per_op`.
    let allocs = |layer: Layer| {
        traced
            .iter()
            .map(|(_, t)| t.allocs(layer))
            .min()
            .expect("at least one pass") as f64
    };

    put("irdl.compile_ms", median(&mut compile_ms), "ms");
    put("irdl.dialects", session.dialects as f64, "count");
    put("rewrite.seal_ms", median(&mut seal_ms), "ms");
    put("rewrite.patterns", session.num_patterns as f64, "count");

    put("lexer.busy_ms", busy_ms(Layer::Lex), "ms");
    put("lexer.tokens", first.work(Layer::Lex) as f64, "count");
    put("lexer.mb_per_s", rate(Layer::Lex, lex_bytes / 1e6), "MB/s");

    let parse_self_ns = |t: &LayerTotals| {
        t.busy_ns(Layer::Parse)
            .saturating_sub(t.busy_ns(Layer::Lex)) as f64
    };
    put(
        "parse.self_ms",
        median_of(&traced, |(_, t)| parse_self_ns(t) / 1e6),
        "ms",
    );
    put(
        "parse.ops_per_s",
        rate(Layer::Parse, first.work(Layer::Parse) as f64),
        "1/s",
    );
    let parse_allocs = allocs(Layer::Parse);
    put(
        "parse.allocs_per_op",
        ratio(parse_allocs, first.work(Layer::Parse) as f64),
        "count",
    );

    put("bytecode.encode_ms", busy_ms(Layer::Encode), "ms");
    put("bytecode.decode_ms", busy_ms(Layer::Decode), "ms");
    put("bytecode.bytes", first.work(Layer::Encode) as f64, "count");
    let decode_allocs = allocs(Layer::Decode);
    let decoded = first.work(Layer::Decode) as f64;
    put(
        "bytecode.decode_allocs_per_op",
        ratio(decode_allocs, decoded),
        "count",
    );

    let stats = &traced[0].0;
    put("verify.busy_ms", busy_ms(Layer::Verify), "ms");
    put(
        "verify.ops_per_s",
        rate(Layer::Verify, first.work(Layer::Verify) as f64),
        "1/s",
    );
    put("verify.allocs", allocs(Layer::Verify), "count");
    put("verify.verdict_hits", stats.verdict_hits as f64, "count");
    put(
        "verify.verdict_misses",
        stats.verdict_misses as f64,
        "count",
    );
    let lookups = (stats.verdict_hits + stats.verdict_misses) as f64;
    put(
        "verify.verdict_hit_ratio",
        ratio(stats.verdict_hits as f64, lookups),
        "ratio",
    );

    let applied = first.work(Layer::Rewrite) as f64;
    put("rewrite.busy_ms", busy_ms(Layer::Rewrite), "ms");
    put("rewrite.applied", applied, "count");
    put("rewrite.visited", first.aux(Layer::Rewrite) as f64, "count");
    put(
        "rewrite.apply_ratio",
        ratio(applied, first.aux(Layer::Rewrite) as f64),
        "ratio",
    );
    put(
        "rewrite.allocs_per_apply",
        ratio(allocs(Layer::Rewrite), applied),
        "count",
    );
    put("rewrite.ops_after", ops_after, "count");

    put("interp.busy_ms", busy_ms(Layer::Interp), "ms");
    put("interp.runs", first.calls(Layer::Interp) as f64, "count");
    put("interp.steps", first.work(Layer::Interp) as f64, "count");
    put(
        "interp.steps_per_s",
        rate(Layer::Interp, first.work(Layer::Interp) as f64),
        "1/s",
    );
    for (code, name) in TRAP_NAMES.iter().enumerate().skip(1) {
        put(
            &format!("interp.traps.{name}"),
            first.traps(code) as f64,
            "count",
        );
    }

    put("print.busy_ms", busy_ms(Layer::Print), "ms");
    put("print.bytes", first.work(Layer::Print) as f64, "count");
    put(
        "print.allocs_per_op",
        ratio(allocs(Layer::Print), ops_after),
        "count",
    );
    put("erase.busy_ms", busy_ms(Layer::Erase), "ms");

    // Shares of the pass without the extra lex call: lexing shows once,
    // as `lexer`, and `parse` keeps only its own time.
    let self_ns = |t: &LayerTotals, layer: Layer| match layer {
        Layer::Parse => parse_self_ns(t),
        _ => t.busy_ns(layer) as f64,
    };
    for layer in LAYERS {
        let share = median_of(&traced, |(s, t)| {
            self_ns(t, layer) / (s.wall_ns - t.busy_ns(Layer::Lex)) as f64
        });
        put(&format!("share.{}", layer.name()), share, "ratio");
    }
    let untraced_wall = median_of(&untraced, |s| s.wall_ns as f64);
    let traced_wall = median_of(&traced, |(s, _)| s.wall_ns as f64);
    put("trace.overhead_ratio", traced_wall / untraced_wall, "ratio");
    let unattributed = |s: &PassStats, t: &LayerTotals| s.wall_ns.saturating_sub(t.covered_ns());
    put(
        "trace.unattributed_ms",
        median_of(&traced, |(s, t)| unattributed(s, t) as f64 / 1e6),
        "ms",
    );
    put(
        "trace.unattributed_share",
        median_of(&traced, |(s, t)| {
            unattributed(s, t) as f64 / s.wall_ns as f64
        }),
        "ratio",
    );
    put("module.samples", tail_samples as f64, "count");
    put("module.tail_percentile", tail_pct, "%");
    put("module.tail_beyond", tail_beyond as f64, "count");

    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
        spans: Some(tr.dump()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_fraction(19), None);
        assert_eq!(tail_fraction(20), Some((1, 2)));
        assert_eq!(tail_fraction(40), Some((3, 4)));
        assert_eq!(tail_fraction(400), Some((9, 10)));
        assert_eq!(tail_fraction(4000), Some((99, 100)));
        for n in [20, 40, 99, 100, 1000, 12345] {
            let q = tail_fraction(n).unwrap();
            assert!(n - nearest_rank(n, q) >= 10);
        }
    }

    #[test]
    fn fastest_keeps_each_modules_quickest_times() {
        let per_pass = vec![vec![5, 40, 7], vec![3, 90, 8], vec![4, 20, 6]];
        assert_eq!(fastest(&per_pass, 1), vec![vec![3], vec![20], vec![6]]);
        assert_eq!(pooled_fastest(&per_pass, 2), vec![3, 4, 6, 7, 20, 40]);
    }

    #[test]
    fn few_modules_keep_a_fixed_percentile() {
        // Two modules keep their 20 fastest of 25 passes: 40 samples, p75.
        let per_pass: Vec<Vec<u64>> = (0..25).map(|p| vec![1_000_000, 2_000_000 + p]).collect();
        let keep = MIN_SAMPLES.div_ceil(2);
        let quiet = pooled_fastest(&per_pass, keep);
        let (ms, pct, beyond) = tail(&quiet);
        assert_eq!((pct, quiet.len(), beyond), (75.0, 40, 10));
        assert!((2.0..2.1).contains(&ms), "{ms}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
