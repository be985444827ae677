//! Checked-rewrite throughput benchmark: incremental vs full re-verification.
//!
//! The workload is the shape the incremental verifier was built for: a
//! straight-line chain of `cmath.mul` ops over `!cmath.complex<f32>` and a
//! pattern rewriting `cmath.mul(x, x)` into `bench.sqr(x)`. Every rewrite
//! rewires the next link of the chain, so the greedy driver cascades down
//! the module applying exactly one rewrite per chain op — and a checked
//! driver re-verifies after every one of them.
//!
//! With `CheckLevel::Full` each of those checks walks the whole module, so
//! the drive is O(n^2) in the chain length. With `CheckLevel::Incremental`
//! the change journal names the one created op, the one rewired user, and
//! the dirty block, so each check is O(touched) and the drive is O(n).
//!
//! The gated quantity is the *paired* speedup of the incremental drive over
//! the full drive: in each round the two run back-to-back, so a load spike
//! degrades both sides instead of skewing their ratio, and the best round
//! wins. The floor is 5x at a 200-op chain. Two more properties are
//! enforced on every run:
//!
//! - both checked drives apply exactly `CHAIN_LEN` rewrites and produce
//!   byte-identical output to the unchecked drive;
//! - the incremental drive's allocations per rewrite stay bounded by a
//!   small constant (no per-rewrite `.to_vec()` of the worklist state).
//!
//! Results are written to `BENCH_rewrite.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin rewritebench --release [-- --quick]
//! ```

use std::time::Instant;

use irdl_bench::{allocs, mul_chain_module, showcase_context, CountingAlloc};
use irdl_ir::print::op_to_string;
use irdl_ir::{Context, OpName, OperationState, OpRef};
use irdl_rewrite::{
    rewrite_greedily_with, CheckLevel, PatternSet, RewritePattern, Rewriter,
};

/// Chain length for the gated configuration. Long enough that the O(n^2)
/// full-check drive is clearly separated from the O(n) incremental one,
/// short enough that calibration stays fast in `--quick` CI runs.
const CHAIN_LEN: usize = 200;

/// The paired-speedup floor at [`CHAIN_LEN`].
const REQUIRED_SPEEDUP: f64 = 5.0;

/// Allocation ceiling per incremental checked rewrite (steady state). The
/// journal, worklist, and dirty sets are all recycled across rewrites, so
/// the only steady-state allocations are occasional re-growth and the
/// per-check diagnostics scratch — far below this bound. A per-rewrite
/// copy of the worklist or journal would blow straight past it.
const MAX_INCR_ALLOCS_PER_REWRITE: f64 = 32.0;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// Rewrites `cmath.mul(x, x)` into `bench.sqr(x)`. Replacing the result
/// rewires the next chain link's operands, which requeues it, which makes
/// the driver cascade one rewrite per chain op.
struct MulToSqr {
    mul: OpName,
    sqr: OpName,
}

impl RewritePattern for MulToSqr {
    fn root(&self) -> Option<OpName> {
        Some(self.mul)
    }
    fn name(&self) -> &str {
        "mul-to-sqr"
    }
    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
        let op = rewriter.root();
        let ctx = rewriter.ctx();
        if op.num_operands(ctx) != 2 || op.operand(ctx, 0) != op.operand(ctx, 1) {
            return false;
        }
        let x = op.operand(ctx, 0);
        let result_ty = op.result_types(ctx)[0];
        let sqr = rewriter.insert_before_root(
            OperationState::new(self.sqr).add_operands([x]).add_result_types([result_ty]),
        );
        let replacement = sqr.result(rewriter.ctx(), 0);
        rewriter.replace_root(&[replacement]);
        true
    }
}

/// A pristine context holding the untouched chain; every measured drive
/// clones it so each drive starts from identical IR and a warm verdict
/// cache, outside the timed region.
struct Workload {
    pristine: Context,
    module: OpRef,
    patterns: PatternSet,
}

fn build_workload() -> Workload {
    let mut ctx = showcase_context();
    let module = mul_chain_module(&mut ctx, CHAIN_LEN);
    let mut patterns = PatternSet::new();
    patterns.add(std::sync::Arc::new(MulToSqr {
        mul: ctx.op_name("cmath", "mul"),
        sqr: ctx.op_name("bench", "sqr"),
    }));
    Workload { pristine: ctx, module, patterns }
}

/// One checked drive over a fresh clone of the pristine chain. Only the
/// drive itself is timed; the clone happens outside the timer.
struct Drive {
    secs: f64,
    allocs: u64,
}

fn drive_once(w: &Workload, check: CheckLevel) -> Drive {
    let mut ctx = w.pristine.clone();
    let allocs_before = allocs();
    let start = Instant::now();
    let stats = rewrite_greedily_with(&mut ctx, w.module, &w.patterns, check)
        .expect("the chain stays valid under rewriting");
    let secs = start.elapsed().as_secs_f64();
    let allocs = allocs() - allocs_before;
    assert_eq!(stats.rewrites, CHAIN_LEN, "one rewrite per chain op");
    Drive { secs, allocs }
}

/// The printed module after a drive at `check`, for the output-equivalence
/// gate.
fn drive_output(w: &Workload, check: CheckLevel) -> String {
    let mut ctx = w.pristine.clone();
    rewrite_greedily_with(&mut ctx, w.module, &w.patterns, check)
        .expect("the chain stays valid under rewriting");
    op_to_string(&ctx, w.module)
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Warm up and calibrate an iteration count targeting `budget` seconds per
/// timed round.
fn calibrate(w: &Workload, check: CheckLevel, budget: f64) -> usize {
    for _ in 0..2 {
        drive_once(w, check);
    }
    let once = drive_once(w, check).secs.max(1e-9);
    ((budget / once) as usize).clamp(3, 10_000)
}

/// One timed round of `iters` drives; returns per-drive seconds and
/// per-drive allocations.
fn round(w: &Workload, check: CheckLevel, iters: usize) -> (f64, f64) {
    let mut secs = 0.0;
    let mut drive_allocs = 0u64;
    for _ in 0..iters {
        let drive = drive_once(w, check);
        secs += drive.secs;
        drive_allocs += drive.allocs;
    }
    (secs / iters as f64, drive_allocs as f64 / iters as f64)
}

/// Best-of-rounds for one check level.
#[derive(Clone, Copy)]
struct Measurement {
    best_secs: f64,
    allocs_per_drive: f64,
}

impl Measurement {
    fn new() -> Measurement {
        Measurement { best_secs: f64::INFINITY, allocs_per_drive: 0.0 }
    }

    fn record(&mut self, w: &Workload, check: CheckLevel, iters: usize) -> f64 {
        let (secs, allocs_per_drive) = round(w, check, iters);
        self.best_secs = self.best_secs.min(secs);
        // Steady-state allocations only: keep the last round's figure.
        self.allocs_per_drive = allocs_per_drive;
        secs
    }

    fn drives_per_sec(&self) -> f64 {
        1.0 / self.best_secs
    }

    fn allocs_per_rewrite(&self) -> f64 {
        self.allocs_per_drive / CHAIN_LEN as f64
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Summary {
    speedup: f64,
    unchecked: Measurement,
    full: Measurement,
    incremental: Measurement,
    outputs_identical: bool,
}

fn report_json(s: &Summary) -> String {
    let mut out = String::new();
    out.push_str(
        "{\n  \"benchmark\": \"checked greedy rewriting: incremental vs full re-verification\",\n",
    );
    out.push_str("  \"command\": \"cargo run -p irdl-bench --bin rewritebench --release\",\n");
    out.push_str(&format!("  \"required_speedup\": {REQUIRED_SPEEDUP:.1},\n"));
    out.push_str(&format!("  \"chain_len\": {CHAIN_LEN},\n"));
    out.push_str(&format!("  \"rewrites_per_drive\": {CHAIN_LEN},\n"));
    out.push_str(&format!("  \"speedup\": {:.2},\n", s.speedup));
    out.push_str(&format!(
        "  \"unchecked_drives_per_sec\": {:.1},\n",
        s.unchecked.drives_per_sec()
    ));
    out.push_str(&format!(
        "  \"full_checked_drives_per_sec\": {:.1},\n",
        s.full.drives_per_sec()
    ));
    out.push_str(&format!(
        "  \"incremental_checked_drives_per_sec\": {:.1},\n",
        s.incremental.drives_per_sec()
    ));
    out.push_str(&format!(
        "  \"incremental_check_overhead\": {:.2},\n",
        s.incremental.best_secs / s.unchecked.best_secs
    ));
    out.push_str(&format!(
        "  \"full_allocs_per_rewrite\": {:.1},\n",
        s.full.allocs_per_rewrite()
    ));
    out.push_str(&format!(
        "  \"incremental_allocs_per_rewrite\": {:.1},\n",
        s.incremental.allocs_per_rewrite()
    ));
    out.push_str(&format!(
        "  \"max_incremental_allocs_per_rewrite\": {MAX_INCR_ALLOCS_PER_REWRITE:.1},\n"
    ));
    out.push_str(&format!("  \"outputs_identical\": {}\n}}\n", s.outputs_identical));
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Quick mode trims the per-round budget for CI smoke runs; the speedup
    // floor stays enforced, so the budget stays large enough for the
    // full/incremental ratio to be stable on a loaded machine.
    let budget = if quick { 0.15 } else { 0.4 };
    let rounds = 3;

    let workload = build_workload();

    // Output equivalence: both checked drives must leave the module
    // byte-identical to the unchecked drive.
    let baseline = drive_output(&workload, CheckLevel::Off);
    let outputs_identical = drive_output(&workload, CheckLevel::Full) == baseline
        && drive_output(&workload, CheckLevel::Incremental) == baseline;
    assert!(outputs_identical, "checked drives must not change rewrite outcomes");
    assert!(
        baseline.contains("bench.sqr") && !baseline.contains("cmath.mul"),
        "the cascade must rewrite the whole chain"
    );

    let off_iters = calibrate(&workload, CheckLevel::Off, budget);
    let full_iters = calibrate(&workload, CheckLevel::Full, budget);
    let incr_iters = calibrate(&workload, CheckLevel::Incremental, budget);

    let mut unchecked = Measurement::new();
    let mut full = Measurement::new();
    let mut incremental = Measurement::new();
    let mut speedup: f64 = 0.0;
    for _ in 0..rounds {
        unchecked.record(&workload, CheckLevel::Off, off_iters);
        let full_secs = full.record(&workload, CheckLevel::Full, full_iters);
        let incr_secs = incremental.record(&workload, CheckLevel::Incremental, incr_iters);
        speedup = speedup.max(full_secs / incr_secs);
    }

    let summary = Summary { speedup, unchecked, full, incremental, outputs_identical };
    let json = report_json(&summary);
    print!("{json}");
    eprintln!(
        "rewrite: {CHAIN_LEN}-op chain, full-checked {:.1} drives/s, incremental \
         {:.1} drives/s ({speedup:.2}x paired, floor {REQUIRED_SPEEDUP:.1}x), \
         incremental allocs/rewrite {:.1}",
        full.drives_per_sec(),
        incremental.drives_per_sec(),
        incremental.allocs_per_rewrite(),
    );

    if quick {
        // Smoke runs enforce the gates but must not overwrite the
        // committed full-budget numbers.
        eprintln!("quick mode: not rewriting BENCH_rewrite.json");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rewrite.json");
        std::fs::write(path, &json).expect("write BENCH_rewrite.json");
        eprintln!("wrote {path}");
    }

    let mut failed = false;
    if speedup < REQUIRED_SPEEDUP {
        eprintln!("FAIL: speedup {speedup:.2}x is below the required {REQUIRED_SPEEDUP:.1}x");
        failed = true;
    }
    if incremental.allocs_per_rewrite() > MAX_INCR_ALLOCS_PER_REWRITE {
        eprintln!(
            "FAIL: {:.1} allocations per incremental checked rewrite exceeds the \
             {MAX_INCR_ALLOCS_PER_REWRITE:.1} ceiling",
            incremental.allocs_per_rewrite()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
