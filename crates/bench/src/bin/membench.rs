//! Zero-dependency memory benchmark: allocations per constructed op.
//!
//! PR 8 left op construction at ~8 heap allocations per operation: six
//! per-op `Vec`s in `OperationData`, a `Vec<Vec<Use>>` use-list, and
//! operand-vector clones on the erase path. The compact-storage layer
//! (inline payloads, intrusive use-chains, pooled spill buffers — see
//! DESIGN.md "Op storage layout") exists to break that floor. This bench
//! substantiates the claim with a counting global allocator:
//!
//! - **text_parse**: the corpus module workload (one module per
//!   instantiable corpus op plus the combined big file, as `bytebench`
//!   measures). Gates: ≤ 3 allocs/op and ≥ 1.3x the PR 8 parse
//!   throughput baseline.
//! - **bytecode_decode**: the same modules decoded from `IRBC` bytecode.
//!   Gates: ≤ 2 allocs/op and ≥ 1.3x the PR 8 decode throughput baseline.
//! - **steady_rewrite**: a warmed journaled rewrite loop (insert a
//!   replacement op, forward uses, erase the old op, via the rewrite
//!   `Rewriter`). After warmup every buffer involved — inline op payloads,
//!   the spill pool, arena free lists, journal vectors, order-key
//!   respacing — is recycled, so the gate is **exactly zero** allocations
//!   per rewrite step.
//! - **steady_declarative**: warmed applications of the paper's Listing 1
//!   `conorm` pattern, loaded from the pattern DSL, each followed by
//!   incremental re-verification of the journaled changes — the checked
//!   rewrite path end to end. Slot-compiled matching, inline operand
//!   materialization and the thread-local verifier scratch leave nothing
//!   to allocate, so this gate is also **exactly zero** per step.
//! - **text_parse_transient**: peak live heap while `parse_module` reads
//!   the printed text of a 10^5-op Wide and a 10^5-op Deep `genscale`
//!   module, minus the live bytes the finished IR holds — the parser's
//!   own working memory. The pull lexer keeps no token vector, so the
//!   gate is **at most 2 bytes per source byte** (a materialized token
//!   stream alone costs ~12).
//!
//! The throughput baselines are the PR 8 numbers recorded in
//! BENCH_bytecode.json on this machine; the alloc gates are
//! deterministic counts, independent of machine load. Results are written
//! to `BENCH_mem.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin membench --release [-- --quick]
//! ```
//!
//! `--quick` trims measurement budgets for CI smoke runs and skips the
//! machine-relative throughput floors (load-sensitive); the deterministic
//! allocation and transient-heap gates are always enforced.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use irdl::genir::{instantiate_op, Instantiation};
use irdl_ir::bytecode::{decode_module, encode_module};
use irdl_ir::parse::parse_module;
use irdl_ir::print::op_to_string;
use irdl_dialects::showcase::{build_conorm_module, CONORM_PATTERN};
use irdl_fuzz_lib::genscale::{generate_scale_module, scale_bundle, ScaleConfig, ScaleShape};
use irdl_ir::{ChangeJournal, Context, IncrementalVerifier, OpRef, OperationState};
use irdl_rewrite::{parse_patterns, Rewriter};

// ---------------------------------------------------------------------------
// Gates and baselines
// ---------------------------------------------------------------------------

/// Construction from text must average at most this many heap allocations
/// per op over the corpus workload.
const MAX_PARSE_ALLOCS_PER_OP: f64 = 3.0;
/// Construction from bytecode must average at most this many.
const MAX_DECODE_ALLOCS_PER_OP: f64 = 2.0;
/// A warmed rewrite step must not allocate at all.
const MAX_REWRITE_ALLOCS: u64 = 0;
/// Nor may a warmed, incrementally re-verified declarative application.
const MAX_DECLARATIVE_ALLOCS: u64 = 0;
/// Parsing a giant module may hold at most this many transient heap bytes
/// per source byte at its peak.
const MAX_TRANSIENT_BYTES_PER_SOURCE_BYTE: f64 = 2.0;
/// Op count of each giant module the transient gate parses.
const TRANSIENT_OPS: usize = 100_000;
/// Parse and decode must beat the PR 8 baseline by at least this factor.
const REQUIRED_THROUGHPUT_SPEEDUP: f64 = 1.3;

/// PR 8 corpus parse throughput (ops/s) from BENCH_bytecode.json, recorded
/// at 8.34 allocs/op on this machine.
const PR8_PARSE_OPS_PER_SEC: f64 = 1_002_322.7;
/// PR 8 corpus decode throughput (ops/s), recorded at 7.46 allocs/op.
const PR8_DECODE_OPS_PER_SEC: f64 = 2_007_525.5;

// ---------------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------------

/// Counts every allocation request (including reallocs) so a measured pass
/// can report how many times it hit the heap, and tracks live heap bytes
/// with their high-water mark.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grow_live(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow_live(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // Count the new block before releasing the old one: a moving
        // realloc holds both at once.
        grow_live(new_size);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live byte count.
fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Generates one module text per instantiable corpus op plus one combined
/// module holding every instance (the same set `bytebench` loads).
fn corpus_texts() -> Vec<String> {
    let mut ctx = Context::new();
    let natives = irdl_dialects::corpus_natives();
    let mut texts = Vec::new();

    let big_module = ctx.create_module();
    let big_block = ctx.module_block(big_module);

    for (dialect_name, source) in irdl_dialects::corpus_sources() {
        let file = irdl::parse_irdl(&source).expect("corpus parses");
        for dialect in &file.dialects {
            let compiled = irdl::compile_dialect_collecting(&mut ctx, dialect, &natives)
                .unwrap_or_else(|e| panic!("{dialect_name} compiles: {e}"));
            for op in compiled {
                let module = ctx.create_module();
                let block = ctx.module_block(module);
                match instantiate_op(&mut ctx, &op, block) {
                    Instantiation::Built(_) => {
                        texts.push(op_to_string(&ctx, module));
                        ctx.erase_op(module);
                        let again = instantiate_op(&mut ctx, &op, big_block);
                        assert!(matches!(again, Instantiation::Built(_)));
                    }
                    Instantiation::Skipped(_) => ctx.erase_op(module),
                }
            }
        }
    }
    texts.push(op_to_string(&ctx, big_module));
    texts
}

struct Measurement {
    ops_per_sec: f64,
    allocs_per_op: f64,
}

/// Warm up, calibrate an iteration count targeting `budget` seconds, then
/// take the best of three timed repeats. Allocations are averaged across
/// all timed passes — the count is deterministic per pass once warm.
fn measure(mut pass: impl FnMut() -> usize, ops: usize, budget: f64) -> Measurement {
    for _ in 0..3 {
        black_box(pass());
    }
    let start = Instant::now();
    black_box(pass());
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget / once) as usize).clamp(3, 50_000);

    let mut best_secs = f64::INFINITY;
    let allocs_before = allocs();
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(pass());
        }
        best_secs = best_secs.min(start.elapsed().as_secs_f64());
    }
    let allocs_after = allocs();
    Measurement {
        ops_per_sec: (ops * iters) as f64 / best_secs,
        allocs_per_op: (allocs_after - allocs_before) as f64 / (3 * ops * iters) as f64,
    }
}

struct LoadReport {
    modules: usize,
    ops: usize,
    parse: Measurement,
    decode: Measurement,
}

/// Parse and decode the corpus module set in one long-lived
/// corpus-registered context, erasing each module after the load so
/// arenas and pools reach steady state.
fn run_construction(budget: f64) -> LoadReport {
    let texts = corpus_texts();
    let (mut ctx, _) = irdl_bench::corpus_context();

    let mut encoded = Vec::with_capacity(texts.len());
    let mut total_ops = 0usize;
    for text in &texts {
        let before = ctx.num_ops();
        let module = parse_module(&mut ctx, text)
            .unwrap_or_else(|e| panic!("workload text parses: {e}\n{text}"));
        total_ops += ctx.num_ops() - before;
        encoded.push(encode_module(&ctx, module).expect("workload module encodes"));
        ctx.erase_op(module);
    }

    let parse = measure(
        || {
            let mut ok = 0;
            for text in &texts {
                let module = parse_module(&mut ctx, text).expect("parses");
                ok += 1;
                ctx.erase_op(module);
            }
            ok
        },
        total_ops,
        budget,
    );
    let decode = measure(
        || {
            let mut ok = 0;
            for bytes in &encoded {
                let module = decode_module(&mut ctx, bytes).expect("decodes");
                ok += 1;
                ctx.erase_op(module);
            }
            ok
        },
        total_ops,
        budget,
    );

    LoadReport { modules: texts.len(), ops: total_ops, parse, decode }
}

struct RewriteReport {
    steps: usize,
    total_allocs: u64,
    steps_per_sec: f64,
}

/// A journaled replace-forward-erase loop: each step inserts a fresh op
/// before the current one, forwards the current op's uses to it, and
/// erases the old op — the canonical greedy-rewrite inner step. After
/// warmup the step count is exact: zero heap allocations.
fn run_steady_rewrite(steps: usize) -> RewriteReport {
    let mut ctx = Context::new();
    let f32t = ctx.f32_type();
    let src_name = ctx.op_name("m", "src");
    let mid_name = ctx.op_name("m", "mid");
    let sink_name = ctx.op_name("m", "sink");

    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let src = ctx.create_op(OperationState::new(src_name).add_result_types([f32t]));
    ctx.append_op(block, src);
    let feed = src.result(&ctx, 0);
    let mut current =
        ctx.create_op(OperationState::new(mid_name).add_operands([feed]).add_result_types([f32t]));
    ctx.append_op(block, current);
    let sink = ctx
        .create_op(OperationState::new(sink_name).add_operands([current.result(&ctx, 0)]));
    ctx.append_op(block, sink);

    let mut journal = ChangeJournal::new();
    let step = |ctx: &mut Context, journal: &mut ChangeJournal, current: OpRef| {
        journal.clear();
        let mut rw = Rewriter::new(ctx, current, journal);
        let fresh = rw.insert_before(
            current,
            OperationState::new(mid_name).add_operands([feed]).add_result_types([f32t]),
        );
        let old = current.result(rw.ctx(), 0);
        let new = fresh.result(rw.ctx(), 0);
        rw.replace_all_uses(old, new);
        rw.erase(current);
        fresh
    };

    // Warmup: grow every reusable buffer (journal vectors, spill pool,
    // arena free lists, erase scratch) and cycle past an order-key
    // respace so the measured loop runs entirely on recycled storage.
    for _ in 0..4096 {
        current = step(&mut ctx, &mut journal, current);
    }

    let before = allocs();
    let start = Instant::now();
    for _ in 0..steps {
        current = step(&mut ctx, &mut journal, current);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let total_allocs = allocs() - before;
    black_box(current);

    RewriteReport { steps, total_allocs, steps_per_sec: steps as f64 / secs }
}

/// Warmed `conorm` applications: each step plants a fresh
/// `mulf(norm(p), norm(q))` site feeding the function's return (erasing
/// the previous step's output), applies the DSL pattern through
/// `match_and_rewrite`, and re-verifies the journal with
/// `IncrementalVerifier::verify_changes`. After warmup the step count is
/// exact: zero heap allocations.
fn run_steady_declarative(steps: usize) -> RewriteReport {
    let mut ctx = irdl_bench::showcase_context();
    let patterns = parse_patterns(&mut ctx, CONORM_PATTERN).expect("conorm parses");
    let conorm = &*patterns.patterns()[0];
    let module = build_conorm_module(&mut ctx).expect("conorm module builds");
    let func = ctx.module_block(module).ops(&ctx)[0];
    let entry = func.region(&ctx, 0).blocks(&ctx)[0];
    let ret = *entry.ops(&ctx).last().expect("entry block ends in a return");
    let f32t = ctx.f32_type();
    let (p, q) = (entry.arg(&ctx, 0), entry.arg(&ctx, 1));
    let norm = ctx.op_name("cmath", "norm");
    let mulf = ctx.op_name("arith", "mulf");

    let mut verifier = IncrementalVerifier::new();
    verifier.verify_full(&ctx, module).expect("conorm module verifies");
    let mut journal = ChangeJournal::new();
    let mut apply = |ctx: &mut Context, site: OpRef| {
        journal.clear();
        let mut rw = Rewriter::new(ctx, site, &mut journal);
        assert!(conorm.match_and_rewrite(&mut rw), "conorm site matches");
        assert!(verifier.verify_changes(ctx, &journal).is_ok(), "rewrite verifies");
    };
    // The module's own site first.
    let first = ret.operand(&ctx, 0).defining_op(&ctx).expect("mulf feeds the return");
    apply(&mut ctx, first);
    let mut step = |ctx: &mut Context| {
        let old_norm = ret.operand(ctx, 0).defining_op(ctx).expect("norm feeds the return");
        let old_mul = old_norm.operand(ctx, 0).defining_op(ctx).expect("mul feeds the norm");
        let add = |ctx: &mut Context, state: OperationState| {
            let op = ctx.create_op(state.add_result_types([f32t]));
            ctx.insert_op_before(ret, op);
            op
        };
        let np = add(ctx, OperationState::new(norm).add_operands([p])).result(ctx, 0);
        let nq = add(ctx, OperationState::new(norm).add_operands([q])).result(ctx, 0);
        let site = add(ctx, OperationState::new(mulf).add_operands([np, nq]));
        ctx.set_operand(ret, 0, site.result(ctx, 0));
        ctx.erase_op(old_norm);
        ctx.erase_op(old_mul);
        apply(ctx, site);
    };

    // Warmup: grow every reusable buffer (journal, verifier sets,
    // dominance cache, spill pool, arena free lists, thread-local eval
    // scratch) so the measured loop runs on recycled storage.
    for _ in 0..4096 {
        step(&mut ctx);
    }

    let before = allocs();
    let start = Instant::now();
    for _ in 0..steps {
        step(&mut ctx);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let total_allocs = allocs() - before;

    RewriteReport { steps, total_allocs, steps_per_sec: steps as f64 / secs }
}

struct TransientReport {
    shape: ScaleShape,
    ops: usize,
    source_bytes: usize,
    transient_bytes: usize,
}

impl TransientReport {
    fn bytes_per_source_byte(&self) -> f64 {
        self.transient_bytes as f64 / self.source_bytes as f64
    }
}

/// Peak transient heap of one `parse_module` per giant-module shape.
///
/// Each module is parsed once into its context and erased first, so the
/// measured parse reuses warm arenas, pools and interned names the way a
/// long-lived context does; the IR it builds then costs no new heap, and
/// what is left between the peak and the final live count is the
/// parser's working memory.
fn run_text_parse_transient() -> Vec<TransientReport> {
    let bundle = scale_bundle().expect("scale dialect compiles");
    [ScaleShape::Wide, ScaleShape::Deep]
        .into_iter()
        .map(|shape| {
            let mut ctx = bundle.instantiate();
            let (module, ops) =
                generate_scale_module(&mut ctx, &ScaleConfig::valid(TRANSIENT_OPS, shape));
            let text = op_to_string(&ctx, module);
            ctx.erase_op(module);
            let warm = parse_module(&mut ctx, &text).expect("scale module text parses");
            ctx.erase_op(warm);

            reset_peak();
            let module = parse_module(&mut ctx, &text).expect("scale module text parses");
            let transient_bytes = peak_bytes() - live_bytes();
            black_box(module);
            TransientReport { shape, ops, source_bytes: text.len(), transient_bytes }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn json_f(value: f64) -> String {
    if value.is_finite() { format!("{value:.1}") } else { "null".to_string() }
}

fn report_json(
    load: &LoadReport,
    rewrite: &RewriteReport,
    declarative: &RewriteReport,
    transient: &[TransientReport],
) -> String {
    let transient_json: Vec<String> = transient
        .iter()
        .map(|t| {
            format!(
                "    \"{:?}\": {{ \"ops\": {}, \"source_bytes\": {}, \"transient_bytes\": {}, \
                 \"bytes_per_source_byte\": {:.2} }}",
                t.shape,
                t.ops,
                t.source_bytes,
                t.transient_bytes,
                t.bytes_per_source_byte()
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"op construction allocations\",\n",
            "  \"command\": \"cargo run -p irdl-bench --bin membench --release\",\n",
            "  \"max_parse_allocs_per_op\": {},\n",
            "  \"max_decode_allocs_per_op\": {},\n",
            "  \"max_rewrite_allocs_per_step\": {},\n",
            "  \"max_declarative_allocs_per_step\": {},\n",
            "  \"max_transient_bytes_per_source_byte\": {},\n",
            "  \"required_throughput_speedup\": {},\n",
            "  \"baseline\": {{\n",
            "    \"note\": \"PR 8 (pre-compact-storage) corpus numbers, this machine\",\n",
            "    \"parse_ops_per_sec\": {},\n",
            "    \"parse_allocs_per_op\": 8.34,\n",
            "    \"decode_ops_per_sec\": {},\n",
            "    \"decode_allocs_per_op\": 7.46\n",
            "  }},\n",
            "  \"text_parse\": {{\n",
            "    \"modules\": {},\n",
            "    \"ops\": {},\n",
            "    \"ops_per_sec\": {},\n",
            "    \"allocs_per_op\": {:.2},\n",
            "    \"speedup_vs_pr8\": {:.2}\n",
            "  }},\n",
            "  \"bytecode_decode\": {{\n",
            "    \"modules\": {},\n",
            "    \"ops\": {},\n",
            "    \"ops_per_sec\": {},\n",
            "    \"allocs_per_op\": {:.2},\n",
            "    \"speedup_vs_pr8\": {:.2}\n",
            "  }},\n",
            "  \"steady_rewrite\": {{\n",
            "    \"steps\": {},\n",
            "    \"total_allocs\": {},\n",
            "    \"steps_per_sec\": {}\n",
            "  }},\n",
            "  \"steady_declarative\": {{\n",
            "    \"steps\": {},\n",
            "    \"total_allocs\": {},\n",
            "    \"steps_per_sec\": {}\n",
            "  }},\n",
            "  \"text_parse_transient\": {{\n",
            "{}\n",
            "  }}\n",
            "}}\n",
        ),
        MAX_PARSE_ALLOCS_PER_OP,
        MAX_DECODE_ALLOCS_PER_OP,
        MAX_REWRITE_ALLOCS,
        MAX_DECLARATIVE_ALLOCS,
        MAX_TRANSIENT_BYTES_PER_SOURCE_BYTE,
        REQUIRED_THROUGHPUT_SPEEDUP,
        json_f(PR8_PARSE_OPS_PER_SEC),
        json_f(PR8_DECODE_OPS_PER_SEC),
        load.modules,
        load.ops,
        json_f(load.parse.ops_per_sec),
        load.parse.allocs_per_op,
        load.parse.ops_per_sec / PR8_PARSE_OPS_PER_SEC,
        load.modules,
        load.ops,
        json_f(load.decode.ops_per_sec),
        load.decode.allocs_per_op,
        load.decode.ops_per_sec / PR8_DECODE_OPS_PER_SEC,
        rewrite.steps,
        rewrite.total_allocs,
        json_f(rewrite.steps_per_sec),
        declarative.steps,
        declarative.total_allocs,
        json_f(declarative.steps_per_sec),
        transient_json.join(",\n"),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let budget = if quick { 0.08 } else { 0.5 };
    let rewrite_steps = if quick { 20_000 } else { 200_000 };

    eprintln!("generating corpus module workload...");
    let load = run_construction(budget);
    eprintln!(
        "text_parse: {} modules / {} ops, {:.0} ops/s, {:.2} allocs/op ({:.2}x vs PR 8)",
        load.modules,
        load.ops,
        load.parse.ops_per_sec,
        load.parse.allocs_per_op,
        load.parse.ops_per_sec / PR8_PARSE_OPS_PER_SEC,
    );
    eprintln!(
        "bytecode_decode: {} modules / {} ops, {:.0} ops/s, {:.2} allocs/op ({:.2}x vs PR 8)",
        load.modules,
        load.ops,
        load.decode.ops_per_sec,
        load.decode.allocs_per_op,
        load.decode.ops_per_sec / PR8_DECODE_OPS_PER_SEC,
    );

    let rewrite = run_steady_rewrite(rewrite_steps);
    eprintln!(
        "steady_rewrite: {} steps, {} total allocs, {:.0} steps/s",
        rewrite.steps, rewrite.total_allocs, rewrite.steps_per_sec,
    );

    let declarative = run_steady_declarative(rewrite_steps / 4);
    eprintln!(
        "steady_declarative: {} steps, {} total allocs, {:.0} steps/s",
        declarative.steps, declarative.total_allocs, declarative.steps_per_sec,
    );

    let transient = run_text_parse_transient();
    for t in &transient {
        eprintln!(
            "text_parse_transient {:?}: {} ops, {} source bytes, {} transient bytes ({:.2} B/byte)",
            t.shape,
            t.ops,
            t.source_bytes,
            t.transient_bytes,
            t.bytes_per_source_byte(),
        );
    }

    let json = report_json(&load, &rewrite, &declarative, &transient);
    print!("{json}");
    if quick {
        eprintln!("quick mode: not rewriting BENCH_mem.json");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mem.json");
        std::fs::write(path, &json).expect("write BENCH_mem.json");
        eprintln!("wrote {path}");
    }

    let mut failed = false;
    if load.parse.allocs_per_op > MAX_PARSE_ALLOCS_PER_OP {
        eprintln!(
            "FAIL: parse at {:.2} allocs/op exceeds the {MAX_PARSE_ALLOCS_PER_OP} gate",
            load.parse.allocs_per_op
        );
        failed = true;
    }
    if load.decode.allocs_per_op > MAX_DECODE_ALLOCS_PER_OP {
        eprintln!(
            "FAIL: decode at {:.2} allocs/op exceeds the {MAX_DECODE_ALLOCS_PER_OP} gate",
            load.decode.allocs_per_op
        );
        failed = true;
    }
    if rewrite.total_allocs > MAX_REWRITE_ALLOCS {
        eprintln!(
            "FAIL: steady-state rewrite performed {} allocations over {} steps (gate: {})",
            rewrite.total_allocs, rewrite.steps, MAX_REWRITE_ALLOCS
        );
        failed = true;
    }
    if declarative.total_allocs > MAX_DECLARATIVE_ALLOCS {
        eprintln!(
            "FAIL: steady-state declarative rewrite performed {} allocations over {} steps \
             (gate: {})",
            declarative.total_allocs, declarative.steps, MAX_DECLARATIVE_ALLOCS
        );
        failed = true;
    }
    for t in &transient {
        if t.bytes_per_source_byte() > MAX_TRANSIENT_BYTES_PER_SOURCE_BYTE {
            eprintln!(
                "FAIL: parsing the {:?} module held {:.2} transient heap bytes per source byte \
                 (gate: {MAX_TRANSIENT_BYTES_PER_SOURCE_BYTE})",
                t.shape,
                t.bytes_per_source_byte()
            );
            failed = true;
        }
    }
    // Throughput floors compare against fixed numbers recorded on an idle
    // machine, so they are only meaningful in full runs.
    if !quick {
        if load.parse.ops_per_sec < REQUIRED_THROUGHPUT_SPEEDUP * PR8_PARSE_OPS_PER_SEC {
            eprintln!(
                "FAIL: parse throughput {:.0} ops/s is below {REQUIRED_THROUGHPUT_SPEEDUP}x \
                 the PR 8 baseline ({PR8_PARSE_OPS_PER_SEC} ops/s)",
                load.parse.ops_per_sec
            );
            failed = true;
        }
        if load.decode.ops_per_sec < REQUIRED_THROUGHPUT_SPEEDUP * PR8_DECODE_OPS_PER_SEC {
            eprintln!(
                "FAIL: decode throughput {:.0} ops/s is below {REQUIRED_THROUGHPUT_SPEEDUP}x \
                 the PR 8 baseline ({PR8_DECODE_OPS_PER_SEC} ops/s)",
                load.decode.ops_per_sec
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
