//! Allocation-count regression gates for the compact op storage layer
//! (see DESIGN.md "Op storage layout"). A counting global allocator pins
//! the properties the layer exists for:
//!
//! - steady-state op create/erase cycles recycle every buffer: **zero**
//!   heap allocations once warm;
//! - the erase path no longer clones operand vectors: erasing a warmed
//!   subtree is allocation-free;
//! - text parse stays within the membench construction budget
//!   (≤ 3 allocs/op) and bytecode decode within ≤ 2 allocs/op;
//! - the module writers allocate per module, not per op: encoding a
//!   10⁴-op module, or printing it into a reserved `String`, stays under
//!   a fixed allocation ceiling.
//!
//! Everything runs inside one `#[test]` so no concurrent test thread can
//! perturb the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use irdl_ir::bytecode::{decode_module, encode_module};
use irdl_ir::parse::parse_module;
use irdl_ir::print::Printer;
use irdl_ir::{Context, OpRef, OperationState};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Counts the allocations `f` performs.
fn count(mut f: impl FnMut()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

/// Steady-state create/append/erase cycles must not touch the heap: the
/// op's inline payloads avoid it on construction and the arena free list
/// plus spill pool recycle everything on erase.
fn check_steady_create_erase(ctx: &mut Context) {
    let f32t = ctx.f32_type();
    let name = ctx.op_name("t", "node");
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let src = ctx.create_op(OperationState::new(name).add_result_types([f32t]));
    ctx.append_op(block, src);
    let feed = src.result(ctx, 0);

    let cycle = |ctx: &mut Context| {
        let op = ctx.create_op(
            OperationState::new(name).add_operands([feed, feed]).add_result_types([f32t]),
        );
        ctx.append_op(block, op);
        ctx.erase_op(op);
    };
    for _ in 0..256 {
        cycle(ctx);
    }
    let used = count(|| {
        for _ in 0..10_000 {
            cycle(ctx);
        }
    });
    assert_eq!(used, 0, "steady-state create/erase must be allocation-free");
    ctx.erase_op(module);
}

/// Erasing a warmed multi-op subtree — ops with cross-uses, so the erase
/// path must unlink operands of surviving ops — is allocation-free: the
/// old operand-vector clone is gone and the subtree scratch (including the
/// generation-stamped mark vector) is recycled.
fn check_erase_subtree_no_alloc(ctx: &mut Context) {
    let f32t = ctx.f32_type();
    let name = ctx.op_name("t", "node");

    let build = |ctx: &mut Context| {
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let src = ctx.create_op(OperationState::new(name).add_result_types([f32t]));
        ctx.append_op(block, src);
        let mut value = src.result(ctx, 0);
        for _ in 0..8 {
            let op = ctx.create_op(
                OperationState::new(name)
                    .add_operands([value, value])
                    .add_result_types([f32t]),
            );
            ctx.append_op(block, op);
            value = op.result(ctx, 0);
        }
        module
    };
    for _ in 0..16 {
        let module = build(ctx);
        ctx.erase_op(module);
    }
    for _ in 0..8 {
        let module = build(ctx);
        let used = count(|| ctx.erase_op(module));
        assert_eq!(used, 0, "warmed subtree erase must be allocation-free");
    }
}

/// A straight-line module in the quoted generic form, paralleling the
/// membench corpus workload but self-contained (no registry needed).
fn chain_source(n: usize) -> String {
    let mut out = String::from("%v0 = \"t.src\"() : () -> f32\n");
    for i in 0..n {
        out.push_str(&format!("%v{} = \"t.mid\"(%v{i}) : (f32) -> f32\n", i + 1));
    }
    out
}

/// Text parse must stay within the membench construction budget.
fn check_parse_budget(ctx: &mut Context) {
    const OPS: usize = 65; // 64 chain ops + the source op
    let text = chain_source(64);
    for _ in 0..3 {
        let module = parse_module(ctx, &text).expect("chain parses");
        ctx.erase_op(module);
    }
    const PASSES: u64 = 16;
    let used = count(|| {
        for _ in 0..PASSES {
            let module = parse_module(ctx, &text).expect("chain parses");
            black_box(module);
            ctx.erase_op(module);
        }
    });
    let per_op = used as f64 / (PASSES * OPS as u64) as f64;
    assert!(per_op <= 3.0, "parse at {per_op:.2} allocs/op exceeds the 3.0 gate");
}

/// Bytecode decode must stay within the membench construction budget.
fn check_decode_budget(ctx: &mut Context) {
    const OPS: usize = 65;
    let text = chain_source(64);
    let module = parse_module(ctx, &text).expect("chain parses");
    let bytes = encode_module(ctx, module).expect("chain encodes");
    ctx.erase_op(module);
    for _ in 0..3 {
        let module = decode_module(ctx, &bytes).expect("chain decodes");
        ctx.erase_op(module);
    }
    const PASSES: u64 = 16;
    let used = count(|| {
        for _ in 0..PASSES {
            let module = decode_module(ctx, &bytes).expect("chain decodes");
            black_box(module);
            ctx.erase_op(module);
        }
    });
    let per_op = used as f64 / (PASSES * OPS as u64) as f64;
    assert!(per_op <= 2.0, "decode at {per_op:.2} allocs/op exceeds the 2.0 gate");
}

/// A module of `ops` three-operand ops that opens a nested region (with a
/// block argument) every 500 ops, so the writers see depth as well as
/// width.
fn nested_module(ctx: &mut Context, ops: usize) -> OpRef {
    let f32t = ctx.f32_type();
    let node = ctx.op_name("t", "node");
    let wrap = ctx.op_name("t", "wrap");
    let key = ctx.symbol("k");
    let attr = ctx.i32_attr(3);
    let module = ctx.create_module();
    let mut block = ctx.module_block(module);
    let src = ctx.create_op(OperationState::new(node).add_result_types([f32t]));
    ctx.append_op(block, src);
    let mut values = vec![src.result(ctx, 0)];
    for i in 0..ops {
        if i % 500 == 499 {
            let (region, entry) = ctx.create_region_with_entry([f32t]);
            let op = ctx.create_op(OperationState::new(wrap).add_regions([region]));
            ctx.append_op(block, op);
            block = entry;
            values.push(entry.arg(ctx, 0));
            continue;
        }
        let n = values.len();
        let operands = [values[n - 1], values[n / 2], values[i % n]];
        let op = ctx.create_op(
            OperationState::new(node)
                .add_operands(operands)
                .add_result_types([f32t])
                .add_attribute(key, attr),
        );
        ctx.append_op(block, op);
        values.push(op.result(ctx, 0));
    }
    module
}

/// Encoding and printing allocate a bounded number of times per module,
/// however many ops it holds: no per-op list copies, no per-region
/// buffers, no hash-map growth with the value count. What is left grows
/// only logarithmically (output buffers doubling): 61 encode and 4 print
/// allocations at 10⁴ ops.
fn check_writers_alloc_ceiling(ctx: &mut Context) {
    const OPS: usize = 10_000;
    const ENCODE_CEILING: u64 = 128;
    const PRINT_CEILING: u64 = 8;
    let module = nested_module(ctx, OPS);
    let warm = encode_module(ctx, module).expect("module encodes");
    let mut text = String::new();
    Printer::new(&mut text).print_op(ctx, module);

    let mut bytes = Vec::new();
    let encode = count(|| bytes = encode_module(ctx, module).expect("module encodes"));
    assert_eq!(bytes, warm);
    assert!(encode <= ENCODE_CEILING, "encode made {encode} allocations for {OPS} ops");

    let mut out = String::with_capacity(text.len());
    let used = count(|| Printer::new(&mut out).print_op(ctx, module));
    assert_eq!(out, text);
    assert!(used <= PRINT_CEILING, "print made {used} allocations for {OPS} ops");
    ctx.erase_op(module);
}

#[test]
fn compact_storage_alloc_gates() {
    let mut ctx = Context::new();
    check_steady_create_erase(&mut ctx);
    check_erase_subtree_no_alloc(&mut ctx);
    check_parse_budget(&mut ctx);
    check_decode_budget(&mut ctx);
    check_writers_alloc_ceiling(&mut ctx);
}
