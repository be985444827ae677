//! Shared workload builders and allocation accounting for the benchmark
//! harness.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use irdl_ir::{Context, OpRef, OperationState};

/// Counts every allocation request so a measured pass can report how many
/// times it hit the heap. Deallocations are not interesting here. A bench
/// binary installs it with `#[global_allocator]` and reads [`allocs`].
pub struct CountingAlloc;

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

/// Allocation requests counted so far by [`CountingAlloc`] (always 0 in a
/// binary that did not install it).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A fresh context with the 28-dialect corpus registered; returns the
/// corpus dialect names alongside.
pub fn corpus_context() -> (Context, Vec<String>) {
    let mut ctx = Context::new();
    let names = irdl_dialects::register_corpus(&mut ctx).expect("corpus compiles");
    (ctx, names)
}

/// A fresh context with the showcase dialects (`cmath`/`arith`/`func`).
pub fn showcase_context() -> Context {
    let mut ctx = Context::new();
    irdl_dialects::showcase::register_showcase(&mut ctx).expect("showcase compiles");
    ctx
}

/// Builds a module of `n` verifiable `cmath.mul` operations.
pub fn mul_chain_module(ctx: &mut Context, n: usize) -> OpRef {
    let f32 = ctx.f32_type();
    let f32a = ctx.type_attr(f32);
    let complex = ctx
        .parametric_type("cmath", "complex", [f32a])
        .expect("cmath registered");
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let src = ctx.op_name("test", "source");
    let first = ctx.create_op(OperationState::new(src).add_result_types([complex]));
    ctx.append_op(block, first);
    let mut value = first.result(ctx, 0);
    let mul = ctx.op_name("cmath", "mul");
    for _ in 0..n {
        let op = ctx.create_op(
            OperationState::new(mul)
                .add_operands([value, value])
                .add_result_types([complex]),
        );
        ctx.append_op(block, op);
        value = op.result(ctx, 0);
    }
    module
}

/// The textual source of a straight-line module with `n` cmath operations
/// in custom syntax, for parse benchmarks.
pub fn mul_chain_source(n: usize) -> String {
    let mut out = String::from("%v0 = \"test.source\"() : () -> !cmath.complex<f32>\n");
    for i in 0..n {
        out.push_str(&format!("%v{} = cmath.mul %v{i}, %v{i} : f32\n", i + 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use irdl_ir::verify::verify_op;

    #[test]
    fn workloads_build_and_verify() {
        let mut ctx = showcase_context();
        let module = mul_chain_module(&mut ctx, 10);
        verify_op(&ctx, module).unwrap();
        let src = mul_chain_source(5);
        let parsed = irdl_ir::parse::parse_module(&mut ctx, &src).unwrap();
        verify_op(&ctx, parsed).unwrap();
    }

    #[test]
    fn corpus_context_builds() {
        let (_ctx, names) = corpus_context();
        assert_eq!(names.len(), 28);
    }
}
