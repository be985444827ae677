//! One thin adapter per layer entry point.
//!
//! Every call the benchmark makes into the program goes through exactly
//! one function here, so a later rename or merge of a public entry point
//! (say, the `rewrite_greedily*` family collapsing into one function)
//! touches this file only and does not change what is timed.

use std::sync::Arc;

use irdl::{DialectBundle, NativeRegistry};
use irdl_fuzz_lib::oracle::{tv_patterns, TvPatterns};
use irdl_interp::{run_module, EvalOptions, EvalRegistry, Execution};
use irdl_ir::print::Printer;
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::{Context, OpRef};
use irdl_rewrite::{parse_patterns, rewrite_greedily_matched, CheckLevel, MatcherMode};
use irdl_rewrite::{PatternSet, RewriteStats};

/// Spec compile (`irdl`): IRDL sources into a sealed bundle.
pub fn compile(
    sources: &[(String, String)],
    natives: &NativeRegistry,
) -> Result<DialectBundle, String> {
    DialectBundle::compile(sources, natives).map_err(|d| d.to_string())
}

/// Spec compile (`irdl`) for the showcase dialects, whose `func` dialect
/// needs a native custom syntax attached after compilation.
pub fn compile_showcase() -> Result<DialectBundle, String> {
    let mut ctx = Context::new();
    irdl_dialects::showcase::register_showcase(&mut ctx).map_err(|d| d.to_string())?;
    Ok(DialectBundle::capture(
        ctx,
        vec!["cmath".into(), "arith".into(), "func".into()],
    ))
}

/// Pattern catalog (`irdl-rewrite`): parse the DSL and seal the matcher.
pub fn seal(ctx: &mut Context, dsl: &str) -> Result<PatternSet, String> {
    let patterns = parse_patterns(ctx, dsl).map_err(|d| d.render(dsl))?;
    patterns.seal();
    Ok(patterns)
}

/// Pattern catalog (`irdl-rewrite`) for translation validation: native
/// constant folding plus source DCE, sealed once per bundle.
pub fn seal_fold(bundle: &DialectBundle) -> Arc<TvPatterns> {
    tv_patterns(bundle)
}

/// Lexer (`irdl_ir::lexer`): returns the token count.
pub fn lex(source: &str) -> Result<usize, String> {
    irdl_ir::lexer::lex(source)
        .map(|tokens| tokens.len())
        .map_err(|d| d.render(source))
}

/// Parser (`irdl_ir::parse`), lexing included.
pub fn parse(ctx: &mut Context, source: &str) -> Result<OpRef, String> {
    irdl_ir::parse::parse_module(ctx, source).map_err(|d| d.render(source))
}

/// Verifier (`irdl_ir::verify`).
pub fn verify(verifier: &mut ModuleVerifier, ctx: &Context, module: OpRef) -> Result<(), String> {
    verifier.verify(ctx, module).map_err(|errs| {
        errs.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// Bytecode writer (`irdl_ir::bytecode`).
pub fn encode(ctx: &Context, module: OpRef) -> Result<Vec<u8>, String> {
    irdl_ir::bytecode::encode_module(ctx, module).map_err(|d| d.to_string())
}

/// Bytecode reader (`irdl_ir::bytecode`).
pub fn decode(ctx: &mut Context, bytes: &[u8]) -> Result<OpRef, String> {
    irdl_ir::bytecode::decode_module(ctx, bytes).map_err(|d| d.to_string())
}

/// Match, rewrite and fold (`irdl-rewrite`): the greedy driver.
pub fn rewrite(
    ctx: &mut Context,
    module: OpRef,
    patterns: &PatternSet,
    check: CheckLevel,
    mode: MatcherMode,
) -> Result<RewriteStats, String> {
    rewrite_greedily_matched(ctx, module, patterns, check, mode)
        .map_err(|err| format!("{err}: {}", err.diagnostics[0]))
}

/// Interpreter (`irdl-interp`): one execution under the default fuel.
pub fn execute(
    ctx: &Context,
    semantics: &EvalRegistry,
    module: OpRef,
    input_seed: u64,
) -> Execution {
    run_module(
        ctx,
        semantics,
        module,
        EvalOptions {
            input_seed,
            ..EvalOptions::default()
        },
    )
}

/// Printer (`irdl_ir::print`), into a fresh string as the batch pipeline
/// does.
pub fn print(ctx: &Context, module: OpRef) -> String {
    let mut output = String::new();
    Printer::new(&mut output).print_op(ctx, module);
    output
}

/// Erase (`irdl_ir`): returns the module's storage to the context.
pub fn erase(ctx: &mut Context, module: OpRef) {
    ctx.erase_op(module);
}

/// Operations in `module`, the module op included (checks only; never
/// inside a timed window).
pub fn count_ops(ctx: &Context, module: OpRef) -> usize {
    irdl_ir::walk::count_ops_capped(ctx, module, usize::MAX)
}
