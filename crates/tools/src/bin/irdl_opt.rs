//! `irdl-opt`: an `mlir-opt`-style driver, fully runtime-configured.
//!
//! Dialects, rewrite patterns, and the IR all come from files (or stdin):
//!
//! ```text
//! irdl-opt --irdl cmath.irdl --patterns conorm.pat input.ir
//! irdl-opt --irdl cmath.irdl --verify --generic input.ir
//! echo '...ir...' | irdl-opt --irdl cmath.irdl
//! ```
//!
//! Options:
//! - `--irdl <file>`     register dialects from an IRDL file (repeatable)
//! - `--patterns <file>` apply declarative patterns from a file (repeatable)
//! - `--showcase`        preregister the cmath/arith/func showcase dialects
//! - `--corpus`          preregister the 28-dialect evaluation corpus
//! - `--verify`          verify after parsing (and after rewriting)
//! - `--verify-each=L`   verify every intermediate rewrite state at level
//!   `L`: `incr` (journal-driven incremental, the default when the flag
//!   is given bare), `full` (whole-module after every rewrite — the slow
//!   differential oracle), or `off`
//! - `--matcher=M`       pattern dispatch mode: `auto` (the compiled
//!   shared matcher automaton, the default) or `scan` (the per-pattern
//!   scan — the slow differential oracle)
//! - `--fold`            add the constant-folding catalog (over the
//!   showcase/corpus evaluation semantics) to the pattern set
//! - `--interp`          after rewriting, execute the module on the
//!   `irdl-interp` register machine and print its observations instead
//!   of the IR (single input; `--seed` picks the input seed)
//! - `--seed <n>`        input seed for `--interp` (default 0)
//! - `--generic`         print in the generic form only
//! - `--emit=F`          output format: `text` (the default) or
//!   `bytecode` (the `IRBC` binary module format, single input only)
//! - `--jobs <n>`        process inputs on `n` worker threads
//! - `--timings`         report per-stage wall-clock times
//!   (parse/verify/rewrite/print) on stderr, per input
//! - `<file>...`         the IR inputs (defaults to stdin)
//!
//! Inputs are sniffed: a file (or stdin) starting with the `IRBC` magic is
//! decoded as module bytecode, anything else is parsed as text. Text and
//! bytecode inputs can be mixed freely in one batch.
//!
//! With several input files (or `--jobs > 1`), dialects and patterns are
//! compiled once into a shared bundle and the files are fanned out across
//! the workers; outputs are printed in input order, separated by the
//! `// -----` split marker.

use std::io::Read;

use irdl::DialectBundle;
use irdl_ir::bytecode::{decode_module, encode_module, is_module_bytecode};
use irdl_ir::print::Printer;
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::Context;
use irdl_rewrite::pipeline::{run_batch_inputs, PipelineInput, PipelineOptions, StageNanos};
use irdl_rewrite::{
    parse_patterns, rewrite_greedily_matched, CheckLevel, MatcherMode, PatternSet,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    Text,
    Bytecode,
}

struct Options {
    irdl_files: Vec<String>,
    pattern_files: Vec<String>,
    inputs: Vec<String>,
    showcase: bool,
    corpus: bool,
    verify: bool,
    check: CheckLevel,
    matcher: MatcherMode,
    generic: bool,
    emit: Emit,
    jobs: usize,
    timings: bool,
    fold: bool,
    interp: bool,
    seed: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        irdl_files: Vec::new(),
        pattern_files: Vec::new(),
        inputs: Vec::new(),
        showcase: false,
        corpus: false,
        verify: false,
        check: CheckLevel::Off,
        matcher: MatcherMode::Auto,
        generic: false,
        emit: Emit::Text,
        jobs: 1,
        timings: false,
        fold: false,
        interp: false,
        seed: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--irdl" => {
                let file = args.next().ok_or("--irdl needs a file argument")?;
                opts.irdl_files.push(file);
            }
            "--patterns" => {
                let file = args.next().ok_or("--patterns needs a file argument")?;
                opts.pattern_files.push(file);
            }
            "--jobs" | "-j" => {
                let n = args.next().ok_or("--jobs needs a number argument")?;
                opts.jobs = n
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --jobs value `{n}`"))?
                    .max(1);
            }
            "--timings" => opts.timings = true,
            "--fold" => opts.fold = true,
            "--interp" => opts.interp = true,
            "--seed" => {
                let n = args.next().ok_or("--seed needs a number argument")?;
                opts.seed =
                    n.parse::<u64>().map_err(|_| format!("invalid --seed value `{n}`"))?;
            }
            "--showcase" => opts.showcase = true,
            "--corpus" => opts.corpus = true,
            "--verify" => opts.verify = true,
            "--verify-each" => opts.check = CheckLevel::Incremental,
            other if other.starts_with("--verify-each=") => {
                opts.check = match &other["--verify-each=".len()..] {
                    "full" => CheckLevel::Full,
                    "incr" | "incremental" => CheckLevel::Incremental,
                    "off" => CheckLevel::Off,
                    bad => {
                        return Err(format!(
                            "invalid --verify-each level `{bad}` (expected full, incr, or off)"
                        ))
                    }
                };
            }
            other if other.starts_with("--matcher=") => {
                opts.matcher = match &other["--matcher=".len()..] {
                    "auto" => MatcherMode::Auto,
                    "scan" => MatcherMode::Scan,
                    bad => {
                        return Err(format!(
                            "invalid --matcher mode `{bad}` (expected auto or scan)"
                        ))
                    }
                };
            }
            other if other.starts_with("--emit=") => {
                opts.emit = match &other["--emit=".len()..] {
                    "text" => Emit::Text,
                    "bytecode" | "bc" => Emit::Bytecode,
                    bad => {
                        return Err(format!(
                            "invalid --emit format `{bad}` (expected text or bytecode)"
                        ))
                    }
                };
            }
            "--generic" => opts.generic = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: irdl-opt [--irdl FILE]... [--patterns FILE]... \
                     [--showcase] [--corpus] [--verify] \
                     [--verify-each={{full,incr,off}}] [--matcher={{auto,scan}}] \
                     [--fold] [--interp] [--seed N] \
                     [--generic] [--emit={{text,bytecode}}] [--jobs N] \
                     [--timings] [IR-FILE]..."
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => {
                opts.inputs.push(other.to_string());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn run(opts: Options) -> Result<(), String> {
    let mut ctx = Context::new();
    if opts.showcase {
        irdl_dialects_showcase(&mut ctx)?;
    }
    if opts.corpus {
        // Registered through the same native hooks the corpus tests use.
        irdl_corpus(&mut ctx)?;
    }
    let natives = irdl_dialects::corpus_natives();
    for file in &opts.irdl_files {
        let source = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read `{file}`: {e}"))?;
        irdl::register_dialects_with(&mut ctx, &source, &natives)
            .map_err(|d| format!("{file}:\n{}", d.render(&source)))?;
    }

    let mut patterns = PatternSet::new();
    for file in &opts.pattern_files {
        let source = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read `{file}`: {e}"))?;
        let set = parse_patterns(&mut ctx, &source)
            .map_err(|d| format!("{file}:\n{}", d.render(&source)))?;
        for pattern in set.patterns() {
            patterns.add(pattern.clone());
        }
    }

    if opts.fold {
        // Fold over whichever evaluation semantics are registered:
        // corpus > showcase > empty (folds nothing, still a valid drive).
        let semantics = if opts.corpus {
            irdl_dialects::corpus_semantics()
        } else if opts.showcase {
            irdl_dialects::showcase_semantics()
        } else {
            irdl_interp::EvalRegistry::new()
        };
        patterns.add(std::sync::Arc::new(irdl_rewrite::FoldConstants::new(
            std::sync::Arc::new(semantics),
        )));
    }

    // Batch mode: several inputs, or an explicit worker count. Dialects
    // and patterns were compiled once above; seal them into a shared
    // bundle and fan the files out.
    if opts.inputs.len() > 1 || opts.jobs > 1 {
        if opts.emit == Emit::Bytecode {
            return Err("--emit=bytecode supports a single input (got a batch)".to_string());
        }
        if opts.interp {
            return Err("--interp supports a single input (got a batch)".to_string());
        }
        let mut sources = Vec::with_capacity(opts.inputs.len());
        for file in &opts.inputs {
            let bytes =
                std::fs::read(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
            sources.push(if is_module_bytecode(&bytes) {
                PipelineInput::Bytecode(bytes)
            } else {
                PipelineInput::Text(String::from_utf8(bytes).map_err(|_| {
                    format!("`{file}` is neither module bytecode nor UTF-8 text")
                })?)
            });
        }
        let bundle = DialectBundle::capture(ctx, Vec::new());
        let pipeline_opts = PipelineOptions {
            jobs: opts.jobs,
            verify: opts.verify,
            check: opts.check,
            generic: opts.generic,
            matcher: opts.matcher,
        };
        let report = run_batch_inputs(&bundle, &patterns, &sources, &pipeline_opts);
        if opts.timings {
            for (file, result) in opts.inputs.iter().zip(&report.results) {
                if let Ok(module) = result {
                    eprintln!("timings: {file}: {}", format_timings(&module.timings));
                }
            }
        }
        let mut failed = false;
        let total_rewrites: usize = report
            .results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|m| m.rewrites))
            .sum();
        if !patterns.is_empty() {
            eprintln!("applied {total_rewrites} rewrite(s)");
        }
        for (file, result) in opts.inputs.iter().zip(&report.results) {
            match result {
                Ok(module) => {
                    write_stdout("// ----- ");
                    write_stdout(file);
                    write_stdout("\n");
                    write_stdout(&module.output);
                    write_stdout("\n");
                }
                Err(message) => {
                    eprintln!("error: {file}:\n{message}");
                    failed = true;
                }
            }
        }
        if failed {
            return Err(format!("{} input(s) failed", report.errors()));
        }
        return Ok(());
    }

    let raw = match opts.inputs.first() {
        Some(file) => {
            std::fs::read(file).map_err(|e| format!("cannot read `{file}`: {e}"))?
        }
        None => {
            let mut buffer = Vec::new();
            std::io::stdin()
                .read_to_end(&mut buffer)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buffer
        }
    };

    let mut timings = StageNanos::default();
    let start = std::time::Instant::now();
    let module = if is_module_bytecode(&raw) {
        decode_module(&mut ctx, &raw).map_err(|d| d.to_string())?
    } else {
        let ir = String::from_utf8(raw)
            .map_err(|_| "input is neither module bytecode nor UTF-8 text".to_string())?;
        irdl_ir::parse::parse_module(&mut ctx, &ir).map_err(|d| d.render(&ir))?
    };
    timings.parse = start.elapsed().as_nanos() as u64;

    let mut verifier = ModuleVerifier::new();
    if opts.verify {
        let start = std::time::Instant::now();
        let checked = verifier.verify(&ctx, module);
        timings.verify += start.elapsed().as_nanos() as u64;
        checked.map_err(|errs| {
            errs.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        })?;
    }

    if !patterns.is_empty() {
        let start = std::time::Instant::now();
        let outcome =
            rewrite_greedily_matched(&mut ctx, module, &patterns, opts.check, opts.matcher);
        timings.rewrite = start.elapsed().as_nanos() as u64;
        let stats = outcome.map_err(|err| format!("{err}: {}", err.diagnostics[0]))?;
        eprintln!("applied {} rewrite(s)", stats.rewrites);
        if opts.verify && opts.check == CheckLevel::Off {
            let start = std::time::Instant::now();
            let checked = verifier.verify(&ctx, module);
            timings.verify += start.elapsed().as_nanos() as u64;
            checked
                .map_err(|errs| format!("IR invalid after rewriting: {}", errs[0]))?;
        }
    }

    if opts.interp {
        let registry = if opts.corpus {
            irdl_dialects::corpus_semantics()
        } else if opts.showcase {
            irdl_dialects::showcase_semantics()
        } else {
            irdl_interp::EvalRegistry::new()
        };
        let eval_opts =
            irdl_interp::EvalOptions { input_seed: opts.seed, ..Default::default() };
        let exec = irdl_interp::run_module(&ctx, &registry, module, eval_opts);
        let trapped = exec.trap.is_some();
        write_stdout(&irdl_tools::report::render_execution(&exec));
        if trapped {
            std::process::exit(1);
        }
        return Ok(());
    }

    let start = std::time::Instant::now();
    match opts.emit {
        Emit::Text => {
            let mut out = String::new();
            let mut printer = Printer::new(&mut out);
            printer.set_generic(opts.generic);
            printer.print_op(&ctx, module);
            timings.print = start.elapsed().as_nanos() as u64;
            write_stdout(&out);
            write_stdout("\n");
        }
        Emit::Bytecode => {
            let bytes = encode_module(&ctx, module).map_err(|d| d.to_string())?;
            timings.print = start.elapsed().as_nanos() as u64;
            write_stdout_bytes(&bytes);
        }
    }
    if opts.timings {
        let label = opts.inputs.first().map(String::as_str).unwrap_or("<stdin>");
        eprintln!("timings: {label}: {}", format_timings(&timings));
    }
    Ok(())
}

/// Renders one module's per-stage timings in milliseconds.
fn format_timings(timings: &StageNanos) -> String {
    let ms = |nanos: u64| nanos as f64 / 1.0e6;
    format!(
        "parse {:.3} ms, verify {:.3} ms, rewrite {:.3} ms, print {:.3} ms",
        ms(timings.parse),
        ms(timings.verify),
        ms(timings.rewrite),
        ms(timings.print)
    )
}


/// Writes `text` to stdout, exiting quietly if the reader closed the pipe
/// (e.g. `irdl-doc --corpus | head`).
fn write_stdout(text: &str) {
    write_stdout_bytes(text.as_bytes());
}

/// Writes raw bytes to stdout (bytecode emission), exiting quietly if the
/// reader closed the pipe.
fn write_stdout_bytes(bytes: &[u8]) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if out.write_all(bytes).is_err() {
        std::process::exit(0);
    }
}

fn irdl_dialects_showcase(ctx: &mut Context) -> Result<(), String> {
    irdl_dialects::showcase::register_showcase(ctx).map_err(|d| d.to_string())
}

fn irdl_corpus(ctx: &mut Context) -> Result<(), String> {
    irdl_dialects::register_corpus(ctx).map(|_| ()).map_err(|d| d.to_string())
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    if let Err(message) = run(opts) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}
