//! The four workloads: seeded input generation, set-up, the per-module
//! layer sequence, and the output checks.
//!
//! Every workload keeps one long-lived [`Context`] instantiated from a
//! [`irdl::DialectBundle`] and runs each module through the layers in the
//! order the batch pipeline uses at one job: parse (or decode), verify,
//! rewrite, verify, print, erase — plus the workload's own extra layers
//! (bytecode, interpreter).

use std::sync::Arc;
use std::time::Instant;

use irdl::NativeRegistry;
use irdl_dialects::showcase::CONORM_PATTERN;
use irdl_fuzz_lib::genscale::SCALE_SPEC;
use irdl_fuzz_lib::oracle::TvPatterns;
use irdl_fuzz_lib::{derive_canon_catalog, generate_module, generate_scale_module};
use irdl_fuzz_lib::{FuzzTarget, GenConfig, ScaleConfig, ScaleShape, SplitMix64};
use irdl_interp::{bundle_semantics, Execution, Semantics, TrapKind};
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::{Context, OpRef};
use irdl_rewrite::{CheckLevel, MatcherMode, PatternSet};

use crate::layers;
use crate::trace::{Layer, Tracer};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Generated modules over the 28-dialect corpus, driven with the
    /// derived canonicalization catalog.
    CorpusFleet,
    /// One wide and one deep giant module, round-tripped through bytecode.
    GiantModule,
    /// Listing 1's `conorm` rewrite over modules with seeded body counts.
    ConormRewrite,
    /// Generated corpus modules through translation validation: execute,
    /// fold, execute again.
    TvFleet,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::CorpusFleet,
    Workload::GiantModule,
    Workload::ConormRewrite,
    Workload::TvFleet,
];

/// Modules per pass of the fleet workloads.
const CORPUS_MODULES: usize = 4000;
const CONORM_MODULES: usize = 400;
const TV_MODULES: usize = 999;
/// `tv_fleet` modules holding a generated CFG region. Every generated CFG
/// loops until the interpreter's fuel runs out, so these modules carry
/// most of the interpreter time; the fleet holds a fixed number of them
/// (a third, as the generator's own odds give) so that the seed varies
/// the modules but not the mix.
const TV_LOOPING: usize = TV_MODULES / 3;
/// `conorm` bodies per module span this range evenly, in an order the
/// seed shuffles, so that the seed varies the modules' order and inputs
/// but not the mix of sizes.
const CONORM_BODIES: (usize, usize) = (8, 65);
/// Giant module sizes are drawn from `[base, base + jitter]` ops.
const GIANT_OPS: (usize, usize) = (99_000, 2_000);

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusFleet => "corpus_fleet",
            Workload::GiantModule => "giant_module",
            Workload::ConormRewrite => "conorm_rewrite",
            Workload::TvFleet => "tv_fleet",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Salt mixed into the seed so two workloads never share an input
    /// stream.
    fn salt(self) -> u64 {
        match self {
            Workload::CorpusFleet => 0x636f_7270,
            Workload::GiantModule => 0x6769_616e,
            Workload::ConormRewrite => 0x636f_6e6f,
            Workload::TvFleet => 0x7476_666c,
        }
    }
}

/// The generated inputs of one run. Only text reaches the program; the
/// rest is what the checks compare against.
pub struct Inputs {
    pub workload: Workload,
    /// IRDL sources set-up compiles.
    pub specs: Vec<(String, String)>,
    /// Pattern DSL set-up parses (empty where the catalog is built in).
    pub catalog: String,
    /// One module per entry, in processing order.
    pub texts: Vec<String>,
    /// Operations per module as generated, the module op included.
    pub ops: Vec<usize>,
    /// `conorm` bodies per module (`conorm_rewrite` only).
    pub bodies: Vec<usize>,
    /// Interpreter input seed per module.
    pub input_seeds: Vec<u64>,
}

impl Inputs {
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    pub fn total_ops(&self) -> usize {
        self.ops.iter().sum()
    }

    /// Generates the inputs of `workload` from `seed`: the same seed gives
    /// byte-identical inputs.
    pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
        Inputs::generate_with(workload, seed, true)
    }

    /// The inputs set-up reads (specs and pattern catalog), without the
    /// modules.
    pub fn for_setup(workload: Workload, seed: u64) -> Result<Inputs, String> {
        Inputs::generate_with(workload, seed, false)
    }

    fn generate_with(workload: Workload, seed: u64, modules: bool) -> Result<Inputs, String> {
        let mut rng = SplitMix64::new(seed ^ workload.salt().rotate_left(32));
        let mut inputs = Inputs {
            workload,
            specs: Vec::new(),
            catalog: String::new(),
            texts: Vec::new(),
            ops: Vec::new(),
            bodies: Vec::new(),
            input_seeds: Vec::new(),
        };
        match workload {
            Workload::CorpusFleet | Workload::TvFleet => {
                inputs.specs = irdl_dialects::corpus_sources();
                let target =
                    FuzzTarget::from_sources(&inputs.specs, &irdl_dialects::corpus_natives())?;
                let mut ctx = target.bundle.instantiate();
                if workload == Workload::CorpusFleet {
                    inputs.catalog = derive_canon_catalog(&ctx, &target.catalog).0;
                }
                let config = GenConfig::default();
                let (count, quota) = match workload {
                    Workload::TvFleet => (TV_MODULES, Some(TV_LOOPING)),
                    _ => (CORPUS_MODULES, None),
                };
                let mut looping = 0;
                while modules && inputs.len() < count {
                    let module = generate_module(&mut ctx, &target.catalog, &config, &mut rng);
                    let input_seed = rng.next_u64();
                    let loops = quota.is_some() && layers::print(&ctx, module).contains("fuzz.cfg");
                    let room = match quota {
                        None => true,
                        Some(q) if loops => looping < q,
                        Some(q) => inputs.len() - looping < count - q,
                    };
                    if room {
                        looping += usize::from(loops);
                        inputs.push(&mut ctx, module, 0, input_seed);
                    } else {
                        layers::erase(&mut ctx, module);
                    }
                }
            }
            Workload::GiantModule => {
                inputs.specs = vec![("scale".to_string(), SCALE_SPEC.to_string())];
                if !modules {
                    return Ok(inputs);
                }
                let bundle = layers::compile(&inputs.specs, &NativeRegistry::new())?;
                let mut ctx = bundle.instantiate();
                for shape in [ScaleShape::Wide, ScaleShape::Deep] {
                    let ops = GIANT_OPS.0 + rng.below(GIANT_OPS.1 + 1);
                    let (module, total) =
                        generate_scale_module(&mut ctx, &ScaleConfig::valid(ops, shape));
                    inputs.push(&mut ctx, module, 0, 0);
                    if inputs.ops.last() != Some(&total) {
                        return Err(format!("genscale reported {total} ops for {shape:?}"));
                    }
                }
            }
            Workload::ConormRewrite if !modules => {}
            Workload::ConormRewrite => {
                let bundle = layers::compile_showcase()?;
                let mut ctx = bundle.instantiate();
                let (lo, hi) = CONORM_BODIES;
                let mut counts: Vec<usize> = (0..CONORM_MODULES)
                    .map(|i| lo + i * (hi - lo) / CONORM_MODULES)
                    .collect();
                for i in (1..counts.len()).rev() {
                    counts.swap(i, rng.below(i + 1));
                }
                for bodies in counts {
                    let module = irdl_dialects::showcase::build_conorm_workload(&mut ctx, bodies)
                        .map_err(|d| d.to_string())?;
                    inputs.push(&mut ctx, module, bodies, rng.next_u64());
                }
            }
        }
        Ok(inputs)
    }

    /// Records `module` as the next input and erases it from the
    /// generator's context.
    fn push(&mut self, ctx: &mut Context, module: OpRef, bodies: usize, input_seed: u64) {
        self.texts.push(layers::print(ctx, module));
        self.ops.push(layers::count_ops(ctx, module));
        self.bodies.push(bodies);
        self.input_seeds.push(input_seed);
        layers::erase(ctx, module);
    }
}

enum Patterns {
    None,
    Owned(PatternSet),
    Fold(Arc<TvPatterns>),
}

impl Patterns {
    fn set(&self) -> &PatternSet {
        match self {
            Patterns::Owned(set) => set,
            Patterns::Fold(set) => &set.0,
            Patterns::None => unreachable!("this workload drives no patterns"),
        }
    }
}

/// A workload's long-lived state: the context every module runs in, the
/// verifier, the pattern catalog and the execution semantics.
pub struct Session {
    workload: Workload,
    pub ctx: Context,
    verifier: ModuleVerifier,
    patterns: Patterns,
    semantics: Arc<Semantics>,
    pub dialects: usize,
    pub num_patterns: usize,
    /// Time spent compiling specs into the bundle.
    pub compile_ns: u64,
    /// Time spent parsing and sealing the pattern catalog.
    pub seal_ns: u64,
    /// Operations per module after rewriting, as the check pass counted
    /// them (work counts for spans of later layers).
    pub ops_after: Vec<usize>,
}

/// What one module's run through the layers produced.
#[derive(Debug)]
pub struct Outcome {
    pub output: String,
    pub applied: usize,
    /// Executions in order (before and after rewriting, where both run).
    pub execs: [Option<Execution>; 2],
    /// Nanoseconds from the parse or decode call to the end of print.
    pub module_ns: u64,
    /// Operations in the module as printed (counted only when asked).
    pub ops_final: usize,
}

/// Numeric code of an execution's trap, for span counts: 0 is no trap.
pub fn trap_code(exec: &Execution) -> u64 {
    match exec.trap.as_ref().map(|t| t.kind) {
        None => 0,
        Some(TrapKind::DivByZero) => 1,
        Some(TrapKind::FuelExhausted) => 2,
        Some(TrapKind::MissingSemantics) => 3,
        Some(TrapKind::MalformedOp) => 4,
    }
}

/// Trap names by [`trap_code`].
pub const TRAP_NAMES: [&str; 5] = [
    "none",
    "div-by-zero",
    "fuel-exhausted",
    "missing-semantics",
    "malformed-op",
];

impl Session {
    /// Compiles the workload's specs into a bundle, builds its execution
    /// semantics, instantiates the long-lived context, and parses and
    /// seals the pattern catalog.
    pub fn setup(inputs: &Inputs) -> Result<Session, String> {
        let workload = inputs.workload;
        let start = Instant::now();
        let bundle = match workload {
            Workload::ConormRewrite => layers::compile_showcase()?,
            Workload::GiantModule => layers::compile(&inputs.specs, &NativeRegistry::new())?,
            _ => layers::compile(&inputs.specs, &irdl_dialects::corpus_natives())?,
        };
        let compile_ns = start.elapsed().as_nanos() as u64;
        match workload {
            Workload::ConormRewrite => {
                bundle.artifact_or_insert(|| Semantics(irdl_dialects::showcase_semantics()));
            }
            Workload::TvFleet => {
                bundle.artifact_or_insert(|| Semantics(irdl_dialects::corpus_semantics()));
            }
            Workload::CorpusFleet | Workload::GiantModule => {}
        }
        let semantics = bundle_semantics(&bundle);
        let mut ctx = bundle.instantiate();
        let start = Instant::now();
        let patterns = match workload {
            Workload::CorpusFleet => Patterns::Owned(layers::seal(&mut ctx, &inputs.catalog)?),
            Workload::ConormRewrite => Patterns::Owned(layers::seal(&mut ctx, CONORM_PATTERN)?),
            Workload::TvFleet => Patterns::Fold(layers::seal_fold(&bundle)),
            Workload::GiantModule => Patterns::None,
        };
        let seal_ns = start.elapsed().as_nanos() as u64;
        let num_patterns = match &patterns {
            Patterns::None => 0,
            set => set.set().len(),
        };
        Ok(Session {
            workload,
            ctx,
            verifier: ModuleVerifier::new(),
            patterns,
            semantics,
            dialects: bundle.names().len(),
            num_patterns,
            compile_ns,
            seal_ns,
            ops_after: Vec::new(),
        })
    }

    /// Runs module `i` through the workload's layers, erasing it at the
    /// end (also on failure, so nothing leaks into the long-lived
    /// context). `count` asks for the op count of the printed module.
    pub fn process(
        &mut self,
        inputs: &Inputs,
        i: usize,
        tr: &mut Tracer,
        count: bool,
    ) -> Result<Outcome, String> {
        let text = inputs.texts[i].as_str();
        let ops = inputs.ops[i] as u64;
        let ops_after = self.ops_after.get(i).map_or(0, |&n| n as u64);
        if tr.recording() {
            // Lexing happens inside parse; an extra call on the same text
            // times it, and the report subtracts it from parse.
            let mark = tr.begin();
            let tokens = layers::lex(text)?;
            tr.end(mark, Layer::Lex, tokens as u64, text.len() as u64);
        }
        let start = Instant::now();
        let mark = tr.begin();
        let parsed = layers::parse(&mut self.ctx, text)?;
        tr.end(mark, Layer::Parse, ops, 0);

        let mut outcome = Outcome {
            output: String::new(),
            applied: 0,
            execs: [None, None],
            module_ns: 0,
            ops_final: 0,
        };
        let mut module = parsed;
        let result = (|| {
            self.verify(tr, parsed, ops)?;
            match self.workload {
                Workload::CorpusFleet => {
                    self.rewrite(tr, module, CheckLevel::Off, MatcherMode::Auto, &mut outcome)?;
                    self.verify(tr, module, ops_after)?;
                }
                Workload::GiantModule => {
                    let mark = tr.begin();
                    let bytes = layers::encode(&self.ctx, parsed)?;
                    tr.end(mark, Layer::Encode, bytes.len() as u64, 0);
                    let mark = tr.begin();
                    layers::erase(&mut self.ctx, parsed);
                    tr.end(mark, Layer::Erase, ops, 0);
                    let mark = tr.begin();
                    module = layers::decode(&mut self.ctx, &bytes)?;
                    tr.end(mark, Layer::Decode, ops, 0);
                    self.verify(tr, module, ops)?;
                }
                Workload::ConormRewrite => {
                    let mode = MatcherMode::Auto;
                    self.rewrite(tr, module, CheckLevel::Incremental, mode, &mut outcome)?;
                    self.verify(tr, module, ops_after)?;
                    outcome.execs[0] = Some(self.execute(tr, inputs, i, module));
                }
                Workload::TvFleet => {
                    outcome.execs[0] = Some(self.execute(tr, inputs, i, module));
                    self.rewrite(tr, module, CheckLevel::Off, MatcherMode::Auto, &mut outcome)?;
                    outcome.execs[1] = Some(self.execute(tr, inputs, i, module));
                }
            }
            if count {
                outcome.ops_final = layers::count_ops(&self.ctx, module);
            }
            let mark = tr.begin();
            outcome.output = layers::print(&self.ctx, module);
            tr.end(mark, Layer::Print, outcome.output.len() as u64, 0);
            outcome.module_ns = start.elapsed().as_nanos() as u64;
            Ok(())
        })();
        let mark = tr.begin();
        layers::erase(&mut self.ctx, module);
        tr.end(mark, Layer::Erase, ops_after, 0);
        result.map(|()| outcome)
    }

    fn verify(&mut self, tr: &mut Tracer, module: OpRef, ops: u64) -> Result<(), String> {
        let mark = tr.begin();
        let verdict = layers::verify(&mut self.verifier, &self.ctx, module);
        tr.end(mark, Layer::Verify, ops, 0);
        verdict
    }

    fn rewrite(
        &mut self,
        tr: &mut Tracer,
        module: OpRef,
        check: CheckLevel,
        mode: MatcherMode,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        let mark = tr.begin();
        let stats = layers::rewrite(&mut self.ctx, module, self.patterns.set(), check, mode)?;
        tr.end(
            mark,
            Layer::Rewrite,
            stats.rewrites as u64,
            stats.visited as u64,
        );
        outcome.applied = stats.rewrites;
        Ok(())
    }

    fn execute(&self, tr: &mut Tracer, inputs: &Inputs, i: usize, module: OpRef) -> Execution {
        let mark = tr.begin();
        let exec = layers::execute(&self.ctx, &self.semantics.0, module, inputs.input_seeds[i]);
        tr.end(mark, Layer::Interp, exec.steps, trap_code(&exec));
        exec
    }

    /// Checks module `i`'s outcome against references independent of the
    /// path being timed. Runs outside the timed passes; may use the
    /// session's context (everything it creates is erased again).
    pub fn check(&mut self, inputs: &Inputs, i: usize, outcome: &Outcome) -> Result<(), String> {
        match self.workload {
            Workload::CorpusFleet => {
                let reprinted = self.reprint(&outcome.output, false)?;
                check_same("print→parse→print", &outcome.output, &reprinted)?;
                let (scan_output, scan_applied) = self.scan_drive(&inputs.texts[i])?;
                check_count("Scan-mode rewrites", scan_applied, outcome.applied)?;
                check_same("Scan-mode output", &scan_output, &outcome.output)
            }
            Workload::GiantModule => {
                check_same(
                    "decoded print vs generated text",
                    &inputs.texts[i],
                    &outcome.output,
                )?;
                check_count("decoded ops", inputs.ops[i], outcome.ops_final)
            }
            Workload::ConormRewrite => {
                check_conorm(inputs.bodies[i], outcome.applied, &outcome.output)?;
                self.reprint(&outcome.output, true).map(drop)
            }
            Workload::TvFleet => match &outcome.execs {
                [Some(before), Some(after)] => check_digests(&before.digest(), &after.digest()),
                _ => Err("translation validation needs two executions".to_string()),
            },
        }
    }

    /// Parses `text` into the session's context, optionally verifies it,
    /// prints it again and erases it.
    fn reprint(&mut self, text: &str, verify: bool) -> Result<String, String> {
        let module = layers::parse(&mut self.ctx, text)?;
        let verdict = if verify {
            let mut verifier = ModuleVerifier::new();
            layers::verify(&mut verifier, &self.ctx, module)
        } else {
            Ok(())
        };
        let printed = layers::print(&self.ctx, module);
        layers::erase(&mut self.ctx, module);
        verdict.map(|()| printed)
    }

    /// The corpus pipeline with the per-pattern scan instead of the
    /// matcher automaton: the reference for the Auto-mode output.
    fn scan_drive(&mut self, text: &str) -> Result<(String, usize), String> {
        let module = layers::parse(&mut self.ctx, text)?;
        let result = (|| {
            let mut verifier = ModuleVerifier::new();
            layers::verify(&mut verifier, &self.ctx, module)?;
            let stats = layers::rewrite(
                &mut self.ctx,
                module,
                self.patterns.set(),
                CheckLevel::Off,
                MatcherMode::Scan,
            )?;
            layers::verify(&mut verifier, &self.ctx, module)?;
            Ok((layers::print(&self.ctx, module), stats.rewrites))
        })();
        layers::erase(&mut self.ctx, module);
        result
    }
}

/// `got` must equal `expected` byte for byte.
pub fn check_same(what: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(got.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    Err(format!(
        "{what}: outputs differ at byte {at} (expected {} bytes, got {})",
        expected.len(),
        got.len()
    ))
}

pub fn check_count(what: &str, expected: usize, got: usize) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected}, got {got}"))
    }
}

/// Listing 1: exactly one rewrite per body and no `arith.mulf` left.
pub fn check_conorm(bodies: usize, applied: usize, output: &str) -> Result<(), String> {
    check_count("conorm rewrites", bodies, applied)?;
    if output.contains("arith.mulf") {
        return Err("conorm: an `arith.mulf` survived rewriting".to_string());
    }
    Ok(())
}

/// Translation validation: the observable behaviour before and after
/// rewriting must be identical.
pub fn check_digests(before: &str, after: &str) -> Result<(), String> {
    check_same("execution digest after rewriting", before, after)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(inputs: &Inputs) -> (Vec<String>, Vec<usize>, Vec<usize>, Vec<u64>, String) {
        (
            inputs.texts.clone(),
            inputs.ops.clone(),
            inputs.bodies.clone(),
            inputs.input_seeds.clone(),
            inputs.catalog.clone(),
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in WORKLOADS {
            let a = fingerprint(&Inputs::generate(workload, 7).unwrap());
            let b = fingerprint(&Inputs::generate(workload, 7).unwrap());
            let c = fingerprint(&Inputs::generate(workload, 8).unwrap());
            assert!(
                a == b,
                "{}: seed 7 twice gave different inputs",
                workload.name()
            );
            assert!(
                a.0 != c.0,
                "{}: seeds 7 and 8 gave the same modules",
                workload.name()
            );
        }
    }

    #[test]
    fn tv_fleet_holds_a_fixed_share_of_looping_modules() {
        for seed in [1, 2] {
            let inputs = Inputs::generate(Workload::TvFleet, seed).unwrap();
            let looping = inputs
                .texts
                .iter()
                .filter(|t| t.contains("fuzz.cfg"))
                .count();
            assert_eq!((inputs.len(), looping), (TV_MODULES, TV_LOOPING));
        }
    }

    /// Runs module `i` of `workload` and returns the session, inputs and
    /// outcome, after checking that the genuine outcome passes.
    fn checked(workload: Workload, i: usize) -> (Session, Inputs, Outcome) {
        let inputs = Inputs::generate(workload, 3).unwrap();
        let mut session = Session::setup(&inputs).unwrap();
        let outcome = session
            .process(&inputs, i, &mut Tracer::off(), true)
            .unwrap();
        session.check(&inputs, i, &outcome).unwrap();
        (session, inputs, outcome)
    }

    fn flip_byte(text: &mut String) {
        // Flip a digit, so that the text still parses: a value id, a
        // constant or an op count changes.
        let at = text
            .find(|c: char| c.is_ascii_digit())
            .expect("output holds a digit");
        let digit = text.as_bytes()[at];
        let flipped = if digit == b'9' {
            '0'
        } else {
            char::from(digit + 1)
        };
        text.replace_range(at..=at, &flipped.to_string());
    }

    #[test]
    fn corpus_check_rejects_a_flipped_byte_and_a_missing_rewrite() {
        // A module the catalog rewrites, so the rewrite count matters.
        let inputs = Inputs::generate(Workload::CorpusFleet, 3).unwrap();
        let mut session = Session::setup(&inputs).unwrap();
        let (i, mut outcome) = (0..inputs.len())
            .find_map(|i| {
                let o = session
                    .process(&inputs, i, &mut Tracer::off(), true)
                    .unwrap();
                (o.applied > 0).then_some((i, o))
            })
            .expect("some module is rewritten");
        session.check(&inputs, i, &outcome).unwrap();
        outcome.applied -= 1;
        assert!(
            session.check(&inputs, i, &outcome).is_err(),
            "missing rewrite accepted"
        );
        outcome.applied += 1;
        flip_byte(&mut outcome.output);
        assert!(
            session.check(&inputs, i, &outcome).is_err(),
            "flipped byte accepted"
        );
    }

    #[test]
    fn giant_check_rejects_a_flipped_byte_and_a_lost_op() {
        let (mut session, inputs, mut outcome) = checked(Workload::GiantModule, 0);
        outcome.ops_final -= 1;
        assert!(
            session.check(&inputs, 0, &outcome).is_err(),
            "lost op accepted"
        );
        outcome.ops_final += 1;
        flip_byte(&mut outcome.output);
        assert!(
            session.check(&inputs, 0, &outcome).is_err(),
            "flipped byte accepted"
        );
    }

    #[test]
    fn conorm_check_rejects_a_missing_rewrite() {
        let (mut session, inputs, mut outcome) = checked(Workload::ConormRewrite, 0);
        outcome.applied -= 1;
        assert!(
            session.check(&inputs, 0, &outcome).is_err(),
            "short rewrite count accepted"
        );
        outcome.applied += 1;
        // The same module with one body left unrewritten.
        let unrewritten = &inputs.texts[0];
        let body_end = unrewritten
            .find("arith.mulf")
            .expect("input multiplies norms");
        let mut output = outcome.output.clone();
        output.insert_str(output.len() - 1, &unrewritten[body_end..body_end + 10]);
        outcome.output = output;
        assert!(
            session.check(&inputs, 0, &outcome).is_err(),
            "surviving mulf accepted"
        );
    }

    #[test]
    fn tv_check_rejects_an_altered_digest() {
        let inputs = Inputs::generate(Workload::TvFleet, 3).unwrap();
        let mut session = Session::setup(&inputs).unwrap();
        let (i, mut outcome) = (0..inputs.len())
            .find_map(|i| {
                let o = session
                    .process(&inputs, i, &mut Tracer::off(), true)
                    .unwrap();
                let observed = o.execs[1].as_ref().is_some_and(|e| !e.observed.is_empty());
                observed.then_some((i, o))
            })
            .expect("some module observes a value");
        session.check(&inputs, i, &outcome).unwrap();
        let after = outcome.execs[1].as_mut().unwrap();
        after.observed[0].0.push('x');
        assert!(
            session.check(&inputs, i, &outcome).is_err(),
            "altered digest accepted"
        );
    }

    #[test]
    fn check_helpers_locate_the_difference() {
        assert!(check_same("t", "abc", "abc").is_ok());
        let err = check_same("t", "abcd", "abXd").unwrap_err();
        assert!(err.contains("byte 2"), "{err}");
        assert!(check_conorm(3, 3, "cmath.norm").is_ok());
        assert!(check_conorm(3, 2, "cmath.norm").is_err());
        assert!(check_digests("observe a(1)\nreturn\n", "observe a(2)\nreturn\n").is_err());
    }
}
