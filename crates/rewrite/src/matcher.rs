//! Pattern-catalog compilation: predicate programs and the shared matcher
//! automaton.
//!
//! The root index (see [`crate::pattern::PatternSet`]) made candidate
//! dispatch O(patterns-per-root), but every candidate still re-walked the
//! same operand DAG and re-tested the same predicates independently. This
//! module compiles the whole catalog into one artifact instead, in the
//! spirit of MLIR's PDL bytecode:
//!
//! 1. each declarative pattern is *lowered* to a flat [`MatchProgram`] — a
//!    linear sequence of [`Pred`] instructions over positions in the
//!    operand DAG rooted at the candidate op;
//! 2. all programs are *merged* into a [`PatternMatcher`]: a trie keyed on
//!    shared predicate prefixes, with [`Pred::OperandDef`] siblings fused
//!    into hash switches dispatched on the defining op's symbol.
//!
//! One automaton evaluation per operation then answers "which patterns can
//! match here?" for the entire catalog: shared prefixes are tested once, a
//! failing prefix prunes every pattern behind it, and a def-switch replaces
//! k sibling symbol tests with one hash lookup. Patterns with opaque Rust
//! match logic lower to the empty program, which accepts unconditionally at
//! their root — exactly the root-index behaviour they had before.
//!
//! # Soundness contract
//!
//! The automaton is a conservative *prefilter*: the driver still calls
//! [`RewritePattern::match_and_rewrite`] on every surviving candidate, in
//! the same benefit-desc/registration order a per-pattern scan would use.
//! A program may therefore accept an op its pattern then fails to match
//! (harmless, merely wasted work) but must never reject an op its pattern
//! *would* match — a false negative silently changes rewrite semantics.
//! Programs lowered from [`crate::dsl::DeclarativePattern`] are complete,
//! so their survivors essentially always match.
//!
//! [`RewritePattern::match_and_rewrite`]: crate::pattern::RewritePattern::match_and_rewrite

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use irdl_ir::fasthash::FastMap;
use irdl_ir::{Attribute, Context, OpName, OpRef, Symbol, Value};

use crate::pattern::RewritePattern;

/// Identifies an operation in the match DAG by the chain of operand
/// indices leading to it from the root: `[]` is the root itself, `[i]` the
/// defining op of the root's operand `i`, `[i, j]` the defining op of
/// *that* op's operand `j`, and so on.
pub type OpPath = Vec<u8>;

/// A value position inside the match DAG.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValuePos {
    /// Operand `index` of the op at `path`.
    Operand {
        /// Path of the op holding the operand.
        path: OpPath,
        /// Operand slot.
        index: u8,
    },
    /// Result 0 of the op at `path`.
    Result {
        /// Path of the defining op.
        path: OpPath,
    },
}

/// One predicate instruction. Every variant evaluates totally: a path that
/// does not resolve (missing defining op, out-of-range slot) makes the
/// predicate false rather than a fault, so trie merging can never create
/// an unsafe instruction order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// The op at `path` has exactly `count` operands.
    OperandCount {
        /// Op position.
        path: OpPath,
        /// Required operand count.
        count: u8,
    },
    /// The op at `path` has exactly `count` results.
    ResultCount {
        /// Op position.
        path: OpPath,
        /// Required result count.
        count: u8,
    },
    /// Operand `index` of the op at `path` is produced by an operation
    /// named `name` (false for block arguments).
    OperandDef {
        /// Op position.
        path: OpPath,
        /// Operand slot.
        index: u8,
        /// Required defining-op symbol.
        name: OpName,
    },
    /// The values at two positions are the same SSA value.
    ValueEq {
        /// First position.
        a: ValuePos,
        /// Second position.
        b: ValuePos,
    },
    /// The op at `path` carries attribute `key` with exactly the interned
    /// value `value`.
    AttrEq {
        /// Op position.
        path: OpPath,
        /// Attribute key.
        key: Symbol,
        /// Required attribute value.
        value: Attribute,
    },
}

/// A pattern lowered to a linear predicate program.
///
/// `preds` is evaluated in order; every instruction that touches a
/// non-root position is preceded (in the same program) by the
/// [`Pred::OperandDef`] chain that establishes the position, so a prefix
/// of a program is always meaningful on its own — the property trie
/// merging relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchProgram {
    /// Root op symbol the program is keyed on; `None` programs are tried
    /// on every operation (anchorless patterns).
    pub root: Option<OpName>,
    /// The predicate instructions, in canonical emission order.
    pub preds: Vec<Pred>,
}

impl MatchProgram {
    /// The always-accepting program for a pattern with opaque match logic:
    /// candidate at every op named `root` (or every op, if `None`).
    pub fn opaque(root: Option<OpName>) -> MatchProgram {
        MatchProgram { root, preds: Vec::new() }
    }
}

static MATCHER_COMPILES: AtomicU64 = AtomicU64::new(0);

/// Number of [`PatternMatcher`] compilations in this process — the
/// automaton analog of [`irdl::dialect_compile_count`]: sealed artifacts
/// must be compiled once and shared, never rebuilt per worker or per
/// drive.
///
/// [`irdl::dialect_compile_count`]: irdl::dialect_compile_count
pub fn matcher_compile_count() -> u64 {
    MATCHER_COMPILES.load(Ordering::Relaxed)
}

/// A switch over the defining-op symbol at one value position: k sibling
/// [`Pred::OperandDef`] tests fused into a single hash lookup.
struct DefSwitch {
    path: OpPath,
    index: u8,
    cases: FastMap<OpName, usize>,
}

/// One interior trie state. `accepts` lists the patterns whose whole
/// program has passed once evaluation reaches this branch.
#[derive(Default)]
struct Branch {
    accepts: Vec<u32>,
    switches: Vec<DefSwitch>,
    tests: Vec<usize>,
}

/// A linearly-tested trie edge (every predicate except `OperandDef`).
struct Test {
    pred: Pred,
    child: usize,
}

/// The compiled catalog: every pattern's program merged into one trie,
/// dispatched first on the root op symbol and then on shared predicate
/// prefixes. Immutable after compilation and `Send + Sync`, like the
/// constraint programs dialect compilation produces — compile once at
/// seal time, share across every worker.
pub struct PatternMatcher {
    /// Entry branch per anchored root symbol.
    roots: FastMap<OpName, usize>,
    /// Entry branch shared by anchorless programs (always branch 0).
    anchorless: usize,
    branches: Vec<Branch>,
    tests: Vec<Test>,
    patterns: u32,
}

impl std::fmt::Debug for PatternMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternMatcher")
            .field("patterns", &self.patterns)
            .field("roots", &self.roots.len())
            .field("branches", &self.branches.len())
            .field("tests", &self.tests.len())
            .finish()
    }
}

impl PatternMatcher {
    /// Compiles `patterns` (in priority order, i.e. exactly
    /// [`crate::pattern::PatternSet::patterns`]) into one automaton.
    /// Pattern positions reported by [`PatternMatcher::matches_into`]
    /// index into this slice.
    pub fn compile(patterns: &[Arc<dyn RewritePattern>]) -> PatternMatcher {
        MATCHER_COMPILES.fetch_add(1, Ordering::Relaxed);
        let mut matcher = PatternMatcher {
            roots: FastMap::default(),
            anchorless: 0,
            branches: vec![Branch::default()],
            tests: Vec::new(),
            patterns: patterns.len() as u32,
        };
        for (position, pattern) in patterns.iter().enumerate() {
            let program = pattern
                .match_program()
                .unwrap_or_else(|| MatchProgram::opaque(pattern.root()));
            let entry = match program.root {
                Some(name) => match matcher.roots.get(&name) {
                    Some(&branch) => branch,
                    None => {
                        let branch = matcher.new_branch();
                        matcher.roots.insert(name, branch);
                        branch
                    }
                },
                None => matcher.anchorless,
            };
            matcher.insert(entry, &program.preds, position as u32);
        }
        matcher
    }

    fn new_branch(&mut self) -> usize {
        self.branches.push(Branch::default());
        self.branches.len() - 1
    }

    /// Threads one program into the trie, reusing existing edges for
    /// every shared prefix instruction.
    fn insert(&mut self, entry: usize, preds: &[Pred], position: u32) {
        let mut branch = entry;
        for pred in preds {
            branch = match pred {
                Pred::OperandDef { path, index, name } => {
                    let group = self.branches[branch]
                        .switches
                        .iter()
                        .position(|s| s.path == *path && s.index == *index)
                        .unwrap_or_else(|| {
                            self.branches[branch].switches.push(DefSwitch {
                                path: path.clone(),
                                index: *index,
                                cases: FastMap::default(),
                            });
                            self.branches[branch].switches.len() - 1
                        });
                    match self.branches[branch].switches[group].cases.get(name) {
                        Some(&child) => child,
                        None => {
                            let child = self.new_branch();
                            self.branches[branch].switches[group].cases.insert(*name, child);
                            child
                        }
                    }
                }
                other => {
                    let existing = self.branches[branch]
                        .tests
                        .iter()
                        .copied()
                        .find(|&t| self.tests[t].pred == *other);
                    match existing {
                        Some(test) => self.tests[test].child,
                        None => {
                            let child = self.new_branch();
                            self.tests.push(Test { pred: other.clone(), child });
                            let test = self.tests.len() - 1;
                            self.branches[branch].tests.push(test);
                            child
                        }
                    }
                }
            };
        }
        self.branches[branch].accepts.push(position);
    }

    /// Number of patterns compiled in.
    pub fn num_patterns(&self) -> usize {
        self.patterns as usize
    }

    /// Number of trie states — with shared prefixes this grows sublinearly
    /// in the summed program length.
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }

    /// Number of linearly-tested edges (def-switch cases excluded).
    pub fn num_tests(&self) -> usize {
        self.tests.len()
    }

    /// Appends to `out` the positions of every pattern whose program
    /// accepts at `op`, ascending — which, because position in the sorted
    /// pattern list *is* priority, is exactly the benefit-desc /
    /// registration-order candidate sequence a per-pattern scan visits.
    ///
    /// `out` is cleared first; reuse one buffer across calls to keep the
    /// hot loop allocation-free.
    pub fn matches_into(&self, ctx: &Context, op: OpRef, out: &mut Vec<u32>) {
        out.clear();
        if let Some(&entry) = self.roots.get(&op.name(ctx)) {
            self.eval(ctx, op, entry, out);
        }
        self.eval(ctx, op, self.anchorless, out);
        out.sort_unstable();
    }

    /// [`PatternMatcher::matches_into`] into a fresh buffer (tests and
    /// diagnostics; the driver uses the buffered form).
    pub fn matches(&self, ctx: &Context, op: OpRef) -> Vec<u32> {
        let mut out = Vec::new();
        self.matches_into(ctx, op, &mut out);
        out
    }

    fn eval(&self, ctx: &Context, root: OpRef, branch: usize, out: &mut Vec<u32>) {
        let branch = &self.branches[branch];
        out.extend_from_slice(&branch.accepts);
        for switch in &branch.switches {
            let Some(op) = resolve_op(ctx, root, &switch.path) else { continue };
            if usize::from(switch.index) >= op.num_operands(ctx) {
                continue;
            }
            let Some(def) = op.operand(ctx, switch.index.into()).defining_op(ctx) else {
                continue;
            };
            if let Some(&child) = switch.cases.get(&def.name(ctx)) {
                self.eval(ctx, root, child, out);
            }
        }
        for &test in &branch.tests {
            let Test { pred, child } = &self.tests[test];
            if holds(ctx, root, pred) {
                self.eval(ctx, root, *child, out);
            }
        }
    }
}

/// Walks `path` through operand defining ops starting at `root`.
fn resolve_op(ctx: &Context, root: OpRef, path: &[u8]) -> Option<OpRef> {
    let mut op = root;
    for &index in path {
        let index = usize::from(index);
        if index >= op.num_operands(ctx) {
            return None;
        }
        op = op.operand(ctx, index).defining_op(ctx)?;
    }
    Some(op)
}

fn resolve_value(ctx: &Context, root: OpRef, pos: &ValuePos) -> Option<Value> {
    match pos {
        ValuePos::Operand { path, index } => {
            let op = resolve_op(ctx, root, path)?;
            let index = usize::from(*index);
            (index < op.num_operands(ctx)).then(|| op.operand(ctx, index))
        }
        ValuePos::Result { path } => {
            let op = resolve_op(ctx, root, path)?;
            (op.num_results(ctx) > 0).then(|| op.result(ctx, 0))
        }
    }
}

fn holds(ctx: &Context, root: OpRef, pred: &Pred) -> bool {
    match pred {
        Pred::OperandCount { path, count } => resolve_op(ctx, root, path)
            .is_some_and(|op| op.num_operands(ctx) == usize::from(*count)),
        Pred::ResultCount { path, count } => resolve_op(ctx, root, path)
            .is_some_and(|op| op.num_results(ctx) == usize::from(*count)),
        Pred::OperandDef { path, index, name } => {
            let Some(op) = resolve_op(ctx, root, path) else { return false };
            if usize::from(*index) >= op.num_operands(ctx) {
                return false;
            }
            op.operand(ctx, usize::from(*index))
                .defining_op(ctx)
                .is_some_and(|def| def.name(ctx) == *name)
        }
        Pred::ValueEq { a, b } => match (resolve_value(ctx, root, a), resolve_value(ctx, root, b)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        Pred::AttrEq { path, key, value } => resolve_op(ctx, root, path)
            .is_some_and(|op| op.attr_sym(ctx, *key) == Some(*value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatternSet, Rewriter};
    use irdl_ir::OperationState;

    /// An opaque pattern with a configurable root.
    struct Opaque {
        root: Option<OpName>,
        benefit: usize,
    }
    impl RewritePattern for Opaque {
        fn root(&self) -> Option<OpName> {
            self.root
        }
        fn benefit(&self) -> usize {
            self.benefit
        }
        fn match_and_rewrite(&self, _rewriter: &mut Rewriter<'_>) -> bool {
            false
        }
    }

    /// A pattern that supplies an explicit program.
    struct Programmed {
        program: MatchProgram,
    }
    impl RewritePattern for Programmed {
        fn root(&self) -> Option<OpName> {
            self.program.root
        }
        fn match_program(&self) -> Option<MatchProgram> {
            Some(self.program.clone())
        }
        fn match_and_rewrite(&self, _rewriter: &mut Rewriter<'_>) -> bool {
            false
        }
    }

    fn program(root: OpName, preds: Vec<Pred>) -> Arc<dyn RewritePattern> {
        Arc::new(Programmed { program: MatchProgram { root: Some(root), preds } })
    }

    /// `add = t.add(src(), src())`, returning (add, src-op).
    fn add_of_sources(ctx: &mut Context) -> (OpRef, OpRef) {
        let i32 = ctx.i32_type();
        let block = ctx.create_block([]);
        let src = ctx.op_name("t", "src");
        let a = ctx.create_op(OperationState::new(src).add_result_types([i32]));
        ctx.append_op(block, a);
        let va = a.result(ctx, 0);
        let add = ctx.op_name("t", "add");
        let op = ctx
            .create_op(OperationState::new(add).add_operands([va, va]).add_result_types([i32]));
        ctx.append_op(block, op);
        (op, a)
    }

    #[test]
    fn opaque_patterns_reproduce_root_index_dispatch() {
        let mut ctx = Context::new();
        let add = ctx.op_name("t", "add");
        let mul = ctx.op_name("t", "mul");
        let mut set = PatternSet::new();
        set.add(Arc::new(Opaque { root: Some(add), benefit: 1 }));
        set.add(Arc::new(Opaque { root: None, benefit: 9 }));
        set.add(Arc::new(Opaque { root: Some(mul), benefit: 5 }));
        let matcher = PatternMatcher::compile(set.patterns());

        let (add_op, _) = add_of_sources(&mut ctx);
        // Positions must equal the scan's candidate positions, ascending.
        let scan: Vec<u32> = set.candidate_positions(add).map(|i| i as u32).collect();
        assert_eq!(matcher.matches(&ctx, add_op), scan);
        // The mul-anchored pattern is never a candidate for an add op.
        assert!(!matcher.matches(&ctx, add_op).contains(&{
            set.patterns()
                .iter()
                .position(|p| p.root() == Some(mul))
                .unwrap() as u32
        }));
    }

    #[test]
    fn def_switch_dispatches_on_defining_op_symbol() {
        let mut ctx = Context::new();
        let add = ctx.op_name("t", "add");
        let src = ctx.op_name("t", "src");
        let other = ctx.op_name("t", "other");
        let hit = program(
            add,
            vec![Pred::OperandDef { path: vec![], index: 0, name: src }],
        );
        let miss = program(
            add,
            vec![Pred::OperandDef { path: vec![], index: 0, name: other }],
        );
        let set: PatternSet = [hit, miss].into_iter().collect();
        let matcher = PatternMatcher::compile(set.patterns());
        // Both programs share one switch: two cases, one branch each.
        assert_eq!(matcher.num_tests(), 0, "OperandDef edges become switch cases");

        let (add_op, _) = add_of_sources(&mut ctx);
        assert_eq!(matcher.matches(&ctx, add_op), vec![0]);
    }

    #[test]
    fn shared_prefixes_merge_into_one_path() {
        let mut ctx = Context::new();
        let add = ctx.op_name("t", "add");
        let shared = vec![
            Pred::OperandCount { path: vec![], count: 2 },
            Pred::ResultCount { path: vec![], count: 1 },
        ];
        let mut a = shared.clone();
        a.push(Pred::ValueEq {
            a: ValuePos::Operand { path: vec![], index: 0 },
            b: ValuePos::Operand { path: vec![], index: 1 },
        });
        let set: PatternSet =
            [program(add, shared.clone()), program(add, a)].into_iter().collect();
        let matcher = PatternMatcher::compile(set.patterns());
        // Prefix sharing: OperandCount and ResultCount appear once each.
        assert_eq!(matcher.num_tests(), 3);

        let (add_op, _) = add_of_sources(&mut ctx);
        // add(src, src) has equal operands: both accept.
        assert_eq!(matcher.matches(&ctx, add_op), vec![0, 1]);
    }

    #[test]
    fn predicates_fail_totally_on_unresolvable_positions() {
        let mut ctx = Context::new();
        let add = ctx.op_name("t", "add");
        let src = ctx.op_name("t", "src");
        let preds = vec![
            // Path walks through operand 5, which does not exist.
            Pred::OperandCount { path: vec![5], count: 1 },
            Pred::OperandDef { path: vec![5], index: 0, name: src },
        ];
        let set: PatternSet = [program(add, preds)].into_iter().collect();
        let matcher = PatternMatcher::compile(set.patterns());
        let (add_op, _) = add_of_sources(&mut ctx);
        assert!(matcher.matches(&ctx, add_op).is_empty());
    }

    #[test]
    fn attr_predicate_requires_exact_interned_value() {
        let mut ctx = Context::new();
        let add = ctx.op_name("t", "add");
        let key = ctx.symbol("flag");
        let five = ctx.i64_attr(5);
        let six = ctx.i64_attr(6);
        let p5 = program(add, vec![Pred::AttrEq { path: vec![], key, value: five }]);
        let p6 = program(add, vec![Pred::AttrEq { path: vec![], key, value: six }]);
        let set: PatternSet = [p5, p6].into_iter().collect();
        let matcher = PatternMatcher::compile(set.patterns());

        let (add_op, _) = add_of_sources(&mut ctx);
        assert!(matcher.matches(&ctx, add_op).is_empty(), "no attribute at all");
        ctx.set_attr(add_op, key, five);
        assert_eq!(matcher.matches(&ctx, add_op), vec![0]);
    }

    #[test]
    fn compile_count_is_observable() {
        let before = matcher_compile_count();
        let set = PatternSet::new();
        let _ = PatternMatcher::compile(set.patterns());
        // `>=`: tests in other modules may compile matchers concurrently.
        assert!(matcher_compile_count() > before);
    }
}
