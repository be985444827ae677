//! A declarative, textual pattern format.
//!
//! Dialects in this reproduction are loaded from IRDL text at runtime; this
//! module lets *rewrites* be loaded the same way (the "dynamic pattern
//! rewriting support" the paper pairs with IRDL in §3). A pattern matches a
//! DAG of operations rooted at the last operation of its `Match` block and
//! replaces it with the ops of its `Rewrite` block:
//!
//! ```text
//! Pattern conorm {
//!   Match {
//!     %n1 = cmath.norm(%p)
//!     %n2 = cmath.norm(%q)
//!     %r = arith.mulf(%n1, %n2)
//!   }
//!   Rewrite {
//!     %m = cmath.mul(%p, %q) : typeof(%p)
//!     %r2 = cmath.norm(%m) : typeof(%r)
//!     Replace %r with %r2
//!   }
//! }
//! ```
//!
//! Result types of new operations are written `typeof(%v)`, referencing any
//! matched or newly created value. Interior matched operations are erased
//! when the rewrite leaves them without uses.
//!
//! Both match and rewrite ops take an optional attribute clause after the
//! operand list — `cmath.norm(%p) {fast = true}` — requiring (or setting)
//! exact attribute values: integer, string, or boolean literals.
//!
//! A pattern is data, so its interpretation overhead is paid once, at parse
//! time: every `%name` resolves to a dense *slot* index and every match
//! operand to the match op producing it. Matching then binds values and ops
//! in inline slot arrays and materializes operands straight into an
//! [`OperationState`], so an application neither hashes a string nor
//! touches the allocator. The same slot table drives the lowering to a
//! [`MatchProgram`] (see [`crate::matcher`]): the driver can test the whole
//! catalog against an op with one automaton evaluation instead of one
//! `try_match` walk per pattern.

use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::lexer::{Token, TokenStream};
use irdl_ir::{Attribute, Context, InlineVec, OpName, OperationState, OpRef, Symbol, Value};

use crate::matcher::{MatchProgram, OpPath, Pred, ValuePos};
use crate::pattern::{PatternSet, RewritePattern, Rewriter};

/// Slots held inline by an application's binding arrays; patterns with more
/// variables (or match ops) spill those arrays to the heap.
const INLINE_SLOTS: usize = 8;

/// One operand of a match op template.
#[derive(Debug, Clone)]
struct MatchOperand {
    /// Slot of the operand's variable.
    slot: usize,
    /// The *other* match op whose result the variable names, if any: the
    /// operand must then be produced by an op matching that template.
    producer: Option<usize>,
}

/// One operation template in a `Match` block.
#[derive(Debug, Clone)]
struct MatchOp {
    /// Slot bound to the single result (`None` for zero-result ops).
    def: Option<usize>,
    name: OpName,
    operands: Vec<MatchOperand>,
    /// Required attribute values from the `{key = literal, ...}` clause.
    attrs: Vec<(Symbol, Attribute)>,
}

/// One operation template in a `Rewrite` block.
#[derive(Debug, Clone)]
struct RewriteOp {
    /// Slot the result is bound to (rebinding a match variable is allowed:
    /// later references see the new value).
    def: Option<usize>,
    name: OpName,
    /// Operand slots.
    operands: Vec<usize>,
    /// Attributes to set on the materialized op.
    attrs: Vec<(Symbol, Attribute)>,
    /// Slots whose value types become the result types (one per result).
    result_types_of: Vec<usize>,
}

/// A parsed declarative pattern; implements [`RewritePattern`].
#[derive(Debug, Clone)]
pub struct DeclarativePattern {
    name: String,
    /// Relative priority from the optional `benefit N` clause (default 1).
    benefit: usize,
    /// Number of variable slots, match and rewrite side together.
    slots: usize,
    /// Match templates; the last one is the root.
    match_ops: Vec<MatchOp>,
    rewrite_ops: Vec<RewriteOp>,
    /// Slot of the replacement in `Replace <root def var> with <var>`.
    replace_with: usize,
}

/// Per-application slot arrays: the value bound to each variable and the
/// op matched by each match template.
struct Bindings {
    values: InlineVec<Option<Value>, INLINE_SLOTS>,
    ops: InlineVec<Option<OpRef>, INLINE_SLOTS>,
}

impl Bindings {
    fn new(pattern: &DeclarativePattern) -> Self {
        Bindings {
            values: std::iter::repeat_n(None, pattern.slots).collect(),
            ops: std::iter::repeat_n(None, pattern.match_ops.len()).collect(),
        }
    }

    /// The value in `slot`, which parse-time validation guarantees is bound
    /// wherever the rewrite reads it.
    fn value(&self, slot: usize) -> Value {
        self.values[slot].expect("rewrite reads only slots bound at parse time")
    }
}

/// Parses a sequence of `Pattern` definitions into a [`PatternSet`].
///
/// # Errors
///
/// Returns a diagnostic with an offset into `source` on malformed input.
pub fn parse_patterns(ctx: &mut Context, source: &str) -> Result<PatternSet> {
    let mut parser = DslParser { ctx, tokens: TokenStream::new(source) };
    let mut set = PatternSet::new();
    let parsed = parser.parse_all(|pattern| set.add(std::sync::Arc::new(pattern)));
    parser.tokens.finish(parsed).map(|()| set)
}

/// Parsed `[%def =] dialect.op(%operand, ...) [{key = value, ...}]`.
struct OpHead {
    /// Source offset of the op's first token.
    offset: usize,
    def: Option<String>,
    name: OpName,
    operands: Vec<String>,
    attrs: Vec<(Symbol, Attribute)>,
}

/// Interns `%name` variables to dense slot indices while a pattern is
/// compiled. Patterns are small, so a linear scan beats hashing.
#[derive(Default)]
struct SlotTable<'p> {
    names: Vec<&'p str>,
}

impl<'p> SlotTable<'p> {
    fn get(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| *n == name)
    }

    fn slot(&mut self, name: &'p str) -> usize {
        self.get(name).unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        })
    }
}

struct DslParser<'s, 'c> {
    ctx: &'c mut Context,
    tokens: TokenStream<'s>,
}

impl<'s, 'c> DslParser<'s, 'c> {
    fn peek(&self) -> &Token<'s> {
        self.tokens.peek()
    }

    fn bump(&mut self) -> Token<'s> {
        self.tokens.bump()
    }

    fn error(&self, message: impl Into<String>) -> Diagnostic {
        Diagnostic::at(self.tokens.offset(), message)
    }

    /// Parses every pattern up to the end of input, handing each to `add`.
    fn parse_all(&mut self, mut add: impl FnMut(DeclarativePattern)) -> Result<()> {
        while self.peek() != &Token::Eof {
            add(self.parse_pattern()?);
        }
        Ok(())
    }

    fn expect(&mut self, token: &Token<'_>) -> Result<()> {
        if self.peek() == token {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                token.describe(),
                self.peek().describe()
            )))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.peek() {
            Token::Ident(s) if *s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {}", other.describe()))),
        }
    }

    fn expect_value(&mut self) -> Result<String> {
        match self.bump() {
            Token::ValueId(name) => Ok(name.to_string()),
            other => Err(self.error(format!("expected `%name`, found {}", other.describe()))),
        }
    }

    fn parse_pattern(&mut self) -> Result<DeclarativePattern> {
        self.expect_keyword("Pattern")?;
        let name = match self.bump() {
            Token::Ident(s) => s.to_string(),
            other => {
                return Err(self.error(format!("expected pattern name, found {}", other.describe())))
            }
        };
        // Optional `benefit N` clause: higher-benefit patterns are tried
        // first by the driver.
        let mut benefit = 1usize;
        if matches!(self.peek(), Token::Ident(s) if *s == "benefit") {
            self.bump();
            benefit = match self.bump() {
                Token::Integer { value, .. } if value >= 1 && value <= i128::from(u32::MAX) => {
                    value as usize
                }
                other => {
                    return Err(self.error(format!(
                        "expected a positive benefit, found {}",
                        other.describe()
                    )))
                }
            };
        }
        self.expect(&Token::LBrace)?;
        self.expect_keyword("Match")?;
        self.expect(&Token::LBrace)?;
        let mut match_ops = Vec::new();
        while self.peek() != &Token::RBrace {
            match_ops.push(self.parse_op_head()?);
        }
        self.expect(&Token::RBrace)?;
        if match_ops.is_empty() {
            return Err(self.error("Match block must contain at least one operation"));
        }
        self.expect_keyword("Rewrite")?;
        self.expect(&Token::LBrace)?;
        let mut rewrite_ops = Vec::new();
        let mut replace_with = None;
        while self.peek() != &Token::RBrace {
            if matches!(self.peek(), Token::Ident(s) if *s == "Replace") {
                self.bump();
                let target = self.expect_value()?;
                let root_def = match_ops
                    .last()
                    .and_then(|op| op.def.clone())
                    .ok_or_else(|| self.error("root operation binds no result"))?;
                if target != root_def {
                    return Err(self.error(format!(
                        "Replace target `%{target}` must be the root's result `%{root_def}`"
                    )));
                }
                self.expect_keyword("with")?;
                replace_with = Some(self.expect_value()?);
            } else {
                rewrite_ops.push(self.parse_rewrite_op()?);
            }
        }
        self.expect(&Token::RBrace)?;
        self.expect(&Token::RBrace)?;
        let replace_with = replace_with
            .ok_or_else(|| self.error("Rewrite block must end with a `Replace ... with ...`"))?;
        self.compile(name, benefit, &match_ops, &rewrite_ops, &replace_with)
    }

    /// The slot compiler: resolves every variable to a slot and every match
    /// operand to its producer, rejecting shapes a match could not bind
    /// completely or a rewrite could not materialize.
    fn compile(
        &self,
        name: String,
        benefit: usize,
        match_heads: &[OpHead],
        rewrite_heads: &[(OpHead, Vec<String>)],
        replace_with: &str,
    ) -> Result<DeclarativePattern> {
        let mut slots = SlotTable::default();
        // The match op binding each slot as its result; one per variable,
        // so a match binds every variable exactly once.
        let mut producer_of: Vec<Option<usize>> = Vec::new();
        for (index, head) in match_heads.iter().enumerate() {
            let Some(def) = &head.def else { continue };
            let slot = slots.slot(def);
            producer_of.resize(slots.names.len(), None);
            if let Some(first) = producer_of[slot] {
                return Err(Diagnostic::at(
                    head.offset,
                    format!(
                        "`%{def}` is already the result of match op `{}`; a match \
                         variable may be defined only once",
                        match_heads[first].name.display(self.ctx)
                    ),
                ));
            }
            producer_of[slot] = Some(index);
        }
        let match_ops: Vec<MatchOp> = match_heads
            .iter()
            .enumerate()
            .map(|(index, head)| MatchOp {
                def: head.def.as_deref().map(|def| slots.slot(def)),
                name: head.name,
                operands: head
                    .operands
                    .iter()
                    .map(|var| {
                        let slot = slots.slot(var);
                        let producer = producer_of.get(slot).copied().flatten();
                        MatchOperand { slot, producer: producer.filter(|&p| p != index) }
                    })
                    .collect(),
                attrs: head.attrs.clone(),
            })
            .collect();
        // Matching walks from the root through producer edges, so an op
        // the root does not reach would never be bound.
        let root = match_ops.len() - 1;
        let mut reached = vec![false; match_ops.len()];
        reached[root] = true;
        let mut stack = vec![root];
        while let Some(index) = stack.pop() {
            for producer in match_ops[index].operands.iter().filter_map(|o| o.producer) {
                if !std::mem::replace(&mut reached[producer], true) {
                    stack.push(producer);
                }
            }
        }
        if let Some(orphan) = reached.iter().position(|r| !r) {
            return Err(Diagnostic::at(
                match_heads[orphan].offset,
                format!(
                    "match op `{}` does not feed the root `{}`; every match op must \
                     reach the root through operands",
                    match_ops[orphan].name.display(self.ctx),
                    match_ops[root].name.display(self.ctx)
                ),
            ));
        }
        // Every variable the rewrite reads must be bound by the match (an
        // operand or result var) or defined by an earlier rewrite op, so a
        // failed lookup can never occur mid-rewrite (which would leave
        // partially materialized IR behind).
        let mut bound = vec![true; slots.names.len()];
        let mut rewrite_ops = Vec::with_capacity(rewrite_heads.len());
        for (head, result_types_of) in rewrite_heads {
            let resolve = |var: &String| {
                slots.get(var).filter(|&slot| bound[slot]).ok_or_else(|| {
                    self.error(format!(
                        "rewrite references `%{var}`, which neither the match nor an \
                         earlier rewrite op binds"
                    ))
                })
            };
            let operands = head.operands.iter().map(resolve).collect::<Result<Vec<_>>>()?;
            let result_types_of = result_types_of.iter().map(resolve).collect::<Result<Vec<_>>>()?;
            let def = head.def.as_deref().map(|def| slots.slot(def));
            if let Some(slot) = def {
                bound.resize(slots.names.len(), false);
                bound[slot] = true;
            }
            rewrite_ops.push(RewriteOp {
                def,
                name: head.name,
                operands,
                attrs: head.attrs.clone(),
                result_types_of,
            });
        }
        let replace_with = slots.get(replace_with).filter(|&slot| bound[slot]).ok_or_else(|| {
            self.error(format!("Replace uses `%{replace_with}`, which nothing binds"))
        })?;
        Ok(DeclarativePattern {
            name,
            benefit,
            slots: slots.names.len(),
            match_ops,
            rewrite_ops,
            replace_with,
        })
    }

    /// Parses the optional `{key = literal, ...}` attribute clause.
    fn parse_attr_clause(&mut self) -> Result<Vec<(Symbol, Attribute)>> {
        let mut attrs = Vec::new();
        if self.peek() != &Token::LBrace {
            return Ok(attrs);
        }
        self.bump();
        while self.peek() != &Token::RBrace {
            let key = match self.bump() {
                Token::Ident(s) => self.ctx.symbol(s),
                other => {
                    return Err(self.error(format!(
                        "expected attribute name, found {}",
                        other.describe()
                    )))
                }
            };
            self.expect(&Token::Equals)?;
            let value = match self.bump() {
                Token::Integer { value, .. }
                    if value >= i128::from(i64::MIN) && value <= i128::from(i64::MAX) =>
                {
                    self.ctx.i64_attr(value as i64)
                }
                Token::Str(s) => self.ctx.string_attr(s.into_owned()),
                Token::Ident("true") => self.ctx.bool_attr(true),
                Token::Ident("false") => self.ctx.bool_attr(false),
                other => {
                    return Err(self.error(format!(
                        "expected an integer, string, or boolean attribute value, found {}",
                        other.describe()
                    )))
                }
            };
            attrs.push((key, value));
            if self.peek() != &Token::Comma {
                break;
            }
            self.bump();
        }
        self.expect(&Token::RBrace)?;
        Ok(attrs)
    }

    fn parse_op_head(&mut self) -> Result<OpHead> {
        let offset = self.tokens.offset();
        let def = if matches!(self.peek(), Token::ValueId(_)) {
            let def = self.expect_value()?;
            self.expect(&Token::Equals)?;
            Some(def)
        } else {
            None
        };
        let full = match self.bump() {
            Token::Ident(s) if s.contains('.') => s,
            other => {
                return Err(self.error(format!(
                    "expected `dialect.op`, found {}",
                    other.describe()
                )))
            }
        };
        let (dialect, op) = full.split_once('.').expect("checked above");
        let name = self.ctx.op_name(dialect, op);
        self.expect(&Token::LParen)?;
        let mut operands = Vec::new();
        if self.peek() != &Token::RParen {
            loop {
                operands.push(self.expect_value()?);
                if !matches!(self.peek(), Token::Comma) {
                    break;
                }
                self.bump();
            }
        }
        self.expect(&Token::RParen)?;
        let attrs = self.parse_attr_clause()?;
        Ok(OpHead { offset, def, name, operands, attrs })
    }

    /// A rewrite op head plus its `: typeof(%v), ...` result-type sources.
    fn parse_rewrite_op(&mut self) -> Result<(OpHead, Vec<String>)> {
        let head = self.parse_op_head()?;
        let mut result_types_of = Vec::new();
        if self.peek() == &Token::Colon {
            self.bump();
            loop {
                self.expect_keyword("typeof")?;
                self.expect(&Token::LParen)?;
                result_types_of.push(self.expect_value()?);
                self.expect(&Token::RParen)?;
                if self.peek() != &Token::Comma {
                    break;
                }
                self.bump();
            }
        }
        if head.def.is_some() && result_types_of.is_empty() {
            return Err(self.error(
                "rewrite op with a result needs a `: typeof(%v)` result type",
            ));
        }
        Ok((head, result_types_of))
    }
}

impl DeclarativePattern {
    /// Attempts to match the pattern DAG rooted at `root`, filling
    /// `bindings`. On success every match template is bound: parse-time
    /// validation guarantees the root reaches each one.
    fn try_match(&self, ctx: &Context, root: OpRef, bindings: &mut Bindings) -> bool {
        self.match_op_at(ctx, self.match_ops.len() - 1, root, bindings)
    }

    /// Matches template `index` against `candidate`. A failure anywhere
    /// fails the whole match, so partial bindings are simply abandoned.
    fn match_op_at(
        &self,
        ctx: &Context,
        index: usize,
        candidate: OpRef,
        bindings: &mut Bindings,
    ) -> bool {
        if let Some(bound) = bindings.ops[index] {
            return bound == candidate;
        }
        let template = &self.match_ops[index];
        if candidate.name(ctx) != template.name
            || candidate.num_operands(ctx) != template.operands.len()
            || candidate.num_results(ctx) != usize::from(template.def.is_some())
        {
            return false;
        }
        for (key, value) in &template.attrs {
            if candidate.attr_sym(ctx, *key) != Some(*value) {
                return false;
            }
        }
        bindings.ops[index] = Some(candidate);
        for (slot, operand) in template.operands.iter().enumerate() {
            let actual = candidate.operand(ctx, slot);
            match operand.producer {
                Some(producer) => {
                    let Some(def_op) = actual.defining_op(ctx) else { return false };
                    if !self.match_op_at(ctx, producer, def_op, bindings) {
                        return false;
                    }
                }
                None => {
                    if bindings.values[operand.slot].is_some_and(|bound| bound != actual) {
                        return false;
                    }
                }
            }
            bindings.values[operand.slot] = Some(actual);
        }
        if let Some(def) = template.def {
            bindings.values[def] = Some(candidate.result(ctx, 0));
        }
        true
    }

    /// Symbolically executes [`DeclarativePattern::match_op_at`] over match
    /// DAG *positions* instead of runtime ops, emitting one predicate per
    /// check the concrete walk performs. Because every emission corresponds
    /// to a check `try_match` makes on the same position, the resulting
    /// program accepts exactly the ops `try_match` accepts — a complete
    /// (not merely conservative) lowering. `values` and `op_paths` are the
    /// slot arrays of the concrete walk, holding positions instead.
    ///
    /// Returns `None` for shapes the position encoding cannot express
    /// (operand slots beyond `u8`); such patterns fall back to opaque
    /// dispatch.
    fn lower_op(
        &self,
        index: usize,
        path: OpPath,
        preds: &mut Vec<Pred>,
        values: &mut [Option<ValuePos>],
        op_paths: &mut [Option<OpPath>],
    ) -> Option<()> {
        let template = &self.match_ops[index];
        // Mirrors the arity checks; `name` is checked by the caller (the
        // root dispatch map or the OperandDef edge leading here).
        preds.push(Pred::OperandCount {
            path: path.clone(),
            count: u8::try_from(template.operands.len()).ok()?,
        });
        preds.push(Pred::ResultCount {
            path: path.clone(),
            count: u8::from(template.def.is_some()),
        });
        for (key, value) in &template.attrs {
            preds.push(Pred::AttrEq { path: path.clone(), key: *key, value: *value });
        }
        op_paths[index] = Some(path.clone());
        for (slot, operand) in template.operands.iter().enumerate() {
            let slot = u8::try_from(slot).ok()?;
            let pos = ValuePos::Operand { path: path.clone(), index: slot };
            match operand.producer {
                Some(producer) => match op_paths[producer].clone() {
                    // Revisit: `bound == candidate` in the concrete walk.
                    // The producer binds exactly one result, so op equality
                    // is value equality of this operand with that result.
                    Some(bound_path) => preds.push(Pred::ValueEq {
                        a: pos.clone(),
                        b: ValuePos::Result { path: bound_path },
                    }),
                    None => {
                        preds.push(Pred::OperandDef {
                            path: path.clone(),
                            index: slot,
                            name: self.match_ops[producer].name,
                        });
                        let mut child = path.clone();
                        child.push(slot);
                        self.lower_op(producer, child, preds, values, op_paths)?;
                    }
                },
                None => {
                    if let Some(first) = &values[operand.slot] {
                        preds.push(Pred::ValueEq { a: first.clone(), b: pos });
                        continue;
                    }
                }
            }
            values[operand.slot] = Some(pos);
        }
        if let Some(def) = template.def {
            values[def] = Some(ValuePos::Result { path });
        }
        Some(())
    }
}

impl RewritePattern for DeclarativePattern {
    fn root(&self) -> Option<OpName> {
        self.match_ops.last().map(|op| op.name)
    }

    fn benefit(&self) -> usize {
        self.benefit
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn match_program(&self) -> Option<MatchProgram> {
        let root_index = self.match_ops.len() - 1;
        let mut preds = Vec::new();
        self.lower_op(
            root_index,
            Vec::new(),
            &mut preds,
            &mut vec![None; self.slots],
            &mut vec![None; self.match_ops.len()],
        )?;
        Some(MatchProgram { root: Some(self.match_ops[root_index].name), preds })
    }

    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
        let root = rewriter.root();
        let mut bindings = Bindings::new(self);
        if !self.try_match(rewriter.ctx(), root, &mut bindings) {
            return false;
        }
        // Materialize the rewrite ops in order, building each state's
        // inline lists straight from the slots.
        for template in &self.rewrite_ops {
            let ctx = rewriter.ctx();
            let mut state = OperationState::new(template.name);
            state.operands.extend(template.operands.iter().map(|&slot| bindings.value(slot)));
            state
                .result_types
                .extend(template.result_types_of.iter().map(|&slot| bindings.value(slot).ty(ctx)));
            state.attributes.extend(template.attrs.iter().copied());
            let op = rewriter.insert_before_root(state);
            if let Some(def) = template.def {
                bindings.values[def] = Some(op.result(rewriter.ctx(), 0));
            }
        }
        rewriter.replace_root(&[bindings.value(self.replace_with)]);
        // Clean up interior matched ops that became dead (skip the root,
        // which replace_root already erased).
        for &op in bindings.ops.iter().rev().flatten() {
            if op != root && op.is_live(rewriter.ctx()) {
                rewriter.erase_if_unused(op);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::rewrite_greedily;
    use irdl_ir::parse::parse_module;
    use irdl_ir::print::op_to_string;
    use irdl_ir::verify::verify_op;

    /// Parses through the module-private parser to keep the concrete
    /// `DeclarativePattern` values (`try_match` is not on the trait).
    fn parse_declarative(ctx: &mut Context, source: &str) -> Vec<DeclarativePattern> {
        let mut parser = DslParser { ctx, tokens: TokenStream::new(source) };
        let mut declarative = Vec::new();
        let parsed = parser.parse_all(|pattern| declarative.push(pattern));
        parser.tokens.finish(parsed).unwrap();
        declarative
    }

    /// Drives `patterns` over `module` on a fresh context in each matcher
    /// mode, asserts that Scan and Auto agree, and returns the rewrite
    /// count and printed IR.
    fn drive_both_modes(patterns: &str, module: &str) -> (usize, String) {
        use crate::driver::{rewrite_greedily_matched, CheckLevel, MatcherMode};
        let run = |mode| {
            let mut ctx = Context::new();
            let set = parse_patterns(&mut ctx, patterns).unwrap();
            let module = parse_module(&mut ctx, module).unwrap();
            let stats =
                rewrite_greedily_matched(&mut ctx, module, &set, CheckLevel::Off, mode).unwrap();
            (stats.rewrites, op_to_string(&ctx, module))
        };
        let scan = run(MatcherMode::Scan);
        assert_eq!(scan, run(MatcherMode::Auto), "Scan and Auto disagree");
        scan
    }

    const CMATH: &str = r#"
Dialect cmath {
  Alias !FloatType = !AnyOf<!f32, !f64>
  Type complex { Parameters (elementType: !FloatType) }
  Operation mul {
    ConstraintVar (!T: !complex<!FloatType>)
    Operands (lhs: !T, rhs: !T)
    Results (res: !T)
  }
  Operation norm {
    ConstraintVar (!T: !FloatType)
    Operands (c: !complex<!T>)
    Results (res: !T)
  }
}
Dialect arith {
  Operation mulf {
    ConstraintVar (!T: !AnyFloat)
    Operands (lhs: !T, rhs: !T)
    Results (res: !T)
  }
}
"#;

    const CONORM_PATTERN: &str = r#"
Pattern conorm {
  Match {
    %n1 = cmath.norm(%p)
    %n2 = cmath.norm(%q)
    %r = arith.mulf(%n1, %n2)
  }
  Rewrite {
    %m = cmath.mul(%p, %q) : typeof(%p)
    %r2 = cmath.norm(%m) : typeof(%r)
    Replace %r with %r2
  }
}
"#;

    /// The paper's Listing 1: |p|*|q| becomes |p*q|.
    #[test]
    fn conorm_optimization_from_listing1() {
        let mut ctx = Context::new();
        irdl::register_dialects(&mut ctx, CMATH).unwrap();
        let patterns = parse_patterns(&mut ctx, CONORM_PATTERN).unwrap();
        let module = parse_module(
            &mut ctx,
            r#"
            %p = "test.arg"() : () -> !cmath.complex<f32>
            %q = "test.arg"() : () -> !cmath.complex<f32>
            %norm_p = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
            %norm_q = "cmath.norm"(%q) : (!cmath.complex<f32>) -> f32
            %pq = "arith.mulf"(%norm_p, %norm_q) : (f32, f32) -> f32
            "test.return"(%pq) : (f32) -> ()
            "#,
        )
        .unwrap();
        verify_op(&ctx, module).unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 1);
        verify_op(&ctx, module).expect("optimized module verifies");
        let text = op_to_string(&ctx, module);
        assert!(text.contains("cmath.mul"), "{text}");
        assert!(!text.contains("arith.mulf"), "{text}");
        // Exactly one norm remains.
        assert_eq!(text.matches("cmath.norm").count(), 1, "{text}");
    }

    /// The pattern must not fire when the operands of mulf come from
    /// different computations than two norms.
    #[test]
    fn conorm_pattern_does_not_overfire() {
        let mut ctx = Context::new();
        irdl::register_dialects(&mut ctx, CMATH).unwrap();
        let patterns = parse_patterns(&mut ctx, CONORM_PATTERN).unwrap();
        let module = parse_module(
            &mut ctx,
            r#"
            %a = "test.arg"() : () -> f32
            %p = "test.arg"() : () -> !cmath.complex<f32>
            %norm_p = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
            %x = "arith.mulf"(%norm_p, %a) : (f32, f32) -> f32
            "#,
        )
        .unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 0);
    }

    #[test]
    fn repeated_variable_requires_equal_values() {
        let (rewrites, text) = drive_both_modes(
            "Pattern p { Match { %r = t.add(%x, %x) } Rewrite { %d = t.double(%x) : typeof(%x) Replace %r with %d } }",
            r#"
            %a = "t.arg"() : () -> i32
            %b = "t.arg"() : () -> i32
            %same = "t.add"(%a, %a) : (i32, i32) -> i32
            %diff = "t.add"(%a, %b) : (i32, i32) -> i32
            "t.keep"(%same, %diff) : (i32, i32) -> ()
            "#,
        );
        assert_eq!(rewrites, 1, "only add(%a, %a) matches");
        assert_eq!(
            text,
            r#""builtin.module"() ({
  %0 = "t.arg"() : () -> i32
  %1 = "t.arg"() : () -> i32
  %2 = "t.double"(%0) : (i32) -> i32
  %3 = "t.add"(%0, %1) : (i32, i32) -> i32
  "t.keep"(%2, %3) : (i32, i32) -> ()
}) : () -> ()"#
        );
    }

    /// `benefit N` steers which of two competing patterns wins.
    #[test]
    fn benefit_clause_orders_competing_patterns() {
        let mut ctx = Context::new();
        irdl::register_dialects(
            &mut ctx,
            "Dialect toy {
               Operation add { Operands (a: !i32, b: !i32) Results (r: !i32) }
               Operation double { Operands (x: !i32) Results (r: !i32) }
               Operation fast { Operands (x: !i32) Results (r: !i32) }
             }",
        )
        .unwrap();
        let patterns = parse_patterns(
            &mut ctx,
            "Pattern slow { Match { %r = toy.add(%x, %x) } Rewrite { %d = toy.double(%x) : typeof(%x) Replace %r with %d } }
             Pattern quick benefit 10 { Match { %r = toy.add(%x, %x) } Rewrite { %d = toy.fast(%x) : typeof(%x) Replace %r with %d } }",
        )
        .unwrap();
        assert_eq!(patterns.patterns()[0].name(), "quick");
        assert_eq!(patterns.patterns()[0].benefit(), 10);
        assert_eq!(patterns.patterns()[1].benefit(), 1);
        let module = parse_module(
            &mut ctx,
            r#"
            %a = "test.arg"() : () -> i32
            %s = "toy.add"(%a, %a) : (i32, i32) -> i32
            "test.keep"(%s) : (i32) -> ()
            "#,
        )
        .unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 1);
        let text = op_to_string(&ctx, module);
        assert!(text.contains("toy.fast"), "higher benefit wins: {text}");

        let err = parse_patterns(&mut ctx, "Pattern p benefit 0 { Match { %r = a.b(%x) } Rewrite { Replace %r with %x } }")
            .unwrap_err();
        assert!(err.to_string().contains("positive benefit"), "{err}");
    }

    #[test]
    fn malformed_pattern_is_an_error() {
        let mut ctx = Context::new();
        // Missing Replace.
        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = a.b(%x) } Rewrite { } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("Replace"), "{err}");
        // Replace target is not the root result.
        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = a.b(%x) } Rewrite { Replace %x with %r } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("root"), "{err}");
    }

    #[test]
    fn parse_error_then_lex_error_reports_the_lex_error() {
        let mut ctx = Context::new();
        // Missing Replace is a parse error; the malformed hex literal in
        // the next pattern is a lex error, and the lex error wins.
        let src = "Pattern p { Match { %r = a.b(%x) } Rewrite { } }\nPattern q { 0x }";
        let lexed = irdl_ir::lexer::lex(src).unwrap_err();
        assert_eq!(parse_patterns(&mut ctx, src).unwrap_err(), lexed);
    }

    #[test]
    fn unbound_rewrite_variable_is_a_parse_error() {
        let mut ctx = Context::new();
        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = a.b(%x) } Rewrite { %d = a.c(%ghost) : typeof(%x) Replace %r with %d } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("%ghost"), "{err}");
        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = a.b(%x) } Rewrite { %d = a.c(%x) : typeof(%nope) Replace %r with %d } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("%nope"), "{err}");
    }

    /// The `{key = literal}` clause constrains matches and decorates
    /// rewritten ops.
    #[test]
    fn attribute_clause_constrains_match_and_sets_on_rewrite() {
        let mut ctx = Context::new();
        irdl::register_dialects(
            &mut ctx,
            "Dialect toy {
               Operation cst { Results (r: !i32) }
               Operation zero { Results (r: !i32) }
             }",
        )
        .unwrap();
        let patterns = parse_patterns(
            &mut ctx,
            r#"Pattern zero_cst {
                 Match { %r = toy.cst() {value = 0} }
                 Rewrite {
                   %z = toy.zero() {origin = "folded", checked = true} : typeof(%r)
                   Replace %r with %z
                 }
               }"#,
        )
        .unwrap();
        let module = parse_module(
            &mut ctx,
            r#"
            %a = "toy.cst"() {value = 0 : i64} : () -> i32
            %b = "toy.cst"() {value = 7 : i64} : () -> i32
            "test.keep"(%a, %b) : (i32, i32) -> ()
            "#,
        )
        .unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 1, "only the value = 0 constant folds");
        let text = op_to_string(&ctx, module);
        assert!(text.contains("toy.zero"), "{text}");
        assert!(text.contains("origin = \"folded\""), "{text}");
        assert!(text.contains("checked = true"), "{text}");
        assert!(text.contains("value = 7"), "{text}");

        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = toy.cst() {value = %x} } Rewrite { Replace %r with %r } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("attribute value"), "{err}");
    }

    /// Every declarative pattern lowers to a predicate program whose
    /// accepted set (over a module exercising partial matches, shared
    /// values, and repeated variables) equals `try_match`'s.
    #[test]
    fn lowered_programs_agree_with_try_match() {
        use crate::matcher::PatternMatcher;
        use irdl_ir::walk::collect_ops;

        let mut ctx = Context::new();
        irdl::register_dialects(&mut ctx, CMATH).unwrap();
        irdl::register_dialects(
            &mut ctx,
            "Dialect toy {
               Operation add { Operands (a: !i32, b: !i32) Results (r: !i32) }
               Operation double { Operands (x: !i32) Results (r: !i32) }
             }",
        )
        .unwrap();
        let mut source = CONORM_PATTERN.to_string();
        source.push_str(
            "Pattern same { Match { %r = toy.add(%x, %x) } Rewrite { %d = toy.double(%x) : typeof(%x) Replace %r with %d } }
             Pattern dd { Match { %a = toy.double(%x) %r = toy.double(%a) } Rewrite { Replace %r with %x } }",
        );
        let declarative = parse_declarative(&mut ctx, &source);
        // All benefit 1: the stable sort keeps declaration order, so set
        // positions line up with `declarative` indices.
        let patterns: PatternSet = declarative
            .iter()
            .map(|p| std::sync::Arc::new(p.clone()) as std::sync::Arc<dyn RewritePattern>)
            .collect();
        for pattern in patterns.patterns() {
            assert!(pattern.match_program().is_some(), "{} should lower", pattern.name());
        }
        let module = parse_module(
            &mut ctx,
            r#"
            %p = "test.arg"() : () -> !cmath.complex<f32>
            %q = "test.arg"() : () -> !cmath.complex<f32>
            %np = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
            %nq = "cmath.norm"(%q) : (!cmath.complex<f32>) -> f32
            %good = "arith.mulf"(%np, %nq) : (f32, f32) -> f32
            %bad = "arith.mulf"(%np, %good) : (f32, f32) -> f32
            %a = "test.arg"() : () -> i32
            %b = "test.arg"() : () -> i32
            %same = "toy.add"(%a, %a) : (i32, i32) -> i32
            %diff = "toy.add"(%a, %b) : (i32, i32) -> i32
            %d1 = "toy.double"(%a) : (i32) -> i32
            %d2 = "toy.double"(%d1) : (i32) -> i32
            "test.keep"(%bad, %same, %diff, %d2) : (f32, i32, i32, i32) -> ()
            "#,
        )
        .unwrap();
        let matcher = PatternMatcher::compile(patterns.patterns());
        let mut automaton_accepts = 0usize;
        for op in collect_ops(&ctx, module) {
            let accepted = matcher.matches(&ctx, op);
            for (position, pattern) in declarative.iter().enumerate() {
                let direct = pattern.try_match(&ctx, op, &mut Bindings::new(pattern));
                let via_program = accepted.contains(&(position as u32));
                // Lowering is complete, not just conservative: the program
                // accepts exactly where try_match succeeds.
                assert_eq!(
                    direct,
                    via_program,
                    "pattern `{}` at {}",
                    pattern.name,
                    op.name(&ctx).display(&ctx),
                );
                automaton_accepts += usize::from(via_program);
            }
        }
        // Sanity: the module was built so some patterns do accept.
        assert!(automaton_accepts >= 3, "{automaton_accepts}");
    }

    #[test]
    fn interior_op_with_other_uses_is_kept() {
        let mut ctx = Context::new();
        irdl::register_dialects(&mut ctx, CMATH).unwrap();
        let patterns = parse_patterns(&mut ctx, CONORM_PATTERN).unwrap();
        let module = parse_module(
            &mut ctx,
            r#"
            %p = "test.arg"() : () -> !cmath.complex<f32>
            %q = "test.arg"() : () -> !cmath.complex<f32>
            %norm_p = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
            %norm_q = "cmath.norm"(%q) : (!cmath.complex<f32>) -> f32
            %pq = "arith.mulf"(%norm_p, %norm_q) : (f32, f32) -> f32
            "test.keep"(%norm_p, %pq) : (f32, f32) -> ()
            "#,
        )
        .unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 1);
        let text = op_to_string(&ctx, module);
        // norm_p still has a use in test.keep, so exactly two norms remain:
        // the kept one and the new norm(mul).
        assert_eq!(text.matches("cmath.norm").count(), 2, "{text}");
        verify_op(&ctx, module).unwrap();
    }

    /// A rewrite op may rebind a match variable; later references (here
    /// the second rewrite op) read the new value.
    #[test]
    fn rewrite_op_rebinds_a_match_variable() {
        let (rewrites, text) = drive_both_modes(
            "Pattern p { Match { %r = t.neg(%x) } Rewrite { %x = t.abs(%x) : typeof(%x) %y = t.sq(%x) : typeof(%r) Replace %r with %y } }",
            r#"
            %a = "t.arg"() : () -> i32
            %n = "t.neg"(%a) : (i32) -> i32
            "t.keep"(%n) : (i32) -> ()
            "#,
        );
        assert_eq!(rewrites, 1);
        assert_eq!(
            text,
            r#""builtin.module"() ({
  %0 = "t.arg"() : () -> i32
  %1 = "t.abs"(%0) : (i32) -> i32
  %2 = "t.sq"(%1) : (i32) -> i32
  "t.keep"(%2) : (i32) -> ()
}) : () -> ()"#
        );
    }

    #[test]
    fn attribute_clauses_on_both_sides() {
        let (rewrites, text) = drive_both_modes(
            r#"Pattern p {
                 Match { %c = t.cst() {value = 2} %r = t.mul(%x, %c) {exact = true} }
                 Rewrite { %s = t.shl(%x) {amount = 1, tag = "fast"} : typeof(%r) Replace %r with %s }
               }"#,
            r#"
            %a = "t.arg"() : () -> i32
            %two = "t.cst"() {value = 2 : i64} : () -> i32
            %three = "t.cst"() {value = 3 : i64} : () -> i32
            %hit = "t.mul"(%a, %two) {exact = true} : (i32, i32) -> i32
            %inexact = "t.mul"(%a, %two) : (i32, i32) -> i32
            %other = "t.mul"(%a, %three) {exact = true} : (i32, i32) -> i32
            "t.keep"(%hit, %inexact, %other) : (i32, i32, i32) -> ()
            "#,
        );
        assert_eq!(rewrites, 1);
        assert_eq!(
            text,
            r#""builtin.module"() ({
  %0 = "t.arg"() : () -> i32
  %1 = "t.cst"() {value = 2 : i64} : () -> i32
  %2 = "t.cst"() {value = 3 : i64} : () -> i32
  %3 = "t.shl"(%0) {amount = 1 : i64, tag = "fast"} : (i32) -> i32
  %4 = "t.mul"(%0, %1) : (i32, i32) -> i32
  %5 = "t.mul"(%0, %2) {exact = true} : (i32, i32) -> i32
  "t.keep"(%3, %4, %5) : (i32, i32, i32) -> ()
}) : () -> ()"#
        );
    }

    /// One producer feeding two operands is matched once; the second
    /// operand must then be that same op's result.
    #[test]
    fn producer_shared_by_two_operands() {
        let (rewrites, text) = drive_both_modes(
            "Pattern p { Match { %s = t.sq(%x) %r = t.add(%s, %s) } Rewrite { %m = t.twice(%s) : typeof(%r) Replace %r with %m } }",
            r#"
            %a = "t.arg"() : () -> i32
            %s1 = "t.sq"(%a) : (i32) -> i32
            %s2 = "t.sq"(%a) : (i32) -> i32
            %shared = "t.add"(%s1, %s1) : (i32, i32) -> i32
            %split = "t.add"(%s1, %s2) : (i32, i32) -> i32
            "t.keep"(%shared, %split) : (i32, i32) -> ()
            "#,
        );
        assert_eq!(rewrites, 1);
        assert_eq!(
            text,
            r#""builtin.module"() ({
  %0 = "t.arg"() : () -> i32
  %1 = "t.sq"(%0) : (i32) -> i32
  %2 = "t.sq"(%0) : (i32) -> i32
  %3 = "t.twice"(%1) : (i32) -> i32
  %4 = "t.add"(%1, %2) : (i32, i32) -> i32
  "t.keep"(%3, %4) : (i32, i32) -> ()
}) : () -> ()"#
        );
    }

    /// Ten match ops and eleven variables exceed the inline slot arrays,
    /// so bindings spill to the heap; matching must be unaffected.
    #[test]
    fn patterns_beyond_inline_capacity_spill() {
        let chain: String =
            (1..10).map(|i| format!("%v{i} = t.inc(%v{}) ", i - 1)).collect();
        let patterns = format!(
            "Pattern p {{ Match {{ {chain}%r = t.inc(%v9) }} Rewrite {{ %s = t.add10(%v0) : typeof(%r) Replace %r with %s }} }}"
        );
        let mut ctx = Context::new();
        let [pattern] = &parse_declarative(&mut ctx, &patterns)[..] else { panic!() };
        assert!(pattern.slots > INLINE_SLOTS && pattern.match_ops.len() > INLINE_SLOTS);

        // `%{name}0 = inc(%{name})`, then each link increments the last.
        let incs = |n: usize, name: &str| -> String {
            (0..n)
                .map(|i| {
                    let input = if i == 0 { name.to_string() } else { format!("{name}{}", i - 1) };
                    format!("%{name}{i} = \"t.inc\"(%{input}) : (i32) -> i32\n")
                })
                .collect()
        };
        let module = format!(
            "%a = \"t.arg\"() : () -> i32\n%b = \"t.arg\"() : () -> i32\n{}{}\"t.keep\"(%a9, %b8) : (i32, i32) -> ()\n",
            incs(10, "a"),
            incs(9, "b"),
        );
        let (rewrites, text) = drive_both_modes(&patterns, &module);
        assert_eq!(rewrites, 1, "only the ten-long chain matches");
        assert_eq!(
            text,
            r#""builtin.module"() ({
  %0 = "t.arg"() : () -> i32
  %1 = "t.arg"() : () -> i32
  %2 = "t.add10"(%0) : (i32) -> i32
  %3 = "t.inc"(%1) : (i32) -> i32
  %4 = "t.inc"(%3) : (i32) -> i32
  %5 = "t.inc"(%4) : (i32) -> i32
  %6 = "t.inc"(%5) : (i32) -> i32
  %7 = "t.inc"(%6) : (i32) -> i32
  %8 = "t.inc"(%7) : (i32) -> i32
  %9 = "t.inc"(%8) : (i32) -> i32
  %10 = "t.inc"(%9) : (i32) -> i32
  %11 = "t.inc"(%10) : (i32) -> i32
  "t.keep"(%2, %11) : (i32, i32) -> ()
}) : () -> ()"#
        );
    }

    /// A match op the root does not reach would never be bound; the slot
    /// compiler rejects it, pointing at the op.
    #[test]
    fn match_op_unreachable_from_root_is_a_parse_error() {
        let source = "Pattern p { Match { %x = t.a(%p)  %r = t.b(%p) } Rewrite { %y = t.c(%p) : typeof(%r)  Replace %r with %y } }";
        let mut ctx = Context::new();
        let err = parse_patterns(&mut ctx, source).unwrap_err();
        assert!(err.to_string().contains("`t.a` does not feed the root `t.b`"), "{err}");
        assert_eq!(err.offset(), source.find("%x = t.a"));
    }

    /// A variable defined by two match ops has no single producer.
    #[test]
    fn variable_defined_by_two_match_ops_is_a_parse_error() {
        let source = "Pattern p { Match { %x = t.a(%p)  %x = t.b(%p)  %r = t.c(%x) } Rewrite { Replace %r with %p } }";
        let mut ctx = Context::new();
        let err = parse_patterns(&mut ctx, source).unwrap_err();
        assert!(err.to_string().contains("`%x` is already the result of match op `t.a`"), "{err}");
        assert_eq!(err.offset(), source.find("%x = t.b"));
    }
}
