//! The verifier fast path: flat constraint programs.
//!
//! [`crate::constraint::eval`] walks the `Rc`-linked [`Constraint`] tree and
//! renders a `format!` diagnostic for every violation — including the
//! rejected alternatives of a successful `AnyOf`. That is the right shape
//! for error reporting and exactly the wrong shape for the hot loop: module
//! verification re-checks the same uniqued types against the same
//! constraints thousands of times.
//!
//! This module lowers each [`CompiledOp`] / [`CompiledParams`] into a
//! [`ConstraintProgram`]: a contiguous instruction vector ([`Inst`]) whose
//! combinators reference their children through an index pool instead of
//! heap pointers. Evaluation ([`ConstraintProgram::eval`]) dispatches over
//! the flat vector, returns a bare verdict (`bool`), and uses a trail-based
//! undo log for `AnyOf`/`Not` backtracking, so the success path performs no
//! heap allocation at all. Diagnostics are rendered lazily: only when the
//! fast path rejects an op does the adapter re-run the retained tree
//! interpreter to produce the human-readable message.
//!
//! At lowering time every node is classified as *pure* (its verdict depends
//! only on the value, not on constraint-variable bindings or native
//! predicate state). Pure composite nodes get a cache slot; their verdicts
//! are memoized in the owning [`Context`], keyed on `(verdict domain,
//! value)`. This is sound because types and attributes are uniqued,
//! immutable indices: a `!cmath.complex<f32>` checked once is checked
//! forever.

use std::cell::Cell;
use std::sync::Arc;

use irdl_ir::attrs::AttrData;
use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::types::TypeData;
use irdl_ir::{Attribute, Context, OpName, OpRef, Signedness, Symbol, Type};

use crate::ast::{IntKind, Variadicity};
use crate::constraint::{CVal, Constraint, NativePred, TypeClass};
use crate::verifier::{CompiledOp, CompiledParams, CompiledRegion};
use crate::variadic::{resolve_segments_into, OPERAND_SEGMENT_ATTR, RESULT_SEGMENT_ATTR};

/// Sentinel for "this node has no verdict-cache slot".
const NO_SLOT: u32 = u32::MAX;

/// A `(start, len)` range into [`ConstraintProgram::children`].
#[derive(Debug, Clone, Copy)]
struct Children {
    start: u32,
    len: u32,
}

/// One flat instruction. Mirrors [`Constraint`] but replaces owned
/// subtrees with index ranges into the shared child pool.
#[derive(Clone)]
enum Inst {
    Any,
    AnyType,
    AnyAttr,
    ExactType(Type),
    BaseType { dialect: Symbol, name: Symbol },
    ParametricType { dialect: Symbol, name: Symbol, children: Children },
    Class(TypeClass),
    ExactAttr(Attribute),
    BaseAttr { dialect: Symbol, name: Symbol },
    ParametricAttr { dialect: Symbol, name: Symbol, children: Children },
    Int(IntKind),
    IntLiteral { value: i128, kind: IntKind },
    FloatAttr(Option<irdl_ir::FloatKind>),
    StringAny,
    StringLiteral(Box<str>),
    BoolAttr,
    UnitAttr,
    SymbolRefAttr,
    LocationAttr,
    TypeIdAttr,
    ArrayAny,
    ArrayOf(u32),
    ArrayExact(Children),
    EnumAny { dialect: Symbol, name: Symbol },
    EnumVariant { dialect: Symbol, name: Symbol, variant: Symbol },
    NativeParam { kind: Symbol },
    AnyOf(Children),
    And(Children),
    Not(u32),
    Var(u32),
    Native(NativePred),
}

#[derive(Clone)]
struct Node {
    inst: Inst,
    /// Verdict-cache slot, or [`NO_SLOT`]. Only pure composite nodes are
    /// cached: leaves are cheaper to re-check than to look up.
    cache_slot: u32,
}

/// A lowered constraint set: all constraints of one op (or one type/attr
/// definition) in a single contiguous instruction vector.
pub struct ConstraintProgram {
    nodes: Vec<Node>,
    /// Child-index pool referenced by [`Children`] ranges.
    children: Vec<u32>,
    /// Root node of each constraint variable's declared constraint.
    var_roots: Vec<u32>,
    /// First verdict-cache domain owned by this program; slot `s` maps to
    /// domain `domain_base + s`. Domains are reserved from the [`Context`]
    /// at build time, so distinct programs can never collide on a key.
    domain_base: u32,
    num_slots: u32,
}

impl ConstraintProgram {
    fn children(&self, range: Children) -> &[u32] {
        &self.children[range.start as usize..(range.start + range.len) as usize]
    }

    /// Number of memoizable (pure composite) nodes.
    pub fn num_cache_slots(&self) -> u32 {
        self.num_slots
    }

    fn cache_key(&self, slot: u32, val: CVal) -> u64 {
        let (tag, index) = match val {
            CVal::Type(ty) => (0u64, ty.index() as u64),
            CVal::Attr(attr) => (1u64, attr.index() as u64),
        };
        (((self.domain_base + slot) as u64) << 33) | (tag << 32) | index
    }

    /// Evaluates node `idx` against `val`. Allocation-free; returns the
    /// bare verdict.
    fn eval(&self, ctx: &Context, idx: u32, val: CVal, scratch: &mut EvalScratch) -> bool {
        let node = &self.nodes[idx as usize];
        if node.cache_slot != NO_SLOT {
            let key = self.cache_key(node.cache_slot, val);
            if let Some(verdict) = ctx.cached_verdict(key) {
                return verdict;
            }
            let verdict = self.eval_inst(ctx, &node.inst, val, scratch);
            ctx.cache_verdict(key, verdict);
            return verdict;
        }
        self.eval_inst(ctx, &node.inst, val, scratch)
    }

    fn eval_inst(&self, ctx: &Context, inst: &Inst, val: CVal, scratch: &mut EvalScratch) -> bool {
        match inst {
            Inst::Any => true,
            Inst::AnyType => matches!(val, CVal::Type(_)),
            Inst::AnyAttr => matches!(val, CVal::Attr(_)),
            Inst::ExactType(expected) => val == CVal::Type(*expected),
            Inst::BaseType { dialect, name } => match val {
                CVal::Type(ty) => ty.parametric_name(ctx) == Some((*dialect, *name)),
                CVal::Attr(_) => false,
            },
            Inst::ParametricType { dialect, name, children } => {
                let CVal::Type(ty) = val else { return false };
                if ty.parametric_name(ctx) != Some((*dialect, *name)) {
                    return false;
                }
                let actual = ty.params(ctx);
                let params = self.children(*children);
                actual.len() == params.len()
                    && params.iter().zip(actual.iter()).all(|(&pc, &attr)| {
                        self.eval(ctx, pc, CVal::from_attr(ctx, attr), scratch)
                    })
            }
            Inst::Class(class) => match val {
                CVal::Type(ty) => class.matches(ctx, ty),
                CVal::Attr(_) => false,
            },
            Inst::ExactAttr(expected) => val == CVal::Attr(*expected),
            Inst::BaseAttr { dialect, name } => match val {
                CVal::Attr(attr) => attr.parametric_name(ctx) == Some((*dialect, *name)),
                CVal::Type(_) => false,
            },
            Inst::ParametricAttr { dialect, name, children } => {
                let CVal::Attr(attr) = val else { return false };
                if attr.parametric_name(ctx) != Some((*dialect, *name)) {
                    return false;
                }
                let AttrData::Parametric { params: actual, .. } = ctx.attr_data(attr) else {
                    unreachable!("parametric_name implies parametric data")
                };
                let params = self.children(*children);
                actual.len() == params.len()
                    && params.iter().zip(actual.iter()).all(|(&pc, &a)| {
                        self.eval(ctx, pc, CVal::from_attr(ctx, a), scratch)
                    })
            }
            Inst::Int(kind) => int_ok(ctx, val, *kind, None),
            Inst::IntLiteral { value, kind } => int_ok(ctx, val, *kind, Some(*value)),
            Inst::FloatAttr(kind) => match val {
                CVal::Attr(attr) => match ctx.attr_data(attr) {
                    AttrData::Float { kind: actual, .. } => {
                        kind.is_none_or(|expected| *actual == expected)
                    }
                    _ => false,
                },
                _ => false,
            },
            Inst::StringAny => {
                attr_of(val).is_some_and(|a| matches!(ctx.attr_data(a), AttrData::String(_)))
            }
            Inst::StringLiteral(expected) => attr_of(val).is_some_and(|a| {
                matches!(ctx.attr_data(a), AttrData::String(s) if **s == **expected)
            }),
            Inst::BoolAttr => {
                attr_of(val).is_some_and(|a| matches!(ctx.attr_data(a), AttrData::Bool(_)))
            }
            Inst::UnitAttr => {
                attr_of(val).is_some_and(|a| matches!(ctx.attr_data(a), AttrData::Unit))
            }
            Inst::SymbolRefAttr => {
                attr_of(val).is_some_and(|a| matches!(ctx.attr_data(a), AttrData::SymbolRef(_)))
            }
            Inst::LocationAttr => {
                attr_of(val).is_some_and(|a| matches!(ctx.attr_data(a), AttrData::Location { .. }))
            }
            Inst::TypeIdAttr => {
                attr_of(val).is_some_and(|a| matches!(ctx.attr_data(a), AttrData::TypeId(_)))
            }
            Inst::ArrayAny => {
                attr_of(val).is_some_and(|a| matches!(ctx.attr_data(a), AttrData::Array(_)))
            }
            Inst::ArrayOf(inner) => {
                let Some(items) = array_items(ctx, val) else { return false };
                items
                    .iter()
                    .all(|&item| self.eval(ctx, *inner, CVal::from_attr(ctx, item), scratch))
            }
            Inst::ArrayExact(children) => {
                let Some(items) = array_items(ctx, val) else { return false };
                let constraints = self.children(*children);
                items.len() == constraints.len()
                    && constraints.iter().zip(items.iter()).all(|(&pc, &item)| {
                        self.eval(ctx, pc, CVal::from_attr(ctx, item), scratch)
                    })
            }
            Inst::EnumAny { dialect, name } => attr_of(val).is_some_and(|a| {
                matches!(ctx.attr_data(a),
                    AttrData::EnumValue { dialect: d, enum_name: e, .. }
                        if d == dialect && e == name)
            }),
            Inst::EnumVariant { dialect, name, variant } => attr_of(val).is_some_and(|a| {
                matches!(ctx.attr_data(a),
                    AttrData::EnumValue { dialect: d, enum_name: e, variant: v }
                        if d == dialect && e == name && v == variant)
            }),
            Inst::NativeParam { kind } => attr_of(val).is_some_and(|a| {
                matches!(ctx.attr_data(a), AttrData::Native { kind: k, .. } if k == kind)
            }),
            Inst::AnyOf(children) => {
                // Each alternative starts from the bindings as they were at
                // entry; a failed attempt's bindings are undone via the
                // trail, a successful one's are committed — exactly the
                // clone/commit semantics of the tree interpreter.
                for &choice in self.children(*children) {
                    let mark = scratch.mark();
                    if self.eval(ctx, choice, val, scratch) {
                        return true;
                    }
                    scratch.rollback(mark);
                }
                false
            }
            Inst::And(children) => self
                .children(*children)
                .iter()
                .all(|&part| self.eval(ctx, part, val, scratch)),
            Inst::Not(inner) => {
                // The probe must not leak bindings whether it succeeds or
                // fails (the tree interpreter evaluates on a discarded
                // clone).
                let mark = scratch.mark();
                let matched = self.eval(ctx, *inner, val, scratch);
                scratch.rollback(mark);
                !matched
            }
            Inst::Var(i) => match scratch.binding(*i) {
                Some(bound) => bound == val,
                None => {
                    // First use: the value must satisfy the variable's
                    // declared constraint, then it binds.
                    let decl_ok = match self.var_roots.get(*i as usize) {
                        Some(&root) => self.eval(ctx, root, val, scratch),
                        None => true,
                    };
                    if decl_ok {
                        scratch.bind(*i, val);
                    }
                    decl_ok
                }
            },
            Inst::Native(pred) => pred(ctx, &val).is_ok(),
        }
    }
}

fn attr_of(val: CVal) -> Option<Attribute> {
    match val {
        CVal::Attr(attr) => Some(attr),
        CVal::Type(_) => None,
    }
}

fn array_items(ctx: &Context, val: CVal) -> Option<&[Attribute]> {
    match ctx.attr_data(attr_of(val)?) {
        AttrData::Array(items) => Some(items),
        _ => None,
    }
}

/// Allocation-free twin of `constraint::int_matches`.
fn int_ok(ctx: &Context, val: CVal, kind: IntKind, literal: Option<i128>) -> bool {
    let Some(attr) = attr_of(val) else { return false };
    let AttrData::Integer { value, ty } = ctx.attr_data(attr) else {
        return false;
    };
    let (value, ty) = (*value, *ty);
    let TypeData::Integer { width, signedness } = ctx.type_data(ty) else {
        return false;
    };
    if *width != kind.width {
        return false;
    }
    let sign_ok = match signedness {
        Signedness::Signless => true,
        Signedness::Signed => !kind.unsigned,
        Signedness::Unsigned => kind.unsigned,
    };
    sign_ok && kind.fits(value) && literal.is_none_or(|expected| value == expected)
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Bottom-up lowering of [`Constraint`] trees into one flat program.
struct Builder {
    nodes: Vec<Node>,
    children: Vec<u32>,
    /// Purity per node, parallel to `nodes`; build-time only.
    pure: Vec<bool>,
    num_slots: u32,
}

impl Builder {
    fn new() -> Self {
        Builder { nodes: Vec::new(), children: Vec::new(), pure: Vec::new(), num_slots: 0 }
    }

    fn push(&mut self, inst: Inst, pure: bool, cacheable: bool) -> u32 {
        let cache_slot = if pure && cacheable {
            let slot = self.num_slots;
            self.num_slots += 1;
            slot
        } else {
            NO_SLOT
        };
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { inst, cache_slot });
        self.pure.push(pure);
        idx
    }

    fn lower_list(&mut self, constraints: &[Constraint]) -> (Children, bool) {
        let mut indices = Vec::with_capacity(constraints.len());
        let mut pure = true;
        for c in constraints {
            let idx = self.lower(c);
            pure &= self.pure[idx as usize];
            indices.push(idx);
        }
        let start = self.children.len() as u32;
        self.children.extend_from_slice(&indices);
        (Children { start, len: indices.len() as u32 }, pure)
    }

    fn lower(&mut self, c: &Constraint) -> u32 {
        match c {
            Constraint::Any => self.push(Inst::Any, true, false),
            Constraint::AnyType => self.push(Inst::AnyType, true, false),
            Constraint::AnyAttr => self.push(Inst::AnyAttr, true, false),
            Constraint::ExactType(ty) => self.push(Inst::ExactType(*ty), true, false),
            Constraint::BaseType { dialect, name } => {
                self.push(Inst::BaseType { dialect: *dialect, name: *name }, true, false)
            }
            Constraint::ParametricType { dialect, name, params } => {
                let (children, pure) = self.lower_list(params);
                self.push(
                    Inst::ParametricType { dialect: *dialect, name: *name, children },
                    pure,
                    true,
                )
            }
            Constraint::Class(class) => self.push(Inst::Class(*class), true, false),
            Constraint::ExactAttr(attr) => self.push(Inst::ExactAttr(*attr), true, false),
            Constraint::BaseAttr { dialect, name } => {
                self.push(Inst::BaseAttr { dialect: *dialect, name: *name }, true, false)
            }
            Constraint::ParametricAttr { dialect, name, params } => {
                let (children, pure) = self.lower_list(params);
                self.push(
                    Inst::ParametricAttr { dialect: *dialect, name: *name, children },
                    pure,
                    true,
                )
            }
            Constraint::Int(kind) => self.push(Inst::Int(*kind), true, false),
            Constraint::IntLiteral { value, kind } => {
                self.push(Inst::IntLiteral { value: *value, kind: *kind }, true, false)
            }
            Constraint::FloatAttr(kind) => self.push(Inst::FloatAttr(*kind), true, false),
            Constraint::StringAny => self.push(Inst::StringAny, true, false),
            Constraint::StringLiteral(s) => {
                self.push(Inst::StringLiteral(s.clone().into_boxed_str()), true, false)
            }
            Constraint::BoolAttr => self.push(Inst::BoolAttr, true, false),
            Constraint::UnitAttr => self.push(Inst::UnitAttr, true, false),
            Constraint::SymbolRefAttr => self.push(Inst::SymbolRefAttr, true, false),
            Constraint::LocationAttr => self.push(Inst::LocationAttr, true, false),
            Constraint::TypeIdAttr => self.push(Inst::TypeIdAttr, true, false),
            Constraint::ArrayAny => self.push(Inst::ArrayAny, true, false),
            Constraint::ArrayOf(inner) => {
                let child = self.lower(inner);
                let pure = self.pure[child as usize];
                self.push(Inst::ArrayOf(child), pure, true)
            }
            Constraint::ArrayExact(items) => {
                let (children, pure) = self.lower_list(items);
                self.push(Inst::ArrayExact(children), pure, true)
            }
            Constraint::EnumAny { dialect, name } => {
                self.push(Inst::EnumAny { dialect: *dialect, name: *name }, true, false)
            }
            Constraint::EnumVariant { dialect, name, variant } => self.push(
                Inst::EnumVariant { dialect: *dialect, name: *name, variant: *variant },
                true,
                false,
            ),
            Constraint::NativeParam { kind } => {
                self.push(Inst::NativeParam { kind: *kind }, true, false)
            }
            Constraint::AnyOf(choices) => {
                let (children, pure) = self.lower_list(choices);
                self.push(Inst::AnyOf(children), pure, true)
            }
            Constraint::And(parts) => {
                let (children, pure) = self.lower_list(parts);
                self.push(Inst::And(children), pure, true)
            }
            Constraint::Not(inner) => {
                let child = self.lower(inner);
                let pure = self.pure[child as usize];
                self.push(Inst::Not(child), pure, true)
            }
            // A variable's verdict depends on the binding environment;
            // a native predicate's on arbitrary host code. Neither may
            // ever be memoized (nor any ancestor).
            Constraint::Var(i) => self.push(Inst::Var(*i), false, false),
            Constraint::Native { pred, .. } => {
                self.push(Inst::Native(pred.clone()), false, false)
            }
        }
    }

    fn finish(self, ctx: &mut Context, var_roots: Vec<u32>) -> ConstraintProgram {
        let domain_base = ctx.reserve_verdict_domains(self.num_slots);
        ConstraintProgram {
            nodes: self.nodes,
            children: self.children,
            var_roots,
            domain_base,
            num_slots: self.num_slots,
        }
    }
}

// ---------------------------------------------------------------------------
// Scratch state
// ---------------------------------------------------------------------------

/// Reusable evaluation scratch: variable bindings with a rollback trail,
/// plus segment-resolution buffers. One instance serves any number of
/// verifications; nothing is reallocated once the buffers have grown to
/// their steady-state sizes.
#[derive(Default)]
pub struct EvalScratch {
    bindings: Vec<Option<CVal>>,
    /// Variables bound since the last mark, for `AnyOf`/`Not` rollback.
    trail: Vec<u32>,
    seg_sizes: Vec<usize>,
    seg_explicit: Vec<i64>,
}

impl EvalScratch {
    /// Creates empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, num_vars: usize) {
        self.bindings.clear();
        self.bindings.resize(num_vars, None);
        self.trail.clear();
    }

    fn binding(&self, i: u32) -> Option<CVal> {
        self.bindings.get(i as usize).copied().flatten()
    }

    fn bind(&mut self, i: u32, val: CVal) {
        if i as usize >= self.bindings.len() {
            self.bindings.resize(i as usize + 1, None);
        }
        self.bindings[i as usize] = Some(val);
        self.trail.push(i);
    }

    fn mark(&self) -> usize {
        self.trail.len()
    }

    fn rollback(&mut self, mark: usize) {
        // Variables only bind while unbound, so undoing is clearing.
        for &i in &self.trail[mark..] {
            self.bindings[i as usize] = None;
        }
        self.trail.truncate(mark);
    }
}

// ---------------------------------------------------------------------------
// Per-op programs
// ---------------------------------------------------------------------------

struct RegionProgram {
    /// Entry-block argument constraint roots (`None` = unconstrained).
    arg_roots: Option<Vec<u32>>,
    arg_variadicity: Vec<Variadicity>,
    terminator: Option<OpName>,
}

/// The fast-path form of a [`CompiledOp`]: every constraint lowered into
/// one [`ConstraintProgram`], with per-slot (operand/result/attribute/
/// region-argument) roots and pre-resolved variadicity tables.
pub struct OpProgram {
    program: ConstraintProgram,
    operand_roots: Vec<u32>,
    operand_variadicity: Vec<Variadicity>,
    result_roots: Vec<u32>,
    result_variadicity: Vec<Variadicity>,
    attr_roots: Vec<(Symbol, u32)>,
    regions: Vec<RegionProgram>,
    successors: Option<usize>,
    /// Pre-interned segment-attribute names, so the hot loop never hashes
    /// a string.
    operand_seg_sym: Symbol,
    result_seg_sym: Symbol,
    num_vars: usize,
}

impl OpProgram {
    /// Lowers `op` into its flat program, reserving verdict-cache domains
    /// from `ctx` for its pure subconstraints.
    pub fn build(ctx: &mut Context, op: &CompiledOp) -> OpProgram {
        let mut b = Builder::new();
        let var_roots: Vec<u32> = op.var_decls.iter().map(|d| b.lower(d)).collect();
        let operand_roots = op.operands.iter().map(|d| b.lower(&d.constraint)).collect();
        let result_roots = op.results.iter().map(|d| b.lower(&d.constraint)).collect();
        let attr_roots = op
            .attributes
            .iter()
            .map(|(key, c)| (*key, b.lower(c)))
            .collect();
        let regions = op
            .regions
            .iter()
            .map(|def: &CompiledRegion| RegionProgram {
                arg_roots: def
                    .args
                    .as_ref()
                    .map(|args| args.iter().map(|a| b.lower(&a.constraint)).collect()),
                arg_variadicity: def
                    .args
                    .as_deref()
                    .unwrap_or(&[])
                    .iter()
                    .map(|a| a.variadicity)
                    .collect(),
                terminator: def.terminator,
            })
            .collect();
        OpProgram {
            program: b.finish(ctx, var_roots),
            operand_roots,
            operand_variadicity: op.operands.iter().map(|d| d.variadicity).collect(),
            result_roots,
            result_variadicity: op.results.iter().map(|d| d.variadicity).collect(),
            attr_roots,
            regions,
            successors: op.successors,
            operand_seg_sym: ctx.symbol(OPERAND_SEGMENT_ATTR),
            result_seg_sym: ctx.symbol(RESULT_SEGMENT_ATTR),
            num_vars: op.var_decls.len(),
        }
    }

    /// Number of memoizable subconstraints (observability / tests).
    pub fn num_cache_slots(&self) -> u32 {
        self.program.num_cache_slots()
    }

    /// Fast verdict: `true` iff `op` satisfies every *declarative*
    /// invariant that [`CompiledOp::verify`] checks (constraints, counts,
    /// segments, regions, successors). Native verifiers are not consulted;
    /// the registered [`ProgramOpVerifier`] passes them in separately.
    /// Performs no heap allocation on the success path.
    pub fn check(&self, ctx: &Context, op: OpRef, scratch: &mut EvalScratch) -> bool {
        self.check_declarative(ctx, op, scratch, None)
    }

    /// [`OpProgram::check`] plus an optional native op verifier
    /// (taken from the retained [`CompiledOp`]).
    fn check_declarative(
        &self,
        ctx: &Context,
        op: OpRef,
        scratch: &mut EvalScratch,
        native: Option<&crate::native::NativeOpVerifier>,
    ) -> bool {
        scratch.reset(self.num_vars);

        // --- operands ----------------------------------------------------
        if !self.segments(
            ctx,
            op,
            op.num_operands(ctx),
            &self.operand_variadicity,
            self.operand_seg_sym,
            scratch,
        ) {
            return false;
        }
        let mut cursor = 0usize;
        for (slot, &root) in self.operand_roots.iter().enumerate() {
            let size = scratch.seg_sizes[slot];
            for k in 0..size {
                let ty = op.operands(ctx)[cursor + k].ty(ctx);
                if !self.program.eval(ctx, root, CVal::Type(ty), scratch) {
                    return false;
                }
            }
            cursor += size;
        }

        // --- results -----------------------------------------------------
        if !self.segments(
            ctx,
            op,
            op.num_results(ctx),
            &self.result_variadicity,
            self.result_seg_sym,
            scratch,
        ) {
            return false;
        }
        let mut cursor = 0usize;
        for (slot, &root) in self.result_roots.iter().enumerate() {
            let size = scratch.seg_sizes[slot];
            for k in 0..size {
                let ty = op.result_types(ctx)[cursor + k];
                if !self.program.eval(ctx, root, CVal::Type(ty), scratch) {
                    return false;
                }
            }
            cursor += size;
        }

        // --- attributes --------------------------------------------------
        for &(key, root) in &self.attr_roots {
            let Some(value) = op.attr_sym(ctx, key) else { return false };
            if !self.program.eval(ctx, root, CVal::from_attr(ctx, value), scratch) {
                return false;
            }
        }

        // --- regions -----------------------------------------------------
        if op.num_regions(ctx) != self.regions.len() {
            return false;
        }
        for (index, def) in self.regions.iter().enumerate() {
            if !self.check_region(ctx, op, index, def, scratch) {
                return false;
            }
        }

        // --- successors --------------------------------------------------
        let actual_succs = op.successors(ctx).len();
        match self.successors {
            Some(expected) if actual_succs != expected => return false,
            None if actual_succs != 0 => return false,
            _ => {}
        }

        // --- native global verifier --------------------------------------
        match native {
            Some(native) => native(ctx, op).is_ok(),
            None => true,
        }
    }

    fn check_region(
        &self,
        ctx: &Context,
        op: OpRef,
        index: usize,
        def: &RegionProgram,
        scratch: &mut EvalScratch,
    ) -> bool {
        let region = op.region(ctx, index);
        let entry = region.entry_block(ctx);
        if let Some(arg_roots) = &def.arg_roots {
            let num_args = entry.map_or(0, |b| b.arg_types(ctx).len());
            if resolve_segments_into(
                num_args,
                &def.arg_variadicity,
                None,
                &mut scratch.seg_sizes,
            )
            .is_err()
            {
                return false;
            }
            let mut cursor = 0usize;
            for (slot, &root) in arg_roots.iter().enumerate() {
                let size = scratch.seg_sizes[slot];
                for k in 0..size {
                    let ty = entry.expect("has args").arg_types(ctx)[cursor + k];
                    if !self.program.eval(ctx, root, CVal::Type(ty), scratch) {
                        return false;
                    }
                }
                cursor += size;
            }
        }
        if let Some(term) = def.terminator {
            let blocks = region.blocks(ctx);
            if blocks.len() != 1 {
                return false;
            }
            match blocks[0].last_op(ctx) {
                Some(last) => last.name(ctx) == term,
                None => false,
            }
        } else {
            true
        }
    }

    /// Resolves operand/result segment sizes into `scratch.seg_sizes`.
    /// Mirrors `CompiledOp::segments`, including reading a present
    /// segment-sizes attribute even when no definition is variadic.
    fn segments(
        &self,
        ctx: &Context,
        op: OpRef,
        total: usize,
        defs: &[Variadicity],
        seg_sym: Symbol,
        scratch: &mut EvalScratch,
    ) -> bool {
        let explicit = match op.attr_sym(ctx, seg_sym).and_then(|a| a.as_array(ctx)) {
            Some(items) => {
                scratch.seg_explicit.clear();
                scratch
                    .seg_explicit
                    .extend(items.iter().map(|a| a.as_int(ctx).unwrap_or(-1) as i64));
                true
            }
            None => false,
        };
        let explicit = explicit.then_some(scratch.seg_explicit.as_slice());
        resolve_segments_into(total, defs, explicit, &mut scratch.seg_sizes).is_ok()
    }
}

// ---------------------------------------------------------------------------
// Verifier adapters
// ---------------------------------------------------------------------------

/// The registered op verifier: flat-program fast path with lazy, tree-
/// rendered diagnostics.
///
/// The fast path computes a bare verdict with zero allocation; only when it
/// rejects does the adapter re-run the retained tree interpreter
/// ([`CompiledOp::verify`]) to produce the exact human-readable diagnostic
/// the tree path has always produced.
pub struct ProgramOpVerifier {
    compiled: Arc<CompiledOp>,
    program: OpProgram,
}

impl ProgramOpVerifier {
    /// Wraps a compiled op and its lowered program.
    pub fn new(compiled: Arc<CompiledOp>, program: OpProgram) -> Self {
        ProgramOpVerifier { compiled, program }
    }

    /// The lowered program (introspection / benchmarks).
    pub fn program(&self) -> &OpProgram {
        &self.program
    }
}

thread_local! {
    /// The calling thread's parked [`EvalScratch`] (see [`with_scratch`]).
    static PARKED_SCRATCH: Cell<Option<EvalScratch>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's parked [`EvalScratch`], parking it
/// again afterwards so the buffers are reused across verifier runs.
///
/// The scratch lives in a thread-local (not the verifier) so verifier
/// objects stay stateless and shareable across threads, and each parallel
/// verification worker reuses its own buffers without a lock. If the slot
/// is empty — first use, or a native verifier re-entered verification
/// while a run was in flight — a fresh scratch is used, which keeps
/// nesting safe.
fn with_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    let mut scratch = PARKED_SCRATCH.take().unwrap_or_default();
    let result = f(&mut scratch);
    PARKED_SCRATCH.set(Some(scratch));
    result
}

impl irdl_ir::OpVerifier for ProgramOpVerifier {
    fn verify(&self, ctx: &Context, op: OpRef) -> Result<()> {
        let ok = with_scratch(|scratch| {
            self.program.check_declarative(
                ctx,
                op,
                scratch,
                self.compiled.native_verifier.as_ref(),
            )
        });
        if ok {
            return Ok(());
        }
        // Failure boundary: only now is a diagnostic rendered.
        match self.compiled.verify(ctx, op) {
            Err(diag) => Err(diag),
            // The two paths are semantically equivalent; this arm is
            // defensive so a divergence surfaces as an error, not a pass.
            Ok(()) => Err(Diagnostic::new(format!(
                "operation `{}` rejected by the verifier fast path",
                self.compiled.name.display(ctx)
            ))),
        }
    }
}

/// The registered type/attribute parameter verifier: fast path plus lazy
/// tree-rendered diagnostics, mirroring [`ProgramOpVerifier`].
pub struct ProgramParamsVerifier {
    compiled: Arc<CompiledParams>,
    program: ConstraintProgram,
    param_roots: Vec<u32>,
}

impl ProgramParamsVerifier {
    /// Lowers `compiled`'s parameter constraints into a flat program.
    pub fn build(ctx: &mut Context, compiled: Arc<CompiledParams>) -> Self {
        let mut b = Builder::new();
        let param_roots = compiled.constraints.iter().map(|c| b.lower(c)).collect();
        ProgramParamsVerifier {
            program: b.finish(ctx, Vec::new()),
            param_roots,
            compiled,
        }
    }

    fn check(&self, ctx: &Context, params: &[Attribute], scratch: &mut EvalScratch) -> bool {
        if params.len() != self.param_roots.len() {
            return false;
        }
        scratch.reset(0);
        for (&root, &param) in self.param_roots.iter().zip(params) {
            if !self.program.eval(ctx, root, CVal::from_attr(ctx, param), scratch) {
                return false;
            }
        }
        match &self.compiled.native_verifier {
            Some(native) => native(ctx, params).is_ok(),
            None => true,
        }
    }
}

impl irdl_ir::ParamsVerifier for ProgramParamsVerifier {
    fn verify(&self, ctx: &Context, params: &[Attribute]) -> Result<()> {
        let ok = with_scratch(|scratch| self.check(ctx, params, scratch));
        if ok {
            return Ok(());
        }
        match self.compiled.verify(ctx, params) {
            Err(diag) => Err(diag),
            Ok(()) => Err(Diagnostic::new(
                "parameter list rejected by the verifier fast path",
            )),
        }
    }
}
