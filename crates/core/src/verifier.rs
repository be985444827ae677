//! Verifier synthesis: compiled operation and type/attribute verifiers.
//!
//! This module turns resolved IRDL definitions into the hook objects the IR
//! substrate evaluates — reproducing the paper's central claim that the
//! hand-written C++ verifier of Listing 2 is derivable from the declarative
//! specification of Listing 3.

use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::{Attribute, Context, OpName, OpRef, Symbol};

use crate::ast::Variadicity;
use crate::constraint::{eval, BindingEnv, CVal, Constraint};
use crate::native::{NativeOpVerifier, NativeParamsVerifier};
use crate::variadic::{resolve_segments, OPERAND_SEGMENT_ATTR, RESULT_SEGMENT_ATTR};

/// A compiled operand/result definition.
#[derive(Debug, Clone)]
pub struct CompiledArg {
    /// Declared name (used by formats and diagnostics).
    pub name: String,
    /// Element constraint.
    pub constraint: Constraint,
    /// Single / variadic / optional.
    pub variadicity: Variadicity,
}

/// A compiled region definition.
#[derive(Debug, Clone)]
pub struct CompiledRegion {
    /// Declared name.
    pub name: String,
    /// Entry-block argument constraints (`None` = unconstrained).
    pub args: Option<Vec<CompiledArg>>,
    /// Required terminator (also forces a single block).
    pub terminator: Option<OpName>,
}

/// Everything derived from one `Operation` definition.
pub struct CompiledOp {
    /// `(dialect, op)` name pair.
    pub name: OpName,
    /// Constraint-variable names, for diagnostics and formats.
    pub var_names: Vec<String>,
    /// Declared constraint of each variable.
    pub var_decls: Vec<Constraint>,
    /// Operand definitions.
    pub operands: Vec<CompiledArg>,
    /// Result definitions.
    pub results: Vec<CompiledArg>,
    /// Attribute definitions (all required).
    pub attributes: Vec<(Symbol, Constraint)>,
    /// Region definitions.
    pub regions: Vec<CompiledRegion>,
    /// `Some(n)` when the op declares `Successors` with `n` names.
    pub successors: Option<usize>,
    /// Optional native (global) verifier.
    pub native_verifier: Option<NativeOpVerifier>,
}

impl std::fmt::Debug for CompiledOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledOp")
            .field("operands", &self.operands)
            .field("results", &self.results)
            .field("attributes", &self.attributes.len())
            .field("regions", &self.regions.len())
            .field("successors", &self.successors)
            .field("has_native_verifier", &self.native_verifier.is_some())
            .finish()
    }
}

impl CompiledOp {
    /// Verifies `op`, evaluating all declarative constraints under one
    /// shared binding environment plus the native verifier, if any.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn verify(&self, ctx: &Context, op: OpRef) -> Result<()> {
        let mut env = BindingEnv::new(self.var_decls.len());

        // --- operands ----------------------------------------------------
        let operand_segments = self.segments(
            ctx,
            op,
            op.num_operands(ctx),
            &self.operands,
            OPERAND_SEGMENT_ATTR,
            "operand",
        )?;
        let operands = op.operands(ctx);
        let mut cursor = 0usize;
        for (def, size) in self.operands.iter().zip(&operand_segments) {
            for k in 0..*size {
                let value = operands[cursor + k];
                let ty = value.ty(ctx);
                eval(ctx, &def.constraint, CVal::Type(ty), &mut env, &self.var_decls)
                    .map_err(|e| {
                        Diagnostic::new(format!("operand `{}` is invalid: {e}", def.name))
                    })?;
            }
            cursor += size;
        }

        // --- results -----------------------------------------------------
        let result_segments = self.segments(
            ctx,
            op,
            op.num_results(ctx),
            &self.results,
            RESULT_SEGMENT_ATTR,
            "result",
        )?;
        let result_types = op.result_types(ctx);
        let mut cursor = 0usize;
        for (def, size) in self.results.iter().zip(&result_segments) {
            for k in 0..*size {
                let ty = result_types[cursor + k];
                eval(ctx, &def.constraint, CVal::Type(ty), &mut env, &self.var_decls)
                    .map_err(|e| {
                        Diagnostic::new(format!("result `{}` is invalid: {e}", def.name))
                    })?;
            }
            cursor += size;
        }

        // --- attributes ----------------------------------------------------
        for (key, constraint) in &self.attributes {
            let value = op.attr_sym(ctx, *key).ok_or_else(|| {
                Diagnostic::new(format!(
                    "missing required attribute `{}`",
                    ctx.symbol_str(*key)
                ))
            })?;
            eval(ctx, constraint, CVal::from_attr(ctx, value), &mut env, &self.var_decls)
                .map_err(|e| {
                    Diagnostic::new(format!(
                        "attribute `{}` is invalid: {e}",
                        ctx.symbol_str(*key)
                    ))
                })?;
        }

        // --- regions -------------------------------------------------------
        if op.num_regions(ctx) != self.regions.len() {
            return Err(Diagnostic::new(format!(
                "expected {} region(s), got {}",
                self.regions.len(),
                op.num_regions(ctx)
            )));
        }
        for (index, def) in self.regions.iter().enumerate() {
            self.verify_region(ctx, op, index, def, &mut env)?;
        }

        // --- successors ------------------------------------------------------
        match self.successors {
            Some(expected) => {
                if op.successors(ctx).len() != expected {
                    return Err(Diagnostic::new(format!(
                        "expected {expected} successor(s), got {}",
                        op.successors(ctx).len()
                    )));
                }
            }
            None => {
                if !op.successors(ctx).is_empty() {
                    return Err(Diagnostic::new(
                        "operation declares no successors but has some",
                    ));
                }
            }
        }

        // --- native global verifier -------------------------------------------
        if let Some(native) = &self.native_verifier {
            native(ctx, op)?;
        }
        Ok(())
    }

    fn segments(
        &self,
        ctx: &Context,
        op: OpRef,
        total: usize,
        defs: &[CompiledArg],
        attr_name: &str,
        what: &str,
    ) -> Result<Vec<usize>> {
        let variadicities: Vec<Variadicity> = defs.iter().map(|d| d.variadicity).collect();
        let explicit: Option<Vec<i64>> = op.attr(ctx, attr_name).and_then(|attr| {
            attr.as_array(ctx).map(|items| {
                items.iter().map(|a| a.as_int(ctx).unwrap_or(-1) as i64).collect()
            })
        });
        resolve_segments(total, &variadicities, explicit.as_deref())
            .map_err(|e| Diagnostic::new(format!("{what} count mismatch: {e}")))
    }

    fn verify_region(
        &self,
        ctx: &Context,
        op: OpRef,
        index: usize,
        def: &CompiledRegion,
        env: &mut BindingEnv,
    ) -> Result<()> {
        let region = op.region(ctx, index);
        let entry = region.entry_block(ctx);
        // Entry-block arguments.
        let arg_types: &[irdl_ir::Type] = match entry {
            Some(block) => block.arg_types(ctx),
            None => &[],
        };
        let args = def.args.as_deref().unwrap_or(&[]);
        let variadicities: Vec<Variadicity> = args.iter().map(|a| a.variadicity).collect();
        let segments = if def.args.is_some() {
            resolve_segments(arg_types.len(), &variadicities, None).map_err(|e| {
                Diagnostic::new(format!("region `{}` argument mismatch: {e}", def.name))
            })?
        } else {
            Vec::new()
        };
        let mut cursor = 0usize;
        for (arg, size) in args.iter().zip(&segments) {
            for k in 0..*size {
                let ty = arg_types[cursor + k];
                eval(ctx, &arg.constraint, CVal::Type(ty), env, &self.var_decls).map_err(
                    |e| {
                        Diagnostic::new(format!(
                            "region `{}` argument `{}` is invalid: {e}",
                            def.name, arg.name
                        ))
                    },
                )?;
            }
            cursor += size;
        }
        // Terminator requirement implies a single block.
        if let Some(term) = def.terminator {
            let blocks = region.blocks(ctx);
            if blocks.len() != 1 {
                return Err(Diagnostic::new(format!(
                    "region `{}` must consist of a single block, got {}",
                    def.name,
                    blocks.len()
                )));
            }
            let last = blocks[0].last_op(ctx).ok_or_else(|| {
                Diagnostic::new(format!(
                    "region `{}` must end with `{}`",
                    def.name,
                    term.display(ctx)
                ))
            })?;
            if last.name(ctx) != term {
                return Err(Diagnostic::new(format!(
                    "region `{}` must end with `{}`, found `{}`",
                    def.name,
                    term.display(ctx),
                    last.name(ctx).display(ctx)
                )));
            }
        }
        Ok(())
    }
}

/// A compiled type/attribute definition: parameter constraints plus an
/// optional native verifier.
pub struct CompiledParams {
    /// Parameter names, in order.
    pub names: Vec<String>,
    /// Per-parameter constraints.
    pub constraints: Vec<Constraint>,
    /// Optional native verifier over the whole parameter list.
    pub native_verifier: Option<NativeParamsVerifier>,
}

impl std::fmt::Debug for CompiledParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledParams")
            .field("names", &self.names)
            .field("constraints", &self.constraints)
            .field("has_native_verifier", &self.native_verifier.is_some())
            .finish()
    }
}

impl CompiledParams {
    /// Verifies a parameter list.
    ///
    /// # Errors
    ///
    /// Returns the first violated parameter constraint.
    pub fn verify(&self, ctx: &Context, params: &[Attribute]) -> Result<()> {
        if params.len() != self.constraints.len() {
            return Err(Diagnostic::new(format!(
                "expected {} parameter(s), got {}",
                self.constraints.len(),
                params.len()
            )));
        }
        let mut env = BindingEnv::new(0);
        for ((param, constraint), name) in
            params.iter().zip(&self.constraints).zip(&self.names)
        {
            eval(ctx, constraint, CVal::from_attr(ctx, *param), &mut env, &[])
                .map_err(|e| Diagnostic::new(format!("parameter `{name}` is invalid: {e}")))?;
        }
        if let Some(native) = &self.native_verifier {
            native(ctx, params)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irdl_ir::OperationState;

    /// Hand-builds the compiled form of cmath.mul (Listing 3) and checks it
    /// against valid and invalid operations — the behavior of Listing 2's
    /// hand-written verifier.
    #[test]
    fn mul_verifier_equivalent_to_listing2() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let f64 = ctx.f64_type();
        let cmath = ctx.symbol("cmath");
        let complex = ctx.symbol("complex");
        let f32a = ctx.type_attr(f32);
        let f64a = ctx.type_attr(f64);
        let complex_f32 = ctx.parametric_type_syms(cmath, complex, vec![f32a]).unwrap();
        let complex_f64 = ctx.parametric_type_syms(cmath, complex, vec![f64a]).unwrap();

        let float_ty = Constraint::AnyOf(vec![
            Constraint::ExactType(f32),
            Constraint::ExactType(f64),
        ]);
        let t_decl = Constraint::ParametricType {
            dialect: cmath,
            name: complex,
            params: vec![float_ty],
        };
        let compiled = CompiledOp {
            name: ctx.op_name("cmath", "mul"),
            var_names: vec!["T".into()],
            var_decls: vec![t_decl],
            operands: vec![
                CompiledArg {
                    name: "lhs".into(),
                    constraint: Constraint::Var(0),
                    variadicity: Variadicity::Single,
                },
                CompiledArg {
                    name: "rhs".into(),
                    constraint: Constraint::Var(0),
                    variadicity: Variadicity::Single,
                },
            ],
            results: vec![CompiledArg {
                name: "res".into(),
                constraint: Constraint::Var(0),
                variadicity: Variadicity::Single,
            }],
            attributes: vec![],
            regions: vec![],
            successors: None,
            native_verifier: None,
        };

        let mk = |ctx: &mut Context, tys: [irdl_ir::Type; 2], res: irdl_ir::Type| {
            let mk_name = ctx.op_name("test", "val");
            let a = ctx.create_op(OperationState::new(mk_name).add_result_types([tys[0]]));
            let b = ctx.create_op(OperationState::new(mk_name).add_result_types([tys[1]]));
            let name = ctx.op_name("cmath", "mul");
            let va = a.result(ctx, 0);
            let vb = b.result(ctx, 0);
            ctx.create_op(
                OperationState::new(name).add_operands([va, vb]).add_result_types([res]),
            )
        };

        // Valid: both operands and result are complex<f32>.
        let good = mk(&mut ctx, [complex_f32, complex_f32], complex_f32);
        assert!(compiled.verify(&ctx, good).is_ok());

        // Invalid: mixed element types.
        let mixed = mk(&mut ctx, [complex_f32, complex_f64], complex_f32);
        let err = compiled.verify(&ctx, mixed).unwrap_err();
        assert!(err.message().contains("rhs"), "{err}");

        // Invalid: result type differs.
        let bad_res = mk(&mut ctx, [complex_f32, complex_f32], complex_f64);
        assert!(compiled.verify(&ctx, bad_res).is_err());

        // Invalid: operand is not complex at all.
        let not_complex = mk(&mut ctx, [f32, f32], f32);
        assert!(compiled.verify(&ctx, not_complex).is_err());

        // Invalid: wrong operand count.
        let name = ctx.op_name("cmath", "mul");
        let one_operand = {
            let mk_name = ctx.op_name("test", "val");
            let a = ctx.create_op(OperationState::new(mk_name).add_result_types([complex_f32]));
            let va = a.result(&ctx, 0);
            ctx.create_op(
                OperationState::new(name).add_operands([va]).add_result_types([complex_f32]),
            )
        };
        let err = compiled.verify(&ctx, one_operand).unwrap_err();
        assert!(err.message().contains("operand count"), "{err}");
    }

    #[test]
    fn missing_attribute_is_reported() {
        let mut ctx = Context::new();
        let key = ctx.symbol("re");
        let compiled = CompiledOp {
            name: ctx.op_name("cmath", "create_constant"),
            var_names: vec![],
            var_decls: vec![],
            operands: vec![],
            results: vec![],
            attributes: vec![(key, Constraint::FloatAttr(Some(irdl_ir::FloatKind::F32)))],
            regions: vec![],
            successors: None,
            native_verifier: None,
        };
        let name = ctx.op_name("cmath", "create_constant");
        let without = ctx.create_op(OperationState::new(name));
        let err = compiled.verify(&ctx, without).unwrap_err();
        assert!(err.message().contains("missing required attribute"), "{err}");
        let value = ctx.f32_attr(1.0);
        let with = ctx.create_op(OperationState::new(name).add_attribute(key, value));
        assert!(compiled.verify(&ctx, with).is_ok());
        let wrong = ctx.string_attr("oops");
        let bad = ctx.create_op(OperationState::new(name).add_attribute(key, wrong));
        assert!(compiled.verify(&ctx, bad).is_err());
    }

    #[test]
    fn compiled_params_check_count_and_constraints() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let f64 = ctx.f64_type();
        let compiled = CompiledParams {
            names: vec!["elementType".into()],
            constraints: vec![Constraint::AnyOf(vec![
                Constraint::ExactType(f32),
                Constraint::ExactType(f64),
            ])],
            native_verifier: None,
        };
        let f32a = ctx.type_attr(f32);
        assert!(compiled.verify(&ctx, &[f32a]).is_ok());
        let i32 = ctx.i32_type();
        let i32a = ctx.type_attr(i32);
        let err = compiled.verify(&ctx, &[i32a]).unwrap_err();
        assert!(err.message().contains("elementType"), "{err}");
        assert!(compiled.verify(&ctx, &[]).is_err());
    }
}
