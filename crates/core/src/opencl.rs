//! Pretty-prints kernel ASTs as OpenCL C.
//!
//! This reproduces the textual output of the real LIFT code generator —
//! e.g. the "Generated code" column of Table I — so generated kernels can be
//! inspected, golden-tested and compared with the paper's listings. The
//! `vgpu` crate executes the same AST directly; the printed source is the
//! human-facing artifact.

use crate::kast::{KExpr, KStmt, Kernel, MemRef, MemSpace};
use crate::scalar::{Lit, UnOp};
use crate::types::ScalarKind;
use std::fmt::Write as _;

/// Prints a literal as a C token.
pub fn lit_c(l: &Lit) -> String {
    match l.kind {
        ScalarKind::F32 => {
            let v = l.value as f32;
            if v == v.trunc() && v.abs() < 1e16 {
                format!("{:.1}f", v)
            } else {
                format!("{v:?}f")
            }
        }
        ScalarKind::F64 => {
            let v = l.value;
            if v == v.trunc() && v.abs() < 1e16 {
                format!("{:.1}", v)
            } else {
                format!("{v:?}")
            }
        }
        ScalarKind::I32 => format!("{}", l.value as i32),
        ScalarKind::Bool => format!("{}", (l.value != 0.0) as i32),
        ScalarKind::Real => format!("(real){:?}", l.value),
    }
}

fn mem_name(kernel: &Kernel, m: &MemRef) -> String {
    match m {
        MemRef::Param(i) => kernel.params[*i].name.clone(),
        MemRef::Priv(n) | MemRef::Local(n) => n.clone(),
    }
}

/// Prints an expression (conservatively parenthesised).
pub fn expr_c(kernel: &Kernel, e: &KExpr) -> String {
    match e {
        KExpr::Lit(l) => lit_c(l),
        KExpr::Var(n) => n.clone(),
        KExpr::GlobalId(d) => format!("get_global_id({d})"),
        KExpr::GlobalSize(d) => format!("get_global_size({d})"),
        KExpr::LocalId(d) => format!("get_local_id({d})"),
        KExpr::LocalSize(d) => format!("get_local_size({d})"),
        KExpr::GroupId(d) => format!("get_group_id({d})"),
        KExpr::Load { mem, idx } => {
            format!("{}[{}]", mem_name(kernel, mem), expr_c(kernel, idx))
        }
        KExpr::Bin(op, a, b) => {
            format!("({} {} {})", expr_c(kernel, a), op.c_symbol(), expr_c(kernel, b))
        }
        KExpr::Un(op, a) => {
            let s = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            };
            format!("({}{})", s, expr_c(kernel, a))
        }
        KExpr::Select(c, t, f) => {
            format!("({} ? {} : {})", expr_c(kernel, c), expr_c(kernel, t), expr_c(kernel, f))
        }
        KExpr::Call(i, args) => {
            let args: Vec<String> = args.iter().map(|a| expr_c(kernel, a)).collect();
            format!("{}({})", i.c_name(), args.join(", "))
        }
        KExpr::Cast(k, a) => format!("(({}){})", k.c_name(), expr_c(kernel, a)),
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn stmt_c(kernel: &Kernel, s: &KStmt, out: &mut String, depth: usize) {
    match s {
        KStmt::DeclScalar { name, kind, init } => {
            indent(out, depth);
            match init {
                Some(e) => {
                    let _ = writeln!(out, "{} {} = {};", kind.c_name(), name, expr_c(kernel, e));
                }
                None => {
                    let _ = writeln!(out, "{} {};", kind.c_name(), name);
                }
            }
        }
        KStmt::DeclPrivArray { name, kind, len } => {
            indent(out, depth);
            let _ = writeln!(out, "{} {}[{}];", kind.c_name(), name, expr_c(kernel, len));
        }
        KStmt::DeclLocalArray { name, kind, len } => {
            indent(out, depth);
            let _ = writeln!(out, "__local {} {}[{}];", kind.c_name(), name, expr_c(kernel, len));
        }
        KStmt::Barrier => {
            indent(out, depth);
            out.push_str("barrier(CLK_LOCAL_MEM_FENCE);\n");
        }
        KStmt::Assign { name, value } => {
            indent(out, depth);
            let _ = writeln!(out, "{} = {};", name, expr_c(kernel, value));
        }
        KStmt::Store { mem, idx, value } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{}[{}] = {};",
                mem_name(kernel, mem),
                expr_c(kernel, idx),
                expr_c(kernel, value)
            );
        }
        KStmt::For { var, begin, end, step, body } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "for (int {var} = {}; {var} < {}; {var} += {}) {{",
                expr_c(kernel, begin),
                expr_c(kernel, end),
                expr_c(kernel, step)
            );
            for s in body {
                stmt_c(kernel, s, out, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        KStmt::If { cond, then_, else_ } => {
            indent(out, depth);
            let _ = writeln!(out, "if ({}) {{", expr_c(kernel, cond));
            for s in then_ {
                stmt_c(kernel, s, out, depth + 1);
            }
            if else_.is_empty() {
                indent(out, depth);
                out.push_str("}\n");
            } else {
                indent(out, depth);
                out.push_str("} else {\n");
                for s in else_ {
                    stmt_c(kernel, s, out, depth + 1);
                }
                indent(out, depth);
                out.push_str("}\n");
            }
        }
        KStmt::Return => {
            indent(out, depth);
            out.push_str("return;\n");
        }
        KStmt::Comment(c) => {
            indent(out, depth);
            let _ = writeln!(out, "// {c}");
        }
    }
}

fn kernel_uses_f64(kernel: &Kernel) -> bool {
    // Conservative: any f64 parameter, scalar or private array.
    let mut f64 = kernel.params.iter().any(|p| p.kind == ScalarKind::F64);
    for s in &kernel.body {
        s.for_each_stmt(&mut |s| {
            f64 |= matches!(
                s,
                KStmt::DeclScalar { kind: ScalarKind::F64, .. }
                    | KStmt::DeclPrivArray { kind: ScalarKind::F64, .. }
            )
        });
    }
    f64
}

/// Emits a complete OpenCL C kernel definition.
///
/// The kernel must have its `Real` scalars resolved (see
/// [`Kernel::resolve_real`]); unresolved kernels print the placeholder type
/// `real`.
pub fn emit_kernel(kernel: &Kernel) -> String {
    let mut out = String::new();
    if kernel_uses_f64(kernel) {
        out.push_str("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n\n");
    }
    let _ = write!(out, "__kernel void {}(", kernel.name);
    for (i, p) in kernel.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if p.is_buffer {
            let space = match p.space {
                MemSpace::Global => "__global",
                MemSpace::Constant => "__constant",
                MemSpace::Private => "__private",
            };
            let _ = write!(out, "{space} {}* {}", p.kind.c_name(), p.name);
        } else {
            let _ = write!(out, "{} {}", p.kind.c_name(), p.name);
        }
    }
    out.push_str(") {\n");
    for s in &kernel.body {
        stmt_c(kernel, s, &mut out, 1);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kast::{KernelParam, MemRef};
    use crate::scalar::BinOp;

    fn sample() -> Kernel {
        Kernel {
            name: "saxpy".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("y", ScalarKind::F32),
                KernelParam::scalar("a", ScalarKind::F32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![
                KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
                KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::var("a") * KExpr::load(MemRef::Param(0), KExpr::GlobalId(0))
                        + KExpr::load(MemRef::Param(1), KExpr::GlobalId(0)),
                },
            ],
            work_dim: 1,
        }
    }

    #[test]
    fn signature_and_body_print() {
        let src = emit_kernel(&sample());
        assert!(
            src.contains(
                "__kernel void saxpy(__global float* x, __global float* y, float a, int N)"
            ),
            "{src}"
        );
        assert!(src.contains("y[get_global_id(0)] ="), "{src}");
        assert!(src.contains("return;"), "{src}");
    }

    #[test]
    fn f64_kernels_enable_extension() {
        let mut k = sample();
        k.params[0].kind = ScalarKind::F64;
        let src = emit_kernel(&k);
        assert!(src.starts_with("#pragma OPENCL EXTENSION cl_khr_fp64"), "{src}");
    }

    #[test]
    fn literal_formats() {
        assert_eq!(lit_c(&Lit::f32(2.0)), "2.0f");
        assert_eq!(lit_c(&Lit::f64(0.5)), "0.5");
        assert_eq!(lit_c(&Lit::i32(-3)), "-3");
    }

    #[test]
    fn constant_space_prints_constant() {
        let mut k = sample();
        k.params[0] = KernelParam::constant_buf("beta", ScalarKind::F32);
        let src = emit_kernel(&k);
        assert!(src.contains("__constant float* beta"), "{src}");
    }

    #[test]
    fn for_loop_prints() {
        let k = Kernel {
            name: "l".into(),
            params: vec![KernelParam::global_buf("o", ScalarKind::F32)],
            body: vec![KStmt::For {
                var: "i".into(),
                begin: KExpr::int(0),
                end: KExpr::int(4),
                step: KExpr::int(1),
                body: vec![KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: KExpr::var("i"),
                    value: KExpr::real(6.0),
                }],
            }],
            work_dim: 1,
        };
        let src = emit_kernel(&k.resolve_real(ScalarKind::F32));
        assert!(src.contains("for (int i = 0; i < 4; i += 1) {"), "{src}");
        assert!(src.contains("o[i] = 6.0f;"), "{src}");
    }
}
