//! Side-effect-free expressions and builder helpers.
//!
//! Expressions read locals and per-node globals but never mutate state or
//! block; all effects (assignment, I/O, messaging) are statements. This
//! keeps the slicing analysis in `anduril-causal` simple: the variables an
//! expression *reads* are syntactically enumerable via [`Expr::reads`].

use crate::ids::{GlobalId, VarId};
use crate::value::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer remainder.
    Rem,
    /// Less-than on integers.
    Lt,
    /// Less-or-equal on integers.
    Le,
    /// Greater-than on integers.
    Gt,
    /// Greater-or-equal on integers.
    Ge,
    /// Structural equality on any values.
    Eq,
    /// Structural inequality on any values.
    Ne,
    /// Short-circuit boolean and.
    And,
    /// Short-circuit boolean or.
    Or,
}

/// A side-effect-free expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(Value),
    /// Read of a function-local variable.
    Var(VarId),
    /// Read of a per-node global variable.
    Global(GlobalId),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// Length of a list or string value.
    Len(Box<Expr>),
    /// List construction (used for message payloads / tuples).
    List(Vec<Expr>),
    /// Indexing into a list value.
    Index(Box<Expr>, u32),
    /// A deterministic pseudo-random integer in `[lo, hi)`, drawn from the
    /// simulation's seeded generator (used by workloads for timing jitter).
    RandRange(i64, i64),
    /// The name of the node evaluating the expression, as a string value.
    SelfNode,
}

impl Default for Expr {
    fn default() -> Self {
        Expr::Const(Value::Unit)
    }
}

impl Expr {
    /// Collects every local variable and global this expression reads.
    ///
    /// Used by the slicing ("jumping") analysis to find the program points
    /// that could satisfy a condition.
    pub fn reads(&self, vars: &mut Vec<VarId>, globals: &mut Vec<GlobalId>) {
        match self {
            Expr::Const(_) | Expr::RandRange(..) | Expr::SelfNode => {}
            Expr::Var(v) => vars.push(*v),
            Expr::Global(g) => globals.push(*g),
            Expr::Bin(_, a, b) => {
                a.reads(vars, globals);
                b.reads(vars, globals);
            }
            Expr::Not(a) | Expr::Len(a) => a.reads(vars, globals),
            Expr::List(items) => {
                for item in items {
                    item.reads(vars, globals);
                }
            }
            Expr::Index(a, _) => a.reads(vars, globals),
        }
    }

    /// `true` if the expression reads a global `wanted` accepts — the
    /// question [`Expr::reads`] answers through two vectors, asked without
    /// building them.
    pub fn reads_global(&self, wanted: &impl Fn(GlobalId) -> bool) -> bool {
        match self {
            Expr::Const(_) | Expr::RandRange(..) | Expr::SelfNode | Expr::Var(_) => false,
            Expr::Global(g) => wanted(*g),
            Expr::Bin(_, a, b) => a.reads_global(wanted) || b.reads_global(wanted),
            Expr::Not(a) | Expr::Len(a) | Expr::Index(a, _) => a.reads_global(wanted),
            Expr::List(items) => items.iter().any(|item| item.reads_global(wanted)),
        }
    }

    /// Convenience form of [`Expr::reads`] returning fresh vectors.
    pub fn reads_collected(&self) -> (Vec<VarId>, Vec<GlobalId>) {
        let mut vars = Vec::new();
        let mut globals = Vec::new();
        self.reads(&mut vars, &mut globals);
        (vars, globals)
    }
}

pub use build::*;

/// Convenience constructors for [`Expr`]; intended to be used as
/// `use anduril_ir::expr as e;` followed by `e::gt(e::glob(x), e::int(3))`.
pub mod build {
    use super::*;

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Const(Value::Int(v))
    }

    /// Boolean literal.
    pub fn bool_(v: bool) -> Expr {
        Expr::Const(Value::Bool(v))
    }

    /// String literal.
    pub fn str_(v: &str) -> Expr {
        Expr::Const(Value::str(v))
    }

    /// Unit literal.
    pub fn unit() -> Expr {
        Expr::Const(Value::Unit)
    }

    /// Local variable read.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Global variable read.
    pub fn glob(g: GlobalId) -> Expr {
        Expr::Global(g)
    }

    /// List-or-string length.
    pub fn len(e: Expr) -> Expr {
        Expr::Len(Box::new(e))
    }

    /// List construction.
    pub fn list(items: Vec<Expr>) -> Expr {
        Expr::List(items)
    }

    /// List indexing.
    pub fn index(e: Expr, i: u32) -> Expr {
        Expr::Index(Box::new(e), i)
    }

    /// Deterministic random integer in `[lo, hi)`.
    pub fn rand(lo: i64, hi: i64) -> Expr {
        Expr::RandRange(lo, hi)
    }

    /// The current node's name.
    pub fn self_node() -> Expr {
        Expr::SelfNode
    }

    macro_rules! binop {
        ($(#[$doc:meta])* $name:ident, $op:ident) => {
            $(#[$doc])*
            pub fn $name(a: Expr, b: Expr) -> Expr {
                Expr::Bin(BinOp::$op, Box::new(a), Box::new(b))
            }
        };
    }

    binop!(
        /// `a + b`.
        add, Add
    );
    binop!(
        /// `a - b`.
        sub, Sub
    );
    binop!(
        /// `a * b`.
        mul, Mul
    );
    binop!(
        /// `a % b`.
        rem, Rem
    );
    binop!(
        /// `a < b`.
        lt, Lt
    );
    binop!(
        /// `a <= b`.
        le, Le
    );
    binop!(
        /// `a > b`.
        gt, Gt
    );
    binop!(
        /// `a >= b`.
        ge, Ge
    );
    binop!(
        /// `a == b`.
        eq, Eq
    );
    binop!(
        /// `a != b`.
        ne, Ne
    );
    binop!(
        /// `a && b`.
        and, And
    );
    binop!(
        /// `a || b`.
        or, Or
    );

    /// `!a`.
    pub fn not(a: Expr) -> Expr {
        Expr::Not(Box::new(a))
    }
}

#[cfg(test)]
mod tests {
    use super::build as e;
    use super::*;

    #[test]
    fn reads_collects_vars_and_globals() {
        let expr = e::and(
            e::gt(e::var(VarId(1)), e::int(3)),
            e::eq(e::glob(GlobalId(2)), e::len(e::glob(GlobalId(5)))),
        );
        let mut vars = Vec::new();
        let mut globals = Vec::new();
        expr.reads(&mut vars, &mut globals);
        assert_eq!(vars, vec![VarId(1)]);
        assert_eq!(globals, vec![GlobalId(2), GlobalId(5)]);
    }

    #[test]
    fn reads_global_agrees_with_reads() {
        let expr = e::and(
            e::gt(e::var(VarId(1)), e::int(3)),
            e::eq(
                e::list(vec![e::glob(GlobalId(2))]),
                e::len(e::index(e::glob(GlobalId(5)), 0)),
            ),
        );
        let (_, globals) = expr.reads_collected();
        for g in 0..8 {
            let g = GlobalId(g);
            assert_eq!(expr.reads_global(&|x| x == g), globals.contains(&g), "{g}");
        }
    }

    #[test]
    fn constants_read_nothing() {
        let mut vars = Vec::new();
        let mut globals = Vec::new();
        e::list(vec![e::int(1), e::str_("x"), e::rand(0, 5)]).reads(&mut vars, &mut globals);
        assert!(vars.is_empty());
        assert!(globals.is_empty());
    }
}
