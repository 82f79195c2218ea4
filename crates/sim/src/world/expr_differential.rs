//! Differential test of expression evaluation: the VM's two compiled
//! forms (scalar trees, op runs) against the tree-walk oracle, on
//! expressions no ticket and no generated program contains.
//!
//! Seeded random `Expr` trees over a small frame — every operator, `len`,
//! indexing in and out of bounds, `rand_range` with empty and negative
//! ranges on either side of `&&` / `||`, `SelfNode`, lists inside
//! comparisons, ill-typed operands everywhere — are evaluated in every
//! position a statement has for one: stored, branched on, passed, returned
//! and rendered (and, where the value cannot be a negative tick count, slept
//! on). Both engines must produce the same run (so the
//! same value), or fail with the same error text; a draw logged after the
//! expression shows the generator was left in the same state.

use anduril_ir::builder::ProgramBuilder;
use anduril_ir::expr::build as e;
use anduril_ir::{BinOp, Expr, FuncId, GlobalId, Level, Program, Value, VarId};

use crate::{run, Engine, InjectionPlan, NodeSpec, RunResult, SimConfig, SimError, Topology};

/// xorshift64: the test's own generator, unrelated to the simulator's.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())].clone()
    }
}

/// The parameters every entry function is started with: its frame.
fn frame() -> Vec<Value> {
    vec![
        Value::Int(7),
        Value::Int(0),
        Value::Int(-3),
        Value::Bool(true),
        Value::Bool(false),
        Value::str("abc"),
        Value::List(vec![
            Value::Int(1),
            Value::str("x"),
            Value::List(vec![Value::Int(2), Value::Bool(true)]),
        ]),
        Value::Unit,
        Value::List(vec![]),
    ]
}

const INT_VARS: [u32; 3] = [0, 1, 2];
const BOOL_VARS: [u32; 2] = [3, 4];
const LIST_VARS: [u32; 2] = [6, 8];
const VARS: u32 = 9;
/// Globals, by declaration order: an int, a list, a string, a bool.
const GLOBALS: u32 = 4;
const BOUNDS: [i64; 6] = [-5, -1, 0, 3, 3, 10];
const ARITH: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Rem];
const ORDER: [BinOp; 4] = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];

fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Bin(op, Box::new(a), Box::new(b))
}

/// Typed generators, so that most trees evaluate deep — each with one
/// chance in seven of putting just anything where its type is expected.
struct Gen(Rng);

impl Gen {
    fn ill_typed(&mut self) -> bool {
        self.0.below(7) == 0
    }

    fn int(&mut self, depth: u32) -> Expr {
        if self.ill_typed() {
            return self.any(depth);
        }
        let leaf = depth == 0 || self.0.below(3) == 0;
        match self.0.below(if leaf { 4 } else { 7 }) {
            0 => e::int(self.0.pick(&[-2, 0, 1, 5, i64::MAX])),
            1 => e::var(VarId(self.0.pick(&INT_VARS))),
            2 => e::glob(GlobalId(0)),
            // Empty (`hi <= lo`) and negative ranges included.
            3 => e::rand(self.0.pick(&BOUNDS), self.0.pick(&BOUNDS)),
            4 => e::len(self.listy(depth - 1)),
            5 => e::index(self.listy(depth - 1), self.0.below(4) as u32),
            _ => {
                let op = self.0.pick(&ARITH);
                let left = self.int(depth - 1);
                // Half of the remainders are by a zero of some kind.
                let right = if op == BinOp::Rem && self.0.below(2) == 0 {
                    self.0.pick(&[e::int(0), e::var(VarId(1)), e::rand(0, 0)])
                } else {
                    self.int(depth - 1)
                };
                bin(op, left, right)
            }
        }
    }

    fn boolean(&mut self, depth: u32) -> Expr {
        if self.ill_typed() {
            return self.any(depth);
        }
        let leaf = depth == 0 || self.0.below(4) == 0;
        match self.0.below(if leaf { 3 } else { 8 }) {
            0 => e::bool_(self.0.below(2) == 0),
            1 => e::var(VarId(self.0.pick(&BOOL_VARS))),
            2 => e::glob(GlobalId(3)),
            3 => e::not(self.boolean(depth - 1)),
            4 => bin(
                self.0.pick(&ORDER),
                self.int(depth - 1),
                self.int(depth - 1),
            ),
            5 => bin(
                self.0.pick(&[BinOp::Eq, BinOp::Ne]),
                self.any(depth - 1),
                self.any(depth - 1),
            ),
            // A draw on either side: taken or skipped, it must show.
            6 => e::and(self.boolean(depth - 1), self.boolean(depth - 1)),
            _ => e::or(self.boolean(depth - 1), self.boolean(depth - 1)),
        }
    }

    /// A list or a string — what `len` takes, and (the list) an index.
    fn listy(&mut self, depth: u32) -> Expr {
        if self.ill_typed() {
            return self.any(depth);
        }
        let leaf = depth == 0 || self.0.below(2) == 0;
        match self.0.below(if leaf { 4 } else { 6 }) {
            0 => e::var(VarId(self.0.pick(&LIST_VARS))),
            1 => e::glob(GlobalId(1)),
            2 => e::var(VarId(5)),
            3 => Expr::Const(Value::List(vec![Value::Int(8), Value::Unit])),
            4 => {
                let n = self.0.below(4);
                e::list((0..n).map(|_| self.any(depth - 1)).collect())
            }
            _ => e::index(self.listy(depth - 1), self.0.below(3) as u32),
        }
    }

    fn any(&mut self, depth: u32) -> Expr {
        let depth = depth.saturating_sub(1);
        match self.0.below(9) {
            0 => self.int(depth),
            1 => self.boolean(depth),
            2 => self.listy(depth),
            3 => e::self_node(),
            4 => e::str_(self.0.pick(&["abc", "n1", ""])),
            5 => e::unit(),
            6 => e::var(VarId(self.0.below(VARS as usize) as u32)),
            7 => e::glob(GlobalId(self.0.below(GLOBALS as usize) as u32)),
            _ => e::index(self.any(depth), self.0.below(3) as u32),
        }
    }
}

/// One program per expression: an entry function for each position.
struct Positions {
    program: Program,
    stored: FuncId,
    branched_on: FuncId,
    looped_on: FuncId,
    passed_and_rendered: FuncId,
    slept_on: FuncId,
}

fn positions(expr: &Expr) -> Positions {
    let mut pb = ProgramBuilder::new("expr");
    pb.global("g_int", Value::Int(5));
    pb.global("g_list", Value::List(vec![Value::Int(4), Value::Int(9)]));
    pb.global("g_str", Value::str("n1"));
    pb.global("g_bool", Value::Bool(true));
    // The draw after the expression: were one side to draw more or fewer
    // numbers than the other, this one would differ.
    let after = |b: &mut anduril_ir::builder::BodyBuilder<'_>| {
        b.log(Level::Info, "after {}", vec![e::rand(0, 1 << 40)]);
    };

    let identity = pb.declare("identity", 1);
    pb.body(identity, |b| {
        let x = b.param(0);
        b.ret(Some(e::var(x)));
    });
    let returned = pb.declare("returned", VARS);
    pb.body(returned, |b| {
        b.ret(Some(expr.clone()));
    });

    let stored = pb.declare("stored", VARS);
    pb.body(stored, |b| {
        let out = b.local();
        b.assign(out, expr.clone());
        b.log(Level::Info, "local {}", vec![e::var(out)]);
        b.set_global(GlobalId(0), expr.clone());
        b.log(Level::Info, "global {}", vec![e::glob(GlobalId(0))]);
        after(b);
    });
    let branched_on = pb.declare("branched_on", VARS);
    pb.body(branched_on, |b| {
        b.if_else(
            expr.clone(),
            |b| {
                b.log(Level::Info, "taken", vec![]);
            },
            |b| {
                b.log(Level::Info, "not taken", vec![]);
            },
        );
        after(b);
    });
    // The whole condition of a `while`, then the right side of one.
    let looped_on = pb.declare("looped_on", VARS);
    pb.body(looped_on, |b| {
        let m = b.local();
        b.assign(m, e::int(0));
        b.while_(expr.clone(), |b| {
            b.assign(m, e::add(e::var(m), e::int(1)));
            b.if_(e::ge(e::var(m), e::int(2)), |b| {
                b.break_();
            });
        });
        let n = b.local();
        b.assign(n, e::int(0));
        b.while_(e::and(e::lt(e::var(n), e::int(2)), expr.clone()), |b| {
            b.assign(n, e::add(e::var(n), e::int(1)));
        });
        b.log(Level::Info, "looped {} {}", vec![e::var(m), e::var(n)]);
        after(b);
    });
    let passed_and_rendered = pb.declare("passed_and_rendered", VARS);
    pb.body(passed_and_rendered, |b| {
        let out = b.local();
        b.call_ret(identity, vec![expr.clone()], out);
        let params = (0..VARS).map(|v| e::var(VarId(v))).collect();
        let ret = b.local();
        b.call_ret(returned, params, ret);
        b.log(
            Level::Info,
            "passed {} returned {} rendered {} {}",
            vec![e::var(out), e::var(ret), expr.clone(), e::var(VarId(0))],
        );
        after(b);
    });
    let slept_on = pb.declare("slept_on", VARS);
    pb.body(slept_on, |b| {
        b.sleep(expr.clone());
        after(b);
    });
    Positions {
        program: pb.finish().expect("a well-formed program"),
        stored,
        branched_on,
        looped_on,
        passed_and_rendered,
        slept_on,
    }
}

fn run_with(program: &Program, main: FuncId, engine: Engine) -> Result<RunResult, SimError> {
    let topo = Topology::new(vec![NodeSpec::new("n1", main, frame())]);
    let cfg = SimConfig {
        seed: 42,
        engine,
        ..SimConfig::default()
    };
    run(program, &topo, &cfg, InjectionPlan::none())
}

/// Runs every position of `expr` (sleeping on it only if `sleep`: a
/// negative tick count is not something the scheduler takes) under both
/// engines. Returns how many positions evaluated; the others' error texts
/// go to `errors`.
fn assert_engines_agree(expr: &Expr, sleep: bool, errors: &mut Vec<String>) -> usize {
    let p = positions(expr);
    let mut ok = 0;
    for (position, main) in [
        ("stored", p.stored),
        ("branched on", p.branched_on),
        ("looped on", p.looped_on),
        ("passed and rendered", p.passed_and_rendered),
        ("slept on", p.slept_on),
    ] {
        if main == p.slept_on && !sleep {
            continue;
        }
        let vm = run_with(&p.program, main, Engine::Vm);
        let oracle = run_with(&p.program, main, Engine::TreeWalk);
        match (&vm, &oracle) {
            (Ok(vm), Ok(oracle)) => {
                assert_eq!(vm.log_text(), oracle.log_text(), "{position}: {expr:?}");
                assert!(vm.same_run(oracle), "{position}: {expr:?}");
                ok += 1;
            }
            (Err(vm), Err(oracle)) => {
                assert_eq!(vm, oracle, "{position}: {expr:?}");
                errors.push(vm.to_string());
            }
            _ => panic!(
                "{position}: {expr:?}\n  vm: {:?}\n  oracle: {:?}",
                vm.as_ref().map(RunResult::log_text),
                oracle.as_ref().map(RunResult::log_text)
            ),
        }
    }
    ok
}

#[test]
fn expr_differential_random_trees_in_every_position() {
    let mut gen = Gen(Rng(0x5EED_E4D1_FF00_0001));
    let mut errors = Vec::new();
    let mut ok = 0;
    for case in 0..1_500 {
        let depth = 1 + case % 4;
        let expr = match case % 3 {
            0 => gen.boolean(depth),
            1 => gen.int(depth),
            _ => gen.any(depth + 1),
        };
        ok += assert_engines_agree(&expr, false, &mut errors);
    }
    assert!(ok > 1_000, "most positions evaluate ({ok})");
    // Every error arm of both compiled forms was reached, and compared.
    for arm in [
        "! on non-bool",
        "expected bool, got",
        "remainder by zero",
        "on non-ints",
        "len on",
        "index on non-list",
        "out of bounds",
    ] {
        let seen = errors.iter().filter(|e| e.contains(arm)).count();
        assert!(seen > 0, "no expression failed with `{arm}`");
    }
}

/// Branch conditions that reach every arm of the VM's condition path
/// (`Scalars::cond`) and its fall-back, each with what the branch does:
/// run (`None`) or fail with an error that says the given text.
#[rustfmt::skip] // a table: one row a line
fn conditions() -> Vec<(&'static str, Expr, Option<&'static str>)> {
    let draw = || e::lt(e::rand(0, 1 << 30), e::int(1 << 29));
    let ill_typed = || e::add(e::str_("abc"), e::int(1));
    let list = |items| Expr::Const(Value::List(items));
    let (t, f, x, s) = (VarId(3), VarId(4), VarId(0), VarId(5));
    vec![
        // A right side that would draw or fail, skipped and reached.
        ("&&", e::and(e::bool_(false), draw()), None),
        ("&&", e::and(e::var(t), draw()), None),
        ("&&", e::and(e::bool_(false), ill_typed()), None),
        ("&&", e::and(e::bool_(true), ill_typed()), Some("Add on non-ints")),
        ("&&", e::and(e::var(t), e::int(1)), Some("expected bool, got Int(1)")),
        ("||", e::or(e::var(t), draw()), None),
        ("||", e::or(e::bool_(false), draw()), None),
        ("||", e::or(e::bool_(true), ill_typed()), None),
        ("||", e::or(e::var(f), ill_typed()), Some("Add on non-ints")),
        ("||", e::or(e::int(0), draw()), Some("expected bool, got Int(0)")),
        // Two ints, negative ones among them.
        ("int comparison", e::lt(e::var(VarId(2)), e::int(-1)), None),
        ("int comparison", e::le(e::int(-3), e::var(VarId(2))), None),
        ("int comparison", e::gt(e::rand(-9, -2), e::int(-5)), None),
        ("int comparison", e::ge(e::int(-5), e::glob(GlobalId(0))), None),
        ("int comparison", e::eq(e::var(VarId(2)), e::int(-3)), None),
        ("int comparison", e::ne(e::var(VarId(1)), e::int(i64::MIN)), None),
        ("int comparison", e::gt(e::len(e::var(VarId(6))), e::int(0)), None),
        ("int comparison", e::gt(e::len(e::var(VarId(8))), e::int(0)), None),
        // `==` / `!=` where an operand is no int.
        ("structural ==", e::eq(e::str_("abc"), e::var(s)), None),
        ("structural ==", e::ne(e::glob(GlobalId(2)), e::str_("n2")), None),
        ("structural ==", e::eq(e::var(t), e::bool_(true)), None),
        ("structural ==", e::ne(e::var(f), e::glob(GlobalId(3))), None),
        ("structural ==", e::eq(e::glob(GlobalId(1)), list(vec![Value::Int(4), Value::Int(9)])), None),
        ("structural ==", e::ne(e::var(VarId(8)), list(vec![])), None),
        ("structural ==", e::eq(e::unit(), e::var(VarId(7))), None),
        ("structural ==", e::eq(e::int(1), e::bool_(true)), None),
        ("structural ==", e::ne(e::str_("7"), e::var(x)), None),
        ("structural ==", e::eq(e::unit(), list(vec![])), None),
        // An order on what is no int.
        ("ordered non-ints", e::lt(e::str_("a"), e::int(1)), Some("Lt on non-ints")),
        ("ordered non-ints", e::ge(e::var(t), e::var(f)), Some("Ge on non-ints")),
        ("!", e::not(e::var(f)), None),
        ("!", e::not(e::lt(e::rand(0, 9), e::int(4))), None),
        ("!", e::not(e::int(3)), Some("! on non-bool Int(3)")),
        // Any other node: evaluated, then checked for a bool.
        ("fall-back", e::add(e::var(x), e::int(1)), Some("expected bool, got Int(8)")),
        ("fall-back", e::rand(0, 2), Some("expected bool, got Int")),
        ("fall-back", e::len(e::var(s)), Some("expected bool, got Int(3)")),
        ("fall-back", e::index(e::index(e::var(VarId(6)), 2), 1), None),
        ("fall-back", e::index(e::var(VarId(6)), 1), Some("expected bool, got Str")),
        ("fall-back", e::index(e::var(VarId(8)), 0), Some("out of bounds")),
    ]
}

/// The shapes the random trees are least likely to hit, spelled out: a draw
/// on the skipped and on the taken side of `&&` / `||` (scalar and built),
/// an empty and a negative range, a built list inside a comparison, every
/// arm of the condition path as an `if` and as a `while` condition, and a
/// tick count of every type.
#[test]
fn expr_differential_short_circuit_draws_and_tick_counts() {
    let mut arms = Vec::new();
    for (arm, expr, expect) in conditions() {
        let mut errors = Vec::new();
        assert_engines_agree(&expr, false, &mut errors);
        let p = positions(&expr);
        for main in [p.branched_on, p.looped_on] {
            let run = run_with(&p.program, main, Engine::Vm);
            match (expect, &run) {
                (None, Ok(_)) => {}
                (Some(text), Err(e)) if e.to_string().contains(text) => {}
                _ => panic!("{arm}: {expr:?} should give {expect:?}, gave {run:?}"),
            }
        }
        arms.push(arm);
    }
    arms.dedup();
    let every = [
        "&&",
        "||",
        "int comparison",
        "structural ==",
        "ordered non-ints",
        "!",
        "fall-back",
    ];
    assert_eq!(arms, every);

    let draw = || e::lt(e::rand(0, 1 << 30), e::int(1 << 29));
    let built = |x: Expr| e::eq(e::list(vec![x]), e::list(vec![e::int(1)]));
    let mut errors = Vec::new();
    for left in [e::bool_(true), e::bool_(false), draw()] {
        for right in [draw(), built(e::rand(0, 2)), e::rand(0, 2)] {
            for join in [e::and, e::or] {
                let expr = join(left.clone(), right.clone());
                // `bool && int` is an error only where the int is reached.
                let ok = assert_engines_agree(&expr, false, &mut errors);
                assert!(ok > 0 || !errors.is_empty());
            }
        }
    }
    for (lo, hi) in [(3, 3), (5, -5), (-9, -2), (i64::MIN, i64::MIN)] {
        let expr = e::add(e::rand(lo, hi), e::rand(lo, hi));
        let ok = assert_engines_agree(&expr, false, &mut errors);
        assert_eq!(ok, 2, "an int is no condition, but is everything else");
    }
    assert!(errors.iter().all(|e| e.contains("expected bool, got")));

    let mut errors = Vec::new();
    let ticks = [
        e::int(0),
        e::add(e::rand(1, 4), e::len(e::var(VarId(6)))),
        e::index(e::list(vec![e::self_node(), e::int(2)]), 1),
    ];
    for expr in &ticks {
        assert!(assert_engines_agree(expr, true, &mut errors) >= 3);
    }
    let not_ticks = [
        e::bool_(true),
        e::str_("soon"),
        e::unit(),
        e::self_node(),
        e::list(vec![e::int(1)]),
        e::lt(e::rand(0, 9), e::int(4)),
    ];
    let before = errors.len();
    for expr in &not_ticks {
        assert_engines_agree(expr, true, &mut errors);
    }
    let slept = errors[before..].iter();
    assert_eq!(
        slept.filter(|e| e.contains("expected int, got")).count(),
        not_ticks.len()
    );
}
