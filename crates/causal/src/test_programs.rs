//! Seeded random programs over call graphs the bundled tickets do not have,
//! for comparing an interprocedural pass with its reference.
//!
//! A [`Shape`] fixes the call graph (who invokes whom, and how); everything
//! else — loop bounds, guards, `try` nesting, fault sites, arguments — is
//! drawn from the generator.

use anduril_ir::builder::{BodyBuilder, ProgramBuilder};
use anduril_ir::expr::build as e;
use anduril_ir::{ExceptionPattern, ExceptionType, Expr, FuncId, Level, Program, Value};

use crate::RootCall;

/// SplitMix64.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Invoke {
    Call,
    Submit,
    Spawn,
}

/// A call graph over functions `0..funcs`, every function taking one
/// parameter.
#[derive(Debug)]
pub(crate) struct Shape {
    pub(crate) name: &'static str,
    pub(crate) funcs: usize,
    pub(crate) edges: Vec<(usize, Invoke, usize)>,
    /// `(entry function, its argument)`.
    pub(crate) roots: Vec<(usize, i64)>,
}

/// The shapes the oracles run over.
pub(crate) fn shapes() -> Vec<Shape> {
    use Invoke::{Call, Spawn, Submit};
    // A diamond DAG six calls deep: two functions a layer, each calling
    // both of the next layer, so the bottom is reached along 2^6 paths.
    let mut diamond = vec![(0, Call, 1), (0, Call, 2)];
    for layer in 0..5 {
        let (a, b) = (1 + 2 * layer, 2 + 2 * layer);
        for from in [a, b] {
            diamond.push((from, Call, a + 2));
            diamond.push((from, Call, b + 2));
        }
    }
    vec![
        Shape {
            name: "self-recursion",
            funcs: 3,
            edges: vec![(0, Call, 1), (1, Call, 1), (1, Call, 2)],
            roots: vec![(0, 3)],
        },
        Shape {
            name: "mutual recursion",
            funcs: 4,
            edges: vec![(0, Call, 1), (1, Call, 2), (2, Call, 1), (2, Call, 3)],
            roots: vec![(0, 2)],
        },
        Shape {
            name: "a cycle reachable only through submit and spawn",
            funcs: 5,
            edges: vec![
                (0, Spawn, 1),
                (1, Call, 2),
                (2, Submit, 1),
                (0, Submit, 3),
                (3, Call, 4),
            ],
            roots: vec![(0, 4)],
        },
        Shape {
            name: "diamond six calls deep",
            funcs: 13,
            edges: diamond,
            roots: vec![(0, 2)],
        },
        Shape {
            name: "one function named by two roots with different arguments",
            funcs: 4,
            edges: vec![(0, Call, 2), (1, Call, 2), (2, Submit, 3), (0, Spawn, 3)],
            roots: vec![(0, 3), (0, 5), (1, 0)],
        },
        Shape {
            name: "an unreachable function that calls a reachable one",
            funcs: 4,
            edges: vec![(0, Call, 1), (2, Call, 1), (2, Call, 3), (3, Submit, 2)],
            roots: vec![(0, 1)],
        },
    ]
}

const TYPES: [ExceptionType; 4] = [
    ExceptionType::Io,
    ExceptionType::Socket,
    ExceptionType::Timeout,
    ExceptionType::Execution,
];

fn random_type(rng: &mut Rng) -> ExceptionType {
    TYPES[rng.below(TYPES.len())]
}

fn random_pattern(rng: &mut Rng) -> ExceptionPattern {
    match rng.below(4) {
        0 => ExceptionPattern::Any,
        1 => ExceptionPattern::OneOf(vec![random_type(rng), random_type(rng)]),
        _ => ExceptionPattern::Only(random_type(rng)),
    }
}

/// Builds one random program over `shape`.
pub(crate) fn build(shape: &Shape, rng: &mut Rng) -> (Program, Vec<RootCall>) {
    let mut pb = ProgramBuilder::new(shape.name);
    let exec = pb.executor("pool");
    let chan = pb.chan("inbox");
    let ids: Vec<FuncId> = (0..shape.funcs)
        .map(|i| pb.declare(&format!("f{i}"), 1))
        .collect();
    let mut site = 0;
    for (f, &id) in ids.iter().enumerate() {
        let out: Vec<(Invoke, FuncId)> = shape
            .edges
            .iter()
            .filter(|(from, _, _)| *from == f)
            .map(|&(_, how, to)| (how, ids[to]))
            .collect();
        pb.body(id, |b| {
            let param = b.param(0);
            let mut fault = |b: &mut BodyBuilder<'_>, rng: &mut Rng| {
                site += 1;
                match rng.below(3) {
                    0 => {
                        b.throw_new(&format!("new{site}"), random_type(rng));
                    }
                    1 => {
                        b.external(&format!("ext{site}"), &[random_type(rng)]);
                    }
                    _ => {
                        let types = [random_type(rng), random_type(rng)];
                        b.external(&format!("ext{site}"), &types);
                    }
                }
            };
            // Something to raise, now and then behind a handler that lets
            // part of it through again.
            for _ in 0..rng.below(3) {
                match rng.below(4) {
                    0 => fault(b, rng),
                    1 => {
                        let (pattern, again) = (random_pattern(rng), rng.below(3));
                        let mut inner = Rng(rng.next());
                        b.try_catch(
                            |b| fault(b, &mut inner),
                            pattern,
                            |b| match again {
                                0 => {
                                    b.rethrow();
                                }
                                1 => {
                                    b.throw_new("wrapped", ExceptionType::Runtime);
                                }
                                _ => {
                                    b.log(Level::Warn, "handled", vec![]);
                                }
                            },
                        );
                    }
                    2 => {
                        let v = b.local();
                        let timeout = (rng.below(2) == 0).then(|| e::int(5));
                        b.recv(chan, v, timeout);
                    }
                    _ => {
                        let mut inner = Rng(rng.next());
                        b.if_(e::gt(e::var(param), e::int(rng.below(4) as i64)), |b| {
                            fault(b, &mut inner)
                        });
                    }
                }
            }
            // The shape's invocations, each under a random wrapper.
            for (how, callee) in out {
                let arg = match rng.below(4) {
                    0 => e::int(rng.below(5) as i64),
                    1 => e::add(e::var(param), e::int(1)),
                    2 => e::rand(0, 3),
                    _ => e::var(param),
                };
                let awaited = rng.below(2) == 0;
                let timeout = (rng.below(3) == 0).then(|| e::int(7));
                let invoke = move |b: &mut BodyBuilder<'_>| match how {
                    Invoke::Call => {
                        b.call(callee, vec![arg]);
                    }
                    Invoke::Spawn => {
                        b.spawn("t", callee, vec![arg]);
                    }
                    Invoke::Submit => {
                        let fut = b.local();
                        b.submit(exec, callee, vec![arg], fut);
                        if awaited {
                            b.await_(fut, timeout, None);
                        }
                    }
                };
                match rng.below(5) {
                    0 => invoke(b),
                    1 => {
                        let bound: Expr = match rng.below(3) {
                            0 => e::var(param),
                            _ => e::int(rng.below(4) as i64),
                        };
                        let i = b.local();
                        b.assign(i, e::int(0));
                        b.while_(e::lt(e::var(i), bound), |b| {
                            invoke(b);
                            b.assign(i, e::add(e::var(i), e::int(1)));
                        });
                    }
                    2 => {
                        b.if_(e::gt(e::var(param), e::int(rng.below(5) as i64)), invoke);
                    }
                    3 => {
                        b.try_catch(invoke, random_pattern(rng), |b| {
                            b.log(Level::Warn, "invocation failed", vec![]);
                        });
                    }
                    _ => {
                        b.loop_(|b| {
                            invoke(b);
                            b.if_(e::gt(e::rand(0, 2), e::int(0)), |b| {
                                b.break_();
                            });
                        });
                    }
                }
            }
        });
    }
    let program = pb.finish().expect("generated programs are valid");
    let roots = shape
        .roots
        .iter()
        .map(|&(f, arg)| RootCall {
            func: ids[f],
            args: vec![Value::Int(arg)],
        })
        .collect();
    (program, roots)
}
