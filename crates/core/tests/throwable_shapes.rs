//! The throwables `SearchContext::prepare` reads off a failure log: the
//! shapes it skips without a panic and the two it reads.

use std::sync::Arc;

use anduril_core::{LoggedThrowable, Scenario, SearchContext};
use anduril_ir::builder::ProgramBuilder;
use anduril_ir::{ExceptionType, SiteId};
use anduril_sim::{NodeSpec, SimConfig, Topology};

#[test]
fn odd_throwable_shapes_are_skipped_and_partial_stacks_read() {
    // `main` calls `outer`, which calls `inner`; `unreached` is dead code.
    let mut pb = ProgramBuilder::new("throwable-shapes");
    let inner = pb.declare("inner", 0);
    let outer = pb.declare("outer", 0);
    let unreached = pb.declare("unreached", 0);
    let main = pb.declare("main", 0);
    let (mut inner_site, mut outer_site) = (SiteId(0), SiteId(0));
    pb.body(inner, |b| {
        inner_site = b.external("inner.op", &[ExceptionType::Io])
    });
    pb.body(outer, |b| {
        outer_site = b.external("outer.op", &[ExceptionType::Io]);
        b.call(inner, vec![]);
    });
    pb.body(unreached, |b| {
        b.external("unreached.op", &[ExceptionType::Io]);
    });
    pb.body(main, |b| {
        b.call(outer, vec![]);
    });
    let program = pb.finish().unwrap();
    let topology = Topology::new(vec![NodeSpec::new("n1", main, vec![])]);
    let scenario = Scenario {
        name: "throwable-shapes".into(),
        program: Arc::new(program),
        topology,
        config: SimConfig::default(),
    };
    let log = "\
00000001 [n1:main] INFO - an info-level throwable
IOException
\tat inner
00000002 [n1:main] WARN - an unknown class
NoSuchException
\tat inner
00000003 [n1:main] WARN - frames the program does not name
IOException
\tat java.lang.Thread.run
00000004 [n1:main] WARN - a stack with no exception line
\tat inner
00000005 [n1:main] WARN - a message suffix
IOException: disk gone
\tat inner
\tat outer
00000006 [n1:main] ERROR - a partly resolvable stack
IOException
\tat foreign.frame
\tat outer
\tat inner
00000007 [n1:main] ERROR - a frame the workload cannot reach
IOException
\tat unreached
";
    let ctx = SearchContext::prepare(scenario, log, 1_000).expect("prepare");
    let throwable = |stack, sites| LoggedThrowable {
        exc: ExceptionType::Io,
        stack,
        sites,
    };
    assert_eq!(
        ctx.throwables,
        [
            // The class before `: message`.
            throwable(vec![inner, outer], vec![inner_site]),
            // The first frame the program names is the innermost one.
            throwable(vec![outer, inner], vec![outer_site]),
            // Read, but a dead site is no candidate.
            throwable(vec![unreached], vec![]),
        ]
    );
}
