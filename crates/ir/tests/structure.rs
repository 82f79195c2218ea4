//! Structural queries on built programs: parent maps, roles, lookups.

use anduril_ir::builder::ProgramBuilder;
use anduril_ir::expr::build as e;
use anduril_ir::{BlockRole, ExceptionPattern, ExceptionType, Level, Stmt, Value};

fn nested_program() -> anduril_ir::Program {
    let mut pb = ProgramBuilder::new("structure");
    let g = pb.global("g", Value::Int(0));
    let helper = pb.declare("helper", 1);
    let main = pb.declare("main", 0);
    pb.body(helper, |b| {
        b.ret(Some(e::add(e::var(b.param(0)), e::int(1))));
    });
    pb.body(main, |b| {
        let v = b.local();
        b.assign(v, e::int(0));
        b.while_(e::lt(e::var(v), e::int(3)), |b| {
            b.if_else(
                e::eq(e::rem(e::var(v), e::int(2)), e::int(0)),
                |b| {
                    b.try_catch(
                        |b| {
                            b.external("op", &[ExceptionType::Io]);
                        },
                        ExceptionPattern::Only(ExceptionType::Io),
                        |b| {
                            b.log(Level::Warn, "handled", vec![]);
                        },
                    );
                },
                |b| {
                    b.call_ret(helper, vec![e::var(v)], v);
                },
            );
            b.set_global(g, e::var(v));
            b.assign(v, e::add(e::var(v), e::int(1)));
        });
    });
    pb.finish().unwrap()
}

#[test]
fn block_parents_have_correct_roles() {
    let p = nested_program();
    let mut roles = std::collections::HashMap::new();
    for b in 0..p.blocks.len() {
        let parent = p.block_parent(anduril_ir::BlockId(b as u32));
        *roles
            .entry(std::mem::discriminant(&parent.role))
            .or_insert(0) += 1;
    }
    // Entry blocks: helper + main. Then/Else: one each. LoopBody: one.
    // TryBody: one. Handler: one.
    assert_eq!(
        roles[&std::mem::discriminant(&BlockRole::Entry)],
        2,
        "two function entries"
    );
    assert_eq!(roles[&std::mem::discriminant(&BlockRole::Then)], 1);
    assert_eq!(roles[&std::mem::discriminant(&BlockRole::Else)], 1);
    assert_eq!(roles[&std::mem::discriminant(&BlockRole::LoopBody)], 1);
    assert_eq!(roles[&std::mem::discriminant(&BlockRole::TryBody)], 1);
    assert_eq!(roles[&std::mem::discriminant(&BlockRole::Handler(0))], 1);
}

#[test]
fn every_statement_maps_to_its_function() {
    let p = nested_program();
    let main = p.func_named("main").unwrap();
    let helper = p.func_named("helper").unwrap();
    let mut main_stmts = 0;
    let mut helper_stmts = 0;
    for (sref, _) in p.all_stmts() {
        match p.func_of_stmt(sref) {
            f if f == main => main_stmts += 1,
            f if f == helper => helper_stmts += 1,
            other => panic!("statement in unknown function {other}"),
        }
    }
    assert!(main_stmts > helper_stmts);
    assert_eq!(helper_stmts, 1, "helper has a single return");
    assert_eq!(main_stmts + helper_stmts, p.stmt_count());
}

#[test]
fn template_lookup_by_text_and_matching() {
    let p = nested_program();
    let t = p.template_named("handled").unwrap();
    let compiled = anduril_ir::lower::compile(&p);
    assert_eq!(compiled.best_template("handled"), Some(t));
    assert!(p.template_named("no such template").is_none());
    assert!(compiled.best_template("completely unknown body").is_none());
}

#[test]
fn child_blocks_enumeration_matches_structure() {
    let p = nested_program();
    for (_, stmt) in p.all_stmts() {
        let children: Vec<_> = stmt.child_blocks().collect();
        match stmt {
            Stmt::If { else_blk, .. } => {
                assert_eq!(children.len(), 1 + usize::from(else_blk.is_some()));
            }
            Stmt::While { .. } => assert_eq!(children.len(), 1),
            Stmt::Try {
                handlers, finally, ..
            } => {
                assert_eq!(
                    children.len(),
                    1 + handlers.len() + usize::from(finally.is_some())
                );
            }
            _ => assert!(children.is_empty()),
        }
    }
}

#[test]
fn site_metadata_is_consistent() {
    let p = nested_program();
    assert_eq!(p.sites.len(), 1);
    let site = &p.sites[0];
    assert_eq!(site.desc, "op");
    assert_eq!(site.exceptions, vec![ExceptionType::Io]);
    // The site's statement lives inside a TryBody block.
    let parent = p.block_parent(site.stmt.block);
    assert_eq!(parent.role, BlockRole::TryBody);
}
