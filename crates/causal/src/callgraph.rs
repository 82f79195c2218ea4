//! The invocation call graph and the order the interprocedural passes
//! walk it in.
//!
//! Both summaries this crate propagates over calls — escaping exception
//! types, bottom-up, and invocation counts with argument ranges, top-down —
//! are fixpoints of equations that only recurse inside a strongly connected
//! component. Visiting the components in dependency order therefore lets
//! each function outside a cycle be analysed exactly once, with every
//! summary it reads already final.

use anduril_ir::{BlockId, FuncId, Program};

/// Callee lists per function over the invocation edges (`Call`, `Submit`,
/// `Spawn`), one entry per invoking statement.
#[derive(Debug)]
pub(crate) struct CallGraph {
    callees: Vec<Vec<u32>>,
}

/// The strongly connected components of a [`CallGraph`].
#[derive(Debug)]
pub(crate) struct Sccs {
    /// Every function once, grouped by component; a component comes after
    /// every component it calls into (callees first).
    order: Vec<u32>,
    /// `order[starts[c]..starts[c + 1]]` is component `c`.
    starts: Vec<usize>,
    /// `cyclic[f]` = `f` can reach itself over at least one call: its
    /// component has several members, or it calls itself.
    pub(crate) cyclic: Vec<bool>,
}

impl CallGraph {
    /// One scan of the program's statements.
    pub(crate) fn build(program: &Program) -> CallGraph {
        let mut callees = vec![Vec::new(); program.funcs.len()];
        for (b, stmts) in program.blocks.iter().enumerate() {
            let caller = program.func_of_block(BlockId(b as u32)).index();
            for stmt in stmts {
                if let Some((callee, _)) = stmt.invocation() {
                    callees[caller].push(callee.0);
                }
            }
        }
        CallGraph { callees }
    }

    /// The functions `roots` can reach (themselves included).
    pub(crate) fn reachable_from(&self, roots: impl IntoIterator<Item = FuncId>) -> Vec<bool> {
        let mut reachable = vec![false; self.callees.len()];
        let mut stack: Vec<u32> = Vec::new();
        for r in roots {
            if !reachable[r.index()] {
                reachable[r.index()] = true;
                stack.push(r.0);
            }
        }
        while let Some(f) = stack.pop() {
            for &c in &self.callees[f as usize] {
                if !reachable[c as usize] {
                    reachable[c as usize] = true;
                    stack.push(c);
                }
            }
        }
        reachable
    }

    /// Tarjan's algorithm, with an explicit stack so a call chain as deep
    /// as the program is long cannot overflow ours.
    pub(crate) fn sccs(&self) -> Sccs {
        const UNVISITED: u32 = u32::MAX;
        let n = self.callees.len();
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        // `(function, next callee to look at)`.
        let mut work: Vec<(u32, usize)> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs = Sccs {
            order: Vec::with_capacity(n),
            starts: vec![0],
            cyclic: vec![false; n],
        };
        for root in 0..n as u32 {
            if index[root as usize] != UNVISITED {
                continue;
            }
            work.push((root, 0));
            while let Some(&mut (v, ref mut next)) = work.last_mut() {
                let vi = v as usize;
                if *next == 0 {
                    index[vi] = next_index;
                    low[vi] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[vi] = true;
                }
                if let Some(&w) = self.callees[vi].get(*next) {
                    *next += 1;
                    if index[w as usize] == UNVISITED {
                        work.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[vi] = low[vi].min(index[w as usize]);
                    }
                    continue;
                }
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent as usize] = low[parent as usize].min(low[vi]);
                }
                if low[vi] == index[vi] {
                    let start = sccs.order.len();
                    loop {
                        let w = stack.pop().expect("v is on the stack");
                        on_stack[w as usize] = false;
                        sccs.order.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let several = sccs.order.len() - start > 1;
                    for &w in &sccs.order[start..] {
                        sccs.cyclic[w as usize] = several || self.callees[w as usize].contains(&w);
                    }
                    sccs.starts.push(sccs.order.len());
                }
            }
        }
        sccs
    }
}

impl Sccs {
    /// The components, callees first.
    pub(crate) fn callees_first(&self) -> impl Iterator<Item = &[u32]> {
        self.starts.windows(2).map(|w| &self.order[w[0]..w[1]])
    }

    /// Every function once, a caller before the functions it calls
    /// (members of one cycle in no particular order).
    pub(crate) fn callers_first(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().rev().map(|&f| f as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[&[u32]]) -> CallGraph {
        CallGraph {
            callees: edges.iter().map(|e| e.to_vec()).collect(),
        }
    }

    #[test]
    fn components_come_callees_first_and_cycles_are_flagged() {
        // 0 -> 1 -> 2 -> 1 (cycle 1,2), 2 -> 3, 4 -> 4 (self), 5 alone.
        let g = graph(&[&[1], &[2], &[1, 3], &[], &[4], &[]]);
        let s = g.sccs();
        assert_eq!(s.cyclic, [false, true, true, false, true, false]);
        let comps: Vec<Vec<u32>> = s
            .callees_first()
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                c
            })
            .collect();
        let pos = |f: u32| comps.iter().position(|c| c.contains(&f)).unwrap();
        assert_eq!(comps.iter().map(Vec::len).sum::<usize>(), 6);
        assert_eq!(pos(1), pos(2));
        assert!(pos(3) < pos(1) && pos(1) < pos(0));
        let callers: Vec<usize> = s.callers_first().collect();
        let at = |f: usize| callers.iter().position(|&x| x == f).unwrap();
        assert!(at(0) < at(1) && at(0) < at(2) && at(2) < at(3));
    }

    #[test]
    fn a_long_call_chain_does_not_recurse() {
        let n = 200_000u32;
        let edges: Vec<Vec<u32>> = (0..n)
            .map(|f| if f + 1 < n { vec![f + 1] } else { vec![] })
            .collect();
        let g = CallGraph { callees: edges };
        let s = g.sccs();
        assert_eq!(s.callees_first().count(), n as usize);
        assert_eq!(s.callers_first().next(), Some(0));
        assert!(g.reachable_from([FuncId(0)]).iter().all(|&r| r));
    }
}
