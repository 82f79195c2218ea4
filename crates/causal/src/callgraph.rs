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

/// Lists of `T` under dense keys, flat: one array of items, one of offsets,
/// both sized before the first item is placed.
#[derive(Debug)]
pub(crate) struct Lists<T> {
    /// `items[starts[k]..starts[k + 1]]` is the list of key `k`.
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Lists<T> {
    /// Files every `(key, item)` pair under its key; each list keeps the
    /// order its items have in `pairs`.
    pub(crate) fn from_pairs(keys: usize, pairs: &[(u32, T)]) -> Lists<T> {
        let mut starts = vec![0u32; keys + 1];
        let Some(&(_, filler)) = pairs.first() else {
            return Lists {
                starts,
                items: Vec::new(),
            };
        };
        for &(key, _) in pairs {
            starts[key as usize + 1] += 1;
        }
        for k in 0..keys {
            starts[k + 1] += starts[k];
        }
        // `starts[k]` walks through list `k` while it fills, and ends where
        // list `k + 1` begins: one shift puts every offset back.
        let mut items = vec![filler; pairs.len()];
        for &(key, item) in pairs {
            let at = &mut starts[key as usize];
            items[*at as usize] = item;
            *at += 1;
        }
        starts.copy_within(0..keys, 1);
        starts[0] = 0;
        Lists { starts, items }
    }

    /// The list of `key` (empty for a key past the last).
    pub(crate) fn of(&self, key: usize) -> &[T] {
        match self.starts.get(key..key + 2) {
            Some(&[start, end]) => &self.items[start as usize..end as usize],
            _ => &[],
        }
    }

    fn keys(&self) -> usize {
        self.starts.len() - 1
    }
}

/// The invocation edges of a program (`Call`, `Submit`, `Spawn`) and their
/// strongly connected components: what every interprocedural pass of this
/// crate starts from. A caller that runs several passes over one program —
/// `SearchContext::prepare` runs the exception analysis, the reachability
/// closure and the occurrence bounds — builds it once and lends it to each
/// (`analyze_over`, `build_graph_over`, `Reachability::over`,
/// `OccurrenceBounds::over`); the stand-alone entry points build their own.
#[derive(Debug)]
pub struct CallGraph {
    /// Callees per function, one entry per invoking statement.
    callees: Lists<u32>,
    pub(crate) sccs: Sccs,
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

/// One scan of the program's statements.
pub(crate) fn invocation_edges(program: &Program) -> Lists<u32> {
    let mut pairs = Vec::new();
    for (b, stmts) in program.blocks.iter().enumerate() {
        let caller = program.func_of_block(BlockId(b as u32)).0;
        for stmt in stmts {
            if let Some((callee, _)) = stmt.invocation() {
                pairs.push((caller, callee.0));
            }
        }
    }
    Lists::from_pairs(program.funcs.len(), &pairs)
}

/// The functions `roots` can reach over `callees` (themselves included).
pub(crate) fn reachable_from(
    callees: &Lists<u32>,
    roots: impl IntoIterator<Item = FuncId>,
) -> Vec<bool> {
    let mut reachable = vec![false; callees.keys()];
    let mut stack: Vec<u32> = Vec::new();
    for r in roots {
        if !reachable[r.index()] {
            reachable[r.index()] = true;
            stack.push(r.0);
        }
    }
    while let Some(f) = stack.pop() {
        for &c in callees.of(f as usize) {
            if !reachable[c as usize] {
                reachable[c as usize] = true;
                stack.push(c);
            }
        }
    }
    reachable
}

impl CallGraph {
    /// Scans the program for its invocation edges and orders them.
    pub fn build(program: &Program) -> CallGraph {
        let callees = invocation_edges(program);
        let sccs = Sccs::of(&callees);
        CallGraph { callees, sccs }
    }

    /// The functions `roots` can reach (themselves included).
    pub(crate) fn reachable_from(&self, roots: impl IntoIterator<Item = FuncId>) -> Vec<bool> {
        reachable_from(&self.callees, roots)
    }
}

impl Sccs {
    /// Tarjan's algorithm, with an explicit stack so a call chain as deep
    /// as the program is long cannot overflow ours.
    fn of(callees: &Lists<u32>) -> Sccs {
        const UNVISITED: u32 = u32::MAX;
        let n = callees.keys();
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
                if let Some(&w) = callees.of(vi).get(*next) {
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
                        sccs.cyclic[w as usize] = several || callees.of(w as usize).contains(&w);
                    }
                    sccs.starts.push(sccs.order.len());
                }
            }
        }
        sccs
    }

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

    fn graph(edges: &[&[u32]]) -> Lists<u32> {
        let pairs: Vec<(u32, u32)> = (0u32..)
            .zip(edges)
            .flat_map(|(f, callees)| callees.iter().map(move |&c| (f, c)))
            .collect();
        Lists::from_pairs(edges.len(), &pairs)
    }

    #[test]
    fn lists_keep_pair_order_under_every_key() {
        let lists = Lists::from_pairs(4, &[(2, 'a'), (0, 'b'), (2, 'c'), (3, 'd'), (2, 'e')]);
        assert_eq!(lists.of(0), ['b']);
        assert_eq!(lists.of(1), [] as [char; 0]);
        assert_eq!(lists.of(2), ['a', 'c', 'e']);
        assert_eq!(lists.of(3), ['d']);
        assert_eq!(lists.of(4), [] as [char; 0]);
        assert_eq!(Lists::<u32>::from_pairs(3, &[]).of(1), [] as [u32; 0]);
    }

    #[test]
    fn components_come_callees_first_and_cycles_are_flagged() {
        // 0 -> 1 -> 2 -> 1 (cycle 1,2), 2 -> 3, 4 -> 4 (self), 5 alone.
        let s = Sccs::of(&graph(&[&[1], &[2], &[1, 3], &[], &[4], &[]]));
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
        let pairs: Vec<(u32, u32)> = (0..n - 1).map(|f| (f, f + 1)).collect();
        let g = Lists::from_pairs(n as usize, &pairs);
        let s = Sccs::of(&g);
        assert_eq!(s.callees_first().count(), n as usize);
        assert_eq!(s.callers_first().next(), Some(0));
        assert!(reachable_from(&g, [FuncId(0)]).iter().all(|&r| r));
    }
}
