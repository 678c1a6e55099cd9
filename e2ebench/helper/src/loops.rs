//! An independent loop/non-loop classification of every branch, used to
//! check `BranchClassifier` and the loop predictor from outside.
//!
//! Deliberately shares no code with `bpfree-cfg`: dominators come from
//! the plain iterative data-flow equations over bitsets, a backedge is
//! an edge whose target dominates its source, a natural loop is its head
//! plus every block that reaches a backedge's tail without passing the
//! head, and an exit edge leaves some natural loop.

use bpfree_core::Direction;
use bpfree_ir::{BlockId, BranchRef, Function, Program, Terminator};

/// What the paper's definitions say about one branch site.
#[derive(Debug)]
pub struct Expected {
    pub branch: BranchRef,
    pub is_loop: bool,
    /// For a loop branch, the directions the loop predictor may choose:
    /// the backedge if exactly one edge is a backedge, else the non-exit
    /// edge if exactly one edge exits; both when the rule leaves a tie.
    pub taken_ok: bool,
    pub fallthru_ok: bool,
}

impl Expected {
    pub fn allows(&self, dir: Direction) -> bool {
        match dir {
            Direction::Taken => self.taken_ok,
            Direction::FallThru => self.fallthru_ok,
        }
    }
}

type Bits = Vec<u64>;

fn has(bits: &Bits, i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

fn set(bits: &mut Bits, i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn successors(f: &Function, b: usize) -> Vec<usize> {
    match f.blocks()[b].term {
        Terminator::Jump(t) => vec![t.index()],
        Terminator::Branch {
            taken, fallthru, ..
        } => vec![taken.index(), fallthru.index()],
        Terminator::Ret { .. } => vec![],
    }
}

/// Per-function edge facts: `back[b]` / `exit[b]` list the successors
/// of `b` reached over a backedge / a loop-exit edge.
struct EdgeFacts {
    back: Vec<Vec<usize>>,
    exit: Vec<Vec<usize>>,
}

fn edge_facts(f: &Function) -> EdgeFacts {
    let n = f.blocks().len();
    let words = n.div_ceil(64);
    let succ: Vec<Vec<usize>> = (0..n).map(|b| successors(f, b)).collect();
    let mut preds = vec![Vec::new(); n];
    for (b, ss) in succ.iter().enumerate() {
        for &s in ss {
            preds[s].push(b);
        }
    }

    let entry = f.entry().index();
    let mut reachable = vec![false; n];
    let mut stack = vec![entry];
    reachable[entry] = true;
    while let Some(b) = stack.pop() {
        for &s in &succ[b] {
            if !reachable[s] {
                reachable[s] = true;
                stack.push(s);
            }
        }
    }

    // dom(entry) = {entry}; dom(b) = {b} ∪ ⋂ dom(p) over reachable
    // predecessors, iterated to the fixed point from "all blocks".
    let full: Bits = {
        let mut v = vec![0u64; words];
        for i in 0..n {
            set(&mut v, i);
        }
        v
    };
    let mut dom: Vec<Bits> = vec![full.clone(); n];
    dom[entry] = vec![0u64; words];
    set(&mut dom[entry], entry);
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            if b == entry || !reachable[b] {
                continue;
            }
            let mut meet = full.clone();
            for &p in preds[b].iter().filter(|&&p| reachable[p]) {
                for (m, d) in meet.iter_mut().zip(&dom[p]) {
                    *m &= d;
                }
            }
            set(&mut meet, b);
            if meet != dom[b] {
                dom[b] = meet;
                changed = true;
            }
        }
    }

    let mut back = vec![Vec::new(); n];
    let mut loops: Vec<(usize, Bits)> = Vec::new();
    for b in (0..n).filter(|&b| reachable[b]) {
        for &s in &succ[b] {
            if !has(&dom[b], s) {
                continue;
            }
            back[b].push(s);
            // Natural loop of head `s` grown from tail `b`; backedges
            // into one head share one loop.
            let idx = match loops.iter().position(|(h, _)| *h == s) {
                Some(i) => i,
                None => {
                    let mut body = vec![0u64; words];
                    set(&mut body, s);
                    loops.push((s, body));
                    loops.len() - 1
                }
            };
            let body = &mut loops[idx].1;
            let mut work = vec![b];
            while let Some(x) = work.pop() {
                if has(body, x) {
                    continue;
                }
                set(body, x);
                work.extend(preds[x].iter().filter(|&&p| reachable[p]));
            }
        }
    }

    let mut exit = vec![Vec::new(); n];
    for b in (0..n).filter(|&b| reachable[b]) {
        for &s in &succ[b] {
            if loops.iter().any(|(_, body)| has(body, b) && !has(body, s)) {
                exit[b].push(s);
            }
        }
    }
    EdgeFacts { back, exit }
}

/// The expected class and loop-predictor choice of every branch site of
/// `program`, in `Program::branches` order.
pub fn expected(program: &Program) -> Vec<Expected> {
    let facts: Vec<EdgeFacts> = program
        .func_ids()
        .map(|id| edge_facts(program.func(id)))
        .collect();
    program
        .branches()
        .into_iter()
        .map(|branch| {
            let f = program.func(branch.func);
            let Terminator::Branch {
                taken, fallthru, ..
            } = f.block(branch.block).term
            else {
                unreachable!("Program::branches lists branch terminators only")
            };
            let facts = &facts[branch.func.index()];
            let b = branch.block.index();
            let is = |list: &Vec<Vec<usize>>, t: BlockId| list[b].contains(&t.index());
            let (tb, fb) = (is(&facts.back, taken), is(&facts.back, fallthru));
            let (te, fe) = (is(&facts.exit, taken), is(&facts.exit, fallthru));
            let is_loop = tb || fb || te || fe;
            let (taken_ok, fallthru_ok) = if tb != fb {
                (tb, fb)
            } else if tb {
                (true, true)
            } else if te != fe {
                (!te, !fe)
            } else {
                (true, true)
            };
            Expected {
                branch,
                is_loop,
                taken_ok,
                fallthru_ok,
            }
        })
        .collect()
}
