//! Symbolic output comparison (paper §3.3.1).
//!
//! The primary's outputs are recorded as symbolic formulae over the
//! program inputs; an alternate's concrete outputs *match* when the
//! number of output operations is the same and the conjunction of the
//! primary's path condition with `sym_i == conc_i` for every position is
//! satisfiable — i.e. the concrete outputs lie in the set of values the
//! primary could have produced.

use portend_symex::{Expr, SatResult, Solver};
use portend_vm::{Machine, OutputLog};

use crate::taxonomy::OutputDiffEvidence;

/// Compares a primary's (possibly symbolic) outputs against an
/// alternate's concrete outputs: `None` when the alternate's outputs
/// satisfy the primary's constraints, the evidence of a proven mismatch
/// otherwise.
///
/// A solver `Unknown` is treated as a match: Portend only reports "output
/// differs" on *proven* differences (paper §3.3.1 accepts potential false
/// negatives here). A length mismatch is always a proven difference; its
/// evidence points at the first position the logs provably diverge — a
/// differing entry within the common prefix when one exists, otherwise
/// the first extra output operation (at index `min(len)`).
pub(crate) fn symbolic_match(
    primary: &Machine,
    alternate_out: &OutputLog,
    alternate_inputs: &[i64],
    solver: &Solver,
) -> Option<OutputDiffEvidence> {
    let check = |cs: &[Expr]| solver.check_sliced(cs, &primary.vars);
    let mismatch_at = |pos| Some(evidence_at(primary, alternate_out, pos, alternate_inputs));
    let p = &primary.output;
    let n = p.len().min(alternate_out.len());

    // Pass 1 over the common prefix: locally provable differences, and
    // equality constraints for symbolic positions.
    let mut constraints: Vec<Expr> = primary.path.clone();
    for (i, (pr, ar)) in p.iter().zip(alternate_out.iter()).enumerate() {
        if pr.fd != ar.fd {
            return mismatch_at(i);
        }
        let conc = match ar.val.as_concrete() {
            Some(v) => v,
            // Alternates are concrete by construction; a symbolic value
            // here would be a harness bug — compare structurally.
            None => {
                if pr.val == ar.val {
                    continue;
                }
                return mismatch_at(i);
            }
        };
        match pr.val.as_concrete() {
            Some(v) if v == conc => continue,
            Some(_) => return mismatch_at(i),
            None => constraints.push(pr.val.to_expr().eq(Expr::konst(conc))),
        }
    }

    match check(&constraints) {
        // The common prefix is compatible: the first provable divergence
        // (if any) is the first extra output operation.
        SatResult::Sat(_) | SatResult::Unknown => {
            if p.len() == alternate_out.len() {
                None
            } else {
                mismatch_at(n)
            }
        }
        SatResult::Unsat => {
            // Locate the first position whose equality makes the system
            // unsatisfiable, for the report.
            let mut acc: Vec<Expr> = primary.path.clone();
            for (i, (pr, ar)) in p.iter().zip(alternate_out.iter()).enumerate() {
                if let (None, Some(conc)) = (pr.val.as_concrete(), ar.val.as_concrete()) {
                    acc.push(pr.val.to_expr().eq(Expr::konst(conc)));
                    if check(&acc) == SatResult::Unsat {
                        return mismatch_at(i);
                    }
                }
            }
            mismatch_at(0)
        }
    }
}

fn evidence_at(
    primary: &Machine,
    alternate_out: &OutputLog,
    pos: usize,
    alternate_inputs: &[i64],
) -> OutputDiffEvidence {
    let p = primary.output.get(pos);
    let a = alternate_out.get(pos);
    let primary_str = p
        .map(|r| match r.val.as_concrete() {
            Some(v) => v.to_string(),
            None => r.val.to_expr().display_named(&primary.vars),
        })
        .unwrap_or_else(|| "<missing>".into());
    let alternate_str = a
        .map(|r| r.val.to_string())
        .unwrap_or_else(|| "<missing>".into());
    let (primary_fd, alternate_fd) = OutputDiffEvidence::fd_pair(p, a);
    let loc = p
        .or(a)
        .map(|r| primary.program.loc(r.pc))
        .unwrap_or_default();
    OutputDiffEvidence {
        position: pos,
        primary: primary_str,
        alternate: alternate_str,
        primary_fd,
        alternate_fd,
        primary_len: primary.output.len(),
        alternate_len: alternate_out.len(),
        primary_loc: loc,
        inputs: alternate_inputs.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portend_symex::Expr;
    use portend_vm::{
        InputMode, InputSource, InputSpec, Machine, Operand, OutputRec, Pc, ProgramBuilder,
        ThreadId, Val, VmConfig,
    };
    use std::sync::Arc;

    fn machine_with_sym_output() -> Machine {
        let mut pb = ProgramBuilder::new("t", "t.c");
        let main = pb.func("main", |f| f.ret(None));
        let prog = Arc::new(pb.build(main).unwrap());
        let mut m = Machine::new(
            prog,
            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
            VmConfig::default(),
        );
        // i ≥ 0 constraint with output = i (the paper's §3.3.1 example).
        let v = m.vars.fresh("i", -100, 100);
        m.path
            .push(Expr::var(v).cmp(portend_symex::CmpOp::Ge, Expr::konst(0)));
        m.output.push(OutputRec {
            fd: 1,
            val: Val::S(Expr::var(v)),
            tid: ThreadId(0),
            pc: Pc {
                func: portend_vm::FuncId(0),
                block: portend_vm::BlockId(0),
                idx: 0,
            },
        });
        let _ = Operand::Imm(0);
        m
    }

    fn concrete_log(vals: &[i64]) -> OutputLog {
        let mut l = OutputLog::new();
        for &v in vals {
            l.push(OutputRec {
                fd: 1,
                val: Val::C(v),
                tid: ThreadId(0),
                pc: Pc {
                    func: portend_vm::FuncId(0),
                    block: portend_vm::BlockId(0),
                    idx: 0,
                },
            });
        }
        l
    }

    #[test]
    fn positive_value_satisfies_constraint() {
        let m = machine_with_sym_output();
        let solver = Solver::new();
        assert_eq!(symbolic_match(&m, &concrete_log(&[42]), &[], &solver), None);
    }

    #[test]
    fn negative_value_is_a_proven_mismatch() {
        let m = machine_with_sym_output();
        let solver = Solver::new();
        match symbolic_match(&m, &concrete_log(&[-3]), &[9], &solver) {
            Some(ev) => {
                assert_eq!(ev.position, 0);
                assert_eq!(ev.alternate, "-3");
                assert!(ev.primary.contains('i'));
                assert_eq!(ev.inputs, vec![9]);
            }
            None => panic!("a proven mismatch matched"),
        }
    }

    #[test]
    fn length_mismatch_with_matching_prefix_points_at_first_extra_op() {
        let m = machine_with_sym_output();
        let solver = Solver::new();
        match symbolic_match(&m, &concrete_log(&[1, 2]), &[], &solver) {
            Some(ev) => {
                assert_eq!(ev.position, 1, "first extra op, not a prefix entry");
                assert_eq!((ev.primary_len, ev.alternate_len), (1, 2));
                assert_eq!(ev.primary, "<missing>");
                assert_eq!(ev.alternate, "2");
            }
            None => panic!("a proven mismatch matched"),
        }
    }

    #[test]
    fn length_mismatch_with_diverging_prefix_points_at_the_divergence() {
        // Regression: the alternate's first entry (-3) already violates
        // the primary's `i >= 0` constraint, so the reported divergence
        // must be position 0 — not min(len) = 1, which is a prefix index
        // that happens to hold a matching entry in other scenarios.
        let m = machine_with_sym_output();
        let solver = Solver::new();
        match symbolic_match(&m, &concrete_log(&[-3, 7]), &[4], &solver) {
            Some(ev) => {
                assert_eq!(ev.position, 0, "divergence inside the common prefix");
                assert_eq!((ev.primary_len, ev.alternate_len), (1, 2));
                assert_eq!(ev.alternate, "-3");
                assert!(ev.primary.contains('i'));
            }
            None => panic!("a proven mismatch matched"),
        }
    }
}
