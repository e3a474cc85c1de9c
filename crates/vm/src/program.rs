//! Programs: functions, basic blocks, static allocations, sync objects.

use std::fmt;

use crate::inst::Inst;

/// Identifier of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifier of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifier of a static allocation (a global scalar or array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(pub u32);

impl fmt::Display for AllocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Identifier of a synchronization object (mutex, condvar, or barrier —
/// each kind has its own id space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SyncId(pub u32);

impl fmt::Display for SyncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A program counter: function, block, and instruction index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pc {
    /// The function.
    pub func: FuncId,
    /// The block within the function.
    pub block: BlockId,
    /// The instruction index within the block.
    pub idx: u32,
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.func, self.block, self.idx)
    }
}

/// A straight-line sequence of instructions, each with a source line for
/// debug-aid reports (paper Fig. 6 prints `file:line` locations).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasicBlock {
    /// The instructions.
    pub insts: Vec<Inst>,
    /// Source line of each instruction (parallel to `insts`).
    pub lines: Vec<u32>,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the block has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// A function: named basic blocks plus a register-file size.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (used in stack traces).
    pub name: String,
    /// The function's basic blocks; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Number of virtual registers the function uses.
    pub num_regs: u32,
}

impl Function {
    /// Total instruction count across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len).sum()
    }
}

/// A static allocation: a named global scalar (`len == 1`) or array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSpec {
    /// The allocation's name (used in race reports).
    pub name: String,
    /// Number of 64-bit cells.
    pub len: usize,
    /// Initial values; shorter than `len` is zero-extended.
    pub init: Vec<i64>,
}

/// A barrier declaration: the number of threads that must arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierSpec {
    /// The barrier's name.
    pub name: String,
    /// Party size: how many threads must arrive to release the barrier.
    pub party: u32,
}

/// An executable program. Construct with [`crate::ProgramBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (e.g. `"pbzip2"`).
    pub name: String,
    /// Pretend source file name used in reports (e.g. `"pbzip2.cpp"`).
    pub source_name: String,
    /// All functions; `FuncId` indexes here.
    pub funcs: Vec<Function>,
    /// All static allocations; `AllocId` indexes here.
    pub allocs: Vec<AllocSpec>,
    /// Mutex names; `SyncId` (mutex space) indexes here.
    pub mutexes: Vec<String>,
    /// Condition-variable names; `SyncId` (cond space) indexes here.
    pub conds: Vec<String>,
    /// Barrier declarations; `SyncId` (barrier space) indexes here.
    pub barriers: Vec<BarrierSpec>,
    /// The entry function (the initial thread starts here with arg `0`).
    pub entry: FuncId,
}

impl Program {
    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// The instruction at `pc`, or `None` past the end of a block.
    pub fn inst_at(&self, pc: Pc) -> Option<&Inst> {
        self.funcs
            .get(pc.func.0 as usize)?
            .blocks
            .get(pc.block.0 as usize)?
            .insts
            .get(pc.idx as usize)
    }

    /// The source line recorded for `pc` (0 when unknown).
    pub fn line_at(&self, pc: Pc) -> u32 {
        self.funcs
            .get(pc.func.0 as usize)
            .and_then(|f| f.blocks.get(pc.block.0 as usize))
            .and_then(|b| b.lines.get(pc.idx as usize))
            .copied()
            .unwrap_or(0)
    }

    /// A `file:line (function)` location string for reports.
    pub fn loc(&self, pc: Pc) -> String {
        let func = self
            .funcs
            .get(pc.func.0 as usize)
            .map(|f| f.name.as_str())
            .unwrap_or("?");
        format!("{}:{} ({})", self.source_name, self.line_at(pc), func)
    }

    /// Total instruction count (the "size" we report in Table 1).
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::inst_count).sum()
    }

    /// A stable content fingerprint over the whole IR: FNV-1a-64 of the
    /// program's deterministic `Debug` rendering (every function, block,
    /// instruction, allocation, and sync declaration participates).
    ///
    /// Two builds of the same program hash identically; any semantic
    /// edit — an instruction, an initial value, a barrier party size —
    /// moves the hash. The warm-store manager keys per-program solver
    /// stores on this value, so a store written for one program is
    /// rejected distinctly (never silently reused) when presented for
    /// another.
    pub fn fingerprint(&self) -> u64 {
        let rendered = format!("{self:?}");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in rendered.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Validates cross-references (block targets, register ranges,
    /// allocation and sync ids). Returns a description of the first
    /// problem found; use [`Program::validate_all`] for the full list.
    pub fn validate(&self) -> Result<(), String> {
        match self.validate_all().into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Exhaustive validation: collects **every** structural problem —
    /// out-of-range entry, zero-party barriers, empty functions, line
    /// table mismatches, per-instruction reference errors, and blocks
    /// missing a terminator — in program order, instead of stopping at
    /// the first. Empty means valid.
    pub fn validate_all(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if self.entry.0 as usize >= self.funcs.len() {
            errors.push(format!("entry {} out of range", self.entry));
        }
        for (bi, bar) in self.barriers.iter().enumerate() {
            // A zero-party barrier could never release anyone; every
            // wait on it would deadlock, so reject it up front.
            if bar.party == 0 {
                errors.push(format!("barrier {} ({}) has zero parties", bi, bar.name));
            }
        }
        for (fi, f) in self.funcs.iter().enumerate() {
            if f.blocks.is_empty() {
                errors.push(format!("function {} has no blocks", f.name));
            }
            for (bi, b) in f.blocks.iter().enumerate() {
                if b.insts.len() != b.lines.len() {
                    errors.push(format!("line table mismatch in {}:{bi}", f.name));
                }
                for (ii, inst) in b.insts.iter().enumerate() {
                    let at = || format!("{}:{bi}:{ii} `{inst}`", f.name);
                    if let Err(e) = self.validate_inst(inst, f, fi, &at) {
                        errors.push(e);
                    }
                }
                // Every block must end in a terminator to avoid running
                // off the end.
                match b.insts.last() {
                    Some(Inst::Jump { .. })
                    | Some(Inst::Branch { .. })
                    | Some(Inst::Ret { .. }) => {}
                    _ => errors.push(format!(
                        "block {}:{bi} does not end in jump/branch/ret",
                        f.name
                    )),
                }
            }
        }
        errors
    }

    fn validate_inst(
        &self,
        inst: &Inst,
        f: &Function,
        _fi: usize,
        at: &dyn Fn() -> String,
    ) -> Result<(), String> {
        use crate::inst::Operand;
        let check_reg = |r: u32| -> Result<(), String> {
            if r >= f.num_regs {
                Err(format!("register r{r} out of range at {}", at()))
            } else {
                Ok(())
            }
        };
        let check_op = |o: &Operand| -> Result<(), String> {
            match o {
                Operand::Reg(r) => check_reg(*r),
                Operand::Imm(_) => Ok(()),
            }
        };
        let check_block = |b: BlockId| -> Result<(), String> {
            if b.0 as usize >= f.blocks.len() {
                Err(format!("block {b} out of range at {}", at()))
            } else {
                Ok(())
            }
        };
        let check_alloc = |a: AllocId| -> Result<(), String> {
            if a.0 as usize >= self.allocs.len() {
                Err(format!("allocation {a} out of range at {}", at()))
            } else {
                Ok(())
            }
        };
        let check_func = |id: FuncId| -> Result<(), String> {
            if id.0 as usize >= self.funcs.len() {
                Err(format!("function {id} out of range at {}", at()))
            } else {
                Ok(())
            }
        };
        let check_sync = |s: SyncId, space: &[String]| -> Result<(), String> {
            if s.0 as usize >= space.len() {
                Err(format!("sync object {s} out of range at {}", at()))
            } else {
                Ok(())
            }
        };
        match inst {
            Inst::Const { dst, .. } => check_reg(*dst),
            Inst::Copy { dst, src } | Inst::Not { dst, src } => {
                check_reg(*dst)?;
                check_op(src)
            }
            Inst::Bin { dst, lhs, rhs, .. } | Inst::Cmp { dst, lhs, rhs, .. } => {
                check_reg(*dst)?;
                check_op(lhs)?;
                check_op(rhs)
            }
            Inst::Load { dst, base, index } => {
                check_reg(*dst)?;
                check_alloc(*base)?;
                check_op(index)
            }
            Inst::Store { base, index, src } => {
                check_alloc(*base)?;
                check_op(index)?;
                check_op(src)
            }
            Inst::Jump { target } => check_block(*target),
            Inst::Branch {
                cond,
                then_b,
                else_b,
            } => {
                check_op(cond)?;
                check_block(*then_b)?;
                check_block(*else_b)
            }
            Inst::Call { dst, func, args } => {
                if let Some(d) = dst {
                    check_reg(*d)?;
                }
                check_func(*func)?;
                args.iter().try_for_each(check_op)
            }
            Inst::Ret { value } => value.iter().try_for_each(check_op),
            Inst::Spawn { dst, func, arg } => {
                check_reg(*dst)?;
                check_func(*func)?;
                check_op(arg)
            }
            Inst::Join { tid } => check_op(tid),
            Inst::MutexLock { mutex } | Inst::MutexUnlock { mutex } => {
                check_sync(*mutex, &self.mutexes)
            }
            Inst::CondWait { cond, mutex } => {
                check_sync(*cond, &self.conds)?;
                check_sync(*mutex, &self.mutexes)
            }
            Inst::CondSignal { cond } | Inst::CondBroadcast { cond } => {
                check_sync(*cond, &self.conds)
            }
            Inst::BarrierWait { barrier } => {
                if barrier.0 as usize >= self.barriers.len() {
                    Err(format!("barrier {barrier} out of range at {}", at()))
                } else {
                    Ok(())
                }
            }
            Inst::Output { value, .. } => check_op(value),
            Inst::Input { dst } => check_reg(*dst),
            Inst::Assert { cond, .. } => check_op(cond),
            Inst::Free { base } => check_alloc(*base),
            Inst::Yield | Inst::Nop => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;

    fn tiny() -> Program {
        Program {
            name: "t".into(),
            source_name: "t.c".into(),
            funcs: vec![Function {
                name: "main".into(),
                blocks: vec![BasicBlock {
                    insts: vec![Inst::Ret { value: None }],
                    lines: vec![1],
                }],
                num_regs: 0,
            }],
            allocs: vec![],
            mutexes: vec![],
            conds: vec![],
            barriers: vec![],
            entry: FuncId(0),
        }
    }

    #[test]
    fn validate_ok() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_terminator() {
        let mut p = tiny();
        p.funcs[0].blocks[0].insts = vec![Inst::Nop];
        p.funcs[0].blocks[0].lines = vec![1];
        assert!(p.validate().unwrap_err().contains("does not end"));
    }

    #[test]
    fn validate_rejects_bad_register() {
        let mut p = tiny();
        p.funcs[0].blocks[0].insts = vec![
            Inst::Copy {
                dst: 5,
                src: Operand::Imm(0),
            },
            Inst::Ret { value: None },
        ];
        p.funcs[0].blocks[0].lines = vec![1, 1];
        assert!(p.validate().unwrap_err().contains("register"));
    }

    #[test]
    fn validate_rejects_zero_party_barrier() {
        let mut p = tiny();
        p.barriers.push(BarrierSpec {
            name: "b".into(),
            party: 0,
        });
        assert!(p.validate().unwrap_err().contains("zero parties"));
        p.barriers[0].party = 2;
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_all_collects_every_error() {
        let mut p = tiny();
        p.barriers.push(BarrierSpec {
            name: "b".into(),
            party: 0,
        });
        p.funcs[0].blocks[0].insts = vec![
            Inst::Copy {
                dst: 5,
                src: Operand::Imm(0),
            },
            Inst::Nop,
        ];
        p.funcs[0].blocks[0].lines = vec![1, 1];
        let errors = p.validate_all();
        assert_eq!(errors.len(), 3, "errors: {errors:?}");
        assert!(errors.iter().any(|e| e.contains("zero parties")));
        assert!(errors.iter().any(|e| e.contains("register")));
        assert!(errors.iter().any(|e| e.contains("does not end")));
        // `validate` reports the first of the same list.
        assert_eq!(p.validate().unwrap_err(), errors[0]);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let p = tiny();
        assert_eq!(p.fingerprint(), tiny().fingerprint(), "deterministic");
        // Any semantic edit moves the hash: an instruction, a name, an
        // allocation's initial value.
        let mut edited = tiny();
        edited.funcs[0].blocks[0].insts = vec![Inst::Nop, Inst::Ret { value: None }];
        edited.funcs[0].blocks[0].lines = vec![1, 1];
        assert_ne!(edited.fingerprint(), p.fingerprint());
        let mut renamed = tiny();
        renamed.allocs.push(AllocSpec {
            name: "g".into(),
            len: 1,
            init: vec![7],
        });
        assert_ne!(renamed.fingerprint(), p.fingerprint());
    }

    #[test]
    fn pc_display_and_loc() {
        let p = tiny();
        let pc = Pc {
            func: FuncId(0),
            block: BlockId(0),
            idx: 0,
        };
        assert_eq!(pc.to_string(), "f0:b0:0");
        assert_eq!(p.line_at(pc), 1);
        assert!(p.loc(pc).contains("t.c:1"));
        assert_eq!(p.inst_count(), 1);
    }
}
