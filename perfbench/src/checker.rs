//! An output checker that shares no code with the allocator.
//!
//! The allocator certifies its own rounds with `lra_core::verify`,
//! which checks the *instance* the allocator saw. This checker starts
//! from the final rewritten function alone: it recomputes liveness with
//! its own backward dataflow (not `lra_ir::liveness`), visits every
//! write of every reachable block, and rejects the result if a write
//! puts a value into a register that another live value holds at that
//! moment, or if any register is not below `R`.
//!
//! Writes are what can destroy a value, so they are where a shared
//! register is an error. Two values that are live together but never
//! written on a common path do not clash: the JIT corpora read
//! temporaries on paths that never write them (the entry block may sit
//! inside a loop), and such pairs legitimately share a register.
//!
//! Semantics are the IR's: a φ reads its i-th use at the end of the
//! i-th predecessor and writes its value at block entry (all φs of a
//! block at once); an instruction writes its definition while every
//! value live after it is held; parameters are written at function
//! start. Unreachable blocks never run and are not checked.

use lra_core::driver::AllocatedFunction;
use lra_ir::{Function, Opcode};

/// A fixed-capacity bit set over value indices.
#[derive(Clone, PartialEq, Eq)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }
    fn insert(&mut self, v: usize) {
        self.0[v / 64] |= 1 << (v % 64);
    }
    fn remove(&mut self, v: usize) {
        self.0[v / 64] &= !(1 << (v % 64));
    }
    fn union(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
    fn minus(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= !b;
        }
    }
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

/// What a successful check saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Writes checked.
    pub points: usize,
    /// Values live at some checked point.
    pub live_values: usize,
    /// Of those, values that hold no register (spilled, or never
    /// assigned).
    pub unassigned: usize,
}

/// Checks the final function and assignment of one pipeline report.
pub fn check_allocated(af: &AllocatedFunction) -> Result<Verdict, String> {
    check(&af.function, |v| af.assignment.register_of(v), af.registers)
}

/// Checks that under `reg_of` no write in `f` clobbers a live value
/// and no register is at or above `r`.
pub fn check(
    f: &Function,
    reg_of: impl Fn(usize) -> Option<u32>,
    r: u32,
) -> Result<Verdict, String> {
    let nb = f.blocks.len();
    let nv = f.value_count as usize;
    let in_range = |v: usize| {
        if v < nv {
            Ok(v)
        } else {
            Err(format!("value %{v} is outside the function's {nv} values"))
        }
    };
    if f.entry.index() >= nb {
        return Err("entry block out of range".into());
    }

    // Reachability from the entry.
    let mut reachable = vec![false; nb];
    let mut stack = vec![f.entry.index()];
    reachable[f.entry.index()] = true;
    while let Some(b) = stack.pop() {
        for s in &f.blocks[b].succs {
            let s = s.index();
            if s >= nb {
                return Err(format!("block {b} jumps to missing block {s}"));
            }
            if !reachable[s] {
                reachable[s] = true;
                stack.push(s);
            }
        }
    }

    // Per-block transfer sets over the non-φ body, and φ defs.
    let mut gen = vec![Bits::new(nv); nb];
    let mut kill = vec![Bits::new(nv); nb];
    let mut phi_defs = vec![Bits::new(nv); nb];
    for b in 0..nb {
        for instr in f.blocks[b].instrs.iter().rev() {
            if instr.opcode == Opcode::Phi {
                if let Some(d) = instr.def {
                    phi_defs[b].insert(in_range(d.index())?);
                }
                continue;
            }
            if let Some(d) = instr.def {
                let d = in_range(d.index())?;
                gen[b].remove(d);
                kill[b].insert(d);
            }
            for u in &instr.uses {
                gen[b].insert(in_range(u.index())?);
            }
        }
    }
    // φ reads charged to the end of each predecessor edge.
    let mut edge_reads: Vec<Vec<(usize, Bits)>> = vec![Vec::new(); nb];
    for s in 0..nb {
        let block = &f.blocks[s];
        for instr in block.instrs.iter().filter(|i| i.opcode == Opcode::Phi) {
            if instr.uses.len() != block.preds.len() {
                return Err(format!("φ in block {s} does not match its predecessors"));
            }
            for (i, u) in instr.uses.iter().enumerate() {
                let p = block.preds[i].index();
                if p >= nb {
                    return Err(format!("block {s} names missing predecessor {p}"));
                }
                let u = in_range(u.index())?;
                match edge_reads[p].iter_mut().find(|(t, _)| *t == s) {
                    Some((_, set)) => set.insert(u),
                    None => {
                        let mut set = Bits::new(nv);
                        set.insert(u);
                        edge_reads[p].push((s, set));
                    }
                }
            }
        }
    }

    // Round-robin fixed point of
    //   body_in(b)  = gen(b) ∪ (out(b) \ kill(b))
    //   out(b)      = ∪ over successors s of (body_in(s) \ phi_defs(s))
    //                 ∪ the φ reads on edge b → s.
    let mut body_in = vec![Bits::new(nv); nb];
    let mut out = vec![Bits::new(nv); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev().filter(|&b| reachable[b]) {
            let mut o = Bits::new(nv);
            for s in &f.blocks[b].succs {
                let mut from = body_in[s.index()].clone();
                from.minus(&phi_defs[s.index()]);
                o.union(&from);
            }
            for (_, reads) in &edge_reads[b] {
                o.union(reads);
            }
            let mut i = o.clone();
            i.minus(&kill[b]);
            i.union(&gen[b]);
            if o != out[b] || i != body_in[b] {
                out[b] = o;
                body_in[b] = i;
                changed = true;
            }
        }
    }

    // Every write: instruction definitions (walking each block
    // backwards from its live-out set), the φ definitions at block
    // entry, and the parameters at function entry.
    let mut seen_live = Bits::new(nv);
    let mut points = 0usize;
    let mut check_write = |d: usize, live: &Bits, at: &dyn Fn() -> String| {
        points += 1;
        seen_live.insert(d);
        let Some(reg) = reg_of(d) else {
            live.iter().for_each(|v| seen_live.insert(v));
            return Ok(());
        };
        for v in live.iter() {
            seen_live.insert(v);
            if v != d && reg_of(v) == Some(reg) {
                return Err(format!(
                    "writing %{d} into register {reg} clobbers live %{v} ({})",
                    at()
                ));
            }
        }
        Ok(())
    };
    for b in (0..nb).filter(|&b| reachable[b]) {
        let mut live = out[b].clone();
        for (k, instr) in f.blocks[b].instrs.iter().enumerate().rev() {
            if instr.opcode == Opcode::Phi {
                continue;
            }
            if let Some(d) = instr.def {
                check_write(d.index(), &live, &|| format!("bb{b}#{k}"))?;
                live.remove(d.index());
            }
            for u in &instr.uses {
                live.insert(u.index());
            }
        }
        live.union(&phi_defs[b]);
        for d in phi_defs[b].iter() {
            check_write(d, &live, &|| format!("φ at entry of bb{b}"))?;
        }
    }
    // Parameters are written once, at function start, when nothing but
    // the other parameters holds a value.
    let entry = f.entry.index();
    let mut params = Bits::new(nv);
    for p in &f.params {
        params.insert(in_range(p.index())?);
    }
    let mut live_params = body_in[entry].clone();
    live_params.minus(&phi_defs[entry]);
    let mut written = Bits::new(nv);
    for (i, word) in written.0.iter_mut().enumerate() {
        *word = params.0[i] & live_params.0[i];
    }
    for p in written.iter() {
        check_write(p, &written, &|| "function entry".to_string())?;
    }

    // Registers must exist.
    for v in 0..nv {
        if let Some(reg) = reg_of(v) {
            if reg >= r {
                return Err(format!("%{v} holds register {reg}, but R = {r}"));
            }
        }
    }

    let live_values = seen_live.iter().count();
    let unassigned = seen_live.iter().filter(|&v| reg_of(v).is_none()).count();
    Ok(Verdict {
        points,
        live_values,
        unassigned,
    })
}

/// A 64-bit digest of a report's final function and assignment, used
/// to compare repeated runs of one function against the checked first
/// run without keeping the whole report alive.
pub fn digest(af: &AllocatedFunction) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let f = &af.function;
    put(u64::from(f.value_count));
    put(f.entry.index() as u64);
    for p in &f.params {
        put(p.index() as u64);
    }
    for block in &f.blocks {
        put(u64::MAX);
        for s in &block.succs {
            put(s.index() as u64);
        }
        for instr in &block.instrs {
            put(instr.opcode as u64);
            put(instr.def.map_or(u64::MAX - 1, |d| d.index() as u64));
            for u in &instr.uses {
                put(u.index() as u64);
            }
        }
    }
    for v in 0..f.value_count as usize {
        put(af.assignment.register_of(v).map_or(u64::MAX, u64::from));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_core::driver::AllocationPipeline;
    use lra_ir::builder::FunctionBuilder;
    use lra_targets::{Target, TargetKind};

    fn diamond() -> Function {
        // Two values live across a branch, joined by a φ.
        let mut b = FunctionBuilder::new("diamond");
        let e = b.entry_block();
        let l = b.block();
        let r = b.block();
        let j = b.block();
        b.set_succs(e, &[l, r]);
        b.set_succs(l, &[j]);
        b.set_succs(r, &[j]);
        let x = b.op(e, &[]);
        let y = b.op(e, &[x]);
        let xl = b.op(l, &[x]);
        let xr = b.op(r, &[y]);
        let m = b.phi(j, &[xl, xr]);
        b.op(j, &[m, x, y]);
        b.finish()
    }

    #[test]
    fn accepts_the_pipelines_own_assignment() {
        let f = diamond();
        let af = AllocationPipeline::new(Target::new(TargetKind::St231))
            .allocator("BFPL")
            .registers(3)
            .run(&f)
            .expect("BFPL runs on SSA");
        assert!(af.converged);
        let verdict = check_allocated(&af).expect("a converged allocation is valid");
        assert!(verdict.points > 0);
        assert_eq!(verdict.unassigned, 0);
    }

    #[test]
    fn rejects_two_interfering_values_in_one_register() {
        let f = diamond();
        let af = AllocationPipeline::new(Target::new(TargetKind::St231))
            .allocator("BFPL")
            .registers(3)
            .run(&f)
            .expect("BFPL runs on SSA");
        // %0 is live when %1 is written (both are read in the join):
        // give %1 the register of %0.
        let (x, y) = (0usize, 1usize);
        let rx = af.assignment.register_of(x).expect("x holds a register");
        let corrupted = |v: usize| {
            if v == y {
                Some(rx)
            } else {
                af.assignment.register_of(v)
            }
        };
        let err = check(&af.function, corrupted, af.registers).unwrap_err();
        assert!(err.contains("clobbers live %0"), "{err}");
    }

    #[test]
    fn rejects_a_register_at_or_above_r() {
        let f = diamond();
        let err = check(&f, |v| Some(v as u32), 2).unwrap_err();
        assert!(err.contains("R = 2"), "{err}");
    }

    #[test]
    fn unassigned_values_are_counted_not_rejected() {
        let f = diamond();
        let verdict = check(&f, |_| None, 3).expect("nothing assigned, nothing clashes");
        assert_eq!(verdict.live_values, verdict.unassigned);
        assert!(verdict.live_values >= 5);
    }

    #[test]
    fn digest_sees_assignment_changes() {
        let f = diamond();
        let mut af = AllocationPipeline::new(Target::new(TargetKind::St231))
            .allocator("BFPL")
            .registers(3)
            .run(&f)
            .expect("BFPL runs on SSA");
        let before = digest(&af);
        assert_eq!(before, digest(&af.clone()));
        af.assignment = lra_core::assign::Assignment::from_registers(vec![None; 8]);
        assert_ne!(before, digest(&af));
    }
}
