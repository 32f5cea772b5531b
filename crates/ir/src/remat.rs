//! Rematerialization: recompute cheap values instead of reloading them.
//!
//! Spill-everywhere round-trips every spilled value through memory — a
//! store after the definition, a reload before each use. For values
//! whose definition is *cheaper to re-execute than to reload* (constants
//! and constant-like address arithmetic), classical rematerialization
//! (Chaitin et al.; Briggs–Cooper–Torczon) drops the memory traffic
//! entirely: the defining instruction is cloned right before each use
//! and no spill slot is allocated at all.
//!
//! [`RematTable::compute`] classifies every value of a function with a
//! [`RematClass`] derived from its defining instruction. The class is
//! deliberately conservative for this IR:
//!
//! * exactly **one** definition across the whole function (the corpora
//!   include non-SSA functions where temporaries are redefined freely —
//!   a multi-def value has no single recomputation),
//! * the defining opcode is a plain [`Opcode::Op`] with **no operands**
//!   (a constant: its result does not depend on any register state, so
//!   the clone is valid at any program point, even when the original
//!   definition does not dominate the use),
//! * not a function parameter (parameters have no defining instruction).
//!
//! Handing a table to [`crate::spill_code::rewrite_spill_code`] makes
//! the spill rewrite remat-aware: spilled values that carry a
//! [`RematClass::Const`] tag are materialized at each use instead of
//! stored and reloaded. The rewrite keeps the table in lockstep with
//! the rewritten function's value space — a materialized clone is
//! itself rematerializable, so repeated spill rounds never accumulate
//! loads for constant values. Reloads the rewrite inserts are tagged
//! [`RematClass::Reload`]: their spill slot is written exactly once, so
//! evicting a reload in a later round re-issues the load at each use
//! instead of paying a second store-and-reload round trip (and needs no
//! callee-saved register across calls — the slot outlives them).

use crate::cfg::{Function, Instr, Opcode, Value};
use crate::spill_code::SpillStats;
use lra_graph::BitSet;

/// How a value may leave the register file when the allocator evicts
/// it, derived from its defining instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RematClass {
    /// Not rematerializable: spilling stores the value and reloads it
    /// before each use (the default for multi-def values, parameters,
    /// φs, calls, loads and any computation with live operands).
    #[default]
    Spill,
    /// A single-definition, zero-operand computation (a constant or
    /// constant address): eviction re-executes the defining instruction
    /// before each use and never touches memory.
    Const,
    /// A reload inserted by a previous spill round: its value already
    /// sits in a spill slot that is written exactly once, so eviction
    /// re-issues the load before each use — no second store, and no
    /// callee-saved register across calls (the slot outlives them).
    /// Only rewriter-created reloads get this class; an
    /// [`Opcode::Load`] in the *source* program may read mutable
    /// memory and is classified [`RematClass::Spill`] by
    /// [`RematTable::compute`].
    Reload,
}

/// Per-value rematerialization classes and recomputation templates for
/// one function. Indexed by value; see the [module docs](self) for the
/// classification rules.
///
/// # Examples
///
/// ```
/// use lra_ir::builder::FunctionBuilder;
/// use lra_ir::remat::{RematClass, RematTable};
///
/// let mut b = FunctionBuilder::new("f");
/// let e = b.entry_block();
/// let k = b.op(e, &[]);      // k = const        → Const
/// let y = b.op(e, &[k]);     // y = f(k)         → Spill
/// let f = b.finish();
/// let table = RematTable::compute(&f);
/// assert_eq!(table.class(k.index()), RematClass::Const);
/// assert_eq!(table.class(y.index()), RematClass::Spill);
/// ```
#[derive(Clone, Debug)]
pub struct RematTable {
    classes: Vec<RematClass>,
    /// The defining instruction to clone at each use, for `Const`
    /// values (`None` for `Spill`).
    templates: Vec<Option<Instr>>,
}

impl RematTable {
    /// Classifies every value of `f`.
    pub fn compute(f: &Function) -> Self {
        let nv = f.value_count as usize;
        let mut def_count = vec![0u32; nv];
        let mut def_instr: Vec<Option<Instr>> = vec![None; nv];
        for block in &f.blocks {
            for instr in &block.instrs {
                if let Some(d) = instr.def {
                    def_count[d.index()] += 1;
                    def_instr[d.index()] = Some(instr.clone());
                }
            }
        }
        let mut table = RematTable {
            classes: vec![RematClass::Spill; nv],
            templates: vec![None; nv],
        };
        for v in 0..nv {
            if def_count[v] != 1 || f.params.iter().any(|p| p.index() == v) {
                continue;
            }
            let instr = def_instr[v].take().expect("counted def");
            if instr.opcode == Opcode::Op && instr.uses.is_empty() {
                table.classes[v] = RematClass::Const;
                table.templates[v] = Some(instr);
            }
        }
        table
    }

    /// The table for a [`crate::split::SplitFunction`] derived from the
    /// function this table was computed on: every split copy inherits
    /// the class of its origin (a copy of a constant is recomputed by
    /// materializing the constant itself).
    pub fn map_split(&self, origin: &[Value]) -> Self {
        let classes: Vec<RematClass> = origin.iter().map(|o| self.classes[o.index()]).collect();
        let templates = origin
            .iter()
            .enumerate()
            .map(|(v, o)| {
                self.templates[o.index()].clone().map(|mut t| {
                    // The clone must define the split value, not the
                    // origin, so materializations stay single-def.
                    t.def = Some(Value(v as u32));
                    t
                })
            })
            .collect();
        RematTable { classes, templates }
    }

    /// The class of value `v`.
    pub fn class(&self, v: usize) -> RematClass {
        self.classes.get(v).copied().unwrap_or(RematClass::Spill)
    }

    /// `true` when evicting `v` re-executes its definition instead of
    /// spilling it.
    pub fn is_remat(&self, v: usize) -> bool {
        self.class(v) != RematClass::Spill
    }

    /// Number of values the table covers.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` when the table covers no values.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Registers `v`, the fresh value replacing one use of the spilled
    /// value `of`, and returns the instruction that defines it.
    ///
    /// A [`RematClass::Const`] or [`RematClass::Reload`] origin is
    /// re-issued: `v` inherits its class and a clone of its template.
    /// A first-time [`RematClass::Spill`] gets a reload that is itself
    /// [`RematClass::Reload`], since its slot was just written once.
    /// The insertion is counted in `stats`: re-issued loads count as
    /// loads, but the origin needs no second store.
    pub(crate) fn replacement(&mut self, v: Value, of: Value, stats: &mut SpillStats) -> Instr {
        debug_assert_eq!(v.index(), self.classes.len());
        let (class, template) = match self.class(of.index()) {
            RematClass::Spill => (
                RematClass::Reload,
                Instr::new(Opcode::Load, Some(v), vec![]),
            ),
            inherited => {
                let mut t = self.templates[of.index()]
                    .clone()
                    .expect("remat-able values carry a template");
                t.def = Some(v);
                (inherited, t)
            }
        };
        if class == RematClass::Const {
            stats.remats += 1;
        } else {
            stats.loads += 1;
        }
        self.classes.push(class);
        self.templates.push(Some(template.clone()));
        template
    }

    /// Upgrades copies that are backed by a spill slot to
    /// [`RematClass::Reload`]: a single-def [`Opcode::Copy`] holds
    /// exactly its operand's value, so once that operand has a
    /// write-once slot — it is being spilled in this round's `spilled`
    /// set, or it is itself a slot-backed [`RematClass::Reload`] value
    /// — evicting the copy may re-issue a load from the slot instead
    /// of paying a second store-and-reload round trip. The spill
    /// driver calls this after each allocation round, before costing
    /// and rewriting the round's evictions.
    ///
    /// Multi-def values (the non-SSA corpora redefine temporaries
    /// freely) and parameters are skipped on both sides of the copy:
    /// their slots are not write-once, so the slot's content at the
    /// copy's use is not guaranteed to be the copied value.
    pub fn upgrade_slot_copies(&mut self, f: &Function, spilled: &BitSet) {
        let nv = f.value_count as usize;
        let mut def_count = vec![0u8; nv];
        for block in &f.blocks {
            for instr in &block.instrs {
                if let Some(d) = instr.def {
                    def_count[d.index()] = def_count[d.index()].saturating_add(1);
                }
            }
        }
        let single = |v: usize| def_count[v] == 1 && !f.params.iter().any(|p| p.index() == v);
        // Program-order scan so copy-of-copy chains cascade forward
        // (a missed out-of-order chain link is merely a missed
        // discount, never an unsound upgrade).
        for block in &f.blocks {
            for instr in &block.instrs {
                if instr.opcode != Opcode::Copy {
                    continue;
                }
                let Some(d) = instr.def else { continue };
                let [u] = instr.uses[..] else { continue };
                if self.class(d.index()) != RematClass::Spill || !single(d.index()) {
                    continue;
                }
                let slot_backed = self.class(u.index()) == RematClass::Reload
                    || (spilled.contains(u.index())
                        && !self.is_remat(u.index())
                        && single(u.index()));
                if slot_backed {
                    self.classes[d.index()] = RematClass::Reload;
                    self.templates[d.index()] = Some(Instr::new(Opcode::Load, Some(d), vec![]));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::liveness;
    use crate::scratch::AnalysisScratch;
    use crate::spill_code::{rewrite_spill_code, SpillRewrite};

    /// The remat-aware rewrite through a fresh scratch.
    fn rewrite(f: &Function, spilled: &BitSet, t: &mut RematTable) -> SpillRewrite {
        rewrite_spill_code(f, spilled, Some(t), &mut AnalysisScratch::new())
    }

    #[test]
    fn constants_classify_as_const() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let k = b.op(e, &[]);
        let y = b.op(e, &[k]);
        let c = b.call(e, &[]);
        let f = b.finish();
        let t = RematTable::compute(&f);
        assert_eq!(t.class(k.index()), RematClass::Const);
        assert_eq!(t.class(y.index()), RematClass::Spill, "has live operands");
        assert_eq!(t.class(c.index()), RematClass::Spill, "calls have effects");
        let remat = (0..t.len())
            .filter(|&v| t.class(v) != RematClass::Spill)
            .count();
        assert_eq!(remat, 1, "only the constant rematerializes");
    }

    #[test]
    fn params_and_multi_def_values_never_remat() {
        use crate::cfg::{Block, BlockId, Function, Instr};
        // Hand-built non-SSA function: value 1 defined twice.
        let mut blocks = vec![Block::default()];
        blocks[0]
            .instrs
            .push(Instr::new(Opcode::Op, Some(Value(1)), vec![]));
        blocks[0]
            .instrs
            .push(Instr::new(Opcode::Op, Some(Value(1)), vec![]));
        blocks[0]
            .instrs
            .push(Instr::new(Opcode::Op, Some(Value(2)), vec![]));
        let mut f = Function {
            name: "nonssa".into(),
            blocks,
            entry: BlockId(0),
            value_count: 3,
            params: vec![Value(0)],
        };
        f.recompute_preds();
        let t = RematTable::compute(&f);
        assert_eq!(t.class(0), RematClass::Spill, "params are not remat");
        assert_eq!(t.class(1), RematClass::Spill, "multi-def is not remat");
        assert_eq!(t.class(2), RematClass::Const);
    }

    #[test]
    fn remat_rewrite_inserts_no_memory_traffic_for_constants() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let k = b.op(e, &[]);
        b.op(e, &[k]);
        b.op(e, &[k]);
        let f = b.finish();
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [k.index()]);
        let mut t = RematTable::compute(&f);
        let rw = rewrite(&f, &spilled, &mut t);
        assert_eq!(rw.stats.stores, 0);
        assert_eq!(rw.stats.loads, 0);
        assert_eq!(rw.stats.remats, 2);
        // Each use now reads a fresh clone of the constant.
        assert_eq!(rw.function.value_count, f.value_count + 2);
        for v in f.value_count as usize..rw.function.value_count as usize {
            assert_eq!(t.class(v), RematClass::Const, "clones stay remat-able");
        }
        assert_eq!(t.len(), rw.function.value_count as usize);
        assert!(rw.function.validate().is_ok());
    }

    #[test]
    fn non_remat_values_still_store_and_reload() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let k = b.op(e, &[]);
        let y = b.op(e, &[k]);
        b.op(e, &[y]);
        b.op(e, &[y]);
        let f = b.finish();
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [y.index()]);
        let mut t = RematTable::compute(&f);
        let rw = rewrite(&f, &spilled, &mut t);
        assert_eq!(rw.stats.stores, 1);
        assert_eq!(rw.stats.loads, 2);
        assert_eq!(rw.stats.remats, 0);

        // The remat-aware rewrite is a superset of the plain one: on a
        // spill set with no `Const` value, one round with a fresh table
        // emits exactly what the table-free rewrite emits, over random
        // SSA and JIT functions.
        use crate::genprog::{random_jit_function, random_ssa_function, JitConfig, SsaConfig};
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let f = if seed % 2 == 0 {
                random_ssa_function(&mut rng, &SsaConfig::default(), "ssa")
            } else {
                random_jit_function(&mut rng, &JitConfig::default(), "jit")
            };
            let fresh = RematTable::compute(&f);
            let spilled = BitSet::from_iter_with_capacity(
                f.value_count as usize,
                (0..f.value_count as usize)
                    .filter(|&v| fresh.class(v) != RematClass::Const && rng.gen_range(0..3) == 0),
            );
            let scratch = &mut AnalysisScratch::new();
            let plain = rewrite_spill_code(&f, &spilled, None, scratch);
            let rw = rewrite(&f, &spilled, &mut fresh.clone());
            assert_eq!(rw.function, plain.function, "seed {seed}");
            assert_eq!(rw.stats, plain.stats, "seed {seed}");
        }
    }

    #[test]
    fn phi_uses_materialize_in_the_predecessor() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let l = b.block();
        let r = b.block();
        let j = b.block();
        b.set_succs(e, &[l, r]);
        b.set_succs(l, &[j]);
        b.set_succs(r, &[j]);
        let kl = b.op(l, &[]);
        let kr = b.op(r, &[]);
        let m = b.phi(j, &[kl, kr]);
        b.op(j, &[m]);
        let f = b.finish();
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [kl.index()]);
        let mut t = RematTable::compute(&f);
        let rw = rewrite(&f, &spilled, &mut t);
        assert_eq!(rw.stats.remats, 1);
        assert_eq!(rw.stats.loads, 0);
        let last_in_l = rw.function.blocks[l.index()].instrs.last().unwrap();
        assert_eq!(last_in_l.opcode, Opcode::Op);
        assert!(last_in_l.uses.is_empty());
    }

    #[test]
    fn remat_lowers_pressure_like_spilling() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let ks: Vec<Value> = (0..5).map(|_| b.op(e, &[])).collect();
        for k in &ks {
            b.op(e, &[*k]);
        }
        let f = b.finish();
        assert_eq!(liveness::analyze(&f).max_live, 5);
        let spilled = BitSet::from_iter_with_capacity(
            f.value_count as usize,
            ks[..3].iter().map(|v| v.index()),
        );
        let mut t = RematTable::compute(&f);
        let rw = rewrite(&f, &spilled, &mut t);
        assert!(liveness::analyze(&rw.function).max_live < 5);
        assert_eq!(rw.stats.remats, 3);
    }

    #[test]
    fn respilled_reloads_reissue_without_a_second_store() {
        // Round 1 spills y, creating a reload. Round 2 evicts the
        // reload: its slot already holds the value, so the rewrite
        // re-issues the load and must not store again.
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        let y = b.op(e, &[x]);
        b.op(e, &[y]);
        let f = b.finish();
        let mut t = RematTable::compute(&f);
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [y.index()]);
        let r1 = rewrite(&f, &spilled, &mut t);
        let reload = f.value_count as usize;
        assert_eq!(t.class(reload), RematClass::Reload);
        let respill = BitSet::from_iter_with_capacity(r1.function.value_count as usize, [reload]);
        let r2 = rewrite(&r1.function, &respill, &mut t);
        assert_eq!(r2.stats.stores, 0, "slot-backed values are never re-stored");
        assert_eq!(r2.stats.loads, 1, "the eviction re-issues one load");
        // The re-issue is itself slot-backed, so round 3 behaves the same.
        assert_eq!(
            t.class(r1.function.value_count as usize),
            RematClass::Reload
        );
        assert!(r2.function.validate().is_ok());
    }

    #[test]
    fn slot_copies_upgrade_to_reload_when_their_source_spills() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let k = b.op(e, &[]);
        // `v` has an operand so it classifies as Spill: its eviction
        // really does store to a slot.
        let v = b.op(e, &[k]);
        let s = b.copy(e, v); // single-def copy of v
        b.op(e, &[s]);
        b.op(e, &[v]);
        let f = b.finish();
        let mut t = RematTable::compute(&f);
        assert_eq!(t.class(s.index()), RematClass::Spill);
        // v gains a write-once slot this round: s holds exactly that
        // slot's content, so evicting s may re-load it.
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [v.index()]);
        t.upgrade_slot_copies(&f, &spilled);
        assert_eq!(t.class(s.index()), RematClass::Reload);
        // The upgraded template re-issues a load defining s.
        let rw = rewrite(
            &f,
            &BitSet::from_iter_with_capacity(f.value_count as usize, [v.index(), s.index()]),
            &mut t,
        );
        assert_eq!(rw.stats.stores, 1, "only v is stored");
        assert!(rw.function.validate().is_ok());
    }

    #[test]
    fn slot_copy_upgrades_skip_params_and_multi_def_values() {
        use crate::cfg::{Block, BlockId, Function, Instr};
        // Hand-built non-SSA function: value 1 is defined twice, value
        // 0 is a parameter; copies of both must keep their Spill class
        // (their slots are not write-once).
        let mut blocks = vec![Block::default()];
        blocks[0]
            .instrs
            .push(Instr::new(Opcode::Op, Some(Value(1)), vec![]));
        blocks[0]
            .instrs
            .push(Instr::new(Opcode::Op, Some(Value(1)), vec![]));
        blocks[0]
            .instrs
            .push(Instr::new(Opcode::Copy, Some(Value(2)), vec![Value(1)]));
        blocks[0]
            .instrs
            .push(Instr::new(Opcode::Copy, Some(Value(3)), vec![Value(0)]));
        blocks[0]
            .instrs
            .push(Instr::new(Opcode::Op, None, vec![Value(2), Value(3)]));
        let mut f = Function {
            name: "nonssa".into(),
            blocks,
            entry: BlockId(0),
            value_count: 4,
            params: vec![Value(0)],
        };
        f.recompute_preds();
        let mut t = RematTable::compute(&f);
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [0usize, 1usize]);
        t.upgrade_slot_copies(&f, &spilled);
        assert_eq!(
            t.class(2),
            RematClass::Spill,
            "multi-def source stays spill"
        );
        assert_eq!(t.class(3), RematClass::Spill, "param source stays spill");
    }

    #[test]
    fn split_copies_inherit_their_origin_class() {
        use crate::split::split_uses_where;
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let k = b.op(e, &[]);
        let y = b.op(e, &[k]);
        b.op(e, &[k, y]);
        let f = b.finish();
        let t = RematTable::compute(&f);
        let s = split_uses_where(&f, |_| true, &mut AnalysisScratch::new());
        let ts = t.map_split(&s.origin);
        assert_eq!(ts.len(), s.function.value_count as usize);
        for v in f.value_count as usize..s.function.value_count as usize {
            let o = s.origin[v];
            assert_eq!(ts.class(v), t.class(o.index()));
            if ts.is_remat(v) {
                // The inherited template defines the copy, not the origin.
                assert_eq!(ts.templates[v].as_ref().unwrap().def, Some(Value(v as u32)));
            }
        }
    }
}
