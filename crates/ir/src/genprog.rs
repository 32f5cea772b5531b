//! Seeded random program generators.
//!
//! The evaluation needs thousands of interference-graph instances shaped
//! like real benchmark functions. Two generators cover the paper's two
//! tracks:
//!
//! * [`random_ssa_function`] builds structured, strict-SSA functions
//!   (sequences, if-else diamonds with φs, natural loops with
//!   loop-carried φs, call sites). Their precise interference graphs
//!   are chordal — the §6.1 (Open64) setting.
//! * [`random_jit_function`] builds unstructured non-SSA functions
//!   (mutable temporaries with multiple definitions, live ranges with
//!   holes, irregular control flow). Their interference graphs are
//!   general graphs — the §6.2 (JikesRVM) setting.
//!
//! Both are deterministic given the RNG, so whole benchmark suites are
//! reproducible from a seed.

#![allow(clippy::needless_range_loop)] // parallel arrays indexed by block id

use crate::builder::FunctionBuilder;
use crate::cfg::{BlockId, Function, Opcode, Value};
use crate::dom::DomTree;
use rand::Rng;

/// Shape parameters for [`random_ssa_function`].
#[derive(Clone, Debug)]
pub struct SsaConfig {
    /// Rough number of instructions to emit.
    pub target_instrs: usize,
    /// Maximum loop-nesting depth.
    pub max_loop_depth: u32,
    /// Percent chance of opening an if-else at each structural step.
    pub branch_percent: u32,
    /// Percent chance of opening a loop at each structural step.
    pub loop_percent: u32,
    /// Percent chance that an instruction is a call.
    pub call_percent: u32,
    /// Percent chance that an instruction is a register copy (a move
    /// between two values, as copy propagation leaves behind). Zero
    /// keeps the RNG stream identical to configurations predating this
    /// knob.
    pub copy_percent: u32,
    /// Number of function parameters.
    pub params: usize,
    /// How far back an instruction may reach for operands; larger
    /// values stretch live ranges and raise MaxLive.
    pub liveness_window: usize,
}

impl Default for SsaConfig {
    fn default() -> Self {
        SsaConfig {
            target_instrs: 80,
            max_loop_depth: 2,
            branch_percent: 20,
            loop_percent: 12,
            call_percent: 6,
            copy_percent: 0,
            params: 3,
            liveness_window: 12,
        }
    }
}

struct SsaGen<'a, R: Rng> {
    b: FunctionBuilder,
    rng: &'a mut R,
    cfg: SsaConfig,
    budget: isize,
}

impl<R: Rng> SsaGen<'_, R> {
    /// Picks an operand from the tail of `scope` (the liveness window).
    fn pick(&mut self, scope: &[Value]) -> Option<Value> {
        if scope.is_empty() {
            return None;
        }
        let window = self.cfg.liveness_window.max(1).min(scope.len());
        let i = scope.len() - 1 - self.rng.gen_range(0..window);
        Some(scope[i])
    }

    fn emit_instr(&mut self, cur: BlockId, scope: &mut Vec<Value>) {
        // Copies are rolled first and only when enabled, keeping the
        // RNG stream stable for copy_percent == 0 configurations.
        if self.cfg.copy_percent > 0
            && !scope.is_empty()
            && self.rng.gen_range(0..100) < self.cfg.copy_percent
        {
            if let Some(src) = self.pick(scope) {
                let v = self.b.copy(cur, src);
                scope.push(v);
                self.budget -= 1;
                return;
            }
        }
        let n_uses = self.rng.gen_range(0..=2.min(scope.len()));
        let mut uses = Vec::with_capacity(n_uses);
        for _ in 0..n_uses {
            if let Some(v) = self.pick(scope) {
                uses.push(v);
            }
        }
        let v = if self.rng.gen_range(0..100) < self.cfg.call_percent {
            self.b.call(cur, &uses)
        } else {
            self.b.op(cur, &uses)
        };
        scope.push(v);
        self.budget -= 1;
    }

    /// Generates a region starting in `cur`; returns the block where
    /// control continues. `scope` holds values whose definitions
    /// dominate every point of the region.
    fn region(
        &mut self,
        mut cur: BlockId,
        depth: u32,
        mut budget: isize,
        scope: &mut Vec<Value>,
    ) -> BlockId {
        while budget > 0 && self.budget > 0 {
            let roll = self.rng.gen_range(0..100);
            if roll < self.cfg.branch_percent && budget > 6 {
                cur = self.if_else(cur, depth, budget / 2, scope);
                budget /= 2;
            } else if roll < self.cfg.branch_percent + self.cfg.loop_percent
                && depth < self.cfg.max_loop_depth
                && budget > 8
            {
                cur = self.loop_region(cur, depth + 1, budget / 2, scope);
                budget /= 2;
            } else {
                self.emit_instr(cur, scope);
                budget -= 1;
            }
        }
        cur
    }

    fn if_else(
        &mut self,
        cur: BlockId,
        depth: u32,
        budget: isize,
        scope: &mut Vec<Value>,
    ) -> BlockId {
        // Condition computation in the current block.
        self.emit_instr(cur, scope);
        let then_b = self.b.block();
        let else_b = self.b.block();
        let join = self.b.block();
        self.b.set_succs(cur, &[then_b, else_b]);

        let mut then_scope = scope.clone();
        let then_end = self.region(then_b, depth, budget / 2, &mut then_scope);
        let mut else_scope = scope.clone();
        let else_end = self.region(else_b, depth, budget / 2, &mut else_scope);
        self.b.set_succs(then_end, &[join]);
        self.b.set_succs(else_end, &[join]);

        // Merge a couple of arm-local values with φs; predecessors of
        // `join` will be ordered by block index at finish time.
        let n_phis = self.rng.gen_range(0..=2usize);
        for _ in 0..n_phis {
            let tv = *then_scope.last().unwrap_or(&then_scope[0]);
            let ev = *else_scope.last().unwrap_or(&else_scope[0]);
            let (first, second) = if then_end.index() < else_end.index() {
                (tv, ev)
            } else {
                (ev, tv)
            };
            let m = self.b.phi(join, &[first, second]);
            scope.push(m);
            // Rotate arm scopes so repeated φs merge different values.
            then_scope.rotate_right(1);
            else_scope.rotate_right(1);
        }
        join
    }

    fn loop_region(
        &mut self,
        cur: BlockId,
        depth: u32,
        budget: isize,
        scope: &mut Vec<Value>,
    ) -> BlockId {
        let header = self.b.block();
        let exit = self.b.block();
        self.b.set_succs(cur, &[header]);

        // Loop-carried φs: preds(header) = [cur, body_end] in index
        // order because every body block is created after `cur`.
        let n_carried = self.rng.gen_range(1..=2usize);
        let mut phis = Vec::with_capacity(n_carried);
        for _ in 0..n_carried {
            let init = self.pick(scope).unwrap_or_else(|| {
                let v = self.b.op(cur, &[]);
                self.budget -= 1;
                v
            });
            let phi = self.b.phi(header, &[init, init]); // second arg patched below
            phis.push(phi);
        }
        let mut body_scope = scope.clone();
        body_scope.extend(phis.iter().copied());
        // A little work in the header itself.
        self.emit_instr(header, &mut body_scope);

        let body = self.b.block();
        self.b.set_succs(header, &[body, exit]);
        let body_end = self.region(body, depth, budget, &mut body_scope);
        self.b.set_succs(body_end, &[header]);

        // Patch the back-edge φ operands with values from the body.
        for &phi in &phis {
            let next = self.pick(&body_scope).unwrap_or(phi);
            self.b.patch_phi_arg(header, phi, 1, next);
        }
        // After the loop, the carried values are available (the header
        // dominates the exit).
        scope.extend(phis);
        exit
    }
}

/// Generates a random structured strict-SSA function.
///
/// The result always validates ([`Function::validate`]) and satisfies
/// strict SSA ([`validate_strict_ssa`]).
pub fn random_ssa_function(
    rng: &mut impl Rng,
    cfg: &SsaConfig,
    name: impl Into<String>,
) -> Function {
    let mut g = SsaGen {
        b: FunctionBuilder::new(name),
        rng,
        cfg: cfg.clone(),
        budget: cfg.target_instrs as isize,
    };
    let entry = g.b.entry_block();
    let mut scope: Vec<Value> = (0..cfg.params.max(1)).map(|_| g.b.param()).collect();
    let budget = g.budget;
    let last = g.region(entry, 0, budget, &mut scope);
    // Keep a handful of values live to the end ("return" uses).
    let k = g.rng.gen_range(1..=3.min(scope.len()));
    let tail: Vec<Value> = (0..k).filter_map(|_| g.pick(&scope)).collect();
    g.b.effect(last, Opcode::Store, &tail);
    g.b.finish()
}

/// Shape parameters for [`random_jit_function`].
#[derive(Clone, Debug)]
pub struct JitConfig {
    /// Number of mutable temporaries (values with multiple defs).
    pub vars: usize,
    /// Number of basic blocks.
    pub blocks: usize,
    /// Instructions per block.
    pub instrs_per_block: usize,
    /// Percent chance a block gets an extra forward edge.
    pub cross_percent: u32,
    /// Percent chance a block gets a back edge (loops).
    pub back_percent: u32,
    /// Percent chance an instruction is a call.
    pub call_percent: u32,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            vars: 24,
            blocks: 10,
            instrs_per_block: 6,
            cross_percent: 35,
            back_percent: 25,
            call_percent: 8,
        }
    }
}

/// Generates a random **non-SSA** function: temporaries are redefined
/// freely, so live ranges have holes and the interference graph is a
/// general (usually non-chordal) graph.
pub fn random_jit_function(
    rng: &mut impl Rng,
    cfg: &JitConfig,
    name: impl Into<String>,
) -> Function {
    use crate::cfg::{Block, Instr};
    let nb = cfg.blocks.max(1);
    let nv = cfg.vars.max(2);
    let mut blocks: Vec<Block> = (0..nb).map(|_| Block::default()).collect();

    // Control flow: a chain with random forward and back edges.
    for i in 0..nb {
        let mut succs = Vec::new();
        if i + 1 < nb {
            succs.push(BlockId((i + 1) as u32));
        }
        if i + 2 < nb && rng.gen_range(0..100) < cfg.cross_percent {
            let t = rng.gen_range(i + 2..nb);
            succs.push(BlockId(t as u32));
        }
        if i > 0 && rng.gen_range(0..100) < cfg.back_percent {
            let t = rng.gen_range(0..i);
            succs.push(BlockId(t as u32));
        }
        succs.dedup();
        blocks[i].succs = succs;
    }

    // Instructions: read a few live vars, write one (killing its old
    // value) — classic three-address JIT IR.
    for block in blocks.iter_mut() {
        for _ in 0..cfg.instrs_per_block {
            let n_uses = rng.gen_range(1..=2usize);
            let uses: Vec<Value> = (0..n_uses)
                .map(|_| Value(rng.gen_range(0..nv) as u32))
                .collect();
            let def = Value(rng.gen_range(0..nv) as u32);
            let opcode = if rng.gen_range(0..100) < cfg.call_percent {
                Opcode::Call
            } else {
                Opcode::Op
            };
            block.instrs.push(Instr::new(opcode, Some(def), uses));
        }
    }

    let mut f = Function {
        name: name.into(),
        blocks,
        entry: BlockId(0),
        value_count: nv as u32,
        params: (0..3.min(nv)).map(|v| Value(v as u32)).collect(),
    };
    f.recompute_preds();
    debug_assert_eq!(f.validate(), Ok(()));
    f
}

/// Checks strict SSA: every value has at most one definition, and each
/// definition dominates all its uses (φ uses checked at the tail of the
/// incoming predecessor).
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_strict_ssa(f: &Function) -> Result<(), String> {
    let nv = f.value_count as usize;
    let mut def_site: Vec<Option<BlockId>> = vec![None; nv];
    let mut def_pos: Vec<usize> = vec![0; nv];
    for p in &f.params {
        if def_site[p.index()].is_some() {
            return Err(format!("parameter {p} defined twice"));
        }
        def_site[p.index()] = Some(f.entry);
    }
    for b in f.block_ids() {
        for (i, instr) in f.block(b).instrs.iter().enumerate() {
            if let Some(d) = instr.def {
                if def_site[d.index()].is_some() {
                    return Err(format!("value {d} has multiple definitions"));
                }
                def_site[d.index()] = Some(b);
                def_pos[d.index()] = i;
            }
        }
    }

    let dom = DomTree::compute(f);
    for b in f.block_ids() {
        let block = f.block(b);
        for (i, instr) in block.instrs.iter().enumerate() {
            if instr.is_phi() {
                for (k, u) in instr.uses.iter().enumerate() {
                    let site = def_site[u.index()]
                        .ok_or_else(|| format!("φ use of undefined value {u}"))?;
                    let pred = block.preds[k];
                    if !dom.dominates(site, pred) {
                        return Err(format!(
                            "φ use of {u} in {b}: def in {site} does not dominate pred {pred}"
                        ));
                    }
                }
            } else {
                for u in &instr.uses {
                    let site =
                        def_site[u.index()].ok_or_else(|| format!("use of undefined value {u}"))?;
                    if site == b {
                        // Same block: the def must come earlier (params
                        // count as position-before-0 in the entry).
                        let is_param = f.params.contains(u);
                        if !is_param && def_pos[u.index()] >= i {
                            return Err(format!("use of {u} before its def in {b}"));
                        }
                    } else if !dom.strictly_dominates(site, b) {
                        return Err(format!("def of {u} in {site} does not dominate use in {b}"));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interference, liveness};
    use lra_graph::peo;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn ssa_functions_are_valid_strict_ssa() {
        for seed in 0..25 {
            let f = random_ssa_function(&mut rng(seed), &SsaConfig::default(), format!("f{seed}"));
            f.validate().expect("structurally valid");
            validate_strict_ssa(&f).expect("strict SSA");
        }
    }

    #[test]
    fn ssa_interference_graphs_are_chordal() {
        for seed in 0..25 {
            let f = random_ssa_function(&mut rng(seed), &SsaConfig::default(), "f");
            let live = liveness::analyze(&f);
            let g = interference::interference_graph(&f, &live);
            assert!(peo::is_chordal(&g), "seed {seed}: non-chordal SSA graph");
        }
    }

    #[test]
    fn ssa_generator_is_deterministic() {
        let a = random_ssa_function(&mut rng(3), &SsaConfig::default(), "f");
        let b = random_ssa_function(&mut rng(3), &SsaConfig::default(), "f");
        assert_eq!(a, b);
    }

    #[test]
    fn ssa_size_tracks_target() {
        let cfg = SsaConfig {
            target_instrs: 200,
            ..SsaConfig::default()
        };
        let f = random_ssa_function(&mut rng(1), &cfg, "big");
        assert!(f.instr_count() >= 100, "got {}", f.instr_count());
        assert!(f.value_count >= 100);
    }

    #[test]
    fn ssa_functions_contain_loops_and_branches() {
        let cfg = SsaConfig {
            target_instrs: 150,
            branch_percent: 30,
            loop_percent: 20,
            ..SsaConfig::default()
        };
        let mut saw_branch = false;
        let mut saw_phi = false;
        for seed in 0..10 {
            let f = random_ssa_function(&mut rng(seed), &cfg, "f");
            saw_branch |= f.blocks.iter().any(|b| b.succs.len() > 1);
            saw_phi |= f.blocks.iter().any(|b| b.instrs.iter().any(|i| i.is_phi()));
        }
        assert!(saw_branch);
        assert!(saw_phi);
    }

    #[test]
    fn jit_functions_are_non_ssa() {
        let f = random_jit_function(&mut rng(4), &JitConfig::default(), "jit");
        f.validate().expect("structurally valid");
        assert!(
            validate_strict_ssa(&f).is_err(),
            "JIT code should not be SSA"
        );
    }

    #[test]
    fn jit_graphs_are_often_non_chordal() {
        let mut non_chordal = 0;
        for seed in 0..20 {
            let f = random_jit_function(&mut rng(seed), &JitConfig::default(), "jit");
            let live = liveness::analyze(&f);
            let g = interference::interference_graph(&f, &live);
            if !peo::is_chordal(&g) {
                non_chordal += 1;
            }
        }
        assert!(
            non_chordal >= 5,
            "only {non_chordal}/20 JIT graphs were non-chordal"
        );
    }

    #[test]
    fn jit_generator_is_deterministic() {
        let a = random_jit_function(&mut rng(9), &JitConfig::default(), "f");
        let b = random_jit_function(&mut rng(9), &JitConfig::default(), "f");
        assert_eq!(a, b);
    }

    #[test]
    fn validate_strict_ssa_rejects_double_def() {
        use crate::cfg::{Block, Instr};
        let mut f = Function {
            name: "bad".into(),
            blocks: vec![Block::default()],
            entry: BlockId(0),
            value_count: 1,
            params: vec![],
        };
        f.blocks[0].instrs = vec![
            Instr::new(Opcode::Op, Some(Value(0)), vec![]),
            Instr::new(Opcode::Op, Some(Value(0)), vec![]),
        ];
        f.recompute_preds();
        assert!(validate_strict_ssa(&f)
            .unwrap_err()
            .contains("multiple definitions"));
    }

    #[test]
    fn validate_strict_ssa_rejects_use_before_def() {
        use crate::cfg::{Block, Instr};
        let mut f = Function {
            name: "bad".into(),
            blocks: vec![Block::default()],
            entry: BlockId(0),
            value_count: 2,
            params: vec![],
        };
        f.blocks[0].instrs = vec![
            Instr::new(Opcode::Op, Some(Value(1)), vec![Value(0)]),
            Instr::new(Opcode::Op, Some(Value(0)), vec![]),
        ];
        f.recompute_preds();
        assert!(validate_strict_ssa(&f).is_err());
    }
}
