//! Convenience builder for [`Function`]s.
//!
//! Tests, examples and the program generators construct functions
//! through this builder, which hands out fresh [`Value`]s, keeps
//! successor lists, and finishes with predecessor computation plus
//! structural validation.

use crate::cfg::{Block, BlockId, Function, Instr, Opcode, Value};

/// Incrementally builds a [`Function`].
///
/// # Examples
///
/// ```
/// use lra_ir::builder::FunctionBuilder;
///
/// let mut b = FunctionBuilder::new("max");
/// let entry = b.entry_block();
/// let x = b.param();
/// let y = b.param();
/// let then_b = b.block();
/// let else_b = b.block();
/// let join = b.block();
/// b.op(entry, &[x, y]); // compare
/// b.set_succs(entry, &[then_b, else_b]);
/// b.set_succs(then_b, &[join]);
/// b.set_succs(else_b, &[join]);
/// let m = b.phi(join, &[x, y]);
/// b.op(join, &[m]);
/// let f = b.finish();
/// assert_eq!(f.block_count(), 4);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    f: Function,
    next_value: u32,
}

impl FunctionBuilder {
    /// Starts a function with an (empty) entry block.
    pub fn new(name: impl Into<String>) -> Self {
        FunctionBuilder {
            f: Function {
                name: name.into(),
                blocks: vec![Block::default()],
                entry: BlockId(0),
                value_count: 0,
                params: vec![],
            },
            next_value: 0,
        }
    }

    /// The entry block id.
    pub fn entry_block(&self) -> BlockId {
        self.f.entry
    }

    /// Appends a fresh empty block.
    pub fn block(&mut self) -> BlockId {
        self.f.blocks.push(Block::default());
        BlockId(self.f.blocks.len() as u32 - 1)
    }

    /// Mints a fresh value without defining it anywhere (used for
    /// forward references; ensure it gets a definition).
    pub fn fresh_value(&mut self) -> Value {
        let v = Value(self.next_value);
        self.next_value += 1;
        v
    }

    /// Declares a function parameter (defined at entry).
    pub fn param(&mut self) -> Value {
        let v = self.fresh_value();
        self.f.params.push(v);
        v
    }

    /// Appends an [`Opcode::Op`] defining a fresh value that uses `uses`.
    pub fn op(&mut self, b: BlockId, uses: &[Value]) -> Value {
        self.defining(b, Opcode::Op, uses)
    }

    /// Appends an [`Opcode::Call`] defining a fresh value.
    pub fn call(&mut self, b: BlockId, uses: &[Value]) -> Value {
        self.defining(b, Opcode::Call, uses)
    }

    /// Appends a copy of `from` into a fresh value.
    pub fn copy(&mut self, b: BlockId, from: Value) -> Value {
        self.defining(b, Opcode::Copy, &[from])
    }

    /// Appends an instruction of `opcode` defining a fresh value.
    pub fn defining(&mut self, b: BlockId, opcode: Opcode, uses: &[Value]) -> Value {
        let v = self.fresh_value();
        self.f.blocks[b.index()]
            .instrs
            .push(Instr::new(opcode, Some(v), uses.to_vec()));
        v
    }

    /// Appends an effect-only instruction (no def), e.g. a store or a
    /// use-only terminator computation.
    pub fn effect(&mut self, b: BlockId, opcode: Opcode, uses: &[Value]) {
        self.f.blocks[b.index()]
            .instrs
            .push(Instr::new(opcode, None, uses.to_vec()));
    }

    /// Prepends a φ to `b` (φs must precede the body), defining a fresh
    /// value. `args` must be parallel to the predecessors of `b` *at
    /// [`finish`](Self::finish) time*.
    pub fn phi(&mut self, b: BlockId, args: &[Value]) -> Value {
        let v = self.fresh_value();
        let block = &mut self.f.blocks[b.index()];
        let at = block.instrs.iter().take_while(|i| i.is_phi()).count();
        block
            .instrs
            .insert(at, Instr::new(Opcode::Phi, Some(v), args.to_vec()));
        v
    }

    /// Rewrites the `i`-th operand of the φ defining `phi_def` in `b`.
    /// Used to patch loop-carried values after the body is generated.
    ///
    /// # Panics
    ///
    /// Panics if no φ in `b` defines `phi_def` or `i` is out of range.
    pub fn patch_phi_arg(&mut self, b: BlockId, phi_def: Value, i: usize, arg: Value) {
        let block = &mut self.f.blocks[b.index()];
        let phi = block
            .instrs
            .iter_mut()
            .take_while(|ins| ins.is_phi())
            .find(|ins| ins.def == Some(phi_def))
            .expect("phi with the given def exists");
        phi.uses[i] = arg;
    }

    /// Sets the successor list of `b`.
    pub fn set_succs(&mut self, b: BlockId, succs: &[BlockId]) {
        self.f.blocks[b.index()].succs = succs.to_vec();
    }

    /// The number of values minted so far.
    pub fn value_count(&self) -> u32 {
        self.next_value
    }

    /// Finishes the function: computes predecessors and validates.
    ///
    /// # Panics
    ///
    /// Panics if the constructed function violates an invariant (see
    /// [`Function::validate`]); builder misuse is a programming error.
    pub fn finish(mut self) -> Function {
        self.f.value_count = self.next_value;
        self.f.recompute_preds();
        if let Err(e) = self.f.validate() {
            panic!("FunctionBuilder produced an invalid function: {e}");
        }
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        let y = b.op(e, &[x]);
        b.effect(e, Opcode::Store, &[y]);
        let f = b.finish();
        assert_eq!(f.block_count(), 1);
        assert_eq!(f.instr_count(), 3);
        assert_eq!(f.value_count, 2);
    }

    #[test]
    fn phi_goes_first() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.param();
        let l = b.block();
        let r = b.block();
        let j = b.block();
        b.set_succs(e, &[l, r]);
        b.set_succs(l, &[j]);
        b.set_succs(r, &[j]);
        b.op(j, &[x]); // body first ...
        let m = b.phi(j, &[x, x]); // ... then a phi is still inserted first
        let f = b.finish();
        assert!(f.block(j).instrs[0].is_phi());
        assert_eq!(f.block(j).instrs[0].def, Some(m));
    }

    #[test]
    fn patch_phi_arg_rewrites_operand() {
        let mut b = FunctionBuilder::new("loop");
        let e = b.entry_block();
        let init = b.op(e, &[]);
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.set_succs(e, &[header]);
        b.set_succs(header, &[body, exit]);
        b.set_succs(body, &[header]);
        // preds(header) = [e, body]; placeholder second arg patched later.
        let carried = b.phi(header, &[init, init]);
        let next = b.op(body, &[carried]);
        b.patch_phi_arg(header, carried, 1, next);
        b.op(exit, &[carried]);
        let f = b.finish();
        let phi = &f.block(header).instrs[0];
        assert_eq!(phi.uses, vec![init, next]);
    }

    #[test]
    #[should_panic(expected = "invalid function")]
    fn finish_panics_on_bad_phi_arity() {
        let mut b = FunctionBuilder::new("bad");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        b.phi(e, &[x, x]); // entry has no preds; arity mismatch
        let _ = b.finish();
    }

    #[test]
    fn params_are_recorded() {
        let mut b = FunctionBuilder::new("f");
        let p = b.param();
        let q = b.param();
        let f = b.finish();
        assert_eq!(f.params, vec![p, q]);
    }
}
