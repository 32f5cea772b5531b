//! Target machine models for spill-cost estimation.
//!
//! The paper evaluates on two architectures: the **ST231**, a 4-issue
//! VLIW media processor from STMicroelectronics (compiled with Open64),
//! and the **ARM Cortex-A8** (ARMv7). The allocation algorithms are
//! target-independent; the target only influences
//!
//! * the default number of allocatable registers,
//! * the relative cost of spill loads and stores (latency × issue
//!   width), and
//! * ABI effects: values live across calls must reside in callee-saved
//!   registers or memory, which the cost model reflects with a
//!   call-crossing multiplier.
//!
//! # Examples
//!
//! ```
//! use lra_targets::{Target, TargetKind};
//! let t = Target::new(TargetKind::St231);
//! assert_eq!(t.register_count(), 64);
//! assert!(t.store_cost() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The architectures modelled by the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// STMicroelectronics ST231, a 4-issue VLIW (Open64 back-end in the
    /// paper).
    St231,
    /// ARM Cortex-A8, ARMv7 (the lao-kernels experiments).
    ArmCortexA8,
}

/// A register-file and memory-cost model.
///
/// # Examples
///
/// ```
/// use lra_targets::{Target, TargetKind};
/// let arm = Target::new(TargetKind::ArmCortexA8);
/// assert_eq!(arm.register_count(), 16);
/// assert_eq!(arm.name(), "armv7-cortex-a8");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Target {
    kind: TargetKind,
    registers: u32,
    load_cost: u64,
    store_cost: u64,
    remat_cost: u64,
    call_crossing_multiplier: u64,
}

impl Target {
    /// Creates the model for `kind` with its architectural defaults.
    pub fn new(kind: TargetKind) -> Self {
        match kind {
            // ST231: 64 general-purpose registers; loads have a 3-cycle
            // latency, stores retire through a write buffer.
            TargetKind::St231 => Target {
                kind,
                registers: 64,
                load_cost: 3,
                store_cost: 1,
                remat_cost: 1,
                call_crossing_multiplier: 2,
            },
            // Cortex-A8: 16 GPRs (r0-r15, with sp/lr/pc constrained);
            // L1 load-use latency ≈ 3 cycles.
            TargetKind::ArmCortexA8 => Target {
                kind,
                registers: 16,
                load_cost: 3,
                store_cost: 2,
                remat_cost: 1,
                call_crossing_multiplier: 2,
            },
        }
    }

    /// Overrides the number of allocatable registers (the experiments
    /// sweep R from 1 to 32 regardless of the architectural file size).
    pub fn with_register_count(mut self, registers: u32) -> Self {
        self.registers = registers;
        self
    }

    /// Which architecture this models.
    pub fn kind(&self) -> TargetKind {
        self.kind
    }

    /// A short identifier (`st231` or `armv7-cortex-a8`).
    pub fn name(&self) -> &'static str {
        match self.kind {
            TargetKind::St231 => "st231",
            TargetKind::ArmCortexA8 => "armv7-cortex-a8",
        }
    }

    /// The number of allocatable registers.
    pub fn register_count(&self) -> u32 {
        self.registers
    }

    /// Cost of one spill reload, in abstract cycle units.
    pub fn load_cost(&self) -> u64 {
        self.load_cost
    }

    /// Cost of one spill store, in abstract cycle units.
    pub fn store_cost(&self) -> u64 {
        self.store_cost
    }

    /// Cost of recomputing a rematerializable value at a use site, in
    /// abstract cycle units. On both modelled machines a constant (or
    /// simple address arithmetic) re-issues in one slot, so the default
    /// is `1` — strictly cheaper than a reload, which is why the spill
    /// cost model prefers rematerialization whenever it is legal.
    pub fn remat_cost(&self) -> u64 {
        self.remat_cost
    }

    /// Multiplier applied to the spill cost of variables live across a
    /// call site (ABI pressure on caller-saved registers).
    pub fn call_crossing_multiplier(&self) -> u64 {
        self.call_crossing_multiplier
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({} registers)", self.name(), self.registers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn st231_defaults() {
        let t = Target::new(TargetKind::St231);
        assert_eq!(t.register_count(), 64);
        assert_eq!(t.load_cost(), 3);
        assert_eq!(t.store_cost(), 1);
        assert_eq!(t.name(), "st231");
        assert_eq!(t.kind(), TargetKind::St231);
    }

    #[test]
    fn arm_defaults() {
        let t = Target::new(TargetKind::ArmCortexA8);
        assert_eq!(t.register_count(), 16);
        assert_eq!(t.name(), "armv7-cortex-a8");
    }

    #[test]
    fn register_override() {
        let t = Target::new(TargetKind::St231).with_register_count(8);
        assert_eq!(t.register_count(), 8);
        // Cost model unchanged by the override.
        assert_eq!(t.load_cost(), 3);
    }

    #[test]
    fn remat_is_cheaper_than_a_reload() {
        for kind in [TargetKind::St231, TargetKind::ArmCortexA8] {
            let t = Target::new(kind);
            assert!(t.remat_cost() >= 1);
            assert!(t.remat_cost() < t.load_cost());
        }
    }

    #[test]
    fn call_crossing_multiplier_positive() {
        for kind in [TargetKind::St231, TargetKind::ArmCortexA8] {
            assert!(Target::new(kind).call_crossing_multiplier() >= 1);
        }
    }

    #[test]
    fn display_mentions_name_and_registers() {
        let t = Target::new(TargetKind::ArmCortexA8);
        assert_eq!(format!("{t}"), "armv7-cortex-a8 (16 registers)");
    }
}
