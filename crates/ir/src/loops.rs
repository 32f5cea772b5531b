//! Natural-loop detection and static block-frequency estimation.
//!
//! Spill costs in the paper are computed "based on the basic blocks'
//! frequency and on the number of accesses to the variables within the
//! basic blocks". We estimate frequency statically as `10^depth` where
//! `depth` is the natural-loop nesting depth — the standard static
//! heuristic in the absence of profiles.

use crate::cfg::{BlockId, Function};
use crate::dom::DomTree;

/// Per-block loop-nesting information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInfo {
    depth: Vec<u32>,
}

/// The multiplier applied per loop level in [`LoopInfo::frequency`].
pub const FREQUENCY_BASE: u64 = 10;

impl LoopInfo {
    /// Detects natural loops of `f` (back edges `u → h` where `h`
    /// dominates `u`) and accumulates nesting depths.
    pub fn compute(f: &Function, dom: &DomTree) -> Self {
        let n = f.block_count();
        let mut depth = vec![0u32; n];
        for u in f.block_ids() {
            for &h in &f.block(u).succs {
                if dom.dominates(h, u) {
                    // Natural loop of back edge u -> h: h plus all blocks
                    // that reach u without passing through h.
                    let mut in_loop = vec![false; n];
                    in_loop[h.index()] = true;
                    let mut stack = vec![u];
                    if !in_loop[u.index()] {
                        in_loop[u.index()] = true;
                    }
                    while let Some(x) = stack.pop() {
                        for &p in &f.block(x).preds {
                            if !in_loop[p.index()] {
                                in_loop[p.index()] = true;
                                stack.push(p);
                            }
                        }
                    }
                    for (b, &inside) in in_loop.iter().enumerate() {
                        if inside {
                            depth[b] += 1;
                        }
                    }
                }
            }
        }
        LoopInfo { depth }
    }

    /// The loop-nesting depth of `b` (0 = not in any loop).
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// Static execution-frequency estimate of `b`:
    /// `FREQUENCY_BASE ^ depth(b)`, saturating.
    pub fn frequency(&self, b: BlockId) -> u64 {
        FREQUENCY_BASE.saturating_pow(self.depth(b).min(12))
    }

    /// The deepest nesting level in the function.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Block;

    fn function_with_edges(n: usize, edges: &[(u32, u32)]) -> Function {
        let mut f = Function {
            name: "t".into(),
            blocks: (0..n).map(|_| Block::default()).collect(),
            entry: BlockId(0),
            value_count: 0,
            params: vec![],
        };
        for &(a, b) in edges {
            f.blocks[a as usize].succs.push(BlockId(b));
        }
        f.recompute_preds();
        f
    }

    #[test]
    fn straight_line_has_depth_zero() {
        let f = function_with_edges(3, &[(0, 1), (1, 2)]);
        let li = LoopInfo::compute(&f, &DomTree::compute(&f));
        for b in 0..3u32 {
            assert_eq!(li.depth(BlockId(b)), 0);
            assert_eq!(li.frequency(BlockId(b)), 1);
        }
        assert_eq!(li.max_depth(), 0);
    }

    #[test]
    fn single_loop() {
        // 0 -> 1(header) -> 2(body) -> 1, 1 -> 3(exit).
        let f = function_with_edges(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let li = LoopInfo::compute(&f, &DomTree::compute(&f));
        assert_eq!(li.depth(BlockId(0)), 0);
        assert_eq!(li.depth(BlockId(1)), 1);
        assert_eq!(li.depth(BlockId(2)), 1);
        assert_eq!(li.depth(BlockId(3)), 0);
        assert_eq!(li.frequency(BlockId(2)), 10);
    }

    #[test]
    fn nested_loops_stack_depth() {
        // 0 -> 1(outer h) -> 2(inner h) -> 3(inner body) -> 2; 2 -> 4 -> 1; 1 -> 5.
        let f = function_with_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 2), (2, 4), (4, 1), (1, 5)]);
        let li = LoopInfo::compute(&f, &DomTree::compute(&f));
        assert_eq!(li.depth(BlockId(1)), 1);
        assert_eq!(li.depth(BlockId(2)), 2);
        assert_eq!(li.depth(BlockId(3)), 2);
        assert_eq!(li.depth(BlockId(4)), 1);
        assert_eq!(li.depth(BlockId(5)), 0);
        assert_eq!(li.frequency(BlockId(3)), 100);
        assert_eq!(li.max_depth(), 2);
    }

    #[test]
    fn self_loop_counts() {
        let f = function_with_edges(3, &[(0, 1), (1, 1), (1, 2)]);
        let li = LoopInfo::compute(&f, &DomTree::compute(&f));
        assert_eq!(li.depth(BlockId(1)), 1);
        assert_eq!(li.depth(BlockId(2)), 0);
    }

    #[test]
    fn frequency_saturates() {
        let li = LoopInfo { depth: vec![40] };
        // Depth clamped to 12 -> 10^12, no overflow.
        assert_eq!(li.frequency(BlockId(0)), 1_000_000_000_000);
    }
}
