//! Undirected graphs stored as one adjacency bit matrix.
//!
//! Interference graphs are simple undirected graphs. A graph keeps its
//! adjacency once, as a [`BitMatrix`] of symmetric bit rows in one
//! contiguous arena: O(1) edge queries, O(n/64) neighbourhood algebra
//! for clique enumeration and the allocation verifier, and neighbour
//! lists read straight off the rows ([`Graph::neighbor_indices`]
//! iterates a row's set bits, [`Graph::degree`] is its popcount).
//! Every constructor funnels into [`Graph::from_bit_matrix`], which
//! takes the symmetric closure of whatever one-directional rows the
//! caller filled.

use crate::bitset::{BitMatrix, BitRow, BitSet, Iter};

/// An index identifying a vertex (a variable) of a [`Graph`].
///
/// `Vertex` is a newtype over `u32`; use [`Vertex::index`] to index into
/// side tables.
///
/// # Examples
///
/// ```
/// use lra_graph::Vertex;
/// let v = Vertex::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vertex(u32);

impl Vertex {
    /// Creates a vertex from its index.
    pub fn new(index: usize) -> Self {
        Vertex(u32::try_from(index).expect("vertex index fits in u32"))
    }

    /// The index of this vertex, usable into side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for Vertex {
    fn from(index: usize) -> Self {
        Vertex::new(index)
    }
}

impl From<Vertex> for usize {
    fn from(v: Vertex) -> usize {
        v.index()
    }
}

impl std::fmt::Debug for Vertex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for Vertex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Incrementally builds a [`Graph`] from edges.
///
/// Duplicate edges and self-loops are ignored, so callers can add
/// interferences without deduplicating first.
///
/// # Examples
///
/// ```
/// use lra_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, ignored
/// b.add_edge(2, 2); // self-loop, ignored
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    /// Each edge in one direction; [`Graph::from_bit_matrix`] mirrors it.
    rows: BitMatrix,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            rows: BitMatrix::new(n, n),
        }
    }

    /// Adds the undirected edge `(u, v)`. Self-loops and duplicates are
    /// silently ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> &mut Self {
        self.rows.insert(u, v);
        self
    }

    /// Adds every edge of the clique over `members`.
    pub fn add_clique(&mut self, members: &[usize]) -> &mut Self {
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                self.add_edge(u, v);
            }
        }
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Graph {
        Graph::from_bit_matrix(self.rows)
    }
}

/// A simple undirected graph with vertices `0..n`.
///
/// Construct with [`GraphBuilder`] or [`Graph::from_edges`].
///
/// # Examples
///
/// ```
/// use lra_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.vertex_count(), 4);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 1));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// Row `v` holds the neighbours of `v`: symmetric, empty diagonal.
    rows: BitMatrix,
    edge_count: usize,
}

impl Graph {
    /// Builds a graph directly from an adjacency bit matrix, taking its
    /// **symmetric closure**: an edge exists when either endpoint's row
    /// names the other. Self-loops are dropped.
    ///
    /// This is the fast path for interference construction: callers
    /// union whole live sets into a definition's row with word-level
    /// [`BitMatrix::union_row_with`] — O(n/64) per definition instead
    /// of one `add_edge` call per live value — and this constructor
    /// mirrors the edges by ORing the transpose of each 64×64 word
    /// block into its mirror block. The matrix becomes the graph's
    /// only adjacency; no per-vertex edge list is ever materialized.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square (`capacity != row_count`).
    pub fn from_bit_matrix(mut rows: BitMatrix) -> Self {
        let n = rows.row_count();
        assert_eq!(
            rows.capacity(),
            n,
            "matrix capacity must equal the vertex count {n}"
        );
        rows.close_symmetric();
        let edge_count = rows.count_ones() / 2;
        Graph { rows, edge_count }
    }

    /// Creates a graph on `n` vertices from an edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Creates the empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// The number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.rows.row_count()
    }

    /// The number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all vertices in index order.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        (0..self.vertex_count()).map(Vertex::new)
    }

    /// Iterates over every edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        (0..self.vertex_count()).flat_map(move |u| {
            self.neighbor_indices(u)
                .filter(move |&v| v > u)
                .map(move |v| (Vertex::new(u), Vertex::new(v)))
        })
    }

    /// Returns `true` if `(u, v)` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.rows.contains(u, v)
    }

    /// The degree (number of neighbours) of `v`: the popcount of its
    /// adjacency row.
    pub fn degree(&self, v: usize) -> usize {
        self.rows.row(v).len()
    }

    /// The neighbours of `v` in increasing order: the set bits of
    /// [`Graph::neighbor_row`], read word by word with no allocation.
    pub fn neighbor_indices(&self, v: usize) -> Iter<'_> {
        self.rows.row(v).iter()
    }

    /// The neighbourhood of `v` as a borrowed bit row over vertex
    /// indices.
    pub fn neighbor_row(&self, v: usize) -> BitRow<'_> {
        self.rows.row(v)
    }

    /// The packed adjacency matrix words: vertex 0's row words, then
    /// vertex 1's, and so on — `vertex_count().div_ceil(64)` words per
    /// row. Exposed so cache keys and fingerprints can copy or hash the
    /// whole adjacency in one O(words) pass.
    pub fn adjacency_words(&self) -> &[u64] {
        self.rows.words()
    }

    /// The heap bytes resident in this graph's adjacency bit matrix.
    pub fn resident_bytes(&self) -> usize {
        self.rows.resident_bytes()
    }

    /// Returns `true` if `vs` induces a clique (every two members adjacent).
    pub fn is_clique(&self, vs: &[usize]) -> bool {
        vs.iter()
            .enumerate()
            .all(|(i, &u)| vs[i + 1..].iter().all(|&v| self.has_edge(u, v)))
    }

    /// Returns `true` if `vs` is a stable (independent) set.
    pub fn is_stable_set(&self, vs: &[usize]) -> bool {
        vs.iter()
            .enumerate()
            .all(|(i, &u)| vs[i + 1..].iter().all(|&v| !self.has_edge(u, v)))
    }

    /// The maximum size of a set of vertices in `subset` that are all in
    /// one clique with vertex `v` — used by verifiers. Returns the number
    /// of members of `subset` adjacent to `v`.
    pub fn adjacent_count_in(&self, v: usize, subset: &BitSet) -> usize {
        self.rows.row(v).intersection_len(subset)
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("vertices", &self.vertex_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn counts_and_queries() {
        let g = path4();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn edges_listed_once() {
        let g = path4();
        let e: Vec<(usize, usize)> = g.edges().map(|(u, v)| (u.index(), v.index())).collect();
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 0), (1, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn clique_and_stable_checks() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(!g.is_clique(&[0, 1, 3]));
        assert!(g.is_stable_set(&[0, 3]));
        assert!(!g.is_stable_set(&[0, 1]));
        assert!(g.is_stable_set(&[]));
        assert!(g.is_clique(&[]));
    }

    #[test]
    fn add_clique_builder() {
        let mut b = GraphBuilder::new(5);
        b.add_clique(&[0, 2, 4]);
        let g = b.build();
        assert_eq!(g.edge_count(), 3);
        assert!(g.is_clique(&[0, 2, 4]));
    }

    #[test]
    fn from_bit_matrix_symmetrizes_and_drops_self_loops() {
        // Rows recorded in one direction only (as interference
        // construction produces them), plus a self-loop.
        let mut m = BitMatrix::new(4, 4);
        m.insert(0, 0); // self-loop, dropped
        m.insert(0, 1);
        m.insert(0, 3);
        m.insert(2, 1);
        let g = Graph::from_bit_matrix(m);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(1, 0) && g.has_edge(0, 1));
        assert!(g.has_edge(3, 0));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.neighbor_indices(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.neighbor_row(1).iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn from_bit_matrix_matches_builder_output() {
        let edges = [(0usize, 1usize), (1, 2), (2, 3), (0, 3), (1, 3)];
        let via_builder = Graph::from_edges(5, &edges);
        let mut m = BitMatrix::new(5, 5);
        for &(u, v) in &edges {
            m.insert(v, u); // one direction only, the builder's other one
        }
        assert_eq!(Graph::from_bit_matrix(m), via_builder);
    }

    #[test]
    #[should_panic(expected = "capacity must equal the vertex count")]
    fn from_bit_matrix_rejects_non_square() {
        let _ = Graph::from_bit_matrix(BitMatrix::new(2, 3));
    }

    #[test]
    fn adjacency_words_concatenate_rows() {
        let g = path4();
        let words = g.adjacency_words();
        // 4 vertices → 1 word per row.
        assert_eq!(words.len(), 4);
        for (v, &word) in words.iter().enumerate() {
            assert_eq!(word, g.neighbor_row(v).words()[0]);
        }
        assert!(g.resident_bytes() > 0);
    }

    #[test]
    fn neighbor_indices_list_the_row_in_order() {
        // Edges inside one word and across the 64- and 128-bit word
        // boundaries.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (1, 3),
            (0, 63),
            (63, 64),
            (5, 129),
            (64, 129),
        ];
        let g = Graph::from_edges(130, &edges);
        for v in 0..130 {
            let listed: Vec<usize> = g.neighbor_indices(v).collect();
            assert_eq!(listed, g.neighbor_row(v).iter().collect::<Vec<_>>());
            assert!(listed.windows(2).all(|w| w[0] < w[1]), "increasing");
            assert_eq!(listed.len(), g.degree(v));
        }
        assert_eq!(g.neighbor_indices(64).collect::<Vec<_>>(), vec![63, 129]);
        assert_eq!(g.degree(129), 2);
    }

    #[test]
    fn neighbor_row_matches_adjacency() {
        let g = path4();
        let row = g.neighbor_row(1);
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn vertex_display_and_conversion() {
        let v = Vertex::new(7);
        assert_eq!(format!("{v}"), "v7");
        assert_eq!(format!("{v:?}"), "v7");
        assert_eq!(usize::from(v), 7);
        assert_eq!(Vertex::from(7usize), v);
    }
}
