//! A fixed-capacity bit set used throughout the allocator for vertex sets.
//!
//! The allocators manipulate many vertex subsets (layers, cliques, live
//! sets). A flat `Vec<u64>` bit set gives O(n/64) unions/intersections and
//! compact storage, which matters for the subset-containment tests in
//! maximal-clique enumeration.

/// A fixed-capacity set of `usize` keys backed by a `Vec<u64>`.
///
/// The capacity is fixed at construction; inserting a key `>= capacity`
/// panics. All binary operations require equally sized operands.
///
/// # Examples
///
/// ```
/// use lra_graph::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold keys in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing every key in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for w in &mut s.words {
            *w = !0;
        }
        s.trim();
        s
    }

    /// Creates a set from an iterator of keys.
    pub fn from_iter_with_capacity(capacity: usize, keys: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(capacity);
        for k in keys {
            s.insert(k);
        }
        s
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= !0 >> extra;
            }
        }
    }

    /// The number of keys this set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The backing words, 64 keys per word (lowest key in bit 0 of
    /// word 0). Exposed for cheap fingerprinting/serialisation.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites `self` with the contents of `other`, reusing the
    /// existing allocation (unlike `*self = other.clone()`).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Inserts `key`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `key >= capacity`.
    pub fn insert(&mut self, key: usize) -> bool {
        assert!(
            key < self.capacity,
            "key {key} out of capacity {}",
            self.capacity
        );
        let (w, b) = (key / 64, key % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn remove(&mut self, key: usize) -> bool {
        if key >= self.capacity {
            return false;
        }
        let (w, b) = (key / 64, key % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// The set as a read-only row view, which answers its queries.
    fn as_row(&self) -> BitRow<'_> {
        BitRow {
            words: &self.words,
            capacity: self.capacity,
        }
    }

    /// Returns `true` if `key` is in the set.
    pub fn contains(&self, key: usize) -> bool {
        self.as_row().contains(key)
    }

    /// The number of keys currently in the set.
    pub fn len(&self) -> usize {
        self.as_row().len()
    }

    /// Returns `true` if the set contains no keys.
    pub fn is_empty(&self) -> bool {
        self.as_row().is_empty()
    }

    /// Removes every key.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Empties the set and re-sizes it to exactly `capacity` keys,
    /// reusing the word allocation. It may shrink: it is the reset
    /// scratch buffers use when the same set is recycled across
    /// differently-sized functions.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.capacity = capacity;
    }

    /// Returns `true` if `self` and `other` share no key.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.as_row().is_disjoint(other)
    }

    /// Returns `true` if every key of `self` is also in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: removes every key of `other` from `self`.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The number of keys present in both `self` and `other`.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.as_row().intersection_len(other)
    }

    /// In-place difference with a borrowed matrix row: removes every key
    /// of `row` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with_row(&mut self, row: BitRow<'_>) {
        assert_eq!(self.capacity, row.capacity(), "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(row.words()) {
            *a &= !b;
        }
    }

    /// Iterates over the keys in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        self.as_row().iter()
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose capacity is one past the largest key.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let keys: Vec<usize> = iter.into_iter().collect();
        let cap = keys.iter().max().map_or(0, |&m| m + 1);
        BitSet::from_iter_with_capacity(cap, keys)
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for k in iter {
            self.insert(k);
        }
    }
}

/// Iterator over the keys of a [`BitSet`] or [`BitRow`] in increasing
/// order, or over those of a row that are also in a set
/// ([`BitRow::iter_and`]).
#[derive(Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    /// ANDed into each word as it is loaded; `words` itself for a plain
    /// iteration.
    mask: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Iter<'a> {
    fn over(words: &'a [u64], mask: &'a [u64]) -> Self {
        assert_eq!(words.len(), mask.len(), "capacity mismatch");
        let current = words.first().map_or(0, |w| w & mask[0]);
        Iter {
            words,
            mask,
            word_idx: 0,
            current,
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx] & self.mask[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// A borrowed, read-only view of one row of a [`BitMatrix`].
///
/// Supports the same queries as a [`BitSet`] of equal capacity without
/// owning storage, so consumers can run word-level set algebra straight
/// against the matrix arena.
#[derive(Clone, Copy)]
pub struct BitRow<'a> {
    words: &'a [u64],
    capacity: usize,
}

impl<'a> BitRow<'a> {
    /// The number of keys this row can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The backing words, 64 keys per word.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Returns `true` if `key` is in the row.
    pub fn contains(&self, key: usize) -> bool {
        if key >= self.capacity {
            return false;
        }
        self.words[key / 64] & (1 << (key % 64)) != 0
    }

    /// The number of keys currently in the row.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the row contains no keys.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if this row and `other` share no key.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// The number of keys present in both this row and `other`.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the keys in increasing order.
    pub fn iter(&self) -> Iter<'a> {
        Iter::over(self.words, self.words)
    }

    /// Iterates over the keys in both this row and `other`, in
    /// increasing order: one word-level AND per word, then only the
    /// common bits one by one.
    ///
    /// # Panics
    ///
    /// Panics if `other.capacity()` differs from the row's.
    pub fn iter_and(&self, other: &'a BitSet) -> Iter<'a> {
        Iter::over(self.words, &other.words)
    }
}

impl std::fmt::Debug for BitRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for BitRow<'a> {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// A dense 2-D bit matrix stored as **one contiguous `Vec<u64>`**.
///
/// Each of the `rows` rows holds `capacity` columns packed into
/// `capacity.div_ceil(64)` words. This replaces `Vec<BitSet>` wherever a
/// family of equally sized sets is built together (adjacency rows,
/// per-block live sets): one allocation instead of one per row, and the
/// whole arena is exposed via [`BitMatrix::words`] for O(words)
/// fingerprinting.
///
/// # Examples
///
/// ```
/// use lra_graph::bitset::BitMatrix;
///
/// let mut m = BitMatrix::new(3, 100);
/// m.insert(0, 64);
/// m.insert(2, 5);
/// assert!(m.contains(0, 64));
/// assert_eq!(m.row(2).iter().collect::<Vec<_>>(), vec![5]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitMatrix {
    words: Vec<u64>,
    rows: usize,
    capacity: usize,
    wpr: usize,
}

impl BitMatrix {
    /// Creates an all-zero matrix of `rows` rows and `capacity` columns.
    pub fn new(rows: usize, capacity: usize) -> Self {
        let wpr = capacity.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * wpr],
            rows,
            capacity,
            wpr,
        }
    }

    /// The number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// The number of columns each row can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The whole arena: row 0's words, then row 1's, and so on. Exposed
    /// for cheap fingerprinting/serialisation.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn check(&self, r: usize, c: usize) {
        assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        assert!(
            c < self.capacity,
            "key {c} out of capacity {}",
            self.capacity
        );
    }

    /// Inserts column `c` into row `r`, returning `true` if it was not
    /// already present.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    pub fn insert(&mut self, r: usize, c: usize) -> bool {
        self.check(r, c);
        let w = r * self.wpr + c / 64;
        let bit = 1u64 << (c % 64);
        let was = self.words[w] & bit != 0;
        self.words[w] |= bit;
        !was
    }

    /// Removes column `c` from row `r`, returning `true` if it was
    /// present.
    pub fn remove(&mut self, r: usize, c: usize) -> bool {
        if r >= self.rows || c >= self.capacity {
            return false;
        }
        let w = r * self.wpr + c / 64;
        let bit = 1u64 << (c % 64);
        let was = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        was
    }

    /// Returns `true` if row `r` contains column `c`.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        if r >= self.rows || c >= self.capacity {
            return false;
        }
        self.words[r * self.wpr + c / 64] & (1 << (c % 64)) != 0
    }

    /// Word-level union of `other` into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `other.capacity()` differs from the column capacity.
    pub fn union_row_with(&mut self, r: usize, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let base = r * self.wpr;
        for (a, b) in self.words[base..base + self.wpr]
            .iter_mut()
            .zip(&other.words)
        {
            *a |= b;
        }
    }

    /// A borrowed view of row `r`.
    pub fn row(&self, r: usize) -> BitRow<'_> {
        let base = r * self.wpr;
        BitRow {
            words: &self.words[base..base + self.wpr],
            capacity: self.capacity,
        }
    }

    /// Makes a square matrix symmetric with an empty diagonal: row `c`
    /// gains `r` whenever row `r` holds `c`, and no row keeps itself.
    /// The mirror works on 64×64 word blocks — the transpose of block
    /// `(i, j)` (word `j` of rows `64 i ..`) is ORed into block `(j, i)`
    /// — so it costs O(n²/64) word operations whatever the edge count.
    pub(crate) fn close_symmetric(&mut self) {
        let (n, wpr) = (self.rows, self.wpr);
        debug_assert_eq!(n, self.capacity, "closure of a non-square matrix");
        for v in 0..n {
            self.words[v * wpr + v / 64] &= !(1 << (v % 64));
        }
        let rows = |i: usize| i * 64..n;
        for i in 0..wpr {
            for j in i..wpr {
                let mut upper = [0; 64];
                let mut lower = [0; 64];
                for (w, r) in upper.iter_mut().zip(rows(i)) {
                    *w = self.words[r * wpr + j];
                }
                for (w, r) in lower.iter_mut().zip(rows(j)) {
                    *w = self.words[r * wpr + i];
                }
                for (w, r) in transposed(upper).iter().zip(rows(j)) {
                    self.words[r * wpr + i] |= w;
                }
                for (w, r) in transposed(lower).iter().zip(rows(i)) {
                    self.words[r * wpr + j] |= w;
                }
            }
        }
    }

    /// The total number of set bits across all rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The heap bytes held by the arena (capacity, not just length).
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// The transpose of a 64×64 bit block (bit `c` of word `r` moves to bit
/// `r` of word `c`): six rounds of masked swaps, each exchanging the
/// off-diagonal `h×h` sub-blocks of every `2h×2h` tile.
fn transposed(mut a: [u64; 64]) -> [u64; 64] {
    let mut h = 32;
    let mut mask: u64 = 0x0000_0000_ffff_ffff;
    while h != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> h) ^ a[k + h]) & mask;
            a[k] ^= t << h;
            a[k + h] ^= t;
            k = (k + h + 1) & !h;
        }
        h >>= 1;
        mask ^= mask << h;
    }
    a
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitMatrix")
            .field("rows", &self.rows)
            .field("capacity", &self.capacity)
            .field("ones", &self.count_ones())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter_with_capacity(100, [1, 5, 64, 99]);
        let b = BitSet::from_iter_with_capacity(100, [5, 64]);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert_eq!(a.intersection_len(&b), 2);

        let mut c = a.clone();
        c.difference_with(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![1, 99]);
        assert!(c.is_disjoint(&b));

        let mut d = c.clone();
        d.union_with(&b);
        assert_eq!(d, a);

        let mut e = a.clone();
        e.intersect_with(&b);
        assert_eq!(e, b);
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let keys = [0, 63, 64, 127, 128];
        let s = BitSet::from_iter_with_capacity(200, keys);
        assert_eq!(s.iter().collect::<Vec<_>>(), keys.to_vec());
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(3);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let a = BitSet::from_iter_with_capacity(130, [1, 64, 129]);
        let mut b = BitSet::new(130);
        b.insert(7);
        b.copy_from(&a);
        assert_eq!(a, b);
        assert!(!b.contains(7));
    }

    #[test]
    fn words_expose_backing_storage() {
        let s = BitSet::from_iter_with_capacity(70, [0, 65]);
        assert_eq!(s.words(), &[1u64, 2u64]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = BitSet::new(4);
        assert_eq!(format!("{s:?}"), "{}");
    }

    #[test]
    fn transposed_matches_the_bitwise_transpose() {
        let mut a = [0u64; 64];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for w in a.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        let t = transposed(a);
        for (r, row) in a.iter().enumerate() {
            for (c, col) in t.iter().enumerate() {
                assert_eq!(col >> r & 1, row >> c & 1, "bit ({r}, {c})");
            }
        }
        assert_eq!(transposed(t), a);
    }

    #[test]
    fn matrix_insert_remove_contains() {
        let mut m = BitMatrix::new(3, 130);
        assert!(m.insert(0, 129));
        assert!(!m.insert(0, 129));
        assert!(m.insert(2, 0));
        assert!(m.contains(0, 129));
        assert!(!m.contains(1, 129));
        assert!(m.remove(0, 129));
        assert!(!m.remove(0, 129));
        assert!(!m.contains(0, 129));
        assert_eq!(m.count_ones(), 1);
        // Out-of-range queries are false, not panics.
        assert!(!m.contains(3, 0));
        assert!(!m.contains(0, 130));
        assert!(!m.remove(3, 0));
    }

    #[test]
    fn matrix_rows_are_isolated() {
        // Rows must not bleed into each other even with a ragged tail
        // word (capacity not a multiple of 64).
        let mut m = BitMatrix::new(2, 70);
        m.insert(0, 69);
        m.insert(1, 0);
        assert_eq!(m.row(0).iter().collect::<Vec<_>>(), vec![69]);
        assert_eq!(m.row(1).iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(m.words().len(), 4);
    }

    #[test]
    fn matrix_union_row_with_bitset() {
        let mut m = BitMatrix::new(2, 100);
        let s = BitSet::from_iter_with_capacity(100, [1, 64, 99]);
        m.union_row_with(1, &s);
        m.insert(1, 2);
        assert_eq!(m.row(1).iter().collect::<Vec<_>>(), vec![1, 2, 64, 99]);
        assert!(m.row(0).is_empty());
    }

    #[test]
    fn row_view_matches_bitset_semantics() {
        let mut m = BitMatrix::new(1, 100);
        for k in [1, 5, 64, 99] {
            m.insert(0, k);
        }
        let row = m.row(0);
        let b = BitSet::from_iter_with_capacity(100, [5, 64]);
        assert!(row.contains(5));
        assert!(!row.contains(6));
        assert!(!row.contains(200));
        assert_eq!(row.len(), 4);
        assert!(!row.is_empty());
        assert_eq!(row.intersection_len(&b), 2);
        assert!(!row.is_disjoint(&b));
        assert_eq!(row.capacity(), 100);
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![1, 5, 64, 99]);
        assert_eq!(format!("{row:?}"), "{1, 5, 64, 99}");
        let empty = BitSet::new(100);
        assert!(row.is_disjoint(&empty));
    }

    #[test]
    fn bitset_algebra_against_rows() {
        let mut m = BitMatrix::new(1, 100);
        for k in [2, 3, 64] {
            m.insert(0, k);
        }
        let mut s = BitSet::from_iter_with_capacity(100, [1, 2, 64, 99]);
        s.difference_with_row(m.row(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 99]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn matrix_insert_out_of_capacity_panics() {
        let mut m = BitMatrix::new(2, 4);
        m.insert(0, 4);
    }
}
