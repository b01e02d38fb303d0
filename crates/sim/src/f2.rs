//! Dense linear algebra over the two-element field F2.
//!
//! Used for code validation: computing ranks of check matrices, the
//! radical of a symplectic subspace (the stabilizer part of a gauge
//! group) and hence the number of encoded logical qubits.

use crate::pauli::words_for;

/// A dense bit matrix over F2 with row-major 64-bit word packing.
///
/// # Examples
///
/// ```
/// use dqec_sim::f2::BitMatrix;
///
/// let mut m = BitMatrix::zeros(2, 3);
/// m.set(0, 0, true);
/// m.set(0, 2, true);
/// m.set(1, 2, true);
/// assert_eq!(m.rank(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = words_for(cols).max(1);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// The number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads the bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        (self.data[r * self.words_per_row + c / 64] >> (c % 64)) & 1 == 1
    }

    /// Writes the bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        let w = r * self.words_per_row + c / 64;
        let b = c % 64;
        self.data[w] = (self.data[w] & !(1 << b)) | ((v as u64) << b);
    }

    /// XORs row `src` into row `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range or the rows are equal.
    pub fn xor_row_into(&mut self, src: usize, dst: usize) {
        assert!(
            src < self.rows && dst < self.rows && src != dst,
            "bad row pair {src},{dst}"
        );
        let w = self.words_per_row;
        let (a, b) = if src < dst {
            let (lo, hi) = self.data.split_at_mut(dst * w);
            (&lo[src * w..src * w + w], &mut hi[..w])
        } else {
            let (lo, hi) = self.data.split_at_mut(src * w);
            let dst_slice = &mut lo[dst * w..dst * w + w];
            // Borrow trick: we need src row immutably and dst mutably.
            (&hi[..w], dst_slice)
        };
        for (d, s) in b.iter_mut().zip(a) {
            *d ^= s;
        }
    }

    /// The rank of the matrix (destructive elimination on a clone).
    pub fn rank(&self) -> usize {
        self.clone().rank_in_place()
    }

    /// Reduces the matrix to row echelon form and returns its rank.
    pub fn rank_in_place(&mut self) -> usize {
        let mut rank = 0;
        for c in 0..self.cols {
            if rank == self.rows {
                break;
            }
            // Find a pivot at or below `rank` in column c.
            let Some(p) = (rank..self.rows).find(|&r| self.get(r, c)) else {
                continue;
            };
            self.swap_rows(rank, p);
            for r in 0..self.rows {
                if r != rank && self.get(r, c) {
                    self.xor_row_into(rank, r);
                }
            }
            rank += 1;
        }
        rank
    }

    /// Swaps two rows.
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row out of range");
        if a == b {
            return;
        }
        let w = self.words_per_row;
        for i in 0..w {
            self.data.swap(a * w + i, b * w + i);
        }
    }
}

/// A set of Pauli operators encoded as symplectic F2 row vectors
/// `(x | z)` over `n` qubits, with utilities for rank and radical
/// computations.
///
/// The symplectic product of rows `u = (ux | uz)` and `v = (vx | vz)` is
/// `ux·vz + uz·vx (mod 2)`; it is 1 exactly when the Paulis anticommute.
#[derive(Debug, Clone)]
pub struct SymplecticSpace {
    num_qubits: usize,
    rows: Vec<(Vec<u64>, Vec<u64>)>,
}

impl SymplecticSpace {
    /// Creates an empty operator set over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        SymplecticSpace {
            num_qubits,
            rows: Vec::new(),
        }
    }

    /// The number of generator rows added so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no generators have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds a Pauli operator given its X- and Z-support qubit lists.
    ///
    /// # Panics
    ///
    /// Panics if any listed qubit is `>= num_qubits`.
    pub fn push_support(&mut self, x_support: &[usize], z_support: &[usize]) {
        let w = words_for(self.num_qubits).max(1);
        let mut xs = vec![0u64; w];
        let mut zs = vec![0u64; w];
        for &q in x_support {
            assert!(q < self.num_qubits, "qubit {q} out of range");
            xs[q / 64] ^= 1 << (q % 64);
        }
        for &q in z_support {
            assert!(q < self.num_qubits, "qubit {q} out of range");
            zs[q / 64] ^= 1 << (q % 64);
        }
        self.rows.push((xs, zs));
    }

    /// Whether generators `i` and `j` anticommute.
    pub fn anticommute(&self, i: usize, j: usize) -> bool {
        let (xi, zi) = &self.rows[i];
        let (xj, zj) = &self.rows[j];
        let mut acc = 0u32;
        for k in 0..xi.len() {
            acc ^= (xi[k] & zj[k]).count_ones() ^ (zi[k] & xj[k]).count_ones();
        }
        acc & 1 == 1
    }

    /// The rank of the generator set as F2 vectors.
    pub fn rank(&self) -> usize {
        self.to_bit_matrix().rank_in_place()
    }

    /// The number of logical qubits of a (subsystem) code whose measured
    /// checks generate this operator set.
    ///
    /// With `r` = F2-rank of the generators and `c` = dim of the radical,
    /// the code has `g = (r - c) / 2` gauge qubits and
    /// `k = n - c - g = n - (r + c) / 2` logical qubits.
    pub fn logical_qubit_count(&self) -> usize {
        let (r, c) = self.rank_and_radical();
        self.num_qubits - (r + c) / 2
    }

    /// Returns `(rank, radical dimension)` of the generator span. The
    /// radical is the part of the span that commutes with the whole
    /// span (the "stabilizer part" of a gauge group); for rank `r` its
    /// dimension is `r - rank(G)`, with `G` the Gram matrix of the
    /// symplectic form on the generators.
    pub fn rank_and_radical(&self) -> (usize, usize) {
        let r = self.rank();
        let m = self.rows.len();
        let mut gram = BitMatrix::zeros(m, m.max(1));
        for i in 0..m {
            for j in (i + 1)..m {
                if self.anticommute(i, j) {
                    gram.set(i, j, true);
                    gram.set(j, i, true);
                }
            }
        }
        let gram_rank = gram.rank_in_place();
        (r, r - gram_rank)
    }

    fn to_bit_matrix(&self) -> BitMatrix {
        let mut m = BitMatrix::zeros(self.rows.len(), 2 * self.num_qubits);
        for (i, (xs, zs)) in self.rows.iter().enumerate() {
            for q in 0..self.num_qubits {
                if (xs[q / 64] >> (q % 64)) & 1 == 1 {
                    m.set(i, q, true);
                }
                if (zs[q / 64] >> (q % 64)) & 1 == 1 {
                    m.set(i, self.num_qubits + q, true);
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmatrix_rank_simple() {
        let mut m = BitMatrix::zeros(3, 3);
        m.set(0, 0, true);
        m.set(1, 1, true);
        m.set(2, 0, true);
        m.set(2, 1, true);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn bitmatrix_rank_identity_wide() {
        let mut m = BitMatrix::zeros(4, 100);
        for i in 0..4 {
            m.set(i, 90 + i, true);
        }
        assert_eq!(m.rank(), 4);
    }

    #[test]
    fn bitmatrix_xor_rows() {
        let mut m = BitMatrix::zeros(2, 70);
        m.set(0, 69, true);
        m.set(1, 69, true);
        m.set(1, 0, true);
        m.xor_row_into(0, 1);
        assert!(!m.get(1, 69));
        assert!(m.get(1, 0));
        m.xor_row_into(1, 0);
        assert!(m.get(0, 0));
        assert!(m.get(0, 69));
    }

    #[test]
    fn repetition_code_logical_count() {
        // 3-qubit repetition code: checks Z0Z1, Z1Z2 -> k = 1.
        let mut s = SymplecticSpace::new(3);
        s.push_support(&[], &[0, 1]);
        s.push_support(&[], &[1, 2]);
        assert_eq!(s.logical_qubit_count(), 1);
    }

    #[test]
    fn bacon_shor_like_gauge_counting() {
        // 4 qubits with gauge checks X0X1, Z1Z2 anticommute? X0X1 vs Z1Z2
        // overlap on qubit 1 -> anticommute. rank 2, radical 0 ->
        // g = 1, k = 4 - 1 = 3.
        let mut s = SymplecticSpace::new(4);
        s.push_support(&[0, 1], &[]);
        s.push_support(&[], &[1, 2]);
        assert!(s.anticommute(0, 1));
        let (r, c) = s.rank_and_radical();
        assert_eq!((r, c), (2, 0));
        assert_eq!(s.logical_qubit_count(), 3);
    }

    #[test]
    fn surface_code_d3_has_one_logical() {
        // Hand-coded d=3 rotated surface code: 9 data qubits indexed
        //   0 1 2
        //   3 4 5
        //   6 7 8
        // X checks: {0,1}, {1,2,4,5}, {3,4,6,7}, {7,8}
        // Z checks: {0,1,3,4}, {2,5}, {3,6}, {4,5,7,8}
        let mut s = SymplecticSpace::new(9);
        s.push_support(&[0, 1], &[]);
        s.push_support(&[1, 2, 4, 5], &[]);
        s.push_support(&[3, 4, 6, 7], &[]);
        s.push_support(&[7, 8], &[]);
        s.push_support(&[], &[0, 1, 3, 4]);
        s.push_support(&[], &[2, 5]);
        s.push_support(&[], &[3, 6]);
        s.push_support(&[], &[4, 5, 7, 8]);
        let (r, c) = s.rank_and_radical();
        assert_eq!((r, c), (8, 8), "all checks commute and are independent");
        assert_eq!(s.logical_qubit_count(), 1);
    }

    #[test]
    fn duplicate_generators_do_not_change_k() {
        let mut s = SymplecticSpace::new(3);
        s.push_support(&[], &[0, 1]);
        s.push_support(&[], &[1, 2]);
        s.push_support(&[], &[0, 2]); // dependent
        assert_eq!(s.rank(), 2);
        assert_eq!(s.logical_qubit_count(), 1);
    }
}
