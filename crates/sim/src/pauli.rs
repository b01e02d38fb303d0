//! Pauli operators and dense, bit-packed Pauli strings.
//!
//! A Pauli string over `n` qubits is stored as two bit vectors `xs` and
//! `zs`: qubit `q` carries `X` when only `xs[q]` is set, `Z` when only
//! `zs[q]` is set, and `Y` when both are set. Global phases are tracked
//! only where an algorithm needs them (the tableau simulator keeps its
//! own sign bits).

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pauli {
    /// The identity.
    #[default]
    I,
    /// The bit-flip operator.
    X,
    /// The combined bit- and phase-flip operator.
    Y,
    /// The phase-flip operator.
    Z,
}

impl Pauli {
    /// All fifteen non-identity two-qubit Pauli pairs, in a fixed order.
    ///
    /// This is the support of the two-qubit depolarizing channel.
    pub const TWO_QUBIT_ERRORS: [(Pauli, Pauli); 15] = [
        (Pauli::I, Pauli::X),
        (Pauli::I, Pauli::Y),
        (Pauli::I, Pauli::Z),
        (Pauli::X, Pauli::I),
        (Pauli::X, Pauli::X),
        (Pauli::X, Pauli::Y),
        (Pauli::X, Pauli::Z),
        (Pauli::Y, Pauli::I),
        (Pauli::Y, Pauli::X),
        (Pauli::Y, Pauli::Y),
        (Pauli::Y, Pauli::Z),
        (Pauli::Z, Pauli::I),
        (Pauli::Z, Pauli::X),
        (Pauli::Z, Pauli::Y),
        (Pauli::Z, Pauli::Z),
    ];

    /// The single-qubit depolarizing support: `X`, `Y`, `Z`.
    pub const ONE_QUBIT_ERRORS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// Returns the `(x, z)` symplectic component bits of this Pauli.
    #[inline]
    pub fn xz(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Builds a Pauli from its symplectic component bits.
    #[inline]
    pub fn from_xz(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Whether this Pauli anticommutes with `other`.
    #[inline]
    pub fn anticommutes_with(self, other: Pauli) -> bool {
        let (x1, z1) = self.xz();
        let (x2, z2) = other.xz();
        (x1 & z2) ^ (z1 & x2)
    }

    /// The product of two Paulis, ignoring phase.
    #[inline]
    pub fn mul_ignoring_phase(self, other: Pauli) -> Pauli {
        let (x1, z1) = self.xz();
        let (x2, z2) = other.xz();
        Pauli::from_xz(x1 ^ x2, z1 ^ z2)
    }
}

impl std::fmt::Display for Pauli {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// Number of 64-bit words needed to hold `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// A dense, bit-packed Pauli string over a fixed number of qubits.
///
/// # Examples
///
/// ```
/// use dqec_sim::pauli::{Pauli, PauliString};
///
/// let mut s = PauliString::identity(4);
/// s.set(1, Pauli::X);
/// s.set(2, Pauli::Z);
/// assert_eq!(s.get(1), Pauli::X);
/// assert_eq!(s.weight(), 2);
/// assert_eq!(s.to_string(), "IXZI");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    num_qubits: usize,
    xs: Vec<u64>,
    zs: Vec<u64>,
}

impl PauliString {
    /// Creates the identity string on `num_qubits` qubits.
    pub fn identity(num_qubits: usize) -> Self {
        let w = words_for(num_qubits);
        PauliString {
            num_qubits,
            xs: vec![0; w],
            zs: vec![0; w],
        }
    }

    /// Creates a string from explicit per-qubit Paulis.
    pub fn from_paulis<I: IntoIterator<Item = Pauli>>(paulis: I) -> Self {
        let paulis: Vec<Pauli> = paulis.into_iter().collect();
        let mut s = PauliString::identity(paulis.len());
        for (q, p) in paulis.iter().enumerate() {
            s.set(q, *p);
        }
        s
    }

    /// Creates a string that applies `pauli` to the listed qubits.
    ///
    /// # Panics
    ///
    /// Panics if any listed qubit is `>= num_qubits`.
    pub fn from_support(num_qubits: usize, pauli: Pauli, support: &[usize]) -> Self {
        let mut s = PauliString::identity(num_qubits);
        for &q in support {
            s.set(q, pauli);
        }
        s
    }

    /// The number of qubits this string acts on.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The Pauli applied to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_qubits`.
    #[inline]
    pub fn get(&self, q: usize) -> Pauli {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let (w, b) = (q / 64, q % 64);
        Pauli::from_xz((self.xs[w] >> b) & 1 == 1, (self.zs[w] >> b) & 1 == 1)
    }

    /// Sets the Pauli applied to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_qubits`.
    #[inline]
    pub fn set(&mut self, q: usize, p: Pauli) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let (w, b) = (q / 64, q % 64);
        let (x, z) = p.xz();
        self.xs[w] = (self.xs[w] & !(1 << b)) | ((x as u64) << b);
        self.zs[w] = (self.zs[w] & !(1 << b)) | ((z as u64) << b);
    }

    /// The number of qubits on which the string is not the identity.
    pub fn weight(&self) -> usize {
        self.xs
            .iter()
            .zip(&self.zs)
            .map(|(x, z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// Whether the string is the identity.
    pub fn is_identity(&self) -> bool {
        self.xs.iter().all(|&w| w == 0) && self.zs.iter().all(|&w| w == 0)
    }

    /// Whether this string anticommutes with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on different qubit counts.
    pub fn anticommutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        let mut acc = 0u32;
        for i in 0..self.xs.len() {
            acc ^=
                (self.xs[i] & other.zs[i]).count_ones() ^ (self.zs[i] & other.xs[i]).count_ones();
        }
        acc & 1 == 1
    }

    /// Multiplies `other` into this string, ignoring the global phase.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on different qubit counts.
    pub fn mul_ignoring_phase(&mut self, other: &PauliString) {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        for i in 0..self.xs.len() {
            self.xs[i] ^= other.xs[i];
            self.zs[i] ^= other.zs[i];
        }
    }

    /// Iterates over the qubits in the string's support with their Paulis.
    pub fn iter_support(&self) -> impl Iterator<Item = (usize, Pauli)> + '_ {
        (0..self.num_qubits).filter_map(move |q| {
            let p = self.get(q);
            (p != Pauli::I).then_some((q, p))
        })
    }

    /// The raw X-component words (low bit of word 0 is qubit 0).
    pub fn x_words(&self) -> &[u64] {
        &self.xs
    }

    /// The raw Z-component words.
    pub fn z_words(&self) -> &[u64] {
        &self.zs
    }
}

impl std::fmt::Display for PauliString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for q in 0..self.num_qubits {
            write!(f, "{}", self.get(q))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_commutation_table() {
        use Pauli::*;
        for p in [I, X, Y, Z] {
            assert!(!p.anticommutes_with(p));
            assert!(!p.anticommutes_with(I));
            assert!(!I.anticommutes_with(p));
        }
        assert!(X.anticommutes_with(Z));
        assert!(X.anticommutes_with(Y));
        assert!(Y.anticommutes_with(Z));
    }

    #[test]
    fn pauli_products() {
        use Pauli::*;
        assert_eq!(X.mul_ignoring_phase(Z), Y);
        assert_eq!(X.mul_ignoring_phase(Y), Z);
        assert_eq!(Y.mul_ignoring_phase(Z), X);
        assert_eq!(X.mul_ignoring_phase(X), I);
    }

    #[test]
    fn string_set_get_roundtrip() {
        let mut s = PauliString::identity(130);
        s.set(0, Pauli::X);
        s.set(63, Pauli::Y);
        s.set(64, Pauli::Z);
        s.set(129, Pauli::Y);
        assert_eq!(s.get(0), Pauli::X);
        assert_eq!(s.get(63), Pauli::Y);
        assert_eq!(s.get(64), Pauli::Z);
        assert_eq!(s.get(129), Pauli::Y);
        assert_eq!(s.get(1), Pauli::I);
        assert_eq!(s.weight(), 4);
    }

    #[test]
    fn string_commutation_matches_pairwise_count() {
        let a = PauliString::from_paulis([Pauli::X, Pauli::X, Pauli::I]);
        let b = PauliString::from_paulis([Pauli::Z, Pauli::I, Pauli::Z]);
        // Overlap on qubit 0 only: X vs Z anticommutes once -> strings anticommute.
        assert!(a.anticommutes_with(&b));
        let c = PauliString::from_paulis([Pauli::Z, Pauli::Z, Pauli::I]);
        // Two anticommuting positions -> strings commute.
        assert!(!a.anticommutes_with(&c));
    }

    #[test]
    fn string_product_is_componentwise() {
        let mut a = PauliString::from_paulis([Pauli::X, Pauli::Y, Pauli::I]);
        let b = PauliString::from_paulis([Pauli::Z, Pauli::Y, Pauli::X]);
        a.mul_ignoring_phase(&b);
        assert_eq!(a.to_string(), "YIX");
    }

    #[test]
    fn from_support_sets_listed_qubits() {
        let s = PauliString::from_support(5, Pauli::Z, &[0, 2, 4]);
        assert_eq!(s.to_string(), "ZIZIZ");
        assert_eq!(s.weight(), 3);
    }

    #[test]
    fn iter_support_skips_identity() {
        let s = PauliString::from_paulis([Pauli::I, Pauli::X, Pauli::I, Pauli::Z]);
        let got: Vec<_> = s.iter_support().collect();
        assert_eq!(got, vec![(1, Pauli::X), (3, Pauli::Z)]);
    }
}
