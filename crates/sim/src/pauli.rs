//! Single-qubit Pauli operators: the supports of the depolarizing
//! channels the frame sampler draws from, as `(x, z)` symplectic bits.

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
}

/// Number of 64-bit words needed to hold `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Pauli::*;

    /// The symplectic product of two Paulis' `(x, z)` bits.
    fn anticommute(a: Pauli, b: Pauli) -> bool {
        let ((x1, z1), (x2, z2)) = (a.xz(), b.xz());
        (x1 & z2) ^ (z1 & x2)
    }

    #[test]
    fn pauli_commutation_table() {
        for p in [I, X, Y, Z] {
            assert!(!anticommute(p, p));
            assert!(!anticommute(p, I));
            assert!(!anticommute(I, p));
        }
        assert!(anticommute(X, Z));
        assert!(anticommute(X, Y));
        assert!(anticommute(Y, Z));
    }

    #[test]
    fn pauli_products() {
        // XOR of the bits is the product up to phase.
        let mul = |a: Pauli, b: Pauli| {
            let ((x1, z1), (x2, z2)) = (a.xz(), b.xz());
            (x1 ^ x2, z1 ^ z2)
        };
        assert_eq!(mul(X, Z), Y.xz());
        assert_eq!(mul(X, Y), Z.xz());
        assert_eq!(mul(Y, Z), X.xz());
        assert_eq!(mul(X, X), I.xz());
    }
}
