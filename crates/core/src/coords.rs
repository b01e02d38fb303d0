//! Doubled coordinates for the rotated surface code.
//!
//! Data qubits sit at odd–odd positions `(x, y)`; stabilizer faces
//! (syndrome/ancilla qubits) at even–even positions. A face's color is
//! determined by the parity of `p = (x + y) / 2`: even parity is a
//! Z-type face, odd parity an X-type face, so colors checkerboard and
//! the two Z-faces (X-faces) of a data qubit lie on one diagonal of it.

use dqec_sim::circuit::CheckBasis;

/// A position in the doubled coordinate system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Horizontal position (grows rightward).
    pub x: i32,
    /// Vertical position (grows downward).
    pub y: i32,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: i32, y: i32) -> Self {
        Coord { x, y }
    }

    /// Whether this is a data-qubit site (both coordinates odd).
    pub fn is_data_site(self) -> bool {
        self.x.rem_euclid(2) == 1 && self.y.rem_euclid(2) == 1
    }

    /// Whether this is a face (syndrome-qubit) site (both even).
    pub fn is_face_site(self) -> bool {
        self.x.rem_euclid(2) == 0 && self.y.rem_euclid(2) == 0
    }

    /// The stabilizer basis of a face at this site.
    ///
    /// # Panics
    ///
    /// Panics if this is not a face site.
    pub fn face_basis(self) -> CheckBasis {
        assert!(self.is_face_site(), "{self:?} is not a face site");
        if ((self.x + self.y) / 2).rem_euclid(2) == 0 {
            CheckBasis::Z
        } else {
            CheckBasis::X
        }
    }

    /// The four diagonal neighbours (data of a face, faces of a data).
    pub fn diagonal_neighbors(self) -> [Coord; 4] {
        [
            Coord::new(self.x - 1, self.y - 1),
            Coord::new(self.x + 1, self.y - 1),
            Coord::new(self.x - 1, self.y + 1),
            Coord::new(self.x + 1, self.y + 1),
        ]
    }

    /// The two face sites of the given basis adjacent to this data site.
    ///
    /// # Panics
    ///
    /// Panics if this is not a data site.
    pub fn face_sites_of_basis(self, basis: CheckBasis) -> [Coord; 2] {
        assert!(self.is_data_site(), "{self:?} is not a data site");
        let diag = self.diagonal_neighbors();
        let mut out = [Coord::new(0, 0); 2];
        let mut n = 0;
        for c in diag {
            if c.face_basis() == basis {
                out[n] = c;
                n += 1;
            }
        }
        assert_eq!(n, 2, "every data site has two faces of each basis");
        out
    }

    /// Chebyshev (L-infinity) distance to another coordinate.
    pub fn chebyshev(self, other: Coord) -> i32 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// The four sides of a patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// y = 0 boundary.
    Top,
    /// y = 2·height boundary.
    Bottom,
    /// x = 0 boundary.
    Left,
    /// x = 2·width boundary.
    Right,
}

impl Side {
    /// All four sides in deterministic order.
    pub const ALL: [Side; 4] = [Side::Top, Side::Bottom, Side::Left, Side::Right];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_classification() {
        assert!(Coord::new(1, 3).is_data_site());
        assert!(!Coord::new(1, 2).is_data_site());
        assert!(Coord::new(2, 4).is_face_site());
        assert!(!Coord::new(2, 3).is_face_site());
    }

    #[test]
    fn face_colors_checkerboard() {
        assert_eq!(Coord::new(2, 2).face_basis(), CheckBasis::Z);
        assert_eq!(Coord::new(4, 2).face_basis(), CheckBasis::X);
        assert_eq!(Coord::new(2, 4).face_basis(), CheckBasis::X);
        assert_eq!(Coord::new(4, 4).face_basis(), CheckBasis::Z);
        assert_eq!(Coord::new(0, 0).face_basis(), CheckBasis::Z);
    }

    #[test]
    fn data_faces_split_by_diagonal() {
        let d = Coord::new(3, 3);
        let z = d.face_sites_of_basis(CheckBasis::Z);
        let x = d.face_sites_of_basis(CheckBasis::X);
        // Z faces of (3,3) are its even-parity diagonal pair (2,2), (4,4).
        assert!(z.contains(&Coord::new(2, 2)) && z.contains(&Coord::new(4, 4)));
        assert!(x.contains(&Coord::new(4, 2)) && x.contains(&Coord::new(2, 4)));
        for f in z {
            assert_eq!(f.face_basis(), CheckBasis::Z);
        }
        for f in x {
            assert_eq!(f.face_basis(), CheckBasis::X);
        }
    }

    #[test]
    fn chebyshev_distance() {
        assert_eq!(Coord::new(0, 0).chebyshev(Coord::new(3, -4)), 4);
        assert_eq!(Coord::new(1, 1).chebyshev(Coord::new(1, 1)), 0);
    }

    #[test]
    fn negative_coords_classify_correctly() {
        assert!(Coord::new(-1, 1).is_data_site());
        assert!(Coord::new(-2, 0).is_face_site());
        assert_eq!(Coord::new(-2, 0).face_basis(), CheckBasis::X);
    }
}
