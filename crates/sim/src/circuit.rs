//! Stabilizer circuit intermediate representation.
//!
//! Circuits are sequences of Clifford gates, resets, Z-basis
//! measurements and Pauli noise channels, annotated with *detectors*
//! (parities of measurement records that are deterministic in the
//! noiseless circuit) and *logical observables* (tracked parities whose
//! flips define logical errors). This mirrors the Stim circuit model the
//! paper's artifact is built on.

use crate::error::SimError;

/// Single-qubit Clifford gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate1 {
    /// Hadamard: X <-> Z.
    H,
    /// Phase gate: X -> Y, Z -> Z.
    S,
    /// Pauli X (no effect on frames; kept for circuit fidelity).
    X,
    /// Pauli Z (no effect on frames; kept for circuit fidelity).
    Z,
}

/// Two-qubit Clifford gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate2 {
    /// Controlled-X with the first target as control.
    Cx,
    /// Controlled-Z (symmetric).
    Cz,
}

/// Single-qubit Pauli noise channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise1 {
    /// Applies X with the given probability.
    XError,
    /// Applies Z with the given probability.
    ZError,
    /// Applies a uniformly random non-identity Pauli with the given
    /// total probability (each of X, Y, Z with p/3).
    Depolarize1,
}

/// One operation in a circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// A single-qubit Clifford gate.
    Gate1 {
        /// Which gate.
        kind: Gate1,
        /// Target qubit.
        q: u32,
    },
    /// A two-qubit Clifford gate.
    Gate2 {
        /// Which gate.
        kind: Gate2,
        /// First qubit (control for CX).
        a: u32,
        /// Second qubit (target for CX).
        b: u32,
    },
    /// Z-basis reset to |0>.
    Reset {
        /// Target qubit.
        q: u32,
    },
    /// Z-basis measurement; appends one measurement record.
    Measure {
        /// Target qubit.
        q: u32,
    },
    /// Single-qubit noise channel.
    Noise1 {
        /// Which channel.
        kind: Noise1,
        /// Target qubit.
        q: u32,
        /// Firing probability.
        p: f64,
    },
    /// Two-qubit depolarizing channel (each of the 15 non-identity
    /// Pauli pairs with probability p/15).
    Depolarize2 {
        /// First qubit.
        a: u32,
        /// Second qubit.
        b: u32,
        /// Total firing probability.
        p: f64,
    },
    /// Layer separator; semantically inert.
    Tick,
}

/// The stabilizer basis a detector compares, used to split the detector
/// set into the two CSS decoding graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckBasis {
    /// An X-type stabilizer or super-stabilizer comparison.
    X,
    /// A Z-type stabilizer or super-stabilizer comparison.
    Z,
}

impl CheckBasis {
    /// The opposite basis.
    pub fn flipped(self) -> CheckBasis {
        match self {
            CheckBasis::X => CheckBasis::Z,
            CheckBasis::Z => CheckBasis::X,
        }
    }
}

/// A detector: a parity of measurement records that is deterministic in
/// the absence of noise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detector {
    /// Absolute measurement-record indices whose parity forms the
    /// detector.
    pub records: Vec<u32>,
    /// Which CSS decoding graph the detector belongs to.
    pub basis: CheckBasis,
    /// Spacetime coordinate `(x, y, t)` for diagnostics and graph
    /// construction heuristics.
    pub coord: (i32, i32, i32),
}

/// A handle to a measurement record returned by [`Circuit::measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MeasRecord(pub u32);

/// A stabilizer circuit with detector and observable annotations.
///
/// Build circuits through the mutating methods; each `measure` returns a
/// [`MeasRecord`] handle that detectors and observables can reference.
///
/// # Examples
///
/// ```
/// use dqec_sim::circuit::{CheckBasis, Circuit};
///
/// let mut c = Circuit::new(2);
/// c.reset(0)?;
/// c.reset(1)?;
/// c.cx(0, 1)?;
/// let m = c.measure(1)?;
/// c.add_detector(&[m], CheckBasis::Z, (0, 0, 0))?;
/// assert_eq!(c.num_measurements(), 1);
/// # Ok::<(), dqec_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    num_qubits: u32,
    ops: Vec<Op>,
    num_measurements: u32,
    detectors: Vec<Detector>,
    observables: Vec<Vec<u32>>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: u32) -> Self {
        Circuit {
            num_qubits,
            ops: Vec::new(),
            num_measurements: 0,
            detectors: Vec::new(),
            observables: Vec::new(),
        }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The operations in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The number of measurement records the circuit produces.
    pub fn num_measurements(&self) -> u32 {
        self.num_measurements
    }

    /// The detectors, in definition order (detector id = index).
    pub fn detectors(&self) -> &[Detector] {
        &self.detectors
    }

    /// The observables; observable id = index, value = record indices.
    pub fn observables(&self) -> &[Vec<u32>] {
        &self.observables
    }

    /// Total count of noise-channel operations (diagnostics).
    pub fn num_noise_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Noise1 { .. } | Op::Depolarize2 { .. }))
            .count()
    }

    /// Appends `op` as the checked builders would, without checking it:
    /// a noise op with `p == 0` is dropped and a measurement takes the
    /// next record. For replaying the ops of a validated circuit over
    /// the same qubits.
    pub(crate) fn push_unchecked(&mut self, op: Op) {
        match op {
            Op::Noise1 { p, .. } | Op::Depolarize2 { p, .. } if p <= 0.0 => return,
            Op::Measure { .. } => self.num_measurements += 1,
            _ => {}
        }
        self.ops.push(op);
    }

    /// Copies `other`'s detectors and observables, which must refer only
    /// to records this circuit has.
    pub(crate) fn copy_annotations_from(&mut self, other: &Circuit) {
        debug_assert!(self.num_measurements >= other.num_measurements);
        self.detectors = other.detectors.clone();
        self.observables = other.observables.clone();
    }

    fn check_qubit(&self, q: u32) -> Result<(), SimError> {
        if q >= self.num_qubits {
            Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits,
            })
        } else {
            Ok(())
        }
    }

    fn check_pair(&self, a: u32, b: u32) -> Result<(), SimError> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        if a == b {
            return Err(SimError::RepeatedQubit { qubit: a });
        }
        Ok(())
    }

    fn check_prob(p: f64) -> Result<(), SimError> {
        if !(0.0..=1.0).contains(&p) {
            Err(SimError::InvalidProbability { p })
        } else {
            Ok(())
        }
    }

    /// Appends a Hadamard gate.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is out of range.
    pub fn h(&mut self, q: u32) -> Result<(), SimError> {
        self.check_qubit(q)?;
        self.ops.push(Op::Gate1 { kind: Gate1::H, q });
        Ok(())
    }

    /// Appends an S (phase) gate.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is out of range.
    pub fn s(&mut self, q: u32) -> Result<(), SimError> {
        self.check_qubit(q)?;
        self.ops.push(Op::Gate1 { kind: Gate1::S, q });
        Ok(())
    }

    /// Appends a Pauli X gate.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is out of range.
    pub fn x(&mut self, q: u32) -> Result<(), SimError> {
        self.check_qubit(q)?;
        self.ops.push(Op::Gate1 { kind: Gate1::X, q });
        Ok(())
    }

    /// Appends a Pauli Z gate.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is out of range.
    pub fn z(&mut self, q: u32) -> Result<(), SimError> {
        self.check_qubit(q)?;
        self.ops.push(Op::Gate1 { kind: Gate1::Z, q });
        Ok(())
    }

    /// Appends a CX gate with control `c` and target `t`.
    ///
    /// # Errors
    ///
    /// Returns an error if a qubit is out of range or `c == t`.
    pub fn cx(&mut self, c: u32, t: u32) -> Result<(), SimError> {
        self.check_pair(c, t)?;
        self.ops.push(Op::Gate2 {
            kind: Gate2::Cx,
            a: c,
            b: t,
        });
        Ok(())
    }

    /// Appends a CZ gate.
    ///
    /// # Errors
    ///
    /// Returns an error if a qubit is out of range or `a == b`.
    pub fn cz(&mut self, a: u32, b: u32) -> Result<(), SimError> {
        self.check_pair(a, b)?;
        self.ops.push(Op::Gate2 {
            kind: Gate2::Cz,
            a,
            b,
        });
        Ok(())
    }

    /// Appends a Z-basis reset.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is out of range.
    pub fn reset(&mut self, q: u32) -> Result<(), SimError> {
        self.check_qubit(q)?;
        self.ops.push(Op::Reset { q });
        Ok(())
    }

    /// Appends a Z-basis measurement and returns its record handle.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is out of range.
    pub fn measure(&mut self, q: u32) -> Result<MeasRecord, SimError> {
        self.check_qubit(q)?;
        self.ops.push(Op::Measure { q });
        let r = MeasRecord(self.num_measurements);
        self.num_measurements += 1;
        Ok(r)
    }

    /// Appends a measure-and-reset pair and returns the record handle.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is out of range.
    pub fn measure_reset(&mut self, q: u32) -> Result<MeasRecord, SimError> {
        let r = self.measure(q)?;
        self.reset(q)?;
        Ok(r)
    }

    /// Appends a single-qubit noise channel.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is out of range or `p` is not in `[0, 1]`.
    pub fn noise1(&mut self, kind: Noise1, q: u32, p: f64) -> Result<(), SimError> {
        self.check_qubit(q)?;
        Self::check_prob(p)?;
        if p > 0.0 {
            self.ops.push(Op::Noise1 { kind, q, p });
        }
        Ok(())
    }

    /// Appends a two-qubit depolarizing channel.
    ///
    /// # Errors
    ///
    /// Returns an error if a qubit is out of range, `a == b`, or `p` is
    /// not in `[0, 1]`.
    pub fn depolarize2(&mut self, a: u32, b: u32, p: f64) -> Result<(), SimError> {
        self.check_pair(a, b)?;
        Self::check_prob(p)?;
        if p > 0.0 {
            self.ops.push(Op::Depolarize2 { a, b, p });
        }
        Ok(())
    }

    /// Appends a layer separator.
    pub fn tick(&mut self) {
        self.ops.push(Op::Tick);
    }

    /// Defines a detector over the given measurement records.
    ///
    /// # Errors
    ///
    /// Returns an error if any record does not exist yet.
    pub fn add_detector(
        &mut self,
        records: &[MeasRecord],
        basis: CheckBasis,
        coord: (i32, i32, i32),
    ) -> Result<u32, SimError> {
        let mut recs = Vec::with_capacity(records.len());
        for &MeasRecord(r) in records {
            if r >= self.num_measurements {
                return Err(SimError::RecordOutOfRange {
                    record: r,
                    num_records: self.num_measurements,
                });
            }
            recs.push(r);
        }
        recs.sort_unstable();
        // Records appearing an even number of times cancel.
        let mut parity = Vec::with_capacity(recs.len());
        for r in recs {
            if parity.last() == Some(&r) {
                parity.pop();
            } else {
                parity.push(r);
            }
        }
        self.detectors.push(Detector {
            records: parity,
            basis,
            coord,
        });
        Ok(self.detectors.len() as u32 - 1)
    }

    /// Adds measurement records to the observable with the given index,
    /// creating intermediate observables as needed.
    ///
    /// # Errors
    ///
    /// Returns an error if any record does not exist yet.
    pub fn include_observable(
        &mut self,
        observable: u32,
        records: &[MeasRecord],
    ) -> Result<(), SimError> {
        for &MeasRecord(r) in records {
            if r >= self.num_measurements {
                return Err(SimError::RecordOutOfRange {
                    record: r,
                    num_records: self.num_measurements,
                });
            }
        }
        while self.observables.len() <= observable as usize {
            self.observables.push(Vec::new());
        }
        self.observables[observable as usize].extend(records.iter().map(|m| m.0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_records_are_sequential() {
        let mut c = Circuit::new(3);
        let a = c.measure(0).unwrap();
        let b = c.measure(2).unwrap();
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(c.num_measurements(), 2);
    }

    #[test]
    fn qubit_range_is_enforced() {
        let mut c = Circuit::new(2);
        assert!(matches!(c.h(2), Err(SimError::QubitOutOfRange { .. })));
        assert!(matches!(c.cx(0, 5), Err(SimError::QubitOutOfRange { .. })));
        assert!(matches!(c.cx(1, 1), Err(SimError::RepeatedQubit { .. })));
    }

    #[test]
    fn probability_is_validated() {
        let mut c = Circuit::new(1);
        assert!(matches!(
            c.noise1(Noise1::XError, 0, 1.2),
            Err(SimError::InvalidProbability { .. })
        ));
        assert!(c.noise1(Noise1::XError, 0, 0.0).is_ok());
        // Zero-probability channels are dropped.
        assert_eq!(c.num_noise_ops(), 0);
    }

    #[test]
    fn detector_requires_existing_records() {
        let mut c = Circuit::new(1);
        let m = c.measure(0).unwrap();
        assert!(c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).is_ok());
        assert!(c
            .add_detector(&[MeasRecord(5)], CheckBasis::Z, (0, 0, 0))
            .is_err());
    }

    #[test]
    fn detector_cancels_duplicate_records() {
        let mut c = Circuit::new(1);
        let m = c.measure(0).unwrap();
        let n = c.measure(0).unwrap();
        let id = c
            .add_detector(&[m, n, m], CheckBasis::X, (0, 0, 0))
            .unwrap();
        assert_eq!(c.detectors()[id as usize].records, vec![n.0]);
    }

    #[test]
    fn observables_grow_on_demand() {
        let mut c = Circuit::new(1);
        let m = c.measure(0).unwrap();
        c.include_observable(2, &[m]).unwrap();
        assert_eq!(c.observables().len(), 3);
        assert_eq!(c.observables()[2], vec![0]);
    }
}
