//! Application workload specifications.

/// A fault-tolerant application workload: a grid of logical qubits kept
/// alive for a number of surface code cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplicationSpec {
    /// Number of logical qubit patches.
    pub patches: u64,
    /// Total surface code cycles.
    pub cycles: f64,
    /// Required code distance per patch.
    pub target_distance: u32,
    /// Physical gate error rate of the device.
    pub p_phys: f64,
}

impl ApplicationSpec {
    /// Shor's algorithm on 2048-bit RSA integers, per Gidney–Ekerå
    /// (2021) as used in the paper: a 226 × 63 grid of distance-27
    /// patches and about 25 billion code cycles at `p = 10⁻³`.
    pub fn shor_2048() -> Self {
        ApplicationSpec {
            patches: 226 * 63,
            cycles: 25e9,
            target_distance: 27,
            p_phys: 1e-3,
        }
    }

    /// Physical qubits per logical patch in the ideal no-defect case.
    pub fn qubits_per_patch(&self) -> u64 {
        let d = self.target_distance as u64;
        2 * d * d - 1
    }

    /// Total physical qubits in the ideal no-defect case.
    pub fn ideal_qubits(&self) -> u64 {
        self.patches * self.qubits_per_patch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shor_matches_paper_ideal_qubits() {
        let spec = ApplicationSpec::shor_2048();
        assert_eq!(spec.patches, 14238);
        assert_eq!(spec.qubits_per_patch(), 1457);
        // Paper Table 1: 2.1e7 qubits for the no-defect device.
        let total = spec.ideal_qubits() as f64;
        assert!((total - 2.1e7).abs() < 0.05e7, "total {total}");
    }
}
