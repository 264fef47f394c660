//! Array specification: what to characterize.

use core::fmt;

use coldtall_cell::CellModel;
use coldtall_tech::{OperatingPoint, ProcessNode};
use coldtall_units::{Capacity, Kelvin};

use crate::characterize::ArrayCharacterization;
use crate::ecc::EccScheme;
use crate::optimizer::Objective;
use crate::org_geometry::OrgGeometry;
use crate::stacking::Stacking;

/// A rejected array specification: the builder was asked for a
/// physically meaningless configuration.
///
/// Each variant's [`fmt::Display`] message matches the panic message of
/// the corresponding infallible builder, so migrating a call site from
/// `with_x` to `try_with_x` never changes what the user reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecError {
    /// The requested die count has no stacking style that supports it.
    UnsupportedDieCount {
        /// The rejected die count.
        dies: u8,
    },
    /// The stacking style cannot stack that many dies (e.g.
    /// face-to-face beyond two).
    StackingMismatch {
        /// The requested stacking style.
        stacking: Stacking,
        /// The rejected die count.
        dies: u8,
    },
    /// The capacity cannot hold even one access line.
    CapacityBelowLine {
        /// The rejected capacity, in bits.
        capacity_bits: u64,
        /// The line width the capacity must at least hold.
        line_bits: u32,
    },
    /// A zero-width access line.
    ZeroLineWidth,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedDieCount { dies } => write!(f, "unsupported die count {dies}"),
            Self::StackingMismatch { stacking, dies } => {
                write!(f, "{stacking} does not support {dies} dies")
            }
            Self::CapacityBelowLine {
                capacity_bits,
                line_bits,
            } => write!(
                f,
                "capacity must hold at least one line ({capacity_bits} b < {line_bits} b)"
            ),
            Self::ZeroLineWidth => write!(f, "line width must be positive"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete description of a memory array to characterize: the cell,
/// macro-level parameters (capacity, line width, ports, ECC), the 3D
/// configuration, and the electrical operating point.
///
/// `ArraySpec` is a builder: start from [`ArraySpec::new`] or the
/// paper-default [`ArraySpec::llc_16mib`] and chain configuration calls.
///
/// # Examples
///
/// ```
/// use coldtall_array::{ArraySpec, Objective, Stacking};
/// use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
/// use coldtall_tech::ProcessNode;
///
/// let node = ProcessNode::ptm_22nm_hp();
/// let cell = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
/// let spec = ArraySpec::llc_16mib(cell, &node).with_dies(8);
/// let array = spec.characterize(Objective::EnergyDelayProduct);
/// assert_eq!(array.dies, 8);
/// ```
#[derive(Debug, Clone)]
pub struct ArraySpec {
    cell: CellModel,
    node: ProcessNode,
    op: OperatingPoint,
    capacity: Capacity,
    line_bits: u32,
    ecc: EccScheme,
    dual_port: bool,
    dies: u8,
    stacking: Stacking,
}

impl ArraySpec {
    /// Creates a specification with study defaults: 16 MiB, 512-bit line,
    /// ECC, dual-port, single die, 350 K nominal operation.
    #[must_use]
    pub fn new(cell: CellModel, node: &ProcessNode, capacity: Capacity) -> Self {
        Self {
            cell,
            node: node.clone(),
            op: OperatingPoint::nominal(node, Kelvin::REFERENCE),
            capacity,
            line_bits: 512,
            ecc: EccScheme::Secded,
            dual_port: true,
            dies: 1,
            stacking: Stacking::Planar,
        }
    }

    /// The paper's LLC configuration: a 16 MiB, 16-way, dual-port,
    /// ECC-protected cache array at 22 nm.
    #[must_use]
    pub fn llc_16mib(cell: CellModel, node: &ProcessNode) -> Self {
        Self::new(cell, node, Capacity::from_mebibytes(16))
    }

    /// Sets the die count, selecting the default stacking style for it
    /// (planar for 1 die, face-to-back otherwise), rejecting die counts
    /// no style supports.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnsupportedDieCount`] if `dies` is zero or
    /// above the default style's limit.
    pub fn try_with_dies(mut self, dies: u8) -> Result<Self, SpecError> {
        let stacking = Stacking::default_for_dies(dies);
        if !stacking.supports_dies(dies) {
            return Err(SpecError::UnsupportedDieCount { dies });
        }
        self.dies = dies;
        self.stacking = stacking;
        Ok(self)
    }

    /// Sets the die count, selecting the default stacking style for it
    /// (planar for 1 die, face-to-back otherwise).
    ///
    /// Precondition: a stacking style supporting `dies` exists (1-8).
    /// Use [`ArraySpec::try_with_dies`] for untrusted inputs.
    ///
    /// # Panics
    ///
    /// Panics if `dies` is zero or above the style's limit.
    #[must_use]
    pub fn with_dies(self, dies: u8) -> Self {
        self.try_with_dies(dies).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets an explicit stacking style and die count, rejecting
    /// unsupported combinations.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::StackingMismatch`] if the style does not
    /// support the die count (e.g. face-to-face beyond two dies).
    pub fn try_with_stacking(mut self, stacking: Stacking, dies: u8) -> Result<Self, SpecError> {
        if !stacking.supports_dies(dies) {
            return Err(SpecError::StackingMismatch { stacking, dies });
        }
        self.stacking = stacking;
        self.dies = dies;
        Ok(self)
    }

    /// Sets an explicit stacking style and die count.
    ///
    /// Precondition: `stacking.supports_dies(dies)`. Use
    /// [`ArraySpec::try_with_stacking`] for untrusted inputs.
    ///
    /// # Panics
    ///
    /// Panics if the style does not support the die count (e.g.
    /// face-to-face beyond two dies).
    #[must_use]
    pub fn with_stacking(self, stacking: Stacking, dies: u8) -> Self {
        self.try_with_stacking(stacking, dies)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the operating point (temperature and voltages).
    #[must_use]
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Convenience: nominal operation at temperature `t`.
    #[must_use]
    pub fn at_temperature(mut self, t: Kelvin) -> Self {
        self.op = OperatingPoint::nominal(&self.node, t);
        self
    }

    /// Convenience: cryo-policy operation at temperature `t`.
    #[must_use]
    pub fn at_temperature_cryo(mut self, t: Kelvin) -> Self {
        self.op = OperatingPoint::cryo_optimized(&self.node, t);
        self
    }

    /// Replaces the usable capacity (e.g. for hybrid-partition
    /// studies), rejecting capacities below one access line.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::CapacityBelowLine`] if the capacity cannot
    /// hold one line.
    pub fn try_with_capacity(mut self, capacity: Capacity) -> Result<Self, SpecError> {
        if capacity.bits() < u64::from(self.line_bits) {
            return Err(SpecError::CapacityBelowLine {
                capacity_bits: capacity.bits(),
                line_bits: self.line_bits,
            });
        }
        self.capacity = capacity;
        Ok(self)
    }

    /// Replaces the usable capacity (e.g. for hybrid-partition studies).
    ///
    /// Precondition: the capacity holds at least one line. Use
    /// [`ArraySpec::try_with_capacity`] for untrusted inputs.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is below one line.
    #[must_use]
    pub fn with_capacity(self, capacity: Capacity) -> Self {
        self.try_with_capacity(capacity)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the access-line width in data bits, rejecting zero.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ZeroLineWidth`] if `bits` is zero.
    pub fn try_with_line_bits(mut self, bits: u32) -> Result<Self, SpecError> {
        if bits == 0 {
            return Err(SpecError::ZeroLineWidth);
        }
        self.line_bits = bits;
        Ok(self)
    }

    /// Sets the access-line width in data bits.
    ///
    /// Precondition: `bits > 0`. Use [`ArraySpec::try_with_line_bits`]
    /// for untrusted inputs.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn with_line_bits(self, bits: u32) -> Self {
        self.try_with_line_bits(bits)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Enables or disables SECDED ECC storage and transport overhead.
    #[must_use]
    pub fn with_ecc(mut self, ecc: bool) -> Self {
        self.ecc = if ecc { EccScheme::Secded } else { EccScheme::None };
        self
    }

    /// Selects an explicit error-correction scheme.
    #[must_use]
    pub fn with_ecc_scheme(mut self, scheme: EccScheme) -> Self {
        self.ecc = scheme;
        self
    }

    /// Enables or disables the dual-port overheads.
    #[must_use]
    pub fn with_dual_port(mut self, dual_port: bool) -> Self {
        self.dual_port = dual_port;
        self
    }

    /// The cell model under characterization.
    #[must_use]
    pub fn cell(&self) -> &CellModel {
        &self.cell
    }

    /// The process node.
    #[must_use]
    pub fn node(&self) -> &ProcessNode {
        &self.node
    }

    /// The operating point.
    #[must_use]
    pub fn op(&self) -> &OperatingPoint {
        &self.op
    }

    /// Usable (data) capacity.
    #[must_use]
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Data bits per access.
    #[must_use]
    pub fn line_bits(&self) -> u32 {
        self.line_bits
    }

    /// Whether any ECC is enabled.
    #[must_use]
    pub fn ecc(&self) -> bool {
        self.ecc != EccScheme::None
    }

    /// The error-correction scheme.
    #[must_use]
    pub fn ecc_scheme(&self) -> EccScheme {
        self.ecc
    }

    /// Whether the array is dual-ported.
    #[must_use]
    pub fn dual_port(&self) -> bool {
        self.dual_port
    }

    /// Die count.
    #[must_use]
    pub fn dies(&self) -> u8 {
        self.dies
    }

    /// Stacking style.
    #[must_use]
    pub fn stacking(&self) -> Stacking {
        self.stacking
    }

    /// Storage overhead factor of the ECC scheme (9/8 for the study's
    /// SECDED default).
    #[must_use]
    pub fn storage_overhead(&self) -> f64 {
        self.ecc.storage_overhead()
    }

    /// Bits moved per access including ECC check bits.
    #[must_use]
    pub fn transfer_bits(&self) -> f64 {
        f64::from(self.line_bits) * self.storage_overhead()
    }

    /// Characterizes this array, searching internal organizations for the
    /// one minimizing `objective`.
    ///
    /// Solves the geometry inline; sweeps that revisit one geometry at
    /// many temperatures should hold an [`OrgGeometry`] instead, which
    /// keeps the solve.
    ///
    /// # Panics
    ///
    /// Panics if no candidate organization fits the spec (capacity
    /// smaller than the smallest subarray).
    #[must_use]
    pub fn characterize(&self, objective: Objective) -> ArrayCharacterization {
        OrgGeometry::solve(self).characterize(objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_cell::CellModel;

    fn spec() -> ArraySpec {
        let node = ProcessNode::ptm_22nm_hp();
        ArraySpec::llc_16mib(CellModel::sram(&node), &node)
    }

    #[test]
    fn defaults_match_paper_config() {
        let s = spec();
        assert_eq!(s.capacity(), Capacity::from_mebibytes(16));
        assert_eq!(s.line_bits(), 512);
        assert!(s.ecc());
        assert!(s.dual_port());
        assert_eq!(s.dies(), 1);
        assert_eq!(s.stacking(), Stacking::Planar);
        assert_eq!(s.op().temperature(), Kelvin::REFERENCE);
    }

    #[test]
    fn ecc_adds_one_eighth() {
        let s = spec();
        assert!((s.storage_overhead() - 1.125).abs() < 1e-12);
        assert!((s.transfer_bits() - 576.0).abs() < 1e-12);
        let no_ecc = spec().with_ecc(false);
        assert!((no_ecc.transfer_bits() - 512.0).abs() < 1e-12);
    }

    #[test]
    fn with_dies_picks_default_stacking() {
        let s = spec().with_dies(4);
        assert_eq!(s.stacking(), Stacking::FaceToBack);
        let s1 = spec().with_dies(1);
        assert_eq!(s1.stacking(), Stacking::Planar);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn face_to_face_rejects_four_dies() {
        let _ = spec().with_stacking(Stacking::FaceToFace, 4);
    }

    #[test]
    fn try_builders_return_typed_errors_instead_of_panicking() {
        assert_eq!(
            spec().try_with_dies(0).unwrap_err(),
            SpecError::UnsupportedDieCount { dies: 0 }
        );
        assert_eq!(
            spec().try_with_dies(9).unwrap_err(),
            SpecError::UnsupportedDieCount { dies: 9 }
        );
        assert_eq!(
            spec().try_with_stacking(Stacking::FaceToFace, 4).unwrap_err(),
            SpecError::StackingMismatch {
                stacking: Stacking::FaceToFace,
                dies: 4
            }
        );
        assert_eq!(
            spec().try_with_line_bits(0).unwrap_err(),
            SpecError::ZeroLineWidth
        );
        let err = spec()
            .try_with_capacity(Capacity::from_bits(8))
            .unwrap_err();
        assert!(err.to_string().contains("at least one line"));
        // The happy path still chains like the infallible builder.
        let s = spec()
            .try_with_dies(4)
            .and_then(|s| s.try_with_line_bits(256))
            .unwrap();
        assert_eq!((s.dies(), s.line_bits()), (4, 256));
    }

    #[test]
    fn temperature_helpers() {
        let s = spec().at_temperature_cryo(Kelvin::LN2);
        assert!(s.op().vth_override().is_some());
        let s = spec().at_temperature(Kelvin::LN2);
        assert!(s.op().vth_override().is_none());
    }

    #[test]
    fn cryo_policy_cuts_latency_and_leakage_far_more_than_energy() {
        let cold = spec()
            .at_temperature_cryo(Kelvin::LN2)
            .characterize(Objective::EnergyDelayProduct);
        let warm = spec()
            .at_temperature_cryo(Kelvin::REFERENCE)
            .characterize(Objective::EnergyDelayProduct);
        // Cryo dynamic energy is mildly lower (scaled Vdd), latency much lower.
        assert!(cold.read_energy < warm.read_energy);
        assert!(cold.read_energy.get() > warm.read_energy.get() * 0.8);
        assert!(cold.read_latency.get() < warm.read_latency.get() * 0.35);
        assert!(cold.leakage_power.get() < warm.leakage_power.get() * 1e-4);
    }
}
