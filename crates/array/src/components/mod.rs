//! Per-component electrical models of the array.
//!
//! Each submodule models one stage of the access path (decode, wordline,
//! bitline, sensing, H-tree distribution, vertical interconnect) or one
//! background behaviour (leakage, refresh). All of them consume the
//! shared evaluation context [`Ctx`].
//!
//! # One formula site, two call shapes
//!
//! Every temperature-dependent component expression lives in exactly one
//! `*_raw` helper that reads the hoisted per-temperature terms from
//! [`TempCtx`] plus the candidate's scalar inputs. The per-candidate
//! `Ctx`-taking functions (used by `ArrayCharacterization::from_ctx`
//! and the componentwise floors) and the SoA column kernel
//! (`optimizer::kernel_scores` over `CandidateColumns`) both call those
//! helpers with bit-identical scalar inputs, which is what makes the
//! column search byte-identical to characterizing every candidate in
//! full, by construction rather than by coincidence.

pub mod bitline;
pub mod decoder;
pub mod geometry;
pub mod htree;
pub mod leakage;
pub mod refresh;
pub mod sense;
pub mod vertical;
pub mod wordline;

use coldtall_cell::{MemoryTechnology, ReadMechanism};
use coldtall_tech::{Mosfet, OperatingPoint, ProcessNode, Wire, WireKind};
use coldtall_units::{Amps, Farads, Joules, Kelvin, Ohms, Seconds, Volts, Watts};

use crate::calib;
use crate::organization::Organization;
use crate::spec::ArraySpec;

pub use geometry::Geometry;

/// Node-invariant device models and derived constants: everything that
/// depends only on the process node, never on the operating point.
///
/// Building a [`Mosfet`] evaluates exponentials; a multi-temperature
/// characterization stripe builds this once and shares it across every
/// temperature's [`DeviceCtx::with_devices`] call.
#[derive(Debug, Clone)]
pub(crate) struct NodeDevices {
    /// Plain NMOS device of the node.
    pub(crate) nmos: Mosfet,
    /// Plain PMOS device of the node.
    pub(crate) pmos: Mosfet,
    /// High-threshold periphery device (leakage model).
    pub(crate) periph: Mosfet,
    /// NMOS equivalent resistance at the nominal 300 K operating point
    /// — the denominator of the device-speed factor.
    pub(crate) r_eq_nominal: Ohms,
    /// NMOS gate capacitance at minimum width.
    pub(crate) gate_cap_min: Farads,
    /// Half the minimum-width NMOS junction capacitance (one bitline
    /// contact per cell).
    pub(crate) junction_half: Farads,
    /// Local (subarray-level) wire model.
    pub(crate) local_wire: Wire,
}

impl NodeDevices {
    /// Builds the node-invariant device set.
    pub(crate) fn new(node: &ProcessNode) -> Self {
        let nmos = Mosfet::nmos(node);
        let w_min = node.min_width();
        let r_eq_nominal = nmos.equivalent_resistance(&OperatingPoint::nominal(node, Kelvin::ROOM), w_min);
        let gate_cap_min = nmos.gate_cap(w_min);
        let junction_half = nmos.junction_cap(w_min) * 0.5;
        Self {
            pmos: Mosfet::pmos(node),
            periph: Mosfet::nmos(node).with_vth_boost(Volts::new(calib::PERIPH_VTH_BOOST)),
            r_eq_nominal,
            gate_cap_min,
            junction_half,
            local_wire: node.wire(WireKind::Local),
            nmos,
        }
    }
}

/// How the cell's state is sensed, with the per-temperature scalars the
/// bitline model needs already extracted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SenseKind {
    /// Voltage sensing: a differential swing (volts) must develop.
    Voltage {
        /// Required bitline swing in volts.
        swing: f64,
    },
    /// Current sensing through the resistive storage element.
    Current,
}

/// Hoisted per-(spec, temperature) terms of the component models: every
/// value a component expression reads that does not depend on the
/// candidate organization.
///
/// Built once per [`DeviceCtx`] (so once per organization search or per
/// temperature of a stripe) instead of once per candidate × component
/// call. Hoisting a candidate-invariant pure subexpression never changes
/// the floating-point operations performed per candidate, so every
/// consumer stays bit-identical to the historical per-call form.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TempCtx {
    /// Matula copper resistivity ratio at the operating temperature.
    pub(crate) ratio: f64,
    /// Local (subarray-level) wire model.
    pub(crate) local_wire: Wire,
    /// Stacking-style device derate factor.
    pub(crate) derate: f64,
    /// Supply voltage in volts.
    pub(crate) vdd: f64,
    /// Supply voltage, typed.
    pub(crate) vdd_v: Volts,
    /// Fan-of-four inverter delay (already derated).
    pub(crate) fo4: Seconds,
    /// Wordline driver equivalent resistance.
    pub(crate) wl_r_drive: Ohms,
    /// Write driver equivalent resistance in ohms.
    pub(crate) write_r_drive: f64,
    /// Cell read drive current onto the bitline in amperes.
    pub(crate) cell_read_current: f64,
    /// NMOS gate capacitance at minimum width.
    pub(crate) gate_cap_min: Farads,
    /// Half the minimum-width junction capacitance.
    pub(crate) junction_half: Farads,
    /// Decoder stage capacitance (10 minimum gates) in farads.
    pub(crate) stage_cap10: f64,
    /// Sense delay (candidate-invariant, whole).
    pub(crate) sense_delay: Seconds,
    /// Sense + cell read energy (candidate-invariant, whole).
    pub(crate) sense_read_energy: Joules,
    /// Cell write-pulse time (candidate-invariant, whole).
    pub(crate) write_pulse: Seconds,
    /// Cell-intrinsic write energy (candidate-invariant, whole).
    pub(crate) sense_write_energy: Joules,
    /// Vertical-bus delay (candidate-invariant, whole).
    pub(crate) tsv_delay: Seconds,
    /// Vertical-bus energy (candidate-invariant, whole).
    pub(crate) tsv_energy: Joules,
    /// Repeated global-wire delay per meter.
    pub(crate) htree_delay_per_m: Seconds,
    /// Repeated global-wire energy per meter.
    pub(crate) htree_energy_per_m: Joules,
    /// Routed wire count (data + address).
    pub(crate) wires: f64,
    /// Supply relative to the 0.8 V broadcast reference.
    pub(crate) vdd_ratio_08: f64,
    /// Bits transferred per access including ECC.
    pub(crate) transfer_bits: f64,
    /// Dual-port bitline energy factor.
    pub(crate) port_energy_factor: f64,
    /// Sensing mechanism with hoisted scalars.
    pub(crate) sense: SenseKind,
    /// Total cell leakage power (candidate-invariant, whole).
    pub(crate) cell_leakage: Watts,
    /// Periphery leakage current per micron of effective width.
    pub(crate) periph_leak_per_um: Amps,
    /// Static-bias factor of the sensing periphery.
    pub(crate) periph_bias_factor: f64,
    /// Refresh/scrub behaviour with hoisted scalars.
    pub(crate) refresh: refresh::RefreshKind,
}

impl TempCtx {
    /// Derives every hoisted term for `spec` at its operating point.
    ///
    /// `r_eq`, `fo4`, and `device_rc` are the values
    /// [`DeviceCtx::with_devices`] already computed; passing them in
    /// (rather than recomputing) keeps the speed factor's numerator the
    /// exact bits the historical per-call form produced.
    fn derive(
        spec: &ArraySpec,
        devices: &NodeDevices,
        fo4: Seconds,
        device_rc: Seconds,
        r_eq: Ohms,
        ion_nmos: Amps,
    ) -> Self {
        let node = spec.node();
        let op = spec.op();
        let t = op.temperature();
        let cell = spec.cell();
        let derate = spec.stacking().device_derate();
        let vdd_v = op.vdd();
        let vdd = vdd_v.get();
        let speed_factor = r_eq / devices.r_eq_nominal;

        // The three driver sizes share one NMOS on-current density
        // (`ion_nmos`, hoisted by the caller): deriving each width
        // through `resistance_from_ion` evaluates the alpha-power and
        // mobility laws once per temperature instead of once per
        // driver, bit-identical to the per-driver method calls.
        let wl_r_drive = Mosfet::resistance_from_ion(
            ion_nmos,
            op,
            node.min_width() * calib::WL_DRIVER_WIDTH_MULT,
        );
        let write_r_drive = Mosfet::resistance_from_ion(
            ion_nmos,
            op,
            node.min_width() * calib::WRITE_DRIVER_WIDTH_MULT,
        )
        .get();

        let ion_read = match cell.technology() {
            MemoryTechnology::Edram3T => devices.pmos.on_current_per_um(op),
            _ => ion_nmos,
        };
        let cell_read_current =
            ion_read.get() * (node.min_width().get() * 1e6) * calib::CELL_DRIVE_FACTOR;

        let sense_delay = cell.read_intrinsic() * speed_factor * derate;
        let bits = spec.transfer_bits();
        let vdd_ratio = op.vdd().get() / node.vdd_nominal().get();
        let sa = bits * calib::SENSE_ENERGY_PER_BIT * vdd_ratio * vdd_ratio;
        let sense_read_energy = Joules::new(sa) + cell.read_energy_cell() * bits;
        let write_pulse = if cell.is_nonvolatile() {
            cell.write_pulse()
        } else {
            cell.write_pulse() * speed_factor
        };
        let sense_write_energy =
            cell.write_energy_cell() * spec.transfer_bits() * cell.write_energy_factor(t);

        let hops = f64::from(spec.dies().saturating_sub(1)) / 2.0;
        let via_cap = spec.stacking().via_cap_f();
        let tsv_delay = Seconds::new(0.69 * calib::TSV_DRIVE_OHMS * via_cap * hops);
        let wires = spec.transfer_bits() + calib::ADDRESS_BITS;
        let tsv_energy = Joules::new(wires * via_cap * vdd * vdd * hops);

        let global_wire = node.wire(WireKind::Global);
        let htree_delay_per_m = global_wire.repeated_delay_per_m(t, device_rc);
        let htree_energy_per_m = global_wire.repeated_energy_per_m(vdd_v);

        let sense = match cell.read_mechanism() {
            ReadMechanism::VoltageSense { swing } => SenseKind::Voltage { swing: swing.get() },
            ReadMechanism::CurrentSense => SenseKind::Current,
        };
        let port_energy_factor = if spec.dual_port() {
            calib::DUAL_PORT_ENERGY_FACTOR
        } else {
            1.0
        };

        let leak_bits = spec.capacity().bits_f64() * spec.storage_overhead();
        let cell_leakage = cell.leakage_power(node, op) * leak_bits;
        let periph_leak_per_um = devices.periph.leakage_current_per_um(op);
        let periph_bias_factor = match cell.read_mechanism() {
            ReadMechanism::CurrentSense => {
                let re_pj = cell.read_energy_cell().as_picos();
                let scaled = calib::CURRENT_SENSE_LEAK_FACTOR
                    * (re_pj / calib::CURRENT_SENSE_REFERENCE_PJ).powi(2);
                scaled.clamp(calib::CURRENT_SENSE_LEAK_FACTOR, calib::CURRENT_SENSE_LEAK_MAX)
            }
            ReadMechanism::VoltageSense { .. } => 1.0,
        };

        Self {
            ratio: coldtall_tech::copper_resistivity_ratio(t.get()),
            local_wire: devices.local_wire,
            derate,
            vdd,
            vdd_v,
            fo4,
            wl_r_drive,
            write_r_drive,
            cell_read_current,
            gate_cap_min: devices.gate_cap_min,
            junction_half: devices.junction_half,
            stage_cap10: devices.gate_cap_min.get() * 10.0,
            sense_delay,
            sense_read_energy,
            write_pulse,
            sense_write_energy,
            tsv_delay,
            tsv_energy,
            htree_delay_per_m,
            htree_energy_per_m,
            wires,
            vdd_ratio_08: vdd / 0.8,
            transfer_bits: bits,
            port_energy_factor,
            sense,
            cell_leakage,
            periph_leak_per_um,
            periph_bias_factor,
            refresh: refresh::kind_of(spec),
        }
    }
}

/// Organization-independent half of the evaluation context: every
/// device-derived term of the spec's operating point, hoisted into a
/// [`TempCtx`].
///
/// An organization search evaluates every candidate of one spec, so
/// these values are built once per search and shared across candidates
/// via [`Ctx::with_parts`] instead of being recomputed 25 times.
#[derive(Debug, Clone)]
pub struct DeviceCtx {
    /// Hoisted per-temperature component terms.
    pub(crate) temp: TempCtx,
}

impl DeviceCtx {
    /// Builds the device context for `spec`'s node, operating point,
    /// and stacking style.
    #[must_use]
    pub fn new(spec: &ArraySpec) -> Self {
        Self::with_devices(spec, &NodeDevices::new(spec.node()))
    }

    /// Builds the device context from pre-built node devices — the
    /// multi-temperature stripe's entry point, which shares one
    /// [`NodeDevices`] (and its exponential-heavy [`Mosfet`] builds)
    /// across every temperature.
    pub(crate) fn with_devices(spec: &ArraySpec, devices: &NodeDevices) -> Self {
        let node = spec.node();
        let op = spec.op();
        let w_min = node.min_width();
        let ion_nmos = devices.nmos.on_current_per_um(op);
        let r_eq = Mosfet::resistance_from_ion(ion_nmos, op, w_min);
        let c_load = devices.nmos.gate_cap(w_min) * 4.0 + devices.nmos.junction_cap(w_min);
        let fo4 = Seconds::new(calib::FO4_FACTOR * r_eq.get() * c_load.get())
            * spec.stacking().device_derate();
        let device_rc = Seconds::new(r_eq.get() * devices.nmos.gate_cap(w_min).get());
        Self {
            temp: TempCtx::derive(spec, devices, fo4, device_rc, r_eq, ion_nmos),
        }
    }
}

/// Shared evaluation context: the spec, the candidate organization, the
/// derived geometry, and the hoisted device terms.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The array under characterization.
    pub spec: &'a ArraySpec,
    /// The candidate internal organization.
    pub org: Organization,
    /// Derived physical geometry.
    pub geom: Geometry,
    /// Hoisted per-temperature component terms.
    pub(crate) temp: TempCtx,
}

impl<'a> Ctx<'a> {
    /// Builds the context for one candidate organization.
    pub fn new(spec: &'a ArraySpec, org: Organization) -> Self {
        Self::with_parts(spec, org, Geometry::derive(spec, org), &DeviceCtx::new(spec))
    }

    /// Builds the context from pre-derived parts: a (possibly cached)
    /// geometry and a device context shared across the candidates of
    /// one search.
    ///
    /// `geom` must equal `Geometry::derive(spec, org)`. Geometry reads
    /// only the node, cell, organization, and stacking style — never
    /// the operating point — so a geometry derived from the same spec
    /// at *any* temperature qualifies; this is what lets the two-phase
    /// kernel reuse one geometry solve across a temperature sweep.
    pub fn with_parts(
        spec: &'a ArraySpec,
        org: Organization,
        geom: Geometry,
        devices: &DeviceCtx,
    ) -> Self {
        Self {
            spec,
            org,
            geom,
            temp: devices.temp,
        }
    }

    /// The candidate's row count as a float.
    pub(crate) fn rows_f(&self) -> f64 {
        f64::from(self.org.rows())
    }

    /// The candidate's column count as a float.
    pub(crate) fn cols_f(&self) -> f64 {
        f64::from(self.org.cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_cell::CellModel;

    /// The device-speed factor exactly as `TempCtx::derive` computes it.
    fn speed_factor(spec: &ArraySpec) -> f64 {
        let devices = NodeDevices::new(spec.node());
        devices
            .nmos
            .equivalent_resistance(spec.op(), spec.node().min_width())
            / devices.r_eq_nominal
    }

    #[test]
    fn context_builds_with_reasonable_fo4() {
        let node = ProcessNode::ptm_22nm_hp();
        let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
        let ctx = Ctx::new(&spec, Organization::new(512, 512));
        let fo4_ps = ctx.temp.fo4.get() * 1e12;
        assert!(fo4_ps > 2.0 && fo4_ps < 30.0, "FO4 = {fo4_ps} ps");
        assert!(ctx.temp.htree_delay_per_m.get() > 0.0);
    }

    #[test]
    fn cryo_devices_are_faster() {
        let node = ProcessNode::ptm_22nm_hp();
        let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node)
            .at_temperature_cryo(Kelvin::LN2);
        assert!(speed_factor(&spec) < 0.7);
        let hot = ArraySpec::llc_16mib(CellModel::sram(&node), &node)
            .at_temperature(Kelvin::new(387.0));
        assert!(speed_factor(&hot) > 1.0);
    }

    #[test]
    fn hoisted_sense_delay_matches_the_per_call_expression() {
        // The hoisted term must reproduce the historical per-call
        // expression bit-for-bit: same pure functions, same arguments,
        // same association order.
        let node = ProcessNode::ptm_22nm_hp();
        for t in [77.0, 180.0, 300.0, 387.0] {
            let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node)
                .at_temperature_cryo(Kelvin::new(t));
            let ctx = Ctx::new(&spec, Organization::new(512, 512));
            let direct = spec.cell().read_intrinsic()
                * speed_factor(&spec)
                * spec.stacking().device_derate();
            assert_eq!(ctx.temp.sense_delay.get().to_bits(), direct.get().to_bits());
        }
    }
}
