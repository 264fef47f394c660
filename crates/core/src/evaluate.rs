//! The application-level model: array characteristics + traffic ->
//! total LLC power, latency, and area.

use core::fmt;

use coldtall_array::ArrayCharacterization;
use coldtall_cachesim::LlcTraffic;
use coldtall_units::{Joules, Seconds, Watts};

use crate::config::MemoryConfig;
use crate::error::Error;

/// Refresh-busy fraction beyond which an array cannot serve its traffic
/// at all (the paper's "cannot run ordinary workloads" regime).
///
/// `pub(crate)` so the adaptive search can prove a whole configuration
/// plane unserviceable from its refresh-busy *floor* (the minimum over
/// every candidate organization) without characterizing it.
pub(crate) const REFRESH_INFEASIBLE: f64 = 0.999;

/// Why a design point is (or is not) a viable LLC for a benchmark.
///
/// Every [`LlcEvaluation`] carries one of these verdicts, computed from
/// the array model's own feasibility checks rather than re-derived from
/// the `f64::INFINITY` latency sentinel downstream — so a `NaN` can
/// never masquerade as "viable" and screening code never has to guess
/// which failure an infinite latency encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feasibility {
    /// Serves the traffic with no slowdown versus the 350 K SRAM
    /// baseline.
    Viable,
    /// Serves the traffic, but slower than the baseline (relative
    /// latency above 1).
    Slowdown,
    /// Refresh consumes essentially all array availability (the paper's
    /// "cannot run ordinary workloads" regime); latency is reported as
    /// `f64::INFINITY`.
    RefreshDead,
    /// The offered traffic meets or exceeds the array's bank bandwidth;
    /// latency is reported as `f64::INFINITY`.
    BandwidthSaturated,
}

impl Feasibility {
    /// Classifies an evaluation from the model's primitive checks.
    ///
    /// The order encodes causality: an array that cannot refresh fast
    /// enough is dead regardless of traffic, saturation is next, and
    /// only a serviceable array can be merely slow.
    fn classify(refresh_dead: bool, utilization: f64, relative_latency: f64) -> Self {
        if refresh_dead {
            Self::RefreshDead
        } else if utilization >= 1.0 {
            Self::BandwidthSaturated
        } else if relative_latency > 1.0 {
            Self::Slowdown
        } else {
            Self::Viable
        }
    }

    /// Whether the point serves the traffic at all (viable or merely
    /// slow).
    #[must_use]
    pub fn is_serviceable(self) -> bool {
        matches!(self, Self::Viable | Self::Slowdown)
    }

    /// Whether the point is fully viable (no slowdown, serviceable).
    #[must_use]
    pub fn is_viable(self) -> bool {
        self == Self::Viable
    }
}

impl fmt::Display for Feasibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Viable => "viable",
            Self::Slowdown => "slows the CPU",
            Self::RefreshDead => "refresh-dead",
            Self::BandwidthSaturated => "bandwidth-saturated",
        })
    }
}

/// One row of the exploration: a design point evaluated under one
/// benchmark's traffic.
///
/// Power follows the paper's total-LLC-power model (leakage + refresh +
/// traffic-weighted dynamic energy, multiplied by the cryocooler factor
/// at 77 K), normalized to the 350 K SRAM baseline running the reference
/// benchmark. Latency is the traffic-weighted access latency normalized
/// to the 350 K SRAM baseline running the *same* benchmark — values
/// above 1 flag a solution that would slow the CPU down.
#[derive(Debug, Clone, PartialEq)]
pub struct LlcEvaluation {
    /// Display label of the configuration.
    pub config_label: String,
    /// Benchmark name.
    pub benchmark: &'static str,
    /// The benchmark's LLC traffic.
    pub traffic: LlcTraffic,
    /// Device power at the operating temperature (no cooling).
    pub device_power: Watts,
    /// Wall power including refrigeration for cryogenic points.
    pub wall_power: Watts,
    /// Wall power relative to the study reference (350 K SRAM @ namd).
    pub relative_power: f64,
    /// Traffic-weighted LLC latency relative to 350 K SRAM on the same
    /// benchmark; `f64::INFINITY` when refresh cannot keep up.
    pub relative_latency: f64,
    /// Whether this solution would negatively impact performance
    /// (relative latency above 1, including unserviceable points).
    pub slowdown: bool,
    /// Why this point is (or is not) viable; the authoritative verdict
    /// derived from the array model's own checks, never from parsing
    /// the latency sentinel back.
    pub feasibility: Feasibility,
    /// 2D footprint in square millimeters.
    pub footprint_mm2: f64,
    /// Wear-limited lifetime in years (infinite for unlimited endurance).
    pub lifetime_years: f64,
    /// Fraction of the array's bank bandwidth this traffic consumes;
    /// at or above 1 the array cannot keep up (the paper's bandwidth
    /// feasibility check).
    pub bandwidth_utilization: f64,
}

/// Traffic-weighted seconds of LLC service per second of execution,
/// diluted by refresh unavailability and by bank-bandwidth queueing.
pub(crate) fn service_time(array: &ArrayCharacterization, traffic: &LlcTraffic) -> f64 {
    let raw = traffic.reads_per_sec * array.read_latency.get()
        + traffic.writes_per_sec * array.write_latency.get();
    if array.refresh_busy_fraction >= REFRESH_INFEASIBLE {
        return f64::INFINITY;
    }
    let utilization =
        array.bandwidth_utilization(traffic.reads_per_sec, traffic.writes_per_sec);
    if utilization >= 1.0 {
        return f64::INFINITY;
    }
    // Refresh steals availability; queueing dilates service as the
    // offered load approaches the bank bandwidth.
    raw / (1.0 - array.refresh_busy_fraction) / (1.0 - utilization)
}

/// Device power of `array` under `traffic`: standby plus dynamic.
#[must_use]
pub(crate) fn device_power(array: &ArrayCharacterization, traffic: &LlcTraffic) -> Watts {
    let dynamic = Joules::new(
        traffic.reads_per_sec * array.read_energy.get()
            + traffic.writes_per_sec * array.write_energy.get(),
    );
    array.standby_power() + dynamic / Seconds::new(1.0)
}

/// The per-row numeric core of an [`LlcEvaluation`]: every field that
/// is pure arithmetic over an array characterization, one benchmark's
/// traffic, and the pre-hoisted grid invariants.
///
/// Both the scalar path ([`LlcEvaluation::build`]) and the batched
/// kernel (`crate::batch`) produce their rows through
/// [`row_values`], so batch/scalar bit-identity holds *by
/// construction* — there is exactly one copy of the float expressions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RowValues {
    /// Device power at the operating temperature (no cooling).
    pub device_power: Watts,
    /// Wall power including refrigeration.
    pub wall_power: Watts,
    /// Wall power relative to the study reference.
    pub relative_power: f64,
    /// Service time relative to the baseline on the same benchmark.
    pub relative_latency: f64,
    /// Whether the row slows the CPU (`relative_latency > 1`).
    pub slowdown: bool,
    /// The authoritative feasibility verdict.
    pub feasibility: Feasibility,
    /// 2D footprint in square millimeters.
    pub footprint_mm2: f64,
    /// Fraction of bank bandwidth this traffic consumes.
    pub bandwidth_utilization: f64,
}

/// Computes one row's numeric fields from the array characterization,
/// the benchmark's traffic, and the grid-invariant terms the batched
/// kernel hoists: `wall_factor` (the cooling multiplier, constant per
/// configuration plane — [`coldtall_cryo::CoolingSystem::wall_factor`]),
/// `base_service` (the baseline's service time on this benchmark,
/// constant per benchmark column), and `reference_power` (constant for
/// the whole grid).
pub(crate) fn row_values(
    array: &ArrayCharacterization,
    traffic: &LlcTraffic,
    wall_factor: f64,
    base_service: f64,
    reference_power: Watts,
) -> RowValues {
    let device = device_power(array, traffic);
    let wall = device * wall_factor;
    let own_service = service_time(array, traffic);
    // An unserviceable candidate is infinitely slow no matter what
    // the baseline does: dividing two infinite service times would
    // fabricate a NaN that compares "not a slowdown" downstream.
    let relative_latency = if !own_service.is_finite() {
        f64::INFINITY
    } else if base_service.is_finite() && base_service > 0.0 {
        own_service / base_service
    } else {
        1.0
    };
    let utilization =
        array.bandwidth_utilization(traffic.reads_per_sec, traffic.writes_per_sec);
    RowValues {
        device_power: device,
        wall_power: wall,
        relative_power: wall / reference_power,
        relative_latency,
        slowdown: relative_latency > 1.0,
        feasibility: Feasibility::classify(
            array.refresh_busy_fraction >= REFRESH_INFEASIBLE,
            utilization,
            relative_latency,
        ),
        footprint_mm2: array.footprint.as_mm2(),
        bandwidth_utilization: utilization,
    }
}

impl LlcEvaluation {
    /// Builds an evaluation row.
    ///
    /// `baseline` is the 350 K SRAM characterization; `reference_power`
    /// is the baseline's wall power on the reference benchmark (namd).
    #[must_use]
    pub(crate) fn build(
        config: &MemoryConfig,
        benchmark: &'static str,
        traffic: LlcTraffic,
        array: &ArrayCharacterization,
        baseline: &ArrayCharacterization,
        reference_power: Watts,
        lifetime_years: f64,
    ) -> Self {
        let wall_factor = config.cooling().wall_factor(config.temperature());
        let base_service = service_time(baseline, &traffic);
        let values = row_values(array, &traffic, wall_factor, base_service, reference_power);
        Self::from_values(config.label(), benchmark, traffic, &values, lifetime_years)
    }

    /// Assembles a row from its pre-computed numeric core plus the
    /// identity and lifetime fields.
    pub(crate) fn from_values(
        config_label: String,
        benchmark: &'static str,
        traffic: LlcTraffic,
        values: &RowValues,
        lifetime_years: f64,
    ) -> Self {
        Self {
            config_label,
            benchmark,
            traffic,
            device_power: values.device_power,
            wall_power: values.wall_power,
            relative_power: values.relative_power,
            relative_latency: values.relative_latency,
            slowdown: values.slowdown,
            feasibility: values.feasibility,
            footprint_mm2: values.footprint_mm2,
            lifetime_years,
            bandwidth_utilization: values.bandwidth_utilization,
        }
    }

    /// Whether this row's lifetime meets the selection target.
    #[must_use]
    pub fn meets_lifetime_target(&self) -> bool {
        self.lifetime_years >= crate::lifetime::LIFETIME_TARGET_YEARS
    }

    /// Demands full viability, converting an infeasible (or merely
    /// slow) row into a typed [`Error::Infeasible`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] unless the feasibility verdict is
    /// [`Feasibility::Viable`].
    pub fn require_viable(self) -> Result<Self, Error> {
        if self.feasibility.is_viable() {
            Ok(self)
        } else {
            Err(Error::Infeasible {
                config: self.config_label,
                benchmark: self.benchmark.to_string(),
                feasibility: self.feasibility,
            })
        }
    }

    /// Checks the finite-or-explicitly-infeasible invariant: no field
    /// is `NaN`, and an infinite relative latency only appears on rows
    /// whose feasibility verdict says the point is unserviceable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] naming the offending field.
    pub fn validate(&self) -> Result<(), Error> {
        let non_finite = |field: &str| Error::NonFinite {
            context: format!("{} @ {}: {field}", self.config_label, self.benchmark),
        };
        for (field, value) in [
            ("device_power", self.device_power.get()),
            ("wall_power", self.wall_power.get()),
            ("relative_power", self.relative_power),
            ("footprint_mm2", self.footprint_mm2),
            ("bandwidth_utilization", self.bandwidth_utilization),
        ] {
            if !value.is_finite() {
                return Err(non_finite(field));
            }
        }
        // Latency and lifetime carry documented infinity sentinels
        // (unserviceable / unlimited endurance) but never NaN.
        if self.relative_latency.is_nan() {
            return Err(non_finite("relative_latency"));
        }
        if self.lifetime_years.is_nan() {
            return Err(non_finite("lifetime_years"));
        }
        if self.relative_latency.is_infinite() && self.feasibility.is_serviceable() {
            return Err(non_finite("relative_latency (sentinel without verdict)"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_array::{ArraySpec, Objective};
    use coldtall_cell::CellModel;
    use coldtall_tech::ProcessNode;

    fn sram_array() -> ArrayCharacterization {
        let node = ProcessNode::ptm_22nm_hp();
        ArraySpec::llc_16mib(CellModel::sram(&node), &node)
            .characterize(Objective::EnergyDelayProduct)
    }

    #[test]
    fn device_power_combines_static_and_dynamic() {
        let array = sram_array();
        let idle = device_power(&array, &LlcTraffic::new(0.0, 0.0));
        assert_eq!(idle, array.standby_power());
        let busy = device_power(&array, &LlcTraffic::new(1e8, 0.0));
        let expected = array.standby_power().get() + 1e8 * array.read_energy.get();
        assert!((busy.get() - expected).abs() < 1e-12);
    }

    #[test]
    fn service_time_is_traffic_weighted_with_queueing_dilation() {
        let array = sram_array();
        let traffic = LlcTraffic::new(1e6, 2e6);
        let t = service_time(&array, &traffic);
        let raw = 1e6 * array.read_latency.get() + 2e6 * array.write_latency.get();
        let dilation = 1.0 / (1.0 - array.bandwidth_utilization(1e6, 2e6));
        assert!((t - raw * dilation).abs() < 1e-12);
        assert!(t >= raw, "queueing can only dilate");
    }

    #[test]
    fn saturated_bandwidth_is_infeasible() {
        let array = sram_array();
        // Offer more traffic than the banks can serve.
        let capacity = array.read_bandwidth();
        let t = service_time(&array, &LlcTraffic::new(capacity * 1.5, 0.0));
        assert!(t.is_infinite());
    }

    /// Regression (ISSUE 3): when candidate *and* baseline are both
    /// unserviceable, `INF / INF` used to produce a NaN latency whose
    /// `NaN > 1.0` comparison reported the row as viable.
    #[test]
    fn infinite_over_infinite_is_explicit_infeasibility_not_nan() {
        let node = ProcessNode::ptm_22nm_hp();
        let dead = MemoryConfig::edram_350k()
            .to_spec(&node)
            .characterize(Objective::EnergyDelayProduct);
        assert!(
            dead.refresh_busy_fraction >= 0.999,
            "precondition: 350 K 3T-eDRAM is refresh-dead"
        );
        let eval = LlcEvaluation::build(
            &MemoryConfig::edram_350k(),
            "namd",
            LlcTraffic::new(1e6, 1e5),
            &dead,
            &dead, // hostile baseline: also unserviceable
            Watts::new(1.0),
            f64::INFINITY,
        );
        assert!(eval.relative_latency.is_infinite(), "INF, not NaN");
        assert!(eval.slowdown, "an unserviceable point is never 'viable'");
        assert_eq!(eval.feasibility, Feasibility::RefreshDead);
        eval.validate().expect("row upholds the NaN-free invariant");
    }

    #[test]
    fn feasibility_verdicts_track_the_model_checks() {
        let array = sram_array();
        let build = |traffic: LlcTraffic| {
            LlcEvaluation::build(
                &MemoryConfig::sram_350k(),
                "namd",
                traffic,
                &array,
                &array,
                Watts::new(1.0),
                f64::INFINITY,
            )
        };
        let idle = build(LlcTraffic::new(1e6, 1e5));
        assert_eq!(idle.feasibility, Feasibility::Viable);
        assert!(idle.feasibility.is_viable() && idle.feasibility.is_serviceable());
        let saturated = build(LlcTraffic::new(array.read_bandwidth() * 1.5, 0.0));
        assert_eq!(saturated.feasibility, Feasibility::BandwidthSaturated);
        assert!(!saturated.feasibility.is_serviceable());
        assert!(saturated.relative_latency.is_infinite());
        saturated.validate().expect("sentinel backed by a verdict");
        assert!(saturated.require_viable().is_err());
    }
}
