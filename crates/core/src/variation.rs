//! Monte-Carlo variation analysis between the tentpoles.
//!
//! The tentpole methodology bounds each technology by its field-wise
//! best and worst published characteristics; real devices land
//! somewhere in between. This module samples synthetic cells
//! log-uniformly between the tentpole extrema (independently per field,
//! matching the tentpoles' own field-wise construction), characterizes
//! each sample, and reports percentile bands — turning the paper's
//! two-point envelopes into distributions.

use coldtall_array::{ArraySpec, Objective};
use coldtall_cell::{CellModel, MemoryTechnology, SurveyEntry, Tentpole};
use coldtall_tech::ProcessNode;
use coldtall_rng::SmallRng;

/// Percentile summary of one metric across the sampled population,
/// relative to the 350 K 2D SRAM baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricBand {
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// The variation study's result for one (technology, die count).
#[derive(Debug, Clone, PartialEq)]
pub struct VariationSummary {
    /// Technology sampled.
    pub technology: MemoryTechnology,
    /// Die count.
    pub dies: u8,
    /// Samples drawn.
    pub samples: usize,
    /// Read latency relative to the SRAM baseline.
    pub read_latency: MetricBand,
    /// Write latency relative to the SRAM baseline.
    pub write_latency: MetricBand,
    /// Read energy relative to the SRAM baseline.
    pub read_energy: MetricBand,
    /// Footprint relative to the SRAM baseline.
    pub area: MetricBand,
}

fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    if (hi - lo).abs() < 1e-12 {
        return lo;
    }
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    (rng.gen_f64() * (hi.ln() - lo.ln()) + lo.ln()).exp()
}

/// Draws `n` synthetic survey entries between the technology's tentpole
/// extrema (log-uniform, independent per field).
///
/// # Panics
///
/// Panics for technologies without survey entries (SRAM, the eDRAMs).
#[must_use]
pub fn sample_cells(
    technology: MemoryTechnology,
    n: usize,
    seed: u64,
    node: &ProcessNode,
) -> Vec<CellModel> {
    let opt = Tentpole::Optimistic
        .bounding_entry(technology)
        .expect("variation sampling needs a surveyed technology");
    let pess = Tentpole::Pessimistic
        .bounding_entry(technology)
        .expect("variation sampling needs a surveyed technology");
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let entry = SurveyEntry {
                id: "monte-carlo-sample",
                year: opt.year,
                venue: opt.venue,
                technology,
                cell_area_f2: log_uniform(&mut rng, opt.cell_area_f2, pess.cell_area_f2),
                read_sense_ns: log_uniform(&mut rng, opt.read_sense_ns, pess.read_sense_ns),
                read_energy_pj: log_uniform(&mut rng, opt.read_energy_pj, pess.read_energy_pj),
                write_latency_ns: log_uniform(
                    &mut rng,
                    opt.write_latency_ns,
                    pess.write_latency_ns,
                ),
                write_energy_pj: log_uniform(
                    &mut rng,
                    opt.write_energy_pj,
                    pess.write_energy_pj,
                ),
                endurance_writes: log_uniform(
                    &mut rng,
                    pess.endurance_writes,
                    opt.endurance_writes,
                ),
                retention_years: opt.retention_years.min(pess.retention_years),
                mlc_bits: 1,
            };
            CellModel::from_survey(&entry, node)
        })
        .collect()
}

fn band(mut values: Vec<f64>) -> MetricBand {
    values.sort_by(f64::total_cmp);
    let pick = |q: f64| {
        let idx = ((values.len() - 1) as f64 * q).round() as usize;
        values[idx]
    };
    MetricBand {
        p5: pick(0.05),
        p50: pick(0.50),
        p95: pick(0.95),
    }
}

/// Runs the Monte-Carlo study: `samples` synthetic cells of `technology`
/// at `dies` stacked dies, each characterized at 350 K (sequentially, on
/// the calling thread) and normalized to the 2D SRAM baseline.
///
/// # Panics
///
/// Panics if `samples` is zero or the technology has no survey.
#[must_use]
pub fn monte_carlo(
    technology: MemoryTechnology,
    dies: u8,
    samples: usize,
    seed: u64,
) -> VariationSummary {
    assert!(samples > 0, "need at least one sample");
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let baseline = ArraySpec::llc_16mib(CellModel::sram(&node), &node).characterize(objective);

    // One RNG stream keeps seeds meaningful; every draw is a distinct
    // device, so each sample costs one organization search. The samples
    // run in a plain loop on the calling thread: the whole study takes
    // a few milliseconds, less than a pool fan-out costs to start.
    let mut read_latency = Vec::with_capacity(samples);
    let mut write_latency = Vec::with_capacity(samples);
    let mut read_energy = Vec::with_capacity(samples);
    let mut area = Vec::with_capacity(samples);
    for cell in sample_cells(technology, samples, seed, &node) {
        let mut spec = ArraySpec::llc_16mib(cell, &node);
        if dies > 1 {
            spec = spec.with_dies(dies);
        }
        let a = spec.characterize(objective);
        read_latency.push(a.read_latency / baseline.read_latency);
        write_latency.push(a.write_latency / baseline.write_latency);
        read_energy.push(a.read_energy / baseline.read_energy);
        area.push(a.footprint / baseline.footprint);
    }
    VariationSummary {
        technology,
        dies,
        samples,
        read_latency: band(read_latency),
        write_latency: band(write_latency),
        read_energy: band(read_energy),
        area: band(area),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tentpole_metric(
        technology: MemoryTechnology,
        tentpole: Tentpole,
        dies: u8,
    ) -> (f64, f64) {
        let node = ProcessNode::ptm_22nm_hp();
        let objective = Objective::EnergyDelayProduct;
        let baseline =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).characterize(objective);
        let mut spec =
            ArraySpec::llc_16mib(CellModel::tentpole(technology, tentpole, &node), &node);
        if dies > 1 {
            spec = spec.with_dies(dies);
        }
        let a = spec.characterize(objective);
        (
            a.read_latency / baseline.read_latency,
            a.footprint / baseline.footprint,
        )
    }

    #[test]
    fn samples_are_bounded_by_the_tentpoles() {
        let summary = monte_carlo(MemoryTechnology::Pcm, 1, 40, 7);
        let (opt_lat, opt_area) = tentpole_metric(MemoryTechnology::Pcm, Tentpole::Optimistic, 1);
        let (pess_lat, pess_area) =
            tentpole_metric(MemoryTechnology::Pcm, Tentpole::Pessimistic, 1);
        assert!(summary.read_latency.p5 >= opt_lat * 0.99);
        assert!(summary.read_latency.p95 <= pess_lat * 1.01);
        assert!(summary.area.p5 >= opt_area * 0.99);
        assert!(summary.area.p95 <= pess_area * 1.01);
    }

    #[test]
    fn percentiles_are_ordered() {
        let s = monte_carlo(MemoryTechnology::SttRam, 4, 30, 11);
        for b in [s.read_latency, s.write_latency, s.read_energy, s.area] {
            assert!(b.p5 <= b.p50 && b.p50 <= b.p95);
        }
        assert_eq!(s.samples, 30);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = monte_carlo(MemoryTechnology::Rram, 1, 10, 3);
        let b = monte_carlo(MemoryTechnology::Rram, 1, 10, 3);
        assert_eq!(a, b);
        let c = monte_carlo(MemoryTechnology::Rram, 1, 10, 4);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "surveyed technology")]
    fn sram_cannot_be_sampled() {
        let node = ProcessNode::ptm_22nm_hp();
        let _ = sample_cells(MemoryTechnology::Sram, 5, 0, &node);
    }
}
