//! Fig. 1: total LLC power of the client CPU running `namd` at
//! temperatures between 77 K and 387 K, relative to 350 K SRAM.

use coldtall_cell::MemoryTechnology;
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{Explorer, MemoryConfig};
use coldtall_cryo::{study_temperatures, CoolingSystem};
use coldtall_units::Kelvin;
use coldtall_workloads::benchmark;

/// Regenerates Fig. 1: one row per (technology, temperature) with total
/// LLC power relative to the 350 K SRAM reference — without cooling and
/// under each cryocooler capacity tier.
///
/// # Panics
///
/// Panics if the reference benchmark is missing (it never is).
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let namd = benchmark("namd").expect("namd present");
    let points: Vec<(MemoryTechnology, Kelvin)> =
        [MemoryTechnology::Sram, MemoryTechnology::Edram3T]
            .into_iter()
            .flat_map(|tech| study_temperatures().iter().map(move |&t| (tech, t)))
            .collect();
    // One plane per (point, cooling tier); device power does not depend
    // on the tier, so the first tier's plane also gives the no-cooling
    // column.
    let configs = points
        .iter()
        .flat_map(|&(tech, t)| {
            let base = MemoryConfig::volatile_2d(tech, t);
            CoolingSystem::ALL.map(|cooling| base.clone().with_cooling(cooling))
        })
        .collect();
    let arena = crate::sweep(&explorer, configs, std::slice::from_ref(namd));
    let reference = explorer.reference_power().get();
    let mut table = TextTable::new(&[
        "technology",
        "temp_K",
        "rel_power_no_cooling",
        "rel_power_100kW",
        "rel_power_1kW",
        "rel_power_100W",
        "rel_power_10W",
    ]);
    let tiers = CoolingSystem::ALL.len();
    for (i, (tech, t)) in points.iter().enumerate() {
        let planes = i * tiers..(i + 1) * tiers;
        let mut cells = vec![
            tech.name().to_string(),
            format!("{:.0}", t.get()),
            sci(arena.device_power_watts()[planes.start] / reference),
        ];
        cells.extend(arena.relative_power()[planes].iter().map(|&p| sci(p)));
        table.row_owned(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_both_technologies_across_the_sweep() {
        let table = run();
        assert_eq!(table.len(), 2 * study_temperatures().len());
    }

    #[test]
    fn csv_round_trips() {
        let table = run();
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), table.len() + 1);
    }
}
