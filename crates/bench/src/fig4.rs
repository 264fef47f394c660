//! Fig. 4: total LLC power for `namd` and `leela` at room temperature,
//! cryogenic temperature, and cryogenic temperature including cooling.

use coldtall_cell::MemoryTechnology;
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{Explorer, MemoryConfig};
use coldtall_units::Kelvin;
use coldtall_workloads::benchmark;

/// Regenerates Fig. 4: for the `namd` and `leela` benchmarks and both
/// volatile technologies, total LLC power at 350 K, at 77 K without
/// cooling, and at 77 K including the 100 kW-class cooling overhead —
/// relative to 350 K SRAM running `namd`.
///
/// # Panics
///
/// Panics if either benchmark is missing (they never are).
#[must_use]
pub fn run() -> TextTable {
    const TECHS: [MemoryTechnology; 2] = [MemoryTechnology::Sram, MemoryTechnology::Edram3T];
    let explorer = Explorer::with_defaults();
    let reference = explorer.reference_power().get();
    let mut table = TextTable::new(&[
        "benchmark",
        "technology",
        "rel_power_350K",
        "rel_power_77K",
        "rel_power_77K_cooled",
    ]);
    for bench_name in ["namd", "leela"] {
        let bench = benchmark(bench_name).expect("benchmark present");
        // Planes (warm, cold) per technology.
        let configs = TECHS
            .iter()
            .flat_map(|&tech| {
                [Kelvin::REFERENCE, Kelvin::LN2].map(|t| MemoryConfig::volatile_2d(tech, t))
            })
            .collect();
        let arena = crate::sweep(&explorer, configs, std::slice::from_ref(bench));
        let power = arena.relative_power();
        for (i, tech) in TECHS.iter().enumerate() {
            let (warm, cold) = (2 * i, 2 * i + 1);
            table.row_owned(vec![
                bench_name.to_string(),
                tech.name().to_string(),
                sci(power[warm]),
                sci(arena.device_power_watts()[cold] / reference),
                sci(power[cold]),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_rows() {
        assert_eq!(run().len(), 4);
    }
}
