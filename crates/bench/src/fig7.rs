//! Fig. 7: total LLC power and latency vs workload traffic for 2D and
//! 3D eNVMs across the SPEC2017 suite at 350 K.

use coldtall_cell::{MemoryTechnology, Tentpole};
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{Explorer, MemoryConfig};
use coldtall_workloads::spec2017;

/// The configurations Fig. 7 plots: 2D/3D SRAM plus every eNVM tentpole
/// at every die count, all at 350 K.
fn configs() -> Vec<MemoryConfig> {
    let mut set = vec![MemoryConfig::sram_350k()];
    for dies in [2u8, 4, 8] {
        set.push(MemoryConfig::envm_3d(
            MemoryTechnology::Sram,
            Tentpole::Optimistic,
            dies,
        ));
    }
    for tech in MemoryTechnology::ENVM_SET {
        for tentpole in Tentpole::BOTH {
            for dies in [1u8, 2, 4, 8] {
                set.push(MemoryConfig::envm_3d(tech, tentpole, dies));
            }
        }
    }
    set
}

/// Regenerates Fig. 7: one row per (benchmark, configuration) with the
/// traffic coordinates, relative power, relative latency, and the
/// wear-limited lifetime used for endurance screening.
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let arena = crate::sweep(&explorer, configs(), spec2017());
    let mut table = TextTable::new(&[
        "benchmark",
        "reads_per_s",
        "writes_per_s",
        "config",
        "rel_power",
        "rel_latency",
        "lifetime_years",
    ]);
    for (b, bench) in spec2017().iter().enumerate() {
        let reads = sci(bench.traffic.reads_per_sec);
        let writes = sci(bench.traffic.writes_per_sec);
        for (c, label) in arena.config_labels().iter().enumerate() {
            let row = arena.row_index(c, b);
            table.row_owned(vec![
                bench.name.to_string(),
                reads.clone(),
                writes.clone(),
                label.clone(),
                sci(arena.relative_power()[row]),
                sci(arena.relative_latency()[row]),
                sci(arena.lifetime_years()[row]),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_suite_times_configs() {
        assert_eq!(run().len(), spec2017().len() * configs().len());
    }
}
