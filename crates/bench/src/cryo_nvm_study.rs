//! Extension study: cryogenic STT-MRAM across the temperature ladder.
//!
//! Sweeps both STT-RAM tentpoles over 1/2/4/8 dies and the full study
//! temperature ladder (77-387 K), reporting the Δ(T) thermal
//! stability, the retention it implies, the write-energy inflation the
//! cryogenic switching-current rise costs, and the suite-mean relative
//! power/latency from the exhaustive sweep. The `frontier` column
//! marks design points on the power/latency/area Pareto front of that
//! same sweep, extracted from the rows already in hand. The adaptive
//! search over this region returns exactly that frontier (asserted by
//! `tests/search.rs`), so it would regenerate the same bytes, but
//! running it here would only repeat work the sweep has done.

use std::collections::BTreeSet;

use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{pareto_front_arena, EvalArena, Explorer, MemoryConfig};

/// One row per (tentpole, dies, temperature) point of the cryo-NVM
/// region, in [`MemoryConfig::cryo_stt_study_set`] order.
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let configs = MemoryConfig::cryo_stt_study_set();

    // One batched sweep of the region under the full SPEC2017 suite,
    // rows in config-major order, and the frontier over those rows.
    let plan = explorer
        .plan_sweep(&configs)
        .expect("the cryo-STT region resolves");
    let mut arena = EvalArena::new();
    explorer.execute_into(&plan, &mut arena);
    let suite = arena.benchmark_count();
    let on_frontier: BTreeSet<String> = pareto_front_arena(&arena)
        .into_iter()
        .map(|row| row.config_label)
        .collect();

    let mut table = TextTable::new(&[
        "tentpole",
        "dies",
        "temp_k",
        "delta",
        "retention_s",
        "write_energy_x",
        "rel_power",
        "rel_latency",
        "frontier",
    ]);
    let planes = configs
        .iter()
        .zip(arena.config_labels())
        .zip(arena.relative_power().chunks_exact(suite))
        .zip(arena.relative_latency().chunks_exact(suite));
    for (((config, label), power), latency) in planes {
        let cell = CellModel::tentpole(
            MemoryTechnology::SttRam,
            config.tentpole(),
            explorer.node(),
        );
        let t = config.temperature();
        let thermal = cell
            .mtj_thermal(t)
            .expect("STT-RAM cells model an MTJ junction");
        let rel_power = power.iter().sum::<f64>() / suite as f64;
        let rel_latency = latency.iter().sum::<f64>() / suite as f64;
        table.row_owned(vec![
            match config.tentpole() {
                Tentpole::Optimistic => "optimistic".to_string(),
                Tentpole::Pessimistic => "pessimistic".to_string(),
            },
            config.dies().to_string(),
            format!("{:.0}", t.get()),
            sci(thermal.delta),
            sci(thermal.retention.get()),
            sci(thermal.write_energy_factor),
            sci(rel_power),
            sci(rel_latency),
            if on_frontier.contains(label) {
                "yes".to_string()
            } else {
                "no".to_string()
            },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_full_region_with_a_nonempty_frontier() {
        let table = run();
        // 2 tentpoles x 4 die counts x 8 temperatures.
        assert_eq!(table.len(), 2 * 4 * 8);
        let csv = table.to_csv();
        assert!(
            csv.lines().any(|l| l.ends_with(",yes")),
            "some cryo-STT point must sit on the Pareto front"
        );
    }

    #[test]
    fn delta_and_write_energy_shift_monotonically_with_temperature() {
        let csv = run().to_csv();
        // The first group (optimistic, 1 die) walks 77 K -> 387 K:
        // Δ(T) falls, and the write-energy inflation relaxes toward 1.
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .take(8)
            .map(|l| l.split(',').collect())
            .collect();
        assert_eq!(rows.len(), 8);
        for pair in rows.windows(2) {
            let delta: [f64; 2] = [pair[0][3].parse().unwrap(), pair[1][3].parse().unwrap()];
            let factor: [f64; 2] = [pair[0][5].parse().unwrap(), pair[1][5].parse().unwrap()];
            assert!(delta[0] > delta[1], "Δ(T) must fall as T rises");
            assert!(factor[0] > factor[1], "write energy must relax as T rises");
        }
    }
}
