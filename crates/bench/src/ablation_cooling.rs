//! Ablation: how much cryocooler does it take to break even?
//!
//! Sweeps the continuous cooling-overhead model over plant capacities
//! and reports, per benchmark, the largest overhead factor at which the
//! 77 K 3T-eDRAM LLC still beats 350 K SRAM — and thus the smallest
//! cryocooler class that makes cryogenic operation pay.

use coldtall_core::report::{sci, TextTable};
use coldtall_core::{Explorer, MemoryConfig};
use coldtall_cryo::overhead_for_capacity;
use coldtall_units::Watts;
use coldtall_workloads::spec2017;

/// Break-even cooling factor per benchmark: `(warm power) / (77 K
/// device power)`, i.e. `1 + overhead` at parity, plus the smallest
/// surveyed plant capacity that achieves it.
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let configs = vec![MemoryConfig::sram_350k(), MemoryConfig::edram_77k()];
    let arena = crate::sweep(&explorer, configs, spec2017());
    let (warm, cold) = arena.device_power_watts().split_at(arena.benchmark_count());
    let mut table = TextTable::new(&[
        "benchmark",
        "reads_per_s",
        "break_even_factor",
        "smallest_viable_plant_W",
    ]);
    for (b, bench) in spec2017().iter().enumerate() {
        // wall = device * (1 + f) <= warm  =>  f <= warm/device - 1.
        let break_even = warm[b] / cold[b] - 1.0;
        let plant = smallest_viable_plant(break_even);
        table.row_owned(vec![
            bench.name.to_string(),
            sci(bench.traffic.reads_per_sec),
            sci(break_even),
            plant.map_or_else(|| "none".to_string(), sci),
        ]);
    }
    table
}

/// Smallest plant capacity (watts) whose overhead is within the
/// break-even factor, searched over the survey's capacity range.
fn smallest_viable_plant(break_even_factor: f64) -> Option<f64> {
    let mut capacity = 10.0;
    while capacity <= 1.0e5 {
        if overhead_for_capacity(Watts::new(capacity)) <= break_even_factor {
            return Some(capacity);
        }
        capacity *= 1.25;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_suite() {
        assert_eq!(run().len(), 23);
    }

    #[test]
    fn quiet_workloads_break_even_on_any_cooler() {
        let csv = run().to_csv();
        let povray = csv.lines().find(|l| l.starts_with("povray")).unwrap();
        let factor: f64 = povray.split(',').nth(2).unwrap().parse().unwrap();
        assert!(factor > 39.6, "povray must tolerate even the 10 W tier");
        let plant = povray.split(',').nth(3).unwrap();
        let plant_w: f64 = plant.parse().unwrap();
        assert!(plant_w <= 10.0 + 1e-9);
    }

    #[test]
    fn busiest_workloads_cannot_break_even() {
        let csv = run().to_csv();
        let mcf = csv.lines().find(|l| l.starts_with("mcf")).unwrap();
        let factor: f64 = mcf.split(',').nth(2).unwrap().parse().unwrap();
        assert!(
            factor < 9.65,
            "mcf must not break even at any surveyed scale (factor = {factor})"
        );
        assert!(mcf.ends_with("none"));
    }
}
