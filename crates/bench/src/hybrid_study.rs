//! Extension study: hybrid SRAM + eNVM LLCs (related work, Section II-B).
//!
//! Sweeps the fast-partition size for SRAM+STT-RAM and SRAM+PCM hybrids
//! on a write-heavy and a read-heavy workload, reporting power, latency,
//! and the dense partition's wear-limited lifetime against the pure
//! configurations.

use coldtall_cell::{MemoryTechnology, Tentpole};
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{Explorer, HybridLlc, MemoryConfig};
use coldtall_workloads::benchmark;

/// The dense technologies the study pairs with SRAM.
const DENSE: [MemoryTechnology; 2] = [MemoryTechnology::SttRam, MemoryTechnology::Pcm];

/// One row per (workload, dense technology, fast ways 0/2/4/8), where
/// zero fast ways denotes the pure dense configuration and 16 the pure
/// SRAM one.
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let mut table = TextTable::new(&[
        "benchmark",
        "dense_technology",
        "fast_ways",
        "rel_power",
        "rel_latency",
        "lifetime_years",
    ]);
    for bench_name in ["lbm", "mcf"] {
        let bench = benchmark(bench_name).expect("benchmark present");
        // The pure end points as one plan: one plane per dense
        // technology, then pure SRAM.
        let dense: Vec<MemoryConfig> = DENSE
            .iter()
            .map(|&tech| MemoryConfig::envm_3d(tech, Tentpole::Optimistic, 4))
            .collect();
        let mut configs = dense.clone();
        configs.push(MemoryConfig::sram_350k());
        let ends = crate::sweep(&explorer, configs, std::slice::from_ref(bench));
        let end_row = |plane: usize| {
            [
                ends.relative_power()[plane],
                ends.relative_latency()[plane],
                ends.lifetime_years()[plane],
            ]
        };
        for (d, (dense_tech, dense)) in DENSE.iter().zip(dense).enumerate() {
            let mut push = |fast_ways: u8, [power, latency, lifetime]: [f64; 3]| {
                table.row_owned(vec![
                    bench_name.to_string(),
                    dense_tech.name().to_string(),
                    fast_ways.to_string(),
                    sci(power),
                    sci(latency),
                    sci(lifetime),
                ]);
            };
            push(0, end_row(d));
            for fast_ways in [2u8, 4, 8] {
                let hybrid = HybridLlc::new(MemoryConfig::sram_350k(), dense.clone(), fast_ways);
                let eval = explorer.evaluate_hybrid(&hybrid, bench);
                push(
                    fast_ways,
                    [eval.relative_power, eval.relative_latency, eval.lifetime_years],
                );
            }
            push(16, end_row(DENSE.len()));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_both_workloads_and_technologies() {
        assert_eq!(run().len(), 2 * 2 * 5);
    }

    #[test]
    fn hybridization_extends_pcm_lifetime_on_lbm() {
        let csv = run().to_csv();
        let lifetime = |ways: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with("lbm,PCM,") && l.split(',').nth(2) == Some(ways))
                .and_then(|l| l.split(',').nth(5))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(lifetime("4") > lifetime("0"), "SRAM ways must shield PCM");
    }
}
