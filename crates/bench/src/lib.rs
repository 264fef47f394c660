//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each submodule reproduces one evaluation artifact, returning a
//! [`coldtall_core::report::TextTable`] with the same rows/series the
//! paper plots. A thin binary per experiment (in `src/bin/`) prints the
//! table (pass `--csv` for machine-readable output); the integration
//! test suite asserts the paper's shape anchors on the same data.
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1` | total LLC power vs temperature for `namd`, with cooling tiers |
//! | `fig3` | array characterization vs temperature (SRAM, 3T-eDRAM) |
//! | `fig4` | total LLC power for `namd` and `leela` at 350 K / 77 K / 77 K + cooling |
//! | `fig5` | total LLC power and latency across SPEC2017, cryo vs room temperature |
//! | `fig6` | 2D/3D eNVM array characterization at 350 K |
//! | `fig7` | total LLC power and latency across SPEC2017 for 2D/3D eNVMs |
//! | `table1` | CPU model parameters |
//! | `table2` | optimal LLC per traffic band and design target |
//!
//! Beyond the paper's artifacts, eleven ablation/extension studies and
//! one timing harness:
//!
//! | binary | study |
//! |---|---|
//! | `ablation_node` | process-node scaling (45/32/22/16 nm) |
//! | `ablation_stacking` | 3D integration styles (F2F / F2B / monolithic) |
//! | `ablation_cooling` | cryocooler break-even capacity per benchmark |
//! | `ablation_ecc` | error-correction strength (none / SECDED / BCH) |
//! | `ablation_voltage` | 77 K supply-voltage sweep around the cryo policy |
//! | `ablation_tags` | the SRAM tag store's share of leakage/latency/area |
//! | `accel_study` | the future-work accelerator scenarios at 10 W cooling |
//! | `cryo_nvm_study` | Δ(T) STT-MRAM across 77-387 K × 1-8 dies, sweep + Pareto frontier |
//! | `hybrid_study` | SRAM + eNVM hybrid partitions (related work II-B) |
//! | `dynamic_temperature` | temperature as a dynamic knob (future work VI) |
//! | `variation_study` | Monte-Carlo sampling between the tentpoles |
//! | `bench_sweep` | sequential-vs-parallel sweep wall-clock (writes `BENCH_sweep.json`) |
//!
//! # Examples
//!
//! ```
//! let table = coldtall_bench::fig4::run();
//! assert!(!table.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation_cooling;
pub mod ablation_ecc;
pub mod ablation_node;
pub mod ablation_stacking;
pub mod ablation_tags;
pub mod ablation_voltage;
pub mod accel_study;
pub mod cryo_nvm_study;
pub mod dynamic_temperature;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod hybrid_study;
pub mod table1;
pub mod table2;
pub mod timing;
pub mod variation_study;

use coldtall_core::report::TextTable;
use coldtall_core::{EvalArena, Explorer, MemoryConfig, SweepPlan};
use coldtall_workloads::Benchmark;

/// Evaluates the `configs` × `benchmarks` grid as one compiled plan
/// through the batch kernel, on the calling thread. Rows are
/// config-major: grid cell `(c, b)` is row `arena.row_index(c, b)`, and
/// every row is bit-identical to [`Explorer::evaluate`] on that cell.
///
/// # Panics
///
/// Panics if some configuration does not resolve to exactly one
/// backend (no artifact configuration does).
pub(crate) fn sweep(
    explorer: &Explorer,
    configs: Vec<MemoryConfig>,
    benchmarks: &'static [Benchmark],
) -> EvalArena {
    let plan = SweepPlan::new(configs)
        .with_benchmarks(benchmarks)
        .compile(explorer.backends())
        .unwrap_or_else(|e| panic!("{e}"));
    let mut arena = EvalArena::new();
    explorer.execute_into(&plan, &mut arena);
    arena
}

/// Prints an experiment table to stdout, honouring a `--csv` argument.
///
/// This is the shared entry point of every experiment binary.
pub fn emit(title: &str, table: &TextTable) {
    let csv = std::env::args().any(|a| a == "--csv");
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("# {title}");
        println!();
        print!("{}", table.render());
    }
}
