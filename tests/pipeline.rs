//! End-to-end pipeline test: synthetic workload -> cache hierarchy ->
//! LLC traffic -> design-space exploration, exactly the cross-stack flow
//! of the paper's Fig. 2 — without the calibrated traffic table in the
//! loop.

use coldtall::cachesim::{CpuConfig, LlcTraffic};
use coldtall::core::{Explorer, MemoryConfig};
use coldtall::units::Capacity;
use coldtall::workloads::{benchmark, simulate_traffic, spec2017, Benchmark};

/// Evaluate a configuration under *simulated* (not calibrated) traffic.
fn evaluate_with_simulated_traffic(
    explorer: &Explorer,
    config: &MemoryConfig,
    bench: &Benchmark,
    traffic: LlcTraffic,
) -> f64 {
    // Recreate the application model through public APIs: power =
    // standby + traffic-weighted dynamic, with cooling.
    let array = explorer.characterize(config);
    let device = array.standby_power().get()
        + traffic.reads_per_sec * array.read_energy.get()
        + traffic.writes_per_sec * array.write_energy.get();
    let wall = config
        .cooling()
        .wall_power(coldtall::units::Watts::new(device), config.temperature());
    let _ = bench;
    wall.get()
}

#[test]
fn simulated_traffic_reproduces_the_calibrated_ordering() {
    let config = CpuConfig::skylake_desktop();
    let names = ["povray", "leela", "x264", "gcc", "mcf"];
    let mut simulated: Vec<(f64, &str)> = names
        .iter()
        .map(|&n| {
            let b = benchmark(n).unwrap();
            let t = simulate_traffic(b, config, 30_000, 99);
            (t.reads_per_sec, n)
        })
        .collect();
    simulated.sort_by(|a, b| a.0.total_cmp(&b.0));
    let simulated_order: Vec<&str> = simulated.iter().map(|(_, n)| *n).collect();
    // The calibrated table is sorted by read traffic, so the subsequence
    // order must match.
    assert_eq!(simulated_order, names.to_vec());
}

#[test]
fn end_to_end_choice_agrees_between_simulated_and_calibrated_traffic() {
    let cpu = CpuConfig::skylake_desktop();
    let explorer = Explorer::with_defaults();
    let candidates = [
        MemoryConfig::sram_350k(),
        MemoryConfig::edram_77k(),
        MemoryConfig::envm_3d(
            coldtall::cell::MemoryTechnology::Pcm,
            coldtall::cell::Tentpole::Optimistic,
            4,
        ),
    ];
    for name in ["povray", "mcf"] {
        let bench = benchmark(name).unwrap();
        let simulated = simulate_traffic(bench, cpu, 30_000, 7);

        let best_by_sim = candidates
            .iter()
            .min_by(|a, b| {
                evaluate_with_simulated_traffic(&explorer, a, bench, simulated).total_cmp(
                    &evaluate_with_simulated_traffic(&explorer, b, bench, simulated),
                )
            })
            .unwrap();
        let best_by_table = candidates
            .iter()
            .min_by(|a, b| {
                explorer
                    .evaluate(a, bench)
                    .relative_power
                    .total_cmp(&explorer.evaluate(b, bench).relative_power)
            })
            .unwrap();
        assert_eq!(
            best_by_sim.label(),
            best_by_table.label(),
            "{name}: pipeline and calibrated table must agree on the winner"
        );
    }
}

#[test]
fn full_sweep_produces_finite_sane_rows() {
    let explorer = Explorer::with_defaults();
    let rows = explorer
        .try_sweep_configs(&MemoryConfig::study_set())
        .expect("the study sweeps");
    assert_eq!(rows.len(), MemoryConfig::study_set().len() * spec2017().len());
    for row in &rows {
        assert!(row.wall_power.get() > 0.0, "{}: zero power", row.config_label);
        assert!(row.relative_power > 0.0);
        assert!(row.footprint_mm2 > 0.1 && row.footprint_mm2 < 50.0);
        assert!(
            row.relative_latency > 0.0,
            "{}: non-positive latency",
            row.config_label
        );
        assert!(row.lifetime_years > 0.0);
    }
}

#[test]
fn windowed_traffic_feeds_the_temperature_scheduler() {
    // The full future-work pipeline: simulate a workload, slice it into
    // traffic windows, and plan a temperature schedule over them.
    use coldtall::cell::MemoryTechnology;
    use coldtall::core::{plan_schedule, WorkloadPhase};
    use coldtall::units::{Kelvin, Seconds};
    use coldtall::workloads::windowed_traffic;

    let config = CpuConfig::skylake_desktop();
    let windows = windowed_traffic(benchmark("x264").unwrap(), config, 3, 2_000, 5);
    let phases: Vec<WorkloadPhase> = windows
        .into_iter()
        .enumerate()
        .map(|(i, traffic)| WorkloadPhase {
            name: format!("window-{i}"),
            traffic,
            duration: Seconds::new(60.0),
        })
        .collect();
    let explorer = Explorer::with_defaults();
    let schedule = plan_schedule(
        &explorer,
        MemoryTechnology::Edram3T,
        &phases,
        &[Kelvin::LN2, Kelvin::REFERENCE],
    );
    assert_eq!(schedule.temperatures.len(), 3);
    assert!(schedule.total_energy.get() > 0.0);
    assert!(schedule.total_energy.get() <= schedule.best_fixed_energy.get() + 1e-9);
}

#[test]
fn capacity_is_conserved_through_the_stack() {
    // 16 MiB through ECC is 18 MiB of raw bits; the array must hold them.
    let explorer = Explorer::with_defaults();
    let array = explorer.characterize(&MemoryConfig::sram_350k());
    let raw_bits = array.organization.bits_per_subarray() as f64;
    let needed = Capacity::from_mebibytes(16).bits_f64() * 1.125;
    // Subarray count times subarray bits covers the ECC-padded capacity.
    let subarrays = (needed / raw_bits).ceil();
    assert!(subarrays >= 1.0);
    assert!(
        array.transfer_bits > 512.0,
        "ECC check bits must ride along: {}",
        array.transfer_bits
    );
}
