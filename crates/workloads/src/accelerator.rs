//! Accelerator-class workload profiles.
//!
//! The paper's summary argues cryogenic operation "might be better-suited
//! to more specialized computing systems and settings where memory
//! traffic is well-understood, relatively lower overall traffic, and
//! perhaps when ambient operating temperatures are advantageously cool
//! (e.g., embedded operation in outer space)". This module supplies the
//! traffic profiles to run that follow-on study: accelerator memories
//! with well-characterized, mostly modest LLC/scratchpad traffic.

use std::sync::OnceLock;

use coldtall_cachesim::LlcTraffic;

use crate::generator::GeneratorParams;
use crate::profile::{Benchmark, Suite};

fn accel(
    name: &'static str,
    reads: f64,
    writes: f64,
    ws_bytes: u64,
    hot_probability: f64,
    ipc: f64,
) -> Benchmark {
    let write_fraction = (writes / (reads + writes)).clamp(0.0, 0.95);
    Benchmark {
        name,
        suite: Suite::Accelerator,
        traffic: LlcTraffic::new(reads, writes),
        generator: GeneratorParams {
            working_set_bytes: ws_bytes,
            hot_fraction: (256.0 * 1024.0 / ws_bytes as f64).min(0.05),
            hot_probability,
            write_fraction,
            // Accelerators stream with long, regular runs.
            sequential_run: 64,
            instructions_per_access: 2.0,
            shared_fraction: 0.0,
        },
        ipc,
    }
}

/// The accelerator study set: four specialized-traffic scenarios, from
/// an ultra-quiet space-borne sensor pipeline to a streaming graph
/// engine. Built once per process, like [`crate::spec2017`], so a
/// sweep plan can borrow it for the program's lifetime.
#[must_use]
pub fn accelerator_profiles() -> &'static [Benchmark] {
    static PROFILES: OnceLock<Vec<Benchmark>> = OnceLock::new();
    PROFILES.get_or_init(build_profiles)
}

fn build_profiles() -> Vec<Benchmark> {
    const MIB: u64 = 1024 * 1024;
    vec![
        // A duty-cycled sensor-fusion pipeline on a satellite: tiny,
        // perfectly periodic traffic.
        accel("sensor-fusion-space", 2.0e3, 5.0e2, MIB, 0.999, 0.8),
        // Edge DNN inference with weights resident in the cache: bursts
        // of reads at a low duty cycle.
        accel("dnn-inference-edge", 4.0e4, 4.0e3, 8 * MIB, 0.99, 1.5),
        // Always-on video analytics: steady moderate streaming.
        accel("video-analytics", 2.0e6, 6.0e5, 32 * MIB, 0.9, 1.2),
        // A graph-analytics engine: irregular, high-rate pointer chasing.
        accel("graph-engine", 6.0e7, 1.5e7, 256 * MIB, 0.4, 0.5),
    ]
}

/// Looks an accelerator profile up by name.
#[must_use]
pub fn accelerator_profile(name: &str) -> Option<&'static Benchmark> {
    accelerator_profiles().iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TrafficBand;

    #[test]
    fn four_profiles_spanning_the_bands() {
        let set = accelerator_profiles();
        assert_eq!(set.len(), 4);
        assert_eq!(set[0].traffic_band(), TrafficBand::Low);
        assert_eq!(set.last().unwrap().traffic_band(), TrafficBand::High);
        for b in set {
            assert_eq!(b.suite, Suite::Accelerator);
            b.generator.validate();
        }
    }

    #[test]
    fn space_profile_is_quietest() {
        let set = accelerator_profiles();
        let space = accelerator_profile("sensor-fusion-space").unwrap();
        for b in set {
            assert!(b.traffic.reads_per_sec >= space.traffic.reads_per_sec);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(accelerator_profile("dnn-inference-edge").is_some());
        assert!(accelerator_profile("bitcoin-miner").is_none());
    }
}
