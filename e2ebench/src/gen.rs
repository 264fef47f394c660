//! Seeded input generators. Everything the program under test sees —
//! the artifact order, the explore region and constraints, the serve
//! history and request streams — comes from here, so one seed always
//! yields the same inputs.

use std::collections::HashSet;

use coldtall_cell::{MemoryTechnology, Tentpole};
use coldtall_core::{Constraints, DesignPointKey, MemoryConfig};
use coldtall_rng::SmallRng;
use coldtall_units::Kelvin;
use coldtall_workloads::spec2017;

/// Independent random streams derived from the one `--seed`.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniformly drawn element of a non-empty slice.
fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[usize::try_from(rng.gen_range(0..items.len() as u64)).expect("index fits usize")]
}

/// A seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = usize::try_from(rng.gen_range(0..i as u64 + 1)).expect("index fits usize");
        items.swap(i, j);
    }
}

/// The explore region: the study set and the cryogenic STT-MRAM set,
/// each point also expanded over a 5 K ladder from 60 to 400 K
/// (stacked volatile points stay at the 350 K reference, the only
/// temperature they are modeled at), deduplicated, in seeded order.
pub fn explore_region(seed: u64) -> Vec<MemoryConfig> {
    let ladder: Vec<Kelvin> = (0..=68)
        .map(|i| Kelvin::new(60.0 + 5.0 * f64::from(i)))
        .collect();
    let mut seen = HashSet::new();
    let mut region = Vec::new();
    for base in MemoryConfig::study_set()
        .into_iter()
        .chain(MemoryConfig::cryo_stt_study_set())
    {
        let stacked_volatile = !base.technology().is_nonvolatile() && base.dies() > 1;
        let mut points = vec![base.clone()];
        if !stacked_volatile {
            points.extend(ladder.iter().map(|&t| base.clone().at_temperature(t)));
        }
        for point in points {
            if seen.insert(DesignPointKey::of_config(&point)) {
                region.push(point);
            }
        }
    }
    shuffle(&mut region, &mut rng(seed, 1));
    region
}

/// The explore search's seeded constraints: a latency, area and
/// lifetime bound each drawn from a range that leaves a frontier.
pub fn explore_constraints(seed: u64) -> Constraints {
    let mut rng = rng(seed, 2);
    let mut constraints = Constraints::none();
    constraints.max_relative_latency = 1.2 + 0.8 * rng.gen_f64();
    constraints.max_area_mm2 = Some(8.0 + 12.0 * rng.gen_f64());
    constraints.min_lifetime_years = 1.0 + 9.0 * rng.gen_f64();
    constraints
}

/// One (technology, tentpole, dies) combination the serve protocol
/// accepts at some temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combo {
    /// Technology as the protocol spells it.
    pub tech: &'static str,
    /// Tentpole as the protocol spells it.
    pub tentpole: &'static str,
    /// Stacked die count.
    pub dies: u8,
}

/// Combos valid at every temperature of the modeled window: 2D SRAM,
/// 2D 3T-eDRAM, and every eNVM tentpole and die count. Stacked SRAM
/// (350 K only) and stacked eDRAM (never) are left out.
pub fn any_temperature_combos() -> Vec<Combo> {
    let mut combos = vec![
        Combo {
            tech: "sram",
            tentpole: "optimistic",
            dies: 1,
        },
        Combo {
            tech: "edram",
            tentpole: "optimistic",
            dies: 1,
        },
    ];
    for tech in ["pcm", "stt", "rram"] {
        for tentpole in ["optimistic", "pessimistic"] {
            for dies in MemoryConfig::VALID_DIES {
                combos.push(Combo {
                    tech,
                    tentpole,
                    dies,
                });
            }
        }
    }
    combos
}

/// A design point as the generator names it; temperatures are exact
/// multiples of 0.01 K, held as hundredths so equality is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point {
    /// The combination.
    pub combo: Combo,
    /// Temperature in hundredths of a kelvin.
    pub centikelvin: u32,
}

impl Point {
    /// Temperature in kelvin.
    pub fn kelvin(self) -> f64 {
        f64::from(self.centikelvin) / 100.0
    }

    /// The point's request fields, as a JSON object body.
    pub fn json_fields(self) -> String {
        format!(
            "\"tech\":\"{}\",\"tentpole\":\"{}\",\"dies\":{},\"temp\":{}",
            self.combo.tech,
            self.combo.tentpole,
            self.combo.dies,
            self.kelvin()
        )
    }
}

/// The 0.01 K temperature grid over the modeled 60-400 K window.
const GRID_LO: u32 = 6_000;
const GRID_HI: u32 = 40_000;
/// Grid slots per residue class: history, connection 0, connection 1.
const CLASSES: u32 = 3;
const SLOTS_PER_CLASS: u32 = (GRID_HI - GRID_LO) / CLASSES;

/// Temperatures the study set (and so any sweep or search request)
/// characterizes; never handed out as fresh points.
fn study_temperature(centikelvin: u32) -> bool {
    centikelvin == 7_700 || centikelvin == 35_000
}

/// The study set as generator points: after the history's sweep these
/// are all cached, so they are valid repeat points.
fn study_points() -> Vec<Point> {
    MemoryConfig::study_set()
        .iter()
        .map(|config| {
            let tech = match config.technology() {
                MemoryTechnology::Sram => "sram",
                MemoryTechnology::Edram3T => "edram",
                MemoryTechnology::Pcm => "pcm",
                MemoryTechnology::SttRam => "stt",
                MemoryTechnology::Rram => "rram",
                other => panic!("study set holds unexpected technology {other:?}"),
            };
            let tentpole = match config.tentpole() {
                Tentpole::Pessimistic if config.technology().is_nonvolatile() => "pessimistic",
                _ => "optimistic",
            };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let centikelvin = (config.temperature().get() * 100.0).round() as u32;
            Point {
                combo: Combo {
                    tech,
                    tentpole,
                    dies: config.dies(),
                },
                centikelvin,
            }
        })
        .collect()
}

/// The serve history: `size` distinct seeded points in the history's
/// grid class, followed by the study set. Every one is characterized
/// before the daemon restarts, so later requests for them are repeats.
pub fn serve_history(seed: u64, size: usize) -> Vec<Point> {
    let combos = any_temperature_combos();
    let mut rng = rng(seed, 3);
    let mut seen = HashSet::new();
    let mut points = Vec::with_capacity(size + 31);
    while points.len() < size {
        let combo = *pick(&mut rng, &combos);
        let slot = u32::try_from(rng.gen_range(0..u64::from(SLOTS_PER_CLASS))).expect("fits");
        let centikelvin = GRID_LO + slot * CLASSES;
        let point = Point { combo, centikelvin };
        if !study_temperature(centikelvin) && seen.insert(point) {
            points.push(point);
        }
    }
    points.extend(study_points());
    points
}

/// The request-stream seed of serve epoch `epoch`: every epoch restarts
/// from the same history but sends requests of its own.
pub fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    rng(seed, 100 + epoch as u64).next_u64()
}

/// How a generated request relates to the daemon's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A point characterized before: a cache hit, no registry append.
    Repeat,
    /// A point never requested before: a characterization plus an append.
    Fresh,
    /// A search or sweep over the study region.
    Region,
}

/// One generated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    /// The wire line (no trailing newline).
    pub line: String,
    /// The `cmd` field.
    pub kind: &'static str,
    /// The correlation id the line carries.
    pub id: u64,
    /// Repeat, fresh, or region.
    pub class: Class,
    /// The named point, for point requests.
    pub point: Option<Point>,
}

/// One connection's infinite seeded request stream: about 55%
/// evaluate, 40% characterize, 4% search and 1% sweep; half the point
/// requests name a history point, half a never-seen point.
///
/// Fresh points walk a seeded bijection over this connection's own
/// residue class of the 0.01 K grid, so no two requests of any stream,
/// and no history point, ever share a fresh point.
pub struct Stream {
    rng: SmallRng,
    connection: u32,
    history: Vec<Point>,
    combos: Vec<Combo>,
    next_id: u64,
    fresh_index: u64,
    fresh_stride: u64,
    fresh_offset: u64,
}

impl Stream {
    /// The stream of connection `connection` (0 or 1).
    pub fn new(seed: u64, connection: u32, history: &[Point]) -> Self {
        assert!(connection < CLASSES - 1, "two connections share the grid");
        let mut rng = rng(seed, 10 + u64::from(connection));
        let combos = any_temperature_combos();
        let space = combos.len() as u64 * u64::from(SLOTS_PER_CLASS);
        // Any stride coprime to the space makes `i * stride + offset`
        // a permutation of it.
        let fresh_stride = loop {
            let candidate = rng.gen_range(1..space);
            if gcd(candidate, space) == 1 {
                break candidate;
            }
        };
        let fresh_offset = rng.gen_range(0..space);
        Self {
            rng,
            connection,
            history: history.to_vec(),
            combos,
            next_id: 1,
            fresh_index: 0,
            fresh_stride,
            fresh_offset,
        }
    }

    fn space(&self) -> u64 {
        self.combos.len() as u64 * u64::from(SLOTS_PER_CLASS)
    }

    /// The next never-seen point, or `None` once this connection's
    /// share of the grid is spent.
    fn fresh_point(&mut self) -> Option<Point> {
        while self.fresh_index < self.space() {
            let slot = (self.fresh_index * self.fresh_stride + self.fresh_offset) % self.space();
            self.fresh_index += 1;
            let combos = self.combos.len() as u64;
            let combo = self.combos[usize::try_from(slot % combos).expect("fits")];
            let grid = u32::try_from(slot / combos).expect("fits");
            let centikelvin = GRID_LO + grid * CLASSES + 1 + self.connection;
            if !study_temperature(centikelvin) {
                return Some(Point { combo, centikelvin });
            }
        }
        None
    }

    /// The next request, or `None` once fresh points run out.
    pub fn next_request(&mut self) -> Option<GenRequest> {
        let id = self.next_id;
        self.next_id += 1;
        let roll = self.rng.gen_f64();
        if roll >= 0.95 {
            let (line, kind) = if roll >= 0.99 {
                (format!("{{\"cmd\":\"sweep\",\"id\":{id}}}"), "sweep")
            } else {
                (self.search_line(id), "search")
            };
            return Some(GenRequest {
                line,
                kind,
                id,
                class: Class::Region,
                point: None,
            });
        }
        let (point, class) = if self.rng.gen_bool(0.5) {
            (*pick(&mut self.rng, &self.history), Class::Repeat)
        } else {
            (self.fresh_point()?, Class::Fresh)
        };
        let (line, kind) = if roll < 0.55 {
            let bench = pick(&mut self.rng, spec2017()).name;
            (
                format!(
                    "{{\"cmd\":\"evaluate\",\"id\":{id},{},\"bench\":\"{bench}\"}}",
                    point.json_fields()
                ),
                "evaluate",
            )
        } else {
            (
                format!(
                    "{{\"cmd\":\"characterize\",\"id\":{id},{}}}",
                    point.json_fields()
                ),
                "characterize",
            )
        };
        Some(GenRequest {
            line,
            kind,
            id,
            class,
            point: Some(point),
        })
    }

    /// A search over the study region narrowed to a random study
    /// point's technology and/or die count (so the region is never
    /// empty), under random latency/area/lifetime bounds.
    fn search_line(&mut self, id: u64) -> String {
        let anchor = *pick(&mut self.rng, &study_points());
        let mut fields = format!("{{\"cmd\":\"search\",\"id\":{id}");
        if self.rng.gen_bool(0.5) {
            fields.push_str(&format!(",\"tech\":\"{}\"", anchor.combo.tech));
        }
        if self.rng.gen_bool(0.5) {
            fields.push_str(&format!(",\"dies\":{}", anchor.combo.dies));
        }
        fields.push_str(&format!(
            ",\"max_latency\":{},\"max_area\":{},\"min_lifetime\":{}}}",
            1.0 + self.rng.gen_f64(),
            5.0 + 20.0 * self.rng.gen_f64(),
            10.0 * self.rng.gen_f64()
        ));
        fields
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_core::DesignPoint;

    fn config(point: Point) -> MemoryConfig {
        DesignPoint {
            tech: point.combo.tech.to_string(),
            tentpole: point.combo.tentpole.to_string(),
            dies: point.combo.dies,
            temperature_kelvin: point.kelvin(),
        }
        .to_config()
        .expect("valid design point")
    }

    fn take(stream: &mut Stream, n: usize) -> Vec<GenRequest> {
        (0..n)
            .map(|_| stream.next_request().expect("stream is long"))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(explore_region(7), explore_region(7));
        assert_eq!(explore_constraints(7), explore_constraints(7));
        let history = serve_history(7, 300);
        assert_eq!(history, serve_history(7, 300));
        for connection in 0..2 {
            let a = take(&mut Stream::new(7, connection, &history), 2_000);
            let b = take(&mut Stream::new(7, connection, &history), 2_000);
            assert_eq!(a, b);
        }
        assert_ne!(
            explore_region(7),
            explore_region(8),
            "the seed orders the region"
        );
        assert_ne!(
            take(&mut Stream::new(7, 0, &history), 50),
            take(&mut Stream::new(8, 0, &history), 50)
        );
    }

    #[test]
    fn region_is_the_deduplicated_ladder_expansion() {
        let region = explore_region(1);
        let keys: HashSet<_> = region.iter().map(DesignPointKey::of_config).collect();
        assert_eq!(keys.len(), region.len());
        // 26 any-temperature study combos x 69 ladder temperatures, the
        // 3 stacked SRAM points, and the off-ladder originals: 77 K SRAM
        // and eDRAM, and the cryo STT set at 7 off-ladder temperatures.
        assert_eq!(region.len(), 26 * 69 + 3 + 2 + 8 * 7);
        for config in &region {
            if !config.technology().is_nonvolatile() && config.dies() > 1 {
                assert_eq!(config.temperature(), Kelvin::REFERENCE);
            }
        }
    }

    #[test]
    fn every_generated_point_resolves_to_a_backend() {
        let explorer = coldtall_core::Explorer::with_defaults();
        let history = serve_history(3, 400);
        let mut points: Vec<Point> = history.clone();
        for connection in 0..2 {
            let mut stream = Stream::new(3, connection, &history);
            points.extend(take(&mut stream, 3_000).into_iter().filter_map(|r| r.point));
        }
        for point in points {
            explorer
                .backends()
                .resolve(&config(point))
                .expect("a backend claims it");
        }
        for config in explore_region(3) {
            explorer
                .backends()
                .resolve(&config)
                .expect("a backend claims it");
        }
    }

    #[test]
    fn every_generated_line_parses() {
        let history = serve_history(5, 100);
        let mut stream = Stream::new(5, 1, &history);
        let mut kinds = HashSet::new();
        for request in take(&mut stream, 3_000) {
            let parsed = coldtall_serve::parse_request(&request.line).expect("line parses");
            assert_eq!(parsed.request.kind(), request.kind);
            assert_eq!(parsed.id.as_deref(), Some(request.id.to_string().as_str()));
            kinds.insert(request.kind);
        }
        assert_eq!(kinds.len(), 4, "all four request kinds appear: {kinds:?}");
    }

    #[test]
    fn repeat_and_fresh_classification_is_exact() {
        let history = serve_history(11, 500);
        let history_set: HashSet<Point> = history.iter().copied().collect();
        assert_eq!(
            history_set.len(),
            history.len(),
            "history points are distinct"
        );
        let mut seen_keys: HashSet<DesignPointKey> = history
            .iter()
            .map(|&p| DesignPointKey::of_config(&config(p)))
            .collect();
        let streams: Vec<Vec<GenRequest>> = (0..2)
            .map(|c| take(&mut Stream::new(11, c, &history), 20_000))
            .collect();
        let (mut repeats, mut fresh) = (0, 0);
        // Interleave the two connections: classification must hold in
        // any order the daemon sees them.
        for (a, b) in streams[0].iter().zip(&streams[1]) {
            for request in [a, b] {
                let Some(point) = request.point else {
                    assert_eq!(request.class, Class::Region);
                    continue;
                };
                let key = DesignPointKey::of_config(&config(point));
                match request.class {
                    Class::Repeat => {
                        repeats += 1;
                        assert!(history_set.contains(&point), "repeat names a history point");
                    }
                    Class::Fresh => {
                        fresh += 1;
                        assert!(
                            seen_keys.insert(key),
                            "fresh point {point:?} was seen before"
                        );
                    }
                    Class::Region => panic!("point request classed as region"),
                }
            }
        }
        let ratio = f64::from(repeats) / f64::from(repeats + fresh);
        assert!((0.47..0.53).contains(&ratio), "repeat share {ratio}");
    }
}
