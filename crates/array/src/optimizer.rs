//! Internal-organization optimizer.

use core::fmt;

use coldtall_units::{Joules, Seconds, Watts};

use crate::characterize::ArrayCharacterization;
use crate::components::{
    bitline, decoder, htree, leakage, refresh, wordline, Ctx, DeviceCtx, Geometry, NodeDevices,
    TempCtx,
};
use crate::organization::Organization;
use crate::spec::ArraySpec;

/// The objective the organization search minimizes.
///
/// The paper's arrays are optimized for energy-delay product; the other
/// objectives support the `Optimal LLC` selection of Table II and
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize read energy times read latency (the paper's default).
    #[default]
    EnergyDelayProduct,
    /// Minimize read latency.
    ReadLatency,
    /// Minimize read energy.
    ReadEnergy,
    /// Minimize the 2D footprint.
    Area,
    /// Minimize standby (leakage + refresh) power.
    StandbyPower,
}

impl Objective {
    /// The scalar score this objective assigns (lower is better).
    #[must_use]
    pub fn score(self, array: &ArrayCharacterization) -> f64 {
        match self {
            Self::EnergyDelayProduct => array.read_edp(),
            Self::ReadLatency => array.read_latency.get(),
            Self::ReadEnergy => array.read_energy.get(),
            Self::Area => array.footprint.get(),
            Self::StandbyPower => array.standby_power().get(),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::EnergyDelayProduct => "energy-delay product",
            Self::ReadLatency => "read latency",
            Self::ReadEnergy => "read energy",
            Self::Area => "area",
            Self::StandbyPower => "standby power",
        })
    }
}

/// The feasible candidate organizations of `spec`, each paired with
/// its derived (temperature-invariant) geometry, in canonical candidate
/// order.
///
/// Organizations whose subarray would exceed the per-die share of the
/// array (more subarray bits than one die stores) are skipped; at
/// least one candidate always remains for the capacities in this
/// study. This is phase 1 of the two-phase kernel — the list depends
/// on capacity, cell, node, and stacking, never on the operating
/// point, so [`crate::OrgGeometry`] caches it across a temperature
/// sweep.
pub(crate) fn feasible_candidates(spec: &ArraySpec) -> Vec<(Organization, Geometry)> {
    let total_bits = spec.capacity().bits_f64() * spec.storage_overhead();
    Organization::candidates()
        .filter(|org| {
            // A subarray must not dwarf the per-die share of the array.
            let per_die = total_bits / f64::from(spec.dies());
            org.bits_per_subarray() as f64 <= per_die
        })
        .map(|org| (org, Geometry::derive(spec, org)))
        .collect()
}

/// Componentwise floors over a feasible candidate list at one operating
/// point: for each physical quantity the application model consumes,
/// the minimum over *every* candidate organization.
///
/// Whatever objective the organization search later minimizes, the
/// chosen organization is one of the candidates, and each of its
/// characterized fields is produced by the very component expression
/// minimized here (the column sums are bit-identical to the term order
/// [`crate::ArrayCharacterization`] is built from). The floors are
/// therefore sound lower bounds on the chosen array's fields for any
/// [`Objective`], which is what the design-space search in
/// `coldtall-core` prunes with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentFloors {
    /// Minimum read latency over the candidates, in seconds.
    pub read_latency_s: f64,
    /// Minimum read energy per access over the candidates, in joules.
    pub read_energy_j: f64,
    /// Minimum standby (leakage + refresh) power over the candidates,
    /// in watts.
    pub standby_power_w: f64,
    /// Minimum 2D footprint over the candidates, in square meters.
    pub footprint_m2: f64,
    /// Minimum refresh busy fraction over the candidates (`0.0` for
    /// refresh-free cells).
    pub refresh_busy_fraction: f64,
}

/// The solved candidate list lowered into struct-of-arrays columns: one
/// contiguous run of `f64` per temperature-invariant scalar a component
/// `*_raw` helper consumes, all in a single buffer (one allocation per
/// solve, not one per column).
///
/// Built once at solve time (phase 1) from the same shared device
/// constants the `Ctx` path reads, so a column entry is bit-identical
/// to the scalar the `Ctx` path would derive for that candidate. The
/// organization search then scans candidates column-wise — the
/// per-candidate work is a handful of flops over adjacent memory with
/// no pointer chasing, which is what makes the inner loop
/// autovectorizable.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct CandidateColumns {
    /// Number of lowered candidates (the length of every column).
    n: usize,
    /// The columns back to back, in [`Columns`] field order.
    data: Vec<f64>,
}

/// A borrowed view of [`CandidateColumns`], one slice per column.
struct Columns<'a> {
    /// Decode depth in stages.
    levels: &'a [f64],
    /// Wordline length in meters.
    wl_length_m: &'a [f64],
    /// Wordline gate load in farads.
    wl_gate_load_f: &'a [f64],
    /// Bitline capacitance in farads.
    bl_cap_f: &'a [f64],
    /// Bitline length in meters.
    bl_length_m: &'a [f64],
    /// Column count.
    cols: &'a [f64],
    /// 2D footprint in square meters.
    footprint: &'a [f64],
    /// H-tree routed path length in meters.
    htree_path_m: &'a [f64],
    /// Live array content area per die in square meters.
    per_die_content: &'a [f64],
    /// Effective leaking periphery width in microns.
    periph_width_um: &'a [f64],
    /// Total rows in the array.
    rows_total: &'a [f64],
    /// Rows served by each per-die refresh engine.
    rows_per_engine: &'a [f64],
}

/// Number of columns in a [`CandidateColumns`] buffer.
const COLUMN_COUNT: usize = 12;

impl CandidateColumns {
    /// Lowers `candidates` into columns, reading the same node-invariant
    /// device constants the `Ctx` path reads (so every entry matches the
    /// `Ctx`-derived scalar to the last bit).
    pub(crate) fn lower(
        spec: &ArraySpec,
        candidates: &[(Organization, Geometry)],
        devices: &NodeDevices,
    ) -> Self {
        let n = candidates.len();
        let mut data = vec![0.0; COLUMN_COUNT * n];
        let gate_cap_min = devices.gate_cap_min.get();
        let c_per_m = devices.local_wire.capacitance_per_m();
        let dies = f64::from(spec.dies());
        for (i, &(org, geom)) in candidates.iter().enumerate() {
            let rows = f64::from(org.rows());
            let cols = f64::from(org.cols());
            let (rows_total, rows_per_engine) =
                refresh::rows_budget_f(geom.subarrays_total as f64, rows, dies);
            // One entry per column, in `Columns` field order.
            let entries: [f64; COLUMN_COUNT] = [
                decoder::levels_f(rows, geom.subarrays_per_die as f64),
                wordline::length_m(cols, geom.cell_width),
                wordline::gate_load_f(gate_cap_min, cols),
                bitline::capacitance_f(devices.junction_half, c_per_m, rows, geom.cell_height),
                bitline::length_m(rows, geom.cell_height),
                cols,
                geom.footprint,
                htree::path_m(geom.footprint),
                geom.per_die_content,
                leakage::width_um_f(geom.periph_area),
                rows_total,
                rows_per_engine,
            ];
            for (column, value) in entries.into_iter().enumerate() {
                data[column * n + i] = value;
            }
        }
        Self { n, data }
    }

    /// Number of lowered candidates.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The columns as slices. Every slice holds exactly
    /// [`CandidateColumns::len`] entries; the up-front assertion states
    /// that once so the per-candidate scans in [`kernel_scores`] index
    /// without per-element bounds checks.
    #[inline]
    fn view(&self) -> Columns<'_> {
        let n = self.n;
        let column = |k: usize| &self.data[k * n..(k + 1) * n];
        let view = Columns {
            levels: column(0),
            wl_length_m: column(1),
            wl_gate_load_f: column(2),
            bl_cap_f: column(3),
            bl_length_m: column(4),
            cols: column(5),
            footprint: column(6),
            htree_path_m: column(7),
            per_die_content: column(8),
            periph_width_um: column(9),
            rows_total: column(10),
            rows_per_engine: column(11),
        };
        assert!(
            view.levels.len() == n
                && view.wl_length_m.len() == n
                && view.wl_gate_load_f.len() == n
                && view.bl_cap_f.len() == n
                && view.bl_length_m.len() == n
                && view.cols.len() == n
                && view.footprint.len() == n
                && view.htree_path_m.len() == n
                && view.per_die_content.len() == n
                && view.periph_width_um.len() == n
                && view.rows_total.len() == n
                && view.rows_per_engine.len() == n,
            "candidate columns sliced with unequal lengths"
        );
        view
    }
}

/// Read latency of candidate `i` from the columns — term-for-term the
/// sum [`ArrayCharacterization::from_ctx`] assembles.
///
/// `#[inline(always)]` so [`kernel_scores`]'s per-objective loops
/// flatten into straight-line candidate-independent flops the
/// auto-vectorizer can run lane-per-candidate.
#[inline(always)]
fn read_latency_cols(tc: &TempCtx, c: &Columns<'_>, i: usize) -> Seconds {
    decoder::delay_raw(tc, c.levels[i])
        + wordline::delay_raw(tc, c.wl_length_m[i], c.wl_gate_load_f[i])
        + bitline::read_delay_raw(tc, c.bl_cap_f[i], c.bl_length_m[i])
        + tc.sense_delay
        + htree::delay_raw(tc, c.htree_path_m[i])
        + tc.tsv_delay
}

/// Read energy of candidate `i` from the columns — term-for-term the
/// sum [`ArrayCharacterization::from_ctx`] assembles.
#[inline(always)]
fn read_energy_cols(tc: &TempCtx, c: &Columns<'_>, i: usize) -> Joules {
    decoder::energy_raw(tc, c.levels[i])
        + wordline::energy_raw(tc, c.wl_length_m[i], c.wl_gate_load_f[i])
        + htree::energy_raw(tc, c.htree_path_m[i], c.per_die_content[i])
        + tc.tsv_energy
        + bitline::read_energy_raw(tc, c.bl_cap_f[i], c.cols[i])
        + tc.sense_read_energy
}

/// Refresh or scrub profile of candidate `i` from the columns.
#[inline(always)]
fn refresh_cols(tc: &TempCtx, c: &Columns<'_>, i: usize) -> Option<refresh::RefreshProfile> {
    refresh::profile_raw(
        tc,
        c.levels[i],
        c.wl_length_m[i],
        c.wl_gate_load_f[i],
        c.bl_cap_f[i],
        c.bl_length_m[i],
        c.cols[i],
        c.rows_total[i],
        c.rows_per_engine[i],
    )
}

/// Standby power of candidate `i` given its refresh profile: leakage
/// plus refresh power, as [`ArrayCharacterization::standby_power`]
/// assembles it.
#[inline(always)]
fn standby_cols(
    tc: &TempCtx,
    c: &Columns<'_>,
    i: usize,
    refresh: Option<&refresh::RefreshProfile>,
) -> Watts {
    leakage::total_raw(tc, c.periph_width_um[i]) + refresh.map_or(Watts::ZERO, |p| p.power)
}

/// Computes [`ComponentFloors`] over the lowered candidate `columns`
/// at the operating point `tc` was built for: the same column sums the
/// organization search scores with, plus one refresh profile per
/// candidate feeding both the standby and the busy-fraction floor.
///
/// # Panics
///
/// Panics if `columns` holds no candidate.
pub(crate) fn component_floors(tc: &TempCtx, columns: &CandidateColumns) -> ComponentFloors {
    assert!(
        columns.len() > 0,
        "no feasible organization for the given capacity"
    );
    let c = &columns.view();
    let mut floors = ComponentFloors {
        read_latency_s: f64::INFINITY,
        read_energy_j: f64::INFINITY,
        standby_power_w: f64::INFINITY,
        footprint_m2: f64::INFINITY,
        refresh_busy_fraction: f64::INFINITY,
    };
    for i in 0..columns.len() {
        floors.read_latency_s = floors.read_latency_s.min(read_latency_cols(tc, c, i).get());
        floors.read_energy_j = floors.read_energy_j.min(read_energy_cols(tc, c, i).get());
        let refresh = refresh_cols(tc, c, i);
        let standby = standby_cols(tc, c, i, refresh.as_ref());
        floors.standby_power_w = floors.standby_power_w.min(standby.get());
        floors.footprint_m2 = floors.footprint_m2.min(c.footprint[i]);
        let busy = refresh.map_or(0.0, |p| p.busy_fraction);
        floors.refresh_busy_fraction = floors.refresh_busy_fraction.min(busy);
    }
    floors
}

/// Fills `scores` with every candidate's [`Objective::score`], scanned
/// column-wise: one tight loop per objective over contiguous `f64`
/// columns, with all temperature-dependent device terms pre-hoisted
/// into `tc`. Each score is bit-identical to
/// `objective.score(&ArrayCharacterization::from_ctx(..))` for that
/// candidate because both sides evaluate the same `*_raw` formula sites
/// on the same scalar inputs in the same order.
pub(crate) fn kernel_scores(
    tc: &TempCtx,
    columns: &CandidateColumns,
    objective: Objective,
    scores: &mut Vec<f64>,
) {
    let n = columns.len();
    let columns = &columns.view();
    scores.clear();
    scores.resize(n, 0.0);
    let out = &mut scores[..n];
    match objective {
        // Operand order matches `ArrayCharacterization::read_edp`.
        Objective::EnergyDelayProduct => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot =
                    read_energy_cols(tc, columns, i).get() * read_latency_cols(tc, columns, i).get();
            }
        }
        Objective::ReadLatency => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = read_latency_cols(tc, columns, i).get();
            }
        }
        Objective::ReadEnergy => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = read_energy_cols(tc, columns, i).get();
            }
        }
        Objective::Area => out.copy_from_slice(columns.footprint),
        Objective::StandbyPower => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = standby_cols(tc, columns, i, refresh_cols(tc, columns, i).as_ref()).get();
            }
        }
    }
}

/// The organization search: scores every candidate through
/// [`kernel_scores`], takes the first-wins strict-`<` argmin, and fully
/// characterizes only the winner.
///
/// Returns exactly the bytes of characterizing every candidate in full
/// and keeping the first one with the lowest [`Objective::score`]: each
/// column score equals that candidate's full score to the last bit, and
/// the winner's characterization comes from the same `from_ctx` on an
/// equal context.
///
/// `scores` is caller-owned scratch so a temperature stripe reuses one
/// allocation across every temperature.
///
/// # Panics
///
/// Panics if `candidates` is empty or an objective score is NaN.
pub(crate) fn search_columns(
    spec: &ArraySpec,
    candidates: &[(Organization, Geometry)],
    columns: &CandidateColumns,
    devices: &DeviceCtx,
    objective: Objective,
    scores: &mut Vec<f64>,
) -> ArrayCharacterization {
    debug_assert_eq!(candidates.len(), columns.len());
    kernel_scores(&devices.temp, columns, objective, scores);
    let mut best: Option<(f64, usize)> = None;
    for (i, &score) in scores.iter().enumerate() {
        assert!(!score.is_nan(), "objective scores are finite");
        if best.is_none_or(|(incumbent, _)| score < incumbent) {
            best = Some((score, i));
        }
    }
    let (_, idx) = best.expect("no feasible organization for the given capacity");
    let (org, geom) = candidates[idx];
    ArrayCharacterization::from_ctx(&Ctx::with_parts(spec, org, geom, devices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{sense, vertical};
    use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
    use coldtall_tech::ProcessNode;

    // The per-candidate `Ctx` scan the column floors replaced, kept as
    // their oracle: one full context per candidate, each field built
    // by the same component functions `from_ctx` calls.

    /// Read latency assembled term-for-term as
    /// [`ArrayCharacterization::from_ctx`] assembles it, computing only the
    /// read-path components. Bit-identical to the `read_latency` field of
    /// the full characterization for an equal context.
    fn read_latency(ctx: &Ctx<'_>) -> Seconds {
        decoder::delay(ctx)
            + wordline::delay(ctx)
            + bitline::read_delay(ctx)
            + sense::delay(ctx)
            + htree::delay(ctx)
            + vertical::delay(ctx)
    }

    /// Read energy assembled term-for-term as
    /// [`ArrayCharacterization::from_ctx`] assembles it (the shared-term
    /// sum there associates identically). Bit-identical to the
    /// `read_energy` field of the full characterization.
    fn read_energy(ctx: &Ctx<'_>) -> Joules {
        decoder::energy(ctx)
            + wordline::energy(ctx)
            + htree::energy(ctx)
            + vertical::energy(ctx)
            + bitline::read_energy(ctx)
            + sense::read_energy(ctx)
    }

    /// Standby power assembled as
    /// [`ArrayCharacterization::standby_power`] assembles it. Bit-identical
    /// to `leakage_power + refresh_power` of the full characterization.
    fn standby_power(ctx: &Ctx<'_>) -> Watts {
        let refresh = refresh::profile(ctx).map_or(Watts::ZERO, |p| p.power);
        leakage::total(ctx) + refresh
    }

    /// [`ComponentFloors`] over `candidates` at `spec`'s operating
    /// point, one `Ctx` per candidate.
    fn ctx_floors(
        spec: &ArraySpec,
        candidates: &[(Organization, Geometry)],
        devices: &DeviceCtx,
    ) -> ComponentFloors {
        let mut floors = ComponentFloors {
            read_latency_s: f64::INFINITY,
            read_energy_j: f64::INFINITY,
            standby_power_w: f64::INFINITY,
            footprint_m2: f64::INFINITY,
            refresh_busy_fraction: f64::INFINITY,
        };
        for &(org, geom) in candidates {
            let ctx = Ctx::with_parts(spec, org, geom, devices);
            floors.read_latency_s = floors.read_latency_s.min(read_latency(&ctx).get());
            floors.read_energy_j = floors.read_energy_j.min(read_energy(&ctx).get());
            floors.standby_power_w = floors.standby_power_w.min(standby_power(&ctx).get());
            floors.footprint_m2 = floors.footprint_m2.min(ctx.geom.footprint);
            let busy = refresh::profile(&ctx).map_or(0.0, |p| p.busy_fraction);
            floors.refresh_busy_fraction = floors.refresh_busy_fraction.min(busy);
        }
        floors
    }

    fn spec() -> ArraySpec {
        let node = ProcessNode::ptm_22nm_hp();
        ArraySpec::llc_16mib(CellModel::sram(&node), &node)
    }

    #[test]
    fn edp_choice_is_no_worse_than_any_candidate() {
        let s = spec();
        let best = s.characterize(Objective::EnergyDelayProduct);
        for org in Organization::candidates() {
            let other = ArrayCharacterization::evaluate(&s, org);
            assert!(best.read_edp() <= other.read_edp() + 1e-30);
        }
    }

    #[test]
    fn objectives_pick_their_own_optimum() {
        let s = spec();
        let fastest = s.characterize(Objective::ReadLatency);
        let leanest = s.characterize(Objective::ReadEnergy);
        assert!(fastest.read_latency <= leanest.read_latency);
        assert!(leanest.read_energy <= fastest.read_energy);
    }

    #[test]
    fn area_objective_minimizes_footprint() {
        let node = ProcessNode::ptm_22nm_hp();
        let pcm = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
        let s = ArraySpec::llc_16mib(pcm, &node);
        let smallest = s.characterize(Objective::Area);
        let fastest = s.characterize(Objective::ReadLatency);
        assert!(smallest.footprint.get() <= fastest.footprint.get());
    }

    #[test]
    fn optimizer_respects_die_count() {
        let s = spec().with_dies(8);
        let a = s.characterize(Objective::EnergyDelayProduct);
        assert_eq!(a.dies, 8);
    }

    #[test]
    fn column_floors_match_the_ctx_floors_bit_for_bit() {
        // Every geometry of the study set and the cryo-STT region (as
        // `MemoryConfig::to_base_spec` builds them) on a 1 K grid.
        let node = ProcessNode::ptm_22nm_hp();
        let mut points = vec![(MemoryTechnology::Edram3T, Tentpole::Optimistic, 1)];
        for dies in [1, 2, 4, 8] {
            points.push((MemoryTechnology::Sram, Tentpole::Optimistic, dies));
            for technology in MemoryTechnology::ENVM_SET {
                for tentpole in Tentpole::BOTH {
                    points.push((technology, tentpole, dies));
                }
            }
        }
        assert_eq!(points.len(), 29);
        let bits = |f: ComponentFloors| {
            [
                f.read_latency_s,
                f.read_energy_j,
                f.standby_power_w,
                f.footprint_m2,
                f.refresh_busy_fraction,
            ]
            .map(f64::to_bits)
        };
        for (technology, tentpole, dies) in points {
            let cell = CellModel::tentpole(technology, tentpole, &node);
            let base = ArraySpec::llc_16mib(cell, &node).with_dies(dies);
            let geometry = crate::OrgGeometry::solve(&base);
            let devices = NodeDevices::new(&node);
            for kelvin in 60..=400 {
                let t = coldtall_units::Kelvin::new(f64::from(kelvin));
                let spec = base.clone().at_temperature_cryo(t);
                let dctx = DeviceCtx::with_devices(&spec, &devices);
                assert_eq!(
                    bits(geometry.floors_at_temperature(t)),
                    bits(ctx_floors(&spec, geometry.candidates(), &dctx)),
                    "{technology:?} {tentpole:?} {dies} dies at {kelvin} K"
                );
            }
        }
        assert_eq!(crate::geometry_code_epoch(), 0x1b28_982d_d057_c4aa);
    }
}
