//! The persistent geometry warm-start store: an append-only JSONL log
//! of solved organization geometries, replayable at startup so a fresh
//! process answers sweeps without re-running a single geometry solve.
//!
//! One record per line, one line per geometry key. A record holds the
//! full temperature-invariant candidate list of one
//! [`OrgGeometry`] — every feasible `(organization, geometry)` pair, in
//! canonical candidate order, floats stored as the 16-hex-digit
//! [`f64::to_bits`] pattern — so a restored geometry is *bit-identical*
//! to the one originally solved and every downstream characterization
//! reproduces the cold-path bytes exactly.
//!
//! Unlike the run registry (which persists *results* keyed by an
//! execution plan), geometry records are keyed by the model code
//! itself: each line carries the [`geometry_code_epoch`] fingerprint of
//! the build that wrote it. A record written by older model code — a
//! changed feasibility filter, device model, or candidate ordering —
//! hashes to a different epoch and is skipped wholesale rather than
//! replayed as stale physics.
//!
//! A corrupt, truncated, or wrong-epoch line is *skipped and counted*,
//! never fatal: the store is a cache, and losing one record costs a
//! re-solve, not correctness.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use coldtall_array::{geometry_code_epoch, Geometry, Organization, OrgGeometry};
use coldtall_core::{CacheCursor, DesignPointKey, Explorer, MemoryConfig};
use coldtall_obs::json::{self, Value};

use crate::proto::escape;
use crate::registry::open_regular;

/// The geometry-record schema this build writes and replays. Bump when
/// the field set changes; replay skips records from other versions.
pub const GEOM_SCHEMA_VERSION: u32 = 1;

/// Counters from one warm-start replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Geometry keys rebuilt into the explorer's geometry cache.
    pub restored: u64,
    /// Well-formed records whose key was already seen earlier in the
    /// file (first record wins).
    pub duplicates: u64,
    /// Corrupt, truncated, wrong-schema, or wrong-epoch lines skipped.
    pub skipped: u64,
}

/// Internal mutable state: the append handle, the dedup set of
/// canonical geometry keys already on disk under the current epoch, and
/// how far into an explorer's geometry cache [`GeometryStore::sync_from`]
/// has persisted everything.
struct Inner {
    writer: File,
    seen: HashSet<String>,
    cursor: CacheCursor,
}

impl Inner {
    /// Writes one record line through to the file, then marks its key
    /// seen, so a failed write leaves the record to be retried.
    fn append(&mut self, key: &DesignPointKey, geometry: &OrgGeometry) -> io::Result<()> {
        let mut line = render_record(key, geometry);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.seen.insert(key.canonical().to_string());
        Ok(())
    }
}

/// An append-only on-disk log of solved organization geometries.
///
/// All methods take `&self`; appends serialize through an internal
/// mutex, so the store can be shared across connection threads exactly
/// like the run registry.
pub struct GeometryStore {
    path: PathBuf,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for GeometryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeometryStore")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl GeometryStore {
    /// Opens (creating if absent) the store at `path` and scans any
    /// existing current-epoch records into the dedup set so restarts
    /// append only genuinely new geometries. Stale-epoch records stay
    /// out of the set: a rebuilt model re-records its keys fresh. A path
    /// that is not a regular file (a device) has no records to scan.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be opened
    /// for appending. Unreadable *records* are not errors.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut seen = HashSet::new();
        if let Some(file) = open_regular(&path) {
            for line in BufReader::new(file).lines() {
                let Ok(line) = line else { break };
                if let Some(record) = parse_record(&line) {
                    seen.insert(record.key);
                }
            }
        }
        let writer = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            inner: Mutex::new(Inner {
                writer,
                seen,
                cursor: CacheCursor::START,
            }),
        })
    }

    /// The file backing this store.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current-epoch records on disk (including those scanned at open).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("geometry store lock poisoned").seen.len()
    }

    /// Whether no current-epoch records have been written or scanned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one solved geometry if its key is not already on disk
    /// under the current epoch; the whole line reaches the file before
    /// returning, so a crash after `record` never loses it. Returns
    /// whether a record was written.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from the append or flush.
    pub fn record(&self, key: &DesignPointKey, geometry: &OrgGeometry) -> io::Result<bool> {
        let mut inner = self.inner.lock().expect("geometry store lock poisoned");
        if inner.seen.contains(key.canonical()) {
            return Ok(false);
        }
        inner.append(key, geometry)?;
        Ok(true)
    }

    /// Appends every geometry the explorer's geometry cache holds that
    /// is not yet on disk, in canonical key order. Called after each
    /// completed sweep or request; returns how many new records landed.
    ///
    /// Only geometries published since the last successful sync are
    /// visited (see [`coldtall_core::GeometryCache::entries_since`]);
    /// the first sync, and any sync against a different explorer than
    /// the last one, walks the whole cache.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from an append. The cursor then
    /// stays where it was, so the next sync retries every unwritten
    /// geometry.
    pub fn sync_from(&self, explorer: &Explorer) -> io::Result<u64> {
        let mut inner = self.inner.lock().expect("geometry store lock poisoned");
        let (entries, cursor) = explorer.geometry_cache().entries_since(inner.cursor);
        let mut appended = 0;
        for (key, geometry) in entries {
            if !inner.seen.contains(key.canonical()) {
                inner.append(&key, &geometry)?;
                appended += 1;
            }
        }
        inner.cursor = cursor;
        Ok(appended)
    }

    /// Replays every current-epoch record matching one of `configs`'
    /// geometry keys into the explorer's geometry cache.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file exists but cannot
    /// be read. A missing file replays zero records successfully.
    pub fn warm_into(&self, explorer: &Explorer, configs: &[MemoryConfig]) -> io::Result<WarmStats> {
        warm_file(&self.path, explorer, configs)
    }
}

/// Replays the geometry store at `path` into `explorer`'s geometry
/// cache, without opening it for writing.
///
/// The records are keyed by canonical geometry key
/// ([`DesignPointKey::geometry_of`]); only keys reachable from
/// `configs` are rebuilt, because reconstructing an [`OrgGeometry`]
/// needs the base spec the key canonicalizes. Each matched key is
/// imported once ([`OrgGeometry::from_parts`] — no feasibility
/// enumeration, no geometry derivation, no solve counted), so a
/// subsequent sweep over `configs` dispatches entirely from the warmed
/// cache.
///
/// # Errors
///
/// Returns the underlying I/O error if the file exists but cannot be
/// read. A missing file is an empty store, not an error.
pub fn warm_file(
    path: &Path,
    explorer: &Explorer,
    configs: &[MemoryConfig],
) -> io::Result<WarmStats> {
    let mut stats = WarmStats::default();
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(stats),
        Err(e) => return Err(e),
    };
    let mut store: HashMap<String, Vec<(Organization, Geometry)>> = HashMap::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Some(record) = parse_record(&line) else {
            stats.skipped += 1;
            continue;
        };
        if store.contains_key(&record.key) {
            stats.duplicates += 1;
            continue;
        }
        store.insert(record.key, record.candidates);
    }
    for config in configs {
        let key = DesignPointKey::geometry_of(config);
        // `remove` makes each key restore exactly once even when many
        // configs (a temperature stripe) share one geometry.
        let Some(candidates) = store.remove(key.canonical()) else {
            continue;
        };
        let geometry = OrgGeometry::from_parts(&config.to_base_spec(explorer.node()), candidates);
        explorer.geometry_cache().import(&key, geometry);
        stats.restored += 1;
    }
    Ok(stats)
}

/// One decoded geometry record.
struct GeomRecord {
    /// Canonical geometry key (`geom|tech|tentpole|dN`).
    key: String,
    candidates: Vec<(Organization, Geometry)>,
}

/// Renders one record line (no trailing newline). Each candidate is a
/// 15-element array: `[rows, cols, subarrays_total, subarrays_per_die]`
/// as integers, then the 11 `f64` geometry fields in struct order as
/// exact bit patterns in hex.
fn render_record(key: &DesignPointKey, geometry: &OrgGeometry) -> String {
    use std::fmt::Write as _;
    let candidates = geometry.candidates();
    let mut out = String::with_capacity(96 + candidates.len() * 256);
    let _ = write!(
        out,
        "{{\"schema\":{GEOM_SCHEMA_VERSION},\"kind\":\"geom\",\"epoch\":\"{:016x}\",\"key\":\"{}\",\
         \"candidates\":[",
        geometry_code_epoch(),
        escape(key.canonical())
    );
    for (i, (org, geom)) in candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[{},{},{},{}",
            org.rows(),
            org.cols(),
            geom.subarrays_total,
            geom.subarrays_per_die
        );
        for v in geometry_floats(geom) {
            let _ = write!(out, ",\"{:016x}\"", v.to_bits());
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// The 11 `f64` fields of [`Geometry`], in declaration order — the
/// wire order of a candidate's hex-bits tail.
fn geometry_floats(g: &Geometry) -> [f64; 11] {
    [
        g.cell_width,
        g.cell_height,
        g.cell_block_area,
        g.strips_area,
        g.subarray_area,
        g.per_die_content,
        g.floor_area,
        g.tsv_area,
        g.footprint,
        g.total_silicon,
        g.periph_area,
    ]
}

/// Decodes one record line; `None` for anything malformed — bad JSON,
/// wrong schema, *wrong epoch*, missing fields, bad hex, out-of-range
/// geometry.
fn parse_record(line: &str) -> Option<GeomRecord> {
    let value = json::parse(line).ok()?;
    let Value::Object(fields) = &value else {
        return None;
    };
    if fields.get("schema").and_then(Value::as_f64) != Some(f64::from(GEOM_SCHEMA_VERSION)) {
        return None;
    }
    if fields.get("kind") != Some(&Value::String("geom".to_string())) {
        return None;
    }
    match fields.get("epoch") {
        Some(Value::String(s)) if s.len() == 16 => {
            let epoch = u64::from_str_radix(s, 16).ok()?;
            if epoch != geometry_code_epoch() {
                return None;
            }
        }
        _ => return None,
    }
    let key = match fields.get("key") {
        Some(Value::String(s)) if !s.is_empty() => s.clone(),
        _ => return None,
    };
    let raw = match fields.get("candidates") {
        Some(Value::Array(items)) if !items.is_empty() => items,
        _ => return None,
    };
    let mut candidates = Vec::with_capacity(raw.len());
    for item in raw {
        let Value::Array(parts) = item else {
            return None;
        };
        if parts.len() != 15 {
            return None;
        }
        let rows = subarray_dim(&parts[0])?;
        let cols = subarray_dim(&parts[1])?;
        let subarrays_total = exact_u64(&parts[2])?;
        let subarrays_per_die = exact_u64(&parts[3])?;
        let mut f = [0.0f64; 11];
        for (slot, v) in f.iter_mut().zip(&parts[4..]) {
            *slot = f64_bits(v)?;
        }
        candidates.push((
            Organization::new(rows, cols),
            Geometry {
                cell_width: f[0],
                cell_height: f[1],
                cell_block_area: f[2],
                strips_area: f[3],
                subarray_area: f[4],
                subarrays_total,
                subarrays_per_die,
                per_die_content: f[5],
                floor_area: f[6],
                tsv_area: f[7],
                footprint: f[8],
                total_silicon: f[9],
                periph_area: f[10],
            },
        ));
    }
    Some(GeomRecord { key, candidates })
}

/// Decodes a 16-hex-digit bit-pattern string into the exact `f64`.
fn f64_bits(value: &Value) -> Option<f64> {
    match value {
        Value::String(s) if s.len() == 16 => u64::from_str_radix(s, 16).ok().map(f64::from_bits),
        _ => None,
    }
}

/// Validates a stored subarray dimension: [`Organization::new`] panics
/// on non-power-of-two geometry, so a corrupt record must be rejected
/// *here*, before reconstruction.
fn subarray_dim(value: &Value) -> Option<u32> {
    let n = value.as_f64()?;
    if !(n.is_finite() && n.fract() == 0.0 && (1.0..=f64::from(u32::MAX)).contains(&n)) {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let dim = n as u32;
    dim.is_power_of_two().then_some(dim)
}

/// Validates a stored subarray count: a non-negative integer small
/// enough to round-trip through the parser's `f64` exactly.
fn exact_u64(value: &Value) -> Option<u64> {
    let n = value.as_f64()?;
    let exact = 2f64.powi(53);
    if !(n.is_finite() && n.fract() == 0.0 && (0.0..=exact).contains(&n)) {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Some(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_tech::ProcessNode;
    use coldtall_units::Kelvin;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "coldtall-geomstore-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn solved(config: &MemoryConfig) -> (DesignPointKey, OrgGeometry) {
        let node = ProcessNode::ptm_22nm_hp();
        (
            DesignPointKey::geometry_of(config),
            OrgGeometry::solve(&config.to_base_spec(&node)),
        )
    }

    /// An explorer on a private metrics registry, so `geometry.solves`
    /// assertions cannot be perturbed by other tests feeding the
    /// process-global registry.
    fn private_explorer() -> Explorer {
        Explorer::with_registry(
            ProcessNode::ptm_22nm_hp(),
            coldtall_array::Objective::EnergyDelayProduct,
            &coldtall_obs::Registry::new(),
        )
    }

    #[test]
    fn records_round_trip_bit_identically() {
        let config = MemoryConfig::edram_77k();
        let (key, geometry) = solved(&config);
        let line = render_record(&key, &geometry);
        let record = parse_record(&line).expect("well-formed record");
        assert_eq!(record.key, key.canonical());
        assert_eq!(record.candidates, geometry.candidates());
    }

    #[test]
    fn warm_start_restores_without_a_single_solve() {
        let config = MemoryConfig::edram_77k();
        let (key, geometry) = solved(&config);
        let path = temp_path("warm");
        let store = GeometryStore::open(&path).unwrap();
        assert!(store.record(&key, &geometry).unwrap());
        // Same key again is a dedup no-op.
        assert!(!store.record(&key, &geometry).unwrap());
        assert_eq!(store.len(), 1);

        let fresh = private_explorer();
        assert_eq!(fresh.geometry_cache().solves(), 0);
        // A temperature stripe shares one geometry: one restore.
        let configs = [
            config.clone(),
            config.clone().at_temperature(Kelvin::new(300.0)),
        ];
        let stats = store.warm_into(&fresh, &configs).unwrap();
        assert_eq!(
            stats,
            WarmStats {
                restored: 1,
                duplicates: 0,
                skipped: 0
            }
        );

        // The warmed sweep must produce the cold path's bytes while
        // counting zero geometry solves.
        let cold = private_explorer();
        let warm_rows = fresh.try_sweep_configs(&configs).unwrap();
        let cold_rows = cold.try_sweep_configs(&configs).unwrap();
        assert_eq!(warm_rows, cold_rows);
        assert_eq!(fresh.geometry_cache().solves(), 0, "warm start must skip the solve");
        assert!(cold.geometry_cache().solves() > 0, "the cold side really solves");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn full_study_replays_byte_identically_with_zero_solves() {
        let path = temp_path("study");
        let configs = MemoryConfig::study_set();
        let seeder = private_explorer();
        let seeded_rows = seeder.try_sweep_configs(&configs).unwrap();
        let distinct = seeder.geometry_cache().solves();
        assert!(distinct > 0);
        {
            let store = GeometryStore::open(&path).unwrap();
            assert_eq!(store.sync_from(&seeder).unwrap(), distinct);
            // A second sync appends nothing.
            assert_eq!(store.sync_from(&seeder).unwrap(), 0);
        }

        // A second process opens the same file: the dedup set is
        // rescanned, and warm-start replays every geometry.
        let store = GeometryStore::open(&path).unwrap();
        assert_eq!(store.len() as u64, distinct);
        let fresh = private_explorer();
        let stats = store.warm_into(&fresh, &configs).unwrap();
        assert_eq!(stats.restored, distinct);
        assert_eq!(stats.skipped, 0);
        let rows = fresh.try_sweep_configs(&configs).unwrap();
        assert_eq!(rows, seeded_rows, "warmed sweep diverged from the seeding sweep");
        assert_eq!(fresh.geometry_cache().solves(), 0);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_truncated_and_stale_epoch_lines_are_skipped_not_fatal() {
        let config = MemoryConfig::sram_350k();
        let (key, geometry) = solved(&config);
        let good = render_record(&key, &geometry);
        let truncated = &good[..good.len() / 2];
        let wrong_schema = good.replacen("\"schema\":1", "\"schema\":99", 1);
        // Flip one epoch nibble: a record from different model code.
        let epoch = format!("{:016x}", geometry_code_epoch());
        let stale = format!("{:016x}", geometry_code_epoch() ^ 1);
        let wrong_epoch = good.replacen(epoch.as_str(), stale.as_str(), 1);
        // Non-power-of-two subarray geometry must be rejected before
        // the Organization constructor can panic on it.
        let bad_org = good.replacen("\"candidates\":[[", "\"candidates\":[[3,", 1);
        let contents = format!(
            "{good}\nnot json at all\n{truncated}\n{wrong_schema}\n{wrong_epoch}\n{bad_org}\n{good}\n"
        );
        let path = temp_path("corrupt");
        std::fs::write(&path, contents).unwrap();

        let fresh = private_explorer();
        let stats = warm_file(&path, &fresh, &[config]).unwrap();
        assert_eq!(stats.restored, 1);
        assert_eq!(stats.duplicates, 1); // the repeated good line
        assert_eq!(stats.skipped, 5);
        assert_eq!(fresh.geometry_cache().solves(), 0);

        // The open scan also ignores the junk: the good key is already
        // on disk, so re-recording it is a no-op.
        let store = GeometryStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert!(!store.record(&key, &geometry).unwrap());

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_warms_empty() {
        let path = temp_path("missing");
        let stats = warm_file(&path, &private_explorer(), &MemoryConfig::study_set()).unwrap();
        assert_eq!(stats, WarmStats::default());
    }

    #[test]
    fn unmatched_keys_stay_on_disk_but_do_not_restore() {
        let edram = MemoryConfig::edram_77k();
        let (key, geometry) = solved(&edram);
        let path = temp_path("unmatched");
        let store = GeometryStore::open(&path).unwrap();
        assert!(store.record(&key, &geometry).unwrap());
        // Warming with a config set that never touches the stored
        // geometry restores nothing — and is not an error.
        let fresh = private_explorer();
        let stats = store.warm_into(&fresh, &[MemoryConfig::sram_350k()]).unwrap();
        assert_eq!(stats.restored, 0);
        assert_eq!(stats.skipped, 0);
        let _ = std::fs::remove_file(&path);
    }
}
