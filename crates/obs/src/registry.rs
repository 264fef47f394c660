//! The named metrics registry and its exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::{Counter, Gauge, Histogram};

/// Histogram quantiles reported by the exporters.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

/// The unit a histogram records in, which the exporters append to
/// every value field they print for it.
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// Span durations in nanoseconds.
    Nanos,
    /// Ratios in thousandths.
    Permille,
}

impl Unit {
    /// The field-name suffix the exporters print.
    fn suffix(self) -> &'static str {
        match self {
            Self::Nanos => "ns",
            Self::Permille => "permille",
        }
    }
}

/// A named collection of counters, gauges, and span histograms.
///
/// Lookup is get-or-create and returns a cheap [`Arc`] handle; call
/// sites resolve their handles once (at construction or in a
/// `OnceLock`) and record through them lock-free afterwards — the
/// registry's own lock is touched only on first registration and on
/// export. Names are sorted (`BTreeMap`), so exports are stable.
///
/// Instrumented library code takes `&Registry` rather than assuming
/// [`global`], so tests running under the parallel libtest harness can
/// observe a private registry without cross-test interference.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    spans: RwLock<BTreeMap<String, (Unit, Arc<Histogram>)>>,
}

fn get_or_create<M: Default>(map: &RwLock<BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
    if let Some(found) = map
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
    {
        return Arc::clone(found);
    }
    Arc::clone(
        map.write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default(),
    )
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use. The same
    /// name always resolves to the same counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name`, created at zero on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The span-duration histogram named `name`, created empty on first
    /// use; exported in nanoseconds.
    #[must_use]
    pub fn span(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, Unit::Nanos)
    }

    /// The histogram named `name` for values in permille (thousandths),
    /// created empty on first use. It shares the span namespace and
    /// export section, but the exporters label its fields `permille`,
    /// not `ns`.
    #[must_use]
    pub fn permille(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, Unit::Permille)
    }

    /// The histogram named `name`; a name keeps the unit it was first
    /// registered with.
    fn histogram(&self, name: &str, unit: Unit) -> Arc<Histogram> {
        if let Some((_, found)) = self
            .spans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return Arc::clone(found);
        }
        let mut spans = self.spans.write().unwrap_or_else(PoisonError::into_inner);
        let (_, hist) = spans
            .entry(name.to_string())
            .or_insert_with(|| (unit, Arc::default()));
        Arc::clone(hist)
    }

    /// The current value of a counter, if it has been registered.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(|c| c.get())
    }

    /// A sorted snapshot of every counter: `(name, value)`.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// A sorted snapshot of every gauge: `(name, value)`.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, u64)> {
        self.gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect()
    }

    /// Ratios derived from counter pairs at export time, sorted by
    /// name: a `<prefix>.hit_ratio` of `hits / (hits + misses)` for
    /// every registered `<prefix>.hits` / `<prefix>.misses` pair.
    ///
    /// A pair that has never been probed (`hits + misses == 0`) is
    /// omitted rather than exported as a bogus `0.0` — the ratio of an
    /// untouched cache is undefined, not zero.
    #[must_use]
    pub fn derived(&self) -> Vec<(String, f64)> {
        let counters = self.counters();
        counters
            .iter()
            .filter_map(|(name, hits)| {
                let prefix = name.strip_suffix(".hits")?;
                let (_, misses) = counters
                    .iter()
                    .find(|(other, _)| other == &format!("{prefix}.misses"))?;
                let total = hits + misses;
                (total > 0).then(|| {
                    #[allow(clippy::cast_precision_loss)] // counters are far below 2^52
                    let ratio = *hits as f64 / total as f64;
                    (format!("{prefix}.hit_ratio"), ratio)
                })
            })
            .collect()
    }

    /// Zeroes every registered counter, gauge, and span histogram (the
    /// metrics stay registered; their handles stay valid).
    pub fn reset(&self) {
        for counter in self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            counter.reset();
        }
        for gauge in self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            gauge.reset();
        }
        for (_, span) in self
            .spans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            span.reset();
        }
    }

    /// Renders an aligned human-readable report: counters, gauges, then
    /// span timings with count/mean/quantiles.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let counters = self.counters();
        let gauges = self.gauges();
        let width = counters
            .iter()
            .chain(&gauges)
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        out.push_str("# counters\n");
        for (name, value) in &counters {
            let _ = writeln!(out, "{name:width$}  {value}");
        }
        let derived = self.derived();
        if !derived.is_empty() {
            out.push_str("# derived\n");
            for (name, value) in &derived {
                let _ = writeln!(out, "{name:width$}  {value:.6}");
            }
        }
        out.push_str("# gauges\n");
        for (name, value) in &gauges {
            let _ = writeln!(out, "{name:width$}  {value}");
        }
        out.push_str("# spans\n");
        let spans = self.spans.read().unwrap_or_else(PoisonError::into_inner);
        for (name, (unit, hist)) in spans.iter() {
            let u = unit.suffix();
            let _ = write!(
                out,
                "{name}  count={} mean={:.0}{u} min={}{u} max={}{u}",
                hist.count(),
                hist.mean(),
                hist.min(),
                hist.max()
            );
            for (label, q) in QUANTILES {
                let _ = write!(out, " {label}={}", hist.quantile(q));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the registry as one JSON object with `counters`,
    /// `derived`, `gauges`, and `spans` sections (names are
    /// JSON-escaped; the output parses with [`crate::json`]).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        render_scalar_section(&mut out, &self.counters());
        out.push_str("},\n  \"derived\": {");
        let derived = self.derived();
        for (i, (name, value)) in derived.iter().enumerate() {
            let comma = if i + 1 == derived.len() { "" } else { "," };
            let _ = write!(out, "\n    \"{}\": {value:.6}{comma}", escape(name));
        }
        if !derived.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        render_scalar_section(&mut out, &self.gauges());
        out.push_str("},\n  \"spans\": {");
        let spans = self.spans.read().unwrap_or_else(PoisonError::into_inner);
        for (i, (name, (unit, hist))) in spans.iter().enumerate() {
            let comma = if i + 1 == spans.len() { "" } else { "," };
            let u = unit.suffix();
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum_{u}\": {}, \"mean_{u}\": {:.1}, \"min_{u}\": {}, \"max_{u}\": {}",
                escape(name),
                hist.count(),
                hist.sum(),
                hist.mean(),
                hist.min(),
                hist.max()
            );
            for (label, q) in QUANTILES {
                let _ = write!(out, ", \"{label}_{u}\": {}", hist.quantile(q));
            }
            let _ = write!(out, "}}{comma}");
        }
        if !spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn render_scalar_section(out: &mut String, entries: &[(String, u64)]) {
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = write!(out, "\n    \"{}\": {value}{comma}", escape(name));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

/// Escapes a metric name for embedding in a JSON string literal.
fn escape(name: &str) -> String {
    name.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// The process-wide registry: what the `coldtall --metrics` flag and
/// the bench harness export. Library constructors default to it;
/// tests needing isolation pass their own [`Registry`].
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn same_name_resolves_to_the_same_metric() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(registry.counter_value("x"), Some(1));
        assert_eq!(registry.counter_value("missing"), None);
    }

    #[test]
    fn namespaces_are_independent() {
        let registry = Registry::new();
        registry.counter("dup").add(3);
        registry.gauge("dup").set(9);
        assert_eq!(registry.counter_value("dup"), Some(3));
        assert_eq!(registry.gauges(), vec![("dup".to_string(), 9)]);
    }

    #[test]
    fn reset_zeroes_everything_but_keeps_handles_valid() {
        let registry = Registry::new();
        let c = registry.counter("c");
        c.add(5);
        registry.gauge("g").set(2);
        registry.span("s").record(100);
        registry.reset();
        assert_eq!(registry.counter_value("c"), Some(0));
        assert_eq!(registry.gauges()[0].1, 0);
        assert_eq!(registry.span("s").count(), 0);
        c.inc();
        assert_eq!(registry.counter_value("c"), Some(1));
    }

    #[test]
    fn text_export_lists_all_sections() {
        let registry = Registry::new();
        registry.counter("cache.hits").add(12);
        registry.gauge("pool.threads").set(4);
        registry.span("evaluate").record(1500);
        let text = registry.render_text();
        assert!(text.contains("# counters"));
        assert!(text.contains("cache.hits"));
        assert!(text.contains("12"));
        assert!(text.contains("# spans"));
        assert!(text.contains("evaluate"));
    }

    #[test]
    fn json_export_parses_and_preserves_values() {
        let registry = Registry::new();
        registry.counter("cache.hits").add(7);
        registry.counter("cache.misses").add(2);
        registry.gauge("pool.inline").set(1);
        registry.span("sweep").record(5000);
        let parsed = json::parse(&registry.render_json()).expect("export is valid JSON");
        let Value::Object(root) = parsed else {
            panic!("root must be an object")
        };
        let Value::Object(counters) = &root["counters"] else {
            panic!("counters section")
        };
        assert_eq!(counters["cache.hits"], Value::Number(7.0));
        let Value::Object(spans) = &root["spans"] else {
            panic!("spans section")
        };
        let Value::Object(sweep) = &spans["sweep"] else {
            panic!("sweep span")
        };
        assert_eq!(sweep["count"], Value::Number(1.0));
        assert!(matches!(sweep["p99_ns"], Value::Number(v) if v >= 5000.0));
    }

    #[test]
    fn permille_histograms_keep_their_unit_in_both_exports() {
        let registry = Registry::new();
        registry.permille("ratio").record(750);
        registry.span("latency").record(2000);
        // A later lookup through either method returns the same
        // histogram with the unit it was registered with.
        assert_eq!(registry.span("ratio").count(), 1);
        let parsed = json::parse(&registry.render_json()).expect("export is valid JSON");
        let Value::Object(root) = parsed else {
            panic!("root must be an object")
        };
        let Value::Object(spans) = &root["spans"] else {
            panic!("spans section")
        };
        let Value::Object(ratio) = &spans["ratio"] else {
            panic!("ratio histogram")
        };
        assert_eq!(ratio["max_permille"], Value::Number(750.0));
        assert!(ratio.keys().all(|k| !k.ends_with("_ns")));
        let Value::Object(latency) = &spans["latency"] else {
            panic!("latency span")
        };
        assert_eq!(latency["max_ns"], Value::Number(2000.0));
        let text = registry.render_text();
        assert!(text.contains("ratio  count=1 mean=750permille min=750permille max=750permille"));
        assert!(text.contains("latency  count=1 mean=2000ns min=2000ns max=2000ns"));
    }

    #[test]
    fn derived_hit_ratios_pair_hits_with_misses() {
        let registry = Registry::new();
        registry.counter("cache.hits").add(9);
        registry.counter("cache.misses").add(3);
        // A second pair that has never been probed must be omitted...
        let _ = registry.counter("geometry.hits");
        let _ = registry.counter("geometry.misses");
        // ...and a hits counter with no matching misses pairs nothing.
        registry.counter("orphan.hits").add(5);
        assert_eq!(
            registry.derived(),
            vec![("cache.hit_ratio".to_string(), 0.75)]
        );

        let parsed = json::parse(&registry.render_json()).expect("export is valid JSON");
        let Value::Object(root) = parsed else {
            panic!("root must be an object")
        };
        let Value::Object(derived) = &root["derived"] else {
            panic!("derived section")
        };
        assert_eq!(derived["cache.hit_ratio"], Value::Number(0.75));
        assert!(!derived.contains_key("geometry.hit_ratio"));
        assert!(registry.render_text().contains("# derived"));

        registry.counter("geometry.misses").inc();
        assert_eq!(
            registry.derived(),
            vec![
                ("cache.hit_ratio".to_string(), 0.75),
                ("geometry.hit_ratio".to_string(), 0.0),
            ]
        );
    }

    #[test]
    fn empty_registry_exports_are_valid() {
        let registry = Registry::new();
        assert!(json::parse(&registry.render_json()).is_ok());
        assert!(registry.render_text().contains("# counters"));
    }

    #[test]
    fn metric_names_are_json_escaped() {
        let registry = Registry::new();
        registry.counter("weird\"name\\").inc();
        assert!(json::parse(&registry.render_json()).is_ok());
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a: *const Registry = global();
        let b: *const Registry = global();
        assert_eq!(a, b);
    }
}
