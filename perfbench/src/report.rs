//! The result line: `{"correct", "attempted", "failed", "metrics"}`,
//! with every metric named by a checked name and carrying its unit.

use amjs_obs::json::ObjWriter;

/// Longest metric name the result format allows.
const MAX_NAME: usize = 64;

/// A metric name starts with a letter or digit and uses only
/// `[A-Za-z0-9_.-]`, at most [`MAX_NAME`] characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= MAX_NAME
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Add one metric.
    ///
    /// # Panics
    /// On an invalid or repeated name, or a non-finite value: either is
    /// a bug in the benchmark, not a measurement.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(
            self.entries.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    pub fn units(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(_, _, u)| *u)
    }

    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        for (name, value, unit) in &self.entries {
            let mut m = ObjWriter::new();
            m.f64("value", *value).str("unit", unit);
            o.raw(name, &m.finish());
        }
        o.finish()
    }
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut o = ObjWriter::new();
    o.bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &metrics.to_json());
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "core.fair_start.self_s",
            "a",
            "9x",
            "serve.wal-append_s",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "ünits",
            "a/b",
            "x:y",
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn repeated_names_are_refused() {
        let mut m = Metrics::default();
        m.put("x", 1.0, "s");
        m.put("x", 2.0, "s");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        let line = result_line(true, 1000, 0, &m);
        let json = amjs_obs::json::parse(&line).unwrap();
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("attempted").unwrap().as_u64(), Some(1000));
        assert_eq!(json.get("failed").unwrap().as_u64(), Some(0));
        let setup = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
