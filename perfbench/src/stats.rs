//! Sample summaries, the metric map, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of an ascending slice, interpolating
/// linearly between order statistics; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy of a sample.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// `a / b`, or 0 when `b` is 0 (a rate over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Metrics of one run, by name, with units.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
    ) {
        self.values.insert(name, (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Keep only the named metrics, checking their units; a name this
    /// run did not produce is a bug in the benchmark.
    pub fn select(
        &self,
        names: &[(&'static str, &'static str)],
    ) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in names {
            let (v, u) = self.values.get(name).unwrap_or_else(|| {
                panic!("metric {name} was not measured")
            });
            assert_eq!(*u, unit, "unit of {name}");
            out.set(name, *v, u);
        }
        out
    }

    /// Set every metric of `parts` (which all hold the same names) to
    /// its median over them.
    pub fn set_medians(&mut self, parts: &[Metrics]) {
        let Some(first) = parts.first() else { return };
        for (&name, &(_, unit)) in &first.values {
            let vals: Vec<f64> =
                parts.iter().filter_map(|m| m.get(name)).collect();
            self.set(name, median(&vals), unit);
        }
    }

    /// Human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, (v, unit)) in &self.values {
            let _ = writeln!(s, "  {name:<28} {v:>16.4} {unit}");
        }
        s
    }

    /// The one-line JSON result the benchmark prints last.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \
             \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, (v, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with all its digits (non-finite becomes 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_the_textbook() {
        let xs = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn set_medians_takes_each_metric_median() {
        let parts: Vec<Metrics> = [3.0, 1.0, 2.0]
            .iter()
            .map(|&v| {
                let mut m = Metrics::default();
                m.set("x_s", v, "s");
                m.set("y_us", 10.0 * v, "us");
                m
            })
            .collect();
        let mut m = Metrics::default();
        m.set_medians(&parts);
        assert_eq!(m.get("x_s"), Some(2.0));
        assert_eq!(m.get("y_us"), Some(20.0));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("b_s", 0.5, "s");
        m.set("a_us", 12.25, "us");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a_us\": {\"value\": 12.25, \"unit\": \"us\"}, \
             \"b_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
