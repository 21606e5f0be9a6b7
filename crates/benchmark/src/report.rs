//! Named measurements and the two text forms they travel in: tab-separated
//! lines between the benchmark's own processes and files, and the one-line
//! JSON result the benchmark contract asks for.

use std::fmt::Write;

/// One measurement: a name from `BENCHMARK.json`, a value, a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// A measurement.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }

    /// `name<TAB>value<TAB>unit`, the value with all its digits.
    pub fn to_tsv(&self) -> String {
        format!("{}\t{}\t{}", self.name, self.value, self.unit)
    }

    /// Parses a [`to_tsv`](Metric::to_tsv) line; `None` for anything else.
    pub fn from_tsv(line: &str) -> Option<Metric> {
        let mut fields = line.split('\t');
        let name = fields.next()?;
        let value: f64 = fields.next()?.parse().ok()?;
        let unit = fields.next()?;
        (fields.next().is_none() && !name.is_empty()).then(|| Metric::new(name, value, unit))
    }
}

/// Every well-formed metric line of `text`.
pub fn parse_tsv(text: &str) -> Vec<Metric> {
    text.lines().filter_map(Metric::from_tsv).collect()
}

/// The result line of the benchmark contract:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn contract_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a measurement that failed reads 0
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_round_trips_and_rejects_noise() {
        let m = Metric::new("core.mlp.direct_r1_s3_us", 977.123456789, "us");
        assert_eq!(Metric::from_tsv(&m.to_tsv()), Some(m.clone()));
        let text = format!("warming up\n{}\nx\ty\tz\n\n", m.to_tsv());
        assert_eq!(parse_tsv(&text), vec![m]);
    }

    #[test]
    fn contract_line_is_one_json_object() {
        let line = contract_json(
            true,
            10,
            0,
            &[
                Metric::new("setup_s", 0.25, "s"),
                Metric::new("x", f64::NAN, "us"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
