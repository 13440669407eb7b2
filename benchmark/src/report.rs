//! Collects metrics, prints them by name with unit and sample count, and
//! writes the one-line JSON result the benchmark ends with.
//!
//! The metric names and units come from `BENCHMARK.json` at the root of
//! the checkout, so the file and the program cannot drift apart: a declared
//! metric the run did not measure is an error, not a silent gap.

use cnp_serve::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Declarations {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declarations {
    pub fn load(path: &std::path::Path) -> Result<Declarations, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            let items = doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{}: {key} is missing", path.display()))?;
            items
                .iter()
                .map(|item| {
                    let field = |f: &str| {
                        item.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{}: a {key} entry lacks {f}", path.display()))
                    };
                    Ok(Declared {
                        name: field("name")?,
                        unit: field("unit")?,
                    })
                })
                .collect()
        };
        Ok(Declarations {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct Value {
    value: f64,
    samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, Value>,
    units: BTreeMap<String, &'static str>,
    stamp: Vec<(String, String)>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric; `samples` is the number of measurements behind it
    /// (1 for a single measurement, the item count for a count or ratio).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.values
            .insert(name.to_string(), Value { value, samples });
        self.units.insert(name.to_string(), unit);
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    pub fn stamp(&mut self, key: &str, value: impl ToString) {
        self.stamp.push((key.to_string(), value.to_string()));
    }

    /// Records a failed output check; any failure makes the run incorrect.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Prints the stamp, every measured metric and every failed check, one
    /// per line, then the JSON result as the last line of standard output.
    /// Returns whether the run is correct.
    pub fn finish(mut self, declared: &Declarations, trace: bool) -> bool {
        let selected = if trace {
            &declared.per_layer
        } else {
            &declared.end_to_end
        };
        for d in selected {
            match self.values.get(&d.name) {
                Some(v) if v.value.is_finite() => {}
                Some(_) => self.fail(format!("metric {} was not measured (not finite)", d.name)),
                None => self.fail(format!("metric {} was not measured", d.name)),
            }
            if let Some(unit) = self.units.get(&d.name) {
                if *unit != d.unit {
                    let msg = format!("metric {} has unit {unit}, declared {}", d.name, d.unit);
                    self.fail(msg);
                }
            }
        }
        let mut out = String::new();
        for (key, value) in &self.stamp {
            let _ = writeln!(out, "stamp {key} = {value}");
        }
        for (name, v) in &self.values {
            let unit = self.units.get(name).copied().unwrap_or("");
            let _ = writeln!(out, "metric {name} = {} {unit} (n={})", v.value, v.samples);
        }
        // Every failed check counts at least once against the attempts.
        let correct = self.failures.is_empty();
        let attempted = self.attempted.max(1);
        let failed = if correct {
            self.failed
        } else {
            self.failed.max(1)
        }
        .min(attempted);
        let _ = writeln!(
            out,
            "metric failed_frac = {} ratio (n={attempted})",
            failed as f64 / attempted as f64
        );
        for failure in &self.failures {
            let _ = writeln!(out, "FAILED {failure}");
        }
        let mut metrics = String::new();
        for (i, d) in selected.iter().enumerate() {
            let value = self.values.get(&d.name).map_or(f64::NAN, |v| v.value);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                Json::str(d.name.clone()).write(),
                json_number(value),
                Json::str(d.unit.clone()).write()
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
        );
        print!("{out}");
        correct
    }
}

/// A finite `f64` with every digit Rust's shortest round-trip formatting
/// gives, and always a decimal point so JSON readers see a number.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}
