//! The benchmark's declaration, read from `BENCHMARK.json` at the repository
//! root: workloads, metric names, units and regression bounds.
//! The program embeds the file at build time, so the JSON it prints can
//! only name metrics the declaration lists.

use serde::Value;

/// The declaration, embedded at build time. The path is relative to this
/// file, so both manifests that build it find the same declaration.
const DECLARATION: &str = include_str!("../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Parses the embedded declaration.
    ///
    /// # Panics
    /// Panics on a malformed declaration — a build of this package with a
    /// broken `BENCHMARK.json` cannot report anything meaningful.
    pub fn load() -> Spec {
        Spec::parse(DECLARATION).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let field = |v: &Value, key: &str| -> Result<Value, String> {
            v.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let text_of = |v: &Value, key: &str| match field(v, key)? {
            Value::Str(s) => Ok(s),
            _ => Err(format!("`{key}` is not a string")),
        };
        let number_of = |v: &Value, key: &str| match field(v, key)? {
            Value::Int(i) => Ok(i as f64),
            Value::UInt(u) => Ok(u as f64),
            Value::Float(f) => Ok(f),
            _ => Err(format!("`{key}` is not a number")),
        };
        let list = |key: &str| -> Result<Vec<Value>, String> {
            field(&root, key)?
                .as_array()
                .cloned()
                .ok_or_else(|| format!("`{key}` is not a list"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        bound: if bounded {
                            Some(number_of(m, "bound")?)
                        } else {
                            None
                        },
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: number_of(&root, "run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_parses_and_bounds_every_end_to_end_metric() {
        let spec = Spec::load();
        assert!(spec.run_seconds >= 1.0);
        // Every declared workload is built, in the order the build lists
        // them; the build may have more, run only by name.
        let built: Vec<usize> = spec
            .workloads
            .iter()
            .map(|w| {
                crate::workloads::ALL
                    .iter()
                    .position(|b| b == w)
                    .unwrap_or_else(|| panic!("workload `{w}` is declared but not built"))
            })
            .collect();
        assert!(built.windows(2).all(|p| p[0] < p[1]), "{built:?}");
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
            // Set-up is timed only a few times a run: no bound is wider.
            assert!(bound <= setup.bound.unwrap(), "{}", m.name);
        }
    }
}
