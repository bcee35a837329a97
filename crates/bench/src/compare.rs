//! Baseline comparison: the regression gate behind `bench --bin compare`.
//!
//! Two baseline documents (see `bin/baseline.rs`) are diffed entry by
//! entry under two different contracts:
//!
//! * **Deterministic anchors** (`sim_makespan_secs`, `tasks_completed`,
//!   `context_switches` for a simulation; `makespan_ns`, `steps` and the
//!   five blame terms for a critical-path fold) are outputs of a seeded
//!   run — identical on every machine. Any difference is a behavioral
//!   regression and fails the gate outright. An anchor an entry does not
//!   carry is absent on both sides and so never differs.
//! * **Wall-clock** (`mean_wall_ns`) varies with the host, so it only
//!   fails when the fresh run is slower than the baseline by more than a
//!   generous per-entry ratio (default 3×) chosen to ride out CI-runner
//!   noise while still catching order-of-magnitude slowdowns.
//!
//! An entry present in the baseline but absent from the fresh document is
//! a failure (coverage must not silently shrink); a new entry in the
//! fresh document is reported but allowed.

use minijson::Value;

/// The deterministic per-entry fields that must match exactly.
const ANCHORS: [&str; 10] = [
    "sim_makespan_secs",
    "tasks_completed",
    "context_switches",
    "makespan_ns",
    "steps",
    "t_ppe_ns",
    "t_wait_ns",
    "t_spe_ns",
    "t_code_ns",
    "t_comm_ns",
];

/// Gate thresholds.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Maximum allowed `fresh.mean_wall_ns / base.mean_wall_ns`.
    pub max_wall_ratio: f64,
}

impl Default for CompareConfig {
    fn default() -> CompareConfig {
        CompareConfig { max_wall_ratio: 3.0 }
    }
}

/// Verdict for one baseline entry.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryVerdict {
    /// Entry name (`simulate/mgps`, ...).
    pub name: String,
    /// `ok`, `added`, `missing`, `anchor-mismatch`, or `slower`.
    pub status: &'static str,
    /// `fresh.mean_wall_ns / base.mean_wall_ns` where both sides exist.
    pub wall_ratio: Option<f64>,
    /// Human-readable explanation for failures.
    pub detail: String,
}

/// The whole gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// True when nothing failed.
    pub ok: bool,
    /// One verdict per baseline entry, plus `added` rows for new entries.
    pub entries: Vec<EntryVerdict>,
    /// Document-level failures (schema or config mismatch).
    pub errors: Vec<String>,
}

impl CompareReport {
    /// Machine-readable verdict document.
    pub fn to_value(&self) -> Value {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Value::object(vec![
                    ("name", e.name.as_str().into()),
                    ("status", e.status.into()),
                    (
                        "wall_ratio",
                        e.wall_ratio.map_or(Value::Null, Value::Number),
                    ),
                    ("detail", e.detail.as_str().into()),
                ])
            })
            .collect();
        Value::object(vec![
            ("schema", "multigrain-bench-compare/1".into()),
            ("ok", self.ok.into()),
            ("entries", Value::Array(entries)),
            ("errors", Value::array(self.errors.iter().map(|e| Value::from(e.as_str())))),
        ])
    }

    /// One line per entry plus the verdict, for terminals and CI logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for err in &self.errors {
            out.push_str(&format!("ERROR  {err}\n"));
        }
        for e in &self.entries {
            let ratio = e
                .wall_ratio
                .map_or_else(|| "    -".to_string(), |r| format!("{r:5.2}x"));
            out.push_str(&format!("{:<20} wall {ratio}  {}", e.name, e.status));
            if !e.detail.is_empty() {
                out.push_str(&format!("  ({})", e.detail));
            }
            out.push('\n');
        }
        out.push_str(if self.ok { "verdict: PASS\n" } else { "verdict: FAIL\n" });
        out
    }
}

fn entries_of(doc: &Value) -> Vec<(String, Value)> {
    doc.get("entries")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|e| {
                    let name = e.get("name")?.as_str()?.to_string();
                    Some((name, e.clone()))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Diff `fresh` against `base` under `cfg`.
pub fn compare(base: &Value, fresh: &Value, cfg: CompareConfig) -> CompareReport {
    let mut report = CompareReport { ok: true, entries: Vec::new(), errors: Vec::new() };

    // The documents must describe the same experiment.
    for key in ["schema", "scale", "bootstraps"] {
        let (b, f) = (base.get(key), fresh.get(key));
        if b.map(Value::to_json) != f.map(Value::to_json) {
            report.errors.push(format!(
                "{key} differs: baseline {} vs fresh {}",
                b.map_or("absent".into(), Value::to_json),
                f.map_or("absent".into(), Value::to_json),
            ));
            report.ok = false;
        }
    }

    let base_entries = entries_of(base);
    let fresh_entries = entries_of(fresh);

    for (name, b) in &base_entries {
        let Some((_, f)) = fresh_entries.iter().find(|(n, _)| n == name) else {
            report.ok = false;
            report.entries.push(EntryVerdict {
                name: name.clone(),
                status: "missing",
                wall_ratio: None,
                detail: "entry present in baseline but absent from fresh run".into(),
            });
            continue;
        };

        let wall_ratio = match (
            b.get("mean_wall_ns").and_then(Value::as_f64),
            f.get("mean_wall_ns").and_then(Value::as_f64),
        ) {
            (Some(bw), Some(fw)) if bw > 0.0 => Some(fw / bw),
            _ => None,
        };

        // Deterministic anchors: exact match, compared on the JSON text so
        // integers and floats are both bit-faithful.
        let mut mismatches = Vec::new();
        for anchor in ANCHORS {
            let (bv, fv) = (b.get(anchor), f.get(anchor));
            if bv.map(Value::to_json) != fv.map(Value::to_json) {
                mismatches.push(format!(
                    "{anchor}: {} -> {}",
                    bv.map_or("absent".into(), Value::to_json),
                    fv.map_or("absent".into(), Value::to_json),
                ));
            }
        }
        if !mismatches.is_empty() {
            report.ok = false;
            report.entries.push(EntryVerdict {
                name: name.clone(),
                status: "anchor-mismatch",
                wall_ratio,
                detail: mismatches.join("; "),
            });
            continue;
        }

        if let Some(r) = wall_ratio {
            if r > cfg.max_wall_ratio {
                report.ok = false;
                report.entries.push(EntryVerdict {
                    name: name.clone(),
                    status: "slower",
                    wall_ratio,
                    detail: format!(
                        "wall clock {r:.2}x the baseline (limit {:.2}x)",
                        cfg.max_wall_ratio
                    ),
                });
                continue;
            }
        }

        report.entries.push(EntryVerdict {
            name: name.clone(),
            status: "ok",
            wall_ratio,
            detail: String::new(),
        });
    }

    for (name, _) in &fresh_entries {
        if !base_entries.iter().any(|(n, _)| n == name) {
            report.entries.push(EntryVerdict {
                name: name.clone(),
                status: "added",
                wall_ratio: None,
                detail: "new entry, not in the baseline".into(),
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(entries: Vec<Value>) -> Value {
        Value::object(vec![
            ("schema", "multigrain-bench-baseline/1".into()),
            ("scale", 5000u64.into()),
            ("bootstraps", 8u64.into()),
            ("entries", Value::Array(entries)),
        ])
    }

    fn entry(name: &str, wall: u64, makespan: f64, tasks: u64, switches: u64) -> Value {
        Value::object(vec![
            ("name", name.into()),
            ("iters", 5u64.into()),
            ("mean_wall_ns", wall.into()),
            ("sim_makespan_secs", makespan.into()),
            ("tasks_completed", tasks.into()),
            ("context_switches", switches.into()),
        ])
    }

    #[test]
    fn a_baseline_passes_against_itself() {
        let base = doc(vec![entry("simulate/mgps", 1000, 44.5, 424, 421)]);
        let report = compare(&base, &base, CompareConfig::default());
        assert!(report.ok, "{}", report.render());
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].status, "ok");
        assert_eq!(report.entries[0].wall_ratio, Some(1.0));
    }

    #[test]
    fn anchor_drift_fails_regardless_of_wall_clock() {
        let base = doc(vec![entry("simulate/mgps", 1000, 44.5, 424, 421)]);
        // Faster wall clock, but the simulated makespan moved: that is a
        // behavioral change, not a perf win.
        let fresh = doc(vec![entry("simulate/mgps", 500, 44.6, 424, 421)]);
        let report = compare(&base, &fresh, CompareConfig::default());
        assert!(!report.ok);
        assert_eq!(report.entries[0].status, "anchor-mismatch");
        assert!(report.entries[0].detail.contains("sim_makespan_secs"));
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn critical_path_anchors_are_gated_too() {
        let fold = |steps: u64, t_wait: u64| {
            Value::object(vec![
                ("name", "critpath/atlas-cell".into()),
                ("iters", 5u64.into()),
                ("mean_wall_ns", 1000u64.into()),
                ("makespan_ns", 900u64.into()),
                ("steps", steps.into()),
                ("t_wait_ns", t_wait.into()),
            ])
        };
        let base = doc(vec![fold(531, 40)]);
        assert!(compare(&base, &doc(vec![fold(531, 40)]), CompareConfig::default()).ok);
        let report = compare(&base, &doc(vec![fold(530, 41)]), CompareConfig::default());
        assert!(!report.ok);
        assert_eq!(report.entries[0].status, "anchor-mismatch");
        assert!(report.entries[0].detail.contains("steps: 531 -> 530"), "{}", report.render());
        assert!(report.entries[0].detail.contains("t_wait_ns: 40 -> 41"), "{}", report.render());
    }

    #[test]
    fn a_large_slowdown_fails_and_a_small_one_passes() {
        let base = doc(vec![entry("simulate/mgps", 1000, 44.5, 424, 421)]);
        let slow = doc(vec![entry("simulate/mgps", 3500, 44.5, 424, 421)]);
        let report = compare(&base, &slow, CompareConfig::default());
        assert!(!report.ok);
        assert_eq!(report.entries[0].status, "slower");
        assert_eq!(report.entries[0].wall_ratio, Some(3.5));

        let ok = doc(vec![entry("simulate/mgps", 2500, 44.5, 424, 421)]);
        let report = compare(&base, &ok, CompareConfig::default());
        assert!(report.ok, "2.5x is inside the 3x budget: {}", report.render());
    }

    #[test]
    fn missing_entries_fail_and_added_entries_do_not() {
        let base = doc(vec![
            entry("simulate/edtlp", 1000, 44.5, 424, 421),
            entry("simulate/mgps", 1000, 44.5, 424, 421),
        ]);
        let fresh = doc(vec![
            entry("simulate/edtlp", 1000, 44.5, 424, 421),
            entry("simulate/llp4", 1000, 76.0, 424, 0),
        ]);
        let report = compare(&base, &fresh, CompareConfig::default());
        assert!(!report.ok);
        let status: Vec<_> = report.entries.iter().map(|e| (e.name.as_str(), e.status)).collect();
        assert!(status.contains(&("simulate/mgps", "missing")));
        assert!(status.contains(&("simulate/llp4", "added")));
        assert!(status.contains(&("simulate/edtlp", "ok")));

        // Added-only is fine.
        let base2 = doc(vec![entry("simulate/edtlp", 1000, 44.5, 424, 421)]);
        let report = compare(&base2, &fresh, CompareConfig::default());
        assert!(report.ok, "{}", report.render());
    }

    #[test]
    fn document_mismatch_is_an_error() {
        let base = doc(vec![]);
        let mut fresh = doc(vec![]);
        if let Value::Object(m) = &mut fresh {
            for (k, v) in m.iter_mut() {
                if k == "scale" {
                    *v = 400u64.into();
                }
            }
        }
        let report = compare(&base, &fresh, CompareConfig::default());
        assert!(!report.ok);
        assert!(report.errors.iter().any(|e| e.contains("scale")), "{:?}", report.errors);
    }

    #[test]
    fn the_verdict_json_is_machine_readable() {
        let base = doc(vec![entry("simulate/mgps", 1000, 44.5, 424, 421)]);
        let fresh = doc(vec![entry("simulate/mgps", 9000, 44.5, 424, 421)]);
        let report = compare(&base, &fresh, CompareConfig::default());
        let v = minijson::parse(&report.to_value().to_json()).expect("verdict parses");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let entries = v.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries[0].get("status").and_then(Value::as_str), Some("slower"));
        assert_eq!(entries[0].get("wall_ratio").and_then(Value::as_f64), Some(9.0));
    }
}
