//! `dqec_benchmark compare A B`: two sets of runs of the suite against
//! the bounds of `BENCHMARK.json`, by the rule the acceptance check
//! applies — per workload × end-to-end metric, the inter-quartile
//! spread of each set over its median must stay within the metric's
//! bound (`setup_s` excepted), and B's median may not be worse than
//! A's by more than the bound.

use crate::stats;
use dqec_sweep::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// An end-to-end metric's gate, as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the reference median.
    pub bound: f64,
}

/// The gates of `BENCHMARK.json` (its `end_to_end` list).
///
/// # Errors
///
/// A message when the text is not the expected document.
pub fn gates(benchmark_json: &str) -> Result<Vec<Gate>, String> {
    let doc = parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Gate {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// `workload → metric → values`, one value per run found under `dir`:
/// every `*.trace0.json` file, in any sub-directory one level down.
///
/// # Errors
///
/// I/O and format errors, with the offending path; also a value that
/// is no measurement (`null`, not finite, or not positive), so a broken
/// run cannot pass as a perfect time.
pub fn load_set(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut files = Vec::new();
    let list = |d: &Path| -> Result<Vec<std::path::PathBuf>, String> {
        let mut v: Vec<_> = std::fs::read_dir(d)
            .map_err(|e| format!("{}: {e}", d.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        v.sort();
        Ok(v)
    };
    for entry in list(dir)? {
        if entry.is_dir() {
            files.extend(list(&entry)?);
        } else {
            files.push(entry);
        }
    }
    let mut set: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for path in files {
        let Some(workload) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".trace0.json"))
        else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no metrics object", path.display()));
        };
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{}: {name} has no usable value", path.display()))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
    Ok(set)
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// `[q1, median, q3]` of set A and of set B.
    pub quartiles: [(f64, f64, f64); 2],
    /// Inter-quartile spread over the median, per set.
    pub spread: [f64; 2],
    /// Largest deviation of a single run from its set's median, as a
    /// share of that median.
    pub max_dev: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    /// Within the gate?
    pub ok: bool,
}

/// Judges one pair. `setup_s` is excused from the spread rule, as in
/// the acceptance check (a median of nine cold set-ups of a third of a
/// second each is the noisiest thing the suite reports).
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> Verdict {
    let med = [stats::median(a), stats::median(b)];
    let worse_by = if gate.higher_is_better {
        (med[0] - med[1]) / med[0]
    } else {
        (med[1] - med[0]) / med[0]
    };
    let spread = [stats::iqr_frac(a), stats::iqr_frac(b)];
    let max_dev = [a, b]
        .iter()
        .zip(med)
        .flat_map(|(v, m)| v.iter().map(move |x| ((x - m) / m).abs()))
        .fold(0.0, f64::max);
    let spread_ok = gate.name == "setup_s" || spread.iter().all(|&s| s <= gate.bound);
    Verdict {
        quartiles: [stats::quartiles(a), stats::quartiles(b)],
        spread,
        max_dev,
        worse_by,
        ok: spread_ok && worse_by <= gate.bound,
    }
}

/// Compares the two sets; prints the table; `Ok(true)` when every pair
/// is within its gate.
///
/// # Errors
///
/// Unreadable inputs, or a pair missing from either set.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let gates = gates(&text)?;
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    println!(
        "{:<16} {:<11} {:>5} {:>12} {:>12} {:>12} {:>7} {:>12} {:>7} {:>8} {:>8}  gate",
        "workload",
        "metric",
        "runs",
        "A q1",
        "A median",
        "A q3",
        "A iqr",
        "B median",
        "B iqr",
        "max dev",
        "B worse"
    );
    let mut all_ok = true;
    for (workload, metrics) in &set_a {
        for gate in &gates {
            let va = metrics
                .get(&gate.name)
                .ok_or_else(|| format!("{workload}: set A has no {}", gate.name))?;
            let vb = set_b
                .get(workload)
                .and_then(|m| m.get(&gate.name))
                .ok_or_else(|| format!("{workload}: set B has no {}", gate.name))?;
            let v = judge(gate, va, vb);
            let [(q1, med_a, q3), (_, med_b, _)] = v.quartiles;
            println!(
                "{:<16} {:<11} {:>2}+{:<2} {:>12.5} {:>12.5} {:>12.5} {:>6.2}% {:>12.5} {:>6.2}% \
                 {:>7.2}% {:>+7.2}%  {}",
                workload,
                gate.name,
                va.len(),
                vb.len(),
                q1,
                med_a,
                q3,
                v.spread[0] * 100.0,
                med_b,
                v.spread[1] * 100.0,
                v.max_dev * 100.0,
                v.worse_by * 100.0,
                if v.ok { "ok" } else { "OUT OF BOUND" }
            );
            all_ok &= v.ok;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &str, higher: bool, bound: f64) -> Gate {
        Gate {
            name: name.into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn gates_are_read_from_the_benchmark_document() {
        let doc = r#"{"end_to_end": [
            {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15}]}"#;
        assert_eq!(
            gates(doc).unwrap(),
            vec![gate("work_per_s", true, 0.1), gate("setup_s", false, 0.15)]
        );
        assert!(gates("{}").is_err());
    }

    #[test]
    fn a_run_without_a_usable_value_is_rejected() {
        let dir = std::env::temp_dir().join(format!("dqec-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("w.trace0.json");
        let line = |v: &str| {
            format!("{{\"metrics\": {{\"setup_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}")
        };
        std::fs::write(&file, line("0.25")).unwrap();
        assert_eq!(load_set(&dir).unwrap()["w"]["setup_s"], vec![0.25]);
        for bad in ["null", "0", "-1"] {
            std::fs::write(&file, line(bad)).unwrap();
            assert!(load_set(&dir).is_err(), "{bad} must not load");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.0];
        let slower = [88.0, 89.0, 88.0, 87.0, 88.0];
        let v = judge(&gate("work_per_s", true, 0.10), &a, &slower);
        assert!(v.worse_by > 0.11 && !v.ok);
        // The same numbers as a latency are an improvement.
        let v = judge(&gate("lat_p50_ms", false, 0.10), &a, &slower);
        assert!(v.worse_by < 0.0 && v.ok);
    }

    #[test]
    fn spread_is_gated_except_for_setup() {
        let steady = [100.0; 5];
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert!(!judge(&gate("work_per_s", true, 0.10), &steady, &noisy).ok);
        assert!(judge(&gate("setup_s", false, 0.15), &steady, &noisy).ok);
        let v = judge(&gate("work_per_s", true, 0.10), &steady, &noisy);
        assert!((v.max_dev - 0.2).abs() < 1e-12);
    }
}
