//! Percentiles and the metric list a run prints.

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.0.push((name, value, unit));
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a metric without samples
                // reads 0 (every such case is a per-layer metric).
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// order statistics; NaN when empty. Infinite values (failed requests)
/// sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[hi].is_infinite() {
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// The median of the `k` smallest of `values` (all of them if fewer):
/// a sample's time when the host was calm.
///
/// The host is a shared VM whose speed drops 1.3–1.5× in spells of a
/// few seconds or less; how much of a run they cover varies from run to
/// run, so a run's median wanders with them. Host noise only ever adds
/// time, so the fastest samples, taken between spells, stay put; their
/// median rather than their minimum keeps one lucky sample from setting
/// the value.
pub fn calm(values: &[f64], k: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(k.max(1));
    median(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.99), f64::INFINITY);
        assert_eq!(calm(&[5.0, 1.0, 9.0, 2.0, 3.0], 3), 2.0);
        assert_eq!(calm(&[4.0, 1.0], 5), 2.5);
    }
}
