//! The paper's own numbers, where the repo holds them (`reference.json`).

use crate::json::{self, Value};

fn doc() -> Value {
    json::parse(include_str!("../reference.json")).expect("reference.json is valid JSON")
}

/// Table 2's 4 KiB-page amplification column, in the paper's row order.
pub fn table2_amp_4k() -> Vec<(String, f64)> {
    doc()
        .get("table2_amp_4k")
        .map(|rows| {
            rows.fields()
                .iter()
                .filter_map(|(name, v)| Some((name.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Table 2's 64 B cache-line amplification for Redis-Rand: what
/// `miss_dirty`'s measured write amplification is held against.
pub fn write_amp_64b() -> Option<f64> {
    doc().get("table2_amp_64b")?.get("Redis-Rand")?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_the_nine_table2_rows_and_the_cache_line_value() {
        let rows = table2_amp_4k();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0], ("Redis-Rand".to_string(), 31.36));
        assert_eq!(rows[8], ("VoltDB".to_string(), 3.74));
        assert_eq!(write_amp_64b(), Some(1.48));
    }
}
