//! The correctness oracle: every op's expected result is computed once in
//! set-up by `sirius-exec-cpu` (the repo's independent CPU interpreter,
//! here with DuckDB's profile on the paper's CPU instance) and reduced to a
//! row count plus one order-insensitive checksum per column. Every timed
//! op's output is reduced the same way and compared after the timer stops.

use sirius_columnar::{Scalar, Table};
use sirius_exec_cpu::{Catalog, CpuEngine, EngineProfile};
use sirius_hw::catalog as hw;
use sirius_plan::Rel;
use std::time::Duration;

/// Order-insensitive digest of one column: exact for everything but
/// floats, which different engines sum in different orders — those are
/// compared as a sum within 1e-9 of the column's absolute mass (the
/// tolerance the repo's equivalence suites use per cell).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ColumnSum {
    /// Wrapping sum of a per-value hash over non-float cells.
    hash: u64,
    /// Sum of float cells.
    fsum: f64,
    /// Sum of |float cells|.
    fabs: f64,
}

/// Row count and per-column digests of a result table.
#[derive(Debug, Clone, PartialEq)]
pub struct Checksum {
    rows: usize,
    columns: Vec<ColumnSum>,
}

/// splitmix64's output function over `x + γ`: a cheap, well-mixed hash of
/// one word (and, iterated, the harness's seeded generator).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Checksum {
    /// Digest `table`.
    pub fn of(table: &Table) -> Checksum {
        let columns = table
            .columns()
            .iter()
            .map(|col| {
                let mut sum = ColumnSum {
                    hash: 0,
                    fsum: 0.0,
                    fabs: 0.0,
                };
                for i in 0..table.num_rows() {
                    // A type tag keeps `Int64(1)`, `Date32(1)` and `true`
                    // apart; `scalar` decodes dictionary columns, so encoded
                    // and plain strings digest alike.
                    let cell = match col.scalar(i) {
                        Scalar::Null => splitmix64(0),
                        Scalar::Bool(b) => splitmix64((1 << 56) | u64::from(b)),
                        Scalar::Int32(v) => splitmix64((2 << 56) ^ v as u64),
                        Scalar::Int64(v) => splitmix64((3 << 56) ^ v as u64),
                        Scalar::Date32(v) => splitmix64((4 << 56) ^ v as u64),
                        Scalar::Utf8(s) => splitmix64((5 << 56) ^ fnv1a(s.as_bytes())),
                        Scalar::Float64(v) => {
                            sum.fsum += v;
                            sum.fabs += v.abs();
                            splitmix64(6 << 56)
                        }
                    };
                    sum.hash = sum.hash.wrapping_add(cell);
                }
                sum
            })
            .collect();
        Checksum {
            rows: table.num_rows(),
            columns,
        }
    }

    /// Whether `other` digests an equivalent result.
    pub fn matches(&self, other: &Checksum) -> bool {
        self.rows == other.rows
            && self.columns.len() == other.columns.len()
            && self.columns.iter().zip(&other.columns).all(|(a, b)| {
                a.hash == b.hash
                    && (a.fsum - b.fsum).abs() <= 1e-9 * a.fabs.max(b.fabs).max(1.0)
                    && (a.fabs - b.fabs).abs() <= 1e-9 * a.fabs.max(b.fabs).max(1.0)
            })
    }

    /// Result rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// The reference engine.
pub struct Oracle {
    engine: CpuEngine,
}

impl Oracle {
    /// DuckDB's profile on the paper's cost-normalised CPU instance, so
    /// the oracle's simulated time doubles as the paper's CPU baseline.
    pub fn new() -> Oracle {
        Oracle {
            engine: CpuEngine::new(hw::m7i_16xlarge(), EngineProfile::duckdb()),
        }
    }

    /// Expected digest of `plan` over `catalog`, and the simulated time the
    /// CPU baseline took. Panics if the reference engine cannot run the
    /// plan: workloads are chosen so that no operation fails.
    pub fn expect(&self, label: &str, plan: &Rel, catalog: &Catalog) -> (Checksum, Duration) {
        let before = self.engine.device().elapsed();
        let table = self
            .engine
            .execute(plan, catalog)
            .unwrap_or_else(|e| panic!("oracle cannot run {label}: {e}"));
        (
            Checksum::of(&table),
            self.engine.device().elapsed() - before,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Schema};

    fn table(keys: &[i64], names: &[&str], vals: &[f64]) -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("s", DataType::Utf8),
                Field::new("v", DataType::Float64),
            ]),
            vec![
                Array::from_i64(keys.iter().copied()),
                Array::from_strs(names.iter().copied()),
                Array::from_f64(vals.iter().copied()),
            ],
        )
    }

    #[test]
    fn row_order_and_encoding_do_not_matter() {
        let a = table(&[1, 2, 3], &["x", "y", "z"], &[0.1, 0.2, 0.3]);
        let b = table(&[3, 1, 2], &["z", "x", "y"], &[0.3, 0.1, 0.2]);
        assert!(Checksum::of(&a).matches(&Checksum::of(&b)));
        assert!(Checksum::of(&a).matches(&Checksum::of(&a.encode_strings())));
        assert_eq!(Checksum::of(&a).rows(), 3);
    }

    #[test]
    fn wrong_results_are_caught() {
        let a = Checksum::of(&table(&[1, 2, 3], &["x", "y", "z"], &[0.1, 0.2, 0.3]));
        let cases = [
            table(&[1, 2], &["x", "y"], &[0.1, 0.2]),
            table(&[1, 2, 4], &["x", "y", "z"], &[0.1, 0.2, 0.3]),
            table(&[1, 2, 3], &["x", "y", "w"], &[0.1, 0.2, 0.3]),
            table(&[1, 2, 3], &["x", "y", "z"], &[0.1, 0.2, 0.3001]),
            table(&[1, 2, 3], &["x", "y", "z"], &[0.1, -0.2, 0.7]),
        ];
        for (i, t) in cases.iter().enumerate() {
            assert!(!a.matches(&Checksum::of(t)), "case {i}");
        }
        // Last-ulp float drift from a different summation order passes.
        let drift = table(&[1, 2, 3], &["x", "y", "z"], &[0.1, 0.2, 0.3 + 1e-15]);
        assert!(a.matches(&Checksum::of(&drift)));
    }
}
