//! Shared helpers for the cross-crate integration suite and the runnable
//! examples.

#![warn(missing_docs)]

use sirius_columnar::{Scalar, Table};
use sirius_exec_cpu::Catalog;
use sirius_sql::BinderCatalog;
use sirius_tpch::TpchData;

/// Build the execution catalog (name → table) from generated TPC-H data.
pub fn exec_catalog(data: &TpchData) -> Catalog {
    let mut cat = Catalog::new();
    for (name, table) in data.tables() {
        cat.register(name.clone(), table.clone());
    }
    cat
}

/// Build the binder catalog (schemas + row counts) from generated data.
pub fn binder_catalog(data: &TpchData) -> BinderCatalog {
    let mut cat = BinderCatalog::new();
    for (name, table) in data.tables() {
        cat.add_table(
            name.clone(),
            table.schema().clone(),
            table.num_rows() as u64,
        );
    }
    cat
}

/// Compare two result tables ignoring row order and with float tolerance
/// (aggregation order differs across engines, so float sums differ in the
/// last ulps). Panics with a diagnostic on mismatch.
pub fn assert_tables_equivalent(label: &str, a: &Table, b: &Table) {
    assert_eq!(a.num_rows(), b.num_rows(), "{label}: row count");
    assert_eq!(a.num_columns(), b.num_columns(), "{label}: column count");
    let ra = a.canonical_rows();
    let rb = b.canonical_rows();
    for (i, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
        for (c, (sx, sy)) in x.iter().zip(y.iter()).enumerate() {
            assert!(
                scalar_close(sx, sy),
                "{label}: row {i} col {c} differs: {sx:?} vs {sy:?}"
            );
        }
    }
}

/// Scalar equality with relative tolerance for floats.
pub fn scalar_close(a: &Scalar, b: &Scalar) -> bool {
    match (a, b) {
        (Scalar::Float64(x), Scalar::Float64(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a == b,
    }
}

/// Path of a committed snapshot file under `tests/snapshots/`.
pub fn snapshot_path(file: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("snapshots")
        .join(file)
}

/// Compare freshly rendered text with the committed snapshot `file`, line
/// by line, so a drift names the first line that moved.
pub fn assert_matches_snapshot(file: &str, got: &str) {
    let path = snapshot_path(file);
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{file} drifted at line {}", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{file}: line count"
    );
}
