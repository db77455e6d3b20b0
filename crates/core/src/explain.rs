//! `EXPLAIN ANALYZE`-style plan rendering over per-operator runtime stats.
//!
//! On every run, traced or not, the engine accumulates an [`OpStats`] per
//! plan node — rows and bytes produced, simulated busy time, invocation
//! count, and spill partitions — keyed by the node's **pre-order id**
//! (root = 0, children numbered depth-first left-to-right). [`render`]
//! prints one line per operator under the ids [`sirius_plan::visit::visit`]
//! assigns — the numbering the compiler's fold stamps on every operator.
//!
//! Streaming operators that never materialize (a scan fused into the filter
//! above it, a filter conjunct coalesced into its parent) have no stats and
//! render as `(fused)` — their work is accounted in the surviving operator.
//! Streaming operators report their *exact* busy time summed over morsels:
//! each morsel task charges a recorder only it advances, so no other task's
//! kernels land inside an operator's window. Pipeline breakers (aggregate / sort / limit / distinct) report
//! the *cumulative* simulated window of their whole subtree.

use sirius_plan::visit::{self, Node};
use sirius_plan::Rel;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Runtime counters for one plan operator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Rows produced (summed over morsels / partitions).
    pub rows_out: u64,
    /// Bytes produced.
    pub bytes_out: u64,
    /// Simulated busy time: exact own time for streaming operators,
    /// the cumulative subtree window for pipeline breakers.
    pub busy: Duration,
    /// Times the operator ran (morsel tasks for streaming ops).
    pub invocations: u64,
    /// Spill partitions this operator wrote (Grace join partitions,
    /// aggregate partitions, external-sort runs).
    pub spill_partitions: u64,
}

impl OpStats {
    pub(crate) fn note(&mut self, rows: u64, bytes: u64, busy: Duration) {
        self.rows_out += rows;
        self.bytes_out += bytes;
        self.busy += busy;
        self.invocations += 1;
    }

    /// Counters accumulated since `base` (the snapshot idiom
    /// `MorselStats`/`SpillStats` use): pair a snapshot taken at
    /// `begin` with one at completion for per-run numbers, so one run's
    /// feedback never includes a previous query's rows.
    pub fn since(&self, base: &OpStats) -> OpStats {
        OpStats {
            rows_out: self.rows_out.saturating_sub(base.rows_out),
            bytes_out: self.bytes_out.saturating_sub(base.bytes_out),
            busy: self.busy.saturating_sub(base.busy),
            invocations: self.invocations.saturating_sub(base.invocations),
            spill_partitions: self.spill_partitions.saturating_sub(base.spill_partitions),
        }
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 10 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 10 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

fn fmt_time(d: Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

fn node_label(rel: &Rel) -> String {
    match rel {
        Rel::Read { table, .. } => format!("Read {table}"),
        Rel::Filter { .. } => "Filter".into(),
        Rel::Project { exprs, .. } => format!("Project ({} cols)", exprs.len()),
        Rel::Aggregate { group_by, .. } if group_by.is_empty() => "Aggregate".into(),
        Rel::Aggregate { group_by, .. } => format!("GroupBy ({} keys)", group_by.len()),
        Rel::Join { kind, .. } => format!("Join {kind:?}"),
        Rel::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
        Rel::Limit { offset, fetch, .. } => format!("Limit offset={offset} fetch={fetch:?}"),
        Rel::Distinct { .. } => "Distinct".into(),
        Rel::Exchange { .. } => "Exchange".into(),
    }
}

/// Render the annotated plan: one line per operator with its runtime stats,
/// `(fused)` for streaming operators whose work was folded into a parent,
/// and `(bypassed)` for single-node exchange nodes.
pub fn render(plan: &Rel, stats: &HashMap<u32, OpStats>) -> String {
    let mut out =
        String::from("EXPLAIN ANALYZE (simulated ns; breakers report cumulative subtree time)\n");
    visit::visit(plan, &mut |Node { id, depth }, rel| {
        let pad = "  ".repeat(depth as usize);
        let _ = write!(out, "{pad}{} [#{id}]", node_label(rel));
        match stats.get(&id) {
            Some(s) => {
                let _ = write!(
                    out,
                    "  rows={} bytes={} time={}",
                    s.rows_out,
                    fmt_bytes(s.bytes_out),
                    fmt_time(s.busy)
                );
                if s.invocations > 1 {
                    let _ = write!(out, " x{}", s.invocations);
                }
                if s.spill_partitions > 0 {
                    let _ = write!(out, " spill={}p", s.spill_partitions);
                }
            }
            None => match rel {
                Rel::Exchange { .. } => out.push_str("  (bypassed)"),
                Rel::Read { .. } | Rel::Filter { .. } | Rel::Project { .. } => {
                    out.push_str("  (fused)")
                }
                _ => out.push_str("  (no data)"),
            },
        }
        out.push('\n');
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Schema};
    use sirius_plan::expr;

    fn plan() -> Rel {
        // Sort(0) -> Filter(1) -> Read(2)
        Rel::Sort {
            input: Box::new(Rel::Filter {
                input: Box::new(Rel::Read {
                    table: "t".into(),
                    schema: Schema::new(vec![Field::new("a", DataType::Int64)]),
                    projection: None,
                }),
                predicate: expr::gt(expr::col(0), expr::lit_i64(0)),
            }),
            keys: vec![],
        }
    }

    #[test]
    fn renders_stats_and_fused_markers() {
        let mut stats = HashMap::new();
        stats.insert(
            0,
            OpStats {
                rows_out: 10,
                bytes_out: 80,
                busy: Duration::from_micros(1500),
                invocations: 1,
                spill_partitions: 3,
            },
        );
        let mut filter = OpStats::default();
        filter.note(10, 80, Duration::from_nanos(2_000));
        filter.note(5, 40, Duration::from_nanos(1_000));
        stats.insert(1, filter);
        let s = render(&plan(), &stats);
        assert!(s.contains("Sort (0 keys) [#0]  rows=10 bytes=80B time=1.500ms spill=3p"));
        assert!(s.contains("  Filter [#1]  rows=15 bytes=120B time=0.003ms x2"));
        // Read fused into the filter above it: no stats of its own.
        assert!(s.contains("    Read t [#2]  (fused)"));
    }

    #[test]
    fn preorder_ids_skip_whole_subtrees() {
        // Join(0) { left = Filter(1) -> Read(2), right = Read(3) }
        let join = Rel::Join {
            left: Box::new(Rel::Filter {
                input: Box::new(Rel::Read {
                    table: "l".into(),
                    schema: Schema::new(vec![Field::new("a", DataType::Int64)]),
                    projection: None,
                }),
                predicate: expr::gt(expr::col(0), expr::lit_i64(0)),
            }),
            right: Box::new(Rel::Read {
                table: "r".into(),
                schema: Schema::new(vec![Field::new("a", DataType::Int64)]),
                projection: None,
            }),
            kind: sirius_plan::JoinKind::Inner,
            left_keys: vec![expr::col(0)],
            right_keys: vec![expr::col(0)],
            residual: None,
        };
        let mut stats = HashMap::new();
        stats.insert(3, OpStats::default());
        let s = render(&join, &stats);
        // The right Read gets id 3 (after the 2-node left subtree).
        assert!(s.contains("Read r [#3]  rows=0"), "got:\n{s}");
        assert!(s.contains("Read l [#2]  (fused)"), "got:\n{s}");
    }
}
