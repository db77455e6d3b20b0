//! The one plan rewrite the GPU engine applies before compiling: adjacent
//! filters coalesce into one conjunction.
//!
//! Only `sirius-core` normalizes — `physical::compile` folds the normalized
//! tree, so its pre-order ids are the ids execution stamps into
//! `operator_stats`, EXPLAIN ANALYZE renders and feedback records under —
//! and the normalized tree is also the one copy compilation makes of a
//! borrowed plan. The CPU interpreters and the distributed fragmenter walk
//! the plan as it arrives.
//!
//! Column pruning is not a normalization: which columns a scan reads is the
//! SQL optimizer's decision (`sirius_sql::optimizer`), taken once when the
//! plan is made, and a host's Substrait plan runs with the scans it arrives
//! with.
//!
//! The rewrite is semantics-preserving: the normalized plan has the exact
//! same output schema (names, types, nullability) and produces the exact
//! same rows as the input plan.

use crate::expr;
use crate::rel::Rel;
use crate::visit::rewrite;

/// Merge adjacent `Filter` operators into one conjunction. Deterministic:
/// equal inputs normalize to equal outputs.
///
/// `Filter(outer, Filter(inner, x))` becomes `Filter(inner AND outer, x)`
/// — the operand order matches evaluation order (inner predicate first),
/// so engines that short-circuit `AND` see the same work. The surviving
/// filter sits where the *outermost* one was, which is the node that
/// per-operator stats attribute the fused predicate to.
pub fn normalize(rel: &Rel) -> Rel {
    rewrite(rel, &mut |r| match r {
        Rel::Filter {
            input,
            predicate: outer,
        } => match *input {
            // Children are already rewritten, so the inner filter is
            // itself fully coalesced: one collapse step per level suffices.
            Rel::Filter {
                input: grand,
                predicate: inner,
            } => Rel::Filter {
                input: grand,
                predicate: expr::and(inner, outer),
            },
            other => Rel::Filter {
                input: Box::new(other),
                predicate: outer,
            },
        },
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::{col, gt, lit_i64, lt};
    use sirius_columnar::{DataType, Field, Schema};

    fn wide_schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
            Field::new("d", DataType::Int64),
        ])
    }

    fn wide_scan() -> PlanBuilder {
        PlanBuilder::scan("t", wide_schema())
    }

    #[test]
    fn coalesces_filter_stacks() {
        let plan = wide_scan()
            .filter(gt(col(0), lit_i64(1)))
            .filter(lt(col(1), lit_i64(9)))
            .filter(gt(col(2), lit_i64(3)))
            .build();
        let out = normalize(&plan);
        assert_eq!(out.node_count(), 2);
        let Rel::Filter { predicate, .. } = &out else {
            panic!("expected filter root");
        };
        // Inner-to-outer evaluation order: ((f0 AND f1) AND f2).
        let parts = crate::expr::split_conjunction(predicate);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &gt(col(0), lit_i64(1)));
        assert_eq!(parts[2], &gt(col(2), lit_i64(3)));
        assert_eq!(out.schema().unwrap(), plan.schema().unwrap());
    }

    /// Asserts `normalize` leaves both forms of a plan as they arrive — the
    /// one whose scan reads every column it needs and more, and the one with
    /// the projection already pushed into the scan — and that both forms
    /// type alike, so the pushdown is the optimizer's alone to take.
    fn assert_scans_left_as_they_arrive(wide: Rel, pushed: Rel) {
        assert_eq!(pushed.schema().unwrap(), wide.schema().unwrap());
        for plan in [wide, pushed] {
            crate::validate::validate(&plan).unwrap();
            assert_eq!(normalize(&plan), plan);
        }
    }

    #[test]
    fn pushes_projection_through_filters_into_scan() {
        // Project(d) over Filter(b > 0) over all four columns; pushed, the
        // scan reads {b, d} and predicate and expression are remapped.
        let wide = wide_scan()
            .filter(gt(col(1), lit_i64(0)))
            .project(vec![(col(3), "d".into())])
            .build();
        let pushed = PlanBuilder::from_rel(Rel::Read {
            table: "t".into(),
            schema: wide_schema(),
            projection: Some(vec![1, 3]),
        })
        .filter(gt(col(0), lit_i64(0)))
        .project(vec![(col(1), "d".into())])
        .build();
        assert_scans_left_as_they_arrive(wide, pushed);
    }

    #[test]
    fn composes_with_existing_scan_projection() {
        // Output ordinal 2 of a scan projecting [3, 1, 0] is base column 0;
        // composed, the scan reads [0] alone.
        let wide = PlanBuilder::from_rel(Rel::Read {
            table: "t".into(),
            schema: wide_schema(),
            projection: Some(vec![3, 1, 0]),
        })
        .project(vec![(col(2), "a".into())])
        .build();
        let pushed = PlanBuilder::from_rel(Rel::Read {
            table: "t".into(),
            schema: wide_schema(),
            projection: Some(vec![0]),
        })
        .project(vec![(col(0), "a".into())])
        .build();
        assert_scans_left_as_they_arrive(wide, pushed);
    }

    #[test]
    fn leaves_full_width_and_broken_chains_alone() {
        let full = wide_scan()
            .project(vec![
                (col(0), "a".into()),
                (col(1), "b".into()),
                (col(2), "c".into()),
                (col(3), "d".into()),
            ])
            .build();
        assert_eq!(normalize(&full), full);

        let broken = wide_scan()
            .distinct()
            .project(vec![(col(0), "a".into())])
            .build();
        assert_eq!(normalize(&broken), broken);

        let literal = wide_scan()
            .project(vec![(lit_i64(1), "one".into())])
            .build();
        assert_eq!(normalize(&literal), literal);
    }

    #[test]
    fn normalize_preserves_schema_on_composites() {
        let plan = wide_scan()
            .filter(gt(col(0), lit_i64(1)))
            .filter(lt(col(3), lit_i64(9)))
            .project(vec![(col(3), "d".into()), (col(0), "a".into())])
            .build();
        let out = normalize(&plan);
        assert_eq!(out.schema().unwrap(), plan.schema().unwrap());
        crate::validate::validate(&out).unwrap();
        // One filter left over the scan, which still reads all four columns.
        let Rel::Project { input, .. } = &out else {
            panic!("expected project root");
        };
        let Rel::Filter { input: scan, .. } = &**input else {
            panic!("expected filter");
        };
        assert!(matches!(
            &**scan,
            Rel::Read {
                projection: None,
                ..
            }
        ));
    }
}
