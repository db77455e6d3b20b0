//! Structural and type validation of plan trees.
//!
//! The paper's engine falls back to the host on "an error or missing
//! features" (§3.2.2); validation is the first gate — a plan that fails
//! here is routed back to the host engine before execution starts.

use crate::expr::{comparable, expect_bool, AggExpr, AggFunc};
use crate::rel::{ExchangeKind, JoinKind, Rel};
use crate::{PlanError, Result};
use sirius_columnar::Schema;

/// Validate a plan tree and return its output schema: every expression
/// type-checks against its input, filter predicates are boolean, join key
/// lists are aligned and equi-comparable, and limits/projections are in
/// range. One bottom-up pass: each operator's inputs are validated first
/// and the operator is typed once, by [`Rel::output_schema`] over the
/// schemas they returned — which is also what type-checks the expressions
/// feeding an output column; the arms below add the structural checks and
/// type the expressions the rule does not look at.
pub fn validate(plan: &Rel) -> Result<Schema> {
    let invalid = |what: String| Err(PlanError::Invalid(what));
    match plan {
        Rel::Read { .. } => plan.output_schema(&[]),
        Rel::Filter { input, predicate } => {
            let s = validate(input)?;
            expect_bool("filter predicate", predicate, &s)?;
            Ok(s)
        }
        Rel::Project { input, exprs } => {
            let out = plan.output_schema(&[&validate(input)?])?;
            ensure(!exprs.is_empty(), "empty projection")?;
            Ok(out)
        }
        Rel::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let out = plan.output_schema(&[&validate(input)?])?;
            let empty = aggregates.is_empty() && group_by.is_empty();
            ensure(!empty, "aggregate with no keys and no aggregates")?;
            let bare = |a: &&AggExpr| a.input.is_none() && a.func != AggFunc::CountStar;
            if let Some(a) = aggregates.iter().find(bare) {
                return invalid(format!("{:?} requires an argument", a.func));
            }
            Ok(out)
        }
        Rel::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
        } => {
            let (ls, rs) = (validate(left)?, validate(right)?);
            if left_keys.len() != right_keys.len() {
                return invalid(format!(
                    "join key count mismatch: {} vs {}",
                    left_keys.len(),
                    right_keys.len()
                ));
            }
            let keyed = !left_keys.is_empty();
            ensure(*kind != JoinKind::Cross || !keyed, "cross join with keys")?;
            // `Single` may be keyless: an uncorrelated scalar subquery joins
            // its one-row result against every outer row.
            if !matches!(kind, JoinKind::Cross | JoinKind::Single) && !keyed {
                return invalid(format!("{kind:?} join without keys"));
            }
            for (l, r) in left_keys.iter().zip(right_keys.iter()) {
                let (lt, rt) = (l.data_type(&ls)?, r.data_type(&rs)?);
                if !comparable(lt, rt) {
                    return Err(PlanError::TypeError(format!(
                        "join keys not comparable: {lt} vs {rt}"
                    )));
                }
            }
            if let Some(res) = residual {
                expect_bool("join residual", res, &ls.join(&rs))?;
            }
            plan.output_schema(&[&ls, &rs])
        }
        Rel::Sort { input, keys } => {
            let s = validate(input)?;
            ensure(!keys.is_empty(), "sort with no keys")?;
            for k in keys {
                k.expr.data_type(&s)?;
            }
            Ok(s)
        }
        Rel::Limit { input, fetch, .. } => {
            let s = validate(input)?;
            ensure(*fetch != Some(0), "fetch of zero rows")?;
            Ok(s)
        }
        Rel::Distinct { input } => validate(input),
        Rel::Exchange { input, kind } => {
            let s = validate(input)?;
            if let ExchangeKind::Shuffle { keys } = kind {
                ensure(!keys.is_empty(), "shuffle without keys")?;
                for k in keys {
                    k.data_type(&s)?;
                }
            }
            Ok(s)
        }
    }
}

/// A structural rule: `ok`, or the plan is [`PlanError::Invalid`] for `why`.
fn ensure(ok: bool, why: &str) -> Result<()> {
    ok.then_some(())
        .ok_or_else(|| PlanError::Invalid(why.into()))
}

/// Features the GPU engine supports. Used by the fallback check: a valid
/// plan may still contain features Sirius lacks (mirroring the paper's
/// limited distributed SQL coverage), in which case the host executes it.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// Sorts supported.
    pub sort: bool,
    /// Left/Single outer joins supported.
    pub outer_joins: bool,
    /// `AVG` supported (the paper's distributed mode lacks it).
    pub avg: bool,
    /// `COUNT(DISTINCT)` supported.
    pub count_distinct: bool,
}

impl FeatureSet {
    /// Everything on (single-node Sirius).
    pub fn full() -> Self {
        Self {
            sort: true,
            outer_joins: true,
            avg: true,
            count_distinct: true,
        }
    }

    /// First unsupported feature found in `plan`, or `None` if fully
    /// supported.
    pub fn first_unsupported(&self, plan: &Rel) -> Option<String> {
        let here = match plan {
            Rel::Sort { .. } if !self.sort => Some("Sort".to_string()),
            Rel::Join {
                kind: JoinKind::Left | JoinKind::Single,
                ..
            } if !self.outer_joins => Some("OuterJoin".to_string()),
            Rel::Aggregate { aggregates, .. } => aggregates.iter().find_map(|a| match a.func {
                AggFunc::Avg if !self.avg => Some("Avg".to_string()),
                AggFunc::CountDistinct if !self.count_distinct => Some("CountDistinct".to_string()),
                _ => None,
            }),
            _ => None,
        };
        here.or_else(|| {
            plan.children()
                .iter()
                .find_map(|c| self.first_unsupported(c))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::{self, AggExpr, AggFunc, Expr, SortExpr};
    use sirius_columnar::{DataType, Field, Scalar, Schema};

    fn scan() -> PlanBuilder {
        PlanBuilder::scan(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("s", DataType::Utf8),
            ]),
        )
    }

    #[test]
    fn valid_plan_passes() {
        let p = scan()
            .filter(expr::gt(expr::col(0), expr::lit_i64(1)))
            .aggregate(
                vec![expr::col(1)],
                vec![AggExpr {
                    func: AggFunc::CountStar,
                    input: None,
                    name: "n".into(),
                }],
            )
            .sort(vec![SortExpr {
                expr: expr::col(1),
                ascending: true,
            }])
            .build();
        validate(&p).unwrap();
    }

    #[test]
    fn non_bool_filter_rejected() {
        let p = scan()
            .filter(expr::add(expr::col(0), expr::lit_i64(1)))
            .build();
        assert!(matches!(validate(&p), Err(PlanError::TypeError(_))));
    }

    #[test]
    fn join_key_mismatch_rejected() {
        let p = scan()
            .join(
                scan(),
                JoinKind::Inner,
                vec![expr::col(0), expr::col(1)],
                vec![expr::col(0)],
                None,
            )
            .build();
        assert!(matches!(validate(&p), Err(PlanError::Invalid(_))));
    }

    #[test]
    fn join_key_types_must_be_comparable() {
        let p = scan()
            .join(
                scan(),
                JoinKind::Inner,
                vec![expr::col(0)],
                vec![expr::col(1)],
                None,
            )
            .build();
        assert!(matches!(validate(&p), Err(PlanError::TypeError(_))));
    }

    #[test]
    fn inner_errors_surface_from_depth() {
        let bad = scan()
            .filter(expr::lit(Scalar::Int64(1)))
            .distinct()
            .build();
        assert!(validate(&bad).is_err());
    }

    #[test]
    fn cross_join_rules() {
        let with_keys = scan()
            .join(
                scan(),
                JoinKind::Cross,
                vec![expr::col(0)],
                vec![expr::col(0)],
                None,
            )
            .build();
        assert!(validate(&with_keys).is_err());
        let keyless = scan()
            .join(scan(), JoinKind::Cross, vec![], vec![], None)
            .build();
        validate(&keyless).unwrap();
        let inner_keyless = scan()
            .join(scan(), JoinKind::Inner, vec![], vec![], None)
            .build();
        assert!(validate(&inner_keyless).is_err());
    }

    #[test]
    fn residual_must_be_bool() {
        let p = scan()
            .join(
                scan(),
                JoinKind::Inner,
                vec![expr::col(0)],
                vec![expr::col(0)],
                Some(Expr::Column(1)),
            )
            .build();
        assert!(matches!(validate(&p), Err(PlanError::TypeError(_))));
    }

    #[test]
    fn feature_set_detects_avg() {
        let p = scan()
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Avg,
                    input: Some(expr::col(0)),
                    name: "a".into(),
                }],
            )
            .build();
        let mut fs = FeatureSet::full();
        assert_eq!(fs.first_unsupported(&p), None);
        fs.avg = false;
        assert_eq!(fs.first_unsupported(&p), Some("Avg".to_string()));
    }
}
