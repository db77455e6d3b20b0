//! Ungrouped reductions (whole-column aggregates).

use crate::groupby::{accumulate, agg_type, AggRequest};
use crate::{GpuContext, Result};
use sirius_columnar::ops::AggFunc;
use sirius_columnar::{Array, Scalar};
use sirius_hw::WorkProfile;

/// Reduce a column with one aggregate over `num_rows` input rows
/// (`num_rows` matters only for `CountStar`, whose input is absent). SQL
/// semantics over zero rows: `COUNT` variants return 0, everything else
/// returns NULL.
pub fn reduce(
    ctx: &GpuContext,
    kind: AggFunc,
    input: Option<&Array>,
    num_rows: usize,
) -> Result<Scalar> {
    debug_assert!(input.map(|c| c.len() == num_rows).unwrap_or(true));
    let bytes = input.map(|c| c.byte_size() as u64).unwrap_or(0);
    ctx.charge(
        "reduce.scalar",
        &WorkProfile::scan(bytes)
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );

    let request = AggRequest { kind, input };
    let out_type = agg_type(&request)?;
    // The grouped accumulators over one group that holds every row.
    let one_group = vec![0u32; num_rows];
    let column = accumulate(&request, out_type, &one_group, 1)?;
    Ok(column.scalar(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx;
    use sirius_columnar::DataType;

    #[test]
    fn basic_reductions() {
        let ctx = test_ctx();
        let a = Array::from_i64([3, 1, 2]);
        assert_eq!(
            reduce(&ctx, AggFunc::Sum, Some(&a), a.len()).unwrap(),
            Scalar::Int64(6)
        );
        assert_eq!(
            reduce(&ctx, AggFunc::Min, Some(&a), a.len()).unwrap(),
            Scalar::Int64(1)
        );
        assert_eq!(
            reduce(&ctx, AggFunc::Max, Some(&a), a.len()).unwrap(),
            Scalar::Int64(3)
        );
        assert_eq!(
            reduce(&ctx, AggFunc::Avg, Some(&a), a.len()).unwrap(),
            Scalar::Float64(2.0)
        );
        assert_eq!(
            reduce(&ctx, AggFunc::CountStar, Some(&a), a.len()).unwrap(),
            Scalar::Int64(3)
        );
    }

    #[test]
    fn empty_input_semantics() {
        let ctx = test_ctx();
        let a = Array::from_i64([]);
        assert_eq!(
            reduce(&ctx, AggFunc::Sum, Some(&a), a.len()).unwrap(),
            Scalar::Null
        );
        assert_eq!(
            reduce(&ctx, AggFunc::Avg, Some(&a), a.len()).unwrap(),
            Scalar::Null
        );
        assert_eq!(
            reduce(&ctx, AggFunc::Min, Some(&a), a.len()).unwrap(),
            Scalar::Null
        );
        assert_eq!(
            reduce(&ctx, AggFunc::Count, Some(&a), a.len()).unwrap(),
            Scalar::Int64(0)
        );
    }

    #[test]
    fn nulls_skipped() {
        let ctx = test_ctx();
        let a = Array::from_scalars(
            &[Scalar::Int64(5), Scalar::Null, Scalar::Int64(7)],
            DataType::Int64,
        );
        assert_eq!(
            reduce(&ctx, AggFunc::Sum, Some(&a), a.len()).unwrap(),
            Scalar::Int64(12)
        );
        assert_eq!(
            reduce(&ctx, AggFunc::Count, Some(&a), a.len()).unwrap(),
            Scalar::Int64(2)
        );
        assert_eq!(
            reduce(&ctx, AggFunc::Avg, Some(&a), a.len()).unwrap(),
            Scalar::Float64(6.0)
        );
    }

    #[test]
    fn count_distinct() {
        let ctx = test_ctx();
        let a = Array::from_strs(["x", "y", "x"]);
        assert_eq!(
            reduce(&ctx, AggFunc::CountDistinct, Some(&a), a.len()).unwrap(),
            Scalar::Int64(2)
        );
    }

    #[test]
    fn float_sum() {
        let ctx = test_ctx();
        let a = Array::from_f64([0.5, 0.25]);
        assert_eq!(
            reduce(&ctx, AggFunc::Sum, Some(&a), a.len()).unwrap(),
            Scalar::Float64(0.75)
        );
    }
}
