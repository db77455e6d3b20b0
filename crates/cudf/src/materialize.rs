//! Late materialization: decode dictionary-encoded string columns back to
//! payload bytes. The engine calls this only at the result sink (and at
//! operators that genuinely need bytes) — everywhere else strings travel
//! as 4-byte codes.

use crate::{GpuContext, Result};
use sirius_columnar::Table;
use sirius_hw::WorkProfile;

/// Decode every dictionary-encoded column of `t`, charging one kernel that
/// reads the codes plus each shared dictionary and writes the decoded
/// payload. Tables without encoded columns pass through untouched (and
/// uncharged — there is nothing to launch).
pub fn materialize_strings(ctx: &GpuContext, t: &Table) -> Result<Table> {
    if !t.has_dict_columns() {
        return Ok(t.clone());
    }
    let encoded_bytes: u64 = t
        .columns()
        .iter()
        .filter(|c| c.is_dict())
        .map(|c| c.byte_size() as u64)
        .sum();
    let dict_bytes = t.dict_byte_size() as u64;
    let out = t.decode_strings();
    let decoded_bytes: u64 = out
        .columns()
        .iter()
        .zip(t.columns())
        .filter(|(_, src)| src.is_dict())
        .map(|(c, _)| c.byte_size() as u64)
        .sum();
    ctx.charge(
        "materialize",
        &WorkProfile::scan(encoded_bytes + decoded_bytes)
            .with_random(dict_bytes)
            .with_rows(t.num_rows() as u64),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx;
    use sirius_columnar::{Array, DataType, Field, Schema};

    #[test]
    fn decodes_and_charges_only_when_encoded() {
        let ctx = test_ctx();
        let t = Table::new(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Array::from_i64([1, 2, 1]),
                Array::from_strs(["ada", "grace", "ada"]).dict_encode(),
            ],
        );
        let out = materialize_strings(&ctx, &t).unwrap();
        assert!(!out.has_dict_columns());
        assert_eq!(out.column(1).utf8_value(1), Some("grace"));
        assert!(ctx.device().elapsed() > std::time::Duration::ZERO);

        let ctx2 = test_ctx();
        let plain = materialize_strings(&ctx2, &out).unwrap();
        assert_eq!(plain, out);
        assert_eq!(ctx2.device().elapsed(), std::time::Duration::ZERO);
    }
}
