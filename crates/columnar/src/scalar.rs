//! Scalar values: single cells extracted from arrays, literals in
//! expressions, and group/sort keys. `Scalar` implements total ordering and
//! hashing (floats via `total_cmp`/bit patterns) so it can serve as a
//! hash-table key in group-by and join operators.

use crate::schema::DataType;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// A single dynamically-typed value. `Null` compares less than every
/// non-null value (matching the engines' `NULLS FIRST` default).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Scalar {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 32-bit integer.
    Int32(i32),
    /// 64-bit integer.
    Int64(i64),
    /// 64-bit float.
    Float64(f64),
    /// UTF-8 string.
    Utf8(String),
    /// Days since epoch.
    Date32(i32),
}

impl Scalar {
    /// Logical type of the value, `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Scalar::Null => None,
            Scalar::Bool(_) => Some(DataType::Bool),
            Scalar::Int32(_) => Some(DataType::Int32),
            Scalar::Int64(_) => Some(DataType::Int64),
            Scalar::Float64(_) => Some(DataType::Float64),
            Scalar::Utf8(_) => Some(DataType::Utf8),
            Scalar::Date32(_) => Some(DataType::Date32),
        }
    }

    /// True iff the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Scalar::Null)
    }

    /// Numeric view as f64 (ints widen; bools/strings/null are `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int32(v) | Scalar::Date32(v) => Some(*v as f64),
            Scalar::Int64(v) => Some(*v as f64),
            Scalar::Float64(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view as i64 (i32/date widen; others `None`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Scalar::Int32(v) | Scalar::Date32(v) => Some(*v as i64),
            Scalar::Int64(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Utf8(s) => Some(s),
            _ => None,
        }
    }

    /// Cast to a target type following SQL widening rules. Returns `None`
    /// for unsupported casts.
    pub fn cast(&self, to: DataType) -> Option<Scalar> {
        if self.is_null() {
            return Some(Scalar::Null);
        }
        Some(match (self, to) {
            (Scalar::Int32(v), DataType::Int32) => Scalar::Int32(*v),
            (Scalar::Int32(v), DataType::Int64) => Scalar::Int64(*v as i64),
            (Scalar::Int32(v), DataType::Float64) => Scalar::Float64(*v as f64),
            (Scalar::Int32(v), DataType::Date32) => Scalar::Date32(*v),
            (Scalar::Int64(v), DataType::Int64) => Scalar::Int64(*v),
            (Scalar::Int64(v), DataType::Int32) => Scalar::Int32(i32::try_from(*v).ok()?),
            (Scalar::Int64(v), DataType::Float64) => Scalar::Float64(*v as f64),
            (Scalar::Float64(v), DataType::Float64) => Scalar::Float64(*v),
            (Scalar::Float64(v), DataType::Int64) => Scalar::Int64(*v as i64),
            (Scalar::Date32(v), DataType::Date32) => Scalar::Date32(*v),
            (Scalar::Date32(v), DataType::Int32) => Scalar::Int32(*v),
            (Scalar::Date32(v), DataType::Int64) => Scalar::Int64(*v as i64),
            (Scalar::Utf8(s), DataType::Utf8) => Scalar::Utf8(s.clone()),
            (Scalar::Bool(b), DataType::Bool) => Scalar::Bool(*b),
            _ => return None,
        })
    }

    fn rank(&self) -> u8 {
        match self {
            Scalar::Null => 0,
            Scalar::Bool(_) => 1,
            Scalar::Int32(_) => 2,
            Scalar::Int64(_) => 3,
            Scalar::Float64(_) => 4,
            Scalar::Utf8(_) => 5,
            Scalar::Date32(_) => 6,
        }
    }
}

impl PartialEq for Scalar {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Scalar {}

impl PartialOrd for Scalar {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scalar {
    fn cmp(&self, other: &Self) -> Ordering {
        use Scalar::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Utf8(a), Utf8(b)) => a.cmp(b),
            (Date32(a), Date32(b)) => a.cmp(b),
            // Integers of either width compare exactly, as they hash.
            (Int32(_) | Int64(_), Int32(_) | Int64(_)) => self.as_i64().cmp(&other.as_i64()),
            // Every other numeric pairing (a float on either side, a date
            // against a number) goes through f64.
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                _ => a.rank().cmp(&b.rank()),
            },
        }
    }
}

impl Hash for Scalar {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Scalar::Null => state.write_u8(0),
            Scalar::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Int32/Int64/Date32 that compare equal must hash equal, so all
            // integers hash through i64; floats hash through bits.
            Scalar::Int32(v) => {
                state.write_u8(2);
                (*v as i64).hash(state);
            }
            Scalar::Int64(v) => {
                state.write_u8(2);
                v.hash(state);
            }
            Scalar::Date32(v) => {
                state.write_u8(6);
                v.hash(state);
            }
            Scalar::Float64(v) => {
                state.write_u8(4);
                v.to_bits().hash(state);
            }
            Scalar::Utf8(s) => {
                state.write_u8(5);
                s.hash(state);
            }
        }
    }
}

impl std::fmt::Display for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scalar::Null => f.write_str("NULL"),
            Scalar::Bool(b) => write!(f, "{b}"),
            Scalar::Int32(v) => write!(f, "{v}"),
            Scalar::Int64(v) => write!(f, "{v}"),
            Scalar::Float64(v) => write!(f, "{v:.4}"),
            Scalar::Utf8(s) => f.write_str(s),
            Scalar::Date32(d) => {
                let (y, m, day) = crate::scalar::date32_to_ymd(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Date helpers (proleptic Gregorian; civil-days algorithm)
// ---------------------------------------------------------------------------

/// Days since 1970-01-01 for a calendar date.
pub fn ymd_to_date32(y: i32, m: u32, d: u32) -> i32 {
    // Howard Hinnant's days_from_civil.
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let mp = ((m as i64) + 9) % 12;
    let doy = (153 * mp + 2) / 5 + (d as i64) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Calendar date for days since 1970-01-01.
pub fn date32_to_ymd(days: i32) -> (i32, u32, u32) {
    // Howard Hinnant's civil_from_days.
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// Extract the year of a date32 value.
pub fn date32_year(days: i32) -> i32 {
    date32_to_ymd(days).0
}

/// Add whole months to a date32, clamping the day to the target month's
/// length (SQL `date + interval 'n' month` semantics).
pub fn date32_add_months(days: i32, months: i32) -> i32 {
    let (y, m, d) = date32_to_ymd(days);
    let total = (y as i64) * 12 + (m as i64 - 1) + months as i64;
    let ny = (total.div_euclid(12)) as i32;
    let nm = (total.rem_euclid(12)) as u32 + 1;
    let max_day = days_in_month(ny, nm);
    ymd_to_date32(ny, nm, d.min(max_day))
}

fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => unreachable!("invalid month {m}"),
    }
}

/// Parse `YYYY-MM-DD` into date32; `None` on malformed input.
pub fn parse_date32(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    let y: i32 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&m) || d < 1 || d > days_in_month(y, m) {
        return None;
    }
    Some(ymd_to_date32(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(s: &Scalar) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(ymd_to_date32(1970, 1, 1), 0);
        assert_eq!(date32_to_ymd(0), (1970, 1, 1));
    }

    #[test]
    fn known_tpch_dates() {
        // TPC-H date domain is 1992-01-01 .. 1998-12-31.
        let d = parse_date32("1994-01-01").unwrap();
        assert_eq!(date32_to_ymd(d), (1994, 1, 1));
        assert_eq!(date32_year(d), 1994);
        let later = parse_date32("1995-01-01").unwrap();
        assert_eq!(later - d, 365);
    }

    #[test]
    fn add_months_clamps_day() {
        let jan31 = parse_date32("1996-01-31").unwrap();
        let feb = date32_add_months(jan31, 1);
        assert_eq!(date32_to_ymd(feb), (1996, 2, 29)); // leap year
        let feb97 = date32_add_months(parse_date32("1997-01-31").unwrap(), 1);
        assert_eq!(date32_to_ymd(feb97), (1997, 2, 28));
    }

    #[test]
    fn add_months_crosses_years_backwards() {
        let d = parse_date32("1995-02-15").unwrap();
        assert_eq!(date32_to_ymd(date32_add_months(d, -3)), (1994, 11, 15));
        assert_eq!(date32_to_ymd(date32_add_months(d, 12)), (1996, 2, 15));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_date32("1994-13-01").is_none());
        assert!(parse_date32("1994-02-30").is_none());
        assert!(parse_date32("oops").is_none());
        assert!(parse_date32("1994-01-01-x").is_none());
    }

    #[test]
    fn null_sorts_first() {
        assert!(Scalar::Null < Scalar::Int64(i64::MIN));
        assert!(Scalar::Null < Scalar::Utf8(String::new()));
        assert_eq!(Scalar::Null, Scalar::Null);
    }

    #[test]
    fn cross_width_integers_compare_and_hash_consistently() {
        let a = Scalar::Int32(42);
        let b = Scalar::Int64(42);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert!(Scalar::Int32(1) < Scalar::Int64(2));
    }

    #[test]
    fn wide_integers_compare_exactly() {
        let (a, b) = (Scalar::Int64(1 << 53), Scalar::Int64((1 << 53) + 1));
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(Scalar::Int32(7), Scalar::Int64(7));
        assert!(Scalar::Int32(i32::MAX) < Scalar::Int64(i32::MAX as i64 + 1));
        // Mixed integer / float stays on f64.
        assert_eq!(Scalar::Int64(7), Scalar::Float64(7.0));
    }

    #[test]
    fn equal_integer_scalars_hash_equal() {
        let samples = [
            i64::MIN,
            -1,
            0,
            1,
            7,
            i32::MAX as i64,
            1 << 53,
            (1 << 53) + 1,
        ];
        let scalars: Vec<Scalar> = samples
            .iter()
            .flat_map(|&v| {
                let narrow = i32::try_from(v).ok().map(Scalar::Int32);
                narrow.into_iter().chain([Scalar::Int64(v)])
            })
            .collect();
        for a in &scalars {
            for b in &scalars {
                assert_eq!(a == b, a.as_i64() == b.as_i64(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn float_total_order() {
        assert!(Scalar::Float64(f64::NEG_INFINITY) < Scalar::Float64(0.0));
        assert_eq!(Scalar::Float64(1.5), Scalar::Float64(1.5));
        assert!(Scalar::Float64(1.0) < Scalar::Float64(f64::NAN));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Scalar::Int32(7).cast(DataType::Int64),
            Some(Scalar::Int64(7))
        );
        assert_eq!(
            Scalar::Int64(7).cast(DataType::Float64),
            Some(Scalar::Float64(7.0))
        );
        assert_eq!(Scalar::Utf8("x".into()).cast(DataType::Int32), None);
        assert_eq!(Scalar::Null.cast(DataType::Int32), Some(Scalar::Null));
        assert_eq!(
            Scalar::Int64(i64::MAX).cast(DataType::Int32),
            None,
            "overflowing narrow cast must fail"
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Scalar::Date32(0).to_string(), "1970-01-01");
        assert_eq!(Scalar::Null.to_string(), "NULL");
        assert_eq!(Scalar::Int64(5).to_string(), "5");
    }
}
