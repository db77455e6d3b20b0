//! Element-wise binary kernels with scalar broadcasting.
//!
//! Mirrors libcudf's `binary_operation(column_view|scalar, ...)`: either
//! operand may be a column or a broadcast scalar. Null handling follows SQL:
//! arithmetic and comparisons propagate null; AND/OR use Kleene logic.
//!
//! Each operand is lowered once into a typed *lane* — an `i64`, `f64`,
//! boolean or string view that is either a value slice with the column's
//! validity bitmap or a broadcast constant — and one generic loop per
//! operator family writes the output buffer and its bitmaps directly.
//! Semantics: integer `+ − ×` wrap; `/` is always `Float64` and NULL on a
//! zero divisor; `%` is NULL on zero; comparisons order as `Scalar::cmp`
//! does (integers exactly, anything with a float through `f64::total_cmp`,
//! strings bytewise); a NULL literal adopts the other side's type. A
//! dictionary-encoded column is compared with a literal once per dictionary
//! entry. Outputs carry a validity bitmap iff some row is NULL, and NULL
//! slots hold `0` / `0.0` / `false`.

use crate::{GpuContext, KernelError, Result};
use sirius_columnar::{
    Array, Bitmap, BoolArray, DataType, DictionaryArray, PrimitiveArray, Scalar, StringArray,
};
use sirius_hw::WorkProfile;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Binary operator kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always produces `Float64`).
    Div,
    /// Integer modulo.
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND (Kleene).
    And,
    /// Logical OR (Kleene).
    Or,
}

impl BinaryOp {
    /// True for comparison operators (result type `Bool`).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// True for AND/OR.
    pub fn is_logical(&self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// Result type given operand types; `None` if unsupported.
    pub fn result_type(&self, l: DataType, r: DataType) -> Option<DataType> {
        use DataType::*;
        if self.is_comparison() {
            let comparable =
                l == r || (l.is_numeric() && r.is_numeric()) || matches!((l, r), (Date32, Date32));
            return comparable.then_some(Bool);
        }
        if self.is_logical() {
            return (l == Bool && r == Bool).then_some(Bool);
        }
        match self {
            BinaryOp::Div => (l.is_numeric() && r.is_numeric()).then_some(Float64),
            BinaryOp::Mod => match (l, r) {
                (Int32 | Int64, Int32 | Int64) => Some(Int64),
                _ => None,
            },
            _ => match (l, r) {
                (Float64, _) | (_, Float64) if l.is_numeric() && r.is_numeric() => Some(Float64),
                (Int32 | Int64, Int32 | Int64) => Some(Int64),
                // date +/- integer days
                (Date32, Int32 | Int64) if matches!(self, BinaryOp::Add | BinaryOp::Sub) => {
                    Some(Date32)
                }
                (Date32, Date32) if matches!(self, BinaryOp::Sub) => Some(Int64),
                _ => None,
            },
        }
    }
}

/// A kernel operand: a column or a broadcast scalar.
#[derive(Debug, Clone)]
pub enum Datum<'a> {
    /// Column operand.
    Column(&'a Array),
    /// Broadcast scalar operand.
    Scalar(Scalar),
}

impl<'a> Datum<'a> {
    /// Element `i` (the scalar for broadcast operands).
    pub fn value(&self, i: usize) -> Scalar {
        match self {
            Datum::Column(a) => a.scalar(i),
            Datum::Scalar(s) => s.clone(),
        }
    }

    /// The operand's logical type, `None` for a NULL literal.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Column(a) => Some(a.data_type()),
            Datum::Scalar(s) => s.data_type(),
        }
    }

    /// Bytes this operand contributes to the kernel's memory traffic.
    pub fn byte_size(&self) -> u64 {
        match self {
            Datum::Column(a) => a.byte_size() as u64,
            Datum::Scalar(_) => 0,
        }
    }
}

/// A numeric operand lowered for a typed loop: the column's values (widened
/// once when the lane is wider than the storage) with its validity bitmap,
/// or a broadcast constant (`None` for a NULL literal).
pub(crate) enum Lane<'a, T: Copy> {
    Col(Cow<'a, [T]>, Option<&'a Bitmap>),
    Const(Option<T>),
}

impl<'a, T: Copy> Lane<'a, T> {
    fn widened<S: Copy>(a: &'a PrimitiveArray<S>, widen: impl Fn(S) -> T) -> Self {
        Lane::Col(a.values().iter().map(|&v| widen(v)).collect(), a.validity())
    }

    /// Rows where the operand is non-NULL; `None` when every row is.
    pub(crate) fn valid(&self, n: usize) -> Option<Bitmap> {
        match self {
            Lane::Col(_, validity) => validity.cloned(),
            Lane::Const(Some(_)) => None,
            Lane::Const(None) => Some(Bitmap::all_clear(n)),
        }
    }
}

/// A scalar's value in the integer lane, which also carries booleans (as
/// 0 / 1) so that they compare there.
fn int_of(s: &Scalar) -> Option<i64> {
    s.as_i64().or(s.as_bool().map(i64::from))
}

/// Integer lane (`Int32`, `Int64`, `Date32`, `Bool`); anything else reads
/// as NULL.
pub(crate) fn int_lane<'a>(d: &Datum<'a>) -> Lane<'a, i64> {
    match d {
        Datum::Scalar(s) => Lane::Const(int_of(s)),
        Datum::Column(Array::Int64(a)) => Lane::Col(Cow::Borrowed(a.values()), a.validity()),
        Datum::Column(Array::Int32(a) | Array::Date32(a)) => Lane::widened(a, i64::from),
        Datum::Column(Array::Bool(a)) => {
            Lane::Col(a.values().iter().map(i64::from).collect(), a.validity())
        }
        Datum::Column(_) => Lane::Const(None),
    }
}

/// Float lane (any numeric or date, as `Scalar::as_f64` widens them).
pub(crate) fn float_lane<'a>(d: &Datum<'a>) -> Lane<'a, f64> {
    match d {
        Datum::Scalar(s) => Lane::Const(s.as_f64()),
        Datum::Column(Array::Float64(a)) => Lane::Col(Cow::Borrowed(a.values()), a.validity()),
        Datum::Column(Array::Int64(a)) => Lane::widened(a, |v| v as f64),
        Datum::Column(Array::Int32(a) | Array::Date32(a)) => Lane::widened(a, f64::from),
        Datum::Column(_) => Lane::Const(None),
    }
}

/// Apply `f` to every row of one lane, collecting a `Vec` or a `Bitmap`.
/// Rows of a NULL constant yield `U::default()`.
fn map<T: Copy, U: Clone + Default, C: FromIterator<U>>(
    lane: &Lane<'_, T>,
    n: usize,
    f: impl Fn(T) -> U,
) -> C {
    match lane {
        Lane::Col(a, _) => a.iter().map(|&x| f(x)).collect(),
        Lane::Const(c) => std::iter::repeat_n(c.map(f).unwrap_or_default(), n).collect(),
    }
}

/// Apply `f` to every row pair of two lanes: the one place the three
/// broadcast forms are spelled out.
fn zip<T: Copy, U: Clone + Default, C: FromIterator<U>>(
    l: &Lane<'_, T>,
    r: &Lane<'_, T>,
    n: usize,
    f: impl Fn(T, T) -> U,
) -> C {
    match (l, r) {
        (Lane::Col(a, _), Lane::Col(b, _)) => {
            a.iter().zip(b.iter()).map(|(&x, &y)| f(x, y)).collect()
        }
        (Lane::Col(_, _), Lane::Const(Some(y))) => map(l, n, |x| f(x, *y)),
        (Lane::Const(Some(x)), _) => map(r, n, |y| f(*x, y)),
        _ => std::iter::repeat_n(U::default(), n).collect(),
    }
}

fn and_valid(a: Option<Bitmap>, b: Option<Bitmap>) -> Option<Bitmap> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.and(&b)),
        (a, b) => a.or(b),
    }
}

/// A string operand: plain column, dictionary column, or literal. A
/// non-string operand reads as NULL in every row.
enum StrLane<'a> {
    Plain(&'a StringArray),
    Dict(&'a DictionaryArray),
    Const(Option<&'a str>),
}

impl<'a> StrLane<'a> {
    fn of(d: &'a Datum<'_>) -> Self {
        match d {
            Datum::Column(Array::Utf8(a)) => StrLane::Plain(a),
            Datum::Column(Array::Dict(a)) => StrLane::Dict(a),
            Datum::Column(_) => StrLane::Const(None),
            Datum::Scalar(s) => StrLane::Const(s.as_str()),
        }
    }

    fn get(&self, i: usize) -> Option<&'a str> {
        match self {
            StrLane::Plain(a) => a.value(i),
            StrLane::Dict(a) => a.value(i),
            StrLane::Const(c) => *c,
        }
    }

    fn valid(&self, n: usize) -> Option<Bitmap> {
        match self {
            StrLane::Plain(a) => a.validity().cloned(),
            StrLane::Dict(a) => a.validity().cloned(),
            StrLane::Const(Some(_)) => None,
            StrLane::Const(None) => Some(Bitmap::all_clear(n)),
        }
    }

    /// `pred` of every row (false for NULL). A dictionary column evaluates
    /// it once per dictionary entry and maps each row through its code.
    fn test(&self, n: usize, mut pred: impl FnMut(&str) -> bool) -> Bitmap {
        match self {
            StrLane::Dict(d) => {
                let entries = d.values();
                let hits: Vec<bool> = (0..entries.len())
                    .map(|e| entries.value(e).is_some_and(&mut pred))
                    .collect();
                let hit = |&c: &i32| hits.get(c as usize).copied().unwrap_or(false);
                Bitmap::from_iter(d.codes().iter().map(hit))
            }
            _ => Bitmap::from_iter((0..n).map(|i| self.get(i).is_some_and(&mut pred))),
        }
    }
}

/// A boolean operand as two bit sets: rows known true, rows known false
/// (NULL rows are in neither).
fn truth(d: &Datum<'_>, n: usize) -> (Bitmap, Bitmap) {
    match d {
        Datum::Column(Array::Bool(a)) => {
            let not = a.values().not();
            (
                a.to_selection(),
                a.validity().map_or(not.clone(), |v| not.and(v)),
            )
        }
        Datum::Column(_) => (Bitmap::all_clear(n), Bitmap::all_clear(n)),
        Datum::Scalar(s) => {
            let bits = |on| {
                if on {
                    Bitmap::all_set(n)
                } else {
                    Bitmap::all_clear(n)
                }
            };
            (
                bits(s.as_bool() == Some(true)),
                bits(s.as_bool() == Some(false)),
            )
        }
    }
}

/// The lane in which `Scalar::cmp` compares non-NULL values of two types;
/// `None` when such values never compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpLane {
    Int,
    Float,
    Str,
}

fn cmp_lane(l: DataType, r: DataType) -> Option<CmpLane> {
    use DataType::*;
    Some(match (l, r) {
        (Int32 | Int64, Int32 | Int64) | (Date32, Date32) | (Bool, Bool) => CmpLane::Int,
        (Utf8, Utf8) => CmpLane::Str,
        (Int32 | Int64 | Float64 | Date32, Int32 | Int64 | Float64 | Date32) => CmpLane::Float,
        _ => return None,
    })
}

/// The test a comparison operator applies to an ordering.
fn ordering_test(op: BinaryOp) -> fn(Ordering) -> bool {
    match op {
        BinaryOp::Eq => Ordering::is_eq,
        BinaryOp::Ne => Ordering::is_ne,
        BinaryOp::Lt => Ordering::is_lt,
        BinaryOp::Le => Ordering::is_le,
        BinaryOp::Gt => Ordering::is_gt,
        _ => Ordering::is_ge,
    }
}

/// Numeric comparison: one monomorphic loop per operator.
fn compare_lanes<T: Copy>(
    op: BinaryOp,
    l: &Lane<'_, T>,
    r: &Lane<'_, T>,
    n: usize,
    cmp: impl Fn(T, T) -> Ordering + Copy,
) -> Array {
    let values: Bitmap = match op {
        BinaryOp::Eq => zip(l, r, n, |a, b| cmp(a, b).is_eq()),
        BinaryOp::Ne => zip(l, r, n, |a, b| cmp(a, b).is_ne()),
        BinaryOp::Lt => zip(l, r, n, |a, b| cmp(a, b).is_lt()),
        BinaryOp::Le => zip(l, r, n, |a, b| cmp(a, b).is_le()),
        BinaryOp::Gt => zip(l, r, n, |a, b| cmp(a, b).is_gt()),
        _ => zip(l, r, n, |a, b| cmp(a, b).is_ge()),
    };
    Array::Bool(BoolArray::from_parts(
        values,
        and_valid(l.valid(n), r.valid(n)),
    ))
}

fn compare(op: BinaryOp, lane: CmpLane, left: &Datum<'_>, right: &Datum<'_>, n: usize) -> Array {
    match lane {
        CmpLane::Int => compare_lanes(op, &int_lane(left), &int_lane(right), n, |a, b| a.cmp(&b)),
        CmpLane::Float => {
            let cmp = |a: f64, b: f64| a.total_cmp(&b);
            compare_lanes(op, &float_lane(left), &float_lane(right), n, cmp)
        }
        CmpLane::Str => {
            let (l, r) = (StrLane::of(left), StrLane::of(right));
            let test = ordering_test(op);
            let values =
                match (&l, &r) {
                    (_, StrLane::Const(Some(c))) => l.test(n, |s| test(s.cmp(c))),
                    (StrLane::Const(Some(c)), _) => r.test(n, |s| test((*c).cmp(s))),
                    _ => Bitmap::from_iter((0..n).map(
                        |i| matches!((l.get(i), r.get(i)), (Some(a), Some(b)) if test(a.cmp(b))),
                    )),
                };
            Array::Bool(BoolArray::from_parts(
                values,
                and_valid(l.valid(n), r.valid(n)),
            ))
        }
    }
}

/// Kleene AND / OR over known-true / known-false bit sets.
fn logical(op: BinaryOp, left: &Datum<'_>, right: &Datum<'_>, n: usize) -> Array {
    let ((lt, lf), (rt, rf)) = (truth(left, n), truth(right, n));
    let (t, f) = match op {
        BinaryOp::And => (lt.and(&rt), lf.or(&rf)),
        _ => (lt.or(&rt), lf.and(&rf)),
    };
    let valid = t.or(&f);
    Array::Bool(BoolArray::from_parts(t, Some(valid)))
}

fn arith(op: BinaryOp, out: DataType, left: &Datum<'_>, right: &Datum<'_>, n: usize) -> Array {
    fn of<T: Copy + Default>(
        l: &Lane<'_, T>,
        r: &Lane<'_, T>,
        n: usize,
        divisor_ok: Option<Bitmap>,
        f: impl Fn(T, T) -> T,
    ) -> PrimitiveArray<T> {
        let valid = and_valid(and_valid(l.valid(n), r.valid(n)), divisor_ok);
        PrimitiveArray::from_parts(zip(l, r, n, f), valid)
    }
    match (op, out) {
        (BinaryOp::Div, _) => {
            let (l, r) = (float_lane(left), float_lane(right));
            let nonzero = map(&r, n, |b| b != 0.0);
            Array::Float64(of(&l, &r, n, Some(nonzero), |a, b| a / b))
        }
        (BinaryOp::Mod, _) => {
            let (l, r) = (int_lane(left), int_lane(right));
            let nonzero = map(&r, n, |b| b != 0);
            Array::Int64(of(&l, &r, n, Some(nonzero), |a, b| {
                a.checked_rem(b).unwrap_or(0)
            }))
        }
        (_, DataType::Float64) => {
            let (l, r) = (float_lane(left), float_lane(right));
            Array::Float64(match op {
                BinaryOp::Add => of(&l, &r, n, None, |a, b| a + b),
                BinaryOp::Sub => of(&l, &r, n, None, |a, b| a - b),
                _ => of(&l, &r, n, None, |a, b| a * b),
            })
        }
        _ => {
            let (l, r) = (int_lane(left), int_lane(right));
            let ints = match op {
                BinaryOp::Add => of(&l, &r, n, None, i64::wrapping_add),
                BinaryOp::Sub => of(&l, &r, n, None, i64::wrapping_sub),
                _ => of(&l, &r, n, None, i64::wrapping_mul),
            };
            match out {
                // Date ± days: truncate back to the 32-bit day count.
                DataType::Date32 => Array::Date32(PrimitiveArray::from_parts(
                    ints.values().iter().map(|&v| v as i32).collect(),
                    ints.validity().cloned(),
                )),
                _ => Array::Int64(ints),
            }
        }
    }
}

/// A column operand must hold exactly the rows the kernel was asked for.
fn check_rows(d: &Datum<'_>, num_rows: usize) -> Result<()> {
    match d {
        Datum::Column(a) if a.len() != num_rows => Err(KernelError::UnsupportedTypes(format!(
            "operand has {} rows, kernel launched over {num_rows}",
            a.len()
        ))),
        _ => Ok(()),
    }
}

/// Element-wise binary kernel over `num_rows` rows.
pub fn binary_op(
    ctx: &GpuContext,
    op: BinaryOp,
    left: &Datum<'_>,
    right: &Datum<'_>,
    num_rows: usize,
) -> Result<Array> {
    // A NULL literal operand adopts the other side's type for typing.
    let lt = left
        .data_type()
        .or(right.data_type())
        .unwrap_or(DataType::Bool);
    let rt = right.data_type().unwrap_or(lt);
    let unsupported = || KernelError::UnsupportedTypes(format!("{op:?} on ({lt}, {rt})"));
    let out_type = op.result_type(lt, rt).ok_or_else(unsupported)?;
    check_rows(left, num_rows)?;
    check_rows(right, num_rows)?;

    let result = if op.is_comparison() {
        let lane = cmp_lane(lt, rt).ok_or_else(unsupported)?;
        compare(op, lane, left, right, num_rows)
    } else if op.is_logical() {
        logical(op, left, right, num_rows)
    } else {
        arith(op, out_type, left, right, num_rows)
    };

    ctx.charge_named(
        "binary.op",
        &WorkProfile::scan(left.byte_size() + right.byte_size())
            .with_streamed(result.byte_size() as u64)
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(result)
}

/// SQL `LIKE` pattern match (`%` any run, `_` any single char). Returns a
/// `Bool` column; nulls propagate.
pub fn like(
    ctx: &GpuContext,
    input: &Datum<'_>,
    pattern: &str,
    negated: bool,
    num_rows: usize,
) -> Result<Array> {
    check_rows(input, num_rows)?;
    let pat: Vec<char> = pattern.chars().collect();
    let lane = StrLane::of(input);
    let ascii_pattern = pattern.is_ascii();
    let mut text: Vec<char> = Vec::new();
    let values = lane.test(num_rows, |s| {
        // ASCII text is its own character array.
        let hit = if ascii_pattern && s.is_ascii() {
            like_match(s.as_bytes(), pattern.as_bytes(), b'%', b'_')
        } else {
            text.clear();
            text.extend(s.chars());
            like_match(&text, &pat, '%', '_')
        };
        hit != negated
    });
    // A dictionary column matches the pattern once per dictionary entry
    // (see `StrLane::test`): the charge reads the dictionary payload once
    // plus the codes, instead of every row's decoded bytes.
    let work = match input {
        Datum::Column(Array::Dict(d)) => {
            WorkProfile::scan(d.dict_byte_size() as u64 + d.byte_size() as u64)
                .with_flops((d.values().len() * pattern.len().max(1) + num_rows) as u64)
        }
        _ => WorkProfile::scan(input.byte_size())
            .with_flops((num_rows * pattern.len().max(1)) as u64),
    };
    ctx.charge_named("binary.like", &work.with_rows(num_rows as u64));
    Ok(Array::Bool(BoolArray::from_parts(
        values,
        lane.valid(num_rows),
    )))
}

/// Greedy-with-backtracking LIKE matcher (iterative, linear in practice).
fn like_match<T: Copy + PartialEq>(s: &[T], p: &[T], any_run: T, any_one: T) -> bool {
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s): (Option<usize>, usize) = (None, 0);
    while si < s.len() {
        if pi < p.len() && (p[pi] == any_one || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == any_run {
            star_p = Some(pi);
            star_s = si;
            pi += 1;
        } else if let Some(sp) = star_p {
            pi = sp + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == any_run {
        pi += 1;
    }
    pi == p.len()
}

/// `expr IN (literal, ...)` kernel: the OR of one equality comparison per
/// list entry, so a row matches an entry exactly when `Scalar::eq` holds
/// between them. NULL entries, and entries of a type the input never equals,
/// match nothing.
pub fn in_list(
    ctx: &GpuContext,
    input: &Datum<'_>,
    list: &[Scalar],
    negated: bool,
    num_rows: usize,
) -> Result<Array> {
    check_rows(input, num_rows)?;
    let mut hits = Bitmap::all_clear(num_rows);
    for entry in list {
        let types = input.data_type().zip(entry.data_type());
        if let Some(lane) = types.and_then(|(t, e)| cmp_lane(t, e)) {
            let entry = Datum::Scalar(entry.clone());
            let eq = compare(BinaryOp::Eq, lane, input, &entry, num_rows);
            hits = hits.or(&eq.as_bool()?.to_selection());
        }
    }
    ctx.charge_named(
        "binary.in_list",
        &WorkProfile::scan(input.byte_size())
            .with_flops((num_rows * list.len().max(1)) as u64)
            .with_rows(num_rows as u64),
    );
    let valid = match input {
        Datum::Column(a) => a.validity().cloned(),
        Datum::Scalar(s) => s.is_null().then(|| Bitmap::all_clear(num_rows)),
    };
    let values = if negated { hits.not() } else { hits };
    Ok(Array::Bool(BoolArray::from_parts(values, valid)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, same_values, Gen, Kind, KINDS};
    use crate::test_ctx;
    use proptest::prelude::*;

    const OPS: [BinaryOp; 13] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Mod,
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::And,
        BinaryOp::Or,
    ];

    /// Row counts on both sides of the bitmap word boundary.
    const ROWS: [usize; 7] = [0, 1, 5, 63, 64, 65, 130];

    /// An operand in one of three forms: column, broadcast scalar, NULL.
    fn operand(g: &mut Gen, kind: Kind, rows: usize) -> (Option<Array>, Scalar) {
        match g.below(4) {
            0 => (None, g.scalar(kind)),
            1 => (None, Scalar::Null),
            _ => {
                let nulls = g.below(2) == 0;
                (Some(g.column(kind, rows, nulls)), Scalar::Null)
            }
        }
    }

    fn datum(operand: &(Option<Array>, Scalar)) -> Datum<'_> {
        match operand {
            (Some(column), _) => Datum::Column(column),
            (None, scalar) => Datum::Scalar(scalar.clone()),
        }
    }

    fn same_column(got: &Array, expected: &Array) -> std::result::Result<(), TestCaseError> {
        prop_assert!(same_values(got, expected), "{:?} vs {:?}", got, expected);
        prop_assert_eq!(got.byte_size(), expected.byte_size());
        Ok(())
    }

    proptest! {
        /// Every operator over every pair of column kinds, each operand a
        /// column (with or without NULLs), a broadcast scalar or a NULL
        /// literal: values, `byte_size()`, errors and the charged device
        /// time against the per-row `Scalar` implementation.
        #[test]
        fn prop_binary_op_matches_the_scalar_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&ROWS);
            for op in OPS {
                for lk in KINDS {
                    for rk in KINDS {
                        let (l, r) = (operand(&mut g, lk, rows), operand(&mut g, rk, rows));
                        let (ctx, ref_ctx) = (test_ctx(), test_ctx());
                        let got = binary_op(&ctx, op, &datum(&l), &datum(&r), rows);
                        let expected =
                            reference::binary_op(&ref_ctx, op, &datum(&l), &datum(&r), rows);
                        match (got, expected) {
                            (Ok(got), Ok(expected)) => same_column(&got, &expected)?,
                            (Err(got), Err(expected)) => prop_assert_eq!(got, expected),
                            (got, expected) => prop_assert!(
                                false,
                                "{:?} on {:?} / {:?}: {:?} vs {:?}", op, l, r, got, expected
                            ),
                        }
                        prop_assert_eq!(ctx.device().elapsed(), ref_ctx.device().elapsed());
                    }
                }
            }
        }

        #[test]
        fn prop_in_list_matches_the_scalar_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&ROWS);
            for kind in KINDS {
                let input = operand(&mut g, kind, rows);
                let list: Vec<Scalar> = (0..g.below(5))
                    .map(|_| match g.below(6) {
                        0 => Scalar::Null,
                        // Mostly the input's own kind, so that entries hit.
                        1 => { let other = g.pick(&KINDS); g.scalar(other) }
                        _ => g.scalar(kind),
                    })
                    .collect();
                for negated in [false, true] {
                    let got = in_list(&test_ctx(), &datum(&input), &list, negated, rows).unwrap();
                    same_column(&got, &reference::in_list(&datum(&input), &list, negated, rows))?;
                }
            }
        }

        #[test]
        fn prop_like_matches_the_scalar_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&ROWS);
            let patterns = ["", "%", "_", "a%", "%b", "a_", "%a%", "PROMO%", "na_ve", "a\0"];
            for kind in [Kind::Utf8, Kind::Dict, Kind::Int64] {
                let input = operand(&mut g, kind, rows);
                let pattern = g.pick(&patterns);
                for negated in [false, true] {
                    let got = like(&test_ctx(), &datum(&input), pattern, negated, rows).unwrap();
                    same_column(&got, &reference::like(&datum(&input), pattern, negated, rows))?;
                }
            }
        }
    }

    #[test]
    fn wrapping_overflow_and_zero_divisors() {
        let ctx = test_ctx();
        let a = Array::from_i64([i64::MAX, i64::MIN, 5]);
        let b = Array::from_i64([1, -1, 0]);
        let run = |op| binary_op(&ctx, op, &col(&a), &col(&b), 3).unwrap();
        assert_eq!(run(BinaryOp::Add).i64_value(0), Some(i64::MIN));
        assert_eq!(run(BinaryOp::Mul).i64_value(1), Some(i64::MIN));
        // `i64::MIN % -1` overflows in hardware; here it is 0, and NULL on 0.
        assert_eq!(run(BinaryOp::Mod).i64_value(1), Some(0));
        assert_eq!(run(BinaryOp::Mod).scalar(2), Scalar::Null);
        assert_eq!(run(BinaryOp::Div).scalar(2), Scalar::Null);
    }

    #[test]
    fn operands_must_hold_the_launched_rows() {
        let ctx = test_ctx();
        let a = Array::from_i64([1, 2, 3]);
        let one = Datum::Scalar(Scalar::Int64(1));
        assert!(binary_op(&ctx, BinaryOp::Add, &col(&a), &one, 2).is_err());
        assert!(in_list(&ctx, &col(&a), &[], false, 4).is_err());
    }

    fn col(a: &Array) -> Datum<'_> {
        Datum::Column(a)
    }

    #[test]
    fn integer_arithmetic_promotes_to_i64() {
        let ctx = test_ctx();
        let a = Array::from_i32([1, 2, 3]);
        let b = Array::from_i64([10, 20, 30]);
        let r = binary_op(&ctx, BinaryOp::Add, &col(&a), &col(&b), 3).unwrap();
        assert_eq!(r.data_type(), DataType::Int64);
        assert_eq!(r.i64_value(2), Some(33));
    }

    #[test]
    fn float_arithmetic() {
        let ctx = test_ctx();
        let a = Array::from_f64([1.5, 2.5]);
        let r = binary_op(
            &ctx,
            BinaryOp::Mul,
            &col(&a),
            &Datum::Scalar(Scalar::Float64(2.0)),
            2,
        )
        .unwrap();
        assert_eq!(r.f64_value(1), Some(5.0));
    }

    #[test]
    fn division_always_float_and_null_on_zero() {
        let ctx = test_ctx();
        let a = Array::from_i64([6, 7]);
        let b = Array::from_i64([3, 0]);
        let r = binary_op(&ctx, BinaryOp::Div, &col(&a), &col(&b), 2).unwrap();
        assert_eq!(r.data_type(), DataType::Float64);
        assert_eq!(r.f64_value(0), Some(2.0));
        assert_eq!(r.scalar(1), Scalar::Null);
    }

    #[test]
    fn comparisons_across_numeric_widths() {
        let ctx = test_ctx();
        let a = Array::from_i32([1, 5]);
        let r = binary_op(
            &ctx,
            BinaryOp::Lt,
            &col(&a),
            &Datum::Scalar(Scalar::Int64(3)),
            2,
        )
        .unwrap();
        assert_eq!(r.scalar(0), Scalar::Bool(true));
        assert_eq!(r.scalar(1), Scalar::Bool(false));
    }

    #[test]
    fn date_compare_and_arith() {
        let ctx = test_ctx();
        let d = Array::from_date32([100, 200]);
        let r = binary_op(
            &ctx,
            BinaryOp::Ge,
            &col(&d),
            &Datum::Scalar(Scalar::Date32(150)),
            2,
        )
        .unwrap();
        assert_eq!(r.scalar(0), Scalar::Bool(false));
        assert_eq!(r.scalar(1), Scalar::Bool(true));
        let plus = binary_op(
            &ctx,
            BinaryOp::Add,
            &col(&d),
            &Datum::Scalar(Scalar::Int64(7)),
            2,
        )
        .unwrap();
        assert_eq!(plus.data_type(), DataType::Date32);
        assert_eq!(plus.i64_value(0), Some(107));
    }

    #[test]
    fn kleene_logic() {
        let ctx = test_ctx();
        let t = Array::from_bool([true, false]);
        let n = Array::from_scalar(&Scalar::Null, DataType::Bool, 2);
        let and = binary_op(&ctx, BinaryOp::And, &col(&t), &col(&n), 2).unwrap();
        assert_eq!(and.scalar(0), Scalar::Null); // true AND null
        assert_eq!(and.scalar(1), Scalar::Bool(false)); // false AND null
        let or = binary_op(&ctx, BinaryOp::Or, &col(&t), &col(&n), 2).unwrap();
        assert_eq!(or.scalar(0), Scalar::Bool(true)); // true OR null
        assert_eq!(or.scalar(1), Scalar::Null); // false OR null
    }

    #[test]
    fn null_propagation_in_comparison() {
        let ctx = test_ctx();
        let a = Array::from_i64([1]);
        let r = binary_op(
            &ctx,
            BinaryOp::Eq,
            &col(&a),
            &Datum::Scalar(Scalar::Null),
            1,
        )
        .unwrap();
        assert_eq!(r.scalar(0), Scalar::Null);
    }

    #[test]
    fn unsupported_types_error() {
        let ctx = test_ctx();
        let a = Array::from_strs(["x"]);
        let err = binary_op(
            &ctx,
            BinaryOp::Add,
            &col(&a),
            &Datum::Scalar(Scalar::Int64(1)),
            1,
        );
        assert!(matches!(err, Err(KernelError::UnsupportedTypes(_))));
    }

    #[test]
    fn like_patterns() {
        let ctx = test_ctx();
        let s = Array::from_strs(["PROMO BURNISHED", "STANDARD", "forest green tin"]);
        let r = like(&ctx, &col(&s), "PROMO%", false, 3).unwrap();
        assert_eq!(r.scalar(0), Scalar::Bool(true));
        assert_eq!(r.scalar(1), Scalar::Bool(false));
        let mid = like(&ctx, &col(&s), "%green%", false, 3).unwrap();
        assert_eq!(mid.scalar(2), Scalar::Bool(true));
        let under = like(&ctx, &col(&s), "STAND_RD", false, 3).unwrap();
        assert_eq!(under.scalar(1), Scalar::Bool(true));
        let neg = like(&ctx, &col(&s), "%BURNISHED", true, 3).unwrap();
        assert_eq!(neg.scalar(0), Scalar::Bool(false));
    }

    #[test]
    fn like_multiple_wildcards() {
        let ctx = test_ctx();
        let s = Array::from_strs(["wake special packages requests", "plain"]);
        let r = like(&ctx, &col(&s), "%special%requests%", false, 2).unwrap();
        assert_eq!(r.scalar(0), Scalar::Bool(true));
        assert_eq!(r.scalar(1), Scalar::Bool(false));
    }

    #[test]
    fn in_list_kernel() {
        let ctx = test_ctx();
        let s = Array::from_strs(["a", "b", "c"]);
        let r = in_list(
            &ctx,
            &col(&s),
            &[Scalar::Utf8("a".into()), Scalar::Utf8("c".into())],
            false,
            3,
        )
        .unwrap();
        assert_eq!(r.scalar(0), Scalar::Bool(true));
        assert_eq!(r.scalar(1), Scalar::Bool(false));
        assert_eq!(r.scalar(2), Scalar::Bool(true));
    }

    #[test]
    fn charges_device_time() {
        let ctx = test_ctx();
        let before = ctx.device().elapsed();
        let a = Array::from_i64(0..1000);
        binary_op(&ctx, BinaryOp::Add, &col(&a), &col(&a), 1000).unwrap();
        assert!(ctx.device().elapsed() > before);
    }
}
