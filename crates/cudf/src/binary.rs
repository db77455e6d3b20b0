//! Element-wise binary kernels with scalar broadcasting.
//!
//! Mirrors libcudf's `binary_operation(column_view|scalar, ...)`: either
//! operand may be a column or a broadcast scalar. Null handling follows SQL:
//! arithmetic and comparisons propagate null; AND/OR use Kleene logic. The
//! operators are the plan's own [`BinOp`]s, and a launch is typed by
//! [`BinOp::result_type`], the rule plan validation applies.
//!
//! Every operand is read in place at its stored width — an `Int32` or
//! `Date32` column as `i32`, `Int64` as `i64`, `Float64` as `f64`, a boolean
//! column as its bitmap, a string column through its offsets or its
//! dictionary — and a literal is converted once. One generic loop per
//! operator and pair of widths widens each element into the `i64` or `f64`
//! *lane* in registers and writes the output values, or its bitmap 64 rows a
//! word; no operand is copied first.
//! Semantics: integer `+ − ×` wrap; `/` is always `Float64` and NULL on a
//! zero divisor; `%` is NULL on zero; comparisons order as `Scalar::cmp`
//! does (integers exactly, anything with a float through `f64::total_cmp`,
//! strings bytewise); a NULL literal adopts the other side's type. A
//! dictionary-encoded column is compared with a literal, matched by `LIKE`
//! and tested by `IN` once per dictionary entry. Outputs carry a validity
//! bitmap iff some row is NULL, and NULL slots hold `0` / `0.0` / `false`.

use crate::{GpuContext, KernelError, Result};
use sirius_columnar::ops::BinOp;
use sirius_columnar::{
    Array, Bitmap, BoolArray, DataType, DictionaryArray, PrimitiveArray, Scalar, StringArray,
};
use sirius_hw::WorkProfile;
use std::cmp::Ordering;

/// A kernel operand: a column or a broadcast scalar.
#[derive(Debug, Clone)]
pub enum Datum<'a> {
    /// Column operand.
    Column(&'a Array),
    /// Broadcast scalar operand.
    Scalar(Scalar),
}

impl<'a> Datum<'a> {
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

    /// Rows where the operand is non-NULL; `None` when every row is.
    pub(crate) fn validity(&self, n: usize) -> Option<Bitmap> {
        match self {
            Datum::Column(a) => a.validity().cloned(),
            Datum::Scalar(s) => s.is_null().then(|| Bitmap::all_clear(n)),
        }
    }
}

/// A stored numeric width, read into a lane in registers.
pub(crate) trait Native: Copy {
    /// The value in the integer lane.
    fn int(self) -> i64;
    /// The value in the float lane, widened as `Scalar::as_f64` widens it.
    fn float(self) -> f64;
}

impl Native for i32 {
    fn int(self) -> i64 {
        i64::from(self)
    }
    fn float(self) -> f64 {
        f64::from(self)
    }
}

impl Native for i64 {
    fn int(self) -> i64 {
        self
    }
    fn float(self) -> f64 {
        self as f64
    }
}

impl Native for f64 {
    /// Never reached: typing keeps floats out of the integer lane.
    fn int(self) -> i64 {
        self as i64
    }
    fn float(self) -> f64 {
        self
    }
}

/// The type a lane computes in: `i64` or `f64`.
pub(crate) trait LaneType: Copy + Default {
    /// A stored value, widened into this lane.
    fn of<S: Native>(v: S) -> Self;
}

impl LaneType for i64 {
    fn of<S: Native>(v: S) -> i64 {
        v.int()
    }
}

impl LaneType for f64 {
    fn of<S: Native>(v: S) -> f64 {
        v.float()
    }
}

impl LaneType for i32 {
    /// Only `i32` values enter this lane (see [`Lane::narrow`]), so the
    /// cast is exact.
    fn of<S: Native>(v: S) -> i32 {
        v.int() as i32
    }
}

/// A numeric column's values, borrowed at their stored width.
#[derive(Clone, Copy)]
pub(crate) enum Values<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
    F64(&'a [f64]),
}

/// `$body` with `$s` bound to the slice of a [`Values`]: one monomorphic
/// copy of `$body` per stored width.
macro_rules! with_values {
    ($values:expr, |$s:ident| $body:expr) => {
        match $values {
            Values::I32($s) => $body,
            Values::I64($s) => $body,
            Values::F64($s) => $body,
        }
    };
}
pub(crate) use with_values;

/// A numeric operand lowered for a typed loop: a column's values in place
/// with its validity bitmap, or a broadcast literal converted once to the
/// lane type `L` (`None` for a NULL literal).
pub(crate) enum Lane<'a, L> {
    Col(Values<'a>, Option<&'a Bitmap>),
    Const(Option<L>),
}

impl<'a, L> Lane<'a, L> {
    /// A numeric column in place; any other column reads as NULL.
    fn column(a: &'a Array) -> Self {
        match a {
            Array::Int32(a) | Array::Date32(a) => Lane::Col(Values::I32(a.values()), a.validity()),
            Array::Int64(a) => Lane::Col(Values::I64(a.values()), a.validity()),
            Array::Float64(a) => Lane::Col(Values::F64(a.values()), a.validity()),
            _ => Lane::Const(None),
        }
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

impl<'a> Lane<'a, i64> {
    /// This integer lane at `i32` width, where SIMD compares twice the rows
    /// per instruction: when its values are `i32`s — an `Int32` or `Date32`
    /// column, or a literal that fits.
    fn narrow(&self) -> Option<Lane<'a, i32>> {
        match *self {
            Lane::Col(Values::I32(v), valid) => Some(Lane::Col(Values::I32(v), valid)),
            Lane::Col(..) => None,
            Lane::Const(None) => Some(Lane::Const(None)),
            Lane::Const(Some(c)) => i32::try_from(c).ok().map(|c| Lane::Const(Some(c))),
        }
    }
}

/// Integer lane (`Int32`, `Int64`, `Date32`); anything else reads as NULL.
pub(crate) fn int_lane<'a>(d: &Datum<'a>) -> Lane<'a, i64> {
    match d {
        Datum::Scalar(s) => Lane::Const(s.as_i64()),
        Datum::Column(Array::Float64(_)) => Lane::Const(None),
        Datum::Column(a) => Lane::column(a),
    }
}

/// Float lane (any numeric or date, as `Scalar::as_f64` widens them).
pub(crate) fn float_lane<'a>(d: &Datum<'a>) -> Lane<'a, f64> {
    match d {
        Datum::Scalar(s) => Lane::Const(s.as_f64()),
        Datum::Column(a) => Lane::column(a),
    }
}

/// Up to 64 flags as one bitmap word, flag `j` at bit `j`. Each flag is
/// first a byte, which lets the comparison loops vectorize; a multiply then
/// gathers eight bytes at a time: byte `i` (0 or 1) lands on bit `56 + i`,
/// and no two partial products share a bit.
fn word(flags: impl Iterator<Item = bool>) -> u64 {
    let mut bytes = [0u8; 64];
    bytes
        .iter_mut()
        .zip(flags)
        .for_each(|(b, f)| *b = u8::from(f));
    bytes.chunks_exact(8).enumerate().fold(0, |w, (k, eight)| {
        let eight = u64::from_le_bytes(eight.try_into().unwrap_or_default());
        w | (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k)
    })
}

/// `f` of every element, packed 64 rows a word.
pub(crate) fn pack<A: Copy>(a: &[A], f: impl Fn(A) -> bool) -> Bitmap {
    let words = a.chunks(64).map(|c| word(c.iter().map(|&x| f(x))));
    Bitmap::from_words(words.collect(), a.len())
}

fn repeat_bit(bit: bool, n: usize) -> Bitmap {
    if bit {
        Bitmap::all_set(n)
    } else {
        Bitmap::all_clear(n)
    }
}

/// A kernel's output buffer, written straight from operand slices: a value
/// `Vec`, or a `Bitmap` packed 64 rows a word.
pub(crate) trait Output<U>: Sized {
    fn map<A: Copy>(a: &[A], f: impl Fn(A) -> U) -> Self;
    fn zip<A: Copy, B: Copy>(a: &[A], b: &[B], f: impl Fn(A, B) -> U) -> Self;
    fn repeat(value: U, n: usize) -> Self;
}

impl<U: Clone> Output<U> for Vec<U> {
    fn map<A: Copy>(a: &[A], f: impl Fn(A) -> U) -> Self {
        a.iter().map(|&x| f(x)).collect()
    }
    fn zip<A: Copy, B: Copy>(a: &[A], b: &[B], f: impl Fn(A, B) -> U) -> Self {
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    }
    fn repeat(value: U, n: usize) -> Self {
        vec![value; n]
    }
}

impl Output<bool> for Bitmap {
    fn map<A: Copy>(a: &[A], f: impl Fn(A) -> bool) -> Self {
        pack(a, f)
    }
    fn zip<A: Copy, B: Copy>(a: &[A], b: &[B], f: impl Fn(A, B) -> bool) -> Self {
        let words = (a.chunks(64).zip(b.chunks(64)))
            .map(|(ca, cb)| word(ca.iter().zip(cb).map(|(&x, &y)| f(x, y))));
        Bitmap::from_words(words.collect(), a.len())
    }
    fn repeat(value: bool, n: usize) -> Self {
        repeat_bit(value, n)
    }
}

/// Apply `f` to every row of one lane. A NULL literal reads as
/// `L::default()`; its rows are NULL in any output.
pub(crate) fn map<L: LaneType, U, C: Output<U>>(
    lane: &Lane<'_, L>,
    n: usize,
    f: impl Fn(L) -> U,
) -> C {
    match lane {
        Lane::Col(a, _) => with_values!(*a, |a| C::map(a, |x| f(L::of(x)))),
        Lane::Const(c) => C::repeat(f(c.unwrap_or_default()), n),
    }
}

/// Apply `f` to every row pair of two lanes: the one place the broadcast
/// forms and the pairs of stored widths are spelled out.
fn zip<L: LaneType, U, C: Output<U>>(
    l: &Lane<'_, L>,
    r: &Lane<'_, L>,
    n: usize,
    f: impl Fn(L, L) -> U,
) -> C {
    match (l, r) {
        (Lane::Col(a, _), Lane::Col(b, _)) => with_values!(*a, |a| {
            with_values!(*b, |b| C::zip(a, b, |x, y| f(L::of(x), L::of(y))))
        }),
        (Lane::Col(a, _), Lane::Const(y)) => {
            let y = y.unwrap_or_default();
            with_values!(*a, |a| C::map(a, |x| f(L::of(x), y)))
        }
        (Lane::Const(x), Lane::Col(b, _)) => {
            let x = x.unwrap_or_default();
            with_values!(*b, |b| C::map(b, |y| f(x, L::of(y))))
        }
        (Lane::Const(x), Lane::Const(y)) => {
            C::repeat(f(x.unwrap_or_default(), y.unwrap_or_default()), n)
        }
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
pub(crate) enum StrLane<'a> {
    Plain(&'a StringArray),
    Dict(&'a DictionaryArray),
    Const(Option<&'a str>),
}

impl<'a> StrLane<'a> {
    pub(crate) fn of(d: &'a Datum<'_>) -> Self {
        match d {
            Datum::Column(Array::Utf8(a)) => StrLane::Plain(a),
            Datum::Column(Array::Dict(a)) => StrLane::Dict(a),
            Datum::Column(_) => StrLane::Const(None),
            Datum::Scalar(s) => StrLane::Const(s.as_str()),
        }
    }

    pub(crate) fn get(&self, i: usize) -> Option<&'a str> {
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

    /// `flags(strings)` — one flag per value of a string array — of every
    /// row. A dictionary column runs it once over its entries and maps each
    /// row through its code; a NULL row's flag is masked by its validity.
    fn test(&self, n: usize, flags: impl FnOnce(&StringArray) -> Vec<bool>) -> Bitmap {
        match self {
            StrLane::Plain(a) => Bitmap::from_iter(flags(a)),
            StrLane::Dict(d) => {
                let hits = flags(d.values());
                pack(d.codes(), |c| {
                    hits.get(c as usize).copied().unwrap_or(false)
                })
            }
            StrLane::Const(c) => {
                let hit = c.is_some_and(|s| flags(&StringArray::from_strings([s])) == [true]);
                repeat_bit(hit, n)
            }
        }
    }
}

/// `pred` of every value of a string array (false for NULL): the per-value
/// form of [`StrLane::test`]'s flags.
fn each(pred: impl Fn(&str) -> bool) -> impl FnOnce(&StringArray) -> Vec<bool> {
    move |strings| strings.iter().map(|v| v.is_some_and(&pred)).collect()
}

/// A boolean operand as two bit sets: rows known true, rows known false
/// (NULL rows are in neither).
pub(crate) fn truth(d: &Datum<'_>, n: usize) -> (Bitmap, Bitmap) {
    match d {
        Datum::Column(Array::Bool(a)) => {
            let not = a.values().not();
            (
                a.to_selection(),
                a.validity().map_or(not.clone(), |v| not.and(v)),
            )
        }
        Datum::Column(_) => (Bitmap::all_clear(n), Bitmap::all_clear(n)),
        Datum::Scalar(s) => (
            repeat_bit(s.as_bool() == Some(true), n),
            repeat_bit(s.as_bool() == Some(false), n),
        ),
    }
}

/// The lane in which `Scalar::cmp` compares non-NULL values of two types;
/// `None` when such values never compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpLane {
    Bool,
    Int,
    Float,
    Str,
}

fn cmp_lane(l: DataType, r: DataType) -> Option<CmpLane> {
    use DataType::*;
    Some(match (l, r) {
        (Bool, Bool) => CmpLane::Bool,
        (Int32 | Int64, Int32 | Int64) | (Date32, Date32) => CmpLane::Int,
        (Utf8, Utf8) => CmpLane::Str,
        (Int32 | Int64 | Float64 | Date32, Int32 | Int64 | Float64 | Date32) => CmpLane::Float,
        _ => return None,
    })
}

/// The test a comparison operator applies to an ordering.
fn ordering_test(op: BinOp) -> fn(Ordering) -> bool {
    match op {
        BinOp::Eq => Ordering::is_eq,
        BinOp::Ne => Ordering::is_ne,
        BinOp::Lt => Ordering::is_lt,
        BinOp::Le => Ordering::is_le,
        BinOp::Gt => Ordering::is_gt,
        _ => Ordering::is_ge,
    }
}

/// Numeric comparison: one monomorphic loop per operator and pair of
/// stored widths.
fn compare_lanes<L: LaneType>(
    op: BinOp,
    l: &Lane<'_, L>,
    r: &Lane<'_, L>,
    n: usize,
    cmp: impl Fn(L, L) -> Ordering + Copy,
) -> Array {
    let values: Bitmap = match op {
        BinOp::Eq => zip(l, r, n, |a, b| cmp(a, b).is_eq()),
        BinOp::Ne => zip(l, r, n, |a, b| cmp(a, b).is_ne()),
        BinOp::Lt => zip(l, r, n, |a, b| cmp(a, b).is_lt()),
        BinOp::Le => zip(l, r, n, |a, b| cmp(a, b).is_le()),
        BinOp::Gt => zip(l, r, n, |a, b| cmp(a, b).is_gt()),
        _ => zip(l, r, n, |a, b| cmp(a, b).is_ge()),
    };
    Array::Bool(BoolArray::from_parts(
        values,
        and_valid(l.valid(n), r.valid(n)),
    ))
}

/// Boolean comparison (`false < true`) as bit algebra over the rows known
/// true and known false, a word at a time.
fn compare_bools(op: BinOp, left: &Datum<'_>, right: &Datum<'_>, n: usize) -> Array {
    let ((lt, lf), (rt, rf)) = (truth(left, n), truth(right, n));
    let values = match op {
        BinOp::Eq => lt.and(&rt).or(&lf.and(&rf)),
        BinOp::Ne => lt.and(&rf).or(&lf.and(&rt)),
        BinOp::Lt => lf.and(&rt),
        BinOp::Le => lf.or(&rt),
        BinOp::Gt => lt.and(&rf),
        _ => lt.or(&rf),
    };
    let valid = and_valid(left.validity(n), right.validity(n));
    Array::Bool(BoolArray::from_parts(values, valid))
}

fn compare(op: BinOp, lane: CmpLane, left: &Datum<'_>, right: &Datum<'_>, n: usize) -> Array {
    match lane {
        CmpLane::Bool => compare_bools(op, left, right, n),
        CmpLane::Int => {
            let (l, r) = (int_lane(left), int_lane(right));
            match (l.narrow(), r.narrow()) {
                (Some(l), Some(r)) => compare_lanes(op, &l, &r, n, |a, b| a.cmp(&b)),
                _ => compare_lanes(op, &l, &r, n, |a, b| a.cmp(&b)),
            }
        }
        CmpLane::Float => {
            let cmp = |a: f64, b: f64| a.total_cmp(&b);
            compare_lanes(op, &float_lane(left), &float_lane(right), n, cmp)
        }
        CmpLane::Str => {
            let (l, r) = (StrLane::of(left), StrLane::of(right));
            let test = ordering_test(op);
            let values =
                match (&l, &r) {
                    (_, StrLane::Const(Some(c))) => l.test(n, each(|s| test(s.cmp(c)))),
                    (StrLane::Const(Some(c)), _) => r.test(n, each(|s| test((*c).cmp(s)))),
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
fn logical(op: BinOp, left: &Datum<'_>, right: &Datum<'_>, n: usize) -> Array {
    let ((lt, lf), (rt, rf)) = (truth(left, n), truth(right, n));
    let (t, f) = match op {
        BinOp::And => (lt.and(&rt), lf.or(&rf)),
        _ => (lt.or(&rt), lf.and(&rf)),
    };
    let valid = t.or(&f);
    Array::Bool(BoolArray::from_parts(t, Some(valid)))
}

fn arith(op: BinOp, out: DataType, left: &Datum<'_>, right: &Datum<'_>, n: usize) -> Array {
    fn of<L: LaneType, U: Copy + Default>(
        l: &Lane<'_, L>,
        r: &Lane<'_, L>,
        n: usize,
        divisor_ok: Option<Bitmap>,
        f: impl Fn(L, L) -> U,
    ) -> PrimitiveArray<U> {
        let valid = and_valid(and_valid(l.valid(n), r.valid(n)), divisor_ok);
        PrimitiveArray::from_parts(zip(l, r, n, f), valid)
    }
    match (op, out) {
        (BinOp::Div, _) => {
            let (l, r) = (float_lane(left), float_lane(right));
            let nonzero = map(&r, n, |b| b != 0.0);
            Array::Float64(of(&l, &r, n, Some(nonzero), |a, b| a / b))
        }
        (BinOp::Mod, _) => {
            let (l, r) = (int_lane(left), int_lane(right));
            let nonzero = map(&r, n, |b| b != 0);
            Array::Int64(of(&l, &r, n, Some(nonzero), |a, b| {
                a.checked_rem(b).unwrap_or(0)
            }))
        }
        (_, DataType::Float64) => {
            let (l, r) = (float_lane(left), float_lane(right));
            Array::Float64(match op {
                BinOp::Add => of(&l, &r, n, None, |a, b| a + b),
                BinOp::Sub => of(&l, &r, n, None, |a, b| a - b),
                _ => of(&l, &r, n, None, |a, b| a * b),
            })
        }
        // Date ± days: truncated back to the 32-bit day count.
        (_, DataType::Date32) => {
            let (l, r) = (int_lane(left), int_lane(right));
            Array::Date32(match op {
                BinOp::Add => of(&l, &r, n, None, |a: i64, b| a.wrapping_add(b) as i32),
                _ => of(&l, &r, n, None, |a: i64, b| a.wrapping_sub(b) as i32),
            })
        }
        _ => {
            let (l, r) = (int_lane(left), int_lane(right));
            Array::Int64(match op {
                BinOp::Add => of(&l, &r, n, None, i64::wrapping_add),
                BinOp::Sub => of(&l, &r, n, None, i64::wrapping_sub),
                _ => of(&l, &r, n, None, i64::wrapping_mul),
            })
        }
    }
}

/// A column operand must hold exactly the rows the kernel was asked for.
pub(crate) fn check_rows(d: &Datum<'_>, num_rows: usize) -> Result<()> {
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
    op: BinOp,
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

    ctx.charge(
        "binary.op",
        &WorkProfile::scan(left.byte_size() + right.byte_size())
            .with_streamed(result.byte_size() as u64)
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(result)
}

/// SQL `LIKE` pattern match (`%` any run, `_` any single char). Returns a
/// `Bool` column; nulls propagate. The pattern is compiled once per call.
pub fn like(
    ctx: &GpuContext,
    input: &Datum<'_>,
    pattern: &str,
    negated: bool,
    num_rows: usize,
) -> Result<Array> {
    check_rows(input, num_rows)?;
    let compiled = Pattern::compile(pattern);
    let lane = StrLane::of(input);
    let hits = lane.test(num_rows, |strings| compiled.flags(strings));
    let values = if negated { hits.not() } else { hits };
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
    ctx.charge("binary.like", &work.with_rows(num_rows as u64));
    Ok(Array::Bool(BoolArray::from_parts(
        values,
        lane.valid(num_rows),
    )))
}

/// A `LIKE` pattern, compiled once per call.
enum Pattern<'p> {
    /// Neither `%` nor `_`: the whole text.
    Exact(&'p str),
    /// `%` but no `_`: an anchored prefix, the non-empty segments between
    /// `%`s, found in order, and an anchored suffix.
    Segments {
        prefix: &'p str,
        middle: Vec<&'p str>,
        suffix: &'p str,
    },
    /// A `_` somewhere: the backtracking matcher, by character.
    Chars(&'p str, Vec<char>),
}

impl<'p> Pattern<'p> {
    fn compile(pattern: &'p str) -> Self {
        if pattern.contains('_') {
            return Pattern::Chars(pattern, pattern.chars().collect());
        }
        let mut parts = pattern.split('%');
        let prefix = parts.next().unwrap_or_default();
        match parts.next_back() {
            None => Pattern::Exact(prefix),
            Some(suffix) => Pattern::Segments {
                prefix,
                middle: parts.filter(|m| !m.is_empty()).collect(),
                suffix,
            },
        }
    }

    /// Whether `s` matches; `text` is scratch space for the `Chars` form.
    /// Matching UTF-8 bytewise is matching by character: a valid needle
    /// found in valid text starts on a character boundary.
    fn matches(&self, s: &str, text: &mut Vec<char>) -> bool {
        match self {
            Pattern::Exact(p) => s == *p,
            Pattern::Segments {
                prefix,
                middle,
                suffix,
            } => {
                let rest = s.strip_prefix(prefix).and_then(|r| r.strip_suffix(suffix));
                rest.is_some_and(|mut rest| {
                    middle.iter().all(|m| match rest.split_once(m) {
                        Some((_, after)) => {
                            rest = after;
                            true
                        }
                        None => false,
                    })
                })
            }
            // ASCII text is its own character array.
            Pattern::Chars(p, _) if p.is_ascii() && s.is_ascii() => {
                like_match(s.as_bytes(), p.as_bytes(), b'%', b'_')
            }
            Pattern::Chars(_, chars) => {
                text.clear();
                text.extend(s.chars());
                like_match(text, chars, '%', '_')
            }
        }
    }

    /// Whether each value of `strings` matches (false for NULL). A pattern
    /// with a middle segment scans the contiguous payload once for the first
    /// one, which every match contains, and matches in full only the values
    /// it is found in.
    fn flags(&self, strings: &StringArray) -> Vec<bool> {
        let mut text = Vec::new();
        let needle = match self {
            Pattern::Segments { middle, .. } => middle.first(),
            _ => None,
        };
        let Some(needle) = needle else {
            let each = strings.iter();
            return each
                .map(|v| v.is_some_and(|s| self.matches(s, &mut text)))
                .collect();
        };
        let (data, offsets) = (strings.value_data(), strings.value_offsets());
        let mut flags = vec![false; strings.len()];
        let (mut row, end) = (0, offsets[strings.len()] as usize);
        let mut from = offsets[0] as usize;
        while let Some(at) = find_from(data, needle, from, end) {
            // Values are contiguous: the hit lies in the first one ending past it.
            while offsets[row + 1] as usize <= at {
                row += 1;
            }
            let value = data.get(offsets[row] as usize..offsets[row + 1] as usize);
            flags[row] = value.is_some_and(|s| self.matches(s, &mut text));
            row += 1;
            from = offsets[row] as usize;
        }
        flags
    }
}

/// The first occurrence of `needle` (not empty) in `data[from..end]`, as an
/// offset into `data`. A 256-byte block that `str::contains` rules out — a
/// SIMD scan, where `find` is not — is skipped whole.
fn find_from(data: &str, needle: &str, mut from: usize, end: usize) -> Option<usize> {
    const BLOCK: usize = 256;
    while from < end {
        let block_end = data.ceil_char_boundary((from + BLOCK).min(end));
        let reach = data.ceil_char_boundary((block_end + needle.len() - 1).min(end));
        match data.get(from..reach) {
            Some(block) if !block.contains(needle) => from = block_end,
            _ => return data.get(from..end)?.find(needle).map(|at| from + at),
        }
    }
    None
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

/// `expr IN (literal, ...)` kernel: a row matches when `Scalar::eq` holds
/// between it and some list entry. One pass: each entry is converted once
/// into the lane its type compares in with the input's, a numeric column is
/// tested in one loop over its values and a dictionary column once per
/// entry. NULL entries, and entries of a type the input never equals, match
/// nothing.
pub fn in_list(
    ctx: &GpuContext,
    input: &Datum<'_>,
    list: &[Scalar],
    negated: bool,
    num_rows: usize,
) -> Result<Array> {
    check_rows(input, num_rows)?;
    let hits = match input {
        Datum::Column(column) => column_hits(column, list, num_rows),
        Datum::Scalar(s) => repeat_bit(!s.is_null() && list.contains(s), num_rows),
    };
    ctx.charge(
        "binary.in_list",
        &WorkProfile::scan(input.byte_size())
            .with_flops((num_rows * list.len().max(1)) as u64)
            .with_rows(num_rows as u64),
    );
    let values = if negated { hits.not() } else { hits };
    Ok(Array::Bool(BoolArray::from_parts(
        values,
        input.validity(num_rows),
    )))
}

/// The rows of `column` equal to some entry of `list`.
fn column_hits(column: &Array, list: &[Scalar], n: usize) -> Bitmap {
    let t = column.data_type();
    let in_lane = |lane| {
        (list.iter()).filter(move |e| e.data_type().and_then(|e| cmp_lane(t, e)) == Some(lane))
    };
    let input = Datum::Column(column);
    match t {
        DataType::Utf8 => {
            let strs: Vec<&str> = in_lane(CmpLane::Str).filter_map(Scalar::as_str).collect();
            StrLane::of(&input).test(n, each(|s| strs.contains(&s)))
        }
        DataType::Bool => {
            let (t, f) = truth(&input, n);
            let has = |b| in_lane(CmpLane::Bool).any(|e| e.as_bool() == Some(b));
            match (has(true), has(false)) {
                (true, true) => t.or(&f),
                (true, false) => t,
                (false, true) => f,
                (false, false) => Bitmap::all_clear(n),
            }
        }
        _ => {
            let ints: Vec<i64> = in_lane(CmpLane::Int).filter_map(Scalar::as_i64).collect();
            let floats: Vec<f64> = in_lane(CmpLane::Float).filter_map(Scalar::as_f64).collect();
            let hit = |x: i64, y: f64| {
                ints.contains(&x) || floats.iter().any(|f| f.total_cmp(&y).is_eq())
            };
            match float_lane(&input) {
                Lane::Col(values, _) => {
                    with_values!(values, |v| pack(v, |x| hit(x.int(), x.float())))
                }
                Lane::Const(_) => Bitmap::all_clear(n),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{
        self, datum, same_column, same_launch, same_values, Gen, Kind, KINDS, ROWS,
    };
    use crate::test_ctx;
    use proptest::prelude::*;

    const OPS: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
    ];

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
                        let (l, r) = (g.operand(lk, rows), g.operand(rk, rows));
                        same_launch(
                            |ctx| binary_op(ctx, op, &datum(&l), &datum(&r), rows),
                            |ctx| reference::binary_op(ctx, op, &datum(&l), &datum(&r), rows),
                        )?;
                    }
                }
            }
        }

        #[test]
        fn prop_in_list_matches_the_scalar_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&ROWS);
            for kind in KINDS {
                let input = g.operand(kind, rows);
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

        /// Every pattern over plain, encoded and non-string operands, and
        /// over a window whose offsets do not start at 0. The pool covers
        /// each form the compiled pattern special-cases: exact, prefix,
        /// suffix, several and overlapping middle segments, empty segments,
        /// multibyte text, a pattern longer than any text, `_` (the
        /// backtracking matcher) and the seven TPC-H patterns.
        #[test]
        fn prop_like_matches_the_scalar_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&ROWS);
            let patterns = [
                "", "%", "_", "a%", "%b", "a_", "%a%", "PROMO%", "na_ve", "a\0",
                "%a%b%", "%ab%b", "%aa%aa%", "%%", "a%%b", "%ï%", "na_ve%", "a%a",
                "naïve naïve%", "PROMO x_", "%BRASS", "%green%", "%special%requests%",
                "MEDIUM POLISHED%", "%Customer%Complaints%", "forest%",
            ];
            for kind in [Kind::Utf8, Kind::Dict, Kind::Int64] {
                let input = g.operand(kind, rows);
                let window = input.0.as_ref().filter(|c| c.len() > 1).map(|c| c.slice(1, c.len() - 1));
                for pattern in patterns {
                    for negated in [false, true] {
                        let got = like(&test_ctx(), &datum(&input), pattern, negated, rows).unwrap();
                        same_column(&got, &reference::like(&datum(&input), pattern, negated, rows))?;
                        if let Some(w) = &window {
                            let got = like(&test_ctx(), &Datum::Column(w), pattern, negated, w.len());
                            let expected = reference::like(&Datum::Column(w), pattern, negated, w.len());
                            same_column(&got.unwrap(), &expected)?;
                        }
                    }
                }
            }
        }
    }

    /// An `Int32` column compares an `Int64` just outside `i32` exactly, as a
    /// literal or as a column, on either side of every comparison operator.
    #[test]
    fn comparisons_hold_just_outside_the_i32_range() {
        let ctx = test_ctx();
        let column = Array::from_i32([i32::MIN, -1, 0, i32::MAX]);
        for (wide, above) in [(i32::MAX as i64 + 1, true), (i32::MIN as i64 - 1, false)] {
            let wide_column = Array::from_i64([wide; 4]);
            for other in [Datum::Scalar(Scalar::Int64(wide)), col(&wide_column)] {
                for (op, column_first, other_first) in [
                    (BinOp::Eq, false, false),
                    (BinOp::Ne, true, true),
                    (BinOp::Lt, above, !above),
                    (BinOp::Le, above, !above),
                    (BinOp::Gt, !above, above),
                    (BinOp::Ge, !above, above),
                ] {
                    let run = |l: &Datum<'_>, r: &Datum<'_>| binary_op(&ctx, op, l, r, 4).unwrap();
                    let expect = |b| Array::from_bool([b; 4]);
                    let got = run(&col(&column), &other);
                    assert!(same_values(&got, &expect(column_first)), "{op:?} {wide}");
                    let got = run(&other, &col(&column));
                    assert!(same_values(&got, &expect(other_first)), "{op:?} {wide}");
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
        assert_eq!(run(BinOp::Add).i64_value(0), Some(i64::MIN));
        assert_eq!(run(BinOp::Mul).i64_value(1), Some(i64::MIN));
        // `i64::MIN % -1` overflows in hardware; here it is 0, and NULL on 0.
        assert_eq!(run(BinOp::Mod).i64_value(1), Some(0));
        assert_eq!(run(BinOp::Mod).scalar(2), Scalar::Null);
        assert_eq!(run(BinOp::Div).scalar(2), Scalar::Null);
    }

    #[test]
    fn operands_must_hold_the_launched_rows() {
        let ctx = test_ctx();
        let a = Array::from_i64([1, 2, 3]);
        let one = Datum::Scalar(Scalar::Int64(1));
        assert!(binary_op(&ctx, BinOp::Add, &col(&a), &one, 2).is_err());
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
        let r = binary_op(&ctx, BinOp::Add, &col(&a), &col(&b), 3).unwrap();
        assert_eq!(r.data_type(), DataType::Int64);
        assert_eq!(r.i64_value(2), Some(33));
    }

    #[test]
    fn float_arithmetic() {
        let ctx = test_ctx();
        let a = Array::from_f64([1.5, 2.5]);
        let r = binary_op(
            &ctx,
            BinOp::Mul,
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
        let r = binary_op(&ctx, BinOp::Div, &col(&a), &col(&b), 2).unwrap();
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
            BinOp::Lt,
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
            BinOp::Ge,
            &col(&d),
            &Datum::Scalar(Scalar::Date32(150)),
            2,
        )
        .unwrap();
        assert_eq!(r.scalar(0), Scalar::Bool(false));
        assert_eq!(r.scalar(1), Scalar::Bool(true));
        let plus = binary_op(
            &ctx,
            BinOp::Add,
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
        let and = binary_op(&ctx, BinOp::And, &col(&t), &col(&n), 2).unwrap();
        assert_eq!(and.scalar(0), Scalar::Null); // true AND null
        assert_eq!(and.scalar(1), Scalar::Bool(false)); // false AND null
        let or = binary_op(&ctx, BinOp::Or, &col(&t), &col(&n), 2).unwrap();
        assert_eq!(or.scalar(0), Scalar::Bool(true)); // true OR null
        assert_eq!(or.scalar(1), Scalar::Null); // false OR null
    }

    #[test]
    fn null_propagation_in_comparison() {
        let ctx = test_ctx();
        let a = Array::from_i64([1]);
        let r = binary_op(&ctx, BinOp::Eq, &col(&a), &Datum::Scalar(Scalar::Null), 1).unwrap();
        assert_eq!(r.scalar(0), Scalar::Null);
    }

    #[test]
    fn unsupported_types_error() {
        let ctx = test_ctx();
        let a = Array::from_strs(["x"]);
        let err = binary_op(
            &ctx,
            BinOp::Add,
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

    /// A payload of many scan blocks, multibyte text straddling their edges,
    /// a hit in every ninth value: as the per-row reference, plain and
    /// encoded, whole and as a window.
    #[test]
    fn like_scans_a_long_payload_block_by_block() {
        // Gaps between hits of 200 to 700 bytes put each hit at a different
        // distance from the block edges.
        let values: Vec<String> = (0..900)
            .map(|i| match i % 9 {
                0 => format!("{i} ïï special ï requests ï"),
                _ => format!("{i} naïve{} spec requests", "ï".repeat(i % 31)),
            })
            .collect();
        let plain = Array::from_strs(&values);
        for column in [plain.clone(), plain.dict_encode(), plain.slice(3, 890)] {
            for pattern in ["%special%requests%", "%ï r%", "1%ï"] {
                let n = column.len();
                let got = like(&test_ctx(), &col(&column), pattern, false, n).unwrap();
                let expected = reference::like(&col(&column), pattern, false, n);
                assert!(same_values(&got, &expected), "{pattern}");
            }
        }
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
        binary_op(&ctx, BinOp::Add, &col(&a), &col(&a), 1000).unwrap();
        assert!(ctx.device().elapsed() > before);
    }
}
