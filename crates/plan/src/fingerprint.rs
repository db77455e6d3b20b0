//! Stable structural fingerprints over plan trees.
//!
//! A serving system sees the same parameterized query *shapes* endlessly
//! with only the literals changing. [`fingerprint`] hashes a [`Rel`] tree
//! into a [`PlanFingerprint`] with two independent 64-bit lanes:
//!
//! - **`shape`** covers everything structural — operator kinds, column
//!   ordinals, operators, table names, schemas, join kinds, aliases, and
//!   the *types* of literals — so two plans that differ only in literal
//!   values share a shape bucket.
//! - **`constants`** covers the literal values themselves (scalar
//!   payloads, LIKE patterns, IN lists, limit bounds).
//!
//! Plan caches key compiled artifacts on the full `(shape, constants)`
//! pair; runtime-feedback stores key on `shape` alone so cardinality
//! observations transfer across literal variations of the same shape.
//!
//! The hash is a hand-rolled FNV-1a walk: deterministic across processes
//! and runs (no `RandomState`), independent of pointer identity, and
//! stable under re-serialization. The engine hashes the tree it compiles,
//! the [`normalize`](crate::normalize)d one, so a plan that stacks two
//! filters and one that writes them as one conjunction share a bucket.

use crate::expr::{AggExpr, Expr, SortExpr};
use crate::rel::{ExchangeKind, Rel};
use sirius_columnar::{Scalar, Schema};

/// A two-lane structural hash of a plan tree. See the module docs for
/// what lands in each lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanFingerprint {
    /// Structure lane: operator tree, ordinals, names, literal *types*.
    pub shape: u64,
    /// Constants lane: literal *values* only.
    pub constants: u64,
}

impl std::fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}:{:016x}", self.shape, self.constants)
    }
}

impl PlanFingerprint {
    /// True when `other` is the same shape (possibly different literals).
    pub fn same_shape(&self, other: &PlanFingerprint) -> bool {
        self.shape == other.shape
    }
}

/// Fingerprint a plan tree. Cache keys hash the
/// [`normalize`](crate::normalize)d form — see the module docs.
pub fn fingerprint(plan: &Rel) -> PlanFingerprint {
    let mut h = Walk::new();
    h.rel(plan);
    PlanFingerprint {
        shape: h.shape.0,
        constants: h.constants.0,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a lane.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
}

/// The two-lane tree walk.
struct Walk {
    shape: Fnv,
    constants: Fnv,
}

impl Walk {
    fn new() -> Self {
        Walk {
            shape: Fnv(FNV_OFFSET),
            constants: Fnv(FNV_OFFSET),
        }
    }

    /// Structural tag (operator/variant discriminators, option flags).
    fn tag(&mut self, t: &str) {
        self.shape.str(t);
    }

    fn rel(&mut self, rel: &Rel) {
        match rel {
            Rel::Read {
                table,
                schema,
                projection,
            } => {
                self.tag("read");
                self.shape.str(table);
                self.schema(schema);
                self.projection(projection.as_deref());
            }
            Rel::Filter { input, predicate } => {
                self.tag("filter");
                self.expr(predicate);
                self.rel(input);
            }
            Rel::Project { input, exprs } => {
                self.tag("project");
                self.shape.usize(exprs.len());
                for (e, name) in exprs {
                    self.expr(e);
                    self.shape.str(name);
                }
                self.rel(input);
            }
            Rel::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                self.tag("aggregate");
                self.shape.usize(group_by.len());
                for e in group_by {
                    self.expr(e);
                }
                self.shape.usize(aggregates.len());
                for a in aggregates {
                    self.agg(a);
                }
                self.rel(input);
            }
            Rel::Join {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
            } => {
                self.tag("join");
                self.shape.str(&format!("{kind:?}"));
                self.shape.usize(left_keys.len());
                for k in left_keys.iter().chain(right_keys) {
                    self.expr(k);
                }
                self.optional("residual", residual.as_ref(), "none");
                self.rel(left);
                self.rel(right);
            }
            Rel::Sort { input, keys } => {
                self.tag("sort");
                self.shape.usize(keys.len());
                for k in keys {
                    self.sort_key(k);
                }
                self.rel(input);
            }
            Rel::Limit {
                input,
                offset,
                fetch,
            } => {
                // Presence is structure; the bounds themselves are
                // literals the user tunes per request.
                self.tag("limit");
                self.constants.usize(*offset);
                match fetch {
                    Some(n) => {
                        self.tag("fetch");
                        self.constants.usize(*n);
                    }
                    None => self.tag("nofetch"),
                }
                self.rel(input);
            }
            Rel::Distinct { input } => {
                self.tag("distinct");
                self.rel(input);
            }
            Rel::Exchange { input, kind } => {
                self.tag("exchange");
                self.exchange(kind);
                self.rel(input);
            }
        }
    }

    fn projection(&mut self, projection: Option<&[usize]>) {
        match projection {
            Some(cols) => {
                self.tag("proj");
                self.shape.usize(cols.len());
                for c in cols {
                    self.shape.usize(*c);
                }
            }
            None => self.tag("all"),
        }
    }

    fn exchange(&mut self, kind: &ExchangeKind) {
        match kind {
            ExchangeKind::Shuffle { keys } => {
                self.tag("shuffle");
                self.shape.usize(keys.len());
                for k in keys {
                    self.expr(k);
                }
            }
            ExchangeKind::Broadcast => self.tag("broadcast"),
            ExchangeKind::Merge => self.tag("merge"),
            ExchangeKind::MultiCast { targets } => {
                self.tag("multicast");
                self.shape.usize(targets.len());
                for t in targets {
                    self.shape.usize(*t);
                }
            }
        }
    }

    /// An optional sub-expression: `present` and the expression, or `absent`.
    fn optional(&mut self, present: &str, e: Option<&Expr>, absent: &str) {
        match e {
            Some(e) => {
                self.tag(present);
                self.expr(e);
            }
            None => self.tag(absent),
        }
    }

    fn schema(&mut self, schema: &Schema) {
        self.shape.usize(schema.fields.len());
        for f in &schema.fields {
            self.shape.str(&f.name);
            self.shape.str(&format!("{:?}", f.data_type));
        }
    }

    fn expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Column(i) => {
                self.tag("col");
                self.shape.usize(*i);
            }
            Expr::Literal(s) => {
                self.tag("lit");
                self.scalar(s);
            }
            Expr::Binary { op, left, right } => {
                self.tag("bin");
                self.shape.str(&format!("{op:?}"));
                self.expr(left);
                self.expr(right);
            }
            Expr::Unary { op, input } => {
                self.tag("un");
                self.shape.str(&format!("{op:?}"));
                self.expr(input);
            }
            Expr::Cast { input, to } => {
                self.tag("cast");
                self.shape.str(&format!("{to:?}"));
                self.expr(input);
            }
            Expr::Like {
                input,
                pattern,
                negated,
            } => {
                self.tag(if *negated { "notlike" } else { "like" });
                self.constants.str(pattern);
                self.expr(input);
            }
            Expr::InList {
                input,
                list,
                negated,
            } => {
                self.tag(if *negated { "notin" } else { "in" });
                self.shape.usize(list.len());
                for s in list {
                    self.scalar(s);
                }
                self.expr(input);
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                self.tag("case");
                self.shape.usize(branches.len());
                for (c, v) in branches {
                    self.expr(c);
                    self.expr(v);
                }
                self.optional("else", otherwise.as_deref(), "noelse");
            }
            Expr::Substring { input, start, len } => {
                self.tag("substr");
                self.constants.usize(*start);
                self.constants.usize(*len);
                self.expr(input);
            }
        }
    }

    /// Literal: type tag into the shape lane, value into the constants
    /// lane — the core of the two-lane split.
    fn scalar(&mut self, s: &Scalar) {
        match s {
            Scalar::Null => self.tag("null"),
            Scalar::Bool(v) => {
                self.tag("bool");
                self.constants.u64(u64::from(*v));
            }
            Scalar::Int32(v) => {
                self.tag("i32");
                self.constants.u64(*v as u64);
            }
            Scalar::Int64(v) => {
                self.tag("i64");
                self.constants.u64(*v as u64);
            }
            Scalar::Float64(v) => {
                self.tag("f64");
                self.constants.u64(v.to_bits());
            }
            Scalar::Utf8(v) => {
                self.tag("utf8");
                self.constants.str(v);
            }
            Scalar::Date32(v) => {
                self.tag("date");
                self.constants.u64(*v as u64);
            }
        }
    }

    fn agg(&mut self, a: &AggExpr) {
        self.shape.str(&format!("{:?}", a.func));
        self.optional("arg", a.input.as_ref(), "star");
        self.shape.str(&a.name);
    }

    fn sort_key(&mut self, k: &SortExpr) {
        self.tag(if k.ascending { "asc" } else { "desc" });
        self.expr(&k.expr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr;
    use sirius_columnar::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
        ])
    }

    fn filtered(threshold: i64) -> Rel {
        PlanBuilder::scan("t", schema())
            .filter(expr::gt(expr::col(0), expr::lit(Scalar::Int64(threshold))))
            .build()
    }

    #[test]
    fn identical_plans_hash_equal() {
        assert_eq!(fingerprint(&filtered(5)), fingerprint(&filtered(5)));
    }

    #[test]
    fn literal_change_keeps_shape_moves_constants() {
        let a = fingerprint(&filtered(5));
        let b = fingerprint(&filtered(9));
        assert_eq!(a.shape, b.shape, "same shape bucket across literals");
        assert_ne!(a.constants, b.constants, "constants lane must differ");
        assert!(a.same_shape(&b));
    }

    #[test]
    fn literal_type_change_moves_shape() {
        let int = PlanBuilder::scan("t", schema())
            .filter(expr::gt(expr::col(0), expr::lit(Scalar::Int64(5))))
            .build();
        let float = PlanBuilder::scan("t", schema())
            .filter(expr::gt(expr::col(0), expr::lit(Scalar::Float64(5.0))))
            .build();
        assert_ne!(fingerprint(&int).shape, fingerprint(&float).shape);
    }

    #[test]
    fn structure_change_moves_shape() {
        let plain = filtered(5);
        let distinct = PlanBuilder::scan("t", schema())
            .filter(expr::gt(expr::col(0), expr::lit(Scalar::Int64(5))))
            .distinct()
            .build();
        assert_ne!(fingerprint(&plain).shape, fingerprint(&distinct).shape);
        let other_col = PlanBuilder::scan("t", schema())
            .filter(expr::gt(expr::col(1), expr::lit(Scalar::Int64(5))))
            .build();
        assert_ne!(fingerprint(&plain).shape, fingerprint(&other_col).shape);
    }

    #[test]
    fn table_rename_moves_shape() {
        let a = PlanBuilder::scan("t", schema()).build();
        let b = PlanBuilder::scan("u", schema()).build();
        assert_ne!(fingerprint(&a).shape, fingerprint(&b).shape);
    }

    #[test]
    fn display_is_two_hex_lanes() {
        let fp = fingerprint(&filtered(5));
        let text = fp.to_string();
        let (s, c) = text.split_once(':').expect("lane separator");
        assert_eq!(s.len(), 16);
        assert_eq!(c.len(), 16);
    }
}
