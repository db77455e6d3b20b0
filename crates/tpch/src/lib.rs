//! # sirius-tpch — TPC-H workload: dbgen-style generator and the 22 queries
//!
//! The paper's evaluation is TPC-H (§4.1). This crate provides a seeded,
//! scale-factor-parameterized data generator faithful to dbgen's schemas and
//! value domains — every selective predicate of the 22 queries (brands,
//! containers, ship modes, nation/region names, comment substrings like
//! `%special%requests%`, phone country codes) draws from the same domains
//! dbgen uses, so every query is exercised meaningfully at any scale — plus
//! the 22 queries in the supported SQL dialect.
//!
//! ```
//! use sirius_tpch::{TpchGenerator, queries};
//!
//! let data = TpchGenerator::new(0.001).generate();
//! assert_eq!(data.table("region").unwrap().num_rows(), 5);
//! assert_eq!(queries::all().len(), 22);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod gen;
pub mod queries;
pub mod schema;
pub mod text;

pub use gen::{TpchData, TpchGenerator};
