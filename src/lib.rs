//! # pyro — facade crate
//!
//! One-stop entry point for the PYRO workspace: a Rust reproduction of
//! *"Reducing Order Enforcement Cost in Complex Query Plans"*
//! (Guravannavar, Sudarshan, Diwan, Sobhan Babu; ICDE 2007).
//!
//! The front door is [`Session`]: it owns the [`catalog::Catalog`], the
//! [`core::Strategy`] and the execution knobs, and runs the whole
//! parse → lower → optimize → compile → execute pipeline behind
//! [`Session::sql`], returning a typed [`QueryResult`].
//!
//! ```
//! use pyro::{Session, SortOrder, common::Schema};
//!
//! let mut session = Session::builder().strategy_name("pyro-o").unwrap().build();
//! session
//!     .register_csv("t", Schema::ints(&["a", "b"]), SortOrder::new(["a"]), "1,2\n3,4\n")
//!     .unwrap();
//! let result = session.sql("SELECT a, b FROM t ORDER BY a, b").unwrap();
//! assert_eq!(result.len(), 2);
//! ```
//!
//! The individual layers stay public (re-exported below) for plan surgery
//! and experimentation; see `DESIGN.md` for the crate map and the Session
//! data flow, and the `examples/` directory for runnable entry points.

mod result;
mod session;

pub use result::{PlanCacheInfo, QueryResult};
pub use session::{
    Prepared, QueryStream, Session, SessionBuilder, SessionConfig, SharedPrepared,
    DEFAULT_WAL_CHECKPOINT_BYTES,
};

pub use pyro_catalog as catalog;
pub use pyro_common as common;
pub use pyro_core as core;
pub use pyro_datagen as datagen;
pub use pyro_exec as exec;
pub use pyro_ordering as ordering;
pub use pyro_sql as sql;
pub use pyro_storage as storage;

pub use pyro_common::{PyroError, Result};
pub use pyro_core::{EnumStrategy, PlanningInfo, Strategy};
pub use pyro_ordering::SortOrder;
