//! Error handling shared across the workspace.
//!
//! Every [`PyroError`] variant carries a **stable numeric code**
//! ([`PyroError::code`]) so machine consumers — above all the `pyro-wire`
//! error frame — can match on errors without parsing display strings. Codes
//! are append-only: a variant's code never changes and retired codes are
//! never reused. The [`PyroError::detail`] / [`PyroError::from_code`] pair
//! round-trips a variant through `(code, detail)` — the exact payload a
//! wire error frame carries.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, PyroError>;

/// Separator used when a structured variant flattens multiple fields into
/// one `detail` string (ASCII unit separator — cannot appear in SQL
/// identifiers).
const FIELD_SEP: char = '\u{1f}';

/// Every way a PYRO operation can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PyroError {
    /// A column name did not resolve against a schema.
    UnknownColumn(String),
    /// A column suffix matched more than one qualified name.
    AmbiguousColumn(String),
    /// A table name did not resolve against the catalog.
    UnknownTable(String),
    /// Storage-layer failure (out-of-range page, corrupt encoding, ...).
    Storage(String),
    /// Executor failure (schema mismatch, unsupported expression, ...).
    Exec(String),
    /// Optimizer failure (no plan found, inconsistent properties, ...).
    Plan(String),
    /// SQL frontend failure with position information where available.
    Sql(String),
    /// A recognized SQL feature this engine deliberately does not implement
    /// (e.g. `ORDER BY ... DESC`). Distinct from [`PyroError::Sql`] so
    /// callers can tell "your query is malformed" from "your query is fine
    /// but unsupported here".
    Unsupported(String),
    /// An index with this name already exists on the table. Rejected rather
    /// than silently replaced: replacing would orphan the old entry file's
    /// pages in the store.
    DuplicateIndex {
        /// The table the index was being created on.
        table: String,
        /// The already-taken index name.
        index: String,
    },
    /// A prepared statement was executed with the wrong number of bound
    /// parameters, or a bound value's type contradicts how the query uses
    /// the placeholder.
    ParamBinding(String),
    /// A wire-protocol violation: malformed frame, unknown opcode,
    /// handshake mismatch, unknown statement id, registry limits. The peer
    /// sent bytes the protocol does not allow — as opposed to a well-formed
    /// request that failed ([`PyroError::Sql`], [`PyroError::Exec`], ...).
    Wire(String),
    /// The server's admission gate shed this query: the concurrency limit
    /// and the bounded wait queue were both full (or the queue wait timed
    /// out). The request was *not* executed; retrying later is safe.
    ServerOverloaded(String),
    /// The query exceeded a per-query resource budget (result rows or
    /// response bytes) and was cancelled mid-stream. Rows already delivered
    /// are valid but the result is truncated.
    BudgetExceeded(String),
    /// A page read from durable storage failed its CRC32 check: the bytes
    /// on disk are not the bytes that were written (torn write, bit rot,
    /// out-of-band modification). Surfaced instead of decoding garbage.
    ChecksumMismatch {
        /// The page whose checksum failed.
        page: u64,
        /// The checksum stored in the page header.
        stored: u32,
        /// The checksum computed over the bytes actually read.
        computed: u32,
    },
    /// An operating-system I/O failure from the durable storage layer
    /// (open, read, write, fsync, ...) — the file-backed sibling of
    /// [`PyroError::Storage`], distinct so callers can tell "the engine
    /// rejected this" from "the disk did".
    Io(String),
    /// Crash recovery could not restore a consistent state from a data
    /// directory: bad superblock magic, undecodable catalog root, a catalog
    /// page chain pointing outside the file. Distinct from
    /// [`PyroError::ChecksumMismatch`] (a single unreadable page) — this is
    /// "the directory as a whole does not describe a database".
    Recovery(String),
    /// A row handed to a table load does not fit the table: wrong arity, a
    /// value whose type is not its column's (NULL fits any column), or a
    /// row out of the declared clustering order. Rejected before a page is
    /// written, so no query ever sees the table.
    InvalidRow {
        /// The table being loaded.
        table: String,
        /// The offending row's position in the load (0-based).
        row: u64,
        /// The column where the row fails.
        column: String,
        /// What is wrong there.
        problem: String,
    },
}

/// Stable numeric codes, one per [`PyroError`] variant.
///
/// Append-only: never renumber, never reuse. The `pyro-wire` error frame
/// carries these on the wire; clients match on them.
pub mod codes {
    /// [`super::PyroError::UnknownColumn`]
    pub const UNKNOWN_COLUMN: u16 = 1;
    /// [`super::PyroError::AmbiguousColumn`]
    pub const AMBIGUOUS_COLUMN: u16 = 2;
    /// [`super::PyroError::UnknownTable`]
    pub const UNKNOWN_TABLE: u16 = 3;
    /// [`super::PyroError::Storage`]
    pub const STORAGE: u16 = 4;
    // 5 was `PoolExhausted`, retired when the buffer pool stopped pinning
    // frames; it is never reused.
    /// [`super::PyroError::Exec`]
    pub const EXEC: u16 = 6;
    /// [`super::PyroError::Plan`]
    pub const PLAN: u16 = 7;
    /// [`super::PyroError::Sql`]
    pub const SQL: u16 = 8;
    /// [`super::PyroError::Unsupported`]
    pub const UNSUPPORTED: u16 = 9;
    /// [`super::PyroError::DuplicateIndex`]
    pub const DUPLICATE_INDEX: u16 = 10;
    /// [`super::PyroError::ParamBinding`]
    pub const PARAM_BINDING: u16 = 11;
    /// [`super::PyroError::Wire`]
    pub const WIRE: u16 = 12;
    /// [`super::PyroError::ServerOverloaded`]
    pub const SERVER_OVERLOADED: u16 = 13;
    /// [`super::PyroError::BudgetExceeded`]
    pub const BUDGET_EXCEEDED: u16 = 14;
    /// [`super::PyroError::ChecksumMismatch`]
    pub const CHECKSUM_MISMATCH: u16 = 15;
    /// [`super::PyroError::Io`]
    pub const IO: u16 = 16;
    /// [`super::PyroError::Recovery`]
    pub const RECOVERY: u16 = 17;
    /// [`super::PyroError::InvalidRow`]
    pub const INVALID_ROW: u16 = 18;
}

impl PyroError {
    /// This variant's stable numeric code (see [`codes`]).
    pub fn code(&self) -> u16 {
        match self {
            PyroError::UnknownColumn(_) => codes::UNKNOWN_COLUMN,
            PyroError::AmbiguousColumn(_) => codes::AMBIGUOUS_COLUMN,
            PyroError::UnknownTable(_) => codes::UNKNOWN_TABLE,
            PyroError::Storage(_) => codes::STORAGE,
            PyroError::Exec(_) => codes::EXEC,
            PyroError::Plan(_) => codes::PLAN,
            PyroError::Sql(_) => codes::SQL,
            PyroError::Unsupported(_) => codes::UNSUPPORTED,
            PyroError::DuplicateIndex { .. } => codes::DUPLICATE_INDEX,
            PyroError::ParamBinding(_) => codes::PARAM_BINDING,
            PyroError::Wire(_) => codes::WIRE,
            PyroError::ServerOverloaded(_) => codes::SERVER_OVERLOADED,
            PyroError::BudgetExceeded(_) => codes::BUDGET_EXCEEDED,
            PyroError::ChecksumMismatch { .. } => codes::CHECKSUM_MISMATCH,
            PyroError::Io(_) => codes::IO,
            PyroError::Recovery(_) => codes::RECOVERY,
            PyroError::InvalidRow { .. } => codes::INVALID_ROW,
        }
    }

    /// The variant's payload without the display prefix — what a wire
    /// error frame carries next to [`PyroError::code`]. Structured variants
    /// flatten their fields with an ASCII unit separator;
    /// [`PyroError::from_code`] reverses the flattening exactly.
    pub fn detail(&self) -> String {
        match self {
            PyroError::UnknownColumn(s)
            | PyroError::AmbiguousColumn(s)
            | PyroError::UnknownTable(s)
            | PyroError::Storage(s)
            | PyroError::Exec(s)
            | PyroError::Plan(s)
            | PyroError::Sql(s)
            | PyroError::Unsupported(s)
            | PyroError::ParamBinding(s)
            | PyroError::Wire(s)
            | PyroError::ServerOverloaded(s)
            | PyroError::BudgetExceeded(s)
            | PyroError::Io(s)
            | PyroError::Recovery(s) => s.clone(),
            PyroError::DuplicateIndex { table, index } => {
                format!("{table}{FIELD_SEP}{index}")
            }
            PyroError::ChecksumMismatch {
                page,
                stored,
                computed,
            } => format!("{page}{FIELD_SEP}{stored}{FIELD_SEP}{computed}"),
            PyroError::InvalidRow {
                table,
                row,
                column,
                problem,
            } => format!("{table}{FIELD_SEP}{row}{FIELD_SEP}{column}{FIELD_SEP}{problem}"),
        }
    }

    /// Rebuilds the error a `(code, detail)` pair describes — the inverse
    /// of [`PyroError::code`] / [`PyroError::detail`], used by wire clients
    /// to surface a server-side error as the same typed variant the server
    /// produced. An unknown code (a newer server) degrades to
    /// [`PyroError::Wire`] carrying both.
    pub fn from_code(code: u16, detail: &str) -> PyroError {
        match code {
            codes::UNKNOWN_COLUMN => PyroError::UnknownColumn(detail.into()),
            codes::AMBIGUOUS_COLUMN => PyroError::AmbiguousColumn(detail.into()),
            codes::UNKNOWN_TABLE => PyroError::UnknownTable(detail.into()),
            codes::STORAGE => PyroError::Storage(detail.into()),
            codes::EXEC => PyroError::Exec(detail.into()),
            codes::PLAN => PyroError::Plan(detail.into()),
            codes::SQL => PyroError::Sql(detail.into()),
            codes::UNSUPPORTED => PyroError::Unsupported(detail.into()),
            codes::DUPLICATE_INDEX => {
                let (table, index) = detail.split_once(FIELD_SEP).unwrap_or((detail, ""));
                PyroError::DuplicateIndex {
                    table: table.into(),
                    index: index.into(),
                }
            }
            codes::PARAM_BINDING => PyroError::ParamBinding(detail.into()),
            codes::WIRE => PyroError::Wire(detail.into()),
            codes::SERVER_OVERLOADED => PyroError::ServerOverloaded(detail.into()),
            codes::BUDGET_EXCEEDED => PyroError::BudgetExceeded(detail.into()),
            codes::CHECKSUM_MISMATCH => {
                let mut parts = detail.split(FIELD_SEP);
                let mut num = || parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
                PyroError::ChecksumMismatch {
                    page: num(),
                    stored: num() as u32,
                    computed: num() as u32,
                }
            }
            codes::IO => PyroError::Io(detail.into()),
            codes::RECOVERY => PyroError::Recovery(detail.into()),
            codes::INVALID_ROW => {
                let mut parts = detail.splitn(4, FIELD_SEP);
                let mut next = || parts.next().unwrap_or("").to_string();
                PyroError::InvalidRow {
                    table: next(),
                    row: next().parse().unwrap_or(0),
                    column: next(),
                    problem: next(),
                }
            }
            unknown => PyroError::Wire(format!("unknown error code {unknown}: {detail}")),
        }
    }
}

impl fmt::Display for PyroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PyroError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            PyroError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            PyroError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            PyroError::Storage(m) => write!(f, "storage error: {m}"),
            PyroError::Exec(m) => write!(f, "execution error: {m}"),
            PyroError::Plan(m) => write!(f, "planning error: {m}"),
            PyroError::Sql(m) => write!(f, "SQL error: {m}"),
            PyroError::Unsupported(m) => write!(f, "unsupported SQL feature: {m}"),
            PyroError::DuplicateIndex { table, index } => {
                write!(f, "index {index} already exists on table {table}")
            }
            PyroError::ParamBinding(m) => write!(f, "parameter binding error: {m}"),
            PyroError::Wire(m) => write!(f, "wire protocol error: {m}"),
            PyroError::ServerOverloaded(m) => write!(f, "server overloaded: {m}"),
            PyroError::BudgetExceeded(m) => write!(f, "query budget exceeded: {m}"),
            PyroError::ChecksumMismatch {
                page,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch on page {page}: stored {stored:#010x}, \
                 computed {computed:#010x}"
            ),
            PyroError::Io(m) => write!(f, "I/O error: {m}"),
            PyroError::Recovery(m) => write!(f, "recovery error: {m}"),
            PyroError::InvalidRow {
                table,
                row,
                column,
                problem,
            } => write!(
                f,
                "invalid row {row} for table {table}, column {column}: {problem}"
            ),
        }
    }
}

impl std::error::Error for PyroError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// One exemplar per variant — extend when adding a variant (the
    /// uniqueness and round-trip tests iterate this list).
    fn exemplars() -> Vec<PyroError> {
        vec![
            PyroError::UnknownColumn("x".into()),
            PyroError::AmbiguousColumn("partkey".into()),
            PyroError::UnknownTable("nope".into()),
            PyroError::Storage("page 9 out of range".into()),
            PyroError::Exec("schema mismatch".into()),
            PyroError::Plan("no plan found".into()),
            PyroError::Sql("expected FROM at offset 12".into()),
            PyroError::Unsupported("ORDER BY ... DESC".into()),
            PyroError::DuplicateIndex {
                table: "lineitem".into(),
                index: "l_suppkey_cov".into(),
            },
            PyroError::ParamBinding("statement takes 1 parameter(s), 0 bound".into()),
            PyroError::Wire("unknown opcode 0x7f".into()),
            PyroError::ServerOverloaded("2 running, 4 queued".into()),
            PyroError::BudgetExceeded("row budget 100 exceeded".into()),
            PyroError::ChecksumMismatch {
                page: 42,
                stored: 0xDEADBEEF,
                computed: 0x01020304,
            },
            PyroError::Io("pwrite data.pyro: No space left on device".into()),
            PyroError::Recovery("catalog root has bad magic".into()),
            PyroError::InvalidRow {
                table: "t".into(),
                row: 2,
                column: "a".into(),
                problem: "Str(\"x\") is not of type INT".into(),
            },
        ]
    }

    #[test]
    fn display_is_informative() {
        let e = PyroError::UnknownColumn("x".into());
        assert!(e.to_string().contains("unknown column"));
        let e = PyroError::Sql("expected FROM at offset 12".into());
        assert!(e.to_string().contains("offset 12"));
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<u16> = exemplars().iter().map(PyroError::code).collect();
        codes.sort_unstable();
        let n = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), n, "two variants share an error code");
    }

    #[test]
    fn codes_are_stable() {
        // The wire contract: these exact numbers, forever. A failure here
        // means a renumbering that would break deployed clients.
        let expected: Vec<u16> = (1..=18).filter(|&c| c != 5).collect();
        let actual: Vec<u16> = exemplars().iter().map(PyroError::code).collect();
        assert_eq!(actual, expected);
        // 5 is retired: no variant carries it, and it reads back as an
        // unknown code.
        assert!(!actual.contains(&5));
        assert!(matches!(PyroError::from_code(5, "x"), PyroError::Wire(_)));
        assert_eq!(codes::SERVER_OVERLOADED, 13);
        assert_eq!(codes::BUDGET_EXCEEDED, 14);
        assert_eq!(codes::WIRE, 12);
        assert_eq!(codes::CHECKSUM_MISMATCH, 15);
        assert_eq!(codes::IO, 16);
        assert_eq!(codes::RECOVERY, 17);
        assert_eq!(codes::INVALID_ROW, 18);
    }

    #[test]
    fn code_detail_round_trips_every_variant() {
        for e in exemplars() {
            let rebuilt = PyroError::from_code(e.code(), &e.detail());
            assert_eq!(rebuilt, e, "round trip lost information");
        }
    }

    #[test]
    fn unknown_code_degrades_to_wire_error() {
        let e = PyroError::from_code(9999, "future variant");
        assert_eq!(e.code(), codes::WIRE);
        assert!(e.to_string().contains("9999"));
    }
}
