//! Per-connection prepared-statement registry.
//!
//! Each connection owns one [`StmtRegistry`] mapping server-assigned
//! statement ids to [`SharedPrepared`] handles. Ids come from a counter
//! that skips 0 and every id still registered, so an open statement's id
//! addresses only that statement. A closed statement's id is handed out
//! again only after the counter wraps past `u32::MAX`; until then a stale
//! id can only miss. The registry is bounded: a client leaking statements
//! gets a typed error instead of exhausting server memory.

use pyro::SharedPrepared;
use pyro_common::{PyroError, Result};
use std::collections::HashMap;

/// Bounded id → statement map; see the [module docs](self).
#[derive(Debug)]
pub struct StmtRegistry {
    map: HashMap<u32, SharedPrepared>,
    next_id: u32,
    capacity: usize,
}

impl StmtRegistry {
    /// A registry holding at most `capacity` statements (floor 1).
    pub fn new(capacity: usize) -> StmtRegistry {
        StmtRegistry {
            map: HashMap::new(),
            next_id: 1,
            capacity: capacity.max(1),
        }
    }

    /// Registers a statement, assigning the connection's next free id.
    pub fn insert(&mut self, stmt: SharedPrepared) -> Result<u32> {
        if self.map.len() >= self.capacity {
            return Err(PyroError::Wire(format!(
                "prepared-statement registry full ({} statements); CLOSE one first",
                self.capacity
            )));
        }
        let step = |id: u32| id.wrapping_add(1).max(1);
        // The registry is not full, so this skips at most `capacity` ids.
        let mut id = self.next_id;
        while self.map.contains_key(&id) {
            id = step(id);
        }
        self.next_id = step(id);
        self.map.insert(id, stmt);
        Ok(id)
    }

    /// Looks up a statement by id.
    pub fn get(&self, id: u32) -> Result<&SharedPrepared> {
        self.map
            .get(&id)
            .ok_or_else(|| PyroError::Wire(format!("unknown statement id {id}")))
    }

    /// Closes a statement; an unknown id is a typed error.
    pub fn remove(&mut self, id: u32) -> Result<()> {
        self.map
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| PyroError::Wire(format!("unknown statement id {id}")))
    }

    /// Statements currently registered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no statements are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro::{Session, SortOrder};
    use pyro_common::Schema;
    use std::sync::Arc;

    fn prepared(sql: &str) -> SharedPrepared {
        let mut session = Session::new();
        session
            .register_csv("t", Schema::ints(&["a"]), SortOrder::new(["a"]), "1\n")
            .unwrap();
        Arc::new(session).prepare_shared(sql).unwrap()
    }

    fn stmt() -> SharedPrepared {
        prepared("SELECT a FROM t")
    }

    #[test]
    fn ids_are_monotonic_and_never_reused() {
        let mut reg = StmtRegistry::new(4);
        let a = reg.insert(stmt()).unwrap();
        let b = reg.insert(stmt()).unwrap();
        assert!(b > a);
        reg.remove(a).unwrap();
        let c = reg.insert(stmt()).unwrap();
        assert!(c > b, "closed id must not be recycled");
        assert!(reg.get(a).is_err(), "closed id misses");
        assert!(reg.get(b).is_ok() && reg.get(c).is_ok());
    }

    #[test]
    fn bounded_with_typed_error() {
        let mut reg = StmtRegistry::new(2);
        reg.insert(stmt()).unwrap();
        reg.insert(stmt()).unwrap();
        let e = reg.insert(stmt()).expect_err("registry is full");
        assert!(matches!(e, PyroError::Wire(_)), "{e}");
        assert_eq!(reg.len(), 2);
        reg.remove(1).unwrap();
        assert!(reg.insert(stmt()).is_ok(), "freed capacity readmits");
    }

    #[test]
    fn unknown_ids_are_typed_errors() {
        let mut reg = StmtRegistry::new(2);
        assert!(reg.get(7).is_err());
        assert!(reg.remove(7).is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn wrapped_counter_skips_live_ids() {
        let mut reg = StmtRegistry::new(4);
        let first = reg.insert(stmt()).unwrap();
        assert_eq!(first, 1);
        reg.next_id = u32::MAX;
        let last = reg.insert(stmt()).unwrap();
        let bound = reg.insert(prepared("SELECT a FROM t WHERE a = ?")).unwrap();
        assert_eq!(last, u32::MAX);
        assert_eq!(bound, 2, "the wrapped counter skips 0 and the live id 1");
        assert_eq!(reg.len(), 3, "no statement was replaced");
        assert_eq!(reg.get(first).unwrap().param_count(), 0);
        assert_eq!(reg.get(bound).unwrap().param_count(), 1);
    }
}
