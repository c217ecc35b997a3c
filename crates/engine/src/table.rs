//! Hash-sharded table storage with secondary B-tree indexes.
//!
//! Row storage is partitioned into a fixed power-of-two number of
//! rid-hashed shards (`shard_of(rid) = rid & mask`), each behind its
//! own `RwLock`, so writers touching disjoint shards proceed in
//! parallel. The table-level lock in the engine catalog is demoted to
//! a schema/DDL lock: DML holds it shared and takes only the shard
//! locks it touches, schema changes and snapshots hold it exclusively.
//!
//! Lock order (global, deadlock-free): catalog → table schema lock →
//! shard locks in ascending index order → WAL mutex. Every multi-shard
//! acquisition in this module ([`Table::read_view`],
//! [`Table::lock_shards`], [`Table::lock_all_shards_write`]) acquires
//! ascending and holds until drop.
//!
//! A shard also keeps each row's write-lock owner beside the row: the id
//! of the open transaction that wrote it, until that transaction ends.
//!
//! Because consecutive rowids round-robin across shards, concurrent
//! inserters almost never collide on a shard lock.

use crate::error::EngineError;
use crate::value::{OrdValue, Value};
use cryptdb_sqlparser::ColumnType;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap};
use std::iter::Peekable;
use std::sync::atomic::{AtomicU64, Ordering};

/// Column metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnMeta {
    pub name: String,
    pub ty: ColumnType,
}

/// Shard count used by [`Table::new`] (a power of two).
const DEFAULT_SHARDS: usize = 16;

/// One hash shard: a rowid-keyed row map plus this shard's fragment of
/// every secondary index (column position → value → rowids), and the
/// row write locks held on its rows.
#[derive(Default)]
struct Shard {
    rows: BTreeMap<u64, Vec<Value>>,
    indexes: HashMap<usize, BTreeMap<OrdValue, BTreeSet<u64>>>,
    /// Rowid → id of the open transaction holding the row's write lock.
    /// An entry outlives a row its transaction deleted, so a rollback
    /// re-inserts a row nobody else could have touched.
    owners: HashMap<u64, u64>,
}

impl Shard {
    fn insert_row(&mut self, rowid: u64, row: Vec<Value>) {
        for (&col, index) in self.indexes.iter_mut() {
            index
                .entry(OrdValue(row[col].clone()))
                .or_default()
                .insert(rowid);
        }
        self.rows.insert(rowid, row);
    }

    fn remove_row(&mut self, rowid: u64) -> bool {
        let Some(row) = self.rows.remove(&rowid) else {
            return false;
        };
        for (&col, index) in self.indexes.iter_mut() {
            let key = OrdValue(row[col].clone());
            if let Some(set) = index.get_mut(&key) {
                set.remove(&rowid);
                if set.is_empty() {
                    index.remove(&key);
                }
            }
        }
        true
    }

    fn set_cell(&mut self, rowid: u64, col: usize, value: Value) {
        let Some(row) = self.rows.get_mut(&rowid) else {
            return;
        };
        let old = std::mem::replace(&mut row[col], value.clone());
        if let Some(index) = self.indexes.get_mut(&col) {
            let key = OrdValue(old);
            if let Some(set) = index.get_mut(&key) {
                set.remove(&rowid);
                if set.is_empty() {
                    index.remove(&key);
                }
            }
            index.entry(OrdValue(value)).or_default().insert(rowid);
        }
    }
}

/// An in-memory table: immutable schema + rid-hashed row shards, each
/// behind its own `RwLock`, + a lock-free rowid allocator.
pub struct Table {
    name: String,
    columns: Vec<ColumnMeta>,
    col_index: HashMap<String, usize>,
    shards: Box<[RwLock<Shard>]>,
    shard_mask: u64,
    next_rowid: AtomicU64,
}

impl Table {
    /// Creates an empty table with the default 16 shards.
    pub fn new(name: &str, columns: Vec<ColumnMeta>) -> Self {
        Self::with_shard_count(name, columns, DEFAULT_SHARDS)
    }

    /// Creates an empty table with an explicit shard count (rounded up
    /// to a power of two; tests use this to exercise small counts).
    pub fn with_shard_count(name: &str, columns: Vec<ColumnMeta>, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let col_index = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.to_lowercase(), i))
            .collect();
        Table {
            name: name.to_string(),
            columns,
            col_index,
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            shard_mask: (n - 1) as u64,
            next_rowid: AtomicU64::new(1),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column metadata in declaration order.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// Case-insensitive column lookup.
    pub fn column_position(&self, name: &str) -> Option<usize> {
        self.col_index.get(&name.to_lowercase()).copied()
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a rowid hashes to.
    pub fn shard_of(&self, rowid: u64) -> usize {
        (rowid & self.shard_mask) as usize
    }

    /// The rowid the next insert will receive.
    pub fn next_rowid(&self) -> u64 {
        self.next_rowid.load(Ordering::SeqCst)
    }

    /// Advances the rowid allocator to at least `next` (snapshot
    /// restore and WAL replay).
    pub fn set_next_rowid(&self, next: u64) {
        self.next_rowid.fetch_max(next, Ordering::SeqCst);
    }

    /// Allocates the next rowid (lock-free; the caller must insert the
    /// row under the owning shard's write lock).
    pub fn alloc_rowid(&self) -> u64 {
        self.next_rowid.fetch_add(1, Ordering::SeqCst)
    }

    /// Takes read guards on **all** shards (ascending) and returns a
    /// consistent read view of the whole table.
    pub fn read_view(&self) -> TableView<'_> {
        let guards = self.shards.iter().map(|s| s.read()).collect();
        TableView {
            table: self,
            slots: ShardSlots::Guards(guards),
        }
    }

    /// Takes write guards on exactly the shards owning `rowids`,
    /// acquired in ascending shard order (the global lock order).
    pub fn lock_shards(&self, rowids: impl IntoIterator<Item = u64>) -> ShardWriteSet<'_> {
        let mut idx: Vec<usize> = rowids.into_iter().map(|rid| self.shard_of(rid)).collect();
        idx.sort_unstable();
        idx.dedup();
        let guards = idx.iter().map(|&i| self.shards[i].write()).collect();
        ShardWriteSet {
            table: self,
            idx,
            guards,
        }
    }

    /// Takes write guards on every shard (ascending). Used by batch
    /// DML that scans while mutating, and by index DDL.
    pub fn lock_all_shards_write(&self) -> ShardWriteSet<'_> {
        let idx: Vec<usize> = (0..self.shards.len()).collect();
        let guards = self.shards.iter().map(|s| s.write()).collect();
        ShardWriteSet {
            table: self,
            idx,
            guards,
        }
    }

    /// Inserts a full-width row, returning its rowid. Convenience
    /// wrapper that allocates and takes the one shard lock internally.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the schema width (callers
    /// validate and pad first).
    pub fn insert(&self, row: Vec<Value>) -> u64 {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        let rowid = self.alloc_rowid();
        self.shards[self.shard_of(rowid)]
            .write()
            .insert_row(rowid, row);
        rowid
    }

    /// Inserts a full-width row under an explicit rowid (WAL replay and
    /// snapshot restore, where rowids must match the logged run
    /// exactly). Advances the rowid allocator past `rowid`.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the schema width.
    pub fn insert_with_rowid(&self, rowid: u64, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.shards[self.shard_of(rowid)]
            .write()
            .insert_row(rowid, row);
        self.next_rowid.fetch_max(rowid + 1, Ordering::SeqCst);
    }

    /// Deletes a row by id; returns whether it existed. Convenience
    /// wrapper that takes the one shard lock internally.
    pub fn delete(&self, rowid: u64) -> bool {
        self.shards[self.shard_of(rowid)].write().remove_row(rowid)
    }

    /// Replaces one cell, maintaining indexes. Convenience wrapper
    /// that takes the one shard lock internally.
    pub fn update_cell(&self, rowid: u64, col: usize, value: Value) {
        self.shards[self.shard_of(rowid)]
            .write()
            .set_cell(rowid, col, value);
    }

    /// Fetches one row (cloned out of its shard).
    pub fn row(&self, rowid: u64) -> Option<Vec<Value>> {
        self.shards[self.shard_of(rowid)]
            .read()
            .rows
            .get(&rowid)
            .cloned()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().rows.len()).sum()
    }

    /// Builds (or rebuilds) an index on a column, atomically across
    /// all shards (each shard carries its own index fragment).
    pub fn create_index(&self, column: &str) -> Result<(), EngineError> {
        let col = self
            .column_position(column)
            .ok_or_else(|| EngineError::ColumnNotFound(column.to_string()))?;
        let mut ws = self.lock_all_shards_write();
        for shard in ws.guards.iter_mut() {
            let mut index: BTreeMap<OrdValue, BTreeSet<u64>> = BTreeMap::new();
            for (&rowid, row) in &shard.rows {
                index
                    .entry(OrdValue(row[col].clone()))
                    .or_default()
                    .insert(rowid);
            }
            shard.indexes.insert(col, index);
        }
        Ok(())
    }

    /// Removes the index on a column, if any (the undo path for a
    /// `CREATE INDEX` whose WAL record never reached the log).
    pub fn drop_index(&self, column: &str) {
        if let Some(col) = self.column_position(column) {
            let mut ws = self.lock_all_shards_write();
            for shard in ws.guards.iter_mut() {
                shard.indexes.remove(&col);
            }
        }
    }

    /// True if the column has an index.
    pub fn has_index(&self, col: usize) -> bool {
        self.shards[0].read().indexes.contains_key(&col)
    }

    /// Column positions that carry a secondary index, sorted.
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.shards[0].read().indexes.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Rowids with `row[col] == value`, via the index.
    pub fn index_lookup(&self, col: usize, value: &Value) -> Option<Vec<u64>> {
        self.read_view().index_lookup(col, value)
    }

    /// Rowids with `low <= row[col] <= high` (either bound optional).
    pub fn index_range(
        &self,
        col: usize,
        low: Option<&Value>,
        high: Option<&Value>,
    ) -> Option<Vec<u64>> {
        self.read_view().index_range(col, low, high)
    }

    /// Total storage footprint of all cells (§8.4.3).
    pub fn storage_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .rows
                    .values()
                    .map(|r| r.iter().map(Value::storage_bytes).sum::<usize>())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Releases `txn`'s write lock on a row (no-op if another owner,
    /// or none, holds it).
    pub(crate) fn release_row(&self, rowid: u64, txn: u64) {
        let mut shard = self.shards[self.shard_of(rowid)].write();
        if shard.owners.get(&rowid) == Some(&txn) {
            shard.owners.remove(&rowid);
        }
    }
}

/// How a [`TableView`] holds its shards: own read guards, or shard
/// references borrowed from a [`ShardWriteSet`] that already holds
/// every shard's write guard.
enum ShardSlots<'a> {
    Guards(Vec<RwLockReadGuard<'a, Shard>>),
    Borrowed(Vec<&'a Shard>),
}

/// A consistent read view over all shards of one table. Holds the
/// shard locks for its lifetime; iteration order and index results are
/// byte-identical to the pre-sharding single-map layout.
pub struct TableView<'a> {
    table: &'a Table,
    slots: ShardSlots<'a>,
}

impl<'a> TableView<'a> {
    fn shard(&self, i: usize) -> &Shard {
        match &self.slots {
            ShardSlots::Guards(g) => &g[i],
            ShardSlots::Borrowed(b) => b[i],
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        self.table.name()
    }

    /// Column metadata in declaration order.
    pub fn columns(&self) -> &[ColumnMeta] {
        self.table.columns()
    }

    /// Case-insensitive column lookup.
    pub fn column_position(&self, name: &str) -> Option<usize> {
        self.table.column_position(name)
    }

    /// Number of shards in the view.
    pub fn shard_count(&self) -> usize {
        self.table.shard_count()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        (0..self.shard_count())
            .map(|i| self.shard(i).rows.len())
            .sum()
    }

    /// The rowid the next insert will receive.
    pub fn next_rowid(&self) -> u64 {
        self.table.next_rowid()
    }

    /// Fetches one row.
    pub fn row(&self, rowid: u64) -> Option<&Vec<Value>> {
        self.shard(self.table.shard_of(rowid)).rows.get(&rowid)
    }

    /// Iterates `(rowid, row)` across all shards in ascending rowid
    /// order (k-way merge over the per-shard B-tree maps).
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            iters: (0..self.shard_count())
                .map(|i| self.shard(i).rows.iter().peekable())
                .collect(),
        }
    }

    /// Iterates `(rowid, row)` within one shard, ascending by rowid.
    pub fn shard_iter(&self, shard: usize) -> impl Iterator<Item = (u64, &Vec<Value>)> {
        self.shard(shard).rows.iter().map(|(id, r)| (*id, r))
    }

    /// True if the column has an index.
    pub fn has_index(&self, col: usize) -> bool {
        self.shard(0).indexes.contains_key(&col)
    }

    /// Column positions that carry a secondary index, sorted.
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.shard(0).indexes.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Rowids with `row[col] == value`, via the per-shard index
    /// fragments; ascending, matching the pre-sharding order.
    pub fn index_lookup(&self, col: usize, value: &Value) -> Option<Vec<u64>> {
        if !self.has_index(col) {
            return None;
        }
        let key = OrdValue(value.clone());
        let mut out = Vec::new();
        for i in 0..self.shard_count() {
            if let Some(set) = self.shard(i).indexes.get(&col).and_then(|ix| ix.get(&key)) {
                out.extend(set.iter().copied());
            }
        }
        out.sort_unstable();
        Some(out)
    }

    /// Rowids with `low <= row[col] <= high` (either bound optional),
    /// in `(value, rowid)` ascending order like the pre-sharding
    /// single B-tree.
    pub fn index_range(
        &self,
        col: usize,
        low: Option<&Value>,
        high: Option<&Value>,
    ) -> Option<Vec<u64>> {
        use std::ops::Bound;
        if !self.has_index(col) {
            return None;
        }
        let lo = low.map_or(Bound::Unbounded, |v| Bound::Included(OrdValue(v.clone())));
        let hi = high.map_or(Bound::Unbounded, |v| Bound::Included(OrdValue(v.clone())));
        let mut pairs: Vec<(&OrdValue, u64)> = Vec::new();
        for i in 0..self.shard_count() {
            if let Some(ix) = self.shard(i).indexes.get(&col) {
                for (k, set) in ix.range((lo.clone(), hi.clone())) {
                    pairs.extend(set.iter().map(|&rid| (k, rid)));
                }
            }
        }
        pairs.sort_unstable();
        Some(pairs.into_iter().map(|(_, rid)| rid).collect())
    }

    /// `index_lookup(col, value)`'s length, without collecting it.
    pub fn index_count(&self, col: usize, value: &Value) -> Option<usize> {
        if !self.has_index(col) {
            return None;
        }
        let key = OrdValue(value.clone());
        Some(
            (0..self.shard_count())
                .filter_map(|i| {
                    self.shard(i)
                        .indexes
                        .get(&col)?
                        .get(&key)
                        .map(BTreeSet::len)
                })
                .sum(),
        )
    }

    /// `index_range(col, low, high)`'s length, or any number above
    /// `cap` once it is known to exceed `cap`: visits at most `cap + 1`
    /// index keys per shard.
    pub fn index_range_count(
        &self,
        col: usize,
        low: Option<&Value>,
        high: Option<&Value>,
        cap: usize,
    ) -> Option<usize> {
        use std::ops::Bound;
        if !self.has_index(col) {
            return None;
        }
        let lo = low.map_or(Bound::Unbounded, |v| Bound::Included(OrdValue(v.clone())));
        let hi = high.map_or(Bound::Unbounded, |v| Bound::Included(OrdValue(v.clone())));
        let mut n = 0;
        for i in 0..self.shard_count() {
            if let Some(ix) = self.shard(i).indexes.get(&col) {
                for (_, set) in ix.range((lo.clone(), hi.clone())) {
                    n += set.len();
                    if n > cap {
                        return Some(n);
                    }
                }
            }
        }
        Some(n)
    }

    /// Total storage footprint of all cells (§8.4.3).
    pub fn storage_bytes(&self) -> usize {
        (0..self.shard_count())
            .map(|i| {
                self.shard(i)
                    .rows
                    .values()
                    .map(|r| r.iter().map(Value::storage_bytes).sum::<usize>())
                    .sum::<usize>()
            })
            .sum()
    }
}

/// Ascending-rowid merge over per-shard row maps.
pub struct RowIter<'v> {
    iters: Vec<Peekable<btree_map::Iter<'v, u64, Vec<Value>>>>,
}

impl<'v> Iterator for RowIter<'v> {
    type Item = (u64, &'v Vec<Value>);

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<(usize, u64)> = None;
        for (i, it) in self.iters.iter_mut().enumerate() {
            if let Some((&rid, _)) = it.peek() {
                if best.is_none_or(|(_, b)| rid < b) {
                    best = Some((i, rid));
                }
            }
        }
        let (i, _) = best?;
        self.iters[i].next().map(|(id, r)| (*id, r))
    }
}

/// Write guards over a set of shards, acquired in ascending shard
/// order and held until drop (two-phase locking: a statement's
/// mutations and its WAL record are built under these guards).
pub struct ShardWriteSet<'a> {
    table: &'a Table,
    /// Sorted shard indices, parallel to `guards`.
    idx: Vec<usize>,
    guards: Vec<RwLockWriteGuard<'a, Shard>>,
}

impl ShardWriteSet<'_> {
    fn slot(&self, rowid: u64) -> usize {
        let shard = self.table.shard_of(rowid);
        self.idx
            .binary_search(&shard)
            .unwrap_or_else(|_| panic!("shard {shard} not locked for rowid {rowid}"))
    }

    /// Number of shards locked by this set.
    pub fn locked_shards(&self) -> usize {
        self.idx.len()
    }

    /// Inserts a full-width row under an explicit rowid.
    ///
    /// # Panics
    ///
    /// Panics if the rowid's shard is not in the locked set or the row
    /// width differs from the schema width.
    pub fn insert_row(&mut self, rowid: u64, row: Vec<Value>) {
        assert_eq!(row.len(), self.table.columns().len(), "row width mismatch");
        let slot = self.slot(rowid);
        self.guards[slot].insert_row(rowid, row);
    }

    /// Deletes a row; returns whether it existed.
    pub fn delete(&mut self, rowid: u64) -> bool {
        let slot = self.slot(rowid);
        self.guards[slot].remove_row(rowid)
    }

    /// Replaces one cell, maintaining this shard's index fragments.
    pub fn update_cell(&mut self, rowid: u64, col: usize, value: Value) {
        let slot = self.slot(rowid);
        self.guards[slot].set_cell(rowid, col, value);
    }

    /// Fetches one row from a locked shard.
    pub fn row(&self, rowid: u64) -> Option<&Vec<Value>> {
        self.guards[self.slot(rowid)].rows.get(&rowid)
    }

    /// The open transaction holding the row's write lock, if any.
    pub(crate) fn owner(&self, rowid: u64) -> Option<u64> {
        self.guards[self.slot(rowid)].owners.get(&rowid).copied()
    }

    /// Records `txn` as the row's write-lock owner; returns whether the
    /// row was not already `txn`'s.
    pub(crate) fn lock_row(&mut self, rowid: u64, txn: u64) -> bool {
        let slot = self.slot(rowid);
        self.guards[slot].owners.insert(rowid, txn) != Some(txn)
    }

    /// Drops the row's write-lock entry (the undo path of a statement
    /// whose record never reached the log).
    pub(crate) fn unlock_row(&mut self, rowid: u64) {
        let slot = self.slot(rowid);
        self.guards[slot].owners.remove(&rowid);
    }

    /// A full-table view borrowed from these write guards. Only valid
    /// when every shard is locked (batch DML scans while mutating).
    ///
    /// # Panics
    ///
    /// Panics if the set does not cover all shards.
    pub fn as_view(&self) -> TableView<'_> {
        assert_eq!(
            self.idx.len(),
            self.table.shard_count(),
            "as_view requires all shards locked"
        );
        TableView {
            table: self.table,
            slots: ShardSlots::Borrowed(self.guards.iter().map(|g| &**g).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        let t = Table::with_shard_count(
            "t",
            vec![
                ColumnMeta {
                    name: "id".into(),
                    ty: ColumnType::Int,
                },
                ColumnMeta {
                    name: "name".into(),
                    ty: ColumnType::Text,
                },
            ],
            4,
        );
        t.create_index("id").unwrap();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::Str(format!("row{i}"))]);
        }
        t
    }

    #[test]
    fn insert_and_lookup() {
        let t = t();
        assert_eq!(t.row_count(), 10);
        let ids = t.index_lookup(0, &Value::Int(5)).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(t.row(ids[0]).unwrap()[1], Value::Str("row5".into()));
    }

    #[test]
    fn range_scan() {
        let t = t();
        let ids = t
            .index_range(0, Some(&Value::Int(3)), Some(&Value::Int(6)))
            .unwrap();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn delete_maintains_index() {
        let t = t();
        let ids = t.index_lookup(0, &Value::Int(5)).unwrap();
        assert!(t.delete(ids[0]));
        assert!(t.index_lookup(0, &Value::Int(5)).unwrap().is_empty());
        assert_eq!(t.row_count(), 9);
    }

    #[test]
    fn update_maintains_index() {
        let t = t();
        let ids = t.index_lookup(0, &Value::Int(5)).unwrap();
        t.update_cell(ids[0], 0, Value::Int(100));
        assert!(t.index_lookup(0, &Value::Int(5)).unwrap().is_empty());
        assert_eq!(t.index_lookup(0, &Value::Int(100)).unwrap(), ids);
    }

    #[test]
    fn index_built_over_existing_rows() {
        let t = t();
        t.create_index("name").unwrap();
        let ids = t.index_lookup(1, &Value::Str("row7".into())).unwrap();
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn case_insensitive_columns() {
        let t = t();
        assert_eq!(t.column_position("ID"), Some(0));
        assert_eq!(t.column_position("Name"), Some(1));
        assert_eq!(t.column_position("missing"), None);
    }

    #[test]
    fn view_iterates_in_ascending_rowid_order() {
        let t = t();
        let view = t.read_view();
        let ids: Vec<u64> = view.iter().map(|(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn every_rowid_lives_in_its_hash_shard() {
        let t = t();
        let view = t.read_view();
        let mut union = 0;
        for s in 0..view.shard_count() {
            for (rid, _) in view.shard_iter(s) {
                assert_eq!(t.shard_of(rid), s);
                union += 1;
            }
        }
        assert_eq!(union, view.row_count());
    }

    #[test]
    fn shard_write_set_routes_by_rowid() {
        let t = t();
        let all: Vec<u64> = t.read_view().iter().map(|(id, _)| id).collect();
        let mut ws = t.lock_shards([all[0], all[5]]);
        assert!(ws.locked_shards() <= 2);
        assert!(ws.row(all[0]).is_some());
        assert!(ws.delete(all[0]));
        assert!(ws.row(all[0]).is_none());
        ws.update_cell(all[5], 0, Value::Int(77));
        drop(ws);
        assert_eq!(t.row_count(), 9);
        assert_eq!(t.index_lookup(0, &Value::Int(77)).unwrap().len(), 1);
    }
}
