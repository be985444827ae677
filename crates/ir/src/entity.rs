//! Entity arenas and uniquing tables underlying the [`Context`].
//!
//! Two storage primitives are provided:
//!
//! - [`EntityArena`], a slot map with a free list for mutable IR entities
//!   (operations, blocks, regions). Erasing an entity tombstones its slot;
//!   accessing an erased handle panics, catching use-after-erase bugs early.
//! - [`UniqueArena`], an append-only structural-uniquing table for immutable
//!   values (types, attributes, symbols). Interning the same data twice
//!   yields the same index, so handle equality is value equality.
//!
//! [`Context`]: crate::Context

use std::hash::Hash;

/// Defines a `Copy` newtype handle over a `u32` arena index.
macro_rules! entity_handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Returns the raw arena index of this handle.
            ///
            /// Indices are only meaningful relative to the
            /// [`Context`](crate::Context) that produced them.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Reconstructs a handle from a raw index previously obtained
            /// via [`Self::index`].
            pub fn from_index(index: usize) -> Self {
                Self(index as u32)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}
pub(crate) use entity_handle;

/// A slot-map arena: stable `u32` handles, O(1) allocation and erasure.
///
/// Erased slots are reused through a free list. The arena deliberately does
/// not use generation counters: IR handles are expected to be managed by the
/// owning [`Context`](crate::Context), and touching an erased handle is a
/// logic error that panics.
#[derive(Debug, Clone, Default)]
pub struct EntityArena<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> EntityArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        EntityArena { slots: Vec::new(), free: Vec::new(), live: 0 }
    }

    /// Inserts `value` and returns its slot index.
    pub fn alloc(&mut self, value: T) -> u32 {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(value);
            idx
        } else {
            self.slots.push(Some(value));
            (self.slots.len() - 1) as u32
        }
    }

    /// Returns a reference to the entity at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was erased or never allocated.
    pub fn get(&self, idx: u32) -> &T {
        self.slots[idx as usize]
            .as_ref()
            .expect("access to erased IR entity")
    }

    /// Returns a mutable reference to the entity at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was erased or never allocated.
    pub fn get_mut(&mut self, idx: u32) -> &mut T {
        self.slots[idx as usize]
            .as_mut()
            .expect("access to erased IR entity")
    }

    /// Removes and returns the entity at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was already erased.
    pub fn erase(&mut self, idx: u32) -> T {
        let value = self.slots[idx as usize]
            .take()
            .expect("double-erase of IR entity");
        self.free.push(idx);
        self.live -= 1;
        value
    }

    /// Returns `true` if `idx` refers to a live entity.
    pub fn is_live(&self, idx: u32) -> bool {
        (idx as usize) < self.slots.len() && self.slots[idx as usize].is_some()
    }

    /// Number of live entities.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if the arena holds no live entities.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over `(index, entity)` pairs of live entities.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|value| (i as u32, value)))
    }
}

/// A dense map from arena slot index to `u32`, cleared in O(1).
///
/// Each entry packs the generation that wrote it above its value, so
/// [`SlotIds::reset`] invalidates every entry by bumping the generation:
/// the buffer is never cleared and lookups never hash. The module writers
/// number ops and blocks with it, and `erase_op` marks subtree members.
pub(crate) struct SlotIds {
    /// `generation << 32 | value`; live iff the generation is current.
    entries: Vec<u64>,
    generation: u32,
}

impl Default for SlotIds {
    fn default() -> Self {
        // Fresh entries are zero, so generation 0 is never current.
        SlotIds { entries: Vec::new(), generation: 1 }
    }
}

impl std::fmt::Debug for SlotIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotIds")
            .field("slots", &self.entries.len())
            .field("generation", &self.generation)
            .finish()
    }
}

impl SlotIds {
    /// Forgets every entry.
    pub(crate) fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.entries.fill(0);
            self.generation = 1;
        }
    }

    /// The value stored for `slot` since the last reset.
    #[inline]
    pub(crate) fn get(&self, slot: usize) -> Option<u32> {
        let entry = *self.entries.get(slot)?;
        ((entry >> 32) as u32 == self.generation).then_some(entry as u32)
    }

    /// Stores `value` for `slot`, growing the table if needed.
    #[inline]
    pub(crate) fn set(&mut self, slot: usize, value: u32) {
        if slot >= self.entries.len() {
            self.entries.resize(slot + 1, 0);
        }
        self.entries[slot] = u64::from(self.generation) << 32 | u64::from(value);
    }
}

/// The dense tables the module writers number ops and blocks with.
///
/// One set per thread is parked between calls (like the verifier's
/// evaluation scratch), so printing or encoding a module reuses the
/// tables' storage. A nested user finds the slot empty and starts with
/// fresh, empty tables.
#[derive(Debug, Default)]
pub(crate) struct SlotTables {
    pub(crate) ops: SlotIds,
    pub(crate) blocks: SlotIds,
    /// Second per-block column (the encoder's first block-argument id).
    pub(crate) block_args: SlotIds,
}

thread_local! {
    static PARKED_TABLES: std::cell::Cell<Option<SlotTables>> =
        const { std::cell::Cell::new(None) };
}

impl SlotTables {
    /// Takes the calling thread's parked tables, all reset.
    pub(crate) fn take_parked() -> SlotTables {
        let parked = PARKED_TABLES.try_with(std::cell::Cell::take).ok().flatten();
        let mut tables = parked.unwrap_or_default();
        tables.ops.reset();
        tables.blocks.reset();
        tables.block_args.reset();
        tables
    }

    /// Parks `self` for the next [`SlotTables::take_parked`]. (During
    /// thread teardown the slot is gone and the tables are dropped.)
    pub(crate) fn park(self) {
        let _ = PARKED_TABLES.try_with(|slot| slot.set(Some(self)));
    }
}

/// An append-only uniquing table: equal values share one index.
///
/// Used for structural interning of types and attributes; the `u32` index is
/// the identity, so comparing two interned values is an integer comparison.
#[derive(Debug, Clone, Default)]
pub struct UniqueArena<T> {
    values: Vec<T>,
    index: crate::fasthash::FastMap<T, u32>,
}

impl<T: Clone + Eq + Hash> UniqueArena<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        UniqueArena { values: Vec::new(), index: crate::fasthash::FastMap::default() }
    }

    /// Interns `value`, returning the index of its unique copy.
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(&idx) = self.index.get(&value) {
            return idx;
        }
        let idx = self.values.len() as u32;
        self.values.push(value.clone());
        self.index.insert(value, idx);
        idx
    }

    /// Returns the value stored at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn get(&self, idx: u32) -> &T {
        &self.values[idx as usize]
    }

    /// Returns the index of `value` if it has been interned before.
    pub fn lookup(&self, value: &T) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Borrowed-key lookup (e.g. `&str` against a `String` table), avoiding
    /// an allocation on the hit path.
    pub fn lookup_with<Q>(&self, key: &Q) -> Option<u32>
    where
        T: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.get(key).copied()
    }

    /// Borrowed-key interning: a single hash lookup and zero allocations on
    /// the hit path; `make` builds the owned value only on a miss.
    pub fn intern_with<Q>(&mut self, key: &Q, make: impl FnOnce(&Q) -> T) -> u32
    where
        T: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(&idx) = self.index.get(key) {
            return idx;
        }
        let value = make(key);
        let idx = self.values.len() as u32;
        self.values.push(value.clone());
        self.index.insert(value, idx);
        idx
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_alloc_get_roundtrip() {
        let mut arena = EntityArena::new();
        let a = arena.alloc("a");
        let b = arena.alloc("b");
        assert_eq!(*arena.get(a), "a");
        assert_eq!(*arena.get(b), "b");
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn arena_erase_reuses_slots() {
        let mut arena = EntityArena::new();
        let a = arena.alloc(1);
        let _b = arena.alloc(2);
        assert_eq!(arena.erase(a), 1);
        assert!(!arena.is_live(a));
        let c = arena.alloc(3);
        assert_eq!(c, a, "freed slot should be reused");
        assert_eq!(arena.len(), 2);
    }

    #[test]
    #[should_panic(expected = "erased IR entity")]
    fn arena_get_after_erase_panics() {
        let mut arena = EntityArena::new();
        let a = arena.alloc(1);
        arena.erase(a);
        arena.get(a);
    }

    #[test]
    fn unique_arena_dedups() {
        let mut arena = UniqueArena::new();
        let a = arena.intern("x".to_string());
        let b = arena.intern("y".to_string());
        let a2 = arena.intern("x".to_string());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), "x");
        assert_eq!(arena.lookup(&"y".to_string()), Some(b));
        assert_eq!(arena.lookup(&"z".to_string()), None);
    }

    #[test]
    fn intern_with_is_single_path() {
        let mut arena: UniqueArena<String> = UniqueArena::new();
        let a = arena.intern_with("x", str::to_string);
        let b = arena.intern_with("y", str::to_string);
        let a2 = arena.intern_with("x", str::to_string);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), "x");
        // A hit must not rebuild the owned key.
        let hit = arena.intern_with("x", |_| panic!("hit path must not allocate"));
        assert_eq!(hit, a);
    }

    #[test]
    fn slot_ids_reset_forgets_everything() {
        let mut ids = SlotIds::default();
        assert_eq!(ids.get(3), None);
        ids.set(3, 7);
        ids.set(0, 0);
        assert_eq!((ids.get(3), ids.get(0), ids.get(1)), (Some(7), Some(0), None));
        ids.reset();
        assert_eq!((ids.get(3), ids.get(0)), (None, None));
        ids.set(99, 1);
        assert_eq!(ids.get(98), None);
        assert_eq!(ids.get(99), Some(1));
    }

    #[test]
    fn slot_ids_survive_generation_wraparound() {
        let mut ids = SlotIds::default();
        ids.set(2, 5);
        ids.generation = u32::MAX;
        ids.set(1, 9);
        ids.reset();
        assert_eq!(ids.generation, 1);
        assert_eq!((ids.get(1), ids.get(2)), (None, None));
    }

    #[test]
    fn parked_tables_go_to_one_user_at_a_time() {
        let mut outer = SlotTables::take_parked();
        outer.ops.set(4, 1);
        // A nested user finds the slot empty and starts fresh.
        let nested = SlotTables::take_parked();
        assert_eq!(nested.ops.get(4), None);
        nested.park();
        outer.park();
        let again = SlotTables::take_parked();
        assert!(again.ops.entries.len() >= 5, "the outer tables were parked last");
        assert_eq!(again.ops.get(4), None, "taking resets the tables");
        again.park();
    }

    #[test]
    fn arena_iter_skips_tombstones() {
        let mut arena = EntityArena::new();
        let _a = arena.alloc(1);
        let b = arena.alloc(2);
        let _c = arena.alloc(3);
        arena.erase(b);
        let values: Vec<i32> = arena.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![1, 3]);
    }
}
