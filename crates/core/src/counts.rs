//! Prefix count structures — `O(1)` substring count vectors.
//!
//! The paper (§2) notes that `X²` needs only the character counts of a
//! substring, obtainable in `O(1)` from `k` precomputed count arrays where
//! entry `i` stores the number of occurrences of the character in the first
//! `i` positions.
//!
//! Two interchangeable layouts implement that primitive behind the
//! [`CountSource`] trait:
//!
//! * [`PrefixCounts`] — the *flat* table: one `u32` per `(position,
//!   character)`, column-major. Fastest per lookup, `4·k` bytes per
//!   position (1.6 GB for a 100M-symbol DNA sequence).
//! * [`BlockedCounts`] — the *two-level* table: `u32` superblock absolutes
//!   every `B` positions plus byte-packed per-position deltas, answering
//!   every query bit-identically in `~(k − 1) + 4k/B` bytes per position —
//!   a 4–8× reduction that keeps the index cache-resident on inputs where
//!   the flat table falls out of the last-level cache.
//!
//! # Flat layout
//!
//! The flat table is stored **column-major** (`table[i·k + c]`): all `k`
//! prefix counts of one position are adjacent. The pruned scan jumps
//! hundreds of positions per step on average, so every prefix lookup is a
//! cache miss — with this layout a full `k`-count resync touches one or
//! two cache lines instead of `k` distant rows (which halves the scan's
//! memory traffic at `k = 2` and cuts it ~4× at `k = 8`).
//!
//! # Two-level layout
//!
//! [`BlockedCounts`] splits each prefix count into a superblock absolute
//! and an in-block delta: `prefix(c, i) = super[i/B][c] + delta[i][c]`,
//! where `delta[i][c]` counts occurrences of `c` inside the current block
//! prefix `S[⌊i/B⌋·B .. i)`. Deltas are bounded by `B − 1`, so they pack
//! into one byte when `B ≤ 256` (a `u16` escape tier covers larger
//! blocks). Two further tricks shrink and speed it up:
//!
//! * only `k − 1` delta columns are stored — the deltas of one position
//!   sum to the in-block offset `i mod B`, so the last character's delta
//!   is derived with one subtraction;
//! * the superblock array is `(n/B + 1)·4k` bytes — at the default
//!   `B = 256` it is ~256× smaller than the flat table and stays resident
//!   in L2/LLC, so a post-skip resync costs one delta-row cache line plus
//!   an (almost always cached) superblock row.

use crate::error::{Error, Result};
use crate::seq::Sequence;

/// Backing storage for one count-index section: an owned heap vector (the
/// build and bulk-read paths) or a typed view into a shared snapshot
/// mapping (the zero-copy loader). Dereferences to `[T]`, so every lookup
/// path is identical either way — the variant is decided once at load
/// time, never consulted in the hot loop.
#[derive(Debug, Clone)]
pub(crate) enum Store<T: Copy> {
    /// A plain heap vector.
    Owned(Vec<T>),
    /// A borrowed view into a snapshot mapping. The pointer is computed
    /// (and bounds/alignment-checked) once at construction; the `Arc`
    /// keeps the mapping alive for as long as any view exists.
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    Mapped {
        _map: std::sync::Arc<crate::mmap::MmapFile>,
        ptr: *const T,
        len: usize,
    },
}

// SAFETY: the `Mapped` pointer targets a read-only private mapping owned
// by the `Arc`'d `MmapFile` (itself `Send + Sync`); the memory is
// immutable for the mapping's lifetime, so sharing views across threads
// is sound. `Owned` is a `Vec<T>` of a `Copy` type.
unsafe impl<T: Copy + Send> Send for Store<T> {}
unsafe impl<T: Copy + Sync> Sync for Store<T> {}

impl<T: Copy> Store<T> {
    /// A view of `len` elements at byte `offset` inside `map` (alignment
    /// and bounds validated here, once).
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    pub(crate) fn mapped(
        map: std::sync::Arc<crate::mmap::MmapFile>,
        offset: usize,
        len: usize,
    ) -> Self {
        let ptr = map.slice::<T>(offset, len).as_ptr();
        Store::Mapped {
            _map: map,
            ptr,
            len,
        }
    }
}

impl<T: Copy> std::ops::Deref for Store<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Store::Owned(v) => v,
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            // SAFETY: `ptr`/`len` were validated against the mapping at
            // construction and the `Arc` keeps the mapping alive.
            Store::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T: Copy> From<Vec<T>> for Store<T> {
    fn from(v: Vec<T>) -> Self {
        Store::Owned(v)
    }
}

/// A source of `O(1)` substring count vectors over a fixed symbol string.
///
/// Implemented by the flat [`PrefixCounts`], the two-level
/// [`BlockedCounts`], the append-only [`GrowableCounts`] and the layout-
/// erased [`CountsIndex`]. The scan kernels are generic over this trait
/// and monomorphize per implementation, so the dispatch happens once per
/// scan call, never inside the hot loop.
///
/// All implementations answer **bit-identically**: counts are exact
/// integers, so every layout feeds the same `u32` vectors into the same
/// canonical scoring accumulation.
pub trait CountSource {
    /// Sequence length `n`.
    fn n(&self) -> usize;

    /// Alphabet size `k`.
    fn k(&self) -> usize;

    /// The underlying symbol string (for `O(1)` single-step advances).
    fn symbols(&self) -> &[u8];

    /// Number of occurrences of character `c` in `S[start..end)`.
    fn count(&self, c: usize, start: usize, end: usize) -> u32;

    /// Fill `buf` (length `k`) with the count vector of `S[start..end)`.
    fn fill_counts(&self, start: usize, end: usize, buf: &mut [u32]);

    /// Add the count vector of `S[start..end)` into `buf` (length `k`) —
    /// the scan kernels' post-skip resync.
    fn accumulate_counts(&self, start: usize, end: usize, buf: &mut [u32]);

    /// Bytes held by the count index itself (tables only — the shared
    /// symbol string is accounted separately).
    fn index_bytes(&self) -> usize;

    /// The raw prefix rows, for layouts whose rows the scan kernel's
    /// packed rounds can gather directly (`None` keeps every round on the
    /// per-lane path, which answers identically).
    #[doc(hidden)]
    fn prefix_rows(&self) -> Option<PrefixRows<'_>> {
        None
    }
}

/// Borrowed raw prefix rows of a count index — what the specialized scan
/// kernel's packed rounds gather from (see [`CountSource::prefix_rows`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum PrefixRows<'a> {
    /// A column-major flat table: `table[i·k + c]` = occurrences of `c` in
    /// `S[0..i)`.
    Flat(&'a [u32]),
    /// A two-level table with one-byte deltas (see [`BlockedCounts`]).
    Blocked {
        /// Column-major superblock absolutes, `k` per superblock.
        supers: &'a [u32],
        /// Row-per-position deltas, `k − 1` bytes per position.
        deltas: &'a [u8],
        /// `log2` of the superblock spacing.
        block_shift: u32,
    },
}

/// Which count-index layout to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CountsLayout {
    /// The flat `u32` table ([`PrefixCounts`]): fastest lookups, `4k`
    /// bytes per position.
    Flat,
    /// The two-level table ([`BlockedCounts`]): `~k` bytes per position,
    /// bit-identical answers.
    Blocked,
    /// Pick automatically: [`Flat`](CountsLayout::Flat) while the flat
    /// table stays under [`AUTO_BLOCKED_THRESHOLD_BYTES`],
    /// [`Blocked`](CountsLayout::Blocked) above it.
    #[default]
    Auto,
}

/// Flat-table byte footprint above which [`CountsLayout::Auto`] switches
/// to the blocked layout (32 MiB — roughly where the flat table stops
/// fitting a contemporary last-level cache and the scan turns
/// memory-bandwidth-bound).
pub const AUTO_BLOCKED_THRESHOLD_BYTES: usize = 32 << 20;

impl CountsLayout {
    /// Canonical lower-case name (`"flat"` / `"blocked"` / `"auto"`) —
    /// the single string table shared by the CLI and the corpus
    /// manifest.
    pub fn name(self) -> &'static str {
        match self {
            CountsLayout::Flat => "flat",
            CountsLayout::Blocked => "blocked",
            CountsLayout::Auto => "auto",
        }
    }

    /// Parse a canonical layout name (the inverse of
    /// [`CountsLayout::name`]).
    pub fn parse(s: &str) -> Option<CountsLayout> {
        match s {
            "flat" => Some(CountsLayout::Flat),
            "blocked" => Some(CountsLayout::Blocked),
            "auto" => Some(CountsLayout::Auto),
            _ => None,
        }
    }

    /// Resolve `Auto` for a sequence of length `n` over alphabet `k`:
    /// returns `Flat` or `Blocked`, never `Auto`.
    pub fn resolve(self, n: usize, k: usize) -> CountsLayout {
        match self {
            CountsLayout::Auto => {
                let flat_bytes = 4usize.saturating_mul(k).saturating_mul(n + 1);
                if flat_bytes > AUTO_BLOCKED_THRESHOLD_BYTES {
                    CountsLayout::Blocked
                } else {
                    CountsLayout::Flat
                }
            }
            other => other,
        }
    }
}

/// A built count index in either layout — what [`crate::Engine`] owns.
///
/// Scans dispatch on the variant once per call and run the kernel
/// monomorphized for the concrete layout; the trait impl on this enum
/// itself is for cold paths only.
#[derive(Debug, Clone)]
pub enum CountsIndex {
    /// The flat `u32` table.
    Flat(PrefixCounts),
    /// The two-level superblock + delta table.
    Blocked(BlockedCounts),
}

impl CountsIndex {
    /// Build the index for `seq` in the given layout (`Auto` resolves by
    /// footprint).
    pub fn build(seq: &Sequence, layout: CountsLayout) -> Self {
        match layout.resolve(seq.len(), seq.k()) {
            CountsLayout::Blocked => CountsIndex::Blocked(BlockedCounts::build(seq)),
            _ => CountsIndex::Flat(PrefixCounts::build(seq)),
        }
    }

    /// The layout this index was built in.
    pub fn layout(&self) -> CountsLayout {
        match self {
            CountsIndex::Flat(_) => CountsLayout::Flat,
            CountsIndex::Blocked(_) => CountsLayout::Blocked,
        }
    }
}

/// Bind `$pc` to the concrete layout inside `$index` (an expression
/// evaluating to `&CountsIndex`) and expand `$body` once per variant —
/// the single place the layout dispatch is written. The engine's query
/// methods use it to monomorphize each scan per layout; this module uses
/// it for the trait impl on [`CountsIndex`].
macro_rules! index_delegate {
    ($index:expr, $pc:ident => $body:expr) => {
        match $index {
            CountsIndex::Flat($pc) => $body,
            CountsIndex::Blocked($pc) => $body,
        }
    };
}
pub(crate) use index_delegate;

impl CountSource for CountsIndex {
    fn n(&self) -> usize {
        index_delegate!(self, pc => pc.n())
    }

    fn k(&self) -> usize {
        index_delegate!(self, pc => pc.k())
    }

    fn symbols(&self) -> &[u8] {
        index_delegate!(self, pc => pc.symbols())
    }

    fn count(&self, c: usize, start: usize, end: usize) -> u32 {
        index_delegate!(self, pc => pc.count(c, start, end))
    }

    fn fill_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        index_delegate!(self, pc => pc.fill_counts(start, end, buf))
    }

    fn accumulate_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        index_delegate!(self, pc => pc.accumulate_counts(start, end, buf))
    }

    fn index_bytes(&self) -> usize {
        index_delegate!(self, pc => pc.index_bytes())
    }

    fn prefix_rows(&self) -> Option<PrefixRows<'_>> {
        index_delegate!(self, pc => pc.prefix_rows())
    }
}

impl From<PrefixCounts> for CountsIndex {
    fn from(pc: PrefixCounts) -> Self {
        CountsIndex::Flat(pc)
    }
}

impl From<BlockedCounts> for CountsIndex {
    fn from(bc: BlockedCounts) -> Self {
        CountsIndex::Blocked(bc)
    }
}

/// Prefix counts of a sequence: `count(c, i, j)` in `O(1)`.
///
/// Also retains a copy of the symbol string itself: the incremental scan
/// kernel advances its count vector by reading single symbols (`O(1)` per
/// step) and only falls back to prefix-table differences to resync after
/// a skip.
#[derive(Debug, Clone)]
pub struct PrefixCounts {
    /// Column-major `(n + 1) × k` table; `table[i·k + c]` = occurrences of
    /// `c` in `S[0..i)`.
    table: Store<u32>,
    /// The symbols themselves (for `O(1)` single-step count updates).
    symbols: Store<u8>,
    n: usize,
    k: usize,
}

impl PrefixCounts {
    /// Build the table in `O(k·n)` time and space.
    pub fn build(seq: &Sequence) -> Self {
        let n = seq.len();
        let k = seq.k();
        let mut table = vec![0u32; k * (n + 1)];
        for (i, &s) in seq.symbols().iter().enumerate() {
            // Copy column i to column i+1, bumping the entry of s.
            let (prev, next) = table[i * k..(i + 2) * k].split_at_mut(k);
            next.copy_from_slice(prev);
            next[s as usize] += 1;
        }
        Self {
            table: table.into(),
            symbols: seq.symbols().to_vec().into(),
            n,
            k,
        }
    }

    /// Sequence length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Alphabet size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying symbol string.
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// The symbol at `index` (panics when out of bounds).
    pub fn symbol(&self, index: usize) -> u8 {
        self.symbols[index]
    }

    /// Bytes held by the table (the count index proper, excluding the
    /// symbol string both layouts share).
    pub fn index_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }

    /// Number of occurrences of character `c` in `S[start..end)`.
    ///
    /// Panics (in debug builds) when the range or character is invalid.
    #[inline]
    pub fn count(&self, c: usize, start: usize, end: usize) -> u32 {
        debug_assert!(c < self.k && start <= end && end <= self.n);
        self.table[end * self.k + c] - self.table[start * self.k + c]
    }

    /// Fill `buf` (length `k`) with the count vector of `S[start..end)`.
    ///
    /// Both endpoint rows are contiguous `k`-slices, so for `k ≥ 8` the
    /// diff runs through the vectorized [`crate::simd`] kernel (exact
    /// integer arithmetic — bit-identical to the scalar loop); smaller
    /// alphabets stay scalar, where the fixed-trip loop already unrolls.
    #[inline]
    pub fn fill_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        debug_assert_eq!(buf.len(), self.k);
        debug_assert!(start <= end && end <= self.n);
        let k = self.k;
        let from = &self.table[start * k..start * k + k];
        let to = &self.table[end * k..end * k + k];
        if k >= 8 {
            crate::simd::fill_diff_u32(buf, to, from);
            return;
        }
        for ((slot, &hi), &lo) in buf.iter_mut().zip(to).zip(from) {
            *slot = hi - lo;
        }
    }

    /// Add the count vector of `S[start..end)` into `buf` (length `k`) —
    /// the scan kernels' post-skip resync. Vectorized for `k ≥ 8` (see
    /// [`PrefixCounts::fill_counts`]).
    #[inline]
    pub fn accumulate_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        debug_assert_eq!(buf.len(), self.k);
        debug_assert!(start <= end && end <= self.n);
        let k = self.k;
        let from = &self.table[start * k..start * k + k];
        let to = &self.table[end * k..end * k + k];
        if k >= 8 {
            crate::simd::accumulate_diff_u32(buf, to, from);
            return;
        }
        for ((slot, &hi), &lo) in buf.iter_mut().zip(to).zip(from) {
            *slot += hi - lo;
        }
    }

    /// The raw column-major table — the snapshot writer's section view.
    pub(crate) fn table(&self) -> &[u32] {
        &self.table
    }

    /// Reassemble from snapshot sections: the raw table plus the symbol
    /// string (owned vectors from the bulk-read loader, or mapped views
    /// from the zero-copy loader). Validates only shape
    /// (`table.len() == (n + 1)·k`); payload integrity is the snapshot
    /// checksums' job.
    pub(crate) fn from_sections(table: Store<u32>, symbols: Store<u8>, k: usize) -> Result<Self> {
        let n = symbols.len();
        if table.len() != (n + 1) * k {
            return Err(Error::Snapshot {
                details: format!(
                    "flat count table holds {} entries, expected (n + 1)·k = {}",
                    table.len(),
                    (n + 1) * k
                ),
            });
        }
        Ok(Self {
            table,
            symbols,
            n,
            k,
        })
    }

    /// The count vector of `S[start..end)` as a fresh vector.
    ///
    /// Allocates per call — test/diagnostic convenience only. Warm paths
    /// must use [`PrefixCounts::fill_counts`] with a recycled buffer (the
    /// engine's scratch arena hands one out).
    #[doc(hidden)]
    pub fn count_vector(&self, start: usize, end: usize) -> Vec<u32> {
        let mut buf = vec![0u32; self.k];
        self.fill_counts(start, end, &mut buf);
        buf
    }
}

impl CountSource for PrefixCounts {
    #[inline]
    fn n(&self) -> usize {
        PrefixCounts::n(self)
    }

    #[inline]
    fn k(&self) -> usize {
        PrefixCounts::k(self)
    }

    #[inline]
    fn symbols(&self) -> &[u8] {
        PrefixCounts::symbols(self)
    }

    #[inline]
    fn count(&self, c: usize, start: usize, end: usize) -> u32 {
        PrefixCounts::count(self, c, start, end)
    }

    #[inline]
    fn fill_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        PrefixCounts::fill_counts(self, start, end, buf)
    }

    #[inline]
    fn accumulate_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        PrefixCounts::accumulate_counts(self, start, end, buf)
    }

    #[inline]
    fn index_bytes(&self) -> usize {
        PrefixCounts::index_bytes(self)
    }

    #[inline]
    fn prefix_rows(&self) -> Option<PrefixRows<'_>> {
        Some(PrefixRows::Flat(&self.table))
    }
}

// ---------------------------------------------------------------------------
// The two-level blocked layout.
// ---------------------------------------------------------------------------

/// Default superblock spacing: deltas stay `< 256` and pack into one byte,
/// while the superblock array is 256× smaller than the flat table.
pub const DEFAULT_BLOCK: usize = 256;

/// Largest supported superblock spacing (deltas must fit the `u16` escape
/// tier).
pub const MAX_BLOCK: usize = 1 << 16;

/// Spacings are powers of two so the hot resync path computes superblock
/// index and in-block offset with a shift and a mask instead of a
/// hardware division (which would otherwise dominate the sweep at
/// cache-resident sizes).
const fn is_valid_block(block: usize) -> bool {
    block != 0 && block <= MAX_BLOCK && block.is_power_of_two()
}

/// The per-position delta storage: `u8` when the block spacing allows it,
/// `u16` escape tier otherwise. Chosen once at build time.
#[derive(Debug, Clone)]
pub(crate) enum DeltaTier {
    U8(Store<u8>),
    U16(Store<u16>),
}

impl DeltaTier {
    fn bytes(&self) -> usize {
        match self {
            DeltaTier::U8(v) => v.len(),
            DeltaTier::U16(v) => v.len() * 2,
        }
    }
}

/// Two-level prefix counts: `u32` superblock absolutes every `block`
/// positions plus byte-packed in-block deltas.
///
/// Answers [`count`](CountSource::count) /
/// [`fill_counts`](CountSource::fill_counts) /
/// [`accumulate_counts`](CountSource::accumulate_counts) **bit-identically**
/// to [`PrefixCounts`] while occupying `~(k − 1) + 4k/B` bytes per
/// position instead of `4k` (4–8× smaller for `k ≤ 64`; see the module
/// docs for the layout). Only `k − 1` delta columns are stored: the
/// deltas of one position sum to its in-block offset, so the last
/// character's delta is derived with one subtraction.
#[derive(Debug, Clone)]
pub struct BlockedCounts {
    /// Column-major superblock absolutes: `supers[j·k + c]` = occurrences
    /// of `c` in `S[0 .. j·block)`.
    supers: Store<u32>,
    /// Row-per-position deltas, `stored_k = k − 1` columns:
    /// `deltas[i·stored_k + c]` = occurrences of `c` in
    /// `S[⌊i/block⌋·block .. i)`.
    deltas: DeltaTier,
    /// The symbols themselves (for `O(1)` single-step count updates).
    symbols: Store<u8>,
    n: usize,
    k: usize,
    /// `k − 1`: the number of delta columns actually stored.
    stored_k: usize,
    /// `log2` of the superblock spacing `B` (spacings are powers of two —
    /// the resync path shifts and masks instead of dividing).
    block_shift: u32,
}

impl BlockedCounts {
    /// Build the two-level table with the default superblock spacing
    /// ([`DEFAULT_BLOCK`]) in `O(k·n)` time, `O(k·n)` bytes.
    pub fn build(seq: &Sequence) -> Self {
        Self::from_symbols_vec(seq.symbols().to_vec(), seq.k(), DEFAULT_BLOCK)
            .expect("default block spacing is always valid")
    }

    /// Build with an explicit superblock spacing `block` (a power of two
    /// up to [`MAX_BLOCK`]). The delta tier is chosen from the spacing:
    /// one byte per entry when `block ≤ 256`, the `u16` escape tier
    /// above.
    ///
    /// # Errors
    ///
    /// Fails when `block` is zero, not a power of two, or exceeds
    /// [`MAX_BLOCK`].
    pub fn with_block(seq: &Sequence, block: usize) -> Result<Self> {
        Self::from_symbols_vec(seq.symbols().to_vec(), seq.k(), block)
    }

    /// Build from an owned symbol vector (the caller guarantees every
    /// symbol is `< k`) — the allocation-free freeze path from
    /// [`GrowableCounts`].
    pub(crate) fn from_symbols_vec(symbols: Vec<u8>, k: usize, block: usize) -> Result<Self> {
        if !is_valid_block(block) {
            return Err(Error::InvalidParameter {
                what: "block",
                details: format!(
                    "superblock spacing must be a power of two in 1..={MAX_BLOCK}, got {block}"
                ),
            });
        }
        let n = symbols.len();
        let stored_k = k - 1;
        let num_supers = n / block + 1;
        let mut supers = vec![0u32; num_supers * k];
        let mut running = vec![0u32; k];
        // One pass: record the absolute vector at each superblock
        // boundary, and the (absolute − superblock) delta at every
        // position.
        let deltas = if block <= 256 {
            let mut deltas = vec![0u8; (n + 1) * stored_k];
            build_pass(&symbols, k, block, &mut supers, &mut running, |i, c, d| {
                debug_assert!(d < 256);
                deltas[i * stored_k + c] = d as u8;
            });
            DeltaTier::U8(deltas.into())
        } else {
            let mut deltas = vec![0u16; (n + 1) * stored_k];
            build_pass(&symbols, k, block, &mut supers, &mut running, |i, c, d| {
                debug_assert!(d < (1 << 16));
                deltas[i * stored_k + c] = d as u16;
            });
            DeltaTier::U16(deltas.into())
        };
        Ok(Self {
            supers: supers.into(),
            deltas,
            symbols: symbols.into(),
            n,
            k,
            stored_k,
            block_shift: block.trailing_zeros(),
        })
    }

    /// Sequence length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Alphabet size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying symbol string.
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// The symbol at `index` (panics when out of bounds).
    pub fn symbol(&self, index: usize) -> u8 {
        self.symbols[index]
    }

    /// Superblock spacing `B`.
    pub fn block(&self) -> usize {
        1 << self.block_shift
    }

    /// Bytes held by the two-level table (superblocks + deltas, excluding
    /// the symbol string both layouts share).
    pub fn index_bytes(&self) -> usize {
        self.supers.len() * std::mem::size_of::<u32>() + self.deltas.bytes()
    }

    /// The raw superblock absolutes — the snapshot writer's section view.
    pub(crate) fn supers(&self) -> &[u32] {
        &self.supers
    }

    /// The raw delta tier — the snapshot writer's section view.
    pub(crate) fn deltas(&self) -> &DeltaTier {
        &self.deltas
    }

    /// Reassemble from snapshot sections: superblock absolutes, the delta
    /// tier, and the symbol string (owned vectors from the bulk-read
    /// loader, or mapped views from the zero-copy loader). Validates
    /// shape (section lengths and block spacing); payload integrity is
    /// the snapshot checksums' job.
    pub(crate) fn from_sections(
        supers: Store<u32>,
        deltas: DeltaTier,
        symbols: Store<u8>,
        k: usize,
        block: usize,
    ) -> Result<Self> {
        if !is_valid_block(block) {
            return Err(Error::Snapshot {
                details: format!(
                    "superblock spacing {block} is not a power of two in 1..={MAX_BLOCK}"
                ),
            });
        }
        let expected_tier = if block <= 256 { 1usize } else { 2 };
        let actual_tier = match &deltas {
            DeltaTier::U8(_) => 1,
            DeltaTier::U16(_) => 2,
        };
        if expected_tier != actual_tier {
            return Err(Error::Snapshot {
                details: format!(
                    "delta tier width {actual_tier} does not match block spacing {block} \
                     (expected width {expected_tier})"
                ),
            });
        }
        let n = symbols.len();
        let stored_k = k - 1;
        let num_supers = n / block + 1;
        if supers.len() != num_supers * k {
            return Err(Error::Snapshot {
                details: format!(
                    "superblock table holds {} entries, expected (n/B + 1)·k = {}",
                    supers.len(),
                    num_supers * k
                ),
            });
        }
        let delta_entries = match &deltas {
            DeltaTier::U8(v) => v.len(),
            DeltaTier::U16(v) => v.len(),
        };
        if delta_entries != (n + 1) * stored_k {
            return Err(Error::Snapshot {
                details: format!(
                    "delta table holds {delta_entries} entries, expected (n + 1)·(k − 1) = {}",
                    (n + 1) * stored_k
                ),
            });
        }
        Ok(Self {
            supers,
            deltas,
            symbols,
            n,
            k,
            stored_k,
            block_shift: block.trailing_zeros(),
        })
    }

    /// Number of occurrences of character `c` in `S[start..end)`.
    #[inline]
    pub fn count(&self, c: usize, start: usize, end: usize) -> u32 {
        debug_assert!(c < self.k && start <= end && end <= self.n);
        if c < self.stored_k {
            self.absolute_stored(c, end) - self.absolute_stored(c, start)
        } else {
            // Last character: derive from the in-block offsets and the
            // stored columns' sums.
            self.absolute_last(end) - self.absolute_last(start)
        }
    }

    /// `prefix(c, i)` for a stored column `c < k − 1`.
    #[inline]
    fn absolute_stored(&self, c: usize, i: usize) -> u32 {
        let sup = self.supers[(i >> self.block_shift) * self.k + c];
        let d = match &self.deltas {
            DeltaTier::U8(v) => u32::from(v[i * self.stored_k + c]),
            DeltaTier::U16(v) => u32::from(v[i * self.stored_k + c]),
        };
        sup + d
    }

    /// `prefix(k − 1, i)`: superblock absolute plus the derived delta
    /// (in-block offset minus the stored columns' deltas).
    #[inline]
    fn absolute_last(&self, i: usize) -> u32 {
        let sb = i >> self.block_shift;
        let sup = self.supers[sb * self.k + (self.k - 1)];
        let offset = (i - (sb << self.block_shift)) as u32;
        let row = i * self.stored_k;
        let stored_sum: u32 = match &self.deltas {
            DeltaTier::U8(v) => v[row..row + self.stored_k]
                .iter()
                .map(|&d| u32::from(d))
                .sum(),
            DeltaTier::U16(v) => v[row..row + self.stored_k]
                .iter()
                .map(|&d| u32::from(d))
                .sum(),
        };
        sup + (offset - stored_sum)
    }

    /// Fill `buf` (length `k`) with the count vector of `S[start..end)`.
    #[inline]
    pub fn fill_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        buf.fill(0);
        self.accumulate_counts(start, end, buf);
    }

    /// Add the count vector of `S[start..end)` into `buf` (length `k`) —
    /// the scan kernels' post-skip resync: two superblock rows (almost
    /// always cache-resident) plus two byte-packed delta rows, swept in
    /// one unrolled pass that derives the last character from the in-block
    /// offsets.
    #[inline]
    pub fn accumulate_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        debug_assert_eq!(buf.len(), self.k);
        debug_assert!(start <= end && end <= self.n);
        match &self.deltas {
            DeltaTier::U8(v) => self.accumulate_impl(&v[..], start, end, buf),
            DeltaTier::U16(v) => self.accumulate_impl(&v[..], start, end, buf),
        }
    }

    /// The tier-generic resync sweep (monomorphized per delta width).
    ///
    /// For `stored_k ≥ 8` the stored-column sweep runs through the
    /// vectorized widening kernel in [`crate::simd`] (AVX2 `u8`/`u16` →
    /// `u32` lane widening; exact integer arithmetic, bit-identical to
    /// the scalar loop in any lane order).
    #[inline(always)]
    fn accumulate_impl<T: Copy + Into<u32> + crate::simd::WidenRow>(
        &self,
        deltas: &[T],
        start: usize,
        end: usize,
        buf: &mut [u32],
    ) {
        let k = self.k;
        let stored_k = self.stored_k;
        let sb_s = start >> self.block_shift;
        let sb_e = end >> self.block_shift;
        let sup_s = &self.supers[sb_s * k..sb_s * k + k];
        let sup_e = &self.supers[sb_e * k..sb_e * k + k];
        let row_s = &deltas[start * stored_k..start * stored_k + stored_k];
        let row_e = &deltas[end * stored_k..end * stored_k + stored_k];
        let (sum_s, sum_e) = if stored_k >= 8 {
            crate::simd::blocked_stored_diff(&mut buf[..stored_k], sup_s, sup_e, row_s, row_e)
        } else {
            let mut sum_s = 0u32;
            let mut sum_e = 0u32;
            for c in 0..stored_k {
                let ds: u32 = row_s[c].into();
                let de: u32 = row_e[c].into();
                sum_s += ds;
                sum_e += de;
                buf[c] += (sup_e[c] + de) - (sup_s[c] + ds);
            }
            (sum_s, sum_e)
        };
        let off_s = (start - (sb_s << self.block_shift)) as u32;
        let off_e = (end - (sb_e << self.block_shift)) as u32;
        let abs_s = sup_s[stored_k] + (off_s - sum_s);
        let abs_e = sup_e[stored_k] + (off_e - sum_e);
        buf[stored_k] += abs_e - abs_s;
    }
}

/// The shared build sweep: walk the symbols once, snapshotting the running
/// absolute vector at each superblock boundary and emitting the per-
/// position stored-column deltas through `emit(position, column, delta)`.
fn build_pass(
    symbols: &[u8],
    k: usize,
    block: usize,
    supers: &mut [u32],
    running: &mut [u32],
    mut emit: impl FnMut(usize, usize, u32),
) {
    let stored_k = k - 1;
    for i in 0..=symbols.len() {
        let sb = i / block;
        if i % block == 0 {
            supers[sb * k..sb * k + k].copy_from_slice(running);
        }
        let base = &supers[sb * k..sb * k + k];
        for c in 0..stored_k {
            emit(i, c, running[c] - base[c]);
        }
        if i < symbols.len() {
            running[symbols[i] as usize] += 1;
        }
    }
}

impl CountSource for BlockedCounts {
    #[inline]
    fn n(&self) -> usize {
        BlockedCounts::n(self)
    }

    #[inline]
    fn k(&self) -> usize {
        BlockedCounts::k(self)
    }

    #[inline]
    fn symbols(&self) -> &[u8] {
        BlockedCounts::symbols(self)
    }

    #[inline]
    fn count(&self, c: usize, start: usize, end: usize) -> u32 {
        BlockedCounts::count(self, c, start, end)
    }

    #[inline]
    fn fill_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        BlockedCounts::fill_counts(self, start, end, buf)
    }

    #[inline]
    fn accumulate_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        BlockedCounts::accumulate_counts(self, start, end, buf)
    }

    #[inline]
    fn index_bytes(&self) -> usize {
        BlockedCounts::index_bytes(self)
    }

    /// The `u8` tier only: the `u16` escape tier keeps the per-lane path.
    #[inline]
    fn prefix_rows(&self) -> Option<PrefixRows<'_>> {
        match &self.deltas {
            DeltaTier::U8(deltas) => Some(PrefixRows::Blocked {
                supers: &self.supers,
                deltas,
                block_shift: self.block_shift,
            }),
            DeltaTier::U16(_) => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The growable (streaming) layout.
// ---------------------------------------------------------------------------

/// Growable column-major prefix counts — the append-only sibling of
/// [`PrefixCounts`], shared by the streaming miner and anything else that
/// consumes symbols one at a time.
///
/// Same layout (`table[i·k + c]`, all `k` counts of one position
/// adjacent), same cache behaviour: a resync after a pruning jump touches
/// one or two cache lines instead of `k` distant rows. Appending one
/// symbol copies the last column and bumps one entry — `O(k)`, amortized
/// `O(1)` reallocations. A fully-consumed stream freezes into either
/// offline layout ([`GrowableCounts::into_index`]).
#[derive(Debug, Clone)]
pub struct GrowableCounts {
    /// Column-major `(n + 1) × k` table; `table[i·k + c]` = occurrences of
    /// `c` in the first `i` symbols.
    table: Vec<u32>,
    /// The symbols themselves (for `O(1)` single-step count updates).
    symbols: Vec<u8>,
    k: usize,
}

impl GrowableCounts {
    /// An empty table over an alphabet of size `k`.
    pub fn new(k: usize) -> Self {
        Self {
            table: vec![0u32; k],
            symbols: Vec::new(),
            k,
        }
    }

    /// Number of symbols consumed.
    pub fn n(&self) -> usize {
        self.symbols.len()
    }

    /// Alphabet size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether no symbol has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbols consumed so far.
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// Bytes held by the growable table.
    pub fn index_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }

    /// Append one symbol (the caller guarantees `symbol < k`).
    pub fn push(&mut self, symbol: u8) {
        debug_assert!((symbol as usize) < self.k);
        let n = self.symbols.len();
        let k = self.k;
        // Copy column n to column n+1, bumping the entry of `symbol`.
        self.table.extend_from_within(n * k..(n + 1) * k);
        self.table[(n + 1) * k + symbol as usize] += 1;
        self.symbols.push(symbol);
    }

    /// Number of occurrences of character `c` in the range `[start, end)`.
    #[inline]
    pub fn count(&self, c: usize, start: usize, end: usize) -> u32 {
        debug_assert!(c < self.k && start <= end && end <= self.n());
        self.table[end * self.k + c] - self.table[start * self.k + c]
    }

    /// Fill `buf` (length `k`) with the count vector of `[start, end)`.
    #[inline]
    pub fn fill_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        debug_assert_eq!(buf.len(), self.k);
        debug_assert!(start <= end && end <= self.n());
        let k = self.k;
        let from = &self.table[start * k..start * k + k];
        let to = &self.table[end * k..end * k + k];
        for ((slot, &hi), &lo) in buf.iter_mut().zip(to).zip(from) {
            *slot = hi - lo;
        }
    }

    /// Add the count vector of `[start, end)` into `buf` (length `k`) —
    /// the streaming scan's post-skip resync.
    #[inline]
    pub fn accumulate_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        debug_assert_eq!(buf.len(), self.k);
        debug_assert!(start <= end && end <= self.n());
        let k = self.k;
        let from = &self.table[start * k..start * k + k];
        let to = &self.table[end * k..end * k + k];
        for ((slot, &hi), &lo) in buf.iter_mut().zip(to).zip(from) {
            *slot += hi - lo;
        }
    }

    /// Freeze into a [`PrefixCounts`] (same layout — a pair of moves), so
    /// a fully-consumed stream can be handed to an offline
    /// [`crate::Engine`] without rebuilding the table.
    pub fn into_prefix_counts(self) -> PrefixCounts {
        let n = self.symbols.len();
        PrefixCounts {
            table: self.table.into(),
            symbols: self.symbols.into(),
            n,
            k: self.k,
        }
    }

    /// Freeze into a [`BlockedCounts`] (rebuilds the two-level table from
    /// the consumed symbols in one `O(k·n)` pass, then drops the 4×
    /// larger growable table).
    pub fn into_blocked_counts(self) -> BlockedCounts {
        BlockedCounts::from_symbols_vec(self.symbols, self.k, DEFAULT_BLOCK)
            .expect("default block spacing is always valid")
    }

    /// Freeze into a [`CountsIndex`] in the requested layout (`Auto`
    /// resolves by footprint, exactly as [`CountsIndex::build`] does).
    ///
    /// The flat path freezes **in place**: the already-built column-major
    /// table and symbol vector move into the index untouched — no copy,
    /// no reallocation, even when the vectors carry amortized-growth
    /// slack capacity (pinned by `growable_flat_freeze_is_in_place`).
    pub fn into_index(self, layout: CountsLayout) -> CountsIndex {
        match layout.resolve(self.n(), self.k) {
            CountsLayout::Blocked => CountsIndex::Blocked(self.into_blocked_counts()),
            _ => CountsIndex::Flat(self.into_prefix_counts()),
        }
    }

    /// Freeze a point-in-time snapshot **without ending ingestion**: the
    /// returned index owns exact-capacity copies of the consumed stream
    /// (no amortized-growth slack is carried into the frozen snapshot),
    /// and `self` keeps appending. This is the live-document freeze path:
    /// one call per snapshot generation while the appender keeps going.
    pub fn freeze_index(&self, layout: CountsLayout) -> CountsIndex {
        let n = self.symbols.len();
        match layout.resolve(n, self.k) {
            CountsLayout::Blocked => CountsIndex::Blocked(
                BlockedCounts::from_symbols_vec(
                    self.symbols.as_slice().to_vec(),
                    self.k,
                    DEFAULT_BLOCK,
                )
                .expect("default block spacing is always valid"),
            ),
            _ => CountsIndex::Flat(PrefixCounts {
                table: self.table.as_slice().to_vec().into(),
                symbols: self.symbols.as_slice().to_vec().into(),
                n,
                k: self.k,
            }),
        }
    }
}

impl CountSource for GrowableCounts {
    #[inline]
    fn n(&self) -> usize {
        GrowableCounts::n(self)
    }

    #[inline]
    fn k(&self) -> usize {
        GrowableCounts::k(self)
    }

    #[inline]
    fn symbols(&self) -> &[u8] {
        GrowableCounts::symbols(self)
    }

    #[inline]
    fn count(&self, c: usize, start: usize, end: usize) -> u32 {
        GrowableCounts::count(self, c, start, end)
    }

    #[inline]
    fn fill_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        GrowableCounts::fill_counts(self, start, end, buf)
    }

    #[inline]
    fn accumulate_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        GrowableCounts::accumulate_counts(self, start, end, buf)
    }

    #[inline]
    fn index_bytes(&self) -> usize {
        GrowableCounts::index_bytes(self)
    }

    #[inline]
    fn prefix_rows(&self) -> Option<PrefixRows<'_>> {
        Some(PrefixRows::Flat(&self.table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::Sequence;

    fn demo_seq() -> Sequence {
        // 0 1 1 2 0 2 2 1
        Sequence::from_symbols(vec![0, 1, 1, 2, 0, 2, 2, 1], 3).unwrap()
    }

    fn pseudo_random_symbols(n: usize, k: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % k as u64) as u8
            })
            .collect()
    }

    #[test]
    fn counts_match_direct_counting() {
        let seq = demo_seq();
        let pc = PrefixCounts::build(&seq);
        assert_eq!(pc.n(), 8);
        assert_eq!(pc.k(), 3);
        for start in 0..=seq.len() {
            for end in start..=seq.len() {
                let direct = seq.count_vector(start, end);
                let via_prefix = pc.count_vector(start, end);
                assert_eq!(direct, via_prefix, "range {start}..{end}");
            }
        }
    }

    #[test]
    fn individual_count_queries() {
        let seq = demo_seq();
        let pc = PrefixCounts::build(&seq);
        assert_eq!(pc.count(0, 0, 8), 2);
        assert_eq!(pc.count(1, 0, 8), 3);
        assert_eq!(pc.count(2, 0, 8), 3);
        assert_eq!(pc.count(2, 3, 4), 1);
        assert_eq!(pc.count(2, 4, 4), 0);
        assert_eq!(pc.count(0, 1, 4), 0);
    }

    #[test]
    fn counts_sum_to_range_length() {
        let seq = demo_seq();
        let pc = PrefixCounts::build(&seq);
        for start in 0..seq.len() {
            for end in start..=seq.len() {
                let total: u32 = pc.count_vector(start, end).iter().sum();
                assert_eq!(total as usize, end - start);
            }
        }
    }

    #[test]
    fn retains_symbols() {
        let seq = demo_seq();
        let pc = PrefixCounts::build(&seq);
        assert_eq!(pc.symbols(), seq.symbols());
        assert_eq!(pc.symbol(3), 2);
    }

    #[test]
    fn fill_counts_reuses_buffer() {
        let seq = demo_seq();
        let pc = PrefixCounts::build(&seq);
        let mut buf = vec![99u32; 3];
        pc.fill_counts(2, 6, &mut buf);
        assert_eq!(buf, vec![1, 1, 2]);
    }

    #[test]
    fn accumulate_adds_range_deltas() {
        let seq = demo_seq();
        let pc = PrefixCounts::build(&seq);
        let mut buf = vec![0u32; 3];
        pc.fill_counts(1, 3, &mut buf);
        pc.accumulate_counts(3, 6, &mut buf);
        assert_eq!(buf, pc.count_vector(1, 6));
    }

    #[test]
    fn blocked_matches_flat_on_every_range() {
        for &block in &[1usize, 2, 4, 8, 32, 256, 512, 1024] {
            let symbols = pseudo_random_symbols(600, 3, 0xB10C ^ block as u64);
            let seq = Sequence::from_symbols(symbols, 3).unwrap();
            let pc = PrefixCounts::build(&seq);
            let bc = BlockedCounts::with_block(&seq, block).unwrap();
            assert_eq!(bc.n(), pc.n());
            assert_eq!(bc.k(), pc.k());
            assert_eq!(bc.block(), block);
            assert_eq!(bc.symbols(), pc.symbols());
            let mut fb = vec![0u32; 3];
            let mut bb = vec![0u32; 3];
            for start in (0..=seq.len()).step_by(7) {
                for end in (start..=seq.len()).step_by(5) {
                    for c in 0..3 {
                        assert_eq!(
                            bc.count(c, start, end),
                            pc.count(c, start, end),
                            "block {block}: count({c}, {start}, {end})"
                        );
                    }
                    pc.fill_counts(start, end, &mut fb);
                    bc.fill_counts(start, end, &mut bb);
                    assert_eq!(fb, bb, "block {block}: fill({start}, {end})");
                }
            }
        }
    }

    #[test]
    fn blocked_accumulate_matches_flat() {
        let symbols = pseudo_random_symbols(500, 4, 0xACC);
        let seq = Sequence::from_symbols(symbols, 4).unwrap();
        let pc = PrefixCounts::build(&seq);
        let bc = BlockedCounts::with_block(&seq, 64).unwrap();
        let mut fb = vec![0u32; 4];
        let mut bb = vec![0u32; 4];
        pc.fill_counts(3, 90, &mut fb);
        bc.fill_counts(3, 90, &mut bb);
        pc.accumulate_counts(90, 411, &mut fb);
        bc.accumulate_counts(90, 411, &mut bb);
        assert_eq!(fb, bb);
        assert_eq!(fb, pc.count_vector(3, 411));
    }

    #[test]
    fn blocked_u16_escape_tier() {
        let symbols = pseudo_random_symbols(3000, 2, 0xE5C);
        let seq = Sequence::from_symbols(symbols, 2).unwrap();
        let pc = PrefixCounts::build(&seq);
        let bc = BlockedCounts::with_block(&seq, 2048).unwrap();
        for start in (0..=seq.len()).step_by(101) {
            for end in (start..=seq.len()).step_by(67) {
                for c in 0..2 {
                    assert_eq!(bc.count(c, start, end), pc.count(c, start, end));
                }
            }
        }
        // u16 tier: ~2(k−1) bytes per position plus superblocks.
        assert!(bc.index_bytes() < pc.index_bytes());
    }

    #[test]
    fn blocked_rejects_bad_block_sizes() {
        let seq = demo_seq();
        assert!(BlockedCounts::with_block(&seq, 0).is_err());
        assert!(BlockedCounts::with_block(&seq, 3).is_err());
        assert!(BlockedCounts::with_block(&seq, 300).is_err());
        assert!(BlockedCounts::with_block(&seq, 2 * MAX_BLOCK).is_err());
        assert!(BlockedCounts::with_block(&seq, MAX_BLOCK).is_ok());
    }

    #[test]
    fn blocked_footprint_is_at_least_4x_smaller() {
        // k = 4 (DNA): flat is 16 B/pos, blocked ~3.06 B/pos → >5×.
        let symbols = pseudo_random_symbols(100_000, 4, 0xF00);
        let seq = Sequence::from_symbols(symbols, 4).unwrap();
        let pc = PrefixCounts::build(&seq);
        let bc = BlockedCounts::build(&seq);
        let ratio = pc.index_bytes() as f64 / bc.index_bytes() as f64;
        assert!(ratio >= 4.0, "footprint ratio {ratio}");
        // k = 2: flat 8 B/pos, blocked ~1.03 B/pos → >7×.
        let symbols = pseudo_random_symbols(100_000, 2, 0xF01);
        let seq = Sequence::from_symbols(symbols, 2).unwrap();
        let ratio = PrefixCounts::build(&seq).index_bytes() as f64
            / BlockedCounts::build(&seq).index_bytes() as f64;
        assert!(ratio >= 7.0, "k=2 footprint ratio {ratio}");
    }

    #[test]
    fn layout_auto_resolves_by_footprint() {
        assert_eq!(CountsLayout::Flat.resolve(1 << 30, 4), CountsLayout::Flat);
        assert_eq!(CountsLayout::Blocked.resolve(10, 2), CountsLayout::Blocked);
        assert_eq!(CountsLayout::Auto.resolve(1000, 4), CountsLayout::Flat);
        assert_eq!(
            CountsLayout::Auto.resolve(AUTO_BLOCKED_THRESHOLD_BYTES, 4),
            CountsLayout::Blocked
        );
    }

    #[test]
    fn counts_index_delegates_both_layouts() {
        let seq = demo_seq();
        for layout in [CountsLayout::Flat, CountsLayout::Blocked] {
            let index = CountsIndex::build(&seq, layout);
            assert_eq!(index.layout(), layout);
            assert_eq!(CountSource::n(&index), 8);
            assert_eq!(CountSource::k(&index), 3);
            assert_eq!(CountSource::symbols(&index), seq.symbols());
            assert_eq!(CountSource::count(&index, 2, 3, 4), 1);
            let mut buf = vec![0u32; 3];
            index.fill_counts(2, 6, &mut buf);
            assert_eq!(buf, vec![1, 1, 2]);
            index.accumulate_counts(6, 8, &mut buf);
            assert_eq!(buf, vec![1, 2, 3]);
            assert!(index.index_bytes() > 0);
        }
        // Auto on a tiny sequence resolves flat.
        assert_eq!(
            CountsIndex::build(&seq, CountsLayout::Auto).layout(),
            CountsLayout::Flat
        );
    }

    #[test]
    fn growable_matches_static_table_after_every_push() {
        let seq = demo_seq();
        let mut gc = GrowableCounts::new(3);
        assert!(gc.is_empty());
        for (t, &s) in seq.symbols().iter().enumerate() {
            gc.push(s);
            assert_eq!(gc.n(), t + 1);
            let frozen = Sequence::from_symbols(seq.symbols()[..=t].to_vec(), 3).unwrap();
            let pc = PrefixCounts::build(&frozen);
            for start in 0..=gc.n() {
                for end in start..=gc.n() {
                    for c in 0..3 {
                        assert_eq!(gc.count(c, start, end), pc.count(c, start, end));
                    }
                }
            }
        }
        assert_eq!(gc.symbols(), seq.symbols());
    }

    #[test]
    fn growable_fill_and_accumulate() {
        let seq = demo_seq();
        let mut gc = GrowableCounts::new(3);
        for &s in seq.symbols() {
            gc.push(s);
        }
        let pc = PrefixCounts::build(&seq);
        let mut a = vec![0u32; 3];
        let mut b = vec![0u32; 3];
        gc.fill_counts(2, 5, &mut a);
        pc.fill_counts(2, 5, &mut b);
        assert_eq!(a, b);
        gc.accumulate_counts(5, 8, &mut a);
        assert_eq!(a, pc.count_vector(2, 8));
    }

    #[test]
    fn growable_freezes_into_prefix_counts() {
        let seq = demo_seq();
        let mut gc = GrowableCounts::new(3);
        for &s in seq.symbols() {
            gc.push(s);
        }
        let frozen = gc.into_prefix_counts();
        let built = PrefixCounts::build(&seq);
        assert_eq!(frozen.n(), built.n());
        assert_eq!(frozen.k(), built.k());
        assert_eq!(frozen.symbols(), built.symbols());
        for start in 0..=seq.len() {
            for end in start..=seq.len() {
                assert_eq!(
                    frozen.count_vector(start, end),
                    built.count_vector(start, end)
                );
            }
        }
    }

    #[test]
    fn growable_freezes_into_blocked_counts() {
        let seq = demo_seq();
        let mut gc = GrowableCounts::new(3);
        for &s in seq.symbols() {
            gc.push(s);
        }
        let frozen = gc.into_blocked_counts();
        let built = PrefixCounts::build(&seq);
        assert_eq!(frozen.n(), built.n());
        assert_eq!(frozen.symbols(), built.symbols());
        for start in 0..=seq.len() {
            for end in start..=seq.len() {
                for c in 0..3 {
                    assert_eq!(frozen.count(c, start, end), built.count(c, start, end));
                }
            }
        }
    }

    #[test]
    fn growable_into_index_resolves_layout() {
        let mut gc = GrowableCounts::new(2);
        for s in [0u8, 1, 1, 0, 1] {
            gc.push(s);
        }
        assert_eq!(
            gc.clone().into_index(CountsLayout::Flat).layout(),
            CountsLayout::Flat
        );
        assert_eq!(
            gc.clone().into_index(CountsLayout::Blocked).layout(),
            CountsLayout::Blocked
        );
        // Tiny stream: Auto stays flat (a pure move).
        assert_eq!(
            gc.into_index(CountsLayout::Auto).layout(),
            CountsLayout::Flat
        );
    }

    #[test]
    fn growable_flat_freeze_is_in_place() {
        // The flat freeze must hand over the already-built buffers — no
        // copy, no reallocation — even though amortized growth left the
        // vectors with slack capacity. Pin with pointer identity.
        let mut gc = GrowableCounts::new(3);
        for &s in pseudo_random_symbols(257, 3, 0xF00D).iter() {
            gc.push(s);
        }
        assert!(
            gc.table.capacity() > gc.table.len(),
            "growth slack expected for this test to be meaningful"
        );
        let table_ptr = gc.table.as_ptr();
        let symbols_ptr = gc.symbols.as_ptr();
        match gc.into_index(CountsLayout::Flat) {
            CountsIndex::Flat(pc) => {
                assert_eq!(pc.table.as_ptr(), table_ptr, "table was reallocated");
                assert_eq!(pc.symbols.as_ptr(), symbols_ptr, "symbols were reallocated");
            }
            other => panic!("flat freeze produced {:?} layout", other.layout()),
        }
    }

    #[test]
    fn growable_freeze_index_snapshots_without_consuming() {
        // freeze_index leaves the growable usable for further appends,
        // and the snapshot agrees with a from-scratch build — in both
        // layouts, with exact (slack-free) capacity on the flat path.
        let symbols = pseudo_random_symbols(200, 3, 0xBEEF);
        let mut gc = GrowableCounts::new(3);
        for &s in &symbols[..150] {
            gc.push(s);
        }
        for &layout in &[CountsLayout::Flat, CountsLayout::Blocked] {
            let snap = gc.freeze_index(layout);
            assert_eq!(snap.layout(), layout);
            assert_eq!(snap.n(), 150);
            let frozen = Sequence::from_symbols(symbols[..150].to_vec(), 3).unwrap();
            let built = PrefixCounts::build(&frozen);
            for start in (0..=150).step_by(7) {
                for end in (start..=150).step_by(11) {
                    for c in 0..3 {
                        assert_eq!(snap.count(c, start, end), built.count(c, start, end));
                    }
                }
            }
        }
        if let CountsIndex::Flat(pc) = gc.freeze_index(CountsLayout::Flat) {
            if let Store::Owned(v) = &pc.table {
                assert_eq!(v.capacity(), v.len(), "snapshot carries growth slack");
            }
        }
        // The stream keeps appending after each snapshot.
        for &s in &symbols[150..] {
            gc.push(s);
        }
        assert_eq!(gc.n(), 200);
        let full = Sequence::from_symbols(symbols.clone(), 3).unwrap();
        let built = PrefixCounts::build(&full);
        for c in 0..3 {
            assert_eq!(gc.count(c, 0, 200), built.count(c, 0, 200));
        }
    }
}
