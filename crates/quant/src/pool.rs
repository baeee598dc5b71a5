//! Paged, packed KV-cache pool — the serving runtime's cache memory.
//!
//! A serving engine admits and retires sequences continuously; per-request
//! `Vec` growth would fragment memory and make admission control
//! guesswork. This module owns all quantized KV storage in one arena,
//! split into fixed-size **blocks** of `block_tokens` token slots, and
//! hands blocks to per-sequence [`PagedKvCache`] views on demand (the
//! vLLM paged-attention idea, applied to *packed* MANT4/INT8 group storage
//! so capacity is accounted in real packed bits, not f32 equivalents).
//!
//! One block holds both engines' storage for its token range:
//!
//! - **K** (spatial, Sec. V-C): per token slot, `kv_dim` 4-bit codes plus
//!   one [`GroupMeta`] per `group_size` channels — written the moment the
//!   key arrives.
//! - **V** (temporal, Fig. 8): per window of `group_size` token slots,
//!   `kv_dim × group_size` channel-major codes plus per-channel metadata —
//!   written when the per-sequence INT8 process window (which lives in the
//!   [`PagedKvCache`] view, not the arena) commits.
//!
//! Beside each side's codes and metadata a block carries a **sweep index**,
//! written in the same store: every K group's and V channel's interned
//! decode table and f32 scale, laid out for
//! [`KernelDispatch::dot_packed_rows_scaled`] — K `[group][slot]`, V per
//! window in channel order, each scale run padded by spare lanes — so
//! decode attention hands pool slices straight to the kernel and resolves
//! nothing per call. Like a weight matrix's block-ordered scales it is an
//! index of the metadata, not packed storage: [`KvCachePool::block_bits`]
//! does not count it.
//!
//! `block_tokens` is a multiple of `group_size`, so a V window never
//! straddles blocks. The arithmetic is [`crate::kv`]'s encode engines
//! (`encode_k_row_into`, `VStaging`, `attend_window`); this module decides
//! only where the bytes land, so contents do not depend on geometry — a
//! one-block pool (`slot == t`, the contiguous layout) and a many-block
//! pool hold the same rows bit for bit. This is the workspace's **only**
//! KV store: a single-sequence caller sizes a private pool for its
//! sequence, and `mant_model`'s one-token runner grows one as it steps.
//!
//! # Sharing: refcounted blocks and copy-on-write
//!
//! Packed groups are immutable once written — a committed K row or V
//! window is never touched again — so physical blocks can be **shared**
//! between sequences whose cached prefixes are identical. Every block
//! carries a reference count; [`PagedKvCache::fork`] clones a view in
//! O(blocks) by retaining every block (including the trailing partial
//! one) and copying only the per-sequence V staging window. A fork that
//! later writes into a block still shared with its sibling first copies
//! that block to a private one (**copy-on-write**), so divergence after a
//! fork is invisible to the other holder — the cornerstone of prompt
//! prefix sharing in the serving runtime, where requests with a common
//! system prompt map their shared prefix onto the *same* physical packed
//! blocks.

use std::cell::Cell;
use std::ops::Range;

use mant_tensor::Matrix;

use crate::activation::{quantize_vector_int8, QuantizedVector};
use crate::error::QuantError;
use crate::fused::group_dot_packed;
use crate::kv::{
    attend_window, encode_k_row_into, quantize_probs_int8_into, CommittedWindow, VStaging,
};
use crate::mantq::{packed_code, GroupDtype, GroupMeta};
use crate::plan::{kernel_table, kernel_table_lookup};
use crate::variance::VarianceMap;

#[cfg(doc)]
use mant_numerics::KernelDispatch;
use mant_numerics::{kernels, KernelLut, TILE_ROWS};

/// Shape of a [`KvCachePool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Width of the cached K/V vectors (`kv_heads × head_dim`).
    pub kv_dim: usize,
    /// Quantization group size (spatial for K, temporal for V).
    pub group_size: usize,
    /// Token slots per block; must be a multiple of `group_size`.
    pub block_tokens: usize,
    /// Total blocks in the pool.
    pub blocks: usize,
}

/// The block allocator owning all packed KV-cache storage.
#[derive(Clone, Debug)]
pub struct KvCachePool {
    cfg: PoolConfig,
    /// K codes, `blocks × block_tokens × kv_dim` nibbles **genuinely
    /// packed two per byte** (each spatial group byte-aligned).
    k_codes: Vec<u8>,
    /// K metadata, `blocks × block_tokens × (kv_dim / group_size)`.
    k_meta: Vec<GroupMeta>,
    /// Committed V codes, `blocks × block_tokens × kv_dim` packed nibbles
    /// (channel-major within each `group_size`-token window).
    v_codes: Vec<u8>,
    /// Committed V metadata, `blocks × windows_per_block × kv_dim`.
    v_meta: Vec<GroupMeta>,
    /// K's sweep operands, one run per (block, group) of `block_tokens`
    /// slots: `[block][group][slot]`.
    k_index: SweepIndex,
    /// Committed V's sweep operands, one run per (block, window) of
    /// `kv_dim` channels: `[block][window][channel]`.
    v_index: SweepIndex,
    /// Free block ids (LIFO: released blocks are reused first, keeping the
    /// hot working set compact).
    free: Vec<u32>,
    /// Per-block reference counts; 0 exactly for the blocks on the free
    /// list. The allocator invariant `free.len() + #{refs > 0} == blocks`
    /// holds across every alloc/retain/release.
    refs: Vec<u32>,
}

impl KvCachePool {
    /// Builds a pool with every block free.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadGroupSize`] if `group_size` does not
    /// divide `kv_dim` or `block_tokens` or if `block_tokens` is zero,
    /// and [`QuantError::ShapeMismatch`] if `blocks` is zero.
    pub fn new(cfg: PoolConfig) -> Result<Self, QuantError> {
        let g = cfg.group_size;
        let bad_width = g == 0 || !cfg.kv_dim.is_multiple_of(g);
        if bad_width || cfg.block_tokens == 0 || !cfg.block_tokens.is_multiple_of(g) {
            let inner_dim = if bad_width {
                cfg.kv_dim
            } else {
                cfg.block_tokens
            };
            return Err(QuantError::BadGroupSize {
                group_size: g,
                inner_dim,
            });
        }
        if cfg.blocks == 0 {
            return Err(QuantError::ShapeMismatch {
                context: "pool must hold at least one block",
            });
        }
        let mut pool = KvCachePool {
            cfg: PoolConfig { blocks: 0, ..cfg },
            k_codes: Vec::new(),
            k_meta: Vec::new(),
            v_codes: Vec::new(),
            v_meta: Vec::new(),
            k_index: SweepIndex::new(cfg.block_tokens, cfg.kv_dim / g),
            v_index: SweepIndex::new(cfg.kv_dim, cfg.block_tokens / g),
            free: Vec::new(),
            refs: Vec::new(),
        };
        pool.grow(cfg.blocks);
        Ok(pool)
    }

    /// Appends `extra_blocks` free blocks: the four arenas (K and V codes
    /// and metadata), both sweep indexes, `refs` and the free list are
    /// extended; every live block keeps its id, refcount, bytes and index.
    /// For a caller that cannot size its pool up front (the one-token
    /// runner); a serving pool's size *is* its admission budget.
    pub fn grow(&mut self, extra_blocks: usize) {
        let (old, blocks) = (self.cfg.blocks, self.cfg.blocks + extra_blocks);
        let [k_codes, k_meta, v_codes, v_meta] = self.block_lens().map(|len| len * blocks);
        self.k_codes.resize(k_codes, 0);
        self.k_meta.resize(k_meta, GroupMeta::ZERO);
        self.v_codes.resize(v_codes, 0);
        self.v_meta.resize(v_meta, GroupMeta::ZERO);
        self.k_index.resize(blocks);
        self.v_index.resize(blocks);
        self.refs.resize(blocks, 0);
        // Lowest new id on top of the LIFO list.
        self.free.extend((old as u32..blocks as u32).rev());
        self.cfg.blocks = blocks;
    }

    /// The pool's shape.
    pub fn config(&self) -> PoolConfig {
        self.cfg
    }

    /// Bytes one packed group occupies (`⌈group_size / 2⌉`).
    fn group_bytes(&self) -> usize {
        self.cfg.group_size.div_ceil(2)
    }

    /// Packed bytes of one token slot's K row.
    fn k_row_bytes(&self) -> usize {
        (self.cfg.kv_dim / self.cfg.group_size) * self.group_bytes()
    }

    /// Packed bytes of one committed V window (`kv_dim` channel groups).
    fn v_window_bytes(&self) -> usize {
        self.cfg.kv_dim * self.group_bytes()
    }

    /// Resident bytes of the pool's code arenas — the physical allocation
    /// backing every block's K rows and committed V windows. With packed
    /// nibbles this is **half** what the one-code-per-byte layout held for
    /// the same geometry, i.e. an identical byte budget now holds twice
    /// the token slots.
    pub fn resident_code_bytes(&self) -> usize {
        self.k_codes.len() + self.v_codes.len()
    }

    /// Token slots per block.
    pub fn block_tokens(&self) -> usize {
        self.cfg.block_tokens
    }

    /// Total blocks.
    pub fn total_blocks(&self) -> usize {
        self.cfg.blocks
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Blocks currently handed out to sequences.
    pub fn used_blocks(&self) -> usize {
        self.cfg.blocks - self.free.len()
    }

    /// Blocks needed to hold `tokens` cached tokens of one sequence in one
    /// layer.
    pub fn blocks_for_tokens(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.cfg.block_tokens)
    }

    /// Packed bits per block: the physical code bytes (4 bits per element
    /// for even group sizes; odd group sizes carry a pad nibble per
    /// group, counted here so the accounting always equals resident
    /// memory) + 24-bit metadata per spatial group / (window, channel).
    pub fn block_bits(&self) -> usize {
        let gpr = self.cfg.kv_dim / self.cfg.group_size;
        let wpb = self.cfg.block_tokens / self.cfg.group_size;
        let k = self.cfg.block_tokens * (self.k_row_bytes() * 8 + gpr * 24);
        let v = wpb * (self.v_window_bytes() * 8 + self.cfg.kv_dim * 24);
        k + v
    }

    /// Total packed capacity in bits.
    pub fn capacity_bits(&self) -> usize {
        self.cfg.blocks * self.block_bits()
    }

    /// Packed bits of every handed-out block (reserved capacity, the
    /// admission-control quantity; a block is charged whole even while
    /// partially filled).
    pub fn used_bits(&self) -> usize {
        self.used_blocks() * self.block_bits()
    }

    /// Blocks currently shared by more than one holder (refcount ≥ 2) —
    /// the prefix-sharing payoff a serving report can surface.
    pub fn shared_blocks(&self) -> usize {
        self.refs.iter().filter(|&&r| r > 1).count()
    }

    /// The reference count of `block` (0 for a free block).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a block id of this pool.
    pub fn refcount(&self, block: u32) -> u32 {
        self.refs[block as usize]
    }

    fn alloc(&mut self) -> Option<u32> {
        let id = self.free.pop()?;
        debug_assert_eq!(self.refs[id as usize], 0, "free block with live refs");
        self.refs[id as usize] = 1;
        mant_trace::counter("pool.block_allocs", 1);
        Some(id)
    }

    /// Adds one holder to an allocated block (fork/share).
    fn retain_block(&mut self, id: u32) {
        debug_assert!((id as usize) < self.cfg.blocks, "foreign block id");
        debug_assert!(self.refs[id as usize] > 0, "retain of a free block {id}");
        self.refs[id as usize] += 1;
    }

    /// Drops one holder; the block returns to the free list when the last
    /// holder lets go.
    fn release_block(&mut self, id: u32) {
        debug_assert!((id as usize) < self.cfg.blocks, "foreign block id");
        debug_assert!(self.refs[id as usize] > 0, "double free of block {id}");
        self.refs[id as usize] -= 1;
        if self.refs[id as usize] == 0 {
            self.free.push(id);
        }
    }

    /// What one block takes of each arena: K code bytes, K metadata entries,
    /// committed-V code bytes, V metadata entries.
    fn block_lens(&self) -> [usize; 4] {
        let (bt, dim) = (self.cfg.block_tokens, self.cfg.kv_dim);
        let (gpr, wpb) = (dim / self.cfg.group_size, bt / self.cfg.group_size);
        let (k_codes, v_codes) = (bt * self.k_row_bytes(), wpb * self.v_window_bytes());
        [k_codes, bt * gpr, v_codes, wpb * dim]
    }

    /// Copies block `src`'s whole packed contents (K codes/meta, committed
    /// V codes/meta) and both sweep indexes into block `dst` — the
    /// copy-on-write primitive.
    fn copy_block(&mut self, src: u32, dst: u32) {
        let [k_codes, k_meta, v_codes, v_meta] = self.block_lens();
        let (s, d) = (src as usize, dst as usize);
        let from = |len: usize| s * len..(s + 1) * len;
        self.k_codes.copy_within(from(k_codes), d * k_codes);
        self.k_meta.copy_within(from(k_meta), d * k_meta);
        self.v_codes.copy_within(from(v_codes), d * v_codes);
        self.v_meta.copy_within(from(v_meta), d * v_meta);
        self.k_index.copy_block(s, d);
        self.v_index.copy_block(s, d);
    }

    /// Arena ranges of one token slot's K row: packed codes, metadata.
    fn k_row_at(&self, block: u32, slot: usize) -> (Range<usize>, Range<usize>) {
        let (rb, gpr) = (self.k_row_bytes(), self.cfg.kv_dim / self.cfg.group_size);
        let at = block as usize * self.cfg.block_tokens + slot;
        (at * rb..(at + 1) * rb, at * gpr..(at + 1) * gpr)
    }

    fn k_row(&self, block: u32, slot: usize) -> (&[u8], &[GroupMeta]) {
        self.k_rows(block, slot..slot + 1)
    }

    /// Consecutive K rows of one block: packed codes (a row every
    /// [`KvCachePool::k_row_bytes`]) and metadata (a row every `kv_dim /
    /// group_size` entries).
    fn k_rows(&self, block: u32, slots: Range<usize>) -> (&[u8], &[GroupMeta]) {
        let (first, last) = (
            self.k_row_at(block, slots.start),
            self.k_row_at(block, slots.end),
        );
        (
            &self.k_codes[first.0.start..last.0.start],
            &self.k_meta[first.1.start..last.1.start],
        )
    }

    /// Encodes `k` into one token slot's K row (codes and metadata) and
    /// files each group's table and scale in the K sweep index.
    fn write_k_row(&mut self, block: u32, slot: usize, kmap: &VarianceMap, k: &[f32]) {
        let (codes, meta) = self.k_row_at(block, slot);
        let meta = &mut self.k_meta[meta];
        encode_k_row_into(kmap, self.cfg.group_size, k, &mut self.k_codes[codes], meta);
        let table = kernel_table_lookup();
        for (group, m) in meta.iter().enumerate() {
            self.k_index
                .set(block as usize, group, slot, table(m.dtype), m.scale);
        }
    }

    /// Arena ranges of one committed V window: metadata, packed codes.
    fn v_window_at(&self, block: u32, win_in_block: usize) -> (Range<usize>, Range<usize>) {
        let (wb, dim) = (self.v_window_bytes(), self.cfg.kv_dim);
        let at = block as usize * (self.cfg.block_tokens / self.cfg.group_size) + win_in_block;
        (at * dim..(at + 1) * dim, at * wb..(at + 1) * wb)
    }

    fn v_window(&self, block: u32, win_in_block: usize) -> (&[GroupMeta], &[u8]) {
        let (meta, codes) = self.v_window_at(block, win_in_block);
        (&self.v_meta[meta], &self.v_codes[codes])
    }

    /// Commits a V window's metadata and codes into the pool and files each
    /// channel's table and scale in the V sweep index.
    fn write_v_window(&mut self, block: u32, win_in_block: usize, window: &CommittedWindow) {
        let (meta, codes) = self.v_window_at(block, win_in_block);
        self.v_meta[meta].copy_from_slice(&window.meta);
        self.v_codes[codes].copy_from_slice(&window.codes);
        let table = kernel_table_lookup();
        for (chan, m) in window.meta.iter().enumerate() {
            self.v_index
                .set(block as usize, win_in_block, chan, table(m.dtype), m.scale);
        }
    }
}

/// Lanes a scale run is padded by past its end: a sweep of `n` rows reads
/// `⌈n/8⌉·8` scales, so a slice from any entry of a run is a legal operand.
const SPARE_LANES: usize = TILE_ROWS - 1;

/// The kernel's operands beside a block's packed codes, written once with
/// the codes: each group's interned decode table and its scale as f32, in
/// the layout [`KernelDispatch::dot_packed_rows_scaled`] reads for a
/// one-group sweep. A **run** is the groups one such sweep walks — one K
/// group over a block's slots, or one V window's channels — and `runs`
/// of them make a block. A one-group sweep reads its scales in row order
/// padded to whole eight-row blocks, so each scale run carries
/// [`SPARE_LANES`] spare lanes: they are read, never stored. An index of
/// the metadata arenas, like a weight matrix's block-ordered scales: the
/// packed accounting ([`KvCachePool::block_bits`]) does not count it.
#[derive(Clone, Debug)]
struct SweepIndex {
    /// Entries of one run.
    run: usize,
    /// Runs per block.
    runs: usize,
    /// `[block][run][entry]`.
    luts: Vec<&'static KernelLut>,
    /// `[block][run][entry]`, each run `run + SPARE_LANES` long.
    scales: Vec<f32>,
}

impl SweepIndex {
    fn new(run: usize, runs: usize) -> Self {
        SweepIndex {
            run,
            runs,
            luts: Vec::new(),
            scales: Vec::new(),
        }
    }

    /// Sizes the index for `blocks` blocks; new entries hold the INT4
    /// table and zero scales until written.
    fn resize(&mut self, blocks: usize) {
        let runs = blocks * self.runs;
        self.luts
            .resize(runs * self.run, kernel_table(GroupDtype::Int4));
        self.scales.resize(runs * (self.run + SPARE_LANES), 0.0);
    }

    fn copy_block(&mut self, src: usize, dst: usize) {
        let luts = self.runs * self.run;
        let scales = self.runs * (self.run + SPARE_LANES);
        self.luts
            .copy_within(src * luts..(src + 1) * luts, dst * luts);
        self.scales
            .copy_within(src * scales..(src + 1) * scales, dst * scales);
    }

    fn set(&mut self, block: usize, run: usize, entry: usize, lut: &'static KernelLut, scale: f32) {
        let at = block * self.runs + run;
        self.luts[at * self.run + entry] = lut;
        self.scales[at * (self.run + SPARE_LANES) + entry] = scale;
    }

    /// Tables and scales of entries `entries` of one run: the `luts` and
    /// `wscales` of a one-group sweep over those rows.
    fn operands(&self, block: u32, run: usize, entries: Range<usize>) -> (&[&KernelLut], &[f32]) {
        let at = block as usize * self.runs + run;
        let lanes = entries.len().div_ceil(TILE_ROWS) * TILE_ROWS;
        let scales = at * (self.run + SPARE_LANES) + entries.start;
        (
            &self.luts[at * self.run..][entries],
            &self.scales[scales..scales + lanes],
        )
    }
}

/// One sequence's K+V cache for one layer: an ordered list of pool blocks
/// plus the per-sequence V staging window — pooled storage, so sequences
/// join and leave the batch without reallocation.
///
/// Deliberately **not** `Clone`: a bitwise clone would alias pool blocks
/// without adding holders. Use [`PagedKvCache::fork`], which retains every
/// shared block so copy-on-write and release stay sound.
#[derive(Debug)]
pub struct PagedKvCache {
    blocks: Vec<u32>,
    rows: usize,
    committed_windows: usize,
    kmap: VarianceMap,
    staging: VStaging,
}

impl PagedKvCache {
    /// Creates an empty view over `pool`'s geometry with the given K and V
    /// variance→type maps. No block is reserved until the first push.
    pub fn new(pool: &KvCachePool, kmap: VarianceMap, vmap: VarianceMap) -> Self {
        PagedKvCache {
            blocks: Vec::new(),
            rows: 0,
            committed_windows: 0,
            kmap,
            staging: VStaging::new(pool.cfg.kv_dim, pool.cfg.group_size, vmap),
        }
    }

    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the cache holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The cached vector width.
    pub fn dim(&self) -> usize {
        self.staging.dim
    }

    /// The group size (spatial for K, temporal for V).
    pub fn group_size(&self) -> usize {
        self.staging.group_size
    }

    /// Rows currently staged in the per-sequence INT8 process window.
    pub fn window_len(&self) -> usize {
        self.staging.rows()
    }

    /// Committed 4-bit V windows.
    pub fn committed_windows(&self) -> usize {
        self.committed_windows
    }

    /// Blocks this sequence currently holds (shared blocks included).
    pub fn reserved_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks this sequence holds that are still shared with another
    /// holder (a fork that has not yet diverged past them).
    pub fn shared_blocks(&self, pool: &KvCachePool) -> usize {
        self.blocks
            .iter()
            .filter(|&&b| pool.refcount(b) > 1)
            .count()
    }

    /// Whether releasing this view would return at least one block to the
    /// free list (it is the sole holder of some block). A view that only
    /// aliases blocks held elsewhere costs nothing to keep — the signal
    /// cache-eviction policies use to skip pointless evictions.
    pub fn holds_sole_reference(&self, pool: &KvCachePool) -> bool {
        self.blocks.iter().any(|&b| pool.refcount(b) == 1)
    }

    /// Forks this view: the child shares **every** block — full ones and
    /// the trailing partial one — and clones the per-sequence V staging
    /// window, so it is bit-identical to this cache at fork time. Writes
    /// on either side copy a still-shared block before touching it
    /// (copy-on-write), so the two sides diverge without perturbing each
    /// other. O(blocks) refcount bumps plus one staging-window clone; no
    /// packed data is copied until a divergent write happens.
    pub fn fork(&self, pool: &mut KvCachePool) -> PagedKvCache {
        for &b in &self.blocks {
            pool.retain_block(b);
        }
        PagedKvCache {
            blocks: self.blocks.clone(),
            rows: self.rows,
            committed_windows: self.committed_windows,
            kmap: self.kmap.clone(),
            staging: self.staging.clone(),
        }
    }

    /// What the next [`PagedKvCache::push`] will demand from the free
    /// list: a fresh block when the current one is full, plus a
    /// copy-on-write block when the K row's target block is still shared.
    /// A committing V window never needs its own copy: windows are
    /// `group_size`-aligned and `block_tokens` is a multiple of
    /// `group_size`, so the window ends at (and lives in) the very block
    /// the K row targets — fresh or already made private. Admission/step
    /// control sums this across sequences to know whether a batch
    /// iteration can proceed.
    pub fn blocks_needed_for_push(&self, pool: &KvCachePool) -> usize {
        self.blocks_needed_for_pushes(pool, 1)
    }

    /// Free blocks the next `n` consecutive pushes will demand together:
    /// a fresh block for every block boundary crossed in
    /// `(rows, rows + n]`, plus one copy-on-write block when the current
    /// partial block is shared. Nothing else can be
    /// charged: pushes only ever write the trailing block, and a freshly
    /// allocated block is born private. The multi-push generalization of
    /// [`PagedKvCache::blocks_needed_for_push`] that a prefill run and
    /// speculative decode's k-token verify burst budget against.
    pub fn blocks_needed_for_pushes(&self, pool: &KvCachePool, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let bt = pool.cfg.block_tokens;
        let new_blocks = (self.rows + n).div_ceil(bt) - self.blocks.len();
        let cow_k =
            self.rows < self.blocks.len() * bt && pool.refcount(self.blocks[self.rows / bt]) > 1;
        new_blocks + usize::from(cow_k)
    }

    /// Rolls the cache back to its first `len` tokens — the paged,
    /// CoW-aware rollback primitive speculative decode uses to discard
    /// rejected draft tokens.
    ///
    /// A cut in the V staging region **replays** the kept staged rows from
    /// their original f32 values (scale widenings triggered only by dropped
    /// rows are undone), so the cache is bit-identical to one that never
    /// saw the dropped tokens; a cut at a committed-window boundary drops
    /// whole windows (scales keep those windows' widenings — their INT8
    /// history is gone); a cut strictly inside a committed window panics.
    /// K rows need no erasure — they are encoded independently and slots
    /// past `len` are never read again.
    ///
    /// Block accounting is CoW-sound: tail blocks the kept prefix no
    /// longer touches are *released*, which only drops this view's
    /// refcount — a block still referenced by a forked sibling is never
    /// mutated or freed by the rollback, and a kept trailing block that is
    /// still shared gets copy-on-write-copied by the next push as usual.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()` or if `len` falls strictly inside a
    /// committed V window.
    pub fn truncate(&mut self, pool: &mut KvCachePool, len: usize) {
        assert!(
            len <= self.rows,
            "truncate length {len} exceeds cached rows {}",
            self.rows
        );
        if len == self.rows {
            return;
        }
        let g = self.staging.group_size;
        let committed_len = self.committed_windows * g;
        if len >= committed_len {
            self.staging.truncate(len - committed_len);
        } else {
            assert!(
                len.is_multiple_of(g),
                "cannot truncate inside a committed V window (len {len}, window {g})"
            );
            self.committed_windows = len / g;
            self.staging.truncate(0);
        }
        let keep_blocks = len.div_ceil(pool.cfg.block_tokens);
        for b in self.blocks.drain(keep_blocks..) {
            pool.release_block(b);
        }
        self.rows = len;
    }

    /// Replaces a still-shared block with a private copy (copy-on-write).
    /// The caller must have verified a free block exists.
    fn make_private(&mut self, pool: &mut KvCachePool, idx: usize) {
        let b = self.blocks[idx];
        if pool.refcount(b) <= 1 {
            return;
        }
        let nb = pool.alloc().expect("preflight checked a free block exists");
        pool.copy_block(b, nb);
        pool.release_block(b);
        self.blocks[idx] = nb;
        mant_trace::counter("pool.cow_copies", 1);
    }

    /// Quantizes and appends one decode step's key and value vectors,
    /// reserving a fresh block from `pool` when the current one fills and
    /// copying any still-shared target block first (copy-on-write): the K
    /// row encoded on arrival, the V row staged in INT8 and its window
    /// committed to 4 bits when it fills (Fig. 8's two phases).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::PoolExhausted`] if the push needs more free
    /// blocks ([`PagedKvCache::blocks_needed_for_push`]) than the pool
    /// has; the cache is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `v` length differs from the cache width.
    pub fn push(&mut self, pool: &mut KvCachePool, k: &[f32], v: &[f32]) -> Result<(), QuantError> {
        assert_eq!(k.len(), self.staging.dim, "key vector length mismatch");
        assert_eq!(v.len(), self.staging.dim, "value vector length mismatch");
        let bt = pool.cfg.block_tokens;
        // Chaos seam: a forced exhaustion reports exactly like the real
        // preflight failure below — before any mutation — so callers see
        // the same atomic error surface either way.
        #[cfg(feature = "fault-inject")]
        if mant_trace::fault::fire(mant_trace::fault::site::POOL_ALLOC) {
            return Err(QuantError::PoolExhausted {
                blocks: pool.cfg.blocks,
            });
        }
        // Preflight: the push mutates nothing unless every block it needs
        // (fresh or copy-on-write) is available, keeping failure atomic.
        if pool.free_blocks() < self.blocks_needed_for_push(pool) {
            return Err(QuantError::PoolExhausted {
                blocks: pool.cfg.blocks,
            });
        }
        if self.rows == self.blocks.len() * bt {
            let block = pool.alloc().expect("preflight checked");
            self.blocks.push(block);
        } else {
            self.make_private(pool, self.rows / bt);
        }
        pool.write_k_row(self.blocks[self.rows / bt], self.rows % bt, &self.kmap, k);
        if let Some(window) = self.staging.push(v) {
            let g = self.staging.group_size;
            let win_token = self.committed_windows * g;
            // The window is g-aligned and ends at the row just written, so
            // it lives in the K target block — fresh or just made private.
            debug_assert_eq!(
                win_token / bt,
                self.rows / bt,
                "V window strayed from K block"
            );
            debug_assert_eq!(
                pool.refcount(self.blocks[win_token / bt]),
                1,
                "committing into a shared block"
            );
            pool.write_v_window(self.blocks[win_token / bt], (win_token % bt) / g, &window);
            self.committed_windows += 1;
        }
        self.rows += 1;
        Ok(())
    }

    /// Ingests a whole prefill: derives the staging window's per-channel
    /// INT8 scales from the prefill V statistics (Sec. V-C: "scales" in
    /// Fig. 8), then pushes row by row. Errors as [`PagedKvCache::push`];
    /// the rows pushed before the failure stay.
    ///
    /// # Panics
    ///
    /// Panics if `k` and `v` are not both `seq × dim`.
    pub fn prefill(
        &mut self,
        pool: &mut KvCachePool,
        k: &Matrix,
        v: &Matrix,
    ) -> Result<(), QuantError> {
        assert_eq!(k.shape(), v.shape(), "prefill K/V shape mismatch");
        assert_eq!(v.cols(), self.staging.dim, "prefill width mismatch");
        self.staging.set_scales_from_prefill(v);
        (0..k.rows()).try_for_each(|r| self.push(pool, k.row(r), v.row(r)))
    }

    /// The fused `q · k_t` partial dot over `n_groups` consecutive groups of
    /// the pooled packed key codes (Eq. (5): integer psums, one `s_q · s_k`
    /// multiply per group), from query group `q_lo` and key group `k_lo`.
    ///
    /// The **per-row reference** of decode attention: one block lookup,
    /// then one dispatched [`group_dot_packed`] and one f64 multiply-add per
    /// group. The serving paths score whole pool blocks at a time
    /// ([`attention_incremental_paged`], [`RunAttention`]) through
    /// [`KernelDispatch::dot_packed_rows_scaled`], whose epilogue is this
    /// sum — same expression, same association, ascending groups from
    /// `+0.0` — so tests compare them bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the query's group size differs from the cache's, or if
    /// any index is out of bounds.
    pub fn fused_dot(
        &self,
        pool: &KvCachePool,
        t: usize,
        q: &QuantizedVector,
        q_lo: usize,
        k_lo: usize,
        n_groups: usize,
    ) -> f32 {
        let g = self.staging.group_size;
        assert_eq!(q.group_size(), g, "query group size mismatch");
        assert!(t < self.rows, "token index {t} out of bounds");
        let bt = pool.cfg.block_tokens;
        let gb = pool.group_bytes();
        let (codes, meta) = pool.k_row(self.blocks[t / bt], t % bt);
        let mut acc = 0.0f64;
        for j in 0..n_groups {
            let m = meta[k_lo + j];
            let group = &codes[(k_lo + j) * gb..(k_lo + j + 1) * gb];
            let int_result = group_dot_packed(m, q.group_codes(q_lo + j), group);
            acc += f64::from(q.scale(q_lo + j)) * f64::from(m.scale) * int_result as f64;
        }
        acc as f32
    }

    /// Scores query heads against cached K rows `rows` of one KV head (its
    /// `gph` groups from key group `k_lo`), per pool block one
    /// [`KernelDispatch::dot_packed_rows_scaled`] call per group, in
    /// ascending order onto the same accumulators: the block's tables and
    /// scales are the pool's K index, read in place, and every query head
    /// of `xcodes` is a member of the call — the GQA heads sharing the KV
    /// head. `xcodes` and `xscales` hold, group by group, each member's
    /// `group_size` INT8 codes and f64 scale of that group
    /// ([`sweep_members`]' order). `emit(member, t0, sums)` receives each
    /// block's sums for rows `t0..t0 + sums.len()`: the f64 value
    /// [`PagedKvCache::fused_dot`] rounds to f32, bit for bit (one call per
    /// group adds the same terms to the same chain as one call over all of
    /// them).
    #[allow(clippy::too_many_arguments)] // one sweep's operands
    fn score_rows(
        &self,
        pool: &KvCachePool,
        rows: Range<usize>,
        k_lo: usize,
        gph: usize,
        xcodes: &[&[i8]],
        xscales: &[f64],
        sweep: &mut RowSweep,
        mut emit: impl FnMut(usize, usize, &[f64]),
    ) {
        let (g, gb, bt) = (
            self.staging.group_size,
            pool.group_bytes(),
            pool.cfg.block_tokens,
        );
        let members = xcodes.len() / gph;
        let mut t0 = rows.start;
        while t0 < rows.end {
            let (block, slot) = (self.blocks[t0 / bt], t0 % bt);
            let n = (bt - slot).min(rows.end - t0);
            let (codes, _) = pool.k_rows(block, slot..slot + n);
            let accs = sweep.reset(members * n, 0.0);
            let per_group = xcodes
                .chunks_exact(members)
                .zip(xscales.chunks_exact(members));
            for (k, (x, xs)) in (k_lo..).zip(per_group) {
                let (luts, scales) = pool.k_index.operands(block, k, slot..slot + n);
                kernels().dot_packed_rows_scaled(
                    &codes[k * gb..],
                    pool.k_row_bytes(),
                    g,
                    1,
                    luts,
                    scales,
                    x,
                    xs,
                    accs,
                );
            }
            for (j, sums) in accs.chunks_exact(n).enumerate() {
                emit(j, t0, sums);
            }
            t0 += n;
        }
    }

    /// Incremental `P·V` over pooled committed windows plus the
    /// per-sequence INT8 staging window: adds `Σ_t probs[t] · v_t[c]` into
    /// `out[c - chan_lo]`, probabilities quantized to INT8 per window.
    ///
    /// The **per-row reference**: every committed window goes through
    /// `attend_window`, one [`group_dot_packed`] per channel. Attention
    /// takes the same windows one [`KernelDispatch::dot_packed_rows_scaled`]
    /// call per KV head and window (`PagedKvCache::window_pv`), bit for
    /// bit the same.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != self.len()` or the channel range exceeds
    /// the cache width.
    pub fn attend(&self, pool: &KvCachePool, probs: &[f32], chan_lo: usize, out: &mut [f32]) {
        assert_eq!(probs.len(), self.rows, "probability length mismatch");
        assert!(
            chan_lo + out.len() <= self.staging.dim,
            "channel range out of bounds"
        );
        let g = self.staging.group_size;
        let bt = pool.cfg.block_tokens;
        let mut p8 = vec![0i8; g];
        let (windows, staged) = probs.split_at(self.committed_windows * g);
        for (w, window_probs) in windows.chunks_exact(g).enumerate() {
            let Some(pscale) = quantize_probs_int8_into(window_probs, &mut p8) else {
                continue;
            };
            let (meta, codes) = pool.v_window(self.blocks[w * g / bt], (w * g % bt) / g);
            attend_window(meta, codes, g, &p8, pscale, chan_lo, out);
        }
        self.staging
            .attend_staged_with(staged, &mut p8, chan_lo, out);
    }

    /// Committed window `w`'s `P·V` terms over channels `chans`, for many
    /// members at once: each member's probabilities over the window
    /// (`probs`, one `group_size` slice a member) are quantized to INT8,
    /// and the members whose probabilities are not all zero — the others
    /// skip the window, as [`PagedKvCache::attend`] does — are swept in one
    /// [`KernelDispatch::dot_packed_rows_scaled`] call: a channel is a row
    /// of one group at stride `group_bytes`, its table and scale the pool's
    /// V index. `emit(i, terms)` receives member `i`'s terms (`i` counts
    /// every member offered), channel by channel. The accumulators start
    /// at `-0.0`, so each holds exactly [`attend_window`]'s f64 term
    /// (`-0.0 + t` is `t`, signed zeros included), for the caller to round
    /// to f32 before its `+=` as there.
    fn window_pv<'p>(
        &self,
        pool: &KvCachePool,
        w: usize,
        chans: Range<usize>,
        probs: impl Iterator<Item = &'p [f32]>,
        sweep: &mut RowSweep,
        mut emit: impl FnMut(usize, &[f64]),
    ) {
        let (g, gb, bt) = (
            self.staging.group_size,
            pool.group_bytes(),
            pool.cfg.block_tokens,
        );
        let RowSweep {
            accs,
            pcodes,
            pscales,
            live,
            ..
        } = sweep;
        pscales.clear();
        live.clear();
        for (i, p) in probs.enumerate() {
            if pcodes.len() == live.len() {
                pcodes.push(Vec::new());
            }
            let codes = &mut pcodes[live.len()];
            codes.resize(g, 0);
            if let Some(pscale) = quantize_probs_int8_into(p, codes) {
                pscales.push(f64::from(pscale));
                live.push(i);
            }
        }
        if live.is_empty() {
            return;
        }
        let (block, win) = (self.blocks[w * g / bt], (w * g % bt) / g);
        let (_, codes) = pool.v_window(block, win);
        let (luts, scales) = pool.v_index.operands(block, win, chans.clone());
        accs.clear();
        accs.resize(live.len() * chans.len(), -0.0);
        kernels().dot_packed_rows_scaled(
            &codes[chans.start * gb..],
            gb,
            g,
            1,
            luts,
            scales,
            &pcodes[..live.len()],
            pscales,
            accs,
        );
        for (&i, terms) in live.iter().zip(accs.chunks_exact(chans.len())) {
            emit(i, terms);
        }
    }

    /// Drops this view's hold on every block (a block returns to the free
    /// list when its last holder lets go) and clears the per-sequence
    /// state; afterwards the view behaves exactly like a freshly created
    /// one.
    pub fn release(&mut self, pool: &mut KvCachePool) {
        for b in self.blocks.drain(..) {
            pool.release_block(b);
        }
        self.rows = 0;
        self.committed_windows = 0;
        self.staging.reset();
    }

    /// Packed bits actually filled by this sequence (tokens, not whole
    /// blocks): the quantity serving metrics report as live cache memory.
    /// Counts physical packed bytes, pad nibbles of odd group sizes
    /// included, consistent with [`KvCachePool::block_bits`].
    pub fn used_bits(&self) -> usize {
        let dim = self.staging.dim;
        let gpr = dim / self.staging.group_size;
        let gb = self.staging.group_size.div_ceil(2);
        let k = self.rows * (gpr * gb * 8 + gpr * 24);
        let v_committed = self.committed_windows * (dim * gb * 8 + dim * 24);
        let v_staged = self.staging.rows() * dim * 8;
        k + v_committed + v_staged
    }

    /// Dequantizes the K side to a `seq × dim` matrix (the reference path).
    pub fn dequantize_k(&self, pool: &KvCachePool) -> Matrix {
        let dim = self.staging.dim;
        let g = self.staging.group_size;
        let gb = pool.group_bytes();
        let bt = pool.cfg.block_tokens;
        Matrix::from_fn(self.rows, dim, |t, c| {
            let (codes, meta) = pool.k_row(self.blocks[t / bt], t % bt);
            let m = meta[c / g];
            let code = packed_code(&codes[(c / g) * gb..(c / g + 1) * gb], c % g);
            m.dtype.decode(code) * m.scale
        })
    }

    /// Dequantizes the V side (committed 4-bit windows + INT8 staging
    /// rows) to a `seq × dim` matrix (the reference path).
    pub fn dequantize_v(&self, pool: &KvCachePool) -> Matrix {
        let dim = self.staging.dim;
        let g = self.staging.group_size;
        let bt = pool.cfg.block_tokens;
        Matrix::from_fn(self.rows, dim, |t, c| {
            if t < self.committed_windows * g {
                let gb = pool.group_bytes();
                let win_token = (t / g) * g;
                let (meta, codes) =
                    pool.v_window(self.blocks[win_token / bt], (win_token % bt) / g);
                let m = meta[c];
                m.dtype
                    .decode(packed_code(&codes[c * gb..(c + 1) * gb], t % g))
                    * m.scale
            } else {
                let row = self.staging.staged_row(t - self.committed_windows * g);
                f32::from(row[c]) * self.staging.staging_scale(c)
            }
        })
    }
}

/// The row sweep's scratch, reused across blocks, windows, heads and the
/// rows of a run: the accumulators of
/// [`KernelDispatch::dot_packed_rows_scaled`], for `P·V`
/// ([`PagedKvCache::window_pv`]) the members' INT8 window probabilities,
/// and the staged rows' INT8 probabilities.
#[derive(Default)]
struct RowSweep {
    accs: Vec<f64>,
    /// One window's INT8 probabilities, the members that sweep it first.
    pcodes: Vec<Vec<i8>>,
    /// Those members' probability scales.
    pscales: Vec<f64>,
    /// Those members' indices among the members offered.
    live: Vec<usize>,
    /// The staged rows' INT8 probabilities.
    staged: Vec<i8>,
}

impl RowSweep {
    /// `len` accumulators, each set to `start`.
    fn reset(&mut self, len: usize, start: f64) -> &mut [f64] {
        self.accs.clear();
        self.accs.resize(len, start);
        &mut self.accs
    }
}

/// A [`RunAttention`]'s buffers between runs.
#[derive(Default)]
struct RunScratch {
    sweep: RowSweep,
    probs: Vec<f32>,
    tails: Vec<f32>,
}

thread_local! {
    /// This thread's run buffers, lent to one [`RunAttention`] from `begin`
    /// to `finish`, so a decode step's attention allocates only its query
    /// and its output; they hold the largest run a thread has attended.
    static SCRATCH: Cell<RunScratch> = Cell::new(RunScratch::default());
}

/// Queries' INT8 group codes and f64 group scales in the order
/// [`PagedKvCache::score_rows`] takes them: per KV head, group by group of
/// the head, each query's `per_kv` heads of that KV head (adjacent in a
/// query), query after query. A KV head's operands are then one contiguous
/// slice of each.
fn sweep_members(
    qvs: &[QuantizedVector],
    kv_heads: usize,
    per_kv: usize,
    gph: usize,
) -> (Vec<&[i8]>, Vec<f64>) {
    let order = (0..kv_heads).flat_map(move |kv_head| {
        (0..gph).flat_map(move |k| {
            qvs.iter().flat_map(move |qv| {
                (0..per_kv).map(move |j| (qv, (kv_head * per_kv + j) * gph + k))
            })
        })
    });
    let codes = order.clone().map(|(qv, i)| qv.group_codes(i)).collect();
    let scales = order.map(|(qv, i)| f64::from(qv.scale(i))).collect();
    (codes, scales)
}

/// The shape contract of paged attention, checked once per call; returns
/// the cache group size.
fn check_attention_shapes(
    q_len: usize,
    cache: &PagedKvCache,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> usize {
    assert_eq!(q_len, heads * head_dim, "query length mismatch");
    assert!(
        kv_heads > 0 && heads.is_multiple_of(kv_heads),
        "kv_heads ({kv_heads}) must divide heads ({heads})"
    );
    assert_eq!(
        cache.dim(),
        kv_heads * head_dim,
        "paged cache width mismatch"
    );
    let g = cache.group_size();
    assert!(
        head_dim.is_multiple_of(g),
        "fused attention needs the group size ({g}) to divide the head dimension ({head_dim})"
    );
    g
}

/// Multi-head attention of one query vector against a pooled cache on the
/// **incremental path**: scores against the query quantized to group-wise
/// INT8, softmax, then `P·V` over the committed windows and the staging
/// window. No `seq × dim` matrix is materialized — work is proportional to
/// the codes read. With `kv_heads < heads`, query heads share K/V heads
/// (GQA).
///
/// Decode attention is a one-row [`RunAttention`] — the query's own row is
/// the last one the cache holds — so a decode step and every run take one
/// path: per KV head and pool block one
/// [`KernelDispatch::dot_packed_rows_scaled`] call per group of the head
/// scores the block's K rows for every query head of that KV head, and per
/// KV head and committed window one call takes those heads' channels of
/// `P·V`. The block lookup and the dispatch are paid per block or window,
/// the decode tables and scales are the pool's sweep index read in place,
/// and the epilogue runs in vector lanes. Bit for bit the per-row
/// references: a score is [`PagedKvCache::fused_dot`]` · 1/√head_dim`, and
/// `P·V` is [`PagedKvCache::attend`].
///
/// # Panics
///
/// Panics if the cache is empty, if `q.len() != heads · head_dim`, if
/// `kv_heads` is zero or does not divide `heads`, if the cache width is not
/// `kv_heads · head_dim`, or if the group size does not divide `head_dim`.
pub fn attention_incremental_paged(
    q: &[f32],
    cache: &PagedKvCache,
    pool: &KvCachePool,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> Vec<f32> {
    let run = RunAttention::begin(&[q], cache, pool, heads, kv_heads, head_dim);
    let mut rows = run.finish(cache, pool);
    rows.pop().expect("a one-row run yields one row")
}

/// Multi-head attention of one query vector against materialized f32 K/V
/// rows (`seq × kv_heads · head_dim`) — the workspace's one f32 attention
/// loop: FP16 attention over an unquantized cache, and over
/// [`PagedKvCache::dequantize_k`] / [`PagedKvCache::dequantize_v`] the
/// **dequantize path** — reference twin of [`attention_incremental_paged`]
/// (GQA as there) and the per-step cost the quantized backend eliminates.
///
/// # Panics
///
/// Panics on the head-layout mismatches [`attention_incremental_paged`]
/// rejects, or if `k_all` and `v_all` are not both `seq × kv_heads · head_dim`.
pub fn attention_f32(
    q: &[f32],
    k_all: &Matrix,
    v_all: &Matrix,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> Vec<f32> {
    assert_eq!(q.len(), heads * head_dim, "query length mismatch");
    assert!(
        kv_heads > 0 && heads.is_multiple_of(kv_heads),
        "kv_heads ({kv_heads}) must divide heads ({heads})"
    );
    let shape = (k_all.rows(), kv_heads * head_dim);
    assert_eq!((k_all.shape(), v_all.shape()), (shape, shape), "K/V shape");
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut out = vec![0.0f32; heads * head_dim];
    let mut scores = vec![0.0f32; k_all.rows()];
    for (h, oh) in out.chunks_exact_mut(head_dim).enumerate() {
        let qh = &q[h * head_dim..(h + 1) * head_dim];
        let kv_lo = h / (heads / kv_heads) * head_dim;
        for (t, s) in scores.iter_mut().enumerate() {
            let kh = &k_all.row(t)[kv_lo..kv_lo + head_dim];
            *s = qh.iter().zip(kh).map(|(&a, &b)| a * b).sum::<f32>() * scale;
        }
        kernels().softmax(&mut scores);
        for (t, &s) in scores.iter().enumerate().filter(|(_, &s)| s != 0.0) {
            for (o, &v) in oh.iter_mut().zip(&v_all.row(t)[kv_lo..kv_lo + head_dim]) {
                *o += s * v;
            }
        }
    }
    out
}

/// Attention for a **run** of consecutive rows of one sequence — a decode
/// step (one row, [`attention_incremental_paged`]), a prefill chunk, a
/// replayed span, a speculative verify pass — with the K rows and V windows
/// the cache holds swept once for all of the run's queries instead of once
/// per query.
///
/// Every dot goes through the packed row sweep
/// ([`KernelDispatch::dot_packed_rows_scaled`]) with the run's query heads
/// as members, its tables and scales read from the pool's sweep index
/// where they lie:
///
/// - **Scores.** [`RunAttention::begin`] scores every K row the cache
///   holds — the run's first row included — for every query: per KV head
///   and pool block one call per group of the head
///   (`PagedKvCache::score_rows`). A row pushed later in the run is
///   scored for its own query when that query attends; once a push
///   completes a chunk of in-run rows (at a multiple of [`TILE_ROWS`], the
///   kernel's row block), the chunk is scored the same way for every query
///   still to come.
/// - **`P·V`.** Per committed window and KV head one call takes the
///   head's channels, with the INT8 probabilities of every query head that
///   sees the window as members (`PagedKvCache::window_pv`). Only the
///   INT8 staging window is mutable — a later row can widen a channel
///   scale and re-encode it — so its share of `P·V` is taken the moment
///   the query's own row has been pushed.
///
/// Protocol: [`PagedKvCache::push`] the run's first row, then
/// [`RunAttention::begin`]; for each later row `i` in order, push it and
/// call [`RunAttention::attend_pushed`]`(i, ..)`; then
/// [`RunAttention::finish`]. Row `i` of the result equals
/// `attention_incremental_paged(&qs[i], ..)` called right after row `i`'s
/// push — and the per-row references, [`PagedKvCache::fused_dot`] and
/// [`PagedKvCache::attend`] — **bit for bit**: every score is the same
/// ascending f64 sum of `(q_scale · k_scale) · int` group terms `fused_dot`
/// forms, however many members share the call, and every output channel
/// adds its windows in ascending order and the staged rows last, as
/// `attend` does. (The staged term is taken into a zeroed accumulator;
/// `0.0 + t` differs from `t` only for `t = -0.0`, and adding either zero
/// to a sum that started at `+0.0` gives the same bits.)
pub struct RunAttention {
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
    /// Rows the cache held before the run's first push.
    base: usize,
    /// The run's queries, INT8 at the cache group size.
    qv: Vec<QuantizedVector>,
    /// Member `row · heads + head` owns `probs[member · stride..]
    /// [..base + row + 1]`: its scores over positions `0..=base + row`,
    /// softmaxed in place once the row has been pushed. One flat buffer,
    /// every member at the last row's length ([`RunAttention::stride`]);
    /// every score a row reads is written first, so the buffer is reused
    /// as it comes.
    probs: Vec<f32>,
    /// `[row][heads · head_dim]`: the staging window's share of `P·V`, per
    /// output channel.
    tails: Vec<f32>,
    /// The row sweep's scratch.
    sweep: RowSweep,
    /// Leading cache rows scored for every query still to come.
    scored: usize,
}

impl RunAttention {
    /// Quantizes the run's queries, scores them against every K row
    /// `cache` holds and settles the first query. Call right after the
    /// run's first push.
    ///
    /// # Panics
    ///
    /// Panics if `qs` or the cache is empty; otherwise as
    /// [`attention_incremental_paged`], for every query.
    pub fn begin<Q: AsRef<[f32]>>(
        qs: &[Q],
        cache: &PagedKvCache,
        pool: &KvCachePool,
        heads: usize,
        kv_heads: usize,
        head_dim: usize,
    ) -> Self {
        assert!(!qs.is_empty(), "a run has at least one row");
        let base = cache
            .len()
            .checked_sub(1)
            .expect("a run begins after its first push");
        let qv: Vec<QuantizedVector> = qs
            .iter()
            .map(|q| {
                let q = q.as_ref();
                let g = check_attention_shapes(q.len(), cache, heads, kv_heads, head_dim);
                quantize_vector_int8(q, g).expect("group divides head dim, hence q length")
            })
            .collect();
        let n = qv.len();
        let RunScratch {
            mut sweep,
            mut probs,
            mut tails,
        } = SCRATCH.take();
        sweep.staged.resize(cache.group_size(), 0);
        probs.resize(probs.len().max(n * heads * (base + n)), 0.0);
        tails.clear();
        tails.resize(n * heads * head_dim, 0.0);
        let mut run = RunAttention {
            heads,
            kv_heads,
            head_dim,
            base,
            qv,
            probs,
            tails,
            sweep,
            scored: base + 1,
        };
        run.score(cache, pool, 0..n, 0..base + 1);
        run.settle(0, cache);
        run
    }

    /// Floats between two members of `probs`: the last row's score count.
    fn stride(&self) -> usize {
        self.base + self.qv.len()
    }

    /// Scores queries `queries` against cache rows `rows`: per KV head one
    /// [`PagedKvCache::score_rows`] sweep, every head of those queries that
    /// shares the KV head a member.
    fn score(
        &mut self,
        cache: &PagedKvCache,
        pool: &KvCachePool,
        queries: Range<usize>,
        rows: Range<usize>,
    ) {
        let stride = self.stride();
        let RunAttention {
            heads,
            kv_heads,
            head_dim,
            ref qv,
            ref mut probs,
            ref mut sweep,
            ..
        } = *self;
        let per_kv = heads / kv_heads;
        let gph = head_dim / cache.group_size();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let (codes, xscales) = sweep_members(&qv[queries.clone()], kv_heads, per_kv, gph);
        let per_head = codes.len() / kv_heads;
        let operands = codes
            .chunks_exact(per_head)
            .zip(xscales.chunks_exact(per_head));
        for (kv_head, (codes, xscales)) in operands.enumerate() {
            cache.score_rows(
                pool,
                rows.clone(),
                kv_head * gph,
                gph,
                codes,
                xscales,
                sweep,
                |j, t0, sums| {
                    let member =
                        (queries.start + j / per_kv) * heads + kv_head * per_kv + j % per_kv;
                    for (s, &a) in probs[member * stride + t0..].iter_mut().zip(sums) {
                        *s = a as f32 * scale;
                    }
                },
            );
        }
    }

    /// Query `row`'s scores are complete: softmax them, and take the
    /// staging window's share of its `P·V` while the window holds exactly
    /// the rows the query sees.
    fn settle(&mut self, row: usize, cache: &PagedKvCache) {
        let (heads, head_dim) = (self.heads, self.head_dim);
        let (rows_now, stride) = (self.base + row + 1, self.stride());
        let per_kv = heads / self.kv_heads;
        let staged_from = cache.committed_windows * cache.group_size();
        for h in 0..heads {
            let member = row * heads + h;
            let scores = &mut self.probs[member * stride..][..rows_now];
            kernels().softmax(scores);
            cache.staging.attend_staged_with(
                &scores[staged_from..],
                &mut self.sweep.staged,
                h / per_kv * head_dim,
                &mut self.tails[member * head_dim..][..head_dim],
            );
        }
    }

    /// Attends query `row` now that its own K/V row is in `cache`: scores
    /// against the in-run rows no chunk covered yet, softmax, and the
    /// staging window's share of `P·V`; a push that completes a chunk also
    /// scores it for the queries still to come. Rows `1..` come in order,
    /// each right after its push (row 0 is [`RunAttention::begin`]'s).
    ///
    /// # Panics
    ///
    /// Panics if `row` is 0 or `cache` does not hold exactly the rows up
    /// to `row`.
    pub fn attend_pushed(&mut self, row: usize, cache: &PagedKvCache, pool: &KvCachePool) {
        let rows_now = self.base + row + 1;
        assert!(
            row > 0 && cache.len() == rows_now,
            "attend_pushed out of step with push"
        );
        self.score(cache, pool, row..row + 1, self.scored..rows_now);
        self.settle(row, cache);
        let n = self.qv.len();
        if rows_now.is_multiple_of(TILE_ROWS) && row + 1 < n {
            self.score(cache, pool, row + 1..n, self.scored..rows_now);
            self.scored = rows_now;
        }
    }

    /// `P·V` over the committed windows — each swept once per KV head for
    /// every query that sees it — plus each query's staged share; one
    /// output vector per run row.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not hold exactly the run's rows.
    pub fn finish(self, cache: &PagedKvCache, pool: &KvCachePool) -> Vec<Vec<f32>> {
        let stride = self.stride();
        assert_eq!(cache.len(), stride, "finish out of step with push");
        let (n, g) = (self.qv.len(), cache.group_size());
        let RunAttention {
            heads,
            kv_heads,
            head_dim,
            base,
            probs,
            tails,
            mut sweep,
            ..
        } = self;
        let per_kv = heads / kv_heads;
        let mut out = vec![vec![0.0f32; heads * head_dim]; n];
        for w in 0..cache.committed_windows {
            // A window committed inside the run exists only for the rows
            // pushed since.
            let first_row = ((w + 1) * g).saturating_sub(base + 1);
            if first_row >= n {
                break;
            }
            for kv_head in 0..kv_heads {
                let heads_of = kv_head * per_kv..(kv_head + 1) * per_kv;
                let members =
                    (first_row..n).flat_map(|row| heads_of.clone().map(move |h| (row, h)));
                cache.window_pv(
                    pool,
                    w,
                    kv_head * head_dim..(kv_head + 1) * head_dim,
                    members.map(|(row, h)| &probs[(row * heads + h) * stride + w * g..][..g]),
                    &mut sweep,
                    |i, terms| {
                        let (row, h) = (first_row + i / per_kv, heads_of.start + i % per_kv);
                        // `attend_window`'s term, one `+=` per channel.
                        for (o, &t) in out[row][h * head_dim..].iter_mut().zip(terms) {
                            *o += t as f32;
                        }
                    },
                );
            }
        }
        for (o, tail) in out.iter_mut().zip(tails.chunks_exact(heads * head_dim)) {
            for (oc, tc) in o.iter_mut().zip(tail) {
                *oc += tc;
            }
        }
        SCRATCH.set(RunScratch {
            sweep,
            probs,
            tails,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::CandidateSet;
    use mant_tensor::TensorGenerator;

    fn vmap() -> VarianceMap {
        VarianceMap::analytic(&CandidateSet::paper()).unwrap()
    }

    fn pool(blocks: usize, block_tokens: usize) -> KvCachePool {
        KvCachePool::new(PoolConfig {
            kv_dim: 64,
            group_size: 16,
            block_tokens,
            blocks,
        })
        .unwrap()
    }

    /// A fresh standalone cache fed only `rows` (each as key and value) in
    /// a private one-block pool: `slot == t`, the contiguous layout, with
    /// no neighbour, no recycled block and no fork in its history.
    fn standalone<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> (PagedKvCache, KvCachePool) {
        let rows: Vec<&[f32]> = rows.into_iter().collect();
        let mut pool = pool(1, rows.len().next_multiple_of(16));
        let mut cache = PagedKvCache::new(&pool, vmap(), vmap());
        for row in rows {
            cache.push(&mut pool, row, row).unwrap();
        }
        (cache, pool)
    }

    /// Both caches (64 wide, groups of 16) read back the same bits through
    /// every accessor: dequantized K and V rows, `fused_dot` at every
    /// position, `attend`.
    fn assert_same_reads(a: (&PagedKvCache, &KvCachePool), b: (&PagedKvCache, &KvCachePool)) {
        let ((a, a_pool), (b, b_pool)) = (a, b);
        assert_eq!(
            a.dequantize_k(a_pool).as_slice(),
            b.dequantize_k(b_pool).as_slice()
        );
        assert_eq!(
            a.dequantize_v(a_pool).as_slice(),
            b.dequantize_v(b_pool).as_slice()
        );
        let q: Vec<f32> = (0..64).map(|c| (c as f32 * 0.37).sin()).collect();
        let qv = quantize_vector_int8(&q, 16).unwrap();
        for t in 0..a.len() {
            assert_eq!(
                a.fused_dot(a_pool, t, &qv, 0, 0, 4).to_bits(),
                b.fused_dot(b_pool, t, &qv, 0, 0, 4).to_bits(),
                "t={t}"
            );
        }
        let probs: Vec<f32> = (0..a.len()).map(|i| 1.0 / (1.0 + i as f32)).collect();
        let (mut got, mut want) = (vec![0.0f32; 64], vec![0.0f32; 64]);
        a.attend(a_pool, &probs, 0, &mut got);
        b.attend(b_pool, &probs, 0, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn config_validation() {
        for bad in [
            PoolConfig {
                kv_dim: 60,
                group_size: 16,
                block_tokens: 32,
                blocks: 2,
            },
            PoolConfig {
                kv_dim: 64,
                group_size: 16,
                block_tokens: 24,
                blocks: 2,
            },
            PoolConfig {
                kv_dim: 64,
                group_size: 0,
                block_tokens: 32,
                blocks: 2,
            },
            PoolConfig {
                kv_dim: 64,
                group_size: 16,
                block_tokens: 0,
                blocks: 2,
            },
            PoolConfig {
                kv_dim: 64,
                group_size: 16,
                block_tokens: 32,
                blocks: 0,
            },
        ] {
            assert!(KvCachePool::new(bad).is_err(), "{bad:?}");
        }
        // The error names the dimension that failed — 16 divides 64, the
        // smaller of the two, but not the 72-token block.
        let bad_block = PoolConfig {
            kv_dim: 64,
            group_size: 16,
            block_tokens: 72,
            blocks: 2,
        };
        assert_eq!(
            KvCachePool::new(bad_block).unwrap_err(),
            QuantError::BadGroupSize {
                group_size: 16,
                inner_dim: 72,
            }
        );
    }

    #[test]
    fn multi_block_cache_bit_identical_to_the_one_block_layout() {
        // Where a row lands must not matter: the same rows pushed into a
        // multi-block pool and into a one-block pool (`slot == t`, the
        // contiguous layout) read back identically through every accessor.
        // 37 tokens across 32-token blocks exercises a block boundary and a
        // partially staged window.
        let mut gen = TensorGenerator::new(90);
        let mut pool = pool(4, 32);
        let mut paged = PagedKvCache::new(&pool, vmap(), vmap());
        let data = gen.group_diverse_matrix(37, 64, 16, 0.5);
        for t in 0..37 {
            paged.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        let (flat, flat_pool) = standalone((0..37).map(|t| data.row(t)));
        assert_eq!(paged.len(), 37);
        assert_eq!((paged.reserved_blocks(), flat.reserved_blocks()), (2, 1));
        assert_eq!(paged.committed_windows(), flat.committed_windows());
        assert_eq!(paged.window_len(), flat.window_len());
        assert_same_reads((&paged, &pool), (&flat, &flat_pool));

        // Whole-attention parity, GQA included.
        let q_full: Vec<f32> = (0..128).map(|_| gen.standard_normal()).collect();
        let fused_flat = attention_incremental_paged(&q_full, &flat, &flat_pool, 4, 2, 32);
        let fused_paged = attention_incremental_paged(&q_full, &paged, &pool, 4, 2, 32);
        assert_eq!(fused_flat, fused_paged);
    }

    #[test]
    fn interleaved_sequences_stay_independent() {
        // Two sequences pushing turn-by-turn claim interleaved blocks;
        // each must still equal a standalone cache fed only its own rows.
        let mut gen = TensorGenerator::new(91);
        let mut pool = pool(6, 16);
        let a_data = gen.group_diverse_matrix(20, 64, 16, 0.5);
        let b_data = gen.group_diverse_matrix(20, 64, 16, 0.8);
        let mut a = PagedKvCache::new(&pool, vmap(), vmap());
        let mut b = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..20 {
            a.push(&mut pool, a_data.row(t), a_data.row(t)).unwrap();
            b.push(&mut pool, b_data.row(t), b_data.row(t)).unwrap();
        }
        assert_eq!(pool.used_blocks(), 4);
        for (view, data) in [(&a, &a_data), (&b, &b_data)] {
            let (alone, alone_pool) = standalone((0..20).map(|t| data.row(t)));
            assert_same_reads((view, &pool), (&alone, &alone_pool));
        }
    }

    #[test]
    fn release_recycles_blocks_bit_exactly() {
        let mut gen = TensorGenerator::new(92);
        let mut pool = pool(2, 32);
        let first = gen.group_diverse_matrix(30, 64, 16, 0.5);
        let second = gen.group_diverse_matrix(18, 64, 16, 0.7);
        let mut view = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..30 {
            view.push(&mut pool, first.row(t), first.row(t)).unwrap();
        }
        assert_eq!(pool.free_blocks(), 1);
        view.release(&mut pool);
        assert_eq!(pool.free_blocks(), 2);
        assert!(view.is_empty());
        assert_eq!(view.committed_windows(), 0);
        // The recycled view over dirty blocks equals a fresh standalone
        // cache on the next sequence: rows, fused results and accounting,
        // bit for bit — recycling a finished session leaves no trace.
        for t in 0..18 {
            view.push(&mut pool, second.row(t), second.row(t)).unwrap();
        }
        let (fresh, fresh_pool) = standalone((0..18).map(|t| second.row(t)));
        assert_same_reads((&view, &pool), (&fresh, &fresh_pool));
        assert_eq!(view.used_bits(), fresh.used_bits());
    }

    #[test]
    fn exhaustion_is_reported_and_harmless() {
        let mut gen = TensorGenerator::new(93);
        let mut pool = pool(1, 16);
        let data = gen.group_diverse_matrix(17, 64, 16, 0.5);
        let mut view = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..16 {
            view.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        let err = view.push(&mut pool, data.row(16), data.row(16));
        assert_eq!(err, Err(QuantError::PoolExhausted { blocks: 1 }));
        assert_eq!(view.len(), 16, "failed push must not corrupt the view");
        // Freeing capacity lets the same push succeed.
        let mut other = PagedKvCache::new(&pool, vmap(), vmap());
        view.release(&mut pool);
        other.push(&mut pool, data.row(16), data.row(16)).unwrap();
        assert_eq!(other.len(), 1);
    }

    #[test]
    fn fork_shares_blocks_and_cow_diverges_bit_exactly() {
        // Fork mid-block (37 rows over 32-token blocks: one full block, one
        // partial, a half-filled staging window), then push different
        // continuations into parent and child. Each side must equal a fresh
        // standalone cache fed its own full stream, and the
        // shared full block must stay physically shared while the partial
        // one is copied on the first divergent write.
        let mut gen = TensorGenerator::new(94);
        let mut pool = pool(6, 32);
        let prefix = gen.group_diverse_matrix(37, 64, 16, 0.5);
        let a_tail = gen.group_diverse_matrix(15, 64, 16, 0.6);
        let b_tail = gen.group_diverse_matrix(15, 64, 16, 0.8);

        let mut a = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..37 {
            a.push(&mut pool, prefix.row(t), prefix.row(t)).unwrap();
        }
        let mut b = a.fork(&mut pool);
        assert_eq!(pool.used_blocks(), 2, "fork allocates nothing");
        assert_eq!(pool.shared_blocks(), 2);
        assert_eq!(a.shared_blocks(&pool), 2);
        assert_eq!(b.len(), 37);
        assert_eq!(
            a.dequantize_k(&pool).as_slice(),
            b.dequantize_k(&pool).as_slice()
        );

        // First divergent write copies the partial block (CoW), never the
        // full one.
        b.push(&mut pool, b_tail.row(0), b_tail.row(0)).unwrap();
        assert_eq!(pool.used_blocks(), 3);
        assert_eq!(pool.shared_blocks(), 1, "only the full block stays shared");
        for t in 0..15 {
            a.push(&mut pool, a_tail.row(t), a_tail.row(t)).unwrap();
            if t > 0 {
                b.push(&mut pool, b_tail.row(t), b_tail.row(t)).unwrap();
            }
        }
        for (view, tail) in [(&a, &a_tail), (&b, &b_tail)] {
            let stream = (0..37)
                .map(|t| prefix.row(t))
                .chain((0..15).map(|t| tail.row(t)));
            let (alone, alone_pool) = standalone(stream);
            assert_same_reads((view, &pool), (&alone, &alone_pool));
        }

        // Release order is irrelevant; every block comes back.
        a.release(&mut pool);
        assert_eq!(pool.used_blocks(), 2, "B still holds its blocks");
        b.release(&mut pool);
        assert_eq!(pool.free_blocks(), 6);
        assert_eq!(pool.shared_blocks(), 0);
    }

    #[test]
    fn cow_exhaustion_is_reported_and_atomic() {
        // Two blocks total: the parent holds one (partial), the fork's
        // divergent write needs a CoW copy — which succeeds — and the next
        // boundary allocation fails cleanly with both views intact.
        let mut gen = TensorGenerator::new(95);
        let mut pool = pool(2, 16);
        let data = gen.group_diverse_matrix(40, 64, 16, 0.5);
        let mut a = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..8 {
            a.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        let mut b = a.fork(&mut pool);
        assert_eq!(
            b.blocks_needed_for_push(&pool),
            1,
            "CoW of the shared block"
        );
        b.push(&mut pool, data.row(8), data.row(8)).unwrap();
        assert_eq!(pool.free_blocks(), 0);
        // A's next write also targets a still-shared block? No — the fork
        // copied, so A's block is private again and the push succeeds.
        assert_eq!(a.blocks_needed_for_push(&pool), 0);
        a.push(&mut pool, data.row(8), data.row(8)).unwrap();
        // Fill both views to their block boundary; the next push needs a
        // fresh block and none exists.
        for t in 9..16 {
            a.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        let err = a.push(&mut pool, data.row(16), data.row(16));
        assert_eq!(err, Err(QuantError::PoolExhausted { blocks: 2 }));
        assert_eq!(a.len(), 16, "failed push must not corrupt the view");
        b.release(&mut pool);
        a.push(&mut pool, data.row(16), data.row(16)).unwrap();
        a.release(&mut pool);
        assert_eq!(pool.free_blocks(), 2);
    }

    #[test]
    fn grow_mid_sequence_keeps_live_and_forked_blocks_bit_exactly() {
        // A two-block pool grown three times under a sequence and its fork
        // must read like a pool sized up front: growth moves arenas, never
        // a block id, a refcount or a byte.
        let mut gen = TensorGenerator::new(102);
        let data = gen.group_diverse_matrix(70, 64, 16, 0.5);
        let tail = gen.group_diverse_matrix(20, 64, 16, 0.8);
        let (mut grown_pool, mut sized_pool) = (pool(2, 16), pool(9, 16));
        let run = |pool: &mut KvCachePool, grow: bool| {
            let push = |pool: &mut KvCachePool, cache: &mut PagedKvCache, row: &[f32]| {
                if grow && pool.free_blocks() < cache.blocks_needed_for_push(pool) {
                    pool.grow(2);
                }
                cache.push(pool, row, row).unwrap();
            };
            let mut parent = PagedKvCache::new(pool, vmap(), vmap());
            for t in 0..37 {
                push(pool, &mut parent, data.row(t));
            }
            let mut child = parent.fork(pool);
            for t in 37..70 {
                push(pool, &mut parent, data.row(t));
            }
            for t in 0..20 {
                push(pool, &mut child, tail.row(t));
            }
            (parent, child)
        };
        let (parent, child) = run(&mut grown_pool, true);
        let (parent_sized, child_sized) = run(&mut sized_pool, false);
        // 2 → 4 → 6 → 8 blocks: five of the parent's, two only the child
        // holds.
        assert_eq!(
            (grown_pool.total_blocks(), grown_pool.used_blocks()),
            (8, 7)
        );
        assert_eq!(grown_pool.shared_blocks(), 2, "the fork still shares");
        for (got, want) in [(&parent, &parent_sized), (&child, &child_sized)] {
            assert_same_reads((got, &grown_pool), (want, &sized_pool));
        }
    }

    #[test]
    fn truncate_matches_fresh_replay_and_releases_tail_blocks() {
        // 37 rows over 32-token blocks (2 blocks, 2 committed V windows,
        // 5 staged rows). A staging-region cut must be bit-identical to a
        // fresh cache fed only the kept prefix — including after further
        // pushes — and tail blocks must come back to the free list.
        let mut gen = TensorGenerator::new(96);
        let mut pool = pool(4, 32);
        let data = gen.group_diverse_matrix(48, 64, 16, 0.5);
        let mut view = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..37 {
            view.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        assert_eq!(view.reserved_blocks(), 2);
        view.truncate(&mut pool, 34);
        assert_eq!(
            (view.len(), view.committed_windows(), view.window_len()),
            (34, 2, 2)
        );
        assert_eq!(view.reserved_blocks(), 2, "row 33 still lives in block 1");

        let mut fresh = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..34 {
            fresh.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        // Continue both past the next commit: the replayed staging state
        // (scales, stats, INT8 codes) must drive identical commits.
        for t in 34..48 {
            view.push(&mut pool, data.row(t), data.row(t)).unwrap();
            fresh.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        assert_same_reads((&view, &pool), (&fresh, &pool));

        // A cut to a block boundary releases the tail block.
        let free_before = pool.free_blocks();
        view.truncate(&mut pool, 32);
        assert_eq!(view.reserved_blocks(), 1);
        assert_eq!(pool.free_blocks(), free_before + 1);
        // Committed-window-boundary cut into the committed region.
        view.truncate(&mut pool, 16);
        assert_eq!(
            (view.len(), view.committed_windows(), view.window_len()),
            (16, 1, 0)
        );
        view.truncate(&mut pool, 0);
        assert!(view.is_empty());
        assert_eq!(view.reserved_blocks(), 0);
        fresh.release(&mut pool);
        assert_eq!(pool.free_blocks(), 4);
    }

    #[test]
    fn truncate_on_fork_never_touches_shared_blocks() {
        // Fork at 37 rows, push the child forward (CoW copies the partial
        // block), truncate the child back into its staging window: the
        // parent's bytes must be untouched and the child must equal a
        // fresh replay of its kept stream. Releasing a shared tail block
        // only drops a refcount.
        let mut gen = TensorGenerator::new(97);
        let mut pool = pool(8, 32);
        let data = gen.group_diverse_matrix(44, 64, 16, 0.5);
        let mut parent = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..37 {
            parent.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        let mut child = parent.fork(&mut pool);
        let parent_k = parent.dequantize_k(&pool);
        let parent_v = parent.dequantize_v(&pool);

        // Child truncates while every block is still shared: pure
        // refcount drop, no mutation, no CoW.
        child.truncate(&mut pool, 33);
        assert_eq!(pool.shared_blocks(), 2, "both blocks still shared");
        assert_eq!(parent.dequantize_k(&pool).as_slice(), parent_k.as_slice());
        // Child diverges (CoW of the kept trailing block), then rolls
        // back again past its divergence point.
        for t in 33..44 {
            child.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        child.truncate(&mut pool, 35);
        assert_eq!(parent.dequantize_k(&pool).as_slice(), parent_k.as_slice());
        assert_eq!(parent.dequantize_v(&pool).as_slice(), parent_v.as_slice());
        let mut fresh = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..35 {
            fresh.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        assert_same_reads((&child, &pool), (&fresh, &pool));
        // Truncating the child below the fork point drops its hold on the
        // shared tail block without freeing it out from under the parent.
        child.truncate(&mut pool, 32);
        assert_eq!(child.reserved_blocks(), 1);
        assert_eq!(parent.dequantize_k(&pool).as_slice(), parent_k.as_slice());
        parent.release(&mut pool);
        child.release(&mut pool);
        fresh.release(&mut pool);
        assert_eq!(pool.free_blocks(), 8);
    }

    #[test]
    fn blocks_needed_for_pushes_budgets_bursts() {
        let mut gen = TensorGenerator::new(98);
        let mut pool = pool(8, 32);
        let data = gen.group_diverse_matrix(40, 64, 16, 0.5);
        let mut view = PagedKvCache::new(&pool, vmap(), vmap());
        assert_eq!(view.blocks_needed_for_pushes(&pool, 0), 0);
        assert_eq!(view.blocks_needed_for_pushes(&pool, 1), 1);
        assert_eq!(view.blocks_needed_for_pushes(&pool, 33), 2);
        for t in 0..30 {
            view.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        // 2 slots left in the current block: a 3-push burst crosses one
        // boundary.
        assert_eq!(view.blocks_needed_for_pushes(&pool, 2), 0);
        assert_eq!(view.blocks_needed_for_pushes(&pool, 3), 1);
        // Multi-push budget agrees with the single-push primitive.
        assert_eq!(
            view.blocks_needed_for_pushes(&pool, 1),
            view.blocks_needed_for_push(&pool)
        );
        // A fork makes the partial block shared: one CoW charge on top.
        let mut child = view.fork(&mut pool);
        assert_eq!(view.blocks_needed_for_pushes(&pool, 3), 2);
        child.release(&mut pool);
        assert_eq!(view.blocks_needed_for_pushes(&pool, 3), 1);
    }

    /// Pushes `data` rows `lo..hi` through `view` as one run and checks
    /// every row's attention against the per-row references on a twin
    /// cache, each query right after its own push.
    fn check_run(
        pool: &mut KvCachePool,
        view: &mut PagedKvCache,
        twin: &mut PagedKvCache,
        data: &Matrix,
        queries: &Matrix,
        (lo, hi): (usize, usize),
        (heads, kv_heads): (usize, usize),
    ) {
        let head_dim = view.dim() / kv_heads;
        let shape = (heads, kv_heads, head_dim);
        let qs: Vec<Vec<f32>> = (lo..hi).map(|t| queries.row(t).to_vec()).collect();
        view.push(pool, data.row(lo), data.row(lo + 1)).unwrap();
        let mut run = RunAttention::begin(&qs, view, pool, heads, kv_heads, head_dim);
        for (i, t) in (lo..hi).enumerate().skip(1) {
            view.push(pool, data.row(t), data.row(t + 1)).unwrap();
            run.attend_pushed(i, view, pool);
        }
        let got = run.finish(view, pool);
        for (i, (t, g)) in (lo..hi).zip(got.iter()).enumerate() {
            twin.push(pool, data.row(t), data.row(t + 1)).unwrap();
            let w = per_row_attention(&qs[i], twin, pool, shape);
            let g: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
            let w: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
            assert_eq!(g, w, "run {lo}..{hi} row {i}");
        }
    }

    /// Decode attention as the per-row references compute it: per head,
    /// `fused_dot` per cached row, the softmax kernel, then `attend`.
    fn per_row_attention(
        q: &[f32],
        cache: &PagedKvCache,
        pool: &KvCachePool,
        (heads, kv_heads, head_dim): (usize, usize, usize),
    ) -> Vec<f32> {
        let g = cache.group_size();
        let (gph, scale) = (head_dim / g, 1.0 / (head_dim as f32).sqrt());
        let qv = quantize_vector_int8(q, g).unwrap();
        let mut out = vec![0.0f32; heads * head_dim];
        for (h, o) in out.chunks_exact_mut(head_dim).enumerate() {
            let kv_head = h / (heads / kv_heads);
            let mut scores: Vec<f32> = (0..cache.len())
                .map(|t| cache.fused_dot(pool, t, &qv, h * gph, kv_head * gph, gph) * scale)
                .collect();
            kernels().softmax(&mut scores);
            cache.attend(pool, &scores, kv_head * head_dim, o);
        }
        out
    }

    #[test]
    fn swept_attention_bit_identical_to_the_per_row_references() {
        // (heads, kv_heads, head_dim, group, block_tokens, rows): MHA at
        // the serving shape, GQA with three and two members per KV head,
        // a group size below one 32-code run, and an odd group size (the
        // kernel's scalar arm). Every row count leaves a partial block, a
        // ragged lane block and a non-empty staging window.
        for (i, &(heads, kv_heads, head_dim, g, bt, rows)) in [
            (4usize, 4usize, 64usize, 64usize, 64usize, 203usize),
            (6, 2, 32, 16, 32, 75),
            (4, 2, 32, 32, 32, 70),
            (2, 1, 64, 2, 4, 23),
            (3, 1, 9, 3, 6, 20),
        ]
        .iter()
        .enumerate()
        {
            let kv_dim = kv_heads * head_dim;
            let mut pool = KvCachePool::new(PoolConfig {
                kv_dim,
                group_size: g,
                block_tokens: bt,
                blocks: rows.div_ceil(bt),
            })
            .unwrap();
            let mut gen = TensorGenerator::new(40 + i as u64);
            let data = gen.group_diverse_matrix(rows + 1, kv_dim, g, 0.5);
            let mut cache = PagedKvCache::new(&pool, vmap(), vmap());
            for t in 0..rows {
                cache.push(&mut pool, data.row(t), data.row(t + 1)).unwrap();
                if t % 7 != 0 && t + 1 != rows {
                    continue;
                }
                let q: Vec<f32> = (0..heads * head_dim)
                    .map(|_| 4.0 * gen.standard_normal())
                    .collect();
                let shape = (heads, kv_heads, head_dim);
                let got = attention_incremental_paged(&q, &cache, &pool, heads, kv_heads, head_dim);
                let want = per_row_attention(&q, &cache, &pool, shape);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "case {i} after {} rows", t + 1);
            }
        }
    }

    #[test]
    fn swept_pv_bit_identical_to_attend_on_skipped_and_vanishing_windows() {
        // Window 0's probabilities are all zero (the window is skipped),
        // window 1's are a few at the smallest normal f32 against values
        // of order 1e-6, so its f64 terms round to f32 zeros of either sign
        // and to subnormals; the rest are ordinary. Channel ranges start
        // mid-width and end off the eight-lane block.
        let mut pool = pool(4, 32);
        let mut gen = TensorGenerator::new(77);
        let data = gen.group_diverse_matrix(101, 64, 16, 0.5);
        let mut cache = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..100 {
            let v: Vec<f32> = data.row(t + 1).iter().map(|&x| x * 1e-6).collect();
            let v = if (16..32).contains(&t) {
                v
            } else {
                data.row(t + 1).to_vec()
            };
            cache.push(&mut pool, data.row(t), &v).unwrap();
        }
        assert_eq!(cache.committed_windows(), 6);
        let mut probs: Vec<f32> = (0..100).map(|_| gen.standard_normal().abs()).collect();
        probs[..16].fill(0.0);
        for (t, p) in probs[16..32].iter_mut().enumerate() {
            *p = if t % 3 == 0 { f32::MIN_POSITIVE } else { 0.0 };
        }
        let mut p8 = vec![0i8; 16];
        let mut sweep = RowSweep::default();
        let zeros = [0.0f32; 16];
        for (chan_lo, len) in [(0usize, 64usize), (5, 13), (16, 16), (40, 24), (63, 1)] {
            let mut want = vec![0.0f32; len];
            cache.attend(&pool, &probs, chan_lo, &mut want);
            // Every window offers an all-zero member first, which must be
            // skipped without shifting the other's index.
            let mut got = vec![0.0f32; len];
            for w in 0..cache.committed_windows() {
                let members = [&zeros[..], &probs[w * 16..(w + 1) * 16]];
                let chans = chan_lo..chan_lo + len;
                cache.window_pv(
                    &pool,
                    w,
                    chans,
                    members.into_iter(),
                    &mut sweep,
                    |i, terms| {
                        assert_eq!(i, 1, "the zero member sweeps nothing");
                        for (o, &t) in got.iter_mut().zip(terms) {
                            *o += t as f32;
                        }
                    },
                );
            }
            let staged = &probs[cache.committed_windows() * 16..];
            cache
                .staging
                .attend_staged_with(staged, &mut p8, chan_lo, &mut got);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "channels {chan_lo}..+{len}");
        }
    }

    #[test]
    fn run_attention_bit_identical_to_per_query_attention() {
        // The cuts start runs at every `base % 8` (in-run rows are scored
        // for the queries still to come in chunks ending at multiples of
        // eight): runs that end before a chunk does (0..5, 16..18), runs
        // that complete a chunk mid-run (5..9, 23..28), runs ending exactly
        // on a window commit (9..16, 77..80), one crossing a block boundary
        // with a commit inside (28..35), one crossing blocks and several
        // commits (35..70), a one-row run — decode attention — (80..81),
        // and a 33-row run that crosses a pool block and commits a V
        // window (81..114). Plain heads; GQA with two query heads per KV
        // head and two groups per head; an odd group size (the kernel's
        // scalar arm) with 15-channel heads; and GQA with an even group
        // and 12-channel heads, ragged against the eight-row block.
        for (group_size, block_tokens, heads, kv_heads, groups_per_head) in [
            (16usize, 32usize, 4usize, 4usize, 1usize),
            (16, 32, 8, 4, 2),
            (5, 20, 4, 4, 3),
            (6, 24, 4, 2, 2),
        ] {
            let head_dim = group_size * groups_per_head;
            let mut gen = TensorGenerator::new(99);
            let mut pool = KvCachePool::new(PoolConfig {
                kv_dim: kv_heads * head_dim,
                group_size,
                block_tokens,
                blocks: 12,
            })
            .unwrap();
            let data = gen.group_diverse_matrix(115, kv_heads * head_dim, group_size, 0.5);
            let queries = gen.group_diverse_matrix(114, heads * head_dim, group_size, 1.0);
            let mut view = PagedKvCache::new(&pool, vmap(), vmap());
            let mut twin = PagedKvCache::new(&pool, vmap(), vmap());
            for cut in [0usize, 5, 9, 16, 18, 23, 28, 35, 70, 77, 80, 81, 114].windows(2) {
                check_run(
                    &mut pool,
                    &mut view,
                    &mut twin,
                    &data,
                    &queries,
                    (cut[0], cut[1]),
                    (heads, kv_heads),
                );
            }
            assert_eq!(
                view.dequantize_v(&pool).as_slice(),
                twin.dequantize_v(&pool).as_slice()
            );
        }
    }

    #[test]
    fn run_attention_sees_a_forked_prefix() {
        // A fork shares its parent's blocks: the run reads the shared K
        // rows and V windows through the child's own block list and its
        // first push copies the partial block.
        let mut gen = TensorGenerator::new(100);
        let mut pool = pool(8, 32);
        let data = gen.group_diverse_matrix(61, 64, 16, 0.5);
        let queries = gen.group_diverse_matrix(60, 64, 16, 1.0);
        let mut parent = PagedKvCache::new(&pool, vmap(), vmap());
        let mut twin = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..37 {
            parent
                .push(&mut pool, data.row(t), data.row(t + 1))
                .unwrap();
            twin.push(&mut pool, data.row(t), data.row(t + 1)).unwrap();
        }
        let mut child = parent.fork(&mut pool);
        check_run(
            &mut pool,
            &mut child,
            &mut twin,
            &data,
            &queries,
            (37, 60),
            (4, 4),
        );
        assert_eq!(parent.len(), 37, "the parent never moved");
    }

    #[test]
    fn packed_attention_tracks_an_f64_softmax_reference() {
        // The packed path against exact arithmetic over the same caches:
        // the same f32 scores, softmaxed in f64 with libm's `exp`, times the
        // dequantized V cache in f64. What separates the two is the INT8
        // probability quantization and the softmax kernel — its polynomial
        // `exp` (≤ 1 ulp), its lane-ordered f32 sum and the flush of
        // everything more than 87 below the row maximum. The queries are
        // scaled so that a third of the scores lie under that floor. This
        // build measures a max abs error of 1.896494073e-3 on every tier;
        // with libm's `expf` and a running sum (the softmax the kernel
        // replaced, at the parent commit) the same measurement reads
        // 1.896494073e-3 as well — the probability codes' half step
        // dominates, and the kernel costs no accuracy.
        let (heads, kv_heads, head_dim, g, seq) = (4usize, 2usize, 32usize, 16usize, 200usize);
        let gph = head_dim / g;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut gen = TensorGenerator::new(101);
        let mut pool = pool(8, 32);
        let data = gen.group_diverse_matrix(seq + 1, 64, g, 0.5);
        let mut cache = PagedKvCache::new(&pool, vmap(), vmap());
        for t in 0..seq {
            cache.push(&mut pool, data.row(t), data.row(t + 1)).unwrap();
        }
        assert!(cache.committed_windows() > 0 && cache.window_len() > 0);
        let v = cache.dequantize_v(&pool);
        let (mut worst, mut floored, mut total) = (0.0f64, 0usize, 0usize);
        for _ in 0..8 {
            let q: Vec<f32> = (0..heads * head_dim)
                .map(|_| 16.0 * gen.standard_normal())
                .collect();
            let got = attention_incremental_paged(&q, &cache, &pool, heads, kv_heads, head_dim);
            let qv = quantize_vector_int8(&q, g).unwrap();
            for h in 0..heads {
                let kv_head = h / (heads / kv_heads);
                let scores: Vec<f64> = (0..seq)
                    .map(|t| {
                        let dot = cache.fused_dot(&pool, t, &qv, h * gph, kv_head * gph, gph);
                        f64::from(dot * scale)
                    })
                    .collect();
                let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                floored += scores.iter().filter(|&&s| s - max < -87.0).count();
                total += seq;
                let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
                let z: f64 = exps.iter().sum();
                for c in 0..head_dim {
                    let want: f64 = (0..seq)
                        .map(|t| exps[t] / z * f64::from(v[(t, kv_head * head_dim + c)]))
                        .sum();
                    worst = worst.max((f64::from(got[h * head_dim + c]) - want).abs());
                }
            }
        }
        let share = floored as f64 / total as f64;
        assert!(
            (0.1..0.9).contains(&share),
            "scores must straddle the floor, {share:.2} lie under it"
        );
        assert!(worst <= 1.897e-3, "max abs error {worst:.9e}");
    }

    #[test]
    #[should_panic(expected = "inside a committed V window")]
    fn truncate_inside_committed_window_rejected() {
        let mut pool = pool(4, 32);
        let mut view = PagedKvCache::new(&pool, vmap(), vmap());
        for _ in 0..37 {
            view.push(&mut pool, &[0.5; 64], &[0.5; 64]).unwrap();
        }
        view.truncate(&mut pool, 17);
    }

    #[test]
    #[should_panic(expected = "exceeds cached rows")]
    fn truncate_beyond_len_rejected() {
        let mut pool = pool(4, 32);
        let mut view = PagedKvCache::new(&pool, vmap(), vmap());
        view.push(&mut pool, &[0.5; 64], &[0.5; 64]).unwrap();
        view.truncate(&mut pool, 2);
    }

    #[test]
    fn packed_blocks_hold_double_tokens_per_byte_budget() {
        // The pool's arenas are genuinely nibble-packed: 4 blocks × 32
        // slots × 64 channels hold K and V codes in `slots × kv_dim`
        // bytes total (half a byte per code per side). The pre-packing
        // layout spent one byte per code — `2 × slots × kv_dim` — so an
        // identical byte budget now holds exactly 2× the token slots.
        let pool = pool(4, 32);
        let slots = 4 * 32;
        let packed_bytes = pool.resident_code_bytes();
        assert_eq!(packed_bytes, slots * 64);
        let unpacked_bytes_per_token = 2 * 64; // one byte per K + V code
        let packed_bytes_per_token = packed_bytes / slots;
        assert_eq!(unpacked_bytes_per_token / packed_bytes_per_token, 2);
        // Same budget, twice the tokens: the byte budget that used to back
        // this pool's slots one-per-byte now backs 2× the slots.
        let budget = slots * unpacked_bytes_per_token;
        assert_eq!(budget / packed_bytes_per_token, 2 * slots);
        // And the arithmetic block accounting now matches physical bytes.
        assert_eq!(
            pool.capacity_bits(),
            packed_bytes * 8 + (slots * 4 + (slots / 16) * 64) * 24
        );
    }

    #[test]
    fn bit_accounting() {
        let mut pool = pool(3, 32);
        // Per block: K 32×64×4 + 32×4×24, V 32×64×4 + 2×64×24.
        let expect = 32 * 64 * 4 + 32 * 4 * 24 + 32 * 64 * 4 + 2 * 64 * 24;
        assert_eq!(pool.block_bits(), expect);
        assert_eq!(pool.capacity_bits(), 3 * expect);
        assert_eq!(pool.used_bits(), 0);
        let mut view = PagedKvCache::new(&pool, vmap(), vmap());
        for _ in 0..33 {
            view.push(&mut pool, &[0.5; 64], &[0.5; 64]).unwrap();
        }
        assert_eq!(pool.used_bits(), 2 * expect);
        assert_eq!(pool.blocks_for_tokens(33), 2);
        // Live bits: 33 K rows, 2 committed V windows, 1 staged INT8 row.
        let live = 33 * (64 * 4 + 4 * 24) + 2 * (16 * 64 * 4 + 64 * 24) + 64 * 8;
        assert_eq!(view.used_bits(), live);
        assert!(view.used_bits() <= pool.used_bits());
    }
}
