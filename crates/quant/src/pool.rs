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

use std::ops::Range;

use mant_tensor::Matrix;

use crate::activation::{quantize_vector_int8, QuantizedVector};
use crate::error::QuantError;
use crate::fused::{decode_tile_row, group_dot_packed};
use crate::kv::{attend_window, encode_k_row_into, quantize_probs_int8_into, VStaging};
use crate::mantq::{packed_code, GroupDtype, GroupMeta};
use crate::plan::{kernel_table, kernel_table_lookup};
use crate::variance::VarianceMap;

#[allow(unused_imports)] // doc links
use mant_numerics::KernelDispatch;
use mant_numerics::{kernels, tile8_len, KernelLut, TILE_ROWS};

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
            free: Vec::new(),
            refs: Vec::new(),
        };
        pool.grow(cfg.blocks);
        Ok(pool)
    }

    /// Appends `extra_blocks` free blocks: the four arenas, `refs` and the
    /// free list are extended; every live block keeps its id, refcount and
    /// bytes. For a caller that cannot size its pool up front (the one-token
    /// runner); a serving pool's size *is* its admission budget.
    pub fn grow(&mut self, extra_blocks: usize) {
        let (old, blocks) = (self.cfg.blocks, self.cfg.blocks + extra_blocks);
        let [k_codes, k_meta, v_codes, v_meta] = self.block_lens().map(|len| len * blocks);
        self.k_codes.resize(k_codes, 0);
        self.k_meta.resize(k_meta, GroupMeta::ZERO);
        self.v_codes.resize(v_codes, 0);
        self.v_meta.resize(v_meta, GroupMeta::ZERO);
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
    /// V codes/meta) into block `dst` — the copy-on-write primitive.
    fn copy_block(&mut self, src: u32, dst: u32) {
        let [k_codes, k_meta, v_codes, v_meta] = self.block_lens();
        let (s, d) = (src as usize, dst as usize);
        let from = |len: usize| s * len..(s + 1) * len;
        self.k_codes.copy_within(from(k_codes), d * k_codes);
        self.k_meta.copy_within(from(k_meta), d * k_meta);
        self.v_codes.copy_within(from(v_codes), d * v_codes);
        self.v_meta.copy_within(from(v_meta), d * v_meta);
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

    fn k_row_mut(&mut self, block: u32, slot: usize) -> (&mut [u8], &mut [GroupMeta]) {
        let (codes, meta) = self.k_row_at(block, slot);
        (&mut self.k_codes[codes], &mut self.k_meta[meta])
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

    fn v_window_mut(&mut self, block: u32, win_in_block: usize) -> (&mut [GroupMeta], &mut [u8]) {
        let (meta, codes) = self.v_window_at(block, win_in_block);
        (&mut self.v_meta[meta], &mut self.v_codes[codes])
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
        let (codes, meta) = pool.k_row_mut(self.blocks[self.rows / bt], self.rows % bt);
        encode_k_row_into(&self.kmap, self.staging.group_size, k, codes, meta);
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
            let (vmeta, vcodes) =
                pool.v_window_mut(self.blocks[win_token / bt], (win_token % bt) / g);
            vmeta.copy_from_slice(&window.meta);
            vcodes.copy_from_slice(&window.codes);
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
    /// `gph` groups from key group `k_lo`), one
    /// [`KernelDispatch::dot_packed_rows_scaled`] call per pool block: the
    /// block's tables and scales are resolved once, and every query head
    /// of `xcodes` (INT8, `gph · group_size` codes each; f64 group scales
    /// `xscales`) is a member of the call — the GQA heads sharing the KV
    /// head. `emit(member, t0, sums)` receives each block's sums for rows
    /// `t0..t0 + sums.len()`: the f64 value [`PagedKvCache::fused_dot`]
    /// rounds to f32, bit for bit.
    #[allow(clippy::too_many_arguments)] // one sweep's operands
    fn score_rows(
        &self,
        pool: &KvCachePool,
        rows: Range<usize>,
        k_lo: usize,
        gph: usize,
        xcodes: &[i8],
        xscales: &[f64],
        sweep: &mut RowSweep,
        mut emit: impl FnMut(usize, usize, &[f64]),
    ) {
        let (g, gb, bt) = (
            self.staging.group_size,
            pool.group_bytes(),
            pool.cfg.block_tokens,
        );
        let gpr = pool.cfg.kv_dim / g;
        let members = xscales.len() / gph;
        let mut t0 = rows.start;
        while t0 < rows.end {
            let slot = t0 % bt;
            let n = (bt - slot).min(rows.end - t0);
            let (codes, meta) = pool.k_rows(self.blocks[t0 / bt], slot..slot + n);
            sweep.resolve(meta, (gpr, k_lo, gph), members * n, 0.0);
            kernels().dot_packed_rows_scaled(
                &codes[k_lo * gb..],
                pool.k_row_bytes(),
                g,
                gph,
                &sweep.luts,
                &sweep.scales,
                xcodes,
                xscales,
                &mut sweep.accs,
            );
            for (j, sums) in sweep.accs.chunks_exact(n).enumerate() {
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
    /// `attend_window`, one [`group_dot_packed`] per channel. Decode
    /// attention takes the same windows one
    /// [`KernelDispatch::dot_packed_rows_scaled`] call per head and window,
    /// bit for bit the same.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != self.len()` or the channel range exceeds
    /// the cache width.
    pub fn attend(&self, pool: &KvCachePool, probs: &[f32], chan_lo: usize, out: &mut [f32]) {
        let g = self.staging.group_size;
        let mut p8 = vec![0i8; g];
        let chans = chan_lo..chan_lo + out.len();
        let staged = self.each_window(pool, probs, &mut p8, chans, |win| {
            attend_window(win.meta, win.codes, g, win.pcodes, win.pscale, chan_lo, out);
        });
        self.staging
            .attend_staged_with(staged, &mut p8, chan_lo, out);
    }

    /// [`PagedKvCache::attend`] with the committed windows swept: per
    /// window, the head's channels are one
    /// [`KernelDispatch::dot_packed_rows_scaled`] call (a channel is a row
    /// of one group at stride `group_bytes`, the window's INT8
    /// probabilities the one member), with the caller's scratch for the
    /// probability codes and the sweep, so a caller that attends head after
    /// head allocates nothing per head. The accumulators start at `-0.0`,
    /// so each holds exactly [`attend_window`]'s f64 term (`-0.0 + t` is
    /// `t`, signed zeros included), rounded to f32 before its `+=` as
    /// there.
    fn attend_with(
        &self,
        pool: &KvCachePool,
        probs: &[f32],
        p8: &mut [i8],
        sweep: &mut RowSweep,
        chan_lo: usize,
        out: &mut [f32],
    ) {
        let (g, gb) = (self.staging.group_size, pool.group_bytes());
        let chans = chan_lo..chan_lo + out.len();
        let staged = self.each_window(pool, probs, p8, chans.clone(), |win| {
            sweep.resolve(&win.meta[chans.clone()], (1, 0, 1), chans.len(), -0.0);
            kernels().dot_packed_rows_scaled(
                &win.codes[chan_lo * gb..],
                gb,
                g,
                1,
                &sweep.luts,
                &sweep.scales,
                win.pcodes,
                &[f64::from(win.pscale)],
                &mut sweep.accs,
            );
            for (o, &term) in out.iter_mut().zip(&sweep.accs) {
                *o += term as f32;
            }
        });
        self.staging.attend_staged_with(staged, p8, chan_lo, out);
    }

    /// The committed-window half of `P·V`: checks the shapes, then hands
    /// `each` every committed window whose probabilities are not all zero,
    /// in ascending order, with those probabilities quantized to INT8 in
    /// `p8`. Returns the staged rows' probabilities.
    fn each_window<'p>(
        &self,
        pool: &KvCachePool,
        probs: &'p [f32],
        p8: &mut [i8],
        chans: Range<usize>,
        mut each: impl FnMut(WindowOperands<'_>),
    ) -> &'p [f32] {
        assert_eq!(probs.len(), self.rows, "probability length mismatch");
        assert!(chans.end <= self.staging.dim, "channel range out of bounds");
        let g = self.staging.group_size;
        let bt = pool.cfg.block_tokens;
        let (windows, staged) = probs.split_at(self.committed_windows * g);
        for (w, window_probs) in windows.chunks_exact(g).enumerate() {
            let Some(pscale) = quantize_probs_int8_into(window_probs, &mut p8[..g]) else {
                continue;
            };
            let win_token = w * g;
            let (meta, codes) = pool.v_window(self.blocks[win_token / bt], (win_token % bt) / g);
            each(WindowOperands {
                meta,
                codes,
                pcodes: &p8[..g],
                pscale,
            });
        }
        staged
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

/// One committed V window as the `P·V` paths read it: per-channel metadata
/// and channel-major packed codes from the pool, and the window's
/// probabilities quantized to INT8.
struct WindowOperands<'a> {
    meta: &'a [GroupMeta],
    codes: &'a [u8],
    pcodes: &'a [i8],
    pscale: f32,
}

/// Scratch of the decode-attention sweep
/// ([`KernelDispatch::dot_packed_rows_scaled`]): the swept rows' decode
/// tables and scales, resolved once per pool block (K) or window (V), and
/// the kernel's accumulators. Reused across blocks, windows and heads.
#[derive(Default)]
struct RowSweep {
    luts: Vec<&'static KernelLut>,
    scales: Vec<f64>,
    accs: Vec<f64>,
}

impl RowSweep {
    /// Resolves the swept groups to their interned tables and f64 scales,
    /// row-major: from each row of `row_len` entries of `meta`, the
    /// `per_row` groups from `lo` on. Sets `accs` accumulators to `start`.
    fn resolve(
        &mut self,
        meta: &[GroupMeta],
        (row_len, lo, per_row): (usize, usize, usize),
        accs: usize,
        start: f64,
    ) {
        let table = kernel_table_lookup();
        let n = meta.len() / row_len * per_row;
        self.luts.resize(n, table(GroupDtype::Int4));
        self.scales.resize(n, 0.0);
        let rows = meta.chunks_exact(row_len).map(|row| &row[lo..lo + per_row]);
        let dst = self
            .luts
            .chunks_exact_mut(per_row)
            .zip(self.scales.chunks_exact_mut(per_row));
        for (row, (luts, scales)) in rows.zip(dst) {
            for ((m, l), s) in row.iter().zip(luts).zip(scales) {
                *l = table(m.dtype);
                *s = f64::from(m.scale);
            }
        }
        self.accs.clear();
        self.accs.resize(accs, start);
    }
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
/// The cache is swept a block at a time, not a row at a time: per KV head
/// and pool block one [`KernelDispatch::dot_packed_rows_scaled`] call
/// scores the block's K rows for every query head of that KV head, and per
/// head and committed window one call takes the head's channels of `P·V`.
/// The block lookup, the decode tables and the dispatch are paid per block
/// or window, the epilogue runs in vector lanes. Bit for bit the per-row
/// references: a score is [`PagedKvCache::fused_dot`]` · 1/√head_dim`, and
/// `P·V` is [`PagedKvCache::attend`].
///
/// # Panics
///
/// Panics if `q.len() != heads · head_dim`, if `kv_heads` is zero or does
/// not divide `heads`, if the cache width is not `kv_heads · head_dim`,
/// or if the group size does not divide `head_dim`.
pub fn attention_incremental_paged(
    q: &[f32],
    cache: &PagedKvCache,
    pool: &KvCachePool,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> Vec<f32> {
    let g = check_attention_shapes(q.len(), cache, heads, kv_heads, head_dim);
    let per_kv = heads / kv_heads;
    let gph = head_dim / g;
    let qv = quantize_vector_int8(q, g).expect("group divides head dim, hence q length");
    let q_scales: Vec<f64> = (0..qv.groups()).map(|j| f64::from(qv.scale(j))).collect();
    let scale = 1.0 / (head_dim as f32).sqrt();
    let len = cache.len();
    let mut out = vec![0.0f32; heads * head_dim];
    // The scores of one KV head's query heads, `[head][t]`.
    let mut scores = vec![0.0f32; per_kv * len];
    let mut p8 = vec![0i8; g];
    let mut sweep = RowSweep::default();
    for kv_head in 0..kv_heads {
        // A KV head's query heads are adjacent: one run of codes.
        let heads_of = kv_head * per_kv..(kv_head + 1) * per_kv;
        let codes = &qv.codes()[heads_of.start * head_dim..heads_of.end * head_dim];
        let xscales = &q_scales[heads_of.start * gph..heads_of.end * gph];
        cache.score_rows(
            pool,
            0..len,
            kv_head * gph,
            gph,
            codes,
            xscales,
            &mut sweep,
            |j, t0, sums| {
                for (s, &a) in scores[j * len + t0..].iter_mut().zip(sums) {
                    *s = a as f32 * scale;
                }
            },
        );
        for (h, scores) in heads_of.zip(scores.chunks_exact_mut(len.max(1))) {
            kernels().softmax(scores);
            cache.attend_with(
                pool,
                scores,
                &mut p8,
                &mut sweep,
                kv_head * head_dim,
                &mut out[h * head_dim..(h + 1) * head_dim],
            );
        }
    }
    out
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

/// Attention for a **run** of consecutive rows of one sequence — a prefill
/// chunk, a replayed span, a speculative verify pass — with the K rows and
/// V windows the cache already holds swept once for all of the run's
/// queries instead of once per query.
///
/// Packed K rows and committed V windows never change once written, so
/// they are matrix operands for the GEMM tier's one kernel
/// ([`KernelDispatch::dot_tile8_scaled`]; layout and exactness argument at
/// [`crate::fused::mant_gemv_batch`]): eight cached K rows — or eight
/// channels of a committed V window — are decoded to i16 once, interleaved
/// to `[column pair][row 0..8][2]`, and every query of the run is a batch
/// member. A vector lane is a K row (a V channel), so a member's register
/// holds the tile's eight group dots with no horizontal reduction, and the
/// `(q_scale · k_scale) · int` epilogue runs on it in place. Only whole
/// tiles are swept: `tiled_rows` is a multiple of eight, the rows past it
/// (at most eight, the just-pushed one included) are scored for each query
/// as [`attention_incremental_paged`] scores a block — one
/// [`KernelDispatch::dot_packed_rows_scaled`] call per KV head, every
/// query head sharing it a member — and a head's ragged last channel tile
/// repeats its last channel in the spare lanes, which are dropped.
/// Only the INT8 staging window is mutable — a later row can widen a
/// channel scale and re-encode it — so its share of `P·V` is taken the
/// moment the query's own row has been pushed, as
/// [`attention_incremental_paged`] would.
///
/// Protocol: [`RunAttention::begin`] before the run's first push, then for
/// each row `i` in order [`PagedKvCache::push`] followed by
/// [`RunAttention::attend_pushed`]`(i, ..)`, then [`RunAttention::finish`].
/// Row `i` of the result equals `attention_incremental_paged(&qs[i], ..)`
/// called right after row `i`'s push, **bit for bit**: every score is the
/// same ascending f64 sum of `(q_scale · k_scale) · int` group terms
/// `fused_dot` forms (the integer dots are exact on every kernel, the
/// vector epilogue rounds per lane like the scalar one), and every output
/// channel adds its windows in ascending order and the staged rows last,
/// as `attend` does. (A window's term and the staged term are each taken
/// from a zeroed accumulator; `0.0 + t` differs from `t` only for
/// `t = -0.0`, and adding either zero to a sum that started at `+0.0`
/// gives the same bits.)
///
/// Worth its tile decodes from [`RunAttention::MIN_ROWS`] rows up; below
/// that call [`attention_incremental_paged`] per row.
pub struct RunAttention {
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
    /// Rows the cache held when the run began.
    base: usize,
    /// The run's queries, INT8 at the cache group size.
    qv: Vec<QuantizedVector>,
    /// The same codes widened to i16 in member order, `[KV head][row]
    /// [query head of that KV head][head_dim]`: the members that sweep a
    /// KV head's tile — every head sharing it, of every row from some row
    /// on — are one contiguous slice.
    q16: Vec<i16>,
    /// The queries' group scales as f64, in the same order.
    q_scales: Vec<f64>,
    /// Member `row · heads + head` owns `probs[member · stride..]
    /// [..base + row + 1]`: its scores over positions `0..=base + row`,
    /// softmaxed in place once the row has been pushed. One flat buffer,
    /// every member at the last row's length ([`RunAttention::stride`]).
    probs: Vec<f32>,
    /// `[row][heads · head_dim]`: the staging window's share of `P·V`, per
    /// output channel.
    tails: Vec<f32>,
    /// One window's INT8 probability codes.
    p8: Vec<i8>,
    /// The per-row sweep's scratch, for the rows past `tiled_rows`.
    sweep: RowSweep,
    /// Leading cache rows (a multiple of [`TILE_ROWS`]) whose K tiles have
    /// been swept for every query still to come.
    tiled_rows: usize,
    /// Decoded operands of the tile being swept, row-major: [`TILE_ROWS`]
    /// rows of `head_dim` (a K tile) or `group_size` (a V tile).
    dec: Vec<i16>,
    /// The same tile interleaved for the kernel.
    tile: Vec<i16>,
}

impl RunAttention {
    /// Run length from which the tile sweep beats
    /// [`attention_incremental_paged`] per row. Measured on the serving
    /// shape (4 heads of 64, group 64, 64-token blocks; AVX2, two vCPUs),
    /// pushes included, best of 60 alternating repetitions, as per-query
    /// time ÷ run time at contexts 200 / 500 / 760:
    ///
    /// | rows | 2 | 3 | 4 | 5 | 8 |
    /// |---|---|---|---|---|---|
    /// | ratio | 0.71–0.75 | 0.71–0.95 | 1.09–1.16 | 1.22–1.32 | 1.47–1.56 |
    ///
    /// Three rows lose to three block-swept queries, four win. This is its
    /// own break-even, not the GEMM tier's
    /// [`DECODE_ONCE_MIN_BATCH`](crate::fused::DECODE_ONCE_MIN_BATCH) (3):
    /// the per-query path it is measured against sweeps blocks, not rows.
    pub const MIN_ROWS: usize = 4;

    /// Quantizes the run's queries and scores them against every K row
    /// `cache` already holds. Call before the run's first push.
    ///
    /// # Panics
    ///
    /// As [`attention_incremental_paged`], for every query.
    pub fn begin(
        qs: &[Vec<f32>],
        cache: &PagedKvCache,
        pool: &KvCachePool,
        heads: usize,
        kv_heads: usize,
        head_dim: usize,
    ) -> Self {
        let base = cache.len();
        let qv: Vec<QuantizedVector> = qs
            .iter()
            .map(|q| {
                let g = check_attention_shapes(q.len(), cache, heads, kv_heads, head_dim);
                quantize_vector_int8(q, g).expect("group divides head dim, hence q length")
            })
            .collect();
        // One KV head's share of a query: its heads are adjacent.
        let codes_per_kv = heads / kv_heads * head_dim;
        let scales_per_kv = codes_per_kv / cache.group_size();
        let mut q16 = Vec::with_capacity(qs.len() * heads * head_dim);
        let mut q_scales = Vec::with_capacity(qs.len() * kv_heads * scales_per_kv);
        for kv_head in 0..kv_heads {
            for q in &qv {
                let codes = &q.codes()[kv_head * codes_per_kv..(kv_head + 1) * codes_per_kv];
                q16.extend(codes.iter().map(|&c| i16::from(c)));
                let groups = kv_head * scales_per_kv..(kv_head + 1) * scales_per_kv;
                q_scales.extend(groups.map(|j| f64::from(q.scale(j))));
            }
        }
        let mut run = RunAttention {
            heads,
            kv_heads,
            head_dim,
            base,
            qv,
            q16,
            q_scales,
            probs: vec![0.0; qs.len() * heads * (base + qs.len())],
            tails: vec![0.0; qs.len() * heads * head_dim],
            p8: vec![0; cache.group_size()],
            sweep: RowSweep::default(),
            tiled_rows: base / TILE_ROWS * TILE_ROWS,
            dec: vec![0i16; TILE_ROWS * head_dim],
            tile: vec![0i16; tile8_len(head_dim)],
        };
        run.score_tiles(cache, pool, 0, run.tiled_rows, 0);
        run
    }

    /// Floats between two members of `probs`: the last row's score count.
    fn stride(&self) -> usize {
        self.base + self.qv.len()
    }

    /// Scores queries `first_row..` against cache rows `t_lo..t_hi` (whole
    /// tiles of [`TILE_ROWS`]), one decode per tile and KV head.
    fn score_tiles(
        &mut self,
        cache: &PagedKvCache,
        pool: &KvCachePool,
        t_lo: usize,
        t_hi: usize,
        first_row: usize,
    ) {
        let stride = self.stride();
        let RunAttention {
            heads,
            kv_heads,
            head_dim,
            ref qv,
            ref q16,
            ref q_scales,
            ref mut probs,
            ref mut dec,
            ref mut tile,
            ..
        } = *self;
        if first_row >= qv.len() || t_lo == t_hi {
            return;
        }
        let d = kernels();
        let g = cache.group_size();
        let gb = pool.group_bytes();
        let bt = pool.cfg.block_tokens;
        let per_kv = heads / kv_heads;
        let gph = head_dim / g;
        let scale = 1.0 / (head_dim as f32).sqrt();
        // Member m of a KV head is query row `first_row + m / per_kv`,
        // head `kv_head · per_kv + m % per_kv`.
        let count = (qv.len() - first_row) * per_kv;
        let mut k_scales = vec![[0.0f64; TILE_ROWS]; gph];
        let mut accs = vec![[0.0f64; TILE_ROWS]; count];
        for kv_head in 0..kv_heads {
            let at = (kv_head * qv.len() + first_row) * per_kv;
            let members = &q16[at * head_dim..(at + count) * head_dim];
            let member_scales = &q_scales[at * gph..(at + count) * gph];
            let k_lo = kv_head * gph;
            for t0 in (t_lo..t_hi).step_by(TILE_ROWS) {
                for (lane, row) in dec.chunks_exact_mut(head_dim).enumerate() {
                    let t = t0 + lane;
                    let (codes, meta) = pool.k_row(cache.blocks[t / bt], t % bt);
                    let groups = meta[k_lo..k_lo + gph]
                        .iter()
                        .map(|m| (kernel_table(m.dtype), m));
                    let codes = &codes[k_lo * gb..(k_lo + gph) * gb];
                    decode_tile_row(d, codes, g, groups, lane, row, &mut k_scales);
                }
                d.interleave_tile8(dec, head_dim, tile);
                // `fused_dot`'s sum: ascending groups, f64, from zero.
                accs.fill([0.0; TILE_ROWS]);
                d.dot_tile8_scaled(tile, &k_scales, g, members, member_scales, &mut accs);
                for (m, acc) in accs.iter().enumerate() {
                    let member = (first_row + m / per_kv) * heads + kv_head * per_kv + m % per_kv;
                    let scores = &mut probs[member * stride + t0..][..TILE_ROWS];
                    for (s, &a) in scores.iter_mut().zip(acc) {
                        *s = a as f32 * scale;
                    }
                }
            }
        }
    }

    /// Finishes query `row` now that its own K/V row is in `cache`: scores
    /// against the rows no tile covered yet, softmax, and the staging
    /// window's share of `P·V`. Rows must come in order, each right after
    /// its push.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not hold exactly the rows up to `row`.
    pub fn attend_pushed(&mut self, row: usize, cache: &PagedKvCache, pool: &KvCachePool) {
        let rows_now = self.base + row + 1;
        assert_eq!(cache.len(), rows_now, "attend_pushed out of step with push");
        let g = cache.group_size();
        let stride = self.stride();
        let RunAttention {
            heads,
            kv_heads,
            head_dim,
            ref qv,
            ref q_scales,
            ref mut probs,
            ref mut tails,
            ref mut p8,
            ref mut sweep,
            tiled_rows,
            ..
        } = *self;
        let per_kv = heads / kv_heads;
        let gph = head_dim / g;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let staged_from = cache.committed_windows * g;
        // The rows no tile covered yet, swept for this row's query heads.
        for kv_head in 0..kv_heads {
            let codes = &qv[row].codes()[kv_head * per_kv * head_dim..][..per_kv * head_dim];
            let at = (kv_head * qv.len() + row) * per_kv;
            cache.score_rows(
                pool,
                tiled_rows..rows_now,
                kv_head * gph,
                gph,
                codes,
                &q_scales[at * gph..(at + per_kv) * gph],
                sweep,
                |j, t0, sums| {
                    let member = row * heads + kv_head * per_kv + j;
                    for (s, &a) in probs[member * stride + t0..].iter_mut().zip(sums) {
                        *s = a as f32 * scale;
                    }
                },
            );
        }
        let d = kernels();
        for h in 0..heads {
            let member = row * heads + h;
            let scores = &mut probs[member * stride..][..rows_now];
            d.softmax(scores);
            cache.staging.attend_staged_with(
                &scores[staged_from..],
                p8,
                h / per_kv * head_dim,
                &mut tails[member * head_dim..][..head_dim],
            );
        }
        if rows_now.is_multiple_of(TILE_ROWS) {
            // The push completed a tile: later queries take it decoded.
            self.score_tiles(cache, pool, rows_now - TILE_ROWS, rows_now, row + 1);
            self.tiled_rows = rows_now;
        }
    }

    /// `P·V` over the committed windows — each decoded once per KV head for
    /// every query that sees it — plus each query's staged share; one
    /// output vector per run row.
    pub fn finish(mut self, cache: &PagedKvCache, pool: &KvCachePool) -> Vec<Vec<f32>> {
        let stride = self.stride();
        let RunAttention {
            heads,
            kv_heads,
            head_dim,
            base,
            ..
        } = self;
        let d = kernels();
        let g = cache.group_size();
        let gb = pool.group_bytes();
        let bt = pool.cfg.block_tokens;
        let per_kv = heads / kv_heads;
        let n = self.qv.len();
        let mut out = vec![vec![0.0f32; heads * head_dim]; n];
        // Per window and KV head: the members whose probabilities over the
        // window are not all zero, with their INT8 codes (quantized, then
        // widened for the kernel) and scales.
        let mut live: Vec<usize> = Vec::new();
        let mut p_scales: Vec<f64> = Vec::new();
        let p8 = &mut self.p8[..g];
        let mut p16 = vec![0i16; n * per_kv * g];
        let mut accs = vec![[0.0f64; TILE_ROWS]; n * per_kv];
        let dec = &mut self.dec[..TILE_ROWS * g];
        let tile = &mut self.tile[..tile8_len(g)];
        for w in 0..cache.committed_windows {
            // A window committed inside the run exists only for the rows
            // pushed since.
            let first_row = ((w + 1) * g).saturating_sub(base + 1);
            if first_row >= n {
                break;
            }
            let win_token = w * g;
            let (meta, codes) = pool.v_window(cache.blocks[win_token / bt], (win_token % bt) / g);
            for kv_head in 0..kv_heads {
                let head_of = |m: usize| kv_head * per_kv + m % per_kv;
                live.clear();
                p_scales.clear();
                for m in 0..(n - first_row) * per_kv {
                    let member = (first_row + m / per_kv) * heads + head_of(m);
                    let p = &self.probs[member * stride + win_token..][..g];
                    if let Some(pscale) = quantize_probs_int8_into(p, p8) {
                        let slot = &mut p16[live.len() * g..(live.len() + 1) * g];
                        for (o, &c) in slot.iter_mut().zip(p8.iter()) {
                            *o = i16::from(c);
                        }
                        live.push(m);
                        p_scales.push(f64::from(pscale));
                    }
                }
                let members = &p16[..live.len() * g];
                let accs = &mut accs[..live.len()];
                let (c_lo, c_hi) = (kv_head * head_dim, (kv_head + 1) * head_dim);
                if live.is_empty() {
                    continue;
                }
                for c0 in (c_lo..c_hi).step_by(TILE_ROWS) {
                    let mut v_scales = [[0.0f64; TILE_ROWS]];
                    for (lane, row) in dec.chunks_exact_mut(g).enumerate() {
                        // A ragged last tile repeats its last channel; the
                        // spare lanes are dropped below.
                        let c = (c0 + lane).min(c_hi - 1);
                        let group = std::iter::once((kernel_table(meta[c].dtype), &meta[c]));
                        let codes = &codes[c * gb..(c + 1) * gb];
                        decode_tile_row(d, codes, g, group, lane, row, &mut v_scales);
                    }
                    d.interleave_tile8(dec, g, tile);
                    accs.fill([0.0; TILE_ROWS]);
                    d.dot_tile8_scaled(tile, &v_scales, g, members, &p_scales, accs);
                    let lanes = (c_hi - c0).min(TILE_ROWS);
                    for (&m, acc) in live.iter().zip(accs.iter()) {
                        let o0 = head_of(m) * head_dim + c0 - c_lo;
                        let o = &mut out[first_row + m / per_kv][o0..o0 + lanes];
                        // `attend_window`'s term, one `+=` per channel.
                        for (oc, &a) in o.iter_mut().zip(acc) {
                            *oc += a as f32;
                        }
                    }
                }
            }
        }
        for (o, tail) in out
            .iter_mut()
            .zip(self.tails.chunks_exact(heads * head_dim))
        {
            for (oc, tc) in o.iter_mut().zip(tail.iter()) {
                *oc += tc;
            }
        }
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
    /// every row's attention against the one-query path on a twin cache.
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
        let qs: Vec<Vec<f32>> = (lo..hi).map(|t| queries.row(t).to_vec()).collect();
        let mut run = RunAttention::begin(&qs, view, pool, heads, kv_heads, head_dim);
        let mut want = Vec::new();
        for (i, t) in (lo..hi).enumerate() {
            view.push(pool, data.row(t), data.row(t + 1)).unwrap();
            run.attend_pushed(i, view, pool);
            twin.push(pool, data.row(t), data.row(t + 1)).unwrap();
            want.push(attention_incremental_paged(
                &qs[i], twin, pool, heads, kv_heads, head_dim,
            ));
        }
        let got = run.finish(view, pool);
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
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
        for (chan_lo, len) in [(0usize, 64usize), (5, 13), (16, 16), (40, 24), (63, 1)] {
            let mut want = vec![0.0f32; len];
            cache.attend(&pool, &probs, chan_lo, &mut want);
            let mut got = vec![0.0f32; len];
            cache.attend_with(&pool, &probs, &mut p8, &mut sweep, chan_lo, &mut got);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "channels {chan_lo}..+{len}");
        }
    }

    #[test]
    fn run_attention_bit_identical_to_per_query_attention() {
        // The cuts start a run at every `base % 8` (the K tile is eight
        // rows): runs too short to reach a tile boundary (0..5, 16..18),
        // runs that complete a K tile mid-run so later queries take it
        // decoded (5..9, 23..28), runs ending exactly on a window commit
        // (9..16, 77..80), one crossing a block boundary with a commit
        // inside (28..35) and one crossing blocks and several commits
        // (35..70). Plain heads; GQA with two query heads per KV head and
        // two groups per head; an odd group size (scalar arm) whose
        // 15-channel heads leave a ragged last channel tile; and GQA with
        // an even group whose 12-channel heads are ragged on the AVX2 arm.
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
                blocks: 10,
            })
            .unwrap();
            let data = gen.group_diverse_matrix(81, kv_heads * head_dim, group_size, 0.5);
            let queries = gen.group_diverse_matrix(80, heads * head_dim, group_size, 1.0);
            let mut view = PagedKvCache::new(&pool, vmap(), vmap());
            let mut twin = PagedKvCache::new(&pool, vmap(), vmap());
            for cut in [0usize, 5, 9, 16, 18, 23, 28, 35, 70, 77, 80].windows(2) {
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
