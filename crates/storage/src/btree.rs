//! The swizzling B-Tree (§5.1, §5.3).
//!
//! Each relation is one B-Tree rooted in Main Storage. Table trees are
//! keyed by the monotonically increasing row id (big-endian encoded so byte
//! order equals numeric order); index trees map arbitrary byte keys to row
//! ids. Child references are swips, so a hot traversal never consults a
//! mapping table — the paper's replacement for the global buffer hash map.
//!
//! Concurrency follows the paper's hybrid lock strategy (§7.2): descents
//! use optimistic lock coupling (read versions, validate the parent after
//! each hop, restart on interference); leaf operations take shared or
//! exclusive latches. Every optimistic descent is one [`DescentCursor`],
//! driven either step by step by a batch or to completion by the blocking
//! driver. Structure modifications (splits) run on a pessimistic path that
//! holds the tree-meta latch and crabs exclusive latches with preemptive
//! splitting, so they coexist with optimistic readers simply by bumping
//! versions.
//!
//! Two invariants keep swizzling sound:
//! * **single parent** — every swip value (hot frame id or cold page id)
//!   appears in exactly one child slot, so eviction/loading can relocate a
//!   page by searching the (validated) parent for the exact swip value;
//! * **append-only table leaves** — table splits never move rows, they add
//!   a fresh rightmost leaf; a table leaf's row-id range is immutable,
//!   giving upper layers a stable page identity for twin tables (§6.2).

use crate::buffer::{BufferPool, FrameReserve, NO_PARENT};
use crate::latch::{LatchVersion, ReadGuard, WriteGuard};
use crate::node::{IndexLeaf, InnerNode, Page};
use crate::pax::{PaxLayout, PaxLeaf};
use crate::schema::Value;
use crate::smallkey::SmallKey;
use crate::swip::{FrameId, Swip, SwipState};
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::hist::LatencySite;
use phoebe_common::ids::{RowId, TableId};
use phoebe_common::metrics::{Counter, Metrics};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which leaf kind the tree stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    Table,
    Index,
}

struct TreeMeta {
    root: Swip,
    /// Levels in the tree; 1 ⇒ the root is a leaf.
    height: u32,
}

/// A B-Tree over buffer frames.
pub struct BTree {
    pub table: TableId,
    kind: TreeKind,
    pool: Arc<BufferPool>,
    meta: crate::latch::HybridLatch<TreeMeta>,
    metrics: Arc<Metrics>,
}

/// Encode a row id as a byte-comparable table key.
#[inline]
pub fn row_key(row: RowId) -> [u8; 8] {
    row.raw().to_be_bytes()
}

/// Descent key of the rightmost leaf: longer than any 8-byte row key.
const RIGHTMOST: [u8; 9] = [0xff; 9];

#[derive(Clone, Copy)]
enum ParentRef {
    Meta,
    Node(FrameId),
}

impl BTree {
    /// Create a tree whose root is a fresh empty leaf.
    pub fn create(
        pool: Arc<BufferPool>,
        table: TableId,
        kind: TreeKind,
        metrics: Arc<Metrics>,
    ) -> Result<Self> {
        let root = pool.allocate()?;
        {
            let mut g = pool.frame(root).latch.write();
            *g = match kind {
                TreeKind::Table => Page::TableLeaf(PaxLeaf::new()),
                TreeKind::Index => Page::IndexLeaf(IndexLeaf::default()),
            };
        }
        pool.frame(root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
        Ok(BTree {
            table,
            kind,
            pool,
            meta: crate::latch::HybridLatch::new(TreeMeta { root: Swip::hot(root), height: 1 }),
            metrics,
        })
    }

    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Current tree height (levels).
    pub fn height(&self) -> u32 {
        self.meta.optimistic_or_shared(3, |m| m.height)
    }

    // ------------------------------------------------------------------
    // Optimistic descent
    // ------------------------------------------------------------------

    fn validate_parent(&self, parent: &ParentRef, ver: LatchVersion) -> bool {
        match parent {
            ParentRef::Meta => self.meta.validate(ver),
            ParentRef::Node(fid) => self.pool.frame(*fid).latch.validate(ver),
        }
    }

    fn cursor(&self, key: &[u8], write: bool) -> DescentCursor<'_> {
        DescentCursor {
            tree: self,
            key: SmallKey::from_slice(key),
            write,
            state: CursorState::Start,
            parent: ParentRef::Meta,
            parent_ver: LatchVersion::default(),
            parent_epoch: 0,
            cur: Swip::NULL,
            level: 0,
            attempt: std::time::Instant::now(),
        }
    }

    /// Open a resumable point-lookup descent for `key`. The cursor
    /// suspends between hops (after prefetching the next node) and on
    /// cold-page faults (after kicking the read to the background
    /// loader), so a batch of cursors can overlap each other's cache
    /// misses and disk I/O. `write` selects the leaf latch mode.
    pub fn batch_cursor(&self, key: &[u8], write: bool) -> DescentCursor<'_> {
        self.cursor(key, write)
    }

    /// The leaf responsible for `key`, latched per `write`, reached by the
    /// blocking driver ([`DescentCursor::run`]).
    fn leaf(&self, key: &[u8], write: bool) -> Result<BatchLeaf<'_>> {
        Ok(self.cursor(key, write).run::<false>()?.0)
    }

    /// Swizzle-install half of a cold-page fault: swing the parent's child
    /// slot from `cold` to the freshly loaded `fid`, or discard the
    /// duplicate if a racing loader won. Shared by the blocking driver's
    /// inline load and the asynchronous ticket resume (both through
    /// [`DescentCursor::install`]). `fault_epoch` is the page's
    /// [`BufferPool::fault_epoch`] captured before the disk read was
    /// issued; if it has moved, the page was installed, possibly
    /// modified, and evicted again while the fault was in flight, so
    /// `fid` holds bytes read before those committed writes — installing
    /// it over the (byte-identical) cold swip would silently lose them.
    /// The stale frame is discarded like a lost race.
    ///
    /// On success, returns the parent's post-install version and its
    /// reuse epoch (read under the latch) so the cursor can re-arm its
    /// optimistic descent right at the parent instead of re-descending
    /// from the root; `None` means the caller must restart to re-route
    /// (the slot stays cold in the stale-epoch case, so the restart
    /// re-faults and reads current bytes).
    fn install_loaded(
        &self,
        pfid: FrameId,
        cold: Swip,
        fid: FrameId,
        fault_epoch: u64,
    ) -> Option<(LatchVersion, u64)> {
        let SwipState::Cold(pid) = cold.state() else {
            unreachable!("install_loaded takes the cold swip being replaced")
        };
        let mut pguard = self.pool.frame(pfid).latch.write();
        let installed = self.pool.fault_epoch(pid) == fault_epoch
            && match &mut *pguard {
                Page::Inner(pnode) => match pnode.find_child_slot(cold.raw()) {
                    Some(slot) => {
                        pnode.children[slot] = Swip::hot(fid).raw();
                        true
                    }
                    None => false, // someone else already loaded it
                },
                _ => false, // parent relocated; restart will re-route
            };
        if installed {
            self.pool.frame(pfid).meta.dirty.store(true, Ordering::Relaxed);
            let rearm = pguard.version_on_release();
            // Under the write latch the frame cannot be recycled, so this
            // epoch read names the parent node we just installed into.
            let pepoch = self.pool.frame(pfid).meta.reuse_epoch();
            drop(pguard);
            Some((rearm, pepoch))
        } else {
            drop(pguard);
            // Drop the duplicate (or stale) copy we loaded; forget its disk
            // slot first so release() does not free a PageId that is still
            // referenced.
            self.pool.frame(fid).meta.disk_page_forget();
            self.pool.release(fid);
            None
        }
    }

    /// Best-effort Cooling → Hot promotion through the parent.
    fn heat(&self, pfid: FrameId, fid: FrameId) {
        if let Some(mut pguard) = self.pool.frame(pfid).latch.try_write() {
            if let Page::Inner(pnode) = &mut *pguard {
                if let Some(slot) = pnode.find_child_slot(Swip::cooling(fid).raw()) {
                    BufferPool::heat_in_parent(pnode, slot);
                }
            }
        }
    }

    /// One descent restart: the counter and the wasted-work histogram are
    /// two views of the same event and must stay in lockstep (asserted by
    /// `restart_counter_matches_restart_latency_samples`).
    fn note_restart(&self, attempt: &mut std::time::Instant) {
        self.metrics.incr(Counter::LatchRestarts);
        self.metrics.record_latency(LatencySite::BtreeRestart, attempt.elapsed().as_nanos() as u64);
        self.metrics.tracer().instant(
            phoebe_common::trace::EventKind::LatchRestart,
            0,
            attempt.elapsed().as_nanos() as u64,
            0,
        );
        *attempt = std::time::Instant::now();
    }

    // ------------------------------------------------------------------
    // Table operations
    // ------------------------------------------------------------------

    /// Append a tuple under a row id drawn *inside* the rightmost leaf's
    /// exclusive latch, so allocation order equals append order — the
    /// invariant behind the monotonically increasing row-id key (§5.1).
    /// Callers that replay an explicit row id (recovery, loaders) pass
    /// `&|| row`; it must exceed every row id in the tree.
    /// Returns `(row_id, leaf frame, first row id)`; `under_latch` runs
    /// after the append while the leaf is still latched (twin install).
    pub fn table_append_alloc(
        &self,
        layout: &PaxLayout,
        alloc: &(dyn Fn() -> RowId + Sync),
        tuple: &[Value],
        under_latch: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId),
    ) -> Result<(RowId, FrameId, RowId)> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        {
            let mut leaf = self.leaf(&RIGHTMOST, true)?;
            if !leaf.pax()?.is_full(layout) {
                return leaf.table_append(layout, alloc, tuple, under_latch);
            }
        }
        // The rightmost leaf is full: hang a fresh one on the pessimistic
        // path. See the index split for why frames are reserved first.
        let mut reserve = self.pool.reserve(6);
        let mut meta = self.meta.write();
        let mut last = self.crab(&mut meta, &mut reserve, &RIGHTMOST)?;
        if !last.pax()?.is_full(layout) {
            // Another appender hung a fresh leaf while we waited.
            return last.table_append(layout, alloc, tuple, under_latch);
        }
        // The row id is drawn while the full leaf and the meta latch are
        // held, so it exceeds every row appended so far, and any appender
        // that later reaches the fresh leaf draws a larger one under its
        // latch.
        let fresh = reserve.take()?;
        *self.pool.frame(fresh).latch.write() = Page::TableLeaf(PaxLeaf::new());
        let out = self.write_leaf(fresh).table_append(layout, alloc, tuple, under_latch)?;
        self.link_right(&mut meta, &mut reserve, last.fid, &row_key(out.0), fresh)?;
        Ok(out)
    }

    /// Read `row_id` under a shared leaf latch. `f` also receives the
    /// leaf's first row id — the stable page identity twin tables key on.
    pub fn table_read<R>(
        &self,
        row_id: RowId,
        f: impl FnOnce(&PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        self.leaf(&row_key(row_id), false)?.table_read(row_id, f)
    }

    /// Mutate the row under an exclusive leaf latch (in-place update path).
    pub fn table_modify<R>(
        &self,
        row_id: RowId,
        f: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        self.leaf(&row_key(row_id), true)?.table_modify(row_id, f)
    }

    /// Visit every leaf left-to-right under shared latches (one at a time).
    /// `f` returns `false` to stop early. Used by temperature scans (§5.2).
    pub fn table_for_each_leaf(&self, mut f: impl FnMut(FrameId, &PaxLeaf) -> bool) -> Result<()> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        let mut lo = SmallKey::from_slice(&[0u8; 8]);
        loop {
            let (leaf, next) = self.cursor(&lo, false).run::<true>()?;
            if !f(leaf.fid, leaf.pax()?) {
                return Ok(());
            }
            drop(leaf);
            match next {
                Some(s) => lo = s,
                None => return Ok(()),
            }
        }
    }

    fn mark_dirty(&self, fid: FrameId) {
        self.pool.frame(fid).meta.dirty.store(true, Ordering::Relaxed);
    }

    /// Record `gsn` as the newest WAL touching the leaf holding `fid`
    /// (write-barrier input for Steal eviction, §8).
    pub fn stamp_gsn(&self, fid: FrameId, gsn: u64) {
        self.pool.frame(fid).meta.page_gsn.fetch_max(gsn, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Index operations
    // ------------------------------------------------------------------

    /// Insert `(key, row_id)`; `Err(DuplicateKey)` if the key exists.
    pub fn index_insert(&self, key: &[u8], row_id: RowId) -> Result<()> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        if self.leaf(key, true)?.index_insert(key, row_id)? {
            return Ok(());
        }
        // Leaf full: split it on the pessimistic path. Frames are reserved
        // before any latch is taken: allocating under an exclusive latch
        // would starve eviction of every child of that node.
        let mut reserve = self.pool.reserve(8);
        let mut meta = self.meta.write();
        let mut leaf = self.crab(&mut meta, &mut reserve, key)?;
        if leaf.index_leaf()?.is_full() {
            let (right, sep) = leaf.index_leaf_mut()?.split();
            let right_fid = reserve.take()?;
            *self.pool.frame(right_fid).latch.write() = Page::IndexLeaf(right);
            self.mark_dirty(leaf.fid);
            self.mark_dirty(right_fid);
            self.link_right(&mut meta, &mut reserve, leaf.fid, &sep, right_fid)?;
            if key >= sep.as_slice() {
                leaf = self.write_leaf(right_fid);
            }
        }
        if leaf.index_insert(key, row_id)? {
            Ok(())
        } else {
            Err(PhoebeError::internal("index leaf full after its split"))
        }
    }

    /// Exact lookup.
    pub fn index_get(&self, key: &[u8]) -> Result<Option<RowId>> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        self.leaf(key, false)?.index_get(key)
    }

    /// Remove `key`; returns the row id it mapped to.
    pub fn index_remove(&self, key: &[u8]) -> Result<Option<RowId>> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        self.leaf(key, true)?.index_remove(key)
    }

    /// Visit entries with `low <= key <= high` in order; `f` returns
    /// `false` to stop. Latches one leaf at a time; resumes across leaves
    /// via the descent's next-separator fence key.
    pub fn index_range(
        &self,
        low: &[u8],
        high: &[u8],
        mut f: impl FnMut(&[u8], RowId) -> bool,
    ) -> Result<()> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        let mut lo = SmallKey::from_slice(low);
        loop {
            let (leaf, next) = self.cursor(&lo, false).run::<true>()?;
            let entries = leaf.index_leaf()?;
            for i in entries.lower_bound(&lo)..entries.count as usize {
                let k = entries.key(i);
                if k > high || !f(k, RowId(entries.row_ids[i])) {
                    return Ok(());
                }
            }
            drop(leaf);
            match next {
                Some(s) if s.as_slice() <= high => lo = s,
                _ => return Ok(()),
            }
        }
    }

    // ------------------------------------------------------------------
    // Structure modification (pessimistic path)
    // ------------------------------------------------------------------

    /// The pessimistic descent shared by table appends and index inserts:
    /// under the tree-meta write latch, crab exclusive latches from the
    /// root to the leaf for `key`, splitting every full inner node on the
    /// way so a split below always fits into its parent. A cold child is
    /// loaded inline; a Cooling one is heated while its parent is held, so
    /// no node this path latches can be staged or evicted under it.
    /// Returns the leaf, exclusively latched; its parent is released
    /// ([`BTree::link_right`] re-latches it through the parent hint).
    fn crab(
        &self,
        meta: &mut TreeMeta,
        reserve: &mut FrameReserve,
        key: &[u8],
    ) -> Result<BatchLeaf<'_>> {
        let mut cur = meta.root.frame().expect("root is always hot");
        let mut guard = self.pool.frame(cur).latch.write();
        for _ in 1..meta.height {
            if matches!(&*guard, Page::Inner(n) if n.is_full()) {
                let (right, right_guard, sep) =
                    self.split_and_link(meta, reserve, cur, &mut guard)?;
                if key >= sep.as_slice() {
                    cur = right;
                    guard = right_guard;
                }
            }
            let Page::Inner(n) = &mut *guard else {
                return Err(PhoebeError::internal("leaf above level 1"));
            };
            let slot = n.child_index(key);
            let next = match Swip::from_raw(n.children[slot]).state() {
                SwipState::Hot(f) => f,
                SwipState::Cooling(f) => {
                    BufferPool::heat_in_parent(n, slot);
                    f
                }
                SwipState::Cold(pid) => {
                    let f = reserve.take()?;
                    self.pool.read_into_frame(f, pid, cur)?;
                    n.children[slot] = Swip::hot(f).raw();
                    self.mark_dirty(cur);
                    f
                }
            };
            let next_guard = self.pool.frame(next).latch.write();
            drop(guard);
            cur = next;
            guard = next_guard;
        }
        Ok(BatchLeaf { tree: self, fid: cur, guard: LeafGuard::Write(guard) })
    }

    /// Split the full inner node `cur` (exclusively held) and link the
    /// right half into its parent. Returns the right half, still
    /// exclusively latched so it cannot be staged before the crab enters
    /// it, and the separator between the two.
    fn split_and_link<'a>(
        &'a self,
        meta: &mut TreeMeta,
        reserve: &mut FrameReserve,
        cur: FrameId,
        guard: &mut WriteGuard<'_, Page>,
    ) -> Result<(FrameId, WriteGuard<'a, Page>, Vec<u8>)> {
        let right_fid = reserve.take()?;
        let Page::Inner(n) = &mut **guard else {
            return Err(PhoebeError::internal("split of a non-inner node"));
        };
        let (right, sep) = n.split();
        for i in 0..=right.count as usize {
            if let Some(f) = Swip::from_raw(right.children[i]).frame() {
                self.pool.frame(f).meta.parent.store(right_fid, Ordering::Relaxed);
            }
        }
        let mut right_guard = self.pool.frame(right_fid).latch.write();
        *right_guard = Page::Inner(right);
        self.mark_dirty(cur);
        self.mark_dirty(right_fid);
        self.link_right(meta, reserve, cur, &sep, right_fid)?;
        Ok((right_fid, right_guard, sep))
    }

    /// Link `right`, the new right sibling of `left`, into `left`'s parent
    /// under separator `sep`, growing a new root above `left` when it is
    /// the root. The caller holds `left`'s latch, so `left` cannot be
    /// staged or evicted: its parent slot still reads `Hot(left)`.
    fn link_right(
        &self,
        meta: &mut TreeMeta,
        reserve: &mut FrameReserve,
        left: FrameId,
        sep: &[u8],
        right: FrameId,
    ) -> Result<()> {
        let parent = if meta.root == Swip::hot(left) {
            self.grow_root(meta, reserve, left)?
        } else {
            self.pool.frame(left).meta.parent.load(Ordering::Relaxed)
        };
        let mut pg = self.pool.frame(parent).latch.write();
        let Page::Inner(pn) = &mut *pg else {
            return Err(PhoebeError::internal("parent hint corrupt"));
        };
        let slot = pn
            .find_child_slot(Swip::hot(left).raw())
            .ok_or_else(|| PhoebeError::internal("child slot missing"))?;
        pn.insert_separator(slot, sep, Swip::hot(right).raw());
        self.pool.frame(right).meta.parent.store(parent, Ordering::Relaxed);
        self.mark_dirty(parent);
        Ok(())
    }

    /// Grow a new root with the current root `old` as its only child.
    fn grow_root(
        &self,
        meta: &mut TreeMeta,
        reserve: &mut FrameReserve,
        old: FrameId,
    ) -> Result<FrameId> {
        let root = reserve.take()?;
        let mut inner = InnerNode::default();
        inner.children[0] = Swip::hot(old).raw();
        *self.pool.frame(root).latch.write() = Page::Inner(inner);
        self.pool.frame(root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
        self.pool.frame(old).meta.parent.store(root, Ordering::Relaxed);
        self.mark_dirty(root);
        meta.root = Swip::hot(root);
        meta.height += 1;
        Ok(root)
    }

    fn write_leaf(&self, fid: FrameId) -> BatchLeaf<'_> {
        BatchLeaf { tree: self, fid, guard: LeafGuard::Write(self.pool.frame(fid).latch.write()) }
    }
}

/// Either-latched leaf guard.
pub enum LeafGuard<'a> {
    Read(ReadGuard<'a, Page>),
    Write(WriteGuard<'a, Page>),
}

impl LeafGuard<'_> {
    fn page(&self) -> &Page {
        match self {
            LeafGuard::Read(g) => g,
            LeafGuard::Write(g) => g,
        }
    }

    fn page_mut(&mut self) -> &mut Page {
        match self {
            LeafGuard::Read(_) => panic!("page_mut on a shared guard"),
            LeafGuard::Write(g) => g,
        }
    }
}

// ----------------------------------------------------------------------
// Resumable descent state machine
// ----------------------------------------------------------------------

/// Where a resumable descent currently stands.
enum CursorState {
    /// Not yet started, or restarting after optimistic validation failed.
    Start,
    /// Mid-descent: `cur`/`level`/`parent` identify the next hop.
    Hop,
    /// Suspended on a cold-page read running in the background loader.
    /// `epoch` is the page's fault epoch captured before the read was
    /// kicked, re-checked by the install (PageId ABA guard).
    Fault { ticket: Arc<crate::fault_service::FaultTicket>, pfid: FrameId, cold: Swip, epoch: u64 },
    /// The leaf was delivered; the cursor is spent.
    Done,
}

/// One optimistic descent — the only one in the tree (see
/// [`BTree::batch_cursor`] and [`DescentCursor::run`]).
///
/// The cursor carries only plain values between [`DescentCursor::step`]
/// calls — swip, level, parent frame id plus its optimistic version stamp,
/// never a latch guard — so suspending it costs nothing and holds nothing.
/// Guards exist solely as locals inside a single `step` call (the leaf
/// guard escapes *into* the returned [`BatchLeaf`], at which point the
/// descent is over).
pub struct DescentCursor<'t> {
    tree: &'t BTree,
    key: SmallKey,
    write: bool,
    state: CursorState,
    parent: ParentRef,
    parent_ver: LatchVersion,
    /// The parent frame's [`FrameMeta::reuse_epoch`], captured while the
    /// hop into it was validated. [`DescentCursor::parent_routes_to`]
    /// compares it before trusting a slot re-read: a suspended cursor's
    /// parent frame may have been evicted and recycled as an unrelated
    /// node, which would still "route" any key somewhere because
    /// `child_index` clamps. Meaningless while `parent` is `Meta`.
    parent_epoch: u64,
    cur: Swip,
    level: u32,
    /// Start of the current attempt, for the restart wasted-work histogram.
    attempt: std::time::Instant,
}

/// Outcome of one [`DescentCursor::step`] call.
pub enum DescentStep<'t> {
    /// Descent finished: the responsible leaf, latched per the cursor's
    /// `write` mode. The cursor must not be stepped again.
    Leaf(BatchLeaf<'t>),
    /// Made a hop and issued a software prefetch for the next node (or
    /// backed off a contended latch): run a sibling, then step again —
    /// the line will have arrived by the time the round-robin returns.
    Prefetched,
    /// A cold-page read is in flight in the background loader: stepping
    /// again is a cheap completion poll, but the caller should prefer
    /// siblings (or yield) until it flips.
    FaultPending,
}

impl<'t> DescentCursor<'t> {
    /// Advance the descent as far as it can go without waiting, then
    /// report why it stopped. On any optimistic validation failure it
    /// restarts from the root, but returns `Prefetched` first so sibling
    /// descents get the CPU while the conflict drains.
    pub fn step(&mut self) -> Result<DescentStep<'t>> {
        // No per-step component timer: a batch makes height+1 short steps
        // per key and two clock reads each would dominate the hop itself.
        // Batch descent cost is visible under the `batch_get` latency site.
        self.advance::<false, false>(&mut None)
    }

    /// The blocking driver: run the descent to its leaf on the calling
    /// thread. The hops are [`DescentCursor::step`]'s, except that a cold
    /// child is loaded inline (then installed and re-armed exactly like a
    /// ticket resume), no software prefetch is issued, and contention is
    /// waited out by spinning. Returns the leaf and, when `FENCE`, its
    /// fence (`None`: rightmost leaf).
    ///
    /// Range walks track the *fence*: the tightest upper bound on the
    /// leaf's key range seen on the path, which is exactly the first key
    /// of the next leaf. Point descents never copy separator bytes.
    fn run<const FENCE: bool>(mut self) -> Result<(BatchLeaf<'t>, Option<SmallKey>)> {
        // Figure 12's "latching" component: traversal latch work.
        let _t = self.tree.metrics.timer(phoebe_common::metrics::Component::Latch);
        let mut fence = None;
        loop {
            match self.advance::<true, FENCE>(&mut fence)? {
                DescentStep::Leaf(leaf) => return Ok((leaf, fence)),
                _ => std::hint::spin_loop(),
            }
        }
    }

    /// One driver call. `BLOCKING` and `FENCE` are fixed per call site at
    /// compile time, so the batch path carries none of the other drivers'
    /// branches; `fence` is the caller's, reset on every restart.
    fn advance<const BLOCKING: bool, const FENCE: bool>(
        &mut self,
        fence: &mut Option<SmallKey>,
    ) -> Result<DescentStep<'t>> {
        loop {
            match &self.state {
                CursorState::Done => {
                    return Err(PhoebeError::internal("step on a finished descent cursor"))
                }
                CursorState::Start => {
                    let Some(((root, height), meta_ver)) =
                        self.tree.meta.optimistic_versioned(|m| (m.root, m.height))
                    else {
                        // Meta is write-latched (split in flight): back off
                        // to a sibling instead of spinning.
                        return Ok(DescentStep::Prefetched);
                    };
                    self.parent = ParentRef::Meta;
                    self.parent_ver = meta_ver;
                    self.parent_epoch = 0;
                    self.cur = root;
                    self.level = height;
                    *fence = None;
                    self.state = CursorState::Hop;
                }
                CursorState::Hop => {
                    if let Some(stop) = self.hop::<BLOCKING, FENCE>(fence)? {
                        return Ok(stop);
                    }
                    // `None`: keep hopping within this call (a blocking
                    // hop, or a cold child discovered right after a hop —
                    // one fault suspend, not a prefetch suspend first).
                }
                CursorState::Fault { ticket, .. } => {
                    if !ticket.is_done() {
                        return Ok(DescentStep::FaultPending);
                    }
                    let CursorState::Fault { ticket, pfid, cold, epoch } =
                        std::mem::replace(&mut self.state, CursorState::Start)
                    else {
                        unreachable!()
                    };
                    let fid = match ticket.take().expect("completed fault has a result") {
                        Ok(fid) => fid,
                        // The loader could not allocate: a wide batch can
                        // have more faults in flight than the pool has
                        // frames (loaded-but-uninstalled frames are
                        // parentless, so eviction cannot reclaim them).
                        // That is backpressure, not failure — back off to
                        // the siblings; their installs put pages back under
                        // parents, where the retry's allocate can evict.
                        Err(PhoebeError::OutOfFrames) => return Ok(self.restart()),
                        Err(e) => return Err(e),
                    };
                    self.install::<FENCE>(pfid, cold, fid, epoch);
                }
            }
        }
    }

    /// Install a loaded child into `pfid` and resume there: the child is
    /// hot in the slot just written, and the parent stamp is the install's
    /// own release version — no root re-descent through parents the
    /// page-swap duty is churning. A lost install race leaves the state
    /// `Start`, so the descent re-routes from the root. So does a fence
    /// cursor: the re-armed stamp covers the parent only, while the fence
    /// may come from an ancestor that split during the read.
    fn install<const FENCE: bool>(&mut self, pfid: FrameId, cold: Swip, fid: FrameId, epoch: u64) {
        self.state = CursorState::Start;
        if let Some((rearm, pepoch)) = self.tree.install_loaded(pfid, cold, fid, epoch) {
            if !FENCE {
                self.parent = ParentRef::Node(pfid);
                self.parent_ver = rearm;
                self.parent_epoch = pepoch;
                self.cur = Swip::hot(fid);
                self.state = CursorState::Hop;
            }
        }
    }

    /// One hop of the descent. `Ok(Some(_))` stops the step (suspend or
    /// leaf); `Ok(None)` means "loop again within this step".
    fn hop<const BLOCKING: bool, const FENCE: bool>(
        &mut self,
        fence: &mut Option<SmallKey>,
    ) -> Result<Option<DescentStep<'t>>> {
        let tree = self.tree;
        let fid = match self.cur.state() {
            SwipState::Hot(f) => f,
            SwipState::Cooling(f) => {
                // Second chance: heat through the parent, best effort.
                if let ParentRef::Node(pfid) = self.parent {
                    tree.heat(pfid, f);
                }
                f
            }
            SwipState::Cold(pid) => {
                let ParentRef::Node(pfid) = self.parent else {
                    return Err(PhoebeError::internal("root swip went cold"));
                };
                // Over the in-flight fault budget: back off to the
                // siblings instead of kicking yet another frame-holding
                // load. The state stays `Hop`, so the next step re-checks
                // the budget — it frees as sibling faults install.
                if !BLOCKING && !tree.pool.fault_budget_available() {
                    return Ok(Some(DescentStep::Prefetched));
                }
                // Epoch before the read, so the install can reject a
                // frame made stale by a concurrent install/evict cycle.
                let epoch = tree.pool.fault_epoch(pid);
                if BLOCKING {
                    // Allocation and read I/O run before the parent latch
                    // is taken, so eviction can always make progress.
                    let fid = tree.pool.load_cold(pid, pfid)?;
                    self.install::<FENCE>(pfid, self.cur, fid, epoch);
                    return Ok(None);
                }
                // Kick the read to the background loader and suspend.
                let ticket = tree.pool.start_fault(pid, pfid);
                tree.metrics.incr(Counter::FaultSuspends);
                self.state = CursorState::Fault { ticket, pfid, cold: self.cur, epoch };
                return Ok(Some(DescentStep::FaultPending));
            }
        };
        let frame = tree.pool.frame(fid);
        if self.level == 1 {
            let guard = if self.write {
                LeafGuard::Write(frame.latch.write())
            } else {
                LeafGuard::Read(frame.latch.read())
            };
            // Version stamp first (cheap); on failure fall back to
            // re-reading the parent slot: we hold the leaf latch, so if
            // the parent routes this key here *right now*, this is the
            // right leaf no matter how often the stamp was bumped while
            // we were suspended. Not for a fence cursor: a leaf split that
            // still routes the key here tightens the fence without
            // changing the route, and a stale fence would make the range
            // walk skip the new right sibling.
            let on_track = tree.validate_parent(&self.parent, self.parent_ver)
                || (!FENCE && self.parent_routes_to(fid));
            if !on_track {
                drop(guard);
                return Ok(Some(self.restart()));
            }
            self.state = CursorState::Done;
            return Ok(Some(DescentStep::Leaf(BatchLeaf { tree, fid, guard })));
        }
        // Inner hop: read the child slot optimistically. The reuse epoch
        // is captured *before* the read: if it still matches at a later
        // `parent_routes_to` check, no recycle happened in between, so
        // the frame still holds the node this validated read saw. The
        // blocking driver revalidates by slot only at the leaf, whose
        // latch can block (an inner hop's window is a few loads wide), so
        // it pays for the epoch — a cache line away from the latch — only
        // on the leaf's parent.
        let slot_check = !BLOCKING || self.level == 2;
        let fid_epoch = if slot_check { frame.meta.reuse_epoch() } else { 0 };
        let key = &self.key;
        let mut sep = None;
        let Some((read, ver)) = frame.latch.optimistic_versioned(|p| match p {
            Page::Inner(n) => {
                let i = n.child_index(key);
                if FENCE && i < n.key_count() {
                    sep = Some(SmallKey::from_slice(n.key(i)));
                }
                Some(n.children[i])
            }
            _ => None,
        }) else {
            return Ok(Some(self.restart()));
        };
        // Same slow-path revalidation as the leaf (and the same fence
        // rule), with one extra check: no latch is held here, so the child
        // slot we just read is only trustworthy if this frame's own
        // version is also unchanged.
        let on_track = tree.validate_parent(&self.parent, self.parent_ver)
            || (!BLOCKING && !FENCE && self.parent_routes_to(fid) && frame.latch.validate(ver));
        if !on_track {
            return Ok(Some(self.restart()));
        }
        let Some(child_raw) = read else {
            // Frame was repurposed under us.
            return Ok(Some(self.restart()));
        };
        if sep.is_some() {
            *fence = sep;
        }
        self.parent = ParentRef::Node(fid);
        self.parent_ver = ver;
        self.parent_epoch = fid_epoch;
        self.cur = Swip::from_raw(child_raw);
        self.level -= 1;
        match self.cur.state() {
            SwipState::Hot(cf) | SwipState::Cooling(cf) if !BLOCKING => {
                // Pull the child frame's header and first node lines
                // toward L1, then suspend: a sibling descent runs while
                // the lines arrive, hiding the stall (§7.1).
                phoebe_common::prefetch_read_span(tree.pool.frame(cf), 4);
                tree.metrics.incr(Counter::PrefetchesIssued);
                Ok(Some(DescentStep::Prefetched))
            }
            // Blocking, or a cold child: no point prefetch-suspending on
            // the way to a disk read — loop so this same step faults.
            _ => Ok(None),
        }
    }

    /// Restart bookkeeping (see [`BTree::note_restart`]), then back off to
    /// the siblings.
    fn restart(&mut self) -> DescentStep<'t> {
        self.tree.note_restart(&mut self.attempt);
        self.state = CursorState::Start;
        DescentStep::Prefetched
    }

    /// Does the parent *currently* route this cursor's key to `fid`?
    ///
    /// Slot-level revalidation for when the version stamp fails. A
    /// suspended cursor's stamp goes stale on *any* write latch of the
    /// parent — and under memory pressure the page-swap duty stages
    /// children through parent write latches constantly, so near the
    /// root every suspend window eats a bump. Most of those writes never
    /// touch our slot: re-read it and accept the descent if the key
    /// still routes here.
    ///
    /// The re-read alone is *not* sound against frame recycling:
    /// `InnerNode::child_index` clamps rather than range-checks, so if
    /// the parent frame was evicted and reused as an unrelated inner
    /// node (the pool is shared across trees), it would still route any
    /// key to *some* slot, which could spuriously hold `Hot(fid)` if the
    /// child frame was recycled into that node's subtree too. The
    /// `reuse_epoch` comparison closes this: the epoch was captured at
    /// hop time, while a validated optimistic read proved the frame held
    /// the on-path node, so an unchanged epoch means it still does — and
    /// a same-node parent routes `key` correctly by the fence invariant
    /// (splits move the key's range, and its child reference, out
    /// together). The caller separately guarantees the *child's* content
    /// is current: leaf arrival holds the leaf latch, the inner hop
    /// revalidates the frame's own version.
    fn parent_routes_to(&self, fid: FrameId) -> bool {
        let hit = |raw: u64| {
            matches!(Swip::from_raw(raw).state(),
                SwipState::Hot(f) | SwipState::Cooling(f) if f == fid)
        };
        match self.parent {
            ParentRef::Meta => self.tree.meta.optimistic(|m| m.root.raw()).is_some_and(hit),
            ParentRef::Node(pfid) => {
                let routed = self
                    .tree
                    .pool
                    .frame(pfid)
                    .latch
                    .optimistic(|p| match p {
                        Page::Inner(n) => Some(n.children[n.child_index(&self.key)]),
                        _ => None,
                    })
                    .flatten()
                    .is_some_and(hit);
                // Epoch after the re-read: a recycle before the read
                // bumps the epoch under a write latch whose release the
                // validated read observed (see FrameMeta::reuse_epoch).
                routed && self.tree.pool.frame(pfid).meta.reuse_epoch() == self.parent_epoch
            }
        }
    }
}

/// A latched leaf delivered by a finished [`DescentCursor`]. Its methods
/// are the tree's only leaf bodies: the [`BTree`] point operations are a
/// descent plus one of these calls, so the touch/dirty bookkeeping stays
/// inside the storage crate. Dropping it releases the leaf latch.
pub struct BatchLeaf<'t> {
    tree: &'t BTree,
    fid: FrameId,
    guard: LeafGuard<'t>,
}

impl BatchLeaf<'_> {
    fn pax(&self) -> Result<&PaxLeaf> {
        match self.guard.page() {
            Page::TableLeaf(leaf) => Ok(leaf),
            _ => Err(PhoebeError::internal("table descend hit non-table leaf")),
        }
    }

    fn pax_mut(&mut self) -> Result<&mut PaxLeaf> {
        match self.guard.page_mut() {
            Page::TableLeaf(leaf) => Ok(leaf),
            _ => Err(PhoebeError::internal("table descend hit non-table leaf")),
        }
    }

    fn index_leaf(&self) -> Result<&IndexLeaf> {
        match self.guard.page() {
            Page::IndexLeaf(leaf) => Ok(leaf),
            _ => Err(PhoebeError::internal("index descend hit non-index leaf")),
        }
    }

    fn index_leaf_mut(&mut self) -> Result<&mut IndexLeaf> {
        match self.guard.page_mut() {
            Page::IndexLeaf(leaf) => Ok(leaf),
            _ => Err(PhoebeError::internal("index descend hit non-index leaf")),
        }
    }

    /// Read `row_id` in this leaf (see [`BTree::table_read`]).
    pub fn table_read<R>(
        &self,
        row_id: RowId,
        f: impl FnOnce(&PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        let leaf = self.pax()?;
        let out = leaf.find(row_id).map(|row| {
            let first = leaf.first_row_id().expect("non-empty leaf");
            f(leaf, row, first, self.fid)
        });
        if out.is_some() {
            self.tree.pool.touch(self.fid);
        }
        Ok(out)
    }

    /// Mutate `row_id` in this leaf (see [`BTree::table_modify`]; requires
    /// a `write` cursor).
    pub fn table_modify<R>(
        &mut self,
        row_id: RowId,
        f: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        let fid = self.fid;
        let leaf = self.pax_mut()?;
        let out = leaf.find(row_id).map(|row| {
            let first = leaf.first_row_id().expect("non-empty leaf");
            f(leaf, row, first, fid)
        });
        if out.is_some() {
            self.tree.mark_dirty(fid);
            self.tree.pool.touch(fid);
        }
        Ok(out)
    }

    /// Append under a row id drawn now, inside this leaf's exclusive latch
    /// (see [`BTree::table_append_alloc`]). The leaf must have room.
    fn table_append(
        &mut self,
        layout: &PaxLayout,
        alloc: &(dyn Fn() -> RowId + Sync),
        tuple: &[Value],
        under_latch: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId),
    ) -> Result<(RowId, FrameId, RowId)> {
        let fid = self.fid;
        let leaf = self.pax_mut()?;
        let row_id = alloc();
        let idx = leaf.append(layout, row_id, tuple);
        let first = leaf.first_row_id().expect("non-empty leaf");
        under_latch(leaf, idx, first, fid);
        self.tree.mark_dirty(fid);
        Ok((row_id, fid, first))
    }

    /// Exact lookup in this leaf (see [`BTree::index_get`]).
    pub fn index_get(&self, key: &[u8]) -> Result<Option<RowId>> {
        Ok(self.index_leaf()?.get(key).map(RowId))
    }

    /// Insert into this leaf: `Ok(false)` if it is full (the caller
    /// splits), `Err(DuplicateKey)` if the key exists.
    fn index_insert(&mut self, key: &[u8], row_id: RowId) -> Result<bool> {
        let leaf = self.index_leaf_mut()?;
        if leaf.is_full() {
            return Ok(false);
        }
        if !leaf.insert(key, row_id.raw()) {
            return Err(PhoebeError::DuplicateKey { index: self.tree.table });
        }
        self.tree.mark_dirty(self.fid);
        self.tree.pool.touch(self.fid);
        Ok(true)
    }

    /// Remove `key` from this leaf (see [`BTree::index_remove`]).
    fn index_remove(&mut self, key: &[u8]) -> Result<Option<RowId>> {
        let out = self.index_leaf_mut()?.remove(key).map(RowId);
        if out.is_some() {
            self.tree.mark_dirty(self.fid);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Schema};
    use phoebe_common::KernelConfig;

    fn pool(frames: usize) -> Arc<BufferPool> {
        let cfg = KernelConfig::for_tests();
        BufferPool::new(frames, 2, &cfg.data_dir, Arc::new(Metrics::new(2))).unwrap()
    }

    fn table_tree(frames: usize) -> (BTree, PaxLayout) {
        let p = pool(frames);
        let schema = Schema::new(vec![("v", ColType::I64), ("s", ColType::Str(8))]);
        let layout = PaxLayout::for_schema(&schema);
        let t = BTree::create(p.clone(), TableId(1), TreeKind::Table, Arc::new(Metrics::new(2)))
            .unwrap();
        (t, layout)
    }

    fn index_tree(frames: usize) -> BTree {
        let p = pool(frames);
        BTree::create(p, TableId(2), TreeKind::Index, Arc::new(Metrics::new(2))).unwrap()
    }

    /// Append `tuple` under the explicit row id `row`.
    fn append(t: &BTree, l: &PaxLayout, row: u64, tuple: &[Value]) {
        t.table_append_alloc(l, &|| RowId(row), tuple, |_, _, _, _| {}).unwrap();
    }

    fn tup(i: u64) -> Vec<Value> {
        vec![Value::I64(i as i64), Value::Str(format!("s{}", i % 100))]
    }

    #[test]
    fn table_append_and_point_reads() {
        let (t, l) = table_tree(256);
        for i in 1..=5_000u64 {
            append(&t, &l, i, &tup(i));
        }
        assert!(t.height() >= 2, "5k rows must split the root leaf");
        for i in (1..=5_000u64).step_by(97) {
            let v = t
                .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
                .unwrap()
                .expect("row present");
            assert_eq!(v, Value::I64(i as i64));
        }
        assert!(t.table_read(RowId(0), |_, _, _, _| ()).unwrap().is_none());
        assert!(t.table_read(RowId(99_999), |_, _, _, _| ()).unwrap().is_none());
    }

    #[test]
    fn table_modify_updates_in_place() {
        let (t, l) = table_tree(64);
        append(&t, &l, 7, &tup(7));
        let changed = t
            .table_modify(RowId(7), |leaf, row, _, _| {
                leaf.write_col(&l, row, 0, &Value::I64(-1));
            })
            .unwrap();
        assert!(changed.is_some());
        let v = t.table_read(RowId(7), |leaf, row, _, _| leaf.read_col(&l, row, 0)).unwrap();
        assert_eq!(v, Some(Value::I64(-1)));
    }

    #[test]
    fn table_page_identity_is_stable_across_splits() {
        let (t, l) = table_tree(256);
        append(&t, &l, 1, &tup(1));
        let first_identity = t.table_read(RowId(1), |_, _, first, _| first).unwrap().unwrap();
        for i in 2..=4_000u64 {
            append(&t, &l, i, &tup(i));
        }
        // Row 1's leaf never changed identity despite thousands of appends.
        let identity_after = t.table_read(RowId(1), |_, _, first, _| first).unwrap().unwrap();
        assert_eq!(first_identity, identity_after);
    }

    #[test]
    fn table_for_each_leaf_walks_in_order() {
        let (t, l) = table_tree(256);
        for i in 1..=3_000u64 {
            append(&t, &l, i, &tup(i));
        }
        let mut firsts = Vec::new();
        t.table_for_each_leaf(|_, leaf| {
            firsts.push(leaf.first_row_id().unwrap().raw());
            true
        })
        .unwrap();
        assert!(firsts.len() > 2);
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "leaves must ascend");
        // Early stop works.
        let mut n = 0;
        t.table_for_each_leaf(|_, _| {
            n += 1;
            false
        })
        .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn index_insert_get_remove_with_splits() {
        let t = index_tree(256);
        let n = 20_000u64;
        for i in 0..n {
            let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
            let _ = t.index_insert(&k, RowId(i)); // dups possible, ignore
        }
        assert!(t.height() >= 2);
        // Spot-check round trips on keys we know are present.
        let mut found = 0;
        for i in 0..n {
            let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
            if let Some(r) = t.index_get(&k).unwrap() {
                // Remove and verify gone.
                if i % 1000 == 0 {
                    assert_eq!(t.index_remove(&k).unwrap(), Some(r));
                    assert_eq!(t.index_get(&k).unwrap(), None);
                }
                found += 1;
            }
        }
        assert!(found > n as usize / 2);
    }

    #[test]
    fn index_duplicate_key_is_rejected() {
        let t = index_tree(64);
        t.index_insert(b"alpha", RowId(1)).unwrap();
        match t.index_insert(b"alpha", RowId(2)) {
            Err(PhoebeError::DuplicateKey { .. }) => {}
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        assert_eq!(t.index_get(b"alpha").unwrap(), Some(RowId(1)));
    }

    #[test]
    fn index_range_scans_across_leaves() {
        let t = index_tree(512);
        let n = 2_000u64;
        for i in 0..n {
            t.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
        }
        assert!(t.height() >= 2, "need multiple leaves to test resume");
        let mut seen = Vec::new();
        t.index_range(&100u64.to_be_bytes(), &1_500u64.to_be_bytes(), |_, r| {
            seen.push(r.raw());
            true
        })
        .unwrap();
        assert_eq!(seen, (100..=1_500).collect::<Vec<_>>());
        // Early termination.
        let mut count = 0;
        t.index_range(&0u64.to_be_bytes(), &u64::MAX.to_be_bytes(), |_, _| {
            count += 1;
            count < 10
        })
        .unwrap();
        assert_eq!(count, 10);
        // Empty range.
        let mut empty = 0;
        t.index_range(&5_000u64.to_be_bytes(), &6_000u64.to_be_bytes(), |_, _| {
            empty += 1;
            true
        })
        .unwrap();
        assert_eq!(empty, 0);
    }

    /// Drive a cursor to its leaf the way the batch round-robin would,
    /// counting how it suspended along the way.
    fn drive<'t>(mut c: DescentCursor<'t>) -> (BatchLeaf<'t>, u64, u64) {
        let (mut prefetches, mut faults) = (0u64, 0u64);
        loop {
            match c.step().unwrap() {
                DescentStep::Leaf(l) => return (l, prefetches, faults),
                DescentStep::Prefetched => prefetches += 1,
                DescentStep::FaultPending => {
                    faults += 1;
                    // A real batch would run siblings here; give the
                    // background loader the same window.
                    std::thread::yield_now();
                }
            }
        }
    }

    #[test]
    fn batch_cursor_matches_blocking_reads_hot() {
        let (t, l) = table_tree(256);
        for i in 1..=5_000u64 {
            append(&t, &l, i, &tup(i));
        }
        assert!(t.height() >= 2);
        let mut suspended = 0u64;
        for i in (1..=5_000u64).step_by(97) {
            let (leaf, prefetches, _) = drive(t.batch_cursor(&row_key(RowId(i)), false));
            suspended += prefetches;
            let v = leaf
                .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
                .unwrap()
                .expect("row present");
            assert_eq!(v, Value::I64(i as i64));
        }
        assert!(suspended > 0, "multi-level descents must suspend at least once per hop");
        // Misses behave like the blocking path too.
        let (leaf, _, _) = drive(t.batch_cursor(&row_key(RowId(99_999)), false));
        assert!(leaf.table_read(RowId(99_999), |_, _, _, _| ()).unwrap().is_none());
    }

    #[test]
    fn batch_cursor_write_mode_modifies_in_place() {
        let (t, l) = table_tree(256);
        for i in 1..=3_000u64 {
            append(&t, &l, i, &tup(i));
        }
        let (mut leaf, _, _) = drive(t.batch_cursor(&row_key(RowId(1_500)), true));
        let changed = leaf
            .table_modify(RowId(1_500), |leaf, row, _, _| {
                leaf.write_col(&l, row, 0, &Value::I64(-42));
            })
            .unwrap();
        assert!(changed.is_some());
        drop(leaf);
        let v = t.table_read(RowId(1_500), |leaf, row, _, _| leaf.read_col(&l, row, 0)).unwrap();
        assert_eq!(v, Some(Value::I64(-42)));
    }

    #[test]
    fn batch_cursor_index_lookup_matches_blocking() {
        let t = index_tree(256);
        for i in 0..20_000u64 {
            let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
            t.index_insert(&k, RowId(i)).unwrap();
        }
        for i in (0..20_000u64).step_by(331) {
            let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
            let (leaf, _, _) = drive(t.batch_cursor(&k, false));
            assert_eq!(leaf.index_get(&k).unwrap(), t.index_get(&k).unwrap());
        }
    }

    #[test]
    fn batch_cursor_suspends_on_cold_pages_and_resumes() {
        // Pool far smaller than the data: most leaves are cold, so the
        // cursor must go through kick-fault / suspend / resume instead of
        // blocking, and still read every row correctly.
        let p = pool(24);
        let schema = Schema::new(vec![("v", ColType::I64), ("s", ColType::Str(8))]);
        let l = PaxLayout::for_schema(&schema);
        let m = Arc::new(Metrics::new(2));
        let t = BTree::create(p, TableId(1), TreeKind::Table, m.clone()).unwrap();
        let n = 20_000u64;
        for i in 1..=n {
            append(&t, &l, i, &tup(i));
        }
        let before = m.snapshot();
        for i in (1..=n).step_by(513) {
            let (leaf, _, _) = drive(t.batch_cursor(&row_key(RowId(i)), false));
            let v = leaf
                .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
                .unwrap()
                .expect("row present after eviction cycles");
            assert_eq!(v, Value::I64(i as i64));
        }
        let after = m.snapshot();
        assert!(
            after.counter(Counter::FaultSuspends) > before.counter(Counter::FaultSuspends),
            "cold reads must take the suspend path"
        );
        assert!(
            after.counter(Counter::PrefetchesIssued) > before.counter(Counter::PrefetchesIssued)
        );
    }

    #[test]
    fn table_survives_eviction_pressure() {
        // Pool far smaller than the data: leaves must cycle through the
        // Data Page File and come back intact.
        let (t, l) = table_tree(24);
        let n = 20_000u64;
        for i in 1..=n {
            append(&t, &l, i, &tup(i));
        }
        let (reads, writes) = t.pool().io_counts();
        assert!(writes > 0, "eviction must have written pages");
        for i in (1..=n).step_by(513) {
            let v = t
                .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
                .unwrap()
                .expect("row present after eviction cycles");
            assert_eq!(v, Value::I64(i as i64));
        }
        let (reads2, _) = t.pool().io_counts();
        assert!(reads2 > reads, "point reads of cold rows must load pages");
    }

    #[test]
    fn index_survives_eviction_pressure() {
        let t = index_tree(24);
        let n = 30_000u64;
        for i in 0..n {
            t.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
        }
        for i in (0..n).step_by(997) {
            assert_eq!(t.index_get(&i.to_be_bytes()).unwrap(), Some(RowId(i)));
        }
        let (_, writes) = t.pool().io_counts();
        assert!(writes > 0);
    }

    #[test]
    fn concurrent_index_readers_and_writers() {
        let t = Arc::new(index_tree(512));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        let k = (w * 1_000_000 + i).to_be_bytes();
                        t.index_insert(&k, RowId(i)).unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    for i in 0..20_000u64 {
                        let k = (i % 2 * 1_000_000 + i % 5_000).to_be_bytes();
                        if t.index_get(&k).unwrap().is_some() {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        // Everything inserted must be found afterwards.
        for w in 0..2u64 {
            for i in (0..5_000u64).step_by(111) {
                let k = (w * 1_000_000 + i).to_be_bytes();
                assert_eq!(t.index_get(&k).unwrap(), Some(RowId(i)));
            }
        }
    }

    /// Inner nodes reachable from the root (a quiescent, all-hot tree).
    fn inner_nodes(t: &BTree) -> usize {
        fn below(t: &BTree, fid: FrameId) -> usize {
            let g = t.pool.frame(fid).latch.read();
            let Page::Inner(n) = &*g else { return 0 };
            let children = n.children[..=n.key_count()].iter();
            1 + children
                .map(|&c| Swip::from_raw(c).frame().map_or(0, |f| below(t, f)))
                .sum::<usize>()
        }
        below(t, t.meta.optimistic(|m| m.root).unwrap().frame().unwrap())
    }

    /// Range walks run while two threads insert, forcing leaf and inner
    /// splits under them. Every key present before a walk must come back,
    /// in order, exactly once: a fence accepted without its version stamp
    /// would make the walk skip a split-off right sibling.
    #[test]
    fn index_range_sees_every_prior_key_during_concurrent_splits() {
        let t = Arc::new(index_tree(1024));
        // Multiples of 4 exist up front (sequential inserts leave leaves
        // half full); the writers fill in the other keys, tripling every
        // leaf's entries, so every leaf splits and so does the root.
        const N: u64 = 12_000;
        for i in 0..N {
            t.index_insert(&(4 * i).to_be_bytes(), RowId(4 * i)).unwrap();
        }
        let inner = inner_nodes(&t);
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for k in (0..4 * N).filter(|k| k % 4 != 0 && k % 2 == w) {
                        t.index_insert(&k.to_be_bytes(), RowId(k)).unwrap();
                    }
                })
            })
            .collect();
        let walk = || {
            let (mut prev, mut prior) = (None, 0u64);
            t.index_range(&[], &[0xff; 9], |k, r| {
                let k = u64::from_be_bytes(k.try_into().unwrap());
                assert!(prev < Some(k), "walk went backwards or repeated: {prev:?} then {k}");
                assert_eq!(r.raw(), k);
                prev = Some(k);
                prior += u64::from(k % 4 == 0);
                true
            })
            .unwrap();
            assert_eq!(prior, N, "a prior key was skipped");
        };
        let mut walks = 0;
        while walks == 0 || writers.iter().any(|w| !w.is_finished()) {
            walk();
            walks += 1;
        }
        for w in writers {
            w.join().unwrap();
        }
        walk();
        assert!(inner_nodes(&t) >= inner + 2, "the writers must split inner nodes");
    }

    /// The fence rule, deterministically: a leaf split between a fence
    /// cursor's last inner hop and its leaf arrival still routes the key
    /// to the same leaf, but tightens its upper bound. The cursor must
    /// notice (its stamp failed) and return the new, tighter fence.
    #[test]
    fn fence_cursor_rejects_a_leaf_whose_range_shrank() {
        let t = index_tree(256);
        for i in 0..1_000u64 {
            t.index_insert(&(4 * i).to_be_bytes(), RowId(4 * i)).unwrap();
        }
        assert_eq!(t.height(), 2);
        // Hop through the root: one batch-mode step stops before latching
        // the first leaf, with the separator after that leaf as the fence.
        let mut cur = t.cursor(&0u64.to_be_bytes(), false);
        let mut fence = None;
        let step = cur.advance::<false, true>(&mut fence).unwrap();
        assert!(matches!(step, DescentStep::Prefetched));
        let stale = fence.clone().expect("first leaf has a right neighbour");
        // Split the first leaf: key 0 stays left, the leaf's range shrinks.
        let fence_of_0 = || t.cursor(&0u64.to_be_bytes(), false).run::<true>().unwrap().1;
        for k in (1..4 * 112u64).filter(|k| k % 4 != 0) {
            if fence_of_0().as_ref() != Some(&stale) {
                break;
            }
            t.index_insert(&k.to_be_bytes(), RowId(k)).unwrap();
        }
        let leaf = loop {
            if let DescentStep::Leaf(leaf) = cur.advance::<true, true>(&mut fence).unwrap() {
                break leaf;
            }
        };
        let fence = fence.expect("still has a right neighbour");
        assert!(fence.as_slice() < stale.as_slice(), "stale fence accepted after a leaf split");
        assert!(leaf.index_leaf().unwrap().get(&0u64.to_be_bytes()).is_some());
    }

    /// The table twin of the index test: leaf walks while two threads
    /// append (hanging fresh leaves and splitting the right spine) return
    /// every prior row once, in row-id order.
    #[test]
    fn table_for_each_leaf_sees_every_prior_row_during_concurrent_appends() {
        let p = pool(1024);
        // Seven rows per leaf, so a few thousand rows overflow inner nodes.
        let l = PaxLayout::for_schema(&Schema::new(vec![("s", ColType::Str(1998))]));
        let t = Arc::new(
            BTree::create(p, TableId(1), TreeKind::Table, Arc::new(Metrics::new(2))).unwrap(),
        );
        const PRIOR: u64 = 1_000;
        let row = || vec![Value::Str("x".into())];
        for i in 1..=PRIOR {
            append(&t, &l, i, &row());
        }
        let inner = inner_nodes(&t);
        let next = Arc::new(std::sync::atomic::AtomicU64::new(PRIOR + 1));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let (t, l, next) = (Arc::clone(&t), l.clone(), Arc::clone(&next));
                std::thread::spawn(move || {
                    // ORDERING: the leaf latch orders the appends; the
                    // counter only has to hand out unique ids.
                    let alloc = || RowId(next.fetch_add(1, Ordering::Relaxed));
                    for _ in 0..1_500 {
                        t.table_append_alloc(&l, &alloc, &row(), |_, _, _, _| {}).unwrap();
                    }
                })
            })
            .collect();
        let walk = || {
            let mut rows = Vec::new();
            t.table_for_each_leaf(|_, leaf| {
                rows.extend((0..leaf.len()).map(|i| leaf.row_id_at(i).raw()));
                true
            })
            .unwrap();
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows out of order or repeated");
            assert_eq!(rows.iter().take_while(|&&r| r <= PRIOR).count() as u64, PRIOR);
        };
        let mut walks = 0;
        while walks == 0 || writers.iter().any(|w| !w.is_finished()) {
            walk();
            walks += 1;
        }
        for w in writers {
            w.join().unwrap();
        }
        walk();
        assert!(inner_nodes(&t) >= inner + 2, "the appenders must split inner nodes");
    }

    #[test]
    fn concurrent_table_appenders_on_disjoint_trees() {
        // Two tables sharing one pool: appends must not interfere.
        let p = pool(128);
        let schema = Schema::new(vec![("v", ColType::I64)]);
        let l = PaxLayout::for_schema(&schema);
        let m = Arc::new(Metrics::new(2));
        let t1 =
            Arc::new(BTree::create(p.clone(), TableId(1), TreeKind::Table, m.clone()).unwrap());
        let t2 = Arc::new(BTree::create(p, TableId(2), TreeKind::Table, m).unwrap());
        let h1 = {
            let (t, l) = (t1.clone(), l.clone());
            std::thread::spawn(move || {
                for i in 1..=5_000u64 {
                    append(&t, &l, i, &[Value::I64(i as i64)]);
                }
            })
        };
        let h2 = {
            let (t, l) = (t2.clone(), l.clone());
            std::thread::spawn(move || {
                for i in 1..=5_000u64 {
                    append(&t, &l, i, &[Value::I64(-(i as i64))]);
                }
            })
        };
        h1.join().unwrap();
        h2.join().unwrap();
        let v1 = t1.table_read(RowId(4_999), |leaf, r, _, _| leaf.read_col(&l, r, 0)).unwrap();
        let v2 = t2.table_read(RowId(4_999), |leaf, r, _, _| leaf.read_col(&l, r, 0)).unwrap();
        assert_eq!(v1, Some(Value::I64(4_999)));
        assert_eq!(v2, Some(Value::I64(-4_999)));
    }

    #[test]
    fn sequential_workload_records_zero_restarts() {
        let p = pool(256);
        let metrics = Arc::new(Metrics::new(2));
        let schema = Schema::new(vec![("v", ColType::I64)]);
        let layout = PaxLayout::for_schema(&schema);
        let t = BTree::create(p, TableId(1), TreeKind::Table, Arc::clone(&metrics)).unwrap();
        for i in 1..=2_000u64 {
            append(&t, &layout, i, &[Value::I64(i as i64)]);
        }
        for i in (1..=2_000u64).step_by(37) {
            t.table_read(RowId(i), |leaf, r, _, _| leaf.read_col(&layout, r, 0)).unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(Counter::LatchRestarts), 0, "no interference, no restarts");
        assert_eq!(snap.latency(LatencySite::BtreeRestart).count(), 0);
    }

    #[test]
    fn restart_counter_matches_restart_latency_samples() {
        // Every descent restart must feed the counter AND the wasted-work
        // histogram exactly once (the observability layer treats them as
        // two views of the same event). Hammer point reads while an
        // appender forces splits (each split bumps versions on the path),
        // then check the two stay in lockstep.
        let p = pool(512);
        let metrics = Arc::new(Metrics::new(4));
        let schema = Schema::new(vec![("v", ColType::I64)]);
        let layout = PaxLayout::for_schema(&schema);
        let t =
            Arc::new(BTree::create(p, TableId(1), TreeKind::Table, Arc::clone(&metrics)).unwrap());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 1u64;
                    // ORDERING: stop flag only gates loop exit.
                    while !stop.load(Ordering::Relaxed) {
                        let _ = t.table_read(RowId(i % 4_000 + 1), |_, _, _, _| ());
                        i += 1;
                    }
                })
            })
            .collect();
        for i in 1..=8_000u64 {
            append(&t, &layout, i, &[Value::I64(i as i64)]);
        }
        // ORDERING: stop flag; the joins below order everything else.
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter(Counter::LatchRestarts),
            snap.latency(LatencySite::BtreeRestart).count(),
            "restart counter and restart latency samples must agree"
        );
    }

    /// Any cold child of the root, as `(slot swip, page id)`.
    fn find_cold_child(t: &BTree, root_fid: FrameId) -> Option<(Swip, phoebe_common::ids::PageId)> {
        let g = t.pool.frame(root_fid).latch.read();
        let Page::Inner(n) = &*g else { panic!("root is not inner") };
        (0..=n.count as usize).find_map(|i| {
            let s = Swip::from_raw(n.children[i]);
            match s.state() {
                SwipState::Cold(pid) => Some((s, pid)),
                _ => None,
            }
        })
    }

    /// PageId ABA across a suspended fault: while a batch cursor's read is
    /// in flight, the same page is faulted in by someone else, modified,
    /// and evicted back to the *same* PageId — restoring a byte-identical
    /// cold swip. The suspended cursor's install must reject its stale
    /// frame (fault-epoch mismatch) instead of clobbering the slot and
    /// losing the committed write.
    #[test]
    fn stale_fault_install_is_rejected_after_page_cycle() {
        let (t, l) = table_tree(256);
        for i in 1..=5_000u64 {
            append(&t, &l, i, &tup(i));
        }
        assert!(t.height() >= 2);
        let root_fid = {
            let root = t.meta.optimistic(|m| m.root).unwrap();
            let SwipState::Hot(f) = root.state() else { panic!("root not hot") };
            f
        };
        // Page one leaf out.
        let (cold, pid) = loop {
            for part in 0..t.pool.partition_count() {
                t.pool.stage_cooling(part, 8);
                let _ = t.pool.evict_one(part).unwrap();
            }
            if let Some(found) = find_cold_child(&t, root_fid) {
                break found;
            }
        };

        // Suspended cursor: epoch captured, loader reads the old bytes.
        let epoch0 = t.pool.fault_epoch(pid);
        let stale = t.pool.load_cold(pid, root_fid).unwrap();

        // Concurrent blocking descent wins the fault, a writer modifies a
        // row, and the page-swap duty evicts the page again.
        let fresh = t.pool.load_cold(pid, root_fid).unwrap();
        assert!(t.install_loaded(root_fid, cold, fresh, t.pool.fault_epoch(pid)).is_some());
        let victim = {
            let g = t.pool.frame(fresh).latch.read();
            let Page::TableLeaf(leaf) = &*g else { panic!("expected table leaf") };
            leaf.first_row_id().unwrap()
        };
        t.table_modify(victim, |leaf, row, _, _| leaf.write_col(&l, row, 0, &Value::I64(-7)))
            .unwrap()
            .expect("victim row present");
        let mut cycled = false;
        'out: for _ in 0..1_000 {
            for part in 0..t.pool.partition_count() {
                t.pool.stage_cooling(part, 8);
                let _ = t.pool.evict_one(part).unwrap();
            }
            let g = t.pool.frame(root_fid).latch.read();
            let Page::Inner(n) = &*g else { panic!("root is not inner") };
            for i in 0..=n.count as usize {
                if Swip::from_raw(n.children[i]).state() == SwipState::Cold(pid) {
                    cycled = true;
                    break 'out;
                }
            }
        }
        assert!(cycled, "page must evict back to the same PageId");

        // The resumed cursor's install must lose: its frame predates the
        // committed write even though the cold swip is byte-identical.
        assert!(
            t.install_loaded(root_fid, cold, stale, epoch0).is_none(),
            "stale frame installed over a cycled page (ABA)"
        );
        let v = t.table_read(victim, |leaf, row, _, _| leaf.read_col(&l, row, 0)).unwrap();
        assert_eq!(v, Some(Value::I64(-7)), "committed write lost to a stale install");
    }

    /// A suspended cursor's parent frame can be evicted and recycled as an
    /// unrelated inner node; `child_index` clamps, so the recycled node
    /// still "routes" any key to some slot. Slot-level revalidation must
    /// therefore refuse a parent whose reuse epoch moved since hop time,
    /// even if the re-read lands on the expected child frame.
    #[test]
    fn recycled_parent_frame_is_not_trusted_by_slot_revalidation() {
        let (t, _l) = table_tree(64);
        let route_to = |pfid: FrameId, leaf: FrameId| {
            let mut g = t.pool.frame(pfid).latch.write();
            let mut inner = InnerNode::default();
            inner.children[0] = Swip::hot(leaf).raw();
            *g = Page::Inner(inner);
        };
        let pfid = t.pool.allocate().unwrap();
        let leaf = t.pool.allocate().unwrap();
        *t.pool.frame(leaf).latch.write() = Page::TableLeaf(PaxLeaf::new());
        route_to(pfid, leaf);

        let mut cur = t.batch_cursor(b"k", false);
        cur.parent = ParentRef::Node(pfid);
        cur.parent_epoch = t.pool.frame(pfid).meta.reuse_epoch();
        assert!(cur.parent_routes_to(leaf), "live parent must pass slot revalidation");

        // Recycle pfid (release + reallocate) as a different inner node
        // that happens to route to the same child frame.
        t.pool.release(pfid);
        let mut held = Vec::new();
        let back = loop {
            let f = t.pool.allocate().unwrap();
            if f == pfid {
                break f;
            }
            held.push(f);
        };
        for f in held {
            t.pool.release(f);
        }
        route_to(back, leaf);
        assert!(
            !cur.parent_routes_to(leaf),
            "recycled parent frame accepted by slot revalidation (clamped routing)"
        );
    }
}
