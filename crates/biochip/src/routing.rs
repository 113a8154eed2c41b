//! Dense, allocation-free BFS routing state.
//!
//! The router's hot loops (candidate wash-path enumeration tries many
//! via-orders per wash group) used to rebuild `HashMap`/`HashSet` frontier
//! state on every call. [`RouteScratch`] replaces those with flat
//! `Vec`-indexed arrays keyed by grid cell index, stamped with epochs so a
//! warm scratch is reused without clearing: after the first route on a given
//! grid size, routing allocates nothing. A fan hands each path to its
//! caller as a slice of one reused buffer; only the `Vec`-returning
//! wrappers copy.
//!
//! Which neighbors a route may step to is decided once per chip: its
//! neighbor table ([`build_neighbor_table`]) holds one byte per cell, a bit
//! per direction for "in the grid, valve not stuck closed, cell routable
//! and unclogged" and one for "that cell is a port", so a BFS leg reads one
//! byte per dequeued cell instead of consulting the grid and the fault set
//! per neighbor. A chip is immutable; a faulted copy builds its own table.
//!
//! A wash path is `[flow port → targets → waste port]`, and its legs up to
//! the last target do not depend on the waste port: ports are impassable
//! except as a leg's endpoint. [`Chip::route_via_fan_with`] routes those
//! legs once and fans the last leg out to every waste port in one BFS
//! (each port a leaf goal), returning what a separate `route_via` per
//! waste port would. [`Chip::route_via_with`] is its one-`to` case.
//!
//! [`PortReach`] caches BFS distance fields from every flow and waste port
//! over the unblocked chip, computed once per chip (the chip is immutable
//! after construction, so the cache never goes stale). Because blocking
//! cells only ever shrinks reachability, a cell unreachable in these fields
//! can never be routed, so enumeration prunes hopeless port/via
//! combinations without running the router at all.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::chip::Chip;
use crate::fault::FaultDelta;
use crate::grid::{CellKind, Coord, NEIGHBOR_DELTAS};

/// Monotone counters over all routing activity in the process.
///
/// Incremented with relaxed ordering (they are statistics, not
/// synchronization), once per routing query; read them with [`counters`]
/// before and after a pipeline stage and subtract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingCounters {
    /// Routing queries, one per (from, to) pair: a `route`/`route_via`
    /// counts one, a fan one per `to` it handed out or passed over before
    /// its caller stopped it.
    pub route_calls: u64,
    /// BFS searches (a `route_via` runs one per leg; a fan's shared last
    /// leg counts once).
    pub bfs_runs: u64,
    /// Routing queries served by an already-warm scratch (no allocation).
    pub scratch_reuses: u64,
}

static ROUTE_CALLS: AtomicU64 = AtomicU64::new(0);
static BFS_RUNS: AtomicU64 = AtomicU64::new(0);
static SCRATCH_REUSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide [`RoutingCounters`].
pub fn counters() -> RoutingCounters {
    RoutingCounters {
        route_calls: ROUTE_CALLS.load(Ordering::Relaxed),
        bfs_runs: BFS_RUNS.load(Ordering::Relaxed),
        scratch_reuses: SCRATCH_REUSES.load(Ordering::Relaxed),
    }
}

impl std::ops::Sub for RoutingCounters {
    type Output = RoutingCounters;

    fn sub(self, rhs: RoutingCounters) -> RoutingCounters {
        RoutingCounters {
            route_calls: self.route_calls - rhs.route_calls,
            bfs_runs: self.bfs_runs - rhs.bfs_runs,
            scratch_reuses: self.scratch_reuses - rhs.scratch_reuses,
        }
    }
}

const UNSET: u32 = u32::MAX;

/// Builds `chip`'s routing table: one byte per cell, row-major. Bit `d`
/// (directions in [`NEIGHBOR_DELTAS`] order: +x, −x, +y, −y) says the
/// neighbor that way lies in the grid, the valve between the two cells is
/// not stuck closed, and the neighbor is routable and unclogged (an
/// enabled port, if it is a port). Bit `4 + d` says that neighbor is a
/// port, which a leg may enter only as its goal.
pub(crate) fn build_neighbor_table(chip: &Chip) -> Vec<u8> {
    let grid = chip.grid();
    let mut table = vec![0u8; grid.width() as usize * grid.height() as usize];
    for (i, c) in grid.coords().enumerate() {
        for (d, (dx, dy)) in NEIGHBOR_DELTAS.into_iter().enumerate() {
            let (x, y) = (c.x as i32 + dx, c.y as i32 + dy);
            if x < 0 || y < 0 {
                continue;
            }
            let n = Coord::new(x as u16, y as u16);
            // A port is passable as its own endpoint; `passable` refuses
            // out-of-grid cells.
            if !chip.passable(n, n, n) || !chip.edge_passable(c, n) {
                continue;
            }
            table[i] |= 1 << d;
            if matches!(grid.kind(n), CellKind::FlowPort(_) | CellKind::WastePort(_)) {
                table[i] |= 1 << (4 + d);
            }
        }
    }
    table
}

/// Index of cell `i`'s neighbor in direction `d` on a `width`-wide grid;
/// meaningful only where the routing table says that neighbor exists.
#[inline]
fn step(i: usize, d: u32, width: usize) -> usize {
    match d {
        0 => i + 1,
        1 => i - 1,
        2 => i + width,
        _ => i - width,
    }
}

/// Reusable BFS state for one grid size.
///
/// All membership tests (`visited`, `blocked`, `used`, pending stops) are
/// epoch-stamped flat arrays: bumping an epoch invalidates the whole set in
/// O(1), so repeated routes reuse the buffers without clearing or
/// allocating. One scratch serves one thread; parallel enumeration gives
/// each worker its own.
#[derive(Debug, Clone)]
pub struct RouteScratch {
    width: u16,
    height: u16,
    /// BFS visited stamp + predecessor (per BFS leg).
    visit: Vec<u32>,
    prev: Vec<u32>,
    visit_epoch: u32,
    /// Blocked-cell stamp (loaded once, valid across many routes).
    blocked: Vec<u32>,
    blocked_epoch: u32,
    /// Cells consumed by earlier legs of the current `route_via`.
    used: Vec<u32>,
    used_epoch: u32,
    /// Pending-stop stamp and rank for the current `route_via`.
    stop: Vec<u32>,
    stop_rank: Vec<u32>,
    stop_epoch: u32,
    /// Goal stamp of the current BFS leg (one stop, or a fan's ports).
    goal: Vec<u32>,
    goal_epoch: u32,
    /// FIFO frontier.
    queue: Vec<u32>,
    /// The path handed to a fan's callback, rebuilt in place per `to`.
    path: Vec<Coord>,
    /// BFS legs run by the current query, added to the process counter
    /// with its routing queries.
    bfs_runs: u64,
    /// Whether this scratch has served a route before (for the reuse
    /// counter).
    warm: bool,
}

impl RouteScratch {
    /// Creates scratch buffers sized for `chip`'s grid.
    pub fn for_chip(chip: &Chip) -> Self {
        Self::new(chip.grid().width(), chip.grid().height())
    }

    /// Creates scratch buffers for a `width × height` grid.
    pub fn new(width: u16, height: u16) -> Self {
        let n = width as usize * height as usize;
        Self {
            width,
            height,
            visit: vec![0; n],
            prev: vec![0; n],
            visit_epoch: 0,
            blocked: vec![0; n],
            blocked_epoch: 0,
            used: vec![0; n],
            used_epoch: 0,
            stop: vec![0; n],
            stop_rank: vec![0; n],
            stop_epoch: 0,
            goal: vec![0; n],
            goal_epoch: 0,
            queue: Vec::with_capacity(n),
            path: Vec::new(),
            bfs_runs: 0,
            warm: false,
        }
    }

    /// Returns `true` if this scratch fits `chip`'s grid.
    pub fn fits(&self, chip: &Chip) -> bool {
        self.width == chip.grid().width() && self.height == chip.grid().height()
    }

    #[inline]
    fn idx(&self, c: Coord) -> usize {
        c.y as usize * self.width as usize + c.x as usize
    }

    #[inline]
    fn coord(&self, i: usize) -> Coord {
        let w = self.width as usize;
        Coord::new((i % w) as u16, (i / w) as u16)
    }

    /// Bumps an epoch counter, resetting the stamp array on wrap-around so a
    /// stale stamp can never alias the new epoch. Epoch 0 is reserved for
    /// "freshly zeroed", so stamps start valid-empty.
    fn bump(epoch: &mut u32, stamps: &mut [u32]) -> u32 {
        *epoch = epoch.wrapping_add(1);
        if *epoch == UNSET {
            stamps.fill(0);
            *epoch = 1;
        }
        *epoch
    }

    /// Replaces the blocked set. The set stays loaded across subsequent
    /// `route_with`/`route_via_with` calls, so a caller probing many port
    /// pairs against one blocked set stamps it exactly once.
    pub fn load_blocked(&mut self, blocked: impl IntoIterator<Item = Coord>) {
        let e = Self::bump(&mut self.blocked_epoch, &mut self.blocked);
        for c in blocked {
            if c.x < self.width && c.y < self.height {
                let i = c.y as usize * self.width as usize + c.x as usize;
                self.blocked[i] = e;
            }
        }
    }

    /// Starts a fresh routing query: invalidates the leg-used set and the
    /// pending-stop set (the blocked set persists).
    fn begin_query(&mut self) {
        Self::bump(&mut self.used_epoch, &mut self.used);
        Self::bump(&mut self.stop_epoch, &mut self.stop);
    }

    /// Counts `queries` ≥ 1 (from, to) routing queries served by this
    /// scratch, and the BFS legs they ran.
    fn count_queries(&mut self, queries: u64) {
        ROUTE_CALLS.fetch_add(queries, Ordering::Relaxed);
        let bfs = std::mem::take(&mut self.bfs_runs);
        if bfs > 0 {
            BFS_RUNS.fetch_add(bfs, Ordering::Relaxed);
        }
        let reuses = if self.warm { queries } else { queries - 1 };
        if reuses > 0 {
            SCRATCH_REUSES.fetch_add(reuses, Ordering::Relaxed);
        }
        self.warm = true;
    }

    #[inline]
    fn in_grid(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    #[inline]
    fn is_blocked(&self, i: usize) -> bool {
        self.blocked[i] == self.blocked_epoch
    }

    #[inline]
    fn is_used(&self, i: usize) -> bool {
        self.used[i] == self.used_epoch
    }

    /// Makes `goals` the goal set of the next leg; returns how many distinct
    /// in-grid cells it holds.
    fn stamp_goals(&mut self, goals: impl IntoIterator<Item = Coord>) -> usize {
        let e = Self::bump(&mut self.goal_epoch, &mut self.goal);
        let mut distinct = 0;
        for g in goals {
            if self.in_grid(g) {
                let i = self.idx(g);
                if self.goal[i] != e {
                    self.goal[i] = e;
                    distinct += 1;
                }
            }
        }
        distinct
    }

    /// Whether the last leg reached goal `g`.
    #[inline]
    fn reached(&self, g: Coord) -> bool {
        self.in_grid(g) && {
            let i = self.idx(g);
            self.goal[i] == self.goal_epoch && self.visit[i] == self.visit_epoch
        }
    }

    /// One BFS leg from `cur` towards the `goals` stamped goal cells,
    /// stopping once all are reached. A goal is entered but never expanded,
    /// so the other cells' BFS tree is the one a single-goal search grows
    /// whenever the other goals are ports it may not cross anyway. A cell is
    /// traversable when the chip's routing table opens it from the cell
    /// being expanded (a port only if it is a goal), it is not blocked, not
    /// consumed by an earlier leg (`cur` itself is exempt: it is the head of
    /// the previous leg, which this leg restarts from), and not a stop that
    /// must be visited later (`rank > leg`).
    fn leg(&mut self, chip: &Chip, cur: Coord, leg: u32, mut goals: usize) {
        self.bfs_runs += 1;
        let start = self.idx(cur);
        let barred = |s: &Self, i: usize| {
            ((s.is_blocked(i) || s.is_used(i)) && i != start)
                || (s.stop[i] == s.stop_epoch && s.stop_rank[i] > leg)
        };
        // Bump first: a leg that cannot start must not leave an earlier
        // leg's visits looking `reached`.
        let e = Self::bump(&mut self.visit_epoch, &mut self.visit);
        if !chip.passable(cur, cur, cur) || barred(self, start) {
            return;
        }
        let table = chip.neighbor_table();
        let width = self.width as usize;
        self.visit[start] = e;
        self.prev[start] = start as u32;
        self.queue.clear();
        self.queue.push(start as u32);
        let mut head = 0usize;
        while head < self.queue.len() {
            let ci = self.queue[head] as usize;
            head += 1;
            let bits = table[ci];
            let mut open = bits & 0xF;
            while open != 0 {
                let d = open.trailing_zeros();
                open &= open - 1;
                let ni = step(ci, d, width);
                if self.visit[ni] == e || barred(self, ni) {
                    continue;
                }
                let goal = self.goal[ni] == self.goal_epoch;
                if !goal && bits & (1 << (4 + d)) != 0 {
                    continue;
                }
                self.visit[ni] = e;
                self.prev[ni] = ci as u32;
                if !goal {
                    self.queue.push(ni as u32);
                    continue;
                }
                goals -= 1;
                if goals == 0 {
                    return;
                }
            }
        }
    }

    /// Appends the leg `from → to` found by the last BFS to `path`, minus
    /// the leg-start cell `path` already ends with (with it, if `path` is
    /// empty).
    fn append_leg(&self, from: Coord, to: Coord, path: &mut Vec<Coord>) {
        let mark = path.len();
        let start = self.idx(from) as u32;
        let mut i = self.idx(to) as u32;
        while i != start {
            path.push(self.coord(i as usize));
            i = self.prev[i as usize];
        }
        if mark == 0 {
            path.push(from);
        }
        path[mark..].reverse();
    }
}

impl Chip {
    /// Like [`route`](Self::route), but against the blocked set loaded into
    /// `scratch` — hot loops load the blocked set once and probe many
    /// endpoint pairs with zero per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different grid.
    pub fn route_with(
        &self,
        scratch: &mut RouteScratch,
        from: Coord,
        to: Coord,
    ) -> Option<Vec<Coord>> {
        assert!(scratch.fits(self), "scratch sized for a different grid");
        scratch.begin_query();
        let path = if !self.passable(from, from, to) || scratch.is_blocked(scratch.idx(from)) {
            None
        } else if from == to {
            Some(vec![from])
        } else {
            let goals = scratch.stamp_goals([to]);
            scratch.leg(self, from, 0, goals);
            scratch.reached(to).then(|| {
                let mut path = Vec::new();
                scratch.append_leg(from, to, &mut path);
                path
            })
        };
        scratch.count_queries(1);
        path
    }

    /// Like [`route_via`](Self::route_via), but against the blocked set
    /// loaded into `scratch`: the one-`to` case of
    /// [`route_via_fan_with`](Self::route_via_fan_with).
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different grid.
    pub fn route_via_with(
        &self,
        scratch: &mut RouteScratch,
        from: Coord,
        via: &[Coord],
        to: Coord,
    ) -> Option<Vec<Coord>> {
        let mut out = None;
        self.route_via_fan_with(scratch, from, via, &[to], |_, path| {
            out = Some(path.to_vec());
            true
        });
        out
    }

    /// Routes `from → via[0] → … → via[n-1] → tos[i]` for every `tos[i]`,
    /// calling `each(i, path)` in `tos` order for each routable one until
    /// `each` returns `true`. Every path equals what
    /// [`route_via_with`](Self::route_via_with) returns for that `to`, but
    /// the legs through `via` are routed once and the last leg is one BFS
    /// from the last via cell with every `to` as a leaf goal. Each path is
    /// lent to `each` from a buffer the scratch reuses: copy it to keep it.
    ///
    /// This is exact because a port is impassable except as a leg's
    /// endpoint: no single-`to` prefix leg can enter a port `to` that is not
    /// `from` or a via cell, whether or not that `to` is a pending stop, and
    /// no single-`to` last leg can enter any other port `to`. A port `to`
    /// that *is* `from` or a via cell is a pending stop its own query can
    /// never enter or leave, so that query succeeds only as the walk that
    /// never moves: `from == to` with every via cell on it.
    ///
    /// Counts one routing query per `to` up to the stop, and one BFS per
    /// leg: the shared last leg counts once.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different grid, or if `tos`
    /// holds more than one cell and any of them is not a port cell.
    pub fn route_via_fan_with(
        &self,
        scratch: &mut RouteScratch,
        from: Coord,
        via: &[Coord],
        tos: &[Coord],
        mut each: impl FnMut(usize, &[Coord]) -> bool,
    ) {
        assert!(scratch.fits(self), "scratch sized for a different grid");
        let fan = tos.len() > 1;
        assert!(
            !fan || tos.iter().all(|&t| {
                matches!(
                    self.grid().get(t),
                    Some(CellKind::FlowPort(_) | CellKind::WastePort(_))
                )
            }),
            "a fan's goals must be port cells"
        );
        if tos.is_empty() {
            return;
        }
        scratch.begin_query();
        // A lone `to` is a pending stop through the prefix, as in any
        // `route_via`; fanned port goals need not be (see above).
        let pending = if fan { &[][..] } else { tos };
        let se = scratch.stop_epoch;
        for (k, &s) in via.iter().chain(pending).enumerate() {
            if scratch.in_grid(s) {
                let i = scratch.idx(s);
                scratch.stop[i] = se;
                // Duplicate stops keep the last (maximum) rank, matching the
                // "blocked while any later visit is pending" rule.
                scratch.stop_rank[i] = k as u32;
            }
        }

        let mut path = std::mem::take(&mut scratch.path);
        path.clear();
        let mut cur = from;
        let mut routed = true;
        for (k, &stop) in via.iter().enumerate() {
            if stop == cur {
                if path.is_empty() {
                    path.push(cur);
                    let i = scratch.idx(cur);
                    scratch.used[i] = scratch.used_epoch;
                }
                continue;
            }
            let goals = scratch.stamp_goals([stop]);
            scratch.leg(self, cur, k as u32, goals);
            if !scratch.reached(stop) {
                routed = false;
                break;
            }
            let mark = path.len();
            scratch.append_leg(cur, stop, &mut path);
            for &c in &path[mark..] {
                let i = scratch.idx(c);
                scratch.used[i] = scratch.used_epoch;
            }
            cur = stop;
        }
        let prefix = path.len();
        let pinned = |t: Coord| fan && (t == from || via.contains(&t));
        if routed {
            let goals =
                scratch.stamp_goals(tos.iter().copied().filter(|&t| t != cur && !pinned(t)));
            if goals > 0 {
                scratch.leg(self, cur, via.len() as u32, goals);
            }
        }
        let mut asked = 0;
        for (i, &to) in tos.iter().enumerate() {
            asked += 1;
            let found: Option<&[Coord]> = if pinned(to) {
                (to == from && via.iter().all(|&v| v == to)).then_some(std::slice::from_ref(&from))
            } else if !routed {
                None
            } else if to == cur {
                Some(if prefix == 0 {
                    std::slice::from_ref(&cur)
                } else {
                    &path[..prefix]
                })
            } else if scratch.reached(to) {
                path.truncate(prefix);
                scratch.append_leg(cur, to, &mut path);
                Some(&path)
            } else {
                None
            };
            if found.is_some_and(|p| each(i, p)) {
                break;
            }
        }
        scratch.path = path;
        scratch.count_queries(asked);
    }
}

/// A checkout/return pool of [`RouteScratch`] buffers.
///
/// Warm scratches are expensive to throw away: every enumeration fan-out
/// that builds fresh per-worker scratches re-pays the allocation and the
/// first-epoch stamping. A pool lets a long-lived caller (a `PlanContext`,
/// a batch driver's worker thread) keep scratches warm across many routing
/// bursts — and across *instances*, as long as the grid size matches:
/// [`checkout`](Self::checkout) hands back a pooled scratch that fits the
/// chip, or allocates a fresh one when none does. The guard returns the
/// scratch on drop, so the pool only ever grows to the caller's peak
/// concurrent demand.
///
/// The pool is `Sync`; concurrent workers check scratches out through a
/// mutex held only for the pop/push, never across a route.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: std::sync::Mutex<Vec<RouteScratch>>,
}

impl ScratchPool {
    /// An empty pool; scratches are allocated lazily on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool pre-seeded with one scratch sized for `chip`.
    pub fn for_chip(chip: &Chip) -> Self {
        let pool = Self::new();
        pool.put(RouteScratch::for_chip(chip));
        pool
    }

    /// Checks out a scratch fitting `chip`'s grid: a pooled one when
    /// available (keeping its warm epochs), a freshly allocated one
    /// otherwise. The scratch returns to the pool when the guard drops.
    pub fn checkout<'p>(&'p self, chip: &Chip) -> PooledScratch<'p> {
        let mut pool = self.pool.lock().expect("scratch pool poisoned");
        let scratch = pool
            .iter()
            .position(|s| s.fits(chip))
            .map(|i| pool.swap_remove(i))
            .unwrap_or_else(|| RouteScratch::for_chip(chip));
        drop(pool);
        PooledScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Returns a scratch to the pool (used by the guard's drop; callers may
    /// also seed the pool with scratches they built themselves).
    pub fn put(&self, scratch: RouteScratch) {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Number of scratches currently checked in.
    pub fn available(&self) -> usize {
        self.pool.lock().expect("scratch pool poisoned").len()
    }
}

/// A [`RouteScratch`] checked out of a [`ScratchPool`]; derefs to the
/// scratch and returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledScratch<'p> {
    pool: &'p ScratchPool,
    scratch: Option<RouteScratch>,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = RouteScratch;

    fn deref(&self) -> &RouteScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut RouteScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.pool.put(s);
        }
    }
}

/// Cached unblocked BFS distance fields from every flow and waste port.
///
/// `flow[p][cell]` is the hop distance from flow port `p` to `cell` through
/// channel/device cells only (ports are impassable except as the source);
/// `u32::MAX` means unreachable. `flow_any`/`waste_any` are the minima over
/// all ports. Blocking cells can only shrink reachability, so these fields
/// soundly prune routing queries that cannot possibly succeed.
///
/// A `PortReach` also carries an epoch-stamped generation counter: every
/// [`carry_forward`](Self::carry_forward) bumps `generation` and stamps the
/// per-port fields it actually re-ran BFS for, so callers can observe how
/// much of the cache survived a fault delta. `PartialEq` compares only the
/// distance fields — generation bookkeeping is observability metadata, and
/// a carried-forward reach must compare equal to a cold `compute` for the
/// same chip.
#[derive(Debug, Clone)]
pub struct PortReach {
    flow: Vec<Vec<u32>>,
    waste: Vec<Vec<u32>>,
    flow_any: Vec<u32>,
    waste_any: Vec<u32>,
    width: u16,
    /// Bumped on every carry-forward; `GEN_UNSET` is a reserved sentinel.
    generation: u32,
    /// `flow_stamps[p] == generation` iff `flow[p]` was re-run by the
    /// latest carry-forward (all zeros after a cold compute).
    flow_stamps: Vec<u32>,
    waste_stamps: Vec<u32>,
}

impl PartialEq for PortReach {
    fn eq(&self, other: &Self) -> bool {
        self.flow == other.flow
            && self.waste == other.waste
            && self.flow_any == other.flow_any
            && self.waste_any == other.waste_any
            && self.width == other.width
    }
}

/// Reserved generation value; the counter skips it on wraparound, mirroring
/// [`RouteScratch`]'s epoch discipline.
const GEN_UNSET: u32 = u32::MAX;

impl PortReach {
    pub(crate) fn compute(chip: &Chip) -> Self {
        use crate::chip::{FlowPortId, WastePortId};
        let w = chip.grid().width();
        // A disabled port reaches nothing: its field is all-unreachable, so
        // the pruning queries (`flow_reaches`/`washable`) treat it exactly
        // like a port cut off by blocked channels.
        let flow: Vec<Vec<u32>> = chip
            .flow_ports()
            .enumerate()
            .map(|(i, p)| {
                if chip.faults().flow_port_disabled(FlowPortId(i as u32)) {
                    Self::dead_field(chip)
                } else {
                    Self::field(chip, p)
                }
            })
            .collect();
        let waste: Vec<Vec<u32>> = chip
            .waste_ports()
            .enumerate()
            .map(|(i, p)| {
                if chip.faults().waste_port_disabled(WastePortId(i as u32)) {
                    Self::dead_field(chip)
                } else {
                    Self::field(chip, p)
                }
            })
            .collect();
        let n = w as usize * chip.grid().height() as usize;
        let min_over = |fields: &[Vec<u32>]| {
            (0..n)
                .map(|i| fields.iter().map(|f| f[i]).min().unwrap_or(u32::MAX))
                .collect()
        };
        let flow_stamps = vec![0; flow.len()];
        let waste_stamps = vec![0; waste.len()];
        PortReach {
            flow_any: min_over(&flow),
            waste_any: min_over(&waste),
            flow,
            waste,
            width: w,
            generation: 0,
            flow_stamps,
            waste_stamps,
        }
    }

    /// Carries these fields forward across a single fault `delta`, re-running
    /// BFS only for the per-port fields the delta can possibly change.
    /// `chip` is the *mutated* chip (same grid and port table as the chip
    /// these fields were computed for, fault set differing by `delta`).
    ///
    /// The per-field decision rules are exact graph arguments, not
    /// heuristics, so the result is bit-identical to a cold
    /// `compute` on `chip`:
    ///
    /// - blocking cell `c` changes a field only if `c` was reachable in it;
    /// - unblocking `c` changes a field only if some grid neighbor of `c`
    ///   (including the source port itself) was reachable;
    /// - blocking edge `(a, b)` matters only if both endpoints were
    ///   reachable (BFS can never cross into an unreachable endpoint);
    /// - unblocking `(a, b)` matters only if either endpoint was reachable;
    /// - port deltas touch exactly that port's own field (port cells are
    ///   impassable to every other source, so no other field can change).
    ///
    /// Fields the rules exclude are carried verbatim; the generation
    /// counter is bumped and recomputed fields are stamped with it.
    pub fn carry_forward(&self, chip: &Chip, delta: &FaultDelta) -> PortReach {
        use crate::chip::{FlowPortId, WastePortId};
        debug_assert_eq!(self.width, chip.grid().width());
        let mut generation = self.generation.wrapping_add(1);
        let mut flow_stamps = self.flow_stamps.clone();
        let mut waste_stamps = self.waste_stamps.clone();
        if generation == GEN_UNSET {
            // Wraparound: restart stamp history so stale stamps can never
            // collide with the new generation (same discipline as
            // `RouteScratch::bump`).
            flow_stamps.fill(0);
            waste_stamps.fill(0);
            generation = 1;
        }
        let cells_touch = |old: &[u32]| -> bool {
            match *delta {
                FaultDelta::BlockCell(c) => self.at(old, c) != u32::MAX,
                FaultDelta::UnblockCell(c) => chip
                    .grid()
                    .neighbors(c)
                    .any(|n| self.at(old, n) != u32::MAX),
                FaultDelta::BlockEdge(a, b) => {
                    self.at(old, a) != u32::MAX && self.at(old, b) != u32::MAX
                }
                FaultDelta::UnblockEdge(a, b) => {
                    self.at(old, a) != u32::MAX || self.at(old, b) != u32::MAX
                }
                _ => false,
            }
        };
        let flow: Vec<Vec<u32>> = chip
            .flow_ports()
            .enumerate()
            .map(|(i, p)| {
                let recompute = match *delta {
                    FaultDelta::DisableFlowPort(id) | FaultDelta::EnableFlowPort(id) => {
                        id.0 == i as u32
                    }
                    FaultDelta::DisableWastePort(_) | FaultDelta::EnableWastePort(_) => false,
                    _ => cells_touch(&self.flow[i]),
                };
                if recompute {
                    flow_stamps[i] = generation;
                    if chip.faults().flow_port_disabled(FlowPortId(i as u32)) {
                        Self::dead_field(chip)
                    } else {
                        Self::field(chip, p)
                    }
                } else {
                    self.flow[i].clone()
                }
            })
            .collect();
        let waste: Vec<Vec<u32>> = chip
            .waste_ports()
            .enumerate()
            .map(|(i, p)| {
                let recompute = match *delta {
                    FaultDelta::DisableWastePort(id) | FaultDelta::EnableWastePort(id) => {
                        id.0 == i as u32
                    }
                    FaultDelta::DisableFlowPort(_) | FaultDelta::EnableFlowPort(_) => false,
                    _ => cells_touch(&self.waste[i]),
                };
                if recompute {
                    waste_stamps[i] = generation;
                    if chip.faults().waste_port_disabled(WastePortId(i as u32)) {
                        Self::dead_field(chip)
                    } else {
                        Self::field(chip, p)
                    }
                } else {
                    self.waste[i].clone()
                }
            })
            .collect();
        let n = self.width as usize * chip.grid().height() as usize;
        let min_over = |fields: &[Vec<u32>]| {
            (0..n)
                .map(|i| fields.iter().map(|f| f[i]).min().unwrap_or(u32::MAX))
                .collect()
        };
        PortReach {
            flow_any: min_over(&flow),
            waste_any: min_over(&waste),
            flow,
            waste,
            width: self.width,
            generation,
            flow_stamps,
            waste_stamps,
        }
    }

    /// The carry-forward generation (0 after a cold compute).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Per-port fields re-run by the latest carry-forward (0 after a cold
    /// compute: everything was computed, nothing *re*-computed).
    pub fn recomputed_fields(&self) -> usize {
        if self.generation == 0 {
            return 0;
        }
        let g = self.generation;
        self.flow_stamps.iter().filter(|&&s| s == g).count()
            + self.waste_stamps.iter().filter(|&&s| s == g).count()
    }

    /// Per-port fields carried verbatim by the latest carry-forward.
    pub fn carried_fields(&self) -> usize {
        self.flow_stamps.len() + self.waste_stamps.len() - self.recomputed_fields()
    }

    #[cfg(test)]
    fn set_generation(&mut self, g: u32) {
        self.generation = g;
    }

    /// An all-unreachable field (used for disabled ports).
    fn dead_field(chip: &Chip) -> Vec<u32> {
        let n = chip.grid().width() as usize * chip.grid().height() as usize;
        vec![u32::MAX; n]
    }

    /// Single-source BFS from `port` over channel/device cells, respecting
    /// the chip's faults (blocked cells and stuck-closed valves) through
    /// its routing table.
    fn field(chip: &Chip, port: Coord) -> Vec<u32> {
        let w = chip.grid().width() as usize;
        let h = chip.grid().height() as usize;
        let table = chip.neighbor_table();
        let mut dist = vec![u32::MAX; w * h];
        let start = port.y as usize * w + port.x as usize;
        let mut queue: Vec<usize> = vec![start];
        dist[start] = 0;
        let mut head = 0;
        while head < queue.len() {
            let ci = queue[head];
            head += 1;
            let d = dist[ci];
            // Ports other than the source are impassable.
            let mut open = table[ci] & 0xF & !(table[ci] >> 4);
            while open != 0 {
                let ni = step(ci, open.trailing_zeros(), w);
                open &= open - 1;
                if dist[ni] == u32::MAX {
                    dist[ni] = d + 1;
                    queue.push(ni);
                }
            }
        }
        dist
    }

    #[inline]
    fn at(&self, field: &[u32], c: Coord) -> u32 {
        field[c.y as usize * self.width as usize + c.x as usize]
    }

    /// Returns `true` if `cell` is reachable from flow port `p` on the
    /// unblocked chip.
    pub fn flow_reaches(&self, p: usize, cell: Coord) -> bool {
        self.at(&self.flow[p], cell) != u32::MAX
    }

    /// Returns `true` if `cell` can reach waste port `p` on the unblocked
    /// chip.
    pub fn waste_reaches(&self, p: usize, cell: Coord) -> bool {
        self.at(&self.waste[p], cell) != u32::MAX
    }

    /// Returns `true` if `cell` is reachable from at least one flow port
    /// and can reach at least one waste port — the minimum requirement for
    /// any complete wash path through it.
    pub fn washable(&self, cell: Coord) -> bool {
        self.at(&self.flow_any, cell) != u32::MAX && self.at(&self.waste_any, cell) != u32::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChipBuilder;
    use crate::device::DeviceKind;
    use crate::fault::FaultSet;

    fn chip() -> Chip {
        ChipBuilder::new(8, 8)
            .flow_port("in1", Coord::new(0, 3))
            .unwrap()
            .waste_port("out1", Coord::new(7, 3))
            .unwrap()
            .device(
                DeviceKind::Mixer,
                "mixer",
                Coord::new(3, 3),
                Coord::new(4, 3),
            )
            .unwrap()
            .channel(Coord::new(1, 3))
            .unwrap()
            .channel(Coord::new(2, 3))
            .unwrap()
            .channel(Coord::new(5, 3))
            .unwrap()
            .channel(Coord::new(6, 3))
            .unwrap()
            .channel(Coord::new(3, 2))
            .unwrap()
            .channel(Coord::new(3, 1))
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn scratch_route_matches_wrapper() {
        let c = chip();
        let mut s = RouteScratch::for_chip(&c);
        s.load_blocked([]);
        let a = c
            .route_with(&mut s, Coord::new(0, 3), Coord::new(7, 3))
            .unwrap();
        let b = c.route(Coord::new(0, 3), Coord::new(7, 3), &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_is_reusable_across_blocked_sets() {
        let c = chip();
        let mut s = RouteScratch::for_chip(&c);
        s.load_blocked([Coord::new(2, 3)]);
        assert!(c
            .route_with(&mut s, Coord::new(0, 3), Coord::new(7, 3))
            .is_none());
        s.load_blocked([]);
        assert!(c
            .route_with(&mut s, Coord::new(0, 3), Coord::new(7, 3))
            .is_some());
    }

    #[test]
    fn blocked_start_fails_route_but_not_route_via_legs() {
        let c = chip();
        let mut s = RouteScratch::for_chip(&c);
        s.load_blocked([Coord::new(0, 3)]);
        // Plain route from a blocked cell fails (historical semantics)…
        assert!(c
            .route_with(&mut s, Coord::new(0, 3), Coord::new(7, 3))
            .is_none());
        // …but route_via exempts the leg head from the blocked set.
        assert!(c
            .route_via_with(&mut s, Coord::new(0, 3), &[], Coord::new(7, 3))
            .is_some());
    }

    #[test]
    fn port_reach_classifies_cells() {
        let c = chip();
        let r = c.port_reach();
        // Corridor cells are washable; off-network cells are not.
        assert!(r.washable(Coord::new(1, 3)));
        assert!(r.washable(Coord::new(3, 1))); // stub tip: reachable both ways
        assert!(!r.washable(Coord::new(0, 0)));
        assert!(r.flow_reaches(0, Coord::new(6, 3)));
        assert!(r.waste_reaches(0, Coord::new(1, 3)));
    }

    #[test]
    fn single_cell_route_is_identity() {
        let c = chip();
        let mut s = RouteScratch::for_chip(&c);
        s.load_blocked([]);
        let p = Coord::new(0, 3);
        assert_eq!(c.route_with(&mut s, p, p), Some(vec![p]));
        // A via list that already sits on the start collapses the same way.
        assert_eq!(c.route_via_with(&mut s, p, &[p], p), Some(vec![p]));
    }

    #[test]
    fn disconnected_ports_fail_gracefully() {
        // No channel between the ports: every query must return None, never
        // panic, and the scratch must stay reusable afterwards.
        let c = ChipBuilder::new(4, 4)
            .flow_port("in1", Coord::new(0, 1))
            .unwrap()
            .waste_port("out1", Coord::new(3, 1))
            .unwrap()
            .build()
            .unwrap();
        let mut s = RouteScratch::for_chip(&c);
        s.load_blocked([]);
        assert!(c
            .route_with(&mut s, Coord::new(0, 1), Coord::new(3, 1))
            .is_none());
        assert!(c
            .route_via_with(&mut s, Coord::new(0, 1), &[], Coord::new(3, 1))
            .is_none());
        assert_eq!(
            c.route_with(&mut s, Coord::new(0, 1), Coord::new(0, 1)),
            Some(vec![Coord::new(0, 1)])
        );
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let c = chip();
        let mut s = RouteScratch::for_chip(&c);
        s.load_blocked([]);
        let baseline = c
            .route_with(&mut s, Coord::new(0, 3), Coord::new(7, 3))
            .unwrap();
        // Park every epoch one bump away from the UNSET sentinel and fill
        // the stamp arrays with values that would alias the post-wrap epoch
        // (1) if bump() failed to clear them: every cell would then read as
        // visited/blocked/used and routing would break.
        s.visit_epoch = UNSET - 1;
        s.blocked_epoch = UNSET - 1;
        s.used_epoch = UNSET - 1;
        s.stop_epoch = UNSET - 1;
        s.visit.fill(1);
        s.blocked.fill(1);
        s.used.fill(1);
        s.stop.fill(1);
        s.stop_rank.fill(0);
        s.load_blocked([]);
        for _ in 0..3 {
            let p = c
                .route_with(&mut s, Coord::new(0, 3), Coord::new(7, 3))
                .expect("route survives epoch wraparound");
            assert_eq!(p, baseline);
        }
        assert!(s.visit_epoch >= 1 && s.visit_epoch < UNSET);
        assert!(s.blocked_epoch >= 1 && s.blocked_epoch < UNSET);
    }

    #[test]
    fn carry_forward_matches_cold_compute_for_every_delta_kind() {
        use crate::chip::{FlowPortId, WastePortId};
        let base = chip();
        // Chain every delta kind through cumulative fault sets; at each
        // step the carried-forward fields must be bit-identical to a cold
        // compute on the mutated chip.
        let deltas = [
            FaultDelta::BlockCell(Coord::new(2, 3)),
            FaultDelta::BlockEdge(Coord::new(3, 2), Coord::new(3, 1)),
            FaultDelta::DisableFlowPort(FlowPortId(0)),
            FaultDelta::EnableFlowPort(FlowPortId(0)),
            FaultDelta::DisableWastePort(WastePortId(0)),
            FaultDelta::EnableWastePort(WastePortId(0)),
            FaultDelta::UnblockCell(Coord::new(2, 3)),
            FaultDelta::UnblockEdge(Coord::new(3, 1), Coord::new(3, 2)),
        ];
        let mut faults = FaultSet::new();
        let mut cur = base.with_faults(faults.clone()).unwrap();
        let mut reach = cur.port_reach().clone();
        for (step, d) in deltas.iter().enumerate() {
            assert!(d.apply(&mut faults), "step {step}: {d} must change the set");
            let mutated = base.with_faults(faults.clone()).unwrap();
            let carried = reach.carry_forward(&mutated, d);
            assert_eq!(
                carried,
                PortReach::compute(&mutated),
                "step {step} ({d}): carried fields diverge from cold compute"
            );
            assert_eq!(carried.generation(), step as u32 + 1);
            cur = mutated;
            reach = carried;
        }
        // The final chain is fault-free again and matches the pristine chip.
        assert!(cur.faults().is_empty());
        assert_eq!(reach, *base.port_reach());
    }

    #[test]
    fn carry_forward_skips_fields_the_delta_cannot_touch() {
        // A corridor plus an isolated channel island at (6, 6): deltas on
        // the island are invisible to every port field.
        let base = ChipBuilder::new(8, 8)
            .flow_port("in1", Coord::new(0, 3))
            .unwrap()
            .waste_port("out1", Coord::new(7, 3))
            .unwrap()
            .channel(Coord::new(1, 3))
            .unwrap()
            .channel(Coord::new(2, 3))
            .unwrap()
            .channel(Coord::new(3, 3))
            .unwrap()
            .channel(Coord::new(4, 3))
            .unwrap()
            .channel(Coord::new(5, 3))
            .unwrap()
            .channel(Coord::new(6, 3))
            .unwrap()
            .channel(Coord::new(6, 6))
            .unwrap()
            .build()
            .unwrap();
        let reach = base.port_reach().clone();

        let d = FaultDelta::BlockCell(Coord::new(6, 6));
        let mut faults = FaultSet::new();
        d.apply(&mut faults);
        let mutated = base.with_faults(faults).unwrap();
        let carried = reach.carry_forward(&mutated, &d);
        assert_eq!(carried, PortReach::compute(&mutated));
        assert_eq!(carried.recomputed_fields(), 0, "island block is invisible");
        assert_eq!(carried.carried_fields(), 2);

        // A waste-port delta re-runs exactly that port's field.
        use crate::chip::WastePortId;
        let d = FaultDelta::DisableWastePort(WastePortId(0));
        let mut faults = FaultSet::new();
        d.apply(&mut faults);
        let mutated = base.with_faults(faults).unwrap();
        let carried = reach.carry_forward(&mutated, &d);
        assert_eq!(carried, PortReach::compute(&mutated));
        assert_eq!(carried.recomputed_fields(), 1);
        assert_eq!(carried.carried_fields(), 1);

        // Blocking a corridor cell re-runs both fields.
        let d = FaultDelta::BlockCell(Coord::new(4, 3));
        let mut faults = FaultSet::new();
        d.apply(&mut faults);
        let mutated = base.with_faults(faults).unwrap();
        let carried = reach.carry_forward(&mutated, &d);
        assert_eq!(carried, PortReach::compute(&mutated));
        assert_eq!(carried.recomputed_fields(), 2);
    }

    #[test]
    fn reach_generation_wraparound_resets_stamps() {
        let base = chip();
        let mut reach = base.port_reach().clone();
        // Park the generation one bump away from the sentinel and fill the
        // stamps with 1 — the value that aliases the post-wrap generation.
        // If carry_forward failed to clear them, a fully-carried step would
        // falsely report every field as freshly recomputed.
        reach.set_generation(GEN_UNSET - 1);
        reach.flow_stamps.fill(1);
        reach.waste_stamps.fill(1);
        let d = FaultDelta::BlockCell(Coord::new(0, 0)); // empty cell: invisible
        let mut faults = FaultSet::new();
        d.apply(&mut faults);
        let mutated = base.with_faults(faults).unwrap();
        let carried = reach.carry_forward(&mutated, &d);
        assert_eq!(carried.generation(), 1, "counter skips the sentinel");
        assert_eq!(carried.recomputed_fields(), 0, "stale stamps were cleared");
        assert_eq!(carried.carried_fields(), 2);
        assert_eq!(carried, PortReach::compute(&mutated));
        // The next bump proceeds normally from the post-wrap epoch.
        let d = FaultDelta::UnblockCell(Coord::new(0, 0));
        let pristine = base.with_faults(FaultSet::new()).unwrap();
        let next = carried.carry_forward(&pristine, &d);
        assert_eq!(next.generation(), 2);
        assert_eq!(next, PortReach::compute(&pristine));
    }

    #[test]
    fn pool_reuses_fitting_scratches_and_grows_on_demand() {
        let c = chip();
        let pool = ScratchPool::for_chip(&c);
        assert_eq!(pool.available(), 1);
        {
            let mut a = pool.checkout(&c);
            assert_eq!(pool.available(), 0);
            let _ = c.route_with(&mut a, Coord::new(0, 3), Coord::new(7, 3));
            // Concurrent demand allocates a second scratch.
            let _b = pool.checkout(&c);
            assert_eq!(pool.available(), 0);
        }
        // Both guards returned their scratches.
        assert_eq!(pool.available(), 2);
        // A warm checkout routes identically to a cold scratch.
        let mut warm = pool.checkout(&c);
        warm.load_blocked([]);
        let via_pool = c
            .route_with(&mut warm, Coord::new(0, 3), Coord::new(7, 3))
            .unwrap();
        let cold = c.route(Coord::new(0, 3), Coord::new(7, 3), &[]).unwrap();
        assert_eq!(via_pool, cold);
    }

    #[test]
    fn pool_allocates_fresh_scratch_for_a_different_grid() {
        let small = chip();
        let big = ChipBuilder::new(12, 12)
            .flow_port("in1", Coord::new(0, 5))
            .unwrap()
            .waste_port("out1", Coord::new(11, 5))
            .unwrap()
            .build()
            .unwrap();
        let pool = ScratchPool::for_chip(&small);
        {
            let s = pool.checkout(&big);
            assert!(s.fits(&big));
            // The small scratch stayed pooled; the big one was fresh.
            assert_eq!(pool.available(), 1);
        }
        assert_eq!(pool.available(), 2);
        let s = pool.checkout(&small);
        assert!(s.fits(&small));
    }

    #[test]
    fn counters_advance() {
        let c = chip();
        let before = counters();
        let _ = c.route(Coord::new(0, 3), Coord::new(7, 3), &[]);
        let after = counters();
        assert!(after.route_calls > before.route_calls);
        assert!(after.bfs_runs > before.bfs_runs);
    }

    #[test]
    fn with_faults_on_a_built_table_routes_around_the_new_fault() {
        // Two corridors from in (0, 1) to out (4, 1): row 1, and a detour
        // over row 0 joining it at columns 1 and 3.
        let mut b = ChipBuilder::new(5, 3)
            .flow_port("in", Coord::new(0, 1))
            .unwrap()
            .waste_port("out", Coord::new(4, 1))
            .unwrap();
        for c in [(1, 1), (2, 1), (3, 1), (1, 0), (2, 0), (3, 0)] {
            b = b.channel(Coord::new(c.0, c.1)).unwrap();
        }
        let c = b.build().unwrap();
        let (from, to) = (Coord::new(0, 1), Coord::new(4, 1));
        let straight: Vec<Coord> = (0..5).map(|x| Coord::new(x, 1)).collect();
        // Routing builds the pristine chip's table before the faults exist.
        assert_eq!(c.route(from, to, &[]), Some(straight.clone()));
        let detour = [(0, 1), (1, 1), (1, 0), (2, 0), (3, 0), (3, 1), (4, 1)]
            .map(|(x, y)| Coord::new(x, y))
            .to_vec();

        let mut clogged = FaultSet::new();
        clogged.block_cell(Coord::new(2, 1));
        let f = c.with_faults(clogged).unwrap();
        assert_eq!(f.route(from, to, &[]), Some(detour.clone()));

        let mut stuck = FaultSet::new();
        stuck.block_edge(Coord::new(3, 1), Coord::new(2, 1));
        let f = c.with_faults(stuck).unwrap();
        let path = f.route(from, to, &[]).expect("the detour stays open");
        assert!(path
            .windows(2)
            .all(|w| !f.faults().edge_blocked(w[0], w[1])));
        assert_eq!(path.len(), detour.len());

        let mut closed = FaultSet::new();
        closed.disable_waste_port(crate::chip::WastePortId(0));
        assert_eq!(c.with_faults(closed).unwrap().route(from, to, &[]), None);
        // The pristine chip's table is untouched by its faulted copies.
        assert_eq!(c.route(from, to, &[]), Some(straight));
    }

    /// `route_via` as a plain BFS that asks the chip, per neighbor, whether
    /// the cell is passable and the valve between the two cells open: the
    /// semantics the routing table encodes, visit order (and so every
    /// path) included. Each stop ranks by its last position in `via ++
    /// [to]`; a leg may not enter a stop ranked after it, a blocked cell or
    /// a cell an earlier leg used (its own start excepted).
    fn reference_route_via(
        chip: &Chip,
        blocked: &[Coord],
        from: Coord,
        via: &[Coord],
        to: Coord,
    ) -> Option<Vec<Coord>> {
        use std::collections::{HashMap, VecDeque};
        let stops: HashMap<Coord, usize> = via.iter().chain([&to]).copied().zip(0..).collect();
        let mut path: Vec<Coord> = Vec::new();
        let mut cur = from;
        for (k, &stop) in via.iter().chain([&to]).enumerate() {
            if stop == cur {
                if path.is_empty() {
                    path.push(cur);
                }
                continue;
            }
            let barred = |c: Coord| {
                ((blocked.contains(&c) || path.contains(&c)) && c != cur)
                    || stops.get(&c).is_some_and(|&r| r > k)
            };
            if !chip.passable(cur, cur, cur) || barred(cur) {
                return None;
            }
            let mut prev: HashMap<Coord, Coord> = HashMap::from([(cur, cur)]);
            let mut queue = VecDeque::from([cur]);
            'bfs: while let Some(c) = queue.pop_front() {
                for n in chip.grid().neighbors(c) {
                    if prev.contains_key(&n) || barred(n) {
                        continue;
                    }
                    let dst = if n == stop { n } else { cur };
                    if !chip.passable(n, cur, dst) || !chip.edge_passable(c, n) {
                        continue;
                    }
                    prev.insert(n, c);
                    if n == stop {
                        break 'bfs;
                    }
                    queue.push_back(n);
                }
            }
            prev.get(&stop)?;
            let mark = path.len();
            let mut c = stop;
            while c != cur {
                path.push(c);
                c = prev[&c];
            }
            if mark == 0 {
                path.push(cur);
            }
            path[mark..].reverse();
            cur = stop;
        }
        Some(path)
    }

    /// A random chip for the fan property: a `w × h` grid whose ports sit
    /// on distinct boundary cells drawn by `next`, every other cell a
    /// channel unless `cells` paints it empty, with blocked cells,
    /// stuck-closed edges and maybe a disabled waste port as faults.
    /// Returns the chip and its flow and waste port cells.
    fn fan_chip(
        (w, h): (u16, u16),
        cells: &[u8],
        next: &mut impl FnMut(usize) -> usize,
    ) -> (Chip, Vec<Coord>, Vec<Coord>) {
        use crate::chip::WastePortId;
        let mut free: Vec<Coord> = (0..h)
            .flat_map(|y| (0..w).map(move |x| Coord::new(x, y)))
            .filter(|c| c.x == 0 || c.y == 0 || c.x == w - 1 || c.y == h - 1)
            .collect();
        let (n_flow, n_waste) = (1 + next(2), 2 + next(3));
        let mut b = ChipBuilder::new(w, h);
        let (mut flows, mut wastes) = (Vec::new(), Vec::new());
        for i in 0..n_flow + n_waste {
            let c = free.swap_remove(next(free.len()));
            if i < n_flow {
                b = b.flow_port(&format!("in{i}"), c).unwrap();
                flows.push(c);
            } else {
                b = b.waste_port(&format!("out{i}"), c).unwrap();
                wastes.push(c);
            }
        }
        for y in 0..h {
            for x in 0..w {
                let c = Coord::new(x, y);
                let i = y as usize * w as usize + x as usize;
                if !flows.contains(&c) && !wastes.contains(&c) && cells[i % cells.len()] < 8 {
                    b = b.channel(c).unwrap();
                }
            }
        }
        let mut faults = FaultSet::new();
        for _ in 0..next(3) {
            faults.block_cell(Coord::new(next(w as usize) as u16, next(h as usize) as u16));
        }
        for _ in 0..next(4) {
            let a = Coord::new(next(w as usize - 1) as u16, next(h as usize) as u16);
            faults.block_edge(a, Coord::new(a.x + 1, a.y));
        }
        if next(3) == 0 {
            faults.disable_waste_port(WastePortId(next(n_waste) as u32));
        }
        let chip = b.build().unwrap().with_faults(faults).unwrap();
        (chip, flows, wastes)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The fan hands `each` exactly the paths `route_via_with` returns
        /// for each routable `to`, in `tos` order, and nothing after `each`
        /// returns `true`. Via lists cover empty, random cells, a last via
        /// cell that is also a `to`, and `from` repeated with `from` among
        /// the `tos`.
        #[test]
        fn fan_matches_per_target_routing(
            dims in (4u16..=8, 4u16..=8),
            cells in proptest::collection::vec(0u8..10, 64),
            picks in proptest::collection::vec(0u16..1024, 32),
            mode in 0u8..4,
            stop_after in 0usize..5,
        ) {
            let mut pick = picks.iter().cycle();
            let mut next = |n: usize| *pick.next().unwrap() as usize % n.max(1);
            let (chip, flows, wastes) = fan_chip(dims, &cells, &mut next);
            let (w, h) = (dims.0 as usize, dims.1 as usize);
            let cell = |next: &mut dyn FnMut(usize) -> usize| {
                Coord::new(next(w) as u16, next(h) as u16)
            };
            let blocked: Vec<Coord> = (0..next(3)).map(|_| cell(&mut next)).collect();
            let from = flows[next(flows.len())];
            let mut via: Vec<Coord> = (0..next(5)).map(|_| cell(&mut next)).collect();
            let mut tos = wastes.clone();
            let (turn, at) = (next(tos.len()), next(tos.len() + 1));
            tos.rotate_left(turn);
            match mode {
                1 => via.push(wastes[next(wastes.len())]),
                2 => {
                    via = vec![from; next(3)];
                    tos.insert(at, from);
                }
                3 => tos.insert(at, flows[next(flows.len())]),
                _ => {}
            }

            let mut s = RouteScratch::for_chip(&chip);
            s.load_blocked(blocked.iter().copied());
            let mut want: Vec<(usize, Vec<Coord>)> = tos
                .iter()
                .enumerate()
                .filter_map(|(i, &to)| chip.route_via_with(&mut s, from, &via, to).map(|p| (i, p)))
                .collect();
            if stop_after > 0 {
                want.truncate(stop_after);
            }
            let mut got = Vec::new();
            chip.route_via_fan_with(&mut s, from, &via, &tos, |i, p| {
                got.push((i, p.to_vec()));
                got.len() == stop_after
            });
            proptest::prop_assert_eq!(got, want);
        }

        /// Routing through the chip's neighbor table returns exactly the
        /// paths of a BFS that asks `passable`/`edge_passable` per
        /// neighbor, on random grids with clogged cells, stuck valves,
        /// disabled ports, blocked sets, cells used by earlier legs and
        /// pending stops; endpoints and stops may be ports, channels or
        /// empty cells.
        #[test]
        fn table_routes_match_reference_bfs(
            dims in (4u16..=8, 4u16..=8),
            cells in proptest::collection::vec(0u8..10, 64),
            picks in proptest::collection::vec(0u16..1024, 32),
        ) {
            use crate::chip::FlowPortId;
            let mut pick = picks.iter().cycle();
            let mut next = |n: usize| *pick.next().unwrap() as usize % n.max(1);
            let (chip, flows, wastes) = fan_chip(dims, &cells, &mut next);
            let chip = if next(3) == 0 {
                let mut faults = chip.faults().clone();
                faults.disable_flow_port(FlowPortId(next(flows.len()) as u32));
                chip.with_faults(faults).unwrap()
            } else {
                chip
            };
            let (w, h) = (dims.0 as usize, dims.1 as usize);
            let ports = [&flows[..], &wastes[..]].concat();
            // A grid cell, or one of `ports` one time in four.
            let cell = |ports: &[Coord], next: &mut dyn FnMut(usize) -> usize| match next(4) {
                0 if !ports.is_empty() => ports[next(ports.len())],
                _ => Coord::new(next(w) as u16, next(h) as u16),
            };
            let blocked: Vec<Coord> = (0..next(4)).map(|_| cell(&[], &mut next)).collect();
            let from = match next(2) {
                0 => flows[next(flows.len())],
                _ => cell(&ports, &mut next),
            };
            let via: Vec<Coord> = (0..next(5)).map(|_| cell(&ports, &mut next)).collect();
            let to = match next(2) {
                0 => wastes[next(wastes.len())],
                _ => cell(&ports, &mut next),
            };

            let mut s = RouteScratch::for_chip(&chip);
            s.load_blocked(blocked.iter().copied());
            proptest::prop_assert_eq!(
                chip.route_via_with(&mut s, from, &via, to),
                reference_route_via(&chip, &blocked, from, &via, to)
            );
            let plain = (chip.passable(from, from, to) && !blocked.contains(&from))
                .then(|| reference_route_via(&chip, &blocked, from, &[], to))
                .flatten();
            proptest::prop_assert_eq!(chip.route_with(&mut s, from, to), plain);
        }
    }
}
