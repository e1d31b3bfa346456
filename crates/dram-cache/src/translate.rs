//! Request → DRAM-access translation state machines (paper Fig 2).
//!
//! A DRAM-cache request cannot be expanded into accesses up front: the
//! tag read must *complete* before the design knows whether a read hit
//! (data read + replacement-bit tag write follow) or missed (go to main
//! memory), and before a writeback knows its victim. [`RequestFsm`]
//! models exactly this dependency structure:
//!
//! * **Set-associative read**: `RTr` → (hit) `RDr` + `WTr`, or (miss)
//!   respond-miss. Three accesses on a hit, one on a miss.
//! * **Set-associative writeback/refill**: `RTw` → (hit) `WDw` + `WTw`;
//!   (miss, dirty victim) `RDw` → `WDw` + `WTw` and the victim's data
//!   goes to main memory; (miss, clean victim) `WDw` + `WTw`.
//! * **Direct-mapped read**: one fused `TAD` read; hit answers directly,
//!   miss responds-miss.
//! * **Direct-mapped writeback/refill**: `TAD` read (tag check + victim
//!   capture in the same burst) → `TAD` write.
//!
//! The FSM also carries the DCA classification: every read access of a
//! demand-read request is a priority read (PR); every read access of a
//! writeback/refill is a low-priority read (LR) — §IV-B.

use dca_dram::{AccessKind, BurstLen, DramAccess};
use dca_sched::ReadClass;

use crate::geometry::{BlockPlace, CacheGeometry, OrgKind};
use crate::request::{CacheReqKind, CacheRequest};
use crate::tags::TagArray;

/// What role an access plays within its request (paper Fig 2 labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessRole {
    /// RT: tag-block read (set-associative).
    TagRead,
    /// RD: data read for a read hit.
    DataRead,
    /// WT: tag write (replacement bits / tag install).
    TagWrite,
    /// WD: data write (writeback or refill data).
    DataWrite,
    /// RDw: dirty-victim data read on a writeback/refill miss.
    VictimRead,
    /// Fused tag+data read (direct-mapped).
    TadRead,
    /// Fused tag+data write (direct-mapped).
    TadWrite,
}

/// An access the controller should enqueue, with its scheduling metadata.
#[derive(Clone, Copy, Debug)]
pub struct AccessSpec {
    /// The DRAM access.
    pub access: dca_dram::DramAccess,
    /// Role within the request.
    pub role: AccessRole,
    /// DCA read classification (PR for demand-read reads, LR otherwise).
    pub class: ReadClass,
}

/// Most accesses one FSM step enqueues: a data access plus its tag
/// write (set-associative hit, or the write half of a writeback).
pub const MAX_STEP_ACCESSES: usize = 2;

/// The accesses one FSM step enqueues, stored inline (a step completes
/// on every DRAM-cache access, so it must not allocate). Derefs to a
/// slice of the pushed accesses.
#[derive(Clone, Copy)]
pub struct AccessList {
    len: u8,
    items: [AccessSpec; MAX_STEP_ACCESSES],
}

impl AccessList {
    /// Filler for the unused slots; never read.
    const VACANT: AccessSpec = AccessSpec {
        access: DramAccess {
            bank: 0,
            row: 0,
            kind: AccessKind::Read,
            burst: BurstLen::Block64,
        },
        role: AccessRole::TagRead,
        class: ReadClass::Priority,
    };

    /// Append `spec`.
    ///
    /// # Panics
    /// Panics past [`MAX_STEP_ACCESSES`] accesses.
    pub fn push(&mut self, spec: AccessSpec) {
        let n = self.len as usize;
        assert!(
            n < MAX_STEP_ACCESSES,
            "an FSM step enqueues at most {MAX_STEP_ACCESSES} accesses"
        );
        self.items[n] = spec;
        self.len += 1;
    }
}

impl Default for AccessList {
    fn default() -> Self {
        AccessList {
            len: 0,
            items: [Self::VACANT; MAX_STEP_ACCESSES],
        }
    }
}

impl std::ops::Deref for AccessList {
    type Target = [AccessSpec];

    fn deref(&self) -> &[AccessSpec] {
        &self.items[..self.len as usize]
    }
}

impl std::fmt::Debug for AccessList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for AccessList {
    type Item = AccessSpec;
    type IntoIter = std::iter::Take<std::array::IntoIter<AccessSpec, MAX_STEP_ACCESSES>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len as usize)
    }
}

/// Everything a completed FSM step tells the controller to do.
#[derive(Clone, Debug, Default)]
pub struct FsmOutput {
    /// Accesses to enqueue now.
    pub enqueue: AccessList,
    /// Read data is available — answer the demand read.
    pub respond_hit: bool,
    /// The read missed — the requester must fetch from main memory.
    pub respond_miss: bool,
    /// A dirty victim with this block address must be written to main
    /// memory.
    pub evict_dirty: Option<u64>,
    /// The request has fully completed (all its accesses done).
    pub done: bool,
    /// Set when the tag check resolved: `Some(true)` hit, `Some(false)`
    /// miss. Feeds the MAP-I predictor update.
    pub hit_known: Option<bool>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    AwaitTag,
    AwaitVictimRead,
    Draining,
    Done,
}

/// The per-request translation state machine.
#[derive(Clone, Debug)]
pub struct RequestFsm {
    req: CacheRequest,
    place: BlockPlace,
    state: State,
    /// Accesses issued but not yet completed.
    outstanding: u8,
    hit: Option<bool>,
    /// Pending writes to enqueue once the victim read completes.
    deferred_writes: bool,
    /// Victim block address to evict once its data has been read.
    pending_victim: Option<u64>,
}

impl RequestFsm {
    /// Start a request: returns the FSM and the initial access to
    /// enqueue (always exactly the tag/TAD read).
    pub fn start(req: CacheRequest, geom: &CacheGeometry) -> (RequestFsm, AccessSpec) {
        let place = geom.place(req.block);
        let class = if req.kind.is_demand_read() {
            ReadClass::Priority
        } else {
            ReadClass::LowPriority
        };
        let first = match geom.kind() {
            OrgKind::SetAssoc { .. } => AccessSpec {
                access: geom.tag_access(&place, AccessKind::Read),
                role: AccessRole::TagRead,
                class,
            },
            OrgKind::DirectMapped => AccessSpec {
                access: geom.tad_access(&place, AccessKind::Read),
                role: AccessRole::TadRead,
                class,
            },
        };
        (
            RequestFsm {
                req,
                place,
                state: State::AwaitTag,
                outstanding: 1,
                hit: None,
                deferred_writes: false,
                pending_victim: None,
            },
            first,
        )
    }

    /// The request this FSM serves.
    pub fn request(&self) -> &CacheRequest {
        &self.req
    }

    /// The block's cache placement.
    pub fn place(&self) -> &BlockPlace {
        &self.place
    }

    /// Whether the tag check has resolved, and how.
    pub fn hit(&self) -> Option<bool> {
        self.hit
    }

    /// Reconstruct a victim's block address from its tag.
    fn victim_block(&self, geom: &CacheGeometry, victim_tag: u32) -> u64 {
        victim_tag as u64 * geom.num_sets() + self.place.set
    }

    /// Drive the FSM: one of this request's accesses (`role`) completed.
    ///
    /// `tags` is the functional tag array — mutated here at tag-resolution
    /// time (the timing of the corresponding tag-write access is tracked
    /// separately by the controller's queues).
    pub fn on_access_done(
        &mut self,
        role: AccessRole,
        tags: &mut TagArray,
        geom: &CacheGeometry,
    ) -> FsmOutput {
        assert!(
            self.outstanding > 0,
            "completion with no outstanding access"
        );
        self.outstanding -= 1;
        let mut out = FsmOutput::default();

        match (self.state, role) {
            (State::AwaitTag, AccessRole::TagRead) | (State::AwaitTag, AccessRole::TadRead) => {
                self.resolve_tag(&mut out, tags, geom);
            }
            (State::AwaitVictimRead, AccessRole::VictimRead) => {
                // Victim data now read; release it to main memory and let
                // the deferred writes proceed.
                out.evict_dirty = self.pending_victim.take();
                debug_assert!(out.evict_dirty.is_some());
                if self.deferred_writes {
                    self.deferred_writes = false;
                    self.push_writes(&mut out, geom);
                }
                self.state = State::Draining;
            }
            (State::Draining, AccessRole::DataRead) => {
                // Demand-read data arrived.
                out.respond_hit = true;
            }
            (State::Draining, _) => {
                // Tag/data writes completing; nothing functional to do.
            }
            (state, role) => {
                unreachable!("unexpected completion {role:?} in state {state:?}")
            }
        }

        if self.outstanding == 0 && self.state == State::Draining {
            self.state = State::Done;
            out.done = true;
        }
        // Queue the freshly enqueued accesses into the outstanding count.
        self.outstanding += out.enqueue.len() as u8;
        if !out.enqueue.is_empty() && self.state == State::Done {
            // New work revives the request.
            self.state = State::Draining;
            out.done = false;
        }
        out
    }

    /// Handle tag-check resolution for all request kinds.
    fn resolve_tag(&mut self, out: &mut FsmOutput, tags: &mut TagArray, geom: &CacheGeometry) {
        let set = self.place.set;
        let tag = self.place.tag;
        let lookup = tags.lookup(set, tag);
        let is_dm = matches!(geom.kind(), OrgKind::DirectMapped);

        match self.req.kind {
            CacheReqKind::Read => match lookup {
                Some(way) => {
                    self.hit = Some(true);
                    out.hit_known = Some(true);
                    tags.touch(set, way);
                    if is_dm {
                        // TAD read already returned the data.
                        out.respond_hit = true;
                        self.state = State::Draining;
                    } else {
                        // Data read (PR) + replacement-bit tag write.
                        out.enqueue.push(AccessSpec {
                            access: geom.data_access(&self.place, way, AccessKind::Read),
                            role: AccessRole::DataRead,
                            class: ReadClass::Priority,
                        });
                        out.enqueue.push(AccessSpec {
                            access: geom.tag_access(&self.place, AccessKind::Write),
                            role: AccessRole::TagWrite,
                            class: ReadClass::LowPriority,
                        });
                        self.state = State::Draining;
                    }
                }
                None => {
                    self.hit = Some(false);
                    out.hit_known = Some(false);
                    out.respond_miss = true;
                    self.state = State::Draining;
                }
            },
            CacheReqKind::Writeback | CacheReqKind::Refill => {
                let install_dirty = matches!(self.req.kind, CacheReqKind::Writeback);
                match lookup {
                    Some(way) => {
                        self.hit = Some(true);
                        out.hit_known = Some(true);
                        tags.touch(set, way);
                        if install_dirty {
                            tags.set_dirty(set, way, true);
                        }
                        self.state = State::Draining;
                        self.push_writes(out, geom);
                    }
                    None => {
                        self.hit = Some(false);
                        out.hit_known = Some(false);
                        let outcome = tags.insert(set, tag, install_dirty);
                        match outcome.evicted {
                            Some((victim_tag, true)) => {
                                // Dirty victim: its data must be read out
                                // before the new data overwrites the slot.
                                let victim_block = self.victim_block(geom, victim_tag);
                                self.pending_victim = Some(victim_block);
                                if is_dm {
                                    // The TAD read already carried the
                                    // victim's data — no extra access.
                                    out.evict_dirty = self.pending_victim.take();
                                    self.state = State::Draining;
                                    self.push_writes(out, geom);
                                } else {
                                    out.enqueue.push(AccessSpec {
                                        access: geom.data_access(
                                            &self.place,
                                            outcome.way,
                                            AccessKind::Read,
                                        ),
                                        role: AccessRole::VictimRead,
                                        class: ReadClass::LowPriority,
                                    });
                                    self.deferred_writes = true;
                                    self.state = State::AwaitVictimRead;
                                }
                            }
                            _ => {
                                // Clean or no victim: write straight away.
                                self.state = State::Draining;
                                self.push_writes(out, geom);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Enqueue the write half of a writeback/refill.
    fn push_writes(&self, out: &mut FsmOutput, geom: &CacheGeometry) {
        match geom.kind() {
            OrgKind::SetAssoc { .. } => {
                out.enqueue.push(AccessSpec {
                    access: geom.data_access(&self.place, 0, AccessKind::Write),
                    role: AccessRole::DataWrite,
                    class: ReadClass::LowPriority,
                });
                out.enqueue.push(AccessSpec {
                    access: geom.tag_access(&self.place, AccessKind::Write),
                    role: AccessRole::TagWrite,
                    class: ReadClass::LowPriority,
                });
            }
            OrgKind::DirectMapped => {
                out.enqueue.push(AccessSpec {
                    access: geom.tad_access(&self.place, AccessKind::Write),
                    role: AccessRole::TadWrite,
                    class: ReadClass::LowPriority,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_dram::MappingScheme;

    fn sa_geom() -> CacheGeometry {
        CacheGeometry::paper(OrgKind::paper_set_assoc(), MappingScheme::Direct)
    }

    fn dm_geom() -> CacheGeometry {
        CacheGeometry::paper(OrgKind::DirectMapped, MappingScheme::Direct)
    }

    fn read_req(block: u64) -> CacheRequest {
        CacheRequest {
            id: 1,
            kind: CacheReqKind::Read,
            block,
            app: 0,
            pc: 0x400,
        }
    }

    fn wb_req(block: u64) -> CacheRequest {
        CacheRequest {
            id: 2,
            kind: CacheReqKind::Writeback,
            block,
            app: 0,
            pc: 0,
        }
    }

    fn refill_req(block: u64) -> CacheRequest {
        CacheRequest {
            id: 3,
            kind: CacheReqKind::Refill,
            block,
            app: 0,
            pc: 0,
        }
    }

    fn drive_to_done(
        fsm: &mut RequestFsm,
        first: AccessSpec,
        tags: &mut TagArray,
        geom: &CacheGeometry,
    ) -> (Vec<AccessRole>, Vec<FsmOutput>) {
        // Complete accesses FIFO, collecting roles and outputs.
        let mut pending: Vec<AccessSpec> = vec![first];
        let mut roles = Vec::new();
        let mut outs = Vec::new();
        let mut guard = 0;
        while !pending.is_empty() {
            guard += 1;
            assert!(guard < 32, "fsm did not terminate");
            let spec = pending.remove(0);
            roles.push(spec.role);
            let out = fsm.on_access_done(spec.role, tags, geom);
            pending.extend(out.enqueue.iter().copied());
            outs.push(out);
        }
        assert!(outs.last().unwrap().done, "last completion must finish fsm");
        (roles, outs)
    }

    #[test]
    fn sa_read_miss_is_one_access() {
        let geom = sa_geom();
        let mut tags = TagArray::new(geom.num_sets(), 15);
        let (mut fsm, first) = RequestFsm::start(read_req(100), &geom);
        assert_eq!(first.role, AccessRole::TagRead);
        assert_eq!(first.class, ReadClass::Priority);
        let (roles, outs) = drive_to_done(&mut fsm, first, &mut tags, &geom);
        assert_eq!(roles, vec![AccessRole::TagRead]);
        assert!(outs[0].respond_miss);
        assert_eq!(outs[0].hit_known, Some(false));
    }

    #[test]
    fn sa_read_hit_is_three_accesses() {
        let geom = sa_geom();
        let mut tags = TagArray::new(geom.num_sets(), 15);
        let p = geom.place(100);
        tags.insert(p.set, p.tag, false);
        let (mut fsm, first) = RequestFsm::start(read_req(100), &geom);
        let (roles, outs) = drive_to_done(&mut fsm, first, &mut tags, &geom);
        assert_eq!(
            roles,
            vec![
                AccessRole::TagRead,
                AccessRole::DataRead,
                AccessRole::TagWrite
            ]
        );
        assert!(outs[1].respond_hit, "data read completion answers the read");
        assert_eq!(outs[0].hit_known, Some(true));
        // Data read is PR, the replacement-bit write rides low priority.
        assert_eq!(fsm.hit(), Some(true));
    }

    #[test]
    fn sa_writeback_hit_updates_in_place() {
        let geom = sa_geom();
        let mut tags = TagArray::new(geom.num_sets(), 15);
        let p = geom.place(100);
        tags.insert(p.set, p.tag, false);
        let (mut fsm, first) = RequestFsm::start(wb_req(100), &geom);
        assert_eq!(first.class, ReadClass::LowPriority, "RTw is an LR");
        let (roles, outs) = drive_to_done(&mut fsm, first, &mut tags, &geom);
        assert_eq!(
            roles,
            vec![
                AccessRole::TagRead,
                AccessRole::DataWrite,
                AccessRole::TagWrite
            ]
        );
        assert!(outs.iter().all(|o| o.evict_dirty.is_none()));
        assert!(tags.is_dirty(p.set, tags.lookup(p.set, p.tag).unwrap()));
    }

    #[test]
    fn sa_writeback_miss_with_dirty_victim_reads_victim_first() {
        let geom = sa_geom();
        let mut tags = TagArray::new(geom.num_sets(), 15);
        let p = geom.place(100);
        // Fill the whole set with dirty blocks so insertion evicts dirty.
        for w in 0..15u64 {
            let block = 100 + (w + 1) * geom.num_sets();
            let q = geom.place(block);
            assert_eq!(q.set, p.set);
            tags.insert(q.set, q.tag, true);
        }
        let (mut fsm, first) = RequestFsm::start(wb_req(100), &geom);
        let (roles, outs) = drive_to_done(&mut fsm, first, &mut tags, &geom);
        assert_eq!(
            roles,
            vec![
                AccessRole::TagRead,
                AccessRole::VictimRead,
                AccessRole::DataWrite,
                AccessRole::TagWrite
            ]
        );
        let evicts: Vec<u64> = outs.iter().filter_map(|o| o.evict_dirty).collect();
        assert_eq!(evicts.len(), 1);
        // The evicted block maps back to the same set.
        assert_eq!(geom.place(evicts[0]).set, p.set);
        // VictimRead must be an LR — this is precisely the access class
        // whose scheduling the paper is about.
        assert_eq!(
            outs[0].enqueue[0].class,
            ReadClass::LowPriority,
            "victim read is low priority"
        );
    }

    #[test]
    fn sa_refill_installs_clean() {
        let geom = sa_geom();
        let mut tags = TagArray::new(geom.num_sets(), 15);
        let (mut fsm, first) = RequestFsm::start(refill_req(500), &geom);
        let (roles, _) = drive_to_done(&mut fsm, first, &mut tags, &geom);
        assert_eq!(
            roles,
            vec![
                AccessRole::TagRead,
                AccessRole::DataWrite,
                AccessRole::TagWrite
            ]
        );
        let p = geom.place(500);
        let way = tags.lookup(p.set, p.tag).unwrap();
        assert!(!tags.is_dirty(p.set, way), "refill data is clean");
    }

    #[test]
    fn dm_read_hit_is_single_access() {
        let geom = dm_geom();
        let mut tags = TagArray::new(geom.num_sets(), 1);
        let p = geom.place(100);
        tags.insert(p.set, p.tag, false);
        let (mut fsm, first) = RequestFsm::start(read_req(100), &geom);
        assert_eq!(first.role, AccessRole::TadRead);
        let (roles, outs) = drive_to_done(&mut fsm, first, &mut tags, &geom);
        assert_eq!(roles, vec![AccessRole::TadRead]);
        assert!(outs[0].respond_hit);
        assert!(outs[0].done);
    }

    #[test]
    fn dm_read_miss_single_access() {
        let geom = dm_geom();
        let mut tags = TagArray::new(geom.num_sets(), 1);
        let (mut fsm, first) = RequestFsm::start(read_req(100), &geom);
        let (_, outs) = drive_to_done(&mut fsm, first, &mut tags, &geom);
        assert!(outs[0].respond_miss);
    }

    #[test]
    fn dm_writeback_miss_dirty_victim_needs_no_extra_read() {
        let geom = dm_geom();
        let mut tags = TagArray::new(geom.num_sets(), 1);
        let p = geom.place(100);
        // Occupy the slot with a dirty block of a different tag.
        let other = 100 + geom.num_sets();
        let q = geom.place(other);
        assert_eq!(q.set, p.set);
        tags.insert(q.set, q.tag, true);
        let (mut fsm, first) = RequestFsm::start(wb_req(100), &geom);
        let (roles, outs) = drive_to_done(&mut fsm, first, &mut tags, &geom);
        // TAD read carried the victim: straight to the TAD write.
        assert_eq!(roles, vec![AccessRole::TadRead, AccessRole::TadWrite]);
        let evicts: Vec<u64> = outs.iter().filter_map(|o| o.evict_dirty).collect();
        assert_eq!(evicts, vec![other]);
    }

    #[test]
    fn dm_refill_after_read_miss_makes_future_hits() {
        let geom = dm_geom();
        let mut tags = TagArray::new(geom.num_sets(), 1);
        let (mut fsm, first) = RequestFsm::start(refill_req(100), &geom);
        drive_to_done(&mut fsm, first, &mut tags, &geom);
        let (mut fsm2, first2) = RequestFsm::start(read_req(100), &geom);
        let (_, outs) = drive_to_done(&mut fsm2, first2, &mut tags, &geom);
        assert!(outs[0].respond_hit, "refilled block now hits");
    }

    #[test]
    #[should_panic(expected = "at most 2 accesses")]
    fn access_list_rejects_a_third_access() {
        let (_, spec) = RequestFsm::start(read_req(7), &sa_geom());
        let mut list = AccessList::default();
        for _ in 0..=MAX_STEP_ACCESSES {
            list.push(spec);
        }
    }

    #[test]
    fn pr_lr_classification_follows_request_kind() {
        let geom = sa_geom();
        // Demand read → PR tag read; writeback → LR tag read (§IV-B).
        let (_, r) = RequestFsm::start(read_req(7), &geom);
        assert_eq!(r.class, ReadClass::Priority);
        let (_, w) = RequestFsm::start(wb_req(7), &geom);
        assert_eq!(w.class, ReadClass::LowPriority);
        let (_, f) = RequestFsm::start(refill_req(7), &geom);
        assert_eq!(f.class, ReadClass::LowPriority);
    }
}
