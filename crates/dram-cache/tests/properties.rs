//! Property-based tests: the functional tag array against a reference
//! model, geometry round-trips, and FSM access-count invariants.

use dca_dram::MappingScheme;
use dca_dram_cache::{
    CacheGeometry, CacheReqKind, CacheRequest, OrgKind, ReplacementPolicy, RequestFsm, TagArray,
    TagSnapshot,
};
use dca_sim_core::{ByteReader, ByteWriter};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// TagArray agrees with a reference map on membership after an
    /// arbitrary interleaving of inserts, touches and invalidates, and
    /// never exceeds its associativity per set.
    #[test]
    fn tag_array_matches_reference(
        ops in prop::collection::vec((0u64..32, 0u32..64, any::<bool>()), 1..300)
    ) {
        let ways = 4u16;
        let mut tags = TagArray::new(32, ways);
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        for (set, tag, dirty) in ops {
            match tags.lookup(set, tag) {
                Some(way) => {
                    tags.touch(set, way);
                    tags.set_dirty(set, way, dirty);
                    prop_assert!(reference.get(&set).is_some_and(|v| v.contains(&tag)));
                }
                None => {
                    let out = tags.insert(set, tag, dirty);
                    let entry = reference.entry(set).or_default();
                    if let Some((victim, _)) = out.evicted {
                        entry.retain(|&t| t != victim);
                    }
                    entry.push(tag);
                    prop_assert!(entry.len() <= ways as usize, "set overflow");
                }
            }
            // Membership check both ways.
            for (&s, v) in &reference {
                for &t in v {
                    prop_assert!(tags.lookup(s, t).is_some(), "lost tag {t} in set {s}");
                }
            }
        }
    }

    /// Block placement round-trips: set + tag uniquely reconstruct the
    /// block, and all of a block's accesses land in one row frame.
    #[test]
    fn geometry_round_trip(blocks in prop::collection::vec(0u64..(1 << 34), 1..100), dm in any::<bool>()) {
        let kind = if dm { OrgKind::DirectMapped } else { OrgKind::paper_set_assoc() };
        let geom = CacheGeometry::paper(kind, MappingScheme::Direct);
        for b in blocks {
            let p = geom.place(b);
            prop_assert_eq!(p.set + p.tag as u64 * geom.num_sets(), b);
            prop_assert!(p.loc.channel < 4);
            prop_assert!(p.loc.bank < 16);
            prop_assert!((p.loc.row as u64) < 1024);
        }
    }

    /// Fig 2 access-count invariants: a demand read is 1 access on a
    /// miss and ≤3 on a hit (SA) or exactly 1 (DM); a writeback is ≤4.
    #[test]
    fn fsm_access_counts_match_fig2(
        block in 0u64..(1 << 30),
        dm in any::<bool>(),
        warm in any::<bool>(),
        wb in any::<bool>(),
    ) {
        let kind = if dm { OrgKind::DirectMapped } else { OrgKind::paper_set_assoc() };
        let geom = CacheGeometry::paper(kind, MappingScheme::Direct);
        let mut tags = TagArray::new(geom.num_sets(), kind.ways());
        if warm {
            let p = geom.place(block);
            tags.insert(p.set, p.tag, false);
        }
        let req = CacheRequest {
            id: 1,
            kind: if wb { CacheReqKind::Writeback } else { CacheReqKind::Read },
            block,
            app: 0,
            pc: 0,
        };
        let (mut fsm, first) = RequestFsm::start(req, &geom);
        let mut pending = vec![first];
        let mut total = 0usize;
        let mut guard = 0;
        while !pending.is_empty() {
            guard += 1;
            prop_assert!(guard < 16, "fsm did not converge");
            let spec = pending.remove(0);
            total += 1;
            let out = fsm.on_access_done(spec.role, &mut tags, &geom);
            pending.extend(out.enqueue);
        }
        match (dm, wb, warm) {
            (true, false, _) => prop_assert_eq!(total, 1),          // DM read: 1 TAD
            (true, true, _) => prop_assert_eq!(total, 2),           // DM wb: TAD rd + TAD wr
            (false, false, true) => prop_assert_eq!(total, 3),      // SA read hit: RT+RD+WT
            (false, false, false) => prop_assert_eq!(total, 1),     // SA read miss: RT
            (false, true, _) => prop_assert!((3..=4).contains(&total)), // SA wb: RT+WD+WT (+RDw)
        }
    }

    /// Functional coherence: after a writeback to a block, a read of the
    /// same block hits; after eviction it misses.
    #[test]
    fn writeback_then_read_hits(block in 0u64..(1 << 28)) {
        let geom = CacheGeometry::paper(OrgKind::DirectMapped, MappingScheme::Direct);
        let mut tags = TagArray::new(geom.num_sets(), 1);
        let wb = CacheRequest { id: 1, kind: CacheReqKind::Writeback, block, app: 0, pc: 0 };
        let (mut fsm, first) = RequestFsm::start(wb, &geom);
        let mut pending = vec![first];
        while !pending.is_empty() {
            let spec = pending.remove(0);
            let out = fsm.on_access_done(spec.role, &mut tags, &geom);
            pending.extend(out.enqueue);
        }
        let rd = CacheRequest { id: 2, kind: CacheReqKind::Read, block, app: 0, pc: 0 };
        let (mut fsm2, first2) = RequestFsm::start(rd, &geom);
        let out = fsm2.on_access_done(first2.role, &mut tags, &geom);
        prop_assert!(out.respond_hit, "block written back must be readable");
        // A conflicting block evicts it (direct-mapped).
        let other = block + geom.num_sets();
        let rf = CacheRequest { id: 3, kind: CacheReqKind::Refill, block: other, app: 0, pc: 0 };
        let (mut fsm3, first3) = RequestFsm::start(rf, &geom);
        let mut pending = vec![first3];
        while !pending.is_empty() {
            let spec = pending.remove(0);
            let out = fsm3.on_access_done(spec.role, &mut tags, &geom);
            pending.extend(out.enqueue);
        }
        let rd2 = CacheRequest { id: 4, kind: CacheReqKind::Read, block, app: 0, pc: 0 };
        let (mut fsm4, first4) = RequestFsm::start(rd2, &geom);
        let out = fsm4.on_access_done(first4.role, &mut tags, &geom);
        prop_assert!(out.respond_miss, "evicted block must miss");
    }
}

// Replacement-policy invariants, checked for *every* policy the layer
// offers: the same op stream drives each policy's array, so a policy
// whose bookkeeping drifts (bad stack permutation, RRPV overflow, a
// victim outside the set) fails here before it can skew a figure.
proptest! {
    /// The victim is always a real way of the set, only a full set
    /// evicts, the evicted tag is resident, and `victim_way` exactly
    /// prophesies what `insert` then does.
    #[test]
    fn victim_is_always_a_valid_way_under_every_policy(
        ops in prop::collection::vec((0u64..16, 0u32..48, any::<bool>()), 1..200)
    ) {
        let (sets, ways) = (16u64, 4u16);
        for policy in ReplacementPolicy::ALL {
            let mut tags = TagArray::with_policy(sets, ways, policy);
            let mut resident: HashMap<u64, Vec<u32>> = HashMap::new();
            for &(set, tag, dirty) in &ops {
                if let Some(way) = tags.lookup(set, tag) {
                    tags.touch(set, way);
                    tags.set_dirty(set, way, dirty);
                    continue;
                }
                let entry = resident.entry(set).or_default();
                let (way, predicted) = tags.victim_way(set);
                prop_assert!(way < ways, "{policy:?}: victim way {way} out of range");
                prop_assert_eq!(
                    predicted.is_some(),
                    entry.len() == ways as usize,
                    "{policy:?}: eviction iff the set is full"
                );
                if let Some((vt, _)) = predicted {
                    prop_assert!(
                        entry.contains(&vt),
                        "{policy:?}: predicted victim {vt} is not resident in set {set}"
                    );
                }
                let out = tags.insert(set, tag, dirty);
                prop_assert_eq!(
                    (out.way, out.evicted),
                    (way, predicted),
                    "{policy:?}: victim_way must prophesy insert exactly"
                );
                if let Some((vt, _)) = out.evicted {
                    entry.retain(|&t| t != vt);
                }
                entry.push(tag);
                prop_assert!(entry.len() <= ways as usize, "{policy:?}: set overflow");
            }
        }
    }

    /// Promoting a hit never changes residency: no eviction, no lost
    /// tags, and the promoted block stays in its way.
    #[test]
    fn hit_promotion_never_evicts_under_every_policy(
        ops in prop::collection::vec((0u64..8, 0u32..24, any::<bool>()), 1..250)
    ) {
        for policy in ReplacementPolicy::ALL {
            let mut tags = TagArray::with_policy(8, 4, policy);
            let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
            for &(set, tag, dirty) in &ops {
                match tags.lookup(set, tag) {
                    Some(way) => {
                        let before = tags.valid_count();
                        tags.touch(set, way);
                        tags.set_dirty(set, way, dirty);
                        prop_assert_eq!(
                            tags.valid_count(),
                            before,
                            "{policy:?}: a hit promotion changed residency"
                        );
                        prop_assert_eq!(
                            tags.lookup(set, tag),
                            Some(way),
                            "{policy:?}: promoted block moved ways"
                        );
                    }
                    None => {
                        let out = tags.insert(set, tag, dirty);
                        let entry = reference.entry(set).or_default();
                        if let Some((vt, _)) = out.evicted {
                            entry.retain(|&t| t != vt);
                        }
                        entry.push(tag);
                    }
                }
                for (&s, v) in &reference {
                    for &t in v {
                        prop_assert!(
                            tags.lookup(s, t).is_some(),
                            "{policy:?}: lost tag {t} in set {s} after a promotion"
                        );
                    }
                }
            }
        }
    }

    /// Insert/invalidate round-trips preserve `valid_count`: an insert
    /// changes it by exactly the net fill, invalidating the inserted
    /// way returns exactly what went in, and a double invalidate is a
    /// no-op.
    #[test]
    fn insert_invalidate_round_trips_preserve_valid_count_under_every_policy(
        ops in prop::collection::vec(
            (0u64..8, 0u32..32, any::<bool>(), any::<bool>()), 1..200
        )
    ) {
        for policy in ReplacementPolicy::ALL {
            let mut tags = TagArray::with_policy(8, 4, policy);
            for &(set, tag, dirty, undo) in &ops {
                if tags.lookup(set, tag).is_some() {
                    continue;
                }
                let before = tags.valid_count();
                let out = tags.insert(set, tag, dirty);
                let expect = before + 1 - u64::from(out.evicted.is_some());
                prop_assert_eq!(
                    tags.valid_count(),
                    expect,
                    "{policy:?}: insert must change valid_count by the net fill"
                );
                if undo {
                    prop_assert_eq!(
                        tags.invalidate(set, out.way),
                        Some((tag, dirty)),
                        "{policy:?}: invalidate must return the inserted block"
                    );
                    prop_assert!(
                        tags.lookup(set, tag).is_none(),
                        "{policy:?}: invalidated block still hits"
                    );
                    prop_assert_eq!(
                        tags.invalidate(set, out.way),
                        None,
                        "{policy:?}: double invalidate must be a no-op"
                    );
                    prop_assert_eq!(
                        tags.valid_count(),
                        expect - 1,
                        "{policy:?}: round-trip must restore valid_count"
                    );
                }
            }
        }
    }
}

// Snapshot exactness: the compact checkpoint keeps only non-default
// entries, so it must still reproduce the dense array entry for entry —
// invalidated entries included — and write the dense codec's bytes.
proptest! {
    #[test]
    fn tag_snapshot_is_exact_under_every_policy_and_geometry(
        ops in prop::collection::vec((0u8..4, 0u64..64, 0u32..24, any::<bool>()), 1..200)
    ) {
        // Direct-mapped and a small set-associative shape.
        for (sets, ways) in [(64u64, 1u16), (8, 4)] {
            for policy in ReplacementPolicy::ALL {
                let mut t = TagArray::with_policy(sets, ways, policy);
                for &(op, set, tag, flag) in &ops {
                    let set = set % sets;
                    let way = (tag % ways as u32) as u16;
                    match (op, t.lookup(set, tag)) {
                        (0, None) => {
                            t.insert(set, tag, flag);
                        }
                        (0 | 1, Some(w)) => t.touch(set, w),
                        (1, None) => {}
                        (2, _) => t.set_dirty(set, way, flag),
                        _ => {
                            t.invalidate(set, way);
                        }
                    }
                }
                // Always leave one invalid-but-non-default entry behind.
                let out = t.insert(0, 77, true);
                t.invalidate(0, out.way);

                let snap = t.snapshot();
                prop_assert!(
                    snap.stored() > t.valid_count() as usize,
                    "{policy:?} {sets}x{ways}: the invalidated entry was dropped"
                );
                prop_assert_eq!(&TagArray::from_snapshot(&snap), &t);
                let mut wrecked = TagArray::with_policy(sets, ways, policy);
                for s in 0..sets {
                    wrecked.insert(s, 999, true);
                }
                wrecked.restore(&snap);
                prop_assert_eq!(&wrecked, &t);
                prop_assert!(wrecked.is_dirty(0, out.way) && wrecked.lookup(0, 77).is_none());

                let (mut dense, mut compact) = (ByteWriter::new(), ByteWriter::new());
                t.encode(&mut dense);
                snap.encode(&mut compact);
                let bytes = dense.into_vec();
                prop_assert_eq!(&compact.into_vec(), &bytes);
                let mut r = ByteReader::new(&bytes);
                let decoded = TagSnapshot::decode(&mut r);
                prop_assert!(r.finish().is_ok());
                prop_assert_eq!(decoded.as_ref().ok(), Some(&snap));
            }
        }
    }
}
