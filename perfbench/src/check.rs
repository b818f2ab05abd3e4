//! Output checks. Every operation the benchmark times is checked here, and
//! a wrong answer counts as a failed operation.
//!
//! * `track`: each snapshot's reported followers are recomputed from its
//!   reported anchors with a fresh anchored decomposition.
//! * `serve-lookup`: the epoch never moves, so every reply must equal
//!   `avt_serve::execute` on that epoch; FOLLOWERS and ANCHORED replies
//!   must also match an anchored decomposition of the epoch, a path that
//!   does not go through `execute`.
//! * `serve-mixed`: replies must echo their request, name no epoch beyond
//!   those published, and the final published cores must equal a fresh
//!   decomposition of the final frame.

use avt_core::AnchoredCoreState;
use avt_graph::{GraphView, VertexId};
use avt_kcore::CoreDecomposition;
use avt_serve::{execute, EpochFrame, Request, Response, ServiceStats};

fn sorted(mut v: Vec<VertexId>) -> Vec<VertexId> {
    v.sort_unstable();
    v
}

/// Do `followers` follow from anchoring `anchors` at threshold `k`?
/// `base_cores` are the frame's plain core numbers.
pub fn snapshot_ok<G: GraphView>(
    frame: &G,
    base_cores: &[u32],
    k: u32,
    anchors: &[VertexId],
    followers: &[VertexId],
) -> bool {
    let state = AnchoredCoreState::with_anchors(frame, k, anchors);
    sorted(state.committed_followers(base_cores)) == sorted(followers.to_vec())
}

/// A `serve-lookup` reply: identical to `execute` on the served epoch,
/// and for FOLLOWERS and ANCHORED to [`anchored_oracle`].
pub fn lookup_ok(
    request: &Request,
    reply: &Result<Response, String>,
    epoch: &EpochFrame,
    stats: &ServiceStats,
) -> bool {
    let Ok(response) = reply else { return false };
    if execute(request, epoch, epoch.t as u64, stats) != *reply {
        return false;
    }
    match (request, response) {
        (Request::Followers { k, anchor }, Response::Followers { followers, .. }) => {
            anchored_oracle(epoch, *k, &[*anchor]).0 == *followers
        }
        (Request::Anchored { k, anchors }, Response::Anchored { size, followers, .. }) => {
            let mut unique = anchors.clone();
            unique.sort_unstable();
            unique.dedup();
            anchored_oracle(epoch, *k, &unique) == (followers.clone(), *size)
        }
        _ => true,
    }
}

/// The ascending followers of `anchors` and the anchored k-core size,
/// from one anchored decomposition of the epoch's frame.
fn anchored_oracle(epoch: &EpochFrame, k: u32, anchors: &[VertexId]) -> (Vec<VertexId>, usize) {
    let anchored = CoreDecomposition::compute_anchored(epoch.frame.as_ref(), anchors);
    let members = (0..epoch.cores.len() as VertexId).filter(|&v| anchored.core(v) >= k);
    let followers =
        members.clone().filter(|&v| epoch.cores[v as usize] < k && !anchors.contains(&v)).collect();
    (followers, members.count())
}

/// A `serve-mixed` reply: echoes its request, names an epoch in
/// `1..=epochs`, and lists valid, ascending vertex ids of an `n`-vertex
/// graph.
pub fn mixed_ok(
    request: &Request,
    reply: &Result<Response, String>,
    epochs: u64,
    n: usize,
) -> bool {
    let Ok(reply) = reply else { return false };
    let t_ok = |t: usize| t >= 1 && t as u64 <= epochs;
    let list_ok = |xs: &[VertexId]| {
        xs.windows(2).all(|w| w[0] < w[1]) && xs.iter().all(|&x| (x as usize) < n)
    };
    match (request, reply) {
        (Request::Core(v), Response::Core { t, v: rv, .. }) => t_ok(*t) && rv == v,
        (
            Request::Followers { k, anchor },
            Response::Followers { t, k: rk, anchor: ra, followers },
        ) => {
            t_ok(*t) && rk == k && ra == anchor && list_ok(followers) && !followers.contains(anchor)
        }
        (Request::Anchored { k, .. }, Response::Anchored { t, k: rk, size, followers }) => {
            t_ok(*t) && rk == k && list_ok(followers) && *size >= followers.len()
        }
        (Request::Spectrum, Response::Spectrum { t, shells }) => {
            t_ok(*t) && shells.iter().sum::<usize>() == n
        }
        (
            Request::Best { k, b, algo },
            Response::Best { t, k: rk, algo: ra, anchors, followers, .. },
        ) => {
            t_ok(*t)
                && rk == k
                && ra == algo
                && anchors.len() <= *b
                && list_ok(&sorted(anchors.clone()))
                && list_ok(followers)
        }
        (
            Request::Ingest { insertions, deletions, .. },
            Response::Ingest { t, accepted, folded, rejected, .. },
        ) => {
            *t >= 1
                && *t <= epochs
                && accepted + folded + rejected == (insertions.len() + deletions.len()) as u64
        }
        _ => false,
    }
}

/// The published core numbers equal a fresh decomposition of the frame.
pub fn cores_ok(epoch: &EpochFrame) -> bool {
    *epoch.cores == *CoreDecomposition::compute(epoch.frame.as_ref()).cores()
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_graph::{EdgeBatch, Graph};
    use avt_serve::LiveTimeline;
    use std::sync::Arc;

    /// A K4 core with a wing that one anchor saves (k = 3).
    fn winged() -> Graph {
        Graph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (4, 0),
                (4, 5),
                (5, 2),
                (5, 3),
                (6, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn corrupted_lookup_reply_is_flagged() {
        let tl = LiveTimeline::new(winged());
        let epoch = tl.current();
        let stats = ServiceStats::default();
        let request = Request::Followers { k: 3, anchor: 6 };
        let good = execute(&request, &epoch, 1, &stats);
        assert!(lookup_ok(&request, &good, &epoch, &stats));
        let Ok(Response::Followers { t, k, anchor, mut followers }) = good.clone() else {
            panic!("unexpected reply {good:?}")
        };
        assert!(!followers.is_empty(), "the fixture must have followers to corrupt");
        assert_eq!(anchored_oracle(&epoch, 3, &[6]).0, followers);
        followers.pop();
        let bad = Ok(Response::Followers { t, k, anchor, followers });
        assert!(!lookup_ok(&request, &bad, &epoch, &stats));
        assert!(!lookup_ok(&request, &Err("busy".into()), &epoch, &stats));

        let request = Request::Anchored { k: 3, anchors: vec![6, 6, 7] };
        let good = execute(&request, &epoch, 1, &stats);
        assert!(lookup_ok(&request, &good, &epoch, &stats));
        let Ok(Response::Anchored { t, k, size, followers }) = good.clone() else {
            panic!("unexpected reply {good:?}")
        };
        let bad = Ok(Response::Anchored { t, k, size: size + 1, followers });
        assert!(!lookup_ok(&request, &bad, &epoch, &stats));
    }

    #[test]
    fn corrupted_mixed_reply_is_flagged() {
        let request = Request::Core(3);
        let good = Ok(Response::Core { t: 2, v: 3, core: 3 });
        assert!(mixed_ok(&request, &good, 2, 8));
        let future = Ok(Response::Core { t: 3, v: 3, core: 3 });
        assert!(!mixed_ok(&request, &future, 2, 8));
        let wrong_vertex = Ok(Response::Core { t: 2, v: 4, core: 3 });
        assert!(!mixed_ok(&request, &wrong_vertex, 2, 8));
        let ingest = Request::Ingest { ts: 1, insertions: vec![(0, 7), (1, 7)], deletions: vec![] };
        let receipt =
            |accepted| Response::Ingest { t: 2, accepted, folded: 0, rejected: 0, watermark: 1 };
        assert!(mixed_ok(&ingest, &Ok(receipt(2)), 2, 8));
        assert!(!mixed_ok(&ingest, &Ok(receipt(1)), 2, 8));
    }

    #[test]
    fn corrupted_cores_are_flagged() {
        let tl = LiveTimeline::new(winged());
        tl.apply_batch(EdgeBatch::from_pairs([(6, 5)], [])).unwrap();
        let epoch = tl.current();
        assert!(cores_ok(&epoch));
        let mut cores = epoch.cores.to_vec();
        cores[7] += 1;
        let bad = EpochFrame {
            t: epoch.t,
            frame: Arc::clone(&epoch.frame),
            cores: cores.into(),
            shells: epoch.shells.clone(),
        };
        assert!(!cores_ok(&bad));
    }

    #[test]
    fn corrupted_snapshot_is_flagged() {
        let g = winged();
        let cores = CoreDecomposition::compute(&g).cores().to_vec();
        let state = AnchoredCoreState::with_anchors(&g, 3, &[6]);
        let followers = state.committed_followers(&cores);
        assert!(snapshot_ok(&g, &cores, 3, &[6], &followers));
        assert!(!snapshot_ok(&g, &cores, 3, &[6], &followers[1..]));
    }
}
