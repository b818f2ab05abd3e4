//! Workspace smoke test: the `avt::prelude` quickstart from the crate
//! docs (Figure 1 of the paper) must keep working exactly as advertised.
//! The same snippet runs as a doctest of `src/lib.rs`; this compiled copy
//! keeps it green even when doctests are skipped (e.g. `cargo test --tests`)
//! and pins the prelude's re-export surface.

use avt::prelude::*;

#[test]
fn prelude_quickstart_tracks_figure1() {
    // The reading-hobby community of the paper's Figure 1, two snapshots.
    let eg = avt::datasets::figure1::evolving();

    // Track l = 2 anchors with degree threshold k = 3 over all snapshots.
    let params = AvtParams::new(3, 2);
    let result = Greedy.track(&eg, params).unwrap();
    assert_eq!(result.anchor_sets.len(), 2);
    // At t = 1, anchoring two vertices pulls 5 followers into the 3-core.
    assert_eq!(result.follower_counts[0], 5);
}

#[test]
fn prelude_exports_every_advertised_name() {
    // Substrate types reachable through the prelude glob alone.
    let g: Graph = Graph::new(4);
    let _: GraphStats = GraphStats::compute(&g);
    let _: VertexId = 0;
    let _: Edge = Edge::new(0, 1);
    let _: EdgeBatch = EdgeBatch::from_pairs([(0, 1)], []);
    let _: EvolvingGraph = EvolvingGraph::new(Graph::new(2));
    let _: CoreDecomposition = CoreDecomposition::compute(&g);
    let _: KOrder = KOrder::from_graph(&g);
    let _: AnchoredCoreState<'_> = AnchoredCoreState::new(&g, 2);
    let _: Metrics = Metrics::default();
    // Every algorithm the paper compares, behind the shared trait.
    let algos: Vec<Box<dyn AvtAlgorithm>> = vec![
        Box::new(Greedy),
        Box::new(IncAvt),
        Box::new(Olak),
        Box::new(Rcm),
        Box::new(BruteForce::default()),
    ];
    let eg = avt::datasets::figure1::evolving();
    for algo in algos {
        let result: AvtResult = algo.track(&eg, AvtParams::new(3, 2)).unwrap();
        assert_eq!(result.anchor_sets.len(), 2, "{}", algo.name());
    }
}
