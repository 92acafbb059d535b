//! What the hand-written compositions charge, pinned.
//!
//! The proptests compare compositions with each other and real with virtual
//! execution; neither notices a composition that drifts, in step with every
//! other path, to different primitives or widths. This test pins, for every
//! model × composition on one unweighted and one weighted fixed graph at
//! hops 1 and 3, the ordered primitive kinds that `prepare` + `forward`
//! charge and every integer field of their `WorkStats`. Each case is one
//! FNV-1a digest (the hash `Graph::fingerprint` uses, so the values are
//! host-stable); the table was generated from the compositions before they
//! dropped their buffer arena.

use granii_gnn::models::GnnLayer;
use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::{generators, Graph};
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::{CooMatrix, DenseMatrix};

const MODELS: [ModelKind; 6] = [
    ModelKind::Gcn,
    ModelKind::Gin,
    ModelKind::Sgc,
    ModelKind::Tagcn,
    ModelKind::Gat,
    ModelKind::Sage,
];

/// One line per case, `<graph> hops<k> <composition> <digest>`, generated
/// from the compositions before they dropped their buffer arena.
const PINNED: &str = "
unweighted hops1 gcn/dynamic+agg-first 979f4c62e5565fed
unweighted hops1 gcn/dynamic+update-first ca9b9ba985d875f2
unweighted hops1 gcn/precompute+agg-first d4eb6aec2ec6b855
unweighted hops1 gcn/precompute+update-first e06ccd56c9249edd
unweighted hops1 gin/agg-first 2a539b64f6e497d1
unweighted hops1 gin/update-first 5ccdf3b9678b708c
unweighted hops1 sgc/dynamic+agg-first 8d6c48a4ce3fd4f9
unweighted hops1 sgc/dynamic+update-first 25bdff42ffdb66ac
unweighted hops1 sgc/precompute+agg-first 6bce0db466ed7d81
unweighted hops1 sgc/precompute+update-first eb696e073e2549e9
unweighted hops1 tagcn/dynamic+agg-first b4399a4ca978bab6
unweighted hops1 tagcn/dynamic+update-first f5f96e55b336e2a1
unweighted hops1 tagcn/precompute+agg-first 4527a6278e528ffa
unweighted hops1 tagcn/precompute+update-first 02f4d3f21218247c
unweighted hops1 gat/reuse 9b73b1ed24451478
unweighted hops1 gat/recompute ba10dcb03cdd9e31
unweighted hops1 sage/agg-first b50963f0cbd1c7cd
unweighted hops1 sage/update-first 6813aa8ff952db7a
unweighted hops3 gcn/dynamic+agg-first 979f4c62e5565fed
unweighted hops3 gcn/dynamic+update-first ca9b9ba985d875f2
unweighted hops3 gcn/precompute+agg-first d4eb6aec2ec6b855
unweighted hops3 gcn/precompute+update-first e06ccd56c9249edd
unweighted hops3 gin/agg-first 2a539b64f6e497d1
unweighted hops3 gin/update-first 5ccdf3b9678b708c
unweighted hops3 sgc/dynamic+agg-first 2af5fd5b54b65497
unweighted hops3 sgc/dynamic+update-first 56795d5f87cfceac
unweighted hops3 sgc/precompute+agg-first 51f32349eb86c193
unweighted hops3 sgc/precompute+update-first 92cf954b072fddfb
unweighted hops3 tagcn/dynamic+agg-first c8f199d2052b970e
unweighted hops3 tagcn/dynamic+update-first 95e5080f10ba6e0d
unweighted hops3 tagcn/precompute+agg-first f2c07cdef95c3b5a
unweighted hops3 tagcn/precompute+update-first a1ccbee0c2ff4e84
unweighted hops3 gat/reuse 9b73b1ed24451478
unweighted hops3 gat/recompute ba10dcb03cdd9e31
unweighted hops3 sage/agg-first b50963f0cbd1c7cd
unweighted hops3 sage/update-first 6813aa8ff952db7a
weighted hops1 gcn/dynamic+agg-first 0af5146cc8296db7
weighted hops1 gcn/dynamic+update-first 7c696553d29e418f
weighted hops1 gcn/precompute+agg-first d4eb6aec2ec6b855
weighted hops1 gcn/precompute+update-first e06ccd56c9249edd
weighted hops1 gin/agg-first bfc345e24ec976ed
weighted hops1 gin/update-first 85ea824bad20d15b
weighted hops1 sgc/dynamic+agg-first bf6c4a059d4e4763
weighted hops1 sgc/dynamic+update-first 6bd01f458a6f145b
weighted hops1 sgc/precompute+agg-first 6bce0db466ed7d81
weighted hops1 sgc/precompute+update-first eb696e073e2549e9
weighted hops1 tagcn/dynamic+agg-first da66fe5f12240be4
weighted hops1 tagcn/dynamic+update-first fa4b19b230f288b6
weighted hops1 tagcn/precompute+agg-first 4527a6278e528ffa
weighted hops1 tagcn/precompute+update-first 02f4d3f21218247c
weighted hops1 gat/reuse 9b73b1ed24451478
weighted hops1 gat/recompute ba10dcb03cdd9e31
weighted hops1 sage/agg-first b50963f0cbd1c7cd
weighted hops1 sage/update-first 6813aa8ff952db7a
weighted hops3 gcn/dynamic+agg-first 0af5146cc8296db7
weighted hops3 gcn/dynamic+update-first 7c696553d29e418f
weighted hops3 gcn/precompute+agg-first d4eb6aec2ec6b855
weighted hops3 gcn/precompute+update-first e06ccd56c9249edd
weighted hops3 gin/agg-first bfc345e24ec976ed
weighted hops3 gin/update-first 85ea824bad20d15b
weighted hops3 sgc/dynamic+agg-first 3661079b3e97eaa1
weighted hops3 sgc/dynamic+update-first 39a9c92518cb7539
weighted hops3 sgc/precompute+agg-first 51f32349eb86c193
weighted hops3 sgc/precompute+update-first 92cf954b072fddfb
weighted hops3 tagcn/dynamic+agg-first 9f89d7357e576b90
weighted hops3 tagcn/dynamic+update-first 7b80d9ebf84b9f36
weighted hops3 tagcn/precompute+agg-first f2c07cdef95c3b5a
weighted hops3 tagcn/precompute+update-first a1ccbee0c2ff4e84
weighted hops3 gat/reuse 9b73b1ed24451478
weighted hops3 gat/recompute ba10dcb03cdd9e31
weighted hops3 sage/agg-first b50963f0cbd1c7cd
weighted hops3 sage/update-first 6813aa8ff952db7a
";

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The unweighted fixed graph and the same edges with deterministic weights.
fn graphs() -> [(&'static str, Graph); 2] {
    let unweighted = generators::power_law(60, 3, 7).unwrap();
    let adj = unweighted.adj();
    let mut entries = Vec::with_capacity(adj.nnz());
    for r in 0..adj.rows() {
        for (k, &c) in adj.row_indices(r).iter().enumerate() {
            entries.push((r, c as usize, 0.25 + ((r * 7 + k * 3) % 11) as f32 * 0.5));
        }
    }
    let weighted = CooMatrix::from_entries(adj.rows(), adj.cols(), &entries)
        .unwrap()
        .to_csr();
    let weighted = Graph::from_csr(weighted).unwrap();
    assert!(weighted.is_weighted() && !unweighted.is_weighted());
    [("unweighted", unweighted), ("weighted", weighted)]
}

/// Every case's digest, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut cases = Vec::new();
    for (name, graph) in graphs() {
        let ctx = GraphCtx::new(&graph).unwrap();
        let h = DenseMatrix::random(graph.num_nodes(), 8, 1.0, 5);
        for hops in [1, 3] {
            let cfg = LayerConfig {
                k_in: 8,
                k_out: 5,
                hops,
            };
            for kind in MODELS {
                let layer = GnnLayer::new(kind, cfg, 3).unwrap();
                for comp in Composition::all_for(kind) {
                    let engine = Engine::modeled(DeviceKind::H100);
                    let exec = Exec::real(&engine);
                    let prepared = layer.prepare(&exec, &ctx, comp).unwrap();
                    layer.forward(&exec, &ctx, &prepared, &h, comp).unwrap();
                    let mut fnv = Fnv::new();
                    for entry in engine.take_profile().entries {
                        let s = entry.stats;
                        assert_eq!(entry.kind, s.kind);
                        fnv.bytes(s.kind.name().as_bytes());
                        for word in [
                            s.flops,
                            s.bytes_read,
                            s.bytes_written,
                            s.atomic_ops,
                            u64::from(s.launches),
                        ] {
                            fnv.word(word);
                        }
                    }
                    cases.push((format!("{name} hops{hops} {comp}"), fnv.0));
                }
            }
        }
    }
    cases
}

#[test]
fn every_composition_charges_what_it_charged_before() {
    let actual: Vec<String> = digests()
        .into_iter()
        .map(|(case, digest)| format!("{case} {digest:016x}"))
        .collect();
    let pinned: Vec<&str> = PINNED.lines().filter(|l| !l.is_empty()).collect();
    let differing: Vec<&String> = actual
        .iter()
        .filter(|line| !pinned.contains(&line.as_str()))
        .collect();
    assert!(
        differing.is_empty() && actual.len() == pinned.len(),
        "{} of {} cases differ from the {} pinned; differing:\n{}",
        differing.len(),
        actual.len(),
        pinned.len(),
        differing
            .iter()
            .map(|line| line.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
