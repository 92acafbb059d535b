//! A graph computes its fingerprint and its features at most once. These
//! tests pin what that must not change: the values equal those of a fresh
//! graph over the same edges whether or not a memo is filled, across
//! `clone()` and `with_name()`, and when several threads race on a cold
//! graph's first call; and the fingerprint's value itself.

use std::sync::{Arc, Barrier};
use std::thread;

use granii_graph::{generators, Graph, GraphFeatures};
use granii_matrix::CooMatrix;

fn build() -> Graph {
    generators::power_law(600, 6, 41).unwrap()
}

/// The features' exact bits, so a NaN or a signed zero cannot compare
/// equal by accident.
fn bits(f: &GraphFeatures) -> Vec<u64> {
    f.to_vec().iter().map(|v| v.to_bits()).collect()
}

fn facts(g: &Graph) -> (u64, Vec<u64>) {
    (g.fingerprint(), bits(&GraphFeatures::extract(g)))
}

#[test]
fn memos_equal_a_fresh_graphs_values() {
    let expected = facts(&build());

    // Cloned and renamed while cold: each computes its own.
    let cold = build();
    let cold_clone = cold.clone();
    let cold_renamed = cold.clone().with_name("renamed");
    assert_eq!(facts(&cold_clone), expected);
    assert_eq!(facts(&cold_renamed), expected);
    assert_eq!(facts(&cold), expected);

    // Cloned and renamed while warm: each carries the memo.
    let warm = build();
    assert_eq!(facts(&warm), expected);
    assert_eq!(facts(&warm), expected, "a second read is the memo");
    assert_eq!(facts(&warm.clone()), expected);
    assert_eq!(facts(&warm.with_name("renamed")), expected);
}

#[test]
fn filled_memos_do_not_change_equality() {
    let warm = build();
    facts(&warm);
    let cold = build();
    assert_eq!(warm, cold);
    assert_eq!(cold, warm);
    assert_ne!(
        warm.clone().with_name("other"),
        cold,
        "the name still counts"
    );
}

#[test]
fn racing_first_calls_agree() {
    const THREADS: usize = 4;
    let expected = facts(&build());
    let cold = Arc::new(build());
    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let (graph, start) = (Arc::clone(&cold), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                // Half the threads ask for the features first.
                if i % 2 == 0 {
                    facts(&graph)
                } else {
                    let features = bits(&GraphFeatures::extract(&graph));
                    (graph.fingerprint(), features)
                }
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), expected);
    }
}

#[test]
fn fingerprints_are_pinned() {
    // The FNV-1a hash over node count, CSR structure and weight bits, as
    // status JSON, `/metrics`, incident bundles and fixtures show it.
    let path = Graph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
    let weighted = Graph::from_csr(
        CooMatrix::from_entries(3, 3, &[(0, 1, 2.5), (1, 0, -1.0), (2, 2, 0.5)])
            .unwrap()
            .to_csr(),
    )
    .unwrap();
    assert_eq!(path.fingerprint(), 0x4700_4a64_9eb0_fd29);
    assert_eq!(weighted.fingerprint(), 0x83c8_c36e_9449_4d4c);
}
