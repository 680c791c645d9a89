//! Golden digests of every generator family.
//!
//! Each case hashes the node count and the lexicographic edge sequence of one
//! generated graph with 64-bit FNV-1a. The digests were recorded once and
//! must never move: experiment tables, campaign reports and seeded workloads
//! all assume that a family, its parameters and its seed name one exact
//! graph, whatever builder assembles it.

use mdst_graph::{generators, Graph};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u32) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn digest(g: &Graph) -> u64 {
    let mut h = fnv(FNV_OFFSET, g.node_count() as u32);
    for (u, v) in g.edges() {
        h = fnv(fnv(h, u.0), v.0);
    }
    h
}

#[test]
fn every_generator_family_reproduces_its_recorded_edges() {
    let cases: Vec<(&str, Graph, u64)> = vec![
        (
            "complete(9)",
            generators::complete(9).unwrap(),
            0x7e40_94b5_d983_9cec,
        ),
        (
            "path(17)",
            generators::path(17).unwrap(),
            0x93f8_daec_cf1b_0ee4,
        ),
        (
            "cycle(13)",
            generators::cycle(13).unwrap(),
            0x47c3_bbbc_b336_b468,
        ),
        (
            "star(11)",
            generators::star(11).unwrap(),
            0x40b5_10d2_07b4_5795,
        ),
        (
            "wheel(12)",
            generators::wheel(12).unwrap(),
            0x572e_f611_5513_f759,
        ),
        (
            "star_with_leaf_edges(10)",
            generators::star_with_leaf_edges(10).unwrap(),
            0x47ea_1e56_e0fb_f926,
        ),
        (
            "grid(4, 6)",
            generators::grid(4, 6).unwrap(),
            0xa63b_4c50_97b4_d02d,
        ),
        (
            "hypercube(5)",
            generators::hypercube(5).unwrap(),
            0xc674_5bb3_18dc_1d95,
        ),
        (
            "complete_bipartite(3, 5)",
            generators::complete_bipartite(3, 5).unwrap(),
            0xfe67_8497_982f_eb4d,
        ),
        (
            "petersen()",
            generators::petersen().unwrap(),
            0x3a10_3a7a_a354_c7fe,
        ),
        (
            "binary_tree_plus(31, 12, 7)",
            generators::binary_tree_plus(31, 12, 7).unwrap(),
            0xdfb3_2b05_baa5_62ef,
        ),
        (
            "caterpillar(5, 3)",
            generators::caterpillar(5, 3).unwrap(),
            0xeca8_971c_25fd_9165,
        ),
        (
            "barbell(5, 3)",
            generators::barbell(5, 3).unwrap(),
            0x0dd8_750c_0963_02c4,
        ),
        (
            "lollipop(6, 4)",
            generators::lollipop(6, 4).unwrap(),
            0x42d6_85d9_f22f_f7a2,
        ),
        (
            "gnp(40, 0.15, 11)",
            generators::gnp(40, 0.15, 11).unwrap(),
            0xd741_b34c_6a07_8b96,
        ),
        (
            "gnp_connected(40, 0.05, 3)",
            generators::gnp_connected(40, 0.05, 3).unwrap(),
            0x5bb7_a442_35ec_c777,
        ),
        (
            "random_geometric_connected(40, 0.25, 5)",
            generators::random_geometric_connected(40, 0.25, 5).unwrap(),
            0x5b40_6097_5460_f223,
        ),
        (
            "random_connected(50, 60, 9)",
            generators::random_connected(50, 60, 9).unwrap(),
            0x536e_7089_6dd6_a834,
        ),
        (
            "random_connected(12, 200, 2)",
            generators::random_connected(12, 200, 2).unwrap(),
            0x81a3_a06b_09fd_37d9,
        ),
        (
            "high_optimum(6, 4)",
            generators::high_optimum(6, 4).unwrap(),
            0x83ae_2733_4bba_6680,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, graph, expected) in &cases {
        let got = digest(graph);
        if got != *expected {
            wrong.push(format!(
                "{name}: recorded {expected:#018x}, got {got:#018x}"
            ));
        }
    }
    assert!(wrong.is_empty(), "digest drift:\n{}", wrong.join("\n"));
}
