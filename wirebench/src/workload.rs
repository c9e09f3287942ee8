//! The named workloads: which marketplace graph is preloaded, which
//! statement mix runs against it, and the server topology around it.
//! Why each exists is recorded in `BENCHMARK.json` and `NOTES.md`.

use cypher_datagen::{marketplace_graph, MarketplaceConfig};
use cypher_graph::PropertyGraph;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 80 % reads (half index point lookups, half 1-hop `ORDERED`
    /// expands), 20 % size-neutral writes.
    Oltp,
    /// Read only: index-anchored 2-hop co-purchase queries plus label-scan
    /// aggregations with `ORDER BY … LIMIT`.
    Traverse,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub graph: MarketplaceConfig,
    pub mix: Mix,
    /// `ServerConfig::sync_replicas` (strict policy), with one in-process
    /// replica when non-zero.
    pub sync_replicas: usize,
    /// One probe view per session plus the fleet views, registered in
    /// process through `SharedStore::subscribe_view`.
    pub views: bool,
}

/// Closed-loop client sessions, one thread each.
pub const SESSIONS: usize = 2;

/// The marketplace generator's default seed; `--holdout-seed` replaces it.
pub const GRAPH_SEED: u64 = 42;

const LARGE: MarketplaceConfig = MarketplaceConfig {
    users: 60_000,
    vendors: 2_000,
    products: 40_000,
    orders: 150_000,
    offers: 80_000,
    seed: GRAPH_SEED,
};

const MID: MarketplaceConfig = MarketplaceConfig {
    users: 7_000,
    vendors: 400,
    products: 3_000,
    orders: 12_000,
    offers: 6_000,
    seed: GRAPH_SEED,
};

const SMALL: MarketplaceConfig = MarketplaceConfig {
    users: 100,
    vendors: 10,
    products: 200,
    orders: 500,
    offers: 250,
    seed: GRAPH_SEED,
};

pub const NAMES: [&str; 3] = ["oltp_100k", "quorum_views_small", "traverse_10k"];

pub fn by_name(name: &str) -> Option<Workload> {
    let (graph, mix, sync_replicas, views) = match name {
        "oltp_100k" => (LARGE, Mix::Oltp, 0, false),
        "quorum_views_small" => (SMALL, Mix::Oltp, 1, true),
        "traverse_10k" => (MID, Mix::Traverse, 0, false),
        _ => return None,
    };
    Some(Workload {
        name: NAMES.iter().find(|n| **n == name).copied()?,
        graph,
        mix,
        sync_replicas,
        views,
    })
}

/// The preloaded graph: the marketplace plus `:User(id)` and
/// `:Product(id)` indexes. `graph_seed` is [`GRAPH_SEED`] except on a
/// holdout run.
pub fn seed_graph(w: &Workload, graph_seed: Option<u64>) -> PropertyGraph {
    let cfg = MarketplaceConfig {
        seed: graph_seed.unwrap_or(w.graph.seed),
        ..w.graph
    };
    let mut g = marketplace_graph(&cfg);
    let id = g.sym("id");
    for label in ["User", "Product"] {
        let l = g.sym(label);
        g.create_index(l, id);
    }
    g
}
