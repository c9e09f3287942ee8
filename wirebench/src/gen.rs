//! Seeded statement streams.
//!
//! Every statement the server sees is generated here from the workload
//! seed and a [`Catalog`] of ids read off the seed graph; nothing depends
//! on timing, so the same seed always yields a byte-identical stream per
//! session. How far into its stream a session gets depends on the run.
//!
//! `marketplace_graph` numbers users from 0, vendors from 1 000 and
//! products from 10 000. The catalog stores the real ids, so no statement
//! anchors on an id that does not exist (such a write would silently
//! become a no-op).

use cypher_graph::{Direction, PropertyGraph, Value};

use crate::workload::{Mix, Workload};

/// splitmix64: tiny, seedable, and stable across toolchains, so a stream
/// never changes underneath a comparison.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Statement kinds in one block of the stream. Each block holds the mix's
/// exact proportions in a seeded order, so every window of a run carries
/// the same share of each kind and seeds differ only in order and ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    PointRead,
    ExpandRead,
    Write,
    CoPurchase,
    VendorScan,
    OrderCount,
}

/// 80 % reads (half point lookups, half 1-hop expands), 20 % writes.
const OLTP_BLOCK: [(Kind, usize); 3] = [
    (Kind::PointRead, 4),
    (Kind::ExpandRead, 4),
    (Kind::Write, 2),
];

/// 75 % anchored 2-hop co-purchase reads, 25 % label-scan aggregations.
const TRAVERSE_BLOCK: [(Kind, usize); 3] = [
    (Kind::CoPurchase, 15),
    (Kind::VendorScan, 2),
    (Kind::OrderCount, 3),
];

/// Ids the generator may anchor on, read once from the seed graph.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    /// Every user id, ascending.
    pub users: Vec<i64>,
    /// Users with at least one `ORDERED` relationship: an expand anchored
    /// on one returns at least one row.
    pub buyers: Vec<i64>,
    /// Buyers who share a product with another order: their 2-hop
    /// co-purchase query returns at least one row.
    pub co_buyers: Vec<i64>,
    /// Every product id, ascending.
    pub products: Vec<i64>,
}

impl Catalog {
    pub fn of(g: &PropertyGraph) -> Catalog {
        let mut cat = Catalog::default();
        let (Some(user), Some(product), Some(ordered), Some(id)) = (
            g.try_sym("User"),
            g.try_sym("Product"),
            g.try_sym("ORDERED"),
            g.try_sym("id"),
        ) else {
            return cat;
        };
        let id_of = |n| match g.prop(n, id) {
            Value::Int(i) => Some(i),
            _ => None,
        };
        for u in g.nodes_with_label(user) {
            let Some(uid) = id_of(u.into()) else { continue };
            cat.users.push(uid);
            let orders: Vec<_> = g
                .rels_of(u, Direction::Outgoing)
                .into_iter()
                .filter(|&r| g.rel(r).is_some_and(|d| d.rel_type == ordered))
                .collect();
            if orders.is_empty() {
                continue;
            }
            cat.buyers.push(uid);
            let shared = orders.iter().any(|&r| {
                g.rel(r).is_some_and(|d| {
                    g.rels_of(d.tgt, Direction::Incoming)
                        .into_iter()
                        .filter(|&x| g.rel(x).is_some_and(|e| e.rel_type == ordered))
                        .count()
                        > 1
                })
            });
            if shared {
                cat.co_buyers.push(uid);
            }
        }
        for p in g.nodes_with_label(product) {
            if let Some(pid) = id_of(p.into()) {
                cat.products.push(pid);
            }
        }
        cat.users.sort_unstable();
        cat.buyers.sort_unstable();
        cat.co_buyers.sort_unstable();
        cat.products.sort_unstable();
        cat
    }
}

/// Update counters in wire order: nodes created, rels created, nodes
/// deleted, rels deleted, props set, labels added, labels removed.
pub type Counters = [u64; 7];

/// What a statement's answer must satisfy.
#[derive(Clone, Debug, PartialEq)]
pub enum Check {
    /// Exactly one row whose single value is this string.
    Name(String),
    /// At least one row.
    NonEmpty,
    /// At least one row, and equal to a serial in-process `run_read` on
    /// the seed graph (read-only workloads only).
    Oracle,
    /// These update counters, exactly (never all zero).
    Stats(Counters),
}

#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    pub text: String,
    pub write: bool,
    pub check: Check,
    /// A write whose commit changes its session's probe view.
    pub probe: bool,
}

const SET: Counters = [0, 0, 0, 0, 1, 0, 0];
const MERGE: Counters = [0, 1, 0, 0, 0, 0, 0];
const CREATE: Counters = [1, 0, 0, 0, 2, 1, 0];
const DETACH: Counters = [0, 0, 1, 0, 0, 0, 0];
const UNVIEW: Counters = [0, 0, 0, 1, 0, 0, 0];

/// Session-created users and merged `VIEWED` pairs a session may hold at
/// once; deletions drain them, so the graph size random-walks near the
/// seed's and [`SessionGen::cleanup`] returns it exactly.
const POOL: usize = 8;

/// Ids of session-created users start here, far above every seed id.
const CREATED_BASE: i64 = 5_000_000;

/// The per-session statement stream.
pub struct SessionGen {
    rng: Rng,
    mix: Mix,
    session: usize,
    sessions: usize,
    catalog: std::sync::Arc<Catalog>,
    /// Seed users this session owns (`id % sessions == session`): its
    /// `SET`s and `MERGE`s touch only these, so the sessions never write
    /// the same entity and every write's counters are predictable.
    own_users: Vec<i64>,
    live_users: Vec<i64>,
    live_viewed: Vec<(i64, i64)>,
    created: i64,
    sets: i64,
    /// Kinds left in the current block, consumed from the back.
    block: Vec<Kind>,
}

impl SessionGen {
    pub fn new(
        w: &Workload,
        seed: u64,
        session: usize,
        sessions: usize,
        catalog: std::sync::Arc<Catalog>,
    ) -> SessionGen {
        let own_users = catalog
            .users
            .iter()
            .copied()
            .filter(|u| u.rem_euclid(sessions as i64) == session as i64)
            .collect();
        SessionGen {
            rng: Rng::new(seed ^ (session as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            mix: w.mix,
            session,
            sessions,
            catalog,
            own_users,
            live_users: Vec::new(),
            live_viewed: Vec::new(),
            created: 0,
            sets: 0,
            block: Vec::new(),
        }
    }

    pub fn next_stmt(&mut self) -> Stmt {
        if self.block.is_empty() {
            let spec: &[(Kind, usize)] = match self.mix {
                Mix::Oltp => &OLTP_BLOCK,
                Mix::Traverse => &TRAVERSE_BLOCK,
            };
            self.block = spec
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                .collect();
            self.rng.shuffle(&mut self.block);
        }
        match self.block.pop().expect("block was just refilled") {
            Kind::PointRead => self.point_read(),
            Kind::ExpandRead => self.expand_read(),
            Kind::Write => self.write(),
            Kind::CoPurchase => self.co_purchase(),
            kind => self.scan(kind),
        }
    }

    /// Writes that return the graph to its seed size: delete every user
    /// this session created and every `VIEWED` relationship it merged.
    pub fn cleanup(&mut self) -> Vec<Stmt> {
        let mut out: Vec<Stmt> = std::mem::take(&mut self.live_users)
            .into_iter()
            .map(detach_user)
            .collect();
        out.extend(
            std::mem::take(&mut self.live_viewed)
                .into_iter()
                .map(|(u, p)| unview(u, p)),
        );
        out
    }

    fn point_read(&mut self) -> Stmt {
        let u = self.rng.pick(&self.catalog.users);
        Stmt {
            text: format!("MATCH (u:User {{id: {u}}}) RETURN u.name AS name"),
            write: false,
            check: Check::Name(format!("user-{u}")),
            probe: false,
        }
    }

    fn expand_read(&mut self) -> Stmt {
        let u = self.rng.pick(&self.catalog.buyers);
        Stmt {
            text: format!(
                "MATCH (u:User {{id: {u}}})-[:ORDERED]->(p:Product) \
                 RETURN p.id AS product, p.price AS price"
            ),
            write: false,
            check: Check::NonEmpty,
            probe: false,
        }
    }

    fn co_purchase(&mut self) -> Stmt {
        let u = self.rng.pick(&self.catalog.co_buyers);
        oracle_read(format!(
            "MATCH (u:User {{id: {u}}})-[:ORDERED]->(:Product)<-[:ORDERED]-(o:User) \
             RETURN o.id AS other, count(*) AS n ORDER BY n DESC, other LIMIT 10"
        ))
    }

    fn scan(&mut self, kind: Kind) -> Stmt {
        // Thresholds stay below the top price band, so every scan has
        // rows; the small set keeps the oracle cache small.
        let t = 1_500 + 50 * self.rng.below(8);
        oracle_read(if kind == Kind::VendorScan {
            format!(
                "MATCH (v:Vendor)-[:OFFERS]->(p:Product) WHERE p.price > {t} \
                 RETURN v.name AS vendor, p.name AS product ORDER BY vendor, product LIMIT 50"
            )
        } else {
            format!(
                "MATCH (u:User)-[:ORDERED]->(p:Product) WHERE p.price > {t} \
                 RETURN count(p) AS n"
            )
        })
    }

    fn write(&mut self) -> Stmt {
        // Kinds whose precondition holds; uniform among them.
        let mut kinds: Vec<u8> = vec![0];
        if self.live_viewed.len() < POOL {
            kinds.push(1);
        }
        if self.live_users.len() < POOL {
            kinds.push(2);
        }
        if !self.live_users.is_empty() {
            kinds.push(3);
        }
        if !self.live_viewed.is_empty() {
            kinds.push(4);
        }
        match self.rng.pick(&kinds) {
            0 => {
                let u = self.rng.pick(&self.own_users);
                self.sets += 1;
                // Unique per statement, so every SET changes the value.
                let score = self.sets * self.sessions as i64 + self.session as i64;
                Stmt {
                    text: format!("MATCH (u:User {{id: {u}}}) SET u.score = {score}"),
                    write: true,
                    check: Check::Stats(SET),
                    probe: true,
                }
            }
            1 => {
                let (u, p) = loop {
                    let pair = (
                        self.rng.pick(&self.own_users),
                        self.rng.pick(&self.catalog.products),
                    );
                    if !self.live_viewed.contains(&pair) {
                        break pair;
                    }
                };
                self.live_viewed.push((u, p));
                Stmt {
                    text: format!(
                        "MATCH (u:User {{id: {u}}}), (p:Product {{id: {p}}}) \
                         MERGE SAME (u)-[:VIEWED]->(p)"
                    ),
                    write: true,
                    check: Check::Stats(MERGE),
                    probe: false,
                }
            }
            2 => {
                let id = CREATED_BASE + self.created * self.sessions as i64 + self.session as i64;
                self.created += 1;
                self.live_users.push(id);
                Stmt {
                    text: format!("CREATE (:User {{id: {id}, name: 'temp-{id}'}})"),
                    write: true,
                    check: Check::Stats(CREATE),
                    probe: true,
                }
            }
            3 => {
                let i = self.rng.below(self.live_users.len());
                detach_user(self.live_users.swap_remove(i))
            }
            _ => {
                let i = self.rng.below(self.live_viewed.len());
                let (u, p) = self.live_viewed.swap_remove(i);
                unview(u, p)
            }
        }
    }
}

fn oracle_read(text: String) -> Stmt {
    Stmt {
        text,
        write: false,
        check: Check::Oracle,
        probe: false,
    }
}

fn detach_user(id: i64) -> Stmt {
    Stmt {
        text: format!("MATCH (u:User {{id: {id}}}) DETACH DELETE u"),
        write: true,
        check: Check::Stats(DETACH),
        probe: true,
    }
}

fn unview(u: i64, p: i64) -> Stmt {
    Stmt {
        text: format!("MATCH (:User {{id: {u}}})-[r:VIEWED]->(:Product {{id: {p}}}) DELETE r"),
        write: true,
        check: Check::Stats(UNVIEW),
        probe: false,
    }
}

/// The live view each session's probe writes change: the session's own
/// users with their scores (`SET`, `CREATE` and `DETACH DELETE` move it;
/// `VIEWED` writes do not).
pub fn probe_view(session: usize, sessions: usize) -> String {
    format!(
        "MATCH (u:User) WHERE u.id % {sessions} = {session} RETURN u.id AS id, u.score AS score"
    )
}

/// Views every write session feeds: viewers per product and per vendor.
pub const FLEET_VIEWS: [&str; 2] = [
    "MATCH (u:User)-[:VIEWED]->(p:Product) RETURN p.id AS product, count(u) AS viewers",
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:VIEWED]-(u:User) \
     RETURN v.id AS vendor, count(u) AS views",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;
    use cypher_core::Engine;
    use std::sync::Arc;

    fn small() -> (PropertyGraph, Arc<Catalog>) {
        let w = by_name("quorum_views_small").expect("workload exists");
        let g = crate::workload::seed_graph(&w, None);
        let cat = Arc::new(Catalog::of(&g));
        (g, cat)
    }

    fn stream(name: &str, seed: u64, n: usize, cat: &Arc<Catalog>) -> Vec<String> {
        let w = by_name(name).expect("workload exists");
        let mut out = Vec::new();
        for s in 0..2 {
            let mut gen = SessionGen::new(&w, seed, s, 2, Arc::clone(cat));
            out.extend((0..n).map(|_| gen.next_stmt().text));
            out.extend(gen.cleanup().into_iter().map(|s| s.text));
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let (_, cat) = small();
        for name in ["oltp_100k", "quorum_views_small", "traverse_10k"] {
            let a = stream(name, 7, 500, &cat).join("\n");
            let b = stream(name, 7, 500, &cat).join("\n");
            assert_eq!(a.as_bytes(), b.as_bytes(), "{name}");
            assert_ne!(a, stream(name, 8, 500, &cat).join("\n"), "{name}");
        }
    }

    #[test]
    fn catalog_uses_the_generator_id_ranges() {
        let (_, cat) = small();
        assert_eq!(cat.users.first(), Some(&0));
        assert_eq!(cat.products.first(), Some(&10_000));
        assert!(!cat.buyers.is_empty() && !cat.co_buyers.is_empty());
    }

    /// Replaying both sessions' streams plus their cleanup leaves the seed
    /// graph's node and relationship counts, and every statement meets its
    /// check on the way.
    #[test]
    fn write_mix_is_size_neutral_and_meets_its_checks() {
        let (mut g, cat) = small();
        let (nodes, rels) = (g.node_count(), g.rel_count());
        let w = by_name("quorum_views_small").expect("workload exists");
        let engine = Engine::revised();
        let mut gens: Vec<SessionGen> = (0..2)
            .map(|s| SessionGen::new(&w, 3, s, 2, Arc::clone(&cat)))
            .collect();
        let mut writes = 0;
        for i in 0..2_000 {
            let st = gens[i % 2].next_stmt();
            let res = engine.run(&mut g, &st.text).expect("statement runs");
            assert!(meets(&st.check, &res), "{} -> {:?}", st.text, res.stats);
            writes += usize::from(st.write);
        }
        assert!(writes > 300, "the mix writes");
        for gen in &mut gens {
            for st in gen.cleanup() {
                let res = engine.run(&mut g, &st.text).expect("cleanup runs");
                assert!(meets(&st.check, &res), "{}", st.text);
            }
        }
        assert_eq!((g.node_count(), g.rel_count()), (nodes, rels));
    }

    fn meets(check: &Check, res: &cypher_core::QueryResult) -> bool {
        let s = &res.stats;
        let counters = [
            s.nodes_created,
            s.rels_created,
            s.nodes_deleted,
            s.rels_deleted,
            s.props_set,
            s.labels_added,
            s.labels_removed,
        ]
        .map(|c| c as u64);
        crate::live::check_answer(check, &res.columns, &res.rows, counters).is_ok()
    }
}
