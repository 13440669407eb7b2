//! Seeded request streams: the whole input of a serving workload is a pure
//! function of the snapshot and the seed.
//!
//! Every request is kept as the exact HTTP bytes the client writes, so the
//! in-process replay parses the very bytes the server parsed.

use cnp_serve::{wire, ListOptions, PageRequest, Query, TagOptions};
use cnp_server::http;
use cnp_taxonomy::{DeltaOverlay, FrozenTaxonomy, IsAMeta, Source};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The Table II read mix on `/v1/query`, with its relative weights.
pub const OPS: [&str; 7] = [
    "men2ent",
    "getConceptByMention",
    "getEntity",
    "getConcept",
    "mentionSenses",
    "isA",
    "ancestorsOf",
];
const WEIGHTS: [u32; 7] = [30, 20, 20, 10, 10, 5, 5];

/// Entities each ingest delta adds.
pub const DELTA_ENTITIES: usize = 8;

/// The exponent `s` of the Zipf key popularity: the key of rank `r` (from
/// 0) is drawn with weight `1 / (r + 1)^s`. 0.99 is YCSB's default request
/// distribution; `NOTES.md` gives its basis and how much it matters.
pub const ZIPF_EXPONENT: f64 = 0.99;

/// Draws indices `0..n` either uniformly or Zipf-skewed
/// ([`ZIPF_EXPONENT`]) over a seeded permutation, so the hot keys are not
/// simply the lowest ids.
#[derive(Debug, Clone)]
struct Picker {
    order: Vec<usize>,
    cdf: Option<Vec<f64>>,
}

impl Picker {
    fn new(n: usize, zipf: bool, rng: &mut StdRng) -> Picker {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let cdf = zipf.then(|| {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (0..n)
                .map(|rank| {
                    acc += ((rank + 1) as f64).powf(-ZIPF_EXPONENT);
                    acc
                })
                .collect();
            for c in &mut cdf {
                *c /= acc;
            }
            cdf
        });
        Picker { order, cdf }
    }

    fn pick(&self, rng: &mut StdRng) -> usize {
        let rank = match &self.cdf {
            Some(cdf) => {
                let u: f64 = rng.gen();
                cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
            }
            None => rng.gen_range(0..self.order.len()),
        };
        self.order[rank]
    }
}

/// The snapshot vocabulary the streams draw keys from: every entity with a
/// concept and every concept with an entity — the whole snapshot, not a
/// capped probe list.
#[derive(Debug, Clone)]
pub struct Vocab {
    pub mentions: Vec<String>,
    pub keys: Vec<String>,
    pub concepts: Vec<String>,
}

impl Vocab {
    pub fn from_frozen(f: &FrozenTaxonomy) -> Vocab {
        let mut mentions = Vec::new();
        let mut keys = Vec::new();
        for e in f.entity_ids() {
            if f.concepts_of(e).is_empty() {
                continue;
            }
            mentions.push(f.resolve(f.entity(e).name).to_string());
            keys.push(f.entity_key(e));
        }
        let concepts = f
            .concept_ids()
            .filter(|&c| !f.entities_of(c).is_empty())
            .map(|c| f.concept_name(c).to_string())
            .collect();
        Vocab {
            mentions,
            keys,
            concepts,
        }
    }
}

/// Draws lookup queries and tag documents from a [`Vocab`]. Lookup keys
/// follow the workload's skew; document mentions are always uniform.
struct Generator<'a> {
    vocab: &'a Vocab,
    mentions: Picker,
    keys: Picker,
    concepts: Picker,
    doc_mentions: Picker,
}

impl<'a> Generator<'a> {
    fn new(vocab: &'a Vocab, zipf: bool, rng: &mut StdRng) -> Generator<'a> {
        Generator {
            vocab,
            mentions: Picker::new(vocab.mentions.len(), zipf, rng),
            keys: Picker::new(vocab.keys.len(), zipf, rng),
            concepts: Picker::new(vocab.concepts.len(), zipf, rng),
            doc_mentions: Picker::new(vocab.mentions.len(), false, rng),
        }
    }

    fn mention(&self, rng: &mut StdRng) -> String {
        self.vocab.mentions[self.mentions.pick(rng)].clone()
    }

    fn concept(&self, rng: &mut StdRng) -> String {
        self.vocab.concepts[self.concepts.pick(rng)].clone()
    }

    /// One query of the read mix; returns its [`OPS`] index too.
    fn lookup(&self, rng: &mut StdRng) -> (usize, Query) {
        let total: u32 = WEIGHTS.iter().sum();
        let mut roll = rng.gen_range(0..total);
        let mut op = 0;
        for (i, w) in WEIGHTS.iter().enumerate() {
            if roll < *w {
                op = i;
                break;
            }
            roll -= w;
        }
        let query = match op {
            0 => Query::men2ent(self.mention(rng)),
            1 => Query::GetConceptByMention {
                mention: self.mention(rng),
                options: ListOptions::transitive(),
            },
            2 => Query::GetEntity {
                concept: self.concept(rng),
                options: ListOptions::transitive().with_page(PageRequest::first(10)),
            },
            3 => Query::GetConcept {
                entity: self.vocab.keys[self.keys.pick(rng)].clone(),
                options: ListOptions::transitive(),
            },
            4 => Query::MentionSenses {
                mention: self.mention(rng),
            },
            5 => Query::IsA {
                sub: self.mention(rng),
                sup: self.concept(rng),
                transitive: true,
            },
            _ => Query::AncestorsOf {
                concept: self.concept(rng),
            },
        };
        (op, query)
    }

    /// A document of 2–4 uniformly drawn snapshot mentions stitched
    /// together.
    fn document(&self, rng: &mut StdRng) -> Query {
        let n = rng.gen_range(2..=4);
        let mut text = String::new();
        for k in 0..n {
            if k > 0 {
                text.push_str(if k % 2 == 0 { "和" } else { "、" });
            }
            text.push_str(&self.vocab.mentions[self.doc_mentions.pick(rng)]);
        }
        text.push('。');
        Query::Tag {
            text,
            options: TagOptions::default(),
        }
    }
}

/// What a request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `/v1/query` read; the [`OPS`] index.
    Lookup(u8),
    /// A `/v1/tag` document.
    Tag,
    /// A `/admin/ingest` delta; its index in [`Stream::deltas`].
    Ingest(u32),
}

impl Kind {
    pub fn is_read(self) -> bool {
        !matches!(self, Kind::Ingest(_))
    }
}

/// The shape of a serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Offered requests per second over both connections.
    pub rate: f64,
    /// Share of read requests that are tag documents.
    pub tag_share: f64,
    /// Zipf-skewed lookup keys (`true`) or uniform ones.
    pub zipf: bool,
    /// Every this many slots of connection 0 is an ingest post (`0`: none).
    pub ingest_every: usize,
}

/// A seeded, scheduled request stream for two connections: request `i`
/// goes out on connection `i % 2` at `due_ns[i]` after the start.
#[derive(Debug, Default)]
pub struct Stream {
    pub kinds: Vec<Kind>,
    pub due_ns: Vec<u64>,
    raw: Vec<u8>,
    spans: Vec<(usize, usize)>,
    /// The `(entity, concept)` pairs each ingest delta adds.
    pub deltas: Vec<Vec<(String, String)>>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// The HTTP request bytes of request `i`.
    pub fn raw(&self, i: usize) -> &[u8] {
        let (start, len) = self.spans[i];
        &self.raw[start..start + len]
    }

    fn push(&mut self, kind: Kind, due_ns: u64, path: &str, body: &[u8]) {
        let start = self.raw.len();
        http::write_request(&mut self.raw, "POST", path, Some(body), true)
            .expect("writing into a Vec cannot fail");
        self.spans.push((start, self.raw.len() - start));
        self.kinds.push(kind);
        self.due_ns.push(due_ns);
    }

    pub fn count(&self, pred: impl Fn(Kind) -> bool) -> usize {
        self.kinds.iter().filter(|&&k| pred(k)).count()
    }
}

/// The `k`-th ingest delta of a stream: [`DELTA_ENTITIES`] fresh entities,
/// each filed under an existing concept. Names carry `tag`, the seed and
/// `k`, so no two deltas of any stream collide.
pub fn delta(
    vocab: &Vocab,
    tag: &str,
    seed: u64,
    k: usize,
) -> (DeltaOverlay, Vec<(String, String)>) {
    let mut delta = DeltaOverlay::new();
    let mut added = Vec::with_capacity(DELTA_ENTITIES);
    for j in 0..DELTA_ENTITIES {
        let name = format!("基准{tag}实体{seed}_{k}_{j}");
        let concept = vocab.concepts[(k * DELTA_ENTITIES + j * 7) % vocab.concepts.len()].clone();
        delta.add_entity(&name, None);
        delta.upsert_entity_is_a(
            &name,
            None,
            &concept,
            IsAMeta::new(Source::Import, 0.5 + (j as f32) * 0.05),
        );
        added.push((name, concept));
    }
    (delta, added)
}

/// Builds `count` requests of `shape` from `seed`, due at the offered rate.
/// `label` keeps the timed and the warm-up stream of one run distinct.
pub fn generate(vocab: &Vocab, shape: Shape, seed: u64, label: u64, count: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ label);
    let gen = Generator::new(vocab, shape.zipf, &mut rng);
    let mut stream = Stream::default();
    let spacing_ns = 1e9 / shape.rate;
    for i in 0..count {
        let due = (i as f64 * spacing_ns) as u64;
        let conn0_slot = i / 2;
        if shape.ingest_every > 0
            && i % 2 == 0
            && conn0_slot % shape.ingest_every == shape.ingest_every - 1
        {
            let k = stream.deltas.len();
            let (d, added) = delta(vocab, "流", seed, k);
            stream.deltas.push(added);
            stream.push(Kind::Ingest(k as u32), due, "/admin/ingest", &d.encode());
            continue;
        }
        if rng.gen::<f64>() < shape.tag_share {
            let body = wire::encode_query(&gen.document(&mut rng)).write();
            stream.push(Kind::Tag, due, "/v1/tag", body.as_bytes());
        } else {
            let (op, query) = gen.lookup(&mut rng);
            let body = wire::encode_query(&query).write();
            stream.push(Kind::Lookup(op as u8), due, "/v1/query", body.as_bytes());
        }
    }
    stream
}

/// Lookup queries and tag documents for in-process layer probes.
pub fn probe_queries(
    vocab: &Vocab,
    seed: u64,
    lookups: usize,
    docs: usize,
) -> (Vec<(usize, Query)>, Vec<Query>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5052_4F42_4553);
    let gen = Generator::new(vocab, true, &mut rng);
    let lookups = (0..lookups).map(|_| gen.lookup(&mut rng)).collect();
    let docs = (0..docs).map(|_| gen.document(&mut rng)).collect();
    (lookups, docs)
}
