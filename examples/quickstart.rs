//! Quickstart: generate a corpus, build a taxonomy, query the three APIs,
//! and round-trip a binary snapshot.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::taxonomy::{persist, TaxonomyStats};
use cn_probase::ProbaseApi;

fn main() {
    // 1) A small synthetic Chinese encyclopedia (CN-DBpedia stand-in).
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(2024)).generate();
    println!("generated {} encyclopedia pages", corpus.pages.len());

    // 2) Run the CN-Probase generation + verification pipeline.
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    println!("{}", TaxonomyStats::of(&outcome.taxonomy));

    // 3) Persist the build store, then freeze it for serving: the mutable
    //    store is the write side, the frozen snapshot the read side.
    let path = std::env::temp_dir().join("cn_probase_quickstart.cnpb");
    persist::save_to_file(&outcome.taxonomy, &path).expect("save snapshot");

    // 4) Query the three public APIs of Table II off the frozen snapshot.
    let api = ProbaseApi::new(outcome.taxonomy);
    let page = corpus
        .pages
        .iter()
        .find(|p| !corpus.gold.is_concept(&p.name) && !api.men2ent(&p.name).is_empty())
        .expect("a resolvable entity exists");
    println!("\nmen2ent({}):", page.name);
    for sense in api.men2ent(&page.name) {
        println!(
            "  {} -> getConcept: {:?}",
            sense.key,
            api.get_concept(sense.id, true)
        );
    }
    let concept = api
        .frozen()
        .concept_ids()
        .map(|c| api.frozen().concept_name(c).to_string())
        .find(|c| !api.get_entity(c, true, 3).is_empty())
        .expect("a populated concept exists");
    println!(
        "getEntity({concept}, limit 3): {:?}",
        api.get_entity(&concept, true, 3)
    );

    // 5) Reload the persisted snapshot. The file stays in place: a v1
    //    store boots `cnp_server --snapshot <path>` directly.
    let reloaded = persist::load_from_file(&path).expect("load snapshot");
    println!(
        "\nsnapshot round-trip: {} bytes, {} isA relations preserved in {}",
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        reloaded.num_is_a(),
        path.display()
    );
}
