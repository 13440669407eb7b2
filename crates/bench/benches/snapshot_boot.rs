//! Boot-path comparison: snapshot format v3 vs v1.
//!
//! A production service boots from a snapshot at every deploy and every
//! incremental-rebuild round. The two formats pay very different boot
//! costs:
//!
//! * **v1** persists the mutable `TaxonomyStore`: boot = decode the store,
//!   then a full `FrozenTaxonomy::freeze` (Tarjan SCC condensation, depth
//!   DP, ancestor-closure materialisation + per-row sorts).
//! * **v3** persists the varint/delta-encoded view format: boot = open a
//!   borrowed `FrozenTaxonomyView` over the buffer — structural
//!   validation over raw bytes, zero per-section allocation.
//!
//! The one-shot comparison printed before the Criterion groups makes the
//! winner (boot time and bytes on disk) visible without reading Criterion
//! output.

use cnp_taxonomy::{persist, Bytes, FrozenTaxonomy, FrozenTaxonomyView};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

struct Fixture {
    v1: Vec<u8>,
    v3: Vec<u8>,
}

fn build_fixture() -> Fixture {
    let corpus =
        cnp_encyclopedia::CorpusGenerator::new(cnp_encyclopedia::CorpusConfig::small(7)).generate();
    let outcome = cnp_core::Pipeline::new(cnp_core::PipelineConfig::fast()).run(&corpus);
    let v1 = persist::encode(&outcome.taxonomy).to_vec();
    let v3 = persist::encode_frozen_v3(&outcome.freeze()).to_vec();
    Fixture { v1, v3 }
}

fn boot_v1(bytes: &[u8]) -> FrozenTaxonomy {
    FrozenTaxonomy::freeze(&persist::decode(bytes).expect("v1 decode"))
}

/// The v3 boot path as a file-backed service sees it: the read buffer
/// becomes the backing storage (here a cheap `Bytes` copy stands in for
/// the single `fs::read` allocation), and `open` validates in place.
fn boot_v3_view(bytes: &[u8]) -> FrozenTaxonomyView {
    FrozenTaxonomyView::open(Bytes::copy_from_slice(bytes)).expect("v3 open")
}

fn print_comparison(f: &Fixture) {
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(boot_v1(&f.v1));
    }
    let v1_t = t.elapsed() / reps;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(boot_v3_view(&f.v3));
    }
    let v3_t = t.elapsed() / reps;
    let view = boot_v3_view(&f.v3);
    println!("\n=============== snapshot boot: v3 vs v1 ===============");
    println!(
        "taxonomy: {} entities, {} concepts, {} isA edges",
        view.num_entities(),
        view.num_concepts(),
        view.num_is_a()
    );
    println!(
        "v1 snapshot {:>9} bytes   boot (decode + freeze) {:>10.1?}",
        f.v1.len(),
        v1_t
    );
    println!(
        "v3 snapshot {:>9} bytes   boot (borrowed view)   {:>10.1?}",
        f.v3.len(),
        v3_t
    );
    println!(
        "v3 view boot speedup over v1 {:.2}x",
        v1_t.as_secs_f64() / v3_t.as_secs_f64().max(1e-12)
    );
    println!("=======================================================\n");
}

fn bench(c: &mut Criterion) {
    let f = build_fixture();
    print_comparison(&f);

    let mut group = c.benchmark_group("snapshot_boot");
    group.bench_function("load_v1_then_freeze", |b| {
        b.iter(|| black_box(boot_v1(black_box(&f.v1))))
    });
    group.bench_function("load_v3_view", |b| {
        b.iter(|| black_box(boot_v3_view(black_box(&f.v3))))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
