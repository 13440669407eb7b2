//! [`TaxonomyService`]: generation-managed query execution with
//! zero-downtime snapshot hot-swap.

use crate::exec;
use crate::query::Query;
use crate::response::QueryResponse;
use cnp_runtime::Runtime;
use cnp_tag::TagIndex;
use cnp_taxonomy::persist::PersistError;
use cnp_taxonomy::{
    BootSnapshot, DeltaOverlay, FrozenTaxonomy, IngestDelta, TaxonomyRead, TaxonomyStore,
};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Minimum queries a batch worker must have before another worker is
/// worth spawning: below this, thread hand-off costs more than the
/// queries themselves.
const MIN_BATCH_PER_WORKER: usize = 32;

/// One immutable serving state: a snapshot backend plus its generation
/// number, and the generation's lazily-built tagging index (the
/// vocabulary-seeded segmenter is derived state of the snapshot, so it
/// lives and dies with the generation — the first `Tag`/`Classify` query
/// on a generation pays the build, every later one shares it).
#[derive(Debug)]
struct Generation<T> {
    number: u64,
    snapshot: T,
    tag: OnceLock<TagIndex>,
}

impl<T> Generation<T> {
    fn new(number: u64, snapshot: T) -> Self {
        Generation {
            number,
            snapshot,
            tag: OnceLock::new(),
        }
    }
}

/// A pinned snapshot generation: queries executed through it all see the
/// same immutable state, no matter how many hot-swaps happen meanwhile.
///
/// Cloning is an `Arc` bump; the underlying snapshot stays alive until the
/// last pin drops, which is exactly the hot-swap draining rule — in-flight
/// work finishes on the generation it pinned.
///
/// The backend `T` is any [`TaxonomyRead`] — the owned [`FrozenTaxonomy`]
/// or the zero-copy `AnySnapshot` view. The default keeps existing
/// `PinnedSnapshot` mentions compiling unchanged.
#[derive(Debug, Clone)]
pub struct PinnedSnapshot<T = FrozenTaxonomy> {
    inner: Arc<Generation<T>>,
}

impl<T: TaxonomyRead> PinnedSnapshot<T> {
    /// The pinned generation number.
    pub fn generation(&self) -> u64 {
        self.inner.number
    }

    /// The pinned snapshot backend.
    pub fn frozen(&self) -> &T {
        &self.inner.snapshot
    }

    /// Executes one query on the pinned generation — lock-free: the
    /// snapshot is immutable and the executor takes `&self` only. (The
    /// first tagging query on a generation races benignly on the
    /// `OnceLock`-guarded index build; everything else is `&`-only.)
    pub fn execute(&self, query: &Query) -> QueryResponse {
        exec::execute(&self.inner.snapshot, self.inner.number, query, || {
            self.tag_index()
        })
    }

    /// The generation's tagging index, building it on first use.
    pub fn tag_index(&self) -> &TagIndex {
        self.inner
            .tag
            .get_or_init(|| TagIndex::build(&self.inner.snapshot))
    }
}

/// The serving engine of API v1.
///
/// The service holds its snapshot backend behind an atomically swappable
/// `Arc` with a generation counter. Query execution never takes a lock on
/// the data: [`TaxonomyService::execute`] pins the current generation (one
/// brief, uncontended reader-side acquisition to clone the `Arc`) and then
/// runs entirely on the pinned immutable snapshot.
/// [`TaxonomyService::swap`] installs a new generation as a single pointer
/// store — readers never wait on snapshot decode or freeze, in-flight
/// queries drain on the generation they pinned, and every
/// [`QueryResponse`] carries the generation it answered from.
///
/// The backend is generic over [`TaxonomyRead`]: the same service type
/// serves from the owned [`FrozenTaxonomy`] (the default, so existing
/// `TaxonomyService` mentions compile unchanged) or from `AnySnapshot`,
/// the zero-copy view over a v3 snapshot buffer.
///
/// ```
/// use cnp_serve::{Query, Response, TaxonomyService};
/// use cnp_taxonomy::{FrozenTaxonomy, IsAMeta, Source, TaxonomyStore};
///
/// let mut store = TaxonomyStore::new();
/// let zhang = store.add_entity("张学友", None);
/// let singer = store.add_concept("歌手");
/// store.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.9));
///
/// let service = TaxonomyService::from_store(store.clone());
/// assert_eq!(service.generation(), 1);
///
/// // Batches execute on the shared runtime, one pinned generation each.
/// let queries = vec![Query::men2ent("张学友"), Query::men2ent("无此人")];
/// let responses = service.execute_batch(&queries);
/// assert!(matches!(responses[0].result, Ok(Response::Senses(_))));
/// assert!(responses[1].result.is_err()); // unknown ≠ empty
///
/// // Hot-swap: a new snapshot slides in under live traffic.
/// store.add_entity("刘德华", None);
/// assert_eq!(service.swap(FrozenTaxonomy::freeze(&store)), 2);
/// assert_eq!(service.execute(&Query::men2ent("刘德华")).generation, 2);
/// ```
#[derive(Debug)]
pub struct TaxonomyService<T = FrozenTaxonomy> {
    current: RwLock<Arc<Generation<T>>>,
    runtime: Runtime,
    admin: Mutex<()>,
}

impl<T: TaxonomyRead> TaxonomyService<T> {
    /// Boots generation 1 from a snapshot backend, batching on a default
    /// [`Runtime`].
    pub fn new(snapshot: T) -> Self {
        Self::with_runtime(snapshot, Runtime::default())
    }

    /// Boots generation 1 with an explicit batch runtime.
    pub fn with_runtime(snapshot: T, runtime: Runtime) -> Self {
        TaxonomyService {
            // cnp-lint: allow(runtime-owns-concurrency) reason="the hot-swap generation pointer: read-locked for one Arc clone per query, write-locked only by swap(); no compute happens under it"
            current: RwLock::new(Arc::new(Generation::new(1, snapshot))),
            runtime,
            // cnp-lint: allow(runtime-owns-concurrency) reason="admin-plane serialisation only: ingest holds it across pin→fold→swap so concurrent ingests cannot fold from the same parent generation and lose a delta; never touched on the query path"
            admin: Mutex::new(()),
        }
    }

    /// The batch runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Pins the current generation for any number of follow-up queries
    /// that must see one consistent state.
    pub fn pin(&self) -> PinnedSnapshot<T> {
        PinnedSnapshot {
            inner: self.current.read().clone(),
        }
    }

    /// The currently serving generation number.
    pub fn generation(&self) -> u64 {
        self.current.read().number
    }

    /// Executes one query on the current generation.
    pub fn execute(&self, query: &Query) -> QueryResponse {
        self.pin().execute(query)
    }

    /// Executes a batch on worker threads. The whole batch pins **one**
    /// generation (all responses carry the same number), and results come
    /// back in input order.
    ///
    /// The worker count is the runtime's thread budget capped twice: by
    /// the machine's available parallelism (threads beyond the core count
    /// only add contention) and by the batch size at
    /// `MIN_BATCH_PER_WORKER` (32) queries per worker (spawning a thread for
    /// a handful of sub-millisecond queries costs more than running
    /// them). Small batches therefore execute inline on the caller's
    /// thread, and adding threads to the runtime never makes a batch
    /// slower.
    pub fn execute_batch(&self, queries: &[Query]) -> Vec<QueryResponse> {
        let pinned = self.pin();
        let workers = self
            .runtime
            .threads()
            .min(cnp_runtime::default_threads())
            .min(queries.len().div_ceil(MIN_BATCH_PER_WORKER))
            .max(1);
        if workers <= 1 {
            return queries.iter().map(|q| pinned.execute(q)).collect();
        }
        Runtime::new(workers).par_index_map(queries.len(), |i| pinned.execute(&queries[i]))
    }

    /// Atomically installs `snapshot` as the next generation and returns
    /// its number. Queries already in flight finish on the generation they
    /// pinned; queries pinned after this call see the new one. The old
    /// snapshot is freed when its last pin drops.
    pub fn swap(&self, snapshot: T) -> u64 {
        let mut current = self.current.write();
        let number = current.number + 1;
        let old = std::mem::replace(&mut *current, Arc::new(Generation::new(number, snapshot)));
        drop(current);
        // If this was the last reference, the old snapshot (a structure
        // sized for the whole taxonomy) deallocates *after* the write
        // guard is released — readers never wait on the teardown.
        drop(old);
        number
    }

    /// Installs `snapshot` only if the serving generation is still
    /// `expected`; returns the new number, or `None` (discarding
    /// `snapshot`) when another writer got there first. This is the
    /// compare-and-swap background compaction publishes through: a fold
    /// computed from generation N must not clobber deltas ingested into
    /// N+1 while it ran.
    pub fn swap_if_current(&self, expected: u64, snapshot: T) -> Option<u64> {
        let mut current = self.current.write();
        if current.number != expected {
            return None;
        }
        let number = expected + 1;
        let old = std::mem::replace(&mut *current, Arc::new(Generation::new(number, snapshot)));
        drop(current);
        drop(old);
        Some(number)
    }
}

impl<T: TaxonomyRead + IngestDelta> TaxonomyService<T> {
    /// Applies one delta to the current snapshot and swaps the result in
    /// as the next generation, returning its number. Readers never wait:
    /// the fold happens off-lock on the caller's thread, and in-flight
    /// queries drain on the generation they pinned.
    ///
    /// Concurrent ingests are serialised on an admin mutex (never touched
    /// by the query path) so each fold starts from the previous ingest's
    /// result — without it, two ingests could fold from the same parent
    /// and the second swap would silently drop the first delta. A
    /// concurrent *compaction* publishing between our pin and our swap is
    /// tolerated: the overlay we fold carries the full op log over the
    /// older base, which is logically identical to the compacted
    /// generation it replaces.
    pub fn ingest(&self, delta: &DeltaOverlay) -> Result<u64, PersistError> {
        let _admin = self.admin.lock();
        let next = self.pin().frozen().ingest_delta(delta)?;
        Ok(self.swap(next))
    }

    /// Overlay segments accumulated on the serving snapshot (0 for a
    /// fully compacted base — or a backend that materialises on ingest).
    pub fn overlay_depth(&self) -> usize {
        self.pin().frozen().overlay_depth()
    }

    /// Folds the current base + overlays into a fresh base and publishes
    /// it **iff** the serving generation hasn't moved meanwhile (see
    /// [`TaxonomyService::swap_if_current`]). Returns the new generation,
    /// or `None` when there was nothing to compact or the fold lost the
    /// race — both safe to retry later. Designed to run on a background
    /// worker: queries and ingests proceed untouched for the whole fold.
    pub fn compact(&self) -> Result<Option<u64>, PersistError> {
        let pinned = self.pin();
        if pinned.frozen().overlay_depth() == 0 {
            return Ok(None);
        }
        let folded = pinned.frozen().compacted(&self.runtime)?;
        Ok(self.swap_if_current(pinned.generation(), folded))
    }
}

impl<T: TaxonomyRead + BootSnapshot> TaxonomyService<T> {
    /// Boots generation 1 from a v1 or v3 snapshot file, decoding it as
    /// `T` boots: `AnySnapshot` opens v3 zero-copy (a v1 store is frozen
    /// and re-encoded first), `FrozenTaxonomy` pays a freeze for v1 and a
    /// full decode for v3.
    pub fn boot_from_file(path: &Path) -> Result<Self, PersistError> {
        Ok(Self::new(T::boot_from_file(path)?))
    }

    /// Zero-downtime reload: reads and validates the snapshot file
    /// *without holding any lock* — traffic keeps flowing on the old
    /// generation for the whole load — then swaps it in. Returns the new
    /// generation number; on error the service keeps serving unchanged.
    pub fn reload(&self, path: &Path) -> Result<u64, PersistError> {
        let snapshot = T::boot_from_file(path)?;
        Ok(self.swap(snapshot))
    }
}

impl TaxonomyService {
    /// Boots by freezing a finished build store.
    pub fn from_store(store: TaxonomyStore) -> Self {
        Self::new(FrozenTaxonomy::freeze(&store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ListOptions;
    use crate::response::{QueryError, Response};
    use cnp_taxonomy::{persist, AnySnapshot, FrozenTaxonomyView, IsAMeta, OverlayView, Source};

    fn store_a() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", None);
        let singer = s.add_concept("歌手");
        let person = s.add_concept("人物");
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
        s
    }

    fn store_b() -> TaxonomyStore {
        let mut s = store_a();
        let zhang = s.add_entity("张学友", None);
        let singer = s.find_concept("歌手").unwrap();
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.95));
        s
    }

    fn view_of(store: &TaxonomyStore) -> FrozenTaxonomyView {
        let bytes = persist::encode_frozen_v3(&FrozenTaxonomy::freeze(store));
        FrozenTaxonomyView::open(bytes).unwrap()
    }

    #[test]
    fn generations_count_up_from_one() {
        let service = TaxonomyService::from_store(store_a());
        assert_eq!(service.generation(), 1);
        assert_eq!(service.swap(FrozenTaxonomy::freeze(&store_b())), 2);
        assert_eq!(service.swap(FrozenTaxonomy::freeze(&store_a())), 3);
        assert_eq!(service.generation(), 3);
    }

    #[test]
    fn pinned_generation_survives_swaps() {
        let service = TaxonomyService::from_store(store_a());
        let pinned = service.pin();
        service.swap(FrozenTaxonomy::freeze(&store_b()));
        // The pin still answers from generation 1, where 张学友 is unknown.
        let r = pinned.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 1);
        assert!(matches!(r.result, Err(QueryError::UnknownMention(_))));
        // A fresh pin sees generation 2, where the mention resolves.
        let r = service.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 2);
        assert!(matches!(r.result, Ok(Response::Senses(ref s)) if s.len() == 1));
    }

    #[test]
    fn batch_pins_exactly_one_generation() {
        let service =
            TaxonomyService::with_runtime(FrozenTaxonomy::freeze(&store_b()), Runtime::new(4));
        let queries: Vec<Query> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    Query::men2ent("刘德华")
                } else {
                    Query::GetEntity {
                        concept: "人物".to_string(),
                        options: ListOptions::transitive(),
                    }
                }
            })
            .collect();
        let responses = service.execute_batch(&queries);
        assert_eq!(responses.len(), queries.len());
        assert!(responses.iter().all(|r| r.generation == 1));
        assert!(responses.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn tiny_batches_run_inline_regardless_of_runtime_threads() {
        // A batch smaller than MIN_BATCH_PER_WORKER must execute on the
        // caller's thread even when the runtime advertises many workers.
        let service =
            TaxonomyService::with_runtime(FrozenTaxonomy::freeze(&store_b()), Runtime::new(16));
        let queries = vec![Query::men2ent("刘德华"); MIN_BATCH_PER_WORKER];
        let responses = service.execute_batch(&queries);
        assert_eq!(responses.len(), queries.len());
        assert!(responses.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn service_answers_identically_from_view_and_any_backends() {
        let store = store_b();
        let owned = TaxonomyService::from_store(store.clone());
        let view = TaxonomyService::new(view_of(&store));
        // `AnySnapshot` booted from the v1 build store: frozen and
        // re-encoded as v3 on the way in.
        let dir = std::env::temp_dir().join("cnp_serve_any_v1_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b_v1.cnpb");
        persist::save_to_file(&store, &path).unwrap();
        let any = TaxonomyService::<AnySnapshot>::boot_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let queries = [
            Query::men2ent("张学友"),
            Query::men2ent("无此人"),
            Query::GetEntity {
                concept: "人物".to_string(),
                options: ListOptions::transitive(),
            },
        ];
        for q in &queries {
            let a = owned.execute(q);
            let b = view.execute(q);
            let c = any.execute(q);
            assert_eq!(a.result, b.result, "query {q:?}");
            assert_eq!(a.result, c.result, "query {q:?}");
        }
    }

    #[test]
    fn view_backed_service_hot_swaps_and_reloads() {
        let dir = std::env::temp_dir().join("cnp_serve_view_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b_v3.cnpb");
        persist::save_frozen_v3_to_file(&FrozenTaxonomy::freeze(&store_b()), &path).unwrap();
        let service: TaxonomyService<FrozenTaxonomyView> =
            TaxonomyService::new(view_of(&store_a()));
        assert!(service.execute(&Query::men2ent("张学友")).result.is_err());
        assert_eq!(service.reload(&path).unwrap(), 2);
        std::fs::remove_file(&path).ok();
        let r = service.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 2);
        assert!(r.result.is_ok());
    }

    #[test]
    fn reload_errors_keep_serving_unchanged() {
        let service = TaxonomyService::from_store(store_a());
        let err = service.reload(Path::new("/nonexistent/snapshot.cnpb"));
        assert!(err.is_err());
        assert_eq!(service.generation(), 1);
        assert!(service.execute(&Query::men2ent("刘德华")).result.is_ok());
    }

    #[test]
    fn reload_swaps_from_disk() {
        let dir = std::env::temp_dir().join("cnp_serve_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.cnpb");
        persist::save_frozen_v3_to_file(&FrozenTaxonomy::freeze(&store_b()), &path).unwrap();
        let service = TaxonomyService::from_store(store_a());
        assert_eq!(service.reload(&path).unwrap(), 2);
        std::fs::remove_file(&path).ok();
        let r = service.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 2);
        assert!(r.result.is_ok());
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TaxonomyService>();
        assert_send_sync::<PinnedSnapshot>();
        assert_send_sync::<TaxonomyService<AnySnapshot>>();
        assert_send_sync::<TaxonomyService<OverlayView<AnySnapshot>>>();
    }

    fn sample_delta() -> DeltaOverlay {
        let mut d = DeltaOverlay::new();
        d.upsert_entity_is_a("张学友", None, "歌手", IsAMeta::new(Source::Tag, 0.95));
        d
    }

    #[test]
    fn ingest_bumps_generation_and_serves_the_delta() {
        let service = TaxonomyService::new(OverlayView::new(FrozenTaxonomy::freeze(&store_a())));
        assert!(service.execute(&Query::men2ent("张学友")).result.is_err());
        assert_eq!(service.ingest(&sample_delta()).unwrap(), 2);
        assert_eq!(service.overlay_depth(), 1);
        let r = service.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 2);
        assert!(matches!(r.result, Ok(Response::Senses(ref s)) if s.len() == 1));
    }

    #[test]
    fn ingest_pins_drain_on_their_generation() {
        let service = TaxonomyService::new(OverlayView::new(FrozenTaxonomy::freeze(&store_a())));
        let pinned = service.pin();
        service.ingest(&sample_delta()).unwrap();
        // The pre-ingest pin still answers from generation 1.
        let r = pinned.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 1);
        assert!(r.result.is_err());
    }

    #[test]
    fn compaction_folds_overlays_and_keeps_answers() {
        let service = TaxonomyService::new(OverlayView::new(FrozenTaxonomy::freeze(&store_a())));
        service.ingest(&sample_delta()).unwrap();
        let before = service.execute(&Query::men2ent("张学友"));
        assert_eq!(service.compact().unwrap(), Some(3));
        assert_eq!(service.overlay_depth(), 0);
        let after = service.execute(&Query::men2ent("张学友"));
        assert_eq!(after.generation, 3);
        assert_eq!(before.result, after.result);
        // Nothing left to fold: compaction is now a no-op.
        assert_eq!(service.compact().unwrap(), None);
    }

    #[test]
    fn stale_compaction_result_is_discarded() {
        let service = TaxonomyService::new(OverlayView::new(FrozenTaxonomy::freeze(&store_a())));
        service.ingest(&sample_delta()).unwrap();
        let stale = OverlayView::new(FrozenTaxonomy::freeze(&store_a()));
        // A fold published against a generation that has since moved on
        // must be dropped, not installed.
        assert_eq!(service.swap_if_current(1, stale), None);
        assert_eq!(service.generation(), 2);
        assert!(service.execute(&Query::men2ent("张学友")).result.is_ok());
    }
}
