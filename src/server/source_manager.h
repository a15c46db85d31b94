#ifndef DTDEVOLVE_SERVER_SOURCE_MANAGER_H_
#define DTDEVOLVE_SERVER_SOURCE_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/source.h"
#include "obs/metrics.h"
#include "similarity/score_cache.h"
#include "store/checkpoint.h"
#include "store/wal.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "xml/document.h"

namespace dtdevolve::server {

/// Turns an arbitrary name (DTD or tenant, user-supplied) into a safe
/// single path component. Unsafe characters are flattened to '_', and —
/// because flattening is lossy — any name the sanitizer had to change
/// gets an 8-hex-digit CRC32 of the *original* name appended, so
/// distinct names can never collide on disk ("a/b" and "a_b" used to
/// map to the same snapshot file, silently overwriting each other).
/// Names that are already safe come back verbatim, which keeps every
/// pre-existing on-disk layout valid.
std::string SafeFileComponent(const std::string& name);

/// What to do when a shard's unclassified repository exceeds its quota:
/// drop the oldest documents (the default — a bounded sliding window of
/// recent structure) or the newest (reject-new semantics: the overflow
/// that pushed it past the bound is dropped). Either way the eviction is
/// WAL-logged with explicit ids (store/evict_record.h) so replay
/// reproduces the identical bounded state.
enum class RepositoryQuotaPolicy { kEvictOldest, kRejectNew };

/// Per-tenant quota overrides; negative values inherit the process-wide
/// defaults in `SourceManagerOptions`.
struct TenantQuota {
  double rate = -1.0;            // token-bucket refill, documents/second
  double burst = -1.0;           // token-bucket capacity
  long max_doc_bytes = -1;       // pre-parse document body cap
  long max_repository_docs = -1; // bounded unclassified repository
};

/// Per-shard health: `kOk` serves everything; `kDegraded` means the
/// last WAL append failed (writes are still attempted — one success
/// clears the state); `kReadOnly` means appends failed repeatedly and
/// writes are rejected outright until the recovery probe — a periodic
/// no-op WAL append — succeeds. Reads work in every state.
enum class ShardHealth { kOk = 0, kDegraded = 1, kReadOnly = 2 };

const char* ShardHealthName(ShardHealth health);

/// Configuration of a `SourceManager`. Mirrors the durability half of
/// `ServerOptions`; the HTTP half stays with `IngestServer`.
struct SourceManagerOptions {
  /// Tenant (shard) names. Empty means the single tenant "default",
  /// which runs in backward-compatible mode: unlabeled metrics and
  /// snapshots/WAL directly in `snapshot_dir` / `wal_dir`. Any other
  /// configuration labels every per-shard metric with {tenant="<name>"}
  /// and gives each shard its own `<dir>/<tenant>/` subdirectory, i.e.
  /// its own WAL + checkpoint lineage.
  std::vector<std::string> tenants;
  /// Scoring threads per apply: the applying thread plus `jobs − 1`
  /// workers of the process-wide pool shared by every shard.
  size_t jobs = 1;
  /// Per-shard pending-document bound (backpressure).
  size_t queue_capacity = 256;
  /// Most documents drained into one `ProcessBatch` round per shard.
  size_t batch_max = 64;
  std::string snapshot_dir;
  std::string wal_dir;
  store::FsyncPolicy fsync_policy = store::FsyncPolicy::kAlways;
  std::chrono::milliseconds fsync_interval{100};
  uint64_t wal_segment_bytes = 8 * 1024 * 1024;
  /// Cadence of the (single, manager-wide) periodic checkpoint thread;
  /// zero disables it.
  std::chrono::milliseconds checkpoint_interval{30000};
  bool checkpoint_on_shutdown = true;
  /// When > 0, a shard whose repository reaches this many documents
  /// (and has no candidates pending) runs `InduceCandidates` after the
  /// batch that crossed the threshold — proposals only; accepting stays
  /// an explicit admin decision.
  size_t auto_induce_threshold = 0;

  // --- Per-tenant quota defaults (0 = unlimited) ---------------------------
  /// Token-bucket ingest rate limit, documents/second per shard.
  double tenant_rate = 0.0;
  /// Token-bucket capacity; 0 derives max(1, tenant_rate).
  double tenant_burst = 0.0;
  /// Largest accepted document body, checked before parsing.
  size_t max_doc_bytes = 0;
  /// Unclassified-repository bound per shard; enforcement per
  /// `repository_policy`, WAL-logged as eviction records.
  size_t max_repository_docs = 0;
  RepositoryQuotaPolicy repository_policy = RepositoryQuotaPolicy::kEvictOldest;
  /// Named overrides of the defaults above.
  std::map<std::string, TenantQuota> tenant_quotas;

  /// Cadence of the recovery probe that retries a WAL append on
  /// degraded/read-only shards; zero disables it.
  std::chrono::milliseconds health_probe_interval{200};
};

/// Owns N independent `XmlSource` shards — one per tenant — and runs
/// the full per-shard pipeline lifecycle that used to live inside
/// `IngestServer`: recovery on `Start`, run-to-completion ingest (the
/// enqueuing thread applies a document itself when its shard is idle)
/// with a bounded queue drained by a dedicated worker per shard for the
/// backlog that builds while the shard is busy, periodic checkpointing,
/// graceful drain, and snapshot/checkpoint on shutdown.
///
/// What is per shard (fully independent between tenants):
///   * the `XmlSource` (DTD set, repository, counters),
///   * the WAL + checkpoint lineage (`wal_dir/<tenant>/`),
///   * the ingest queue, its worker thread, and the `ingest_order_mutex`
///     that makes LSN order equal apply order — so two tenants' writes
///     never serialize against each other,
///   * the per-DTD ingest/evolution tallies and recovery report.
///
/// What is shared process-wide:
///   * the scoring `ThreadPool` of `jobs − 1` workers, which help the
///     applying thread (`ParallelFor` tracks completion per call, so
///     concurrent shard batches don't starve each other),
///   * the `SymbolTable` label interner (process-global by design),
///   * one `SubtreeScoreCache` — safe across shards because entries are
///     keyed by evaluator epoch, and epochs are globally unique.
///
/// Thread-safety: `AddDtdText` / `AddTenantDtdText` before `Start`;
/// `Enqueue` and every read accessor afterwards from any thread;
/// `Drain` once, after the caller has stopped producing documents.
class SourceManager {
 public:
  /// Completion channel of a `wait`-mode enqueue. A caller may either
  /// block on `cv` or register `on_done` (under `mutex`, after checking
  /// `done` — the outcome may already have landed, and has whenever
  /// `Enqueue` applied the document inline): the worker invokes it
  /// exactly once, outside the lock, after publishing the outcome. The
  /// event-loop server uses the callback so a queued wait-mode ingest
  /// never parks the loop thread.
  struct IngestWaiter {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    core::XmlSource::ProcessOutcome outcome;
    std::function<void()> on_done;
  };

  enum class EnqueueCode {
    kOk,
    kUnknownTenant,  // explicit tenant that no shard matches
    kQueueFull,      // shard at queue_capacity — back off and retry
    kWalError,       // WAL append failed — NOT acked, shard degraded
    kRateLimited,    // token bucket empty — retry after the advertised delay
    kReadOnly,       // shard in read-only health state — writes rejected
  };

  struct EnqueueResult {
    EnqueueCode code = EnqueueCode::kOk;
    /// The shard that accepted (or rejected) the document — for
    /// anonymous traffic, the routing decision.
    std::string tenant;
    /// Failure detail for `kWalError`.
    std::string error;
    /// Non-null iff `wait` was requested and the enqueue succeeded.
    std::shared_ptr<IngestWaiter> waiter;
  };

  struct TenantDtdStats {
    std::string name;
    uint64_t documents_recorded = 0;
    double mean_divergence = 0.0;
    uint64_t documents_ingested = 0;
    uint64_t evolutions = 0;
  };

  struct TenantStats {
    std::string tenant;
    uint64_t documents_processed = 0;
    uint64_t documents_classified = 0;
    size_t repository_size = 0;
    uint64_t evolutions_performed = 0;
    // Repository clustering / induction (zeros when clustering is off).
    size_t cluster_count = 0;
    size_t largest_cluster = 0;
    size_t candidates_pending = 0;
    uint64_t candidates_proposed = 0;
    uint64_t candidates_accepted = 0;
    uint64_t candidates_rejected = 0;
    std::vector<TenantDtdStats> dtds;
  };

  /// One pending candidate, as served by `GET /dtds/candidates`.
  struct CandidateInfo {
    uint64_t id = 0;
    std::string name;
    size_t members = 0;
    size_t validated = 0;
    double coverage = 0.0;
    double margin = 0.0;
    /// The proposed declarations, as DTD text.
    std::string dtd_text;
  };

  SourceManager(core::SourceOptions source_options,
                SourceManagerOptions options);
  ~SourceManager();

  SourceManager(const SourceManager&) = delete;
  SourceManager& operator=(const SourceManager&) = delete;

  /// Registers a seed DTD on *every* shard. Call before `Start`.
  Status AddDtdText(const std::string& name, std::string_view dtd_text);
  /// Registers a seed DTD on one shard only.
  Status AddTenantDtdText(const std::string& tenant, const std::string& name,
                          std::string_view dtd_text);

  /// Wires metrics into `registry`, creates the storage directories,
  /// recovers every shard (checkpoint + WAL tail, or snapshot restore),
  /// and spawns the per-shard workers plus the checkpoint thread.
  /// Idempotent per shard across a failed-then-retried `Start`: a shard
  /// that already recovered is never replayed a second time.
  Status Start(obs::Registry* registry);

  /// Graceful stop: drains every queue through the loop, joins the
  /// workers and the checkpoint thread, takes the final checkpoint (or
  /// WAL sync) and snapshots, and shuts the pool down. Safe to call
  /// when `Start` never ran or already failed.
  void Drain();

  bool started() const { return started_; }

  /// Pauses / resumes applying on every shard, between batches: while
  /// paused, every document queues (none is applied inline) until
  /// `ResumeIngest` hands the backlog to the worker.
  void PauseIngest();
  void ResumeIngest();

  /// Routes and enqueues one parsed document. `tenant` empty means
  /// anonymous traffic: with a single shard it goes there; with a shard
  /// literally named "default" it goes there; otherwise the root
  /// element tag picks a shard on a consistent-hash ring (stable under
  /// tenant-set growth for most keys). `raw_body` is what the WAL
  /// records (replay re-parses it). When the shard is idle — not paused
  /// or draining, nothing queued, nothing being applied — the calling
  /// thread applies the document before returning (a `wait` waiter is
  /// then already done); otherwise the document queues for the worker.
  EnqueueResult Enqueue(const std::string& tenant, xml::Document doc,
                        const std::string& raw_body, bool wait);
  /// Streaming twin: enqueues an arena-parsed document. The worker
  /// drains all-arena batches through the memo-first arena
  /// `ProcessBatch`, so repeated structures never materialize a DOM.
  EnqueueResult Enqueue(const std::string& tenant, xml::ArenaDocument doc,
                        const std::string& raw_body, bool wait);

  /// True when ingest should parse through the streaming reader
  /// (`SourceOptions::streaming_parse`) — the HTTP layer picks its
  /// parser off this.
  bool streaming_ingest() const { return source_options_.streaming_parse; }

  /// Pre-parse admission check for one document body: true when `bytes`
  /// fits the resolved tenant's document-size quota. A rejection counts
  /// on the tenant's too-large counter. Anonymous traffic that cannot be
  /// resolved to a shard before parsing is checked against the
  /// process-wide default.
  bool AdmitDocSize(const std::string& tenant, size_t bytes);

  /// One tenant's health state with its shard name.
  struct ShardHealthInfo {
    std::string tenant;
    ShardHealth health = ShardHealth::kOk;
  };

  /// Health of every shard, in tenant order.
  std::vector<ShardHealthInfo> HealthReport() const;
  /// True when every shard is `kOk` — the write-path readiness signal.
  bool AllShardsOk() const;

  /// True when running in backward-compatible single-"default" mode
  /// (unlabeled metrics, root-level storage directories).
  bool single_default() const { return backcompat_; }

  std::vector<std::string> TenantNames() const;
  bool HasTenant(const std::string& tenant) const;

  /// DTD names of one tenant. Empty `tenant` resolves like anonymous
  /// reads: the single shard, else the shard named "default", else
  /// `kInvalidArgument` ("tenant required"). Unknown tenants are
  /// `kNotFound`.
  StatusOr<std::vector<std::string>> DtdNamesFor(
      const std::string& tenant) const;
  /// Current (possibly evolved) declarations of one DTD, as DTD text.
  StatusOr<std::string> DtdTextFor(const std::string& tenant,
                                   const std::string& name) const;
  /// Stats of one tenant (same resolution rules as `DtdNamesFor`).
  StatusOr<TenantStats> StatsFor(const std::string& tenant) const;
  /// Stats of every tenant, in tenant order.
  std::vector<TenantStats> AllStats() const;

  /// One tenant's retained events from sequence number `since` on (same
  /// resolution rules as `DtdNamesFor`); see `XmlSource::EventsSince`.
  StatusOr<core::EventPage> EventsFor(const std::string& tenant,
                                      uint64_t since) const;

  /// Sets the gauges of the state that grows with traffic — retained
  /// events and cluster groups per shard, memo entries and bytes, score
  /// cache entries — from the live structures. Call before rendering
  /// the registry; a no-op before `Start`.
  void RefreshStateGauges();

  // --- Candidate-DTD induction (admin lifecycle) ---------------------------

  /// Runs `XmlSource::InduceCandidates` on one tenant (same resolution
  /// rules as `DtdNamesFor`); returns how many candidates are pending.
  StatusOr<size_t> InduceTenant(const std::string& tenant);

  /// The pending candidates of one tenant, ascending id.
  StatusOr<std::vector<CandidateInfo>> CandidatesFor(
      const std::string& tenant) const;

  /// Promotes a pending candidate into the tenant's live DTD set. The
  /// accept is WAL-logged (store/induce_record.h) *in LSN order*: new
  /// ingest into the shard is held off while every already-acked
  /// document is applied, then the record is appended and applied — so
  /// crash replay reproduces exactly the live sequence. Every other
  /// pending candidate of the tenant is retired (the set changed under
  /// them); re-run `InduceTenant` for fresh proposals.
  StatusOr<core::XmlSource::AcceptOutcome> AcceptCandidate(
      const std::string& tenant, uint64_t id);

  /// Drops one pending candidate. Not WAL-logged — candidates are
  /// in-memory proposals, recomputable from the repository; only
  /// accepts are durable.
  Status RejectCandidate(const std::string& tenant, uint64_t id);

  /// Writes one atomic snapshot per DTD per shard. No-op without a
  /// snapshot dir.
  Status SnapshotNow();

  /// Checkpoints one tenant and truncates its WAL through the captured
  /// LSN. `captured_lsn` (optional) receives the LSN the checkpoint
  /// actually captured — the caller must track *that*, not the LSN it
  /// sampled before calling, because ingest can race the capture.
  Status CheckpointTenant(const std::string& tenant,
                          uint64_t* captured_lsn = nullptr);
  /// Checkpoints every shard; returns the first error. With several
  /// shards `captured_lsn` is the last shard's (it is only meaningful
  /// in single-tenant mode).
  Status CheckpointAll(uint64_t* captured_lsn = nullptr);

  /// Boot recovery findings of one tenant (empty = first shard).
  const store::RecoveryReport& recovery_report(
      const std::string& tenant = "") const;
  /// Aggregated non-fatal boot findings across every shard.
  const std::vector<std::string>& boot_warnings() const {
    return boot_warnings_;
  }

  /// A shard's source, for quiesced inspection (before `Start` or after
  /// `Drain`); nullptr for unknown tenants. Empty = first shard.
  const core::XmlSource* source(const std::string& tenant = "") const;

  /// Storage locations, mainly for tests asserting the on-disk layout.
  std::string WalDirFor(const std::string& tenant) const;
  std::string SnapshotDirFor(const std::string& tenant) const;

  // --- Replication (primary side) ------------------------------------------

  /// The tenant's latest durable checkpoint as a single transfer blob
  /// (`EncodeCheckpointBlob`), read under the checkpoint mutex so a
  /// concurrent checkpoint can never swap files mid-read. A tenant that
  /// has never checkpointed yields a blob with `lsn == 0` — the follower
  /// then streams the WAL from LSN 1. `kFailedPrecondition` without a
  /// WAL dir.
  StatusOr<std::string> ExportCheckpointFor(const std::string& tenant);

  /// One page of the tenant's WAL from `from_lsn`, read under the
  /// checkpoint mutex (which holds off truncation, so segments cannot
  /// vanish mid-scan; concurrent appends at the tail are fine — a torn
  /// final frame just ends the page). `*wal_next_lsn` (optional)
  /// receives the live log head, for lag math and gap detection.
  StatusOr<store::WalExport> ExportWalFor(const std::string& tenant,
                                          uint64_t from_lsn,
                                          uint64_t max_bytes,
                                          uint64_t* wal_next_lsn = nullptr);

  // --- Replication (follower side) -----------------------------------------

  /// Replaces the tenant's pipeline state with a decoded primary
  /// checkpoint: a fresh source is rebuilt from the shard's seed DTDs,
  /// the checkpoint is applied onto it (`ApplyCheckpointToSource` — the
  /// same function boot recovery uses), and it is swapped in under the
  /// state mutex with `applied_lsn = data.lsn`. Works mid-life too (a
  /// follower that fell behind a truncated primary re-bootstraps).
  Status BootstrapFromCheckpoint(const std::string& tenant,
                                 const store::CheckpointData& data);

  /// Applies one replicated WAL record through the replay dispatch
  /// (ingest document or induce-accept) under the state mutex. Records
  /// at or below `applied_lsn` return false (idempotent re-delivery
  /// after a resume); a gap above `applied_lsn + 1` is an error.
  StatusOr<bool> ApplyReplicated(const std::string& tenant, uint64_t lsn,
                                 std::string_view payload);

  /// Highest LSN folded into the tenant's source (0 for unknown
  /// tenants).
  uint64_t AppliedLsnFor(const std::string& tenant) const;

 private:
  struct PendingDoc {
    /// Exactly one representation is live: `arena` when the streaming
    /// reader parsed the body (`doc` is then an empty placeholder),
    /// else `doc`.
    xml::Document doc;
    std::optional<xml::ArenaDocument> arena;
    std::chrono::steady_clock::time_point enqueued;
    std::shared_ptr<IngestWaiter> waiter;  // null for fire-and-forget
    uint64_t lsn = 0;                      // 0 when the WAL is disabled
  };

  /// One tenant: a full, independent ingest pipeline.
  struct Shard {
    explicit Shard(const core::SourceOptions& source_options)
        : source(std::make_unique<core::XmlSource>(source_options)) {}

    std::string name;
    std::string dir_component;  // SafeFileComponent(name)

    /// Behind a pointer (XmlSource is not movable) so a follower
    /// re-bootstrap can swap in a freshly rebuilt source under
    /// `state_mutex`.
    std::unique_ptr<core::XmlSource> source;
    /// Seed DTDs registered before Start, kept for follower bootstrap
    /// rebuilds.
    std::vector<std::pair<std::string, std::string>> seed_dtds;
    std::unique_ptr<store::Wal> wal;
    store::RecoveryReport recovery_report;
    bool recovered = false;           // WAL recovery already ran
    bool snapshots_restored = false;  // snapshot restore already ran
    bool metrics_wired = false;

    /// Spans capacity check → WAL append → enqueue, so this shard's
    /// apply order is exactly its LSN order. Never held while another
    /// shard's is — tenants don't serialize against each other.
    std::mutex ingest_order_mutex;

    // Resolved quota limits (0 = unlimited; tenant override over the
    // process default, fixed at construction).
    double rate_limit = 0.0;
    double bucket_capacity = 0.0;
    size_t max_doc_bytes = 0;
    size_t max_repository_docs = 0;

    /// Token bucket (guarded by `ingest_order_mutex`, like the rest of
    /// the admission path).
    double tokens = 0.0;
    std::chrono::steady_clock::time_point bucket_refilled;

    /// Health state machine (values of `ShardHealth`): WAL append
    /// failures walk ok → degraded → read_only; one successful append —
    /// live ingest or the recovery probe — resets to ok.
    std::atomic<int> health{0};
    std::atomic<uint64_t> wal_failures{0};  // consecutive

    /// Metric handles wired into `source`, kept so a bootstrap-swapped
    /// replacement source keeps reporting into the same series.
    core::SourceMetrics source_metrics;

    /// Guards `source` and the tallies below.
    mutable std::mutex state_mutex;
    std::map<std::string, uint64_t> ingested_per_dtd;
    std::map<std::string, uint64_t> evolutions_per_dtd;
    uint64_t applied_lsn = 0;  // highest LSN folded into `source`
    /// LSNs of no-op-safe records (evictions, probes) applied ahead of
    /// the contiguous watermark while earlier documents still sat in the
    /// queue; absorbed into `applied_lsn` as the watermark catches up.
    /// Guarded by `state_mutex`.
    std::set<uint64_t> applied_ahead;

    /// Serializes checkpoint I/O (periodic thread vs explicit calls)
    /// and guards `last_checkpoint_lsn`.
    std::mutex checkpoint_mutex;
    uint64_t last_checkpoint_lsn = 0;

    std::mutex queue_mutex;
    std::condition_variable queue_cv;
    std::deque<PendingDoc> queue;
    bool paused = false;
    bool draining = false;
    /// True while some thread — the worker, or a producer applying its
    /// own document inline — is applying documents of this shard. Only
    /// its holder applies, which keeps apply order equal to LSN order.
    /// Guarded by `queue_mutex`.
    bool applying = false;
    std::thread worker;

    // Hot-path metric handles (tenant-labeled unless backcompat).
    obs::Counter* requests_rejected = nullptr;
    obs::Counter* rate_limited = nullptr;
    obs::Counter* doc_too_large = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* read_only_rejected = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* ingest_seconds = nullptr;
    obs::Histogram* batch_seconds = nullptr;
    obs::Counter* inline_applies = nullptr;
    obs::Histogram* inline_apply_seconds = nullptr;
    obs::Gauge* degraded = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* checkpoint_errors = nullptr;
    obs::Gauge* checkpoint_lsn_gauge = nullptr;
    obs::Counter* snapshots_quarantined = nullptr;
    obs::Gauge* events_retained = nullptr;
    obs::Gauge* cluster_groups = nullptr;
  };

  Shard* FindShard(const std::string& tenant);
  const Shard* FindShard(const std::string& tenant) const;
  /// Read-path resolution: explicit name, else the single shard, else
  /// the shard named "default", else nullptr (ambiguous).
  const Shard* ResolveReadShard(const std::string& tenant) const;
  /// Same resolution, mutable — the admin (induce/accept/reject) paths.
  Shard* ResolveWriteShard(const std::string& tenant);
  /// Maps the shared nullptr-shard outcome of the resolvers to the
  /// status `DtdNamesFor` documents.
  static Status UnresolvedTenantError(const std::string& tenant);
  /// Ingest routing: like ResolveReadShard but anonymous traffic with
  /// no "default" shard falls through to the consistent-hash ring
  /// (keyed by the document's root tag).
  Shard* RouteIngest(const std::string& tenant, std::string_view root_tag);

  /// Representation-independent tail of `Enqueue`: admission, WAL
  /// append and queue insertion for an already-built `PendingDoc`.
  EnqueueResult EnqueuePending(const std::string& tenant, PendingDoc pending,
                               std::string_view root_tag,
                               const std::string& raw_body, bool wait);

  Status StartShard(Shard& shard, obs::Registry* registry);
  void WireShardMetrics(Shard& shard, obs::Registry* registry);
  Status RestoreShardSnapshots(Shard& shard);
  Status SnapshotShard(Shard& shard);
  Status CheckpointShard(Shard& shard, uint64_t* captured_lsn);
  void IngestWorker(Shard& shard);
  /// Applies one document on the calling thread, which holds `applying`
  /// (set by `EnqueuePending`), then releases it, wakes the worker if a
  /// backlog built up meanwhile, and completes the document's waiter.
  void ApplyInline(Shard& shard, PendingDoc pending);
  /// Applies `pending` (its documents are moved out) to the shard's
  /// source, in order; the caller holds `applying`.
  std::vector<core::XmlSource::ProcessOutcome> ProcessPending(
      Shard& shard, std::vector<PendingDoc>& pending);
  /// Publishes each outcome to its document's waiter, if any.
  static void CompleteWaiters(
      const std::vector<PendingDoc>& pending,
      const std::vector<core::XmlSource::ProcessOutcome>& outcomes);
  void CheckpointLoop();
  /// Notes a WAL append failure on `shard`: increments the consecutive
  /// failure count and walks the health state machine.
  void NoteWalFailure(Shard& shard);
  /// Notes a successful WAL append: health back to ok.
  void NoteWalSuccess(Shard& shard);
  /// Folds `lsn` into the shard's applied watermark — directly when
  /// contiguous, via `applied_ahead` otherwise. Caller holds
  /// `state_mutex`.
  static void AbsorbAppliedLsn(Shard& shard, uint64_t lsn);
  /// Bounded-repository enforcement after a batch: picks victims per
  /// policy, WAL-logs the eviction, applies it. Caller holds
  /// `state_mutex`.
  void EnforceRepositoryQuota(Shard& shard);
  /// The degraded/read-only recovery probe: appends a no-op (empty
  /// eviction) record; success clears the health state.
  void HealthProbeLoop();
  std::string SnapshotPathFor(const Shard& shard,
                              const std::string& name) const;

  core::SourceOptions source_options_;
  SourceManagerOptions options_;
  bool backcompat_ = false;

  /// Process-wide shared scoring infrastructure.
  std::unique_ptr<similarity::SubtreeScoreCache> shared_cache_;
  /// Process-wide classification memo — one structural-dedup budget for
  /// every shard; safe because entries are keyed by classifier
  /// set-epoch, and epochs are globally unique.
  std::unique_ptr<classify::ClassificationMemo> shared_memo_;
  std::optional<util::ThreadPool> pool_;
  /// Process-wide state gauges (wired in `Start`; null without the
  /// structure they measure).
  obs::Gauge* memo_entries_ = nullptr;
  obs::Gauge* memo_bytes_ = nullptr;
  obs::Gauge* score_cache_entries_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, Shard*> by_name_;
  Shard* default_shard_ = nullptr;  // the shard named "default", if any
  /// Consistent-hash ring: 64 virtual points per shard, keyed by the
  /// document's root element tag for anonymous multi-tenant traffic.
  std::vector<std::pair<uint32_t, Shard*>> ring_;

  bool started_ = false;
  std::vector<std::string> boot_warnings_;

  std::thread checkpoint_thread_;
  std::mutex checkpoint_wake_mutex_;
  std::condition_variable checkpoint_wake_cv_;
  bool checkpoint_stop_ = false;

  std::thread health_thread_;
  std::mutex health_wake_mutex_;
  std::condition_variable health_wake_cv_;
  bool health_stop_ = false;
};

}  // namespace dtdevolve::server

#endif  // DTDEVOLVE_SERVER_SOURCE_MANAGER_H_
