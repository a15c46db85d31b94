// Multi-tenant suite: the SourceManager shard fabric behind the ingest
// server — tenant routing over the HTTP surface, shard isolation,
// consistent anonymous routing, per-tenant metrics labels, concurrent
// cross-tenant ingest over a shared thread pool, and applies split
// between producers (idle shard) and the shard worker (backlog). Heavily
// multi-threaded, so the suite runs under the `concurrency` ctest
// label for TSan runs.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "server/server.h"
#include "server/source_manager.h"
#include "store/wal.h"
#include "workload/generator.h"
#include "workload/mutator.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve::server {
namespace {

const char* kMailDtd = R"(
  <!ELEMENT mail (envelope, body)>
  <!ELEMENT envelope (from, to, subject)>
  <!ELEMENT from (#PCDATA)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT subject (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
)";

const char* kConformingDoc =
    "<mail><envelope><from>a</from><to>b</to><subject>s</subject>"
    "</envelope><body>hello</body></mail>";

const char* kDriftedDoc =
    "<mail><envelope><from>a</from><to>b</to><subject>s</subject>"
    "<cc>c</cc></envelope><body>hello</body>"
    "<attachment>x</attachment></mail>";

struct ClientResponse {
  int status = 0;
  std::string head;
  std::string body;
};

/// One blocking HTTP exchange; `out->status` stays 0 on transport
/// failure (same framing as server_test.cc).
void HttpRoundTrip(uint16_t port, const std::string& request,
                   ClientResponse* out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ADD_FAILURE() << "connect: " << std::strerror(errno);
    ::close(fd);
    return;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ADD_FAILURE() << "send: " << std::strerror(errno);
      ::close(fd);
      return;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[4096];
  while (true) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos || raw.rfind("HTTP/1.1 ", 0) != 0) {
    ADD_FAILURE() << "unframed response: " << raw;
    return;
  }
  out->head = raw.substr(0, split);
  out->body = raw.substr(split + 4);
  out->status = std::atoi(out->head.c_str() + 9);
}

ClientResponse Get(uint16_t port, const std::string& target) {
  ClientResponse response;
  HttpRoundTrip(port,
                "GET " + target +
                    " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                &response);
  return response;
}

ClientResponse Post(uint16_t port, const std::string& target,
                    const std::string& body) {
  ClientResponse response;
  HttpRoundTrip(port,
                "POST " + target +
                    " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body,
                &response);
  return response;
}

core::SourceOptions EvolvingOptions() {
  core::SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.15;
  options.min_documents_before_check = 1;
  return options;
}

ServerOptions TenantOptions(std::vector<std::string> tenants) {
  ServerOptions options;
  options.port = 0;
  options.jobs = 2;
  options.tenants = std::move(tenants);
  return options;
}

/// The `"tenant":"..."` value of an ingest response body.
std::string TenantOf(const ClientResponse& response) {
  const std::string key = "\"tenant\":\"";
  const size_t start = response.body.find(key);
  if (start == std::string::npos) return "";
  const size_t from = start + key.size();
  return response.body.substr(from, response.body.find('"', from) - from);
}

TEST(SourceManagerTest, SafeFileComponentKeepsCollidingNamesDistinct) {
  // Clean names pass through untouched — the single-tenant snapshot
  // layout (`mail.dtdstate`) must not change.
  EXPECT_EQ(SafeFileComponent("mail"), "mail");
  EXPECT_EQ(SafeFileComponent("invoice-v2"), "invoice-v2");
  // Names that sanitize to the same stem must stay distinct files.
  EXPECT_NE(SafeFileComponent("a/b"), SafeFileComponent("a_b"));
  EXPECT_NE(SafeFileComponent("a/b"), SafeFileComponent("a\\b"));
  EXPECT_NE(SafeFileComponent("../x"), SafeFileComponent("__/x"));
  // Sanitized output never re-introduces path separators.
  EXPECT_EQ(SafeFileComponent("a/b").find('/'), std::string::npos);
}

TEST(SourceManagerTest, TenantRoutingAndEndpointSurface) {
  IngestServer server(EvolvingOptions(), TenantOptions({"alpha", "beta"}));
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  ClientResponse tenants = Get(server.port(), "/tenants");
  EXPECT_EQ(tenants.status, 200);
  EXPECT_NE(tenants.body.find("\"alpha\""), std::string::npos);
  EXPECT_NE(tenants.body.find("\"beta\""), std::string::npos);

  // Path routing: evolve alpha's DTD only.
  ASSERT_EQ(Post(server.port(), "/ingest/alpha?wait=1", kConformingDoc).status,
            200);
  ClientResponse drifted =
      Post(server.port(), "/ingest/alpha?wait=1", kDriftedDoc);
  ASSERT_EQ(drifted.status, 200);
  EXPECT_EQ(TenantOf(drifted), "alpha");
  EXPECT_NE(drifted.body.find("\"evolved\":true"), std::string::npos);

  // Query routing is the equivalent spelling.
  ClientResponse beta_post =
      Post(server.port(), "/ingest?tenant=beta&wait=1", kConformingDoc);
  ASSERT_EQ(beta_post.status, 200);
  EXPECT_EQ(TenantOf(beta_post), "beta");

  // Unknown tenants are a routing 404, not a silent default.
  EXPECT_EQ(Post(server.port(), "/ingest/nope", kConformingDoc).status, 404);
  EXPECT_EQ(Get(server.port(), "/stats?tenant=nope").status, 404);

  // Shard isolation: alpha evolved, beta's DTD is still the seed.
  ClientResponse alpha_dtd = Get(server.port(), "/dtds/mail?tenant=alpha");
  EXPECT_EQ(alpha_dtd.status, 200);
  EXPECT_NE(alpha_dtd.body.find("attachment"), std::string::npos);
  ClientResponse beta_dtd = Get(server.port(), "/dtds/mail?tenant=beta");
  EXPECT_EQ(beta_dtd.status, 200);
  EXPECT_EQ(beta_dtd.body.find("attachment"), std::string::npos);

  // Per-tenant stats, and the multi-tenant aggregate with rollup.
  ClientResponse alpha_stats = Get(server.port(), "/stats?tenant=alpha");
  EXPECT_NE(alpha_stats.body.find("\"tenant\":\"alpha\""), std::string::npos);
  EXPECT_NE(alpha_stats.body.find("\"documents_processed\":2"),
            std::string::npos);
  ClientResponse aggregate = Get(server.port(), "/stats");
  EXPECT_NE(aggregate.body.find("\"documents_processed\":3"),
            std::string::npos);
  EXPECT_NE(aggregate.body.find("\"tenants\":{"), std::string::npos);
  EXPECT_NE(aggregate.body.find("\"beta\":{"), std::string::npos);

  // /dtds with no tenant rolls up every shard's list.
  ClientResponse dtds = Get(server.port(), "/dtds");
  EXPECT_NE(dtds.body.find("\"alpha\":[\"mail\"]"), std::string::npos);
  EXPECT_NE(dtds.body.find("\"beta\":[\"mail\"]"), std::string::npos);

  // Shard series carry the tenant label; the shard-count gauge is
  // process-wide.
  ClientResponse metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.body.find(
                "dtdevolve_documents_processed_total{tenant=\"alpha\"} 2"),
            std::string::npos);
  EXPECT_NE(metrics.body.find(
                "dtdevolve_documents_processed_total{tenant=\"beta\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("dtdevolve_tenants 2"), std::string::npos);

  server.Shutdown();
  server.Wait();
  EXPECT_EQ(server.source("alpha").evolutions_performed(), 1u);
  EXPECT_EQ(server.source("beta").evolutions_performed(), 0u);
}

TEST(SourceManagerTest, AnonymousTrafficRoutesConsistently) {
  // Without a "default" shard, anonymous documents ride the consistent
  // hash of their root tag: the same document class always lands on the
  // same shard.
  {
    IngestServer server(EvolvingOptions(), TenantOptions({"a", "b", "c"}));
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(server.Start().ok());
    ClientResponse first = Post(server.port(), "/ingest?wait=1",
                                kConformingDoc);
    ClientResponse second = Post(server.port(), "/ingest?wait=1",
                                 kConformingDoc);
    ASSERT_EQ(first.status, 200);
    ASSERT_EQ(second.status, 200);
    EXPECT_FALSE(TenantOf(first).empty());
    EXPECT_EQ(TenantOf(first), TenantOf(second));
    server.Shutdown();
    server.Wait();
  }
  // With a "default" shard, anonymous traffic goes there — the
  // backward-compatible contract.
  {
    IngestServer server(EvolvingOptions(),
                        TenantOptions({"default", "other"}));
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(server.Start().ok());
    ClientResponse anonymous =
        Post(server.port(), "/ingest?wait=1", kConformingDoc);
    ASSERT_EQ(anonymous.status, 200);
    EXPECT_EQ(TenantOf(anonymous), "default");
    server.Shutdown();
    server.Wait();
  }
}

TEST(SourceManagerTest, ConcurrentCrossTenantIngestIsolatesShards) {
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  IngestServer server(EvolvingOptions(), TenantOptions(tenants));
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // One client per tenant, hammering its own shard; t0's client sends
  // drifted documents so exactly one shard evolves under contention.
  constexpr int kDocsPerTenant = 6;
  std::vector<std::thread> clients;
  clients.reserve(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    clients.emplace_back([&, t] {
      const std::string target = "/ingest/" + tenants[t] + "?wait=1";
      const char* doc = (t == 0) ? kDriftedDoc : kConformingDoc;
      for (int i = 0; i < kDocsPerTenant; ++i) {
        ClientResponse response = Post(server.port(), target, doc);
        EXPECT_EQ(response.status, 200) << tenants[t] << " doc " << i;
        EXPECT_EQ(TenantOf(response), tenants[t]);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  server.Shutdown();
  server.Wait();

  uint64_t total = 0;
  for (const std::string& tenant : tenants) {
    EXPECT_EQ(server.source(tenant).documents_processed(),
              static_cast<uint64_t>(kDocsPerTenant))
        << tenant;
    total += server.source(tenant).documents_processed();
  }
  EXPECT_EQ(total, tenants.size() * kDocsPerTenant);
  // Drift stayed inside t0: the other shards never evolved.
  EXPECT_GE(server.source("t0").evolutions_performed(), 1u);
  for (size_t t = 1; t < tenants.size(); ++t) {
    EXPECT_EQ(server.source(tenants[t]).evolutions_performed(), 0u)
        << tenants[t];
  }
}

TEST(SourceManagerTest, PerTenantSeedsStayPerTenant) {
  const char* kNoteDtd = R"(
    <!ELEMENT note (heading, text)>
    <!ELEMENT heading (#PCDATA)>
    <!ELEMENT text (#PCDATA)>
  )";
  IngestServer server(EvolvingOptions(), TenantOptions({"alpha", "beta"}));
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.AddTenantDtdText("beta", "note", kNoteDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  EXPECT_EQ(Get(server.port(), "/dtds/note?tenant=beta").status, 200);
  EXPECT_EQ(Get(server.port(), "/dtds/note?tenant=alpha").status, 404);

  server.Shutdown();
  server.Wait();
}

TEST(SourceManagerTest, TenantInductionIsIsolatedAndSurvivesRestart) {
  const char* kInvoiceDoc =
      "<invoice><customer>c</customer><item><sku>s</sku><qty>1</qty></item>"
      "<total>9</total></invoice>";
  const std::string wal_root =
      ::testing::TempDir() + "source_manager_induction_wal";
  std::system(("rm -rf '" + wal_root + "'").c_str());

  core::SourceOptions source_options = EvolvingOptions();
  source_options.sigma = 0.5;
  source_options.auto_evolve = false;

  std::string candidate_id;
  {
    ServerOptions options = TenantOptions({"alpha", "beta"});
    options.wal_dir = wal_root;
    options.checkpoint_on_shutdown = false;  // leave only the WAL behind
    IngestServer server(source_options, options);
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(server.Start().ok());

    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(
          Post(server.port(), "/ingest/alpha?wait=1", kInvoiceDoc).status,
          200);
    }
    // Induction is per tenant: alpha proposes, beta has nothing.
    ClientResponse induced =
        Post(server.port(), "/dtds/induce?tenant=alpha", "");
    ASSERT_EQ(induced.status, 200);
    EXPECT_NE(induced.body.find("\"candidates\":1"), std::string::npos);
    ClientResponse beta = Post(server.port(), "/dtds/induce?tenant=beta", "");
    ASSERT_EQ(beta.status, 200);
    EXPECT_NE(beta.body.find("\"candidates\":0"), std::string::npos);
    // Multi-tenant mode requires the tenant on admin calls.
    EXPECT_EQ(Post(server.port(), "/dtds/induce", "").status, 400);

    ClientResponse listing =
        Get(server.port(), "/dtds/candidates?tenant=alpha");
    const size_t pos = listing.body.find("\"id\":");
    ASSERT_NE(pos, std::string::npos) << listing.body;
    candidate_id = std::to_string(
        std::strtoull(listing.body.c_str() + pos + 5, nullptr, 10));

    ClientResponse accepted =
        Post(server.port(),
             "/dtds/candidates/" + candidate_id + "/accept?tenant=alpha", "");
    ASSERT_EQ(accepted.status, 200) << accepted.body;
    server.Shutdown();
    server.Wait();
  }

  // Restart: the accept lives in alpha's WAL lineage only.
  {
    ServerOptions options = TenantOptions({"alpha", "beta"});
    options.wal_dir = wal_root;
    IngestServer restarted(source_options, options);
    ASSERT_TRUE(restarted.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(restarted.Start().ok());

    EXPECT_EQ(
        Get(restarted.port(), "/dtds/induced-invoice?tenant=alpha").status,
        200);
    EXPECT_EQ(
        Get(restarted.port(), "/dtds/induced-invoice?tenant=beta").status,
        404);
    // Alpha's repository drained through the replayed accept.
    ClientResponse stats = Get(restarted.port(), "/stats?tenant=alpha");
    EXPECT_NE(stats.body.find("\"repository\":{\"size\":0"),
              std::string::npos)
        << stats.body;

    restarted.Shutdown();
    restarted.Wait();
  }
  std::system(("rm -rf '" + wal_root + "'").c_str());
}

TEST(SourceManagerTest, TokenBucketRateLimitAnswers429PerTenant) {
  ServerOptions options = TenantOptions({"fast", "slow"});
  TenantQuota quota;
  quota.rate = 1.0;  // refills far slower than the test posts
  quota.burst = 2.0;
  options.tenant_quotas["slow"] = quota;
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  int slow_ok = 0;
  int slow_limited = 0;
  for (int i = 0; i < 6; ++i) {
    ClientResponse response =
        Post(server.port(), "/ingest/slow", kConformingDoc);
    if (response.status == 202) {
      ++slow_ok;
    } else {
      ASSERT_EQ(response.status, 429) << response.head;
      EXPECT_NE(response.head.find("Retry-After:"), std::string::npos);
      ++slow_limited;
    }
  }
  // The burst admits the first two; the 1/s refill cannot keep up with
  // six back-to-back posts.
  EXPECT_GE(slow_ok, 2);
  EXPECT_GE(slow_limited, 1);

  // The unquota'd neighbor is untouched by the slow tenant's bucket.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(Post(server.port(), "/ingest/fast", kConformingDoc).status,
              202);
  }

  server.Shutdown();
  server.Wait();
  EXPECT_EQ(server.source("fast").documents_processed(), 6u);
  EXPECT_EQ(server.source("slow").documents_processed(),
            static_cast<uint64_t>(slow_ok));

  // The tenant-labeled counter matches what the client observed.
  const std::string metrics = server.metrics().RenderPrometheus();
  EXPECT_NE(metrics.find(
                "dtdevolve_ingest_rate_limited_total{tenant=\"slow\"} " +
                std::to_string(slow_limited)),
            std::string::npos)
      << metrics;
}

TEST(SourceManagerTest, DocSizeQuotaAnswers413BeforeTheParse) {
  ServerOptions options = TenantOptions({"tiny", "roomy"});
  TenantQuota quota;
  quota.max_doc_bytes = 64;
  options.tenant_quotas["tiny"] = quota;
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // Oversized AND malformed: a 413 (not a 400) proves the quota fired
  // before the parser ever saw the body.
  const std::string oversized = "<mail>" + std::string(200, 'x');
  EXPECT_EQ(Post(server.port(), "/ingest/tiny", oversized).status, 413);
  // In-quota documents still flow.
  EXPECT_EQ(Post(server.port(), "/ingest/tiny", "<mail>s</mail>").status,
            202);
  // The quota is tiny's alone — the same oversized body is merely a 400
  // (parse error) for the unquota'd tenant.
  EXPECT_EQ(Post(server.port(), "/ingest/roomy?wait=1", oversized).status,
            400);

  server.Shutdown();
  server.Wait();
}

TEST(SourceManagerTest, RepositoryQuotaEvictOldestKeepsTheNewestDocs) {
  ServerOptions options = TenantOptions({});
  options.max_repository_docs = 3;
  options.repository_policy = RepositoryQuotaPolicy::kEvictOldest;
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // Unclassifiable documents land in the repository; wait=1 makes each
  // its own batch so enforcement runs after every overflow.
  for (int i = 0; i < 6; ++i) {
    const std::string doc =
        "<junk><payload>p" + std::to_string(i) + "</payload></junk>";
    EXPECT_EQ(Post(server.port(), "/ingest?wait=1", doc).status, 200);
  }

  server.Shutdown();
  server.Wait();
  const std::vector<int> ids = server.source().repository().Ids();
  ASSERT_EQ(ids.size(), 3u);
  // Oldest evicted: the survivors are the three newest insertions.
  EXPECT_EQ(ids.front(), 3);
  EXPECT_EQ(ids.back(), 5);
}

TEST(SourceManagerTest, RepositoryQuotaRejectNewKeepsTheEstablishedDocs) {
  ServerOptions options = TenantOptions({});
  options.max_repository_docs = 3;
  options.repository_policy = RepositoryQuotaPolicy::kRejectNew;
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 6; ++i) {
    const std::string doc =
        "<junk><payload>p" + std::to_string(i) + "</payload></junk>";
    EXPECT_EQ(Post(server.port(), "/ingest?wait=1", doc).status, 200);
  }

  server.Shutdown();
  server.Wait();
  const std::vector<int> ids = server.source().repository().Ids();
  ASSERT_EQ(ids.size(), 3u);
  // Newcomers evicted: the established first three stay.
  EXPECT_EQ(ids.front(), 0);
  EXPECT_EQ(ids.back(), 2);
}

TEST(SourceManagerTest, FloodedTenantCannotStarveItsNeighbor) {
  ServerOptions options = TenantOptions({"victim", "flood"});
  TenantQuota quota;
  quota.rate = 5.0;
  quota.burst = 2.0;
  options.tenant_quotas["flood"] = quota;
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // The flood hammers its shard from two threads while the victim
  // ingests synchronously — every victim document must land.
  std::thread flooders[2];
  for (std::thread& flooder : flooders) {
    flooder = std::thread([&] {
      for (int i = 0; i < 20; ++i) {
        ClientResponse response =
            Post(server.port(), "/ingest/flood", kConformingDoc);
        EXPECT_TRUE(response.status == 202 || response.status == 429)
            << response.status;
      }
    });
  }
  constexpr int kVictimDocs = 8;
  for (int i = 0; i < kVictimDocs; ++i) {
    EXPECT_EQ(
        Post(server.port(), "/ingest/victim?wait=1", kConformingDoc).status,
        200)
        << "victim doc " << i;
  }
  for (std::thread& flooder : flooders) flooder.join();

  server.Shutdown();
  server.Wait();
  EXPECT_EQ(server.source("victim").documents_processed(),
            static_cast<uint64_t>(kVictimDocs));
  // The bucket held: far fewer flood documents were admitted than sent.
  EXPECT_LT(server.source("flood").documents_processed(), 40u);
}

/// Drifting mail documents as XML text: some classify, some evolve the
/// DTD, some land in the repository and are recovered later.
std::vector<std::string> DriftingMailBodies(size_t n, uint64_t seed) {
  StatusOr<dtd::Dtd> mail = dtd::ParseDtd(kMailDtd);
  EXPECT_TRUE(mail.ok());
  workload::DocumentGenerator generator(*mail, workload::GeneratorOptions(),
                                        seed);
  workload::MutationOptions mutation;
  mutation.drop_probability = 0.3;
  mutation.insert_probability = 0.6;
  mutation.duplicate_probability = 0.3;
  mutation.new_tags = {"cc", "priority"};
  workload::Mutator mutator(mutation, seed + 1);
  std::vector<std::string> bodies;
  bodies.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    xml::Document doc = generator.Generate();
    mutator.Mutate(doc);
    bodies.push_back(xml::WriteDocument(doc));
  }
  return bodies;
}

TEST(SourceManagerTest, InlineAndWorkerAppliesMatchSequentialReplay) {
  const std::string wal_dir =
      testing::TempDir() + "source_manager_test_inline_apply";
  std::filesystem::remove_all(wal_dir);
  SourceManagerOptions options;
  options.jobs = 2;
  options.wal_dir = wal_dir;
  options.fsync_policy = store::FsyncPolicy::kNone;
  options.checkpoint_interval = std::chrono::milliseconds(0);
  options.checkpoint_on_shutdown = false;  // keep every record in the log
  SourceManager manager(EvolvingOptions(), options);
  ASSERT_TRUE(manager.AddDtdText("mail", kMailDtd).ok());
  obs::Registry registry;
  ASSERT_TRUE(manager.Start(&registry).ok());
  const obs::Counter& inline_applies =
      registry.GetCounter("dtdevolve_ingest_inline_applies_total", "");
  const obs::Histogram& ingest_seconds = registry.GetHistogram(
      "dtdevolve_ingest_seconds", "", obs::Histogram::DefaultLatencyBounds());

  auto enqueue = [&manager](const std::string& body, bool wait) {
    StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(body);
    EXPECT_TRUE(doc.ok());
    return manager.Enqueue("", std::move(*doc), body, wait);
  };

  // An idle shard: the caller applies the document before returning.
  const std::vector<std::string> first = DriftingMailBodies(1, 99);
  SourceManager::EnqueueResult idle = enqueue(first[0], /*wait=*/true);
  ASSERT_EQ(idle.code, SourceManager::EnqueueCode::kOk);
  {
    std::lock_guard<std::mutex> lock(idle.waiter->mutex);
    EXPECT_TRUE(idle.waiter->done);
  }
  EXPECT_EQ(inline_applies.Value(), 1u);

  // Concurrent producers on one shard while ingest is paused and resumed
  // underneath them: some documents are applied by their producer, the
  // rest queue behind a busy or paused shard for the worker. The first
  // ones always queue: the shard starts paused.
  constexpr int kProducers = 4;
  constexpr size_t kPerProducer = 60;
  manager.PauseIngest();
  std::atomic<bool> producing{true};
  std::thread toggler([&manager, &producing] {
    while (producing.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      manager.ResumeIngest();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      manager.PauseIngest();
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&enqueue, p] {
      const std::vector<std::string> bodies =
          DriftingMailBodies(kPerProducer, 100 + p);
      for (size_t i = 0; i < bodies.size(); ++i) {
        // The queue holds 256; a producer that finds it full retries.
        SourceManager::EnqueueResult result;
        do {
          result = enqueue(bodies[i], /*wait=*/i % 3 == 0);
          if (result.code == SourceManager::EnqueueCode::kQueueFull) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        } while (result.code == SourceManager::EnqueueCode::kQueueFull);
        EXPECT_EQ(result.code, SourceManager::EnqueueCode::kOk);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  producing = false;
  toggler.join();
  manager.ResumeIngest();
  const uint64_t inline_before_tail = inline_applies.Value();
  EXPECT_LT(inline_before_tail, 1 + kProducers * kPerProducer);

  // Once the worker has drained the backlog and let go of the shard, a
  // producer applies inline again.
  const std::vector<std::string> tail = DriftingMailBodies(200, 200);
  size_t tail_docs = 0;
  while (inline_applies.Value() == inline_before_tail &&
         tail_docs < tail.size()) {
    SourceManager::EnqueueResult result = enqueue(tail[tail_docs++], true);
    ASSERT_EQ(result.code, SourceManager::EnqueueCode::kOk);
    std::unique_lock<std::mutex> lock(result.waiter->mutex);
    result.waiter->cv.wait(lock, [&result] { return result.waiter->done; });
  }
  EXPECT_GT(inline_applies.Value(), inline_before_tail);
  manager.Drain();

  const uint64_t total = 1 + kProducers * kPerProducer + tail_docs;
  EXPECT_EQ(ingest_seconds.Count(), total);

  // The acked order is the log's LSN order; replaying it one document at
  // a time must land on the live state exactly.
  StatusOr<store::WalExport> exported =
      store::ExportWalRecords(wal_dir, 1, uint64_t{1} << 30);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  size_t consumed = 0;
  const std::vector<store::WalRecord> records =
      store::DecodeWalStream(exported->bytes, &consumed);
  ASSERT_EQ(records.size(), total);
  core::XmlSource replay(EvolvingOptions());
  ASSERT_TRUE(replay.AddDtdText("mail", kMailDtd).ok());
  for (const store::WalRecord& record : records) {
    ASSERT_TRUE(replay.ProcessText(record.payload).ok());
  }

  const core::XmlSource& live = *manager.source();
  EXPECT_EQ(live.documents_processed(), replay.documents_processed());
  EXPECT_EQ(live.documents_classified(), replay.documents_classified());
  EXPECT_EQ(live.evolutions_performed(), replay.evolutions_performed());
  EXPECT_GT(live.evolutions_performed(), 0u);
  EXPECT_EQ(live.repository().Ids(), replay.repository().Ids());
  EXPECT_EQ(dtd::WriteDtd(*live.FindDtd("mail")),
            dtd::WriteDtd(*replay.FindDtd("mail")));
  const core::EventPage live_log = live.EventsSince(0);
  const core::EventPage replay_log = replay.EventsSince(0);
  EXPECT_EQ(live_log.missed, 0u);
  ASSERT_EQ(live_log.events.size(), replay_log.events.size());
  for (size_t i = 0; i < live_log.events.size(); ++i) {
    const core::SourceEvent& a = live_log.events[i];
    const core::SourceEvent& b = replay_log.events[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.dtd_name, b.dtd_name) << i;
    EXPECT_EQ(a.similarity, b.similarity) << i;
    EXPECT_EQ(a.detail, b.detail) << i;
  }
  std::filesystem::remove_all(wal_dir);
}

}  // namespace
}  // namespace dtdevolve::server
