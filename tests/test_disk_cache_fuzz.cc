// Deterministic fuzz test of disk-cache segment loading: the warm segment
// the 100-request fixture leaves behind is cut short, bit-flipped and
// line-spliced (mutation_corpus), and each mutant is loaded by a fresh
// service bound to that cache directory.  Loading must never fail, and the
// warm fixture batch must stay byte-identical to its golden: a damaged
// entry is dropped and recomputed, never served.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "api/batch_io.h"
#include "fault_injection.h"
#include "nanocache/api.h"

namespace nanocache::testing {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  return {std::istreambuf_iterator<char>(in), {}};
}

/// The fixture batch through a fresh service on `dir`.
std::string warm_batch(const fs::path& dir, const std::string& requests,
                       api::BatchStats& stats) {
  api::ServiceConfig config;
  config.cache_dir = dir.string();
  auto service = api::Service::create(std::move(config));
  EXPECT_TRUE(service.ok()) << service.error().message;
  if (!service.ok()) return "";
  std::istringstream in(requests);
  std::ostringstream out;
  stats = api::run_batch_jsonl(*service.value(), in, out);
  return out.str();
}

TEST(DiskCacheFuzz, MutatedSegmentsLoadAndServeTheGolden) {
  const std::string data = NANOCACHE_TEST_DATA_DIR;
  const std::string requests = read_file(data + "/batch_requests.jsonl");
  const std::string golden = read_file(data + "/batch_responses_golden.jsonl");
  const fs::path dir = fs::path(::testing::TempDir()) / "nanocache_disk_fuzz";
  fs::remove_all(dir);

  api::BatchStats stats;
  ASSERT_EQ(warm_batch(dir, requests, stats), golden);  // cold: fills it
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir)) segment = entry.path();
  const std::string pristine = read_file(segment);

  auto corpus = mutation_corpus(pristine, 997);
  ASSERT_GT(corpus.size(), 200u);
  std::size_t damaged = 0;
  for (const auto& mutant : corpus) {
    SCOPED_TRACE(mutant.name);
    std::ofstream(segment, std::ios::binary | std::ios::trunc) << mutant.bytes;
    ASSERT_EQ(warm_batch(dir, requests, stats), golden);
    if (stats.disk_misses > 0) ++damaged;
  }
  EXPECT_GT(damaged, corpus.size() / 2);  // the corpus really did bite
  fs::remove_all(dir);
}

}  // namespace
}  // namespace nanocache::testing
