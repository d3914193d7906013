// docs/OBSERVABILITY.md against the metrics registry, in both directions.
//
// With observability on, the test makes the smallest call that reaches each
// metric registration site (core, pool, store, ingest, net, temporal, lc,
// audit), then compares the registry's names with the backticked names of
// the doc's "Metric names" table. `kernel.*` names expand from the
// "Kernel attribution" table. The names are read from the doc, never copied
// here, so a metric added without a doc row (or a row left behind by a
// deleted metric) fails this test. A second test holds src/ and docs/ to one
// snapshot schema name.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "core/pfpl.hpp"
#include "ingest/pipeline.hpp"
#include "json_value.hpp"
#include "lc/search.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/audit.hpp"
#include "obs/control.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"
#include "svc/thread_pool.hpp"
#include "temporal/temporal.hpp"

using namespace repro;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Backticked names in column `col` of the first markdown table after the
/// line `heading`.
std::set<std::string> table_names(const std::string& doc, const std::string& heading,
                                  std::size_t col) {
  std::set<std::string> names;
  const std::size_t at = doc.find("\n" + heading + "\n");
  if (at == std::string::npos) return names;
  std::istringstream in(doc.substr(at + 1));
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.rfind("|", 0) != 0) {
      if (in_table) break;
      continue;
    }
    in_table = true;
    std::vector<std::string> cells;
    std::stringstream row(line.substr(1));
    for (std::string cell; std::getline(row, cell, '|');) cells.push_back(cell);
    if (col >= cells.size()) continue;
    const std::string& cell = cells[col];
    for (std::size_t a = cell.find('`'); a != std::string::npos;) {
      const std::size_t b = cell.find('`', a + 1);
      if (b == std::string::npos) break;
      names.insert(cell.substr(a + 1, b - a - 1));
      a = cell.find('`', b + 1);
    }
  }
  return names;
}

std::vector<float> field(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(std::sin(i * 0.01) * 50.0);
  return v;
}

Bytes as_bytes(const std::vector<float>& v) {
  const u8* p = reinterpret_cast<const u8*>(v.data());
  return Bytes(p, p + v.size() * sizeof(float));
}

/// One call into every layer that registers metrics.
void touch_every_layer(const std::string& tmp_dir) {
  const std::vector<float> v = field(4096);
  const Bytes raw = as_bytes(v);

  const Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  (void)pfpl::decompress(c);

  {
    svc::ThreadPool pool(1);
    pool.submit([] {});
    pool.wait_idle();
  }

  {
    store::ChunkStore::Options so;
    so.dir = tmp_dir + "/store";
    store::ChunkStore cs(so);
    const common::Hash128 key = common::hash128(c.data(), c.size());
    cs.put(key, c, {});
    Bytes out;
    cs.get(key, out);
  }

  {
    ingest::IngestPipeline::Options io;
    io.params.eps = 1e-3;
    io.threads = 1;
    ingest::IngestPipeline pipe(io);
    (void)pipe.run({ingest::Item{"item", "", raw}});
  }

  {
    net::Server server(net::Server::Options{});
    std::thread loop([&] { server.run(); });
    {
      net::Client::Options co;
      co.host = "127.0.0.1";
      co.port = server.port();
      net::Client client(co);
      const Bytes rc = client.compress(raw.data(), raw.size(), DType::F32, EbType::ABS, 1e-3);
      (void)client.decompress(rc);
    }
    server.request_stop();
    loop.join();
  }

  {
    temporal::SessionConfig tc;
    tc.eps = 1e-3;
    tc.dims = {1, 1, 4096};
    temporal::FrameEncoder enc(tc);
    (void)enc.encode(Field(v.data(), v.size()), 0);
  }

  (void)lc::search({std::vector<u8>(raw.begin(), raw.end())}, lc::SearchConfig{32, 1});

  obs::AuditConfig ac;
  ac.target_values = 1 << 12;
  ac.bounds = {1e-2};
  ac.dtypes = {DType::F32};
  ac.ebs = {EbType::ABS};
  ac.suites = {"CESM-ATM"};
  (void)obs::ErrorBoundAuditor(ac).run();
}

}  // namespace

TEST(ObsDocs, MetricNamesTableMatchesTheRegistry) {
  const std::string doc = slurp(PFPL_OBSERVABILITY_DOC);
  ASSERT_FALSE(doc.empty()) << PFPL_OBSERVABILITY_DOC;
  std::set<std::string> documented = table_names(doc, "## Metric names", 0);
  const std::set<std::string> kernels = table_names(doc, "## Kernel attribution", 1);
  ASSERT_EQ(kernels.size(), 8u);
  for (const std::string& k : kernels) documented.insert("kernel." + k + "_ns");

  const std::filesystem::path tmp_dir =
      std::filesystem::path(::testing::TempDir()) / "pfpl_obs_docs_test";
  std::filesystem::remove_all(tmp_dir);
  std::filesystem::create_directories(tmp_dir);
  obs::set_enabled(true);
  touch_every_layer(tmp_dir.string());
  obs::set_enabled(false);
  std::filesystem::remove_all(tmp_dir);

  std::set<std::string> registered;
  const obs::JsonValue reg = obs::parse_json(obs::MetricsRegistry::global().json());
  for (const char* kind : {"counters", "gauges", "histograms"})
    for (const auto& [name, value] : reg.at(kind).obj) registered.insert(name);

  for (const std::string& name : registered)
    EXPECT_TRUE(documented.count(name)) << name << " is registered but not documented";
  for (const std::string& name : documented)
    EXPECT_TRUE(registered.count(name)) << name << " is documented but never registered";
}

// Every document the code writes is `pfpl-metrics/1` (the stall and crash
// reports add a member to it), and the docs name no other schema.
TEST(ObsDocs, OnlyOneSnapshotSchema) {
  namespace fs = std::filesystem;
  const std::regex schema("pfpl-[a-z]+/[0-9]+");
  std::map<std::string, std::string> found;  // schema -> first file naming it
  for (const char* dir : {"src", "docs"}) {
    const fs::path root = fs::path(PFPL_SOURCE_DIR) / dir;
    ASSERT_TRUE(fs::is_directory(root)) << root;
    for (const fs::directory_entry& e : fs::recursive_directory_iterator(root)) {
      if (!e.is_regular_file()) continue;
      const std::string text = slurp(e.path().string());
      for (std::sregex_iterator m(text.begin(), text.end(), schema), end; m != end; ++m)
        found.emplace(m->str(), e.path().string());
    }
  }
  ASSERT_TRUE(found.count("pfpl-metrics/1"));
  for (const auto& [name, file] : found)
    EXPECT_EQ(name, "pfpl-metrics/1") << "named in " << file;
}
