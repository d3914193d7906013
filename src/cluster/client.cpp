#include "cluster/client.hpp"

#include <chrono>
#include <thread>

#include "common/hash.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"

namespace repro::cluster {
namespace {

/// Client-side cluster.* handles (the server-side cluster.node.* counters
/// live in net/server.cpp).
struct ClientMetrics {
  obs::Counter& requests;
  obs::Counter& failovers;
  obs::Counter& retries;
  obs::Counter& map_refreshes;
  obs::Counter& wrong_shard;
  static ClientMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static ClientMetrics m{r.counter("cluster.requests"),
                           r.counter("cluster.failovers"),
                           r.counter("cluster.retries"),
                           r.counter("cluster.map_refreshes"),
                           r.counter("cluster.wrong_shard")};
    return m;
  }
};

}  // namespace

ClusterClient::ClusterClient(Options opts)
    : opts_(std::move(opts)), map_(opts_.map), jitter_(net::process_jitter_seed()) {
  if (map_.empty())
    throw CompressionError("ClusterClient: the shard map has no nodes");
  if (opts_.refresh_interval_ms > 0)
    refresher_ = std::thread([this] { refresher_loop(); });
}

ClusterClient::~ClusterClient() {
  if (refresher_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    refresher_.join();
  }
}

void ClusterClient::refresher_loop() {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    // The wait doubles as the shutdown gate: the destructor flips stop_ and
    // notifies, so teardown never waits out a full interval.
    stop_cv_.wait_for(lk, std::chrono::milliseconds(opts_.refresh_interval_ms),
                      [this] { return stop_; });
    if (stop_) return;
    ++stats_.background_refreshes;
    try {
      refresh_map_locked();
    } catch (const CompressionError&) {
      // No node answered (NetError derives from CompressionError): stale is
      // still routable, and the next tick tries again.
    }
  }
}

ShardMap ClusterClient::map() const {
  std::lock_guard<std::mutex> lk(m_);
  return map_;
}

ClusterClient::Stats ClusterClient::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

net::Client& ClusterClient::client_for(u32 node_index) {
  const NodeInfo& n = map_.nodes()[node_index];
  auto it = clients_.find(n.id);
  if (it == clients_.end()) {
    net::Client::Options co;
    co.host = n.host;
    co.port = n.port;
    co.connect_timeout_ms = opts_.connect_timeout_ms;
    co.request_timeout_ms = opts_.request_timeout_ms;
    co.max_attempts = opts_.node_attempts;
    co.max_response_payload = opts_.max_response_payload;
    it = clients_.emplace(n.id, net::Client(std::move(co))).first;
  }
  return it->second;
}

void ClusterClient::adopt(ShardMap fresh) {
  const ShardMap old = std::move(map_);
  map_ = std::move(fresh);
  ++stats_.map_refreshes;
  ClientMetrics::get().map_refreshes.add(1);
  // Drop cached clients whose node left or moved address; survivors keep
  // their open connections.
  for (auto it = clients_.begin(); it != clients_.end();) {
    const int idx = map_.find_node(it->first);
    const int prev = old.find_node(it->first);
    const bool moved =
        idx >= 0 && prev >= 0 &&
        (map_.nodes()[static_cast<std::size_t>(idx)].host !=
             old.nodes()[static_cast<std::size_t>(prev)].host ||
         map_.nodes()[static_cast<std::size_t>(idx)].port !=
             old.nodes()[static_cast<std::size_t>(prev)].port);
    if (idx < 0 || moved)
      it = clients_.erase(it);
    else
      ++it;
  }
}

bool ClusterClient::refresh_from(net::Client& c) {
  try {
    const Bytes wire = c.shardmap_fetch(map_.serialize());
    ShardMap fresh = ShardMap::parse(wire);
    if (fresh.cluster_id() != map_.cluster_id() || fresh.epoch() <= map_.epoch())
      return false;
    adopt(std::move(fresh));
    return true;
  } catch (const CompressionError&) {
    // NetError/RemoteError/parse failure alike: no fresher map from here.
    return false;
  }
}

bool ClusterClient::refresh_map() {
  std::lock_guard<std::mutex> lk(m_);
  return refresh_map_locked();
}

bool ClusterClient::refresh_map_locked() {
  bool any_answer = false;
  bool adopted = false;
  std::string last_error = "no nodes in the map";
  // Ask every node: the newest epoch wins, and offering our map on the way
  // brings stale *servers* up to date too.
  for (u32 i = 0; i < map_.nodes().size(); ++i) {
    try {
      const Bytes wire = client_for(i).shardmap_fetch(map_.serialize());
      any_answer = true;
      ShardMap fresh = ShardMap::parse(wire);
      if (fresh.cluster_id() == map_.cluster_id() && fresh.epoch() > map_.epoch()) {
        adopt(std::move(fresh));
        adopted = true;
      }
    } catch (const CompressionError& e) {
      last_error = e.what();
    }
  }
  if (!any_answer)
    throw net::NetError("cluster: no node answered a map refresh (last error: " +
                        last_error + ")");
  return adopted;
}

Bytes ClusterClient::routed(const common::Hash128& key,
                            const std::function<Bytes(net::Client&)>& op) {
  constexpr unsigned kMaxRefreshesPerRequest = 3;
  unsigned sweep = 0;
  unsigned refreshes = 0;
  std::string last_error;
  for (;;) {
    const std::vector<u32> replicas = map_.route(key);
    bool rerouted = false;
    for (std::size_t ri = 0; ri < replicas.size(); ++ri) {
      const u32 idx = replicas[ri];
      const std::string node_id = map_.nodes()[idx].id;
      net::Client& c = client_for(idx);
      try {
        Bytes out = op(c);
        ++stats_.requests;
        ++stats_.node_requests[node_id];
        ClientMetrics::get().requests.add(1);
        return out;
      } catch (const net::RemoteError& e) {
        if (e.status() == static_cast<u16>(net::Status::WrongShard)) {
          ++stats_.wrong_shard;
          ClientMetrics::get().wrong_shard.add(1);
          last_error = e.what();
          if (refreshes < kMaxRefreshesPerRequest && refresh_from(c)) {
            // Stale map: re-route under the new epoch without burning a
            // sweep (the old replica list was simply wrong).
            ++refreshes;
            rerouted = true;
            break;
          }
          // The node refused but has no fresher map either (or we hit the
          // refresh bound) — treat like an unavailable replica.
        } else if (e.status() == static_cast<u16>(net::Status::Draining)) {
          last_error = e.what();
        } else {
          throw;  // the shard owner answered; retrying elsewhere is wrong
        }
        ++stats_.failovers;
        ClientMetrics::get().failovers.add(1);
      } catch (const net::NetError& e) {
        last_error = e.what();
        ++stats_.failovers;
        ClientMetrics::get().failovers.add(1);
      }
    }
    if (rerouted) continue;
    ++sweep;
    if (sweep >= std::max(opts_.sweeps, 1u)) break;
    ++stats_.retries;
    ClientMetrics::get().retries.add(1);
    const int ms =
        net::backoff_ms(sweep, opts_.backoff_base_ms, opts_.backoff_max_ms, jitter_);
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  throw net::NetError("cluster: request for key " + key.hex() + " failed after " +
                      std::to_string(sweep) + " sweep(s) over " +
                      std::to_string(map_.route(key).size()) +
                      " replica(s); last error: " + last_error);
}

Bytes ClusterClient::compress(const void* raw, std::size_t n, DType dtype, EbType eb,
                              double eps) {
  const common::Hash128 key = store::compress_key(raw, n, dtype, eb, eps);
  std::lock_guard<std::mutex> lk(m_);
  return routed(key, [&](net::Client& c) { return c.compress(raw, n, dtype, eb, eps); });
}

std::vector<u8> ClusterClient::decompress(const Bytes& stream) {
  const common::Hash128 key = store::decompress_key(stream.data(), stream.size());
  std::lock_guard<std::mutex> lk(m_);
  return routed(key, [&](net::Client& c) { return c.decompress(stream); });
}

std::string ClusterClient::health(const std::string& node_id) {
  std::lock_guard<std::mutex> lk(m_);
  const int idx = map_.find_node(node_id);
  if (idx < 0)
    throw CompressionError("cluster: unknown node '" + node_id + "'");
  return client_for(static_cast<u32>(idx)).health();
}

std::string ClusterClient::stats_json() const {
  std::lock_guard<std::mutex> lk(m_);
  obs::JsonWriter w;
  w.begin_object();
  w.kv("cluster_id", map_.cluster_id());
  w.kv("epoch", static_cast<unsigned long long>(map_.epoch()));
  w.kv("requests", static_cast<unsigned long long>(stats_.requests));
  w.kv("failovers", static_cast<unsigned long long>(stats_.failovers));
  w.kv("retries", static_cast<unsigned long long>(stats_.retries));
  w.kv("map_refreshes", static_cast<unsigned long long>(stats_.map_refreshes));
  w.kv("wrong_shard", static_cast<unsigned long long>(stats_.wrong_shard));
  w.kv("background_refreshes",
       static_cast<unsigned long long>(stats_.background_refreshes));
  w.key("node_requests");
  w.begin_object();
  for (const auto& [id, n] : stats_.node_requests)
    w.kv(id, static_cast<unsigned long long>(n));
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace repro::cluster
