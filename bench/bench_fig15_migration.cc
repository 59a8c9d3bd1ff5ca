// Figure 15: dynamic-membership cost — time to DOUBLE the number of
// servers (2→4, 4→8, 8→16, 16→32) while clients keep issuing operations.
// Live measurement on the in-process cluster: every join checks out the
// membership table, migrates whole partitions (no rehashing), and ends
// with an incremental broadcast. Paper: roughly constant ~1-2 s per
// doubling on their cluster; here absolute times are loopback-scale, the
// claim is the flat trend.
#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "core/local_cluster.h"

int main() {
  using namespace zht;
  using namespace zht::bench;

  Banner("Figure 15",
         "Time to double the server count under client load (live)");

  LocalClusterOptions options;
  options.num_instances = 2;
  options.num_partitions = Smoke(2048u, 256u);  // fixed forever; joins move
  auto cluster = LocalCluster::Start(options);
  if (!cluster.ok()) return 1;

  // Preload data so migrations move real pairs.
  {
    auto loader = (*cluster)->CreateClient();
    Workload w = MakeWorkload(Smoke<std::size_t>(20000, 2000));
    for (std::size_t i = 0; i < w.keys.size(); ++i) {
      loader->Insert(w.keys[i], w.values[i]);
    }
  }

  // Background clients stay active during every doubling (the paper's
  // setup: 32 clients performing operations throughout).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> background_ops{0};
  std::atomic<std::uint64_t> background_errors{0};
  // Failed inserts by the status the client gave up with, so each failure
  // is attributed to one cause: the kMigrating retry budget ("stuck
  // migrating"), the hard budget spent on redirects or transport errors
  // ("attempts exhausted"), or an unreachable node. Digits (partition ids)
  // are masked so one cause is one row.
  std::mutex errors_mu;
  std::map<std::string, std::uint64_t> errors_by_status;
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&cluster, &stop, &background_ops,
                          &background_errors, &errors_mu, &errors_by_status,
                          t] {
      ZhtClientOptions client_options;
      client_options.max_attempts = 12;
      auto client = (*cluster)->CreateClient(client_options);
      Workload w = MakeWorkload(512, 900 + t);
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Status status = client->Insert(w.keys[i % w.keys.size()],
                                             w.values[i % w.keys.size()]);
        ++background_ops;
        if (!status.ok()) {
          ++background_errors;
          std::string cause = status.ToString();
          for (char& c : cause) {
            if (c >= '0' && c <= '9') c = 'N';
          }
          std::lock_guard<std::mutex> lock(errors_mu);
          ++errors_by_status[cause];
        }
        ++i;
      }
    });
  }

  PrintRow({"transition", "time (ms)", "partitions moved", "pairs moved"},
           20);
  std::uint64_t moved_before = 0;
  const std::vector<std::uint32_t> kTargets =
      SmokeMode() ? std::vector<std::uint32_t>{4u, 8u}
                  : std::vector<std::uint32_t>{4u, 8u, 16u, 32u};
  for (std::uint32_t target : kTargets) {
    Stopwatch watch(SystemClock::Instance());
    while ((*cluster)->instance_count() < target) {
      auto joined = (*cluster)->JoinNewInstance();
      if (!joined.ok()) {
        std::fprintf(stderr, "join failed: %s\n",
                     joined.status().ToString().c_str());
        return 1;
      }
    }
    double ms = watch.ElapsedMillis();
    std::uint64_t moved =
        (*cluster)->manager(0)->stats().partitions_migrated;
    std::uint64_t pairs = 0;
    for (std::size_t i = 0; i < (*cluster)->instance_count(); ++i) {
      pairs += (*cluster)->server(i)->TotalEntries();
    }
    PrintRow({FmtInt(target / 2) + " -> " + FmtInt(target), Fmt(ms, 1),
              FmtInt(moved - moved_before), FmtInt(pairs)},
             20);
    moved_before = moved;
  }

  stop.store(true);
  for (auto& client : clients) client.join();
  std::printf("\nbackground clients: %llu ops, %llu failed during all four "
              "doublings (requests to migrating partitions retry and "
              "succeed)\n",
              static_cast<unsigned long long>(background_ops.load()),
              static_cast<unsigned long long>(background_errors.load()));
  if (!errors_by_status.empty()) {
    std::printf("failed inserts by status:\n");
    for (const auto& [cause, count] : errors_by_status) {
      std::printf("  %-48s %llu\n", cause.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
  Note("shape to reproduce: cost per doubling stays roughly constant with "
       "scale (each join moves half of ONE donor's partitions, independent "
       "of cluster size)");
  return 0;
}
