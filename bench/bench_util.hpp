// Shared scaffolding for the experiment harness.
//
// Every bench binary regenerates one table or figure of the (reconstructed)
// SAGE evaluation: it builds a fresh simulated world with a fixed seed,
// runs the experiment on virtual time, and prints the series the paper
// would plot. Absolute values are simulator-calibrated, not Azure-measured;
// EXPERIMENTS.md records the expected *shapes* and the measured outcomes.
//
// Sweep-heavy benches run their grid points through BenchContext::sweep —
// each point gets its own World on a ScenarioRunner sweep thread
// (SAGE_BENCH_THREADS, default hardware concurrency) and results come back
// index-ordered, so stdout is byte-identical at any thread count. All
// printing happens on the main thread, after the sweep.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "cloud/topology.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/sage.hpp"
#include "core/sharded_sage.hpp"
#include "harness/scenario.hpp"
#include "net/transfer.hpp"
#include "obs/obs.hpp"
#include "simcore/engine.hpp"
#include "stream/backend.hpp"

namespace sage::bench {

/// Why a World::run_until call returned.
enum class RunStop {
  kPredicate,  // pred() became true
  kBudget,     // virtual-time budget elapsed first
  kIdle,       // nothing left to simulate but the deadline — pred can never fire
};

struct RunOutcome {
  RunStop reason = RunStop::kPredicate;
  [[nodiscard]] bool satisfied() const { return reason == RunStop::kPredicate; }
  operator bool() const { return satisfied(); }  // NOLINT: keep bool call sites
};

inline const char* to_string(RunStop reason) {
  switch (reason) {
    case RunStop::kPredicate: return "predicate";
    case RunStop::kBudget: return "budget";
    case RunStop::kIdle: return "idle";
  }
  return "?";
}

/// A self-contained simulation world for one experiment run.
struct World {
  sim::SimEngine engine;
  std::unique_ptr<cloud::CloudProvider> provider;

  explicit World(std::uint64_t seed, bool stable = false) {
    // Observability must attach before any component binds metric cells —
    // everything below the engine resolves its pointers at construction.
    engine.enable_obs_from_env();
    provider = std::make_unique<cloud::CloudProvider>(
        engine, stable ? cloud::stable_topology() : cloud::default_topology(), seed);
  }

  ~World() {
    if (engine.obs() == nullptr) return;
    engine.publish_obs_metrics();
    // Inside a harness sweep the task's aggregate registry collects every
    // World's metrics; the merged snapshot rides the --json record. Never
    // printed, so stdout stays byte-identical with obs on or off.
    if (obs::MetricsRegistry* agg = harness::current_task_metrics()) {
      agg->merge(engine.obs()->metrics());
    }
  }

  void run_for(SimDuration d) { engine.run_until(engine.now() + d); }

  /// Drive until `pred` holds, the budget elapses, or the simulation goes
  /// idle. A sentinel event marks the deadline; once it is the only entry
  /// left in the queue no remaining work can change `pred`, so the call
  /// bails out immediately instead of stepping empty ticks to the full
  /// budget. The outcome converts to bool (true iff the predicate fired).
  RunOutcome run_until(const std::function<bool()>& pred,
                       SimDuration budget = SimDuration::days(2)) {
    const SimTime deadline = engine.now() + budget;
    sim::EventHandle sentinel = engine.schedule_at(deadline, [] {});
    RunOutcome out;
    for (;;) {
      if (pred()) break;
      if (engine.now() >= deadline) {
        out.reason = RunStop::kBudget;
        break;
      }
      if (engine.live_events() <= 1 || !engine.step()) {
        out.reason = RunStop::kIdle;
        break;
      }
    }
    sentinel.cancel();
    return out;
  }
};

/// Blocking send through any TransferBackend; returns the outcome.
inline stream::SendOutcome send_blocking(World& world, stream::TransferBackend& backend,
                                         cloud::Region src, cloud::Region dst,
                                         Bytes size) {
  stream::SendOutcome out{};
  bool done = false;
  backend.send(src, dst, size, [&](const stream::SendOutcome& o) {
    out = o;
    done = true;
  });
  world.run_until([&] { return done; });
  return out;
}

// ---------------------------------------------------------------------------
// Shared scenario scaffolds (the per-bench RunResult/run_one boilerplate).

/// Deployment knobs for a SAGE control plane inside one World.
struct SageDeployOptions {
  std::vector<cloud::Region> regions;
  cloud::VmSize agent_vm = cloud::VmSize::kSmall;
  int gateways_per_region = 1;
  int helpers_per_region = 4;
  SimDuration probe_interval = SimDuration::minutes(1);
  /// Virtual time to run after deploy() so the monitoring map warms up.
  SimDuration warmup = SimDuration::minutes(10);
};

/// Build world -> deploy SAGE -> warm the monitoring map.
inline std::unique_ptr<core::SageEngine> deploy_sage(World& world,
                                                     const SageDeployOptions& opts) {
  core::SageConfig config;
  config.regions = opts.regions;
  config.agent_vm = opts.agent_vm;
  config.gateways_per_region = opts.gateways_per_region;
  config.helpers_per_region = opts.helpers_per_region;
  config.monitoring.probe_interval = opts.probe_interval;
  auto engine = std::make_unique<core::SageEngine>(*world.provider, config);
  engine->deploy();
  world.run_for(opts.warmup);
  return engine;
}

/// Build a full sharded SAGE deployment (one control-plane replica per
/// engine lane, activity partitioned by source-region ownership — see
/// core::ShardedSage) over a shared stable topology, then warm the map.
/// shards <= 1 runs one lane.
inline std::unique_ptr<core::ShardedSage> deploy_sharded_sage(
    std::shared_ptr<const cloud::Topology> topology, std::uint64_t seed,
    const SageDeployOptions& opts, int shards) {
  core::SageConfig config;
  config.regions = opts.regions;
  config.agent_vm = opts.agent_vm;
  config.gateways_per_region = opts.gateways_per_region;
  config.helpers_per_region = opts.helpers_per_region;
  config.monitoring.probe_interval = opts.probe_interval;
  core::ShardedSage::Options sharded;
  sharded.shards = shards <= 1 ? 1 : static_cast<std::size_t>(shards);
  auto sage = std::make_unique<core::ShardedSage>(std::move(topology), seed,
                                                  config, sharded);
  sage->deploy();
  sage->run_for(opts.warmup);
  return sage;
}

/// Blocking send on a sharded deployment. The wait advances sim time in
/// fixed quanta, so the stopping time is a deterministic function of sim
/// state — never of lane interleaving — and the printed outcome (captured
/// in the completion callback) is shard-count invariant.
inline stream::SendOutcome sharded_send_blocking(
    core::ShardedSage& sage, cloud::Region src, cloud::Region dst, Bytes size,
    const model::Tradeoff& tradeoff, SimDuration budget = SimDuration::days(2),
    SimDuration quantum = SimDuration::seconds(10)) {
  stream::SendOutcome out{};
  bool done = false;
  sage.send(src, dst, size, tradeoff, [&](const stream::SendOutcome& o) {
    out = o;
    done = true;
  });
  SimDuration waited = SimDuration::zero();
  while (!done && waited < budget) {
    sage.run_for(quantum);
    waited = waited + quantum;
  }
  return out;
}

/// Source + destination endpoints plus `vms` sender lanes: lane 0 direct,
/// lanes 1..vms-1 each relaying through a fresh helper in the source region.
struct LaneFan {
  cloud::VmHandle src;
  cloud::VmHandle dst;
  std::vector<net::Lane> lanes;
};

inline LaneFan provision_fan(cloud::CloudProvider& provider, cloud::Region src_r,
                             cloud::Region dst_r, int vms,
                             cloud::VmSize size = cloud::VmSize::kSmall) {
  LaneFan fan;
  fan.src = provider.provision(src_r, size);
  fan.dst = provider.provision(dst_r, size);
  fan.lanes = net::direct_lane(fan.src.id, fan.dst.id);
  for (int i = 1; i < vms; ++i) {
    const auto helper = provider.provision(src_r, size);
    fan.lanes.push_back(net::Lane{{fan.src.id, helper.id, fan.dst.id}});
  }
  return fan;
}

/// Run one GeoTransfer to completion and return the full result.
inline net::TransferResult run_transfer(World& world, Bytes size,
                                        const std::vector<net::Lane>& lanes,
                                        const net::TransferConfig& config,
                                        SimDuration budget = SimDuration::days(2)) {
  net::TransferResult result{};
  bool done = false;
  net::GeoTransfer transfer(*world.provider, size, lanes, config,
                            [&](const net::TransferResult& r) {
                              result = r;
                              done = true;
                            });
  transfer.start();
  world.run_until([&] { return done; }, budget);
  return result;
}

// ---------------------------------------------------------------------------
// Per-binary context: flags, header, parallel sweeps, JSON record.

inline void print_header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void print_note(const std::string& note) { std::printf("%s\n", note.c_str()); }

inline void print_table(const TextTable& table) {
  std::printf("%s", table.render().c_str());
}

/// One bench binary's harness state. Parses `--smoke` (reduced grid for CI
/// determinism diffs) and `--json <path>` (machine-readable wall-clock
/// record), prints the figure header, and exposes parallel sweeps. Nothing
/// here writes to stdout besides the header, so output stays byte-identical
/// across thread counts.
class BenchContext {
 public:
  BenchContext(int argc, char** argv, std::string slug, const std::string& id,
               const std::string& title)
      : slug_(std::move(slug)) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--smoke") == 0) {
        smoke_ = true;
      } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (std::strncmp(arg, "--json=", 7) == 0) {
        json_path_ = arg + 7;
      } else if (std::strcmp(arg, "--shards") == 0 && i + 1 < argc) {
        shards_ = std::atoi(argv[++i]);
      } else if (std::strncmp(arg, "--shards=", 9) == 0) {
        shards_ = std::atoi(arg + 9);
      } else {
        std::fprintf(stderr,
                     "%s: unknown argument %s (known: --smoke, --json <path>, "
                     "--shards <n>)\n",
                     argv[0], arg);
      }
    }
    if (shards_ < 0) shards_ = 0;
    print_header(id, title);
  }

  /// Reduced-grid mode for the CI smoke job.
  [[nodiscard]] bool smoke() const { return smoke_; }
  [[nodiscard]] int threads() const { return runner_.threads(); }

  /// Region-shard count for benches with a sharded execution mode: --shards,
  /// else 0 = sharded execution off (default — the plain single-engine path
  /// runs and stdout matches historical output byte for byte).
  [[nodiscard]] int shards() const { return shards_; }

  /// Run `fn` over the grid on the sweep threads; results come back in
  /// task order (see harness::ScenarioRunner).
  template <typename Task, typename Fn>
  auto sweep(const std::string& name, const std::vector<Task>& tasks, Fn&& fn) {
    return runner_.sweep(name, tasks, std::forward<Fn>(fn));
  }

  /// Write the JSON wall-clock record when --json was given. Returns the
  /// process exit code.
  int finish() {
    if (!json_path_.empty() &&
        !runner_.write_json(json_path_, slug_, smoke_)) {
      return 1;
    }
    return 0;
  }

 private:
  std::string slug_;
  std::string json_path_;
  bool smoke_ = false;
  int shards_ = 0;
  harness::ScenarioRunner runner_;
};

}  // namespace sage::bench
