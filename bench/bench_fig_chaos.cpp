// Fig C — Chaos: behaviour under deterministic fault injection.
//
// The paper's evaluation assumes a cooperative wide area; this figure
// quantifies what the transfer and fabric layers do when the wide area
// misbehaves, using the seed-reproducible chaos subsystem (src/chaos). Four
// scenario families:
//
//   C1 outage-mid-transfer — a multi-lane GeoTransfer loses a relay region
//      partway through; the surviving lanes re-drive the lost chunks. A/B
//      columns against the healthy run of the same transfer.
//   C2 diurnal partition  — a steady flow arrival process rides through a
//      recurring partition window (island cut off for two hours per
//      simulated day); strand-and-resume, no aborts.
//   C3 storm recovery     — correlated incident storms (seeded hazard
//      process) at rising intensity; how much of the offered volume still
//      lands, and how long the fabric needs to drain after the last storm.
//   C4 sharded soak       — a long random schedule replayed on the
//      region-sharded engine at S in {1, 2, 4} with the ChaosInvariants
//      checker at the end; every row prints identical numbers (faults are
//      lane-local events, serialized like traffic), and the figure golden
//      pins the stdout at every harness thread count.
//   C5 sharded control plane — full deploy_sage scenarios (the whole SAGE
//      stack, not just the fabric) on core::ShardedSage at S in {1, 2, 4},
//      same fault schedule on every lane, plus a `plain` unsharded-baseline
//      row; S rows are byte-identical, and the figure golden pins the
//      stdout across --shards and harness thread counts.
//
// Chaos here is enabled explicitly per controller — this binary IS the
// chaos experiment. No other bench binary constructs a controller, so
// their worlds run fault-free.
#include "bench_util.hpp"

#include "chaos/chaos.hpp"
#include "cloud/fabric.hpp"
#include "simcore/sharded_engine.hpp"

#include "chaos_invariants.hpp"  // tests/ — reused invariant checker

namespace sage::bench {
namespace {

using chaos::ChaosController;
using chaos::ChaosTargets;
using chaos::FaultPlan;
using cloud::Region;

constexpr Region kSrc = Region::kNorthEU;
constexpr Region kDst = Region::kNorthUS;
constexpr Region kRelay = Region::kWestEU;

// ---------------------------------------------------------------------------
// C1: outage mid-transfer.
// ---------------------------------------------------------------------------

struct OutageCell {
  int mb = 0;
  int lanes = 0;  // 1 direct + (lanes-1) relays through kRelay helpers
};

struct OutageResult {
  double healthy_s = 0.0;
  double chaos_s = 0.0;
  bool delivered = false;
  std::uint64_t hop_failures = 0;
  std::uint64_t retransmissions = 0;
};

OutageResult run_outage(const OutageCell& c) {
  const auto run_one = [&](bool outage, OutageResult& out) -> double {
    World world(11, /*stable=*/true);
    const auto src = world.provider->provision(kSrc, cloud::VmSize::kSmall);
    const auto dst = world.provider->provision(kDst, cloud::VmSize::kSmall);
    std::vector<net::Lane> lanes = net::direct_lane(src.id, dst.id);
    for (int i = 1; i < c.lanes; ++i) {
      const auto helper = world.provider->provision(kRelay, cloud::VmSize::kSmall);
      lanes.push_back(net::Lane{{src.id, helper.id, dst.id}});
    }

    std::unique_ptr<ChaosController> chaos;
    if (outage) {
      // Kill the relay region a quarter of the way through the healthy
      // duration, restore it near the end: the relay lanes die, retry onto
      // the direct lane, and the transfer must still deliver every byte.
      FaultPlan plan;
      plan.region_outage(world.engine.now() + SimDuration::seconds(5), kRelay,
                         SimDuration::minutes(10));
      chaos = std::make_unique<ChaosController>(
          world.engine, ChaosTargets{&world.provider->fabric(), nullptr},
          std::move(plan), /*enabled=*/true);
    }

    const SimTime t0 = world.engine.now();
    const net::TransferResult r = run_transfer(world, Bytes::mb(c.mb), lanes, {});
    if (outage) {
      out.delivered = r.ok && r.stats.chunks_delivered == r.stats.chunks_total;
      out.hop_failures = static_cast<std::uint64_t>(r.stats.hop_failures);
      out.retransmissions = static_cast<std::uint64_t>(r.stats.retransmissions);
    }
    return (world.engine.now() - t0).to_seconds();
  };
  OutageResult out;
  out.healthy_s = run_one(false, out);
  out.chaos_s = run_one(true, out);
  return out;
}

void run_c1(BenchContext& ctx) {
  const std::vector<OutageCell> grid =
      ctx.smoke() ? std::vector<OutageCell>{{64, 2}, {128, 3}}
                  : std::vector<OutageCell>{{256, 2}, {256, 4}, {1024, 2}, {1024, 4}};
  const auto results =
      ctx.sweep("chaos-outage", grid, [](const OutageCell& c) { return run_outage(c); });

  TextTable t({"Size MB", "Lanes", "Healthy s", "Outage s", "Slowdown",
               "Hop fails", "Retrans", "All bytes"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const OutageResult& r = results[i];
    t.add_row({std::to_string(grid[i].mb), std::to_string(grid[i].lanes),
               TextTable::num(r.healthy_s, 1), TextTable::num(r.chaos_s, 1),
               TextTable::num(r.chaos_s / r.healthy_s, 2),
               std::to_string(r.hop_failures), std::to_string(r.retransmissions),
               r.delivered ? "yes" : "NO"});
  }
  print_table(t);
  print_note(
      "\nC1: a 10-minute relay-region outage lands mid-transfer. Chunks "
      "in flight on relay lanes fail, the retry path re-drives them over "
      "the surviving direct lane, and every byte still arrives — the "
      "slowdown is the price of losing the fan, not of losing data.");
}

// ---------------------------------------------------------------------------
// C2: diurnal partition.
// ---------------------------------------------------------------------------

struct DiurnalCell {
  double days = 0.0;
  int partition_hours = 0;
};

struct DiurnalResult {
  int completed = 0;
  int failed = 0;
  double moved_mb = 0.0;
  std::uint64_t faults = 0;
  std::uint64_t reverts = 0;
};

DiurnalResult run_diurnal(const DiurnalCell& c) {
  World world(23, /*stable=*/true);
  cloud::Fabric& fabric = world.provider->fabric();

  DiurnalResult out;
  // Steady arrivals: one 40 MB island-crossing flow every 10 minutes for
  // the whole horizon. Flows caught inside a partition window strand at
  // rate zero and resume on heal — none are aborted, so failed stays 0.
  const SimTime horizon_end =
      world.engine.now() + SimDuration::hours(c.days * 24.0);
  const auto src = fabric.add_node(kSrc, ByteRate::megabits_per_sec(100),
                                   ByteRate::megabits_per_sec(100));
  const auto dst = fabric.add_node(kDst, ByteRate::megabits_per_sec(100),
                                   ByteRate::megabits_per_sec(100));
  std::function<void()> arrive = [&] {
    if (world.engine.now() >= horizon_end) return;
    fabric.start_flow(src, dst, Bytes::mb(40), {},
                      [&out](const cloud::FlowResult& r) {
                        r.ok() ? ++out.completed : ++out.failed;
                        if (r.ok()) out.moved_mb += r.transferred.to_mb();
                      });
    world.engine.schedule_after(SimDuration::minutes(10), [&] { arrive(); });
  };
  arrive();

  // The island (EU) loses the mainland for `partition_hours` starting at
  // 02:00 of every simulated day.
  FaultPlan plan;
  for (double day = 0; day < c.days; day += 1.0) {
    plan.partition(world.engine.now() + SimDuration::hours(day * 24.0 + 2.0),
                   {kSrc, kRelay}, SimDuration::hours(c.partition_hours));
  }
  ChaosController chaos(world.engine, ChaosTargets{&fabric, nullptr},
                        std::move(plan), /*enabled=*/true);

  world.run_until([] { return false; },
                  SimDuration::hours(c.days * 24.0) + SimDuration::hours(6));
  out.faults = chaos.faults_applied();
  out.reverts = chaos.reverts_applied();
  return out;
}

void run_c2(BenchContext& ctx) {
  const std::vector<DiurnalCell> grid =
      ctx.smoke() ? std::vector<DiurnalCell>{{0.5, 2}}
                  : std::vector<DiurnalCell>{{2.0, 2}, {2.0, 6}, {4.0, 2}};
  const auto results =
      ctx.sweep("chaos-diurnal", grid, [](const DiurnalCell& c) { return run_diurnal(c); });

  TextTable t({"Days", "Cut h/day", "Completed", "Failed", "Moved MB",
               "Partitions", "Heals"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const DiurnalResult& r = results[i];
    t.add_row({TextTable::num(grid[i].days, 1), std::to_string(grid[i].partition_hours),
               std::to_string(r.completed), std::to_string(r.failed),
               TextTable::num(r.moved_mb, 0), std::to_string(r.faults),
               std::to_string(r.reverts)});
  }
  print_table(t);
  print_note(
      "\nC2: partitions strand, they do not destroy — every arrival "
      "eventually completes (failed == 0) because share-zero flows park at "
      "rate zero until the heal event restores the cut links.");
}

// ---------------------------------------------------------------------------
// C3: storm recovery.
// ---------------------------------------------------------------------------

struct StormCell {
  double storms_per_day = 0.0;
};

struct StormResult {
  std::size_t storm_events = 0;
  int completed = 0;
  int failed = 0;
  double drain_s = 0.0;  // time past the storm horizon until the fabric idles
};

StormResult run_storm(const StormCell& c) {
  World world(31, /*stable=*/true);
  cloud::Fabric& fabric = world.provider->fabric();

  const SimDuration horizon = SimDuration::hours(24);
  const SimTime storm_horizon_end = world.engine.now() + horizon;

  // Background traffic: one back-to-back flow chain per declared WAN pair —
  // each completion (or abort) immediately launches the next flow until the
  // horizon, so the storms always find traffic in flight to hurt.
  int in_flight = 0;
  StormResult out;
  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : fabric.topology().edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }
  struct Chain {
    cloud::NodeId src;
    cloud::NodeId dst;
    Bytes payload;
  };
  auto chains = std::make_shared<std::vector<Chain>>();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    chains->push_back(Chain{
        fabric.add_node(a, ByteRate::megabits_per_sec(100),
                        ByteRate::megabits_per_sec(100)),
        fabric.add_node(b, ByteRate::megabits_per_sec(100),
                        ByteRate::megabits_per_sec(100)),
        Bytes::mb(200 + (static_cast<int>(i) % 7) * 100)});
  }
  std::function<void(std::size_t)> launch = [&, chains](std::size_t i) {
    const Chain& ch = (*chains)[i];
    ++in_flight;
    fabric.start_flow(ch.src, ch.dst, ch.payload, {},
                      [&, i](const cloud::FlowResult& r) {
                        --in_flight;
                        r.ok() ? ++out.completed : ++out.failed;
                        if (world.engine.now() >= storm_horizon_end) return;
                        if (r.ok()) {
                          launch(i);
                        } else {
                          // An aborted/rejected chain backs off before its
                          // next attempt (an instant relaunch against a
                          // failed endpoint would spin at one sim time).
                          world.engine.schedule_after(
                              SimDuration::minutes(1), [&, i] {
                                if (world.engine.now() < storm_horizon_end) launch(i);
                              });
                        }
                      });
  };
  for (std::size_t i = 0; i < chains->size(); ++i) launch(i);
  FaultPlan plan = FaultPlan::incident_storm(
      5, fabric.topology(), world.engine.now() + SimDuration::minutes(5), horizon,
      c.storms_per_day);
  out.storm_events = plan.size();
  ChaosController chaos(world.engine, ChaosTargets{&fabric, nullptr},
                        std::move(plan), /*enabled=*/true);

  const SimTime storm_end = world.engine.now() + horizon;
  world.engine.run_until(storm_end);
  const RunOutcome drained =
      world.run_until([&] { return in_flight == 0; }, SimDuration::days(2));
  out.drain_s = drained ? (world.engine.now() - storm_end).to_seconds() : -1.0;
  return out;
}

void run_c3(BenchContext& ctx) {
  const std::vector<StormCell> grid =
      ctx.smoke() ? std::vector<StormCell>{{24.0}}
                  : std::vector<StormCell>{{6.0}, {24.0}, {96.0}};
  const auto results =
      ctx.sweep("chaos-storm", grid, [](const StormCell& c) { return run_storm(c); });

  TextTable t({"Storms/day", "Fault events", "Completed", "Failed", "Drain s"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const StormResult& r = results[i];
    t.add_row({TextTable::num(grid[i].storms_per_day, 0),
               std::to_string(r.storm_events), std::to_string(r.completed),
               std::to_string(r.failed), TextTable::num(r.drain_s, 1)});
  }
  print_table(t);
  print_note(
      "\nC3: correlated storms (seeded hazard process, epicenter region, "
      "0.75 per-link involvement) abort some crossing flows and squeeze the "
      "rest; survivors drain shortly after the last squeeze reverts. "
      "Failed counts rise with storm intensity, drain time does not — "
      "recovery is bounded by the last storm's duration, not by how many "
      "storms preceded it.");
}

// ---------------------------------------------------------------------------
// C4: sharded soak with invariant checking.
// ---------------------------------------------------------------------------

struct SoakCell {
  std::size_t shards = 0;
};

struct SoakResult {
  int finished = 0;
  std::uint64_t faults = 0;   // per-lane (identical on every lane)
  std::uint64_t reverts = 0;  // per-lane
  bool invariants_ok = false;
  std::string first_violation;
};

SoakResult run_soak(const SoakCell& c, SimDuration horizon) {
  const auto topo =
      std::make_shared<const cloud::Topology>(cloud::stable_topology());
  const cloud::ShardPlan plan = cloud::plan_shards(*topo, c.shards);
  sim::ShardedSimEngine engine(
      sim::ShardedSimEngine::Options{plan.shards, plan.lookahead, true, 0});
  const auto lane_of = [&](Region r) -> std::size_t { return plan.shard(r); };

  for (std::size_t l = 0; l < engine.lane_count(); ++l) {
    engine.shard(l).enable_obs(obs::ObsConfig{});
  }

  std::vector<std::unique_ptr<cloud::Fabric>> fabrics;
  std::vector<ChaosTargets> targets;
  for (std::size_t l = 0; l < engine.lane_count(); ++l) {
    fabrics.push_back(std::make_unique<cloud::Fabric>(engine.shard(l), topo, 60 + l));
    targets.push_back(ChaosTargets{fabrics[l].get(), nullptr});
  }

  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : topo->edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }

  // Each flow lives in its source region's lane with fresh endpoints, so
  // distinct pairs settle on disjoint links and the numbers below are
  // shard-count invariant (the bench_fig_scale recipe, under fire).
  struct alignas(64) LaneTally {
    int finished = 0;
  };
  std::vector<LaneTally> tally(engine.lane_count());
  const auto nic = ByteRate::megabits_per_sec(100);
  const int flows = 64;
  for (int i = 0; i < flows; ++i) {
    const auto [a, b] = pairs[static_cast<std::size_t>(i) % pairs.size()];
    cloud::Fabric& owner = *fabrics[lane_of(a)];
    const auto src = owner.add_node(a, nic, nic);
    const auto dst = owner.add_node(b, nic, nic);
    LaneTally* t = &tally[lane_of(a)];
    const SimDuration start = SimDuration::minutes(3 * (i % 40));
    const Bytes payload = Bytes::mb(50 + (i % 9) * 25);
    engine.shard(lane_of(a)).schedule_after(start, [&owner, t, src, dst, payload] {
      owner.start_flow(src, dst, payload, {},
                       [t](const cloud::FlowResult&) { ++t->finished; });
    });
  }

  // One long random schedule: every fault class, every duration timed so
  // the whole plan reverts inside the horizon.
  FaultPlan fplan = FaultPlan::random(77, *topo,
                                      SimTime::epoch() + SimDuration::minutes(2),
                                      horizon - SimDuration::hours(1), 24);
  ChaosController chaos(engine, std::move(targets), std::move(fplan),
                        /*enabled=*/true);

  engine.run_until(SimTime::epoch() + horizon);
  // Random durations stretch to half the plan horizon, so the tail of the
  // auto-revert events can land past the soak window; drain them (and the
  // flows they were stranding) before auditing the books.
  engine.run_until(SimTime::epoch() + horizon + SimDuration::hours(5));

  SoakResult out;
  sage::testing::ChaosInvariants inv;
  std::uint64_t active = 0;
  for (std::size_t l = 0; l < engine.lane_count(); ++l) {
    inv.check_fabric(engine.shard(l), *fabrics[l]);
    active += fabrics[l]->active_flow_count();
    out.finished += tally[l].finished;
  }
  inv.check_engine(engine, engine.lane_count() + 2 * active);
  out.invariants_ok = inv.ok();
  if (!inv.ok()) out.first_violation = inv.violations().front();
  out.faults = chaos.faults_applied() / engine.lane_count();
  out.reverts = chaos.reverts_applied() / engine.lane_count();
  harness::report_task_shards(static_cast<int>(plan.shards));
  return out;
}

void run_c4(BenchContext& ctx) {
  const SimDuration horizon =
      ctx.smoke() ? SimDuration::hours(2) : SimDuration::hours(8);
  const std::vector<SoakCell> grid = {{1}, {2}, {4}};
  const auto results = ctx.sweep("chaos-soak", grid, [horizon](const SoakCell& c) {
    return run_soak(c, horizon);
  });

  TextTable t({"Shards", "Finished", "Faults", "Reverts", "Invariants"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SoakResult& r = results[i];
    t.add_row({std::to_string(grid[i].shards), std::to_string(r.finished),
               std::to_string(r.faults), std::to_string(r.reverts),
               r.invariants_ok ? "OK" : ("VIOLATED: " + r.first_violation)});
  }
  print_table(t);
  print_note(
      "\nC4: the same 24-event schedule soaked on the region-sharded engine. "
      "Rows are identical by construction — chaos events are lane-local, "
      "serialized with traffic inside each lane's event queue — so S in "
      "{1,2,4} and any SAGE_BENCH_THREADS print this exact table, and the "
      "ChaosInvariants checker (byte conservation, event accounting) signs "
      "off every row.");
}

// ---------------------------------------------------------------------------
// C5: the full SAGE control plane, sharded, under fire.
// ---------------------------------------------------------------------------

struct PlaneCell {
  std::size_t shards = 0;  // 0 = the plain unsharded SageEngine baseline
};

struct PlaneResult {
  int issued = 0;
  int completed = 0;
  int ok = 0;
  double sum_elapsed_s = 0.0;
  std::uint64_t chunks = 0;
  std::uint64_t retrans = 0;
  int replans = 0;
  std::uint64_t faults = 0;   // per-lane (identical on every lane)
  std::uint64_t reverts = 0;  // per-lane
  bool epochs_ok = false;
  bool plain = false;
};

/// The C5 fault schedule, shared by the sharded runs and the plain baseline.
/// Smoke compresses the fault times so they still land inside the (much
/// shorter) send schedule — the smoke golden must exercise the chaos-on
/// plane, not a healthy run that drains before the first fault.
FaultPlan plane_plan(SimTime t0, bool smoke) {
  FaultPlan fplan;
  fplan.region_outage(t0 + (smoke ? SimDuration::seconds(25)
                                  : SimDuration::minutes(5)),
                      kRelay,
                      smoke ? SimDuration::minutes(2) : SimDuration::minutes(8));
  fplan.capacity_squeeze(t0 + (smoke ? SimDuration::seconds(90)
                                     : SimDuration::minutes(12)),
                         kSrc, kDst, 0.4,
                         smoke ? SimDuration::minutes(2)
                               : SimDuration::minutes(10));
  fplan.poison_estimator(t0 + (smoke ? SimDuration::minutes(2)
                                     : SimDuration::minutes(16)),
                         kSrc, kDst, 900.0, 3);
  return fplan;
}

/// The unsharded baseline: the identical send schedule and fault plan driven
/// through a plain single-engine SageEngine (relay-capable plans, shared
/// long-lived endpoints, global fabric settlement). This is the control
/// plane a deploy_sage user runs today; the wall-clock delta against the
/// sharded rows is the number BENCH_PR10 records.
PlaneResult run_plane_plain(int sends, int payload_mb, bool smoke) {
  World world(91, /*stable=*/true);
  SageDeployOptions opts;
  opts.regions = world.provider->topology().regions();
  auto sage = deploy_sage(world, opts);
  const SimTime t0 = world.engine.now();

  ChaosController chaos(
      world.engine,
      ChaosTargets{&world.provider->fabric(), &sage->monitoring()},
      plane_plan(t0, smoke), /*enabled=*/true);

  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : world.provider->topology().edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }
  int done = 0;
  for (int i = 0; i < sends; ++i) {
    const auto [a, b] = pairs[static_cast<std::size_t>(i * 3) % pairs.size()];
    const Bytes payload = Bytes::mb(payload_mb + (i % 5) * 16);
    world.engine.schedule_after(
        SimDuration::seconds((smoke ? 10 : 3) * i),
        [&sage, &done, a, b, payload] {
          sage->send_with(model::Tradeoff::fastest(), a, b, payload,
                          [&done](const stream::SendOutcome&) { ++done; });
        });
  }
  const SimDuration quantum = SimDuration::minutes(1);
  const SimDuration budget = SimDuration::hours(3);
  SimDuration waited = SimDuration::zero();
  while (done < sends && waited < budget) {
    world.run_for(quantum);
    waited = waited + quantum;
  }

  PlaneResult out;
  out.plain = true;
  out.issued = sends;
  out.completed = done;
  for (const core::SendRecord& rec : sage->history()) {
    if (rec.ok) ++out.ok;
    out.sum_elapsed_s += rec.elapsed.to_seconds();
    out.chunks += static_cast<std::uint64_t>(rec.stats.chunks_delivered);
    out.retrans += static_cast<std::uint64_t>(rec.stats.retransmissions);
    out.replans += rec.replans;
  }
  out.faults = chaos.faults_applied();
  out.reverts = chaos.reverts_applied();
  harness::report_task_records(out.chunks);
  harness::report_task_shards(0);
  return out;
}

PlaneResult run_plane(const PlaneCell& c, int sends, int payload_mb,
                      bool smoke) {
  if (c.shards == 0) return run_plane_plain(sends, payload_mb, smoke);
  const auto topo =
      std::make_shared<const cloud::Topology>(cloud::stable_topology());
  SageDeployOptions opts;
  opts.regions = topo->regions();
  auto sage = deploy_sharded_sage(topo, 91, opts, static_cast<int>(c.shards));
  const SimTime t0 = sage->engine().shard(0).now();

  // Chaos, through the per-lane targets of the sharded controller: a region
  // outage lands mid-transfer (killing the owned transfers' ephemeral
  // endpoints and scatter helpers — those sends fail over or fail cleanly,
  // and self-healing replaces the pools), a capacity squeeze bends the
  // busiest link's rates, and an estimator poisoning feeds every lane's map
  // the same garbage through the normal ingestion path.
  FaultPlan fplan = plane_plan(t0, smoke);
  std::vector<ChaosTargets> targets;
  for (std::size_t l = 0; l < sage->lane_count(); ++l) {
    targets.push_back(
        ChaosTargets{&sage->provider(l).fabric(), &sage->lane(l).monitoring()});
  }
  ChaosController chaos(sage->engine(), std::move(targets), std::move(fplan),
                        /*enabled=*/true);

  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : topo->edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }

  // A staggered schedule of full control-plane sends (widest tradeoff, so
  // every transfer fans out over its scatter helpers) keeps a standing
  // population of concurrent flows in every lane's fabric — the settlement
  // load the shard partition divides. Completion lands on the owning lane;
  // tallies are per-lane and summed only between run_for windows.
  struct alignas(64) LaneDone {
    int done = 0;
  };
  std::vector<LaneDone> done(sage->lane_count());
  core::ShardedSage* plane = sage.get();
  for (int i = 0; i < sends; ++i) {
    // Stride 3 spreads the schedule over source regions (so several lanes
    // own work at S=4) and lands sends on the outage region mid-fault.
    const auto [a, b] = pairs[static_cast<std::size_t>(i * 3) % pairs.size()];
    const std::size_t l = sage->lane_of(a);
    const Bytes payload = Bytes::mb(payload_mb + (i % 5) * 16);
    // Smoke staggers sends far enough apart to stay quick; the full run packs
    // them so a large standing flow population contends in every lane — the
    // settlement load the shard partition divides.
    sage->engine().shard(l).schedule_after(
        SimDuration::seconds((smoke ? 10 : 3) * i),
        [plane, &done, l, a, b, payload] {
          plane->send(a, b, payload, model::Tradeoff::fastest(),
                      [&done, l](const stream::SendOutcome&) { ++done[l].done; });
        });
  }

  const SimDuration quantum = SimDuration::minutes(1);
  const SimDuration budget = SimDuration::hours(3);
  SimDuration waited = SimDuration::zero();
  auto total_done = [&] {
    int n = 0;
    for (const LaneDone& d : done) n += d.done;
    return n;
  };
  while (total_done() < sends && waited < budget) {
    sage->run_for(quantum);
    waited = waited + quantum;
  }

  PlaneResult out;
  out.issued = sends;
  out.completed = total_done();
  for (std::size_t l = 0; l < sage->lane_count(); ++l) {
    for (const core::SendRecord& rec : sage->lane(l).history()) {
      if (rec.ok) ++out.ok;
      out.sum_elapsed_s += rec.elapsed.to_seconds();
      out.chunks += static_cast<std::uint64_t>(rec.stats.chunks_delivered);
      out.retrans += static_cast<std::uint64_t>(rec.stats.retransmissions);
      out.replans += rec.replans;
    }
  }
  out.faults = chaos.faults_applied() / sage->lane_count();
  out.reverts = chaos.reverts_applied() / sage->lane_count();
  out.epochs_ok = sage->epochs_consistent();
  harness::report_task_records(out.chunks);
  harness::report_task_shards(static_cast<int>(sage->plan().shards));
  return out;
}

void run_c5(BenchContext& ctx) {
  const int sends = ctx.smoke() ? 12 : 96;
  const int payload_mb = ctx.smoke() ? 48 : 192;
  const std::vector<PlaneCell> grid = {{0}, {1}, {2}, {4}};
  const bool smoke = ctx.smoke();
  const auto results = ctx.sweep(
      "chaos-plane", grid, [sends, payload_mb, smoke](const PlaneCell& c) {
        return run_plane(c, sends, payload_mb, smoke);
      });

  TextTable t({"Shards", "Sends", "Done", "OK", "Sum elapsed s", "Chunks",
               "Retrans", "Replans", "Faults", "Reverts", "Epochs"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const PlaneResult& r = results[i];
    t.add_row({r.plain ? "plain" : std::to_string(grid[i].shards),
               std::to_string(r.issued), std::to_string(r.completed),
               std::to_string(r.ok), TextTable::num(r.sum_elapsed_s, 1),
               std::to_string(r.chunks), std::to_string(r.retrans),
               std::to_string(r.replans), std::to_string(r.faults),
               std::to_string(r.reverts),
               r.plain ? "n/a" : (r.epochs_ok ? "lock-step" : "DIVERGED")});
  }
  print_table(t);
  print_note(
      "\nC5: full deploy_sage scenarios (monitoring + tradeoff + planner + "
      "adaptive transfers + self-healing) on the region-sharded engine with "
      "the same fault schedule applied to every lane. The `plain` row drives "
      "the identical send schedule and fault plan through today's unsharded "
      "SageEngine — relay-capable plans and shared long-lived endpoints, so "
      "its numbers legitimately differ; its --json wall clock is the "
      "baseline the sharded rows are measured against. The S rows are "
      "identical to each other because activity is partitioned by "
      "source-region ownership, samples reach every lane at one uniform "
      "report delay, and faults serialize with traffic inside each lane — "
      "so the per-lane sample epochs stay in lock-step and every control "
      "decision replays at any shard count.");
}

void run(BenchContext& ctx) {
  run_c1(ctx);
  run_c2(ctx);
  run_c3(ctx);
  run_c4(ctx);
  run_c5(ctx);
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(argc, argv, "fig_chaos", "Fig C",
                                "Chaos: deterministic fault injection");
  sage::bench::run(ctx);
  return ctx.finish();
}
